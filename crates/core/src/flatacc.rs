//! Flat, arena-backed Phase-I pair accumulator.
//!
//! The original pass-2 accumulator ([`PairAccumulator`]) keys a std
//! `HashMap<(u32, u32), (f64, Vec<u32>)>` and allocates one heap `Vec`
//! per vertex pair — K₁ allocations plus K₂ pushes across K₁ separately
//! grown vectors. This module replaces that layout with two flat
//! structures:
//!
//! * an **open-addressed table** (linear probing, power-of-two capacity)
//!   keyed by the pair packed into a `u64` (`i << 32 | j`, `i < j` — the
//!   packed integers sort exactly like [`VertexPair`]s), holding the
//!   running weight-product sum and the common-neighbor chain head per
//!   slot; and
//! * a single shared **arena** of chained `(vertex, prev)` nodes that
//!   every pair appends its common neighbors into — one `Vec` push per
//!   record instead of one `Vec` per pair.
//!
//! [`into_similarities`](FlatPairAccumulator::into_similarities)
//! materializes the same deterministic key-sorted list as the map-based
//! accumulator, in one pass over the occupied slots, writing every
//! chain into the [`PairSimilarities`] common-neighbor arena.
//!
//! The owner-sharded parallel pass 2 (`linkclust-parallel`) builds one
//! accumulator per owner thread and feeds it pre-routed records via
//! [`record`](FlatPairAccumulator::record); the serial pass uses
//! [`process_vertex`](FlatPairAccumulator::process_vertex) directly.
//!
//! [`PairAccumulator`]: crate::init::PairAccumulator

use linkclust_graph::{GraphView, VertexId};

use crate::similarity::{PairSimilarities, VertexPair};

/// Sentinel for an empty table slot. Unreachable as a real key: a packed
/// key needs `i == u32::MAX` in the high half, and `i < j` leaves no
/// valid `j`.
const EMPTY: u64 = u64::MAX;

/// Sentinel terminating a common-neighbor chain.
const NIL: u32 = u32::MAX;

/// Grow when `len * 8 >= capacity * 7` (7/8 load factor).
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Packs the canonical vertex pair `(i, j)` (`i < j`) into the table
/// key `i << 32 | j`. Packed keys compare exactly like the pairs they
/// encode, so a key-sorted slot list is a pair-sorted entry list.
///
/// # Examples
///
/// ```
/// use linkclust_core::flatacc::pack_pair;
///
/// assert!(pack_pair(0, 1) < pack_pair(0, 2));
/// assert!(pack_pair(0, 99) < pack_pair(1, 2));
/// ```
#[inline]
#[must_use]
pub fn pack_pair(i: u32, j: u32) -> u64 {
    debug_assert!(i < j, "pair keys must be canonical (i < j)");
    (u64::from(i) << 32) | u64::from(j)
}

/// Recovers `(i, j)` from a packed key.
#[inline]
#[must_use]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// One node of the shared common-neighbor arena: a recorded common
/// neighbor and the index of the previously recorded node of the same
/// pair (`NIL` at the chain end).
#[derive(Clone, Copy, Debug)]
struct ArenaNode {
    vertex: u32,
    prev: u32,
}

/// The flat pass-2 accumulator: map `M` of Algorithm 1 as an
/// open-addressed table plus one common-neighbor arena.
///
/// # Examples
///
/// ```
/// use linkclust_core::flatacc::FlatPairAccumulator;
/// use linkclust_graph::GraphBuilder;
/// use linkclust_graph::VertexId;
///
/// // Path 0-1-2: vertex 1 contributes the single pair (0, 2).
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)])?.build();
/// let mut acc = FlatPairAccumulator::for_graph(&g);
/// for v in g.vertices() {
///     acc.process_vertex(&g, v);
/// }
/// let sums = acc.into_similarities();
/// assert_eq!(sums.len(), 1);
/// assert!((sums.entries()[0].score - 6.0).abs() < 1e-12);
/// assert_eq!(sums.common_neighbors(&sums.entries()[0]), &[VertexId::new(1)]);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FlatPairAccumulator {
    /// Slot keys (`EMPTY` or a packed pair). Length is a power of two.
    keys: Vec<u64>,
    /// Running `Σ w_ik·w_jk` per slot.
    sums: Vec<f64>,
    /// Per-slot head of the common-neighbor chain (most recent node).
    heads: Vec<u32>,
    /// The shared common-neighbor arena (one node per record).
    arena: Vec<ArenaNode>,
    /// Occupied slot count (K₁ once accumulation finishes).
    len: usize,
}

impl Default for FlatPairAccumulator {
    fn default() -> Self {
        Self::with_pair_capacity(0)
    }
}

impl FlatPairAccumulator {
    /// Creates an accumulator sized for roughly `pairs` distinct keys
    /// and `records` total common-neighbor records (the arena
    /// reservation). Both are estimates — the table grows past them.
    #[must_use]
    pub fn with_capacity(pairs: usize, records: usize) -> Self {
        let slots = (pairs * LOAD_DEN / LOAD_NUM + 1).next_power_of_two().max(16);
        FlatPairAccumulator {
            keys: vec![EMPTY; slots],
            sums: vec![0.0; slots],
            heads: vec![NIL; slots],
            arena: Vec::with_capacity(records),
            len: 0,
        }
    }

    /// [`with_capacity`](Self::with_capacity) with `pairs` only (no
    /// arena reservation).
    #[must_use]
    pub fn with_pair_capacity(pairs: usize) -> Self {
        Self::with_capacity(pairs, 0)
    }

    /// Sizes an accumulator for a full pass over `g`: the incident-pair
    /// count K₂ = Σᵥ d(v)(d(v)−1)/2 is both the exact arena size and a
    /// cheap O(|V|) upper bound on the key count K₁ (each record names
    /// one pair, so distinct pairs ≤ records). The table estimate is
    /// additionally clamped by the all-pairs bound C(|V|, 2).
    #[must_use]
    pub fn for_graph<G: GraphView + ?Sized>(g: &G) -> Self {
        let k2 = linkclust_graph::stats::count_incident_edge_pairs(g);
        let n = g.vertex_count() as u64;
        let all_pairs = n * n.saturating_sub(1) / 2;
        Self::with_capacity(k2.min(all_pairs) as usize, k2 as usize)
    }

    /// Number of distinct vertex-pair keys accumulated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no pairs have been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total common-neighbor records appended so far (Σ over pairs of
    /// their common-neighbor counts; K₂ after a full pass).
    #[must_use]
    pub fn records(&self) -> usize {
        self.arena.len()
    }

    /// Current table load factor (occupied slots / capacity) — the
    /// occupancy gauge the telemetry layer reports.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.keys.len() as f64
    }

    /// Fibonacci-style finalizer (the 64-bit murmur3 mix): packed keys
    /// are highly regular (low-entropy high halves), so the raw key must
    /// not feed linear probing directly.
    #[inline]
    fn hash(key: u64) -> u64 {
        let mut x = key;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }

    /// Finds the slot of `key`, or the empty slot where it belongs.
    #[inline]
    fn probe(keys: &[u64], key: u64) -> usize {
        let mask = keys.len() - 1;
        let mut slot = (Self::hash(key) as usize) & mask;
        loop {
            let k = keys[slot];
            if k == key || k == EMPTY {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table and re-places every occupied slot. The arena is
    /// untouched — chains are slot-independent.
    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let mut keys = vec![EMPTY; new_slots];
        let mut sums = vec![0.0; new_slots];
        let mut heads = vec![NIL; new_slots];
        for old in 0..self.keys.len() {
            let key = self.keys[old];
            if key == EMPTY {
                continue;
            }
            let slot = Self::probe(&keys, key);
            keys[slot] = key;
            sums[slot] = self.sums[old];
            heads[slot] = self.heads[old];
        }
        self.keys = keys;
        self.sums = sums;
        self.heads = heads;
    }

    /// Accrues one record: pair `key` gains `w` (the weight product
    /// `w_vi·w_vj`) and common neighbor `v`. This is the routed-record
    /// entry point of the owner-sharded parallel pass 2.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32::MAX - 1` records (the chain
    /// index width).
    #[inline]
    pub fn record(&mut self, key: u64, w: f64, v: u32) {
        if (self.len + 1) * LOAD_DEN >= self.keys.len() * LOAD_NUM {
            self.grow();
        }
        let slot = Self::probe(&self.keys, key);
        if self.keys[slot] == EMPTY {
            self.keys[slot] = key;
            self.len += 1;
        }
        self.sums[slot] += w;
        let node = u32::try_from(self.arena.len()).expect("arena indices are u32");
        assert!(node != NIL, "arena overflow: more than u32::MAX - 1 records");
        self.arena.push(ArenaNode { vertex: v, prev: self.heads[slot] });
        self.heads[slot] = node;
    }

    /// Processes one vertex `v` (the body of the pass-2 loop): every
    /// unordered pair of `v`'s neighbors `(vⱼ, vₖ)` accrues `w_vj·w_vk`
    /// and records `v` as a common neighbor.
    pub fn process_vertex<G: GraphView + ?Sized>(&mut self, g: &G, v: VertexId) {
        let nbrs = g.neighbors(v);
        let vid = u32::from(v);
        for (a, x) in nbrs.iter().enumerate() {
            for y in &nbrs[a + 1..] {
                // adjacency lists are sorted, so x.vertex < y.vertex
                let key = pack_pair(u32::from(x.vertex), u32::from(y.vertex));
                self.record(key, x.weight * y.weight, vid);
            }
        }
    }

    /// Materializes map `M` as a key-sorted, **unfinalized**
    /// [`PairSimilarities`]: each entry's score holds its running sum
    /// `Σ w_ik·w_jk` until pass 3 ([`finalize_entries`]) replaces it.
    /// Occupied slots are sorted by packed key (== pair order), then each
    /// chain is unrolled into the list's arena. Chains store records
    /// newest-first, so the unrolled run is reversed back to insertion
    /// order, which every in-repo producer keeps ascending; a defensive
    /// sort covers out-of-order external callers.
    ///
    /// [`finalize_entries`]: crate::init::finalize_entries
    #[must_use]
    pub fn into_similarities(self) -> PairSimilarities {
        let mut slots: Vec<(u64, f64, u32)> = Vec::with_capacity(self.len);
        for slot in 0..self.keys.len() {
            if self.keys[slot] != EMPTY {
                slots.push((self.keys[slot], self.sums[slot], self.heads[slot]));
            }
        }
        slots.sort_unstable_by_key(|&(key, ..)| key);
        let mut sims = PairSimilarities::with_capacity(slots.len(), self.arena.len());
        let mut run = Vec::new();
        for (key, sum, head) in slots {
            run.clear();
            let mut node = head;
            while node != NIL {
                // cast: u32 arena index to index, lossless on 32- and 64-bit.
                let n = self.arena[node as usize];
                run.push(VertexId::from(n.vertex));
                node = n.prev;
            }
            run.reverse();
            if !run.is_sorted() {
                run.sort_unstable();
            }
            let (i, j) = unpack_pair(key);
            let pair = VertexPair::new(VertexId::from(i), VertexId::from(j));
            sims.push(pair, sum, run.iter().copied());
        }
        sims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{accumulate_pairs, PairAccumulator};
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};
    use linkclust_graph::{GraphBuilder, WeightedGraph};

    fn flat_over(g: &WeightedGraph) -> FlatPairAccumulator {
        let mut acc = FlatPairAccumulator::for_graph(g);
        for v in g.vertices() {
            acc.process_vertex(g, v);
        }
        acc
    }

    fn assert_matches_map(g: &WeightedGraph) {
        let flat = flat_over(g);
        let map: PairAccumulator = accumulate_pairs(g, g.vertices());
        assert_eq!(flat.len(), map.len());
        let (fs, ms) = (flat.into_similarities(), map.into_similarities());
        assert_eq!(fs.len(), ms.len());
        for (a, b) in fs.entries().iter().zip(ms.entries()) {
            assert_eq!(a.pair, b.pair);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "sums must be bit-identical at {}",
                a.pair
            );
            assert_eq!(fs.common_neighbors(a), ms.common_neighbors(b));
        }
        assert_eq!(fs, ms, "whole lists, arena included");
    }

    #[test]
    fn pack_unpack_roundtrip_and_order() {
        for (i, j) in [(0u32, 1u32), (0, u32::MAX - 1), (5, 9), (1000, 2000)] {
            assert_eq!(unpack_pair(pack_pair(i, j)), (i, j));
        }
        assert!(pack_pair(0, u32::MAX - 1) < pack_pair(1, 2));
    }

    #[test]
    fn matches_map_accumulator_on_gnm() {
        for seed in 0..5 {
            let g = gnm(40, 150, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            assert_matches_map(&g);
        }
    }

    #[test]
    fn matches_map_accumulator_on_power_law() {
        let g = barabasi_albert(120, 4, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 3);
        assert_matches_map(&g);
    }

    #[test]
    fn grows_from_a_tiny_table() {
        let g = gnm(50, 200, WeightMode::Unit, 1);
        let mut acc = FlatPairAccumulator::with_pair_capacity(0);
        for v in g.vertices() {
            acc.process_vertex(&g, v);
        }
        let map = accumulate_pairs(&g, g.vertices());
        assert_eq!(acc.len(), map.len());
        assert_eq!(acc.into_similarities(), map.into_similarities());
    }

    #[test]
    fn records_and_occupancy() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        let acc = flat_over(&g);
        assert_eq!(acc.records(), 1); // one (pair, common neighbor) record
        assert!(acc.occupancy() > 0.0 && acc.occupancy() <= 1.0);
        assert_eq!(acc.len(), 1);
        assert!(!acc.is_empty());
    }

    #[test]
    fn empty_accumulator() {
        let acc = FlatPairAccumulator::default();
        assert!(acc.is_empty());
        assert_eq!(acc.records(), 0);
        assert!(acc.into_similarities().is_empty());
    }

    #[test]
    fn out_of_order_records_still_sort_common_neighbors() {
        // Records arriving in descending common-neighbor order must
        // still materialize ascending (the defensive-sort path).
        let mut acc = FlatPairAccumulator::with_pair_capacity(4);
        let key = pack_pair(0, 1);
        acc.record(key, 1.0, 9);
        acc.record(key, 1.0, 4);
        acc.record(key, 1.0, 7);
        let sums = acc.into_similarities();
        assert_eq!(sums.len(), 1);
        assert_eq!(
            sums.common_neighbors(&sums.entries()[0]),
            &[VertexId::new(4), VertexId::new(7), VertexId::new(9)]
        );
        assert!((sums.entries()[0].score - 3.0).abs() < 1e-12);
    }
}

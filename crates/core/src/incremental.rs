//! Incremental maintenance of the Phase-I similarity state under edge
//! insertions and deletions.
//!
//! The paper computes map `M` from scratch (Algorithm 1). For evolving
//! graphs — the Twitter stream behind §VII grows by the day — a from-
//! scratch recomputation costs O(K₂) per update. This module maintains
//! the same state incrementally: adding or removing edge `(u, v)` only
//! touches the pairs `{v, x}` for `x ∈ N(u)` and `{u, y}` for
//! `y ∈ N(v)` — O(d(u) + d(v)) pair updates — because a new edge can
//! only create or destroy common-neighbor relations *through its own
//! endpoints*.
//!
//! Only the *combinatorial* state (adjacency and per-pair common
//! neighbors) is maintained incrementally. All floating-point values —
//! vertex norms `H₁`/`H₂`, pair product sums, adjacency correction, and
//! the final Tanimoto score — are recomputed at snapshot time in the
//! exact summation order of the batch pipeline. An earlier revision
//! kept running `Σ w`, `Σ w²`, and per-pair product accumulators that
//! were *adjusted* on each update; that drifts at the bit level
//! (`((p₁+p₂)+p₃)−p₂ ≠ p₁+p₃` in IEEE arithmetic) and could leave
//! stale near-zero pair accumulators behind after removals. Deriving
//! every float from the exact combinatorial state makes both failure
//! modes impossible by construction.
//!
//! This is an extension beyond the paper (see DESIGN.md); its
//! correctness contract is **bit-exact** (`f64::to_bits`) agreement
//! with the batch
//! [`compute_similarities`](crate::init::compute_similarities) on the
//! same final graph, which the property tests enforce.

use std::collections::HashMap;

use linkclust_graph::{GraphBuilder, GraphError, VertexId, WeightedGraph};

use crate::similarity::{PairSimilarities, VertexPair};

/// Phase-I similarity state that tracks a mutable weighted graph.
///
/// # Examples
///
/// ```
/// use linkclust_core::incremental::IncrementalSimilarities;
/// use linkclust_graph::VertexId;
///
/// let mut inc = IncrementalSimilarities::new(3);
/// inc.add_edge(VertexId::new(0), VertexId::new(1), 1.0)?;
/// inc.add_edge(VertexId::new(1), VertexId::new(2), 1.0)?;
/// let sims = inc.similarities();
/// assert_eq!(sims.len(), 1); // the pair (0, 2) via common neighbor 1
/// assert!((sims.entries()[0].score - 1.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalSimilarities {
    /// Sorted adjacency per vertex: `(neighbor, weight)`.
    adj: Vec<Vec<(u32, f64)>>,
    edge_count: usize,
    /// Map M state: the sorted common-neighbor list per vertex pair. A
    /// pair is present iff its list is non-empty, so stale entries
    /// cannot exist; all floats derive from this at snapshot time.
    pairs: HashMap<(u32, u32), Vec<u32>>,
}

impl IncrementalSimilarities {
    /// Creates the state for an edgeless graph on `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        IncrementalSimilarities { adj: vec![Vec::new(); n], edge_count: 0, pairs: HashMap::new() }
    }

    /// Builds the state from an existing graph (batch initialization,
    /// then ready for incremental updates).
    ///
    /// # Panics
    ///
    /// Never panics in practice: a built [`WeightedGraph`] has in-range
    /// endpoints, no duplicate edges, and positive weights, which is
    /// exactly what [`IncrementalSimilarities::add_edge`] requires.
    #[must_use]
    pub fn from_graph(g: &WeightedGraph) -> Self {
        let mut inc = Self::new(g.vertex_count());
        for (_, e) in g.edges() {
            inc.add_edge(e.source, e.target, e.weight)
                .expect("edges of a valid graph insert cleanly");
        }
        inc
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges currently present.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Appends a new isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::new(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// The current weight of edge `{u, v}`, if present.
    #[must_use]
    pub fn weight_between(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let list = self.adj.get(u.index())?;
        list.binary_search_by_key(&(u32::from(v)), |&(n, _)| n).ok().map(|i| list[i].1)
    }

    /// Inserts edge `{u, v}` with weight `w`, updating the similarity
    /// state in O(d(u) + d(v)) pair touches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`]: unknown endpoints,
    /// self-loops, duplicates, and non-finite/non-positive weights.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> Result<(), GraphError> {
        let n = self.adj.len();
        for &x in &[u, v] {
            if x.index() >= n {
                return Err(GraphError::UnknownVertex { vertex: x, vertex_count: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if !w.is_finite() || w <= 0.0 {
            return Err(GraphError::InvalidWeight { weight: w });
        }
        if self.weight_between(u, v).is_some() {
            let (s, t) = if u < v { (u, v) } else { (v, u) };
            return Err(GraphError::DuplicateEdge { source: s, target: t });
        }

        // New common-neighbor relations created by this edge: every
        // existing neighbor x of u now shares u with v (and vice versa).
        self.touch_pairs_through(u, v, true);
        self.touch_pairs_through(v, u, true);

        insert_sorted(&mut self.adj[u.index()], u32::from(v), w);
        insert_sorted(&mut self.adj[v.index()], u32::from(u), w);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes edge `{u, v}`, updating the similarity state.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertex`] for out-of-range endpoints;
    /// returns `Ok(false)` (not an error) if the edge was absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        let n = self.adj.len();
        for &x in &[u, v] {
            if x.index() >= n {
                return Err(GraphError::UnknownVertex { vertex: x, vertex_count: n });
            }
        }
        if self.weight_between(u, v).is_none() {
            return Ok(false);
        }

        // Drop adjacency first so touch_pairs_through sees N(u) without v.
        remove_sorted(&mut self.adj[u.index()], u32::from(v));
        remove_sorted(&mut self.adj[v.index()], u32::from(u));
        self.edge_count -= 1;

        self.touch_pairs_through(u, v, false);
        self.touch_pairs_through(v, u, false);
        Ok(true)
    }

    /// For every current neighbor `x` of `hub`, record (or erase) `hub`
    /// as a common neighbor of the pair `{other, x}`. Pairs whose
    /// common-neighbor list empties are removed from the map outright.
    ///
    /// # Panics
    ///
    /// In erase mode, panics if the pair map has no entry for a pair the
    /// adjacency lists imply — the two structures are maintained in
    /// lockstep, so this indicates internal corruption.
    fn touch_pairs_through(&mut self, hub: VertexId, other: VertexId, add: bool) {
        let hub_u32 = u32::from(hub);
        let other_u32 = u32::from(other);
        // Clone is bounded by d(hub); avoids aliasing the map borrow.
        let neighbors: Vec<(u32, f64)> = self.adj[hub.index()].clone();
        for (x, _) in neighbors {
            if x == other_u32 {
                continue;
            }
            let key = (other_u32.min(x), other_u32.max(x));
            if add {
                let commons = self.pairs.entry(key).or_default();
                match commons.binary_search(&hub_u32) {
                    Ok(_) => unreachable!("hub was not previously a common neighbor"),
                    Err(pos) => commons.insert(pos, hub_u32),
                }
            } else {
                let commons = self.pairs.get_mut(&key).expect("pair existed before removal");
                if let Ok(pos) = commons.binary_search(&hub_u32) {
                    commons.remove(pos);
                }
                if commons.is_empty() {
                    self.pairs.remove(&key);
                }
            }
        }
    }

    /// Snapshot: materializes the current [`PairSimilarities`] (unsorted;
    /// call [`into_sorted`](PairSimilarities::into_sorted) before
    /// sweeping).
    ///
    /// Every float is recomputed here from the exact combinatorial
    /// state, replaying the batch pipeline's summation orders: norms
    /// sum incident weights in ascending-neighbor order (pass 1), pair
    /// product sums accumulate over common neighbors in ascending hub
    /// order (pass 2), and the adjacency correction plus Tanimoto
    /// division match [`finalize_entries`](crate::init::finalize_entries)
    /// (pass 3). The result is therefore bit-identical to
    /// [`compute_similarities`](crate::init::compute_similarities) on
    /// [`to_graph`](Self::to_graph).
    ///
    /// # Panics
    ///
    /// Panics if the pair map references an edge absent from the
    /// adjacency lists — the two structures are maintained in lockstep,
    /// so this indicates internal corruption.
    #[must_use]
    pub fn similarities(&self) -> PairSimilarities {
        let h = |i: usize| -> (f64, f64) {
            let nbrs = &self.adj[i];
            if nbrs.is_empty() {
                return (0.0, 0.0);
            }
            let (mut sum, mut sq) = (0.0, 0.0);
            for &(_, w) in nbrs {
                sum += w;
                sq += w * w;
            }
            let mean = sum / nbrs.len() as f64;
            (mean, mean * mean + sq)
        };
        let weight_of = |a: u32, b: u32| -> f64 {
            // cast: u32 id to index, lossless on 64-bit.
            let list = &self.adj[a as usize];
            let pos = list
                .binary_search_by_key(&b, |&(n, _)| n)
                .expect("pair state implies an edge the adjacency lists lack");
            list[pos].1
        };
        // Key order, as the batch accumulator materializes map `M`.
        let mut pairs: Vec<_> = self.pairs.iter().collect();
        pairs.sort_unstable_by_key(|&(&key, _)| key);
        let records = pairs.iter().map(|(_, commons)| commons.len()).sum();
        let mut sims = PairSimilarities::with_capacity(pairs.len(), records);
        for (&(i, j), commons) in pairs {
            let (vi, vj) = (VertexId::from(i), VertexId::from(j));
            // cast: u32 ids to indices, lossless on 64-bit.
            let (h1i, h2i) = h(i as usize);
            // cast: u32 id to index, lossless on 64-bit.
            let (h1j, h2j) = h(j as usize);
            // Pass-2 replay: commons is sorted ascending, matching
            // the batch loop over hub vertices 0..n.
            let mut value = 0.0;
            for &c in commons {
                value += weight_of(c, i) * weight_of(c, j);
            }
            if let Some(w) = self.weight_between(vi, vj) {
                value += (h1i + h1j) * w;
            }
            let score = value / (h2i + h2j - value);
            sims.push(VertexPair::new(vi, vj), score, commons.iter().copied().map(VertexId::from));
        }
        sims
    }

    /// Materializes the current graph as an immutable [`WeightedGraph`]
    /// (edge ids follow sorted `(u, v)` order, not insertion history).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the internal adjacency is kept
    /// symmetric and duplicate-free, which satisfies the builder.
    #[must_use]
    pub fn to_graph(&self) -> WeightedGraph {
        let mut b = GraphBuilder::with_vertices(self.adj.len());
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &(v, w) in nbrs {
                // cast: `u` is addressable by the u32-backed `VertexId`
                // (its neighbors store it as u32); `v` widens losslessly.
                if (u as u32) < v {
                    b.add_edge(VertexId::new(u), VertexId::new(v as usize), w)
                        .expect("internal adjacency is consistent");
                }
            }
        }
        b.build()
    }
}

fn insert_sorted(list: &mut Vec<(u32, f64)>, key: u32, w: f64) {
    match list.binary_search_by_key(&key, |&(n, _)| n) {
        Ok(_) => unreachable!("caller checked for duplicates"),
        Err(pos) => list.insert(pos, (key, w)),
    }
}

fn remove_sorted(list: &mut Vec<(u32, f64)>, key: u32) {
    if let Ok(pos) = list.binary_search_by_key(&key, |&(n, _)| n) {
        list.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Asserts the incremental state matches a batch recomputation of
    /// the same graph.
    fn assert_matches_batch(inc: &IncrementalSimilarities) {
        let g = inc.to_graph();
        let batch = compute_similarities(&g);
        let snap = inc.similarities();
        assert_eq!(snap.len(), batch.len(), "entry count");
        for (a, b) in snap.entries().iter().zip(batch.entries()) {
            assert_eq!(a.pair, b.pair);
            assert_eq!(snap.common_neighbors(a), batch.common_neighbors(b), "pair {}", a.pair);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "pair {} incremental {} batch {}",
                a.pair,
                a.score,
                b.score
            );
        }
        assert_eq!(snap, batch, "whole lists, arena included");
    }

    #[test]
    fn matches_batch_after_insertions() {
        let g = gnm(25, 80, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let inc = IncrementalSimilarities::from_graph(&g);
        assert_eq!(inc.edge_count(), 80);
        assert_matches_batch(&inc);
    }

    #[test]
    fn matches_batch_after_interleaved_removals() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut inc = IncrementalSimilarities::new(18);
        let mut present: Vec<(usize, usize)> = Vec::new();
        for step in 0..400 {
            if !present.is_empty() && rng.gen_bool(0.35) {
                let idx = rng.gen_range(0..present.len());
                let (a, b) = present.swap_remove(idx);
                assert!(inc.remove_edge(v(a), v(b)).unwrap());
            } else {
                let (a, b) = (rng.gen_range(0..18), rng.gen_range(0..18));
                if a != b && inc.weight_between(v(a), v(b)).is_none() {
                    inc.add_edge(v(a), v(b), rng.gen_range(0.1..2.0)).unwrap();
                    present.push((a.min(b), a.max(b)));
                }
            }
            if step % 80 == 79 {
                assert_matches_batch(&inc);
            }
        }
        assert_matches_batch(&inc);
    }

    #[test]
    fn removal_of_absent_edge_is_ok_false() {
        let mut inc = IncrementalSimilarities::new(3);
        assert!(!inc.remove_edge(v(0), v(1)).unwrap());
        inc.add_edge(v(0), v(1), 1.0).unwrap();
        assert!(inc.remove_edge(v(0), v(1)).unwrap());
        assert!(!inc.remove_edge(v(0), v(1)).unwrap());
        assert_eq!(inc.edge_count(), 0);
        assert!(inc.similarities().is_empty());
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut inc = IncrementalSimilarities::new(2);
        assert!(matches!(inc.add_edge(v(0), v(0), 1.0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(inc.add_edge(v(0), v(5), 1.0), Err(GraphError::UnknownVertex { .. })));
        assert!(matches!(
            inc.add_edge(v(0), v(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        inc.add_edge(v(0), v(1), 1.0).unwrap();
        assert!(matches!(inc.add_edge(v(1), v(0), 2.0), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn add_vertex_grows_the_graph() {
        let mut inc = IncrementalSimilarities::new(1);
        let b = inc.add_vertex();
        let c = inc.add_vertex();
        inc.add_edge(v(0), b, 1.0).unwrap();
        inc.add_edge(b, c, 1.0).unwrap();
        assert_eq!(inc.vertex_count(), 3);
        assert_matches_batch(&inc);
    }

    #[test]
    fn full_teardown_leaves_empty_state() {
        let g = gnm(12, 30, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 8);
        let mut inc = IncrementalSimilarities::from_graph(&g);
        for (_, e) in g.edges() {
            assert!(inc.remove_edge(e.source, e.target).unwrap());
        }
        assert_eq!(inc.edge_count(), 0);
        assert!(inc.similarities().is_empty());
        assert!(inc.pairs.is_empty(), "no residual pair state");
        assert!(inc.adj.iter().all(Vec::is_empty), "no residual adjacency");
    }

    #[test]
    fn snapshot_sweeps_like_batch() {
        use crate::reference::canonical_labels;
        use crate::sweep::{sweep, SweepConfig};
        let g = gnm(20, 60, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 13);
        let inc = IncrementalSimilarities::from_graph(&g);
        let g2 = inc.to_graph();
        let a = sweep(&g2, &inc.similarities().into_sorted(), SweepConfig::default());
        let b = sweep(&g2, &compute_similarities(&g2).into_sorted(), SweepConfig::default());
        let ca: Vec<usize> = a.edge_assignments().iter().map(|&x| x as usize).collect();
        let cb: Vec<usize> = b.edge_assignments().iter().map(|&x| x as usize).collect();
        assert_eq!(canonical_labels(&ca), canonical_labels(&cb));
    }
}

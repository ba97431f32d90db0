//! Phase I — similarity initialization (Algorithm 1 of the paper).
//!
//! Computes, for every vertex pair `(vᵢ, vⱼ)` with at least one common
//! neighbor, the Tanimoto similarity (Eq. 1)
//!
//! ```text
//! S(e_ik, e_jk) = aᵢ·aⱼ / (|aᵢ|² + |aⱼ|² − aᵢ·aⱼ)
//! ```
//!
//! where `aᵢ` is the inclusive weight vector of vᵢ (Eq. 2: `Ã_ij = w_ij`
//! for neighbors, and the *mean* incident weight on the diagonal). The
//! phase makes three passes over the graph:
//!
//! 1. [`vertex_norms`] — arrays `H₁` (mean incident weight) and `H₂`
//!    (`|aᵢ|² = H₁² + Σw²`);
//! 2. map `M` — for every vertex, every pair of its neighbors accrues
//!    the weight product `w_ij·w_ik` and the common neighbor itself.
//!    The production pass 2 is the flat, arena-backed
//!    [`FlatPairAccumulator`](crate::flatacc::FlatPairAccumulator)
//!    (packed `u64` keys, one shared common-neighbor arena); the
//!    original map-based [`PairAccumulator`] (one `HashMap` entry and
//!    one `Vec` per pair) is retained as the reference in equivalence
//!    tests.
//! 3. [`finalize_entries`] — adjacent pairs receive the correction term
//!    `(H₁[i]+H₁[j])·w_ij` (the diagonal contributions to `aᵢ·aⱼ`), and
//!    every entry's running sum is replaced by the final similarity.
//!
//! The splits are public so the multi-threaded implementation
//! (`linkclust-parallel`) can parallelize each pass exactly as §VI-A
//! prescribes: pass 1 over vertex ranges, pass 2 sharded by owner
//! (producers route records to the owner of each pair's first vertex —
//! no cross-thread map merge), pass 3 over entry ranges.

use std::collections::HashMap;

use linkclust_graph::{EdgeIndex, GraphView, VertexId};

use crate::similarity::{PairSimilarities, SimilarityEntry, VertexPair};
use crate::telemetry::{Counter, Gauge, Phase, Telemetry};

/// The arrays `H₁` and `H₂` of Algorithm 1 (pass 1).
#[derive(Clone, PartialEq, Debug)]
pub struct VertexNorms {
    /// `H₁[i]` — the mean weight of vᵢ's incident edges (the diagonal
    /// entry `Ã_ii`); 0 for isolated vertices.
    pub h1: Vec<f64>,
    /// `H₂[i] = H₁[i]² + Σ_{j∈N(i)} w_ij²` — the squared norm `|aᵢ|²`.
    pub h2: Vec<f64>,
}

/// Pass 1: computes `H₁` and `H₂` for the vertex range
/// `[range.start, range.end)`. Pass the full range `0..|V|` for the
/// serial algorithm.
#[must_use]
pub fn vertex_norms_range<G: GraphView + ?Sized>(
    g: &G,
    range: std::ops::Range<usize>,
) -> VertexNorms {
    let mut h1 = Vec::with_capacity(range.len());
    let mut h2 = Vec::with_capacity(range.len());
    for i in range {
        let v = VertexId::new(i);
        let nbrs = g.neighbors(v);
        let (mut sum, mut sq) = (0.0, 0.0);
        for n in nbrs {
            sum += n.weight;
            sq += n.weight * n.weight;
        }
        let mean = if nbrs.is_empty() { 0.0 } else { sum / nbrs.len() as f64 };
        h1.push(mean);
        h2.push(mean * mean + sq);
    }
    VertexNorms { h1, h2 }
}

/// Pass 1 over the whole graph.
#[must_use]
pub fn vertex_norms<G: GraphView + ?Sized>(g: &G) -> VertexNorms {
    vertex_norms_range(g, 0..g.vertex_count())
}

/// The original map-based pass-2 accumulator: the map `M` keyed by
/// vertex pair, one `HashMap` entry and one heap `Vec` per pair.
///
/// Superseded in the production pipeline by the flat
/// [`FlatPairAccumulator`](crate::flatacc::FlatPairAccumulator); kept as
/// the reference oracle in equivalence tests.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PairAccumulator {
    map: HashMap<(u32, u32), (f64, Vec<u32>)>,
}

impl PairAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct vertex-pair keys accumulated (K₁ once all
    /// vertices are processed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no pairs have been accumulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Processes one vertex `v` (the body of the pass-2 loop): every
    /// unordered pair of `v`'s neighbors `(vⱼ, vₖ)` accrues
    /// `w_vj · w_vk` and records `v` as a common neighbor.
    pub fn process_vertex<G: GraphView + ?Sized>(&mut self, g: &G, v: VertexId) {
        let nbrs = g.neighbors(v);
        for (a, x) in nbrs.iter().enumerate() {
            for y in &nbrs[a + 1..] {
                // adjacency lists are sorted, so x.vertex < y.vertex
                let key = (u32::from(x.vertex), u32::from(y.vertex));
                let slot = self.map.entry(key).or_insert_with(|| (0.0, Vec::new()));
                slot.0 += x.weight * y.weight;
                slot.1.push(u32::from(v));
            }
        }
    }

    /// Converts the map into a key-sorted, **unfinalized**
    /// [`PairSimilarities`] (deterministic order; common-neighbor lists
    /// sorted): each entry's score holds its running sum until
    /// [`finalize_entries`] replaces it.
    #[must_use]
    pub fn into_similarities(self) -> PairSimilarities {
        let mut pairs: Vec<_> = self.map.into_iter().collect();
        pairs.sort_unstable_by_key(|&(key, _)| key);
        let records = pairs.iter().map(|(_, (_, commons))| commons.len()).sum();
        let mut sims = PairSimilarities::with_capacity(pairs.len(), records);
        for ((i, j), (sum, mut commons)) in pairs {
            commons.sort_unstable();
            let pair = VertexPair::new(VertexId::from(i), VertexId::from(j));
            sims.push(pair, sum, commons.into_iter().map(VertexId::from));
        }
        sims
    }
}

/// Pass 2 over a set of vertices (the serial algorithm passes all of
/// them).
pub fn accumulate_pairs<G, I>(g: &G, vertices: I) -> PairAccumulator
where
    G: GraphView + ?Sized,
    I: IntoIterator<Item = VertexId>,
{
    let mut acc = PairAccumulator::new();
    for v in vertices {
        acc.process_vertex(g, v);
    }
    acc
}

/// Pass 3 over a slice of entries whose scores hold their running sums
/// `Σ_k w_ik·w_jk`: applies the adjacency correction
/// (`+ (H₁[i]+H₁[j])·w_ij` for pairs that are themselves edges) and
/// replaces each running sum with the final Tanimoto similarity
/// `s / (H₂[i] + H₂[j] − s)`.
///
/// Adjacency is resolved through a precomputed [`EdgeIndex`] — O(1) per
/// entry instead of the per-query adjacency scans this pass used to
/// issue. The parallel third pass calls this on disjoint sub-slices,
/// sharing one index.
pub fn finalize_entries(index: &EdgeIndex, norms: &VertexNorms, entries: &mut [SimilarityEntry]) {
    for e in entries {
        let (i, j) = (e.pair.first().index(), e.pair.second().index());
        if let Some(w) = index.weight_between(e.pair.first(), e.pair.second()) {
            e.score += (norms.h1[i] + norms.h1[j]) * w;
        }
        let denom = norms.h2[i] + norms.h2[j] - e.score;
        debug_assert!(denom > 0.0, "Tanimoto denominator must be positive");
        e.score /= denom;
    }
}

/// The complete Phase I: all three passes, serially.
///
/// Costs O(|V| + |E| + K₂) time and O(K₂ + |E|) space (Theorem 2's
/// initialization component).
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
///
/// // Path 0-1-2 with unit weights: the two edges share vertex 1 and
/// // have similarity 1/3.
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?.build();
/// let sims = compute_similarities(&g);
/// assert_eq!(sims.len(), 1);
/// assert!((sims.entries()[0].score - 1.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[must_use]
pub fn compute_similarities<G: GraphView + ?Sized>(g: &G) -> PairSimilarities {
    compute_similarities_with(g, &Telemetry::disabled())
}

/// [`compute_similarities`] with phase-level telemetry: each pass runs
/// under its own span ([`Phase::InitPass1`]–[`Phase::InitPass3`]) and the
/// K₁/K₂ counters are recorded.
#[must_use]
pub fn compute_similarities_with<G: GraphView + ?Sized>(
    g: &G,
    telemetry: &Telemetry,
) -> PairSimilarities {
    let norms = {
        let _span = telemetry.span(Phase::InitPass1);
        vertex_norms(g)
    };
    let acc = {
        let _span = telemetry.span(Phase::InitPass2);
        let mut acc = crate::flatacc::FlatPairAccumulator::for_graph(g);
        for v in g.vertices() {
            acc.process_vertex(g, v);
        }
        acc
    };
    telemetry.add(Counter::PairsK1, acc.len() as u64);
    telemetry.observe(Gauge::TableOccupancy, acc.occupancy());
    let mut sims = acc.into_similarities();
    {
        let _span = telemetry.span(Phase::InitPass3);
        let index = EdgeIndex::for_graph(g);
        finalize_entries(&index, &norms, sims.entries_mut());
    }
    telemetry.add(Counter::IncidentPairsK2, sims.incident_pair_count());
    sims
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::GraphBuilder;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn norms_on_weighted_star() {
        // Star center 0 with leaf weights 1, 2, 3.
        let g =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)]).unwrap().build();
        let n = vertex_norms(&g);
        assert!((n.h1[0] - 2.0).abs() < 1e-12); // mean of 1,2,3
        assert!((n.h2[0] - (4.0 + 14.0)).abs() < 1e-12); // 2² + (1+4+9)
        assert!((n.h1[1] - 1.0).abs() < 1e-12);
        assert!((n.h2[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn norms_of_isolated_vertex_are_zero() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]).unwrap().build();
        let n = vertex_norms(&g);
        assert_eq!(n.h1[2], 0.0);
        assert_eq!(n.h2[2], 0.0);
    }

    #[test]
    fn path_similarity_is_one_third() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        let sims = compute_similarities(&g);
        assert_eq!(sims.len(), 1);
        let e = &sims.entries()[0];
        assert_eq!(e.pair, VertexPair::new(v(0), v(2)));
        assert_eq!(sims.common_neighbors(e), &[v(1)]);
        assert!((e.score - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_similarities_are_one() {
        // In K3 with unit weights all a-vectors are identical, so every
        // incident edge pair has similarity exactly 1.
        let g =
            GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap().build();
        let sims = compute_similarities(&g);
        assert_eq!(sims.len(), 3);
        for e in sims.entries() {
            assert!((e.score - 1.0).abs() < 1e-12, "score {}", e.score);
            assert_eq!(sims.common_neighbors(e).len(), 1);
        }
    }

    #[test]
    fn entry_count_is_k1() {
        use linkclust_graph::generate::{gnm, WeightMode};
        use linkclust_graph::stats::count_common_neighbor_pairs;
        for seed in 0..4 {
            let g = gnm(30, 80, WeightMode::Uniform { lo: 0.1, hi: 2.0 }, seed);
            let sims = compute_similarities(&g);
            assert_eq!(sims.len() as u64, count_common_neighbor_pairs(&g));
        }
    }

    #[test]
    fn incident_pair_count_is_k2() {
        use linkclust_graph::generate::{gnm, WeightMode};
        use linkclust_graph::stats::count_incident_edge_pairs;
        for seed in 0..4 {
            let g = gnm(25, 60, WeightMode::Unit, seed);
            let sims = compute_similarities(&g);
            assert_eq!(sims.incident_pair_count(), count_incident_edge_pairs(&g));
        }
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        use linkclust_graph::generate::{gnm, WeightMode};
        let g = gnm(30, 100, WeightMode::Uniform { lo: 0.1, hi: 3.0 }, 2);
        for e in compute_similarities(&g).entries() {
            assert!(e.score > 0.0 && e.score <= 1.0 + 1e-12, "score {}", e.score);
        }
    }

    #[test]
    fn disjoint_edges_produce_no_entries() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap().build();
        assert!(compute_similarities(&g).is_empty());
    }
}

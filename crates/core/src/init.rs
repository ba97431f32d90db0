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
//! for neighbors, and the *mean* incident weight on the diagonal).
//!
//! The shipped phase makes two passes over the graph:
//!
//! 1. [`vertex_norms`] — arrays `H₁` (mean incident weight) and `H₂`
//!    (`|aᵢ|² = H₁² + Σw²`);
//! 2. [`similarity_rows`] — row `i` of `A·A` restricted to `j > i`, one
//!    row at a time in a dense accumulator (Gustavson's row of a sparse
//!    matrix product). For each `vₖ ∈ N(vᵢ)` in ascending order and each
//!    `vⱼ ∈ N(vₖ)` with `j > i`, pair `(i, j)` gains `w_ik·w_kj` and one
//!    wedge; the first wedge that touches `j` is kept. The row's touched
//!    list is then sorted and each pair finalized in place: adjacent
//!    pairs receive the correction `(H₁[i]+H₁[j])·w_ij` (the diagonal
//!    contributions to `aᵢ·aⱼ`), and the sum becomes the Tanimoto score.
//!
//! The terms of a pair arrive in ascending `k`, the order in which
//! Algorithm 1's map `M` accrues them, so every score is bit-identical
//! to the map's, and the rows come out in pair order with no key sort.
//! No common-neighbor list is kept: an entry stores its wedge count and
//! its first wedge, and the sweeps read the rest back from the graph
//! ([`PairSimilarities::wedges`]).
//!
//! Row ranges are independent, which is how `linkclust-parallel` splits
//! the phase over threads. [`PairAccumulator`] is Algorithm 1 as the
//! paper states it — map `M` with a common-neighbor list per pair — kept
//! as the oracle of the identity tests.
//!
//! Phase I takes O(|V| + |E| + K₂ + Σᵢ tᵢ log tᵢ) time, where `tᵢ` is
//! the number of pairs in row `i`, and O(K₁ + |E| + |V|) space.

use std::collections::HashMap;
use std::ops::Range;

use linkclust_graph::{EdgeId, GraphView, VertexId};

use crate::similarity::{PairSimilarities, SimilarityEntry, VertexPair, Wedge};
use crate::telemetry::{Counter, Phase, Telemetry};

/// The arrays `H₁` and `H₂` of Algorithm 1 (pass 1).
#[derive(Clone, PartialEq, Debug)]
pub struct VertexNorms {
    /// `H₁[i]` — the mean weight of vᵢ's incident edges (the diagonal
    /// entry `Ã_ii`); 0 for isolated vertices.
    pub h1: Vec<f64>,
    /// `H₂[i] = H₁[i]² + Σ_{j∈N(i)} w_ij²` — the squared norm `|aᵢ|²`.
    pub h2: Vec<f64>,
}

/// Pass 1: computes `H₁` and `H₂` for every vertex.
#[must_use]
pub fn vertex_norms<G: GraphView + ?Sized>(g: &G) -> VertexNorms {
    let n = g.vertex_count();
    let mut h1 = Vec::with_capacity(n);
    let mut h2 = Vec::with_capacity(n);
    for v in g.vertices() {
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

/// The Tanimoto score of a pair whose product sum is `sum`: the
/// adjacency correction for an edge of weight `w`, then the division.
#[inline]
fn tanimoto(norms: &VertexNorms, i: usize, j: usize, mut sum: f64, w: Option<f64>) -> f64 {
    if let Some(w) = w {
        sum += (norms.h1[i] + norms.h1[j]) * w;
    }
    let denom = norms.h2[i] + norms.h2[j] - sum;
    debug_assert!(denom > 0.0, "Tanimoto denominator must be positive");
    sum / denom
}

/// One pair's running state in the row kernel's dense accumulator.
#[derive(Clone, Copy)]
struct RowSlot {
    sum: f64,
    wedges: u32,
    first: Wedge,
}

impl Default for RowSlot {
    fn default() -> Self {
        RowSlot { sum: 0.0, wedges: 0, first: (VertexId::new(0), EdgeId::new(0), EdgeId::new(0)) }
    }
}

/// Pass 2 over the rows `rows`: the entries `(i, j)`, `j > i`, of every
/// row `i` in the range, finalized and in pair order (see the
/// [module docs](self)).
///
/// # Panics
///
/// Panics if `rows` reaches past the last vertex of `g`, or if `norms`
/// was computed over a graph with fewer vertices.
#[must_use]
pub fn similarity_rows<G: GraphView + ?Sized>(
    g: &G,
    norms: &VertexNorms,
    rows: Range<usize>,
) -> Vec<SimilarityEntry> {
    let mut slots = vec![RowSlot::default(); g.vertex_count()];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut out = Vec::new();
    for i in rows {
        let vi = VertexId::new(i);
        let row = g.neighbors(vi);
        for x in row {
            let slab = g.neighbors(x.vertex);
            for y in &slab[slab.partition_point(|y| y.vertex <= vi)..] {
                let slot = &mut slots[y.vertex.index()];
                if slot.wedges == 0 {
                    touched.push(y.vertex);
                    slot.first = (x.vertex, x.edge, y.edge);
                }
                slot.wedges += 1;
                slot.sum += x.weight * y.weight;
            }
        }
        touched.sort_unstable();
        // Both the touched list and N(vᵢ) ascend, so one merge finds the
        // adjacent pairs.
        let mut adjacent = row[row.partition_point(|y| y.vertex <= vi)..].iter().peekable();
        for &vj in &touched {
            while adjacent.next_if(|a| a.vertex < vj).is_some() {}
            let w = adjacent.next_if(|a| a.vertex == vj).map(|a| a.weight);
            let slot = std::mem::take(&mut slots[vj.index()]);
            let score = tanimoto(norms, i, vj.index(), slot.sum, w);
            out.push(SimilarityEntry::new(VertexPair::new(vi, vj), score, slot.wedges, slot.first));
        }
        touched.clear();
    }
    out
}

/// Joins the entries of consecutive row ranges of `g`, in row order,
/// into the unsorted list, and records its size counters: K₁
/// ([`Counter::PairsK1`]), K₂ ([`Counter::IncidentPairsK2`]) and its
/// bytes ([`Counter::ListBytes`]). The first range's vector becomes the
/// list and the others are appended to it, so a single range is taken
/// without a copy.
///
/// Each range's entries must be those [`similarity_rows`] computed for
/// it over `g`.
#[must_use]
pub fn collect_rows<G: GraphView + ?Sized>(
    g: &G,
    rows: Vec<Vec<SimilarityEntry>>,
    telemetry: &Telemetry,
) -> PairSimilarities {
    let mut rows = rows.into_iter();
    let mut entries = rows.next().unwrap_or_default();
    for more in rows {
        entries.extend_from_slice(&more);
    }
    let sims = PairSimilarities::from_entries(entries, g.vertex_count(), g.edge_count());
    telemetry.add(Counter::PairsK1, sims.len() as u64);
    telemetry.add(Counter::IncidentPairsK2, sims.incident_pair_count());
    telemetry.add(Counter::ListBytes, (sims.len() * std::mem::size_of::<SimilarityEntry>()) as u64);
    sims
}

/// The complete Phase I on the calling thread: both passes, all rows.
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
/// under its own span ([`Phase::InitPass1`], [`Phase::InitPass2`]), and
/// the list's size counters are recorded ([`collect_rows`]).
#[must_use]
pub fn compute_similarities_with<G: GraphView + ?Sized>(
    g: &G,
    telemetry: &Telemetry,
) -> PairSimilarities {
    let norms = {
        let _span = telemetry.span(Phase::InitPass1);
        vertex_norms(g)
    };
    let rows = {
        let _span = telemetry.span(Phase::InitPass2);
        similarity_rows(g, &norms, 0..g.vertex_count())
    };
    collect_rows(g, vec![rows], telemetry)
}

/// Algorithm 1's map `M` as the paper states it: one entry per vertex
/// pair with a common neighbor, holding the running product sum and the
/// list of common neighbors. The oracle the row kernel is tested
/// against; [`algorithm_1`] runs it over a whole graph.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PairAccumulator {
    map: HashMap<(u32, u32), (f64, Vec<u32>)>,
}

/// One finalized entry of map `M`: the pair, its score, and its common
/// neighbors in increasing id order.
#[derive(Clone, PartialEq, Debug)]
pub struct MapEntry {
    /// The vertex pair `(vᵢ, vⱼ)`.
    pub pair: VertexPair,
    /// The Tanimoto similarity of Eq. 1.
    pub score: f64,
    /// The common neighbors of `vᵢ` and `vⱼ`, ascending.
    pub common: Vec<VertexId>,
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

    /// Pass 3: finalizes every pair — the adjacency correction, read
    /// through [`GraphView::weight_between`], then the Tanimoto division
    /// — and returns the entries in pair order.
    #[must_use]
    pub fn finalize<G: GraphView + ?Sized>(self, g: &G, norms: &VertexNorms) -> Vec<MapEntry> {
        let mut entries: Vec<MapEntry> = self
            .map
            .into_iter()
            .map(|((i, j), (sum, mut common))| {
                common.sort_unstable();
                let pair = VertexPair::new(VertexId::from(i), VertexId::from(j));
                let w = g.weight_between(pair.first(), pair.second());
                // cast: u32 ids to indices, lossless on 32- and 64-bit.
                let score = tanimoto(norms, i as usize, j as usize, sum, w);
                MapEntry { pair, score, common: common.into_iter().map(VertexId::from).collect() }
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.pair);
        entries
    }
}

/// Algorithm 1 over the whole graph, as the paper states it: pass 1,
/// map `M` over every vertex, and pass 3 ([`PairAccumulator::finalize`]).
#[must_use]
pub fn algorithm_1<G: GraphView + ?Sized>(g: &G) -> Vec<MapEntry> {
    let mut acc = PairAccumulator::new();
    for v in g.vertices() {
        acc.process_vertex(g, v);
    }
    acc.finalize(g, &vertex_norms(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};
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
        assert_eq!(e.first_wedge(), (v(1), EdgeId::new(0), EdgeId::new(1)));
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
            assert_eq!(e.pair_count(), 1);
        }
    }

    /// The row kernel against map `M`: pair order, score bits, wedge
    /// counts, the first wedge and every wedge the list reads back.
    fn assert_matches_map(g: &linkclust_graph::WeightedGraph) {
        let sims = compute_similarities(g);
        let map = algorithm_1(g);
        assert_eq!(sims.len(), map.len());
        for (e, m) in sims.entries().iter().zip(&map) {
            assert_eq!(e.pair, m.pair);
            assert_eq!(e.score.to_bits(), m.score.to_bits(), "score bits at {}", e.pair);
            assert_eq!(e.pair_count(), m.common.len());
            let wedges: Vec<Wedge> = sims.wedges(g, e).collect();
            let expected: Vec<Wedge> = m
                .common
                .iter()
                .map(|&k| {
                    let edge = |a| g.edge_between(a, k).expect("a common neighbor is adjacent");
                    (k, edge(e.pair.first()), edge(e.pair.second()))
                })
                .collect();
            assert_eq!(wedges, expected, "wedges of {}", e.pair);
            assert_eq!(e.first_wedge(), expected[0]);
        }
    }

    #[test]
    fn rows_match_map_m_on_gnm_and_power_law() {
        for seed in 0..5 {
            assert_matches_map(&gnm(40, 150, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed));
        }
        assert_matches_map(&barabasi_albert(120, 4, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 3));
    }

    #[test]
    fn row_ranges_collect_to_the_whole() {
        let g = gnm(30, 90, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 6);
        let norms = vertex_norms(&g);
        let whole = compute_similarities(&g);
        assert_eq!(whole.entries(), similarity_rows(&g, &norms, 0..30));
        let parts: Vec<_> =
            [0..7, 7..7, 7..19, 19..30].map(|r| similarity_rows(&g, &norms, r)).into();
        assert_eq!(collect_rows(&g, parts, &Telemetry::disabled()), whole);
        assert!(collect_rows(&g, Vec::new(), &Telemetry::disabled()).is_empty());
    }

    #[test]
    fn entry_count_is_k1() {
        use linkclust_graph::stats::count_common_neighbor_pairs;
        for seed in 0..4 {
            let g = gnm(30, 80, WeightMode::Uniform { lo: 0.1, hi: 2.0 }, seed);
            let sims = compute_similarities(&g);
            assert_eq!(sims.len() as u64, count_common_neighbor_pairs(&g));
        }
    }

    #[test]
    fn incident_pair_count_is_k2() {
        use linkclust_graph::stats::count_incident_edge_pairs;
        for seed in 0..4 {
            let g = gnm(25, 60, WeightMode::Unit, seed);
            let sims = compute_similarities(&g);
            assert_eq!(sims.incident_pair_count(), count_incident_edge_pairs(&g));
        }
    }

    #[test]
    fn scores_lie_in_unit_interval() {
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

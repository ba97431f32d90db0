//! Phase II — the sweeping phase (Algorithm 2 of the paper).
//!
//! Consumes the similarity-sorted pair list `L` from Phase I. For each
//! entry `(vᵢ, vⱼ)` with common-neighbor list `l`, every `vₖ ∈ l` induces
//! a `MERGE` of the clusters containing edges `(vᵢ, vₖ)` and `(vⱼ, vₖ)`
//! on the cluster array `C`. Each successful merge advances the
//! dendrogram level `r` by one (fine-grained clustering).
//!
//! Two implementations produce that dendrogram:
//!
//! - [`sweep`] / [`sweep_with`] are Algorithm 2 as the paper states it,
//!   on the chain array [`ClusterArray`]. They are the oracle every
//!   exact engine is tested against, and what the Fig. 2 and Fig. 4
//!   experiments measure.
//! - [`kruskal_sweep_with`] is the production serial Phase II. Single
//!   linkage is Kruskal's algorithm on the stream of union operations,
//!   so it offers the same operations, in the same order, to a
//!   min-tracking union-find ([`KruskalMerges`]) and emits the same
//!   merge records, scores included, bit for bit — without the chain
//!   rewrites behind Theorem 2's `√K₂·|E|` term. It is the exact sweep
//!   at every thread count, and the MST baseline feeds the same builder.
//!
//! **The stop rule.** Every union operation joins two edges that share
//! a vertex, so the merge forest over the `m` edges is complete after
//! `m − c` merges, where `c` counts the components of `G` that have an
//! edge ([`edge_component_count`]). No later operation can join two
//! clusters. [`kruskal_sweep_with`] therefore stops at the first entry
//! boundary after the forest is complete; on a dense word-association
//! graph that is a few percent of `L`. Algorithm 2 keeps sweeping the
//! whole list, as the paper states it.
//!
//! [`fixed_chunk_sweep`] is the instrumented variant behind Fig. 2(1)/(2):
//! the pair list is processed in fixed-size chunks of incident edge pairs,
//! all merges in a chunk share a level, and per-level statistics (writes
//! to `C`, surviving clusters) are traced.

use linkclust_graph::algo::edge_component_count;
use linkclust_graph::{EdgeIndex, GraphView};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster_array::ClusterArray;
use crate::dendrogram::{Dendrogram, MergeRecord};
use crate::similarity::PairSimilarities;
use crate::telemetry::{Counter, Phase, Telemetry};
use crate::unionfind::UnionFind;

/// How edges are assigned to slots of the cluster array (the paper
/// enumerates edges "in a random order" — the clustering *partition* is
/// invariant to this choice, only cluster labels change).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EdgeOrder {
    /// Edge id order (deterministic, the default).
    #[default]
    Insertion,
    /// A seeded random permutation.
    Shuffled {
        /// The shuffle seed.
        seed: u64,
    },
}

impl EdgeOrder {
    /// Builds the `edge → slot` permutation for `m` edges.
    #[must_use]
    pub fn permutation(self, m: usize) -> Vec<u32> {
        match self {
            EdgeOrder::Insertion => (0..m as u32).collect(),
            EdgeOrder::Shuffled { seed } => {
                let mut slots: Vec<u32> = (0..m as u32).collect();
                slots.shuffle(&mut SmallRng::seed_from_u64(seed));
                slots
            }
        }
    }
}

/// Options for the sweeping phase.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SweepConfig {
    /// Edge-to-slot assignment.
    pub edge_order: EdgeOrder,
    /// If set, entries with similarity below this threshold are not
    /// processed (the list is sorted, so sweeping simply stops early).
    pub min_similarity: Option<f64>,
}

/// The result of a sweep: the dendrogram (over slot indices) and the
/// edge-to-slot permutation needed to interpret it.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepOutput {
    dendrogram: Dendrogram,
    slot_of_edge: Vec<u32>,
    /// The generating similarity of each merge, aligned with
    /// `dendrogram.merges()`. Empty when the producer does not track
    /// scores (coarse sweeps).
    merge_scores: Vec<f64>,
}

impl SweepOutput {
    pub(crate) fn new(dendrogram: Dendrogram, slot_of_edge: Vec<u32>) -> Self {
        SweepOutput { dendrogram, slot_of_edge, merge_scores: Vec::new() }
    }

    /// Assembles a sweep output from its parts; `merge_scores` must be
    /// aligned with `dendrogram.merges()`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `merge_scores` and the dendrogram's merge list
    /// have the same length.
    #[must_use]
    pub(crate) fn with_scores(
        dendrogram: Dendrogram,
        slot_of_edge: Vec<u32>,
        merge_scores: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(merge_scores.len() as u64, dendrogram.merge_count());
        SweepOutput { dendrogram, slot_of_edge, merge_scores }
    }

    /// The similarity that generated each merge (aligned with
    /// [`Dendrogram::merges`]); empty for coarse sweeps, which do not
    /// track per-merge scores.
    #[must_use]
    pub fn merge_scores(&self) -> &[f64] {
        &self.merge_scores
    }

    /// Cluster label per edge id after merging every pair with
    /// similarity **at least** `theta` — the classic Ahn-style threshold
    /// cut, evaluated on the recorded dendrogram without re-sweeping.
    ///
    /// # Panics
    ///
    /// Panics if this output carries no merge scores (produced by a
    /// coarse sweep).
    #[must_use]
    pub fn edge_assignments_at_similarity(&self, theta: f64) -> Vec<u32> {
        assert_eq!(
            self.merge_scores.len() as u64,
            self.dendrogram.merge_count(),
            "this output does not track per-merge similarities"
        );
        // Scores are non-increasing along the merge sequence; find the
        // last merge with score >= theta.
        let keep = self.merge_scores.partition_point(|&s| s >= theta);
        let level = if keep == 0 { 0 } else { self.dendrogram.merges()[keep - 1].level };
        self.edge_assignments_at_level(level)
    }

    /// The dendrogram. Merge events and labels refer to *slots*; use
    /// [`edge_assignments`](Self::edge_assignments) for per-edge labels.
    #[must_use]
    pub fn dendrogram(&self) -> &Dendrogram {
        &self.dendrogram
    }

    /// Consumes the output, returning the dendrogram.
    #[must_use]
    pub fn into_dendrogram(self) -> Dendrogram {
        self.dendrogram
    }

    /// The slot assigned to each edge id.
    #[must_use]
    pub fn slot_of_edge(&self) -> &[u32] {
        &self.slot_of_edge
    }

    /// Final cluster label per **edge id** (labels are slot indices; two
    /// edges share a label iff they are in the same link community).
    #[must_use]
    pub fn edge_assignments(&self) -> Vec<u32> {
        let slots = self.dendrogram.final_assignments();
        self.slot_of_edge.iter().map(|&s| slots[s as usize]).collect()
    }

    /// Cluster label per edge id after cutting at `level`.
    #[must_use]
    pub fn edge_assignments_at_level(&self, level: u32) -> Vec<u32> {
        let slots = self.dendrogram.assignments_at_level(level);
        self.slot_of_edge.iter().map(|&s| slots[s as usize]).collect()
    }
}

/// Runs the fine-grained sweeping phase over the sorted list: Algorithm
/// 2 on the chain array, the reference the production sweep
/// ([`kruskal_sweep_with`]) is tested against.
///
/// Every successful merge gets its own dendrogram level, exactly as in
/// Algorithm 2.
///
/// # Panics
///
/// Panics if `sorted` is not sorted (call
/// [`PairSimilarities::into_sorted`] first) or refers to vertices/edges
/// not in `g`.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::{init::compute_similarities, sweep::{sweep, SweepConfig}};
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?.build();
/// let sims = compute_similarities(&g).into_sorted();
/// let out = sweep(&g, &sims, SweepConfig::default());
/// assert_eq!(out.dendrogram().merge_count(), 1);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[must_use]
pub fn sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
) -> SweepOutput {
    sweep_with(g, sorted, config, &Telemetry::disabled())
}

/// [`sweep`] with phase-level telemetry: the whole sweep runs under a
/// [`Phase::Sweep`] span, and the merge and processed-pair counters are
/// recorded once at the end (no per-merge overhead).
///
/// # Panics
///
/// Panics if `sorted` is not actually sorted (call
/// [`PairSimilarities::into_sorted`] first), or if it lists a common
/// neighbor with no edge to both endpoints in `g` — i.e. if the
/// similarities were computed over a different graph.
#[must_use]
pub fn sweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
    telemetry: &Telemetry,
) -> SweepOutput {
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    let span = telemetry.span(Phase::Sweep);
    let m = g.edge_count();
    // One O(m) index build replaces the 2·K2 per-query adjacency scans
    // the merge loop used to issue.
    let index = EdgeIndex::for_graph(g);
    let slot_of_edge = config.edge_order.permutation(m);
    let mut c = ClusterArray::new(m);
    let mut merges = Vec::new();
    let mut scores = Vec::new();
    let mut r = 0u32;
    let mut pairs_processed = 0u64;
    for entry in sorted.entries() {
        if let Some(theta) = config.min_similarity {
            if entry.score < theta {
                break;
            }
        }
        let (vi, vj) = (entry.pair.first(), entry.pair.second());
        for &vk in sorted.common_neighbors(entry) {
            let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
            let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
            let s1 = slot_of_edge[e1.index()] as usize;
            let s2 = slot_of_edge[e2.index()] as usize;
            if let Some(out) = c.merge(s1, s2) {
                r += 1;
                merges.push(MergeRecord {
                    level: r,
                    left: out.left,
                    right: out.right,
                    into: out.into,
                });
                scores.push(entry.score);
            }
        }
        pairs_processed += entry.pair_count() as u64;
    }
    span.finish();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, pairs_processed);
    crate::invariants::debug_check_cluster_array(&c);
    let dendrogram = Dendrogram::from_merges(m, merges);
    crate::invariants::debug_check_dendrogram(&dendrogram);
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// Kruskal's algorithm as a merge-record builder: offered union
/// operations in sweep order, it keeps each one that joins two sets as
/// the next dendrogram merge, with the labels and level that
/// [`ClusterArray::merge`] gives the same operation in Algorithm 2.
///
/// Levels count from 1, one per merge; `left` and `right` are the two
/// operands' cluster ids (set minima) before the merge, and `into` is
/// the smaller of them.
///
/// The builder also knows how many merges complete the forest (its
/// *target*), so a caller can stop offering operations once
/// [`is_complete`](Self::is_complete) holds.
///
/// # Examples
///
/// ```
/// use linkclust_core::sweep::KruskalMerges;
///
/// let mut kruskal = KruskalMerges::new(4);
/// assert!(kruskal.offer(3, 1, 0.9));
/// assert!(!kruskal.offer(1, 3, 0.8)); // closes a cycle
/// assert!(kruskal.offer(0, 3, 0.5));
/// assert!(!kruskal.is_complete()); // slot 2 is still alone
/// let (merges, scores) = kruskal.into_parts();
/// assert_eq!((merges[1].level, merges[1].left, merges[1].right, merges[1].into), (2, 0, 1, 0));
/// assert_eq!(scores, [0.9, 0.5]);
/// ```
#[derive(Clone, Debug)]
pub struct KruskalMerges {
    clusters: UnionFind,
    merges: Vec<MergeRecord>,
    scores: Vec<f64>,
    /// The merge count at which the forest is complete.
    target: usize,
}

impl KruskalMerges {
    /// Starts with each of `m` slots in its own cluster. The target is
    /// `m − 1`, a single tree: without knowing the components, that is
    /// the most merges any stream can make.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self::with_target(m, m.saturating_sub(1))
    }

    /// Starts with each of `m` slots in its own cluster, for a stream
    /// whose complete forest has `target` merges: `m − c` for the union
    /// operations of `L`, where `c` is [`edge_component_count`].
    ///
    /// # Examples
    ///
    /// ```
    /// use linkclust_core::sweep::KruskalMerges;
    ///
    /// // Slots {0, 1} and {2, 3} are two components: two merges finish.
    /// let mut kruskal = KruskalMerges::with_target(4, 2);
    /// assert!(kruskal.offer(0, 1, 0.9));
    /// assert!(!kruskal.is_complete());
    /// assert!(kruskal.offer(3, 2, 0.7));
    /// assert!(kruskal.is_complete());
    /// ```
    #[must_use]
    pub fn with_target(m: usize, target: usize) -> Self {
        KruskalMerges {
            clusters: UnionFind::new(m),
            merges: Vec::with_capacity(target),
            scores: Vec::with_capacity(target),
            target,
        }
    }

    /// `true` once the builder has made its target number of merges.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.merges.len() >= self.target
    }

    /// Offers the union of slots `s1` and `s2`, generated by an entry of
    /// similarity `score`. Returns `true` if it merged two clusters.
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of range.
    pub fn offer(&mut self, s1: u32, s2: u32, score: f64) -> bool {
        // cast: u32 slots to indices, lossless on 32- and 64-bit.
        let Some((left, right)) = self.clusters.join(s1 as usize, s2 as usize) else {
            return false;
        };
        self.merges.push(MergeRecord {
            // cast: a forest over `m` u32 slots has fewer than `m` merges.
            level: self.merges.len() as u32 + 1,
            left,
            right,
            into: left.min(right),
        });
        self.scores.push(score);
        true
    }

    /// The merges in the order they happened, and the score of each.
    #[must_use]
    pub fn into_parts(self) -> (Vec<MergeRecord>, Vec<f64>) {
        (self.merges, self.scores)
    }
}

/// The production serial sweep: [`sweep_with`]'s contract and output,
/// computed by one Kruskal pass ([`KruskalMerges`]) instead of the chain
/// array. It resolves each entry's union operations through the
/// [`EdgeIndex`] in the order Algorithm 2 performs them, so the
/// dendrogram, the merge scores and the slot permutation equal
/// [`sweep_with`]'s bit for bit.
///
/// The pass stops at the first entry boundary after the forest is
/// complete, at `m − c` merges (the module's stop rule); `c` is counted
/// once per call in `O(|V| + |E|)`.
///
/// The whole sweep runs under one [`Phase::Sweep`] span, with a
/// [`Phase::SweepSetup`] sub-span over the edge index, the component
/// count and the slot permutation; the merge and processed-pair counters
/// are recorded once at the end.
/// [`Counter::PairsProcessed`] counts the incident pairs of every entry
/// up to and including the one whose operation completes the forest,
/// or of every live entry if the forest is never completed.
///
/// # Panics
///
/// Panics if `sorted` is not actually sorted (call
/// [`PairSimilarities::into_sorted`] first), or if an entry it reads
/// lists a common neighbor with no edge to both endpoints in `g` — i.e.
/// if the similarities were computed over a different graph.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::sweep::{kruskal_sweep_with, sweep, SweepConfig};
/// use linkclust_core::telemetry::Telemetry;
///
/// let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5), (0, 2, 1.0)])?
///     .build();
/// let sims = compute_similarities(&g).into_sorted();
/// let out = kruskal_sweep_with(&g, &sims, SweepConfig::default(), &Telemetry::disabled());
/// assert_eq!(out, sweep(&g, &sims, SweepConfig::default()));
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[must_use]
pub fn kruskal_sweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
    telemetry: &Telemetry,
) -> SweepOutput {
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    let span = telemetry.span(Phase::Sweep);
    let setup_span = telemetry.span(Phase::SweepSetup);
    let m = g.edge_count();
    let index = EdgeIndex::for_graph(g);
    let slot_of_edge = config.edge_order.permutation(m);
    let mut kruskal = KruskalMerges::with_target(m, m - edge_component_count(g));
    setup_span.finish();
    let mut pairs_processed = 0u64;
    for entry in sorted.entries() {
        if kruskal.is_complete() {
            break;
        }
        if let Some(theta) = config.min_similarity {
            if entry.score < theta {
                break;
            }
        }
        let (vi, vj) = (entry.pair.first(), entry.pair.second());
        for &vk in sorted.common_neighbors(entry) {
            let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
            let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
            kruskal.offer(slot_of_edge[e1.index()], slot_of_edge[e2.index()], entry.score);
        }
        pairs_processed += entry.pair_count() as u64;
    }
    span.finish();
    let (merges, scores) = kruskal.into_parts();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, pairs_processed);
    let dendrogram = Dendrogram::from_merges(m, merges);
    crate::invariants::debug_check_dendrogram(&dendrogram);
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// Per-level statistics traced by [`fixed_chunk_sweep`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkLevel {
    /// The level id (1-based chunk index).
    pub level: u32,
    /// Incident edge pairs processed in this chunk.
    pub pairs: u64,
    /// Writes to array `C` during this chunk (the y-axis of Fig. 2(1)).
    pub changes: u64,
    /// Surviving clusters after this chunk (the y-axis of Fig. 2(2)).
    pub clusters: usize,
}

/// The output of [`fixed_chunk_sweep`]: the coarse dendrogram (one level
/// per chunk) and the per-level trace.
#[derive(Clone, PartialEq, Debug)]
pub struct ChunkTrace {
    /// The coarse-grained dendrogram.
    pub output: SweepOutput,
    /// One record per processed chunk, in order.
    pub levels: Vec<ChunkLevel>,
}

/// Sweeps the sorted list in fixed-size chunks of `chunk_size` incident
/// edge pairs (the experimental setup behind Fig. 2(1) and Fig. 2(2)).
/// All merges within a chunk share a dendrogram level; entries are never
/// split across chunks (a chunk closes once it holds ≥ `chunk_size`
/// pairs).
///
/// # Panics
///
/// Panics if `chunk_size == 0` or `sorted` is unsorted.
#[must_use]
pub fn fixed_chunk_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    chunk_size: u64,
    edge_order: EdgeOrder,
) -> ChunkTrace {
    assert!(chunk_size > 0, "chunk size must be positive");
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    let m = g.edge_count();
    let index = EdgeIndex::for_graph(g);
    let slot_of_edge = edge_order.permutation(m);
    let mut c = ClusterArray::new(m);
    let mut merges = Vec::new();
    let mut levels = Vec::new();
    let mut level = 1u32;
    let mut pairs_in_chunk = 0u64;
    for entry in sorted.entries() {
        let (vi, vj) = (entry.pair.first(), entry.pair.second());
        for &vk in sorted.common_neighbors(entry) {
            let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
            let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
            let s1 = slot_of_edge[e1.index()] as usize;
            let s2 = slot_of_edge[e2.index()] as usize;
            if let Some(out) = c.merge(s1, s2) {
                merges.push(MergeRecord {
                    level,
                    left: out.left,
                    right: out.right,
                    into: out.into,
                });
            }
        }
        pairs_in_chunk += entry.pair_count() as u64;
        if pairs_in_chunk >= chunk_size {
            levels.push(ChunkLevel {
                level,
                pairs: pairs_in_chunk,
                changes: c.take_changes(),
                clusters: c.cluster_count(),
            });
            level += 1;
            pairs_in_chunk = 0;
        }
    }
    if pairs_in_chunk > 0 {
        levels.push(ChunkLevel {
            level,
            pairs: pairs_in_chunk,
            changes: c.take_changes(),
            clusters: c.cluster_count(),
        });
    }
    ChunkTrace {
        output: SweepOutput::new(Dendrogram::from_merges(m, merges), slot_of_edge),
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::compute_similarities;
    use crate::reference::{canonical_labels, single_linkage_at_threshold};
    use linkclust_graph::generate::{complete, gnm, WeightMode};
    use linkclust_graph::{GraphBuilder, VertexId, WeightedGraph};

    fn two_triangles_with_bridge() -> WeightedGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.1),
            ],
        )
        .unwrap()
        .build()
    }

    #[test]
    fn sweep_merges_triangles_first() {
        let g = two_triangles_with_bridge();
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        // After 4 merges (2 per triangle), the two triangles are two
        // clusters; check the partition at that point.
        let labels = out.edge_assignments_at_level(4);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn threshold_sweep_matches_brute_force() {
        for seed in 0..5 {
            let g = gnm(14, 30, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            for theta in [0.2, 0.4, 0.6] {
                let sims = compute_similarities(&g).into_sorted();
                let out = sweep(
                    &g,
                    &sims,
                    SweepConfig { min_similarity: Some(theta), ..Default::default() },
                );
                let expected = canonical_labels(&single_linkage_at_threshold(&g, theta));
                let got = canonical_labels(
                    &out.edge_assignments().iter().map(|&x| x as usize).collect::<Vec<_>>(),
                );
                assert_eq!(got, expected, "seed {seed} theta {theta}");
            }
        }
    }

    #[test]
    fn partition_invariant_to_edge_order() {
        for seed in 0..4 {
            let g = gnm(16, 40, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            let a = sweep(&g, &sims, SweepConfig::default());
            let b = sweep(
                &g,
                &sims,
                SweepConfig { edge_order: EdgeOrder::Shuffled { seed: 99 }, ..Default::default() },
            );
            let la: Vec<usize> = a.edge_assignments().iter().map(|&x| x as usize).collect();
            let lb: Vec<usize> = b.edge_assignments().iter().map(|&x| x as usize).collect();
            assert_eq!(canonical_labels(&la), canonical_labels(&lb), "seed {seed}");
        }
    }

    #[test]
    fn merge_count_bounded_by_edges() {
        let g = gnm(20, 60, WeightMode::Unit, 1);
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        assert!(out.dendrogram().merge_count() < g.edge_count() as u64);
        // Levels are strictly increasing, one per merge.
        let levels: Vec<u32> = out.dendrogram().merges().iter().map(|m| m.level).collect();
        let expected: Vec<u32> = (1..=levels.len() as u32).collect();
        assert_eq!(levels, expected);
    }

    #[test]
    fn fixed_chunks_respect_size_and_account_all_pairs() {
        let g = gnm(20, 60, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 2);
        let sims = compute_similarities(&g).into_sorted();
        let k2 = sims.incident_pair_count();
        let trace = fixed_chunk_sweep(&g, &sims, 10, EdgeOrder::Insertion);
        let total: u64 = trace.levels.iter().map(|l| l.pairs).sum();
        assert_eq!(total, k2);
        for (i, l) in trace.levels.iter().enumerate() {
            assert_eq!(l.level as usize, i + 1);
            if i + 1 < trace.levels.len() {
                assert!(l.pairs >= 10, "non-final chunk too small: {}", l.pairs);
            }
        }
        // Cluster counts are non-increasing.
        for w in trace.levels.windows(2) {
            assert!(w[0].clusters >= w[1].clusters);
        }
    }

    #[test]
    fn chunked_final_partition_matches_fine_grained() {
        let g = gnm(18, 50, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
        let sims = compute_similarities(&g).into_sorted();
        let fine = sweep(&g, &sims, SweepConfig::default());
        let coarse = fixed_chunk_sweep(&g, &sims, 7, EdgeOrder::Insertion);
        assert_eq!(fine.edge_assignments(), coarse.output.edge_assignments());
    }

    #[test]
    fn similarity_cuts_match_threshold_sweeps() {
        for seed in 0..4 {
            let g = gnm(16, 40, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            let full = sweep(&g, &sims, SweepConfig::default());
            for theta in [0.2, 0.45, 0.7, 0.95] {
                let via_cut = full.edge_assignments_at_similarity(theta);
                let via_threshold = sweep(
                    &g,
                    &sims,
                    SweepConfig { min_similarity: Some(theta), ..Default::default() },
                )
                .edge_assignments();
                assert_eq!(
                    canonical_labels(&via_cut.iter().map(|&x| x as usize).collect::<Vec<_>>()),
                    canonical_labels(
                        &via_threshold.iter().map(|&x| x as usize).collect::<Vec<_>>()
                    ),
                    "seed {seed} theta {theta}"
                );
            }
        }
    }

    #[test]
    fn merge_scores_are_non_increasing() {
        let g = gnm(20, 60, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        assert_eq!(out.merge_scores().len() as u64, out.dendrogram().merge_count());
        assert!(out.merge_scores().windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "per-merge similarities")]
    fn similarity_cut_requires_scores() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let sims = compute_similarities(&g).into_sorted();
        let trace = fixed_chunk_sweep(&g, &sims, 5, EdgeOrder::Insertion);
        // With no merge, the score list would be complete and nothing
        // would panic; this assertion's own message fails the test.
        assert!(trace.output.dendrogram().merge_count() > 0, "the input must have merges");
        let _ = trace.output.edge_assignments_at_similarity(0.5);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn sweep_requires_sorted_input() {
        let g = two_triangles_with_bridge();
        let sims = compute_similarities(&g); // not sorted
        let _ = sweep(&g, &sims, SweepConfig::default());
    }

    fn score_bits(out: &SweepOutput) -> Vec<u64> {
        out.merge_scores().iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn kruskal_sweep_is_algorithm_2_bit_for_bit() {
        let orders = [EdgeOrder::Insertion, EdgeOrder::Shuffled { seed: 3 }];
        for seed in 0..8 {
            let g = gnm(24, 80, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            for edge_order in orders {
                for min_similarity in [None, Some(0.3), Some(0.6), Some(2.0), Some(f64::NAN)] {
                    let config = SweepConfig { edge_order, min_similarity };
                    let oracle = sweep(&g, &sims, config);
                    let out = kruskal_sweep_with(&g, &sims, config, &Telemetry::disabled());
                    assert_eq!(out.dendrogram(), oracle.dendrogram(), "seed {seed} {config:?}");
                    assert_eq!(score_bits(&out), score_bits(&oracle), "seed {seed} {config:?}");
                    assert_eq!(out.slot_of_edge(), oracle.slot_of_edge(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn kruskal_sweep_records_what_algorithm_2_records() {
        use crate::telemetry::TelemetrySink;
        let g = gnm(30, 110, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 4);
        let sims = compute_similarities(&g).into_sorted();
        let config = SweepConfig { min_similarity: Some(0.4), ..Default::default() };
        let reports: Vec<_> = [sweep_with, kruskal_sweep_with]
            .iter()
            .map(|engine| {
                let (telemetry, recorder) = TelemetrySink::Stats.build();
                let _ = engine(&g, &sims, config, &telemetry);
                recorder.expect("stats sink records").report()
            })
            .collect();
        for counter in [Counter::MergesApplied, Counter::PairsProcessed] {
            assert_eq!(reports[0].counter(counter), reports[1].counter(counter), "{counter:?}");
        }
        assert!(reports[1].counter(Counter::PairsProcessed) < sims.incident_pair_count());
        assert_eq!(reports[1].phase_calls(Phase::Sweep), 1);
    }

    #[test]
    fn kruskal_sweep_counts_pairs_up_to_the_completing_entry() {
        use crate::telemetry::TelemetrySink;
        // A dense graph, and a K4 plus a triangle among isolated
        // vertices: both complete their forest before the end of `L`.
        let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
        let mut b = GraphBuilder::with_vertices(17);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3), (10, 11), (11, 12), (10, 12)]
        {
            b.add_edge(VertexId::new(u), VertexId::new(v), 0.5 + 0.1 * (u + v) as f64).unwrap();
        }
        for (name, g) in [("complete(14)", complete(14, w, 2)), ("two components", b.build())] {
            let sims = compute_similarities(&g).into_sorted();
            let reports: Vec<_> = [sweep_with, kruskal_sweep_with]
                .iter()
                .map(|engine| {
                    let (telemetry, recorder) = TelemetrySink::Stats.build();
                    let out = engine(&g, &sims, SweepConfig::default(), &telemetry);
                    (out, recorder.expect("stats sink records").report())
                })
                .collect();
            let (oracle, all) = (&reports[0].0, &reports[0].1);
            let (out, stopped) = (&reports[1].0, &reports[1].1);
            let target = g.edge_count() - edge_component_count(&g);
            assert_eq!(out.dendrogram().merge_count(), target as u64, "{name}");
            assert_eq!(stopped.counter(Counter::MergesApplied), target as u64, "{name}");
            // Algorithm 2 counts every pair it sweeps: all of them.
            assert_eq!(all.counter(Counter::PairsProcessed), sims.incident_pair_count(), "{name}");
            let processed = stopped.counter(Counter::PairsProcessed);
            assert!(processed < sims.incident_pair_count(), "{name}: {processed}");
            // The count is a whole prefix of `L`, ending at the entry that
            // generated the last merge.
            let mut prefix = 0u64;
            let end = sims
                .entries()
                .iter()
                .position(|e| {
                    prefix += e.pair_count() as u64;
                    prefix == processed
                })
                .expect("the count ends at an entry boundary");
            let last = out.merge_scores().last().expect("merges").to_bits();
            assert_eq!(sims.entries()[end].score.to_bits(), last, "{name}");
            assert_eq!(score_bits(out), score_bits(oracle), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn kruskal_sweep_requires_sorted_input() {
        let g = two_triangles_with_bridge();
        let sims = compute_similarities(&g); // not sorted
        let _ = kruskal_sweep_with(&g, &sims, SweepConfig::default(), &Telemetry::disabled());
    }

    #[test]
    fn sweep_on_graph_without_incident_pairs() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap().build();
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        assert_eq!(out.dendrogram().merge_count(), 0);
        assert_eq!(out.edge_assignments(), vec![0, 1]);
    }
}

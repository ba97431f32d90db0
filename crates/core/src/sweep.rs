//! Phase II — the sweeping phase (Algorithm 2 of the paper).
//!
//! Consumes the similarity-sorted pair list `L` from Phase I. For each
//! entry `(vᵢ, vⱼ)`, every common neighbor `vₖ` induces a `MERGE` of the
//! clusters containing edges `(vᵢ, vₖ)` and `(vⱼ, vₖ)` on the cluster
//! array `C`. Each successful merge advances the dendrogram level `r` by
//! one (fine-grained clustering). Every sweep reads an entry's wedges
//! through [`PairSimilarities::wedges`]: a one-wedge entry offers its
//! stored edge ids, a longer one intersects the neighbor slabs of `vᵢ`
//! and `vⱼ`, in ascending `vₖ` — Algorithm 2's order.
//!
//! Two implementations produce that dendrogram:
//!
//! - [`sweep`] / [`sweep_with`] are Algorithm 2 as the paper states it,
//!   on the chain array [`ClusterArray`]. They are the oracle every
//!   exact engine is tested against, and what the Fig. 2 and Fig. 4
//!   experiments measure.
//! - [`kruskal_sweep_with`] is the Kruskal pass over a sorted `L`. Single
//!   linkage is Kruskal's algorithm on the stream of union operations,
//!   so it offers the same operations, in the same order, to a
//!   min-tracking union-find ([`KruskalMerges`]) and emits the same
//!   merge records, scores included, bit for bit — without the chain
//!   rewrites behind Theorem 2's `√K₂·|E|` term. The coarse merge
//!   stream runs it, and the MST baseline feeds the same builder.
//! - [`filter_kruskal_sweep`] is the same pass over the *unsorted* list
//!   Phase I produces (Filter-Kruskal; Osipov, Sanders and Singler,
//!   2009), the exact sweep of the facade's `run` at every thread count.
//!   It sorts only the ranges it sweeps and drops, unsorted, the
//!   one-wedge entries whose two edges already share a cluster.
//!
//! **The stop rule.** Every union operation joins two edges that share
//! a vertex, so the merge forest over the `m` edges is complete after
//! `m − c` merges, where `c` counts the components of `G` that have an
//! edge ([`edge_component_count`]). No later operation can join two
//! clusters. Both Kruskal passes therefore stop at the first entry
//! boundary after the forest is complete; on a dense word-association
//! graph that is a few percent of `L`. Algorithm 2 keeps sweeping the
//! whole list, as the paper states it.
//!
//! [`fixed_chunk_sweep`] is the instrumented variant behind Fig. 2(1)/(2):
//! the pair list is processed in fixed-size chunks of incident edge pairs,
//! all merges in a chunk share a level, and per-level statistics (writes
//! to `C`, surviving clusters) are traced.

use std::cmp::Ordering;
use std::time::Instant;

use linkclust_graph::algo::edge_component_count;
use linkclust_graph::GraphView;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster_array::ClusterArray;
use crate::dendrogram::{endpoints, Dendrogram, DensityCut, MergeForest, MergeRecord};
use crate::similarity::{PairSimilarities, SimilarityEntry};
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
/// edge-to-slot permutation needed to interpret it. Its
/// [`merge_forest`](Self::merge_forest),
/// [`density_profile`](Self::density_profile) and
/// [`best_density_cut`](Self::best_density_cut) read the edge in each
/// slot through that permutation, so they hold under every
/// [`EdgeOrder`].
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

    /// The [`MergeForest`] summary of the dendrogram over `g`, reading
    /// slot `s` as the edge the slot map put in it.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly the dendrogram's edge count.
    #[must_use]
    pub fn merge_forest<G: GraphView + ?Sized>(&self, g: &G) -> MergeForest {
        let d = &self.dendrogram;
        assert_eq!(g.edge_count(), d.edge_count(), "sweep output does not match graph");
        let mut edge_of_slot = vec![0u32; self.slot_of_edge.len()];
        // cast: u32 slots and edge ids to indices, lossless on 32- and 64-bit.
        for (e, &s) in (0u32..).zip(&self.slot_of_edge) {
            edge_of_slot[s as usize] = e;
        }
        MergeForest::new(d.edge_count(), d.merges(), g.vertex_count(), |s| {
            // cast: as above.
            endpoints(g, edge_of_slot[s] as usize)
        })
    }

    /// The partition-density profile of the dendrogram over `g`, as
    /// [`Dendrogram::density_profile`] documents, with each slot read
    /// through the slot map.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly the dendrogram's edge count.
    #[must_use]
    pub fn density_profile<G: GraphView + ?Sized>(&self, g: &G) -> Vec<DensityCut> {
        self.merge_forest(g).density_profile()
    }

    /// The density-optimal cut: the [`DensityCut::best_of`] fold over
    /// [`density_profile`](Self::density_profile). `None` for an
    /// edgeless graph.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly the dendrogram's edge count.
    #[must_use]
    pub fn best_density_cut<G: GraphView + ?Sized>(&self, g: &G) -> Option<DensityCut> {
        DensityCut::best_of(self.dendrogram.edge_count(), &self.density_profile(g))
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
/// As [`sweep_with`].
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
/// [`Phase::Sweep`] span, and the merge, processed-pair and
/// intersected-degree counters are recorded once at the end (no
/// per-merge overhead).
///
/// # Panics
///
/// Panics if `sorted` is not actually sorted (call
/// [`PairSimilarities::into_sorted`] first), or if `g`'s vertex or edge
/// count differs from the graph the list was computed over. Debug builds
/// also panic on an entry whose stored first wedge does not lie in `g`.
#[must_use]
pub fn sweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
    telemetry: &Telemetry,
) -> SweepOutput {
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    sorted.check_graph(g);
    let span = telemetry.span(Phase::Sweep);
    let m = g.edge_count();
    let slot_of_edge = config.edge_order.permutation(m);
    let mut c = ClusterArray::new(m);
    let mut merges = Vec::new();
    let mut scores = Vec::new();
    let mut r = 0u32;
    let mut pairs_processed = 0u64;
    let mut intersected = 0u64;
    for entry in sorted.entries() {
        if let Some(theta) = config.min_similarity {
            if entry.score < theta {
                break;
            }
        }
        intersected += intersected_degrees(g, entry);
        for (_, e1, e2) in sorted.wedges(g, entry) {
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
    telemetry.add(Counter::IntersectedDegrees, intersected);
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

    /// The merges so far, in the order they happened.
    #[must_use]
    pub(crate) fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// Offers the union operations of `entry`'s wedges, in the order
    /// Algorithm 2 performs them, each generated by the entry's score.
    /// Returns the entry's share of [`Counter::IntersectedDegrees`]. The
    /// caller has checked `g` against the entry's list.
    #[inline]
    pub(crate) fn offer_entry<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        slot_of_edge: &[u32],
        entry: &SimilarityEntry,
    ) -> u64 {
        for (_, e1, e2) in PairSimilarities::wedges_in(g, entry) {
            self.offer(slot_of_edge[e1.index()], slot_of_edge[e2.index()], entry.score);
        }
        intersected_degrees(g, entry)
    }

    /// `true` if sweeping `entry` can make no merge: it has one wedge,
    /// and that wedge's two edges are already in one cluster. Clusters
    /// only grow, so the entry's union operation will join a set to
    /// itself wherever the entry falls in the sweep order.
    #[inline]
    fn is_redundant(&mut self, slot_of_edge: &[u32], entry: &SimilarityEntry) -> bool {
        if entry.pair_count() > 1 {
            return false;
        }
        let (_, e1, e2) = entry.first_wedge();
        // cast: u32 slots to indices, lossless on 32- and 64-bit.
        let (s1, s2) = (slot_of_edge[e1.index()] as usize, slot_of_edge[e2.index()] as usize);
        self.clusters.connected(s1, s2)
    }

    /// The merges in the order they happened, and the score of each.
    #[must_use]
    pub fn into_parts(self) -> (Vec<MergeRecord>, Vec<f64>) {
        (self.merges, self.scores)
    }
}

/// [`sweep_with`]'s contract and output, computed by one Kruskal pass
/// ([`KruskalMerges`]) over the sorted list instead of the chain array.
/// It reads each entry's wedges in the order Algorithm 2 performs their
/// union operations, so the dendrogram, the merge scores and the slot
/// permutation equal [`sweep_with`]'s bit for bit. The facade's `run`
/// makes the same pass over the unsorted list
/// ([`filter_kruskal_sweep`]); this one is its oracle, and the pass the
/// coarse merge stream runs.
///
/// The pass stops at the first entry boundary after the forest is
/// complete, at `m − c` merges (the module's stop rule); `c` is counted
/// once per call in `O(|V| + |E|)`.
///
/// The whole sweep runs under one [`Phase::Sweep`] span, with a
/// [`Phase::SweepSetup`] sub-span over the component count and the slot
/// permutation; the merge, processed-pair and intersected-degree
/// counters are recorded once at the end.
/// [`Counter::PairsProcessed`] counts the incident pairs of every entry
/// up to and including the one whose operation completes the forest,
/// or of every live entry if the forest is never completed;
/// [`Counter::IntersectedDegrees`] sums `d(vᵢ) + d(vⱼ)` over the
/// multi-wedge entries among them.
///
/// # Panics
///
/// As [`sweep_with`].
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
    sorted.check_graph(g);
    let span = telemetry.span(Phase::Sweep);
    let (slot_of_edge, mut kruskal) = sweep_setup(g, config.edge_order, telemetry);
    let mut tally = SweepTally::default();
    let entries = sorted.entries();
    sweep_in_order(g, entries, &slot_of_edge, &mut kruskal, config.min_similarity, &mut tally);
    span.finish();
    finish_sweep(kruskal, slot_of_edge, tally, telemetry)
}

/// The set-up of an exact Kruskal sweep, under a [`Phase::SweepSetup`]
/// span: the slot permutation, and a builder whose target is the
/// complete forest's `m − c` merges.
fn sweep_setup<G: GraphView + ?Sized>(
    g: &G,
    edge_order: EdgeOrder,
    telemetry: &Telemetry,
) -> (Vec<u32>, KruskalMerges) {
    let _span = telemetry.span(Phase::SweepSetup);
    let m = g.edge_count();
    (edge_order.permutation(m), KruskalMerges::with_target(m, m - edge_component_count(g)))
}

/// What an exact sweep read: the wedges of the entries up to where it
/// stopped ([`Counter::PairsProcessed`]) and `Σ (dᵢ + dⱼ)` over the
/// entries it intersected ([`Counter::IntersectedDegrees`]).
#[derive(Clone, Copy, Default)]
struct SweepTally {
    pairs: u64,
    intersected: u64,
}

/// The loop of both Kruskal passes: offers the wedges of `entries`, in
/// list order, to `kruskal`, and stops before the first entry that finds
/// the forest complete or scores below `min_similarity` (the module's
/// stop rule). Returns the number of entries it swept.
fn sweep_in_order<G: GraphView + ?Sized>(
    g: &G,
    entries: &[SimilarityEntry],
    slot_of_edge: &[u32],
    kruskal: &mut KruskalMerges,
    min_similarity: Option<f64>,
    tally: &mut SweepTally,
) -> usize {
    for (swept, entry) in entries.iter().enumerate() {
        if kruskal.is_complete() || min_similarity.is_some_and(|theta| entry.score < theta) {
            return swept;
        }
        tally.intersected += kruskal.offer_entry(g, slot_of_edge, entry);
        tally.pairs += entry.pair_count() as u64;
    }
    entries.len()
}

/// Records an exact sweep's counters and assembles its output.
fn finish_sweep(
    kruskal: KruskalMerges,
    slot_of_edge: Vec<u32>,
    tally: SweepTally,
    telemetry: &Telemetry,
) -> SweepOutput {
    let (merges, scores) = kruskal.into_parts();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, tally.pairs);
    telemetry.add(Counter::IntersectedDegrees, tally.intersected);
    let dendrogram = Dendrogram::from_merges(slot_of_edge.len(), merges);
    crate::invariants::debug_check_dendrogram(&dendrogram);
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// Ranges of `L` of at most this many entries are sorted and swept
/// whole by [`filter_kruskal_sweep`]; longer ones are partitioned.
const LEAF_ENTRIES: usize = 8192;

/// Entries sampled, evenly spaced, from a range to pick its pivot: the
/// median of the sample.
const PIVOT_SAMPLE: usize = 63;

/// The depth past which [`filter_kruskal_sweep`] sorts a range outright,
/// whatever its length: `2·⌈log₂ K₁⌉`. It keeps the worst case at
/// O(K₁ log K₁) and the recursion shallow on any input.
fn depth_limit(k1: usize) -> usize {
    // cast: a bit count, at most 64.
    2 * k1.next_power_of_two().trailing_zeros() as usize
}

/// The exact sweep over the unsorted list Phase I produces: Kruskal's
/// algorithm as Filter-Kruskal (Osipov, Sanders and Singler, 2009). It
/// equals [`kruskal_sweep_with`] over `sims.into_sorted()` — the
/// dendrogram, the merge scores and the slot permutation bit for bit,
/// and the merge, processed-pair and intersected-degree counters — but
/// sorts only the ranges of `L` it sweeps.
///
/// - **Partition.** A range of more than 8,192 entries is partitioned in
///   place around the median of 63 evenly spaced entries under the list
///   order (score descending by [`f64::total_cmp`], then pair
///   ascending). The heavy side, the entries ordered before the pivot,
///   is processed first.
/// - **Filter.** Unless the sweep has stopped, the light side is then
///   filtered: every one-wedge entry whose stored wedge's two edges
///   already share a cluster goes to its tail, unsorted, and the rest is
///   processed. Its union operation could only join a set to itself.
///   An entry of more wedges is never filtered, so no neighbor slab is
///   intersected outside the sweep.
/// - **Leaves.** A range of at most 8,192 entries, or one past a depth of
///   `2·⌈log₂ K₁⌉`, is sorted and swept by [`kruskal_sweep_with`]'s loop,
///   which stops once the forest is complete or below
///   [`SweepConfig::min_similarity`].
///
/// The pass offers the same union operations in the same order as the
/// sorted sweep, less some that join a set to itself, and
/// [`KruskalMerges`] names a set by its minimum slot; so every merge,
/// level and score is the same. It leaves every entry in `sims`: the
/// ranges it swept, in list order, then the rest. The list is marked
/// sorted only if that covers all of it.
///
/// Telemetry: one [`Phase::Sweep`] span, with the set-up's
/// [`Phase::SweepSetup`] span and one [`Phase::Sort`] record of the time
/// spent partitioning, filtering and sorting leaves nested inside (the
/// clock is read only when telemetry is on).
/// [`Counter::EntriesSorted`] and [`Counter::EntriesFiltered`] count the
/// entries the pass sorted and filtered. [`Counter::PairsProcessed`] is
/// W\*: the swept wedges plus the filtered entries ordered before the
/// entry that completes the forest (before the first entry below the
/// threshold if it never completes), counted in one pass over the unsorted
/// rest when telemetry is on.
///
/// # Panics
///
/// Panics if `g`'s vertex or edge count differs from the graph the list
/// was computed over. Debug builds also panic on an entry whose stored
/// first wedge does not lie in `g`.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::sweep::{filter_kruskal_sweep, kruskal_sweep_with, SweepConfig};
/// use linkclust_core::telemetry::Telemetry;
///
/// let g = gnm(60, 240, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
/// let off = Telemetry::disabled();
/// let mut sims = compute_similarities(&g);
/// let out = filter_kruskal_sweep(&g, &mut sims, SweepConfig::default(), &off);
/// let sorted = sims.clone().into_sorted();
/// assert_eq!(out, kruskal_sweep_with(&g, &sorted, SweepConfig::default(), &off));
/// assert_eq!(sims.len(), sorted.len()); // every entry stays in the list
/// ```
pub fn filter_kruskal_sweep<G: GraphView + ?Sized>(
    g: &G,
    sims: &mut PairSimilarities,
    config: SweepConfig,
    telemetry: &Telemetry,
) -> SweepOutput {
    filter_kruskal(g, sims, config, telemetry, LEAF_ENTRIES).0
}

/// How much of `L` one Filter-Kruskal pass touched.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct PassWork {
    /// Entries sorted, in the leaves.
    pub(crate) sorted: u64,
    /// Entries filtered out, unsorted.
    pub(crate) filtered: u64,
    /// The deepest range the pass reached.
    pub(crate) deepest: usize,
}

/// [`filter_kruskal_sweep`] with ranges of up to `leaf_entries` entries
/// (at least 1) as its leaves, and the work it did.
pub(crate) fn filter_kruskal<G: GraphView + ?Sized>(
    g: &G,
    sims: &mut PairSimilarities,
    config: SweepConfig,
    telemetry: &Telemetry,
    leaf_entries: usize,
) -> (SweepOutput, PassWork) {
    sims.check_graph(g);
    let span = telemetry.span(Phase::Sweep);
    let (slot_of_edge, kruskal) = sweep_setup(g, config.edge_order, telemetry);
    let entries = sims.entries_mut();
    let mut pass = FilterKruskal {
        g,
        slot_of_edge: &slot_of_edge,
        kruskal,
        min_similarity: config.min_similarity,
        leaf_entries: leaf_entries.max(1),
        depth_limit: depth_limit(entries.len()),
        sorted: 0,
        swept: 0,
        below_threshold: false,
        tally: SweepTally::default(),
        work: PassWork::default(),
        sort_nanos: telemetry.is_enabled().then_some(0),
    };
    pass.process(entries, entries.len(), 0);
    if let Some(nanos) = pass.sort_nanos {
        telemetry.record_phase_nanos(Phase::Sort, nanos);
        // W* counts the filtered entries too; only a report reads it.
        pass.tally.pairs += pass.filtered_before_stop(entries);
    }
    let FilterKruskal { kruskal, tally, mut work, sorted, .. } = pass;
    work.sorted = sorted as u64;
    if sorted == entries.len() {
        sims.mark_sorted();
    }
    span.finish();
    telemetry.add(Counter::EntriesSorted, work.sorted);
    telemetry.add(Counter::EntriesFiltered, work.filtered);
    (finish_sweep(kruskal, slot_of_edge, tally, telemetry), work)
}

/// One Filter-Kruskal pass over `L`'s entries, which it reorders in
/// place: the sorted prefix `..sorted` (every range swept, in list
/// order), then the entries filtered out and the ranges never reached.
struct FilterKruskal<'a, G: ?Sized> {
    g: &'a G,
    slot_of_edge: &'a [u32],
    kruskal: KruskalMerges,
    min_similarity: Option<f64>,
    leaf_entries: usize,
    depth_limit: usize,
    /// The end of the sorted prefix.
    sorted: usize,
    /// The end of the entries swept, within the sorted prefix.
    swept: usize,
    /// `true` once an entry scored below the threshold.
    below_threshold: bool,
    tally: SweepTally,
    work: PassWork,
    /// Nanoseconds spent partitioning, filtering and sorting leaves;
    /// `None` when telemetry is off, so the clock is never read.
    sort_nanos: Option<u64>,
}

impl<G: GraphView + ?Sized> FilterKruskal<'_, G> {
    fn is_stopped(&self) -> bool {
        self.below_threshold || self.kruskal.is_complete()
    }

    /// Processes the range `self.sorted..end` of `entries` at `depth`:
    /// sweeps its entries in list order, less the ones filtered out, until
    /// the sweep stops.
    fn process(&mut self, entries: &mut [SimilarityEntry], end: usize, depth: usize) {
        self.work.deepest = self.work.deepest.max(depth);
        let start = self.sorted;
        if end - start <= self.leaf_entries || depth >= self.depth_limit {
            self.sweep_leaf(entries, end);
            return;
        }
        let clock = self.start_clock();
        let mid = start + partition(&mut entries[start..end]);
        self.stop_clock(clock);
        self.process(entries, mid, depth + 1);
        if self.is_stopped() {
            return;
        }
        let clock = self.start_clock();
        let kept = self.filter(entries, mid, end);
        self.stop_clock(clock);
        self.process(entries, kept, depth + 1);
    }

    /// Sorts `self.sorted..end` and sweeps it.
    fn sweep_leaf(&mut self, entries: &mut [SimilarityEntry], end: usize) {
        let leaf = &mut entries[self.sorted..end];
        let clock = self.start_clock();
        leaf.sort_unstable_by(SimilarityEntry::list_order);
        self.stop_clock(clock);
        let swept = sweep_in_order(
            self.g,
            leaf,
            self.slot_of_edge,
            &mut self.kruskal,
            self.min_similarity,
            &mut self.tally,
        );
        self.below_threshold = swept < leaf.len() && !self.kruskal.is_complete();
        self.swept = self.sorted + swept;
        self.sorted = end;
    }

    /// Filters the light side `from..end`: moves the entries that may
    /// still merge to `self.sorted..`, over the entries filtered out
    /// before them (`self.sorted..from`), and returns the end of the
    /// ones kept.
    fn filter(&mut self, entries: &mut [SimilarityEntry], from: usize, end: usize) -> usize {
        let mut kept = self.sorted;
        for i in from..end {
            if !self.kruskal.is_redundant(self.slot_of_edge, &entries[i]) {
                entries.swap(kept, i);
                kept += 1;
            }
        }
        self.work.filtered += (end - from - (kept - self.sorted)) as u64;
        kept
    }

    /// The filtered entries ordered before where the sweep stopped: before
    /// the entry that completed the forest, or, if it never completed,
    /// those at or above the threshold. Every entry past the sorted prefix
    /// that is not filtered lies beyond that point, so one compare pass
    /// over the rest counts them. Each has one wedge.
    fn filtered_before_stop(&self, entries: &[SimilarityEntry]) -> u64 {
        let rest = &entries[self.sorted..];
        let count = if self.kruskal.is_complete() {
            match self.swept.checked_sub(1) {
                Some(last) => {
                    let completing = &entries[last];
                    rest.iter().filter(|e| e.list_order(completing) == Ordering::Less).count()
                }
                None => 0,
            }
        } else {
            let live = |e: &&SimilarityEntry| !self.min_similarity.is_some_and(|t| e.score < t);
            rest.iter().filter(live).count()
        };
        count as u64
    }

    fn start_clock(&self) -> Option<Instant> {
        self.sort_nanos.map(|_| Instant::now())
    }

    fn stop_clock(&mut self, clock: Option<Instant>) {
        if let (Some(start), Some(nanos)) = (clock, self.sort_nanos.as_mut()) {
            // cast: a duration of under 584 years in nanoseconds fits u64.
            *nanos += start.elapsed().as_nanos() as u64;
        }
    }
}

/// Partitions `range` (at least two entries) in place around the median
/// of [`PIVOT_SAMPLE`] evenly spaced entries, under the list order: the
/// entries ordered before the pivot first. Returns their count, which is
/// at least one and less than the range's length, since the sample holds
/// distinct entries on both sides of its median.
fn partition(range: &mut [SimilarityEntry]) -> usize {
    let len = range.len();
    let take = PIVOT_SAMPLE.min(len);
    let mut sample = [range[0]; PIVOT_SAMPLE];
    for (k, slot) in sample[..take].iter_mut().enumerate() {
        *slot = range[k * len / take];
    }
    let (_, &mut pivot, _) =
        sample[..take].select_nth_unstable_by(take / 2, SimilarityEntry::list_order);
    // Lomuto's scheme without a branch on the comparison, which a
    // median pivot makes a coin toss: `..before` holds the entries
    // ordered before the pivot, and every step swaps unconditionally.
    let mut before = 0;
    for i in 0..len {
        let is_before = range[i].list_order(&pivot) == Ordering::Less;
        range.swap(before, i);
        before += usize::from(is_before);
    }
    before
}

/// `d(vᵢ) + d(vⱼ)` if reading the wedges of `entry` intersects the two
/// neighbor slabs, 0 if it offers the stored wedge.
fn intersected_degrees<G: GraphView + ?Sized>(g: &G, entry: &SimilarityEntry) -> u64 {
    if entry.pair_count() > 1 {
        (g.degree(entry.pair.first()) + g.degree(entry.pair.second())) as u64
    } else {
        0
    }
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
/// Panics if `chunk_size == 0`, and otherwise as [`sweep_with`].
#[must_use]
pub fn fixed_chunk_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    chunk_size: u64,
    edge_order: EdgeOrder,
) -> ChunkTrace {
    assert!(chunk_size > 0, "chunk size must be positive");
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    sorted.check_graph(g);
    let m = g.edge_count();
    let slot_of_edge = edge_order.permutation(m);
    let mut c = ClusterArray::new(m);
    let mut merges = Vec::new();
    let mut levels = Vec::new();
    let mut level = 1u32;
    let mut pairs_in_chunk = 0u64;
    for entry in sorted.entries() {
        for (_, e1, e2) in sorted.wedges(g, entry) {
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
    use crate::similarity::VertexPair;
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
    fn a_list_swept_against_another_graph_panics() {
        let g = gnm(30, 90, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 5);
        let other = gnm(30, 91, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 5);
        let sims = compute_similarities(&g).into_sorted();
        let config = SweepConfig::default();
        let coarse = crate::coarse::CoarseConfig { phi: 2, ..Default::default() };
        let runs: [(&str, &dyn Fn()); 3] = [
            ("algorithm 2", &|| drop(sweep(&other, &sims, config))),
            ("kruskal", &|| {
                drop(kruskal_sweep_with(&other, &sims, config, &Telemetry::disabled()));
            }),
            ("coarse", &|| drop(crate::coarse::coarse_sweep(&other, &sims, coarse))),
        ];
        for (name, run) in runs {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a list of another graph must not be swept");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("computed over a graph of 30 vertices and 90 edges"),
                "{name}"
            );
        }
    }

    /// Leaf sizes of the Filter-Kruskal tests: every range partitioned
    /// down to one entry, a few small leaves, and the shipped size.
    const LEAF_SIZES: [usize; 6] = [1, 2, 3, 17, 64, LEAF_ENTRIES];

    /// One graph of every generator family, plus a G(n, m) whose `L` is
    /// longer than a leaf of the shipped size.
    fn every_family() -> Vec<(&'static str, WeightedGraph)> {
        use linkclust_graph::generate::{
            barabasi_albert, erdos_renyi, k_regular, lfr_like, overlapping_planted,
            overlapping_planted_with_mixing, path, planted_partition, ring, star, watts_strogatz,
        };
        let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
        vec![
            ("complete", complete(16, w, 1)),
            ("erdos_renyi", erdos_renyi(60, 0.1, w, 2)),
            ("gnm", gnm(80, 300, w, 3)),
            ("k_regular", k_regular(60, 6, w, 4)),
            ("barabasi_albert", barabasi_albert(90, 3, w, 5)),
            ("planted_partition", planted_partition(4, 12, 0.6, 0.05, 6).graph),
            ("lfr_like", lfr_like(150, 8, 0.2, 7).graph),
            ("overlapping_planted", overlapping_planted(4, 10, 2, 8).graph),
            (
                "overlapping_planted_with_mixing",
                overlapping_planted_with_mixing(4, 10, 2, 0.3, 9).graph,
            ),
            ("ring", ring(40, w, 10)),
            ("watts_strogatz", watts_strogatz(60, 6, 0.2, w, 11)),
            ("path", path(30, w, 12)),
            ("star", star(30, w, 13)),
            ("gnm, K1 past one leaf", gnm(1500, 4000, w, 14)),
        ]
    }

    /// Runs the Filter-Kruskal pass with leaves of `leaf` entries over
    /// `g`'s unsorted list and checks it against [`kruskal_sweep_with`]
    /// over the sorted list: the dendrogram, the merge-score bits, the
    /// slot map and the sweep's counters, a list that keeps every entry
    /// behind a sorted prefix, and counters that match the work done.
    fn assert_pass_is_the_sorted_sweep(
        what: &str,
        g: &WeightedGraph,
        config: SweepConfig,
        leaf: usize,
    ) -> PassWork {
        use crate::telemetry::TelemetrySink;
        let unsorted = compute_similarities(g);
        let sorted = unsorted.clone().into_sorted();
        let (telemetry, recorder) = TelemetrySink::Stats.build();
        let oracle = kruskal_sweep_with(g, &sorted, config, &telemetry);
        let oracle_report = recorder.expect("stats sink records").report();
        let (telemetry, recorder) = TelemetrySink::Stats.build();
        let mut sims = unsorted;
        let (out, work) = filter_kruskal(g, &mut sims, config, &telemetry, leaf);
        let report = recorder.expect("stats sink records").report();
        assert_eq!(out.dendrogram(), oracle.dendrogram(), "{what}");
        assert_eq!(score_bits(&out), score_bits(&oracle), "{what}");
        assert_eq!(out.slot_of_edge(), oracle.slot_of_edge(), "{what}");
        for counter in
            [Counter::MergesApplied, Counter::PairsProcessed, Counter::IntersectedDegrees]
        {
            assert_eq!(
                report.counter(counter),
                oracle_report.counter(counter),
                "{what} {counter:?}"
            );
        }
        assert_eq!(report.counter(Counter::EntriesSorted), work.sorted, "{what}");
        assert_eq!(report.counter(Counter::EntriesFiltered), work.filtered, "{what}");
        assert!(work.sorted + work.filtered <= sorted.len() as u64, "{what}");
        for phase in [Phase::Sweep, Phase::SweepSetup, Phase::Sort] {
            assert_eq!(report.phase_calls(phase), 1, "{what} {phase:?}");
        }
        // cast: a count of entries of `L`, which is in memory.
        let prefix = &sims.entries()[..work.sorted as usize];
        assert!(prefix.windows(2).all(|w| w[0].list_order(&w[1]) == Ordering::Less), "{what}");
        assert_eq!(sims.is_sorted(), work.sorted == sorted.len() as u64, "{what}");
        assert_eq!(sims.into_sorted(), sorted, "{what}: the pass keeps every entry");
        work
    }

    #[test]
    fn filter_kruskal_is_the_sorted_sweep_on_every_family() {
        let orders = [EdgeOrder::Insertion, EdgeOrder::Shuffled { seed: 3 }];
        let mut filtered = 0;
        for (name, g) in every_family() {
            let sims = compute_similarities(&g).into_sorted();
            let full =
                kruskal_sweep_with(&g, &sims, SweepConfig::default(), &Telemetry::disabled());
            let scores = full.merge_scores();
            let median = scores.get(scores.len() / 2).copied();
            for edge_order in orders {
                for min_similarity in [None, median] {
                    let config = SweepConfig { edge_order, min_similarity };
                    for leaf in LEAF_SIZES {
                        let what = format!("{name} {config:?} leaf {leaf}");
                        let work = assert_pass_is_the_sorted_sweep(&what, &g, config, leaf);
                        if leaf >= sims.len() {
                            assert_eq!(work.sorted, sims.len() as u64, "{what}: one leaf");
                            assert_eq!(work.deepest, 0, "{what}");
                        } else {
                            assert!(work.deepest > 0, "{what}: a partition");
                        }
                        filtered += work.filtered;
                    }
                }
            }
        }
        assert!(filtered > 0, "the filter dropped entries");
    }

    /// Disjoint 4-cycles with random weights. Every entry of `L` (a
    /// cycle's diagonal) has two wedges, so the pass filters nothing; and
    /// each cycle needs both of its entries for its third merge, so the
    /// forest completes only at the last entry of `L`.
    fn four_cycles(count: usize) -> WeightedGraph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(count as u64);
        let mut b = GraphBuilder::with_vertices(4 * count);
        for c in 0..count {
            let v = |i: usize| VertexId::new(4 * c + i % 4);
            for i in 0..4 {
                b.add_edge(v(i), v(i + 1), rng.gen_range(0.2..2.0)).unwrap();
            }
        }
        b.build()
    }

    /// `sorted` rearranged so that, in a pass that filters nothing and
    /// never stops, every partition with leaves of `leaf` entries samples
    /// the smallest keys of its range. It simulates the pass's partitions
    /// on placeholders that are ranked as the sampler first reaches them:
    /// an unranked one orders after every ranked one, as the entry it
    /// stands for will.
    fn sampled_smallest_first(sorted: &[SimilarityEntry], leaf: usize) -> Vec<SimilarityEntry> {
        let n = sorted.len();
        let placeholder = |at: usize| {
            let first = sorted[0].first_wedge();
            SimilarityEntry::new(
                VertexPair::new(VertexId::new(0), VertexId::new(at + 1)),
                0.0,
                1,
                first,
            )
        };
        let mut list: Vec<SimilarityEntry> = (0..n).map(placeholder).collect();
        let mut rank = vec![usize::MAX; n];
        let mut next = 0;
        let mut start = 0;
        for _ in 0..depth_limit(n) {
            let len = n - start;
            if len <= leaf {
                break;
            }
            let take = PIVOT_SAMPLE.min(len);
            for k in 0..take {
                let e = &mut list[start + k * len / take];
                let at = e.pair.second().index() - 1;
                if rank[at] == usize::MAX {
                    rank[at] = next;
                    e.score = (n - next) as f64;
                    next += 1;
                }
            }
            start += partition(&mut list[start..]);
        }
        for r in rank.iter_mut().filter(|r| **r == usize::MAX) {
            *r = next;
            next += 1;
        }
        rank.iter().map(|&r| sorted[r]).collect()
    }

    #[test]
    fn filter_kruskal_reaches_the_depth_limit_and_stays_identical() {
        let g = four_cycles(2048);
        let mut sims = compute_similarities(&g);
        let sorted = sims.clone().into_sorted();
        let leaf = 16;
        sims.entries_mut().copy_from_slice(&sampled_smallest_first(sorted.entries(), leaf));
        let (telemetry, recorder) = crate::telemetry::TelemetrySink::Stats.build();
        let (out, work) = filter_kruskal(&g, &mut sims, SweepConfig::default(), &telemetry, leaf);
        let report = recorder.expect("stats sink records").report();
        assert_eq!(work.deepest, depth_limit(sorted.len()), "the recursion was cut off");
        assert_eq!(work, PassWork { sorted: 4096, filtered: 0, deepest: 24 });
        let oracle =
            kruskal_sweep_with(&g, &sorted, SweepConfig::default(), &Telemetry::disabled());
        assert_eq!(out.dendrogram(), oracle.dendrogram());
        assert_eq!(score_bits(&out), score_bits(&oracle));
        assert_eq!(report.counter(Counter::PairsProcessed), sorted.incident_pair_count());
        assert_eq!(sims, sorted);
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

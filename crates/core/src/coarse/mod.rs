//! Coarse-grained hierarchical link clustering (§V of the paper).
//!
//! Instead of one dendrogram level per merge, the sorted pair list is
//! processed in *chunks*: all merges of a chunk share a level. The chunk
//! sizes are chosen adaptively so the resulting dendrogram is **sound** —
//! the cluster count shrinks by at most a factor γ between consecutive
//! levels — and the algorithm stops once fewer than φ clusters remain
//! (the remaining tail of incident pairs is never processed, which is
//! where the speed-up of Fig. 5(2) comes from).
//!
//! The driver is a mode machine (Fig. 2(3)):
//!
//! * **head** — more than `|E|/2` clusters remain; chunk sizes grow
//!   exponentially (`δ ← δ·η`).
//! * **tail** — fewer than `|E|/2` clusters; chunk sizes are predicted by
//!   slope extrapolation ([`estimate`]), using overshot states saved on
//!   the rollback list as reference points (Eq. 6).
//! * **rollback** — an epoch that violated the merge-rate bound (predicate
//!   C2: β/β′ ≤ γ) is undone: its end state is saved for later reuse, the
//!   algorithm restores the previous safe state and retries with a
//!   smaller chunk. When a later level can legally jump to a saved state
//!   (Case I reuse), the saved merges are committed wholesale without
//!   recomputation.

pub mod estimate;
pub mod machine;

mod epoch;

use std::ops::Range;

use linkclust_graph::{EdgeIndex, GraphView};

use crate::cluster_array::{partition_diff, ClusterArray, MergeOutcome};
use crate::dendrogram::{Dendrogram, MergeRecord};
use crate::error::ConfigError;
use crate::similarity::PairSimilarities;
use crate::sweep::{EdgeOrder, SweepOutput};
use crate::telemetry::{Counter, Gauge, Phase, RunReport, Telemetry};

use self::epoch::{RollbackList, SavedEpoch};
use self::estimate::{estimate_chunk, CurvePoint};
use self::machine::{transition, EpochOutcome, Mode, Transition};

/// Parameters `(γ, φ, δ₀)` plus the head growth factor η₀ (§V-A / §VII-B).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CoarseConfig {
    /// Soundness bound γ ≥ 1: the cluster count may shrink by at most
    /// this factor between consecutive levels.
    pub gamma: f64,
    /// Terminal cluster count φ: clustering stops once β ≤ φ.
    pub phi: usize,
    /// Initial chunk size δ₀ (in incident edge pairs).
    pub initial_chunk: u64,
    /// Initial head-mode growth factor η₀ > 1; halves toward 1 on every
    /// head-mode rollback.
    pub eta0: f64,
    /// Edge-to-slot assignment (shared with the fine-grained sweep).
    pub edge_order: EdgeOrder,
    /// Maximum number of saved rollback states (each holds a full copy
    /// of array `C`).
    pub max_rollback_states: usize,
}

impl Default for CoarseConfig {
    /// The paper's experimental setting: γ = 2, φ = 100, δ₀ = 1000,
    /// η₀ = 8.
    fn default() -> Self {
        CoarseConfig {
            gamma: 2.0,
            phi: 100,
            initial_chunk: 1000,
            eta0: 8.0,
            edge_order: EdgeOrder::Insertion,
            max_rollback_states: 64,
        }
    }
}

impl CoarseConfig {
    /// A configuration auto-scaled to a workload, mirroring how the
    /// paper picks δ₀ ∈ {100…10000} to track its graph sizes (§VII-B):
    /// γ = 2 and η₀ = 8 as in the paper, δ₀ ≈ K₂/1500 and φ = 100
    /// clamped down for small graphs.
    ///
    /// # Examples
    ///
    /// ```
    /// use linkclust_graph::generate::{gnm, WeightMode};
    /// use linkclust_core::{coarse::CoarseConfig, init::compute_similarities};
    ///
    /// let g = gnm(40, 150, WeightMode::Unit, 1);
    /// let sims = compute_similarities(&g).into_sorted();
    /// let cfg = CoarseConfig::auto_tuned(&g, &sims);
    /// assert!(cfg.phi <= 100 && cfg.initial_chunk >= 8);
    /// ```
    #[must_use]
    pub fn auto_tuned<G: GraphView + ?Sized>(g: &G, sims: &PairSimilarities) -> Self {
        CoarseConfig {
            phi: 100.min((g.edge_count() / 4).max(1)),
            initial_chunk: (sims.incident_pair_count() / 1500).max(8),
            ..Default::default()
        }
    }

    /// A validating builder — the panic-free way to construct a
    /// non-default configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use linkclust_core::coarse::CoarseConfig;
    /// use linkclust_core::ConfigError;
    ///
    /// let cfg = CoarseConfig::builder().gamma(1.5).phi(50).build()?;
    /// assert_eq!(cfg.phi, 50);
    /// assert_eq!(
    ///     CoarseConfig::builder().gamma(0.5).build(),
    ///     Err(ConfigError::InvalidGamma(0.5))
    /// );
    /// # Ok::<(), ConfigError>(())
    /// ```
    #[must_use]
    pub fn builder() -> CoarseConfigBuilder {
        CoarseConfigBuilder { cfg: CoarseConfig::default() }
    }

    /// Checks every parameter, returning the first violation: γ must be
    /// finite and ≥ 1, φ ≥ 1, δ₀ ≥ 1, η₀ finite and > 1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.gamma.is_finite() || self.gamma < 1.0 {
            return Err(ConfigError::InvalidGamma(self.gamma));
        }
        if self.phi == 0 {
            return Err(ConfigError::ZeroPhi);
        }
        if self.initial_chunk == 0 {
            return Err(ConfigError::ZeroChunk);
        }
        if !self.eta0.is_finite() || self.eta0 <= 1.0 {
            return Err(ConfigError::InvalidEta(self.eta0));
        }
        Ok(())
    }

    /// Validates the config, then reconciles its
    /// [`edge_order`](Self::edge_order) with an order a facade set
    /// explicitly (`None` if it set none): the explicit order wins over
    /// a default-valued config, and a **conflicting** non-default config
    /// value is rejected with [`ConfigError::EdgeOrderConflict`] instead
    /// of silently overwritten. The clustering facade's `run_coarse`
    /// calls this.
    ///
    /// # Examples
    ///
    /// ```
    /// use linkclust_core::coarse::CoarseConfig;
    /// use linkclust_core::sweep::EdgeOrder;
    /// use linkclust_core::ConfigError;
    ///
    /// let shuffled = EdgeOrder::Shuffled { seed: 7 };
    /// let cfg = CoarseConfig::default().reconcile_edge_order(Some(shuffled))?;
    /// assert_eq!(cfg.edge_order, shuffled);
    /// let other = CoarseConfig { edge_order: EdgeOrder::Shuffled { seed: 8 }, ..cfg };
    /// assert_eq!(other.reconcile_edge_order(Some(shuffled)), Err(ConfigError::EdgeOrderConflict));
    /// # Ok::<(), ConfigError>(())
    /// ```
    pub fn reconcile_edge_order(
        mut self,
        explicit: Option<EdgeOrder>,
    ) -> Result<CoarseConfig, ConfigError> {
        self.validate()?;
        if let Some(order) = explicit {
            if self.edge_order != EdgeOrder::default() && self.edge_order != order {
                return Err(ConfigError::EdgeOrderConflict);
            }
            self.edge_order = order;
        }
        Ok(self)
    }
}

/// Builder for [`CoarseConfig`] returned by [`CoarseConfig::builder`];
/// [`build`](CoarseConfigBuilder::build) validates every parameter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CoarseConfigBuilder {
    cfg: CoarseConfig,
}

impl CoarseConfigBuilder {
    /// Sets the soundness bound γ.
    #[must_use]
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.cfg.gamma = gamma;
        self
    }

    /// Sets the terminal cluster count φ.
    #[must_use]
    pub fn phi(mut self, phi: usize) -> Self {
        self.cfg.phi = phi;
        self
    }

    /// Sets the initial chunk size δ₀.
    #[must_use]
    pub fn initial_chunk(mut self, initial_chunk: u64) -> Self {
        self.cfg.initial_chunk = initial_chunk;
        self
    }

    /// Sets the initial head-mode growth factor η₀.
    #[must_use]
    pub fn eta0(mut self, eta0: f64) -> Self {
        self.cfg.eta0 = eta0;
        self
    }

    /// Sets the edge-to-slot assignment.
    #[must_use]
    pub fn edge_order(mut self, edge_order: EdgeOrder) -> Self {
        self.cfg.edge_order = edge_order;
        self
    }

    /// Sets the cap on saved rollback states.
    #[must_use]
    pub fn max_rollback_states(mut self, n: usize) -> Self {
        self.cfg.max_rollback_states = n;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<CoarseConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The mode an epoch ran in, plus whether it was fresh or reused — the
/// categories of Fig. 5(1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochKind {
    /// A committed epoch in head mode.
    HeadFresh,
    /// A committed epoch in tail mode.
    TailFresh,
    /// An epoch that violated the merge-rate bound and was rolled back.
    Rollback,
    /// A saved rollback state committed wholesale (Case-I reuse).
    Reused,
}

/// Telemetry for one epoch of the coarse sweep.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EpochRecord {
    /// Sequence number (0-based, includes rolled-back epochs).
    pub index: u32,
    /// Outcome category.
    pub kind: EpochKind,
    /// The chunk size δ the epoch ran with (0 for reused states).
    pub chunk_size: u64,
    /// Incident edge pairs processed from the start of the sweep to the
    /// end of this epoch (ξ).
    pub pairs_end: u64,
    /// Cluster count at the end of this epoch (β′).
    pub clusters: usize,
    /// The dendrogram level the epoch committed to (`None` for
    /// rollbacks).
    pub level: Option<u32>,
    /// `true` if the epoch consisted of a single entry that exceeded the
    /// chunk budget on its own — such epochs are committed even if they
    /// violate the merge-rate bound, since an entry is indivisible.
    pub forced: bool,
}

/// A committed dendrogram level of the coarse sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LevelPoint {
    /// The level id (1-based).
    pub level: u32,
    /// Incident edge pairs processed up to and including this level (ξ).
    pub pairs: u64,
    /// Cluster count after this level (β).
    pub clusters: usize,
}

/// Counts per epoch category (the bars of Fig. 5(1)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EpochBreakdown {
    /// Committed head-mode epochs.
    pub head_fresh: usize,
    /// Committed tail-mode epochs.
    pub tail_fresh: usize,
    /// Rolled-back epochs.
    pub rollback: usize,
    /// Reused saved states.
    pub reused: usize,
}

/// The result of a coarse-grained sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct CoarseResult {
    output: SweepOutput,
    epochs: Vec<EpochRecord>,
    levels: Vec<LevelPoint>,
    pairs_total: u64,
    pairs_processed: u64,
    report: Option<RunReport>,
}

impl CoarseResult {
    /// The dendrogram plus edge-to-slot permutation.
    #[must_use]
    pub fn output(&self) -> &SweepOutput {
        &self.output
    }

    /// The telemetry report, when the run collected stats (the facade
    /// with `.stats(true)`); `None` otherwise.
    #[must_use]
    pub fn report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// Attaches a telemetry report (used by the facade after a
    /// stats-collecting run).
    #[must_use]
    pub fn with_report(mut self, report: RunReport) -> Self {
        self.report = Some(report);
        self
    }

    /// The coarse dendrogram (merges share levels chunk-wise).
    #[must_use]
    pub fn dendrogram(&self) -> &Dendrogram {
        self.output.dendrogram()
    }

    /// Telemetry for every epoch, in execution order.
    #[must_use]
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// The committed levels, in order.
    #[must_use]
    pub fn levels(&self) -> &[LevelPoint] {
        &self.levels
    }

    /// Counts epochs per category (Fig. 5(1)).
    #[must_use]
    pub fn epoch_breakdown(&self) -> EpochBreakdown {
        let mut b = EpochBreakdown::default();
        for e in &self.epochs {
            match e.kind {
                EpochKind::HeadFresh => b.head_fresh += 1,
                EpochKind::TailFresh => b.tail_fresh += 1,
                EpochKind::Rollback => b.rollback += 1,
                EpochKind::Reused => b.reused += 1,
            }
        }
        b
    }

    /// Fraction of the K₂ incident edge pairs that were actually
    /// processed before the φ-termination (e.g. 55.1% for α = 0.005 in
    /// §VII-B).
    #[must_use]
    pub fn processed_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 0.0;
        }
        self.pairs_processed as f64 / self.pairs_total as f64
    }

    /// The largest cluster-count ratio between consecutive committed
    /// levels. For a sound run this is ≤ γ except across
    /// [`forced`](EpochRecord::forced) epochs.
    #[must_use]
    pub fn max_merge_rate(&self) -> f64 {
        let mut prev = self.output.dendrogram().edge_count() as f64;
        let mut worst: f64 = 1.0;
        for l in &self.levels {
            let rate = prev / l.clusters.max(1) as f64;
            worst = worst.max(rate);
            prev = l.clusters as f64;
        }
        worst
    }

    /// Like [`max_merge_rate`](Self::max_merge_rate) but skipping levels
    /// committed by forced (indivisible single-entry) epochs.
    #[must_use]
    pub fn max_unforced_merge_rate(&self) -> f64 {
        let forced: std::collections::HashSet<u32> =
            self.epochs.iter().filter(|e| e.forced).filter_map(|e| e.level).collect();
        let mut prev = self.output.dendrogram().edge_count() as f64;
        let mut worst: f64 = 1.0;
        for l in &self.levels {
            if !forced.contains(&l.level) {
                worst = worst.max(prev / l.clusters.max(1) as f64);
            }
            prev = l.clusters as f64;
        }
        worst
    }
}

/// Applies the merges of one chunk of similarity entries to the cluster
/// array. The serial implementation is [`SerialChunkProcessor`]; the
/// multi-threaded one (per-thread copies of `C` merged hierarchically,
/// §VI-B) lives in the `linkclust-parallel` crate.
///
/// Edge lookups go through a precomputed [`EdgeIndex`] rather than the
/// graph itself — the only graph access the merge loop needs is
/// `(vertex, vertex) → edge id`, and the index answers it in O(1) for
/// any [`GraphView`] backend. Multi-threaded processors lend the index
/// and the list to their threads by reference.
///
/// A chunk is a range of entries of the sorted list, which is passed
/// whole: a processor reads the chunk's common neighbors from the list's
/// arena.
///
/// Implementations must bring `c` to the partition obtained by merging,
/// for every entry and every common neighbor `vₖ`, the clusters of edges
/// `(vᵢ, vₖ)` and `(vⱼ, vₖ)`. The returned outcomes must be a valid merge
/// sequence producing that partition (one event per cluster-count
/// decrement); their order is unspecified.
pub trait ChunkProcessor {
    /// Processes the entries `sorted.entries()[chunk]` against `c`,
    /// returning the merge events.
    fn process_entries(
        &mut self,
        index: &EdgeIndex,
        slot_of_edge: &[u32],
        sorted: &PairSimilarities,
        chunk: Range<usize>,
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome>;
}

/// The serial chunk processor: applies `MERGE` per incident edge pair, in
/// list order, exactly as Algorithm 2 does.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialChunkProcessor;

impl ChunkProcessor for SerialChunkProcessor {
    /// # Panics
    ///
    /// Panics if an entry lists a common neighbor with no edge to both
    /// endpoints in the indexed graph — the entries must have been
    /// computed over the same graph the index was built from.
    fn process_entries(
        &mut self,
        index: &EdgeIndex,
        slot_of_edge: &[u32],
        sorted: &PairSimilarities,
        chunk: Range<usize>,
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome> {
        let mut out = Vec::new();
        for entry in &sorted.entries()[chunk] {
            let (vi, vj) = (entry.pair.first(), entry.pair.second());
            for &vk in sorted.common_neighbors(entry) {
                let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
                let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
                let s1 = slot_of_edge[e1.index()] as usize;
                let s2 = slot_of_edge[e2.index()] as usize;
                if let Some(o) = c.merge(s1, s2) {
                    out.push(o);
                }
            }
        }
        out
    }
}

/// Runs the coarse-grained sweeping algorithm over the sorted pair list.
///
/// # Panics
///
/// Panics if `sorted` is unsorted, or `config` is degenerate (γ < 1,
/// φ = 0, δ₀ = 0, or η₀ ≤ 1). Use [`CoarseConfig::builder`] or
/// [`CoarseConfig::validate`] (or the facade, which returns
/// [`ConfigError`]) to reject bad configurations without panicking.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::coarse::{coarse_sweep, CoarseConfig};
///
/// let g = gnm(40, 150, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
/// let sims = compute_similarities(&g).into_sorted();
/// let result = coarse_sweep(&g, &sims, CoarseConfig {
///     phi: 10,
///     initial_chunk: 8,
///     ..Default::default()
/// });
/// assert!(result.dendrogram().levels() > 0);
/// ```
pub fn coarse_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
) -> CoarseResult {
    coarse_sweep_with(g, sorted, config, &mut SerialChunkProcessor)
}

/// Like [`coarse_sweep`], but chunks are applied through a caller-supplied
/// [`ChunkProcessor`] — the hook the multi-threaded sweep plugs into.
///
/// # Panics
///
/// Same conditions as [`coarse_sweep`].
pub fn coarse_sweep_with<G: GraphView + ?Sized, P: ChunkProcessor>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
    processor: &mut P,
) -> CoarseResult {
    coarse_sweep_instrumented(g, sorted, config, processor, &Telemetry::disabled())
}

/// [`coarse_sweep_with`] plus phase-level telemetry: every epoch runs
/// under a [`Phase::CoarseEpoch`] span, chunk sizes are observed on the
/// [`Gauge::ChunkSize`] gauge, and the epoch/rollback/merge counters are
/// recorded.
///
/// # Panics
///
/// Same conditions as [`coarse_sweep`].
pub fn coarse_sweep_instrumented<G: GraphView + ?Sized, P: ChunkProcessor>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
    processor: &mut P,
    telemetry: &Telemetry,
) -> CoarseResult {
    assert!(sorted.is_sorted(), "coarse sweep requires a sorted pair list; call into_sorted()");
    config.validate().unwrap_or_else(|e| panic!("invalid coarse config: {e}"));

    let m = g.edge_count();
    // One index serves every epoch (including rollback retries).
    let index = EdgeIndex::for_graph(g);
    let slot_of_edge = config.edge_order.permutation(m);
    let entries = sorted.entries();
    let pairs_total = sorted.incident_pair_count();
    let gamma_tilde = (1.0 + config.gamma) / 2.0;

    let mut c = ClusterArray::new(m);
    let mut merges: Vec<MergeRecord> = Vec::new();
    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut levels: Vec<LevelPoint> = Vec::new();
    let mut rollbacks = RollbackList::new(config.max_rollback_states);
    let mut history: Vec<CurvePoint> = vec![CurvePoint { pairs: 0, clusters: m }];

    let mut mode = Mode::Head;
    let mut level: u32 = 0;
    let mut beta = m;
    let mut delta = config.initial_chunk;
    let mut big_delta: u64 = 0;
    let mut xi: u64 = 0;
    let mut p: usize = 0;
    let mut eta = config.eta0;
    let mut epoch_index: u32 = 0;
    let mut consecutive_rollbacks = 0u32;

    // Progress invariant: every commit consumes ≥ 1 entry, and between
    // commits at most ~log₂(K₂) rollbacks can occur before δ collapses
    // to 1 and the next epoch is forced. The guard turns any violation
    // (a bug) into a panic instead of a livelock.
    let epoch_guard = 1024 + 64 * entries.len() as u64;

    'outer: while p < entries.len() && beta > config.phi {
        assert!(
            (epochs.len() as u64) < epoch_guard,
            "coarse sweep stopped making progress after {} epochs (p = {p}, δ = {delta}); \
             this is a bug in the mode machine",
            epochs.len()
        );
        // One span per attempted epoch (committed, rolled back, or
        // followed by reuse jumps); chunk size sampled up front.
        let epoch_span = telemetry.span(Phase::CoarseEpoch);
        telemetry.observe(Gauge::ChunkSize, delta as f64);

        // Snapshot the safe state Q* before attempting the epoch.
        let safe_parents = c.parents().to_vec();

        // Select the chunk: entries while ξ + |l| < Δ + δ. The first
        // entry is always admitted (entries are indivisible).
        let mut q = p;
        let mut xi_new = xi;
        while q < entries.len() {
            let pc = entries[q].pair_count() as u64;
            if q > p && xi_new + pc >= big_delta + delta {
                break;
            }
            xi_new += pc;
            q += 1;
            if xi_new >= big_delta + delta {
                break;
            }
        }
        let pending = processor.process_entries(&index, &slot_of_edge, sorted, p..q, &mut c);
        let beta_prime = c.cluster_count();
        let forced = q == p + 1 && xi_new >= big_delta + delta;
        let decision = transition(
            EpochOutcome { clusters_before: beta, clusters_after: beta_prime, edges: m, forced },
            config.gamma,
            config.phi,
        );

        if decision == Transition::Rollback {
            // --- Rollback (Case II) ---
            telemetry.add(Counter::Rollbacks, 1);
            epochs.push(EpochRecord {
                index: epoch_index,
                kind: EpochKind::Rollback,
                chunk_size: delta,
                pairs_end: xi_new,
                clusters: beta_prime,
                level: None,
                forced: false,
            });
            epoch_index += 1;
            rollbacks.push(SavedEpoch {
                parents: c.parents().to_vec(),
                pairs: xi_new,
                entry_index: q,
                clusters: beta_prime,
            });
            c = ClusterArray::from_parents(safe_parents);
            if mode == Mode::Head {
                // head -> rollback transition: η decays toward 1.
                eta = 1.0 + (eta - 1.0) / 2.0;
            }
            consecutive_rollbacks += 1;
            if consecutive_rollbacks > 1 {
                // Consecutive rollbacks: halve toward the safe level.
                delta = (delta / 2).max(1);
            } else {
                let reference = CurvePoint { pairs: xi_new, clusters: beta_prime };
                delta = estimate_chunk(Some(reference), &history, gamma_tilde)
                    .unwrap_or_else(|| (delta / 2).max(1));
            }
            continue;
        }

        // --- Commit (Case I) ---
        level += 1;
        for out in &pending {
            merges.push(MergeRecord { level, left: out.left, right: out.right, into: out.into });
        }
        xi = xi_new;
        p = q;
        // The paper advances the budget base by Δ ← Δ + δ; anchoring it
        // to the pairs actually consumed (Δ = ξ) is equivalent when a
        // chunk consumes exactly its budget and prevents unbounded drift
        // when entry granularity makes it stop early or run long —
        // otherwise a few capped head-mode chunks can push Δ so far past
        // ξ that the budget never binds again and rollbacks cannot
        // shrink the chunk (a livelock).
        big_delta = xi;
        beta = beta_prime;
        history.push(CurvePoint { pairs: xi, clusters: beta });
        epochs.push(EpochRecord {
            index: epoch_index,
            kind: match mode {
                Mode::Tail => EpochKind::TailFresh,
                Mode::Head => EpochKind::HeadFresh,
            },
            chunk_size: delta,
            pairs_end: xi,
            clusters: beta,
            level: Some(level),
            forced,
        });
        epoch_index += 1;
        levels.push(LevelPoint { level, pairs: xi, clusters: beta });
        consecutive_rollbacks = 0;
        epoch_span.finish();
        telemetry.add(Counter::EpochsCommitted, 1);
        if forced {
            telemetry.add(Counter::ForcedEpochs, 1);
        }
        match decision {
            Transition::Terminate => break,
            Transition::Commit { next } => mode = next,
            Transition::Rollback => unreachable!("rollback handled above"),
        }

        // Case-I reuse: jump to saved states while one is admissible.
        while let Some(s) = rollbacks.take_reusable(beta, config.gamma) {
            level += 1;
            let saved = ClusterArray::from_parents(s.parents);
            for out in partition_diff(&c, &saved) {
                merges.push(MergeRecord {
                    level,
                    left: out.left,
                    right: out.right,
                    into: out.into,
                });
            }
            c = saved;
            xi = s.pairs;
            p = s.entry_index;
            big_delta = xi;
            beta = s.clusters;
            history.push(CurvePoint { pairs: xi, clusters: beta });
            telemetry.add(Counter::EpochsReused, 1);
            epochs.push(EpochRecord {
                index: epoch_index,
                kind: EpochKind::Reused,
                chunk_size: 0,
                pairs_end: xi,
                clusters: beta,
                level: Some(level),
                forced: false,
            });
            epoch_index += 1;
            levels.push(LevelPoint { level, pairs: xi, clusters: beta });
            if beta <= config.phi {
                break 'outer;
            }
            if beta <= m / 2 {
                mode = Mode::Tail;
            }
        }
        rollbacks.prune(beta);

        // Estimate the next chunk size by mode.
        match mode {
            Mode::Tail => {
                let reference = rollbacks
                    .tail_reference(beta)
                    .map(|s| CurvePoint { pairs: s.pairs, clusters: s.clusters });
                if let Some(d) = estimate_chunk(reference, &history, gamma_tilde) {
                    delta = d;
                }
            }
            Mode::Head => {
                let grown = (delta as f64 * eta).ceil();
                delta = if grown >= pairs_total as f64 { pairs_total.max(1) } else { grown as u64 };
            }
        }
    }

    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::LevelsCommitted, levels.len() as u64);
    telemetry.add(Counter::PairsProcessed, xi);
    crate::invariants::debug_check_cluster_array(&c);
    crate::invariants::debug_check_level_points(&levels);
    let dendrogram = Dendrogram::from_merges(m, merges);
    crate::invariants::debug_check_dendrogram(&dendrogram);
    CoarseResult {
        output: SweepOutput::new(dendrogram, slot_of_edge),
        epochs,
        levels,
        pairs_total,
        pairs_processed: xi,
        report: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::compute_similarities;
    use crate::reference::canonical_labels;
    use crate::sweep::{sweep, SweepConfig};
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};
    use linkclust_graph::WeightedGraph;

    fn sims_for(g: &WeightedGraph) -> PairSimilarities {
        compute_similarities(g).into_sorted()
    }

    fn default_small() -> CoarseConfig {
        CoarseConfig { phi: 5, initial_chunk: 4, ..Default::default() }
    }

    #[test]
    fn edge_order_reconciliation() {
        let facade = Some(EdgeOrder::Shuffled { seed: 7 });
        let config =
            |seed| CoarseConfig { edge_order: EdgeOrder::Shuffled { seed }, ..Default::default() };
        // Default-valued config: the facade's explicit order wins.
        let cfg = CoarseConfig::default().reconcile_edge_order(facade).unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Matching explicit orders: fine.
        let cfg = config(7).reconcile_edge_order(facade).unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Conflicting explicit orders: rejected.
        assert_eq!(config(8).reconcile_edge_order(facade), Err(ConfigError::EdgeOrderConflict));
        // No facade order: the config's order is used untouched.
        let cfg = config(3).reconcile_edge_order(None).unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 3 });
    }

    #[test]
    fn runs_to_phi_or_exhaustion() {
        let g = gnm(50, 250, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let sims = sims_for(&g);
        let cfg = default_small();
        let r = coarse_sweep(&g, &sims, cfg);
        let final_clusters = r.dendrogram().final_cluster_count();
        assert!(
            final_clusters <= cfg.phi || r.processed_fraction() >= 1.0 - 1e-9,
            "stopped early with {final_clusters} clusters at {}",
            r.processed_fraction()
        );
    }

    #[test]
    fn soundness_outside_forced_epochs() {
        for seed in 0..4 {
            let g = gnm(60, 300, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = sims_for(&g);
            let cfg = default_small();
            let r = coarse_sweep(&g, &sims, cfg);
            let rate = r.max_unforced_merge_rate();
            assert!(rate <= cfg.gamma + 1e-9, "rate {rate} exceeds gamma (seed {seed})");
        }
    }

    #[test]
    fn partition_at_full_processing_matches_fine_sweep() {
        // With phi = 1 the coarse sweep must process everything, so its
        // final partition equals the fine-grained sweep's.
        for seed in 0..3 {
            let g = gnm(30, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = sims_for(&g);
            let cfg = CoarseConfig { phi: 1, initial_chunk: 6, ..Default::default() };
            let r = coarse_sweep(&g, &sims, cfg);
            let fine = sweep(&g, &sims, SweepConfig::default());
            let a: Vec<usize> = r.output().edge_assignments().iter().map(|&x| x as usize).collect();
            let b: Vec<usize> = fine.edge_assignments().iter().map(|&x| x as usize).collect();
            assert_eq!(canonical_labels(&a), canonical_labels(&b), "seed {seed}");
        }
    }

    #[test]
    fn phi_termination_skips_tail_pairs() {
        let g = barabasi_albert(120, 6, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 5);
        let sims = sims_for(&g);
        let cfg = CoarseConfig { phi: 40, initial_chunk: 16, ..Default::default() };
        let r = coarse_sweep(&g, &sims, cfg);
        if r.dendrogram().final_cluster_count() <= cfg.phi {
            assert!(
                r.processed_fraction() < 1.0,
                "expected early termination to skip pairs; processed {}",
                r.processed_fraction()
            );
        }
    }

    #[test]
    fn epoch_telemetry_is_consistent() {
        let g = gnm(60, 280, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 9);
        let sims = sims_for(&g);
        let r = coarse_sweep(&g, &sims, default_small());
        let b = r.epoch_breakdown();
        let committed = b.head_fresh + b.tail_fresh + b.reused;
        assert_eq!(committed, r.levels().len());
        assert_eq!(b.head_fresh + b.tail_fresh + b.reused + b.rollback, r.epochs().len());
        // Epoch indices are sequential; levels strictly increase.
        for (i, e) in r.epochs().iter().enumerate() {
            assert_eq!(e.index as usize, i);
        }
        let mut prev = 0;
        for l in r.levels() {
            assert_eq!(l.level, prev + 1);
            prev = l.level;
        }
        // Cluster counts are non-increasing along levels.
        for w in r.levels().windows(2) {
            assert!(w[0].clusters >= w[1].clusters);
        }
    }

    #[test]
    fn small_initial_chunk_triggers_head_growth() {
        // A tiny δ0 forces many head epochs with exponential growth; the
        // run must still terminate and produce non-decreasing ξ.
        let g = gnm(40, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
        let sims = sims_for(&g);
        let cfg = CoarseConfig { phi: 2, initial_chunk: 1, eta0: 8.0, ..Default::default() };
        let r = coarse_sweep(&g, &sims, cfg);
        let mut prev = 0;
        for l in r.levels() {
            assert!(l.pairs >= prev);
            prev = l.pairs;
        }
        assert!(r.dendrogram().merge_count() > 0);
    }

    #[test]
    fn dense_graph_exercises_rollback() {
        // A dense graph has huge similarity ties; big initial chunks
        // overshoot γ and must roll back.
        let g = gnm(30, 200, WeightMode::Uniform { lo: 0.9, hi: 1.1 }, 4);
        let sims = sims_for(&g);
        let cfg =
            CoarseConfig { gamma: 1.2, phi: 3, initial_chunk: 64, eta0: 8.0, ..Default::default() };
        let r = coarse_sweep(&g, &sims, cfg);
        let b = r.epoch_breakdown();
        assert!(b.rollback > 0, "expected rollbacks on a dense graph: {b:?}");
    }

    #[test]
    fn reused_states_commit_correct_partitions() {
        // Whatever path the mode machine takes, cutting the coarse
        // dendrogram at its last level must equal the fine-grained
        // partition cut at the same number of clusters.
        for seed in 0..3 {
            let g = gnm(40, 180, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, seed);
            let sims = sims_for(&g);
            let cfg = CoarseConfig { gamma: 1.5, phi: 8, initial_chunk: 8, ..Default::default() };
            let r = coarse_sweep(&g, &sims, cfg);
            // Replay fine-grained merges until the same cluster count and
            // compare partitions.
            let target = r.dendrogram().final_cluster_count();
            let fine = sweep(&g, &sims, SweepConfig::default());
            let total = fine.dendrogram().edge_count();
            let merges_needed = total - target;
            let coarse_labels: Vec<usize> =
                r.output().edge_assignments().iter().map(|&x| x as usize).collect();
            let fine_labels: Vec<usize> = fine
                .edge_assignments_at_level(merges_needed as u32)
                .iter()
                .map(|&x| x as usize)
                .collect();
            assert_eq!(
                canonical_labels(&coarse_labels),
                canonical_labels(&fine_labels),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_below_one() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let sims = sims_for(&g);
        coarse_sweep(&g, &sims, CoarseConfig { gamma: 0.5, ..Default::default() });
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = linkclust_graph::GraphBuilder::new().build();
        let sims = sims_for(&g);
        let r = coarse_sweep(&g, &sims, CoarseConfig::default());
        assert_eq!(r.dendrogram().merge_count(), 0);
        assert_eq!(r.processed_fraction(), 0.0);
    }
}

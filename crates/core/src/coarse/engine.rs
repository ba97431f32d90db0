//! The loop of the mode machine (Fig. 2(3)), written once and generic
//! over the [`Engine`] that answers it.
//!
//! The loop selects every chunk, evaluates the transition, keeps the
//! rollback list, the Eq. 6 history and the head-mode growth, and records
//! the epochs and levels. The engine holds the partition. The committed
//! partition is always that of a prefix of `L`, the first `p` entries, so
//! an engine answers for prefixes: the cluster count after the next
//! chunk (β′), the merges between two committed prefixes, and what a
//! saved state must keep to be jumped to later. Two engines answer:
//!
//! * the **chunk engine** of [`coarse_sweep_with`](super::coarse_sweep_with):
//!   a [`ChunkProcessor`](super::ChunkProcessor) applies each chunk to
//!   array `C`, which is copied before every attempt and restored on
//!   rollback — the paper's algorithm;
//! * the **stream engine** of
//!   [`stream_coarse_sweep`](super::stream_coarse_sweep): one exact
//!   Kruskal pass over `L`, extended lazily, that records the entry of
//!   each merge.

use std::ops::Range;

use crate::dendrogram::{Dendrogram, MergeRecord};
use crate::similarity::PairSimilarities;
use crate::sweep::SweepOutput;
use crate::telemetry::{Counter, Gauge, Phase, Telemetry};

use super::epoch::{RollbackList, SavedEpoch};
use super::estimate::{estimate_chunk, CurvePoint};
use super::machine::{transition, EpochOutcome, Mode, Transition};
use super::{CoarseConfig, CoarseResult, EpochKind, EpochRecord, LevelPoint};

/// What the mode machine asks of the structure that holds the partition.
pub(super) trait Engine {
    /// What a saved (overshot) state keeps beyond `(ξ, p, β̃)`.
    type State;

    /// Applies the entries `chunk` of `L`, which start at the committed
    /// prefix boundary, and returns the cluster count after them (β′).
    fn attempt(&mut self, chunk: Range<usize>) -> usize;

    /// Undoes the attempted chunk and returns what a later jump to its
    /// end state needs.
    fn roll_back(&mut self) -> Self::State;

    /// Commits the attempted chunk: appends its merges to `merges`, at
    /// `level`.
    fn commit(&mut self, level: u32, merges: &mut Vec<MergeRecord>);

    /// Commits a jump from the committed state to a saved one (Case-I
    /// reuse): appends the merges between the two to `merges`, at
    /// `level`.
    fn jump(&mut self, to: SavedEpoch<Self::State>, level: u32, merges: &mut Vec<MergeRecord>);

    /// Ends the run: the engine's final checks and telemetry. Returns the
    /// edge-to-slot permutation the merges refer to.
    fn finish(self) -> Vec<u32>;
}

/// Runs the mode machine over the sorted list `sorted` of a graph with
/// `m` edges, asking `engine` for every partition, and assembles the
/// result.
///
/// Every attempted epoch runs under a [`Phase::CoarseEpoch`] span, chunk
/// sizes are observed on the [`Gauge::ChunkSize`] gauge, and the
/// epoch, rollback, merge, level and processed-pair counters are
/// recorded.
///
/// # Panics
///
/// Panics if the mode machine stops making progress (a bug).
pub(super) fn drive<E: Engine>(
    mut engine: E,
    sorted: &PairSimilarities,
    m: usize,
    config: &CoarseConfig,
    telemetry: &Telemetry,
) -> CoarseResult {
    let entries = sorted.entries();
    let pairs_total = sorted.incident_pair_count();
    let gamma_tilde = (1.0 + config.gamma) / 2.0;

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
        let beta_prime = engine.attempt(p..q);
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
                state: engine.roll_back(),
                pairs: xi_new,
                entry_index: q,
                clusters: beta_prime,
            });
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
        engine.commit(level, &mut merges);
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
            (xi, p, beta) = (s.pairs, s.entry_index, s.clusters);
            engine.jump(s, level, &mut merges);
            big_delta = xi;
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
    let slot_of_edge = engine.finish();
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

//! Parallel coarse-grained sweeping (§VI-B).
//!
//! Each coarse chunk is split into `T` contiguous entry ranges of
//! near-equal incident-pair count; each thread merges its range on its
//! own copy of array `C`; the copies are combined with the corrected
//! chain-union scheme in a hierarchical (pairwise) reduction. Because the
//! combination yields the join of the per-thread partitions — which
//! equals the partition the serial chunk would produce — the parallel
//! sweep commits the same levels, cluster counts, and mode transitions as
//! the serial coarse sweep.
//!
//! # Steady-state allocation discipline
//!
//! The chunk step and each combine round are one [`WorkerPool::fan_out`]
//! over borrowed data, and the processor keeps its buffers across
//! chunks:
//!
//! * the `T` per-thread copies of `C` are refreshed in place from the
//!   committed array via [`ClusterArray::sync_from`] (`copy_from_slice`)
//!   and reach the threads as `&mut` borrows; the committed array itself
//!   is the read-only base of the chunk, so no snapshot of it is taken;
//! * the entry-weight vector is a reused buffer;
//! * a chunk is an index range into the sorted list, and the threads
//!   read its entries, the graph and the slot permutation in place.

use std::ops::Range;

use linkclust_core::cluster_array::{partition_diff, MergeOutcome};
use linkclust_core::coarse::{
    coarse_sweep_with, ChunkProcessor, CoarseConfig, CoarseResult, SerialChunkProcessor,
};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::{ClusterArray, ConfigError, PairSimilarities};
use linkclust_graph::GraphView;

use crate::merge::merge_cluster_arrays;
use crate::pool::{balanced_partition_with_loads, WorkerPool};

/// A [`ChunkProcessor`] that fans each chunk out over `threads` threads
/// (per-thread copies of `C`, hierarchical combination). Chunks too
/// small to split run serially, counted under
/// [`Counter::SerialFallbackChunks`]; with one thread, every chunk does.
///
/// The processor keeps its per-thread scratch arrays and its weight
/// buffer across chunks — see the module docs for the allocation
/// discipline.
#[derive(Debug)]
pub struct ParallelChunkProcessor {
    pool: WorkerPool,
    min_entries_per_thread: usize,
    /// One copy of `C` per thread, resynced in place every chunk.
    scratch: Vec<ClusterArray>,
    /// The current chunk's per-entry incident-pair counts.
    weights: Vec<u64>,
}

impl ParallelChunkProcessor {
    /// Creates a processor with `threads` threads; rejects
    /// `threads == 0` with [`ConfigError::ZeroThreads`].
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(ParallelChunkProcessor {
            pool: WorkerPool::new(threads),
            min_entries_per_thread: 8,
            scratch: Vec::new(),
            weights: Vec::new(),
        })
    }

    /// Chunks with fewer than `n` entries per thread fall back to serial
    /// processing (dispatch overhead dominates tiny chunks). Default
    /// is 8.
    #[must_use]
    pub fn min_entries_per_thread(mut self, n: usize) -> Self {
        self.min_entries_per_thread = n.max(1);
        self
    }

    /// Attaches a telemetry handle: chunk fan-out and combination are
    /// timed ([`Phase::ChunkProcess`] / [`Phase::ChunkCombine`]), chunk
    /// and combine counters recorded, and per-thread incident-pair loads
    /// fed into the report's thread-item counts.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.pool = self.pool.with_telemetry(telemetry);
        self
    }
}

impl ChunkProcessor for ParallelChunkProcessor {
    fn process_entries<G: GraphView + Sync + ?Sized>(
        &mut self,
        g: &G,
        slot_of_edge: &[u32],
        sorted: &PairSimilarities,
        chunk: Range<usize>,
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome> {
        let threads = self.pool.threads();
        let telemetry = self.pool.telemetry();
        telemetry.add(Counter::ChunksProcessed, 1);
        if threads == 1 || chunk.len() < threads * self.min_entries_per_thread {
            telemetry.add(Counter::SerialFallbackChunks, 1);
            let span = telemetry.span(Phase::ChunkProcess);
            let out = SerialChunkProcessor.process_entries(g, slot_of_edge, sorted, chunk, c);
            span.finish();
            return out;
        }
        self.weights.clear();
        self.weights.extend(sorted.entries()[chunk.clone()].iter().map(|e| e.pair_count() as u64));
        let (ranges, loads) = balanced_partition_with_loads(&self.weights, threads);
        if telemetry.is_enabled() {
            for (thread, &load) in loads.iter().enumerate() {
                telemetry.thread_items(thread, load);
            }
        }
        let k = ranges.len();
        if self.scratch.len() < k {
            self.scratch.resize_with(k, || ClusterArray::new(0));
        }
        let copies = &mut self.scratch[..k];

        // Step 1: every thread merges its entry range on its own copy,
        // resynced in place from the committed array.
        let span = telemetry.span(Phase::ChunkProcess);
        let base: &ClusterArray = c;
        let items: Vec<_> = ranges.into_iter().zip(copies.iter_mut()).collect();
        let _: Vec<()> = self.pool.fan_out(items, |(r, local)| {
            local.sync_from(base);
            let range = chunk.start + r.start..chunk.start + r.end;
            SerialChunkProcessor.process_entries(g, slot_of_edge, sorted, range, local);
        });
        span.finish();

        // Step 2: hierarchical pairwise combination of the copies.
        let span = telemetry.span(Phase::ChunkCombine);
        telemetry.add(Counter::ArrayCombines, (k - 1) as u64);
        let merged = combine_copies(&self.pool, copies);
        span.finish();

        // Debug builds verify the combined array is still a valid
        // descending-chain partition and only merged (never split) the
        // clusters of the pre-chunk state.
        linkclust_core::invariants::debug_check_cluster_array(merged);
        linkclust_core::invariants::debug_check_refinement(c, merged);

        let outcomes = partition_diff(c, merged);
        c.sync_from(merged);
        outcomes
    }
}

/// Combines the per-thread copies into one holding their join: rounds
/// of disjoint pairs run in parallel while more than three copies are
/// left (an odd one out carries to the next round), then a short serial
/// fold. Returns the copy that holds the join.
fn combine_copies<'a>(pool: &WorkerPool, copies: &'a mut [ClusterArray]) -> &'a mut ClusterArray {
    // Indices of the copies still to combine, ascending.
    let mut alive: Vec<usize> = (0..copies.len()).collect();
    while alive.len() > 3 {
        let carry = if alive.len() % 2 == 1 { alive.pop() } else { None };
        let mut live = copies.iter_mut().enumerate().filter(|(i, _)| alive.contains(i));
        let mut pairs = Vec::with_capacity(alive.len() / 2);
        while let (Some((a, target)), Some((_, other))) = (live.next(), live.next()) {
            pairs.push((a, target, &*other));
        }
        alive = pool.fan_out(pairs, |(a, target, other)| {
            merge_cluster_arrays(target, other);
            a
        });
        alive.extend(carry);
    }
    let (head, tail) = copies.split_at_mut(alive[0] + 1);
    let merged = &mut head[alive[0]];
    for &j in &alive[1..] {
        merge_cluster_arrays(merged, &tail[j - alive[0] - 1]);
    }
    merged
}

/// Runs the coarse-grained sweep with chunks processed by `threads`
/// threads. Produces the same partition trajectory (levels, cluster
/// counts, epoch decisions) as the serial
/// [`coarse_sweep`](linkclust_core::coarse::coarse_sweep).
///
/// # Panics
///
/// Panics if `threads == 0`, or under the same conditions as the serial
/// coarse sweep (unsorted input, degenerate config).
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::coarse::CoarseConfig;
/// use linkclust_parallel::parallel_coarse_sweep;
///
/// let g = gnm(30, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
/// let sims = compute_similarities(&g).into_sorted();
/// let cfg = CoarseConfig { phi: 10, initial_chunk: 16, ..Default::default() };
/// let r = parallel_coarse_sweep(&g, &sims, cfg, 4);
/// assert!(r.dendrogram().merge_count() > 0);
/// ```
#[must_use]
pub fn parallel_coarse_sweep<G: GraphView + Sync + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
    threads: usize,
) -> CoarseResult {
    let mut processor = ParallelChunkProcessor::new(threads).unwrap_or_else(|e| panic!("{e}"));
    coarse_sweep_with(g, sorted, config, &mut processor)
}

/// Another name for [`parallel_coarse_sweep`], kept for callers that
/// pass the list as `&Arc<PairSimilarities>` (it derefs to the borrow).
pub use self::parallel_coarse_sweep as parallel_coarse_sweep_shared;

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::coarse::coarse_sweep;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::reference::canonical_labels;
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};

    fn canon(labels: &[u32]) -> Vec<usize> {
        canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
    }

    #[test]
    fn matches_serial_coarse_trajectory() {
        for seed in 0..3 {
            let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g).into_sorted();
            let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
            let serial = coarse_sweep(&g, &sims, cfg);
            for threads in [2, 4] {
                // Force parallel processing even for small chunks so the
                // combination path is exercised.
                let mut proc =
                    ParallelChunkProcessor::new(threads).unwrap().min_entries_per_thread(1);
                let par = coarse_sweep_with(&g, &sims, cfg, &mut proc);
                // The partition trajectory must match level by level.
                let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
                let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
                assert_eq!(sl, pl, "seed {seed} threads {threads}");
                assert_eq!(
                    canon(&serial.output().edge_assignments()),
                    canon(&par.output().edge_assignments()),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn only_chunks_too_small_to_split_run_serially() {
        use std::sync::Arc;

        use linkclust_core::telemetry::RunRecorder;

        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 8);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let count_fallbacks = |min_entries_per_thread: usize| {
            let recorder = Arc::new(RunRecorder::new());
            let mut proc = ParallelChunkProcessor::new(3)
                .unwrap()
                .min_entries_per_thread(min_entries_per_thread)
                .telemetry(Telemetry::new(
                    Arc::clone(&recorder) as Arc<dyn linkclust_core::Recorder>
                ));
            let r = coarse_sweep_with(&g, &sims, cfg, &mut proc);
            let report = recorder.report();
            (
                r,
                report.counter(Counter::SerialFallbackChunks),
                report.counter(Counter::ChunksProcessed),
            )
        };
        let (split, split_fallbacks, split_chunks) = count_fallbacks(1);
        let (serial, fallbacks, chunks) = count_fallbacks(usize::MAX / 8);
        // With one entry per thread enough, only chunks of fewer than
        // three entries fall back; with an unreachable minimum, all do.
        assert!(split_fallbacks < split_chunks);
        assert_eq!(fallbacks, chunks);
        assert_eq!(split.levels(), serial.levels());
        assert_eq!(
            canon(&split.output().edge_assignments()),
            canon(&serial.output().edge_assignments())
        );
    }

    /// The chunk pipeline's counters, on a direct instrumented run at
    /// four threads: chunks were processed, epochs were spanned, and
    /// the report's merge count is the dendrogram's.
    #[test]
    fn parallel_coarse_stats_count_chunks() {
        use std::sync::Arc;

        use linkclust_core::coarse::coarse_sweep_instrumented;
        use linkclust_core::telemetry::{Phase, RunRecorder};

        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 4);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let recorder = Arc::new(RunRecorder::new());
        let telemetry = Telemetry::new(Arc::clone(&recorder) as Arc<dyn linkclust_core::Recorder>);
        let mut processor = ParallelChunkProcessor::new(4).unwrap().telemetry(telemetry.clone());
        let r = coarse_sweep_instrumented(&g, &sims, cfg, &mut processor, &telemetry);
        let report = recorder.report();
        assert!(report.counter(Counter::ChunksProcessed) > 0);
        assert!(report.phase_calls(Phase::CoarseEpoch) > 0);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
    }

    #[test]
    fn processor_reuse_across_graphs_resyncs_context() {
        // A single processor must stay correct when reused across runs
        // over different graphs (its scratch arrays resync per chunk).
        let g1 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
        let g2 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 2);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(2).unwrap().min_entries_per_thread(1);
        for g in [&g1, &g2, &g1] {
            let sims = compute_similarities(g).into_sorted();
            let serial = coarse_sweep(g, &sims, cfg);
            let par = coarse_sweep_with(g, &sims, cfg, &mut proc);
            assert_eq!(serial.levels(), par.levels());
        }
    }

    #[test]
    fn power_law_graph_parallel_partition_is_correct() {
        let g = barabasi_albert(120, 5, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 4);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 1, initial_chunk: 32, ..Default::default() };
        // phi = 1 processes everything: final partition must equal the
        // fine-grained single-linkage partition.
        let fine = linkclust_core::sweep::sweep(&g, &sims, Default::default());
        let mut proc = ParallelChunkProcessor::new(3).unwrap().min_entries_per_thread(1);
        let par = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        assert_eq!(canon(&fine.edge_assignments()), canon(&par.output().edge_assignments()));
    }

    #[test]
    fn single_thread_processor_is_serial() {
        let g = gnm(25, 80, WeightMode::Unit, 6);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 3, initial_chunk: 4, ..Default::default() };
        let serial = coarse_sweep(&g, &sims, cfg);
        let par = parallel_coarse_sweep(&g, &sims, cfg, 1);
        assert_eq!(serial.levels(), par.levels());
    }

    #[test]
    fn dendrogram_cluster_accounting_is_exact() {
        let g = gnm(40, 170, WeightMode::Uniform { lo: 0.3, hi: 1.6 }, 2);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 4, initial_chunk: 16, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(4).unwrap().min_entries_per_thread(1);
        let r = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        // edge_count - merges == clusters at the last level.
        let last = r.levels().last().expect("at least one level");
        assert_eq!(r.dendrogram().final_cluster_count(), last.clusters);
    }
}

#[cfg(test)]
mod processor_equivalence_tests {
    use super::*;
    use linkclust_core::coarse::SerialChunkProcessor;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};

    #[test]
    fn processor_matches_serial_on_first_chunk() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 0);
        let sims = compute_similarities(&g).into_sorted();
        let slot: Vec<u32> = (0..g.edge_count() as u32).collect();
        // take a few entries from the front and from the middle as the
        // chunk
        let mid = sims.len() / 2;
        for chunk in [0..3usize, 0..5, 0..8, 0..12, 0..20, mid..mid + 9, mid + 3..mid + 23] {
            let mut c_serial = ClusterArray::new(g.edge_count());
            SerialChunkProcessor.process_entries(&g, &slot, &sims, chunk.clone(), &mut c_serial);
            let mut c_par = ClusterArray::new(g.edge_count());
            let mut proc = ParallelChunkProcessor::new(2).unwrap().min_entries_per_thread(1);
            proc.process_entries(&g, &slot, &sims, chunk.clone(), &mut c_par);
            let take = format!("{chunk:?}");
            assert_eq!(c_serial.assignments(), c_par.assignments(), "take={take}");
            assert_eq!(c_serial.cluster_count(), c_par.cluster_count(), "take={take}");
            assert_eq!(c_par.cluster_count(), c_par.count_roots(), "live counter must stay exact");
        }
    }
}

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
//! Chunks run as tasks on a persistent [`WorkerPool`], and the big
//! per-chunk buffers are owned by the processor and **resynced**, not
//! reallocated:
//!
//! * the base snapshot and the `T` per-thread scratch copies of `C` are
//!   refreshed in place via [`ClusterArray::sync_from`]
//!   (`copy_from_slice`), replacing the `T + 1` O(|E|) clones the old
//!   implementation paid per chunk;
//! * the entry-weight vector is a reused buffer;
//! * a chunk is an index range into the run's similarity list, which the
//!   workers share through the `Arc` the processor is wired to
//!   ([`shared_entries`](ParallelChunkProcessor::shared_entries)), so no
//!   entry is copied.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use linkclust_core::cluster_array::{partition_diff, MergeOutcome};
use linkclust_core::coarse::{
    coarse_sweep_with, ChunkProcessor, CoarseConfig, CoarseResult, SerialChunkProcessor,
};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::{ClusterArray, ConfigError, PairSimilarities};
use linkclust_graph::{EdgeIndex, GraphView};

use crate::merge::merge_cluster_arrays;
use crate::pool::{balanced_partition_with_loads, Task, WorkerPool};

fn lock_scratch(slot: &Mutex<ClusterArray>) -> std::sync::MutexGuard<'_, ClusterArray> {
    // A poisoned slot is recoverable: the next chunk resyncs it from the
    // committed array before reading it.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A [`ChunkProcessor`] that fans each chunk out over `threads` worker
/// threads (per-thread copies of `C`, hierarchical combination).
///
/// The workers read the similarity list the processor is wired to with
/// [`shared_entries`](Self::shared_entries); chunks of any other list —
/// and chunks too small to split — run serially, counted under
/// [`Counter::SerialFallbackChunks`].
///
/// The processor owns its execution context and reuses it across chunks:
/// a persistent [`WorkerPool`] (wired by the facade via
/// [`with_pool`](Self::with_pool), or created lazily on the first
/// parallel chunk), per-thread scratch arrays resynced in place, and a
/// reused weight buffer — see the module docs for the full allocation
/// discipline.
#[derive(Debug)]
pub struct ParallelChunkProcessor {
    threads: usize,
    min_entries_per_thread: usize,
    telemetry: Telemetry,
    pool: Option<Arc<WorkerPool>>,
    shared: Option<Arc<PairSimilarities>>,
    slot_of_edge: Option<Arc<Vec<u32>>>,
    base: Arc<ClusterArray>,
    scratch: Vec<Arc<Mutex<ClusterArray>>>,
    weights: Vec<u64>,
}

impl Clone for ParallelChunkProcessor {
    /// Clones the configuration and the shared read-only context (pool,
    /// similarity list) but gives the clone fresh scratch state, so two
    /// clones can process chunks concurrently.
    fn clone(&self) -> Self {
        ParallelChunkProcessor {
            threads: self.threads,
            min_entries_per_thread: self.min_entries_per_thread,
            telemetry: self.telemetry.clone(),
            pool: self.pool.clone(),
            shared: self.shared.clone(),
            slot_of_edge: self.slot_of_edge.clone(),
            base: Arc::new(ClusterArray::new(0)),
            scratch: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl ParallelChunkProcessor {
    /// Creates a processor with `threads` worker threads; rejects
    /// `threads == 0` with [`ConfigError::ZeroThreads`].
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(ParallelChunkProcessor {
            threads,
            min_entries_per_thread: 8,
            telemetry: Telemetry::disabled(),
            pool: None,
            shared: None,
            slot_of_edge: None,
            base: Arc::new(ClusterArray::new(0)),
            scratch: Vec::new(),
            weights: Vec::new(),
        })
    }

    /// Chunks with fewer than `n` entries per thread fall back to serial
    /// processing (task dispatch overhead dominates tiny chunks). Default
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
        self.telemetry = telemetry;
        self
    }

    /// Runs chunk tasks on `pool` instead of lazily creating a private
    /// one — how the facade makes one persistent pool serve init and
    /// every chunk of the sweep. Overrides the thread count given to
    /// [`new`](Self::new) with the pool's.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.threads = pool.threads();
        self.pool = Some(pool);
        self
    }

    /// Wires the similarity list the sweep runs over. The worker tasks
    /// share it through this `Arc`, reading each chunk's entries and
    /// common neighbors in place; a sweep over any other list runs every
    /// chunk serially.
    #[must_use]
    pub fn shared_entries(mut self, sims: Arc<PairSimilarities>) -> Self {
        self.shared = Some(sims);
        self
    }

    fn pool_ctx(&mut self) -> Arc<WorkerPool> {
        if let Some(pool) = &self.pool {
            return Arc::clone(pool);
        }
        let pool = Arc::new(WorkerPool::new(self.threads).with_telemetry(self.telemetry.clone()));
        self.pool = Some(Arc::clone(&pool));
        pool
    }

    /// The `Arc`-shared edge→slot permutation, re-copied only when its
    /// contents change (once per sweep).
    fn slot_ctx(&mut self, slot_of_edge: &[u32]) -> Arc<Vec<u32>> {
        if let Some(cached) = &self.slot_of_edge {
            if cached.as_slice() == slot_of_edge {
                return Arc::clone(cached);
            }
        }
        let fresh = Arc::new(slot_of_edge.to_vec());
        self.slot_of_edge = Some(Arc::clone(&fresh));
        fresh
    }

    /// Refreshes the shared base snapshot from the committed array,
    /// stealing the previous snapshot's allocation when no task still
    /// holds it (the steady state).
    fn base_ctx(&mut self, c: &ClusterArray) -> Arc<ClusterArray> {
        let mut base = match Arc::get_mut(&mut self.base) {
            Some(prev) => std::mem::replace(prev, ClusterArray::new(0)),
            None => ClusterArray::new(0),
        };
        base.sync_from(c);
        self.base = Arc::new(base);
        Arc::clone(&self.base)
    }
}

impl ChunkProcessor for ParallelChunkProcessor {
    fn process_entries(
        &mut self,
        index: &Arc<EdgeIndex>,
        slot_of_edge: &[u32],
        sorted: &PairSimilarities,
        chunk: Range<usize>,
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome> {
        let telemetry = self.telemetry.clone();
        telemetry.add(Counter::ChunksProcessed, 1);
        let split = self.threads > 1 && chunk.len() >= self.threads * self.min_entries_per_thread;
        let Some(shared) = self.shared.clone().filter(|s| split && std::ptr::eq(&**s, sorted))
        else {
            telemetry.add(Counter::SerialFallbackChunks, 1);
            let span = telemetry.span(Phase::ChunkProcess);
            let out = SerialChunkProcessor.process_entries(index, slot_of_edge, sorted, chunk, c);
            span.finish();
            return out;
        };
        self.weights.clear();
        self.weights.extend(sorted.entries()[chunk.clone()].iter().map(|e| e.pair_count() as u64));
        let (ranges, loads) = balanced_partition_with_loads(&self.weights, self.threads);
        if telemetry.is_enabled() {
            for (thread, &load) in loads.iter().enumerate() {
                telemetry.thread_items(thread, load);
            }
        }

        let pool = self.pool_ctx();
        let slot = self.slot_ctx(slot_of_edge);
        let base = self.base_ctx(c);
        let k = ranges.len();
        while self.scratch.len() < k {
            self.scratch.push(Arc::new(Mutex::new(ClusterArray::new(0))));
        }

        // Step 1: every thread merges its entry range on its own scratch
        // copy, resynced in place from the base snapshot.
        let span = telemetry.span(Phase::ChunkProcess);
        let tasks: Vec<Task<()>> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let index = Arc::clone(index);
                let slot = Arc::clone(&slot);
                let base = Arc::clone(&base);
                let shared = Arc::clone(&shared);
                let scratch = Arc::clone(&self.scratch[i]);
                let range = chunk.start + r.start..chunk.start + r.end;
                Box::new(move || {
                    let mut local = lock_scratch(&scratch);
                    local.sync_from(&base);
                    SerialChunkProcessor.process_entries(&index, &slot, &shared, range, &mut local);
                }) as Task<()>
            })
            .collect();
        let _: Vec<()> = pool.run_tasks(tasks);
        span.finish();

        // Step 2: hierarchical pairwise combination, in place on the
        // scratch slots (disjoint pairs per round, so the locks never
        // contend), finishing with a short serial fold.
        let span = telemetry.span(Phase::ChunkCombine);
        telemetry.add(Counter::ArrayCombines, (k - 1) as u64);
        let mut alive: Vec<usize> = (0..k).collect();
        while alive.len() > 3 {
            let carry = if alive.len() % 2 == 1 { alive.pop() } else { None };
            let mut tasks: Vec<Task<usize>> = Vec::with_capacity(alive.len() / 2);
            let mut it = alive.into_iter();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                let sa = Arc::clone(&self.scratch[a]);
                let sb = Arc::clone(&self.scratch[b]);
                tasks.push(Box::new(move || {
                    let mut target = lock_scratch(&sa);
                    let other = lock_scratch(&sb);
                    merge_cluster_arrays(&mut target, &other);
                    a
                }));
            }
            alive = pool.run_tasks(tasks);
            alive.extend(carry);
        }
        let mut merged = lock_scratch(&self.scratch[alive[0]]);
        for &j in &alive[1..] {
            let other = lock_scratch(&self.scratch[j]);
            merge_cluster_arrays(&mut merged, &other);
        }
        span.finish();

        // Debug builds verify the combined array is still a valid
        // descending-chain partition and only merged (never split) the
        // clusters of the pre-chunk state.
        linkclust_core::invariants::debug_check_cluster_array(&merged);
        linkclust_core::invariants::debug_check_refinement(&base, &merged);

        let outcomes = partition_diff(&base, &merged);
        c.sync_from(&merged);
        outcomes
    }
}

/// Runs the coarse-grained sweep with chunks processed by `threads`
/// worker threads. Produces the same partition trajectory (levels,
/// cluster counts, epoch decisions) as the serial
/// [`coarse_sweep`](linkclust_core::coarse::coarse_sweep).
///
/// Clones the similarity list once so the chunk workers can share it;
/// use [`parallel_coarse_sweep_shared`] to avoid that copy when you
/// already hold the list in an `Arc`.
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
pub fn parallel_coarse_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
    threads: usize,
) -> CoarseResult {
    parallel_coarse_sweep_shared(g, &Arc::new(sorted.clone()), config, threads)
}

/// [`parallel_coarse_sweep`] over an `Arc`-shared similarity list: the
/// chunk workers read the entries straight from `sorted`.
///
/// # Panics
///
/// Panics if `threads == 0`, or under the same conditions as the serial
/// coarse sweep (unsorted input, degenerate config).
#[must_use]
pub fn parallel_coarse_sweep_shared<G: GraphView + ?Sized>(
    g: &G,
    sorted: &Arc<PairSimilarities>,
    config: CoarseConfig,
    threads: usize,
) -> CoarseResult {
    let mut processor = ParallelChunkProcessor::new(threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .shared_entries(Arc::clone(sorted));
    coarse_sweep_with(g, sorted, config, &mut processor)
}

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
            let sims = Arc::new(compute_similarities(&g).into_sorted());
            let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
            let serial = coarse_sweep(&g, &sims, cfg);
            for threads in [2, 4] {
                // Force parallel processing even for small chunks so the
                // combination path is exercised.
                let mut proc = ParallelChunkProcessor::new(threads)
                    .unwrap()
                    .min_entries_per_thread(1)
                    .shared_entries(Arc::clone(&sims));
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
    fn unwired_list_runs_every_chunk_serially() {
        use linkclust_core::telemetry::RunRecorder;

        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 8);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let count_fallbacks = |proc: ParallelChunkProcessor| {
            let recorder = Arc::new(RunRecorder::new());
            let mut proc =
                proc.min_entries_per_thread(1).telemetry(Telemetry::new(
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
        let (wired, wired_fallbacks, wired_chunks) = count_fallbacks(
            ParallelChunkProcessor::new(3).unwrap().shared_entries(Arc::clone(&sims)),
        );
        // A copy of the list is not the wired list.
        let other = Arc::new((*sims).clone());
        let (unwired, fallbacks, chunks) =
            count_fallbacks(ParallelChunkProcessor::new(3).unwrap().shared_entries(other));
        // Only chunks too small to split fall back on the wired list.
        assert!(wired_fallbacks < wired_chunks);
        assert_eq!(fallbacks, chunks);
        assert_eq!(wired.levels(), unwired.levels());
        assert_eq!(
            canon(&wired.output().edge_assignments()),
            canon(&unwired.output().edge_assignments())
        );
    }

    #[test]
    fn processor_reuse_across_graphs_resyncs_context() {
        // A single processor must stay correct when reused across runs
        // over different graphs (the slot cache and scratch arrays are
        // per-chunk context that has to resync).
        let g1 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
        let g2 = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 2);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(2).unwrap().min_entries_per_thread(1);
        for g in [&g1, &g2, &g1] {
            let sims = Arc::new(compute_similarities(g).into_sorted());
            proc = proc.shared_entries(Arc::clone(&sims));
            let serial = coarse_sweep(g, &sims, cfg);
            let par = coarse_sweep_with(g, &sims, cfg, &mut proc);
            assert_eq!(serial.levels(), par.levels());
        }
    }

    #[test]
    fn power_law_graph_parallel_partition_is_correct() {
        let g = barabasi_albert(120, 5, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 4);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = CoarseConfig { phi: 1, initial_chunk: 32, ..Default::default() };
        // phi = 1 processes everything: final partition must equal the
        // fine-grained single-linkage partition.
        let fine = linkclust_core::sweep::sweep(&g, &sims, Default::default());
        let mut proc = ParallelChunkProcessor::new(3)
            .unwrap()
            .min_entries_per_thread(1)
            .shared_entries(Arc::clone(&sims));
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
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = CoarseConfig { phi: 4, initial_chunk: 16, ..Default::default() };
        let mut proc = ParallelChunkProcessor::new(4)
            .unwrap()
            .min_entries_per_thread(1)
            .shared_entries(Arc::clone(&sims));
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
        let index = Arc::new(EdgeIndex::for_graph(&g));
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let slot: Vec<u32> = (0..g.edge_count() as u32).collect();
        // take a few entries from the front and from the middle as the
        // chunk
        let mid = sims.len() / 2;
        for chunk in [0..3usize, 0..5, 0..8, 0..12, 0..20, mid..mid + 9, mid + 3..mid + 23] {
            let mut c_serial = ClusterArray::new(g.edge_count());
            SerialChunkProcessor.process_entries(
                &index,
                &slot,
                &sims,
                chunk.clone(),
                &mut c_serial,
            );
            let mut c_par = ClusterArray::new(g.edge_count());
            let mut proc = ParallelChunkProcessor::new(2)
                .unwrap()
                .min_entries_per_thread(1)
                .shared_entries(Arc::clone(&sims));
            proc.process_entries(&index, &slot, &sims, chunk.clone(), &mut c_par);
            let take = format!("{chunk:?}");
            assert_eq!(c_serial.assignments(), c_par.assignments(), "take={take}");
            assert_eq!(c_serial.cluster_count(), c_par.cluster_count(), "take={take}");
            assert_eq!(c_par.cluster_count(), c_par.count_roots(), "live counter must stay exact");
        }
    }
}

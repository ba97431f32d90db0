//! The clustering facade: one builder and one pipeline at every thread
//! count.
//!
//! A run is Phase I ([`compute_similarities_on`], which runs the serial
//! passes on a one-thread pool and the owner-sharded passes of
//! [`crate::init`] on more), the sort of `L`, and then either the exact
//! fine-grained sweep — one Kruskal pass, [`kruskal_sweep_with`], which
//! gives Algorithm 2's dendrogram bit for bit — or the coarse sweep of
//! §V, whose chunks the §VI-B [`ParallelChunkProcessor`] applies (a
//! one-thread processor runs each chunk serially). The facade itself
//! never branches on the thread count.
//!
//! Every method borrows the graph: the parallel phases run on scoped
//! threads that read it in place, so `G` needs only
//! `GraphView + Sync` — no `Clone`, no `'static`, no copy.

use std::path::PathBuf;
use std::sync::Arc;

use linkclust_core::coarse::{coarse_sweep_instrumented, CoarseConfig, CoarseResult};
use linkclust_core::sweep::{kruskal_sweep_with, EdgeOrder, SweepConfig, SweepOutput};
use linkclust_core::telemetry::{
    Counter, Recorder, RunRecorder, RunReport, Telemetry, TelemetrySink, TraceCollector,
};
use linkclust_core::{ConfigError, Dendrogram, PairSimilarities};
use linkclust_graph::GraphView;

use crate::init::compute_similarities_on;
use crate::pool::WorkerPool;
use crate::sort::parallel_into_sorted_pooled;
use crate::sweep::ParallelChunkProcessor;

/// End-to-end link clustering with a configurable thread count.
///
/// This is the facade the `linkclust` crate re-exports at its root. Every
/// thread count runs the same pipeline: with the default single thread
/// no thread is created, and raising [`threads`](Self::threads) fans
/// Phase I and the coarse chunks out while producing the same
/// dendrogram.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_parallel::LinkClustering;
///
/// let g = gnm(40, 160, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
/// let serial = LinkClustering::new().run(&g)?;
/// let parallel = LinkClustering::new().threads(4).run(&g)?;
/// assert_eq!(serial.edge_assignments(), parallel.edge_assignments());
/// # Ok::<(), linkclust_core::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LinkClustering {
    threads: usize,
    edge_order: Option<EdgeOrder>,
    min_similarity: Option<f64>,
    sink: TelemetrySink,
    tracer: Option<Arc<TraceCollector>>,
    trace_path: Option<PathBuf>,
}

impl Default for LinkClustering {
    fn default() -> Self {
        LinkClustering {
            threads: 1,
            edge_order: None,
            min_similarity: None,
            sink: TelemetrySink::Off,
            tracer: None,
            trace_path: None,
        }
    }
}

impl LinkClustering {
    /// Creates the default pipeline: one thread, insertion edge order,
    /// no similarity threshold, no telemetry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count. `1` (the default) runs every phase
    /// on the calling thread; `0` is rejected by the run methods with
    /// [`ConfigError::ZeroThreads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the edge-to-slot order of the sweep explicitly. An explicit
    /// setting takes priority over a default-valued
    /// [`CoarseConfig::edge_order`] in [`run_coarse`](Self::run_coarse)
    /// and conflicts with a non-default one.
    #[must_use]
    pub fn edge_order(mut self, order: EdgeOrder) -> Self {
        self.edge_order = Some(order);
        self
    }

    /// Stops sweeping below this similarity (cuts the dendrogram early).
    /// Only [`run`](Self::run) applies it: [`run_coarse`](Self::run_coarse)
    /// stops by its own rule, at φ clusters. The run methods reject a NaN
    /// `theta` with [`ConfigError::InvalidThreshold`]; `f64::INFINITY`
    /// merges nothing and `f64::NEG_INFINITY` everything.
    #[must_use]
    pub fn min_similarity(mut self, theta: f64) -> Self {
        self.min_similarity = Some(theta);
        self
    }

    /// Collect phase timings and counters into a [`RunReport`] attached
    /// to the result. Disabled by default — a disabled run skips all
    /// clock reads.
    #[must_use]
    pub fn stats(mut self, enabled: bool) -> Self {
        self.sink = if enabled { TelemetrySink::Stats } else { TelemetrySink::Off };
        self
    }

    /// Streams telemetry events into a caller-supplied [`Recorder`]
    /// instead of the built-in aggregation (the result then carries no
    /// report). Overrides [`stats`](Self::stats).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.sink = TelemetrySink::Custom(recorder);
        self
    }

    /// Records a per-thread event trace of the run and writes it to
    /// `path` as Chrome trace-event JSON (open it in
    /// <https://ui.perfetto.dev> or `chrome://tracing`). Off by default;
    /// the traced run records phase spans and pool-task executions into
    /// lock-free per-thread ring buffers
    /// ([`TraceCollector`]), so the overhead is a
    /// clock read and three word-stores per event. If the write fails
    /// the run still completes and the run method returns
    /// [`ConfigError::TraceWrite`].
    #[must_use]
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Records the run's event trace into a caller-owned
    /// [`TraceCollector`] instead of (or in addition to) a
    /// [`trace`](Self::trace) file — drain it yourself with
    /// [`TraceCollector::events`] or
    /// [`TraceCollector::to_chrome_json`].
    #[must_use]
    pub fn tracer(mut self, collector: Arc<TraceCollector>) -> Self {
        self.tracer = Some(collector);
        self
    }

    /// The checks every run method makes before doing any work.
    fn check_config(&self) -> Result<(), ConfigError> {
        match (self.threads, self.min_similarity) {
            (0, _) => Err(ConfigError::ZeroThreads),
            (_, Some(theta)) if theta.is_nan() => Err(ConfigError::InvalidThreshold(theta)),
            _ => Ok(()),
        }
    }

    /// The run's trace collector: the caller-supplied one, a fresh one
    /// when only a [`trace`](Self::trace) path was requested, `None`
    /// when tracing is off.
    fn active_collector(&self) -> Option<Arc<TraceCollector>> {
        match (&self.tracer, &self.trace_path) {
            (Some(c), _) => Some(Arc::clone(c)),
            (None, Some(_)) => Some(Arc::new(TraceCollector::new())),
            (None, None) => None,
        }
    }

    /// Folds the collector's drop count into the telemetry (so reports
    /// carry `trace_events_dropped`) and writes the Chrome trace file if
    /// a path was configured.
    fn finish_trace(
        &self,
        collector: Option<&Arc<TraceCollector>>,
        telemetry: &Telemetry,
    ) -> Result<(), ConfigError> {
        let Some(collector) = collector else { return Ok(()) };
        let dropped = collector.dropped();
        if dropped > 0 {
            telemetry.add(Counter::TraceEventsDropped, dropped);
        }
        let Some(path) = &self.trace_path else { return Ok(()) };
        std::fs::write(path, collector.to_chrome_json()).map_err(|e| ConfigError::TraceWrite {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            edge_order: self.edge_order.unwrap_or_default(),
            min_similarity: self.min_similarity,
        }
    }

    /// The run's telemetry handle (with the tracer attached when tracing)
    /// and, for `stats(true)`, the recorder whose report the result
    /// carries.
    fn run_telemetry(
        &self,
        collector: Option<&Arc<TraceCollector>>,
    ) -> (Telemetry, Option<Arc<RunRecorder>>) {
        let (telemetry, recorder) = self.sink.build();
        match collector {
            Some(c) => (telemetry.with_tracer(Arc::clone(c)), recorder),
            None => (telemetry, recorder),
        }
    }

    /// Phase I on the configured threads plus the serial sort: the list
    /// `L`, ready to sweep. `threads(1)` runs the serial passes. Accepts
    /// any [`GraphView`] backend (adjacency-list or CSR) and yields
    /// bit-identical similarities from either, at every thread count.
    pub fn similarities<G>(&self, g: &G) -> Result<PairSimilarities, ConfigError>
    where
        G: GraphView + Sync + ?Sized,
    {
        self.check_config()?;
        let collector = self.active_collector();
        let (telemetry, _) = self.run_telemetry(collector.as_ref());
        let pool = WorkerPool::new(self.threads).with_telemetry(telemetry.clone());
        let sims = Self::sorted_similarities(&pool, g, &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        Ok(sims)
    }

    /// Phase I and the sort of `L` under the run's telemetry.
    fn sorted_similarities<G>(pool: &WorkerPool, g: &G, telemetry: &Telemetry) -> PairSimilarities
    where
        G: GraphView + Sync + ?Sized,
    {
        parallel_into_sorted_pooled(pool, compute_similarities_on(pool, g, telemetry), telemetry)
    }

    /// Runs both phases on `g`: initialization on the configured
    /// threads, the serial sort, and the fine-grained sweep, one Kruskal
    /// pass ([`kruskal_sweep_with`]) that gives Algorithm 2's dendrogram
    /// bit for bit at every thread count. Generic over the graph backend;
    /// adjacency-list and CSR inputs produce bit-identical dendrograms.
    ///
    /// The sweep stops once the merge forest is complete: at `m − c`
    /// merges, where `c` counts the components of `g` that have an edge.
    /// No later entry of `L` can join two clusters, so the dendrogram is
    /// unchanged; on dense graphs most of `L` is never read. The report's
    /// `PairsProcessed` counts the pairs swept up to that point.
    pub fn run<G>(&self, g: &G) -> Result<ClusteringResult, ConfigError>
    where
        G: GraphView + Sync + ?Sized,
    {
        self.check_config()?;
        let collector = self.active_collector();
        let (telemetry, recorder) = self.run_telemetry(collector.as_ref());
        let pool = WorkerPool::new(self.threads).with_telemetry(telemetry.clone());
        let sims = Self::sorted_similarities(&pool, g, &telemetry);
        let output = kruskal_sweep_with(g, &sims, self.sweep_config(), &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        Ok(ClusteringResult { similarities: sims, output, report: recorder.map(|r| r.report()) })
    }

    /// Runs Phase I and the **coarse-grained** Phase II (§V), with
    /// chunks fanned out over the configured threads by a
    /// [`ParallelChunkProcessor`] (§VI-B); one thread processes each
    /// chunk serially.
    ///
    /// Validates `config` first and reconciles its
    /// [`edge_order`](CoarseConfig::edge_order) with the facade's
    /// ([`CoarseConfig::reconcile_edge_order`]): an order set through
    /// [`edge_order`](Self::edge_order) wins over a default-valued
    /// config, and a **conflicting** non-default config value is rejected
    /// with [`ConfigError::EdgeOrderConflict`] instead of silently
    /// overwritten.
    pub fn run_coarse<G>(&self, g: &G, config: CoarseConfig) -> Result<CoarseResult, ConfigError>
    where
        G: GraphView + Sync + ?Sized,
    {
        self.check_config()?;
        let config = config.reconcile_edge_order(self.edge_order)?;
        let collector = self.active_collector();
        let (telemetry, recorder) = self.run_telemetry(collector.as_ref());
        let pool = WorkerPool::new(self.threads).with_telemetry(telemetry.clone());
        let sims = Self::sorted_similarities(&pool, g, &telemetry);
        let mut processor = ParallelChunkProcessor::new(self.threads)?.telemetry(telemetry.clone());
        let result = coarse_sweep_instrumented(g, &sims, config, &mut processor, &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        Ok(match recorder {
            Some(r) => result.with_report(r.report()),
            None => result,
        })
    }
}

/// The outcome of [`LinkClustering::run`]: the sorted similarity list,
/// the sweep output, and (for stats-collecting runs) the telemetry
/// report.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusteringResult {
    similarities: PairSimilarities,
    output: SweepOutput,
    report: Option<RunReport>,
}

impl ClusteringResult {
    /// The sorted pair-similarity list `L` (exposed so callers can reuse
    /// the expensive Phase-I output — C-INTERMEDIATE).
    #[must_use]
    pub fn similarities(&self) -> &PairSimilarities {
        &self.similarities
    }

    /// The sweep output (dendrogram + slot permutation).
    #[must_use]
    pub fn output(&self) -> &SweepOutput {
        &self.output
    }

    /// The telemetry report, when the run collected stats
    /// ([`LinkClustering::stats`]); `None` otherwise.
    #[must_use]
    pub fn report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// The dendrogram.
    #[must_use]
    pub fn dendrogram(&self) -> &Dendrogram {
        self.output.dendrogram()
    }

    /// Consumes the result, returning the dendrogram.
    #[must_use]
    pub fn into_dendrogram(self) -> Dendrogram {
        self.output.into_dendrogram()
    }

    /// Final cluster label per edge id.
    #[must_use]
    pub fn edge_assignments(&self) -> Vec<u32> {
        self.output.edge_assignments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::reference::canonical_labels;
    use linkclust_core::telemetry::{Counter, Gauge, Phase};
    use linkclust_graph::generate::{gnm, WeightMode};

    fn canon(labels: &[u32]) -> Vec<usize> {
        canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
    }

    /// Algorithm 2's sweep, the oracle of every exact engine.
    fn algorithm_2(g: &linkclust_graph::WeightedGraph) -> linkclust_core::sweep::SweepOutput {
        let sims = linkclust_core::init::compute_similarities(g).into_sorted();
        linkclust_core::sweep::sweep(g, &sims, SweepConfig::default())
    }

    #[test]
    fn many_threads_match_serial_partition() {
        for seed in 0..3 {
            let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = algorithm_2(&g);
            for threads in [1, 2, 4] {
                let par = LinkClustering::new().threads(threads).run(&g).unwrap();
                assert_eq!(
                    canon(&serial.edge_assignments()),
                    canon(&par.edge_assignments()),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn zero_threads_is_rejected_not_panicking() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let facade = LinkClustering::new().threads(0);
        assert_eq!(facade.run(&g).unwrap_err(), ConfigError::ZeroThreads);
        assert_eq!(
            facade.run_coarse(&g, CoarseConfig::default()).unwrap_err(),
            ConfigError::ZeroThreads
        );
        assert_eq!(facade.similarities(&g).unwrap_err(), ConfigError::ZeroThreads);
    }

    #[test]
    fn coarse_edge_order_conflict_is_rejected() {
        let g = gnm(15, 40, WeightMode::Unit, 1);
        let facade = LinkClustering::new().threads(2).edge_order(EdgeOrder::Shuffled { seed: 1 });
        let cfg =
            CoarseConfig { edge_order: EdgeOrder::Shuffled { seed: 2 }, ..Default::default() };
        assert_eq!(facade.run_coarse(&g, cfg).unwrap_err(), ConfigError::EdgeOrderConflict);
    }

    #[test]
    fn parallel_coarse_matches_serial_levels() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let serial = LinkClustering::new().run_coarse(&g, cfg).unwrap();
        let par = LinkClustering::new().threads(3).run_coarse(&g, cfg).unwrap();
        let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
        let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
        assert_eq!(sl, pl);
    }

    #[test]
    fn parallel_stats_report_covers_every_phase() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 2);
        let r = LinkClustering::new().threads(4).stats(true).run(&g).unwrap();
        let report = r.report().expect("stats(true) attaches a report");
        for phase in [Phase::InitPass1, Phase::InitPass2, Phase::InitShardFold, Phase::InitPass3] {
            assert_eq!(report.phase_calls(phase), 1, "{phase:?}");
        }
        assert_eq!(report.phase_calls(Phase::Sort), 1);
        assert_eq!(report.phase_calls(Phase::Sweep), 1);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(
            report.counter(Counter::PairsK1),
            linkclust_graph::stats::count_common_neighbor_pairs(&g)
        );
        // Every (pair, common neighbor) record crossed the shard
        // exchange exactly once, so the routed volume is K₂.
        assert_eq!(
            report.counter(Counter::ShardRecords),
            linkclust_graph::stats::count_incident_edge_pairs(&g)
        );
        // Pass 2 reported a folded record count for every owner thread,
        // and every non-empty owner table sampled its occupancy.
        assert!(report.thread_items().len() >= 4);
        assert!(report.gauge(Gauge::TableOccupancy).count >= 1);
    }

    #[test]
    fn traced_run_produces_consistent_timeline_and_file() {
        use linkclust_core::json;
        use linkclust_core::telemetry::{trace, TraceCollector, TraceLabel};
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 9);
        // Caller-owned collector, parallel fine run.
        let collector = Arc::new(TraceCollector::new());
        let r = LinkClustering::new().threads(4).tracer(Arc::clone(&collector)).run(&g).unwrap();
        assert_eq!(canon(&algorithm_2(&g).edge_assignments()), canon(&r.edge_assignments()));
        assert!(r.report().is_none(), "tracing alone attaches no report");
        let events = collector.events();
        trace::check_events(&events).unwrap();
        assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::InitPass1)));
        assert!(events.iter().any(|e| matches!(e.label, TraceLabel::PoolTask { .. })));
        json::parse(&collector.to_chrome_json()).unwrap();
        // .trace(path): the file lands on disk and is well-formed.
        let dir = std::env::temp_dir().join("linkclust-facade-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let _ = LinkClustering::new().threads(2).trace(&path).run_coarse(&g, cfg).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap();
        assert!(text.contains("\"ph\":\"X\""));
        // threads(1) traces the same pipeline.
        let _ = LinkClustering::new().trace(&path).run(&g).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap();
        assert!(text.contains("\"name\":\"sweep\""));
        std::fs::remove_dir_all(&dir).ok();
        // Tracing plus stats: the report exists, and the deep rings
        // dropped no event.
        let collector = Arc::new(TraceCollector::new());
        let r = LinkClustering::new().stats(true).tracer(collector).run(&g).unwrap();
        let report = r.report().expect("stats(true) attaches a report");
        assert_eq!(report.counter(Counter::TraceEventsDropped), 0);
    }

    #[test]
    fn trace_write_failure_is_reported_not_panicking() {
        let g = gnm(15, 40, WeightMode::Unit, 1);
        let err = LinkClustering::new()
            .threads(2)
            .trace("/nonexistent-dir-for-trace-test/trace.json")
            .run(&g)
            .unwrap_err();
        assert!(matches!(err, ConfigError::TraceWrite { .. }), "got {err:?}");
    }

    #[test]
    fn parallel_coarse_stats_count_chunks() {
        let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 4);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let r = LinkClustering::new().threads(4).stats(true).run_coarse(&g, cfg).unwrap();
        let report = r.report().expect("report attached");
        assert!(report.counter(Counter::ChunksProcessed) > 0);
        assert!(report.phase_calls(Phase::CoarseEpoch) > 0);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
    }
}

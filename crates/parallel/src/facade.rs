//! Unified serial/parallel clustering facade.
//!
//! One builder covers the whole repo: `threads(1)` (the default) runs
//! the exact serial code path of [`linkclust_core::LinkClustering`] —
//! bit-for-bit identical dendrograms — while `threads(n)` for `n > 1`
//! dispatches Phase I, the fine-grained sweep (the union-find engine of
//! [`crate::ufsweep`], which reproduces the serial dendrogram exactly),
//! and (for the coarse sweep) the chunk processing to the
//! multi-threaded implementations in this crate; the sort of `L` between
//! them stays serial. The paper's coarse chunk pipeline remains
//! available through [`run_coarse`](LinkClustering::run_coarse) as the
//! explicit approximate mode.

use std::path::PathBuf;
use std::sync::Arc;

use linkclust_core::coarse::{coarse_sweep_instrumented, CoarseConfig, CoarseResult};
use linkclust_core::sweep::{EdgeOrder, SweepConfig};
use linkclust_core::telemetry::{Counter, Recorder, Telemetry, TelemetrySink, TraceCollector};
use linkclust_core::{ClusteringResult, ConfigError, PairSimilarities};
use linkclust_graph::GraphView;

use crate::init::compute_similarities_pooled;
use crate::pool::WorkerPool;
use crate::sort::parallel_into_sorted_pooled;
use crate::sweep::ParallelChunkProcessor;
use crate::ufsweep::ufsweep_with;

/// End-to-end link clustering with a configurable thread count.
///
/// This is the facade the `linkclust` crate re-exports at its root. With
/// the default single thread every run takes exactly the serial code
/// path; raising [`threads`](Self::threads) switches Phase I, the
/// fine-grained sweep and the coarse chunk processor to their parallel
/// counterparts while producing the same dendrogram.
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

    /// Sets the worker thread count. `1` (the default) is the exact
    /// serial pipeline; `0` is rejected by the run methods with
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
    #[must_use]
    pub fn min_similarity(mut self, theta: f64) -> Self {
        self.min_similarity = Some(theta);
        self
    }

    /// Collect phase timings and counters into a
    /// [`RunReport`](linkclust_core::telemetry::RunReport) attached to
    /// the result. Disabled by default — a disabled run skips all clock
    /// reads.
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

    fn check_threads(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(())
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
        self.write_trace_file(Some(collector))
    }

    /// Writes the Chrome trace file if a path was configured (the
    /// drop-count accounting happens elsewhere — in the serial facade
    /// for `threads == 1` runs).
    fn write_trace_file(&self, collector: Option<&Arc<TraceCollector>>) -> Result<(), ConfigError> {
        let (Some(collector), Some(path)) = (collector, &self.trace_path) else { return Ok(()) };
        std::fs::write(path, collector.to_chrome_json()).map_err(|e| ConfigError::TraceWrite {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// The serial facade with this builder's settings (used for the
    /// exact `threads == 1` path). The collector is passed in because
    /// the parallel facade may have created one for a
    /// [`trace`](Self::trace) path.
    fn serial(&self, collector: Option<&Arc<TraceCollector>>) -> linkclust_core::LinkClustering {
        let mut serial = linkclust_core::LinkClustering::new();
        if let Some(order) = self.edge_order {
            serial = serial.edge_order(order);
        }
        if let Some(theta) = self.min_similarity {
            serial = serial.min_similarity(theta);
        }
        if let Some(c) = collector {
            serial = serial.tracer(Arc::clone(c));
        }
        match &self.sink {
            TelemetrySink::Off => serial,
            TelemetrySink::Stats => serial.stats(true),
            TelemetrySink::Custom(r) => serial.recorder(r.clone()),
        }
    }

    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            edge_order: self.edge_order.unwrap_or_default(),
            min_similarity: self.min_similarity,
        }
    }

    fn reconcile_coarse(&self, mut config: CoarseConfig) -> Result<CoarseConfig, ConfigError> {
        config.validate()?;
        if let Some(facade_order) = self.edge_order {
            if config.edge_order != EdgeOrder::default() && config.edge_order != facade_order {
                return Err(ConfigError::EdgeOrderConflict);
            }
            config.edge_order = facade_order;
        }
        Ok(config)
    }

    /// One persistent worker pool plus the `Arc`-shared graph for a run:
    /// every parallel phase (init passes, sweep, coarse chunks) submits
    /// tasks to this pool instead of spawning threads of its own.
    fn run_context<G>(&self, g: &G, telemetry: &Telemetry) -> (Arc<WorkerPool>, Arc<G>)
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        let pool = Arc::new(WorkerPool::new(self.threads).with_telemetry(telemetry.clone()));
        (pool, Arc::new(g.clone()))
    }

    /// Phase I on the configured threads plus the serial sort: the list
    /// `L`, ready to sweep. Accepts any [`GraphView`] backend
    /// (adjacency-list or CSR) and yields bit-identical similarities
    /// from either.
    pub fn similarities<G>(&self, g: &G) -> Result<PairSimilarities, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        self.check_threads()?;
        let collector = self.active_collector();
        let (telemetry, _) = self.sink.build();
        let telemetry = match &collector {
            Some(c) => telemetry.with_tracer(Arc::clone(c)),
            None => telemetry,
        };
        let (pool, g) = self.run_context(g, &telemetry);
        let sims = Self::sorted_similarities(&pool, &g, &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        Ok(sims)
    }

    fn sorted_similarities<G>(
        pool: &WorkerPool,
        g: &Arc<G>,
        telemetry: &Telemetry,
    ) -> PairSimilarities
    where
        G: GraphView + Send + Sync + 'static,
    {
        let sims = compute_similarities_pooled(pool, g, telemetry);
        parallel_into_sorted_pooled(pool, sims, telemetry)
    }

    /// Runs both phases on `g`: initialization and the fine-grained
    /// sweep on the configured threads, with the serial sort between
    /// them. One thread runs the serial pipeline; two or more run the
    /// sweep on the exact parallel union-find engine of
    /// [`crate::ufsweep`]. Generic over the graph backend; adjacency-list
    /// and CSR inputs — at every thread count — produce bit-identical
    /// dendrograms.
    pub fn run<G>(&self, g: &G) -> Result<ClusteringResult, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        self.check_threads()?;
        let collector = self.active_collector();
        if self.threads == 1 {
            let result = self.serial(collector.as_ref()).run(g);
            self.write_trace_file(collector.as_ref())?;
            return Ok(result);
        }
        let (telemetry, recorder) = self.sink.build();
        let telemetry = match &collector {
            Some(c) => telemetry.with_tracer(Arc::clone(c)),
            None => telemetry,
        };
        let (pool, g) = self.run_context(g, &telemetry);
        let sims = Arc::new(Self::sorted_similarities(&pool, &g, &telemetry));
        let output = ufsweep_with(&*g, &sims, self.sweep_config(), &pool, &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        // All worker clones are gone once the pool tasks rendezvoused;
        // the unwrap only clones if a tracer/recorder still holds one.
        let sims = Arc::try_unwrap(sims).unwrap_or_else(|shared| (*shared).clone());
        Ok(ClusteringResult::from_parts(sims, output, recorder.map(|r| r.report())))
    }

    /// Runs Phase I and the **coarse-grained** Phase II (§V), with
    /// chunks fanned out over the configured threads (§VI-B).
    ///
    /// Validates `config` first and reconciles its
    /// [`edge_order`](CoarseConfig::edge_order) with the facade's: an
    /// order set through [`edge_order`](Self::edge_order) wins over a
    /// default-valued config, and a **conflicting** non-default config
    /// value is rejected with [`ConfigError::EdgeOrderConflict`] instead
    /// of silently overwritten.
    pub fn run_coarse<G>(&self, g: &G, config: CoarseConfig) -> Result<CoarseResult, ConfigError>
    where
        G: GraphView + Clone + Send + Sync + 'static,
    {
        self.check_threads()?;
        let collector = self.active_collector();
        if self.threads == 1 {
            let result = self.serial(collector.as_ref()).run_coarse(g, config)?;
            self.write_trace_file(collector.as_ref())?;
            return Ok(result);
        }
        let config = self.reconcile_coarse(config)?;
        let (telemetry, recorder) = self.sink.build();
        let telemetry = match &collector {
            Some(c) => telemetry.with_tracer(Arc::clone(c)),
            None => telemetry,
        };
        let (pool, g) = self.run_context(g, &telemetry);
        let sims = Arc::new(Self::sorted_similarities(&pool, &g, &telemetry));
        // The processor shares the run's pool, graph, and similarity
        // list, so chunk fan-out reuses the warm workers and the workers
        // read each chunk straight from the list.
        let mut processor = ParallelChunkProcessor::new(self.threads)?
            .telemetry(telemetry.clone())
            .with_pool(pool)
            .shared_entries(Arc::clone(&sims));
        let result = coarse_sweep_instrumented(&*g, &sims, config, &mut processor, &telemetry);
        self.finish_trace(collector.as_ref(), &telemetry)?;
        Ok(match recorder {
            Some(r) => result.with_report(r.report()),
            None => result,
        })
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

    #[test]
    fn one_thread_equals_serial_exactly() {
        for seed in 0..3 {
            let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = linkclust_core::LinkClustering::new().run(&g);
            let unified = LinkClustering::new().run(&g).unwrap();
            assert_eq!(serial.edge_assignments(), unified.edge_assignments());
            assert_eq!(serial.dendrogram(), unified.dendrogram());
        }
    }

    #[test]
    fn many_threads_match_serial_partition() {
        for seed in 0..3 {
            let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = LinkClustering::new().run(&g).unwrap();
            for threads in [2, 4] {
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
        let serial = LinkClustering::new().run(&g).unwrap();
        assert_eq!(canon(&serial.edge_assignments()), canon(&r.edge_assignments()));
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
        // threads(1) traces through the serial path too.
        let _ = LinkClustering::new().trace(&path).run(&g).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap();
        assert!(text.contains("\"name\":\"sweep\""));
        std::fs::remove_dir_all(&dir).ok();
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

//! High-level serial facade: one call from graph to dendrogram.
//!
//! For the unified serial/parallel facade (with a `.threads(n)` builder)
//! see `linkclust_parallel::LinkClustering`, re-exported at the root of
//! the `linkclust` crate.

use std::sync::Arc;

use linkclust_graph::GraphView;

use crate::coarse::{coarse_sweep_instrumented, CoarseConfig, CoarseResult, SerialChunkProcessor};
use crate::dendrogram::Dendrogram;
use crate::error::ConfigError;
use crate::init::compute_similarities_with;
use crate::similarity::PairSimilarities;
use crate::sweep::{sweep_with, EdgeOrder, SweepConfig, SweepOutput};
use crate::telemetry::{
    Counter, Phase, Recorder, RunReport, Telemetry, TelemetrySink, TraceCollector,
};

/// End-to-end **serial** link clustering: Phase I (similarities) +
/// Phase II (sweep), with optional phase-level telemetry.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::LinkClustering;
///
/// let g = gnm(30, 90, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 1);
/// let result = LinkClustering::new().run(&g);
/// let cut = result.dendrogram().best_density_cut(&g).unwrap();
/// assert!(cut.cluster_count >= 1);
/// # assert!(cut.density >= 0.0);
/// ```
///
/// With telemetry:
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::telemetry::{Counter, Phase};
/// use linkclust_core::LinkClustering;
///
/// let g = gnm(30, 90, WeightMode::Unit, 2);
/// let result = LinkClustering::new().stats(true).run(&g);
/// let report = result.report().expect("stats(true) attaches a report");
/// assert_eq!(report.counter(Counter::MergesApplied), result.dendrogram().merge_count());
/// assert!(report.phase_calls(Phase::Sweep) == 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LinkClustering {
    edge_order: Option<EdgeOrder>,
    min_similarity: Option<f64>,
    sink: TelemetrySink,
    tracer: Option<Arc<TraceCollector>>,
}

impl LinkClustering {
    /// Creates the default pipeline (insertion edge order, no threshold,
    /// no telemetry).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the edge-to-slot order of the sweep explicitly. An explicit
    /// setting here takes priority over a default-valued
    /// [`CoarseConfig::edge_order`] in [`run_coarse`](Self::run_coarse),
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

    /// Collect phase timings and counters into a [`RunReport`] attached
    /// to the result (read it with [`ClusteringResult::report`]).
    /// Disabled by default — a disabled run skips all clock reads.
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

    /// Additionally records every phase span onto `collector`'s
    /// per-thread trace timeline (independent of [`stats`](Self::stats);
    /// export it afterwards with
    /// [`TraceCollector::to_chrome_json`]).
    #[must_use]
    pub fn tracer(mut self, collector: Arc<TraceCollector>) -> Self {
        self.tracer = Some(collector);
        self
    }

    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            edge_order: self.edge_order.unwrap_or_default(),
            min_similarity: self.min_similarity,
        }
    }

    /// Builds the run's telemetry handle, attaching the tracer if set.
    fn build_telemetry(&self) -> (Telemetry, Option<Arc<crate::telemetry::RunRecorder>>) {
        let (telemetry, recorder) = self.sink.build();
        match &self.tracer {
            Some(c) => (telemetry.with_tracer(Arc::clone(c)), recorder),
            None => (telemetry, recorder),
        }
    }

    /// Folds the tracer's drop count into the aggregate report just
    /// before the report is snapshotted.
    fn record_trace_drops(&self, telemetry: &Telemetry) {
        if let Some(c) = &self.tracer {
            let dropped = c.dropped();
            if dropped > 0 {
                telemetry.add(Counter::TraceEventsDropped, dropped);
            }
        }
    }

    /// Runs both phases on `g` — any [`GraphView`] backend
    /// (adjacency-list or CSR) yields bit-identical results.
    #[must_use]
    pub fn run<G: GraphView + ?Sized>(&self, g: &G) -> ClusteringResult {
        let (telemetry, recorder) = self.build_telemetry();
        let sims = compute_similarities_with(g, &telemetry);
        let sims = {
            let _span = telemetry.span(Phase::Sort);
            sims.into_sorted()
        };
        let output = sweep_with(g, &sims, self.sweep_config(), &telemetry);
        self.record_trace_drops(&telemetry);
        ClusteringResult { similarities: sims, output, report: recorder.map(|r| r.report()) }
    }

    /// Runs Phase I and the **coarse-grained** Phase II (§V).
    ///
    /// Validates `config` first and reconciles its
    /// [`edge_order`](CoarseConfig::edge_order) with the facade's: an
    /// edge order set through [`edge_order`](Self::edge_order) wins over
    /// a default-valued config, and a **conflicting** non-default config
    /// value is rejected with [`ConfigError::EdgeOrderConflict`] instead
    /// of silently overwritten.
    pub fn run_coarse<G: GraphView + ?Sized>(
        &self,
        g: &G,
        config: CoarseConfig,
    ) -> Result<CoarseResult, ConfigError> {
        let config = self.reconcile_coarse(config)?;
        let (telemetry, recorder) = self.build_telemetry();
        let sims = compute_similarities_with(g, &telemetry);
        let sims = {
            let _span = telemetry.span(Phase::Sort);
            sims.into_sorted()
        };
        let result =
            coarse_sweep_instrumented(g, &sims, config, &mut SerialChunkProcessor, &telemetry);
        self.record_trace_drops(&telemetry);
        Ok(match recorder {
            Some(r) => result.with_report(r.report()),
            None => result,
        })
    }

    pub(crate) fn reconcile_coarse(
        &self,
        mut config: CoarseConfig,
    ) -> Result<CoarseConfig, ConfigError> {
        config.validate()?;
        if let Some(facade_order) = self.edge_order {
            if config.edge_order != EdgeOrder::default() && config.edge_order != facade_order {
                return Err(ConfigError::EdgeOrderConflict);
            }
            config.edge_order = facade_order;
        }
        Ok(config)
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
    /// Assembles a result from its parts (used by the unified facade in
    /// `linkclust-parallel`; most callers get one from
    /// [`LinkClustering::run`]).
    #[must_use]
    pub fn from_parts(
        similarities: PairSimilarities,
        output: SweepOutput,
        report: Option<RunReport>,
    ) -> Self {
        ClusteringResult { similarities, output, report }
    }

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
    use crate::init::compute_similarities;
    use crate::sweep::sweep;
    use crate::telemetry::Counter;
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_graph::GraphBuilder;

    #[test]
    fn facade_matches_manual_composition() {
        let g = gnm(20, 60, WeightMode::Uniform { lo: 0.3, hi: 1.8 }, 2);
        let manual = {
            let sims = compute_similarities(&g).into_sorted();
            sweep(&g, &sims, SweepConfig::default()).edge_assignments()
        };
        let facade = LinkClustering::new().run(&g).edge_assignments();
        assert_eq!(manual, facade);
    }

    #[test]
    fn threshold_propagates() {
        let g = GraphBuilder::from_edges(
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
        .build();
        let high = LinkClustering::new().min_similarity(0.9).run(&g);
        let low = LinkClustering::new().run(&g);
        assert!(high.dendrogram().merge_count() < low.dendrogram().merge_count());
    }

    #[test]
    fn coarse_facade_runs() {
        let g = gnm(30, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 5);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let r = LinkClustering::new().run_coarse(&g, cfg).unwrap();
        assert!(r.dendrogram().merge_count() > 0);
    }

    #[test]
    fn coarse_facade_rejects_bad_config() {
        let g = gnm(10, 20, WeightMode::Unit, 0);
        let bad = CoarseConfig { gamma: 0.5, ..Default::default() };
        assert_eq!(LinkClustering::new().run_coarse(&g, bad), Err(ConfigError::InvalidGamma(0.5)));
    }

    #[test]
    fn edge_order_reconciliation() {
        let facade = LinkClustering::new().edge_order(EdgeOrder::Shuffled { seed: 7 });
        // Default-valued config: the facade's explicit order wins.
        let cfg = facade.reconcile_coarse(CoarseConfig::default()).unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Matching explicit orders: fine.
        let cfg = facade
            .reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 7 },
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 7 });
        // Conflicting explicit orders: rejected.
        assert_eq!(
            facade.reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 8 },
                ..Default::default()
            }),
            Err(ConfigError::EdgeOrderConflict)
        );
        // No facade order: the config's order is used untouched.
        let cfg = LinkClustering::new()
            .reconcile_coarse(CoarseConfig {
                edge_order: EdgeOrder::Shuffled { seed: 3 },
                ..Default::default()
            })
            .unwrap();
        assert_eq!(cfg.edge_order, EdgeOrder::Shuffled { seed: 3 });
    }

    #[test]
    fn similarities_are_exposed() {
        let g = gnm(15, 40, WeightMode::Unit, 0);
        let r = LinkClustering::new().run(&g);
        assert!(r.similarities().is_sorted());
        assert_eq!(
            r.similarities().len() as u64,
            linkclust_graph::stats::count_common_neighbor_pairs(&g)
        );
    }

    #[test]
    fn stats_off_by_default_and_on_when_asked() {
        let g = gnm(20, 60, WeightMode::Unit, 4);
        assert!(LinkClustering::new().run(&g).report().is_none());
        let r = LinkClustering::new().stats(true).run(&g);
        let report = r.report().expect("report attached");
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(
            report.counter(Counter::PairsK1),
            linkclust_graph::stats::count_common_neighbor_pairs(&g)
        );
        assert!(report.phase_calls(Phase::InitPass1) == 1);
        assert!(report.phase_calls(Phase::Sort) == 1);
    }

    #[test]
    fn custom_recorder_receives_events() {
        use crate::telemetry::RunRecorder;
        let g = gnm(20, 60, WeightMode::Unit, 4);
        let sink = Arc::new(RunRecorder::new());
        let r = LinkClustering::new().recorder(sink.clone()).run(&g);
        // Custom sinks get the events; the result carries no report.
        assert!(r.report().is_none());
        assert_eq!(sink.report().counter(Counter::MergesApplied), r.dendrogram().merge_count());
    }

    #[test]
    fn tracer_records_phase_timeline() {
        use crate::telemetry::{trace, TraceCollector, TraceLabel};
        let g = gnm(20, 60, WeightMode::Unit, 4);
        let collector = Arc::new(TraceCollector::new());
        let r = LinkClustering::new().tracer(Arc::clone(&collector)).run(&g);
        // Tracing alone attaches no report.
        assert!(r.report().is_none());
        let events = collector.events();
        assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::Sort)));
        assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::Sweep)));
        trace::check_events(&events).unwrap();
        crate::json::parse(&collector.to_chrome_json()).unwrap();
        // Tracing plus stats: the report exists and the serial run (deep
        // rings, few events) dropped nothing.
        let collector = Arc::new(TraceCollector::new());
        let r = LinkClustering::new().stats(true).tracer(collector).run(&g);
        let report = r.report().expect("report attached");
        assert_eq!(report.counter(Counter::TraceEventsDropped), 0);
    }

    #[test]
    fn coarse_stats_report_counts_epochs() {
        let g = gnm(40, 170, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let r = LinkClustering::new().stats(true).run_coarse(&g, cfg).unwrap();
        let report = r.report().expect("report attached");
        let b = r.epoch_breakdown();
        assert_eq!(report.counter(Counter::EpochsCommitted), (b.head_fresh + b.tail_fresh) as u64);
        assert_eq!(report.counter(Counter::Rollbacks), b.rollback as u64);
        assert_eq!(report.counter(Counter::EpochsReused), b.reused as u64);
        assert_eq!(report.counter(Counter::LevelsCommitted), r.levels().len() as u64);
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(report.phase_calls(Phase::CoarseEpoch) as usize, r.epochs().len() - b.reused);
    }
}

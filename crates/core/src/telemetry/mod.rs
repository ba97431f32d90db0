//! Phase-level observability: timers, counters, gauges, and run reports.
//!
//! Every phase of the clustering pipeline — the three initialization
//! passes, the sort, the sweep, each coarse epoch, and the parallel
//! chunk-process/combine steps — can emit timing and counter events
//! through a [`Telemetry`] handle. The handle is **zero-cost when
//! disabled**: a disabled handle holds no recorder, [`Telemetry::span`]
//! never calls [`Instant::now`], and every counter update is a single
//! branch on an `Option`.
//!
//! The pieces:
//!
//! * [`Phase`], [`Counter`], [`Gauge`] — the typed event vocabulary.
//! * [`Recorder`] — the sink trait. Implement it to stream events into
//!   your own system (the bench harness does); [`NoopRecorder`] drops
//!   everything, [`RunRecorder`] aggregates into a [`RunReport`].
//! * [`Telemetry`] — the cheap, cloneable handle threaded through the
//!   pipeline. [`Telemetry::disabled`] is the default everywhere.
//! * [`RunReport`] — the aggregate: per-phase wall time and call counts,
//!   counters, gauge statistics, log-linear latency histograms
//!   (p50/p90/p99 via [`RunReport::phase_quantile_nanos`]), and
//!   per-thread item counts for load-imbalance analysis. Serializes to
//!   JSON ([`RunReport::to_json`]) and pretty-prints as a table (its
//!   [`Display`](fmt::Display) impl).
//! * [`trace`] — the per-thread event tracing subsystem
//!   ([`TraceCollector`], attached via [`Telemetry::with_tracer`]):
//!   lock-free per-thread ring buffers drained into Chrome trace-event
//!   JSON. [`hist`] holds the [`LogHistogram`] both layers share.
//! * [`metrics`] — the dependency-free Prometheus text-format renderer
//!   ([`MetricsWriter`]) plus [`TimeSeriesRing`] for ticker-sampled
//!   runtime gauges; [`log`] — leveled, rate-limited, line-delimited
//!   JSON structured logging ([`Logger`]).
//!
//! # Examples
//!
//! ```
//! use linkclust_core::telemetry::{Counter, Phase, RunRecorder, Telemetry};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(RunRecorder::new());
//! let t = Telemetry::new(recorder.clone());
//! {
//!     let _span = t.span(Phase::Sweep);
//!     t.add(Counter::MergesApplied, 3);
//! } // span drop records the elapsed time
//! let report = recorder.report();
//! assert_eq!(report.counter(Counter::MergesApplied), 3);
//! assert_eq!(report.phase_calls(Phase::Sweep), 1);
//! ```

pub mod hist;
pub mod log;
pub mod metrics;
pub mod trace;

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use hist::LogHistogram;
pub use log::{Level as LogLevel, Logger};
pub use metrics::{MetricKind, MetricsWriter, TimeSeriesRing};
pub use trace::{TraceCollector, TraceEvent, TraceLabel};

/// A timed phase of the clustering pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Initialization pass 1: vertex norms `H₁`/`H₂`.
    InitPass1 = 0,
    /// Initialization pass 2: pair-map accumulation.
    InitPass2 = 1,
    /// Initialization pass 3: adjacency correction + final similarity.
    InitPass3 = 2,
    /// Sorting the similarity list `L`.
    Sort = 3,
    /// The fine-grained sweeping phase (one span per sweep).
    Sweep = 4,
    /// One epoch of the coarse-grained sweep (one span per epoch,
    /// committed or rolled back).
    CoarseEpoch = 5,
    /// Per-thread chunk processing inside a parallel epoch.
    ChunkProcess = 6,
    /// Chain-union combination of per-thread cluster arrays.
    ChunkCombine = 7,
    /// Time from a worker-pool dispatch to the start of one of its tasks
    /// (one span per task): thread start-up, plus the earlier tasks of
    /// the same lane. High totals mean dispatch overhead rivals the work.
    PoolQueueWait = 8,
    /// Owner-thread fold of routed shard records into the flat
    /// accumulators (parallel pass 2 only).
    InitShardFold = 9,
    /// One light query answered by `linkclustd` (cut, membership, top-k,
    /// or profile — one span per request).
    ServeQuery = 10,
    /// One batch-admission job (full recluster) executed by the serve
    /// worker, from dequeue to fresh index built.
    ServeAdmit = 11,
    /// The atomic index swap publishing a freshly built index to query
    /// traffic (one span per swap; should be nanoseconds).
    ServeSwap = 12,
    /// The set-up of the exact sweep, inside its [`Phase::Sweep`] span:
    /// the edge index, the edge-component count and the slot
    /// permutation.
    SweepSetup = 13,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 14] = [
        Phase::InitPass1,
        Phase::InitPass2,
        Phase::InitShardFold,
        Phase::InitPass3,
        Phase::Sort,
        Phase::Sweep,
        Phase::SweepSetup,
        Phase::CoarseEpoch,
        Phase::ChunkProcess,
        Phase::ChunkCombine,
        Phase::PoolQueueWait,
        Phase::ServeQuery,
        Phase::ServeAdmit,
        Phase::ServeSwap,
    ];

    /// The stable snake_case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::InitPass1 => "init_pass1",
            Phase::InitPass2 => "init_pass2",
            Phase::InitPass3 => "init_pass3",
            Phase::Sort => "sort",
            Phase::Sweep => "sweep",
            Phase::CoarseEpoch => "coarse_epoch",
            Phase::ChunkProcess => "chunk_process",
            Phase::ChunkCombine => "chunk_combine",
            Phase::PoolQueueWait => "pool_queue_wait",
            Phase::InitShardFold => "init_shard_fold",
            Phase::SweepSetup => "sweep_setup",
            Phase::ServeQuery => "serve_query",
            Phase::ServeAdmit => "serve_admit",
            Phase::ServeSwap => "serve_swap",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// A monotone event counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Counter {
    /// Vertex pairs with a common neighbor (K₁).
    PairsK1 = 0,
    /// Incident edge pairs (K₂).
    IncidentPairsK2 = 1,
    /// Merges recorded into the dendrogram.
    MergesApplied = 2,
    /// Incident edge pairs actually swept: ≤ K₂ under φ-termination, a
    /// threshold, or the exact engines' stop once the merge forest is
    /// complete (the pairs of every entry up to and including the one
    /// that completes it).
    PairsProcessed = 3,
    /// Committed coarse epochs (head or tail mode).
    EpochsCommitted = 4,
    /// Rolled-back coarse epochs.
    Rollbacks = 5,
    /// Saved rollback states committed wholesale (Case-I reuse).
    EpochsReused = 6,
    /// Epochs forced through despite violating the merge-rate bound
    /// (indivisible single-entry chunks).
    ForcedEpochs = 7,
    /// Dendrogram levels committed by the coarse sweep.
    LevelsCommitted = 8,
    /// Chunks handed to a chunk processor.
    ChunksProcessed = 9,
    /// Chunks the parallel processor handled serially (too small to be
    /// worth fanning out).
    SerialFallbackChunks = 10,
    /// Pairwise chain-union combinations of per-thread cluster arrays.
    ArrayCombines = 11,
    /// Tasks run by the worker pool: `fan_out` items across all phases, plus
    /// `submit` jobs.
    PoolTasks = 12,
    /// `(pair, weight-product, common-neighbor)` records routed between
    /// producer and owner threads by the sharded parallel pass 2 (the
    /// shard-exchange volume; equals K₂ for a full pass).
    ShardRecords = 13,
    /// Trace events overwritten by per-thread ring-buffer overflow
    /// (see [`trace::TraceCollector::dropped`]); non-zero means the
    /// exported timeline is missing its oldest events.
    TraceEventsDropped = 14,
    /// Light queries answered by `linkclustd` (all kinds, hit or miss).
    ServeQueries = 15,
    /// Serve queries answered from the LRU answer cache.
    ServeCacheHits = 16,
    /// Serve queries computed from the index (cache misses).
    ServeCacheMisses = 17,
    /// Recluster jobs admitted to the serve worker queue.
    ServeAdmissions = 18,
    /// Index swaps published after a completed recluster.
    ServeSwaps = 19,
}

impl Counter {
    /// All counters, in display order.
    pub const ALL: [Counter; 20] = [
        Counter::PairsK1,
        Counter::IncidentPairsK2,
        Counter::MergesApplied,
        Counter::PairsProcessed,
        Counter::EpochsCommitted,
        Counter::Rollbacks,
        Counter::EpochsReused,
        Counter::ForcedEpochs,
        Counter::LevelsCommitted,
        Counter::ChunksProcessed,
        Counter::SerialFallbackChunks,
        Counter::ArrayCombines,
        Counter::PoolTasks,
        Counter::ShardRecords,
        Counter::TraceEventsDropped,
        Counter::ServeQueries,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeAdmissions,
        Counter::ServeSwaps,
    ];

    /// The stable snake_case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::PairsK1 => "pairs_k1",
            Counter::IncidentPairsK2 => "incident_pairs_k2",
            Counter::MergesApplied => "merges_applied",
            Counter::PairsProcessed => "pairs_processed",
            Counter::EpochsCommitted => "epochs_committed",
            Counter::Rollbacks => "rollbacks",
            Counter::EpochsReused => "epochs_reused",
            Counter::ForcedEpochs => "forced_epochs",
            Counter::LevelsCommitted => "levels_committed",
            Counter::ChunksProcessed => "chunks_processed",
            Counter::SerialFallbackChunks => "serial_fallback_chunks",
            Counter::ArrayCombines => "array_combines",
            Counter::PoolTasks => "pool_tasks",
            Counter::ShardRecords => "shard_records",
            Counter::TraceEventsDropped => "trace_events_dropped",
            Counter::ServeQueries => "serve_queries",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeAdmissions => "serve_admissions",
            Counter::ServeSwaps => "serve_swaps",
        }
    }

    /// A one-line human description, used as metrics HELP text.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Counter::PairsK1 => "Vertex pairs with a common neighbor (K1).",
            Counter::IncidentPairsK2 => "Incident edge pairs (K2).",
            Counter::MergesApplied => "Merges recorded into the dendrogram.",
            Counter::PairsProcessed => "Incident edge pairs actually swept.",
            Counter::EpochsCommitted => "Committed coarse epochs.",
            Counter::Rollbacks => "Rolled-back coarse epochs.",
            Counter::EpochsReused => "Saved rollback states committed wholesale.",
            Counter::ForcedEpochs => "Epochs forced through despite the merge-rate bound.",
            Counter::LevelsCommitted => "Dendrogram levels committed by the coarse sweep.",
            Counter::ChunksProcessed => "Chunks handed to a chunk processor.",
            Counter::SerialFallbackChunks => "Chunks handled serially (too small to fan out).",
            Counter::ArrayCombines => "Pairwise chain-union combinations of cluster arrays.",
            Counter::PoolTasks => "Tasks run by the worker pool.",
            Counter::ShardRecords => "Records routed between threads by sharded pass 2.",
            Counter::TraceEventsDropped => "Trace events lost to ring-buffer overflow.",
            Counter::ServeQueries => "Light queries answered (all kinds, hit or miss).",
            Counter::ServeCacheHits => "Serve queries answered from the answer cache.",
            Counter::ServeCacheMisses => "Serve queries computed from the index.",
            Counter::ServeAdmissions => "Recluster jobs admitted to the serve worker queue.",
            Counter::ServeSwaps => "Index swaps published after a completed recluster.",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// A sampled quantity (aggregated as count/min/max/mean).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gauge {
    /// The chunk size δ an epoch ran with (in incident edge pairs).
    ChunkSize = 0,
    /// Load factor of a flat pass-2 accumulator table when its pass
    /// finished (one sample per accumulator; low values mean the K₁
    /// estimate overshot).
    TableOccupancy = 1,
}

impl Gauge {
    /// All gauges, in display order.
    pub const ALL: [Gauge; 2] = [Gauge::ChunkSize, Gauge::TableOccupancy];

    /// The stable snake_case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ChunkSize => "chunk_size",
            Gauge::TableOccupancy => "table_occupancy",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// A telemetry sink. Implementations must be cheap and thread-safe — the
/// pipeline calls them from worker threads.
pub trait Recorder: Send + Sync {
    /// One completed span of `phase`, lasting `nanos` nanoseconds.
    fn record_phase(&self, phase: Phase, nanos: u64);
    /// Increments `counter` by `value`.
    fn add(&self, counter: Counter, value: u64);
    /// Records one sample of `gauge`.
    fn observe(&self, gauge: Gauge, value: f64);
    /// Records that worker `thread` handled `items` work items (used for
    /// load-imbalance analysis; accumulates across calls).
    fn thread_items(&self, thread: usize, items: u64);
}

/// A recorder that drops every event. Useful as an explicit "measure the
/// instrumentation overhead" sink; prefer [`Telemetry::disabled`] when
/// you simply don't want telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record_phase(&self, _phase: Phase, _nanos: u64) {}
    fn add(&self, _counter: Counter, _value: u64) {}
    fn observe(&self, _gauge: Gauge, _value: f64) {}
    fn thread_items(&self, _thread: usize, _items: u64) {}
}

/// The handle threaded through the pipeline. Cloning is cheap (an `Arc`
/// clone or a no-op). A disabled handle skips all clock reads and sink
/// calls.
///
/// Independently of the aggregate [`Recorder`], a handle may carry a
/// [`trace::TraceCollector`] ([`with_tracer`](Self::with_tracer)):
/// every [`span`](Self::span) then also lands on the calling thread's
/// trace timeline, and the worker pool records its per-task execution
/// intervals through [`trace_task`](Self::trace_task).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<dyn Recorder>>,
    tracer: Option<Arc<trace::TraceCollector>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .field("tracing", &self.tracer.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The do-nothing handle (the default for every pipeline entry
    /// point).
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None, tracer: None }
    }

    /// A handle forwarding every event to `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Telemetry { inner: Some(recorder), tracer: None }
    }

    /// Attaches a trace collector: spans (and pool-task executions) are
    /// additionally recorded as per-thread timeline events.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<trace::TraceCollector>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// `true` if events reach a recorder.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached trace collector, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<trace::TraceCollector>> {
        self.tracer.as_ref()
    }

    /// Starts a timed span for `phase`; the elapsed time is recorded when
    /// the returned guard drops (or [`Span::finish`] is called) — into
    /// the recorder, the trace timeline, or both, whichever is attached.
    /// Disabled handles never read the clock.
    #[must_use = "the span measures until it is dropped"]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        let recorder = self.inner.as_deref();
        let tracer = self.tracer.as_deref();
        let active = (recorder.is_some() || tracer.is_some()).then(|| SpanInner {
            recorder,
            tracer,
            phase,
            start: Instant::now(),
        });
        Span { active }
    }

    /// Starts a trace-only interval for the execution of pool task `seq`
    /// on the calling thread; recorded when the guard drops. A no-op
    /// (no clock read) unless a tracer is attached.
    #[must_use = "the guard traces until it is dropped"]
    pub fn trace_task(&self, seq: u64) -> TaskTrace<'_> {
        TaskTrace { active: self.tracer.as_deref().map(|t| (t, seq, Instant::now())) }
    }

    /// Increments `counter` by `value`.
    #[inline]
    pub fn add(&self, counter: Counter, value: u64) {
        if let Some(r) = &self.inner {
            r.add(counter, value);
        }
    }

    /// Records one sample of `gauge`.
    #[inline]
    pub fn observe(&self, gauge: Gauge, value: f64) {
        if let Some(r) = &self.inner {
            r.observe(gauge, value);
        }
    }

    /// Records `items` work items handled by worker `thread`.
    #[inline]
    pub fn thread_items(&self, thread: usize, items: u64) {
        if let Some(r) = &self.inner {
            r.thread_items(thread, items);
        }
    }

    /// Records one completed span of `phase` whose duration was measured
    /// externally — for timings that cross thread boundaries (e.g. the
    /// queue wait of a pooled task, where the clock starts on the
    /// dispatching thread and stops on the worker) and therefore cannot
    /// use the guard-based [`span`](Self::span) API. Such timings feed
    /// the aggregate report (including its latency histograms) but not
    /// the trace timeline: an interval that straddles two threads has no
    /// single-thread lane to render in.
    #[inline]
    pub fn record_phase_nanos(&self, phase: Phase, nanos: u64) {
        if let Some(r) = &self.inner {
            r.record_phase(phase, nanos);
        }
    }
}

/// A timing guard returned by [`Telemetry::span`]. Records the elapsed
/// wall time into the recorder and/or the trace timeline on drop. Spans
/// nest naturally — each one records its own phase independently.
pub struct Span<'a> {
    active: Option<SpanInner<'a>>,
}

/// The live state of an enabled [`Span`].
struct SpanInner<'a> {
    recorder: Option<&'a dyn Recorder>,
    tracer: Option<&'a trace::TraceCollector>,
    phase: Phase,
    start: Instant,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.active.take() {
            let nanos = inner.start.elapsed().as_nanos() as u64;
            if let Some(recorder) = inner.recorder {
                recorder.record_phase(inner.phase, nanos);
            }
            if let Some(tracer) = inner.tracer {
                tracer.record(trace::TraceLabel::Phase(inner.phase), inner.start, nanos);
            }
        }
    }
}

/// A trace guard returned by [`Telemetry::trace_task`]: records one
/// pool-task execution interval on the calling thread's timeline when
/// dropped. Inert (and clock-free) when no tracer is attached.
pub struct TaskTrace<'a> {
    active: Option<(&'a trace::TraceCollector, u64, Instant)>,
}

impl Drop for TaskTrace<'_> {
    fn drop(&mut self) {
        if let Some((tracer, seq, start)) = self.active.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            tracer.record(trace::TraceLabel::PoolTask { seq }, start, nanos);
        }
    }
}

/// Aggregated statistics of one gauge.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct GaugeStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when `count == 0`).
    pub min: f64,
    /// Largest sample (0 when `count == 0`).
    pub max: f64,
}

impl GaugeStats {
    /// The mean sample, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }
}

/// Fixed-point scale applied to gauge samples before they enter their
/// integer [`LogHistogram`] (samples are multiplied by this and
/// rounded, quantiles divided back out), preserving three fractional
/// digits on top of the histogram's ~2 significant digits.
const GAUGE_HIST_SCALE: f64 = 1000.0;

/// The aggregate of one clustering run: per-phase wall time and call
/// counts, counters, gauge statistics, per-phase and per-gauge
/// log-linear latency histograms (p50/p90/p99 with ~2 significant
/// digits), and per-thread item counts.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RunReport {
    phase_nanos: [u64; Phase::ALL.len()],
    phase_calls: [u64; Phase::ALL.len()],
    phase_hist: [LogHistogram; Phase::ALL.len()],
    counters: [u64; Counter::ALL.len()],
    gauges: [GaugeStats; Gauge::ALL.len()],
    gauge_hist: [LogHistogram; Gauge::ALL.len()],
    thread_items: Vec<u64>,
}

impl RunReport {
    /// Total wall time spent in `phase`, in nanoseconds (sums over all
    /// spans of that phase).
    #[must_use]
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Number of spans recorded for `phase`.
    #[must_use]
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_calls[phase.index()]
    }

    /// The value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Aggregated statistics of `gauge`.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> GaugeStats {
        self.gauges[gauge.index()]
    }

    /// The log-linear histogram of individual span durations of `phase`
    /// (one sample per span, in nanoseconds).
    #[must_use]
    pub fn phase_histogram(&self, phase: Phase) -> &LogHistogram {
        &self.phase_hist[phase.index()]
    }

    /// The `q`-quantile of individual span durations of `phase`, in
    /// nanoseconds with ~2 significant digits (0 when the phase never
    /// ran). `phase_quantile_nanos(p, 0.5)` is the median span.
    #[must_use]
    pub fn phase_quantile_nanos(&self, phase: Phase, q: f64) -> u64 {
        self.phase_hist[phase.index()].quantile(q)
    }

    /// The log-linear histogram of `gauge` samples, in fixed-point
    /// thousandths (see [`gauge_quantile`](Self::gauge_quantile) for the
    /// descaled view).
    #[must_use]
    pub fn gauge_histogram(&self, gauge: Gauge) -> &LogHistogram {
        &self.gauge_hist[gauge.index()]
    }

    /// The `q`-quantile of `gauge` samples with ~2 significant digits,
    /// or `NaN` when the gauge was never observed (serialized as `null`
    /// in JSON).
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // quantile summaries, not exact arithmetic
    pub fn gauge_quantile(&self, gauge: Gauge, q: f64) -> f64 {
        let hist = &self.gauge_hist[gauge.index()];
        if hist.is_empty() {
            f64::NAN
        } else {
            hist.quantile(q) as f64 / GAUGE_HIST_SCALE
        }
    }

    /// Work items per worker thread, indexed by thread id. Empty when no
    /// parallel stage ran.
    #[must_use]
    pub fn thread_items(&self) -> &[u64] {
        &self.thread_items
    }

    /// Load imbalance of the parallel stages: `max / mean` of the
    /// per-thread item counts.
    ///
    /// Convention: **`0.0` means "no data"** — no parallel stage
    /// recorded thread items at all. Any recorded distribution yields a
    /// value `>= 1.0`: `1.0` is perfectly balanced, and that includes
    /// the degenerate all-idle case (every thread recorded zero items —
    /// a uniform distribution, not an unmeasured one). Callers can
    /// therefore distinguish "perfect balance" (`== 1.0`) from "nothing
    /// measured" (`== 0.0`).
    #[must_use]
    pub fn load_imbalance(&self) -> f64 {
        let busy = &self.thread_items;
        if busy.is_empty() {
            return 0.0;
        }
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Serializes the report as a single-line JSON object with stable
    /// keys (`phases`, `counters`, `gauges`, `thread_items`). Each phase
    /// carries its totals plus `p50_nanos`/`p90_nanos`/`p99_nanos`
    /// per-span quantiles; each gauge its range plus `p50`/`p90`/`p99`
    /// (all `null` — never a bare `NaN` — when unobserved).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"phases\":{");
        let mut first = true;
        for p in Phase::ALL {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\"{}\":{{\"nanos\":{},\"calls\":{},\
                 \"p50_nanos\":{},\"p90_nanos\":{},\"p99_nanos\":{}}}",
                p.name(),
                self.phase_nanos(p),
                self.phase_calls(p),
                self.phase_quantile_nanos(p, 0.5),
                self.phase_quantile_nanos(p, 0.9),
                self.phase_quantile_nanos(p, 0.99),
            ));
        }
        s.push_str("},\"counters\":{");
        first = true;
        for c in Counter::ALL {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{}\":{}", c.name(), self.counter(c)));
        }
        s.push_str("},\"gauges\":{");
        first = true;
        for g in Gauge::ALL {
            if !first {
                s.push(',');
            }
            first = false;
            let st = self.gauge(g);
            s.push_str(&format!("\"{}\":{{\"count\":{}", g.name(), st.count));
            for (key, x) in [
                ("min", st.min),
                ("max", st.max),
                ("mean", st.mean()),
                ("p50", self.gauge_quantile(g, 0.5)),
                ("p90", self.gauge_quantile(g, 0.9)),
                ("p99", self.gauge_quantile(g, 0.99)),
            ] {
                s.push_str(&format!(",\"{key}\":"));
                crate::json::write_f64(&mut s, x);
            }
            s.push('}');
        }
        s.push_str("},\"thread_items\":[");
        for (i, items) in self.thread_items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&items.to_string());
        }
        s.push_str("]}");
        s
    }

    fn merge_event(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::Phase(p, nanos) => {
                self.phase_nanos[p.index()] += nanos;
                self.phase_calls[p.index()] += 1;
                self.phase_hist[p.index()].record(nanos);
            }
            TelemetryEvent::Counter(c, value) => self.counters[c.index()] += value,
            TelemetryEvent::Gauge(g, value) => {
                self.gauges[g.index()].observe(value);
                if value.is_finite() {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    // negative samples clamp to the zero bucket
                    let scaled = (value * GAUGE_HIST_SCALE).round().max(0.0) as u64;
                    self.gauge_hist[g.index()].record(scaled);
                }
            }
            TelemetryEvent::ThreadItems(thread, items) => {
                if self.thread_items.len() <= thread {
                    self.thread_items.resize(thread + 1, 0);
                }
                self.thread_items[thread] += items;
            }
        }
    }
}

impl fmt::Display for RunReport {
    /// A human-readable table: phases with time, call counts, and
    /// per-span p50/p99 latencies, then non-zero counters, gauges (with
    /// p50/p90/p99), and the per-thread item counts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:>12} {:>8} {:>12} {:>12}", "phase", "time", "calls", "p50", "p99")?;
        for p in Phase::ALL {
            if self.phase_calls(p) == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<18} {:>12} {:>8} {:>12} {:>12}",
                p.name(),
                format_nanos(self.phase_nanos(p)),
                self.phase_calls(p),
                format_nanos(self.phase_quantile_nanos(p, 0.5)),
                format_nanos(self.phase_quantile_nanos(p, 0.99)),
            )?;
        }
        writeln!(f, "{:<18} {:>12}", "counter", "value")?;
        for c in Counter::ALL {
            if self.counter(c) == 0 {
                continue;
            }
            writeln!(f, "{:<18} {:>12}", c.name(), self.counter(c))?;
        }
        for g in Gauge::ALL {
            let st = self.gauge(g);
            if st.count == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<18} {} samples, min {:.1}, p50 {:.1}, p90 {:.1}, p99 {:.1}, max {:.1}",
                g.name(),
                st.count,
                st.min,
                self.gauge_quantile(g, 0.5),
                self.gauge_quantile(g, 0.9),
                self.gauge_quantile(g, 0.99),
                st.max,
            )?;
        }
        if !self.thread_items.is_empty() {
            let items: Vec<String> = self.thread_items.iter().map(u64::to_string).collect();
            writeln!(
                f,
                "{:<18} [{}] (imbalance {:.2})",
                "thread_items",
                items.join(", "),
                self.load_imbalance()
            )?;
        }
        Ok(())
    }
}

fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// One raw telemetry event, as delivered to a [`Recorder`]. Public so
/// external sinks (e.g. the bench harness's event log) can buffer the
/// exact stream instead of redefining it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TelemetryEvent {
    /// One completed span: `(phase, nanoseconds)`.
    Phase(Phase, u64),
    /// A counter increment: `(counter, delta)`.
    Counter(Counter, u64),
    /// One gauge sample: `(gauge, value)`.
    Gauge(Gauge, f64),
    /// Work items attributed to a worker: `(thread index, items)`.
    ThreadItems(usize, u64),
}

/// A [`Recorder`] that aggregates every event into a [`RunReport`].
///
/// Aggregation happens eagerly under a mutex; the per-event critical
/// section is a few array writes. The pipeline batches its hot-loop
/// counters (one `add` per phase, not per merge), so contention is
/// negligible.
#[derive(Default)]
pub struct RunRecorder {
    report: Mutex<RunReport>,
}

impl RunRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    ///
    /// Telemetry recovers from a poisoned mutex (a panicking worker must
    /// not cascade into the reporting path), so this never panics.
    pub fn report(&self) -> RunReport {
        self.lock().clone()
    }

    /// Locks the report, recovering from poisoning: the aggregate state
    /// is a set of monotone counters, so a partial update from a
    /// panicked worker is still meaningful.
    fn lock(&self) -> std::sync::MutexGuard<'_, RunReport> {
        self.report.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl fmt::Debug for RunRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunRecorder").finish_non_exhaustive()
    }
}

impl Recorder for RunRecorder {
    fn record_phase(&self, phase: Phase, nanos: u64) {
        self.lock().merge_event(&TelemetryEvent::Phase(phase, nanos));
    }

    fn add(&self, counter: Counter, value: u64) {
        self.lock().merge_event(&TelemetryEvent::Counter(counter, value));
    }

    fn observe(&self, gauge: Gauge, value: f64) {
        self.lock().merge_event(&TelemetryEvent::Gauge(gauge, value));
    }

    fn thread_items(&self, thread: usize, items: u64) {
        self.lock().merge_event(&TelemetryEvent::ThreadItems(thread, items));
    }
}

/// How the clustering facade collects telemetry: off, an internal
/// [`RunRecorder`] exposed via the result's `report()`, or a
/// caller-supplied sink.
#[derive(Clone, Default)]
pub enum TelemetrySink {
    /// No telemetry (the default).
    #[default]
    Off,
    /// Aggregate into a [`RunReport`] attached to the result.
    Stats,
    /// Forward events to a caller-supplied recorder; the result carries
    /// no report.
    Custom(
        /// The sink.
        Arc<dyn Recorder>,
    ),
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetrySink::Off => write!(f, "Off"),
            TelemetrySink::Stats => write!(f, "Stats"),
            TelemetrySink::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl TelemetrySink {
    /// Builds the handle to thread through a run, plus the internal
    /// recorder to read the report from afterwards (for
    /// [`TelemetrySink::Stats`]).
    #[must_use]
    pub fn build(&self) -> (Telemetry, Option<Arc<RunRecorder>>) {
        match self {
            TelemetrySink::Off => (Telemetry::disabled(), None),
            TelemetrySink::Stats => {
                let recorder = Arc::new(RunRecorder::new());
                (Telemetry::new(recorder.clone()), Some(recorder))
            }
            TelemetrySink::Custom(recorder) => (Telemetry::new(recorder.clone()), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_is_cheap() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let span = t.span(Phase::Sweep);
        assert!(span.active.is_none(), "disabled spans must not read the clock");
        drop(span);
        t.add(Counter::MergesApplied, 10);
        t.observe(Gauge::ChunkSize, 5.0);
        t.thread_items(0, 100);
    }

    #[test]
    fn run_recorder_aggregates_all_event_kinds() {
        let rec = Arc::new(RunRecorder::new());
        let t = Telemetry::new(rec.clone());
        assert!(t.is_enabled());
        t.span(Phase::InitPass1).finish();
        t.span(Phase::InitPass1).finish();
        t.add(Counter::PairsK1, 7);
        t.add(Counter::PairsK1, 3);
        t.observe(Gauge::ChunkSize, 2.0);
        t.observe(Gauge::ChunkSize, 6.0);
        t.thread_items(1, 5);
        t.thread_items(0, 10);
        t.thread_items(1, 5);
        let r = rec.report();
        assert_eq!(r.phase_calls(Phase::InitPass1), 2);
        assert_eq!(r.counter(Counter::PairsK1), 10);
        let g = r.gauge(Gauge::ChunkSize);
        assert_eq!(g.count, 2);
        assert_eq!(g.min, 2.0);
        assert_eq!(g.max, 6.0);
        assert_eq!(g.mean(), 4.0);
        assert_eq!(r.thread_items(), &[10, 10]);
        assert_eq!(r.load_imbalance(), 1.0);
    }

    #[test]
    fn span_times_accumulate() {
        let rec = Arc::new(RunRecorder::new());
        let t = Telemetry::new(rec.clone());
        {
            let _outer = t.span(Phase::Sweep);
            let _inner = t.span(Phase::CoarseEpoch);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = rec.report();
        assert!(r.phase_nanos(Phase::Sweep) >= 2_000_000);
        assert!(r.phase_nanos(Phase::CoarseEpoch) >= 2_000_000);
    }

    #[test]
    fn json_has_stable_shape() {
        let rec = RunRecorder::new();
        rec.add(Counter::MergesApplied, 42);
        rec.record_phase(Phase::Sort, 1500);
        rec.observe(Gauge::ChunkSize, 3.5);
        rec.thread_items(0, 9);
        let json = rec.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"merges_applied\":42"));
        assert!(json.contains("\"sort\":{\"nanos\":1500,\"calls\":1,"));
        assert!(json.contains("\"p50_nanos\":1500"));
        assert!(json.contains("\"chunk_size\":{\"count\":1,\"min\":3.5,\"max\":3.5,\"mean\":3.5,"));
        assert!(json.contains("\"p50\":3.5"));
        assert!(json.contains("\"thread_items\":[9]"));
        crate::json::parse(&json).unwrap();
        // Every name appears exactly once.
        for p in Phase::ALL {
            assert_eq!(json.matches(&format!("\"{}\"", p.name())).count(), 1);
        }
        for c in Counter::ALL {
            assert_eq!(json.matches(&format!("\"{}\"", c.name())).count(), 1);
        }
    }

    #[test]
    fn table_hides_empty_rows() {
        let rec = RunRecorder::new();
        rec.add(Counter::Rollbacks, 2);
        rec.record_phase(Phase::Sweep, 5_000_000);
        let table = rec.report().to_string();
        assert!(table.contains("rollbacks"));
        assert!(table.contains("sweep"));
        assert!(table.contains("5.000ms"));
        assert!(!table.contains("init_pass1"));
        assert!(!table.contains("chunk_size"));
    }

    #[test]
    fn sink_modes_build_correctly() {
        let (t, r) = TelemetrySink::Off.build();
        assert!(!t.is_enabled() && r.is_none());
        let (t, r) = TelemetrySink::Stats.build();
        assert!(t.is_enabled() && r.is_some());
        let (t, r) = TelemetrySink::Custom(Arc::new(NoopRecorder)).build();
        assert!(t.is_enabled() && r.is_none());
    }

    #[test]
    fn report_exposes_span_quantiles() {
        let rec = RunRecorder::new();
        for nanos in [100u64, 200, 300, 400, 1_000_000] {
            rec.record_phase(Phase::PoolQueueWait, nanos);
        }
        let r = rec.report();
        let hist = r.phase_histogram(Phase::PoolQueueWait);
        assert_eq!(hist.count(), 5);
        let p50 = r.phase_quantile_nanos(Phase::PoolQueueWait, 0.5);
        assert!((290..=310).contains(&p50), "p50 was {p50}");
        let p99 = r.phase_quantile_nanos(Phase::PoolQueueWait, 0.99);
        assert!((984_375..=1_015_625).contains(&p99), "p99 was {p99}");
        // Unobserved phases report zero quantiles.
        assert_eq!(r.phase_quantile_nanos(Phase::Sweep, 0.5), 0);
    }

    #[test]
    fn gauge_quantiles_skip_non_finite_samples() {
        let rec = RunRecorder::new();
        rec.observe(Gauge::ChunkSize, f64::NAN);
        rec.observe(Gauge::ChunkSize, f64::INFINITY);
        rec.observe(Gauge::ChunkSize, 8.0);
        let r = rec.report();
        // The lossy min/max stats see every sample; the histogram only
        // the finite one.
        assert_eq!(r.gauge(Gauge::ChunkSize).count, 3);
        assert_eq!(r.gauge_histogram(Gauge::ChunkSize).count(), 1);
        assert!((r.gauge_quantile(Gauge::ChunkSize, 0.5) - 8.0).abs() < 1e-9);
        // Unobserved gauges quantile to NaN, which serializes as null.
        assert!(r.gauge_quantile(Gauge::TableOccupancy, 0.5).is_nan());
        let json = r.to_json();
        assert!(json.contains("\"table_occupancy\":{\"count\":0,\"min\":0.0,\"max\":0.0,\"mean\":0.0,\"p50\":null,\"p90\":null,\"p99\":null}"));
        crate::json::parse(&json).unwrap();
    }

    #[test]
    fn load_imbalance_distinguishes_no_data_from_all_idle() {
        // No parallel stage ran: 0.0 means "no data".
        assert_eq!(RunReport::default().load_imbalance(), 0.0);
        // Threads recorded but uniformly idle: balanced, so 1.0.
        let rec = RunRecorder::new();
        rec.thread_items(0, 0);
        rec.thread_items(1, 0);
        assert_eq!(rec.report().load_imbalance(), 1.0);
        // A skewed distribution exceeds 1.0.
        let rec = RunRecorder::new();
        rec.thread_items(0, 30);
        rec.thread_items(1, 10);
        assert_eq!(rec.report().load_imbalance(), 1.5);
    }

    #[test]
    fn traced_span_lands_on_recorder_and_timeline() {
        let rec = Arc::new(RunRecorder::new());
        let collector = Arc::new(trace::TraceCollector::new());
        let t = Telemetry::new(rec.clone()).with_tracer(Arc::clone(&collector));
        assert!(t.is_enabled() && t.tracer().is_some());
        t.span(Phase::Sort).finish();
        {
            let _task = t.trace_task(7);
        }
        assert_eq!(rec.report().phase_calls(Phase::Sort), 1);
        let events = collector.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.label == TraceLabel::Phase(Phase::Sort)));
        assert!(events.iter().any(|e| e.label == TraceLabel::PoolTask { seq: 7 }));
        // Tracing without a recorder still traces; queue-wait style
        // cross-thread timings stay off the timeline by design.
        let t = Telemetry::disabled().with_tracer(Arc::clone(&collector));
        assert!(!t.is_enabled() && t.tracer().is_some());
        t.record_phase_nanos(Phase::PoolQueueWait, 5);
        t.span(Phase::Sweep).finish();
        assert_eq!(collector.events().len(), 3);
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1_500), "1.500µs");
        assert_eq!(format_nanos(2_500_000), "2.500ms");
        assert_eq!(format_nanos(3_000_000_000), "3.000s");
    }
}

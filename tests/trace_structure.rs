//! Acceptance tests for event tracing: a traced 4-thread coarse run on
//! gnm(10 000, 50 000) must produce a Chrome trace-event JSON file that
//! loads in Perfetto — validated structurally here: events monotone and
//! properly nested (never partially overlapping) per tid, every interval
//! complete (the writer emits only `ph:"X"` events, so there is no
//! unmatched begin by construction), parseable JSON — and the run
//! report must expose p50/p90/p99 latencies for the pool queue-wait and
//! coarse-epoch phases.
//!
//! The facade's coarse run fans only Phase I out and reads its levels
//! off the exact merge stream, so its timeline carries Phase I, the
//! sort, the epochs and the stream's sweep spans, and no chunk span. The
//! §VI-B chunk pipeline is traced by a direct run after Phase I on a
//! pool of its own: it dispatches through two pools (Phase I's and the
//! chunk processor's), yet its `pool_task` events are numbered once per
//! collector — 0, 1, 2, … with no repeat — and its report carries the
//! chunk-processing quantiles.

use std::sync::Arc;

use linkclust::core::coarse::coarse_sweep_instrumented;
use linkclust::core::json;
use linkclust::core::telemetry::trace::check_events;
use linkclust::core::telemetry::{
    Counter, Phase, RunRecorder, RunReport, Telemetry, TraceCollector, TraceLabel,
};
use linkclust::graph::generate::{gnm, WeightMode};
use linkclust::parallel::init::compute_similarities_on;
use linkclust::parallel::sort::parallel_into_sorted_pooled;
use linkclust::parallel::{ParallelChunkProcessor, WorkerPool};
use linkclust::{CoarseConfig, LinkClustering, WeightedGraph};

fn acceptance_graph() -> WeightedGraph {
    gnm(10_000, 50_000, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 42)
}

fn acceptance_config() -> CoarseConfig {
    CoarseConfig { phi: 200, initial_chunk: 64, ..Default::default() }
}

/// The in-memory timeline of a traced 4-thread run: monotone and nested
/// per tid, one lane per thread index, nothing dropped, and `pool_task`
/// numbers distinct and dense from 0. Returns the number of pool tasks.
fn check_timeline(collector: &TraceCollector) -> u64 {
    let events = collector.events();
    assert!(!events.is_empty(), "a traced run records events");
    check_events(&events).expect("monotone, properly nested per tid");
    let tids: std::collections::HashSet<u32> = events.iter().map(|e| e.tid).collect();
    assert!(tids.len() >= 2, "phase spans plus ≥1 worker thread, got tids {tids:?}");
    // Every dispatch starts fresh scoped threads, yet the run keeps one
    // lane per thread index — the caller and `worker-1..3` — and every
    // event fits its ring.
    let lanes = collector.thread_names();
    assert!(lanes.len() <= 4, "one trace lane per thread index, got {lanes:?}");
    assert_eq!(collector.dropped(), 0, "no trace event dropped");
    let mut seqs: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.label {
            TraceLabel::PoolTask { seq } => Some(seq),
            TraceLabel::Phase(_) => None,
        })
        .collect();
    assert!(!seqs.is_empty(), "pooled task executions appear on the timeline");
    seqs.sort_unstable();
    let dense: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, dense, "pool_task seqs are distinct and dense from 0");
    seqs.len() as u64
}

/// `phase` is on the timeline.
fn traced(collector: &TraceCollector, phase: Phase) -> bool {
    collector.events().iter().any(|e| e.label == TraceLabel::Phase(phase))
}

/// The artifact Perfetto loads: well-formed JSON in the Chrome envelope.
fn check_chrome_json(json: &str) {
    json::parse(json).expect("trace file is well-formed JSON");
    assert!(json.contains("\"traceEvents\""), "chrome trace envelope");
    assert!(json.contains("\"ph\":\"X\""), "complete events");
    assert!(json.contains("\"thread_name\""), "thread-name metadata");
}

/// The report's latency quantiles for `phases`: recorded, ordered,
/// positive and bounded by the phase total, in both renderings.
fn check_quantiles(report: &RunReport, phases: [Phase; 2]) {
    for phase in phases {
        assert!(report.phase_calls(phase) > 0, "{phase:?} recorded");
        let (p50, p90, p99) = (
            report.phase_quantile_nanos(phase, 0.5),
            report.phase_quantile_nanos(phase, 0.9),
            report.phase_quantile_nanos(phase, 0.99),
        );
        assert!(p50 <= p90 && p90 <= p99, "{phase:?} quantiles ordered: {p50} {p90} {p99}");
        assert!(p99 > 0, "{phase:?} p99 must be positive");
        assert!(p99 <= report.phase_nanos(phase), "{phase:?} p99 bounded by the phase total");
    }
    let json = report.to_json();
    assert!(json.contains("\"pool_queue_wait\""), "report JSON: {json}");
    assert!(json.contains("\"p99_nanos\""), "report JSON: {json}");
}

#[test]
fn traced_acceptance_run_produces_valid_chrome_trace_and_quantiles() {
    let g = acceptance_graph();
    let collector = Arc::new(TraceCollector::new());
    let trace_path =
        std::env::temp_dir().join(format!("linkclust-trace-structure-{}.json", std::process::id()));

    let result = LinkClustering::new()
        .threads(4)
        .stats(true)
        .tracer(Arc::clone(&collector))
        .trace(&trace_path)
        .run_coarse(&g, acceptance_config())
        .expect("traced 4-thread coarse run succeeds");

    let tasks = check_timeline(&collector);
    for phase in [Phase::InitPass2, Phase::Sort, Phase::CoarseEpoch, Phase::Sweep] {
        assert!(traced(&collector, phase), "{phase:?} appears on the timeline");
    }
    assert!(!traced(&collector, Phase::ChunkProcess), "the facade runs no chunk pipeline");

    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    check_chrome_json(&json);

    let report = result.report().expect("stats(true) attaches a report");
    assert_eq!(report.counter(Counter::PoolTasks), tasks, "one event per pool task");
    check_quantiles(report, [Phase::PoolQueueWait, Phase::CoarseEpoch]);
}

#[test]
fn traced_chunk_pipeline_numbers_tasks_once_across_two_pools() {
    let g = acceptance_graph();
    let collector = Arc::new(TraceCollector::new());
    let recorder = Arc::new(RunRecorder::new());
    let telemetry = Telemetry::new(recorder.clone()).with_tracer(Arc::clone(&collector));

    let pool = WorkerPool::new(4).with_telemetry(telemetry.clone());
    let sims = compute_similarities_on(&pool, &g, &telemetry);
    let sorted = parallel_into_sorted_pooled(&pool, sims, &telemetry);
    let mut processor = ParallelChunkProcessor::new(4).unwrap().telemetry(telemetry.clone());
    let result =
        coarse_sweep_instrumented(&g, &sorted, acceptance_config(), &mut processor, &telemetry);
    assert!(result.dendrogram().merge_count() > 0);

    let tasks = check_timeline(&collector);
    assert!(traced(&collector, Phase::ChunkProcess), "chunk processing appears on the timeline");
    check_chrome_json(&collector.to_chrome_json());

    let report = recorder.report();
    assert_eq!(report.counter(Counter::PoolTasks), tasks, "one event per pool task");
    check_quantiles(&report, [Phase::PoolQueueWait, Phase::ChunkProcess]);
}

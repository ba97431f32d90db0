//! Acceptance test for the event-tracing tentpole: a traced 4-thread
//! run on gnm(10 000, 50 000) must produce a Chrome trace-event JSON
//! file that loads in Perfetto — validated structurally here: events
//! monotone and properly nested (never partially overlapping) per tid,
//! every interval complete (the writer emits only `ph:"X"` events, so
//! there is no unmatched begin by construction), parseable JSON — and
//! the run report must expose p50/p90/p99 latencies for the pool
//! queue-wait and chunk-processing phases.

use std::sync::Arc;

use linkclust::core::json;
use linkclust::core::telemetry::trace::check_events;
use linkclust::core::telemetry::{Phase, TraceCollector, TraceLabel};
use linkclust::graph::generate::{gnm, WeightMode};
use linkclust::{CoarseConfig, LinkClustering};

#[test]
fn traced_acceptance_run_produces_valid_chrome_trace_and_quantiles() {
    let g = gnm(10_000, 50_000, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 42);
    let collector = Arc::new(TraceCollector::new());
    let trace_path =
        std::env::temp_dir().join(format!("linkclust-trace-structure-{}.json", std::process::id()));
    let cfg = CoarseConfig { phi: 200, initial_chunk: 64, ..Default::default() };

    let result = LinkClustering::new()
        .threads(4)
        .stats(true)
        .tracer(Arc::clone(&collector))
        .trace(&trace_path)
        .run_coarse(&g, cfg)
        .expect("traced 4-thread coarse run succeeds");

    // --- the in-memory timeline ---
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
    assert!(
        events.iter().any(|e| matches!(e.label, TraceLabel::PoolTask { .. })),
        "pooled task executions appear on the timeline"
    );
    assert!(
        events.iter().any(|e| e.label == TraceLabel::Phase(Phase::ChunkProcess)),
        "chunk processing appears on the timeline"
    );

    // --- the artifact Perfetto loads ---
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    json::parse(&json).expect("trace file is well-formed JSON");
    assert!(json.contains("\"traceEvents\""), "chrome trace envelope");
    assert!(json.contains("\"ph\":\"X\""), "complete events");
    assert!(json.contains("\"thread_name\""), "thread-name metadata");

    // --- the report's latency quantiles ---
    let report = result.report().expect("stats(true) attaches a report");
    for phase in [Phase::PoolQueueWait, Phase::ChunkProcess] {
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

    // The quantiles surface in both renderings of the report.
    let json = report.to_json();
    assert!(json.contains("\"pool_queue_wait\""), "report JSON: {json}");
    assert!(json.contains("\"p99_nanos\""), "report JSON: {json}");
}

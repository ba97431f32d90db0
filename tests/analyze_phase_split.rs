//! Acceptance test for the trace-analysis layer: `linkclust::analyze`
//! must reproduce the phase split of a traced run. Both the trace
//! spans and the run report's phase totals are fed by the same
//! telemetry spans, so for every phase large enough to measure, the
//! analyzer's per-name total must agree with the report's
//! `phase_nanos` within 5%.

use std::sync::Arc;

use linkclust::analyze::{analyze, parse_chrome_trace};
use linkclust::core::telemetry::{Phase, TraceCollector};
use linkclust::graph::generate::{gnm, WeightMode};
use linkclust::{CoarseConfig, LinkClustering};

#[test]
fn analyzer_reproduces_the_phase_split_within_five_percent() {
    let g = gnm(10_000, 50_000, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 42);
    let collector = Arc::new(TraceCollector::new());
    let trace_path =
        std::env::temp_dir().join(format!("linkclust-analyze-split-{}.json", std::process::id()));
    let cfg = CoarseConfig { phi: 200, initial_chunk: 64, ..Default::default() };

    let result = LinkClustering::new()
        .threads(4)
        .stats(true)
        .tracer(Arc::clone(&collector))
        .trace(&trace_path)
        .run_coarse(&g, cfg)
        .expect("traced 4-thread coarse run succeeds");
    let report = result.report().expect("stats(true) attaches a report");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let trace = parse_chrome_trace(&text).expect("the exporter's JSON parses back");
    assert_eq!(trace.events_dropped, 0, "drops would undercount the oldest spans");
    let analysis = analyze(&trace);
    assert!(analysis.events > 0 && analysis.wall_us > 0.0);

    // Phase split: analyzer total vs. report total, within 5% for every
    // *traced* phase big enough that timer granularity can't dominate
    // (1 ms). Phases fed to the report without a trace span (e.g.
    // pool_queue_wait, aggregated directly) have no timeline to check.
    let mut compared = 0;
    for phase in Phase::ALL {
        let Some(row) = analysis.phases.iter().find(|p| p.name == phase.name()) else {
            continue;
        };
        let report_us = report.phase_nanos(phase) as f64 / 1e3;
        let trace_us = row.total_us;
        if report_us < 1_000.0 && trace_us < 1_000.0 {
            continue;
        }
        let relative = (trace_us - report_us).abs() / report_us.max(1.0);
        assert!(
            relative <= 0.05,
            "{}: trace {trace_us:.1} µs vs report {report_us:.1} µs ({:.1}% off)",
            phase.name(),
            100.0 * relative
        );
        compared += 1;
    }
    assert!(compared >= 3, "at least a few phases are big enough to compare ({compared})");

    // Call counts agree exactly for a heavily traced phase: one span per
    // attempted epoch.
    let epochs = analysis
        .phases
        .iter()
        .find(|p| p.name == Phase::CoarseEpoch.name())
        .expect("coarse epochs appear on the timeline");
    assert_eq!(epochs.calls, report.phase_calls(Phase::CoarseEpoch));

    // Structural sanity of the derived measures.
    assert!(analysis.imbalance >= 1.0, "max/mean is at least 1 when any thread is busy");
    assert!((0.0..=1.0).contains(&analysis.queue_wait_share));
    assert!(analysis.critical_path_us > 0.0);
}

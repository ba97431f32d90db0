//! The unified facade contract: `threads(1)` is the exact serial
//! pipeline, bad configurations come back as [`ConfigError`] values
//! instead of panics, and the telemetry report's counters agree with
//! independently computed graph statistics and dendrogram totals.

use std::sync::Arc;

use linkclust::core::telemetry::{Counter, Phase, RunRecorder};
use linkclust::graph::generate::{gnm, planted_partition, WeightMode};
use linkclust::graph::stats::count_common_neighbor_pairs;
use linkclust::{CoarseConfig, ConfigError, EdgeOrder, LinkClustering, WeightedGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (6usize..30, 0u64..500).prop_map(|(n, seed)| {
        let m = n * (n - 1) / 3;
        gnm(n, m, WeightMode::Uniform { lo: 0.1, hi: 2.5 }, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `threads(1)` must produce the same dendrogram as the serial core
    /// facade, edge assignment for edge assignment — not just the same
    /// partition up to relabeling.
    #[test]
    fn one_thread_is_the_serial_pipeline(g in arb_graph()) {
        let serial = linkclust::core::LinkClustering::new().run(&g);
        let unified = LinkClustering::new().threads(1).run(&g).unwrap();
        prop_assert_eq!(serial.edge_assignments(), unified.edge_assignments());
        prop_assert_eq!(serial.dendrogram(), unified.dendrogram());
    }

    /// The same holds under a non-default edge order and a similarity
    /// threshold.
    #[test]
    fn one_thread_matches_serial_with_options(g in arb_graph(), seed in 0u64..64) {
        let order = EdgeOrder::Shuffled { seed };
        let serial = linkclust::core::LinkClustering::new()
            .edge_order(order)
            .min_similarity(0.2)
            .run(&g);
        let unified = LinkClustering::new()
            .edge_order(order)
            .min_similarity(0.2)
            .run(&g)
            .unwrap();
        prop_assert_eq!(serial.edge_assignments(), unified.edge_assignments());
    }
}

#[test]
fn report_counters_match_graph_statistics() {
    for seed in [1u64, 5, 9] {
        let g = gnm(60, 400, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        for threads in [1usize, 4] {
            let r = LinkClustering::new().threads(threads).stats(true).run(&g).unwrap();
            let report = r.report().expect("stats(true) attaches a report");
            assert_eq!(
                report.counter(Counter::PairsK1),
                count_common_neighbor_pairs(&g),
                "seed {seed} threads {threads}"
            );
            assert_eq!(
                report.counter(Counter::IncidentPairsK2),
                r.similarities().incident_pair_count()
            );
            assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
            for phase in
                [Phase::InitPass1, Phase::InitPass2, Phase::InitPass3, Phase::Sort, Phase::Sweep]
            {
                assert_eq!(report.phase_calls(phase), 1, "{phase:?}");
            }
        }
    }
}

#[test]
fn coarse_report_counters_match_dendrogram() {
    let planted = planted_partition(5, 10, 0.7, 0.01, 3);
    let g = &planted.graph;
    let cfg = CoarseConfig { phi: 5, initial_chunk: 16, ..Default::default() };
    for threads in [1usize, 3] {
        let r = LinkClustering::new().threads(threads).stats(true).run_coarse(g, cfg).unwrap();
        let report = r.report().expect("report attached");
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(report.counter(Counter::LevelsCommitted), r.levels().len() as u64);
        let b = r.epoch_breakdown();
        assert_eq!(report.counter(Counter::EpochsCommitted), (b.head_fresh + b.tail_fresh) as u64);
        assert_eq!(report.counter(Counter::Rollbacks), b.rollback as u64);
    }
}

#[test]
fn bad_configurations_are_errors_not_panics() {
    let g = gnm(12, 30, WeightMode::Unit, 0);

    assert_eq!(LinkClustering::new().threads(0).run(&g).unwrap_err(), ConfigError::ZeroThreads);
    assert_eq!(
        LinkClustering::new()
            .run_coarse(&g, CoarseConfig { gamma: 0.5, ..Default::default() })
            .unwrap_err(),
        ConfigError::InvalidGamma(0.5)
    );
    assert_eq!(
        LinkClustering::new()
            .run_coarse(&g, CoarseConfig { phi: 0, ..Default::default() })
            .unwrap_err(),
        ConfigError::ZeroPhi
    );
    assert_eq!(
        LinkClustering::new()
            .run_coarse(&g, CoarseConfig { initial_chunk: 0, ..Default::default() })
            .unwrap_err(),
        ConfigError::ZeroChunk
    );
    // Conflicting explicit edge orders are rejected, not silently
    // overwritten.
    assert_eq!(
        LinkClustering::new()
            .edge_order(EdgeOrder::Shuffled { seed: 1 })
            .run_coarse(
                &g,
                CoarseConfig { edge_order: EdgeOrder::Shuffled { seed: 2 }, ..Default::default() },
            )
            .unwrap_err(),
        ConfigError::EdgeOrderConflict
    );
    // The builder validates too (NaN compares unequal to itself, so
    // match structurally).
    assert!(matches!(
        CoarseConfig::builder().gamma(f64::NAN).build(),
        Err(ConfigError::InvalidGamma(gamma)) if gamma.is_nan()
    ));
}

#[test]
fn custom_recorder_and_stats_agree() {
    let g = gnm(40, 200, WeightMode::Uniform { lo: 0.3, hi: 1.7 }, 8);
    let sink = Arc::new(RunRecorder::new());
    let custom = LinkClustering::new().threads(2).recorder(sink.clone()).run(&g).unwrap();
    assert!(custom.report().is_none(), "custom sinks bypass the built-in report");
    let stats = LinkClustering::new().threads(2).stats(true).run(&g).unwrap();
    let report = stats.report().expect("report attached");
    // Deterministic counters agree between the two sinks.
    let from_custom = sink.report();
    for counter in [Counter::PairsK1, Counter::IncidentPairsK2, Counter::MergesApplied] {
        assert_eq!(from_custom.counter(counter), report.counter(counter), "{counter:?}");
    }
    // And the JSON rendering names every phase.
    let json = report.to_json();
    for key in ["init_pass1", "sort", "sweep", "pairs_k1", "merges_applied"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

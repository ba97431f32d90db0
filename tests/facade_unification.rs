//! The facade contract: every thread count, `threads(1)` included,
//! gives Algorithm 2's dendrogram merge for merge, bad configurations
//! come back as [`ConfigError`] values instead of panics, and the
//! telemetry report's counters agree with independently computed graph
//! statistics and dendrogram totals.

use std::sync::Arc;

use linkclust::core::sweep::{sweep_with, SweepOutput};
use linkclust::core::telemetry::{Counter, Phase, RunRecorder, Telemetry};
use linkclust::graph::generate::{gnm, planted_partition, WeightMode};
use linkclust::graph::stats::count_common_neighbor_pairs;
use linkclust::{
    compute_similarities, CoarseConfig, ConfigError, CsrGraph, EdgeOrder, LinkClustering,
    SweepConfig, WeightedGraph,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (6usize..30, 0u64..500).prop_map(|(n, seed)| {
        let m = n * (n - 1) / 3;
        gnm(n, m, WeightMode::Uniform { lo: 0.1, hi: 2.5 }, seed)
    })
}

/// Algorithm 2 (the chain-array sweep) over the serial Phase I's list.
fn algorithm_2(g: &WeightedGraph, config: SweepConfig) -> SweepOutput {
    sweep_with(g, &compute_similarities(g).into_sorted(), config, &Telemetry::disabled())
}

fn score_bits(output: &SweepOutput) -> Vec<u64> {
    output.merge_scores().iter().map(|s| s.to_bits()).collect()
}

/// Thread counts of the facade tests: one pipeline serves them all,
/// with the serial Phase I at one thread and the sharded one above.
const THREADS: [usize; 3] = [1, 2, 3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `threads(1)` must produce Algorithm 2's dendrogram, merge for
    /// merge, scores and slots included, and so its edge assignments —
    /// not just the same partition up to relabeling. So must every
    /// other thread count.
    #[test]
    fn one_thread_is_the_serial_pipeline(g in arb_graph()) {
        let oracle = algorithm_2(&g, SweepConfig::default());
        for threads in THREADS {
            let unified = LinkClustering::new().threads(threads).run(&g).unwrap();
            prop_assert_eq!(oracle.edge_assignments(), unified.edge_assignments(), "t={}", threads);
            prop_assert_eq!(oracle.dendrogram(), unified.dendrogram(), "t={}", threads);
            prop_assert_eq!(score_bits(&oracle), score_bits(unified.output()), "t={}", threads);
            prop_assert_eq!(oracle.slot_of_edge(), unified.output().slot_of_edge(), "t={}", threads);
        }
    }

    /// The same holds under a non-default edge order and a similarity
    /// threshold.
    #[test]
    fn one_thread_matches_serial_with_options(g in arb_graph(), seed in 0u64..64) {
        let order = EdgeOrder::Shuffled { seed };
        let oracle = algorithm_2(&g, SweepConfig { edge_order: order, min_similarity: Some(0.2) });
        for threads in THREADS {
            let unified = LinkClustering::new()
                .threads(threads)
                .edge_order(order)
                .min_similarity(0.2)
                .run(&g)
                .unwrap();
            prop_assert_eq!(oracle.edge_assignments(), unified.edge_assignments(), "t={}", threads);
            prop_assert_eq!(oracle.dendrogram(), unified.dendrogram(), "t={}", threads);
            prop_assert_eq!(score_bits(&oracle), score_bits(unified.output()), "t={}", threads);
            prop_assert_eq!(oracle.slot_of_edge(), unified.output().slot_of_edge(), "t={}", threads);
        }
    }
}

/// The facade borrows the graph: every method accepts `&&g` for a local
/// `CsrGraph` `g` — so `G = &CsrGraph`, a borrow that is not `'static`
/// — at every thread count, and matches the run over the graph itself.
#[test]
fn facade_borrows_the_graph_at_every_thread_count() {
    let g = CsrGraph::from_weighted(&gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 4));
    let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
    for threads in [1usize, 2, 4] {
        let facade = LinkClustering::new().threads(threads);
        let owned = facade.run(&g).unwrap();
        let lent = facade.run(&&g).unwrap();
        assert_eq!(owned.dendrogram(), lent.dendrogram(), "threads {threads}");
        assert_eq!(score_bits(owned.output()), score_bits(lent.output()), "threads {threads}");
        assert_eq!(owned.output().slot_of_edge(), lent.output().slot_of_edge());
        let owned = facade.run_coarse(&g, cfg).unwrap();
        let lent = facade.run_coarse(&&g, cfg).unwrap();
        assert_eq!(owned.levels(), lent.levels(), "threads {threads}");
        let owned = facade.similarities(&g).unwrap();
        assert_eq!(owned, facade.similarities(&&g).unwrap(), "threads {threads}");
    }

    // `similarities()` at `threads(1)` is the serial Phase I: the same
    // list, and none of the sharded pass's telemetry.
    let recorder = Arc::new(RunRecorder::new());
    let sims = LinkClustering::new().recorder(recorder.clone()).similarities(&&g).unwrap();
    assert_eq!(sims, compute_similarities(&g).into_sorted());
    let report = recorder.report();
    assert_eq!(report.phase_calls(Phase::InitPass2), 1);
    assert_eq!(report.phase_calls(Phase::Sort), 1);
    assert_eq!(report.phase_calls(Phase::InitShardFold), 0);
    assert_eq!(report.counter(Counter::ShardRecords), 0);
}

#[test]
fn report_counters_match_graph_statistics() {
    for seed in [1u64, 5, 9] {
        let g = gnm(60, 400, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        for threads in [1usize, 4] {
            let facade = LinkClustering::new().threads(threads);
            assert!(facade.run(&g).unwrap().report().is_none(), "stats are off by default");
            let r = facade.stats(true).run(&g).unwrap();
            let report = r.report().expect("stats(true) attaches a report");
            assert_eq!(
                report.counter(Counter::PairsK1),
                count_common_neighbor_pairs(&g),
                "seed {seed} threads {threads}"
            );
            // The result exposes `L` itself: sorted, one entry per pair.
            assert!(r.similarities().is_sorted());
            assert_eq!(r.similarities().len() as u64, count_common_neighbor_pairs(&g));
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

/// The exact sweep's set-up (edge index, component count, slot
/// permutation) is one `SweepSetup` span per run, nested in the
/// `Sweep` span, at every thread count.
#[test]
fn sweep_setup_is_recorded_once_per_run_inside_the_sweep() {
    let g = gnm(60, 400, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
    for threads in [1usize, 2] {
        for _ in 0..2 {
            let r = LinkClustering::new().threads(threads).stats(true).run(&g).unwrap();
            let report = r.report().expect("stats(true) attaches a report");
            assert_eq!(report.phase_calls(Phase::Sweep), 1, "threads {threads}");
            assert_eq!(report.phase_calls(Phase::SweepSetup), 1, "threads {threads}");
            assert!(
                report.phase_nanos(Phase::SweepSetup) <= report.phase_nanos(Phase::Sweep),
                "threads {threads}: the set-up is part of the sweep"
            );
        }
    }
}

/// The coarse report's counters add up to the result's epochs, levels
/// and merges at every thread count, and each attempted epoch (one
/// `CoarseEpoch` span) hands exactly one chunk to the chunk processor.
#[test]
fn coarse_report_counters_match_dendrogram() {
    let planted = planted_partition(5, 10, 0.7, 0.01, 3);
    let g = &planted.graph;
    let cfg = CoarseConfig { phi: 5, initial_chunk: 16, ..Default::default() };
    for threads in THREADS {
        let r = LinkClustering::new().threads(threads).stats(true).run_coarse(g, cfg).unwrap();
        let report = r.report().expect("report attached");
        assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
        assert_eq!(report.counter(Counter::LevelsCommitted), r.levels().len() as u64);
        let b = r.epoch_breakdown();
        assert_eq!(report.counter(Counter::EpochsCommitted), (b.head_fresh + b.tail_fresh) as u64);
        assert_eq!(report.counter(Counter::Rollbacks), b.rollback as u64);
        assert_eq!(report.counter(Counter::EpochsReused), b.reused as u64);
        let attempted = report.phase_calls(Phase::CoarseEpoch);
        assert_eq!(attempted as usize, r.epochs().len() - b.reused, "threads {threads}");
        assert_eq!(report.counter(Counter::ChunksProcessed), attempted, "threads {threads}");
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
    // A NaN threshold would silently mean "no threshold"; every run
    // method refuses it at every thread count. ±∞ stay valid.
    let nan = |e: ConfigError| matches!(e, ConfigError::InvalidThreshold(t) if t.is_nan());
    for threads in [1, 2] {
        let facade = LinkClustering::new().threads(threads).min_similarity(f64::NAN);
        assert!(nan(facade.run(&g).unwrap_err()), "threads {threads}");
        assert!(nan(facade.run_coarse(&g, CoarseConfig::default()).unwrap_err()));
        assert!(nan(facade.similarities(&g).unwrap_err()), "threads {threads}");
        let none = LinkClustering::new().threads(threads).min_similarity(f64::INFINITY);
        assert_eq!(none.run(&g).unwrap().dendrogram().merge_count(), 0);
        let all = LinkClustering::new().threads(threads).min_similarity(f64::NEG_INFINITY);
        let unthresholded = LinkClustering::new().threads(threads).run(&g).unwrap();
        assert_eq!(all.run(&g).unwrap().dendrogram(), unthresholded.dendrogram());
    }
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

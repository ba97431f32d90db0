//! Engine equivalence: the parallel union-find sweep engine must be
//! indistinguishable from the serial sweep oracle — the dendrogram
//! (levels, left/right/into labels), the per-merge scores (compared as
//! bits), and every downstream cut must be **identical**, not merely
//! equal up to relabeling, at every thread count and on every graph
//! backend.

use std::sync::Arc;

use linkclust::core::sweep::{sweep_with, SweepConfig, SweepOutput};
use linkclust::core::telemetry::Telemetry;
use linkclust::graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust::parallel::pool::WorkerPool;
use linkclust::parallel::ufsweep::ufsweep_with;
use linkclust::{CsrGraph, LinkClustering, WeightedGraph};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One workload per generator family of the scale ladder.
fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    vec![
        ("gnm", gnm(60, 240, w, 7)),
        ("barabasi_albert", barabasi_albert(80, 4, w, 3)),
        ("lfr_like", lfr_like(120, 8, 0.2, 11).graph),
    ]
}

/// The facade's sweep at `threads >= 2`: the union-find engine.
fn facade_output(g: &WeightedGraph, threads: usize) -> SweepOutput {
    LinkClustering::new().threads(threads).run(g).unwrap().output().clone()
}

/// The union-find engine on a 1-thread pool, driven directly: the
/// facade runs the serial sweep at `threads(1)`.
fn ufsweep_on_one_thread(g: &WeightedGraph) -> SweepOutput {
    let sims = Arc::new(LinkClustering::new().similarities(g).unwrap());
    let pool = Arc::new(WorkerPool::new(1));
    ufsweep_with(g, &sims, SweepConfig::default(), &pool, &Telemetry::disabled())
}

/// The serial sweep over the list a 4-thread Phase I built.
fn serial_sweep_of_parallel_list(g: &WeightedGraph) -> SweepOutput {
    let sims = LinkClustering::new().threads(4).similarities(g).unwrap();
    sweep_with(g, &sims, SweepConfig::default(), &Telemetry::disabled())
}

fn score_bits(output: &SweepOutput) -> Vec<u64> {
    output.merge_scores().iter().map(|s| s.to_bits()).collect()
}

#[test]
fn ufsweep_dendrogram_is_bit_identical_to_serial_at_every_thread_count() {
    for (name, g) in workloads() {
        let serial = LinkClustering::new().run(&g).unwrap();
        for threads in THREADS {
            let par =
                if threads == 1 { ufsweep_on_one_thread(&g) } else { facade_output(&g, threads) };
            assert_eq!(
                serial.dendrogram(),
                par.dendrogram(),
                "{name} t={threads}: dendrogram diverged from the serial oracle"
            );
            assert_eq!(
                score_bits(serial.output()),
                score_bits(&par),
                "{name} t={threads}: merge scores diverged"
            );
            assert_eq!(serial.output().slot_of_edge(), par.slot_of_edge(), "{name} t={threads}");
        }
    }
}

#[test]
fn ufsweep_is_bit_identical_on_the_csr_backend() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        let serial = LinkClustering::new().run(&g).unwrap();
        for threads in [2, 4] {
            let par = LinkClustering::new().threads(threads).run(&csr).unwrap();
            assert_eq!(serial.dendrogram(), par.dendrogram(), "{name} t={threads} via CSR");
        }
    }
}

/// Cut paths (`edge_assignments_at_similarity` and level cuts) must
/// behave identically on dendrograms from either engine — the
/// satellites' cross-engine cut-equivalence check, at several
/// thresholds, on all three ladder families.
#[test]
fn cuts_are_identical_across_engines_at_several_thresholds() {
    for (name, g) in workloads() {
        let serial = LinkClustering::new().run(&g).unwrap();
        let engines =
            [serial_sweep_of_parallel_list(&g), facade_output(&g, 4), ufsweep_on_one_thread(&g)];
        for (which, par) in engines.iter().enumerate() {
            assert_eq!(score_bits(serial.output()), score_bits(par), "{name} engine #{which}");
            for theta in [0.2, 0.35, 0.5, 0.7, 0.9] {
                assert_eq!(
                    serial.output().edge_assignments_at_similarity(theta),
                    par.edge_assignments_at_similarity(theta),
                    "{name} engine #{which} theta {theta}"
                );
            }
            let levels = serial.dendrogram().merge_count();
            for level in [0, levels / 2, levels] {
                assert_eq!(
                    serial.output().edge_assignments_at_level(level as u32),
                    par.edge_assignments_at_level(level as u32),
                    "{name} engine #{which} level {level}"
                );
            }
            assert_eq!(serial.edge_assignments(), par.edge_assignments(), "{name} #{which}");
        }
    }
}

/// Threshold configs must also agree between engines (the ufsweep
/// engine cuts the entry list before partitioning, the serial sweep
/// breaks at the first below-threshold entry — the same prefix either
/// way).
#[test]
fn min_similarity_configs_agree_across_engines() {
    let g = gnm(50, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 23);
    // θ = 2.0 is above every Tanimoto score: no live entries, so no
    // blocks and no candidates.
    for theta in [0.25, 0.5, 0.75, 2.0] {
        let serial = LinkClustering::new().min_similarity(theta).run(&g).unwrap();
        for threads in [4, 8] {
            let par = LinkClustering::new().threads(threads).min_similarity(theta).run(&g).unwrap();
            assert_eq!(serial.dendrogram(), par.dendrogram(), "theta {theta} t={threads}");
            assert_eq!(
                score_bits(serial.output()),
                score_bits(par.output()),
                "theta {theta} t={threads}"
            );
        }
    }
}

//! Exact-sweep equivalence: the facade's sweep — one Kruskal pass at
//! every thread count, over the list Phase I built on that many threads
//! — must be indistinguishable from Algorithm 2 (`sweep_with`, the
//! oracle): the dendrogram (levels, left/right/into labels), the
//! per-merge scores (compared as bits), the slot permutation and every
//! downstream cut must be **identical**, not merely equal up to
//! relabeling, at every thread count and on every graph backend —
//! including where the sweep stops early because the merge forest is
//! complete.

use linkclust::core::sweep::{sweep_with, EdgeOrder, SweepConfig, SweepOutput};
use linkclust::core::telemetry::{Counter, Telemetry};
use linkclust::graph::algo::edge_component_count;
use linkclust::graph::generate::{barabasi_albert, complete, gnm, lfr_like, WeightMode};
use linkclust::graph::{EdgeId, GraphBuilder, GraphView, VertexId};
use linkclust::{compute_similarities, CsrGraph, LinkClustering, WeightedGraph};

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

/// Algorithm 2 on the serial Phase I's list: the oracle.
fn algorithm_2(g: &WeightedGraph, config: SweepConfig) -> SweepOutput {
    sweep_with(g, &compute_similarities(g).into_sorted(), config, &Telemetry::disabled())
}

/// The facade's sweep at `threads`.
fn facade_output(g: &WeightedGraph, threads: usize) -> SweepOutput {
    LinkClustering::new().threads(threads).run(g).unwrap().output().clone()
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
fn dendrogram_is_bit_identical_to_algorithm_2_at_every_thread_count() {
    for (name, g) in workloads() {
        let serial = algorithm_2(&g, SweepConfig::default());
        for threads in THREADS {
            let par = facade_output(&g, threads);
            assert_eq!(
                serial.dendrogram(),
                par.dendrogram(),
                "{name} t={threads}: dendrogram diverged from the serial oracle"
            );
            assert_eq!(
                score_bits(&serial),
                score_bits(&par),
                "{name} t={threads}: merge scores diverged"
            );
            assert_eq!(serial.slot_of_edge(), par.slot_of_edge(), "{name} t={threads}");
        }
    }
}

#[test]
fn sweep_is_bit_identical_on_the_csr_backend() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        let serial = algorithm_2(&g, SweepConfig::default());
        for threads in [1, 2, 4] {
            let par = LinkClustering::new().threads(threads).run(&csr).unwrap();
            assert_eq!(serial.dendrogram(), par.dendrogram(), "{name} t={threads} via CSR");
            assert_eq!(score_bits(&serial), score_bits(par.output()), "{name} t={threads} CSR");
        }
    }
}

/// Cut paths (`edge_assignments_at_similarity` and level cuts) must
/// behave identically on dendrograms from either engine — Algorithm 2
/// over a parallel Phase I's list, and the facade at 4 threads and at 1
/// — at several thresholds, on all three ladder families.
#[test]
fn cuts_are_identical_across_engines_at_several_thresholds() {
    for (name, g) in workloads() {
        let serial = algorithm_2(&g, SweepConfig::default());
        let engines =
            [serial_sweep_of_parallel_list(&g), facade_output(&g, 4), facade_output(&g, 1)];
        for (which, par) in engines.iter().enumerate() {
            assert_eq!(score_bits(&serial), score_bits(par), "{name} engine #{which}");
            for theta in [0.2, 0.35, 0.5, 0.7, 0.9] {
                assert_eq!(
                    serial.edge_assignments_at_similarity(theta),
                    par.edge_assignments_at_similarity(theta),
                    "{name} engine #{which} theta {theta}"
                );
            }
            let levels = serial.dendrogram().merge_count();
            for level in [0, levels / 2, levels] {
                assert_eq!(
                    serial.edge_assignments_at_level(level as u32),
                    par.edge_assignments_at_level(level as u32),
                    "{name} engine #{which} level {level}"
                );
            }
            assert_eq!(serial.edge_assignments(), par.edge_assignments(), "{name} #{which}");
        }
    }
}

/// Threshold configs must also agree between engines (Algorithm 2 and
/// the Kruskal pass both break at the first below-threshold entry).
#[test]
fn min_similarity_configs_agree_across_engines() {
    let g = gnm(50, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 23);
    // θ = 2.0 is above every Tanimoto score: no live entries at all.
    for theta in [0.25, 0.5, 0.75, 2.0] {
        let config = SweepConfig { min_similarity: Some(theta), ..Default::default() };
        let serial = algorithm_2(&g, config);
        for threads in [1, 4, 8] {
            let par = LinkClustering::new().threads(threads).min_similarity(theta).run(&g).unwrap();
            assert_eq!(serial.dendrogram(), par.dendrogram(), "theta {theta} t={threads}");
            assert_eq!(score_bits(&serial), score_bits(par.output()), "theta {theta} t={threads}");
        }
    }
}

/// The disjoint union of `parts`, followed by `isolated` vertices with
/// no edge.
fn disjoint_union(parts: &[WeightedGraph], isolated: usize) -> WeightedGraph {
    let n: usize = parts.iter().map(GraphView::vertex_count).sum();
    let mut b = GraphBuilder::with_vertices(n + isolated);
    let mut offset = 0;
    for part in parts {
        for e in (0..part.edge_count()).map(EdgeId::new) {
            let (u, v) = part.edge_endpoints(e);
            let (u, v) = (VertexId::new(u.index() + offset), VertexId::new(v.index() + offset));
            b.add_edge(u, v, part.edge_weight(e)).expect("the parts' edges are valid");
        }
        offset += part.vertex_count();
    }
    b.build()
}

/// Inputs whose merge forest completes before the end of `L`: a
/// disconnected graph with isolated vertices, and two dense graphs.
fn stop_inputs() -> Vec<(String, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let mut out = Vec::new();
    for seed in [1, 3] {
        let parts = [gnm(20, 60, w, seed), gnm(15, 40, w, seed + 10)];
        out.push((format!("two gnm + isolated, seed {seed}"), disjoint_union(&parts, 5)));
        out.push((format!("complete(16), seed {seed}"), complete(16, w, seed)));
        out.push((format!("gnm(30, 300), seed {seed}"), gnm(30, 300, w, seed)));
    }
    out
}

/// Bit-identity with Algorithm 2 where the stop rule fires, through the
/// facade at every thread count, on both graph backends, under both edge
/// orders and four thresholds. Every thread count also records the same
/// merge and processed-pair counts.
#[test]
fn stop_rule_is_bit_identical_to_algorithm_2() {
    let orders = [EdgeOrder::Insertion, EdgeOrder::Shuffled { seed: 5 }];
    for (name, g) in stop_inputs() {
        let csr = CsrGraph::from_weighted(&g);
        let sims = compute_similarities(&g).into_sorted();
        let target = (g.edge_count() - edge_component_count(&g)) as u64;
        for (edge_order, min_similarity) in
            orders.into_iter().flat_map(|o| [None, Some(0.3), Some(0.6), Some(2.0)].map(|t| (o, t)))
        {
            let config = SweepConfig { edge_order, min_similarity };
            let oracle = sweep_with(&g, &sims, config, &Telemetry::disabled());
            if min_similarity.is_none() {
                assert_eq!(oracle.dendrogram().merge_count(), target, "{name}");
            }
            let oracle_bits = score_bits(&oracle);
            let mut counts = None;
            for threads in [1, 2, 3, 5, 8] {
                let mut facade =
                    LinkClustering::new().threads(threads).edge_order(edge_order).stats(true);
                if let Some(theta) = min_similarity {
                    facade = facade.min_similarity(theta);
                }
                let runs = [facade.run(&g), facade.run(&csr)];
                for (backend, r) in ["adjacency", "csr"].into_iter().zip(runs) {
                    let r = r.expect("valid configuration");
                    let at = format!("{name} {config:?} t={threads} {backend}");
                    let out = r.output();
                    assert_eq!(out.dendrogram(), oracle.dendrogram(), "{at}");
                    assert_eq!(score_bits(out), oracle_bits, "{at}");
                    assert_eq!(out.slot_of_edge(), oracle.slot_of_edge(), "{at}");
                    let report = r.report().expect("stats(true) attaches a report");
                    let seen = (
                        report.counter(Counter::MergesApplied),
                        report.counter(Counter::PairsProcessed),
                    );
                    assert_eq!(*counts.get_or_insert(seen), seen, "{at}");
                }
            }
        }
    }
}

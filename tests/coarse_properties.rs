//! Property tests for coarse-grained clustering (§V): soundness,
//! partition consistency, epoch accounting, Theorem-2-style work bounds
//! on the cluster array, and the facade's stream against the chunk
//! pipeline it replaces.

use linkclust::core::reference::canonical_labels;
use linkclust::graph::generate::{barabasi_albert, complete, gnm, WeightMode};
use linkclust::graph::stats::GraphStats;
use linkclust::{
    coarse_sweep, compute_similarities, parallel_coarse_sweep, sweep, CoarseConfig, CoarseResult,
    EdgeId, EdgeOrder, GraphBuilder, GraphView, LinkClustering, SweepConfig, WeightedGraph,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (6usize..32, 0u64..500).prop_map(|(n, seed)| {
        let m = n * (n - 1) / 3;
        gnm(n, m, WeightMode::Uniform { lo: 0.1, hi: 2.5 }, seed)
    })
}

fn arb_config() -> impl Strategy<Value = CoarseConfig> {
    (1u64..40, 1.2f64..4.0, 1usize..12).prop_map(|(chunk, gamma, phi)| CoarseConfig {
        gamma,
        phi,
        initial_chunk: chunk,
        ..Default::default()
    })
}

fn canon(labels: &[u32]) -> Vec<usize> {
    canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
}

/// The disjoint union of `parts`, each part's vertex ids offset past the
/// previous parts'.
fn disjoint_union(parts: &[WeightedGraph]) -> WeightedGraph {
    let mut edges = Vec::new();
    let mut offset = 0;
    for part in parts {
        for e in (0..part.edge_count()).map(EdgeId::new) {
            let (u, v) = part.edge_endpoints(e);
            edges.push((offset + u.index(), offset + v.index(), part.edge_weight(e)));
        }
        offset += part.vertex_count();
    }
    GraphBuilder::from_edges(offset, &edges).expect("disjoint parts share no edge").build()
}

/// One to twelve disjoint G(n, n(n−1)/3) parts: with several parts the
/// edge-component count c can exceed φ, so the mode machine keeps
/// running after the merge forest is complete.
fn arb_parted_graph() -> impl Strategy<Value = WeightedGraph> {
    (1usize..13, 5usize..16, 0u64..500).prop_map(|(parts, n, seed)| {
        let w = WeightMode::Uniform { lo: 0.1, hi: 2.5 };
        let parts: Vec<_> =
            (0..parts as u64).map(|i| gnm(n, n * (n - 1) / 3, w, seed * 16 + i)).collect();
        disjoint_union(&parts)
    })
}

/// Configurations that reach every path of the mode machine: δ₀ = 1 (a
/// quarter of the cases; its first epoch is forced), rollback lists of
/// one, two or 64 states, and insertion or shuffled edge order.
fn arb_oracle_config() -> impl Strategy<Value = CoarseConfig> {
    (0u64..40, 1.2f64..4.0, 1usize..12, 0usize..3, 0u64..2000).prop_map(
        |(chunk, gamma, phi, cap, order)| CoarseConfig {
            gamma,
            phi,
            initial_chunk: if chunk < 10 { 1 } else { chunk },
            max_rollback_states: [1, 2, 64][cap],
            edge_order: if order < 1000 {
                EdgeOrder::Insertion
            } else {
                EdgeOrder::Shuffled { seed: order }
            },
            ..Default::default()
        },
    )
}

/// `run_coarse` at threads {1, 2, 3} against the chunk pipeline, serial
/// ([`coarse_sweep`]) and on two threads ([`parallel_coarse_sweep`]):
/// the same levels, epochs, processed-fraction bits, slot permutation,
/// and partition at every level.
fn assert_facade_matches_chunk_pipeline(g: &WeightedGraph, cfg: CoarseConfig) {
    let sims = compute_similarities(g).into_sorted();
    let oracle = coarse_sweep(g, &sims, cfg);
    let partitions: Vec<Vec<u32>> =
        oracle.levels().iter().map(|l| oracle.dendrogram().assignments_at_level(l.level)).collect();
    let mut runs =
        vec![("parallel_coarse_sweep t=2".to_string(), parallel_coarse_sweep(g, &sims, cfg, 2))];
    for threads in [1, 2, 3] {
        let facade = LinkClustering::new().threads(threads).run_coarse(g, cfg).unwrap();
        runs.push((format!("run_coarse t={threads}"), facade));
    }
    for (name, run) in &runs {
        assert_same_trajectory(&oracle, &partitions, run, name);
    }
}

fn assert_same_trajectory(
    oracle: &CoarseResult,
    partitions: &[Vec<u32>],
    run: &CoarseResult,
    name: &str,
) {
    assert_eq!(run.levels(), oracle.levels(), "{name}: levels");
    assert_eq!(run.epochs(), oracle.epochs(), "{name}: epochs");
    assert_eq!(
        run.processed_fraction().to_bits(),
        oracle.processed_fraction().to_bits(),
        "{name}: processed fraction"
    );
    assert_eq!(run.output().slot_of_edge(), oracle.output().slot_of_edge(), "{name}: slots");
    assert_eq!(run.dendrogram().merge_count(), oracle.dendrogram().merge_count(), "{name}");
    for (l, expected) in oracle.levels().iter().zip(partitions) {
        let got = run.dendrogram().assignments_at_level(l.level);
        assert_eq!(&got, expected, "{name}: partition at level {}", l.level);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn soundness_holds_outside_forced_epochs(g in arb_graph(), cfg in arb_config()) {
        let sims = compute_similarities(&g).into_sorted();
        let r = coarse_sweep(&g, &sims, cfg);
        let rate = r.max_unforced_merge_rate();
        prop_assert!(rate <= cfg.gamma + 1e-9, "rate {} > gamma {}", rate, cfg.gamma);
    }

    #[test]
    fn cluster_counts_monotone_and_consistent(g in arb_graph(), cfg in arb_config()) {
        let sims = compute_similarities(&g).into_sorted();
        let r = coarse_sweep(&g, &sims, cfg);
        let mut prev = g.edge_count();
        for l in r.levels() {
            prop_assert!(l.clusters <= prev, "cluster counts must not increase");
            prev = l.clusters;
        }
        if let Some(last) = r.levels().last() {
            prop_assert_eq!(r.dendrogram().final_cluster_count(), last.clusters);
        }
        prop_assert!(r.processed_fraction() <= 1.0 + 1e-12);
    }

    #[test]
    fn coarse_partition_is_a_fine_partition_prefix(g in arb_graph(), cfg in arb_config()) {
        // Cutting the fine dendrogram at the same merge count must give
        // the identical partition, whatever path the mode machine took.
        let sims = compute_similarities(&g).into_sorted();
        let coarse = coarse_sweep(&g, &sims, cfg);
        let fine = sweep(&g, &sims, SweepConfig::default());
        let merges = coarse.dendrogram().merge_count() as u32;
        prop_assert_eq!(
            canon(&coarse.output().edge_assignments()),
            canon(&fine.edge_assignments_at_level(merges))
        );
    }

    #[test]
    fn epoch_accounting_balances(g in arb_graph(), cfg in arb_config()) {
        let sims = compute_similarities(&g).into_sorted();
        let r = coarse_sweep(&g, &sims, cfg);
        let b = r.epoch_breakdown();
        prop_assert_eq!(b.head_fresh + b.tail_fresh + b.reused, r.levels().len());
        prop_assert_eq!(
            b.head_fresh + b.tail_fresh + b.reused + b.rollback,
            r.epochs().len()
        );
        // Committed epochs carry strictly increasing levels 1..=n.
        for (i, l) in r.levels().iter().enumerate() {
            prop_assert_eq!(l.level as usize, i + 1);
        }
    }

    #[test]
    fn phi_controls_termination(g in arb_graph()) {
        let sims = compute_similarities(&g).into_sorted();
        let strict = CoarseConfig { phi: 1, initial_chunk: 8, ..Default::default() };
        let loose = CoarseConfig { phi: g.edge_count().max(1), initial_chunk: 8, ..Default::default() };
        let r_strict = coarse_sweep(&g, &sims, strict);
        let r_loose = coarse_sweep(&g, &sims, loose);
        // A looser phi can only stop earlier (fewer pairs processed).
        prop_assert!(r_loose.processed_fraction() <= r_strict.processed_fraction() + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The facade reads its coarse trajectory off the exact merge
    /// stream; the chunk pipeline is its oracle.
    #[test]
    fn run_coarse_matches_the_chunk_pipeline(g in arb_parted_graph(), cfg in arb_oracle_config()) {
        assert_facade_matches_chunk_pipeline(&g, cfg);
    }
}

/// The oracle at the perfbench sparse shape with the paper's
/// configuration, and on 150 disjoint K₄ with φ = 100: there c = 150
/// exceeds φ, so the machine sweeps on past the complete forest to the
/// end of `L`.
#[test]
fn run_coarse_matches_the_chunk_pipeline_at_scale() {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    assert_facade_matches_chunk_pipeline(&gnm(10_000, 50_000, w, 1), CoarseConfig::default());
    let cliques: Vec<_> = (0..150).map(|seed| complete(4, w, seed)).collect();
    let cfg = CoarseConfig { phi: 100, ..Default::default() };
    assert_facade_matches_chunk_pipeline(&disjoint_union(&cliques), cfg);
}

#[test]
fn theorem2_change_bound_holds_empirically() {
    // Theorem 2 bounds the total work on array C by O(K2 + sqrt(K2)·|E|).
    // The sweep's change counter must respect that bound (with a small
    // constant) on structured and random graphs.
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let graphs: Vec<WeightedGraph> = vec![
        gnm(60, 600, w, 1),
        gnm(100, 1500, w, 2),
        barabasi_albert(300, 5, w, 3),
        linkclust::graph::generate::k_regular(200, 10, w, 4),
        linkclust::graph::generate::complete(24, w, 5),
    ];
    for g in graphs {
        let s = GraphStats::compute(&g);
        let sims = compute_similarities(&g).into_sorted();
        // Re-run the sweep manually to read the change counter, reading
        // the wedges as the real sweep does.
        let mut c = linkclust::ClusterArray::new(g.edge_count());
        for entry in sims.entries() {
            for (_, e1, e2) in sims.wedges(&g, entry) {
                c.merge(e1.index(), e2.index());
            }
        }
        let k2 = s.incident_edge_pairs as f64;
        let bound = 4.0 * (k2 + k2.sqrt() * g.edge_count() as f64);
        assert!(
            (c.changes() as f64) <= bound,
            "changes {} exceed Theorem-2 bound {} on |V|={} |E|={}",
            c.changes(),
            bound,
            g.vertex_count(),
            g.edge_count()
        );
    }
}

#[test]
fn coarse_skips_tail_on_power_law_graph() {
    let g = barabasi_albert(400, 6, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
    let sims = compute_similarities(&g).into_sorted();
    let cfg = CoarseConfig { phi: 60, initial_chunk: 32, ..Default::default() };
    let r = coarse_sweep(&g, &sims, cfg);
    assert!(r.dendrogram().final_cluster_count() <= cfg.phi);
    assert!(
        r.processed_fraction() < 1.0,
        "expected the tail to be skipped, processed {}",
        r.processed_fraction()
    );
}

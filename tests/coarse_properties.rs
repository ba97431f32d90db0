//! Property tests for coarse-grained clustering (§V): soundness,
//! partition consistency, epoch accounting, and Theorem-2-style
//! work bounds on the cluster array.

use linkclust::core::reference::canonical_labels;
use linkclust::graph::generate::{barabasi_albert, gnm, WeightMode};
use linkclust::graph::stats::GraphStats;
use linkclust::{
    coarse_sweep, compute_similarities, sweep, CoarseConfig, SweepConfig, WeightedGraph,
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
        // Re-run the sweep manually to read the change counter, using the
        // same O(1) edge lookups the real sweep uses.
        let index = linkclust::EdgeIndex::for_graph(&g);
        let mut c = linkclust::ClusterArray::new(g.edge_count());
        for entry in sims.entries() {
            let (vi, vj) = (entry.pair.first(), entry.pair.second());
            for &vk in sims.common_neighbors(entry) {
                let e1 = index.edge_between(vi, vk).unwrap();
                let e2 = index.edge_between(vj, vk).unwrap();
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

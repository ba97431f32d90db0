//! Property tests: the multi-threaded implementation computes exactly
//! the same results as the serial one, for any thread count.

use linkclust::core::coarse::coarse_sweep_with;
use linkclust::core::init::algorithm_1;
use linkclust::graph::generate::{gnm, WeightMode};
use linkclust::parallel::merge::{merge_cluster_arrays, merge_cluster_arrays_reference};
use linkclust::parallel::ParallelChunkProcessor;
use linkclust::{
    coarse_sweep, compute_similarities, compute_similarities_parallel, ClusterArray, CoarseConfig,
    WeightedGraph,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (6usize..28, 0u64..500).prop_map(|(n, seed)| {
        let m = n * (n - 1) / 3;
        gnm(n, m, WeightMode::Uniform { lo: 0.1, hi: 2.5 }, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_init_matches_serial(g in arb_graph(), threads in 1usize..8) {
        let serial = compute_similarities(&g);
        let parallel = compute_similarities_parallel(&g, threads);
        let map = algorithm_1(&g);
        prop_assert_eq!(serial.len(), parallel.len());
        prop_assert_eq!(serial.len(), map.len());
        // All three lists are in key order, so they compare entry by entry.
        for ((a, b), m) in serial.entries().iter().zip(parallel.entries()).zip(&map) {
            prop_assert_eq!(a.pair, b.pair);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(b.score.to_bits(), m.score.to_bits());
            prop_assert_eq!(b.pair_count(), m.common.len());
            let common: Vec<_> = parallel.wedges(&g, b).map(|(k, ..)| k).collect();
            prop_assert_eq!(&common, &m.common);
        }
        prop_assert_eq!(&serial, &parallel);
    }

    #[test]
    fn parallel_sweep_trajectory_matches_serial(
        g in arb_graph(),
        threads in 2usize..6,
        chunk in 2u64..32,
    ) {
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 2, initial_chunk: chunk, ..Default::default() };
        let serial = coarse_sweep(&g, &sims, cfg);
        let mut proc = ParallelChunkProcessor::new(threads).unwrap().min_entries_per_thread(1);
        let parallel = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        prop_assert_eq!(serial.levels(), parallel.levels());
        // Same final partition (labels may be identical here because the
        // slot order matches).
        prop_assert_eq!(
            serial.output().edge_assignments(),
            parallel.output().edge_assignments()
        );
    }

    #[test]
    fn array_merge_scheme_computes_the_join(
        n in 2usize..40,
        ops_a in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        ops_b in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        ops_base in proptest::collection::vec((0usize..64, 0usize..64), 0..20),
    ) {
        let mut base = ClusterArray::new(n);
        for &(i, j) in &ops_base {
            base.merge(i % n, j % n);
        }
        let mut a = base.clone();
        for &(i, j) in &ops_a {
            a.merge(i % n, j % n);
        }
        let mut b = base.clone();
        for &(i, j) in &ops_b {
            b.merge(i % n, j % n);
        }
        let expected = merge_cluster_arrays_reference(&a, &b);
        let mut got = a.clone();
        merge_cluster_arrays(&mut got, &b);
        prop_assert_eq!(got.assignments(), expected.assignments());
        prop_assert_eq!(got.cluster_count(), expected.cluster_count());
        prop_assert_eq!(got.cluster_count(), got.count_roots());
    }
}

#[test]
fn thread_count_does_not_change_results_on_a_real_workload() {
    let g = gnm(60, 500, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 9);
    let sims = compute_similarities(&g).into_sorted();
    let cfg = CoarseConfig { phi: 5, initial_chunk: 16, ..Default::default() };
    let reference = coarse_sweep(&g, &sims, cfg);
    for threads in [1, 2, 3, 4, 6, 8] {
        let mut proc = ParallelChunkProcessor::new(threads).unwrap().min_entries_per_thread(1);
        let r = coarse_sweep_with(&g, &sims, cfg, &mut proc);
        assert_eq!(reference.levels(), r.levels(), "threads = {threads}");
        assert_eq!(
            reference.output().edge_assignments(),
            r.output().edge_assignments(),
            "threads = {threads}"
        );
    }
}

//! Engine equivalence: the parallel union-find sweep engine must be
//! indistinguishable from the serial sweep oracle — the dendrogram
//! (levels, left/right/into labels), the per-merge scores (compared as
//! bits), and every downstream cut must be **identical**, not merely
//! equal up to relabeling, at every thread count and on every graph
//! backend. Plus linearizable-equivalence property tests for the
//! lock-free concurrent union-find the engine's boundary stitch runs on.

use std::sync::Arc;

use linkclust::core::sweep::{sweep_with, SweepConfig, SweepOutput};
use linkclust::core::telemetry::Telemetry;
use linkclust::core::unionfind::{ConcurrentUnionFind, UnionFind};
use linkclust::graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust::parallel::pool::{partition_ranges, Task, WorkerPool};
use linkclust::parallel::ufsweep::ufsweep_with;
use linkclust::{CsrGraph, LinkClustering, WeightedGraph};
use proptest::prelude::*;

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
    for theta in [0.25, 0.5, 0.75] {
        let serial = LinkClustering::new().min_similarity(theta).run(&g).unwrap();
        let par = LinkClustering::new().threads(4).min_similarity(theta).run(&g).unwrap();
        assert_eq!(serial.dendrogram(), par.dendrogram(), "theta {theta}");
        assert_eq!(score_bits(serial.output()), score_bits(par.output()), "theta {theta}");
    }
}

/// Applies `ops` to a [`ConcurrentUnionFind`] from `threads` worker
/// threads (interleaved round-robin shards on a real [`WorkerPool`]) and
/// returns (final assignments, total number of successful unites).
fn concurrent_union(n: usize, ops: &[(u32, u32)], threads: usize) -> (Vec<u32>, usize) {
    let pool = WorkerPool::new(threads);
    let cuf = Arc::new(ConcurrentUnionFind::new(n));
    let ops: Arc<Vec<(u32, u32)>> = Arc::new(ops.to_vec());
    let successes: Vec<usize> = pool.run_tasks(
        (0..threads)
            .map(|t| {
                let cuf = Arc::clone(&cuf);
                let ops = Arc::clone(&ops);
                Box::new(move || {
                    // Round-robin sharding maximizes cross-thread
                    // contention on the same sets.
                    ops.iter().skip(t).step_by(threads).filter(|&&(a, b)| cuf.unite(a, b)).count()
                }) as Task<usize>
            })
            .collect(),
    );
    (cuf.assignments(), successes.iter().sum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Linearizable equivalence against the serial oracle: whatever the
    /// interleaving, the final partition must equal the serial
    /// union-find's over the same operation set (set union is
    /// commutative), and exactly `n - set_count` unites may report
    /// success (each success is one component merge, exactly-once).
    #[test]
    fn concurrent_unionfind_is_linearizable_against_the_serial_oracle(
        n in 2usize..80,
        seed in 0u64..1000,
        threads_pick in 0usize..3,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let threads = [2usize, 4, 8][threads_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<(u32, u32)> = (0..n * 2)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();

        let mut oracle = UnionFind::new(n);
        let mut oracle_successes = 0usize;
        for &(a, b) in &ops {
            if oracle.union(a as usize, b as usize) {
                oracle_successes += 1;
            }
        }

        let (got, successes) = concurrent_union(n, &ops, threads);
        prop_assert_eq!(got, oracle.assignments(), "partition diverged (threads {})", threads);
        prop_assert_eq!(successes, oracle_successes, "success count diverged");
    }

    /// Concurrent finds/same_set during a quiescent period agree with
    /// the serial oracle from any start element.
    #[test]
    fn concurrent_queries_agree_after_parallel_build(
        n in 4usize..60,
        seed in 0u64..500,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let (got, _) = concurrent_union(n, &ops, 4);
        let mut oracle = UnionFind::new(n);
        for &(a, b) in &ops {
            oracle.union(a as usize, b as usize);
        }
        let cuf = ConcurrentUnionFind::new(n);
        for &(a, b) in &ops {
            let _ = cuf.unite(a, b);
        }
        for a in 0..n as u32 {
            for b in [0u32, (a + 1) % n as u32] {
                prop_assert_eq!(
                    cuf.same_set(a, b),
                    oracle.connected(a as usize, b as usize)
                );
            }
        }
        prop_assert_eq!(got, oracle.assignments());
    }
}

/// Pool-partitioned parallel finds while unites run on other workers:
/// no torn state, and the end partition is still the oracle's. This is
/// the mixed read/write interleaving the TSan lane chews on.
#[test]
fn concurrent_mixed_finds_and_unites_are_safe() {
    let n = 256usize;
    for threads in [2, 4, 8] {
        let pool = WorkerPool::new(threads + 1);
        let cuf = Arc::new(ConcurrentUnionFind::new(n));
        let ranges = partition_ranges(n - 1, threads);
        let mut tasks: Vec<Task<usize>> = ranges
            .into_iter()
            .map(|r| {
                let cuf = Arc::clone(&cuf);
                Box::new(move || r.filter(|&i| cuf.unite(i as u32, i as u32 + 1)).count())
                    as Task<usize>
            })
            .collect();
        tasks.push({
            let cuf = Arc::clone(&cuf);
            Box::new(move || {
                // Concurrent readers: finds must terminate and stay in
                // bounds whatever the unite interleaving.
                (0..n as u32).map(|i| cuf.find(i) as usize).filter(|&r| r < n).count()
            })
        });
        let results = pool.run_tasks(tasks);
        assert_eq!(results[threads], n, "a find escaped the element range");
        let unites: usize = results[..threads].iter().sum();
        assert_eq!(unites, n - 1, "chain unites must all succeed exactly once");
        assert_eq!(cuf.set_count(), 1);
        assert!(cuf.assignments().iter().all(|&m| m == 0));
    }
}

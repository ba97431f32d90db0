//! Criterion bench: graph substrate operations — statistics (K₁/K₂/K₃)
//! and the cluster-array / union-find comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linkclust_core::unionfind::UnionFind;
use linkclust_core::ClusterArray;
use linkclust_graph::generate::{gnm, WeightMode};
use linkclust_graph::stats::GraphStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_graph(c: &mut Criterion) {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let mut group = c.benchmark_group("graph/stats");
    for &(n, m) in &[(200usize, 2000usize), (500, 10000), (1000, 40000)] {
        let g = gnm(n, m, w, 1);
        group.bench_with_input(BenchmarkId::from_parameter(format!("n{n}_m{m}")), &g, |b, g| {
            b.iter(|| GraphStats::compute(g));
        });
    }
    group.finish();

    // Ablation: the paper's chain array vs classic union-find on the
    // same random merge workload.
    let mut rng = SmallRng::seed_from_u64(2);
    let n = 20_000usize;
    let ops: Vec<(usize, usize)> =
        (0..n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
    let mut group = c.benchmark_group("merge_structure");
    group.bench_function("cluster_array", |b| {
        b.iter(|| {
            let mut ca = ClusterArray::new(n);
            for &(i, j) in &ops {
                ca.merge(i, j);
            }
            ca.cluster_count()
        });
    });
    group.bench_function("union_find", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n);
            for &(i, j) in &ops {
                uf.union(i, j);
            }
            uf.set_count()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph
}
criterion_main!(benches);

//! Criterion benchmark of the fixed cost of one parallel dispatch:
//! `pool_dispatch` times [`WorkerPool::fan_out`] over one tiny item per
//! thread — thread creation, the caller's own lane, and the joins — the
//! overhead every parallel Phase I pass and coarse chunk pays on top of
//! its work.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linkclust_parallel::pool::WorkerPool;

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_dispatch");
    for threads in [2usize, 4] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("fan_out", threads), &threads, |b, &t| {
            b.iter(|| black_box(pool.fan_out((0..t as u64).collect(), |i| black_box(i) * 3 + 1)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pool_dispatch
}
criterion_main!(benches);

//! Criterion benchmark isolating the persistent-pool win: `pool_dispatch`
//! measures raw fan-out overhead, dispatching a batch of tiny tasks
//! through the persistent [`WorkerPool`] vs spawning fresh scoped
//! threads for the same batch. This is the per-chunk fixed cost the pool
//! amortises.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linkclust_parallel::pool::{Task, WorkerPool};

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_dispatch");
    for threads in [2usize, 4] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("pooled", threads), &threads, |b, &t| {
            b.iter(|| {
                let tasks: Vec<Task<u64>> = (0..t as u64)
                    .map(|i| Box::new(move || black_box(i) * 3 + 1) as Task<u64>)
                    .collect();
                black_box(pool.run_tasks(tasks))
            });
        });
        group.bench_with_input(BenchmarkId::new("spawn_scoped", threads), &threads, |b, &t| {
            b.iter(|| {
                let out: Vec<u64> = std::thread::scope(|s| {
                    let handles: Vec<_> =
                        (0..t as u64).map(|i| s.spawn(move || black_box(i) * 3 + 1)).collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                black_box(out)
            });
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

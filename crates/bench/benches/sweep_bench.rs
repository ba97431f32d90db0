//! Criterion bench: Phase II (sweeping) across graph sizes — the
//! `Sweeping` series of Fig. 4(2) in micro form. Initialization and
//! sorting are done once outside the timed loop to isolate the sweep.
//! The `sweep/engines` group sets Algorithm 2 beside the Kruskal pass
//! the facade runs at every thread count, on a sparse and a dense input;
//! the dense one completes its merge forest early in `L`, where the
//! Kruskal pass stops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use linkclust_core::init::compute_similarities;
use linkclust_core::sweep::{kruskal_sweep_with, sweep, EdgeOrder, SweepConfig};
use linkclust_core::telemetry::Telemetry;
use linkclust_graph::generate::{complete, gnm, k_regular, WeightMode};

fn bench_sweep(c: &mut Criterion) {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let mut group = c.benchmark_group("sweep/gnm");
    for &(n, m) in &[(100usize, 500usize), (200, 2000), (400, 8000)] {
        let g = gnm(n, m, w, 42);
        let sims = compute_similarities(&g).into_sorted();
        group.throughput(Throughput::Elements(sims.incident_pair_count()));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &(&g, &sims),
            |b, (g, sims)| b.iter(|| sweep(g, sims, SweepConfig::default())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("sweep/kregular");
    for &n in &[500usize, 1000, 2000] {
        let g = k_regular(n, 12, w, 3);
        let sims = compute_similarities(&g).into_sorted();
        group.throughput(Throughput::Elements(sims.incident_pair_count()));
        group.bench_with_input(BenchmarkId::from_parameter(n), &(&g, &sims), |b, (g, sims)| {
            b.iter(|| sweep(g, sims, SweepConfig::default()));
        });
    }
    group.finish();

    // Ablation: shuffled vs insertion edge order (the paper assigns ids
    // "in a random order"; the partition is invariant, the cost is too).
    let g = gnm(200, 2000, w, 5);
    let sims = compute_similarities(&g).into_sorted();
    let mut group = c.benchmark_group("sweep/edge_order");
    group.bench_function("insertion", |b| b.iter(|| sweep(&g, &sims, SweepConfig::default())));
    group.bench_function("shuffled", |b| {
        b.iter(|| {
            sweep(
                &g,
                &sims,
                SweepConfig { edge_order: EdgeOrder::Shuffled { seed: 1 }, ..Default::default() },
            )
        });
    });
    group.finish();

    let mut group = c.benchmark_group("sweep/engines");
    let config = SweepConfig::default();
    let off = Telemetry::disabled();
    for (name, g) in
        [("gnm_n400_m8000", gnm(400, 8000, w, 42)), ("complete60", complete(60, w, 42))]
    {
        let sims = compute_similarities(&g).into_sorted();
        group.throughput(Throughput::Elements(sims.incident_pair_count()));
        group.bench_function(format!("algorithm2/{name}"), |b| b.iter(|| sweep(&g, &sims, config)));
        group.bench_function(format!("kruskal/{name}"), |b| {
            b.iter(|| kruskal_sweep_with(&g, &sims, config, &off));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep
}
criterion_main!(benches);

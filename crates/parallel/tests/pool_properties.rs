//! Property tests for the persistent worker pool: every pooled phase
//! must match its serial counterpart for any thread count — including
//! more threads than CPUs — the pool must survive task panics with the
//! original payload re-raised, and one pool must serve every phase of a
//! clustering run. (Nested submission from inside a pooled task is
//! covered by the pool's own unit tests.)

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use linkclust_core::coarse::{coarse_sweep, CoarseConfig};
use linkclust_core::init::compute_similarities;
use linkclust_core::reference::canonical_labels;
use linkclust_core::Telemetry;
use linkclust_graph::generate::{gnm, WeightMode};
use linkclust_parallel::compute_similarities_parallel;
use linkclust_parallel::pool::{Task, WorkerPool};
use linkclust_parallel::sort::parallel_into_sorted_pooled;
use linkclust_parallel::{parallel_coarse_sweep, parallel_coarse_sweep_shared};
use proptest::prelude::*;

/// Thread counts to exercise: 1 (inline), a few small ones, and 8 —
/// which exceeds the core count on small CI machines, covering the
/// oversubscribed case the pool must handle without deadlock.
const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

fn canon(labels: &[u32]) -> Vec<usize> {
    canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pooled_init_matches_serial(seed in 0u64..1000, n in 20usize..60) {
        let m = (n * 3).min(n * (n - 1) / 2);
        let g = gnm(n, m, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        let serial = compute_similarities(&g);
        for threads in THREADS {
            let par = compute_similarities_parallel(&g, threads);
            prop_assert_eq!(par.len(), serial.len(), "threads {}", threads);
            // Both lists are in key order, so they compare entry by entry.
            for (a, b) in serial.entries().iter().zip(par.entries()) {
                prop_assert_eq!(a.pair, b.pair);
                prop_assert_eq!(
                    serial.common_neighbors(a), par.common_neighbors(b), "pair {}", a.pair
                );
                // The sharded fold replays the serial accumulation order,
                // so scores are bit-identical, not merely within 1e-12.
                prop_assert_eq!(
                    a.score.to_bits(), b.score.to_bits(),
                    "pair {} threads {}", a.pair, threads
                );
            }
            prop_assert_eq!(&par, &serial, "threads {}", threads);
        }
    }

    #[test]
    fn pooled_sort_matches_serial(seed in 0u64..1000, n in 20usize..60) {
        let g = gnm(n, n * 3, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        let serial = compute_similarities(&g).into_sorted();
        for threads in THREADS {
            let pool = WorkerPool::new(threads);
            let pooled =
                parallel_into_sorted_pooled(&pool, compute_similarities(&g), &Telemetry::disabled());
            prop_assert!(pooled.is_sorted());
            prop_assert_eq!(&serial, &pooled, "threads {}", threads);
        }
    }

    #[test]
    fn pooled_coarse_sweep_matches_serial(seed in 0u64..1000, phi in 1usize..8) {
        let g = gnm(45, 190, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let cfg = CoarseConfig { phi, initial_chunk: 8, ..Default::default() };
        let serial = coarse_sweep(&g, &sims, cfg);
        for threads in THREADS {
            let par = parallel_coarse_sweep_shared(&g, &sims, cfg, threads);
            let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
            let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
            prop_assert_eq!(sl, pl, "threads {}", threads);
            prop_assert_eq!(
                canon(&serial.output().edge_assignments()),
                canon(&par.output().edge_assignments()),
                "threads {}", threads
            );
        }
    }
}

/// The nested shape the facade actually runs: a coarse sweep whose
/// chunk processor shares the pool that also ran init and sort.
#[test]
fn facade_reuses_one_pool_across_phases_and_matches_serial() {
    let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 11);
    let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
    let serial = linkclust_parallel::LinkClustering::new().run_coarse(&g, cfg).unwrap();
    for threads in THREADS {
        let par =
            linkclust_parallel::LinkClustering::new().threads(threads).run_coarse(&g, cfg).unwrap();
        let sl: Vec<_> = serial.levels().iter().map(|l| (l.level, l.clusters)).collect();
        let pl: Vec<_> = par.levels().iter().map(|l| (l.level, l.clusters)).collect();
        assert_eq!(sl, pl, "threads {threads}");
    }
}

/// A worker panic must re-raise on the submitting thread with the
/// original payload, and the pool must stay fully usable afterwards.
#[test]
fn worker_panic_payload_survives_and_pool_stays_usable() {
    let pool = WorkerPool::new(4);
    for round in 0..3 {
        let tasks: Vec<Task<u64>> = (0..8u64)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("boom-{i}");
                    }
                    i * 10
                }) as Task<u64>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_tasks(tasks)))
            .expect_err("panicking task must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic! with format args yields a String payload");
        assert_eq!(msg, "boom-5", "round {round}");
        // The same pool keeps delivering correct results.
        let ok = pool.run_tasks((0..6u64).map(|i| Box::new(move || i + 1) as Task<u64>).collect());
        assert_eq!(ok, vec![1, 2, 3, 4, 5, 6], "round {round}");
    }
}

/// Cross-thread `record_phase_nanos` (`Phase::PoolQueueWait`) from ≥4
/// pool workers must never lose a count: the mutex-aggregated report
/// must equal an independent per-thread tally, call for call and
/// nanosecond for nanosecond. A barrier forces every batch to be
/// executed by four distinct threads concurrently.
#[test]
fn concurrent_queue_wait_records_are_never_lost() {
    use std::collections::HashMap;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    use linkclust_core::telemetry::{Counter, Gauge, Phase, Recorder, RunRecorder, Telemetry};

    /// Forwards everything to a [`RunRecorder`] while independently
    /// tallying queue-wait spans per recording thread.
    #[derive(Default)]
    struct Tally {
        inner: RunRecorder,
        queue_waits: Mutex<HashMap<ThreadId, (u64, u64)>>,
    }

    impl Recorder for Tally {
        fn record_phase(&self, phase: Phase, nanos: u64) {
            if phase == Phase::PoolQueueWait {
                let mut map = self.queue_waits.lock().expect("tally mutex");
                let slot = map.entry(std::thread::current().id()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += nanos;
            }
            self.inner.record_phase(phase, nanos);
        }
        fn add(&self, counter: Counter, value: u64) {
            self.inner.add(counter, value);
        }
        fn observe(&self, gauge: Gauge, value: f64) {
            self.inner.observe(gauge, value);
        }
        fn thread_items(&self, thread: usize, items: u64) {
            self.inner.thread_items(thread, items);
        }
    }

    const WORKERS: usize = 4;
    const BATCHES: usize = 16;
    let tally = Arc::new(Tally::default());
    let pool = WorkerPool::new(WORKERS)
        .with_telemetry(Telemetry::new(Arc::clone(&tally) as Arc<dyn Recorder>));
    for _ in 0..BATCHES {
        let barrier = Arc::new(Barrier::new(WORKERS));
        let tasks: Vec<Task<()>> = (0..WORKERS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                Box::new(move || {
                    barrier.wait();
                }) as Task<()>
            })
            .collect();
        let _ = pool.run_tasks(tasks);
    }

    let report = tally.inner.report();
    let expected = (WORKERS * BATCHES) as u64;
    assert_eq!(report.phase_calls(Phase::PoolQueueWait), expected, "one span per queued task");
    let map = tally.queue_waits.lock().expect("tally mutex");
    assert!(map.len() >= WORKERS, "queue waits recorded by only {} threads", map.len());
    let (calls, nanos) = map.values().fold((0u64, 0u64), |(c, n), &(dc, dn)| (c + dc, n + dn));
    assert_eq!(calls, expected);
    assert_eq!(report.phase_nanos(Phase::PoolQueueWait), nanos, "aggregate == per-thread sums");
    assert_eq!(report.phase_histogram(Phase::PoolQueueWait).count(), expected);
}

/// Standalone `parallel_coarse_sweep` (which copies the list into an
/// `Arc` of its own, lazily created pool) must agree with the path over
/// the caller's `Arc`-shared list.
#[test]
fn copied_and_shared_list_paths_agree() {
    let g = gnm(40, 170, WeightMode::Uniform { lo: 0.3, hi: 1.6 }, 3);
    let sims = Arc::new(compute_similarities(&g).into_sorted());
    let cfg = CoarseConfig { phi: 4, initial_chunk: 8, ..Default::default() };
    for threads in [2usize, 4] {
        let copied = parallel_coarse_sweep(&g, &sims, cfg, threads);
        let shared = parallel_coarse_sweep_shared(&g, &sims, cfg, threads);
        assert_eq!(copied.levels(), shared.levels(), "threads {threads}");
    }
}

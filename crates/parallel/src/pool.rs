//! Work partitioning and thread dispatch.
//!
//! Every parallel phase of a clustering run — the Phase I passes and
//! the §VI-B chunk step with its combine rounds — fans out through
//! [`WorkerPool::fan_out`], a scoped fan-out built on
//! [`std::thread::scope`]. The items and the closure may borrow from
//! the caller: the graph, the sorted list `L`, the edge index, the slot
//! permutation and `&mut` scratch arrays reach the threads by
//! reference, so nothing is copied into a task and nothing needs a
//! `'static` bound. The calling thread runs the first lane of items;
//! named `worker-i` threads run the others and are joined before
//! `fan_out` returns, and a panic in any lane is re-raised on the caller
//! with its own payload. A one-thread pool never creates a thread.
//!
//! The one long-lived part is the queue behind [`WorkerPool::submit`]:
//! fire-and-forget jobs (`linkclustd`'s admissions) that outlive the
//! call that submits them. Its `threads - 1` parked workers start on
//! the first submission, so a pool that only dispatches `fan_out` calls
//! owns no thread between them. [`ServiceThread`] runs the daemon's
//! resident loops.
//!
//! This module is the workspace's only thread-creation site: the
//! `bare-spawn` lint denies `thread::spawn`, `thread::Builder` and
//! `thread::scope` everywhere else.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use linkclust_core::telemetry::{Counter, Phase, Telemetry};

/// Splits `0..n` into at most `parts` contiguous, near-equal ranges
/// (fewer if `n < parts`; none if `n == 0`).
///
/// # Panics
///
/// Panics if `parts == 0`.
///
/// # Examples
///
/// ```
/// use linkclust_parallel::pool::partition_ranges;
///
/// let r = partition_ranges(10, 3);
/// assert_eq!(r, vec![0..4, 4..7, 7..10]);
/// ```
#[must_use]
pub fn partition_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "need at least one partition");
    let parts = parts.min(n);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = n / parts + usize::from(i < n % parts);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Splits the index range of `weights` into at most `parts` contiguous
/// ranges of near-equal total weight (greedy: a range closes once it
/// reaches the ideal share). Used to balance chunk processing, where an
/// entry's cost is its incident-pair count.
///
/// # Panics
///
/// Panics if `parts == 0`.
#[must_use]
pub fn balanced_partition_by_weight(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    balanced_partition_with_loads(weights, parts).0
}

/// [`balanced_partition_by_weight`], also returning each range's total
/// weight. The sums fall out of the greedy accumulation for free, so
/// callers that report per-thread loads (telemetry) can reuse them
/// instead of re-walking `weights` range by range.
///
/// # Panics
///
/// Panics if `parts == 0`.
#[must_use]
pub fn balanced_partition_with_loads(
    weights: &[u64],
    parts: usize,
) -> (Vec<Range<usize>>, Vec<u64>) {
    assert!(parts > 0, "need at least one partition");
    let n = weights.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let total: u64 = weights.iter().sum();
    let parts = parts.min(n);
    let mut out = Vec::with_capacity(parts);
    let mut loads = Vec::with_capacity(parts);
    let mut start = 0;
    let mut acc: u64 = 0;
    let mut closed: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let remaining_parts = parts - out.len();
        let remaining_items = n - i - 1;
        // Close the k-th range once the running sum reaches k·total/parts
        // — compared exactly in u128 (acc·parts ≥ total·k), so the
        // boundary targets carry no accumulated floating-point drift —
        // but never leave fewer items than ranges still to emit.
        let k = (out.len() + 1) as u128;
        let reached = u128::from(acc) * parts as u128 >= u128::from(total) * k;
        if (reached && remaining_parts > 1 && remaining_items >= remaining_parts - 1)
            || remaining_items + 1 == remaining_parts
        {
            out.push(start..i + 1);
            loads.push(acc - closed);
            closed = acc;
            start = i + 1;
            if out.len() == parts - 1 {
                break;
            }
        }
    }
    if start < n {
        out.push(start..n);
        loads.push(total - closed);
    }
    (out, loads)
}

/// Unwraps a thread join result, re-raising the joined thread's own
/// panic payload instead of panicking with a second, less informative
/// message. The single join helper of the crate — scoped or not, every
/// join that must propagate goes through it.
///
/// # Panics
///
/// Resumes the joined thread's panic with its original payload.
pub fn join_propagating<T>(result: std::thread::Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A queued [`WorkerPool::submit`] job.
type Job = Box<dyn FnOnce() + Send>;

/// State behind the queue mutex: pending jobs plus the shutdown flag the
/// condition variable pairs with.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

impl PoolShared {
    /// Locks the queue, recovering from poisoning: jobs are
    /// panic-contained, so a poisoned queue mutex still holds a
    /// consistent `VecDeque`.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The queue worker body: pop and run jobs until shutdown. Jobs are
/// wrapped in `catch_unwind` by [`WorkerPool::submit`], so a panicking
/// job never kills the worker.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job();
    }
}

/// The queue behind [`WorkerPool::submit`] and its parked workers.
/// Dropping it shuts the workers down and joins them.
struct SubmitQueue {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl SubmitQueue {
    /// Starts `workers` parked queue threads, named `queue-i`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    fn start(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
        });
        let workers = (1..=workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("queue-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool queue thread failed")
            })
            .collect();
        SubmitQueue { shared, workers }
    }
}

impl Drop for SubmitQueue {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            // Workers contain job panics, so a join error would mean a
            // bug in the worker loop itself; swallowing it here avoids a
            // double panic if the pool is dropped during unwinding.
            let _ = h.join();
        }
    }
}

/// Thread dispatch for a clustering run or a daemon: the scoped
/// [`fan_out`](Self::fan_out) every parallel phase runs on, and the
/// [`submit`](Self::submit) queue for jobs that outlive their caller.
///
/// A pool for `threads` delivers `threads`-way parallelism: `fan_out`
/// runs on the calling thread plus up to `threads - 1` scoped threads,
/// and the submit queue, once started, keeps `threads - 1` parked
/// workers. `threads == 1` never creates a thread, and creating a pool
/// creates none either.
///
/// # Examples
///
/// ```
/// use linkclust_parallel::pool::WorkerPool;
///
/// let data: Vec<usize> = (0..100).collect();
/// let pool = WorkerPool::new(4);
/// let sums = pool.fan_out(data.chunks(25).collect(), |chunk| chunk.iter().sum::<usize>());
/// assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
/// ```
pub struct WorkerPool {
    threads: usize,
    telemetry: Telemetry,
    /// The submit queue, started by the first [`submit`](Self::submit).
    queue: OnceLock<SubmitQueue>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("queue_started", &self.queue.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// A pool delivering `threads`-way parallelism. Creates no thread:
    /// [`fan_out`](Self::fan_out) creates its scoped threads per
    /// dispatch, and the submit queue starts on the first
    /// [`submit`](Self::submit).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        WorkerPool { threads, telemetry: Telemetry::disabled(), queue: OnceLock::new() }
    }

    /// Attaches a telemetry handle: every task bumps
    /// [`Counter::PoolTasks`], and every [`fan_out`](Self::fan_out) item
    /// records the time from its dispatch to its start as a
    /// [`Phase::PoolQueueWait`] span. If the handle carries a tracer,
    /// each item's execution additionally lands on the executing
    /// thread's trace timeline as a `pool_task` event labelled with a
    /// sequence number the collector hands out
    /// ([`TraceCollector::reserve_task_seqs`](linkclust_core::telemetry::TraceCollector::reserve_task_seqs)).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The parallelism this pool delivers (helper threads + the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The telemetry handle the pool's tasks report to.
    #[must_use]
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of [`submit`](Self::submit) jobs waiting for a queue
    /// worker. A sustained non-zero depth means admissions arrive faster
    /// than they run; `linkclustd` samples this as a runtime gauge.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.get().map_or(0, |q| q.shared.lock().jobs.len())
    }

    /// Runs `f` on every item and returns the results in item order.
    ///
    /// The items are split into at most [`threads`](Self::threads)
    /// contiguous lanes. The calling thread runs lane 0 and a scoped
    /// thread named `worker-i` runs lane `i`, so the items and `f` may
    /// borrow anything the caller can. Every thread is joined before
    /// `fan_out` returns. With one lane (one item, or a one-thread
    /// pool) everything runs inline.
    ///
    /// # Panics
    ///
    /// If `f` panics, the first panic in lane order is re-raised here
    /// with its original payload once every lane has been joined. Panics
    /// if the OS refuses to spawn a thread.
    pub fn fan_out<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        self.telemetry.add(Counter::PoolTasks, n as u64);
        // Sequence numbers label per-task trace events; the collector
        // hands them out, one range per dispatch, only when tracing.
        let base_seq = self.telemetry.tracer().map_or(0, |t| t.reserve_task_seqs(n as u64));
        let dispatched = self.telemetry.is_enabled().then(Instant::now);
        let telemetry = &self.telemetry;
        let run_lane = |lane: Vec<(usize, I)>| -> Vec<T> {
            lane.into_iter()
                .map(|(idx, item)| {
                    if let Some(t0) = dispatched {
                        let nanos = t0.elapsed().as_nanos() as u64;
                        telemetry.record_phase_nanos(Phase::PoolQueueWait, nanos);
                    }
                    let _trace = telemetry.trace_task(base_seq + idx as u64);
                    f(item)
                })
                .collect()
        };

        let mut items = items.into_iter().enumerate();
        let mut lanes: Vec<Vec<(usize, I)>> = partition_ranges(n, self.threads)
            .iter()
            .map(|r| items.by_ref().take(r.len()).collect())
            .collect();
        if lanes.len() <= 1 {
            return lanes.pop().map_or_else(Vec::new, run_lane);
        }
        let head = lanes.remove(0);
        let run_lane = &run_lane;
        std::thread::scope(|scope| {
            let workers: Vec<_> = lanes
                .into_iter()
                .enumerate()
                .map(|(i, lane)| {
                    // Named so trace lanes and debuggers show the worker
                    // index, the same name at every dispatch.
                    std::thread::Builder::new()
                        .name(format!("worker-{}", i + 1))
                        .spawn_scoped(scope, move || run_lane(lane))
                        .expect("spawning a pool worker thread failed")
                })
                .collect();
            let head = std::panic::catch_unwind(AssertUnwindSafe(|| run_lane(head)));
            // Join every worker before re-raising anything. A joined
            // thread has also run its thread-local destructors, which is
            // what frees its trace ring for the next dispatch's thread
            // of the same name.
            let rest: Vec<std::thread::Result<Vec<T>>> =
                workers.into_iter().map(std::thread::ScopedJoinHandle::join).collect();
            let mut out = Vec::with_capacity(n);
            for lane in std::iter::once(head).chain(rest) {
                out.extend(join_propagating(lane));
            }
            out
        })
    }

    /// Enqueues a fire-and-forget job and returns without waiting for
    /// it — how batch admission in `linkclust-serve` runs a full
    /// recluster *behind* the submitting thread while it keeps serving
    /// queries. The first call starts the queue's `threads - 1` parked
    /// workers, and one of them picks the job up. With `threads == 1`
    /// the job runs inline before returning, so "submitted" still means
    /// "executes"; callers needing background execution must size the
    /// pool at ≥ 2 threads.
    ///
    /// Panics inside the job are contained and *discarded* (nothing
    /// rendezvouses to re-raise them), so jobs must report failure
    /// through their own channel — e.g. the swap handshake admission
    /// jobs already perform.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a queue worker.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.telemetry.add(Counter::PoolTasks, 1);
        let wrapped: Job = Box::new(move || {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        });
        if self.threads == 1 {
            wrapped();
            return;
        }
        let queue = self.queue.get_or_init(|| SubmitQueue::start(self.threads - 1));
        queue.shared.lock().jobs.push_back(wrapped);
        queue.shared.work_ready.notify_one();
    }
}

/// The cooperative shutdown handshake of a [`ServiceThread`]: a flag
/// behind a mutex paired with a condition variable, so the service body
/// can sleep *interruptibly* — a ticker parked in
/// [`wait_timeout`](Self::wait_timeout) wakes immediately when the
/// owner stops it, instead of finishing out its sleep.
pub struct ShutdownFlag {
    state: Mutex<bool>,
    signal: Condvar,
}

impl std::fmt::Debug for ShutdownFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownFlag").field("is_set", &self.is_set()).finish()
    }
}

impl ShutdownFlag {
    fn new() -> Self {
        ShutdownFlag { state: Mutex::new(false), signal: Condvar::new() }
    }

    /// Locks the flag, recovering from poisoning: the state is a single
    /// monotone boolean, always consistent.
    fn lock(&self) -> MutexGuard<'_, bool> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` once the owner has requested shutdown.
    #[must_use]
    pub fn is_set(&self) -> bool {
        *self.lock()
    }

    /// Sleeps for up to `timeout`, waking early on shutdown. Returns
    /// `true` if shutdown was requested (the service loop should exit).
    #[must_use]
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut requested = self.lock();
        while !*requested {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) = self
                .signal
                .wait_timeout(requested, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            requested = guard;
        }
        true
    }

    fn set(&self) {
        *self.lock() = true;
        self.signal.notify_all();
    }
}

/// A named background service thread with a cooperative shutdown
/// handshake — the resident-service counterpart of [`WorkerPool`].
///
/// The pool module is the workspace's single sanctioned thread-creation
/// site (the `bare-spawn` lint denies it everywhere else), and
/// [`WorkerPool::submit`] intentionally runs *inline* on a
/// single-thread pool — which would wedge a caller submitting an
/// infinite service loop. Long-lived service bodies (the `linkclustd`
/// metrics ticker and `/metrics` HTTP listener) therefore get a
/// dedicated thread here: the body receives a [`ShutdownFlag`] it must
/// poll (or sleep on via [`ShutdownFlag::wait_timeout`]), and dropping
/// the handle requests shutdown and joins.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
/// use linkclust_parallel::pool::ServiceThread;
///
/// let ticks = Arc::new(AtomicU64::new(0));
/// let seen = Arc::clone(&ticks);
/// let service = ServiceThread::spawn("ticker", move |shutdown| {
///     loop {
///         // ordering: independent counter, no memory published through it.
///         seen.fetch_add(1, Ordering::Relaxed);
///         if shutdown.wait_timeout(Duration::from_millis(1)) {
///             return;
///         }
///     }
/// });
/// std::thread::sleep(Duration::from_millis(10));
/// drop(service); // requests shutdown and joins
/// assert!(ticks.load(Ordering::Relaxed) > 0);
/// ```
pub struct ServiceThread {
    handle: Option<JoinHandle<()>>,
    shutdown: Arc<ShutdownFlag>,
}

impl std::fmt::Debug for ServiceThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceThread").field("running", &self.handle.is_some()).finish()
    }
}

impl ServiceThread {
    /// Spawns a named service thread running `body`. The body owns its
    /// loop; it must return promptly once its [`ShutdownFlag`] is set.
    /// Panics inside the body are contained (the join on drop swallows
    /// them), so a crashing service never takes the owner down.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the thread.
    #[must_use]
    pub fn spawn<F>(name: &str, body: F) -> Self
    where
        F: FnOnce(&ShutdownFlag) + Send + 'static,
    {
        let shutdown = Arc::new(ShutdownFlag::new());
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| body(&flag)));
            })
            .expect("spawning a service thread failed");
        ServiceThread { handle: Some(handle), shutdown }
    }

    /// Requests shutdown and joins the thread (equivalent to dropping
    /// the handle, as an explicit statement).
    pub fn stop(self) {}
}

impl Drop for ServiceThread {
    fn drop(&mut self) {
        self.shutdown.set();
        if let Some(handle) = self.handle.take() {
            // The body is panic-contained, so a join error would be a
            // harness bug; swallowing it avoids a double panic when the
            // owner is already unwinding.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_everything_without_overlap() {
        for (n, p) in [(10, 3), (7, 7), (5, 10), (100, 6), (1, 1)] {
            let ranges = partition_ranges(n, p);
            let mut covered = 0;
            let mut prev_end = 0;
            for r in &ranges {
                assert_eq!(r.start, prev_end);
                covered += r.len();
                prev_end = r.end;
            }
            assert_eq!(covered, n, "n={n} p={p}");
            assert!(ranges.len() <= p);
        }
    }

    #[test]
    fn empty_input_gives_no_ranges() {
        assert!(partition_ranges(0, 4).is_empty());
        assert!(balanced_partition_by_weight(&[], 4).is_empty());
    }

    #[test]
    fn balanced_partition_covers_and_balances() {
        let weights = vec![5u64, 1, 1, 1, 1, 1, 5, 5, 1, 1, 1, 8];
        let ranges = balanced_partition_by_weight(&weights, 4);
        let mut prev_end = 0;
        let mut sums = Vec::new();
        for r in &ranges {
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
            sums.push(weights[r.clone()].iter().sum::<u64>());
        }
        assert_eq!(prev_end, weights.len());
        assert!(ranges.len() <= 4);
        let total: u64 = weights.iter().sum();
        // No range should carry more than ~2x the ideal share + max item.
        for &s in &sums {
            assert!(s <= total / 2 + 8, "unbalanced: {sums:?}");
        }
    }

    #[test]
    fn balanced_partition_loads_match_recomputed_sums() {
        for parts in 1..6 {
            let weights = vec![5u64, 1, 1, 1, 1, 1, 5, 5, 1, 1, 1, 8];
            let (ranges, loads) = balanced_partition_with_loads(&weights, parts);
            assert_eq!(ranges.len(), loads.len(), "parts={parts}");
            for (r, &load) in ranges.iter().zip(&loads) {
                assert_eq!(load, weights[r.clone()].iter().sum::<u64>(), "parts={parts} r={r:?}");
            }
            assert_eq!(loads.iter().sum::<u64>(), weights.iter().sum::<u64>());
        }
    }

    #[test]
    fn balanced_partition_with_more_parts_than_items() {
        let ranges = balanced_partition_by_weight(&[3, 3], 8);
        assert_eq!(ranges.len(), 2);
    }

    #[test]
    fn fan_out_preserves_item_order() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 3, 4, 7, 100] {
            let items: Vec<usize> = (0..n).collect();
            let got = pool.fan_out(items, |i| i * 3 + 1);
            assert_eq!(got, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn fan_out_borrows_from_the_caller_and_writes_through_mut_items() {
        let data: Vec<u64> = (0..64).collect();
        let mut sums = [0u64; 4];
        let pool = WorkerPool::new(4);
        let items: Vec<(&[u64], &mut u64)> = data.chunks(16).zip(sums.iter_mut()).collect();
        let _: Vec<()> = pool.fan_out(items, |(chunk, out)| *out = chunk.iter().sum());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn single_thread_pool_runs_inline_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.fan_out((0..5).collect(), |_: i32| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        assert!(pool.queue.get().is_none(), "fan_out never starts the submit queue");
    }

    #[test]
    fn fan_out_runs_lane_zero_on_the_caller_and_the_rest_on_named_workers() {
        let pool = WorkerPool::new(3);
        let caller = std::thread::current().id();
        let seen = pool.fan_out((0..3).collect(), |_: i32| {
            let t = std::thread::current();
            (t.id(), t.name().map(str::to_owned))
        });
        assert_eq!(seen[0].0, caller);
        assert_eq!(seen[1].1.as_deref(), Some("worker-1"));
        assert_eq!(seen[2].1.as_deref(), Some("worker-2"));
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        for round in 0..50 {
            let got = pool.fan_out((0..8).collect(), |i: usize| {
                // ordering: relaxed is enough — the read below
                // happens-after every worker's increment through the
                // joins that end each fan_out call.
                counter.fetch_add(1, Ordering::Relaxed);
                round * 8 + i
            });
            let expected: Vec<usize> = (0..8).map(|i| round * 8 + i).collect();
            assert_eq!(got, expected);
        }
        // ordering: every fetch_add happens-before this read (joined).
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn task_panic_propagates_original_payload_and_pool_survives() {
        let pool = WorkerPool::new(4);
        for bad in [0u32, 3, 5] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.fan_out((0..6u32).collect(), |i| {
                    assert!(i != bad, "task {bad} exploded");
                    i
                })
            }))
            .expect_err("the panicking task must propagate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("payload is a string");
            assert!(msg.contains(&format!("task {bad} exploded")), "unexpected payload: {msg}");
        }
        // The pool keeps working after the panics.
        assert_eq!(pool.fan_out((0..4u32).collect(), |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_fan_out_inside_a_task_completes() {
        for threads in [2usize, 4] {
            let pool = WorkerPool::new(threads);
            let got = pool.fan_out(vec![40usize, 0], |n| {
                let sums = pool.fan_out(partition_ranges(n, 4), |r| r.sum::<usize>());
                sums.iter().sum::<usize>() + 1000 * usize::from(n == 0)
            });
            assert_eq!(got, vec![(0..40).sum::<usize>(), 1000], "threads={threads}");
        }
    }

    #[test]
    fn submit_runs_asynchronously_and_survives_panics() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        // A panicking fire-and-forget job must not kill the worker.
        pool.submit(|| panic!("contained"));
        pool.submit(move || {
            let _ = tx.send(7);
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(7));
        // The pool still serves scoped dispatches afterwards.
        assert_eq!(pool.fan_out((0..3u32).collect(), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn submit_on_single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hit = Arc::new(AtomicUsize::new(0));
        let hit2 = Arc::clone(&hit);
        pool.submit(move || {
            // ordering: inline execution — same thread, no concurrency.
            hit2.store(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn queue_depth_reflects_pending_jobs() {
        // A single-thread pool runs submissions inline, so its queue is
        // always empty.
        let pool = WorkerPool::new(1);
        assert_eq!(pool.queue_depth(), 0);
        pool.submit(|| {});
        assert_eq!(pool.queue_depth(), 0);
        // A 2-thread pool with its one worker blocked accumulates depth.
        let pool = WorkerPool::new(2);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let held = Arc::clone(&gate);
        pool.submit(move || {
            held.wait();
        });
        // Wait until the worker has picked the blocker up, then queue
        // more jobs behind it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.queue_depth() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.submit(|| {});
        pool.submit(|| {});
        assert_eq!(pool.queue_depth(), 2);
        gate.wait();
    }

    #[test]
    fn service_thread_ticks_and_stops_promptly() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let service = ServiceThread::spawn("test-ticker", move |shutdown| loop {
            // ordering: independent counter, nothing published through it.
            seen.fetch_add(1, Ordering::Relaxed);
            if shutdown.wait_timeout(std::time::Duration::from_millis(1)) {
                return;
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while ticks.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(ticks.load(Ordering::Relaxed) >= 3, "ticker never ran");
        // Stop wakes the ticker out of a long sleep instead of waiting
        // it out: bound the whole handshake well below the sleep.
        let t0 = std::time::Instant::now();
        let slow = ServiceThread::spawn("test-sleeper", |shutdown| {
            let _ = shutdown.wait_timeout(std::time::Duration::from_secs(3600));
        });
        slow.stop();
        assert!(t0.elapsed() < std::time::Duration::from_secs(60), "stop did not interrupt");
        service.stop();
    }

    #[test]
    fn service_thread_contains_body_panics() {
        let service = ServiceThread::spawn("test-panicker", |_| panic!("contained"));
        // Dropping joins the panicked thread without re-raising.
        drop(service);
    }

    #[test]
    fn join_propagating_reraises_payload() {
        let handle = std::thread::spawn(|| -> u32 { panic!("worker payload 7") });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| join_propagating(handle.join())))
            .expect_err("panic must re-raise");
        let msg = err.downcast_ref::<&str>().copied().expect("payload is a &str");
        assert_eq!(msg, "worker payload 7");
        let ok = std::thread::spawn(|| 5u32);
        assert_eq!(join_propagating(ok.join()), 5);
    }

    #[test]
    fn pool_telemetry_counts_tasks_and_queue_waits() {
        use linkclust_core::telemetry::RunRecorder;
        let recorder = Arc::new(RunRecorder::new());
        let pool = WorkerPool::new(3).with_telemetry(Telemetry::new(recorder.clone()));
        let _ = pool.fan_out((0..5u32).collect(), |i| i);
        let report = recorder.report();
        assert_eq!(report.counter(Counter::PoolTasks), 5);
        assert_eq!(report.phase_calls(Phase::PoolQueueWait), 5);
    }

    #[test]
    fn tracing_pool_records_every_task_once_with_unique_seqs() {
        use linkclust_core::telemetry::{trace, TraceCollector, TraceLabel};
        let collector = Arc::new(TraceCollector::new());
        let pool =
            WorkerPool::new(4).with_telemetry(Telemetry::disabled().with_tracer(collector.clone()));
        let _ = pool.fan_out((0..2u32).collect(), |i| i);
        let _ = pool.fan_out((0..14u32).collect(), |i| i);
        let _ = pool.fan_out((0..8u32).collect(), |i| i);
        let events = collector.events();
        let mut seqs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.label {
                TraceLabel::PoolTask { seq } => Some(seq),
                TraceLabel::Phase(_) => None,
            })
            .collect();
        seqs.sort_unstable();
        // Every dispatched task traced exactly once, seqs dense from 0.
        assert_eq!(seqs, (0..24).collect::<Vec<u64>>());
        trace::check_events(&events).unwrap();
        // Worker threads registered under their builder-given names, one
        // lane per worker index however many dispatches ran.
        let names = collector.thread_names();
        assert!(names.iter().any(|n| n.starts_with("worker-")), "names: {names:?}");
        assert_eq!(names.len(), 4, "names: {names:?}");
    }
}

//! Work partitioning and the persistent worker pool.
//!
//! Earlier revisions spawned fresh scoped OS threads for every parallel
//! call — every init pass, every sort merge round, and (worst) every
//! coarse chunk. The many-small-chunk regime the head/tail machine
//! produces was therefore dominated by thread setup, not merging. The
//! [`WorkerPool`] here is spawned **once per clustering run** and reused
//! by all phases: it keeps `threads - 1` OS workers parked on a
//! condition variable, dispatches boxed tasks through a shared queue,
//! and rendezvouses over an `mpsc` channel. The submitting thread
//! *helps*: while waiting for its tasks it drains the queue and executes
//! jobs inline, so a pool with `threads == n` delivers `n`-way
//! parallelism with `n - 1` workers, `threads == 1` never spawns at all,
//! and nested submissions (a pooled phase started from a pooled task) cannot
//! deadlock — the nested caller simply executes its own tasks.
//!
//! Panics inside tasks are contained on the worker (so the pool stays
//! usable) and re-raised on the submitting thread with their original
//! payload, preserving the propagation semantics of the old scoped
//! implementation.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// A unit of work submitted to the pool: produces a `T` on whichever
/// thread picks it up.
pub type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// A queued, type-erased job (result delivery is baked into the closure).
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

    fn pop_job(&self) -> Option<Job> {
        self.lock().jobs.pop_front()
    }
}

/// The worker body: pop and run jobs until shutdown. Jobs are wrapped in
/// `catch_unwind` by the submitter, so a panicking task never kills the
/// worker — the pool stays usable afterwards.
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

/// A persistent pool of worker threads, spawned once and reused by every
/// parallel phase of a clustering run.
///
/// A pool for `threads` keeps `threads - 1` parked OS workers; the
/// submitting thread always participates in execution, so `threads == 1`
/// spawns nothing and runs everything inline (the exact serial path).
///
/// # Examples
///
/// ```
/// use linkclust_parallel::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let sums = pool.run_on_ranges((0..4).map(|i| i * 25..(i + 1) * 25).collect(), |r| {
///     r.sum::<usize>()
/// });
/// assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    telemetry: Telemetry,
    /// Next pool-task sequence number, used to label per-task trace
    /// events when the telemetry handle carries a tracer.
    task_seq: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool delivering `threads`-way parallelism
    /// (`threads - 1` OS workers plus the submitting thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or if the OS refuses to spawn a worker
    /// thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Named so trace timelines and debuggers show "worker-i"
                // instead of an anonymous thread id.
                std::thread::Builder::new()
                    .name(format!("worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            threads,
            telemetry: Telemetry::disabled(),
            task_seq: AtomicU64::new(0),
        }
    }

    /// Attaches a telemetry handle: every submitted task bumps
    /// [`Counter::PoolTasks`], and each task's queue wait (submission to
    /// pickup) is recorded as a [`Phase::PoolQueueWait`] span. If the
    /// handle carries a tracer, each task's execution additionally lands
    /// on the executing thread's trace timeline as a `pool_task` event
    /// labelled with its submission sequence number.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The parallelism this pool delivers (workers + submitting thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of jobs currently sitting in the queue waiting for a
    /// thread (submitted but not yet picked up). A sustained non-zero
    /// depth means the pool is oversubscribed; `linkclustd` samples
    /// this as a runtime gauge.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().jobs.len()
    }

    /// Runs every task to completion and returns the results in task
    /// order. Tasks run on the pool workers *and* the calling thread,
    /// which drains the shared queue while it waits — so the call never
    /// deadlocks even when invoked from inside another pooled task.
    ///
    /// # Panics
    ///
    /// If any task panics, the first panic (in task order) is re-raised
    /// here with its original payload after every task has finished; the
    /// pool itself stays usable.
    #[must_use]
    pub fn run_tasks<T>(&self, tasks: Vec<Task<T>>) -> Vec<T>
    where
        T: Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        self.telemetry.add(Counter::PoolTasks, n as u64);
        // Sequence numbers label per-task trace events; the counter only
        // advances when a tracer is attached (one relaxed RMW per batch).
        // ordering: uniqueness of the reserved range comes from RMW
        // atomicity alone — no other memory is published through this
        // counter, so Relaxed is exactly strong enough.
        let base_seq = if self.telemetry.is_tracing() {
            self.task_seq.fetch_add(n as u64, Ordering::Relaxed) // ordering: see above
        } else {
            0
        };
        let mut results: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(n);
        results.resize_with(n, || None);

        if self.workers.is_empty() || n == 1 {
            // No parallelism available (or needed): run inline. Panics
            // are still contained per task so one failing task cannot
            // skip its siblings, matching the pooled path.
            for (idx, task) in tasks.into_iter().enumerate() {
                let _trace = self.telemetry.trace_task(base_seq + idx as u64);
                results[idx] = Some(std::panic::catch_unwind(AssertUnwindSafe(task)));
            }
            return collect_results(results);
        }

        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        {
            let mut st = self.shared.lock();
            for (idx, task) in tasks.into_iter().enumerate() {
                let tx = tx.clone();
                let telemetry = self.telemetry.clone();
                let queued_at = telemetry.is_enabled().then(Instant::now);
                let seq = base_seq + idx as u64;
                st.jobs.push_back(Box::new(move || {
                    if let Some(t0) = queued_at {
                        let nanos = t0.elapsed().as_nanos() as u64;
                        telemetry.record_phase_nanos(Phase::PoolQueueWait, nanos);
                    }
                    let result = {
                        let _trace = telemetry.trace_task(seq);
                        std::panic::catch_unwind(AssertUnwindSafe(task))
                    };
                    let _ = tx.send((idx, result));
                }));
            }
        }
        self.shared.work_ready.notify_all();
        drop(tx);

        // Rendezvous with caller help: prefer executing queued jobs over
        // blocking, so the queue always drains even if every worker is
        // busy with (or blocked inside) other submissions.
        let mut received = 0;
        while received < n {
            match rx.try_recv() {
                Ok((idx, result)) => {
                    results[idx] = Some(result);
                    received += 1;
                    continue;
                }
                Err(mpsc::TryRecvError::Empty | mpsc::TryRecvError::Disconnected) => {}
            }
            if let Some(job) = self.shared.pop_job() {
                job();
                continue;
            }
            // Queue empty, results pending: workers are executing them.
            let (idx, result) = rx.recv().expect("every pooled task delivers exactly one result");
            results[idx] = Some(result);
            received += 1;
        }
        collect_results(results)
    }

    /// Enqueues a fire-and-forget job and returns without waiting for
    /// it: the asynchronous counterpart of [`run_tasks`](Self::run_tasks),
    /// used by batch admission in `linkclust-serve`, where a full
    /// recluster must run *behind* the submitting thread while it keeps
    /// serving queries.
    ///
    /// A parked worker picks the job up. With no workers
    /// (`threads == 1`) the job runs inline before returning — the
    /// degenerate serial pool keeps the "submitted means it executes"
    /// guarantee without spawning; callers needing true background
    /// execution must size the pool at ≥ 2 threads.
    ///
    /// Panics inside the job are contained and *discarded* (the pool
    /// stays usable; nothing rendezvouses to re-raise them), so jobs
    /// must report failure through their own channel — e.g. the swap
    /// handshake admission jobs already perform.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.telemetry.add(Counter::PoolTasks, 1);
        let wrapped: Job = Box::new(move || {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        });
        if self.workers.is_empty() {
            wrapped();
            return;
        }
        self.shared.lock().jobs.push_back(wrapped);
        self.shared.work_ready.notify_one();
    }

    /// Runs `f` over each range on the pool, collecting the results in
    /// range order — the pooled replacement for per-call scoped spawns.
    ///
    /// # Panics
    ///
    /// A panic in `f` on any task is propagated to the caller with its
    /// original payload (see [`run_tasks`](Self::run_tasks)).
    #[must_use]
    pub fn run_on_ranges<T, F>(&self, ranges: Vec<Range<usize>>, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> T + Send + Sync + 'static,
    {
        if ranges.len() <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        let f = Arc::new(f);
        let tasks: Vec<Task<T>> = ranges
            .into_iter()
            .map(|r| {
                let f = Arc::clone(&f);
                Box::new(move || f(r)) as Task<T>
            })
            .collect();
        self.run_tasks(tasks)
    }

    /// Reduces `items` pairwise on the pool until at most three remain;
    /// those are folded serially — the hierarchical merge shape of §VI-A
    /// (pass 2) and §VI-B (array combination).
    ///
    /// # Panics
    ///
    /// A panic in `combine` on any task is propagated to the caller with
    /// its original payload (see [`run_tasks`](Self::run_tasks)).
    pub fn reduce<T, F>(&self, mut items: Vec<T>, combine: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let combine = Arc::new(combine);
        while items.len() > 3 {
            let carry = if items.len() % 2 == 1 { items.pop() } else { None };
            let mut pairs = Vec::with_capacity(items.len() / 2);
            let mut it = items.into_iter();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                pairs.push((a, b));
            }
            let tasks: Vec<Task<T>> = pairs
                .into_iter()
                .map(|(a, b)| {
                    let combine = Arc::clone(&combine);
                    Box::new(move || combine(a, b)) as Task<T>
                })
                .collect();
            let mut next = self.run_tasks(tasks);
            next.extend(carry);
            items = next;
        }
        let mut it = items.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |a, b| combine(a, b)))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            // Workers contain task panics, so a join error would mean a
            // bug in the worker loop itself; swallowing it here avoids a
            // double panic if the pool is dropped during unwinding.
            let _ = h.join();
        }
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
/// The pool module is the workspace's single sanctioned thread-spawn
/// site (the `bare-spawn` lint denies `thread::spawn` everywhere else),
/// and [`WorkerPool::submit`] intentionally runs *inline* on a
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

/// Unwraps the collected per-task results, re-raising the first panic
/// (in task order) with its original payload.
///
/// # Panics
///
/// Propagates the first task panic; panics on a missing result slot,
/// which would be a rendezvous bug.
fn collect_results<T>(results: Vec<Option<std::thread::Result<T>>>) -> Vec<T> {
    let mut out = Vec::with_capacity(results.len());
    let mut first_panic = None;
    for slot in results {
        match slot.expect("rendezvous collected every task result") {
            Ok(v) => out.push(v),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
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
    fn run_on_ranges_preserves_order() {
        let pool = WorkerPool::new(4);
        let ranges = partition_ranges(100, 7);
        let sums = pool.run_on_ranges(ranges.clone(), |r| r.sum::<usize>());
        let direct: Vec<usize> = ranges.into_iter().map(|r| r.sum()).collect();
        assert_eq!(sums, direct);
    }

    #[test]
    fn reduce_sums() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 2, 3, 4, 5, 8, 13, 64] {
            let items: Vec<u64> = (0..n as u64).collect();
            let got = pool.reduce(items, |a, b| a + b);
            if n == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some((n as u64 - 1) * n as u64 / 2), "n={n}");
            }
        }
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers.len(), 0);
        let out = pool.run_on_ranges(partition_ranges(10, 4), |r| r.len());
        assert_eq!(out.iter().sum::<usize>(), 10);
    }

    #[test]
    fn pool_is_reusable_across_many_submissions() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 0..50 {
            let tasks: Vec<Task<usize>> = (0..8)
                .map(|i| {
                    let counter = Arc::clone(&counter);
                    Box::new(move || {
                        // ordering: relaxed is enough — the reader below
                        // happens-after this task via run_tasks' result
                        // rendezvous, not via this RMW's ordering.
                        counter.fetch_add(1, Ordering::Relaxed);
                        round * 8 + i
                    }) as Task<usize>
                })
                .collect();
            let got = pool.run_tasks(tasks);
            let expected: Vec<usize> = (0..8).map(|i| round * 8 + i).collect();
            assert_eq!(got, expected);
        }
        // ordering: every fetch_add happens-before this read because
        // each run_tasks call returned (its mpsc recv of the last result
        // synchronizes-with the worker's send after the increment).
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn task_panic_propagates_original_payload_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<u32>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 3, "task 3 exploded");
                    i
                }) as Task<u32>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_tasks(tasks)))
            .expect_err("the panicking task must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("payload is a string");
        assert!(msg.contains("task 3 exploded"), "unexpected payload: {msg}");
        // The pool keeps working after the panic.
        let got = pool.run_tasks((0..4u32).map(|i| Box::new(move || i) as Task<u32>).collect());
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_submission_from_inside_a_task_does_not_deadlock() {
        // Even a 2-thread pool (one worker) must survive a task that
        // itself submits to the pool: the nested call drains the queue
        // inline instead of blocking.
        for threads in [2usize, 4] {
            let pool = Arc::new(WorkerPool::new(threads));
            let inner_pool = Arc::clone(&pool);
            let tasks: Vec<Task<usize>> = vec![
                Box::new(move || {
                    let sums =
                        inner_pool.run_on_ranges(partition_ranges(40, 4), |r| r.sum::<usize>());
                    sums.iter().sum()
                }),
                Box::new(|| 1000),
            ];
            let got = pool.run_tasks(tasks);
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
        // The pool still serves synchronous batches afterwards.
        let got = pool.run_tasks((0..3u32).map(|i| Box::new(move || i) as Task<u32>).collect());
        assert_eq!(got, vec![0, 1, 2]);
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
        let _ = pool.run_tasks((0..5u32).map(|i| Box::new(move || i) as Task<u32>).collect());
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
        // Two rendezvous tasks: neither finishes until both are running,
        // and the caller-help loop executes only one job at a time, so at
        // least one task lands on a pool worker — the worker-name
        // assertion below is deterministic, not a race against the
        // caller draining the whole queue before the workers wake.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (a, b) = (Arc::clone(&gate), Arc::clone(&gate));
        let _ = pool.run_tasks(vec![
            Box::new(move || {
                a.wait();
                0u32
            }) as Task<u32>,
            Box::new(move || {
                b.wait();
                1u32
            }) as Task<u32>,
        ]);
        let _ = pool.run_tasks((0..14u32).map(|i| Box::new(move || i) as Task<u32>).collect());
        let _ = pool.run_tasks((0..8u32).map(|i| Box::new(move || i) as Task<u32>).collect());
        let events = collector.events();
        let mut seqs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.label {
                TraceLabel::PoolTask { seq } => Some(seq),
                TraceLabel::Phase(_) => None,
            })
            .collect();
        seqs.sort_unstable();
        // Every submitted task traced exactly once, seqs dense from 0.
        assert_eq!(seqs, (0..24).collect::<Vec<u64>>());
        trace::check_events(&events).unwrap();
        // Worker threads registered under their builder-given names.
        let names = collector.thread_names();
        assert!(names.iter().any(|n| n.starts_with("worker-")), "names: {names:?}");
    }
}

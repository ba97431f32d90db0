//! Per-thread event tracing with Chrome trace-event export.
//!
//! A [`TraceCollector`] records timestamped begin/end events — pipeline
//! [`Phase`] spans and worker-pool task executions — into
//! fixed-capacity **per-thread ring buffers** and drains them at run end
//! into Chrome trace-event JSON ([`TraceCollector::to_chrome_json`])
//! viewable in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! # Hot-path design
//!
//! The recording path takes **no locks and performs no allocation**:
//!
//! * Each recording thread owns one ring (`ThreadRing`) — three
//!   `u64` slot arrays (label, start, duration) plus a single atomic
//!   write cursor. The owning thread is the only writer, so a push is
//!   three relaxed slot stores followed by one release cursor store; the
//!   draining thread reads the cursor with acquire ordering and sees
//!   fully written slots for every index below it.
//! * A thread finds its ring through a `thread_local` cache keyed by the
//!   collector's unique id; only the *first* event a thread records
//!   against a given collector takes the registry lock (and allocates
//!   the ring).
//! * On overflow the cursor keeps advancing and the slot index wraps:
//!   the **oldest events are overwritten** and counted as dropped
//!   ([`TraceCollector::dropped`]; the facades surface the total as the
//!   `trace_events_dropped` counter). Because events are recorded at
//!   scope *exit* (inner spans before the outer spans that contain
//!   them), keeping the newest suffix can orphan an inner span's parent
//!   but never produces an inner event without its enclosing interval
//!   having existed — nesting of what remains stays consistent, which
//!   [`check_events`] verifies.
//!
//! Timestamps are nanoseconds relative to the collector's creation
//! instant, so traces from one run share a single epoch across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use super::Phase;

/// Default per-thread ring capacity (events). At 24 bytes per slot this
/// is ~1.5 MiB per recording thread — roomy enough that a coarse run on
/// millions of edges keeps every phase span, while a runaway emitter
/// degrades by dropping its own oldest events instead of growing.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Monotonic source of collector ids for the thread-local ring cache.
static COLLECTOR_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's ring for the most recently used collector:
    /// `(collector id, ring)`. One-entry cache — switching between two
    /// live collectors on one thread re-registers, which is lock-taking
    /// but correct (the registry hands back the existing ring).
    static CACHED_RING: std::cell::RefCell<Option<(u64, Arc<ThreadRing>)>> =
        const { std::cell::RefCell::new(None) };
}

/// What a traced interval was: a pipeline phase span or one worker-pool
/// task execution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceLabel {
    /// A [`Phase`] span (the same vocabulary the aggregate report uses).
    Phase(Phase),
    /// Execution of one pool task; `seq` is the submission sequence
    /// number, unique per pool.
    PoolTask {
        /// Pool-wide task submission sequence number.
        seq: u64,
    },
}

/// High bit of the packed label word distinguishes pool tasks from
/// phases.
const LABEL_TASK_BIT: u64 = 1 << 63;

impl TraceLabel {
    /// Packs the label into one `u64` ring slot.
    fn encode(self) -> u64 {
        match self {
            TraceLabel::Phase(p) => p.index() as u64,
            TraceLabel::PoolTask { seq } => LABEL_TASK_BIT | (seq & !LABEL_TASK_BIT),
        }
    }

    /// Inverse of [`encode`](Self::encode); `None` for a word that maps
    /// to no known phase (possible only through memory corruption — the
    /// drain skips such slots rather than panicking).
    fn decode(word: u64) -> Option<Self> {
        if word & LABEL_TASK_BIT != 0 {
            Some(TraceLabel::PoolTask { seq: word & !LABEL_TASK_BIT })
        } else {
            let index = word as usize;
            Phase::ALL.iter().copied().find(|p| p.index() == index).map(TraceLabel::Phase)
        }
    }

    /// The event name used in the Chrome trace (`Phase::name()` for
    /// phases, `"pool_task"` for pool tasks).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceLabel::Phase(p) => p.name(),
            TraceLabel::PoolTask { .. } => "pool_task",
        }
    }
}

/// One drained trace event: a closed interval on one thread's timeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Dense thread id assigned in registration order (0 = first thread
    /// that recorded, typically the caller).
    pub tid: u32,
    /// What the interval was.
    pub label: TraceLabel,
    /// Interval start, nanoseconds since the collector's epoch.
    pub start_nanos: u64,
    /// Interval length in nanoseconds.
    pub dur_nanos: u64,
}

impl TraceEvent {
    /// Interval end, nanoseconds since the collector's epoch (saturating).
    #[must_use]
    pub const fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.dur_nanos)
    }
}

/// One thread's fixed-capacity event ring: single writer (the owning
/// thread), drained by the collector with acquire loads of the cursor.
#[derive(Debug)]
struct ThreadRing {
    /// Total events ever pushed; slot index is `cursor % capacity`.
    cursor: AtomicU64,
    labels: Vec<AtomicU64>,
    starts: Vec<AtomicU64>,
    durs: Vec<AtomicU64>,
}

impl ThreadRing {
    fn new(capacity: usize) -> Self {
        let slot = |_| AtomicU64::new(0);
        Self {
            cursor: AtomicU64::new(0),
            labels: (0..capacity).map(slot).collect(),
            starts: (0..capacity).map(slot).collect(),
            durs: (0..capacity).map(slot).collect(),
        }
    }

    /// Pushes one event. Must only be called from the owning thread —
    /// the single-writer discipline is what lets the stores stay
    /// relaxed with one release fence on the cursor.
    fn push(&self, label: u64, start_nanos: u64, dur_nanos: u64) {
        let i = self.cursor.load(Ordering::Relaxed); // ordering: single writer reads own cursor
        let slot = (i % self.labels.len() as u64) as usize;
        // The release store of the cursor below orders the three slot
        // stores before any acquire reader — the trace-ring publish
        // protocol (see DESIGN.md).
        // ordering: relaxed slot stores, published by the release cursor
        self.labels[slot].store(label, Ordering::Relaxed);
        self.starts[slot].store(start_nanos, Ordering::Relaxed);
        self.durs[slot].store(dur_nanos, Ordering::Relaxed); // ordering: as above
        self.cursor.store(i + 1, Ordering::Release); // ordering: publishes the slot stores above
    }

    /// Reads the newest `<= capacity` events (oldest first) and the
    /// number of overwritten (dropped) events.
    fn snapshot(&self) -> (Vec<(u64, u64, u64)>, u64) {
        let capacity = self.labels.len() as u64;
        // ordering: acquire pairs with the writer's release cursor store;
        // every slot store before that release is now visible.
        let total = self.cursor.load(Ordering::Acquire);
        let kept = total.min(capacity);
        let mut out = Vec::with_capacity(kept as usize);
        for i in (total - kept)..total {
            let slot = (i % capacity) as usize;
            out.push((
                // ordering: covered by the acquire cursor load above
                self.labels[slot].load(Ordering::Relaxed),
                self.starts[slot].load(Ordering::Relaxed),
                self.durs[slot].load(Ordering::Relaxed), // ordering: as above
            ));
        }
        (out, total - kept)
    }
}

/// A registered per-thread ring plus the owning thread's name.
#[derive(Debug)]
struct Registration {
    name: String,
    ring: Arc<ThreadRing>,
}

/// Collects per-thread trace events and exports them as Chrome
/// trace-event JSON. See the [module docs](self) for the recording
/// design; construction and draining are cheap, recording is lock-free.
#[derive(Debug)]
pub struct TraceCollector {
    /// Unique id keying the thread-local ring cache.
    id: u64,
    /// Zero point of every timestamp in this trace.
    epoch: Instant,
    capacity: usize,
    /// All registered rings, in registration order (index = tid).
    /// Locked only on first-event-per-thread registration and on drain.
    rings: Mutex<Vec<Registration>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A collector with the [default ring capacity](DEFAULT_RING_CAPACITY).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A collector whose per-thread rings hold `capacity` events each
    /// (clamped to at least 16). Smaller rings drop older events sooner;
    /// see [`dropped`](Self::dropped).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            // ordering: uniqueness needs only RMW atomicity
            id: COLLECTOR_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity: capacity.max(16),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// The instant all trace timestamps are relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a closed interval that started at `start` (an
    /// [`Instant`]) and lasted `dur_nanos`, on the calling thread's
    /// timeline. Lock-free and allocation-free except for the calling
    /// thread's first event against this collector.
    pub fn record(&self, label: TraceLabel, start: Instant, dur_nanos: u64) {
        #[allow(clippy::cast_possible_truncation)] // ~584 years of nanos fit u64
        let start_nanos =
            start.checked_duration_since(self.epoch).map_or(0, |d| d.as_nanos() as u64);
        let word = label.encode();
        CACHED_RING.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, ring)) = cache.as_ref() {
                if *id == self.id {
                    ring.push(word, start_nanos, dur_nanos);
                    return;
                }
            }
            let ring = self.register_current_thread();
            ring.push(word, start_nanos, dur_nanos);
            *cache = Some((self.id, ring));
        });
    }

    /// Returns the calling thread's ring, creating and registering it on
    /// first use (the one lock-taking step of the recording path).
    fn register_current_thread(&self) -> Arc<ThreadRing> {
        let thread = std::thread::current();
        let name = thread.name().map_or_else(|| format!("{:?}", thread.id()), str::to_owned);
        let ring = Arc::new(ThreadRing::new(self.capacity));
        let mut rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        rings.push(Registration { name, ring: Arc::clone(&ring) });
        ring
    }

    /// Registered thread names, indexed by `tid`.
    #[must_use]
    pub fn thread_names(&self) -> Vec<String> {
        let rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        rings.iter().map(|r| r.name.clone()).collect()
    }

    /// Total events overwritten by ring overflow across all threads, as
    /// of the call. The facades add this to the run report as the
    /// `trace_events_dropped` counter.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        rings.iter().map(|r| r.ring.snapshot().1).sum()
    }

    /// Drains every ring into a flat event list sorted by `(tid, start,
    /// longest-first)` — the order [`check_events`] expects (an
    /// enclosing interval sorts before the intervals it contains).
    /// Recording threads must be quiescent for a complete snapshot;
    /// events pushed concurrently with the drain may or may not appear.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let rings = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (tid, reg) in rings.iter().enumerate() {
            let (slots, _) = reg.ring.snapshot();
            #[allow(clippy::cast_possible_truncation)] // tid count bounded by thread count
            let tid = tid as u32;
            for (word, start_nanos, dur_nanos) in slots {
                if let Some(label) = TraceLabel::decode(word) {
                    out.push(TraceEvent { tid, label, start_nanos, dur_nanos });
                }
            }
        }
        out.sort_by(|a, b| {
            (a.tid, a.start_nanos, std::cmp::Reverse(a.dur_nanos)).cmp(&(
                b.tid,
                b.start_nanos,
                std::cmp::Reverse(b.dur_nanos),
            ))
        });
        out
    }

    /// Serializes the drained events as a Chrome trace-event JSON
    /// document: one `ph: "M"` `thread_name` metadata record per
    /// registered thread, then one `ph: "X"` complete event per
    /// interval, with `ts`/`dur` in microseconds (3 decimals, i.e.
    /// nanosecond-exact). Load the file in <https://ui.perfetto.dev> or
    /// `chrome://tracing`.
    ///
    /// In debug builds the drained events are checked for per-thread
    /// timeline consistency first
    /// ([`debug_check_trace_events`](crate::invariants::debug_check_trace_events)).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        crate::invariants::debug_check_trace_events(&events);
        let names = self.thread_names();
        let mut s = String::with_capacity(events.len() * 110 + names.len() * 80 + 128);
        s.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in names.iter().enumerate() {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":"
            ));
            crate::json::write_escaped(&mut s, name);
            s.push_str("}}");
        }
        for e in events {
            if !first {
                s.push(',');
            }
            first = false;
            let ts = nanos_to_micros(e.start_nanos);
            let dur = nanos_to_micros(e.dur_nanos);
            let (cat, args) = match e.label {
                TraceLabel::Phase(_) => ("phase", String::new()),
                TraceLabel::PoolTask { seq } => ("pool", format!(",\"args\":{{\"seq\":{seq}}}")),
            };
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{ts},\"dur\":{dur}{args}}}",
                e.label.name(),
                e.tid,
            ));
        }
        s.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events_dropped\":{},\
             \"ring_capacity\":{}}}}}",
            self.dropped(),
            self.capacity,
        ));
        s
    }
}

/// Formats nanoseconds as microseconds with 3 decimals — nanosecond
/// precision in the unit Chrome traces use.
fn nanos_to_micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Structural validation of a drained event list (the acceptance bar
/// for a trace): per thread, event starts must be monotone
/// non-decreasing and intervals must be **properly nested** — an event
/// beginning inside an earlier interval must end inside it too, so the
/// per-thread timeline renders as a clean flame graph with no partial
/// overlap. Expects the `(tid, start, longest-first)` order
/// [`TraceCollector::events`] produces.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub fn check_events(events: &[TraceEvent]) -> Result<(), String> {
    let mut stack: Vec<TraceEvent> = Vec::new();
    let mut prev: Option<TraceEvent> = None;
    for e in events {
        if let Some(p) = prev {
            if p.tid == e.tid && p.start_nanos > e.start_nanos {
                return Err(format!(
                    "tid {}: event starts not monotone ({} after {})",
                    e.tid, e.start_nanos, p.start_nanos
                ));
            }
        }
        if prev.is_none_or(|p| p.tid != e.tid) {
            stack.clear();
        }
        while let Some(top) = stack.last() {
            if top.end_nanos() <= e.start_nanos {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            // e starts strictly inside top: it must also end inside it.
            if e.end_nanos() > top.end_nanos() {
                return Err(format!(
                    "tid {}: partial overlap — [{}, {}) crosses the end of enclosing [{}, {})",
                    e.tid,
                    e.start_nanos,
                    e.end_nanos(),
                    top.start_nanos,
                    top.end_nanos(),
                ));
            }
        }
        stack.push(*e);
        prev = Some(*e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(tid: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            tid,
            label: TraceLabel::Phase(Phase::Sweep),
            start_nanos: start,
            dur_nanos: dur,
        }
    }

    #[test]
    fn label_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(
                TraceLabel::decode(TraceLabel::Phase(p).encode()),
                Some(TraceLabel::Phase(p))
            );
        }
        for seq in [0u64, 1, 7, u64::MAX >> 1] {
            let l = TraceLabel::PoolTask { seq };
            assert_eq!(TraceLabel::decode(l.encode()), Some(l));
        }
        // An out-of-range phase word decodes to None instead of panicking.
        assert_eq!(TraceLabel::decode(999), None);
    }

    #[test]
    fn records_and_drains_in_order() {
        let c = TraceCollector::new();
        let t0 = c.epoch();
        c.record(TraceLabel::Phase(Phase::InitPass1), t0, 100);
        c.record(TraceLabel::Phase(Phase::Sort), t0 + Duration::from_nanos(200), 50);
        let events = c.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, TraceLabel::Phase(Phase::InitPass1));
        assert_eq!(events[0].start_nanos, 0);
        assert_eq!(events[0].dur_nanos, 100);
        assert_eq!(events[1].start_nanos, 200);
        assert_eq!(c.dropped(), 0);
        check_events(&events).unwrap();
    }

    #[test]
    fn start_before_epoch_clamps_to_zero() {
        let c = TraceCollector::new();
        let early = c.epoch() - Duration::from_secs(1);
        c.record(TraceLabel::Phase(Phase::Sweep), early, 10);
        assert_eq!(c.events()[0].start_nanos, 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let c = TraceCollector::with_capacity(16);
        let t0 = c.epoch();
        for i in 0..40u64 {
            c.record(TraceLabel::PoolTask { seq: i }, t0 + Duration::from_nanos(i * 10), 5);
        }
        let events = c.events();
        assert_eq!(events.len(), 16);
        assert_eq!(c.dropped(), 24);
        // The newest 16 survive: seqs 24..40.
        assert_eq!(events[0].label, TraceLabel::PoolTask { seq: 24 });
        assert_eq!(events[15].label, TraceLabel::PoolTask { seq: 39 });
    }

    #[test]
    fn multi_thread_rings_are_independent() {
        let c = Arc::new(TraceCollector::new());
        let t0 = c.epoch();
        c.record(TraceLabel::Phase(Phase::Sweep), t0, 10);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::Builder::new()
                    .name(format!("ring-test-{i}"))
                    .spawn(move || {
                        for j in 0..100u64 {
                            c.record(
                                TraceLabel::PoolTask { seq: i * 1000 + j },
                                t0 + Duration::from_nanos(j * 3),
                                2,
                            );
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = c.events();
        assert_eq!(events.len(), 401);
        let names = c.thread_names();
        assert_eq!(names.len(), 5);
        assert!(names.iter().filter(|n| n.starts_with("ring-test-")).count() == 4);
        // Per-tid event counts: 1 for the caller, 100 per spawned thread.
        for tid in 1..5u32 {
            assert_eq!(events.iter().filter(|e| e.tid == tid).count(), 100);
        }
        check_events(&events).unwrap();
    }

    #[test]
    fn check_events_accepts_proper_nesting() {
        // outer [0, 100) contains [10, 40) which contains [15, 20),
        // then sibling [50, 90).
        let events = [ev(0, 0, 100), ev(0, 10, 30), ev(0, 15, 5), ev(0, 50, 40), ev(1, 0, 10)];
        check_events(&events).unwrap();
        // Touching boundaries are nesting, not overlap.
        let events = [ev(0, 0, 100), ev(0, 0, 100), ev(0, 100, 50)];
        check_events(&events).unwrap();
    }

    #[test]
    fn check_events_rejects_partial_overlap_and_disorder() {
        let overlap = [ev(0, 0, 100), ev(0, 50, 100)];
        assert!(check_events(&overlap).unwrap_err().contains("partial overlap"));
        let disorder = [ev(0, 50, 10), ev(0, 0, 10)];
        assert!(check_events(&disorder).unwrap_err().contains("monotone"));
        // Disorder across different tids is fine (timelines are independent).
        let cross = [ev(0, 50, 10), ev(1, 0, 10)];
        check_events(&cross).unwrap();
    }

    #[test]
    fn chrome_json_is_well_formed_and_structured() {
        let c = TraceCollector::new();
        let t0 = c.epoch();
        c.record(TraceLabel::Phase(Phase::InitPass1), t0, 1500);
        c.record(TraceLabel::PoolTask { seq: 3 }, t0 + Duration::from_nanos(2000), 700);
        let json = c.to_chrome_json();
        crate::json::parse(&json).unwrap();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"init_pass1\""));
        assert!(json.contains("\"ts\":2.000,\"dur\":0.700"));
        assert!(json.contains("\"seq\":3"));
        assert!(json.contains("\"events_dropped\":0"));
    }

    #[test]
    fn empty_collector_emits_valid_json() {
        let c = TraceCollector::new();
        let json = c.to_chrome_json();
        crate::json::parse(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }
}

//! Post-hoc analysis of Chrome trace-event timelines.
//!
//! The tracing runtime (`linkclust::core::telemetry::trace`) exports
//! per-thread timelines of properly nested `ph: "X"` complete events.
//! This module loads such a document back and answers the questions a
//! perf investigation starts with:
//!
//! * **per-phase attribution** — total and *self* wall-clock per span
//!   name (self time subtracts nested children on the same thread, so an
//!   `init_pass2` containing `pool_task` spans is not double-counted);
//! * **per-thread load** — busy time (top-level spans), utilization
//!   against the trace's wall span, and the max/mean imbalance ratio;
//! * **pool queue-wait share** — the fraction of total busy time spent
//!   in `pool_queue_wait` spans, i.e. workers starved for work;
//! * **a critical-path estimate** — for a barrier-synchronized
//!   fork-join run, the serial chain is bounded below by
//!   Σ over span names of the busiest thread's self time in that name;
//!   comparing it to the wall span shows how much of the timeline is
//!   explained by the dominant thread of each phase.
//!
//! The `linkclust-analyze` binary wraps this in a CLI with a
//! human-readable table and a `--json` document
//! (schema `linkclust-trace-analysis/v1`).

use std::collections::BTreeMap;

use linkclust_core::json::{self, Json};

/// One `ph: "X"` complete event loaded from a trace document.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// The recording thread's trace id.
    pub tid: u32,
    /// Span name (a phase name or `pool_task`).
    pub name: String,
    /// Event category (`phase` or `pool`).
    pub cat: String,
    /// Start timestamp, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

impl SpanEvent {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// A loaded trace: spans, thread names, and the drop counter the
/// exporter embedded.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// All complete events, in file order.
    pub spans: Vec<SpanEvent>,
    /// `thread_name` metadata records, as `(tid, name)`.
    pub thread_names: Vec<(u32, String)>,
    /// Events lost to ring-buffer overflow before export
    /// (`otherData.events_dropped`).
    pub events_dropped: u64,
}

/// Parses a Chrome trace-event JSON document (object form, as written
/// by `TraceCollector::to_chrome_json`).
///
/// # Errors
///
/// Returns a description of the first syntax or shape error; unknown
/// event kinds are skipped, not rejected.
pub fn parse_chrome_trace(text: &str) -> Result<ParsedTrace, String> {
    let doc = json::parse(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_owned());
    };
    let mut trace = ParsedTrace::default();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = match e.get("tid").and_then(Json::as_index) {
            Some(t) => u32::try_from(t).map_err(|_| format!("tid {t} out of range"))?,
            None => continue,
        };
        match ph {
            "M" if e.get("name").and_then(Json::as_str) == Some("thread_name") => {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                trace.thread_names.push((tid, name));
            }
            "X" => {
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("complete event without a name")?
                    .to_owned();
                let cat = e.get("cat").and_then(Json::as_str).unwrap_or("").to_owned();
                let start_us =
                    e.get("ts").and_then(Json::as_f64).ok_or("complete event without ts")?;
                let dur_us =
                    e.get("dur").and_then(Json::as_f64).ok_or("complete event without dur")?;
                // float-cmp: exact sign check rejecting negative durations
                if !start_us.is_finite() || !dur_us.is_finite() || dur_us < 0.0 {
                    return Err(format!("non-finite or negative timing in span {name:?}"));
                }
                trace.spans.push(SpanEvent { tid, name, cat, start_us, dur_us });
            }
            _ => {}
        }
    }
    if let Some(dropped) =
        doc.get("otherData").and_then(|o| o.get("events_dropped")).and_then(Json::as_index)
    {
        trace.events_dropped = dropped;
    }
    Ok(trace)
}

/// Per-span-name attribution across the whole trace.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations across all threads, microseconds.
    pub total_us: f64,
    /// Total minus time covered by nested children on the same thread.
    pub self_us: f64,
    /// The busiest single thread's self time in this name.
    pub max_thread_self_us: f64,
}

/// Per-thread load summary.
#[derive(Clone, Debug)]
pub struct ThreadRow {
    /// Trace thread id.
    pub tid: u32,
    /// Registered thread name (empty when the trace carries none).
    pub name: String,
    /// Time covered by top-level spans, microseconds.
    pub busy_us: f64,
    /// `busy_us` / wall span (0 for an empty trace).
    pub utilization: f64,
}

/// The full analysis of one trace. Produced by [`analyze`].
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Complete events analyzed.
    pub events: usize,
    /// Events lost before export (from the document's drop counter).
    pub events_dropped: u64,
    /// First span start → last span end, microseconds.
    pub wall_us: f64,
    /// Per-name attribution, sorted by self time, largest first.
    pub phases: Vec<PhaseRow>,
    /// Per-thread load, sorted by tid.
    pub threads: Vec<ThreadRow>,
    /// Busiest thread's busy time over the mean busy time (1.0 is a
    /// perfectly balanced run; 0 for an empty trace).
    pub imbalance: f64,
    /// Fraction of total busy time spent in `pool_queue_wait` spans.
    pub queue_wait_share: f64,
    /// Critical-path estimate: Σ over names of `max_thread_self_us`.
    pub critical_path_us: f64,
}

/// Analyzes a parsed trace. Relies on the exporter's guarantee that
/// per-thread spans are properly nested (enforced by the tracer's
/// debug invariants and `cargo xtask`'s trace checker).
#[must_use]
pub fn analyze(trace: &ParsedTrace) -> TraceAnalysis {
    let mut order: Vec<usize> = (0..trace.spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (&trace.spans[a], &trace.spans[b]);
        sa.tid
            .cmp(&sb.tid)
            .then(sa.start_us.total_cmp(&sb.start_us))
            .then(sb.dur_us.total_cmp(&sa.dur_us))
    });

    let mut self_us = vec![0.0f64; trace.spans.len()];
    let mut busy_by_tid: BTreeMap<u32, f64> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut current_tid: Option<u32> = None;
    for &i in &order {
        let span = &trace.spans[i];
        if current_tid != Some(span.tid) {
            stack.clear();
            current_tid = Some(span.tid);
        }
        // Proper nesting: a span starting before the stack top ends is
        // contained in it; anything the top no longer covers is closed.
        while let Some(&top) = stack.last() {
            if span.start_us < trace.spans[top].end_us() {
                break;
            }
            stack.pop();
        }
        self_us[i] = span.dur_us;
        if let Some(&parent) = stack.last() {
            self_us[parent] -= span.dur_us;
        } else {
            *busy_by_tid.entry(span.tid).or_insert(0.0) += span.dur_us;
        }
        stack.push(i);
    }

    let mut by_name: BTreeMap<&str, PhaseRow> = BTreeMap::new();
    let mut by_name_tid: BTreeMap<(&str, u32), f64> = BTreeMap::new();
    for (i, span) in trace.spans.iter().enumerate() {
        let row = by_name.entry(&span.name).or_insert_with(|| PhaseRow {
            name: span.name.clone(),
            calls: 0,
            total_us: 0.0,
            self_us: 0.0,
            max_thread_self_us: 0.0,
        });
        row.calls += 1;
        row.total_us += span.dur_us;
        row.self_us += self_us[i];
        *by_name_tid.entry((&span.name, span.tid)).or_insert(0.0) += self_us[i];
    }
    for ((name, _), &t) in &by_name_tid {
        if let Some(row) = by_name.get_mut(name) {
            row.max_thread_self_us = row.max_thread_self_us.max(t);
        }
    }

    let wall_us = match (
        trace.spans.iter().map(|s| s.start_us).reduce(f64::min),
        trace.spans.iter().map(SpanEvent::end_us).reduce(f64::max),
    ) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0.0,
    };

    let names: BTreeMap<u32, &str> =
        trace.thread_names.iter().map(|(tid, name)| (*tid, name.as_str())).collect();
    let mut tids: Vec<u32> = busy_by_tid.keys().copied().collect();
    tids.sort_unstable();
    let threads: Vec<ThreadRow> = tids
        .iter()
        .map(|&tid| {
            let busy_us = busy_by_tid[&tid];
            ThreadRow {
                tid,
                name: names.get(&tid).copied().unwrap_or("").to_owned(),
                busy_us,
                // float-cmp: exact divide-by-zero guard
                utilization: if wall_us > 0.0 { busy_us / wall_us } else { 0.0 },
            }
        })
        .collect();

    let total_busy: f64 = threads.iter().map(|t| t.busy_us).sum();
    let max_busy = threads.iter().map(|t| t.busy_us).fold(0.0f64, f64::max);
    #[allow(clippy::cast_precision_loss)] // thread counts are tiny
    let mean_busy = if threads.is_empty() { 0.0 } else { total_busy / threads.len() as f64 };
    // float-cmp: exact divide-by-zero guard
    let imbalance = if mean_busy > 0.0 { max_busy / mean_busy } else { 0.0 };

    let queue_wait_total = by_name.get("pool_queue_wait").map_or(0.0, |row| row.total_us);
    // float-cmp: exact divide-by-zero guard
    let queue_wait_share = if total_busy > 0.0 { queue_wait_total / total_busy } else { 0.0 };

    let critical_path_us = by_name.values().map(|row| row.max_thread_self_us).sum();

    let mut phases: Vec<PhaseRow> = by_name.into_values().collect();
    phases.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));

    TraceAnalysis {
        events: trace.spans.len(),
        events_dropped: trace.events_dropped,
        wall_us,
        phases,
        threads,
        imbalance,
        queue_wait_share,
        critical_path_us,
    }
}

impl TraceAnalysis {
    /// Renders the analysis as one JSON object, schema
    /// `linkclust-trace-analysis/v1`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"linkclust-trace-analysis/v1\",\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"events_dropped\":");
        out.push_str(&self.events_dropped.to_string());
        out.push_str(",\"wall_us\":");
        json::write_f64(&mut out, self.wall_us);
        out.push_str(",\"critical_path_us\":");
        json::write_f64(&mut out, self.critical_path_us);
        out.push_str(",\"imbalance\":");
        json::write_f64(&mut out, self.imbalance);
        out.push_str(",\"queue_wait_share\":");
        json::write_f64(&mut out, self.queue_wait_share);
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, &p.name);
            out.push_str(",\"calls\":");
            out.push_str(&p.calls.to_string());
            out.push_str(",\"total_us\":");
            json::write_f64(&mut out, p.total_us);
            out.push_str(",\"self_us\":");
            json::write_f64(&mut out, p.self_us);
            out.push_str(",\"max_thread_self_us\":");
            json::write_f64(&mut out, p.max_thread_self_us);
            out.push('}');
        }
        out.push_str("],\"threads\":[");
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tid\":");
            out.push_str(&t.tid.to_string());
            out.push_str(",\"name\":");
            json::write_escaped(&mut out, &t.name);
            out.push_str(",\"busy_us\":");
            json::write_f64(&mut out, t.busy_us);
            out.push_str(",\"utilization\":");
            json::write_f64(&mut out, t.utilization);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for TraceAnalysis {
    /// The human-readable report `linkclust-analyze` prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace: {} events over {:.3} ms wall ({} dropped before export)",
            self.events,
            self.wall_us / 1e3,
            self.events_dropped
        )?;
        writeln!(
            f,
            "critical path (est.): {:.3} ms ({:.0}% of wall)",
            self.critical_path_us / 1e3,
            // float-cmp: exact divide-by-zero guard
            if self.wall_us > 0.0 { 100.0 * self.critical_path_us / self.wall_us } else { 0.0 }
        )?;
        writeln!(
            f,
            "load imbalance: {:.2}x (max/mean busy), pool queue-wait share: {:.1}%",
            self.imbalance,
            100.0 * self.queue_wait_share
        )?;
        writeln!(f, "threads:")?;
        for t in &self.threads {
            writeln!(
                f,
                "  tid {:>3} {:<24} busy {:>12.3} ms  ({:>5.1}% of wall)",
                t.tid,
                t.name,
                t.busy_us / 1e3,
                100.0 * t.utilization
            )?;
        }
        writeln!(f, "phases (self time, largest first):")?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<24} self {:>12.3} ms  total {:>12.3} ms  max-thread {:>12.3} ms  x{}",
                p.name,
                p.self_us / 1e3,
                p.total_us / 1e3,
                p.max_thread_self_us / 1e3,
                p.calls
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u32, name: &str, start_us: f64, dur_us: f64) -> SpanEvent {
        SpanEvent { tid, name: name.to_owned(), cat: "phase".to_owned(), start_us, dur_us }
    }

    #[test]
    fn self_time_subtracts_nested_children_per_thread() {
        let trace = ParsedTrace {
            spans: vec![
                span(0, "init_pass2", 0.0, 100.0),
                span(0, "pool_task", 10.0, 30.0),
                span(0, "pool_task", 50.0, 20.0),
                span(1, "pool_task", 0.0, 40.0),
            ],
            thread_names: vec![(0, "main".to_owned()), (1, "worker-0".to_owned())],
            events_dropped: 0,
        };
        let a = analyze(&trace);
        let pass = a.phases.iter().find(|p| p.name == "init_pass2").unwrap();
        assert!((pass.total_us - 100.0).abs() < 1e-9);
        assert!((pass.self_us - 50.0).abs() < 1e-9, "children subtracted: {}", pass.self_us);
        let task = a.phases.iter().find(|p| p.name == "pool_task").unwrap();
        assert!((task.total_us - 90.0).abs() < 1e-9);
        assert!((task.self_us - 90.0).abs() < 1e-9, "leaves keep their time");
        // tid 0 spends 50 µs of self time in pool_task, tid 1 spends 40.
        assert!((task.max_thread_self_us - 50.0).abs() < 1e-9);
        // Busy: tid 0 has one 100 µs top-level span, tid 1 one of 40 µs.
        assert!((a.threads[0].busy_us - 100.0).abs() < 1e-9);
        assert!((a.threads[1].busy_us - 40.0).abs() < 1e-9);
        assert!((a.imbalance - 100.0 / 70.0).abs() < 1e-9);
        assert!((a.wall_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_setup_nested_in_the_sweep_counts_once() {
        let trace = ParsedTrace {
            spans: vec![span(0, "sweep", 0.0, 100.0), span(0, "sweep_setup", 0.0, 10.0)],
            ..ParsedTrace::default()
        };
        let a = analyze(&trace);
        let self_sum: f64 = a.phases.iter().map(|p| p.self_us).sum();
        assert!((self_sum - 100.0).abs() < 1e-9, "self times tile the sweep once");
        let setup = a.phases.iter().find(|p| p.name == "sweep_setup").unwrap();
        assert!((setup.self_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn queue_wait_share_counts_only_wait_spans() {
        let trace = ParsedTrace {
            spans: vec![span(0, "chunk_process", 0.0, 60.0), span(1, "pool_queue_wait", 0.0, 40.0)],
            thread_names: vec![],
            events_dropped: 0,
        };
        let a = analyze(&trace);
        assert!((a.queue_wait_share - 0.4).abs() < 1e-9);
    }

    #[test]
    fn parses_the_exporters_document_shape() {
        let text = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},
            {"name":"sweep","cat":"phase","ph":"X","pid":1,"tid":0,"ts":1.500,"dur":20.000},
            {"name":"pool_task","cat":"pool","ph":"X","pid":1,"tid":0,"ts":2.000,"dur":3.000,"args":{"seq":7}}
        ],"displayTimeUnit":"ms","otherData":{"events_dropped":5,"ring_capacity":4096}}"#;
        let trace = parse_chrome_trace(text).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.thread_names, vec![(0, "main".to_owned())]);
        assert_eq!(trace.events_dropped, 5);
        let a = analyze(&trace);
        assert_eq!(a.events, 2);
        assert!((a.wall_us - 20.0).abs() < 1e-9);
        let sweep = a.phases.iter().find(|p| p.name == "sweep").unwrap();
        assert!((sweep.self_us - 17.0).abs() < 1e-9, "pool_task nested inside sweep");
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let a = analyze(&ParsedTrace::default());
        assert_eq!(a.events, 0);
        assert!(a.wall_us.abs() < f64::EPSILON);
        assert!(a.imbalance.abs() < f64::EPSILON);
        assert!(a.phases.is_empty() && a.threads.is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(
            parse_chrome_trace(r#"{"traceEvents":[{"ph":"X","tid":0,"name":"x","ts":0}]}"#)
                .is_err(),
            "span without dur"
        );
    }
}

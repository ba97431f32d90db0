//! Structural validation of Chrome trace-event JSON, for the
//! `trace-smoke` gate.
//!
//! The artifact the `linkclust --trace` run wrote is parsed with the
//! workspace's strict RFC 8259 parser ([`linkclust_core::json`]), so a
//! writer bug that emits non-JSON fails here. Checks the JSON Object
//! Format of the Chrome trace-event spec: a top-level object with a
//! `traceEvents` array, every event carrying a `ph` phase tag, complete
//! (`"X"`) events carrying `name`/`ts`/`dur`/`pid`/`tid`, and per-`tid`
//! timestamps monotone non-decreasing with properly nested (never
//! partially overlapping) intervals.

use std::collections::HashMap;

use linkclust_core::json::{parse, Json};

/// What a validated trace contained, for the gate's log line.
#[derive(Debug)]
pub(crate) struct TraceSummary {
    /// Number of complete (`"X"`) events.
    pub(crate) complete_events: usize,
    /// Number of distinct `tid` values among complete events.
    pub(crate) threads: usize,
    /// Events the collector dropped on ring overflow, per `otherData`.
    pub(crate) dropped: u64,
}

/// Validates `text` as a Chrome trace-event JSON file.
///
/// Returns a summary on success and a human-readable description of the
/// first structural problem otherwise.
pub(crate) fn check_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse(text)?;
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("`traceEvents` is not an array".to_string()),
        None => return Err("top-level object lacks a `traceEvents` array".to_string()),
    };
    if events.is_empty() {
        return Err("`traceEvents` is empty: the traced run recorded nothing".to_string());
    }

    // Per-tid stack of open interval ends: events arrive sorted by start
    // (checked below), so an event either nests inside the innermost
    // still-open interval or starts at/after its end.
    let mut open: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut last_start: HashMap<u64, f64> = HashMap::new();
    let mut complete_events = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} lacks a string `ph` phase tag"))?;
        match ph {
            "M" => continue, // metadata (thread names)
            "X" => {}
            other => return Err(format!("event {i} has unexpected phase {other:?}")),
        }
        complete_events += 1;
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("complete event {i} lacks a string `name`"));
        }
        let num = |key: &str| {
            e.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("complete event {i} lacks a numeric `{key}`"))
        };
        let ts = num("ts")?;
        let dur = num("dur")?;
        num("pid")?;
        let tid = num("tid")? as u64;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("complete event {i} has a negative `ts` or `dur`"));
        }

        if last_start.insert(tid, ts).is_some_and(|prev| ts < prev) {
            return Err(format!("complete event {i}: `ts` not monotone within tid {tid}"));
        }
        let stack = open.entry(tid).or_default();
        while stack.last().is_some_and(|&end| end <= ts) {
            stack.pop();
        }
        let end = ts + dur;
        if let Some(&enclosing_end) = stack.last() {
            if end > enclosing_end {
                return Err(format!(
                    "complete event {i}: interval [{ts}, {end}] partially overlaps an \
                     enclosing event ending at {enclosing_end} on tid {tid}"
                ));
            }
        }
        stack.push(end);
    }
    if complete_events == 0 {
        return Err("no complete (`\"X\"`) events in the trace".to_string());
    }

    let dropped = doc
        .get("otherData")
        .and_then(|d| d.get("events_dropped"))
        .and_then(Json::as_f64)
        .map_or(0, |v| v as u64);
    Ok(TraceSummary { complete_events, threads: open.len(), dropped })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"traceEvents":[
        {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},
        {"name":"sort","cat":"phase","ph":"X","ts":0.000,"dur":10.000,"pid":1,"tid":0},
        {"name":"sweep","cat":"phase","ph":"X","ts":2.000,"dur":3.000,"pid":1,"tid":0},
        {"name":"task-0","cat":"task","ph":"X","ts":1.500,"dur":4.000,"pid":1,"tid":1}
    ],"displayTimeUnit":"ms","otherData":{"events_dropped":2,"ring_capacity":65536}}"#;

    #[test]
    fn accepts_a_well_formed_trace() {
        let summary = check_chrome_trace(GOOD).expect("trace should validate");
        assert_eq!(summary.complete_events, 3);
        assert_eq!(summary.threads, 2);
        assert_eq!(summary.dropped, 2);
    }

    #[test]
    fn rejects_malformed_json_and_structure() {
        assert!(check_chrome_trace("{").is_err());
        assert!(check_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(check_chrome_trace("{\"traceEvents\":[]}").is_err());
        // missing dur on an X event
        let bad = r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":0}]}"#;
        assert!(check_chrome_trace(bad).is_err());
        // non-monotone timestamps within a tid
        let unsorted = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":0},
            {"name":"b","ph":"X","ts":1,"dur":1,"pid":1,"tid":0}]}"#;
        assert!(check_chrome_trace(unsorted).unwrap_err().contains("monotone"));
        // partial overlap within a tid
        let overlap = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":0}]}"#;
        assert!(check_chrome_trace(overlap).unwrap_err().contains("overlaps"));
    }

    #[test]
    fn rejects_traces_that_are_not_json() {
        // A bare fraction is not an RFC 8259 number, and a lone high
        // surrogate is not a Unicode scalar value; both documents are
        // otherwise well-formed traces.
        for (from, to) in [("\"ts\":2.000", "\"ts\":.5"), ("\"main\"", "\"\\ud800\"")] {
            let broken = GOOD.replace(from, to);
            assert_ne!(broken, GOOD);
            assert!(check_chrome_trace(&broken).is_err(), "accepted {to}");
        }
    }
}

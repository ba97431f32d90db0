//! The benchmark's own spans, recorded around its calls into the
//! program's layers. Spans stay in memory and are written out once, at
//! the end of the traced run, as Chrome trace-event JSON — the format
//! `linkclust-analyze` reads, so its self-time attribution applies
//! unchanged.
//!
//! Categories: `run` is the root span, `group` spans structure the run
//! (setup, batch passes, serve loop, admissions), `layer` spans wrap one
//! call into a layer, and `bench` spans wrap the benchmark's own work
//! (result checks). Time no `layer` or `bench` span covers is
//! unattributed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a span stands for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cat {
    Run,
    Group,
    Layer,
    Bench,
}

impl Cat {
    fn name(self) -> &'static str {
        match self {
            Cat::Run => "run",
            Cat::Group => "group",
            Cat::Layer => "layer",
            Cat::Bench => "bench",
        }
    }
}

struct Event {
    name: &'static str,
    cat: Cat,
    start_us: f64,
    dur_us: f64,
    /// The names of the spans open when this one started, outermost
    /// first.
    ancestors: Vec<&'static str>,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    open: RefCell<Vec<&'static str>>,
    events: RefCell<Vec<Event>>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            open: RefCell::new(Vec::new()),
            events: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, cat: Cat, f: impl FnOnce() -> T) -> T {
        let ancestors = self.open.borrow().clone();
        self.open.borrow_mut().push(name);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.events.borrow_mut().push(Event {
            name,
            cat,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            ancestors,
        });
        out
    }

    /// Shorthand for a [`Cat::Layer`] span.
    pub fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, Cat::Layer, f)
    }

    /// Durations in milliseconds of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.events.borrow().iter().filter(|e| e.name == name).map(|e| e.dur_us / 1e3).collect()
    }

    /// Number of spans whose name satisfies `pred` and that did not run
    /// inside a span named by one of `allowed`.
    #[must_use]
    pub fn count_outside(&self, pred: impl Fn(&str) -> bool, allowed: &[&str]) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| pred(e.name) && !e.ancestors.iter().any(|a| allowed.contains(a)))
            .count()
    }

    /// The recorded spans as a Chrome trace-event document.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from(
            "{\"traceEvents\":[\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"perfbench\"}}",
        );
        for e in self.events.borrow().iter() {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
                e.name,
                e.cat.name(),
                e.start_us,
                e.dur_us
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"events_dropped\":0}}\n");
        out
    }

    /// Names of the spans recorded with category `cat`.
    fn names_of(&self, cat: Cat) -> Vec<&'static str> {
        let mut names: Vec<&'static str> =
            self.events.borrow().iter().filter(|e| e.cat == cat).map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Per-name self time and the unattributed share of a written trace,
/// computed by the repository's own trace analyzer.
pub struct Attribution {
    /// Self time per span name, milliseconds.
    pub self_ms: BTreeMap<String, f64>,
    /// Share of the traced wall clock covered by no `layer` or `bench`
    /// span, percent.
    pub unattributed_pct: f64,
}

/// Parses `chrome_json` back with `linkclust::analyze` and sums the self
/// time of the root and group spans: the time between layer calls.
///
/// # Errors
///
/// Returns the analyzer's parse error.
pub fn attribute(tracer: &Tracer, chrome_json: &str) -> Result<Attribution, String> {
    let parsed = linkclust::analyze::parse_chrome_trace(chrome_json)?;
    let analysis = linkclust::analyze::analyze(&parsed);
    let structural: Vec<&str> =
        tracer.names_of(Cat::Run).into_iter().chain(tracer.names_of(Cat::Group)).collect();
    let unattributed_us: f64 = analysis
        .phases
        .iter()
        .filter(|p| structural.contains(&p.name.as_str()))
        .map(|p| p.self_us.max(0.0))
        .sum();
    let unattributed_pct =
        if analysis.wall_us > 0.0 { 100.0 * unattributed_us / analysis.wall_us } else { f64::NAN };
    let self_ms = analysis.phases.iter().map(|p| (p.name.clone(), p.self_us / 1e3)).collect();
    Ok(Attribution { self_ms, unattributed_pct })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_round_trip_through_the_analyzer() {
        let t = Tracer::new();
        t.span("run", Cat::Run, || {
            t.span("setup", Cat::Group, || {
                t.layer("graph.load", || std::thread::sleep(std::time::Duration::from_millis(5)));
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let json = t.to_chrome_json();
        let a = attribute(&t, &json).unwrap();
        assert!(a.self_ms["graph.load"] >= 4.0);
        assert!(a.unattributed_pct > 20.0 && a.unattributed_pct < 80.0, "{}", a.unattributed_pct);
        assert_eq!(t.count_outside(|n| n == "graph.load", &["setup"]), 0);
        assert_eq!(t.count_outside(|n| n == "graph.load", &["batch"]), 1);
        assert_eq!(t.durations_ms("graph.load").len(), 1);
    }
}

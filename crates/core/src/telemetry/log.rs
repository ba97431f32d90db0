//! Leveled, rate-limited, line-delimited-JSON structured logging.
//!
//! The binaries in this workspace are long-running services
//! (`linkclustd`) and batch tools (`linkclust`, the bench drivers);
//! both need machine-parseable event logs without taking on a logging
//! framework. A [`Logger`] writes one strict-JSON object per line,
//! through the writers of [`crate::json`], to stderr or a file:
//!
//! ```text
//! {"ts_ms":1738000000123,"level":"info","event":"conn_open","peer":"127.0.0.1:9","fd_queries":3}
//! ```
//!
//! Every event carries `ts_ms` (wall-clock Unix milliseconds), `level`,
//! and `event`; callers attach typed key/value fields. A disabled
//! logger ([`Logger::disabled`]) costs one `Option` branch per call
//! site, so the hooks can stay in place unconditionally.
//!
//! **Rate limiting** protects the hot path: at most
//! [`DEFAULT_EVENTS_PER_SEC`] events are written per one-second window
//! (configurable via [`Logger::with_rate_limit`]); excess events are
//! counted, and the first event of a later window emits a
//! `log_rate_limited` record carrying the suppressed count, so bursts
//! are visible without ever amplifying them.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json;

/// Default cap on events written per one-second window.
pub const DEFAULT_EVENTS_PER_SEC: u32 = 200;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Diagnostic detail, off by default.
    Debug = 0,
    /// Normal lifecycle events.
    Info = 1,
    /// Unexpected but survivable conditions.
    Warn = 2,
    /// Failures.
    Error = 3,
}

impl Level {
    /// The lowercase name used in the `level` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value. `From` impls cover the primitive types call
/// sites use, so fields read as `("peer", addr.as_str().into())`.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// An unsigned integer (serialized exactly).
    U64(u64),
    /// A signed integer (serialized exactly).
    I64(i64),
    /// A float (non-finite values serialize as `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escaped).
    Str(&'a str),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl<'a> From<&'a String> for Value<'a> {
    fn from(v: &'a String) -> Self {
        Value::Str(v.as_str())
    }
}

/// Where log lines go.
enum Sink {
    Stderr,
    File(std::fs::File),
    /// Test sink: accumulate lines in memory.
    #[cfg(test)]
    Buffer(Vec<u8>),
}

/// Mutable state behind the sink mutex: the writer plus the
/// rate-limiter window.
struct SinkState {
    sink: Sink,
    max_per_sec: u32,
    window_start: Instant,
    written_in_window: u32,
    suppressed: u64,
}

struct LoggerInner {
    min_level: Level,
    state: Mutex<SinkState>,
}

/// A cheap-to-clone handle writing leveled JSON log lines (see the
/// module docs for the line schema). All clones share one sink and one
/// rate-limiter.
#[derive(Clone, Default)]
pub struct Logger {
    inner: Option<Arc<LoggerInner>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger").field("enabled", &self.inner.is_some()).finish()
    }
}

impl Logger {
    /// The do-nothing logger: every call site stays a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Logger { inner: None }
    }

    /// A logger writing to stderr.
    #[must_use]
    pub fn to_stderr(min_level: Level) -> Self {
        Self::with_sink(Sink::Stderr, min_level)
    }

    /// A logger appending to the file at `path` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened.
    pub fn to_file(path: &Path, min_level: Level) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::with_sink(Sink::File(file), min_level))
    }

    /// Resolves the `--log` CLI spec: the literal `stderr`, or a file
    /// path to append to.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a file spec cannot be opened.
    pub fn from_spec(spec: &str, min_level: Level) -> io::Result<Self> {
        if spec == "stderr" {
            Ok(Self::to_stderr(min_level))
        } else {
            Self::to_file(Path::new(spec), min_level)
        }
    }

    /// A logger accumulating lines in memory (tests only).
    #[cfg(test)]
    fn to_buffer(min_level: Level) -> Self {
        Self::with_sink(Sink::Buffer(Vec::new()), min_level)
    }

    fn with_sink(sink: Sink, min_level: Level) -> Self {
        Logger {
            inner: Some(Arc::new(LoggerInner {
                min_level,
                state: Mutex::new(SinkState {
                    sink,
                    max_per_sec: DEFAULT_EVENTS_PER_SEC,
                    window_start: Instant::now(),
                    written_in_window: 0,
                    suppressed: 0,
                }),
            })),
        }
    }

    /// Replaces the per-second event cap (0 suppresses everything
    /// except the suppression summaries themselves). Applies to every
    /// clone sharing this sink.
    #[must_use]
    pub fn with_rate_limit(self, max_per_sec: u32) -> Self {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap_or_else(PoisonError::into_inner).max_per_sec = max_per_sec;
        }
        self
    }

    /// `true` if events reach a sink.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Logs one event at `level` with the given key/value fields.
    /// Events below the logger's minimum level, and events beyond the
    /// per-second cap, are dropped (the latter are counted and
    /// surfaced in a later `log_rate_limited` record).
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
        let Some(inner) = &self.inner else {
            return;
        };
        if level < inner.min_level {
            return;
        }
        let ts_ms = unix_millis();
        let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Roll the rate window; surface what the previous window dropped.
        if state.window_start.elapsed().as_secs() >= 1 {
            state.window_start = Instant::now();
            state.written_in_window = 0;
            if state.suppressed > 0 {
                let suppressed = state.suppressed;
                state.suppressed = 0;
                state.written_in_window += 1;
                let line = render_line(
                    ts_ms,
                    Level::Warn,
                    "log_rate_limited",
                    &[("suppressed", Value::U64(suppressed))],
                );
                write_line(&mut state.sink, &line);
            }
        }
        if state.written_in_window >= state.max_per_sec {
            state.suppressed += 1;
            return;
        }
        state.written_in_window += 1;
        let line = render_line(ts_ms, level, event, fields);
        write_line(&mut state.sink, &line);
    }

    /// Logs at [`Level::Debug`].
    pub fn debug(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        self.log(Level::Debug, event, fields);
    }

    /// Logs at [`Level::Info`].
    pub fn info(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        self.log(Level::Info, event, fields);
    }

    /// Logs at [`Level::Warn`].
    pub fn warn(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        self.log(Level::Warn, event, fields);
    }

    /// Logs at [`Level::Error`].
    pub fn error(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        self.log(Level::Error, event, fields);
    }

    /// The accumulated buffer contents (test sinks only).
    #[cfg(test)]
    fn buffer(&self) -> String {
        let inner = self.inner.as_ref().expect("buffer logger is enabled");
        let state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        match &state.sink {
            Sink::Buffer(buf) => String::from_utf8(buf.clone()).expect("log lines are UTF-8"),
            _ => panic!("not a buffer logger"),
        }
    }
}

/// Current wall-clock time in Unix milliseconds (0 if the clock reads
/// before the epoch).
fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Renders one complete log line (without the trailing newline).
fn render_line(ts_ms: u64, level: Level, event: &str, fields: &[(&str, Value<'_>)]) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"event\":", level.name());
    json::write_escaped(&mut s, event);
    for (key, value) in fields {
        s.push(',');
        json::write_escaped(&mut s, key);
        s.push(':');
        match *value {
            Value::U64(v) => {
                let _ = write!(s, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(s, "{v}");
            }
            Value::F64(v) => json::write_f64(&mut s, v),
            Value::Bool(v) => {
                let _ = write!(s, "{v}");
            }
            Value::Str(v) => json::write_escaped(&mut s, v),
        }
    }
    s.push('}');
    s
}

/// Writes one line and flushes; I/O errors are swallowed — logging must
/// never take the process down.
fn write_line(sink: &mut Sink, line: &str) {
    match sink {
        Sink::Stderr => {
            let stderr = io::stderr();
            let mut handle = stderr.lock();
            let _ = writeln!(handle, "{line}");
        }
        Sink::File(file) => {
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        #[cfg(test)]
        Sink::Buffer(buf) => {
            let _ = writeln!(buf, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_logger_is_inert() {
        let log = Logger::disabled();
        assert!(!log.is_enabled());
        log.info("anything", &[("k", 1u64.into())]);
    }

    #[test]
    fn events_render_as_valid_json_lines_with_typed_fields() {
        let log = Logger::to_buffer(Level::Debug);
        log.info(
            "conn_open",
            &[
                ("peer", "127.0.0.1:9".into()),
                ("queries", 3u64.into()),
                ("hit_rate", 0.625f64.into()),
                ("ok", true.into()),
                ("delta", Value::I64(-7)),
                ("nan", f64::NAN.into()),
            ],
        );
        let text = log.buffer();
        let line = text.lines().next().expect("one line written");
        json::parse(line).expect("log line is strict JSON");
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"event\":\"conn_open\""));
        assert!(line.contains("\"peer\":\"127.0.0.1:9\""));
        assert!(line.contains("\"queries\":3"));
        assert!(line.contains("\"hit_rate\":0.625"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"delta\":-7"));
        assert!(line.contains("\"nan\":null"), "non-finite floats serialize as null");
        assert!(line.contains("\"ts_ms\":"));
    }

    #[test]
    fn hostile_event_names_and_values_are_escaped() {
        let log = Logger::to_buffer(Level::Debug);
        log.warn("we\"ird\nevent", &[("k\\ey", "va\tl\u{1}ue".into())]);
        let text = log.buffer();
        let line = text.lines().next().expect("one line written");
        json::parse(line).expect("escaped line is strict JSON");
        assert!(line.contains("\\u0001"));
    }

    #[test]
    fn min_level_filters_events() {
        let log = Logger::to_buffer(Level::Warn);
        log.debug("d", &[]);
        log.info("i", &[]);
        log.warn("w", &[]);
        log.error("e", &[]);
        let text = log.buffer();
        assert_eq!(text.lines().count(), 2);
        assert!(!text.contains("\"event\":\"i\""));
        assert!(text.contains("\"event\":\"w\""));
        assert!(text.contains("\"event\":\"e\""));
    }

    #[test]
    fn rate_limiter_caps_a_burst_and_counts_suppressions() {
        let log = Logger::to_buffer(Level::Debug).with_rate_limit(5);
        for i in 0..50u64 {
            log.info("burst", &[("i", i.into())]);
        }
        let text = log.buffer();
        assert_eq!(text.lines().count(), 5, "burst capped at the window limit:\n{text}");
        // The suppression summary appears once a later window opens.
        std::thread::sleep(std::time::Duration::from_millis(1100));
        log.info("after", &[]);
        let text = log.buffer();
        assert!(text.contains("\"event\":\"log_rate_limited\""), "missing summary:\n{text}");
        assert!(text.contains("\"suppressed\":45"), "wrong suppressed count:\n{text}");
        assert!(text.contains("\"event\":\"after\""));
    }
}

//! Live runtime metrics for the resident daemon.
//!
//! [`Server::metrics_text`](crate::Server::metrics_text) renders the
//! full Prometheus exposition; this module holds the pieces it samples:
//! process RSS read from `/proc/self/status` (no dependencies, `None`
//! off Linux), the fixed-capacity [`TimeSeriesRing`]s a low-overhead
//! ticker pushes runtime-gauge samples into, and the tiny plain-HTTP
//! `GET /metrics` responder `linkclustd --metrics-port` exposes so any
//! Prometheus scraper can pull the daemon without speaking the JSON
//! line protocol.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use linkclust_core::telemetry::TimeSeriesRing;
use linkclust_parallel::pool::ServiceThread;

use crate::server::{read_request_line, RequestLine, Server, IO_TIMEOUT, MAX_REQUEST_LINE};

/// Samples retained per runtime gauge ring (at the daemon's 1 s tick,
/// a ten-minute window).
pub(crate) const RING_CAPACITY: usize = 600;

/// Current and peak resident set size in bytes, read from
/// `/proc/self/status` (`VmRSS` / `VmHWM`). `None` when the pseudo-file
/// is unavailable (non-Linux) or unparseable.
#[must_use]
pub fn read_rss_bytes() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut current = None;
    let mut peak = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            current = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            peak = parse_kb(rest);
        }
    }
    Some((current?, peak?))
}

/// Parses a `/proc/self/status` memory field (`  1234 kB`) into bytes.
fn parse_kb(rest: &str) -> Option<u64> {
    let mut it = rest.split_whitespace();
    let value: u64 = it.next()?.parse().ok()?;
    match it.next() {
        Some("kB") => value.checked_mul(1024),
        _ => None,
    }
}

/// One snapshot of every runtime gauge the daemon publishes.
/// Unavailable values (RSS off Linux) are `NaN` — the exposition
/// renders them as the `NaN` token and the JSON writers as `null`.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeSample {
    /// Seconds since the server was assembled.
    pub uptime_seconds: f64,
    /// Current resident set size, bytes.
    pub rss_current_bytes: f64,
    /// Peak resident set size, bytes.
    pub rss_peak_bytes: f64,
    /// Rendered answers currently cached.
    pub cache_entries: f64,
    /// Lifetime cache hit ratio (0 before any query).
    pub cache_hit_ratio: f64,
    /// Jobs waiting in the worker-pool queue.
    pub pool_queue_depth: f64,
    /// The published index generation.
    pub index_generation: f64,
}

/// The fixed-capacity time-series rings a ticker samples runtime gauges
/// into. Bounded memory regardless of process lifetime; the stats
/// document reports each ring's latest value and window extremes.
pub(crate) struct RuntimeRings {
    /// Ticker samples since startup ([`tick`](Self::tick)); the samples
    /// a `stats` request pushes to freshen the rings do not count.
    pub(crate) ticks: u64,
    /// One named ring per gauge, in stable display order.
    pub(crate) rings: Vec<(&'static str, TimeSeriesRing)>,
}

/// Stable ring/gauge names, in display order (must match the field
/// order [`RuntimeRings::push`] samples them in).
pub(crate) const RING_NAMES: [&str; 6] = [
    "rss_current_bytes",
    "rss_peak_bytes",
    "cache_entries",
    "cache_hit_ratio",
    "pool_queue_depth",
    "index_generation",
];

impl RuntimeRings {
    pub(crate) fn new() -> Self {
        RuntimeRings {
            ticks: 0,
            rings: RING_NAMES.iter().map(|&n| (n, TimeSeriesRing::new(RING_CAPACITY))).collect(),
        }
    }

    /// Pushes one ticker sample: [`push`](Self::push) plus one tick.
    pub(crate) fn tick(&mut self, sample: &RuntimeSample) {
        self.ticks += 1;
        self.push(sample);
    }

    /// Pushes one sample of every gauge, timestamped with the uptime
    /// second it was taken at.
    pub(crate) fn push(&mut self, sample: &RuntimeSample) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // uptime is non-negative and far below 2^53 seconds
        let at = sample.uptime_seconds.max(0.0) as u64;
        let values = [
            sample.rss_current_bytes,
            sample.rss_peak_bytes,
            sample.cache_entries,
            sample.cache_hit_ratio,
            sample.pool_queue_depth,
            sample.index_generation,
        ];
        for ((_, ring), value) in self.rings.iter_mut().zip(values) {
            ring.push(at, value);
        }
    }
}

/// How often the daemon's runtime ticker samples the gauges.
pub const TICK_INTERVAL: Duration = Duration::from_secs(1);

/// Spawns the runtime-metrics ticker: a service thread sampling
/// [`Server::sample_runtime`] every [`TICK_INTERVAL`] until the
/// returned handle is dropped. Overhead per tick is one `/proc` read
/// and a few short lock holds.
#[must_use]
pub fn spawn_ticker(server: Arc<Server>) -> ServiceThread {
    ServiceThread::spawn("metrics-ticker", move |shutdown| loop {
        server.sample_runtime();
        if shutdown.wait_timeout(TICK_INTERVAL) {
            return;
        }
    })
}

/// Spawns the plain-HTTP metrics responder on `listener`: answers
/// `GET /metrics` with the server's current Prometheus exposition
/// (HTTP/1.1, `Connection: close`), `404` for any other path, and
/// `405` for any other method. Stops when the returned handle is
/// dropped.
#[must_use]
pub fn spawn_http(listener: TcpListener, server: Arc<Server>) -> ServiceThread {
    ServiceThread::spawn("metrics-http", move |shutdown| {
        // Non-blocking accept + interruptible waits: shutdown never has
        // to wait for one more scrape to arrive.
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // One short-lived request per connection; blocking
                    // I/O with a timeout keeps a stalled client from
                    // wedging the responder.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    handle_http_request(stream, &server);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shutdown.wait_timeout(Duration::from_millis(50)) {
                        return;
                    }
                }
                Err(_) => {
                    if shutdown.wait_timeout(Duration::from_millis(200)) {
                        return;
                    }
                }
            }
        }
    })
}

/// Reads one HTTP request head and writes the matching response: `400`
/// for a request or header line longer than [`MAX_REQUEST_LINE`]
/// bytes, or a request line that is not UTF-8. All I/O errors abandon
/// the connection silently — a broken scraper must not affect the
/// daemon.
fn handle_http_request(stream: std::net::TcpStream, server: &Server) {
    let Ok(clone) = stream.try_clone() else { return };
    let mut reader = BufReader::new(clone);
    let too_long = |stream| {
        let body = format!("request line exceeds {MAX_REQUEST_LINE} bytes\n");
        respond(stream, "400 Bad Request", "text/plain", &body);
    };
    let mut request_buf = Vec::new();
    let request_line = match read_request_line(&mut reader, &mut request_buf) {
        Ok(RequestLine::Line(line)) => Some(line),
        Ok(RequestLine::Eof) => Some(""),
        Ok(RequestLine::NotUtf8) => None,
        Ok(RequestLine::TooLong) => return too_long(stream),
        Err(_) => return,
    };
    // Drain the header block so the client sees a clean close. Header
    // values are never read, so their encoding does not matter.
    let mut header = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut header) {
            Ok(RequestLine::Line("\r\n" | "\n")) | Ok(RequestLine::Eof) | Err(_) => break,
            Ok(RequestLine::Line(_) | RequestLine::NotUtf8) => {}
            Ok(RequestLine::TooLong) => return too_long(stream),
        }
    }
    let Some(request_line) = request_line else {
        return respond(stream, "400 Bad Request", "text/plain", "request line is not UTF-8\n");
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is supported\n".to_string())
    } else if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", "text/plain; version=0.0.4", server.metrics_text())
    } else {
        ("404 Not Found", "text/plain", "try /metrics\n".to_string())
    };
    respond(stream, status, content_type, &body);
}

/// Writes one `Connection: close` response and closes the write side.
fn respond(mut out: std::net::TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = out.write_all(body.as_bytes());
    let _ = out.flush();
    // A refused request may leave bytes unread, and dropping the socket
    // then resets it; a FIN first lets the client read the response.
    let _ = out.shutdown(std::net::Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_kb_handles_the_proc_format() {
        assert_eq!(parse_kb("    1234 kB"), Some(1234 * 1024));
        assert_eq!(parse_kb(" 0 kB"), Some(0));
        assert_eq!(parse_kb(" 12"), None);
        assert_eq!(parse_kb("junk kB"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_readable_on_linux() {
        let (current, peak) = read_rss_bytes().expect("/proc/self/status parses");
        assert!(current > 0, "a live process has resident pages");
        assert!(peak >= current, "peak tracks the high-water mark");
    }

    #[test]
    fn rings_sample_in_name_order_and_stay_bounded() {
        let mut rings = RuntimeRings::new();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            #[allow(clippy::cast_precision_loss)] // test values are small
            let sample = RuntimeSample {
                uptime_seconds: i as f64,
                rss_current_bytes: 1.0,
                rss_peak_bytes: 2.0,
                cache_entries: 3.0,
                cache_hit_ratio: 0.5,
                pool_queue_depth: 4.0,
                index_generation: 5.0,
            };
            rings.tick(&sample);
        }
        assert_eq!(rings.ticks, RING_CAPACITY as u64 + 10);
        for (name, ring) in &rings.rings {
            assert_eq!(ring.len(), RING_CAPACITY, "{name} exceeded capacity");
        }
        let by_name: Vec<f64> =
            rings.rings.iter().map(|(_, r)| r.latest().expect("sampled").1).collect();
        assert_eq!(by_name, vec![1.0, 2.0, 3.0, 0.5, 4.0, 5.0], "field order matches RING_NAMES");
    }
}

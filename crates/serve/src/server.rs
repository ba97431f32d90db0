//! The resident query server.
//!
//! A [`Server`] owns a graph, a published [`DendrogramIndex`], and a
//! [`WorkerPool`]. Light queries (cut, membership, top-k, profile,
//! best-cut) are answered from the published index under a read lock
//! and cached in an [`AnswerCache`]; heavy *batch admissions* (full
//! reclusters) are enqueued on the pool with
//! [`WorkerPool::submit`] and swap the published index on completion
//! while queries keep serving the old one.
//!
//! The wire protocol is line-delimited JSON over TCP — one request
//! object per line, one response object per line, no framing beyond
//! `\n`. Requests are untrusted: every malformed line produces an
//! `{"ok":false,"error":...}` response, never a panic or a dropped
//! connection. The one exception is a line longer than
//! [`MAX_REQUEST_LINE`] bytes: it gets the error response and then the
//! connection closes, so no client can grow the read buffer without
//! bound.
//!
//! ```text
//! {"op":"cut","theta":0.3}            -> {"ok":true,"generation":1,"level":..,"clusters":..}
//! {"op":"edge","id":4,"theta":0.3}    -> {"ok":true,"generation":1,"label":..}
//! {"op":"vertex","id":2,"theta":0.3}  -> {"ok":true,"generation":1,"labels":[..]}
//! {"op":"topk","theta":0.3,"k":5}     -> {"ok":true,"generation":1,"communities":[..]}
//! {"op":"profile"}                    -> {"ok":true,"generation":1,"points":[..]}
//! {"op":"best"}                       -> {"ok":true,"generation":1,"cut":{..}}
//! {"op":"stats"}                      -> the stats document (see [`Server::stats_json`])
//! {"op":"metrics"}                    -> {"ok":true,"exposition":"..."} (Prometheus text)
//! {"op":"recluster"}                  -> {"ok":true,"enqueued":true}
//! {"op":"shutdown"}                   -> {"ok":true,"bye":true}, then the server exits
//! ```
//!
//! Connections are handled sequentially (queries are microseconds; the
//! expensive work runs on the pool), which keeps the server free of
//! both bare threads and hand-rolled atomics: the swap generation lives
//! behind the published-index `RwLock`. Because one connection blocks
//! the rest, a connection that waits longer than five seconds
//! (`IO_TIMEOUT`) for a request line, or for its client to take a
//! response, is closed. Lock discipline: the write lock is released
//! *before* the cache is cleared, and a query re-checks the generation
//! before caching its rendered answer, so a swap can never strand a
//! stale entry in the cache.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use linkclust_core::telemetry::metrics::{MetricKind, MetricsWriter};
use linkclust_core::telemetry::{Counter, LogHistogram, Logger, Phase, RunRecorder, Telemetry};
use linkclust_graph::{CsrGraph, GraphView, WeightedGraph};
use linkclust_parallel::{LinkClustering, WorkerPool};

use crate::cache::AnswerCache;
use crate::index::{DendrogramIndex, IndexError};
use crate::json::{self, Json};
use crate::metrics::{read_rss_bytes, RuntimeRings, RuntimeSample};

/// The graph a server answers queries about — either backend, fixed at
/// startup (both produce bit-identical clusterings).
#[derive(Clone, Debug)]
pub enum ServeGraph {
    /// Adjacency-list backend.
    Weighted(WeightedGraph),
    /// Compressed-sparse-row backend.
    Csr(CsrGraph),
}

impl ServeGraph {
    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        match self {
            ServeGraph::Weighted(g) => g.edge_count(),
            ServeGraph::Csr(g) => g.edge_count(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        match self {
            ServeGraph::Weighted(g) => g.vertex_count(),
            ServeGraph::Csr(g) => g.vertex_count(),
        }
    }

    /// Runs a full clustering on `threads` threads, its telemetry
    /// recorded into the server's `recorder`, and freezes the result
    /// into an index under one [`Phase::IndexBuild`] span.
    fn cluster_to_index(
        &self,
        threads: usize,
        recorder: &Arc<RunRecorder>,
    ) -> Result<DendrogramIndex, IndexError> {
        fn cluster<G: GraphView + Sync>(
            g: &G,
            threads: usize,
            recorder: &Arc<RunRecorder>,
        ) -> Result<DendrogramIndex, IndexError> {
            let facade = LinkClustering::new().threads(threads).recorder(recorder.clone());
            let result = facade.run(g).map_err(|e| config_corrupt(&e))?;
            let telemetry = Telemetry::new(recorder.clone());
            let span = telemetry.span(Phase::IndexBuild);
            let index = DendrogramIndex::build(g, result.output());
            span.finish();
            index
        }
        match self {
            ServeGraph::Weighted(g) => cluster(g, threads, recorder),
            ServeGraph::Csr(g) => cluster(g, threads, recorder),
        }
    }
}

/// Maps the (unreachable for a default config) facade configuration
/// error into the index error space so startup has one error type.
fn config_corrupt(e: &linkclust_core::ConfigError) -> IndexError {
    IndexError::Corrupt { section: "config", index: 0, reason: e.to_string() }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads for clustering runs and batch admissions. With 1
    /// thread, admissions run inline on the submitting thread (see
    /// [`WorkerPool::submit`]).
    pub threads: usize,
    /// Maximum cached rendered answers.
    pub cache_capacity: usize,
    /// Structured-log sink for lifecycle events (connection open/close,
    /// admission start/swap/failure). Disabled by default.
    pub logger: Logger,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { threads: 2, cache_capacity: 512, logger: Logger::disabled() }
    }
}

/// The published index plus its monotone generation. Swapped atomically
/// (under the write lock) by batch admissions.
struct Published {
    generation: u64,
    index: Arc<DendrogramIndex>,
}

/// Query kinds, used as cache-key discriminants and histogram slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum QueryKind {
    Cut = 0,
    Edge = 1,
    Vertex = 2,
    TopK = 3,
    Profile = 4,
    Best = 5,
}

impl QueryKind {
    const ALL: [QueryKind; 6] = [
        QueryKind::Cut,
        QueryKind::Edge,
        QueryKind::Vertex,
        QueryKind::TopK,
        QueryKind::Profile,
        QueryKind::Best,
    ];

    fn name(self) -> &'static str {
        match self {
            QueryKind::Cut => "cut",
            QueryKind::Edge => "edge",
            QueryKind::Vertex => "vertex",
            QueryKind::TopK => "topk",
            QueryKind::Profile => "profile",
            QueryKind::Best => "best",
        }
    }
}

/// Per-kind latency histograms and lifetime counters.
struct ServeStats {
    hists: Vec<LogHistogram>,
    counts: [u64; 6],
    admissions: u64,
    admit_failures: u64,
    swaps: u64,
}

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            hists: (0..6).map(|_| LogHistogram::default()).collect(),
            counts: [0; 6],
            admissions: 0,
            admit_failures: 0,
            swaps: 0,
        }
    }
}

/// State shared between the serving thread and admission jobs. Holds no
/// [`WorkerPool`] — jobs capture an `Arc<Shared>`, and keeping the pool
/// outside the cycle lets the pool's `Drop` join its workers safely.
struct Shared {
    graph: ServeGraph,
    threads: usize,
    published: RwLock<Published>,
    cache: Mutex<AnswerCache>,
    stats: Mutex<ServeStats>,
    telemetry: Telemetry,
    recorder: Arc<RunRecorder>,
    logger: Logger,
    started: Instant,
    runtime: Mutex<RuntimeRings>,
}

/// The resident clustering server. See the [module docs](self).
pub struct Server {
    shared: Arc<Shared>,
    pool: WorkerPool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("generation", &self.generation())
            .field("edges", &self.shared.graph.edge_count())
            .field("vertices", &self.shared.graph.vertex_count())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Clusters `graph` once (synchronously) and stands the server up
    /// around the resulting index. The clustering's telemetry is the
    /// first entry of the server's report, as every admission's is after
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures (e.g. a coarse output —
    /// impossible for the default fine-grained pipeline used here).
    pub fn new(graph: ServeGraph, config: ServerConfig) -> Result<Self, IndexError> {
        let recorder = Arc::new(RunRecorder::new());
        let index = graph.cluster_to_index(config.threads, &recorder)?;
        Ok(Self::assemble(graph, index, config, recorder))
    }

    /// Stands the server up around a pre-built (e.g. loaded) index
    /// after verifying it describes `graph` — counts and every edge's
    /// endpoints must match.
    ///
    /// # Errors
    ///
    /// [`IndexError::Corrupt`] if the index disagrees with the graph.
    pub fn with_index(
        graph: ServeGraph,
        index: DendrogramIndex,
        config: ServerConfig,
    ) -> Result<Self, IndexError> {
        if index.edge_count() != graph.edge_count() || index.vertex_count() != graph.vertex_count()
        {
            return Err(IndexError::Corrupt {
                section: "header",
                index: 0,
                reason: format!(
                    "index is over {} vertices / {} edges but the graph has {} / {}",
                    index.vertex_count(),
                    index.edge_count(),
                    graph.vertex_count(),
                    graph.edge_count()
                ),
            });
        }
        for e in 0..graph.edge_count() {
            let id = linkclust_graph::EdgeId::new(e);
            let (s, t) = match &graph {
                ServeGraph::Weighted(g) => g.edge_endpoints(id),
                ServeGraph::Csr(g) => g.edge_endpoints(id),
            };
            if index.endpoints(e) != (u32::from(s), u32::from(t)) {
                return Err(IndexError::Corrupt {
                    section: "endpoints",
                    index: e as u64,
                    reason: "edge endpoints do not match the serving graph".to_string(),
                });
            }
        }
        Ok(Self::assemble(graph, index, config, Arc::new(RunRecorder::new())))
    }

    fn assemble(
        graph: ServeGraph,
        index: DendrogramIndex,
        config: ServerConfig,
        recorder: Arc<RunRecorder>,
    ) -> Self {
        let telemetry = Telemetry::new(recorder.clone());
        let threads = config.threads.max(1);
        let shared = Arc::new(Shared {
            graph,
            threads,
            published: RwLock::new(Published { generation: 1, index: Arc::new(index) }),
            cache: Mutex::new(AnswerCache::new(config.cache_capacity)),
            stats: Mutex::new(ServeStats::new()),
            telemetry: telemetry.clone(),
            recorder,
            logger: config.logger,
            started: Instant::now(),
            runtime: Mutex::new(RuntimeRings::new()),
        });
        let pool = WorkerPool::new(threads).with_telemetry(telemetry);
        Server { shared, pool }
    }

    /// The current index generation (starts at 1, bumped per swap).
    ///
    /// # Panics
    ///
    /// Never — lock poisoning is recovered from.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.shared.published.read().unwrap_or_else(PoisonError::into_inner).generation
    }

    /// Seconds since the server was assembled.
    #[must_use]
    pub fn uptime_seconds(&self) -> f64 {
        self.shared.started.elapsed().as_secs_f64()
    }

    /// Jobs currently waiting in the worker-pool queue (see
    /// [`WorkerPool::queue_depth`]).
    #[must_use]
    pub fn pool_queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// The logger this server emits lifecycle events through.
    #[must_use]
    pub fn logger(&self) -> &Logger {
        &self.shared.logger
    }

    /// Snapshots every runtime gauge (RSS, cache occupancy and hit
    /// ratio, pool queue depth, generation, uptime). RSS fields are
    /// `NaN` when `/proc/self/status` is unavailable.
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // gauge exposition is approximate by design
    pub fn runtime_sample(&self) -> RuntimeSample {
        let (rss_current, rss_peak) =
            read_rss_bytes().map_or((f64::NAN, f64::NAN), |(c, p)| (c as f64, p as f64));
        let (entries, hits, misses) = {
            let cache = self.shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let (h, m) = cache.stats();
            (cache.len(), h, m)
        };
        let total = hits + misses;
        RuntimeSample {
            uptime_seconds: self.uptime_seconds(),
            rss_current_bytes: rss_current,
            rss_peak_bytes: rss_peak,
            cache_entries: entries as f64,
            cache_hit_ratio: if total == 0 { 0.0 } else { hits as f64 / total as f64 },
            pool_queue_depth: self.pool.queue_depth() as f64,
            index_generation: self.generation() as f64,
        }
    }

    /// Takes one runtime sample, pushes it into the time-series rings
    /// (bounded memory; see `metrics::RING_CAPACITY`) and counts it as
    /// one `runtime.ticks`. The daemon's ticker calls this once per
    /// second, and nothing else does, so `ticks` reads 0 exactly when
    /// the ticker never ran.
    pub fn sample_runtime(&self) {
        let sample = self.runtime_sample();
        let mut runtime = self.shared.runtime.lock().unwrap_or_else(PoisonError::into_inner);
        runtime.tick(&sample);
    }

    /// Renders the full Prometheus text exposition: every telemetry
    /// counter (`linkclustd_<name>_total`), per-phase wall-clock and
    /// call totals, the per-kind query latency histograms
    /// (`linkclustd_query_latency_seconds{kind=...}`), and the runtime
    /// gauges sampled live at scrape time.
    ///
    /// # Panics
    ///
    /// Never — lock poisoning is recovered from.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let report = self.shared.recorder.report();
        let sample = self.runtime_sample();
        let ticks = {
            let runtime = self.shared.runtime.lock().unwrap_or_else(PoisonError::into_inner);
            runtime.ticks
        };
        let mut w = MetricsWriter::new();

        for c in Counter::ALL {
            let name = format!("linkclustd_{}_total", c.name());
            w.family(&name, c.describe(), MetricKind::Counter);
            w.sample_u64(&name, &[], report.counter(c));
        }

        w.family(
            "linkclustd_phase_seconds_total",
            "Total wall-clock seconds spent in each telemetry phase.",
            MetricKind::Counter,
        );
        for p in Phase::ALL {
            #[allow(clippy::cast_precision_loss)] // exposition is approximate
            let seconds = report.phase_nanos(p) as f64 / 1e9;
            w.sample("linkclustd_phase_seconds_total", &[("phase", p.name())], seconds);
        }
        w.family(
            "linkclustd_phase_calls_total",
            "Spans recorded for each telemetry phase.",
            MetricKind::Counter,
        );
        for p in Phase::ALL {
            w.sample_u64(
                "linkclustd_phase_calls_total",
                &[("phase", p.name())],
                report.phase_calls(p),
            );
        }

        w.family(
            "linkclustd_query_latency_seconds",
            "Per-kind query latency (log-linear buckets, ~1.6% relative error).",
            MetricKind::Histogram,
        );
        {
            let stats = self.shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
            for kind in QueryKind::ALL {
                w.histogram(
                    "linkclustd_query_latency_seconds",
                    &[("kind", kind.name())],
                    &stats.hists[kind as usize],
                    1e9,
                );
            }
        }

        w.family("linkclustd_uptime_seconds", "Seconds since startup.", MetricKind::Gauge);
        w.sample("linkclustd_uptime_seconds", &[], sample.uptime_seconds);
        w.family(
            "linkclustd_rss_bytes",
            "Resident set size in bytes (NaN where /proc is unavailable).",
            MetricKind::Gauge,
        );
        w.sample("linkclustd_rss_bytes", &[("which", "current")], sample.rss_current_bytes);
        w.sample("linkclustd_rss_bytes", &[("which", "peak")], sample.rss_peak_bytes);
        w.family("linkclustd_cache_entries", "Rendered answers cached.", MetricKind::Gauge);
        w.sample("linkclustd_cache_entries", &[], sample.cache_entries);
        w.family(
            "linkclustd_cache_hit_ratio",
            "Lifetime answer-cache hit ratio.",
            MetricKind::Gauge,
        );
        w.sample("linkclustd_cache_hit_ratio", &[], sample.cache_hit_ratio);
        w.family(
            "linkclustd_pool_queue_depth",
            "Jobs waiting in the worker-pool queue.",
            MetricKind::Gauge,
        );
        w.sample("linkclustd_pool_queue_depth", &[], sample.pool_queue_depth);
        w.family(
            "linkclustd_index_generation",
            "Published index generation (starts at 1, bumps per swap).",
            MetricKind::Gauge,
        );
        w.sample("linkclustd_index_generation", &[], sample.index_generation);
        w.family(
            "linkclustd_runtime_ticks_total",
            "Runtime-gauge ticker invocations.",
            MetricKind::Counter,
        );
        w.sample_u64("linkclustd_runtime_ticks_total", &[], ticks);
        w.finish()
    }

    /// Renders the `metrics` op response: the full Prometheus
    /// exposition carried as one JSON-escaped string so it fits the
    /// line protocol.
    fn metrics_response(&self) -> String {
        let mut out = String::from("{\"ok\":true,\"exposition\":");
        json::write_escaped(&mut out, &self.metrics_text());
        out.push('}');
        out
    }

    /// Writes the currently published index in the versioned binary
    /// format (see [`DendrogramIndex::write`]).
    ///
    /// # Errors
    ///
    /// Propagates writer failures as [`IndexError::Io`].
    pub fn write_index<W: Write>(&self, writer: W) -> Result<(), IndexError> {
        let index = {
            let p = self.shared.published.read().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(&p.index)
        };
        index.write(writer).map_err(IndexError::Io)
    }

    /// Serves connections from `listener` sequentially until a client
    /// sends `{"op":"shutdown"}`. I/O errors on one connection abandon
    /// that connection only; a read or write that waits longer than
    /// five seconds (`IO_TIMEOUT`) is one.
    ///
    /// # Errors
    ///
    /// Propagates accept failures from the listener itself.
    pub fn serve(&self, listener: &TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            if self.serve_connection(stream) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Handles one connection; returns `true` if it requested shutdown.
    fn serve_connection(&self, stream: TcpStream) -> bool {
        let peer = stream.peer_addr().map_or_else(|_| "unknown".to_string(), |a| a.to_string());
        self.shared.logger.info("conn_open", &[("peer", (&peer).into())]);
        let mut requests: u64 = 0;
        let shutdown = self.drive_connection(stream, &mut requests);
        self.shared.logger.info(
            "conn_close",
            &[
                ("peer", (&peer).into()),
                ("requests", requests.into()),
                ("shutdown", shutdown.into()),
            ],
        );
        shutdown
    }

    /// The connection read/respond loop; counts handled requests into
    /// `requests` so the close event can report them.
    fn drive_connection(&self, stream: TcpStream, requests: &mut u64) -> bool {
        let timeouts = stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
        if timeouts.is_err() {
            return false;
        }
        let Ok(clone) = stream.try_clone() else { return false };
        let mut reader = BufReader::new(clone);
        let mut writer = BufWriter::new(stream);
        let mut buf = Vec::new();
        loop {
            let (response, shutdown) = match read_request_line(&mut reader, &mut buf) {
                Ok(RequestLine::Line(line)) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    self.handle_line(trimmed)
                }
                // The line was read through its newline, so the next
                // request starts in step.
                Ok(RequestLine::NotUtf8) => (error_response("request line is not UTF-8"), false),
                Ok(RequestLine::TooLong) => {
                    let response =
                        error_response(&format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
                    let _ = writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush());
                    // The rest of the line stays unread, so dropping the
                    // socket resets the connection; a FIN first lets the
                    // client read the reply and a clean end of stream.
                    let _ = writer.get_ref().shutdown(Shutdown::Write);
                    return false;
                }
                Ok(RequestLine::Eof) | Err(_) => return false,
            };
            *requests += 1;
            if writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                return false;
            }
            if shutdown {
                return true;
            }
        }
    }

    /// Handles one request line and renders the response (without the
    /// trailing newline). Returns `(response, shutdown_requested)`.
    /// This is the whole protocol — [`serve`](Self::serve) is just
    /// socket plumbing around it.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return (error_response(&format!("malformed request: {e}")), false),
        };
        let Some(op) = request.get("op").and_then(Json::as_str) else {
            return (error_response("missing string field \"op\""), false);
        };
        match op {
            "cut" => (self.query(QueryKind::Cut, &request), false),
            "edge" => (self.query(QueryKind::Edge, &request), false),
            "vertex" => (self.query(QueryKind::Vertex, &request), false),
            "topk" => (self.query(QueryKind::TopK, &request), false),
            "profile" => (self.query(QueryKind::Profile, &request), false),
            "best" => (self.query(QueryKind::Best, &request), false),
            "stats" => (self.stats_json(), false),
            "metrics" => (self.metrics_response(), false),
            "recluster" => (self.admit_recluster(), false),
            "shutdown" => ("{\"ok\":true,\"bye\":true}".to_string(), true),
            other => (error_response(&format!("unknown op {other:?}")), false),
        }
    }

    /// Answers one cacheable query, timing it into the per-kind
    /// histogram and [`Phase::ServeQuery`].
    fn query(&self, kind: QueryKind, request: &Json) -> String {
        let start = Instant::now();
        let response = self.answer(kind, request);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.telemetry.record_phase_nanos(Phase::ServeQuery, nanos);
        self.shared.telemetry.add(Counter::ServeQueries, 1);
        {
            let mut stats = self.shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.hists[kind as usize].record(nanos);
            stats.counts[kind as usize] += 1;
        }
        response
    }

    fn answer(&self, kind: QueryKind, request: &Json) -> String {
        // Snapshot the published index: the read lock is held only long
        // enough to clone the Arc, so queries never block an admission's
        // compute — only its (nanosecond) swap.
        let (generation, index) = {
            let p = self.shared.published.read().unwrap_or_else(PoisonError::into_inner);
            (p.generation, Arc::clone(&p.index))
        };

        // Resolve the threshold to a level first: the level is the
        // cache bucket, so nearby thetas share entries.
        let needs_theta =
            matches!(kind, QueryKind::Cut | QueryKind::Edge | QueryKind::Vertex | QueryKind::TopK);
        let level = if needs_theta {
            match request.get("theta").and_then(Json::as_f64) {
                Some(theta) if theta.is_finite() => index.level_for_threshold(theta),
                _ => return error_response("missing or non-finite number field \"theta\""),
            }
        } else {
            0
        };
        let aux = match kind {
            QueryKind::Cut => {
                u64::from(request.get("labels").and_then(Json::as_bool).unwrap_or(false))
            }
            QueryKind::Edge | QueryKind::Vertex => {
                match request.get("id").and_then(Json::as_index) {
                    Some(id) => id,
                    None => return error_response("missing non-negative integer field \"id\""),
                }
            }
            QueryKind::TopK => request.get("k").and_then(Json::as_index).unwrap_or(10),
            QueryKind::Profile | QueryKind::Best => 0,
        };

        let key = (kind as u8, level, aux);
        let cached = {
            let mut cache = self.shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.get(&key)
        };
        if let Some(hit) = cached {
            self.shared.telemetry.add(Counter::ServeCacheHits, 1);
            return hit;
        }
        self.shared.telemetry.add(Counter::ServeCacheMisses, 1);

        let rendered = render_answer(kind, &index, generation, level, aux);
        if let Ok(ref payload) = rendered {
            // Cache only if no swap invalidated this generation while we
            // were rendering (the swap's clear may already have run).
            let mut cache = self.shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let current =
                self.shared.published.read().unwrap_or_else(PoisonError::into_inner).generation;
            if current == generation {
                cache.put(key, payload.clone());
            }
        }
        rendered.unwrap_or_else(|e| error_response(&e))
    }

    /// Enqueues a full recluster on the pool. The job recomputes the
    /// clustering, rebuilds the index, and swaps it in; queries keep
    /// serving the old index throughout.
    fn admit_recluster(&self) -> String {
        {
            let mut stats = self.shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.admissions += 1;
        }
        self.shared.telemetry.add(Counter::ServeAdmissions, 1);
        self.shared.logger.info("admit_enqueued", &[("generation", self.generation().into())]);
        let shared = Arc::clone(&self.shared);
        self.pool.submit(move || {
            let start = Instant::now();
            let built = shared.graph.cluster_to_index(shared.threads, &shared.recorder);
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.telemetry.record_phase_nanos(Phase::ServeAdmit, nanos);
            match built {
                Ok(index) => {
                    let swap_start = Instant::now();
                    {
                        let mut p =
                            shared.published.write().unwrap_or_else(PoisonError::into_inner);
                        p.generation += 1;
                        p.index = Arc::new(index);
                    }
                    // Clear *after* releasing the write lock: queries
                    // take cache-then-published, so holding both here
                    // would invert the order.
                    {
                        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
                        cache.clear();
                    }
                    let swap_nanos =
                        u64::try_from(swap_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    shared.telemetry.record_phase_nanos(Phase::ServeSwap, swap_nanos);
                    shared.telemetry.add(Counter::ServeSwaps, 1);
                    let generation =
                        shared.published.read().unwrap_or_else(PoisonError::into_inner).generation;
                    {
                        let mut stats = shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
                        stats.swaps += 1;
                    }
                    shared.logger.info(
                        "admit_swap",
                        &[("generation", generation.into()), ("build_nanos", nanos.into())],
                    );
                }
                Err(e) => {
                    {
                        let mut stats = shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
                        stats.admit_failures += 1;
                    }
                    shared.logger.error("admit_failure", &[("error", (&e.to_string()).into())]);
                }
            }
        });
        "{\"ok\":true,\"enqueued\":true}".to_string()
    }

    /// Renders the stats document: per-kind latency quantiles, cache
    /// hit rate, admission/swap counts, the serve-phase telemetry
    /// totals (each `serve_admit` span holds its clustering and the
    /// `index_build` that follows it; start-up builds an index outside
    /// any admission), the clusterings' `pairs_k1`, `entries_sorted` and
    /// `entries_filtered` counters, trace-drop count, and the
    /// runtime-gauge rings. One sample is pushed first, so no ring is
    /// empty or staler than the request, but it is not a tick:
    /// `runtime.ticks` counts only the ticker's samples
    /// ([`sample_runtime`](Self::sample_runtime)).
    /// Schema `linkclust-serve-stats/v2`.
    ///
    /// # Panics
    ///
    /// Never — lock poisoning is recovered from.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let sample = self.runtime_sample();
        self.shared.runtime.lock().unwrap_or_else(PoisonError::into_inner).push(&sample);
        let generation = self.generation();
        let (hits, misses) = {
            let cache = self.shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.stats()
        };
        let report = self.shared.recorder.report();
        let mut out = String::new();
        out.push_str("{\"ok\":true,\"schema\":\"linkclust-serve-stats/v2\",\"generation\":");
        out.push_str(&generation.to_string());
        out.push_str(",\"uptime_seconds\":");
        json::write_f64(&mut out, self.uptime_seconds());
        out.push_str(",\"queries\":{");
        {
            let stats = self.shared.stats.lock().unwrap_or_else(PoisonError::into_inner);
            for (i, kind) in QueryKind::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let h = &stats.hists[*kind as usize];
                json::write_escaped(&mut out, kind.name());
                out.push_str(":{\"count\":");
                out.push_str(&stats.counts[*kind as usize].to_string());
                for (label, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
                    out.push_str(",\"");
                    out.push_str(label);
                    out.push_str("\":");
                    out.push_str(&h.quantile(q).to_string());
                }
                out.push_str(",\"mean_ns\":");
                json::write_f64(&mut out, h.mean());
                out.push('}');
            }
            out.push_str("},\"cache\":{\"hits\":");
            out.push_str(&hits.to_string());
            out.push_str(",\"misses\":");
            out.push_str(&misses.to_string());
            out.push_str(",\"hit_rate\":");
            let total = hits + misses;
            json::write_f64(&mut out, if total == 0 { 0.0 } else { hits as f64 / total as f64 });
            out.push_str("},\"admissions\":");
            out.push_str(&stats.admissions.to_string());
            out.push_str(",\"admit_failures\":");
            out.push_str(&stats.admit_failures.to_string());
            out.push_str(",\"swaps\":");
            out.push_str(&stats.swaps.to_string());
        }
        out.push_str(",\"trace_events_dropped\":");
        out.push_str(&report.counter(Counter::TraceEventsDropped).to_string());
        out.push_str(",\"phases\":{");
        for (i, phase) in
            [Phase::ServeQuery, Phase::ServeAdmit, Phase::IndexBuild, Phase::ServeSwap]
                .iter()
                .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, phase.name());
            out.push_str(":{\"nanos\":");
            out.push_str(&report.phase_nanos(*phase).to_string());
            out.push_str(",\"calls\":");
            out.push_str(&report.phase_calls(*phase).to_string());
            out.push('}');
        }
        out.push_str("},\"counters\":{");
        for (i, counter) in STATS_COUNTERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, counter.name());
            out.push(':');
            out.push_str(&report.counter(*counter).to_string());
        }
        out.push_str("},\"runtime\":{\"ticks\":");
        {
            let runtime = self.shared.runtime.lock().unwrap_or_else(PoisonError::into_inner);
            out.push_str(&runtime.ticks.to_string());
            out.push_str(",\"gauges\":{");
            for (i, (name, ring)) in runtime.rings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(&mut out, name);
                out.push_str(":{\"latest\":");
                json::write_f64(&mut out, ring.latest().map_or(f64::NAN, |(_, v)| v));
                out.push_str(",\"window_min\":");
                json::write_f64(&mut out, ring.window_min().unwrap_or(f64::NAN));
                out.push_str(",\"window_max\":");
                json::write_f64(&mut out, ring.window_max().unwrap_or(f64::NAN));
                out.push_str(",\"samples\":");
                out.push_str(&ring.len().to_string());
                out.push('}');
            }
        }
        out.push_str("}}}");
        out
    }

    /// Blocks until the published generation reaches at least `target`
    /// or roughly `timeout_ms` elapses; returns the generation seen
    /// last. Admissions are asynchronous, so tests and the shutdown
    /// path use this to await a swap.
    #[must_use]
    pub fn await_generation(&self, target: u64, timeout_ms: u64) -> u64 {
        let deadline = Instant::now() + std::time::Duration::from_millis(timeout_ms);
        loop {
            let g = self.generation();
            if g >= target || Instant::now() >= deadline {
                return g;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}

/// Renders one query answer against a pinned index snapshot, or an
/// error message for out-of-range ids.
fn render_answer(
    kind: QueryKind,
    index: &DendrogramIndex,
    generation: u64,
    level: u32,
    aux: u64,
) -> Result<String, String> {
    let mut out = String::new();
    out.push_str("{\"ok\":true,\"generation\":");
    out.push_str(&generation.to_string());
    match kind {
        QueryKind::Cut => {
            out.push_str(",\"level\":");
            out.push_str(&level.to_string());
            out.push_str(",\"clusters\":");
            out.push_str(&index.cluster_count_at_level(level).to_string());
            if aux == 1 {
                out.push_str(",\"labels\":[");
                for (e, label) in index.edge_labels_at_level(level).iter().enumerate() {
                    if e > 0 {
                        out.push(',');
                    }
                    out.push_str(&label.to_string());
                }
                out.push(']');
            }
        }
        QueryKind::Edge => {
            let e = usize::try_from(aux).map_err(|_| format!("edge id {aux} out of range"))?;
            let Some(label) = index.edge_label_at_level(e, level) else {
                return Err(format!(
                    "edge id {e} out of range (graph has {} edges)",
                    index.edge_count()
                ));
            };
            out.push_str(",\"label\":");
            out.push_str(&label.to_string());
        }
        QueryKind::Vertex => {
            let v = usize::try_from(aux).map_err(|_| format!("vertex id {aux} out of range"))?;
            let Some(labels) = index.vertex_labels_at_level(v, level) else {
                return Err(format!(
                    "vertex id {v} out of range (graph has {} vertices)",
                    index.vertex_count()
                ));
            };
            out.push_str(",\"labels\":[");
            for (i, label) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&label.to_string());
            }
            out.push(']');
        }
        QueryKind::TopK => {
            let k = usize::try_from(aux).unwrap_or(usize::MAX);
            out.push_str(",\"communities\":[");
            for (i, c) in index.top_communities_at_level(level, k).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"label\":");
                out.push_str(&c.label.to_string());
                out.push_str(",\"edges\":");
                out.push_str(&c.edge_count.to_string());
                out.push_str(",\"vertices\":");
                out.push_str(&c.vertex_count.to_string());
                out.push('}');
            }
            out.push(']');
        }
        QueryKind::Profile => {
            out.push_str(",\"points\":[");
            for (i, p) in index.profile().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_cut(&mut out, p.level, p.cluster_count, p.density);
            }
            out.push(']');
        }
        QueryKind::Best => {
            out.push_str(",\"cut\":");
            match index.best_cut() {
                Some(c) => write_cut(&mut out, c.level, c.cluster_count, c.density),
                None => out.push_str("null"),
            }
        }
    }
    out.push('}');
    Ok(out)
}

/// Appends one `{"level":..,"clusters":..,"density":..}` object.
fn write_cut(out: &mut String, level: u32, clusters: usize, density: f64) {
    out.push_str("{\"level\":");
    out.push_str(&level.to_string());
    out.push_str(",\"clusters\":");
    out.push_str(&clusters.to_string());
    out.push_str(",\"density\":");
    json::write_f64(out, density);
    out.push('}');
}

/// The counters the stats document carries, summed over the server's
/// clusterings: K₁, and how much of `L` the sweeps sorted and filtered.
const STATS_COUNTERS: [Counter; 3] =
    [Counter::PairsK1, Counter::EntriesSorted, Counter::EntriesFiltered];

/// How long either `linkclustd` listener waits on one connection's read
/// or write before closing it. The query socket serves one connection at
/// a time, so this bounds how long an idle client can keep the others
/// waiting.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest request line either `linkclustd` listener accepts, in
/// bytes before the newline: the query socket and the `/metrics` HTTP
/// responder both refuse a longer one and close the connection.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One line read by [`read_request_line`].
pub(crate) enum RequestLine<'a> {
    /// A line of at most [`MAX_REQUEST_LINE`] bytes, with its newline if
    /// the stream had one.
    Line(&'a str),
    /// The stream ended before any byte.
    Eof,
    /// More than [`MAX_REQUEST_LINE`] bytes arrived without a newline.
    TooLong,
    /// A line of at most [`MAX_REQUEST_LINE`] bytes that is not UTF-8.
    NotUtf8,
}

/// Reads one `\n`-terminated line into `buf`, taking at most
/// [`MAX_REQUEST_LINE`]` + 1` bytes from `reader`, so a client that never
/// sends a newline costs a bounded buffer.
///
/// # Errors
///
/// Propagates read errors (including timeouts).
pub(crate) fn read_request_line<'a, R: BufRead>(
    reader: &mut R,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<RequestLine<'a>> {
    buf.clear();
    let n = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(RequestLine::Eof);
    }
    if n > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
        return Ok(RequestLine::TooLong);
    }
    Ok(std::str::from_utf8(buf).map_or(RequestLine::NotUtf8, RequestLine::Line))
}

/// Renders an `{"ok":false,...}` response.
fn error_response(message: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    json::write_escaped(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::generate::{gnm, WeightMode};

    fn test_server(threads: usize) -> Server {
        let g = gnm(24, 60, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, 11);
        let config = ServerConfig { threads, cache_capacity: 64, ..ServerConfig::default() };
        Server::new(ServeGraph::Weighted(g), config).unwrap()
    }

    fn ok_json(server: &Server, line: &str) -> Json {
        let (response, shutdown) = server.handle_line(line);
        assert!(!shutdown);
        let v = json::parse(&response).expect("response is valid JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{response}");
        v
    }

    #[test]
    fn answers_every_query_kind() {
        let server = test_server(1);
        let cut = ok_json(&server, r#"{"op":"cut","theta":0.3}"#);
        assert!(cut.get("clusters").and_then(Json::as_index).is_some());
        let cut = ok_json(&server, r#"{"op":"cut","theta":0.3,"labels":true}"#);
        let Json::Arr(labels) = cut.get("labels").unwrap() else { panic!("labels array") };
        assert_eq!(labels.len(), 60);
        let edge = ok_json(&server, r#"{"op":"edge","id":5,"theta":0.3}"#);
        assert!(edge.get("label").and_then(Json::as_index).is_some());
        let vertex = ok_json(&server, r#"{"op":"vertex","id":3,"theta":0.3}"#);
        assert!(matches!(vertex.get("labels"), Some(Json::Arr(_))));
        let topk = ok_json(&server, r#"{"op":"topk","theta":0.3,"k":4}"#);
        let Json::Arr(comms) = topk.get("communities").unwrap() else { panic!() };
        assert!(comms.len() <= 4);
        let profile = ok_json(&server, r#"{"op":"profile"}"#);
        assert!(matches!(profile.get("points"), Some(Json::Arr(_))));
        let best = ok_json(&server, r#"{"op":"best"}"#);
        assert!(best.get("cut").is_some());
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("schema").and_then(Json::as_str), Some("linkclust-serve-stats/v2"));
        assert!(stats.get("uptime_seconds").and_then(Json::as_f64).is_some());
        assert!(stats.get("trace_events_dropped").and_then(Json::as_index).is_some());
        // No ticker runs here: however many `stats` requests freshen the
        // rings, `ticks` stays 0 while every gauge holds samples.
        let _ = ok_json(&server, r#"{"op":"stats"}"#);
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        let runtime = stats.get("runtime").expect("v2 stats carry a runtime object");
        assert_eq!(runtime.get("ticks").and_then(Json::as_index), Some(0));
        let gauges = runtime.get("gauges").expect("runtime gauges");
        for name in crate::metrics::RING_NAMES {
            let g = gauges.get(name).unwrap_or_else(|| panic!("runtime gauge {name}"));
            assert!(g.get("samples").and_then(Json::as_index).is_some_and(|s| s >= 1), "{name}");
        }
        // One ticker sample is one tick.
        server.sample_runtime();
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        let runtime = stats.get("runtime").expect("v2 stats carry a runtime object");
        assert_eq!(runtime.get("ticks").and_then(Json::as_index), Some(1));
    }

    #[test]
    fn hostile_requests_get_typed_errors_not_panics() {
        let server = test_server(1);
        for bad in [
            "not json at all",
            "{}",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"cut"}"#,
            r#"{"op":"cut","theta":"high"}"#,
            r#"{"op":"edge","theta":0.5}"#,
            r#"{"op":"edge","id":1e300,"theta":0.5}"#,
            r#"{"op":"edge","id":999999,"theta":0.5}"#,
            r#"{"op":"vertex","id":-3,"theta":0.5}"#,
            r#"{"op":"vertex","id":999999,"theta":0.5}"#,
        ] {
            let (response, shutdown) = server.handle_line(bad);
            assert!(!shutdown);
            let v = json::parse(&response).expect("error responses are valid JSON");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(v.get("error").and_then(Json::as_str).is_some(), "{bad}");
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let server = test_server(1);
        let first = ok_json(&server, r#"{"op":"cut","theta":0.4}"#);
        let second = ok_json(&server, r#"{"op":"cut","theta":0.4}"#);
        assert_eq!(first, second);
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_index), Some(1));
    }

    #[test]
    fn recluster_swaps_the_generation_and_clears_the_cache() {
        let server = test_server(2);
        assert_eq!(server.generation(), 1);
        let _ = ok_json(&server, r#"{"op":"cut","theta":0.4}"#);
        let admit = ok_json(&server, r#"{"op":"recluster"}"#);
        assert_eq!(admit.get("enqueued").and_then(Json::as_bool), Some(true));
        let generation = server.await_generation(2, 30_000);
        assert_eq!(generation, 2, "admission must complete and swap");
        // Same graph, same pipeline: the answer is identical, but it is
        // served by the new generation.
        let cut = ok_json(&server, r#"{"op":"cut","theta":0.4}"#);
        assert_eq!(cut.get("generation").and_then(Json::as_index), Some(2));
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("swaps").and_then(Json::as_index), Some(1));
        assert_eq!(stats.get("admissions").and_then(Json::as_index), Some(1));
    }

    /// Every clustering the server runs — at start-up and in each
    /// admission — reports into the server's telemetry, which `/metrics`
    /// exports.
    #[test]
    fn clustering_runs_report_into_the_server_telemetry() {
        let g = gnm(24, 60, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, 11);
        let k1 = linkclust_graph::stats::count_common_neighbor_pairs(&g);
        let server = test_server(2);
        let _ = ok_json(&server, r#"{"op":"recluster"}"#);
        assert_eq!(server.await_generation(2, 30_000), 2);
        let report = server.shared.recorder.report();
        assert_eq!(report.counter(Counter::PairsK1), 2 * k1);
        assert_eq!(report.phase_calls(Phase::Sort), 2);
        assert_eq!(report.phase_calls(Phase::IndexBuild), 2);
        let metrics = server.metrics_text();
        assert!(metrics.contains("linkclustd_phase_calls_total{phase=\"sweep\"} 2"));
        assert!(metrics.contains("linkclustd_phase_calls_total{phase=\"index_build\"} 2"));
        let stats = ok_json(&server, r#"{"op":"stats"}"#);
        let builds = stats.get("phases").and_then(|p| p.get("index_build"));
        assert_eq!(builds.and_then(|b| b.get("calls")).and_then(Json::as_index), Some(2));
        // Each run's `L` fits one Filter-Kruskal leaf: sorted whole,
        // nothing filtered.
        let counter =
            |name: &str| stats.get("counters").and_then(|c| c.get(name)).and_then(Json::as_index);
        assert_eq!(counter("pairs_k1"), Some(2 * k1));
        assert_eq!(counter("entries_sorted"), Some(2 * k1));
        assert_eq!(counter("entries_filtered"), Some(0));

        // A server over a loaded index skips the start-up clustering.
        let output = LinkClustering::new().run(&g).unwrap().output().clone();
        let index = DendrogramIndex::build(&g, &output).unwrap();
        let config = ServerConfig { threads: 2, ..ServerConfig::default() };
        let server = Server::with_index(ServeGraph::Weighted(g), index, config).unwrap();
        assert_eq!(server.shared.recorder.report().phase_calls(Phase::Sort), 0);
        assert_eq!(server.shared.recorder.report().phase_calls(Phase::IndexBuild), 0);
        let _ = ok_json(&server, r#"{"op":"recluster"}"#);
        assert_eq!(server.await_generation(2, 30_000), 2);
        let report = server.shared.recorder.report();
        assert_eq!(report.counter(Counter::PairsK1), k1);
        assert_eq!(report.phase_calls(Phase::Sort), 1);
        assert_eq!(report.phase_calls(Phase::IndexBuild), 1);
    }

    #[test]
    fn shutdown_op_signals_exit() {
        let server = test_server(1);
        let (response, shutdown) = server.handle_line(r#"{"op":"shutdown"}"#);
        assert!(shutdown);
        assert!(response.contains("\"bye\":true"));
    }

    #[test]
    fn metrics_exposition_covers_counters_histograms_and_gauges() {
        let server = test_server(1);
        let _ = ok_json(&server, r#"{"op":"cut","theta":0.3}"#);
        let text = server.metrics_text();
        for c in Counter::ALL {
            let family = format!("# TYPE linkclustd_{}_total counter", c.name());
            assert!(text.contains(&family), "missing counter family {}", c.name());
        }
        for kind in QueryKind::ALL {
            let count =
                format!("linkclustd_query_latency_seconds_count{{kind=\"{}\"}}", kind.name());
            assert!(text.contains(&count), "missing histogram for kind {}", kind.name());
        }
        assert!(text.contains("linkclustd_query_latency_seconds_count{kind=\"cut\"} 1"));
        assert!(
            text.contains("linkclustd_query_latency_seconds_bucket{kind=\"cut\",le=\"+Inf\"} 1")
        );
        for gauge in [
            "linkclustd_uptime_seconds",
            "linkclustd_rss_bytes",
            "linkclustd_cache_entries",
            "linkclustd_cache_hit_ratio",
            "linkclustd_pool_queue_depth",
            "linkclustd_index_generation",
        ] {
            assert!(text.contains(&format!("# TYPE {gauge} gauge")), "missing gauge {gauge}");
        }
        assert!(text.contains("linkclustd_index_generation 1"));
    }

    #[test]
    fn metrics_op_carries_the_exposition_over_the_line_protocol() {
        let server = test_server(1);
        let v = ok_json(&server, r#"{"op":"metrics"}"#);
        let exposition = v.get("exposition").and_then(Json::as_str).expect("exposition string");
        assert!(exposition.contains("# TYPE linkclustd_serve_queries_total counter"));
        assert!(exposition.ends_with('\n'), "exposition ends with a newline");
    }

    #[test]
    fn admission_lifecycle_is_logged_as_json_lines() {
        use linkclust_core::telemetry::LogLevel;
        let path =
            std::env::temp_dir().join(format!("linkclust-serve-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let logger = Logger::to_file(&path, LogLevel::Debug).expect("temp log file opens");
        let g = gnm(24, 60, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, 11);
        let config = ServerConfig { threads: 2, cache_capacity: 64, logger };
        let server = Server::new(ServeGraph::Weighted(g), config).unwrap();
        let _ = ok_json(&server, r#"{"op":"recluster"}"#);
        assert_eq!(server.await_generation(2, 30_000), 2);
        let text = std::fs::read_to_string(&path).expect("log file readable");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("\"event\":\"admit_enqueued\""), "{text}");
        assert!(text.contains("\"event\":\"admit_swap\""), "{text}");
        assert!(text.contains("\"generation\":2"), "{text}");
        for line in text.lines() {
            let v = json::parse(line).expect("every log line is valid JSON");
            assert!(v.get("ts_ms").and_then(Json::as_index).is_some(), "{line}");
            assert!(v.get("level").and_then(Json::as_str).is_some(), "{line}");
        }
    }

    #[test]
    fn with_index_rejects_a_mismatched_graph() {
        let g1 = gnm(24, 60, WeightMode::Unit, 1);
        let g2 = gnm(24, 60, WeightMode::Unit, 2);
        let output = LinkClustering::new().run(&g1).unwrap().output().clone();
        let index = DendrogramIndex::build(&g1, &output).unwrap();
        let err =
            Server::with_index(ServeGraph::Weighted(g2), index.clone(), ServerConfig::default())
                .unwrap_err();
        assert!(matches!(err, IndexError::Corrupt { section: "endpoints", .. }));
        assert!(
            Server::with_index(ServeGraph::Weighted(g1), index, ServerConfig::default()).is_ok()
        );
    }

    #[test]
    fn serves_over_a_real_socket() {
        let server = std::sync::Arc::new(test_server(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Drive the accept loop from the pool so the test thread can be
        // the client.
        let background = std::sync::Arc::clone(&server);
        server.pool.submit(move || {
            let _ = background.serve(&listener);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut ask = |line: &str| -> String {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };
        let cut = ask(r#"{"op":"cut","theta":0.3}"#);
        assert!(cut.contains("\"ok\":true"), "{cut}");
        let bye = ask(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"bye\":true"), "{bye}");
    }

    /// Connects to `addr`, sends `request`, keeps the socket open and
    /// returns everything read up to end of stream, which must arrive
    /// within 10 s.
    fn exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        // A server that stops reading early resets the connection, which
        // may fail this write; only the reply matters.
        let _ = stream.write_all(request);
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("a reply and end of stream within 10 s");
        reply
    }

    #[test]
    fn an_idle_client_does_not_stall_the_next_one() {
        let server = std::sync::Arc::new(test_server(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let background = std::sync::Arc::clone(&server);
        server.pool.submit(move || {
            let _ = background.serve(&listener);
        });
        // Connects first, sends nothing and keeps its socket to the end.
        let idle = TcpStream::connect(addr).unwrap();
        let mut second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(2))).unwrap();
        second.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&second)
            .read_line(&mut reply)
            .expect("the second client is answered within IO_TIMEOUT + 2 s");
        assert!(reply.starts_with("{\"ok\":true,"), "{reply}");
        drop(second);
        let third = exchange(addr, b"{\"op\":\"cut\",\"theta\":0.3}\n{\"op\":\"shutdown\"}\n");
        assert!(third.starts_with("{\"ok\":true,"), "{third}");
        assert!(third.ends_with("\"bye\":true}\n"), "{third}");
        drop(idle);
    }

    #[test]
    fn bad_request_lines_are_refused_on_both_listeners() {
        let unterminated = vec![b'x'; 1 << 20];
        let server = std::sync::Arc::new(test_server(2));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let background = std::sync::Arc::clone(&server);
        server.pool.submit(move || {
            let _ = background.serve(&listener);
        });
        assert_eq!(
            exchange(addr, &unterminated),
            "{\"ok\":false,\"error\":\"request line exceeds 65536 bytes\"}\n"
        );
        // A line that is not UTF-8 is refused, and the connection reads on.
        let next =
            exchange(addr, b"\xff\xfe\n{\"op\":\"cut\",\"theta\":0.3}\n{\"op\":\"shutdown\"}\n");
        let lines: Vec<&str> = next.lines().collect();
        assert_eq!(lines.len(), 3, "{next}");
        assert_eq!(lines[0], "{\"ok\":false,\"error\":\"request line is not UTF-8\"}");
        assert!(lines[1].starts_with("{\"ok\":true,"), "{next}");
        assert_eq!(lines[2], "{\"ok\":true,\"bye\":true}");

        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let http_addr = http.local_addr().unwrap();
        let _responder = crate::metrics::spawn_http(http, std::sync::Arc::clone(&server));
        let refused = exchange(http_addr, &unterminated);
        assert!(refused.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{refused}");
        assert!(refused.ends_with("request line exceeds 65536 bytes\n"), "{refused}");
        let refused = exchange(http_addr, b"GET /\xff\xfe HTTP/1.1\r\nHost: test\r\n\r\n");
        assert!(refused.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{refused}");
        assert!(refused.ends_with("request line is not UTF-8\n"), "{refused}");
        let scrape = exchange(http_addr, b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
        assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
    }
}

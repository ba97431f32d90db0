//! The serve phase: a spawned `linkclustd` under two closed-loop client
//! connections sending the `bench_serve` query mix, with `recluster`
//! admissions at fixed points of the first client's stream.
//!
//! Each client holds one connection for its whole stream. The daemon
//! serves one connection at a time, so the first query of client 1,
//! which connects second, waits for client 0's stream to end, and two
//! clients get the throughput of one. Every answer must be `"ok":true`,
//! and a seeded sample is compared with the answer of an in-process
//! server over the same index.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use linkclust::serve::json::{self, Json};
use linkclust::serve::{DendrogramIndex, ServeGraph, Server, ServerConfig};
use linkclust::{CsrGraph, LinkClustering};
use linkclust_bench::serve::{int_field, ServeClient, KINDS, THETA_PALETTE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inputs::GRAPH_FILE;
use crate::util::{secs, Tally};

/// One answer in this many is kept for the in-process comparison.
const SAMPLE_ONE_IN: u32 = 8;
/// Client connections, each driven by its own thread.
pub const CLIENTS: usize = 2;
/// Queries of each kind in every 20 of a stream, in [`KINDS`] order: cut
/// 35%, edge 20%, vertex 15%, topk 15%, profile 10%, best 5%.
const MIX_PER_20: [usize; 6] = [7, 4, 3, 3, 2, 1];

/// A seeded stream of query lines in the mix. The `bench_serve`
/// generator keeps its request renderer private to its crate, so the
/// same mix and θ palette are restated here. Every 20 queries hold the
/// mix's exact shares in a seeded order: on cluster-sparse a top-k cache
/// miss costs about 500 cheap queries, so a drawn count of them would
/// move a load's throughput by ±12% from one seed to the next.
pub struct Requests {
    rng: SmallRng,
    /// Kinds still to come in the current 20.
    deck: Vec<usize>,
    vertices: usize,
    edges: usize,
}

impl Requests {
    #[must_use]
    fn new(seed: u64, vertices: usize, edges: usize) -> Self {
        Requests {
            rng: SmallRng::seed_from_u64(seed),
            deck: Vec::new(),
            vertices: vertices.max(1),
            edges: edges.max(1),
        }
    }

    /// The stream of client `id` of a run seeded with `seed`.
    #[must_use]
    pub fn for_client(seed: u64, id: usize, vertices: usize, edges: usize) -> Self {
        Self::new(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(id as u64 + 1),
            vertices,
            edges,
        )
    }

    /// The next query: its kind (an index into [`KINDS`]) and its line.
    pub fn next_query(&mut self) -> (usize, String) {
        if self.deck.is_empty() {
            self.deck = (0..KINDS.len()).flat_map(|k| vec![k; MIX_PER_20[k]]).collect();
        }
        let kind = self.deck.swap_remove(self.rng.gen_range(0..self.deck.len()));
        let theta = f64::from(self.rng.gen_range(0..THETA_PALETTE as u32)) / THETA_PALETTE as f64;
        let line = match kind {
            0 => format!("{{\"op\":\"cut\",\"theta\":{theta}}}"),
            1 => format!(
                "{{\"op\":\"edge\",\"id\":{},\"theta\":{theta}}}",
                self.rng.gen_range(0..self.edges)
            ),
            2 => format!(
                "{{\"op\":\"vertex\",\"id\":{},\"theta\":{theta}}}",
                self.rng.gen_range(0..self.vertices)
            ),
            3 => format!(
                "{{\"op\":\"topk\",\"theta\":{theta},\"k\":{}}}",
                self.rng.gen_range(1..16u32)
            ),
            4 => "{\"op\":\"profile\"}".to_owned(),
            _ => "{\"op\":\"best\"}".to_owned(),
        };
        (kind, line)
    }
}

/// A running `linkclustd`.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `linkclustd --threads 2` on the workload's graph file and
    /// waits for its `LISTENING` line. Returns the daemon and the
    /// seconds from spawn to that line.
    ///
    /// # Errors
    ///
    /// Reports a failed spawn or a daemon that exits before listening.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let log =
            File::create(dir.join("linkclustd.log")).map_err(|e| format!("daemon log: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg(dir.join(GRAPH_FILE))
            .args(["--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let elapsed = secs(start);
        match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => {
                let addr = addr.to_owned();
                Ok((Daemon { child, _stdout: stdout, addr }, elapsed))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "linkclustd did not start (see {})",
                    dir.join("linkclustd.log").display()
                ))
            }
        }
    }

    /// Sends one line on a fresh connection and returns the answer.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn ask(&self, line: &str) -> Result<String, String> {
        let mut client = ServeClient::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client.ask(line).map(str::to_owned).map_err(|e| format!("ask {line}: {e}"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    ///
    /// # Errors
    ///
    /// Reports a daemon that had to be killed or exited with an error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.ask("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("linkclustd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for linkclustd: {e}")),
            }
        }
        Err("linkclustd did not shut down".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The parameters of one load: a fixed number of queries per client.
#[derive(Clone, Copy, Debug)]
pub struct LoadPlan {
    pub queries_per_client: u64,
    /// The load stops here even if queries remain.
    pub cap_seconds: f64,
    pub seed: u64,
    /// `recluster` requests client 0 sends, evenly spaced in its stream,
    /// the last one after its last query.
    pub admissions: u64,
    pub vertices: usize,
    pub edges: usize,
}

impl LoadPlan {
    /// How many queries client 0 has sent when it sends `recluster`
    /// number `k` (from 0).
    #[must_use]
    pub fn recluster_point(&self, k: u64) -> u64 {
        (k + 1) * self.queries_per_client / self.admissions.max(1)
    }
}

/// What a load measured: one client's, or the clients' together.
#[derive(Default)]
pub struct LoadOutcome {
    pub lat_us: Vec<f64>,
    /// The [`KINDS`] index of each entry of `lat_us`.
    pub kind_of: Vec<u8>,
    /// Latencies of queries answered while a `recluster` was in flight.
    pub lat_admission_us: Vec<f64>,
    pub kinds: [u64; 6],
    /// `recluster` sent → first answer carrying the new generation.
    pub admissions_s: Vec<f64>,
    /// Sampled `(request, answer)` pairs, for [`check_samples`].
    pub samples: Vec<(String, String)>,
    /// Load start → the last load query of either client.
    pub wall_s: f64,
    pub tally: Tally,
}

const RECLUSTER: &str = "{\"op\":\"recluster\"}";

/// One closed-loop client on one connection, kept for its whole stream.
/// Client 0 connects first, so the daemon serves its stream first, and
/// client 1 connects once client 0 has (`connected`): the order, and
/// with it the answer cache's history, is the same in every load.
/// Client 0 also sends the plan's `recluster` requests, and goes on
/// with the mix past its last query until the last admission shows. A
/// refused or dropped connection ends the stream as a failed operation;
/// so does an admission still pending at the plan's deadline.
fn client(
    id: usize,
    addr: &str,
    plan: &LoadPlan,
    start: Instant,
    admitting: &AtomicBool,
    connected: &Barrier,
) -> LoadOutcome {
    let deadline = start + Duration::from_secs_f64(plan.cap_seconds);
    let mut requests = Requests::for_client(plan.seed, id, plan.vertices, plan.edges);
    let mut sampler = SmallRng::seed_from_u64(plan.seed ^ (0x5151 + id as u64));
    let mut log = LoadOutcome::default();
    if id > 0 {
        connected.wait();
    }
    let conn = ServeClient::connect(addr);
    if id == 0 {
        connected.wait();
    }
    let Ok(mut conn) = conn else {
        log.tally.record(false);
        return log;
    };
    let mut sent = 0u64;
    let mut reclusters = 0u64;
    let mut generation = 0u64;
    // When the pending `recluster` was sent, and the generation then.
    let mut pending: Option<(Instant, u64)> = None;

    while Instant::now() < deadline {
        if id == 0
            && pending.is_none()
            && reclusters < plan.admissions
            && sent >= plan.recluster_point(reclusters)
        {
            reclusters += 1;
            let sent_at = Instant::now();
            match conn.ask(RECLUSTER) {
                Ok(r) if r.contains("\"enqueued\":true") => {
                    pending = Some((sent_at, generation));
                    admitting.store(true, Ordering::SeqCst);
                }
                Ok(_) => log.tally.record(false),
                Err(_) => {
                    log.tally.record(false);
                    break;
                }
            }
        }
        if sent >= plan.queries_per_client && pending.is_none() {
            break;
        }
        let (kind, line) = requests.next_query();
        let keep = sampler.gen_range(0..SAMPLE_ONE_IN) == 0;
        let asked = Instant::now();
        let Ok(response) = conn.ask(&line) else {
            log.tally.record(false);
            break;
        };
        let us = secs(asked) * 1e6;
        log.tally.record(response.contains("\"ok\":true"));
        log.lat_us.push(us);
        log.kind_of.push(kind as u8);
        if admitting.load(Ordering::SeqCst) {
            log.lat_admission_us.push(us);
        }
        log.kinds[kind] += 1;
        if let Some(g) = int_field(response, "generation") {
            if let Some((sent_at, before)) = pending {
                if g > before {
                    log.admissions_s.push(secs(sent_at));
                    log.tally.record(true);
                    pending = None;
                    admitting.store(false, Ordering::SeqCst);
                }
            }
            generation = generation.max(g);
        }
        if keep {
            log.samples.push((line, response.to_owned()));
        }
        sent += 1;
    }
    log.wall_s = secs(start);
    if pending.is_some() {
        log.tally.record(false);
        admitting.store(false, Ordering::SeqCst);
    }
    log
}

/// Drives [`CLIENTS`] closed-loop clients against the daemon at `addr`.
#[must_use]
pub fn run_load(addr: &str, plan: &LoadPlan) -> LoadOutcome {
    let admitting = &AtomicBool::new(false);
    let connected = &Barrier::new(CLIENTS);
    let start = Instant::now();
    let logs: Vec<LoadOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| s.spawn(move || client(id, addr, plan, start, admitting, connected)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = LoadOutcome::default();
    for log in logs {
        let wall_s = out.wall_s.max(log.wall_s);
        out.absorb(log);
        out.wall_s = wall_s;
    }
    out
}

impl LoadOutcome {
    /// Appends another load's observations; `wall_s` adds up, as for
    /// consecutive loads.
    pub fn absorb(&mut self, other: LoadOutcome) {
        self.lat_us.extend(other.lat_us);
        self.kind_of.extend(other.kind_of);
        self.lat_admission_us.extend(other.lat_admission_us);
        for (k, n) in self.kinds.iter_mut().zip(other.kinds) {
            *k += n;
        }
        self.admissions_s.extend(other.admissions_s);
        self.samples.extend(other.samples);
        self.tally.absorb(other.tally);
        self.wall_s += other.wall_s;
    }
}

/// The daemon's own account after a load.
pub struct DaemonStats {
    pub peak_rss_mib: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Asks the daemon for its `stats` document.
///
/// # Errors
///
/// Reports a failed request or a document without the expected fields.
pub fn daemon_stats(daemon: &Daemon) -> Result<DaemonStats, String> {
    let text = daemon.ask("{\"op\":\"stats\"}")?;
    let doc = json::parse(&text)?;
    let peak = doc
        .get("runtime")
        .and_then(|r| r.get("gauges"))
        .and_then(|g| g.get("rss_peak_bytes"))
        .and_then(|p| p.get("latest"))
        .and_then(Json::as_f64)
        .ok_or("stats document lacks runtime.gauges.rss_peak_bytes")?;
    let cache = doc.get("cache").ok_or("stats document lacks cache")?;
    let count = |key: &str| {
        cache.get(key).and_then(Json::as_index).ok_or(format!("stats cache lacks {key}"))
    };
    Ok(DaemonStats {
        peak_rss_mib: peak / (1024.0 * 1024.0),
        cache_hits: count("hits")?,
        cache_misses: count("misses")?,
    })
}

/// An in-process server over the index a daemon builds for `g`.
///
/// # Errors
///
/// Propagates clustering and index errors.
pub fn inprocess_server(g: CsrGraph, index: Option<DendrogramIndex>) -> Result<Server, String> {
    let index = match index {
        Some(index) => index,
        None => {
            let result = LinkClustering::new().threads(2).run(&g).map_err(|e| e.to_string())?;
            DendrogramIndex::build(&g, result.output()).map_err(|e| e.to_string())?
        }
    };
    Server::with_index(ServeGraph::Csr(g), index, ServerConfig::default())
        .map_err(|e| e.to_string())
}

/// An answer with its generation number blanked: every generation
/// reclusters the same graph, so answers agree apart from it.
fn without_generation(answer: &str) -> String {
    const KEY: &str = "\"generation\":";
    match answer.find(KEY) {
        Some(at) => {
            let digits = answer[at + KEY.len()..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}{}", &answer[..at + KEY.len()], &answer[at + KEY.len() + digits..])
        }
        None => answer.to_owned(),
    }
}

/// Compares each sampled daemon answer with the in-process answer to
/// the same request; every mismatch turns its query into a failed one.
/// `corrupt` alters every expected answer (the self-test's fault).
pub fn check_samples(
    server: &Server,
    samples: &[(String, String)],
    corrupt: bool,
    tally: &mut Tally,
) {
    for (request, answer) in samples {
        let mut expected = server.handle_line(request).0;
        if corrupt {
            expected.push(' ');
        }
        if without_generation(answer) != without_generation(&expected) {
            tally.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_blanked_only() {
        assert_eq!(
            without_generation("{\"ok\":true,\"generation\":12,\"x\":3}"),
            "{\"ok\":true,\"generation\":,\"x\":3}"
        );
        assert_eq!(without_generation("{\"ok\":true}"), "{\"ok\":true}");
    }

    #[test]
    fn streams_follow_the_mix_and_repeat_per_seed() {
        let mut a = Requests::for_client(7, 0, 50, 200);
        let mut b = Requests::for_client(7, 0, 50, 200);
        let mut counts = [0u32; 6];
        for _ in 0..20_000 {
            let (kind, line) = a.next_query();
            assert_eq!((kind, line.clone()), b.next_query());
            assert!(line.contains(&format!("\"op\":\"{}\"", KINDS[kind])), "{line}");
            counts[kind] += 1;
        }
        assert_eq!(counts, [7000, 4000, 3000, 3000, 2000, 1000]);
        assert_ne!(
            Requests::for_client(7, 1, 50, 200).next_query(),
            Requests::for_client(7, 0, 50, 200).next_query()
        );
    }
}

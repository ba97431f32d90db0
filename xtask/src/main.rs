//! The workspace verification harness (`cargo xtask <command>`).
//!
//! `cargo xtask check` is the single entry point CI and contributors run:
//! it drives rustfmt, clippy (with the workspace lint tables of the root
//! `Cargo.toml`), the documentation build, the forbidden-pattern scanner
//! (see [`scan`]), the concurrency & numeric-discipline lint pass with
//! its ratchet file (see [`lint`]), a traced-CLI smoke run whose Chrome
//! trace artifact is structurally validated (see [`tracecheck`]), a
//! smoke run of a live `linkclustd` over its socket and its metrics
//! listener (see [`run_serve_smoke`]), and the full test suite, then
//! prints a pass/fail summary. Every step is
//! also available as its own subcommand so a failing gate can be re-run
//! in isolation.
//!
//! The policy the harness enforces is documented in `VERIFICATION.md` at
//! the workspace root.

mod benchcheck;
mod benchdiff;
mod lexer;
mod lint;
mod metricscheck;
mod scan;
mod tracecheck;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use linkclust_core::json::{self, Json};

/// One verification gate: a name, a human description, and a runner.
struct Gate {
    name: &'static str,
    description: &'static str,
    run: fn(&Path) -> Result<(), String>,
}

const GATES: &[Gate] = &[
    Gate { name: "fmt", description: "rustfmt (check mode)", run: run_fmt },
    Gate { name: "clippy", description: "clippy with the workspace lint tables", run: run_clippy },
    Gate { name: "doc", description: "rustdoc with warnings denied", run: run_doc },
    Gate { name: "scan", description: "forbidden-pattern scanner", run: run_scan },
    Gate {
        name: "lint",
        description: "concurrency & numeric-discipline lint (ratchet: xtask/lint.baseline)",
        run: lint::run_gate,
    },
    Gate {
        name: "bench-build",
        description: "benchmarks compile (--no-run) and perfbench type-checks",
        run: run_bench_build,
    },
    Gate {
        name: "trace-smoke",
        description: "traced CLI run produces valid Chrome trace JSON",
        run: run_trace_smoke,
    },
    Gate {
        name: "serve-smoke",
        description: "live linkclustd: every query kind, hostile lines, a recluster swap, \
                      /metrics, clean shutdown and its stats document",
        run: run_serve_smoke,
    },
    Gate { name: "test", description: "full test suite", run: run_test },
];

fn main() -> ExitCode {
    let root = workspace_root();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map_or("check", String::as_str);
    match command {
        "check" => run_gates(&root, GATES),
        "fast" => {
            // Everything except the test suite — the quick pre-commit loop.
            run_gates(&root, &GATES[..GATES.len() - 1])
        }
        "bench-ladder" => {
            // Build and run the scale ladder (pass `--smoke` for the
            // two smallest tiers per family — the CI gate), then
            // schema-validate the document it wrote.
            let extra: Vec<&str> =
                args.iter().skip(1).map(String::as_str).filter(|a| *a != "--").collect();
            match run_bench_ladder(&root, &extra) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("bench-ladder failed: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        "bench-diff" => {
            // Compare two BENCH_scale.json documents with noise-aware
            // thresholds; exits non-zero on regression.
            let extra: Vec<&str> =
                args.iter().skip(1).map(String::as_str).filter(|a| *a != "--").collect();
            match benchdiff::run(&root, &extra) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("bench-diff failed: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        "lint" if args.iter().any(|a| a == "--update-baseline") => {
            // Regenerate the ratchet file from the current tree; the
            // resulting diff of xtask/lint.baseline is the review artifact.
            match lint::run_update(&root) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("lint --update-baseline failed: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        name => {
            if let Some(gate) = GATES.iter().find(|g| g.name == name) {
                run_gates(&root, std::slice::from_ref(gate))
            } else {
                eprintln!("unknown command `{name}`\n");
                print_usage();
                ExitCode::FAILURE
            }
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask [command]\n");
    eprintln!("commands:");
    eprintln!("  check   run every gate (the default; CI entry point)");
    eprintln!("  fast    every gate except the test suite");
    for g in GATES {
        eprintln!("  {:<7} {}", g.name, g.description);
    }
    eprintln!(
        "  bench-ladder run the scale ladder and schema-validate BENCH_scale.json (`--smoke` for the CI gate, written to target/bench-ladder/BENCH_scale_smoke.json; `--check-only` to validate an existing artifact without running)"
    );
    eprintln!(
        "  bench-diff   compare two BENCH_scale.json documents for perf regressions (`--threshold X` relative ratio, `--out PATH` for the verdict document; exits non-zero on regression)"
    );
    eprintln!(
        "  lint --update-baseline  regenerate xtask/lint.baseline from the tree (review the diff)"
    );
}

/// Runs the given gates in order, printing a summary; keeps going after a
/// failure so one run reports every broken gate.
fn run_gates(root: &Path, gates: &[Gate]) -> ExitCode {
    let mut failures = Vec::new();
    let mut summary = Vec::new();
    for gate in gates {
        eprintln!("==> xtask {} ({})", gate.name, gate.description);
        let start = Instant::now();
        let result = (gate.run)(root);
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(()) => summary.push(format!("  ok   {:<7} {secs:7.1}s", gate.name)),
            Err(msg) => {
                summary.push(format!("  FAIL {:<7} {secs:7.1}s", gate.name));
                failures.push(format!("{}: {msg}", gate.name));
            }
        }
    }
    eprintln!("\nxtask summary:");
    for line in &summary {
        eprintln!("{line}");
    }
    if failures.is_empty() {
        eprintln!("\nall gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!();
        for f in &failures {
            eprintln!("failed gate -- {f}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root: the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().expect("xtask lives one level below the workspace root").to_path_buf()
}

/// Runs `cargo <args>` at the workspace root, mapping a non-zero exit to
/// an error message.
fn cargo(root: &Path, args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let status = cmd.status().map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` exited with {status}", args.join(" ")))
    }
}

fn run_fmt(root: &Path) -> Result<(), String> {
    cargo(root, &["fmt", "--all", "--check"], &[])
}

fn run_clippy(root: &Path) -> Result<(), String> {
    // The workspace lint tables already deny warnings; `-D warnings` is
    // kept as a belt-and-braces guard for lints raised by rustc itself.
    cargo(root, &["clippy", "--workspace", "--all-targets", "--quiet", "--", "-D", "warnings"], &[])
}

fn run_doc(root: &Path) -> Result<(), String> {
    cargo(root, &["doc", "--workspace", "--no-deps", "--quiet"], &[("RUSTDOCFLAGS", "-D warnings")])
}

fn run_test(root: &Path) -> Result<(), String> {
    cargo(root, &["test", "--workspace", "--quiet"], &[])
}

fn run_bench_build(root: &Path) -> Result<(), String> {
    cargo(root, &["bench", "--workspace", "--no-run", "--quiet"], &[])?;
    // perfbench is a Cargo workspace of its own, so no workspace build
    // sees a library name it imports disappear. `--all-targets` covers
    // its unit tests and `tests/` too.
    cargo(
        root,
        &[
            "check",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--offline",
            "--locked",
            "--all-targets",
            "--quiet",
            "--target-dir",
            "target/perfbench-check",
        ],
        &[],
    )
}

/// Runs a tiny traced clustering through the real CLI and validates the
/// Chrome trace artifact with the workspace's strict JSON parser (see
/// [`tracecheck`]). The artifact is left at
/// `target/trace-smoke/trace.json` so CI can upload it.
fn run_trace_smoke(root: &Path) -> Result<(), String> {
    let dir = root.join("target").join("trace-smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let edges = dir.join("edges.txt");
    let trace = dir.join("trace.json");
    write_smoke_graph(root, &edges)?;

    let edges_arg = edges.to_string_lossy().into_owned();
    let trace_arg = trace.to_string_lossy().into_owned();
    cargo_capture(
        root,
        &[
            "run",
            "--release",
            "--quiet",
            "-p",
            "linkclust",
            "--bin",
            "linkclust",
            "--",
            &edges_arg,
            "--coarse",
            "--threads",
            "4",
            "--trace",
            &trace_arg,
        ],
    )?;

    let text = std::fs::read_to_string(&trace)
        .map_err(|e| format!("traced run left no artifact at {}: {e}", trace.display()))?;
    let summary = tracecheck::check_chrome_trace(&text)
        .map_err(|e| format!("{} is not a valid Chrome trace: {e}", trace.display()))?;
    eprintln!(
        "trace-smoke: {} complete events across {} threads ({} dropped) in {}",
        summary.complete_events,
        summary.threads,
        summary.dropped,
        trace.display()
    );
    Ok(())
}

/// Writes the G(400, 1600) edge list `linkclust generate` prints to
/// `path`: the input of both smoke gates.
fn write_smoke_graph(root: &Path, path: &Path) -> Result<(), String> {
    let graph = cargo_capture(
        root,
        &[
            "run",
            "--release",
            "--quiet",
            "-p",
            "linkclust",
            "--bin",
            "linkclust",
            "--",
            "generate",
            "gnm",
            "400",
            "1600",
        ],
    )?;
    std::fs::write(path, graph).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `cargo <args>` at the workspace root, capturing stdout; stderr
/// passes through. Non-zero exits map to an error message.
fn cargo_capture(root: &Path, args: &[&str]) -> Result<Vec<u8>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if output.status.success() {
        Ok(output.stdout)
    } else {
        Err(format!("`cargo {}` exited with {}", args.join(" "), output.status))
    }
}

/// The document `bench-ladder` writes and validates: `--out PATH`
/// (relative to the workspace root) if given, else
/// `target/bench-ladder/BENCH_scale_smoke.json` for `--smoke` — so the
/// CI gate never replaces the committed full ladder — and
/// `BENCH_scale.json` for the full ladder.
fn ladder_artifact(root: &Path, extra: &[&str]) -> PathBuf {
    match extra.iter().position(|a| *a == "--out").and_then(|i| extra.get(i + 1)) {
        Some(out) => root.join(out),
        None if extra.contains(&"--smoke") => {
            root.join("target").join("bench-ladder").join("BENCH_scale_smoke.json")
        }
        None => root.join("BENCH_scale.json"),
    }
}

/// Builds and runs the `bench_ladder` binary in release mode, forwarding
/// any extra CLI flags (`--smoke`, `--runs N`, `--out PATH`) and naming
/// the document it writes (see [`ladder_artifact`]), then validates that
/// document with the workspace's strict JSON parser (see [`benchcheck`]).
/// A full (non-smoke) document must reach the million-edge tier. With
/// `--check-only` the (expensive) ladder run is skipped and an existing
/// artifact is validated in place.
fn run_bench_ladder(root: &Path, extra: &[&str]) -> Result<(), String> {
    let check_only = extra.contains(&"--check-only");
    let extra: Vec<&str> = extra.iter().copied().filter(|a| *a != "--check-only").collect();
    let extra = extra.as_slice();
    let out = ladder_artifact(root, extra);
    if !check_only {
        let out_arg = out.to_string_lossy().into_owned();
        let mut args =
            vec!["run", "--release", "--quiet", "-p", "linkclust-bench", "--bin", "bench_ladder"];
        args.push("--");
        args.extend_from_slice(extra);
        if !extra.contains(&"--out") {
            args.extend_from_slice(&["--out", &out_arg]);
        }
        cargo(root, &args, &[])?;
    }

    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("ladder run left no artifact at {}: {e}", out.display()))?;
    let summary = benchcheck::check_scale_document(&text)
        .map_err(|e| format!("{} fails schema validation: {e}", out.display()))?;
    if !summary.smoke && summary.max_edges < 1_000_000 {
        return Err(format!(
            "full ladder document tops out at {} edges (expected at least 1000000)",
            summary.max_edges
        ));
    }
    eprintln!(
        "bench-ladder: {} rungs, largest rung {} edges, in {}",
        summary.rungs,
        summary.max_edges,
        out.display()
    );
    Ok(())
}

/// The request lines [`run_serve_smoke`] sends on its query connection,
/// each with the `"ok"` its answer must carry: every query kind, then
/// three hostile lines (malformed JSON, an out-of-range edge id, bytes
/// that are not UTF-8), each followed by a query the same connection
/// must still answer.
const SMOKE_QUERIES: &[(&[u8], bool)] = &[
    (br#"{"op":"cut","theta":0.3}"#, true),
    (br#"{"op":"cut","theta":0.3,"labels":true}"#, true),
    (br#"{"op":"edge","id":5,"theta":0.3}"#, true),
    (br#"{"op":"vertex","id":7,"theta":0.3}"#, true),
    (br#"{"op":"topk","theta":0.3,"k":5}"#, true),
    (br#"{"op":"profile"}"#, true),
    (br#"{"op":"best"}"#, true),
    (br#"{"op":"metrics"}"#, true),
    (br#"{"op":"cut","theta":"#, false),
    (br#"{"op":"best"}"#, true),
    (br#"{"op":"edge","id":1600,"theta":0.3}"#, false),
    (br#"{"op":"best"}"#, true),
    (b"\xff\xfe{\"op\":\"best\"}", false),
    (br#"{"op":"best"}"#, true),
];

/// How long the serve smoke waits for any one answer, for the swap
/// after `recluster`, and for the daemon to exit after `shutdown`.
const SMOKE_WAIT: Duration = Duration::from_secs(30);

/// Starts a real `linkclustd` on the smoke graph and drives it the way
/// a client and a scraper do. On one query connection every query kind
/// must answer `"ok":true` (the `stats` answer must also pass
/// [`benchcheck::check_serve_stats_document`]) and every hostile line of
/// [`SMOKE_QUERIES`] must be refused without losing the connection. A
/// `recluster` must show up as a generation bump within [`SMOKE_WAIT`].
/// `GET /metrics` must be valid exposition with every serve family and
/// a latency series per query kind (see [`metricscheck`]). Then
/// `shutdown` must end the daemon with status 0, and the stats document
/// it writes must record the swap and a query of every kind. The
/// artifacts stay in `target/serve-smoke/` (`daemon_stats.json`,
/// `metrics.txt`) so CI can upload them.
fn run_serve_smoke(root: &Path) -> Result<(), String> {
    let dir = root.join("target").join("serve-smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let edges = dir.join("edges.txt");
    write_smoke_graph(root, &edges)?;
    cargo(root, &["build", "--release", "--quiet", "-p", "linkclust", "--bin", "linkclustd"], &[])?;
    let stats = dir.join("daemon_stats.json");
    // A document an earlier run left must not pass for this one.
    let _ = std::fs::remove_file(&stats);

    let daemon = root.join("target").join("release").join("linkclustd");
    let mut child = Command::new(&daemon)
        .arg(&edges)
        .args(["--listen", "127.0.0.1:0", "--threads", "2", "--metrics-port", "0"])
        .arg("--stats-json")
        .arg(&stats)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.display()))?;
    let driven = drive_daemon(&mut child, &dir);
    if driven.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let (generation, scraped) = driven?;

    let text = std::fs::read_to_string(&stats)
        .map_err(|e| format!("daemon left no stats document at {}: {e}", stats.display()))?;
    let summary = benchcheck::check_serve_stats_document(&text)
        .map_err(|e| format!("{} fails stats-schema validation: {e}", stats.display()))?;
    if summary.generation < 2 || summary.swaps < 1 {
        return Err(format!(
            "{} records generation {} and {} swaps; the recluster's swap is missing",
            stats.display(),
            summary.generation,
            summary.swaps
        ));
    }
    let (kind, count) = summary.least_queried;
    if count < 1 {
        return Err(format!("{} counts no {kind:?} query", stats.display()));
    }
    let hostile = SMOKE_QUERIES.iter().filter(|&&(_, ok)| !ok).count();
    eprintln!(
        "serve-smoke: {} query kinds answered, {hostile} hostile lines refused, recluster \
         swapped in generation {generation}; /metrics: {} families, {} samples; exit 0, \
         stats v2 ok (generation {}, swaps {}, {} ticks, up {:.1}s), in {}",
        benchcheck::SERVE_KINDS.len(),
        scraped.families,
        scraped.samples,
        summary.generation,
        summary.swaps,
        summary.ticks,
        summary.uptime_seconds,
        dir.display()
    );
    Ok(())
}

/// The serve smoke's conversation with a started daemon, up to its exit
/// after `shutdown`. Returns the generation the recluster swapped in and
/// the scrape's summary.
fn drive_daemon(
    child: &mut Child,
    dir: &Path,
) -> Result<(u64, metricscheck::ExpositionSummary), String> {
    let stdout = child.stdout.take().ok_or("daemon stdout was not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    let mut serve_addr = None;
    let mut metrics_addr = None;
    while serve_addr.is_none() || metrics_addr.is_none() {
        let line = lines
            .next()
            .ok_or("daemon exited before announcing its listeners")?
            .map_err(|e| format!("cannot read daemon stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            serve_addr = Some(addr.trim().to_owned());
        } else if let Some(addr) = line.strip_prefix("METRICS ") {
            metrics_addr = Some(addr.trim().to_owned());
        }
    }
    let (serve_addr, metrics_addr) =
        (serve_addr.ok_or("no LISTENING line")?, metrics_addr.ok_or("no METRICS line")?);

    let mut conn = SmokeClient::connect(&serve_addr)?;
    for &(request, ok) in SMOKE_QUERIES {
        let (line, answer) = conn.ask(request)?;
        if answer.get("ok").and_then(Json::as_bool) != Some(ok) {
            return Err(format!("{} answered {line}; expected \"ok\":{ok}", shown(request)));
        }
    }
    let (line, _) = conn.ask(br#"{"op":"stats"}"#)?;
    benchcheck::check_serve_stats_document(&line)
        .map_err(|e| format!("the stats answer fails stats-schema validation: {e}"))?;

    let (line, answer) = conn.ask(br#"{"op":"recluster"}"#)?;
    if answer.get("enqueued").and_then(Json::as_bool) != Some(true) {
        return Err(format!("recluster answered {line}; expected \"enqueued\":true"));
    }
    let deadline = Instant::now() + SMOKE_WAIT;
    let generation = loop {
        let (line, answer) = conn.ask(br#"{"op":"best"}"#)?;
        let generation = answer
            .get("generation")
            .and_then(Json::as_index)
            .ok_or(format!("best answered {line} without a generation"))?;
        if generation >= 2 {
            break generation;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "recluster never swapped the index: generation still {generation} after {}s",
                SMOKE_WAIT.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let scraped = scrape_metrics(&metrics_addr, &dir.join("metrics.txt"))?;

    let (line, answer) = conn.ask(br#"{"op":"shutdown"}"#)?;
    if answer.get("bye").and_then(Json::as_bool) != Some(true) {
        return Err(format!("shutdown answered {line}; expected \"bye\":true"));
    }
    let deadline = Instant::now() + SMOKE_WAIT;
    let status = loop {
        if let Some(status) =
            child.try_wait().map_err(|e| format!("cannot poll the daemon: {e}"))?
        {
            break status;
        }
        if Instant::now() > deadline {
            return Err(format!("daemon still running {}s after shutdown", SMOKE_WAIT.as_secs()));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if !status.success() {
        return Err(format!("daemon exited with {status} after shutdown"));
    }
    Ok((generation, scraped))
}

/// Scrapes `GET /metrics` with a raw HTTP/1.1 request (what a Prometheus
/// scraper sends), writes the body to `artifact`, and validates it: the
/// 0.0.4 content type, the format rules of [`metricscheck`], every serve
/// family, and a latency series per query kind.
fn scrape_metrics(addr: &str, artifact: &Path) -> Result<metricscheck::ExpositionSummary, String> {
    let mut conn = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to metrics listener {addr}: {e}"))?;
    conn.set_read_timeout(Some(SMOKE_WAIT)).map_err(|e| format!("cannot set a timeout: {e}"))?;
    conn.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("cannot send scrape request: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response).map_err(|e| format!("cannot read scrape response: {e}"))?;
    let (head, body) =
        response.split_once("\r\n\r\n").ok_or("metrics response has no header/body separator")?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("metrics scrape returned {status:?}"));
    }
    let content_type_ok = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("content-type:") && l.contains("0.0.4"));
    if !content_type_ok {
        return Err("metrics response lacks the text/plain; version=0.0.4 content type".to_owned());
    }
    std::fs::write(artifact, body)
        .map_err(|e| format!("cannot write {}: {e}", artifact.display()))?;

    let required = [
        "linkclustd_serve_queries_total",
        "linkclustd_serve_cache_hits_total",
        "linkclustd_serve_cache_misses_total",
        "linkclustd_serve_admissions_total",
        "linkclustd_serve_swaps_total",
        "linkclustd_phase_seconds_total",
        "linkclustd_phase_calls_total",
        "linkclustd_query_latency_seconds",
        "linkclustd_uptime_seconds",
        "linkclustd_rss_bytes",
        "linkclustd_cache_entries",
        "linkclustd_cache_hit_ratio",
        "linkclustd_pool_queue_depth",
        "linkclustd_index_generation",
        "linkclustd_runtime_ticks_total",
    ];
    let summary = metricscheck::check_exposition(body, &required)
        .map_err(|e| format!("{} is not valid exposition: {e}", artifact.display()))?;
    for kind in benchcheck::SERVE_KINDS {
        if !summary.has_labeled_sample("linkclustd_query_latency_seconds_bucket", "kind", kind) {
            return Err(format!("latency histogram has no series for kind {kind:?}"));
        }
    }
    Ok(summary)
}

/// One line-protocol connection to the daemon under test.
struct SmokeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl SmokeClient {
    fn connect(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to serve listener {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(SMOKE_WAIT))
            .map_err(|e| format!("cannot set a timeout: {e}"))?;
        let reader =
            writer.try_clone().map_err(|e| format!("cannot clone the query socket: {e}"))?;
        Ok(SmokeClient { reader: BufReader::new(reader), writer })
    }

    /// Sends one request line and returns the answer line with its parse.
    fn ask(&mut self, request: &[u8]) -> Result<(String, Json), String> {
        self.writer
            .write_all(&[request, b"\n"].concat())
            .map_err(|e| format!("cannot send {}: {e}", shown(request)))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {
                return Err(format!(
                    "daemon closed the connection instead of answering {}",
                    shown(request)
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(format!("no answer to {}: {e}", shown(request))),
        }
        let line = line.trim_end().to_owned();
        let answer = json::parse(&line)
            .map_err(|e| format!("answer to {} is not JSON ({e}): {line}", shown(request)))?;
        Ok((line, answer))
    }
}

/// A request line as text for a message, its bytes escaped if it is not
/// UTF-8.
fn shown(request: &[u8]) -> String {
    std::str::from_utf8(request).map_or_else(|_| request.escape_ascii().to_string(), str::to_owned)
}

fn run_scan(root: &Path) -> Result<(), String> {
    let report = scan::scan_workspace(root).map_err(|e| format!("scanner I/O error: {e}"))?;
    for v in &report.violations {
        eprintln!("{}", v.display(root));
    }
    eprintln!(
        "scan: {} files, {} violations, {} waivers",
        report.files_scanned,
        report.violations.len(),
        report.waivers
    );
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} forbidden-pattern violations", report.violations.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ladder_never_replaces_the_committed_document() {
        let root = Path::new("/ws");
        let smoke = root.join("target").join("bench-ladder").join("BENCH_scale_smoke.json");
        assert_eq!(ladder_artifact(root, &["--smoke"]), smoke);
        assert_eq!(ladder_artifact(root, &["--runs", "1", "--smoke"]), smoke);
        assert_eq!(ladder_artifact(root, &[]), root.join("BENCH_scale.json"));
        assert_eq!(ladder_artifact(root, &["--runs", "2"]), root.join("BENCH_scale.json"));
        assert_eq!(ladder_artifact(root, &["--smoke", "--out", "x.json"]), root.join("x.json"));
        assert_eq!(ladder_artifact(root, &["--out", "/abs/l.json"]), Path::new("/abs/l.json"));
    }
}

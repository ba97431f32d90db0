//! The workspace verification harness (`cargo xtask <command>`).
//!
//! `cargo xtask check` is the single entry point CI and contributors run:
//! it drives rustfmt, clippy (with the workspace lint tables of the root
//! `Cargo.toml`), the documentation build, the forbidden-pattern scanner
//! (see [`scan`]), the concurrency & numeric-discipline lint pass with
//! its ratchet file (see [`lint`]), a traced-CLI smoke run whose Chrome
//! trace artifact is structurally validated (see [`tracecheck`]), and
//! the full test suite, then prints a pass/fail summary. Every step is
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

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

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
        description: "benchmarks compile (--no-run)",
        run: run_bench_build,
    },
    Gate {
        name: "trace-smoke",
        description: "traced CLI run produces valid Chrome trace JSON",
        run: run_trace_smoke,
    },
    Gate {
        name: "serve-smoke",
        description: "linkclustd answers every query kind over a socket; artifact schema-validated",
        run: run_serve_smoke,
    },
    Gate {
        name: "metrics-smoke",
        description: "linkclustd --metrics-port serves valid Prometheus exposition over HTTP",
        run: run_metrics_smoke,
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
        "bench-smoke" => {
            // Build and run the smoke benchmark; writes BENCH_parallel.json
            // and the init A/B BENCH_init.json at the workspace root (see
            // `--help` of the binary for flags).
            let extra: Vec<&str> =
                args.iter().skip(1).map(String::as_str).filter(|a| *a != "--").collect();
            match run_bench_smoke(&root, &extra) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("bench-smoke failed: {msg}");
                    ExitCode::FAILURE
                }
            }
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
        "bench-serve" => {
            // Build the daemon, run the serve load benchmark (pass
            // `--smoke` for the short CI-sized run), then schema-validate
            // the BENCH_serve.json it wrote. A full run must push 100k
            // queries through the socket.
            let extra: Vec<&str> =
                args.iter().skip(1).map(String::as_str).filter(|a| *a != "--").collect();
            match run_bench_serve(&root, &extra) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("bench-serve failed: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        "bench-diff" => {
            // Compare two same-schema BENCH_*.json artifacts with
            // noise-aware thresholds; exits non-zero on regression.
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
        "  bench-smoke  run the fixed-seed smoke benchmark (writes BENCH_parallel.json + BENCH_init.json)"
    );
    eprintln!(
        "  bench-ladder run the scale ladder and schema-validate BENCH_scale.json (`--smoke` for the CI gate, written to target/bench-ladder/BENCH_scale_smoke.json; `--check-only` to validate an existing artifact without running)"
    );
    eprintln!(
        "  bench-serve  run the serve load benchmark and schema-validate BENCH_serve.json (`--smoke` for the CI-sized run, `--check-only` to validate an existing artifact without running)"
    );
    eprintln!(
        "  bench-diff   compare two same-schema BENCH_*.json artifacts for perf regressions (`--threshold X` relative ratio, `--out PATH` for the verdict document; exits non-zero on regression)"
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
    cargo(root, &["bench", "--workspace", "--no-run", "--quiet"], &[])
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

    // `linkclust generate` writes the edge list to stdout.
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
    std::fs::write(&edges, graph).map_err(|e| format!("cannot write {}: {e}", edges.display()))?;

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

/// Runs `cargo <args>` at the workspace root, capturing stdout; stderr
/// passes through. Non-zero exits map to an error message.
fn cargo_capture(root: &Path, args: &[&str]) -> Result<Vec<u8>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .current_dir(root)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if output.status.success() {
        Ok(output.stdout)
    } else {
        Err(format!("`cargo {}` exited with {}", args.join(" "), output.status))
    }
}

/// Builds and runs the `bench_smoke` binary in release mode, forwarding
/// any extra CLI flags (`--runs N`, `--out PATH`, `--init-out PATH`).
fn run_bench_smoke(root: &Path, extra: &[&str]) -> Result<(), String> {
    let mut args =
        vec!["run", "--release", "--quiet", "-p", "linkclust-bench", "--bin", "bench_smoke"];
    if !extra.is_empty() {
        args.push("--");
        args.extend_from_slice(extra);
    }
    cargo(root, &args, &[])
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

/// Builds `linkclustd`, then drives a short mixed query load through a
/// real socket with `bench_serve --smoke` and schema-validates the
/// artifact it writes. The artifact is left at
/// `target/serve-smoke/BENCH_serve_smoke.json` so CI can upload it.
fn run_serve_smoke(root: &Path) -> Result<(), String> {
    let dir = root.join("target").join("serve-smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let out = dir.join("BENCH_serve_smoke.json");
    let out_arg = out.to_string_lossy().into_owned();
    let stats = dir.join("daemon_stats.json");
    let stats_arg = stats.to_string_lossy().into_owned();
    // bench_serve finds the daemon next to its own executable, so the
    // daemon must be built into the same profile directory first.
    cargo(root, &["build", "--release", "--quiet", "-p", "linkclust", "--bin", "linkclustd"], &[])?;
    cargo(
        root,
        &[
            "run",
            "--release",
            "--quiet",
            "-p",
            "linkclust-bench",
            "--bin",
            "bench_serve",
            "--",
            "--smoke",
            "--queries",
            "400",
            "--out",
            &out_arg,
            "--daemon-stats",
            &stats_arg,
        ],
        &[],
    )?;
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("serve smoke left no artifact at {}: {e}", out.display()))?;
    let summary = benchcheck::check_serve_document(&text)
        .map_err(|e| format!("{} fails schema validation: {e}", out.display()))?;
    // The daemon writes its own stats document at shutdown; validate
    // the v2 schema end to end (uptime, admit failures, runtime rings).
    let stats_text = std::fs::read_to_string(&stats)
        .map_err(|e| format!("daemon left no stats document at {}: {e}", stats.display()))?;
    let stats_summary = benchcheck::check_serve_stats_document(&stats_text)
        .map_err(|e| format!("{} fails stats-schema validation: {e}", stats.display()))?;
    eprintln!(
        "serve-smoke: {} queries, cache hit rate {:.1}%, {} served during admission, in {}; \
         daemon stats v2 ok (generation {}, {} ticks, up {:.1}s)",
        summary.queries,
        100.0 * summary.hit_rate,
        summary.queries_during_admission,
        out.display(),
        stats_summary.generation,
        stats_summary.ticks,
        stats_summary.uptime_seconds,
    );
    Ok(())
}

/// Spawns a real `linkclustd --metrics-port 0` on a tiny generated
/// graph, scrapes `GET /metrics` over plain HTTP, and validates the
/// exposition with the harness's own reader (see [`metricscheck`]):
/// format 0.0.4 structure, histogram coherence, and coverage of every
/// serve counter, the per-kind latency histogram, and the runtime
/// gauges. The scraped body is left at `target/metrics-smoke/metrics.txt`
/// so CI can upload it.
fn run_metrics_smoke(root: &Path) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = root.join("target").join("metrics-smoke");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let edges = dir.join("edges.txt");
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
    std::fs::write(&edges, graph).map_err(|e| format!("cannot write {}: {e}", edges.display()))?;
    cargo(root, &["build", "--release", "--quiet", "-p", "linkclust", "--bin", "linkclustd"], &[])?;

    let daemon = root.join("target").join("release").join("linkclustd");
    let mut child = Command::new(&daemon)
        .arg(&edges)
        .args(["--listen", "127.0.0.1:0", "--threads", "2", "--metrics-port", "0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.display()))?;

    // Everything after the spawn must reach the kill below on failure.
    let result = (|| -> Result<(), String> {
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

        // Scrape with a raw HTTP/1.1 request — the same thing a
        // Prometheus scraper sends.
        let mut conn = std::net::TcpStream::connect(&metrics_addr)
            .map_err(|e| format!("cannot connect to metrics listener {metrics_addr}: {e}"))?;
        conn.write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {metrics_addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send scrape request: {e}"))?;
        let mut response = String::new();
        conn.read_to_string(&mut response)
            .map_err(|e| format!("cannot read scrape response: {e}"))?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or("metrics response has no header/body separator")?;
        let status = head.lines().next().unwrap_or("");
        if !status.starts_with("HTTP/1.1 200") {
            return Err(format!("metrics scrape returned {status:?}"));
        }
        let content_type_ok = head
            .lines()
            .any(|l| l.to_ascii_lowercase().starts_with("content-type:") && l.contains("0.0.4"));
        if !content_type_ok {
            return Err(
                "metrics response lacks the text/plain; version=0.0.4 content type".to_owned()
            );
        }
        let artifact = dir.join("metrics.txt");
        std::fs::write(&artifact, body)
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
        for kind in ["cut", "edge", "vertex", "topk", "profile", "best"] {
            if !summary.has_labeled_sample("linkclustd_query_latency_seconds_bucket", "kind", kind)
            {
                return Err(format!("latency histogram has no series for kind {kind:?}"));
            }
        }

        // Clean shutdown through the line protocol.
        let mut conn = std::net::TcpStream::connect(&serve_addr)
            .map_err(|e| format!("cannot connect to serve listener {serve_addr}: {e}"))?;
        conn.write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("cannot send shutdown: {e}"))?;
        let mut ack = String::new();
        let _ = conn.read_to_string(&mut ack);
        eprintln!(
            "metrics-smoke: {} families, {} samples scraped from {metrics_addr}, in {}",
            summary.families,
            summary.samples,
            artifact.display()
        );
        Ok(())
    })();
    if result.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    result
}

/// Builds the daemon and the `bench_serve` load generator in release
/// mode, runs the load (forwarding `--smoke`, `--queries N`,
/// `--out PATH`, ...), then validates the artifact it wrote. With
/// `--check-only` the run is skipped and an existing artifact is
/// validated in place.
fn run_bench_serve(root: &Path, extra: &[&str]) -> Result<(), String> {
    let check_only = extra.contains(&"--check-only");
    let extra: Vec<&str> = extra.iter().copied().filter(|a| *a != "--check-only").collect();
    let extra = extra.as_slice();
    if !check_only {
        cargo(
            root,
            &["build", "--release", "--quiet", "-p", "linkclust", "--bin", "linkclustd"],
            &[],
        )?;
        let mut args =
            vec!["run", "--release", "--quiet", "-p", "linkclust-bench", "--bin", "bench_serve"];
        if !extra.is_empty() {
            args.push("--");
            args.extend_from_slice(extra);
        }
        cargo(root, &args, &[])?;
    }

    let out = extra
        .iter()
        .position(|a| *a == "--out")
        .and_then(|i| extra.get(i + 1))
        .map_or_else(|| root.join("BENCH_serve.json"), PathBuf::from);
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("serve run left no artifact at {}: {e}", out.display()))?;
    let summary = benchcheck::check_serve_document(&text)
        .map_err(|e| format!("{} fails schema validation: {e}", out.display()))?;
    eprintln!(
        "bench-serve: {} queries ({}), cache hit rate {:.1}%, {} served during admission, in {}",
        summary.queries,
        if summary.smoke { "smoke" } else { "full" },
        100.0 * summary.hit_rate,
        summary.queries_during_admission,
        out.display()
    );
    Ok(())
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

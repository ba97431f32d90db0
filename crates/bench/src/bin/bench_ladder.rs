//! The scale benchmark ladder: generator families × edge tiers up to
//! 10⁶ edges, each rung timed on the CSR backend at threads {1, 2, 4, 8}
//! and checked bit-for-bit against the adjacency-list oracle. Results
//! land in `BENCH_scale.json`, or for `--smoke` in
//! `target/bench-ladder/BENCH_scale_smoke.json` so a smoke run never
//! replaces the committed full ladder (override either with
//! `--out <path>`).
//!
//! The parent process re-executes itself once per rung with
//! `--one-rung <family:tier>` so every rung's peak RSS (`VmHWM`) is
//! measured in an otherwise-clean process; the child prints its rung
//! report as one JSON line on stdout. If re-execution fails (no procfs,
//! exotic sandbox), the parent falls back to measuring the rung
//! in-process and the rung's `peak_rss_bytes` inherits earlier rungs'
//! footprint.
//!
//! Run via `cargo xtask bench-ladder [--smoke]` or directly:
//!
//! ```text
//! cargo run --release -p linkclust-bench --bin bench_ladder -- --smoke
//! ```

use std::process::{Command, Stdio};

use linkclust_bench::ladder::{
    detect_hardware, document_json, run_rung, rung_specs, RungSpec, THREADS,
};

/// Where the full ladder's document goes without `--out`.
const FULL_OUT: &str = "BENCH_scale.json";
/// Where a `--smoke` document goes without `--out`.
const SMOKE_OUT: &str = "target/bench-ladder/BENCH_scale_smoke.json";

struct Args {
    smoke: bool,
    runs: usize,
    out_path: Option<String>,
    one_rung: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args { smoke: false, runs: 3, out_path: None, one_rung: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--runs" => {
                parsed.runs =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or(parsed.runs).max(1);
            }
            "--out" => {
                if let Some(v) = args.next() {
                    parsed.out_path = Some(v);
                }
            }
            "--one-rung" => parsed.one_rung = args.next(),
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --smoke, --runs N, --out PATH, \
                     --one-rung FAMILY:TIER)"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Child mode: measure one rung, print its JSON object, exit.
fn child_main(id: &str, runs: usize) -> ! {
    let Some(spec) = RungSpec::parse(id) else {
        eprintln!("invalid rung id: {id}");
        std::process::exit(2);
    };
    let report = run_rung(spec, runs);
    println!("{}", report.to_json());
    std::process::exit(0);
}

/// Spawns this binary on one rung and returns the child's JSON line;
/// `None` if the child could not run or misbehaved (the caller falls
/// back to in-process measurement).
fn measure_in_child(spec: RungSpec, runs: usize) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--one-rung", &spec.id(), "--runs", &runs.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    let line = stdout.lines().rev().find(|l| l.trim_start().starts_with('{'))?;
    Some(line.trim().to_owned())
}

fn main() {
    let args = parse_args();
    if let Some(id) = &args.one_rung {
        child_main(id, args.runs);
    }

    let specs = rung_specs(args.smoke);
    let mode = if args.smoke { "smoke" } else { "full" };
    eprintln!("bench_ladder ({mode}): {} rungs, {} runs each", specs.len(), args.runs);

    let hardware = detect_hardware();
    if hardware.threads_exceed_cores {
        eprintln!(
            "warning: the ladder times up to {} threads but this machine grants only \
             {:.2} effective core(s) ({} visible{}) — multi-thread samples measure \
             contention, not parallel scaling; the document flags this via \
             hardware.threads_exceed_cores",
            THREADS.iter().copied().max().unwrap_or(1),
            hardware.effective_cores(),
            hardware.cores,
            hardware
                .cgroup_quota_cores
                .map_or_else(String::new, |q| format!(", cgroup quota {q:.2}")),
        );
    }

    let mut rung_objects = Vec::with_capacity(specs.len());
    let mut all_ok = true;
    // Every rung at the ladder's largest tier must itself report
    // positive parallel speedup for the document-level headline flag.
    let largest_tier = specs.iter().map(|s| s.tier).max().unwrap_or(0);
    let mut speedup_at_largest = true;
    for spec in &specs {
        eprintln!("rung {} ...", spec.id());
        let json = match measure_in_child(*spec, args.runs) {
            Some(json) => json,
            None => {
                eprintln!("  (child re-exec unavailable; measuring in-process)");
                run_rung(*spec, args.runs).to_json()
            }
        };
        if json.contains("\"csr_matches_adjacency\":false")
            || json.contains("\"bin_roundtrip_ok\":false")
        {
            eprintln!("  CORRECTNESS FAILURE in rung {}", spec.id());
            all_ok = false;
        }
        if spec.tier == largest_tier && json.contains("\"parallel_speedup_positive\":false") {
            speedup_at_largest = false;
        }
        rung_objects.push(json);
    }

    let doc = document_json(args.smoke, args.runs, &hardware, speedup_at_largest, &rung_objects);
    let out_path = args
        .out_path
        .unwrap_or_else(|| String::from(if args.smoke { SMOKE_OUT } else { FULL_OUT }));
    let written = match std::path::Path::new(&out_path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(&out_path, &doc));
    if let Err(e) = written {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} rungs)", rung_objects.len());
    if !all_ok {
        eprintln!("one or more rungs failed their correctness checks");
        std::process::exit(1);
    }
}

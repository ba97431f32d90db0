//! `perfbench` — the end-to-end and per-layer benchmark of linkclust.
//!
//! ```text
//! perfbench --workload <cluster-sparse|cluster-dense|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --daemon <linkclustd> [--work <dir>]
//!           [--size full|tiny] [--fault fingerprint|answer]
//! ```
//!
//! `perfbench/run.py` builds this binary and `linkclustd` from source and
//! runs it; see `perfbench/README.md` for the workloads and metrics.
//!
//! A run makes its inputs from the seed in a `prepare` child (which also
//! computes the serial Algorithm 2 reference), starts `linkclustd` on the
//! workload's graph file, then measures for about `--seconds` in blocks
//! that take turns:
//!
//! * a `batch` child process: set-up from raw input, repeated, then batch
//!   rounds of 1-thread, 2-thread and coarse clusterings, each checked
//!   against the reference;
//! * loads on the daemon, each from two closed-loop client connections
//!   held for the client's whole stream, with an admission.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the traced pipeline instead (see [`traced`]) and prints the
//! per-layer metrics. The last stdout line is the result object.
//! `--fault` deliberately corrupts the reference fingerprints or the
//! expected answers, so the self-test can see failures counted.

mod batch;
mod inputs;
mod serve;
mod spans;
mod traced;
mod util;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::batch::{run_batch, BatchTimes};
use crate::inputs::{prepare, read_graph_file, read_prep, Prep, Sizes, Workload, FULL, TINY};
use crate::serve::{
    check_samples, daemon_stats, inprocess_server, run_load, Daemon, LoadOutcome, LoadPlan,
};
use crate::util::{
    median, peak_rss_mib, quantile, reference_seconds, secs, Metrics, Tally, REFERENCE_S,
};

/// Calls `f` at least `min` and at most `max` times, stopping once
/// `seconds` have passed; pushes each call's duration onto `times` and
/// returns the last call's value (earlier ones are dropped before the
/// next call starts).
fn repeat_timed<T>(
    min: usize,
    max: usize,
    seconds: f64,
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut last = None;
    for rep in 0..max {
        if rep >= min && secs(start) >= seconds {
            break;
        }
        drop(last.take());
        let call = Instant::now();
        last = Some(f()?);
        times.push(secs(call));
    }
    Ok(last.expect("max >= 1"))
}

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    tiny: bool,
    /// This run's inputs and outputs.
    pub dir: PathBuf,
    pub daemon: PathBuf,
    fault_fingerprint: bool,
    pub fault_answer: bool,
}

impl Ctx {
    /// Queries per client per second of load budget, and admissions per
    /// load: a load is a fixed amount of work, sized so it takes about
    /// its budget on a 2-core machine.
    fn load_shape(&self) -> (f64, u64) {
        match (self.tiny, self.workload) {
            (true, _) => (200.0, 1),
            (false, Workload::ClusterSparse) => (120.0, 1),
            (false, Workload::ClusterDense) => (290.0, 1),
            (false, Workload::ServeMixed) => (380.0, 2),
        }
    }

    /// The plan of load number `block` of this run, sized for `budget`.
    #[must_use]
    pub fn load_plan(&self, budget: Duration, prep: &Prep, block: usize) -> LoadPlan {
        let (rate, admissions) = self.load_shape();
        LoadPlan {
            // Every load has a stream of 32 queries a client at the least.
            queries_per_client: ((rate * budget.as_secs_f64()).ceil() as u64).max(32),
            // A slowed-down program still ends the run in time.
            cap_seconds: 4.0 * budget.as_secs_f64() + 5.0,
            seed: self.seed.wrapping_add((block as u64) << 32),
            admissions,
            vertices: prep.vertices as usize,
            edges: prep.edges as usize,
        }
    }

    /// The `--size` this run was given.
    #[must_use]
    pub fn size(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }
}

/// Batch blocks and load blocks alternate this many times per run.
const BLOCKS: usize = 4;
/// Loads in a load block; each is measured on its own.
const LOADS_PER_BLOCK: usize = 2;

/// Shares of a cluster workload's run: set-up repetitions, batch rounds,
/// and loads on the daemon. The loads run past their share by the time
/// client 0 waits for each recluster.
const SETUP_SHARE: f64 = 0.08;
const BATCH_SHARE: f64 = 0.57;
const LOAD_SHARE: f64 = 0.35;

/// The client-side figures of one load.
///
/// The tail is taken at p95, not p99. On cluster-dense about 1% of the
/// queries of a load take about 43 ms against about 15 ms for a top-k
/// cache miss, so a load's p99 fell on one side or the other: over ten
/// runs its median across loads spread by 0.31 of its value. Top-k
/// misses are about 7% of the queries, so p95 lies among them.
struct LoadFigures {
    p50_us: f64,
    p95_us: f64,
    qps: f64,
}

impl LoadFigures {
    fn of(load: &LoadOutcome) -> Self {
        LoadFigures {
            p50_us: median(&load.lat_us),
            p95_us: quantile(&load.lat_us, 0.95),
            qps: load.lat_us.len() as f64 / load.wall_s,
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <cluster-sparse|cluster-dense|serve-mixed> --seed <n> \
     --seconds <s> --trace <0|1> --daemon <linkclustd> [--work <dir>] [--size full|tiny] \
     [--fault fingerprint|answer]"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut work = PathBuf::from(".perfbench_work");
    let mut tiny = false;
    let mut fault = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(usage)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            "--size" => tiny = value == "tiny",
            "--fault" => fault = Some(value.clone()),
            _ => return Err(usage()),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(daemon)) =
        (workload, seed, seconds, trace, daemon)
    else {
        return Err(usage());
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_owned());
    }
    if !daemon.is_file() {
        return Err(format!("no linkclustd at {}", daemon.display()));
    }
    let size = if tiny { "tiny" } else { "full" };
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        sizes: if tiny { TINY } else { FULL },
        tiny,
        dir: work.join(format!("{}-{seed}-{size}", workload.name())),
        daemon,
        fault_fingerprint: fault.as_deref() == Some("fingerprint"),
        fault_answer: fault.as_deref() == Some("answer"),
    })
}

/// Runs this binary with `args` and returns its stdout.
///
/// # Errors
///
/// Reports a failed spawn or a non-zero exit.
pub fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} child failed: {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The value after `name` in a child's arguments.
fn flag<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
        .ok_or(format!("child process needs {name}"))
}

/// The workload, sizes and directory a child was given.
fn child_inputs(argv: &[String]) -> Result<(Workload, Sizes, PathBuf), String> {
    let w = Workload::parse(flag(argv, "--workload")?).ok_or("unknown workload")?;
    let sizes = if flag(argv, "--size")? == "tiny" { TINY } else { FULL };
    Ok((w, sizes, PathBuf::from(flag(argv, "--dir")?)))
}

/// `prepare --workload W --seed N --size S --dir D`: writes the inputs
/// and the reference.
fn child_prepare(argv: &[String]) -> Result<(), String> {
    let (w, sizes, dir) = child_inputs(argv)?;
    let seed: u64 = flag(argv, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    prepare(w, seed, &sizes, &dir).map(drop)
}

/// `memsteps --dir D`: prints the peak resident set after each serial
/// pipeline call on the workload's graph.
fn child_memsteps(argv: &[String]) -> Result<(), String> {
    let [loaded, init, sort, sweep] = batch::memory_steps(&PathBuf::from(flag(argv, "--dir")?))?;
    println!("memsteps {loaded} {init} {sort} {sweep}");
    Ok(())
}

/// `batch --workload W --size S --dir D --fault none|fingerprint`: a
/// process of its own, as a `linkclust` invocation is, that runs the
/// batch blocks of a run. For each line `block X Y` on its stdin it
/// repeats the set-up for about X seconds, then runs batch rounds for
/// about Y seconds, and prints the times, the operation counts and
/// `done`. Its first round warms its heap up and is not timed.
fn child_batch(argv: &[String]) -> Result<(), String> {
    let (w, sizes, dir) = child_inputs(argv)?;
    let mut prep = read_prep(&dir)?;
    if flag(argv, "--fault")? == "fingerprint" {
        prep.corrupt();
    }
    let mut warm = false;
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| format!("batch child stdin: {e}"))?;
        let parsed = match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["block", x, y] => x.parse::<f64>().ok().zip(y.parse::<f64>().ok()),
            _ => None,
        };
        let Some((setup_seconds, seconds)) = parsed else {
            return Err(format!("batch child got {line:?}"));
        };
        let mut times = BatchTimes::default();
        let mut tally = Tally::default();
        let g = repeat_timed(3, 1000, setup_seconds, &mut times.setup, || {
            inputs::load(w, &dir, &sizes, None)
        })?;
        let budget = Duration::from_secs_f64(seconds);
        run_batch(&g, &prep, budget, !warm, &mut times, &mut tally);
        warm = true;
        print!("{}", times.render());
        println!("tally {} {}\ndone", tally.attempted, tally.failed);
        std::io::stdout().flush().map_err(|e| format!("batch child stdout: {e}"))?;
    }
    Ok(())
}

/// The run's `batch` child, kept for the whole run so only its first
/// round warms up. Dropping it kills the child if it still runs.
struct BatchChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl BatchChild {
    fn spawn(ctx: &Ctx) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["batch", "--workload", ctx.workload.name(), "--size", ctx.size()])
            .arg("--dir")
            .arg(&ctx.dir)
            .args(["--fault", if ctx.fault_fingerprint { "fingerprint" } else { "none" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn batch child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(BatchChild { child, stdin, stdout })
    }

    /// Runs one block, appending its times and operation counts.
    fn block(
        &mut self,
        setup_seconds: f64,
        seconds: f64,
        times: &mut BatchTimes,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until finish");
        writeln!(stdin, "block {setup_seconds} {seconds}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("batch child: {e}"))?;
        let mut out = String::new();
        loop {
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(format!("batch child ended: {out:?}")),
                Ok(_) if line.trim() == "done" => break,
                Ok(_) => out.push_str(&line),
            }
        }
        times.absorb_rendered(&out)?;
        let counts: Vec<u64> = out
            .lines()
            .find_map(|l| l.strip_prefix("tally "))
            .map(|t| t.split_whitespace().filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        let [attempted, failed] = counts[..] else {
            return Err(format!("batch child printed no tally: {out:?}"));
        };
        tally.absorb(Tally { attempted, failed });
        Ok(())
    }

    /// Closes the child's stdin and waits for it to exit.
    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        match self.child.wait() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("batch child exited with {status}")),
            Err(e) => Err(format!("wait for batch child: {e}")),
        }
    }
}

impl Drop for BatchChild {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The untraced run: every end-to-end metric.
fn untraced(ctx: &Ctx, prep: &Prep) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let serve_only = ctx.workload == Workload::ServeMixed;
    let (batch_share, load_share) = if serve_only { (0.3, 0.7) } else { (BATCH_SHARE, LOAD_SHARE) };
    let budget = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    // linkclustd's start-up is serve-mixed's set-up, repeated; the other
    // workloads start it once and time their set-up in the batch blocks.
    let mut spawns = Vec::new();
    let daemon = if serve_only {
        repeat_timed(5, 40, 1.5, &mut spawns, || {
            Daemon::spawn(&ctx.daemon, &ctx.dir).map(|(d, _)| d)
        })?
    } else {
        Daemon::spawn(&ctx.daemon, &ctx.dir)?.0
    };

    // Batch blocks and loads take turns, so every metric samples the
    // whole run: the machine's speed drifts over seconds. The batch
    // blocks run in a child process of their own, so no round depends on
    // the heap the load clients build up.
    let setup_seconds = if serve_only { 0.0 } else { ctx.seconds * SETUP_SHARE / BLOCKS as f64 };
    let mut batch = BatchTimes::default();
    let mut load = LoadOutcome::default();
    let mut figures = Vec::new();
    let mut load_reference = Vec::new();
    let mut batch_child = BatchChild::spawn(ctx)?;
    for block in 0..BLOCKS {
        let seconds = ctx.seconds * batch_share / BLOCKS as f64;
        batch_child.block(setup_seconds, seconds, &mut batch, &mut tally)?;
        for k in 0..LOADS_PER_BLOCK {
            let share = load_share / (BLOCKS * LOADS_PER_BLOCK) as f64;
            let plan = ctx.load_plan(budget(share), prep, block * LOADS_PER_BLOCK + k);
            load_reference.push(reference_seconds());
            let one = run_load(&daemon.addr, &plan);
            figures.push(LoadFigures::of(&one));
            load.absorb(one);
        }
    }
    batch_child.finish()?;
    let setup = if serve_only { spawns } else { std::mem::take(&mut batch.setup) };
    let stats = daemon_stats(&daemon)?;
    daemon.shutdown()?;
    tally.absorb(load.tally);
    let server = inprocess_server(read_graph_file(&ctx.dir)?, None)?;
    check_samples(&server, &load.samples, ctx.fault_answer, &mut tally);

    let total: u64 = load.kinds.iter().sum();
    let shares: Vec<String> = linkclust_bench::serve::KINDS
        .iter()
        .zip(load.kinds)
        .map(|(k, n)| format!("{k}={:.4}", n as f64 / total.max(1) as f64))
        .collect();
    println!(
        "serve queries={total} {} cache_hit_share={:.4} admissions={} samples_checked={}",
        shares.join(" "),
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        load.admissions_s.len(),
        load.samples.len()
    );
    for (k, name) in linkclust_bench::serve::KINDS.iter().enumerate() {
        let lat: Vec<f64> = load
            .lat_us
            .iter()
            .zip(&load.kind_of)
            .filter(|(_, &c)| usize::from(c) == k)
            .map(|(l, _)| *l)
            .collect();
        println!(
            "serve kind={name} p50_us={:.1} p99_us={:.1} mean_us={:.1}",
            median(&lat),
            quantile(&lat, 0.99),
            lat.iter().sum::<f64>() / lat.len().max(1) as f64
        );
    }
    let peak = if serve_only { stats.peak_rss_mib } else { invocation_peak_mib(ctx)? };
    let rounds = |xs: &[f64]| xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(",");
    println!(
        "batch cluster_1t_s=[{}] cluster_2t_s=[{}] coarse_2t_s=[{}]",
        rounds(&batch.cluster_1t),
        rounds(&batch.cluster_2t),
        rounds(&batch.coarse_2t)
    );
    println!(
        "batch rounds={} setup_reps={} daemon_peak_mb={:.1} load_wall_s={:.2}",
        batch.cluster_1t.len(),
        setup.len(),
        stats.peak_rss_mib,
        load.wall_s
    );
    let each = |f: fn(&LoadFigures) -> f64| figures.iter().map(f).collect::<Vec<f64>>();
    let (p50s, p95s, rates) = (each(|f| f.p50_us), each(|f| f.p95_us), each(|f| f.qps));
    println!(
        "loads p50_us=[{}] p95_us=[{}] qps=[{}] admission_s=[{}]",
        rounds(&p50s),
        rounds(&p95s),
        rounds(&rates),
        rounds(&load.admissions_s)
    );
    let references: Vec<f64> = batch.reference.iter().chain(&load_reference).copied().collect();
    let scale = REFERENCE_S / median(&references);
    println!("reference seconds=[{}] scale={scale:.6}", rounds(&references));
    // Client-side query figures, each a median across the loads: printed,
    // not gated. Over ten runs their spread reached 0.33 (p50), 0.23 (p95)
    // and 0.24 (throughput) of the median on cluster-dense: the host slows
    // wake-ups across its cores in other periods than it slows computation,
    // which the reference time follows.
    println!(
        "client query_p50_us={:.3} query_p95_us={:.3} query_qps={:.3}",
        median(&p50s),
        median(&p95s),
        load.lat_us.len() as f64 / load.wall_s
    );

    // Each time is the median of its samples over the run, scaled to a
    // host on which the reference computation takes REFERENCE_S: the raw
    // median is the value ÷ `scale`.
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup) * scale, "s");
    m.put("cluster_1t_s", median(&batch.cluster_1t) * scale, "s");
    m.put("cluster_2t_s", median(&batch.cluster_2t) * scale, "s");
    m.put("coarse_2t_s", median(&batch.coarse_2t) * scale, "s");
    m.put("peak_rss_mb", peak, "MiB");
    m.put("admission_s", median(&load.admissions_s) * scale, "s");
    Ok((m, tally))
}

fn run(argv: &[String]) -> Result<(), String> {
    let ctx = parse_args(argv)?;
    let size = ctx.size();
    let seed = ctx.seed.to_string();
    let dir = ctx.dir.display().to_string();
    run_child(&[
        "prepare",
        "--workload",
        ctx.workload.name(),
        "--seed",
        &seed,
        "--size",
        size,
        "--dir",
        &dir,
    ])?;
    let mut prep = read_prep(&ctx.dir)?;
    if ctx.fault_fingerprint {
        prep.corrupt();
    }

    let hw = linkclust_bench::ladder::detect_hardware();
    println!("seed {}", ctx.seed);
    println!(
        "hardware cores={} cgroup_quota_cores={} two_threads_exceed_cores={}",
        hw.cores,
        hw.cgroup_quota_cores.map_or_else(|| "none".to_owned(), |q| format!("{q:.2}")),
        2.0 > hw.effective_cores()
    );
    println!(
        "input workload={} size={size} n={} m={} density={:.6} k1={} k2={} k2_per_k1={:.3}",
        ctx.workload.name(),
        prep.vertices,
        prep.edges,
        prep.density,
        prep.k1,
        prep.k2,
        prep.k2 as f64 / prep.k1.max(1) as f64
    );

    let (metrics, tally) =
        if ctx.trace { traced::run(&ctx, &prep)? } else { untraced(&ctx, &prep)? };
    println!("{}", metrics.result_line(true, tally.attempted, tally.failed));
    Ok(())
}

/// `peak --workload W --size S --dir D --config 1t|2t|coarse`: the
/// set-up path, one clustering, then the process's peak resident set.
fn child_peak(argv: &[String]) -> Result<(), String> {
    let (w, sizes, dir) = child_inputs(argv)?;
    let g = inputs::load(w, &dir, &sizes, None)?;
    let mut tally = Tally::default();
    match flag(argv, "--config")? {
        "1t" => drop(batch::timed_fine(&g, 1, 0, &mut tally)),
        "2t" => drop(batch::timed_fine(&g, 2, 0, &mut tally)),
        _ => drop(batch::timed_coarse(&g, 0, &mut tally)),
    }
    println!("peak {}", peak_rss_mib());
    Ok(())
}

/// The largest peak resident set (MiB) of a fresh process that sets the
/// workload up and runs one of the three timed clusterings: what one
/// `linkclust` invocation needs, free of the fragmentation a long-lived
/// process accumulates.
fn invocation_peak_mib(ctx: &Ctx) -> Result<f64, String> {
    let dir = ctx.dir.display().to_string();
    let mut peak = 0.0f64;
    for config in ["1t", "2t", "coarse"] {
        let out = run_child(&[
            "peak",
            "--workload",
            ctx.workload.name(),
            "--size",
            ctx.size(),
            "--dir",
            &dir,
            "--config",
            config,
        ])?;
        let value = out
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("peak "))
            .and_then(|v| v.parse::<f64>().ok());
        peak = peak.max(value.ok_or_else(|| format!("peak child printed {out:?}"))?);
    }
    Ok(peak)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("prepare") => child_prepare(&argv[1..]),
        Some("memsteps") => child_memsteps(&argv[1..]),
        Some("peak") => child_peak(&argv[1..]),
        Some("batch") => child_batch(&argv[1..]),
        _ => run(&argv),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

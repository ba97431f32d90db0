//! `linkclust` — command-line link clustering.
//!
//! ```text
//! linkclust <edge-list-file> [options]
//!
//! options:
//!   --coarse               coarse-grained sweep (default: fine-grained)
//!   --gamma <f64>          soundness bound for --coarse       [2.0]
//!   --phi <usize>          terminal cluster count for --coarse [100]
//!   --threads <n>          Phase I threads (rows of A·A)       [1]
//!   --threshold <f64>      stop merging below this similarity (not with --coarse)
//!   --cut best|final       which partition to report           [best]
//!   --output communities|newick|csv|labels                     [communities]
//!   --stats                graph stats + per-phase run report (stderr)
//!   --stats-json           run report as JSON (stderr, printed last)
//!   --trace <file>         write a Chrome trace-event JSON timeline
//!   --log <file|stderr>    structured JSON-lines log of run lifecycle
//! ```
//!
//! With both `--stats` and `--stats-json`, the human-readable report is
//! printed first and the JSON object last, separated by a blank line, so
//! the JSON can be extracted by taking the final stderr line. `--trace`
//! files open in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The edge-list format is one `u v [weight]` triple per line with `#`
//! comments (see `linkclust::graph::io`).

use std::io::Read as _;
use std::process::ExitCode;

use linkclust::core::export::{to_merge_csv, to_newick};
use linkclust::graph::io::read_edge_list;
use linkclust::{
    CoarseConfig, ConfigError, Dendrogram, LinkClustering, LinkCommunities, RunReport,
    WeightedGraph,
};

struct Options {
    path: String,
    coarse: bool,
    gamma: f64,
    phi: usize,
    threads: usize,
    threshold: Option<f64>,
    cut: Cut,
    output: Output,
    stats: bool,
    stats_json: bool,
    trace: Option<String>,
    log: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Cut {
    Best,
    Final,
}

#[derive(PartialEq, Clone, Copy)]
enum Output {
    Communities,
    Newick,
    Csv,
    Labels,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: linkclust <edge-list-file|-> [--coarse] [--gamma G] [--phi P] \
         [--threads N] [--threshold T] [--cut best|final] [--stats] [--stats-json] \
         [--trace FILE] [--log FILE|stderr] [--output communities|newick|csv|labels]\n\
         \n\
         or:    linkclust generate <family> [seed]\n\
         families: gnm <n> <m> | complete <n> | kregular <n> <k> | \
         ba <n> <m> | planted <k> <size> <p_in> <p_out>\n\
         (writes an edge list to stdout, clusterable with `linkclust -`)"
    );
    ExitCode::FAILURE
}

/// Handles `linkclust generate <family> ...`: writes an edge list to
/// stdout. Returns `None` on malformed arguments. Arguments outside a
/// generator's documented bounds exit 1 with a one-line error naming the
/// bound, before the generator runs.
fn run_generate(args: &[String]) -> Option<ExitCode> {
    use linkclust::graph::generate::{
        barabasi_albert, complete, gnm, k_regular, planted_partition, WeightMode,
    };
    let w = WeightMode::Uniform { lo: 0.5, hi: 1.5 };
    let num = |i: usize| -> Option<usize> { args.get(i)?.parse().ok() };
    let fnum = |i: usize| -> Option<f64> { args.get(i)?.parse().ok() };
    let family = args.first()?;
    let fixed_args = match family.as_str() {
        "complete" => 2,
        "planted" => 5,
        _ => 3,
    };
    // optional trailing seed
    let seed = match args.get(fixed_args) {
        Some(seed) => seed.parse().ok()?,
        None => 42,
    };
    let refuse = |bound: String| {
        eprintln!("linkclust generate {family}: {bound}");
        Some(ExitCode::FAILURE)
    };
    let g = match family.as_str() {
        "gnm" => {
            let (n, m) = (num(1)?, num(2)?);
            let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
            if m > pairs {
                return refuse(format!("m = {m} exceeds the {pairs} vertex pairs of n = {n}"));
            }
            gnm(n, m, w, seed)
        }
        "complete" => complete(num(1)?, w, seed),
        "kregular" => {
            let (n, k) = (num(1)?, num(2)?);
            if k >= n {
                return refuse(format!("degree k = {k} must be smaller than n = {n}"));
            }
            if k % 2 == 1 && n % 2 == 1 {
                return refuse(format!("k = {k} and n = {n} are both odd; one must be even"));
            }
            k_regular(n, k, w, seed)
        }
        "ba" => {
            let (n, m) = (num(1)?, num(2)?);
            if m == 0 || n <= m {
                return refuse(format!("needs 1 <= m < n; got n = {n}, m = {m}"));
            }
            barabasi_albert(n, m, w, seed)
        }
        "planted" => {
            let (k, size, p_in, p_out) = (num(1)?, num(2)?, fnum(3)?, fnum(4)?);
            if k == 0 || size < 3 {
                return refuse(format!("needs k >= 1 communities of size >= 3; got {k} of {size}"));
            }
            if !(0.0..=1.0).contains(&p_in) || !(0.0..=1.0).contains(&p_out) {
                return refuse(format!("p_in = {p_in} and p_out = {p_out} must lie in [0, 1]"));
            }
            planted_partition(k, size, p_in, p_out, seed).graph
        }
        _ => return None,
    };
    let stdout = std::io::stdout();
    if linkclust::graph::io::write_edge_list(&g, stdout.lock()).is_err() {
        return Some(ExitCode::FAILURE);
    }
    eprintln!("generated {} vertices, {} edges", g.vertex_count(), g.edge_count());
    Some(ExitCode::SUCCESS)
}

fn parse_args() -> Option<Options> {
    let mut opts = Options {
        path: String::new(),
        coarse: false,
        gamma: 2.0,
        phi: 100,
        threads: 1,
        threshold: None,
        cut: Cut::Best,
        output: Output::Communities,
        stats: false,
        stats_json: false,
        trace: None,
        log: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--coarse" => opts.coarse = true,
            "--stats" => opts.stats = true,
            "--stats-json" => opts.stats_json = true,
            "--gamma" => opts.gamma = args.next()?.parse().ok()?,
            "--phi" => opts.phi = args.next()?.parse().ok()?,
            "--threads" => opts.threads = args.next()?.parse().ok()?,
            "--threshold" => opts.threshold = Some(args.next()?.parse().ok()?),
            "--trace" => opts.trace = Some(args.next()?),
            "--log" => opts.log = Some(args.next()?),
            "--cut" => {
                opts.cut = match args.next()?.as_str() {
                    "best" => Cut::Best,
                    "final" => Cut::Final,
                    _ => return None,
                }
            }
            "--output" => {
                opts.output = match args.next()?.as_str() {
                    "communities" => Output::Communities,
                    "newick" => Output::Newick,
                    "csv" => Output::Csv,
                    "labels" => Output::Labels,
                    _ => return None,
                }
            }
            "--help" | "-h" => return None,
            p if opts.path.is_empty() => opts.path = p.to_owned(),
            _ => return None,
        }
    }
    if opts.path.is_empty() || opts.threads == 0 {
        return None;
    }
    Some(opts)
}

fn cluster(
    g: &WeightedGraph,
    opts: &Options,
) -> Result<(Dendrogram, Vec<u32>, Option<RunReport>), ConfigError> {
    let mut lc = LinkClustering::new().threads(opts.threads).stats(opts.stats || opts.stats_json);
    if let Some(path) = &opts.trace {
        lc = lc.trace(path);
    }
    if let Some(t) = opts.threshold {
        lc = lc.min_similarity(t);
    }
    if opts.coarse {
        let cfg = CoarseConfig {
            gamma: opts.gamma,
            phi: opts.phi,
            initial_chunk: 64,
            ..Default::default()
        };
        let r = lc.run_coarse(g, cfg)?;
        let labels = r.output().edge_assignments();
        let dendrogram = r.output().dendrogram().clone();
        Ok((dendrogram, labels, r.report().cloned()))
    } else {
        let r = lc.run(g)?;
        let labels = r.edge_assignments();
        let report = r.report().cloned();
        Ok((r.into_dendrogram(), labels, report))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("generate") {
        return match run_generate(&argv[1..]) {
            Some(code) => code,
            None => usage(),
        };
    }
    let Some(opts) = parse_args() else {
        return usage();
    };
    if opts.coarse && opts.threshold.is_some() {
        // The coarse sweep stops at φ clusters and has no threshold.
        eprintln!("--threshold applies to the fine-grained sweep only; drop it or --coarse");
        return ExitCode::FAILURE;
    }

    let text = if opts.path == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("failed to read stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(&opts.path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {}: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        }
    };
    let g = match read_edge_list(text.as_bytes()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "graph: {} vertices, {} edges, density {:.4}",
        g.vertex_count(),
        g.edge_count(),
        g.density()
    );
    if opts.stats {
        let s = linkclust::graph::stats::GraphStats::compute(&g);
        eprintln!(
            "stats: K1 = {} vertex pairs, K2 = {} incident edge pairs, K3 = {} edge pairs, \
             max degree {}, mean degree {:.2}",
            s.common_neighbor_pairs,
            s.incident_edge_pairs,
            s.distinct_edge_pairs,
            s.max_degree,
            s.mean_degree
        );
    }

    let logger = match &opts.log {
        Some(spec) => {
            match linkclust::core::telemetry::Logger::from_spec(
                spec,
                linkclust::core::telemetry::LogLevel::Info,
            ) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot open log sink {spec}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => linkclust::core::telemetry::Logger::disabled(),
    };
    logger.info(
        "run_start",
        &[
            ("graph", (&opts.path).into()),
            ("vertices", g.vertex_count().into()),
            ("edges", g.edge_count().into()),
            ("threads", opts.threads.into()),
            ("coarse", opts.coarse.into()),
        ],
    );

    let run_started = std::time::Instant::now();
    let (dendrogram, final_labels, report) = match cluster(&g, &opts) {
        Ok(r) => r,
        Err(e) => {
            logger.error("run_failed", &[("error", (&e.to_string()).into())]);
            eprintln!("invalid configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    logger.info(
        "run_done",
        &[
            ("seconds", run_started.elapsed().as_secs_f64().into()),
            ("levels", dendrogram.levels().into()),
        ],
    );
    if let Some(report) = &report {
        let dropped = report.counter(linkclust::core::telemetry::Counter::TraceEventsDropped);
        if dropped > 0 {
            logger.warn("trace_events_dropped", &[("dropped", dropped.into())]);
            eprintln!(
                "warning: {dropped} trace events were dropped by ring-buffer overflow; \
                 the exported timeline is missing its oldest events"
            );
        }
    }
    let labels = match opts.cut {
        Cut::Final => final_labels,
        Cut::Best => match dendrogram.best_density_cut(&g) {
            Some(cut) => {
                eprintln!(
                    "best cut: level {} of {}, partition density {:.4}, {} communities",
                    cut.level,
                    dendrogram.levels(),
                    cut.density,
                    cut.cluster_count
                );
                dendrogram.assignments_at_level(cut.level)
            }
            None => final_labels,
        },
    };
    if let Some(report) = &report {
        // The report goes after every other stderr line, and the JSON
        // object last of all (after a separating blank line), so scripts
        // can grab it by taking the final stderr line. The Display table
        // already ends with a newline.
        if opts.stats {
            eprint!("{report}");
        }
        if opts.stats && opts.stats_json {
            eprintln!();
        }
        if opts.stats_json {
            eprintln!("{}", report.to_json());
        }
    }

    match opts.output {
        Output::Newick => match to_newick(&dendrogram) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("error: newick export failed: {e}");
                std::process::exit(1);
            }
        },
        Output::Csv => print!("{}", to_merge_csv(&dendrogram)),
        Output::Labels => {
            for (i, l) in labels.iter().enumerate() {
                println!("{i} {l}");
            }
        }
        Output::Communities => {
            let comms = LinkCommunities::from_edge_labels(&g, &labels);
            println!("{} link communities:", comms.len());
            for (i, c) in comms.communities().iter().enumerate() {
                let verts: Vec<String> = c.vertices.iter().map(|v| v.index().to_string()).collect();
                println!(
                    "community {i}: {} edges, {} vertices (D_c = {:.3}): {}",
                    c.edge_count(),
                    c.vertex_count(),
                    c.link_density(),
                    verts.join(" ")
                );
            }
            let overlaps = comms.overlap_vertices();
            if !overlaps.is_empty() {
                let v: Vec<String> = overlaps.iter().map(|v| v.index().to_string()).collect();
                println!("overlap vertices: {}", v.join(" "));
            }
        }
    }
    ExitCode::SUCCESS
}

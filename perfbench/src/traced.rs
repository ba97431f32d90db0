//! The traced run (`--trace 1`): the workload's pipeline with a span
//! around every call into a layer, then a client load against a real
//! daemon to measure what the socket adds. Prints the per-layer
//! metrics and writes the spans as Chrome trace JSON.

use std::sync::Arc;
use std::time::{Duration, Instant};

use linkclust::serve::json;
use linkclust::serve::DendrogramIndex;
use linkclust::CsrGraph;
use linkclust_bench::serve::{KINDS, THETA_PALETTE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::batch::{build_index, overhead_ms, traced_batch, Pass, TracedBatch};
use crate::inputs::{load, read_graph_file, Prep, Workload};
use crate::serve::{
    check_samples, daemon_stats, inprocess_server, run_load, Daemon, LoadPlan, Requests, CLIENTS,
};
use crate::spans::{attribute, Cat, Tracer};
use crate::util::{median, quantile, secs, Metrics, Tally};
use crate::Ctx;

/// The groups clustering is expected to run in: set-up and admissions
/// (where the daemon clusters), and the batch passes and index build of
/// the cluster workloads.
const CLUSTER_GROUPS: [&str; 4] = ["setup", "admission", "batch", "index"];

/// Names of the spans that run clustering code.
fn is_cluster_span(name: &str) -> bool {
    name.starts_with("init.")
        || name.starts_with("sort.")
        || name == "sweep.1t"
        || name == "ufsweep.2t"
        || name == "coarse.sweep_2t"
}

/// What the in-process serve loop measured.
struct ServeLoop {
    per_kind_us: Vec<Vec<f64>>,
    answer_bytes: u64,
    answers: u64,
    passes: Vec<Pass>,
    server: linkclust::serve::Server,
}

/// Handles the clients' request streams in process, one whole stream
/// after the other as the daemon serves them, with an admission — the
/// clustering and index build, then a fresh server — at each of client
/// 0's recluster points.
fn serve_loop(
    tr: &Tracer,
    g: &Arc<CsrGraph>,
    index: DendrogramIndex,
    plan: &LoadPlan,
    tally: &mut Tally,
) -> Result<ServeLoop, String> {
    let mut server =
        tr.layer("server.assemble", || inprocess_server((**g).clone(), Some(index)))?;
    let mut per_kind_us = vec![Vec::new(); KINDS.len()];
    let (mut answer_bytes, mut answers) = (0u64, 0u64);
    let mut passes = Vec::new();
    let start = Instant::now();
    for id in 0..CLIENTS {
        let mut requests = Requests::for_client(plan.seed, id, plan.vertices, plan.edges);
        let admissions = if id == 0 { plan.admissions } else { 0 };
        let mut sent = 0;
        for k in 0..=admissions {
            if start.elapsed().as_secs_f64() >= plan.cap_seconds {
                break;
            }
            let end =
                if k < admissions { plan.recluster_point(k) } else { plan.queries_per_client };
            tr.layer("server.handle_line", || {
                for _ in sent..end {
                    let (kind, line) = requests.next_query();
                    let t = Instant::now();
                    let (answer, _) = server.handle_line(&line);
                    per_kind_us[kind].push(secs(t) * 1e6);
                    answer_bytes += answer.len() as u64;
                    answers += 1;
                    tally.record(answer.contains("\"ok\":true"));
                }
            });
            sent = end;
            if k < admissions {
                tr.span("admission", Cat::Group, || -> Result<(), String> {
                    let (index, _, pass) = build_index(tr, g)?;
                    passes.push(pass);
                    tr.layer("server.swap", || -> Result<(), String> {
                        server = inprocess_server((**g).clone(), Some(index))?;
                        Ok(())
                    })
                })?;
            }
        }
    }
    Ok(ServeLoop { per_kind_us, answer_bytes, answers, passes, server })
}

/// Per-call medians of direct index lookups and request parsing, over
/// seeded draws like the mix's.
struct Probes {
    topk_ms: f64,
    edge_us: f64,
    vertex_us: f64,
    parse_us: f64,
}

/// Median seconds of one call of `f`, over `items`.
fn median_call<T>(items: &[T], f: impl Fn(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            secs(t)
        })
        .collect();
    median(&times)
}

/// One index lookup: a cut level, a top-k size, an edge and a vertex.
struct Draw {
    level: u32,
    k: usize,
    edge: usize,
    vertex: usize,
}

fn probes(tr: &Tracer, index: &DendrogramIndex, ctx: &Ctx) -> Probes {
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x7072_6f62);
    let draws: Vec<Draw> = (0..2_000)
        .map(|i| Draw {
            level: index.level_for_threshold(
                f64::from(rng.gen_range(0..THETA_PALETTE as u32)) / THETA_PALETTE as f64,
            ),
            k: 1 + i % 15,
            edge: i * 7919 % index.edge_count().max(1),
            vertex: i * 104_729 % index.vertex_count().max(1),
        })
        .collect();
    let topk = tr.layer("index.topk", || {
        median_call(&draws[..40], |d| {
            std::hint::black_box(index.top_communities_at_level(d.level, d.k));
        })
    });
    let edge = tr.layer("index.edge", || {
        median_call(&draws, |d| {
            std::hint::black_box(index.edge_label_at_level(d.edge, d.level));
        })
    });
    let vertex = tr.layer("index.vertex", || {
        median_call(&draws, |d| {
            std::hint::black_box(index.vertex_labels_at_level(d.vertex, d.level));
        })
    });
    let mut requests = Requests::for_client(ctx.seed, 0, index.vertex_count(), index.edge_count());
    let lines: Vec<String> = (0..2_000).map(|_| requests.next_query().1).collect();
    let parse = tr.layer("json.parse", || {
        median_call(&lines, |l| {
            std::hint::black_box(json::parse(l).is_ok());
        })
    });
    Probes {
        topk_ms: topk * 1e3,
        edge_us: edge * 1e6,
        vertex_us: vertex * 1e6,
        parse_us: parse * 1e6,
    }
}

/// Peak resident set after each serial pipeline call, from a fresh
/// child process.
fn memory_steps(ctx: &Ctx) -> Result<[f64; 4], String> {
    let text = crate::run_child(&["memsteps", "--dir", &ctx.dir.display().to_string()])?;
    let line = text.lines().last().unwrap_or("");
    let values: Vec<f64> = line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    <[f64; 4]>::try_from(values).map_err(|_| format!("memsteps printed {line:?}"))
}

fn or0(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

/// Runs the traced pipeline and returns the per-layer metrics.
///
/// # Errors
///
/// Reports input, daemon and trace-file failures.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx, prep: &Prep) -> Result<(Metrics, Tally), String> {
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let w = ctx.workload;
    let serve_only = w == Workload::ServeMixed;
    let budget = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    let mut batch = TracedBatch::default();
    let mut csr_bytes = 0usize;
    let mut setup_passes: Vec<Pass> = Vec::new();
    let traced = tr.span("run", Cat::Run, || -> Result<_, String> {
        let (g, built) = tr.span("setup", Cat::Group, || -> Result<_, String> {
            let g = Arc::new(load(w, &ctx.dir, &ctx.sizes, Some(&tr))?);
            // The daemon's start-up is serve-mixed's set-up: clustering
            // runs there and in admissions only.
            let built = if serve_only { Some(build_index(&tr, &g)?) } else { None };
            Ok((g, built))
        })?;
        csr_bytes = g.memory_bytes();
        if !serve_only {
            batch = tr.span("batch", Cat::Group, || {
                traced_batch(&tr, &g, prep, budget(0.45), &mut tally)
            });
        }
        let (index, index_bytes, pass) = match built {
            Some(b) => b,
            None => tr.span("index", Cat::Group, || -> Result<_, String> {
                tr.layer("graph.binfmt_read", || read_graph_file(&ctx.dir))?;
                build_index(&tr, &g)
            })?,
        };
        setup_passes.push(pass);
        let probe = tr.span("probes", Cat::Group, || {
            for _ in 0..5 {
                tr.layer("pool.spawn_join", || drop(linkclust::parallel::WorkerPool::new(2)));
            }
            probes(&tr, &index, ctx)
        });
        // The in-process loop and the daemon's load share one request
        // stream.
        let plan = ctx.load_plan(budget(if serve_only { 0.5 } else { 0.25 }), prep, 0);
        let served =
            tr.span("serve", Cat::Group, || serve_loop(&tr, &g, index, &plan, &mut tally))?;
        let (load, stats) = tr.span("load", Cat::Group, || -> Result<_, String> {
            let (daemon, _) =
                tr.layer("linkclustd.startup", || Daemon::spawn(&ctx.daemon, &ctx.dir))?;
            let load = tr.layer("linkclustd.load", || run_load(&daemon.addr, &plan));
            let stats = tr.layer("linkclustd.stats", || daemon_stats(&daemon))?;
            tr.layer("linkclustd.shutdown", || daemon.shutdown())?;
            Ok((load, stats))
        })?;
        tr.span("bench.check", Cat::Bench, || {
            check_samples(&served.server, &load.samples, ctx.fault_answer, &mut tally);
        });
        Ok((index_bytes, probe, served, load, stats))
    })?;
    let (index_bytes, probe, served, load, stats) = traced;
    tally.absorb(load.tally);

    let trace_path = ctx.dir.join("trace.json");
    let chrome = tr.to_chrome_json();
    std::fs::write(&trace_path, &chrome)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let attribution = attribute(&tr, &chrome)?;
    println!("trace {}", trace_path.display());
    let mut top: Vec<(&String, &f64)> = attribution.self_ms.iter().collect();
    top.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, ms) in top.iter().take(12) {
        println!("self_ms {name} {ms:.3}");
    }
    let mem = memory_steps(ctx)?;
    println!("mem_loaded_mb {:.1}", mem[0]);

    let med = |name: &str| median(&tr.durations_ms(name));
    let passes: Vec<&Pass> = setup_passes.iter().chain(&served.passes).collect();
    let counts = if serve_only { passes[0].counts } else { batch.counts };
    let sort_share = if serve_only {
        median(&passes.iter().map(|p| 100.0 * p.sort_ms / p.total_ms).collect::<Vec<_>>())
    } else {
        median(&batch.sort_share_2t)
    };
    let inproc_all: Vec<f64> = served.per_kind_us.iter().flatten().copied().collect();

    let mut m = Metrics::default();
    m.put("graph.load_ms", or0(med("graph.load")) + or0(med("graph.csr")), "ms");
    m.put("graph.csr_bytes", csr_bytes as f64, "bytes");
    m.put("graph.binfmt_read_ms", med("graph.binfmt_read"), "ms");
    m.put("corpus.text_ms", or0(med("corpus.text")), "ms");
    m.put("corpus.assoc_ms", or0(med("corpus.assoc")), "ms");
    m.put("init.1t_ms", or0(med("init.1t")), "ms");
    m.put("init.2t_ms", med("init.2t"), "ms");
    m.put("init.entries", counts.entries as f64, "count");
    m.put("init.cn_records", counts.cn_records as f64, "count");
    m.put("init.cn_per_entry", counts.cn_records as f64 / counts.entries as f64, "ratio");
    m.put("init.l_bytes", counts.bytes as f64, "bytes");
    m.put("sort.1t_ms", or0(med("sort.1t")), "ms");
    m.put("sort.2t_ms", med("sort.2t"), "ms");
    m.put("sort.2t_share_pct", sort_share, "%");
    m.put("sweep.1t_ms", or0(med("sweep.1t")), "ms");
    m.put("ufsweep.2t_ms", med("ufsweep.2t"), "ms");
    m.put("sweep.merges", counts.merges as f64, "count");
    m.put("coarse.sweep_2t_ms", or0(med("coarse.sweep_2t")), "ms");
    m.put("dendrogram.best_cut_ms", or0(med("dendrogram.best_cut")), "ms");
    m.put("facade.overhead_1t_ms", or0(overhead_ms(&batch.facade_1t, &batch.calls_1t)), "ms");
    m.put("facade.overhead_2t_ms", or0(overhead_ms(&batch.facade_2t, &batch.calls_2t)), "ms");
    m.put("pool.spawn_join_ms", med("pool.spawn_join"), "ms");
    m.put("teardown.ms", med("teardown.2t"), "ms");
    m.put("mem.hwm_init_mb", mem[1], "MiB");
    m.put("mem.hwm_sort_mb", mem[2], "MiB");
    m.put("mem.hwm_sweep_mb", mem[3], "MiB");
    m.put("index.build_ms", med("index.build"), "ms");
    m.put("index.bytes", index_bytes as f64, "bytes");
    m.put("index.topk_ms", probe.topk_ms, "ms");
    m.put("index.edge_us", probe.edge_us, "us");
    m.put("index.vertex_us", probe.vertex_us, "us");
    for (kind, lat) in KINDS.iter().zip(&served.per_kind_us) {
        let (p50, p99): (&'static str, &'static str) = match *kind {
            "cut" => ("server.cut.p50_us", "server.cut.p99_us"),
            "edge" => ("server.edge.p50_us", "server.edge.p99_us"),
            "vertex" => ("server.vertex.p50_us", "server.vertex.p99_us"),
            "topk" => ("server.topk.p50_us", "server.topk.p99_us"),
            "profile" => ("server.profile.p50_us", "server.profile.p99_us"),
            _ => ("server.best.p50_us", "server.best.p99_us"),
        };
        m.put(p50, median(lat), "us");
        m.put(p99, quantile(lat, 0.99), "us");
    }
    m.put("json.parse_us", probe.parse_us, "us");
    let lookups = stats.cache_hits + stats.cache_misses;
    m.put("cache.hit_ratio", stats.cache_hits as f64 / lookups as f64, "ratio");
    m.put("server.response_bytes", served.answer_bytes as f64 / served.answers as f64, "bytes");
    m.put("client.query_p50_us", median(&load.lat_us), "us");
    m.put("client.query_p95_us", quantile(&load.lat_us, 0.95), "us");
    m.put("client.query_qps", load.lat_us.len() as f64 / load.wall_s, "1/s");
    m.put("transport.p50_us", median(&load.lat_us) - median(&inproc_all), "us");
    m.put("admission.query_p99_us", or0(quantile(&load.lat_admission_us, 0.99)), "us");
    m.put("unattributed.pct", attribution.unattributed_pct, "%");
    m.put(
        "trace.cluster_spans_unexpected",
        tr.count_outside(is_cluster_span, &CLUSTER_GROUPS) as f64,
        "count",
    );
    Ok((m, tally))
}

//! The batch phase: clustering the workload's graph as a `linkclust` run
//! does, timed end to end through the facade (untraced) or call by call
//! through the layers' public functions (traced).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkclust::core::coarse::CoarseConfig;
use linkclust::core::init::compute_similarities;
use linkclust::core::sweep::{sweep, SweepConfig, SweepOutput};
use linkclust::core::telemetry::Telemetry;
use linkclust::core::{PairSimilarities, SimilarityEntry};
use linkclust::parallel::init::compute_similarities_pooled;
use linkclust::parallel::sort::parallel_into_sorted_pooled;
use linkclust::parallel::ufsweep::ufsweep_with;
use linkclust::parallel::{parallel_coarse_sweep_shared, WorkerPool};
use linkclust::serve::DendrogramIndex;
use linkclust::{CsrGraph, LinkClustering, VertexId};

use crate::inputs::{read_graph_file, Prep};
use crate::spans::{Cat, Tracer};
use crate::util::{
    coarse_fingerprint, fine_fingerprint, median, peak_rss_mib, reference_seconds, secs, Tally,
};

/// Timed rounds after the warm-up round, at the least.
const MIN_ROUNDS: usize = 3;

/// Seconds per call of the set-up path and the three timed clusterings,
/// and of the reference computation, once a round.
#[derive(Default)]
pub struct BatchTimes {
    pub setup: Vec<f64>,
    pub cluster_1t: Vec<f64>,
    pub cluster_2t: Vec<f64>,
    pub coarse_2t: Vec<f64>,
    pub reference: Vec<f64>,
}

impl BatchTimes {
    /// One `times <series> <seconds>...` line per series, as a batch
    /// child process prints them.
    #[must_use]
    pub fn render(&self) -> String {
        [
            ("setup", &self.setup),
            ("cluster_1t", &self.cluster_1t),
            ("cluster_2t", &self.cluster_2t),
            ("coarse_2t", &self.coarse_2t),
            ("reference", &self.reference),
        ]
        .iter()
        .map(|(name, xs)| {
            let values: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
            format!("times {name} {}\n", values.join(" "))
        })
        .collect()
    }

    /// Appends the times in the `times` lines of `text` (see
    /// [`render`](Self::render)).
    ///
    /// # Errors
    ///
    /// Reports an unknown series or a value that is not a number.
    pub fn absorb_rendered(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if words.next() != Some("times") {
                continue;
            }
            let series = match words.next() {
                Some("setup") => &mut self.setup,
                Some("cluster_1t") => &mut self.cluster_1t,
                Some("cluster_2t") => &mut self.cluster_2t,
                Some("coarse_2t") => &mut self.coarse_2t,
                Some("reference") => &mut self.reference,
                _ => return Err(format!("unknown times line {line:?}")),
            };
            for word in words {
                series.push(word.parse().map_err(|e| format!("{line:?}: {e}"))?);
            }
        }
        Ok(())
    }
}

/// `LinkClustering::new().threads(threads).run(g)` plus the best-density
/// cut and the drop of the result, checked against the reference
/// outside the timed region. Returns seconds.
pub fn timed_fine(g: &CsrGraph, threads: usize, expect: u64, tally: &mut Tally) -> f64 {
    let facade = LinkClustering::new().threads(threads);
    let start = Instant::now();
    let result = facade.run(g);
    let cut = result.as_ref().ok().and_then(|r| r.dendrogram().best_density_cut(g));
    let run = secs(start);
    tally.record(result.as_ref().is_ok_and(|r| fine_fingerprint(r.output(), cut) == expect));
    let start = Instant::now();
    drop(result);
    run + secs(start)
}

/// `run_coarse` at two threads with the paper's γ = 2, φ = 100, plus
/// the drop, checked against the serial coarse reference.
pub fn timed_coarse(g: &CsrGraph, expect: u64, tally: &mut Tally) -> f64 {
    let facade = LinkClustering::new().threads(2);
    let start = Instant::now();
    let result = facade.run_coarse(g, CoarseConfig::default());
    let run = secs(start);
    tally.record(result.as_ref().is_ok_and(|r| coarse_fingerprint(r) == expect));
    let start = Instant::now();
    drop(result);
    run + secs(start)
}

/// Rounds of the 1-thread, 2-thread and coarse clusterings until
/// `budget` is spent, their times appended to `times`. With `warm_up`,
/// a first round warms the process's heap up: it is checked but not
/// timed (in a fresh process it runs up to 1.5× slower).
pub fn run_batch(
    g: &CsrGraph,
    prep: &Prep,
    budget: Duration,
    warm_up: bool,
    times: &mut BatchTimes,
    tally: &mut Tally,
) {
    if warm_up {
        run_batch_round(g, prep, &mut BatchTimes::default(), tally);
    }
    let start = Instant::now();
    loop {
        run_batch_round(g, prep, times, tally);
        if start.elapsed() >= budget {
            break;
        }
    }
}

fn run_batch_round(g: &CsrGraph, prep: &Prep, times: &mut BatchTimes, tally: &mut Tally) {
    times.reference.push(reference_seconds());
    times.cluster_1t.push(timed_fine(g, 1, prep.fine_fp, tally));
    times.cluster_2t.push(timed_fine(g, 2, prep.fine_fp, tally));
    times.coarse_2t.push(timed_coarse(g, prep.coarse_fp, tally));
}

/// Sizes of the similarity list `L` as Phase I produced it.
#[derive(Clone, Copy, Default)]
pub struct LCounts {
    /// K₁: entries of `L`.
    pub entries: u64,
    /// Σ common neighbours over the entries (K₂).
    pub cn_records: u64,
    /// Bytes of the entries plus their common-neighbour lists.
    pub bytes: u64,
    /// Merges of the fine-grained dendrogram.
    pub merges: u64,
}

impl LCounts {
    fn of(sims: &PairSimilarities) -> Self {
        let entries = sims.len() as u64;
        let cn_records = sims.incident_pair_count();
        LCounts {
            entries,
            cn_records,
            bytes: entries * std::mem::size_of::<SimilarityEntry>() as u64
                + cn_records * std::mem::size_of::<VertexId>() as u64,
            merges: 0,
        }
    }
}

/// Milliseconds spent in each call of one traced pass, summed.
pub struct Pass {
    pub total_ms: f64,
    pub sort_ms: f64,
    pub counts: LCounts,
}

/// Runs `f` in a layer span and returns its value with the span's
/// duration in milliseconds.
fn timed<T>(tr: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = tr.layer(name, f);
    (out, secs(start) * 1e3)
}

/// The serial pipeline call by call: init, sort, sweep, cut, teardown.
pub fn pass_1t(tr: &Tracer, g: &CsrGraph, prep: &Prep, tally: &mut Tally) -> Pass {
    let (sims, init) = timed(tr, "init.1t", || compute_similarities(g));
    let mut counts = tr.span("bench.count", Cat::Bench, || LCounts::of(&sims));
    let (sorted, sort) = timed(tr, "sort.1t", || sims.into_sorted());
    let (out, sweep_ms) = timed(tr, "sweep.1t", || sweep(g, &sorted, SweepConfig::default()));
    let (cut, cut_ms) = timed(tr, "dendrogram.best_cut", || out.dendrogram().best_density_cut(g));
    counts.merges = out.dendrogram().merge_count();
    tally
        .record(tr.span("bench.check", Cat::Bench, || fine_fingerprint(&out, cut) == prep.fine_fp));
    let ((), teardown) = timed(tr, "teardown.1t", || drop((sorted, out)));
    Pass { total_ms: init + sort + sweep_ms + cut_ms + teardown, sort_ms: sort, counts }
}

/// The two-thread clustering the facade runs, call by call: pool,
/// init, sort, union-find sweep. Returns the output, the sorted list
/// (for the caller to drop) and the time spent.
fn cluster_2t(
    tr: &Tracer,
    g: &Arc<CsrGraph>,
    pool: &Arc<WorkerPool>,
) -> (SweepOutput, Arc<PairSimilarities>, Pass) {
    let tel = Telemetry::disabled();
    let (sims, init) = timed(tr, "init.2t", || compute_similarities_pooled(pool, g, &tel));
    let counts = tr.span("bench.count", Cat::Bench, || LCounts::of(&sims));
    let (sorted, sort) = timed(tr, "sort.2t", || parallel_into_sorted_pooled(pool, sims, &tel));
    let sorted = Arc::new(sorted);
    let (out, sweep_ms) =
        timed(tr, "ufsweep.2t", || ufsweep_with(&**g, &sorted, SweepConfig::default(), pool, &tel));
    (out, sorted, Pass { total_ms: init + sort + sweep_ms, sort_ms: sort, counts })
}

/// The two-thread pipeline call by call, as `threads(2).run` composes it.
pub fn pass_2t(tr: &Tracer, g: &Arc<CsrGraph>, prep: &Prep, tally: &mut Tally) -> Pass {
    let (pool, spawn) = timed(tr, "pool.spawn", || Arc::new(WorkerPool::new(2)));
    let (out, sorted, mut pass) = cluster_2t(tr, g, &pool);
    let (cut, cut_ms) =
        timed(tr, "dendrogram.best_cut", || out.dendrogram().best_density_cut(&**g));
    pass.counts.merges = out.dendrogram().merge_count();
    tally
        .record(tr.span("bench.check", Cat::Bench, || fine_fingerprint(&out, cut) == prep.fine_fp));
    let ((), teardown) = timed(tr, "teardown.2t", || drop((sorted, out)));
    let ((), join) = timed(tr, "pool.join", || drop(pool));
    pass.total_ms += spawn + cut_ms + teardown + join;
    pass
}

/// The coarse pipeline at two threads: init and sort as above, then the
/// shared-list parallel coarse sweep.
pub fn pass_coarse(tr: &Tracer, g: &Arc<CsrGraph>, prep: &Prep, tally: &mut Tally) {
    let pool = tr.layer("pool.spawn", || Arc::new(WorkerPool::new(2)));
    let tel = Telemetry::disabled();
    let sims = tr.layer("init.2t", || compute_similarities_pooled(&pool, g, &tel));
    let sorted = Arc::new(tr.layer("sort.2t", || parallel_into_sorted_pooled(&pool, sims, &tel)));
    let result = tr.layer("coarse.sweep_2t", || {
        parallel_coarse_sweep_shared(&**g, &sorted, CoarseConfig::default(), 2)
    });
    tally.record(
        tr.span("bench.check", Cat::Bench, || coarse_fingerprint(&result) == prep.coarse_fp),
    );
    tr.layer("teardown.coarse", || drop((sorted, result)));
    tr.layer("pool.join", || drop(pool));
}

/// What the traced batch phase measured beyond its spans.
#[derive(Default)]
pub struct TracedBatch {
    /// Untraced facade calls (ms) and the summed traced calls of the
    /// matching pass (ms), one per round.
    pub facade_1t: Vec<f64>,
    pub facade_2t: Vec<f64>,
    pub calls_1t: Vec<f64>,
    pub calls_2t: Vec<f64>,
    /// `sort.2t` over the traced two-thread pass, percent, per round.
    pub sort_share_2t: Vec<f64>,
    pub counts: LCounts,
}

/// Rounds of traced passes, each followed by the untraced facade call
/// it decomposes, until `budget` is spent.
pub fn traced_batch(
    tr: &Tracer,
    g: &Arc<CsrGraph>,
    prep: &Prep,
    budget: Duration,
    tally: &mut Tally,
) -> TracedBatch {
    let start = Instant::now();
    let mut out = TracedBatch::default();
    for round in 0.. {
        let p1 = tr.span("pass.1t", Cat::Group, || pass_1t(tr, g, prep, tally));
        let f1 = tr.layer("facade.1t", || timed_fine(g, 1, prep.fine_fp, tally)) * 1e3;
        let p2 = tr.span("pass.2t", Cat::Group, || pass_2t(tr, g, prep, tally));
        let f2 = tr.layer("facade.2t", || timed_fine(g, 2, prep.fine_fp, tally)) * 1e3;
        tr.span("pass.coarse", Cat::Group, || pass_coarse(tr, g, prep, tally));
        out.counts = p1.counts;
        if round > 0 {
            out.calls_1t.push(p1.total_ms);
            out.facade_1t.push(f1);
            out.calls_2t.push(p2.total_ms);
            out.facade_2t.push(f2);
            out.sort_share_2t.push(100.0 * p2.sort_ms / p2.total_ms);
        }
        if round >= MIN_ROUNDS && start.elapsed() >= budget {
            break;
        }
    }
    for _ in 0..5 {
        tr.layer("pool.spawn_join", || drop(WorkerPool::new(2)));
    }
    out
}

/// The index `linkclustd` builds at start-up and at each admission:
/// the two-thread clustering followed by `DendrogramIndex::build`.
/// Returns the index, its serialized size, and the clustering pass.
///
/// # Errors
///
/// Propagates index construction and serialization errors.
pub fn build_index(
    tr: &Tracer,
    g: &Arc<CsrGraph>,
) -> Result<(DendrogramIndex, usize, Pass), String> {
    let (pool, spawn) = timed(tr, "pool.spawn", || Arc::new(WorkerPool::new(2)));
    let (out, sorted, mut pass) = cluster_2t(tr, g, &pool);
    pass.counts.merges = out.dendrogram().merge_count();
    let index = tr
        .layer("index.build", || DendrogramIndex::build(&**g, &out))
        .map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    tr.layer("index.write", || index.write(&mut bytes)).map_err(|e| e.to_string())?;
    // The same drop as the two-thread pass's: its sorted list and output.
    let ((), teardown) = timed(tr, "teardown.2t", || drop((sorted, out)));
    let ((), join) = timed(tr, "pool.join", || drop(pool));
    pass.total_ms += spawn + teardown + join;
    Ok((index, bytes.len(), pass))
}

/// Peak resident set (MiB) after loading the graph and after each
/// serial Phase I, sort and sweep call, measured in a fresh process.
///
/// # Errors
///
/// Propagates graph read errors.
pub fn memory_steps(dir: &Path) -> Result<[f64; 4], String> {
    let g = read_graph_file(dir)?;
    let loaded = peak_rss_mib();
    let sims = compute_similarities(&g);
    let init = peak_rss_mib();
    let sorted = sims.into_sorted();
    let sort = peak_rss_mib();
    let out = sweep(&g, &sorted, SweepConfig::default());
    let swept = peak_rss_mib();
    drop((out, sorted));
    Ok([loaded, init, sort, swept])
}

/// Median untraced facade call minus the median summed traced calls:
/// the facade's work outside the layer calls, plus the cost of tracing
/// them.
#[must_use]
pub fn overhead_ms(facade: &[f64], calls: &[f64]) -> f64 {
    median(facade) - median(calls)
}

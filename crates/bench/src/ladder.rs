//! The scale benchmark ladder (§VI at scale).
//!
//! A fixed grid of rungs — three generator families (`gnm`,
//! Barabási–Albert, LFR-style planted communities) crossed with
//! edge-count tiers from ~10³ up to 10⁶ — each measured end to end on
//! the CSR backend at thread counts {1, 2, 4, 8}. Every rung records
//! wall-clock (min and mean over the configured runs), the rung
//! process's peak RSS (`VmHWM`), the CSR slab footprint, binary-format
//! round-trip latency, a bit-identity check against the adjacency-list
//! oracle, a per-thread-count phase split (init/sort/sweep, from the
//! telemetry spans of a dedicated instrumented run), a
//! `parallel_speedup_positive` verdict, and — on the LFR family —
//! ground-truth recovery scored with NMI and pair-counting F1 from
//! `linkclust_core::evaluate`. The document additionally records the
//! runner's honest hardware situation (visible cores, cgroup CPU quota,
//! and whether the thread grid exceeds them) so speedup numbers from a
//! quota-limited CI box are flagged rather than believed.
//!
//! The `bench_ladder` binary drives the grid: the parent process
//! re-executes itself once per rung (`--one-rung <id>`) so each rung's
//! `VmHWM` is isolated, then assembles the per-rung reports into
//! `BENCH_scale.json`. The Barabási–Albert family is capped at 10⁵
//! edges (preferential attachment is quadratic in the generator), which
//! the emitted JSON records explicitly rather than silently.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Duration;

use linkclust_core::evaluate::{normalized_mutual_information, pair_f1};
use linkclust_core::init::compute_similarities;
use linkclust_core::telemetry::Phase;
use linkclust_core::PairSimilarities;
use linkclust_graph::generate::{barabasi_albert, gnm, lfr_like, PlantedPartition, WeightMode};
use linkclust_graph::{CsrGraph, GraphFile, WeightedGraph};
use linkclust_parallel::LinkClustering;

use crate::timing::time_runs;

/// Identifier of the emitted document layout; bump on breaking change.
/// v2 added honest hardware detection (`cgroup_quota_cores`,
/// `threads_exceed_cores`), per-thread-sample phase splits
/// (init/sort/sweep), per-rung `parallel_speedup_positive`, and the
/// document-level `parallel_speedup_positive_at_largest_rung` flag.
pub const SCHEMA: &str = "linkclust-bench-scale/v2";

/// Thread counts every rung is timed at.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Target edge-count tiers of the full ladder.
pub const TIERS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Barabási–Albert rungs stop here: preferential attachment in the
/// generator is O(n·m) and the family exists to cover power-law degree
/// skew, which 10⁵ edges already exhibit.
pub const BA_EDGE_CAP: usize = 100_000;

/// What the machine actually offers the ladder — recorded in the
/// document so speedup figures can be judged honestly. A containerized
/// runner frequently reports many hardware threads through
/// `available_parallelism` while a cgroup CPU quota pins the process to
/// a fraction of one core; `threads_exceed_cores` flags any rung grid
/// whose largest thread count the machine cannot actually run in
/// parallel.
#[derive(Clone, Copy, Debug)]
pub struct Hardware {
    /// `std::thread::available_parallelism()`, 1 if unknown.
    pub cores: usize,
    /// Effective cores granted by a cgroup CPU quota (v2 `cpu.max` or v1
    /// `cfs_quota_us / cfs_period_us`), `None` when unlimited or not in
    /// a cgroup.
    pub cgroup_quota_cores: Option<f64>,
    /// `true` when the largest entry of [`THREADS`] exceeds the
    /// effective core count — speedup figures are then contention
    /// artifacts, not parallel scaling.
    pub threads_exceed_cores: bool,
}

impl Hardware {
    /// The smaller of the visible core count and the cgroup quota.
    #[must_use]
    pub fn effective_cores(&self) -> f64 {
        let cores = self.cores as f64;
        self.cgroup_quota_cores.map_or(cores, |q| q.min(cores))
    }

    /// The `"hardware"` JSON object of the document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let quota =
            self.cgroup_quota_cores.map_or_else(|| "null".to_owned(), |q| format!("{q:.4}"));
        format!(
            "{{\"cores\":{},\"cgroup_quota_cores\":{},\"threads_exceed_cores\":{}}}",
            self.cores, quota, self.threads_exceed_cores,
        )
    }
}

/// Probes the runner: visible parallelism, cgroup CPU quota (v2 first,
/// then v1), and whether the ladder's largest thread count exceeds what
/// the machine can actually run.
#[must_use]
pub fn detect_hardware() -> Hardware {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cgroup_quota_cores = cgroup_v2_quota().or_else(cgroup_v1_quota);
    let max_threads = THREADS.iter().copied().max().unwrap_or(1);
    let effective = cgroup_quota_cores.map_or(cores as f64, |q| q.min(cores as f64));
    Hardware { cores, cgroup_quota_cores, threads_exceed_cores: max_threads as f64 > effective }
}

/// cgroup v2: `/sys/fs/cgroup/cpu.max` is `"<quota> <period>"` in
/// microseconds, or `"max ..."` when unlimited.
fn cgroup_v2_quota() -> Option<f64> {
    let text = std::fs::read_to_string("/sys/fs/cgroup/cpu.max").ok()?;
    let mut parts = text.split_whitespace();
    let quota: f64 = parts.next()?.parse().ok()?;
    let period: f64 = parts.next()?.parse().ok()?;
    // float-cmp: sign test against exact-zero sentinels, not an
    // equality on computed values.
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// cgroup v1: quota and period live in separate `cpu.cfs_*_us` files;
/// a quota of `-1` means unlimited.
fn cgroup_v1_quota() -> Option<f64> {
    let read = |name: &str| -> Option<f64> {
        std::fs::read_to_string(format!("/sys/fs/cgroup/cpu/{name}")).ok()?.trim().parse().ok()
    };
    let quota = read("cpu.cfs_quota_us")?;
    let period = read("cpu.cfs_period_us")?;
    // float-cmp: sign test against exact-zero sentinels (v1 encodes
    // "unlimited" as -1), not an equality on computed values.
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// The generator families the ladder spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Erdős–Rényi G(n, m) with uniform weights.
    Gnm,
    /// Barabási–Albert preferential attachment (power-law degrees).
    BarabasiAlbert,
    /// LFR-style planted communities with ground truth.
    LfrLike,
}

impl Family {
    /// The stable name used in rung ids and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Gnm => "gnm",
            Family::BarabasiAlbert => "barabasi_albert",
            Family::LfrLike => "lfr_like",
        }
    }
}

/// One rung: a generator family at a target edge tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RungSpec {
    /// Generator family.
    pub family: Family,
    /// Target edge count (generators land near, not exactly on, it).
    pub tier: usize,
}

impl RungSpec {
    /// The id used on the `--one-rung` command line, `family:tier`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}:{}", self.family.name(), self.tier)
    }

    /// Parses a `family:tier` id back into a spec.
    #[must_use]
    pub fn parse(id: &str) -> Option<RungSpec> {
        let (family, tier) = id.split_once(':')?;
        let family = match family {
            "gnm" => Family::Gnm,
            "barabasi_albert" => Family::BarabasiAlbert,
            "lfr_like" => Family::LfrLike,
            _ => return None,
        };
        Some(RungSpec { family, tier: tier.parse().ok()? })
    }
}

/// The rung grid: every family at every tier it supports, smallest
/// first. `smoke` keeps only the two smallest tiers per family (the CI
/// gate); the full ladder reaches 10⁶ edges on `gnm` and LFR.
#[must_use]
pub fn rung_specs(smoke: bool) -> Vec<RungSpec> {
    let tiers: &[usize] = if smoke { &TIERS[..2] } else { &TIERS };
    let mut specs = Vec::new();
    for &tier in tiers {
        for family in [Family::Gnm, Family::BarabasiAlbert, Family::LfrLike] {
            if family == Family::BarabasiAlbert && tier > BA_EDGE_CAP {
                continue;
            }
            specs.push(RungSpec { family, tier });
        }
    }
    specs
}

/// Builds the rung's graph. LFR rungs carry planted ground truth; the
/// other families return `None` for it.
#[must_use]
pub fn build_workload(spec: RungSpec) -> (WeightedGraph, Option<PlantedPartition>) {
    // Average degree 10 across all families keeps density comparable
    // between rungs of the same tier.
    let n = (spec.tier / 5).max(16);
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let seed = 0xC5A7 ^ spec.tier as u64;
    match spec.family {
        Family::Gnm => (gnm(n, spec.tier, w, seed), None),
        Family::BarabasiAlbert => (barabasi_albert(n, 5, w, seed), None),
        Family::LfrLike => {
            let planted = lfr_like(n, 10, 0.2, seed);
            (planted.graph.clone(), Some(planted))
        }
    }
}

/// Where one pipeline run spent its time, folded to the three
/// coarse phases of the paper's cost model (reusing the PR 5 telemetry
/// spans; measured on one dedicated `.stats(true)` run so the
/// instrumented run never contaminates the wall-clock samples).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSplit {
    /// Initialization: passes 1–3 plus the parallel shard fold.
    pub init_ms: f64,
    /// Sorting the similarity list.
    pub sort_ms: f64,
    /// The sweep (outer span — for the ufsweep engine this contains the
    /// local and replay sub-phases).
    pub sweep_ms: f64,
}

impl PhaseSplit {
    /// Folds a telemetry report into the three coarse phases.
    #[must_use]
    pub fn from_report(report: &linkclust_core::telemetry::RunReport) -> PhaseSplit {
        let ms = |p: Phase| report.phase_nanos(p) as f64 / 1e6;
        PhaseSplit {
            init_ms: ms(Phase::InitPass1)
                + ms(Phase::InitPass2)
                + ms(Phase::InitShardFold)
                + ms(Phase::InitPass3),
            sort_ms: ms(Phase::Sort),
            sweep_ms: ms(Phase::Sweep),
        }
    }
}

/// Wall-clock sample for one thread count.
#[derive(Clone, Copy, Debug)]
pub struct ThreadSample {
    /// Worker threads used.
    pub threads: usize,
    /// Fastest of the timed runs.
    pub min: Duration,
    /// Mean of the timed runs.
    pub mean: Duration,
    /// Phase split of the dedicated instrumented run.
    pub phases: PhaseSplit,
}

/// Everything measured on one rung.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// The rung measured.
    pub spec: RungSpec,
    /// Vertices actually generated.
    pub vertices: usize,
    /// Edges actually generated (generators land near the tier).
    pub edges: usize,
    /// Bytes of the CSR slabs ([`CsrGraph::memory_bytes`]).
    pub csr_memory_bytes: usize,
    /// Time to serialize the graph to the binary format.
    pub bin_write: Duration,
    /// Time to stream the binary bytes back into a [`CsrGraph`].
    pub bin_read: Duration,
    /// `true` if the binary round trip reproduced the CSR exactly.
    pub bin_roundtrip_ok: bool,
    /// `true` if CSR similarities matched the adjacency-list oracle to
    /// the bit.
    pub csr_matches_adjacency: bool,
    /// One wall-clock sample per thread count in [`THREADS`].
    pub thread_samples: Vec<ThreadSample>,
    /// NMI of recovered vs planted edge communities (LFR rungs only).
    pub nmi: Option<f64>,
    /// Pair-counting F1 of recovered vs planted edge communities (LFR
    /// rungs only).
    pub pair_f1: Option<f64>,
    /// Peak resident set of the rung process (`VmHWM`), 0 if unknown.
    pub peak_rss_bytes: u64,
}

/// Reads the process's peak resident set (`VmHWM`) from
/// `/proc/self/status`, in bytes; 0 where procfs is unavailable.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Measures one rung end to end: generate, convert to CSR, round-trip
/// the binary format, check bit-identity against the adjacency oracle,
/// time the full pipeline at each thread count, and (LFR) score the
/// recovered communities against the planted ground truth.
///
/// # Panics
///
/// Panics if a pipeline run rejects its configuration — impossible for
/// the thread counts in [`THREADS`].
#[must_use]
pub fn run_rung(spec: RungSpec, runs: usize) -> RungReport {
    let (g, planted) = build_workload(spec);
    let csr = CsrGraph::from_weighted(&g);

    // Binary-format round trip, timed on the same rung payload.
    let mut bytes = Vec::new();
    let ((), wstats) = time_runs(1, || {
        bytes.clear();
        GraphFile::write(&csr, &mut bytes).expect("vec write cannot fail");
    });
    let (back, rstats) = time_runs(1, || {
        GraphFile::read_streamed(bytes.as_slice()).expect("round trip of a valid graph")
    });
    let bin_roundtrip_ok = back == csr;

    // Bit-identity: parallel Phase I on the CSR backend against the
    // serial adjacency-list oracle. Each list is reduced to a digest as
    // soon as it is built and dropped, so no extra `L` is alive during
    // the other's computation or the timed runs below, where it would
    // count in the rung's peak RSS.
    let oracle = l_digest(&compute_similarities(&g).into_sorted());
    let csr_matches_adjacency = oracle
        == l_digest(
            &LinkClustering::new()
                .threads(*THREADS.last().expect("non-empty"))
                .similarities(&csr)
                .expect("validated thread count"),
        );

    // Wall clock at every thread count, CSR backend, full pipeline.
    // The phase split comes from one extra instrumented run so the
    // telemetry overhead stays out of the timed samples.
    let thread_samples: Vec<ThreadSample> = THREADS
        .iter()
        .map(|&threads| {
            let facade = LinkClustering::new().threads(threads);
            let (_, stats) = time_runs(runs, || facade.run(&csr).expect("validated thread count"));
            let instrumented = LinkClustering::new()
                .threads(threads)
                .stats(true)
                .run(&csr)
                .expect("validated thread count");
            let phases = instrumented
                .report()
                .map(PhaseSplit::from_report)
                .expect("stats(true) attaches a report");
            ThreadSample { threads, min: stats.min, mean: stats.mean, phases }
        })
        .collect();

    // Ground-truth recovery on the LFR family: cut the dendrogram at
    // its best partition density and score the edge communities.
    let (nmi, pf1) = match &planted {
        Some(p) => {
            let result = LinkClustering::new().run(&csr).expect("serial run");
            let labels = match result.dendrogram().best_density_cut(&csr) {
                Some(cut) => result.output().edge_assignments_at_level(cut.level),
                None => result.edge_assignments(),
            };
            (
                Some(normalized_mutual_information(&p.edge_community, &labels)),
                Some(pair_f1(&p.edge_community, &labels)),
            )
        }
        None => (None, None),
    };

    RungReport {
        spec,
        vertices: g.vertex_count(),
        edges: g.edge_count(),
        csr_memory_bytes: csr.memory_bytes(),
        bin_write: wstats.min,
        bin_read: rstats.min,
        bin_roundtrip_ok,
        csr_matches_adjacency,
        thread_samples,
        nmi,
        pair_f1: pf1,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The length of a sorted list `L` and a hash of its pairs and score
/// bits, in list order.
fn l_digest(sims: &PairSimilarities) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    for e in sims.entries() {
        (e.pair, e.score.to_bits()).hash(&mut h);
    }
    (sims.len(), h.finish())
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn f64_or_null(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| format!("{x:.6}"))
}

impl RungReport {
    /// `true` when some multi-thread sample beat the rung's own
    /// single-thread minimum — the honest per-rung answer to "did
    /// parallelism help here at all".
    #[must_use]
    pub fn parallel_speedup_positive(&self) -> bool {
        let Some(t1) = self.thread_samples.iter().find(|s| s.threads == 1) else { return false };
        self.thread_samples.iter().any(|s| s.threads > 1 && s.min < t1.min)
    }

    /// The rung as one JSON object (the element of `"rungs"` in
    /// `BENCH_scale.json`). `speedup` is self-relative: the rung's own
    /// single-thread minimum over the minimum at that thread count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let t1 = self
            .thread_samples
            .iter()
            .find(|s| s.threads == 1)
            .map_or(f64::NAN, |s| s.min.as_secs_f64());
        let threads: Vec<String> = self
            .thread_samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"threads\":{},\"min_ms\":{:.3},\"mean_ms\":{:.3},\"speedup\":{:.4},\
                      \"phases\":{{\"init_ms\":{:.3},\"sort_ms\":{:.3},\"sweep_ms\":{:.3}}}}}",
                    s.threads,
                    millis(s.min),
                    millis(s.mean),
                    t1 / s.min.as_secs_f64().max(1e-12),
                    s.phases.init_ms,
                    s.phases.sort_ms,
                    s.phases.sweep_ms,
                )
            })
            .collect();
        format!(
            "{{\"family\":\"{}\",\"tier\":{},\"vertices\":{},\"edges\":{},\
              \"csr_memory_bytes\":{},\"peak_rss_bytes\":{},\
              \"bin_write_ms\":{:.3},\"bin_read_ms\":{:.3},\"bin_roundtrip_ok\":{},\
              \"csr_matches_adjacency\":{},\
              \"parallel_speedup_positive\":{},\
              \"threads\":[{}],\
              \"nmi\":{},\"pair_f1\":{}}}",
            self.spec.family.name(),
            self.spec.tier,
            self.vertices,
            self.edges,
            self.csr_memory_bytes,
            self.peak_rss_bytes,
            millis(self.bin_write),
            millis(self.bin_read),
            self.bin_roundtrip_ok,
            self.csr_matches_adjacency,
            self.parallel_speedup_positive(),
            threads.join(","),
            f64_or_null(self.nmi),
            f64_or_null(self.pair_f1),
        )
    }
}

/// Assembles the full `BENCH_scale.json` document from per-rung JSON
/// objects (already serialized, in rung order).
/// `speedup_at_largest_rung` is the document-level headline: every rung
/// at the ladder's largest tier saw positive parallel speedup (the
/// caller derives it from the rung reports, which it has in spec
/// order). On a runner whose `hardware.threads_exceed_cores` is true
/// the flag being false is the expected — and honest — outcome.
#[must_use]
pub fn document_json(
    smoke: bool,
    runs: usize,
    hardware: &Hardware,
    speedup_at_largest_rung: bool,
    rung_objects: &[String],
) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"smoke\":{smoke},\"runs\":{runs},\
          \"hardware\":{},\
          \"parallel_speedup_positive_at_largest_rung\":{speedup_at_largest_rung},\
          \"ba_edge_cap\":{BA_EDGE_CAP},\
          \"rungs\":[{}]}}",
        hardware.to_json(),
        rung_objects.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_ids_round_trip() {
        for spec in rung_specs(false) {
            assert_eq!(RungSpec::parse(&spec.id()), Some(spec));
        }
        assert_eq!(RungSpec::parse("nope:100"), None);
        assert_eq!(RungSpec::parse("gnm:x"), None);
        assert_eq!(RungSpec::parse("gnm"), None);
    }

    #[test]
    fn smoke_grid_is_the_two_smallest_tiers() {
        let smoke = rung_specs(true);
        assert_eq!(smoke.len(), 6); // 3 families × 2 tiers
        assert!(smoke.iter().all(|s| s.tier <= TIERS[1]));
        let full = rung_specs(false);
        // The full ladder reaches 10⁶ edges on gnm and LFR; BA is capped.
        assert!(full.iter().any(|s| s.family == Family::Gnm && s.tier == 1_000_000));
        assert!(full.iter().any(|s| s.family == Family::LfrLike && s.tier == 1_000_000));
        assert!(full.iter().all(|s| s.family != Family::BarabasiAlbert || s.tier <= BA_EDGE_CAP));
    }

    #[test]
    fn workloads_land_near_their_tier() {
        for spec in rung_specs(true) {
            let (g, planted) = build_workload(spec);
            let m = g.edge_count();
            assert!(
                m >= spec.tier / 2 && m <= spec.tier + spec.tier / 2 + 64,
                "{}: {m} edges for tier {}",
                spec.id(),
                spec.tier
            );
            match spec.family {
                Family::LfrLike => {
                    let p = planted.expect("LFR carries ground truth");
                    assert_eq!(p.edge_community.len(), m);
                }
                _ => assert!(planted.is_none()),
            }
        }
    }

    #[test]
    fn smallest_rung_reports_are_complete_and_valid() {
        let report = run_rung(RungSpec { family: Family::LfrLike, tier: 1_000 }, 1);
        assert!(report.bin_roundtrip_ok);
        assert!(report.csr_matches_adjacency);
        assert_eq!(report.thread_samples.len(), THREADS.len());
        let nmi = report.nmi.expect("LFR rungs are scored");
        let f1 = report.pair_f1.expect("LFR rungs are scored");
        assert!((0.0..=1.0).contains(&nmi), "{nmi}");
        assert!((0.0..=1.0).contains(&f1), "{f1}");
        // Every sample carries a phase split, and the three phases are
        // real measurements (a pipeline run spends time in each).
        for s in &report.thread_samples {
            assert!(s.phases.init_ms > 0.0, "t={}: empty init split", s.threads);
            assert!(s.phases.sort_ms > 0.0, "t={}: empty sort split", s.threads);
            assert!(s.phases.sweep_ms > 0.0, "t={}: empty sweep split", s.threads);
        }
        // The JSON document is well-formed enough to contain the rung.
        let hw = detect_hardware();
        let doc =
            document_json(true, 1, &hw, report.parallel_speedup_positive(), &[report.to_json()]);
        assert!(doc.contains("\"schema\":\"linkclust-bench-scale/v2\""));
        assert!(doc.contains("\"family\":\"lfr_like\""));
        assert!(doc.contains("\"nmi\":"));
        assert!(doc.contains("\"parallel_speedup_positive_at_largest_rung\":"));
        assert!(doc.contains("\"cgroup_quota_cores\":"));
        assert!(doc.contains("\"threads_exceed_cores\":"));
        assert!(doc.contains("\"phases\":{\"init_ms\":"));
    }

    #[test]
    fn hardware_detection_is_sane() {
        let hw = detect_hardware();
        assert!(hw.cores >= 1);
        if let Some(q) = hw.cgroup_quota_cores {
            assert!(q > 0.0, "{q}");
        }
        assert!(hw.effective_cores() > 0.0);
        // This runner's visible parallelism decides the flag: the grid
        // tops out at max(THREADS).
        let max_threads = *THREADS.iter().max().unwrap() as f64;
        assert_eq!(hw.threads_exceed_cores, max_threads > hw.effective_cores());
        let json = hw.to_json();
        assert!(json.starts_with("{\"cores\":"));
        assert!(json.contains("\"threads_exceed_cores\":"));
    }

    #[test]
    fn speedup_flag_reflects_the_samples() {
        let mk = |mins: &[(usize, u64)]| RungReport {
            spec: RungSpec { family: Family::Gnm, tier: 1_000 },
            vertices: 10,
            edges: 20,
            csr_memory_bytes: 0,
            bin_write: Duration::ZERO,
            bin_read: Duration::ZERO,
            bin_roundtrip_ok: true,
            csr_matches_adjacency: true,
            thread_samples: mins
                .iter()
                .map(|&(threads, ms)| ThreadSample {
                    threads,
                    min: Duration::from_millis(ms),
                    mean: Duration::from_millis(ms),
                    phases: PhaseSplit::default(),
                })
                .collect(),
            nmi: None,
            pair_f1: None,
            peak_rss_bytes: 0,
        };
        assert!(mk(&[(1, 100), (2, 60), (4, 120)]).parallel_speedup_positive());
        assert!(!mk(&[(1, 100), (2, 130), (4, 170)]).parallel_speedup_positive());
        assert!(!mk(&[(2, 60)]).parallel_speedup_positive(), "no 1-thread baseline");
    }
}

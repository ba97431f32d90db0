//! Structural validation of the benchmark artifacts, for the
//! `bench-ladder`, `bench-serve`, and `serve-smoke` gates.
//!
//! Re-parses each artifact with the workspace's strict JSON parser
//! ([`linkclust_core::json`]), so a bench writer that emits non-JSON
//! fails the gate, then checks the document's shape.
//!
//! For `BENCH_scale.json` (`linkclust-bench-scale/v2`): the document
//! header, the hardware block (visible cores, optional cgroup quota,
//! the `threads_exceed_cores` flag), the document-level
//! `parallel_speedup_positive_at_largest_rung` boolean, a non-empty
//! `rungs` array, every per-rung field with the right type (including
//! the per-sample init/sort/sweep phase split and the per-rung speedup
//! verdict), per-rung correctness booleans true, and a non-empty
//! `threads` sample array per rung. The speedup booleans must be
//! *present*, not *true*: a quota-limited one-core runner honestly
//! reports false, and the gate must not punish honesty.
//!
//! For `BENCH_serve.json` (`linkclust-bench-serve/v1`): the header,
//! the graph block, exactly the six query kinds each with latency
//! quantiles and a non-zero count (counts summing to `queries`), the
//! cache block with a hit rate in [0, 1], and the admission block —
//! the mid-run recluster must have swapped the generation, and a full
//! (non-smoke) run must have issued ≥ 100 000 queries and observed
//! old-generation answers *while* the admission was in flight (the
//! no-stall evidence).

use linkclust_core::json::{parse, Json};

/// What a validated scale document contained, for the gate's log line.
#[derive(Debug)]
pub(crate) struct ScaleSummary {
    /// Number of rungs in the document.
    pub(crate) rungs: usize,
    /// Largest `edges` value across rungs.
    pub(crate) max_edges: u64,
    /// Whether the document was produced by a `--smoke` run.
    pub(crate) smoke: bool,
}

const FAMILIES: &[&str] = &["gnm", "barabasi_albert", "lfr_like"];

/// Validates `text` as a `linkclust-bench-scale/v2` document.
///
/// Returns a summary on success and a human-readable description of the
/// first structural problem otherwise.
pub(crate) fn check_scale_document(text: &str) -> Result<ScaleSummary, String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("linkclust-bench-scale/v2") => {}
        Some(other) => return Err(format!("unexpected schema tag {other:?}")),
        None => return Err("top-level object lacks a string `schema` tag".to_string()),
    }
    let smoke = doc.get("smoke").and_then(Json::as_bool).ok_or("`smoke` must be a boolean")?;
    let runs = doc.get("runs").and_then(Json::as_f64).ok_or("`runs` must be a number")?;
    if runs < 1.0 {
        return Err(format!("`runs` must be at least 1, got {runs}"));
    }
    let hardware = doc.get("hardware").ok_or("top-level object lacks a `hardware` object")?;
    let cores =
        hardware.get("cores").and_then(Json::as_f64).ok_or("`hardware.cores` must be a number")?;
    if cores < 1.0 {
        return Err(format!("`hardware.cores` must be at least 1, got {cores}"));
    }
    match hardware.get("cgroup_quota_cores") {
        Some(Json::Null) => {}
        Some(v) => {
            let q = v.as_f64().ok_or("`hardware.cgroup_quota_cores` must be a number or null")?;
            if q <= 0.0 {
                return Err(format!("`hardware.cgroup_quota_cores` must be positive, got {q}"));
            }
        }
        None => return Err("`hardware` lacks `cgroup_quota_cores` (number or null)".to_string()),
    }
    hardware
        .get("threads_exceed_cores")
        .and_then(Json::as_bool)
        .ok_or("`hardware.threads_exceed_cores` must be a boolean")?;
    // Presence check only — false is the honest value on a runner whose
    // thread grid exceeds its cores.
    doc.get("parallel_speedup_positive_at_largest_rung")
        .and_then(Json::as_bool)
        .ok_or("`parallel_speedup_positive_at_largest_rung` must be a boolean")?;

    let rungs = match doc.get("rungs") {
        Some(Json::Arr(rungs)) => rungs,
        Some(_) => return Err("`rungs` is not an array".to_string()),
        None => return Err("top-level object lacks a `rungs` array".to_string()),
    };
    if rungs.is_empty() {
        return Err("`rungs` is empty: the ladder measured nothing".to_string());
    }

    let mut max_edges = 0u64;
    for (i, rung) in rungs.iter().enumerate() {
        max_edges = max_edges.max(check_rung(rung).map_err(|e| format!("rung {i}: {e}"))?);
    }
    Ok(ScaleSummary { rungs: rungs.len(), max_edges, smoke })
}

/// Validates one rung object; returns its `edges` count.
fn check_rung(rung: &Json) -> Result<u64, String> {
    let family = rung.get("family").and_then(Json::as_str).ok_or("lacks a string `family`")?;
    if !FAMILIES.contains(&family) {
        return Err(format!("unknown generator family {family:?}"));
    }
    let num =
        |key: &str| rung.get(key).and_then(Json::as_f64).ok_or(format!("lacks a numeric `{key}`"));
    let tier = num("tier")?;
    let vertices = num("vertices")?;
    let edges = num("edges")?;
    num("csr_memory_bytes")?;
    num("peak_rss_bytes")?;
    num("bin_write_ms")?;
    num("bin_read_ms")?;
    if tier < 1.0 || vertices < 1.0 || edges < 1.0 {
        return Err(format!("implausible sizes (tier {tier}, vertices {vertices}, edges {edges})"));
    }

    for key in ["bin_roundtrip_ok", "csr_matches_adjacency"] {
        match rung.get(key).and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => return Err(format!("`{key}` is false: correctness failure")),
            None => return Err(format!("lacks a boolean `{key}`")),
        }
    }
    // Presence only — false is legitimate on core-starved runners.
    rung.get("parallel_speedup_positive")
        .and_then(Json::as_bool)
        .ok_or("lacks a boolean `parallel_speedup_positive`")?;

    let samples = match rung.get("threads") {
        Some(Json::Arr(samples)) if !samples.is_empty() => samples,
        Some(Json::Arr(_)) => return Err("`threads` is empty".to_string()),
        _ => return Err("lacks a `threads` array".to_string()),
    };
    for (j, s) in samples.iter().enumerate() {
        for key in ["threads", "min_ms", "mean_ms", "speedup"] {
            let v = s
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("thread sample {j} lacks a numeric `{key}`"))?;
            if v < 0.0 {
                return Err(format!("thread sample {j} has a negative `{key}`"));
            }
        }
        let phases = s.get("phases").ok_or(format!("thread sample {j} lacks a `phases` object"))?;
        for key in ["init_ms", "sort_ms", "sweep_ms"] {
            let v = phases
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("thread sample {j} lacks a numeric `phases.{key}`"))?;
            if v < 0.0 {
                return Err(format!("thread sample {j} has a negative `phases.{key}`"));
            }
        }
    }

    // NMI / pair-F1 are null except on planted-community rungs; when
    // present they are probabilities.
    for key in ["nmi", "pair_f1"] {
        match rung.get(key) {
            Some(Json::Null) | None => {}
            Some(v) => {
                let v = v.as_f64().ok_or(format!("`{key}` must be a number or null"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("`{key}` = {v} is outside [0, 1]"));
                }
            }
        }
    }
    Ok(edges as u64)
}

/// What a validated serve document contained, for the gate's log line.
#[derive(Debug)]
pub(crate) struct ServeSummary {
    /// Total queries the load run issued.
    pub(crate) queries: u64,
    /// Whether the document was produced by a `--smoke` run.
    pub(crate) smoke: bool,
    /// Server-side answer-cache hit rate.
    pub(crate) hit_rate: f64,
    /// Queries answered by the pre-swap generation during the in-flight
    /// admission.
    pub(crate) queries_during_admission: u64,
}

/// The query kinds a serve document must report, in order.
const SERVE_KINDS: &[&str] = &["cut", "edge", "vertex", "topk", "profile", "best"];

/// Queries a full (non-smoke) serve run must issue.
const SERVE_FULL_QUERIES: f64 = 100_000.0;

/// Validates `text` as a `linkclust-bench-serve/v1` document.
///
/// Returns a summary on success and a human-readable description of the
/// first structural problem otherwise.
pub(crate) fn check_serve_document(text: &str) -> Result<ServeSummary, String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("linkclust-bench-serve/v1") => {}
        Some(other) => return Err(format!("unexpected schema tag {other:?}")),
        None => return Err("top-level object lacks a string `schema` tag".to_string()),
    }
    let smoke = doc.get("smoke").and_then(Json::as_bool).ok_or("`smoke` must be a boolean")?;
    let queries = doc.get("queries").and_then(Json::as_f64).ok_or("`queries` must be a number")?;
    if queries < 1.0 {
        return Err(format!("`queries` must be at least 1, got {queries}"));
    }
    if !smoke && queries < SERVE_FULL_QUERIES {
        return Err(format!(
            "full serve run issued only {queries} queries (expected at least {SERVE_FULL_QUERIES})"
        ));
    }
    let graph = doc.get("graph").ok_or("top-level object lacks a `graph` object")?;
    for key in ["vertices", "edges"] {
        let v = graph
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("`graph.{key}` must be a number"))?;
        if v < 1.0 {
            return Err(format!("`graph.{key}` must be at least 1, got {v}"));
        }
    }

    let kinds = match doc.get("kinds") {
        Some(Json::Arr(kinds)) => kinds,
        Some(_) => return Err("`kinds` is not an array".to_string()),
        None => return Err("top-level object lacks a `kinds` array".to_string()),
    };
    if kinds.len() != SERVE_KINDS.len() {
        return Err(format!("expected {} query kinds, got {}", SERVE_KINDS.len(), kinds.len()));
    }
    let mut total_count = 0.0f64;
    for (expected, kind) in SERVE_KINDS.iter().zip(kinds) {
        let name = kind.get("kind").and_then(Json::as_str).ok_or("kind lacks a string `kind`")?;
        if name != *expected {
            return Err(format!("expected kind {expected:?}, got {name:?}"));
        }
        for key in ["count", "p50_ns", "p90_ns", "p99_ns", "mean_ns"] {
            let v = kind
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("kind {name:?} lacks a numeric `{key}`"))?;
            if v < 0.0 {
                return Err(format!("kind {name:?} has a negative `{key}`"));
            }
        }
        let count = kind.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        if count < 1.0 {
            return Err(format!("kind {name:?} was never queried: the mix is broken"));
        }
        total_count += count;
    }
    if (total_count - queries).abs() > 0.5 {
        return Err(format!(
            "per-kind counts sum to {total_count} but the document claims {queries} queries"
        ));
    }

    let cache = doc.get("cache").ok_or("top-level object lacks a `cache` object")?;
    for key in ["hits", "misses"] {
        let v = cache
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("`cache.{key}` must be a number"))?;
        if v < 0.0 {
            return Err(format!("`cache.{key}` must be non-negative, got {v}"));
        }
    }
    let hit_rate =
        cache.get("hit_rate").and_then(Json::as_f64).ok_or("`cache.hit_rate` must be a number")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("`cache.hit_rate` = {hit_rate} is outside [0, 1]"));
    }

    let admission = doc.get("admission").ok_or("top-level object lacks an `admission` object")?;
    let reclusters = admission
        .get("reclusters")
        .and_then(Json::as_f64)
        .ok_or("`admission.reclusters` must be a number")?;
    if reclusters < 1.0 {
        return Err("the load run enqueued no recluster: admission untested".to_string());
    }
    match admission.get("swap_completed").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => {
            return Err("`admission.swap_completed` is false: the swap never landed".to_string())
        }
        None => return Err("`admission.swap_completed` must be a boolean".to_string()),
    }
    let during = admission
        .get("queries_during_admission")
        .and_then(Json::as_f64)
        .ok_or("`admission.queries_during_admission` must be a number")?;
    if during < 0.0 {
        return Err(format!("`admission.queries_during_admission` is negative: {during}"));
    }
    if !smoke && during < 1.0 {
        return Err("full serve run saw no queries answered during the in-flight admission — \
             the recluster stalled serving"
            .to_string());
    }
    let before = admission
        .get("generation_before")
        .and_then(Json::as_f64)
        .ok_or("`admission.generation_before` must be a number")?;
    let after = admission
        .get("generation_after")
        .and_then(Json::as_f64)
        .ok_or("`admission.generation_after` must be a number")?;
    if after <= before {
        return Err(format!(
            "generation did not advance across the admission ({before} -> {after})"
        ));
    }

    Ok(ServeSummary {
        queries: queries as u64,
        smoke,
        hit_rate,
        queries_during_admission: during as u64,
    })
}

/// What a validated daemon stats document contained, for the gate's
/// log line.
#[derive(Debug)]
pub(crate) struct StatsSummary {
    /// Published index generation at shutdown.
    pub(crate) generation: u64,
    /// Seconds the daemon was up.
    pub(crate) uptime_seconds: f64,
    /// Runtime-gauge sampler ticks recorded.
    pub(crate) ticks: u64,
}

/// Runtime gauge rings every `linkclust-serve-stats/v2` document must
/// report (mirrors `linkclust-serve`'s `RING_NAMES`).
const STATS_GAUGES: &[&str] = &[
    "rss_current_bytes",
    "rss_peak_bytes",
    "cache_entries",
    "cache_hit_ratio",
    "pool_queue_depth",
    "index_generation",
];

/// Validates `text` as a `linkclust-serve-stats/v2` document — the
/// stats block `linkclustd` prints at shutdown (and serves for the
/// `stats` op). Checks the v2 additions explicitly: `uptime_seconds`,
/// `admit_failures`, `trace_events_dropped`, and the `runtime` block
/// with every gauge ring.
pub(crate) fn check_serve_stats_document(text: &str) -> Result<StatsSummary, String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("linkclust-serve-stats/v2") => {}
        Some(other) => return Err(format!("unexpected schema tag {other:?}")),
        None => return Err("top-level object lacks a string `schema` tag".to_string()),
    }
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err("`ok` must be true".to_string());
    }
    let generation = doc
        .get("generation")
        .and_then(Json::as_index)
        .ok_or("`generation` must be a non-negative integer")?;
    if generation < 1 {
        return Err("`generation` must be at least 1: the daemon serves an index".to_string());
    }
    let uptime = doc
        .get("uptime_seconds")
        .and_then(Json::as_f64)
        .ok_or("`uptime_seconds` must be a number (v2 addition)")?;
    if uptime < 0.0 {
        return Err(format!("`uptime_seconds` is negative: {uptime}"));
    }

    let queries = doc.get("queries").ok_or("top-level object lacks a `queries` object")?;
    for kind in SERVE_KINDS {
        let entry = queries.get(kind).ok_or(format!("`queries` lacks kind {kind:?}"))?;
        for key in ["count", "p50_ns", "p90_ns", "p99_ns"] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("kind {kind:?} lacks a numeric `{key}`"))?;
            if v < 0.0 {
                return Err(format!("kind {kind:?} has a negative `{key}`"));
            }
        }
        // A never-queried kind has no mean (NaN renders as null).
        match entry.get("mean_ns") {
            Some(Json::Null | Json::Num(_)) => {}
            _ => return Err(format!("kind {kind:?} lacks `mean_ns` (number or null)")),
        }
    }

    let cache = doc.get("cache").ok_or("top-level object lacks a `cache` object")?;
    let hit_rate =
        cache.get("hit_rate").and_then(Json::as_f64).ok_or("`cache.hit_rate` must be a number")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("`cache.hit_rate` = {hit_rate} is outside [0, 1]"));
    }
    for key in ["admissions", "admit_failures", "swaps", "trace_events_dropped"] {
        doc.get(key)
            .and_then(Json::as_index)
            .ok_or(format!("`{key}` must be a non-negative integer"))?;
    }

    let phases = doc.get("phases").ok_or("top-level object lacks a `phases` object")?;
    for phase in ["serve_query", "serve_admit", "serve_swap"] {
        let entry = phases.get(phase).ok_or(format!("`phases` lacks {phase:?}"))?;
        for key in ["nanos", "calls"] {
            entry
                .get(key)
                .and_then(Json::as_index)
                .ok_or(format!("phase {phase:?} lacks a non-negative integer `{key}`"))?;
        }
    }

    let runtime = doc.get("runtime").ok_or("top-level object lacks a `runtime` object")?;
    let ticks = runtime
        .get("ticks")
        .and_then(Json::as_index)
        .ok_or("`runtime.ticks` must be a non-negative integer")?;
    if ticks < 1 {
        return Err("`runtime.ticks` is 0: the gauge sampler never ran".to_string());
    }
    let gauges = runtime.get("gauges").ok_or("`runtime` lacks a `gauges` object")?;
    for name in STATS_GAUGES {
        let ring = gauges.get(name).ok_or(format!("`runtime.gauges` lacks {name:?}"))?;
        // latest / window_min / window_max are null until a sample with
        // a readable value lands (e.g. RSS on non-Linux hosts).
        for key in ["latest", "window_min", "window_max"] {
            match ring.get(key) {
                Some(Json::Null | Json::Num(_)) => {}
                _ => return Err(format!("gauge {name:?} lacks `{key}` (number or null)")),
            }
        }
        let samples = ring
            .get("samples")
            .and_then(Json::as_index)
            .ok_or(format!("gauge {name:?} lacks a non-negative integer `samples`"))?;
        if samples < 1 {
            return Err(format!("gauge {name:?} holds no samples"));
        }
    }

    Ok(StatsSummary { generation, uptime_seconds: uptime, ticks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(family: &str, edges: u64, ok: bool) -> String {
        format!(
            "{{\"family\":\"{family}\",\"tier\":1000,\"vertices\":200,\"edges\":{edges},\
              \"csr_memory_bytes\":48804,\"peak_rss_bytes\":8294400,\
              \"bin_write_ms\":0.03,\"bin_read_ms\":0.05,\"bin_roundtrip_ok\":true,\
              \"csr_matches_adjacency\":{ok},\
              \"parallel_speedup_positive\":false,\
              \"threads\":[{{\"threads\":1,\"min_ms\":2.2,\"mean_ms\":2.4,\"speedup\":1.0,\
              \"phases\":{{\"init_ms\":1.1,\"sort_ms\":0.2,\"sweep_ms\":0.9}}}}],\
              \"nmi\":null,\"pair_f1\":null}}"
        )
    }

    fn doc(rungs: &[String]) -> String {
        format!(
            "{{\"schema\":\"linkclust-bench-scale/v2\",\"smoke\":true,\"runs\":2,\
              \"hardware\":{{\"cores\":1,\"cgroup_quota_cores\":null,\
              \"threads_exceed_cores\":true}},\
              \"parallel_speedup_positive_at_largest_rung\":false,\
              \"ba_edge_cap\":100000,\"rungs\":[{}]}}",
            rungs.join(",")
        )
    }

    #[test]
    fn accepts_a_well_formed_document() {
        let text = doc(&[rung("gnm", 1000, true), rung("lfr_like", 1_000_000, true)]);
        let summary = check_scale_document(&text).expect("document should validate");
        assert_eq!(summary.rungs, 2);
        assert_eq!(summary.max_edges, 1_000_000);
        assert!(summary.smoke);
    }

    #[test]
    fn rejects_structural_and_correctness_problems() {
        assert!(check_scale_document("{").is_err());
        assert!(check_scale_document("{\"schema\":\"other/v9\"}").is_err());
        let empty = doc(&[]);
        assert!(check_scale_document(&empty).unwrap_err().contains("empty"));
        let failed = doc(&[rung("gnm", 1000, false)]);
        assert!(check_scale_document(&failed).unwrap_err().contains("correctness"));
        let bad_family = doc(&[rung("erdos", 1000, true)]);
        assert!(check_scale_document(&bad_family).unwrap_err().contains("family"));
        let no_threads = rung("gnm", 1000, true).replace(
            "\"threads\":[{\"threads\":1,\"min_ms\":2.2,\"mean_ms\":2.4,\"speedup\":1.0,\
             \"phases\":{\"init_ms\":1.1,\"sort_ms\":0.2,\"sweep_ms\":0.9}}]",
            "\"threads\":[]",
        );
        assert!(check_scale_document(&doc(&[no_threads])).unwrap_err().contains("empty"));
        let bad_nmi = rung("gnm", 1000, true).replace("\"nmi\":null", "\"nmi\":1.5");
        assert!(check_scale_document(&doc(&[bad_nmi])).unwrap_err().contains("outside"));
    }

    /// A serve document that validates; tests below mutate it.
    fn serve_doc() -> String {
        let kinds: Vec<String> = SERVE_KINDS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let count = if i == 0 { 99_500 } else { 100 };
                format!(
                    "{{\"kind\":\"{name}\",\"count\":{count},\"p50_ns\":9000,\
                      \"p90_ns\":21000,\"p99_ns\":45000,\"mean_ns\":14000.5}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"linkclust-bench-serve/v1\",\"smoke\":false,\"queries\":100000,\
              \"graph\":{{\"vertices\":500,\"edges\":2000}},\
              \"kinds\":[{}],\
              \"cache\":{{\"hits\":60000,\"misses\":40000,\"hit_rate\":0.6}},\
              \"admission\":{{\"reclusters\":1,\"swap_completed\":true,\
              \"queries_during_admission\":37,\
              \"generation_before\":1,\"generation_after\":2}}}}",
            kinds.join(",")
        )
    }

    #[test]
    fn accepts_a_well_formed_serve_document() {
        let summary = check_serve_document(&serve_doc()).expect("document should validate");
        assert_eq!(summary.queries, 100_000);
        assert!(!summary.smoke);
        assert!((summary.hit_rate - 0.6).abs() < 1e-9);
        assert_eq!(summary.queries_during_admission, 37);
    }

    #[test]
    fn rejects_omissions() {
        // Every load-bearing field of the serve schema must be present:
        // deleting any one of them turns the document invalid.
        let base = serve_doc();
        let cases: &[(&str, &str, &str)] = &[
            ("\"schema\":\"linkclust-bench-serve/v1\",", "", "schema"),
            ("\"smoke\":false,", "", "smoke"),
            ("\"queries\":100000,", "", "queries"),
            ("\"graph\":{\"vertices\":500,\"edges\":2000},", "", "graph"),
            ("\"cache\":{\"hits\":60000,\"misses\":40000,\"hit_rate\":0.6},", "", "cache"),
            ("\"hit_rate\":0.6", "\"hit_rate\":1.6", "outside"),
            ("\"reclusters\":1", "\"reclusters\":0", "recluster"),
            ("\"swap_completed\":true", "\"swap_completed\":false", "swap"),
            ("\"queries_during_admission\":37", "\"queries_during_admission\":0", "stalled"),
            ("\"generation_after\":2", "\"generation_after\":1", "generation"),
            ("\"p99_ns\":45000,", "", "p99_ns"),
        ];
        for (from, to, expect) in cases {
            let mutated = base.replace(from, to);
            assert_ne!(mutated, base, "mutation {from:?} did not apply");
            let err = check_serve_document(&mutated)
                .expect_err(&format!("mutation {from:?} should invalidate the document"));
            assert!(err.contains(expect), "mutation {from:?}: error {err:?} lacks {expect:?}");
        }
        // Dropping a whole kind breaks both the arity and the count sum.
        let one_kind_short =
            base.replace(",{\"kind\":\"best\",\"count\":100,\"p50_ns\":9000,\"p90_ns\":21000,\"p99_ns\":45000,\"mean_ns\":14000.5}", "");
        assert_ne!(one_kind_short, base);
        assert!(check_serve_document(&one_kind_short).unwrap_err().contains("kinds"));
    }

    #[test]
    fn serve_smoke_relaxations_are_scoped() {
        // A smoke run may be short and may miss the during-admission
        // window, but the swap must still land.
        let smoke = serve_doc()
            .replace("\"smoke\":false", "\"smoke\":true")
            .replace("\"queries\":100000", "\"queries\":2000")
            .replace("\"count\":99500", "\"count\":1500")
            .replace("\"queries_during_admission\":37", "\"queries_during_admission\":0");
        assert!(check_serve_document(&smoke).is_ok());
        // A full run below 100k queries is rejected even if well-formed.
        let short_full = serve_doc().replace("\"queries\":100000", "\"queries\":5000");
        // Patch the counts so only the volume check can fire.
        let short_full = short_full.replace("\"count\":99500", "\"count\":4500");
        assert!(check_serve_document(&short_full).unwrap_err().contains("100000"));
    }

    /// A daemon stats document (`linkclust-serve-stats/v2`) that
    /// validates; tests below mutate it.
    fn stats_doc() -> String {
        let kinds: Vec<String> = SERVE_KINDS
            .iter()
            .map(|name| {
                format!(
                    "\"{name}\":{{\"count\":12,\"p50_ns\":9000,\"p90_ns\":21000,\
                      \"p99_ns\":45000,\"mean_ns\":14000.5}}"
                )
            })
            .collect();
        let gauges: Vec<String> = STATS_GAUGES
            .iter()
            .map(|name| {
                format!(
                    "\"{name}\":{{\"latest\":4.0,\"window_min\":1.0,\
                      \"window_max\":9.0,\"samples\":3}}"
                )
            })
            .collect();
        format!(
            "{{\"ok\":true,\"schema\":\"linkclust-serve-stats/v2\",\"generation\":2,\
              \"uptime_seconds\":12.5,\"queries\":{{{}}},\
              \"cache\":{{\"hits\":40,\"misses\":32,\"hit_rate\":0.55}},\
              \"admissions\":1,\"admit_failures\":0,\"swaps\":1,\
              \"trace_events_dropped\":0,\
              \"phases\":{{\"serve_query\":{{\"nanos\":100,\"calls\":72}},\
              \"serve_admit\":{{\"nanos\":50,\"calls\":1}},\
              \"serve_swap\":{{\"nanos\":20,\"calls\":1}}}},\
              \"runtime\":{{\"ticks\":3,\"gauges\":{{{}}}}}}}",
            kinds.join(","),
            gauges.join(",")
        )
    }

    #[test]
    fn accepts_a_well_formed_stats_document() {
        let summary = check_serve_stats_document(&stats_doc()).expect("document should validate");
        assert_eq!(summary.generation, 2);
        assert_eq!(summary.ticks, 3);
        assert!((summary.uptime_seconds - 12.5).abs() < 1e-9);
        // Pre-first-readable-sample gauges report null; still valid.
        let nulls = stats_doc().replace("\"latest\":4.0", "\"latest\":null");
        assert!(check_serve_stats_document(&nulls).is_ok());
        // A never-queried kind has a null mean; still valid.
        let no_mean = stats_doc().replace("\"mean_ns\":14000.5", "\"mean_ns\":null");
        assert!(check_serve_stats_document(&no_mean).is_ok());
    }

    #[test]
    fn rejects_stats_omissions() {
        // An old v1 document is rejected by its schema tag alone.
        assert!(check_serve_stats_document(
            "{\"ok\":true,\"schema\":\"linkclust-serve-stats/v1\"}"
        )
        .unwrap_err()
        .contains("schema"));
        let base = stats_doc();
        let cases: &[(&str, &str, &str)] = &[
            ("\"ok\":true,", "\"ok\":false,", "ok"),
            ("\"uptime_seconds\":12.5,", "", "uptime_seconds"),
            ("\"admit_failures\":0,", "", "admit_failures"),
            ("\"trace_events_dropped\":0,", "", "trace_events_dropped"),
            ("\"hit_rate\":0.55", "\"hit_rate\":2.0", "outside"),
            ("\"ticks\":3", "\"ticks\":0", "sampler never ran"),
            (
                "\"pool_queue_depth\":{\"latest\":4.0,\"window_min\":1.0,\
                 \"window_max\":9.0,\"samples\":3},",
                "",
                "pool_queue_depth",
            ),
            ("\"samples\":3}}}}", "\"samples\":0}}}}", "no samples"),
            ("\"serve_swap\":{\"nanos\":20,\"calls\":1}", "\"serve_swap\":{\"nanos\":20}", "calls"),
            (
                "\"best\":{\"count\":12,\"p50_ns\":9000,\"p90_ns\":21000,\
                 \"p99_ns\":45000,\"mean_ns\":14000.5}",
                "\"best\":{\"count\":12}",
                "p50_ns",
            ),
        ];
        for (from, to, expect) in cases {
            let mutated = base.replace(from, to);
            assert_ne!(mutated, base, "mutation {from:?} did not apply");
            let err = check_serve_stats_document(&mutated)
                .expect_err(&format!("mutation {from:?} should invalidate the document"));
            assert!(err.contains(expect), "mutation {from:?}: error {err:?} lacks {expect:?}");
        }
    }

    #[test]
    fn rejects_v2_specific_omissions() {
        // An old v1 document must be rejected by its schema tag alone.
        assert!(check_scale_document("{\"schema\":\"linkclust-bench-scale/v1\"}")
            .unwrap_err()
            .contains("schema"));
        let no_flag = doc(&[rung("gnm", 1000, true)])
            .replace("\"parallel_speedup_positive_at_largest_rung\":false,", "");
        assert!(check_scale_document(&no_flag)
            .unwrap_err()
            .contains("parallel_speedup_positive_at_largest_rung"));
        let no_quota = doc(&[rung("gnm", 1000, true)]).replace("\"cgroup_quota_cores\":null,", "");
        assert!(check_scale_document(&no_quota).unwrap_err().contains("cgroup_quota_cores"));
        let no_exceed =
            doc(&[rung("gnm", 1000, true)]).replace(",\"threads_exceed_cores\":true", "");
        assert!(check_scale_document(&no_exceed).unwrap_err().contains("threads_exceed_cores"));
        let no_rung_flag =
            doc(&[rung("gnm", 1000, true).replace("\"parallel_speedup_positive\":false,", "")]);
        assert!(check_scale_document(&no_rung_flag)
            .unwrap_err()
            .contains("parallel_speedup_positive"));
        let no_phases = doc(&[rung("gnm", 1000, true)
            .replace(",\"phases\":{\"init_ms\":1.1,\"sort_ms\":0.2,\"sweep_ms\":0.9}", "")]);
        assert!(check_scale_document(&no_phases).unwrap_err().contains("phases"));
        // A quota-limited runner reporting cgroup_quota_cores as a
        // number and every speedup flag false still validates: honesty
        // is not a gate failure.
        let quota = doc(&[rung("gnm", 1000, true)])
            .replace("\"cgroup_quota_cores\":null", "\"cgroup_quota_cores\":0.5");
        assert!(check_scale_document(&quota).is_ok());
    }
}

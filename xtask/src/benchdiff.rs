//! Noise-aware comparison of two same-schema benchmark artifacts
//! (`cargo xtask bench-diff OLD NEW`).
//!
//! Reads two `BENCH_*.json` documents, extracts the comparable metrics
//! for their (shared) schema, and flags regressions with two guards
//! against benchmark noise: a *relative* threshold (default: new must
//! exceed old by more than 25%) and an *absolute* floor per metric
//! family (sub-floor deltas never count, however large the ratio — a
//! 0.1 ms rung that doubles is still noise). Verdicts are written as a
//! machine-readable `linkclust-bench-diff/v1` document and the command
//! exits non-zero when any metric regressed, so CI can run it as an
//! advisory job over artifacts from the base and head commits.
//!
//! Supported artifact schemas:
//!
//! * `linkclust-bench-scale/v2` — per rung (family, tier) and thread
//!   count: `min_ms` (the noise-resistant best-of-N).
//! * `linkclust-bench-serve/v1` — per query kind: `p50_ns` and
//!   `p99_ns`; the answer-cache hit rate regresses on an absolute drop
//!   of more than 0.10.

use std::path::Path;

use linkclust_core::json::{self, parse, Json};

/// Relative slowdown required before a latency metric counts as a
/// regression (new > old × this).
const DEFAULT_THRESHOLD: f64 = 1.25;

/// Absolute floor for `min_ms` metrics: deltas below this many
/// milliseconds are noise regardless of ratio.
const FLOOR_MS: f64 = 0.5;

/// Absolute floor for `*_ns` metrics: deltas below this many
/// nanoseconds are noise regardless of ratio (scheduler jitter alone
/// exceeds this on a loaded runner).
const FLOOR_NS: f64 = 10_000.0;

/// Absolute drop in the answer-cache hit rate that counts as a
/// regression.
const HIT_RATE_DROP: f64 = 0.10;

/// One compared metric.
#[derive(Debug)]
struct MetricDiff {
    /// Stable metric path, e.g. `gnm/tier1000/t4/min_ms`.
    name: String,
    old: f64,
    new: f64,
    /// Whether this metric regressed under the noise guards.
    regressed: bool,
}

/// The outcome of one artifact comparison.
#[derive(Debug)]
pub(crate) struct DiffReport {
    /// The shared artifact schema tag.
    artifact_schema: String,
    /// The relative threshold the comparison ran with.
    threshold: f64,
    metrics: Vec<MetricDiff>,
}

impl DiffReport {
    /// Metrics that regressed.
    fn regressions(&self) -> impl Iterator<Item = &MetricDiff> {
        self.metrics.iter().filter(|m| m.regressed)
    }

    /// Renders the verdict document (`linkclust-bench-diff/v1`).
    fn to_json(&self) -> String {
        let count = self.regressions().count();
        let mut out = String::from("{\"schema\":\"linkclust-bench-diff/v1\",\"artifact_schema\":");
        json::write_escaped(&mut out, &self.artifact_schema);
        out.push_str(",\"threshold\":");
        json::write_f64(&mut out, self.threshold);
        out.push_str(",\"regressions\":");
        out.push_str(&count.to_string());
        out.push_str(",\"ok\":");
        out.push_str(if count == 0 { "true" } else { "false" });
        out.push_str(",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_escaped(&mut out, &m.name);
            out.push_str(",\"old\":");
            json::write_f64(&mut out, m.old);
            out.push_str(",\"new\":");
            json::write_f64(&mut out, m.new);
            out.push_str(",\"ratio\":");
            json::write_f64(&mut out, if m.old > 0.0 { m.new / m.old } else { f64::NAN });
            out.push_str(",\"regressed\":");
            out.push_str(if m.regressed { "true" } else { "false" });
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

/// `new` regressed over `old` for a higher-is-worse latency metric.
fn latency_regressed(old: f64, new: f64, threshold: f64, floor: f64) -> bool {
    new > old * threshold && (new - old) > floor
}

/// Compares two artifact documents (must share a supported schema).
pub(crate) fn compare(
    old_text: &str,
    new_text: &str,
    threshold: f64,
) -> Result<DiffReport, String> {
    let old = parse(old_text).map_err(|e| format!("OLD: {e}"))?;
    let new = parse(new_text).map_err(|e| format!("NEW: {e}"))?;
    let old_schema = old
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("OLD lacks a string `schema` tag")?
        .to_owned();
    let new_schema =
        new.get("schema").and_then(Json::as_str).ok_or("NEW lacks a string `schema` tag")?;
    if old_schema != new_schema {
        return Err(format!("schema mismatch: OLD is {old_schema:?}, NEW is {new_schema:?}"));
    }
    let metrics = match old_schema.as_str() {
        "linkclust-bench-scale/v2" => compare_scale(&old, &new, threshold)?,
        "linkclust-bench-serve/v1" => compare_serve(&old, &new, threshold)?,
        other => return Err(format!("unsupported artifact schema {other:?}")),
    };
    if metrics.is_empty() {
        return Err("the artifacts share no comparable metrics".to_owned());
    }
    Ok(DiffReport { artifact_schema: old_schema, threshold, metrics })
}

/// Iterates an array-valued field, or empty for anything else.
fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// Scale-ladder metrics: per (family, tier, threads), `min_ms`.
fn compare_scale(old: &Json, new: &Json, threshold: f64) -> Result<Vec<MetricDiff>, String> {
    let rung_key = |r: &Json| -> Option<(String, u64)> {
        Some((
            r.get("family").and_then(Json::as_str)?.to_owned(),
            r.get("tier").and_then(Json::as_index)?,
        ))
    };
    let mut metrics = Vec::new();
    for old_rung in arr(old, "rungs") {
        let Some(key) = rung_key(old_rung) else {
            return Err("OLD has a rung without family/tier".to_owned());
        };
        let Some(new_rung) = arr(new, "rungs").iter().find(|r| rung_key(r).as_ref() == Some(&key))
        else {
            continue; // rung only in OLD: nothing to compare
        };
        for old_sample in arr(old_rung, "threads") {
            let Some(threads) = old_sample.get("threads").and_then(Json::as_index) else {
                continue;
            };
            let new_sample = arr(new_rung, "threads")
                .iter()
                .find(|s| s.get("threads").and_then(Json::as_index) == Some(threads));
            let (Some(old_min), Some(new_min)) = (
                old_sample.get("min_ms").and_then(Json::as_f64),
                new_sample.and_then(|s| s.get("min_ms")).and_then(Json::as_f64),
            ) else {
                continue;
            };
            metrics.push(MetricDiff {
                name: format!("{}/tier{}/t{threads}/min_ms", key.0, key.1),
                old: old_min,
                new: new_min,
                regressed: latency_regressed(old_min, new_min, threshold, FLOOR_MS),
            });
        }
    }
    Ok(metrics)
}

/// Serve-load metrics: per kind `p50_ns`/`p99_ns`, plus the cache hit
/// rate (absolute-drop rule).
fn compare_serve(old: &Json, new: &Json, threshold: f64) -> Result<Vec<MetricDiff>, String> {
    let mut metrics = Vec::new();
    for old_kind in arr(old, "kinds") {
        let Some(name) = old_kind.get("kind").and_then(Json::as_str) else {
            return Err("OLD has a kind without a name".to_owned());
        };
        let Some(new_kind) =
            arr(new, "kinds").iter().find(|k| k.get("kind").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        for quantile in ["p50_ns", "p99_ns"] {
            let (Some(old_q), Some(new_q)) = (
                old_kind.get(quantile).and_then(Json::as_f64),
                new_kind.get(quantile).and_then(Json::as_f64),
            ) else {
                continue;
            };
            metrics.push(MetricDiff {
                name: format!("{name}/{quantile}"),
                old: old_q,
                new: new_q,
                regressed: latency_regressed(old_q, new_q, threshold, FLOOR_NS),
            });
        }
    }
    if let (Some(old_rate), Some(new_rate)) = (
        old.get("cache").and_then(|c| c.get("hit_rate")).and_then(Json::as_f64),
        new.get("cache").and_then(|c| c.get("hit_rate")).and_then(Json::as_f64),
    ) {
        metrics.push(MetricDiff {
            name: "cache/hit_rate".to_owned(),
            old: old_rate,
            new: new_rate,
            regressed: (old_rate - new_rate) > HIT_RATE_DROP,
        });
    }
    Ok(metrics)
}

/// Entry point for `cargo xtask bench-diff OLD NEW [--threshold X]
/// [--out PATH]`. Prints a per-metric summary, writes the verdict
/// document, and fails when any metric regressed.
pub(crate) fn run(root: &Path, args: &[&str]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut out_path = root.join("target").join("bench-diff").join("verdict.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t > 1.0)
                    .ok_or("--threshold needs a finite ratio above 1.0")?;
            }
            "--out" => {
                out_path = it.next().map(std::path::PathBuf::from).ok_or("--out needs a path")?;
            }
            p => paths.push(p),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err("usage: cargo xtask bench-diff OLD.json NEW.json [--threshold X] [--out PATH]"
            .to_owned());
    };
    let old_text = std::fs::read_to_string(old_path)
        .map_err(|e| format!("cannot read OLD {old_path}: {e}"))?;
    let new_text = std::fs::read_to_string(new_path)
        .map_err(|e| format!("cannot read NEW {new_path}: {e}"))?;
    let report = compare(&old_text, &new_text, threshold)?;

    for m in &report.metrics {
        let ratio = if m.old > 0.0 { m.new / m.old } else { f64::NAN };
        eprintln!(
            "  {} {:<32} old {:>14.3}  new {:>14.3}  ({ratio:.2}x)",
            if m.regressed { "REGR" } else { " ok " },
            m.name,
            m.old,
            m.new,
        );
    }
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    let regressions: Vec<&MetricDiff> = report.regressions().collect();
    eprintln!(
        "bench-diff: {} metrics compared, {} regressed (threshold {threshold}x), verdict in {}",
        report.metrics.len(),
        regressions.len(),
        out_path.display()
    );
    if regressions.is_empty() {
        Ok(())
    } else {
        let names: Vec<&str> = regressions.iter().map(|m| m.name.as_str()).collect();
        Err(format!("{} metrics regressed: {}", names.len(), names.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal scale document with one gnm rung at two thread counts.
    fn scale_doc(min_1t_ms: f64, min_4t_ms: f64) -> String {
        format!(
            "{{\"schema\":\"linkclust-bench-scale/v2\",\"smoke\":true,\"runs\":3,\
              \"rungs\":[{{\"family\":\"gnm\",\"tier\":1000,\
              \"threads\":[\
              {{\"threads\":1,\"min_ms\":{min_1t_ms},\"mean_ms\":{min_1t_ms}}},\
              {{\"threads\":4,\"min_ms\":{min_4t_ms},\"mean_ms\":{min_4t_ms}}}]}}]}}"
        )
    }

    fn serve_doc(p99_cut_ns: f64, hit_rate: f64) -> String {
        format!(
            "{{\"schema\":\"linkclust-bench-serve/v1\",\
              \"kinds\":[{{\"kind\":\"cut\",\"p50_ns\":9000,\"p99_ns\":{p99_cut_ns}}},\
              {{\"kind\":\"edge\",\"p50_ns\":4000,\"p99_ns\":20000}}],\
              \"cache\":{{\"hits\":1,\"misses\":1,\"hit_rate\":{hit_rate}}}}}"
        )
    }

    #[test]
    fn identical_artifacts_pass() {
        let doc = scale_doc(10.0, 4.0);
        let report = compare(&doc, &doc, DEFAULT_THRESHOLD).expect("comparable");
        assert_eq!(report.regressions().count(), 0);
        assert_eq!(report.metrics.len(), 2);
        assert!(report.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn a_seeded_2x_slowdown_fails() {
        let old = scale_doc(10.0, 4.0);
        let new = scale_doc(20.0, 4.1);
        let report = compare(&old, &new, DEFAULT_THRESHOLD).expect("comparable");
        let regressed: Vec<&str> = report.regressions().map(|m| m.name.as_str()).collect();
        assert_eq!(regressed, vec!["gnm/tier1000/t1/min_ms"], "only the doubled rung regresses");
        assert!(report.to_json().contains("\"ok\":false"));
    }

    #[test]
    fn sub_floor_deltas_are_noise_even_at_large_ratios() {
        // 0.1 ms -> 0.3 ms is 3x but under the 0.5 ms floor: noise.
        let old = scale_doc(0.1, 4.0);
        let new = scale_doc(0.3, 4.0);
        let report = compare(&old, &new, DEFAULT_THRESHOLD).expect("comparable");
        assert_eq!(report.regressions().count(), 0);
    }

    #[test]
    fn serve_quantiles_and_hit_rate_are_compared() {
        let old = serve_doc(45_000.0, 0.6);
        let same = compare(&old, &old, DEFAULT_THRESHOLD).expect("comparable");
        assert_eq!(same.regressions().count(), 0);
        assert_eq!(same.metrics.len(), 5, "2 kinds x 2 quantiles + hit rate");

        let slow = compare(&old, &serve_doc(120_000.0, 0.6), DEFAULT_THRESHOLD).expect("ok");
        let regressed: Vec<&str> = slow.regressions().map(|m| m.name.as_str()).collect();
        assert_eq!(regressed, vec!["cut/p99_ns"]);

        let cold = compare(&old, &serve_doc(45_000.0, 0.4), DEFAULT_THRESHOLD).expect("ok");
        let regressed: Vec<&str> = cold.regressions().map(|m| m.name.as_str()).collect();
        assert_eq!(regressed, vec!["cache/hit_rate"]);
    }

    #[test]
    fn mismatched_or_unknown_schemas_are_rejected() {
        let scale = scale_doc(10.0, 4.0);
        let serve = serve_doc(45_000.0, 0.6);
        assert!(compare(&scale, &serve, DEFAULT_THRESHOLD).unwrap_err().contains("mismatch"));
        let unknown = "{\"schema\":\"linkclust-bench-other/v1\"}";
        assert!(compare(unknown, unknown, DEFAULT_THRESHOLD).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn threshold_is_respected() {
        let old = scale_doc(10.0, 4.0);
        let new = scale_doc(13.0, 4.0); // 1.3x
        assert_eq!(compare(&old, &new, 1.25).expect("ok").regressions().count(), 1);
        assert_eq!(compare(&old, &new, 1.5).expect("ok").regressions().count(), 0);
    }
}

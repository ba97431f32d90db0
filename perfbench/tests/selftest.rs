//! The benchmark's self-test: every workload at the tiny size, through
//! the same binary and code path as a full run.
//!
//! The serve phase needs a `linkclustd`; the test builds one from the
//! repository into its own target directory on first use.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use linkclust::serve::json::{self, Json};

const WORKLOADS: [&str; 3] = ["cluster-sparse", "cluster-dense", "serve-mixed"];

/// The target directory this test binary was built into.
fn target_dir() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    exe.parent().and_then(Path::parent).expect("binary sits in <target>/<profile>/").to_path_buf()
}

fn daemon() -> &'static Path {
    static DAEMON: OnceLock<PathBuf> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let target = target_dir().join("selftest-daemon");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--offline", "--quiet", "-p", "linkclust", "--bin", "linkclustd"])
            .arg("--manifest-path")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building linkclustd failed");
        target.join("debug").join("linkclustd")
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = doc.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    metrics
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One tiny run; returns the parsed result line.
fn run(test: &str, workload: &str, trace: bool, extra: &[&str]) -> Json {
    let work = target_dir().join("selftest-work").join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--daemon")
        .arg(daemon())
        .arg("--work")
        .arg(&work)
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or("");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_index).unwrap_or_else(|| panic!("result lacks {key}"))
}

/// Checks that `result` carries exactly the declared metrics, each with
/// its unit and a finite value.
fn assert_metrics(result: &Json, declared: &[(String, String)], what: &str) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, names, "{what}: printed metrics differ from BENCHMARK.json");
    for (name, unit) in declared {
        let m = result.get("metrics").and_then(|ms| ms.get(name)).expect("present");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
        let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_metric_cleanly() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let what = format!("{workload} trace={trace}");
            let result = run("clean", workload, trace, &[]);
            assert_metrics(&result, if trace { &per_layer } else { &end_to_end }, &what);
            assert!(count(&result, "attempted") >= 1, "{what}");
            assert_eq!(count(&result, "failed"), 0, "{what}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{what}");
            if !trace {
                let metrics = result.get("metrics").expect("metrics");
                for (name, _) in &end_to_end {
                    let v = metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
                    assert!(v.is_some_and(|v| v > 0.0), "{what}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}

#[test]
fn a_wrong_fingerprint_is_counted_as_failed() {
    for trace in [false, true] {
        let result = run("fingerprint", "cluster-sparse", trace, &["--fault", "fingerprint"]);
        assert!(count(&result, "failed") > 0, "trace={trace}");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn a_wrong_answer_is_counted_as_failed() {
    let result = run("answer", "serve-mixed", false, &["--fault", "answer"]);
    assert!(count(&result, "failed") > 0);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
}

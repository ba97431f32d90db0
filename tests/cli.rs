//! Integration tests for the `linkclust` CLI binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

const EDGES: &str = "\
0 1 1.0
0 2 1.0
1 2 1.0
3 4 1.0
3 5 1.0
4 5 1.0
2 3 0.05
";

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_linkclust"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary exists");
    // Ignore EPIPE: processes rejecting their arguments exit without
    // reading stdin.
    let _ = child.stdin.as_mut().expect("stdin piped").write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("process runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn communities_output() {
    let (stdout, stderr, ok) = run_cli(&["-"], EDGES);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("graph: 6 vertices, 7 edges"), "stderr: {stderr}");
    assert!(stdout.contains("link communities"), "stdout: {stdout}");
    assert!(stdout.contains("community 0: 3 edges"), "stdout: {stdout}");
    assert!(stdout.contains("overlap vertices"), "stdout: {stdout}");
}

#[test]
fn newick_output() {
    let (stdout, _, ok) = run_cli(&["-", "--output", "newick"], EDGES);
    assert!(ok);
    let line = stdout.trim();
    assert!(line.ends_with(';'));
    assert!(line.contains("e0"));
}

#[test]
fn labels_output_final_cut() {
    let (stdout, _, ok) = run_cli(&["-", "--output", "labels", "--cut", "final"], EDGES);
    assert!(ok);
    let lines: Vec<&str> = stdout.trim().lines().collect();
    assert_eq!(lines.len(), 7, "one label per edge: {stdout}");
    for (i, l) in lines.iter().enumerate() {
        assert!(l.starts_with(&format!("{i} ")), "line {l}");
    }
}

#[test]
fn csv_output() {
    let (stdout, _, ok) = run_cli(&["-", "--output", "csv"], EDGES);
    assert!(ok);
    assert!(stdout.starts_with("level,left,right,into\n"));
}

#[test]
fn coarse_and_threads_flags() {
    let (stdout, stderr, ok) = run_cli(&["-", "--coarse", "--phi", "2", "--threads", "2"], EDGES);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("link communities"));
}

#[test]
fn threshold_flag_limits_merging() {
    let (stdout, _, ok) =
        run_cli(&["-", "--threshold", "0.99", "--cut", "final", "--output", "labels"], EDGES);
    assert!(ok);
    // At threshold 0.99 almost nothing merges; most labels distinct.
    let labels: Vec<&str> =
        stdout.trim().lines().map(|l| l.split_whitespace().nth(1).unwrap()).collect();
    let distinct: std::collections::HashSet<&str> = labels.iter().copied().collect();
    assert!(distinct.len() >= 5, "labels: {labels:?}");
}

#[test]
fn stats_flag_prints_k_statistics() {
    let (_, stderr, ok) = run_cli(&["-", "--stats"], EDGES);
    assert!(ok);
    assert!(stderr.contains("K1 = "), "stderr: {stderr}");
    assert!(stderr.contains("K2 = "), "stderr: {stderr}");
}

#[test]
fn stats_json_is_last_and_separated_from_the_table() {
    let (_, stderr, ok) = run_cli(&["-", "--stats", "--stats-json"], EDGES);
    assert!(ok, "stderr: {stderr}");
    // The JSON object is the final stderr line, preceded by a blank
    // separator line so scripts can extract it without parsing the table.
    let lines: Vec<&str> = stderr.lines().collect();
    let last = lines.last().expect("stderr non-empty");
    assert!(last.starts_with('{') && last.ends_with('}'), "last line not JSON: {last}");
    assert_eq!(lines[lines.len() - 2], "", "no blank line before the JSON: {stderr}");
    linkclust::core::json::parse(last).expect("stats JSON must be parseable");
    // The human table appears before the JSON, never after.
    let table_pos = stderr.find("phase").expect("report table present");
    let json_pos = stderr.rfind(last).expect("json present");
    assert!(table_pos < json_pos, "table must precede JSON: {stderr}");
}

#[test]
fn stats_json_alone_is_a_single_json_line() {
    let (_, stderr, ok) = run_cli(&["-", "--stats-json"], EDGES);
    assert!(ok, "stderr: {stderr}");
    let json_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(json_lines.len(), 1, "exactly one JSON line: {stderr}");
    linkclust::core::json::parse(json_lines[0]).expect("stats JSON must be parseable");
}

#[test]
fn trace_flag_writes_chrome_trace_json() {
    let path =
        std::env::temp_dir().join(format!("linkclust-cli-trace-{}.json", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    let (_, stderr, ok) =
        run_cli(&["-", "--coarse", "--threads", "2", "--trace", &path_str], EDGES);
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    linkclust::core::json::parse(&text).expect("valid JSON");
    assert!(text.contains("\"traceEvents\""), "chrome trace envelope: {text}");
    assert!(text.contains("\"ph\":\"X\""), "complete events: {text}");
}

#[test]
fn trace_to_unwritable_path_fails_cleanly() {
    let (_, stderr, ok) =
        run_cli(&["-", "--trace", "/nonexistent-dir-for-cli-trace/t.json"], EDGES);
    assert!(!ok, "unwritable trace path must fail the run");
    assert!(stderr.contains("failed to write trace file"), "stderr: {stderr}");
}

#[test]
fn generate_produces_clusterable_edge_list() {
    let (stdout, stderr, ok) = run_cli(&["generate", "planted", "3", "5", "0.9", "0.02"], "");
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("generated 15 vertices"), "stderr: {stderr}");
    // Feed the generated list back into the clusterer.
    let (out2, err2, ok2) = run_cli(&["-"], &stdout);
    assert!(ok2, "stderr: {err2}");
    assert!(out2.contains("link communities"));
}

#[test]
fn generate_with_seed_is_deterministic() {
    let (a, _, ok_a) = run_cli(&["generate", "gnm", "10", "20", "7"], "");
    let (b, _, ok_b) = run_cli(&["generate", "gnm", "10", "20", "7"], "");
    let (c, _, ok_c) = run_cli(&["generate", "gnm", "10", "20", "8"], "");
    assert!(ok_a && ok_b && ok_c);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn generate_rejects_bad_families_and_params() {
    for bad in [
        vec!["generate"],
        vec!["generate", "nonsense", "5"],
        vec!["generate", "gnm", "10"],
        vec!["generate", "gnm", "10", "20", "seedless-extra", "x"],
    ] {
        let (_, _, ok) = run_cli(&bad, "");
        assert!(!ok, "{bad:?} should fail");
    }
}

#[test]
fn bad_usage_fails() {
    let (_, _, ok) = run_cli(&[], "");
    assert!(!ok);
    let (_, _, ok) = run_cli(&["-", "--output", "nonsense"], EDGES);
    assert!(!ok);
    let (_, stderr, ok) = run_cli(&["/nonexistent/file"], "");
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

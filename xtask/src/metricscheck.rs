//! Structural validation of Prometheus text exposition (format 0.0.4),
//! for the `serve-smoke` gate.
//!
//! Re-parses the body a live `linkclustd --metrics-port` daemon served
//! over HTTP with the harness's own reader, so a bug in the serve
//! crate's hand-rolled renderer cannot hide behind the renderer itself.
//! Checks the format rules a scraper depends on:
//!
//! * every sample belongs to a family with a `# TYPE` line that
//!   *precedes* its samples, and the type is `counter`, `gauge`, or
//!   `histogram`;
//! * every family also carries a `# HELP` line;
//! * counter samples are finite and non-negative (gauges may be `NaN`
//!   — e.g. RSS on hosts without `/proc`);
//! * no (name, label-set) pair is exported twice;
//! * histogram series are complete and coherent per label set: bucket
//!   `le` bounds strictly increasing and ending in `+Inf`, cumulative
//!   counts non-decreasing, the `+Inf` bucket equal to `_count`, and a
//!   finite `_sum` present.
//!
//! The gate additionally requires a caller-supplied coverage list so
//! the daemon cannot silently stop exporting a family.

use std::collections::{BTreeMap, BTreeSet};

/// The metric type a `# TYPE` line declared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    /// Full sample name as written (histograms keep `_bucket` etc.).
    name: String,
    /// Label pairs in written order.
    labels: Vec<(String, String)>,
    value: f64,
}

/// What a validated exposition contained.
#[derive(Debug)]
pub(crate) struct ExpositionSummary {
    /// Declared metric families.
    pub(crate) families: usize,
    /// Sample lines.
    pub(crate) samples: usize,
    /// Every sample, for coverage and value checks beyond family names.
    sampled_series: Vec<Sample>,
}

impl ExpositionSummary {
    /// Whether a sample for `name` was exported carrying the given
    /// label pair (other labels may be present too).
    pub(crate) fn has_labeled_sample(&self, name: &str, label: &str, value: &str) -> bool {
        self.labeled_value(name, label, value).is_some()
    }

    /// The value of the first sample for `name` that carries the given
    /// label pair, if one was exported.
    pub(crate) fn labeled_value(&self, name: &str, label: &str, value: &str) -> Option<f64> {
        self.sampled_series
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == label && v == value))
            .map(|s| s.value)
    }
}

/// Splits `name{labels} value` into its three parts, validating the
/// metric-name charset.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        return Err(format!("invalid metric name in {line:?}"));
    }
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(after_brace) = rest.strip_prefix('{') {
        let close = after_brace.find('}').ok_or_else(|| format!("unclosed labels in {line:?}"))?;
        (parse_labels(&after_brace[..close])?, &after_brace[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    let value_text = rest.trim();
    if value_text.is_empty() {
        return Err(format!("sample {line:?} has no value"));
    }
    let value = match value_text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|_| format!("unparseable value {v:?} in {line:?}"))?,
    };
    Ok(Sample { name: name.to_owned(), labels, value })
}

/// Parses `k1="v1",k2="v2"`; values may contain `\\`, `\"`, `\n`.
fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("malformed label pair in {text:?}"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err(format!("bad escape in label value in {text:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value in {text:?}")),
            }
        }
        labels.push((key.trim().to_owned(), value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => {}
            Some(c) => return Err(format!("unexpected {c:?} after label value in {text:?}")),
        }
    }
}

/// The family a sample belongs to under `kind`: histograms attribute
/// their `_bucket`/`_sum`/`_count` series to the base name.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, MetricKind>) -> Option<&'a str> {
    if types.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base) == Some(&MetricKind::Histogram) {
                return Some(base);
            }
        }
    }
    None
}

/// Renders a stable series key (`name{k="v",...}`, labels sorted).
fn series_key(name: &str, labels: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = labels.iter().collect();
    sorted.sort();
    let rendered: Vec<String> =
        sorted.iter().map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "\\\""))).collect();
    if rendered.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{}}}", rendered.join(","))
    }
}

/// Validates `text` as Prometheus exposition and checks that every
/// family in `required` was declared and sampled.
pub(crate) fn check_exposition(text: &str, required: &[&str]) -> Result<ExpositionSummary, String> {
    let mut types: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut sampled: BTreeSet<String> = BTreeSet::new();
    let mut series: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return Err(at(format!("malformed TYPE line {line:?}")));
            };
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return Err(at(format!("unsupported metric type {other:?}"))),
            };
            if types.insert(name.to_owned(), kind).is_some() {
                return Err(at(format!("family {name:?} declared twice")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return Err(at(format!("malformed HELP line {line:?}")));
            }
            helps.insert(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        let sample = parse_sample(line).map_err(at)?;
        let Some(family) = family_of(&sample.name, &types) else {
            return Err(format!(
                "line {}: sample {:?} precedes (or lacks) its # TYPE declaration",
                lineno + 1,
                sample.name
            ));
        };
        let family = family.to_owned();
        if types.get(&family) == Some(&MetricKind::Counter)
            && !(sample.value.is_finite() && sample.value >= 0.0)
        {
            return Err(format!(
                "line {}: counter {:?} has non-finite or negative value {}",
                lineno + 1,
                sample.name,
                sample.value
            ));
        }
        let key = series_key(&sample.name, &sample.labels);
        if !series.insert(key.clone()) {
            return Err(format!("line {}: series {key} exported twice", lineno + 1));
        }
        sampled.insert(family);
        samples.push(sample);
    }

    for name in types.keys() {
        if !helps.contains(name) {
            return Err(format!("family {name:?} has no # HELP line"));
        }
        if !sampled.contains(name) {
            return Err(format!("family {name:?} declared but never sampled"));
        }
    }
    for (name, kind) in &types {
        if *kind == MetricKind::Histogram {
            check_histogram(name, &samples)?;
        }
    }
    for name in required {
        if !types.contains_key(*name) {
            return Err(format!("required family {name:?} is missing from the exposition"));
        }
    }
    Ok(ExpositionSummary { families: types.len(), samples: samples.len(), sampled_series: samples })
}

/// Checks every label-set series of one histogram family for bucket
/// coherence.
fn check_histogram(name: &str, samples: &[Sample]) -> Result<(), String> {
    // Group buckets by their labels minus `le`.
    let mut by_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for s in samples {
        if let Some(suffix) = s.name.strip_prefix(name) {
            let bare: Vec<(String, String)> =
                s.labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            let key = series_key("", &bare);
            match suffix {
                "_bucket" => {
                    let le = s
                        .labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .ok_or_else(|| format!("{name}: bucket without an `le` label"))?;
                    let bound = match le.1.as_str() {
                        "+Inf" => f64::INFINITY,
                        v => {
                            v.parse().map_err(|_| format!("{name}: unparseable le bound {v:?}"))?
                        }
                    };
                    by_series.entry(key).or_default().push((bound, s.value));
                }
                "_count" => {
                    counts.insert(key, s.value);
                }
                "_sum" => {
                    sums.insert(key, s.value);
                }
                _ => {}
            }
        }
    }
    if by_series.is_empty() {
        return Err(format!("histogram {name:?} has no bucket series"));
    }
    for (key, buckets) in &by_series {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = -1.0;
        for (bound, count) in buckets {
            if *bound <= prev_bound {
                return Err(format!("histogram {name}{key}: le bounds not strictly increasing"));
            }
            if *count < prev_count {
                return Err(format!("histogram {name}{key}: cumulative counts decrease"));
            }
            prev_bound = *bound;
            prev_count = *count;
        }
        let (last_bound, last_count) =
            buckets.last().unwrap_or(&(f64::NEG_INFINITY, -1.0)).to_owned();
        if last_bound != f64::INFINITY {
            return Err(format!("histogram {name}{key}: no +Inf bucket"));
        }
        let Some(count) = counts.get(key) else {
            return Err(format!("histogram {name}{key}: no _count sample"));
        };
        #[allow(clippy::float_cmp)] // cumulative counts are exact integers
        if *count != last_count {
            return Err(format!(
                "histogram {name}{key}: +Inf bucket {last_count} != _count {count}"
            ));
        }
        match sums.get(key) {
            Some(s) if s.is_finite() => {}
            _ => return Err(format!("histogram {name}{key}: no finite _sum sample")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid exposition with one of each family type.
    fn exposition() -> String {
        "# HELP d_requests_total Requests served.\n\
         # TYPE d_requests_total counter\n\
         d_requests_total 7\n\
         # HELP d_rss_bytes Resident set size.\n\
         # TYPE d_rss_bytes gauge\n\
         d_rss_bytes{which=\"current\"} 1048576\n\
         d_rss_bytes{which=\"peak\"} NaN\n\
         # HELP d_latency_seconds Query latency.\n\
         # TYPE d_latency_seconds histogram\n\
         d_latency_seconds_bucket{kind=\"cut\",le=\"0.001\"} 2\n\
         d_latency_seconds_bucket{kind=\"cut\",le=\"0.1\"} 5\n\
         d_latency_seconds_bucket{kind=\"cut\",le=\"+Inf\"} 7\n\
         d_latency_seconds_sum{kind=\"cut\"} 0.42\n\
         d_latency_seconds_count{kind=\"cut\"} 7\n"
            .to_owned()
    }

    #[test]
    fn accepts_a_well_formed_exposition() {
        let summary = check_exposition(&exposition(), &["d_requests_total", "d_latency_seconds"])
            .expect("valid exposition");
        assert_eq!(summary.families, 3);
        assert_eq!(summary.samples, 8);
        assert!(summary.has_labeled_sample("d_latency_seconds_count", "kind", "cut"));
        assert!(!summary.has_labeled_sample("d_latency_seconds_count", "kind", "edge"));
        assert_eq!(summary.labeled_value("d_latency_seconds_count", "kind", "cut"), Some(7.0));
        assert_eq!(summary.labeled_value("d_rss_bytes", "which", "current"), Some(1_048_576.0));
        assert_eq!(summary.labeled_value("d_rss_bytes", "which", "total"), None);
    }

    #[test]
    fn rejects_format_violations() {
        let base = exposition();
        let cases: &[(&str, &str, &str)] = &[
            ("# TYPE d_requests_total counter\n", "", "TYPE"),
            ("# HELP d_requests_total Requests served.\n", "", "HELP"),
            ("d_requests_total 7", "d_requests_total -1", "negative"),
            ("d_requests_total 7", "d_requests_total NaN", "non-finite"),
            ("le=\"0.1\"} 5", "le=\"0.1\"} 1", "decrease"),
            ("le=\"0.001\"} 2", "le=\"0.2\"} 2", "increasing"),
            ("d_latency_seconds_count{kind=\"cut\"} 7", "", "_count"),
            ("d_latency_seconds_sum{kind=\"cut\"} 0.42\n", "", "_sum"),
            ("le=\"+Inf\"} 7", "le=\"+Inf\"} 6", "+Inf bucket"),
            ("d_rss_bytes{which=\"peak\"} NaN", "d_rss_bytes{which=\"current\"} 9", "twice"),
        ];
        for (from, to, expect) in cases {
            let mutated = base.replace(from, to);
            assert_ne!(&mutated, &base, "mutation {from:?} did not apply");
            let err = check_exposition(&mutated, &[])
                .expect_err(&format!("mutation {from:?} should invalidate the exposition"));
            assert!(err.contains(expect), "mutation {from:?}: error {err:?} lacks {expect:?}");
        }
        // Dropping the +Inf bucket entirely.
        let no_inf = base.replace("d_latency_seconds_bucket{kind=\"cut\",le=\"+Inf\"} 7\n", "");
        assert!(check_exposition(&no_inf, &[]).unwrap_err().contains("+Inf"));
        // A sample before its TYPE declaration.
        let early = format!("early_total 1\n{base}# TYPE early_total counter\n");
        assert!(check_exposition(&early, &[]).unwrap_err().contains("precedes"));
    }

    #[test]
    fn enforces_required_coverage() {
        let err = check_exposition(&exposition(), &["d_missing_total"]).unwrap_err();
        assert!(err.contains("d_missing_total"));
    }

    #[test]
    fn label_values_may_contain_escapes() {
        let text = "# HELP e_total E.\n# TYPE e_total counter\n\
                    e_total{path=\"a\\\\b\\\"c\\nd\"} 1\n";
        let summary = check_exposition(text, &["e_total"]).expect("escapes parse");
        assert_eq!(summary.samples, 1);
        assert!(summary.has_labeled_sample("e_total", "path", "a\\b\"c\nd"));
    }
}

//! Shared helpers: order statistics, result fingerprints, the metric
//! list printed at the end of a run, and process probes.

use std::time::Instant;

use linkclust::core::coarse::CoarseResult;
use linkclust::core::dendrogram::DensityCut;
use linkclust::core::sweep::SweepOutput;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (the convention of
/// Python's `statistics.quantiles(..., method="inclusive")`); `NaN` for
/// an empty slice.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The time the reference computation takes on an idle 2.1 GHz Xeon
/// vCPU, about. End-to-end times are reported scaled to a host this fast
/// (see [`reference_seconds`]).
pub const REFERENCE_S: f64 = 0.020;

/// Seconds one fixed computation of the benchmark's own takes: 2¹⁹
/// pseudo-random keys hashed into an open-addressed table of 2²⁰ slots,
/// then sorted, on one thread.
///
/// No change to the program touches it, so its time measures how fast
/// the shared host runs at that moment. Other tenants slow whole runs
/// down together: over ten consecutive runs on a 2-vCPU VM, a run's
/// median serial clustering took 0.29–0.46 s, and the run's median
/// reference time moved with it (its spread across the runs was 0.19).
/// Each run therefore times the reference between its rounds and loads,
/// and scales its times by [`REFERENCE_S`] over the reference's median.
#[must_use]
pub fn reference_seconds() -> f64 {
    const KEYS: usize = 1 << 19;
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut table = vec![0u64; 2 * KEYS];
    let mask = table.len() - 1;
    for &k in &keys {
        // The top 20 bits of a multiplicative hash index the 2²⁰ slots.
        let mut i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize;
        while table[i] != 0 {
            i = (i + 1) & mask;
        }
        table[i] = k;
    }
    keys.sort_unstable();
    std::hint::black_box((keys, table));
    secs(start)
}

/// 64-bit FNV-1a over little-endian words: a cheap, dependency-free
/// fingerprint for comparing a result against its reference.
pub struct Fnv(u64);

impl Fnv {
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_output(h: &mut Fnv, out: &SweepOutput) {
    for m in out.dendrogram().merges() {
        h.word(u64::from(m.level));
        h.word(u64::from(m.left) << 32 | u64::from(m.right));
        h.word(u64::from(m.into));
    }
    for s in out.merge_scores() {
        h.word(s.to_bits());
    }
    for &slot in out.slot_of_edge() {
        h.word(u64::from(slot));
    }
}

/// Fingerprint of a fine-grained clustering: every merge record, every
/// merge score's bits, the edge-to-slot map, and the best-density cut.
#[must_use]
pub fn fine_fingerprint(out: &SweepOutput, cut: Option<DensityCut>) -> u64 {
    let mut h = Fnv::new();
    hash_output(&mut h, out);
    if let Some(c) = cut {
        h.word(u64::from(c.level));
        h.word(c.cluster_count as u64);
        h.word(c.density.to_bits());
    }
    h.finish()
}

/// Fingerprint of a coarse-grained clustering: its level trajectory and
/// the partition at every level. The parallel chunk processor records a
/// level's merges in another order than the serial one, so the merge
/// list itself is not compared.
#[must_use]
pub fn coarse_fingerprint(result: &CoarseResult) -> u64 {
    let mut h = Fnv::new();
    for &slot in result.output().slot_of_edge() {
        h.word(u64::from(slot));
    }
    for l in result.levels() {
        h.word(u64::from(l.level));
        h.word(l.pairs);
        h.word(l.clusters as u64);
        for label in result.dendrogram().assignments_at_level(l.level) {
            h.word(u64::from(label));
        }
    }
    h.finish()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    linkclust_bench::ladder::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// The metrics of one run, in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The result line: `correct`, the operation counts, and every
    /// metric with its unit. A non-finite value cannot be written as JSON;
    /// it is printed as 0 and marks the run incorrect.
    #[must_use]
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite && failed == 0,
            body.join(", ")
        )
    }
}

/// Operations attempted and failed over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn coarse_fingerprint_agrees_across_thread_counts() {
        use linkclust::core::coarse::CoarseConfig;
        use linkclust::graph::generate::{gnm, WeightMode};
        let g = gnm(2_000, 10_000, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let serial =
            linkclust::core::LinkClustering::new().run_coarse(&g, CoarseConfig::default()).unwrap();
        let par = linkclust::LinkClustering::new()
            .threads(2)
            .run_coarse(&g, CoarseConfig::default())
            .unwrap();
        let lv = |r: &CoarseResult| {
            r.levels().iter().map(|l| (l.level, l.pairs, l.clusters)).collect::<Vec<_>>()
        };
        assert_eq!(lv(&serial), lv(&par), "levels");
        assert_eq!(serial.output().slot_of_edge(), par.output().slot_of_edge(), "slots");
        assert_eq!(
            serial.dendrogram().merge_count(),
            par.dendrogram().merge_count(),
            "merge count"
        );
        assert_eq!(coarse_fingerprint(&serial), coarse_fingerprint(&par));
        let fine = linkclust::LinkClustering::new()
            .run_coarse(&gnm(2_000, 10_000, WeightMode::Unit, 3), CoarseConfig::default());
        assert_ne!(
            coarse_fingerprint(&serial),
            coarse_fingerprint(&fine.unwrap()),
            "another graph"
        );
    }

    #[test]
    fn result_line_marks_failures_and_non_finite_values() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        assert!(m.result_line(true, 3, 0).starts_with("{\"correct\": true"));
        assert!(m.result_line(true, 3, 1).starts_with("{\"correct\": false"));
        m.put("broken", f64::NAN, "s");
        let line = m.result_line(true, 3, 0);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("\"broken\": {\"value\": 0.0, \"unit\": \"s\"}"), "{line}");
    }
}

//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// Times one invocation of `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Statistics over repeated timed runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimingStats {
    /// Number of runs.
    pub runs: usize,
    /// Mean duration.
    pub mean: Duration,
    /// Smallest observed duration.
    pub min: Duration,
    /// Largest observed duration.
    pub max: Duration,
}

impl TimingStats {
    /// Mean duration in (fractional) seconds.
    #[must_use]
    pub fn mean_secs(&self) -> f64 {
        self.mean.as_secs_f64()
    }
}

/// Runs `f` `runs` times (the paper averages 10 runs per setting) and
/// summarizes the wall-clock times. The result of the last run is
/// returned alongside the statistics.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn time_runs<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, TimingStats) {
    assert!(runs > 0, "need at least one run");
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let (out, d) = time(&mut f);
        total += d;
        min = min.min(d);
        max = max.max(d);
        last = Some(out);
    }
    (last.expect("runs > 0"), TimingStats { runs, mean: total / runs as u32, min, max })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_and_returns() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn time_runs_aggregates() {
        let mut count = 0;
        let (v, stats) = time_runs(5, || {
            count += 1;
            count
        });
        assert_eq!(v, 5);
        assert_eq!(stats.runs, 5);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
    }
}

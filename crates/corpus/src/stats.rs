//! Corpus statistics: rank-frequency and vocabulary-growth diagnostics.
//!
//! The harness uses these to validate that the synthetic corpus has the
//! word-frequency shape (Zipf law) and vocabulary growth (Heaps law) the
//! paper's Twitter workload relies on. Both checks appear in the
//! EXPERIMENTS report.

use crate::doc::Documents;

/// Rank-frequency statistics over a corpus.
#[derive(Clone, PartialEq, Debug)]
pub struct FrequencyStats {
    /// Token counts, sorted non-increasing (rank order).
    pub counts: Vec<u64>,
    /// Total token count.
    pub total_tokens: u64,
    /// Number of distinct words.
    pub distinct_words: usize,
}

impl FrequencyStats {
    /// Computes token frequencies for `documents`.
    #[must_use]
    pub fn compute(documents: Documents<'_>) -> Self {
        let mut counts = vec![0u64; documents.vocabulary().len()];
        for d in documents {
            for &id in d.ids() {
                counts[id as usize] += 1;
            }
        }
        counts.retain(|&c| c > 0);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        FrequencyStats {
            distinct_words: counts.len(),
            counts,
            total_tokens: documents.token_count() as u64,
        }
    }

    /// Least-squares estimate of the Zipf exponent `s` from the
    /// rank-frequency curve `f(r) ∝ r^(−s)`, fitted over the top
    /// `max_rank` ranks (log-log regression).
    ///
    /// Returns `None` with fewer than 4 usable ranks.
    #[must_use]
    pub fn zipf_exponent(&self, max_rank: usize) -> Option<f64> {
        let ranks = self.counts.iter().take(max_rank).filter(|&&c| c > 0).count();
        if ranks < 4 {
            return None;
        }
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0, 0.0);
        for (i, &c) in self.counts.iter().take(ranks).enumerate() {
            let x = ((i + 1) as f64).ln();
            let y = (c as f64).ln();
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let n = ranks as f64;
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        Some(-slope)
    }

    /// The fraction of all tokens carried by the top `k` ranks.
    #[must_use]
    pub fn head_mass(&self, k: usize) -> f64 {
        if self.total_tokens == 0 {
            return 0.0;
        }
        let head: u64 = self.counts.iter().take(k).sum();
        head as f64 / self.total_tokens as f64
    }
}

/// The vocabulary-growth curve: distinct words seen after each document
/// (Heaps' law predicts `V(n) ∝ n^β` with β < 1).
#[must_use]
pub fn vocabulary_growth(documents: Documents<'_>) -> Vec<usize> {
    let mut seen = vec![false; documents.vocabulary().len()];
    let mut distinct = 0;
    let mut curve = Vec::with_capacity(documents.len());
    for d in documents {
        for &id in d.ids() {
            if !std::mem::replace(&mut seen[id as usize], true) {
                distinct += 1;
            }
        }
        curve.push(distinct);
    }
    curve
}

/// Heaps exponent β fitted from a vocabulary-growth curve by log-log
/// regression of distinct words against tokens seen. Returns `None` for
/// degenerate curves.
#[must_use]
pub fn heaps_exponent(documents: Documents<'_>) -> Option<f64> {
    let growth = vocabulary_growth(documents);
    if growth.len() < 8 {
        return None;
    }
    let mut tokens = 0u64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0, 0.0);
    let mut n = 0.0;
    for (d, &v) in documents.iter().zip(&growth) {
        tokens += d.len() as u64;
        if tokens == 0 || v == 0 {
            continue;
        }
        let x = (tokens as f64).ln();
        let y = (v as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        n += 1.0;
    }
    // float-cmp: `n` counts the regression's points, an exact small integer.
    if n < 8.0 {
        return None;
    }
    let denom = n * sxx - sx * sx;
    // float-cmp: the epsilon test itself; equal abscissae leave no slope to fit.
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Corpus;
    use crate::synth::{SynthCorpus, SynthCorpusConfig};

    #[test]
    fn frequency_counts() {
        let mut docs = Corpus::new();
        docs.push(["a", "b", "a"]);
        docs.push(["a", "c"]);
        let s = FrequencyStats::compute(docs.documents());
        assert_eq!(s.total_tokens, 5);
        assert_eq!(s.distinct_words, 3);
        assert_eq!(s.counts, vec![3, 1, 1]);
        assert!((s.head_mass(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zipf_exponent_recovers_synthetic_law() {
        // Build an exactly-Zipfian corpus: word r appears ⌊1000/r⌋ times.
        let mut docs = Corpus::new();
        for r in 1..=60usize {
            let count = 1000 / r;
            let word = format!("w{r}");
            for _ in 0..count {
                docs.push([&word]);
            }
        }
        let s = FrequencyStats::compute(docs.documents());
        let exp = s.zipf_exponent(60).unwrap();
        assert!((exp - 1.0).abs() < 0.05, "expected s near 1.0, got {exp}");
    }

    #[test]
    fn synth_corpus_is_zipf_like() {
        let sc = SynthCorpus::generate(&SynthCorpusConfig {
            documents: 5_000,
            vocabulary: 800,
            topics: 8,
            seed: 11,
            ..Default::default()
        });
        let s = FrequencyStats::compute(sc.documents());
        let exp = s.zipf_exponent(200).expect("enough ranks");
        assert!((0.5..=1.8).contains(&exp), "synthetic corpus should be Zipf-like, exponent {exp}");
        // Heavy head: top 20 words carry a large share.
        assert!(s.head_mass(20) > 0.15, "head mass {}", s.head_mass(20));
    }

    #[test]
    fn vocabulary_growth_is_monotone_and_sublinear() {
        let sc = SynthCorpus::generate(&SynthCorpusConfig {
            documents: 3_000,
            vocabulary: 600,
            topics: 6,
            seed: 5,
            ..Default::default()
        });
        let growth = vocabulary_growth(sc.documents());
        assert!(growth.windows(2).all(|w| w[0] <= w[1]));
        let beta = heaps_exponent(sc.documents()).expect("curve is long enough");
        assert!(
            beta > 0.0 && beta < 1.0,
            "vocabulary growth should be sublinear (Heaps), beta = {beta}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Corpus::new();
        assert_eq!(FrequencyStats::compute(empty.documents()).total_tokens, 0);
        assert_eq!(FrequencyStats::compute(empty.documents()).head_mass(5), 0.0);
        assert!(FrequencyStats::compute(empty.documents()).zipf_exponent(10).is_none());
        assert!(heaps_exponent(empty.documents()).is_none());
    }
}

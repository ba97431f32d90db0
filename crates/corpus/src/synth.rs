//! Synthetic tweet-corpus generator.
//!
//! Substitutes the paper's proprietary December-2011 Twitter corpus with a
//! deterministic generative model designed to reproduce the structural
//! property the paper's evaluation exploits (§VII): *frequent words
//! co-occur in the same tweet more often than infrequent ones*, so the
//! word-association graph over the top-α vocabulary is nearly complete for
//! tiny α and becomes sparser as α grows (Fig. 4(1): density 1.0 → 0.136).
//!
//! The model:
//!
//! * a vocabulary of `V` pseudo-words whose global frequencies follow a
//!   Zipf law with exponent `s`;
//! * `T` topics, each owning the vocabulary ranks congruent to its index
//!   (so every topic mixes frequent and rare words);
//! * each document samples a topic, then draws each word either from the
//!   global Zipf distribution (probability `global_mix`) or from the
//!   topic's own Zipf-ordered vocabulary.
//!
//! The global component makes top-ranked words co-occur in nearly every
//! message; the topic component gives rare words structured, community-like
//! co-occurrence — which is exactly what link clustering is meant to find.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::doc::{Corpus, Documents};
use crate::stopwords::STOP_WORDS;

/// Configuration of the synthetic corpus generator.
///
/// # Examples
///
/// ```
/// use linkclust_corpus::synth::{SynthCorpus, SynthCorpusConfig};
///
/// let corpus = SynthCorpus::generate(&SynthCorpusConfig {
///     documents: 100,
///     vocabulary: 50,
///     topics: 4,
///     seed: 1,
///     ..Default::default()
/// });
/// assert_eq!(corpus.corpus().len(), 100);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SynthCorpusConfig {
    /// Number of documents (tweets) to generate.
    pub documents: usize,
    /// Vocabulary size `V` (number of distinct base words).
    pub vocabulary: usize,
    /// Number of topics `T`.
    pub topics: usize,
    /// Minimum words per document (inclusive).
    pub min_words: usize,
    /// Maximum words per *topical* document (inclusive); chatter
    /// documents run up to twice this length.
    pub max_words: usize,
    /// Probability that a word slot is filled from the global Zipf
    /// distribution rather than the document's topic.
    pub global_mix: f64,
    /// Zipf exponent `s` of the rank-frequency law.
    pub zipf_exponent: f64,
    /// RNG seed; equal seeds give identical corpora.
    pub seed: u64,
}

impl Default for SynthCorpusConfig {
    fn default() -> Self {
        SynthCorpusConfig {
            documents: 20_000,
            vocabulary: 5_000,
            topics: 20,
            min_words: 4,
            max_words: 12,
            global_mix: 0.55,
            zipf_exponent: 1.05,
            seed: 42,
        }
    }
}

/// A generated corpus. Its vocabulary holds the pseudo-words in rank
/// order, so a token's id is its word's global frequency rank.
#[derive(Clone, PartialEq, Debug)]
pub struct SynthCorpus {
    corpus: Corpus,
    config: SynthCorpusConfig,
}

impl SynthCorpus {
    /// Generates a corpus from `config`. Deterministic in `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (zero documents/vocabulary/topics,
    /// `min_words > max_words`, `global_mix` outside `[0, 1]`, or a
    /// non-positive Zipf exponent).
    #[must_use]
    pub fn generate(config: &SynthCorpusConfig) -> Self {
        assert!(config.documents > 0, "need at least one document");
        assert!(config.vocabulary > 0, "need a non-empty vocabulary");
        assert!(config.topics > 0, "need at least one topic");
        assert!(config.min_words <= config.max_words, "min_words must not exceed max_words");
        assert!((0.0..=1.0).contains(&config.global_mix), "global_mix must lie in [0, 1]");
        // float-cmp: a domain check on a configured exponent, NaN refused too.
        assert!(config.zipf_exponent > 0.0, "zipf exponent must be positive");

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut corpus = Corpus::new();
        let id_of_rank: Vec<u32> =
            (0..config.vocabulary).map(|rank| corpus.intern(&pseudo_word(rank))).collect();

        let global = ZipfSampler::new(config.vocabulary, config.zipf_exponent);
        // Topic t owns ranks t, t+T, t+2T, … — Zipf-sampled by local index,
        // so each topic has its own frequent head and rare tail.
        let topic_sizes: Vec<usize> = (0..config.topics)
            .map(|t| (config.vocabulary + config.topics - 1 - t) / config.topics)
            .collect();
        let topic_samplers: Vec<ZipfSampler> =
            topic_sizes.iter().map(|&n| ZipfSampler::new(n.max(1), config.zipf_exponent)).collect();

        // Per-document mixing is bimodal: "chatter" documents draw
        // heavily from the global (frequent) vocabulary, topical ones
        // from their topic. This induces the *positive* correlation
        // between frequent words that real tweet streams exhibit — under
        // a flat mixture, frequent words would be slightly
        // anti-correlated (drawing one crowds out the other within the
        // fixed document length) and the top-α association graph would
        // be empty instead of near-complete (Fig. 4(1)).
        let chatter_mix = (config.global_mix + 0.4).min(0.95);
        let topical_mix = (config.global_mix - 0.45).max(0.05);

        for _ in 0..config.documents {
            let topic = rng.gen_range(0..config.topics);
            let chatter = rng.gen_bool(0.5);
            let mix = if chatter { chatter_mix } else { topical_mix };
            // Chatter documents run longer, concentrating co-occurrence
            // mass on the frequent vocabulary.
            let len = if chatter {
                rng.gen_range(config.max_words..=config.max_words * 2)
            } else {
                rng.gen_range(config.min_words..=config.max_words)
            };
            for _ in 0..len {
                let rank = if rng.gen_bool(mix) {
                    global.sample(&mut rng)
                } else {
                    let local = topic_samplers[topic].sample(&mut rng);
                    let rank = topic + local * config.topics;
                    rank.min(config.vocabulary - 1)
                };
                corpus.push_token(id_of_rank[rank]);
            }
            corpus.end_document();
        }
        SynthCorpus { corpus, config: *config }
    }

    /// The processed corpus (documents of base-word tokens, as if already
    /// tokenized, stemmed and stop-filtered).
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Shorthand for `self.corpus().documents()`.
    #[must_use]
    pub fn documents(&self) -> Documents<'_> {
        self.corpus.documents()
    }

    /// The vocabulary, indexed by global frequency rank (0 = most
    /// frequent).
    #[must_use]
    pub fn vocabulary(&self) -> &[String] {
        self.corpus.vocabulary()
    }

    /// The configuration this corpus was generated from.
    #[must_use]
    pub fn config(&self) -> &SynthCorpusConfig {
        &self.config
    }

    /// Renders each document as raw tweet text: base words are randomly
    /// inflected (`-s`, `-ed`, `-ing`), and stop words, @-mentions, URLs,
    /// and hashtag markers are injected.
    ///
    /// Feeding the result through [`TextPipeline`](crate::TextPipeline)
    /// recovers the processed corpus (inflections stem back to the base
    /// word; the noise is filtered out) — this closes the loop on the
    /// paper's nltk + stop-list preprocessing.
    #[must_use]
    pub fn render_tweets(&self, seed: u64) -> Vec<String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let words = self.corpus.vocabulary();
        self.corpus
            .documents()
            .iter()
            .map(|doc| {
                let mut parts: Vec<String> = Vec::new();
                if rng.gen_bool(0.2) {
                    parts.push(format!("@user{}", rng.gen_range(0..1000)));
                }
                for &id in doc.ids() {
                    let tok = &words[id as usize];
                    if rng.gen_bool(0.35) {
                        parts.push(STOP_WORDS[rng.gen_range(0..STOP_WORDS.len())].to_string());
                    }
                    let inflected = match rng.gen_range(0..5) {
                        0 => format!("{tok}s"),
                        1 => format!("{tok}ed"),
                        2 => format!("{tok}ing"),
                        3 => format!("#{tok}"),
                        _ => tok.clone(),
                    };
                    parts.push(inflected);
                }
                if rng.gen_bool(0.15) {
                    parts.push(format!("https://t.co/{}", rng.gen_range(0..100000)));
                }
                parts.join(" ")
            })
            .collect()
    }
}

/// Builds the pseudo-word for a vocabulary rank: alternating
/// consonant-vowel syllables, unique per rank, stable under Porter
/// stemming (no `e`/`y` endings, no stem-matching suffixes).
fn pseudo_word(rank: usize) -> String {
    const CONSONANTS: &[u8] = b"bdfgklmnprtvz";
    const VOWELS: &[u8] = b"aiou";
    let mut w = String::new();
    let mut r = rank;
    for _ in 0..3 {
        w.push(CONSONANTS[r % CONSONANTS.len()] as char);
        r /= CONSONANTS.len();
        w.push(VOWELS[r % VOWELS.len()] as char);
        r /= VOWELS.len();
    }
    w
}

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^s`.
#[derive(Clone, Debug)]
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small_config() -> SynthCorpusConfig {
        SynthCorpusConfig {
            documents: 2_000,
            vocabulary: 200,
            topics: 8,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = SynthCorpus::generate(&small_config());
        let b = SynthCorpus::generate(&small_config());
        assert_eq!(a, b);
        let c = SynthCorpus::generate(&SynthCorpusConfig { seed: 4, ..small_config() });
        assert_ne!(a, c);
    }

    #[test]
    fn document_lengths_in_range() {
        let sc = SynthCorpus::generate(&small_config());
        let cfg = sc.config();
        for d in sc.documents() {
            assert!(d.len() >= cfg.min_words && d.len() <= 2 * cfg.max_words);
        }
    }

    #[test]
    fn frequencies_follow_rank_order_roughly() {
        let sc = SynthCorpus::generate(&small_config());
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for d in sc.documents() {
            for t in d.words() {
                *counts.entry(t).or_default() += 1;
            }
        }
        let top = counts.get(sc.vocabulary()[0].as_str()).copied().unwrap_or(0);
        let mid = counts.get(sc.vocabulary()[100].as_str()).copied().unwrap_or(0);
        assert!(top > 5 * mid.max(1), "rank 0 ({top}) should dominate rank 100 ({mid})");
    }

    #[test]
    fn pseudo_words_are_unique_and_stemmer_stable() {
        use crate::porter::stem;
        let mut seen = std::collections::HashSet::new();
        for r in 0..2000 {
            let w = pseudo_word(r);
            assert!(seen.insert(w.clone()), "duplicate pseudo word {w}");
            assert_eq!(stem(&w), w, "pseudo word {w} must be a fixed point of the stemmer");
        }
    }

    #[test]
    fn zipf_sampler_is_heavily_skewed() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut head = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1 and n=1000, the top 10 ranks carry ~39% of the mass.
        let frac = head as f64 / N as f64;
        assert!(frac > 0.3 && frac < 0.5, "head fraction {frac}");
    }

    #[test]
    fn rendered_tweets_roundtrip_through_pipeline() {
        use crate::pipeline::TextPipeline;
        let sc = SynthCorpus::generate(&SynthCorpusConfig {
            documents: 50,
            vocabulary: 40,
            topics: 4,
            seed: 9,
            ..Default::default()
        });
        let tweets = sc.render_tweets(17);
        let pipeline = TextPipeline::new();
        for (raw, original) in tweets.iter().zip(sc.documents()) {
            let doc = pipeline.process(raw);
            assert_eq!(doc.document(0).words(), original.words(), "raw: {raw}");
        }
        // The whole batch through one call gives the same documents.
        let processed = pipeline.process_all(&tweets);
        assert!(processed.documents().iter().eq(sc.documents()));
    }

    #[test]
    #[should_panic(expected = "at least one document")]
    fn rejects_zero_documents() {
        let _ = SynthCorpus::generate(&SynthCorpusConfig { documents: 0, ..Default::default() });
    }
}

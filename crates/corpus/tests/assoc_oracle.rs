//! The association-network builder against a brute-force oracle: one
//! `HashSet` of words per document and Eq. 3 written out for every pair
//! of selected words. The builder must agree bit for bit — vertex words
//! in order, document counts, every edge and its weight bits — and return
//! the same error for every invalid input.

use std::collections::{HashMap, HashSet};

use linkclust_corpus::synth::{SynthCorpus, SynthCorpusConfig};
use linkclust_corpus::{AssocNetworkBuilder, Corpus, CorpusError};
use linkclust_graph::VertexId;
use proptest::prelude::*;

/// What the builder is compared on.
#[derive(Debug, PartialEq)]
struct Network {
    words: Vec<String>,
    document_counts: Vec<u32>,
    /// `(i, j, weight bits)` in the graph's edge order.
    edges: Vec<(usize, usize, u64)>,
}

#[derive(Clone, Copy, Debug)]
struct Knobs {
    fraction: f64,
    top_words: Option<usize>,
    min_document_count: usize,
}

fn built(corpus: &Corpus, k: Knobs) -> Result<Network, CorpusError> {
    let mut builder =
        AssocNetworkBuilder::new().fraction(k.fraction).min_document_count(k.min_document_count);
    if let Some(n) = k.top_words {
        builder = builder.top_words(n);
    }
    let net = builder.build(corpus.documents())?;
    Ok(Network {
        words: net.words().to_vec(),
        document_counts: (0..net.vocabulary_size())
            .map(|v| net.document_count(VertexId::new(v)))
            .collect(),
        edges: net
            .graph()
            .edges()
            .map(|(_, e)| (e.source.index(), e.target.index(), e.weight.to_bits()))
            .collect(),
    })
}

/// Eq. 3 over document sets, with the builder's documented selection:
/// candidates by document count (descending), ties by word, the top
/// `top_words` or ⌈α·n⌉ of them.
fn brute_force(docs: &[Vec<String>], k: Knobs) -> Result<Network, CorpusError> {
    if !(k.fraction > 0.0 && k.fraction <= 1.0) {
        return Err(CorpusError::InvalidFraction { fraction: k.fraction });
    }
    if docs.iter().all(Vec::is_empty) {
        return Err(CorpusError::EmptyCorpus);
    }
    let min_document_count = k.min_document_count.max(1);
    let sets: Vec<HashSet<&str>> =
        docs.iter().map(|d| d.iter().map(String::as_str).collect()).collect();
    let mut count: HashMap<&str, u32> = HashMap::new();
    for set in &sets {
        for &w in set {
            *count.entry(w).or_default() += 1;
        }
    }
    let mut candidates: Vec<(&str, u32)> =
        count.into_iter().filter(|&(_, c)| c as usize >= min_document_count).collect();
    if candidates.is_empty() {
        return Err(CorpusError::NoCandidateWords { min_document_count });
    }
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let n = candidates.len();
    let keep = match k.top_words {
        Some(t) => t.max(1).min(n),
        None => ((k.fraction * n as f64).ceil() as usize).clamp(1, n),
    };
    candidates.truncate(keep);

    let m = docs.len() as f64;
    let mut edges = Vec::new();
    for (i, &(wi, ci)) in candidates.iter().enumerate() {
        for (j, &(wj, cj)) in candidates.iter().enumerate().skip(i + 1) {
            let joint = sets.iter().filter(|s| s.contains(wi) && s.contains(wj)).count();
            if joint == 0 {
                continue;
            }
            let p_ij = joint as f64 / m;
            let p_i = ci as f64 / m;
            let p_j = cj as f64 / m;
            let w = p_ij * (p_ij / (p_i * p_j)).ln();
            if w > 0.0 {
                edges.push((i, j, w.to_bits()));
            }
        }
    }
    Ok(Network {
        words: candidates.iter().map(|&(w, _)| w.to_owned()).collect(),
        document_counts: candidates.iter().map(|&(_, c)| c).collect(),
        edges,
    })
}

fn corpus_of(docs: &[Vec<String>]) -> Corpus {
    let mut corpus = Corpus::new();
    for d in docs {
        corpus.push(d);
    }
    corpus
}

fn assert_agrees(docs: &[Vec<String>], k: Knobs) {
    let got = built(&corpus_of(docs), k);
    let want = brute_force(docs, k);
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "{k:?} {docs:?}"),
        // NaN fractions make `InvalidFraction` unequal to itself.
        (
            Err(CorpusError::InvalidFraction { fraction: a }),
            Err(CorpusError::InvalidFraction { fraction: b }),
        ) => assert_eq!(a.to_bits(), b.to_bits()),
        _ => assert_eq!(got, want, "{k:?} {docs:?}"),
    }
}

const WORDS: [&str; 8] = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"];
const FRACTIONS: [f64; 9] = [0.1, 0.25, 0.5, 0.75, 1.0, 0.0, -0.5, 1.5, f64::NAN];

fn documents() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(0..WORDS.len(), 0..7), 0..30).prop_map(
        |docs| {
            docs.into_iter().map(|d| d.into_iter().map(|w| WORDS[w].to_owned()).collect()).collect()
        },
    )
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (0..FRACTIONS.len(), 0..7usize, 1..5usize).prop_map(|(f, top, min)| Knobs {
        fraction: FRACTIONS[f],
        top_words: (top > 0).then_some(top),
        min_document_count: min,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn builder_equals_brute_force(docs in documents(), k in knobs()) {
        assert_agrees(&docs, k);
    }
}

fn docs(lists: &[&[&str]]) -> Vec<Vec<String>> {
    lists.iter().map(|d| d.iter().map(|w| (*w).to_owned()).collect()).collect()
}

const ALL: Knobs = Knobs { fraction: 1.0, top_words: None, min_document_count: 1 };

#[test]
fn tied_counts_break_by_word() {
    let d = docs(&[&["pear", "fig"], &["fig", "apple", "pear"], &["apple", "kiwi"], &["kiwi"]]);
    assert_agrees(&d, ALL);
    let net = built(&corpus_of(&d), ALL).unwrap();
    assert_eq!(net.words, ["apple", "fig", "kiwi", "pear"]);
    assert_agrees(&d, Knobs { top_words: Some(2), ..ALL });
    assert_agrees(&d, Knobs { fraction: 0.5, ..ALL });
}

#[test]
fn empty_documents_count_in_the_total() {
    let with_empty = docs(&[&["a", "b"], &[], &["a", "b"], &[], &["c"]]);
    let without = docs(&[&["a", "b"], &["a", "b"], &["c"]]);
    assert_agrees(&with_empty, ALL);
    let a = built(&corpus_of(&with_empty), ALL).unwrap();
    let b = built(&corpus_of(&without), ALL).unwrap();
    assert_eq!(a.words, b.words);
    assert_ne!(a.edges, b.edges, "p(X) is over every document, empty ones included");
}

#[test]
fn every_error_case_matches() {
    let some = docs(&[&["a", "b"], &["a"]]);
    for fraction in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        assert_agrees(&some, Knobs { fraction, ..ALL });
    }
    assert_agrees(&[], ALL);
    assert_agrees(&docs(&[&[], &[]]), ALL);
    assert_agrees(&some, Knobs { min_document_count: 3, ..ALL });
    assert!(matches!(
        built(&corpus_of(&some), Knobs { min_document_count: 3, ..ALL }),
        Err(CorpusError::NoCandidateWords { min_document_count: 3 })
    ));
}

#[test]
fn synthetic_corpus_matches_brute_force() {
    let sc = SynthCorpus::generate(&SynthCorpusConfig {
        documents: 400,
        vocabulary: 80,
        topics: 5,
        seed: 13,
        ..Default::default()
    });
    let d: Vec<Vec<String>> = sc
        .documents()
        .iter()
        .map(|doc| doc.words().into_iter().map(str::to_owned).collect())
        .collect();
    for k in [
        ALL,
        Knobs { top_words: Some(30), ..ALL },
        Knobs { fraction: 0.3, min_document_count: 3, ..ALL },
    ] {
        assert_agrees(&d, k);
    }
}

//! Word-association-network construction (Eq. 3 of the paper).
//!
//! Given a corpus `D` of processed documents, every candidate word becomes
//! a feature variable `X_f`, and an edge joins words `f_i, f_j` when
//!
//! ```text
//! w_ij = p(X_i=1, X_j=1) · log( p(X_i=1, X_j=1) / (p(X_i=1) · p(X_j=1)) ) > 0
//! ```
//!
//! i.e. when the two words co-occur in the same message more often than
//! independence would predict. Probabilities are empirical document
//! frequencies. Following §VII, candidate words are sorted by appearance
//! count (non-ascending) and only the top fraction **α** become vertices —
//! α is the knob that controls graph size throughout the evaluation.
//!
//! The counts run on the corpus's token ids. Document frequencies go into
//! an array indexed by id, where a last-seen-document stamp counts each
//! document once. Joint frequencies are counted row by row: for each
//! selected word `i`, the documents that hold it add 1 to a dense
//! per-row accumulator for every selected `j > i` they hold, and the
//! row's touched list, sorted, emits its edges in `(i, j)` order and
//! resets the accumulator. Scratch is O(k) for k selected words, never
//! a k × k matrix.

use linkclust_graph::{GraphBuilder, VertexId, WeightedGraph};

use crate::doc::Documents;
use crate::error::CorpusError;

/// Marks a vocabulary id that is not a vertex of the network.
const NOT_SELECTED: u32 = u32::MAX;

/// Builder for [`AssocNetwork`].
///
/// # Examples
///
/// ```
/// use linkclust_corpus::{AssocNetworkBuilder, Corpus};
///
/// let mut corpus = Corpus::new();
/// corpus.push(["storm", "rain"]);
/// corpus.push(["storm", "rain", "wind"]);
/// corpus.push(["sun", "beach"]);
/// let net = AssocNetworkBuilder::new().build(corpus.documents())?;
/// // "storm" and "rain" always co-occur -> positive PMI edge
/// let s = net.vertex_of("storm").unwrap();
/// let r = net.vertex_of("rain").unwrap();
/// assert!(net.graph().has_edge(s, r));
/// # Ok::<(), linkclust_corpus::CorpusError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AssocNetworkBuilder {
    fraction: f64,
    top_words: Option<usize>,
    min_document_count: usize,
}

impl Default for AssocNetworkBuilder {
    fn default() -> Self {
        AssocNetworkBuilder { fraction: 1.0, top_words: None, min_document_count: 1 }
    }
}

impl AssocNetworkBuilder {
    /// Creates a builder with α = 1.0 (all candidate words kept).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the vocabulary fraction α ∈ (0, 1]: only the ⌈α·n⌉ most
    /// frequent of the n candidate words become vertices.
    #[must_use]
    pub fn fraction(mut self, alpha: f64) -> Self {
        self.fraction = alpha;
        self
    }

    /// Keeps exactly the `n` most frequent candidate words (clamped to
    /// the candidate count; takes precedence over
    /// [`fraction`](Self::fraction)). This is how the benchmark harness
    /// scales the paper's α sweep: the paper's candidate pool has
    /// millions of rare words that never enter any graph, so `α·pool` is
    /// realized directly as a top-`n` cut.
    #[must_use]
    pub fn top_words(mut self, n: usize) -> Self {
        self.top_words = Some(n.max(1));
        self
    }

    /// Requires candidate words to appear in at least `count` documents
    /// (default 1).
    #[must_use]
    pub fn min_document_count(mut self, count: usize) -> Self {
        self.min_document_count = count.max(1);
        self
    }

    /// Builds the association network from `documents`.
    ///
    /// # Errors
    ///
    /// * [`CorpusError::InvalidFraction`] if α ∉ (0, 1].
    /// * [`CorpusError::EmptyCorpus`] if there are no documents or no
    ///   tokens at all.
    /// * [`CorpusError::NoCandidateWords`] if the document-count threshold
    ///   eliminates every word.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the co-occurrence pairs fed to the
    /// graph builder are canonical, deduplicated, and positive-weight by
    /// construction.
    pub fn build(&self, documents: Documents<'_>) -> Result<AssocNetwork, CorpusError> {
        // float-cmp: α is a user knob; the exact bounds (0, 1] are its domain, NaN included in the refusal.
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(CorpusError::InvalidFraction { fraction: self.fraction });
        }
        if documents.token_count() == 0 {
            return Err(CorpusError::EmptyCorpus);
        }
        let vocabulary = documents.vocabulary();

        // Document frequency of every id.
        let mut doc_count = vec![0u32; vocabulary.len()];
        let mut last_doc = vec![usize::MAX; vocabulary.len()];
        for (d, doc) in documents.iter().enumerate() {
            for &id in doc.ids() {
                let id = id as usize;
                if last_doc[id] != d {
                    last_doc[id] = d;
                    doc_count[id] += 1;
                }
            }
        }

        // Candidate words, sorted by count (non-ascending), then
        // lexicographically for determinism.
        let mut candidates: Vec<u32> = (0..doc_count.len())
            .filter(|&id| doc_count[id] as usize >= self.min_document_count)
            .map(|id| id as u32)
            .collect();
        if candidates.is_empty() {
            return Err(CorpusError::NoCandidateWords {
                min_document_count: self.min_document_count,
            });
        }
        candidates.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            doc_count[b].cmp(&doc_count[a]).then_with(|| vocabulary[a].cmp(&vocabulary[b]))
        });
        let keep = match self.top_words {
            Some(n) => n.min(candidates.len()),
            None => ((self.fraction * candidates.len() as f64).ceil() as usize)
                .clamp(1, candidates.len()),
        };
        candidates.truncate(keep);

        let mut vertex_of_id = vec![NOT_SELECTED; vocabulary.len()];
        for (v, &id) in candidates.iter().enumerate() {
            vertex_of_id[id as usize] = v as u32;
        }
        let words: Vec<String> =
            candidates.iter().map(|&id| vocabulary[id as usize].clone()).collect();
        let selected_count: Vec<u32> =
            candidates.iter().map(|&id| doc_count[id as usize]).collect();

        let cooccurrence = Cooccurrence::new(documents, &vertex_of_id, &selected_count);
        let m = documents.len() as f64;
        let mut builder = GraphBuilder::with_vertices(words.len());
        let mut acc = vec![0u32; words.len()];
        let mut touched = Vec::new();
        for i in 0..words.len() {
            cooccurrence.count_row(i, &mut acc, &mut touched);
            let p_i = selected_count[i] as f64 / m;
            for &j in &touched {
                let c = std::mem::take(&mut acc[j as usize]);
                let p_ij = c as f64 / m;
                let p_j = selected_count[j as usize] as f64 / m;
                let w = p_ij * (p_ij / (p_i * p_j)).ln();
                // float-cmp: Eq. 3 keeps exactly the positive weights; w = 0 (independence) is no edge.
                if w > 0.0 {
                    builder
                        .add_edge(VertexId::new(i), VertexId::new(j as usize), w)
                        .expect("pairs are unique, canonical, and weights positive");
                }
            }
        }

        Ok(AssocNetwork { graph: builder.build(), words, doc_counts: selected_count })
    }
}

/// The selected words of every document, and the documents of every
/// selected word: what the row-by-row joint count walks.
struct Cooccurrence {
    /// Each document's distinct vertices in ascending order, documents
    /// back to back.
    held: Vec<u32>,
    /// For each vertex, one `(start, end)` range of `held` per document
    /// that holds it: the document's vertices after this one.
    postings: Vec<(usize, usize)>,
    /// Vertex `v`'s ranges are `postings[posting_offsets[v]..posting_offsets[v + 1]]`.
    posting_offsets: Vec<usize>,
}

impl Cooccurrence {
    fn new(documents: Documents<'_>, vertex_of_id: &[u32], doc_count: &[u32]) -> Self {
        let k = doc_count.len();
        let mut held = Vec::with_capacity(documents.token_count());
        let mut held_offsets = Vec::with_capacity(documents.len() + 1);
        held_offsets.push(0);
        let mut last_doc = vec![usize::MAX; k];
        for (d, doc) in documents.iter().enumerate() {
            let start = held.len();
            for &id in doc.ids() {
                let v = vertex_of_id[id as usize];
                if v != NOT_SELECTED && last_doc[v as usize] != d {
                    last_doc[v as usize] = d;
                    held.push(v);
                }
            }
            held[start..].sort_unstable();
            held_offsets.push(held.len());
        }
        // A vertex's postings are as many as its document count.
        let mut posting_offsets = vec![0; k + 1];
        for (v, &c) in doc_count.iter().enumerate() {
            posting_offsets[v + 1] = posting_offsets[v] + c as usize;
        }
        let mut cursor = posting_offsets[..k].to_vec();
        let mut postings = vec![(0, 0); held.len()];
        for bounds in held_offsets.windows(2) {
            let (start, end) = (bounds[0], bounds[1]);
            for (p, &v) in held[start..end].iter().enumerate() {
                postings[cursor[v as usize]] = (start + p + 1, end);
                cursor[v as usize] += 1;
            }
        }
        Cooccurrence { held, postings, posting_offsets }
    }

    /// Counts row `i` into `acc`: `acc[j]` becomes the number of
    /// documents holding both `i` and `j`, for every `j > i`. `touched`
    /// lists the nonzero `j` in ascending order; `acc` must be zero on
    /// entry and the caller zeroes the touched slots.
    fn count_row(&self, i: usize, acc: &mut [u32], touched: &mut Vec<u32>) {
        touched.clear();
        for &(start, end) in &self.postings[self.posting_offsets[i]..self.posting_offsets[i + 1]] {
            for &j in &self.held[start..end] {
                if acc[j as usize] == 0 {
                    touched.push(j);
                }
                acc[j as usize] += 1;
            }
        }
        touched.sort_unstable();
    }
}

/// A word association network: a weighted graph plus the vertex ↔ word
/// mapping.
#[derive(Clone, PartialEq, Debug)]
pub struct AssocNetwork {
    graph: WeightedGraph,
    words: Vec<String>,
    doc_counts: Vec<u32>,
}

impl AssocNetwork {
    /// The underlying weighted graph (vertices are words, weights are the
    /// mutual-information scores of Eq. 3).
    #[must_use]
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Consumes the network, returning the graph.
    #[must_use]
    pub fn into_graph(self) -> WeightedGraph {
        self.graph
    }

    /// The word at vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn word(&self, v: VertexId) -> &str {
        &self.words[v.index()]
    }

    /// The vertex of `word`, if it was selected into the vocabulary.
    pub fn vertex_of(&self, word: &str) -> Option<VertexId> {
        self.words.iter().position(|w| w == word).map(VertexId::new)
    }

    /// Number of selected vocabulary words (= vertex count).
    #[must_use]
    pub fn vocabulary_size(&self) -> usize {
        self.words.len()
    }

    /// The number of documents containing the word at vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn document_count(&self, v: VertexId) -> u32 {
        self.doc_counts[v.index()]
    }

    /// The vocabulary in frequency-rank order (vertex order).
    #[must_use]
    pub fn words(&self) -> &[String] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Corpus;

    fn corpus(docs: &[&[&str]]) -> Corpus {
        let mut c = Corpus::new();
        for &d in docs {
            c.push(d);
        }
        c
    }

    #[test]
    fn positive_pmi_creates_edge_negative_does_not() {
        // "hot"+"sun" always together; "hot"+"ice" never together.
        let docs = corpus(&[&["hot", "sun"], &["hot", "sun"], &["ice", "snow"], &["ice", "snow"]]);
        let net = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        let hot = net.vertex_of("hot").unwrap();
        let sun = net.vertex_of("sun").unwrap();
        let ice = net.vertex_of("ice").unwrap();
        assert!(net.graph().has_edge(hot, sun));
        assert!(!net.graph().has_edge(hot, ice));
    }

    #[test]
    fn independent_words_have_no_edge() {
        // a and b co-occur exactly as often as independence predicts:
        // p(a)=p(b)=1/2, p(ab)=1/4 -> w = 0, no edge.
        let docs = corpus(&[&["a", "b"], &["a", "x"], &["b", "y"], &["z"]]);
        let net = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        let a = net.vertex_of("a").unwrap();
        let b = net.vertex_of("b").unwrap();
        assert!(!net.graph().has_edge(a, b));
    }

    #[test]
    fn fraction_selects_most_frequent() {
        let docs = corpus(&[&["top", "mid"], &["top", "mid"], &["top", "rare"], &["top"]]);
        let net = AssocNetworkBuilder::new().fraction(0.5).build(docs.documents()).unwrap();
        // 3 candidates (top: 4, mid: 2, rare: 1); ceil(0.5*3) = 2 kept.
        assert_eq!(net.vocabulary_size(), 2);
        assert!(net.vertex_of("top").is_some());
        assert!(net.vertex_of("mid").is_some());
        assert!(net.vertex_of("rare").is_none());
        assert_eq!(net.document_count(net.vertex_of("top").unwrap()), 4);
    }

    #[test]
    fn vertices_ordered_by_frequency_rank() {
        let docs = corpus(&[&["b", "a"], &["b"], &["a", "b", "c"]]);
        let net = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        assert_eq!(net.words()[0], "b"); // 3 docs
        assert_eq!(net.words()[1], "a"); // 2 docs
        assert_eq!(net.words()[2], "c"); // 1 doc
    }

    #[test]
    fn duplicate_tokens_in_doc_count_once() {
        let docs = corpus(&[&["w", "w", "w", "v"], &["v"]]);
        let net = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        let w = net.vertex_of("w").unwrap();
        assert_eq!(net.document_count(w), 1);
    }

    #[test]
    fn top_words_overrides_fraction() {
        let docs = corpus(&[&["top", "mid"], &["top", "mid"], &["top", "rare"], &["top"]]);
        let net =
            AssocNetworkBuilder::new().fraction(1.0).top_words(2).build(docs.documents()).unwrap();
        assert_eq!(net.vocabulary_size(), 2);
        assert_eq!(net.words(), &["top".to_string(), "mid".to_string()]);
        // Clamped when asking for more than exist.
        let net = AssocNetworkBuilder::new().top_words(99).build(docs.documents()).unwrap();
        assert_eq!(net.vocabulary_size(), 3);
    }

    #[test]
    fn min_document_count_filters() {
        let docs = corpus(&[&["common", "rare"], &["common"]]);
        let net = AssocNetworkBuilder::new().min_document_count(2).build(docs.documents()).unwrap();
        assert_eq!(net.vocabulary_size(), 1);
        let err =
            AssocNetworkBuilder::new().min_document_count(10).build(docs.documents()).unwrap_err();
        assert!(matches!(err, CorpusError::NoCandidateWords { .. }));
    }

    #[test]
    fn rejects_bad_fraction_and_empty_corpus() {
        let docs = corpus(&[&["w"]]);
        for alpha in [0.0, -0.5, 1.5, f64::NAN] {
            let err =
                AssocNetworkBuilder::new().fraction(alpha).build(docs.documents()).unwrap_err();
            assert!(matches!(err, CorpusError::InvalidFraction { .. }), "alpha={alpha}");
        }
        let err = AssocNetworkBuilder::new().build(Corpus::new().documents()).unwrap_err();
        assert_eq!(err, CorpusError::EmptyCorpus);
        let err = AssocNetworkBuilder::new().build(corpus(&[&[]]).documents()).unwrap_err();
        assert_eq!(err, CorpusError::EmptyCorpus);
    }

    #[test]
    fn build_is_deterministic() {
        let mut docs = Corpus::new();
        for i in 0..50 {
            docs.push([["u", "v", "w"][i % 3], ["x", "y"][i % 2], "z"]);
        }
        let a = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        let b = AssocNetworkBuilder::new().build(docs.documents()).unwrap();
        assert_eq!(a, b);
    }
}

//! Documents and corpora on interned token ids.
//!
//! A [`Corpus`] stores every document's tokens as `u32` ids into one
//! shared vocabulary: the ids of all documents lie back to back in one
//! flat array, and a per-document offset marks where each one starts. A
//! word is stored once, however often it occurs, and consumers such as
//! [`AssocNetworkBuilder`](crate::AssocNetworkBuilder) count with arrays
//! indexed by id instead of maps keyed by strings.
//!
//! [`Corpus::documents`] lends a [`Documents`] view (the corpus with its
//! vocabulary), and each [`Document`] is a borrowed slice of ids that
//! resolves its words through that vocabulary.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// An ordered collection of documents over one interned vocabulary.
///
/// Ids are assigned in order of first appearance; two corpora compare
/// equal when they hold the same documents over the same vocabulary in
/// the same id order. Compare [`Document`]s to compare by word.
///
/// # Examples
///
/// ```
/// use linkclust_corpus::Corpus;
///
/// let mut corpus = Corpus::new();
/// corpus.push(["storm", "coffee", "storm"]);
/// corpus.push(["coffee"]);
/// assert_eq!(corpus.len(), 2);
/// assert_eq!(corpus.vocabulary(), ["storm", "coffee"]);
/// assert_eq!(corpus.document(0).ids(), [0, 1, 0]);
/// assert_eq!(corpus.document(1).words(), ["coffee"]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Corpus {
    /// The word of each id.
    words: Vec<String>,
    /// The id of each word.
    ids: HashMap<String, u32>,
    /// Every document's token ids, documents back to back.
    tokens: Vec<u32>,
    /// Document `d` holds `tokens[offsets[d]..offsets[d + 1]]`.
    offsets: Vec<usize>,
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus { words: Vec::new(), ids: HashMap::new(), tokens: Vec::new(), offsets: vec![0] }
    }
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a document of `words`, interning each one.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary outgrows the `u32` id space.
    pub fn push<I>(&mut self, words: I)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        for word in words {
            let id = self.intern(word.as_ref());
            self.push_token(id);
        }
        self.end_document();
    }

    /// The id of `word`, added to the vocabulary if it is new.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary outgrows the `u32` id space.
    pub(crate) fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = u32::try_from(self.words.len()).expect("vocabulary exceeds the u32 id space");
        self.words.push(word.to_owned());
        self.ids.insert(word.to_owned(), id);
        id
    }

    /// Appends one token to the document being built.
    pub(crate) fn push_token(&mut self, id: u32) {
        self.tokens.push(id);
    }

    /// Closes the document being built; the next token starts a new one.
    pub(crate) fn end_document(&mut self) {
        self.offsets.push(self.tokens.len());
    }

    /// The documents, in insertion order, with the vocabulary they share.
    #[must_use]
    pub fn documents(&self) -> Documents<'_> {
        Documents { corpus: self }
    }

    /// Document `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.len()`.
    #[must_use]
    pub fn document(&self, d: usize) -> Document<'_> {
        Document { ids: &self.tokens[self.offsets[d]..self.offsets[d + 1]], words: &self.words }
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the corpus has no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of tokens across all documents.
    #[must_use]
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// The vocabulary: the word of every id, in id order. A vocabulary
    /// word need not occur in any document.
    #[must_use]
    pub fn vocabulary(&self) -> &[String] {
        &self.words
    }
}

/// A borrowed view of a corpus's documents and their shared vocabulary.
#[derive(Clone, Copy, Debug)]
pub struct Documents<'a> {
    corpus: &'a Corpus,
}

impl<'a> Documents<'a> {
    /// Number of documents.
    #[must_use]
    pub fn len(self) -> usize {
        self.corpus.len()
    }

    /// Returns `true` if there are no documents.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.corpus.is_empty()
    }

    /// The documents, in order.
    #[must_use]
    pub fn iter(self) -> Iter<'a> {
        Iter { corpus: self.corpus, range: 0..self.len() }
    }

    /// Total number of tokens across all documents.
    #[must_use]
    pub fn token_count(self) -> usize {
        self.corpus.token_count()
    }

    /// The word of every id.
    #[must_use]
    pub fn vocabulary(self) -> &'a [String] {
        &self.corpus.words
    }
}

impl<'a> IntoIterator for Documents<'a> {
    type Item = Document<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the documents of a [`Documents`] view.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    corpus: &'a Corpus,
    range: Range<usize>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Document<'a>;

    fn next(&mut self) -> Option<Document<'a>> {
        self.range.next().map(|d| self.corpus.document(d))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// One processed document (e.g. one tweet): the ids of its surviving
/// tokens, in order, borrowed from its [`Corpus`].
///
/// Two documents are equal when they hold the same words in the same
/// order, whichever corpora (and so whichever ids) they come from.
#[derive(Clone, Copy)]
pub struct Document<'a> {
    ids: &'a [u32],
    words: &'a [String],
}

impl<'a> Document<'a> {
    /// The token ids, in order; [`Corpus::vocabulary`] maps them to words.
    #[must_use]
    pub fn ids(self) -> &'a [u32] {
        self.ids
    }

    /// The tokens, in order, as words (collected into a new `Vec`).
    #[must_use]
    pub fn words(self) -> Vec<&'a str> {
        self.ids.iter().map(|&id| self.words[id as usize].as_str()).collect()
    }

    /// Number of tokens.
    #[must_use]
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the document has no tokens.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }
}

impl PartialEq for Document<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .ids
                .iter()
                .zip(other.ids)
                .all(|(&a, &b)| self.words[a as usize] == other.words[b as usize])
    }
}

impl Eq for Document<'_> {}

impl fmt::Debug for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ids.iter().map(|&id| &self.words[id as usize])).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_basics() {
        let mut c = Corpus::new();
        c.push(["a", "b"]);
        c.push(Vec::<String>::new());
        let d = c.document(0);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.words()[1], "b");
        assert!(c.document(1).is_empty());
        assert_eq!(c.documents().len(), 2);
    }

    #[test]
    fn corpus_push_interns_once_per_word() {
        let mut c = Corpus::new();
        for i in 0..3 {
            c.push([format!("w{i}")]);
        }
        c.push(["x", "y", "w1"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.token_count(), 6);
        assert_eq!(c.vocabulary(), ["w0", "w1", "w2", "x", "y"]);
        assert_eq!(c.document(3).ids(), [3, 4, 1]);
        let lens: Vec<usize> = c.documents().iter().map(Document::len).collect();
        assert_eq!(lens, [1, 1, 1, 3]);
    }

    #[test]
    fn documents_compare_by_word_across_corpora() {
        let mut a = Corpus::new();
        a.push(["x", "y"]);
        let mut b = Corpus::new();
        b.push(["y"]);
        b.push(["x", "y"]);
        assert_eq!(a.document(0), b.document(1));
        assert_ne!(a.document(0), b.document(0));
        assert_ne!(a, b);
        assert_eq!(format!("{:?}", b.document(1)), r#"["x", "y"]"#);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::default();
        assert!(c.is_empty());
        assert_eq!(c.documents().iter().len(), 0);
        assert_eq!(c.token_count(), 0);
    }
}

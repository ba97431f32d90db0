//! End-to-end text preprocessing: tokenize → stop-filter → stem, into
//! interned token ids.
//!
//! Mirrors the paper's preprocessing of English tweets (§VII): nltk
//! tokenization and Porter stemming plus stop-word removal, reimplemented
//! natively.
//!
//! One call scans each message's bytes (`token::for_each_word`) and looks
//! each lower-cased surface form up in one map, built during the call,
//! from the form to its vocabulary id or to "stop word". So
//! [`is_stop_word`] and [`stem`] run once per distinct form, not once per
//! occurrence, and a token costs one map lookup and one `u32` push.

use std::collections::HashMap;

use crate::doc::Corpus;
use crate::porter::stem;
use crate::stopwords::is_stop_word;
use crate::token::for_each_word;

/// A reusable text-preprocessing pipeline.
///
/// # Examples
///
/// ```
/// use linkclust_corpus::TextPipeline;
///
/// let corpus = TextPipeline::new().process("The clusters are forming!");
/// assert_eq!(corpus.document(0).words(), ["cluster", "form"]);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TextPipeline {
    keep_stop_words: bool,
    skip_stemming: bool,
}

impl TextPipeline {
    /// Creates the default pipeline (stop words removed, stemming on).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps stop words instead of removing them.
    #[must_use]
    pub fn keep_stop_words(mut self) -> Self {
        self.keep_stop_words = true;
        self
    }

    /// Disables Porter stemming.
    #[must_use]
    pub fn skip_stemming(mut self) -> Self {
        self.skip_stemming = true;
        self
    }

    /// Processes one raw message into a one-document [`Corpus`].
    #[must_use]
    pub fn process(&self, text: &str) -> Corpus {
        self.process_all([text])
    }

    /// Processes a batch of raw messages into a [`Corpus`], one document
    /// per message. The result equals processing each message alone.
    pub fn process_all<I, S>(&self, texts: I) -> Corpus
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut corpus = Corpus::new();
        // Lower-cased surface form → vocabulary id, or `None` for a stop
        // word. `form` is the one lower-casing buffer.
        let mut forms: HashMap<String, Option<u32>> = HashMap::new();
        let mut form = String::new();
        for text in texts {
            for_each_word(text.as_ref(), |word| {
                form.clear();
                form.push_str(word);
                form.make_ascii_lowercase();
                let id = match forms.get(form.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = self.resolve(&form, &mut corpus);
                        forms.insert(form.clone(), id);
                        id
                    }
                };
                if let Some(id) = id {
                    corpus.push_token(id);
                }
            });
            corpus.end_document();
        }
        corpus
    }

    /// The vocabulary id of a lower-cased surface form (its stem unless
    /// stemming is off), or `None` if it is a dropped stop word. Stop
    /// words are matched on the surface form, before stemming.
    fn resolve(self, form: &str, corpus: &mut Corpus) -> Option<u32> {
        if !self.keep_stop_words && is_stop_word(form) {
            None
        } else if self.skip_stemming {
            Some(corpus.intern(form))
        } else {
            Some(corpus.intern(&stem(form)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(p: TextPipeline, text: &str) -> Vec<String> {
        p.process(text).document(0).words().into_iter().map(str::to_owned).collect()
    }

    #[test]
    fn default_pipeline_filters_and_stems() {
        let doc = words(TextPipeline::new(), "The RUNNING dogs are barking loudly");
        assert_eq!(doc, ["run", "dog", "bark", "loudli"]);
    }

    #[test]
    fn keep_stop_words_option() {
        assert_eq!(words(TextPipeline::new().keep_stop_words(), "the dog"), ["the", "dog"]);
    }

    #[test]
    fn skip_stemming_option() {
        assert_eq!(words(TextPipeline::new().skip_stemming(), "running dogs"), ["running", "dogs"]);
    }

    #[test]
    fn process_all_batches() {
        let corpus = TextPipeline::new().process_all(["a storm hit", "storms hitting"]);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.document(0).words(), ["storm", "hit"]);
        assert_eq!(corpus.document(1).words(), ["storm", "hit"]);
        // Two surface forms of each stem share one vocabulary id.
        assert_eq!(corpus.vocabulary(), ["storm", "hit"]);
        assert_eq!(corpus.document(1).ids(), [0, 1]);
    }

    #[test]
    fn tweet_noise_removed() {
        let doc = words(TextPipeline::new(), "@bob check https://x.io #clusters!!");
        assert_eq!(doc, ["check", "cluster"]);
    }

    #[test]
    fn case_variants_resolve_once() {
        let corpus = TextPipeline::new().process_all(["Storm STORM", "", "storm THE"]);
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.document(0).ids(), [0, 0]);
        assert!(corpus.document(1).is_empty());
        assert_eq!(corpus.document(2).ids(), [0]);
        assert_eq!(corpus.vocabulary(), ["storm"]);
    }
}

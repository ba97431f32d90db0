//! The text pipeline against its oracle: for any message, the tokens of
//! `TextPipeline` are `tokenize(text)` filtered by `is_stop_word` and
//! mapped by `stem`, under each of the four `keep_stop_words` /
//! `skip_stemming` settings; and one `process_all` call over a batch,
//! whose surface-form memo is shared by every message, equals processing
//! each message alone.

use linkclust_corpus::porter::stem;
use linkclust_corpus::stopwords::is_stop_word;
use linkclust_corpus::token::tokenize;
use linkclust_corpus::TextPipeline;
use proptest::prelude::*;

/// Pieces of tweet-like text: URLs with mixed-case schemes, mentions,
/// hashtags, digits, non-ASCII letters, stop words and inflected words,
/// punctuation, and ASCII and Unicode whitespace (`split_whitespace` also
/// splits at U+0085, U+00A0, U+2003 and U+3000).
const PIECES: &[&str] = &[
    "http://",
    "HTTPS://",
    "hTtP://x.io/a",
    "https://t.co/9",
    "www.",
    "WwW.Example.com",
    "htt",
    "http:/",
    "@",
    "@bob",
    "@Alice_1",
    "#",
    "##",
    "#Tag",
    "#running",
    "0",
    "42",
    "x1y",
    "caf\u{e9}",
    "na\u{ef}ve",
    "\u{3b1}\u{3b2}",
    "\u{65e5}\u{672c}",
    "\u{fc}ber",
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "\u{b}",
    "\u{85}",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    "the",
    "THE",
    "and",
    "Running",
    "dogs",
    "storms",
    "Storm",
    "ponies",
    "caresses",
    "a",
    "I",
    "ab",
    "xyz",
    "!",
    "'",
    ".",
    ",",
    ":",
];

fn message() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..40)
        .prop_map(|pieces| pieces.into_iter().map(|i| PIECES[i]).collect())
}

/// The four settings, as `(keep_stop_words, skip_stemming)`.
const SETTINGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

fn pipeline((keep_stop_words, skip_stemming): (bool, bool)) -> TextPipeline {
    let mut p = TextPipeline::new();
    if keep_stop_words {
        p = p.keep_stop_words();
    }
    if skip_stemming {
        p = p.skip_stemming();
    }
    p
}

/// The reference: tokenize, drop stop words (on the surface form), stem.
fn oracle((keep_stop_words, skip_stemming): (bool, bool), text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| keep_stop_words || !is_stop_word(t))
        .map(|t| if skip_stemming { t } else { stem(&t) })
        .collect()
}

fn check_against_oracle(text: &str) {
    for setting in SETTINGS {
        let corpus = pipeline(setting).process(text);
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.document(0).words(), oracle(setting, text), "{setting:?} {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pipeline_equals_the_oracle_on_any_text(text in ".{0,200}") {
        check_against_oracle(&text);
    }

    #[test]
    fn pipeline_equals_the_oracle_on_tweet_like_text(text in message()) {
        check_against_oracle(&text);
    }

    #[test]
    fn a_batch_equals_each_message_alone(messages in proptest::collection::vec(message(), 0..8)) {
        for setting in SETTINGS {
            let p = pipeline(setting);
            let batch = p.process_all(&messages);
            prop_assert_eq!(batch.len(), messages.len());
            for (d, text) in messages.iter().enumerate() {
                let alone = p.process(text);
                prop_assert_eq!(batch.document(d), alone.document(0), "{:?} {:?}", setting, text);
            }
        }
    }
}

#[test]
fn unicode_whitespace_ends_a_mention() {
    for text in ["@bob\u{a0}hello", "@bob\u{2003}hello", "@bob\u{3000}hello", "@bob\u{85}hello"] {
        assert_eq!(tokenize(text), ["hello"], "{text:?}");
        check_against_oracle(text);
    }
}

#[test]
fn every_piece_and_every_pair_of_pieces() {
    for a in PIECES {
        check_against_oracle(a);
        for b in PIECES {
            check_against_oracle(&format!("{a}{b}"));
        }
    }
}

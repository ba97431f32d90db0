//! Property tests for the text pipeline: the stemmer and tokenizer must
//! be total (no panics), bounded, and consistent on arbitrary input.

use linkclust_corpus::porter::stem;
use linkclust_corpus::token::tokenize;
use linkclust_corpus::TextPipeline;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stem_never_panics_and_is_bounded(word in "[a-z]{0,24}") {
        let s = stem(&word);
        // Porter only ever removes suffixes or swaps them for shorter or
        // equal ones, except the `+e` restorations (at->ate, bl->ble,
        // iz->ize, cvc+e) which net at most one char over a *stripped*
        // stem — never over the input.
        prop_assert!(s.len() <= word.len() + 1, "{word} -> {s}");
        prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()) || s.is_empty());
    }

    #[test]
    fn stem_of_non_lowercase_is_identity(word in "[A-Za-z0-9]{1,16}") {
        if !word.bytes().all(|b| b.is_ascii_lowercase()) {
            prop_assert_eq!(stem(&word), word);
        }
    }

    #[test]
    fn tokenize_never_panics_and_tokens_are_clean(text in ".{0,200}") {
        for t in tokenize(&text) {
            prop_assert!(t.len() >= 2);
            prop_assert!(t.bytes().all(|b| b.is_ascii_lowercase()), "dirty token {t:?}");
        }
    }

    #[test]
    fn pipeline_is_deterministic(text in ".{0,200}") {
        let p = TextPipeline::new();
        prop_assert_eq!(p.process(&text), p.process(&text));
    }

    #[test]
    fn pipeline_filters_stop_words_before_stemming(text in "[a-zA-Z ,.!#@]{0,200}") {
        // Stop words are removed on the *surface* form (stemming can
        // coincidentally create stop-word strings, e.g. "ase" -> "as").
        let unstemmed = TextPipeline::new().skip_stemming().process(&text);
        let unstemmed = unstemmed.document(0).words();
        for t in &unstemmed {
            prop_assert!(!linkclust_corpus::stopwords::is_stop_word(t), "stop word {t} leaked");
        }
        // And the stemmed output is exactly the stem of the unstemmed one.
        let stemmed = TextPipeline::new().process(&text);
        let expected: Vec<String> = unstemmed.iter().map(|t| stem(t)).collect();
        prop_assert_eq!(stemmed.document(0).words(), expected);
    }
}

#[test]
fn stemmer_handles_pathological_repeats() {
    for w in ["ssssssss", "eeeeeeee", "bbbbbbbb", "inginginging", "sses", "ies", "ed", "ing"] {
        let _ = stem(w); // must not panic
    }
    assert_eq!(stem("sses"), "ss");
    assert_eq!(stem("ies"), "i");
}

//! Tweet-style tokenization.
//!
//! The paper tokenizes English tweets before stemming and stop-word
//! removal (§VII). This tokenizer handles the artifacts typical of that
//! domain: URLs, @-mentions, and #-hashtags are dropped or unwrapped, text
//! is lower-cased, and only alphabetic tokens of length ≥ 2 survive.
//!
//! [`tokenize`] states the rules and returns owned tokens; it is the
//! reference the text pipeline is tested against. The pipeline itself
//! reads words through `for_each_word`, which applies the same rules to
//! the message's bytes and lends each word as a slice of the input, so
//! scanning allocates nothing.

/// Splits `text` into normalized word tokens.
///
/// Rules, in order:
///
/// 1. whitespace-delimited chunks are examined one at a time;
/// 2. chunks starting with `http://`, `https://`, or `www.` (URLs) and
///    chunks starting with `@` (mentions) are dropped;
/// 3. a leading `#` is stripped (the hashtag's word is kept);
/// 4. the chunk is lower-cased and split at every non-alphabetic
///    character;
/// 5. pieces shorter than 2 characters are dropped.
///
/// # Examples
///
/// ```
/// use linkclust_corpus::token::tokenize;
///
/// let toks = tokenize("Check THIS out @bob: #Rust2026 rocks! https://x.io");
/// assert_eq!(toks, vec!["check", "this", "out", "rust", "rocks"]);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in text.split_whitespace() {
        if is_url(chunk) || chunk.starts_with('@') {
            continue;
        }
        let chunk = chunk.strip_prefix('#').unwrap_or(chunk);
        let mut word = String::new();
        for ch in chunk.chars() {
            if ch.is_ascii_alphabetic() {
                word.push(ch.to_ascii_lowercase());
            } else {
                push_word(&mut out, &mut word);
            }
        }
        push_word(&mut out, &mut word);
    }
    out
}

fn push_word(out: &mut Vec<String>, word: &mut String) {
    if word.len() >= 2 {
        out.push(std::mem::take(word));
    } else {
        word.clear();
    }
}

/// Calls `emit` with every token [`tokenize`] returns for `text`, in
/// order, as a slice of `text` before lower-casing.
pub(crate) fn for_each_word<'a>(text: &'a str, mut emit: impl FnMut(&'a str)) {
    for chunk in text.split_whitespace() {
        if is_url(chunk) || chunk.starts_with('@') {
            continue;
        }
        let chunk = chunk.strip_prefix('#').unwrap_or(chunk);
        // Every byte of a non-ASCII character is ≥ 0x80, so it ends a word
        // as the character does, and both ends of a run of ASCII letters
        // are character boundaries.
        let mut start = 0;
        for (i, b) in chunk.bytes().enumerate() {
            if !b.is_ascii_alphabetic() {
                if i - start >= 2 {
                    emit(&chunk[start..i]);
                }
                start = i + 1;
            }
        }
        if chunk.len() - start >= 2 {
            emit(&chunk[start..]);
        }
    }
}

fn is_url(chunk: &str) -> bool {
    ["http://", "https://", "www."].iter().any(|prefix| {
        chunk
            .as_bytes()
            .get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits() {
        assert_eq!(tokenize("Hello World"), vec!["hello", "world"]);
    }

    #[test]
    fn drops_urls_and_mentions() {
        assert_eq!(
            tokenize("see https://a.b/c and WWW.example.com @alice hi"),
            vec!["see", "and", "hi"]
        );
    }

    #[test]
    fn unwraps_hashtags() {
        assert_eq!(tokenize("#winning #Rust"), vec!["winning", "rust"]);
    }

    #[test]
    fn splits_on_punctuation_and_digits() {
        assert_eq!(tokenize("don't stop2think"), vec!["don", "stop", "think"]);
    }

    #[test]
    fn drops_short_tokens() {
        assert_eq!(tokenize("a I to x yz"), vec!["to", "yz"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
        assert!(tokenize("@only @mentions https://urls.only").is_empty());
    }

    #[test]
    fn non_ascii_is_a_separator() {
        assert_eq!(tokenize("caf\u{e9} news"), vec!["caf", "news"]);
    }
}

//! Reading real corpora from disk.
//!
//! The paper's workload is "the tweets collected during December 2011";
//! users with their own message dumps can load them here. The supported
//! format is the simplest interoperable one: **one message per line**,
//! UTF-8, blank lines skipped. Processing (tokenize → stop-filter →
//! stem) is applied on the fly.

use std::io::BufRead;
use std::path::Path;

use crate::doc::Corpus;
use crate::pipeline::TextPipeline;

/// Reads a one-message-per-line corpus from a reader, processing the
/// lines with `pipeline` in one pass (one [`TextPipeline::process_all`]
/// call). Blank lines are skipped; lines producing no tokens yield empty
/// documents (kept, so document indices line up with input lines minus
/// blanks).
///
/// # Errors
///
/// Propagates I/O errors from the reader.
///
/// # Examples
///
/// ```
/// use linkclust_corpus::{reader::read_messages, TextPipeline};
///
/// let text = "The cats are sleeping\n\nBig storms coming!\n";
/// let corpus = read_messages(text.as_bytes(), &TextPipeline::new())?;
/// assert_eq!(corpus.len(), 2);
/// assert_eq!(corpus.document(0).words(), ["cat", "sleep"]);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn read_messages<R: BufRead>(reader: R, pipeline: &TextPipeline) -> std::io::Result<Corpus> {
    let mut error = None;
    let lines = reader.lines().map_while(|line| line.map_err(|e| error = Some(e)).ok());
    let corpus = pipeline.process_all(lines.filter(|line| !line.trim().is_empty()));
    match error {
        Some(e) => Err(e),
        None => Ok(corpus),
    }
}

/// Reads a one-message-per-line corpus from a file path.
///
/// # Errors
///
/// Propagates filesystem and I/O errors.
pub fn read_messages_file<P: AsRef<Path>>(
    path: P,
    pipeline: &TextPipeline,
) -> std::io::Result<Corpus> {
    let file = std::fs::File::open(path)?;
    read_messages(std::io::BufReader::new(file), pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_processes_lines() {
        let text = "Running fast!\n@bob check https://x.io #clusters\n\nthe the the\n";
        let corpus = read_messages(text.as_bytes(), &TextPipeline::new()).unwrap();
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.document(0).words(), ["run", "fast"]);
        assert_eq!(corpus.document(1).words(), ["check", "cluster"]);
        assert!(corpus.document(2).is_empty()); // all stop words
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("linkclust_reader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tweets.txt");
        std::fs::write(&path, "storms ahead\nsunny days\n").unwrap();
        let corpus = read_messages_file(&path, &TextPipeline::new()).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.document(0).words(), ["storm", "ahead"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(read_messages_file("/definitely/not/here.txt", &TextPipeline::new()).is_err());
    }

    #[test]
    fn empty_input_gives_empty_corpus() {
        let corpus = read_messages("".as_bytes(), &TextPipeline::new()).unwrap();
        assert!(corpus.is_empty());
    }
}

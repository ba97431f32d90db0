//! A client for the `linkclustd` query server, and the names of the
//! query mix perfbench's `serve-mixed` load sends.
//!
//! [`ServeClient`] speaks the line protocol over one TCP connection;
//! [`int_field`] reads a flat integer field out of an answer. [`KINDS`]
//! names the query kinds of the mix and [`THETA_PALETTE`] the number of
//! distinct thresholds it draws from.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// The query kinds the load mix spans, with their stable JSON names.
pub const KINDS: [&str; 6] = ["cut", "edge", "vertex", "topk", "profile", "best"];

/// Distinct threshold values a load draws from — small enough
/// that the answer cache sees re-use, large enough to exercise many cut
/// levels.
pub const THETA_PALETTE: usize = 64;

/// A line-delimited JSON client over one TCP connection.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    response: String,
}

impl ServeClient {
    /// Connects to a listening daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient { reader, writer: BufWriter::new(stream), response: String::new() })
    }

    /// Sends one request line and reads the one response line.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; an empty response (server closed the
    /// connection) is an error.
    pub fn ask(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.response.trim_end())
    }
}

/// Pulls an integer field out of a flat JSON response without a full
/// parser: `"name":<digits>`.
#[must_use]
pub fn int_field(response: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = response.find(&needle)? + needle.len();
    let digits: String = response[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_field_extracts_flat_fields() {
        let r = r#"{"ok":true,"generation":7,"level":123,"clusters":4}"#;
        assert_eq!(int_field(r, "generation"), Some(7));
        assert_eq!(int_field(r, "clusters"), Some(4));
        assert_eq!(int_field(r, "absent"), None);
    }
}

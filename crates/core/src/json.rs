//! The workspace's one JSON parser ([`parse`]), string escaper
//! ([`write_escaped`]) and float writer ([`write_f64`]): `linkclustd`
//! requests, trace analysis and every artifact the `xtask` gates check
//! are read here, and traces, `RunReport`s, log lines, `linkclustd`
//! answers and bench-diff verdicts write through it. The grammar is
//! strict RFC 8259: no comments, no trailing commas, no NaN/Infinity,
//! no leading zeros, surrogate escapes only in valid pairs, and at most
//! 64 nested arrays and objects. Requests are untrusted input — every
//! malformed byte sequence must come back as `Err`, never a panic.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a number
    /// that is a whole number in `[0, 2^53]` (exactly representable).
    #[must_use]
    pub fn as_index(&self) -> Option<u64> {
        let x = self.as_f64()?;
        // float-cmp: exact range/wholeness test (NaN fails `contains`) —
        // any rounding would silently accept a different id than the
        // client sent.
        #[allow(clippy::float_cmp)]
        if (0.0..=9_007_199_254_740_992.0).contains(&x) && x.trunc() == x {
            // cast: `x` was just checked to be a whole number in [0, 2^53],
            // which u64 holds exactly.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(x as u64)
        } else {
            None
        }
    }
}

/// Parses one JSON document, requiring it to span the whole input
/// (ignoring surrounding whitespace).
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

/// How many arrays and objects may nest: hostile inputs must not
/// overflow the stack. The deepest documents the workspace writes,
/// `BENCH_scale.json` and `BENCH_init.json`, nest 6 deep.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("more than {MAX_DEPTH} nested arrays and objects at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let s = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    // Integer part: a lone 0, or a run of digits that starts with 1-9.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(bytes, pos);
        }
        _ => return Err(format!("invalid number at byte {start}")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(&b'e' | &b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(&b'+' | &b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    let x: f64 = text.parse().map_err(|_| format!("unparsable number {text:?}"))?;
    if !x.is_finite() {
        return Err(format!("number out of range: {text}"));
    }
    Ok(Json::Num(x))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let cp = parse_hex4(bytes, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require a following \uXXXX low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_owned());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_owned());
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("lone low surrogate")?
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("invalid escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x20 => return Err("control character in string".to_owned()),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte at once. Those bytes are ASCII, so the run ends on a
                // char boundary of the input, which is a valid `&str`.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8")?,
                );
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut cp = 0u32;
    for _ in 0..4 {
        let b = bytes.get(*pos).ok_or("unterminated \\u escape")?;
        let digit = match b {
            b'0'..=b'9' => u32::from(b - b'0'),
            b'a'..=b'f' => u32::from(b - b'a') + 10,
            b'A'..=b'F' => u32::from(b - b'A') + 10,
            _ => return Err("invalid hex digit in \\u escape".to_owned()),
        };
        cp = cp * 16 + digit;
        *pos += 1;
    }
    Ok(cp)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted and escaped).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` to `out` as a JSON number: `{x:?}`, the shortest text
/// that parses back to the same bits, which is valid JSON for every
/// finite value (`1.0`, `-0.0`, `1e-7`, `5e-324`). Non-finite values,
/// which JSON cannot represent, write `null`.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values_and_escapes() {
        let v = parse(r#"{"op":"cut","theta":0.25}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("cut"));
        assert_eq!(v.get("theta").unwrap().as_f64(), Some(0.25));
        assert!(v.get("missing").is_none());
        let v =
            parse(r#"{"a":[1,2.5,-3e2,true,false,null],"s":"x\n\"\u0041\ud83d\ude00"}"#).unwrap();
        let Json::Arr(items) = v.get("a").unwrap() else { panic!("not an array") };
        assert_eq!(items.len(), 6);
        assert_eq!(items[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"A\u{1F600}"));
    }

    /// The one accept/reject table of the grammar.
    #[test]
    fn accepts_and_rejects_the_rfc_8259_grammar() {
        for ok in [
            "null",
            " true ",
            "3",
            "0",
            "-0",
            "0.5",
            "-0.5e+10",
            "1E-3",
            "[]",
            "{}",
            "[0]",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\u00e9\\n\"}",
            "\"\\ud83d\\ude00\"",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("rejected {ok:?}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a':1}",
            "{a:1}",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "\"\\u12\"",
            "\"tab\there\"",
            "nul",
            "truefalse",
            "NaN",
            "Infinity",
            "-",
            "1.2.3",
            "1e999",
            "01x",
            "{\"a\":1} extra",
            "[1] trailing",
            // Rows the workspace's earlier parsers disagreed on: leading
            // zeros, bare fractions and signs, and lone surrogates.
            "01",
            "-01",
            "00.5",
            "[01]",
            ".5",
            "1.",
            "+1",
            "1.e3",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_64_levels() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        parse(&nested(64)).unwrap();
        assert!(parse(&nested(65)).is_err());
        assert!(parse(&nested(10_000)).is_err(), "no stack overflow on hostile input");
        let objects = "{\"k\":".repeat(64) + "1" + &"}".repeat(64);
        parse(&objects).unwrap();
    }

    #[test]
    fn as_index_accepts_exact_whole_numbers_only() {
        assert_eq!(parse("7").unwrap().as_index(), Some(7));
        assert_eq!(parse("0").unwrap().as_index(), Some(0));
        assert_eq!(parse("7.5").unwrap().as_index(), None);
        assert_eq!(parse("-1").unwrap().as_index(), None);
        assert_eq!(parse("1e300").unwrap().as_index(), None);
    }

    #[test]
    fn writer_escapes_and_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
        let mut num = String::new();
        write_f64(&mut num, 0.1);
        assert_eq!(parse(&num).unwrap().as_f64(), Some(0.1));
        for (x, text) in [(1.0, "1.0"), (-0.0, "-0.0"), (1e-7, "1e-7")] {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(out, text);
        }
        let mut nan = String::new();
        write_f64(&mut nan, f64::NAN);
        assert_eq!(nan, "null");
    }
}

//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json).
//!
//! Renders the serde shim's [`serde::Value`] data model to JSON and parses
//! JSON text back into it. Covers the subset the workspace needs:
//! `to_string`, `to_string_pretty`, `to_writer` and `from_str`.
//!
//! Parsing takes time linear in the input, accepts at most 128 nested
//! arrays/objects (the real crate's default recursion limit) and decodes
//! `\u` escapes, UTF-16 surrogate pairs included. Writing emits non-ASCII
//! characters as raw UTF-8 and escapes only what JSON requires.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Deepest array/object nesting [`from_str`] accepts. Deeper input is a
/// parse error rather than a stack overflow on the parsing thread.
const MAX_DEPTH: usize = 128;

/// Error produced by parsing or by the typed conversion after parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(err: serde::Error) -> Self {
        Error(err.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0).expect("writing to a String cannot fail");
    Ok(out)
}

/// Serializes `value` as human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0).expect("writing to a String cannot fail");
    Ok(out)
}

/// Serializes `value` as compact JSON into an [`std::io::Write`] sink —
/// the real crate's buffer-reusing entry point. The JSON streams straight
/// into the sink (no intermediate `String`), so callers reusing a cleared
/// per-line buffer genuinely avoid per-value allocations.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    struct IoSink<W: std::io::Write> {
        writer: W,
        error: Option<std::io::Error>,
    }
    impl<W: std::io::Write> fmt::Write for IoSink<W> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.writer.write_all(s.as_bytes()).map_err(|e| {
                self.error = Some(e);
                fmt::Error
            })
        }
    }
    let mut sink = IoSink {
        writer,
        error: None,
    };
    write_value(&mut sink, &value.to_value(), None, 0).map_err(|_| match sink.error {
        Some(e) => Error::new(e),
        None => Error::new("formatting failed"),
    })
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value<W: fmt::Write>(
    out: &mut W,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> fmt::Result {
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Int(i) => write!(out, "{i}"),
        Value::UInt(u) => write!(out, "{u}"),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip formatting; integral floats keep
                // a `.0` so they read back as floats semantically (either way
                // our reader coerces).
                write!(out, "{f}")
            } else {
                out.write_str("null")
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                return out.write_str("[]");
            }
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_char(']')
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                return out.write_str("{}");
            }
            out.write_char('{')?;
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, depth + 1)?;
                write_string(out, key)?;
                out.write_char(':')?;
                if indent.is_some() {
                    out.write_char(' ')?;
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth)?;
            out.write_char('}')
        }
    }
}

fn newline_indent<W: fmt::Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The input: `bytes` for scanning, `text` for copying out runs of
    /// plain string characters (already valid UTF-8, so never re-checked).
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Parses the value at `pos`; `depth` counts the arrays and objects
    /// around it.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(Error::new(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            ))),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\` in
            // one step. Both stop bytes are ASCII and every run starts just
            // past one (or past an all-ASCII escape), so the slice is
            // char-aligned.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000C}'),
                Some(b'u') => out.push(self.parse_unicode_escape()?),
                other => return Err(Error::new(format!("bad escape {other:?}"))),
            }
            self.pos += 1;
        }
    }

    /// Decodes the `\u` escape whose `u` is at `pos`, leaving `pos` on its
    /// last hex digit. A UTF-16 high surrogate must be followed by a `\u`
    /// low surrogate (how `ensure_ascii` encoders write characters beyond
    /// U+FFFF); the pair decodes to one character.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let invalid = || Error::new("invalid \\u escape");
        let mut code = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                return Err(invalid());
            }
            self.pos += 2;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(invalid());
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(invalid)
    }

    /// Reads exactly four hex digits after the `u` at `pos`, leaving `pos`
    /// on the last of them.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if text.is_empty() {
            return Err(Error::new(format!("expected value at offset {start}")));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    /// Any JSON value, as parsed.
    #[derive(Debug)]
    struct Wrapper(Value);
    impl Serialize for Wrapper {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    impl Deserialize for Wrapper {
        fn from_value(value: &Value) -> Result<Self, serde::Error> {
            Ok(Wrapper(value.clone()))
        }
    }

    /// One character of a class the codec treats differently: printable
    /// ASCII, a character with a short escape, a control byte, or 2-, 3-
    /// and 4-byte UTF-8.
    fn gen_char(class: u32, pick: u64) -> char {
        const ESCAPED: [char; 8] = ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'];
        let (lo, hi) = match class {
            0 => (0x20, 0x80),
            1 => return ESCAPED[(pick % ESCAPED.len() as u64) as usize],
            2 => (0x00, 0x20),
            3 => (0x80, 0x800),
            4 => (0x800, 0x1_0000),
            _ => (0x1_0000, 0x11_0000),
        };
        let code = lo + (pick % u64::from(hi - lo)) as u32;
        // The 3-byte range spans the surrogate gap, which is not a char.
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    /// `s` as a JSON string literal the way Python's default `json.dumps`
    /// writes it: ASCII only, everything else as `\u` escapes, characters
    /// beyond U+FFFF as UTF-16 surrogate pairs.
    fn ascii_only_literal(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                ' '..='~' => out.push(c),
                _ => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn strings_round_trip_byte_identical(
            chars in proptest::collection::vec((0u32..6, any::<u64>()), 0..48usize)
        ) {
            let s: String = chars.iter().map(|&(class, pick)| gen_char(class, pick)).collect();
            let back: String = from_str(&to_string(&s).unwrap()).unwrap();
            prop_assert_eq!(&back, &s);
            let back: String = from_str(&ascii_only_literal(&s)).unwrap();
            prop_assert_eq!(&back, &s);
            // Object keys go through the same string parser.
            let object = Value::Object(vec![(s.clone(), Value::Str(s.clone()))]);
            let parsed: Wrapper = from_str(&to_string(&Wrapper(object.clone())).unwrap()).unwrap();
            prop_assert_eq!(parsed.0, object);
        }
    }

    /// A `\u` escape with `digits` after the `u`.
    fn u(digits: &str) -> String {
        format!("\\u{digits}")
    }

    /// `body` between quotes, as is.
    fn quoted(body: &str) -> String {
        format!("\"{body}\"")
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        let worker: String = from_str(&quoted(&format!("w{}{}", u("d83d"), u("de00")))).unwrap();
        assert_eq!(worker, "w😀");
        let last: String = from_str(&quoted(&(u("DBFF") + &u("DFFF")))).unwrap();
        assert_eq!(last, "\u{10ffff}");
        for lone in [
            u("d83d"),
            u("d83d") + "x",
            u("d83d") + &u(""),
            u("d83d") + &u("d83d"),
            u("d83d") + &u("0041"),
            u("de00"),
        ] {
            let literal = quoted(&lone);
            let err = from_str::<String>(&literal).unwrap_err();
            assert!(err.to_string().contains("\\u escape"), "{literal}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let text: String = from_str(&quoted(&(u("0041") + &u("00e9") + &u("00E9")))).unwrap();
        assert_eq!(text, "Aéé");
        for digits in ["+041", "-041", " 041", "004g", "004"] {
            let literal = quoted(&u(digits));
            assert!(from_str::<String>(&literal).is_err(), "{literal} parsed");
        }
        // Input ending inside the escape.
        assert!(from_str::<String>(&format!("\"{}", u("004"))).is_err());
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Wrapper>(&arrays(MAX_DEPTH)).is_ok());
        let err = from_str::<Wrapper>(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = |depth: usize| format!("{}0{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        assert!(from_str::<Wrapper>(&objects(MAX_DEPTH)).is_ok());
        assert!(from_str::<Wrapper>(&objects(MAX_DEPTH + 1)).is_err());
        // Fails at the cap instead of recursing once per byte.
        assert!(from_str::<Wrapper>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn a_one_mib_string_decodes_in_linear_time() {
        let mut s = String::new();
        while s.len() < 1 << 20 {
            s.push_str(
                "plain ASCII, naïve 2-byte, ‘3-byte’, 😀 4-byte, a \"quote\" and a\nnewline; ",
            );
        }
        let literal = to_string(&s).unwrap();
        let started = Instant::now();
        let back: String = from_str(&literal).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(back, s);
        assert!(
            elapsed < Duration::from_secs(1),
            "decoding a 1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn values_round_trip_through_compact_and_pretty_json() {
        let value = Value::Object(vec![
            ("id".to_string(), Value::Str("fig 8 — \"warm\"".to_string())),
            ("n".to_string(), Value::UInt(42)),
            ("neg".to_string(), Value::Int(-3)),
            ("pi".to_string(), Value::Float(3.25)),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            (
                "rows".to_string(),
                Value::Array(vec![Value::Str("a\nb".to_string()), Value::Float(0.5)]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
        ]);
        for text in [
            to_string(&Wrapper(value.clone())).unwrap(),
            to_string_pretty(&Wrapper(value.clone())).unwrap(),
        ] {
            let parsed: Wrapper = from_str(&text).unwrap();
            assert_eq!(parsed.0, value);
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<String>("42 garbage").is_err());
        assert!(from_str::<Vec<u64>>("[1, 2").is_err());
    }
}

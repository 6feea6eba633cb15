//! Minimal, dependency-free JSON for the serve wire protocol.
//!
//! The serving layer speaks newline-delimited JSON, so it needs to
//! *parse* untrusted request lines and *render* response lines without
//! pulling a serialization crate into the offline workspace. This
//! module is the smallest JSON subset that does both:
//!
//! * [`JsonValue::parse`] — a recursive-descent parser over the full
//!   JSON grammar (objects, arrays, strings with escapes, numbers,
//!   booleans, null) that returns a structured [`JsonError`] carrying
//!   the byte offset of the first malformed construct. It never panics
//!   on any input: the negative-protocol corpus in
//!   `tests/protocol_negative.rs` pins this.
//! * [`escape_into`] / [`escape`] — the string-escaping half of
//!   rendering, re-exported from `focal-report` so the suite,
//!   `BENCH.json` and `focal-lint` escape alike.
//!   Responses are assembled in one buffer from fixed fragments and
//!   escaped values, so rendering is deterministic by construction:
//!   objects are emitted in a fixed key order, never iterated from a
//!   map.
//!
//! Objects parse into an order-preserving `Vec<(String, JsonValue)>`
//! rather than a hash map: iteration order is input order, which keeps
//! error reporting (first unknown key wins) deterministic.

use std::fmt;

pub use focal_report::{json_escape as escape, json_escape_into as escape_into};

/// Maximum nesting depth accepted by the parser. Request envelopes are
/// at most three levels deep (`{"batch": [{...}]}`), so this bounds
/// recursion long before any legitimate payload is affected.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an order-preserving key/value list.
    Obj(Vec<(String, JsonValue)>),
}

/// A structured parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input of the offending construct.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a request line is exactly one value).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// The string payload, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The first value under `key`, when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Byte-cursor recursive-descent parser.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `lit` (after its first byte has been peeked).
    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        // Caller peeked the opening quote.
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole. It ends on an ASCII byte (or the end of the
            // input) and starts after one, so it is a `&str` slice.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            if let Some(run) = self.text.get(start..self.pos) {
                out.push_str(run);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits of `\uXXXX` (surrogate pairs included);
    /// cursor is on the first hex digit, left after the last consumed
    /// digit's following position.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        // Surrogate pair: `\uD800`-`\uDBFF` must be followed by a low
        // surrogate escape.
        if (0xD800..0xDC00).contains(&hi) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape (need 4 hex digits)")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A second `-` can appear in an exponent (`1e-3`).
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: "invalid number".to_string(),
            }),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        // Caller peeked `[`.
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        // Caller peeked `{`.
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::Str("hi".into())
        );
        assert!(matches!(
            JsonValue::parse("-1.5e3").unwrap(),
            JsonValue::Num(n) if (n + 1500.0).abs() < 1e-9
        ));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = JsonValue::parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(v.get("b").and_then(JsonValue::as_array).unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{0007}✓";
        let wire = format!("\"{}\"", escape(original));
        assert_eq!(
            JsonValue::parse(&wire).unwrap(),
            JsonValue::Str(original.into())
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for (input, offset_hint) in [
            ("", 0),
            ("{", 1),
            ("{\"a\": }", 6),
            ("[1, 2", 5),
            ("\"unterminated", 13),
            ("nul", 0),
            ("{\"a\": 1} trailing", 9),
            ("{a: 1}", 1),
            ("1e999", 0),
        ] {
            let err = JsonValue::parse(input).unwrap_err();
            assert_eq!(err.offset, offset_hint, "input {input:?}: {err}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        assert!(JsonValue::parse(&bomb).is_err());
        let deep_ok = format!("{}1{}", "[".repeat(30), "]".repeat(30));
        assert!(JsonValue::parse(&deep_ok).is_ok());
    }

    #[test]
    fn duplicate_keys_are_preserved_first_wins_on_get() {
        let v = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert!(matches!(v.get("k"), Some(JsonValue::Num(_))));
    }

    /// The scalar-at-a-time string parser the run-copying
    /// `Parser::string` replaced, kept as its oracle. The cursor is on
    /// the opening quote.
    fn string_oracle(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.pos += 1;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            p.pos += 1;
                            out.push(p.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(p.err("invalid escape sequence")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control character in string")),
                Some(_) => {
                    let start = p.pos;
                    p.pos += 1;
                    while p.peek().is_some_and(|b| (0x80..0xC0).contains(&(b as u32))) {
                        p.pos += 1;
                    }
                    let chunk = p.bytes.get(start..p.pos).unwrap();
                    out.push_str(std::str::from_utf8(chunk).unwrap());
                }
            }
        }
    }

    /// Parses the string literal at the start of `text` with both
    /// parsers; they must agree on the value or error and on where
    /// they stopped.
    fn assert_parsers_agree(text: &str) {
        let parser = || Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let (mut fast, mut oracle) = (parser(), parser());
        let got = fast.string();
        let want = string_oracle(&mut oracle);
        assert_eq!(got, want, "input {text:?}");
        assert_eq!(fast.pos, oracle.pos, "input {text:?}");
    }

    /// Every byte below 0x80 (controls, quote, backslash, 0x7f) and a
    /// few multi-byte scalars, alone and between other text.
    fn edge_chars() -> Vec<char> {
        (0u8..0x80)
            .map(char::from)
            .chain(['é', 'α', '✓', '—', '😀', '\u{80}', '\u{7ff}', '\u{ffff}'])
            .collect()
    }

    #[test]
    fn parser_matches_the_oracle_on_every_edge_character() {
        for c in edge_chars() {
            for body in [
                c.to_string(),
                format!("a{c}b"),
                format!("\\{c}"),
                format!("\\u00{c}"),
            ] {
                assert_parsers_agree(&format!("\"{body}\""));
                assert_parsers_agree(&format!("\"{body}"));
            }
        }
    }

    /// Mostly plain text with quotes, backslashes, every control byte,
    /// 0x7f and multi-byte scalars mixed in.
    const EDGE_CLASS: &str = "[\u{0}-\u{1f}\"\\/\u{7f}a-fnrtu0-9 ,éα✓😀]{0,40}";

    proptest::proptest! {
        #[test]
        fn run_copying_parser_matches_the_oracle_on_raw_input(
            bodies in proptest::collection::vec(
                proptest::string::string_regex(EDGE_CLASS).unwrap(),
                1..16,
            ),
        ) {
            // Raw bodies hold unescaped controls, stray backslashes,
            // partial `\u` escapes and early quotes: the error paths.
            for body in &bodies {
                assert_parsers_agree(&format!("\"{body}\""));
                assert_parsers_agree(&format!("\"{body}"));
                assert_parsers_agree(&format!("\"{}\"", escape(body)));
                proptest::prop_assert_eq!(
                    JsonValue::parse(&format!("\"{}\"", escape(body))),
                    Ok(JsonValue::Str(body.clone()))
                );
            }
        }
    }
}

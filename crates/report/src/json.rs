//! JSON string escaping: the one escaper behind every JSON document the
//! workspace writes — `focal-serve` responses, the suite summary,
//! `BENCH.json` and `focal-lint`'s JSON and SARIF reports.

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included); see [`json_escape_into`] for the exact rules.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal (quotes not
/// included): `\"`, `\\`, `\n`, `\r` and `\t` for those bytes, `\u00xx`
/// (lowercase hex) for every other byte below 0x20, and everything else
/// — 0x7f and non-ASCII included — unchanged.
///
/// Runs that need no escaping are copied whole. Every escaped byte is
/// ASCII, so each run starts and ends on a UTF-8 boundary.
#[inline]
pub fn json_escape_into(out: &mut String, s: &str) {
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(s.get(run_start..i).unwrap_or_default());
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(hex_digit(b >> 4));
                out.push(hex_digit(b & 0xf));
            }
        }
        run_start = i + 1;
    }
    out.push_str(s.get(run_start..).unwrap_or_default());
}

/// The lowercase hex digit for a nibble.
fn hex_digit(nibble: u8) -> char {
    char::from_digit(u32::from(nibble), 16).unwrap_or('0')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-by-char escaper `json_escape_into` replaced, kept as its
    /// oracle.
    fn escape_oracle(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
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
    fn escape_matches_the_oracle_on_every_edge_character() {
        for c in edge_chars() {
            for s in [c.to_string(), format!("a{c}b"), format!("{c}{c}x{c}")] {
                assert_eq!(json_escape(&s), escape_oracle(&s), "{s:?}");
                let mut out = String::from("prefix");
                json_escape_into(&mut out, &s);
                assert_eq!(out, format!("prefix{}", escape_oracle(&s)));
            }
        }
    }

    /// Mostly plain text with quotes, backslashes, every control byte,
    /// 0x7f and multi-byte scalars mixed in.
    const EDGE_CLASS: &str = "[\u{0}-\u{1f}\"\\/\u{7f}a-fnrtu0-9 ,éα✓😀]{0,40}";

    proptest::proptest! {
        #[test]
        fn escape_into_matches_the_char_by_char_escaper(
            strings in proptest::collection::vec(
                proptest::string::string_regex(EDGE_CLASS).unwrap(),
                1..16,
            ),
        ) {
            for s in &strings {
                proptest::prop_assert_eq!(json_escape(s), escape_oracle(s));
            }
        }
    }
}

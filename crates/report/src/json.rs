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
/// Runs that need no escaping are found by [`find_json_special`] and
/// copied whole. Every escaped byte is ASCII, so each run starts and
/// ends on a UTF-8 boundary.
#[inline]
pub fn json_escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run_start = 0;
    loop {
        let at = find_json_special(bytes, run_start);
        out.push_str(s.get(run_start..at).unwrap_or_default());
        let Some(&b) = bytes.get(at) else {
            return;
        };
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
        run_start = at + 1;
    }
}

/// Index of the first byte at or after `from` that a JSON string cannot
/// hold raw — `"`, `\` or a byte below 0x20 — or `bytes.len()` when
/// there is none. The escaper copies the run before it whole, and
/// focal-serve's string parser does the same in reverse.
///
/// Eight bytes are tested per step, as one little-endian `u64`. Each
/// test sets the high bit of every byte that fails it; a borrow can set
/// a stray bit only above a byte that really fails, so the lowest set
/// bit marks the first special byte exactly. Bytes of 0x80 and above
/// (UTF-8 continuations and leads) never match.
#[inline]
#[must_use]
pub fn find_json_special(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const SPACES: u64 = 0x2020_2020_2020_2020;
    const QUOTES: u64 = 0x2222_2222_2222_2222;
    const BACKSLASHES: u64 = 0x5c5c_5c5c_5c5c_5c5c;
    let rest = bytes.get(from..).unwrap_or_default();
    let mut words = rest.chunks_exact(8);
    let mut at = from;
    for word in &mut words {
        let w = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default());
        let control = w.wrapping_sub(SPACES);
        let quote = (w ^ QUOTES).wrapping_sub(ONES);
        let backslash = (w ^ BACKSLASHES).wrapping_sub(ONES);
        // `!w` drops every byte of 0x80 and above from all three tests.
        let found = (control | quote | backslash) & !w & HIGHS;
        if found != 0 {
            return at + (found.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map_or(bytes.len(), |i| at + i)
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

    /// The byte-serial scan `find_json_special` replaced, kept as its
    /// oracle.
    fn special_oracle(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| matches!(bytes[i], 0..=0x1f | b'"' | b'\\'))
            .unwrap_or(bytes.len())
    }

    /// Checks the escaper and the scanner (from every start) on `s`.
    fn assert_agrees(s: &str) {
        assert_eq!(json_escape(s), escape_oracle(s), "{s:?}");
        for from in 0..=s.len() + 1 {
            assert_eq!(
                find_json_special(s.as_bytes(), from),
                special_oracle(s.as_bytes(), from),
                "{s:?} from {from}"
            );
        }
    }

    /// 32 plain bytes: enough for a run of at least 24 around any
    /// offset 0–15, so each edge byte lands in every lane of the word
    /// loop and, in the shorter strings, in the tail loop too.
    const PLAIN: &str = "the quick brown fox jumps over a";

    #[test]
    fn every_edge_character_is_found_at_every_offset_of_a_plain_run() {
        for c in edge_chars() {
            for offset in 0..16 {
                for len in [24, 27, 32] {
                    let s = format!("{}{c}{}", &PLAIN[..offset], &PLAIN[offset..len]);
                    assert_agrees(&s);
                    // Twice in one run, the second one word further on.
                    assert_agrees(&format!("{s}{}{c}", &PLAIN[..8]));
                }
            }
        }
    }

    /// Mostly plain text with quotes, backslashes, every control byte,
    /// 0x7f and multi-byte scalars mixed in.
    const EDGE_CLASS: &str = "[\u{0}-\u{1f}\"\\/\u{7f}a-fnrtu0-9 ,éα✓😀]{0,40}";
    /// Plain runs long enough for the word loop: printable ASCII but
    /// `"`, `\` and `]` (the shim's class syntax cannot hold a `]`),
    /// 0x7f and multi-byte scalars.
    const PLAIN_CLASS: &str = "[ -!#-[^-~\u{7f}éα✓😀]{0,40}";
    /// Zero or one byte that must be escaped.
    const SPECIAL_CLASS: &str = "[\u{0}-\u{1f}\"\\]{0,1}";

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

        #[test]
        fn scanner_matches_the_byte_serial_scan_on_long_plain_runs(
            pieces in proptest::collection::vec(
                (
                    proptest::string::string_regex(PLAIN_CLASS).unwrap(),
                    proptest::string::string_regex(SPECIAL_CLASS).unwrap(),
                ),
                1..8,
            ),
        ) {
            let s: String = pieces
                .iter()
                .flat_map(|(plain, special)| [plain.as_str(), special.as_str()])
                .collect();
            assert_agrees(&s);
        }
    }
}

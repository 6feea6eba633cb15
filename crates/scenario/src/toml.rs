//! A dependency-free, line-tracked parser for the TOML subset the
//! scenario DSL uses.
//!
//! Supported: `[table]` headers (dotted names allowed as literal
//! strings, e.g. `[assumptions.act]`), `key = value` pairs, `"strings"`
//! with `\"`/`\\`/`\n` escapes, integers, floats (including `nan`/`inf`,
//! which the schema layer then rejects with a structured error), `true`/
//! `false`, single-line (optionally nested) arrays, and `#` comments.
//! Every table and entry carries its 1-based source line so downstream
//! layers can report exact locations. Lookups are duplicate-checked at
//! parse time: a repeated table or key is an error, never a silent
//! override.

use crate::error::{Result, ScenarioError};

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (may be `nan`/`inf` at the parse layer; the schema layer
    /// rejects non-finite numbers with a structured error).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A (possibly nested) array.
    Array(Vec<Value>),
}

impl Value {
    /// A short name for error messages (`"string"`, `"integer"`, …).
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` entry with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// 1-based source line of the entry.
    pub line: u32,
    /// The parsed value.
    pub value: Value,
}

/// One `[name]` table and its entries, in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table name (dotted names kept verbatim: `"assumptions.act"`).
    pub name: String,
    /// 1-based source line of the header.
    pub line: u32,
    /// Entries in source order (duplicate keys rejected at parse time).
    pub entries: Vec<Entry>,
}

impl Table {
    /// Looks up an entry by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed scenario document: tables in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    /// Tables in source order (duplicate names rejected at parse time).
    pub tables: Vec<Table>,
}

impl Document {
    /// Looks up a table by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// Strips a trailing `#` comment, honouring double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
        } else if c == '#' {
            return line.get(..idx).unwrap_or(line);
        }
    }
    line
}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn valid_table_name(name: &str) -> bool {
    !name.is_empty() && name.split('.').all(valid_key)
}

/// Decodes a double-quoted string body (without the quotes).
fn unescape(body: &str, line: u32) -> Result<String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => {
                return Err(
                    ScenarioError::new(format!("unsupported string escape `\\{other}`"))
                        .at_line(line),
                );
            }
            None => {
                return Err(ScenarioError::new("string ends in a bare backslash").at_line(line));
            }
        }
    }
    Ok(out)
}

/// Splits an array body on top-level commas, honouring nested brackets
/// and strings.
fn split_array_elements(body: &str, line: u32) -> Result<Vec<&str>> {
    let mut elements = Vec::new();
    let mut depth: u32 = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0;
    for (idx, c) in body.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => depth += 1,
            ']' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| ScenarioError::new("unbalanced `]` in array").at_line(line))?;
            }
            ',' if depth == 0 => {
                elements.push(body.get(start..idx).unwrap_or(""));
                start = idx + c.len_utf8();
            }
            _ => {}
        }
    }
    if in_string {
        return Err(ScenarioError::new("unterminated string in array").at_line(line));
    }
    if depth != 0 {
        return Err(ScenarioError::new("unbalanced `[` in array").at_line(line));
    }
    elements.push(body.get(start..).unwrap_or(""));
    // A single trailing comma is fine; interior empties are not.
    if let Some(last) = elements.last() {
        if last.trim().is_empty() {
            elements.pop();
        }
    }
    if elements.iter().any(|e| e.trim().is_empty()) {
        return Err(ScenarioError::new("empty element in array").at_line(line));
    }
    Ok(elements)
}

/// Deepest array nesting a value may have, the same bound the wire
/// protocol's JSON reader uses. No schema key takes more than one level;
/// the bound keeps a hostile `[[[…]]]` from exhausting the stack.
pub const MAX_ARRAY_DEPTH: usize = 32;

/// Parses one value (recursively for arrays, at most
/// [`MAX_ARRAY_DEPTH`] deep).
fn parse_value(text: &str, line: u32, depth: usize) -> Result<Value> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| ScenarioError::new("unterminated string value").at_line(line))?;
        // Reject `"a" trailing` style values: a quote inside the body
        // that is not escaped means the string ended early.
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Err(
                    ScenarioError::new("unexpected content after string value").at_line(line)
                );
            }
        }
        return Ok(Value::Str(unescape(body, line)?));
    }
    if let Some(rest) = text.strip_prefix('[') {
        if depth >= MAX_ARRAY_DEPTH {
            return Err(ScenarioError::new(format!(
                "arrays nest deeper than {MAX_ARRAY_DEPTH} levels"
            ))
            .at_line(line));
        }
        let body = rest.strip_suffix(']').ok_or_else(|| {
            ScenarioError::new("unterminated array value (arrays are single-line)").at_line(line)
        })?;
        let mut values = Vec::new();
        for element in split_array_elements(body, line)? {
            values.push(parse_value(element, line, depth + 1)?);
        }
        return Ok(Value::Array(values));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(ScenarioError::new(format!("unparseable value `{text}`")).at_line(line))
}

/// Parses a scenario document. `file` is recorded in every error.
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the offending line for any
/// construct outside the supported subset, and for duplicate tables or
/// duplicate keys within a table.
pub fn parse(text: &str, file: &str) -> Result<Document> {
    let mut doc = Document::default();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| {
                    ScenarioError::new("malformed table header (missing `]`)")
                        .in_file(file)
                        .at_line(line_no)
                })?
                .trim();
            if !valid_table_name(name) {
                return Err(ScenarioError::new(format!(
                    "invalid table name `{name}` (expected bare or dotted keys)"
                ))
                .in_file(file)
                .at_line(line_no));
            }
            if doc.table(name).is_some() {
                return Err(ScenarioError::new(format!("duplicate table `[{name}]`"))
                    .in_file(file)
                    .at_line(line_no)
                    .for_key(name));
            }
            doc.tables.push(Table {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let (key, value_text) = line.split_once('=').ok_or_else(|| {
            ScenarioError::new("expected `key = value` or a `[table]` header")
                .in_file(file)
                .at_line(line_no)
        })?;
        let key = key.trim();
        if !valid_key(key) {
            return Err(ScenarioError::new(format!(
                "invalid key `{key}` (bare keys only: letters, digits, `_`, `-`)"
            ))
            .in_file(file)
            .at_line(line_no));
        }
        let value = parse_value(value_text, line_no, 0).map_err(|e| {
            let mut e = e.in_file(file);
            e.key = Some(key.to_string());
            e
        })?;
        let table = doc.tables.last_mut().ok_or_else(|| {
            ScenarioError::new("key appears before any [table] header")
                .in_file(file)
                .at_line(line_no)
                .for_key(key)
        })?;
        if table.get(key).is_some() {
            return Err(ScenarioError::new(format!(
                "duplicate key `{key}` in table `[{}]`",
                table.name
            ))
            .in_file(file)
            .at_line(line_no)
            .for_key(key));
        }
        table.entries.push(Entry {
            key: key.to_string(),
            line: line_no,
            value,
        });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_entries_and_comments() {
        let doc = parse(
            "# header comment\n[scenario]\nid = \"fig3\" # inline\nindex = 3\n\n[params]\ngamma = 0.2\nflags = [true, false]\n",
            "t.toml",
        )
        .unwrap();
        assert_eq!(doc.tables.len(), 2);
        let scenario = doc.table("scenario").unwrap();
        assert_eq!(scenario.line, 2);
        assert_eq!(scenario.get("id").unwrap().value, Value::Str("fig3".into()));
        assert_eq!(scenario.get("index").unwrap().value, Value::Int(3));
        let params = doc.table("params").unwrap();
        assert_eq!(params.get("gamma").unwrap().value, Value::Float(0.2));
        assert_eq!(
            params.get("flags").unwrap().value,
            Value::Array(vec![Value::Bool(true), Value::Bool(false)])
        );
    }

    #[test]
    fn tracks_lines() {
        let doc = parse("[a]\nx = 1\n\ny = 2\n", "t.toml").unwrap();
        let a = doc.table("a").unwrap();
        assert_eq!(a.get("x").unwrap().line, 2);
        assert_eq!(a.get("y").unwrap().line, 4);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("[a]\ns = \"x # y\"\n", "t.toml").unwrap();
        assert_eq!(
            doc.table("a").unwrap().get("s").unwrap().value,
            Value::Str("x # y".into())
        );
    }

    #[test]
    fn nested_arrays_parse() {
        let doc = parse("[a]\nbands = [[0.7, 0.9], [0.1, 0.3]]\n", "t.toml").unwrap();
        assert_eq!(
            doc.table("a").unwrap().get("bands").unwrap().value,
            Value::Array(vec![
                Value::Array(vec![Value::Float(0.7), Value::Float(0.9)]),
                Value::Array(vec![Value::Float(0.1), Value::Float(0.3)]),
            ])
        );
    }

    #[test]
    fn array_nesting_is_bounded() {
        let nested = |levels: usize| {
            format!(
                "[a]\nxs = {}0.2{}\n",
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        assert!(parse(&nested(MAX_ARRAY_DEPTH), "t.toml").is_ok());
        for levels in [MAX_ARRAY_DEPTH + 1, 50_000] {
            let e = parse(&nested(levels), "t.toml").unwrap_err();
            assert_eq!(e.line, Some(2));
            assert_eq!(e.key.as_deref(), Some("xs"));
            assert!(e.to_string().contains("nest deeper than 32"), "{e}");
        }
    }

    #[test]
    fn trailing_comma_is_accepted() {
        let doc = parse("[a]\nxs = [1, 2,]\n", "t.toml").unwrap();
        assert_eq!(
            doc.table("a").unwrap().get("xs").unwrap().value,
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn nan_and_inf_parse_as_floats() {
        let doc = parse("[a]\nx = nan\ny = inf\n", "t.toml").unwrap();
        let a = doc.table("a").unwrap();
        match a.get("x").unwrap().value {
            Value::Float(v) => assert!(v.is_nan()),
            ref other => panic!("expected float, got {other:?}"),
        }
        match a.get("y").unwrap().value {
            Value::Float(v) => assert!(v.is_infinite()),
            ref other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_table_is_an_error() {
        let e = parse("[a]\n[b]\n[a]\n", "t.toml").unwrap_err();
        assert_eq!(e.line, Some(3));
        assert!(e.to_string().contains("duplicate table"), "{e}");
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let e = parse("[a]\nx = 1\nx = 2\n", "t.toml").unwrap_err();
        assert_eq!(e.line, Some(3));
        assert_eq!(e.key.as_deref(), Some("x"));
    }

    #[test]
    fn key_before_table_is_an_error() {
        let e = parse("x = 1\n[a]\n", "t.toml").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.to_string().contains("before any"), "{e}");
    }

    #[test]
    fn malformed_lines_are_errors_with_lines() {
        for (text, line) in [
            ("[a\n", 1),
            ("[a]\nno equals\n", 2),
            ("[a]\nx = \"open\n", 2),
            ("[a]\nx = [1, 2\n", 2),
            ("[a]\nx = {}\n", 2),
            ("[a]\nx = [1, , 2]\n", 2),
            ("[a]\nbad key = 1\n", 2),
        ] {
            let e = parse(text, "t.toml").unwrap_err();
            assert_eq!(e.line, Some(line), "{text:?} → {e}");
            assert_eq!(e.file.as_deref(), Some("t.toml"));
        }
    }

    #[test]
    fn unbalanced_bracket_inside_array_errors() {
        assert!(parse("[a]\nx = [1, ]2]\n", "t.toml").is_err());
    }

    #[test]
    fn string_escapes_decode() {
        let doc = parse("[a]\ns = \"a\\\"b\\\\c\\nd\"\n", "t.toml").unwrap();
        assert_eq!(
            doc.table("a").unwrap().get("s").unwrap().value,
            Value::Str("a\"b\\c\nd".into())
        );
    }
}

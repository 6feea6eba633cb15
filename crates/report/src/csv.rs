//! Minimal CSV writing (RFC 4180 quoting), hand-rolled to keep the
//! dependency set to the approved list.

use std::fmt::Write as _;

/// Appends one CSV cell to `out` with RFC 4180 quoting: a cell that
/// contains `,`, `"`, `\n` or `\r` is wrapped in quotes and its quotes
/// are doubled; any other cell is copied as is.
///
/// This is the one cell writer behind [`CsvWriter`]; renderers that
/// build CSV straight into their own buffer call it too, so every CSV
/// the workspace writes quotes alike.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// focal_report::push_cell(&mut out, "plain");
/// out.push(',');
/// focal_report::push_cell(&mut out, "a \"b\", c");
/// assert_eq!(out, "plain,\"a \"\"b\"\", c\"");
/// ```
pub fn push_cell(out: &mut String, cell: &str) {
    if !cell.contains([',', '"', '\n', '\r']) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for (i, part) in cell.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Builds CSV text row by row.
///
/// # Examples
///
/// ```
/// use focal_report::CsvWriter;
///
/// let mut csv = CsvWriter::new(vec!["die_mm2", "footprint"]);
/// csv.row(&["100".to_string(), "1.0".to_string()]);
/// csv.row_numeric(&[800.0, 16.98]);
/// let text = csv.finish();
/// assert!(text.starts_with("die_mm2,footprint\n"));
/// ```
#[derive(Debug, Clone)]
pub struct CsvWriter {
    columns: usize,
    out: String,
}

impl CsvWriter {
    /// Creates a writer with a header row.
    pub fn new<S: AsRef<str>>(headers: Vec<S>) -> Self {
        let mut w = CsvWriter {
            columns: headers.len(),
            out: String::new(),
        };
        w.push_row(headers.iter().map(AsRef::as_ref));
        w
    }

    fn push_row<'a>(&mut self, cells: impl Iterator<Item = &'a str>) {
        for (i, cell) in cells.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_cell(&mut self.out, cell);
        }
        self.out.push('\n');
    }

    /// Appends a row of string cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.columns, "CSV row width mismatch");
        self.push_row(cells.iter().map(String::as_str));
        self
    }

    /// Appends a row of numbers (full precision via `{}`).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_numeric(&mut self, values: &[f64]) -> &mut Self {
        assert_eq!(values.len(), self.columns, "CSV row width mismatch");
        let mut first = true;
        for v in values {
            if !first {
                self.out.push(',');
            }
            write!(self.out, "{v}").expect("writing to String cannot fail");
            first = false;
        }
        self.out.push('\n');
        self
    }

    /// Consumes the writer, returning the CSV text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let mut w = CsvWriter::new(vec!["a", "b"]);
        w.row(&["1".into(), "2".into()]);
        w.row_numeric(&[3.5, 4.25]);
        let text = w.finish();
        assert_eq!(text, "a,b\n1,2\n3.5,4.25\n");
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let mut w = CsvWriter::new(vec!["label"]);
        w.row(&["hello, \"world\"".into()]);
        let text = w.finish();
        assert_eq!(text, "label\n\"hello, \"\"world\"\"\"\n");
    }

    #[test]
    fn newlines_are_quoted() {
        let mut w = CsvWriter::new(vec!["x"]);
        w.row(&["line1\nline2".into()]);
        assert!(w.finish().contains("\"line1\nline2\""));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut w = CsvWriter::new(vec!["a", "b"]);
        w.row_numeric(&[1.0]);
    }

    #[test]
    fn headers_are_escaped_too() {
        let w = CsvWriter::new(vec!["a,b", "c"]);
        assert!(w.finish().starts_with("\"a,b\",c\n"));
    }

    /// The allocating cell escaper `push_cell` replaced, kept as its
    /// oracle.
    fn escape_oracle(cell: &str) -> String {
        if cell.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }

    proptest::proptest! {
        #[test]
        fn push_cell_matches_the_allocating_escaper(
            cells in proptest::collection::vec(
                proptest::string::string_regex("[a-c ,\"\n\r\t;é✓]{0,16}").unwrap(),
                1..12,
            ),
        ) {
            for cell in &cells {
                let mut out = String::from("x,");
                push_cell(&mut out, cell);
                proptest::prop_assert_eq!(out, format!("x,{}", escape_oracle(cell)));
            }
            let mut w = CsvWriter::new(cells.clone());
            w.row(&cells);
            let line: Vec<String> = cells.iter().map(|c| escape_oracle(c)).collect();
            let line = line.join(",");
            proptest::prop_assert_eq!(w.finish(), format!("{line}\n{line}\n"));
        }
    }
}

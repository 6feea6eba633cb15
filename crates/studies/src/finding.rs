//! Common structures for the paper's 17 findings: each study reports the
//! quantitative claims it reproduces as paper-vs-measured metrics.

use focal_report::{write_fixed, Table};
use std::fmt;

/// One quantitative claim from a finding: the paper's number versus what
/// this reproduction measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// What is being measured (e.g. `"NCF_ft,0.2 (32 BCE, f=0.95)"`).
    pub name: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction computes.
    pub measured: f64,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
}

impl Metric {
    /// Creates a metric row.
    pub fn new(name: impl Into<String>, paper: f64, measured: f64, tolerance: f64) -> Self {
        Metric {
            name: name.into(),
            paper,
            measured,
            tolerance,
        }
    }

    /// `true` if the measured value is within tolerance of the paper's.
    pub fn matches(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

impl fmt::Display for Metric {
    /// `{name}: paper {paper:.4}, measured {measured:.4} (ok|MISMATCH)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        f.write_str(": paper ")?;
        write_fixed(f, self.paper, 4)?;
        f.write_str(", measured ")?;
        write_fixed(f, self.measured, 4)?;
        f.write_str(if self.matches() {
            " (ok)"
        } else {
            " (MISMATCH)"
        })
    }
}

/// One of the paper's 17 findings, with its reproduced metrics and the
/// qualitative verdict check.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Finding number (1–17).
    pub id: u8,
    /// The paper's one-line claim.
    pub claim: &'static str,
    /// Quantitative paper-vs-measured rows.
    pub metrics: Vec<Metric>,
    /// `true` if the qualitative conclusion (the sustainability
    /// classification) reproduces.
    pub qualitative_holds: bool,
    /// Optional note on known deviations (e.g. paper phrasing ambiguity).
    pub note: Option<&'static str>,
}

impl Finding {
    /// `true` if the qualitative verdict holds and every metric matches.
    pub fn reproduces(&self) -> bool {
        self.qualitative_holds && self.metrics.iter().all(Metric::matches)
    }

    /// Renders the finding's metrics as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "paper", "measured", "ok"]);
        for m in &self.metrics {
            t.row(vec![
                m.name.clone(),
                format!("{:.4}", m.paper),
                format!("{:.4}", m.measured),
                if m.matches() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        t
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Finding #{} — {} [{}]",
            self.id,
            self.claim,
            if self.reproduces() {
                "REPRODUCES"
            } else {
                "CHECK"
            }
        )?;
        for m in &self.metrics {
            writeln!(f, "  {m}")?;
        }
        if let Some(n) = self.note {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tolerance_check() {
        assert!(Metric::new("x", 1.0, 1.005, 0.01).matches());
        assert!(!Metric::new("x", 1.0, 1.02, 0.01).matches());
        assert!(Metric::new("exact", 2.0, 2.0, 0.0).matches());
    }

    #[test]
    fn finding_reproduces_requires_everything() {
        let good = Finding {
            id: 1,
            claim: "test",
            metrics: vec![Metric::new("m", 1.0, 1.0, 0.01)],
            qualitative_holds: true,
            note: None,
        };
        assert!(good.reproduces());

        let bad_metric = Finding {
            metrics: vec![Metric::new("m", 1.0, 2.0, 0.01)],
            ..good.clone()
        };
        assert!(!bad_metric.reproduces());

        let bad_verdict = Finding {
            qualitative_holds: false,
            ..good
        };
        assert!(!bad_verdict.reproduces());
    }

    #[test]
    fn display_summarizes() {
        let f = Finding {
            id: 3,
            claim: "parallel software wins",
            metrics: vec![Metric::new("perf", 1.17, 1.171, 0.01)],
            qualitative_holds: true,
            note: Some("a note"),
        };
        let s = f.to_string();
        assert!(s.contains("Finding #3"));
        assert!(s.contains("REPRODUCES"));
        assert!(s.contains("a note"));
    }

    #[test]
    fn table_flags_mismatches() {
        let f = Finding {
            id: 1,
            claim: "c",
            metrics: vec![Metric::new("bad", 1.0, 9.9, 0.01)],
            qualitative_holds: true,
            note: None,
        };
        assert!(f.to_table().to_text().contains("NO"));
    }
}

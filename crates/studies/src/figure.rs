//! Common figure structures: every study exposes its paper figure as a
//! [`Figure`] of [`Panel`]s of [`focal_core::SweepSeries`].

use focal_core::SweepSeries;
use focal_report::{push_cell, write_shortest, AsciiChart, ChartSeries};

/// The CSV header row every panel starts with.
const CSV_HEADER: &str = "series,label,performance,ncf\n";

/// Bytes reserved per CSV row beyond its series name and label: the
/// separators, the newline and two floats of typical length. Rows with
/// longer floats only grow the buffer.
const CSV_ROW_SLACK: usize = 40;

/// One panel of a paper figure (e.g. Figure 3(a) "embodied dominated,
/// fixed-work").
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel title, matching the paper's subcaption.
    pub title: String,
    /// The curves in this panel.
    pub series: Vec<SweepSeries>,
}

impl Panel {
    /// Creates a panel.
    pub fn new(title: impl Into<String>, series: Vec<SweepSeries>) -> Self {
        Panel {
            title: title.into(),
            series,
        }
    }

    /// Renders the panel as an ASCII chart (performance on x, NCF on y).
    pub fn to_chart(&self, width: usize, height: usize) -> AsciiChart {
        const SYMBOLS: [char; 10] = ['o', 'x', '+', '*', '#', '@', '%', '&', '=', '~'];
        let mut chart = AsciiChart::new(self.title.clone(), width, height);
        for (i, s) in self.series.iter().enumerate() {
            chart = chart.series(ChartSeries::new(
                s.name.clone(),
                SYMBOLS[i % SYMBOLS.len()],
                s.points.iter().map(|p| (p.performance, p.ncf)).collect(),
            ));
        }
        chart
    }

    /// Renders the panel's data as CSV
    /// (`series,label,performance,ncf` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.csv_len_hint());
        self.write_csv(&mut out);
        out
    }

    /// Appends the panel's CSV to `out`: the header row, then one row
    /// per point with its series name and label quoted as RFC 4180
    /// requires and both values as `{}` Display writes them.
    fn write_csv(&self, out: &mut String) {
        out.push_str(CSV_HEADER);
        for s in &self.series {
            for p in &s.points {
                push_cell(out, &s.name);
                out.push(',');
                push_cell(out, &p.label);
                out.push(',');
                // Writing into a `String` cannot fail.
                let _ = write_shortest(out, p.performance);
                out.push(',');
                let _ = write_shortest(out, p.ncf);
                out.push('\n');
            }
        }
    }

    /// A capacity that usually holds [`Panel::to_csv`] without growing.
    fn csv_len_hint(&self) -> usize {
        CSV_HEADER.len()
            + self
                .series
                .iter()
                .map(|s| {
                    s.points
                        .iter()
                        .map(|p| s.name.len() + p.label.len() + CSV_ROW_SLACK)
                        .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// A complete paper figure: an identifier, caption and panels.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure identifier (e.g. `"fig3"`).
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub caption: &'static str,
    /// The panels, in the paper's order.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Creates a figure.
    pub fn new(id: &'static str, caption: &'static str, panels: Vec<Panel>) -> Self {
        Figure {
            id,
            caption,
            panels,
        }
    }

    /// Renders every panel as CSV, concatenated with panel headers
    /// (`# {id} — {title}`), into one buffer.
    pub fn to_csv(&self) -> String {
        // Each panel line adds 8 bytes: "# ", " — " (the dash is 3
        // bytes in UTF-8) and the newline.
        let hint = self
            .panels
            .iter()
            .map(|p| self.id.len() + p.title.len() + 8 + p.csv_len_hint())
            .sum();
        let mut out = String::with_capacity(hint);
        for p in &self.panels {
            out.push_str("# ");
            out.push_str(self.id);
            out.push_str(" — ");
            out.push_str(&p.title);
            out.push('\n');
            p.write_csv(&mut out);
        }
        out
    }

    /// Renders the whole figure as ASCII charts.
    pub fn to_text(&self, width: usize, height: usize) -> String {
        let mut out = format!("{}: {}\n\n", self.id, self.caption);
        for p in &self.panels {
            out.push_str(&p.to_chart(width, height).render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut s = SweepSeries::new("f=0.5");
        s.push_raw("2 cores", 1.33, 0.9);
        s.push_raw("4 cores", 1.6, 0.8);
        Figure::new(
            "figX",
            "a test figure",
            vec![Panel::new("panel (a)", vec![s])],
        )
    }

    #[test]
    fn csv_contains_all_points() {
        let csv = sample_figure().to_csv();
        assert!(csv.contains("# figX — panel (a)"));
        assert!(csv.contains("f=0.5,2 cores,1.33,0.9"));
        assert!(csv.contains("f=0.5,4 cores,1.6,0.8"));
    }

    #[test]
    fn text_render_includes_caption_and_chart() {
        let text = sample_figure().to_text(30, 8);
        assert!(text.contains("a test figure"));
        assert!(text.contains("panel (a)"));
        assert!(text.contains("f=0.5"));
    }

    #[test]
    fn chart_assigns_distinct_symbols() {
        let mut a = SweepSeries::new("a");
        a.push_raw("p", 1.0, 1.0);
        let mut b = SweepSeries::new("b");
        b.push_raw("p", 2.0, 2.0);
        let panel = Panel::new("t", vec![a, b]);
        let text = panel.to_chart(20, 6).render();
        assert!(text.contains("  o a"));
        assert!(text.contains("  x b"));
    }

    /// The per-cell rendering `to_csv` replaced: one `CsvWriter` per
    /// panel and a `String` per cell, kept as the oracle.
    fn reference_csv(figure: &Figure) -> String {
        let mut out = String::new();
        for panel in &figure.panels {
            out.push_str(&format!("# {} — {}\n", figure.id, panel.title));
            let mut csv =
                focal_report::CsvWriter::new(vec!["series", "label", "performance", "ncf"]);
            for s in &panel.series {
                for p in &s.points {
                    csv.row(&[
                        s.name.clone(),
                        p.label.clone(),
                        format!("{}", p.performance),
                        format!("{}", p.ncf),
                    ]);
                }
            }
            out.push_str(&csv.finish());
        }
        out
    }

    /// Mostly ordinary labels, with every character CSV must quote.
    const CELL_CLASS: &str = "[a-z0-9 ,\"\n\r=.éα✓]{0,12}";

    /// Values CSV writes through `{}`: specials first, then anything.
    fn value(pick: u8, x: f64) -> f64 {
        match pick {
            0 => -0.0,
            1 => 0.0,
            2 => f64::MIN_POSITIVE / 3.0,
            3 => 5e-324,
            4 => 1e300,
            5 => f64::NAN,
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            8 => f64::MAX,
            _ => x,
        }
    }

    proptest::proptest! {
        #[test]
        fn one_buffer_csv_matches_the_csv_writer_reference(
            panels in proptest::collection::vec(
                (
                    proptest::string::string_regex(CELL_CLASS).unwrap(),
                    proptest::collection::vec(
                        (
                            proptest::string::string_regex(CELL_CLASS).unwrap(),
                            proptest::collection::vec(
                                (
                                    proptest::string::string_regex(CELL_CLASS).unwrap(),
                                    (0u8..16, proptest::any::<f64>()),
                                    (0u8..16, proptest::any::<f64>()),
                                ),
                                0..6,
                            ),
                        ),
                        0..4,
                    ),
                ),
                0..4,
            ),
        ) {
            let panels: Vec<Panel> = panels
                .into_iter()
                .map(|(title, series)| {
                    let series = series
                        .into_iter()
                        .map(|(name, points)| {
                            let mut s = SweepSeries::new(name);
                            for (label, (pp, px), (np, nx)) in points {
                                s.push_raw(label, value(pp, px), value(np, nx));
                            }
                            s
                        })
                        .collect();
                    Panel::new(title, series)
                })
                .collect();
            let figure = Figure::new("figP", "property", panels);
            proptest::prop_assert_eq!(figure.to_csv(), reference_csv(&figure));
            for panel in &figure.panels {
                let single = Figure::new("figP", "one", vec![panel.clone()]);
                let header = format!("# figP — {}\n", panel.title);
                proptest::prop_assert_eq!(
                    format!("{header}{}", panel.to_csv()),
                    reference_csv(&single)
                );
            }
        }
    }
}

//! # focal-report — harness output rendering
//!
//! Text tables, CSV, and ASCII charts used by the `focal-bench` harness to
//! print the regenerated paper figures and findings:
//!
//! * [`Table`] — aligned plain-text and Markdown tables.
//! * [`CsvWriter`] — RFC-4180 CSV for downstream plotting, and
//!   [`push_cell`], its cell writer, for renderers with their own buffer.
//! * [`json_escape`] / [`json_escape_into`] — the one JSON string
//!   escaper: `focal-serve` responses, the suite summary, `BENCH.json`
//!   and `focal-lint`'s JSON reports all escape through it.
//! * [`write_shortest`] / [`write_fixed`] — an `f64` written byte for
//!   byte as `{}` / `{:.N}` write it, several times faster: Ryu-style
//!   shortest digits from power-of-5 tables computed at compile time,
//!   and exact `u128` fixed-point rounding. The figure CSV, finding and
//!   robustness renderers and the scenario crate's canonical writer use
//!   them; differential tests pin them to core's formatting.
//! * [`AsciiChart`] / [`ChartSeries`] — terminal scatter plots of each
//!   figure's series.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod chart;
mod csv;
mod float;
mod json;
mod table;

pub use chart::{AsciiChart, ChartSeries};
pub use csv::{push_cell, CsvWriter};
pub use float::{write_fixed, write_shortest};
pub use json::{json_escape, json_escape_into};
pub use table::{Align, Table};

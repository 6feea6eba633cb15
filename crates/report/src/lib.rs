//! # focal-report — harness output rendering
//!
//! Text tables, CSV, and ASCII charts used by the `focal-bench` harness to
//! print the regenerated paper figures and findings:
//!
//! * [`Table`] — aligned plain-text and Markdown tables.
//! * [`CsvWriter`] — RFC-4180 CSV for downstream plotting, and
//!   [`push_cell`], its cell writer, for renderers with their own buffer.
//! * [`AsciiChart`] / [`ChartSeries`] — terminal scatter plots of each
//!   figure's series.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod chart;
mod csv;
mod table;

pub use chart::{AsciiChart, ChartSeries};
pub use csv::{push_cell, CsvWriter};
pub use table::{Align, Table};

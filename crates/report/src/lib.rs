//! # focal-report — harness output rendering
//!
//! Text tables, CSV, ASCII charts, JSON escaping, `BENCH.json` records
//! and `--dump-dir` artifacts: the output that the `focal-bench` harness
//! and `focal-serve` share. The crate has no dependencies, so serving
//! reaches these without depending on the harness.
//!
//! * [`Table`] — aligned plain-text and Markdown tables.
//! * [`CsvWriter`] — RFC-4180 CSV for downstream plotting, and
//!   [`push_cell`], its cell writer, for renderers with their own buffer.
//! * [`json_escape`] / [`json_escape_into`] — the one JSON string
//!   escaper: `focal-serve` responses, the suite summary, `BENCH.json`
//!   and `focal-lint`'s JSON reports all escape through it.
//!   [`find_json_special`], its eight-bytes-a-step run scanner, also
//!   drives `focal-serve`'s string parser.
//! * [`write_shortest`] / [`write_fixed`] — an `f64` written byte for
//!   byte as `{}` / `{:.N}` write it, several times faster: Ryu-style
//!   shortest digits from power-of-5 tables computed at compile time,
//!   and exact `u128` fixed-point rounding. The figure CSV, finding and
//!   robustness renderers and the scenario crate's canonical writer use
//!   them; differential tests pin them to core's formatting.
//! * [`AsciiChart`] / [`ChartSeries`] — terminal scatter plots of each
//!   figure's series.
//! * [`DumpDir`] — one `--dump-dir` root split into namespaces: the
//!   suite writes `registry/` and `scenarios/`, `focal-serve` writes
//!   `serve/`.
//! * [`BenchRecord`] / [`to_bench_json`] — the `BENCH.json` record that
//!   `bench` and `focal-loadgen` write, and [`detect_git_rev`], the
//!   revision stamped into those records and into `focal-serve`
//!   response provenance.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod bench;
mod chart;
mod csv;
mod dump;
mod float;
mod json;
mod table;

pub use bench::{detect_git_rev, to_bench_json, BenchRecord};
pub use chart::{AsciiChart, ChartSeries};
pub use csv::{push_cell, CsvWriter};
pub use dump::{sanitize_id, DumpDir, NS_REGISTRY, NS_SCENARIOS, NS_SERVE};
pub use float::{write_fixed, write_shortest};
pub use json::{find_json_special, json_escape, json_escape_into};
pub use table::{Align, Table};

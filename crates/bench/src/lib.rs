//! # focal-bench — the FOCAL reproduction harness
//!
//! One binary per harness job:
//!
//! * `suite` regenerates every figure and finding and gates on the
//!   reproduction (see [`suite`]); with `--dump-dir` its stages also
//!   write the CSVs and scenario outputs they digest, through
//!   [`focal_report::DumpDir`];
//! * `figures` prints every paper figure as ASCII charts plus its CSV
//!   block (see [`print_figure`]);
//! * `report` writes the paper-vs-measured Markdown report of all 17
//!   findings plus the §7 case study;
//! * `bench` times the model kernels and writes `BENCH.json` (see
//!   [`micro`] and [`focal_report::to_bench_json`]);
//! * `robustness`, `taxonomy`, and the `ablation_*`, `ext_*` and
//!   `soc_designer` binaries print the ablation and extension tables
//!   DESIGN.md calls out.
//!
//! No workspace crate depends on this one: what `focal-serve` shares
//! with the harness (the dump namespaces, `BENCH.json` records, the git
//! revision and the JSON escaper) lives in `focal-report`.

#![warn(missing_docs)]

pub mod micro;
pub mod suite;

use focal_studies::Figure;

/// Prints a regenerated figure in the harness's standard format: caption,
/// ASCII charts, then the CSV block.
pub fn print_figure(fig: &Figure) {
    println!("==================================================================");
    println!("{}: {}", fig.id, fig.caption);
    println!("==================================================================\n");
    for panel in &fig.panels {
        println!("{}", panel.to_chart(64, 16).render());
    }
    println!("--- CSV ---");
    print!("{}", fig.to_csv());
}

/// Process exit code for a findings run: `0` only if *every* finding
/// reproduces the paper, `1` otherwise. The `suite` binary's findings
/// stage passes exactly when this is `0`, so CI can gate on it.
///
/// An empty slice is a failure: it means the registry produced nothing,
/// which must never read as success.
#[must_use]
pub fn findings_exit_code(findings: &[focal_studies::Finding]) -> i32 {
    if !findings.is_empty() && findings.iter().all(|f| f.reproduces()) {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_figure_smoke() {
        let fig = focal_studies::wafer_figure::figure1().unwrap();
        // Just exercise the printing path.
        print_figure(&fig);
    }
}

//! # focal-bench — the FOCAL reproduction harness
//!
//! One binary per harness job:
//!
//! * `suite` regenerates every figure and finding and gates on the
//!   reproduction (see [`suite`]);
//! * `figures` prints every paper figure as ASCII charts plus its CSV
//!   block (see [`print_figure`]);
//! * `report` writes the paper-vs-measured Markdown report of all 17
//!   findings plus the §7 case study;
//! * `bench` times the model kernels and writes `BENCH.json` (see
//!   [`micro`]);
//! * `robustness`, `taxonomy`, and the `ablation_*`, `ext_*` and
//!   `soc_designer` binaries print the ablation and extension tables
//!   DESIGN.md calls out.

#![warn(missing_docs)]

pub mod dump;
pub mod micro;
pub mod suite;

use focal_studies::Figure;

pub use focal_report::{json_escape, json_escape_into};

/// `git rev-parse --short HEAD` of the current directory, or
/// `"unknown"` when git or the checkout is unavailable. Stamped into
/// benchmark records and `focal-serve` response provenance.
#[must_use]
pub fn detect_git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

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

//! # focal-bench — the FOCAL reproduction harness
//!
//! One binary per paper figure (`fig1`, `fig3`, … `fig9`), a `findings`
//! binary that recomputes all 17 findings (+ the §7 case study) with
//! paper-vs-measured tables, and ablation binaries for the design choices
//! DESIGN.md calls out. Criterion benches (`cargo bench -p focal-bench`)
//! time the model kernels behind each figure.
//!
//! Every binary prints the figure's series as an ASCII chart plus a CSV
//! dump on stdout, so `cargo run -p focal-bench --bin fig3 > fig3.csv`
//! captures machine-readable data.

#![warn(missing_docs)]

pub mod dump;
pub mod micro;
pub mod suite;

use focal_studies::Figure;

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

/// Prints a one-line reproduction summary for a set of findings and
/// returns how many reproduced.
pub fn print_findings_summary(findings: &[focal_studies::Finding]) -> usize {
    let ok = findings.iter().filter(|f| f.reproduces()).count();
    println!(
        "\n{ok}/{} findings reproduce the paper's numbers and verdicts.",
        findings.len()
    );
    ok
}

/// Process exit code for a findings run: `0` only if *every* finding
/// reproduces the paper, `1` otherwise — so CI can gate on the `findings`
/// binary (and the `suite` binary) directly.
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

    #[test]
    fn summary_counts_reproductions() {
        let findings = focal_studies::all_findings().unwrap();
        assert_eq!(print_findings_summary(&findings), findings.len());
    }
}

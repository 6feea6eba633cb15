//! Binary-level contract of `suite --inject`: a fault site that can
//! never fire is a usage error (exit 2, naming the valid sites) rather
//! than a clean run that silently ignores the plan, and a valid plan
//! reaches the engine the suite runs on.

use std::process::{Command, Output};

fn suite_with(spec: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--no-timings", "--inject", spec])
        .output()
        .expect("suite binary runs")
}

#[test]
fn suite_rejects_inject_sites_that_cannot_fire() {
    for spec in ["panic@figure:3", "nan@mcx:17"] {
        let out = suite_with(spec);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec}: no report may be printed");
        assert!(
            stderr.contains(
                "valid sites: figures, findings, robustness, crossovers, defect-sim, scenarios, mc"
            ),
            "{spec}: {stderr}"
        );
    }
}

#[test]
fn suite_runs_a_valid_plan_on_its_engine() {
    let out = suite_with("panic@figures:3");
    assert_eq!(out.status.code(), Some(1), "a faulted suite fails");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("{\"name\": \"figures\", \"ok\": false, \"status\": \"error\""),
        "{report}"
    );
    assert!(
        report.contains("injected fault: panic@figures:3"),
        "{report}"
    );
}

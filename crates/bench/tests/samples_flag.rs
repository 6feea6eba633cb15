//! Binary-level contract of `suite --samples`: a sample count outside
//! `1..=MAX_MC_SAMPLES` is a usage error (exit 2, nothing on stdout),
//! never an allocation that aborts the process.

use focal_scenario::MAX_MC_SAMPLES;
use std::process::Command;

#[test]
fn suite_rejects_sample_counts_outside_the_bound() {
    let too_many = (MAX_MC_SAMPLES + 1).to_string();
    for samples in ["0", too_many.as_str(), "100000000000", "-1", "many"] {
        let out = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--no-timings", "--samples", samples])
            .output()
            .expect("suite binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--samples {samples}: {stderr}");
        assert!(out.stdout.is_empty(), "--samples {samples}: no report");
        assert!(
            stderr.contains(&format!("from 1 to {MAX_MC_SAMPLES}")),
            "--samples {samples}: {stderr}"
        );
    }
}

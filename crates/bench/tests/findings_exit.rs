//! Pins the exit-code contract of the gate binary: `suite` must exit 0
//! exactly when the reproduction succeeds, so CI can gate on it. Its
//! findings stage passes exactly when [`focal_bench::findings_exit_code`]
//! is 0. The failure side of the contract is pinned here with fabricated
//! findings; the success side end-to-end against the real binary.

use focal_studies::{Finding, Metric};
use std::process::Command;

fn failing_finding() -> Finding {
    let mut f = focal_studies::all_findings().expect("registry builds")[0].clone();
    f.metrics
        .push(Metric::new("fabricated mismatch", 1.0, 2.0, 0.001));
    assert!(!f.reproduces(), "fabricated metric must break reproduction");
    f
}

#[test]
fn exit_code_is_zero_only_when_all_findings_reproduce() {
    let all = focal_studies::all_findings().expect("registry builds");
    assert_eq!(focal_bench::findings_exit_code(&all), 0);

    let mut with_failure = all.clone();
    with_failure.push(failing_finding());
    assert_eq!(focal_bench::findings_exit_code(&with_failure), 1);

    // An empty registry must read as failure, not success.
    assert_eq!(focal_bench::findings_exit_code(&[]), 1);
}

#[test]
fn suite_binary_json_is_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_suite"))
            .arg("--no-timings")
            .env("FOCAL_THREADS", threads)
            .output()
            .expect("suite binary runs");
        assert!(
            out.status.success(),
            "suite (FOCAL_THREADS={threads}) exited {:?}:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    let json = String::from_utf8_lossy(&serial);
    assert!(
        json.contains("\"ok\": true"),
        "suite must pass on the paper configuration"
    );
    assert!(
        json.contains("\"reproduced\": \"18/18\""),
        "findings summary missing:\n{json}"
    );
    assert_eq!(
        serial,
        run("3"),
        "deterministic suite JSON must not depend on FOCAL_THREADS"
    );
}

//! End-to-end fault injection through the suite: an engine carrying a
//! fault plan degrades exactly one stage to `status: error` — with a
//! minimal repro line — while every other stage completes, and the
//! degraded report is still byte-identical across thread counts. Each
//! faulted run carries its own plan, so these tests run in parallel.

use focal_bench::suite::{run_suite, StageStatus, SuiteReport};
use focal_engine::{Engine, FaultPlan};

/// `engine` carrying the plan parsed from `spec`.
fn with_plan(engine: Engine, spec: &str) -> Engine {
    engine.with_faults(Some(FaultPlan::parse(spec).unwrap().leak()))
}

const STAGE_NAMES: [&str; 5] = [
    "figures",
    "findings",
    "robustness",
    "crossovers",
    "defect-sim",
];

/// Asserts the report degraded gracefully: exactly `errored` carries
/// `status: error` (with a repro entry), every other stage is ok.
fn assert_degraded(report: &SuiteReport, errored: &str) {
    assert!(!report.ok(), "a degraded report must not claim success");
    let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
    assert_eq!(names, STAGE_NAMES, "every stage must still run");
    for stage in &report.stages {
        if stage.name == errored {
            assert_eq!(stage.status, StageStatus::Error, "{}", stage.name);
            let repro = stage
                .entries
                .iter()
                .find(|(k, _)| k == "repro")
                .unwrap_or_else(|| panic!("{} carries no repro line", stage.name));
            assert!(
                repro.1.contains(&format!("stage={errored}")),
                "repro line names the stage: {}",
                repro.1
            );
        } else {
            assert_eq!(stage.status, StageStatus::Ok, "{}", stage.name);
        }
    }
}

#[test]
fn injected_chunk_panic_degrades_only_the_figures_stage() {
    let serial = run_suite(&with_plan(Engine::serial(), "panic@figures:3"));
    let parallel = run_suite(&with_plan(Engine::with_threads(4), "panic@figures:3"));

    assert_degraded(&serial, "figures");
    assert_degraded(&parallel, "figures");

    // The chunk diagnostic names the failing chunk and its seed.
    let figures = &serial.stages[0];
    let repro = figures.entries.iter().find(|(k, _)| k == "repro").unwrap();
    assert!(repro.1.contains("chunk_index="), "{}", repro.1);
    assert!(repro.1.contains("chunk_seed="), "{}", repro.1);

    // Thread-count invariance holds for faulted reports too.
    assert_eq!(serial.to_json(false), parallel.to_json(false));

    // Without the plan, the suite is whole again.
    let clean = run_suite(&Engine::serial());
    assert!(clean.ok(), "{}", clean.human_summary());
}

#[test]
fn injected_nan_degrades_only_the_robustness_stage() {
    let serial = run_suite(&with_plan(Engine::serial(), "nan@mc:1017"));
    let parallel = run_suite(&with_plan(Engine::with_threads(4), "nan@mc:1017"));

    assert_degraded(&serial, "robustness");
    assert_degraded(&parallel, "robustness");

    // The tripwire names the poisoned sample, not just the chunk.
    let robustness = &serial.stages[2];
    let (_, error) = robustness
        .entries
        .iter()
        .find(|(k, _)| k == "error")
        .unwrap();
    assert!(error.contains("sample 1017"), "{error}");

    assert_eq!(serial.to_json(false), parallel.to_json(false));

    let clean = run_suite(&Engine::serial());
    assert!(clean.ok(), "{}", clean.human_summary());
}

#[test]
fn injected_chunk_panic_degrades_only_the_robustness_stage() {
    let serial = run_suite(&with_plan(Engine::serial(), "panic@robustness:1"));
    let parallel = run_suite(&with_plan(Engine::with_threads(4), "panic@robustness:1"));

    assert_degraded(&serial, "robustness");
    assert_degraded(&parallel, "robustness");

    // The shared draw fails once, on chunk 1 of the seed-42 stream.
    let robustness = &serial.stages[2];
    let (_, repro) = robustness
        .entries
        .iter()
        .find(|(k, _)| k == "repro")
        .unwrap();
    assert!(repro.contains("chunk_index=1 chunk_seed=43"), "{repro}");

    assert_eq!(serial.to_json(false), parallel.to_json(false));
}

#[test]
fn faulted_json_reports_exactly_one_error_status() {
    let report = run_suite(&with_plan(Engine::serial(), "panic@figures:3"));

    let json = report.to_json(false);
    assert_eq!(json.matches("\"status\": \"error\"").count(), 1, "{json}");
    assert_eq!(json.matches("\"status\": \"ok\"").count(), 4, "{json}");
}

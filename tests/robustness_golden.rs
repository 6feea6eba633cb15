//! Golden values of the Monte-Carlo robustness sweep (§3.5 quantified).
//!
//! The figure goldens pin CSV bytes only, and the suite's byte-diffs
//! compare thread counts within one build. This file pins the sweep's
//! numbers themselves, so a change to how the sweep samples, counts or
//! caches cannot move them silently: the `f64::to_bits` of every
//! agreement, for the suite's robustness configuration and for the
//! shipped `taxonomy-robustness` scenario, plus the exact diagnostics
//! under injected faults.

use focal::engine::{Engine, FaultPlan};
use focal::scenario::{load_file, ScenarioOutput};
use focal::studies::robustness::{verdict_robustness_on, VerdictRobustness};
use std::path::Path;

/// The suite's robustness stage: `ROBUSTNESS_JITTER`,
/// `ROBUSTNESS_SAMPLES` (two full chunks plus 257) and `ROBUSTNESS_SEED`.
const SUITE_JITTER: f64 = 0.1;
const SUITE_SAMPLES: usize = 8449;
const SUITE_SEED: u64 = 42;

/// The taxonomy rows, in sweep order.
const MECHANISMS: [&str; 11] = [
    "multicore (vs big core)",
    "heterogeneity (vs symmetric)",
    "hw acceleration @25% use",
    "dark silicon @25% use",
    "caching (16 MiB LLC)",
    "FSC core (vs OoO)",
    "speculation (PRE)",
    "DVFS (scale down)",
    "turbo boost",
    "pipeline gating",
    "die shrink",
];

/// `[fixed-work, fixed-time]` agreement bits of
/// `verdict_robustness_on(&Engine::serial(), 0.1, 8449, 42)`, per row.
const SUITE_GOLDEN: [[u64; 2]; 11] = [
    [0x3fefef8460d64715, 0x3feec1fa1f355b79],
    [0x3fe854989687132e, 0x3fed45e69bebc28e],
    [0x3fe01f82ec84781c, 0x3fe01f82ec84781c],
    [0x3fedc9c3953989e4, 0x3fedc9c3953989e4],
    [0x3fefe4da08e87514, 0x3ff0000000000000],
    [0x3ff0000000000000, 0x3ff0000000000000],
    [0x3fe1ee008b9ead9e, 0x3feb86ec65714a24],
    [0x3fe6f0c266b711ba, 0x3feba7e3a3c4bbfa],
    [0x3fee3b348249a0ae, 0x3fefdf08c1ac8e2a],
    [0x3fe178aec466a78e, 0x3fe407269239a12a],
    [0x3ff0000000000000, 0x3fed3c347a87ec5e],
];

/// The same for `data/scenarios/taxonomy-robustness.toml` (1024 samples,
/// seed 42, jitter 0.1).
const SCENARIO_GOLDEN: [[u64; 2]; 11] = [
    [0x3fefe00000000000, 0x3feed00000000000],
    [0x3fe8080000000000, 0x3fed280000000000],
    [0x3fdf900000000000, 0x3fdf900000000000],
    [0x3fede00000000000, 0x3fede00000000000],
    [0x3feff00000000000, 0x3ff0000000000000],
    [0x3ff0000000000000, 0x3ff0000000000000],
    [0x3fe1e80000000000, 0x3feb580000000000],
    [0x3fe6380000000000, 0x3feba00000000000],
    [0x3fee280000000000, 0x3fefc80000000000],
    [0x3fe1680000000000, 0x3fe3880000000000],
    [0x3ff0000000000000, 0x3fed300000000000],
];

fn assert_golden(rows: &[VerdictRobustness], golden: &[[u64; 2]; 11]) {
    let names: Vec<&str> = rows.iter().map(|r| r.mechanism).collect();
    assert_eq!(names, MECHANISMS);
    let bits: Vec<[u64; 2]> = rows
        .iter()
        .map(|r| {
            [
                r.fixed_work_agreement.to_bits(),
                r.fixed_time_agreement.to_bits(),
            ]
        })
        .collect();
    assert_eq!(bits, golden);
}

/// `engine` carrying the plan parsed from `spec`, labelled as the suite
/// labels its robustness stage.
fn faulted(engine: Engine, spec: &str) -> Engine {
    engine
        .with_faults(Some(FaultPlan::parse(spec).unwrap().leak()))
        .at_site("robustness")
}

#[test]
fn suite_robustness_agreements_match_their_golden_bits() {
    let rows = verdict_robustness_on(&Engine::serial(), SUITE_JITTER, SUITE_SAMPLES, SUITE_SEED)
        .expect("the built-in taxonomy samples cleanly");
    assert_golden(&rows, &SUITE_GOLDEN);
}

#[test]
fn taxonomy_robustness_scenario_matches_its_golden_bits() {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/taxonomy-robustness.toml"
    ));
    let scenario = load_file(path).expect("the shipped scenario compiles");
    match scenario.evaluate_on(&Engine::serial(), None) {
        Ok(ScenarioOutput::Robustness(rows)) => assert_golden(&rows, &SCENARIO_GOLDEN),
        Ok(_) => panic!("taxonomy-robustness must produce robustness rows"),
        Err(e) => panic!("taxonomy-robustness failed: {e}"),
    }
}

#[test]
fn injected_faults_report_their_golden_diagnostics() {
    let cases = [
        (
            "nan@mc:1017",
            "non-finite output in monte-carlo sample 1017 (chunk 0, chunk_seed 42): NaN",
        ),
        (
            "nan@mc:5000",
            "non-finite output in monte-carlo sample 5000 (chunk 1, chunk_seed 43): NaN",
        ),
        (
            "panic@robustness:1",
            "chunk 1 (chunk_seed 43) poisoned: injected fault: panic@robustness:1",
        ),
    ];
    for (spec, expected) in cases {
        for threads in [1, 4] {
            let engine = faulted(Engine::with_threads(threads), spec);
            let err = verdict_robustness_on(&engine, SUITE_JITTER, SUITE_SAMPLES, SUITE_SEED)
                .expect_err("an injected fault must surface");
            assert_eq!(err.to_string(), expected, "{spec} at {threads} threads");
        }
    }
}

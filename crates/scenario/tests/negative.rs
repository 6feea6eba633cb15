//! Negative-path corpus: every malformed scenario under
//! `tests/fixtures/` must yield a structured [`ScenarioError`] naming
//! the offending key and line — never a panic, never a silently wrong
//! scenario.

use std::path::{Path, PathBuf};

use focal_scenario::{load_dir, load_file, ScenarioError};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn expect_error(name: &str) -> ScenarioError {
    let path = fixtures().join(name);
    load_file(&path).expect_err("malformed fixture must not compile")
}

#[test]
fn every_fixture_fails_structurally_without_panicking() {
    let entries = std::fs::read_dir(fixtures()).expect("fixtures dir");
    let mut checked = 0;
    for entry in entries {
        let path = entry.expect("fixture entry").path();
        if path.extension().is_some_and(|e| e == "toml") {
            let err = load_file(&path).expect_err("every fixture is malformed");
            assert!(
                err.file.is_some(),
                "{}: error must name the file",
                path.display()
            );
            assert!(
                !err.message.is_empty(),
                "{}: error must carry a message",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 6, "expected the full corpus, found {checked}");
}

#[test]
fn unknown_substrate_names_the_key() {
    let err = expect_error("unknown-substrate.toml");
    assert_eq!(err.key.as_deref(), Some("study"));
    assert_eq!(err.line, Some(5));
    assert!(err.message.contains("quantum-annealer"), "{err}");
}

#[test]
fn inverted_sweep_bounds_name_the_key() {
    let err = expect_error("inverted-sweep.toml");
    assert_eq!(err.key.as_deref(), Some("die_min_mm2"));
    assert_eq!(err.line, Some(8));
    assert!(err.message.contains("inverted"), "{err}");
}

#[test]
fn nan_lifetime_names_the_key() {
    let err = expect_error("nan-lifetime.toml");
    assert_eq!(err.key.as_deref(), Some("lifetime_years"));
    assert_eq!(err.line, Some(9));
    assert!(err.message.contains("finite"), "{err}");
}

#[test]
fn missing_required_field_names_the_key() {
    let err = expect_error("missing-required.toml");
    assert_eq!(err.key.as_deref(), Some("study"));
    assert!(err.message.contains("missing"), "{err}");
}

#[test]
fn unknown_key_names_key_and_line() {
    let err = expect_error("unknown-key.toml");
    assert_eq!(err.key.as_deref(), Some("stall_fraction"));
    assert_eq!(err.line, Some(8));
}

#[test]
fn mistyped_value_names_the_key() {
    let err = expect_error("bad-type.toml");
    assert_eq!(err.key.as_deref(), Some("id"));
    assert_eq!(err.line, Some(3));
}

#[test]
fn duplicate_scenario_ids_name_both_files() {
    let err = load_dir(&fixtures().join("duplicates"))
        .expect_err("duplicate ids across files must not load");
    assert_eq!(err.key.as_deref(), Some("id"));
    assert!(
        err.message.contains("duplicate scenario id `twice`"),
        "{err}"
    );
    assert!(err.message.contains("first.toml"), "{err}");
    assert!(err.message.contains("second.toml"), "{err}");
}

#[test]
fn huge_sample_count_names_the_key() {
    let err = expect_error("huge-samples.toml");
    assert_eq!(err.key.as_deref(), Some("samples"));
    assert_eq!(err.line, Some(9));
    assert!(err.message.contains("at most 1048576"), "{err}");
    assert!(err.message.contains("100000000000"), "{err}");
}

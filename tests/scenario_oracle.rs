//! Oracle equivalence for the scenario DSL: every twin in
//! `data/scenarios/` must compile and produce byte-identical output to
//! its hand-coded registry oracle, the corpus must cover every registry
//! entry (a new figure or finding without a DSL twin fails here), and
//! batch evaluation must digest identically at 1 and 4 threads.

use std::collections::BTreeMap;
use std::path::Path;

use focal::engine::Engine;
use focal::scenario::{evaluate_all_on, load_dir, CompiledScenario, ScenarioOutput};
use focal::studies::{builtin_registry, StudyOutput};

fn scenarios_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data/scenarios"))
}

fn twins() -> Vec<CompiledScenario> {
    load_dir(scenarios_dir()).expect("data/scenarios must load cleanly")
}

/// Twin corpus indexed by the registry id each twin mirrors.
fn twins_by_registry_id() -> BTreeMap<String, CompiledScenario> {
    let mut map = BTreeMap::new();
    for twin in twins() {
        if let Some(id) = twin.registry_id() {
            let clash = map.insert(id.clone(), twin);
            assert!(clash.is_none(), "two twins mirror registry id {id}");
        }
    }
    map
}

fn oracle_bytes(output: &StudyOutput) -> Vec<u8> {
    match output {
        StudyOutput::Figure(figure) => figure.to_csv().into_bytes(),
        StudyOutput::Finding(finding) => {
            let mut text = finding.to_string();
            text.push('\n');
            text.into_bytes()
        }
    }
}

/// Corpus coverage: every hand-coded registry entry (9 figures + 18
/// findings) must have a DSL twin. Adding a figure or finding to the
/// registry without shipping its twin fails this test.
#[test]
fn every_registry_entry_has_a_dsl_twin() {
    let twins = twins_by_registry_id();
    let mut missing = Vec::new();
    for entry in builtin_registry() {
        if !twins.contains_key(entry.id) {
            missing.push(entry.id);
        }
    }
    assert!(
        missing.is_empty(),
        "registry entries without a DSL twin in data/scenarios/: {missing:?}"
    );
}

/// Conversely, every twin that claims a registry id must point at a
/// real entry (no stale twins after a registry rename).
#[test]
fn every_twin_mirrors_a_real_registry_entry() {
    let registry_ids: Vec<&str> = builtin_registry().iter().map(|e| e.id).collect();
    for (id, twin) in twins_by_registry_id() {
        assert!(
            registry_ids.contains(&id.as_str()),
            "twin `{}` mirrors unknown registry id {id}",
            twin.id()
        );
    }
}

/// The tentpole invariant: each twin's DSL-compiled evaluation is
/// byte-identical to its hand-coded oracle.
#[test]
fn twins_match_hand_coded_oracles_byte_for_byte() {
    let twins = twins_by_registry_id();
    for entry in builtin_registry() {
        let twin = twins.get(entry.id).expect("coverage test pins this");
        let dsl = twin
            .evaluate()
            .unwrap_or_else(|e| panic!("twin {} failed to evaluate: {e}", entry.id));
        let oracle = entry
            .build()
            .unwrap_or_else(|e| panic!("oracle {} failed to build: {e}", entry.id));
        assert_eq!(
            dsl.to_bytes(),
            oracle_bytes(&oracle),
            "twin {} diverges from its hand-coded oracle",
            entry.id
        );
    }
}

/// Batch evaluation over the whole corpus (twins plus the taxonomy
/// robustness scenario) must produce identical digests at 1 and 4
/// threads — the DSL rides the same seed/chunk discipline as the
/// hand-coded suite.
#[test]
fn scenario_digests_are_thread_invariant() {
    let corpus = twins();
    let digests = |threads: usize| -> Vec<(String, String)> {
        let engine = Engine::with_threads(threads);
        evaluate_all_on(&engine, &corpus)
            .expect("batch evaluation must not poison")
            .into_iter()
            .map(|(id, result)| {
                let output: ScenarioOutput =
                    result.unwrap_or_else(|e| panic!("scenario {id} failed: {e}"));
                (id, output.digest_entry())
            })
            .collect()
    };
    assert_eq!(digests(1), digests(4));
}

/// The robustness scenario is part of the shipped corpus and evaluates
/// on the engine (it has no serial path and no registry oracle).
#[test]
fn taxonomy_robustness_twin_is_present_and_evaluates() {
    let corpus = twins();
    let tax = corpus
        .iter()
        .find(|s| s.id() == "taxonomy-robustness")
        .expect("data/scenarios must ship the taxonomy robustness scenario");
    assert!(tax.registry_id().is_none());
    let output = tax
        .evaluate_on(&Engine::serial(), None)
        .expect("must evaluate");
    match output {
        ScenarioOutput::Robustness(rows) => assert!(!rows.is_empty()),
        other => panic!("expected robustness rows, got {other:?}"),
    }
}

//! Fault injection against the Monte-Carlo sampler. Each faulted run
//! uses an engine that carries its own plan, so the tests run in
//! parallel with each other and with clean runs.

use focal_core::{
    DesignPoint, E2oRange, ModelError, MonteCarloNcf, Scenario, SweepMemo, MC_CHUNK_SAMPLES,
};
use focal_engine::{Engine, FaultPlan};

/// `engine` carrying the plan parsed from `spec`.
fn with_plan(engine: Engine, spec: &str) -> Engine {
    engine.with_faults(Some(FaultPlan::parse(spec).unwrap().leak()))
}

#[test]
fn injected_nan_trips_the_finiteness_tripwire_identically_at_every_thread_count() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
    let samples = MC_CHUNK_SAMPLES + 500;

    let errors: Vec<ModelError> = [1, 2, 7]
        .iter()
        .map(|&threads| {
            mc.run_on(
                &with_plan(Engine::with_threads(threads), "nan@mc:1017"),
                &x,
                &y,
                Scenario::FixedWork,
                samples,
                None,
            )
            .unwrap_err()
        })
        .collect();

    // `ModelError`'s derived equality is useless here (NaN != NaN), so
    // compare the rendered diagnostics — the part a user would repro from.
    for err in &errors {
        assert_eq!(
            errors.first().map(ToString::to_string),
            Some(err.to_string()),
            "error not thread-invariant"
        );
        match err {
            ModelError::NonFiniteOutput { context, value } => {
                assert!(context.contains("sample 1017"), "{context}");
                assert!(context.contains("chunk 0"), "{context}");
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteOutput, got {other}"),
        }
    }

    // Without the plan, the same experiment succeeds again: injection
    // leaves no residue in the sampler or the engine.
    assert!(mc
        .run_on(
            &Engine::serial(),
            &x,
            &y,
            Scenario::FixedWork,
            samples,
            None
        )
        .is_ok());
}

#[test]
fn nan_injection_outside_the_drawn_range_is_inert() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();

    let faulted = with_plan(Engine::serial(), "nan@mc:999999");
    let armed = mc.run_on(&faulted, &x, &y, Scenario::FixedWork, 1000, None);
    let clean = mc
        .run_on(&Engine::serial(), &x, &y, Scenario::FixedWork, 1000, None)
        .unwrap();

    // A plan whose index is never drawn must not perturb the samples.
    assert_eq!(armed.unwrap(), clean);
}

#[test]
fn injected_chunk_panic_surfaces_as_chunk_poisoned() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 40).unwrap();
    let samples = 3 * MC_CHUNK_SAMPLES;

    let err = mc
        .run_on(
            &with_plan(Engine::with_threads(4), "panic@mc-test:2").at_site("mc-test"),
            &x,
            &y,
            Scenario::FixedWork,
            samples,
            None,
        )
        .unwrap_err();

    match err {
        ModelError::ChunkPoisoned {
            chunk_index,
            chunk_seed,
            payload,
        } => {
            assert_eq!(chunk_index, 2);
            assert_eq!(chunk_seed, 42); // base seed 40 + chunk 2
            assert!(payload.contains("panic@mc-test:2"), "{payload}");
        }
        other => panic!("expected ChunkPoisoned, got {other}"),
    }
}

#[test]
fn a_warm_memo_never_hides_an_injected_fault() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
    let mut memo = SweepMemo::new();
    let mut run =
        |engine: Engine| mc.run_on(&engine, &x, &y, Scenario::FixedWork, 2000, Some(&mut memo));
    assert!(run(Engine::serial()).is_ok());
    // The memo holds this exact experiment, but an engine carrying a
    // plan bypasses it, so the injected NaN still reaches the sampler.
    let faulted = run(with_plan(Engine::serial(), "nan@mc:1017"));
    assert!(matches!(faulted, Err(ModelError::NonFiniteOutput { .. })));
    assert_eq!(memo.stats().mc.hits, 0);
}

/// The counting path raises exactly the summary path's errors: under a
/// `nan@mc` plan (which poisons the same sample of every experiment) and
/// under an injected chunk panic, at every thread count.
#[test]
fn counting_path_raises_the_summary_paths_fault_errors() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 40).unwrap();
    let samples = 2 * MC_CHUNK_SAMPLES + 257;
    let batch = [
        (x, y, Scenario::FixedWork),
        (y, x, Scenario::FixedTime),
        (x, y, Scenario::FixedTime),
    ];
    for spec in [
        "nan@mc:0",
        "nan@mc:1017",
        "nan@mc:5000",
        "nan@mc:8448",
        "panic@mc-test:0",
        "panic@mc-test:2",
    ] {
        for threads in [1, 2, 7] {
            let engine = with_plan(Engine::with_threads(threads), spec).at_site("mc-test");
            let summary = mc
                .run_on(&engine, &x, &y, Scenario::FixedWork, samples, None)
                .unwrap_err();
            let count = mc
                .prob_reduction_on(&engine, &batch, samples, None)
                .unwrap_err();
            assert_eq!(
                count.to_string(),
                summary.to_string(),
                "{spec} at {threads} threads"
            );
        }
    }
}

/// A NaN index past the last sample is never drawn, so it changes
/// nothing; and a warm memo never hides an injected fault.
#[test]
fn counting_path_ignores_out_of_range_nan_and_bypasses_the_memo() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
    let samples = 2 * MC_CHUNK_SAMPLES + 257;
    let batch = [(x, y, Scenario::FixedWork), (x, y, Scenario::FixedTime)];
    let clean = mc
        .prob_reduction_on(&Engine::serial(), &batch, samples, None)
        .unwrap();
    for spec in ["nan@mc:8449", "nan@mc:999999"] {
        let armed = mc
            .prob_reduction_on(&with_plan(Engine::serial(), spec), &batch, samples, None)
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&armed), bits(&clean), "{spec}");
    }

    let mut memo = SweepMemo::new();
    mc.prob_reduction_on(&Engine::serial(), &batch, samples, Some(&mut memo))
        .unwrap();
    let faulted = mc.prob_reduction_on(
        &with_plan(Engine::serial(), "nan@mc:1017"),
        &batch,
        samples,
        Some(&mut memo),
    );
    assert!(matches!(faulted, Err(ModelError::NonFiniteOutput { .. })));
    assert_eq!(memo.stats().mc.hits, 0);
}

/// Without a fault plan, the batch error is the first failing
/// experiment's own `run_on` error: here the middle experiment's
/// embodied ratio overflows to infinity at its first sample.
#[test]
fn counting_path_reports_the_first_failing_experiment_in_batch_order() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
    let y = DesignPoint::reference();
    let huge = DesignPoint::from_raw(1e300, 1.0, 1.0, 1.0).unwrap();
    let tiny = DesignPoint::from_raw(1e-300, 1.0, 1.0, 1.0).unwrap();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
    let samples = MC_CHUNK_SAMPLES + 17;
    let batch = [
        (x, y, Scenario::FixedWork),
        (huge, tiny, Scenario::FixedTime),
        (tiny, huge, Scenario::FixedWork),
    ];
    let expected = mc
        .run_on(
            &Engine::serial(),
            &huge,
            &tiny,
            Scenario::FixedTime,
            samples,
            None,
        )
        .unwrap_err();
    assert!(matches!(expected, ModelError::NonFiniteOutput { .. }));
    let mut memo = SweepMemo::new();
    let err = mc
        .prob_reduction_on(&Engine::serial(), &batch, samples, Some(&mut memo))
        .unwrap_err();
    assert_eq!(err.to_string(), expected.to_string());
    // The experiment before the failure was counted and cached.
    assert_eq!(memo.stats().mc.entries, 1);
}

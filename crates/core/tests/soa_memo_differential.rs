//! Differential tests for the two perf layers added by the SoA/memo PR:
//!
//! 1. The vectorized (struct-of-arrays, lockstep-RNG) Monte-Carlo kernel
//!    must be **bit-identical** to the pinned scalar oracle
//!    ([`MonteCarloNcf::run_scalar_on`]) — same draw stream, same sorted
//!    sample multiset, same summary — at every thread count and sample
//!    count, including tails and sub-chunk runs.
//! 2. Memoized sweeps must return exactly what the same calls return
//!    without a memo, on cold and warm caches alike.
//! 3. The counting path ([`MonteCarloNcf::prob_reduction_on`]), which
//!    draws once per batch and never sorts, must return each
//!    experiment's `run_on(..).prob_reduction` bit for bit.

use focal_core::{
    alpha_crossover_batch, classify_over_range_on, DesignPoint, E2oRange, MonteCarloNcf, Scenario,
    SweepMemo, MC_CHUNK_SAMPLES, MC_GROUP_CHUNKS,
};
use focal_engine::Engine;
use proptest::collection;
use proptest::prelude::*;

fn arb_design() -> impl Strategy<Value = DesignPoint> {
    (0.05f64..20.0, 0.05f64..20.0, 0.05f64..20.0, 0.05f64..20.0)
        .prop_map(|(a, p, e, s)| DesignPoint::from_raw(a, p, e, s).expect("positive axes"))
}

/// Sample counts that exercise every kernel shape: sub-chunk runs, exact
/// chunk/unit boundaries, tails just past a boundary, and the suite's own
/// uneven configuration.
fn interesting_samples() -> impl Strategy<Value = usize> {
    (0usize..10, 1usize..2 * MC_CHUNK_SAMPLES).prop_map(|(pick, fuzz)| match pick {
        0 => 1,
        1 => 2,
        2 => 7,
        3 => MC_CHUNK_SAMPLES - 1,
        4 => MC_CHUNK_SAMPLES,
        5 => MC_CHUNK_SAMPLES + 1,
        6 => 2 * MC_CHUNK_SAMPLES + 257,
        7 => MC_GROUP_CHUNKS * MC_CHUNK_SAMPLES,
        8 => MC_GROUP_CHUNKS * MC_CHUNK_SAMPLES + 511,
        _ => fuzz,
    })
}

/// Sample counts for the counting path: sub-chunk runs, the chunk
/// boundary and its neighbours, the suite's 2 full chunks + 257, and a
/// full lockstep unit alone and with a tail (full units take the
/// lane-interleaved layout in `run_on`).
fn counting_samples() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|pick| match pick {
        0 => 1,
        1 => 2,
        2 => MC_CHUNK_SAMPLES - 1,
        3 => MC_CHUNK_SAMPLES,
        4 => MC_CHUNK_SAMPLES + 1,
        5 => 2 * MC_CHUNK_SAMPLES + 257,
        6 => MC_GROUP_CHUNKS * MC_CHUNK_SAMPLES,
        _ => MC_GROUP_CHUNKS * MC_CHUNK_SAMPLES + 257,
    })
}

/// A batch of 1 to 6 experiments over both scenarios.
fn arb_batch() -> impl Strategy<Value = Vec<(DesignPoint, DesignPoint, Scenario)>> {
    collection::vec((arb_design(), arb_design(), any::<bool>()), 1..7).prop_map(|batch| {
        batch
            .into_iter()
            .map(|(x, y, fixed_time)| {
                let scenario = if fixed_time {
                    Scenario::FixedTime
                } else {
                    Scenario::FixedWork
                };
                (x, y, scenario)
            })
            .collect()
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn sorted_bits(mut values: Vec<f64>) -> Vec<u64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The SoA kernel and the scalar oracle draw the same stream: the
    /// sorted sample multiset is bit-identical and the summaries are
    /// equal, at 1, 2 and 7 threads (7 never divides the unit count, so
    /// work stealing is exercised).
    #[test]
    fn soa_kernel_is_bit_identical_to_scalar_oracle(
        x in arb_design(),
        seed in any::<u64>(),
        samples in interesting_samples(),
        jitter in 0.0f64..0.5,
    ) {
        let y = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::FULL, jitter, seed).expect("jitter in [0, 1)");
        let serial = Engine::serial();
        let oracle = mc
            .run_scalar_on(&serial, &x, &y, Scenario::FixedWork, samples)
            .expect("samples >= 1");
        let oracle_bits = sorted_bits(
            mc.sample_values_scalar_on(&serial, &x, &y, Scenario::FixedWork, samples)
                .expect("samples >= 1"),
        );
        for threads in [1usize, 2, 7] {
            let engine = Engine::with_threads(threads);
            let soa = mc
                .run_on(&engine, &x, &y, Scenario::FixedWork, samples, None)
                .expect("samples >= 1");
            prop_assert_eq!(&soa, &oracle, "summary diverges at {} threads", threads);
            let soa_bits = sorted_bits(
                mc.sample_values_on(&engine, &x, &y, Scenario::FixedWork, samples)
                    .expect("samples >= 1"),
            );
            prop_assert_eq!(&soa_bits, &oracle_bits, "sample multiset diverges at {} threads", threads);
        }
    }

    /// Memoized variants are pure caches: cold call, warm call and
    /// unmemoized call all agree exactly.
    #[test]
    fn memo_variants_match_unmemoized_cold_and_warm(
        x in arb_design(),
        y in arb_design(),
        seed in any::<u64>(),
    ) {
        let engine = Engine::serial();
        let mut memo = SweepMemo::new();

        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, seed).expect("valid jitter");
        let samples = 2 * MC_CHUNK_SAMPLES + 257;
        let plain = mc.run_on(&engine, &x, &y, Scenario::FixedWork, samples, None).expect("runs");
        let cold = mc
            .run_on(&engine, &x, &y, Scenario::FixedWork, samples, Some(&mut memo))
            .expect("runs");
        let warm = mc
            .run_on(&engine, &x, &y, Scenario::FixedWork, samples, Some(&mut memo))
            .expect("runs");
        prop_assert_eq!(&cold, &plain);
        prop_assert_eq!(&warm, &plain);
        prop_assert_eq!(memo.stats().mc.hits, 1);

        let plain = classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 31, None).expect("runs");
        let cold =
            classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 31, Some(&mut memo))
                .expect("runs");
        let warm =
            classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 31, Some(&mut memo))
                .expect("runs");
        prop_assert_eq!(&cold, &plain);
        prop_assert_eq!(&warm, &plain);

        let pairs = [(x, y), (y, x), (x, y)];
        for scenario in [Scenario::FixedWork, Scenario::FixedTime] {
            let plain = alpha_crossover_batch(&engine, &pairs, scenario, None).expect("runs");
            let cold =
                alpha_crossover_batch(&engine, &pairs, scenario, Some(&mut memo)).expect("runs");
            let warm =
                alpha_crossover_batch(&engine, &pairs, scenario, Some(&mut memo)).expect("runs");
            prop_assert_eq!(&cold, &plain);
            prop_assert_eq!(&warm, &plain);
        }
    }

    /// The counting path equals the summary path per experiment, bit for
    /// bit, at 1, 2 and 7 threads, unmemoized and through a cold and a
    /// warm memo; the warm batch answers every experiment from the memo.
    #[test]
    fn prob_reduction_on_matches_run_on_bit_for_bit(
        experiments in arb_batch(),
        seed in any::<u64>(),
        samples in counting_samples(),
        jitter in 0.0f64..0.5,
    ) {
        let mc = MonteCarloNcf::new(E2oRange::FULL, jitter, seed).expect("jitter in [0, 1)");
        let oracle: Vec<f64> = experiments
            .iter()
            .map(|&(x, y, scenario)| {
                mc.run_on(&Engine::serial(), &x, &y, scenario, samples, None)
                    .expect("samples >= 1")
                    .prob_reduction
            })
            .collect();
        for threads in [1usize, 2, 7] {
            let engine = Engine::with_threads(threads);
            let plain = mc
                .prob_reduction_on(&engine, &experiments, samples, None)
                .expect("samples >= 1");
            prop_assert_eq!(bits(&plain), bits(&oracle), "unmemoized at {} threads", threads);

            let mut memo = SweepMemo::new();
            let cold = mc
                .prob_reduction_on(&engine, &experiments, samples, Some(&mut memo))
                .expect("samples >= 1");
            let hits_after_cold = memo.stats().mc.hits;
            let warm = mc
                .prob_reduction_on(&engine, &experiments, samples, Some(&mut memo))
                .expect("samples >= 1");
            prop_assert_eq!(bits(&cold), bits(&oracle), "cold memo at {} threads", threads);
            prop_assert_eq!(bits(&warm), bits(&oracle), "warm memo at {} threads", threads);
            prop_assert_eq!(
                memo.stats().mc.hits - hits_after_cold,
                experiments.len() as u64
            );
        }
    }

    /// Overlapping α grids reuse cached points: a denser grid over the
    /// same range only misses on the new points, and still matches the
    /// unmemoized result.
    #[test]
    fn overlapping_grids_share_cached_points(x in arb_design(), y in arb_design()) {
        let engine = Engine::serial();
        let mut memo = SweepMemo::new();
        classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 11, Some(&mut memo))
            .expect("runs");
        let misses_after_coarse = memo.stats().classify.misses;
        // The 21-point FULL grid contains every 11-point grid value.
        let fine =
            classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 21, Some(&mut memo))
                .expect("runs");
        let plain = classify_over_range_on(&engine, &x, &y, E2oRange::FULL, 21, None).expect("runs");
        prop_assert_eq!(&fine, &plain);
        let stats = memo.stats().classify;
        prop_assert!(stats.hits >= 11, "coarse grid points should all hit, got {:?}", stats);
        prop_assert!(
            stats.misses - misses_after_coarse <= 10,
            "only the new fine-grid points may miss, got {:?}",
            stats
        );
    }
}

/// `samples == 1`: one value is every order statistic, and the unbiased
/// std-dev denominator `n - 1` must degrade to 0, not NaN.
#[test]
fn mc_summary_with_one_sample_collapses_all_percentiles() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).expect("valid");
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 9).expect("valid jitter");
    let s = mc
        .run_on(&Engine::serial(), &x, &y, Scenario::FixedWork, 1, None)
        .expect("one sample is allowed");
    assert_eq!(s.samples, 1);
    assert_eq!(s.std_dev, 0.0);
    for v in [s.min, s.max, s.p05, s.p50, s.p95] {
        assert_eq!(v.to_bits(), s.mean.to_bits());
    }
    assert!(s.prob_reduction == 0.0 || s.prob_reduction == 1.0);
}

/// `samples == 2`: the nearest-rank index `round(p * (n-1))` puts p05 on
/// the smaller value and both p50 and p95 on the larger.
#[test]
fn mc_summary_with_two_samples_uses_nearest_rank_percentiles() {
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).expect("valid");
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 9).expect("valid jitter");
    let s = mc
        .run_on(&Engine::serial(), &x, &y, Scenario::FixedWork, 2, None)
        .expect("two samples are allowed");
    assert_eq!(s.samples, 2);
    assert!(s.min <= s.max);
    assert_eq!(s.p05.to_bits(), s.min.to_bits());
    assert_eq!(s.p50.to_bits(), s.max.to_bits());
    assert_eq!(s.p95.to_bits(), s.max.to_bits());
    assert_eq!(s.mean.to_bits(), ((s.min + s.max) / 2.0).to_bits());
}

/// Summaries and probabilities share one Monte-Carlo table: a cached
/// summary answers a probability lookup, while a cached probability
/// cannot answer a summary lookup, so `run_on` misses, samples, and
/// replaces the entry with its summary.
#[test]
fn summaries_and_probabilities_share_one_memo_table() {
    let engine = Engine::serial();
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).expect("valid");
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 9).expect("valid jitter");
    let samples = 2 * MC_CHUNK_SAMPLES + 257;
    let summary = |scenario| {
        mc.run_on(&engine, &x, &y, scenario, samples, None)
            .expect("runs")
    };

    let mut memo = SweepMemo::new();
    mc.run_on(
        &engine,
        &x,
        &y,
        Scenario::FixedWork,
        samples,
        Some(&mut memo),
    )
    .expect("runs");
    let batch = [(x, y, Scenario::FixedWork), (x, y, Scenario::FixedTime)];
    let probs = mc
        .prob_reduction_on(&engine, &batch, samples, Some(&mut memo))
        .expect("runs");
    let expected = [
        summary(Scenario::FixedWork).prob_reduction,
        summary(Scenario::FixedTime).prob_reduction,
    ];
    assert_eq!(bits(&probs), bits(&expected));
    let stats = memo.stats().mc;
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));

    let upgraded = mc
        .run_on(
            &engine,
            &x,
            &y,
            Scenario::FixedTime,
            samples,
            Some(&mut memo),
        )
        .expect("runs");
    assert_eq!(upgraded, summary(Scenario::FixedTime));
    let stats = memo.stats().mc;
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 2));
    let cached = mc
        .run_on(
            &engine,
            &x,
            &y,
            Scenario::FixedTime,
            samples,
            Some(&mut memo),
        )
        .expect("runs");
    assert_eq!(cached, upgraded);
    assert_eq!(memo.stats().mc.hits, 2);
}

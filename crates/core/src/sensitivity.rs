//! Sensitivity analysis of the NCF metric.
//!
//! Because NCF is affine in α, a comparison's verdict can flip at most
//! once as α sweeps `[0, 1]`: at the *crossover weight* where NCF = 1.
//! Knowing that crossover tells a designer exactly which use cases
//! (device classes, lifetimes, energy mixes) favour a design — a sharper
//! statement than evaluating two fixed scenarios.

use crate::design::DesignPoint;
use crate::error::Result;
use crate::memo::SweepMemo;
use crate::ncf::Ncf;
use crate::scenario::Scenario;
use crate::weight::E2oWeight;
use std::fmt;

/// Where a comparison stands as a function of α.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaCrossover {
    /// NCF < 1 for every α ∈ \[0, 1\]: X wins regardless of the
    /// embodied/operational split.
    AlwaysBelow,
    /// NCF > 1 for every α: X loses regardless.
    AlwaysAbove,
    /// NCF = 1 for every α (both ratios are exactly 1).
    AlwaysOne,
    /// NCF crosses 1 at this α; X wins *below* it (operational-leaning
    /// use cases) when `wins_below` is true, otherwise above.
    At {
        /// The crossover weight.
        alpha: E2oWeight,
        /// `true` if NCF < 1 for α below the crossover.
        wins_below: bool,
    },
}

impl fmt::Display for AlphaCrossover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphaCrossover::AlwaysBelow => write!(f, "lower footprint for every α"),
            AlphaCrossover::AlwaysAbove => write!(f, "higher footprint for every α"),
            AlphaCrossover::AlwaysOne => write!(f, "identical footprint for every α"),
            AlphaCrossover::At { alpha, wins_below } => write!(
                f,
                "crossover at α = {:.3} (wins {})",
                alpha.get(),
                if *wins_below { "below" } else { "above" }
            ),
        }
    }
}

/// Computes where `NCF_s,α(x, y) = 1` as α sweeps `[0, 1]`.
///
/// With embodied ratio `a` and operational ratio `o`,
/// `NCF(α) = α·a + (1 − α)·o` crosses 1 at `α* = (1 − o)/(a − o)`.
///
/// # Examples
///
/// ```
/// use focal_core::{alpha_crossover, AlphaCrossover, DesignPoint, Scenario};
///
/// // Bigger chip, much lower energy: wins under operational-leaning α.
/// let x = DesignPoint::from_raw(1.5, 0.5, 0.5, 1.0)?;
/// let y = DesignPoint::reference();
/// match alpha_crossover(&x, &y, Scenario::FixedWork) {
///     AlphaCrossover::At { alpha, wins_below } => {
///         assert!(wins_below);
///         assert!((alpha.get() - 0.5).abs() < 1e-12);
///     }
///     other => panic!("expected a crossover, got {other:?}"),
/// }
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn alpha_crossover(x: &DesignPoint, y: &DesignPoint, scenario: Scenario) -> AlphaCrossover {
    let a = x.area() / y.area();
    let o = scenario.operational_ratio(x, y);
    let eps = 1e-12;
    let below = |v: f64| v < 1.0 - eps;
    let above = |v: f64| v > 1.0 + eps;

    match (below(a) || above(a), below(o) || above(o)) {
        (false, false) => AlphaCrossover::AlwaysOne,
        _ => {
            // Endpoint values: NCF(0) = o, NCF(1) = a.
            match (above(o), above(a)) {
                (false, false) => AlphaCrossover::AlwaysBelow,
                (true, true) => AlphaCrossover::AlwaysAbove,
                (false, true) => {
                    // Wins at α = 0, loses at α = 1. The crossover is in
                    // [0, 1] mathematically; clamp guards against rounding
                    // pushing it an epsilon outside.
                    let alpha = ((1.0 - o) / (a - o)).clamp(0.0, 1.0);
                    AlphaCrossover::At {
                        // focal-lint: allow(panic-freedom) -- clamped into the validated [0, 1] domain; a ≠ o in this branch
                        alpha: E2oWeight::new(alpha).expect("crossover lies in [0, 1]"),
                        wins_below: true,
                    }
                }
                (true, false) => {
                    let alpha = ((1.0 - o) / (a - o)).clamp(0.0, 1.0);
                    AlphaCrossover::At {
                        // focal-lint: allow(panic-freedom) -- clamped into the validated [0, 1] domain; a ≠ o in this branch
                        alpha: E2oWeight::new(alpha).expect("crossover lies in [0, 1]"),
                        wins_below: false,
                    }
                }
            }
        }
    }
}

/// Computes [`alpha_crossover`] for every `(x, y)` pair of a design-space
/// sweep in parallel, preserving pair order.
///
/// Each crossover is an independent closed-form evaluation, and
/// [`focal_engine::Engine::try_par_map`] writes each result into its own
/// slot, so the result is identical at every thread count. Use
/// [`focal_engine::Engine::serial`] (or `FOCAL_THREADS=1` with
/// [`focal_engine::Engine::from_env`]) for the exact serial path.
///
/// With a `memo`, pairs whose crossover is cached are answered from it
/// and only the missing pairs are fanned out; the result is element-wise
/// identical to the unmemoized call. While `engine` carries a fault plan
/// the memo is bypassed so injected faults reach the real evaluation
/// path.
///
/// # Errors
///
/// [`ModelError::ChunkPoisoned`](crate::ModelError::ChunkPoisoned) naming
/// the lowest failing chunk if an evaluation panics or `engine`'s fault
/// plan targets a chunk.
pub fn alpha_crossover_batch(
    engine: &focal_engine::Engine,
    pairs: &[(DesignPoint, DesignPoint)],
    scenario: Scenario,
    memo: Option<&mut SweepMemo>,
) -> Result<Vec<AlphaCrossover>> {
    SweepMemo::fan_through(
        memo.filter(|_| engine.faults().is_none()),
        pairs,
        |m, (x, y)| m.crossover_lookup(x, y, scenario),
        |m, (x, y), &result| m.crossover_insert(x, y, scenario, result),
        |pairs| Ok(engine.try_par_map(0, pairs, |(x, y)| alpha_crossover(x, y, scenario))?),
    )
}

/// First-order sensitivities of one NCF evaluation: how much the value
/// moves per unit change in α and per 1 % change in each proxy ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcfSensitivity {
    /// `∂NCF/∂α = embodied_ratio − operational_ratio`.
    pub d_alpha: f64,
    /// `∂NCF/∂(embodied ratio) = α` — the impact of a 100 % area-ratio
    /// error.
    pub d_embodied: f64,
    /// `∂NCF/∂(operational ratio) = 1 − α`.
    pub d_operational: f64,
}

impl NcfSensitivity {
    /// Computes the sensitivities of an evaluated NCF.
    pub fn of(ncf: &Ncf) -> NcfSensitivity {
        NcfSensitivity {
            d_alpha: ncf.embodied_ratio() - ncf.operational_ratio(),
            d_embodied: ncf.weight().embodied(),
            d_operational: ncf.weight().operational(),
        }
    }

    /// The dominant uncertainty axis: `"alpha"`, `"embodied"` or
    /// `"operational"` depending on which unit perturbation moves the NCF
    /// most.
    pub fn dominant_axis(&self) -> &'static str {
        let a = self.d_alpha.abs();
        let e = self.d_embodied.abs();
        let o = self.d_operational.abs();
        if a >= e && a >= o {
            "alpha"
        } else if e >= o {
            "embodied"
        } else {
            "operational"
        }
    }
}

/// A blended use-case: a fraction of the device's deployments (or
/// lifetime) behaves fixed-time (rebound-prone), the rest fixed-work.
///
/// `NCF_mix = (1 − mix)·NCF_fw + mix·NCF_ft`, which interpolates the
/// paper's two scenarios for fleets whose rebound exposure is partial.
///
/// # Errors
///
/// Returns an error if `fixed_time_share ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use focal_core::{blended_ncf, DesignPoint, E2oWeight};
///
/// let x = DesignPoint::from_power_perf(1.0, 1.3, 1.38)?; // runahead-like
/// let y = DesignPoint::reference();
/// let pure_fw = blended_ncf(&x, &y, E2oWeight::OPERATIONAL_DOMINATED, 0.0)?;
/// let pure_ft = blended_ncf(&x, &y, E2oWeight::OPERATIONAL_DOMINATED, 1.0)?;
/// let half = blended_ncf(&x, &y, E2oWeight::OPERATIONAL_DOMINATED, 0.5)?;
/// assert!(pure_fw < half && half < pure_ft);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn blended_ncf(
    x: &DesignPoint,
    y: &DesignPoint,
    alpha: E2oWeight,
    fixed_time_share: f64,
) -> Result<f64> {
    let share = crate::error::ensure_unit_interval("fixed_time_share", fixed_time_share)?;
    let fw = Ncf::evaluate(x, y, Scenario::FixedWork, alpha).value();
    let ft = Ncf::evaluate(x, y, Scenario::FixedTime, alpha).value();
    Ok((1.0 - share) * fw + share * ft)
}

/// The fixed-time share at which a blended comparison breaks even
/// (`NCF_mix = 1`), or `None` when the verdict does not depend on the
/// blend. This quantifies *how much rebound* a weakly sustainable
/// mechanism tolerates before it backfires.
///
/// # Examples
///
/// ```
/// use focal_core::{rebound_tolerance, DesignPoint, E2oWeight};
///
/// // PRE-like: saves energy (fw < 1) but burns power (ft > 1).
/// let x = DesignPoint::from_raw(1.005, 1.29, 0.93, 1.38)?;
/// let y = DesignPoint::reference();
/// let tol = rebound_tolerance(&x, &y, E2oWeight::OPERATIONAL_DOMINATED).unwrap();
/// assert!(tol > 0.1 && tol < 0.3); // flips once ~19% of use rebounds
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn rebound_tolerance(x: &DesignPoint, y: &DesignPoint, alpha: E2oWeight) -> Option<f64> {
    let fw = Ncf::evaluate(x, y, Scenario::FixedWork, alpha).value();
    let ft = Ncf::evaluate(x, y, Scenario::FixedTime, alpha).value();
    if (ft - fw).abs() < 1e-12 {
        return None;
    }
    let share = (1.0 - fw) / (ft - fw);
    (0.0..=1.0).contains(&share).then_some(share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn dp(area: f64, power: f64, energy: f64, perf: f64) -> DesignPoint {
        DesignPoint::from_raw(area, power, energy, perf).unwrap()
    }

    #[test]
    fn crossover_always_below_for_dominant_designs() {
        let x = dp(0.5, 0.5, 0.5, 1.0);
        let y = DesignPoint::reference();
        assert_eq!(
            alpha_crossover(&x, &y, Scenario::FixedWork),
            AlphaCrossover::AlwaysBelow
        );
    }

    #[test]
    fn crossover_always_above_for_dominated_designs() {
        let x = dp(2.0, 2.0, 2.0, 1.0);
        let y = DesignPoint::reference();
        assert_eq!(
            alpha_crossover(&x, &y, Scenario::FixedTime),
            AlphaCrossover::AlwaysAbove
        );
    }

    #[test]
    fn crossover_always_one_for_identical() {
        let y = DesignPoint::reference();
        assert_eq!(
            alpha_crossover(&y, &y, Scenario::FixedWork),
            AlphaCrossover::AlwaysOne
        );
    }

    #[test]
    fn crossover_value_solves_ncf_equals_one() {
        // a = 1.3, o = 0.7 ⇒ α* = 0.3/0.6 = 0.5; wins below (op side).
        let x = dp(1.3, 0.7, 0.7, 1.0);
        let y = DesignPoint::reference();
        match alpha_crossover(&x, &y, Scenario::FixedWork) {
            AlphaCrossover::At { alpha, wins_below } => {
                assert!((alpha.get() - 0.5).abs() < 1e-12);
                assert!(wins_below);
                let v = Ncf::evaluate(&x, &y, Scenario::FixedWork, alpha).value();
                assert!((v - 1.0).abs() < 1e-12);
            }
            other => panic!("expected crossover, got {other:?}"),
        }
    }

    #[test]
    fn crossover_direction_flips_with_ratios() {
        // Small chip, hungry operation: wins above the crossover.
        let x = dp(0.7, 1.3, 1.3, 1.0);
        let y = DesignPoint::reference();
        match alpha_crossover(&x, &y, Scenario::FixedWork) {
            AlphaCrossover::At { wins_below, .. } => assert!(!wins_below),
            other => panic!("expected crossover, got {other:?}"),
        }
    }

    #[test]
    fn sensitivity_matches_analytic_derivatives() {
        let x = dp(1.4, 0.6, 0.6, 1.0);
        let y = DesignPoint::reference();
        let alpha = E2oWeight::new(0.3).unwrap();
        let ncf = Ncf::evaluate(&x, &y, Scenario::FixedWork, alpha);
        let s = NcfSensitivity::of(&ncf);
        assert!((s.d_alpha - (1.4 - 0.6)).abs() < 1e-12);
        assert!((s.d_embodied - 0.3).abs() < 1e-12);
        assert!((s.d_operational - 0.7).abs() < 1e-12);
        assert_eq!(s.dominant_axis(), "alpha");
    }

    #[test]
    fn sensitivity_dominant_axis_tracks_weight() {
        let x = dp(1.01, 1.0, 1.0, 1.0);
        let y = DesignPoint::reference();
        let high = Ncf::evaluate(&x, &y, Scenario::FixedWork, E2oWeight::new(0.9).unwrap());
        assert_eq!(NcfSensitivity::of(&high).dominant_axis(), "embodied");
        let low = Ncf::evaluate(&x, &y, Scenario::FixedWork, E2oWeight::new(0.1).unwrap());
        assert_eq!(NcfSensitivity::of(&low).dominant_axis(), "operational");
    }

    #[test]
    fn blended_ncf_interpolates_linearly() {
        let x = dp(1.0, 1.3, 0.9, 1.4);
        let y = DesignPoint::reference();
        let alpha = E2oWeight::BALANCED;
        let fw = blended_ncf(&x, &y, alpha, 0.0).unwrap();
        let ft = blended_ncf(&x, &y, alpha, 1.0).unwrap();
        let mid = blended_ncf(&x, &y, alpha, 0.5).unwrap();
        assert!((mid - 0.5 * (fw + ft)).abs() < 1e-12);
        assert!(blended_ncf(&x, &y, alpha, 1.5).is_err());
    }

    #[test]
    fn rebound_tolerance_finds_breakeven_share() {
        let x = dp(1.0, 1.3, 0.9, 1.4);
        let y = DesignPoint::reference();
        let alpha = E2oWeight::OPERATIONAL_DOMINATED;
        let share = rebound_tolerance(&x, &y, alpha).unwrap();
        let at_share = blended_ncf(&x, &y, alpha, share).unwrap();
        assert!((at_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebound_tolerance_none_when_verdict_fixed() {
        let y = DesignPoint::reference();
        // Strongly sustainable: never breaks even within [0, 1].
        let strong = dp(0.8, 0.8, 0.8, 1.0);
        assert_eq!(rebound_tolerance(&strong, &y, E2oWeight::BALANCED), None);
        // Same ft and fw value: blend-independent.
        let flat = dp(1.0, 1.2, 1.2, 1.0);
        assert_eq!(rebound_tolerance(&flat, &y, E2oWeight::BALANCED), None);
    }

    #[test]
    fn crossover_batch_matches_scalar_calls() {
        let y = DesignPoint::reference();
        let pairs: Vec<(DesignPoint, DesignPoint)> = (1..40)
            .map(|i| (dp(0.5 + 0.05 * i as f64, 1.1, 1.1, 1.0), y))
            .collect();
        let want: Vec<AlphaCrossover> = pairs
            .iter()
            .map(|(x, y)| alpha_crossover(x, y, Scenario::FixedWork))
            .collect();
        for threads in [1, 2, 7] {
            let got = alpha_crossover_batch(
                &focal_engine::Engine::with_threads(threads),
                &pairs,
                Scenario::FixedWork,
                None,
            )
            .unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn crossover_batch_reports_a_poisoned_chunk_as_an_error() {
        let y = DesignPoint::reference();
        let pairs: Vec<(DesignPoint, DesignPoint)> = (1..40)
            .map(|i| (dp(0.5 + 0.05 * i as f64, 1.1, 1.1, 1.0), y))
            .collect();
        let plan = focal_engine::FaultPlan::parse("panic@crossovers:2")
            .unwrap()
            .leak();
        for threads in [1, 2, 7] {
            let engine = focal_engine::Engine::with_threads(threads)
                .with_faults(Some(plan))
                .at_site("crossovers");
            let mut memo = SweepMemo::new();
            let err = alpha_crossover_batch(&engine, &pairs, Scenario::FixedWork, Some(&mut memo))
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    crate::ModelError::ChunkPoisoned { chunk_index: 2, payload, .. }
                        if payload.contains("panic@crossovers:2")
                ),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn crossover_display_is_readable() {
        let x = dp(1.3, 0.7, 0.7, 1.0);
        let y = DesignPoint::reference();
        let c = alpha_crossover(&x, &y, Scenario::FixedWork);
        assert!(c.to_string().contains("crossover at α = 0.500"));
        assert!(AlphaCrossover::AlwaysBelow.to_string().contains("every α"));
    }
}

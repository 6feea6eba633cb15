//! Monte-Carlo robustness of the paper's verdicts (§3.5 quantified).
//!
//! The paper argues that conclusions reached *across ranges of scenarios
//! and weights* survive the inherent data uncertainty. This module makes
//! that argument quantitative: for each mechanism it samples α from the
//! paper's uncertainty band, jitters the proxy ratios, and reports the
//! probability that the verdict (footprint reduction or increase) holds.

use crate::taxonomy::{taxonomy, TaxonomyRow};
use focal_core::{DesignPoint, E2oRange, MonteCarloNcf, Result, Scenario, Sustainability};
use focal_report::Table;

/// Robustness of one mechanism's verdict under sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRobustness {
    /// Mechanism name (from the taxonomy).
    pub mechanism: &'static str,
    /// The deterministic verdict at the α-band centers.
    pub verdict: Sustainability,
    /// Probability the fixed-work comparison lands on the verdict's side
    /// of 1, under sampled α and ±`ratio_jitter` proxy noise.
    pub fixed_work_agreement: f64,
    /// Same for the fixed-time comparison.
    pub fixed_time_agreement: f64,
}

impl VerdictRobustness {
    /// The smaller of the two agreements — the weakest link.
    pub fn min_agreement(&self) -> f64 {
        self.fixed_work_agreement.min(self.fixed_time_agreement)
    }
}

fn agreement(prob_reduction: f64, expect_reduction: bool) -> f64 {
    if expect_reduction {
        prob_reduction
    } else {
        1.0 - prob_reduction
    }
}

/// Runs the Monte-Carlo robustness analysis over the full taxonomy.
///
/// `ratio_jitter` is the multiplicative noise (e.g. 0.1 = ±10 %) applied
/// independently to the embodied and operational proxy ratios; α is drawn
/// uniformly from the band matching each regime and the worse of the two
/// regimes is reported (conservative).
///
/// # Errors
///
/// Propagates model-construction errors; never fails for the built-in
/// taxonomy with `ratio_jitter ∈ [0, 1)`.
pub fn verdict_robustness(
    ratio_jitter: f64,
    samples: usize,
    seed: u64,
) -> Result<Vec<VerdictRobustness>> {
    verdict_robustness_on(
        &focal_engine::Engine::from_env(),
        ratio_jitter,
        samples,
        seed,
    )
}

/// [`verdict_robustness`] on an explicit engine: the Monte-Carlo sampler
/// uses chunked per-seed streams, so the agreements are bit-identical at
/// every thread count.
///
/// # Errors
///
/// Propagates model-construction errors; never fails for the built-in
/// taxonomy with `ratio_jitter ∈ [0, 1)`.
pub fn verdict_robustness_on(
    engine: &focal_engine::Engine,
    ratio_jitter: f64,
    samples: usize,
    seed: u64,
) -> Result<Vec<VerdictRobustness>> {
    verdict_robustness_with(engine, ratio_jitter, samples, seed, None)
}

/// [`verdict_robustness_on`] with an optional [`focal_core::SweepMemo`]
/// that every Monte-Carlo experiment goes through, so a second sweep
/// with the same parameters (e.g. the scenario-DSL twin of the suite's
/// robustness stage) is answered from the cache. `None` runs the
/// unmemoized path.
///
/// The experiments of one α regime share the sampler's seed, α range,
/// jitter and sample count, so each regime is one
/// [`MonteCarloNcf::prob_reduction_on`] batch that draws its samples
/// once for all rows and both scenarios.
///
/// # Errors
///
/// See [`verdict_robustness`]. For the built-in taxonomy only a zero
/// sample count or an injected fault can fail an experiment, and either
/// fails every experiment alike, so the error is the first experiment's
/// (first row, embodied regime, fixed-work): the first in row, regime,
/// scenario order.
pub fn verdict_robustness_with(
    engine: &focal_engine::Engine,
    ratio_jitter: f64,
    samples: usize,
    seed: u64,
    mut memo: Option<&mut focal_core::SweepMemo>,
) -> Result<Vec<VerdictRobustness>> {
    let rows = taxonomy()?;
    let reference = DesignPoint::reference();
    let points = rows
        .iter()
        .map(|row| mechanism_points(row, &reference))
        .collect::<Result<Vec<_>>>()?;
    let experiments: Vec<_> = points
        .iter()
        .flat_map(|&(x, y)| [(x, y, Scenario::FixedWork), (x, y, Scenario::FixedTime)])
        .collect();
    let samplers = [
        MonteCarloNcf::new(E2oRange::EMBODIED_DOMINATED, ratio_jitter, seed)?,
        MonteCarloNcf::new(E2oRange::OPERATIONAL_DOMINATED, ratio_jitter, seed)?,
    ];
    let mut regimes: [Vec<f64>; 2] = Default::default();
    for (mc, probs) in samplers.iter().zip(&mut regimes) {
        *probs = mc.prob_reduction_on(engine, &experiments, samples, memo.as_deref_mut())?;
    }

    let [embodied, operational] = &regimes;
    let per_row = embodied.chunks_exact(2).zip(operational.chunks_exact(2));
    let mut out = Vec::with_capacity(rows.len());
    for (row, (emb, op)) in rows.iter().zip(per_row) {
        // Each regime is judged against the paper's verdict *for that
        // regime* (acceleration is Less under embodied dominance but
        // Strongly under operational dominance — Finding #6).
        let mut worst_fw: f64 = 1.0;
        let mut worst_ft: f64 = 1.0;
        for (probs, regime_verdict) in [(emb, row.paper_embodied), (op, row.paper_operational)] {
            let (expect_fw, expect_ft) = expectations(regime_verdict);
            if let &[fw, ft] = probs {
                worst_fw = worst_fw.min(agreement(fw, expect_fw));
                worst_ft = worst_ft.min(agreement(ft, expect_ft));
            }
        }
        out.push(VerdictRobustness {
            mechanism: row.mechanism,
            verdict: row.worst(),
            fixed_work_agreement: worst_fw,
            fixed_time_agreement: worst_ft,
        });
    }
    Ok(out)
}

/// Which side of NCF = 1 each scenario should land on for a verdict.
fn expectations(verdict: Sustainability) -> (bool, bool) {
    match verdict {
        Sustainability::Strongly => (true, true),
        // Weakly (all taxonomy cases): wins fixed-work, loses fixed-time.
        Sustainability::Weakly => (true, false),
        Sustainability::Less | Sustainability::Indifferent => (false, false),
    }
}

/// Reconstructs the (x, y) design points behind a taxonomy row. The
/// taxonomy normalizes everything against the unit reference, so the row's
/// mechanism identifies the x-point generator.
fn mechanism_points(
    row: &TaxonomyRow,
    reference: &DesignPoint,
) -> Result<(DesignPoint, DesignPoint)> {
    use focal_perf::{LeakageFraction, ParallelFraction, PollackRule, SymmetricMulticore};
    let gamma = LeakageFraction::PAPER;
    let pollack = PollackRule::CLASSIC;
    Ok(match row.mechanism {
        "multicore (vs big core)" => {
            let f = ParallelFraction::new(0.95)?;
            (
                SymmetricMulticore::unit_cores(32)?.design_point(f, gamma, pollack)?,
                SymmetricMulticore::big_core(32.0)?.design_point(f, gamma, pollack)?,
            )
        }
        "heterogeneity (vs symmetric)" => {
            let f = ParallelFraction::new(0.8)?;
            let asym =
                focal_perf::AsymmetricMulticore::new(32.0, 4.0)?.design_point(f, gamma, pollack)?;
            let sym = SymmetricMulticore::unit_cores(32)?.design_point(f, gamma, pollack)?;
            (asym.normalized_to(&sym)?, *reference)
        }
        "hw acceleration @25% use" => (
            focal_uarch::Accelerator::HAMEED_H264.design_point(0.25)?,
            *reference,
        ),
        "dark silicon @25% use" => (
            focal_uarch::DarkSiliconSoc::PAPER.design_point(0.25)?,
            *reference,
        ),
        "caching (16 MiB LLC)" => {
            let w = focal_cache::MemoryBoundWorkload::paper()?;
            (
                w.design_point(focal_cache::CacheSize::from_mib(16.0)?)?,
                w.design_point(focal_cache::CacheSize::from_mib(1.0)?)?,
            )
        }
        "FSC core (vs OoO)" => (
            focal_uarch::CoreMicroarch::ForwardSlice.design_point()?,
            focal_uarch::CoreMicroarch::OutOfOrder.design_point()?,
        ),
        "speculation (PRE)" => (
            focal_uarch::PreciseRunahead::PAPER.design_point()?,
            *reference,
        ),
        "DVFS (scale down)" => {
            let core = focal_uarch::DvfsCore::default_core();
            (core.design_point(0.8)?, core.nominal_without_dvfs()?)
        }
        "turbo boost" => (
            focal_uarch::TurboBoost::default_turbo().design_point(1.2)?,
            *reference,
        ),
        "pipeline gating" => (
            focal_uarch::PipelineGating::PAPER.design_point()?,
            *reference,
        ),
        "die shrink" => {
            focal_scaling::DieShrink::next_node(focal_scaling::ScalingRegime::PostDennard)
                .design_points()?
        }
        _ => {
            return Err(focal_core::ModelError::Inconsistent {
                constraint: "unknown taxonomy mechanism name",
            })
        }
    })
}

/// Renders the robustness analysis as a table.
///
/// # Errors
///
/// See [`verdict_robustness`].
pub fn robustness_table(ratio_jitter: f64, samples: usize, seed: u64) -> Result<Table> {
    let mut table = Table::new(vec![
        "mechanism",
        "verdict",
        "P[fw side holds]",
        "P[ft side holds]",
    ]);
    for r in verdict_robustness(ratio_jitter, samples, seed)? {
        table.row(vec![
            r.mechanism.to_string(),
            r.verdict.to_string(),
            format!("{:.1}%", r.fixed_work_agreement * 100.0),
            format!("{:.1}%", r.fixed_time_agreement * 100.0),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_whole_taxonomy() {
        let rows = verdict_robustness(0.05, 2000, 7).unwrap();
        assert_eq!(rows.len(), taxonomy().unwrap().len());
    }

    /// With no jitter, verdicts that hold across their whole α band agree
    /// deterministically. Two mechanisms are *within-band marginal* even
    /// without noise — acceleration and dark silicon at 25 % use sit near
    /// their break-even α (Finding #6/#7's conditionality) — and must NOT
    /// report false certainty.
    #[test]
    fn zero_jitter_is_deterministic_for_band_stable_verdicts() {
        let marginal = ["hw acceleration @25% use", "dark silicon @25% use"];
        for r in verdict_robustness(0.0, 2000, 1).unwrap() {
            if marginal.contains(&r.mechanism) {
                assert!(
                    r.min_agreement() < 1.0,
                    "{} should be within-band marginal",
                    r.mechanism
                );
                continue;
            }
            assert!(
                r.min_agreement() > 0.99,
                "{}: fw {:.3} ft {:.3}",
                r.mechanism,
                r.fixed_work_agreement,
                r.fixed_time_agreement
            );
        }
    }

    /// Decisive verdicts (dark silicon, die shrink, turbo) survive ±10 %
    /// proxy noise with near-certainty; marginal ones (gating's 1-2 %
    /// savings) degrade gracefully rather than flipping.
    #[test]
    fn jitter_degrades_marginal_verdicts_gracefully() {
        let rows = verdict_robustness(0.10, 4000, 3).unwrap();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.mechanism == name)
                .unwrap_or_else(|| panic!("{name} in taxonomy"))
        };
        assert!(get("caching (16 MiB LLC)").min_agreement() > 0.99);
        // Turbo's fixed-work penalty under high-α sampling is only a few
        // percent, so ±10% noise erodes (without flipping) its certainty.
        assert!(get("turbo boost").min_agreement() > 0.85);
        // Post-Dennard die shrink: the fixed-work side is decisive, but
        // its fixed-time win rests entirely on the embodied saving (the
        // power ratio is exactly 1), so under low-α sampling with ±10%
        // noise that side is genuinely coin-flip territory.
        let shrink = get("die shrink");
        assert!(shrink.fixed_work_agreement > 0.99);
        assert!(shrink.fixed_time_agreement > 0.5);
        // Pipeline gating saves only ~1-8%: under ±10% noise the verdict
        // is genuinely uncertain, and the analysis must say so.
        let gating = get("pipeline gating");
        assert!(gating.min_agreement() > 0.4 && gating.min_agreement() < 0.95);
    }

    #[test]
    fn results_are_reproducible() {
        let a = verdict_robustness(0.05, 1000, 9).unwrap();
        let b = verdict_robustness(0.05, 1000, 9).unwrap();
        assert_eq!(a, b);
    }
}

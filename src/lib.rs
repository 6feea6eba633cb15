//! # FOCAL — a first-order carbon model to assess processor sustainability
//!
//! A production-quality Rust reproduction of *FOCAL: A First-Order Carbon
//! Model to Assess Processor Sustainability* (Lieven Eeckhout, ASPLOS
//! 2024), including every substrate the paper's evaluation builds on and a
//! harness that regenerates every figure and finding.
//!
//! ## The model in 30 seconds
//!
//! FOCAL compares two processor designs with first-order proxies — chip
//! **area** for the embodied footprint; **energy** (fixed-work) or
//! **power** (fixed-time) for the operational footprint — weighted by the
//! embodied-to-operational ratio `α_E2O`:
//!
//! ```text
//! NCF_s,α(X, Y) = α · A_X/A_Y + (1 − α) · O_s(X)/O_s(Y)
//! ```
//!
//! A design is **strongly sustainable** if NCF < 1 under both scenarios,
//! **weakly** if under exactly one, **less** if under neither.
//!
//! ## Quick start
//!
//! ```
//! use focal::{classify, DesignPoint, E2oWeight, Sustainability};
//!
//! // Compare a design with 1% more area, 7% less energy, 14% more
//! // performance (a hybrid branch predictor) against its baseline:
//! let x = focal::DesignPointBuilder::new()
//!     .area(1.01)
//!     .energy(0.93)
//!     .performance(1.14)
//!     .build()?;
//! let y = DesignPoint::reference();
//!
//! let verdict = classify(&x, &y, E2oWeight::OPERATIONAL_DOMINATED);
//! assert_eq!(verdict.class, Sustainability::Weakly); // rebound-sensitive!
//! # Ok::<(), focal::ModelError>(())
//! ```
//!
//! ## Crate map
//!
//! This facade re-exports the whole workspace:
//!
//! * [`mod@core`] — NCF, scenarios, α weights, classification, uncertainty.
//! * [`wafer`] — chips-per-wafer, yield models, embodied carbon (Fig. 1).
//! * [`perf`] — Amdahl / Hill–Marty / Woo–Lee multicore models (Figs. 3–4).
//! * [`cache`] — CACTI-lite cache models (Fig. 6).
//! * [`uarch`] — cores, speculation, accelerators, DVFS (Figs. 5, 7, 8).
//! * [`scaling`] — technology nodes, Dennard scaling, die shrinks (Fig. 9).
//! * [`act`] — an ACT-style bottom-up baseline (§3.5).
//! * [`engine`] — the deterministic parallel engine and its fault plans.
//! * [`studies`] — every paper figure and finding, regenerated.
//! * [`scenario`] — the TOML scenario DSL and its evaluation.
//! * [`report`] — tables, CSV, ASCII charts, exact `f64` text, JSON
//!   escaping, `BENCH.json` records and `--dump-dir` namespaces.
//! * [`serve`] — NDJSON batch/streaming query service over the engine.
//!
//! The harness binaries (`focal-bench`) and the linter (`focal-lint`)
//! are workspace members outside this facade.
//!
//! The most common types are re-exported at the crate root.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub use focal_act as act;
pub use focal_cache as cache;
pub use focal_core as core;
pub use focal_engine as engine;
pub use focal_perf as perf;
pub use focal_report as report;
pub use focal_scaling as scaling;
pub use focal_scenario as scenario;
pub use focal_serve as serve;
pub use focal_studies as studies;
pub use focal_uarch as uarch;
pub use focal_wafer as wafer;

pub use focal_core::{
    classify, classify_over_range, CarbonFootprint, Classification, DesignPoint,
    DesignPointBuilder, E2oRange, E2oWeight, Energy, ModelError, Ncf, NcfBand, NcfPair,
    Performance, Power, Result, Scenario, SiliconArea, Sustainability,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let x = crate::DesignPoint::reference();
        let ncf = crate::Ncf::evaluate(
            &x,
            &x,
            crate::Scenario::FixedWork,
            crate::E2oWeight::BALANCED,
        );
        assert_eq!(ncf.value(), 1.0);
    }
}

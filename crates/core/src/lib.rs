//! # focal-core — the FOCAL first-order carbon model
//!
//! This crate implements the core of FOCAL (Eeckhout, ASPLOS 2024): a
//! parameterized, first-order analytical model that lets computer architects
//! reason about processor sustainability *despite* inherent data
//! uncertainty.
//!
//! ## Model in one paragraph
//!
//! FOCAL compares two designs `X` and `Y` using first-order proxies: chip
//! **area** stands in for the embodied footprint, and **energy** (fixed-work
//! scenario) or **power** (fixed-time scenario) stands in for the
//! operational footprint. The *normalized carbon footprint*
//!
//! ```text
//! NCF_s,α(X, Y) = α · A_X/A_Y + (1 − α) · O_s(X)/O_s(Y)
//! ```
//!
//! weighs the two with the embodied-to-operational weight `α_E2O`. Designs
//! are then classified **strongly** (NCF < 1 under both scenarios),
//! **weakly** (under exactly one) or **less** sustainable (under neither).
//!
//! ## Quick start
//!
//! ```
//! use focal_core::{classify, DesignPoint, E2oWeight, Scenario, Sustainability, Ncf};
//!
//! // The paper's OoO-vs-InO comparison (§5.6): +75% performance for
//! // +39% area and 2.32x power.
//! let ooo = DesignPoint::from_power_perf(1.39, 2.32, 1.75)?;
//! let ino = DesignPoint::reference();
//!
//! let ncf = Ncf::evaluate(&ooo, &ino, Scenario::FixedWork, E2oWeight::EMBODIED_DOMINATED);
//! assert!(ncf.value() > 1.0);
//!
//! let verdict = classify(&ooo, &ino, E2oWeight::EMBODIED_DOMINATED);
//! assert_eq!(verdict.class, Sustainability::Less); // Finding #9
//! # Ok::<(), focal_core::ModelError>(())
//! ```
//!
//! ## Embracing uncertainty
//!
//! Because the true α is unknown, analyses should sweep ranges
//! ([`E2oRange`], [`classify_over_range`]) or sample distributions
//! ([`MonteCarloNcf`]); rebound effects are modeled with the fixed-time
//! scenario (usage rebound) and weight adjustments
//! ([`deployment_adjusted_weight`], deployment rebound).
//!
//! The companion crates supply the substrates the paper's studies need:
//! `focal-wafer` (yield & embodied carbon), `focal-perf` (Amdahl /
//! Hill-Marty / Woo-Lee), `focal-cache`, `focal-uarch`, `focal-scaling`,
//! and `focal-studies` reproduces every figure and finding.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod analysis;
mod classify;
mod design;
mod error;
mod fleet;
mod mc_kernel;
mod memo;
mod ncf;
mod quantity;
mod rebound;
mod scenario;
mod sensitivity;
mod uncertainty;
mod weight;

pub use analysis::{classify_all, pareto_frontier, Candidate, SweepPoint, SweepSeries};
pub use classify::{
    classify, classify_over_range, classify_over_range_on, classify_with_tolerance, Classification,
    RobustClassification, Sustainability, DEFAULT_TOLERANCE,
};
pub use design::{DesignPoint, DesignPointBuilder};
pub use error::{ModelError, Result};
pub use fleet::{Fleet, Segment};
pub use mc_kernel::{mc_kernel_isa, MC_GROUP_CHUNKS};
pub use memo::{MemoStats, SweepMemo, SweepMemoStats};
pub use ncf::{Ncf, NcfBand, NcfPair};
pub use quantity::{CarbonFootprint, Energy, ExecutionTime, Performance, Power, SiliconArea};
pub use rebound::{deployment_adjusted_weight, lifetime_adjusted_weight};
pub use scenario::Scenario;
pub use sensitivity::{
    alpha_crossover, alpha_crossover_batch, blended_ncf, rebound_tolerance, AlphaCrossover,
    NcfSensitivity,
};
pub use uncertainty::{ncf_interval, Interval, McSummary, MonteCarloNcf, MC_CHUNK_SAMPLES};
pub use weight::{E2oRange, E2oWeight};

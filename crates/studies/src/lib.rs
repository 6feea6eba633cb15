//! # focal-studies — every figure and finding of the paper, reproduced
//!
//! One module per archetypal design-choice study of §5–§7, each exposing
//! the paper figure it regenerates (as [`Figure`]) and the findings it
//! checks (as [`Finding`] with paper-vs-measured metrics):
//!
//! | Module | Paper | Regenerates |
//! |--------|-------|-------------|
//! | [`wafer_figure`] | §3.1 | Figure 1 |
//! | [`multicore`] | §5.1 | Figure 3, Findings 1–3 |
//! | [`asymmetric`] | §5.2 | Figure 4, Findings 4–5 |
//! | [`accelerator`] | §5.3 | Figure 5(a), Finding 6 |
//! | [`dark_silicon`] | §5.4 | Figure 5(b), Finding 7 |
//! | [`caching`] | §5.5 | Figure 6, Finding 8 |
//! | [`microarch`] | §5.6 | Figure 7, Findings 9–11 |
//! | [`speculation`] | §5.7 | Figure 8, Findings 12–13 |
//! | [`dvfs`] | §5.8 | Findings 14–15 |
//! | [`gating`] | §5.9 | Finding 16 |
//! | [`die_shrink`] | §6 | Finding 17 |
//! | [`case_study`] | §7 | Figure 9 |
//!
//! [`all_figures`] and [`all_findings`] regenerate everything at once.
//!
//! ## Example
//!
//! ```
//! let findings = focal_studies::all_findings()?;
//! assert!(findings.iter().all(|f| f.reproduces()));
//! # Ok::<(), focal_core::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod accelerator;
pub mod asymmetric;
pub mod caching;
pub mod case_study;
pub mod dark_silicon;
pub mod die_shrink;
pub mod dvfs;
pub mod extensions;
mod figure;
mod finding;
pub mod gating;
pub mod labels;
pub mod microarch;
pub mod multicore;
mod registry;
mod report;
pub mod robustness;
pub mod soc;
pub mod speculation;
pub mod taxonomy;
pub mod wafer_figure;

pub use figure::{Figure, Panel};
pub use finding::{Finding, Metric};
pub use registry::{
    all_figures, all_figures_on, all_findings, all_findings_on, builtin_registry, RegistryEntry,
    StudyBuilder, StudyKind, StudyOutput, FIGURE_IDS, FINDING_IDS,
};
pub use report::{findings_markdown, findings_summary_table};

/// The float writers the figure and finding renderers use, re-exported
/// for crates that render alongside them without depending on
/// `focal-report` (the scenario crate's canonical writer).
pub use focal_report::{write_fixed, write_shortest};

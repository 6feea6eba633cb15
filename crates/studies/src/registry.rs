//! The complete registry: every figure and every finding of the paper,
//! regenerated in one call each. This is what the benchmark harness and
//! EXPERIMENTS.md are built from.

use crate::accelerator::AcceleratorStudy;
use crate::asymmetric::AsymmetricStudy;
use crate::caching::CachingStudy;
use crate::case_study::CaseStudy;
use crate::dark_silicon::DarkSiliconStudy;
use crate::die_shrink::DieShrinkStudy;
use crate::dvfs::DvfsStudy;
use crate::figure::Figure;
use crate::finding::Finding;
use crate::gating::GatingStudy;
use crate::microarch::MicroarchStudy;
use crate::multicore::MulticoreStudy;
use crate::speculation::SpeculationStudy;
use focal_core::Result;
use focal_engine::Engine;

/// The registry ids of the nine figures, in paper (and builder) order.
pub const FIGURE_IDS: [&str; 9] = [
    "fig1", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9",
];

/// The registry ids of the 18 findings, matching the suite's
/// `finding-NN` naming.
pub const FINDING_IDS: [&str; 18] = [
    "finding-01",
    "finding-02",
    "finding-03",
    "finding-04",
    "finding-05",
    "finding-06",
    "finding-07",
    "finding-08",
    "finding-09",
    "finding-10",
    "finding-11",
    "finding-12",
    "finding-13",
    "finding-14",
    "finding-15",
    "finding-16",
    "finding-17",
    "finding-18",
];

/// The figure builders, in paper order. Each entry is an independent
/// `fn() -> Result<Figure>`, which is what lets the registry fan the
/// regeneration out across the engine without shared state.
const FIGURE_BUILDERS: [fn() -> Result<Figure>; 9] = [
    || crate::wafer_figure::figure1(),
    || MulticoreStudy::default().figure3(),
    || AsymmetricStudy::default().figure4(),
    || AcceleratorStudy::default().figure5a(),
    || DarkSiliconStudy::default().figure5b(),
    || CachingStudy::paper()?.figure6(),
    || MicroarchStudy.figure7(),
    || SpeculationStudy::default().figure8(),
    || CaseStudy::paper()?.figure9(),
];

/// The finding builders: finding `n` (1-based) is entry `n − 1`, with the
/// §7 case-study headline as entry 17 (id 18).
const FINDING_BUILDERS: [fn() -> Result<Finding>; 18] = [
    || MulticoreStudy::default().finding1(),
    || MulticoreStudy::default().finding2(),
    || MulticoreStudy::default().finding3(),
    || AsymmetricStudy::default().finding4(),
    || AsymmetricStudy::default().finding5(),
    || AcceleratorStudy::default().finding6(),
    || DarkSiliconStudy::default().finding7(),
    || CachingStudy::paper()?.finding8(),
    || MicroarchStudy.finding9(),
    || MicroarchStudy.finding10(),
    || MicroarchStudy.finding11(),
    || SpeculationStudy::default().finding12(),
    || SpeculationStudy::default().finding13(),
    || DvfsStudy::default().finding14(),
    || DvfsStudy::default().finding15(),
    || GatingStudy::default().finding16(),
    || DieShrinkStudy.finding17(),
    || CaseStudy::paper()?.headline(),
];

/// Whether a registry entry regenerates a figure or checks a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyKind {
    /// A paper figure (CSV-rendering panels of sweep series).
    Figure,
    /// A paper finding (paper-vs-measured metrics plus a verdict).
    Finding,
}

/// The output of one registry entry.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyOutput {
    /// A regenerated figure.
    Figure(Figure),
    /// A checked finding.
    Finding(Finding),
}

/// The builder behind one registry entry — the same `fn` pointers that
/// back [`all_figures_on`] / [`all_findings_on`], so a data-driven
/// consumer (the scenario compiler, the oracle tests) evaluates exactly
/// the code path the hand-coded suite runs.
#[derive(Debug, Clone, Copy)]
pub enum StudyBuilder {
    /// Builds a figure.
    Figure(fn() -> Result<Figure>),
    /// Builds a finding.
    Finding(fn() -> Result<Finding>),
}

/// One entry of the data-driven registry: a stable id, its kind, and the
/// hand-coded builder that serves as the oracle for any DSL twin.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// Stable id (`fig1`…`fig9`, `finding-01`…`finding-18`).
    pub id: &'static str,
    /// Figure or finding.
    pub kind: StudyKind,
    /// The hand-coded builder.
    pub builder: StudyBuilder,
}

impl RegistryEntry {
    /// Evaluates the entry's builder.
    ///
    /// # Errors
    ///
    /// Never fails for the paper's built-in configurations.
    pub fn build(&self) -> Result<StudyOutput> {
        match self.builder {
            StudyBuilder::Figure(f) => Ok(StudyOutput::Figure(f()?)),
            StudyBuilder::Finding(f) => Ok(StudyOutput::Finding(f()?)),
        }
    }
}

/// The complete data-driven registry: all 9 figures followed by all 18
/// findings, built from the same `fn` pointers as [`all_figures_on`] and
/// [`all_findings_on`] (so there is exactly one source of truth for what
/// each id computes).
pub fn builtin_registry() -> Vec<RegistryEntry> {
    let mut entries = Vec::with_capacity(FIGURE_IDS.len() + FINDING_IDS.len());
    for (id, build) in FIGURE_IDS.iter().zip(FIGURE_BUILDERS) {
        entries.push(RegistryEntry {
            id,
            kind: StudyKind::Figure,
            builder: StudyBuilder::Figure(build),
        });
    }
    for (id, build) in FINDING_IDS.iter().zip(FINDING_BUILDERS) {
        entries.push(RegistryEntry {
            id,
            kind: StudyKind::Finding,
            builder: StudyBuilder::Finding(build),
        });
    }
    entries
}

/// Regenerates every figure of the paper's evaluation (Figures 1 and 3–9;
/// Figure 2 is a conceptual illustration with no data series), in
/// parallel across the engine selected by `FOCAL_THREADS`.
///
/// # Errors
///
/// Never fails for the paper's built-in configurations.
pub fn all_figures() -> Result<Vec<Figure>> {
    all_figures_on(&Engine::from_env())
}

/// [`all_figures`] on an explicit [`Engine`].
///
/// Every builder is a pure function and `try_par_map` preserves builder
/// order, so the output — down to the CSV bytes — is identical at every
/// thread count (pinned by `tests/engine_determinism.rs`).
///
/// # Errors
///
/// Never fails for the paper's built-in configurations. A panicking
/// builder, or a fault plan on `engine` that targets one, returns
/// [`ModelError::ChunkPoisoned`](focal_core::ModelError::ChunkPoisoned)
/// naming the lowest failing chunk.
pub fn all_figures_on(engine: &Engine) -> Result<Vec<Figure>> {
    engine
        .try_par_map(0, &FIGURE_BUILDERS, |build| build())?
        .into_iter()
        .collect()
}

/// Recomputes all 17 findings plus the §7 case-study headline (id 18),
/// in parallel across the engine selected by `FOCAL_THREADS`.
///
/// # Errors
///
/// Never fails for the paper's built-in configurations.
pub fn all_findings() -> Result<Vec<Finding>> {
    all_findings_on(&Engine::from_env())
}

/// [`all_findings`] on an explicit [`Engine`]; finding order (and every
/// measured metric) is thread-count invariant.
///
/// # Errors
///
/// Never fails for the paper's built-in configurations; failures are
/// reported as in [`all_figures_on`].
pub fn all_findings_on(engine: &Engine) -> Result<Vec<Finding>> {
    engine
        .try_par_map(0, &FINDING_BUILDERS, |build| build())?
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_figure_chunk_is_returned_as_an_error() {
        let plan = focal_engine::FaultPlan::parse("panic@figures:3")
            .unwrap()
            .leak();
        for threads in [1, 2, 7] {
            let engine = Engine::with_threads(threads)
                .with_faults(Some(plan))
                .at_site("figures");
            let err = all_figures_on(&engine).unwrap_err();
            assert!(
                matches!(
                    &err,
                    focal_core::ModelError::ChunkPoisoned { chunk_index: 3, payload, .. }
                        if payload.contains("panic@figures:3")
                ),
                "threads={threads}: {err}"
            );
        }
    }

    #[test]
    fn every_figure_regenerates() {
        let figs = all_figures().unwrap();
        assert_eq!(figs.len(), 9);
        let ids: Vec<&str> = figs.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec!["fig1", "fig3", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9"]
        );
        for f in &figs {
            assert!(!f.panels.is_empty(), "{} has panels", f.id);
            for p in &f.panels {
                assert!(!p.series.is_empty(), "{}/{} has series", f.id, p.title);
            }
        }
    }

    /// The headline regression test of the whole reproduction: every
    /// finding's qualitative verdict and quantitative metrics match the
    /// paper.
    #[test]
    fn every_finding_reproduces() {
        let findings = all_findings().unwrap();
        assert_eq!(findings.len(), 18);
        for f in &findings {
            assert!(f.reproduces(), "Finding #{} failed:\n{f}", f.id);
        }
    }

    #[test]
    fn finding_ids_are_sequential() {
        let findings = all_findings().unwrap();
        for (i, f) in findings.iter().enumerate() {
            assert_eq!(f.id as usize, i + 1);
        }
    }

    #[test]
    fn builtin_registry_mirrors_the_builder_arrays() {
        let entries = builtin_registry();
        assert_eq!(entries.len(), 27);
        let figures = all_figures().unwrap();
        let findings = all_findings().unwrap();
        for (entry, fig) in entries.iter().take(FIGURE_IDS.len()).zip(&figures) {
            assert_eq!(entry.kind, StudyKind::Figure);
            assert_eq!(entry.id, fig.id);
            match entry.build().unwrap() {
                StudyOutput::Figure(built) => assert_eq!(built.to_csv(), fig.to_csv()),
                StudyOutput::Finding(f) => panic!("{} built a finding {f}", entry.id),
            }
        }
        for (entry, finding) in entries.iter().skip(FIGURE_IDS.len()).zip(&findings) {
            assert_eq!(entry.kind, StudyKind::Finding);
            assert_eq!(entry.id, format!("finding-{:02}", finding.id));
            match entry.build().unwrap() {
                StudyOutput::Finding(built) => assert_eq!(&built, finding),
                StudyOutput::Figure(f) => panic!("{} built figure {}", entry.id, f.id),
            }
        }
    }
}

//! Compilation: lower a [`CanonicalScenario`] onto the same
//! parameterized entry points the hand-coded registry uses, so a DSL
//! twin of a paper figure produces byte-identical output to its
//! hand-coded oracle. Batch evaluation runs on the deterministic engine
//! with `try_par_map` fault isolation, exactly like the suite.

use std::fmt::Write as _;
use std::path::Path;

use crate::canonical::{canonicalize, figure_id, CanonicalScenario, StudySpec};
use crate::digest::digest_entry;
use crate::error::{Result, ScenarioError};
use crate::schema::{parse_scenario, ScenarioKind};
use focal_core::ModelError;
use focal_engine::Engine;
use focal_studies::die_shrink::DieShrinkStudy;
use focal_studies::microarch::MicroarchStudy;
use focal_studies::robustness::{verdict_robustness_with, VerdictRobustness};
use focal_studies::wafer_figure::figure1_with;
use focal_studies::{write_fixed, Figure, Finding};
use focal_wafer::EmbodiedModel;

/// Bytes reserved for a finding's text (claim, verdict and metric
/// lines; the shipped findings render 200–600 bytes).
const FINDING_TEXT_HINT: usize = 512;

/// Bytes reserved per robustness row (mechanism, verdict and two
/// agreements).
const ROBUSTNESS_ROW_HINT: usize = 96;

/// What a scenario evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutput {
    /// A multi-panel figure (kind = "figure").
    Figure(Figure),
    /// A single paper finding (kind = "finding").
    Finding(Finding),
    /// Taxonomy verdict-robustness rows (kind = "robustness").
    Robustness(Vec<VerdictRobustness>),
}

impl ScenarioOutput {
    /// Renders the output to its canonical bytes: figures as CSV (the
    /// exact bytes the suite digests), findings and robustness rows as
    /// their stable text forms. Each form is written into one buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ScenarioOutput::Figure(figure) => figure.to_csv().into_bytes(),
            ScenarioOutput::Finding(finding) => {
                let mut text = String::with_capacity(FINDING_TEXT_HINT);
                // Writing into a `String` cannot fail.
                let _ = writeln!(text, "{finding}");
                text.into_bytes()
            }
            ScenarioOutput::Robustness(rows) => {
                let mut text = String::with_capacity(rows.len() * ROBUSTNESS_ROW_HINT);
                for row in rows {
                    // `{mechanism}: verdict {verdict}, fixed-work {:.6},
                    // fixed-time {:.6}`.
                    let _ = write!(
                        text,
                        "{}: verdict {}, fixed-work ",
                        row.mechanism, row.verdict
                    );
                    let _ = write_fixed(&mut text, row.fixed_work_agreement, 6);
                    text.push_str(", fixed-time ");
                    let _ = write_fixed(&mut text, row.fixed_time_agreement, 6);
                    text.push('\n');
                }
                text.into_bytes()
            }
        }
    }

    /// The suite-format digest entry (`"{len} bytes, fnv64={hash:016x}"`)
    /// of [`ScenarioOutput::to_bytes`].
    #[must_use]
    pub fn digest_entry(&self) -> String {
        digest_entry(&self.to_bytes())
    }
}

/// A scenario compiled and ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    canonical: CanonicalScenario,
}

impl CompiledScenario {
    /// Compiles scenario source text.
    ///
    /// # Errors
    ///
    /// Returns a structured [`ScenarioError`] on any parse, schema or
    /// canonicalization failure.
    pub fn compile(text: &str, file: &str) -> Result<CompiledScenario> {
        let def = parse_scenario(text, file)?;
        Ok(CompiledScenario {
            canonical: canonicalize(&def)?,
        })
    }

    /// The scenario id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.canonical.id
    }

    /// The resolved canonical form.
    #[must_use]
    pub fn canonical(&self) -> &CanonicalScenario {
        &self.canonical
    }

    /// The registry id this scenario mirrors, when it mirrors one: the
    /// family's figure id for figures, `finding-NN` for findings.
    #[must_use]
    pub fn registry_id(&self) -> Option<String> {
        match self.canonical.kind {
            ScenarioKind::Figure => figure_id(self.canonical.family).map(str::to_string),
            ScenarioKind::Finding => self
                .canonical
                .index
                .map(|index| format!("finding-{index:02}")),
            ScenarioKind::Robustness => None,
        }
    }

    /// The Monte-Carlo seed this scenario evaluates under, when it has
    /// one (robustness/taxonomy studies). Deterministic scenarios return
    /// `None`: their outputs are pure functions of the canonical spec.
    #[must_use]
    pub fn mc_seed(&self) -> Option<u64> {
        match self.canonical.spec {
            StudySpec::Taxonomy { seed, .. } => Some(seed),
            _ => None,
        }
    }

    /// Evaluates the scenario serially. Robustness scenarios need an
    /// engine — use [`CompiledScenario::evaluate_on`].
    ///
    /// # Errors
    ///
    /// Propagates any model error from the underlying study.
    pub fn evaluate(&self) -> focal_core::Result<ScenarioOutput> {
        let c = &self.canonical;
        match (&c.spec, c.kind) {
            (StudySpec::Taxonomy { .. }, _) => Err(ModelError::Inconsistent {
                constraint: "robustness scenarios run on an engine; use evaluate_on",
            }),
            (spec, ScenarioKind::Figure) => self.evaluate_figure(spec).map(ScenarioOutput::Figure),
            (spec, ScenarioKind::Finding) => {
                self.evaluate_finding(spec).map(ScenarioOutput::Finding)
            }
            (_, ScenarioKind::Robustness) => Err(ModelError::Inconsistent {
                constraint: "robustness scenarios run on the taxonomy study",
            }),
        }
    }

    /// Evaluates the scenario, running robustness scenarios on the given
    /// engine with the scenario's own seed and sample count. With a
    /// `memo`, their Monte-Carlo experiments go through it (so a twin of
    /// an already-run sweep is answered from the cache); every other kind
    /// evaluates exactly as [`CompiledScenario::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates any model error from the underlying study, including
    /// `ChunkPoisoned` from a poisoned Monte-Carlo chunk.
    pub fn evaluate_on(
        &self,
        engine: &Engine,
        memo: Option<&mut focal_core::SweepMemo>,
    ) -> focal_core::Result<ScenarioOutput> {
        match &self.canonical.spec {
            StudySpec::Taxonomy {
                samples,
                seed,
                jitter,
            } => {
                let rows = verdict_robustness_with(engine, *jitter, *samples, *seed, memo)?;
                Ok(ScenarioOutput::Robustness(rows))
            }
            _ => self.evaluate(),
        }
    }

    /// [`CompiledScenario::evaluate_on`] through `memo`.
    ///
    /// # Errors
    ///
    /// See [`CompiledScenario::evaluate_on`].
    pub fn evaluate_memo_on(
        &self,
        engine: &Engine,
        memo: &mut focal_core::SweepMemo,
    ) -> focal_core::Result<ScenarioOutput> {
        self.evaluate_on(engine, Some(memo))
    }

    fn evaluate_figure(&self, spec: &StudySpec) -> focal_core::Result<Figure> {
        match spec {
            StudySpec::Wafer {
                wafer,
                defect_density,
                yield_models,
                die_min_mm2,
                die_max_mm2,
                die_steps,
                reference_mm2,
            } => {
                let models: Vec<EmbodiedModel> = yield_models
                    .iter()
                    .map(|&m| EmbodiedModel::new(*wafer, m, *defect_density))
                    .collect();
                figure1_with(
                    &models,
                    *die_min_mm2,
                    *die_max_mm2,
                    *die_steps,
                    *reference_mm2,
                )
            }
            StudySpec::Multicore {
                study,
                bces,
                fs,
                alphas,
            } => study.figure3_sweep(bces, fs, alphas),
            StudySpec::Asymmetric {
                study,
                bces,
                fs,
                alphas,
            } => study.figure4_sweep(bces, fs, alphas),
            StudySpec::Accelerator {
                study,
                steps,
                ranges,
            } => study.figure5a_grid(*steps, ranges),
            StudySpec::DarkSilicon {
                study,
                steps,
                ranges,
            } => study.figure5b_grid(*steps, ranges),
            StudySpec::Caching {
                study,
                sizes,
                alphas,
            } => study.figure6_sweep(sizes, alphas),
            StudySpec::Microarch { alphas } => MicroarchStudy.figure7_weights(alphas),
            StudySpec::Speculation {
                study,
                steps,
                max_area,
                alphas,
            } => study.figure8_grid(*steps, *max_area, alphas),
            StudySpec::CaseStudy { study, alphas } => study.figure9_weights(alphas),
            StudySpec::Dvfs { .. }
            | StudySpec::Gating { .. }
            | StudySpec::DieShrink
            | StudySpec::Taxonomy { .. } => Err(ModelError::Inconsistent {
                constraint: "this study family has no figure",
            }),
        }
    }

    fn evaluate_finding(&self, spec: &StudySpec) -> focal_core::Result<Finding> {
        let index = self.canonical.index.ok_or(ModelError::Inconsistent {
            constraint: "finding scenarios carry an index",
        })?;
        let unmatched = Err(ModelError::Inconsistent {
            constraint: "finding index does not belong to this study family",
        });
        match spec {
            StudySpec::Multicore { study, .. } => match index {
                1 => study.finding1(),
                2 => study.finding2(),
                3 => study.finding3(),
                _ => unmatched,
            },
            StudySpec::Asymmetric { study, .. } => match index {
                4 => study.finding4(),
                5 => study.finding5(),
                _ => unmatched,
            },
            StudySpec::Accelerator { study, .. } => match index {
                6 => study.finding6(),
                _ => unmatched,
            },
            StudySpec::DarkSilicon { study, .. } => match index {
                7 => study.finding7(),
                _ => unmatched,
            },
            StudySpec::Caching { study, .. } => match index {
                8 => study.finding8(),
                _ => unmatched,
            },
            StudySpec::Microarch { .. } => match index {
                9 => MicroarchStudy.finding9(),
                10 => MicroarchStudy.finding10(),
                11 => MicroarchStudy.finding11(),
                _ => unmatched,
            },
            StudySpec::Speculation { study, .. } => match index {
                12 => study.finding12(),
                13 => study.finding13(),
                _ => unmatched,
            },
            StudySpec::Dvfs { study } => match index {
                14 => study.finding14(),
                15 => study.finding15(),
                _ => unmatched,
            },
            StudySpec::Gating { study } => match index {
                16 => study.finding16(),
                _ => unmatched,
            },
            StudySpec::DieShrink => match index {
                17 => DieShrinkStudy.finding17(),
                _ => unmatched,
            },
            StudySpec::CaseStudy { study, .. } => match index {
                18 => study.headline(),
                _ => unmatched,
            },
            StudySpec::Wafer { .. } | StudySpec::Taxonomy { .. } => unmatched,
        }
    }
}

/// Loads and compiles one scenario file.
///
/// # Errors
///
/// Returns a structured [`ScenarioError`] if the file cannot be read or
/// fails to compile.
pub fn load_file(path: &Path) -> Result<CompiledScenario> {
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| {
        ScenarioError::new(format!("cannot read scenario file: {e}")).in_file(&name)
    })?;
    CompiledScenario::compile(&text, &name)
}

/// Loads every `*.toml` scenario under a directory (one scenario per
/// file, sorted by scenario id). Duplicate ids across files are an
/// error naming both files.
///
/// # Errors
///
/// Returns the first structured [`ScenarioError`] encountered: an
/// unreadable directory or file, a compile failure, or a duplicate id.
pub fn load_dir(dir: &Path) -> Result<Vec<CompiledScenario>> {
    let name = dir.display().to_string();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::new(format!("cannot read scenario dir: {e}")).in_file(&name))?;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| {
            ScenarioError::new(format!("cannot read scenario dir entry: {e}")).in_file(&name)
        })?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "toml") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut scenarios = Vec::with_capacity(paths.len());
    for path in &paths {
        scenarios.push((load_file(path)?, path.display().to_string()));
    }
    let mut by_id: Vec<(String, String)> = scenarios
        .iter()
        .map(|(s, file)| (s.id().to_string(), file.clone()))
        .collect();
    by_id.sort();
    for pair in by_id.windows(2) {
        if let [(id_a, file_a), (id_b, file_b)] = pair {
            if id_a == id_b {
                return Err(ScenarioError::new(format!(
                    "duplicate scenario id `{id_a}`: defined in {file_a} and {file_b}"
                ))
                .in_file(file_b)
                .for_key("id"));
            }
        }
    }
    let mut compiled: Vec<CompiledScenario> = scenarios.into_iter().map(|(s, _)| s).collect();
    compiled.sort_by(|a, b| a.id().cmp(b.id()));
    Ok(compiled)
}

/// Evaluates a batch of scenarios on the engine. Non-robustness
/// scenarios fan out through `try_par_map` under the suite's seed/chunk
/// discipline; robustness scenarios run afterwards, each on the full
/// engine (they parallelize internally). Results come back in input
/// order as `(id, per-scenario result)` so one failing scenario does
/// not take down the batch.
///
/// # Errors
///
/// Returns `ChunkPoisoned` if a parallel chunk dies without a
/// per-scenario diagnosis (worker panic or poisoned channel).
pub fn evaluate_all_on(
    engine: &Engine,
    scenarios: &[CompiledScenario],
) -> focal_core::Result<Vec<(String, focal_core::Result<ScenarioOutput>)>> {
    evaluate_all_with(engine, scenarios, None)
}

/// [`evaluate_all_on`] with an optional [`focal_core::SweepMemo`]:
/// robustness scenarios run through it (strictly sequentially, since the
/// memo is a single mutable table) while the non-robustness fan is
/// unchanged. Output is element-wise identical either way.
///
/// # Errors
///
/// See [`evaluate_all_on`].
pub fn evaluate_all_with(
    engine: &Engine,
    scenarios: &[CompiledScenario],
    mut memo: Option<&mut focal_core::SweepMemo>,
) -> focal_core::Result<Vec<(String, focal_core::Result<ScenarioOutput>)>> {
    let is_robustness =
        |s: &CompiledScenario| matches!(s.canonical().spec, StudySpec::Taxonomy { .. });
    let fan: Vec<&CompiledScenario> = scenarios.iter().filter(|s| !is_robustness(s)).collect();
    let fan_results = engine
        .try_par_map(0, &fan, |s| s.evaluate())
        .map_err(ModelError::from)?;
    let mut fan_iter = fan_results.into_iter();
    let mut out = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let result = if is_robustness(scenario) {
            scenario.evaluate_on(engine, memo.as_deref_mut())
        } else {
            fan_iter.next().ok_or(ModelError::Inconsistent {
                constraint: "parallel fan returned fewer results than scenarios",
            })?
        };
        out.push((scenario.id().to_string(), result));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(text: &str) -> CompiledScenario {
        CompiledScenario::compile(text, "t.toml").unwrap()
    }

    #[test]
    fn figure_twin_matches_hand_coded_oracle() {
        let twin = compile("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n");
        let dsl = twin.evaluate().unwrap();
        let oracle = focal_studies::multicore::MulticoreStudy::default()
            .figure3()
            .unwrap();
        match dsl {
            ScenarioOutput::Figure(figure) => {
                assert_eq!(figure.to_csv(), oracle.to_csv());
            }
            other => panic!("expected a figure, got {other:?}"),
        }
        assert_eq!(twin.registry_id().as_deref(), Some("fig3"));
    }

    #[test]
    fn finding_twin_matches_hand_coded_oracle() {
        let twin = compile(
            "[scenario]\nid = \"finding-14\"\nkind = \"finding\"\nindex = 14\nstudy = \"dvfs\"\n",
        );
        let dsl = twin.evaluate().unwrap();
        let oracle = focal_studies::dvfs::DvfsStudy::default()
            .finding14()
            .unwrap();
        match dsl {
            ScenarioOutput::Finding(finding) => {
                assert_eq!(finding.to_string(), oracle.to_string());
            }
            other => panic!("expected a finding, got {other:?}"),
        }
        assert_eq!(twin.registry_id().as_deref(), Some("finding-14"));
    }

    #[test]
    fn robustness_needs_an_engine() {
        let twin = compile(concat!(
            "[scenario]\nid = \"tax\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
            "[monte_carlo]\nsamples = 64\nseed = 42\njitter = 0.1\n",
        ));
        assert!(twin.evaluate().is_err());
        let engine = Engine::serial();
        let out = twin.evaluate_on(&engine, None).unwrap();
        match out {
            ScenarioOutput::Robustness(rows) => assert!(!rows.is_empty()),
            other => panic!("expected robustness rows, got {other:?}"),
        }
    }

    #[test]
    fn batch_evaluation_keeps_input_order_and_isolates_results() {
        let scenarios = vec![
            compile("[scenario]\nid = \"b\"\nkind = \"figure\"\nstudy = \"multicore\"\n"),
            compile(concat!(
                "[scenario]\nid = \"a\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
                "[monte_carlo]\nsamples = 32\nseed = 7\njitter = 0.05\n",
            )),
            compile("[scenario]\nid = \"c\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n"),
        ];
        let engine = Engine::serial();
        let results = evaluate_all_on(&engine, &scenarios).unwrap();
        let ids: Vec<&str> = results.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["b", "a", "c"]);
        for (id, result) in &results {
            assert!(result.is_ok(), "{id} failed: {result:?}");
        }
    }

    /// Every figure family at [`MAX_LIST_LEN`]-entry lists and
    /// [`MAX_GRID_STEPS`]-point grids compiles and stays within the
    /// worst case the bounds document: 131,200 CSV rows (the asymmetric
    /// figure, three full lists), about 7.9 MB.
    #[test]
    fn largest_figures_stay_bounded() {
        use crate::canonical::{MAX_GRID_STEPS, MAX_LIST_LEN};
        let n = MAX_LIST_LEN;
        let steps = MAX_GRID_STEPS;
        let list = |f: &dyn Fn(usize) -> String| {
            let items: Vec<String> = (0..n).map(f).collect();
            format!("[{}]", items.join(", "))
        };
        let fraction =
            |lo: f64, span: f64| list(&|i| format!("{}", lo + span * i as f64 / n as f64));
        let alphas = fraction(0.01, 0.98);
        let fs = fraction(0.3, 0.69);
        let bands = format!(
            "alpha_center = {}\nalpha_half_width = 0.1\n",
            fraction(0.2, 0.6)
        );
        let models = list(&|i| format!("{:?}", ["perfect", "poisson", "murphy", "seeds"][i % 4]));
        let head = |study: &str| {
            format!("[scenario]\nid = \"{study}\"\nkind = \"figure\"\nstudy = \"{study}\"\n")
        };
        let cases = [
            format!(
                "{}[params]\nyield_models = {models}\n[sweep]\ndie_steps = {steps}\n",
                head("wafer")
            ),
            format!(
                "{}[sweep]\nbce = {}\nparallel_fraction = {fs}\n[assumptions]\nalpha = {alphas}\n",
                head("multicore"),
                list(&|i| (i + 1).to_string())
            ),
            format!(
                "{}[sweep]\nbce = {}\nparallel_fraction = {fs}\n[assumptions]\nalpha = {alphas}\n",
                head("asymmetric"),
                list(&|i| (i + 8).to_string())
            ),
            format!(
                "{}[sweep]\nutilization_steps = {steps}\n[assumptions]\n{bands}",
                head("accelerator")
            ),
            format!(
                "{}[sweep]\nutilization_steps = {steps}\n[assumptions]\n{bands}",
                head("dark-silicon")
            ),
            format!(
                "{}[sweep]\nllc_mib = {}\n[assumptions]\nalpha = {alphas}\n",
                head("caching"),
                list(&|i| (i + 1).to_string())
            ),
            format!("{}[assumptions]\nalpha = {alphas}\n", head("microarch")),
            format!(
                "{}[sweep]\narea_steps = {steps}\n[assumptions]\nalpha = {alphas}\n",
                head("speculation")
            ),
            format!(
                "{}[params]\nbase_cores = {steps}\n[assumptions]\nalpha = {alphas}\n",
                head("case-study")
            ),
        ];
        let mut largest = 0;
        for text in &cases {
            let bytes = compile(text).evaluate().unwrap().to_bytes();
            let rows = bytes.iter().filter(|&&b| b == b'\n').count();
            assert!(rows <= 131_200, "{rows} rows from\n{text}");
            largest = largest.max(rows);
        }
        assert_eq!(largest, 131_200);
    }

    #[test]
    fn digest_entry_has_suite_format() {
        let twin = compile(
            "[scenario]\nid = \"finding-16\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n",
        );
        let out = twin.evaluate().unwrap();
        let entry = out.digest_entry();
        assert!(entry.contains("bytes, fnv64="), "{entry}");
    }
}

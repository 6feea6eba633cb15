//! The one-command reproduction suite behind the `suite` binary.
//!
//! [`run_suite`] regenerates the entire evaluation — all 9 figures, all
//! 18 findings, the Monte-Carlo verdict-robustness ablation and the
//! α-crossover ablation — on one [`Engine`], timing each stage and
//! collecting a machine-readable summary.
//!
//! The summary deliberately separates *deterministic* content (figure
//! CSV sizes and FNV-64 digests, finding verdicts, robustness
//! agreements, crossovers) from *timing* content (wall-clock per stage,
//! thread count): [`SuiteReport::to_json`] can omit the latter, so CI
//! runs the suite under `FOCAL_THREADS=1` and `FOCAL_THREADS=4` and
//! `diff`s the two JSON files byte-for-byte.
//!
//! ## Degradation, not abortion
//!
//! Every stage runs under isolation (see [`StageStatus`]): a panic or a
//! poisoned engine chunk inside one stage records that stage as
//! `status: error` — carrying the chunk-level diagnostic and a minimal
//! reproduction line — while the remaining stages still execute. Stage
//! outputs are additionally audited for NaN/∞ *before* they are
//! fingerprinted, so silent numeric corruption surfaces as a structured
//! error rather than a poisoned digest. The suite binary still exits
//! nonzero when any stage is not `ok`. Error diagnostics come from the
//! engine's thread-count-invariant [`focal_engine::ChunkError`], so even
//! a faulted report stays byte-identical across `FOCAL_THREADS` values.

use focal_core::{
    alpha_crossover_batch, classify_over_range_on, DesignPoint, E2oRange, ModelError, Result,
    Scenario, SweepMemo, SweepMemoStats,
};
use focal_engine::fault::payload_to_string;
use focal_engine::Engine;
use focal_report::json_escape;
use focal_scenario::digest_entry;
use focal_studies::robustness::verdict_robustness_with;
use focal_wafer::{DefectDistribution, DefectSimulator, DiePlacement, Wafer, YieldModel};
use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples per Monte-Carlo robustness run — two full engine chunks plus
/// a partial one, so the suite exercises uneven chunk shapes every time.
pub const ROBUSTNESS_SAMPLES: usize = 2 * focal_core::MC_CHUNK_SAMPLES + 257;

/// Seed for the robustness stage (arbitrary but fixed: the suite is a
/// regression surface, not an experiment).
pub const ROBUSTNESS_SEED: u64 = 42;

/// Proxy-ratio jitter for the robustness stage (±10 %, the paper's
/// working assumption for first-order proxy error).
pub const ROBUSTNESS_JITTER: f64 = 0.1;

/// Seed for the defect-sim stage (fixed: the stage is a regression
/// surface for the spatial-index kernel, not an experiment).
pub const DEFECT_SIM_SEED: u64 = 0xF0CA1;

/// Defect density for the defect-sim stage, in defects/cm² — the
/// acceptance configuration the microbenchmark harness also measures.
pub const DEFECT_SIM_DENSITY: f64 = 0.2;

/// Wafers simulated per defect-sim stage run.
pub const DEFECT_SIM_WAFERS: usize = 32;

/// Stage names in run order; `scenarios` runs only with
/// [`SuiteOptions::scenarios_dir`]. These are the sites a
/// `panic@<stage>:<chunk>` fault plan can target.
pub const STAGE_NAMES: [&str; 6] = [
    "figures",
    "findings",
    "robustness",
    "crossovers",
    "defect-sim",
    "scenarios",
];

/// Options for [`run_suite_with_options`].
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Monte-Carlo samples per robustness run (the `--samples` flag).
    pub robustness_samples: usize,
    /// When set, evaluate every `*.toml` scenario under this directory
    /// as an additional `scenarios` stage after the hand-coded stages
    /// (the `--scenarios <dir>` flag). The default suite output is
    /// unchanged when unset.
    pub scenarios_dir: Option<PathBuf>,
    /// With [`SuiteOptions::scenarios_dir`], skip the hand-coded stages
    /// and run the scenarios stage alone (the `--scenarios-only` flag).
    pub scenarios_only: bool,
    /// Thread a [`SweepMemo`] through the robustness, crossovers and
    /// scenarios stages (the `--memo` flag), so repeated sub-evaluations
    /// — notably the scenario twin of the robustness sweep — are answered
    /// from the cache. Deterministic output is byte-identical either way;
    /// hit/miss counters land in the *timed* report only.
    pub memo: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            robustness_samples: ROBUSTNESS_SAMPLES,
            scenarios_dir: None,
            scenarios_only: false,
            memo: false,
        }
    }
}

/// Outcome of one suite stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// The stage ran to completion and its acceptance checks passed.
    Ok,
    /// The stage ran to completion but an acceptance check failed
    /// (e.g. a finding did not reproduce).
    Failed,
    /// The stage was cut short by an isolated fault — a poisoned engine
    /// chunk, a non-finite output, or a stage-level panic. The remaining
    /// stages still ran.
    Error,
}

impl StageStatus {
    /// The JSON serialization of the status.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StageStatus::Ok => "ok",
            StageStatus::Failed => "failed",
            StageStatus::Error => "error",
        }
    }

    /// `true` only for [`StageStatus::Ok`].
    #[must_use]
    pub fn is_ok(self) -> bool {
        self == StageStatus::Ok
    }
}

/// One suite stage: a name, its wall-clock, its outcome, and its
/// deterministic key→value entries.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (`"figures"`, `"findings"`, …).
    pub name: &'static str,
    /// Wall-clock **microseconds** this stage took. Timings are kept at
    /// microsecond granularity internally and only rounded at
    /// serialization, so sub-millisecond stages don't report as 0.
    pub wall_us: u128,
    /// The stage outcome; anything but [`StageStatus::Ok`] fails the
    /// suite.
    pub status: StageStatus,
    /// Deterministic entries, in insertion order. For `error` stages
    /// these are the diagnostic entries (`error`, and `repro` with the
    /// minimal reproduction coordinates).
    pub entries: Vec<(String, String)>,
}

/// The full suite result.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Worker count the suite ran with.
    pub threads: usize,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
    /// Sweep-memo counters when the suite ran with
    /// [`SuiteOptions::memo`]. Like `threads`, this is run-environment
    /// metadata, not deterministic content: it appears only in the timed
    /// report, so the `--no-timings` byte-diff is memo-agnostic.
    pub memo_stats: Option<SweepMemoStats>,
}

impl SuiteReport {
    /// `true` if every stage passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.stages.iter().all(|s| s.status.is_ok())
    }

    /// Renders the machine-readable JSON summary.
    ///
    /// With `with_timings = false` the thread count and per-stage
    /// wall-clock are omitted, leaving only thread-count-invariant
    /// content: two runs at different `FOCAL_THREADS` must then be
    /// byte-identical (CI diffs exactly this).
    #[must_use]
    pub fn to_json(&self, with_timings: bool) -> String {
        let mut out = String::from("{\n  \"suite\": \"focal-reproduction\",\n");
        if with_timings {
            let _ = writeln!(out, "  \"threads\": {},", self.threads);
            if let Some(stats) = &self.memo_stats {
                let _ = writeln!(
                    out,
                    "  \"memo\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"hit_rate\": {:.4}}},",
                    stats.hits(),
                    stats.misses(),
                    stats.entries(),
                    stats.hit_rate()
                );
            }
        }
        out.push_str("  \"stages\": [\n");
        for (i, stage) in self.stages.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"ok\": {}, \"status\": \"{}\"",
                json_escape(stage.name),
                stage.status.is_ok(),
                stage.status.as_str()
            );
            if with_timings {
                let _ = write!(out, ", \"wall_us\": {}", stage.wall_us);
            }
            out.push_str(", \"entries\": {");
            for (j, (k, v)) in stage.entries.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{}\": \"{}\"",
                    if j == 0 { "" } else { ", " },
                    json_escape(k),
                    json_escape(v)
                );
            }
            out.push_str("}}");
            out.push_str(if i + 1 == self.stages.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        let _ = write!(out, "  ],\n  \"ok\": {}\n}}\n", self.ok());
        out
    }

    /// Renders the human per-stage timing summary (for stderr).
    /// Durations are tracked in microseconds and printed as fractional
    /// milliseconds, so fast stages stay distinguishable from zero.
    #[must_use]
    pub fn human_summary(&self) -> String {
        let mut out = format!("reproduction suite on {} thread(s):\n", self.threads);
        let total: u128 = self.stages.iter().map(|s| s.wall_us).sum();
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<12} {:>12.3} ms   {}",
                s.name,
                s.wall_us as f64 / 1000.0,
                match s.status {
                    StageStatus::Ok => "ok",
                    StageStatus::Failed => "FAILED",
                    StageStatus::Error => "ERROR",
                }
            );
        }
        let _ = write!(out, "  {:<12} {:>12.3} ms", "total", total as f64 / 1000.0);
        if let Some(stats) = &self.memo_stats {
            let _ = write!(
                out,
                "\n  sweep memo: {} hits, {} misses, {} entries ({:.1}% hit rate)",
                stats.hits(),
                stats.misses(),
                stats.entries(),
                stats.hit_rate() * 100.0
            );
        }
        out
    }
}

/// The mechanism pairs the ablation stages sweep: the α-regime-sensitive
/// design comparisons of §5–§6, by id. The `ablation_alpha` binary
/// tabulates the same set.
///
/// # Errors
///
/// Never fails for the paper's built-in design points.
pub fn ablation_mechanisms() -> Result<Vec<(&'static str, DesignPoint, DesignPoint)>> {
    let reference = DesignPoint::reference();
    Ok(vec![
        (
            "fsc-vs-ooo",
            focal_uarch::CoreMicroarch::ForwardSlice.design_point()?,
            focal_uarch::CoreMicroarch::OutOfOrder.design_point()?,
        ),
        (
            "ooo-vs-ino",
            focal_uarch::CoreMicroarch::OutOfOrder.design_point()?,
            focal_uarch::CoreMicroarch::InOrder.design_point()?,
        ),
        (
            "pre-vs-baseline",
            focal_uarch::PreciseRunahead::PAPER.design_point()?,
            reference,
        ),
        (
            "pipeline-gating",
            focal_uarch::PipelineGating::PAPER.design_point()?,
            reference,
        ),
        (
            "accelerator-30pct",
            focal_uarch::Accelerator::HAMEED_H264.design_point(0.3)?,
            reference,
        ),
        (
            "dark-silicon-30pct",
            focal_uarch::DarkSiliconSoc::PAPER.design_point(0.3)?,
            reference,
        ),
        (
            "die-shrink-post-dennard",
            focal_scaling::DieShrink::next_node(focal_scaling::ScalingRegime::PostDennard)
                .design_points()?
                .0,
            reference,
        ),
    ])
}

/// Deterministic diagnostic entries for an `error` stage: the error text
/// plus, where the error carries them, the minimal reproduction
/// coordinates as a one-line `repro` entry.
fn error_entries(name: &'static str, err: &ModelError) -> Vec<(String, String)> {
    let mut entries = vec![("error".to_string(), err.to_string())];
    match err {
        ModelError::ChunkPoisoned {
            chunk_index,
            chunk_seed,
            ..
        } => entries.push((
            "repro".to_string(),
            format!("stage={name} chunk_index={chunk_index} chunk_seed={chunk_seed}"),
        )),
        ModelError::NonFiniteOutput { context, .. } => {
            entries.push(("repro".to_string(), format!("stage={name} {context}")));
        }
        _ => {}
    }
    entries
}

/// Runs one stage body under isolation.
///
/// The body returns `Ok((passed, entries))` on completion; a returned
/// [`ModelError`] or an escaping panic records the stage as
/// [`StageStatus::Error`] with deterministic diagnostics instead of
/// aborting the suite. Poisoned engine chunks arrive here as
/// `Err(ModelError::ChunkPoisoned)`. The body runs on
/// `engine` labelled with the stage name as its fault-injection site,
/// which is what scopes `--inject panic@<stage>:<chunk>` plans.
fn run_stage<F>(engine: &Engine, name: &'static str, body: F) -> Stage
where
    F: FnOnce(&Engine) -> Result<(bool, Vec<(String, String)>)>,
{
    let engine = engine.at_site(name);
    let t = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body(&engine)));
    let wall_us = t.elapsed().as_micros();
    let (status, entries) = match outcome {
        Ok(Ok((true, entries))) => (StageStatus::Ok, entries),
        Ok(Ok((false, entries))) => (StageStatus::Failed, entries),
        Ok(Err(e)) => (StageStatus::Error, error_entries(name, &e)),
        Err(payload) => (
            StageStatus::Error,
            vec![(
                "error".to_string(),
                format!("stage panicked: {}", payload_to_string(payload.as_ref())),
            )],
        ),
    };
    Stage {
        name,
        wall_us,
        status,
        entries,
    }
}

/// Returns [`ModelError::NonFiniteOutput`] if `value` is NaN or infinite.
/// The stage-boundary tripwire: every number a stage is about to
/// fingerprint or judge goes through here first.
fn audit_finite(context: impl FnOnce() -> String, value: f64) -> Result<()> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ModelError::NonFiniteOutput {
            context: context(),
            value,
        })
    }
}

/// Runs the whole reproduction on `engine` and collects the report,
/// with [`ROBUSTNESS_SAMPLES`] Monte-Carlo samples per robustness run.
///
/// Individual stage faults degrade to `status: error` stages (see
/// [`StageStatus`]); the suite itself always completes and reports.
#[must_use]
pub fn run_suite(engine: &Engine) -> SuiteReport {
    run_suite_with_options(engine, &SuiteOptions::default())
}

/// The declarative-scenario stage: loads every `*.toml` under `dir`,
/// evaluates the batch through the engine's `try_par_map` fan (same
/// seed/chunk discipline as the hand-coded stages), and reports one
/// suite-format digest entry per scenario id. Load failures and
/// per-scenario evaluation failures degrade the stage to `failed`
/// without aborting the suite.
fn scenarios_stage(engine: &Engine, dir: &Path, memo: Option<&mut SweepMemo>) -> Stage {
    let dir = dir.to_path_buf();
    run_stage(engine, "scenarios", move |engine| {
        let scenarios = match focal_scenario::load_dir(&dir) {
            Ok(scenarios) => scenarios,
            Err(e) => {
                return Ok((false, vec![("load-error".to_string(), e.to_string())]));
            }
        };
        let results = focal_scenario::evaluate_all_with(engine, &scenarios, memo)?;
        let mut passed = !results.is_empty();
        let mut entries: Vec<(String, String)> = Vec::with_capacity(results.len());
        for (id, result) in results {
            match result {
                Ok(output) => entries.push((id, output.digest_entry())),
                Err(e) => {
                    passed = false;
                    entries.push((id, format!("ERROR: {e}")));
                }
            }
        }
        entries.sort();
        Ok((passed, entries))
    })
}

/// [`run_suite`] with explicit options: the Monte-Carlo sample count of
/// the robustness stage (the chunk geometry depends only on the sample
/// count, so any value stays bit-identical across thread counts), and
/// with [`SuiteOptions::scenarios_dir`] set, a `scenarios` stage that
/// evaluates the declarative corpus after (or with `scenarios_only`,
/// instead of) the hand-coded stages.
///
/// Individual stage faults degrade to `status: error` stages (see
/// [`StageStatus`]); the suite itself always completes and reports.
#[must_use]
pub fn run_suite_with_options(engine: &Engine, options: &SuiteOptions) -> SuiteReport {
    let robustness_samples = options.robustness_samples;
    // One memo for the whole run, threaded `&mut` through the stages that
    // use it — stages execute strictly sequentially, so no locking.
    let mut memo = options.memo.then(SweepMemo::new);
    if options.scenarios_only {
        if let Some(dir) = &options.scenarios_dir {
            let stages = vec![scenarios_stage(engine, dir, memo.as_mut())];
            return SuiteReport {
                threads: engine.threads(),
                stages,
                memo_stats: memo.map(|m| m.stats()),
            };
        }
    }
    let mut stages = Vec::new();

    // Stage 1: every paper figure, fingerprinted at the CSV-byte level.
    stages.push(run_stage(engine, "figures", |engine| {
        let figures = focal_studies::all_figures_on(engine)?;
        for f in &figures {
            for (pi, panel) in f.panels.iter().enumerate() {
                for s in &panel.series {
                    for p in &s.points {
                        for (axis, v) in [("performance", p.performance), ("ncf", p.ncf)] {
                            audit_finite(
                                || {
                                    format!(
                                        "figure {} panel {pi} series {} point {} ({axis})",
                                        f.id, s.name, p.label
                                    )
                                },
                                v,
                            )?;
                        }
                    }
                }
            }
        }
        let mut entries: Vec<(String, String)> = figures
            .iter()
            .map(|f| (f.id.to_string(), digest_entry(f.to_csv().as_bytes())))
            .collect();
        entries.sort();
        Ok((figures.len() == 9, entries))
    }));

    // Stage 2: every finding, gated on reproduction.
    stages.push(run_stage(engine, "findings", |engine| {
        let findings = focal_studies::all_findings_on(engine)?;
        for f in &findings {
            for m in &f.metrics {
                for (axis, v) in [("paper", m.paper), ("measured", m.measured)] {
                    audit_finite(
                        || format!("finding {:02} metric {} ({axis})", f.id, m.name),
                        v,
                    )?;
                }
            }
        }
        let reproduced = findings.iter().filter(|f| f.reproduces()).count();
        let mut entries: Vec<(String, String)> = findings
            .iter()
            .map(|f| {
                (
                    format!("finding-{:02}", f.id),
                    if f.reproduces() { "ok" } else { "FAILED" }.to_string(),
                )
            })
            .collect();
        entries.push((
            "reproduced".to_string(),
            format!("{reproduced}/{}", findings.len()),
        ));
        entries.sort();
        Ok((crate::findings_exit_code(&findings) == 0, entries))
    }));

    // Stage 3: Monte-Carlo verdict robustness across the taxonomy (the
    // §3.5 ablation). Agreements are exact sample fractions, so their
    // shortest-f64 rendering is thread-count invariant.
    stages.push(run_stage(engine, "robustness", |engine| {
        let robustness = verdict_robustness_with(
            engine,
            ROBUSTNESS_JITTER,
            robustness_samples,
            ROBUSTNESS_SEED,
            memo.as_mut(),
        )?;
        for r in &robustness {
            for (axis, v) in [
                ("fixed_work_agreement", r.fixed_work_agreement),
                ("fixed_time_agreement", r.fixed_time_agreement),
            ] {
                audit_finite(|| format!("robustness {} ({axis})", r.mechanism), v)?;
            }
        }
        let mut entries: Vec<(String, String)> = robustness
            .iter()
            .map(|r| {
                (
                    r.mechanism.to_string(),
                    format!("min_agreement={}", r.min_agreement()),
                )
            })
            .collect();
        entries.sort();
        Ok((!robustness.is_empty(), entries))
    }));

    // Stage 4: α-crossover + verdict-stability ablation over the
    // regime-sensitive mechanisms.
    stages.push(run_stage(engine, "crossovers", |engine| {
        let mechanisms = ablation_mechanisms()?;
        let pairs: Vec<(DesignPoint, DesignPoint)> =
            mechanisms.iter().map(|&(_, x, y)| (x, y)).collect();
        let mut memo = memo.as_mut();
        let fixed_work =
            alpha_crossover_batch(engine, &pairs, Scenario::FixedWork, memo.as_deref_mut())?;
        let fixed_time =
            alpha_crossover_batch(engine, &pairs, Scenario::FixedTime, memo.as_deref_mut())?;
        let mut entries: Vec<(String, String)> = Vec::with_capacity(mechanisms.len());
        for ((name, x, y), (fw, ft)) in mechanisms.iter().zip(fixed_work.iter().zip(&fixed_time)) {
            let stability =
                classify_over_range_on(engine, x, y, E2oRange::FULL, 101, memo.as_deref_mut())?;
            entries.push((
                (*name).to_string(),
                format!(
                    "fw: {fw}; ft: {ft}; {}",
                    if stability.is_stable() {
                        "stable"
                    } else {
                        "flips"
                    }
                ),
            ));
        }
        entries.sort();
        Ok((!entries.is_empty(), entries))
    }));

    // Stage 5: the Monte-Carlo wafer defect simulator backing Figure 1's
    // yield substrate. Fixed seed, so the entries are deterministic and
    // the FOCAL_THREADS byte-diff in CI covers the spatial-index kernel.
    stages.push(run_stage(engine, "defect-sim", |_| {
        let placement = DiePlacement::square(10.0);
        let uniform = DefectSimulator::new(
            Wafer::W300MM,
            DefectDistribution::Uniform,
            DEFECT_SIM_SEED,
        )
        .run(&placement, DEFECT_SIM_DENSITY, DEFECT_SIM_WAFERS)?;
        let clustered = DefectSimulator::new(
            Wafer::W300MM,
            DefectDistribution::Clustered {
                mean_cluster_size: 8.0,
                cluster_radius_mm: 2.0,
            },
            DEFECT_SIM_SEED,
        )
        .run(&placement, DEFECT_SIM_DENSITY, DEFECT_SIM_WAFERS)?;
        for (label, r) in [("uniform", &uniform), ("clustered", &clustered)] {
            for (axis, v) in [("mean_good", r.mean_good_dies), ("yield", r.mean_yield)] {
                audit_finite(|| format!("defect-sim {label} ({axis})"), v)?;
            }
        }
        // 10 mm dies are 1 cm², so λ = defect density; uniform defects must
        // track Poisson and clustering must not lower the yield.
        let analytic = YieldModel::Poisson.fraction_good_from_load(DEFECT_SIM_DENSITY);
        let entries: Vec<(String, String)> = vec![
            (
                "clustered".to_string(),
                format!(
                    "dies={}, mean_good={}, yield={}",
                    clustered.dies_per_wafer, clustered.mean_good_dies, clustered.mean_yield
                ),
            ),
            ("poisson-analytic".to_string(), format!("{analytic}")),
            (
                "uniform".to_string(),
                format!(
                    "dies={}, mean_good={}, yield={}",
                    uniform.dies_per_wafer, uniform.mean_good_dies, uniform.mean_yield
                ),
            ),
        ];
        let passed = (uniform.mean_yield - analytic).abs() < 0.05
            && clustered.mean_yield >= uniform.mean_yield;
        Ok((passed, entries))
    }));

    // Optional stage 6: the declarative scenario corpus, flag-gated so
    // the default suite output keeps exactly the five stages above.
    if let Some(dir) = &options.scenarios_dir {
        stages.push(scenarios_stage(engine, dir, memo.as_mut()));
    }

    SuiteReport {
        threads: engine.threads(),
        stages,
        memo_stats: memo.map(|m| m.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_passes_on_the_paper_configuration() {
        let report = run_suite(&Engine::serial());
        assert!(report.ok());
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "figures",
                "findings",
                "robustness",
                "crossovers",
                "defect-sim"
            ]
        );
        // 9 figures, 18 findings + the reproduced summary row.
        assert_eq!(report.stages[0].entries.len(), 9);
        assert_eq!(report.stages[1].entries.len(), 19);
        // Uniform + clustered sim results plus the analytic anchor.
        assert_eq!(report.stages[4].entries.len(), 3);
    }

    #[test]
    fn deterministic_json_is_thread_count_invariant() {
        let a = run_suite(&Engine::serial());
        let b = run_suite(&Engine::with_threads(3));
        assert_eq!(a.to_json(false), b.to_json(false));
    }

    #[test]
    fn timed_json_includes_threads_and_wall_us() {
        let report = run_suite(&Engine::serial());
        let timed = report.to_json(true);
        assert!(timed.contains("\"threads\": 1"));
        assert!(timed.contains("\"wall_us\""));
        let bare = report.to_json(false);
        assert!(!bare.contains("\"threads\""));
        assert!(!bare.contains("\"wall_us\""));
    }

    #[test]
    fn human_summary_keeps_submillisecond_resolution() {
        let report = SuiteReport {
            threads: 1,
            stages: vec![Stage {
                name: "fast",
                wall_us: 250,
                status: StageStatus::Ok,
                entries: Vec::new(),
            }],
            memo_stats: None,
        };
        // A 250 µs stage must not round down to a bare 0 ms.
        assert!(
            report.human_summary().contains("0.250 ms"),
            "{}",
            report.human_summary()
        );
        assert!(report.to_json(true).contains("\"wall_us\": 250"));
    }

    fn shipped_scenarios() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/scenarios")
    }

    #[test]
    fn scenarios_stage_is_flag_gated_and_appended() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        assert!(report.ok());
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "figures",
                "findings",
                "robustness",
                "crossovers",
                "defect-sim",
                "scenarios"
            ]
        );
        // 9 figure twins + 18 finding twins + taxonomy robustness.
        let scenarios = report.stages.last().expect("scenarios stage");
        assert_eq!(scenarios.entries.len(), 28);
    }

    #[test]
    fn stage_names_are_the_stages_a_full_run_reports() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, STAGE_NAMES);
    }

    #[test]
    fn scenarios_only_runs_the_single_stage() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            scenarios_only: true,
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        assert!(report.ok());
        let names: Vec<&str> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["scenarios"]);
    }

    #[test]
    fn scenario_twin_digests_match_the_hand_coded_figure_digests() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        let stage = |name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing stage {name}"))
        };
        let figures = stage("figures");
        let scenarios = stage("scenarios");
        for (id, digest) in &figures.entries {
            let twin = scenarios
                .entries
                .iter()
                .find(|(tid, _)| tid == id)
                .unwrap_or_else(|| panic!("no scenario twin digest for {id}"));
            assert_eq!(&twin.1, digest, "twin digest diverges for {id}");
        }
    }

    #[test]
    fn scenarios_stage_with_scenarios_is_thread_count_invariant() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            scenarios_only: true,
            ..SuiteOptions::default()
        };
        let a = run_suite_with_options(&Engine::serial(), &options);
        let b = run_suite_with_options(&Engine::with_threads(3), &options);
        assert_eq!(a.to_json(false), b.to_json(false));
    }

    #[test]
    fn missing_scenario_dir_degrades_to_a_failed_stage() {
        let options = SuiteOptions {
            scenarios_dir: Some(PathBuf::from("/nonexistent/scenarios")),
            scenarios_only: true,
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        assert!(!report.ok());
        let stage = report.stages.first().expect("scenarios stage");
        assert_eq!(stage.status, StageStatus::Failed);
        assert_eq!(stage.entries.len(), 1);
        assert_eq!(stage.entries[0].0, "load-error");
    }

    /// The memo is a pure cache: deterministic suite output must be
    /// byte-identical with and without it, across thread counts, with
    /// the scenario corpus included (whose robustness twin is the memo's
    /// headline hit).
    #[test]
    fn memo_suite_output_is_byte_identical_to_unmemoized() {
        let base = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            ..SuiteOptions::default()
        };
        let memo = SuiteOptions {
            memo: true,
            ..base.clone()
        };
        let plain = run_suite_with_options(&Engine::serial(), &base);
        let memoized = run_suite_with_options(&Engine::serial(), &memo);
        assert_eq!(plain.to_json(false), memoized.to_json(false));
        let memoized_mt = run_suite_with_options(&Engine::with_threads(3), &memo);
        assert_eq!(plain.to_json(false), memoized_mt.to_json(false));
    }

    /// With the robustness stage configured to the scenario twin's
    /// sample count, the twin reruns the stage's exact Monte-Carlo
    /// experiments: a memoized suite must answer all of them from the
    /// cache, and must report counters only in the timed JSON.
    #[test]
    fn memo_stats_record_hits_and_stay_out_of_deterministic_json() {
        let options = SuiteOptions {
            scenarios_dir: Some(shipped_scenarios()),
            memo: true,
            // data/scenarios/taxonomy-robustness.toml: samples = 1024,
            // seed 42, jitter 0.1 — the stage's seed and jitter already
            // match, so aligning the sample count makes the twin's keys
            // identical to the stage's.
            robustness_samples: 1024,
            ..SuiteOptions::default()
        };
        let report = run_suite_with_options(&Engine::serial(), &options);
        assert!(report.ok());
        let stats = report.memo_stats.expect("memo stats with --memo");
        assert!(
            stats.mc.hits >= 44,
            "robustness twin should replay 11 mechanisms x 2 bands x 2 scenarios from cache, got {stats:?}"
        );
        assert!(stats.hits() > 0 && stats.misses() > 0);
        assert!(report.to_json(true).contains("\"memo\""));
        assert!(!report.to_json(false).contains("\"memo\""));
        assert!(report.human_summary().contains("sweep memo:"));
    }

    #[test]
    fn unmemoized_suite_reports_no_memo_stats() {
        let report = run_suite(&Engine::serial());
        assert!(report.memo_stats.is_none());
        assert!(!report.to_json(true).contains("\"memo\""));
    }

    #[test]
    fn human_summary_lists_every_stage() {
        let report = run_suite(&Engine::serial());
        let text = report.human_summary();
        for stage in &report.stages {
            assert!(text.contains(stage.name), "{text}");
        }
        assert!(text.contains("total"));
    }
}

//! The typed scenario schema: turns a parsed [`crate::toml::Document`]
//! into a [`ScenarioDef`] with every field type-checked, every number
//! verified finite, unknown tables and keys rejected, and source lines
//! retained for downstream (canonicalization) errors.

use crate::error::{Result, ScenarioError};
use crate::toml::{Document, Entry, Table, Value};

/// What a scenario evaluates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A paper figure (CSV panels of sweep series).
    Figure,
    /// A paper finding (paper-vs-measured metrics plus a verdict).
    Finding,
    /// The Monte-Carlo verdict-robustness analysis (needs an engine).
    Robustness,
}

impl ScenarioKind {
    /// The DSL spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioKind::Figure => "figure",
            ScenarioKind::Finding => "finding",
            ScenarioKind::Robustness => "robustness",
        }
    }
}

/// The study family a scenario compiles onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyFamily {
    /// Figure 1 — embodied footprint vs. die size (yield substrate).
    Wafer,
    /// §5.1 symmetric multicore (Figure 3, Findings #1–#3).
    Multicore,
    /// §5.2 asymmetric multicore (Figure 4, Findings #4–#5).
    Asymmetric,
    /// §5.3 hardware acceleration (Figure 5a, Finding #6).
    Accelerator,
    /// §5.4 dark silicon (Figure 5b, Finding #7).
    DarkSilicon,
    /// §5.5 caching (Figure 6, Finding #8).
    Caching,
    /// §5.6 core microarchitecture (Figure 7, Findings #9–#11).
    Microarch,
    /// §5.7 speculation (Figure 8, Findings #12–#13).
    Speculation,
    /// §5.8 DVFS (Findings #14–#15).
    Dvfs,
    /// §5.9 pipeline gating (Finding #16).
    Gating,
    /// §6 die shrink (Finding #17).
    DieShrink,
    /// §7 case study (Figure 9, Finding #18).
    CaseStudy,
    /// §3.5 taxonomy verdict robustness (Monte-Carlo).
    Taxonomy,
}

impl StudyFamily {
    /// The DSL spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StudyFamily::Wafer => "wafer",
            StudyFamily::Multicore => "multicore",
            StudyFamily::Asymmetric => "asymmetric",
            StudyFamily::Accelerator => "accelerator",
            StudyFamily::DarkSilicon => "dark-silicon",
            StudyFamily::Caching => "caching",
            StudyFamily::Microarch => "microarch",
            StudyFamily::Speculation => "speculation",
            StudyFamily::Dvfs => "dvfs",
            StudyFamily::Gating => "gating",
            StudyFamily::DieShrink => "die-shrink",
            StudyFamily::CaseStudy => "case-study",
            StudyFamily::Taxonomy => "taxonomy",
        }
    }

    fn parse(name: &str) -> Option<StudyFamily> {
        [
            StudyFamily::Wafer,
            StudyFamily::Multicore,
            StudyFamily::Asymmetric,
            StudyFamily::Accelerator,
            StudyFamily::DarkSilicon,
            StudyFamily::Caching,
            StudyFamily::Microarch,
            StudyFamily::Speculation,
            StudyFamily::Dvfs,
            StudyFamily::Gating,
            StudyFamily::DieShrink,
            StudyFamily::CaseStudy,
            StudyFamily::Taxonomy,
        ]
        .into_iter()
        .find(|f| f.as_str() == name)
    }
}

/// A schema value with the source line it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sourced<T> {
    /// The parsed value.
    pub value: T,
    /// 1-based source line.
    pub line: u32,
}

impl<T> Sourced<T> {
    fn new(value: T, line: u32) -> Self {
        Sourced { value, line }
    }
}

/// `[params]` — family-specific model parameters (all optional; the
/// canonicalizer resolves omitted ones from the paper defaults).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params {
    /// Idle-core leakage fraction γ.
    pub gamma: Option<Sourced<f64>>,
    /// Pollack-rule exponent.
    pub pollack_exponent: Option<Sourced<f64>>,
    /// Big-core size in BCEs (asymmetric study).
    pub big_core_bce: Option<Sourced<f64>>,
    /// Accelerator area overhead (fraction of core area).
    pub area_overhead: Option<Sourced<f64>>,
    /// Accelerator energy advantage (core ÷ accelerator energy).
    pub energy_advantage: Option<Sourced<f64>>,
    /// Dark-silicon accelerator estate (fraction of the chip).
    pub accelerator_area_fraction: Option<Sourced<f64>>,
    /// Caching: fraction of base time stalled on memory.
    pub stall_fraction: Option<Sourced<f64>>,
    /// Caching: fraction of base energy in the memory system.
    pub memory_energy_fraction: Option<Sourced<f64>>,
    /// Caching: fraction of base energy in LLC accesses.
    pub cache_energy_fraction: Option<Sourced<f64>>,
    /// Caching: base LLC size in MiB.
    pub base_mib: Option<Sourced<f64>>,
    /// Caching: base LLC size in KiB (normalized to MiB).
    pub base_kib: Option<Sourced<f64>>,
    /// Caching: miss-rate exponent (√2 rule: 0.5).
    pub miss_exponent: Option<Sourced<f64>>,
    /// Speculation: branch-predictor energy ratio.
    pub predictor_energy_ratio: Option<Sourced<f64>>,
    /// Speculation: branch-predictor performance ratio.
    pub predictor_performance_ratio: Option<Sourced<f64>>,
    /// Speculation: runahead performance ratio.
    pub runahead_performance_ratio: Option<Sourced<f64>>,
    /// Speculation: runahead energy ratio.
    pub runahead_energy_ratio: Option<Sourced<f64>>,
    /// Speculation: runahead area overhead.
    pub runahead_area_overhead: Option<Sourced<f64>>,
    /// DVFS: dynamic share of core power.
    pub dynamic_power_fraction: Option<Sourced<f64>>,
    /// DVFS: voltage-regulator area overhead.
    pub regulator_area_overhead: Option<Sourced<f64>>,
    /// DVFS: turbo-circuitry area overhead.
    pub turbo_area_overhead: Option<Sourced<f64>>,
    /// DVFS: representative down-scaling point (Finding #14).
    pub downscale: Option<Sourced<f64>>,
    /// DVFS: representative boost point (Finding #15).
    pub boost: Option<Sourced<f64>>,
    /// Gating: energy ratio.
    pub gating_energy_ratio: Option<Sourced<f64>>,
    /// Gating: performance ratio.
    pub gating_performance_ratio: Option<Sourced<f64>>,
    /// Gating: area overhead.
    pub gating_area_overhead: Option<Sourced<f64>>,
    /// Case study: parallel fraction f.
    pub parallel_fraction: Option<Sourced<f64>>,
    /// Case study: old-node core count.
    pub base_cores: Option<Sourced<u32>>,
    /// Wafer substrate: wafer diameter in mm.
    pub wafer_diameter_mm: Option<Sourced<f64>>,
    /// Wafer substrate: defect density in defects/cm².
    pub defect_density_per_cm2: Option<Sourced<f64>>,
    /// Wafer substrate: yield-model specs (see `YieldModel::parse`).
    pub yield_models: Option<Sourced<Vec<String>>>,
}

/// `[sweep]` — sweep axes and grids (all optional).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sweep {
    /// Chip sizes in BCEs.
    pub bce: Option<Sourced<Vec<u32>>>,
    /// Parallel fractions.
    pub parallel_fraction: Option<Sourced<Vec<f64>>>,
    /// LLC sizes in MiB.
    pub llc_mib: Option<Sourced<Vec<f64>>>,
    /// LLC sizes in KiB (normalized to MiB).
    pub llc_kib: Option<Sourced<Vec<f64>>>,
    /// Utilization grid points (accelerator / dark-silicon).
    pub utilization_steps: Option<Sourced<usize>>,
    /// Predictor-area grid points (speculation).
    pub area_steps: Option<Sourced<usize>>,
    /// Largest predictor area as a fraction of the core.
    pub max_predictor_area: Option<Sourced<f64>>,
    /// Largest predictor area in percent (normalized to a fraction).
    pub max_predictor_area_percent: Option<Sourced<f64>>,
    /// Smallest die in the Figure 1 sweep, mm².
    pub die_min_mm2: Option<Sourced<f64>>,
    /// Largest die in the Figure 1 sweep, mm².
    pub die_max_mm2: Option<Sourced<f64>>,
    /// Die-size grid points.
    pub die_steps: Option<Sourced<usize>>,
    /// Die size the Figure 1 footprints are normalized to, mm².
    pub reference_mm2: Option<Sourced<f64>>,
}

/// How `[assumptions.act]` spells the use-phase carbon intensity.
#[derive(Debug, Clone, PartialEq)]
pub enum CarbonIntensitySpec {
    /// A named grid preset (`"coal-heavy"`, `"world-average"`,
    /// `"renewable"`).
    Named(String),
    /// An explicit intensity in gCO₂/kWh.
    GramsPerKwh(f64),
}

/// `[assumptions.act]` — a full ACT bottom-up derivation of α from
/// device assumptions (scaling node, lifetime, carbon intensity, power,
/// die size). All fields are required when the table is present.
#[derive(Debug, Clone, PartialEq)]
pub struct ActAssumptions {
    /// Technology node label (`"7nm"`, `"N7"`, …).
    pub node: Sourced<String>,
    /// Deployed lifetime in years.
    pub lifetime_years: Sourced<f64>,
    /// Use-phase carbon intensity.
    pub carbon_intensity: Sourced<CarbonIntensitySpec>,
    /// Average power draw over the lifetime, watts.
    pub average_power_watts: Sourced<f64>,
    /// Die size in mm².
    pub die_mm2: Sourced<f64>,
}

/// `[assumptions]` — α regimes, either direct or ACT-derived.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Assumptions {
    /// Explicit α weights.
    pub alpha: Option<Sourced<Vec<f64>>>,
    /// α band centers (range-based figures).
    pub alpha_center: Option<Sourced<Vec<f64>>>,
    /// α band half-width (shared across the centers).
    pub alpha_half_width: Option<Sourced<f64>>,
    /// ACT-derived α (mutually exclusive with `alpha`).
    pub act: Option<ActAssumptions>,
}

/// Largest `[monte_carlo] samples` a scenario may ask for (2^20).
///
/// Every sample costs memory (a robustness sweep keeps 24 B per sample
/// while it counts), so an unbounded value from a file or a request line
/// could make one evaluation allocate until the process aborts. At this
/// bound the suite's robustness sweep takes well under a second.
pub const MAX_MC_SAMPLES: usize = 1 << 20;

/// `[monte_carlo]` — sampling settings for robustness scenarios. All
/// fields are required when the table is present.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// Samples per Monte-Carlo run.
    pub samples: Sourced<usize>,
    /// Base seed of the chunked sample streams.
    pub seed: Sourced<u64>,
    /// Multiplicative proxy-ratio jitter (0.1 = ±10 %).
    pub jitter: Sourced<f64>,
}

/// A fully type-checked scenario definition (defaults not yet resolved —
/// that is [`crate::canonical::canonicalize`]'s job).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// The file the scenario came from (for error messages).
    pub file: String,
    /// Unique scenario id.
    pub id: String,
    /// Source line of the id (for duplicate-id reports).
    pub id_line: u32,
    /// What the scenario evaluates to.
    pub kind: ScenarioKind,
    /// The study family.
    pub study: StudyFamily,
    /// Source line of the `study` key.
    pub study_line: u32,
    /// Figure/finding index (required for findings).
    pub index: Option<Sourced<u32>>,
    /// Optional free-text title.
    pub title: Option<String>,
    /// Family-specific parameters.
    pub params: Params,
    /// Sweep axes.
    pub sweep: Sweep,
    /// α assumptions.
    pub assumptions: Assumptions,
    /// Monte-Carlo settings (robustness scenarios).
    pub monte_carlo: Option<MonteCarlo>,
}

/// A table wrapper that type-checks entries and tracks which keys were
/// consumed, so leftovers can be reported as unknown keys.
struct TableReader<'a> {
    table: &'a Table,
    file: &'a str,
    consumed: Vec<&'a str>,
}

impl<'a> TableReader<'a> {
    fn new(table: &'a Table, file: &'a str) -> Self {
        TableReader {
            table,
            file,
            consumed: Vec::new(),
        }
    }

    fn err(&self, entry: &Entry, message: String) -> ScenarioError {
        ScenarioError::new(message)
            .in_file(self.file)
            .at_line(entry.line)
            .for_key(&entry.key)
    }

    fn take(&mut self, key: &'a str) -> Option<&'a Entry> {
        let entry = self.table.get(key)?;
        self.consumed.push(key);
        Some(entry)
    }

    fn str_opt(&mut self, key: &'a str) -> Result<Option<Sourced<String>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match &entry.value {
                Value::Str(s) => Ok(Some(Sourced::new(s.clone(), entry.line))),
                other => Err(self.err(
                    entry,
                    format!("expected a string, got a {}", other.type_name()),
                )),
            },
        }
    }

    fn str_required(&mut self, key: &'a str) -> Result<Sourced<String>> {
        self.str_opt(key)?.ok_or_else(|| {
            ScenarioError::new(format!(
                "missing required key `{key}` in table `[{}]`",
                self.table.name
            ))
            .in_file(self.file)
            .at_line(self.table.line)
            .for_key(key)
        })
    }

    fn number(&self, entry: &Entry) -> Result<f64> {
        let v = match entry.value {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
            ref other => {
                return Err(self.err(
                    entry,
                    format!("expected a number, got a {}", other.type_name()),
                ))
            }
        };
        if !v.is_finite() {
            return Err(self.err(entry, format!("`{}` must be a finite number", entry.key)));
        }
        Ok(v)
    }

    fn f64_opt(&mut self, key: &'a str) -> Result<Option<Sourced<f64>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => Ok(Some(Sourced::new(self.number(entry)?, entry.line))),
        }
    }

    fn f64_required(&mut self, key: &'a str) -> Result<Sourced<f64>> {
        self.f64_opt(key)?.ok_or_else(|| {
            ScenarioError::new(format!(
                "missing required key `{key}` in table `[{}]`",
                self.table.name
            ))
            .in_file(self.file)
            .at_line(self.table.line)
            .for_key(key)
        })
    }

    fn unsigned(&self, entry: &Entry) -> Result<u64> {
        match entry.value {
            Value::Int(i) if i >= 0 => Ok(i as u64),
            Value::Int(_) => Err(self.err(
                entry,
                format!("`{}` must be a non-negative integer", entry.key),
            )),
            ref other => Err(self.err(
                entry,
                format!("expected an integer, got a {}", other.type_name()),
            )),
        }
    }

    fn usize_opt(&mut self, key: &'a str) -> Result<Option<Sourced<usize>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => {
                let v = self.unsigned(entry)?;
                let v = usize::try_from(v)
                    .map_err(|_| self.err(entry, format!("`{}` is out of range", entry.key)))?;
                Ok(Some(Sourced::new(v, entry.line)))
            }
        }
    }

    fn u32_opt(&mut self, key: &'a str) -> Result<Option<Sourced<u32>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => {
                let v = self.unsigned(entry)?;
                let v = u32::try_from(v)
                    .map_err(|_| self.err(entry, format!("`{}` is out of range", entry.key)))?;
                Ok(Some(Sourced::new(v, entry.line)))
            }
        }
    }

    fn f64_array_opt(&mut self, key: &'a str) -> Result<Option<Sourced<Vec<f64>>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match &entry.value {
                Value::Array(values) => {
                    let mut out = Vec::with_capacity(values.len());
                    for v in values {
                        match v {
                            Value::Int(i) => out.push(*i as f64),
                            Value::Float(f) if f.is_finite() => out.push(*f),
                            Value::Float(_) => {
                                return Err(self.err(
                                    entry,
                                    format!("`{}` must contain finite numbers", entry.key),
                                ))
                            }
                            other => {
                                return Err(self.err(
                                    entry,
                                    format!(
                                        "expected an array of numbers, found a {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        }
                    }
                    Ok(Some(Sourced::new(out, entry.line)))
                }
                other => Err(self.err(
                    entry,
                    format!("expected an array, got a {}", other.type_name()),
                )),
            },
        }
    }

    fn u32_array_opt(&mut self, key: &'a str) -> Result<Option<Sourced<Vec<u32>>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match &entry.value {
                Value::Array(values) => {
                    let mut out = Vec::with_capacity(values.len());
                    for v in values {
                        match v {
                            Value::Int(i) => {
                                let n = u32::try_from(*i).map_err(|_| {
                                    self.err(
                                        entry,
                                        format!(
                                            "`{}` must contain non-negative integers",
                                            entry.key
                                        ),
                                    )
                                })?;
                                out.push(n);
                            }
                            other => {
                                return Err(self.err(
                                    entry,
                                    format!(
                                        "expected an array of integers, found a {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        }
                    }
                    Ok(Some(Sourced::new(out, entry.line)))
                }
                other => Err(self.err(
                    entry,
                    format!("expected an array, got a {}", other.type_name()),
                )),
            },
        }
    }

    fn str_array_opt(&mut self, key: &'a str) -> Result<Option<Sourced<Vec<String>>>> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => match &entry.value {
                Value::Array(values) => {
                    let mut out = Vec::with_capacity(values.len());
                    for v in values {
                        match v {
                            Value::Str(s) => out.push(s.clone()),
                            other => {
                                return Err(self.err(
                                    entry,
                                    format!(
                                        "expected an array of strings, found a {}",
                                        other.type_name()
                                    ),
                                ))
                            }
                        }
                    }
                    Ok(Some(Sourced::new(out, entry.line)))
                }
                other => Err(self.err(
                    entry,
                    format!("expected an array, got a {}", other.type_name()),
                )),
            },
        }
    }

    /// Fails on any key the schema did not consume.
    fn finish(self) -> Result<()> {
        for entry in &self.table.entries {
            if !self.consumed.contains(&entry.key.as_str()) {
                return Err(self.err(
                    entry,
                    format!(
                        "unknown key `{}` in table `[{}]`",
                        entry.key, self.table.name
                    ),
                ));
            }
        }
        Ok(())
    }
}

const KNOWN_TABLES: &[&str] = &[
    "scenario",
    "params",
    "sweep",
    "assumptions",
    "assumptions.act",
    "monte_carlo",
];

fn read_scenario_table(doc: &Document, file: &str) -> Result<(ScenarioDef, ())> {
    let table = doc.table("scenario").ok_or_else(|| {
        ScenarioError::new("missing required table `[scenario]`")
            .in_file(file)
            .for_key("scenario")
    })?;
    let mut r = TableReader::new(table, file);
    let id = r.str_required("id")?;
    if id.value.trim().is_empty() {
        return Err(ScenarioError::new("scenario id must not be empty")
            .in_file(file)
            .at_line(id.line)
            .for_key("id"));
    }
    let kind = r.str_required("kind")?;
    let kind_value = match kind.value.as_str() {
        "figure" => ScenarioKind::Figure,
        "finding" => ScenarioKind::Finding,
        "robustness" => ScenarioKind::Robustness,
        other => {
            return Err(ScenarioError::new(format!(
                "unknown kind `{other}` (expected figure | finding | robustness)"
            ))
            .in_file(file)
            .at_line(kind.line)
            .for_key("kind"))
        }
    };
    let study = r.str_required("study")?;
    let family = StudyFamily::parse(&study.value).ok_or_else(|| {
        ScenarioError::new(format!(
            "unknown study `{}` (expected wafer | multicore | asymmetric | accelerator | \
             dark-silicon | caching | microarch | speculation | dvfs | gating | die-shrink | \
             case-study | taxonomy)",
            study.value
        ))
        .in_file(file)
        .at_line(study.line)
        .for_key("study")
    })?;
    let index = r.u32_opt("index")?;
    let title = r.str_opt("title")?.map(|t| t.value);
    r.finish()?;
    Ok((
        ScenarioDef {
            file: file.to_string(),
            id: id.value,
            id_line: id.line,
            kind: kind_value,
            study: family,
            study_line: study.line,
            index,
            title,
            params: Params::default(),
            sweep: Sweep::default(),
            assumptions: Assumptions::default(),
            monte_carlo: None,
        },
        (),
    ))
}

fn read_params(table: &Table, file: &str) -> Result<Params> {
    let mut r = TableReader::new(table, file);
    let params = Params {
        gamma: r.f64_opt("gamma")?,
        pollack_exponent: r.f64_opt("pollack_exponent")?,
        big_core_bce: r.f64_opt("big_core_bce")?,
        area_overhead: r.f64_opt("area_overhead")?,
        energy_advantage: r.f64_opt("energy_advantage")?,
        accelerator_area_fraction: r.f64_opt("accelerator_area_fraction")?,
        stall_fraction: r.f64_opt("stall_fraction")?,
        memory_energy_fraction: r.f64_opt("memory_energy_fraction")?,
        cache_energy_fraction: r.f64_opt("cache_energy_fraction")?,
        base_mib: r.f64_opt("base_mib")?,
        base_kib: r.f64_opt("base_kib")?,
        miss_exponent: r.f64_opt("miss_exponent")?,
        predictor_energy_ratio: r.f64_opt("predictor_energy_ratio")?,
        predictor_performance_ratio: r.f64_opt("predictor_performance_ratio")?,
        runahead_performance_ratio: r.f64_opt("runahead_performance_ratio")?,
        runahead_energy_ratio: r.f64_opt("runahead_energy_ratio")?,
        runahead_area_overhead: r.f64_opt("runahead_area_overhead")?,
        dynamic_power_fraction: r.f64_opt("dynamic_power_fraction")?,
        regulator_area_overhead: r.f64_opt("regulator_area_overhead")?,
        turbo_area_overhead: r.f64_opt("turbo_area_overhead")?,
        downscale: r.f64_opt("downscale")?,
        boost: r.f64_opt("boost")?,
        gating_energy_ratio: r.f64_opt("gating_energy_ratio")?,
        gating_performance_ratio: r.f64_opt("gating_performance_ratio")?,
        gating_area_overhead: r.f64_opt("gating_area_overhead")?,
        parallel_fraction: r.f64_opt("parallel_fraction")?,
        base_cores: r.u32_opt("base_cores")?,
        wafer_diameter_mm: r.f64_opt("wafer_diameter_mm")?,
        defect_density_per_cm2: r.f64_opt("defect_density_per_cm2")?,
        yield_models: r.str_array_opt("yield_models")?,
    };
    r.finish()?;
    Ok(params)
}

fn read_sweep(table: &Table, file: &str) -> Result<Sweep> {
    let mut r = TableReader::new(table, file);
    let sweep = Sweep {
        bce: r.u32_array_opt("bce")?,
        parallel_fraction: r.f64_array_opt("parallel_fraction")?,
        llc_mib: r.f64_array_opt("llc_mib")?,
        llc_kib: r.f64_array_opt("llc_kib")?,
        utilization_steps: r.usize_opt("utilization_steps")?,
        area_steps: r.usize_opt("area_steps")?,
        max_predictor_area: r.f64_opt("max_predictor_area")?,
        max_predictor_area_percent: r.f64_opt("max_predictor_area_percent")?,
        die_min_mm2: r.f64_opt("die_min_mm2")?,
        die_max_mm2: r.f64_opt("die_max_mm2")?,
        die_steps: r.usize_opt("die_steps")?,
        reference_mm2: r.f64_opt("reference_mm2")?,
    };
    r.finish()?;
    Ok(sweep)
}

fn read_assumptions(table: &Table, file: &str) -> Result<Assumptions> {
    let mut r = TableReader::new(table, file);
    let assumptions = Assumptions {
        alpha: r.f64_array_opt("alpha")?,
        alpha_center: r.f64_array_opt("alpha_center")?,
        alpha_half_width: r.f64_opt("alpha_half_width")?,
        act: None,
    };
    r.finish()?;
    Ok(assumptions)
}

fn read_act(table: &Table, file: &str) -> Result<ActAssumptions> {
    let mut r = TableReader::new(table, file);
    let node = r.str_required("node")?;
    let lifetime_years = r.f64_required("lifetime_years")?;
    let carbon_intensity = match r.take("carbon_intensity") {
        None => {
            return Err(ScenarioError::new(
                "missing required key `carbon_intensity` in table `[assumptions.act]`",
            )
            .in_file(file)
            .at_line(table.line)
            .for_key("carbon_intensity"))
        }
        Some(entry) => match &entry.value {
            Value::Str(name) => Sourced::new(CarbonIntensitySpec::Named(name.clone()), entry.line),
            Value::Int(_) | Value::Float(_) => {
                let v = r.number(entry)?;
                Sourced::new(CarbonIntensitySpec::GramsPerKwh(v), entry.line)
            }
            other => {
                return Err(r.err(
                    entry,
                    format!(
                        "expected a preset name or gCO2/kWh number, got a {}",
                        other.type_name()
                    ),
                ))
            }
        },
    };
    let average_power_watts = r.f64_required("average_power_watts")?;
    let die_mm2 = r.f64_required("die_mm2")?;
    r.finish()?;
    Ok(ActAssumptions {
        node,
        lifetime_years,
        carbon_intensity,
        average_power_watts,
        die_mm2,
    })
}

fn read_monte_carlo(table: &Table, file: &str) -> Result<MonteCarlo> {
    let mut r = TableReader::new(table, file);
    let samples = r.usize_opt("samples")?.ok_or_else(|| {
        ScenarioError::new("missing required key `samples` in table `[monte_carlo]`")
            .in_file(file)
            .at_line(table.line)
            .for_key("samples")
    })?;
    if samples.value == 0 {
        return Err(ScenarioError::new("`samples` must be positive")
            .in_file(file)
            .at_line(samples.line)
            .for_key("samples"));
    }
    if samples.value > MAX_MC_SAMPLES {
        return Err(ScenarioError::new(format!(
            "`samples` must be at most {MAX_MC_SAMPLES}, got {}",
            samples.value
        ))
        .in_file(file)
        .at_line(samples.line)
        .for_key("samples"));
    }
    let seed = match r.take("seed") {
        None => {
            return Err(
                ScenarioError::new("missing required key `seed` in table `[monte_carlo]`")
                    .in_file(file)
                    .at_line(table.line)
                    .for_key("seed"),
            )
        }
        Some(entry) => Sourced::new(r.unsigned(entry)?, entry.line),
    };
    let jitter = r.f64_required("jitter")?;
    r.finish()?;
    Ok(MonteCarlo {
        samples,
        seed,
        jitter,
    })
}

/// Type-checks a parsed document into a [`ScenarioDef`].
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming file, line and key for unknown
/// tables or keys, type mismatches, non-finite numbers and missing
/// required fields.
pub fn from_document(doc: &Document, file: &str) -> Result<ScenarioDef> {
    for table in &doc.tables {
        if !KNOWN_TABLES.contains(&table.name.as_str()) {
            return Err(ScenarioError::new(format!(
                "unknown table `[{}]` (expected one of {})",
                table.name,
                KNOWN_TABLES.join(", ")
            ))
            .in_file(file)
            .at_line(table.line)
            .for_key(&table.name));
        }
    }
    let (mut def, ()) = read_scenario_table(doc, file)?;
    if let Some(table) = doc.table("params") {
        def.params = read_params(table, file)?;
    }
    if let Some(table) = doc.table("sweep") {
        def.sweep = read_sweep(table, file)?;
    }
    if let Some(table) = doc.table("assumptions") {
        def.assumptions = read_assumptions(table, file)?;
    }
    if let Some(table) = doc.table("assumptions.act") {
        def.assumptions.act = Some(read_act(table, file)?);
    }
    if let Some(table) = doc.table("monte_carlo") {
        def.monte_carlo = Some(read_monte_carlo(table, file)?);
    }
    Ok(def)
}

/// Parses and type-checks scenario text in one step.
///
/// # Errors
///
/// See [`crate::toml::parse`] and [`from_document`].
pub fn parse_scenario(text: &str, file: &str) -> Result<ScenarioDef> {
    let doc = crate::toml::parse(text, file)?;
    from_document(&doc, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_figure_scenario_parses() {
        let def = parse_scenario(
            "[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap();
        assert_eq!(def.id, "fig3");
        assert_eq!(def.kind, ScenarioKind::Figure);
        assert_eq!(def.study, StudyFamily::Multicore);
        assert!(def.index.is_none());
    }

    #[test]
    fn full_tables_parse() {
        let def = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"finding\"\nstudy = \"caching\"\nindex = 8\n",
                "[params]\nstall_fraction = 0.8\nbase_kib = 1024\n",
                "[sweep]\nllc_mib = [1, 2, 4]\n",
                "[assumptions]\nalpha = [0.8, 0.2]\n",
            ),
            "t.toml",
        )
        .unwrap();
        assert_eq!(def.index.map(|i| i.value), Some(8));
        assert_eq!(def.params.stall_fraction.map(|v| v.value), Some(0.8));
        assert_eq!(def.params.base_kib.map(|v| v.value), Some(1024.0));
        assert_eq!(
            def.sweep.llc_mib.as_ref().map(|v| v.value.clone()),
            Some(vec![1.0, 2.0, 4.0])
        );
        assert_eq!(
            def.assumptions.alpha.as_ref().map(|v| v.value.clone()),
            Some(vec![0.8, 0.2])
        );
    }

    #[test]
    fn act_assumptions_parse_both_ci_spellings() {
        let base = concat!(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "average_power_watts = 15\ndie_mm2 = 100\n",
        );
        let named = format!("{base}carbon_intensity = \"world-average\"\n");
        let def = parse_scenario(&named, "t.toml").unwrap();
        let act = def.assumptions.act.unwrap();
        assert_eq!(
            act.carbon_intensity.value,
            CarbonIntensitySpec::Named("world-average".into())
        );
        let numeric = format!("{base}carbon_intensity = 475\n");
        let def = parse_scenario(&numeric, "t.toml").unwrap();
        let act = def.assumptions.act.unwrap();
        assert_eq!(
            act.carbon_intensity.value,
            CarbonIntensitySpec::GramsPerKwh(475.0)
        );
    }

    #[test]
    fn missing_required_key_is_structured() {
        let e =
            parse_scenario("[scenario]\nid = \"x\"\nkind = \"figure\"\n", "t.toml").unwrap_err();
        assert_eq!(e.key.as_deref(), Some("study"));
        assert!(e.to_string().contains("missing required"), "{e}");
    }

    #[test]
    fn unknown_kind_study_table_and_key_are_structured() {
        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"chart\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("kind"));
        assert_eq!(e.line, Some(3));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"quantum\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("study"));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n[bogus]\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("bogus"));
        assert_eq!(e.line, Some(5));

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n[params]\nwarp = 9\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("warp"));
        assert_eq!(e.line, Some(6));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let e = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
                "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = nan\n",
                "carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
            ),
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("lifetime_years"));
        assert_eq!(e.line, Some(7));
        assert!(e.to_string().contains("finite"), "{e}");
    }

    #[test]
    fn type_mismatches_are_structured() {
        let e = parse_scenario(
            "[scenario]\nid = 3\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("id"));
        assert!(e.to_string().contains("expected a string"), "{e}");

        let e = parse_scenario(
            "[scenario]\nid = \"x\"\nkind = \"figure\"\nstudy = \"multicore\"\nindex = -1\n",
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("index"));
    }

    #[test]
    fn monte_carlo_samples_are_bounded_on_both_sides() {
        let doc = |samples: usize| {
            format!(
                "[scenario]\nid = \"x\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n\
                 [monte_carlo]\nsamples = {samples}\nseed = 1\njitter = 0.1\n"
            )
        };
        assert!(parse_scenario(&doc(MAX_MC_SAMPLES), "t.toml").is_ok());
        for bad in [0, MAX_MC_SAMPLES + 1] {
            let e = parse_scenario(&doc(bad), "t.toml").unwrap_err();
            assert_eq!(e.key.as_deref(), Some("samples"), "{e}");
            assert_eq!(e.line, Some(6), "{e}");
        }
    }

    #[test]
    fn monte_carlo_requires_all_fields() {
        let e = parse_scenario(
            concat!(
                "[scenario]\nid = \"x\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
                "[monte_carlo]\nsamples = 100\nseed = 1\n",
            ),
            "t.toml",
        )
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("jitter"));
    }
}

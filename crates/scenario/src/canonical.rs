//! Canonicalization: resolve a type-checked [`ScenarioDef`] into a
//! [`CanonicalScenario`] with every default filled in from the studies'
//! own paper constants, units normalized (KiB → MiB, percent →
//! fraction), cross-field constraints validated (inverted sweeps, empty
//! axes, kind/family compatibility), and a stable canonical rendering
//! whose FNV-64 digest is insensitive to key order and comments in the
//! source file.

use crate::digest::Fnv64;
use crate::error::{Result, ScenarioError};
use crate::keys::{Key, KeyTable};
use crate::schema::{
    ActAssumptions, CarbonIntensitySpec, ScenarioDef, ScenarioKind, Sourced, StudyFamily,
};
use focal_act::{ActModel, ActParameters, CarbonIntensity, DeviceFootprint, UsePhase};
use focal_cache::{CacheSize, CactiLite, MemoryBoundWorkload, MissRateModel};
use focal_core::{E2oRange, E2oWeight, SiliconArea};
use focal_perf::{LeakageFraction, ParallelFraction, PollackRule};
use focal_scaling::TechNode;
use focal_studies::accelerator::AcceleratorStudy;
use focal_studies::asymmetric::AsymmetricStudy;
use focal_studies::caching::CachingStudy;
use focal_studies::case_study::CaseStudy;
use focal_studies::dark_silicon::DarkSiliconStudy;
use focal_studies::dvfs::DvfsStudy;
use focal_studies::gating::GatingStudy;
use focal_studies::multicore::MulticoreStudy;
use focal_studies::speculation::SpeculationStudy;
use focal_studies::write_shortest;
use focal_uarch::{
    Accelerator, BranchPredictor, DarkSiliconSoc, DvfsCore, PipelineGating, PreciseRunahead,
    TurboBoost,
};
use focal_wafer::{DefectDensity, Wafer, YieldModel};
use std::fmt;

/// Most grid points a `*_steps` key (`die_steps`, `utilization_steps`,
/// `area_steps`) may ask for, and the largest case-study `base_cores`
/// (whose grid is `base_cores..=2 * base_cores`). The paper's grids use
/// 5–21 points.
pub const MAX_GRID_STEPS: usize = 256;

/// Most entries a sweep, size, α or yield-model list may hold. The
/// shipped scenarios list at most 12.
///
/// With both bounds the largest figure is the asymmetric one with three
/// full lists: 131,200 CSV rows, about 7.9 MB, evaluated in tens of
/// milliseconds (`compile::tests::largest_figures_stay_bounded`).
/// Together with the schema's cap on Monte-Carlo samples, the bounds
/// close every input known to make one request exhaust memory.
pub const MAX_LIST_LEN: usize = 32;

/// KiB per MiB, for `*_kib` unit normalization.
const KIB_PER_MIB: f64 = 1024.0;

/// Percentage points per unit fraction, for `*_percent` normalization.
const PERCENT: f64 = 100.0;

/// The fully resolved parameters of one study family — what the
/// compiler actually evaluates. Every field is a validated model type,
/// so evaluation cannot fail on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub enum StudySpec {
    /// Figure 1: embodied footprint vs. die size.
    Wafer {
        /// Wafer geometry.
        wafer: Wafer,
        /// Defect density shared by all yield models.
        defect_density: DefectDensity,
        /// One curve per yield model.
        yield_models: Vec<YieldModel>,
        /// Smallest die in the sweep, mm².
        die_min_mm2: f64,
        /// Largest die in the sweep, mm².
        die_max_mm2: f64,
        /// Grid points.
        die_steps: usize,
        /// Die size the footprints are normalized to, mm².
        reference_mm2: f64,
    },
    /// §5.1 symmetric multicore.
    Multicore {
        /// The configured study.
        study: MulticoreStudy,
        /// BCE sweep.
        bces: Vec<u32>,
        /// Parallel fractions.
        fs: Vec<ParallelFraction>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.2 asymmetric multicore.
    Asymmetric {
        /// The configured study.
        study: AsymmetricStudy,
        /// BCE sweep.
        bces: Vec<u32>,
        /// Parallel fractions (the study's raw-`f64` sweep).
        fs: Vec<f64>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.3 hardware acceleration.
    Accelerator {
        /// The configured study.
        study: AcceleratorStudy,
        /// Utilization grid points.
        steps: usize,
        /// α uncertainty bands (one curve each).
        ranges: Vec<E2oRange>,
    },
    /// §5.4 dark silicon.
    DarkSilicon {
        /// The configured study.
        study: DarkSiliconStudy,
        /// Utilization grid points.
        steps: usize,
        /// α uncertainty bands.
        ranges: Vec<E2oRange>,
    },
    /// §5.5 caching.
    Caching {
        /// The configured study.
        study: CachingStudy,
        /// LLC sweep.
        sizes: Vec<CacheSize>,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.6 core microarchitecture.
    Microarch {
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.7 speculation.
    Speculation {
        /// The configured study.
        study: SpeculationStudy,
        /// Predictor-area grid points.
        steps: usize,
        /// Largest predictor area, fraction of the core.
        max_area: f64,
        /// α regimes.
        alphas: Vec<E2oWeight>,
    },
    /// §5.8 DVFS.
    Dvfs {
        /// The configured study.
        study: DvfsStudy,
    },
    /// §5.9 pipeline gating.
    Gating {
        /// The configured study.
        study: GatingStudy,
    },
    /// §6 die shrink (no parameters).
    DieShrink,
    /// §7 case study.
    CaseStudy {
        /// The configured study.
        study: CaseStudy,
        /// α regimes (Figure 9 panels).
        alphas: Vec<E2oWeight>,
    },
    /// §3.5 taxonomy verdict robustness.
    Taxonomy {
        /// Monte-Carlo samples per mechanism.
        samples: usize,
        /// Base seed of the chunked sample streams.
        seed: u64,
        /// Multiplicative proxy-ratio jitter.
        jitter: f64,
    },
}

/// A fully canonicalized scenario: identity plus resolved spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalScenario {
    /// Unique scenario id.
    pub id: String,
    /// What it evaluates to.
    pub kind: ScenarioKind,
    /// The study family.
    pub family: StudyFamily,
    /// Finding index (`None` for figures and robustness).
    pub index: Option<u32>,
    /// Optional free-text title.
    pub title: Option<String>,
    /// The resolved evaluation spec.
    pub spec: StudySpec,
}

/// The registry figure id a family's figure scenario compiles to, if the
/// family has one.
#[must_use]
pub fn figure_id(family: StudyFamily) -> Option<&'static str> {
    match family {
        StudyFamily::Wafer => Some("fig1"),
        StudyFamily::Multicore => Some("fig3"),
        StudyFamily::Asymmetric => Some("fig4"),
        StudyFamily::Accelerator => Some("fig5a"),
        StudyFamily::DarkSilicon => Some("fig5b"),
        StudyFamily::Caching => Some("fig6"),
        StudyFamily::Microarch => Some("fig7"),
        StudyFamily::Speculation => Some("fig8"),
        StudyFamily::CaseStudy => Some("fig9"),
        StudyFamily::Dvfs
        | StudyFamily::Gating
        | StudyFamily::DieShrink
        | StudyFamily::Taxonomy => None,
    }
}

/// The finding indices a family can compile to.
#[must_use]
pub fn finding_indices(family: StudyFamily) -> &'static [u32] {
    match family {
        StudyFamily::Wafer | StudyFamily::Taxonomy => &[],
        StudyFamily::Multicore => &[1, 2, 3],
        StudyFamily::Asymmetric => &[4, 5],
        StudyFamily::Accelerator => &[6],
        StudyFamily::DarkSilicon => &[7],
        StudyFamily::Caching => &[8],
        StudyFamily::Microarch => &[9, 10, 11],
        StudyFamily::Speculation => &[12, 13],
        StudyFamily::Dvfs => &[14, 15],
        StudyFamily::Gating => &[16],
        StudyFamily::DieShrink => &[17],
        StudyFamily::CaseStudy => &[18],
    }
}

struct Ctx<'a> {
    def: &'a ScenarioDef,
}

impl<'a> Ctx<'a> {
    fn err(&self, line: u32, key: &str, message: String) -> ScenarioError {
        ScenarioError::new(message)
            .in_file(&self.def.file)
            .at_line(line)
            .for_key(key)
    }

    fn model<T>(&self, key: &str, line: u32, r: focal_core::Result<T>) -> Result<T> {
        r.map_err(|e| self.err(line, key, e.to_string()))
    }

    /// Checks that every provided key is understood by the family, in row
    /// order, then `[assumptions.act]`, which goes wherever `alpha` does.
    fn reject_unused(&self) -> Result<()> {
        let family = self.def.study;
        for (key, value) in self.def.values() {
            let row = key.row();
            if !row.families.contains(&family) {
                let role = match row.table {
                    KeyTable::Params => "is not a parameter of",
                    KeyTable::Sweep => "is not a sweep axis of",
                    KeyTable::Assumptions => "assumptions do not apply to",
                };
                return Err(self.err(
                    value.line,
                    row.name,
                    format!("`{}` {role} the {} study", row.name, family.as_str()),
                ));
            }
        }
        match &self.def.act {
            Some(act) if !Key::Alpha.row().families.contains(&family) => Err(self.err(
                act.node.line,
                "act",
                format!(
                    "`act` assumptions do not apply to the {} study",
                    family.as_str()
                ),
            )),
            _ => Ok(()),
        }
    }

    /// Rejects any list longer than [`MAX_LIST_LEN`], in row order,
    /// naming the key.
    fn check_list_lengths(&self) -> Result<()> {
        for (key, value) in self.def.values() {
            if let Some(len) = value.value.list_len().filter(|&len| len > MAX_LIST_LEN) {
                return Err(self.err(
                    value.line,
                    key.name(),
                    format!(
                        "`{}` allows at most {MAX_LIST_LEN} entries, got {len}",
                        key.name()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn f64_or(&self, key: Key, default: f64) -> f64 {
        self.def.number(key).map_or(default, |v| v.value)
    }

    /// The first of `keys` provided, with its line.
    fn first_provided(&self, keys: &[Key]) -> Option<(Key, u32)> {
        keys.iter()
            .find_map(|&key| Some((key, self.def.line(key)?)))
    }

    /// The line of the first of `keys` provided, else the `study` line.
    fn first_line(&self, keys: &[Key]) -> u32 {
        self.first_provided(keys)
            .map_or(self.def.study_line, |(_, line)| line)
    }

    /// Builds `key`'s model value from its number, or takes `default`
    /// when the key is not provided.
    fn number_or<T>(
        &self,
        key: Key,
        default: T,
        build: impl FnOnce(f64) -> focal_core::Result<T>,
    ) -> Result<T> {
        match self.def.number(key) {
            Some(v) => self.model(key.name(), v.line, build(v.value)),
            None => Ok(default),
        }
    }

    /// Builds one model value per entry of `key`'s list, which must not
    /// be empty (`what` names one entry in that error).
    fn list_of<T, U>(
        &self,
        key: Key,
        list: Sourced<&[T]>,
        what: &str,
        build: impl Fn(&T) -> focal_core::Result<U>,
    ) -> Result<Vec<U>> {
        if list.value.is_empty() {
            return Err(self.err(
                list.line,
                key.name(),
                format!("`{}` must list at least one {what}", key.name()),
            ));
        }
        list.value
            .iter()
            .map(|v| self.model(key.name(), list.line, build(v)))
            .collect()
    }

    /// Builds one model value from a group of `[params]` keys, each
    /// provided or defaulted, in the constructor's argument order.
    ///
    /// When the constructor fails, it is rebuilt with one provided key at
    /// a time over the defaults, and the first key in row order that
    /// fails on its own is blamed, at its line. A failure that no key
    /// causes on its own is cross-field: it is reported under the group's
    /// first key, at the line of its first key provided.
    fn grouped<const N: usize, T>(
        &self,
        keys: [(Key, f64); N],
        build: impl Fn([f64; N]) -> focal_core::Result<T>,
    ) -> Result<T> {
        let cross_field = match build(keys.map(|(key, default)| self.f64_or(key, default))) {
            Ok(value) => return Ok(value),
            Err(e) => e,
        };
        let defaults = keys.map(|(_, default)| default);
        let alone = keys
            .iter()
            .enumerate()
            .filter_map(|(i, &(key, _))| {
                let provided = self.def.number(key)?;
                let mut values = defaults;
                *values.get_mut(i)? = provided.value;
                build(values).err().map(|e| (key, provided.line, e))
            })
            .min_by_key(|&(key, _, _)| key);
        Err(match alone {
            Some((key, line, e)) => self.err(line, key.name(), e.to_string()),
            None => self.err(
                self.first_line(&keys.map(|(key, _)| key)),
                keys.first().map_or("study", |(key, _)| key.name()),
                cross_field.to_string(),
            ),
        })
    }

    /// Resolves the α weights: explicit `alpha`, an ACT derivation, or
    /// the paper's default pair.
    fn alphas(&self) -> Result<Vec<E2oWeight>> {
        match (self.def.numbers(Key::Alpha), &self.def.act) {
            (Some(alpha), Some(act)) => Err(self.err(
                act.node.line,
                "act",
                format!(
                    "`alpha` (line {}) and `[assumptions.act]` both set the \
                     embodied-to-operational weight; choose one",
                    alpha.line
                ),
            )),
            (Some(alpha), None) => {
                self.list_of(Key::Alpha, alpha, "weight", |&v| E2oWeight::new(v))
            }
            (None, Some(act)) => Ok(vec![self.act_alpha(act)?]),
            (None, None) => Ok(focal_studies::labels::DEFAULT_WEIGHTS.to_vec()),
        }
    }

    /// Derives a single α bottom-up through the ACT model.
    fn act_alpha(&self, act: &ActAssumptions) -> Result<E2oWeight> {
        let node = self.model("node", act.node.line, TechNode::parse(&act.node.value))?;
        let intensity = match &act.carbon_intensity.value {
            CarbonIntensitySpec::Named(name) => self.model(
                "carbon_intensity",
                act.carbon_intensity.line,
                CarbonIntensity::from_name(name),
            )?,
            CarbonIntensitySpec::GramsPerKwh(v) => self.model(
                "carbon_intensity",
                act.carbon_intensity.line,
                CarbonIntensity::g_per_kwh(*v),
            )?,
        };
        let use_phase = self.model(
            "lifetime_years",
            act.lifetime_years.line,
            UsePhase::new(
                act.lifetime_years.value,
                act.average_power_watts.value,
                intensity,
            ),
        )?;
        let die = self.model(
            "die_mm2",
            act.die_mm2.line,
            SiliconArea::from_mm2(act.die_mm2.value),
        )?;
        let model = ActModel::new(ActParameters::for_node(node));
        let footprint = self.model(
            "die_mm2",
            act.die_mm2.line,
            DeviceFootprint::assess(&model, die, &use_phase),
        )?;
        Ok(footprint.e2o_weight())
    }

    /// Resolves the α uncertainty bands for the range-based figures.
    fn ranges(&self) -> Result<Vec<E2oRange>> {
        let (center, half_width) = (Key::AlphaCenter, Key::AlphaHalfWidth);
        match (self.def.numbers(center), self.def.number(half_width)) {
            (None, None) => Ok(focal_studies::labels::DEFAULT_RANGES.to_vec()),
            (Some(centers), Some(half)) => self.list_of(center, centers, "band center", |&c| {
                E2oRange::new(c, half.value)
            }),
            (Some(centers), None) => Err(self.err(
                centers.line,
                center.name(),
                "`alpha_center` needs `alpha_half_width` alongside it".to_string(),
            )),
            (None, Some(half)) => Err(self.err(
                half.line,
                half_width.name(),
                "`alpha_half_width` needs `alpha_center` alongside it".to_string(),
            )),
        }
    }

    fn steps_or(&self, key: Key, default: usize) -> Result<usize> {
        let name = key.name();
        match self.def.steps(key) {
            None => Ok(default),
            Some(s) if (2..=MAX_GRID_STEPS).contains(&s.value) => Ok(s.value),
            Some(s) if s.value > MAX_GRID_STEPS => Err(self.err(
                s.line,
                name,
                format!(
                    "`{name}` allows at most {MAX_GRID_STEPS} grid points, got {}",
                    s.value
                ),
            )),
            Some(s) => Err(self.err(
                s.line,
                name,
                format!("`{name}` needs at least two grid points, got {}", s.value),
            )),
        }
    }

    fn spec(&self) -> Result<StudySpec> {
        match self.def.study {
            StudyFamily::Wafer => self.wafer_spec(),
            StudyFamily::Multicore => self.multicore_spec(),
            StudyFamily::Asymmetric => self.asymmetric_spec(),
            StudyFamily::Accelerator => self.accelerator_spec(),
            StudyFamily::DarkSilicon => self.dark_silicon_spec(),
            StudyFamily::Caching => self.caching_spec(),
            StudyFamily::Microarch => Ok(StudySpec::Microarch {
                alphas: self.alphas()?,
            }),
            StudyFamily::Speculation => self.speculation_spec(),
            StudyFamily::Dvfs => self.dvfs_spec(),
            StudyFamily::Gating => self.gating_spec(),
            StudyFamily::DieShrink => Ok(StudySpec::DieShrink),
            StudyFamily::CaseStudy => self.case_study_spec(),
            StudyFamily::Taxonomy => self.taxonomy_spec(),
        }
    }

    fn wafer_spec(&self) -> Result<StudySpec> {
        use focal_studies::wafer_figure::{DIE_MAX_MM2, DIE_MIN_MM2, DIE_STEPS, REFERENCE_MM2};
        let wafer = self.number_or(Key::WaferDiameterMm, Wafer::W300MM, Wafer::new)?;
        let defect_density = self.number_or(
            Key::DefectDensityPerCm2,
            DefectDensity::TSMC_VOLUME,
            DefectDensity::per_cm2,
        )?;
        let yield_models = match self.def.strings(Key::YieldModels) {
            None => vec![YieldModel::Perfect, YieldModel::Murphy],
            Some(specs) => self.list_of(Key::YieldModels, specs, "model", |spec| {
                YieldModel::parse(spec)
            })?,
        };
        let (min, max, reference) = (Key::DieMinMm2, Key::DieMaxMm2, Key::ReferenceMm2);
        let die_min_mm2 = self.f64_or(min, DIE_MIN_MM2);
        let die_max_mm2 = self.f64_or(max, DIE_MAX_MM2);
        if die_min_mm2 >= die_max_mm2 {
            let (key, line) = self
                .first_provided(&[min, max])
                .unwrap_or((min, self.def.study_line));
            return Err(self.err(
                line,
                key.name(),
                format!(
                    "inverted die sweep: die_min_mm2 ({die_min_mm2}) must be below \
                     die_max_mm2 ({die_max_mm2})"
                ),
            ));
        }
        if die_min_mm2 <= 0.0 {
            return Err(self.err(
                self.first_line(&[min]),
                min.name(),
                format!("die sizes must be positive, got {die_min_mm2}"),
            ));
        }
        let reference_mm2 = self.f64_or(reference, REFERENCE_MM2);
        if reference_mm2 <= 0.0 {
            return Err(self.err(
                self.first_line(&[reference]),
                reference.name(),
                format!("the reference die must be positive, got {reference_mm2}"),
            ));
        }
        let die_steps = self.steps_or(Key::DieSteps, DIE_STEPS)?;
        Ok(StudySpec::Wafer {
            wafer,
            defect_density,
            yield_models,
            die_min_mm2,
            die_max_mm2,
            die_steps,
            reference_mm2,
        })
    }

    fn bces_or(&self, default: &[u32]) -> Result<Vec<u32>> {
        match self.def.integers(Key::Bce) {
            None => Ok(default.to_vec()),
            Some(b) => self.list_of(Key::Bce, b, "chip size", |&b| Ok(b)),
        }
    }

    fn multicore_spec(&self) -> Result<StudySpec> {
        let defaults = MulticoreStudy::default();
        let study = MulticoreStudy {
            gamma: self.number_or(Key::Gamma, defaults.gamma, LeakageFraction::new)?,
            pollack: self.number_or(Key::PollackExponent, defaults.pollack, PollackRule::new)?,
        };
        let bces = self.bces_or(&focal_studies::multicore::BCE_SWEEP)?;
        let fs = match self.def.numbers(Key::ParallelFractions) {
            None => ParallelFraction::paper_sweep(),
            Some(fs) => self.list_of(Key::ParallelFractions, fs, "value", |&f| {
                ParallelFraction::new(f)
            })?,
        };
        Ok(StudySpec::Multicore {
            study,
            bces,
            fs,
            alphas: self.alphas()?,
        })
    }

    fn asymmetric_spec(&self) -> Result<StudySpec> {
        let defaults = AsymmetricStudy::default();
        let big_core_bce = self.f64_or(Key::BigCoreBce, defaults.big_core_bce);
        if big_core_bce <= 0.0 {
            return Err(self.err(
                self.first_line(&[Key::BigCoreBce]),
                Key::BigCoreBce.name(),
                format!("the big core needs positive area, got {big_core_bce}"),
            ));
        }
        let study = AsymmetricStudy {
            gamma: self.number_or(Key::Gamma, defaults.gamma, LeakageFraction::new)?,
            pollack: self.number_or(Key::PollackExponent, defaults.pollack, PollackRule::new)?,
            big_core_bce,
        };
        let bces = self.bces_or(&focal_studies::asymmetric::BCE_SWEEP)?;
        let fs = match self.def.numbers(Key::ParallelFractions) {
            None => focal_studies::asymmetric::F_SWEEP.to_vec(),
            // Validate through the typed constructor even though the
            // study sweep takes raw fractions.
            Some(fs) => self.list_of(Key::ParallelFractions, fs, "value", |&f| {
                ParallelFraction::new(f).map(|_| f)
            })?,
        };
        Ok(StudySpec::Asymmetric {
            study,
            bces,
            fs,
            alphas: self.alphas()?,
        })
    }

    fn accelerator_spec(&self) -> Result<StudySpec> {
        let defaults = AcceleratorStudy::default().accelerator;
        let accelerator = self.grouped(
            [
                (Key::AreaOverhead, defaults.area_overhead()),
                (Key::EnergyAdvantage, defaults.energy_advantage()),
            ],
            |[area, energy]| Accelerator::new(area, energy),
        )?;
        Ok(StudySpec::Accelerator {
            study: AcceleratorStudy { accelerator },
            steps: self.steps_or(
                Key::UtilizationSteps,
                focal_studies::accelerator::UTILIZATION_STEPS,
            )?,
            ranges: self.ranges()?,
        })
    }

    fn dark_silicon_spec(&self) -> Result<StudySpec> {
        let defaults = DarkSiliconStudy::default().soc;
        let soc = self.grouped(
            [
                (
                    Key::AcceleratorAreaFraction,
                    defaults.accelerator_area_fraction(),
                ),
                (Key::EnergyAdvantage, defaults.energy_advantage()),
            ],
            |[fraction, energy]| DarkSiliconSoc::new(fraction, energy),
        )?;
        Ok(StudySpec::DarkSilicon {
            study: DarkSiliconStudy { soc },
            steps: self.steps_or(
                Key::UtilizationSteps,
                focal_studies::dark_silicon::UTILIZATION_STEPS,
            )?,
            ranges: self.ranges()?,
        })
    }

    fn caching_spec(&self) -> Result<StudySpec> {
        let paper = CachingStudy::paper()
            .map_err(|e| self.err(self.def.study_line, "study", e.to_string()))?
            .workload;
        let miss_model =
            self.number_or(Key::MissExponent, paper.miss_model(), MissRateModel::new)?;
        let (base_mib, base_kib) = (Key::BaseMib, Key::BaseKib);
        let base_size = match (self.def.number(base_mib), self.def.number(base_kib)) {
            (Some(mib), Some(kib)) => {
                return Err(self.err(
                    kib.line,
                    base_kib.name(),
                    format!(
                        "`base_mib` (line {}) and `base_kib` both set the base LLC size; \
                         choose one",
                        mib.line
                    ),
                ))
            }
            (Some(mib), None) => {
                self.model(base_mib.name(), mib.line, CacheSize::from_mib(mib.value))?
            }
            (None, Some(kib)) => self.model(
                base_kib.name(),
                kib.line,
                CacheSize::from_mib(kib.value / KIB_PER_MIB),
            )?,
            (None, None) => paper.base_size(),
        };
        let workload = self.grouped(
            [
                (Key::StallFraction, paper.stall_fraction()),
                (Key::MemoryEnergyFraction, paper.memory_energy_fraction()),
                (Key::CacheEnergyFraction, paper.cache_energy_fraction()),
            ],
            |[stall, memory, cache]| {
                MemoryBoundWorkload::new(
                    CactiLite::paper_65nm(),
                    miss_model,
                    base_size,
                    stall,
                    memory,
                    cache,
                )
            },
        )?;
        let (llc_mib, llc_kib) = (Key::LlcMib, Key::LlcKib);
        let sizes = match (self.def.numbers(llc_mib), self.def.numbers(llc_kib)) {
            (Some(mib), Some(kib)) => {
                return Err(self.err(
                    kib.line,
                    llc_kib.name(),
                    format!(
                        "`llc_mib` (line {}) and `llc_kib` both set the LLC sweep; choose one",
                        mib.line
                    ),
                ))
            }
            (Some(mib), None) => self.list_of(llc_mib, mib, "size", |&v| CacheSize::from_mib(v))?,
            (None, Some(kib)) => self.list_of(llc_kib, kib, "size", |&v| {
                CacheSize::from_mib(v / KIB_PER_MIB)
            })?,
            (None, None) => CacheSize::paper_sweep(),
        };
        Ok(StudySpec::Caching {
            study: CachingStudy { workload },
            sizes,
            alphas: self.alphas()?,
        })
    }

    fn speculation_spec(&self) -> Result<StudySpec> {
        let defaults = SpeculationStudy::default();
        let predictor = self.grouped(
            [
                (Key::PredictorEnergyRatio, defaults.predictor.energy_ratio()),
                (
                    Key::PredictorPerformanceRatio,
                    defaults.predictor.performance_ratio(),
                ),
            ],
            |[energy, performance]| BranchPredictor::new(energy, performance),
        )?;
        let runahead = self.grouped(
            [
                (
                    Key::RunaheadPerformanceRatio,
                    defaults.runahead.performance_ratio,
                ),
                (Key::RunaheadEnergyRatio, defaults.runahead.energy_ratio),
                (Key::RunaheadAreaOverhead, defaults.runahead.area_overhead),
            ],
            |[performance, energy, area]| PreciseRunahead::new(performance, energy, area),
        )?;
        let (fraction, percent) = (Key::MaxPredictorArea, Key::MaxPredictorAreaPercent);
        let max_area = match (self.def.number(fraction), self.def.number(percent)) {
            (Some(frac), Some(pct)) => {
                return Err(self.err(
                    pct.line,
                    percent.name(),
                    format!(
                        "`max_predictor_area` (line {}) and `max_predictor_area_percent` \
                         both set the sweep ceiling; choose one",
                        frac.line
                    ),
                ))
            }
            (Some(frac), None) => frac.value,
            (None, Some(pct)) => pct.value / PERCENT,
            (None, None) => focal_studies::speculation::MAX_PREDICTOR_AREA,
        };
        if max_area <= 0.0 {
            let (key, line) = self
                .first_provided(&[fraction, percent])
                .unwrap_or((fraction, self.def.study_line));
            return Err(self.err(
                line,
                key.name(),
                format!("the predictor-area ceiling must be positive, got {max_area}"),
            ));
        }
        Ok(StudySpec::Speculation {
            study: SpeculationStudy {
                predictor,
                runahead,
            },
            steps: self.steps_or(Key::AreaSteps, focal_studies::speculation::AREA_STEPS)?,
            max_area,
            alphas: self.alphas()?,
        })
    }

    fn dvfs_spec(&self) -> Result<StudySpec> {
        let defaults = DvfsStudy::default();
        let core = self.grouped(
            [
                (
                    Key::DynamicPowerFraction,
                    defaults.core.dynamic_power_fraction(),
                ),
                (
                    Key::RegulatorAreaOverhead,
                    defaults.core.regulator_area_overhead(),
                ),
            ],
            |[dynamic, regulator]| DvfsCore::new(dynamic, regulator),
        )?;
        let turbo = self.grouped(
            [(Key::TurboAreaOverhead, defaults.turbo.turbo_area_overhead())],
            |[area]| TurboBoost::new(core, area),
        )?;
        // Each point is checked through the call Finding #14 or #15 makes
        // with it first, so a point the model rejects is a bad request
        // naming its key, not an evaluation failure.
        let downscale = self.grouped([(Key::Downscale, defaults.downscale)], |[k]| {
            core.design_point(k).map(|_| k)
        })?;
        let boost = self.grouped([(Key::Boost, defaults.boost)], |[k]| {
            turbo.design_point(k).map(|_| k)
        })?;
        Ok(StudySpec::Dvfs {
            study: DvfsStudy {
                core,
                turbo,
                downscale,
                boost,
            },
        })
    }

    fn gating_spec(&self) -> Result<StudySpec> {
        let defaults = GatingStudy::default().gating;
        let gating = self.grouped(
            [
                (Key::GatingEnergyRatio, defaults.energy_ratio),
                (Key::GatingPerformanceRatio, defaults.performance_ratio),
                (Key::GatingAreaOverhead, defaults.area_overhead),
            ],
            |[energy, performance, area]| PipelineGating::new(energy, performance, area),
        )?;
        Ok(StudySpec::Gating {
            study: GatingStudy { gating },
        })
    }

    fn case_study_spec(&self) -> Result<StudySpec> {
        let defaults = CaseStudy::paper()
            .map_err(|e| self.err(self.def.study_line, "study", e.to_string()))?;
        let f = self.number_or(Key::ParallelFraction, defaults.f, ParallelFraction::new)?;
        let cores = Key::BaseCores;
        let base_cores = match self.def.integer(cores) {
            Some(c) if c.value == 0 => {
                return Err(self.err(
                    c.line,
                    cores.name(),
                    "`base_cores` must be positive".to_string(),
                ))
            }
            // The case study sweeps `base_cores..=2 * base_cores`, so
            // the core count is a grid size.
            Some(c) if usize::try_from(c.value).map_or(true, |n| n > MAX_GRID_STEPS) => {
                return Err(self.err(
                    c.line,
                    cores.name(),
                    format!(
                        "`base_cores` allows at most {MAX_GRID_STEPS} (the study sweeps \
                         base_cores..=2*base_cores), got {}",
                        c.value
                    ),
                ))
            }
            Some(c) => c.value,
            None => defaults.base_cores,
        };
        Ok(StudySpec::CaseStudy {
            study: CaseStudy {
                f,
                gamma: self.number_or(Key::Gamma, defaults.gamma, LeakageFraction::new)?,
                base_cores,
                trend: defaults.trend,
            },
            alphas: self.alphas()?,
        })
    }

    fn taxonomy_spec(&self) -> Result<StudySpec> {
        let mc = self.def.monte_carlo.as_ref().ok_or_else(|| {
            ScenarioError::new(
                "robustness scenarios need a `[monte_carlo]` table (samples, seed, jitter)",
            )
            .in_file(&self.def.file)
            .at_line(self.def.study_line)
            .for_key("monte_carlo")
        })?;
        if !(0.0..1.0).contains(&mc.jitter.value) {
            return Err(self.err(
                mc.jitter.line,
                "jitter",
                format!("`jitter` must be in [0, 1), got {}", mc.jitter.value),
            ));
        }
        Ok(StudySpec::Taxonomy {
            samples: mc.samples.value,
            seed: mc.seed.value,
            jitter: mc.jitter.value,
        })
    }
}

/// Resolves a type-checked definition into a canonical scenario.
///
/// # Errors
///
/// Returns a structured [`ScenarioError`] for kind/family mismatches,
/// out-of-range indices, keys the family does not understand, inverted
/// or empty sweeps, and any model-constructor rejection.
pub fn canonicalize(def: &ScenarioDef) -> Result<CanonicalScenario> {
    let ctx = Ctx { def };
    ctx.reject_unused()?;
    ctx.check_list_lengths()?;

    match def.kind {
        ScenarioKind::Figure => {
            if figure_id(def.study).is_none() {
                return Err(ctx.err(
                    def.study_line,
                    "kind",
                    format!("the {} study has no figure", def.study.as_str()),
                ));
            }
            if let Some(index) = &def.index {
                return Err(ctx.err(
                    index.line,
                    "index",
                    "figure scenarios derive their identity from `study`; remove `index`"
                        .to_string(),
                ));
            }
        }
        ScenarioKind::Finding => {
            let valid = finding_indices(def.study);
            match &def.index {
                None => {
                    return Err(ctx.err(
                        def.study_line,
                        "index",
                        format!(
                            "finding scenarios need `index` (the {} study covers {:?})",
                            def.study.as_str(),
                            valid
                        ),
                    ))
                }
                Some(index) if !valid.contains(&index.value) => {
                    return Err(ctx.err(
                        index.line,
                        "index",
                        format!(
                            "finding {} is not produced by the {} study (covers {:?})",
                            index.value,
                            def.study.as_str(),
                            valid
                        ),
                    ))
                }
                Some(_) => {}
            }
        }
        ScenarioKind::Robustness => {
            if def.study != StudyFamily::Taxonomy {
                return Err(ctx.err(
                    def.study_line,
                    "kind",
                    format!(
                        "robustness scenarios run on the taxonomy study, not {}",
                        def.study.as_str()
                    ),
                ));
            }
        }
    }
    if def.study == StudyFamily::Taxonomy && def.kind != ScenarioKind::Robustness {
        return Err(ctx.err(
            def.study_line,
            "kind",
            "the taxonomy study only supports kind = \"robustness\"".to_string(),
        ));
    }
    if def.kind != ScenarioKind::Robustness {
        if let Some(mc) = &def.monte_carlo {
            return Err(ctx.err(
                mc.samples.line,
                "monte_carlo",
                "`[monte_carlo]` only applies to robustness scenarios".to_string(),
            ));
        }
    }

    Ok(CanonicalScenario {
        id: def.id.clone(),
        kind: def.kind,
        family: def.study,
        index: def.index.as_ref().map(|i| i.value),
        title: def.title.clone(),
        spec: ctx.spec()?,
    })
}

fn yield_spec(model: YieldModel) -> String {
    match model {
        YieldModel::Perfect => "perfect".to_string(),
        YieldModel::Poisson => "poisson".to_string(),
        YieldModel::Murphy => "murphy".to_string(),
        YieldModel::Seeds => "seeds".to_string(),
        YieldModel::BoseEinstein { critical_layers } => {
            format!("bose-einstein:{critical_layers}")
        }
        YieldModel::NegativeBinomial { alpha } => format!("negative-binomial:{alpha}"),
        // `YieldModel` is non-exhaustive; fall back to the model's own
        // label so future variants still render something parseable.
        other => other.label().to_string(),
    }
}

/// Writes one `key = value` line of the `[resolved]` table for a float,
/// spelled as `{}` spells it.
fn entry<W: fmt::Write>(w: &mut W, key: &str, value: f64) -> fmt::Result {
    w.write_str(key)?;
    w.write_str(" = ")?;
    write_shortest(w, value)?;
    w.write_char('\n')
}

/// Writes one `key = value` line of the `[resolved]` table for an
/// integer.
fn int_entry<W: fmt::Write>(w: &mut W, key: &str, value: impl fmt::Display) -> fmt::Result {
    writeln!(w, "{key} = {value}")
}

/// Writes one `key = [a, b, …]` line of the `[resolved]` table, each
/// item spelled by `item`.
fn list<W: fmt::Write, T>(
    w: &mut W,
    key: &str,
    items: impl IntoIterator<Item = T>,
    item: impl Fn(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    write!(w, "{key} = [")?;
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        item(w, x)?;
    }
    w.write_str("]\n")
}

fn alpha_list<W: fmt::Write>(w: &mut W, alphas: &[E2oWeight]) -> fmt::Result {
    list(w, "alpha", alphas, |w, a| write_shortest(w, a.get()))
}

fn band_list<W: fmt::Write>(w: &mut W, ranges: &[E2oRange]) -> fmt::Result {
    list(w, "alpha_bands", ranges, |w, r| {
        w.write_char('"')?;
        write_shortest(w, r.center().get())?;
        w.write_char('±')?;
        write_shortest(w, r.half_width())?;
        w.write_char('"')
    })
}

impl CanonicalScenario {
    /// Renders the canonical form: fixed table order, alphabetical keys,
    /// every default spelled out. Two scenario files that resolve to the
    /// same evaluation render identically, whatever their key order or
    /// comments.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = String::with_capacity(512);
        // Writing into a `String` cannot fail.
        let _ = self.write_canonical(&mut out);
        out
    }

    /// The FNV-64 digest of [`CanonicalScenario::canonical_text`] — the
    /// stable identity of the resolved evaluation. The text is streamed
    /// through the digest and never built.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut sink = Fnv64::new();
        // Digesting cannot fail.
        let _ = self.write_canonical(&mut sink);
        sink.finish()
    }

    /// Writes the canonical form (see
    /// [`CanonicalScenario::canonical_text`]) to `w`.
    fn write_canonical<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        w.write_str("[scenario]\n")?;
        writeln!(w, "family = {:?}", self.family.as_str())?;
        writeln!(w, "id = {:?}", self.id)?;
        if let Some(index) = self.index {
            writeln!(w, "index = {index}")?;
        }
        writeln!(w, "kind = {:?}", self.kind.as_str())?;
        if let Some(title) = &self.title {
            writeln!(w, "title = {title:?}")?;
        }
        w.write_str("[resolved]\n")?;
        self.write_resolved(w)
    }

    /// Writes the `key = value` lines of the resolved spec, in key order
    /// (each arm lists its keys sorted; `tests::resolved_keys_are_sorted`
    /// checks every family).
    fn write_resolved<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match &self.spec {
            StudySpec::Wafer {
                wafer,
                defect_density,
                yield_models,
                die_min_mm2,
                die_max_mm2,
                die_steps,
                reference_mm2,
            } => {
                entry(w, "defect_density_per_cm2", defect_density.get_per_cm2())?;
                entry(w, "die_max_mm2", *die_max_mm2)?;
                entry(w, "die_min_mm2", *die_min_mm2)?;
                int_entry(w, "die_steps", die_steps)?;
                entry(w, "reference_mm2", *reference_mm2)?;
                entry(w, "wafer_diameter_mm", wafer.diameter_mm())?;
                list(w, "yield_models", yield_models, |w, &m| {
                    write!(w, "{:?}", yield_spec(m))
                })
            }
            StudySpec::Multicore {
                study,
                bces,
                fs,
                alphas,
            } => {
                alpha_list(w, alphas)?;
                list(w, "bce", bces, |w, b| write!(w, "{b}"))?;
                entry(w, "gamma", study.gamma.get())?;
                list(w, "parallel_fraction", fs, |w, f| {
                    write_shortest(w, f.parallel())
                })?;
                entry(w, "pollack_exponent", study.pollack.exponent())
            }
            StudySpec::Asymmetric {
                study,
                bces,
                fs,
                alphas,
            } => {
                alpha_list(w, alphas)?;
                list(w, "bce", bces, |w, b| write!(w, "{b}"))?;
                entry(w, "big_core_bce", study.big_core_bce)?;
                entry(w, "gamma", study.gamma.get())?;
                list(w, "parallel_fraction", fs, |w, &f| write_shortest(w, f))?;
                entry(w, "pollack_exponent", study.pollack.exponent())
            }
            StudySpec::Accelerator {
                study,
                steps,
                ranges,
            } => {
                band_list(w, ranges)?;
                entry(w, "area_overhead", study.accelerator.area_overhead())?;
                entry(w, "energy_advantage", study.accelerator.energy_advantage())?;
                int_entry(w, "utilization_steps", steps)
            }
            StudySpec::DarkSilicon {
                study,
                steps,
                ranges,
            } => {
                entry(
                    w,
                    "accelerator_area_fraction",
                    study.soc.accelerator_area_fraction(),
                )?;
                band_list(w, ranges)?;
                entry(w, "energy_advantage", study.soc.energy_advantage())?;
                int_entry(w, "utilization_steps", steps)
            }
            StudySpec::Caching {
                study,
                sizes,
                alphas,
            } => {
                alpha_list(w, alphas)?;
                entry(w, "base_mib", study.workload.base_size().mib())?;
                entry(
                    w,
                    "cache_energy_fraction",
                    study.workload.cache_energy_fraction(),
                )?;
                list(w, "llc_mib", sizes, |w, s| write_shortest(w, s.mib()))?;
                entry(
                    w,
                    "memory_energy_fraction",
                    study.workload.memory_energy_fraction(),
                )?;
                entry(w, "miss_exponent", study.workload.miss_model().exponent())?;
                entry(w, "stall_fraction", study.workload.stall_fraction())
            }
            StudySpec::Microarch { alphas } => alpha_list(w, alphas),
            StudySpec::Speculation {
                study,
                steps,
                max_area,
                alphas,
            } => {
                alpha_list(w, alphas)?;
                int_entry(w, "area_steps", steps)?;
                entry(w, "max_predictor_area", *max_area)?;
                entry(w, "predictor_energy_ratio", study.predictor.energy_ratio())?;
                entry(
                    w,
                    "predictor_performance_ratio",
                    study.predictor.performance_ratio(),
                )?;
                entry(w, "runahead_area_overhead", study.runahead.area_overhead)?;
                entry(w, "runahead_energy_ratio", study.runahead.energy_ratio)?;
                entry(
                    w,
                    "runahead_performance_ratio",
                    study.runahead.performance_ratio,
                )
            }
            StudySpec::Dvfs { study } => {
                entry(w, "boost", study.boost)?;
                entry(w, "downscale", study.downscale)?;
                entry(
                    w,
                    "dynamic_power_fraction",
                    study.core.dynamic_power_fraction(),
                )?;
                entry(
                    w,
                    "regulator_area_overhead",
                    study.core.regulator_area_overhead(),
                )?;
                entry(w, "turbo_area_overhead", study.turbo.turbo_area_overhead())
            }
            StudySpec::Gating { study } => {
                entry(w, "gating_area_overhead", study.gating.area_overhead)?;
                entry(w, "gating_energy_ratio", study.gating.energy_ratio)?;
                entry(
                    w,
                    "gating_performance_ratio",
                    study.gating.performance_ratio,
                )
            }
            StudySpec::DieShrink => Ok(()),
            StudySpec::CaseStudy { study, alphas } => {
                alpha_list(w, alphas)?;
                int_entry(w, "base_cores", study.base_cores)?;
                entry(w, "gamma", study.gamma.get())?;
                entry(w, "parallel_fraction", study.f.parallel())
            }
            StudySpec::Taxonomy {
                samples,
                seed,
                jitter,
            } => {
                entry(w, "jitter", *jitter)?;
                int_entry(w, "samples", samples)?;
                int_entry(w, "seed", seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse_scenario;

    fn canon(text: &str) -> Result<CanonicalScenario> {
        canonicalize(&parse_scenario(text, "t.toml")?)
    }

    #[test]
    fn minimal_figure_twin_resolves_paper_defaults() {
        let c =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        match &c.spec {
            StudySpec::Multicore {
                study,
                bces,
                fs,
                alphas,
            } => {
                assert_eq!(*study, MulticoreStudy::default());
                assert_eq!(bces, &focal_studies::multicore::BCE_SWEEP.to_vec());
                assert_eq!(fs, &ParallelFraction::paper_sweep());
                assert_eq!(alphas, &focal_studies::labels::DEFAULT_WEIGHTS.to_vec());
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn explicit_values_match_defaults_bitwise() {
        let explicit = canon(concat!(
            "[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[params]\ngamma = 0.2\npollack_exponent = 0.5\n",
            "[sweep]\nbce = [1, 2, 4, 8, 16, 32]\n",
            "parallel_fraction = [0.5, 0.7, 0.8, 0.9, 0.95]\n",
            "[assumptions]\nalpha = [0.8, 0.2]\n",
        ))
        .unwrap();
        let implicit =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        assert_eq!(explicit.spec, implicit.spec);
        assert_eq!(explicit.canonical_text(), implicit.canonical_text());
        assert_eq!(explicit.digest(), implicit.digest());
    }

    #[test]
    fn kib_normalizes_to_mib() {
        let kib = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"caching\"\n",
            "[sweep]\nllc_kib = [1024, 2048]\n",
        ))
        .unwrap();
        let mib = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"caching\"\n",
            "[sweep]\nllc_mib = [1, 2]\n",
        ))
        .unwrap();
        assert_eq!(kib.spec, mib.spec);
    }

    #[test]
    fn inverted_die_sweep_is_an_error() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"wafer\"\n",
            "[sweep]\ndie_min_mm2 = 800\ndie_max_mm2 = 100\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("die_min_mm2"));
        assert!(e.to_string().contains("inverted"), "{e}");
    }

    #[test]
    fn unused_keys_are_rejected_per_family() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
            "[params]\nstall_fraction = 0.5\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("stall_fraction"));
        assert_eq!(e.line, Some(6));
    }

    #[test]
    fn kind_family_compatibility_is_enforced() {
        let e = canon("[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"dvfs\"\n").unwrap_err();
        assert!(e.to_string().contains("no figure"), "{e}");

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"finding\"\nstudy = \"gating\"\n").unwrap_err();
        assert_eq!(e.key.as_deref(), Some("index"));

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"finding\"\nindex = 9\nstudy = \"gating\"\n")
                .unwrap_err();
        assert!(e.to_string().contains("not produced"), "{e}");

        let e =
            canon("[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"dvfs\"\n").unwrap_err();
        assert!(e.to_string().contains("taxonomy"), "{e}");
    }

    #[test]
    fn act_assumptions_derive_one_alpha() {
        let c = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"microarch\"\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "carbon_intensity = \"world-average\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
        ))
        .unwrap();
        match &c.spec {
            StudySpec::Microarch { alphas } => {
                assert_eq!(alphas.len(), 1);
                let a = alphas.first().map(|a| a.get()).unwrap_or(f64::NAN);
                assert!((0.0..=1.0).contains(&a), "derived alpha {a}");
            }
            other => panic!("wrong spec: {other:?}"),
        }
    }

    #[test]
    fn alpha_and_act_conflict() {
        let e = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"microarch\"\n",
            "[assumptions]\nalpha = [0.8]\n",
            "[assumptions.act]\nnode = \"7nm\"\nlifetime_years = 4\n",
            "carbon_intensity = \"renewable\"\naverage_power_watts = 15\ndie_mm2 = 100\n",
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("act"));
    }

    #[test]
    fn robustness_needs_monte_carlo() {
        let e = canon("[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n")
            .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("monte_carlo"));

        let c = canon(concat!(
            "[scenario]\nid = \"f\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n",
            "[monte_carlo]\nsamples = 64\nseed = 42\njitter = 0.1\n",
        ))
        .unwrap();
        assert_eq!(
            c.spec,
            StudySpec::Taxonomy {
                samples: 64,
                seed: 42,
                jitter: 0.1
            }
        );
    }

    #[test]
    fn canonical_text_is_stable_and_complete() {
        let c =
            canon("[scenario]\nid = \"fig3\"\nkind = \"figure\"\nstudy = \"multicore\"\n").unwrap();
        let text = c.canonical_text();
        assert!(text.starts_with("[scenario]\n"), "{text}");
        assert!(text.contains("family = \"multicore\""), "{text}");
        assert!(text.contains("bce = [1, 2, 4, 8, 16, 32]"), "{text}");
        assert!(text.contains("gamma = 0.2"), "{text}");
        // Keys inside [resolved] are sorted.
        let resolved: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "[resolved]")
            .skip(1)
            .collect();
        let mut sorted = resolved.clone();
        sorted.sort_unstable();
        assert_eq!(resolved, sorted);
    }

    /// One minimal scenario per family, covering every `StudySpec` arm.
    const EVERY_FAMILY: [&str; 13] = [
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"wafer\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"multicore\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"asymmetric\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"accelerator\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"dark-silicon\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"caching\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"microarch\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"speculation\"\n",
        "[scenario]\nid = \"a\"\nkind = \"finding\"\nindex = 14\nstudy = \"dvfs\"\n",
        "[scenario]\nid = \"a\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n",
        "[scenario]\nid = \"a\"\nkind = \"finding\"\nindex = 17\nstudy = \"die-shrink\"\n",
        "[scenario]\nid = \"a\"\nkind = \"figure\"\nstudy = \"case-study\"\n",
        "[scenario]\nid = \"a\"\nkind = \"robustness\"\nstudy = \"taxonomy\"\n\
         [monte_carlo]\nsamples = 64\nseed = 42\njitter = 0.1\n",
    ];

    #[test]
    fn resolved_keys_are_sorted() {
        for text in EVERY_FAMILY {
            let c = canon(text).unwrap();
            let rendered = c.canonical_text();
            let keys: Vec<&str> = rendered
                .lines()
                .skip_while(|l| *l != "[resolved]")
                .skip(1)
                .map(|l| l.split(" = ").next().unwrap_or(l))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{}", c.family.as_str());
            sorted.dedup();
            assert_eq!(keys.len(), sorted.len(), "{}", c.family.as_str());
        }
    }

    #[test]
    fn streamed_digest_matches_the_digest_of_the_text() {
        for text in EVERY_FAMILY {
            let c = canon(text).unwrap();
            assert_eq!(
                c.digest(),
                crate::digest::fnv64(c.canonical_text().as_bytes())
            );
        }
    }

    #[test]
    fn grid_steps_are_bounded_naming_the_key() {
        for (study, key) in [
            ("wafer", "die_steps"),
            ("accelerator", "utilization_steps"),
            ("dark-silicon", "utilization_steps"),
            ("speculation", "area_steps"),
        ] {
            let head = format!("[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"{study}\"\n");
            assert!(canon(&format!("{head}[sweep]\n{key} = {MAX_GRID_STEPS}\n")).is_ok());
            for steps in [MAX_GRID_STEPS + 1, 100_000_000_000] {
                let e = canon(&format!("{head}[sweep]\n{key} = {steps}\n")).unwrap_err();
                assert_eq!(e.key.as_deref(), Some(key));
                assert_eq!(e.line, Some(6));
                assert!(e.to_string().contains("at most 256 grid points"), "{e}");
            }
        }
    }

    #[test]
    fn case_study_core_count_is_bounded_naming_the_key() {
        let text = |cores: u64| {
            format!(
                "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"case-study\"\n\
                 [params]\nbase_cores = {cores}\n"
            )
        };
        assert!(canon(&text(MAX_GRID_STEPS as u64)).is_ok());
        for cores in [MAX_GRID_STEPS as u64 + 1, 100_000_000, 3_000_000_000] {
            let e = canon(&text(cores)).unwrap_err();
            assert_eq!(e.key.as_deref(), Some("base_cores"));
            assert_eq!(e.line, Some(6));
            assert!(e.to_string().contains("at most 256"), "{e}");
        }
    }

    /// Each grouped constructor's family and keys, with a valid value per
    /// key.
    const GROUPS: [(&str, &[(Key, f64)]); 7] = [
        (
            "accelerator",
            &[(Key::AreaOverhead, 0.1), (Key::EnergyAdvantage, 2.0)],
        ),
        (
            "dark-silicon",
            &[
                (Key::AcceleratorAreaFraction, 0.5),
                (Key::EnergyAdvantage, 2.0),
            ],
        ),
        (
            "caching",
            &[
                (Key::StallFraction, 0.5),
                (Key::MemoryEnergyFraction, 0.3),
                (Key::CacheEnergyFraction, 0.1),
            ],
        ),
        (
            "speculation",
            &[
                (Key::PredictorEnergyRatio, 1.0),
                (Key::PredictorPerformanceRatio, 1.0),
            ],
        ),
        (
            "speculation",
            &[
                (Key::RunaheadPerformanceRatio, 1.0),
                (Key::RunaheadEnergyRatio, 1.0),
                (Key::RunaheadAreaOverhead, 0.0),
            ],
        ),
        (
            "dvfs",
            &[
                (Key::DynamicPowerFraction, 0.5),
                (Key::RegulatorAreaOverhead, 0.01),
            ],
        ),
        (
            "gating",
            &[
                (Key::GatingEnergyRatio, 1.0),
                (Key::GatingPerformanceRatio, 1.0),
                (Key::GatingAreaOverhead, 0.0),
            ],
        ),
    ];

    /// A scenario of `family` that accepts every key the family does.
    fn head(family: &str) -> String {
        match family {
            "dvfs" => "[scenario]\nid = \"f\"\nkind = \"finding\"\nindex = 14\nstudy = \"dvfs\"\n"
                .to_string(),
            "gating" => {
                "[scenario]\nid = \"f\"\nkind = \"finding\"\nindex = 16\nstudy = \"gating\"\n"
                    .to_string()
            }
            _ => format!("[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"{family}\"\n"),
        }
    }

    #[test]
    fn a_grouped_constructor_blames_the_key_it_rejects() {
        for (family, keys) in GROUPS {
            let first = u32::try_from(head(family).lines().count()).unwrap_or(0) + 2;
            for &(bad, _) in keys {
                let alone = format!("{}[params]\n{} = -1\n", head(family), bad.name());
                let e = canon(&alone).unwrap_err();
                assert_eq!(e.key.as_deref(), Some(bad.name()), "{family}: {e}");
                assert_eq!(e.line, Some(first), "{family}: {e}");
                for &(good, value) in keys.iter().filter(|(k, _)| *k != bad) {
                    let after = format!(
                        "{}[params]\n{} = {value}\n{} = -1\n",
                        head(family),
                        good.name(),
                        bad.name()
                    );
                    let e = canon(&after).unwrap_err();
                    assert_eq!(e.key.as_deref(), Some(bad.name()), "{family}: {e}");
                    assert_eq!(e.line, Some(first + 1), "{family}: {e}");
                }
            }
        }
    }

    #[test]
    fn a_cross_field_failure_keeps_the_groups_first_key() {
        // Each fraction is valid beside the other's paper value (0.8 and
        // 0.05); only together do they leave no core energy.
        let e = canon(&format!(
            "{}[params]\nmemory_energy_fraction = 0.9\ncache_energy_fraction = 0.15\n",
            head("caching")
        ))
        .unwrap_err();
        assert_eq!(e.key.as_deref(), Some("stall_fraction"), "{e}");
        assert_eq!(e.line, Some(6), "{e}");
        assert!(e.to_string().contains("energy fractions"), "{e}");
    }

    #[test]
    fn every_scalar_key_rejects_minus_one_naming_the_key() {
        use crate::keys::{ValueType, ROWS};
        let mut let_through = Vec::new();
        for row in &ROWS {
            if !matches!(
                row.ty,
                ValueType::Number | ValueType::Steps | ValueType::Integer
            ) {
                continue;
            }
            for family in row.families {
                let mut heads = vec![head(family.as_str())];
                if *family == StudyFamily::Dvfs {
                    heads.push(
                        "[scenario]\nid = \"f\"\nkind = \"finding\"\nindex = 15\nstudy = \"dvfs\"\n"
                            .to_string(),
                    );
                }
                for head in heads {
                    let text = format!("{head}[{}]\n{} = -1\n", row.table.name(), row.name);
                    match canon(&text) {
                        Err(e) if e.key.as_deref() == Some(row.name) => {}
                        other => {
                            let_through.push(format!("{}@{}: {other:?}", row.name, family.as_str()))
                        }
                    }
                }
            }
        }
        assert!(let_through.is_empty(), "{let_through:#?}");
    }

    #[test]
    fn lists_are_bounded_naming_the_key() {
        let at = |len: usize| {
            let items: Vec<String> = (0..len).map(|i| format!("0.{:03}", i + 1)).collect();
            format!("[{}]", items.join(", "))
        };
        let multiples = |len: usize, unit: usize| {
            let items: Vec<String> = (1..=len).map(|i| (i * unit).to_string()).collect();
            format!("[{}]", items.join(", "))
        };
        let sizes = |len: usize| multiples(len, 1);
        let kib_sizes = |len: usize| multiples(len, 1024);
        let models = |len: usize| format!("[{}]", vec!["\"murphy\""; len].join(", "));
        type ListOf<'a> = &'a dyn Fn(usize) -> String;
        let cases: [(&str, &str, &str, ListOf); 7] = [
            ("wafer", "params", "yield_models", &models),
            ("multicore", "sweep", "bce", &sizes),
            ("multicore", "sweep", "parallel_fraction", &at),
            ("caching", "sweep", "llc_mib", &sizes),
            ("caching", "sweep", "llc_kib", &kib_sizes),
            ("microarch", "assumptions", "alpha", &at),
            ("accelerator", "assumptions", "alpha_center", &at),
        ];
        for (study, table, key, list) in cases {
            let extra = if key == "alpha_center" {
                "alpha_half_width = 0.0001\n"
            } else {
                ""
            };
            let text = |len: usize| {
                format!(
                    "[scenario]\nid = \"f\"\nkind = \"figure\"\nstudy = \"{study}\"\n\
                     [{table}]\n{key} = {}\n{extra}",
                    list(len)
                )
            };
            assert!(canon(&text(MAX_LIST_LEN)).is_ok(), "{key}");
            let e = canon(&text(MAX_LIST_LEN + 1)).unwrap_err();
            assert_eq!(e.key.as_deref(), Some(key));
            assert_eq!(e.line, Some(6));
            assert!(e.to_string().contains("at most 32 entries, got 33"), "{e}");
        }
    }
}

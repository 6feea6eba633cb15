//! The scenario keys: one row per `[params]`, `[sweep]` and
//! `[assumptions]` key, giving its table, name, value type and the study
//! families that accept it.
//!
//! The schema reads and type-checks a key through its row, and
//! canonicalization allows and caps it through the same row. Code names
//! a key through [`Key`], whose variants index [`ROWS`], so a misspelt
//! key does not compile. Defaults and value domains are not here: the
//! studies' constructors are their one source.

use crate::schema::StudyFamily;

/// The table a key belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyTable {
    /// `[params]`: family-specific model parameters.
    Params,
    /// `[sweep]`: sweep axes and grids.
    Sweep,
    /// `[assumptions]`: α regimes.
    Assumptions,
}

impl KeyTable {
    /// The tables in the order the schema reads them.
    pub(crate) const ALL: [KeyTable; 3] =
        [KeyTable::Params, KeyTable::Sweep, KeyTable::Assumptions];

    /// The DSL spelling of the table's header.
    pub(crate) fn name(self) -> &'static str {
        match self {
            KeyTable::Params => "params",
            KeyTable::Sweep => "sweep",
            KeyTable::Assumptions => "assumptions",
        }
    }
}

/// A key's value type. It picks the schema's reader, and bounds the
/// value: a grid-point count by [`crate::MAX_GRID_STEPS`] and a list by
/// [`crate::MAX_LIST_LEN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueType {
    /// A finite number.
    Number,
    /// A grid-point count.
    Steps,
    /// A non-negative 32-bit integer.
    Integer,
    /// A list of finite numbers.
    Numbers,
    /// A list of non-negative 32-bit integers.
    Integers,
    /// A list of strings.
    Strings,
}

/// A key's value, of the type its row names.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KeyValue {
    /// [`ValueType::Number`].
    Number(f64),
    /// [`ValueType::Steps`].
    Steps(usize),
    /// [`ValueType::Integer`].
    Integer(u32),
    /// [`ValueType::Numbers`].
    Numbers(Vec<f64>),
    /// [`ValueType::Integers`].
    Integers(Vec<u32>),
    /// [`ValueType::Strings`].
    Strings(Vec<String>),
}

impl KeyValue {
    /// The length of a list value.
    pub(crate) fn list_len(&self) -> Option<usize> {
        match self {
            KeyValue::Numbers(v) => Some(v.len()),
            KeyValue::Integers(v) => Some(v.len()),
            KeyValue::Strings(v) => Some(v.len()),
            KeyValue::Number(_) | KeyValue::Steps(_) | KeyValue::Integer(_) => None,
        }
    }
}

/// One scenario key. Variants are in row order and index [`ROWS`]; that
/// order is also the order keys are type-checked, allowed and capped in,
/// which decides the error an input with several faults gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Key {
    /// Idle-core leakage fraction γ.
    Gamma,
    /// Pollack-rule exponent.
    PollackExponent,
    /// Big-core size in BCEs (asymmetric study).
    BigCoreBce,
    /// Accelerator area overhead (fraction of core area).
    AreaOverhead,
    /// Accelerator energy advantage (core ÷ accelerator energy).
    EnergyAdvantage,
    /// Dark-silicon accelerator estate (fraction of the chip).
    AcceleratorAreaFraction,
    /// Caching: fraction of base time stalled on memory.
    StallFraction,
    /// Caching: fraction of base energy in the memory system.
    MemoryEnergyFraction,
    /// Caching: fraction of base energy in LLC accesses.
    CacheEnergyFraction,
    /// Caching: base LLC size in MiB.
    BaseMib,
    /// Caching: base LLC size in KiB (normalized to MiB).
    BaseKib,
    /// Caching: miss-rate exponent (√2 rule: 0.5).
    MissExponent,
    /// Speculation: branch-predictor energy ratio.
    PredictorEnergyRatio,
    /// Speculation: branch-predictor performance ratio.
    PredictorPerformanceRatio,
    /// Speculation: runahead performance ratio.
    RunaheadPerformanceRatio,
    /// Speculation: runahead energy ratio.
    RunaheadEnergyRatio,
    /// Speculation: runahead area overhead.
    RunaheadAreaOverhead,
    /// DVFS: dynamic share of core power.
    DynamicPowerFraction,
    /// DVFS: voltage-regulator area overhead.
    RegulatorAreaOverhead,
    /// DVFS: turbo-circuitry area overhead.
    TurboAreaOverhead,
    /// DVFS: representative down-scaling point (Finding #14).
    Downscale,
    /// DVFS: representative boost point (Finding #15).
    Boost,
    /// Gating: energy ratio.
    GatingEnergyRatio,
    /// Gating: performance ratio.
    GatingPerformanceRatio,
    /// Gating: area overhead.
    GatingAreaOverhead,
    /// Case study: the parallel fraction f, in `[params]`.
    ParallelFraction,
    /// Case study: old-node core count.
    BaseCores,
    /// Wafer substrate: wafer diameter in mm.
    WaferDiameterMm,
    /// Wafer substrate: defect density in defects/cm².
    DefectDensityPerCm2,
    /// Wafer substrate: yield-model specs (see `YieldModel::parse`).
    YieldModels,
    /// Chip sizes in BCEs.
    Bce,
    /// Parallel fractions swept by the multicore studies, in `[sweep]`.
    ParallelFractions,
    /// LLC sizes in MiB.
    LlcMib,
    /// LLC sizes in KiB (normalized to MiB).
    LlcKib,
    /// Utilization grid points (accelerator / dark-silicon).
    UtilizationSteps,
    /// Predictor-area grid points (speculation).
    AreaSteps,
    /// Largest predictor area as a fraction of the core.
    MaxPredictorArea,
    /// Largest predictor area in percent (normalized to a fraction).
    MaxPredictorAreaPercent,
    /// Smallest die in the Figure 1 sweep, mm².
    DieMinMm2,
    /// Largest die in the Figure 1 sweep, mm².
    DieMaxMm2,
    /// Die-size grid points.
    DieSteps,
    /// Die size the Figure 1 footprints are normalized to, mm².
    ReferenceMm2,
    /// Explicit α weights.
    Alpha,
    /// α band centers (range-based figures).
    AlphaCenter,
    /// α band half-width (shared across the centers).
    AlphaHalfWidth,
}

impl Key {
    /// The key's row.
    pub(crate) fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// The key's DSL spelling.
    pub(crate) fn name(self) -> &'static str {
        self.row().name
    }
}

/// What the DSL knows about one key.
#[derive(Debug)]
pub(crate) struct Row {
    /// The key this row describes; equal to its index in [`ROWS`].
    pub(crate) key: Key,
    /// The table the key belongs to.
    pub(crate) table: KeyTable,
    /// The DSL spelling.
    pub(crate) name: &'static str,
    /// The value type.
    pub(crate) ty: ValueType,
    /// The study families that accept the key.
    pub(crate) families: &'static [StudyFamily],
}

const fn row(
    key: Key,
    table: KeyTable,
    name: &'static str,
    ty: ValueType,
    families: &'static [StudyFamily],
) -> Row {
    Row {
        key,
        table,
        name,
        ty,
        families,
    }
}

/// Every key, in row order. `[assumptions.act]` is allowed exactly where
/// [`Key::Alpha`] is.
#[rustfmt::skip]
pub(crate) static ROWS: [Row; 45] = {
    use KeyTable::{Assumptions, Params, Sweep};
    use StudyFamily::{
        Accelerator, Asymmetric, Caching, CaseStudy, DarkSilicon, Dvfs, Gating, Microarch,
        Multicore, Speculation, Wafer,
    };
    use ValueType::{Integer, Integers, Number, Numbers, Steps, Strings};
    const MULTICORES: &[StudyFamily] = &[Multicore, Asymmetric];
    const BANDED: &[StudyFamily] = &[Accelerator, DarkSilicon];
    const WEIGHTED: &[StudyFamily] =
        &[Multicore, Asymmetric, Caching, Microarch, Speculation, CaseStudy];
    [
        row(Key::Gamma, Params, "gamma", Number, &[Multicore, Asymmetric, CaseStudy]),
        row(Key::PollackExponent, Params, "pollack_exponent", Number, MULTICORES),
        row(Key::BigCoreBce, Params, "big_core_bce", Number, &[Asymmetric]),
        row(Key::AreaOverhead, Params, "area_overhead", Number, &[Accelerator]),
        row(Key::EnergyAdvantage, Params, "energy_advantage", Number, BANDED),
        row(Key::AcceleratorAreaFraction, Params, "accelerator_area_fraction", Number, &[DarkSilicon]),
        row(Key::StallFraction, Params, "stall_fraction", Number, &[Caching]),
        row(Key::MemoryEnergyFraction, Params, "memory_energy_fraction", Number, &[Caching]),
        row(Key::CacheEnergyFraction, Params, "cache_energy_fraction", Number, &[Caching]),
        row(Key::BaseMib, Params, "base_mib", Number, &[Caching]),
        row(Key::BaseKib, Params, "base_kib", Number, &[Caching]),
        row(Key::MissExponent, Params, "miss_exponent", Number, &[Caching]),
        row(Key::PredictorEnergyRatio, Params, "predictor_energy_ratio", Number, &[Speculation]),
        row(Key::PredictorPerformanceRatio, Params, "predictor_performance_ratio", Number, &[Speculation]),
        row(Key::RunaheadPerformanceRatio, Params, "runahead_performance_ratio", Number, &[Speculation]),
        row(Key::RunaheadEnergyRatio, Params, "runahead_energy_ratio", Number, &[Speculation]),
        row(Key::RunaheadAreaOverhead, Params, "runahead_area_overhead", Number, &[Speculation]),
        row(Key::DynamicPowerFraction, Params, "dynamic_power_fraction", Number, &[Dvfs]),
        row(Key::RegulatorAreaOverhead, Params, "regulator_area_overhead", Number, &[Dvfs]),
        row(Key::TurboAreaOverhead, Params, "turbo_area_overhead", Number, &[Dvfs]),
        row(Key::Downscale, Params, "downscale", Number, &[Dvfs]),
        row(Key::Boost, Params, "boost", Number, &[Dvfs]),
        row(Key::GatingEnergyRatio, Params, "gating_energy_ratio", Number, &[Gating]),
        row(Key::GatingPerformanceRatio, Params, "gating_performance_ratio", Number, &[Gating]),
        row(Key::GatingAreaOverhead, Params, "gating_area_overhead", Number, &[Gating]),
        row(Key::ParallelFraction, Params, "parallel_fraction", Number, &[CaseStudy]),
        row(Key::BaseCores, Params, "base_cores", Integer, &[CaseStudy]),
        row(Key::WaferDiameterMm, Params, "wafer_diameter_mm", Number, &[Wafer]),
        row(Key::DefectDensityPerCm2, Params, "defect_density_per_cm2", Number, &[Wafer]),
        row(Key::YieldModels, Params, "yield_models", Strings, &[Wafer]),
        row(Key::Bce, Sweep, "bce", Integers, MULTICORES),
        row(Key::ParallelFractions, Sweep, "parallel_fraction", Numbers, MULTICORES),
        row(Key::LlcMib, Sweep, "llc_mib", Numbers, &[Caching]),
        row(Key::LlcKib, Sweep, "llc_kib", Numbers, &[Caching]),
        row(Key::UtilizationSteps, Sweep, "utilization_steps", Steps, BANDED),
        row(Key::AreaSteps, Sweep, "area_steps", Steps, &[Speculation]),
        row(Key::MaxPredictorArea, Sweep, "max_predictor_area", Number, &[Speculation]),
        row(Key::MaxPredictorAreaPercent, Sweep, "max_predictor_area_percent", Number, &[Speculation]),
        row(Key::DieMinMm2, Sweep, "die_min_mm2", Number, &[Wafer]),
        row(Key::DieMaxMm2, Sweep, "die_max_mm2", Number, &[Wafer]),
        row(Key::DieSteps, Sweep, "die_steps", Steps, &[Wafer]),
        row(Key::ReferenceMm2, Sweep, "reference_mm2", Number, &[Wafer]),
        row(Key::Alpha, Assumptions, "alpha", Numbers, WEIGHTED),
        row(Key::AlphaCenter, Assumptions, "alpha_center", Numbers, BANDED),
        row(Key::AlphaHalfWidth, Assumptions, "alpha_half_width", Number, BANDED),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_sits_at_its_variants_index() {
        for (index, row) in ROWS.iter().enumerate() {
            assert_eq!(row.key as usize, index, "{}", row.name);
            assert!(std::ptr::eq(row.key.row(), row), "{}", row.name);
        }
    }

    #[test]
    fn rows_are_grouped_by_table_in_read_order() {
        let tables: Vec<KeyTable> = ROWS.iter().map(|row| row.table).collect();
        let mut grouped = tables.clone();
        grouped.sort_by_key(|t| KeyTable::ALL.iter().position(|a| a == t));
        assert_eq!(tables, grouped);
    }

    #[test]
    fn names_are_unique_within_a_table() {
        for (i, a) in ROWS.iter().enumerate() {
            for b in ROWS.iter().skip(i + 1) {
                assert!(
                    a.table != b.table || a.name != b.name,
                    "{} twice in [{}]",
                    a.name,
                    a.table.name()
                );
            }
        }
    }
}

//! # focal-scenario — declarative scenario DSL for FOCAL studies
//!
//! A dependency-free TOML-subset front end that compiles declarative
//! scenario files onto the same parameterized entry points the
//! hand-coded study registry uses. The pipeline is:
//!
//! 1. **Parse** ([`toml`]): a line-tracked TOML-subset parser —
//!    tables, scalars, arrays, comments — with structured errors.
//! 2. **Schema** ([`schema`]): typed extraction into a
//!    [`ScenarioDef`], rejecting unknown tables/keys/kinds with the
//!    offending file, line and key. The `[params]`, `[sweep]` and
//!    `[assumptions]` keys are read, allowed and capped through one
//!    table with a row per key.
//! 3. **Canonicalize** ([`canonical`]): defaults resolved from the
//!    studies' own paper constants, units normalized (KiB → MiB,
//!    percent → fraction), cross-field constraints checked, and a
//!    stable canonical rendering digested with FNV-64.
//! 4. **Compile & evaluate** ([`compile`]): lowering onto
//!    `figure*_sweep`/`finding*` entry points so a DSL twin of a paper
//!    figure is byte-identical to its hand-coded oracle, and batch
//!    evaluation on the deterministic engine with `try_par_map` fault
//!    isolation.
//!
//! The `data/scenarios/` directory ships a DSL twin for every figure
//! and finding in the registry; `tests/scenario_oracle.rs` pins the
//! byte-for-byte equivalence at `FOCAL_THREADS=1` and `4`.

pub mod canonical;
pub mod compile;
pub mod digest;
pub mod error;
mod keys;
pub mod schema;
pub mod toml;

pub use canonical::{
    canonicalize, figure_id, finding_indices, CanonicalScenario, StudySpec, MAX_GRID_STEPS,
    MAX_LIST_LEN,
};
pub use compile::{
    evaluate_all_on, evaluate_all_with, load_dir, load_file, CompiledScenario, ScenarioOutput,
};
pub use digest::{digest_entry, fnv64};
pub use error::{Result, ScenarioError};
pub use schema::{parse_scenario, ScenarioDef, ScenarioKind, StudyFamily, MAX_MC_SAMPLES};

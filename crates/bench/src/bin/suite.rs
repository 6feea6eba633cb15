//! Runs the entire FOCAL reproduction — all figures, all findings, the
//! robustness and crossover ablations — in one command.
//!
//! ```sh
//! FOCAL_THREADS=4 cargo run --release -p focal-bench --bin suite
//! ```
//!
//! The JSON summary goes to stdout; the human per-stage timing table goes
//! to stderr. Flags:
//!
//! * `--no-timings` — omit the thread count and per-stage wall-clock from
//!   the JSON, leaving only thread-count-invariant content. CI runs the
//!   suite under `FOCAL_THREADS=1` and `FOCAL_THREADS=4` with this flag
//!   and diffs the outputs byte-for-byte.
//! * `--dump-dir <dir>` — also write the bytes the stages digest: the
//!   figures stage writes each figure's CSV to `<dir>/registry/<fig>.csv`
//!   and, with `--scenarios`, the scenarios stage writes each scenario's
//!   output to `<dir>/scenarios/<id>.csv` (or `.txt` for findings and
//!   robustness). The two corpora are keyed into separate subdirectories
//!   so DSL twins can never clobber the hand-coded dumps they mirror.
//!   Dumping changes no stdout byte, and every file equals the entry
//!   beside it in the report:
//!   - a stage that returns an error or panics writes nothing; a stage
//!     writes only after its NaN/∞ audit has passed;
//!   - a scenario whose evaluation failed is not written;
//!   - a failed write makes its stage `failed`: the stage keeps its
//!     digest entries and gains one `dump-error` entry naming the file
//!     (e.g. `registry/fig1.csv`) and the I/O error, the JSON is still
//!     printed and the suite exits 1;
//!   - a stage's timed `wall_us` includes its writes.
//! * `--samples <n>` — Monte-Carlo samples per robustness run (default:
//!   [`focal_bench::suite::ROBUSTNESS_SAMPLES`]), at most
//!   [`focal_scenario::MAX_MC_SAMPLES`] (2^20); 0 or a larger value exits
//!   2. Any value stays bit-identical across thread counts; large values
//!   make the suite a parallel-speedup benchmark.
//! * `--scenarios <dir>` — evaluate every `*.toml` scenario under
//!   `<dir>` as an additional `scenarios` stage (see DESIGN.md §13).
//! * `--scenarios-only` — with `--scenarios`, skip the hand-coded stages
//!   and run the scenario corpus alone.
//! * `--memo` — thread a sweep memo through the robustness, crossovers
//!   and scenarios stages, so repeated sub-evaluations (notably the
//!   scenario twin of the robustness sweep) are answered from the cache.
//!   Deterministic output is byte-identical with or without this flag;
//!   hit/miss counters appear in the timed JSON and the stderr summary.
//! * `--inject <kind>@<site>:<index>` — run on an engine carrying a
//!   deterministic fault plan (e.g. `panic@figures:3`, `nan@mc:1017`).
//!   The targeted stage degrades to `status: error` with a minimal repro
//!   line; every other stage still runs. The site must be a stage name
//!   or `mc`; any other site could never fire and exits 2. See
//!   DESIGN.md §12.
//!
//! Exits nonzero if any stage fails to reproduce the paper or errors.

use focal_bench::suite::{run_suite_with_options, SuiteOptions, STAGE_NAMES};
use focal_engine::fault::MC_SITE;
use focal_engine::{Engine, FaultPlan};
use focal_report::DumpDir;
use focal_scenario::MAX_MC_SAMPLES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut no_timings = false;
    let mut options = SuiteOptions::default();
    let mut faults: Option<&'static FaultPlan> = None;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--no-timings" => no_timings = true,
            "--dump-dir" if args.get(i + 1).is_some() => {
                i += 1;
                options.dump_dir = args.get(i).map(DumpDir::new);
            }
            "--scenarios" if args.get(i + 1).is_some() => {
                i += 1;
                options.scenarios_dir = args.get(i).map(std::path::PathBuf::from);
            }
            "--scenarios-only" => options.scenarios_only = true,
            "--memo" => options.memo = true,
            "--samples" if args.get(i + 1).is_some() => {
                i += 1;
                options.robustness_samples = match args.get(i).map(|v| v.parse()) {
                    Some(Ok(n)) if (1..=MAX_MC_SAMPLES).contains(&n) => n,
                    _ => {
                        eprintln!("--samples expects an integer from 1 to {MAX_MC_SAMPLES}");
                        std::process::exit(2);
                    }
                };
            }
            "--inject" if args.get(i + 1).is_some() => {
                i += 1;
                let spec = args.get(i).map(String::as_str).unwrap_or_default();
                let sites: Vec<&str> = STAGE_NAMES.into_iter().chain([MC_SITE]).collect();
                match FaultPlan::parse_for(spec, &sites) {
                    Ok(plan) => faults = Some(plan.leak()),
                    Err(e) => {
                        eprintln!("--inject: {e}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` (expected --no-timings, \
                     --dump-dir <dir>, --samples <n>, --inject <spec>, \
                     --scenarios <dir>, --scenarios-only, --memo)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if options.scenarios_only && options.scenarios_dir.is_none() {
        eprintln!("--scenarios-only needs --scenarios <dir>");
        std::process::exit(2);
    }

    let engine = Engine::from_env().with_faults(faults);
    let report = run_suite_with_options(&engine, &options);

    eprintln!("{}", report.human_summary());
    print!("{}", report.to_json(!no_timings));
    std::process::exit(i32::from(!report.ok()));
}

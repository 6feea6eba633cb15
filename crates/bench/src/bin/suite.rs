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
//! * `--dump-dir <dir>` — additionally write every hand-coded figure's
//!   CSV dump to `<dir>/registry/<fig>.csv` and, when `--scenarios` is
//!   given, every scenario's output to `<dir>/scenarios/<id>.csv` (or
//!   `.txt` for findings and robustness). The two corpora are keyed into
//!   separate subdirectories so DSL twins can never clobber the
//!   hand-coded dumps they mirror.
//! * `--samples <n>` — Monte-Carlo samples per robustness run (default:
//!   [`focal_bench::suite::ROBUSTNESS_SAMPLES`]). Any value stays
//!   bit-identical across thread counts; large values make the suite a
//!   parallel-speedup benchmark.
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut no_timings = false;
    let mut dump_dir: Option<&String> = None;
    let mut options = SuiteOptions::default();
    let mut faults: Option<&'static FaultPlan> = None;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--no-timings" => no_timings = true,
            "--dump-dir" if args.get(i + 1).is_some() => {
                i += 1;
                dump_dir = args.get(i);
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
                    Some(Ok(n)) if n > 0 => n,
                    _ => {
                        eprintln!("--samples expects a positive integer");
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

    if let Some(dir) = dump_dir {
        // Hand-coded registry dumps and scenario dumps go through the
        // shared namespaced DumpDir (registry/, scenarios/ — serve/ is
        // reserved for focal-serve transcripts), keyed by figure id and
        // scenario id, so a DSL twin (same id as the figure it mirrors)
        // can never clobber the hand-coded artifact it is compared
        // against.
        let dump = focal_bench::dump::DumpDir::new(dir);
        let skip_registry = options.scenarios_only && options.scenarios_dir.is_some();
        if !skip_registry {
            match focal_studies::all_figures_on(&engine) {
                Ok(figures) => {
                    for fig in figures {
                        if let Err(e) = dump.write_registry(fig.id, &fig.to_csv()) {
                            eprintln!("error: failed to dump figure '{}': {e}", fig.id);
                            std::process::exit(1);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: figure dump skipped: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(scenarios_src) = &options.scenarios_dir {
            match focal_scenario::load_dir(scenarios_src) {
                Ok(scenarios) => {
                    for scenario in &scenarios {
                        let output = match scenario.evaluate_on(&engine, None) {
                            Ok(output) => output,
                            Err(e) => {
                                eprintln!("error: scenario '{}' dump skipped: {e}", scenario.id());
                                std::process::exit(1);
                            }
                        };
                        let ext = match output {
                            focal_scenario::ScenarioOutput::Figure(_) => "csv",
                            _ => "txt",
                        };
                        if let Err(e) = dump.write_scenario(scenario.id(), ext, &output.to_bytes())
                        {
                            eprintln!("error: failed to dump scenario '{}': {e}", scenario.id());
                            std::process::exit(1);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: scenario dump skipped: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    eprintln!("{}", report.human_summary());
    print!("{}", report.to_json(!no_timings));
    std::process::exit(i32::from(!report.ok()));
}

//! `focal-perfbench` — the repository benchmark.
//!
//! Drives the real `focal-serve` binary over TCP and the real `suite`
//! binary as child processes, checks every output byte against an
//! in-process reference, and with `--trace 1` also replays the same
//! seeded stream in-process through a span-instrumented mirror of
//! `ServeCore` to split the time by layer. `perfbench/run.sh` builds
//! everything and runs it:
//!
//! ```text
//! bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to stderr.
//! `perfbench/README.md` describes the workloads and every metric.

mod gen;
mod mirror;
mod net;
mod rng;
mod serve;
mod stats;
mod suite;
mod trace;

use mirror::FAMILIES;
use std::path::PathBuf;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("evals_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units; one
/// `studies.evaluate_us.<family>` per study family follows. A layer the
/// workload never enters reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("proto.parse_us", "us"),
    ("proto.render_us", "us"),
    ("cache.text_lookup_us", "us"),
    ("cache.digest_lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.entries", "count"),
    ("cache.text_hit_frac", "fraction"),
    ("cache.digest_hit_frac", "fraction"),
    ("cache.miss_frac", "fraction"),
    ("scenario.toml_us", "us"),
    ("scenario.schema_us", "us"),
    ("scenario.canonicalize_us", "us"),
    ("scenario.digest_us", "us"),
    ("studies.evaluate_us", "us"),
    ("render.output_us", "us"),
    ("render.output_bytes", "bytes"),
    ("engine.fanout_us", "us"),
    ("service.handle_us", "us"),
    ("transport.us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("studies.figures_ms", "ms"),
    ("studies.findings_ms", "ms"),
    ("core.robustness_ms", "ms"),
    ("core.mc_ns_per_sample", "ns"),
    ("core.crossovers_ms", "ms"),
    ("wafer.defect_sim_ms", "ms"),
    ("scenario.corpus_ms", "ms"),
    ("engine.speedup", "ratio"),
    ("trace.overhead_frac", "fraction"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| *s > 0.0);
                seconds = Some(s.ok_or_else(|| bad("a positive number"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

/// A finished run: the check results and the measured metrics by name.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    args.bin_dir
        .join("perfbench")
        .join(format!("spans-{}.tsv", args.workload))
}

/// The result line: every metric of the run's kind, in table order. An
/// end-to-end metric the run could not measure (latency of a saturated
/// open loop) is left out; an untouched layer reads 0.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let families: Vec<(String, &str)> = FAMILIES
        .iter()
        .map(|f| (format!("studies.evaluate_us.{f}"), "us"))
        .collect();
    let table: Vec<(String, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(families)
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let measured = outcome.metrics.iter().find(|(n, _)| n == name);
            let value = match measured {
                Some((_, v)) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => return None,
            };
            Some(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in clock ticks; reported on stderr to explain a slow run.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

fn main() {
    let steal_before = steal_ticks();
    let result = parse_args().and_then(|args| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!(
            "perfbench: {} seed {} seconds {} trace {} on {threads} hardware threads",
            args.workload, args.seed, args.seconds, args.trace
        );
        let outcome = match args.workload.as_str() {
            "explore-cold" => serve::run(&serve::EXPLORE_COLD, &args, threads),
            "replay-warm" => serve::run(&serve::REPLAY_WARM, &args, threads),
            "suite-batch" => suite::run(&args, threads),
            other => Err(format!(
                "unknown workload `{other}` (explore-cold, replay-warm, suite-batch)"
            )),
        }?;
        Ok(result_line(&outcome, args.trace))
    });
    if let (Some(before), Some(after)) = (steal_before, steal_ticks()) {
        eprintln!(
            "perfbench: {} clock ticks stolen by the host during the run",
            after.saturating_sub(before)
        );
    }
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

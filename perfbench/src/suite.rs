//! The suite-batch workload: the real `suite` binary run back to back,
//! and the traced timing of the suite's public stage entry points.

use crate::stats::{lower_quartile, median, per_window, percentile};
use crate::trace::{Layer, Tracer};
use crate::{Args, Outcome};
use focal_bench::suite::{
    run_suite_with_options, SuiteOptions, DEFECT_SIM_DENSITY, DEFECT_SIM_SEED, DEFECT_SIM_WAFERS,
    ROBUSTNESS_JITTER, ROBUSTNESS_SAMPLES, ROBUSTNESS_SEED,
};
use focal_core::{DesignPoint, E2oRange, ModelError, MonteCarloNcf, Scenario};
use focal_engine::Engine;
use focal_studies::robustness::verdict_robustness_on;
use focal_wafer::{DefectDistribution, DefectSimulator, DiePlacement, Wafer};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const CORPUS: &str = "data/scenarios";

/// Untimed suite runs at set-up; their median is `setup_s`.
const SETUP_RUNS: usize = 3;

/// Consecutive suite runs per window for `latency_p99_us` (a few hundred
/// runs fit in one measurement).
const TAIL_WINDOW: usize = 100;

/// Repetitions of each traced stage call; medians are reported.
const TRACE_REPS: usize = 9;

/// One `suite --no-timings --scenarios data/scenarios` process: wall
/// time from launch to exit, and its stdout when it exited cleanly.
fn run_once(bin: &Path, threads: usize) -> Result<(Duration, Option<Vec<u8>>), String> {
    let started = Instant::now();
    let out = Command::new(bin)
        .args(["--no-timings", "--scenarios", CORPUS])
        .env("FOCAL_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let wall = started.elapsed();
    Ok((wall, out.status.success().then_some(out.stdout)))
}

/// Peak resident set of the largest child process reaped so far, in kB
/// (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_kb() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // C `struct rusage` on this target, and `getrusage` writes only it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then_some(usage.maxrss as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_kb() -> Option<u64> {
    None
}

/// Runs the suite `SETUP_RUNS` times untimed, then back to back for
/// `--seconds`. A run fails when it exits nonzero or its stdout differs
/// from the first run's. The suite's inputs are fixed, so the seed
/// changes nothing here.
pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let bin = args.bin_dir.join("suite");
    let mut reference: Option<Vec<u8>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut run_checked = || -> Result<Duration, String> {
        let (wall, stdout) = run_once(&bin, threads)?;
        attempted += 1;
        match (stdout, &reference) {
            (None, _) => failed += 1,
            (Some(out), None) => reference = Some(out),
            (Some(out), Some(first)) => failed += u64::from(&out != first),
        }
        Ok(wall)
    };
    let setup = (0..SETUP_RUNS)
        .map(|_| run_checked().map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut walls: Vec<u64> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget {
        walls.push(run_checked()?.as_nanos() as u64);
    }
    let elapsed = started.elapsed();
    let peak_rss_kb = children_peak_rss_kb().ok_or("getrusage failed")?;
    eprintln!(
        "perfbench: {attempted} suite runs ({} timed) in {elapsed:.3?}, {failed} failed; \
         peak RSS {peak_rss_kb} kB",
        walls.len()
    );
    let metrics = if args.trace {
        let mut tracer = Tracer::new();
        let metrics = trace_stages(threads, &mut tracer)?;
        tracer
            .write(&crate::spans_path(args), &crate::mirror::FAMILIES)
            .map_err(|e| format!("write spans: {e}"))?;
        metrics
    } else {
        // As for the serve workloads, stolen CPU time only ever slows some
        // windows of runs down, so the tail is the first quartile over
        // windows.
        vec![
            (
                "evals_per_s".into(),
                walls.len() as f64 / elapsed.as_secs_f64(),
            ),
            ("latency_p50_us".into(), percentile(&walls, 50.0) / 1e3),
            (
                "latency_p99_us".into(),
                lower_quartile(&per_window(&walls, TAIL_WINDOW, 99.0)) / 1e3,
            ),
            ("setup_s".into(), median(&setup)),
            ("peak_rss_mb".into(), peak_rss_kb as f64 / 1024.0),
        ]
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Calls each stage entry point the suite runs, with the suite's
/// published constants, `TRACE_REPS` times inside spans; the same
/// sequence also runs without spans, and the two totals give the
/// tracing overhead. The crossover mechanism list is private to the
/// suite, so that stage's time is read from the public `SuiteReport`.
fn trace_stages(threads: usize, tracer: &mut Tracer) -> Result<Vec<(String, f64)>, String> {
    let engine = Engine::with_threads(threads);
    let serial = Engine::serial();
    let err = |e: ModelError| e.to_string();
    let corpus = Path::new(CORPUS);
    let placement = DiePlacement::square(10.0);
    let simulators = [
        DefectSimulator::new(Wafer::W300MM, DefectDistribution::Uniform, DEFECT_SIM_SEED),
        DefectSimulator::new(
            Wafer::W300MM,
            DefectDistribution::Clustered {
                mean_cluster_size: 8.0,
                cluster_radius_mm: 2.0,
            },
            DEFECT_SIM_SEED,
        ),
    ];
    let stage = |layer: Layer, engine: &Engine| -> Result<(), String> {
        match layer {
            Layer::Figures => {
                black_box(focal_studies::all_figures_on(engine).map_err(err)?);
            }
            Layer::Findings => {
                black_box(focal_studies::all_findings_on(engine).map_err(err)?);
            }
            Layer::Robustness => {
                black_box(
                    verdict_robustness_on(
                        engine,
                        ROBUSTNESS_JITTER,
                        ROBUSTNESS_SAMPLES,
                        ROBUSTNESS_SEED,
                    )
                    .map_err(err)?,
                );
            }
            Layer::DefectSim => {
                for sim in &simulators {
                    black_box(
                        sim.run(&placement, DEFECT_SIM_DENSITY, DEFECT_SIM_WAFERS)
                            .map_err(err)?,
                    );
                }
            }
            Layer::Corpus => {
                let scenarios = focal_scenario::load_dir(corpus).map_err(|e| e.to_string())?;
                black_box(focal_scenario::evaluate_all_on(engine, &scenarios).map_err(err)?);
            }
            other => return Err(format!("{} is not a suite stage", other.name())),
        }
        Ok(())
    };
    let layers = [
        Layer::Figures,
        Layer::Findings,
        Layer::Robustness,
        Layer::DefectSim,
        Layer::Corpus,
    ];
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut serial_robustness = Vec::new();
    for _ in 0..TRACE_REPS {
        let started = Instant::now();
        for layer in layers {
            stage(layer, &engine)?;
        }
        untraced.push(ms(started.elapsed()));

        let root = tracer.begin(Layer::Batch);
        for (i, layer) in layers.into_iter().enumerate() {
            let s = tracer.begin(layer);
            stage(layer, &engine)?;
            tracer.end(s);
            let span = tracer.spans[s as usize];
            per_layer[i].push((span.end - span.start) as f64 / 1e6);
        }
        tracer.end(root);
        let span = tracer.spans[root as usize];
        traced.push((span.end - span.start) as f64 / 1e6);

        let started = Instant::now();
        stage(Layer::Robustness, &serial)?;
        serial_robustness.push(ms(started.elapsed()));
    }

    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).map_err(err)?;
    let y = DesignPoint::reference();
    let mc = MonteCarloNcf::new(E2oRange::FULL, ROBUSTNESS_JITTER, ROBUSTNESS_SEED).map_err(err)?;
    let mut per_sample = Vec::new();
    for _ in 0..TRACE_REPS {
        let started = Instant::now();
        black_box(
            mc.sample_values_on(&serial, &x, &y, Scenario::FixedWork, ROBUSTNESS_SAMPLES)
                .map_err(err)?,
        );
        per_sample.push(started.elapsed().as_nanos() as f64 / ROBUSTNESS_SAMPLES as f64);
    }

    let options = SuiteOptions {
        scenarios_dir: Some(corpus.to_path_buf()),
        ..SuiteOptions::default()
    };
    let mut crossovers = Vec::new();
    for _ in 0..TRACE_REPS {
        let report = run_suite_with_options(&engine, &options);
        let stage = report
            .stages
            .iter()
            .find(|s| s.name == "crossovers")
            .ok_or("the suite report has no crossovers stage")?;
        crossovers.push(stage.wall_us as f64 / 1e3);
    }

    let robustness_ms = median(&per_layer[2]);
    Ok(vec![
        ("studies.figures_ms".into(), median(&per_layer[0])),
        ("studies.findings_ms".into(), median(&per_layer[1])),
        ("core.robustness_ms".into(), robustness_ms),
        ("core.mc_ns_per_sample".into(), median(&per_sample)),
        ("core.crossovers_ms".into(), median(&crossovers)),
        ("wafer.defect_sim_ms".into(), median(&per_layer[3])),
        ("scenario.corpus_ms".into(), median(&per_layer[4])),
        (
            "engine.speedup".into(),
            median(&serial_robustness) / robustness_ms,
        ),
        (
            "trace.overhead_frac".into(),
            median(&traced) / median(&untraced) - 1.0,
        ),
    ])
}

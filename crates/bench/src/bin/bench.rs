//! The workspace microbenchmark harness: times the named model kernels
//! and writes `BENCH.json`, the machine-readable perf trajectory CI
//! archives on every run.
//!
//! ```sh
//! cargo run --release -p focal-bench --bin bench
//! ```
//!
//! Flags:
//!
//! * `--smoke` — run every kernel exactly once instead of
//!   calibrated median-of-5 trials (CI's fast schema check).
//! * `--out <path>` — where to write the JSON (default `BENCH.json`).
//! * `--check-speedup` — exit nonzero unless the spatial-index defect
//!   kernel beats the retained naive reference by ≥ 5× at the
//!   `square(10 mm)` / 0.2 defects·cm⁻² acceptance configuration.
//!
//! The human-readable table goes to stderr; only file I/O touches disk.

use focal_bench::micro::{Measurement, MicroBench};
use focal_bench::suite::{run_suite, DEFECT_SIM_DENSITY, DEFECT_SIM_SEED};
use focal_core::{
    mc_kernel_isa, DesignPoint, E2oRange, E2oWeight, MonteCarloNcf, Ncf, Scenario, SiliconArea,
    SweepMemo, MC_CHUNK_SAMPLES, MC_GROUP_CHUNKS,
};
use focal_engine::Engine;
use focal_perf::{LeakageFraction, ParallelFraction, PollackRule, SymmetricMulticore};
use focal_report::{detect_git_rev, to_bench_json, BenchRecord};
use focal_wafer::{
    DefectDensity, DefectDistribution, DefectSimulator, DiePlacement, Wafer, YieldModel,
};
use std::fmt::Write as _;
use std::hint::black_box;

/// The speedup the spatial-index kernel must show over the naive
/// reference under `--check-speedup`.
const MIN_DEFECT_SIM_SPEEDUP: f64 = 5.0;

/// The speedup the SoA Monte-Carlo kernel must show over the pinned
/// scalar oracle under `--check-speedup`, by dispatched ISA. The
/// interleaved layout needs 4-wide 64-bit vectors to pay off; below
/// AVX-512 the full 2× is not reachable, so the gate steps down
/// (AVX2) or is waived (pure scalar dispatch — the kernels are then
/// the same loop).
fn min_mc_kernel_speedup(isa: &str) -> Option<f64> {
    match isa {
        "avx512" => Some(2.0),
        "avx2" => Some(1.2),
        _ => None,
    }
}

/// The speedup a warm memoized sweep must show over its cold twin under
/// `--check-speedup`.
const MIN_SWEEP_MEMO_SPEEDUP: f64 = 5.0;

/// Monte-Carlo sample count for the kernel gate: 16 chunks — two full
/// lockstep units — so the vector path dominates the measurement.
const MC_GATE_SAMPLES: usize = 2 * MC_GROUP_CHUNKS * MC_CHUNK_SAMPLES;

/// Wafers per defect-sim benchmark operation: enough to amortize the
/// index build without inflating a single op into seconds.
const BENCH_WAFERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut check_speedup = false;
    let mut out_path = "BENCH.json".to_string();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check-speedup" => check_speedup = true,
            "--out" if args.get(i + 1).is_some() => {
                i += 1;
                if let Some(p) = args.get(i) {
                    out_path.clone_from(p);
                }
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (expected --smoke, --check-speedup, --out <path>)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let bench = if smoke {
        MicroBench::smoke()
    } else {
        MicroBench::standard()
    };
    let engine = Engine::from_env();
    let threads = engine.threads();
    let rev = detect_git_rev();

    let mut records: Vec<BenchRecord> = Vec::new();
    let add = |records: &mut Vec<BenchRecord>, kernel: &str, m: Measurement| {
        eprintln!("  {kernel:<40} {:>14.1} ns/op  (x{})", m.ns_per_op, m.iters);
        records.push(BenchRecord {
            kernel: kernel.to_string(),
            ns_per_op: m.ns_per_op,
            iters: m.iters,
            threads,
            git_rev: rev.clone(),
        });
    };
    eprintln!(
        "focal-bench microbenchmarks ({} thread(s), git {rev}):",
        threads
    );

    // The NCF and classification kernels every figure point runs.
    let ncf_x = DesignPoint::from_power_perf(1.39, 2.32, 1.75)?;
    let y = DesignPoint::reference();
    add(
        &mut records,
        "ncf/evaluate",
        bench.measure(|| {
            let _ = black_box(Ncf::evaluate(
                black_box(&ncf_x),
                black_box(&y),
                Scenario::FixedWork,
                E2oWeight::EMBODIED_DOMINATED,
            ));
        }),
    );
    add(
        &mut records,
        "ncf/classify",
        bench.measure(|| {
            let _ = black_box(focal_core::classify(
                black_box(&ncf_x),
                black_box(&y),
                E2oWeight::EMBODIED_DOMINATED,
            ));
        }),
    );

    // One Woo–Lee symmetric-multicore design point (Figure 3's kernel).
    let parallel = ParallelFraction::new(0.95)?;
    add(
        &mut records,
        "multicore/woo_lee_32",
        bench.measure(|| {
            let _ = black_box(SymmetricMulticore::unit_cores(32).and_then(|m| {
                m.design_point(
                    black_box(parallel),
                    LeakageFraction::PAPER,
                    PollackRule::CLASSIC,
                )
            }));
        }),
    );

    // Closed-form wafer math at 100 mm² (Figure 1's kernels).
    let die100 = SiliconArea::from_mm2(100.0)?;
    add(
        &mut records,
        "wafer/chips_de_vries",
        bench.measure(|| {
            let _ = black_box(Wafer::W300MM.chips_de_vries(black_box(die100)));
        }),
    );
    add(
        &mut records,
        "wafer/murphy_yield",
        bench.measure(|| {
            let _ = black_box(
                YieldModel::Murphy.fraction_good(black_box(die100), DefectDensity::TSMC_VOLUME),
            );
        }),
    );

    // Exact die-placement counter.
    let placement10 = DiePlacement::square(10.0);
    for (kernel, placement) in [
        ("chips_exact/square10mm", &placement10),
        ("chips_exact/square20mm", &DiePlacement::square(20.0)),
    ] {
        add(
            &mut records,
            kernel,
            bench.measure(|| {
                let _ = black_box(Wafer::W300MM.chips_exact(black_box(placement)));
            }),
        );
    }

    // Defect simulator: uniform and clustered at three die sizes, plus
    // the naive reference at the acceptance configuration.
    let uniform = DefectSimulator::new(Wafer::W300MM, DefectDistribution::Uniform, DEFECT_SIM_SEED);
    let clustered = DefectSimulator::new(
        Wafer::W300MM,
        DefectDistribution::Clustered {
            mean_cluster_size: 8.0,
            cluster_radius_mm: 2.0,
        },
        DEFECT_SIM_SEED,
    );
    for side in [10.0f64, 20.0, 28.0] {
        let placement = DiePlacement::square(side);
        // Surface configuration errors once, outside the timed loop.
        uniform.run(&placement, DEFECT_SIM_DENSITY, 1)?;
        add(
            &mut records,
            &format!("defect_sim/uniform/die{side:.0}mm"),
            bench.measure(|| {
                let _ =
                    black_box(uniform.run(black_box(&placement), DEFECT_SIM_DENSITY, BENCH_WAFERS));
            }),
        );
    }
    for side in [10.0f64, 20.0] {
        let placement = DiePlacement::square(side);
        clustered.run(&placement, DEFECT_SIM_DENSITY, 1)?;
        add(
            &mut records,
            &format!("defect_sim/clustered/die{side:.0}mm"),
            bench.measure(|| {
                let _ = black_box(clustered.run(
                    black_box(&placement),
                    DEFECT_SIM_DENSITY,
                    BENCH_WAFERS,
                ));
            }),
        );
    }
    add(
        &mut records,
        "defect_sim/naive/die10mm",
        bench.measure(|| {
            let _ = black_box(uniform.run_reference(
                black_box(&placement10),
                DEFECT_SIM_DENSITY,
                BENCH_WAFERS,
            ));
        }),
    );

    // One Monte-Carlo NCF chunk on the serial engine: the per-sample
    // kernel cost without pool scheduling in the way.
    let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1)?;
    let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 42)?;
    let serial = Engine::serial();
    add(
        &mut records,
        "monte_carlo_ncf/chunk4096",
        bench.measure(|| {
            let _ = black_box(mc.run_on(
                &serial,
                black_box(&x),
                black_box(&y),
                Scenario::FixedWork,
                MC_CHUNK_SAMPLES,
                None,
            ));
        }),
    );

    // Whole Monte-Carlo NCF runs (sampling, sort and summary) on the
    // configured engine.
    for samples in [1_000usize, 10_000, 100_000] {
        add(
            &mut records,
            &format!("monte_carlo_ncf/{samples}"),
            bench.measure(|| {
                let _ = black_box(mc.run_on(
                    &engine,
                    black_box(&x),
                    black_box(&y),
                    Scenario::FixedWork,
                    samples,
                    None,
                ));
            }),
        );
    }

    // The SoA kernel gate pair: sample *generation* only (the sort and
    // summary are identical work on both sides and would dilute the
    // kernel ratio). Measured serial and within this one process with a
    // calibrated policy even under --smoke — single-shot timings on a
    // shared box are too noisy to gate a 2× threshold on.
    let gate_bench = if smoke {
        MicroBench {
            target_trial_ns: 5_000_000,
            trials: 3,
            fixed_iters: None,
        }
    } else {
        MicroBench::standard()
    };
    add(
        &mut records,
        "mc_kernel/soa",
        gate_bench.measure(|| {
            let _ = black_box(mc.sample_values_on(
                &serial,
                black_box(&x),
                black_box(&y),
                Scenario::FixedWork,
                MC_GATE_SAMPLES,
            ));
        }),
    );
    add(
        &mut records,
        "mc_kernel/scalar",
        gate_bench.measure(|| {
            let _ = black_box(mc.sample_values_scalar_on(
                &serial,
                black_box(&x),
                black_box(&y),
                Scenario::FixedWork,
                MC_GATE_SAMPLES,
            ));
        }),
    );

    // The memoized-sweep gate pair: the taxonomy robustness sweep run
    // cold (fresh memo every op, so every Monte-Carlo experiment is a
    // miss) vs warm (one pre-populated memo reused every op, so every
    // experiment is a lookup). Same calibrated policy as the kernel gate.
    let memo_sweep = |memo: &mut SweepMemo| {
        focal_studies::robustness::verdict_robustness_with(
            &serial,
            0.1,
            MC_CHUNK_SAMPLES,
            42,
            Some(memo),
        )
    };
    add(
        &mut records,
        "sweep_memo/cold",
        gate_bench.measure(|| {
            let mut memo = SweepMemo::new();
            let _ = black_box(memo_sweep(black_box(&mut memo)));
        }),
    );
    let mut warm_memo = SweepMemo::new();
    memo_sweep(&mut warm_memo)?;
    add(
        &mut records,
        "sweep_memo/warm",
        gate_bench.measure(|| {
            let _ = black_box(memo_sweep(black_box(&mut warm_memo)));
        }),
    );

    // Every paper figure and finding, end to end on the configured
    // engine, then each registry entry alone, plus Figure 1's trendline
    // fits.
    let figures = focal_studies::all_figures_on(&engine)?;
    add(
        &mut records,
        "all_figures",
        bench.measure(|| {
            let _ = black_box(focal_studies::all_figures_on(black_box(&engine)));
        }),
    );
    add(
        &mut records,
        "all_findings",
        bench.measure(|| {
            let _ = black_box(focal_studies::all_findings_on(black_box(&engine)));
        }),
    );
    for entry in focal_studies::builtin_registry() {
        add(
            &mut records,
            &format!("registry/{}", entry.id),
            bench.measure(|| {
                let _ = black_box(black_box(&entry).build());
            }),
        );
    }
    add(
        &mut records,
        "fig1/trendlines",
        bench.measure(|| {
            let _ = black_box(focal_studies::wafer_figure::figure1_trendlines());
        }),
    );

    // Float formatting, per number, on what a cold request renders:
    // every figure cell through `{}` and every finding metric through
    // `{:.4}`, against core's own formatting of the same values. Ungated;
    // each pair's ratio is the in-repo formatter's speedup.
    let cells: Vec<f64> = figures
        .iter()
        .flat_map(|f| &f.panels)
        .flat_map(|p| &p.series)
        .flat_map(|s| &s.points)
        .flat_map(|p| [p.performance, p.ncf])
        .collect();
    let metrics: Vec<f64> = focal_studies::all_findings_on(&engine)?
        .iter()
        .flat_map(|f| &f.metrics)
        .flat_map(|m| [m.paper, m.measured])
        .collect();
    let mut text = String::with_capacity(32 * cells.len());
    let mut format_kernel = |kernel: &str, values: &[f64], write: fn(&mut String, f64)| {
        let m = bench.measure(|| {
            text.clear();
            for &v in values {
                write(&mut text, black_box(v));
            }
            black_box(&text);
        });
        let per_number = Measurement {
            ns_per_op: m.ns_per_op / values.len().max(1) as f64,
            ..m
        };
        add(&mut records, kernel, per_number);
    };
    format_kernel("float_fmt/shortest/figure_cells", &cells, |s, v| {
        let _ = focal_report::write_shortest(s, v);
    });
    format_kernel("float_fmt/core_display/figure_cells", &cells, |s, v| {
        let _ = write!(s, "{v}");
    });
    format_kernel("float_fmt/fixed4/finding_metrics", &metrics, |s, v| {
        let _ = focal_report::write_fixed(s, v, 4);
    });
    format_kernel("float_fmt/core_fixed4/finding_metrics", &metrics, |s, v| {
        let _ = write!(s, "{v:.4}");
    });

    // Suite stages ride along from one instrumented run (iters = 1):
    // their wall-clocks are the coarse end of the trajectory.
    let report = run_suite(&engine);
    for stage in &report.stages {
        add(
            &mut records,
            &format!("suite/{}", stage.name),
            Measurement {
                ns_per_op: stage.wall_us as f64 * 1000.0,
                iters: 1,
                trials: 1,
            },
        );
    }

    // The acceptance gate: spatial index vs retained naive reference.
    let fast = records
        .iter()
        .find(|r| r.kernel == "defect_sim/uniform/die10mm")
        .map(|r| r.ns_per_op);
    let naive = records
        .iter()
        .find(|r| r.kernel == "defect_sim/naive/die10mm")
        .map(|r| r.ns_per_op);
    let speedup = match (fast, naive) {
        (Some(f), Some(n)) if f > 0.0 => n / f,
        _ => 0.0,
    };
    eprintln!(
        "defect-sim spatial index vs naive reference at square(10mm)/{DEFECT_SIM_DENSITY} \
         defects/cm^2: {speedup:.1}x"
    );

    // The SoA kernel gate: vector kernel vs pinned scalar oracle, with
    // the threshold picked by the ISA the kernel dispatched to.
    let ns_of = |records: &[BenchRecord], kernel: &str| {
        records
            .iter()
            .find(|r| r.kernel == kernel)
            .map(|r| r.ns_per_op)
    };
    let isa = mc_kernel_isa();
    let mc_speedup = match (
        ns_of(&records, "mc_kernel/soa"),
        ns_of(&records, "mc_kernel/scalar"),
    ) {
        (Some(soa), Some(scalar)) if soa > 0.0 => scalar / soa,
        _ => 0.0,
    };
    eprintln!(
        "mc-kernel SoA vs scalar oracle at {MC_GATE_SAMPLES} samples ({isa} dispatch): \
         {mc_speedup:.2}x"
    );

    // The memoized-sweep gate: warm (fully cached) vs cold repeat of the
    // same robustness sweep.
    let memo_speedup = match (
        ns_of(&records, "sweep_memo/cold"),
        ns_of(&records, "sweep_memo/warm"),
    ) {
        (Some(cold), Some(warm)) if warm > 0.0 => cold / warm,
        _ => 0.0,
    };
    eprintln!("sweep-memo warm vs cold robustness sweep: {memo_speedup:.1}x");

    if let Err(e) = std::fs::write(&out_path, to_bench_json(&records)) {
        eprintln!("error: failed to write '{out_path}': {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} kernel records to {out_path}", records.len());

    let mut failed = false;
    if check_speedup && speedup < MIN_DEFECT_SIM_SPEEDUP {
        eprintln!(
            "FAILED: defect-sim speedup {speedup:.1}x is below the required \
             {MIN_DEFECT_SIM_SPEEDUP}x"
        );
        failed = true;
    }
    if check_speedup {
        match min_mc_kernel_speedup(isa) {
            Some(min) if mc_speedup < min => {
                eprintln!(
                    "FAILED: mc-kernel speedup {mc_speedup:.2}x is below the required \
                     {min}x at {isa} dispatch"
                );
                failed = true;
            }
            Some(_) => {}
            None => {
                eprintln!("note: mc-kernel gate waived (scalar dispatch — no vector ISA available)")
            }
        }
        if memo_speedup < MIN_SWEEP_MEMO_SPEEDUP {
            eprintln!(
                "FAILED: sweep-memo speedup {memo_speedup:.1}x is below the required \
                 {MIN_SWEEP_MEMO_SPEEDUP}x"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

//! The dependency-free micro-benchmark harness behind the `bench` binary.
//!
//! Each kernel is timed over the monotonic [`std::time::Instant`] clock:
//! a calibration pass over warm, doubling batches sizes the per-trial
//! iteration count so one trial runs long enough to dwarf timer
//! resolution, then the harness reports the **median of k trials** in
//! ns/op — robust against one-off scheduler hiccups. The `bench` binary
//! serializes the results through [`focal_report::to_bench_json`] to
//! `BENCH.json`, the first point of the repo's performance trajectory
//! (one record per kernel: `{kernel, ns_per_op, iters, threads,
//! git_rev}`), which CI regenerates and archives on every run.

use std::time::Instant;

/// Calibration stops doubling its batch once the batch fills
/// `1 / CALIBRATION_SHARE` of the target trial.
const CALIBRATION_SHARE: u128 = 10;

/// The most iterations one trial (or calibration batch) runs.
const MAX_ITERS: u64 = 100_000_000;

/// The result of measuring one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median nanoseconds per operation across the trials.
    pub ns_per_op: f64,
    /// Iterations each timed trial ran.
    pub iters: u64,
    /// Number of timed trials the median was taken over.
    pub trials: usize,
}

/// Measurement policy: how long each trial should run and how many
/// trials feed the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroBench {
    /// Target wall-clock per timed trial, in nanoseconds (calibration
    /// picks the iteration count to hit it).
    pub target_trial_ns: u128,
    /// Timed trials per kernel (odd counts give a true median).
    pub trials: usize,
    /// Fixed iteration count, bypassing calibration (smoke mode).
    pub fixed_iters: Option<u64>,
}

impl MicroBench {
    /// The standard policy: 20 ms trials, median of 5.
    #[must_use]
    pub fn standard() -> MicroBench {
        MicroBench {
            target_trial_ns: 20_000_000,
            trials: 5,
            fixed_iters: None,
        }
    }

    /// The CI smoke policy: every kernel runs exactly once per trial,
    /// one trial — fast and schema-complete rather than statistically
    /// tight.
    #[must_use]
    pub fn smoke() -> MicroBench {
        MicroBench {
            target_trial_ns: 0,
            trials: 1,
            fixed_iters: Some(1),
        }
    }

    /// Times `op`, returning the median ns/op.
    ///
    /// Calibration first makes one untimed call, so a cold first call
    /// (page faults, lazy initialization, cold caches) cannot size the
    /// trials. It then times warm batches of 1, 2, 4, … calls until one
    /// fills at least a tenth of the target, and scales the fastest
    /// per-call time seen to the target: a near-free kernel gets a full
    /// trial, not one sized by timer overhead or a single slow call.
    pub fn measure<F: FnMut()>(&self, mut op: F) -> Measurement {
        let iters = match self.fixed_iters {
            Some(n) => n.max(1),
            None => {
                op();
                let mut batch: u64 = 1;
                let mut best_ns_per_op = f64::INFINITY;
                loop {
                    let t = Instant::now();
                    for _ in 0..batch {
                        op();
                    }
                    let batch_ns = t.elapsed().as_nanos().max(1);
                    best_ns_per_op = best_ns_per_op.min(batch_ns as f64 / batch as f64);
                    if batch_ns * CALIBRATION_SHARE >= self.target_trial_ns || batch >= MAX_ITERS {
                        break;
                    }
                    batch = batch.saturating_mul(2);
                }
                // One trial ≈ target_trial_ns, at least 1 iteration.
                (self.target_trial_ns as f64 / best_ns_per_op).clamp(1.0, MAX_ITERS as f64) as u64
            }
        };
        let mut samples: Vec<f64> = (0..self.trials.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    op();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let ns_per_op = samples.get(samples.len() / 2).copied().unwrap_or(0.0);
        Measurement {
            ns_per_op,
            iters,
            trials: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_policy_runs_exactly_once_per_trial() {
        let mut calls = 0u64;
        let m = MicroBench::smoke().measure(|| calls += 1);
        assert_eq!(m.iters, 1);
        assert_eq!(m.trials, 1);
        assert_eq!(calls, 1); // no calibration pass in smoke mode
        assert!(m.ns_per_op >= 0.0);
    }

    #[test]
    fn standard_policy_calibrates_and_reports_positive_time() {
        let bench = MicroBench {
            target_trial_ns: 100_000, // 0.1 ms: keep the test fast
            trials: 3,
            fixed_iters: None,
        };
        let mut acc = 0u64;
        let m = bench.measure(|| acc = acc.wrapping_add(std::hint::black_box(1)));
        assert!(m.iters >= 1);
        assert_eq!(m.trials, 3);
        assert!(m.ns_per_op > 0.0);
    }

    #[test]
    fn a_slow_first_call_does_not_shorten_the_trials() {
        // The first call is 2 ms, every later call near-free: sizing the
        // trials from that call would run five calls per 10 ms trial.
        let target_trial_ns = 10_000_000;
        let bench = MicroBench {
            target_trial_ns,
            trials: 3,
            fixed_iters: None,
        };
        let mut first = true;
        let m = bench.measure(|| {
            if first {
                first = false;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::hint::black_box(());
        });
        let trial_ns = m.iters as f64 * m.ns_per_op;
        assert!(
            trial_ns >= target_trial_ns as f64 / 2.0,
            "{} iterations of {} ns make a {trial_ns} ns trial",
            m.iters,
            m.ns_per_op
        );
    }

    #[test]
    fn median_is_robust_to_one_slow_trial() {
        // Make the first trial artificially slow; the median must not
        // report it.
        let mut first = true;
        let bench = MicroBench {
            target_trial_ns: 0,
            trials: 3,
            fixed_iters: Some(1),
        };
        let m = bench.measure(|| {
            if first {
                first = false;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert!(
            m.ns_per_op < 15_000_000.0,
            "median {} should exclude the 20 ms outlier",
            m.ns_per_op
        );
    }
}

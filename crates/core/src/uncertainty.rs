//! Uncertainty quantification for NCF analyses.
//!
//! FOCAL's raison d'être is *inherent data uncertainty* (§2): the model is
//! deliberately parameterized so that conclusions can be tested against
//! ranges of unknowns. This module provides two tools:
//!
//! * [`Interval`] — conservative interval arithmetic, used to propagate
//!   worst-case bounds through NCF expressions analytically.
//! * [`MonteCarloNcf`] — Monte-Carlo sampling of the α weight (and,
//!   optionally, jitter on the proxy ratios) yielding distributional
//!   summaries such as "probability that the design reduces the footprint".

use crate::design::DesignPoint;
use crate::error::{ensure_finite, ensure_positive, ModelError, Result};
use crate::mc_kernel::{self, McParams, MC_GROUP_CHUNKS};
use crate::memo::SweepMemo;
use crate::ncf::Ncf;
use crate::scenario::Scenario;
use crate::weight::E2oRange;
use focal_engine::fault::MC_SITE;
use focal_engine::{chunk_count, chunk_seed, Engine};
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// The global sample index `engine`'s fault plan poisons with NaN.
fn nan_target(engine: &Engine) -> Option<u64> {
    engine.faults()?.nan_target(MC_SITE)
}

/// The tripwire error for non-finite value `value` at logical sample
/// index `i` of a run seeded with `seed`: it names the minimal repro
/// coordinates, the sample, its chunk and that chunk's seed.
fn non_finite_sample(seed: u64, i: usize, value: f64) -> ModelError {
    let c = i / MC_CHUNK_SAMPLES;
    ModelError::NonFiniteOutput {
        context: format!(
            "monte-carlo sample {i} (chunk {c}, chunk_seed {})",
            chunk_seed(seed, c)
        ),
        value,
    }
}

/// Rejects an empty Monte-Carlo run.
fn ensure_samples(samples: usize) -> Result<()> {
    if samples == 0 {
        return Err(ModelError::OutOfRange {
            parameter: "samples",
            value: 0.0,
            expected: "[1, +inf) (Monte-Carlo needs at least one sample)",
        });
    }
    Ok(())
}

/// Samples drawn per Monte-Carlo chunk.
///
/// The chunk geometry is part of the *sampling semantics*, not a tuning
/// knob: chunk `c` draws its `StdRng` from `seed + c` (see
/// [`focal_engine::chunk_seed`]) and chunks concatenate in index order,
/// which is what makes [`MonteCarloNcf`] results bit-identical at every
/// thread count. Changing this constant changes the sampled values the
/// same way changing the seed would.
pub const MC_CHUNK_SAMPLES: usize = 4096;

/// A closed interval `[lo, hi]` with conservative (outward-rounding-free)
/// arithmetic for the operations NCF needs: addition, scaling by a
/// non-negative constant, multiplication and division of positive
/// intervals.
///
/// # Examples
///
/// ```
/// use focal_core::Interval;
///
/// let a = Interval::new(2.0, 3.0)?;
/// let b = Interval::new(1.0, 2.0)?;
/// let q = a.div(b)?;
/// assert_eq!(q.lo(), 1.0);
/// assert_eq!(q.hi(), 3.0);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either bound is not finite or if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        let lo = ensure_finite("interval lo", lo)?;
        let hi = ensure_finite("interval hi", hi)?;
        if lo > hi {
            return Err(ModelError::Inconsistent {
                constraint: "interval lower bound must not exceed upper bound",
            });
        }
        Ok(Interval { lo, hi })
    }

    /// The degenerate interval `[v, v]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is not finite.
    pub fn point(v: f64) -> Result<Self> {
        Interval::new(v, v)
    }

    /// Lower bound.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn mid(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width `hi − lo`.
    #[inline]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// `true` if `v` lies inside the interval (inclusive).
    #[inline]
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval sum.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Scales by a non-negative constant.
    ///
    /// # Errors
    ///
    /// Returns an error if `k` is negative or not finite.
    pub fn scale(self, k: f64) -> Result<Interval> {
        let k = ensure_finite("scale factor", k)?;
        if k < 0.0 {
            return Err(ModelError::OutOfRange {
                parameter: "scale factor",
                value: k,
                expected: "[0, +inf)",
            });
        }
        Ok(Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        })
    }

    /// Product of two positive intervals.
    ///
    /// (Named `mul` rather than implementing `std::ops::Mul` because the
    /// operation is fallible.)
    ///
    /// # Errors
    ///
    /// Returns an error if either interval extends to non-positive values
    /// (the general sign-case product is not needed by the NCF model and is
    /// deliberately not implemented).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Interval) -> Result<Interval> {
        ensure_positive("interval lo (mul)", self.lo.min(other.lo))?;
        Ok(Interval {
            lo: self.lo * other.lo,
            hi: self.hi * other.hi,
        })
    }

    /// Quotient of two positive intervals.
    ///
    /// # Errors
    ///
    /// Returns an error if either interval extends to non-positive values.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Interval) -> Result<Interval> {
        ensure_positive("interval lo (div)", self.lo.min(other.lo))?;
        Ok(Interval {
            lo: self.lo / other.hi,
            hi: self.hi / other.lo,
        })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Computes the exact NCF interval over an α band with optional
/// multiplicative uncertainty on the two proxy ratios.
///
/// NCF is affine in α and monotone in each ratio, so the interval is exact:
/// the extrema occur at corner combinations of `(α, embodied, operational)`.
///
/// # Errors
///
/// Returns an error if `ratio_uncertainty` is negative, not finite, or ≥ 1
/// (a ±100 % ratio error would make the lower ratio non-positive).
///
/// # Examples
///
/// ```
/// use focal_core::{ncf_interval, DesignPoint, E2oRange, Scenario};
///
/// let x = DesignPoint::from_power_perf(0.5, 0.5, 1.0)?;
/// let y = DesignPoint::reference();
/// let iv = ncf_interval(&x, &y, Scenario::FixedWork, E2oRange::EMBODIED_DOMINATED, 0.05)?;
/// assert!(iv.hi() < 1.0); // robustly sustainable even with 5% ratio error
/// # Ok::<(), focal_core::ModelError>(())
/// ```
pub fn ncf_interval(
    x: &DesignPoint,
    y: &DesignPoint,
    scenario: Scenario,
    range: E2oRange,
    ratio_uncertainty: f64,
) -> Result<Interval> {
    let u = ensure_finite("ratio_uncertainty", ratio_uncertainty)?;
    if !(0.0..1.0).contains(&u) {
        return Err(ModelError::OutOfRange {
            parameter: "ratio_uncertainty",
            value: u,
            expected: "[0, 1)",
        });
    }
    let a_ratio = x.area() / y.area();
    let o_ratio = scenario.operational_ratio(x, y);
    let a_iv = Interval::new(a_ratio * (1.0 - u), a_ratio * (1.0 + u))?;
    let o_iv = Interval::new(o_ratio * (1.0 - u), o_ratio * (1.0 + u))?;

    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for alpha in [range.low(), range.high()] {
        for a in [a_iv.lo, a_iv.hi] {
            for o in [o_iv.lo, o_iv.hi] {
                let v = alpha.embodied() * a + alpha.operational() * o;
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    Interval::new(lo, hi)
}

/// Summary statistics of a Monte-Carlo NCF experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Sample mean of the NCF values.
    pub mean: f64,
    /// Sample standard deviation (unbiased, n−1).
    pub std_dev: f64,
    /// Minimum sampled NCF.
    pub min: f64,
    /// Maximum sampled NCF.
    pub max: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Fraction of samples with NCF < 1 — the estimated probability that
    /// design X reduces the footprint given the sampled uncertainty.
    pub prob_reduction: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

impl fmt::Display for McSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NCF ~ {:.4} ± {:.4} (p5={:.4}, p95={:.4}), P[reduction]={:.1}% over {} samples",
            self.mean,
            self.std_dev,
            self.p05,
            self.p95,
            self.prob_reduction * 100.0,
            self.samples
        )
    }
}

/// A Monte-Carlo NCF experiment: α is drawn uniformly from an [`E2oRange`]
/// and the embodied/operational ratios receive independent uniform
/// multiplicative jitter of ±`ratio_uncertainty`.
///
/// The sampler is deterministic given the seed, so experiments are
/// reproducible.
///
/// # Examples
///
/// ```
/// use focal_core::{DesignPoint, E2oRange, MonteCarloNcf, Scenario};
///
/// let x = DesignPoint::from_power_perf(0.6, 0.7, 1.0)?;
/// let y = DesignPoint::reference();
/// let mc = MonteCarloNcf::new(E2oRange::OPERATIONAL_DOMINATED, 0.1, 42)?;
/// let summary = mc.run(&x, &y, Scenario::FixedWork, 10_000)?;
/// assert!(summary.prob_reduction > 0.99);
/// # Ok::<(), focal_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloNcf {
    range: E2oRange,
    ratio_uncertainty: f64,
    seed: u64,
}

impl MonteCarloNcf {
    /// Creates a sampler drawing α from `range` with ±`ratio_uncertainty`
    /// multiplicative jitter on both proxy ratios.
    ///
    /// # Errors
    ///
    /// Returns an error if `ratio_uncertainty` is not in `[0, 1)`.
    pub fn new(range: E2oRange, ratio_uncertainty: f64, seed: u64) -> Result<Self> {
        let u = ensure_finite("ratio_uncertainty", ratio_uncertainty)?;
        if !(0.0..1.0).contains(&u) {
            return Err(ModelError::OutOfRange {
                parameter: "ratio_uncertainty",
                value: u,
                expected: "[0, 1)",
            });
        }
        Ok(MonteCarloNcf {
            range,
            ratio_uncertainty: u,
            seed,
        })
    }

    /// Draws `samples` NCF values for `x` vs `y` under `scenario` and
    /// summarizes them, parallelizing across the engine selected by
    /// `FOCAL_THREADS` (see [`MonteCarloNcf::run_on`]).
    ///
    /// # Errors
    ///
    /// See [`MonteCarloNcf::run_on`].
    pub fn run(
        &self,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
    ) -> Result<McSummary> {
        self.run_on(&Engine::from_env(), x, y, scenario, samples, None)
    }

    /// [`MonteCarloNcf::run`] on an explicit [`Engine`], optionally
    /// through a [`SweepMemo`].
    ///
    /// Sampling is chunked in blocks of [`MC_CHUNK_SAMPLES`]: chunk `c`
    /// seeds its own `StdRng` from `seed + c` and chunk streams occupy
    /// consecutive logical index ranges, so the summary is
    /// **bit-identical for every thread count** (the differential tests
    /// in `tests/engine_determinism.rs` pin this). With a single-threaded
    /// engine the chunk loop runs inline on the calling thread.
    ///
    /// Since the SoA rework, groups of [`MC_GROUP_CHUNKS`] chunks are
    /// drawn by the lockstep vector kernel (`mc_kernel`) where the CPU
    /// supports it. This is invisible in the result: each chunk's draw
    /// stream is bit-identical to its serial form, and the summary
    /// depends only on the sorted multiset of samples.
    /// [`MonteCarloNcf::run_scalar_on`] is the pinned pre-SoA reference.
    ///
    /// With a `memo`, an experiment with an identical `(x, y, scenario,
    /// α range, jitter, seed, samples)` key is answered from it, and a
    /// miss runs the sampler and caches the summary, so repeated sweeps
    /// (e.g. the robustness study and its scenario-DSL twin) pay for
    /// each distinct experiment once. While `engine` carries a fault
    /// plan the memo is bypassed so injected faults reach the sampler.
    ///
    /// # Errors
    ///
    /// * [`ModelError::OutOfRange`] if `samples == 0`.
    /// * [`ModelError::ChunkPoisoned`] if a sampling chunk panics (or the
    ///   engine's fault plan targets one); the error names the lowest
    ///   failing chunk and its derived seed, identically at every thread
    ///   count.
    /// * [`ModelError::NonFiniteOutput`] if any drawn NCF value is NaN or
    ///   infinite (including values poisoned by a `nan@mc:<index>` fault
    ///   plan) — the tripwire fires before any summary statistic is
    ///   computed, naming the lowest offending sample index.
    pub fn run_on(
        &self,
        engine: &Engine,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
        memo: Option<&mut SweepMemo>,
    ) -> Result<McSummary> {
        let mut memo = memo.filter(|_| samples > 0 && engine.faults().is_none());
        let (range, jitter, seed) = (self.range, self.ratio_uncertainty, self.seed);
        let key = SweepMemo::mc_key(x, y, scenario, range, jitter, seed, samples);
        if let Some(summary) = memo.as_deref_mut().and_then(|m| m.mc_lookup(&key)) {
            return Ok(summary);
        }
        let mut values = self.sample_values_on(engine, x, y, scenario, samples)?;
        values.sort_by(|a, b| a.total_cmp(b));
        let summary = Self::summarize(&values);
        if let Some(memo) = memo {
            memo.mc_insert(key, summary.clone());
        }
        Ok(summary)
    }

    /// The probability of reduction ([`McSummary::prob_reduction`]) of
    /// each `(x, y, scenario)` experiment, drawing the sample stream once
    /// for the whole batch.
    ///
    /// Every experiment of one sampler draws the same `(α, a-jitter,
    /// o-jitter)` triples, with the chunk seeds and chunk-fault
    /// attribution of [`MonteCarloNcf::sample_values_on`]; only the
    /// fuse with the experiment's ratios differs. So the triples are
    /// drawn once, on first need, and each experiment fuses and counts
    /// its samples below 1 with no sort and no buffer of its own. Each
    /// result is bit-identical to `run_on(..).prob_reduction`.
    ///
    /// With a `memo`, experiments are looked up and inserted in batch
    /// order under the same keys as [`MonteCarloNcf::run_on`]; a cached
    /// summary answers a lookup too. A batch that hits for every
    /// experiment draws nothing. While `engine` carries a fault plan the
    /// memo is bypassed.
    ///
    /// # Errors
    ///
    /// The error `run_on` raises for the first failing experiment in
    /// batch order: a drawing error ([`ModelError::OutOfRange`] for
    /// `samples == 0`, [`ModelError::ChunkPoisoned`]) fails the first
    /// experiment that needs the draw; a non-finite fused value, such
    /// as one a `nan@mc:<index>` plan poisons in every experiment,
    /// names the experiment's lowest offending sample index.
    pub fn prob_reduction_on(
        &self,
        engine: &Engine,
        experiments: &[(DesignPoint, DesignPoint, Scenario)],
        samples: usize,
        memo: Option<&mut SweepMemo>,
    ) -> Result<Vec<f64>> {
        let mut memo = memo.filter(|_| samples > 0 && engine.faults().is_none());
        let (range, jitter, seed) = (self.range, self.ratio_uncertainty, self.seed);
        let mut draws: Option<Vec<[f64; 3]>> = None;
        let mut probs = Vec::with_capacity(experiments.len());
        for (x, y, scenario) in experiments {
            let key = SweepMemo::mc_key(x, y, *scenario, range, jitter, seed, samples);
            if let Some(p) = memo.as_deref_mut().and_then(|m| m.mc_prob_lookup(&key)) {
                probs.push(p);
                continue;
            }
            let params = self.params(x, y, *scenario);
            let draws = match &mut draws {
                Some(draws) => draws,
                None => draws.insert(self.draws_on(engine, &params, samples)?),
            };
            // Vector count; the rare non-finite case rescans below.
            let (below, finite) = mc_kernel::count_below_one(&params, draws);
            if !finite {
                let lowest = draws
                    .iter()
                    .map(|&d| params.combine(d))
                    .enumerate()
                    .find(|(_, v)| !v.is_finite());
                if let Some((i, v)) = lowest {
                    return Err(non_finite_sample(seed, i, v));
                }
            }
            let p = below as f64 / samples as f64;
            if let Some(memo) = memo.as_deref_mut() {
                memo.mc_prob_insert(key, p);
            }
            probs.push(p);
        }
        Ok(probs)
    }

    /// The shared draw buffer of [`MonteCarloNcf::prob_reduction_on`]:
    /// `samples` triples in logical order, drawn per chunk exactly as
    /// [`MonteCarloNcf::sample_values_on`] draws them (same seeds, same
    /// work units, same fault attribution). A `nan@mc:<index>` plan
    /// poisons the triple at `index`, so every experiment's fused
    /// sample there is NaN.
    fn draws_on(
        &self,
        engine: &Engine,
        params: &McParams,
        samples: usize,
    ) -> Result<Vec<[f64; 3]>> {
        ensure_samples(samples)?;
        let seed = self.seed;
        let mut draws = engine.try_par_chunk_map_into(
            seed,
            samples,
            MC_CHUNK_SAMPLES,
            MC_GROUP_CHUNKS,
            [0.0f64; 3],
            |c0, out| mc_kernel::draw_unit(seed, c0, params, out),
        )?;
        let target = nan_target(engine).and_then(|t| usize::try_from(t).ok());
        if let Some(d) = target.and_then(|t| draws.get_mut(t)) {
            *d = [f64::NAN; 3];
        }
        Ok(draws)
    }

    /// Pinned scalar reference implementation of [`MonteCarloNcf::run_on`]:
    /// the exact pre-SoA per-sample loop (one serial `StdRng` per chunk,
    /// per-chunk `Vec`s concatenated in index order). Kept as the oracle
    /// the vector kernel is differential-tested and benchmarked against;
    /// model code should call [`MonteCarloNcf::run_on`].
    ///
    /// # Errors
    ///
    /// Identical to [`MonteCarloNcf::run_on`] — including, by
    /// construction, every error *value*.
    pub fn run_scalar_on(
        &self,
        engine: &Engine,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
    ) -> Result<McSummary> {
        let mut values = self.sample_values_scalar_on(engine, x, y, scenario, samples)?;
        values.sort_by(|a, b| a.total_cmp(b));
        Ok(Self::summarize(&values))
    }

    /// Draws the raw sample buffer through the SoA lockstep kernel,
    /// applies the engine's `nan@mc:<index>` fault poke, if any, and runs the
    /// non-finite tripwire. Exposed (for benchmarks and differential
    /// tests) because it isolates generation cost from the sort and
    /// summary that [`MonteCarloNcf::run_on`] adds on top.
    ///
    /// The buffer's *order* is an internal layout detail: full groups of
    /// [`MC_GROUP_CHUNKS`] chunks may be lane-interleaved on machines
    /// where the vector kernel is active. The multiset of values — and
    /// therefore anything derived from the sorted buffer — is
    /// bit-identical to [`MonteCarloNcf::sample_values_scalar_on`] at
    /// every thread count; only elementwise comparisons against the
    /// scalar buffer are meaningless.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloNcf::run_on`].
    pub fn sample_values_on(
        &self,
        engine: &Engine,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
    ) -> Result<Vec<f64>> {
        ensure_samples(samples)?;
        let params = self.params(x, y, scenario);
        let seed = self.seed;
        // The kernel writes straight into one preallocated buffer — no
        // per-chunk Vecs, no concat. Work units of MC_GROUP_CHUNKS chunks
        // let full units take the lockstep vector path.
        let mut values = engine.try_par_chunk_map_into(
            seed,
            samples,
            MC_CHUNK_SAMPLES,
            MC_GROUP_CHUNKS,
            0.0f64,
            |c0, out| mc_kernel::fill_unit(seed, c0, &params, out),
        )?;
        let interleaved = mc_kernel::lockstep_enabled();
        // A `nan@mc:<sample>` fault plan poisons exactly one global
        // sample index. The poke lands *after* the fill so the RNG draw
        // stream is untouched (the scalar loop drew all three words
        // before overwriting, too); `buffer_index` routes the logical
        // index through the kernel's layout.
        if let Some(target) = nan_target(engine) {
            if let Ok(target) = usize::try_from(target) {
                let pos = mc_kernel::buffer_index(target, samples, interleaved);
                if let Some(v) = values.get_mut(pos) {
                    *v = f64::NAN;
                }
            }
        }
        // NaN/∞ tripwire *before* sorting: scan every lane position and
        // report the lowest *logical* (draw-order) sample index, so the
        // structured error names the same minimal reproduction
        // coordinates as the scalar kernel, at every thread count.
        let mut lowest: Option<(usize, f64)> = None;
        for (pos, &v) in values.iter().enumerate() {
            if !v.is_finite() {
                let i = mc_kernel::logical_index(pos, samples, interleaved);
                if lowest.map_or(true, |(prev, _)| i < prev) {
                    lowest = Some((i, v));
                }
            }
        }
        if let Some((i, v)) = lowest {
            return Err(non_finite_sample(seed, i, v));
        }
        Ok(values)
    }

    /// Scalar twin of [`MonteCarloNcf::sample_values_on`]: the pre-SoA
    /// sampling loop, buffer in logical draw order.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloNcf::run_on`].
    pub fn sample_values_scalar_on(
        &self,
        engine: &Engine,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
    ) -> Result<Vec<f64>> {
        ensure_samples(samples)?;
        let params = self.params(x, y, scenario);
        let n_chunks = chunk_count(samples, MC_CHUNK_SAMPLES);
        // A `nan@mc:<sample>` fault plan poisons exactly one global
        // sample index, so the poisoned sample is the same at every
        // thread count.
        let nan_at = nan_target(engine);
        // One `Vec` per chunk (one-item chunks, so chunk index = slot).
        let chunks =
            engine.try_par_chunk_map_into(self.seed, n_chunks, 1, 1, Vec::new(), |c, out| {
                let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, c));
                let lo = c * MC_CHUNK_SAMPLES;
                let hi = (lo + MC_CHUNK_SAMPLES).min(samples);
                if let [slot] = out {
                    *slot = (lo..hi)
                        .map(|i| {
                            let v = params.sample(&mut rng);
                            if nan_at == Some(i as u64) {
                                return f64::NAN;
                            }
                            v
                        })
                        .collect();
                }
            })?;
        let values: Vec<f64> = chunks.concat();
        if let Some((i, &v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(non_finite_sample(self.seed, i, v));
        }
        Ok(values)
    }

    /// Hoists everything that does not depend on the sampled α/jitter:
    /// the baseline NCF ratios and the two sampling distributions (all
    /// `Copy`, shared by every chunk). Only the RNG itself is per-chunk
    /// state, seeded by chunk index.
    fn params(&self, x: &DesignPoint, y: &DesignPoint, scenario: Scenario) -> McParams {
        McParams {
            alpha: Uniform::new_inclusive(self.range.low().get(), self.range.high().get()),
            jitter: Uniform::new_inclusive(
                1.0 - self.ratio_uncertainty,
                1.0 + self.ratio_uncertainty,
            ),
            a_ratio: x.area() / y.area(),
            o_ratio: scenario.operational_ratio(x, y),
        }
    }

    /// Summary statistics of a sorted, non-empty, all-finite sample
    /// buffer (the callers' tripwires established all three).
    fn summarize(values: &[f64]) -> McSummary {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let pct = |p: f64| values[((p * (n - 1) as f64).round() as usize).min(n - 1)];
        let below = values.iter().filter(|&&v| v < 1.0).count();

        McSummary {
            mean,
            std_dev: var.sqrt(),
            // focal-lint: allow(panic-freedom) -- non-empty: `samples == 0` rejected at entry
            min: values[0],
            max: values[n - 1],
            p05: pct(0.05),
            p50: pct(0.50),
            p95: pct(0.95),
            prob_reduction: below as f64 / n as f64,
            samples: n,
        }
    }

    /// Convenience: evaluates the deterministic center-point NCF alongside
    /// the Monte-Carlo summary.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloNcf::run_on`].
    pub fn run_with_center(
        &self,
        x: &DesignPoint,
        y: &DesignPoint,
        scenario: Scenario,
        samples: usize,
    ) -> Result<(Ncf, McSummary)> {
        let center = Ncf::evaluate(x, y, scenario, self.range.center());
        Ok((center, self.run(x, y, scenario, samples)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::E2oWeight;

    #[test]
    fn interval_construction_validates() {
        assert!(Interval::new(1.0, 2.0).is_ok());
        assert!(Interval::new(2.0, 1.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        let p = Interval::point(3.0).unwrap();
        assert_eq!(p.lo(), p.hi());
        assert_eq!(p.width(), 0.0);
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(1.0, 2.0).unwrap();
        let b = Interval::new(3.0, 4.0).unwrap();
        assert_eq!(a.add(b), Interval::new(4.0, 6.0).unwrap());
        assert_eq!(a.mul(b).unwrap(), Interval::new(3.0, 8.0).unwrap());
        let q = b.div(a).unwrap();
        assert_eq!(q, Interval::new(1.5, 4.0).unwrap());
        assert_eq!(a.scale(2.0).unwrap(), Interval::new(2.0, 4.0).unwrap());
        assert!(a.scale(-1.0).is_err());
    }

    #[test]
    fn interval_division_requires_positive() {
        let a = Interval::new(-1.0, 2.0).unwrap();
        let b = Interval::new(1.0, 2.0).unwrap();
        assert!(a.div(b).is_err());
        assert!(b.div(a).is_err());
    }

    #[test]
    fn interval_contains_and_mid() {
        let a = Interval::new(1.0, 3.0).unwrap();
        assert!(a.contains(1.0));
        assert!(a.contains(3.0));
        assert!(!a.contains(3.0001));
        assert_eq!(a.mid(), 2.0);
    }

    #[test]
    fn ncf_interval_brackets_point_estimates() {
        let x = DesignPoint::from_power_perf(0.5, 1.5, 3.0).unwrap();
        let y = DesignPoint::reference();
        let range = E2oRange::EMBODIED_DOMINATED;
        let iv = ncf_interval(&x, &y, Scenario::FixedTime, range, 0.0).unwrap();
        for alpha in range.grid(9).unwrap() {
            let v = Ncf::evaluate(&x, &y, Scenario::FixedTime, alpha).value();
            assert!(iv.contains(v), "{v} not in {iv}");
        }
    }

    #[test]
    fn ncf_interval_widens_with_uncertainty() {
        let x = DesignPoint::from_power_perf(0.5, 1.5, 3.0).unwrap();
        let y = DesignPoint::reference();
        let tight = ncf_interval(&x, &y, Scenario::FixedWork, E2oRange::FULL, 0.0).unwrap();
        let wide = ncf_interval(&x, &y, Scenario::FixedWork, E2oRange::FULL, 0.2).unwrap();
        assert!(wide.width() > tight.width());
        assert!(wide.lo() <= tight.lo() && wide.hi() >= tight.hi());
    }

    #[test]
    fn ncf_interval_rejects_invalid_uncertainty() {
        let x = DesignPoint::reference();
        assert!(ncf_interval(&x, &x, Scenario::FixedWork, E2oRange::FULL, 1.0).is_err());
        assert!(ncf_interval(&x, &x, Scenario::FixedWork, E2oRange::FULL, -0.1).is_err());
    }

    #[test]
    fn monte_carlo_is_reproducible() {
        let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
        let y = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
        let a = mc.run(&x, &y, Scenario::FixedWork, 1000).unwrap();
        let b = mc.run(&x, &y, Scenario::FixedWork, 1000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn monte_carlo_is_thread_count_invariant() {
        let x = DesignPoint::from_power_perf(0.7, 0.9, 1.1).unwrap();
        let y = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 7).unwrap();
        // 3 chunks (two full, one partial) exercises uneven chunk shapes.
        let samples = 2 * MC_CHUNK_SAMPLES + 123;
        let serial = mc
            .run_on(
                &Engine::serial(),
                &x,
                &y,
                Scenario::FixedWork,
                samples,
                None,
            )
            .unwrap();
        for threads in [2, 3, 7] {
            let par = mc
                .run_on(
                    &Engine::with_threads(threads),
                    &x,
                    &y,
                    Scenario::FixedWork,
                    samples,
                    None,
                )
                .unwrap();
            // PartialEq on McSummary compares every field with f64 `==`,
            // which only holds for bit-identical values.
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn monte_carlo_stays_inside_analytic_interval() {
        let x = DesignPoint::from_power_perf(0.7, 1.2, 1.1).unwrap();
        let y = DesignPoint::reference();
        let range = E2oRange::OPERATIONAL_DOMINATED;
        let iv = ncf_interval(&x, &y, Scenario::FixedTime, range, 0.05).unwrap();
        let mc = MonteCarloNcf::new(range, 0.05, 99).unwrap();
        let s = mc.run(&x, &y, Scenario::FixedTime, 5000).unwrap();
        assert!(s.min >= iv.lo() - 1e-12);
        assert!(s.max <= iv.hi() + 1e-12);
        assert!(iv.contains(s.mean));
    }

    #[test]
    fn monte_carlo_percentiles_are_ordered() {
        let x = DesignPoint::from_power_perf(1.1, 1.05, 1.0).unwrap();
        let y = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.2, 3).unwrap();
        let s = mc.run(&x, &y, Scenario::FixedWork, 2000).unwrap();
        assert!(s.min <= s.p05 && s.p05 <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.samples, 2000);
    }

    #[test]
    fn prob_reduction_tracks_dominance() {
        let y = DesignPoint::reference();
        let better = DesignPoint::from_power_perf(0.5, 0.5, 1.2).unwrap();
        let worse = DesignPoint::from_power_perf(2.0, 2.0, 1.0).unwrap();
        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.1, 11).unwrap();
        assert_eq!(
            mc.run(&better, &y, Scenario::FixedWork, 2000)
                .unwrap()
                .prob_reduction,
            1.0
        );
        assert_eq!(
            mc.run(&worse, &y, Scenario::FixedWork, 2000)
                .unwrap()
                .prob_reduction,
            0.0
        );
    }

    #[test]
    fn run_with_center_matches_plain_evaluate() {
        let x = DesignPoint::from_power_perf(0.9, 0.8, 1.0).unwrap();
        let y = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::EMBODIED_DOMINATED, 0.0, 5).unwrap();
        let (center, _) = mc.run_with_center(&x, &y, Scenario::FixedWork, 10).unwrap();
        let direct = Ncf::evaluate(&x, &y, Scenario::FixedWork, E2oWeight::EMBODIED_DOMINATED);
        assert_eq!(center.value(), direct.value());
    }

    #[test]
    fn zero_samples_is_a_structured_error() {
        let x = DesignPoint::reference();
        let mc = MonteCarloNcf::new(E2oRange::FULL, 0.0, 1).unwrap();
        let err = mc.run(&x, &x, Scenario::FixedWork, 0).unwrap_err();
        assert!(
            matches!(err, ModelError::OutOfRange { parameter, .. } if parameter == "samples"),
            "{err}"
        );
    }
}

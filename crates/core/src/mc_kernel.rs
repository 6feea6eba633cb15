//! The SoA-vectorized Monte-Carlo sampling kernel behind
//! [`MonteCarloNcf`](crate::MonteCarloNcf).
//!
//! The sampling semantics are fixed by `uncertainty.rs`: chunk `c` draws
//! from `StdRng::seed_from_u64(seed + c)` in the per-sample order
//! *alpha, a-jitter, o-jitter*, and the summary is computed from the
//! sorted multiset of fused values. This module exploits the second
//! fact: because [`MonteCarloNcf::run_on`](crate::MonteCarloNcf::run_on)
//! sorts before any statistic is taken, the kernel is free to emit
//! samples in a *permuted buffer layout* as long as the multiset of
//! values — and the logical index attributed to any non-finite value —
//! is exactly the scalar kernel's.
//!
//! Layout: work units of [`MC_GROUP_CHUNKS`] = 8 consecutive chunks
//! advance their eight RNG streams in lockstep
//! ([`rand::rngs::Lockstep8`]), in register blocks of [`BLOCK`] samples
//! per lane. Each block fills one raw `[step][lane]` word buffer and
//! then fuses it in a single merged convert+combine pass writing
//! `out[i * 8 + l]` = sample `i` of the unit's chunk `l` — a
//! lane-interleaved layout with no transpose step. Both passes are
//! 8-wide data-parallel loops that LLVM autovectorizes when compiled
//! with AVX2/AVX-512 `#[target_feature]` wrappers; the ISA is picked at
//! runtime per process. Below AVX2 the interleaved layout loses to the
//! scalar loop (measured ~0.66× at baseline SSE2), so the kernel then
//! keeps the scalar per-chunk path for every unit.
//!
//! Bit-identity is pinned three ways: `rand`'s own lockstep-vs-serial
//! stream test, this module's unit tests (per-logical-index equality of
//! the lockstep and scalar unit fills), and `focal-core`'s differential
//! proptests (whole-summary equality across seeds, sample counts and
//! thread counts).
//!
//! The counting path
//! ([`MonteCarloNcf::prob_reduction_on`](crate::MonteCarloNcf::prob_reduction_on))
//! uses the same split of a sample into [`McParams::draw`] and
//! [`McParams::combine`]: [`draw_unit`] fills a logical-order buffer of
//! raw triples once, and each experiment combines them.

use focal_engine::chunk_seed;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::{Lockstep8, StdRng};
use rand::SeedableRng;

use crate::uncertainty::MC_CHUNK_SAMPLES;

/// Monte-Carlo chunks advanced in lockstep per engine work unit.
///
/// Eight chunk streams fill one unit so the lockstep RNG update maps
/// onto one 8×64-bit vector register at AVX-512 (two at AVX2). Like
/// [`MC_CHUNK_SAMPLES`], this is a layout constant only: the sampled
/// values, and every summary derived from them, are independent of it.
pub const MC_GROUP_CHUNKS: usize = 8;

/// Lane count of the lockstep kernel (alias of [`MC_GROUP_CHUNKS`]).
const LANES: usize = MC_GROUP_CHUNKS;

/// Samples per lane per register block. Divides [`MC_CHUNK_SAMPLES`];
/// 256 keeps the raw word buffer (3 × 256 × 8 × 8 B = 48 KiB) and the
/// output block L1/L2-resident while amortizing loop overhead.
const BLOCK: usize = 256;

/// Hoisted per-run sampling parameters shared by every chunk: the two
/// sampling distributions and the deterministic NCF ratios.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McParams {
    /// α distribution over the run's [`E2oRange`](crate::E2oRange).
    pub alpha: Uniform<f64>,
    /// Multiplicative ratio jitter, `[1 − u, 1 + u]`.
    pub jitter: Uniform<f64>,
    /// Embodied proxy ratio `area(x) / area(y)`.
    pub a_ratio: f64,
    /// Operational proxy ratio under the run's scenario.
    pub o_ratio: f64,
}

impl McParams {
    /// Draws one fused NCF sample: [`McParams::draw`] then
    /// [`McParams::combine`]. Together they *are* the sampling
    /// semantics — every other path must reproduce this stream and this
    /// float evaluation order bit-exactly.
    #[inline(always)]
    pub(crate) fn sample(&self, rng: &mut StdRng) -> f64 {
        self.combine(self.draw(rng))
    }

    /// Draws one sample's `[alpha, a-jitter, o-jitter]` triple, in that
    /// order. It reads only the two distributions, so every experiment
    /// of one sampler (same α range and jitter) draws the same triples.
    #[inline(always)]
    pub(crate) fn draw(&self, rng: &mut StdRng) -> [f64; 3] {
        let alpha = self.alpha.sample(rng);
        let ja = self.jitter.sample(rng);
        let jo = self.jitter.sample(rng);
        [alpha, ja, jo]
    }

    /// Fuses a drawn triple into this experiment's NCF sample. The one
    /// definition of the fuse: [`McParams::sample`], the lockstep
    /// kernel and the counting path all call it.
    #[inline(always)]
    pub(crate) fn combine(&self, d: [f64; 3]) -> f64 {
        let [alpha, ja, jo] = d;
        alpha * (self.a_ratio * ja) + (1.0 - alpha) * (self.o_ratio * jo)
    }

    /// [`McParams::combine`] of three pre-drawn raw words (same
    /// word-to-value transform via [`Uniform::from_u64`], hence
    /// bit-identical results).
    #[inline(always)]
    fn fuse(&self, word_alpha: u64, word_a: u64, word_o: u64) -> f64 {
        self.combine([
            self.alpha.from_u64(word_alpha),
            self.jitter.from_u64(word_a),
            self.jitter.from_u64(word_o),
        ])
    }
}

/// Whether full units take the lane-interleaved lockstep path on this
/// machine. `false` means every unit is filled in logical order by the
/// scalar path (the layout helpers below degenerate to identity).
#[inline]
pub(crate) fn lockstep_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The instruction set the kernel dispatches to on this machine:
/// `"avx512"`, `"avx2"`, or `"scalar"`. Benchmarks use this to pick the
/// speedup threshold the SoA kernel is held to (the interleaved layout
/// only pays off from AVX2 up).
#[must_use]
pub fn mc_kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Number of *lockstep-eligible* units: units whose output slice spans
/// exactly [`MC_GROUP_CHUNKS`] full chunks. The trailing unit (short
/// chunk count and/or short last chunk) always takes the scalar path.
#[inline]
fn full_units(samples: usize) -> usize {
    samples / (LANES * MC_CHUNK_SAMPLES)
}

/// Logical (draw-order) sample index of buffer position `pos`, given
/// whether full units were filled lane-interleaved. Position `p` inside
/// full unit `u` holds sample `i = (p mod 32768) / 8` of the unit's
/// lane `l = p mod 8`, i.e. logical index `(u·8 + l)·4096 + i`.
#[inline]
pub(crate) fn logical_index(pos: usize, samples: usize, interleaved: bool) -> usize {
    let unit_items = LANES * MC_CHUNK_SAMPLES;
    let unit = pos / unit_items;
    if !interleaved || unit >= full_units(samples) {
        return pos;
    }
    let rem = pos % unit_items;
    let i = rem / LANES;
    let l = rem % LANES;
    unit * unit_items + l * MC_CHUNK_SAMPLES + i
}

/// Inverse of [`logical_index`]: the buffer position holding logical
/// sample `index`.
#[inline]
pub(crate) fn buffer_index(index: usize, samples: usize, interleaved: bool) -> usize {
    let unit_items = LANES * MC_CHUNK_SAMPLES;
    let unit = index / unit_items;
    if !interleaved || unit >= full_units(samples) {
        return index;
    }
    let rem = index % unit_items;
    let l = rem / MC_CHUNK_SAMPLES;
    let i = rem % MC_CHUNK_SAMPLES;
    unit * unit_items + i * LANES + l
}

/// Fills one engine work unit's output slice with the fused samples of
/// chunks `c0 .. c0 + out.len().div_ceil(MC_CHUNK_SAMPLES)`.
///
/// Full units go through the lockstep SoA path when
/// [`lockstep_enabled`] (lane-interleaved layout); every other case —
/// partial units, non-x86 targets, pre-AVX2 machines — is filled by the
/// scalar per-chunk loop in logical order.
pub(crate) fn fill_unit(seed: u64, c0: usize, params: &McParams, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if out.len() == LANES * MC_CHUNK_SAMPLES {
        let mut seeds = [0u64; LANES];
        for (l, s) in seeds.iter_mut().enumerate() {
            *s = chunk_seed(seed, c0 + l);
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            // SAFETY: the required features were just verified at runtime.
            unsafe { fill_lockstep_avx512(&seeds, params, out) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just verified at runtime.
            unsafe { fill_lockstep_avx2(&seeds, params, out) };
            return;
        }
    }
    fill_scalar_unit(seed, c0, params, out);
}

/// Scalar reference fill for one unit: each chunk's stream is drawn by
/// its own serial `StdRng`, samples land in logical order. This is the
/// exact per-sample loop the pre-SoA implementation ran.
pub(crate) fn fill_scalar_unit(seed: u64, c0: usize, params: &McParams, out: &mut [f64]) {
    scalar_unit(seed, c0, out, |rng| params.sample(rng));
}

/// [`fill_scalar_unit`] for raw [`McParams::draw`] triples: the shared
/// draw buffer of [`MonteCarloNcf::prob_reduction_on`](crate::MonteCarloNcf::prob_reduction_on),
/// in logical order.
pub(crate) fn draw_unit(seed: u64, c0: usize, params: &McParams, out: &mut [[f64; 3]]) {
    scalar_unit(seed, c0, out, |rng| params.draw(rng));
}

/// Runs `item` once per slot of `out`, in order, on one serial `StdRng`
/// per chunk seeded with [`chunk_seed`]`(seed, c0 + k)`.
#[inline(always)]
fn scalar_unit<T>(seed: u64, c0: usize, out: &mut [T], item: impl Fn(&mut StdRng) -> T) {
    for (k, chunk_out) in out.chunks_mut(MC_CHUNK_SAMPLES).enumerate() {
        let mut rng = StdRng::seed_from_u64(chunk_seed(seed, c0 + k));
        for slot in chunk_out.iter_mut() {
            *slot = item(&mut rng);
        }
    }
}

/// AVX-512 instantiation of the lockstep fill. The `#[target_feature]`
/// wrapper lets LLVM vectorize the `#[inline(always)]` body (including
/// the cross-crate-inlined [`Lockstep8::fill_interleaved`]) with
/// 8×64-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(
    enable = "avx512f",
    enable = "avx512dq",
    enable = "avx512vl",
    enable = "avx2"
)]
unsafe fn fill_lockstep_avx512(seeds: &[u64; LANES], params: &McParams, out: &mut [f64]) {
    fill_lockstep_body(seeds, params, out);
}

/// AVX2 instantiation of the lockstep fill (4×64-bit vectors).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_lockstep_avx2(seeds: &[u64; LANES], params: &McParams, out: &mut [f64]) {
    fill_lockstep_body(seeds, params, out);
}

/// The lockstep SoA kernel body, shared by every ISA instantiation.
///
/// Per block: one interleaved `[step][lane]` RNG fill of `3 · BLOCK`
/// lockstep steps, then one merged convert+fuse pass reading the three
/// words of sample `i`, lane `l` at strides `(3i + k)·8 + l` and
/// writing `out[i·8 + l]` directly — the draw *stream* per lane is
/// exactly the serial chunk's (alpha, a-jitter, o-jitter per sample),
/// only the destination layout is permuted.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fill_lockstep_body(seeds: &[u64; LANES], params: &McParams, out: &mut [f64]) {
    let mut rng = Lockstep8::from_seeds(seeds);
    let mut raw = [0u64; 3 * BLOCK * LANES];
    for block_out in out.chunks_exact_mut(BLOCK * LANES) {
        rng.fill_interleaved(&mut raw);
        for (i, sample_out) in block_out.chunks_exact_mut(LANES).enumerate() {
            for (l, slot) in sample_out.iter_mut().enumerate() {
                *slot = params.fuse(
                    raw[(3 * i) * LANES + l],
                    raw[(3 * i + 1) * LANES + l],
                    raw[(3 * i + 2) * LANES + l],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> McParams {
        McParams {
            alpha: Uniform::new_inclusive(0.2, 0.8),
            jitter: Uniform::new_inclusive(0.9, 1.1),
            a_ratio: 0.7777,
            o_ratio: 0.8182,
        }
    }

    #[test]
    fn lockstep_unit_matches_scalar_unit_per_logical_index() {
        let p = params();
        let unit = LANES * MC_CHUNK_SAMPLES;
        let mut soa = vec![0.0f64; unit];
        let mut scalar = vec![0.0f64; unit];
        fill_unit(42, 8, &p, &mut soa);
        fill_scalar_unit(42, 8, &p, &mut scalar);
        let interleaved = lockstep_enabled();
        let samples = 2 * unit; // this unit is "full" either way
        for (pos, v) in soa.iter().enumerate() {
            // fill_unit writes one unit, so its positions map as unit 0
            // of a larger run would.
            let logical = logical_index(pos, samples, interleaved);
            assert_eq!(
                v.to_bits(),
                scalar[logical].to_bits(),
                "pos {pos} -> logical {logical}"
            );
        }
    }

    #[test]
    fn partial_units_are_always_logical_order() {
        let p = params();
        let len = 3 * MC_CHUNK_SAMPLES + 17;
        let mut a = vec![0.0f64; len];
        let mut b = vec![0.0f64; len];
        fill_unit(7, 0, &p, &mut a);
        fill_scalar_unit(7, 0, &p, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn index_maps_are_inverse_bijections() {
        let samples = 2 * LANES * MC_CHUNK_SAMPLES + 3 * MC_CHUNK_SAMPLES + 123;
        for interleaved in [false, true] {
            let mut seen = vec![false; samples];
            for pos in 0..samples {
                let g = logical_index(pos, samples, interleaved);
                assert!(g < samples, "pos {pos} -> {g} out of range");
                assert_eq!(buffer_index(g, samples, interleaved), pos, "pos {pos}");
                assert!(!seen[g], "logical index {g} hit twice");
                seen[g] = true;
            }
            if !interleaved {
                // Without interleaving the map is the identity.
                assert_eq!(logical_index(1234, samples, false), 1234);
            }
        }
    }

    #[test]
    fn tail_positions_map_to_themselves_even_when_interleaved() {
        let samples = LANES * MC_CHUNK_SAMPLES + 5 * MC_CHUNK_SAMPLES + 99;
        for pos in LANES * MC_CHUNK_SAMPLES..samples {
            assert_eq!(logical_index(pos, samples, true), pos);
            assert_eq!(buffer_index(pos, samples, true), pos);
        }
    }

    #[test]
    fn isa_report_is_consistent_with_lockstep_gate() {
        let isa = mc_kernel_isa();
        assert!(["avx512", "avx2", "scalar"].contains(&isa));
        assert_eq!(lockstep_enabled(), isa != "scalar");
    }
}

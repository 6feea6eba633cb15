//! `f64` to text, byte for byte as `core::fmt` writes it, without
//! `core::fmt`'s float machinery.
//!
//! * [`write_shortest`] writes what `{}` writes: the shortest decimal
//!   that reads back as the same `f64`, laid out positionally.
//! * [`write_fixed`] writes what `{:.N}` writes: the value rounded half
//!   to even at `N` fractional digits.
//!
//! # Shortest digits
//!
//! The digits come from Ryu (Adams, PLDI 2018). The value's rounding
//! interval is scaled by a 125-bit power of 5 to about 17 decimal
//! digits, then digits are dropped while the interval still holds a
//! shorter number. Two things differ from reference Ryu, both to match
//! `{}`:
//!
//! * **Ties round up.** When the exact value lies halfway between the
//!   two nearest shortest candidates, `{}` takes the upper one (core's
//!   Dragon rounds up when `2·mant ≥ scale`), where Ryu rounds half to
//!   even. With the half-even step gone, nothing needs to know whether
//!   the scaled value was exact, so Ryu's `vrIsTrailingZeros`
//!   bookkeeping is gone too. `f64::from_bits(0x4317_9085_685d_83c9)` is
//!   exactly `1658206780088562.25` and prints `1658206780088562.3`.
//! * **Digits drop in blocks.** Unless the lower bound itself may be the
//!   answer, only the most significant dropped digit decides the
//!   rounding, so digits drop 8, 8, 4, 2 and 1 at a time rather than one
//!   by one. Integers below 2^53 skip the search: they are their own
//!   shortest digits.
//!
//! The layout never uses an exponent: `1e21` prints 22 digits and
//! `5e-324` 326 characters. Integers print without `.0`, and the
//! specials print as `-0`, `NaN`, `inf` and `-inf`.
//!
//! # Fixed digits
//!
//! A finite `v = m·2^e` with `e < 0` is split into its integer part and
//! a remainder `r < 2^-e`, and `r·10^N / 2^-e` is rounded half to even
//! in exact `u128` arithmetic (for `N ≤ 19`, `r·10^N < 2^117`). With
//! `e ≥ 0` the value is an integer and prints with `N` zeros. Values of
//! magnitude 2^64 or more, and more than 19 fractional digits, are
//! written by `{:.N}` itself. The sign of a value that rounds to zero
//! stays (`-0.0000`), and NaN and ±inf print without digits.
//!
//! # Tables
//!
//! The power-of-5 tables are Ryu's `DOUBLE_POW5_SPLIT` and
//! `DOUBLE_POW5_INV_SPLIT`, computed by `const fn` at compile time:
//! 5^i grows by one multiplication per entry and ⌊2^1024 / 5^i⌋ by one
//! exact division (nested floors compose), each held as a multi-limb
//! integer, and every entry is a 128-bit window of one of them.
//!
//! Each number is built in a stack buffer and written with one
//! `write_str`; only runs of zeros too long for the buffer (magnitudes
//! from about 10^47 up, or below 10^-28 to 10^-44 depending on the
//! digit count) take more.

use std::fmt;

/// Bits of an `f64`'s stored mantissa.
const MANTISSA_BITS: u32 = 52;

/// Bits of an `f64`'s stored exponent.
const EXPONENT_BITS: u32 = 11;

/// The stored exponent of NaN and the infinities.
const EXPONENT_SPECIAL: u32 = (1 << EXPONENT_BITS) - 1;

/// The `f64` exponent bias.
const EXPONENT_BIAS: u32 = 1023;

/// The stored exponent at which one mantissa unit is worth 1: a value
/// with stored exponent `E` is `m·2^(E − UNIT_EXPONENT)`.
const UNIT_EXPONENT: u32 = EXPONENT_BIAS + MANTISSA_BITS;

/// Bit length of every [`POW5`] entry.
const POW5_BITCOUNT: i32 = 125;

/// Bit length of every [`POW5_INV`] entry.
const POW5_INV_BITCOUNT: i32 = 125;

/// 5^i scaled to exactly [`POW5_BITCOUNT`] bits, for the negative
/// binary exponents (Ryu's `DOUBLE_POW5_SPLIT`).
static POW5: [u128; 326] = pow5_table();

/// ⌊2^(pow5bits(i) − 1 + [`POW5_INV_BITCOUNT`]) / 5^i⌋ + 1, for the
/// non-negative binary exponents (Ryu's `DOUBLE_POW5_INV_SPLIT`).
static POW5_INV: [u128; 342] = pow5_inv_table();

/// The most fractional digits [`write_fixed`] rounds itself: 10^19 is
/// the largest power of ten below 2^64.
const MAX_FIXED_DIGITS: usize = 19;

/// 10^i for i ≤ [`MAX_FIXED_DIGITS`].
static POW10: [u64; MAX_FIXED_DIGITS + 1] = pow10_table();

/// `"00"` to `"99"`, two bytes per pair.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

/// Stack buffer length: a sign, `"0."`, 24 zeros and 17 digits; or a
/// sign, 20 integer digits, a point and 19 fractional digits.
const BUF_LEN: usize = 48;

/// Limbs of the table generator's integers: 2^1024, the largest, has
/// 1025 bits.
const LIMBS: usize = 17;

/// A little-endian multi-limb unsigned integer for the table generator.
type Limbs = [u64; LIMBS];

/// ⌈log2 5^e⌉, and 1 for e = 0 (exact for e ≤ 3528).
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// ⌊log10 2^e⌋ (exact for e ≤ 1650).
const fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// ⌊log10 5^e⌋ (exact for e ≤ 2620).
const fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// `n · factor + addend`. The generator's numbers never carry out of
/// the top limb.
const fn mul_add(mut n: Limbs, factor: u64, addend: u64) -> Limbs {
    let mut carry = addend as u128;
    let mut i = 0;
    while i < LIMBS {
        let p = n[i] as u128 * factor as u128 + carry;
        n[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
    n
}

/// ⌊n / divisor⌋.
const fn div_small(mut n: Limbs, divisor: u64) -> Limbs {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | n[i] as u128;
        n[i] = (cur / divisor as u128) as u64;
        rem = cur % divisor as u128;
    }
    n
}

/// Limb `i` of `n`, or 0 past the top.
const fn limb(n: &Limbs, i: usize) -> u64 {
    if i < LIMBS {
        n[i]
    } else {
        0
    }
}

/// The low 128 bits of ⌊n / 2^shift⌋, or `n · 2^-shift` for a negative
/// `shift` (`n` then has fewer than 128 bits).
const fn window(n: &Limbs, shift: i32) -> u128 {
    let (first, bit) = if shift < 0 {
        (0, 0)
    } else {
        (shift as usize / 64, shift as u32 % 64)
    };
    let low = (limb(n, first + 1) as u128) << 64 | limb(n, first) as u128;
    if shift < 0 {
        low << -shift
    } else if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(n, first + 2) as u128) << (128 - bit)
    }
}

/// Builds [`POW5`].
const fn pow5_table() -> [u128; 326] {
    let mut table = [0u128; 326];
    // 5^0 = 0·0 + 1.
    let mut pow = mul_add([0; LIMBS], 0, 1);
    let mut i = 0;
    while i < table.len() {
        table[i] = window(&pow, pow5bits(i as u32) as i32 - POW5_BITCOUNT);
        pow = mul_add(pow, 5, 0);
        i += 1;
    }
    table
}

/// Builds [`POW5_INV`].
const fn pow5_inv_table() -> [u128; 342] {
    const TOP: i32 = 64 * (LIMBS as i32 - 1);
    let mut table = [0u128; 342];
    // ⌊2^TOP / 5^i⌋, exact at every step since ⌊⌊x/a⌋/b⌋ = ⌊x/(ab)⌋.
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1;
    let mut i = 0;
    while i < table.len() {
        let k = pow5bits(i as u32) as i32 - 1 + POW5_INV_BITCOUNT;
        table[i] = window(&quot, TOP - k) + 1;
        quot = div_small(quot, 5);
        i += 1;
    }
    table
}

/// Builds [`POW10`].
const fn pow10_table() -> [u64; MAX_FIXED_DIGITS + 1] {
    let mut table = [1u64; MAX_FIXED_DIGITS + 1];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
}

/// Builds [`DIGIT_PAIRS`].
const fn digit_pairs() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

/// Writes `v` exactly as `write!(w, "{}", v)` does.
///
/// # Errors
///
/// Fails only when `w` fails.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// for v in [0.1, -2.5e-7, 1e21, 32.0, f64::NAN] {
///     focal_report::write_shortest(&mut out, v).unwrap();
///     out.push(' ');
/// }
/// assert_eq!(out, "0.1 -0.00000025 1000000000000000000000 32 NaN ");
/// ```
pub fn write_shortest<W: fmt::Write + ?Sized>(w: &mut W, v: f64) -> fmt::Result {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & EXPONENT_SPECIAL;
    if ieee_exponent == EXPONENT_SPECIAL {
        return w.write_str(special(negative, ieee_mantissa));
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        return w.write_str(if negative { "-0" } else { "0" });
    }
    // An integer in [1, 2^53) is its own shortest form: the rounding
    // interval is at most one unit wide, so no other integer (and no
    // number with fewer significant digits) reads back as it.
    if (EXPONENT_BIAS..=UNIT_EXPONENT).contains(&ieee_exponent) {
        let m2 = (1 << MANTISSA_BITS) | ieee_mantissa;
        let fraction_bits = UNIT_EXPONENT - ieee_exponent;
        if m2 & ((1 << fraction_bits) - 1) == 0 {
            return write_decimal(w, negative, m2 >> fraction_bits, 0);
        }
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    write_decimal(w, negative, digits, exponent)
}

/// Writes `v` exactly as `write!(w, "{:.*}", frac_digits, v)` does.
///
/// # Errors
///
/// Fails only when `w` fails.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// for (v, n) in [(0.25, 1), (2.5, 0), (-1e-9, 4), (1.0 / 3.0, 6)] {
///     focal_report::write_fixed(&mut out, v, n).unwrap();
///     out.push(' ');
/// }
/// assert_eq!(out, "0.2 2 -0.0000 0.333333 ");
/// ```
pub fn write_fixed<W: fmt::Write + ?Sized>(w: &mut W, v: f64, frac_digits: usize) -> fmt::Result {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & EXPONENT_SPECIAL;
    if ieee_exponent == EXPONENT_SPECIAL {
        return w.write_str(special(negative, ieee_mantissa));
    }
    // |v| ≥ 2^64 or more digits than one u64 holds: no caller asks for
    // either, and core writes them just as well.
    let Some(&scale) = POW10.get(frac_digits) else {
        return write!(w, "{v:.frac_digits$}");
    };
    if ieee_exponent >= EXPONENT_BIAS + 64 {
        return write!(w, "{v:.frac_digits$}");
    }
    // v = m·2^e, with the subnormals (and zero) at the lowest exponent.
    let (m, e) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - UNIT_EXPONENT as i32)
    } else {
        (
            (1 << MANTISSA_BITS) | ieee_mantissa,
            ieee_exponent as i32 - UNIT_EXPONENT as i32,
        )
    };
    let (mut int, mut frac) = (0u64, 0u64);
    if e >= 0 {
        // m < 2^53 and v < 2^64, so the shift keeps every bit.
        int = m << e;
    } else {
        let k = e.unsigned_abs();
        let rest = if k < 64 {
            int = m >> k;
            m & ((1 << k) - 1)
        } else {
            m
        };
        // rest·10^N < 2^53·2^64 = 2^117 ≤ 2^(k−1) once k ≥ 118, so from
        // there the fraction rounds to zero and `scaled >> k` is not
        // needed.
        if k < 128 {
            let scaled = u128::from(rest) * u128::from(scale);
            let half = 1u128 << (k - 1);
            let below = scaled & ((half << 1) - 1);
            frac = (scaled >> k) as u64;
            // Half to even, on the last digit written.
            let last = if frac_digits == 0 { int } else { frac };
            if below > half || (below == half && last & 1 == 1) {
                frac += 1;
                if frac == scale {
                    frac = 0;
                    int += 1;
                }
            }
        }
    }
    let mut buf = [b'0'; BUF_LEN];
    let mut pos = 0;
    if negative {
        buf[pos] = b'-';
        pos += 1;
    }
    pos += decimal_len(int);
    put_digits(&mut buf, pos, int);
    if frac_digits > 0 {
        buf[pos] = b'.';
        pos += 1 + frac_digits;
        // Leading zeros of the fraction are already in place.
        if frac > 0 {
            put_digits(&mut buf, pos, frac);
        }
    }
    w.write_str(ascii(&buf[..pos])?)
}

/// The text of NaN or an infinity, which both writers spell alike.
fn special(negative: bool, ieee_mantissa: u64) -> &'static str {
    if ieee_mantissa != 0 {
        "NaN"
    } else if negative {
        "-inf"
    } else {
        "inf"
    }
}

/// The shortest `(digits, exponent)` such that `digits·10^exponent`
/// reads back as the finite, nonzero `f64` with these stored fields;
/// among the shortest, the nearest, and at an exact tie the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // v = m2·2^(e2 + 2): the two extra bits make room for the interval
    // ends below.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - UNIT_EXPONENT as i32 - 2)
    } else {
        (
            (1 << MANTISSA_BITS) | ieee_mantissa,
            ieee_exponent as i32 - UNIT_EXPONENT as i32 - 2,
        )
    };
    // Reading back rounds half to even, so the interval's ends belong to
    // it when m2 is even.
    let accept_bounds = m2 & 1 == 0;
    // The value and its interval ends, in units of 2^e2. The lower half
    // gap is half as wide at a power of two (except the lowest normal).
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale all three by 2^e2 / 10^e10, keeping about 17 digits, and
    // note whether the scaled lower end is exact (all dropped digits
    // zero), which lets it be the answer.
    let mut vm_exact = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2.unsigned_abs()) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = q as i32 - e2 + POW5_INV_BITCOUNT + pow5bits(q) as i32 - 1;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Dividing by 10^q was exact only if 5^q divides the end; at most
        // one of mv, mp and mm is a multiple of 5. An exact vr needs no
        // note, because ties round up either way.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(e2.unsigned_abs()) - u32::from(e2 < -1);
        e10 = q as i32 + e2;
        let i = e2.unsigned_abs() - q;
        let shift = q as i32 - (pow5bits(i) as i32 - POW5_BITCOUNT);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Dividing by 2^q was exact only if the end has q trailing zero
        // bits. For q ≤ 1 Ryu counts mp (always even) as exact, so an
        // excluded upper end steps down, and mm as exact when even, that
        // is when its gap was halved.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm & 1 == 0;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_exact {
        // The exact lower end may be the answer, and every dropped digit
        // decides whether it stays exact.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_exact &= vm % 10 == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_exact {
            while vm % 10 == 0 {
                last = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // Ryu rounds an exact tie (`last == 5` with nothing after it) to
        // even here; `{}` rounds it up, which `last >= 5` already does.
        vr + u64::from((vr == vm && !vm_exact) || last >= 5)
    } else {
        // Only the most significant dropped digit decides the rounding,
        // so digits drop in blocks. Whether a block can go is monotone in
        // its size, so 8 + 8 + 4 + 2 + 1 reaches every count up to 23.
        let mut round_up = false;
        for (step, digits) in [
            (100_000_000, 8),
            (100_000_000, 8),
            (10_000, 4),
            (100, 2),
            (10, 1),
        ] {
            let (p, m) = (vp / step, vm / step);
            if p > m {
                let r = vr / step;
                round_up = vr - r * step >= step / 2;
                (vr, vp, vm) = (r, p, m);
                removed += digits;
            }
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// ⌊m·mul / 2^shift⌋ for `m < 2^55`, a 125-bit `mul` and a `shift`
/// that brings the result under 2^64.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// Whether 5^p divides the nonzero `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Writes `digits·10^exponent` positionally, as core's `{}` lays out
/// its shortest digits.
fn write_decimal<W: fmt::Write + ?Sized>(
    w: &mut W,
    negative: bool,
    digits: u64,
    exponent: i32,
) -> fmt::Result {
    let n = decimal_len(digits);
    // The value is 0.DIGITS·10^point.
    let point = exponent + n as i32;
    let mut buf = [b'0'; BUF_LEN];
    let mut pos = 0;
    if negative {
        buf[pos] = b'-';
        pos += 1;
    }
    if point <= 0 {
        // 0.000DIGITS
        let zeros = point.unsigned_abs() as usize;
        pos += 2;
        buf[pos - 1] = b'.';
        if pos + zeros + n > BUF_LEN {
            w.write_str(ascii(&buf[..pos])?)?;
            write_zeros(w, zeros)?;
            put_digits(&mut buf, n, digits);
            return w.write_str(ascii(&buf[..n])?);
        }
        pos += zeros + n;
        put_digits(&mut buf, pos, digits);
    } else if (point as usize) < n {
        // DIG.ITS: write the digits one place right, then move the
        // integer part left over the point.
        let int_len = point as usize;
        put_digits(&mut buf, pos + 1 + n, digits);
        buf.copy_within(pos + 1..pos + 1 + int_len, pos);
        buf[pos + int_len] = b'.';
        pos += 1 + n;
    } else {
        // DIGITS000
        let zeros = point as usize - n;
        pos += n;
        put_digits(&mut buf, pos, digits);
        if pos + zeros > BUF_LEN {
            w.write_str(ascii(&buf[..pos])?)?;
            return write_zeros(w, zeros);
        }
        pos += zeros;
    }
    w.write_str(ascii(&buf[..pos])?)
}

/// Writes `count` zeros.
fn write_zeros<W: fmt::Write + ?Sized>(w: &mut W, mut count: usize) -> fmt::Result {
    const ZEROS: [u8; 64] = [b'0'; 64];
    while count > 0 {
        let run = count.min(ZEROS.len());
        w.write_str(ascii(&ZEROS[..run])?)?;
        count -= run;
    }
    Ok(())
}

/// The number of decimal digits of `v` (1 for 0).
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes the decimal digits of `v` so that they end just before
/// `buf[end]`.
fn put_digits(buf: &mut [u8], mut end: usize, mut v: u64) {
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        buf[end - 1] = b'0' + v as u8;
    }
}

/// `bytes` as text; every byte the writers produce is ASCII.
fn ascii(bytes: &[u8]) -> Result<&str, fmt::Error> {
    std::str::from_utf8(bytes).map_err(|_| fmt::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian base-2^32 digits of `n · f`.
    fn mul_exact(n: &[u32], f: u64) -> Vec<u32> {
        let mut out = vec![0u32; n.len() + 2];
        for (j, fd) in [f as u32, (f >> 32) as u32].into_iter().enumerate() {
            let mut carry = 0u64;
            for (i, &d) in n.iter().enumerate() {
                let p = u64::from(d) * u64::from(fd) + u64::from(out[i + j]) + carry;
                out[i + j] = p as u32;
                carry = p >> 32;
            }
            let mut k = n.len() + j;
            while carry > 0 {
                let p = u64::from(out[k]) + carry;
                out[k] = p as u32;
                carry = p >> 32;
                k += 1;
            }
        }
        while out.len() > 1 && out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// `n · f` for a 128-bit `f`: `n·hi·2^64 + n·lo`.
    fn mul_exact_u128(n: &[u32], f: u128) -> Vec<u32> {
        let mut high = vec![0u32, 0];
        high.extend(mul_exact(n, (f >> 64) as u64));
        add_exact(&high, &mul_exact(n, f as u64))
    }

    fn add_exact(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        let mut carry = 0u64;
        for i in 0..a.len().max(b.len()) {
            let s = u64::from(a.get(i).copied().unwrap_or(0))
                + u64::from(b.get(i).copied().unwrap_or(0))
                + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        while out.len() > 1 && out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn bit_len(n: &[u32]) -> u32 {
        let top = n.len() - 1;
        32 * top as u32 + (32 - n[top].leading_zeros())
    }

    /// ⌊n / 2^shift⌋ (or `n · 2^-shift`) truncated to 128 bits.
    fn bits_from(n: &[u32], shift: i64) -> u128 {
        (0..128).fold(0u128, |acc, j| {
            let b = shift + 127 - j;
            let set = b >= 0
                && n.get(b as usize / 32)
                    .is_some_and(|d| (d >> (b as usize % 32)) & 1 == 1);
            (acc << 1) | u128::from(set)
        })
    }

    #[test]
    fn pow5_table_holds_the_top_125_bits_of_every_power() {
        let mut pow = vec![1u32];
        for (i, &entry) in POW5.iter().enumerate() {
            let len = bit_len(&pow);
            assert_eq!(len, pow5bits(i as u32), "bit length of 5^{i}");
            assert_eq!(entry, bits_from(&pow, i64::from(len) - 125), "POW5[{i}]");
            assert_eq!(entry >> 124, 1, "POW5[{i}] has 125 bits");
            pow = mul_exact(&pow, 5);
        }
    }

    #[test]
    fn pow5_inv_table_holds_the_floor_of_every_inverse_plus_one() {
        // POW5_INV[i] − 1 = ⌊2^k / 5^i⌋ with k = pow5bits(i) − 1 + 125,
        // that is (POW5_INV[i] − 1)·5^i ≤ 2^k < POW5_INV[i]·5^i; for
        // i ≥ 1 the first bound is strict since 5^i does not divide 2^k.
        let mut pow = vec![1u32];
        for (i, &entry) in POW5_INV.iter().enumerate() {
            let k = pow5bits(i as u32) + 124;
            let below = mul_exact_u128(&pow, entry - 1);
            let above = mul_exact_u128(&pow, entry);
            if i == 0 {
                assert_eq!(entry, (1 << 125) + 1);
            } else {
                assert!(bit_len(&below) <= k, "POW5_INV[{i}] too large");
            }
            assert_eq!(bit_len(&above), k + 1, "POW5_INV[{i}] too small");
            pow = mul_exact(&pow, 5);
        }
    }

    #[test]
    fn second_entries_match_ryus_published_tables() {
        // DOUBLE_POW5_SPLIT[1] and DOUBLE_POW5_INV_SPLIT[1].
        assert_eq!(POW5[1], 1_441_151_880_758_558_720u128 << 64);
        assert_eq!(
            POW5_INV[1],
            (1_844_674_407_370_955_161u128 << 64) | 11_068_046_444_225_730_970
        );
    }

    #[test]
    fn small_tables_hold_their_values() {
        for (i, &p) in POW10.iter().enumerate() {
            assert_eq!(p, 10u64.pow(i as u32));
        }
        for i in 0..100 {
            assert_eq!(&DIGIT_PAIRS[2 * i..2 * i + 2], format!("{i:02}").as_bytes());
        }
    }
}

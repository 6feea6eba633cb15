//! `write_shortest` and `write_fixed` against their oracles, core's `{}`
//! and `{:.N}`: random bit patterns, exhaustive edge sets and every
//! number in the committed figure goldens must print byte for byte as
//! core prints them.
//!
//! `PROPTEST_CASES` scales the random sweeps; CI runs them in release
//! mode with a large count.

use focal_report::{write_fixed, write_shortest};
use proptest::prelude::*;
use std::fmt;
use std::path::Path;

/// The fractional digit counts the renderers use, and their neighbours.
const FIXED_DIGITS: [usize; 5] = [0, 1, 2, 4, 6];

fn shortest(v: f64) -> String {
    let mut out = String::new();
    write_shortest(&mut out, v).expect("a String never fails");
    out
}

fn fixed(v: f64, digits: usize) -> String {
    let mut out = String::new();
    write_fixed(&mut out, v, digits).expect("a String never fails");
    out
}

/// Asserts that `v` prints as `{}` prints it.
fn check_shortest(v: f64) {
    assert_eq!(shortest(v), format!("{v}"), "bits {:#018x}", v.to_bits());
}

/// Asserts that `v` prints as `{:.N}` prints it, for `N = digits`.
fn check_fixed(v: f64, digits: usize) {
    assert_eq!(
        fixed(v, digits),
        format!("{v:.digits$}"),
        "bits {:#018x}, {digits} digits",
        v.to_bits()
    );
}

fn check_all(v: f64) {
    check_shortest(v);
    for digits in FIXED_DIGITS {
        check_fixed(v, digits);
    }
}

proptest! {
    #[test]
    fn random_bit_patterns_print_as_display(bits in any::<u64>()) {
        check_shortest(f64::from_bits(bits));
    }

    #[test]
    fn random_bit_patterns_print_as_fixed(bits in any::<u64>(), digits in 0usize..=8) {
        check_fixed(f64::from_bits(bits), digits);
    }

    #[test]
    fn values_below_four_print_as_display(v in 0.0f64..4.0) {
        check_shortest(v);
        check_shortest(-v);
    }

    #[test]
    fn values_below_four_print_as_fixed(v in 0.0f64..4.0, digits in 0usize..=8) {
        check_fixed(v, digits);
        check_fixed(-v, digits);
    }

    #[test]
    fn short_decimals_print_as_display(digits in 1u64..1_000_000, exp in -12i32..12) {
        // Values such as 0.95 or 1.82: few significant digits, the bulk
        // of what the figures print.
        let v: f64 = format!("{digits}e{exp}").parse().expect("a decimal literal");
        check_all(v);
    }
}

#[test]
fn every_binary_exponent_prints_as_core() {
    for exponent in 0u64..2047 {
        for mantissa in [0, 1, 1 << 51, (1 << 52) - 1] {
            for sign in [0, 1u64 << 63] {
                check_all(f64::from_bits(sign | exponent << 52 | mantissa));
            }
        }
    }
}

#[test]
fn every_power_of_ten_prints_as_core() {
    for exp in -323..=308 {
        let v: f64 = format!("1e{exp}").parse().expect("a decimal literal");
        check_all(v);
        check_all(-v);
    }
}

#[test]
fn integers_around_two_to_the_53_print_as_core() {
    let base = 1i64 << 53;
    for offset in -50_000..=50_000 {
        let v = (base + offset) as f64;
        check_shortest(v);
        check_shortest(-v);
        check_fixed(v, 0);
        check_fixed(v, 4);
    }
    // Halves just below 2^53 take the fraction path.
    for offset in 1..=1_000 {
        check_all((base - offset) as f64 - 0.5);
    }
}

#[test]
fn values_around_two_to_the_64_print_as_core() {
    // At 2^64 and beyond the fixed writer hands over to core; just
    // below it still rounds itself.
    let bits = 2f64.powi(64).to_bits();
    for offset in -8i64..=8 {
        let v = f64::from_bits(bits.wrapping_add_signed(offset));
        check_all(v);
        check_all(-v);
    }
    assert_eq!(fixed(2f64.powi(64), 2), "18446744073709551616.00");
    assert_eq!(fixed(f64::from_bits(bits - 1), 1), "18446744073709549568.0");
}

#[test]
fn more_than_nineteen_fractional_digits_print_as_core() {
    for v in [0.1, 1.0 / 3.0, -2.5e-7, 123.456, 5e-324] {
        for digits in [19, 20, 25, 40] {
            check_fixed(v, digits);
        }
    }
}

#[test]
fn an_exact_tie_at_the_shortest_length_rounds_up() {
    // Exactly 1658206780088562.25: both ...2.2 and ...2.3 read back as
    // it, and core picks the upper one where Ryu rounds half to even.
    let v = f64::from_bits(0x4317_9085_685d_83c9);
    assert_eq!(format!("{v}"), "1658206780088562.3");
    assert_eq!(shortest(v), "1658206780088562.3");
    assert_eq!(shortest(-v), "-1658206780088562.3");
}

#[test]
fn fixed_point_ties_round_half_to_even() {
    assert_eq!(fixed(0.25, 1), "0.2");
    assert_eq!(fixed(0.75, 1), "0.8");
    assert_eq!(fixed(2.5, 0), "2");
    assert_eq!(fixed(3.5, 0), "4");
    assert_eq!(fixed(0.5, 0), "0");
    assert_eq!(fixed(-0.5, 0), "-0");
    assert_eq!(fixed(1.5, 0), "2");
    for j in 1..=30 {
        let denominator = f64::from(1u32 << j);
        for k in (1..2048u32).step_by(2) {
            let v = f64::from(k) / denominator;
            for digits in FIXED_DIGITS {
                check_fixed(v, digits);
                check_fixed(-v, digits);
                check_fixed(v + 1.0, digits);
            }
        }
    }
}

#[test]
fn zeros_and_specials_print_as_core() {
    for v in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        5e-324,
        -5e-324,
        1e-5,
        -1e-5,
    ] {
        check_all(v);
    }
    assert_eq!(shortest(-0.0), "-0");
    assert_eq!(fixed(-0.0, 4), "-0.0000");
    assert_eq!(fixed(-1e-9, 4), "-0.0000");
    assert_eq!(fixed(f64::NAN, 4), "NaN");
    assert_eq!(fixed(f64::NEG_INFINITY, 4), "-inf");
    assert_eq!(shortest(5e-324).len(), 326);
    assert_eq!(shortest(1e21).len(), 22);
    assert_eq!(shortest(1e300).len(), 301);
}

#[test]
fn every_golden_figure_number_reprints_as_committed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let mut cells = 0;
    for entry in std::fs::read_dir(&dir).expect("the data directory") {
        let path = entry.expect("a directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a golden CSV");
        for line in text.lines() {
            if line.starts_with('#') || line.starts_with("series,") {
                continue;
            }
            // Series names and labels may hold digits and quoted commas;
            // the two numeric columns are the last two.
            let mut fields = line.rsplitn(3, ',');
            for cell in [fields.next(), fields.next()].into_iter().flatten() {
                let v: f64 = cell.parse().expect("a numeric cell");
                assert_eq!(shortest(v), cell, "{}", path.display());
                cells += 1;
            }
        }
    }
    assert!(cells >= 900, "only {cells} golden cells found");
}

/// A sink that takes `budget` bytes and then fails.
struct Limited {
    budget: usize,
}

impl fmt::Write for Limited {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.budget = self.budget.checked_sub(s.len()).ok_or(fmt::Error)?;
        Ok(())
    }
}

#[test]
fn a_failing_sink_fails_the_write() {
    assert!(write_shortest(&mut Limited { budget: 2 }, 0.125).is_err());
    assert!(write_shortest(&mut Limited { budget: 100 }, 1e300).is_err());
    assert!(write_fixed(&mut Limited { budget: 3 }, 0.125, 4).is_err());
    assert!(write_shortest(&mut Limited { budget: 5 }, 0.125).is_ok());
    // Works through `dyn Write` too.
    let mut out = String::new();
    let sink: &mut dyn fmt::Write = &mut out;
    write_shortest(sink, 1.5).expect("a String never fails");
    write!(sink, "|").expect("a String never fails");
    write_fixed(sink, 1.5, 2).expect("a String never fails");
    assert_eq!(out, "1.5|1.50");
}

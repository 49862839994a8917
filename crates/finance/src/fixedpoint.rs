//! Fixed-point lattice pricing — the "custom data types" the paper
//! deliberately left on the table.
//!
//! Section V.B: "Further gain in efficiency could be achieved by manual
//! fine tuning (i.e. custom data types), as seen in classic FPGA designs.
//! We chose not to do so as it would not yield significant enough benefits
//! compared with the necessary development time." This module implements
//! that ablation: the same CRR backward induction in signed fixed-point
//! arithmetic with a configurable number of fraction bits, so the
//! accuracy-vs-width trade-off the paper alludes to can be measured. On a
//! real FPGA a fixed-point multiplier costs a fraction of a double
//! multiplier (roughly 4 vs 13 DSP18 elements at 64-bit), which is exactly
//! the kind of saving the related work the paper cites (\[9\], \[12\])
//! exploits.

use crate::binomial::CrrParams;
use crate::types::{ExerciseStyle, OptionParams};

/// A signed fixed-point value with a runtime fraction width.
///
/// Arithmetic goes through `i128` intermediates, mirroring a DSP-block
/// multiplier with a wide accumulator and a final truncating shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i64,
    frac_bits: u32,
}

impl Fixed {
    /// Encode an `f64` (round-to-nearest).
    ///
    /// # Panics
    /// Panics if `frac_bits >= 63` or the value does not fit.
    pub fn from_f64(x: f64, frac_bits: u32) -> Fixed {
        assert!(frac_bits < 63, "fraction width too large");
        let scaled = x * (1u64 << frac_bits) as f64;
        assert!(
            scaled.abs() < i64::MAX as f64 / 2.0,
            "value {x} overflows Q{}.{frac_bits}",
            63 - frac_bits
        );
        Fixed { raw: scaled.round() as i64, frac_bits }
    }

    /// Decode back to `f64`.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / (1u64 << self.frac_bits) as f64
    }

    /// Maximum.
    pub fn max(self, other: Fixed) -> Fixed {
        if self.raw >= other.raw {
            self
        } else {
            other
        }
    }

    /// The zero of this format.
    pub fn zero(frac_bits: u32) -> Fixed {
        Fixed { raw: 0, frac_bits }
    }
}

impl std::ops::Mul for Fixed {
    type Output = Fixed;

    /// Fixed-point multiply (truncating, like a hardware multiplier).
    ///
    /// # Panics
    /// Panics on mismatched fraction widths.
    fn mul(self, other: Fixed) -> Fixed {
        assert_eq!(self.frac_bits, other.frac_bits, "mixed fixed-point formats");
        let wide = self.raw as i128 * other.raw as i128;
        Fixed { raw: (wide >> self.frac_bits) as i64, frac_bits: self.frac_bits }
    }
}

impl std::ops::Add for Fixed {
    type Output = Fixed;

    /// Wrapping add (a hardware adder; debug builds overflow-check encode).
    ///
    /// # Panics
    /// Panics on mismatched fraction widths.
    fn add(self, other: Fixed) -> Fixed {
        assert_eq!(self.frac_bits, other.frac_bits, "mixed fixed-point formats");
        Fixed { raw: self.raw.wrapping_add(other.raw), frac_bits: self.frac_bits }
    }
}

impl std::ops::Sub for Fixed {
    type Output = Fixed;

    /// Wrapping subtract.
    ///
    /// # Panics
    /// Panics on mismatched fraction widths.
    fn sub(self, other: Fixed) -> Fixed {
        assert_eq!(self.frac_bits, other.frac_bits, "mixed fixed-point formats");
        Fixed { raw: self.raw.wrapping_sub(other.raw), frac_bits: self.frac_bits }
    }
}

/// Price `option` on an `n_steps` CRR lattice entirely in fixed point with
/// `frac_bits` fraction bits. Leaves are computed in `f64` on the "host"
/// and quantised (as kernel IV.A does); the backward induction — the part
/// that would live in FPGA fabric — runs in fixed point.
///
/// # Panics
/// Panics if `n_steps` is zero, the option is invalid, or the format
/// cannot represent the prices involved.
pub fn price_american_fixed(option: &OptionParams, n_steps: usize, frac_bits: u32) -> f64 {
    let c = CrrParams::from_option(option, n_steps);
    let phi = option.kind.phi();
    let n = n_steps;
    let fx = |x: f64| Fixed::from_f64(x, frac_bits);

    let pd = fx(c.pd);
    let qd = fx(c.qd);
    let u = fx(c.u);
    let strike = fx(option.strike);
    let american = option.style == ExerciseStyle::American;

    // Host-side leaves, quantised on entry.
    let mut values: Vec<Fixed> = (0..=n)
        .map(|j| {
            let s = option.spot * c.u.powi(2 * j as i32 - n as i32);
            fx((phi * (s - option.strike)).max(0.0))
        })
        .collect();
    // Track S(t,0) in fixed point too (one multiply per row, like the
    // kernels).
    let mut s_low = fx(option.spot * c.u.powi(-(n as i32)));
    let u2 = u * u;
    for t in (0..n).rev() {
        s_low = s_low * u;
        let mut s = s_low;
        for j in 0..=t {
            let cont = pd * values[j + 1] + qd * values[j];
            values[j] = if american {
                let ex = if phi > 0.0 { s - strike } else { strike - s };
                ex.max(cont)
            } else {
                cont
            };
            s = s * u2;
        }
    }
    values[0].to_f64()
}

/// One point of the precision sweep: fraction bits vs absolute error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointPoint {
    /// Fraction bits used.
    pub frac_bits: u32,
    /// Absolute price error against the `f64` reference.
    pub abs_error: f64,
}

/// Sweep fraction widths for one option, reporting the error curve the
/// paper's "custom data types" remark implies.
pub fn precision_sweep(
    option: &OptionParams,
    n_steps: usize,
    widths: &[u32],
) -> Vec<FixedPointPoint> {
    let reference = crate::binomial::price_american_f64(option, n_steps);
    widths
        .iter()
        .map(|&frac_bits| FixedPointPoint {
            frac_bits,
            abs_error: (price_american_fixed(option, n_steps, frac_bits) - reference).abs(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::price_american_f64;

    #[test]
    fn fixed_round_trips_and_multiplies() {
        let a = Fixed::from_f64(1.5, 32);
        assert_eq!(a.to_f64(), 1.5);
        let b = Fixed::from_f64(2.25, 32);
        assert_eq!((a * b).to_f64(), 3.375);
        assert_eq!((a + b).to_f64(), 3.75);
        assert_eq!((b - a).to_f64(), 0.75);
        assert_eq!(a.max(b), b);
        assert_eq!(Fixed::zero(32).to_f64(), 0.0);
    }

    #[test]
    fn wide_formats_match_the_double_reference() {
        let o = OptionParams::example();
        let n = 256;
        let reference = price_american_f64(&o, n);
        let fixed = price_american_fixed(&o, n, 44);
        assert!(
            (fixed - reference).abs() < 1e-6,
            "44 fraction bits should be plenty: {fixed} vs {reference}"
        );
    }

    #[test]
    fn error_shrinks_with_width() {
        let o = OptionParams::example();
        let sweep = precision_sweep(&o, 128, &[12, 16, 24, 32, 44]);
        for w in sweep.windows(2) {
            assert!(
                w[1].abs_error <= w[0].abs_error * 1.5 + 1e-12,
                "error should (roughly) shrink with width: {sweep:?}"
            );
        }
        assert!(sweep[0].abs_error > sweep.last().expect("nonempty").abs_error);
        // The narrow end is visibly wrong, the wide end visibly right.
        assert!(sweep[0].abs_error > 1e-3);
        assert!(sweep.last().expect("nonempty").abs_error < 1e-6);
    }

    #[test]
    fn american_floor_respected_in_fixed_point() {
        let mut o = OptionParams::example();
        o.kind = crate::types::OptionKind::Put;
        o.strike = 150.0;
        let p = price_american_fixed(&o, 128, 32);
        assert!(p >= o.intrinsic() - 1e-6, "never below intrinsic: {p}");
    }

    #[test]
    #[should_panic(expected = "fraction width too large")]
    fn oversized_format_rejected() {
        let _ = Fixed::from_f64(1.0, 63);
    }
}

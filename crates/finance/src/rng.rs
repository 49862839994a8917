//! A small deterministic pseudo-random generator for workload synthesis
//! and Monte Carlo sampling.
//!
//! The workspace builds offline with no registry dependencies, so instead
//! of the `rand` crate this module provides the one thing the repo needs:
//! a seedable, reproducible stream of uniform doubles. The generator is
//! SplitMix64 (Steele, Lea & Flood, *Fast splittable pseudorandom number
//! generators*, OOPSLA 2014) — a 64-bit state avalanche mixer with
//! equidistributed outputs, period 2^64, and no correlations detectable at
//! the sample counts used here. Statistical quality is far beyond what
//! jittered strike ladders and antithetic GBM sampling require.

/// A seedable SplitMix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Every seed yields an independent,
    /// reproducible stream.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform double in `[0, 1)` with 53 bits of mantissa entropy.
    pub fn next_f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53: the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `lo..=hi` (modulo reduction: the bias is
    /// below `span / 2^64`, invisible for the small spans used here).
    ///
    /// # Panics
    /// Panics if the range is empty or covers all of `i64`.
    pub fn int(&mut self, range: std::ops::RangeInclusive<i64>) -> i64 {
        let (lo, hi) = range.into_inner();
        assert!(lo <= hi, "bad range {lo}..={hi}");
        let span = hi.abs_diff(lo).checked_add(1).expect("range narrower than i64");
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform double in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform double in the open interval `(0, 1]` — safe to pass to
    /// `ln` (Box-Muller needs a strictly positive argument).
    pub fn next_f64_open0(&mut self) -> f64 {
        1.0 - self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        let mut c = SplitMix64::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_stays_in_range_and_fills_it() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut lo_seen = f64::MAX;
        let mut hi_seen = f64::MIN;
        for _ in 0..10_000 {
            let x = rng.uniform(-0.25, 0.75);
            assert!((-0.25..0.75).contains(&x));
            lo_seen = lo_seen.min(x);
            hi_seen = hi_seen.max(x);
        }
        assert!(lo_seen < -0.2, "lower quarter reached: {lo_seen}");
        assert!(hi_seen > 0.7, "upper edge reached: {hi_seen}");
    }

    #[test]
    fn int_covers_its_inclusive_range() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let x = rng.int(-2..=2);
            seen[(x + 2) as usize] = true;
        }
        assert_eq!(seen, [true; 5], "both ends and the middle are drawn");
        assert_eq!(rng.int(i64::MIN..=i64::MIN), i64::MIN);
    }

    #[test]
    fn mean_and_variance_look_uniform() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "variance {var}");
    }

    #[test]
    fn open0_never_returns_zero_shape() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64_open0();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn empty_range_rejected() {
        let mut rng = SplitMix64::seed_from_u64(0);
        let _ = rng.uniform(1.0, 1.0);
    }
}

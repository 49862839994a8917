//! Performance-model fitting: project paper-scale workloads from small
//! functional runs.
//!
//! Interpreting the paper's full workload (1024 steps x 2000 options ~ 1e9
//! node updates) is infeasible, and this separation is exactly how real
//! FPGA flows work: functional simulation at reduced size, performance
//! from the compiled image's timing model. The dynamic statistics of the
//! lattice kernels are polynomial in the step count `n` (the tree has
//! n(n+1)/2 interior nodes), so per-option statistics measured at three
//! small sizes determine the quadratic exactly; a fourth size validates
//! the fit. Timing-only queue runs then replay the full host program with
//! the extrapolated statistics.

use bop_clir::stats::ExecStats;

/// Calibration sizes. All ≡ 0 (mod 8) so parity effects of the unrolled
/// loop are consistent with the (even) paper size N = 1024.
pub const CALIBRATION_STEPS: [usize; 3] = [24, 40, 56];
/// A fourth size used by tests to validate fits.
pub const VALIDATION_STEPS: usize = 72;

/// A per-metric quadratic model of per-option statistics as a function of
/// the lattice step count.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsFit {
    blocks: usize,
    /// Per flattened metric: `[c0, c1, c2]` with `metric(n) = c0 + c1 n +
    /// c2 n^2`.
    coeffs: Vec<[f64; 3]>,
}

impl StatsFit {
    /// Fit the quadratic through per-option statistics measured at the
    /// three sizes `ns`.
    ///
    /// # Panics
    /// Panics if the three sizes are not distinct or the samples belong to
    /// different kernels.
    pub fn fit(ns: [usize; 3], samples: [&ExecStats; 3]) -> StatsFit {
        assert!(
            ns[0] != ns[1] && ns[1] != ns[2] && ns[0] != ns[2],
            "calibration sizes must be distinct"
        );
        let blocks = samples[0].block_execs.len();
        assert!(
            samples.iter().all(|s| s.block_execs.len() == blocks),
            "samples from different kernels"
        );
        let vs = samples.map(ExecStats::to_counts);
        let x = [ns[0] as f64, ns[1] as f64, ns[2] as f64];
        let coeffs = (0..vs[0].len())
            .map(|k| solve_quadratic(x, vs.each_ref().map(|v| v[k] as f64)))
            .collect();
        StatsFit { blocks, coeffs }
    }

    /// Evaluate the fitted per-option statistics at step count `n`,
    /// rounded to counts.
    pub fn per_option(&self, n: usize) -> ExecStats {
        let x = n as f64;
        let counts: Vec<u64> = self
            .coeffs
            .iter()
            .map(|c| (c[0] + c[1] * x + c[2] * x * x).max(0.0).round() as u64)
            .collect();
        ExecStats::from_counts(&counts, self.blocks)
    }
}

/// Solve the 3x3 Vandermonde system for an exact quadratic through three
/// points (Lagrange form).
fn solve_quadratic(x: [f64; 3], y: [f64; 3]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for i in 0..3 {
        let (xi, yi) = (x[i], y[i]);
        let (xj, xk) = (x[(i + 1) % 3], x[(i + 2) % 3]);
        let denom = (xi - xj) * (xi - xk);
        // yi * (t - xj)(t - xk) / denom  =  yi/denom * (t^2 - (xj+xk) t + xj xk)
        let s = yi / denom;
        out[0] += s * xj * xk;
        out[1] -= s * (xj + xk);
        out[2] += s;
    }
    out
}

/// Scale per-option statistics to a batch of `k` options, with exact
/// u64 scaling.
pub fn scale_to_batch(per_option: &ExecStats, k: usize) -> ExecStats {
    per_option.scaled(k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_solver_exact() {
        // y = 2 + 3n + 0.5 n^2
        let f = |n: f64| 2.0 + 3.0 * n + 0.5 * n * n;
        let c = solve_quadratic([2.0, 5.0, 9.0], [f(2.0), f(5.0), f(9.0)]);
        assert!((c[0] - 2.0).abs() < 1e-9);
        assert!((c[1] - 3.0).abs() < 1e-9);
        assert!((c[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fit_round_trips_quadratic_metrics() {
        let mk = |n: u64| {
            let mut s = ExecStats::with_blocks(2);
            s.block_execs[0] = n + 1; // linear
            s.block_execs[1] = n * (n + 1) / 2; // quadratic
            s.barriers = 2 * n; // linear
            s.ops.mul64 = 3 * n * (n + 1) / 2;
            s
        };
        let (a, b, c) = (mk(24), mk(40), mk(56));
        let fit = StatsFit::fit([24, 40, 56], [&a, &b, &c]);
        let predicted = fit.per_option(1024);
        let expected = mk(1024);
        assert_eq!(predicted.block_execs, expected.block_execs);
        assert_eq!(predicted.barriers, expected.barriers);
        assert_eq!(predicted.ops.mul64, expected.ops.mul64);
    }

    #[test]
    fn scaling_to_batches() {
        let mut s = ExecStats::with_blocks(1);
        s.block_execs[0] = 10;
        s.ops.pow64 = 5;
        let b = scale_to_batch(&s, 2000);
        assert_eq!(b.block_execs[0], 20_000);
        assert_eq!(b.ops.pow64, 10_000);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_sizes_rejected() {
        let s = ExecStats::with_blocks(1);
        let _ = StatsFit::fit([8, 8, 16], [&s, &s, &s]);
    }
}

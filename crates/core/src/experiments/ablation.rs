//! E10 — ablations of the design choices discussed in Sections IV, V
//! and the conclusion.
//!
//! * **Reduced reads** — the paper's "modified version of this kernel on
//!   GPU, with a reduced number of read operations between host and
//!   device, has an acceleration factor 14 times better" (Section V.C).
//! * **Build-option grid** — vectorization / replication / unrolling,
//!   "3 parameters that help reach the best compromise between resource
//!   utilization, latency and throughput" (Section V.B).
//! * **Frequency scaling** — the conclusion's proposal: "either clock
//!   frequency or parallelism levels can be lowered to reduce energy
//!   consumption" toward the 10 W budget.

use crate::accelerator::Accelerator;
use crate::error::Error;
use crate::kernels::KernelArch;
use bop_cpu::Precision;
use bop_ocl::BuildOptions;
use std::sync::Arc;

/// Result of the reduced-reads ablation on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedReadsResult {
    /// Device name.
    pub device: String,
    /// Naive (full ping-pong read) throughput, options/s.
    pub naive_options_per_s: f64,
    /// Modified (root-only read) throughput, options/s.
    pub modified_options_per_s: f64,
}

impl ReducedReadsResult {
    /// The acceleration factor of the modified version (the paper reports
    /// 14x on the GPU).
    pub fn speedup(&self) -> f64 {
        self.modified_options_per_s / self.naive_options_per_s
    }
}

/// Compare full-read and root-only-read variants of kernel IV.A.
///
/// # Errors
/// Propagates accelerator failures.
pub fn reduced_reads(
    device: Arc<dyn bop_ocl::Device>,
    n_steps: usize,
    n_options: usize,
) -> Result<ReducedReadsResult, Error> {
    let name = device.info().name.clone();
    let naive = Accelerator::builder(device.clone())
        .arch(KernelArch::Straightforward)
        .precision(Precision::Double)
        .n_steps(n_steps)
        .build()?;
    let modified = Accelerator::builder(device)
        .arch(KernelArch::Straightforward)
        .precision(Precision::Double)
        .n_steps(n_steps)
        .reduced_reads()
        .build()?;
    Ok(ReducedReadsResult {
        device: name,
        naive_options_per_s: naive.project(n_options)?.options_per_s,
        modified_options_per_s: modified.project(n_options)?.options_per_s,
    })
}

/// One point of the build-option exploration grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Build options tried.
    pub build: BuildOptions,
    /// `None` if the design did not fit; otherwise the outcome.
    pub outcome: Option<GridOutcome>,
}

/// Fit + performance of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// Logic utilization.
    pub logic_util: f64,
    /// Kernel clock, Hz.
    pub clock_hz: f64,
    /// Power, watts.
    pub power_watts: f64,
    /// Throughput, options/s.
    pub options_per_s: f64,
    /// Energy efficiency, options/J.
    pub options_per_j: f64,
}

/// Explore the (simd, unroll) grid for kernel IV.B on the FPGA — the
/// design-space exploration behind the paper's chosen unroll 2 x vec 4.
///
/// # Errors
/// Propagates accelerator failures other than fit failures (which become
/// `outcome: None`).
pub fn build_grid(
    n_steps: usize,
    n_options: usize,
    simds: &[u32],
    unrolls: &[u32],
) -> Result<Vec<GridPoint>, Error> {
    let mut grid = Vec::new();
    for &simd in simds {
        for &unroll in unrolls {
            let build = BuildOptions {
                simd,
                compute_units: 1,
                unroll: Some(unroll),
                ..BuildOptions::default()
            };
            let acc = match Accelerator::builder(crate::devices::fpga())
                .arch(KernelArch::Optimized)
                .precision(Precision::Double)
                .n_steps(n_steps)
                .build_options(build.clone())
                .build()
            {
                Ok(acc) => acc,
                Err(Error::Build(_)) => {
                    grid.push(GridPoint { build, outcome: None });
                    continue;
                }
                Err(e) => return Err(e),
            };
            let report = acc.report().clone();
            let projection = acc.project(n_options)?;
            grid.push(GridPoint {
                build,
                outcome: Some(GridOutcome {
                    logic_util: report.logic_utilization.unwrap_or(0.0),
                    clock_hz: report.clock_hz,
                    power_watts: report.power_watts,
                    options_per_s: projection.options_per_s,
                    options_per_j: projection.options_per_j,
                }),
            });
        }
    }
    Ok(grid)
}

/// The conclusion's frequency/power trade-off: run kernel IV.B as built,
/// but at a derated clock, and report throughput and power. Power scales
/// with the dynamic fraction (static power does not shrink), so energy
/// per option *improves* as long as throughput still meets the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyPoint {
    /// Fraction of the fitted Fmax, 0..=1.
    pub clock_fraction: f64,
    /// Throughput at this clock, options/s.
    pub options_per_s: f64,
    /// Power at this clock, watts.
    pub power_watts: f64,
    /// Energy efficiency, options/J.
    pub options_per_j: f64,
    /// Does this point still meet the paper's 2000 options/s goal?
    pub meets_goal: bool,
    /// Does it fit the paper's 10 W budget?
    pub within_budget: bool,
}

/// Sweep clock fractions for kernel IV.B on the FPGA.
///
/// # Errors
/// Propagates accelerator failures.
pub fn frequency_sweep(
    n_steps: usize,
    n_options: usize,
    fractions: &[f64],
) -> Result<Vec<FrequencyPoint>, Error> {
    let acc = Accelerator::builder(crate::devices::fpga())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(n_steps)
        .build()?;
    let report = acc.report().clone();
    let base = acc.project(n_options)?;
    let static_w = bop_fpga::calib::POWER_STATIC_W;
    let dynamic_w = report.power_watts - static_w;
    Ok(fractions
        .iter()
        .map(|&f| {
            // Kernel time is clock-bound; transfers are not. At paper
            // scale IV.B is >99% kernel-bound, so throughput ~ f.
            let options_per_s = base.options_per_s * f;
            let power_watts = static_w + dynamic_w * f;
            FrequencyPoint {
                clock_fraction: f,
                options_per_s,
                power_watts,
                options_per_j: options_per_s / power_watts,
                meets_goal: options_per_s >= 2000.0,
                within_budget: power_watts <= 10.0,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_reads_speedup_is_an_order_of_magnitude_on_gpu() {
        // The paper reports 14x (840 vs 58.4 options/s) at N = 1024; the
        // effect is already dramatic at reduced scale.
        // The effect grows with the buffer size (n^2): already 4x at
        // n = 256, the paper's 14x at N = 1024 (checked by the ablation
        // bench binary at full scale).
        let r = reduced_reads(crate::devices::gpu(), 256, 256).expect("runs");
        assert!(r.speedup() > 3.0, "reduced reads must be many times faster: {}x", r.speedup());
    }

    #[test]
    fn grid_contains_the_paper_point_and_infeasible_corners() {
        let grid = build_grid(128, 128, &[1, 2, 4, 8, 16], &[1, 2, 4]).expect("explores");
        let paper = grid
            .iter()
            .find(|p| p.build.simd == 4 && p.build.unroll == Some(2))
            .expect("paper point present");
        assert!(paper.outcome.is_some(), "the paper's configuration fits");
        assert!(
            grid.iter().any(|p| p.outcome.is_none()),
            "some aggressive corner must fail to fit"
        );
        // More lanes => more throughput, while it fits.
        let t = |simd: u32, unroll: u32| {
            grid.iter()
                .find(|p| p.build.simd == simd && p.build.unroll == Some(unroll))
                .and_then(|p| p.outcome.as_ref())
                .map(|o| o.options_per_s)
        };
        if let (Some(a), Some(b)) = (t(1, 1), t(4, 2)) {
            assert!(b > a * 3.0, "paper point much faster than scalar: {a} vs {b}");
        }
    }

    #[test]
    fn frequency_scaling_reaches_the_power_budget() {
        let points =
            frequency_sweep(256, 512, &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]).expect("sweeps");
        assert!(points[0].power_watts > 10.0, "full clock exceeds the 10 W budget");
        let feasible: Vec<_> = points.iter().filter(|p| p.within_budget).collect();
        assert!(!feasible.is_empty(), "derating must reach the budget eventually");
        // Energy efficiency improves as the static share is amortised less:
        // options/J = rate / (static + dyn f) — decreasing f *hurts* when
        // static dominates; the sweep exposes the trade-off either way.
        for w in points.windows(2) {
            assert!(w[1].power_watts < w[0].power_watts);
            assert!(w[1].options_per_s < w[0].options_per_s);
        }
    }
}

/// D. CSE ablation: what common-subexpression elimination does
/// to the fitted design (an optimisation Altera's flow applies that our
/// default calibration deliberately leaves off — see
/// `bop_ocl::BuildOptions::cse`).
#[derive(Debug, Clone, PartialEq)]
pub struct CseAblation {
    /// Which kernel.
    pub arch: KernelArch,
    /// Fit without CSE (the calibrated default).
    pub plain: crate::experiments::table1::Table1Entry,
    /// Fit with CSE enabled.
    pub cse: crate::experiments::table1::Table1Entry,
}

/// Fit both kernels with and without CSE.
///
/// # Errors
/// Propagates build failures.
pub fn cse_ablation() -> Result<Vec<CseAblation>, Error> {
    use crate::experiments::table1::fit_kernel_with;
    let mut out = Vec::new();
    for arch in [KernelArch::Straightforward, KernelArch::Optimized] {
        let plain = fit_kernel_with(arch, arch.paper_build_options())?;
        let mut build = arch.paper_build_options();
        build.cse = true;
        let cse = fit_kernel_with(arch, build)?;
        out.push(CseAblation { arch, plain, cse });
    }
    Ok(out)
}

#[cfg(test)]
mod cse_ablation_tests {
    use super::*;

    #[test]
    fn cse_never_increases_logic() {
        for row in cse_ablation().expect("fits") {
            assert!(
                row.cse.logic_util <= row.plain.logic_util + 1e-9,
                "{}: CSE must not add logic: {} vs {}",
                row.arch,
                row.cse.logic_util,
                row.plain.logic_util
            );
            assert!(
                row.cse.clock_hz >= row.plain.clock_hz - 1.0,
                "{}: a smaller design closes at least as fast",
                row.arch
            );
        }
    }

    #[test]
    fn cse_helps_the_redundant_kernel_most() {
        // IV.A recomputes `t * 5` per parameter; IV.B has little sharing.
        let rows = cse_ablation().expect("fits");
        let saving = |r: &CseAblation| r.plain.logic_util - r.cse.logic_util;
        let a = rows.iter().find(|r| r.arch == KernelArch::Straightforward).expect("IV.A");
        assert!(saving(a) >= 0.0);
    }
}

/// E. Fixed-point ablation — the "custom data types" the paper declined
/// (Section V.B). Reports the accuracy curve of a fixed-point backward
/// induction and the hypothetical DSP saving of replacing the double
/// multipliers with 64-bit integer ones.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPointAblation {
    /// Fraction-width sweep (bits vs absolute error) on the example option.
    pub sweep: Vec<bop_finance::fixedpoint::FixedPointPoint>,
    /// DSP elements of the fitted IV.B image (double precision).
    pub double_dsp: u64,
    /// Hypothetical DSP count with 64-bit fixed-point multipliers
    /// (4 DSP18 per multiply instead of 13; the pow core is unchanged —
    /// leaves stay on the host in a fixed-point design).
    pub fixed_dsp_estimate: u64,
}

/// Run the fixed-point ablation at `n_steps`.
///
/// # Errors
/// Propagates build failures.
pub fn fixed_point(n_steps: usize) -> Result<FixedPointAblation, Error> {
    let sweep = bop_finance::fixedpoint::precision_sweep(
        &bop_finance::types::OptionParams::example(),
        n_steps,
        &[12, 16, 20, 24, 32, 44],
    );
    let entry = crate::experiments::table1::fit_kernel(KernelArch::Optimized)?;
    // 10 f64 multiplies per lane x 4 lanes at 13 DSP each -> 4 DSP each,
    // and the pow core (48 DSP/lane) is removed (host leaves).
    let mul_saving = 10 * 4 * (13 - 4);
    let pow_saving = 48 * 4;
    let fixed_dsp_estimate = entry.dsp18.saturating_sub(mul_saving + pow_saving);
    Ok(FixedPointAblation { sweep, double_dsp: entry.dsp18, fixed_dsp_estimate })
}

#[cfg(test)]
mod fixed_point_tests {
    use super::*;

    #[test]
    fn fixed_point_story_holds() {
        let a = fixed_point(128).expect("runs");
        // The error curve must cross the paper's accuracy requirement
        // somewhere: narrow widths fail it, wide widths meet it.
        assert!(a.sweep.first().expect("points").abs_error > 1e-3);
        assert!(a.sweep.last().expect("points").abs_error < 1e-6);
        // And the resource head-room the paper alludes to is real.
        assert!(a.fixed_dsp_estimate < a.double_dsp / 2);
    }
}

/// F. The conclusion's what-if: can a different board hold *both*
/// constraints (2000 options/s AND 10 W)? On the DE4 the answer is no
/// (derating to 10 W costs too much speed at N = 1024); this driver fits
/// kernel IV.B on a newer, larger part, then derates its clock to the
/// slowest speed that still meets the throughput goal and reports the
/// resulting power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConclusionWhatIf {
    /// Full-clock throughput on the new part, options/s.
    pub full_options_per_s: f64,
    /// Full-clock power, watts.
    pub full_power_w: f64,
    /// Clock fraction chosen to just meet 2000 options/s.
    pub derated_fraction: f64,
    /// Derated throughput, options/s.
    pub derated_options_per_s: f64,
    /// Derated power, watts.
    pub derated_power_w: f64,
    /// Both constraints met?
    pub feasible: bool,
}

/// Evaluate the what-if at lattice size `n_steps` (use the paper's 1023
/// for the real question).
///
/// # Errors
/// Propagates build/projection failures.
pub fn conclusion_whatif(n_steps: usize) -> Result<ConclusionWhatIf, Error> {
    let device = bop_fpga::FpgaDevice::with_part(
        bop_fpga::FpgaPart::ep5sgxa7(),
        bop_clir::mathlib::DeviceMath::altera_13_0(),
    );
    let acc = Accelerator::builder(device)
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(n_steps)
        .build()?;
    let report = acc.report().clone();
    let base = acc.project(2000)?;
    let static_w = bop_fpga::calib::POWER_STATIC_W;
    let dynamic_w = report.power_watts - static_w;
    // Derate to the slowest clock that still meets the goal (kernel-bound
    // at paper scale, so throughput ~ clock).
    let fraction = (2000.0 / base.options_per_s).clamp(0.05, 1.0);
    let derated_rate = base.options_per_s * fraction;
    let derated_power = static_w + dynamic_w * fraction;
    Ok(ConclusionWhatIf {
        full_options_per_s: base.options_per_s,
        full_power_w: report.power_watts,
        derated_fraction: fraction,
        derated_options_per_s: derated_rate,
        derated_power_w: derated_power,
        feasible: derated_rate >= 2000.0 * 0.999 && derated_power <= 10.0,
    })
}

#[cfg(test)]
mod whatif_tests {
    use super::*;

    #[test]
    fn a_newer_part_meets_both_constraints_where_the_de4_cannot() {
        let w = conclusion_whatif(crate::experiments::table2::PAPER_STEPS).expect("runs");
        assert!(
            w.full_options_per_s > 3000.0,
            "the bigger part is faster at full clock: {}",
            w.full_options_per_s
        );
        assert!(w.full_power_w > 10.0, "at full clock it still busts the budget");
        assert!(
            w.feasible,
            "derated, it should hold both constraints: {:.0} options/s at {:.1} W",
            w.derated_options_per_s, w.derated_power_w
        );
    }
}

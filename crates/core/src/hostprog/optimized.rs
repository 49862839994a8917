//! Host program for kernel IV.B and every kernel that shares its
//! dataflow: the host-leaves, European, barrier and Bermudan variants.
//!
//! The paper's Section IV.B host protocol, verbatim: "(1) copying all
//! option parameters in global memory, (2) enqueueing enough kernels to
//! process all the data, (3) and read back the final results from global
//! memory." The payoff kernels (barrier, Bermudan) follow the same
//! protocol with the per-option parameter block widened from 6 to 8
//! values, so the payoff-specific inputs (barrier level and knock
//! direction, or the Bermudan exercise spacing) ride along in the same
//! transfer.

use super::{leaf_assets, option_coefficients, read_reals, real_width, write_reals};
use bop_cpu::Precision;
use bop_finance::payoff::Payoff;
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::RuntimeError;
use bop_ocl::{CommandQueue, Context, Program};
use std::sync::Arc;

/// The two payoff-specific parameter-block slots (`[o*8+6]`, `[o*8+7]`):
/// barrier level + knock direction, or exercise spacing + unused.
pub(crate) fn payoff_extras(payoff: Payoff) -> [f64; 2] {
    match payoff {
        Payoff::Barrier { kind, level } => [level, kind.direction()],
        Payoff::Bermudan { exercise_every } => [exercise_every as f64, 0.0],
        // The vanilla kernels read 6-wide blocks and never see these.
        Payoff::European | Payoff::American => [0.0, 0.0],
    }
}

/// The optimized host program.
#[derive(Debug, Clone, Copy)]
pub struct OptimizedHost {
    /// Lattice steps (work-group size is `n_steps + 1`).
    pub n_steps: usize,
    /// Kernel precision.
    pub precision: Precision,
    /// Use the host-leaves kernel variant (Section V.C fallback).
    pub host_leaves: bool,
    /// Kernel entry point (`binomial_option`, `binomial_option_hostleaves`,
    /// or one of the extensions `binomial_european`, `binomial_barrier`,
    /// `binomial_bermudan`).
    pub kernel_name: &'static str,
}

impl OptimizedHost {
    /// Price `options` on a vanilla kernel (6-value parameter blocks),
    /// returning prices in input order.
    ///
    /// # Errors
    /// Propagates runtime errors from the queue (capacity, execution).
    ///
    /// # Panics
    /// Panics if `options` is empty or any option is invalid.
    pub fn run(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
    ) -> Result<Vec<f64>, RuntimeError> {
        self.run_inner(ctx, queue, program, options, None)
    }

    /// Price `options` on a payoff kernel (barrier, Bermudan) under their
    /// per-option `payoffs`, whose parameters widen each block to 8
    /// values; returns prices in input order.
    ///
    /// # Errors
    /// Propagates runtime errors from the queue (capacity, execution).
    ///
    /// # Panics
    /// Panics if the batch is empty, the lengths differ, or any option
    /// is invalid.
    pub fn run_payoffs(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
        payoffs: &[Payoff],
    ) -> Result<Vec<f64>, RuntimeError> {
        assert_eq!(options.len(), payoffs.len(), "one payoff per option");
        self.run_inner(ctx, queue, program, options, Some(payoffs))
    }

    fn run_inner(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
        payoffs: Option<&[Payoff]>,
    ) -> Result<Vec<f64>, RuntimeError> {
        assert!(!options.is_empty(), "empty batch");
        let span =
            queue.begin_span(&format!("IV.B {} ({} options)", self.kernel_name, options.len()));
        let result = self.commands(ctx, queue, program, options, payoffs);
        queue.end_span(span);
        result
    }

    fn commands(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
        payoffs: Option<&[Payoff]>,
    ) -> Result<Vec<f64>, RuntimeError> {
        let n = self.n_steps;
        let w = real_width(self.precision);
        let wg = n + 1;

        // (1) all option parameters, one write: the 6-value coefficient
        // block, plus the two payoff-specific slots on the payoff kernels.
        let mut params = Vec::with_capacity(options.len() * 8);
        for (i, o) in options.iter().enumerate() {
            params.extend_from_slice(&option_coefficients(o, n));
            if let Some(payoffs) = payoffs {
                params.extend_from_slice(&payoff_extras(payoffs[i]));
            }
        }
        let params_buf = ctx.create_buffer(params.len() * w);
        let results_buf = ctx.create_buffer(options.len() * w);
        write_reals(queue, &params_buf, 0, &params, self.precision)?;

        let kernel =
            program.kernel(self.kernel_name).map_err(|e| RuntimeError::Invalid(e.message))?;

        if self.host_leaves {
            // Fallback path: leaves computed on the host and shipped over
            // PCIe — "to the detriment of speed".
            let leaves_buf = ctx.create_buffer(options.len() * wg * w);
            let mut leaves = Vec::with_capacity(options.len() * wg);
            for o in options {
                leaves.extend_from_slice(&leaf_assets(o, n));
            }
            write_reals(queue, &leaves_buf, 0, &leaves, self.precision)?;
            kernel.set_arg_buffer(0, &params_buf);
            kernel.set_arg_buffer(1, &leaves_buf);
            kernel.set_arg_buffer(2, &results_buf);
            kernel.set_arg_local(3, wg * w);
            kernel.set_arg_i32(4, n as i32);
        } else {
            kernel.set_arg_buffer(0, &params_buf);
            kernel.set_arg_buffer(1, &results_buf);
            kernel.set_arg_local(2, wg * w);
            kernel.set_arg_i32(3, n as i32);
        }

        // (2) one NDRange: one work-group per option.
        queue.enqueue_nd_range(&kernel, Dispatch::new(options.len() * wg, wg))?;

        // (3) one result read.
        let mut prices = vec![0.0; options.len()];
        read_reals(queue, &results_buf, 0, &mut prices, self.precision)?;
        Ok(prices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::binomial::price_american_f64;
    use bop_finance::payoff::{price_payoff_f64, BarrierKind};
    use bop_finance::workload;
    use bop_ocl::BuildOptions;

    fn run_on(
        device: Arc<dyn bop_ocl::Device>,
        host_leaves: bool,
        n: usize,
    ) -> (Vec<f64>, Vec<OptionParams>, f64) {
        let arch = if host_leaves {
            crate::KernelArch::OptimizedHostLeaves
        } else {
            crate::KernelArch::Optimized
        };
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx);
        let program = Program::from_source(
            &ctx,
            "optimized.cl",
            &arch.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 11);
        let host = OptimizedHost {
            n_steps: n,
            precision: Precision::Double,
            host_leaves,
            kernel_name: arch.kernel_name(),
        };
        let prices = host.run(&ctx, &queue, &program, &options).expect("runs");
        (prices, options, queue.elapsed_s())
    }

    #[test]
    fn gpu_prices_match_reference_exactly_enough() {
        let (prices, options, elapsed) = run_on(crate::devices::gpu(), false, 48);
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, 48);
            assert!(
                (p - reference).abs() < 1e-9,
                "GPU (exact math) should match reference: {p} vs {reference}"
            );
        }
        assert!(elapsed > 0.0);
    }

    #[test]
    fn fpga_prices_show_the_pow_inaccuracy() {
        let (prices, options, _) = run_on(crate::devices::fpga(), false, 48);
        let mut max_err = 0f64;
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, 48);
            max_err = max_err.max((p - reference).abs());
            assert!((p - reference).abs() < 0.05, "bug is small: {p} vs {reference}");
        }
        assert!(max_err > 1e-9, "the 13.0 pow bug must be visible: {max_err}");
    }

    #[test]
    fn host_leaves_variant_avoids_the_pow_bug_on_fpga() {
        let (prices, options, _) = run_on(crate::devices::fpga(), true, 48);
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, 48);
            assert!(
                (p - reference).abs() < 1e-9,
                "host leaves avoid the device pow: {p} vs {reference}"
            );
        }
    }

    #[test]
    fn command_stream_is_three_commands() {
        let ctx = Context::new(crate::devices::gpu());
        let queue = CommandQueue::new(&ctx);
        queue.enable_trace();
        let program = Program::from_source(
            &ctx,
            "optimized.cl",
            &crate::KernelArch::Optimized.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        let options = vec![OptionParams::example(); 3];
        let host = OptimizedHost {
            n_steps: 32,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: "binomial_option",
        };
        host.run(&ctx, &queue, &program, &options).expect("runs");
        let trace = queue.trace();
        assert_eq!(trace.len(), 3, "write, NDRange, read — exactly as the paper says");
    }

    fn run_payoff(payoff: Payoff, arch: crate::KernelArch, n: usize) -> (Vec<f64>, Vec<f64>) {
        let ctx = Context::new(crate::devices::gpu());
        let queue = CommandQueue::new(&ctx);
        let program = Program::from_source(
            &ctx,
            "payoff.cl",
            &arch.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 21);
        let payoffs = vec![payoff; options.len()];
        let host = OptimizedHost {
            n_steps: n,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        };
        let prices = host.run_payoffs(&ctx, &queue, &program, &options, &payoffs).expect("runs");
        let reference: Vec<f64> = options.iter().map(|o| price_payoff_f64(o, payoff, n)).collect();
        (prices, reference)
    }

    #[test]
    fn barrier_kernel_matches_the_reference_pricer() {
        let payoff = Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 123.0 };
        let (prices, reference) = run_payoff(payoff, crate::KernelArch::Barrier, 48);
        for (p, r) in prices.iter().zip(&reference) {
            assert!((p - r).abs() < 1e-9, "GPU (exact math) vs reference: {p} vs {r}");
        }
    }

    #[test]
    fn bermudan_kernel_matches_the_reference_pricer() {
        let payoff = Payoff::Bermudan { exercise_every: 6 };
        let (prices, reference) = run_payoff(payoff, crate::KernelArch::Bermudan, 48);
        for (p, r) in prices.iter().zip(&reference) {
            assert!((p - r).abs() < 1e-9, "GPU (exact math) vs reference: {p} vs {r}");
        }
    }

    #[test]
    fn payoff_command_stream_is_three_commands() {
        let ctx = Context::new(crate::devices::gpu());
        let queue = CommandQueue::new(&ctx);
        queue.enable_trace();
        let program = Program::from_source(
            &ctx,
            "barrier.cl",
            &crate::KernelArch::Barrier.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        let options = vec![OptionParams::example(); 3];
        let payoffs = vec![Payoff::Barrier { kind: BarrierKind::DownAndOut, level: 80.0 }; 3];
        let host = OptimizedHost {
            n_steps: 32,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: "binomial_barrier",
        };
        host.run_payoffs(&ctx, &queue, &program, &options, &payoffs).expect("runs");
        assert_eq!(queue.trace().len(), 3, "write, NDRange, read — same protocol as IV.B");
    }
}

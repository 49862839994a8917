//! Host program for kernel IV.A — the batch-per-time-step pipeline.
//!
//! This reproduces the paper's Section IV.A control loop (Figure 3): per
//! batch the host (1) writes the incoming option's leaves into the input
//! ping-pong buffer, (2) refreshes the per-level parameter ladder,
//! (3) enqueues N(N+1)/2 work-items, and (4) reads results back — in the
//! paper's naive version, *a full ping-pong buffer* ("one of the two ping
//! pong buffers is fully read between each batch (approximately 19 MB for
//! N = 1024), effectively stalling the kernel"). `read_full = false`
//! selects the "modified version ... with a reduced number of read
//! operations" that the paper reports to be 14x faster on the GPU.
//!
//! N+1 options are in flight: the option entering at batch `b` has its
//! level-`t` row computed at batch `b + N - 1 - t`, and its root exits at
//! batch `b + N - 1`.

use super::{
    leaf_assets, leaf_values, option_coefficients, read_reals, real_width, require_options,
    write_reals,
};
use bop_cpu::Precision;
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::RuntimeError;
use bop_ocl::{CommandQueue, Context, Program};
use std::sync::Arc;

/// Work-group size used for the node kernel (the paper notes work-groups
/// do not align with tree levels; any divisor works).
const LOCAL_SIZE: usize = 64;

/// The straightforward host program.
#[derive(Debug, Clone, Copy)]
pub struct StraightforwardHost {
    /// Lattice steps.
    pub n_steps: usize,
    /// Kernel precision.
    pub precision: Precision,
    /// Read the full ping-pong buffers between batches (the paper's naive
    /// behaviour); `false` reads only the finished root (the "modified
    /// version").
    pub read_full: bool,
}

impl StraightforwardHost {
    /// Price `options`, returning prices in input order.
    ///
    /// # Errors
    /// Returns [`RuntimeError::Invalid`] if `options` is empty, and
    /// propagates runtime errors from the queue.
    ///
    /// # Panics
    /// Panics if any option is invalid.
    pub fn run(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
    ) -> Result<Vec<f64>, RuntimeError> {
        require_options(options)?;
        let span = queue.begin_span(&format!("IV.A pipeline ({} options)", options.len()));
        let result = self.run_inner(ctx, queue, program, options);
        queue.end_span(span);
        result
    }

    fn run_inner(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
    ) -> Result<Vec<f64>, RuntimeError> {
        let n = self.n_steps;
        let w = real_width(self.precision);
        let m_nonleaf = n * (n + 1) / 2;
        let m_total = (n + 1) * (n + 2) / 2;
        let global = m_nonleaf.div_ceil(LOCAL_SIZE) * LOCAL_SIZE;

        // Ping-pong S and V buffers (the paper's two switched buffers).
        let s_buf = [ctx.create_buffer(m_total * w), ctx.create_buffer(m_total * w)];
        let v_buf = [ctx.create_buffer(m_total * w), ctx.create_buffer(m_total * w)];
        let params_buf = ctx.create_buffer((n + 1) * 5 * w);
        let level_buf = ctx.create_buffer(global * 4);

        // Constant level map: flat id -> tree level (the paper's constant
        // buffer that lets work-items derive their read addresses).
        let mut level_of = vec![n as i32; global];
        for t in 0..n {
            for j in 0..=t {
                level_of[t * (t + 1) / 2 + j] = t as i32;
            }
        }
        queue.enqueue_write_i32(&level_buf, &level_of)?;

        let kernel =
            program.kernel("binomial_node").map_err(|e| RuntimeError::Invalid(e.message))?;
        kernel.set_arg_buffer(4, &params_buf);
        kernel.set_arg_buffer(5, &level_buf);
        kernel.set_arg_i32(6, n as i32);

        // Precompute per-option coefficient blocks once.
        let coeffs: Vec<[f64; 6]> = options.iter().map(|o| option_coefficients(o, n)).collect();

        let mut prices = vec![0.0; options.len()];
        let mut scratch_v = vec![0.0; if self.read_full { m_total } else { 1 }];
        let mut scratch_s = vec![0.0; if self.read_full { m_total } else { 0 }];
        let mut in_idx = 0;
        let batches = options.len() + n - 1;
        for b in 0..batches {
            let batch_span = queue.begin_span(&format!("batch {b}"));
            let out_idx = 1 - in_idx;
            // (1) incoming option's leaves into the *input* buffer.
            if b < options.len() {
                let o = &options[b];
                let s_leaf = leaf_assets(o, n);
                let v_leaf = leaf_values(o, &s_leaf);
                write_reals(queue, &s_buf[in_idx], m_nonleaf, &s_leaf, self.precision)?;
                write_reals(queue, &v_buf[in_idx], m_nonleaf, &v_leaf, self.precision)?;
            }
            // (2) parameter ladder: level t carries the option whose level-t
            // row is computed this batch.
            let mut ladder = vec![0.0; (n + 1) * 5];
            for t in 0..n {
                let e = b as i64 + t as i64 - n as i64 + 1;
                if (0..options.len() as i64).contains(&e) {
                    let c = &coeffs[e as usize];
                    // [K, pd, qd, u, phi]
                    ladder[t * 5..t * 5 + 5].copy_from_slice(&[c[1], c[3], c[4], c[2], c[5]]);
                }
            }
            write_reals(queue, &params_buf, 0, &ladder, self.precision)?;

            // (3) one batch of node updates.
            kernel.set_arg_buffer(0, &s_buf[in_idx]);
            kernel.set_arg_buffer(1, &v_buf[in_idx]);
            kernel.set_arg_buffer(2, &s_buf[out_idx]);
            kernel.set_arg_buffer(3, &v_buf[out_idx]);
            queue.enqueue_nd_range(&kernel, Dispatch::new(global, LOCAL_SIZE))?;

            // (4) read back: the naive version drains the full ping-pong
            // buffers; the modified version reads only a finished root.
            let finished = b as i64 - n as i64 + 1;
            if self.read_full {
                read_reals(queue, &v_buf[out_idx], 0, &mut scratch_v, self.precision)?;
                read_reals(queue, &s_buf[out_idx], 0, &mut scratch_s, self.precision)?;
                if (0..options.len() as i64).contains(&finished) {
                    prices[finished as usize] = scratch_v[0];
                }
            } else if (0..options.len() as i64).contains(&finished) {
                read_reals(queue, &v_buf[out_idx], 0, &mut scratch_v[..1], self.precision)?;
                prices[finished as usize] = scratch_v[0];
            }

            // Buffer switch between batches (paper Figure 3).
            in_idx = out_idx;
            queue.end_span(batch_span);

            // The freshly computed levels 0..n-1 sit in what is now the
            // input buffer; its leaf region will be overwritten by the
            // next incoming option, which is exactly the cascade the paper
            // describes.
        }
        Ok(prices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::binomial::price_american_f64;
    use bop_finance::workload;
    use bop_ocl::queue::CommandKind;
    use bop_ocl::BuildOptions;

    fn setup(device: Arc<dyn bop_ocl::Device>) -> (Arc<Context>, CommandQueue, Program) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx);
        let program = Program::from_source(
            &ctx,
            "straightforward.cl",
            &crate::KernelArch::Straightforward.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        (ctx, queue, program)
    }

    #[test]
    fn pipeline_prices_match_reference() {
        let (ctx, queue, program) = setup(crate::devices::gpu());
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 5, 3);
        let host =
            StraightforwardHost { n_steps: 24, precision: Precision::Double, read_full: true };
        let prices = host.run(&ctx, &queue, &program, &options).expect("runs");
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, 24);
            assert!(
                (p - reference).abs() < 1e-9,
                "pipelined cascade must equal reference: {p} vs {reference}"
            );
        }
    }

    #[test]
    fn fpga_straightforward_is_immune_to_the_pow_bug() {
        // No pow in the kernel: leaves come from the host.
        let (ctx, queue, program) = setup(crate::devices::fpga());
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 3, 5);
        let host =
            StraightforwardHost { n_steps: 16, precision: Precision::Double, read_full: true };
        let prices = host.run(&ctx, &queue, &program, &options).expect("runs");
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, 16);
            assert!((p - reference).abs() < 1e-9, "{p} vs {reference}");
        }
    }

    #[test]
    fn full_reads_dominate_the_command_stream() {
        let (ctx, queue, program) = setup(crate::devices::gpu());
        queue.enable_trace();
        let options = vec![OptionParams::example(); 3];
        let host =
            StraightforwardHost { n_steps: 32, precision: Precision::Double, read_full: true };
        host.run(&ctx, &queue, &program, &options).expect("runs");
        let trace = queue.trace();
        let read_bytes: u64 =
            trace.iter().filter(|t| t.kind == CommandKind::Read).map(|t| t.bytes).sum();
        let write_bytes: u64 =
            trace.iter().filter(|t| t.kind == CommandKind::Write).map(|t| t.bytes).sum();
        assert!(
            read_bytes > 4 * write_bytes,
            "naive version is read-dominated: {read_bytes} vs {write_bytes}"
        );
        // batches = len + n - 1 = 34, each with one kernel launch.
        let launches = trace.iter().filter(|t| t.kind == CommandKind::Kernel).count();
        assert_eq!(launches, 34);
    }

    #[test]
    fn reduced_reads_are_much_cheaper() {
        let (ctx, queue, program) = setup(crate::devices::gpu());
        let options = vec![OptionParams::example(); 4];
        let naive =
            StraightforwardHost { n_steps: 32, precision: Precision::Double, read_full: true };
        naive.run(&ctx, &queue, &program, &options).expect("runs");
        let naive_time = queue.elapsed_s();

        let (ctx2, queue2, program2) = setup(crate::devices::gpu());
        let modified =
            StraightforwardHost { n_steps: 32, precision: Precision::Double, read_full: false };
        let prices = modified.run(&ctx2, &queue2, &program2, &options).expect("runs");
        let modified_time = queue2.elapsed_s();
        assert!(
            naive_time > modified_time * 1.5,
            "reduced reads must be visibly faster: {naive_time} vs {modified_time}"
        );
        // And still correct.
        let reference = price_american_f64(&options[0], 32);
        assert!((prices[0] - reference).abs() < 1e-9);
    }

    #[test]
    fn single_precision_pipeline_works() {
        let (ctx, queue, program) = {
            let ctx = Context::new(crate::devices::gpu());
            let queue = CommandQueue::new(&ctx);
            let program = Program::from_source(
                &ctx,
                "straightforward.cl",
                &crate::KernelArch::Straightforward.source(Precision::Single),
                &BuildOptions::default(),
            )
            .expect("builds");
            (ctx, queue, program)
        };
        let options = vec![OptionParams::example(); 2];
        let host =
            StraightforwardHost { n_steps: 16, precision: Precision::Single, read_full: true };
        let prices = host.run(&ctx, &queue, &program, &options).expect("runs");
        let reference = price_american_f64(&options[0], 16);
        assert!((prices[0] - reference).abs() < 1e-3, "{} vs {reference}", prices[0]);
    }
}

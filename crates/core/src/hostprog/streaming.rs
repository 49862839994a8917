//! Host program for kernel IV.C (the streaming pipe pair).
//!
//! The whole batch is four commands: one parameter write, ONE launch
//! graph scheduling the producer and consumer tasks concurrently on the
//! device (the pipe connects them on-chip), and one result read — plus
//! nothing in between. There is no leaves buffer and no per-level
//! command: every tree level lives and dies device-resident.

use super::{option_coefficients, read_reals, real_width, require_options, write_reals};
use crate::kernels::KernelArch;
use bop_clir::types::ScalarType;
use bop_cpu::Precision;
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::RuntimeError;
use bop_ocl::{CommandQueue, Context, Program};
use std::sync::Arc;

/// Functional depth of the modeled on-chip FIFO, elements. Matches the
/// depth the FPGA fabric model provisions
/// ([`bop_fpga::schedule::PIPE_MODEL_DEPTH`]); the producer runs at most
/// this far ahead of the consumer before it stalls.
pub const PIPE_DEPTH: usize = 64;

/// The streaming host program.
#[derive(Debug, Clone, Copy)]
pub struct StreamingHost {
    /// Lattice steps (the kernels' private rows hold `n_steps + 1`).
    pub n_steps: usize,
    /// Kernel precision.
    pub precision: Precision,
}

impl StreamingHost {
    /// Price `options`, returning prices in input order.
    ///
    /// # Errors
    /// Returns [`RuntimeError::Invalid`] if `options` is empty, and
    /// propagates runtime errors from the queue (capacity, execution,
    /// pipe deadlock).
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
        let span = queue.begin_span(&format!("IV.C streaming ({} options)", options.len()));
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

        let params_buf = ctx.create_buffer(options.len() * 6 * w);
        let results_buf = ctx.create_buffer(options.len() * w);

        // (1) all option parameters, one write.
        let mut params = Vec::with_capacity(options.len() * 6);
        for o in options {
            params.extend_from_slice(&option_coefficients(o, n));
        }
        write_reals(queue, &params_buf, 0, &params, self.precision)?;

        let elem = match self.precision {
            Precision::Double => ScalarType::F64,
            Precision::Single => ScalarType::F32,
        };
        let leaves = ctx.create_pipe(elem, PIPE_DEPTH);

        let producer = program
            .kernel(KernelArch::STREAMING_PRODUCER)
            .map_err(|e| RuntimeError::Invalid(e.message))?;
        producer.set_arg_buffer(0, &params_buf);
        producer.set_arg_pipe(1, &leaves);
        producer.set_arg_i32(2, n as i32);
        producer.set_arg_i32(3, options.len() as i32);

        let consumer = program
            .kernel(KernelArch::Streaming.kernel_name())
            .map_err(|e| RuntimeError::Invalid(e.message))?;
        consumer.set_arg_buffer(0, &params_buf);
        consumer.set_arg_pipe(1, &leaves);
        consumer.set_arg_buffer(2, &results_buf);
        consumer.set_arg_i32(3, n as i32);
        consumer.set_arg_i32(4, options.len() as i32);

        // (2) ONE launch graph: both tasks scheduled together, connected
        // by the on-chip pipe. Single-work-item dispatches — the task
        // shape pipe kernels require.
        queue.enqueue_launch_graph(&[
            (&producer, Dispatch::new(1, 1)),
            (&consumer, Dispatch::new(1, 1)),
        ])?;

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
    use bop_finance::workload;
    use bop_ocl::BuildOptions;

    fn session(
        device: Arc<dyn bop_ocl::Device>,
        n: usize,
    ) -> (Arc<Context>, CommandQueue, Program) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx);
        let program = Program::from_source(
            &ctx,
            "streaming.cl",
            &KernelArch::Streaming.source_sized(Precision::Double, n),
            &BuildOptions::default(),
        )
        .expect("builds");
        (ctx, queue, program)
    }

    #[test]
    fn streaming_prices_match_the_reference_on_exact_math() {
        let n = 48;
        let (ctx, queue, program) = session(crate::devices::gpu(), n);
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 11);
        let host = StreamingHost { n_steps: n, precision: Precision::Double };
        let prices = host.run(&ctx, &queue, &program, &options).expect("runs");
        for (p, o) in prices.iter().zip(&options) {
            let reference = price_american_f64(o, n);
            assert!((p - reference).abs() < 1e-9, "{p} vs {reference}");
        }
    }

    #[test]
    fn streaming_is_bit_identical_to_optimized_on_the_fpga_math() {
        // Both kernels initialise leaves with the same device pow, so the
        // Altera 13.0 inaccuracy must reproduce bit for bit.
        let n = 48;
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 6, 3);
        let (ctx, queue, program) = session(crate::devices::fpga(), n);
        let streaming = StreamingHost { n_steps: n, precision: Precision::Double }
            .run(&ctx, &queue, &program, &options)
            .expect("runs");

        let arch = crate::KernelArch::Optimized;
        let ctx = Context::new(crate::devices::fpga());
        let queue = CommandQueue::new(&ctx);
        let program = Program::from_source(
            &ctx,
            "optimized.cl",
            &arch.source(Precision::Double),
            &BuildOptions::default(),
        )
        .expect("builds");
        let optimized = crate::hostprog::optimized::OptimizedHost {
            n_steps: n,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(&ctx, &queue, &program, &options)
        .expect("runs");
        assert_eq!(streaming, optimized, "IV.C must reproduce IV.B bit for bit");
    }

    #[test]
    fn command_stream_is_four_commands_with_no_per_level_traffic() {
        let n = 32;
        let (ctx, queue, program) = session(crate::devices::gpu(), n);
        queue.enable_trace();
        let options = vec![OptionParams::example(); 3];
        let host = StreamingHost { n_steps: n, precision: Precision::Double };
        host.run(&ctx, &queue, &program, &options).expect("runs");
        let trace = queue.trace();
        // Write, producer kernel, consumer kernel, read — the two kernel
        // entries share one launch-graph command; nothing per level.
        assert_eq!(trace.len(), 4, "got: {trace:?}");
        let counters = queue.counters();
        assert!(counters.pipe_reads > 0 && counters.pipe_writes > 0, "leaves went by pipe");
        assert_eq!(
            counters.pipe_reads,
            (options.len() * (n + 1)) as u64,
            "exactly one read per leaf"
        );
    }
}

//! Host programs driving the two kernel architectures.
//!
//! These are the OpenCL host-side control loops the paper describes: the
//! [`straightforward`] program re-enqueues a batch per time step and pumps
//! megabytes of ping-pong state across PCIe between batches (Figure 3);
//! the [`optimized`] program issues exactly three commands — write
//! parameters, one NDRange, read results (Figure 4) — for kernel IV.B
//! and every variant sharing its dataflow (host leaves, European, and
//! the barrier and Bermudan payoffs, whose parameter blocks it widens);
//! the [`streaming`] program launches the IV.C producer/consumer pair as
//! one graph, with leaf values streaming through an on-chip pipe.

pub mod optimized;
pub mod straightforward;
pub mod streaming;

use bop_cpu::Precision;
use bop_finance::binomial::CrrParams;
use bop_finance::types::OptionParams;
use bop_ocl::queue::RuntimeError;
use bop_ocl::{Buffer, CommandQueue};

/// Reject an empty batch, which no host program can price.
pub(crate) fn require_options(options: &[OptionParams]) -> Result<(), RuntimeError> {
    if options.is_empty() {
        return Err(RuntimeError::Invalid("empty batch".into()));
    }
    Ok(())
}

/// Byte width of the kernel's `REAL` type.
pub(crate) fn real_width(precision: Precision) -> usize {
    match precision {
        Precision::Double => 8,
        Precision::Single => 4,
    }
}

/// Write an `f64` slice into a `REAL` buffer at element `offset`,
/// narrowing for single precision.
pub(crate) fn write_reals(
    queue: &CommandQueue,
    buf: &Buffer,
    offset: usize,
    data: &[f64],
    precision: Precision,
) -> Result<(), RuntimeError> {
    match precision {
        Precision::Double => {
            queue.enqueue_write_f64_at(buf, offset, data)?;
        }
        Precision::Single => {
            let narrow: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            queue.enqueue_write_f32_at(buf, offset, &narrow)?;
        }
    }
    Ok(())
}

/// Read a `REAL` buffer into an `f64` slice at element `offset`, widening
/// for single precision.
pub(crate) fn read_reals(
    queue: &CommandQueue,
    buf: &Buffer,
    offset: usize,
    out: &mut [f64],
    precision: Precision,
) -> Result<(), RuntimeError> {
    match precision {
        Precision::Double => {
            queue.enqueue_read_f64_at(buf, offset, out)?;
        }
        Precision::Single => {
            let mut narrow = vec![0f32; out.len()];
            queue.enqueue_read_f32_at(buf, offset, &mut narrow)?;
            for (o, v) in out.iter_mut().zip(&narrow) {
                *o = *v as f64;
            }
        }
    }
    Ok(())
}

/// The per-option coefficient block shared by both kernels:
/// `[S0, K, u, pd, qd, phi]`.
pub(crate) fn option_coefficients(option: &OptionParams, n_steps: usize) -> [f64; 6] {
    let c = CrrParams::from_option(option, n_steps);
    [option.spot, option.strike, c.u, c.pd, c.qd, option.kind.phi()]
}

/// Host-side leaf asset prices `S(N, j) = S0 u^(2j - N)` for one option.
pub(crate) fn leaf_assets(option: &OptionParams, n_steps: usize) -> Vec<f64> {
    let c = CrrParams::from_option(option, n_steps);
    (0..=n_steps).map(|j| option.spot * c.u.powi(2 * j as i32 - n_steps as i32)).collect()
}

/// Leaf option values from leaf asset prices.
pub(crate) fn leaf_values(option: &OptionParams, leaf_s: &[f64]) -> Vec<f64> {
    let phi = option.kind.phi();
    leaf_s.iter().map(|&s| (phi * (s - option.strike)).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_match_crr() {
        let o = OptionParams::example();
        let c = CrrParams::from_option(&o, 128);
        let k = option_coefficients(&o, 128);
        assert_eq!(k[0], o.spot);
        assert_eq!(k[1], o.strike);
        assert_eq!(k[2], c.u);
        assert_eq!(k[3], c.pd);
        assert_eq!(k[4], c.qd);
        assert_eq!(k[5], 1.0);
    }

    #[test]
    fn leaves_are_monotone_and_payoff_clamped() {
        let o = OptionParams::example();
        let s = leaf_assets(&o, 64);
        assert_eq!(s.len(), 65);
        for w in s.windows(2) {
            assert!(w[1] > w[0]);
        }
        let v = leaf_values(&o, &s);
        assert!(v.iter().all(|&x| x >= 0.0));
        assert_eq!(v[0], 0.0, "deep OTM call leaf is worthless");
        assert!(v[64] > 0.0, "deep ITM call leaf has value");
    }

    /// Every host program answers a malformed batch with a typed
    /// [`RuntimeError::Invalid`] before it enqueues anything, instead of
    /// panicking.
    #[test]
    fn malformed_batches_are_typed_errors_not_panics() {
        use crate::KernelArch;
        use bop_finance::payoff::Payoff;
        use bop_ocl::queue::QueueCounters;
        use bop_ocl::{BuildOptions, Context, Program};

        let (n_steps, precision) = (16, Precision::Double);
        let ctx = Context::new(crate::devices::fpga());
        let queue = CommandQueue::new(&ctx);
        let build = |arch: KernelArch| {
            let source = arch.source_sized(precision, n_steps);
            Program::from_source(&ctx, "k.cl", &source, &BuildOptions::default()).expect("builds")
        };
        let (iva, ivb, ivc) = (
            build(KernelArch::Straightforward),
            build(KernelArch::Bermudan),
            build(KernelArch::Streaming),
        );
        let iva_host = straightforward::StraightforwardHost { n_steps, precision, read_full: true };
        let ivb_host = optimized::OptimizedHost {
            n_steps,
            precision,
            host_leaves: false,
            kernel_name: KernelArch::Bermudan.kernel_name(),
        };
        let ivc_host = streaming::StreamingHost { n_steps, precision };
        let one = [OptionParams::example()];
        let two_payoffs = [Payoff::Bermudan { exercise_every: 2 }; 2];
        for (host, what, result) in [
            ("IV.A", "empty batch", iva_host.run(&ctx, &queue, &iva, &[])),
            ("IV.B", "empty batch", ivb_host.run(&ctx, &queue, &ivb, &[])),
            ("IV.B", "empty batch", ivb_host.run_payoffs(&ctx, &queue, &ivb, &[], &[])),
            ("IV.B", "payoff count", ivb_host.run_payoffs(&ctx, &queue, &ivb, &one, &two_payoffs)),
            ("IV.B", "payoff count", ivb_host.run_payoffs(&ctx, &queue, &ivb, &one, &[])),
            ("IV.C", "empty batch", ivc_host.run(&ctx, &queue, &ivc, &[])),
        ] {
            match result {
                Err(RuntimeError::Invalid(msg)) => {
                    assert!(msg.contains(what), "{host}: `{msg}` should name the {what}")
                }
                other => panic!("{host}: {what} gave {other:?}, not RuntimeError::Invalid"),
            }
        }
        assert_eq!(queue.counters(), QueueCounters::default(), "nothing was enqueued");
    }
}

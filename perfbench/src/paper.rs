//! `paper-ivb`: one caller in a closed loop pricing one seeded batch of
//! American options with `Accelerator::price` on the FPGA model, kernel
//! IV.B (one work-group per option). Interpreter work dominates, on a
//! multi-work-group NDRange that the worker fan-out splits.
//!
//! Kernel IV.C (the single-work-item producer/consumer pipe pair) reacts
//! the opposite way to engine and worker choices; the traced run's probes
//! price the same batch on it through the same functions.

use crate::check::{price_ok, FPGA_PRICE_TOL};
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::{cpu_time_s, median_setup, window_metrics, Metrics, Outcome};
use bop_core::{devices, Accelerator, KernelArch, PricingRun};
use bop_finance::payoff::Payoff;
use bop_finance::types::OptionParams;
use bop_finance::workload;
use std::time::Instant;

/// Lattice steps of every paper-kernel price call.
pub const N_STEPS: usize = 128;
/// Options per price call.
pub const BATCH: usize = 32;

/// The priced kernel architecture.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    IvB,
    IvC,
}

impl Kernel {
    pub const ALL: [Kernel; 2] = [Kernel::IvB, Kernel::IvC];

    pub fn arch(self) -> KernelArch {
        match self {
            Kernel::IvB => KernelArch::Optimized,
            Kernel::IvC => KernelArch::Streaming,
        }
    }

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::IvB => "ivb",
            Kernel::IvC => "ivc",
        }
    }
}

/// The seeded batch: one volatility curve of `BATCH` American calls.
pub fn inputs(seed: u64) -> Vec<OptionParams> {
    workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, BATCH, seed)
}

/// The accelerator a user gets by default for `kernel` on the FPGA model:
/// default engine, default worker count.
pub fn accelerator(kernel: Kernel) -> Accelerator {
    Accelerator::builder(devices::fpga())
        .arch(kernel.arch())
        .n_steps(N_STEPS)
        .build()
        .expect("the paper kernels build on the FPGA model")
}

/// Whether every price of `run` is within the FPGA tolerance of the host
/// reference.
pub fn prices_ok(prices: &[f64], options: &[OptionParams]) -> bool {
    prices.len() == options.len()
        && prices
            .iter()
            .zip(options)
            .all(|(p, o)| price_ok(*p, o, Payoff::American, N_STEPS, FPGA_PRICE_TOL))
}

/// Closed-loop measurement over one time window.
struct Pass {
    latencies: Vec<f64>,
    /// `(start, end, options)` of every correct call.
    ops: Vec<(f64, f64, f64)>,
    elapsed_s: f64,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn options_per_s(&self) -> f64 {
        self.ops.iter().map(|o| o.2).sum::<f64>() / self.elapsed_s
    }
}

/// Price `options` back to back for `seconds`. Every call must return the
/// bits of `expected` (already checked against the host reference).
fn measure(
    acc: &Accelerator,
    options: &[OptionParams],
    expected: &[f64],
    seconds: f64,
    spans: Option<&Recorder>,
) -> Pass {
    let mut pass = Pass {
        latencies: Vec::new(),
        ops: Vec::new(),
        elapsed_s: 0.0,
        cpu_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    let cpu = cpu_time_s();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = start.elapsed().as_secs_f64();
        let run = match spans {
            Some(rec) => rec.span(None, "core", "Accelerator::price", || acc.price(options)),
            None => acc.price(options),
        };
        let end = start.elapsed().as_secs_f64();
        pass.latencies.push(end - t);
        pass.attempted += 1;
        match run {
            Ok(run) if run.prices == expected => {
                pass.ops.push((t, end, options.len() as f64));
            }
            _ => pass.failed += 1,
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_time_s() - cpu;
    pass
}

/// Build the accelerator and the batch (timed as set-up), then price once
/// to warm up and check the prices against the host reference.
fn setup(kernel: Kernel, seed: u64) -> (f64, Accelerator, Vec<OptionParams>, Option<PricingRun>) {
    let (setup_s, (acc, options)) = median_setup(|| (accelerator(kernel), inputs(seed)));
    let warm = acc.price(&options).ok().filter(|run| prices_ok(&run.prices, &options));
    (setup_s, acc, options, warm)
}

/// The untraced run: end-to-end metrics.
pub fn run(kernel: Kernel, seed: u64, seconds: f64) -> Outcome {
    let (setup_s, acc, options, warm) = setup(kernel, seed);
    let Some(warm) = warm else {
        return Outcome::failed_setup();
    };
    let pass = measure(&acc, &options, &warm.prices, seconds, None);
    let metrics = window_metrics(setup_s, &pass.ops, pass.elapsed_s, pass.cpu_s, &pass.latencies);
    Outcome { attempted: pass.attempted + 1, failed: pass.failed, metrics }
}

/// The traced run: an untraced and a traced pass of half the window
/// each. The traced pass must return the same bits; the ratio of their
/// per-option times is the tracing overhead.
pub fn run_traced(kernel: Kernel, seed: u64, seconds: f64, rec: &Recorder) -> Outcome {
    let (_, acc, options, warm) = setup(kernel, seed);
    let Some(warm) = warm else {
        return Outcome::failed_setup();
    };
    let plain = measure(&acc, &options, &warm.prices, seconds / 2.0, None);
    let traced = measure(&acc, &options, &warm.prices, seconds / 2.0, Some(rec));
    let mut metrics = Metrics::new();
    metrics.put("obs.trace_overhead", plain.options_per_s() / traced.options_per_s(), "ratio");
    metrics.put("loadgen.latency_p90_s", percentile(&plain.latencies, 0.9), "s");
    Outcome {
        attempted: plain.attempted + traced.attempted + 1,
        failed: plain.failed + traced.failed,
        metrics,
    }
}

//! `compile-sweep`: repeated `Program::from_source` builds of every kernel
//! in `crates/core/kernels/` on the FPGA model, across the SIMD x unroll
//! grid of the `ablation` build-option exploration, in a seeded order.
//!
//! The front-end, the pass pipeline, the FPGA scheduler and fitter and
//! bytecode emission do all the work here; everywhere else they are a
//! few milliseconds of set-up, too little to resolve. Grid points the
//! fitter rejects are part of the sweep: the rejection is their expected,
//! repeatable outcome.

use crate::spans::Recorder;
use crate::stats::percentile;
use crate::{cpu_time_s, median_setup, window_metrics, Metrics, Outcome};
use bop_clir::bytecode::CompiledKernel;
use bop_clir::passes::Pipeline;
use bop_core::{devices, KernelArch, Precision};
use bop_finance::rng::SplitMix64;
use bop_ocl::{BuildError, BuildOptions, BuildReport, Context, Program};
use std::sync::Arc;
use std::time::Instant;

/// Every kernel source of `crates/core/kernels/`, with its file stem.
pub const KERNELS: [(KernelArch, &str); 7] = [
    (KernelArch::Straightforward, "straightforward"),
    (KernelArch::Optimized, "optimized"),
    (KernelArch::OptimizedHostLeaves, "optimized_hostleaves"),
    (KernelArch::OptimizedEuropean, "european"),
    (KernelArch::Barrier, "barrier"),
    (KernelArch::Bermudan, "bermudan"),
    (KernelArch::Streaming, "streaming"),
];

/// The SIMD widths and unroll factors `ablation` explores.
const SIMDS: [u32; 5] = [1, 2, 4, 8, 16];
const UNROLLS: [u32; 3] = [1, 2, 4];

/// A build's observable result: the build report, or the fitter's or
/// front-end's rejection message.
pub type BuildOutcome = Result<BuildReport, String>;

/// Whether two builds had the same outcome. The FPGA model lists a
/// program's kernels in hash-map order, which differs from build to build
/// for the two-kernel streaming program; the list is compared as a set,
/// and [`kernel_order_differs`] counts how often the order changed.
pub fn same_outcome(a: &BuildOutcome, b: &BuildOutcome) -> bool {
    let sorted = |o: &BuildOutcome| {
        o.clone().map(|mut r| {
            r.kernels.sort();
            r
        })
    };
    sorted(a) == sorted(b)
}

/// Whether two equal builds listed their kernels in different orders.
pub fn kernel_order_differs(a: &BuildOutcome, b: &BuildOutcome) -> bool {
    matches!((a, b), (Ok(x), Ok(y)) if x.kernels != y.kernels)
}

/// One grid point: a kernel source and its build options.
pub struct Point {
    pub kernel: &'static str,
    pub source: String,
    pub build: BuildOptions,
}

/// Every (kernel, SIMD, unroll) point, shuffled by `seed`.
fn grid(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for (arch, kernel) in KERNELS {
        let source = arch.source(Precision::Double);
        for simd in SIMDS {
            for unroll in UNROLLS {
                let build = BuildOptions {
                    simd,
                    compute_units: 1,
                    unroll: Some(unroll),
                    ..BuildOptions::default()
                };
                points.push(Point { kernel, source: source.clone(), build });
            }
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..points.len()).rev() {
        points.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    points
}

/// Build `point` through the public `Program` entry point.
pub fn build(ctx: &Arc<Context>, point: &Point) -> BuildOutcome {
    Program::from_source(ctx, point.kernel, &point.source, &point.build)
        .map(|p| p.report())
        .map_err(|e| e.message)
}

/// Build `point` one stage at a time, each stage inside its own span:
/// the same work `Program::from_source` does, attributed per layer.
pub fn build_staged(
    ctx: &Arc<Context>,
    point: &Point,
    rec: &Recorder,
    parent: u64,
) -> BuildOutcome {
    let options = bop_clc::Options {
        unroll_override: point.build.unroll,
        no_opt: point.build.no_opt,
        cse: point.build.cse,
    };
    let staged = || -> Result<BuildReport, BuildError> {
        let module = rec.span(Some(parent), "clc", "bop_clc::compile", || {
            bop_clc::compile(point.kernel, &point.source, &options)
        })?;
        let (module, passes) = rec.span(Some(parent), "clir.passes", "Pipeline::run", || {
            let out = Pipeline::for_build(point.build.no_opt, point.build.cse).run(module);
            bop_clir::verify::verify_module(&out.0).map(|()| out)
        })?;
        let program = rec.span(Some(parent), "fpga", "Device::compile", || {
            ctx.device().compile(Arc::new(module), &point.build)
        })?;
        rec.span(Some(parent), "clir.bytecode", "CompiledKernel::compile", || {
            for kernel in program.module().kernels() {
                std::hint::black_box(CompiledKernel::compile(kernel));
            }
        });
        let mut report = program.report();
        report.passes = Some(passes);
        Ok(report)
    };
    staged().map_err(|e| e.message)
}

/// The FPGA context, the shuffled grid and each point's reference outcome
/// (its first build).
fn setup(seed: u64) -> (Arc<Context>, Vec<Point>, Vec<BuildOutcome>) {
    let ctx = Context::new(devices::fpga());
    let points = grid(seed);
    let reference = points.iter().map(|p| build(&ctx, p)).collect();
    (ctx, points, reference)
}

/// One pass of sweeps over the grid for `seconds`.
struct Pass {
    latencies: Vec<f64>,
    /// `(start, end, 1)` of every build with the reference outcome.
    ops: Vec<(f64, f64, f64)>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    cpu_s: f64,
}

fn sweep(
    seconds: f64,
    points: &[Point],
    reference: &[BuildOutcome],
    mut one: impl FnMut(&Point) -> BuildOutcome,
) -> Pass {
    let mut pass = Pass {
        latencies: Vec::new(),
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed_s: 0.0,
        cpu_s: 0.0,
    };
    let cpu = cpu_time_s();
    let start = Instant::now();
    'sweeps: loop {
        for (point, expected) in points.iter().zip(reference) {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'sweeps;
            }
            let t = start.elapsed().as_secs_f64();
            let outcome = one(point);
            let end = start.elapsed().as_secs_f64();
            pass.latencies.push(end - t);
            pass.attempted += 1;
            if same_outcome(&outcome, expected) {
                pass.ops.push((t, end, 1.0));
            } else {
                pass.failed += 1;
            }
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_time_s() - cpu;
    pass
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, (ctx, points, reference)) = median_setup(|| setup(seed));
    let pass = sweep(seconds, &points, &reference, |p| build(&ctx, p));
    let metrics = window_metrics(setup_s, &pass.ops, pass.elapsed_s, pass.cpu_s, &pass.latencies);
    Outcome { attempted: pass.attempted, failed: pass.failed, metrics }
}

/// The traced run: an untraced pass, then a staged pass with one span per
/// build and per stage. Staged builds must reproduce the reference
/// reports exactly.
pub fn run_traced(seed: u64, seconds: f64, rec: &Recorder) -> Outcome {
    let (ctx, points, reference) = setup(seed);
    let plain = sweep(seconds / 2.0, &points, &reference, |p| build(&ctx, p));
    let mut build_s = 0.0;
    let traced = sweep(seconds / 2.0, &points, &reference, |p| {
        let id = rec.next_id();
        let t0 = rec.now_s();
        let outcome = build_staged(&ctx, p, rec, id);
        let t1 = rec.now_s();
        rec.record(id, None, "ocl", "Program build", t0, t1);
        build_s += t1 - t0;
        outcome
    });
    // The build span's self time is what no stage span covers.
    let unattributed_s = rec.self_time_by_layer().get("ocl").copied().unwrap_or(0.0);
    let mut metrics = Metrics::new();
    let per_build = |p: &Pass| p.elapsed_s / p.attempted as f64;
    metrics.put("obs.trace_overhead", per_build(&traced) / per_build(&plain), "ratio");
    metrics.put("loadgen.latency_p90_s", percentile(&plain.latencies, 0.9), "s");
    metrics.put("trace.unattributed_share", unattributed_s / build_s, "ratio");
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    }
}

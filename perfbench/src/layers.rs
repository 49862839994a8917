//! Per-layer probes of the traced run. Every layer is measured from
//! outside: by timing calls into its crate's public functions and by
//! reading the counters the program already exposes (`ExecStats`,
//! `QueueCounters`, `BuildReport`/`PipelineReport`).

use crate::check::{greeks_ok, price_ok, GPU_PRICE_TOL};
use crate::compile::{build_staged, kernel_order_differs, same_outcome, Point, KERNELS};
use crate::paper::{self, Kernel};
use crate::serve;
use crate::spans::Recorder;
use crate::stats::median;
use crate::Metrics;
use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::streaming::StreamingHost;
use bop_core::perfmodel::CALIBRATION_STEPS;
use bop_core::{devices, Accelerator, KernelArch, PayoffSuite, Precision, RiskRequest};
use bop_finance::binomial::{price_american_f64, BinomialTree};
use bop_finance::greeks::{assemble_greeks, bump_scenarios};
use bop_finance::payoff::price_payoff_f64;
use bop_finance::types::OptionParams;
use bop_ocl::queue::QueueCounters;
use bop_ocl::{CommandQueue, Context, Engine, Program};
use bop_serve::ServeConfig;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of every timed probe; each reports its median.
const REPS: usize = 7;
/// Repetitions of every engine probe (the walker takes a few hundred
/// milliseconds per paper batch).
const EXEC_REPS: usize = 3;

/// Checks made by the probes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Median wall time of `REPS` calls of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Compile-stage time per kernel at its paper build options, attributed
/// with the staged build's spans, plus the pass pipeline's and bytecode
/// compiler's size counts.
fn compile_stages(m: &mut Metrics, tally: &mut Tally) {
    let ctx = Context::new(devices::fpga());
    let mut order_changes = 0;
    for (arch, kernel) in KERNELS {
        let point = Point {
            kernel,
            source: arch.source(Precision::Double),
            build: arch.paper_build_options(),
        };
        let program = Program::from_source(&ctx, kernel, &point.source, &point.build)
            .expect("every kernel builds at its paper options");
        let mut samples: [Vec<f64>; 4] = Default::default();
        for _ in 0..REPS {
            let rec = Recorder::new();
            let id = rec.next_id();
            let outcome = build_staged(&ctx, &point, &rec, id);
            rec.record(id, None, "ocl", "Program build", 0.0, rec.now_s());
            let expected = Ok(program.report());
            tally.check(same_outcome(&outcome, &expected));
            order_changes += u32::from(kernel_order_differs(&outcome, &expected));
            let by_layer = rec.self_time_by_layer();
            for (slot, layer) in
                samples.iter_mut().zip(["clc", "clir.passes", "fpga", "clir.bytecode"])
            {
                slot.push(by_layer.get(layer).copied().unwrap_or(0.0));
            }
        }
        for (s, name) in samples.iter().zip([
            "clc.compile_s",
            "clir.passes.run_s",
            "fpga.compile_s",
            "clir.bytecode.compile_s",
        ]) {
            m.put(&format!("{name}.{kernel}"), median(s), "s");
        }
        m.put(
            &format!("clir.passes.insts_removed.{kernel}"),
            program.pass_report().insts_removed() as f64,
            "count",
        );
        let code_len: usize = program
            .module()
            .kernels()
            .filter_map(|k| program.compiled_kernel(&k.name))
            .map(|k| k.code_len())
            .sum();
        m.put(&format!("clir.bytecode.code_len.{kernel}"), code_len as f64, "count");
    }
    m.put("fpga.report_kernel_order_changes", f64::from(order_changes), "builds");
}

/// One host-program run of `kernel` on a fresh queue of its own.
struct ExecRun {
    wall_s: f64,
    prices: Vec<f64>,
    ops: u64,
    counters: QueueCounters,
}

fn exec_once(
    kernel: Kernel,
    ctx: &Arc<Context>,
    program: &Program,
    options: &[OptionParams],
    engine: Engine,
    workers: Option<usize>,
) -> Option<ExecRun> {
    let queue = CommandQueue::new(ctx);
    queue.set_engine(engine);
    if let Some(w) = workers {
        queue.set_workers(w);
    }
    let n_steps = paper::N_STEPS;
    let t = Instant::now();
    let prices = match kernel {
        Kernel::IvB => OptimizedHost {
            n_steps,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: KernelArch::Optimized.kernel_name(),
        }
        .run(ctx, &queue, program, options),
        Kernel::IvC => StreamingHost { n_steps, precision: Precision::Double }
            .run(ctx, &queue, program, options),
    }
    .ok()?;
    let wall_s = t.elapsed().as_secs_f64();
    let ops = [kernel.arch().kernel_name(), KernelArch::STREAMING_PRODUCER]
        .iter()
        .filter_map(|k| queue.kernel_stats(k))
        .map(|s| s.ops.total())
        .sum();
    Some(ExecRun { wall_s, prices, ops, counters: queue.counters() })
}

/// Interpreter cost per engine and worker count, operation counts and
/// host-device traffic of both paper kernels, driven on the benchmark's
/// own queues. Returns the default engine.
fn exec_engines(seed: u64, m: &mut Metrics, tally: &mut Tally) -> Engine {
    let options = &paper::inputs(seed);
    let device = devices::fpga();
    let default_engine = CommandQueue::new(&Context::new(device.clone())).engine();
    for kernel in Kernel::ALL {
        let ctx = Context::new(device.clone());
        let arch = kernel.arch();
        let source = arch.source_sized(Precision::Double, paper::N_STEPS.max(CALIBRATION_STEPS[2]));
        let program = Program::from_source(&ctx, "kernel.cl", &source, &arch.paper_build_options())
            .expect("the paper kernels build on the FPGA model");
        let mut reference: Option<Vec<f64>> = None;
        for engine in [Engine::Walk, Engine::Bytecode, Engine::Lanes] {
            for (label, workers) in [("1", Some(1)), ("default", None)] {
                let runs: Vec<ExecRun> = (0..EXEC_REPS)
                    .filter_map(|_| exec_once(kernel, &ctx, &program, options, engine, workers))
                    .collect();
                for run in &runs {
                    let expected = reference.get_or_insert_with(|| run.prices.clone());
                    tally.check(run.prices == *expected && paper::prices_ok(&run.prices, options));
                }
                tally.attempted += (EXEC_REPS - runs.len()) as u64;
                tally.failed += (EXEC_REPS - runs.len()) as u64;
                let Some(first) = runs.first() else { continue };
                let wall = median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
                let k = kernel.label();
                m.put(
                    &format!("clir.exec.ns_per_op.{engine}.{k}.workers_{label}"),
                    wall * 1e9 / first.ops as f64,
                    "ns",
                );
                if engine == default_engine && workers.is_none() {
                    let n = options.len() as f64;
                    let c = &first.counters;
                    m.put(&format!("clir.exec.ops_per_option.{k}"), first.ops as f64 / n, "count");
                    m.put(
                        &format!("ocl.commands_per_call.{k}"),
                        (c.writes + c.reads + c.launches) as f64,
                        "count",
                    );
                    m.put(
                        &format!("ocl.h2d_bytes_per_option.{k}"),
                        c.h2d_bytes as f64 / n,
                        "bytes",
                    );
                    m.put(
                        &format!("ocl.d2h_bytes_per_option.{k}"),
                        c.d2h_bytes as f64 / n,
                        "bytes",
                    );
                    if kernel == Kernel::IvC {
                        m.put(
                            "ocl.pipe_read_stalls_per_option",
                            c.pipe_read_stalls as f64 / n,
                            "count",
                        );
                        m.put(
                            "ocl.pipe_write_stalls_per_option",
                            c.pipe_write_stalls as f64 / n,
                            "count",
                        );
                    }
                }
            }
        }
    }
    default_engine
}

/// `Accelerator::price` per paper kernel at the workload's shape, the
/// simulated device rates it reports, and the fixed cost of a minimal
/// one-option call.
fn core_paper(seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let options = paper::inputs(seed);
    for kernel in Kernel::ALL {
        let acc = paper::accelerator(kernel);
        let mut last = None;
        let p50 = time_median(|| last = acc.price(&options).ok());
        let k = kernel.label();
        m.put(&format!("core.price_s.{k}"), p50, "s");
        match last {
            Some(run) => {
                tally.check(paper::prices_ok(&run.prices, &options));
                m.put(&format!("fpga.sim_options_per_s.{k}"), run.options_per_s, "options/s");
                m.put(&format!("fpga.sim_options_per_j.{k}"), run.options_per_j, "options/J");
            }
            None => tally.check(false),
        }
    }
    let minimal =
        Accelerator::builder(devices::fpga()).n_steps(2).build().expect("a 2-step IV.B builds");
    let one = [OptionParams::example()];
    m.put("ocl.session_overhead_s", time_median(|| tally.check(minimal.price(&one).is_ok())), "s");
}

/// `PayoffSuite::price_risk` per payoff class at the `serve-risk` batch
/// shape (one request), and the serving set-up split into pool build and
/// shard calibration.
fn core_risk(seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let suite = PayoffSuite::from_config(serve::shard_config()).expect("the payoff suite builds");
    let n = suite.n_steps();
    // One full cycle of the request pattern: every payoff class, price
    // only and with Greeks, in the workload's proportions.
    const CYCLE: usize = 16;
    let mut device_options = 0;
    for i in 0..CYCLE {
        let request: Vec<RiskRequest> = serve::risk_request(seed, i)
            .iter()
            .map(|r| RiskRequest { params: r.params, payoff: r.payoff, greeks: r.wants_greeks() })
            .collect();
        let mut last = None;
        let p50 = time_median(|| last = suite.price_risk(&request).ok());
        device_options += last.as_ref().map_or(0, |(_, run)| run.prices.len());
        let ok = last.is_some_and(|(results, _)| {
            results.iter().zip(&request).all(|(res, q)| {
                price_ok(res.price, &q.params, q.payoff, n, GPU_PRICE_TOL)
                    && res.greeks.is_none_or(|g| greeks_ok(&g, &q.params, q.payoff, n))
            })
        });
        tally.check(ok);
        let outputs = if serve::risk_greeks(i) { "greeks" } else { "price" };
        m.put(&format!("core.price_risk_s.{}.{outputs}", serve::risk_payoff(i).label()), p50, "s");
    }
    // Greeks add four bump scenarios per option to the device batch.
    m.put("core.device_options_per_request", device_options as f64 / CYCLE as f64, "count");
    let config = serve::shard_config();
    let (mut build, mut calibrate) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let pool = PayoffSuite::pool(config.clone(), serve::SHARDS).expect("the pool builds");
        build.push(t.elapsed().as_secs_f64());
        // What the service does per shard when it starts.
        let t = Instant::now();
        tally.check(pool[0].project(ServeConfig::default().probe_batch).is_ok());
        calibrate.push(t.elapsed().as_secs_f64());
    }
    m.put("core.pool_build_s", median(&build), "s");
    m.put("core.calibrate_s", median(&calibrate), "s");
}

/// Host-side finance: the native CRR pricer on the paper batch, the
/// payoff reference every serving price call scores against, and the
/// host share of a Greeks request.
fn finance(seed: u64, m: &mut Metrics) {
    let options = paper::inputs(seed);
    let native = time_median(|| {
        for o in &options {
            black_box(price_american_f64(black_box(o), paper::N_STEPS));
        }
    });
    m.put("finance.crr_native_options_per_s", options.len() as f64 / native, "options/s");
    let n = serve::n_steps();
    let requests: Vec<_> = (0..4).flat_map(|i| serve::risk_request(seed, i)).collect();
    let reference = time_median(|| {
        for q in &requests {
            black_box(price_payoff_f64(black_box(&q.params), q.payoff, n));
        }
    });
    m.put("finance.reference_s_per_option", reference / requests.len() as f64, "s");
    // The device's bump prices are inputs here; only the host work is timed.
    let greeks_request: Vec<_> = serve::risk_request(seed, 5)
        .into_iter()
        .map(|q| (q, bump_scenarios(&q.params).map(|b| price_payoff_f64(&b, q.payoff, n))))
        .collect();
    let host = time_median(|| {
        for (q, bumps) in &greeks_request {
            let tree = BinomialTree::build_payoff(&q.params, q.payoff, n);
            let dt = q.params.expiry / n as f64;
            black_box(assemble_greeks(tree.price(), &tree, dt, *bumps));
        }
    });
    m.put("finance.greeks_host_s", host, "s");
}

/// Run every probe into `m`. Returns the checks made and the default
/// engine (the one the attribution of the paper kernels uses).
pub fn probe(seed: u64, m: &mut Metrics) -> (Tally, Engine) {
    let mut tally = Tally::default();
    compile_stages(m, &mut tally);
    let engine = exec_engines(seed, m, &mut tally);
    core_paper(seed, m, &mut tally);
    core_risk(seed, m, &mut tally);
    finance(seed, m);
    (tally, engine)
}

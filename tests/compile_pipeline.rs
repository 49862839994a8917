//! Integration: the compile pipeline (passes -> verify -> bytecode) and
//! the engine-equivalence contract.
//!
//! The tree-walking interpreter is the reference semantics; the
//! lane-vectorized bytecode engine is the default hot path. The first
//! half pins down the differential guarantee — both of the paper's host
//! programs on all three device models must produce bit-identical
//! prices, merged `ExecStats`, `QueueCounters` and exported traces on
//! every engine at any worker count, and so must runs with no engine
//! configured. The second half covers the knobs and failure modes
//! around the pipeline: engine/step-limit selection (builder and env
//! syntax), the structured errors for pass-corrupted and phi-form IR,
//! compile metrics, program sharing across pooled shards, and the pinned
//! final IR of every shipped kernel.
//!
//! The randomized tests draw their inputs from fixed-seed
//! `SplitMix64` streams with fixed case counts. There is no shrinking,
//! so a failure names the case index and its inputs.

use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
use bop_clir::mathlib::ExactMath;
use bop_clir::passes::Pipeline;
use bop_clir::value::Value;
use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::straightforward::StraightforwardHost;
use bop_core::{devices, Accelerator, KernelArch, Precision};
use bop_finance::rng::SplitMix64;
use bop_finance::types::OptionParams;
use bop_obs::{MetricsRegistry, Series};
use bop_ocl::queue::{parse_engine, parse_step_limit, QueueCounters};
use bop_ocl::{BuildOptions, CommandQueue, Context, Device, Engine, FaultPlan, Program};
use std::sync::Arc;

struct Outcome {
    prices: Vec<f64>,
    stats: Option<bop_clir::stats::ExecStats>,
    counters: QueueCounters,
    chrome: String,
    sim_s: f64,
}

/// Run `arch`'s host program on a fresh queue; `engine: None` leaves the
/// queue on its default engine.
fn run_host(
    device: Arc<dyn Device>,
    arch: KernelArch,
    engine: Option<Engine>,
    workers: usize,
) -> Outcome {
    let ctx = Context::new(device);
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    if let Some(engine) = engine {
        queue.set_engine(engine);
    }
    queue.enable_trace();
    let program = Program::from_source(
        &ctx,
        "kernel.cl",
        &arch.source(Precision::Double),
        &BuildOptions::default(),
    )
    .expect("kernel builds");
    let options = vec![OptionParams::example(); 5];
    let n_steps = 24;
    let prices = match arch {
        KernelArch::Straightforward => {
            StraightforwardHost { n_steps, precision: Precision::Double, read_full: true }
                .run(&ctx, &queue, &program, &options)
        }
        _ => OptimizedHost {
            n_steps,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(&ctx, &queue, &program, &options),
    }
    .expect("host program runs");
    Outcome {
        prices,
        stats: queue.kernel_stats(arch.kernel_name()),
        counters: queue.counters(),
        chrome: queue.export_chrome_trace().to_string(),
        sim_s: queue.elapsed_s(),
    }
}

#[test]
fn lanes_engine_is_bit_identical_to_the_tree_walker() {
    let archs = [KernelArch::Straightforward, KernelArch::Optimized];
    let device_of = [devices::fpga, devices::gpu, devices::cpu];
    for arch in archs {
        for make in device_of {
            let reference = run_host(make(), arch, Some(Engine::Walk), 1);
            // `None`: the engine a queue runs on when none is configured.
            for engine in [Some(Engine::Walk), Some(Engine::Lanes), None] {
                for workers in [1, 3] {
                    let got = run_host(make(), arch, engine, workers);
                    let what = format!(
                        "{arch:?} on {:?}, engine {engine:?}, {workers} worker(s)",
                        make().info().kind
                    );
                    assert_eq!(got.prices, reference.prices, "prices differ: {what}");
                    assert_eq!(got.stats, reference.stats, "kernel stats differ: {what}");
                    assert_eq!(got.counters, reference.counters, "counters differ: {what}");
                    assert_eq!(got.chrome, reference.chrome, "chrome export differs: {what}");
                    assert_eq!(got.sim_s, reference.sim_s, "simulated clock differs: {what}");
                }
            }
            assert!(reference.stats.is_some(), "launches must record kernel stats");
        }
    }
}

/// One branchy work-group kernel and its launch: divergent control flow
/// keyed on the local id, multiply-assigned locals that `mem2reg`
/// promotes through phis, barrier-separated local-memory traffic, and an
/// optional integer division that traps on a zero divisor.
#[derive(Debug, Clone)]
struct BranchyCase {
    /// Work-items per group.
    w: usize,
    /// Work-groups in the dispatch.
    groups: usize,
    /// Barrier-synchronised time steps.
    steps: usize,
    /// Lanes with `lid % m < r` take the then-side.
    m: usize,
    r: usize,
    /// Neighbour offset of the cross-lane local-memory read.
    shift: usize,
    c1: f64,
    c2: f64,
    /// Lane that divides by `divisor` (none if `>= w`).
    trap_lane: usize,
    divisor: i32,
}

impl BranchyCase {
    /// The hand-picked anchor: five lanes in two groups, one of which
    /// divides by `divisor`.
    fn anchor(divisor: i32) -> BranchyCase {
        let (w, groups, steps, m, r, shift) = (5, 2, 3, 2, 1, 2);
        BranchyCase { w, groups, steps, m, r, shift, c1: 1.25, c2: 0.75, trap_lane: 3, divisor }
    }

    fn draw(rng: &mut SplitMix64) -> BranchyCase {
        let mut int = |lo, hi| rng.int(lo..=hi) as usize;
        let (w, groups, steps, m, r, shift) =
            (int(2, 8), int(1, 3), int(0, 5), int(1, 4), int(0, 3), int(0, 7));
        let trap_lane = int(0, 12);
        let divisor = rng.int(0..=2) as i32;
        let (c1, c2) = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
        BranchyCase { w, groups, steps, m, r, shift, c1, c2, trap_lane, divisor }
    }

    fn source(&self) -> String {
        let BranchyCase { w, steps, m, r, shift, c1, c2, trap_lane, .. } = self;
        format!(
            "__kernel void k(__global double* out, __global const double* in,
                             __local double* tmp, int divisor) {{
                int lid = get_local_id(0);
                int gid = get_global_id(0);
                double acc = in[gid];
                int j = 0;
                for (int t = 0; t < {steps}; t++) {{
                    if (lid % {m} < {r}) {{
                        acc = acc * {c1:?} + (double)t;
                        j = j + lid;
                    }} else {{
                        acc = acc - {c2:?};
                        j = j - 1;
                    }}
                    tmp[lid] = acc;
                    barrier(CLK_LOCAL_MEM_FENCE);
                    double nb = tmp[(lid + {shift}) % {w}];
                    barrier(CLK_LOCAL_MEM_FENCE);
                    acc = fmax(acc * 0.5, fmin(nb, acc));
                }}
                if (lid == {trap_lane}) {{
                    j = j / divisor;
                }}
                out[gid] = acc + (double)j;
            }}"
        )
    }

    /// Whether the division executes with a zero divisor.
    fn traps(&self) -> bool {
        self.trap_lane < self.w && self.divisor == 0
    }
}

/// Everything one run of a [`BranchyCase`] observes: output bit
/// patterns (so NaNs cannot mask a divergence) or the error, stats,
/// counters and the simulated clock.
type BranchyOutcome =
    (Result<Vec<u64>, String>, Option<bop_clir::stats::ExecStats>, QueueCounters, f64);

fn run_branchy(
    case: &BranchyCase,
    engine: Engine,
    workers: usize,
    plan: Option<FaultPlan>,
) -> BranchyOutcome {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.set_engine(engine);
    if let Some(plan) = plan {
        queue.set_fault_plan(plan);
    }
    let program =
        Program::from_source(&ctx, "branchy.cl", &case.source(), &BuildOptions::default())
            .expect("kernel builds");
    let kernel = program.kernel("k").expect("kernel k");
    let n = case.w * case.groups;
    let out = ctx.create_buffer(8 * n);
    let input = ctx.create_buffer(8 * n);
    let init: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 1.5).collect();
    let result = (|| {
        queue.enqueue_write_f64(&input, &init)?;
        kernel.set_arg_buffer(0, &out);
        kernel.set_arg_buffer(1, &input);
        kernel.set_arg_local(2, 8 * case.w);
        kernel.set_arg_i32(3, case.divisor);
        queue.enqueue_nd_range(&kernel, bop_ocl::Dispatch::new(n, case.w))?;
        let mut prices = vec![0.0f64; n];
        queue.enqueue_read_f64(&out, &mut prices)?;
        Ok(prices.iter().map(|p| p.to_bits()).collect())
    })()
    .map_err(|e: bop_ocl::queue::RuntimeError| e.to_string());
    queue.finish();
    (result, queue.kernel_stats("k"), queue.counters(), queue.elapsed_s())
}

/// Walk and lanes agree bit for bit on branchy kernels at
/// several worker counts — prices, stats, counters, simulated time — and
/// report the identical trap when the kernel divides by zero. Cases 0
/// and 1 are the hand-picked anchor with a trapping and a clean divisor;
/// 24 seeded random cases follow.
#[test]
fn engines_agree_on_branchy_divergent_kernel_and_trap() {
    let mut rng = SplitMix64::seed_from_u64(0xb4a2c4);
    let cases = [BranchyCase::anchor(0), BranchyCase::anchor(2)]
        .into_iter()
        .chain((0..24).map(|_| BranchyCase::draw(&mut rng)));
    for (i, case) in cases.enumerate() {
        let reference = run_branchy(&case, Engine::Walk, 1, None);
        match &reference.0 {
            Err(trap) => assert!(
                case.traps() && trap.contains("integer division by zero"),
                "case {i}: unexpected trap `{trap}` for {case:?}"
            ),
            Ok(_) => assert!(!case.traps(), "case {i}: a zero divisor must trap: {case:?}"),
        }
        for engine in [Engine::Walk, Engine::Lanes] {
            for workers in [1, 3] {
                let got = run_branchy(&case, engine, workers, None);
                assert_eq!(
                    got, reference,
                    "case {i}: {engine} engine, {workers} worker(s), {case:?}"
                );
            }
        }
    }
}

/// Injected faults are a deterministic function of the launch sequence,
/// so under a seeded fault plan every engine still observes the
/// identical outcome: the same results or the same injected error.
#[test]
fn engines_agree_on_branchy_kernels_under_seeded_faults() {
    let mut rng = SplitMix64::seed_from_u64(0xfa017);
    for i in 0..24 {
        let case = BranchyCase::draw(&mut rng);
        let plan = FaultPlan::new(rng.uniform(0.0, 0.6), rng.next_u64());
        let reference = run_branchy(&case, Engine::Walk, 1, Some(plan));
        for engine in [Engine::Walk, Engine::Lanes] {
            for workers in [1, 3] {
                let got = run_branchy(&case, engine, workers, Some(plan));
                let what = format!("{engine} engine, {workers} worker(s), {plan:?}, {case:?}");
                assert_eq!(got, reference, "case {i}: {what}");
            }
        }
    }
}

/// A floating-point expression over the kernel arguments `x` and `y`.
#[derive(Debug, Clone)]
enum FExpr {
    Lit(f64),
    X,
    Y,
    Add(Box<FExpr>, Box<FExpr>),
    Sub(Box<FExpr>, Box<FExpr>),
    Mul(Box<FExpr>, Box<FExpr>),
    Max(Box<FExpr>, Box<FExpr>),
    Min(Box<FExpr>, Box<FExpr>),
    Abs(Box<FExpr>),
    Neg(Box<FExpr>),
    Ternary(Box<FExpr>, Box<FExpr>, Box<FExpr>),
}

impl FExpr {
    /// A random tree at most `depth` operators deep; leaves are literals
    /// in [-8, 8), `x` or `y`.
    fn draw(rng: &mut SplitMix64, depth: u32) -> FExpr {
        let sub = |rng: &mut SplitMix64| Box::new(FExpr::draw(rng, depth - 1));
        match if depth == 0 { rng.int(0..=2) } else { rng.int(0..=11) } {
            0 | 3 => FExpr::Lit(rng.uniform(-8.0, 8.0)),
            1 => FExpr::X,
            2 => FExpr::Y,
            4 => FExpr::Add(sub(rng), sub(rng)),
            5 => FExpr::Sub(sub(rng), sub(rng)),
            6 => FExpr::Mul(sub(rng), sub(rng)),
            7 => FExpr::Max(sub(rng), sub(rng)),
            8 => FExpr::Min(sub(rng), sub(rng)),
            9 => FExpr::Abs(sub(rng)),
            10 => FExpr::Neg(sub(rng)),
            _ => FExpr::Ternary(sub(rng), sub(rng), sub(rng)),
        }
    }

    fn render(&self) -> String {
        match self {
            FExpr::Lit(v) => format!("({v:?})"),
            FExpr::X => "x".into(),
            FExpr::Y => "y".into(),
            FExpr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            FExpr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            FExpr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            FExpr::Max(a, b) => format!("fmax({}, {})", a.render(), b.render()),
            FExpr::Min(a, b) => format!("fmin({}, {})", a.render(), b.render()),
            FExpr::Abs(a) => format!("fabs({})", a.render()),
            FExpr::Neg(a) => format!("(-{})", a.render()),
            FExpr::Ternary(c, t, e) => {
                format!("(({} > 0.0) ? {} : {})", c.render(), t.render(), e.render())
            }
        }
    }

    /// Direct evaluation: the same f64 operations the kernel performs.
    fn eval(&self, x: f64, y: f64) -> f64 {
        match self {
            FExpr::Lit(v) => *v,
            FExpr::X => x,
            FExpr::Y => y,
            FExpr::Add(a, b) => a.eval(x, y) + b.eval(x, y),
            FExpr::Sub(a, b) => a.eval(x, y) - b.eval(x, y),
            FExpr::Mul(a, b) => a.eval(x, y) * b.eval(x, y),
            FExpr::Max(a, b) => a.eval(x, y).max(b.eval(x, y)),
            FExpr::Min(a, b) => a.eval(x, y).min(b.eval(x, y)),
            FExpr::Abs(a) => a.eval(x, y).abs(),
            FExpr::Neg(a) => -a.eval(x, y),
            FExpr::Ternary(c, t, e) => {
                if c.eval(x, y) > 0.0 {
                    t.eval(x, y)
                } else {
                    e.eval(x, y)
                }
            }
        }
    }
}

/// Compile `src`, a kernel `k(__global double* o, ...)`, run it through
/// `pipeline`, execute one work-item with `scalars` bound after `o`, and
/// return `o[0]`.
fn run_one_item(src: &str, pipeline: &Pipeline, scalars: &[Value]) -> f64 {
    let module = bop_clc::compile("prop.cl", src, &bop_clc::Options::default())
        .unwrap_or_else(|e| panic!("compile failed for `{src}`: {e}"));
    let (module, _) = pipeline.run(module);
    let func = module.kernel("k").expect("kernel k");
    let mut mem = VecMemory::new();
    let out = mem.alloc_global(8);
    let args: Vec<KernelArgValue> = std::iter::once(KernelArgValue::GlobalBuffer(out))
        .chain(scalars.iter().map(|&v| KernelArgValue::Scalar(v)))
        .collect();
    WorkGroupRun::new(func, GroupShape::linear(1, 1, 0), &args, 0)
        .expect("args bind")
        .run(&mut mem, &ExactMath)
        .expect("runs");
    mem.read_f64(out, 0)
}

/// Bit-identical, or both NaN.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The front-end computes exactly what direct evaluation of a random
/// expression does, bit for bit, and the build pipeline — with and
/// without CSE, which random trees with shared subexpressions exercise —
/// never changes the result.
#[test]
fn random_float_expressions_match_direct_evaluation_through_every_pipeline() {
    let pipelines = [false, true].map(|cse| Pipeline::for_build(false, cse));
    let mut rng = SplitMix64::seed_from_u64(0xe4b2);
    for case in 0..64 {
        let expr = FExpr::draw(&mut rng, 5);
        let (x, y) = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
        let src = format!(
            "__kernel void k(__global double* o, double x, double y) {{ o[0] = {}; }}",
            expr.render()
        );
        let args = [Value::F64(x), Value::F64(y)];
        let want = expr.eval(x, y);
        let what = format!("case {case}: x={x:?} y={y:?} expr `{}`", expr.render());
        let unopt = run_one_item(&src, &Pipeline::for_build(true, false), &args);
        assert!(bits_eq(unopt, want), "{what}: compiled {unopt}, direct {want}");
        for pipeline in &pipelines {
            let opt = run_one_item(&src, pipeline, &args);
            assert!(
                bits_eq(opt, unopt),
                "{what}: `{}` gives {opt}, unoptimised {unopt}",
                pipeline.name()
            );
        }
    }
}

/// Integer arithmetic follows two's-complement C semantics at `int`
/// width: every intermediate wraps to i32.
#[test]
fn integer_ops_match_wrapping_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0x1e7);
    for case in 0..64 {
        let (a, b, shift) = (rng.next_u64() as i32, rng.next_u64() as i32, rng.int(0..=7) as u32);
        let src = format!(
            "__kernel void k(__global double* o, int x0, int x1) {{
                o[0] = (double)((x0 + x1) * (x0 - x1) + ((x0 << {shift}) ^ (x1 & x0)) % 97);
            }}"
        );
        let got =
            run_one_item(&src, &Pipeline::for_build(true, false), &[Value::I32(a), Value::I32(b)]);
        let rem = (a.wrapping_shl(shift) ^ (b & a)).wrapping_rem(97);
        let want = a.wrapping_add(b).wrapping_mul(a.wrapping_sub(b)).wrapping_add(rem) as f64;
        assert_eq!(got, want, "case {case}: a={a} b={b} shift={shift}");
    }
}

/// `#pragma unroll` never changes a loop's result, whatever the trip
/// count and factor, early `break` included.
#[test]
fn unrolling_preserves_loop_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0x0011);
    for case in 0..64 {
        let (trips, factor, start) = (rng.int(0..=19), rng.int(1..=5), rng.uniform(-5.0, 5.0));
        let src = |pragma: &str| {
            format!(
                "__kernel void k(__global double* o, double s) {{
                    double acc = s;
                    {pragma}
                    for (int i = 0; i < {trips}; i++) {{
                        acc = acc * 1.25 + (double)i;
                        if (acc > 1e6) {{ break; }}
                    }}
                    o[0] = acc;
                }}"
            )
        };
        let run = |src: String| {
            run_one_item(&src, &Pipeline::for_build(true, false), &[Value::F64(start)])
        };
        let rolled = run(src(""));
        let unrolled = run(src(&format!("#pragma unroll {factor}")));
        assert!(
            bits_eq(rolled, unrolled),
            "case {case}: trips={trips} factor={factor} start={start:?}: {rolled} vs {unrolled}"
        );
    }
}

/// Malformed programs that have each caught (or could catch) a
/// front-end crash.
const MALFORMED: &[&str] = &[
    "",
    "{",
    "}}}}",
    "__kernel",
    "__kernel void",
    "__kernel void k",
    "__kernel void k(",
    "__kernel void k()",
    "__kernel void k() {",
    "__kernel void k(__global double* o) { o[ }",
    "__kernel void k(__global double* o) { o[0] = ; }",
    "__kernel void k(__global double* o) { for (;;) }",
    "__kernel void k(__global double* o) { if }",
    "__kernel void k(__global double* o) { double; }",
    "__kernel void k(__global double* o) { double x[0]; }",
    "__kernel void k(__global double* o) { double x[-1]; }",
    "__kernel void k(__global double* o) { return 5; }",
    "__kernel void k(__global double* o) { continue; }",
    "__kernel void k(void v) {}",
    "__kernel int k(__global double* o) { return 1; }",
    "kernel kernel kernel",
    "__kernel void k(__global double* o) { o[0] = pow(1.0); }",
    "__kernel void k(__global double* o) { o[0] = get_global_id(); }",
    "__kernel void k(__global double* o) { o[0] = get_global_id(9); }",
    "__kernel void k(__global double* o) { o[0] = unknown_fn(1.0); }",
    "__kernel void k(__global double* o) { double x = 1.0 <<< 2; }",
    "#pragma unroll\n__kernel void k(__global double* o) {}",
    "__kernel void k(__global double* o) { #pragma unroll 2\n o[0] = 1.0; }",
    "__kernel void k(__global double* o, __global double* o) {}",
    "__kernel void k(__global double* o) { x = 1.0; }",
    "__kernel void k(__global double* o) { o = 0; }",
    "__kernel void k(__local double s) {}",
    "void helper() {} __kernel void k(__global double* o) {}",
    "__kernel void k(__global double* o) { o[0] = 1.0e99999; }",
    "__kernel void k(__global double* o) { o[0] = 99999999999999999999999999; }",
    "__kernel void k(__global double* o) { /* unterminated",
    "__kernel void k(__global double* o) { o[0] = (double); }",
    "__kernel void k(__global double* o) { barrier(); o[0] = barrier(0); }",
];

/// Whether the front-end returns (accepting, or rejecting with
/// positioned diagnostics) instead of panicking on `src`.
fn front_end_copes(src: &str) -> bool {
    match std::panic::catch_unwind(|| bop_clc::compile("fuzz.cl", src, &Default::default())) {
        Ok(Err(e)) => !e.diags().is_empty(),
        Ok(Ok(_)) => true,
        Err(_) => false,
    }
}

#[test]
fn malformed_corpus_yields_diagnostics_not_panics() {
    for (i, src) in MALFORMED.iter().enumerate() {
        assert!(front_end_copes(src), "case {i}: panicked or undiagnosed: `{src}`");
    }
}

/// Random printable text, and soups of C keywords and punctuation
/// (which reach the parser far more often), never panic the front-end.
#[test]
fn random_text_and_token_soup_never_panic_the_front_end() {
    const WORDS: [&str; 41] = [
        "__kernel",
        "void",
        "k",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "double",
        "int",
        "for",
        "if",
        "else",
        "while",
        "return",
        "break",
        "=",
        "+",
        "-",
        "*",
        "/",
        "<",
        ">",
        "==",
        "&&",
        "||",
        "?",
        ":",
        "1.0",
        "42",
        "x",
        "o",
        "__global",
        "__local",
        "barrier",
        "get_global_id",
        "pow",
        "#pragma unroll 2\n",
    ];
    let mut rng = SplitMix64::seed_from_u64(0xf022);
    for case in 0..256 {
        // Printable ASCII or a newline, up to 200 characters.
        let text: String = (0..rng.int(0..=200))
            .map(|_| match rng.int(0..=95) {
                95 => '\n',
                c => char::from(b' ' + c as u8),
            })
            .collect();
        assert!(front_end_copes(&text), "case {case}: text `{text}`");
        let soup: Vec<&str> =
            (0..rng.int(0..=59)).map(|_| WORDS[rng.int(0..=40) as usize]).collect();
        let soup = soup.join(" ");
        assert!(front_end_copes(&soup), "case {case}: token soup `{soup}`");
    }
}

#[test]
fn engine_knob_round_trips_and_env_syntax_parses() {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    assert_eq!(queue.engine(), Engine::default(), "queue starts on the default engine");
    queue.set_engine(Engine::Walk);
    assert_eq!(queue.engine(), Engine::Walk);
    queue.set_engine(Engine::Lanes);
    assert_eq!(queue.engine(), Engine::Lanes);
    assert_eq!(Engine::default(), Engine::Lanes, "lanes is the default hot path");

    // The BOP_SIM_ENGINE value syntax.
    for (s, want) in [
        ("walk", Some(Engine::Walk)),
        ("tree", Some(Engine::Walk)),
        ("Bytecode", None),
        (" bc ", None),
        ("lanes", Some(Engine::Lanes)),
        (" SIMD ", Some(Engine::Lanes)),
        ("llvm", None),
        ("", None),
    ] {
        assert_eq!(parse_engine(s), want, "parse_engine({s:?})");
    }
    // The BOP_SIM_STEP_LIMIT value syntax.
    assert_eq!(parse_step_limit("1000"), Some(1000));
    assert_eq!(parse_step_limit(" 0 "), Some(0));
    assert_eq!(parse_step_limit("-3"), None);
    assert_eq!(parse_step_limit("lots"), None);
}

#[test]
fn step_limit_traps_runaway_kernels_and_lifts_on_raise() {
    let build = |limit: Option<u64>| {
        let mut b = Accelerator::builder(devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(48);
        if let Some(l) = limit {
            b = b.step_limit(l);
        }
        b.build().expect("builds")
    };
    let options = [OptionParams::example(); 2];

    // A 48-step lattice runs far more than 100 instructions per group:
    // the tight budget must fail the run with the typed trap, not hang
    // or panic.
    let err = build(Some(100)).price(&options).expect_err("budget must trap");
    assert!(
        err.to_string().contains("instruction budget exhausted"),
        "step-limit trap is typed and named: {err}"
    );

    // Raising the budget (and the interpreter default, limit 0) lets the
    // same workload through, with identical prices.
    let raised = build(Some(50_000_000)).price(&options).expect("raised budget passes");
    let default = build(None).price(&options).expect("default budget passes");
    assert_eq!(raised.prices, default.prices, "the budget is a wall-clock knob only");

    // Both engines enforce the same budget semantics.
    let walk_err = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(48)
        .engine(Engine::Walk)
        .step_limit(100)
        .build()
        .expect("builds")
        .price(&options)
        .expect_err("walker traps too");
    assert_eq!(err.to_string(), walk_err.to_string(), "identical trap report on both engines");
}

/// The series of a registry that depend only on simulated execution:
/// queue and interpreter counters, simulated kernel seconds and energy.
/// Compile timings are wall-clock and left out.
fn simulated_series(registry: &MetricsRegistry) -> Vec<Series> {
    registry
        .snapshot()
        .into_iter()
        .filter(|s| {
            let (Series::Counter { name, .. }
            | Series::Gauge { name, .. }
            | Series::Hist { name, .. }) = s;
            ["ocl.", "clir.", "energy."].iter().any(|p| name.starts_with(p))
        })
        .collect()
}

/// `Accelerator::price` on kernels IV.B and IV.C on the FPGA model: the
/// pricing run, its session trace, calibration statistics and every
/// simulated metric are the walker's on every engine, and with no engine
/// configured.
#[test]
fn accelerator_engine_knob_is_wall_clock_only() {
    for arch in [KernelArch::Optimized, KernelArch::Streaming] {
        let price = |engine: Option<Engine>| {
            let registry = Arc::new(MetricsRegistry::new());
            let mut b = Accelerator::builder(devices::fpga())
                .arch(arch)
                .precision(Precision::Double)
                .n_steps(32)
                .metrics(registry.clone());
            if let Some(e) = engine {
                b = b.engine(e);
            }
            let acc = b.build().expect("builds");
            let run = acc.price_with_session_trace(&[OptionParams::example(); 4]).expect("prices");
            let calibration = acc.measure_per_option(16).expect("measures");
            (run, calibration, simulated_series(&registry))
        };
        let walk = price(Some(Engine::Walk));
        assert!(
            walk.2.iter().any(|s| matches!(s, Series::Counter { name, .. } if name == "clir.ops")),
            "{arch:?}: kernels published interpreter statistics"
        );
        for engine in [Some(Engine::Lanes), None] {
            let run = price(engine);
            let what = format!("{arch:?}, engine {engine:?}");
            assert_eq!(run.0, walk.0, "{what}: pricing run or session trace differs");
            assert_eq!(run.1, walk.1, "{what}: calibration ExecStats differ");
            assert_eq!(run.2, walk.2, "{what}: simulated metrics differ");
        }
    }
}

#[test]
fn pass_corrupted_ir_surfaces_as_a_structured_build_error() {
    // An empty kernel function is invalid IR (the verifier rejects
    // block-less functions); feeding it through the program build must
    // produce a typed error whose source chain reaches the verifier —
    // not a panic, not a bare string.
    use bop_clir::ir::{Function, Module};
    let module = Module::from_functions(
        "broken.cl",
        vec![Function {
            name: "empty".into(),
            params: vec![],
            is_kernel: true,
            reg_types: vec![],
            blocks: vec![],
            private_bytes: 0,
        }],
    );
    let ctx = Context::new(devices::gpu());
    let build_err = match Program::from_module(&ctx, Arc::new(module), &BuildOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("invalid IR must not build"),
    };
    assert!(
        build_err.message.contains("pass pipeline produced invalid IR"),
        "message names the pipeline: {}",
        build_err.message
    );
    let source = std::error::Error::source(&build_err).expect("source chain present");
    let verify = source
        .downcast_ref::<bop_clir::verify::VerifyError>()
        .expect("source is the verifier error");
    assert!(matches!(verify, bop_clir::verify::VerifyError::Empty { .. }));

    // And it maps into the crate-level error as Error::Build, keeping
    // the chain.
    let core_err = bop_core::Error::from(build_err);
    match core_err {
        bop_core::Error::Build(e) => {
            assert!(std::error::Error::source(&e).is_some(), "chain survives the wrap");
        }
        other => panic!("expected Error::Build, got {other}"),
    }
}

#[test]
fn phi_form_ir_fails_the_build_instead_of_panicking() {
    // Verified SSA-form IR: the front-end's IV.B module taken into phi
    // form. Built with `no_opt`, no pass lowers the phis, and the build
    // must fail with a typed error naming the function, before the
    // device compile or bytecode emission sees them.
    use bop_clir::ir::Inst;
    use bop_clir::passes::{cfg_simplify, mem2reg};
    let source = KernelArch::Optimized.source(Precision::Double);
    let lowered = bop_clc::compile("optimized.cl", &source, &bop_clc::Options::default())
        .expect("front-end lowers IV.B");
    let ssa = mem2reg(cfg_simplify(lowered));
    bop_clir::verify::verify_module(&ssa).expect("well-formed phis verify");
    let mut insts = ssa.functions.iter().flat_map(|f| &f.blocks).flat_map(|b| &b.insts);
    assert!(insts.any(|i| matches!(i, Inst::Phi { .. })), "mem2reg placed phis");

    let ctx = Context::new(devices::fpga());
    let options = BuildOptions { no_opt: true, ..BuildOptions::default() };
    let err = match Program::from_module(&ctx, Arc::new(ssa), &options) {
        Err(e) => e,
        Ok(_) => panic!("phi-form IR must not build"),
    };
    assert!(
        err.message.contains("`binomial_option`") && err.message.contains("phi"),
        "the error names the function and the phis: {}",
        err.message
    );
}

#[test]
fn compile_metrics_and_pass_report_are_published() {
    let metrics = Arc::new(bop_obs::MetricsRegistry::new());
    let acc = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(16)
        .metrics(metrics.clone())
        .build()
        .expect("builds");

    // Compilation happened exactly once, timed end to end.
    let labels = [("device", "GPU")];
    for name in [
        "compile.frontend_seconds",
        "compile.passes_seconds",
        "compile.device_seconds",
        "compile.bytecode_seconds",
        "compile.total_seconds",
    ] {
        let h = metrics.histogram(name, &labels).unwrap_or_else(|| panic!("{name} published"));
        assert_eq!(h.count, 1, "{name} observed once");
    }

    // The build report carries the pass pipeline statistics.
    let report = acc.program().report();
    let passes = report.passes.expect("report carries pass stats");
    assert_eq!(passes.pipeline, acc.program().pass_report().pipeline);
    assert_eq!(passes.pipeline, "ssa", "default build runs the SSA pipeline");
    assert!(!passes.passes.is_empty(), "ssa pipeline ran at least one pass");
}

#[test]
fn pooled_shards_share_one_compiled_program() {
    let pool = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(16)
        .build_pool(3)
        .expect("pool builds");
    assert_eq!(pool.len(), 3);
    let name = KernelArch::Optimized.kernel_name();
    let first = pool[0].program().compiled_kernel(name).expect("kernel compiled");
    for shard in &pool[1..] {
        let other = shard.program().compiled_kernel(name).expect("kernel compiled");
        assert!(Arc::ptr_eq(first, other), "shards share the cached bytecode");
        assert!(
            Arc::ptr_eq(pool[0].program().module(), shard.program().module()),
            "shards share the compiled module"
        );
    }
    // Shared programs still price independently and identically.
    let options = [OptionParams::example(); 3];
    let a = pool[0].price(&options).expect("prices");
    let b = pool[2].price(&options).expect("prices");
    assert_eq!(a.prices, b.prices);
}

/// FNV-1a 64 over `bytes`, continuing from `hash`: a digest that is
/// stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The final IR and build report of every shipped kernel, pinned. For
/// each (kernel, precision, cse) the digest covers the FPGA builds over
/// unroll {none, 1, 2, 4} x SIMD {1, 2, 4, 8, 16}: the printed final
/// module plus the `BuildReport` without its per-pass statistics, or the
/// fitter's error message for a rejected build. A refactor of the
/// front-end or the pass pipeline must leave every digest unchanged; an
/// intended change to the emitted IR updates the table.
#[test]
fn every_shipped_kernel_builds_to_its_pinned_ir() {
    use KernelArch::*;
    use Precision::{Double, Single};
    const PINNED: [(KernelArch, Precision, bool, u64); 28] = [
        (Straightforward, Double, false, 0xbeb226e5df934461),
        (Straightforward, Double, true, 0xe987be4fcedb48a5),
        (Straightforward, Single, false, 0x13e64f1cb3c2f905),
        (Straightforward, Single, true, 0xf61d6a72975f3621),
        (Optimized, Double, false, 0x4ff71a72d7568fa8),
        (Optimized, Double, true, 0xc07e7f812a93684e),
        (Optimized, Single, false, 0x98cd241886692dfc),
        (Optimized, Single, true, 0xea7179ab21b3a6e1),
        (OptimizedHostLeaves, Double, false, 0xc425fa842a8ffaef),
        (OptimizedHostLeaves, Double, true, 0x144f69775540d71b),
        (OptimizedHostLeaves, Single, false, 0xb62a919a8dfacf5d),
        (OptimizedHostLeaves, Single, true, 0xa27e229494761419),
        (OptimizedEuropean, Double, false, 0x747a1e519165b72f),
        (OptimizedEuropean, Double, true, 0x8b41e971e6771411),
        (OptimizedEuropean, Single, false, 0x972d0922c286b596),
        (OptimizedEuropean, Single, true, 0xbe65db39eb02da6e),
        (Barrier, Double, false, 0xb3c775ce036f32e8),
        (Barrier, Double, true, 0x6e99d4fdddcd1340),
        (Barrier, Single, false, 0x2728e0e13e92b78b),
        (Barrier, Single, true, 0x99143424cf2ede3e),
        (Bermudan, Double, false, 0xeab082c65079a8e5),
        (Bermudan, Double, true, 0xacbd7db6de83c367),
        (Bermudan, Single, false, 0xad67cf14e7707e53),
        (Bermudan, Single, true, 0xc60673df1a462e4f),
        (Streaming, Double, false, 0x03a1dd42e047b869),
        (Streaming, Double, true, 0x93d2c95d4990592d),
        (Streaming, Single, false, 0x406a43957e31920d),
        (Streaming, Single, true, 0x3a7b1a534b9fb1c1),
    ];
    let ctx = Context::new(devices::fpga());
    let mut moved = Vec::new();
    for (arch, precision, cse, pinned) in PINNED {
        let source = arch.source(precision);
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for unroll in [None, Some(1), Some(2), Some(4)] {
            for simd in [1, 2, 4, 8, 16] {
                let options = BuildOptions { simd, unroll, cse, ..BuildOptions::default() };
                let outcome = match Program::from_source(&ctx, "kernel.cl", &source, &options) {
                    Ok(program) => {
                        let mut report = program.report();
                        report.passes = None;
                        format!("{}\n{report:?}", program.module())
                    }
                    Err(e) => e.message,
                };
                digest = fnv1a(digest, outcome.as_bytes());
            }
        }
        if digest != pinned {
            moved.push(format!("({arch:?}, {precision:?}, {cse}, {digest:#018x})"));
        }
    }
    assert!(moved.is_empty(), "final IR moved for:\n{}", moved.join("\n"));
}

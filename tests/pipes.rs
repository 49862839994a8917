//! Integration: on-chip pipe (FIFO) semantics through the full
//! OpenCL-style runtime.
//!
//! Pins the contract the IV.C streaming architecture is built on: FIFO
//! ordering through a producer/consumer launch graph, blocking-stall
//! behaviour when the FIFO fills, a deterministic deadlock trap when a
//! read can never be satisfied, and bit-identity of prices, statistics
//! (stall counters included) and queue counters across the walker and
//! lanes engines.

use bop_clir::stats::ExecStats;
use bop_clir::types::ScalarType;
use bop_core::hostprog::streaming::StreamingHost;
use bop_core::{devices, KernelArch, Precision};
use bop_finance::rng::SplitMix64;
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::QueueCounters;
use bop_ocl::{BuildOptions, CommandQueue, Context, Device, Engine, FaultPlan, Program};
use std::sync::Arc;

const PAIR: &str = "__kernel void produce(pipe double ch, int n) {
    for (int i = 0; i < n; i++) {
        write_pipe(ch, (double)i * 1.5 + 0.25);
    }
}
__kernel void consume(pipe double ch, __global double* out, int n) {
    for (int i = 0; i < n; i++) {
        out[i] = read_pipe(ch);
    }
}";

fn session(device: Arc<dyn Device>) -> (Arc<Context>, CommandQueue, Program) {
    let ctx = Context::new(device);
    let queue = CommandQueue::new(&ctx);
    let program =
        Program::from_source(&ctx, "pair.cl", PAIR, &BuildOptions::default()).expect("builds");
    (ctx, queue, program)
}

/// Run the produce/consume pair through one launch graph with a FIFO of
/// `depth`, returning the consumed values and the session queue.
fn run_pair(device: Arc<dyn Device>, n: usize, depth: usize) -> (Vec<f64>, CommandQueue) {
    let (ctx, queue, program) = session(device);
    let pipe = ctx.create_pipe(ScalarType::F64, depth);
    let out = ctx.create_buffer(n * 8);

    let produce = program.kernel("produce").expect("kernel");
    produce.set_arg_pipe(0, &pipe);
    produce.set_arg_i32(1, n as i32);
    let consume = program.kernel("consume").expect("kernel");
    consume.set_arg_pipe(0, &pipe);
    consume.set_arg_buffer(1, &out);
    consume.set_arg_i32(2, n as i32);

    queue
        .enqueue_launch_graph(&[(&produce, Dispatch::new(1, 1)), (&consume, Dispatch::new(1, 1))])
        .expect("graph runs");
    let mut values = vec![0.0; n];
    queue.enqueue_read_f64_at(&out, 0, &mut values).expect("read");
    (values, queue)
}

#[test]
fn pipe_preserves_fifo_order() {
    let (values, queue) = run_pair(devices::fpga(), 40, 8);
    for (i, v) in values.iter().enumerate() {
        assert_eq!(*v, i as f64 * 1.5 + 0.25, "element {i} out of order");
    }
    let counters = queue.counters();
    assert_eq!(counters.pipe_writes, 40);
    assert_eq!(counters.pipe_reads, 40);
}

#[test]
fn full_pipe_stalls_the_producer_until_the_consumer_drains_it() {
    // Depth 2 with 40 elements: the producer must block on a full FIFO
    // while the consumer catches up — stalls are accounted, values
    // arrive intact and in order.
    let (values, queue) = run_pair(devices::fpga(), 40, 2);
    assert_eq!(values.len(), 40);
    assert!(values.windows(2).all(|w| w[1] > w[0]), "order survives stalling");
    let counters = queue.counters();
    assert!(
        counters.pipe_write_stalls > 0,
        "a 2-deep FIFO cannot absorb 40 writes without stalling"
    );
    // Deeper FIFO, same data: strictly fewer producer stalls.
    let (_, roomy) = run_pair(devices::fpga(), 40, 64);
    assert!(roomy.counters().pipe_write_stalls < counters.pipe_write_stalls);
}

#[test]
fn stalls_cost_simulated_time() {
    // Identical work, tighter FIFO: the stalled run's simulated clock
    // must be strictly later (each stall costs fabric cycles).
    let (_, tight) = run_pair(devices::fpga(), 40, 2);
    let (_, roomy) = run_pair(devices::fpga(), 40, 64);
    assert!(tight.finish() > roomy.finish(), "stalls must be visible in simulated time");
}

#[test]
fn reading_an_empty_pipe_with_no_producer_is_a_deadlock_trap() {
    let (ctx, queue, program) = session(devices::fpga());
    let pipe = ctx.create_pipe(ScalarType::F64, 4);
    let out = ctx.create_buffer(8 * 8);
    let consume = program.kernel("consume").expect("kernel");
    consume.set_arg_pipe(0, &pipe);
    consume.set_arg_buffer(1, &out);
    consume.set_arg_i32(2, 8);
    let err = queue
        .enqueue_launch_graph(&[(&consume, Dispatch::new(1, 1))])
        .expect_err("nothing ever feeds the pipe");
    assert!(err.to_string().contains("pipe deadlock"), "got: {err}");
}

#[test]
fn multi_group_dispatches_are_rejected_from_launch_graphs() {
    let (ctx, queue, program) = session(devices::fpga());
    let pipe = ctx.create_pipe(ScalarType::F64, 4);
    let produce = program.kernel("produce").expect("kernel");
    produce.set_arg_pipe(0, &pipe);
    produce.set_arg_i32(1, 4);
    let err = queue
        .enqueue_launch_graph(&[(&produce, Dispatch::new(4, 2))])
        .expect_err("two groups in one graph member");
    assert!(err.to_string().contains("not concurrent work-groups"), "got: {err}");
}

/// Everything observable from one producer/consumer run: the consumed
/// values' bit patterns (so NaNs cannot mask a divergence) or the error,
/// the two kernels' statistics (stall counters included), the queue
/// counters and the simulated clock.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<u64>, String>,
    producer_stats: Option<ExecStats>,
    consumer_stats: Option<ExecStats>,
    counters: QueueCounters,
    sim_s: f64,
}

/// A queue for one run; `engine: None` leaves it on its default engine.
fn queue_on(ctx: &Arc<Context>, engine: Option<Engine>) -> CommandQueue {
    let queue = CommandQueue::new(ctx);
    if let Some(engine) = engine {
        queue.set_engine(engine);
    }
    queue
}

fn outcome(
    queue: &CommandQueue,
    result: Result<Vec<f64>, String>,
    producer: &str,
    consumer: &str,
) -> Outcome {
    Outcome {
        result: result.map(|v| v.iter().map(|x| x.to_bits()).collect()),
        producer_stats: queue.kernel_stats(producer),
        consumer_stats: queue.kernel_stats(consumer),
        counters: queue.counters(),
        sim_s: queue.finish(),
    }
}

/// One IV.C pricing session.
fn run_streaming(engine: Option<Engine>) -> Outcome {
    let n_steps = 32;
    let ctx = Context::new(devices::fpga());
    let queue = queue_on(&ctx, engine);
    let program = Program::from_source(
        &ctx,
        "streaming.cl",
        &KernelArch::Streaming.source_sized(Precision::Double, n_steps),
        &BuildOptions::default(),
    )
    .expect("builds");
    let options: Vec<OptionParams> = (0..4)
        .map(|i| OptionParams { spot: 92.0 + 4.0 * f64::from(i), ..OptionParams::example() })
        .collect();
    let prices = StreamingHost { n_steps, precision: Precision::Double }
        .run(&ctx, &queue, &program, &options)
        .expect("prices");
    let consumer = KernelArch::Streaming.kernel_name();
    outcome(&queue, Ok(prices), KernelArch::STREAMING_PRODUCER, consumer)
}

/// A random producer/consumer pair and its launch.
#[derive(Debug)]
struct PairCase {
    /// FIFO depth (small, so depth-full stalls are frequent).
    depth: usize,
    writes: usize,
    /// More reads than writes can never be satisfied and must hit the
    /// deadlock trap.
    reads: usize,
    /// The producer does filler arithmetic every `burst` writes, which
    /// varies the interleaving the round-robin scheduler sees.
    burst: usize,
    c: f64,
    /// Consumer listed before the producer in the graph.
    consumer_first: bool,
    /// Step budget for the whole graph (`None`: the default).
    step_limit: Option<u64>,
}

impl PairCase {
    fn draw(rng: &mut SplitMix64) -> PairCase {
        let mut int = |lo, hi| rng.int(lo..=hi) as usize;
        let (depth, writes, reads, burst) = (int(1, 8), int(0, 24), int(0, 28), int(1, 5));
        let c = rng.uniform(-2.0, 2.0);
        let consumer_first = rng.next_u64() & 1 == 1;
        // A tiny budget one time in four.
        let step_limit = (rng.int(0..=3) == 0).then_some(150);
        PairCase { depth, writes, reads, burst, c, consumer_first, step_limit }
    }

    fn source(&self) -> String {
        let PairCase { writes, reads, burst, c, .. } = self;
        format!(
            "__kernel void produce(pipe double ch, __global double* side) {{
                double filler = 0.0;
                for (int i = 0; i < {writes}; i++) {{
                    write_pipe(ch, (double)i * {c:?} + 0.5);
                    if (i % {burst} == 0) {{
                        filler = filler + (double)i * 0.25;
                    }}
                }}
                side[0] = filler;
            }}
            __kernel void consume(pipe double ch, __global double* out) {{
                double acc = 0.0;
                for (int i = 0; i < {reads}; i++) {{
                    double v = read_pipe(ch);
                    acc = acc * 0.5 + v;
                    out[i] = v;
                }}
                out[{reads}] = acc;
            }}"
        )
    }

    fn deadlocks(&self) -> bool {
        self.reads > self.writes
    }
}

/// Run `case` as one launch graph.
fn run_random_pair(case: &PairCase, engine: Option<Engine>, plan: Option<FaultPlan>) -> Outcome {
    let ctx = Context::new(devices::fpga());
    let queue = queue_on(&ctx, engine);
    if let Some(limit) = case.step_limit {
        queue.set_step_limit(limit);
    }
    if let Some(plan) = plan {
        queue.set_fault_plan(plan).expect("valid plan");
    }
    let program = Program::from_source(&ctx, "pair.cl", &case.source(), &BuildOptions::default())
        .expect("generated pair builds");
    let pipe = ctx.create_pipe(ScalarType::F64, case.depth);
    let side = ctx.create_buffer(8);
    let out = ctx.create_buffer(8 * (case.reads + 1));
    let produce = program.kernel("produce").expect("kernel");
    produce.set_arg_pipe(0, &pipe);
    produce.set_arg_buffer(1, &side);
    let consume = program.kernel("consume").expect("kernel");
    consume.set_arg_pipe(0, &pipe);
    consume.set_arg_buffer(1, &out);
    let d = Dispatch::new(1, 1);
    let graph = if case.consumer_first {
        [(&consume, d), (&produce, d)]
    } else {
        [(&produce, d), (&consume, d)]
    };
    let result = queue.enqueue_launch_graph(&graph).and_then(|_| {
        let mut values = vec![0.0f64; case.reads + 1];
        queue.enqueue_read_f64(&out, &mut values).map(|_| values)
    });
    outcome(&queue, result.map_err(|e| e.to_string()), "produce", "consume")
}

/// The engines every pair must match the walker under; `None` is the
/// engine a queue runs on when none is configured. Pipe kernels are
/// single-work-item tasks that run serially against the pipe hub, so the
/// worker count has no effect on them.
const ENGINES: [Option<Engine>; 2] = [Some(Engine::Lanes), None];

/// Case 0 is kernel IV.C's producer/consumer pair through its host
/// program; 24 seeded random pairs follow, with mismatched read and
/// write counts, bursty writes against small FIFOs and tiny step
/// budgets. Whatever happens — values, stalls, counters, the simulated
/// clock, a deadlock trap or a budget trip — is bit-identical on every
/// engine, and no case hangs.
#[test]
fn producer_consumer_pair_is_bit_identical_across_engines() {
    let reference = run_streaming(Some(Engine::Walk));
    let consumer = reference.consumer_stats.as_ref().expect("consumer ran");
    assert!(consumer.pipe_read_stalls > 0, "the consumer must outpace the producer at least once");
    for engine in ENGINES {
        let outcome = run_streaming(engine);
        assert_eq!(reference, outcome, "case 0 (IV.C): {engine:?} diverged");
    }

    let mut rng = SplitMix64::seed_from_u64(0x919e);
    for i in 1..=24 {
        let case = PairCase::draw(&mut rng);
        let reference = run_random_pair(&case, Some(Engine::Walk), None);
        match &reference.result {
            Err(msg) => assert!(
                msg.contains("pipe deadlock")
                    || (case.step_limit.is_some() && msg.contains("instruction budget exhausted")),
                "case {i}: only a deadlock or a budget trip may fail a fault-free pair: \
                 `{msg}` for {case:?}"
            ),
            Ok(_) => assert!(!case.deadlocks(), "case {i}: unsatisfiable reads must deadlock"),
        }
        for engine in ENGINES {
            let outcome = run_random_pair(&case, engine, None);
            assert_eq!(reference, outcome, "case {i}: {engine:?}, {case:?}");
        }
    }
}

/// Injected faults are a deterministic function of the launch sequence,
/// so under a seeded fault plan a random pipe pair still observes the
/// identical outcome on every engine.
#[test]
fn pipe_pairs_are_bit_identical_under_seeded_faults() {
    let mut rng = SplitMix64::seed_from_u64(0xfa19);
    for i in 0..24 {
        let case = PairCase::draw(&mut rng);
        let plan = FaultPlan::new(rng.uniform(0.0, 0.6), rng.next_u64());
        let reference = run_random_pair(&case, Some(Engine::Walk), Some(plan));
        for engine in ENGINES {
            let outcome = run_random_pair(&case, engine, Some(plan));
            assert_eq!(reference, outcome, "case {i}: {engine:?}, {plan:?}, {case:?}");
        }
    }
}

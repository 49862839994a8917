//! Integration: on-chip pipe (FIFO) semantics through the full
//! OpenCL-style runtime.
//!
//! Pins the contract the IV.C streaming architecture is built on: FIFO
//! ordering through a producer/consumer launch graph, blocking-stall
//! behaviour when the FIFO fills, a deterministic deadlock trap when a
//! read can never be satisfied, and bit-identity of prices, statistics
//! (stall counters included) and queue counters across all three
//! execution engines at several worker counts.

use bop_core::hostprog::streaming::StreamingHost;
use bop_core::{devices, KernelArch, Precision};
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::{BuildOptions, CommandQueue, Context, Device, Engine, Program};
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
    let pipe = ctx.create_pipe(bop_clir::types::ScalarType::F64, depth);
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
    let pipe = ctx.create_pipe(bop_clir::types::ScalarType::F64, 4);
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
    let pipe = ctx.create_pipe(bop_clir::types::ScalarType::F64, 4);
    let produce = program.kernel("produce").expect("kernel");
    produce.set_arg_pipe(0, &pipe);
    produce.set_arg_i32(1, 4);
    let err = queue
        .enqueue_launch_graph(&[(&produce, Dispatch::new(4, 2))])
        .expect_err("two groups in one graph member");
    assert!(err.to_string().contains("not concurrent work-groups"), "got: {err}");
}

/// Everything observable from one IV.C pricing session.
#[derive(Debug, PartialEq)]
struct Outcome {
    prices: Vec<f64>,
    producer_stats: bop_clir::stats::ExecStats,
    consumer_stats: bop_clir::stats::ExecStats,
    counters: bop_ocl::queue::QueueCounters,
    sim_s: f64,
}

/// `engine: None` leaves the queue on its default engine.
fn run_streaming(engine: Option<Engine>, workers: usize) -> Outcome {
    let n_steps = 32;
    let ctx = Context::new(devices::fpga());
    let queue = CommandQueue::new(&ctx);
    if let Some(engine) = engine {
        queue.set_engine(engine);
    }
    queue.set_workers(workers);
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
    Outcome {
        prices,
        producer_stats: queue.kernel_stats(KernelArch::STREAMING_PRODUCER).expect("producer ran"),
        consumer_stats: queue
            .kernel_stats(KernelArch::Streaming.kernel_name())
            .expect("consumer ran"),
        counters: queue.counters(),
        sim_s: queue.finish(),
    }
}

#[test]
fn producer_consumer_pair_is_bit_identical_across_engines_and_workers() {
    let reference = run_streaming(Some(Engine::Walk), 1);
    assert!(
        reference.consumer_stats.pipe_read_stalls > 0,
        "the consumer must outpace the producer at least once"
    );
    // `None`: the engine a queue runs on when none is configured.
    for (engine, workers) in [
        (Some(Engine::Walk), 4),
        (Some(Engine::Bytecode), 1),
        (Some(Engine::Bytecode), 4),
        (Some(Engine::Lanes), 1),
        (Some(Engine::Lanes), 4),
        (None, 1),
        (None, 4),
    ] {
        let outcome = run_streaming(engine, workers);
        assert_eq!(reference, outcome, "{engine:?} with {workers} workers diverged");
    }
}

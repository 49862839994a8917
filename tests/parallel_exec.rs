//! Integration: parallel NDRange execution and queue-command hardening.
//!
//! The first half pins down the determinism guarantee of the parallel
//! work-group executor — running both of the paper's host programs on
//! all three device models with 1 vs several workers must give
//! bit-identical prices, merged `ExecStats`, `QueueCounters` and
//! exported traces. The second half is regression coverage for the
//! buffer-offset arithmetic (near-`usize::MAX` offsets must report an
//! invalid command, not wrap in release builds) and the zero-length
//! edge cases of every transfer helper.

use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::straightforward::StraightforwardHost;
use bop_core::{devices, KernelArch, Precision};
use bop_finance::types::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::RuntimeError;
use bop_ocl::{BuildOptions, CommandQueue, Context, Device, Program};
use std::sync::Arc;

fn session(
    device: Arc<dyn Device>,
    arch: KernelArch,
    workers: usize,
) -> (Arc<Context>, CommandQueue, Program) {
    let ctx = Context::new(device);
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.enable_trace();
    let program = Program::from_source(
        &ctx,
        "kernel.cl",
        &arch.source(Precision::Double),
        &BuildOptions::default(),
    )
    .expect("kernel builds");
    (ctx, queue, program)
}

struct Outcome {
    prices: Vec<f64>,
    stats: Option<bop_clir::stats::ExecStats>,
    counters: bop_ocl::queue::QueueCounters,
    trace: Vec<bop_ocl::queue::TraceEntry>,
    chrome: String,
    sim_s: f64,
}

fn run_host(device: Arc<dyn Device>, arch: KernelArch, workers: usize) -> Outcome {
    let (ctx, queue, program) = session(device, arch, workers);
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
        trace: queue.trace(),
        chrome: queue.export_chrome_trace().to_string(),
        sim_s: queue.elapsed_s(),
    }
}

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    let archs = [KernelArch::Straightforward, KernelArch::Optimized];
    let device_of = [devices::fpga, devices::gpu, devices::cpu];
    for arch in archs {
        for make in device_of {
            let seq = run_host(make(), arch, 1);
            for workers in [2, 4, 7] {
                let par = run_host(make(), arch, workers);
                let what = format!("{arch:?} on {:?}, {workers} workers", make().info().kind);
                assert_eq!(par.prices, seq.prices, "prices differ: {what}");
                assert_eq!(par.stats, seq.stats, "kernel stats differ: {what}");
                assert_eq!(par.counters, seq.counters, "counters differ: {what}");
                assert_eq!(par.trace, seq.trace, "trace differs: {what}");
                assert_eq!(par.chrome, seq.chrome, "chrome export differs: {what}");
                assert_eq!(par.sim_s, seq.sim_s, "simulated clock differs: {what}");
            }
            assert!(seq.stats.is_some(), "launches must record kernel stats");
        }
    }
}

#[test]
fn worker_knob_round_trips_and_clamps() {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    assert!(queue.workers() >= 1, "default worker count is positive");
    queue.set_workers(3);
    assert_eq!(queue.workers(), 3);
    queue.set_workers(0);
    assert_eq!(queue.workers(), 1, "zero clamps to one");
}

#[test]
fn partition_groups_is_contiguous_ascending_and_complete() {
    for (groups, workers) in [(1, 1), (5, 2), (96, 4), (7, 16), (12, 3), (0, 4)] {
        let ranges = Dispatch::partition_groups(groups, workers);
        assert!(ranges.len() <= workers.max(1));
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next, "ranges contiguous for {groups}/{workers}");
            assert!(r.end > r.start, "ranges non-empty for {groups}/{workers}");
            next = r.end;
        }
        assert_eq!(next, groups, "ranges cover all groups for {groups}/{workers}");
    }
}

#[test]
fn parallel_errors_match_the_sequential_report() {
    // A kernel whose group 2 (and only group 2) traps out of bounds:
    // every worker count must report the same failing access.
    let src = "__kernel void trap(__global double* io) {
        size_t grp = get_group_id(0);
        if (grp == 2) { io[1000000] = 1.0; } else { io[get_global_id(0)] = 1.0; }
    }";
    let mut messages = Vec::new();
    for workers in [1usize, 4] {
        let ctx = Context::new(devices::gpu());
        let queue = CommandQueue::new(&ctx);
        queue.set_workers(workers);
        let program =
            Program::from_source(&ctx, "trap.cl", src, &BuildOptions::default()).expect("builds");
        let buf = ctx.create_buffer(16 * 8);
        let k = program.kernel("trap").expect("kernel");
        k.set_arg_buffer(0, &buf);
        let err = queue.enqueue_nd_range(&k, Dispatch::new(16, 2)).expect_err("traps");
        messages.push(err.to_string());
    }
    assert_eq!(messages[0], messages[1], "error reports must not depend on worker count");
    assert!(messages[0].contains("out of bounds"), "bounds trap surfaced: {}", messages[0]);
}

fn queue_with_buffer(bytes: usize) -> (Arc<Context>, CommandQueue, bop_ocl::context::Buffer) {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    let buf = ctx.create_buffer(bytes);
    (ctx, queue, buf)
}

fn assert_invalid(result: Result<bop_ocl::queue::Event, RuntimeError>, what: &str) {
    match result {
        Err(RuntimeError::Invalid(_)) => {}
        other => panic!("{what}: expected RuntimeError::Invalid, got {other:?}"),
    }
}

#[test]
fn huge_offsets_report_invalid_instead_of_wrapping() {
    // Regression: `offset * 8` used to wrap in release builds, pass the
    // bounds check, and panic on slice indexing.
    let (_ctx, q, buf) = queue_with_buffer(32);
    for offset in [usize::MAX, usize::MAX / 8 + 1, usize::MAX / 4] {
        assert_invalid(q.enqueue_write_f64_at(&buf, offset, &[1.0]), "write_f64_at huge offset");
        assert_invalid(q.enqueue_read_f64_at(&buf, offset, &mut [0.0]), "read_f64_at huge offset");
        assert_invalid(q.enqueue_write_f32_at(&buf, offset, &[1.0]), "write_f32_at huge offset");
        assert_invalid(q.enqueue_read_f32_at(&buf, offset, &mut [0.0]), "read_f32_at huge offset");
    }
}

#[test]
fn oob_and_zero_length_transfers() {
    let (_ctx, q, buf) = queue_with_buffer(4 * 8);

    // In-bounds baseline.
    q.enqueue_write_f64_at(&buf, 2, &[7.0, 8.0]).expect("tail write fits");
    let mut out = [0.0; 2];
    q.enqueue_read_f64_at(&buf, 2, &mut out).expect("tail read fits");
    assert_eq!(out, [7.0, 8.0]);

    // One element past the end.
    assert_invalid(q.enqueue_write_f64_at(&buf, 3, &[1.0, 2.0]), "write_f64_at past end");
    assert_invalid(q.enqueue_read_f64_at(&buf, 3, &mut [0.0; 2]), "read_f64_at past end");
    assert_invalid(q.enqueue_write_f32_at(&buf, 7, &[1.0, 2.0]), "write_f32_at past end");
    assert_invalid(q.enqueue_read_f32_at(&buf, 7, &mut [0.0; 2]), "read_f32_at past end");

    // Zero-length transfers at any in-range offset are legal no-ops...
    q.enqueue_write_f64_at(&buf, 4, &[]).expect("zero-length write at end");
    q.enqueue_read_f64_at(&buf, 4, &mut []).expect("zero-length read at end");
    q.enqueue_write_f32_at(&buf, 8, &[]).expect("zero-length f32 write at end");
    q.enqueue_read_f32_at(&buf, 8, &mut []).expect("zero-length f32 read at end");
    // ... but not past it.
    assert_invalid(q.enqueue_write_f64_at(&buf, 5, &[]), "zero-length write past end");
    assert_invalid(q.enqueue_read_f32_at(&buf, 9, &mut []), "zero-length read past end");
}

#[test]
fn copy_and_fill_bounds() {
    let ctx = Context::new(devices::gpu());
    let q = CommandQueue::new(&ctx);
    let a = ctx.create_buffer(32);
    let b = ctx.create_buffer(16);

    q.enqueue_fill_f64(&a, 2.5, 4).expect("fill fits");
    q.enqueue_copy_buffer(&a, &b, 16).expect("copy fits");
    let mut out = [0.0; 2];
    q.enqueue_read_f64(&b, &mut out).expect("read");
    assert_eq!(out, [2.5, 2.5]);

    // Zero-length copy and fill are legal no-ops.
    q.enqueue_copy_buffer(&a, &b, 0).expect("zero-length copy");
    q.enqueue_fill_f64(&a, 0.0, 0).expect("zero-length fill");

    // Out of range on either side.
    assert_invalid(q.enqueue_copy_buffer(&a, &b, 17), "copy larger than dst");
    assert_invalid(q.enqueue_copy_buffer(&b, &a, 17), "copy larger than src");
    assert_invalid(q.enqueue_copy_buffer(&a, &a, 8), "copy onto itself");
    assert_invalid(q.enqueue_fill_f64(&a, 1.0, 5), "fill past end");
    // Regression: `count * 8` must not wrap in release builds.
    assert_invalid(q.enqueue_fill_f64(&a, 1.0, usize::MAX / 4), "fill with huge count");
}

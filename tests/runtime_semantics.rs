//! Integration: OpenCL runtime semantics across the stack — command
//! ordering, ping-pong buffering, timing-only equivalence, and the
//! device-memory behaviours the host programs rely on — and, at its
//! base, the IR substrate's value encodings, constant evaluation,
//! quantisation and softmath routines over seeded random inputs.

use bop_clir::eval::{eval_bin, eval_cast, eval_cmp};
use bop_clir::ir::{BinOp, CmpOp};
use bop_clir::softmath;
use bop_clir::types::ScalarType;
use bop_clir::value::Value;
use bop_core::{Accelerator, KernelArch, Precision};
use bop_finance::rng::SplitMix64;
use bop_finance::OptionParams;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::CommandKind;
use bop_ocl::{BuildOptions, CommandQueue, Context, Program};

#[test]
fn ping_pong_buffers_are_independent() {
    // Writing through one buffer must never disturb the other — the whole
    // point of the paper's double buffering.
    let ctx = Context::new(bop_core::devices::fpga());
    let q = CommandQueue::new(&ctx);
    let p = Program::from_source(
        &ctx,
        "copy.cl",
        "__kernel void copy(__global const double* src, __global double* dst) {
            size_t g = get_global_id(0);
            dst[g] = src[g] + 1.0;
        }",
        &BuildOptions::default(),
    )
    .expect("builds");
    let a = ctx.create_buffer(4 * 8);
    let b = ctx.create_buffer(4 * 8);
    q.enqueue_write_f64(&a, &[1.0, 2.0, 3.0, 4.0]).expect("write");
    let k = p.kernel("copy").expect("kernel");
    // a -> b, then b -> a: two generations of the pipeline.
    k.set_arg_buffer(0, &a);
    k.set_arg_buffer(1, &b);
    q.enqueue_nd_range(&k, Dispatch::new(4, 4)).expect("launch");
    k.set_arg_buffer(0, &b);
    k.set_arg_buffer(1, &a);
    q.enqueue_nd_range(&k, Dispatch::new(4, 4)).expect("launch");
    let mut out_a = [0.0; 4];
    let mut out_b = [0.0; 4];
    q.enqueue_read_f64(&a, &mut out_a).expect("read");
    q.enqueue_read_f64(&b, &mut out_b).expect("read");
    assert_eq!(out_b, [2.0, 3.0, 4.0, 5.0]);
    assert_eq!(out_a, [3.0, 4.0, 5.0, 6.0]);
}

#[test]
fn command_stream_timestamps_are_in_order_and_disjoint() {
    let acc = Accelerator::builder(bop_core::devices::fpga())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(32)
        .build()
        .expect("builds");
    let run = acc.price(&[OptionParams::example(); 3]).expect("prices");
    assert!(run.elapsed_s > 0.0);
    assert!(run.device_busy_s > 0.0);
    assert!(run.device_busy_s <= run.elapsed_s, "device time within wall time");
}

#[test]
fn timing_only_replay_reproduces_the_functional_command_stream() {
    // The projection path must issue exactly the commands the functional
    // path does (same counts, same bytes) — otherwise the Table II numbers
    // would measure a different program than the one that runs.
    let n_steps = 32;
    let options = vec![OptionParams::example(); 5];

    let functional = {
        let ctx = Context::new(bop_core::devices::fpga());
        let q = CommandQueue::new(&ctx);
        q.enable_trace();
        let p = Program::from_source(
            &ctx,
            "k.cl",
            &KernelArch::Straightforward.source(Precision::Double),
            &BuildOptions::paper_straightforward(),
        )
        .expect("builds");
        bop_core::hostprog::straightforward::StraightforwardHost {
            n_steps,
            precision: Precision::Double,
            read_full: true,
        }
        .run(&ctx, &q, &p, &options)
        .expect("runs");
        (q.counters(), q.trace())
    };

    let timing_only = {
        let ctx = Context::new(bop_core::devices::fpga());
        let q = CommandQueue::new(&ctx);
        q.enable_trace();
        q.set_timing_only(Box::new(|_, d| {
            let mut s = bop_clir::stats::ExecStats::with_blocks(4);
            s.block_execs[0] = d.global as u64;
            s
        }));
        let p = Program::from_source(
            &ctx,
            "k.cl",
            &KernelArch::Straightforward.source(Precision::Double),
            &BuildOptions::paper_straightforward(),
        )
        .expect("builds");
        bop_core::hostprog::straightforward::StraightforwardHost {
            n_steps,
            precision: Precision::Double,
            read_full: true,
        }
        .run(&ctx, &q, &p, &options)
        .expect("runs");
        (q.counters(), q.trace())
    };

    assert_eq!(functional.0.writes, timing_only.0.writes);
    assert_eq!(functional.0.reads, timing_only.0.reads);
    assert_eq!(functional.0.launches, timing_only.0.launches);
    assert_eq!(functional.0.h2d_bytes, timing_only.0.h2d_bytes);
    assert_eq!(functional.0.d2h_bytes, timing_only.0.d2h_bytes);
    assert_eq!(functional.1.len(), timing_only.1.len());
    for (f, t) in functional.1.iter().zip(&timing_only.1) {
        assert_eq!(f.kind, t.kind);
        assert_eq!(f.bytes, t.bytes);
    }
}

#[test]
fn kernel_ordering_respects_the_in_order_queue() {
    let ctx = Context::new(bop_core::devices::gpu());
    let q = CommandQueue::new(&ctx);
    q.enable_trace();
    let p = Program::from_source(
        &ctx,
        "inc.cl",
        "__kernel void inc(__global double* x) { x[0] = x[0] * 2.0 + 1.0; }",
        &BuildOptions::default(),
    )
    .expect("builds");
    let buf = ctx.create_buffer(8);
    q.enqueue_write_f64(&buf, &[1.0]).expect("write");
    let k = p.kernel("inc").expect("kernel");
    k.set_arg_buffer(0, &buf);
    for _ in 0..4 {
        q.enqueue_nd_range(&k, Dispatch::new(1, 1)).expect("launch");
    }
    let mut out = [0.0];
    q.enqueue_read_f64(&buf, &mut out).expect("read");
    // x -> 3 -> 7 -> 15 -> 31: only correct if launches execute in order.
    assert_eq!(out[0], 31.0);
    let trace = q.trace();
    for w in trace.windows(2) {
        assert!(w[0].end_s <= w[1].start_s, "commands must not overlap in an in-order queue");
    }
    assert_eq!(trace.iter().filter(|t| t.kind == CommandKind::Kernel).count(), 4);
}

#[test]
fn device_memory_capacity_is_enforced_per_context() {
    let ctx = Context::new(bop_core::devices::gpu());
    let cap = ctx.device().info().global_mem_bytes as usize;
    let _half = ctx.create_buffer(cap / 2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _too_much = ctx.create_buffer(cap / 2 + 1024);
    }));
    assert!(result.is_err(), "exceeding device memory must fail loudly");
}

/// Byte encode/decode round-trips every scalar value, NaNs and
/// infinities included (compared through re-encoding, since NaNs are
/// unequal).
#[test]
fn value_bytes_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0xb17e5);
    for case in 0..256 {
        let x = f64::from_bits(rng.next_u64());
        let (i, j) = (rng.next_u64() as i64, rng.next_u64() as i32);
        for v in [Value::F64(x), Value::I64(i), Value::I32(j), Value::F32(x as f32)] {
            let ty = v.scalar_type().expect("scalar");
            let decoded = Value::from_le_bytes(ty, &v.to_le_bytes());
            assert_eq!(decoded.to_le_bytes(), v.to_le_bytes(), "case {case}: {v:?}");
        }
    }
}

/// Constant evaluation agrees with native Rust: f64 arithmetic exactly,
/// i32 arithmetic with two's-complement wrapping and a division trap on
/// zero, comparisons that partition non-NaN floats, and f64 <-> i64
/// casts that are the identity on integral values.
#[test]
fn constant_evaluation_matches_native_arithmetic() {
    let mut rng = SplitMix64::seed_from_u64(0xe7a1);
    for case in 0..256 {
        let (a, b) = (rng.uniform(-1e12, 1e12), rng.uniform(-1e12, 1e12));
        for (op, want) in [
            (BinOp::Add, a + b),
            (BinOp::Sub, a - b),
            (BinOp::Mul, a * b),
            (BinOp::Min, a.min(b)),
            (BinOp::Max, a.max(b)),
        ] {
            let got = eval_bin(op, ScalarType::F64, Value::F64(a), Value::F64(b));
            assert_eq!(got, Ok(Value::F64(want)), "case {case}: {op:?} on {a:?}, {b:?}");
        }

        let (a, b) = (rng.next_u64() as i32, rng.next_u64() as i32);
        for (op, want) in [
            (BinOp::Add, a.wrapping_add(b)),
            (BinOp::Sub, a.wrapping_sub(b)),
            (BinOp::Mul, a.wrapping_mul(b)),
            (BinOp::And, a & b),
            (BinOp::Or, a | b),
            (BinOp::Xor, a ^ b),
            (BinOp::Min, a.min(b)),
            (BinOp::Max, a.max(b)),
        ] {
            let got = eval_bin(op, ScalarType::I32, Value::I32(a), Value::I32(b));
            assert_eq!(got, Ok(Value::I32(want)), "case {case}: {op:?} on {a}, {b}");
        }
        let div = eval_bin(BinOp::Div, ScalarType::I32, Value::I32(a), Value::I32(b));
        if b == 0 {
            assert!(div.is_err(), "case {case}: {a} / 0 traps");
        } else {
            assert_eq!(div, Ok(Value::I32(a.wrapping_div(b))), "case {case}: {a} / {b}");
        }

        let (a, b) = (rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9));
        let cmp = |op| eval_cmp(op, ScalarType::F64, Value::F64(a), Value::F64(b));
        assert_ne!(cmp(CmpOp::Lt), cmp(CmpOp::Ge), "case {case}: Lt and Ge partition {a}, {b}");
        assert_eq!(cmp(CmpOp::Eq), a == b, "case {case}: Eq on {a}, {b}");

        let i = rng.int(-1_000_000..=999_999);
        let f = eval_cast(Value::I64(i), ScalarType::I64, ScalarType::F64);
        let back = eval_cast(f, ScalarType::F64, ScalarType::I64);
        assert_eq!(back, Value::I64(i), "case {case}: cast round trip of {i}");
    }
}

/// Quantisation is idempotent, keeps the sign and stays within the
/// requested relative precision; softmath `exp`/`log`/`pow` track libm
/// tightly on the ranges lattice pricing uses; and quantised `pow` is
/// exact on its special cases at any datapath width.
#[test]
fn softmath_and_quantisation_properties() {
    let mut rng = SplitMix64::seed_from_u64(0x50f7);
    for case in 0..256 {
        let x = loop {
            let x = rng.uniform(-1e15, 1e15);
            if x != 0.0 {
                break x;
            }
        };
        let bits = rng.int(4..=51) as u32;
        let q = softmath::quantize(x, bits);
        let what = format!("case {case}: quantize({x:?}, {bits})");
        assert_eq!(softmath::quantize(q, bits), q, "{what} is idempotent");
        let rel = ((q - x) / x).abs();
        assert!(rel <= 2f64.powi(-(bits as i32)), "{what}: relative error {rel}");
        assert_eq!(q.signum(), x.signum(), "{what} keeps the sign");

        let (x, y) = (rng.uniform(0.2, 5.0), rng.uniform(-700.0, 700.0));
        let what = format!("case {case}: x={x:?} y={y:?}");
        let (e, e_ref) = (softmath::exp(y * 0.5), (y * 0.5).exp());
        if e_ref.is_finite() && e_ref > 0.0 {
            assert!(((e - e_ref) / e_ref).abs() < 1e-13, "{what}: exp {e} vs {e_ref}");
        }
        let l = softmath::log(x);
        assert!((l - x.ln()).abs() <= 1e-13 * x.ln().abs().max(1.0), "{what}: log {l}");
        let (p, p_ref) = (softmath::pow(x, y * 0.01, None), x.powf(y * 0.01));
        assert!(((p - p_ref) / p_ref).abs() < 1e-12, "{what}: pow {p} vs {p_ref}");

        let (bits, x) = (rng.int(4..=51) as u32, rng.uniform(0.1, 10.0));
        let what = format!("case {case}: x={x:?} bits={bits}");
        assert_eq!(softmath::pow(x, 0.0, Some(bits)), 1.0, "{what}: x^0");
        assert_eq!(softmath::pow(1.0, x, Some(bits)), 1.0, "{what}: 1^x");
        assert_eq!(softmath::pow(0.0, x, Some(bits)), 0.0, "{what}: 0^x");
    }
}

//! Property tests: the compiler + interpreter pipeline computes what C
//! says it should, and the optimisation passes never change results.
//!
//! Strategy: generate random expression trees, render them to OpenCL C,
//! compile and execute through the full stack, and compare against a
//! direct Rust evaluation of the same tree (differential testing).

use bop_clc::{compile, Options};
use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
use bop_clir::mathlib::ExactMath;
use bop_clir::passes::Pipeline;
use bop_clir::value::Value;
use proptest::prelude::*;

/// A random floating-point expression over two variables.
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

fn fexpr_strategy() -> impl Strategy<Value = FExpr> {
    let leaf = prop_oneof![(-8.0..8.0f64).prop_map(FExpr::Lit), Just(FExpr::X), Just(FExpr::Y),];
    leaf.prop_recursive(5, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Max(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| FExpr::Min(a.into(), b.into())),
            inner.clone().prop_map(|a| FExpr::Abs(a.into())),
            inner.clone().prop_map(|a| FExpr::Neg(a.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| FExpr::Ternary(
                c.into(),
                t.into(),
                e.into()
            )),
        ]
    })
}

/// Compile a one-statement kernel and run a single work-item.
fn run_kernel(body: &str, x: f64, y: f64, no_opt: bool) -> f64 {
    let src =
        format!("__kernel void k(__global double* o, double x, double y) {{ o[0] = {body}; }}");
    let module = compile("prop.cl", &src, &Options::default())
        .unwrap_or_else(|e| panic!("compile failed for `{body}`: {e}"));
    let (module, _) = Pipeline::for_build(no_opt, false).run(module);
    let func = module.kernel("k").expect("kernel");
    let mut mem = VecMemory::new();
    let buf = mem.alloc_global(8);
    let mut run = WorkGroupRun::new(
        func,
        GroupShape::linear(1, 1, 0),
        &[
            KernelArgValue::GlobalBuffer(buf),
            KernelArgValue::Scalar(Value::F64(x)),
            KernelArgValue::Scalar(Value::F64(y)),
        ],
        0,
    )
    .expect("args");
    run.run(&mut mem, &ExactMath).expect("runs");
    mem.read_f64(buf, 0)
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled kernel computes exactly what direct evaluation does
    /// (bit-for-bit — both sides are the same f64 operations).
    #[test]
    fn float_expressions_match_direct_evaluation(
        expr in fexpr_strategy(),
        x in -10.0..10.0f64,
        y in -10.0..10.0f64,
    ) {
        let want = expr.eval(x, y);
        let got = run_kernel(&expr.render(), x, y, true);
        prop_assert!(bits_eq(got, want), "expr `{}`: got {got}, want {want}", expr.render());
    }

    /// Constant folding and DCE never change results.
    #[test]
    fn optimisation_passes_preserve_semantics(
        expr in fexpr_strategy(),
        x in -10.0..10.0f64,
        y in -10.0..10.0f64,
    ) {
        let unopt = run_kernel(&expr.render(), x, y, true);
        let opt = run_kernel(&expr.render(), x, y, false);
        prop_assert!(bits_eq(opt, unopt), "expr `{}`: opt {opt} vs unopt {unopt}", expr.render());
    }

    /// Common-subexpression elimination never changes results either —
    /// random trees are full of genuinely shared subexpressions, which is
    /// exactly what CSE rewrites.
    #[test]
    fn cse_preserves_semantics(
        expr in fexpr_strategy(),
        x in -10.0..10.0f64,
        y in -10.0..10.0f64,
    ) {
        let plain = run_kernel(&expr.render(), x, y, false);
        let src = format!(
            "__kernel void k(__global double* o, double x, double y) {{ o[0] = {}; }}",
            expr.render()
        );
        let module = compile("prop.cl", &src, &Options::default()).expect("compiles");
        let (module, _) = Pipeline::for_build(false, true).run(module);
        let func = module.kernel("k").expect("kernel");
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut run = WorkGroupRun::new(
            func,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(Value::F64(x)),
                KernelArgValue::Scalar(Value::F64(y)),
            ],
            0,
        ).expect("args");
        run.run(&mut mem, &ExactMath).expect("runs");
        let cse = mem.read_f64(buf, 0);
        prop_assert!(bits_eq(cse, plain), "expr `{}`: cse {cse} vs plain {plain}", expr.render());
    }

    /// Integer arithmetic follows two's-complement C semantics.
    #[test]
    fn integer_ops_match_wrapping_semantics(
        a in any::<i32>(),
        b in any::<i32>(),
        shift in 0u32..8,
    ) {
        let body = format!("(double)((x0 + x1) * (x0 - x1) + ((x0 << {shift}) ^ (x1 & x0)) % 97)");
        let src = format!(
            "__kernel void k(__global double* o, int x0, int x1) {{ o[0] = {body}; }}"
        );
        let module = compile("prop.cl", &src, &Options::default()).expect("compiles");
        let func = module.kernel("k").expect("kernel");
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut run = WorkGroupRun::new(
            func,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(Value::I32(a)),
                KernelArgValue::Scalar(Value::I32(b)),
            ],
            0,
        ).expect("args");
        run.run(&mut mem, &ExactMath).expect("runs");
        let got = mem.read_f64(buf, 0);

        // Reference: two's-complement C semantics at int width — every
        // intermediate wraps to i32, exactly as the IR truncates at the
        // `int` type boundary.
        let sum = a.wrapping_add(b);
        let diff = a.wrapping_sub(b);
        let shl = a.wrapping_shl(shift);
        let xor = shl ^ (b & a);
        let rem = xor.wrapping_rem(97);
        let want = sum.wrapping_mul(diff).wrapping_add(rem) as f64;
        prop_assert_eq!(got, want, "a={} b={} shift={}", a, b, shift);
    }

    /// Loop unrolling never changes the result, whatever the trip count
    /// and factor.
    #[test]
    fn unrolling_preserves_loop_semantics(
        trips in 0usize..20,
        factor in 1u32..6,
        start in -5.0..5.0f64,
    ) {
        let src = |pragma: &str| format!(
            "__kernel void k(__global double* o, double s) {{
                double acc = s;
                {pragma}
                for (int i = 0; i < {trips}; i++) {{
                    acc = acc * 1.25 + (double)i;
                    if (acc > 1e6) {{ break; }}
                }}
                o[0] = acc;
            }}"
        );
        let run_src = |src: String| {
            let module = compile("prop.cl", &src, &Options::default()).expect("compiles");
            let func = module.kernel("k").expect("kernel");
            let mut mem = VecMemory::new();
            let buf = mem.alloc_global(8);
            let mut r = WorkGroupRun::new(
                func,
                GroupShape::linear(1, 1, 0),
                &[KernelArgValue::GlobalBuffer(buf), KernelArgValue::Scalar(Value::F64(start))],
                0,
            ).expect("args");
            r.run(&mut mem, &ExactMath).expect("runs");
            mem.read_f64(buf, 0)
        };
        let rolled = run_src(src(""));
        let unrolled = run_src(src(&format!("#pragma unroll {factor}")));
        prop_assert!(bits_eq(rolled, unrolled), "trips={} factor={}: {} vs {}", trips, factor, rolled, unrolled);
    }
}

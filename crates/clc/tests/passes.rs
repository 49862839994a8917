//! Semantics of the block-local optimisation passes (constant folding,
//! DCE, CSE, copy propagation) on OpenCL C sources, pinned through
//! [`bop_clc::compile`] plus the build pipeline
//! [`Pipeline::for_build`], exactly as a program build runs them. The
//! pass implementations live in `bop_clir::passes`.

use bop_clc::{compile, Options};
use bop_clir::ir::{Inst, Module};
use bop_clir::passes::Pipeline;

/// Lower `src` and optimise it with the build pipeline for
/// `no_opt`/`cse`; the result must verify.
fn build(src: &str, no_opt: bool, cse: bool) -> Module {
    let module = compile("t.cl", src, &Options::default()).expect("compiles");
    let (module, _) = Pipeline::for_build(no_opt, cse).run(module);
    bop_clir::verify::verify_module(&module).expect("optimised IR verifies");
    module
}

mod tests {
    use super::*;
    use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
    use bop_clir::mathlib::ExactMath;

    fn compile_opts(src: &str, no_opt: bool) -> bop_clir::ir::Function {
        build(src, no_opt, false).kernel("k").expect("kernel k").clone()
    }

    fn run_one(func: &bop_clir::ir::Function) -> f64 {
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let shape = GroupShape::linear(1, 1, 0);
        let mut wg =
            WorkGroupRun::new(func, shape, &[KernelArgValue::GlobalBuffer(buf)], 0).expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        mem.read_f64(buf, 0)
    }

    #[test]
    fn constant_expressions_fold_to_single_const() {
        let src = "__kernel void k(__global double* o) { o[0] = (1.0 + 2.0) * 4.0 - 2.0; }";
        let opt = compile_opts(src, false);
        let unopt = compile_opts(src, true);
        assert!(opt.inst_count() < unopt.inst_count(), "folding should shrink the kernel");
        assert_eq!(run_one(&opt), 10.0);
        assert_eq!(run_one(&unopt), 10.0);
    }

    #[test]
    fn folding_preserves_integer_semantics() {
        let src = "__kernel void k(__global double* o) { o[0] = (double)(7 / 2 + 7 % 2); }";
        assert_eq!(run_one(&compile_opts(src, false)), 4.0);
    }

    #[test]
    fn division_by_zero_not_folded_into_panic() {
        // The fold must leave the trapping instruction in place, not crash
        // the compiler.
        let src = "__kernel void k(__global double* o) { int z = 0; if (false) { int q = 1 / z; o[0] = (double)q; } o[0] = 1.0; }";
        let f = compile_opts(src, false);
        assert_eq!(run_one(&f), 1.0);
    }

    #[test]
    fn dead_code_removed_but_stores_kept() {
        let src = "__kernel void k(__global double* o) {
            double unused = exp(123.0);   // pure, dead
            o[0] = 5.0;                    // store, live
        }";
        let opt = compile_opts(src, false);
        let unopt = compile_opts(src, true);
        assert!(opt.inst_count() < unopt.inst_count());
        // exp must be gone entirely.
        let has_call =
            opt.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })));
        assert!(!has_call, "dead exp call should be eliminated");
        assert_eq!(run_one(&opt), 5.0);
    }

    #[test]
    fn loads_are_removable_but_live_loads_stay() {
        let src = "__kernel void k(__global double* o) {
            double dead = o[0];
            o[0] = 2.0;
            double live = o[0];
            o[0] = live + 1.0;
        }";
        let f = compile_opts(src, false);
        let loads = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(loads, 1, "dead load removed, live load kept");
        assert_eq!(run_one(&f), 3.0);
    }

    #[test]
    fn cross_block_liveness_respected() {
        // `x` is written in the entry block and read after the branch; DCE
        // must not remove the write.
        let src = "__kernel void k(__global double* o) {
            double x = 4.0;
            if (o[0] == 0.0) { x = x + 1.0; }
            o[0] = x;
        }";
        assert_eq!(run_one(&compile_opts(src, false)), 5.0);
    }
}

mod cse_tests {
    use super::*;
    use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
    use bop_clir::mathlib::ExactMath;
    use bop_clir::value::Value as V;

    fn compile_cse(src: &str, cse: bool) -> bop_clir::ir::Function {
        build(src, false, cse).kernel("k").expect("kernel k").clone()
    }

    fn run_xy(func: &bop_clir::ir::Function, x: f64, y: f64) -> f64 {
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(16);
        let mut wg = WorkGroupRun::new(
            func,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(V::F64(x)),
                KernelArgValue::Scalar(V::F64(y)),
            ],
            0,
        )
        .expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        mem.read_f64(buf, 0)
    }

    const REDUNDANT: &str = "__kernel void k(__global double* o, double x, double y) {
        o[0] = (x * y + 1.0) + (x * y + 1.0) + exp(x) * exp(x);
    }";

    #[test]
    fn cse_removes_duplicate_expressions() {
        let plain = compile_cse(REDUNDANT, false);
        let cse = compile_cse(REDUNDANT, true);
        let count = |f: &bop_clir::ir::Function, pred: &dyn Fn(&Inst) -> bool| {
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| pred(i)).count()
        };
        let muls = |f: &bop_clir::ir::Function| {
            count(
                f,
                &|i| matches!(i, Inst::Bin { op: bop_clir::ir::BinOp::Mul, ty, .. } if ty.is_float()),
            )
        };
        let exps = |f: &bop_clir::ir::Function| count(f, &|i| matches!(i, Inst::Call { .. }));
        assert_eq!(muls(&plain), 3, "x*y twice + exp*exp");
        assert_eq!(muls(&cse), 2, "one x*y eliminated");
        assert_eq!(exps(&plain), 2);
        assert_eq!(exps(&cse), 1, "pure exp() deduplicated");
        // Semantics unchanged.
        for (x, y) in [(0.5, 2.0), (-1.5, 3.0), (0.0, 0.0)] {
            assert_eq!(run_xy(&plain, x, y).to_bits(), run_xy(&cse, x, y).to_bits());
        }
    }

    #[test]
    fn cse_respects_mutation_between_uses() {
        // `a` changes between the two uses of `a * 2.0`: must NOT merge.
        let src = "__kernel void k(__global double* o, double x, double y) {
            double a = x;
            double first = a * 2.0;
            a = a + y;
            double second = a * 2.0;
            o[0] = first + second;
        }";
        let plain = compile_cse(src, false);
        let cse = compile_cse(src, true);
        for (x, y) in [(1.0, 2.0), (3.0, -1.0)] {
            let want = x * 2.0 + (x + y) * 2.0;
            assert_eq!(run_xy(&plain, x, y), want);
            assert_eq!(run_xy(&cse, x, y), want, "CSE must respect redefinition");
        }
    }

    #[test]
    fn cse_does_not_merge_loads_across_stores() {
        let src = "__kernel void k(__global double* o, double x, double y) {
            double a = o[1];
            o[1] = a + x;
            double b = o[1];
            o[0] = a + b;
        }";
        let cse = compile_cse(src, true);
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(16);
        mem.write_f64(buf, 1, 10.0);
        let mut wg = WorkGroupRun::new(
            &cse,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(V::F64(5.0)),
                KernelArgValue::Scalar(V::F64(0.0)),
            ],
            0,
        )
        .expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        assert_eq!(mem.read_f64(buf, 0), 10.0 + 15.0, "second load must see the store");
    }

    #[test]
    fn cse_shrinks_the_straightforward_kernel() {
        // The paper kernel recomputes `t * 5` for each parameter load; CSE
        // should shrink it measurably (the ablation benches quantify the
        // resource effect).
        let src = include_str!("../../core/kernels/straightforward.cl").replace("REAL", "double");
        let m_plain = build(&src, false, false);
        let m_cse = build(&src, false, true);
        let plain = m_plain.kernel("binomial_node").expect("k").inst_count();
        let cse = m_cse.kernel("binomial_node").expect("k").inst_count();
        assert!(cse < plain, "CSE should shrink the kernel: {cse} vs {plain}");
    }
}

mod copy_prop_tests {
    use super::*;
    use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
    use bop_clir::mathlib::ExactMath;
    use bop_clir::value::Value as V;

    const REDUNDANT: &str = "__kernel void k(__global double* o, double x, double y) {
        o[0] = (x * y) + (x * y) * (x * y);
    }";

    fn movs(f: &bop_clir::ir::Function) -> usize {
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Mov { .. })).count()
    }

    #[test]
    fn copy_propagation_lets_dce_remove_cse_movs() {
        let m = build(REDUNDANT, false, true);
        let f = m.kernel("k").expect("k");
        // With CSE + copy propagation + DCE, the duplicated x*y collapses
        // to one Mul and no surviving copies of it.
        let muls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: bop_clir::ir::BinOp::Mul, ty, .. } if ty.is_float()))
            .count();
        assert_eq!(muls, 2, "x*y shared; one product multiply remains");
        assert!(movs(f) <= 1, "copies should be propagated away: {}", movs(f));
        // Semantics check.
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut wg = WorkGroupRun::new(
            f,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(V::F64(3.0)),
                KernelArgValue::Scalar(V::F64(2.0)),
            ],
            0,
        )
        .expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        assert_eq!(mem.read_f64(buf, 0), 6.0 + 36.0);
    }

    #[test]
    fn copies_invalidated_by_redefinition() {
        // `b = a; a = a + 1; o[0] = b;` — b must read the OLD a.
        let src = "__kernel void k(__global double* o, double x, double y) {
            double a = x;
            double b = a;
            a = a + 1.0;
            o[0] = b + a;
        }";
        let m = build(src, false, true);
        let f = m.kernel("k").expect("k");
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut wg = WorkGroupRun::new(
            f,
            GroupShape::linear(1, 1, 0),
            &[
                KernelArgValue::GlobalBuffer(buf),
                KernelArgValue::Scalar(V::F64(5.0)),
                KernelArgValue::Scalar(V::F64(0.0)),
            ],
            0,
        )
        .expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        assert_eq!(mem.read_f64(buf, 0), 5.0 + 6.0);
    }
}

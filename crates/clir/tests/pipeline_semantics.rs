//! Randomized check: the build pipeline preserves semantics.
//!
//! Generates straight-line CLIR kernels (no control flow, no trapping
//! integer ops) from a seeded SplitMix64 stream, runs each through
//! `Pipeline::for_build` with and without CSE, and checks that the
//! optimised module verifies, that the kernel does not grow, and that
//! the tree-walking interpreter on the original, the tree-walker on the
//! optimised IR and the bytecode engine on the optimised IR produce
//! byte-identical output buffers.

use bop_clir::builder::FunctionBuilder;
use bop_clir::bytecode::{BytecodeRun, CompiledKernel};
use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
use bop_clir::ir::{BinOp, Builtin, Function, Module, RegId};
use bop_clir::mathlib::ExactMath;
use bop_clir::passes::Pipeline;
use bop_clir::types::{AddressSpace, ScalarType, Type};

/// Generated kernels per pipeline.
const CASES: usize = 64;

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny seeded stream,
/// so every run checks the same cases.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniform pick into a register pool of any length.
    fn pick(&mut self, pool: &[RegId]) -> RegId {
        pool[self.below(pool.len())]
    }
}

const FOPS: [BinOp; 6] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Min, BinOp::Max];
// Integer Div/Rem trap on zero divisors and are deliberately absent.
const IOPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Min, BinOp::Max];
const CALLS: [Builtin; 2] = [Builtin::Exp, Builtin::Sqrt];

/// A single-block kernel of up to 23 random instructions that stores a
/// reduction of every float register to `out[gid]` (so dead-code
/// elimination cannot trivialise the test).
fn random_kernel(rng: &mut SplitMix64) -> Function {
    let mut b = FunctionBuilder::new("randk", true);
    let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let gid_f = b.cast(gid, ScalarType::I64, ScalarType::F64);
    let seed = b.const_f64(1.5);
    let mut fregs = vec![gid_f, seed];
    let mut iregs = vec![gid, lid];
    for _ in 0..rng.below(24) {
        match rng.below(7) {
            0 => {
                let x = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                fregs.push(b.const_f64(2e9 * x - 1e9));
            }
            1 => iregs.push(b.const_i64(rng.next() as i64)),
            2 => {
                let op = FOPS[rng.below(FOPS.len())];
                let (x, y) = (rng.pick(&fregs), rng.pick(&fregs));
                fregs.push(b.bin(op, ScalarType::F64, x, y));
            }
            3 => {
                let op = IOPS[rng.below(IOPS.len())];
                let (x, y) = (rng.pick(&iregs), rng.pick(&iregs));
                iregs.push(b.bin(op, ScalarType::I64, x, y));
            }
            4 => {
                let x = rng.pick(&iregs);
                fregs.push(b.cast(x, ScalarType::I64, ScalarType::F64));
            }
            5 => {
                let x = rng.pick(&fregs);
                iregs.push(b.cast(x, ScalarType::F64, ScalarType::I64));
            }
            _ => {
                let f = CALLS[rng.below(CALLS.len())];
                let x = rng.pick(&fregs);
                fregs.push(b.call(f, ScalarType::F64, &[x]));
            }
        }
    }
    let mut acc = fregs[0];
    for &r in &fregs[1..] {
        acc = b.fadd(acc, r, ScalarType::F64);
    }
    let tail = b.cast(*iregs.last().expect("seeded"), ScalarType::I64, ScalarType::F64);
    acc = b.fadd(acc, tail, ScalarType::F64);
    let slot = b.gep(out, gid, ScalarType::F64);
    b.store(slot, acc, ScalarType::F64);
    b.ret();
    b.finish().expect("generated straight-line IR is valid")
}

const GLOBAL: usize = 8;
const LOCAL: usize = 4;

/// Run `func` over the full NDRange on the tree-walker (`bytecode:
/// false`) or the bytecode engine; return the output buffer bytes.
fn run(func: &Function, bytecode: bool) -> Vec<u8> {
    let compiled = CompiledKernel::compile(func);
    let mut mem = VecMemory::new();
    let buf = mem.alloc_global(GLOBAL * 8);
    let args = vec![KernelArgValue::GlobalBuffer(buf)];
    for group in 0..GLOBAL / LOCAL {
        let shape = GroupShape::linear(GLOBAL, LOCAL, group);
        let ran = if bytecode {
            BytecodeRun::new(&compiled, shape, &args, 0)
                .expect("args bind")
                .run(&mut mem, &ExactMath)
        } else {
            WorkGroupRun::new(func, shape, &args, 0).expect("args bind").run(&mut mem, &ExactMath)
        };
        ran.expect("straight-line kernels cannot trap");
    }
    mem.global_bytes(buf).to_vec()
}

#[test]
fn build_pipelines_preserve_straight_line_semantics() {
    let mut rng = SplitMix64(0x5eed);
    for case in 0..CASES {
        let func = random_kernel(&mut rng);
        let reference = run(&func, false);
        for cse in [false, true] {
            let pipeline = Pipeline::for_build(false, cse);
            let what = format!("case {case}, pipeline `{}`", pipeline.name());
            let module = Module::from_functions("randk.cl", vec![func.clone()]);
            let (optimized, report) = pipeline.run(module);
            bop_clir::verify::verify_module(&optimized)
                .unwrap_or_else(|e| panic!("{what} broke the IR: {e}"));
            let opt = optimized.kernel("randk").expect("kernel survives");
            assert!(opt.inst_count() <= func.inst_count(), "{what} grew the function");
            assert!(!report.passes.is_empty(), "{what} reports its passes");
            assert_eq!(run(opt, false), reference, "walker on optimised IR diverges: {what}");
            assert_eq!(run(opt, true), reference, "bytecode on optimised IR diverges: {what}");
        }
    }
}

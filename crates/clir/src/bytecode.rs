//! Register bytecode: a compiled execution engine for kernels.
//!
//! The tree-walking interpreter in [`crate::interp`] re-fetches every
//! instruction through two levels of `Vec` indexing and re-resolves block
//! targets on every loop iteration — per-node overhead the real `aoc`
//! offline compiler would have compiled away. This module flattens a
//! verified [`Function`] once into a [`CompiledKernel`]: a linear stream
//! of register-machine ops with pre-resolved jump offsets, an interned
//! constant pool and specialized opcodes for the hot double-precision
//! arithmetic of the pricing kernels. [`BytecodeRun`] then executes it
//! with a compact dispatch loop.
//!
//! The engine is observationally identical to the tree-walker by
//! construction: same argument-binding errors, same [`ExecStats`]
//! counting (down to the order of count-vs-trap), same step-budget
//! accounting (one step per fetched position, terminators included), and
//! the same barrier-suspension protocol — divergence errors report
//! original `(block, instruction)` positions via a side table. The
//! differential suites in `tests/compile_pipeline.rs` (host programs and
//! seeded random branchy kernels) and `tests/pipes.rs` pin this contract
//! down.

use crate::eval::{eval_bin, eval_cast, eval_cmp, eval_un};
use crate::interp::{
    check_pipe_shape, pipe_deadlock_trap, private_oob, ExecError, GroupShape, KernelArgValue,
    Memory, RunOutcome, DEFAULT_STEP_LIMIT,
};
use crate::ir::{BinOp, Builtin, CmpOp, Function, Inst, Param, Terminator, UnOp, WiQuery};
use crate::mathlib::MathLib;
use crate::pipes::PipeHub;
use crate::stats::ExecStats;
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{PtrValue, Value};
use std::collections::HashMap;
use std::fmt;

/// One flattened instruction. Register and constant-pool indices are
/// pre-resolved `u32`s; jump targets are program counters.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// `r[dst] = consts[idx]`.
    Const {
        dst: u32,
        idx: u32,
    },
    /// `r[dst] = r[src]`.
    Mov {
        dst: u32,
        src: u32,
    },
    /// Specialized `f64` arithmetic (the hot path of both paper kernels).
    AddF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    DivF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MinF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MaxF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `i64` addition (loop counters, index arithmetic).
    AddI64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Generic two-operand op, evaluated through [`eval_bin`] so trap
    /// messages match the tree-walker exactly.
    Bin {
        op: BinOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
    },
    Cmp {
        op: CmpOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        ty: ScalarType,
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    Cast {
        dst: u32,
        a: u32,
        from: ScalarType,
        to: ScalarType,
    },
    /// One-argument math builtin (`exp`, `log`, `sqrt`).
    Call1 {
        func: Builtin,
        ty: ScalarType,
        dst: u32,
        a: u32,
    },
    /// `pow(a, b)`.
    Pow {
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    WorkItem {
        query: WiQuery,
        dim: u8,
        dst: u32,
    },
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        elem: ScalarType,
    },
    Load {
        dst: u32,
        ptr: u32,
        ty: ScalarType,
    },
    Store {
        ptr: u32,
        val: u32,
        ty: ScalarType,
    },
    /// Peephole-fused `dst = a*b + c` (or `c + a*b` when `c_first`).
    /// Both roundings of the unfused pair are kept — this is a dispatch
    /// fusion, not a mathematical FMA — and it charges *two* steps plus
    /// one `mul64` and one `add64`, exactly what the tree-walker pays
    /// for the two source instructions.
    MulAddF64 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        /// Operand order of the original add (`c + prod` vs `prod + c`);
        /// preserved so NaN-payload propagation stays bit-identical.
        c_first: bool,
    },
    /// A self-move elided by the peephole: charges the step and the
    /// `mov` count the tree-walker pays, moves no data.
    ChargeMov,
    /// Peephole-threaded jump through a jump-only block: lands directly
    /// on `block` (pc `target`) but charges the skipped block's
    /// execution and step, so dynamic counts match the tree-walker
    /// hopping through `mid_block`.
    JumpThread {
        target: u32,
        mid_block: u32,
        block: u32,
    },
    Barrier,
    /// Blocking pipe read; suspends the item when the FIFO is empty.
    PipeRead {
        dst: u32,
        pipe: u32,
        ty: ScalarType,
    },
    /// Blocking pipe write; suspends the item when the FIFO is full.
    PipeWrite {
        pipe: u32,
        val: u32,
        ty: ScalarType,
    },
    /// Unconditional jump to `target` (pc); `block` is the destination
    /// block id, charged to `block_execs`.
    Jump {
        target: u32,
        block: u32,
    },
    /// Conditional branch; targets are pcs, blocks are the destination
    /// block ids.
    Branch {
        cond: u32,
        then_target: u32,
        then_block: u32,
        else_target: u32,
        else_block: u32,
    },
    Return,
}

/// Interning key for the constant pool. [`Value`] itself is not `Eq`
/// (floats), so constants are keyed on their bit patterns: `2.0` and
/// `2.0` share a slot, `0.0` and `-0.0` do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Bool(bool),
    I32(i32),
    I64(i64),
    F32(u32),
    F64(u64),
    Ptr(AddressSpace, u32, i64),
}

impl ConstKey {
    fn of(v: Value) -> ConstKey {
        match v {
            Value::Bool(b) => ConstKey::Bool(b),
            Value::I32(x) => ConstKey::I32(x),
            Value::I64(x) => ConstKey::I64(x),
            Value::F32(x) => ConstKey::F32(x.to_bits()),
            Value::F64(x) => ConstKey::F64(x.to_bits()),
            Value::Ptr(p) => ConstKey::Ptr(p.space, p.buffer, p.offset),
        }
    }
}

/// A kernel flattened to linear bytecode, ready for repeated dispatch.
///
/// Compilation is infallible on verified IR; build it once per kernel
/// (the OpenCL-style runtime caches it in the program object) and run it
/// many times via [`BytecodeRun`]. The `Display` impl renders a
/// disassembly listing (the `aoc` bench bin's `--dump-bytecode`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    name: String,
    params: Vec<Param>,
    reg_types: Vec<Type>,
    code: Vec<Op>,
    consts: Vec<Value>,
    block_starts: Vec<u32>,
    /// `(block, instruction)` source position of every pc, for error
    /// reports that must match the tree-walker.
    pos_of_pc: Vec<(u32, u32)>,
    private_bytes: usize,
    /// Row of each register in the lanes engine's pointer plane
    /// ([`NO_PTR_ROW`] for scalar registers): only pointer-typed
    /// registers get a row of [`PtrValue`]s.
    ptr_rows: Vec<u32>,
}

/// [`CompiledKernel::ptr_rows`] entry of a scalar register.
const NO_PTR_ROW: u32 = u32::MAX;

impl CompiledKernel {
    /// Flatten `func` into bytecode. The function must be verified
    /// (see [`crate::verify::verify_function`]); compilation itself
    /// cannot fail.
    pub fn compile(func: &Function) -> CompiledKernel {
        let mut code: Vec<Op> = Vec::with_capacity(func.inst_count() + func.blocks.len());
        let mut pos_of_pc: Vec<(u32, u32)> = Vec::with_capacity(code.capacity());
        let mut consts: Vec<Value> = Vec::new();
        let mut intern: HashMap<ConstKey, u32> = HashMap::new();
        let mut block_starts: Vec<u32> = Vec::with_capacity(func.blocks.len());

        let mut intern_const = |val: Value| -> u32 {
            *intern.entry(ConstKey::of(val)).or_insert_with(|| {
                consts.push(val);
                consts.len() as u32 - 1
            })
        };

        for (bi, block) in func.blocks.iter().enumerate() {
            block_starts.push(code.len() as u32);
            for (ii, inst) in block.insts.iter().enumerate() {
                pos_of_pc.push((bi as u32, ii as u32));
                let r = |r: crate::ir::RegId| r.0;
                code.push(match inst {
                    Inst::Const { dst, val } => Op::Const { dst: r(*dst), idx: intern_const(*val) },
                    Inst::Mov { dst, src } => Op::Mov { dst: r(*dst), src: r(*src) },
                    Inst::Bin { op, ty, dst, a, b } => {
                        let (dst, a, b) = (r(*dst), r(*a), r(*b));
                        match (op, ty) {
                            (BinOp::Add, ScalarType::F64) => Op::AddF64 { dst, a, b },
                            (BinOp::Sub, ScalarType::F64) => Op::SubF64 { dst, a, b },
                            (BinOp::Mul, ScalarType::F64) => Op::MulF64 { dst, a, b },
                            (BinOp::Div, ScalarType::F64) => Op::DivF64 { dst, a, b },
                            (BinOp::Min, ScalarType::F64) => Op::MinF64 { dst, a, b },
                            (BinOp::Max, ScalarType::F64) => Op::MaxF64 { dst, a, b },
                            (BinOp::Add, ScalarType::I64) => Op::AddI64 { dst, a, b },
                            _ => Op::Bin { op: *op, ty: *ty, dst, a, b },
                        }
                    }
                    Inst::Un { op, ty, dst, a } => {
                        Op::Un { op: *op, ty: *ty, dst: r(*dst), a: r(*a) }
                    }
                    Inst::Cmp { op, ty, dst, a, b } => {
                        Op::Cmp { op: *op, ty: *ty, dst: r(*dst), a: r(*a), b: r(*b) }
                    }
                    Inst::Select { ty, dst, cond, a, b } => {
                        Op::Select { ty: *ty, dst: r(*dst), cond: r(*cond), a: r(*a), b: r(*b) }
                    }
                    Inst::Cast { dst, a, from, to } => {
                        Op::Cast { dst: r(*dst), a: r(*a), from: *from, to: *to }
                    }
                    Inst::Call { func: f, ty, dst, args } => match f {
                        Builtin::Pow => {
                            Op::Pow { ty: *ty, dst: r(*dst), a: r(args[0]), b: r(args[1]) }
                        }
                        _ => Op::Call1 { func: *f, ty: *ty, dst: r(*dst), a: r(args[0]) },
                    },
                    Inst::WorkItem { query, dim, dst } => {
                        Op::WorkItem { query: *query, dim: *dim, dst: r(*dst) }
                    }
                    Inst::Gep { dst, base, index, elem } => {
                        Op::Gep { dst: r(*dst), base: r(*base), index: r(*index), elem: *elem }
                    }
                    Inst::Load { dst, ptr, ty } => Op::Load { dst: r(*dst), ptr: r(*ptr), ty: *ty },
                    Inst::Store { ptr, val, ty } => {
                        Op::Store { ptr: r(*ptr), val: r(*val), ty: *ty }
                    }
                    Inst::Barrier => Op::Barrier,
                    Inst::PipeRead { dst, pipe, ty } => {
                        Op::PipeRead { dst: r(*dst), pipe: r(*pipe), ty: *ty }
                    }
                    Inst::PipeWrite { pipe, val, ty } => {
                        Op::PipeWrite { pipe: r(*pipe), val: r(*val), ty: *ty }
                    }
                    Inst::Phi { .. } => {
                        unreachable!("phis are eliminated before bytecode emission")
                    }
                });
            }
            pos_of_pc.push((bi as u32, block.insts.len() as u32));
            code.push(match &block.term {
                Terminator::Jump(t) => Op::Jump { target: 0, block: t.0 },
                Terminator::Branch { cond, then_bb, else_bb } => Op::Branch {
                    cond: cond.0,
                    then_target: 0,
                    then_block: then_bb.0,
                    else_target: 0,
                    else_block: else_bb.0,
                },
                Terminator::Return => Op::Return,
            });
        }

        // Peephole over the flattened stream while jump targets are
        // still block ids, then resolve block ids to program counters.
        peephole(&mut code, &mut pos_of_pc, &mut block_starts);
        for op in &mut code {
            match op {
                Op::Jump { target, block } => *target = block_starts[*block as usize],
                Op::JumpThread { target, block, .. } => *target = block_starts[*block as usize],
                Op::Branch { then_target, then_block, else_target, else_block, .. } => {
                    *then_target = block_starts[*then_block as usize];
                    *else_target = block_starts[*else_block as usize];
                }
                _ => {}
            }
        }

        let mut next_row = 0;
        let ptr_rows = func
            .reg_types
            .iter()
            .map(|ty| match ty {
                Type::Ptr(..) => {
                    next_row += 1;
                    next_row - 1
                }
                Type::Scalar(_) => NO_PTR_ROW,
            })
            .collect();

        CompiledKernel {
            name: func.name.clone(),
            params: func.params.clone(),
            reg_types: func.reg_types.clone(),
            code,
            consts,
            block_starts,
            pos_of_pc,
            private_bytes: func.private_bytes,
            ptr_rows,
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of flattened ops (instructions plus terminators).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Number of interned constants in the pool.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Number of basic blocks in the source function.
    pub fn num_blocks(&self) -> usize {
        self.block_starts.len()
    }

    fn pos(&self, pc: usize) -> (usize, usize) {
        let (b, i) = self.pos_of_pc[pc];
        (b as usize, i as usize)
    }

    /// Pointer-plane row of pointer-typed register `r`.
    #[inline]
    fn ptr_row(&self, r: u32) -> usize {
        let row = self.ptr_rows[r as usize];
        debug_assert_ne!(row, NO_PTR_ROW, "r{r} is not a pointer register");
        row as usize
    }
}

/// Visit every register an op reads.
fn op_sources(op: &Op, mut f: impl FnMut(u32)) {
    match op {
        Op::Const { .. }
        | Op::ChargeMov
        | Op::WorkItem { .. }
        | Op::Barrier
        | Op::Jump { .. }
        | Op::JumpThread { .. }
        | Op::Return => {}
        Op::Mov { src, .. } => f(*src),
        Op::Un { a, .. } | Op::Cast { a, .. } | Op::Call1 { a, .. } => f(*a),
        Op::AddF64 { a, b, .. }
        | Op::SubF64 { a, b, .. }
        | Op::MulF64 { a, b, .. }
        | Op::DivF64 { a, b, .. }
        | Op::MinF64 { a, b, .. }
        | Op::MaxF64 { a, b, .. }
        | Op::AddI64 { a, b, .. }
        | Op::Bin { a, b, .. }
        | Op::Cmp { a, b, .. }
        | Op::Pow { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Op::MulAddF64 { a, b, c, .. } => {
            f(*a);
            f(*b);
            f(*c);
        }
        Op::Select { cond, a, b, .. } => {
            f(*cond);
            f(*a);
            f(*b);
        }
        Op::Gep { base, index, .. } => {
            f(*base);
            f(*index);
        }
        Op::Load { ptr, .. } => f(*ptr),
        Op::Store { ptr, val, .. } => {
            f(*ptr);
            f(*val);
        }
        Op::PipeRead { pipe, .. } => f(*pipe),
        Op::PipeWrite { pipe, val, .. } => {
            f(*pipe);
            f(*val);
        }
        Op::Branch { cond, .. } => f(*cond),
    }
}

/// Peephole optimisation over the flattened op stream, run before jump
/// targets are resolved (jump operands are still block ids).
///
/// Three rewrites, each *exactly* compensated so dynamic step counts,
/// [`ExecStats`] and trap behaviour stay bit-identical to the
/// tree-walker executing the unoptimised IR:
///
/// 1. **Fused multiply-add**: `t = a*b; d = t + c` (with `t` read
///    nowhere else) becomes [`Op::MulAddF64`] — one dispatch, both
///    roundings, two steps charged.
/// 2. **Redundant-move elimination**: a self-move `r = r` becomes
///    [`Op::ChargeMov`], which touches no registers.
/// 3. **Jump threading**: a jump whose destination block consists of a
///    single unconditional jump becomes [`Op::JumpThread`] straight to
///    the final block, charging the skipped hop.
fn peephole(code: &mut Vec<Op>, pos_of_pc: &mut Vec<(u32, u32)>, block_starts: &mut Vec<u32>) {
    // Whole-stream source-use counts gate the multiply-add fusion: the
    // mul's destination must die at the add.
    let mut uses: HashMap<u32, u32> = HashMap::new();
    for op in code.iter() {
        op_sources(op, |r| *uses.entry(r).or_insert(0) += 1);
    }

    let nblocks = block_starts.len();
    let mut new_code: Vec<Op> = Vec::with_capacity(code.len());
    let mut new_pos: Vec<(u32, u32)> = Vec::with_capacity(pos_of_pc.len());
    let mut new_starts: Vec<u32> = Vec::with_capacity(nblocks);
    for bi in 0..nblocks {
        let start = block_starts[bi] as usize;
        let end = if bi + 1 < nblocks { block_starts[bi + 1] as usize } else { code.len() };
        new_starts.push(new_code.len() as u32);
        let mut i = start;
        while i < end {
            let fused = if i + 1 < end {
                match (&code[i], &code[i + 1]) {
                    (&Op::MulF64 { dst: t, a, b }, &Op::AddF64 { dst, a: x, b: y })
                        if (x == t) != (y == t) && uses.get(&t) == Some(&1) =>
                    {
                        let (c, c_first) = if x == t { (y, false) } else { (x, true) };
                        Some(Op::MulAddF64 { dst, a, b, c, c_first })
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some(op) = fused {
                new_code.push(op);
                new_pos.push(pos_of_pc[i]);
                i += 2;
                continue;
            }
            let op = match &code[i] {
                Op::Mov { dst, src } if dst == src => Op::ChargeMov,
                other => other.clone(),
            };
            new_code.push(op);
            new_pos.push(pos_of_pc[i]);
            i += 1;
        }
    }

    // Jump threading on the rebuilt stream: a block is "jump-only" when
    // it holds nothing but its unconditional terminator.
    let lone_jump: Vec<Option<u32>> = (0..nblocks)
        .map(|bi| {
            let start = new_starts[bi] as usize;
            let end = if bi + 1 < nblocks { new_starts[bi + 1] as usize } else { new_code.len() };
            match (end - start == 1).then(|| &new_code[start]) {
                Some(&Op::Jump { block, .. }) if block as usize != bi => Some(block),
                _ => None,
            }
        })
        .collect();
    for op in &mut new_code {
        if let Op::Jump { block, .. } = *op {
            if let Some(dest) = lone_jump[block as usize] {
                *op = Op::JumpThread { target: 0, mid_block: block, block: dest };
            }
        }
    }

    *code = new_code;
    *pos_of_pc = new_pos;
    *block_starts = new_starts;
}

fn reg_list(f: &mut fmt::Formatter<'_>, regs: &[u32]) -> fmt::Result {
    for (i, r) in regs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "r{r}")?;
    }
    Ok(())
}

impl fmt::Display for CompiledKernel {
    /// Disassembly listing: constant pool, then the op stream with pc
    /// labels and block markers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::display::{bin_name, cmp_name, un_name};
        write!(f, "bytecode @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} %{}", p.ty, p.name)?;
        }
        writeln!(
            f,
            ") [ops={}, regs={}, consts={}, private={}B]",
            self.code.len(),
            self.reg_types.len(),
            self.consts.len(),
            self.private_bytes
        )?;
        for (i, c) in self.consts.iter().enumerate() {
            writeln!(f, "  c{i} = {c}")?;
        }
        for (pc, op) in self.code.iter().enumerate() {
            if let Some(bi) = self.block_starts.iter().position(|&s| s as usize == pc) {
                writeln!(f, "b{bi}:")?;
            }
            write!(f, "  {pc:04}  ")?;
            match op {
                Op::Const { dst, idx } => {
                    write!(f, "r{dst} = const c{idx} ; {}", self.consts[*idx as usize])?
                }
                Op::Mov { dst, src } => write!(f, "r{dst} = r{src}")?,
                Op::AddF64 { dst, a, b } => write!(f, "r{dst} = add.double r{a}, r{b}")?,
                Op::SubF64 { dst, a, b } => write!(f, "r{dst} = sub.double r{a}, r{b}")?,
                Op::MulF64 { dst, a, b } => write!(f, "r{dst} = mul.double r{a}, r{b}")?,
                Op::DivF64 { dst, a, b } => write!(f, "r{dst} = div.double r{a}, r{b}")?,
                Op::MinF64 { dst, a, b } => write!(f, "r{dst} = min.double r{a}, r{b}")?,
                Op::MaxF64 { dst, a, b } => write!(f, "r{dst} = max.double r{a}, r{b}")?,
                Op::AddI64 { dst, a, b } => write!(f, "r{dst} = add.long r{a}, r{b}")?,
                Op::Bin { op, ty, dst, a, b } => {
                    write!(f, "r{dst} = {}.{ty} r{a}, r{b}", bin_name(*op))?
                }
                Op::Un { op, ty, dst, a } => write!(f, "r{dst} = {}.{ty} r{a}", un_name(*op))?,
                Op::Cmp { op, ty, dst, a, b } => {
                    write!(f, "r{dst} = cmp.{}.{ty} r{a}, r{b}", cmp_name(*op))?
                }
                Op::Select { ty, dst, cond, a, b } => {
                    write!(f, "r{dst} = select.{ty} r{cond}, r{a}, r{b}")?
                }
                Op::Cast { dst, a, from, to } => {
                    write!(f, "r{dst} = cast r{a} : {from} -> {to}")?
                }
                Op::Call1 { func, ty, dst, a } => {
                    write!(f, "r{dst} = {}.{ty}(", func.name())?;
                    reg_list(f, &[*a])?;
                    write!(f, ")")?
                }
                Op::Pow { ty, dst, a, b } => {
                    write!(f, "r{dst} = pow.{ty}(")?;
                    reg_list(f, &[*a, *b])?;
                    write!(f, ")")?
                }
                Op::WorkItem { query, dim, dst } => {
                    write!(f, "r{dst} = {}({dim})", query.name())?
                }
                Op::Gep { dst, base, index, elem } => {
                    write!(f, "r{dst} = gep.{elem} r{base}, r{index}")?
                }
                Op::Load { dst, ptr, ty } => write!(f, "r{dst} = load.{ty} r{ptr}")?,
                Op::Store { ptr, val, ty } => write!(f, "store.{ty} r{ptr}, r{val}")?,
                Op::MulAddF64 { dst, a, b, c, c_first } => {
                    if *c_first {
                        write!(f, "r{dst} = muladd.double r{c} + r{a}*r{b}")?
                    } else {
                        write!(f, "r{dst} = muladd.double r{a}*r{b} + r{c}")?
                    }
                }
                Op::ChargeMov => write!(f, "mov (self, elided)")?,
                Op::JumpThread { target, mid_block, block } => {
                    write!(f, "jump @{target:04} (b{mid_block} -> b{block})")?
                }
                Op::Barrier => write!(f, "barrier")?,
                Op::PipeRead { dst, pipe, ty } => {
                    write!(f, "r{dst} = pipe_read.{ty} r{pipe}")?
                }
                Op::PipeWrite { pipe, val, ty } => {
                    write!(f, "pipe_write.{ty} r{pipe}, r{val}")?
                }
                Op::Jump { target, block } => write!(f, "jump @{target:04} (b{block})")?,
                Op::Branch { cond, then_target, then_block, else_target, else_block } => write!(
                    f,
                    "br r{cond}, @{then_target:04} (b{then_block}), @{else_target:04} (b{else_block})"
                )?,
                Op::Return => write!(f, "ret")?,
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BcStatus {
    Running,
    AtBarrier,
    AtPipe,
    Done,
}

struct BcItem {
    pc: usize,
    regs: Vec<Value>,
    private: Vec<u8>,
    status: BcStatus,
    /// Precomputed 3-D local id (saves two divisions per geometry query).
    lid: [usize; 3],
}

/// Executes the work-items of one work-group over a [`CompiledKernel`].
///
/// Drop-in replacement for [`crate::interp::WorkGroupRun`]: same
/// constructor contract, same `run`/`stats`/`into_stats` API, and
/// bit-identical observable behaviour.
pub struct BytecodeRun<'k> {
    kernel: &'k CompiledKernel,
    shape: GroupShape,
    items: Vec<BcItem>,
    stats: ExecStats,
    steps: u64,
    step_limit: u64,
}

impl<'k> BytecodeRun<'k> {
    /// Prepare a run of `kernel` for the group described by `shape`, with
    /// kernel arguments `args`. `step_limit` of 0 selects
    /// [`DEFAULT_STEP_LIMIT`].
    ///
    /// # Errors
    /// Returns [`ExecError::BadArgs`] if `args` does not match the kernel
    /// signature (same messages as the tree-walker).
    pub fn new(
        kernel: &'k CompiledKernel,
        shape: GroupShape,
        args: &[KernelArgValue],
        step_limit: u64,
    ) -> Result<BytecodeRun<'k>, ExecError> {
        check_pipe_shape(&kernel.name, &kernel.params, &shape)?;
        let bound = bind_args(kernel, args)?;
        let n = shape.items_per_group();
        let mut items = Vec::with_capacity(n);
        for item in 0..n {
            let mut regs: Vec<Value> = kernel
                .reg_types
                .iter()
                .map(|ty| match ty {
                    Type::Scalar(ScalarType::Bool) => Value::Bool(false),
                    Type::Scalar(ScalarType::I32) => Value::I32(0),
                    Type::Scalar(ScalarType::I64) => Value::I64(0),
                    Type::Scalar(ScalarType::F32) => Value::F32(0.0),
                    Type::Scalar(ScalarType::F64) => Value::F64(0.0),
                    Type::Ptr(space, _) => Value::Ptr(PtrValue::new(*space, u32::MAX)),
                })
                .collect();
            regs[..bound.len()].copy_from_slice(&bound);
            items.push(BcItem {
                pc: 0,
                regs,
                private: vec![0; kernel.private_bytes],
                status: BcStatus::Running,
                lid: shape.local_id(item),
            });
        }
        let mut stats = ExecStats::with_blocks(kernel.block_starts.len());
        // Every live item enters block 0.
        stats.block_execs[0] += n as u64;
        Ok(BytecodeRun {
            kernel,
            shape,
            items,
            stats,
            steps: 0,
            step_limit: if step_limit == 0 { DEFAULT_STEP_LIMIT } else { step_limit },
        })
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Consume the run and return its statistics.
    pub fn into_stats(self) -> ExecStats {
        self.stats
    }

    /// Run the whole group to completion with no pipes attached; a pipe
    /// stall is reported as the deterministic deadlock trap (same
    /// contract as [`crate::interp::WorkGroupRun::run`]).
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and step-limit
    /// exhaustion, with the same payloads as the tree-walker.
    pub fn run(&mut self, mem: &mut dyn Memory, math: &dyn MathLib) -> Result<(), ExecError> {
        let mut pipes = PipeHub::default();
        match self.run_resumable(mem, math, &mut pipes)? {
            RunOutcome::Complete => Ok(()),
            RunOutcome::Stalled => Err(pipe_deadlock_trap()),
        }
    }

    /// Run until every work-item retires or a pipe op stalls; same
    /// resume/accounting contract as
    /// [`crate::interp::WorkGroupRun::run_resumable`].
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and step-limit
    /// exhaustion, with the same payloads as the tree-walker.
    pub fn run_resumable(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        loop {
            let mut any_running = false;
            for item in 0..self.items.len() {
                if matches!(self.items[item].status, BcStatus::Running | BcStatus::AtPipe) {
                    any_running = true;
                    self.run_item(item, mem, math, pipes)?;
                }
            }
            let live: Vec<usize> =
                (0..self.items.len()).filter(|&i| self.items[i].status != BcStatus::Done).collect();
            if live.is_empty() {
                return Ok(RunOutcome::Complete);
            }
            if live.iter().any(|&i| self.items[i].status == BcStatus::AtPipe) {
                // A stalled pipe op cannot be released locally; hand
                // control back to the co-scheduler.
                return Ok(RunOutcome::Stalled);
            }
            // All live items are now suspended at barriers.
            let pos = self.kernel.pos(self.items[live[0]].pc);
            for &i in &live[1..] {
                let p = self.kernel.pos(self.items[i].pc);
                if p != pos {
                    return Err(ExecError::BarrierDivergence { a: pos, b: p });
                }
            }
            if !any_running {
                // Defensive: should be unreachable, barrier release below
                // always makes progress.
                return Err(ExecError::Trap("scheduler made no progress".into()));
            }
            // Release the barrier: step every live item past it.
            self.stats.barriers += 1;
            for &i in &live {
                let it = &mut self.items[i];
                it.pc += 1;
                it.status = BcStatus::Running;
            }
        }
    }

    /// Execute `item` until it retires, reaches a barrier or stalls on a
    /// pipe.
    fn run_item(
        &mut self,
        item: usize,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<(), ExecError> {
        self.stats.item_phases += 1;
        let code = &self.kernel.code[..];
        let consts = &self.kernel.consts[..];
        let stats = &mut self.stats;
        let steps = &mut self.steps;
        let step_limit = self.step_limit;
        let shape = &self.shape;
        let it = &mut self.items[item];
        loop {
            *steps += 1;
            if *steps > step_limit {
                return Err(ExecError::StepLimitExceeded);
            }
            match &code[it.pc] {
                Op::Const { dst, idx } => {
                    it.regs[*dst as usize] = consts[*idx as usize];
                }
                Op::Mov { dst, src } => {
                    stats.ops.mov += 1;
                    it.regs[*dst as usize] = it.regs[*src as usize];
                }
                Op::AddF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64() + it.regs[*b as usize].as_f64();
                    stats.ops.add64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::SubF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64() - it.regs[*b as usize].as_f64();
                    stats.ops.add64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::MulF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64() * it.regs[*b as usize].as_f64();
                    stats.ops.mul64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::DivF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64() / it.regs[*b as usize].as_f64();
                    stats.ops.div64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::MinF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64().min(it.regs[*b as usize].as_f64());
                    stats.ops.minmax64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::MaxF64 { dst, a, b } => {
                    let out = it.regs[*a as usize].as_f64().max(it.regs[*b as usize].as_f64());
                    stats.ops.minmax64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::AddI64 { dst, a, b } => {
                    let out =
                        it.regs[*a as usize].as_i64().wrapping_add(it.regs[*b as usize].as_i64());
                    stats.ops.int_alu += 1;
                    it.regs[*dst as usize] = Value::I64(out);
                }
                Op::Bin { op, ty, dst, a, b } => {
                    let (va, vb) = (it.regs[*a as usize], it.regs[*b as usize]);
                    let out = eval_bin(*op, *ty, va, vb).map_err(ExecError::Trap)?;
                    stats.ops.count_bin(*op, *ty);
                    it.regs[*dst as usize] = out;
                }
                Op::Un { op, ty, dst, a } => {
                    let out = eval_un(*op, *ty, it.regs[*a as usize]);
                    stats.ops.int_alu += 1;
                    it.regs[*dst as usize] = out;
                }
                Op::Cmp { op, ty, dst, a, b } => {
                    let out = eval_cmp(*op, *ty, it.regs[*a as usize], it.regs[*b as usize]);
                    stats.ops.cmp += 1;
                    it.regs[*dst as usize] = Value::Bool(out);
                }
                Op::Select { ty, dst, cond, a, b } => {
                    let out = if it.regs[*cond as usize].as_bool() {
                        it.regs[*a as usize]
                    } else {
                        it.regs[*b as usize]
                    };
                    debug_assert_eq!(out.scalar_type(), Some(*ty));
                    stats.ops.select += 1;
                    it.regs[*dst as usize] = out;
                }
                Op::Cast { dst, a, from, to } => {
                    stats.ops.cast += 1;
                    it.regs[*dst as usize] = eval_cast(it.regs[*a as usize], *from, *to);
                }
                Op::Call1 { func, ty, dst, a } => {
                    let x = it.regs[*a as usize].as_f64();
                    let out = match func {
                        Builtin::Exp => math.exp64(x),
                        Builtin::Log => math.log64(x),
                        Builtin::Sqrt => math.sqrt64(x),
                        Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                    };
                    let out = if *ty == ScalarType::F32 {
                        let x32 = x as f32;
                        Value::F32(match func {
                            Builtin::Exp => math.exp32(x32),
                            Builtin::Log => math.log32(x32),
                            Builtin::Sqrt => math.sqrt32(x32),
                            Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                        })
                    } else {
                        Value::F64(out)
                    };
                    stats.ops.count_builtin(*func, *ty);
                    it.regs[*dst as usize] = out;
                }
                Op::Pow { ty, dst, a, b } => {
                    let x = it.regs[*a as usize].as_f64();
                    let y = it.regs[*b as usize].as_f64();
                    let out = if *ty == ScalarType::F32 {
                        Value::F32(math.pow32(x as f32, y as f32))
                    } else {
                        Value::F64(math.pow64(x, y))
                    };
                    stats.ops.count_builtin(Builtin::Pow, *ty);
                    it.regs[*dst as usize] = out;
                }
                Op::WorkItem { query, dim, dst } => {
                    let dim = *dim as usize;
                    let out = match query {
                        WiQuery::GlobalId => {
                            shape.group_id[dim] * shape.local_size[dim] + it.lid[dim]
                        }
                        WiQuery::LocalId => it.lid[dim],
                        WiQuery::GroupId => shape.group_id[dim],
                        WiQuery::GlobalSize => shape.global_size[dim],
                        WiQuery::LocalSize => shape.local_size[dim],
                        WiQuery::NumGroups => shape.num_groups()[dim],
                    };
                    stats.ops.wi_query += 1;
                    it.regs[*dst as usize] = Value::I64(out as i64);
                }
                Op::Gep { dst, base, index, elem } => {
                    let p = it.regs[*base as usize].as_ptr();
                    let idx = it.regs[*index as usize].as_i64();
                    stats.ops.int_alu += 1;
                    it.regs[*dst as usize] = Value::Ptr(p.offset_by(idx, *elem));
                }
                Op::Load { dst, ptr, ty } => {
                    let p = it.regs[*ptr as usize].as_ptr();
                    let v = if p.space == AddressSpace::Private {
                        bc_private_load(&it.private, p, *ty)?
                    } else {
                        mem.load(p, *ty)?
                    };
                    stats.mem.count_load(p.space, ty.size_bytes());
                    it.regs[*dst as usize] = v;
                }
                Op::Store { ptr, val, ty } => {
                    let p = it.regs[*ptr as usize].as_ptr();
                    let v = it.regs[*val as usize];
                    debug_assert_eq!(v.scalar_type(), Some(*ty));
                    if p.space == AddressSpace::Private {
                        bc_private_store(&mut it.private, p, v)?;
                    } else {
                        mem.store(p, v)?;
                    }
                    stats.mem.count_store(p.space, ty.size_bytes());
                }
                Op::MulAddF64 { dst, a, b, c, c_first } => {
                    // Second step for the fused add, as the walker pays.
                    *steps += 1;
                    if *steps > step_limit {
                        return Err(ExecError::StepLimitExceeded);
                    }
                    let prod = it.regs[*a as usize].as_f64() * it.regs[*b as usize].as_f64();
                    let cv = it.regs[*c as usize].as_f64();
                    // Operand order mirrors the unfused source expression so
                    // NaN payloads stay bit-identical to the tree-walker.
                    #[allow(clippy::if_same_then_else)]
                    let out = if *c_first { cv + prod } else { prod + cv };
                    stats.ops.mul64 += 1;
                    stats.ops.add64 += 1;
                    it.regs[*dst as usize] = Value::F64(out);
                }
                Op::ChargeMov => {
                    stats.ops.mov += 1;
                }
                Op::JumpThread { target, mid_block, block } => {
                    // Step for the skipped block's jump, as the walker pays.
                    *steps += 1;
                    if *steps > step_limit {
                        return Err(ExecError::StepLimitExceeded);
                    }
                    stats.block_execs[*mid_block as usize] += 1;
                    stats.block_execs[*block as usize] += 1;
                    it.pc = *target as usize;
                    continue;
                }
                Op::Barrier => {
                    it.status = BcStatus::AtBarrier;
                    return Ok(());
                }
                Op::PipeRead { dst, pipe, ty } => {
                    let p = it.regs[*pipe as usize].as_ptr();
                    match pipes.try_read(p.buffer, *ty).map_err(ExecError::Trap)? {
                        None => {
                            stats.pipe_read_stalls += 1;
                            it.status = BcStatus::AtPipe;
                            return Ok(());
                        }
                        Some(bits) => {
                            stats.pipe_reads += 1;
                            it.regs[*dst as usize] = decode_scalar(*ty, bits);
                        }
                    }
                    it.status = BcStatus::Running;
                }
                Op::PipeWrite { pipe, val, ty } => {
                    let p = it.regs[*pipe as usize].as_ptr();
                    let bits = encode_scalar(it.regs[*val as usize]);
                    if !pipes.try_write(p.buffer, *ty, bits).map_err(ExecError::Trap)? {
                        stats.pipe_write_stalls += 1;
                        it.status = BcStatus::AtPipe;
                        return Ok(());
                    }
                    stats.pipe_writes += 1;
                    it.status = BcStatus::Running;
                }
                Op::Jump { target, block } => {
                    stats.block_execs[*block as usize] += 1;
                    it.pc = *target as usize;
                    continue;
                }
                Op::Branch { cond, then_target, then_block, else_target, else_block } => {
                    let (target, block) = if it.regs[*cond as usize].as_bool() {
                        (*then_target, *then_block)
                    } else {
                        (*else_target, *else_block)
                    };
                    stats.block_execs[block as usize] += 1;
                    it.pc = target as usize;
                    continue;
                }
                Op::Return => {
                    it.status = BcStatus::Done;
                    return Ok(());
                }
            }
            it.pc += 1;
        }
    }
}

/// Pack a scalar [`Value`] into a 64-bit register cell. Pointers live
/// in a separate plane (see [`LanesRun`]).
#[inline]
fn encode_scalar(v: Value) -> u64 {
    match v {
        Value::Bool(b) => b as u64,
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(x) => x.to_bits() as u64,
        Value::F64(x) => x.to_bits(),
        Value::Ptr(_) => unreachable!("pointers live in the pointer plane"),
    }
}

/// Unpack a 64-bit register cell back into a typed scalar [`Value`].
#[inline]
fn decode_scalar(ty: ScalarType, bits: u64) -> Value {
    match ty {
        ScalarType::Bool => Value::Bool(bits != 0),
        ScalarType::I32 => Value::I32(bits as u32 as i32),
        ScalarType::I64 => Value::I64(bits as i64),
        ScalarType::F32 => Value::F32(f32::from_bits(bits as u32)),
        ScalarType::F64 => Value::F64(f64::from_bits(bits)),
    }
}

/// A SIMT group: lanes in lockstep at one pc. Lanes of a group share an
/// identical per-phase history, hence one `fetched` counter.
///
/// Lane lists are always ascending (divergence partitions and trap
/// masking both preserve order), so a contiguous run — the common case,
/// detected in O(1) — lets the per-op inner loops walk a dense index
/// range instead of gathering through the list.
struct LaneGroup {
    pc: usize,
    lanes: Vec<usize>,
    fetched: u64,
}

/// `true` if `lanes` is the dense range `lanes[0]..=lanes[n-1]`.
#[inline]
fn lanes_contiguous(lanes: &[usize]) -> bool {
    lanes[lanes.len() - 1] - lanes[0] + 1 == lanes.len()
}

/// Copy register row `s` to row `d` (row bases of one plane) across the
/// lanes of a group.
#[inline(always)]
fn lanes_copy<T: Copy>(plane: &mut [T], lanes: &[usize], d: usize, s: usize) {
    if lanes_contiguous(lanes) {
        // Register rows are disjoint (or identical, for a no-op mov), so
        // the dense case is a memmove.
        let (lo, n) = (lanes[0], lanes.len());
        plane.copy_within(s + lo..s + lo + n, d + lo);
    } else {
        for &l in lanes {
            plane[d + l] = plane[s + l];
        }
    }
}

/// Apply a binary f64 op across the lanes of a group, SoA cells layout.
#[inline(always)]
fn lanes_f64_bin(
    cells: &mut [u64],
    w: usize,
    lanes: &[usize],
    dst: u32,
    a: u32,
    b: u32,
    f: impl Fn(f64, f64) -> f64,
) {
    let (a, b, d) = (a as usize * w, b as usize * w, dst as usize * w);
    if lanes_contiguous(lanes) {
        let (lo, n) = (lanes[0], lanes.len());
        let hi = lo + n;
        // One bounds check up front; the loop itself is then free of
        // per-iteration checks and auto-vectorizes.
        assert!(a + hi <= cells.len() && b + hi <= cells.len() && d + hi <= cells.len());
        for i in lo..hi {
            // SAFETY: `a/b/d + i < cells.len()` per the assert above.
            unsafe {
                let x = f64::from_bits(*cells.get_unchecked(a + i));
                let y = f64::from_bits(*cells.get_unchecked(b + i));
                *cells.get_unchecked_mut(d + i) = f(x, y).to_bits();
            }
        }
    } else {
        for &l in lanes {
            let x = f64::from_bits(cells[a + l]);
            let y = f64::from_bits(cells[b + l]);
            cells[d + l] = f(x, y).to_bits();
        }
    }
}

/// Apply a binary wrapping-i64 op across the lanes of a group.
#[inline(always)]
fn lanes_i64_bin(
    cells: &mut [u64],
    w: usize,
    lanes: &[usize],
    dst: u32,
    a: u32,
    b: u32,
    f: impl Fn(i64, i64) -> i64,
) {
    let (a, b, d) = (a as usize * w, b as usize * w, dst as usize * w);
    if lanes_contiguous(lanes) {
        let (lo, n) = (lanes[0], lanes.len());
        let hi = lo + n;
        assert!(a + hi <= cells.len() && b + hi <= cells.len() && d + hi <= cells.len());
        for i in lo..hi {
            // SAFETY: `a/b/d + i < cells.len()` per the assert above.
            unsafe {
                *cells.get_unchecked_mut(d + i) =
                    f(*cells.get_unchecked(a + i) as i64, *cells.get_unchecked(b + i) as i64)
                        as u64;
            }
        }
    } else {
        for &l in lanes {
            cells[d + l] = f(cells[a + l] as i64, cells[b + l] as i64) as u64;
        }
    }
}

/// Apply an i64 comparison across the lanes of a group (0/1 result).
#[inline(always)]
fn lanes_i64_cmp(
    cells: &mut [u64],
    w: usize,
    lanes: &[usize],
    dst: u32,
    a: u32,
    b: u32,
    f: impl Fn(i64, i64) -> bool,
) {
    let (a, b, d) = (a as usize * w, b as usize * w, dst as usize * w);
    if lanes_contiguous(lanes) {
        let (lo, n) = (lanes[0], lanes.len());
        let hi = lo + n;
        assert!(a + hi <= cells.len() && b + hi <= cells.len() && d + hi <= cells.len());
        for i in lo..hi {
            // SAFETY: `a/b/d + i < cells.len()` per the assert above.
            unsafe {
                *cells.get_unchecked_mut(d + i) =
                    f(*cells.get_unchecked(a + i) as i64, *cells.get_unchecked(b + i) as i64)
                        as u64;
            }
        }
    } else {
        for &l in lanes {
            cells[d + l] = f(cells[a + l] as i64, cells[b + l] as i64) as u64;
        }
    }
}

/// Lane-vectorized execution of one work-group over a [`CompiledKernel`].
///
/// Where [`BytecodeRun`] dispatches every op once per work-item,
/// `LanesRun` keeps a structure-of-arrays register file (`W` lanes per
/// register, bit-packed `u64` cells for scalars, and a compact pointer
/// plane with rows for the pointer-typed registers only) and dispatches
/// each op *once per SIMT group*, running its
/// inner loop across all live lanes. Control divergence splits a group;
/// lanes that trap or reach a barrier are masked out and their outcome
/// recorded.
///
/// Observational parity with the serial engines is maintained by
/// construction:
///
/// - per-op statistics are charged once per executing lane, and the
///   shared step budget is settled at each phase end by replaying the
///   per-lane fetch counts in work-item order — so `StepLimitExceeded`
///   vs. a real trap resolves exactly as in serial execution;
/// - argument binding, trap payloads, barrier divergence positions and
///   the barrier-release protocol are shared with / mirrored from
///   [`BytecodeRun`].
///
/// The one caveat is failed launches: lanes past a trapping work-item
/// may already have executed (and written memory) in lockstep, where the
/// serial engines would have stopped. Error values and successful runs
/// are bit-identical for race-free kernels; partially-written buffers of
/// a *failed* launch are not part of the contract on any engine.
pub struct LanesRun<'k> {
    kernel: &'k CompiledKernel,
    shape: GroupShape,
    /// Lane count = work-items per group.
    w: usize,
    /// Scalar register cells, SoA: register `r` of lane `l` is at `r*w + l`.
    cells: Vec<u64>,
    /// Pointer registers, SoA by pointer row: pointer register `r` of
    /// lane `l` is at `kernel.ptr_row(r)*w + l`.
    ptrs: Vec<PtrValue>,
    /// Per-lane private arenas, stride `private_bytes`.
    private: Vec<u8>,
    lid: Vec<[usize; 3]>,
    status: Vec<BcStatus>,
    pc: Vec<usize>,
    stats: ExecStats,
    steps: u64,
    step_limit: u64,
    /// Per-lane fetch count of the current phase (`u64::MAX` marks a
    /// lane that stalled against the fetch cap). Scratch, valid for the
    /// lanes that ran the phase only.
    lane_fetches: Vec<u64>,
    /// Reusable group worklist and lane-vector pool: the steady state
    /// of a phase allocates nothing.
    group_stack: Vec<LaneGroup>,
    lane_pool: Vec<Vec<usize>>,
}

impl<'k> LanesRun<'k> {
    /// Prepare a lane-vectorized run. Same contract (and error messages)
    /// as [`BytecodeRun::new`].
    ///
    /// # Errors
    /// Returns [`ExecError::BadArgs`] if `args` does not match the
    /// kernel signature.
    pub fn new(
        kernel: &'k CompiledKernel,
        shape: GroupShape,
        args: &[KernelArgValue],
        step_limit: u64,
    ) -> Result<LanesRun<'k>, ExecError> {
        check_pipe_shape(&kernel.name, &kernel.params, &shape)?;
        let bound = bind_args(kernel, args)?;
        let w = shape.items_per_group();
        let nregs = kernel.reg_types.len();
        // Zero cells are the zero-init of every scalar type (false, 0,
        // 0.0); pointer registers start at the poison buffer id.
        let mut cells = vec![0u64; nregs * w];
        let ptr_regs = kernel.ptr_rows.iter().filter(|&&row| row != NO_PTR_ROW).count();
        let mut ptrs = Vec::with_capacity(ptr_regs * w);
        for ty in &kernel.reg_types {
            if let Type::Ptr(space, _) = ty {
                ptrs.extend(std::iter::repeat_n(PtrValue::new(*space, u32::MAX), w));
            }
        }
        // Binding puts pointers only in pointer-typed parameters.
        for (r, v) in bound.iter().enumerate() {
            match *v {
                Value::Ptr(p) => {
                    let row = kernel.ptr_row(r as u32) * w;
                    ptrs[row..row + w].fill(p)
                }
                v => cells[r * w..(r + 1) * w].fill(encode_scalar(v)),
            }
        }
        let mut stats = ExecStats::with_blocks(kernel.block_starts.len());
        // Every live item enters block 0.
        stats.block_execs[0] += w as u64;
        Ok(LanesRun {
            kernel,
            shape,
            w,
            cells,
            ptrs,
            private: vec![0; kernel.private_bytes * w],
            lid: (0..w).map(|i| shape.local_id(i)).collect(),
            status: vec![BcStatus::Running; w],
            pc: vec![0; w],
            stats,
            steps: 0,
            step_limit: if step_limit == 0 { DEFAULT_STEP_LIMIT } else { step_limit },
            lane_fetches: vec![0; w],
            group_stack: Vec::new(),
            lane_pool: Vec::new(),
        })
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Consume the run and return its statistics.
    pub fn into_stats(self) -> ExecStats {
        self.stats
    }

    /// Run the whole group to completion with no pipes attached; a pipe
    /// stall is reported as the deterministic deadlock trap (same
    /// contract as [`crate::interp::WorkGroupRun::run`]).
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and
    /// step-limit exhaustion, with the same payloads as the serial
    /// engines.
    pub fn run(&mut self, mem: &mut dyn Memory, math: &dyn MathLib) -> Result<(), ExecError> {
        let mut pipes = PipeHub::default();
        match self.run_resumable(mem, math, &mut pipes)? {
            RunOutcome::Complete => Ok(()),
            RunOutcome::Stalled => Err(pipe_deadlock_trap()),
        }
    }

    /// Run until every lane retires or a pipe op stalls; same
    /// resume/accounting contract as
    /// [`crate::interp::WorkGroupRun::run_resumable`] (each resume
    /// attempt re-enters a phase, charging one `item_phases` and one step
    /// per attempting lane).
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and
    /// step-limit exhaustion, with the same payloads as the serial
    /// engines.
    pub fn run_resumable(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        // `running` is exactly the set of `BcStatus::Running` lanes at
        // the top of each iteration: initially every lane (or, on a
        // resume, the lanes suspended at pipes), then the
        // barrier-released survivors of the previous phase — so the
        // live-set update only inspects lanes that ran, not all of `w`.
        let mut running: Vec<usize> = (0..self.w)
            .filter(|&i| matches!(self.status[i], BcStatus::Running | BcStatus::AtPipe))
            .collect();
        let mut live: Vec<usize> = Vec::with_capacity(self.w);
        loop {
            let any_running = !running.is_empty();
            if any_running {
                self.stats.item_phases += running.len() as u64;
                for &l in &running {
                    self.status[l] = BcStatus::Running;
                }
                self.run_phase(&running, mem, math, pipes)?;
            }
            live.clear();
            live.extend(running.iter().copied().filter(|&i| self.status[i] != BcStatus::Done));
            if live.is_empty() {
                return Ok(RunOutcome::Complete);
            }
            if live.iter().any(|&i| self.status[i] == BcStatus::AtPipe) {
                // A stalled pipe op cannot be released locally; hand
                // control back to the co-scheduler.
                return Ok(RunOutcome::Stalled);
            }
            // All live lanes are now suspended at barriers. Equal pcs
            // (the overwhelmingly common case) imply equal positions, so
            // the position table is only consulted when pcs differ.
            let pc0 = self.pc[live[0]];
            if live[1..].iter().any(|&i| self.pc[i] != pc0) {
                let pos = self.kernel.pos(pc0);
                for &i in &live[1..] {
                    let p = self.kernel.pos(self.pc[i]);
                    if p != pos {
                        return Err(ExecError::BarrierDivergence { a: pos, b: p });
                    }
                }
            }
            if !any_running {
                return Err(ExecError::Trap("scheduler made no progress".into()));
            }
            self.stats.barriers += 1;
            for &i in &live {
                self.pc[i] += 1;
                self.status[i] = BcStatus::Running;
            }
            std::mem::swap(&mut running, &mut live);
        }
    }

    /// The region the lanes of a group access through pointers into
    /// `p0`'s buffer, as `(base, len, stride)`: lane `l` reaches byte `o`
    /// at `base + l*stride + o`, valid when `o + size <= len`. A global,
    /// local or constant buffer is one region for every lane (stride 0);
    /// private memory is each lane's own arena. `None` when the memory
    /// exposes no raw view.
    fn lane_region(
        &mut self,
        mem: &mut dyn Memory,
        p0: PtrValue,
    ) -> Option<(*mut u8, usize, usize)> {
        match p0.space {
            AddressSpace::Private => {
                let pb = self.kernel.private_bytes;
                Some((self.private.as_mut_ptr(), pb, pb))
            }
            space => mem.raw_region(space, p0.buffer).map(|(base, len)| (base, len, 0)),
        }
    }

    /// Execute one phase (all running lanes until barrier/retire/trap)
    /// as a worklist of lockstep groups, then settle the step budget.
    ///
    /// The steady state allocates nothing: the group worklist and the
    /// lane vectors are pooled on `self`, per-lane outcomes live in
    /// `self.lane_fetches`, and traps/stalls (rare) divert settlement to
    /// a serial replay in work-item order.
    fn run_phase(
        &mut self,
        running: &[usize],
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<(), ExecError> {
        let kernel = self.kernel;
        let w = self.w;
        let pb = kernel.private_bytes;
        let idx = |r: u32, l: usize| r as usize * w + l;
        let pidx = |r: u32, l: usize| kernel.ptr_row(r) * w + l;
        // Fetches a lane may consume before the shared budget would have
        // run dry even with every other lane charging nothing.
        let budget = self.step_limit - self.steps;
        let cap = budget.saturating_add(1);
        let start_pc = self.pc[running[0]];
        debug_assert!(running.iter().all(|&l| self.pc[l] == start_pc));
        let mut groups = std::mem::take(&mut self.group_stack);
        let mut pool = std::mem::take(&mut self.lane_pool);
        let mut first = pool.pop().unwrap_or_default();
        first.clear();
        first.extend_from_slice(running);
        groups.push(LaneGroup { pc: start_pc, lanes: first, fetched: 0 });
        // Σ fetches of completed lanes; traps and stalls flip `any_bad`
        // so settlement takes the serial replay instead.
        let mut sum_fetches: u64 = 0;
        let mut any_bad = false;
        let mut trapped: Vec<(usize, ExecError)> = Vec::new();

        'groups: while let Some(mut g) = groups.pop() {
            loop {
                g.fetched += 1;
                if g.fetched > cap {
                    any_bad = true;
                    for &l in &g.lanes {
                        self.lane_fetches[l] = u64::MAX;
                    }
                    pool.push(std::mem::take(&mut g.lanes));
                    continue 'groups;
                }
                let nl = g.lanes.len() as u64;
                match &kernel.code[g.pc] {
                    Op::Const { dst, idx: ci } => {
                        let contig = lanes_contiguous(&g.lanes);
                        let (lo, n) = (g.lanes[0], g.lanes.len());
                        match kernel.consts[*ci as usize] {
                            Value::Ptr(p) => {
                                let d = kernel.ptr_row(*dst) * w;
                                if contig {
                                    self.ptrs[d + lo..d + lo + n].fill(p);
                                } else {
                                    for &l in &g.lanes {
                                        self.ptrs[d + l] = p;
                                    }
                                }
                            }
                            v => {
                                let d = *dst as usize * w;
                                let bits = encode_scalar(v);
                                if contig {
                                    self.cells[d + lo..d + lo + n].fill(bits);
                                } else {
                                    for &l in &g.lanes {
                                        self.cells[d + l] = bits;
                                    }
                                }
                            }
                        }
                    }
                    Op::Mov { dst, src } => {
                        // Mov operands share one type (verified), so only
                        // the plane that type lives in is copied.
                        if kernel.ptr_rows[*dst as usize] == NO_PTR_ROW {
                            let (d, s) = (*dst as usize * w, *src as usize * w);
                            lanes_copy(&mut self.cells, &g.lanes, d, s);
                        } else {
                            let (d, s) = (kernel.ptr_row(*dst) * w, kernel.ptr_row(*src) * w);
                            lanes_copy(&mut self.ptrs, &g.lanes, d, s);
                        }
                        self.stats.ops.mov += nl;
                    }
                    Op::AddF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x + y);
                        self.stats.ops.add64 += nl;
                    }
                    Op::SubF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x - y);
                        self.stats.ops.add64 += nl;
                    }
                    Op::MulF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x * y);
                        self.stats.ops.mul64 += nl;
                    }
                    Op::DivF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x / y);
                        self.stats.ops.div64 += nl;
                    }
                    Op::MinF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, f64::min);
                        self.stats.ops.minmax64 += nl;
                    }
                    Op::MaxF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, f64::max);
                        self.stats.ops.minmax64 += nl;
                    }
                    Op::AddI64 { dst, a, b } => {
                        lanes_i64_bin(
                            &mut self.cells,
                            w,
                            &g.lanes,
                            *dst,
                            *a,
                            *b,
                            i64::wrapping_add,
                        );
                        self.stats.ops.int_alu += nl;
                    }
                    Op::MulAddF64 { dst, a, b, c, c_first } => {
                        // Second step for the fused add.
                        g.fetched += 1;
                        if g.fetched > cap {
                            any_bad = true;
                            for &l in &g.lanes {
                                self.lane_fetches[l] = u64::MAX;
                            }
                            pool.push(std::mem::take(&mut g.lanes));
                            continue 'groups;
                        }
                        let (ai, bi, ci, di) =
                            (*a as usize * w, *b as usize * w, *c as usize * w, *dst as usize * w);
                        let cf = *c_first;
                        let fma = |cells: &mut [u64], i: usize| {
                            let x = f64::from_bits(cells[ai + i]);
                            let y = f64::from_bits(cells[bi + i]);
                            let cv = f64::from_bits(cells[ci + i]);
                            let prod = x * y;
                            // Same operand-order contract as the scalar engine.
                            #[allow(clippy::if_same_then_else)]
                            let out = if cf { cv + prod } else { prod + cv };
                            cells[di + i] = out.to_bits();
                        };
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            for i in lo..lo + n {
                                fma(&mut self.cells, i);
                            }
                        } else {
                            for &l in &g.lanes {
                                fma(&mut self.cells, l);
                            }
                        }
                        self.stats.ops.mul64 += nl;
                        self.stats.ops.add64 += nl;
                    }
                    Op::ChargeMov => {
                        self.stats.ops.mov += nl;
                    }
                    Op::Bin { op, ty, dst, a, b } => {
                        // Wrapping i64 arithmetic inline (index/counter
                        // math of hot loops); other trap-free shapes per
                        // lane through the shared evaluator; only the
                        // trapping shapes (integer div/rem and
                        // verifier-rejected combinations) pay the
                        // survivor bookkeeping.
                        if *ty == ScalarType::I64
                            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                        {
                            let c = &mut self.cells;
                            let (ls, d, a, b) = (&g.lanes[..], *dst, *a, *b);
                            match op {
                                BinOp::Add => lanes_i64_bin(c, w, ls, d, a, b, i64::wrapping_add),
                                BinOp::Sub => lanes_i64_bin(c, w, ls, d, a, b, i64::wrapping_sub),
                                _ => lanes_i64_bin(c, w, ls, d, a, b, i64::wrapping_mul),
                            }
                            self.stats.ops.int_alu += nl;
                        } else {
                            let trap_free = if ty.is_float() {
                                matches!(
                                    op,
                                    BinOp::Add
                                        | BinOp::Sub
                                        | BinOp::Mul
                                        | BinOp::Div
                                        | BinOp::Rem
                                        | BinOp::Min
                                        | BinOp::Max
                                )
                            } else if *ty == ScalarType::Bool {
                                matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
                            } else {
                                !matches!(op, BinOp::Div | BinOp::Rem)
                            };
                            if trap_free {
                                for &l in &g.lanes {
                                    let va = decode_scalar(*ty, self.cells[idx(*a, l)]);
                                    let vb = decode_scalar(*ty, self.cells[idx(*b, l)]);
                                    let out = eval_bin(*op, *ty, va, vb).expect("trap-free bin op");
                                    self.cells[idx(*dst, l)] = encode_scalar(out);
                                }
                                self.stats.ops.count_bins(*op, *ty, nl);
                            } else {
                                let mut survivors = pool.pop().unwrap_or_default();
                                survivors.clear();
                                for &l in &g.lanes {
                                    let va = decode_scalar(*ty, self.cells[idx(*a, l)]);
                                    let vb = decode_scalar(*ty, self.cells[idx(*b, l)]);
                                    match eval_bin(*op, *ty, va, vb) {
                                        Ok(out) => {
                                            self.stats.ops.count_bin(*op, *ty);
                                            self.cells[idx(*dst, l)] = encode_scalar(out);
                                            survivors.push(l);
                                        }
                                        Err(msg) => {
                                            any_bad = true;
                                            self.lane_fetches[l] = g.fetched;
                                            trapped.push((l, ExecError::Trap(msg)));
                                        }
                                    }
                                }
                                pool.push(std::mem::replace(&mut g.lanes, survivors));
                                if g.lanes.is_empty() {
                                    pool.push(std::mem::take(&mut g.lanes));
                                    continue 'groups;
                                }
                            }
                        }
                    }
                    Op::Un { op, ty, dst, a } => {
                        for &l in &g.lanes {
                            let out = eval_un(*op, *ty, decode_scalar(*ty, self.cells[idx(*a, l)]));
                            self.cells[idx(*dst, l)] = encode_scalar(out);
                        }
                        self.stats.ops.int_alu += nl;
                    }
                    Op::Cmp { op, ty, dst, a, b } => {
                        if *ty == ScalarType::I64 {
                            let c = &mut self.cells;
                            let (ls, d, a, b) = (&g.lanes[..], *dst, *a, *b);
                            match op {
                                CmpOp::Eq => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x == y),
                                CmpOp::Ne => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x != y),
                                CmpOp::Lt => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x < y),
                                CmpOp::Le => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x <= y),
                                CmpOp::Gt => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x > y),
                                CmpOp::Ge => lanes_i64_cmp(c, w, ls, d, a, b, |x, y| x >= y),
                            }
                        } else {
                            for &l in &g.lanes {
                                let va = decode_scalar(*ty, self.cells[idx(*a, l)]);
                                let vb = decode_scalar(*ty, self.cells[idx(*b, l)]);
                                self.cells[idx(*dst, l)] = eval_cmp(*op, *ty, va, vb) as u64;
                            }
                        }
                        self.stats.ops.cmp += nl;
                    }
                    Op::Select { ty: _, dst, cond, a, b } => {
                        let (d, c, ar, br) = (
                            *dst as usize * w,
                            *cond as usize * w,
                            *a as usize * w,
                            *b as usize * w,
                        );
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            for i in lo..lo + n {
                                self.cells[d + i] = if self.cells[c + i] != 0 {
                                    self.cells[ar + i]
                                } else {
                                    self.cells[br + i]
                                };
                            }
                        } else {
                            for &l in &g.lanes {
                                let src = if self.cells[c + l] != 0 { ar } else { br };
                                self.cells[d + l] = self.cells[src + l];
                            }
                        }
                        self.stats.ops.select += nl;
                    }
                    Op::Cast { dst, a, from, to } => {
                        if (*from, *to) == (ScalarType::I64, ScalarType::F64) {
                            for &l in &g.lanes {
                                let x = self.cells[idx(*a, l)] as i64;
                                self.cells[idx(*dst, l)] = (x as f64).to_bits();
                            }
                        } else {
                            for &l in &g.lanes {
                                let v = decode_scalar(*from, self.cells[idx(*a, l)]);
                                self.cells[idx(*dst, l)] = encode_scalar(eval_cast(v, *from, *to));
                            }
                        }
                        self.stats.ops.cast += nl;
                    }
                    Op::Call1 { func, ty, dst, a } => {
                        for &l in &g.lanes {
                            let x = decode_scalar(*ty, self.cells[idx(*a, l)]).as_f64();
                            let out = if *ty == ScalarType::F32 {
                                let x32 = x as f32;
                                (match func {
                                    Builtin::Exp => math.exp32(x32),
                                    Builtin::Log => math.log32(x32),
                                    Builtin::Sqrt => math.sqrt32(x32),
                                    Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                                })
                                .to_bits() as u64
                            } else {
                                (match func {
                                    Builtin::Exp => math.exp64(x),
                                    Builtin::Log => math.log64(x),
                                    Builtin::Sqrt => math.sqrt64(x),
                                    Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                                })
                                .to_bits()
                            };
                            self.stats.ops.count_builtin(*func, *ty);
                            self.cells[idx(*dst, l)] = out;
                        }
                    }
                    Op::Pow { ty, dst, a, b } => {
                        for &l in &g.lanes {
                            let x = decode_scalar(*ty, self.cells[idx(*a, l)]).as_f64();
                            let y = decode_scalar(*ty, self.cells[idx(*b, l)]).as_f64();
                            let out = if *ty == ScalarType::F32 {
                                math.pow32(x as f32, y as f32).to_bits() as u64
                            } else {
                                math.pow64(x, y).to_bits()
                            };
                            self.stats.ops.count_builtin(Builtin::Pow, *ty);
                            self.cells[idx(*dst, l)] = out;
                        }
                    }
                    Op::WorkItem { query, dim, dst } => {
                        let shape = &self.shape;
                        let d = *dim as usize;
                        for &l in &g.lanes {
                            let out = match query {
                                WiQuery::GlobalId => {
                                    shape.group_id[d] * shape.local_size[d] + self.lid[l][d]
                                }
                                WiQuery::LocalId => self.lid[l][d],
                                WiQuery::GroupId => shape.group_id[d],
                                WiQuery::GlobalSize => shape.global_size[d],
                                WiQuery::LocalSize => shape.local_size[d],
                                WiQuery::NumGroups => shape.num_groups()[d],
                            };
                            self.cells[idx(*dst, l)] = out as i64 as u64;
                        }
                        self.stats.ops.wi_query += nl;
                    }
                    Op::Gep { dst, base, index, elem } => {
                        let (d, b, x) = (
                            kernel.ptr_row(*dst) * w,
                            kernel.ptr_row(*base) * w,
                            *index as usize * w,
                        );
                        // An `int` index cell holds its bits zero-extended;
                        // the offset sign-extends them, as `Value::as_i64`.
                        let int32 =
                            kernel.reg_types[*index as usize] == Type::Scalar(ScalarType::I32);
                        let offset =
                            |bits: u64| if int32 { bits as i32 as i64 } else { bits as i64 };
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            for i in lo..lo + n {
                                let off = offset(self.cells[x + i]);
                                self.ptrs[d + i] = self.ptrs[b + i].offset_by(off, *elem);
                            }
                        } else {
                            for &l in &g.lanes {
                                let off = offset(self.cells[x + l]);
                                self.ptrs[d + l] = self.ptrs[b + l].offset_by(off, *elem);
                            }
                        }
                        self.stats.ops.int_alu += nl;
                    }
                    Op::Load { dst, ptr, ty } => {
                        let len = ty.size_bytes();
                        // Resolve the buffer once for the whole group: in
                        // race-free kernels a group's lanes nearly always
                        // address one buffer (a uniform base plus per-lane
                        // offsets), or each its own private arena. Lanes
                        // that miss the resolved region — different
                        // buffer, out of bounds, bool loads (which
                        // canonicalize through `Value`) — take the per-lane
                        // slow path, which also produces the exact walker
                        // error payloads.
                        let p0 = self.ptrs[pidx(*ptr, g.lanes[0])];
                        let fast =
                            if *ty == ScalarType::Bool { None } else { self.lane_region(mem, p0) };
                        let mut k = 0;
                        if let Some((base, rlen, stride)) = fast {
                            let contig = lanes_contiguous(&g.lanes);
                            let lo = g.lanes[0];
                            while k < g.lanes.len() {
                                let l = if contig { lo + k } else { g.lanes[k] };
                                let p = self.ptrs[pidx(*ptr, l)];
                                if p.space != p0.space || p.buffer != p0.buffer {
                                    break;
                                }
                                let Some(o) =
                                    usize::try_from(p.offset).ok().filter(|o| o + len <= rlen)
                                else {
                                    break;
                                };
                                // SAFETY: `o + len <= rlen` was just checked
                                // against the lane's region (see
                                // `lane_region`); cross-group races are
                                // excluded by the race-freedom contract of
                                // `raw_region`.
                                let bits = unsafe {
                                    let at = base.add(l * stride + o);
                                    if len == 8 {
                                        u64::from_le(at.cast::<u64>().read_unaligned())
                                    } else {
                                        let mut raw = [0u8; 8];
                                        std::ptr::copy_nonoverlapping(at, raw.as_mut_ptr(), len);
                                        u64::from_le_bytes(raw)
                                    }
                                };
                                self.cells[idx(*dst, l)] = bits;
                                k += 1;
                            }
                            self.stats.mem.count_loads(p0.space, len, k as u64);
                        }
                        if k < g.lanes.len() {
                            let mut survivors = pool.pop().unwrap_or_default();
                            survivors.clear();
                            survivors.extend_from_slice(&g.lanes[..k]);
                            for &l in &g.lanes[k..] {
                                let p = self.ptrs[pidx(*ptr, l)];
                                let res = if p.space == AddressSpace::Private {
                                    bc_private_load(&self.private[l * pb..(l + 1) * pb], p, *ty)
                                } else {
                                    mem.load(p, *ty).map_err(ExecError::from)
                                };
                                match res {
                                    Ok(v) => {
                                        self.stats.mem.count_load(p.space, len);
                                        self.cells[idx(*dst, l)] = encode_scalar(v);
                                        survivors.push(l);
                                    }
                                    Err(err) => {
                                        any_bad = true;
                                        self.lane_fetches[l] = g.fetched;
                                        trapped.push((l, err));
                                    }
                                }
                            }
                            pool.push(std::mem::replace(&mut g.lanes, survivors));
                            if g.lanes.is_empty() {
                                pool.push(std::mem::take(&mut g.lanes));
                                continue 'groups;
                            }
                        }
                    }
                    Op::Store { ptr, val, ty } => {
                        let len = ty.size_bytes();
                        // Same single-resolution fast path as `Load`. Stores
                        // to `__constant` memory must keep erroring, so the
                        // constant space never takes it. Cells hold the
                        // exact little-endian bit patterns
                        // `Value::to_le_bytes` would produce (bool
                        // included: cells are canonical 0/1).
                        let p0 = self.ptrs[pidx(*ptr, g.lanes[0])];
                        let fast = if p0.space == AddressSpace::Constant {
                            None
                        } else {
                            self.lane_region(mem, p0)
                        };
                        let mut k = 0;
                        if let Some((base, rlen, stride)) = fast {
                            let contig = lanes_contiguous(&g.lanes);
                            let lo = g.lanes[0];
                            while k < g.lanes.len() {
                                let l = if contig { lo + k } else { g.lanes[k] };
                                let p = self.ptrs[pidx(*ptr, l)];
                                if p.space != p0.space || p.buffer != p0.buffer {
                                    break;
                                }
                                let Some(o) =
                                    usize::try_from(p.offset).ok().filter(|o| o + len <= rlen)
                                else {
                                    break;
                                };
                                let bits = self.cells[idx(*val, l)];
                                // SAFETY: bounds checked above against the
                                // lane's region; race-freedom per the
                                // `raw_region` contract.
                                unsafe {
                                    let at = base.add(l * stride + o);
                                    if len == 8 {
                                        at.cast::<u64>().write_unaligned(bits.to_le());
                                    } else {
                                        let raw = bits.to_le_bytes();
                                        std::ptr::copy_nonoverlapping(raw.as_ptr(), at, len);
                                    }
                                }
                                k += 1;
                            }
                            self.stats.mem.count_stores(p0.space, len, k as u64);
                        }
                        if k < g.lanes.len() {
                            let mut survivors = pool.pop().unwrap_or_default();
                            survivors.clear();
                            survivors.extend_from_slice(&g.lanes[..k]);
                            for &l in &g.lanes[k..] {
                                let p = self.ptrs[pidx(*ptr, l)];
                                let v = decode_scalar(*ty, self.cells[idx(*val, l)]);
                                let res = if p.space == AddressSpace::Private {
                                    bc_private_store(&mut self.private[l * pb..(l + 1) * pb], p, v)
                                } else {
                                    mem.store(p, v).map_err(ExecError::from)
                                };
                                match res {
                                    Ok(()) => {
                                        self.stats.mem.count_store(p.space, len);
                                        survivors.push(l);
                                    }
                                    Err(err) => {
                                        any_bad = true;
                                        self.lane_fetches[l] = g.fetched;
                                        trapped.push((l, err));
                                    }
                                }
                            }
                            pool.push(std::mem::replace(&mut g.lanes, survivors));
                            if g.lanes.is_empty() {
                                pool.push(std::mem::take(&mut g.lanes));
                                continue 'groups;
                            }
                        }
                    }
                    Op::Barrier => {
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            self.lane_fetches[lo..lo + n].fill(g.fetched);
                            self.status[lo..lo + n].fill(BcStatus::AtBarrier);
                            self.pc[lo..lo + n].fill(g.pc);
                        } else {
                            for &l in &g.lanes {
                                self.lane_fetches[l] = g.fetched;
                                self.status[l] = BcStatus::AtBarrier;
                                self.pc[l] = g.pc;
                            }
                        }
                        sum_fetches = sum_fetches.saturating_add(g.fetched.saturating_mul(nl));
                        pool.push(std::mem::take(&mut g.lanes));
                        continue 'groups;
                    }
                    Op::PipeRead { dst, pipe, ty } => {
                        // Pipe kernels are single-work-item tasks
                        // (enforced at construction), so a group here is
                        // one lane; the loop form keeps the survivor
                        // bookkeeping uniform with the other arms.
                        let mut survivors = pool.pop().unwrap_or_default();
                        survivors.clear();
                        for &l in &g.lanes {
                            let p = self.ptrs[pidx(*pipe, l)];
                            match pipes.try_read(p.buffer, *ty) {
                                Err(msg) => {
                                    any_bad = true;
                                    self.lane_fetches[l] = g.fetched;
                                    trapped.push((l, ExecError::Trap(msg)));
                                }
                                Ok(None) => {
                                    self.stats.pipe_read_stalls += 1;
                                    self.lane_fetches[l] = g.fetched;
                                    self.status[l] = BcStatus::AtPipe;
                                    self.pc[l] = g.pc;
                                    sum_fetches = sum_fetches.saturating_add(g.fetched);
                                }
                                Ok(Some(bits)) => {
                                    self.stats.pipe_reads += 1;
                                    self.cells[idx(*dst, l)] = bits;
                                    survivors.push(l);
                                }
                            }
                        }
                        pool.push(std::mem::replace(&mut g.lanes, survivors));
                        if g.lanes.is_empty() {
                            pool.push(std::mem::take(&mut g.lanes));
                            continue 'groups;
                        }
                    }
                    Op::PipeWrite { pipe, val, ty } => {
                        let mut survivors = pool.pop().unwrap_or_default();
                        survivors.clear();
                        for &l in &g.lanes {
                            let p = self.ptrs[pidx(*pipe, l)];
                            let bits = self.cells[idx(*val, l)];
                            match pipes.try_write(p.buffer, *ty, bits) {
                                Err(msg) => {
                                    any_bad = true;
                                    self.lane_fetches[l] = g.fetched;
                                    trapped.push((l, ExecError::Trap(msg)));
                                }
                                Ok(false) => {
                                    self.stats.pipe_write_stalls += 1;
                                    self.lane_fetches[l] = g.fetched;
                                    self.status[l] = BcStatus::AtPipe;
                                    self.pc[l] = g.pc;
                                    sum_fetches = sum_fetches.saturating_add(g.fetched);
                                }
                                Ok(true) => {
                                    self.stats.pipe_writes += 1;
                                    survivors.push(l);
                                }
                            }
                        }
                        pool.push(std::mem::replace(&mut g.lanes, survivors));
                        if g.lanes.is_empty() {
                            pool.push(std::mem::take(&mut g.lanes));
                            continue 'groups;
                        }
                    }
                    Op::Jump { target, block } => {
                        self.stats.block_execs[*block as usize] += nl;
                        g.pc = *target as usize;
                        continue;
                    }
                    Op::JumpThread { target, mid_block, block } => {
                        // Second step for the threaded-through jump.
                        g.fetched += 1;
                        if g.fetched > cap {
                            any_bad = true;
                            for &l in &g.lanes {
                                self.lane_fetches[l] = u64::MAX;
                            }
                            pool.push(std::mem::take(&mut g.lanes));
                            continue 'groups;
                        }
                        self.stats.block_execs[*mid_block as usize] += nl;
                        self.stats.block_execs[*block as usize] += nl;
                        g.pc = *target as usize;
                        continue;
                    }
                    Op::Branch { cond, then_target, then_block, else_target, else_block } => {
                        // Uniform branches (the common case) redirect the
                        // whole group without copying lanes.
                        let c = *cond as usize * w;
                        let first = self.cells[c + g.lanes[0]] != 0;
                        let mut split = g.lanes.len();
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            for (k, i) in (lo + 1..lo + n).enumerate() {
                                if (self.cells[c + i] != 0) != first {
                                    split = k + 1;
                                    break;
                                }
                            }
                        } else {
                            for (k, &l) in g.lanes.iter().enumerate().skip(1) {
                                if (self.cells[c + l] != 0) != first {
                                    split = k;
                                    break;
                                }
                            }
                        }
                        if split == g.lanes.len() {
                            let (block, target) = if first {
                                (*then_block, *then_target)
                            } else {
                                (*else_block, *else_target)
                            };
                            self.stats.block_execs[block as usize] += nl;
                            g.pc = target as usize;
                            continue;
                        }
                        let mut then_l = pool.pop().unwrap_or_default();
                        then_l.clear();
                        let mut else_l = pool.pop().unwrap_or_default();
                        else_l.clear();
                        for &l in &g.lanes {
                            if self.cells[idx(*cond, l)] != 0 {
                                then_l.push(l);
                            } else {
                                else_l.push(l);
                            }
                        }
                        self.stats.block_execs[*then_block as usize] += then_l.len() as u64;
                        self.stats.block_execs[*else_block as usize] += else_l.len() as u64;
                        groups.push(LaneGroup {
                            pc: *else_target as usize,
                            lanes: else_l,
                            fetched: g.fetched,
                        });
                        pool.push(std::mem::replace(&mut g.lanes, then_l));
                        g.pc = *then_target as usize;
                        continue;
                    }
                    Op::Return => {
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            self.lane_fetches[lo..lo + n].fill(g.fetched);
                            self.status[lo..lo + n].fill(BcStatus::Done);
                        } else {
                            for &l in &g.lanes {
                                self.lane_fetches[l] = g.fetched;
                                self.status[l] = BcStatus::Done;
                            }
                        }
                        sum_fetches = sum_fetches.saturating_add(g.fetched.saturating_mul(nl));
                        pool.push(std::mem::take(&mut g.lanes));
                        continue 'groups;
                    }
                }
                g.pc += 1;
            }
        }

        self.group_stack = groups;
        self.lane_pool = pool;
        if !any_bad && sum_fetches <= budget {
            self.steps += sum_fetches;
            return Ok(());
        }
        // Serial settlement (rare): replay per-lane fetch counts in
        // work-item order against the shared budget, exactly as the
        // serial engines interleave them — deciding `StepLimitExceeded`
        // vs. a real trap per lane.
        let mut cum: u64 = 0;
        for &l in running {
            let fetches = self.lane_fetches[l];
            if fetches == u64::MAX {
                return Err(ExecError::StepLimitExceeded);
            }
            let over = cum.checked_add(fetches).is_none_or(|s| s > budget);
            if let Some(pos) = trapped.iter().position(|(tl, _)| *tl == l) {
                let (_, err) = trapped.swap_remove(pos);
                return Err(if over { ExecError::StepLimitExceeded } else { err });
            }
            if over {
                return Err(ExecError::StepLimitExceeded);
            }
            cum += fetches;
        }
        self.steps += cum;
        Ok(())
    }
}

/// Check `args` against the kernel signature and bind them to values,
/// with the exact error messages of the tree-walker. Shared by
/// [`BytecodeRun`] and [`LanesRun`].
fn bind_args(kernel: &CompiledKernel, args: &[KernelArgValue]) -> Result<Vec<Value>, ExecError> {
    if args.len() != kernel.params.len() {
        return Err(ExecError::BadArgs(format!(
            "kernel `{}` takes {} arguments, {} supplied",
            kernel.name,
            kernel.params.len(),
            args.len()
        )));
    }
    let mut bound = Vec::with_capacity(args.len());
    for (i, (arg, param)) in args.iter().zip(&kernel.params).enumerate() {
        let v = match (*arg, param.ty) {
            (KernelArgValue::Scalar(v), Type::Scalar(want)) => {
                if v.scalar_type() != Some(want) {
                    return Err(ExecError::BadArgs(format!(
                        "argument {i} (`{}`): expected {want}, got {v:?}",
                        param.name
                    )));
                }
                v
            }
            (KernelArgValue::GlobalBuffer(b), Type::Ptr(space, _))
                if matches!(space, AddressSpace::Global | AddressSpace::Constant) =>
            {
                Value::Ptr(PtrValue::new(space, b))
            }
            (KernelArgValue::LocalBuffer(slot), Type::Ptr(AddressSpace::Local, _)) => {
                Value::Ptr(PtrValue::new(AddressSpace::Local, slot))
            }
            (KernelArgValue::Pipe(id), Type::Ptr(AddressSpace::Pipe, _)) => {
                Value::Ptr(PtrValue::new(AddressSpace::Pipe, id))
            }
            _ => {
                return Err(ExecError::BadArgs(format!(
                    "argument {i} (`{}`): {arg:?} does not match parameter type {}",
                    param.name, param.ty
                )))
            }
        };
        bound.push(v);
    }
    Ok(bound)
}

fn bc_private_load(arena: &[u8], p: PtrValue, ty: ScalarType) -> Result<Value, ExecError> {
    let len = ty.size_bytes();
    let off = usize::try_from(p.offset)
        .ok()
        .filter(|o| o + len <= arena.len())
        .ok_or_else(|| private_oob(p, len, arena.len()))?;
    Ok(Value::from_le_bytes(ty, &arena[off..off + len]))
}

fn bc_private_store(arena: &mut [u8], p: PtrValue, v: Value) -> Result<(), ExecError> {
    let len = v.scalar_type().expect("scalar").size_bytes();
    let alen = arena.len();
    let off = usize::try_from(p.offset)
        .ok()
        .filter(|o| o + len <= alen)
        .ok_or_else(|| private_oob(p, len, alen))?;
    arena[off..off + len].copy_from_slice(&v.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::{GlobalArena, VecMemory, WorkGroupRun, WorkerMemory};
    use crate::mathlib::ExactMath;

    /// Run `func` under all three engines over the same NDRange with
    /// identically initialised memories; return each memory and stats.
    #[allow(clippy::type_complexity)]
    fn run_all(
        func: &Function,
        global: usize,
        local: usize,
        init: impl Fn(&mut VecMemory) -> Vec<KernelArgValue>,
    ) -> ((VecMemory, ExecStats), (VecMemory, ExecStats), (VecMemory, ExecStats)) {
        let compiled = CompiledKernel::compile(func);
        let mut walk_mem = VecMemory::new();
        let walk_args = init(&mut walk_mem);
        let mut walk_stats = ExecStats::with_blocks(func.blocks.len());
        let mut bc_mem = VecMemory::new();
        let bc_args = init(&mut bc_mem);
        let mut bc_stats = ExecStats::with_blocks(func.blocks.len());
        let mut ln_mem = VecMemory::new();
        let ln_args = init(&mut ln_mem);
        let mut ln_stats = ExecStats::with_blocks(func.blocks.len());
        for group in 0..global / local {
            let shape = GroupShape::linear(global, local, group);
            let mut w = WorkGroupRun::new(func, shape, &walk_args, 0).expect("walk args");
            w.run(&mut walk_mem, &ExactMath).expect("walk runs");
            walk_stats.merge(w.stats());
            let mut b = BytecodeRun::new(&compiled, shape, &bc_args, 0).expect("bc args");
            b.run(&mut bc_mem, &ExactMath).expect("bc runs");
            bc_stats.merge(b.stats());
            let mut l = LanesRun::new(&compiled, shape, &ln_args, 0).expect("lanes args");
            l.run(&mut ln_mem, &ExactMath).expect("lanes runs");
            ln_stats.merge(l.stats());
        }
        ((walk_mem, walk_stats), (bc_mem, bc_stats), (ln_mem, ln_stats))
    }

    /// Looping kernel with barrier, local exchange, math call and private
    /// storage — exercises every structural feature at once.
    fn busy_kernel() -> Function {
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("busy", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let loc = b.param("l", Type::ptr(AddressSpace::Local, ScalarType::F64));
        let priv_slot = b.alloc_private(8, ScalarType::F64);
        let lid = b.local_id(0);
        let lid_f = b.cast(lid, ScalarType::I64, ScalarType::F64);
        // priv[0] = exp(lid / 8.0)
        let eight = b.const_f64(8.0);
        let frac = b.fdiv(lid_f, eight, ScalarType::F64);
        let e = b.call(Builtin::Exp, ScalarType::F64, &[frac]);
        b.store(priv_slot, e, ScalarType::F64);
        // l[lid] = lid; barrier; v = l[(lid+1)%n]
        let slot = b.gep(loc, lid, ScalarType::F64);
        b.store(slot, lid_f, ScalarType::F64);
        b.barrier();
        let one = b.const_i64(1);
        let n = b.wi_query(WiQuery::LocalSize, 0);
        let lp1 = b.bin(BinOp::Add, ScalarType::I64, lid, one);
        let idx = b.bin(BinOp::Rem, ScalarType::I64, lp1, n);
        let nslot = b.gep(loc, idx, ScalarType::F64);
        let v = b.load(nslot, ScalarType::F64);
        // acc = sum_{i=0}^{lid} i  (data-dependent trip count)
        let acc = b.fresh(Type::Scalar(ScalarType::F64));
        let zf = b.const_f64(0.0);
        b.mov_into(acc, zf);
        let i = b.fresh(Type::Scalar(ScalarType::I64));
        let z = b.const_i64(0);
        b.mov_into(i, z);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let cond = b.cmp(CmpOp::Le, ScalarType::I64, i, lid);
        b.branch(cond, body, exit);
        b.switch_to(body);
        let i_f = b.cast(i, ScalarType::I64, ScalarType::F64);
        let newacc = b.fadd(acc, i_f, ScalarType::F64);
        b.mov_into(acc, newacc);
        let newi = b.bin(BinOp::Add, ScalarType::I64, i, one);
        b.mov_into(i, newi);
        b.jump(header);
        b.switch_to(exit);
        // out[gid] = acc + v + priv[0]
        let pv = b.load(priv_slot, ScalarType::F64);
        let s1 = b.fadd(acc, v, ScalarType::F64);
        let s2 = b.fadd(s1, pv, ScalarType::F64);
        let gid = b.global_id(0);
        let oslot = b.gep(out, gid, ScalarType::F64);
        b.store(oslot, s2, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn bytecode_and_lanes_match_walker_bit_for_bit() {
        let func = busy_kernel();
        let ((wm, ws), (bm, bs), (lm, ls)) = run_all(&func, 8, 4, |mem| {
            let buf = mem.alloc_global(8 * 8);
            let l = mem.alloc_local(4 * 8);
            vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
        });
        assert_eq!(wm.global_bytes(0), bm.global_bytes(0), "bit-identical bytecode buffers");
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "bit-identical lanes buffers");
        assert_eq!(ws, bs, "identical bytecode ExecStats");
        assert_eq!(ws, ls, "identical lanes ExecStats (blocks, ops, mem, barriers, phases)");
        assert!(ws.barriers > 0 && ws.ops.transc64 > 0, "kernel actually exercised features");
    }

    #[test]
    fn trap_messages_match_walker() {
        // out[0] = 1 / 0 (integer) — both engines must trap identically.
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("div0", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let q = b.bin(BinOp::Div, ScalarType::I64, one, zero);
        let qf = b.cast(q, ScalarType::I64, ScalarType::F64);
        let z2 = b.const_i64(0);
        let slot = b.gep(out, z2, ScalarType::F64);
        b.store(slot, qf, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);

        let mut wm = VecMemory::new();
        let wbuf = wm.alloc_global(8);
        let mut w = WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(wbuf)], 0)
            .expect("args");
        let werr = w.run(&mut wm, &ExactMath).expect_err("walker traps");

        let mut bm = VecMemory::new();
        let bbuf = bm.alloc_global(8);
        let mut bc = BytecodeRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(bbuf)], 0)
            .expect("args");
        let berr = bc.run(&mut bm, &ExactMath).expect_err("bytecode traps");
        assert_eq!(werr.to_string(), berr.to_string());
        assert!(berr.to_string().contains("integer division by zero"));

        let mut lm = VecMemory::new();
        let lbuf = lm.alloc_global(8);
        let mut ln = LanesRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(lbuf)], 0)
            .expect("args");
        let lerr = ln.run(&mut lm, &ExactMath).expect_err("lanes traps");
        assert_eq!(werr.to_string(), lerr.to_string());
    }

    #[test]
    fn divergence_positions_match_walker() {
        let mut b = FunctionBuilder::new("div", true);
        let _out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let lid = b.local_id(0);
        let zero = b.const_i64(0);
        let cond = b.cmp(CmpOp::Eq, ScalarType::I64, lid, zero);
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.branch(cond, t, e);
        b.switch_to(t);
        b.barrier();
        b.jump(join);
        b.switch_to(e);
        b.barrier();
        b.jump(join);
        b.switch_to(join);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(2, 2, 0);

        let run_engine = |which: u8| -> ExecError {
            let mut mem = VecMemory::new();
            let buf = mem.alloc_global(8);
            let args = [KernelArgValue::GlobalBuffer(buf)];
            match which {
                0 => {
                    let mut r = WorkGroupRun::new(&func, shape, &args, 0).expect("args");
                    r.run(&mut mem, &ExactMath).expect_err("diverges")
                }
                1 => {
                    let mut r = BytecodeRun::new(&compiled, shape, &args, 0).expect("args");
                    r.run(&mut mem, &ExactMath).expect_err("diverges")
                }
                _ => {
                    let mut r = LanesRun::new(&compiled, shape, &args, 0).expect("args");
                    r.run(&mut mem, &ExactMath).expect_err("diverges")
                }
            }
        };
        let (we, be, le) = (run_engine(0), run_engine(1), run_engine(2));
        assert_eq!(we.to_string(), be.to_string(), "same (block, inst) positions reported");
        assert_eq!(we.to_string(), le.to_string(), "lanes reports the same positions");
        assert!(matches!(be, ExecError::BarrierDivergence { .. }));
    }

    #[test]
    fn step_limit_applies_identically() {
        let mut b = FunctionBuilder::new("spin", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let header = b.create_block();
        b.jump(header);
        b.switch_to(header);
        b.jump(header);
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut r = BytecodeRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(buf)], 500)
            .expect("args");
        assert!(matches!(r.run(&mut mem, &ExactMath), Err(ExecError::StepLimitExceeded)));
        let mut r = LanesRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(buf)], 500)
            .expect("args");
        assert!(matches!(r.run(&mut mem, &ExactMath), Err(ExecError::StepLimitExceeded)));
    }

    #[test]
    fn bad_args_rejected_with_walker_messages() {
        let mut b = FunctionBuilder::new("k", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);
        let walker_err = match WorkGroupRun::new(&func, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("walker accepted bad args"),
        };
        let bc_err = match BytecodeRun::new(&compiled, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("bytecode accepted bad args"),
        };
        assert_eq!(walker_err.to_string(), bc_err.to_string());
        let lanes_err = match LanesRun::new(&compiled, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("lanes accepted bad args"),
        };
        assert_eq!(walker_err.to_string(), lanes_err.to_string());
        assert!(matches!(
            BytecodeRun::new(&compiled, shape, &[KernelArgValue::Scalar(Value::F64(1.0))], 0),
            Err(ExecError::BadArgs(_))
        ));
    }

    #[test]
    fn constants_are_interned_by_bits() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let a = b.const_f64(2.0);
        let c = b.const_f64(2.0); // same bits: shares a pool slot
        let d = b.const_f64(3.0);
        let s = b.fadd(a, c, ScalarType::F64);
        let s2 = b.fadd(s, d, ScalarType::F64);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, s2, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        // Pool: 2.0, 3.0, 0i64 — the duplicate 2.0 is interned away.
        assert_eq!(compiled.const_count(), 3);
        assert_eq!(compiled.num_blocks(), 1);
    }

    #[test]
    fn disassembly_lists_pool_blocks_and_jumps() {
        let func = busy_kernel();
        let compiled = CompiledKernel::compile(&func);
        let dump = compiled.to_string();
        assert!(dump.contains("bytecode @busy("));
        assert!(dump.contains("c0 ="), "constant pool listed");
        assert!(dump.contains("b0:"), "block labels present");
        assert!(dump.contains("jump @"), "resolved jump offsets shown");
        assert!(dump.contains("br r"), "branches shown");
        assert!(dump.contains("barrier"));
        assert!(dump.contains("exp.double("), "builtin call shown");
        assert!(dump.contains("ret"));
    }

    /// `out[0] = x*y + z` with the product dead after the add: the
    /// peephole must fuse it, and all engines must agree bit-for-bit on
    /// result and stats (the fused op charges the unfused costs).
    fn muladd_kernel(c_first: bool) -> Function {
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("fma", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.const_f64(3.0);
        let y = b.const_f64(5.0);
        let z = b.const_f64(7.0);
        let t = b.bin(BinOp::Mul, ScalarType::F64, x, y);
        let s = if c_first { b.fadd(z, t, ScalarType::F64) } else { b.fadd(t, z, ScalarType::F64) };
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, s, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn peephole_fuses_dead_product_multiply_add() {
        for c_first in [false, true] {
            let func = muladd_kernel(c_first);
            let compiled = CompiledKernel::compile(&func);
            assert!(
                compiled.to_string().contains("muladd.double"),
                "mul+add pair fused (c_first={c_first})"
            );
            let ((wm, ws), (bm, bs), (lm, ls)) =
                run_all(&func, 1, 1, |mem| vec![KernelArgValue::GlobalBuffer(mem.alloc_global(8))]);
            assert_eq!(wm.read_f64(0, 0), 22.0);
            assert_eq!(wm.global_bytes(0), bm.global_bytes(0));
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
            assert_eq!(ws, bs, "fused op charges exactly the unfused mul+add");
            assert_eq!(ws, ls);
        }
    }

    #[test]
    fn peephole_leaves_live_products_unfused() {
        use crate::ir::BinOp;
        // t = x*y is read by the add AND the store: no fusion allowed.
        let mut b = FunctionBuilder::new("live", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.const_f64(3.0);
        let y = b.const_f64(5.0);
        let t = b.bin(BinOp::Mul, ScalarType::F64, x, y);
        let s = b.fadd(t, t, ScalarType::F64);
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, s, ScalarType::F64);
        let one = b.const_i64(1);
        let slot2 = b.gep(out, one, ScalarType::F64);
        b.store(slot2, t, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        assert!(!compiled.to_string().contains("muladd"), "live product not fused");
    }

    #[test]
    fn peephole_elides_self_moves_and_threads_jumps() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.fresh(Type::Scalar(ScalarType::F64));
        let one = b.const_f64(1.0);
        b.mov_into(x, one);
        b.mov_into(x, x); // self-move: elided but still charged
        let hop = b.create_block(); // jump-only: threaded through
        let tail = b.create_block();
        b.jump(hop);
        b.switch_to(hop);
        b.jump(tail);
        b.switch_to(tail);
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, x, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let dump = compiled.to_string();
        assert!(dump.contains("mov (self, elided)"), "self-move becomes a charge op");
        assert!(dump.contains("(b1 -> b2)"), "jump threaded through the hop block");
        let ((wm, ws), (bm, bs), (lm, ls)) =
            run_all(&func, 2, 2, |mem| vec![KernelArgValue::GlobalBuffer(mem.alloc_global(16))]);
        assert_eq!(wm.global_bytes(0), bm.global_bytes(0));
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
        assert_eq!(ws, bs, "elided/threaded ops charge walker-identical stats");
        assert_eq!(ws, ls);
        assert!(ws.ops.mov >= 4, "both movs charged on both items");
        assert_eq!(ws.block_execs[1], 2, "threaded-through block still charged");
    }

    #[test]
    fn lanes_match_on_divergent_data_dependent_branches() {
        // Per-lane trip counts force group splits and early retirement;
        // run under several group sizes to cross group boundaries.
        let func = busy_kernel();
        for local in [1, 2, 8] {
            let ((wm, ws), _, (lm, ls)) = run_all(&func, 8, local, |mem| {
                let buf = mem.alloc_global(8 * 8);
                let l = mem.alloc_local(local * 8);
                vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
            });
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "local={local}");
            assert_eq!(ws, ls, "local={local}");
        }
    }

    /// The engine a [`run_ndrange`] call dispatches each group on.
    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Walk,
        Bytecode,
        Lanes,
    }

    /// Run one group to completion (a stall is the deadlock trap).
    fn run_group(
        func: &Function,
        compiled: &CompiledKernel,
        engine: Engine,
        shape: GroupShape,
        args: &[KernelArgValue],
        mem: &mut dyn Memory,
        pipes: &mut PipeHub,
    ) -> Result<ExecStats, ExecError> {
        let (outcome, stats) = match engine {
            Engine::Walk => {
                let mut r = WorkGroupRun::new(func, shape, args, 0)?;
                (r.run_resumable(mem, &ExactMath, pipes)?, r.into_stats())
            }
            Engine::Bytecode => {
                let mut r = BytecodeRun::new(compiled, shape, args, 0)?;
                (r.run_resumable(mem, &ExactMath, pipes)?, r.into_stats())
            }
            Engine::Lanes => {
                let mut r = LanesRun::new(compiled, shape, args, 0)?;
                (r.run_resumable(mem, &ExactMath, pipes)?, r.into_stats())
            }
        };
        match outcome {
            RunOutcome::Complete => Ok(stats),
            RunOutcome::Stalled => Err(pipe_deadlock_trap()),
        }
    }

    /// Run an NDRange the way the runtime fans a launch out: contiguous
    /// group ranges over `workers` threads sharing one global arena, a
    /// local arena per worker, statistics merged in group order and the
    /// lowest failing range's error reported. A single worker (or a
    /// single group, such as a pipe task) runs on this thread against
    /// `pipes`.
    #[allow(clippy::too_many_arguments)]
    fn run_ndrange(
        func: &Function,
        compiled: &CompiledKernel,
        engine: Engine,
        workers: usize,
        (global, local): (usize, usize),
        arena: &mut GlobalArena,
        bind: &(dyn Fn(&mut WorkerMemory<'_, '_>) -> Vec<KernelArgValue> + Sync),
        pipes: &mut PipeHub,
    ) -> Result<ExecStats, ExecError> {
        let groups = global / local;
        let shared = arena.shared();
        let run_range = |range: std::ops::Range<usize>, pipes: &mut PipeHub| {
            let mut mem = WorkerMemory::new(&shared);
            let mut total = ExecStats::with_blocks(func.blocks.len());
            for group in range {
                mem.clear_locals();
                let args = bind(&mut mem);
                let shape = GroupShape::linear(global, local, group);
                total.merge(&run_group(func, compiled, engine, shape, &args, &mut mem, pipes)?);
            }
            Ok(total)
        };
        if workers.min(groups) <= 1 {
            return run_range(0..groups, pipes);
        }
        let chunk = groups.div_ceil(workers);
        let results: Vec<Result<ExecStats, ExecError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..groups)
                .step_by(chunk)
                .map(|lo| {
                    let run_range = &run_range;
                    scope.spawn(move || {
                        run_range(lo..(lo + chunk).min(groups), &mut PipeHub::default())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let mut total = ExecStats::with_blocks(func.blocks.len());
        for r in results {
            total.merge(&r?);
        }
        Ok(total)
    }

    /// A kernel that keeps a global, a local, a constant and a private
    /// pointer live across a divergent branch (`p = cond ? a : b` for
    /// each, so the SSA pipeline makes four pointer phis and out-of-ssa
    /// lowers them to pointer `Mov`s), builds the else-arm pointers from
    /// chained `Gep`s, and reads `*(pl + bad_local)` and
    /// `*(pp + bad_private)` through the moved local and private pointers
    /// — out of bounds unless both offsets are 0. With `pipe`, the
    /// result also round-trips through a pipe parameter (which makes the
    /// kernel a single-work-item task).
    fn pointer_kernel(pipe: bool) -> Function {
        use crate::ir::BinOp;
        use AddressSpace::{Constant, Global, Local, Private};
        use ScalarType::{F64, I64};
        let ptr = |space| Type::ptr(space, F64);
        let mut b = FunctionBuilder::new("ptrs", true);
        let out = b.param("out", ptr(Global));
        let scratch = b.param("scratch", ptr(Local));
        let table = b.param("table", ptr(Constant));
        let pipe = pipe.then(|| b.param("p", ptr(AddressSpace::Pipe)));
        let flip = b.param("flip", Type::Scalar(I64));
        let bad_local = b.param("bad_local", Type::Scalar(I64));
        let bad_private = b.param("bad_private", Type::Scalar(I64));
        let arr = b.alloc_private(2 * 8, F64);
        let lid = b.local_id(0);
        let gid = b.global_id(0);
        let lid_f = b.cast(lid, I64, F64);
        let one = b.const_i64(1);
        // scratch[lid] = lid; arr = {lid, 2 lid}; barrier
        let slot = b.gep(scratch, lid, F64);
        b.store(slot, lid_f, F64);
        b.store(arr, lid_f, F64);
        let arr1 = b.gep(arr, one, F64);
        let twice = b.fadd(lid_f, lid_f, F64);
        b.store(arr1, twice, F64);
        b.barrier();
        // Divergent on odd/even lanes; `flip` swaps the arms.
        let two = b.const_i64(2);
        let zero = b.const_i64(0);
        let sum = b.bin(BinOp::Add, I64, lid, flip);
        let parity = b.bin(BinOp::Rem, I64, sum, two);
        let cond = b.cmp(CmpOp::Eq, I64, parity, zero);
        let (pg, pl) = (b.fresh(ptr(Global)), b.fresh(ptr(Local)));
        let (pc, pp) = (b.fresh(ptr(Constant)), b.fresh(ptr(Private)));
        let (then_bb, else_bb, join) = (b.create_block(), b.create_block(), b.create_block());
        b.branch(cond, then_bb, else_bb);
        b.switch_to(then_bb);
        let g = b.gep(out, gid, F64);
        b.mov_into(pg, g);
        let l = b.gep(scratch, lid, F64);
        b.mov_into(pl, l);
        let c = b.gep(table, lid, F64);
        b.mov_into(pc, c);
        b.mov_into(pp, arr);
        b.jump(join);
        b.switch_to(else_bb);
        // out + (gid + 1) - 1, scratch + 1 + (lid - 1), table + 1 + lid;
        // the -1 is an `int` index, which must sign-extend.
        let gid1 = b.bin(BinOp::Add, I64, gid, one);
        let one32 = b.const_i32(1);
        let minus1 = b.un(UnOp::Neg, ScalarType::I32, one32);
        let g1 = b.gep(out, gid1, F64);
        let g2 = b.gep(g1, minus1, F64);
        b.mov_into(pg, g2);
        let lid0 = b.bin(BinOp::Sub, I64, lid, one);
        let l1 = b.gep(scratch, one, F64);
        let l2 = b.gep(l1, lid0, F64);
        b.mov_into(pl, l2);
        let c1 = b.gep(table, one, F64);
        let c2 = b.gep(c1, lid, F64);
        b.mov_into(pc, c2);
        b.mov_into(pp, arr1);
        b.jump(join);
        b.switch_to(join);
        let vl = b.load(pl, F64);
        let vc = b.load(pc, F64);
        let vp = b.load(pp, F64);
        let probe_l = b.gep(pl, bad_local, F64);
        let vbl = b.load(probe_l, F64);
        let probe_p = b.gep(pp, bad_private, F64);
        let vbp = b.load(probe_p, F64);
        let s1 = b.fadd(vl, vc, F64);
        let s2 = b.fadd(s1, vp, F64);
        let s3 = b.fadd(s2, vbl, F64);
        let mut v = b.fadd(s3, vbp, F64);
        if let Some(p) = pipe {
            b.pipe_write(p, v, F64);
            v = b.pipe_read(p, F64);
        }
        b.store(pg, v, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn compact_pointer_plane_matches_walker_through_moves_geps_and_traps() {
        use crate::ir::Module;
        use crate::passes::Pipeline;
        for pipe in [false, true] {
            let module = Module::from_functions("ptrs", vec![pointer_kernel(pipe)]);
            let (module, _) = Pipeline::for_build(false, false).run(module);
            let func = module.kernel("ptrs").expect("kernel").clone();
            crate::verify::verify_function(&func).expect("pipeline output verifies");
            let compiled = CompiledKernel::compile(&func);

            // The shapes under test survived the pipeline.
            let ptr_space = |r: u32| match compiled.reg_types[r as usize] {
                Type::Ptr(space, _) => Some(space),
                Type::Scalar(_) => None,
            };
            let mut moved = Vec::new();
            let mut geps = Vec::new();
            for op in &compiled.code {
                match *op {
                    Op::Mov { dst, .. } => moved.extend(ptr_space(dst)),
                    Op::Gep { dst, base, .. } => geps.push((dst, base)),
                    _ => {}
                }
            }
            use AddressSpace::{Constant, Global, Local, Private};
            for space in [Global, Local, Constant, Private] {
                assert!(moved.contains(&space), "a {space:?} pointer moves: {compiled}");
            }
            assert!(
                geps.iter().any(|&(_, base)| geps.iter().any(|&(d, _)| d == base)),
                "gep chain"
            );
            let ptr_regs = compiled.ptr_rows.iter().filter(|&&r| r != NO_PTR_ROW).count();
            assert!(ptr_regs < compiled.reg_types.len(), "pointer plane is compact");

            let (global, local) = if pipe { (1, 1) } else { (24, 8) };
            let bads = [(0, 0), (1 << 20, 0), (0, 1 << 20)];
            for flip in [0, 1] {
                for (bad_local, bad_private) in bads {
                    let mut outcomes = Vec::new();
                    for engine in [Engine::Walk, Engine::Bytecode, Engine::Lanes] {
                        for workers in [1, 4] {
                            let mut arena = GlobalArena::new();
                            let out = arena.alloc(global * 8);
                            let table = arena.alloc((local + 1) * 8);
                            for (i, x) in arena.bytes_mut(table).chunks_mut(8).enumerate() {
                                x.copy_from_slice(&(0.5 + i as f64).to_le_bytes());
                            }
                            let mut hub = PipeHub::default();
                            let pipe_id = hub.create(ScalarType::F64, 4);
                            let bind = |mem: &mut WorkerMemory<'_, '_>| {
                                let mut args = vec![
                                    KernelArgValue::GlobalBuffer(out),
                                    KernelArgValue::LocalBuffer(mem.alloc_local(local * 8)),
                                    KernelArgValue::GlobalBuffer(table),
                                ];
                                if pipe {
                                    args.push(KernelArgValue::Pipe(pipe_id));
                                }
                                args.push(KernelArgValue::Scalar(Value::I64(flip)));
                                args.push(KernelArgValue::Scalar(Value::I64(bad_local)));
                                args.push(KernelArgValue::Scalar(Value::I64(bad_private)));
                                args
                            };
                            let run = run_ndrange(
                                &func,
                                &compiled,
                                engine,
                                workers,
                                (global, local),
                                &mut arena,
                                &bind,
                                &mut hub,
                            );
                            let outcome = run
                                .map(|stats| (stats, arena.bytes(out).to_vec()))
                                .map_err(|e| e.to_string());
                            outcomes.push(((engine, workers), outcome));
                        }
                    }
                    let what = format!("pipe={pipe} flip={flip} bad=({bad_local}, {bad_private})");
                    let reference = &outcomes[0].1;
                    for (run, outcome) in &outcomes[1..] {
                        assert_eq!(outcome, reference, "{run:?} differs from the walker: {what}");
                    }
                    match reference {
                        Ok((stats, _)) => {
                            assert_eq!((bad_local, bad_private), (0, 0), "{what}");
                            assert!(stats.ops.mov > 0, "pointer moves executed: {what}");
                        }
                        Err(e) => {
                            assert_ne!((bad_local, bad_private), (0, 0), "{what}: {e}");
                            let space = if bad_local != 0 { "local" } else { "private" };
                            assert!(
                                e.contains("out of bounds") && e.contains(space),
                                "{what}: {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

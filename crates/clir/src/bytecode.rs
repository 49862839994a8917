//! Register bytecode: the compiled execution engine for kernels.
//!
//! The tree-walking interpreter in [`crate::interp`] re-fetches every
//! instruction through two levels of `Vec` indexing and re-resolves block
//! targets on every loop iteration — per-node overhead the real `aoc`
//! offline compiler would have compiled away. This module flattens a
//! verified [`Function`] once into a [`CompiledKernel`]: a linear stream
//! of register-machine ops with pre-resolved jump offsets, an interned
//! constant pool and specialized opcodes for the hot double-precision
//! arithmetic of the pricing kernels. The lowering fuses multiply-adds,
//! threads jumps and moves loop-invariant integer, address and constant
//! ops out of loops. [`LanesRun`] then executes it the way kernel IV.B
//! runs on the device: one op dispatch per SIMT group of work-items in
//! lockstep between barriers.
//!
//! The engine is observationally identical to the tree-walker, which
//! stays as the independent oracle: same argument-binding errors, same
//! [`ExecStats`], same step-budget accounting (one step per IR position
//! fetched, terminators included), and the same barrier-suspension
//! protocol. Statistics and steps do not depend on the bytecode: they are
//! charged per IR block from profiles built at compile time, and a lane
//! that stops inside a block pays the IR prefix up to where it stopped,
//! found through the original `(block, instruction)` position of every
//! op, which divergence errors report too. The differential suites in
//! this module, `tests/compile_pipeline.rs` (host programs and seeded
//! random branchy kernels) and `tests/pipes.rs` pin this contract down.

use crate::eval::{eval_bin, eval_cast, eval_cmp, eval_un};
use crate::interp::{
    check_pipe_shape, pipe_deadlock_trap, private_oob, ExecError, GroupShape, KernelArgValue,
    Memory, RunOutcome, DEFAULT_STEP_LIMIT,
};
use crate::ir::{BinOp, Builtin, CmpOp, Function, Inst, Param, RegId, Terminator, UnOp, WiQuery};
use crate::mathlib::MathLib;
use crate::pipes::{decode_value, encode_value, PipeHub};
use crate::stats::ExecStats;
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{displaced, PtrValue, Value};
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
    /// Both roundings of the unfused pair are kept: this is a dispatch
    /// fusion, not a mathematical FMA.
    MulAddF64 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        /// Operand order of the original add (`c + prod` vs `prod + c`);
        /// preserved so NaN-payload propagation stays bit-identical.
        c_first: bool,
    },
    /// Peephole-threaded jump through a jump-only block: lands directly
    /// on `block` (pc `target`) but counts the execution of the skipped
    /// `mid_block`, as the tree-walker hopping through it does.
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
/// many times via [`LanesRun`]. The `Display` impl renders a
/// disassembly listing (the `aoc` bench bin's `--dump-bytecode`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    name: String,
    params: Vec<Param>,
    reg_types: Vec<Type>,
    code: Vec<Op>,
    consts: Vec<Value>,
    block_starts: Vec<u32>,
    /// `(block, instruction)` IR position of every pc, for error reports
    /// that must match the tree-walker and for the step and statistics
    /// charges of a lane that stops inside a block. An op moved out of a
    /// loop keeps the position it had in the IR.
    pos_of_pc: Vec<(u32, u32)>,
    private_bytes: usize,
    /// Row of each register in the lanes engine's pointer plane
    /// ([`NO_PTR_ROW`] for scalar registers): only pointer-typed
    /// registers get a row of [`PtrValue`]s.
    ptr_rows: Vec<u32>,
    /// Walker steps of one execution of each IR block: its instructions
    /// plus the terminator.
    block_steps: Vec<u64>,
    /// The op and memory counts one execution of each IR block adds to
    /// [`ExecStats`], as the walker counts them (no block counts).
    profiles: Vec<ExecStats>,
    /// The charge of every IR instruction, block after block.
    charges: Vec<Charge>,
}

/// [`CompiledKernel::ptr_rows`] entry of a scalar register.
const NO_PTR_ROW: u32 = u32::MAX;

/// What one IR instruction adds to [`ExecStats`] when it completes, as the
/// walker counts it. Every pointer register has a static address space
/// (the verifier checks it), so a load's or store's counter is fixed at
/// compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Charge {
    Free,
    Mov,
    Bin(BinOp, ScalarType),
    IntAlu,
    Cmp,
    Select,
    Cast,
    Call(Builtin, ScalarType),
    WiQuery,
    Load(AddressSpace, usize),
    Store(AddressSpace, usize),
}

impl Charge {
    fn of(inst: &Inst, reg_types: &[Type]) -> Charge {
        let space = |r: RegId| match reg_types[r.index()] {
            Type::Ptr(space, _) => space,
            Type::Scalar(_) => unreachable!("verified IR addresses memory through pointers"),
        };
        match inst {
            Inst::Const { .. }
            | Inst::Barrier
            | Inst::PipeRead { .. }
            | Inst::PipeWrite { .. }
            | Inst::Phi { .. } => Charge::Free,
            Inst::Mov { .. } => Charge::Mov,
            Inst::Bin { op, ty, .. } => Charge::Bin(*op, *ty),
            Inst::Un { .. } | Inst::Gep { .. } => Charge::IntAlu,
            Inst::Cmp { .. } => Charge::Cmp,
            Inst::Select { .. } => Charge::Select,
            Inst::Cast { .. } => Charge::Cast,
            Inst::Call { func, ty, .. } => Charge::Call(*func, *ty),
            Inst::WorkItem { .. } => Charge::WiQuery,
            Inst::Load { ptr, ty, .. } => Charge::Load(space(*ptr), ty.size_bytes()),
            Inst::Store { ptr, ty, .. } => Charge::Store(space(*ptr), ty.size_bytes()),
        }
    }

    fn add_to(self, stats: &mut ExecStats) {
        let ops = &mut stats.ops;
        match self {
            Charge::Free => {}
            Charge::Mov => ops.mov += 1,
            Charge::Bin(op, ty) => ops.count_bin(op, ty),
            Charge::IntAlu => ops.int_alu += 1,
            Charge::Cmp => ops.cmp += 1,
            Charge::Select => ops.select += 1,
            Charge::Cast => ops.cast += 1,
            Charge::Call(func, ty) => ops.count_builtin(func, ty),
            Charge::WiQuery => ops.wi_query += 1,
            Charge::Load(space, len) => stats.mem.count_load(space, len),
            Charge::Store(space, len) => stats.mem.count_store(space, len),
        }
    }
}

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
        let mut block_steps = Vec::with_capacity(func.blocks.len());
        let mut profiles = Vec::with_capacity(func.blocks.len());
        let mut charges = Vec::with_capacity(func.inst_count());

        let mut intern_const = |val: Value| -> u32 {
            *intern.entry(ConstKey::of(val)).or_insert_with(|| {
                consts.push(val);
                consts.len() as u32 - 1
            })
        };

        for (bi, block) in func.blocks.iter().enumerate() {
            block_starts.push(code.len() as u32);
            block_steps.push(block.insts.len() as u64 + 1);
            let mut profile = ExecStats::default();
            for (ii, inst) in block.insts.iter().enumerate() {
                let charge = Charge::of(inst, &func.reg_types);
                charge.add_to(&mut profile);
                charges.push(charge);
                pos_of_pc.push((bi as u32, ii as u32));
                let r = |r: RegId| r.0;
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
            profiles.push(profile);
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

        // Rewrite the stream while jump operands are still block ids, then
        // resolve block ids to program counters.
        let mut stream = Stream { code, pos_of_pc, block_starts };
        stream.lower(func);
        let Stream { mut code, pos_of_pc, block_starts } = stream;
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
            block_steps,
            profiles,
            charges,
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

    /// Walker steps from the IR position of `pc` to the end of its block,
    /// terminator included, not counting `pc`'s own: what a lane that
    /// stops at `pc` has not fetched of the block it was charged in full.
    fn tail_steps(&self, pc: usize) -> u64 {
        let (b, i) = self.pos(pc);
        self.block_steps[b] - 1 - i as u64
    }

    /// The charges of the IR instructions before position `i` of block
    /// `b`, added `n` times to `stats`.
    fn charge_prefix(&self, stats: &mut ExecStats, (b, i): (usize, usize), n: u64) {
        let first: u64 = self.block_steps[..b].iter().map(|s| s - 1).sum();
        let mut prefix = ExecStats::default();
        for c in &self.charges[first as usize..first as usize + i] {
            c.add_to(&mut prefix);
        }
        stats.add_scaled(&prefix, n);
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

/// The op stream between flattening and jump resolution, while jump
/// operands are still block ids. Lanes charges steps and statistics per
/// IR block ([`CompiledKernel::block_steps`], [`CompiledKernel::profiles`]),
/// never per op, so no rewrite here needs a compensating charge.
struct Stream {
    code: Vec<Op>,
    pos_of_pc: Vec<(u32, u32)>,
    block_starts: Vec<u32>,
}

/// What the lowering knows of one register: its reads, its definitions
/// (and the pc of the last), and whether a read may come before its one
/// definition.
#[derive(Debug, Clone, Copy, Default)]
struct RegUse {
    uses: u32,
    defs: u32,
    def_pc: u32,
    pinned: bool,
}

impl Stream {
    /// The pcs of block `b`, its terminator last.
    fn block(&self, b: usize) -> std::ops::Range<usize> {
        let end = self.block_starts.get(b + 1).map_or(self.code.len(), |&e| e as usize);
        self.block_starts[b] as usize..end
    }

    /// The register the op at `pc` writes, read off its IR instruction:
    /// until the rebuild in [`Stream::lower`], each op but a terminator
    /// is one IR instruction.
    fn dst(&self, func: &Function, pc: usize) -> Option<usize> {
        let (b, i) = self.pos_of_pc[pc];
        func.blocks[b as usize].insts.get(i as usize)?.dst().map(RegId::index)
    }

    /// Rewrite the stream in one rebuild:
    ///
    /// 1. **Loop-invariant code motion**: the ops [`Stream::hoist_plan`]
    ///    picks move to the end of their loop's preheader, so they run
    ///    once per entry to the loop, not once per iteration.
    /// 2. **Fused multiply-add**: `t = a*b; d = t + c` (with `t` read
    ///    nowhere else) becomes [`Op::MulAddF64`]: one dispatch, both
    ///    roundings.
    /// 3. **Self-moves**: `r = r` is dropped.
    /// 4. **Jump threading**, last, since a moved op can fill a block that
    ///    held nothing but its jump: a jump to a block that holds nothing
    ///    but an unconditional jump becomes [`Op::JumpThread`] straight to
    ///    the final block, which still counts the skipped block's
    ///    execution.
    fn lower(&mut self, func: &Function) {
        let mut regs = vec![RegUse::default(); func.reg_types.len()];
        for (pc, op) in self.code.iter().enumerate() {
            op_sources(op, |r| regs[r as usize].uses += 1);
            if let Some(d) = self.dst(func, pc) {
                regs[d].defs += 1;
                regs[d].def_pc = pc as u32;
            }
        }
        let (home, moved) = self.hoist_plan(func, &mut regs);
        let stays = |pc: usize, b: usize| home.get(pc).is_none_or(|&h| h as usize == b);

        let mut code = Vec::with_capacity(self.code.len());
        let mut pos = Vec::with_capacity(self.code.len());
        let mut starts = Vec::with_capacity(self.block_starts.len());
        for bi in 0..self.block_starts.len() {
            starts.push(code.len() as u32);
            let range = self.block(bi);
            let mut i = range.start;
            while i < range.end - 1 {
                // Fusion looks at neighbours of the IR, and neither op of
                // the pair ever moves.
                if let (&Op::MulF64 { dst: t, a, b }, &Op::AddF64 { dst, a: x, b: y }) =
                    (&self.code[i], &self.code[i + 1])
                {
                    if (x == t) != (y == t) && regs[t as usize].uses == 1 {
                        let (c, c_first) = if x == t { (y, false) } else { (x, true) };
                        code.push(Op::MulAddF64 { dst, a, b, c, c_first });
                        pos.push(self.pos_of_pc[i]);
                        i += 2;
                        continue;
                    }
                }
                if stays(i, bi) && !matches!(self.code[i], Op::Mov { dst, src } if dst == src) {
                    code.push(self.code[i].clone());
                    pos.push(self.pos_of_pc[i]);
                }
                i += 1;
            }
            for pc in moved.iter().copied().filter(|&pc| home[pc] as usize == bi) {
                code.push(self.code[pc].clone());
                pos.push(self.pos_of_pc[pc]);
            }
            code.push(self.code[range.end - 1].clone());
            pos.push(self.pos_of_pc[range.end - 1]);
        }
        self.code = code;
        self.pos_of_pc = pos;
        self.block_starts = starts;

        let lone_jump: Vec<Option<u32>> = (0..self.block_starts.len())
            .map(|bi| {
                let range = self.block(bi);
                match (range.len() == 1).then(|| &self.code[range.start]) {
                    Some(&Op::Jump { block, .. }) if block as usize != bi => Some(block),
                    _ => None,
                }
            })
            .collect();
        for op in &mut self.code {
            if let Op::Jump { block, .. } = *op {
                if let Some(dest) = lone_jump[block as usize] {
                    *op = Op::JumpThread { target: 0, mid_block: block, block: dest };
                }
            }
        }
    }

    /// The loop invariants to move: the block each op ends up in (empty
    /// when nothing moves) and the moved ops in moving order.
    ///
    /// Loops come from dominators: `b -> h` is a back edge when `h`
    /// dominates `b`, and the loop is `h` plus every block that reaches
    /// `b` without passing `h`. The preheader is `h`'s one predecessor
    /// outside the loop, and it must end in `jump h`. An op moves at most
    /// once, so in nested loops it ends up in the preheader of whichever
    /// loop took it first; either is correct. An op moves when
    /// - it is a constant, a wrapping integer add, sub or mul, a gep or a
    ///   work-item query: no trap, no memory access, no float rounding;
    /// - its destination has one definition, which dominates every use,
    ///   so that no use could read the register before the definition;
    /// - each operand has no definition in the loop, or one that moved.
    ///
    /// Loads, stores, barriers, divisions and float ops stay in place and
    /// in order. A moved op keeps its IR position in `pos_of_pc`; it
    /// never stops a lane.
    ///
    /// Kernels are a few dozen blocks at most, so the analysis works on
    /// one bit per block; a kernel of more than 64 blocks moves nothing.
    fn hoist_plan(&self, func: &Function, regs: &mut [RegUse]) -> (Vec<u32>, Vec<usize>) {
        let n = func.blocks.len();
        // A cycle needs an edge back to the same or an earlier block.
        let back = |b: usize, t: crate::ir::BlockId| t.index() <= b;
        let any_cycle = func.blocks.iter().enumerate().any(|(b, block)| match block.term {
            Terminator::Jump(t) => back(b, t),
            Terminator::Branch { then_bb, else_bb, .. } => back(b, then_bb) || back(b, else_bb),
            Terminator::Return => false,
        });
        if !any_cycle || n > 64 {
            return (Vec::new(), Vec::new());
        }
        let bit = |b: usize| 1u64 << b;
        let bits = |mut set: u64| {
            std::iter::from_fn(move || {
                (set != 0).then(|| {
                    let b = set.trailing_zeros() as usize;
                    set &= set - 1;
                    b
                })
            })
        };
        let (mut succs, mut preds) = (vec![0u64; n], vec![0u64; n]);
        for (b, block) in func.blocks.iter().enumerate() {
            let targets = match block.term {
                Terminator::Jump(t) => [Some(t), None],
                Terminator::Branch { then_bb, else_bb, .. } => [Some(then_bb), Some(else_bb)],
                Terminator::Return => [None, None],
            };
            for t in targets.into_iter().flatten() {
                succs[b] |= bit(t.index());
                preds[t.index()] |= bit(b);
            }
        }
        let mut reach = bit(0);
        loop {
            let next = bits(reach).fold(reach, |m, b| m | succs[b]);
            if next == reach {
                break;
            }
            reach = next;
        }
        // Dominator sets, to a fixed point.
        let mut dom: Vec<u64> = (0..n).map(|b| if b == 0 { bit(0) } else { reach }).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in bits(reach & !bit(0)) {
                let d = bits(preds[b] & reach).fold(reach, |m, p| m & dom[p]) | bit(b);
                changed |= d != dom[b];
                dom[b] = d;
            }
        }
        let dominates = |(db, di): (u32, u32), (ub, ui): (u32, u32)| {
            reach & bit(ub as usize) != 0
                && if db == ub { di < ui } else { dom[ub as usize] & bit(db as usize) != 0 }
        };

        // Each loop as its header and its body.
        let mut loops: Vec<(usize, u64)> = Vec::new();
        for b in bits(reach) {
            for h in bits(succs[b] & dom[b]) {
                let mut body = bit(h) | bit(b);
                let mut todo = bit(b) & !bit(h);
                while todo != 0 {
                    let x = todo.trailing_zeros() as usize;
                    todo &= todo - 1;
                    let new = preds[x] & reach & !body;
                    body |= new;
                    todo |= new;
                }
                match loops.iter_mut().find(|(x, _)| *x == h) {
                    Some((_, all)) => *all |= body,
                    None => loops.push((h, body)),
                }
            }
        }
        loops.retain(|&(h, body)| {
            let outside = preds[h] & !body;
            outside.count_ones() == 1
                && matches!(
                    func.blocks[outside.trailing_zeros() as usize].term,
                    Terminator::Jump(t) if t.index() == h
                )
        });
        if loops.is_empty() {
            return (Vec::new(), Vec::new());
        }

        // A register whose one definition does not dominate all its uses
        // may be read before it is written: it stays in place.
        for (pc, op) in self.code.iter().enumerate() {
            op_sources(op, |r| {
                let r = &mut regs[r as usize];
                if r.defs == 1 && !dominates(self.pos_of_pc[r.def_pc as usize], self.pos_of_pc[pc])
                {
                    r.pinned = true;
                }
            });
        }

        let mut home: Vec<u32> = self.pos_of_pc.iter().map(|&(b, _)| b).collect();
        let mut moved = Vec::new();
        for &(h, body) in &loops {
            let pre = (preds[h] & !body).trailing_zeros();
            // The loop's blocks by the number of their dominators, so that
            // an operand's move is decided before its readers'.
            let depth = |b: usize| dom[b].count_ones();
            let deepest = bits(body).map(depth).max().unwrap_or(0);
            for b in (1..=deepest).flat_map(|d| bits(body).filter(move |&b| depth(b) == d)) {
                let range = self.block(b);
                for pc in range.start..range.end - 1 {
                    let op = &self.code[pc];
                    let pure = match op {
                        Op::Const { .. }
                        | Op::AddI64 { .. }
                        | Op::Gep { .. }
                        | Op::WorkItem { .. } => true,
                        Op::Bin { op, ty, .. } => {
                            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                                && matches!(ty, ScalarType::I32 | ScalarType::I64)
                        }
                        _ => false,
                    };
                    if home[pc] as usize != b || !pure {
                        continue;
                    }
                    let d = regs[self.dst(func, pc).expect("a pure op writes a register")];
                    let mut invariant = d.defs == 1 && !d.pinned;
                    op_sources(op, |r| {
                        let r = regs[r as usize];
                        invariant &= r.defs == 0
                            || (r.defs == 1 && body & bit(home[r.def_pc as usize] as usize) == 0);
                    });
                    if invariant {
                        home[pc] = pre;
                        moved.push(pc);
                    }
                }
            }
        }
        (home, moved)
    }
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

/// A SIMT group: lanes in lockstep at one pc. Lanes of a group share an
/// identical per-phase history, hence one `fetched` counter.
///
/// Lane lists are always ascending (divergence partitions and trap
/// masking both preserve order, and a barrier release merges sorted), so
/// a contiguous run — the common case, detected in O(1) — lets the
/// per-op inner loops walk a dense index range instead of gathering
/// through the list.
struct LaneGroup {
    pc: usize,
    lanes: Vec<usize>,
    fetched: u64,
}

/// The space and buffer of a lane's pointer: a [`PtrValue`] without its
/// offset, which lives in a plane of its own so that a `Gep` touches
/// only the offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PtrTag {
    space: AddressSpace,
    buffer: u32,
}

impl PtrTag {
    fn of(p: PtrValue) -> PtrTag {
        PtrTag { space: p.space, buffer: p.buffer }
    }

    /// The pointer this tag names at byte `offset`.
    fn at(self, offset: i64) -> PtrValue {
        PtrValue { space: self.space, buffer: self.buffer, offset }
    }
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

/// How many leading `lanes` point into `t0`'s buffer at an offset `o`
/// with `0 <= o` and `o + len <= rlen`: the lanes a `Load`/`Store` may
/// move with no further test. Every counted lane `l` was used to index
/// `tags`, so `l < tags.len()`.
#[inline(always)]
fn lanes_in_region(
    tags: &[PtrTag],
    offs: &[i64],
    lanes: &[usize],
    t0: PtrTag,
    len: usize,
    rlen: usize,
) -> usize {
    // A negative offset reads as a `u64` above any buffer length.
    let Some(last) = rlen.checked_sub(len) else { return 0 };
    lanes.iter().position(|&l| tags[l] != t0 || offs[l] as u64 > last as u64).unwrap_or(lanes.len())
}

/// Read `len` (at most 8) little-endian bytes at `at` as a cell.
///
/// # Safety
/// `at..at + len` must be readable.
#[inline(always)]
unsafe fn read_cell(at: *const u8, len: usize) -> u64 {
    if len == 8 {
        u64::from_le(at.cast::<u64>().read_unaligned())
    } else {
        let mut raw = [0u8; 8];
        std::ptr::copy_nonoverlapping(at, raw.as_mut_ptr(), len);
        u64::from_le_bytes(raw)
    }
}

/// Write the low `len` (at most 8) bytes of `bits`, little-endian, at
/// `at`.
///
/// # Safety
/// `at..at + len` must be writable.
#[inline(always)]
unsafe fn write_cell(at: *mut u8, len: usize, bits: u64) {
    if len == 8 {
        at.cast::<u64>().write_unaligned(bits.to_le());
    } else {
        let raw = bits.to_le_bytes();
        std::ptr::copy_nonoverlapping(raw.as_ptr(), at, len);
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
/// Where the tree-walker ([`crate::interp::WorkGroupRun`]) runs one
/// work-item at a time, `LanesRun` keeps a structure-of-arrays register
/// file (`W` lanes per register, bit-packed `u64` cells for scalars, and
/// compact tag and offset planes with rows for the pointer-typed
/// registers only) and dispatches each op *once per SIMT group*, running
/// its inner loop across all live lanes. Control divergence splits a
/// group; lanes that trap or reach a barrier are masked out and their
/// outcome recorded.
///
/// Observational parity with the walker, which it mirrors, is
/// maintained by construction:
///
/// - no op charges [`ExecStats`]. Whenever a run hands back control, the
///   op and memory counters are set from the block counts: each IR
///   block's profile, built with the [`CompiledKernel`], times the times it
///   was entered. A lane that stopped inside a block (a trap or a pipe
///   stall, or a barrier at which the launch fails) pays only the IR
///   prefix before the instruction it stopped at, found through
///   `pos_of_pc`. So the counters are the walker's for the IR, whatever
///   the bytecode moved or fused;
/// - steps are charged the same way: a group that enters a block is
///   charged the block's walker steps (instructions plus terminator) at
///   once, and a lane that stops inside it gets back the steps past its
///   stopping instruction. The count of every lane at every stop is thus
///   the walker's, and the shared budget is settled at each phase end by
///   replaying those counts in work-item order, so `StepLimitExceeded`
///   vs. a real trap resolves exactly as in the walker's
///   one-item-at-a-time execution. The budget is checked once per block
///   entry: a group past the fetch cap stops at the jump, and a block
///   that crosses the cap runs to its end, since a lane past the budget
///   fails settlement wherever it stops;
/// - argument binding, trap payloads, barrier divergence positions and
///   the barrier-release protocol mirror the walker's.
///
/// # Release protocol
///
/// The unit of the phase protocol is the SIMT group, not the lane. A
/// phase starts as one group: the lanes of `running` at `start_pc`. A
/// group that reaches a barrier is handed back whole in `arrived`, and
/// one that retires (or exhausts the fetch cap) is kept in `ended`, each
/// with its lane list and its one `fetched` count. When every arrived
/// group sits at one pc, the release merges their ascending lane lists
/// into the next `running` and starts the next phase at pc + 1. Groups
/// at different barriers are the walker's
/// [`ExecError::BarrierDivergence`]: `a` is the position of the lowest
/// live lane, `b` that of the lowest lane standing elsewhere.
///
/// Per-lane state is only the register file (`cells`, pointer `tags`
/// and pointer `offsets`) and the `private` arenas; a lane's local id
/// is computed from the group shape when queried. There is no
/// per-lane status, pc or fetch array: when a phase needs the serial
/// settlement (a trap, a group at the fetch cap, or fetches that overrun
/// the budget), it gathers each lane's fetch count from the trapped
/// lanes, the stalled lane and the recorded groups, and replays them in
/// work-item order.
///
/// A pointer register is split across two planes: a tag (space and
/// buffer) and a byte offset per lane. A `Gep` copies the tag row and
/// computes the offset row in one dense loop, and a `Load` or `Store`
/// checks its lanes' tags and bounds in one pass, then copies the lanes
/// up to the first miss with no per-lane test. A `PtrValue` is built
/// only on the per-lane slow paths and for error payloads.
///
/// Pipe kernels are single-work-item tasks (checked in [`LanesRun::new`]),
/// so a pipe stall suspends the whole group: its lane becomes `running`
/// and its pc `start_pc`, and a resume re-enters the phase there.
///
/// The one caveat is failed launches: lanes past a trapping work-item
/// may already have executed (and written memory) in lockstep, where the
/// walker would have stopped. Error values and successful runs are
/// bit-identical for race-free kernels; partially-written buffers of a
/// *failed* launch are not part of the contract on either engine.
pub struct LanesRun<'k> {
    kernel: &'k CompiledKernel,
    /// The group; its work-item count is the lane count `w`.
    shape: GroupShape,
    /// Scalar register cells, SoA: register `r` of lane `l` is at `r*w + l`.
    cells: Vec<u64>,
    /// Pointer registers, split into two planes with one SoA layout:
    /// pointer register `r` of lane `l` has its tag (space and buffer)
    /// at `tags[kernel.ptr_row(r)*w + l]` and its byte offset at the
    /// same index of `offsets`.
    tags: Vec<PtrTag>,
    offsets: Vec<i64>,
    /// Per-lane private arenas, stride `private_bytes`.
    private: Vec<u8>,
    /// The lanes the next phase runs, ascending (empty once every lane
    /// has retired), the pc they all start it at, and the steps from
    /// there to the end of its block, which they are charged on entry.
    running: Vec<usize>,
    start_pc: usize,
    start_steps: u64,
    stats: ExecStats,
    /// Fetches left in the group's step budget.
    steps_left: u64,
    /// Groups of the last phase that reached a barrier, and groups that
    /// retired or ran into the fetch cap (`fetched == u64::MAX`); once
    /// the phase is settled, `ended` also holds each lane that stopped at
    /// a trap or a pipe stall as a group of its own, so that
    /// [`Self::charge_blocks`] sees where every lane stopped.
    arrived: Vec<LaneGroup>,
    ended: Vec<LaneGroup>,
    /// Reusable group worklist and lane-vector pool: the steady state
    /// of a phase allocates nothing.
    group_stack: Vec<LaneGroup>,
    lane_pool: Vec<Vec<usize>>,
}

impl<'k> LanesRun<'k> {
    /// Prepare a lane-vectorized run. Same contract (and error messages)
    /// as [`crate::interp::WorkGroupRun::new`]; `step_limit` of 0 selects
    /// [`DEFAULT_STEP_LIMIT`].
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
        let mut tags = Vec::with_capacity(ptr_regs * w);
        for ty in &kernel.reg_types {
            if let Type::Ptr(space, _) = ty {
                tags.extend(std::iter::repeat_n(PtrTag { space: *space, buffer: u32::MAX }, w));
            }
        }
        let mut offsets = vec![0i64; ptr_regs * w];
        // Binding puts pointers only in pointer-typed parameters.
        for (r, v) in bound.iter().enumerate() {
            match *v {
                Value::Ptr(p) => {
                    let row = kernel.ptr_row(r as u32) * w;
                    tags[row..row + w].fill(PtrTag::of(p));
                    offsets[row..row + w].fill(p.offset);
                }
                v => cells[r * w..(r + 1) * w].fill(encode_value(v)),
            }
        }
        let mut stats = ExecStats::with_blocks(kernel.block_starts.len());
        // Every live item enters block 0.
        stats.block_execs[0] += w as u64;
        Ok(LanesRun {
            kernel,
            shape,
            cells,
            tags,
            offsets,
            private: vec![0; kernel.private_bytes * w],
            running: (0..w).collect(),
            start_pc: 0,
            start_steps: kernel.block_steps[0],
            stats,
            steps_left: if step_limit == 0 { DEFAULT_STEP_LIMIT } else { step_limit },
            arrived: Vec::new(),
            ended: Vec::new(),
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
    /// step-limit exhaustion, with the same payloads as the
    /// tree-walker.
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
    /// step-limit exhaustion, with the same payloads as the
    /// tree-walker.
    pub fn run_resumable(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        let outcome = self.run_phases(mem, math, pipes);
        self.charge_blocks();
        outcome
    }

    /// Set the op and memory counters from the block counts: every block
    /// entered is charged its whole profile, except that the lanes that
    /// stopped inside one (at a trap, a pipe stall, or a barrier at which
    /// the launch fails) pay only the prefix before their stopping
    /// instruction.
    fn charge_blocks(&mut self) {
        let kernel = self.kernel;
        let open: Vec<(usize, u64)> = self
            .arrived
            .iter()
            .chain(&self.ended)
            .map(|g| (g.pc, g.lanes.len() as u64))
            .filter(|&(pc, _)| kernel.tail_steps(pc) > 0)
            .collect();
        let stats = &mut self.stats;
        stats.ops = Default::default();
        stats.mem = Default::default();
        for (b, profile) in kernel.profiles.iter().enumerate() {
            let stopped: u64 =
                open.iter().filter(|&&(pc, _)| kernel.pos(pc).0 == b).map(|&(_, n)| n).sum();
            let whole = stats.block_execs[b] - stopped;
            stats.add_scaled(profile, whole);
        }
        for &(pc, n) in &open {
            kernel.charge_prefix(stats, kernel.pos(pc), n);
        }
    }

    /// [`Self::run_resumable`] without the final charge.
    fn run_phases(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        loop {
            if self.running.is_empty() {
                return Ok(RunOutcome::Complete);
            }
            self.stats.item_phases += self.running.len() as u64;
            let lanes = std::mem::take(&mut self.running);
            if let Some(pc) = self.run_phase(self.start_pc, lanes, mem, math, pipes)? {
                // A stalled pipe op cannot be released locally; hand
                // control back to the co-scheduler. A resume fetches the
                // pipe op again.
                self.start_pc = pc;
                self.start_steps = self.kernel.tail_steps(pc) + 1;
                return Ok(RunOutcome::Stalled);
            }
            let Some(lowest) = self.arrived.iter().min_by_key(|g| g.lanes[0]) else {
                return Ok(RunOutcome::Complete);
            };
            // Every live lane now waits at a barrier. Barrier pcs and
            // source positions correspond one to one, so groups at
            // different pcs are groups at different barriers.
            let pc = lowest.pc;
            if let Some(other) =
                self.arrived.iter().filter(|g| g.pc != pc).min_by_key(|g| g.lanes[0])
            {
                let (a, b) = (self.kernel.pos(pc), self.kernel.pos(other.pc));
                return Err(ExecError::BarrierDivergence { a, b });
            }
            self.stats.barriers += 1;
            let mut merged = self.arrived.pop().expect("a lowest group arrived").lanes;
            if !self.arrived.is_empty() {
                for g in self.arrived.drain(..) {
                    merged.extend_from_slice(&g.lanes);
                    self.lane_pool.push(g.lanes);
                }
                merged.sort_unstable();
            }
            self.running = merged;
            self.start_pc = pc + 1;
            self.start_steps = self.kernel.tail_steps(pc);
        }
    }

    /// The region the lanes of a group access through pointers into
    /// `t0`'s buffer, as `(base, len, stride)`: lane `l` reaches byte `o`
    /// at `base + l*stride + o`, valid when `o + size <= len`. A global,
    /// local or constant buffer is one region for every lane (stride 0);
    /// private memory is each lane's own arena. `None` when the memory
    /// exposes no raw view.
    fn lane_region(&mut self, mem: &mut dyn Memory, t0: PtrTag) -> Option<(*mut u8, usize, usize)> {
        match t0.space {
            AddressSpace::Private => {
                let pb = self.kernel.private_bytes;
                Some((self.private.as_mut_ptr(), pb, pb))
            }
            space => mem.raw_region(space, t0.buffer).map(|(base, len)| (base, len, 0)),
        }
    }

    /// Execute one phase (the ascending `lanes`, all at `start_pc`, until
    /// each reaches a barrier, retires, traps or stalls) as a worklist
    /// of lockstep groups, then settle the step budget. Groups at
    /// barriers are handed back in `self.arrived`; a pipe stall returns
    /// its pc, with its lane in `self.running`.
    ///
    /// The steady state allocates nothing and writes no per-lane array:
    /// the group worklist and the lane vectors are pooled on `self`, and
    /// traps, stalls against the fetch cap and budget overruns (rare)
    /// divert settlement to a serial replay in work-item order.
    fn run_phase(
        &mut self,
        start_pc: usize,
        lanes: Vec<usize>,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<Option<usize>, ExecError> {
        let kernel = self.kernel;
        let w = self.shape.items_per_group();
        let pb = kernel.private_bytes;
        let idx = |r: u32, l: usize| r as usize * w + l;
        let pidx = |r: u32, l: usize| kernel.ptr_row(r) * w + l;
        // Fetches a lane may consume before the shared budget would have
        // run dry even with every other lane charging nothing.
        let budget = self.steps_left;
        let cap = budget.saturating_add(1);
        let mut groups = std::mem::take(&mut self.group_stack);
        let mut pool = std::mem::take(&mut self.lane_pool);
        groups.push(LaneGroup { pc: start_pc, lanes, fetched: self.start_steps });
        pool.extend(self.ended.drain(..).map(|g| g.lanes));
        // Σ fetches of lanes that reached a barrier, retired or stalled;
        // a trap or a group at the fetch cap (`capped`) sends settlement
        // to the serial replay instead.
        let mut sum_fetches: u64 = 0;
        let mut capped = false;
        // Trapped lanes with their pcs and fetch counts, and the pc and
        // fetch count of a pipe stall.
        let mut trapped: Vec<(usize, usize, u64, ExecError)> = Vec::new();
        let mut stalled_at = None;

        // A group's `fetched` includes the rest of the block it is in, so
        // a lane that stops inside the block hands back its tail first.
        'groups: while let Some(mut g) = groups.pop() {
            loop {
                let nl = g.lanes.len() as u64;
                match &kernel.code[g.pc] {
                    Op::Const { dst, idx: ci } => {
                        let contig = lanes_contiguous(&g.lanes);
                        let (lo, n) = (g.lanes[0], g.lanes.len());
                        match kernel.consts[*ci as usize] {
                            Value::Ptr(p) => {
                                let d = kernel.ptr_row(*dst) * w;
                                let tag = PtrTag::of(p);
                                if contig {
                                    self.tags[d + lo..d + lo + n].fill(tag);
                                    self.offsets[d + lo..d + lo + n].fill(p.offset);
                                } else {
                                    for &l in &g.lanes {
                                        self.tags[d + l] = tag;
                                        self.offsets[d + l] = p.offset;
                                    }
                                }
                            }
                            v => {
                                let d = *dst as usize * w;
                                let bits = encode_value(v);
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
                            lanes_copy(&mut self.tags, &g.lanes, d, s);
                            lanes_copy(&mut self.offsets, &g.lanes, d, s);
                        }
                    }
                    Op::AddF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x + y);
                    }
                    Op::SubF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x - y);
                    }
                    Op::MulF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x * y);
                    }
                    Op::DivF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, |x, y| x / y);
                    }
                    Op::MinF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, f64::min);
                    }
                    Op::MaxF64 { dst, a, b } => {
                        lanes_f64_bin(&mut self.cells, w, &g.lanes, *dst, *a, *b, f64::max);
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
                    }
                    Op::MulAddF64 { dst, a, b, c, c_first } => {
                        let (ai, bi, ci, di) =
                            (*a as usize * w, *b as usize * w, *c as usize * w, *dst as usize * w);
                        let cf = *c_first;
                        // Two roundings, product then sum, with the
                        // operand order of the unfused source expression
                        // so NaN payloads stay bit-identical to the
                        // tree-walker.
                        #[allow(clippy::if_same_then_else)]
                        let fma = |x: f64, y: f64, cv: f64| {
                            let prod = x * y;
                            if cf {
                                cv + prod
                            } else {
                                prod + cv
                            }
                        };
                        let cells = &mut self.cells;
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            let hi = lo + n;
                            let len = cells.len();
                            assert!(
                                ai + hi <= len
                                    && bi + hi <= len
                                    && ci + hi <= len
                                    && di + hi <= len
                            );
                            for i in lo..hi {
                                // SAFETY: `ai/bi/ci/di + i < cells.len()`
                                // per the assert above.
                                unsafe {
                                    let x = f64::from_bits(*cells.get_unchecked(ai + i));
                                    let y = f64::from_bits(*cells.get_unchecked(bi + i));
                                    let cv = f64::from_bits(*cells.get_unchecked(ci + i));
                                    *cells.get_unchecked_mut(di + i) = fma(x, y, cv).to_bits();
                                }
                            }
                        } else {
                            for &l in &g.lanes {
                                let x = f64::from_bits(cells[ai + l]);
                                let y = f64::from_bits(cells[bi + l]);
                                let cv = f64::from_bits(cells[ci + l]);
                                cells[di + l] = fma(x, y, cv).to_bits();
                            }
                        }
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
                                    let va = decode_value(*ty, self.cells[idx(*a, l)]);
                                    let vb = decode_value(*ty, self.cells[idx(*b, l)]);
                                    let out = eval_bin(*op, *ty, va, vb).expect("trap-free bin op");
                                    self.cells[idx(*dst, l)] = encode_value(out);
                                }
                            } else {
                                let mut survivors = pool.pop().unwrap_or_default();
                                survivors.clear();
                                for &l in &g.lanes {
                                    let va = decode_value(*ty, self.cells[idx(*a, l)]);
                                    let vb = decode_value(*ty, self.cells[idx(*b, l)]);
                                    match eval_bin(*op, *ty, va, vb) {
                                        Ok(out) => {
                                            self.cells[idx(*dst, l)] = encode_value(out);
                                            survivors.push(l);
                                        }
                                        Err(msg) => {
                                            let at = g.fetched - kernel.tail_steps(g.pc);
                                            trapped.push((l, g.pc, at, ExecError::Trap(msg)));
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
                            let out = eval_un(*op, *ty, decode_value(*ty, self.cells[idx(*a, l)]));
                            self.cells[idx(*dst, l)] = encode_value(out);
                        }
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
                                let va = decode_value(*ty, self.cells[idx(*a, l)]);
                                let vb = decode_value(*ty, self.cells[idx(*b, l)]);
                                self.cells[idx(*dst, l)] = eval_cmp(*op, *ty, va, vb) as u64;
                            }
                        }
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
                    }
                    Op::Cast { dst, a, from, to } => {
                        if (*from, *to) == (ScalarType::I64, ScalarType::F64) {
                            for &l in &g.lanes {
                                let x = self.cells[idx(*a, l)] as i64;
                                self.cells[idx(*dst, l)] = (x as f64).to_bits();
                            }
                        } else {
                            for &l in &g.lanes {
                                let v = decode_value(*from, self.cells[idx(*a, l)]);
                                self.cells[idx(*dst, l)] = encode_value(eval_cast(v, *from, *to));
                            }
                        }
                    }
                    Op::Call1 { func, ty, dst, a } => {
                        for &l in &g.lanes {
                            let x = decode_value(*ty, self.cells[idx(*a, l)]).as_f64();
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
                            self.cells[idx(*dst, l)] = out;
                        }
                    }
                    Op::Pow { ty, dst, a, b } => {
                        for &l in &g.lanes {
                            let x = decode_value(*ty, self.cells[idx(*a, l)]).as_f64();
                            let y = decode_value(*ty, self.cells[idx(*b, l)]).as_f64();
                            let out = if *ty == ScalarType::F32 {
                                math.pow32(x as f32, y as f32).to_bits() as u64
                            } else {
                                math.pow64(x, y).to_bits()
                            };
                            self.cells[idx(*dst, l)] = out;
                        }
                    }
                    Op::WorkItem { query, dim, dst } => {
                        let shape = &self.shape;
                        let d = *dim as usize;
                        for &l in &g.lanes {
                            let out = match query {
                                WiQuery::GlobalId => {
                                    shape.group_id[d] * shape.local_size[d] + shape.local_id(l)[d]
                                }
                                WiQuery::LocalId => shape.local_id(l)[d],
                                WiQuery::GroupId => shape.group_id[d],
                                WiQuery::GlobalSize => shape.global_size[d],
                                WiQuery::LocalSize => shape.local_size[d],
                                WiQuery::NumGroups => shape.num_groups()[d],
                            };
                            self.cells[idx(*dst, l)] = out as i64 as u64;
                        }
                    }
                    Op::Gep { dst, base, index, elem } => {
                        let (d, b, x) = (
                            kernel.ptr_row(*dst) * w,
                            kernel.ptr_row(*base) * w,
                            *index as usize * w,
                        );
                        // The tag carries over unchanged; only the offsets
                        // move. An `int` index cell holds its bits
                        // zero-extended; the offset sign-extends them, as
                        // `Value::as_i64`.
                        lanes_copy(&mut self.tags, &g.lanes, d, b);
                        let int32 =
                            kernel.reg_types[*index as usize] == Type::Scalar(ScalarType::I32);
                        let count =
                            |bits: u64| if int32 { bits as i32 as i64 } else { bits as i64 };
                        let size = elem.size_bytes() as i64;
                        let (offs, cells) = (&mut self.offsets, &self.cells);
                        if lanes_contiguous(&g.lanes) {
                            let (lo, n) = (g.lanes[0], g.lanes.len());
                            let hi = lo + n;
                            assert!(
                                d + hi <= offs.len()
                                    && b + hi <= offs.len()
                                    && x + hi <= cells.len()
                            );
                            for i in lo..hi {
                                // SAFETY: `d/b + i < offs.len()` and
                                // `x + i < cells.len()` per the assert above.
                                unsafe {
                                    let c = count(*cells.get_unchecked(x + i));
                                    *offs.get_unchecked_mut(d + i) =
                                        displaced(*offs.get_unchecked(b + i), c, size);
                                }
                            }
                        } else {
                            for &l in &g.lanes {
                                offs[d + l] = displaced(offs[b + l], count(cells[x + l]), size);
                            }
                        }
                    }
                    Op::Load { dst, ptr, ty } => {
                        let len = ty.size_bytes();
                        // Resolve the buffer once for the whole group: in
                        // race-free kernels a group's lanes nearly always
                        // address one buffer (a uniform base plus per-lane
                        // offsets), or each its own private arena. One
                        // check pass finds the lanes up to the first that
                        // misses the resolved region — different buffer,
                        // out of bounds, bool loads (which canonicalize
                        // through `Value`); those load with no further
                        // test and the rest take the per-lane slow path,
                        // which also produces the exact walker error
                        // payloads.
                        let prow = kernel.ptr_row(*ptr) * w;
                        let t0 = self.tags[prow + g.lanes[0]];
                        let fast =
                            if *ty == ScalarType::Bool { None } else { self.lane_region(mem, t0) };
                        let tags = &self.tags[prow..prow + w];
                        let offs = &self.offsets[prow..prow + w];
                        let drow = *dst as usize * w;
                        let out = &mut self.cells[drow..drow + w];
                        let mut k = 0;
                        if let Some((base, rlen, stride)) = fast {
                            k = lanes_in_region(tags, offs, &g.lanes, t0, len, rlen);
                            for &l in &g.lanes[..k] {
                                // SAFETY: `lanes_in_region` checked
                                // `l < w` (the length of `offs` and `out`)
                                // and `offs[l] + len <= rlen`; cross-group
                                // races are excluded by the race-freedom
                                // contract of `raw_region`.
                                unsafe {
                                    let o = *offs.get_unchecked(l) as usize;
                                    *out.get_unchecked_mut(l) =
                                        read_cell(base.add(l * stride + o), len);
                                }
                            }
                        }
                        if k < g.lanes.len() {
                            let mut survivors = pool.pop().unwrap_or_default();
                            survivors.clear();
                            survivors.extend_from_slice(&g.lanes[..k]);
                            for &l in &g.lanes[k..] {
                                let p = tags[l].at(offs[l]);
                                let res = if p.space == AddressSpace::Private {
                                    bc_private_load(&self.private[l * pb..(l + 1) * pb], p, *ty)
                                } else {
                                    mem.load(p, *ty).map_err(ExecError::from)
                                };
                                match res {
                                    Ok(v) => {
                                        out[l] = encode_value(v);
                                        survivors.push(l);
                                    }
                                    Err(err) => {
                                        let at = g.fetched - kernel.tail_steps(g.pc);
                                        trapped.push((l, g.pc, at, err));
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
                        // Same single-resolution fast path as `Load`,
                        // storing in ascending lane order. Stores to
                        // `__constant` memory must keep erroring, so the
                        // constant space never takes them. Cells hold the
                        // exact little-endian bit patterns
                        // `Value::to_le_bytes` would produce (bool
                        // included: cells are canonical 0/1).
                        let prow = kernel.ptr_row(*ptr) * w;
                        let t0 = self.tags[prow + g.lanes[0]];
                        let fast = if t0.space == AddressSpace::Constant {
                            None
                        } else {
                            self.lane_region(mem, t0)
                        };
                        let tags = &self.tags[prow..prow + w];
                        let offs = &self.offsets[prow..prow + w];
                        let vrow = *val as usize * w;
                        let vals = &self.cells[vrow..vrow + w];
                        let mut k = 0;
                        if let Some((base, rlen, stride)) = fast {
                            k = lanes_in_region(tags, offs, &g.lanes, t0, len, rlen);
                            for &l in &g.lanes[..k] {
                                // SAFETY: as for `Load`; `vals` is `w`
                                // long too.
                                unsafe {
                                    let o = *offs.get_unchecked(l) as usize;
                                    write_cell(
                                        base.add(l * stride + o),
                                        len,
                                        *vals.get_unchecked(l),
                                    );
                                }
                            }
                        }
                        if k < g.lanes.len() {
                            let mut survivors = pool.pop().unwrap_or_default();
                            survivors.clear();
                            survivors.extend_from_slice(&g.lanes[..k]);
                            for &l in &g.lanes[k..] {
                                let p = tags[l].at(offs[l]);
                                let v = decode_value(*ty, vals[l]);
                                let res = if p.space == AddressSpace::Private {
                                    bc_private_store(&mut self.private[l * pb..(l + 1) * pb], p, v)
                                } else {
                                    mem.store(p, v).map_err(ExecError::from)
                                };
                                match res {
                                    Ok(()) => survivors.push(l),
                                    Err(err) => {
                                        let at = g.fetched - kernel.tail_steps(g.pc);
                                        trapped.push((l, g.pc, at, err));
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
                        g.fetched -= kernel.tail_steps(g.pc);
                        sum_fetches = sum_fetches.saturating_add(g.fetched.saturating_mul(nl));
                        self.arrived.push(g);
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
                            match pipes.try_read(self.tags[pidx(*pipe, l)].buffer, *ty) {
                                Err(msg) => {
                                    let at = g.fetched - kernel.tail_steps(g.pc);
                                    trapped.push((l, g.pc, at, ExecError::Trap(msg)));
                                }
                                Ok(None) => {
                                    self.stats.pipe_read_stalls += 1;
                                    self.running.push(l);
                                    let at = g.fetched - kernel.tail_steps(g.pc);
                                    stalled_at = Some((g.pc, at));
                                    sum_fetches = sum_fetches.saturating_add(at);
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
                            let buffer = self.tags[pidx(*pipe, l)].buffer;
                            let bits = self.cells[idx(*val, l)];
                            match pipes.try_write(buffer, *ty, bits) {
                                Err(msg) => {
                                    let at = g.fetched - kernel.tail_steps(g.pc);
                                    trapped.push((l, g.pc, at, ExecError::Trap(msg)));
                                }
                                Ok(false) => {
                                    self.stats.pipe_write_stalls += 1;
                                    self.running.push(l);
                                    let at = g.fetched - kernel.tail_steps(g.pc);
                                    stalled_at = Some((g.pc, at));
                                    sum_fetches = sum_fetches.saturating_add(at);
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
                        if g.fetched > cap {
                            break;
                        }
                        self.stats.block_execs[*block as usize] += nl;
                        g.fetched += kernel.block_steps[*block as usize];
                        g.pc = *target as usize;
                        continue;
                    }
                    Op::JumpThread { target, mid_block, block } => {
                        if g.fetched > cap {
                            break;
                        }
                        let (mid, block) = (*mid_block as usize, *block as usize);
                        self.stats.block_execs[mid] += nl;
                        self.stats.block_execs[block] += nl;
                        g.fetched += kernel.block_steps[mid] + kernel.block_steps[block];
                        g.pc = *target as usize;
                        continue;
                    }
                    Op::Branch { cond, then_target, then_block, else_target, else_block } => {
                        if g.fetched > cap {
                            break;
                        }
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
                            g.fetched += kernel.block_steps[block as usize];
                            g.pc = target as usize;
                            continue;
                        }
                        // Every lane before `split` goes `first`'s way,
                        // so that side starts as one range (all of a
                        // loop exit over ascending rows but its last
                        // lane); the rest are sorted one by one.
                        let mut then_l = pool.pop().unwrap_or_default();
                        then_l.clear();
                        let mut else_l = pool.pop().unwrap_or_default();
                        else_l.clear();
                        (if first { &mut then_l } else { &mut else_l })
                            .extend_from_slice(&g.lanes[..split]);
                        for &l in &g.lanes[split..] {
                            if self.cells[c + l] != 0 {
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
                            fetched: g.fetched + kernel.block_steps[*else_block as usize],
                        });
                        pool.push(std::mem::replace(&mut g.lanes, then_l));
                        g.fetched += kernel.block_steps[*then_block as usize];
                        g.pc = *then_target as usize;
                        continue;
                    }
                    Op::Return => {
                        sum_fetches = sum_fetches.saturating_add(g.fetched.saturating_mul(nl));
                        self.ended.push(g);
                        continue 'groups;
                    }
                }
                g.pc += 1;
            }
            // Only a group past the fetch cap at a jump or a branch leaves
            // the loop here; `u64::MAX` marks it for settlement.
            capped = true;
            g.fetched = u64::MAX;
            self.ended.push(g);
        }

        self.group_stack = groups;
        let stops: Vec<(usize, usize)> = trapped
            .iter()
            .map(|&(l, pc, ..)| (l, pc))
            .chain(
                stalled_at.iter().flat_map(|&(pc, _)| self.running.iter().map(move |&l| (l, pc))),
            )
            .collect();
        let settled = if !capped && trapped.is_empty() && sum_fetches <= budget {
            self.steps_left -= sum_fetches;
            Ok(())
        } else {
            self.settle(budget, trapped, stalled_at.map(|(_, fetched)| fetched))
        };
        self.ended.extend(stops.into_iter().map(|(l, pc)| LaneGroup {
            pc,
            lanes: vec![l],
            fetched: 0,
        }));
        self.lane_pool = pool;
        settled.map(|()| stalled_at.map(|(pc, _)| pc))
    }

    /// Serial settlement (rare): replay the phase's per-lane fetch counts
    /// in work-item order against the shared budget, exactly as the
    /// walker interleaves them — deciding `StepLimitExceeded` vs. a real
    /// trap per lane. The counts come from the trapped lanes, the stalled
    /// lanes in `self.running` (`stall_fetches`) and the lanes of every
    /// recorded group.
    fn settle(
        &mut self,
        budget: u64,
        trapped: Vec<(usize, usize, u64, ExecError)>,
        stall_fetches: Option<u64>,
    ) -> Result<(), ExecError> {
        let mut ran: Vec<(usize, u64, Option<ExecError>)> =
            trapped.into_iter().map(|(l, _, fetches, err)| (l, fetches, Some(err))).collect();
        if let Some(fetches) = stall_fetches {
            ran.extend(self.running.iter().map(|&l| (l, fetches, None)));
        }
        for g in self.arrived.iter().chain(&self.ended) {
            ran.extend(g.lanes.iter().map(|&l| (l, g.fetched, None)));
        }
        ran.sort_unstable_by_key(|&(l, ..)| l);
        let mut cum: u64 = 0;
        for (_, fetches, trap) in ran {
            // `u64::MAX` marks a group stopped at the fetch cap.
            let over = fetches == u64::MAX || cum.checked_add(fetches).is_none_or(|s| s > budget);
            if over {
                return Err(ExecError::StepLimitExceeded);
            }
            if let Some(err) = trap {
                return Err(err);
            }
            cum += fetches;
        }
        self.steps_left -= cum;
        Ok(())
    }
}

/// Check `args` against the kernel signature and bind them to values,
/// with the exact error messages of the tree-walker.
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

    /// One engine's outcome of an NDRange: its memory and merged stats,
    /// or the text of the first group's error.
    type Outcome = Result<(VecMemory, ExecStats), String>;

    /// Run `func` on the walker and on lanes over the same NDRange with
    /// identically initialised memories and a per-group `step_limit`
    /// (0 selects the default); return each engine's outcome.
    fn run_both_limited(
        func: &Function,
        global: usize,
        local: usize,
        step_limit: u64,
        init: impl Fn(&mut VecMemory) -> Vec<KernelArgValue>,
    ) -> (Outcome, Outcome) {
        let compiled = CompiledKernel::compile(func);
        let run = |lanes: bool| -> Outcome {
            let mut mem = VecMemory::new();
            let args = init(&mut mem);
            let mut stats = ExecStats::with_blocks(func.blocks.len());
            for group in 0..global / local {
                let shape = GroupShape::linear(global, local, group);
                let err = |e: ExecError| e.to_string();
                if lanes {
                    let mut r = LanesRun::new(&compiled, shape, &args, step_limit).map_err(err)?;
                    r.run(&mut mem, &ExactMath).map_err(err)?;
                    stats.merge(r.stats());
                } else {
                    let mut r = WorkGroupRun::new(func, shape, &args, step_limit).map_err(err)?;
                    r.run(&mut mem, &ExactMath).map_err(err)?;
                    stats.merge(r.stats());
                }
            }
            Ok((mem, stats))
        };
        (run(false), run(true))
    }

    /// [`run_both_limited`] at the default step limit, where both engines
    /// must succeed; return each memory and stats.
    fn run_both(
        func: &Function,
        global: usize,
        local: usize,
        init: impl Fn(&mut VecMemory) -> Vec<KernelArgValue>,
    ) -> ((VecMemory, ExecStats), (VecMemory, ExecStats)) {
        let (walk, lanes) = run_both_limited(func, global, local, 0, init);
        (walk.expect("walk runs"), lanes.expect("lanes runs"))
    }

    /// Sweep the per-group step limit from 1 until both engines succeed
    /// or fail with something other than `StepLimitExceeded` (which a
    /// larger budget no longer changes): at every limit the engines must
    /// agree, on identical `ExecStats` and global buffer 0, or on the
    /// error text. Returns the errors the sweep saw, in limit order.
    fn sweep_step_limits(
        func: &Function,
        global: usize,
        local: usize,
        init: impl Fn(&mut VecMemory) -> Vec<KernelArgValue>,
    ) -> Vec<String> {
        let step_limit = ExecError::StepLimitExceeded.to_string();
        let mut errors = Vec::new();
        for limit in 1.. {
            match run_both_limited(func, global, local, limit, &init) {
                (Ok((wm, ws)), Ok((lm, ls))) => {
                    assert_eq!(ws, ls, "{}: stats at step limit {limit}", func.name);
                    assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "{}: {limit}", func.name);
                    return errors;
                }
                (Err(we), Err(le)) => {
                    assert_eq!(we, le, "{}: error at step limit {limit}", func.name);
                    let done = we != step_limit;
                    errors.push(we);
                    if done {
                        return errors;
                    }
                }
                (walk, lanes) => panic!(
                    "{}: at step limit {limit} the walker gave {:?}, lanes {:?}",
                    func.name,
                    walk.map(|(_, s)| s),
                    lanes.map(|(_, s)| s)
                ),
            }
        }
        unreachable!("the sweep ends when both engines succeed")
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
    fn lanes_match_walker_bit_for_bit() {
        let func = busy_kernel();
        let ((wm, ws), (lm, ls)) = run_both(&func, 8, 4, |mem| {
            let buf = mem.alloc_global(8 * 8);
            let l = mem.alloc_local(4 * 8);
            vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
        });
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "bit-identical lanes buffers");
        assert_eq!(ws, ls, "identical lanes ExecStats (blocks, ops, mem, barriers, phases)");
        assert!(ws.barriers > 0 && ws.ops.transc64 > 0, "kernel actually exercised features");
    }

    #[test]
    fn trap_messages_match_walker() {
        // out[0] = 1 / 0 (integer) — walker and lanes must trap identically.
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
        assert!(werr.to_string().contains("integer division by zero"));

        let mut lm = VecMemory::new();
        let lbuf = lm.alloc_global(8);
        let mut ln = LanesRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(lbuf)], 0)
            .expect("args");
        let lerr = ln.run(&mut lm, &ExactMath).expect_err("lanes traps");
        assert_eq!(werr.to_string(), lerr.to_string());
    }

    #[test]
    fn divergence_positions_match_walker() {
        // Lane 0 alone at one barrier, lanes 1 and 2 at another; with
        // `Ne` the lowest lane's group is the second to arrive, so the
        // report must still name its barrier first.
        for op in [CmpOp::Eq, CmpOp::Ne] {
            diverge_at_barriers(op);
        }
    }

    fn diverge_at_barriers(op: CmpOp) {
        let mut b = FunctionBuilder::new("div", true);
        let _out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let lid = b.local_id(0);
        let zero = b.const_i64(0);
        let cond = b.cmp(op, ScalarType::I64, lid, zero);
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
        let shape = GroupShape::linear(3, 3, 0);

        let run_engine = |lanes: bool| -> ExecError {
            let mut mem = VecMemory::new();
            let buf = mem.alloc_global(8);
            let args = [KernelArgValue::GlobalBuffer(buf)];
            if lanes {
                let mut r = LanesRun::new(&compiled, shape, &args, 0).expect("args");
                r.run(&mut mem, &ExactMath).expect_err("diverges")
            } else {
                let mut r = WorkGroupRun::new(&func, shape, &args, 0).expect("args");
                r.run(&mut mem, &ExactMath).expect_err("diverges")
            }
        };
        let (we, le) = (run_engine(false), run_engine(true));
        assert_eq!(we.to_string(), le.to_string(), "{op:?}: same (block, inst) positions");
        let ExecError::BarrierDivergence { a, b } = le else { panic!("{op:?}: {le}") };
        // Lane 0 takes the `then` arm (block 1) under `Eq`, `else` under `Ne`.
        let lane0_block = if op == CmpOp::Eq { 1 } else { 2 };
        assert_eq!((a.0, b.0), (lane0_block, 3 - lane0_block), "{op:?}: {le}");
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
        let mut r = WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(buf)], 500)
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
        let lanes_err = match LanesRun::new(&compiled, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("lanes accepted bad args"),
        };
        assert_eq!(walker_err.to_string(), lanes_err.to_string());
        assert!(matches!(
            LanesRun::new(&compiled, shape, &[KernelArgValue::Scalar(Value::F64(1.0))], 0),
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
    /// peephole must fuse it, and walker and lanes must agree bit-for-bit on
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
            let ((wm, ws), (lm, ls)) = run_both(&func, 1, 1, |mem| {
                vec![KernelArgValue::GlobalBuffer(mem.alloc_global(8))]
            });
            assert_eq!(wm.read_f64(0, 0), 22.0);
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
            assert_eq!(ws, ls, "fused op charges exactly the unfused mul+add");
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
        b.mov_into(x, x); // self-move: dropped, but still charged
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
        let self_move = format!("r{0} = r{0}\n", x.0);
        assert!(!dump.contains(&self_move), "self-move dropped: {dump}");
        assert_eq!(compiled.code_len(), func.inst_count() + func.blocks.len() - 1);
        assert!(dump.contains("(b1 -> b2)"), "jump threaded through the hop block");
        let ((wm, ws), (lm, ls)) =
            run_both(&func, 2, 2, |mem| vec![KernelArgValue::GlobalBuffer(mem.alloc_global(16))]);
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
        assert_eq!(ws, ls, "elided/threaded ops charge walker-identical stats");
        assert!(ws.ops.mov >= 4, "both movs charged on both items");
        assert_eq!(ws.block_execs[1], 2, "threaded-through block still charged");
    }

    #[test]
    fn lanes_match_on_divergent_data_dependent_branches() {
        // Per-lane trip counts force group splits and early retirement;
        // run under several group sizes to cross group boundaries.
        let func = busy_kernel();
        for local in [1, 2, 8] {
            let ((wm, ws), (lm, ls)) = run_both(&func, 8, local, |mem| {
                let buf = mem.alloc_global(8 * 8);
                let l = mem.alloc_local(local * 8);
                vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
            });
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "local={local}");
            assert_eq!(ws, ls, "local={local}");
        }
    }

    /// Kernel IV.B's shape: one work-item per row of a local array, two
    /// barriers per time step, and rows that retire while the others
    /// wait at a barrier. Row 0 after `n_steps` steps of
    /// `v[l] = v[l+1]/2 + v[l]/4` lands in `out[group]`.
    fn ivb_shaped_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("ivb_shaped", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let v = b.param("v", Type::ptr(AddressSpace::Local, F64));
        let n_steps = b.param("n_steps", Type::Scalar(I64));
        let l = b.local_id(0);
        let lf = b.cast(l, I64, F64);
        let row = b.gep(v, l, F64);
        b.store(row, lf, F64);
        b.barrier();
        let one = b.const_i64(1);
        let t = b.fresh(Type::Scalar(I64));
        let last = b.bin(BinOp::Sub, I64, n_steps, one);
        b.mov_into(t, last);
        let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
        b.jump(header);
        b.switch_to(header);
        let live = b.cmp(CmpOp::Ge, I64, t, l);
        b.branch(live, body, exit);
        b.switch_to(body);
        let l1 = b.bin(BinOp::Add, I64, l, one);
        let up = b.gep(v, l1, F64);
        let vup = b.load(up, F64);
        let vsame = b.load(row, F64);
        b.barrier(); // reads before anyone overwrites
        let half = b.const_f64(0.5);
        let quarter = b.const_f64(0.25);
        let a = b.bin(BinOp::Mul, F64, half, vup);
        let c = b.bin(BinOp::Mul, F64, quarter, vsame);
        let next = b.fadd(a, c, F64);
        b.store(row, next, F64);
        b.barrier(); // writes before the next reads
        let t1 = b.bin(BinOp::Sub, I64, t, one);
        b.mov_into(t, t1);
        b.jump(header);
        b.switch_to(exit);
        let zero = b.const_i64(0);
        let first = b.cmp(CmpOp::Eq, I64, l, zero);
        let (write, done) = (b.create_block(), b.create_block());
        b.branch(first, write, done);
        b.switch_to(write);
        let group = b.group_id(0);
        let v0 = b.load(row, F64);
        let dst = b.gep(out, group, F64);
        b.store(dst, v0, F64);
        b.jump(done);
        b.switch_to(done);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn step_limit_sweeps_match_walker() {
        use KernelArgValue::{GlobalBuffer, LocalBuffer, Scalar};
        let busy = sweep_step_limits(&busy_kernel(), 8, 4, |mem| {
            vec![GlobalBuffer(mem.alloc_global(8 * 8)), LocalBuffer(mem.alloc_local(4 * 8))]
        });
        let rows = 7;
        let ivb = sweep_step_limits(&ivb_shaped_kernel(), 2 * rows, rows, |mem| {
            vec![
                GlobalBuffer(mem.alloc_global(2 * 8)),
                LocalBuffer(mem.alloc_local(rows * 8)),
                Scalar(Value::I64(rows as i64 - 1)),
            ]
        });
        for errors in [busy, ivb] {
            // Every limit below the first success runs out of steps, in
            // some phase after the first barrier too.
            assert!(errors.len() > 50, "{} limits swept", errors.len());
            assert!(errors.iter().all(|e| *e == ExecError::StepLimitExceeded.to_string()));
        }
    }

    /// `q = 1 / (lid - bad)`: work-item `bad` divides by zero in the phase
    /// in which every other work-item reaches the barrier.
    fn trap_at_barrier_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("trap_at_barrier", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let bad = b.param("bad", Type::Scalar(I64));
        let lid = b.local_id(0);
        let d = b.bin(BinOp::Sub, I64, lid, bad);
        let one = b.const_i64(1);
        let q = b.bin(BinOp::Div, I64, one, d);
        b.barrier();
        let qf = b.cast(q, I64, F64);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, F64);
        b.store(slot, qf, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn trap_at_a_barrier_matches_walker() {
        // Lane 0 traps first in work-item order; lane 3 traps after the
        // others' barrier fetches, which the settlement must count first.
        let func = trap_at_barrier_kernel();
        for bad in [0, 3] {
            let init = |mem: &mut VecMemory| {
                vec![
                    KernelArgValue::GlobalBuffer(mem.alloc_global(4 * 8)),
                    KernelArgValue::Scalar(Value::I64(bad)),
                ]
            };
            let (walk, lanes) = run_both_limited(&func, 4, 4, 0, init);
            let (we, le) = (walk.expect_err("walker traps"), lanes.expect_err("lanes trap"));
            assert_eq!(we, le, "bad={bad}");
            assert!(we.contains("integer division by zero"), "bad={bad}: {we}");
            let errors = sweep_step_limits(&func, 4, 4, init);
            assert_eq!(errors.last(), Some(&we), "bad={bad}: the sweep ends at the trap");
            assert!(errors.len() > 1, "bad={bad}: some limits run out of steps first");
        }
    }

    /// A data-dependent if/else that reconverges before a barrier, in a
    /// loop: the lanes of each arm reach the barrier as their own group,
    /// at one pc, every iteration. Work-items with `lid % 3 == 2` retire
    /// before the loop, so the released lane lists are not contiguous.
    fn reconverged_split_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("reconverged", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let v = b.param("v", Type::ptr(AddressSpace::Local, F64));
        let lid = b.local_id(0);
        let n = b.wi_query(WiQuery::LocalSize, 0);
        let (zero, one, two, three) =
            (b.const_i64(0), b.const_i64(1), b.const_i64(2), b.const_i64(3));
        let rem3 = b.bin(BinOp::Rem, I64, lid, three);
        let early = b.cmp(CmpOp::Eq, I64, rem3, two);
        let (retire, start) = (b.create_block(), b.create_block());
        b.branch(early, retire, start);
        b.switch_to(retire);
        b.ret();
        b.switch_to(start);
        let acc = b.fresh(Type::Scalar(F64));
        let lf = b.cast(lid, I64, F64);
        b.mov_into(acc, lf);
        let i = b.fresh(Type::Scalar(I64));
        b.mov_into(i, zero);
        let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
        b.jump(header);
        b.switch_to(header);
        let more = b.cmp(CmpOp::Lt, I64, i, three);
        b.branch(more, body, exit);
        b.switch_to(body);
        let sum = b.bin(BinOp::Add, I64, lid, i);
        let parity = b.bin(BinOp::Rem, I64, sum, two);
        let even = b.cmp(CmpOp::Eq, I64, parity, zero);
        let (then_bb, else_bb, join) = (b.create_block(), b.create_block(), b.create_block());
        b.branch(even, then_bb, else_bb);
        b.switch_to(then_bb);
        let doubled = b.fadd(acc, acc, F64);
        b.mov_into(acc, doubled);
        b.jump(join);
        b.switch_to(else_bb);
        let onef = b.const_f64(1.0);
        let bumped = b.fadd(acc, onef, F64);
        b.mov_into(acc, bumped);
        b.jump(join);
        b.switch_to(join);
        let row = b.gep(v, lid, F64);
        b.store(row, acc, F64);
        b.barrier();
        let next = b.bin(BinOp::Add, I64, lid, one);
        let wrapped = b.bin(BinOp::Rem, I64, next, n);
        let neighbour = b.gep(v, wrapped, F64);
        let x = b.load(neighbour, F64);
        let acc2 = b.fadd(acc, x, F64);
        b.mov_into(acc, acc2);
        b.barrier();
        let i1 = b.bin(BinOp::Add, I64, i, one);
        b.mov_into(i, i1);
        b.jump(header);
        b.switch_to(exit);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, F64);
        b.store(slot, acc, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn reconverged_split_at_one_barrier_matches_walker() {
        let func = reconverged_split_kernel();
        for local in [2, 4, 6, 8] {
            let init = |mem: &mut VecMemory| {
                vec![
                    KernelArgValue::GlobalBuffer(mem.alloc_global(2 * local * 8)),
                    KernelArgValue::LocalBuffer(mem.alloc_local(local * 8)),
                ]
            };
            let ((wm, ws), (lm, ls)) = run_both(&func, 2 * local, local, init);
            assert_eq!(ws, ls, "local={local}");
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "local={local}");
            assert_eq!(ws.barriers, 2 * 2 * 3, "local={local}: two barriers x 3 iterations");
            sweep_step_limits(&func, 2 * local, local, init);
        }
    }

    /// The engine a [`run_ndrange`] call dispatches each group on.
    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Walk,
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

    /// Run an NDRange on this thread: one global arena, the local arena
    /// cleared before each group, statistics merged in group order and
    /// the first failing group's error reported.
    fn run_ndrange(
        func: &Function,
        compiled: &CompiledKernel,
        engine: Engine,
        (global, local): (usize, usize),
        arena: &mut GlobalArena,
        bind: &dyn Fn(&mut WorkerMemory<'_, '_>) -> Vec<KernelArgValue>,
        pipes: &mut PipeHub,
    ) -> Result<ExecStats, ExecError> {
        let shared = arena.shared();
        let mut mem = WorkerMemory::new(&shared);
        let mut total = ExecStats::with_blocks(func.blocks.len());
        for group in 0..global / local {
            mem.clear_locals();
            let args = bind(&mut mem);
            let shape = GroupShape::linear(global, local, group);
            total.merge(&run_group(func, compiled, engine, shape, &args, &mut mem, pipes)?);
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
                    for engine in [Engine::Walk, Engine::Lanes] {
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
                            (global, local),
                            &mut arena,
                            &bind,
                            &mut hub,
                        );
                        let outcome = run
                            .map(|stats| (stats, arena.bytes(out).to_vec()))
                            .map_err(|e| e.to_string());
                        outcomes.push((engine, outcome));
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

    /// `p = (lid % m) >= k ? b : a` through a pointer `Mov` after a
    /// data-dependent branch, then a barrier, `p[lid] = 2 * p[lid] + 1` and
    /// `out[gid] = p[lid]`: with `m` past the group size the lanes from
    /// `k` on point into `b` (one split), with `m = 2, k = 1` they
    /// alternate between the buffers.
    fn mixed_buffer_kernel() -> Function {
        use crate::ir::BinOp;
        use AddressSpace::Global;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("mixed", true);
        let out = b.param("out", Type::ptr(Global, F64));
        let a_buf = b.param("a", Type::ptr(Global, F64));
        let b_buf = b.param("b", Type::ptr(Global, F64));
        let m = b.param("m", Type::Scalar(I64));
        let k = b.param("k", Type::Scalar(I64));
        let lid = b.local_id(0);
        let rem = b.bin(BinOp::Rem, I64, lid, m);
        let pick_b = b.cmp(CmpOp::Ge, I64, rem, k);
        let p = b.fresh(Type::ptr(Global, F64));
        let (then_bb, else_bb, join) = (b.create_block(), b.create_block(), b.create_block());
        b.branch(pick_b, then_bb, else_bb);
        b.switch_to(then_bb);
        b.mov_into(p, b_buf);
        b.jump(join);
        b.switch_to(else_bb);
        b.mov_into(p, a_buf);
        b.jump(join);
        b.switch_to(join);
        // The arms run as two groups; the barrier merges them, so the
        // accesses below run as one group over both buffers.
        b.barrier();
        let slot = b.gep(p, lid, F64);
        let x = b.load(slot, F64);
        let two = b.const_f64(2.0);
        let one = b.const_f64(1.0);
        let x2 = b.fmul(x, two, F64);
        let y = b.fadd(x2, one, F64);
        b.store(slot, y, F64);
        let z = b.load(slot, F64);
        let gid = b.global_id(0);
        let oslot = b.gep(out, gid, F64);
        b.store(oslot, z, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn lanes_pointing_into_different_buffers_match_walker() {
        let func = mixed_buffer_kernel();
        let local = 8;
        // (m, k): uniform a, uniform b, b from the second, middle and
        // last lane on, and alternating.
        let cases = [(1 << 20, 1 << 20), (1 << 20, 0), (1 << 20, 1), (1 << 20, 4), (1 << 20, 7)];
        for (m, k) in cases.into_iter().chain([(2, 1)]) {
            let init = |mem: &mut VecMemory| {
                let out = mem.alloc_global(2 * local * 8);
                let (a, b) = (mem.alloc_global(local * 8), mem.alloc_global(local * 8));
                for i in 0..local {
                    mem.write_f64(a, i, 10.0 + i as f64);
                    mem.write_f64(b, i, 100.0 + i as f64);
                }
                vec![
                    KernelArgValue::GlobalBuffer(out),
                    KernelArgValue::GlobalBuffer(a),
                    KernelArgValue::GlobalBuffer(b),
                    KernelArgValue::Scalar(Value::I64(m)),
                    KernelArgValue::Scalar(Value::I64(k)),
                ]
            };
            let ((wm, ws), (lm, ls)) = run_both(&func, 2 * local, local, init);
            assert_eq!(ws, ls, "m={m} k={k}");
            for buf in 0..3 {
                assert_eq!(wm.global_bytes(buf), lm.global_bytes(buf), "m={m} k={k} buf={buf}");
            }
        }
    }

    /// A dense group loads `src[lid + d]` and stores `dst[lid + d]`,
    /// with `d = delta` for work-item `bad` and 0 for the others;
    /// `src` and `dst` are global (`local_space` false) or local. The
    /// load result lands in `out[gid]`.
    fn one_bad_lane_kernel(store: bool, local_space: bool) -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let space = if local_space { AddressSpace::Local } else { AddressSpace::Global };
        let mut b = FunctionBuilder::new("one_bad_lane", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let buf = b.param("buf", Type::ptr(space, F64));
        let bad = b.param("bad", Type::Scalar(I64));
        let delta = b.param("delta", Type::Scalar(I64));
        let lid = b.local_id(0);
        let is_bad = b.cmp(CmpOp::Eq, I64, lid, bad);
        let zero = b.const_i64(0);
        let d = b.select(I64, is_bad, delta, zero);
        let at = b.bin(BinOp::Add, I64, lid, d);
        let slot = b.gep(buf, at, F64);
        let gid = b.global_id(0);
        let v = if store {
            let lf = b.cast(lid, I64, F64);
            b.store(slot, lf, F64);
            lf
        } else {
            b.load(slot, F64)
        };
        let oslot = b.gep(out, gid, F64);
        b.store(oslot, v, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn dense_loads_and_stores_with_one_bad_lane_match_walker() {
        let local = 8usize;
        for store in [false, true] {
            for local_space in [false, true] {
                let func = one_bad_lane_kernel(store, local_space);
                for bad in [0, 3, local as i64 - 1] {
                    for delta in [-(1 << 20), -(bad + 1), local as i64 - bad, 1 << 20] {
                        let init = |mem: &mut VecMemory| {
                            let out = mem.alloc_global(local * 8);
                            let buf = if local_space {
                                KernelArgValue::LocalBuffer(mem.alloc_local(local * 8))
                            } else {
                                KernelArgValue::GlobalBuffer(mem.alloc_global(local * 8))
                            };
                            vec![
                                KernelArgValue::GlobalBuffer(out),
                                buf,
                                KernelArgValue::Scalar(Value::I64(bad)),
                                KernelArgValue::Scalar(Value::I64(delta)),
                            ]
                        };
                        let what = format!("store={store} local={local_space} bad={bad} d={delta}");
                        let (walk, lanes) = run_both_limited(&func, local, local, 0, init);
                        let (we, le) = (walk.expect_err(&what), lanes.expect_err(&what));
                        assert_eq!(we, le, "{what}");
                        assert!(we.contains("out of bounds"), "{what}: {we}");
                        let errors = sweep_step_limits(&func, local, local, init);
                        assert_eq!(errors.last(), Some(&we), "{what}");
                        // In bounds, the same lane shape runs dense.
                        let init_ok = |mem: &mut VecMemory| {
                            let mut args = init(mem);
                            args[3] = KernelArgValue::Scalar(Value::I64(0));
                            args
                        };
                        let ((wm, ws), (lm, ls)) = run_both(&func, local, local, init_ok);
                        assert_eq!(ws, ls, "{what}");
                        assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "{what}");
                        if !local_space {
                            assert_eq!(wm.global_bytes(1), lm.global_bytes(1), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// `out[gid] = f(lid)` where the lanes with `(lid % m) op k` take one
    /// arm and the others the second, after the lanes with `lid == gone`
    /// have retired (so a group can be non-contiguous); each arm loops a
    /// lane-dependent number of times.
    fn split_kernel(op: CmpOp) -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("split", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let m = b.param("m", Type::Scalar(I64));
        let k = b.param("k", Type::Scalar(I64));
        let gone = b.param("gone", Type::Scalar(I64));
        let lid = b.local_id(0);
        let retire = b.cmp(CmpOp::Eq, I64, lid, gone);
        let (retired, start) = (b.create_block(), b.create_block());
        b.branch(retire, retired, start);
        b.switch_to(retired);
        b.ret();
        b.switch_to(start);
        let rem = b.bin(BinOp::Rem, I64, lid, m);
        let cond = b.cmp(op, I64, rem, k);
        let acc = b.fresh(Type::Scalar(F64));
        let lf = b.cast(lid, I64, F64);
        b.mov_into(acc, lf);
        let (then_bb, else_bb, join) = (b.create_block(), b.create_block(), b.create_block());
        b.branch(cond, then_bb, else_bb);
        b.switch_to(then_bb);
        let half = b.const_f64(0.5);
        let t = b.fmul(acc, half, F64);
        b.mov_into(acc, t);
        b.jump(join);
        b.switch_to(else_bb);
        let three = b.const_f64(3.0);
        let e = b.fadd(acc, three, F64);
        b.mov_into(acc, e);
        b.jump(join);
        b.switch_to(join);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, F64);
        b.store(slot, acc, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn monotone_and_alternating_splits_match_walker() {
        let local = 8;
        let far = 1 << 20;
        // Lanes below k take `then` under Lt (the first lane takes
        // `then`) and `else` under Ge; m = 2 alternates.
        for op in [CmpOp::Lt, CmpOp::Ge] {
            let func = split_kernel(op);
            for (m, k) in [(far, 1), (far, 4), (far, 7), (2, 1)] {
                for gone in [-1, 0, 2, 5, 7] {
                    let init = |mem: &mut VecMemory| {
                        vec![
                            KernelArgValue::GlobalBuffer(mem.alloc_global(2 * local * 8)),
                            KernelArgValue::Scalar(Value::I64(m)),
                            KernelArgValue::Scalar(Value::I64(k)),
                            KernelArgValue::Scalar(Value::I64(gone)),
                        ]
                    };
                    let what = format!("{op:?} m={m} k={k} gone={gone}");
                    let ((wm, ws), (lm, ls)) = run_both(&func, 2 * local, local, init);
                    assert_eq!(ws, ls, "{what}");
                    assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "{what}");
                }
            }
        }
    }

    /// How many ops the lowering moved out of the block they have in the
    /// IR (into a loop preheader).
    fn moved_ops(compiled: &CompiledKernel) -> usize {
        let n = compiled.block_starts.len();
        (0..n)
            .map(|b| {
                let start = compiled.block_starts[b] as usize;
                let end =
                    compiled.block_starts.get(b + 1).map_or(compiled.code.len(), |&e| e as usize);
                compiled.pos_of_pc[start..end].iter().filter(|&&(pb, _)| pb as usize != b).count()
            })
            .sum()
    }

    /// Every work-item `trips` times reads its right neighbour's cell and
    /// `v[far]`, then writes `v[lid] = neighbour / 2 + v[far]` between two
    /// barriers; `out[gid] = v[lid]` at the end. The loop body computes
    /// `1`, `lid + 1`, the group size, `&v[far]` and `0.5` afresh every
    /// trip: the lowering moves those five to the preheader.
    fn hoisted_loop_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("hoisted_loop", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let v = b.param("v", Type::ptr(AddressSpace::Local, F64));
        let trips = b.param("trips", Type::Scalar(I64));
        let far = b.param("far", Type::Scalar(I64));
        let lid = b.local_id(0);
        let lf = b.cast(lid, I64, F64);
        let row = b.gep(v, lid, F64);
        b.store(row, lf, F64);
        b.barrier();
        let i = b.fresh(Type::Scalar(I64));
        let zero = b.const_i64(0);
        b.mov_into(i, zero);
        let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
        b.jump(header);
        b.switch_to(header);
        let more = b.cmp(CmpOp::Lt, I64, i, trips);
        b.branch(more, body, exit);
        b.switch_to(body);
        let one = b.const_i64(1);
        let next = b.bin(BinOp::Add, I64, lid, one);
        let n = b.wi_query(WiQuery::LocalSize, 0);
        let wrapped = b.bin(BinOp::Rem, I64, next, n);
        let right = b.gep(v, wrapped, F64);
        let probe = b.gep(v, far, F64);
        let x = b.load(right, F64);
        let z = b.load(probe, F64);
        b.barrier();
        let half = b.const_f64(0.5);
        let y = b.fmul(x, half, F64);
        let y = b.fadd(y, z, F64);
        b.store(row, y, F64);
        b.barrier();
        let i1 = b.bin(BinOp::Add, I64, i, one);
        b.mov_into(i, i1);
        b.jump(header);
        b.switch_to(exit);
        let r = b.load(row, F64);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, F64);
        b.store(slot, r, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn step_limit_sweep_matches_walker_over_a_hoisted_loop() {
        use KernelArgValue::{GlobalBuffer, LocalBuffer, Scalar};
        let func = hoisted_loop_kernel();
        let compiled = CompiledKernel::compile(&func);
        assert_eq!(
            moved_ops(&compiled),
            5,
            "const 1, lid + 1, local size, gep, const 0.5:\n{compiled}"
        );
        let local = 6;
        let errors = sweep_step_limits(&func, 2 * local, local, |mem| {
            vec![
                GlobalBuffer(mem.alloc_global(2 * local * 8)),
                LocalBuffer(mem.alloc_local(local * 8)),
                Scalar(Value::I64(3)),
                Scalar(Value::I64(2)),
            ]
        });
        assert!(errors.len() > 100, "{} limits swept", errors.len());
        assert!(errors.iter().all(|e| *e == ExecError::StepLimitExceeded.to_string()));
    }

    #[test]
    fn overflowing_geps_wrap_and_fail_typed_at_the_access() {
        use KernelArgValue::{GlobalBuffer, LocalBuffer, Scalar};
        // A hoisted gep runs even when its loop runs zero times: an index
        // of i64::MAX must not fail by itself, on either engine.
        let func = hoisted_loop_kernel();
        for (trips, far) in [(0, i64::MAX), (0, i64::MIN), (2, i64::MAX), (2, 1 << 40), (2, 3)] {
            let init = |mem: &mut VecMemory| {
                vec![
                    GlobalBuffer(mem.alloc_global(4 * 8)),
                    LocalBuffer(mem.alloc_local(4 * 8)),
                    Scalar(Value::I64(trips)),
                    Scalar(Value::I64(far)),
                ]
            };
            let what = format!("trips={trips} far={far}");
            match run_both_limited(&func, 4, 4, 0, init) {
                (Ok((wm, ws)), Ok((lm, ls))) => {
                    assert!(trips == 0 || far == 3, "{what}: only in-range probes succeed");
                    assert_eq!(ws, ls, "{what}");
                    assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "{what}");
                }
                (Err(we), Err(le)) => {
                    assert_eq!(we, le, "{what}");
                    assert!(trips > 0 && we.contains("out of bounds"), "{what}: {we}");
                }
                (walk, lanes) => {
                    panic!("{what}: walker {:?}, lanes {:?}", walk.is_ok(), lanes.is_ok())
                }
            }
        }

        // Straight-line: the gep wraps, the load fails typed.
        let mut b = FunctionBuilder::new("far_gep", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let max = b.const_i64(i64::MAX);
        let p = b.gep(out, max, ScalarType::F64);
        let x = b.load(p, ScalarType::F64);
        b.store(out, x, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let (walk, lanes) = run_both_limited(&func, 2, 2, 0, |mem| {
            vec![KernelArgValue::GlobalBuffer(mem.alloc_global(8))]
        });
        let (we, le) = (walk.expect_err("walker fails"), lanes.expect_err("lanes fail"));
        assert_eq!(we, le);
        assert!(we.contains("out of bounds"), "{we}");
    }

    /// A loop whose body sends odd and even `lid + 1` to two different
    /// barriers; the lowering moves `1`, `lid + 1`, `2` and the
    /// `then` arm's leading constant out of the loop.
    fn diverging_loop_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("diverging_loop", true);
        let _out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let lid = b.local_id(0);
        let i = b.fresh(Type::Scalar(I64));
        let (zero, trips) = (b.const_i64(0), b.const_i64(2));
        b.mov_into(i, zero);
        let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
        let (then_bb, else_bb, latch) = (b.create_block(), b.create_block(), b.create_block());
        b.jump(header);
        b.switch_to(header);
        let more = b.cmp(CmpOp::Lt, I64, i, trips);
        b.branch(more, body, exit);
        b.switch_to(body);
        let one = b.const_i64(1);
        let k = b.bin(BinOp::Add, I64, lid, one);
        let two = b.const_i64(2);
        let odd = b.bin(BinOp::Rem, I64, k, two);
        let even = b.cmp(CmpOp::Eq, I64, odd, zero);
        b.branch(even, then_bb, else_bb);
        b.switch_to(then_bb);
        let _unused = b.const_f64(0.0);
        b.barrier();
        b.jump(latch);
        b.switch_to(else_bb);
        b.barrier();
        b.jump(latch);
        b.switch_to(latch);
        let i1 = b.bin(BinOp::Add, I64, i, one);
        b.mov_into(i, i1);
        b.jump(header);
        b.switch_to(exit);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn divergence_inside_a_hoisted_loop_reports_ir_positions() {
        let func = diverging_loop_kernel();
        let compiled = CompiledKernel::compile(&func);
        assert_eq!(moved_ops(&compiled), 4, "{compiled}");
        let (walk, lanes) = run_both_limited(&func, 4, 4, 0, |mem| {
            vec![KernelArgValue::GlobalBuffer(mem.alloc_global(8))]
        });
        let (we, le) = (walk.expect_err("walker diverges"), lanes.expect_err("lanes diverge"));
        assert_eq!(we, le);
        // Lane 0 (`lid + 1` odd) waits in the `else` arm at its first
        // instruction; the others in the `then` arm behind the constant
        // that moved out of the loop, which still counts as position 0.
        let expected = ExecError::BarrierDivergence { a: (5, 0), b: (4, 1) };
        assert_eq!(le, expected.to_string());
    }

    /// One work-item: `out[0] = 2 lid`, then `v = read_pipe(p)`, then
    /// `out[0] = v + 1 / d`, all in one block, so a stall at the read or
    /// a trap at the division stops the lane inside the block.
    fn stop_inside_block_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("stop_inside", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let p = b.param("p", Type::ptr(AddressSpace::Pipe, F64));
        let d = b.param("d", Type::Scalar(I64));
        let lid = b.local_id(0);
        let x = b.cast(lid, I64, F64);
        let two = b.const_f64(2.0);
        let y = b.fmul(x, two, F64);
        b.store(out, y, F64);
        let v = b.pipe_read(p, F64);
        let one = b.const_i64(1);
        let q = b.bin(BinOp::Div, I64, one, d);
        let qf = b.cast(q, I64, F64);
        let s = b.fadd(v, qf, F64);
        b.store(out, s, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn a_lane_stopped_inside_a_block_is_charged_the_walkers_prefix() {
        let func = stop_inside_block_kernel();
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);
        for d in [0, 1] {
            // Each engine's outcome and statistics at the stall, then
            // after a value arrives in the pipe.
            let run = |lanes: bool| {
                let mut mem = VecMemory::new();
                let mut hub = PipeHub::default();
                let pipe = hub.create(ScalarType::F64, 1);
                let args = [
                    KernelArgValue::GlobalBuffer(mem.alloc_global(8)),
                    KernelArgValue::Pipe(pipe),
                    KernelArgValue::Scalar(Value::I64(d)),
                ];
                let mut walk = WorkGroupRun::new(&func, shape, &args, 0).expect("args");
                let mut lane = LanesRun::new(&compiled, shape, &args, 0).expect("args");
                let mut step = |hub: &mut PipeHub| {
                    let (outcome, stats) = if lanes {
                        (lane.run_resumable(&mut mem, &ExactMath, hub), lane.stats())
                    } else {
                        (walk.run_resumable(&mut mem, &ExactMath, hub), walk.stats())
                    };
                    (outcome.map_err(|e| e.to_string()), stats.clone())
                };
                let at_stall = step(&mut hub);
                hub.try_write(pipe, ScalarType::F64, 0.5f64.to_bits()).expect("pipe");
                (at_stall, step(&mut hub))
            };
            let (walk, lanes) = (run(false), run(true));
            assert_eq!(walk, lanes, "d={d}");
            let ((stalled, at_stall), (end, at_end)) = walk;
            assert_eq!(stalled, Ok(RunOutcome::Stalled), "d={d}");
            assert_eq!(at_stall.mem.global_stores, 1, "d={d}: the store before the read");
            assert_eq!(at_stall.ops.cast, 1, "d={d}: the cast before the read, not the one after");
            if d == 0 {
                assert!(end.expect_err("traps").contains("division by zero"));
                assert_eq!(at_end.ops.cast, 1, "the cast after the trapping division");
            } else {
                assert_eq!(end, Ok(RunOutcome::Complete));
                assert_eq!((at_end.ops.cast, at_end.mem.global_stores), (2, 2));
            }
        }
    }

    /// `acc += k` in the loop header, where the body computes
    /// `k = lid + 1` afterwards: the first trip reads `k` before its
    /// definition, as 0, so `k` must stay in the loop while the `1` it
    /// adds moves out. `out[gid] = trips * (lid + 1)`.
    fn read_before_def_kernel() -> Function {
        use crate::ir::BinOp;
        use ScalarType::{F64, I64};
        let mut b = FunctionBuilder::new("read_before_def", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, F64));
        let trips = b.param("trips", Type::Scalar(I64));
        let lid = b.local_id(0);
        let zero = b.const_i64(0);
        let (acc, i) = (b.fresh(Type::Scalar(I64)), b.fresh(Type::Scalar(I64)));
        b.mov_into(acc, zero);
        b.mov_into(i, zero);
        let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
        b.jump(header);
        b.switch_to(body);
        let one = b.const_i64(1);
        let k = b.bin(BinOp::Add, I64, lid, one);
        let i1 = b.bin(BinOp::Add, I64, i, one);
        b.mov_into(i, i1);
        b.jump(header);
        b.switch_to(header);
        let acc1 = b.bin(BinOp::Add, I64, acc, k);
        b.mov_into(acc, acc1);
        let more = b.cmp(CmpOp::Lt, I64, i, trips);
        b.branch(more, body, exit);
        b.switch_to(exit);
        let accf = b.cast(acc, I64, F64);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, F64);
        b.store(slot, accf, F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn a_register_read_before_its_definition_stays_in_the_loop() {
        let func = read_before_def_kernel();
        let compiled = CompiledKernel::compile(&func);
        assert_eq!(moved_ops(&compiled), 1, "only the constant moves:\n{compiled}");
        let trips = 3;
        let ((wm, ws), (lm, ls)) = run_both(&func, 4, 4, |mem| {
            vec![
                KernelArgValue::GlobalBuffer(mem.alloc_global(4 * 8)),
                KernelArgValue::Scalar(Value::I64(trips)),
            ]
        });
        assert_eq!(ws, ls);
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
        assert_eq!(lm.read_f64(0, 2), (trips * 3) as f64);
    }
}

//! The optimising pass pipeline over IR modules: the one place IR is
//! optimised.
//!
//! This is the simulator's stand-in for the scalar optimisations Altera's
//! offline kernel compiler applies before scheduling. Each pass is a pure
//! `Module -> Module` function; a [`Pipeline`] names an ordered list of
//! passes and records per-pass [`PassStats`] in a [`PipelineReport`] —
//! the moral equivalent of the pass summary an `aoc` build log prints.
//! Every program build runs [`Pipeline::for_build`] over the front-end's
//! unoptimised IR.
//!
//! Lowered IR is a register machine: a register may be redefined. The
//! block-local passes defined in this file (constant folding, CSE with
//! copy propagation, DCE) therefore track validity ranges explicitly
//! (constant knowledge and value numbers die at redefinition; liveness is
//! a whole-function property), which keeps them correct both on lowered
//! IR and on the SSA form that exists between `mem2reg` and `out-of-ssa`.

mod cfg_simplify;
mod compact;
mod dom;
mod mem2reg;
mod out_of_ssa;
mod ssa_prop;
mod util;

pub use cfg_simplify::{cfg_simplify, cfg_simplify_in};
pub use compact::{compact_regs, compact_regs_in};
pub use mem2reg::{mem2reg, mem2reg_in};
pub use out_of_ssa::{out_of_ssa, out_of_ssa_in};
pub use ssa_prop::{ssa_prop, ssa_prop_in};

use crate::eval;
use crate::ir::{Function, Inst, Module, RegId, Terminator};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Per-pass before/after counters, collected by [`Pipeline::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (e.g. `"const-fold"`).
    pub name: &'static str,
    /// Instructions in the module before the pass.
    pub insts_before: usize,
    /// Instructions in the module after the pass.
    pub insts_after: usize,
    /// Basic blocks in the module before the pass.
    pub blocks_before: usize,
    /// Basic blocks in the module after the pass.
    pub blocks_after: usize,
    /// Multiply-defined ("local variable") registers before the pass.
    pub multidef_before: usize,
    /// Multiply-defined registers after the pass; `mem2reg` reports its
    /// promotions as the drop in this counter.
    pub multidef_after: usize,
}

impl PassStats {
    /// Whether the pass changed the module's shape (instruction, block
    /// or multiply-defined register count; rewrites in place, e.g.
    /// folding a `Bin` into a `Const`, do not show up here).
    pub fn shrank(&self) -> bool {
        self.insts_after < self.insts_before
            || self.blocks_after < self.blocks_before
            || self.multidef_after < self.multidef_before
    }

    /// Registers this pass promoted out of multiply-defined form.
    pub fn locals_promoted(&self) -> usize {
        self.multidef_before.saturating_sub(self.multidef_after)
    }

    /// Blocks this pass merged away (or otherwise removed).
    pub fn blocks_merged(&self) -> usize {
        self.blocks_before.saturating_sub(self.blocks_after)
    }
}

/// The report of one [`Pipeline::run`]: which pipeline ran and what each
/// pass did. Attached to `BuildReport` by the OpenCL-style runtime so
/// hosts can print it next to the fitter summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineReport {
    /// Name of the pipeline that ran (e.g. `"ssa"`).
    pub pipeline: String,
    /// Per-pass statistics, in execution order.
    pub passes: Vec<PassStats>,
}

impl PipelineReport {
    /// Total instructions removed across the whole pipeline.
    pub fn insts_removed(&self) -> usize {
        match (self.passes.first(), self.passes.last()) {
            (Some(first), Some(last)) => first.insts_before.saturating_sub(last.insts_after),
            _ => 0,
        }
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pass pipeline `{}`:", self.pipeline)?;
        if self.passes.is_empty() {
            return writeln!(f, "  (no passes)");
        }
        for p in &self.passes {
            writeln!(
                f,
                "  {:<18} insts {:>4} -> {:<4} blocks {:>3} -> {:<3} multidef {:>3} -> {:<3}",
                p.name,
                p.insts_before,
                p.insts_after,
                p.blocks_before,
                p.blocks_after,
                p.multidef_before,
                p.multidef_after
            )?;
        }
        writeln!(f, "  total: {} instruction(s) removed", self.insts_removed())
    }
}

/// One named pass: a pure `Module -> Module` transform.
#[derive(Clone, Copy)]
pub struct Pass {
    /// Display name, also used in [`PassStats`].
    pub name: &'static str,
    /// The transform itself.
    pub run: fn(Module) -> Module,
}

impl fmt::Debug for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pass").field("name", &self.name).finish()
    }
}

/// An ordered, named list of passes.
#[derive(Debug, Clone)]
pub struct Pipeline {
    name: String,
    passes: Vec<Pass>,
}

impl Pipeline {
    /// A pipeline from an explicit pass list.
    pub fn new(name: &str, passes: Vec<Pass>) -> Pipeline {
        Pipeline { name: name.to_string(), passes }
    }

    /// The pipeline every program build runs, and the only place IR is
    /// optimised. `no_opt` selects the empty pipeline `none`; otherwise
    /// the `ssa` pipeline, or `ssa+cse` with `cse`:
    ///
    /// ```text
    /// const-fold → [local-cse] → cfg-simplify → mem2reg → ssa-prop
    ///   → [local-cse] → dce → out-of-ssa → compact-regs
    /// ```
    ///
    /// `mem2reg` promotes multiply-defined registers to SSA form,
    /// `ssa-prop` propagates constants and copies over it, and
    /// `out-of-ssa` lowers the phis back to executable IR that
    /// `compact-regs` renumbers densely. CSE is opt-in because removing
    /// redundant operators changes the FPGA resource estimates.
    pub fn for_build(no_opt: bool, cse: bool) -> Pipeline {
        if no_opt {
            return Pipeline::new("none", vec![]);
        }
        let local_cse = cse.then_some(Pass { name: "local-cse", run: local_cse });
        let mut passes = vec![Pass { name: "const-fold", run: constant_fold }];
        passes.extend(local_cse);
        passes.extend([
            Pass { name: "cfg-simplify", run: cfg_simplify },
            Pass { name: "mem2reg", run: mem2reg },
            Pass { name: "ssa-prop", run: ssa_prop },
        ]);
        passes.extend(local_cse);
        passes.extend([
            Pass { name: "dce", run: dead_code_elimination },
            Pass { name: "out-of-ssa", run: out_of_ssa },
            Pass { name: "compact-regs", run: compact_regs },
        ]);
        Pipeline::new(if cse { "ssa+cse" } else { "ssa" }, passes)
    }

    /// The pipeline's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Run every pass in order, collecting per-pass statistics.
    pub fn run(&self, mut module: Module) -> (Module, PipelineReport) {
        let mut report = PipelineReport {
            pipeline: self.name.clone(),
            passes: Vec::with_capacity(self.passes.len()),
        };
        for pass in &self.passes {
            let insts_before = module_insts(&module);
            let blocks_before = module_blocks(&module);
            let multidef_before = module_multidef(&module);
            module = (pass.run)(module);
            report.passes.push(PassStats {
                name: pass.name,
                insts_before,
                insts_after: module_insts(&module),
                blocks_before,
                blocks_after: module_blocks(&module),
                multidef_before,
                multidef_after: module_multidef(&module),
            });
        }
        (module, report)
    }
}

fn module_insts(m: &Module) -> usize {
    m.functions.iter().map(Function::inst_count).sum()
}

fn module_blocks(m: &Module) -> usize {
    m.functions.iter().map(|f| f.blocks.len()).sum()
}

/// Multiply-defined registers across the module (mutable "locals" in the
/// register-machine sense; zero once a function is in SSA form).
fn module_multidef(m: &Module) -> usize {
    m.functions
        .iter()
        .map(|f| {
            let mut defs = vec![0u32; f.reg_types.len()];
            for block in &f.blocks {
                for inst in &block.insts {
                    if let Some(d) = inst.dst() {
                        defs[d.index()] += 1;
                    }
                }
            }
            defs.iter().filter(|&&c| c >= 2).count()
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Module-level passes
// ---------------------------------------------------------------------------

/// Block-local constant folding over every function: an instruction
/// whose operands provably hold constants becomes a `Const`. Trapping
/// instructions (integer division by zero) are left in place.
pub fn constant_fold(mut m: Module) -> Module {
    for f in &mut m.functions {
        fold_constants_in(f);
    }
    m
}

/// Dead-code elimination over every function: pure instructions whose
/// results are never read are removed; stores, barriers and pipe
/// operations are kept.
pub fn dead_code_elimination(mut m: Module) -> Module {
    for f in &mut m.functions {
        eliminate_dead_code_in(f);
    }
    m
}

/// Local (basic-block) common-subexpression elimination plus the copy
/// propagation that lets DCE remove the copies it introduces.
pub fn local_cse(mut m: Module) -> Module {
    for f in &mut m.functions {
        local_cse_in(f);
        propagate_copies_in(f);
    }
    m
}

// ---------------------------------------------------------------------------
// Per-function passes
// ---------------------------------------------------------------------------

/// Fold instructions whose operands are compile-time constants.
///
/// Works per basic block with a forward scan: a register is "known" while
/// it provably holds a constant within the block; any other write
/// invalidates it. Folded instructions become [`Inst::Const`]; DCE cleans
/// up the now-unused inputs. Trapping instructions (integer division by
/// zero) are left in place, not folded into a compile error.
fn fold_constants_in(func: &mut Function) {
    for block in &mut func.blocks {
        let mut known: HashMap<RegId, Value> = HashMap::new();
        for inst in &mut block.insts {
            let folded: Option<Value> = match &*inst {
                Inst::Const { val, .. } => Some(*val),
                Inst::Mov { src, .. } => known.get(src).copied(),
                Inst::Bin { op, ty, a, b, .. } => match (known.get(a), known.get(b)) {
                    (Some(x), Some(y)) => eval::eval_bin(*op, *ty, *x, *y).ok(),
                    _ => None,
                },
                Inst::Un { op, ty, a, .. } => known.get(a).map(|x| eval::eval_un(*op, *ty, *x)),
                Inst::Cmp { op, ty, a, b, .. } => match (known.get(a), known.get(b)) {
                    (Some(x), Some(y)) => Some(Value::Bool(eval::eval_cmp(*op, *ty, *x, *y))),
                    _ => None,
                },
                Inst::Select { cond, a, b, .. } => match known.get(cond) {
                    Some(Value::Bool(true)) => known.get(a).copied(),
                    Some(Value::Bool(false)) => known.get(b).copied(),
                    _ => None,
                },
                Inst::Cast { a, from, to, .. } => {
                    known.get(a).map(|x| eval::eval_cast(*x, *from, *to))
                }
                // Calls, loads, queries, geps: not folded (queries vary per
                // item; calls depend on the device math library).
                _ => None,
            };
            if let Some(dst) = inst.dst() {
                match folded {
                    Some(val) if !matches!(inst, Inst::Const { .. }) => {
                        *inst = Inst::Const { dst, val };
                        known.insert(dst, val);
                    }
                    Some(val) => {
                        known.insert(dst, val);
                    }
                    None => {
                        known.remove(&dst);
                    }
                }
            }
        }
    }
}

/// Remove pure instructions whose results are never read.
///
/// "Never read" is a whole-function property (a register written in one
/// block may be read in another, directly or through a phi).
/// Stores and barriers are never removed; loads are pure and removable.
fn eliminate_dead_code_in(func: &mut Function) {
    loop {
        let mut used: HashSet<RegId> = HashSet::new();
        for block in &func.blocks {
            for inst in &block.insts {
                for r in inst.sources() {
                    used.insert(r);
                }
            }
            if let Terminator::Branch { cond, .. } = &block.term {
                used.insert(*cond);
            }
        }
        let mut removed = false;
        for block in &mut func.blocks {
            let before = block.insts.len();
            block.insts.retain(|inst| match inst {
                // Pipe ops mutate FIFO state (and a blocked read unblocks
                // a peer kernel), so both are kept even if unused.
                Inst::Store { .. }
                | Inst::Barrier
                | Inst::PipeRead { .. }
                | Inst::PipeWrite { .. } => true,
                other => match other.dst() {
                    Some(dst) => used.contains(&dst),
                    None => true,
                },
            });
            removed |= block.insts.len() != before;
        }
        if !removed {
            return;
        }
    }
}

/// Local value numbering: eliminate redundant pure computations within
/// each basic block (common-subexpression elimination).
///
/// Lowered IR may redefine a register, so classical CSE needs value
/// numbers: a replacement `dst = rep` is only valid while the
/// representative register still holds the value number the expression
/// produced. Loads are not eliminated (memory may change between them);
/// math builtins and work-item queries are pure and participate.
fn local_cse_in(func: &mut Function) {
    use crate::ir::{Builtin, CmpOp, UnOp, WiQuery};
    use crate::types::ScalarType;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Key {
        Const(u64, ScalarType),
        Bin(crate::ir::BinOp, ScalarType, u32, u32),
        Un(UnOp, ScalarType, u32),
        Cmp(CmpOp, ScalarType, u32, u32),
        Select(ScalarType, u32, u32, u32),
        Cast(ScalarType, ScalarType, u32),
        Call(Builtin, ScalarType, Vec<u32>),
        WorkItem(WiQuery, u8),
        Gep(ScalarType, u32, u32),
    }

    for block in &mut func.blocks {
        let mut next_vn: u32 = 0;
        let mut vn_of: HashMap<RegId, u32> = HashMap::new();
        let mut table: HashMap<Key, (u32, RegId)> = HashMap::new();

        fn vn(vn_of: &mut HashMap<RegId, u32>, next_vn: &mut u32, r: RegId) -> u32 {
            *vn_of.entry(r).or_insert_with(|| {
                *next_vn += 1;
                *next_vn
            })
        }

        for inst in &mut block.insts {
            let key = match &*inst {
                Inst::Const { val, .. } => val.scalar_type().map(|ty| {
                    let bits = match val {
                        Value::Bool(b) => *b as u64,
                        Value::I32(x) => *x as u32 as u64,
                        Value::I64(x) => *x as u64,
                        Value::F32(x) => x.to_bits() as u64,
                        Value::F64(x) => x.to_bits(),
                        Value::Ptr(_) => unreachable!("filtered by scalar_type"),
                    };
                    Key::Const(bits, ty)
                }),
                Inst::Bin { op, ty, a, b, .. } => {
                    let (va, vb) =
                        (vn(&mut vn_of, &mut next_vn, *a), vn(&mut vn_of, &mut next_vn, *b));
                    Some(Key::Bin(*op, *ty, va, vb))
                }
                Inst::Un { op, ty, a, .. } => {
                    Some(Key::Un(*op, *ty, vn(&mut vn_of, &mut next_vn, *a)))
                }
                Inst::Cmp { op, ty, a, b, .. } => {
                    let (va, vb) =
                        (vn(&mut vn_of, &mut next_vn, *a), vn(&mut vn_of, &mut next_vn, *b));
                    Some(Key::Cmp(*op, *ty, va, vb))
                }
                Inst::Select { ty, cond, a, b, .. } => {
                    let vc = vn(&mut vn_of, &mut next_vn, *cond);
                    let (va, vb) =
                        (vn(&mut vn_of, &mut next_vn, *a), vn(&mut vn_of, &mut next_vn, *b));
                    Some(Key::Select(*ty, vc, va, vb))
                }
                Inst::Cast { a, from, to, .. } => {
                    Some(Key::Cast(*from, *to, vn(&mut vn_of, &mut next_vn, *a)))
                }
                Inst::Call { func: f, ty, args, .. } => {
                    let vargs = args.iter().map(|r| vn(&mut vn_of, &mut next_vn, *r)).collect();
                    Some(Key::Call(*f, *ty, vargs))
                }
                Inst::WorkItem { query, dim, .. } => Some(Key::WorkItem(*query, *dim)),
                Inst::Gep { base, index, elem, .. } => {
                    let (vb, vi) =
                        (vn(&mut vn_of, &mut next_vn, *base), vn(&mut vn_of, &mut next_vn, *index));
                    Some(Key::Gep(*elem, vb, vi))
                }
                // Loads, stores, movs, barriers, pipe ops and phis are
                // not value-numbered expressions.
                Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::Mov { .. }
                | Inst::Barrier
                | Inst::PipeRead { .. }
                | Inst::PipeWrite { .. }
                | Inst::Phi { .. } => None,
            };

            match (key, inst.dst()) {
                (Some(key), Some(dst)) => {
                    if let Some(&(expr_vn, rep)) = table.get(&key) {
                        if rep != dst && vn_of.get(&rep) == Some(&expr_vn) {
                            // The representative still holds this value.
                            *inst = Inst::Mov { dst, src: rep };
                            vn_of.insert(dst, expr_vn);
                            continue;
                        }
                    }
                    next_vn += 1;
                    table.insert(key, (next_vn, dst));
                    vn_of.insert(dst, next_vn);
                }
                (None, Some(dst)) => {
                    // Unknown value (load, mov): give the destination a
                    // fresh number, invalidating stale representatives.
                    match inst {
                        Inst::Mov { src, .. } => {
                            let v = vn(&mut vn_of, &mut next_vn, *src);
                            vn_of.insert(dst, v);
                        }
                        _ => {
                            next_vn += 1;
                            vn_of.insert(dst, next_vn);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Copy propagation: rewrite uses of `Mov` destinations to read the
/// original register while the copy is still valid, so DCE can remove the
/// `Mov` itself. Runs after CSE (which introduces the copies).
fn propagate_copies_in(func: &mut Function) {
    for block in &mut func.blocks {
        // dst -> original source (fully resolved through chains).
        let mut copy_of: HashMap<RegId, RegId> = HashMap::new();
        for i in 0..block.insts.len() {
            // Rewrite sources first (uses see the state before this inst).
            let resolve =
                |copy_of: &HashMap<RegId, RegId>, r: RegId| copy_of.get(&r).copied().unwrap_or(r);
            let inst = &mut block.insts[i];
            match inst {
                Inst::Mov { src, .. } => *src = resolve(&copy_of, *src),
                Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                    *a = resolve(&copy_of, *a);
                    *b = resolve(&copy_of, *b);
                }
                Inst::Un { a, .. } => *a = resolve(&copy_of, *a),
                Inst::Select { cond, a, b, .. } => {
                    *cond = resolve(&copy_of, *cond);
                    *a = resolve(&copy_of, *a);
                    *b = resolve(&copy_of, *b);
                }
                Inst::Cast { a, .. } => *a = resolve(&copy_of, *a),
                Inst::Call { args, .. } => {
                    for r in args.iter_mut() {
                        *r = resolve(&copy_of, *r);
                    }
                }
                Inst::Gep { base, index, .. } => {
                    *base = resolve(&copy_of, *base);
                    *index = resolve(&copy_of, *index);
                }
                Inst::Load { ptr, .. } => *ptr = resolve(&copy_of, *ptr),
                Inst::Store { ptr, val, .. } => {
                    *ptr = resolve(&copy_of, *ptr);
                    *val = resolve(&copy_of, *val);
                }
                Inst::PipeRead { pipe, .. } => *pipe = resolve(&copy_of, *pipe),
                Inst::PipeWrite { pipe, val, .. } => {
                    *pipe = resolve(&copy_of, *pipe);
                    *val = resolve(&copy_of, *val);
                }
                // Phi args are *not* rewritten: they read their source at
                // the end of the predecessor block, outside this block's
                // copy map.
                Inst::Const { .. } | Inst::WorkItem { .. } | Inst::Barrier | Inst::Phi { .. } => {}
            }
            // Then update the copy map with this instruction's effect.
            if let Some(dst) = block.insts[i].dst() {
                // Any write invalidates copies *of* dst and copies *from*
                // dst (its old value is gone).
                copy_of.remove(&dst);
                copy_of.retain(|_, src| *src != dst);
                if let Inst::Mov { dst, src } = &block.insts[i] {
                    if dst != src {
                        copy_of.insert(*dst, *src);
                    }
                }
            }
        }
        // Rewrite the terminator condition too.
        if let Terminator::Branch { cond, .. } = &mut block.term {
            if let Some(src) = copy_of.get(cond) {
                *cond = *src;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
    use crate::ir::{BinOp, CmpOp};
    use crate::mathlib::ExactMath;
    use crate::types::{AddressSpace, ScalarType, Type};
    use crate::verify::verify_module;

    fn run_one(func: &Function) -> f64 {
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let shape = GroupShape::linear(1, 1, 0);
        let mut wg =
            WorkGroupRun::new(func, shape, &[KernelArgValue::GlobalBuffer(buf)], 0).expect("args");
        wg.run(&mut mem, &ExactMath).expect("runs");
        mem.read_f64(buf, 0)
    }

    /// out[0] = 3.0 behind a constant-false branch guarding out[0] = 7.0.
    fn const_branch_function() -> Function {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let one = b.const_i64(1);
        let two = b.const_i64(2);
        let cond = b.cmp(CmpOp::Gt, ScalarType::I64, one, two); // false
        let dead = b.create_block();
        let live = b.create_block();
        b.branch(cond, dead, live);
        b.switch_to(dead);
        let seven = b.const_f64(7.0);
        let z = b.const_i64(0);
        let s = b.gep(out, z, ScalarType::F64);
        b.store(s, seven, ScalarType::F64);
        b.ret();
        b.switch_to(live);
        let three = b.const_f64(3.0);
        let z2 = b.const_i64(0);
        let s2 = b.gep(out, z2, ScalarType::F64);
        b.store(s2, three, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn build_pipeline_folds_constant_branch_away() {
        let m = Module::from_functions("t", vec![const_branch_function()]);
        let blocks_before = m.functions[0].blocks.len();
        let (opt, report) = Pipeline::for_build(false, false).run(m);
        verify_module(&opt).expect("post-pass IR verifies");
        let f = &opt.functions[0];
        assert!(f.blocks.len() < blocks_before, "dead branch arm removed");
        assert!(f.blocks.iter().all(|b| !matches!(b.term, Terminator::Branch { .. })));
        assert_eq!(run_one(f), 3.0);
        assert_eq!(report.pipeline, "ssa");
        assert_eq!(report.passes.len(), 7);
        assert!(report.passes.iter().any(|p| p.shrank()), "something shrank");
        assert!(report.insts_removed() > 0);
    }

    #[test]
    fn equal_arm_branch_becomes_jump() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        let v = b.load(slot, ScalarType::F64);
        let c = b.cmp(CmpOp::Gt, ScalarType::F64, v, v); // not constant-known
        let join = b.create_block();
        b.branch(c, join, join);
        b.switch_to(join);
        let one = b.const_f64(1.0);
        b.store(slot, one, ScalarType::F64);
        b.ret();
        let f = b.finish().expect("valid");
        let m = Module::from_functions("t", vec![f]);
        let (opt, _) = Pipeline::for_build(false, false).run(m);
        verify_module(&opt).expect("verifies");
        assert!(opt.functions[0]
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Branch { .. })));
        assert_eq!(run_one(&opt.functions[0]), 1.0);
    }

    #[test]
    fn pipeline_is_idempotent_on_its_own_output() {
        let m = Module::from_functions("t", vec![const_branch_function()]);
        let (once, _) = Pipeline::for_build(false, false).run(m);
        let (twice, report) = Pipeline::for_build(false, false).run(once.clone());
        assert_eq!(once, twice, "second run is a no-op");
        assert!(report.passes.iter().all(|p| !p.shrank()));
    }

    #[test]
    fn cse_pipeline_removes_redundant_work() {
        // out[0] = v*v + v*v with the product computed twice.
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        let v = b.load(slot, ScalarType::F64);
        let p1 = b.bin(BinOp::Mul, ScalarType::F64, v, v);
        let p2 = b.bin(BinOp::Mul, ScalarType::F64, v, v);
        let sum = b.fadd(p1, p2, ScalarType::F64);
        b.store(slot, sum, ScalarType::F64);
        b.ret();
        let f = b.finish().expect("valid");
        let m = Module::from_functions("t", vec![f]);
        let muls = |m: &Module| {
            m.functions[0]
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
                .count()
        };
        assert_eq!(muls(&m), 2);
        let (plain, _) = Pipeline::for_build(false, false).run(m.clone());
        assert_eq!(muls(&plain), 2, "the pipeline without CSE leaves duplicates");
        let (cse, report) = Pipeline::for_build(false, true).run(m);
        verify_module(&cse).expect("verifies");
        assert_eq!(muls(&cse), 1, "CSE merges the duplicate product");
        assert_eq!(report.pipeline, "ssa+cse");
    }

    #[test]
    fn for_build_selects_the_ssa_pipelines() {
        let names = |p: &Pipeline| p.passes().iter().map(|p| p.name).collect::<Vec<_>>();
        let none = Pipeline::for_build(true, true);
        assert_eq!(none.name(), "none");
        assert!(none.passes().is_empty());
        let ssa = Pipeline::for_build(false, false);
        assert_eq!(ssa.name(), "ssa");
        assert_eq!(
            names(&ssa),
            [
                "const-fold",
                "cfg-simplify",
                "mem2reg",
                "ssa-prop",
                "dce",
                "out-of-ssa",
                "compact-regs"
            ]
        );
        let cse = Pipeline::for_build(false, true);
        assert_eq!(cse.name(), "ssa+cse");
        assert_eq!(
            names(&cse),
            [
                "const-fold",
                "local-cse",
                "cfg-simplify",
                "mem2reg",
                "ssa-prop",
                "local-cse",
                "dce",
                "out-of-ssa",
                "compact-regs"
            ]
        );
    }

    /// A loop with multiply-defined counter/accumulator registers: the
    /// SSA pipeline must promote them, lower back out of phi form, and
    /// preserve the computed value exactly.
    fn loop_function() -> Function {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let zero_f = b.const_f64(0.0);
        let zero_i = b.const_i64(0);
        let i = b.fresh(Type::Scalar(ScalarType::I64));
        let a = b.fresh(Type::Scalar(ScalarType::F64));
        b.mov_into(i, zero_i);
        b.mov_into(a, zero_f);
        let head = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(head);
        b.switch_to(head);
        let five = b.const_i64(5);
        let done = b.cmp(CmpOp::Ge, ScalarType::I64, i, five);
        b.branch(done, exit, body);
        b.switch_to(body);
        let one = b.const_i64(1);
        let i2 = b.bin(BinOp::Add, ScalarType::I64, i, one);
        b.mov_into(i, i2);
        let fi = b.cast(i, ScalarType::I64, ScalarType::F64);
        let a2 = b.fadd(a, fi, ScalarType::F64);
        b.mov_into(a, a2);
        b.jump(head);
        b.switch_to(exit);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, a, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn ssa_pipeline_promotes_locals_and_preserves_semantics() {
        let f = loop_function();
        let expected = run_one(&f);
        assert_eq!(expected, 15.0);
        let m = Module::from_functions("t", vec![f]);
        let (opt, report) = Pipeline::for_build(false, false).run(m);
        verify_module(&opt).expect("post-pipeline IR verifies");
        let f = &opt.functions[0];
        assert!(
            f.blocks.iter().flat_map(|b| &b.insts).all(|i| !matches!(i, Inst::Phi { .. })),
            "executable output is phi-free"
        );
        assert_eq!(run_one(f), expected, "value is bit-identical");
        let mem2reg = report.passes.iter().find(|p| p.name == "mem2reg").expect("mem2reg ran");
        assert!(mem2reg.locals_promoted() >= 2, "counter and accumulator promoted");
        assert!(
            mem2reg.multidef_after == 0,
            "mem2reg output is strict SSA (out-of-ssa may reintroduce edge copies later)"
        );
    }

    #[test]
    fn ssa_pipeline_rerun_preserves_semantics_and_does_not_grow() {
        let m = Module::from_functions("t", vec![loop_function()]);
        let (once, _) = Pipeline::for_build(false, false).run(m);
        let expected = run_one(&once.functions[0]);
        let insts_once = once.functions[0].inst_count();
        // The SSA round trip is not structurally idempotent (out-of-ssa
        // rebuilds edge copies that mem2reg re-promotes), but a rerun
        // must stay semantics-preserving and must not bloat the code.
        let (twice, _) = Pipeline::for_build(false, false).run(once.clone());
        verify_module(&twice).expect("verifies");
        assert_eq!(run_one(&twice.functions[0]), expected);
        assert!(twice.functions[0].inst_count() <= insts_once, "rerun does not grow the function");
    }

    #[test]
    fn report_displays_every_pass() {
        let m = Module::from_functions("t", vec![const_branch_function()]);
        let pipeline = Pipeline::for_build(false, true);
        let (_, report) = pipeline.run(m);
        let text = report.to_string();
        assert!(text.contains("pass pipeline `ssa+cse`"));
        for pass in pipeline.passes() {
            assert!(text.contains(pass.name), "missing {} in:\n{text}", pass.name);
        }
    }
}

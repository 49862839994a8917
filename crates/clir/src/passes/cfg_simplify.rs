//! Phi-aware CFG simplification.
//!
//! Iterates four rewrites to a fixpoint:
//!
//! 1. **Branch folding** — `br c, t, t` becomes `jump t`; a branch whose
//!    condition provably holds a compile-time boolean (block-locally, or
//!    via a dominating singly-defined constant) becomes a jump, and the
//!    dead edge's phi arguments are pruned.
//! 2. **Unreachable-block removal** — blocks the entry cannot reach are
//!    dropped, block ids are remapped, and phi arguments from removed
//!    predecessors are pruned.
//! 3. **Single-predecessor phi conversion** — a phi in a block with one
//!    predecessor is a plain copy; it becomes a `Mov` so later merges
//!    see phi-free blocks.
//! 4. **Straight-line merge / empty-block skip** — a block whose only
//!    successor has no other predecessors absorbs it; an empty block
//!    that just jumps on is skipped (only when the target carries no
//!    phis, so argument lists never need re-deriving).
//!
//! Every rewrite maintains the phi invariants checked by the verifier,
//! so the pass is safe anywhere in the build pipeline, on lowered IR and
//! on SSA form alike.

use super::dom::Cfg;
use crate::ir::{BlockId, Function, Inst, Module, RegId, Terminator};
use crate::value::Value;
use std::collections::HashMap;

/// Run [`cfg_simplify_in`] over every function of the module.
pub fn cfg_simplify(mut m: Module) -> Module {
    for f in &mut m.functions {
        cfg_simplify_in(f);
    }
    m
}

/// Simplify the control-flow graph of one function (see module docs).
pub fn cfg_simplify_in(func: &mut Function) {
    if func.blocks.is_empty() {
        return;
    }
    loop {
        let mut changed = false;
        changed |= fold_branches(func);
        changed |= remove_unreachable_in(func);
        changed |= single_pred_phis_to_movs(func);
        changed |= merge_straight_line(func);
        changed |= skip_empty_blocks(func);
        if !changed {
            return;
        }
    }
}

/// The constant (if any) a register holds at a block's terminator,
/// derived from a forward block-local scan (same discipline as
/// `const-fold`: any other write kills the knowledge).
fn local_known_at_term(func: &Function, b: usize) -> HashMap<RegId, Value> {
    let mut known: HashMap<RegId, Value> = HashMap::new();
    for inst in &func.blocks[b].insts {
        if let Some(dst) = inst.dst() {
            match inst {
                Inst::Const { val, .. } => {
                    known.insert(dst, *val);
                }
                Inst::Mov { src, .. } => match known.get(src).copied() {
                    Some(v) => {
                        known.insert(dst, v);
                    }
                    None => {
                        known.remove(&dst);
                    }
                },
                _ => {
                    known.remove(&dst);
                }
            }
        }
    }
    known
}

/// Fold equal-arm and constant-condition branches into jumps, pruning
/// phi arguments along the removed edge.
fn fold_branches(func: &mut Function) -> bool {
    let cfg = Cfg::new(func);
    // Singly-defined boolean constants, for conditions defined in another
    // block (valid wherever the definition dominates).
    let nregs = func.reg_types.len();
    let mut def_count = vec![0u32; nregs];
    for c in def_count.iter_mut().take(func.params.len()) {
        *c += 1;
    }
    let mut const_def: Vec<Option<(Value, (usize, usize))>> = vec![None; nregs];
    for (bi, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(dst) = inst.dst() {
                def_count[dst.index()] += 1;
                if let Inst::Const { val, .. } = inst {
                    const_def[dst.index()] = Some((*val, (bi, i)));
                }
            }
        }
    }

    let mut changed = false;
    for b in 0..func.blocks.len() {
        let Terminator::Branch { cond, then_bb, else_bb } = func.blocks[b].term else {
            continue;
        };
        if then_bb == else_bb {
            func.blocks[b].term = Terminator::Jump(then_bb);
            changed = true;
            continue;
        }
        let local = local_known_at_term(func, b).get(&cond).copied();
        let global = match const_def[cond.index()] {
            Some((val, site))
                if def_count[cond.index()] == 1
                    && cfg.dominates_site(site, (b, func.blocks[b].insts.len())) =>
            {
                Some(val)
            }
            _ => None,
        };
        if let Some(Value::Bool(taken)) = local.or(global) {
            let (to, dead) = if taken { (then_bb, else_bb) } else { (else_bb, then_bb) };
            func.blocks[b].term = Terminator::Jump(to);
            prune_phi_args(func, dead.index(), b);
            changed = true;
        }
    }
    changed
}

/// Remove phi arguments in block `b` coming from predecessor `pred`.
fn prune_phi_args(func: &mut Function, b: usize, pred: usize) {
    for inst in &mut func.blocks[b].insts {
        if let Inst::Phi { args, .. } = inst {
            args.retain(|&(p, _)| p.index() != pred);
        }
    }
}

/// Drop blocks unreachable from the entry, remapping block ids in
/// terminators and phi arguments and pruning phi arguments from removed
/// predecessors. Returns whether anything was removed. Shared with
/// `mem2reg`, which needs a fully-reachable CFG before renaming.
pub(crate) fn remove_unreachable_in(func: &mut Function) -> bool {
    let mut reachable = vec![false; func.blocks.len()];
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        if reachable[b] {
            continue;
        }
        reachable[b] = true;
        for succ in func.blocks[b].term.successors() {
            work.push(succ.index());
        }
    }
    if reachable.iter().all(|&r| r) {
        return false;
    }
    let mut remap: HashMap<usize, u32> = HashMap::new();
    let mut kept = 0u32;
    for (i, &r) in reachable.iter().enumerate() {
        if r {
            remap.insert(i, kept);
            kept += 1;
        }
    }
    let blocks = std::mem::take(&mut func.blocks);
    func.blocks = blocks
        .into_iter()
        .enumerate()
        .filter(|(i, _)| reachable[*i])
        .map(|(_, mut block)| {
            for inst in &mut block.insts {
                if let Inst::Phi { args, .. } = inst {
                    args.retain(|&(p, _)| reachable[p.index()]);
                    for (p, _) in args.iter_mut() {
                        *p = BlockId(remap[&p.index()]);
                    }
                }
            }
            match &mut block.term {
                Terminator::Jump(t) => *t = BlockId(remap[&t.index()]),
                Terminator::Branch { then_bb, else_bb, .. } => {
                    *then_bb = BlockId(remap[&then_bb.index()]);
                    *else_bb = BlockId(remap[&else_bb.index()]);
                }
                Terminator::Return => {}
            }
            block
        })
        .collect();
    true
}

/// Convert phis in single-predecessor blocks to plain copies.
///
/// Safe sequentially: in a reachable single-predecessor block no phi
/// argument can name another phi destination of the same block (that
/// would require the block to dominate its only predecessor, which would
/// make both unreachable).
fn single_pred_phis_to_movs(func: &mut Function) -> bool {
    let cfg = Cfg::new(func);
    let mut changed = false;
    for b in 0..func.blocks.len() {
        if cfg.preds[b].len() != 1 {
            continue;
        }
        for inst in &mut func.blocks[b].insts {
            if let Inst::Phi { dst, args, .. } = inst {
                assert_eq!(args.len(), 1, "verified phi has one arg per predecessor");
                *inst = Inst::Mov { dst: *dst, src: args[0].1 };
                changed = true;
            }
        }
    }
    changed
}

/// Merge `b -> s` when `b` ends in `jump s` and `s` has no other
/// predecessor. `s`'s instructions and terminator move into `b`; phi
/// arguments in `s`'s successors are relabelled from `s` to `b`; `s` is
/// left empty and unreachable (removed on the next fixpoint round).
fn merge_straight_line(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let cfg = Cfg::new(func);
        let mut merged = false;
        for b in 0..func.blocks.len() {
            if !cfg.reachable(b) {
                continue;
            }
            let Terminator::Jump(s) = func.blocks[b].term else {
                continue;
            };
            let s = s.index();
            if s == 0 || s == b || cfg.preds[s] != vec![b] {
                continue;
            }
            if func.blocks[s].insts.iter().any(|i| matches!(i, Inst::Phi { .. })) {
                continue; // converted to movs on a later round
            }
            let mut insts = std::mem::take(&mut func.blocks[s].insts);
            let term = std::mem::replace(&mut func.blocks[s].term, Terminator::Return);
            func.blocks[b].insts.append(&mut insts);
            func.blocks[b].term = term;
            // `s`'s former successors now see `b` as the predecessor.
            for succ in func.blocks[b].term.successors() {
                for inst in &mut func.blocks[succ.index()].insts {
                    if let Inst::Phi { args, .. } = inst {
                        for (p, _) in args.iter_mut() {
                            if p.index() == s {
                                *p = BlockId(b as u32);
                            }
                        }
                    }
                }
            }
            merged = true;
            changed = true;
            break; // CFG facts are stale; recompute
        }
        if !merged {
            return changed;
        }
    }
}

/// Retarget edges through empty forwarding blocks (`jump`-only, no
/// instructions). Skipped when the final target has phis: the forwarded
/// predecessors would need freshly derived argument entries.
fn skip_empty_blocks(func: &mut Function) -> bool {
    let mut changed = false;
    for e in 1..func.blocks.len() {
        if !func.blocks[e].insts.is_empty() {
            continue;
        }
        let Terminator::Jump(t) = func.blocks[e].term else {
            continue;
        };
        let t = t.index();
        if t == e || func.blocks[t].insts.iter().any(|i| matches!(i, Inst::Phi { .. })) {
            continue;
        }
        // Never forward into another empty jump-only block: cycles of
        // empty blocks (a legal spin loop) would make retargeting
        // oscillate forever.
        if func.blocks[t].insts.is_empty() && matches!(func.blocks[t].term, Terminator::Jump(_)) {
            continue;
        }
        for b in 0..func.blocks.len() {
            if b == e {
                continue;
            }
            match &mut func.blocks[b].term {
                Terminator::Jump(x) if x.index() == e => {
                    *x = BlockId(t as u32);
                    changed = true;
                }
                Terminator::Branch { then_bb, else_bb, .. } => {
                    if then_bb.index() == e {
                        *then_bb = BlockId(t as u32);
                        changed = true;
                    }
                    if else_bb.index() == e {
                        *else_bb = BlockId(t as u32);
                        changed = true;
                    }
                }
                _ => {}
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{AddressSpace, ScalarType, Type};
    use crate::verify::verify_module;

    /// Chain entry -> a -> b -> ret with an unreachable arm, for the
    /// merge + unreachable rewrites.
    #[test]
    fn chain_collapses_to_one_block() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let a_bb = b.create_block();
        let b_bb = b.create_block();
        b.jump(a_bb);
        b.switch_to(a_bb);
        let one = b.const_f64(1.0);
        b.jump(b_bb);
        b.switch_to(b_bb);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, one, ScalarType::F64);
        b.ret();
        let mut f = b.finish().expect("valid");
        assert_eq!(f.blocks.len(), 3);
        cfg_simplify_in(&mut f);
        let m = Module::from_functions("t", vec![f]);
        verify_module(&m).expect("verifies");
        assert_eq!(m.functions[0].blocks.len(), 1, "straight line merges into the entry");
    }

    #[test]
    fn cross_block_constant_condition_folds_the_branch() {
        // The condition is a constant defined in the entry; the branch
        // sits in a later block, out of reach of block-local folding.
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let c = b.const_bool(false);
        let mid = b.create_block();
        let dead = b.create_block();
        let live = b.create_block();
        b.jump(mid);
        b.switch_to(mid);
        b.branch(c, dead, live);
        b.switch_to(dead);
        b.ret();
        b.switch_to(live);
        let three = b.const_f64(3.0);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, three, ScalarType::F64);
        b.ret();
        let mut f = b.finish().expect("valid");
        cfg_simplify_in(&mut f);
        let m = Module::from_functions("t", vec![f]);
        verify_module(&m).expect("verifies");
        let f = &m.functions[0];
        assert!(f.blocks.iter().all(|b| !matches!(b.term, Terminator::Branch { .. })));
        assert!(
            f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Store { .. })),
            "live arm survives"
        );
    }
}

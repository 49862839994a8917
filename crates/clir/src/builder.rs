//! A convenience builder for constructing IR functions directly.
//!
//! The OpenCL-C front-end (`bop-clc`) uses this builder for lowering; tests
//! and benchmarks use it to create kernels without going through source
//! text.

use crate::ir::{
    BinOp, Block, BlockId, Builtin, CmpOp, Function, Inst, Param, RegId, Terminator, UnOp, WiQuery,
};
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{PtrValue, Value};
use crate::verify::{self, VerifyError};
use std::fmt;

/// Error returned by [`FunctionBuilder::finish`].
#[derive(Debug)]
pub enum BuildError {
    /// A block was left without a terminator.
    UnterminatedBlock(BlockId),
    /// The finished function failed IR verification.
    Verify(VerifyError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnterminatedBlock(b) => write!(f, "block b{} has no terminator", b.0),
            BuildError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<VerifyError> for BuildError {
    fn from(e: VerifyError) -> BuildError {
        BuildError::Verify(e)
    }
}

struct PendingBlock {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

/// Builds one [`Function`] instruction by instruction.
pub struct FunctionBuilder {
    name: String,
    is_kernel: bool,
    params: Vec<Param>,
    reg_types: Vec<Type>,
    blocks: Vec<PendingBlock>,
    current: BlockId,
    private_bytes: usize,
}

impl FunctionBuilder {
    /// Start building a function; block 0 (the entry) is created and made
    /// current.
    pub fn new(name: &str, is_kernel: bool) -> FunctionBuilder {
        FunctionBuilder {
            name: name.to_owned(),
            is_kernel,
            params: Vec::new(),
            reg_types: Vec::new(),
            blocks: vec![PendingBlock { insts: Vec::new(), term: None }],
            current: BlockId(0),
            private_bytes: 0,
        }
    }

    /// Declare a parameter (must be called before emitting instructions
    /// that allocate registers, so parameters get the first register ids).
    pub fn param(&mut self, name: &str, ty: Type) -> RegId {
        debug_assert_eq!(
            self.params.len(),
            self.reg_types.len(),
            "declare all parameters before emitting instructions"
        );
        let reg = self.fresh(ty);
        self.params.push(Param { name: name.to_owned(), ty });
        reg
    }

    /// Allocate a fresh register of type `ty` without defining it.
    pub fn fresh(&mut self, ty: Type) -> RegId {
        let id = RegId(self.reg_types.len() as u32);
        self.reg_types.push(ty);
        id
    }

    /// Reserve `bytes` of per-work-item private storage, returning a
    /// register holding a pointer to its start.
    pub fn alloc_private(&mut self, bytes: usize, elem: ScalarType) -> RegId {
        let offset = self.private_bytes as i64;
        self.private_bytes += bytes;
        let dst = self.fresh(Type::ptr(AddressSpace::Private, elem));
        self.push(Inst::Const {
            dst,
            val: Value::Ptr(PtrValue { space: AddressSpace::Private, buffer: 0, offset }),
        });
        dst
    }

    /// Create a new, empty block (does not switch to it).
    pub fn create_block(&mut self) -> BlockId {
        self.blocks.push(PendingBlock { insts: Vec::new(), term: None });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Make `bb` the block that subsequently emitted instructions go to.
    ///
    /// # Panics
    /// Panics if `bb` is already terminated.
    pub fn switch_to(&mut self, bb: BlockId) {
        assert!(self.blocks[bb.index()].term.is_none(), "switching to terminated block b{}", bb.0);
        self.current = bb;
    }

    /// The block currently being filled.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// True if the current block already has a terminator.
    pub fn current_terminated(&self) -> bool {
        self.blocks[self.current.index()].term.is_some()
    }

    fn push(&mut self, inst: Inst) {
        let blk = &mut self.blocks[self.current.index()];
        assert!(blk.term.is_none(), "emitting into terminated block b{}", self.current.0);
        blk.insts.push(inst);
    }

    fn def(&mut self, ty: Type, make: impl FnOnce(RegId) -> Inst) -> RegId {
        let dst = self.fresh(ty);
        let inst = make(dst);
        self.push(inst);
        dst
    }

    // ---- constants -------------------------------------------------------

    /// Emit an `f64` constant.
    pub fn const_f64(&mut self, x: f64) -> RegId {
        self.def(ScalarType::F64.into(), |dst| Inst::Const { dst, val: Value::F64(x) })
    }

    /// Emit an `f32` constant.
    pub fn const_f32(&mut self, x: f32) -> RegId {
        self.def(ScalarType::F32.into(), |dst| Inst::Const { dst, val: Value::F32(x) })
    }

    /// Emit an `i32` constant.
    pub fn const_i32(&mut self, x: i32) -> RegId {
        self.def(ScalarType::I32.into(), |dst| Inst::Const { dst, val: Value::I32(x) })
    }

    /// Emit an `i64` constant.
    pub fn const_i64(&mut self, x: i64) -> RegId {
        self.def(ScalarType::I64.into(), |dst| Inst::Const { dst, val: Value::I64(x) })
    }

    /// Emit a `bool` constant.
    pub fn const_bool(&mut self, x: bool) -> RegId {
        self.def(ScalarType::Bool.into(), |dst| Inst::Const { dst, val: Value::Bool(x) })
    }

    /// Emit an arbitrary constant value.
    pub fn constant(&mut self, val: Value) -> RegId {
        let ty = match val {
            Value::Ptr(p) => Type::Ptr(p.space, ScalarType::F64),
            other => Type::Scalar(other.scalar_type().expect("scalar")),
        };
        self.def(ty, |dst| Inst::Const { dst, val })
    }

    // ---- arithmetic ------------------------------------------------------

    /// Emit a binary operation at type `ty`.
    pub fn bin(&mut self, op: BinOp, ty: ScalarType, a: RegId, b: RegId) -> RegId {
        self.def(ty.into(), |dst| Inst::Bin { op, ty, dst, a, b })
    }

    /// `a + b` at float type `ty`.
    pub fn fadd(&mut self, a: RegId, b: RegId, ty: ScalarType) -> RegId {
        self.bin(BinOp::Add, ty, a, b)
    }

    /// `a * b` at float type `ty`.
    pub fn fmul(&mut self, a: RegId, b: RegId, ty: ScalarType) -> RegId {
        self.bin(BinOp::Mul, ty, a, b)
    }

    /// `a / b` at float type `ty`.
    pub fn fdiv(&mut self, a: RegId, b: RegId, ty: ScalarType) -> RegId {
        self.bin(BinOp::Div, ty, a, b)
    }

    /// `fmax(a, b)` at float type `ty`.
    pub fn fmax(&mut self, a: RegId, b: RegId, ty: ScalarType) -> RegId {
        self.bin(BinOp::Max, ty, a, b)
    }

    /// Emit a unary operation at type `ty`.
    pub fn un(&mut self, op: UnOp, ty: ScalarType, a: RegId) -> RegId {
        self.def(ty.into(), |dst| Inst::Un { op, ty, dst, a })
    }

    /// Emit a comparison; the result register is `Bool`.
    pub fn cmp(&mut self, op: CmpOp, ty: ScalarType, a: RegId, b: RegId) -> RegId {
        self.def(ScalarType::Bool.into(), |dst| Inst::Cmp { op, ty, dst, a, b })
    }

    /// Emit a select (`cond ? a : b`).
    pub fn select(&mut self, ty: ScalarType, cond: RegId, a: RegId, b: RegId) -> RegId {
        self.def(ty.into(), |dst| Inst::Select { ty, dst, cond, a, b })
    }

    /// Emit a scalar conversion.
    pub fn cast(&mut self, a: RegId, from: ScalarType, to: ScalarType) -> RegId {
        self.def(to.into(), |dst| Inst::Cast { dst, a, from, to })
    }

    /// Emit a math builtin call at float type `ty`.
    pub fn call(&mut self, func: Builtin, ty: ScalarType, args: &[RegId]) -> RegId {
        assert_eq!(args.len(), func.arity(), "{} takes {} args", func.name(), func.arity());
        let args = args.to_vec();
        self.def(ty.into(), |dst| Inst::Call { func, ty, dst, args })
    }

    /// Copy `src` into pre-allocated register `dst`.
    pub fn mov_into(&mut self, dst: RegId, src: RegId) {
        self.push(Inst::Mov { dst, src });
    }

    // ---- work-item queries ----------------------------------------------

    /// Emit a work-item geometry query.
    pub fn wi_query(&mut self, query: WiQuery, dim: u8) -> RegId {
        self.def(ScalarType::I64.into(), |dst| Inst::WorkItem { query, dim, dst })
    }

    /// `get_global_id(dim)`.
    pub fn global_id(&mut self, dim: u8) -> RegId {
        self.wi_query(WiQuery::GlobalId, dim)
    }

    /// `get_local_id(dim)`.
    pub fn local_id(&mut self, dim: u8) -> RegId {
        self.wi_query(WiQuery::LocalId, dim)
    }

    /// `get_group_id(dim)`.
    pub fn group_id(&mut self, dim: u8) -> RegId {
        self.wi_query(WiQuery::GroupId, dim)
    }

    // ---- memory ----------------------------------------------------------

    /// Pointer displacement: `&base[index]`.
    pub fn gep(&mut self, base: RegId, index: RegId, elem: ScalarType) -> RegId {
        let base_ty = self.reg_types[base.index()];
        let space = match base_ty {
            Type::Ptr(space, _) => space,
            Type::Scalar(_) => panic!("gep base must be a pointer"),
        };
        self.def(Type::ptr(space, elem), |dst| Inst::Gep { dst, base, index, elem })
    }

    /// Load a scalar of type `ty` through `ptr`.
    pub fn load(&mut self, ptr: RegId, ty: ScalarType) -> RegId {
        self.def(ty.into(), |dst| Inst::Load { dst, ptr, ty })
    }

    /// Store `val` (of type `ty`) through `ptr`.
    pub fn store(&mut self, ptr: RegId, val: RegId, ty: ScalarType) {
        self.push(Inst::Store { ptr, val, ty });
    }

    /// Emit a work-group barrier.
    pub fn barrier(&mut self) {
        self.push(Inst::Barrier);
    }

    /// Blocking read of one `ty` element from the pipe handle in `pipe`.
    pub fn pipe_read(&mut self, pipe: RegId, ty: ScalarType) -> RegId {
        self.def(ty.into(), |dst| Inst::PipeRead { dst, pipe, ty })
    }

    /// Blocking write of `val` (of type `ty`) into the pipe handle in
    /// `pipe`.
    pub fn pipe_write(&mut self, pipe: RegId, val: RegId, ty: ScalarType) {
        self.push(Inst::PipeWrite { pipe, val, ty });
    }

    // ---- control flow ----------------------------------------------------

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminate the current block with a conditional branch.
    pub fn branch(&mut self, cond: RegId, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Branch { cond, then_bb, else_bb });
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self) {
        self.terminate(Terminator::Return);
    }

    fn terminate(&mut self, term: Terminator) {
        let blk = &mut self.blocks[self.current.index()];
        assert!(blk.term.is_none(), "block b{} terminated twice", self.current.0);
        blk.term = Some(term);
    }

    /// Finish and verify the function.
    ///
    /// # Errors
    /// Returns [`BuildError::UnterminatedBlock`] if any block lacks a
    /// terminator, or [`BuildError::Verify`] if the IR is malformed.
    pub fn finish(self) -> Result<Function, BuildError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.into_iter().enumerate() {
            let term = b.term.ok_or(BuildError::UnterminatedBlock(BlockId(i as u32)))?;
            blocks.push(Block { insts: b.insts, term });
        }
        let func = Function {
            name: self.name,
            params: self.params,
            is_kernel: self.is_kernel,
            reg_types: self.reg_types,
            blocks,
            private_bytes: self.private_bytes,
        };
        verify::verify_function(&func)?;
        Ok(func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_function() {
        let mut b = FunctionBuilder::new("f", true);
        let p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let one = b.const_f64(1.0);
        let two = b.const_f64(2.0);
        let three = b.fadd(one, two, ScalarType::F64);
        let zero = b.const_i64(0);
        let slot = b.gep(p, zero, ScalarType::F64);
        b.store(slot, three, ScalarType::F64);
        b.ret();
        let f = b.finish().expect("valid function");
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.params.len(), 1);
        assert!(f.is_kernel);
        assert_eq!(f.inst_count(), 6);
    }

    #[test]
    fn unterminated_block_is_an_error() {
        let b = FunctionBuilder::new("f", false);
        match b.finish() {
            Err(BuildError::UnterminatedBlock(BlockId(0))) => {}
            other => panic!("expected unterminated-block error, got {other:?}"),
        }
    }

    #[test]
    fn control_flow_diamond() {
        let mut b = FunctionBuilder::new("f", true);
        let cond = b.const_bool(true);
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.branch(cond, t, e);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(e);
        b.jump(join);
        b.switch_to(join);
        b.ret();
        let f = b.finish().expect("valid function");
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("f", false);
        b.ret();
        b.ret();
    }

    #[test]
    fn private_allocation_accumulates() {
        let mut b = FunctionBuilder::new("f", true);
        let p0 = b.alloc_private(32, ScalarType::F64);
        let p1 = b.alloc_private(16, ScalarType::F64);
        b.ret();
        let f = b.finish().expect("valid");
        assert_eq!(f.private_bytes, 48);
        assert_ne!(p0, p1);
    }
}

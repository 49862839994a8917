//! # bop-clir — dataflow IR and interpreter for the bop OpenCL/FPGA stack
//!
//! This crate is the common substrate of the DATE 2014 reproduction: a small,
//! register-based intermediate representation (IR) for OpenCL-C kernels,
//! together with
//!
//! * a work-group **interpreter** with faithful barrier suspension semantics
//!   ([`interp`]), kept as the reference oracle, and a compiled
//!   **bytecode engine** ([`bytecode`]) that is bit-identical to it but
//!   runs a linear op stream once per SIMT group of lockstep work-items,
//! * an optimizing **pass pipeline** ([`passes`]: constant folding, DCE,
//!   local CSE, branch simplification) standing in for the scalar cleanups
//!   of the offline `aoc` compiler,
//! * pluggable **device math libraries** ([`mathlib`]) including a
//!   reduced-precision library that reproduces the paper's FPGA `pow`
//!   operator inaccuracy (Section V.C of the paper),
//! * **dynamic execution statistics** ([`stats`]) consumed by the FPGA, GPU
//!   and CPU performance models, and
//! * an IR [`verify`]er and a [`builder`] for constructing functions in
//!   tests without the front-end.
//!
//! The front-end that produces this IR from OpenCL C sources lives in the
//! `bop-clc` crate; devices that consume it live in `bop-fpga`, `bop-gpu`
//! and `bop-cpu`.
//!
//! ## Example
//!
//! Build a tiny kernel by hand and run one work-group of four items:
//!
//! ```
//! use bop_clir::builder::FunctionBuilder;
//! use bop_clir::ir::Module;
//! use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
//! use bop_clir::mathlib::ExactMath;
//! use bop_clir::types::{AddressSpace, ScalarType, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // __kernel void twice(__global double* out) { out[gid] = 2.0 * gid; }
//! let mut b = FunctionBuilder::new("twice", true);
//! let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
//! let gid = b.global_id(0);
//! let gid_f = b.cast(gid, ScalarType::I64, ScalarType::F64);
//! let two = b.const_f64(2.0);
//! let v = b.fmul(two, gid_f, ScalarType::F64);
//! let slot = b.gep(out, gid, ScalarType::F64);
//! b.store(slot, v, ScalarType::F64);
//! b.ret();
//! let func = b.finish()?;
//! let module = Module::from_functions("example", vec![func]);
//!
//! let mut mem = VecMemory::new();
//! let buf = mem.alloc_global(4 * 8);
//! let shape = GroupShape::linear(4, 4, 0);
//! let mut run = WorkGroupRun::new(module.kernel("twice").unwrap(), shape,
//!                                 &[KernelArgValue::GlobalBuffer(buf)], 0)?;
//! run.run(&mut mem, &ExactMath)?;
//! assert_eq!(mem.read_f64(buf, 3), 6.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod bytecode;
pub mod display;
pub mod eval;
pub mod interp;
pub mod ir;
pub mod mathlib;
pub mod passes;
pub mod pipes;
pub mod softmath;
pub mod stats;
pub mod types;
pub mod value;
pub mod verify;

pub use ir::{
    BinOp, Block, BlockId, Builtin, CmpOp, Function, Inst, Module, Param, RegId, Terminator, UnOp,
    WiQuery,
};
pub use types::{AddressSpace, ScalarType, Type};
pub use value::{PtrValue, Value};

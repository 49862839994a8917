//! Scalar and pointer types of the IR.
//!
//! The type system is deliberately small: the OpenCL-C subset accepted by
//! `bop-clc` only manipulates scalars and pointers-to-scalars in one of the
//! four OpenCL address spaces. `size_t`, `long` and `ulong` all map to
//! [`ScalarType::I64`]; `int` and `uint` map to [`ScalarType::I32`]
//! (arithmetic is two's-complement wrapping, which is sufficient for the
//! indexing arithmetic appearing in pricing kernels).

use std::fmt;

/// OpenCL address spaces.
///
/// The paper's two kernels differ precisely in how they exploit these
/// spaces (Figure 3 vs Figure 4): the straightforward kernel streams
/// everything through `Global` ping-pong buffers, while the optimized kernel
/// keeps per-row state in `Private` registers and the shared V row in
/// `Local` on-chip RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressSpace {
    /// Off-chip device memory, visible to the host and every work-group.
    Global,
    /// On-chip memory shared by one work-group (M9K blocks on the FPGA).
    Local,
    /// Per-work-item storage (flip-flops / registers on the FPGA).
    Private,
    /// Read-only global memory.
    Constant,
    /// An on-chip FIFO channel (OpenCL `pipe`). A `Ptr(Pipe, elem)`
    /// value is a pipe handle: `buffer` is the pipe id, the offset is
    /// unused. Pipes are accessed only through `pipe_read`/`pipe_write`
    /// — `Gep`/`Load`/`Store` through this space are verifier errors.
    Pipe,
}

impl AddressSpace {
    /// The OpenCL C qualifier spelling, e.g. `__global`.
    pub fn qualifier(self) -> &'static str {
        match self {
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
            AddressSpace::Private => "__private",
            AddressSpace::Constant => "__constant",
            AddressSpace::Pipe => "pipe",
        }
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.qualifier())
    }
}

/// Scalar machine types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 1-byte boolean.
    Bool,
    /// 32-bit two's-complement integer (`int`, `uint`).
    I32,
    /// 64-bit two's-complement integer (`long`, `ulong`, `size_t`).
    I64,
    /// IEEE-754 binary32 (`float`).
    F32,
    /// IEEE-754 binary64 (`double`).
    F64,
}

impl ScalarType {
    /// Size of a value of this type in bytes, as laid out in buffers.
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::Bool => 1,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 => 8,
        }
    }

    /// True for `F32`/`F64`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// True for `I32`/`I64`.
    pub fn is_int(self) -> bool {
        matches!(self, ScalarType::I32 | ScalarType::I64)
    }

    /// OpenCL C spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::Bool => "bool",
            ScalarType::I32 => "int",
            ScalarType::I64 => "long",
            ScalarType::F32 => "float",
            ScalarType::F64 => "double",
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A full IR type: either a scalar or a pointer to a scalar in a given
/// address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar value.
    Scalar(ScalarType),
    /// A pointer to scalars living in `space`.
    Ptr(AddressSpace, ScalarType),
}

impl Type {
    /// Convenience constructor for pointer types.
    pub fn ptr(space: AddressSpace, elem: ScalarType) -> Type {
        Type::Ptr(space, elem)
    }

    /// The scalar type if `self` is scalar.
    pub fn as_scalar(self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(s),
            Type::Ptr(..) => None,
        }
    }

    /// The pointee type if `self` is a pointer.
    pub fn pointee(self) -> Option<ScalarType> {
        match self {
            Type::Ptr(_, elem) => Some(elem),
            Type::Scalar(_) => None,
        }
    }

    /// True if `self` is a pointer type.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr(..))
    }
}

impl From<ScalarType> for Type {
    fn from(s: ScalarType) -> Type {
        Type::Scalar(s)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Ptr(space, elem) => write!(f, "{space} {elem}*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_layout() {
        assert_eq!(ScalarType::Bool.size_bytes(), 1);
        assert_eq!(ScalarType::I32.size_bytes(), 4);
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::I64.size_bytes(), 8);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
    }

    #[test]
    fn classification() {
        assert!(ScalarType::F64.is_float());
        assert!(!ScalarType::F64.is_int());
        assert!(ScalarType::I32.is_int());
        assert!(!ScalarType::Bool.is_int());
        assert!(!ScalarType::Bool.is_float());
    }

    #[test]
    fn type_accessors() {
        let p = Type::ptr(AddressSpace::Global, ScalarType::F64);
        assert!(p.is_ptr());
        assert_eq!(p.pointee(), Some(ScalarType::F64));
        assert_eq!(p.as_scalar(), None);
        let s = Type::Scalar(ScalarType::I32);
        assert_eq!(s.as_scalar(), Some(ScalarType::I32));
        assert_eq!(s.pointee(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Scalar(ScalarType::F64).to_string(), "double");
        assert_eq!(Type::ptr(AddressSpace::Local, ScalarType::F32).to_string(), "__local float*");
        assert_eq!(AddressSpace::Constant.to_string(), "__constant");
    }
}

//! Runtime values manipulated by the interpreter.

use crate::types::{AddressSpace, ScalarType};
use std::fmt;

/// A pointer value: an address space, a buffer handle within that space and
/// a byte offset.
///
/// * `Global`/`Constant` pointers reference a buffer allocated through the
///   host runtime; `buffer` is the handle the runtime assigned.
/// * `Local` pointers reference one of the work-group's local allocations
///   (`buffer` is the local-argument slot index).
/// * `Private` pointers reference the per-work-item private arena
///   (`buffer` is unused and zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtrValue {
    /// Address space this pointer refers to.
    pub space: AddressSpace,
    /// Buffer handle within the space (see type-level docs).
    pub buffer: u32,
    /// Byte offset from the start of the buffer. May transiently be
    /// negative during index arithmetic; dereferencing a negative offset is
    /// an error.
    pub offset: i64,
}

impl PtrValue {
    /// A pointer to the start of `buffer` in `space`.
    pub fn new(space: AddressSpace, buffer: u32) -> PtrValue {
        PtrValue { space, buffer, offset: 0 }
    }

    /// This pointer displaced by `count` elements of `elem`.
    pub fn offset_by(self, count: i64, elem: ScalarType) -> PtrValue {
        PtrValue { offset: displaced(self.offset, count, elem.size_bytes() as i64), ..self }
    }
}

/// Byte `offset` displaced by `count` elements of `size` bytes: the one
/// pointer-offset rule, shared by [`PtrValue::offset_by`] and the lanes
/// engine's offset plane. It wraps, in every build, so an address
/// computation never fails by itself: an out-of-range offset fails typed
/// at the load or store that uses it, and a gep the lanes engine hoists
/// out of a loop may run on a trip that never uses it.
#[inline(always)]
pub(crate) fn displaced(offset: i64, count: i64, size: i64) -> i64 {
    offset.wrapping_add(count.wrapping_mul(size))
}

impl fmt::Display for PtrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}+{}", self.space, self.buffer, self.offset)
    }
}

/// A dynamically-typed scalar or pointer value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// IEEE-754 binary32.
    F32(f32),
    /// IEEE-754 binary64.
    F64(f64),
    /// Pointer.
    Ptr(PtrValue),
}

impl Value {
    /// The scalar type of this value, or `None` for pointers.
    pub fn scalar_type(&self) -> Option<ScalarType> {
        match self {
            Value::Bool(_) => Some(ScalarType::Bool),
            Value::I32(_) => Some(ScalarType::I32),
            Value::I64(_) => Some(ScalarType::I64),
            Value::F32(_) => Some(ScalarType::F32),
            Value::F64(_) => Some(ScalarType::F64),
            Value::Ptr(_) => None,
        }
    }

    /// Interpret as `f64`, widening `F32`.
    ///
    /// # Panics
    /// Panics if the value is not a float; the verifier guarantees typed IR
    /// never reaches this case.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Value::F32(x) => x as f64,
            Value::F64(x) => x,
            ref other => panic!("expected float value, found {other:?}"),
        }
    }

    /// Interpret as `i64`, widening `I32` and `Bool`.
    ///
    /// # Panics
    /// Panics if the value is not an integer or boolean.
    pub fn as_i64(&self) -> i64 {
        match *self {
            Value::Bool(b) => b as i64,
            Value::I32(x) => x as i64,
            Value::I64(x) => x,
            ref other => panic!("expected integer value, found {other:?}"),
        }
    }

    /// Interpret as a boolean.
    ///
    /// # Panics
    /// Panics if the value is not `Bool`.
    pub fn as_bool(&self) -> bool {
        match *self {
            Value::Bool(b) => b,
            ref other => panic!("expected bool value, found {other:?}"),
        }
    }

    /// Interpret as a pointer.
    ///
    /// # Panics
    /// Panics if the value is not `Ptr`.
    pub fn as_ptr(&self) -> PtrValue {
        match *self {
            Value::Ptr(p) => p,
            ref other => panic!("expected pointer value, found {other:?}"),
        }
    }

    /// Construct a float value of the requested width from an `f64`.
    pub fn float(ty: ScalarType, x: f64) -> Value {
        match ty {
            ScalarType::F32 => Value::F32(x as f32),
            ScalarType::F64 => Value::F64(x),
            other => panic!("not a float type: {other}"),
        }
    }

    /// Construct an integer value of the requested width from an `i64`
    /// (wrapping for `I32`).
    pub fn int(ty: ScalarType, x: i64) -> Value {
        match ty {
            ScalarType::I32 => Value::I32(x as i32),
            ScalarType::I64 => Value::I64(x),
            ScalarType::Bool => Value::Bool(x != 0),
            other => panic!("not an integer type: {other}"),
        }
    }

    /// Encode this value into its little-endian byte representation.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        match *self {
            Value::Bool(b) => vec![b as u8],
            Value::I32(x) => x.to_le_bytes().to_vec(),
            Value::I64(x) => x.to_le_bytes().to_vec(),
            Value::F32(x) => x.to_le_bytes().to_vec(),
            Value::F64(x) => x.to_le_bytes().to_vec(),
            Value::Ptr(p) => panic!("pointers have no byte representation: {p}"),
        }
    }

    /// Decode a value of type `ty` from a little-endian byte slice.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than `ty.size_bytes()`.
    pub fn from_le_bytes(ty: ScalarType, bytes: &[u8]) -> Value {
        match ty {
            ScalarType::Bool => Value::Bool(bytes[0] != 0),
            ScalarType::I32 => {
                Value::I32(i32::from_le_bytes(bytes[..4].try_into().expect("i32 bytes")))
            }
            ScalarType::I64 => {
                Value::I64(i64::from_le_bytes(bytes[..8].try_into().expect("i64 bytes")))
            }
            ScalarType::F32 => {
                Value::F32(f32::from_le_bytes(bytes[..4].try_into().expect("f32 bytes")))
            }
            ScalarType::F64 => {
                Value::F64(f64::from_le_bytes(bytes[..8].try_into().expect("f64 bytes")))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::I32(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F32(x) => write!(f, "{x}f"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Ptr(p) => write!(f, "{p}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Value {
        Value::F32(x)
    }
}

impl From<i32> for Value {
    fn from(x: i32) -> Value {
        Value::I32(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Value {
        Value::I64(x)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        for v in [
            Value::Bool(true),
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::F32(1.5),
            Value::F64(-2.25),
        ] {
            let ty = v.scalar_type().expect("scalar");
            let bytes = v.to_le_bytes();
            assert_eq!(bytes.len(), ty.size_bytes());
            assert_eq!(Value::from_le_bytes(ty, &bytes), v);
        }
    }

    #[test]
    fn pointer_arithmetic() {
        let p = PtrValue::new(AddressSpace::Global, 3);
        let q = p.offset_by(5, ScalarType::F64);
        assert_eq!(q.offset, 40);
        assert_eq!(q.buffer, 3);
        let r = q.offset_by(-2, ScalarType::F64);
        assert_eq!(r.offset, 24);
    }

    #[test]
    fn widening_accessors() {
        assert_eq!(Value::I32(-1).as_i64(), -1);
        assert_eq!(Value::Bool(true).as_i64(), 1);
        assert_eq!(Value::F32(0.5).as_f64(), 0.5);
    }

    #[test]
    fn constructors_match_types() {
        assert_eq!(Value::float(ScalarType::F32, 2.0), Value::F32(2.0));
        assert_eq!(Value::int(ScalarType::I32, (1 << 33) + 7), Value::I32(7)); // wraps
        assert_eq!(Value::int(ScalarType::Bool, 2), Value::Bool(true));
    }
}

//! Work-group interpreter with barrier suspension.
//!
//! One [`WorkGroupRun`] executes all work-items of a single work-group.
//! Items run one at a time until they either retire ([`Inst::Barrier`]-free
//! kernels run to completion immediately) or reach a barrier, at which point
//! they suspend. When every *live* item has suspended at the same barrier,
//! the group is released and execution continues — this reproduces the
//! hardware barrier behaviour of the Altera OpenCL flow, where work-items
//! that have retired no longer participate in synchronisation (the paper's
//! kernel IV.B relies on this: the work-item for tree row `k` exits its loop
//! after time step `t = k`, while rows below keep iterating).
//!
//! Items that suspend at *different* barriers raise
//! [`ExecError::BarrierDivergence`], turning an OpenCL undefined behaviour
//! into a deterministic diagnostic.

use crate::eval::{eval_bin, eval_cast, eval_cmp, eval_un};
use crate::ir::{Builtin, Function, Inst, Terminator, WiQuery};
use crate::mathlib::MathLib;
use crate::pipes::{decode_value, encode_value, PipeHub};
use crate::stats::ExecStats;
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{PtrValue, Value};
use std::fmt;

/// Default per-run instruction budget; guards against runaway loops in
/// tests. Roughly enough for a 256-step binomial tree work-group.
pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000_000;

/// Error raised by a memory implementation on an invalid access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccessError {
    /// Address space of the failing access.
    pub space: AddressSpace,
    /// Buffer handle.
    pub buffer: u32,
    /// Byte offset of the access.
    pub offset: i64,
    /// Access width in bytes.
    pub len: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for MemAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} access: buffer #{} offset {} len {}: {}",
            self.space, self.buffer, self.offset, self.len, self.reason
        )
    }
}

impl std::error::Error for MemAccessError {}

/// Execution error.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Work-items suspended at different barriers (undefined behaviour in
    /// OpenCL; reported deterministically here).
    BarrierDivergence {
        /// (block, instruction) positions of two conflicting barriers.
        a: (usize, usize),
        /// Second position.
        b: (usize, usize),
    },
    /// Invalid memory access.
    Mem(MemAccessError),
    /// Arithmetic trap (e.g. integer division by zero).
    Trap(String),
    /// The instruction budget was exhausted (likely an infinite loop).
    StepLimitExceeded,
    /// Kernel arguments did not match the kernel signature.
    BadArgs(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BarrierDivergence { a, b } => {
                write!(f, "work-items diverged: barriers at b{}:{} and b{}:{}", a.0, a.1, b.0, b.1)
            }
            ExecError::Mem(e) => write!(f, "{e}"),
            ExecError::Trap(msg) => write!(f, "trap: {msg}"),
            ExecError::StepLimitExceeded => write!(f, "instruction budget exhausted"),
            ExecError::BadArgs(msg) => write!(f, "bad kernel arguments: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Message prefix marking traps that were *injected* by the simulator's
/// fault layer rather than raised by executing kernel code. Both engines
/// report genuine traps without this prefix, so the runtime can tell a
/// deterministic arithmetic trap (never worth retrying) from a spurious
/// injected one.
pub const INJECTED_TRAP_PREFIX: &str = "injected:";

impl ExecError {
    /// A spurious trap injected by a fault plan, marked with
    /// [`INJECTED_TRAP_PREFIX`] so it is distinguishable from traps the
    /// kernel actually raised.
    pub fn injected_trap(detail: &str) -> ExecError {
        ExecError::Trap(format!("{INJECTED_TRAP_PREFIX} {detail}"))
    }

    /// True when this error is a trap injected via [`ExecError::injected_trap`].
    pub fn is_injected(&self) -> bool {
        matches!(self, ExecError::Trap(msg) if msg.starts_with(INJECTED_TRAP_PREFIX))
    }
}

impl From<MemAccessError> for ExecError {
    fn from(e: MemAccessError) -> ExecError {
        ExecError::Mem(e)
    }
}

/// Global/local memory provider used by the interpreter.
///
/// Private memory is handled inside the interpreter itself; implementations
/// only see `Global`, `Constant` and `Local` accesses.
pub trait Memory {
    /// Load a scalar of type `ty` at `ptr`.
    ///
    /// # Errors
    /// Returns [`MemAccessError`] for out-of-bounds or unknown buffers.
    fn load(&mut self, ptr: PtrValue, ty: ScalarType) -> Result<Value, MemAccessError>;

    /// Store `val` at `ptr`.
    ///
    /// # Errors
    /// Returns [`MemAccessError`] for out-of-bounds, unknown or read-only
    /// buffers.
    fn store(&mut self, ptr: PtrValue, val: Value) -> Result<(), MemAccessError>;

    /// A raw view (base pointer, length in bytes) of the buffer behind
    /// `(space, buffer)`, if the implementation can expose one.
    ///
    /// The lane-vectorized engine uses this to resolve a buffer once per
    /// SIMT group and then perform per-lane bounds-checked copies,
    /// instead of paying a full [`Memory::load`]/[`Memory::store`] per
    /// lane. Returning `None` (the default) is always correct — callers
    /// must fall back to the per-access methods, which also keeps the
    /// error reporting for unknown buffers in one place.
    ///
    /// # Safety contract for callers
    /// The pointer is valid for `len` bytes only until the next call to
    /// any `&mut self` method of the same memory (allocation may move
    /// buffers). Accesses must stay in bounds, and concurrent use from
    /// other work-groups is governed by the same race-freedom contract
    /// as [`SharedGlobals`].
    fn raw_region(&mut self, space: AddressSpace, buffer: u32) -> Option<(*mut u8, usize)> {
        let _ = (space, buffer);
        None
    }
}

/// The global-memory arena of one context: the buffers that outlive a
/// kernel launch and are visible to every work-group.
///
/// Splitting globals from the local-memory arenas (see [`LocalArena`])
/// is what makes parallel work-group execution possible: one
/// `GlobalArena` is shared across the worker threads of a dispatch
/// through a [`SharedGlobals`] view while every worker owns its private
/// local allocator.
#[derive(Debug, Default)]
pub struct GlobalArena {
    bufs: Vec<Vec<u8>>,
}

impl GlobalArena {
    /// An empty arena with no buffers.
    pub fn new() -> GlobalArena {
        GlobalArena::default()
    }

    /// Allocate a zeroed buffer of `bytes` bytes, returning its handle.
    pub fn alloc(&mut self, bytes: usize) -> u32 {
        self.bufs.push(vec![0; bytes]);
        self.bufs.len() as u32 - 1
    }

    /// Raw bytes of a buffer.
    ///
    /// # Panics
    /// Panics if `buf` is not a valid handle.
    pub fn bytes(&self, buf: u32) -> &[u8] {
        &self.bufs[buf as usize]
    }

    /// Mutable raw bytes of a buffer.
    ///
    /// # Panics
    /// Panics if `buf` is not a valid handle.
    pub fn bytes_mut(&mut self, buf: u32) -> &mut [u8] {
        &mut self.bufs[buf as usize]
    }

    /// A thread-shareable view over every buffer of the arena, for the
    /// duration of one kernel dispatch. The exclusive borrow guarantees
    /// no other safe access to the arena while the view is alive.
    pub fn shared(&mut self) -> SharedGlobals<'_> {
        SharedGlobals {
            bufs: self
                .bufs
                .iter_mut()
                .map(|b| BufView { ptr: b.as_mut_ptr(), len: b.len() })
                .collect(),
            _arena: std::marker::PhantomData,
        }
    }
}

/// The local-memory arena of one worker: `__local` scratch buffers that
/// live for a single work-group and are re-allocated between groups.
#[derive(Debug, Default)]
pub struct LocalArena {
    bufs: Vec<Vec<u8>>,
}

impl LocalArena {
    /// An empty arena with no buffers.
    pub fn new() -> LocalArena {
        LocalArena::default()
    }

    /// Allocate a zeroed buffer of `bytes` bytes, returning its slot.
    pub fn alloc(&mut self, bytes: usize) -> u32 {
        self.bufs.push(vec![0; bytes]);
        self.bufs.len() as u32 - 1
    }

    /// Drop all allocations (called between work-groups).
    pub fn clear(&mut self) {
        self.bufs.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct BufView {
    ptr: *mut u8,
    len: usize,
}

/// A view of a [`GlobalArena`] that can be shared across the worker
/// threads of one parallel dispatch.
///
/// # Safety contract
///
/// The view is created from `&mut GlobalArena`, so for its whole
/// lifetime the borrow checker keeps every other (safe) access to the
/// arena out. Within the dispatch, loads and stores go through raw
/// pointers with explicit bounds checks; concurrent accesses from
/// different work-groups are sound as long as no two groups touch the
/// same bytes with at least one of them writing. OpenCL gives
/// work-groups no inter-group memory-consistency guarantees, so a
/// kernel that races across groups is undefined behaviour on real
/// hardware too — the simulator inherits exactly that contract (and the
/// sequential-vs-parallel equivalence tests in `tests/parallel_exec.rs`
/// pin it down for the kernels this repository ships).
pub struct SharedGlobals<'a> {
    bufs: Vec<BufView>,
    _arena: std::marker::PhantomData<&'a mut GlobalArena>,
}

// SAFETY: the view owns no data; it aliases a GlobalArena that is
// exclusively borrowed for the view's lifetime. Cross-thread use is
// restricted to race-free kernels per the contract documented above.
unsafe impl Send for SharedGlobals<'_> {}
unsafe impl Sync for SharedGlobals<'_> {}

impl SharedGlobals<'_> {
    /// Checked byte offset of an access, with the same error text as the
    /// slice-backed path so parallel and sequential runs fail identically.
    fn checked_off(
        &self,
        view: BufView,
        ptr: PtrValue,
        len: usize,
    ) -> Result<usize, MemAccessError> {
        usize::try_from(ptr.offset).ok().filter(|o| o + len <= view.len).ok_or_else(|| {
            MemAccessError {
                space: ptr.space,
                buffer: ptr.buffer,
                offset: ptr.offset,
                len,
                reason: format!("out of bounds (size {})", view.len),
            }
        })
    }

    fn view(&self, ptr: PtrValue, len: usize) -> Result<BufView, MemAccessError> {
        self.bufs.get(ptr.buffer as usize).copied().ok_or_else(|| MemAccessError {
            space: ptr.space,
            buffer: ptr.buffer,
            offset: ptr.offset,
            len,
            reason: "unknown buffer".into(),
        })
    }

    /// Load a scalar of type `ty` at `ptr`.
    ///
    /// # Errors
    /// Returns [`MemAccessError`] for out-of-bounds or unknown buffers.
    pub fn load(&self, ptr: PtrValue, ty: ScalarType) -> Result<Value, MemAccessError> {
        let len = ty.size_bytes();
        let view = self.view(ptr, len)?;
        let off = self.checked_off(view, ptr, len)?;
        let mut raw = [0u8; 8];
        // SAFETY: `off + len <= view.len` was just checked; reads of
        // bytes another group concurrently writes are excluded by the
        // race-freedom contract of the type.
        unsafe { std::ptr::copy_nonoverlapping(view.ptr.add(off), raw.as_mut_ptr(), len) };
        Ok(Value::from_le_bytes(ty, &raw[..len]))
    }

    /// Store `val` at `ptr`.
    ///
    /// # Errors
    /// Returns [`MemAccessError`] for out-of-bounds, unknown or
    /// read-only buffers.
    pub fn store(&self, ptr: PtrValue, val: Value) -> Result<(), MemAccessError> {
        let ty = val.scalar_type().expect("store of scalar");
        let len = ty.size_bytes();
        if ptr.space == AddressSpace::Constant {
            return Err(MemAccessError {
                space: ptr.space,
                buffer: ptr.buffer,
                offset: ptr.offset,
                len,
                reason: "store to __constant memory".into(),
            });
        }
        let view = self.view(ptr, len)?;
        let off = self.checked_off(view, ptr, len)?;
        let raw = val.to_le_bytes();
        // SAFETY: bounds checked above; disjointness across groups per
        // the race-freedom contract of the type.
        unsafe { std::ptr::copy_nonoverlapping(raw.as_ptr(), view.ptr.add(off), len) };
        Ok(())
    }
}

/// The [`Memory`] of one worker thread of a parallel dispatch: global
/// and `__constant` accesses go to the dispatch-wide [`SharedGlobals`]
/// view, local accesses to the worker's private [`LocalArena`].
pub struct WorkerMemory<'g, 'a> {
    globals: &'g SharedGlobals<'a>,
    locals: LocalArena,
}

impl<'g, 'a> WorkerMemory<'g, 'a> {
    /// A worker memory with an empty local arena.
    pub fn new(globals: &'g SharedGlobals<'a>) -> WorkerMemory<'g, 'a> {
        WorkerMemory { globals, locals: LocalArena::new() }
    }

    /// Allocate a zeroed local buffer of `bytes` bytes, returning its
    /// slot.
    pub fn alloc_local(&mut self, bytes: usize) -> u32 {
        self.locals.alloc(bytes)
    }

    /// Drop all local allocations (called between work-groups).
    pub fn clear_locals(&mut self) {
        self.locals.clear();
    }
}

impl Memory for WorkerMemory<'_, '_> {
    fn load(&mut self, ptr: PtrValue, ty: ScalarType) -> Result<Value, MemAccessError> {
        match ptr.space {
            AddressSpace::Global | AddressSpace::Constant => self.globals.load(ptr, ty),
            AddressSpace::Local | AddressSpace::Private => {
                let len = ty.size_bytes();
                let region = region_of(&mut self.locals.bufs, ptr, len)?;
                let off = slice_off(region, ptr, len)?;
                Ok(Value::from_le_bytes(ty, &region[off..off + len]))
            }
            AddressSpace::Pipe => unreachable!("pipes are not load/store addressable"),
        }
    }

    fn store(&mut self, ptr: PtrValue, val: Value) -> Result<(), MemAccessError> {
        match ptr.space {
            AddressSpace::Global | AddressSpace::Constant => self.globals.store(ptr, val),
            AddressSpace::Local | AddressSpace::Private => {
                let ty = val.scalar_type().expect("store of scalar");
                let len = ty.size_bytes();
                let region = region_of(&mut self.locals.bufs, ptr, len)?;
                let off = slice_off(region, ptr, len)?;
                region[off..off + len].copy_from_slice(&val.to_le_bytes());
                Ok(())
            }
            AddressSpace::Pipe => unreachable!("pipes are not load/store addressable"),
        }
    }

    fn raw_region(&mut self, space: AddressSpace, buffer: u32) -> Option<(*mut u8, usize)> {
        match space {
            AddressSpace::Global | AddressSpace::Constant => {
                self.globals.bufs.get(buffer as usize).map(|v| (v.ptr, v.len))
            }
            AddressSpace::Local => {
                self.locals.bufs.get_mut(buffer as usize).map(|b| (b.as_mut_ptr(), b.len()))
            }
            AddressSpace::Private | AddressSpace::Pipe => None,
        }
    }
}

/// Look a buffer up in a slice-backed arena (`Private` never reaches a
/// [`Memory`] implementation, so any unmatched space reports an unknown
/// buffer).
fn region_of(
    bufs: &mut [Vec<u8>],
    ptr: PtrValue,
    len: usize,
) -> Result<&mut Vec<u8>, MemAccessError> {
    let buffer =
        if ptr.space == AddressSpace::Private { None } else { bufs.get_mut(ptr.buffer as usize) };
    buffer.ok_or_else(|| MemAccessError {
        space: ptr.space,
        buffer: ptr.buffer,
        offset: ptr.offset,
        len,
        reason: "unknown buffer".into(),
    })
}

/// Checked byte offset of an access into a slice-backed buffer.
fn slice_off(region: &[u8], ptr: PtrValue, len: usize) -> Result<usize, MemAccessError> {
    usize::try_from(ptr.offset).ok().filter(|o| o + len <= region.len()).ok_or_else(|| {
        MemAccessError {
            space: ptr.space,
            buffer: ptr.buffer,
            offset: ptr.offset,
            len,
            reason: format!("out of bounds (size {})", region.len()),
        }
    })
}

/// Simple vector-backed [`Memory`] holding both arenas in one value,
/// used by tests, examples and single-threaded callers.
#[derive(Debug, Default)]
pub struct VecMemory {
    globals: Vec<Vec<u8>>,
    locals: Vec<Vec<u8>>,
}

impl VecMemory {
    /// An empty memory with no buffers.
    pub fn new() -> VecMemory {
        VecMemory::default()
    }

    /// Allocate a zeroed global buffer of `bytes` bytes, returning its
    /// handle.
    pub fn alloc_global(&mut self, bytes: usize) -> u32 {
        self.globals.push(vec![0; bytes]);
        self.globals.len() as u32 - 1
    }

    /// Allocate a zeroed local buffer of `bytes` bytes, returning its slot.
    pub fn alloc_local(&mut self, bytes: usize) -> u32 {
        self.locals.push(vec![0; bytes]);
        self.locals.len() as u32 - 1
    }

    /// Drop all local allocations (called between work-groups).
    pub fn clear_locals(&mut self) {
        self.locals.clear();
    }

    /// Raw bytes of a global buffer.
    ///
    /// # Panics
    /// Panics if `buf` is not a valid handle.
    pub fn global_bytes(&self, buf: u32) -> &[u8] {
        &self.globals[buf as usize]
    }

    /// Write an `f64` at element index `idx` of global buffer `buf`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn write_f64(&mut self, buf: u32, idx: usize, val: f64) {
        let off = idx * 8;
        self.globals[buf as usize][off..off + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Read an `f64` at element index `idx` of global buffer `buf`.
    ///
    /// # Panics
    /// Panics on out-of-range access.
    pub fn read_f64(&self, buf: u32, idx: usize) -> f64 {
        let off = idx * 8;
        f64::from_le_bytes(self.globals[buf as usize][off..off + 8].try_into().expect("f64"))
    }

    fn region(
        &mut self,
        space: AddressSpace,
        ptr: PtrValue,
        len: usize,
    ) -> Result<&mut Vec<u8>, MemAccessError> {
        match space {
            AddressSpace::Global | AddressSpace::Constant => region_of(&mut self.globals, ptr, len),
            _ => region_of(&mut self.locals, ptr, len),
        }
    }
}

impl Memory for VecMemory {
    fn load(&mut self, ptr: PtrValue, ty: ScalarType) -> Result<Value, MemAccessError> {
        let len = ty.size_bytes();
        let region = self.region(ptr.space, ptr, len)?;
        let off = slice_off(region, ptr, len)?;
        Ok(Value::from_le_bytes(ty, &region[off..off + len]))
    }

    fn store(&mut self, ptr: PtrValue, val: Value) -> Result<(), MemAccessError> {
        let ty = val.scalar_type().expect("store of scalar");
        let len = ty.size_bytes();
        if ptr.space == AddressSpace::Constant {
            return Err(MemAccessError {
                space: ptr.space,
                buffer: ptr.buffer,
                offset: ptr.offset,
                len,
                reason: "store to __constant memory".into(),
            });
        }
        let region = self.region(ptr.space, ptr, len)?;
        let off = slice_off(region, ptr, len)?;
        region[off..off + len].copy_from_slice(&val.to_le_bytes());
        Ok(())
    }

    fn raw_region(&mut self, space: AddressSpace, buffer: u32) -> Option<(*mut u8, usize)> {
        let arena = match space {
            AddressSpace::Global | AddressSpace::Constant => &mut self.globals,
            AddressSpace::Local => &mut self.locals,
            AddressSpace::Private | AddressSpace::Pipe => return None,
        };
        arena.get_mut(buffer as usize).map(|b| (b.as_mut_ptr(), b.len()))
    }
}

/// Geometry of one work-group within an NDRange (three dimensions, as in
/// OpenCL; the paper's kernels are one-dimensional).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupShape {
    /// Global NDRange size per dimension.
    pub global_size: [usize; 3],
    /// Work-group size per dimension.
    pub local_size: [usize; 3],
    /// This group's id per dimension.
    pub group_id: [usize; 3],
}

impl GroupShape {
    /// A one-dimensional shape: `global` total items, groups of `local`,
    /// this run covering group `group`.
    ///
    /// # Panics
    /// Panics if `local` is zero or `global` is not a multiple of `local`.
    pub fn linear(global: usize, local: usize, group: usize) -> GroupShape {
        assert!(local > 0, "work-group size must be positive");
        assert_eq!(global % local, 0, "global size must be a multiple of the work-group size");
        GroupShape {
            global_size: [global, 1, 1],
            local_size: [local, 1, 1],
            group_id: [group, 0, 0],
        }
    }

    /// Number of work-items in one work-group.
    pub fn items_per_group(&self) -> usize {
        self.local_size.iter().product()
    }

    /// Number of work-groups per dimension.
    pub fn num_groups(&self) -> [usize; 3] {
        [
            self.global_size[0] / self.local_size[0],
            self.global_size[1] / self.local_size[1],
            self.global_size[2] / self.local_size[2],
        ]
    }

    /// Decompose a linear item index into a 3-D local id.
    pub fn local_id(&self, item: usize) -> [usize; 3] {
        let l = self.local_size;
        [item % l[0], (item / l[0]) % l[1], item / (l[0] * l[1])]
    }
}

/// A kernel argument value bound by the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArgValue {
    /// A scalar argument.
    Scalar(Value),
    /// A global (or `__constant`) buffer handle.
    GlobalBuffer(u32),
    /// A local-memory slot handle (allocated per work-group by the caller).
    LocalBuffer(u32),
    /// A pipe handle (created on the owning [`PipeHub`]).
    Pipe(u32),
}

/// Result of one resumable engine pass (see `run_resumable` on each
/// engine): either every work-item retired, or at least one is suspended
/// at a pipe operation that could not make progress and the caller must
/// run the peer kernel before resuming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All work-items retired; statistics are final.
    Complete,
    /// At least one work-item is suspended at a full/empty pipe.
    Stalled,
}

/// The deterministic trap raised when pipe progress is impossible: a
/// single kernel stalling with no peer, or a co-scheduled launch graph
/// completing a full resume round without one successful pipe op. One
/// message for every engine and scheduler.
pub fn pipe_deadlock_trap() -> ExecError {
    ExecError::Trap("pipe deadlock: no progress possible".into())
}

/// Kernels with pipe parameters model Altera single-work-item tasks: the
/// FIFO order of pipe traffic is only deterministic with exactly one
/// work-item in exactly one group. Every engine constructor applies this
/// check so the trap text is engine independent.
pub(crate) fn check_pipe_shape(
    name: &str,
    params: &[crate::ir::Param],
    shape: &GroupShape,
) -> Result<(), ExecError> {
    let has_pipe = params.iter().any(|p| matches!(p.ty, Type::Ptr(AddressSpace::Pipe, _)));
    if has_pipe && (shape.items_per_group() != 1 || shape.num_groups() != [1, 1, 1]) {
        return Err(ExecError::Trap(format!(
            "pipe kernels are single-work-item tasks: kernel `{name}` launched with {} \
             work-items per group and {:?} groups",
            shape.items_per_group(),
            shape.num_groups()
        )));
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemStatus {
    Running,
    AtBarrier,
    AtPipe,
    Done,
}

struct ItemState {
    block: usize,
    inst: usize,
    regs: Vec<Value>,
    private: Vec<u8>,
    status: ItemStatus,
}

/// Executes the work-items of one work-group.
pub struct WorkGroupRun<'f> {
    func: &'f Function,
    shape: GroupShape,
    items: Vec<ItemState>,
    stats: ExecStats,
    steps: u64,
    step_limit: u64,
}

impl<'f> WorkGroupRun<'f> {
    /// Prepare a run of `func` for the group described by `shape`, with
    /// kernel arguments `args`. `step_limit` of 0 selects
    /// [`DEFAULT_STEP_LIMIT`].
    ///
    /// # Errors
    /// Returns [`ExecError::BadArgs`] if `args` does not match the kernel
    /// signature.
    pub fn new(
        func: &'f Function,
        shape: GroupShape,
        args: &[KernelArgValue],
        step_limit: u64,
    ) -> Result<WorkGroupRun<'f>, ExecError> {
        check_pipe_shape(&func.name, &func.params, &shape)?;
        if args.len() != func.params.len() {
            return Err(ExecError::BadArgs(format!(
                "kernel `{}` takes {} arguments, {} supplied",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut bound = Vec::with_capacity(args.len());
        for (i, (arg, param)) in args.iter().zip(&func.params).enumerate() {
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

        let n = shape.items_per_group();
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let mut regs: Vec<Value> = func
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
            items.push(ItemState {
                block: 0,
                inst: 0,
                regs,
                private: vec![0; func.private_bytes],
                status: ItemStatus::Running,
            });
        }
        let mut stats = ExecStats::with_blocks(func.blocks.len());
        // Every live item enters block 0.
        stats.block_execs[0] += n as u64;
        Ok(WorkGroupRun {
            func,
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

    /// Run the whole group to completion with no pipes attached.
    ///
    /// A kernel that touches a pipe under this entry point can never be
    /// unblocked, so a stall is reported as the deterministic
    /// [`pipe_deadlock_trap`]. Callers co-scheduling pipe kernels use
    /// [`WorkGroupRun::run_resumable`] instead.
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and step-limit
    /// exhaustion.
    pub fn run(&mut self, mem: &mut dyn Memory, math: &dyn MathLib) -> Result<(), ExecError> {
        let mut pipes = PipeHub::default();
        match self.run_resumable(mem, math, &mut pipes)? {
            RunOutcome::Complete => Ok(()),
            RunOutcome::Stalled => Err(pipe_deadlock_trap()),
        }
    }

    /// Run until every work-item retires ([`RunOutcome::Complete`]) or
    /// the group can make no further progress because a pipe op stalled
    /// ([`RunOutcome::Stalled`]). A stalled run may be resumed by calling
    /// this again once the peer kernel has moved the FIFO; every failed
    /// resume attempt costs one step and one stall count, identically in
    /// all engines.
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and step-limit
    /// exhaustion.
    pub fn run_resumable(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        loop {
            let mut any_running = false;
            for item in 0..self.items.len() {
                if matches!(self.items[item].status, ItemStatus::Running | ItemStatus::AtPipe) {
                    any_running = true;
                    self.run_item(item, mem, math, pipes)?;
                }
            }
            let live: Vec<usize> = (0..self.items.len())
                .filter(|&i| self.items[i].status != ItemStatus::Done)
                .collect();
            if live.is_empty() {
                return Ok(RunOutcome::Complete);
            }
            if live.iter().any(|&i| self.items[i].status == ItemStatus::AtPipe) {
                // A stalled pipe op cannot be released locally; hand
                // control back to the co-scheduler.
                return Ok(RunOutcome::Stalled);
            }
            // All live items are now suspended at barriers (run_item only
            // returns on retire, barrier or pipe stall).
            let first = &self.items[live[0]];
            let pos = (first.block, first.inst);
            for &i in &live[1..] {
                let it = &self.items[i];
                if (it.block, it.inst) != pos {
                    return Err(ExecError::BarrierDivergence { a: pos, b: (it.block, it.inst) });
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
                it.inst += 1;
                it.status = ItemStatus::Running;
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
        loop {
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(ExecError::StepLimitExceeded);
            }
            let it = &self.items[item];
            let block = &self.func.blocks[it.block];
            if it.inst < block.insts.len() {
                let inst = &block.insts[it.inst];
                if matches!(inst, Inst::Barrier) {
                    self.items[item].status = ItemStatus::AtBarrier;
                    return Ok(());
                }
                // Pipe ops are handled here rather than in `exec_inst`
                // because, like barriers, they may suspend the item.
                if let Inst::PipeRead { dst, pipe, ty } = inst {
                    let p = it.regs[pipe.index()].as_ptr();
                    match pipes.try_read(p.buffer, *ty).map_err(ExecError::Trap)? {
                        None => {
                            self.stats.pipe_read_stalls += 1;
                            self.items[item].status = ItemStatus::AtPipe;
                            return Ok(());
                        }
                        Some(bits) => {
                            self.stats.pipe_reads += 1;
                            let (dst, ty) = (*dst, *ty);
                            self.items[item].regs[dst.index()] = decode_value(ty, bits);
                        }
                    }
                    self.items[item].status = ItemStatus::Running;
                    self.items[item].inst += 1;
                    continue;
                }
                if let Inst::PipeWrite { pipe, val, ty } = inst {
                    let p = it.regs[pipe.index()].as_ptr();
                    let bits = encode_value(it.regs[val.index()]);
                    if !pipes.try_write(p.buffer, *ty, bits).map_err(ExecError::Trap)? {
                        self.stats.pipe_write_stalls += 1;
                        self.items[item].status = ItemStatus::AtPipe;
                        return Ok(());
                    }
                    self.stats.pipe_writes += 1;
                    self.items[item].status = ItemStatus::Running;
                    self.items[item].inst += 1;
                    continue;
                }
                self.exec_inst(item, inst, mem, math)?;
                self.items[item].inst += 1;
            } else {
                match &block.term {
                    Terminator::Jump(target) => {
                        self.enter_block(item, target.index());
                    }
                    Terminator::Branch { cond, then_bb, else_bb } => {
                        let taken = self.items[item].regs[cond.index()].as_bool();
                        let target = if taken { then_bb } else { else_bb };
                        self.enter_block(item, target.index());
                    }
                    Terminator::Return => {
                        self.items[item].status = ItemStatus::Done;
                        return Ok(());
                    }
                }
            }
        }
    }

    fn enter_block(&mut self, item: usize, block: usize) {
        self.stats.block_execs[block] += 1;
        let it = &mut self.items[item];
        it.block = block;
        it.inst = 0;
    }

    fn exec_inst(
        &mut self,
        item: usize,
        inst: &Inst,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
    ) -> Result<(), ExecError> {
        match inst {
            Inst::Const { dst, val } => {
                self.items[item].regs[dst.index()] = *val;
            }
            Inst::Mov { dst, src } => {
                self.stats.ops.mov += 1;
                self.items[item].regs[dst.index()] = self.items[item].regs[src.index()];
            }
            Inst::Bin { op, ty, dst, a, b } => {
                let regs = &self.items[item].regs;
                let (va, vb) = (regs[a.index()], regs[b.index()]);
                let out = eval_bin(*op, *ty, va, vb).map_err(ExecError::Trap)?;
                self.stats.ops.count_bin(*op, *ty);
                self.items[item].regs[dst.index()] = out;
            }
            Inst::Un { op, ty, dst, a } => {
                let va = self.items[item].regs[a.index()];
                let out = eval_un(*op, *ty, va);
                self.stats.ops.int_alu += 1;
                self.items[item].regs[dst.index()] = out;
            }
            Inst::Cmp { op, ty, dst, a, b } => {
                let regs = &self.items[item].regs;
                let out = eval_cmp(*op, *ty, regs[a.index()], regs[b.index()]);
                self.stats.ops.cmp += 1;
                self.items[item].regs[dst.index()] = Value::Bool(out);
            }
            Inst::Select { ty, dst, cond, a, b } => {
                let regs = &self.items[item].regs;
                let out =
                    if regs[cond.index()].as_bool() { regs[a.index()] } else { regs[b.index()] };
                debug_assert_eq!(out.scalar_type(), Some(*ty));
                self.stats.ops.select += 1;
                self.items[item].regs[dst.index()] = out;
            }
            Inst::Cast { dst, a, from, to } => {
                let va = self.items[item].regs[a.index()];
                self.stats.ops.cast += 1;
                self.items[item].regs[dst.index()] = eval_cast(va, *from, *to);
            }
            Inst::Call { func, ty, dst, args } => {
                let regs = &self.items[item].regs;
                let x = regs[args[0].index()].as_f64();
                let y = args.get(1).map(|r| regs[r.index()].as_f64());
                let out = match func {
                    Builtin::Exp => math.exp64(x),
                    Builtin::Log => math.log64(x),
                    Builtin::Pow => math.pow64(x, y.expect("pow has two args")),
                    Builtin::Sqrt => math.sqrt64(x),
                };
                let out = if *ty == ScalarType::F32 {
                    // Re-run at f32 precision through the library's f32 path.
                    let x32 = x as f32;
                    let v = match func {
                        Builtin::Exp => math.exp32(x32),
                        Builtin::Log => math.log32(x32),
                        Builtin::Pow => math.pow32(x32, y.expect("pow has two args") as f32),
                        Builtin::Sqrt => math.sqrt32(x32),
                    };
                    Value::F32(v)
                } else {
                    Value::F64(out)
                };
                self.stats.ops.count_builtin(*func, *ty);
                self.items[item].regs[dst.index()] = out;
            }
            Inst::WorkItem { query, dim, dst } => {
                let out = self.query(item, *query, *dim as usize);
                self.stats.ops.wi_query += 1;
                self.items[item].regs[dst.index()] = Value::I64(out as i64);
            }
            Inst::Gep { dst, base, index, elem } => {
                let regs = &self.items[item].regs;
                let p = regs[base.index()].as_ptr();
                let idx = regs[index.index()].as_i64();
                self.stats.ops.int_alu += 1;
                self.items[item].regs[dst.index()] = Value::Ptr(p.offset_by(idx, *elem));
            }
            Inst::Load { dst, ptr, ty } => {
                let p = self.items[item].regs[ptr.index()].as_ptr();
                let v = if p.space == AddressSpace::Private {
                    self.private_load(item, p, *ty)?
                } else {
                    mem.load(p, *ty)?
                };
                self.stats.mem.count_load(p.space, ty.size_bytes());
                self.items[item].regs[dst.index()] = v;
            }
            Inst::Store { ptr, val, ty } => {
                let regs = &self.items[item].regs;
                let p = regs[ptr.index()].as_ptr();
                let v = regs[val.index()];
                debug_assert_eq!(v.scalar_type(), Some(*ty));
                if p.space == AddressSpace::Private {
                    self.private_store(item, p, v)?;
                } else {
                    mem.store(p, v)?;
                }
                self.stats.mem.count_store(p.space, ty.size_bytes());
            }
            Inst::Barrier => unreachable!("barrier handled by run_item"),
            Inst::PipeRead { .. } | Inst::PipeWrite { .. } => {
                unreachable!("pipe ops handled by run_item")
            }
            Inst::Phi { .. } => unreachable!("phis are eliminated before execution"),
        }
        Ok(())
    }

    fn private_load(&self, item: usize, p: PtrValue, ty: ScalarType) -> Result<Value, ExecError> {
        let len = ty.size_bytes();
        let arena = &self.items[item].private;
        let off = usize::try_from(p.offset)
            .ok()
            .filter(|o| o + len <= arena.len())
            .ok_or_else(|| private_oob(p, len, arena.len()))?;
        Ok(Value::from_le_bytes(ty, &arena[off..off + len]))
    }

    fn private_store(&mut self, item: usize, p: PtrValue, v: Value) -> Result<(), ExecError> {
        let len = v.scalar_type().expect("scalar").size_bytes();
        let arena = &mut self.items[item].private;
        let alen = arena.len();
        let off = usize::try_from(p.offset)
            .ok()
            .filter(|o| o + len <= alen)
            .ok_or_else(|| private_oob(p, len, alen))?;
        arena[off..off + len].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn query(&self, item: usize, query: WiQuery, dim: usize) -> usize {
        let lid = self.shape.local_id(item);
        let s = &self.shape;
        match query {
            WiQuery::GlobalId => s.group_id[dim] * s.local_size[dim] + lid[dim],
            WiQuery::LocalId => lid[dim],
            WiQuery::GroupId => s.group_id[dim],
            WiQuery::GlobalSize => s.global_size[dim],
            WiQuery::LocalSize => s.local_size[dim],
            WiQuery::NumGroups => s.num_groups()[dim],
        }
    }
}

pub(crate) fn private_oob(p: PtrValue, len: usize, size: usize) -> ExecError {
    ExecError::Mem(MemAccessError {
        space: AddressSpace::Private,
        buffer: 0,
        offset: p.offset,
        len,
        reason: format!("out of bounds (private arena size {size})"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ir::{BinOp, CmpOp};
    use crate::mathlib::ExactMath;

    fn run_kernel(
        func: &Function,
        global: usize,
        local: usize,
        mem: &mut VecMemory,
        args: &[KernelArgValue],
    ) -> ExecStats {
        let mut total = ExecStats::with_blocks(func.blocks.len());
        for group in 0..global / local {
            let shape = GroupShape::linear(global, local, group);
            let mut run = WorkGroupRun::new(func, shape, args, 0).expect("args");
            run.run(mem, &ExactMath).expect("run");
            total.merge(run.stats());
        }
        total
    }

    #[test]
    fn global_ids_cover_ndrange() {
        // out[gid] = (double)gid
        let mut b = FunctionBuilder::new("ids", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let gid = b.global_id(0);
        let f = b.cast(gid, ScalarType::I64, ScalarType::F64);
        let slot = b.gep(out, gid, ScalarType::F64);
        b.store(slot, f, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(16 * 8);
        run_kernel(&func, 16, 4, &mut mem, &[KernelArgValue::GlobalBuffer(buf)]);
        for i in 0..16 {
            assert_eq!(mem.read_f64(buf, i), i as f64);
        }
    }

    #[test]
    fn barrier_synchronises_local_exchange() {
        // Neighbour exchange: l[lid] = lid; barrier; out[gid] = l[(lid+1)%n]
        let mut b = FunctionBuilder::new("xchg", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let loc = b.param("l", Type::ptr(AddressSpace::Local, ScalarType::F64));
        let lid = b.local_id(0);
        let lid_f = b.cast(lid, ScalarType::I64, ScalarType::F64);
        let slot = b.gep(loc, lid, ScalarType::F64);
        b.store(slot, lid_f, ScalarType::F64);
        b.barrier();
        let one = b.const_i64(1);
        let n = b.wi_query(WiQuery::LocalSize, 0);
        let lp1 = b.bin(BinOp::Add, ScalarType::I64, lid, one);
        let idx = b.bin(BinOp::Rem, ScalarType::I64, lp1, n);
        let nslot = b.gep(loc, idx, ScalarType::F64);
        let v = b.load(nslot, ScalarType::F64);
        let gid = b.global_id(0);
        let oslot = b.gep(out, gid, ScalarType::F64);
        b.store(oslot, v, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8 * 8);
        let l = mem.alloc_local(4 * 8);
        let stats = run_kernel(
            &func,
            8,
            4,
            &mut mem,
            &[KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)],
        );
        for i in 0..8 {
            assert_eq!(mem.read_f64(buf, i), ((i + 1) % 4) as f64, "item {i}");
        }
        assert_eq!(stats.barriers, 2, "one release per group");
    }

    #[test]
    fn loop_executes_expected_trip_count() {
        // out[0] = sum_{i=0}^{9} i  (single work-item)
        let mut b = FunctionBuilder::new("sum", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let acc = b.fresh(Type::Scalar(ScalarType::F64));
        let zero_f = b.const_f64(0.0);
        b.mov_into(acc, zero_f);
        let i = b.fresh(Type::Scalar(ScalarType::I64));
        let zero = b.const_i64(0);
        b.mov_into(i, zero);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let ten = b.const_i64(10);
        let cond = b.cmp(CmpOp::Lt, ScalarType::I64, i, ten);
        b.branch(cond, body, exit);
        b.switch_to(body);
        let i_f = b.cast(i, ScalarType::I64, ScalarType::F64);
        let newacc = b.fadd(acc, i_f, ScalarType::F64);
        b.mov_into(acc, newacc);
        let one = b.const_i64(1);
        let newi = b.bin(BinOp::Add, ScalarType::I64, i, one);
        b.mov_into(i, newi);
        b.jump(header);
        b.switch_to(exit);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, acc, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let stats = run_kernel(&func, 1, 1, &mut mem, &[KernelArgValue::GlobalBuffer(buf)]);
        assert_eq!(mem.read_f64(buf, 0), 45.0);
        // header executes 11 times, body 10 times.
        assert_eq!(stats.block_execs[1], 11);
        assert_eq!(stats.block_execs[2], 10);
        assert_eq!(stats.ops.add64, 10);
    }

    #[test]
    fn early_exit_items_skip_barriers() {
        // Items with lid >= 2 return before the barrier; the rest sync.
        let mut b = FunctionBuilder::new("early", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let lid = b.local_id(0);
        let two = b.const_i64(2);
        let cond = b.cmp(CmpOp::Ge, ScalarType::I64, lid, two);
        let quit = b.create_block();
        let work = b.create_block();
        b.branch(cond, quit, work);
        b.switch_to(quit);
        b.ret();
        b.switch_to(work);
        b.barrier();
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, ScalarType::F64);
        let one_f = b.const_f64(1.0);
        b.store(slot, one_f, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(4 * 8);
        run_kernel(&func, 4, 4, &mut mem, &[KernelArgValue::GlobalBuffer(buf)]);
        assert_eq!(mem.read_f64(buf, 0), 1.0);
        assert_eq!(mem.read_f64(buf, 1), 1.0);
        assert_eq!(mem.read_f64(buf, 2), 0.0);
        assert_eq!(mem.read_f64(buf, 3), 0.0);
    }

    #[test]
    fn divergent_barriers_detected() {
        // if (lid == 0) { barrier@A } else { barrier@B } — UB, must error.
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

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let shape = GroupShape::linear(2, 2, 0);
        let mut run =
            WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(buf)], 0).expect("args");
        match run.run(&mut mem, &ExactMath) {
            Err(ExecError::BarrierDivergence { .. }) => {}
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn out_of_bounds_load_reports_error() {
        let mut b = FunctionBuilder::new("oob", true);
        let buf = b.param("buf", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let idx = b.const_i64(100);
        let slot = b.gep(buf, idx, ScalarType::F64);
        let v = b.load(slot, ScalarType::F64);
        let zero = b.const_i64(0);
        let s0 = b.gep(buf, zero, ScalarType::F64);
        b.store(s0, v, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let g = mem.alloc_global(8);
        let shape = GroupShape::linear(1, 1, 0);
        let mut run =
            WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(g)], 0).expect("args");
        assert!(matches!(run.run(&mut mem, &ExactMath), Err(ExecError::Mem(_))));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut b = FunctionBuilder::new("spin", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let header = b.create_block();
        b.jump(header);
        b.switch_to(header);
        b.jump(header);
        let func = b.finish().expect("valid");
        let mut mem = VecMemory::new();
        let g = mem.alloc_global(8);
        let shape = GroupShape::linear(1, 1, 0);
        let mut run = WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(g)], 1000)
            .expect("args");
        assert!(matches!(run.run(&mut mem, &ExactMath), Err(ExecError::StepLimitExceeded)));
    }

    #[test]
    fn bad_args_rejected() {
        let mut b = FunctionBuilder::new("k", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        b.ret();
        let func = b.finish().expect("valid");
        let shape = GroupShape::linear(1, 1, 0);
        assert!(matches!(WorkGroupRun::new(&func, shape, &[], 0), Err(ExecError::BadArgs(_))));
        assert!(matches!(
            WorkGroupRun::new(&func, shape, &[KernelArgValue::Scalar(Value::F64(1.0))], 0),
            Err(ExecError::BadArgs(_))
        ));
    }

    #[test]
    fn private_arrays_are_per_item() {
        // priv[0] = lid; out[gid] = priv[0]
        let mut b = FunctionBuilder::new("priv", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let arena = b.alloc_private(8, ScalarType::F64);
        let lid = b.local_id(0);
        let lf = b.cast(lid, ScalarType::I64, ScalarType::F64);
        b.store(arena, lf, ScalarType::F64);
        b.barrier();
        let v = b.load(arena, ScalarType::F64);
        let gid = b.global_id(0);
        let slot = b.gep(out, gid, ScalarType::F64);
        b.store(slot, v, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(4 * 8);
        run_kernel(&func, 4, 4, &mut mem, &[KernelArgValue::GlobalBuffer(buf)]);
        for i in 0..4 {
            assert_eq!(mem.read_f64(buf, i), i as f64);
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::mathlib::ExactMath;
    use crate::types::{AddressSpace, ScalarType, Type};

    #[test]
    fn three_dimensional_ids_decompose_correctly() {
        // out[gid0 + 4*gid1 + 8*gid2] = lid0 + 10*lid1 + 100*lid2
        let mut b = FunctionBuilder::new("k3d", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let g0 = b.global_id(0);
        let g1 = b.global_id(1);
        let g2 = b.global_id(2);
        let four = b.const_i64(4);
        let eight = b.const_i64(8);
        let t1 = b.bin(crate::ir::BinOp::Mul, ScalarType::I64, g1, four);
        let t2 = b.bin(crate::ir::BinOp::Mul, ScalarType::I64, g2, eight);
        let idx_a = b.bin(crate::ir::BinOp::Add, ScalarType::I64, g0, t1);
        let idx = b.bin(crate::ir::BinOp::Add, ScalarType::I64, idx_a, t2);
        let l0 = b.local_id(0);
        let l1 = b.local_id(1);
        let l2 = b.wi_query(WiQuery::LocalId, 2);
        let ten = b.const_i64(10);
        let hundred = b.const_i64(100);
        let p1 = b.bin(crate::ir::BinOp::Mul, ScalarType::I64, l1, ten);
        let p2 = b.bin(crate::ir::BinOp::Mul, ScalarType::I64, l2, hundred);
        let v_a = b.bin(crate::ir::BinOp::Add, ScalarType::I64, l0, p1);
        let v = b.bin(crate::ir::BinOp::Add, ScalarType::I64, v_a, p2);
        let vf = b.cast(v, ScalarType::I64, ScalarType::F64);
        let slot = b.gep(out, idx, ScalarType::F64);
        b.store(slot, vf, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");

        // One 4x2x2 work-group covering the whole 4x2x2 NDRange.
        let shape =
            GroupShape { global_size: [4, 2, 2], local_size: [4, 2, 2], group_id: [0, 0, 0] };
        assert_eq!(shape.items_per_group(), 16);
        assert_eq!(shape.num_groups(), [1, 1, 1]);
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(16 * 8);
        let mut run =
            WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(buf)], 0).expect("args");
        run.run(&mut mem, &ExactMath).expect("runs");
        for z in 0..2usize {
            for y in 0..2usize {
                for x in 0..4usize {
                    let got = mem.read_f64(buf, x + 4 * y + 8 * z);
                    let want = (x + 10 * y + 100 * z) as f64;
                    assert_eq!(got, want, "item ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn negative_pointer_offsets_are_rejected() {
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(16);
        let p = PtrValue { space: AddressSpace::Global, buffer: buf, offset: -8 };
        assert!(mem.load(p, ScalarType::F64).is_err());
        assert!(mem.store(p, Value::F64(1.0)).is_err());
    }
}

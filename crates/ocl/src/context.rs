//! Contexts and buffers.

use crate::device::Device;
use bop_clir::interp::GlobalArena;
use bop_clir::pipes::PipeHub;
use bop_clir::types::ScalarType;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// Source of [`Context`] identities, so a handle remembers which context
/// created it.
static NEXT_CONTEXT: AtomicU64 = AtomicU64::new(0);

/// A device buffer handle (cheap to clone). It is valid only on queues of
/// the context that created it; other queues reject it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Buffer {
    pub(crate) ctx: u64,
    pub(crate) id: u32,
    pub(crate) bytes: usize,
}

impl Buffer {
    /// Size of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// True if the buffer has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// The runtime handle (stable for the lifetime of the context).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// A pipe handle (cheap to clone): an on-chip FIFO connecting kernels
/// of one context without host transfers. Like a [`Buffer`], it is valid
/// only within the context that created it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pipe {
    pub(crate) ctx: u64,
    pub(crate) id: u32,
    pub(crate) elem: ScalarType,
    pub(crate) depth: usize,
}

impl Pipe {
    /// The runtime handle (stable for the lifetime of the context).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The element type every read/write must match.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// FIFO capacity in elements.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// An OpenCL-style context: one device plus its global memory.
///
/// The context holds only the *global* arena — `__local` scratch memory
/// is owned per worker thread by the queue's NDRange executor, which is
/// what lets work-groups of one launch run concurrently.
pub struct Context {
    id: u64,
    device: Arc<dyn Device>,
    pub(crate) mem: Mutex<GlobalArena>,
    pub(crate) pipes: Mutex<PipeHub>,
    allocated: Mutex<u64>,
}

impl Context {
    /// Create a context on `device`.
    pub fn new(device: Arc<dyn Device>) -> Arc<Context> {
        Arc::new(Context {
            id: NEXT_CONTEXT.fetch_add(1, Ordering::Relaxed),
            device,
            mem: Mutex::new(GlobalArena::new()),
            pipes: Mutex::new(PipeHub::default()),
            allocated: Mutex::new(0),
        })
    }

    /// The context's device.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Allocate a zero-initialised global buffer.
    ///
    /// # Panics
    /// Panics if the allocation would exceed the device's global memory
    /// capacity — the simulated equivalent of `CL_MEM_OBJECT_ALLOCATION_FAILURE`.
    pub fn create_buffer(self: &Arc<Self>, bytes: usize) -> Buffer {
        let mut used = self.allocated.lock().unwrap();
        let cap = self.device.info().global_mem_bytes;
        assert!(
            *used + bytes as u64 <= cap,
            "device out of global memory: {used} + {bytes} > {cap}"
        );
        *used += bytes as u64;
        let id = self.mem.lock().unwrap().alloc(bytes);
        Buffer { ctx: self.id, id, bytes }
    }

    /// Create an on-chip FIFO of `depth` elements of type `elem` (the
    /// `clCreatePipe` analogue). Depth 0 is clamped to 1. Pipe contents
    /// persist across launches of this context, which is what lets a
    /// producer kernel and a consumer kernel of one
    /// [`enqueue_launch_graph`](crate::queue::CommandQueue::enqueue_launch_graph)
    /// exchange data without host transfers.
    pub fn create_pipe(self: &Arc<Self>, elem: ScalarType, depth: usize) -> Pipe {
        let id = self.pipes.lock().unwrap().create(elem, depth);
        Pipe { ctx: self.id, id, elem, depth: depth.max(1) }
    }

    /// True if `buf` was created by this context.
    pub(crate) fn owns(&self, buf: &Buffer) -> bool {
        buf.ctx == self.id
    }

    /// True if `pipe` was created by this context.
    pub(crate) fn owns_pipe(&self, pipe: &Pipe) -> bool {
        pipe.ctx == self.id
    }

    /// Bytes of global memory currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        *self.allocated.lock().unwrap()
    }

    /// Read the full contents of a buffer (host-side debugging helper that
    /// bypasses the command queue and its timing).
    ///
    /// # Panics
    /// Panics if `buf` was created by another context.
    pub fn snapshot(&self, buf: &Buffer) -> Vec<u8> {
        assert!(self.owns(buf), "buffer {} belongs to another context", buf.id);
        self.mem.lock().unwrap().bytes(buf.id).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::NullDevice;

    #[test]
    fn buffers_get_distinct_ids_and_accounting() {
        let ctx = Context::new(Arc::new(NullDevice::default()));
        let a = ctx.create_buffer(64);
        let b = ctx.create_buffer(128);
        assert_ne!(a.id(), b.id());
        assert_eq!(ctx.allocated_bytes(), 192);
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        assert_eq!(ctx.snapshot(&b).len(), 128);
    }

    #[test]
    #[should_panic(expected = "out of global memory")]
    fn over_allocation_panics() {
        let ctx = Context::new(Arc::new(NullDevice::default()));
        let cap = ctx.device().info().global_mem_bytes;
        let _too_big = ctx.create_buffer(cap as usize + 1);
    }
}

//! # bop-ocl — an OpenCL host-runtime simulator
//!
//! This crate plays the role of the OpenCL platform layer in the DATE 2014
//! reproduction: host programs written against it look like OpenCL host
//! code (platform → device → context → command queue → buffers → program →
//! kernel → NDRange), but devices are *models* — the FPGA, GPU and CPU
//! crates implement the [`Device`] trait with their own compilation
//! pipelines and timing/power models.
//!
//! Execution is functional **and** timed: enqueued commands run the kernels
//! through the `bop-clir` engines (so results, and result *errors* like
//! the FPGA `pow` inaccuracy, are real) while a simulated clock advances
//! according to the device's performance model and the host-device link
//! model. Events expose the simulated timestamps the way
//! `clGetEventProfilingInfo` would.
//!
//! Programs are optimised by the runtime pass pipeline and flattened to
//! register bytecode at build time; launches execute it on the
//! lane-vectorized engine by default ([`queue::Engine`],
//! `BOP_SIM_ENGINE=walk|lanes`). The tree-walking interpreter is the
//! one other engine, kept as the bit-identical reference oracle.
//!
//! For paper-scale workloads (10^9 tree nodes) functional interpretation is
//! replaced by a caller-supplied statistics model
//! ([`queue::CommandQueue::set_timing_only`]); the command stream, buffer
//! sizes and the timing pipeline stay identical.
//!
//! ## Example
//!
//! ```
//! use bop_ocl::{BuildOptions, Context, CommandQueue, Program};
//! use bop_ocl::device::Dispatch;
//! use bop_ocl::testutil::NullDevice;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let device = Arc::new(NullDevice::default());
//! let ctx = Context::new(device.clone());
//! let queue = CommandQueue::new(&ctx);
//! let program = Program::from_source(
//!     &ctx,
//!     "demo.cl",
//!     "__kernel void fill(__global double* out, double v) { out[get_global_id(0)] = v; }",
//!     &BuildOptions::default(),
//! )?;
//! let kernel = program.kernel("fill")?;
//! let buf = ctx.create_buffer(8 * 8);
//! kernel.set_arg_buffer(0, &buf);
//! kernel.set_arg_f64(1, 2.5);
//! queue.enqueue_nd_range(&kernel, Dispatch::new(8, 8))?;
//! let mut out = vec![0.0; 8];
//! queue.enqueue_read_f64(&buf, &mut out)?;
//! queue.finish();
//! assert_eq!(out[7], 2.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod device;
pub mod faults;
pub mod platform;
pub mod program;
pub mod queue;
pub mod testutil;

pub use context::{Buffer, Context, Pipe};
pub use device::{
    BuildError, BuildOptions, BuildReport, Device, DeviceKind, DeviceProgram, Dispatch, LinkModel,
    ResourceUsage,
};
pub use faults::{FaultParseError, FaultPlan, FaultSite, FaultSites, InjectedFault};
pub use platform::Platform;
pub use program::{Kernel, KernelArg, Program};
pub use queue::{CommandQueue, Engine, Event, ProfilingInfo};

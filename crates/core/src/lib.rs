//! # bop-core — the paper's contribution, reproduced
//!
//! This crate assembles the full system of *Energy-Efficient FPGA
//! Implementation for Binomial Option Pricing Using OpenCL* (DATE 2014) on
//! top of the workspace's substrates:
//!
//! * the two OpenCL kernel architectures — [`KernelArch::Straightforward`]
//!   (Section IV.A: one work-item per tree node, global ping-pong buffers,
//!   host-driven batches) and [`KernelArch::Optimized`] (Section IV.B: one
//!   work-group per option, local-memory row, barriers) — as real `.cl`
//!   sources compiled by `bop-clc` and executed/modeled by the device
//!   crates;
//! * [`hostprog`] — the host programs that drive them, faithful to the
//!   command streams described in the paper (including the
//!   full-buffer-read pathology that makes IV.A 100x slower);
//! * [`Accelerator`] — the user-facing facade: price a batch functionally,
//!   or *project* paper-scale performance (1024 steps, thousands of
//!   options) through the fitted performance model in [`perfmodel`];
//! * [`experiments`] — one driver per table/figure of the paper (see
//!   `DESIGN.md`'s per-experiment index).
//!
//! ## Quickstart
//!
//! ```
//! use bop_core::{Accelerator, KernelArch, Precision};
//! use bop_finance::OptionParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fpga = bop_core::devices::fpga();
//! let acc = Accelerator::builder(fpga)
//!     .arch(KernelArch::Optimized)
//!     .precision(Precision::Double)
//!     .n_steps(64)
//!     .build()?;
//! let run = acc.price(&[OptionParams::example()])?;
//! let reference = bop_finance::binomial::price_american_f64(&OptionParams::example(), 64);
//! assert!((run.prices[0] - reference).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod accelerator;
pub mod devices;
pub mod error;
pub mod experiments;
pub mod hostprog;
pub mod kernels;
pub mod perfmodel;
pub mod suite;

pub use accelerator::{
    Accelerator, AcceleratorBuilder, AcceleratorConfig, PricingRun, Projection, SessionTrace,
};
pub use bop_cpu::Precision;
pub use bop_ocl::queue::RuntimeError;
pub use bop_ocl::{FaultPlan, FaultSite, FaultSites, InjectedFault};
pub use error::{Error, Rejection};
pub use kernels::KernelArch;
pub use suite::{PayoffSuite, RiskRequest, RiskResult};

/// The paper's full test environment (Section V.A): FPGA + GPU + CPU on
/// one platform.
pub fn paper_platform() -> bop_ocl::Platform {
    let mut p = bop_ocl::Platform::new();
    p.register(devices::fpga());
    p.register(devices::gpu());
    p.register(devices::cpu());
    p
}

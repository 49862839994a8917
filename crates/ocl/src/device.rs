//! The device abstraction: what FPGA/GPU/CPU models implement.

use bop_clir::ir::Module;
use bop_clir::mathlib::MathLib;
use bop_clir::stats::ExecStats;
use std::fmt;
use std::sync::Arc;

/// Kind of accelerator, matching the three platforms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// FPGA board (the paper's Terasic DE4 / Stratix IV).
    Fpga,
    /// GPU board (the paper's GTX660).
    Gpu,
    /// Host CPU (the paper's Xeon X5450, running the reference software).
    Cpu,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceKind::Fpga => "FPGA",
            DeviceKind::Gpu => "GPU",
            DeviceKind::Cpu => "CPU",
        })
    }
}

/// Host-device link model (PCIe in the paper).
///
/// `efficiency` derates the theoretical bandwidth: measured OpenCL
/// transfers never reach link peak (pageable memory, driver synchronisation
/// — the reason the paper's kernel IV.A is 100x slower than IV.B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Theoretical link bandwidth in bytes/second.
    pub peak_bytes_per_s: f64,
    /// Achieved fraction of peak for bulk transfers (0, 1].
    pub efficiency: f64,
    /// Fixed latency per transfer command, seconds.
    pub latency_s: f64,
}

impl LinkModel {
    /// Time to move `bytes` across the link, seconds.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.peak_bytes_per_s * self.efficiency)
    }
}

/// Static description of a device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceInfo {
    /// Marketing name, e.g. "Terasic DE4 (Stratix IV 4SGX530)".
    pub name: String,
    /// Device kind.
    pub kind: DeviceKind,
    /// Number of compute units exposed to OpenCL.
    pub compute_units: u32,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Local memory available to one work-group, bytes.
    pub local_mem_bytes: u64,
    /// Maximum work-group size.
    pub max_work_group_size: usize,
    /// Device global-memory bandwidth, bytes/second.
    pub global_bw_bytes_per_s: f64,
    /// Host link.
    pub link: LinkModel,
    /// Per-command host overhead (enqueue + synchronisation), seconds.
    pub command_overhead_s: f64,
    /// One-time session setup cost (device programming / context + JIT /
    /// memory initialisation), seconds. Charged once per pricing run by
    /// `bop-core`, and the dominant term of the device-saturation behaviour
    /// discussed in the paper's Section V.C.
    pub session_setup_s: f64,
    /// Device power draw while executing, watts (TDP for CPU/GPU; the
    /// fitted kernel power for the FPGA — see `bop-fpga`).
    pub power_watts: f64,
}

/// A 1-D NDRange dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dispatch {
    /// Total work-items.
    pub global: usize,
    /// Work-group size.
    pub local: usize,
}

impl Dispatch {
    /// A dispatch of `global` items in groups of `local`.
    ///
    /// # Panics
    /// Panics if `local` is zero or does not divide `global`.
    pub fn new(global: usize, local: usize) -> Dispatch {
        assert!(local > 0, "work-group size must be positive");
        assert_eq!(global % local, 0, "global size must be a multiple of local size");
        Dispatch { global, local }
    }

    /// Number of work-groups.
    pub fn groups(&self) -> usize {
        self.global / self.local
    }

    /// Split `groups` work-group indices into at most `workers` contiguous
    /// ascending ranges of near-equal size (the first `groups % workers`
    /// ranges get one extra group). Used by the queue's parallel NDRange
    /// executor; the contiguous ascending order is what keeps merged
    /// statistics and error reporting identical to a sequential sweep.
    pub fn partition_groups(groups: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
        let workers = workers.max(1).min(groups.max(1));
        let base = groups / workers;
        let extra = groups % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges.retain(|r| !r.is_empty());
        ranges
    }
}

/// Build options, mirroring the knobs of Altera's OpenCL compiler used in
/// the paper's Section V.B: SIMD vectorization, compute-unit replication
/// and loop unrolling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOptions {
    /// SIMD lanes (`num_simd_work_items`); must be a power of two.
    pub simd: u32,
    /// Pipeline replication (`num_compute_units`).
    pub compute_units: u32,
    /// Override for `#pragma unroll` factors in the source.
    pub unroll: Option<u32>,
    /// Skip the optimisation pipeline (`Pipeline::for_build` selects the
    /// empty pipeline `none`).
    pub no_opt: bool,
    /// Enable local common-subexpression elimination in the optimisation
    /// pipeline: an area-vs-fidelity design choice the ablation benches
    /// quantify.
    pub cse: bool,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions { simd: 1, compute_units: 1, unroll: None, no_opt: false, cse: false }
    }
}

impl BuildOptions {
    /// The paper's kernel IV.A configuration: vectorized twice, replicated
    /// three times.
    pub fn paper_straightforward() -> BuildOptions {
        BuildOptions { simd: 2, compute_units: 3, ..BuildOptions::default() }
    }

    /// The paper's kernel IV.B configuration: inner loop unrolled twice,
    /// vectorized four times.
    pub fn paper_optimized() -> BuildOptions {
        BuildOptions { simd: 4, compute_units: 1, unroll: Some(2), ..BuildOptions::default() }
    }

    /// Effective parallel work-items processed per cycle-equivalent
    /// (`simd * compute_units`).
    pub fn lanes(&self) -> u32 {
        self.simd * self.compute_units
    }
}

/// FPGA-style resource usage, in the units of the paper's Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceUsage {
    /// Combinational logic (ALUTs) used.
    pub aluts: u64,
    /// Dedicated registers used.
    pub registers: u64,
    /// Block-memory bits used.
    pub memory_bits: u64,
    /// M9K RAM blocks used.
    pub m9k_blocks: u64,
    /// M144K RAM blocks used.
    pub m144k_blocks: u64,
    /// 18-bit DSP elements used.
    pub dsp18: u64,
}

impl ResourceUsage {
    /// Element-wise sum.
    pub fn add(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            aluts: self.aluts + other.aluts,
            registers: self.registers + other.registers,
            memory_bits: self.memory_bits + other.memory_bits,
            m9k_blocks: self.m9k_blocks + other.m9k_blocks,
            m144k_blocks: self.m144k_blocks + other.m144k_blocks,
            dsp18: self.dsp18 + other.dsp18,
        }
    }

    /// Element-wise scale by an integer factor (SIMD/replication).
    pub fn scale(&self, k: u64) -> ResourceUsage {
        ResourceUsage {
            aluts: self.aluts * k,
            registers: self.registers * k,
            memory_bits: self.memory_bits * k,
            m9k_blocks: self.m9k_blocks * k,
            m144k_blocks: self.m144k_blocks * k,
            dsp18: self.dsp18 * k,
        }
    }
}

/// What a device build produced, in the shape of the paper's Table I rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Device name.
    pub device: String,
    /// Kernel names in the program.
    pub kernels: Vec<String>,
    /// Achieved clock frequency (FPGA) or core clock (GPU/CPU), Hz.
    pub clock_hz: f64,
    /// Resource usage (FPGA only).
    pub resources: Option<ResourceUsage>,
    /// Fraction of device logic used (FPGA only), 0..=1.
    pub logic_utilization: Option<f64>,
    /// Estimated device power while running this program, watts.
    pub power_watts: f64,
    /// Per-pass statistics of the runtime optimisation pipeline that ran
    /// before device compilation ([`crate::Program`] fills this in; device
    /// models leave it `None`).
    pub passes: Option<bop_clir::passes::PipelineReport>,
}

/// Error from compiling or fitting a program on a device.
#[derive(Debug, Clone)]
pub struct BuildError {
    /// Explanation (front-end diagnostics or fitter failures).
    pub message: String,
    source: Option<Arc<dyn std::error::Error + Send + Sync>>,
}

impl BuildError {
    /// Construct from any displayable cause.
    pub fn new(message: impl Into<String>) -> BuildError {
        BuildError { message: message.into(), source: None }
    }

    /// Construct with an underlying structured cause, preserved through
    /// [`std::error::Error::source`] so callers can downcast (e.g. to
    /// [`bop_clir::verify::VerifyError`] when a pass produced invalid IR).
    pub fn with_source(
        message: impl Into<String>,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> BuildError {
        BuildError { message: message.into(), source: Some(Arc::new(source)) }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "build failed: {}", self.message)
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| &**e as &(dyn std::error::Error + 'static))
    }
}

impl From<bop_clc::CompileError> for BuildError {
    fn from(e: bop_clc::CompileError) -> BuildError {
        BuildError::new(e.to_string())
    }
}

impl From<bop_clir::verify::VerifyError> for BuildError {
    fn from(e: bop_clir::verify::VerifyError) -> BuildError {
        BuildError::with_source(format!("pass pipeline produced invalid IR: {e}"), e)
    }
}

/// A device model: can describe itself and compile IR modules.
pub trait Device: Send + Sync {
    /// Static device description.
    fn info(&self) -> &DeviceInfo;

    /// Compile an IR module for this device.
    ///
    /// # Errors
    /// Returns [`BuildError`] when the program cannot be realised (e.g. the
    /// FPGA fitter runs out of resources at the requested SIMD/replication
    /// factors).
    fn compile(
        &self,
        module: Arc<Module>,
        options: &BuildOptions,
    ) -> Result<Arc<dyn DeviceProgram>, BuildError>;
}

/// A program compiled for a particular device: executable IR plus the
/// device's timing, power and resource models for it.
pub trait DeviceProgram: Send + Sync {
    /// The compiled module.
    fn module(&self) -> &Arc<Module>;

    /// The math library kernels execute with (this is where the FPGA's
    /// reduced-precision `pow` lives).
    fn math(&self) -> &dyn MathLib;

    /// Build report (Table I shape).
    fn report(&self) -> BuildReport;

    /// Wall-clock the device needs to execute `dispatch` of `kernel`,
    /// given the dynamic statistics of that execution, in seconds.
    fn kernel_time(&self, kernel: &str, dispatch: &Dispatch, stats: &ExecStats) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_time_includes_latency_and_efficiency() {
        let link = LinkModel { peak_bytes_per_s: 1e9, efficiency: 0.5, latency_s: 1e-3 };
        let t = link.transfer_time(500_000_000);
        assert!((t - 1.001).abs() < 1e-9);
    }

    #[test]
    fn dispatch_groups() {
        let d = Dispatch::new(1024, 256);
        assert_eq!(d.groups(), 4);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn dispatch_rejects_non_multiple() {
        let _ = Dispatch::new(10, 4);
    }

    #[test]
    fn paper_build_options() {
        assert_eq!(BuildOptions::paper_straightforward().lanes(), 6);
        let b = BuildOptions::paper_optimized();
        assert_eq!(b.simd, 4);
        assert_eq!(b.unroll, Some(2));
    }

    #[test]
    fn resource_arithmetic() {
        let a = ResourceUsage { aluts: 10, dsp18: 2, ..Default::default() };
        let b = a.scale(3).add(&a);
        assert_eq!(b.aluts, 40);
        assert_eq!(b.dsp18, 8);
    }
}

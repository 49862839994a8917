//! The FPGA device: compile flow and timing model.

use crate::fitter::{self, FitResult};
use crate::schedule::{self, KernelSchedule};
use crate::stratix4::FpgaPart;
use bop_clir::ir::Module;
use bop_clir::mathlib::{DeviceMath, MathLib};
use bop_clir::stats::ExecStats;
use bop_clir::types::{AddressSpace, Type};
use bop_ocl::{
    BuildError, BuildOptions, BuildReport, Device, DeviceKind, DeviceProgram, Dispatch, LinkModel,
    ResourceUsage,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A Terasic-DE4-class FPGA board.
pub struct FpgaDevice {
    info: bop_ocl::device::DeviceInfo,
    part: FpgaPart,
    math: DeviceMath,
}

impl FpgaDevice {
    /// The paper's board: Terasic DE4 with the Stratix IV EP4SGX530,
    /// two DDR2 banks (12.75 GB/s peak) and PCIe gen2 x4 (2 GB/s peak),
    /// running Altera OpenCL **13.0** — i.e. with the inaccurate `pow`
    /// operator of Section V.C.
    ///
    /// The PCIe efficiency (0.175) and per-command overhead are calibrated
    /// on the paper's kernel IV.A throughput (25 options/s), which is
    /// entirely transfer-bound; the DE4 BSP's device-to-host path was
    /// notoriously far from link peak.
    ///
    /// ```
    /// use bop_ocl::{BuildOptions, Context, Program};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let board = bop_fpga::FpgaDevice::de4();
    /// let ctx = Context::new(board);
    /// let program = Program::from_source(
    ///     &ctx,
    ///     "saxpy.cl",
    ///     "__kernel void saxpy(__global double* y, __global const double* x, double a) {
    ///          size_t i = get_global_id(0);
    ///          y[i] = a * x[i] + y[i];
    ///      }",
    ///     &BuildOptions::default(),
    /// )?;
    /// let report = program.report();
    /// assert!(report.clock_hz > 100e6);          // the fitter closed timing
    /// assert!(report.resources.is_some());       // Table-I style resources
    /// # Ok(())
    /// # }
    /// ```
    pub fn de4() -> Arc<FpgaDevice> {
        Arc::new(FpgaDevice {
            info: bop_ocl::device::DeviceInfo {
                name: "Terasic DE4 (Stratix IV EP4SGX530)".into(),
                kind: DeviceKind::Fpga,
                compute_units: 1,
                global_mem_bytes: 2 << 30,
                local_mem_bytes: 64 << 10,
                max_work_group_size: 2048,
                global_bw_bytes_per_s: 12.75e9,
                link: LinkModel { peak_bytes_per_s: 2.0e9, efficiency: 0.175, latency_s: 30e-6 },
                command_overhead_s: 120e-6,
                session_setup_s: 1.0,
                power_watts: 17.0, // superseded per-program by the fitter's estimate
            },
            part: FpgaPart::ep4sgx530(),
            math: DeviceMath::altera_13_0(),
        })
    }

    /// The same board with the anticipated 13.0 SP1 compiler whose `pow`
    /// operator is accurate (the paper's hoped-for fix).
    pub fn de4_sp1() -> Arc<FpgaDevice> {
        let base = FpgaDevice::de4();
        Arc::new(FpgaDevice {
            info: bop_ocl::device::DeviceInfo {
                name: "Terasic DE4 (Stratix IV EP4SGX530, 13.0 SP1)".into(),
                ..base.info.clone()
            },
            part: base.part.clone(),
            math: DeviceMath::altera_13_0_sp1(),
        })
    }

    /// A custom board: any part with the DE4's I/O characteristics.
    pub fn with_part(part: FpgaPart, math: DeviceMath) -> Arc<FpgaDevice> {
        let base = FpgaDevice::de4();
        Arc::new(FpgaDevice {
            info: bop_ocl::device::DeviceInfo {
                name: format!("Custom board ({})", part.name),
                ..base.info.clone()
            },
            part,
            math,
        })
    }

    /// The part this board carries.
    pub fn part(&self) -> &FpgaPart {
        &self.part
    }
}

impl Device for FpgaDevice {
    fn info(&self) -> &bop_ocl::device::DeviceInfo {
        &self.info
    }

    fn compile(
        &self,
        module: Arc<Module>,
        options: &BuildOptions,
    ) -> Result<Arc<dyn DeviceProgram>, BuildError> {
        let mut schedules = Vec::new();
        let mut by_name = HashMap::new();
        for func in module.kernels() {
            let sched = schedule::schedule(func);
            let local_args = func
                .params
                .iter()
                .filter(|p| matches!(p.ty, Type::Ptr(AddressSpace::Local, _)))
                .count() as u32;
            by_name.insert(func.name.clone(), sched.clone());
            schedules.push((func.name.clone(), sched, local_args));
        }
        if schedules.is_empty() {
            return Err(BuildError::new("module contains no kernels"));
        }
        let fit = fitter::fit(&self.part, &schedules, options)?;
        Ok(Arc::new(FpgaProgram {
            module,
            math: self.math,
            fit,
            schedules: by_name,
            options: options.clone(),
            device_name: self.info.name.clone(),
            ddr_bw: self.info.global_bw_bytes_per_s,
        }))
    }
}

/// A fitted FPGA image: resources, clock, power and the pipeline timing
/// model.
pub struct FpgaProgram {
    module: Arc<Module>,
    math: DeviceMath,
    fit: FitResult,
    schedules: HashMap<String, KernelSchedule>,
    options: BuildOptions,
    device_name: String,
    ddr_bw: f64,
}

impl FpgaProgram {
    /// The fitter result for this image.
    pub fn fit(&self) -> &FitResult {
        &self.fit
    }

    /// The build options the image was compiled with.
    pub fn options(&self) -> &BuildOptions {
        &self.options
    }

    /// Resource usage (Table I shape).
    pub fn resources(&self) -> &ResourceUsage {
        &self.fit.resources
    }
}

impl DeviceProgram for FpgaProgram {
    fn module(&self) -> &Arc<Module> {
        &self.module
    }

    fn math(&self) -> &dyn MathLib {
        &self.math
    }

    fn report(&self) -> BuildReport {
        BuildReport {
            device: self.device_name.clone(),
            // Module order, as the other devices report it (the schedule
            // map's order would change from build to build).
            kernels: self.module.kernels().map(|k| k.name.clone()).collect(),
            clock_hz: self.fit.fmax_hz,
            resources: Some(self.fit.resources),
            logic_utilization: Some(self.fit.logic_util),
            power_watts: self.fit.power_watts,
            passes: None,
        }
    }

    /// Pipeline timing: the image retires one execution of each work block
    /// per cycle per lane (II = 1), so the occupancy bound is the largest
    /// per-work-block execution count; DDR bandwidth bounds memory-heavy
    /// kernels; the pipeline depth is paid once per launch.
    fn kernel_time(&self, kernel: &str, _dispatch: &Dispatch, stats: &ExecStats) -> f64 {
        let Some(sched) = self.schedules.get(kernel) else {
            return 0.0;
        };
        let lanes = (self.options.simd.max(1) * self.options.compute_units.max(1)) as f64;
        let fmax = self.fit.fmax_hz;
        let work_execs = stats
            .block_execs
            .iter()
            .zip(&sched.work_blocks)
            .filter(|(_, &w)| w)
            .map(|(&e, _)| e)
            .max()
            .unwrap_or(0) as f64;
        let compute_s = work_execs / lanes / fmax;
        let mem_s = stats.mem.global_bytes() as f64 / self.ddr_bw;
        let barrier_s = stats.barriers as f64 * 2.0 / fmax;
        let stall_s = (stats.pipe_read_stalls + stats.pipe_write_stalls) as f64
            * crate::schedule::PIPE_STALL_CYCLES as f64
            / fmax;
        let fill_s = sched.depth_cycles as f64 / fmax;
        fill_s + compute_s.max(mem_s) + barrier_s + stall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_ocl::{CommandQueue, Context, Program};

    const SAXPY: &str = "__kernel void k(__global double* x, __global double* y, double a) {
        size_t g = get_global_id(0);
        y[g] = a * x[g] + y[g];
    }";

    #[test]
    fn report_lists_kernels_in_the_same_order_on_every_build() {
        // The two-kernel streaming program (producer + consumer): every
        // build must list its kernels identically.
        let src = include_str!("../../core/kernels/streaming.cl")
            .replace("REAL", "double")
            .replace("PRIVN", "33");
        let ctx = Context::new(FpgaDevice::de4());
        let build = || {
            Program::from_source(&ctx, "streaming.cl", &src, &BuildOptions::default())
                .expect("fits")
                .report()
                .kernels
        };
        let first = build();
        assert_eq!(first.len(), 2, "producer and consumer: {first:?}");
        for _ in 0..16 {
            assert_eq!(build(), first, "kernel order changed between builds");
        }
    }

    #[test]
    fn compile_reports_resources_and_clock() {
        let dev = FpgaDevice::de4();
        let ctx = Context::new(dev.clone());
        let p = Program::from_source(&ctx, "t.cl", SAXPY, &BuildOptions::default()).expect("fits");
        let r = p.report();
        assert!(r.resources.is_some());
        assert!(r.clock_hz > 100e6 && r.clock_hz < 260e6);
        assert!(r.power_watts > 4.0 && r.power_watts < 25.0);
        assert!(r.logic_utilization.unwrap() > 0.0);
    }

    #[test]
    fn end_to_end_execution_with_simulated_time() {
        let dev = FpgaDevice::de4();
        let ctx = Context::new(dev.clone());
        let q = CommandQueue::new(&ctx);
        let p = Program::from_source(&ctx, "t.cl", SAXPY, &BuildOptions::default()).expect("fits");
        let k = p.kernel("k").expect("kernel");
        let n = 64;
        let x = ctx.create_buffer(n * 8);
        let y = ctx.create_buffer(n * 8);
        q.enqueue_write_f64(&x, &vec![2.0; n]).expect("write");
        q.enqueue_write_f64(&y, &vec![1.0; n]).expect("write");
        k.set_arg_buffer(0, &x);
        k.set_arg_buffer(1, &y);
        k.set_arg_f64(2, 3.0);
        q.enqueue_nd_range(&k, Dispatch::new(n, 16)).expect("launch");
        let mut out = vec![0.0; n];
        q.enqueue_read_f64(&y, &mut out).expect("read");
        assert!(out.iter().all(|&v| v == 7.0));
        assert!(q.device_busy_s() > 0.0);
    }

    #[test]
    fn more_lanes_make_kernels_faster_until_memory_bound() {
        let dev = FpgaDevice::de4();
        let module = Arc::new(
            bop_clc::compile("t.cl", SAXPY, &bop_clc::Options::default()).expect("compiles"),
        );
        let p1 = dev.compile(module.clone(), &BuildOptions::default()).expect("fits");
        let p4 = dev
            .compile(module, &BuildOptions { simd: 4, ..BuildOptions::default() })
            .expect("fits");
        let mut stats = ExecStats::with_blocks(1);
        stats.block_execs[0] = 1 << 20;
        let d = Dispatch::new(1 << 20, 256);
        let t1 = p1.kernel_time("k", &d, &stats);
        let t4 = p4.kernel_time("k", &d, &stats);
        assert!(t4 < t1, "vectorization speeds up compute-bound kernels: {t4} !< {t1}");
        // With enormous memory traffic, both hit the DDR roof.
        stats.mem.global_load_bytes = 100 << 30;
        let t1m = p1.kernel_time("k", &d, &stats);
        let t4m = p4.kernel_time("k", &d, &stats);
        assert!((t1m / t4m) < 1.1, "memory-bound kernels do not scale with SIMD");
    }

    #[test]
    fn sp1_device_has_accurate_pow() {
        let buggy = FpgaDevice::de4();
        let fixed = FpgaDevice::de4_sp1();
        let module = Arc::new(
            bop_clc::compile(
                "t.cl",
                "__kernel void k(__global double* o) { o[0] = pow(o[1], o[2]); }",
                &bop_clc::Options::default(),
            )
            .expect("compiles"),
        );
        let pb = buggy.compile(module.clone(), &BuildOptions::default()).expect("fits");
        let pf = fixed.compile(module, &BuildOptions::default()).expect("fits");
        let x = 1.0065_f64;
        let exact = x.powf(1000.0);
        let vb = pb.math().pow64(x, 1000.0);
        let vf = pf.math().pow64(x, 1000.0);
        assert!(((vf - exact) / exact).abs() < 1e-12);
        assert!(((vb - exact) / exact).abs() > 1e-7);
    }
}

#[cfg(test)]
mod timing_edge_tests {
    use super::*;

    #[test]
    fn unknown_kernel_times_to_zero_and_barriers_cost_cycles() {
        let dev = FpgaDevice::de4();
        let module = std::sync::Arc::new(
            bop_clc::compile(
                "t.cl",
                "__kernel void k(__global double* o, __local double* l) {
                    l[get_local_id(0)] = o[get_global_id(0)];
                    barrier(1);
                    o[get_global_id(0)] = l[0];
                }",
                &bop_clc::Options::default(),
            )
            .expect("compiles"),
        );
        let prog = dev.compile(module, &BuildOptions::default()).expect("fits");
        let d = Dispatch::new(64, 64);
        let empty = ExecStats::with_blocks(1);
        assert_eq!(prog.kernel_time("no_such_kernel", &d, &empty), 0.0);

        let mut quiet = ExecStats::with_blocks(1);
        quiet.block_execs[0] = 1000;
        let mut noisy = quiet.clone();
        noisy.barriers = 100_000;
        let t_quiet = prog.kernel_time("k", &d, &quiet);
        let t_noisy = prog.kernel_time("k", &d, &noisy);
        assert!(t_noisy > t_quiet, "barriers must cost time: {t_quiet} vs {t_noisy}");
    }
}

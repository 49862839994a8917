//! Programs and kernels.

use crate::context::{Buffer, Context, Pipe};
use crate::device::{BuildError, BuildOptions, BuildReport, DeviceProgram};
use bop_clir::bytecode::CompiledKernel;
use bop_clir::ir::{Function, Inst, Module};
use bop_clir::passes::{Pipeline, PipelineReport};
use bop_clir::value::Value;
use bop_obs::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// A program built for the context's device.
///
/// Building runs the front-end (for sources), which only lowers, then
/// the optimisation [`Pipeline`] selected by the build options — the one
/// place IR is optimised — verifies the post-pass IR (which must be
/// phi-free), compiles it for the device, and finally flattens every
/// kernel to register [bytecode](bop_clir::bytecode) — compiled once here
/// and cached, so sessions and shards that clone the program share the
/// same compiled kernels. Cloning is cheap (the compiled artifacts are
/// reference-counted).
#[derive(Clone)]
pub struct Program {
    device_program: Arc<dyn DeviceProgram>,
    compiled: Arc<HashMap<String, Arc<CompiledKernel>>>,
    pass_report: Arc<PipelineReport>,
}

impl Program {
    /// Compile OpenCL C `source` and build it for the context's device —
    /// the `clCreateProgramWithSource` + `clBuildProgram` pair.
    ///
    /// # Errors
    /// Returns [`BuildError`] on front-end diagnostics or device fitting
    /// failures.
    pub fn from_source(
        ctx: &Arc<Context>,
        source_name: &str,
        source: &str,
        options: &BuildOptions,
    ) -> Result<Program, BuildError> {
        Program::from_source_with_metrics(ctx, source_name, source, options, None)
    }

    /// Like [`Program::from_source`], publishing `compile.*` timing
    /// histograms (front-end, pass pipeline, device compile, bytecode
    /// emission and total, in seconds) into `metrics`.
    ///
    /// # Errors
    /// Same as [`Program::from_source`].
    pub fn from_source_with_metrics(
        ctx: &Arc<Context>,
        source_name: &str,
        source: &str,
        options: &BuildOptions,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<Program, BuildError> {
        let total = Instant::now();
        let clc_options =
            bop_clc::Options { unroll_override: options.unroll, ..bop_clc::Options::default() };
        let t = Instant::now();
        let module = bop_clc::compile(source_name, source, &clc_options)?;
        let frontend_s = t.elapsed().as_secs_f64();
        Program::build(ctx, module, options, metrics, frontend_s, total)
    }

    /// Build an already-lowered module for the context's device. The
    /// runtime pass pipeline, post-pass verification and bytecode
    /// compilation run exactly as in [`Program::from_source`].
    ///
    /// # Errors
    /// Returns [`BuildError`] on device fitting failures, when the pass
    /// pipeline produces invalid IR, or when phi nodes survive it (e.g. an
    /// SSA-form module built with `no_opt`).
    pub fn from_module(
        ctx: &Arc<Context>,
        module: Arc<Module>,
        options: &BuildOptions,
    ) -> Result<Program, BuildError> {
        let module = Arc::try_unwrap(module).unwrap_or_else(|m| (*m).clone());
        Program::build(ctx, module, options, None, 0.0, Instant::now())
    }

    fn build(
        ctx: &Arc<Context>,
        module: Module,
        options: &BuildOptions,
        metrics: Option<&MetricsRegistry>,
        frontend_s: f64,
        total: Instant,
    ) -> Result<Program, BuildError> {
        // Optimise with the pipeline matching the build options, then
        // refuse to hand the device — or the bytecode compiler, which
        // assumes verified, phi-free IR — anything a pass broke or left
        // in SSA form.
        let t = Instant::now();
        let pipeline = Pipeline::for_build(options.no_opt, options.cse);
        let (module, pass_report) = pipeline.run(module);
        bop_clir::verify::verify_module(&module)?;
        if let Some(func) = module.functions.iter().find(|f| has_phis(f)) {
            return Err(BuildError::new(format!(
                "function `{}` still holds phi nodes after pass pipeline `{}`; \
                 executable IR must be phi-free",
                func.name, pass_report.pipeline
            )));
        }
        let passes_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let device_program = ctx.device().compile(Arc::new(module), options)?;
        let device_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let compiled: HashMap<String, Arc<CompiledKernel>> = device_program
            .module()
            .kernels()
            .map(|k| (k.name.clone(), Arc::new(CompiledKernel::compile(k))))
            .collect();
        let bytecode_s = t.elapsed().as_secs_f64();

        if let Some(reg) = metrics {
            let device = ctx.device().info().kind.to_string();
            let labels = [("device", device.as_str())];
            reg.observe("compile.frontend_seconds", &labels, frontend_s);
            reg.observe("compile.passes_seconds", &labels, passes_s);
            reg.observe("compile.device_seconds", &labels, device_s);
            reg.observe("compile.bytecode_seconds", &labels, bytecode_s);
            reg.observe("compile.total_seconds", &labels, total.elapsed().as_secs_f64());
        }
        Ok(Program {
            device_program,
            compiled: Arc::new(compiled),
            pass_report: Arc::new(pass_report),
        })
    }

    /// The device build report (Table I shape), with
    /// [`BuildReport::passes`] filled in from the runtime pipeline.
    pub fn report(&self) -> BuildReport {
        let mut report = self.device_program.report();
        report.passes = Some((*self.pass_report).clone());
        report
    }

    /// Per-pass statistics of the optimisation pipeline this program was
    /// built with.
    pub fn pass_report(&self) -> &PipelineReport {
        &self.pass_report
    }

    /// The compiled module.
    pub fn module(&self) -> &Arc<Module> {
        self.device_program.module()
    }

    /// The cached register-bytecode form of kernel `name`, if present
    /// (every kernel of the module is compiled at build time).
    pub fn compiled_kernel(&self, name: &str) -> Option<&Arc<CompiledKernel>> {
        self.compiled.get(name)
    }

    /// Create a kernel handle by name.
    ///
    /// # Errors
    /// Returns [`BuildError`] if the program has no kernel of that name.
    pub fn kernel(&self, name: &str) -> Result<Kernel, BuildError> {
        let missing = || BuildError::new(format!("no kernel named `{name}`"));
        let func = self.device_program.module().kernel(name).ok_or_else(missing)?;
        let compiled = self.compiled.get(name).ok_or_else(missing)?.clone();
        let nargs = func.params.len();
        Ok(Kernel {
            device_program: self.device_program.clone(),
            compiled,
            name: name.to_owned(),
            args: Mutex::new(vec![None; nargs]),
        })
    }
}

fn has_phis(func: &Function) -> bool {
    func.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Phi { .. }))
}

/// A kernel argument binding.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelArg {
    /// Scalar value.
    Scalar(Value),
    /// Global/constant buffer.
    Buffer(Buffer),
    /// Work-group local allocation of the given size (the
    /// `clSetKernelArg(…, size, NULL)` idiom).
    Local(usize),
    /// On-chip FIFO (see [`Context::create_pipe`](crate::Context::create_pipe)).
    Pipe(Pipe),
}

/// A kernel handle with argument bindings.
pub struct Kernel {
    pub(crate) device_program: Arc<dyn DeviceProgram>,
    pub(crate) compiled: Arc<CompiledKernel>,
    pub(crate) name: String,
    pub(crate) args: Mutex<Vec<Option<KernelArg>>>,
}

impl Kernel {
    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bind argument `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range for the kernel signature.
    pub fn set_arg(&self, index: usize, arg: KernelArg) {
        let mut args = self.args.lock().unwrap();
        assert!(index < args.len(), "kernel `{}` has {} arguments", self.name, args.len());
        args[index] = Some(arg);
    }

    /// Bind a buffer argument.
    pub fn set_arg_buffer(&self, index: usize, buf: &Buffer) {
        self.set_arg(index, KernelArg::Buffer(buf.clone()));
    }

    /// Bind an `f64` scalar argument.
    pub fn set_arg_f64(&self, index: usize, v: f64) {
        self.set_arg(index, KernelArg::Scalar(Value::F64(v)));
    }

    /// Bind an `i32` scalar argument.
    pub fn set_arg_i32(&self, index: usize, v: i32) {
        self.set_arg(index, KernelArg::Scalar(Value::I32(v)));
    }

    /// Bind a local-memory argument of `bytes` bytes per work-group.
    pub fn set_arg_local(&self, index: usize, bytes: usize) {
        self.set_arg(index, KernelArg::Local(bytes));
    }

    /// Bind a pipe argument.
    pub fn set_arg_pipe(&self, index: usize, pipe: &Pipe) {
        self.set_arg(index, KernelArg::Pipe(pipe.clone()));
    }

    pub(crate) fn bound_args(&self) -> Result<Vec<KernelArg>, BuildError> {
        let args = self.args.lock().unwrap();
        args.iter()
            .enumerate()
            .map(|(i, a)| {
                a.clone().ok_or_else(|| {
                    BuildError::new(format!("kernel `{}`: argument {i} not set", self.name))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::NullDevice;
    use std::sync::Arc;

    fn ctx() -> Arc<Context> {
        Context::new(Arc::new(NullDevice::default()))
    }

    #[test]
    fn build_and_kernel_lookup() {
        let ctx = ctx();
        let p = Program::from_source(
            &ctx,
            "t.cl",
            "__kernel void a(__global double* o) {} __kernel void b(__global double* o) {}",
            &BuildOptions::default(),
        )
        .expect("builds");
        assert!(p.kernel("a").is_ok());
        assert!(p.kernel("b").is_ok());
        assert!(p.kernel("c").is_err());
        assert_eq!(p.module().kernels().count(), 2);
    }

    #[test]
    fn front_end_errors_become_build_errors() {
        let ctx = ctx();
        let Err(err) = Program::from_source(&ctx, "t.cl", "not a kernel", &BuildOptions::default())
        else {
            panic!("bad source must not build");
        };
        assert!(!err.message.is_empty());
    }

    #[test]
    fn unset_args_detected() {
        let ctx = ctx();
        let p = Program::from_source(
            &ctx,
            "t.cl",
            "__kernel void k(__global double* o, double x) {}",
            &BuildOptions::default(),
        )
        .expect("builds");
        let k = p.kernel("k").expect("kernel");
        k.set_arg_f64(1, 2.0);
        let err = k.bound_args().expect_err("missing arg 0");
        assert!(err.message.contains("argument 0"));
        let buf = ctx.create_buffer(8);
        k.set_arg_buffer(0, &buf);
        assert_eq!(k.bound_args().expect("all set").len(), 2);
    }
}

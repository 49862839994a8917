//! The accelerator facade: functional pricing and paper-scale projection.

use crate::error::Error;
use crate::hostprog::optimized::OptimizedHost;
use crate::hostprog::payoff::PayoffHost;
use crate::hostprog::straightforward::StraightforwardHost;
use crate::hostprog::streaming::StreamingHost;
use crate::kernels::KernelArch;
use crate::perfmodel::{scale_to_batch, StatsFit, CALIBRATION_STEPS};
use bop_cpu::Precision;
use bop_finance::binomial::tree_nodes;
use bop_finance::payoff::{price_payoff_f64, BarrierKind, Payoff};
use bop_finance::types::OptionParams;
use bop_finance::{binomial, metrics};
use bop_obs::{Json, MetricsRegistry, TraceLog, TraceSpan};
use bop_ocl::queue::RuntimeError;
use bop_ocl::{
    BuildOptions, BuildReport, CommandQueue, Context, Device, Engine, FaultPlan, Program,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The complete description of an accelerator, ready to be realised by
/// [`Accelerator::from_config`]. Usually assembled through
/// [`Accelerator::builder`]; construct it directly when a configuration
/// is computed or cloned wholesale (the serving layer builds identical
/// shards from one config).
#[derive(Clone)]
pub struct AcceleratorConfig {
    /// The device to compile for and run on.
    pub device: Arc<dyn Device>,
    /// Kernel architecture (Section IV.A or IV.B).
    pub arch: KernelArch,
    /// Numeric precision.
    pub precision: Precision,
    /// Lattice step count (≥ 2).
    pub n_steps: usize,
    /// Build options; `None` means the paper's published configuration
    /// for the architecture (Section V.B).
    pub build: Option<BuildOptions>,
    /// Metrics registry every session publishes into, if any.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// NDRange interpreter thread count override (wall-clock knob only;
    /// results are identical for every count).
    pub workers: Option<usize>,
    /// Kernel execution engine override (`None` = the queue default:
    /// `BOP_SIM_ENGINE`, else lanes). A wall-clock knob only — all
    /// engines (walk, bytecode, lanes) are bit-identical.
    pub engine: Option<Engine>,
    /// Per-work-group instruction budget override (`None` = the queue
    /// default: `BOP_SIM_STEP_LIMIT`, else the interpreter default).
    pub step_limit: Option<u64>,
    /// Use the paper's "reduced number of read operations" variant of
    /// the straightforward host program (root-only reads).
    pub reduced_reads: bool,
    /// Deterministic fault-injection plan for pricing sessions (`None` =
    /// the `BOP_SIM_FAULTS` environment default, which itself defaults
    /// to no injection). Applies to [`Accelerator::price`] paths only;
    /// calibration and projection always run fault-free.
    pub faults: Option<FaultPlan>,
}

impl AcceleratorConfig {
    /// A default configuration for `device`: kernel IV.B
    /// ([`KernelArch::Optimized`]), double precision, a 64-step lattice
    /// (small enough for functional runs; raise it for paper-scale
    /// projections), the paper's build options.
    pub fn new(device: Arc<dyn Device>) -> AcceleratorConfig {
        AcceleratorConfig {
            device,
            arch: KernelArch::Optimized,
            precision: Precision::Double,
            n_steps: 64,
            build: None,
            metrics: None,
            workers: None,
            engine: None,
            step_limit: None,
            reduced_reads: false,
            faults: None,
        }
    }

    /// Realise the configuration.
    ///
    /// # Errors
    /// Same as [`Accelerator::from_config`].
    pub fn build(self) -> Result<Accelerator, Error> {
        Accelerator::from_config(self)
    }

    /// Realise the configuration `n` times, compiling the kernel **once**:
    /// the first accelerator is built from the config and the rest are
    /// clones sharing its compiled program. This is how the serving layer
    /// builds identical shards without paying per-shard compilation.
    ///
    /// # Errors
    /// Same as [`Accelerator::from_config`]; rejects `n == 0`.
    pub fn build_pool(self, n: usize) -> Result<Vec<Accelerator>, Error> {
        if n == 0 {
            return Err(Error::Invalid("a pool needs at least one shard".into()));
        }
        let first = Accelerator::from_config(self)?;
        let mut pool = Vec::with_capacity(n);
        for _ in 1..n {
            pool.push(first.clone());
        }
        pool.push(first);
        pool.rotate_right(1);
        Ok(pool)
    }
}

/// Fluent construction of an [`Accelerator`]; obtained from
/// [`Accelerator::builder`]. Every knob has a default (see
/// [`AcceleratorConfig::new`]); finish with [`AcceleratorBuilder::build`].
#[must_use = "the builder does nothing until `.build()` is called"]
pub struct AcceleratorBuilder {
    config: AcceleratorConfig,
}

impl AcceleratorBuilder {
    /// Select the kernel architecture.
    pub fn arch(mut self, arch: KernelArch) -> AcceleratorBuilder {
        self.config.arch = arch;
        self
    }

    /// Select the numeric precision.
    pub fn precision(mut self, precision: Precision) -> AcceleratorBuilder {
        self.config.precision = precision;
        self
    }

    /// Set the lattice step count (must be ≥ 2).
    pub fn n_steps(mut self, n_steps: usize) -> AcceleratorBuilder {
        self.config.n_steps = n_steps;
        self
    }

    /// Override the paper's build options.
    pub fn build_options(mut self, build: BuildOptions) -> AcceleratorBuilder {
        self.config.build = Some(build);
        self
    }

    /// Publish queue and interpreter metrics of every session into
    /// `registry`; device-model gauges are set as soon as the
    /// accelerator is built.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> AcceleratorBuilder {
        self.config.metrics = Some(registry);
        self
    }

    /// Interpret NDRange work-groups on `workers` threads (≥ 1 enforced).
    /// A wall-clock knob only — prices, statistics and the simulated
    /// clock are identical for every count.
    pub fn workers(mut self, workers: usize) -> AcceleratorBuilder {
        self.config.workers = Some(workers.max(1));
        self
    }

    /// Select the kernel execution engine (walk, bytecode, or the
    /// lane-vectorized `lanes`) for every session this
    /// accelerator opens (default: the queue's `BOP_SIM_ENGINE`, else
    /// lanes). A wall-clock knob only — prices, statistics
    /// and the simulated clock are identical on every engine.
    pub fn engine(mut self, engine: Engine) -> AcceleratorBuilder {
        self.config.engine = Some(engine);
        self
    }

    /// Bound the instructions any single work-group may execute (0 = the
    /// interpreter default; sessions default to the queue's
    /// `BOP_SIM_STEP_LIMIT` heuristic). Exceeding the budget fails the
    /// pricing run instead of hanging on a runaway kernel.
    pub fn step_limit(mut self, step_limit: u64) -> AcceleratorBuilder {
        self.config.step_limit = Some(step_limit);
        self
    }

    /// Switch the straightforward host program to the paper's "modified
    /// version ... with a reduced number of read operations" (root-only
    /// reads). No effect on the optimized architecture.
    pub fn reduced_reads(mut self) -> AcceleratorBuilder {
        self.config.reduced_reads = true;
        self
    }

    /// Inject deterministic faults into every pricing session according
    /// to `plan` (default: the `BOP_SIM_FAULTS` environment knob, which
    /// itself defaults to no injection). Each session re-seeds the
    /// plan's decision stream from a per-accelerator session counter, so
    /// retried batches see fresh — but reproducible — faults.
    /// Calibration and projection sessions always run fault-free.
    pub fn fault_plan(mut self, plan: FaultPlan) -> AcceleratorBuilder {
        self.config.faults = Some(plan);
        self
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Compile the kernel and produce the accelerator.
    ///
    /// # Errors
    /// [`Error::Invalid`] for a bad lattice size, [`Error::Build`] if
    /// the kernel does not compile or fit.
    pub fn build(self) -> Result<Accelerator, Error> {
        Accelerator::from_config(self.config)
    }

    /// Compile the kernel once and produce `n` accelerators sharing the
    /// compiled program (see [`AcceleratorConfig::build_pool`]).
    ///
    /// # Errors
    /// Same as [`AcceleratorBuilder::build`]; rejects `n == 0`.
    pub fn build_pool(self, n: usize) -> Result<Vec<Accelerator>, Error> {
        self.config.build_pool(n)
    }
}

/// Outcome of a functional pricing run.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingRun {
    /// Prices, input order (widened to `f64` for single precision).
    pub prices: Vec<f64>,
    /// Simulated wall-clock of the whole command stream, seconds.
    pub elapsed_s: f64,
    /// Simulated device-busy time, seconds.
    pub device_busy_s: f64,
    /// Device power while running, watts (fitted estimate on the FPGA,
    /// TDP elsewhere).
    pub watts: f64,
    /// Energy consumed, joules.
    pub joules: f64,
    /// Throughput, options/second.
    pub options_per_s: f64,
    /// Energy efficiency, options/joule (the paper's headline metric).
    pub options_per_j: f64,
    /// Lattice-node throughput, nodes/second (Table II's last row).
    pub nodes_per_s: f64,
    /// RMSE against the double-precision reference software.
    pub rmse: f64,
    /// Maximum absolute error against the reference.
    pub max_abs_error: f64,
}

/// The trace captured on one pricing session's queue: structured spans
/// (host spans, queue commands, barrier phases — simulated seconds) plus
/// how many spans the session's trace cap discarded. Returned by
/// [`Accelerator::price_with_session_trace`] for callers that merge
/// session timelines into a larger [`TraceLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// The session's spans, in queue order.
    pub spans: Vec<TraceSpan>,
    /// Spans discarded by the session's trace cap.
    pub dropped: u64,
}

/// Paper-scale performance projection (timing-only replay with fitted
/// statistics; no functional results).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Lattice steps.
    pub n_steps: usize,
    /// Batch size projected.
    pub n_options: usize,
    /// Simulated time for the batch (post-setup, i.e. marginal), seconds.
    pub elapsed_s: f64,
    /// Post-saturation throughput, options/second.
    pub options_per_s: f64,
    /// Device power, watts.
    pub watts: f64,
    /// Energy efficiency, options/joule.
    pub options_per_j: f64,
    /// Node throughput, nodes/second.
    pub nodes_per_s: f64,
    /// One-time session setup, seconds (excluded from the marginal rate;
    /// drives the saturation behaviour of Section V.C).
    pub session_setup_s: f64,
    /// Host-to-device traffic, bytes.
    pub h2d_bytes: u64,
    /// Device-to-host traffic, bytes.
    pub d2h_bytes: u64,
}

impl Projection {
    /// Throughput including the one-time session setup — what a cold-start
    /// measurement at this batch size would observe. Approaches
    /// [`Projection::options_per_s`] as the batch grows; the paper calls
    /// the knee "device saturation".
    pub fn throughput_with_setup(&self) -> f64 {
        self.n_options as f64 / (self.elapsed_s + self.session_setup_s)
    }
}

/// An option-pricing accelerator: one device + one kernel architecture +
/// build options, ready to price batches.
///
/// The kernel is compiled **once**, when the accelerator is built; every
/// session ([`Accelerator::price`], [`Accelerator::project`], …) reuses
/// the cached [`Program`] — including its optimised module and register
/// bytecode. Cloning an accelerator (see
/// [`AcceleratorConfig::build_pool`]) shares the same compiled program
/// across the clones.
pub struct Accelerator {
    device: Arc<dyn Device>,
    arch: KernelArch,
    precision: Precision,
    n_steps: usize,
    build: BuildOptions,
    program: Program,
    report: BuildReport,
    read_full: bool,
    fit_cache: std::sync::OnceLock<StatsFit>,
    metrics: Option<Arc<MetricsRegistry>>,
    workers: Option<usize>,
    engine: Option<Engine>,
    step_limit: Option<u64>,
    faults: Option<FaultPlan>,
    /// Pricing sessions opened so far; seeds the per-session fault
    /// stream so a retry draws fresh (still deterministic) faults.
    fault_sessions: AtomicU64,
}

impl Clone for Accelerator {
    /// Clones share the compiled program (reference-counted) and the
    /// calibration fit computed so far. The fault-session counter starts
    /// fresh: a clone replays the same deterministic fault sequence as a
    /// fresh accelerator with the same plan (re-seed per shard with
    /// [`Accelerator::with_fault_plan`] to decorrelate shards).
    fn clone(&self) -> Accelerator {
        let fit_cache = std::sync::OnceLock::new();
        if let Some(fit) = self.fit_cache.get() {
            let _ = fit_cache.set(fit.clone());
        }
        Accelerator {
            device: self.device.clone(),
            arch: self.arch,
            precision: self.precision,
            n_steps: self.n_steps,
            build: self.build.clone(),
            program: self.program.clone(),
            report: self.report.clone(),
            read_full: self.read_full,
            fit_cache,
            metrics: self.metrics.clone(),
            workers: self.workers,
            engine: self.engine,
            step_limit: self.step_limit,
            faults: self.faults,
            fault_sessions: AtomicU64::new(0),
        }
    }
}

impl Accelerator {
    /// Start building an accelerator for `device` with the defaults of
    /// [`AcceleratorConfig::new`].
    ///
    /// ```
    /// # fn main() -> Result<(), bop_core::Error> {
    /// let acc = bop_core::Accelerator::builder(bop_core::devices::gpu())
    ///     .arch(bop_core::KernelArch::Optimized)
    ///     .n_steps(48)
    ///     .build()?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder(device: Arc<dyn Device>) -> AcceleratorBuilder {
        AcceleratorBuilder { config: AcceleratorConfig::new(device) }
    }

    /// Realise a complete [`AcceleratorConfig`].
    ///
    /// # Errors
    /// [`Error::Invalid`] for a bad lattice size, [`Error::Build`] if the
    /// kernel does not compile or fit.
    pub fn from_config(config: AcceleratorConfig) -> Result<Accelerator, Error> {
        let AcceleratorConfig {
            device,
            arch,
            precision,
            n_steps,
            build,
            metrics,
            workers,
            engine,
            step_limit,
            reduced_reads,
            faults,
        } = config;
        if n_steps < 2 {
            return Err(Error::Invalid("need at least 2 lattice steps".into()));
        }
        // Resolve the fault plan strictly: an explicit plan must be
        // valid, and a set-but-malformed BOP_SIM_FAULTS is a structured
        // configuration error, never a silently ignored knob.
        let faults = match faults {
            Some(plan) => {
                plan.validate()
                    .map_err(|cause| Error::Config { var: "fault_plan".into(), cause })?;
                Some(plan)
            }
            None => FaultPlan::from_env()
                .map_err(|cause| Error::Config { var: "BOP_SIM_FAULTS".into(), cause })?,
        };
        let faults = faults.filter(FaultPlan::is_active);
        let build = build.unwrap_or_else(|| arch.paper_build_options());
        let ctx = Context::new(device.clone());
        // Size lattice-sized sources (the streaming kernel's private
        // rows) for this accelerator's lattice — and no smaller than the
        // calibration lattices, which run through the same program.
        let sized_steps = n_steps.max(CALIBRATION_STEPS[2]);
        let program = Program::from_source_with_metrics(
            &ctx,
            "kernel.cl",
            &arch.source_sized(precision, sized_steps),
            &build,
            metrics.as_deref(),
        )?;
        let report = program.report();
        if let Some(registry) = &metrics {
            publish_device_gauges(registry, &device, arch, &report);
        }
        Ok(Accelerator {
            device,
            arch,
            precision,
            n_steps,
            build,
            program,
            report,
            read_full: !reduced_reads,
            fit_cache: std::sync::OnceLock::new(),
            metrics,
            workers: workers.map(|w| w.max(1)),
            engine,
            step_limit,
            faults,
            fault_sessions: AtomicU64::new(0),
        })
    }

    /// The build report (Table I shape: resources, Fmax, power, pass
    /// pipeline).
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The compiled program every session of this accelerator shares.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The kernel architecture.
    pub fn arch(&self) -> KernelArch {
        self.arch
    }

    /// The numeric precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The lattice step count.
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// The build options in effect.
    pub fn build_options(&self) -> &BuildOptions {
        &self.build
    }

    /// The device this accelerator runs on.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Replace the fault plan (typically to re-seed per shard: the
    /// serving layer derives one plan per shard from a base seed so
    /// shards fail independently but reproducibly). Resets the session
    /// counter, so the new plan's fault sequence starts from scratch.
    /// An inert plan ([`FaultPlan::none`]) disables injection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Accelerator {
        self.faults = Some(plan).filter(FaultPlan::is_active);
        self.fault_sessions = AtomicU64::new(0);
        self
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// Open a fresh context + queue on the shared program.
    /// `inject_faults` arms the accelerator's fault plan on the session
    /// queue (re-seeded per session); pricing paths pass `true`, while
    /// calibration/projection pass `false` — operator tooling must stay
    /// deterministic and fault-free even on a faulty fleet.
    fn fresh_session(
        &self,
        inject_faults: bool,
    ) -> Result<(Arc<Context>, CommandQueue, Program), Error> {
        let ctx = Context::new(self.device.clone());
        let queue = CommandQueue::new(&ctx);
        if let Some(workers) = self.workers {
            queue.set_workers(workers);
        }
        if let Some(engine) = self.engine {
            queue.set_engine(engine);
        }
        if let Some(step_limit) = self.step_limit {
            queue.set_step_limit(step_limit);
        }
        if let Some(reg) = &self.metrics {
            queue.attach_metrics(reg.clone());
        }
        if inject_faults {
            if let Some(plan) = self.faults {
                let session = self.fault_sessions.fetch_add(1, Ordering::Relaxed);
                queue.set_fault_plan(plan.for_session(session));
            }
        }
        // The program was compiled when the accelerator was built; every
        // session shares it (fresh memory comes from the session context).
        Ok((ctx, queue, self.program.clone()))
    }

    fn run_host(
        &self,
        ctx: &Arc<Context>,
        queue: &CommandQueue,
        program: &Program,
        options: &[OptionParams],
        n_steps: usize,
    ) -> Result<Vec<f64>, RuntimeError> {
        match self.arch {
            KernelArch::Straightforward => StraightforwardHost {
                n_steps,
                precision: self.precision,
                read_full: self.read_full,
            }
            .run(ctx, queue, program, options),
            KernelArch::Optimized | KernelArch::OptimizedEuropean => OptimizedHost {
                n_steps,
                precision: self.precision,
                host_leaves: false,
                kernel_name: self.arch.kernel_name(),
            }
            .run(ctx, queue, program, options),
            KernelArch::OptimizedHostLeaves => OptimizedHost {
                n_steps,
                precision: self.precision,
                host_leaves: true,
                kernel_name: self.arch.kernel_name(),
            }
            .run(ctx, queue, program, options),
            // Calibration and projection reach the payoff kernels through
            // this generic path with no payoffs attached; a representative
            // default of the class (never-knocking barrier, every-step
            // exercise) keeps the instruction stream identical to any
            // real payoff of the same class. Pricing goes through
            // [`Accelerator::price_payoffs`], which carries real payoffs.
            KernelArch::Barrier | KernelArch::Bermudan => {
                let payoffs = vec![calibration_payoff(self.arch); options.len()];
                PayoffHost {
                    n_steps,
                    precision: self.precision,
                    kernel_name: self.arch.kernel_name(),
                }
                .run(ctx, queue, program, options, &payoffs)
            }
            KernelArch::Streaming => StreamingHost { n_steps, precision: self.precision }
                .run(ctx, queue, program, options),
        }
    }

    /// Whether this accelerator's kernel prices options under `payoff`.
    /// The vanilla kernels hard-code their exercise rule; the barrier and
    /// Bermudan kernels read per-option payoff parameters of their class.
    pub fn accepts_payoff(&self, payoff: Payoff) -> bool {
        matches!(
            (self.arch, payoff),
            (KernelArch::Barrier, Payoff::Barrier { .. })
                | (KernelArch::Bermudan, Payoff::Bermudan { .. })
                | (KernelArch::OptimizedEuropean, Payoff::European)
                | (
                    KernelArch::Straightforward
                        | KernelArch::Optimized
                        | KernelArch::OptimizedHostLeaves
                        | KernelArch::Streaming,
                    Payoff::American,
                )
        )
    }

    /// Price a batch functionally (full interpretation — feasible up to a
    /// few hundred thousand node updates; use [`Accelerator::project`] for
    /// paper-scale batches).
    ///
    /// # Errors
    /// Propagates build and runtime failures; rejects empty or invalid
    /// batches.
    pub fn price(&self, options: &[OptionParams]) -> Result<PricingRun, Error> {
        Ok(self.price_inner(options, false)?.0)
    }

    /// Like [`Accelerator::price`], but with command tracing enabled on
    /// the session queue; also returns the run's timeline as a Chrome
    /// trace-event JSON document (host spans, queue commands, barrier
    /// phases) ready to be written to a file and loaded in Perfetto.
    ///
    /// # Errors
    /// Same as [`Accelerator::price`].
    pub fn price_traced(&self, options: &[OptionParams]) -> Result<(PricingRun, Json), Error> {
        let (run, trace) = self.price_inner(options, true)?;
        let trace = trace.expect("trace requested");
        let mut log = TraceLog::new();
        for span in trace.spans {
            log.push(span);
        }
        log.note_dropped(trace.dropped);
        Ok((run, log.to_chrome_json()))
    }

    /// Like [`Accelerator::price_traced`], but returns the session's
    /// structured spans instead of a rendered Chrome document, so a
    /// caller (e.g. the serving layer) can reparent and merge them into
    /// a larger trace.
    ///
    /// # Errors
    /// Same as [`Accelerator::price`].
    pub fn price_with_session_trace(
        &self,
        options: &[OptionParams],
    ) -> Result<(PricingRun, SessionTrace), Error> {
        let (run, trace) = self.price_inner(options, true)?;
        Ok((run, trace.expect("trace requested")))
    }

    fn price_inner(
        &self,
        options: &[OptionParams],
        traced: bool,
    ) -> Result<(PricingRun, Option<SessionTrace>), Error> {
        if options.is_empty() {
            return Err(Error::Invalid("empty batch".into()));
        }
        if matches!(self.arch, KernelArch::Barrier | KernelArch::Bermudan) {
            return Err(Error::Invalid(format!(
                "{} prices per-option payoffs; use `price_payoffs`",
                self.arch
            )));
        }
        for o in options {
            o.validate().map_err(|e| Error::Invalid(e.to_string()))?;
        }
        let (ctx, queue, program) = self.fresh_session(true)?;
        if traced {
            queue.enable_trace();
        }
        let prices = self.run_host(&ctx, &queue, &program, options, self.n_steps)?;
        let reference: Vec<f64> =
            options.iter().map(|o| binomial::price_american_f64(o, self.n_steps)).collect();
        Ok(self.finish_run(&queue, prices, &reference, traced))
    }

    /// Price a batch where every option carries its own [`Payoff`]
    /// (matched one-to-one with `options`). For the barrier and Bermudan
    /// kernels the payoff parameters ride along in the widened per-option
    /// parameter block; for the vanilla kernels the payoff only selects
    /// the accuracy reference (their exercise rule is hard-coded).
    ///
    /// The run's `rmse`/`max_abs_error` are measured against the
    /// double-precision software reference for the *same payoffs*
    /// ([`price_payoff_f64`]), unlike [`Accelerator::price`], whose
    /// reference always exercises per the option's `style`.
    ///
    /// # Errors
    /// Rejects empty or length-mismatched batches, invalid options or
    /// payoffs, and payoffs this accelerator's kernel cannot price (see
    /// [`Accelerator::accepts_payoff`]); propagates runtime failures.
    pub fn price_payoffs(
        &self,
        options: &[OptionParams],
        payoffs: &[Payoff],
    ) -> Result<PricingRun, Error> {
        Ok(self.price_payoffs_inner(options, payoffs, false)?.0)
    }

    /// Like [`Accelerator::price_payoffs`], but with command tracing
    /// enabled on the session queue, returning the session's structured
    /// spans for callers that merge session timelines.
    ///
    /// # Errors
    /// Same as [`Accelerator::price_payoffs`].
    pub fn price_payoffs_with_session_trace(
        &self,
        options: &[OptionParams],
        payoffs: &[Payoff],
    ) -> Result<(PricingRun, SessionTrace), Error> {
        let (run, trace) = self.price_payoffs_inner(options, payoffs, true)?;
        Ok((run, trace.expect("trace requested")))
    }

    fn price_payoffs_inner(
        &self,
        options: &[OptionParams],
        payoffs: &[Payoff],
        traced: bool,
    ) -> Result<(PricingRun, Option<SessionTrace>), Error> {
        if options.is_empty() {
            return Err(Error::Invalid("empty batch".into()));
        }
        if options.len() != payoffs.len() {
            return Err(Error::Invalid(format!(
                "{} options but {} payoffs",
                options.len(),
                payoffs.len()
            )));
        }
        for o in options {
            o.validate().map_err(|e| Error::Invalid(e.to_string()))?;
        }
        for p in payoffs {
            p.validate().map_err(|e| Error::Invalid(e.to_string()))?;
            if !self.accepts_payoff(*p) {
                return Err(Error::Invalid(format!("{} cannot price a {p} payoff", self.arch)));
            }
        }
        let (ctx, queue, program) = self.fresh_session(true)?;
        if traced {
            queue.enable_trace();
        }
        let prices = match self.arch {
            KernelArch::Barrier | KernelArch::Bermudan => PayoffHost {
                n_steps: self.n_steps,
                precision: self.precision,
                kernel_name: self.arch.kernel_name(),
            }
            .run(&ctx, &queue, &program, options, payoffs)?,
            _ => self.run_host(&ctx, &queue, &program, options, self.n_steps)?,
        };
        let reference: Vec<f64> = options
            .iter()
            .zip(payoffs)
            .map(|(o, p)| price_payoff_f64(o, *p, self.n_steps))
            .collect();
        Ok(self.finish_run(&queue, prices, &reference, traced))
    }

    /// Close out a pricing session: drain the simulated clock, score the
    /// prices against `reference`, publish energy gauges and assemble the
    /// [`PricingRun`]. Shared by the style-based and payoff-based paths
    /// so both account identically.
    fn finish_run(
        &self,
        queue: &CommandQueue,
        prices: Vec<f64>,
        reference: &[f64],
        traced: bool,
    ) -> (PricingRun, Option<SessionTrace>) {
        let elapsed_s = queue.finish();
        let device_busy_s = queue.device_busy_s();
        let watts = self.report.power_watts;

        let rmse = metrics::rmse(&prices, reference);
        let max_abs_error = metrics::max_abs_error(&prices, reference);

        let options_per_s = prices.len() as f64 / elapsed_s;
        let joules = watts * elapsed_s;
        // Cumulative energy accounting per device, fed from the simulated
        // session (modeled watts × simulated elapsed/busy time), so it is
        // bit-identical regardless of wall-clock knobs like worker count.
        if let Some(reg) = &self.metrics {
            let device = self.device.info().kind.to_string();
            reg.add_gauge("energy.joules", &[("device", &device)], joules);
            reg.add_gauge("energy.busy_s", &[("device", &device)], device_busy_s);
        }
        let trace = traced
            .then(|| SessionTrace { spans: queue.trace_spans(), dropped: queue.trace_dropped() });
        (
            PricingRun {
                prices,
                elapsed_s,
                device_busy_s,
                watts,
                joules,
                options_per_s,
                options_per_j: options_per_s / watts,
                nodes_per_s: options_per_s * tree_nodes(self.n_steps) as f64,
                rmse,
                max_abs_error,
            },
            trace,
        )
    }

    /// Calibrate the per-option statistics model from small functional
    /// runs at [`CALIBRATION_STEPS`]. The fit is computed once per
    /// accelerator and cached.
    ///
    /// # Errors
    /// Propagates build and runtime failures.
    pub fn calibrate(&self) -> Result<StatsFit, Error> {
        if let Some(fit) = self.fit_cache.get() {
            return Ok(fit.clone());
        }
        let mut samples = Vec::with_capacity(3);
        for &n in &CALIBRATION_STEPS {
            samples.push(self.measure_per_option(n)?);
        }
        let fit = StatsFit::fit(CALIBRATION_STEPS, [&samples[0], &samples[1], &samples[2]]);
        let _ = self.fit_cache.set(fit.clone());
        Ok(fit)
    }

    /// Measure per-option statistics at lattice size `n` with one
    /// functional run of a single option (kernel op counts are identical
    /// across options of the same lattice size).
    ///
    /// For the straightforward architecture the statistics are per
    /// *batch* (every batch dispatches the same node grid); for the
    /// optimized architectures they are per work-group.
    ///
    /// # Errors
    /// Propagates build and runtime failures.
    pub fn measure_per_option(&self, n: usize) -> Result<bop_clir::stats::ExecStats, Error> {
        let (ctx, queue, program) = self.fresh_session(false)?;
        let options = [OptionParams::example()];
        self.run_host(&ctx, &queue, &program, &options, n)?;
        let stats = queue
            .kernel_stats(self.arch.kernel_name())
            .ok_or_else(|| Error::Invalid("no kernel statistics recorded".into()))?;
        match self.arch {
            // One option => batches = n; every batch is identical.
            KernelArch::Straightforward => {
                let launches = queue.counters().launches;
                Ok(divide_stats(&stats, launches))
            }
            // One option => exactly one work-group.
            _ => Ok(stats),
        }
    }

    /// Project the performance of pricing `n_options` at this
    /// accelerator's lattice size, paper-style: the full host program is
    /// replayed against the timing models with fitted statistics, no
    /// functional interpretation.
    ///
    /// # Errors
    /// Propagates build and runtime failures.
    pub fn project(&self, n_options: usize) -> Result<Projection, Error> {
        if n_options == 0 {
            return Err(Error::Invalid("empty batch".into()));
        }
        let fit = self.calibrate()?;
        let per_unit = fit.per_option(self.n_steps);

        let (ctx, queue, program) = self.fresh_session(false)?;
        let arch = self.arch;
        let n_steps = self.n_steps;
        queue.set_timing_only(Box::new(move |kernel, dispatch| match arch {
            // Per-batch statistics, independent of the dispatch.
            KernelArch::Straightforward => per_unit.clone(),
            // Single-work-item tasks: the dispatch carries no batch size,
            // so scale the consumer's per-option profile by the captured
            // batch directly. The producer's (much smaller) stream runs
            // concurrently under the graph's max(), so it contributes no
            // extra time of its own.
            KernelArch::Streaming => {
                if kernel == KernelArch::STREAMING_PRODUCER {
                    bop_clir::stats::ExecStats::default()
                } else {
                    scale_to_batch(&per_unit, n_options)
                }
            }
            // Per-work-group statistics scaled by the group count.
            _ => scale_to_batch(&per_unit, dispatch.global / (n_steps + 1)),
        }));

        // Dummy parameter set: in timing-only mode values are never read,
        // but the host program still derives buffer sizes and command
        // counts from it.
        let options = vec![OptionParams::example(); n_options];
        self.run_host(&ctx, &queue, &program, &options, self.n_steps)?;
        let elapsed_s = queue.finish();
        let counters = queue.counters();
        let watts = self.report.power_watts;
        let options_per_s = n_options as f64 / elapsed_s;
        Ok(Projection {
            n_steps: self.n_steps,
            n_options,
            elapsed_s,
            options_per_s,
            watts,
            options_per_j: options_per_s / watts,
            nodes_per_s: options_per_s * tree_nodes(self.n_steps) as f64,
            session_setup_s: self.device.info().session_setup_s,
            h2d_bytes: counters.h2d_bytes,
            d2h_bytes: counters.d2h_bytes,
        })
    }
}

/// The representative payoff a payoff-kernel architecture is calibrated
/// and projected with: the op stream of the barrier and Bermudan kernels
/// is payoff-value-independent, so any member of the class works; these
/// degenerate to the vanilla payoffs (never-knocking barrier, every-step
/// exercise) for good measure.
fn calibration_payoff(arch: KernelArch) -> Payoff {
    match arch {
        KernelArch::Barrier => Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 1e12 },
        KernelArch::Bermudan => Payoff::Bermudan { exercise_every: 1 },
        _ => unreachable!("only the payoff kernels calibrate with a default payoff"),
    }
}

/// Set the device-model gauges (power, bandwidth, overheads) that
/// describe `device` and the compiled kernel in `registry`.
fn publish_device_gauges(
    registry: &MetricsRegistry,
    device: &Arc<dyn Device>,
    arch: KernelArch,
    report: &BuildReport,
) {
    let info = device.info();
    let d = info.kind.to_string();
    let labels = [("device", d.as_str())];
    registry.set_gauge("device.power_watts", &labels, info.power_watts);
    registry.set_gauge("device.global_bw_bytes_per_s", &labels, info.global_bw_bytes_per_s);
    registry.set_gauge("device.command_overhead_s", &labels, info.command_overhead_s);
    registry.set_gauge("device.session_setup_s", &labels, info.session_setup_s);
    registry.set_gauge("device.compute_units", &labels, f64::from(info.compute_units));
    registry.set_gauge(
        "device.kernel_power_watts",
        &[("device", d.as_str()), ("kernel", arch.kernel_name())],
        report.power_watts,
    );
}

/// Divide every counter by `k` (for per-batch normalisation).
fn divide_stats(stats: &bop_clir::stats::ExecStats, k: u64) -> bop_clir::stats::ExecStats {
    assert!(k > 0, "division by zero batches");
    let mut out = stats.clone();
    for b in &mut out.block_execs {
        *b /= k;
    }
    out.barriers /= k;
    out.item_phases /= k;
    let o = &mut out.ops;
    for f in [
        &mut o.add32,
        &mut o.add64,
        &mut o.mul32,
        &mut o.mul64,
        &mut o.div32,
        &mut o.div64,
        &mut o.minmax32,
        &mut o.minmax64,
        &mut o.transc32,
        &mut o.transc64,
        &mut o.pow32,
        &mut o.pow64,
        &mut o.sqrt32,
        &mut o.sqrt64,
        &mut o.cmp,
        &mut o.select,
        &mut o.int_alu,
        &mut o.cast,
        &mut o.mov,
        &mut o.wi_query,
    ] {
        *f /= k;
    }
    let m = &mut out.mem;
    for f in [
        &mut m.global_loads,
        &mut m.global_load_bytes,
        &mut m.global_stores,
        &mut m.global_store_bytes,
        &mut m.local_loads,
        &mut m.local_load_bytes,
        &mut m.local_stores,
        &mut m.local_store_bytes,
        &mut m.private_accesses,
    ] {
        *f /= k;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::workload;

    #[test]
    fn optimized_on_gpu_prices_accurately() {
        let acc = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(48)
            .build()
            .expect("builds");
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 6, 1);
        let run = acc.price(&options).expect("prices");
        assert!(run.rmse < 1e-10, "exact math must match the reference: {}", run.rmse);
        assert!(run.options_per_s > 0.0);
        assert!(run.options_per_j > 0.0);
        assert!(run.joules > 0.0);
    }

    #[test]
    fn fpga_optimized_shows_pow_rmse_but_host_leaves_do_not() {
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 6, 2);
        let buggy = Accelerator::builder(crate::devices::fpga())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(64)
            .build()
            .expect("builds");
        let fixed = Accelerator::builder(crate::devices::fpga())
            .arch(KernelArch::OptimizedHostLeaves)
            .precision(Precision::Double)
            .n_steps(64)
            .build()
            .expect("builds");
        let run_buggy = buggy.price(&options).expect("prices");
        let run_fixed = fixed.price(&options).expect("prices");
        assert!(run_buggy.rmse > 1e-9, "pow bug must show: {}", run_buggy.rmse);
        assert!(run_fixed.rmse < 1e-12, "host leaves avoid it: {}", run_fixed.rmse);
    }

    #[test]
    fn projection_reproduces_throughput_ordering() {
        // At paper scale the optimized kernel must beat the straightforward
        // one by orders of magnitude on the same device.
        let n = 256; // keep the calibration quick
        let slow = Accelerator::builder(crate::devices::fpga())
            .arch(KernelArch::Straightforward)
            .precision(Precision::Double)
            .n_steps(n)
            .build()
            .expect("builds");
        let fast = Accelerator::builder(crate::devices::fpga())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(n)
            .build()
            .expect("builds");
        let p_slow = slow.project(64).expect("projects");
        let p_fast = fast.project(64).expect("projects");
        assert!(
            p_fast.options_per_s > p_slow.options_per_s * 10.0,
            "IV.B must dominate IV.A: {} vs {}",
            p_fast.options_per_s,
            p_slow.options_per_s
        );
        assert!(p_slow.d2h_bytes > p_fast.d2h_bytes * 100, "IV.A drowns in read-backs");
    }

    #[test]
    fn reduced_reads_speed_up_straightforward_projection() {
        let n = 128;
        let naive = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Straightforward)
            .precision(Precision::Double)
            .n_steps(n)
            .build()
            .expect("builds");
        let modified = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Straightforward)
            .precision(Precision::Double)
            .n_steps(n)
            .reduced_reads()
            .build()
            .expect("builds");
        let p_naive = naive.project(64).expect("projects");
        let p_mod = modified.project(64).expect("projects");
        assert!(
            p_mod.options_per_s > p_naive.options_per_s * 2.0,
            "reduced reads: {} vs {}",
            p_mod.options_per_s,
            p_naive.options_per_s
        );
    }

    #[test]
    fn calibration_fit_validates_on_a_fourth_size() {
        let acc = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(crate::perfmodel::VALIDATION_STEPS)
            .build()
            .expect("builds");
        let fit = acc.calibrate().expect("calibrates");
        let predicted = fit.per_option(crate::perfmodel::VALIDATION_STEPS);
        let measured = acc.measure_per_option(crate::perfmodel::VALIDATION_STEPS).expect("runs");
        // The lattice metrics are exactly polynomial; allow rounding slack.
        let close = |a: u64, b: u64| (a as i64 - b as i64).unsigned_abs() <= 2 + b / 100;
        assert!(
            close(predicted.total_block_execs(), measured.total_block_execs()),
            "block execs: {} vs {}",
            predicted.total_block_execs(),
            measured.total_block_execs()
        );
        assert!(close(predicted.barriers, measured.barriers), "barriers");
        assert!(close(predicted.ops.pow64, measured.ops.pow64), "pow count");
        assert!(
            close(predicted.mem.local_load_bytes, measured.mem.local_load_bytes),
            "local bytes"
        );
    }

    #[test]
    fn fault_plans_are_deterministic_and_leave_successful_prices_exact() {
        let build = |plan: Option<FaultPlan>| {
            let mut b = Accelerator::builder(crate::devices::gpu())
                .arch(KernelArch::Optimized)
                .precision(Precision::Double)
                .n_steps(24);
            if let Some(plan) = plan {
                b = b.fault_plan(plan);
            }
            b.build().expect("builds")
        };
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 3);
        let reference = build(None).price(&options).expect("fault-free prices");

        // An inert plan is bit-identical to no plan at all.
        let none = build(Some(FaultPlan::none())).price(&options).expect("prices");
        assert_eq!(none.prices, reference.prices);
        assert_eq!(none.elapsed_s, reference.elapsed_s);

        // A faulty accelerator, attempted repeatedly, must reproduce the
        // same outcome sequence run to run — and every success must be
        // bit-identical to the fault-free prices.
        let campaign = || {
            let acc = build(Some(FaultPlan::new(0.05, 77)));
            (0..10)
                .map(|_| match acc.price(&options) {
                    Ok(run) => {
                        assert_eq!(run.prices, reference.prices, "survivors are exact");
                        "ok".to_string()
                    }
                    Err(e) => {
                        assert!(e.is_retryable(), "injected faults are typed: {e}");
                        e.to_string()
                    }
                })
                .collect::<Vec<_>>()
        };
        let first = campaign();
        assert_eq!(first, campaign(), "same seed, same outcome sequence");
        assert!(first.iter().any(|o| o == "ok"), "rate 0.05 lets some sessions through");
        assert!(first.iter().any(|o| o != "ok"), "10 sessions at rate 0.05 hit some fault");
    }

    #[test]
    fn malformed_fault_plan_is_a_structured_config_error() {
        let mut config = AcceleratorConfig::new(crate::devices::gpu());
        config.n_steps = 16;
        config.faults = Some(FaultPlan { rate: 7.5, ..FaultPlan::none() });
        match config.build() {
            Err(Error::Config { var, cause }) => {
                assert_eq!(var, "fault_plan");
                assert!(cause.message.contains("[0, 1]"), "{cause}");
            }
            other => panic!("expected Error::Config, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn calibration_and_projection_ignore_fault_plans() {
        // Even a rate-1.0 plan must not touch operator tooling: the
        // model fit and the paper-scale projection run fault-free.
        let faulty = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(64)
            .fault_plan(FaultPlan::new(1.0, 9))
            .build()
            .expect("builds");
        let p = faulty.project(32).expect("projection is fault-free");
        assert!(p.options_per_s > 0.0);
        faulty.price(&[OptionParams::example()]).expect_err("pricing does inject");
    }

    #[test]
    fn invalid_requests_rejected() {
        let acc = Accelerator::builder(crate::devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(16)
            .build()
            .expect("builds");
        assert!(matches!(acc.price(&[]), Err(Error::Invalid(_))));
        let mut bad = OptionParams::example();
        bad.volatility = -1.0;
        assert!(matches!(acc.price(&[bad]), Err(Error::Invalid(_))));
        assert!(matches!(acc.project(0), Err(Error::Invalid(_))));
        assert!(matches!(
            Accelerator::builder(crate::devices::gpu())
                .arch(KernelArch::Optimized)
                .precision(Precision::Double)
                .n_steps(1)
                .build(),
            Err(Error::Invalid(_))
        ));
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use bop_finance::workload;

    #[test]
    fn builder_defaults_are_the_documented_ones() {
        let b = Accelerator::builder(crate::devices::gpu());
        let c = b.config();
        assert_eq!(c.arch, KernelArch::Optimized);
        assert_eq!(c.precision, Precision::Double);
        assert_eq!(c.n_steps, 64);
        assert!(c.build.is_none() && c.metrics.is_none() && c.workers.is_none());
        assert!(!c.reduced_reads);
        assert!(b.build().is_ok());
    }

    #[test]
    fn config_clone_builds_an_identical_shard() {
        let mut config = AcceleratorConfig::new(crate::devices::gpu());
        config.n_steps = 32;
        let a = config.clone().build().expect("builds");
        let b = config.build().expect("builds");
        let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 9);
        let run_a = a.price(&options).expect("prices");
        let run_b = b.price(&options).expect("prices");
        assert_eq!(run_a.prices, run_b.prices, "clones are bit-identical");
    }
}

#[cfg(test)]
mod fit_failure_tests {
    use super::*;
    use crate::kernels::KernelArch;

    #[test]
    fn paper_kernel_does_not_fit_the_smaller_part() {
        // The conclusion's "less power consuming FPGA board" idea fails for
        // the published configuration: the EP4SGX230 rejects it, and the
        // error names the exhausted resource.
        let small = bop_fpga::FpgaDevice::with_part(
            bop_fpga::FpgaPart::ep4sgx230(),
            bop_clir::mathlib::DeviceMath::altera_13_0(),
        );
        let result = Accelerator::builder(small)
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(128)
            .build();
        match result {
            Err(Error::Build(e)) => {
                assert!(e.message.contains("does not fit"), "got: {e}");
            }
            other => panic!("expected a fit failure, got {:?}", other.map(|_| "ok")),
        }
        // A scalar build does fit the smaller part.
        let small = bop_fpga::FpgaDevice::with_part(
            bop_fpga::FpgaPart::ep4sgx230(),
            bop_clir::mathlib::DeviceMath::altera_13_0(),
        );
        let scalar = bop_ocl::BuildOptions {
            simd: 1,
            compute_units: 1,
            unroll: Some(1),
            ..Default::default()
        };
        assert!(Accelerator::builder(small)
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(128)
            .build_options(scalar)
            .build()
            .is_ok());
    }
}

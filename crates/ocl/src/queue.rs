//! In-order command queue with simulated profiling.
//!
//! Commands execute synchronously (functional interpretation through
//! `bop-clir`) while a simulated clock advances according to the device and
//! link models: writes and reads cost link latency + bytes/bandwidth,
//! NDRange launches cost what the device's `kernel_time` model says, and
//! every command pays the host-side enqueue/synchronisation overhead. This
//! is the mechanism that reproduces the paper's kernel IV.A collapse: its
//! host program re-reads a multi-megabyte ping-pong buffer between every
//! batch, and the simulated clock charges for it.

use crate::context::{Buffer, Context};
use crate::device::Dispatch;
use crate::faults::{FaultDecision, FaultPlan, FaultSite, FaultState, InjectedFault};
use crate::program::{Kernel, KernelArg};
use bop_clir::bytecode::{CompiledKernel, LanesRun};
use bop_clir::interp::WorkerMemory;
use bop_clir::interp::{
    pipe_deadlock_trap, ExecError, GlobalArena, GroupShape, KernelArgValue, RunOutcome,
    WorkGroupRun,
};
use bop_clir::ir::Function;
use bop_clir::mathlib::MathLib;
use bop_clir::pipes::PipeHub;
use bop_clir::stats::ExecStats;
use bop_clir::types::{AddressSpace, Type};
use bop_obs::{Json, MetricsRegistry, SpanCategory, TraceLog, TraceSpan};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::sync::{Mutex, Once};

/// Which kernel execution engine an NDRange launch uses. Both engines
/// are bit-identical — same prices, statistics, counters, traces and
/// error messages; lanes is simply faster wall-clock, and the default.
/// Every kernel of a built program has bytecode, so each engine always
/// runs as selected.
// The hidden variant is a deprecated alias, not a `#[non_exhaustive]`
// marker, so the lint that reads it as one does not apply.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The `bop-clir` tree-walking interpreter ([`WorkGroupRun`]) — the
    /// reference engine, kept as the oracle.
    Walk,
    /// Runs on lanes; kept only so existing callers still compile.
    #[deprecated(note = "the scalar bytecode engine is gone; this runs on `Engine::Lanes`")]
    #[doc(hidden)]
    Bytecode,
    /// The lane-vectorized bytecode engine ([`LanesRun`]), the default:
    /// each op dispatches once per SIMT group and executes across all
    /// work-item lanes of a structure-of-arrays register file.
    #[default]
    Lanes,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Walk => "walk",
            #[allow(deprecated)]
            Engine::Bytecode => "bytecode",
            Engine::Lanes => "lanes",
        })
    }
}

/// Parse an engine name as accepted by `BOP_SIM_ENGINE`: `walk` (or
/// `tree`) and `lanes` (or `simd`), case-insensitive.
pub fn parse_engine(s: &str) -> Option<Engine> {
    match s.trim().to_ascii_lowercase().as_str() {
        "walk" | "tree" => Some(Engine::Walk),
        "lanes" | "simd" => Some(Engine::Lanes),
        _ => None,
    }
}

/// Engine used when none is configured: `BOP_SIM_ENGINE` if set to a name
/// [`parse_engine`] accepts, else the lanes engine. A rejected name warns
/// once per process on stderr.
fn default_engine() -> Engine {
    static WARNED: Once = Once::new();
    setting_from_env("BOP_SIM_ENGINE", &WARNED, parse_engine, ENGINE_SPELLINGS, Engine::default())
}

/// The spellings [`parse_engine`] accepts, for the warning on a rejected
/// `BOP_SIM_ENGINE`.
const ENGINE_SPELLINGS: &str = "walk, tree, lanes or simd (any case)";

/// Parse a step-limit value as accepted by `BOP_SIM_STEP_LIMIT`: a
/// non-negative integer, where 0 selects the interpreter default
/// ([`bop_clir::interp::DEFAULT_STEP_LIMIT`]).
pub fn parse_step_limit(s: &str) -> Option<u64> {
    s.trim().parse::<u64>().ok()
}

/// Per-work-group instruction budget used when none is configured:
/// `BOP_SIM_STEP_LIMIT` if set to an integer, else 0 (the interpreter
/// default). A rejected value warns once per process on stderr.
fn default_step_limit() -> u64 {
    static WARNED: Once = Once::new();
    let accepted = "a non-negative integer (0 selects the interpreter default)";
    setting_from_env("BOP_SIM_STEP_LIMIT", &WARNED, parse_step_limit, accepted, 0)
}

/// The `var` setting, read from the environment through `parse`, or
/// `default` when it is unset or rejected; a rejected value prints its
/// warning once per process (`warned`).
fn setting_from_env<T: fmt::Display>(
    var: &str,
    warned: &Once,
    parse: fn(&str) -> Option<T>,
    accepted: &str,
    default: T,
) -> T {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    let (setting, warning) = parse_setting(var, value.as_deref(), parse, accepted, default);
    if let Some(warning) = warning {
        warned.call_once(|| eprintln!("{warning}"));
    }
    setting
}

/// Resolve the `var` setting from its environment `value`: the value
/// `parse` accepts, else `default`. A value `parse` rejects comes back
/// with the warning to print, naming the variable, the rejected value
/// and the `accepted` spellings.
fn parse_setting<T: fmt::Display>(
    var: &str,
    value: Option<&str>,
    parse: fn(&str) -> Option<T>,
    accepted: &str,
    default: T,
) -> (T, Option<String>) {
    match value.map(|v| (v, parse(v))) {
        None => (default, None),
        Some((_, Some(setting))) => (setting, None),
        Some((v, None)) => {
            let warning =
                format!("warning: ignoring {var}={v:?}: expected {accepted}; using {default}");
            (default, Some(warning))
        }
    }
}

/// Runtime error from an enqueued command.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Kernel execution failed (trap, out-of-bounds, divergence).
    Exec(ExecError),
    /// Invalid command (sizes, unset arguments, capacity violations).
    Invalid(String),
    /// The command was killed by the fault-injection layer (see
    /// [`FaultPlan`]); transient by construction, so callers may retry.
    Fault(InjectedFault),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "kernel execution failed: {e}"),
            RuntimeError::Invalid(msg) => write!(f, "invalid command: {msg}"),
            RuntimeError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Exec(e) => Some(e),
            RuntimeError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> RuntimeError {
        RuntimeError::Exec(e)
    }
}

/// Simulated `clGetEventProfilingInfo` data, in seconds since queue
/// creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingInfo {
    /// When the command was enqueued.
    pub queued_s: f64,
    /// When the device started executing it.
    pub start_s: f64,
    /// When it completed.
    pub end_s: f64,
}

impl ProfilingInfo {
    /// Device-side duration.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A completed command (execution is synchronous; the event is immediately
/// in the `CL_COMPLETE` state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Profiling timestamps.
    pub profiling: ProfilingInfo,
}

/// Kind of a traced command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Host-to-device buffer write.
    Write,
    /// Device-to-host buffer read.
    Read,
    /// Device-to-device buffer copy.
    Copy,
    /// Device-side buffer fill.
    Fill,
    /// NDRange kernel launch.
    Kernel,
}

impl CommandKind {
    /// Transfer direction of the command relative to the device: `"h2d"`,
    /// `"d2h"`, `"device"` (on-device copies/fills) or `"kernel"`.
    pub fn direction(self) -> &'static str {
        match self {
            CommandKind::Write => "h2d",
            CommandKind::Read => "d2h",
            CommandKind::Copy | CommandKind::Fill => "device",
            CommandKind::Kernel => "kernel",
        }
    }

    fn label(self) -> &'static str {
        match self {
            CommandKind::Write => "write",
            CommandKind::Read => "read",
            CommandKind::Copy => "copy",
            CommandKind::Fill => "fill",
            CommandKind::Kernel => "kernel",
        }
    }
}

/// One entry of the command trace (used to regenerate the paper's Figure 3
/// / Figure 4 dataflow descriptions).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Span id, unique within this queue (shared counter with host spans).
    pub span_id: u64,
    /// Id of the enclosing host span, if the command was enqueued inside
    /// one (see [`CommandQueue::begin_span`]).
    pub parent: Option<u64>,
    /// Command kind.
    pub kind: CommandKind,
    /// Payload bytes (transfers) or zero (kernels).
    pub bytes: u64,
    /// Kernel name for launches.
    pub kernel: Option<String>,
    /// Work-items for launches.
    pub work_items: u64,
    /// Exact barrier crossings of the whole launch, summed over every
    /// work-group (drives the barrier-phase sub-spans of the Chrome
    /// export); zero for non-kernel commands.
    pub barriers: u64,
    /// Work-groups of the launch; zero for non-kernel commands.
    pub groups: u64,
    /// Simulated enqueue time.
    pub queued_s: f64,
    /// Simulated start time.
    pub start_s: f64,
    /// Simulated end time.
    pub end_s: f64,
    /// Fault injected into this command, if any: a stall site on a
    /// completed (but delayed) launch, or the fatal site on a
    /// zero-duration marker entry for a command the fault layer killed.
    pub fault: Option<FaultSite>,
}

/// A completed host-program span (see [`CommandQueue::begin_span`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// Span id (shared counter with [`TraceEntry::span_id`]).
    pub id: u64,
    /// Enclosing host span, if nested.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Simulated start time.
    pub start_s: f64,
    /// Simulated end time.
    pub end_s: f64,
}

/// Aggregate transfer/launch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Number of write commands.
    pub writes: u64,
    /// Bytes moved host-to-device.
    pub h2d_bytes: u64,
    /// Number of read commands.
    pub reads: u64,
    /// Bytes moved device-to-host.
    pub d2h_bytes: u64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Total work-items launched.
    pub work_items: u64,
    /// Number of injected faults (all sites, stalls included).
    pub faults: u64,
    /// Successful pipe reads, summed over every launch.
    pub pipe_reads: u64,
    /// Successful pipe writes, summed over every launch.
    pub pipe_writes: u64,
    /// Pipe read attempts that found the FIFO empty.
    pub pipe_read_stalls: u64,
    /// Pipe write attempts that found the FIFO full.
    pub pipe_write_stalls: u64,
}

type StatsModel = dyn Fn(&str, Dispatch) -> ExecStats + Send + Sync;

/// What one trace entry records beyond its command's kind and bytes: the
/// whole command for transfers and single launches, one member kernel of a
/// launch graph. Kernel fields stay zero/`None` for other commands.
#[derive(Debug, Clone, Copy, Default)]
struct CommandSpan<'a> {
    kernel: Option<&'a str>,
    work_items: u64,
    barriers: u64,
    groups: u64,
    duration: f64,
    fault: Option<FaultSite>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_s: f64,
}

struct QueueState {
    now: f64,
    device_busy_s: f64,
    counters: QueueCounters,
    kernel_stats: HashMap<String, ExecStats>,
    trace: Option<Vec<TraceEntry>>,
    trace_cap: Option<usize>,
    trace_dropped: u64,
    next_span_id: u64,
    span_stack: Vec<ActiveSpan>,
    host_spans: Vec<HostSpan>,
}

impl QueueState {
    /// Allocate the next span id for a command and, when tracing, record
    /// its entry (or count it as dropped once the cap is full): the only
    /// place a [`TraceEntry`] is made.
    fn trace_command(
        &mut self,
        kind: CommandKind,
        bytes: u64,
        span: &CommandSpan,
        queued_s: f64,
        start_s: f64,
    ) {
        let span_id = self.next_span_id;
        self.next_span_id += 1;
        let parent = self.span_stack.last().map(|s| s.id);
        let Some(trace) = &mut self.trace else { return };
        if self.trace_cap.is_some_and(|c| trace.len() >= c) {
            self.trace_dropped += 1;
            return;
        }
        trace.push(TraceEntry {
            span_id,
            parent,
            kind,
            bytes,
            kernel: span.kernel.map(str::to_owned),
            work_items: span.work_items,
            barriers: span.barriers,
            groups: span.groups,
            queued_s,
            start_s,
            end_s: start_s + span.duration,
            fault: span.fault,
        });
    }
}

/// An in-order command queue with profiling enabled.
pub struct CommandQueue {
    ctx: Arc<Context>,
    state: Mutex<QueueState>,
    timing_model: Mutex<Option<Box<StatsModel>>>,
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
    workers: Mutex<usize>,
    engine: Mutex<Engine>,
    step_limit: Mutex<u64>,
    faults: Mutex<Option<FaultState>>,
}

/// Worker-thread count for parallel NDRange interpretation when none is
/// configured: `BOP_SIM_WORKERS` if set to a positive integer, else the
/// host's available parallelism.
fn default_workers() -> usize {
    std::env::var("BOP_SIM_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl CommandQueue {
    /// Create a queue on `ctx` (profiling always on; simulated clock starts
    /// at zero).
    pub fn new(ctx: &Arc<Context>) -> CommandQueue {
        CommandQueue {
            ctx: ctx.clone(),
            state: Mutex::new(QueueState {
                now: 0.0,
                device_busy_s: 0.0,
                counters: QueueCounters::default(),
                kernel_stats: HashMap::new(),
                trace: None,
                trace_cap: None,
                trace_dropped: 0,
                next_span_id: 0,
                span_stack: Vec::new(),
                host_spans: Vec::new(),
            }),
            timing_model: Mutex::new(None),
            metrics: Mutex::new(None),
            workers: Mutex::new(default_workers()),
            engine: Mutex::new(default_engine()),
            step_limit: Mutex::new(default_step_limit()),
            faults: Mutex::new(None),
        }
    }

    /// Arm deterministic fault injection on this queue (disarmed by
    /// default, and again when `plan` is inert — rate 0 or no sites).
    /// Faults are drawn per command from a stream seeded by the plan, so
    /// identical command sequences under identical plans fail
    /// identically. Every injected event is counted in
    /// [`QueueCounters::faults`], published as `fault.*` metrics, and
    /// marked in the trace.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.lock().unwrap() =
            if plan.is_active() { Some(FaultState::new(plan)) } else { None };
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.lock().unwrap().as_ref().map(|s| s.plan())
    }

    /// Select the kernel execution engine for NDRange launches (default:
    /// `BOP_SIM_ENGINE`, else the lanes engine). Purely a wall-clock
    /// knob: both engines produce bit-identical results, statistics,
    /// counters, traces and errors.
    pub fn set_engine(&self, engine: Engine) {
        *self.engine.lock().unwrap() = engine;
    }

    /// The configured kernel execution engine.
    pub fn engine(&self) -> Engine {
        *self.engine.lock().unwrap()
    }

    /// Set the per-work-group instruction budget for NDRange launches;
    /// 0 (the default, overridable via `BOP_SIM_STEP_LIMIT`) selects the
    /// interpreter's [`bop_clir::interp::DEFAULT_STEP_LIMIT`]. Exceeding
    /// the budget fails the launch with
    /// [`ExecError::StepLimitExceeded`](bop_clir::interp::ExecError).
    pub fn set_step_limit(&self, step_limit: u64) {
        *self.step_limit.lock().unwrap() = step_limit;
    }

    /// The configured per-work-group instruction budget (0 = interpreter
    /// default).
    pub fn step_limit(&self) -> u64 {
        *self.step_limit.lock().unwrap()
    }

    /// Set the number of worker threads used to interpret the work-groups
    /// of an NDRange launch (clamped to at least 1). Purely a wall-clock
    /// knob: results, statistics, counters, traces and the simulated
    /// device time are identical for every worker count.
    pub fn set_workers(&self, workers: usize) {
        *self.workers.lock().unwrap() = workers.max(1);
    }

    /// The configured NDRange worker-thread count.
    pub fn workers(&self) -> usize {
        *self.workers.lock().unwrap()
    }

    /// Switch to timing-only mode: kernels are not interpreted; their
    /// dynamic statistics come from `model` (typically a profile fitted at
    /// small problem sizes — see `bop-core`'s performance model). Buffer
    /// commands stop copying bytes but still cost transfer time.
    pub fn set_timing_only(&self, model: Box<StatsModel>) {
        *self.timing_model.lock().unwrap() = Some(model);
    }

    /// Record a [`TraceEntry`] per command from now on.
    pub fn enable_trace(&self) {
        let mut st = self.state.lock().unwrap();
        if st.trace.is_none() {
            st.trace = Some(Vec::new());
        }
    }

    /// Stop recording and discard the trace (counters keep accumulating).
    pub fn disable_trace(&self) {
        let mut st = self.state.lock().unwrap();
        st.trace = None;
        st.trace_dropped = 0;
    }

    /// Drop recorded entries but keep tracing enabled. Span ids keep
    /// increasing, so entries before and after a clear never collide.
    pub fn clear_trace(&self) {
        let mut st = self.state.lock().unwrap();
        if let Some(trace) = &mut st.trace {
            trace.clear();
        }
        st.trace_dropped = 0;
    }

    /// Bound the number of retained trace entries; once full, further
    /// commands are counted in [`trace_dropped`](Self::trace_dropped)
    /// instead of stored. `None` (the default) keeps everything.
    pub fn set_trace_cap(&self, cap: Option<usize>) {
        self.state.lock().unwrap().trace_cap = cap;
    }

    /// Number of trace entries discarded by the cap since the last
    /// enable/clear.
    pub fn trace_dropped(&self) -> u64 {
        self.state.lock().unwrap().trace_dropped
    }

    /// The recorded trace (empty if tracing was never enabled).
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.state.lock().unwrap().trace.clone().unwrap_or_default()
    }

    /// Publish per-command metrics (counts, bytes, simulated durations)
    /// and per-launch interpreter statistics into `registry` from now on.
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        *self.metrics.lock().unwrap() = Some(registry);
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.lock().unwrap().clone()
    }

    /// Open a host-program span at the current simulated time. Commands
    /// enqueued before the matching [`end_span`](Self::end_span) carry this
    /// span's id as their [`TraceEntry::parent`]; nested `begin_span`
    /// calls produce child spans. Returns the span id.
    pub fn begin_span(&self, name: &str) -> u64 {
        let mut st = self.state.lock().unwrap();
        let id = st.next_span_id;
        st.next_span_id += 1;
        let parent = st.span_stack.last().map(|s| s.id);
        let start_s = st.now;
        st.span_stack.push(ActiveSpan { id, parent, name: name.to_string(), start_s });
        id
    }

    /// Close the host span `id` (and any unclosed spans nested inside it)
    /// at the current simulated time.
    pub fn end_span(&self, id: u64) {
        let mut st = self.state.lock().unwrap();
        let now = st.now;
        while let Some(active) = st.span_stack.pop() {
            let done = active.id == id;
            let span = HostSpan {
                id: active.id,
                parent: active.parent,
                name: active.name,
                start_s: active.start_s,
                end_s: now,
            };
            st.host_spans.push(span);
            if done {
                return;
            }
        }
    }

    /// Completed host spans, in closing order.
    pub fn host_spans(&self) -> Vec<HostSpan> {
        self.state.lock().unwrap().host_spans.clone()
    }

    /// Simulated time since queue creation, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.state.lock().unwrap().now
    }

    /// Simulated time the device spent executing kernels, seconds.
    pub fn device_busy_s(&self) -> f64 {
        self.state.lock().unwrap().device_busy_s
    }

    /// Aggregate counters.
    pub fn counters(&self) -> QueueCounters {
        self.state.lock().unwrap().counters
    }

    /// Accumulated execution statistics for `kernel` (merged over all its
    /// launches).
    pub fn kernel_stats(&self, kernel: &str) -> Option<ExecStats> {
        self.state.lock().unwrap().kernel_stats.get(kernel).cloned()
    }

    /// Wait for completion and return the total simulated elapsed time —
    /// execution is synchronous, so this just reads the clock.
    pub fn finish(&self) -> f64 {
        self.elapsed_s()
    }

    /// Draw the fault decision for one command: enqueue rejections for
    /// every kind, link corruption for writes and reads, traps and stalls
    /// for launches. A fatal draw comes back as the command's error,
    /// already recorded; the caller applies a `Corrupt` (the transfer
    /// core) or a `Stall` (the launch path).
    fn decide_fault(&self, kind: CommandKind, bytes: u64) -> Result<FaultDecision, RuntimeError> {
        let decision = match self.faults.lock().unwrap().as_mut() {
            None => FaultDecision::None,
            Some(state) => match kind {
                CommandKind::Write => state.decide_transfer(FaultSite::TransferH2D, bytes),
                CommandKind::Read => state.decide_transfer(FaultSite::TransferD2H, bytes),
                CommandKind::Copy | CommandKind::Fill => state.decide_device(),
                CommandKind::Kernel => state.decide_launch(),
            },
        };
        match decision {
            FaultDecision::Fail(f) => Err(self.fail_fault(kind, f)),
            d => Ok(d),
        }
    }

    /// Record a fatal injected fault (counter, metrics, zero-duration
    /// trace marker) and wrap it as the command's error.
    fn fail_fault(&self, kind: CommandKind, fault: InjectedFault) -> RuntimeError {
        self.record_fault(kind, fault.site, true, 0.0);
        RuntimeError::Fault(fault)
    }

    /// Account one injected fault: bump [`QueueCounters::faults`],
    /// publish `fault.*` metrics, and (for fatal faults, which never
    /// reach [`advance`](Self::advance)) push a zero-duration trace
    /// marker so the kill is visible on the timeline.
    fn record_fault(&self, kind: CommandKind, site: FaultSite, fatal: bool, extra_s: f64) {
        let device = self.ctx.device().info().kind.to_string();
        {
            let mut st = self.state.lock().unwrap();
            st.counters.faults += 1;
            if fatal {
                let now = st.now;
                let marker = CommandSpan { fault: Some(site), ..CommandSpan::default() };
                st.trace_command(kind, 0, &marker, now, now);
            }
        }
        if let Some(reg) = self.metrics.lock().unwrap().as_ref() {
            let d = device.as_str();
            reg.inc(
                "fault.injected",
                &[("device", d), ("site", site.label()), ("kind", kind.label())],
                1,
            );
            if !fatal {
                reg.observe("fault.stall_seconds", &[("device", d)], extra_s);
            }
        }
    }

    /// Complete a command on the simulated clock: it is queued now, starts
    /// after the device's command overhead and lasts as long as its
    /// longest span (a launch graph's kernels run concurrently). Each span
    /// gets a trace entry sharing the command's queued/start times and its
    /// own `ocl.*` command metrics.
    fn advance(&self, kind: CommandKind, bytes: u64, spans: &[CommandSpan]) -> Event {
        let info = self.ctx.device().info();
        let device = info.kind.to_string();
        let duration = spans.iter().fold(0.0f64, |max, s| max.max(s.duration));
        let mut st = self.state.lock().unwrap();
        let queued = st.now;
        let start = queued + info.command_overhead_s;
        let end = start + duration;
        st.now = end;
        if kind == CommandKind::Kernel {
            st.device_busy_s += duration;
        }
        for span in spans {
            st.trace_command(kind, bytes, span, queued, start);
        }
        let elapsed = st.now;
        let busy = st.device_busy_s;
        drop(st);
        if let Some(reg) = self.metrics.lock().unwrap().as_ref() {
            let d = device.as_str();
            for span in spans {
                reg.inc("ocl.commands", &[("device", d), ("kind", kind.label())], 1);
                reg.observe(
                    "ocl.command_seconds",
                    &[("device", d), ("kind", kind.label())],
                    end - queued,
                );
                if let Some(name) = span.kernel {
                    reg.inc("ocl.work_items", &[("device", d), ("kernel", name)], span.work_items);
                    reg.observe(
                        "ocl.kernel_seconds",
                        &[("device", d), ("kernel", name)],
                        span.duration,
                    );
                }
            }
            if bytes > 0 {
                reg.inc("ocl.bytes", &[("device", d), ("dir", kind.direction())], bytes);
                reg.observe(
                    "ocl.transfer_bytes",
                    &[("device", d), ("dir", kind.direction())],
                    bytes as f64,
                );
            }
            reg.set_gauge("ocl.sim_elapsed_s", &[("device", d)], elapsed);
            reg.set_gauge("ocl.device_busy_s", &[("device", d)], busy);
        }
        Event { profiling: ProfilingInfo { queued_s: queued, start_s: start, end_s: end } }
    }

    /// Export the recorded trace — host spans, queue commands and
    /// synthesized barrier-phase sub-spans — as a Chrome trace-event JSON
    /// document (loadable in Perfetto / `chrome://tracing`). Times are
    /// simulated microseconds; the top-level `droppedSpans` key reports
    /// commands the trace cap discarded.
    pub fn export_chrome_trace(&self) -> Json {
        let spans = self.trace_spans();
        let mut log = TraceLog::new();
        for span in spans {
            log.push(span);
        }
        log.note_dropped(self.trace_dropped());
        log.to_chrome_json()
    }

    /// The recorded trace as structured [`TraceSpan`]s — host spans,
    /// queue commands and synthesized barrier-phase sub-spans — on the
    /// simulated timeline. Span ids are allocated from the queue's id
    /// space, so the list can be merged into a larger [`TraceLog`]
    /// (after remapping ids into the destination log's space) or
    /// exported directly via [`CommandQueue::export_chrome_trace`].
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        let mut st = self.state.lock().unwrap();
        let mut spans = Vec::new();
        for hs in &st.host_spans {
            spans.push(TraceSpan {
                id: hs.id,
                parent: hs.parent,
                name: hs.name.clone(),
                category: SpanCategory::Host,
                track: "host".into(),
                queued_s: hs.start_s,
                start_s: hs.start_s,
                end_s: hs.end_s,
                args: vec![],
            });
        }
        let entries = st.trace.clone().unwrap_or_default();
        let mut phase_id = st.next_span_id;
        for e in &entries {
            let (category, mut name) = match e.kind {
                CommandKind::Write => (SpanCategory::TransferH2D, format!("write {} B", e.bytes)),
                CommandKind::Read => (SpanCategory::TransferD2H, format!("read {} B", e.bytes)),
                CommandKind::Copy => (SpanCategory::DeviceMem, format!("copy {} B", e.bytes)),
                CommandKind::Fill => (SpanCategory::DeviceMem, format!("fill {} B", e.bytes)),
                CommandKind::Kernel => {
                    (SpanCategory::Kernel, e.kernel.clone().unwrap_or_else(|| "kernel".into()))
                }
            };
            let mut args = vec![("dir".to_string(), e.kind.direction().to_string())];
            if let Some(site) = e.fault {
                // Stalled launches keep their kernel name; commands the
                // fault layer killed are zero-duration markers.
                if e.end_s == e.start_s {
                    name = format!("fault: {} killed {}", site.label(), e.kind.label());
                }
                args.push(("fault".into(), site.label().into()));
            }
            if e.bytes > 0 {
                args.push(("bytes".into(), e.bytes.to_string()));
            }
            if e.work_items > 0 {
                args.push(("work_items".into(), e.work_items.to_string()));
            }
            spans.push(TraceSpan {
                id: e.span_id,
                parent: e.parent,
                name,
                category,
                track: "queue".into(),
                queued_s: e.queued_s,
                start_s: e.start_s,
                end_s: e.end_s,
                args,
            });
            // Subdivide each kernel launch into its barrier-delimited
            // phases. The trace stores the exact launch-wide barrier
            // total; dividing by the group count (rounding up, so a
            // remainder still surfaces as a phase) recovers the
            // per-group crossings that delimit phases.
            if e.kind == CommandKind::Kernel && e.barriers > 0 {
                let phases = e.barriers.div_ceil(e.groups.max(1)) + 1;
                let dt = (e.end_s - e.start_s) / phases as f64;
                for p in 0..phases {
                    let t0 = e.start_s + p as f64 * dt;
                    spans.push(TraceSpan {
                        id: phase_id,
                        parent: Some(e.span_id),
                        name: format!("phase {p}"),
                        category: SpanCategory::BarrierPhase,
                        track: "barrier phases".into(),
                        queued_s: t0,
                        start_s: t0,
                        end_s: t0 + dt,
                        args: vec![],
                    });
                    phase_id += 1;
                }
            }
        }
        st.next_span_id = phase_id;
        spans
    }

    /// Reject a buffer created by another context: its id would alias one
    /// of this context's buffers or index past them.
    fn check_owned(&self, buf: &Buffer) -> Result<(), RuntimeError> {
        if self.ctx.owns(buf) {
            Ok(())
        } else {
            Err(RuntimeError::Invalid(format!("buffer {} belongs to another context", buf.id)))
        }
    }

    /// The one host-device transfer path, shared by every write and read
    /// entry point: validate the handle and the `count` elements of
    /// `width` bytes at element `offset`, draw the transfer fault
    /// decision, run `io` over the device bytes (skipped in timing-only
    /// mode), then count the command and advance the clock by the link's
    /// transfer time.
    ///
    /// A write's `io` encodes into the device bytes, a read's decodes from
    /// them. An injected corruption flips one bit of the payload: after
    /// the encode for a write, so device memory keeps it; just for the
    /// decode for a read (restored under the same lock), so only the host
    /// copy sees it. Either way the command then fails with the fault.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &self,
        kind: CommandKind,
        buf: &Buffer,
        elem: &str,
        width: usize,
        offset: usize,
        count: usize,
        io: impl FnOnce(&mut [u8]),
    ) -> Result<Event, RuntimeError> {
        self.check_owned(buf)?;
        let (off, end) = elem_range(offset, count, width)
            .filter(|&(_, end)| end <= buf.len())
            .ok_or_else(|| {
                let (verb, prep) =
                    if kind == CommandKind::Write { ("write", "into") } else { ("read", "from") };
                RuntimeError::Invalid(format!(
                    "{verb} of {count} {elem} at offset {offset} {prep} buffer of {} bytes",
                    buf.len()
                ))
            })?;
        let nbytes = (end - off) as u64;
        let corrupt = match self.decide_fault(kind, nbytes)? {
            FaultDecision::Corrupt { byte, bit, fault } => {
                Some(((byte % nbytes) as usize, 1u8 << bit, fault))
            }
            _ => None,
        };
        if self.timing_model.lock().unwrap().is_none() {
            let mut mem = self.ctx.mem.lock().unwrap();
            let dev = &mut mem.bytes_mut(buf.id)[off..end];
            match &corrupt {
                None => io(dev),
                Some((i, mask, _)) if kind == CommandKind::Write => {
                    io(dev);
                    dev[*i] ^= mask;
                }
                Some((i, mask, _)) => {
                    dev[*i] ^= mask;
                    io(dev);
                    dev[*i] ^= mask;
                }
            }
        }
        if let Some((_, _, fault)) = corrupt {
            return Err(self.fail_fault(kind, fault));
        }
        let duration = self.ctx.device().info().link.transfer_time(nbytes);
        {
            let mut st = self.state.lock().unwrap();
            let c = &mut st.counters;
            if kind == CommandKind::Write {
                c.writes += 1;
                c.h2d_bytes += nbytes;
            } else {
                c.reads += 1;
                c.d2h_bytes += nbytes;
            }
        }
        Ok(self.advance(kind, nbytes, &[CommandSpan { duration, ..CommandSpan::default() }]))
    }

    /// Copy `data` into `buf` (`clEnqueueWriteBuffer`).
    ///
    /// # Errors
    /// Returns [`RuntimeError::Invalid`] if `buf` belongs to another
    /// context or `data` exceeds the buffer size, and
    /// [`RuntimeError::Fault`] if an armed [`FaultPlan`] kills the command.
    pub fn enqueue_write_buffer(&self, buf: &Buffer, data: &[u8]) -> Result<Event, RuntimeError> {
        self.transfer(CommandKind::Write, buf, "bytes", 1, 0, data.len(), |dev| {
            dev.copy_from_slice(data)
        })
    }

    /// Copy `buf` into `out` (`clEnqueueReadBuffer`).
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_read_buffer(&self, buf: &Buffer, out: &mut [u8]) -> Result<Event, RuntimeError> {
        let n = out.len();
        self.transfer(CommandKind::Read, buf, "bytes", 1, 0, n, |dev| out.copy_from_slice(dev))
    }

    /// Write a slice of `f64` values starting at element `offset`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_write_f64_at(
        &self,
        buf: &Buffer,
        offset: usize,
        data: &[f64],
    ) -> Result<Event, RuntimeError> {
        self.transfer(CommandKind::Write, buf, "f64", 8, offset, data.len(), |dev| {
            for (d, v) in dev.chunks_exact_mut(8).zip(data) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Write a slice of `f64` values at the start of `buf`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_write_f64(&self, buf: &Buffer, data: &[f64]) -> Result<Event, RuntimeError> {
        self.enqueue_write_f64_at(buf, 0, data)
    }

    /// Read `out.len()` `f64` values starting at element `offset`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_read_f64_at(
        &self,
        buf: &Buffer,
        offset: usize,
        out: &mut [f64],
    ) -> Result<Event, RuntimeError> {
        let n = out.len();
        self.transfer(CommandKind::Read, buf, "f64", 8, offset, n, |dev| {
            for (v, d) in out.iter_mut().zip(dev.chunks_exact(8)) {
                *v = f64::from_le_bytes(d.try_into().expect("8-byte chunk"));
            }
        })
    }

    /// Read `f64` values from the start of `buf`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_read_f64(&self, buf: &Buffer, out: &mut [f64]) -> Result<Event, RuntimeError> {
        self.enqueue_read_f64_at(buf, 0, out)
    }

    /// Write a slice of `f32` values starting at element `offset`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_write_f32_at(
        &self,
        buf: &Buffer,
        offset: usize,
        data: &[f32],
    ) -> Result<Event, RuntimeError> {
        self.transfer(CommandKind::Write, buf, "f32", 4, offset, data.len(), |dev| {
            for (d, v) in dev.chunks_exact_mut(4).zip(data) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Read `f32` values starting at element `offset`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_read_f32_at(
        &self,
        buf: &Buffer,
        offset: usize,
        out: &mut [f32],
    ) -> Result<Event, RuntimeError> {
        let n = out.len();
        self.transfer(CommandKind::Read, buf, "f32", 4, offset, n, |dev| {
            for (v, d) in out.iter_mut().zip(dev.chunks_exact(4)) {
                *v = f32::from_le_bytes(d.try_into().expect("4-byte chunk"));
            }
        })
    }

    /// Write a slice of `i32` values at the start of `buf`.
    ///
    /// # Errors
    /// Same as [`enqueue_write_buffer`](Self::enqueue_write_buffer).
    pub fn enqueue_write_i32(&self, buf: &Buffer, data: &[i32]) -> Result<Event, RuntimeError> {
        self.transfer(CommandKind::Write, buf, "i32", 4, 0, data.len(), |dev| {
            for (d, v) in dev.chunks_exact_mut(4).zip(data) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Copy `bytes` bytes from `src` to `dst` on the device
    /// (`clEnqueueCopyBuffer`) — no host round-trip, so the cost is the
    /// device's global-memory bandwidth, not the link.
    ///
    /// # Errors
    /// Returns [`RuntimeError::Invalid`] when either buffer belongs to
    /// another context, on out-of-range copies, or when `src` and `dst`
    /// are the same buffer.
    pub fn enqueue_copy_buffer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        bytes: usize,
    ) -> Result<Event, RuntimeError> {
        self.check_owned(src)?;
        self.check_owned(dst)?;
        if bytes > src.len() || bytes > dst.len() {
            return Err(RuntimeError::Invalid(format!(
                "copy of {bytes} bytes between buffers of {} and {}",
                src.len(),
                dst.len()
            )));
        }
        if src.id == dst.id {
            return Err(RuntimeError::Invalid("copy with overlapping buffers".into()));
        }
        self.decide_fault(CommandKind::Copy, bytes as u64)?;
        if self.timing_model.lock().unwrap().is_none() {
            let mut mem = self.ctx.mem.lock().unwrap();
            let data = mem.bytes(src.id)[..bytes].to_vec();
            mem.bytes_mut(dst.id)[..bytes].copy_from_slice(&data);
        }
        // Read + write through device memory.
        let duration = 2.0 * bytes as f64 / self.ctx.device().info().global_bw_bytes_per_s;
        let span = CommandSpan { duration, ..CommandSpan::default() };
        Ok(self.advance(CommandKind::Copy, bytes as u64, &[span]))
    }

    /// Fill `buf` with a repeated `f64` pattern (`clEnqueueFillBuffer`).
    ///
    /// # Errors
    /// Returns [`RuntimeError::Invalid`] if `buf` belongs to another
    /// context or `count` elements exceed the buffer.
    pub fn enqueue_fill_f64(
        &self,
        buf: &Buffer,
        value: f64,
        count: usize,
    ) -> Result<Event, RuntimeError> {
        self.check_owned(buf)?;
        if count.checked_mul(8).is_none_or(|n| n > buf.len()) {
            return Err(RuntimeError::Invalid(format!(
                "fill of {count} f64 into buffer of {} bytes",
                buf.len()
            )));
        }
        self.decide_fault(CommandKind::Fill, (count * 8) as u64)?;
        if self.timing_model.lock().unwrap().is_none() {
            let mut mem = self.ctx.mem.lock().unwrap();
            for d in mem.bytes_mut(buf.id)[..count * 8].chunks_exact_mut(8) {
                d.copy_from_slice(&value.to_le_bytes());
            }
        }
        let duration = (count * 8) as f64 / self.ctx.device().info().global_bw_bytes_per_s;
        let span = CommandSpan { duration, ..CommandSpan::default() };
        Ok(self.advance(CommandKind::Fill, (count * 8) as u64, &[span]))
    }

    /// Launch `kernel` over `dispatch` (`clEnqueueNDRangeKernel`).
    ///
    /// # Errors
    /// Returns [`RuntimeError`] on unset or foreign arguments, capacity
    /// violations, injected faults or kernel execution failures.
    pub fn enqueue_nd_range(
        &self,
        kernel: &Kernel,
        dispatch: Dispatch,
    ) -> Result<Event, RuntimeError> {
        self.launch(&[(kernel, dispatch)], false)
    }

    /// Launch several kernels as one co-scheduled graph: all of them are
    /// resident on the device at once, and kernels connected by
    /// [pipes](crate::context::Pipe) exchange data without host
    /// transfers. Each kernel must dispatch exactly one work-group (the
    /// graph models concurrent *kernels*, not concurrent groups; pipe
    /// kernels are single-work-item tasks anyway).
    ///
    /// Functionally the kernels run round-robin in graph order: each
    /// round resumes every unfinished kernel once, a kernel suspending
    /// whenever a pipe op cannot make progress. A full round with no
    /// successful pipe op and no completion can never unblock, and fails
    /// the graph with a deterministic deadlock trap. The simulated
    /// duration is the **maximum** of the per-kernel times (concurrent
    /// execution), and the trace records one kernel entry per graph
    /// member sharing the same queued/start timestamps.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] on unset or foreign arguments, capacity
    /// violations, kernel execution failures, injected faults, or pipe
    /// deadlock.
    pub fn enqueue_launch_graph(
        &self,
        launches: &[(&Kernel, Dispatch)],
    ) -> Result<Event, RuntimeError> {
        if launches.is_empty() {
            return Err(RuntimeError::Invalid("empty launch graph".into()));
        }
        self.launch(launches, true)
    }

    /// Validate one kernel of a launch before any fault draw: the
    /// work-group size, that every argument is bound (buffers and pipes to
    /// this queue's context), the local-memory total, and the kernel IR.
    fn check_launch<'k>(
        &self,
        kernel: &'k Kernel,
        dispatch: Dispatch,
    ) -> Result<(&'k Function, Vec<KernelArg>), RuntimeError> {
        let info = self.ctx.device().info();
        if dispatch.local > info.max_work_group_size {
            return Err(RuntimeError::Invalid(format!(
                "work-group size {} exceeds device maximum {}",
                dispatch.local, info.max_work_group_size
            )));
        }
        let args = kernel.bound_args().map_err(|e| RuntimeError::Invalid(e.message))?;
        let foreign = args.iter().position(|a| match a {
            KernelArg::Buffer(b) => !self.ctx.owns(b),
            KernelArg::Pipe(p) => !self.ctx.owns_pipe(p),
            KernelArg::Scalar(_) | KernelArg::Local(_) => false,
        });
        if let Some(i) = foreign {
            return Err(RuntimeError::Invalid(format!(
                "kernel `{}`: argument {i} belongs to another context",
                kernel.name
            )));
        }
        let local_bytes: usize = args
            .iter()
            .map(|a| match a {
                KernelArg::Local(b) => *b,
                _ => 0,
            })
            .sum();
        if local_bytes as u64 > info.local_mem_bytes {
            return Err(RuntimeError::Invalid(format!(
                "work-group needs {local_bytes} bytes of local memory, device has {}",
                info.local_mem_bytes
            )));
        }
        let func = kernel.device_program.module().kernel(&kernel.name).ok_or_else(|| {
            RuntimeError::Invalid(format!("kernel `{}` disappeared", kernel.name))
        })?;
        Ok((func, args))
    }

    /// The one launch path behind [`enqueue_nd_range`](Self::enqueue_nd_range)
    /// (`graph == false`, one launch) and
    /// [`enqueue_launch_graph`](Self::enqueue_launch_graph): validate every
    /// kernel, draw one launch fault decision per kernel in order, execute
    /// (or model, in timing-only mode), account each kernel, and advance
    /// the clock once.
    fn launch(&self, launches: &[(&Kernel, Dispatch)], graph: bool) -> Result<Event, RuntimeError> {
        let mut funcs = Vec::with_capacity(launches.len());
        let mut all_args = Vec::with_capacity(launches.len());
        for &(kernel, dispatch) in launches {
            if graph && dispatch.groups() != 1 {
                return Err(RuntimeError::Invalid(format!(
                    "launch graphs schedule concurrent kernels, not concurrent work-groups: \
                     kernel `{}` dispatches {} groups",
                    kernel.name,
                    dispatch.groups()
                )));
            }
            let (func, args) = self.check_launch(kernel, dispatch)?;
            funcs.push(func);
            all_args.push(args);
        }

        // Fault decisions are drawn per kernel, in graph order, so a
        // graph consumes exactly as many launch draws as its kernels
        // would individually.
        let stalls = launches
            .iter()
            .map(|_| match self.decide_fault(CommandKind::Kernel, 0)? {
                FaultDecision::Stall { extra_s } => {
                    let site = FaultSite::LaunchStall;
                    self.record_fault(CommandKind::Kernel, site, false, extra_s);
                    Ok((extra_s, Some(site)))
                }
                _ => Ok((0.0, None)),
            })
            .collect::<Result<Vec<_>, RuntimeError>>()?;

        let stats: Vec<ExecStats> = match self.timing_model.lock().unwrap().as_ref() {
            Some(model) => launches.iter().map(|&(k, d)| model(&k.name, d)).collect(),
            None if graph => run_graph(
                &mut self.ctx.mem.lock().unwrap(),
                &mut self.ctx.pipes.lock().unwrap(),
                launches,
                &funcs,
                &all_args,
                self.engine(),
                self.step_limit(),
            )?,
            None => {
                // Pipe kernels run against the context's persistent hub
                // (its contents survive across launches); everything else
                // keeps the multi-worker path.
                let ((kernel, dispatch), func) = (launches[0], funcs[0]);
                let has_pipes =
                    func.params.iter().any(|p| matches!(p.ty, Type::Ptr(AddressSpace::Pipe, _)));
                let mut mem = self.ctx.mem.lock().unwrap();
                let mut hub = has_pipes.then(|| self.ctx.pipes.lock().unwrap());
                vec![interpret_groups(
                    &mut mem,
                    func,
                    &kernel.compiled,
                    kernel.device_program.math(),
                    &all_args[0],
                    dispatch,
                    self.workers(),
                    self.engine(),
                    self.step_limit(),
                    hub.as_deref_mut(),
                )?]
            }
        };

        let device = self.ctx.device().info().kind.to_string();
        let mut spans = Vec::with_capacity(launches.len());
        for ((&(kernel, dispatch), stats), &(stall_s, fault)) in
            launches.iter().zip(&stats).zip(&stalls)
        {
            if let Some(reg) = self.metrics.lock().unwrap().as_ref() {
                publish_exec_stats(reg, &device, &kernel.name, stats);
            }
            let mut st = self.state.lock().unwrap();
            let c = &mut st.counters;
            c.launches += 1;
            c.work_items += dispatch.global as u64;
            c.pipe_reads += stats.pipe_reads;
            c.pipe_writes += stats.pipe_writes;
            c.pipe_read_stalls += stats.pipe_read_stalls;
            c.pipe_write_stalls += stats.pipe_write_stalls;
            st.kernel_stats
                .entry(kernel.name.clone())
                .and_modify(|s| s.merge(stats))
                .or_insert_with(|| stats.clone());
            // A stalled launch still computes correctly; it just occupies
            // the device for extra simulated time.
            spans.push(CommandSpan {
                kernel: Some(&kernel.name),
                work_items: dispatch.global as u64,
                barriers: stats.barriers,
                groups: dispatch.groups() as u64,
                duration: kernel.device_program.kernel_time(&kernel.name, &dispatch, stats)
                    + stall_s,
                fault,
            });
        }
        Ok(self.advance(CommandKind::Kernel, 0, &spans))
    }
}

/// One work-group run on the [`Engine`] the queue selected: the single
/// place an engine maps to its runner.
enum GroupRun<'a> {
    Walk(WorkGroupRun<'a>),
    Lanes(LanesRun<'a>),
}

impl<'a> GroupRun<'a> {
    fn new(
        engine: Engine,
        compiled: &'a CompiledKernel,
        func: &'a Function,
        shape: GroupShape,
        args: &[KernelArgValue],
        step_limit: u64,
    ) -> Result<GroupRun<'a>, ExecError> {
        Ok(match engine {
            Engine::Walk => GroupRun::Walk(WorkGroupRun::new(func, shape, args, step_limit)?),
            #[allow(deprecated)]
            Engine::Lanes | Engine::Bytecode => {
                GroupRun::Lanes(LanesRun::new(compiled, shape, args, step_limit)?)
            }
        })
    }

    fn run(&mut self, mem: &mut WorkerMemory, math: &dyn MathLib) -> Result<(), ExecError> {
        match self {
            GroupRun::Walk(r) => r.run(mem, math),
            GroupRun::Lanes(r) => r.run(mem, math),
        }
    }

    fn run_resumable(
        &mut self,
        mem: &mut WorkerMemory,
        math: &dyn MathLib,
        hub: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        match self {
            GroupRun::Walk(r) => r.run_resumable(mem, math, hub),
            GroupRun::Lanes(r) => r.run_resumable(mem, math, hub),
        }
    }

    fn stats(&self) -> &ExecStats {
        match self {
            GroupRun::Walk(r) => r.stats(),
            GroupRun::Lanes(r) => r.stats(),
        }
    }
}

/// Bind one work-group's kernel arguments, allocating its `__local`
/// buffers from `local`.
fn bind_args(args: &[KernelArg], local: &mut WorkerMemory) -> Vec<KernelArgValue> {
    args.iter()
        .map(|a| match a {
            KernelArg::Scalar(v) => KernelArgValue::Scalar(*v),
            KernelArg::Buffer(b) => KernelArgValue::GlobalBuffer(b.id),
            KernelArg::Local(bytes) => KernelArgValue::LocalBuffer(local.alloc_local(*bytes)),
            KernelArg::Pipe(p) => KernelArgValue::Pipe(p.id),
        })
        .collect()
}

/// Run every kernel of a launch graph to completion, round-robin in graph
/// order against the context's pipe hub. Deterministic for every engine:
/// the round order is the graph order, and each round resumes each
/// unfinished kernel exactly once.
fn run_graph(
    mem: &mut GlobalArena,
    hub: &mut PipeHub,
    launches: &[(&Kernel, Dispatch)],
    funcs: &[&Function],
    all_args: &[Vec<KernelArg>],
    engine: Engine,
    step_limit: u64,
) -> Result<Vec<ExecStats>, RuntimeError> {
    let shared = mem.shared();
    let mut locals: Vec<WorkerMemory> =
        (0..launches.len()).map(|_| WorkerMemory::new(&shared)).collect();
    let mut runners = Vec::with_capacity(launches.len());
    for (i, ((kernel, dispatch), func)) in launches.iter().zip(funcs).enumerate() {
        let arg_values = bind_args(&all_args[i], &mut locals[i]);
        let shape = GroupShape::linear(dispatch.global, dispatch.local, 0);
        runners.push(GroupRun::new(
            engine,
            &kernel.compiled,
            func,
            shape,
            &arg_values,
            step_limit,
        )?);
    }

    let mut done = vec![false; runners.len()];
    loop {
        let ops_before = hub.total_ops();
        let mut completed = false;
        let mut remaining = false;
        for (i, runner) in runners.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            let math = launches[i].0.device_program.math();
            match runner.run_resumable(&mut locals[i], math, hub)? {
                RunOutcome::Complete => {
                    done[i] = true;
                    completed = true;
                }
                RunOutcome::Stalled => remaining = true,
            }
        }
        if !remaining {
            break;
        }
        if !completed && hub.total_ops() == ops_before {
            return Err(RuntimeError::Exec(pipe_deadlock_trap()));
        }
    }
    Ok(runners.iter().map(|r| r.stats().clone()).collect())
}

/// Interpret every work-group of one NDRange launch, fanning contiguous
/// group ranges out over `workers` scoped threads.
///
/// Work-groups share no state by OpenCL semantics (barriers synchronise
/// only within a group), so groups run concurrently against a
/// [`SharedGlobals`](bop_clir::interp::SharedGlobals) view of the global
/// arena while each worker owns its private local-memory allocator. Each
/// worker merges its groups' [`ExecStats`] in ascending group order and
/// the chunks are merged in ascending worker order, so the total — and
/// therefore metrics, traces, `kernel_stats` and the modeled kernel time
/// — is bit-identical to the sequential path for every worker count.
/// Errors are deterministic too: chunks are contiguous ascending ranges
/// and every worker stops at its first failing group, so the error
/// reported from the lowest-indexed failing worker is the one the
/// sequential loop would have hit first.
///
/// Each group runs on the selected [`Engine`] (see [`GroupRun::new`]).
/// Both engines are bit-identical, so the choice never changes results or
/// statistics.
#[allow(clippy::too_many_arguments)]
fn interpret_groups(
    mem: &mut GlobalArena,
    func: &Function,
    compiled: &CompiledKernel,
    math: &dyn MathLib,
    args: &[KernelArg],
    dispatch: Dispatch,
    workers: usize,
    engine: Engine,
    step_limit: u64,
    pipes: Option<&mut PipeHub>,
) -> Result<ExecStats, RuntimeError> {
    let groups = dispatch.groups();
    let shared = mem.shared();

    // A pipe kernel launched alone runs serially against the hub. It may
    // complete by draining (or leaving behind) buffered FIFO contents —
    // they persist on the context — but a launch that ends stalled has
    // no peer in this command to unblock it: deadlock.
    if let Some(hub) = pipes {
        let mut local = WorkerMemory::new(&shared);
        let mut total = ExecStats::with_blocks(func.blocks.len());
        for group in 0..groups {
            local.clear_locals();
            let arg_values = bind_args(args, &mut local);
            let shape = GroupShape::linear(dispatch.global, dispatch.local, group);
            let mut run = GroupRun::new(engine, compiled, func, shape, &arg_values, step_limit)?;
            let outcome = run.run_resumable(&mut local, math, hub)?;
            total.merge(run.stats());
            if outcome == RunOutcome::Stalled {
                return Err(RuntimeError::Exec(pipe_deadlock_trap()));
            }
        }
        return Ok(total);
    }

    let run_range = |range: std::ops::Range<usize>| -> Result<ExecStats, ExecError> {
        let mut local = WorkerMemory::new(&shared);
        let mut total = ExecStats::with_blocks(func.blocks.len());
        for group in range {
            local.clear_locals();
            let arg_values = bind_args(args, &mut local);
            let shape = GroupShape::linear(dispatch.global, dispatch.local, group);
            let mut run = GroupRun::new(engine, compiled, func, shape, &arg_values, step_limit)?;
            run.run(&mut local, math)?;
            total.merge(run.stats());
        }
        Ok(total)
    };

    let workers = workers.max(1).min(groups.max(1));
    if workers <= 1 {
        return run_range(0..groups).map_err(RuntimeError::from);
    }

    let chunks = Dispatch::partition_groups(groups, workers);
    let results: Vec<Result<ExecStats, ExecError>> = std::thread::scope(|scope| {
        let run_range = &run_range;
        let handles: Vec<_> =
            chunks.into_iter().map(|r| scope.spawn(move || run_range(r))).collect();
        handles.into_iter().map(|h| h.join().expect("NDRange worker panicked")).collect()
    });
    let mut total = ExecStats::with_blocks(func.blocks.len());
    for chunk in results {
        total.merge(&chunk?);
    }
    Ok(total)
}

/// Byte offset and exclusive byte end of an element-range access, or
/// `None` when the arithmetic overflows `usize` — release builds would
/// otherwise wrap, pass the bounds check, and panic on slice indexing
/// instead of reporting an invalid command.
fn elem_range(offset: usize, count: usize, elem: usize) -> Option<(usize, usize)> {
    let byte_off = offset.checked_mul(elem)?;
    let end = count.checked_mul(elem).and_then(|n| byte_off.checked_add(n))?;
    Some((byte_off, end))
}

/// The `bop-clir` → `bop-obs` bridge: publish one launch's interpreter
/// statistics ([`ExecStats`]) as labeled counters.
fn publish_exec_stats(reg: &MetricsRegistry, device: &str, kernel: &str, stats: &ExecStats) {
    let labels = [("device", device), ("kernel", kernel)];
    reg.inc("clir.block_execs", &labels, stats.total_block_execs());
    reg.inc("clir.barriers", &labels, stats.barriers);
    reg.inc("clir.item_phases", &labels, stats.item_phases);
    reg.inc("clir.ops", &labels, stats.ops.total());
    reg.inc(
        "clir.flops_simple",
        &labels,
        stats.ops.simple_flops(true) + stats.ops.simple_flops(false),
    );
    reg.inc("clir.flops_hard", &labels, stats.ops.hard_flops(true) + stats.ops.hard_flops(false));
    reg.inc("clir.global_mem_bytes", &labels, stats.mem.global_bytes());
    reg.inc("clir.pipe_ops", &labels, stats.pipe_reads + stats.pipe_writes);
    reg.inc("clir.pipe_stalls", &labels, stats.pipe_read_stalls + stats.pipe_write_stalls);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BuildOptions;
    use crate::program::Program;
    use crate::testutil::NullDevice;

    fn setup(src: &str) -> (Arc<Context>, CommandQueue, Program) {
        let ctx = Context::new(Arc::new(NullDevice::default()));
        let q = CommandQueue::new(&ctx);
        let p = Program::from_source(&ctx, "t.cl", src, &BuildOptions::default()).expect("builds");
        (ctx, q, p)
    }

    #[test]
    fn rejected_env_settings_fall_back_with_a_warning() {
        let engine =
            |v| parse_setting("BOP_SIM_ENGINE", v, parse_engine, ENGINE_SPELLINGS, Engine::Lanes);
        assert_eq!(engine(None), (Engine::Lanes, None));
        assert_eq!(engine(Some(" WALK ")), (Engine::Walk, None));
        // The removed scalar engine's name is a typo like any other.
        let (fallback, warning) = engine(Some("bytecode"));
        assert_eq!(fallback, Engine::Lanes);
        let warning = warning.expect("a rejected engine warns");
        for part in ["BOP_SIM_ENGINE", "\"bytecode\"", ENGINE_SPELLINGS, "using lanes"] {
            assert!(warning.contains(part), "{part:?} missing from {warning:?}");
        }

        let limit = |v| parse_setting("BOP_SIM_STEP_LIMIT", v, parse_step_limit, "an integer", 0);
        assert_eq!(limit(Some("1000")), (1000, None));
        let (fallback, warning) = limit(Some("-3"));
        assert_eq!(fallback, 0);
        let warning = warning.expect("a rejected limit warns");
        for part in ["BOP_SIM_STEP_LIMIT", "\"-3\"", "an integer", "using 0"] {
            assert!(warning.contains(part), "{part:?} missing from {warning:?}");
        }
    }

    #[test]
    fn write_kernel_read_round_trip() {
        let (ctx, q, p) = setup(
            "__kernel void twice(__global double* io) {
                size_t g = get_global_id(0);
                io[g] = io[g] * 2.0;
            }",
        );
        let buf = ctx.create_buffer(4 * 8);
        q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        let k = p.kernel("twice").expect("kernel");
        k.set_arg_buffer(0, &buf);
        q.enqueue_nd_range(&k, Dispatch::new(4, 2)).expect("launch");
        let mut out = [0.0; 4];
        q.enqueue_read_f64(&buf, &mut out).expect("read");
        assert_eq!(out, [2.0, 4.0, 6.0, 8.0]);
        let c = q.counters();
        assert_eq!(c.writes, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.launches, 1);
        assert_eq!(c.work_items, 4);
        assert_eq!(c.h2d_bytes, 32);
    }

    #[test]
    fn clock_advances_monotonically_with_overheads() {
        let (ctx, q, p) = setup("__kernel void nop(__global double* io) {}");
        let buf = ctx.create_buffer(1024 * 8);
        let e1 = q.enqueue_write_f64(&buf, &vec![0.0; 1024]).expect("write");
        let k = p.kernel("nop").expect("kernel");
        k.set_arg_buffer(0, &buf);
        let e2 = q.enqueue_nd_range(&k, Dispatch::new(16, 16)).expect("launch");
        assert!(e1.profiling.end_s > e1.profiling.start_s);
        assert!(e2.profiling.queued_s >= e1.profiling.end_s);
        assert!(e2.profiling.start_s > e2.profiling.queued_s, "command overhead visible");
        assert!(q.elapsed_s() >= e2.profiling.end_s);
        assert!(q.device_busy_s() > 0.0);
        assert!(q.device_busy_s() < q.elapsed_s());
    }

    #[test]
    fn local_memory_args_and_stats() {
        let (ctx, q, p) = setup(
            "__kernel void rev(__global double* io, __local double* tmp) {
                size_t l = get_local_id(0);
                size_t n = get_local_size(0);
                tmp[l] = io[get_global_id(0)];
                barrier(1);
                io[get_global_id(0)] = tmp[n - 1 - l];
            }",
        );
        let buf = ctx.create_buffer(4 * 8);
        q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        let k = p.kernel("rev").expect("kernel");
        k.set_arg_buffer(0, &buf);
        k.set_arg_local(1, 4 * 8);
        q.enqueue_nd_range(&k, Dispatch::new(4, 4)).expect("launch");
        let mut out = [0.0; 4];
        q.enqueue_read_f64(&buf, &mut out).expect("read");
        assert_eq!(out, [4.0, 3.0, 2.0, 1.0]);
        let stats = q.kernel_stats("rev").expect("stats");
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.mem.local_stores, 4);
        assert_eq!(stats.mem.local_loads, 4);
    }

    #[test]
    fn local_memory_capacity_enforced() {
        let (ctx, q, p) = setup("__kernel void k(__global double* io, __local double* t) {}");
        let buf = ctx.create_buffer(8);
        let k = p.kernel("k").expect("kernel");
        k.set_arg_buffer(0, &buf);
        let too_much = ctx.device().info().local_mem_bytes as usize + 8;
        k.set_arg_local(1, too_much);
        assert!(matches!(
            q.enqueue_nd_range(&k, Dispatch::new(1, 1)),
            Err(RuntimeError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_transfers_rejected() {
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        let buf = ctx.create_buffer(8);
        assert!(q.enqueue_write_f64(&buf, &[1.0, 2.0]).is_err());
        let mut out = [0.0; 2];
        assert!(q.enqueue_read_f64(&buf, &mut out).is_err());
    }

    #[test]
    fn timing_only_mode_skips_execution_but_keeps_time() {
        let (ctx, q, p) = setup(
            "__kernel void boom(__global double* io) {
                io[9999999] = 1.0; // would be out of bounds if executed
            }",
        );
        let buf = ctx.create_buffer(8);
        let k = p.kernel("boom").expect("kernel");
        k.set_arg_buffer(0, &buf);
        q.set_timing_only(Box::new(|_, d| {
            let mut s = ExecStats::with_blocks(1);
            s.block_execs[0] = d.global as u64;
            s
        }));
        let ev = q.enqueue_nd_range(&k, Dispatch::new(1024, 256)).expect("timing-only launch");
        assert!(ev.profiling.duration_s() > 0.0);
        // Writes skip the memcpy too but still cost time.
        let before = q.elapsed_s();
        q.enqueue_write_f64(&buf, &[1.0]).expect("write");
        assert!(q.elapsed_s() > before);
        assert_eq!(ctx.snapshot(&buf), vec![0u8; 8], "timing-only write copies nothing");
    }

    #[test]
    fn trace_records_commands_in_order() {
        let (ctx, q, p) = setup("__kernel void k(__global double* io) {}");
        q.enable_trace();
        let buf = ctx.create_buffer(16);
        q.enqueue_write_f64(&buf, &[1.0, 2.0]).expect("write");
        let k = p.kernel("k").expect("kernel");
        k.set_arg_buffer(0, &buf);
        q.enqueue_nd_range(&k, Dispatch::new(2, 2)).expect("launch");
        let mut out = [0.0; 2];
        q.enqueue_read_f64(&buf, &mut out).expect("read");
        let trace = q.trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].kind, CommandKind::Write);
        assert_eq!(trace[1].kind, CommandKind::Kernel);
        assert_eq!(trace[1].kernel.as_deref(), Some("k"));
        assert_eq!(trace[2].kind, CommandKind::Read);
        assert!(trace[0].end_s <= trace[1].start_s);
        assert!(trace[1].end_s <= trace[2].start_s);
    }

    #[test]
    fn copy_and_fill_operate_on_device_memory() {
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        let a = ctx.create_buffer(4 * 8);
        let b = ctx.create_buffer(4 * 8);
        q.enqueue_fill_f64(&a, 2.5, 4).expect("fill");
        q.enqueue_copy_buffer(&a, &b, 4 * 8).expect("copy");
        let mut out = [0.0; 4];
        q.enqueue_read_f64(&b, &mut out).expect("read");
        assert_eq!(out, [2.5; 4]);
        // Copies are device-side: no link traffic counted.
        let c = q.counters();
        assert_eq!(c.d2h_bytes, 32, "only the final read crosses the link");
        assert_eq!(c.h2d_bytes, 0);
    }

    #[test]
    fn copy_and_fill_bounds_checked() {
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        let a = ctx.create_buffer(8);
        let b = ctx.create_buffer(8);
        assert!(q.enqueue_copy_buffer(&a, &b, 16).is_err());
        assert!(q.enqueue_copy_buffer(&a, &a, 8).is_err(), "overlap rejected");
        assert!(q.enqueue_fill_f64(&a, 0.0, 2).is_err());
    }

    #[test]
    fn trace_cap_disable_and_clear() {
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        q.enable_trace();
        q.set_trace_cap(Some(2));
        let buf = ctx.create_buffer(64);
        for _ in 0..5 {
            q.enqueue_write_f64(&buf, &[1.0]).expect("write");
        }
        assert_eq!(q.trace().len(), 2, "cap retains only the first entries");
        assert_eq!(q.trace_dropped(), 3);
        q.clear_trace();
        assert_eq!(q.trace().len(), 0);
        assert_eq!(q.trace_dropped(), 0);
        q.enqueue_write_f64(&buf, &[1.0]).expect("write");
        assert_eq!(q.trace().len(), 1, "tracing still on after clear");
        q.disable_trace();
        q.enqueue_write_f64(&buf, &[1.0]).expect("write");
        assert!(q.trace().is_empty(), "disable stops and discards");
        let c = q.counters();
        assert_eq!(c.writes, 7, "counters unaffected by trace state");
    }

    #[test]
    fn host_spans_nest_and_parent_commands() {
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        q.enable_trace();
        let buf = ctx.create_buffer(64);
        let outer = q.begin_span("batch");
        let inner = q.begin_span("step 0");
        q.enqueue_write_f64(&buf, &[1.0]).expect("write");
        q.end_span(inner);
        q.enqueue_write_f64(&buf, &[2.0]).expect("write");
        q.end_span(outer);

        let spans = q.host_spans();
        assert_eq!(spans.len(), 2);
        let inner_span = spans.iter().find(|s| s.id == inner).expect("inner");
        let outer_span = spans.iter().find(|s| s.id == outer).expect("outer");
        assert_eq!(inner_span.parent, Some(outer));
        assert_eq!(outer_span.parent, None);
        assert!(outer_span.start_s <= inner_span.start_s);
        assert!(outer_span.end_s >= inner_span.end_s);

        let trace = q.trace();
        assert_eq!(trace[0].parent, Some(inner), "first write inside the step span");
        assert_eq!(trace[1].parent, Some(outer), "second write inside the batch span");
        // Span ids never collide between commands and host spans.
        let mut ids = vec![outer, inner, trace[0].span_id, trace[1].span_id];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn end_span_closes_unclosed_children() {
        let (_ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        let outer = q.begin_span("outer");
        let _inner = q.begin_span("inner-never-ended");
        q.end_span(outer);
        assert_eq!(q.host_spans().len(), 2, "both spans closed");
    }

    #[test]
    fn chrome_export_contains_commands_and_barrier_phases() {
        let (ctx, q, p) = setup(
            "__kernel void rev(__global double* io, __local double* tmp) {
                size_t l = get_local_id(0);
                size_t n = get_local_size(0);
                tmp[l] = io[get_global_id(0)];
                barrier(1);
                io[get_global_id(0)] = tmp[n - 1 - l];
            }",
        );
        q.enable_trace();
        let buf = ctx.create_buffer(4 * 8);
        let span = q.begin_span("pricing");
        q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        let k = p.kernel("rev").expect("kernel");
        k.set_arg_buffer(0, &buf);
        k.set_arg_local(1, 4 * 8);
        q.enqueue_nd_range(&k, Dispatch::new(4, 4)).expect("launch");
        let mut out = [0.0; 4];
        q.enqueue_read_f64(&buf, &mut out).expect("read");
        q.end_span(span);

        let doc = q.export_chrome_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"pricing"), "host span exported: {names:?}");
        assert!(names.contains(&"rev"), "kernel span exported");
        assert!(names.contains(&"phase 0"), "barrier phase 0");
        assert!(names.contains(&"phase 1"), "barrier phase 1 (one barrier = two phases)");
        assert!(names.iter().any(|n| n.starts_with("write")), "h2d span");
        assert!(names.iter().any(|n| n.starts_with("read")), "d2h span");
        // Every complete event has non-negative ts and dur.
        for e in events {
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                assert!(e.get("ts").and_then(Json::as_f64).expect("ts") >= 0.0);
                assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
            }
        }
    }

    #[test]
    fn attached_metrics_register_commands_and_exec_stats() {
        let (ctx, q, p) = setup(
            "__kernel void twice(__global double* io) {
                size_t g = get_global_id(0);
                io[g] = io[g] * 2.0;
            }",
        );
        let reg = Arc::new(MetricsRegistry::new());
        q.attach_metrics(reg.clone());
        let buf = ctx.create_buffer(4 * 8);
        q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        let k = p.kernel("twice").expect("kernel");
        k.set_arg_buffer(0, &buf);
        q.enqueue_nd_range(&k, Dispatch::new(4, 2)).expect("launch");
        let mut out = [0.0; 4];
        q.enqueue_read_f64(&buf, &mut out).expect("read");

        let dev = ctx.device().info().kind.to_string();
        let d = dev.as_str();
        assert_eq!(
            q.counters().writes,
            reg.counter_value("ocl.commands", &[("device", d), ("kind", "write")])
        );
        assert_eq!(
            q.counters().h2d_bytes,
            reg.counter_value("ocl.bytes", &[("device", d), ("dir", "h2d")])
        );
        assert_eq!(
            q.counters().d2h_bytes,
            reg.counter_value("ocl.bytes", &[("device", d), ("dir", "d2h")])
        );
        assert_eq!(reg.counter_total("ocl.commands"), 3);
        assert_eq!(reg.counter_value("ocl.work_items", &[("device", d), ("kernel", "twice")]), 4);
        assert!(reg.counter_value("clir.ops", &[("device", d), ("kernel", "twice")]) > 0);
        let elapsed = reg.gauge_value("ocl.sim_elapsed_s", &[("device", d)]).expect("gauge");
        assert!((elapsed - q.elapsed_s()).abs() < 1e-12);
        let h = reg
            .histogram("ocl.command_seconds", &[("device", d), ("kind", "write")])
            .expect("hist");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn fault_plan_injects_typed_detected_failures() {
        use crate::faults::{FaultPlan, FaultSites};
        let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
        let reg = Arc::new(MetricsRegistry::new());
        q.attach_metrics(reg.clone());
        q.enable_trace();
        // Transfer-only faults at rate 1: the first write must fail with
        // a typed corruption fault and flip exactly one device bit.
        q.set_fault_plan(FaultPlan::new(1.0, 42).with_sites(FaultSites {
            transfer: true,
            enqueue: false,
            stall: false,
            trap: false,
        }));
        let buf = ctx.create_buffer(4 * 8);
        let before = q.elapsed_s();
        let err = q.enqueue_write_f64(&buf, &[1.0; 4]).expect_err("transfer fault");
        match &err {
            RuntimeError::Fault(f) => assert_eq!(f.site, FaultSite::TransferH2D),
            other => panic!("expected an injected fault, got {other}"),
        }
        let written = ctx.snapshot(&buf);
        let flipped: u32 = written
            .iter()
            .zip([1.0f64; 4].iter().flat_map(|v| v.to_le_bytes()))
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit corrupted");
        assert_eq!(q.elapsed_s(), before, "failed commands cost no simulated time");
        assert_eq!(q.counters().writes, 0, "failed writes are not counted as writes");
        assert_eq!(q.counters().faults, 1);
        assert_eq!(reg.counter_total("fault.injected"), 1);
        let marker = q.trace().pop().expect("fault marker traced");
        assert_eq!(marker.fault, Some(FaultSite::TransferH2D));
        assert_eq!(marker.start_s, marker.end_s);
        assert!(
            q.export_chrome_trace().to_string().contains("transfer_h2d"),
            "fault visible in the chrome export"
        );
    }

    #[test]
    fn launch_stalls_extend_simulated_time_only() {
        use crate::faults::{FaultPlan, FaultSites};
        let (ctx, q, p) = setup(
            "__kernel void twice(__global double* io) {
                size_t g = get_global_id(0);
                io[g] = io[g] * 2.0;
            }",
        );
        let buf = ctx.create_buffer(4 * 8);
        q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        let k = p.kernel("twice").expect("kernel");
        k.set_arg_buffer(0, &buf);
        // Reference run without faults.
        let plain = q.enqueue_nd_range(&k, Dispatch::new(4, 2)).expect("launch");
        q.set_fault_plan(FaultPlan::new(1.0, 1).with_sites(FaultSites {
            transfer: false,
            enqueue: false,
            stall: true,
            trap: false,
        }));
        q.enable_trace();
        let stalled = q.enqueue_nd_range(&k, Dispatch::new(4, 2)).expect("stalled launch");
        assert!(
            stalled.profiling.duration_s() > plain.profiling.duration_s(),
            "stall adds simulated device time"
        );
        let mut out = [0.0; 4];
        q.set_fault_plan(FaultPlan::none());
        q.enqueue_read_f64(&buf, &mut out).expect("read");
        assert_eq!(out, [4.0, 8.0, 12.0, 16.0], "stalled launches still compute correctly");
        let entry = &q.trace()[0];
        assert_eq!(entry.fault, Some(FaultSite::LaunchStall));
        assert_eq!(q.counters().launches, 2, "stalled launches count as launches");
    }

    #[test]
    fn spurious_traps_kill_launches_on_all_engines() {
        use crate::faults::{FaultPlan, FaultSites};
        for engine in [Engine::Walk, Engine::Lanes] {
            let (ctx, q, p) = setup("__kernel void k(__global double* io) {}");
            q.set_engine(engine);
            q.set_fault_plan(FaultPlan::new(1.0, 5).with_sites(FaultSites {
                transfer: false,
                enqueue: false,
                stall: false,
                trap: true,
            }));
            let buf = ctx.create_buffer(8);
            let k = p.kernel("k").expect("kernel");
            k.set_arg_buffer(0, &buf);
            let err = q.enqueue_nd_range(&k, Dispatch::new(1, 1)).expect_err("trap");
            match &err {
                RuntimeError::Fault(f) => {
                    assert_eq!(f.site, FaultSite::Trap);
                    let cause = std::error::Error::source(f).expect("chained engine trap");
                    let exec = cause.downcast_ref::<ExecError>().expect("ExecError");
                    assert!(exec.is_injected(), "{engine}: {exec}");
                }
                other => panic!("{engine}: expected an injected fault, got {other}"),
            }
        }
    }

    #[test]
    fn inert_fault_plans_change_nothing() {
        use crate::faults::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let (ctx, q, p) = setup(
                "__kernel void twice(__global double* io) {
                    size_t g = get_global_id(0);
                    io[g] = io[g] * 2.0;
                }",
            );
            if let Some(plan) = plan {
                q.set_fault_plan(plan);
            }
            q.enable_trace();
            let buf = ctx.create_buffer(4 * 8);
            q.enqueue_write_f64(&buf, &[1.0, 2.0, 3.0, 4.0]).expect("write");
            let k = p.kernel("twice").expect("kernel");
            k.set_arg_buffer(0, &buf);
            q.enqueue_nd_range(&k, Dispatch::new(4, 2)).expect("launch");
            let mut out = [0.0; 4];
            q.enqueue_read_f64(&buf, &mut out).expect("read");
            (out, q.counters(), q.export_chrome_trace().to_string(), q.elapsed_s())
        };
        let reference = run(None);
        let zero_rate = run(Some(FaultPlan::none()));
        assert_eq!(reference, zero_rate, "FaultPlan::none() is bit-identical to no plan");
        assert_eq!(reference.1.faults, 0);
    }

    #[test]
    fn work_group_size_limit_enforced() {
        let (ctx, q, p) = setup("__kernel void k(__global double* io) {}");
        let buf = ctx.create_buffer(8);
        let k = p.kernel("k").expect("kernel");
        k.set_arg_buffer(0, &buf);
        let max = ctx.device().info().max_work_group_size;
        assert!(matches!(
            q.enqueue_nd_range(&k, Dispatch::new(max * 2, max * 2)),
            Err(RuntimeError::Invalid(_))
        ));
    }

    #[test]
    fn each_engine_runs_on_its_own_runner() {
        // The engines are bit-identical, so only this test notices an
        // engine routed to another engine's runner (say, the reference
        // walker silently replaced by lanes). The deprecated bytecode
        // name runs on lanes.
        let (ctx, _q, p) = setup("__kernel void k(__global double* io) {}");
        let k = p.kernel("k").expect("kernel");
        let func = p.module().kernel("k").expect("kernel");
        let buf = ctx.create_buffer(8);
        let args = [KernelArgValue::GlobalBuffer(buf.id)];
        let shape = GroupShape::linear(1, 1, 0);
        let runner = |engine| GroupRun::new(engine, &k.compiled, func, shape, &args, 0);
        assert!(matches!(runner(Engine::Walk), Ok(GroupRun::Walk(_))));
        #[allow(deprecated)]
        let bytecode = runner(Engine::Bytecode);
        assert!(matches!(bytecode, Ok(GroupRun::Lanes(_))));
        assert!(matches!(runner(Engine::Lanes), Ok(GroupRun::Lanes(_))));
    }

    /// One transfer entry point of the equivalence table: moves the
    /// 32-byte payload at the byte offset its table row names and returns
    /// the command result plus the payload bytes the host passed in
    /// (writes) or ends up with (reads).
    type TransferFn =
        fn(&CommandQueue, &Buffer, &[u8; 32]) -> (Result<Event, RuntimeError>, [u8; 32]);

    fn f64s(p: &[u8; 32]) -> Vec<f64> {
        p.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    fn f32s(p: &[u8; 32]) -> Vec<f32> {
        p.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
    }

    fn bytes_of<const W: usize, T: Copy>(v: &[T], le: fn(T) -> [u8; W]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (d, x) in out.chunks_exact_mut(W).zip(v) {
            d.copy_from_slice(&le(*x));
        }
        out
    }

    #[test]
    fn every_transfer_entry_point_is_the_same_command() {
        use crate::faults::{FaultPlan, FaultSites};
        let writes: [(&str, usize, TransferFn); 6] = [
            ("write_buffer", 0, |q, b, p| (q.enqueue_write_buffer(b, p), *p)),
            ("write_f64", 0, |q, b, p| (q.enqueue_write_f64(b, &f64s(p)), *p)),
            ("write_f64_at", 16, |q, b, p| (q.enqueue_write_f64_at(b, 2, &f64s(p)), *p)),
            ("write_f32_at/0", 0, |q, b, p| (q.enqueue_write_f32_at(b, 0, &f32s(p)), *p)),
            ("write_f32_at", 16, |q, b, p| (q.enqueue_write_f32_at(b, 4, &f32s(p)), *p)),
            ("write_i32", 0, |q, b, p| {
                let v: Vec<i32> =
                    p.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
                (q.enqueue_write_i32(b, &v), *p)
            }),
        ];
        let reads: [(&str, usize, TransferFn); 5] = [
            ("read_buffer", 0, |q, b, _| {
                let mut o = [0u8; 32];
                (q.enqueue_read_buffer(b, &mut o), o)
            }),
            ("read_f64", 0, |q, b, _| {
                let mut o = [0.0; 4];
                (q.enqueue_read_f64(b, &mut o), bytes_of(&o, f64::to_le_bytes))
            }),
            ("read_f64_at", 16, |q, b, _| {
                let mut o = [0.0; 4];
                (q.enqueue_read_f64_at(b, 2, &mut o), bytes_of(&o, f64::to_le_bytes))
            }),
            ("read_f32_at/0", 0, |q, b, _| {
                let mut o = [0.0; 8];
                (q.enqueue_read_f32_at(b, 0, &mut o), bytes_of(&o, f32::to_le_bytes))
            }),
            ("read_f32_at", 16, |q, b, _| {
                let mut o = [0.0; 8];
                (q.enqueue_read_f32_at(b, 4, &mut o), bytes_of(&o, f32::to_le_bytes))
            }),
        ];
        let payload: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5a);
        let plan = FaultPlan::new(0.4, 2024).with_sites(FaultSites {
            transfer: true,
            enqueue: true,
            stall: false,
            trap: false,
        });

        // Per entry point: the per-command (fault site, flipped payload
        // bits) stream, plus everything the queue reports.
        let run = |off: usize, op: TransferFn, write: bool| {
            let (ctx, q, _p) = setup("__kernel void k(__global double* io) {}");
            let reg = Arc::new(MetricsRegistry::new());
            q.attach_metrics(reg.clone());
            q.enable_trace();
            q.set_fault_plan(plan);
            // A second, fault-free queue resets the device bytes before
            // every command without drawing from the plan.
            let reset = CommandQueue::new(&ctx);
            let buf = ctx.create_buffer(48);
            let mut stream = Vec::new();
            for _ in 0..40 {
                reset.enqueue_write_buffer(&buf, &[0; 48]).expect("reset");
                reset.enqueue_write_f64_at(&buf, off / 8, &f64s(&payload)).expect("seed");
                let (res, host) = op(&q, &buf, &payload);
                let device = ctx.snapshot(&buf);
                let site = match res {
                    Ok(_) => None,
                    Err(RuntimeError::Fault(f)) => Some(f.site.label()),
                    Err(e) => panic!("unexpected error {e}"),
                };
                if !write {
                    assert_eq!(device[off..off + 32], payload, "reads never corrupt the device");
                }
                // A rejected command moves nothing: a read leaves the host
                // buffer as it was (zeroed).
                let seen: [u8; 32] = match (write, site) {
                    (true, _) => device[off..off + 32].try_into().unwrap(),
                    (false, Some("enqueue")) => {
                        assert_eq!(host, [0; 32], "rejected reads copy nothing");
                        payload
                    }
                    (false, _) => host,
                };
                let flips: Vec<(usize, u32)> = (0..32)
                    .filter(|&i| seen[i] != payload[i])
                    .map(|i| (i, (seen[i] ^ payload[i]).trailing_zeros()))
                    .collect();
                stream.push((site, flips));
            }
            (stream, q.counters(), q.trace(), reg.to_json().to_string(), q.elapsed_s())
        };

        let mut streams = Vec::new();
        for (ops, write) in [(&writes[..], true), (&reads[..], false)] {
            let (name0, off0, op0) = ops[0];
            let reference = run(off0, op0, write);
            for &(name, off, op) in &ops[1..] {
                let got = run(off, op, write);
                assert_eq!(got.0, reference.0, "{name} vs {name0}: fault draws and bit flips");
                assert_eq!(got.1, reference.1, "{name} vs {name0}: counters");
                assert_eq!(got.2, reference.2, "{name} vs {name0}: trace entries");
                assert_eq!(got.3, reference.3, "{name} vs {name0}: metrics");
                assert_eq!(got.4, reference.4, "{name} vs {name0}: simulated clock");
            }
            streams.push(reference.0);
        }

        // Both directions draw the same decisions from the same plan and
        // flip the same payload bit; only the site label differs.
        type Stream = [(Option<&'static str>, Vec<(usize, u32)>)];
        let strip = |s: &Stream| {
            s.iter()
                .map(|(site, flips)| (site.map(|l| l.starts_with("transfer")), flips.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&streams[0]), strip(&streams[1]));
        let corrupt = streams[0].iter().filter(|(s, _)| *s == Some("transfer_h2d")).count();
        let rejected = streams[0].iter().filter(|(s, _)| *s == Some("enqueue")).count();
        let clean = streams[0].iter().filter(|(s, _)| s.is_none()).count();
        assert!(corrupt > 0 && rejected > 0 && clean > 0, "the plan exercises every outcome");
        for (site, flips) in &streams[0] {
            let expected = if *site == Some("transfer_h2d") { 1 } else { 0 };
            assert_eq!(flips.len(), expected, "exactly one payload bit per corruption");
        }
    }

    #[test]
    fn foreign_buffer_handles_are_rejected() {
        let src = "__kernel void k(__global double* io) { io[0] = 1.0; }";
        let (other, _other_q, _other_p) = setup(src);
        let (ctx, q, p) = setup(src);
        let own = ctx.create_buffer(16);
        q.enqueue_write_f64(&own, &[7.0, 7.0]).expect("own write");
        // Buffer 0 of the other context aliases `own`; buffer 1 indexes
        // past this context's only buffer.
        let alias = other.create_buffer(16);
        let out_of_range = other.create_buffer(16);
        let before = q.counters();
        for foreign in [&alias, &out_of_range] {
            let invalid = |r: Result<Event, RuntimeError>, what: &str| {
                assert!(matches!(r, Err(RuntimeError::Invalid(_))), "{what}: {r:?}");
            };
            invalid(q.enqueue_write_f64(foreign, &[1.0]), "write");
            invalid(q.enqueue_write_buffer(foreign, &[1]), "byte write");
            invalid(q.enqueue_read_f64(foreign, &mut [0.0]), "read");
            invalid(q.enqueue_copy_buffer(foreign, &own, 8), "copy from");
            invalid(q.enqueue_copy_buffer(&own, foreign, 8), "copy into");
            invalid(q.enqueue_fill_f64(foreign, 1.0, 1), "fill");
            let k = p.kernel("k").expect("kernel");
            k.set_arg_buffer(0, foreign);
            invalid(q.enqueue_nd_range(&k, Dispatch::new(1, 1)), "kernel argument");
            invalid(q.enqueue_launch_graph(&[(&k, Dispatch::new(1, 1))]), "graph argument");
        }
        assert_eq!(q.counters(), before, "no rejected command ran");
        let mut out = [0.0; 2];
        q.enqueue_read_f64(&own, &mut out).expect("own read");
        assert_eq!(out, [7.0, 7.0], "the aliased buffer is untouched");
    }

    #[test]
    fn foreign_pipe_handles_are_rejected() {
        let src = "__kernel void produce(pipe double ch) { write_pipe(ch, 1.0); }
                   __kernel void consume(pipe double ch, __global double* out) {
                       out[0] = read_pipe(ch);
                   }";
        let (other, _other_q, _other_p) = setup(src);
        let (ctx, q, p) = setup(src);
        let own = ctx.create_pipe(bop_clir::types::ScalarType::F64, 1);
        let foreign = other.create_pipe(bop_clir::types::ScalarType::F64, 1);
        let out = ctx.create_buffer(8);
        let produce = p.kernel("produce").expect("kernel");
        let consume = p.kernel("consume").expect("kernel");
        produce.set_arg_pipe(0, &foreign);
        consume.set_arg_pipe(0, &own);
        consume.set_arg_buffer(1, &out);
        let graph = [(&produce, Dispatch::new(1, 1)), (&consume, Dispatch::new(1, 1))];
        assert!(matches!(q.enqueue_launch_graph(&graph), Err(RuntimeError::Invalid(_))));
        produce.set_arg_pipe(0, &own);
        q.enqueue_launch_graph(&graph).expect("own pipe runs");
    }
}

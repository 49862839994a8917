//! Deterministic fault injection for the simulated runtime.
//!
//! A [`FaultPlan`] describes *where* and *how often* the simulator
//! injects faults into a command queue: a per-command probability, a
//! PRNG seed, and a site filter. The queue draws a fixed number of
//! pseudo-random decisions per enqueued command from a SplitMix64
//! stream seeded by the plan, so the same plan against the same command
//! sequence injects the same faults — determinism is the contract that
//! makes chaos campaigns reproducible and lets a retry layer be tested
//! bit-for-bit.
//!
//! Injection sites (see [`FaultSite`]):
//!
//! * **Transfers** — a bit of the payload is flipped and the simulated
//!   link's integrity check reports the corruption, failing the command
//!   with a typed fault instead of letting a wrong price escape.
//! * **Enqueue** — the command is rejected before it runs (the
//!   simulated equivalent of a transient `CL_OUT_OF_RESOURCES`).
//! * **Launch stalls** — an NDRange launch completes correctly but
//!   spends extra *simulated* time on the device (a hung pipeline
//!   draining, in device cycles); visible in traces and timing only.
//! * **Spurious traps** — a kernel launch dies with an injected
//!   [`ExecError`] trap, on either execution engine.
//!
//! All faults except stalls are *detected*: the command fails with
//! [`RuntimeError::Fault`](crate::queue::RuntimeError) and never
//! silently corrupts results. A plan with `rate == 0` (or
//! [`FaultPlan::none`]) is inert: the queue takes the exact pre-fault
//! code paths and produces bit-identical prices, counters and traces.

use crate::queue::RuntimeError;
use bop_clir::interp::ExecError;
use std::fmt;

/// Where a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// Host-to-device transfer corruption (detected bit flip).
    TransferH2D,
    /// Device-to-host transfer corruption (detected bit flip).
    TransferD2H,
    /// Command rejected at enqueue.
    Enqueue,
    /// Kernel launch stalled for extra simulated time (non-fatal).
    LaunchStall,
    /// Kernel launch killed by a spurious trap.
    Trap,
}

impl FaultSite {
    /// Stable label used in `fault.*` metrics and trace args.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::TransferH2D => "transfer_h2d",
            FaultSite::TransferD2H => "transfer_d2h",
            FaultSite::Enqueue => "enqueue",
            FaultSite::LaunchStall => "stall",
            FaultSite::Trap => "trap",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which classes of fault a plan may inject. The default enables every
/// site; [`FaultPlan::with_sites`] narrows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSites {
    /// Transfer corruption (both directions).
    pub transfer: bool,
    /// Enqueue rejections.
    pub enqueue: bool,
    /// Launch stalls.
    pub stall: bool,
    /// Spurious kernel traps.
    pub trap: bool,
}

impl Default for FaultSites {
    fn default() -> FaultSites {
        FaultSites::all()
    }
}

impl FaultSites {
    /// Every site enabled.
    pub fn all() -> FaultSites {
        FaultSites { transfer: true, enqueue: true, stall: true, trap: true }
    }

    /// No site enabled (an inert plan).
    pub fn none() -> FaultSites {
        FaultSites { transfer: false, enqueue: false, stall: false, trap: false }
    }

    /// True if at least one site is enabled.
    pub fn any(&self) -> bool {
        self.transfer || self.enqueue || self.stall || self.trap
    }
}

/// A deterministic fault-injection plan: per-command fault probability,
/// PRNG seed, site filter, and the mean simulated stall.
///
/// Configure it per accelerator
/// (`Accelerator::builder(..).fault_plan(..)` in `bop-core`) or per queue
/// ([`CommandQueue::set_fault_plan`](crate::queue::CommandQueue)), which
/// validates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any eligible site fires on a given
    /// command.
    pub rate: f64,
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Which fault classes may fire.
    pub sites: FaultSites,
    /// Mean extra simulated time of a launch stall, seconds. The actual
    /// stall is drawn uniformly from `[0.5, 1.5) * mean_stall_s`.
    pub mean_stall_s: f64,
}

/// Default mean stall: 100 µs of simulated time, roughly 10^4 device
/// cycles at the FPGA's fabric clock.
pub const DEFAULT_MEAN_STALL_S: f64 = 1e-4;

impl FaultPlan {
    /// An inert plan: rate zero, nothing ever fires.
    pub fn none() -> FaultPlan {
        FaultPlan {
            rate: 0.0,
            seed: 0,
            sites: FaultSites::all(),
            mean_stall_s: DEFAULT_MEAN_STALL_S,
        }
    }

    /// A plan firing every site with probability `rate` per command,
    /// seeded by `seed`.
    ///
    /// # Panics
    /// Panics if `rate` is not a probability (build the struct directly
    /// and [`FaultPlan::validate`] it for untrusted input).
    pub fn new(rate: f64, seed: u64) -> FaultPlan {
        assert!(rate.is_finite() && (0.0..=1.0).contains(&rate), "fault rate {rate} not in [0, 1]");
        FaultPlan { rate, seed, sites: FaultSites::all(), mean_stall_s: DEFAULT_MEAN_STALL_S }
    }

    /// The same plan with a narrowed site filter.
    pub fn with_sites(mut self, sites: FaultSites) -> FaultPlan {
        self.sites = sites;
        self
    }

    /// True when the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.sites.any()
    }

    /// Derive the per-session plan for session number `session`: the
    /// decision stream is re-seeded by mixing the plan seed with the
    /// session index, so a retry (a fresh session) sees fresh — but
    /// still fully deterministic — draws instead of replaying the exact
    /// faults that killed the previous attempt.
    pub fn for_session(mut self, session: u64) -> FaultPlan {
        self.seed = mix64(self.seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self
    }

    /// Validate the numeric fields.
    ///
    /// # Errors
    /// [`RuntimeError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if !self.rate.is_finite() || !(0.0..=1.0).contains(&self.rate) {
            return Err(RuntimeError::Invalid(format!(
                "fault plan rate must be a probability in [0, 1], got {}",
                self.rate
            )));
        }
        if !self.mean_stall_s.is_finite() || self.mean_stall_s < 0.0 {
            return Err(RuntimeError::Invalid(format!(
                "fault plan mean_stall_s must be a non-negative finite duration, got {}",
                self.mean_stall_s
            )));
        }
        Ok(())
    }
}

/// A fault the simulator injected, as carried by
/// [`RuntimeError::Fault`](crate::queue::RuntimeError). For trap-site
/// faults the underlying injected [`ExecError`] is preserved and exposed
/// through [`std::error::Error::source`].
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// Where the fault was injected.
    pub site: FaultSite,
    /// Human-readable description of what was injected.
    pub detail: String,
    /// The engine-level trap for [`FaultSite::Trap`] faults.
    pub cause: Option<ExecError>,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {} fault: {}", self.site, self.detail)
    }
}

impl std::error::Error for InjectedFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.cause.as_ref().map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// One fault decision for one command, drawn from a [`FaultState`].
#[derive(Debug, Clone)]
pub(crate) enum FaultDecision {
    /// Nothing fires; proceed normally.
    None,
    /// The launch completes but spends `extra_s` more simulated time.
    Stall {
        /// Extra simulated seconds.
        extra_s: f64,
    },
    /// The command fails before retiring.
    Fail(InjectedFault),
    /// A transfer is corrupted: flip `bit` of payload byte `byte`, then
    /// fail with `fault` (the link detects the corruption).
    Corrupt {
        /// Payload byte index to corrupt (callers take it modulo the
        /// payload length).
        byte: u64,
        /// Bit index within the byte.
        bit: u8,
        /// The typed fault to report.
        fault: InjectedFault,
    },
}

/// Live decision stream of one queue: the plan plus the SplitMix64
/// position. Command order is the only input, so identical command
/// sequences under identical plans draw identical faults.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState { plan, rng: plan.seed }
    }

    pub(crate) fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) — the same mixer
    /// `bop-finance` uses for workload synthesis, reimplemented here so
    /// the runtime crate stays dependency-light.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.rng)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn fires(&mut self, enabled: bool) -> bool {
        // Always consume the draw so the stream position depends only on
        // the number and kind of commands, not on the site filter.
        let u = self.next_f64();
        enabled && u < self.plan.rate
    }

    /// Decide the fate of a transfer of `bytes` payload bytes moving in
    /// direction `site` ([`FaultSite::TransferH2D`] or
    /// [`FaultSite::TransferD2H`]).
    pub(crate) fn decide_transfer(&mut self, site: FaultSite, bytes: u64) -> FaultDecision {
        if self.fires(self.plan.sites.enqueue) {
            return FaultDecision::Fail(enqueue_fault());
        }
        if self.fires(self.plan.sites.transfer && bytes > 0) {
            let byte = self.next_u64();
            let bit = (self.next_u64() % 8) as u8;
            let fault = InjectedFault {
                site,
                detail: format!(
                    "bit flip in a {bytes}-byte transfer detected by the link integrity check"
                ),
                cause: None,
            };
            return FaultDecision::Corrupt { byte, bit, fault };
        }
        FaultDecision::None
    }

    /// Decide the fate of a device-side command (copy/fill): only
    /// enqueue rejections apply.
    pub(crate) fn decide_device(&mut self) -> FaultDecision {
        if self.fires(self.plan.sites.enqueue) {
            return FaultDecision::Fail(enqueue_fault());
        }
        FaultDecision::None
    }

    /// Decide the fate of an NDRange launch: enqueue rejection, spurious
    /// trap, or a stall of `[0.5, 1.5) * mean_stall_s` simulated seconds.
    pub(crate) fn decide_launch(&mut self) -> FaultDecision {
        if self.fires(self.plan.sites.enqueue) {
            return FaultDecision::Fail(enqueue_fault());
        }
        if self.fires(self.plan.sites.trap) {
            let cause = ExecError::injected_trap("spurious kernel trap");
            return FaultDecision::Fail(InjectedFault {
                site: FaultSite::Trap,
                detail: format!("kernel killed by {cause}"),
                cause: Some(cause),
            });
        }
        if self.fires(self.plan.sites.stall) {
            let extra_s = self.plan.mean_stall_s * (0.5 + self.next_f64());
            return FaultDecision::Stall { extra_s };
        }
        FaultDecision::None
    }
}

fn enqueue_fault() -> InjectedFault {
    InjectedFault {
        site: FaultSite::Enqueue,
        detail: "command rejected at enqueue (transient device resource exhaustion)".to_string(),
        cause: None,
    }
}

/// The SplitMix64 output mixer (also used to derive per-session seeds).
fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let drain = |seed: u64| {
            let mut st = FaultState::new(FaultPlan::new(0.3, seed));
            let mut log = String::new();
            for i in 0..64 {
                let d = match i % 3 {
                    0 => st.decide_transfer(FaultSite::TransferH2D, 64),
                    1 => st.decide_launch(),
                    _ => st.decide_device(),
                };
                log.push(match d {
                    FaultDecision::None => '.',
                    FaultDecision::Stall { .. } => 's',
                    FaultDecision::Fail(_) => 'f',
                    FaultDecision::Corrupt { .. } => 'c',
                });
            }
            log
        };
        assert_eq!(drain(7), drain(7), "same seed, same decisions");
        assert_ne!(drain(7), drain(8), "seeds decorrelate the stream");
        assert!(drain(7).contains('f') || drain(7).contains('c'), "rate 0.3 fires somewhere");
    }

    #[test]
    fn inert_plans_never_fire() {
        let mut st = FaultState::new(FaultPlan::none());
        for _ in 0..128 {
            assert!(matches!(st.decide_launch(), FaultDecision::None));
            assert!(matches!(
                st.decide_transfer(FaultSite::TransferD2H, 1024),
                FaultDecision::None
            ));
        }
    }

    #[test]
    fn site_filter_gates_fault_classes_without_shifting_the_stream() {
        // With every fatal site masked out, a rate-1 plan still advances
        // the stream but only stalls can fire.
        let sites = FaultSites { transfer: false, enqueue: false, stall: true, trap: false };
        let mut st = FaultState::new(FaultPlan::new(1.0, 3).with_sites(sites));
        assert!(matches!(st.decide_transfer(FaultSite::TransferH2D, 8), FaultDecision::None));
        match st.decide_launch() {
            FaultDecision::Stall { extra_s } => assert!(extra_s > 0.0),
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn session_reseeding_changes_draws_but_stays_deterministic() {
        let plan = FaultPlan::new(0.5, 11);
        assert_eq!(plan.for_session(0), plan.for_session(0));
        assert_ne!(plan.for_session(0).seed, plan.for_session(1).seed);
        assert_ne!(plan.for_session(0).seed, plan.seed);
    }

    #[test]
    fn trap_faults_chain_to_the_engine_error() {
        let mut st = FaultState::new(FaultPlan::new(1.0, 0).with_sites(FaultSites {
            transfer: false,
            enqueue: false,
            stall: false,
            trap: true,
        }));
        match st.decide_launch() {
            FaultDecision::Fail(f) => {
                assert_eq!(f.site, FaultSite::Trap);
                let src = std::error::Error::source(&f).expect("chained trap");
                let exec = src.downcast_ref::<ExecError>().expect("ExecError");
                assert!(exec.is_injected(), "trap is marked injected: {exec}");
            }
            other => panic!("expected a trap, got {other:?}"),
        }
    }
}

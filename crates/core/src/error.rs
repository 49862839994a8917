//! The single error type of the pricing stack.
//!
//! Every fallible operation in `bop-core` — and in the serving layer
//! built on top of it (`bop-serve`) — reports through [`Error`]. The
//! build- and run-time variants carry their underlying cause and expose
//! it through [`std::error::Error::source`], so callers can walk the
//! chain (`Error` → [`BuildError`] / [`RuntimeError`] → interpreter
//! faults) instead of parsing display strings. The admission-control
//! variants ([`Error::Rejected`], [`Error::DeadlineExceeded`]) are
//! structured, not stringly typed: a load shedder can read queue depth
//! and capacity straight off the rejection.

use bop_ocl::queue::RuntimeError;
use bop_ocl::{BuildError, FaultParseError, InjectedFault};
use std::fmt;

/// Error from building or running an accelerator, or from the serving
/// layer's admission control.
#[derive(Debug, Clone)]
pub enum Error {
    /// The kernel failed to compile or fit on the device.
    Build(BuildError),
    /// A command failed at run time.
    Runtime(RuntimeError),
    /// Invalid request (empty batch, bad option parameters, mismatched
    /// shard pool).
    Invalid(String),
    /// The service declined the request because its bounded submission
    /// queue was full (or it was shutting down).
    Rejected(Rejection),
    /// The request's deadline passed before a shard picked it up.
    DeadlineExceeded {
        /// How far past the deadline the request was when dropped,
        /// seconds.
        missed_by_s: f64,
    },
    /// A command was killed by the simulator's fault-injection layer
    /// (see [`bop_ocl::FaultPlan`]). Transient by construction — the
    /// serving layer treats exactly this variant as retryable.
    #[non_exhaustive]
    Fault {
        /// The injected fault; its `source()` chains to the engine-level
        /// trap for spurious-trap sites.
        fault: InjectedFault,
    },
    /// A configuration knob (builder argument or environment variable
    /// such as `BOP_SIM_FAULTS`) was malformed.
    #[non_exhaustive]
    Config {
        /// The knob that failed to parse (e.g. `"BOP_SIM_FAULTS"`).
        var: String,
        /// Why it was rejected.
        cause: FaultParseError,
    },
}

/// Details of a [`Error::Rejected`] admission failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Requests queued at the time of rejection.
    pub depth: usize,
    /// The queue's configured capacity, in requests.
    pub capacity: usize,
    /// `true` when the rejection was due to shutdown, not queue depth.
    pub shutting_down: bool,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shutting_down {
            write!(f, "service is shutting down")
        } else {
            write!(f, "queue full: {} of {} request slots in use", self.depth, self.capacity)
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Build(e) => write!(f, "{e}"),
            Error::Runtime(e) => write!(f, "{e}"),
            Error::Invalid(msg) => write!(f, "invalid request: {msg}"),
            Error::Rejected(r) => write!(f, "request rejected: {r}"),
            Error::DeadlineExceeded { missed_by_s } => {
                write!(f, "deadline exceeded by {missed_by_s:.6} s")
            }
            Error::Fault { fault } => write!(f, "{fault}"),
            Error::Config { var, cause } => write!(f, "invalid {var}: {cause}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Build(e) => Some(e),
            Error::Runtime(e) => Some(e),
            Error::Fault { fault } => Some(fault),
            Error::Config { cause, .. } => Some(cause),
            Error::Invalid(_) | Error::Rejected(_) | Error::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Error {
        Error::Build(e)
    }
}

impl From<RuntimeError> for Error {
    fn from(e: RuntimeError) -> Error {
        match e {
            // Injected faults get their own top-level variant so retry
            // policies can match them without digging through the chain.
            RuntimeError::Fault(fault) => Error::Fault { fault },
            other => Error::Runtime(other),
        }
    }
}

impl Error {
    /// True for errors that are transient by construction (today:
    /// injected faults) and therefore worth retrying. Genuine runtime
    /// errors — real traps, invalid commands — are deterministic and are
    /// not retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Fault { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as StdError;

    #[test]
    fn build_and_runtime_errors_chain_through_source() {
        let e = Error::from(BuildError::new("LUTs exhausted"));
        let src = e.source().expect("build cause");
        assert!(src.downcast_ref::<BuildError>().expect("BuildError").message.contains("LUTs"));

        let e = Error::from(RuntimeError::Invalid("unset kernel arg".into()));
        let src = e.source().expect("runtime cause");
        assert!(src.downcast_ref::<RuntimeError>().is_some());

        for e in [
            Error::Invalid("x".into()),
            Error::Rejected(Rejection { depth: 4, capacity: 4, shutting_down: false }),
            Error::DeadlineExceeded { missed_by_s: 0.25 },
        ] {
            assert!(e.source().is_none(), "{e} has no cause");
        }
    }

    #[test]
    fn fault_and_config_variants_chain_and_classify() {
        // An injected runtime fault maps to the dedicated retryable
        // variant, keeping the cause chain.
        let fault = InjectedFault {
            site: bop_ocl::FaultSite::TransferD2H,
            detail: "bit flip detected".into(),
            cause: None,
        };
        let e = Error::from(RuntimeError::Fault(fault));
        assert!(e.is_retryable());
        assert!(matches!(e, Error::Fault { .. }));
        let src = e.source().expect("fault cause");
        assert!(src.downcast_ref::<InjectedFault>().is_some());

        // Config errors carry the knob name and the parse cause.
        let cause = bop_ocl::FaultPlan::parse("rate=lots").expect_err("malformed");
        let e = Error::Config { var: "BOP_SIM_FAULTS".into(), cause };
        assert!(!e.is_retryable());
        assert!(e.to_string().contains("BOP_SIM_FAULTS"), "{e}");
        let src = e.source().expect("config cause");
        assert!(src.downcast_ref::<FaultParseError>().is_some());

        // Non-fault runtime errors stay on the Runtime variant.
        let e = Error::from(RuntimeError::Invalid("bad".into()));
        assert!(!e.is_retryable());
        assert!(matches!(e, Error::Runtime(_)));
    }

    #[test]
    fn rejection_display_names_the_pressure() {
        let full = Rejection { depth: 8, capacity: 8, shutting_down: false };
        assert!(full.to_string().contains("8 of 8"));
        let closing = Rejection { depth: 0, capacity: 8, shutting_down: true };
        assert!(closing.to_string().contains("shutting down"));
    }
}

//! Bounded waits for the serving tests. Every ticket wait and every
//! service shutdown runs on a helper thread with a time bound, so a lost
//! wake-up in the service fails the test instead of hanging `cargo test`.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use bop_core::Error;
use bop_serve::{PricingRequest, PricingResponse, PricingService, Ticket};
use std::io::{self, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How long one bounded wait may take before the test fails.
const BOUND: Duration = Duration::from_secs(120);

/// A ticket's outcome.
pub type Outcome = Result<Vec<PricingResponse>, Error>;

/// Run `f` on a helper thread and re-raise its panic if it panics. If
/// it does not return within [`BOUND`], end the test process with a
/// failure: a panic would unwind into the test's `PricingService` drop,
/// which joins the same stuck workers and would hang in turn.
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || tx.send(f()).expect("receiver alive"));
    match rx.recv_timeout(BOUND) {
        Ok(out) => {
            helper.join().expect("the helper thread joins");
            out
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("the helper panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            // Straight to stderr: the test harness's capture of
            // `eprintln!` output is never printed after `exit`.
            let _ = writeln!(io::stderr(), "{what} did not return within {BOUND:?}");
            std::process::exit(101)
        }
    }
}

/// Wait for every ticket. Outcomes in ticket order.
pub fn wait_all_bounded(tickets: Vec<Ticket>) -> Vec<Outcome> {
    bounded("a ticket wait", move || tickets.into_iter().map(Ticket::wait).collect())
}

/// Wait for one ticket.
pub fn wait_bounded(ticket: Ticket) -> Outcome {
    bounded("a ticket wait", move || ticket.wait())
}

/// Submit `requests` and wait for the answer: a bounded
/// [`PricingService::price`].
pub fn price_bounded(service: &PricingService, requests: Vec<PricingRequest>) -> Outcome {
    wait_bounded(service.submit(requests, None)?)
}

/// Shut the service down: drain its queue and join its workers.
pub fn shutdown_bounded(service: PricingService) {
    bounded("PricingService::shutdown", move || service.shutdown());
}

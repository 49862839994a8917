//! Bounded waits for the serving tests. Every ticket wait goes through
//! `Ticket::wait_timeout` and every service shutdown runs on a helper
//! thread, each with a time bound, so a lost wake-up in the service fails
//! the test instead of hanging `cargo test`.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use bop_core::Error;
use bop_serve::{PricingRequest, PricingResponse, PricingService, Ticket};
use std::io::{self, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How long one bounded wait may take before the test fails.
const BOUND: Duration = Duration::from_secs(120);

/// A ticket's outcome.
pub type Outcome = Result<Vec<PricingResponse>, Error>;

/// End the test process with a failure because `what` did not return
/// within [`BOUND`]. A panic would unwind into the test's
/// `PricingService` drop, which joins the same stuck workers and would
/// hang in turn.
fn timed_out(what: &str) -> ! {
    // Straight to stderr: the test harness's capture of `eprintln!`
    // output is never printed after `exit`.
    let _ = writeln!(io::stderr(), "{what} did not return within {BOUND:?}");
    std::process::exit(101)
}

/// Wait for every ticket, all within one [`BOUND`]. Outcomes in ticket
/// order.
pub fn wait_all_bounded(tickets: Vec<Ticket>) -> Vec<Outcome> {
    let until = Instant::now() + BOUND;
    tickets
        .into_iter()
        .map(|ticket| {
            let left = until.saturating_duration_since(Instant::now());
            ticket.wait_timeout(left).unwrap_or_else(|_| timed_out("a ticket wait"))
        })
        .collect()
}

/// Wait for one ticket.
pub fn wait_bounded(ticket: Ticket) -> Outcome {
    ticket.wait_timeout(BOUND).unwrap_or_else(|_| timed_out("a ticket wait"))
}

/// Submit `requests` and wait for the answer: a bounded
/// [`PricingService::price`].
pub fn price_bounded(service: &PricingService, requests: Vec<PricingRequest>) -> Outcome {
    wait_bounded(service.submit(requests, None)?)
}

/// Shut the service down: drain its queue and join its workers. The
/// shutdown runs on a helper thread, whose panic is re-raised here.
pub fn shutdown_bounded(service: PricingService) {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        service.shutdown();
        tx.send(()).expect("receiver alive")
    });
    match rx.recv_timeout(BOUND) {
        Ok(()) => helper.join().expect("the helper thread joins"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("the helper panicked"))
        }
        Err(RecvTimeoutError::Timeout) => timed_out("PricingService::shutdown"),
    }
}

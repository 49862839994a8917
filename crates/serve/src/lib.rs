//! # bop-serve — a batching pricing service over a sharded accelerator pool
//!
//! The paper prices *batches*: its kernels amortize transfer and launch
//! cost over thousands of options, and the energy story (options/J) only
//! holds at batch scale. A real trading system, however, sees a stream of
//! small requests. This crate bridges the two: it accepts typed
//! [`PricingRequest`]s — any payoff ([`bop_finance::payoff::Payoff`]:
//! European, American, knock-out barrier, Bermudan) with any
//! [`OutputSet`] (price, price + Greeks) — coalesces them into
//! per-payoff-class micro-batches, and prices the batches on a pool of
//! [`bop_core::PayoffSuite`] shards. There is no scheduler: each shard's
//! worker pulls its next batch from the one shared queue, so whichever
//! shard frees first prices the next batch.
//!
//! ```text
//!  submit() ──► bounded queue ◄───────── pull ──────────┐
//!    │           (capacity,                             │
//!    │            typed reject)                  shard workers, one
//!    │                                           thread each: close a
//!    │                                           batch (max_batch, pool
//!    │                                           idle, max_linger,
//!    │                                           shutdown) and price it
//!    ▼                                                  │
//!  Ticket ◄──────────── price aggregation ◄─────────────┘
//! ```
//!
//! Design points, each load-bearing for a test in `tests/serve.rs`:
//!
//! * **Backpressure is typed, never blocking.** A full queue returns
//!   [`Error::Rejected`] with the observed depth and capacity; callers
//!   decide whether to retry, shed, or route elsewhere.
//! * **Requests linger only behind in-flight work.** An idle worker
//!   closes a batch when a full batch is ready, when no healthy shard is
//!   running a batch (the pool is idle, so waiting could not fill a
//!   batch), when the oldest request has waited `max_linger`, or when
//!   the service is shutting down. A worker that finishes a batch wakes
//!   its peers, so a lingering request leaves as soon as the pool
//!   drains. Until a worker takes it, a request counts against
//!   `queue_capacity`, which makes rejection deterministic behind a busy
//!   pool. Each closure is counted in `serve.batches.closed{reason}`.
//! * **Batching never changes results.** Per-option prices are
//!   independent of batch composition (each work-group prices one
//!   option) and Greeks are assembled from deterministic device bumps
//!   plus a host-side lattice, so any batching policy is bit-identical
//!   to a direct [`bop_core::PayoffSuite::price_risk`] call on the same
//!   device. Mixed-payoff submissions split at class boundaries and
//!   reassemble in submission order.
//! * **Deadlines are enforced at dispatch.** An expired request fails
//!   with [`Error::DeadlineExceeded`] instead of wasting shard time.
//! * **Shutdown drains.** [`PricingService::shutdown`] flushes every
//!   queued request through the shards before the workers exit.
//! * **Faults degrade, never corrupt.** Injected faults (see
//!   [`bop_core::FaultPlan`]) surface as retryable
//!   [`bop_core::Error::Fault`]s: workers retry a faulted micro-batch
//!   locally (`max_retries`, backoff on the simulated clock), put it back
//!   at the front of the shared queue for a shard that has not failed it
//!   when local retries run out, and quarantine a shard after
//!   `quarantine_after` consecutive exhausted batches; a quarantined
//!   shard stops pulling while a healthy peer exists.
//!   Degraded-mode traffic is visible in the `serve.retries`,
//!   `serve.redispatched`, `serve.quarantined`, and `serve.failed`
//!   metrics, and every price that does come back is bit-identical to a
//!   fault-free run (`tests/chaos.rs`).
//! * **Every request is observable.** `submit` assigns a [`RequestId`];
//!   with [`PricingService::enable_tracing`] the service records queue
//!   wait, batch linger, and per-attempt execution spans — each pricing
//!   session's simulated queue commands merged in underneath — into one
//!   Chrome/Perfetto trace ([`PricingService::export_trace`]). Queue
//!   wait and the execution attempts tile each request's lifetime: the
//!   worker that closes a batch prices it at once. Latency breakdown
//!   histograms (`serve.queue_wait_s`, `serve.linger_s`, `serve.exec_s`,
//!   `serve.latency_s`) feed p50/p95/p99 reporting, and
//!   cumulative `energy.joules` / `energy.busy_s` gauges (per device
//!   and per shard, from simulated busy time × modeled watts) feed
//!   options/J accounting.
//!
//! ## Quickstart
//!
//! ```
//! use bop_core::{AcceleratorConfig, PayoffSuite};
//! use bop_finance::payoff::Payoff;
//! use bop_finance::OptionParams;
//! use bop_serve::{OutputSet, PricingRequest, PricingService, ServeConfig};
//!
//! # fn main() -> Result<(), bop_core::Error> {
//! // `pool` compiles each payoff kernel once; the shards share them.
//! let mut config = AcceleratorConfig::new(bop_core::devices::gpu());
//! config.n_steps = 64;
//! let shards = PayoffSuite::pool(config, 2)?;
//! let service = PricingService::start(shards, ServeConfig::default())?;
//! let ticket = service.submit(
//!     vec![PricingRequest {
//!         payoff: Payoff::American,
//!         params: OptionParams::example(),
//!         outputs: OutputSet::PRICE | OutputSet::GREEKS,
//!     }],
//!     None,
//! )?;
//! let responses = ticket.wait()?;
//! assert_eq!(responses.len(), 1);
//! let greeks = responses[0].greeks.expect("requested");
//! assert!(greeks.delta > 0.0, "calls have positive delta");
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod request;
pub mod service;
pub mod tracing;

pub use bop_core::{Error, PayoffSuite, Rejection};
pub use config::ServeConfig;
pub use request::{OutputSet, PricingRequest, PricingResponse};
pub use service::{PricingService, Ticket};
pub use tracing::{RequestId, RequestTracer};

//! Chaos suite: deterministic fault injection through the whole serving
//! stack.
//!
//! The campaigns here run with the seed from `BOP_CHAOS_SEED` (default
//! 7) so CI can repeat them under several fixed seeds; every assertion
//! must hold for *any* seed. The five properties proved, in order:
//!
//! 1. an inert fault plan is bit-identical to no plan at all;
//! 2. a seeded campaign is run-to-run identical, including every
//!    `fault.*` and `serve.*` counter;
//! 3. prices that survive a faulty pool — through retries, redispatch
//!    and quarantine — are bit-identical to a fault-free
//!    [`PayoffSuite::price_risk`];
//! 4. so are Greeks, across every payoff class;
//! 5. when recovery is exhausted the caller gets a typed
//!    [`Error::Fault`], never a wrong price and never a hang;
//! 6. a batch a shard gave up on reaches a peer that has not failed it,
//!    and quarantine takes a failing shard out of the pull loop while a
//!    healthy peer exists, without ever stalling the pool;
//! 7. under random fault plans of any rate, the direct path and a
//!    two-shard pool both return the exact price or a typed fault, and
//!    the pool always drains.

use bop_core::{AcceleratorConfig, Error, FaultPlan, PayoffSuite, RiskRequest, RiskResult};
use bop_finance::payoff::{BarrierKind, Payoff};
use bop_finance::rng::SplitMix64;
use bop_finance::{workload, OptionParams};
use bop_obs::{Labels, MetricsRegistry, Series};
use bop_serve::{PricingRequest, PricingService, ServeConfig};
use common::{price_bounded, shutdown_bounded, wait_all_bounded, wait_bounded, Outcome};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

mod common;

fn chaos_seed() -> u64 {
    match std::env::var("BOP_CHAOS_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("BOP_CHAOS_SEED must be a u64, got {s:?}")),
        Err(_) => 7,
    }
}

fn gpu_suite(n_steps: usize, metrics: &Arc<MetricsRegistry>) -> PayoffSuite {
    let mut config = AcceleratorConfig::new(bop_core::devices::gpu());
    config.n_steps = n_steps;
    config.metrics = Some(metrics.clone());
    PayoffSuite::from_config(config).expect("suite builds")
}

fn batch(n: usize, seed: u64) -> Vec<PricingRequest> {
    workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, n, seed)
        .into_iter()
        .map(PricingRequest::from_style)
        .collect()
}

/// The fault-free reference for a batch of typed requests. Priced one
/// request at a time so mixed-payoff batches are fine here; per-option
/// results are independent of batch composition.
fn direct_risk(suite: &PayoffSuite, requests: &[PricingRequest]) -> Vec<RiskResult> {
    requests
        .iter()
        .map(|r| {
            let risk = RiskRequest { params: r.params, payoff: r.payoff, greeks: r.wants_greeks() };
            suite.price_risk(&[risk]).expect("fault-free reference prices").0[0]
        })
        .collect()
}

/// Counters only — histograms (latency, backoff) hold wall-clock values
/// and are legitimately different between runs.
fn fault_and_serve_counters(metrics: &MetricsRegistry) -> Vec<(String, Labels, u64)> {
    metrics
        .snapshot()
        .into_iter()
        .filter_map(|s| match s {
            Series::Counter { name, labels, value }
                if name.starts_with("fault.") || name.starts_with("serve.") =>
            {
                Some((name, labels, value))
            }
            _ => None,
        })
        .collect()
}

/// One shard, sequential submit-and-wait, request size == `max_batch`:
/// every source of scheduling nondeterminism is pinned, so two runs with
/// the same seed must agree on *everything* observable.
fn run_campaign(seed: u64) -> (Vec<String>, Vec<(String, Labels, u64)>) {
    let metrics = Arc::new(MetricsRegistry::new());
    let shard = gpu_suite(24, &metrics).with_fault_plan(FaultPlan::new(0.15, seed));
    let service = PricingService::start_with_metrics(
        vec![shard],
        ServeConfig {
            max_batch: 6,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        metrics.clone(),
    )
    .expect("starts");
    let mut outcomes = Vec::new();
    for i in 0..12 {
        let outcome = match price_bounded(&service, batch(6, 1000 + i)) {
            Ok(responses) => {
                let bits: Vec<String> =
                    responses.iter().map(|r| r.price.to_bits().to_string()).collect();
                format!("ok:{}", bits.join(","))
            }
            Err(e) => format!("err:{e}"),
        };
        outcomes.push(outcome);
    }
    shutdown_bounded(service);
    (outcomes, fault_and_serve_counters(&metrics))
}

#[test]
fn inert_fault_plans_are_bit_identical_to_no_plan() {
    let n_steps = 32;
    let request = batch(9, 42);

    let plain_metrics = Arc::new(MetricsRegistry::new());
    let plain = PricingService::start_with_metrics(
        vec![gpu_suite(n_steps, &plain_metrics)],
        ServeConfig::default(),
        plain_metrics.clone(),
    )
    .expect("starts");
    let baseline = price_bounded(&plain, request.clone()).expect("prices");
    shutdown_bounded(plain);

    let inert_metrics = Arc::new(MetricsRegistry::new());
    let inert_shard = gpu_suite(n_steps, &inert_metrics).with_fault_plan(FaultPlan::none());
    assert!(inert_shard.fault_plan().is_none(), "an inert plan is dropped entirely");
    let inert = PricingService::start_with_metrics(
        vec![inert_shard],
        ServeConfig::default(),
        inert_metrics.clone(),
    )
    .expect("starts");
    let responses = price_bounded(&inert, request.clone()).expect("prices");
    shutdown_bounded(inert);

    assert_eq!(responses, baseline, "FaultPlan::none() must not perturb a single bit");
    assert_eq!(inert_metrics.counter_total("fault.injected"), 0);
    assert_eq!(inert_metrics.counter_total("serve.retries"), 0);
    assert_eq!(inert_metrics.counter_total("serve.failed"), 0);

    // Same story on the direct path, bypassing the service.
    let direct = gpu_suite(n_steps, &Arc::new(MetricsRegistry::new()));
    let reference: Vec<f64> = direct_risk(&direct, &request).iter().map(|r| r.price).collect();
    let with_plan = direct.with_fault_plan(FaultPlan::none());
    let replayed: Vec<f64> = direct_risk(&with_plan, &request).iter().map(|r| r.price).collect();
    assert_eq!(replayed, reference);
}

#[test]
fn same_seed_campaigns_are_run_to_run_identical() {
    let seed = chaos_seed();
    let (outcomes_a, counters_a) = run_campaign(seed);
    let (outcomes_b, counters_b) = run_campaign(seed);
    assert_eq!(
        outcomes_a, outcomes_b,
        "seed {seed}: request outcomes (prices and fault messages) must replay exactly"
    );
    assert_eq!(
        counters_a, counters_b,
        "seed {seed}: every fault.* and serve.* counter must replay exactly"
    );
    assert!(
        counters_a.iter().any(|(name, _, v)| name == "fault.injected" && *v > 0),
        "seed {seed}: a 15% plan over 12 sessions must inject something; \
         counters: {counters_a:?}"
    );
}

#[test]
fn survivors_of_a_faulty_pool_price_bit_identically() {
    let seed = chaos_seed();
    let n_steps = 24;
    let metrics = Arc::new(MetricsRegistry::new());
    // Two shards with distinct fault streams: micro-batches that exhaust
    // local retries on one shard are redispatched to the other.
    let shards: Vec<PayoffSuite> = (0..2)
        .map(|i| {
            gpu_suite(n_steps, &metrics).with_fault_plan(FaultPlan::new(0.2, seed.wrapping_add(i)))
        })
        .collect();
    let service = PricingService::start_with_metrics(
        shards,
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        metrics.clone(),
    )
    .expect("starts");
    let direct = gpu_suite(n_steps, &Arc::new(MetricsRegistry::new()));

    let requests: Vec<Vec<PricingRequest>> =
        (0..10).map(|i| batch(4 + (i as usize % 3) * 4, 500 + i)).collect();
    let tickets: Vec<_> =
        requests.iter().map(|r| service.submit(r.clone(), None).expect("accepted")).collect();
    let mut survivors = 0;
    for (ticket, request) in tickets.into_iter().zip(&requests) {
        match wait_bounded(ticket) {
            Ok(responses) => {
                survivors += 1;
                let served: Vec<f64> = responses.iter().map(|r| r.price).collect();
                let reference: Vec<f64> =
                    direct_risk(&direct, request).iter().map(|r| r.price).collect();
                assert_eq!(
                    served, reference,
                    "a price that survives faults must be bit-identical to fault-free"
                );
            }
            Err(e) => {
                assert!(
                    e.is_retryable(),
                    "only exhausted injected faults may fail a request, got {e}"
                );
            }
        }
    }
    shutdown_bounded(service);
    assert!(survivors > 0, "seed {seed}: a 20% plan with retries must let requests through");
    assert!(
        metrics.counter_total("fault.injected") > 0,
        "seed {seed}: a 20% plan over this campaign must inject something"
    );
}

#[test]
fn greeks_survive_faults_bit_identically_across_every_payoff() {
    let seed = chaos_seed();
    let n_steps = 24;
    let metrics = Arc::new(MetricsRegistry::new());
    let shards: Vec<PayoffSuite> = (0..2)
        .map(|i| {
            gpu_suite(n_steps, &metrics)
                .with_fault_plan(FaultPlan::new(0.15, seed.wrapping_add(10 + i)))
        })
        .collect();
    let service = PricingService::start_with_metrics(
        shards,
        ServeConfig { max_linger: Duration::from_millis(1), ..ServeConfig::default() },
        metrics.clone(),
    )
    .expect("starts");
    let direct = gpu_suite(n_steps, &Arc::new(MetricsRegistry::new()));

    let payoffs = [
        Payoff::European,
        Payoff::American,
        Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 150.0 },
        Payoff::Bermudan { exercise_every: 3 },
    ];
    // Enough rounds that with a 15% plan some requests hit the retry /
    // redispatch path (run-to-run deterministic for a fixed seed).
    let mut survivors = 0;
    for round in 0..6 {
        let mut params = OptionParams::example();
        params.spot += round as f64; // vary the spot so rounds are distinct
        let request: Vec<PricingRequest> =
            payoffs.iter().map(|&p| PricingRequest::with_greeks(params, p)).collect();
        match price_bounded(&service, request.clone()) {
            Ok(responses) => {
                survivors += 1;
                let reference = direct_risk(&direct, &request);
                for ((response, reference), payoff) in
                    responses.iter().zip(&reference).zip(&payoffs)
                {
                    assert_eq!(response.price, reference.price, "{payoff}");
                    assert_eq!(
                        response.greeks.expect("requested"),
                        reference.greeks.expect("computed"),
                        "{payoff}: Greeks that survive faults must be bit-identical \
                         to a fault-free run"
                    );
                }
            }
            Err(e) => assert!(e.is_retryable(), "only fault errors may surface, got {e}"),
        }
    }
    shutdown_bounded(service);
    assert!(survivors > 0, "seed {seed}: some greeks rounds must survive a 15% plan");
}

#[test]
fn exhausted_recovery_fails_typed_and_never_hangs() {
    use std::error::Error as StdError;
    let metrics = Arc::new(MetricsRegistry::new());
    // Every command faults: no retry, no redispatch, no quarantine
    // fallback can save a batch. The test finishing at all is the
    // no-hang proof (every chunk must reach its aggregator).
    let shards: Vec<PayoffSuite> = (0..2)
        .map(|i| gpu_suite(16, &metrics).with_fault_plan(FaultPlan::new(1.0, chaos_seed() + i)))
        .collect();
    let service = PricingService::start_with_metrics(
        shards,
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        metrics.clone(),
    )
    .expect("starts");
    let tickets: Vec<_> =
        (0..8).map(|i| service.submit(batch(4, 900 + i), None).expect("accepted")).collect();
    for ticket in tickets {
        let err = wait_bounded(ticket).expect_err("rate-1.0 faults must fail every request");
        assert!(matches!(err, Error::Fault { .. }), "typed fault, got {err}");
        assert!(err.source().is_some(), "the injected fault rides the source() chain");
    }
    shutdown_bounded(service);

    assert!(metrics.counter_total("serve.retries") > 0, "local retries were attempted");
    assert!(metrics.counter_total("serve.failed") > 0, "exhausted batches were recorded");
    // Both shards fail every batch, so both cross quarantine_after; the
    // pool keeps draining (degraded pick) instead of deadlocking.
    assert_eq!(metrics.counter_total("serve.quarantined"), 2, "both shards quarantined");
    assert_eq!(metrics.counter_total("serve.requests.completed"), 0);
}

/// Submit bursts of `burst` requests (built by `request` from a running
/// index) and wait for each, until `done` holds or `max_bursts` have run.
/// Which worker pulls first is up to the OS, so a property of "after a
/// shard was quarantined" is reached by driving traffic until it was.
/// Returns every request with its outcome.
fn drive_until(
    service: &PricingService,
    max_bursts: usize,
    burst: usize,
    request: impl Fn(u64) -> Vec<PricingRequest>,
    done: impl Fn() -> bool,
) -> Vec<(Vec<PricingRequest>, Outcome)> {
    let mut out = Vec::new();
    for round in 0..max_bursts {
        if done() {
            break;
        }
        let requests: Vec<_> = (0..burst).map(|i| request((round * burst + i) as u64)).collect();
        let tickets =
            requests.iter().map(|r| service.submit(r.clone(), None).expect("accepted")).collect();
        out.extend(requests.into_iter().zip(wait_all_bounded(tickets)));
    }
    out
}

#[test]
fn batches_given_up_on_reach_a_peer_that_has_not_failed_them() {
    let n_steps = 16;
    let metrics = Arc::new(MetricsRegistry::new());
    // Shards 0 and 1 fail every command; shard 2 is clean. A batch that
    // shard 0 gives up on may land on shard 1 and fail again, but its
    // third turn can only be shard 2's — also once the other failing
    // shard is quarantined and shard 2 is the only peer left.
    let shards: Vec<PayoffSuite> = (0..3)
        .map(|i| {
            let suite = gpu_suite(n_steps, &metrics);
            if i < 2 {
                suite.with_fault_plan(FaultPlan::new(1.0, chaos_seed() + i))
            } else {
                suite
            }
        })
        .collect();
    let service = PricingService::start_with_metrics(
        shards,
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        },
        metrics.clone(),
    )
    .expect("starts");
    let direct = gpu_suite(n_steps, &Arc::new(MetricsRegistry::new()));
    let outcomes = drive_until(
        &service,
        50,
        8,
        |i| batch(4, 300 + i),
        || metrics.counter_total("serve.quarantined") == 2,
    );
    // One more burst after both failing shards are out.
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .chain(drive_until(&service, 1, 8, |i| batch(4, 900 + i), || false))
        .collect();
    shutdown_bounded(service);
    for (request, outcome) in &outcomes {
        let served: Vec<f64> =
            outcome.as_ref().expect("a clean peer prices it").iter().map(|r| r.price).collect();
        let reference: Vec<f64> = direct_risk(&direct, request).iter().map(|r| r.price).collect();
        assert_eq!(served, reference, "redispatched prices are bit-identical to fault-free");
    }
    assert!(metrics.counter_total("serve.redispatched") > 0, "failed batches moved to a peer");
    assert_eq!(metrics.counter_total("serve.quarantined"), 2, "both failing shards quarantined");
    assert_eq!(metrics.counter_value("serve.quarantined", &[("shard", "2")]), 0);
    assert_eq!(metrics.counter_total("serve.failed"), 0, "no batch ran out of shards");
}

#[test]
fn a_quarantined_shard_takes_no_work_while_a_healthy_peer_exists() {
    let metrics = Arc::new(MetricsRegistry::new());
    let shards = vec![
        gpu_suite(64, &metrics).with_fault_plan(FaultPlan::new(1.0, chaos_seed())),
        gpu_suite(64, &metrics),
    ];
    let service = PricingService::start_with_metrics(
        shards,
        ServeConfig { max_batch: 1, max_retries: 0, quarantine_after: 1, ..ServeConfig::default() },
        metrics.clone(),
    )
    .expect("starts");
    // Single-option batches, so both workers pull while shard 1 prices;
    // shard 0's first batch quarantines it.
    let quarantined = || metrics.counter_value("serve.quarantined", &[("shard", "0")]) == 1;
    let mut outcomes = drive_until(&service, 50, 4, |i| batch(1, 600 + i), quarantined);
    assert!(quarantined(), "shard 0 pulled a batch within 50 bursts");
    // Now only shard 1 may pull.
    outcomes.extend(drive_until(&service, 1, 8, |i| batch(1, 800 + i), || false));
    shutdown_bounded(service);
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()), "shard 1 prices what shard 0 gave up");
    let attempts_on_0 = metrics.histogram("serve.exec_s", &[("shard", "0")]).map_or(0, |h| h.count);
    assert_eq!(attempts_on_0, 1, "shard 0 pulled nothing after its quarantine");
    assert_eq!(
        metrics.counter_value("serve.shard.options", &[("shard", "1")]),
        outcomes.len() as u64
    );
}

#[test]
fn a_fully_quarantined_pool_still_serves() {
    // One shard whose batches fault now and then (a 10% per-command
    // plan, no local retries): the first exhausted batch quarantines it,
    // and with no healthy peer left it keeps pulling and pricing.
    let metrics = Arc::new(MetricsRegistry::new());
    let shard = gpu_suite(16, &metrics).with_fault_plan(FaultPlan::new(0.1, chaos_seed()));
    let service = PricingService::start_with_metrics(
        vec![shard],
        ServeConfig { max_retries: 0, quarantine_after: 1, ..ServeConfig::default() },
        metrics.clone(),
    )
    .expect("starts");
    let mut outcomes = Vec::new();
    for i in 0..40 {
        outcomes.push(price_bounded(&service, batch(2, 700 + i)).is_ok());
    }
    shutdown_bounded(service);
    let first_failure = outcomes.iter().position(|ok| !ok).expect("some batch faults");
    assert_eq!(metrics.counter_total("serve.quarantined"), 1);
    assert!(
        outcomes[first_failure..].iter().any(|&ok| ok),
        "the quarantined pool kept serving: {outcomes:?}"
    );
}

/// A fault-free 16-step suite, built once: clones share its compiled
/// programs, and each clone given a fault plan draws its own fault
/// stream.
fn base_suite() -> &'static PayoffSuite {
    static BASE: OnceLock<PayoffSuite> = OnceLock::new();
    BASE.get_or_init(|| gpu_suite(16, &Arc::new(MetricsRegistry::new())))
}

/// A fault rate anywhere in [0, 1]; case 0 takes the closed end, where
/// every command faults.
fn any_rate(case: usize, rng: &mut SplitMix64) -> f64 {
    if case == 0 {
        1.0
    } else {
        rng.uniform(0.0, 1.0)
    }
}

#[test]
fn direct_pricing_under_any_fault_plan_is_exact_or_typed() {
    // The cases follow BOP_CHAOS_SEED like the campaigns above.
    let mut rng = SplitMix64::seed_from_u64(chaos_seed() ^ 0xd1ec7);
    for case in 0..16 {
        let plan = FaultPlan::new(any_rate(case, &mut rng), rng.next_u64());
        let request = batch(5, rng.int(0..=999) as u64);
        let reference: Vec<f64> =
            direct_risk(base_suite(), &request).iter().map(|r| r.price).collect();
        let risk: Vec<RiskRequest> =
            request.iter().map(|r| RiskRequest::price_only(r.params, r.payoff)).collect();
        match base_suite().clone().with_fault_plan(plan).price_risk(&risk) {
            Ok((results, _)) => {
                let prices: Vec<f64> = results.iter().map(|r| r.price).collect();
                assert_eq!(
                    prices, reference,
                    "case {case}, {plan:?}: a price under faults is exact"
                );
            }
            Err(e) => assert!(
                matches!(e, Error::Fault { .. }) && e.is_retryable(),
                "case {case}, {plan:?}: a retryable typed fault, got {e}"
            ),
        }
    }
}

#[test]
fn a_two_shard_pool_under_any_fault_plan_drains_exact_or_typed() {
    let mut rng = SplitMix64::seed_from_u64(chaos_seed() ^ 0x9a4d);
    for case in 0..16 {
        let (rate, seed) = (any_rate(case, &mut rng), rng.next_u64());
        let plan = FaultPlan::new(rate, seed);
        let shards: Vec<PayoffSuite> = (0..2)
            .map(|i| base_suite().clone().with_fault_plan(FaultPlan::new(rate, seed ^ i)))
            .collect();
        let config = ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let service = PricingService::start(shards, config).expect("starts");
        let requests: Vec<Vec<PricingRequest>> = (0..6).map(|i| batch(4, 300 + i)).collect();
        let tickets =
            requests.iter().map(|r| service.submit(r.clone(), None).expect("accepted")).collect();
        for (request, outcome) in requests.iter().zip(wait_all_bounded(tickets)) {
            match outcome {
                Ok(responses) => {
                    let served: Vec<f64> = responses.iter().map(|r| r.price).collect();
                    let reference: Vec<f64> =
                        direct_risk(base_suite(), request).iter().map(|r| r.price).collect();
                    assert_eq!(served, reference, "case {case}, {plan:?}: served prices are exact");
                }
                Err(e) => assert!(
                    matches!(e, Error::Fault { .. }),
                    "case {case}, {plan:?}: a typed fault, got {e}"
                ),
            }
        }
        shutdown_bounded(service);
    }
}

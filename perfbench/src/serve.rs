//! `serve-risk` and `serve-vanilla`: two uses of one `PricingService` on
//! the GPU model, built the way a user gets it by default (default
//! engine, worker count and `ServeConfig`, one shard per core).
//!
//! * `serve-risk` is an open loop on a seeded arrival schedule well below
//!   saturation. The four payoff classes alternate per request and half
//!   the requests ask for Greeks, so every batch is one request: session
//!   set-up, batch splitting, Greeks bumps and host Greeks assembly sit on
//!   the latency path while the engine does moderate work.
//! * `serve-vanilla` is a closed loop from one thread keeping a fixed
//!   window of price-only American requests outstanding: batches fill, and
//!   the engine and shard contention set the saturation throughput.

use crate::check::{greeks_ok, price_ok, GPU_PRICE_TOL};
use crate::spans::{chrome_spans, chrome_tracks, Recorder};
use crate::stats::percentile;
use crate::{cpu_time_s, median_setup, window_metrics, Metrics, Outcome};
use bop_core::{devices, AcceleratorConfig, Error, PayoffSuite};
use bop_finance::payoff::{BarrierKind, Payoff};
use bop_finance::rng::SplitMix64;
use bop_finance::workload;
use bop_obs::{Json, MetricsRegistry};
use bop_serve::{PricingRequest, PricingResponse, PricingService, ServeConfig, Ticket};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Shards in the pool: one per core of the 2-core reference machine.
pub const SHARDS: usize = 2;
/// Arrival rate of `serve-risk`, requests per second.
pub const RISK_RATE: f64 = 30.0;
/// Options per `serve-risk` request.
pub const RISK_OPTIONS: usize = 4;
/// Options per `serve-vanilla` request.
pub const VANILLA_OPTIONS: usize = 8;
/// Requests `serve-vanilla` keeps outstanding.
pub const VANILLA_WINDOW: usize = 16;
/// Distinct `serve-vanilla` requests, cycled.
const VANILLA_POOL: usize = 64;

/// The two traffic shapes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Risk,
    Vanilla,
}

/// The shard configuration a user gets by default on the GPU model.
pub fn shard_config() -> AcceleratorConfig {
    AcceleratorConfig::new(devices::gpu())
}

/// The lattice size every shard prices at.
pub fn n_steps() -> usize {
    shard_config().n_steps
}

/// The payoff of `serve-risk` request `i`: the classes alternate per
/// request, so consecutive requests never share a micro-batch.
pub fn risk_payoff(i: usize) -> Payoff {
    match i % 4 {
        0 => Payoff::European,
        1 => Payoff::American,
        2 => Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 170.0 },
        _ => Payoff::Bermudan { exercise_every: 4 },
    }
}

/// Whether `serve-risk` request `i` asks for Greeks: one request in each
/// group of four, a different payoff class in each group. The median
/// request is then a price-only one and the tail a Greeks one; an even
/// split would put the median in the gap between the two.
pub fn risk_greeks(i: usize) -> bool {
    i % 4 == (i / 4) % 4
}

fn curve(seed: u64, i: usize, n: usize) -> Vec<bop_finance::OptionParams> {
    let stream = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
    workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, n, stream)
}

/// `serve-risk` request `i` for `seed`.
pub fn risk_request(seed: u64, i: usize) -> Vec<PricingRequest> {
    let payoff = risk_payoff(i);
    curve(seed, i, RISK_OPTIONS)
        .into_iter()
        .map(|p| {
            if risk_greeks(i) {
                PricingRequest::with_greeks(p, payoff)
            } else {
                PricingRequest::price_only(p, payoff)
            }
        })
        .collect()
}

/// `serve-vanilla` request `i` for `seed`.
fn vanilla_request(seed: u64, i: usize) -> Vec<PricingRequest> {
    curve(seed, i, VANILLA_OPTIONS)
        .into_iter()
        .map(|p| PricingRequest::price_only(p, Payoff::American))
        .collect()
}

/// The open-loop schedule: `n` arrival offsets spread over `seconds` as
/// sorted seeded uniform draws — a Poisson process conditioned on its
/// count, so every seed offers the same load.
fn arrivals(seed: u64, seconds: f64) -> Vec<f64> {
    let n = (RISK_RATE * seconds).round().max(1.0) as usize;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xA11_1CE5);
    let mut t: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// The default pool and service.
pub fn start_service() -> PricingService {
    let pool = PayoffSuite::pool(shard_config(), SHARDS)
        .expect("the payoff suite builds on the GPU model");
    PricingService::start(pool, ServeConfig::default()).expect("the pricing service starts")
}

/// Whether `responses` are the correct answers to `request`.
fn responses_ok(request: &[PricingRequest], responses: &[PricingResponse]) -> bool {
    let n = n_steps();
    request.len() == responses.len()
        && request.iter().zip(responses).all(|(q, r)| {
            price_ok(r.price, &q.params, q.payoff, n, GPU_PRICE_TOL)
                && match (q.wants_greeks(), &r.greeks) {
                    (true, Some(g)) => g.price == r.price && greeks_ok(g, &q.params, q.payoff, n),
                    (false, None) => true,
                    _ => false,
                }
        })
}

/// Bits of a response, for traced-versus-untraced identity.
fn bits(responses: &[PricingResponse]) -> Vec<u64> {
    let mut out = Vec::new();
    for r in responses {
        out.push(r.price.to_bits());
        if let Some(g) = r.greeks {
            out.extend([g.delta, g.gamma, g.theta, g.vega, g.rho].map(f64::to_bits));
        }
    }
    out
}

/// One load-generation pass.
struct Pass {
    /// Per completed request: latency in seconds, from its due time (open
    /// loop) or its submission (closed loop).
    latencies: Vec<f64>,
    /// `(start, end, options)` of every completed request, from the
    /// pass's start.
    ops: Vec<(f64, f64, f64)>,
    /// How late each submission was: behind its due time (open loop), or
    /// inside `submit` (closed loop).
    lags: Vec<f64>,
    /// The checked answer of each distinct request (see `request_key`),
    /// as bits.
    answers: BTreeMap<usize, Vec<u64>>,
    attempted: u64,
    /// Requests that failed, were refused or came back wrong.
    failed: u64,
    /// Requests submitted but not completed when the schedule ended.
    backlog_end: u64,
    elapsed_s: f64,
    cpu_s: f64,
}

impl Pass {
    fn new(attempted: u64) -> Pass {
        Pass {
            latencies: Vec::new(),
            ops: Vec::new(),
            lags: Vec::new(),
            answers: BTreeMap::new(),
            attempted,
            failed: 0,
            backlog_end: 0,
            elapsed_s: 0.0,
            cpu_s: cpu_time_s(),
        }
    }

    fn options_per_s(&self) -> f64 {
        self.ops.iter().map(|o| o.2).sum::<f64>() / self.elapsed_s
    }

    /// Check the outcome of request `i`: its first answer against the host
    /// reference, any repeat of it against that answer's bits.
    fn check(
        &mut self,
        shape: Shape,
        seed: u64,
        i: usize,
        outcome: &Result<Vec<PricingResponse>, Error>,
    ) {
        let ok = match outcome {
            Ok(responses) => match self.answers.get(&request_key(shape, i)) {
                Some(answer) => *answer == bits(responses),
                None => {
                    let ok = responses_ok(&request_for(shape, seed, i), responses);
                    if ok {
                        self.answers.insert(request_key(shape, i), bits(responses));
                    }
                    ok
                }
            },
            Err(_) => false,
        };
        self.failed += u64::from(!ok);
    }
}

/// Submit `serve-risk` requests on their seeded schedule; a collector
/// thread waits on the tickets in submission order.
fn open_loop(service: &PricingService, seed: u64, seconds: f64) -> Pass {
    let schedule = arrivals(seed, seconds);
    let requests: Vec<Vec<PricingRequest>> =
        (0..schedule.len()).map(|i| risk_request(seed, i)).collect();
    let completed = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant, Ticket)>();
    let collector = {
        let completed = completed.clone();
        thread::spawn(move || {
            let mut done = Vec::new();
            for (i, due, ticket) in rx {
                let outcome = ticket.wait();
                done.push((i, due, due.elapsed().as_secs_f64(), outcome));
                completed.fetch_add(1, Ordering::Relaxed);
            }
            done
        })
    };
    let start = Instant::now() + Duration::from_millis(5);
    let mut pass = Pass::new(schedule.len() as u64);
    let mut refused = 0;
    for (i, (offset, request)) in schedule.iter().zip(requests).enumerate() {
        let due = start + Duration::from_secs_f64(*offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        pass.lags.push(due.elapsed().as_secs_f64());
        match service.submit(request, None) {
            Ok(ticket) => tx.send((i, due, ticket)).expect("the collector outlives the schedule"),
            Err(e) => {
                pass.check(Shape::Risk, seed, i, &Err(e));
                refused += 1;
            }
        }
    }
    pass.backlog_end = pass.attempted - refused - completed.load(Ordering::Relaxed);
    drop(tx);
    for (i, due, latency, outcome) in collector.join().expect("the collector thread finishes") {
        if let Ok(responses) = &outcome {
            let t = due.duration_since(start).as_secs_f64();
            pass.ops.push((t, t + latency, responses.len() as f64));
            pass.latencies.push(latency);
        }
        pass.check(Shape::Risk, seed, i, &outcome);
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_time_s() - pass.cpu_s;
    pass
}

/// Keep `VANILLA_WINDOW` requests outstanding for `seconds`, from this
/// thread alone.
fn closed_loop(service: &PricingService, seed: u64, seconds: f64) -> Pass {
    let pool: Vec<Vec<PricingRequest>> =
        (0..VANILLA_POOL).map(|i| vanilla_request(seed, i)).collect();
    let mut pass = Pass::new(0);
    let mut window: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let start = Instant::now();
    let mut next = 0usize;
    let mut submit = |pass: &mut Pass, window: &mut VecDeque<(usize, Instant, Ticket)>| {
        let i = next;
        next += 1;
        pass.attempted += 1;
        let sent = Instant::now();
        let result = service.submit(pool[i % VANILLA_POOL].clone(), None);
        pass.lags.push(sent.elapsed().as_secs_f64());
        match result {
            Ok(ticket) => window.push_back((i, sent, ticket)),
            Err(e) => pass.check(Shape::Vanilla, seed, i, &Err(e)),
        }
    };
    for _ in 0..VANILLA_WINDOW {
        submit(&mut pass, &mut window);
    }
    let mut ended = false;
    while let Some((i, sent, ticket)) = window.pop_front() {
        let outcome = ticket.wait();
        if let Ok(responses) = &outcome {
            let t = sent.duration_since(start).as_secs_f64();
            let latency = sent.elapsed().as_secs_f64();
            pass.ops.push((t, t + latency, responses.len() as f64));
            pass.latencies.push(latency);
        }
        pass.check(Shape::Vanilla, seed, i, &outcome);
        if start.elapsed().as_secs_f64() < seconds {
            submit(&mut pass, &mut window);
        } else if !ended {
            ended = true;
            pass.backlog_end = window.len() as u64;
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.cpu_s = cpu_time_s() - pass.cpu_s;
    pass
}

fn drive(shape: Shape, service: &PricingService, seed: u64, seconds: f64) -> Pass {
    match shape {
        Shape::Risk => open_loop(service, seed, seconds),
        Shape::Vanilla => closed_loop(service, seed, seconds),
    }
}

/// The distinct request behind index `i` of a pass: `serve-vanilla`
/// cycles through its pool of requests.
fn request_key(shape: Shape, i: usize) -> usize {
    match shape {
        Shape::Risk => i,
        Shape::Vanilla => i % VANILLA_POOL,
    }
}

/// The request behind index `i` of a pass.
fn request_for(shape: Shape, seed: u64, i: usize) -> Vec<PricingRequest> {
    match shape {
        Shape::Risk => risk_request(seed, i),
        Shape::Vanilla => vanilla_request(seed, request_key(shape, i)),
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(shape: Shape, seed: u64, seconds: f64) -> Outcome {
    let (setup_s, service) = median_setup(start_service);
    let pass = drive(shape, &service, seed, seconds);
    service.shutdown();
    let metrics = window_metrics(setup_s, &pass.ops, pass.elapsed_s, pass.cpu_s, &pass.latencies);
    Outcome { attempted: pass.attempted, failed: pass.failed, metrics }
}

/// Sum of the series `name` over the pool's shards.
fn shard_sum(metrics: &MetricsRegistry, counter: bool, name: &str) -> f64 {
    (0..SHARDS)
        .map(|i| {
            let label = i.to_string();
            if counter {
                metrics.counter_value(name, &[("shard", &label)]) as f64
            } else {
                metrics.gauge_value(name, &[("shard", &label)]).unwrap_or(0.0)
            }
        })
        .sum()
}

/// Registry readings taken before and after the traced pass.
struct Readings {
    batches: u64,
    batch_options: f64,
    served_options: f64,
    joules: f64,
}

impl Readings {
    fn take(metrics: &MetricsRegistry) -> Readings {
        let hist = metrics.histogram("serve.batch.options", &[]);
        Readings {
            batches: hist.as_ref().map_or(0, |h| h.count),
            batch_options: hist.as_ref().map_or(0.0, |h| h.sum),
            served_options: shard_sum(metrics, true, "serve.shard.options"),
            joules: shard_sum(metrics, false, "energy.joules"),
        }
    }
}

/// The traced run: an untraced and a traced pass of half the window each,
/// on one service. The traced pass records the service's request trace,
/// which is merged into `rec` and broken down per request.
pub fn run_traced(shape: Shape, seed: u64, seconds: f64, rec: &Recorder) -> Outcome {
    let service = start_service();
    let plain = drive(shape, &service, seed, seconds / 2.0);
    let before = Readings::take(service.metrics());
    service.enable_tracing();
    let root = rec.next_id();
    let (rec_t0, tracer_t0) = (rec.now_s(), service.tracer().now_s());
    let traced = drive(shape, &service, seed, seconds / 2.0);
    rec.record(root, None, "loadgen", "traced pass", rec_t0, rec.now_s());
    let after = Readings::take(service.metrics());
    let doc = service.export_trace();
    service.shutdown();
    rec.import_serve_trace(&doc, rec_t0 - tracer_t0);

    let mut failed = plain.failed + traced.failed;
    for (key, answer) in &traced.answers {
        failed += u64::from(plain.answers.get(key).is_some_and(|a| a != answer));
    }
    let mut m = Metrics::new();
    let headline_ratio = match shape {
        Shape::Risk => percentile(&traced.latencies, 0.5) / percentile(&plain.latencies, 0.5),
        Shape::Vanilla => plain.options_per_s() / traced.options_per_s(),
    };
    m.put("obs.trace_overhead", headline_ratio, "ratio");
    m.put("loadgen.latency_p90_s", percentile(&plain.latencies, 0.9), "s");
    let breakdown = Breakdown::from_trace(&doc);
    m.put("serve.queue_wait_p99_s", percentile(&breakdown.queue_wait, 0.99), "s");
    m.put("serve.linger_p99_s", percentile(&breakdown.linger, 0.99), "s");
    m.put("serve.exec_p50_s", percentile(&breakdown.exec, 0.5), "s");
    m.put("serve.exec_p99_s", percentile(&breakdown.exec, 0.99), "s");
    m.put("serve.unattributed_p99_s", percentile(&breakdown.unattributed, 0.99), "s");
    breakdown.print(shape);
    let latency_sum: f64 = breakdown.latency.iter().sum();
    m.put(
        "trace.unattributed_share",
        breakdown.unattributed.iter().sum::<f64>() / latency_sum,
        "ratio",
    );
    let batches = (after.batches - before.batches).max(1) as f64;
    let mean_batch = (after.batch_options - before.batch_options) / batches;
    m.put("serve.batch_mean_options", mean_batch, "options");
    m.put("serve.batch_fill", mean_batch / ServeConfig::default().max_batch as f64, "ratio");
    for (i, busy) in breakdown.shard_busy_s.iter().enumerate() {
        m.put(&format!("serve.shard_busy_share.{i}"), busy / traced.elapsed_s, "ratio");
    }
    m.put("serve.backlog_end", traced.backlog_end as f64, "requests");
    m.put("loadgen.lag_p99_s", percentile(&traced.lags, 0.99), "s");
    m.put(
        "serve.sim_options_per_j",
        (after.served_options - before.served_options) / (after.joules - before.joules),
        "options/J",
    );
    Outcome { attempted: plain.attempted + traced.attempted, failed, metrics: m }
}

/// Raw per-span and per-request samples from a service request trace.
struct Breakdown {
    queue_wait: Vec<f64>,
    linger: Vec<f64>,
    exec: Vec<f64>,
    /// Per request: latency, queue wait (which contains the batch
    /// linger), execution of the batches serving it, and the rest: time
    /// between dispatch and execution on the shard, and completion
    /// hand-off.
    latency: Vec<f64>,
    request_wait: Vec<f64>,
    request_exec: Vec<f64>,
    unattributed: Vec<f64>,
    shard_busy_s: Vec<f64>,
}

impl Breakdown {
    /// Print where the requests' time went, summed over requests.
    fn print(&self, shape: Shape) {
        let total: f64 = self.latency.iter().sum();
        let name = match shape {
            Shape::Risk => "serve-risk",
            Shape::Vanilla => "serve-vanilla",
        };
        eprintln!(
            "perfbench: request time of the traced {name} pass, {} requests, {total:.4} s:",
            self.latency.len()
        );
        let rows = [
            ("serve (queue wait, linger)", self.request_wait.iter().sum::<f64>()),
            ("core (PayoffSuite::price_risk)", self.request_exec.iter().sum()),
            ("unattributed", self.unattributed.iter().sum()),
        ];
        for (part, s) in rows {
            eprintln!("  {part:<32} {s:>10.4} s  {:>6.1}%", 100.0 * s / total);
        }
    }

    fn from_trace(doc: &Json) -> Breakdown {
        let tracks = chrome_tracks(doc);
        let mut b = Breakdown {
            queue_wait: Vec::new(),
            linger: Vec::new(),
            exec: Vec::new(),
            latency: Vec::new(),
            request_wait: Vec::new(),
            request_exec: Vec::new(),
            unattributed: Vec::new(),
            shard_busy_s: vec![0.0; SHARDS],
        };
        // Per request id: (latency, queue wait, exec).
        let mut per_request: BTreeMap<String, [f64; 3]> = BTreeMap::new();
        for e in chrome_spans(doc) {
            let dur = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0) * 1e-6;
            let arg = |k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_str);
            match e.get("cat").and_then(Json::as_str) {
                Some("serve.request") => {
                    if let Some(id) = arg("request_id") {
                        per_request.entry(id.to_string()).or_default()[0] = dur;
                    }
                }
                Some("serve.queue_wait") => {
                    b.queue_wait.push(dur);
                    if let Some(id) = arg("request_id") {
                        let slot = &mut per_request.entry(id.to_string()).or_default()[1];
                        *slot = slot.max(dur);
                    }
                }
                Some("serve.batch") => b.linger.push(dur),
                Some("serve.exec") => {
                    b.exec.push(dur);
                    for id in arg("request_ids").unwrap_or("").split(',').filter(|s| !s.is_empty())
                    {
                        per_request.entry(id.to_string()).or_default()[2] += dur;
                    }
                    let track =
                        e.get("tid").and_then(Json::as_f64).and_then(|t| tracks.get(&(t as u64)));
                    let shard = track
                        .and_then(|t| t.strip_prefix("shard "))
                        .and_then(|s| s.parse::<usize>().ok());
                    if let Some(slot) = shard.and_then(|s| b.shard_busy_s.get_mut(s)) {
                        *slot += dur;
                    }
                }
                _ => {}
            }
        }
        for [latency, wait, exec] in per_request.into_values().filter(|r| r[0] > 0.0) {
            b.latency.push(latency);
            b.request_wait.push(wait);
            b.request_exec.push(exec);
            b.unattributed.push(latency - wait - exec);
        }
        b
    }
}

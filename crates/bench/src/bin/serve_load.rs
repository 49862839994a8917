//! Open-loop load generator for the `bop-serve` pricing service.
//!
//! Submits a deterministic request stream at a fixed arrival rate
//! (open loop: arrivals do not wait for completions, so queue pressure
//! and typed rejections are observable) against a homogeneous shard
//! pool, then reports throughput, latency, and the per-shard split.
//!
//! ```text
//! serve_load [--requests N] [--rate R] [--request-options K]
//!            [--shards S] [--device gpu|fpga|cpu] [--steps N]
//!            [--outputs price|price+greeks] [--payoffs style|mixed]
//!            [--max-batch B] [--linger-us U] [--capacity C]
//!            [--deadline-ms D] [--seed S] [--faults RATE]
//!            [--fault-seed S] [--trace-out <path>]
//!            [--json] [--json-out <path>]
//! ```
//!
//! `--linger-us U` (default 500) bounds how long the oldest queued
//! request waits for a batch to fill *while a batch is in flight*; on an
//! idle pool a partial batch dispatches at once, whatever `U` is.
//!
//! Latency is reported as tail percentiles (p50/p95/p99 of
//! `serve.latency_s`) with a queue-wait / linger / execution
//! breakdown, the split of batch closures by reason
//! (`serve.batches.closed.{full,pool_idle,linger,shutdown}`), and
//! energy as cumulative joules with options/J and
//! joules-per-million-requests — the paper's efficiency metric carried
//! through to the serving layer.
//!
//! `--outputs price+greeks` produces a *mixed* workload: even-numbered
//! requests stay price-only and odd-numbered ones ask for the full
//! output set, so the report shows both classes of work sharing the
//! pool (Greeks ride as extra bump options in the same device batches).
//! `--payoffs mixed` likewise cycles each request's options through the
//! four payoff classes (European, American, barrier, Bermudan), which
//! exercises the per-payoff-class micro-batch splitting; the default
//! `style` prices every option per its `OptionParams::style`.
//!
//! `--faults RATE` arms the simulator's deterministic fault-injection
//! layer on every shard (per-shard seeds derived from `--fault-seed`),
//! reports availability under the degraded pool, and replays a seeded
//! closed-loop campaign twice to verify the faults are reproducible
//! (`fault determinism check: PASS` on stderr). The replay transcript
//! includes Greeks bits when `--outputs` requests them.
//!
//! `--trace-out <path>` records the full per-request trace (serve-layer
//! spans parent-linked down to each session's simulated queue commands,
//! all tagged with request ids) and writes it as a Chrome trace-event
//! JSON file loadable in Perfetto.
use bop_bench::reporting::{ReportOpts, Stopwatch};
use bop_bench::{exit_usage, flag, flag_opt};
use bop_core::{Error, FaultPlan, PayoffSuite};
use bop_finance::payoff::{BarrierKind, Payoff};
use bop_finance::workload;
use bop_obs::{ExperimentReport, MetricsRegistry};
use bop_serve::{OutputSet, PricingRequest, PricingService, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a shard worker closed a batch: the `reason` label values of
/// the `serve.batches.closed` counter.
const CLOSE_REASONS: [&str; 4] = ["full", "pool_idle", "linger", "shutdown"];

struct LoadOpts {
    requests: usize,
    rate: f64,
    request_options: usize,
    shards: usize,
    device: String,
    steps: usize,
    outputs: OutputSet,
    payoffs: String,
    max_batch: usize,
    linger_us: u64,
    capacity: usize,
    deadline_ms: Option<u64>,
    seed: u64,
    fault_rate: f64,
    fault_seed: u64,
    trace_out: Option<String>,
}

impl LoadOpts {
    /// Parse the command line.
    ///
    /// # Errors
    /// A message naming the first flag whose value is missing, does not
    /// parse or makes an invalid fault plan.
    fn from_args(args: &[String]) -> Result<LoadOpts, String> {
        let outputs = match flag_opt::<String>(args, "--outputs")? {
            Some(v) => OutputSet::parse(&v).map_err(|e| format!("--outputs: {e}"))?,
            None => OutputSet::default(),
        };
        let load = LoadOpts {
            requests: flag(args, "--requests", 200)?,
            rate: flag(args, "--rate", 2000.0)?,
            request_options: flag(args, "--request-options", 4)?,
            shards: flag(args, "--shards", 2)?,
            device: flag(args, "--device", "gpu".to_string())?,
            steps: flag(args, "--steps", 64)?,
            outputs,
            payoffs: flag(args, "--payoffs", "style".to_string())?,
            max_batch: flag(args, "--max-batch", 32)?,
            linger_us: flag(args, "--linger-us", 500)?,
            capacity: flag(args, "--capacity", 64)?,
            deadline_ms: flag_opt(args, "--deadline-ms")?,
            seed: flag(args, "--seed", 42)?,
            fault_rate: flag(args, "--faults", 0.0)?,
            fault_seed: flag(args, "--fault-seed", 1234)?,
            trace_out: flag_opt(args, "--trace-out")?,
        };
        load.fault_plan(0).validate().map_err(|e| format!("--faults: {e}"))?;
        Ok(load)
    }

    /// The fault plan of shard `shard`: the `--faults` rate, seeded
    /// `--fault-seed + shard`.
    fn fault_plan(&self, shard: u64) -> FaultPlan {
        FaultPlan { rate: self.fault_rate, ..FaultPlan::new(0.0, self.fault_seed + shard) }
    }

    /// The deterministic typed request stream: request `i`'s options,
    /// payoffs, and output set.
    fn request(&self, i: u64) -> Vec<PricingRequest> {
        let options = workload::volatility_curve(
            &workload::WorkloadConfig::default(),
            1.0,
            self.request_options,
            self.seed + i,
        );
        // `--outputs price+greeks` alternates: even requests price-only,
        // odd ones the full set — a mixed workload on one queue.
        let outputs = if self.outputs.contains(OutputSet::GREEKS) && i % 2 == 1 {
            self.outputs
        } else {
            OutputSet::PRICE
        };
        // `mixed` cycles per *request* (not per option) so consecutive
        // same-class requests can still coalesce into one micro-batch;
        // the class still changes every arrival, so splits are constant.
        options
            .into_iter()
            .map(|params| {
                let payoff = if self.payoffs == "mixed" {
                    match i as usize % 4 {
                        0 => Payoff::European,
                        1 => Payoff::American,
                        2 => Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 170.0 },
                        _ => Payoff::Bermudan { exercise_every: 4 },
                    }
                } else {
                    Payoff::from_style(params.style)
                };
                PricingRequest { payoff, params, outputs }
            })
            .collect()
    }
}

fn shard_pool(
    device: &str,
    steps: usize,
    n: usize,
    metrics: &Arc<MetricsRegistry>,
) -> Vec<PayoffSuite> {
    let dev = match device {
        "fpga" => bop_core::devices::fpga(),
        "cpu" => bop_core::devices::cpu(),
        _ => bop_core::devices::gpu(),
    };
    // One compile per payoff kernel for the whole pool: the shards share
    // the programs, and the service's registry, so queue-level `fault.*`
    // counters land in the same report as the `serve.*` ones.
    let mut config = bop_core::AcceleratorConfig::new(dev);
    config.n_steps = steps;
    config.metrics = Some(metrics.clone());
    PayoffSuite::pool(config, n).expect("shard pool builds")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report_opts = ReportOpts::from_args(&args);
    let load = LoadOpts::from_args(&args).unwrap_or_else(|e| exit_usage("serve_load", &e));
    let timer = Stopwatch::start();

    eprintln!(
        "serve_load: {} requests x {} options ({} outputs, {} payoffs) at {:.0} req/s over {} {} shard(s){}...",
        load.requests,
        load.request_options,
        load.outputs,
        load.payoffs,
        load.rate,
        load.shards,
        load.device,
        if load.fault_rate > 0.0 {
            format!(", faults at rate {} (seed {})", load.fault_rate, load.fault_seed)
        } else {
            String::new()
        }
    );
    let metrics = Arc::new(MetricsRegistry::new());
    let mut pool: Vec<PayoffSuite> =
        shard_pool(&load.device, load.steps, load.shards.max(1), &metrics);
    if load.fault_rate > 0.0 {
        // Distinct per-shard seeds: the shards fail independently, the
        // way a real degraded pool would.
        pool = pool
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.with_fault_plan(load.fault_plan(i as u64)))
            .collect();
    }
    let service = PricingService::start_with_metrics(
        pool,
        ServeConfig {
            queue_capacity: load.capacity,
            max_batch: load.max_batch,
            max_linger: Duration::from_micros(load.linger_us),
            ..ServeConfig::default()
        },
        metrics.clone(),
    )
    .expect("service starts");
    if load.trace_out.is_some() {
        service.enable_tracing();
    }
    let tracer = service.tracer().clone();
    let service = Arc::new(service);

    // Open loop: request i is due at start + i/rate, whether or not
    // earlier requests finished. Tickets are awaited on a collector
    // thread so a slow pool shows up as queue growth, not arrival lag.
    let deadline = load.deadline_ms.map(Duration::from_millis);
    let start = Instant::now();
    let mut rejected_full = 0u64;
    let mut rejected_other = 0u64;
    let collector = {
        let (tx, rx) = std::sync::mpsc::channel::<bop_serve::Ticket>();
        let handle = std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut deadline_exceeded = 0u64;
            let mut failed = 0u64;
            for ticket in rx {
                match ticket.wait() {
                    Ok(_) => ok += 1,
                    Err(Error::DeadlineExceeded { .. }) => deadline_exceeded += 1,
                    Err(_) => failed += 1,
                }
            }
            (ok, deadline_exceeded, failed)
        });
        (tx, handle)
    };
    for i in 0..load.requests {
        let due = start + Duration::from_secs_f64(i as f64 / load.rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match service.submit(load.request(i as u64), deadline) {
            Ok(ticket) => collector.0.send(ticket).expect("collector alive"),
            Err(Error::Rejected(r)) if !r.shutting_down => rejected_full += 1,
            Err(_) => rejected_other += 1,
        }
    }
    drop(collector.0);
    let (ok, deadline_exceeded, failed) = collector.1.join().expect("collector joins");
    let wall_s = timer.elapsed_s();
    Arc::try_unwrap(service).map(PricingService::shutdown).ok().expect("sole owner");

    let accepted = metrics.counter_total("serve.requests.accepted");
    let latency = metrics.histogram("serve.latency_s", &[]);
    let batch_hist = metrics.histogram("serve.batch.options", &[]);
    let options_served = metrics.counter_total("serve.shard.options");
    let greeks_options = metrics.counter_total("serve.greeks.options");
    let payoff_classes = ["european", "american", "barrier", "bermudan"];

    // Cumulative energy over the pool, from the per-shard gauges the
    // workers feed with simulated busy time × modeled watts.
    let (mut joules, mut busy_s) = (0.0, 0.0);
    for i in 0..load.shards.max(1) {
        let label = i.to_string();
        joules += metrics.gauge_value("energy.joules", &[("shard", &label)]).unwrap_or(0.0);
        busy_s += metrics.gauge_value("energy.busy_s", &[("shard", &label)]).unwrap_or(0.0);
    }
    let options_per_j = if joules > 0.0 { options_served as f64 / joules } else { 0.0 };
    let joules_per_mreq = if ok > 0 { joules / ok as f64 * 1e6 } else { 0.0 };

    if !report_opts.suppress_human() {
        println!("serve_load — open-loop stream over the bop-serve shard pool\n");
        println!(
            "  requests: {} accepted, {} rejected (queue full), {} errored",
            accepted,
            rejected_full,
            rejected_other + failed
        );
        println!("  outcomes: {ok} completed, {deadline_exceeded} past deadline");
        if load.fault_rate > 0.0 {
            println!(
                "  serve.availability: {:.4} ({ok} of {accepted} accepted requests served)",
                if accepted > 0 { ok as f64 / accepted as f64 } else { 0.0 }
            );
            println!(
                "  degraded-mode traffic: {} retries, {} redispatched, {} quarantined, {} batches failed",
                metrics.counter_total("serve.retries"),
                metrics.counter_total("serve.redispatched"),
                metrics.counter_total("serve.quarantined"),
                metrics.counter_total("serve.failed"),
            );
        }
        println!(
            "  served {options_served} options in {wall_s:.3} s = {:.0} options/s",
            options_served as f64 / wall_s
        );
        if greeks_options > 0 {
            println!(
                "  mixed workload: {greeks_options} of {options_served} options also computed \
                 delta/gamma/theta/vega/rho (4 bump options each in-batch)"
            );
        }
        if let Some(l) = &latency {
            println!(
                "  latency: p50 {:.6} s, p95 {:.6} s, p99 {:.6} s (mean {:.6} s, max {:.6} s)",
                l.quantile(0.50),
                l.quantile(0.95),
                l.quantile(0.99),
                l.mean(),
                l.max
            );
        }
        let p95 = |name: &str| metrics.histogram(name, &[]).map_or(f64::NAN, |h| h.quantile(0.95));
        println!(
            "  breakdown (p95): queue wait {:.6} s, linger {:.6} s, exec {:.6} s",
            p95("serve.queue_wait_s"),
            p95("serve.linger_s"),
            p95("serve.exec_s"),
        );
        let closed: Vec<String> = CLOSE_REASONS
            .iter()
            .map(|r| {
                format!("{} {r}", metrics.counter_value("serve.batches.closed", &[("reason", r)]))
            })
            .collect();
        println!("  batches closed: {}", closed.join(", "));
        println!(
            "  energy: {joules:.3} J ({busy_s:.6} s device-busy) -> {options_per_j:.1} options/J, {joules_per_mreq:.1} J per million requests"
        );
        if let Some(b) = &batch_hist {
            println!("  micro-batches: {} dispatched, mean {:.1} options", b.count, b.mean());
        }
        let served_payoffs: Vec<&str> = payoff_classes
            .iter()
            .copied()
            .filter(|p| metrics.counter_value("serve.payoff.options", &[("payoff", p)]) > 0)
            .collect();
        if served_payoffs.len() > 1 {
            println!("\n  per-payoff split (options -> exec p95 over that class's batches):");
            for p in &served_payoffs {
                let n = metrics.counter_value("serve.payoff.options", &[("payoff", p)]);
                let exec_p95 = metrics
                    .histogram("serve.exec_s", &[("payoff", p)])
                    .map_or(f64::NAN, |h| h.quantile(0.95));
                println!("    {p:<9} {n:>6} options, exec p95 {exec_p95:.6} s");
            }
        }
        println!("\n  per-shard split (options pulled by each shard):");
        for i in 0..load.shards.max(1) {
            let label = i.to_string();
            let served = metrics.counter_value("serve.shard.options", &[("shard", &label)]);
            println!(
                "    shard {i}: {served} options ({} batches)",
                metrics.counter_value("serve.shard.batches", &[("shard", &label)]),
            );
        }
    }

    let mut report = ExperimentReport::new("serve_load");
    report.push("serve.throughput", None, options_served as f64 / wall_s, "options/s");
    report.push("serve.offered_rate", None, load.rate, "requests/s");
    if let Some(l) = &latency {
        report.push("serve.latency.p50", None, l.quantile(0.50), "s");
        report.push("serve.latency.p95", None, l.quantile(0.95), "s");
        report.push("serve.latency.p99", None, l.quantile(0.99), "s");
        report.push("serve.latency.mean", None, l.mean(), "s");
        report.push("serve.latency.max", None, l.max, "s");
    }
    for (row, metric) in [
        ("serve.queue_wait.p95", "serve.queue_wait_s"),
        ("serve.linger.p95", "serve.linger_s"),
        ("serve.exec.p95", "serve.exec_s"),
    ] {
        if let Some(h) = metrics.histogram(metric, &[]) {
            report.push(row, None, h.quantile(0.95), "s");
        }
    }
    report.push("serve.energy.joules", None, joules, "J");
    report.push("serve.energy.busy_s", None, busy_s, "s");
    report.push("serve.options_per_j", None, options_per_j, "options/J");
    report.push("serve.joules_per_million_requests", None, joules_per_mreq, "J/Mreq");
    if let Some(b) = &batch_hist {
        report.push("serve.batch.mean_options", None, b.mean(), "options");
    }
    report.set_counter("serve.greeks.options", greeks_options);
    for r in CLOSE_REASONS {
        report.set_counter(
            format!("serve.batches.closed.{r}"),
            metrics.counter_value("serve.batches.closed", &[("reason", r)]),
        );
    }
    for p in payoff_classes {
        let n = metrics.counter_value("serve.payoff.options", &[("payoff", p)]);
        if n > 0 {
            report.set_counter(format!("serve.payoff.{p}.options"), n);
            if let Some(h) = metrics.histogram("serve.exec_s", &[("payoff", p)]) {
                report.push(format!("serve.payoff.{p}.exec.p95"), None, h.quantile(0.95), "s");
            }
        }
    }
    for i in 0..load.shards.max(1) {
        let label = i.to_string();
        report.set_counter(
            format!("serve.shard_{i}.options"),
            metrics.counter_value("serve.shard.options", &[("shard", &label)]),
        );
    }
    report.set_counter("serve.requests.accepted", accepted);
    report.set_counter("serve.requests.completed", ok);
    report.set_counter("serve.requests.rejected_full", rejected_full);
    report.set_counter("serve.requests.deadline_exceeded", deadline_exceeded);
    report.set_counter("serve.requests.failed", failed + rejected_other);
    report.set_counter("serve.options.served", options_served);
    if load.fault_rate > 0.0 {
        let availability = if accepted > 0 { ok as f64 / accepted as f64 } else { 0.0 };
        report.push("serve.availability", None, availability, "fraction");
        report.push("serve.fault_rate", None, load.fault_rate, "probability");
        report.set_counter("serve.retries", metrics.counter_total("serve.retries"));
        report.set_counter("serve.redispatched", metrics.counter_total("serve.redispatched"));
        report.set_counter("serve.quarantined", metrics.counter_total("serve.quarantined"));
        report.set_counter("serve.failed", metrics.counter_total("serve.failed"));
        report.set_counter("fault.injected", metrics.counter_total("fault.injected"));
    }
    if let Some(path) = &load.trace_out {
        report.set_counter("trace.spans", tracer.len() as u64);
        report.set_counter("trace.dropped_spans", tracer.dropped());
        let doc = tracer.to_chrome_json().to_string();
        std::fs::write(path, doc).expect("write trace file");
        eprintln!(
            "serve_load: wrote {} spans ({} dropped by cap) to {path}",
            tracer.len(),
            tracer.dropped()
        );
    }
    report.wall_s = wall_s;
    report_opts.emit(report).expect("emit report");

    if load.fault_rate > 0.0 {
        // Replay a seeded single-shard closed-loop campaign twice: same
        // plan, same requests — the outcomes (prices and Greeks
        // bit-for-bit, fault messages verbatim) must match exactly.
        let deterministic = fault_campaign(&load) == fault_campaign(&load);
        eprintln!("fault determinism check: {}", if deterministic { "PASS" } else { "FAIL" });
        if !deterministic {
            std::process::exit(3);
        }
        if ok == 0 {
            eprintln!("serve_load: pool served nothing under faults (rate {})", load.fault_rate);
            std::process::exit(2);
        }
    }
}

/// One deterministic closed-loop campaign: a single faulty shard,
/// sequential submit-and-wait, request size pinned to the micro-batch
/// size. Returns a transcript of every outcome (price bits, and Greeks
/// bits when requested) for replay comparison.
fn fault_campaign(load: &LoadOpts) -> Vec<String> {
    let shard = shard_pool(&load.device, load.steps, 1, &Arc::new(MetricsRegistry::new()))
        .pop()
        .expect("one shard")
        .with_fault_plan(load.fault_plan(0));
    let service = PricingService::start(
        vec![shard],
        ServeConfig {
            max_batch: 4,
            max_linger: Duration::from_micros(200),
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let outcomes = (0..8)
        .map(|i| {
            let mut request = load.request(7000 + i);
            request.truncate(4);
            match service.price(request) {
                Ok(responses) => {
                    let bits: Vec<String> = responses
                        .iter()
                        .map(|r| {
                            let mut s = r.price.to_bits().to_string();
                            if let Some(g) = r.greeks {
                                for v in [g.delta, g.gamma, g.theta, g.vega, g.rho] {
                                    s.push('/');
                                    s.push_str(&v.to_bits().to_string());
                                }
                            }
                            s
                        })
                        .collect();
                    format!("ok:{}", bits.join(","))
                }
                Err(e) => format!("err:{e}"),
            }
        })
        .collect();
    service.shutdown();
    outcomes
}

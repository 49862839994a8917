//! Interpreter-throughput benchmark for the parallel NDRange executor.
//!
//! Runs one of the paper's device-side architectures — kernel IV.B (one
//! work-group per option, so a batch is a multi-group dispatch) or
//! kernel IV.C (the streaming pipe pair, one producer/consumer launch
//! graph) — at several simulation worker counts on the selected
//! execution engine(s), checks that prices, merged `ExecStats` (pipe
//! stall counters included), `QueueCounters` and the exported Chrome
//! trace are bit-identical across worker counts *and* across the
//! tree-walking and lane-vectorized engines, and reports the wall-clock
//! speedups. Both knobs are wall-clock only: the simulated device clock
//! never changes.
//!
//! Pass `--kernel ivb|ivc` (default `ivb`) to pick the architecture,
//! `--engine walk|lanes|all` (default `all`, both engines) to pick the
//! engine(s), `--fast` for a smaller lattice/batch, `--json-out <path>`
//! / `--json` for the machine-readable report. On success the determinism check prints
//! `determinism check: PASS` to stderr (grepped by CI).

use bop_bench::reporting::{ReportOpts, Stopwatch};
use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::streaming::StreamingHost;
use bop_core::{devices, KernelArch, Precision};
use bop_finance::types::OptionParams;
use bop_finance::workload;
use bop_obs::ExperimentReport;
use bop_ocl::{BuildOptions, CommandQueue, Context, Engine, Program};

/// The benchmarked architecture.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kern {
    /// Kernel IV.B: multi-group NDRange on the GPU model.
    IvB,
    /// Kernel IV.C: the streaming pipe pair on the FPGA model.
    IvC,
}

struct RunResult {
    wall_s: f64,
    sim_s: f64,
    watts: f64,
    prices: Vec<f64>,
    stats: Option<bop_clir::stats::ExecStats>,
    /// IV.C only: the leaf producer's statistics (the consumer's are in
    /// `stats`).
    producer_stats: Option<bop_clir::stats::ExecStats>,
    counters: bop_ocl::queue::QueueCounters,
    chrome: String,
}

fn run_once(
    kern: Kern,
    n_steps: usize,
    options: &[OptionParams],
    workers: usize,
    engine: Engine,
) -> RunResult {
    let (device, arch) = match kern {
        Kern::IvB => (devices::gpu(), KernelArch::Optimized),
        Kern::IvC => (devices::fpga(), KernelArch::Streaming),
    };
    let ctx = Context::new(device);
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.set_engine(engine);
    queue.enable_trace();
    let program = Program::from_source(
        &ctx,
        "kernel.cl",
        &arch.source_sized(Precision::Double, n_steps),
        &BuildOptions::default(),
    )
    .expect("kernel builds");
    let timer = Stopwatch::start();
    let prices = match kern {
        Kern::IvB => OptimizedHost {
            n_steps,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(&ctx, &queue, &program, options),
        Kern::IvC => StreamingHost { n_steps, precision: Precision::Double }
            .run(&ctx, &queue, &program, options),
    }
    .expect("pricing runs");
    let wall_s = timer.elapsed_s();
    RunResult {
        wall_s,
        sim_s: queue.elapsed_s(),
        watts: program.report().power_watts,
        prices,
        stats: queue.kernel_stats(arch.kernel_name()),
        producer_stats: match kern {
            Kern::IvB => None,
            Kern::IvC => queue.kernel_stats(KernelArch::STREAMING_PRODUCER),
        },
        counters: queue.counters(),
        chrome: queue.export_chrome_trace().to_string(),
    }
}

fn sweep(
    kern: Kern,
    n_steps: usize,
    options: &[OptionParams],
    counts: &[usize],
    engine: Engine,
) -> Vec<(usize, RunResult)> {
    // Best of three runs per count, so one scheduling hiccup does not
    // distort the speedup table.
    let mut results = Vec::new();
    for &w in counts {
        let mut best: Option<RunResult> = None;
        for _ in 0..3 {
            let r = run_once(kern, n_steps, options, w, engine);
            if best.as_ref().is_none_or(|b| r.wall_s < b.wall_s) {
                best = Some(r);
            }
        }
        results.push((w, best.expect("at least one run")));
    }
    results
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = ReportOpts::from_env();
    let timer = Stopwatch::start();
    let fast = args.iter().any(|a| a == "--fast");
    let kern = match args
        .iter()
        .position(|a| a == "--kernel")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("ivb")
    {
        "ivb" => Kern::IvB,
        "ivc" => Kern::IvC,
        other => {
            eprintln!("--kernel expects ivb|ivc, got `{other}`");
            std::process::exit(2);
        }
    };
    let engines: Vec<Engine> = match args
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
    {
        "all" => vec![Engine::Walk, Engine::Lanes],
        other => match bop_ocl::queue::parse_engine(other) {
            Some(e) => vec![e],
            None => {
                eprintln!("--engine expects walk|lanes|all, got `{other}`");
                std::process::exit(2);
            }
        },
    };
    // IV.C prices the whole batch in one serial consumer task, so its
    // interpreted instruction count per option is ~n/2 times IV.B's per
    // work-item count; the preset keeps the two wall-clock comparable.
    let (n_steps, n_options) = match (kern, fast) {
        (Kern::IvB, true) => (64, 32),
        (Kern::IvB, false) => (128, 96),
        (Kern::IvC, true) => (48, 12),
        (Kern::IvC, false) => (96, 24),
    };
    let (label, shape) = match kern {
        Kern::IvB => ("IV.B", format!("{n_options} options ({n_options} work-groups)")),
        Kern::IvC => ("IV.C", format!("{n_options} options (producer/consumer pipe graph)")),
    };
    let options =
        workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, n_options);
    let names: Vec<String> = engines.iter().map(|e| e.to_string()).collect();
    eprintln!("interpreting {label}: {shape}, {n_steps} steps, engine(s): {}...", names.join(", "));

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 4, hw];
    counts.sort_unstable();
    counts.dedup();

    let sweeps: Vec<(Engine, Vec<(usize, RunResult)>)> =
        engines.iter().map(|&e| (e, sweep(kern, n_steps, &options, &counts, e))).collect();

    // Determinism: bit-identical across worker counts within an engine,
    // and across engines at every worker count.
    let reference = &sweeps[0].1[0].1;
    for (engine, results) in &sweeps {
        for (w, r) in results {
            let at = format!("engine {engine}, {w} worker(s)");
            assert_eq!(r.prices, reference.prices, "prices must be bit-identical ({at})");
            assert_eq!(r.stats, reference.stats, "ExecStats must be bit-identical ({at})");
            assert_eq!(
                r.producer_stats, reference.producer_stats,
                "producer ExecStats must be bit-identical ({at})"
            );
            assert_eq!(r.counters, reference.counters, "counters must be bit-identical ({at})");
            assert_eq!(r.chrome, reference.chrome, "traces must be bit-identical ({at})");
            assert_eq!(r.sim_s, reference.sim_s, "simulated time must be bit-identical ({at})");
        }
    }
    eprintln!(
        "determinism check: PASS — prices, stats, counters and traces bit-identical \
         across {} engine(s) and {} worker count(s)",
        sweeps.len(),
        counts.len()
    );
    if kern == Kern::IvC {
        let stats = reference.stats.as_ref().expect("consumer stats");
        eprintln!(
            "pipe traffic: {} writes, {} reads, {} read stalls, {} write stalls",
            reference.counters.pipe_writes,
            reference.counters.pipe_reads,
            stats.pipe_read_stalls,
            stats.pipe_write_stalls,
        );
    }

    // Lanes-over-walker speedup at each worker count (walker wall /
    // lanes wall), when the sweep ran both engines.
    let find = |e: Engine| sweeps.iter().find(|(se, _)| *se == e).map(|(_, r)| r);
    let speedup: Option<Vec<(usize, f64)>> =
        find(Engine::Walk).zip(find(Engine::Lanes)).map(|(walk, lanes)| {
            walk.iter().zip(lanes).map(|((w, wr), (_, lr))| (*w, wr.wall_s / lr.wall_s)).collect()
        });

    // Simulated-device rates (engine- and worker-independent): the
    // snapshot gate tracks these alongside the wall-clock rows.
    let sim_options_per_s = n_options as f64 / reference.sim_s;
    let sim_options_per_j = sim_options_per_s / reference.watts;

    if !opts.suppress_human() {
        println!("Interpreter throughput — kernel {label}, {shape}, {n_steps} steps\n");
        for (engine, results) in &sweeps {
            let base = &results[0].1;
            println!("engine: {engine}");
            println!("{:>8}{:>14}{:>10}{:>16}", "workers", "wall [ms]", "speedup", "sim clock [s]");
            for (w, r) in results {
                println!(
                    "{:>8}{:>14.2}{:>10.2}{:>16.6}",
                    w,
                    r.wall_s * 1e3,
                    base.wall_s / r.wall_s,
                    r.sim_s
                );
            }
            println!();
        }
        if let Some(per) = &speedup {
            println!("lanes vs walk (same worker count):");
            for (w, s) in per {
                println!("{:>8} workers: {s:.2}x", w);
            }
            println!();
        }
        println!(
            "simulated device: {sim_options_per_s:.1} options/s, {sim_options_per_j:.2} options/J"
        );
        println!(
            "results identical across engines and worker counts (prices, stats, counters, trace)"
        );
    }

    let mut report = ExperimentReport::new(match kern {
        Kern::IvB => "interp_throughput",
        Kern::IvC => "interp_throughput_ivc",
    });
    for (engine, results) in &sweeps {
        let base = &results[0].1;
        for (w, r) in results {
            report.push(format!("{engine}.workers_{w}.wall_s"), None, r.wall_s, "s");
            report.push(format!("{engine}.workers_{w}.speedup"), None, base.wall_s / r.wall_s, "x");
        }
    }
    if let Some(per) = &speedup {
        for (w, s) in per {
            report.push(format!("lanes.speedup_vs_walk.workers_{w}"), None, *s, "x");
        }
        // Headline: single-worker, pure interpreter throughput.
        report.push("lanes.speedup_vs_walk", None, per[0].1, "x");
    }
    report.push("sim_elapsed_s", None, reference.sim_s, "s");
    report.push("sim_options_per_s", None, sim_options_per_s, "options/s");
    report.push("sim_options_per_j", None, sim_options_per_j, "options/J");
    if kern == Kern::IvC {
        let stats = reference.stats.as_ref().expect("consumer stats");
        report.push("pipe.reads", None, reference.counters.pipe_reads as f64, "ops");
        report.push("pipe.writes", None, reference.counters.pipe_writes as f64, "ops");
        report.push("pipe.read_stalls", None, stats.pipe_read_stalls as f64, "ops");
        report.push("pipe.write_stalls", None, stats.pipe_write_stalls as f64, "ops");
    }
    report.wall_s = timer.elapsed_s();
    opts.emit(report).expect("emit report");
}

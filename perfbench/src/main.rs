//! The repository benchmark: end-to-end metrics of four workloads, and a
//! traced run that breaks each workload down per layer. See `README.md`
//! in this directory for the workloads, metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! with every `end_to_end` metric of `BENCHMARK.json` (`--trace 0`) or
//! every `per_layer` one (`--trace 1`).

mod check;
mod compile;
mod layers;
mod paper;
mod serve;
mod spans;
mod stats;

use bop_obs::Json;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Named metric values with their units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, (value, unit))| {
            (name.clone(), Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
        }))
    }
}

/// What one run measured, and how many of its operations were checked
/// and found wrong (or failed outright).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run whose set-up produced wrong results: nothing to measure.
    pub fn failed_setup() -> Outcome {
        Outcome { attempted: 1, failed: 1, metrics: Metrics::new() }
    }
}

/// CPU time of the whole process so far (every thread, exited ones
/// included), in seconds. Time the hypervisor steals from the machine is
/// not in it, which makes it the steady measure of the work a run does.
pub fn cpu_time_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised
    // command name: user and system time in USER_HZ (100 Hz) ticks.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("stat time fields are integers");
    (ticks(11) + ticks(12)) / 100.0
}

/// Sub-windows of a measured window; `ops_per_s` is their median rate.
const SUB_WINDOWS: usize = 10;

/// The end-to-end metrics of one measured window of `elapsed_s` wall
/// seconds and `cpu_s` process CPU seconds: `ops` holds each completed
/// call's `(start, end, operations)` from the window's start, and
/// `latencies` one sample per call.
pub fn window_metrics(
    setup_s: f64,
    ops: &[(f64, f64, f64)],
    elapsed_s: f64,
    cpu_s: f64,
    latencies: &[f64],
) -> Metrics {
    let total: f64 = ops.iter().map(|o| o.2).sum();
    let mut m = Metrics::new();
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", stats::median_rate(ops, elapsed_s, SUB_WINDOWS), "1/s");
    m.put("cpu_s_per_op", cpu_s / total, "s");
    m.put("latency_p50_s", stats::percentile(latencies, 0.5), "s");
    m
}

/// Set-ups timed per run: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_MIN_S` has passed, so that a set-up of a millisecond is timed
/// hundreds of times; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MIN_S: f64 = 0.25;

/// Run `setup` repeatedly (see `SETUP_MIN_REPS`); return the median wall
/// time and the last result.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::new();
    let mut last = None;
    let start = std::time::Instant::now();
    while samples.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&samples), last.expect("at least one set-up"))
}

#[derive(Clone, Copy)]
enum Workload {
    Paper(paper::Kernel),
    Serve(serve::Shape),
    CompileSweep,
}

/// Kernel IV.C is measured per layer only: its price call flipped between
/// two speeds from one minute to the next on the reference machine, too
/// often for a gated workload.
const WORKLOADS: [(&str, Workload); 4] = [
    ("paper-ivb", Workload::Paper(paper::Kernel::IvB)),
    ("serve-risk", Workload::Serve(serve::Shape::Risk)),
    ("serve-vanilla", Workload::Serve(serve::Shape::Vanilla)),
    ("compile-sweep", Workload::CompileSweep),
];

/// Length of the short `serve-risk` pass that measures the serving layer
/// in the traced run of workloads that do not serve.
const SERVE_PROBE_SECONDS: f64 = 4.0;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

const USAGE: &str =
    "usage: perfbench --workload <paper-ivb|serve-risk|serve-vanilla|compile-sweep> \
     --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?.to_string();
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or(format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let repeat = match args.iter().any(|a| a == "--repeat") {
        true => Some(value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?),
        false => None,
    };
    Ok(Args { workload, name, seed, seconds, trace, repeat })
}

/// The metric names and units `BENCHMARK.json` declares, by section.
struct Spec {
    end_to_end: BTreeMap<String, String>,
    per_layer: BTreeMap<String, String>,
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let path = bench_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let section = |key: &str| -> Result<BTreeMap<String, String>, String> {
            let items =
                doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no `{key}`"))?;
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                    field("name")
                        .zip(field("unit"))
                        .ok_or(format!("BENCHMARK.json: bad `{key}` entry"))
                })
                .collect()
        };
        Ok(Spec { end_to_end: section("end_to_end")?, per_layer: section("per_layer")? })
    }

    /// Check that `metrics` are exactly the declared ones, with their units.
    fn matches(declared: &BTreeMap<String, String>, metrics: &Metrics) -> Result<(), String> {
        for (name, unit) in declared {
            match metrics.0.get(name) {
                None => return Err(format!("metric `{name}` was not measured")),
                Some((_, u)) if u != unit => {
                    return Err(format!(
                        "metric `{name}` has unit `{u}`, BENCHMARK.json says `{unit}`"
                    ))
                }
                _ => {}
            }
        }
        match metrics.0.keys().find(|k| !declared.contains_key(*k)) {
            Some(extra) => Err(format!("metric `{extra}` is not declared in BENCHMARK.json")),
            None => Ok(()),
        }
    }
}

/// The process's high-water resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut outcome = match args.workload {
        Workload::Paper(kernel) => paper::run(kernel, seed, seconds),
        Workload::Serve(shape) => serve::run(shape, seed, seconds),
        Workload::CompileSweep => compile::run(seed, seconds),
    };
    outcome.metrics.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(outcome)
}

/// Serving-layer metrics a non-serving workload borrows from the probe
/// pass.
fn is_serve_layer(name: &str) -> bool {
    name.starts_with("serve.") || name == "loadgen.lag_p99_s"
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let rec = Recorder::new();
    let mut outcome = match args.workload {
        Workload::Paper(kernel) => paper::run_traced(kernel, seed, seconds, &rec),
        Workload::Serve(shape) => serve::run_traced(shape, seed, seconds, &rec),
        Workload::CompileSweep => compile::run_traced(seed, seconds, &rec),
    };
    // The serving workloads print their per-request breakdown instead:
    // the service's spans overlap across requests.
    let serving = matches!(args.workload, Workload::Serve(_));
    if !serving {
        print_self_times(&args.name, &rec);
    }
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path: PathBuf = dir.join(format!("trace-{}-{seed}.json", args.name));
    std::fs::write(&path, rec.to_chrome_json().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote the trace to {}", path.display());

    let (tally, engine) = layers::probe(seed, &mut outcome.metrics);
    outcome.attempted += tally.attempted;
    outcome.failed += tally.failed;
    if !serving {
        let probe =
            serve::run_traced(serve::Shape::Risk, seed, SERVE_PROBE_SECONDS, &Recorder::new());
        outcome.attempted += probe.attempted;
        outcome.failed += probe.failed;
        for (name, (value, unit)) in probe.metrics.0 {
            if is_serve_layer(&name) {
                outcome.metrics.put(&name, value, unit);
            }
        }
    }
    if let Workload::Paper(kernel) = args.workload {
        let share = paper_attribution(kernel, engine, &outcome.metrics);
        outcome.metrics.put("trace.unattributed_share", share, "ratio");
    }
    Ok(outcome)
}

/// Split one `Accelerator::price` call of the paper workload into the
/// parts the probes measured: session overhead, interpretation at the
/// default engine and worker count, and the host reference pricing.
/// Prints the split and returns the share no part accounts for.
fn paper_attribution(kernel: paper::Kernel, engine: bop_ocl::Engine, m: &Metrics) -> f64 {
    let k = kernel.label();
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let batch = paper::BATCH as f64;
    let price_s = get(&format!("core.price_s.{k}"));
    let parts = [
        ("ocl session overhead", get("ocl.session_overhead_s")),
        (
            "clir.exec interpretation",
            get(&format!("clir.exec.ops_per_option.{k}"))
                * batch
                * get(&format!("clir.exec.ns_per_op.{engine}.{k}.workers_default"))
                * 1e-9,
        ),
        ("finance host reference", batch / get("finance.crr_native_options_per_s")),
    ];
    eprintln!("perfbench: one {k} price call, {price_s:.6} s:");
    let mut explained = 0.0;
    for (part, s) in parts {
        eprintln!("  {part:<28} {s:>10.6} s  {:>6.1}%", 100.0 * s / price_s);
        explained += s;
    }
    let share = 1.0 - explained / price_s;
    eprintln!("  {:<28} {:>10.6} s  {:>6.1}%", "unattributed", price_s - explained, 100.0 * share);
    share
}

fn print_self_times(workload: &str, rec: &Recorder) {
    let by_layer = rec.self_time_by_layer();
    let total: f64 = by_layer.values().sum();
    let mut rows: Vec<(&String, &f64)> = by_layer.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    eprintln!("perfbench: self time per layer in the traced pass of {workload}:");
    for (layer, s) in rows {
        eprintln!("  {layer:<16} {s:>10.4} s  {:>6.1}%", 100.0 * s / total);
    }
}

/// Metrics that must repeat bit for bit across runs and seeds: simulated
/// device rates and counts.
fn is_deterministic(name: &str, unit: &str) -> bool {
    name.starts_with("fpga.sim_") || unit == "count" || unit == "bytes"
}

/// Run the workload `k` times in child processes on consecutive seeds and
/// print each metric's median, quartiles and spread.
fn repeat(args: &Args, k: usize) -> Result<bool, String> {
    if k < 2 {
        return Err("--repeat needs at least 2 runs".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..k as u64 {
        let seed = (args.seed + i).to_string();
        let seconds = args.seconds.to_string();
        let trace = if args.trace { "1" } else { "0" };
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ])
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = stdout
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .ok_or(format!("seed {seed}: no result (exit {:?})", out.status.code()))?;
        let correct = doc.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct;
        eprintln!("perfbench: seed {seed}: correct {correct}");
        let metrics = doc.get("metrics").ok_or(format!("seed {seed}: no metrics"))?;
        if let Json::Obj(map) = metrics {
            for (name, m) in map {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_insert((unit, Vec::new())).1.push(v);
            }
        }
    }
    println!(
        "{:<52} {:>8} {:>14} {:>14} {:>14} {:>8}  repeats",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    let mut summary = Vec::new();
    let mut deterministic_ok = true;
    for (name, (unit, v)) in &values {
        let [q1, med, q3] = stats::quartiles(v);
        let spread = (q3 - q1) / med.abs();
        let identical = v.iter().all(|x| x.to_bits() == v[0].to_bits());
        let mark = match (is_deterministic(name, unit), identical) {
            (true, true) => "exact",
            (true, false) => "VARIES (must be exact)",
            (false, true) => "same",
            (false, false) => "",
        };
        deterministic_ok &= !is_deterministic(name, unit) || identical;
        println!("{name:<52} {unit:>8} {q1:>14.6e} {med:>14.6e} {q3:>14.6e} {spread:>8.4}  {mark}");
        summary.push((
            name.clone(),
            Json::obj([
                ("q1", Json::Num(q1)),
                ("median", Json::Num(med)),
                ("q3", Json::Num(q3)),
                ("spread", Json::Num(spread)),
                ("identical", Json::Bool(identical)),
            ]),
        ));
    }
    println!("{}", Json::obj([("runs", Json::Num(k as f64)), ("metrics", Json::obj(summary))]));
    Ok(all_correct && deterministic_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(k) = args.repeat {
        return match repeat(&args, k) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let self_test = check::self_test();
    if let Err(e) = &self_test {
        eprintln!("perfbench: output check self-test failed: {e}");
    }
    let result = if args.trace { run_traced(&args) } else { run_untraced(&args) };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let correct = outcome.failed == 0 && self_test.is_ok();
    if correct {
        if let Err(e) = Spec::matches(declared, &outcome.metrics) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let doc = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{doc}");
    ExitCode::SUCCESS
}

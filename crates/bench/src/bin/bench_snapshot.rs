//! Perf-trajectory snapshots and the regression comparator.
//!
//! Every PR leaves one `BENCH_<n>.json` at the repo root so speed and
//! energy claims accumulate across the project's history instead of
//! resetting each change (ROADMAP item 5). The snapshot is just the
//! stable [`ExperimentReport`] JSON of the existing benchmarks, bundled:
//!
//! ```text
//! bench_snapshot run [--fast] [--out PATH] [--label TEXT]
//!     Runs interp_throughput / serve_load / ablation (each with
//!     --json), bundles their reports, and writes the snapshot. The
//!     default output is BENCH_<n+1>.json after the highest existing
//!     BENCH_<n>.json in the current directory (floor: BENCH_6.json).
//!
//! bench_snapshot compare OLD NEW [--threshold 0.10] [--warn-only]
//!     Diffs two snapshots over every throughput (options/s) and
//!     energy-efficiency (options/J) row present in both. Exits 1 when
//!     any such metric regressed by more than the threshold (default
//!     10%), unless --warn-only. Wall-clock-derived rows move with the
//!     machine, so compare snapshots from comparable hosts; CI smokes
//!     the comparator against a same-host baseline and a synthetic
//!     regression instead of trusting cross-host numbers.
//!
//! bench_snapshot degrade IN OUT [--factor 0.5]
//!     Writes a copy of IN with every options/s and options/J row
//!     multiplied by the factor — a synthetic regression for testing
//!     that the comparator actually fails.
//! ```
use bop_bench::{exit_usage, flag};
use bop_obs::{ExperimentReport, Json};
use std::process::Command;

/// Units the comparator treats as "bigger is better" performance.
const PERF_UNITS: [&str; 2] = ["options/s", "options/J"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("compare") => compare(&args),
        Some("degrade") => degrade(&args),
        _ => {
            eprintln!("usage: bench_snapshot run|compare|degrade (see --help in the source docs)");
            2
        }
    };
    std::process::exit(code);
}

/// The benchmark invocations bundled into a snapshot. Presets stay
/// small: a snapshot is a trajectory marker, not a full paper
/// reproduction.
fn experiments(fast: bool) -> Vec<(&'static str, Vec<String>)> {
    let serve_requests = if fast { "40" } else { "120" };
    vec![
        // `--engine all`: the snapshot carries rows for every engine,
        // the default (lanes) included.
        (
            "interp_throughput",
            vec!["--engine".into(), "all".into(), "--fast".into(), "--json".into()],
        ),
        (
            // The IV.C streaming pair: same binary, pipe-graph path. Its
            // report lands under `interp_throughput_ivc`, so the first
            // snapshot carrying it shows up as new rows (warned, not
            // failed) against older baselines.
            "interp_throughput",
            vec![
                "--kernel".into(),
                "ivc".into(),
                "--engine".into(),
                "all".into(),
                "--fast".into(),
                "--json".into(),
            ],
        ),
        (
            // The mixed-workload preset: every payoff class in the
            // stream, half the requests also computing Greeks — so the
            // snapshot tracks the serving layer's risk path, not just
            // vanilla prices.
            "serve_load",
            vec![
                "--requests".into(),
                serve_requests.into(),
                "--rate".into(),
                "4000".into(),
                "--shards".into(),
                "2".into(),
                "--outputs".into(),
                "price+greeks".into(),
                "--payoffs".into(),
                "mixed".into(),
                "--seed".into(),
                "7".into(),
                "--json".into(),
            ],
        ),
        ("vol_surface", vec!["--repeats".into(), "10".into(), "--json".into()]),
        ("ablation", vec!["--json".into()]),
    ]
}

fn run(args: &[String]) -> i32 {
    let fast = args.iter().any(|a| a == "--fast");
    let label =
        flag(args, "--label", String::new()).unwrap_or_else(|e| exit_usage("bench_snapshot", &e));
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(next_snapshot_path);

    // Sibling binaries: every bench bin lands in the same target dir.
    let exe = std::env::current_exe().expect("current exe");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    let mut reports = Vec::new();
    for (bin, bin_args) in experiments(fast) {
        let path = bin_dir.join(bin);
        eprintln!("bench_snapshot: running {bin} {}", bin_args.join(" "));
        let output = match Command::new(&path).args(&bin_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("bench_snapshot: cannot launch {}: {e}", path.display());
                return 2;
            }
        };
        if !output.status.success() {
            eprintln!("bench_snapshot: {bin} exited with {}", output.status);
            return 2;
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        match ExperimentReport::from_json(stdout.trim()) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("bench_snapshot: {bin} emitted an invalid report: {e}");
                return 2;
            }
        }
    }
    let doc = Json::obj([
        ("tool", Json::str("bench_snapshot")),
        ("label", Json::str(label)),
        ("experiments", Json::Arr(reports.iter().map(ExperimentReport::to_json).collect())),
    ]);
    if let Err(e) = std::fs::write(&out, doc.to_string()) {
        eprintln!("bench_snapshot: cannot write {out}: {e}");
        return 2;
    }
    let rows: usize = reports.iter().map(|r| r.rows.len()).sum();
    eprintln!("bench_snapshot: wrote {out} ({} experiments, {rows} rows)", reports.len());
    0
}

/// `BENCH_<n+1>.json` after the highest existing snapshot in the
/// current directory; the numbering starts at the PR that introduced
/// the harness.
fn next_snapshot_path() -> String {
    let mut highest = 5u64;
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                highest = highest.max(n);
            }
        }
    }
    format!("BENCH_{}.json", highest + 1)
}

fn load_snapshot(path: &str) -> Result<Vec<ExperimentReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let experiments =
        doc.get("experiments").and_then(Json::as_arr).ok_or(format!("{path}: no `experiments`"))?;
    experiments
        .iter()
        .map(|e| {
            ExperimentReport::from_json(&e.to_string()).map_err(|err| format!("{path}: {err}"))
        })
        .collect()
}

/// Perf rows of a snapshot, keyed `experiment/metric` → (measured, unit).
fn perf_rows(reports: &[ExperimentReport]) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    for report in reports {
        for row in &report.rows {
            if PERF_UNITS.contains(&row.unit.as_str()) && row.measured.is_finite() {
                out.push((
                    format!("{}/{}", report.experiment, row.metric),
                    row.measured,
                    row.unit.clone(),
                ));
            }
        }
    }
    out
}

fn compare(args: &[String]) -> i32 {
    let (Some(old_path), Some(new_path)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_snapshot compare OLD NEW [--threshold 0.10] [--warn-only]");
        return 2;
    };
    let threshold: f64 =
        flag(args, "--threshold", 0.10).unwrap_or_else(|e| exit_usage("bench_snapshot", &e));
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let (old, new) = match (load_snapshot(old_path), load_snapshot(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_snapshot: {e}");
            return 2;
        }
    };
    let new_rows: std::collections::BTreeMap<String, f64> =
        perf_rows(&new).into_iter().map(|(k, v, _)| (k, v)).collect();
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    println!(
        "bench_snapshot compare: {old_path} -> {new_path} (threshold {:.0}%)",
        threshold * 100.0
    );
    let old_rows = perf_rows(&old);
    for (key, old_v, unit) in &old_rows {
        let Some(&new_v) = new_rows.get(key) else { continue };
        if *old_v <= 0.0 {
            continue;
        }
        compared += 1;
        let ratio = new_v / old_v;
        let regressed = ratio < 1.0 - threshold;
        println!(
            "  {} {key}: {old_v:.3} -> {new_v:.3} {unit} ({:+.1}%)",
            if regressed { "REGRESSED" } else { "ok       " },
            (ratio - 1.0) * 100.0
        );
        if regressed {
            regressions.push(key.clone());
        }
    }
    // Rows present only in the NEW snapshot have no baseline yet — a
    // freshly added benchmark, not a regression. Surface them as "new"
    // so the next baseline picks them up, and never fail on them.
    let old_keys: std::collections::BTreeSet<&String> =
        old_rows.iter().map(|(k, _, _)| k).collect();
    let mut fresh = 0usize;
    for (key, new_v, unit) in perf_rows(&new) {
        if !old_keys.contains(&key) {
            fresh += 1;
            println!("  new       {key}: {new_v:.3} {unit} (no baseline; will gate next time)");
        }
    }
    println!(
        "  {compared} metrics compared, {} regressed beyond {:.0}%, {fresh} new",
        regressions.len(),
        threshold * 100.0
    );
    if compared == 0 {
        eprintln!("bench_snapshot: snapshots share no comparable perf rows");
        return 2;
    }
    if !regressions.is_empty() && !warn_only {
        eprintln!("bench_snapshot: throughput regression detected: {}", regressions.join(", "));
        return 1;
    }
    0
}

fn degrade(args: &[String]) -> i32 {
    let (Some(in_path), Some(out_path)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: bench_snapshot degrade IN OUT [--factor 0.5]");
        return 2;
    };
    let factor: f64 =
        flag(args, "--factor", 0.5).unwrap_or_else(|e| exit_usage("bench_snapshot", &e));
    let mut reports = match load_snapshot(in_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_snapshot: {e}");
            return 2;
        }
    };
    let mut touched = 0usize;
    for report in &mut reports {
        for row in &mut report.rows {
            if PERF_UNITS.contains(&row.unit.as_str()) {
                row.measured *= factor;
                touched += 1;
            }
        }
    }
    let doc = Json::obj([
        ("tool", Json::str("bench_snapshot")),
        ("label", Json::str(format!("degraded x{factor} from {in_path}"))),
        ("experiments", Json::Arr(reports.iter().map(ExperimentReport::to_json).collect())),
    ]);
    if let Err(e) = std::fs::write(out_path, doc.to_string()) {
        eprintln!("bench_snapshot: cannot write {out_path}: {e}");
        return 2;
    }
    eprintln!("bench_snapshot: degraded {touched} perf rows by x{factor} into {out_path}");
    0
}

//! Smoke tests for the table/figure regeneration binaries: each must run
//! and print the rows it claims to (full-scale runs are exercised by the
//! bench harness itself; these use the fast paths).

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_prints_both_kernels_and_all_rows() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &[]);
    for needle in [
        "Kernel IV.A",
        "Kernel IV.B",
        "Logic utilization",
        "DSP 18-bit",
        "Clock (MHz)",
        "Power (W)",
    ] {
        assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
    }
}

#[test]
fn figures_cover_all_four() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &[]);
    for needle in ["Figure 1", "Figure 2", "Figure 3", "Figure 4", "barrier releases"] {
        assert!(out.contains(needle), "missing `{needle}`");
    }
    // Selective mode.
    let only2 = run(env!("CARGO_BIN_EXE_figures"), &["figure2"]);
    assert!(only2.contains("Figure 2") && !only2.contains("Figure 3"));
}

#[test]
fn clinfo_lists_three_devices() {
    let out = run(env!("CARGO_BIN_EXE_clinfo"), &[]);
    assert!(out.contains("Number of devices: 3"));
    assert!(out.contains("Terasic DE4"));
    assert!(out.contains("GTX660"));
    assert!(out.contains("Xeon"));
}

#[test]
fn aoc_compiles_the_paper_kernel_and_reports_fit() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/kernels/optimized.cl");
    let out = run(
        env!("CARGO_BIN_EXE_aoc"),
        &[kernel, "--simd", "4", "--unroll", "2", "--define", "REAL=double"],
    );
    assert!(out.contains("Fitter summary"));
    assert!(out.contains("binomial_option"));
    assert!(out.contains("MHz"));
    // IR dump mode.
    let ir = run(env!("CARGO_BIN_EXE_aoc"), &[kernel, "--define", "REAL=double", "--dump-ir"]);
    assert!(ir.contains("kernel @binomial_option"));
    assert!(ir.contains("pow.double"));
}

#[test]
fn aoc_dumps_the_ssa_form_of_the_build_pipeline() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/kernels/optimized.cl");
    let out = run(env!("CARGO_BIN_EXE_aoc"), &[kernel, "--define", "REAL=double", "--dump-ssa"]);
    let (ssa, deltas) = out.split_once("Per-pass deltas").expect("per-pass deltas section");
    let ssa = ssa.split_once("SSA form").expect("SSA section").1;
    assert!(ssa.contains(" = phi."), "the SSA dump carries phi nodes:\n{ssa}");
    for pass in bop_clir::passes::Pipeline::for_build(false, false).passes() {
        assert!(deltas.contains(&format!("; {} ", pass.name)), "no `{}` in:\n{deltas}", pass.name);
    }
}

#[test]
fn aoc_rejects_bad_input_gracefully() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_aoc")).arg("/nonexistent.cl").output().expect("spawns");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_aoc")).arg("--help").output().expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn convergence_prints_the_sweep() {
    let out = run(env!("CARGO_BIN_EXE_convergence"), &[]);
    assert!(out.contains("lattice err"));
    assert!(out.contains("MC std err"));
}

#[test]
fn vol_surface_recovers_the_smile_in_both_modes() {
    let out = run(env!("CARGO_BIN_EXE_vol_surface"), &["--strikes", "5", "--expiries", "3"]);
    assert!(out.contains("inversions/s"));
    assert!(out.contains("K/S=1.00"), "surface slice printed");
    let json = run(
        env!("CARGO_BIN_EXE_vol_surface"),
        &["--strikes", "5", "--expiries", "3", "--repeats", "2", "--json"],
    );
    let report = bop_obs::ExperimentReport::from_json(&json).expect("valid schema");
    assert_eq!(report.experiment, "vol_surface");
    let rmse =
        report.rows.iter().find(|r| r.metric == "vol_surface.rmse").expect("rmse row").measured;
    assert!(rmse < 1e-7, "closed-form round trip must be tight, got {rmse}");
    assert_eq!(report.counters["vol_surface.nodes"], 15);
}

#[test]
fn serve_load_reports_the_mixed_greeks_workload() {
    let json = run(
        env!("CARGO_BIN_EXE_serve_load"),
        &[
            "--requests",
            "8",
            "--rate",
            "100000",
            "--request-options",
            "2",
            "--outputs",
            "price+greeks",
            "--payoffs",
            "mixed",
            "--shards",
            "1",
            "--steps",
            "16",
            "--json",
        ],
    );
    let report = bop_obs::ExperimentReport::from_json(&json).expect("valid schema");
    assert_eq!(report.experiment, "serve_load");
    assert!(report.counters["serve.greeks.options"] > 0, "greeks requests served");
    for payoff in ["european", "american", "barrier", "bermudan"] {
        assert!(
            report.counters[&format!("serve.payoff.{payoff}.options")] > 0,
            "{payoff} options served"
        );
    }
    assert!(report.rows.iter().any(|r| r.metric == "serve.options_per_j"));
    assert!(report.rows.iter().any(|r| r.metric == "serve.latency.p99"));
}

#[test]
fn json_mode_replaces_the_table_with_the_stable_schema() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--json"]);
    let report = bop_obs::ExperimentReport::from_json(&out).expect("valid schema");
    assert_eq!(report.experiment, "table1");
    assert!(report.rows.iter().any(|r| r.paper.is_some()), "paper-vs-measured rows");
    assert!(!out.contains("Table I"), "--json keeps stdout machine-parseable");
}

#[test]
fn json_out_writes_the_report_file() {
    let path = std::env::temp_dir().join("bop_bench_figures_report.json");
    let path_s = path.to_string_lossy().into_owned();
    let out = run(env!("CARGO_BIN_EXE_figures"), &["figure4", "--json-out", &path_s]);
    assert!(out.contains("Figure 4"), "human output is kept alongside --json-out");
    let text = std::fs::read_to_string(&path).expect("report file");
    let report = bop_obs::ExperimentReport::from_json(&text).expect("valid schema");
    assert_eq!(report.experiment, "figures");
    assert!(report.counters.contains_key("figure4.barriers"));
    std::fs::remove_file(&path).ok();
}

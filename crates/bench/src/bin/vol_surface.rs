//! Implied-volatility surface inversion benchmark.
//!
//! The paper's motivating trader (Section I) does not stop at prices:
//! the quoted surface is *implied volatility*, recovered by inverting a
//! pricing model at every (strike, expiry) node. This binary builds a
//! synthetic surface from a smile-plus-term-structure vol function,
//! prices every node with the closed form, inverts every price back
//! through [`bop_finance::bs_implied_volatility`], and reports recovery
//! accuracy and inversion throughput.
//!
//! ```text
//! vol_surface [--strikes N] [--expiries M] [--repeats R]
//!             [--json] [--json-out <path>]
//! ```
//!
//! The grid spans moneyness 0.70–1.30 and expiries 0.1–2.0 years; every
//! node must invert (a failed bracket or non-convergence is a hard
//! error) and the max |implied − true| over the grid is the headline
//! accuracy row.

use bop_bench::reporting::{ReportOpts, Stopwatch};
use bop_bench::{exit_usage, flag};
use bop_finance::{bs_implied_volatility, bs_price, ExerciseStyle, OptionParams};

struct SurfaceOpts {
    strikes: usize,
    expiries: usize,
    repeats: usize,
}

/// The synthetic market: an equity-style smile (quadratic in log
/// moneyness) decaying toward a long-run level with expiry.
fn true_vol(moneyness: f64, expiry: f64) -> f64 {
    let skew = moneyness.ln();
    0.20 + 0.45 * skew * skew / expiry.sqrt() - 0.035 * skew + 0.02 * (-expiry).exp()
}

fn node(spot: f64, moneyness: f64, expiry: f64) -> OptionParams {
    let mut o = OptionParams::example();
    o.style = ExerciseStyle::European;
    o.spot = spot;
    o.strike = spot * moneyness;
    o.expiry = expiry;
    o.volatility = true_vol(moneyness, expiry);
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report_opts = ReportOpts::from_args(&args);
    let count = |name: &str, default: usize| {
        flag(&args, name, default).unwrap_or_else(|e| exit_usage("vol_surface", &e))
    };
    let opts = SurfaceOpts {
        strikes: count("--strikes", 15),
        expiries: count("--expiries", 8),
        repeats: count("--repeats", 25),
    };
    let spot = 100.0;
    let grid: Vec<(f64, f64)> = (0..opts.expiries)
        .flat_map(|e| {
            let expiry = 0.1 + 1.9 * e as f64 / (opts.expiries - 1).max(1) as f64;
            (0..opts.strikes).map(move |s| {
                let moneyness = 0.70 + 0.60 * s as f64 / (opts.strikes - 1).max(1) as f64;
                (moneyness, expiry)
            })
        })
        .collect();
    eprintln!(
        "vol_surface: inverting a {} x {} node surface ({} repeats)...",
        opts.strikes, opts.expiries, opts.repeats
    );

    // Quote the surface, then invert it — the timed section is the
    // inversions only, repeated to get a stable per-node figure.
    let quotes: Vec<(OptionParams, f64)> = grid
        .iter()
        .map(|&(m, t)| {
            let o = node(spot, m, t);
            let price = bs_price(&o);
            (o, price)
        })
        .collect();
    let timer = Stopwatch::start();
    let mut implied = vec![0.0; quotes.len()];
    for _ in 0..opts.repeats.max(1) {
        for (i, (o, price)) in quotes.iter().enumerate() {
            implied[i] = bs_implied_volatility(o, *price).unwrap_or_else(|e| {
                panic!("node {:?} failed to invert: {e}", (o.strike, o.expiry))
            });
        }
    }
    let invert_s = timer.elapsed_s();
    let inversions = quotes.len() * opts.repeats.max(1);
    let inversions_per_s = inversions as f64 / invert_s;

    let errors: Vec<f64> =
        quotes.iter().zip(&implied).map(|((o, _), iv)| (iv - o.volatility).abs()).collect();
    let max_abs_error = errors.iter().cloned().fold(0.0, f64::max);
    let rmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();

    if !report_opts.suppress_human() {
        println!("vol_surface — Black-Scholes implied-volatility surface recovery\n");
        println!(
            "  {} nodes (moneyness 0.70–1.30 x expiry 0.1–2.0 y), {} inversions in {:.4} s",
            quotes.len(),
            inversions,
            invert_s
        );
        println!("  throughput: {inversions_per_s:.0} inversions/s");
        println!("  recovery:   max |implied - true| {max_abs_error:.2e}, rmse {rmse:.2e}\n");
        // A readable slice of the surface: one row per expiry, a few
        // strikes across.
        let shown: Vec<usize> = [0, opts.strikes / 2, opts.strikes - 1].to_vec();
        print!("  {:>8}", "expiry");
        for &s in &shown {
            let m = 0.70 + 0.60 * s as f64 / (opts.strikes - 1).max(1) as f64;
            print!("{:>12}", format!("K/S={m:.2}"));
        }
        println!();
        for e in 0..opts.expiries {
            let expiry = 0.1 + 1.9 * e as f64 / (opts.expiries - 1).max(1) as f64;
            print!("  {expiry:>8.2}");
            for &s in &shown {
                print!("{:>12.4}", implied[e * opts.strikes + s]);
            }
            println!();
        }
    }

    let mut report = bop_obs::ExperimentReport::new("vol_surface");
    report.push("vol_surface.inversions_per_s", None, inversions_per_s, "inversions/s");
    report.push("vol_surface.max_abs_error", None, max_abs_error, "vol");
    report.push("vol_surface.rmse", None, rmse, "vol");
    report.set_counter("vol_surface.nodes", quotes.len() as u64);
    report.set_counter("vol_surface.inversions", inversions as u64);
    report.wall_s = invert_s;
    report_opts.emit(report).expect("emit report");
}

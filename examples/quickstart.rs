//! Quickstart: price one American option on the simulated FPGA
//! accelerator and check it against the reference software.
//!
//! ```sh
//! cargo run --example quickstart
//! # or, to also dump the simulated timeline for chrome://tracing / Perfetto:
//! cargo run --example quickstart -- --trace-out trace.json
//! ```

use bop_core::{Accelerator, KernelArch, Precision};
use bop_finance::binomial::price_american_f64;
use bop_finance::OptionParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Optional `--trace-out <path>`: write the run's Chrome trace-event
    // JSON (host spans, queue commands, barrier phases) to `path`.
    let args: Vec<String> = std::env::args().collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).cloned().ok_or("--trace-out needs a path"))
        .transpose()?;

    // The option: an at-the-money one-year American call.
    let option = OptionParams::example();
    println!("pricing {option:?}\n");

    // The accelerator: the paper's kernel IV.B on the Terasic DE4 board,
    // with the published build options (unroll x2, vectorization x4).
    let n_steps = 256;
    let fpga = bop_core::devices::fpga();
    let accelerator = Accelerator::builder(fpga)
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(n_steps)
        .build()?;

    // The build report is the Table I story in miniature.
    let report = accelerator.report();
    println!("built for {}:", report.device);
    println!("  kernel clock      {:.2} MHz", report.clock_hz / 1e6);
    println!("  logic utilization {:.0}%", report.logic_utilization.unwrap_or(0.0) * 100.0);
    println!("  estimated power   {:.1} W\n", report.power_watts);

    // Price it (functional simulation: the kernel really executes, through
    // the compiled IR, with the FPGA's reduced-precision pow).
    let (run, trace) = accelerator.price_with_session_trace(&[option])?;
    if let Some(path) = &trace_out {
        std::fs::write(path, trace.to_chrome_json().to_string())?;
        println!("wrote simulated timeline to {path} (load in chrome://tracing)\n");
    }
    let reference = price_american_f64(&option, n_steps);
    println!("accelerator price  {:.6}", run.prices[0]);
    println!("reference price    {:.6}", reference);
    println!(
        "difference         {:+.2e}   <- the Altera 13.0 pow operator at work",
        run.prices[0] - reference
    );
    println!("simulated time     {:.3} ms", run.elapsed_s * 1e3);

    // Paper-scale projection: what Table II reports.
    let projection = accelerator.project(2000)?;
    println!("\nprojected for a 2000-option batch at N = {n_steps}:");
    println!("  throughput        {:.0} options/s", projection.options_per_s);
    println!("  energy efficiency {:.1} options/J", projection.options_per_j);

    // The trader's next step after prices: sensitivities off the same tree.
    let greeks = bop_finance::lattice_greeks(&option, n_steps);
    println!("\ngreeks (lattice estimators):");
    println!(
        "  delta {:+.4}   gamma {:+.5}   theta {:+.4}/y   vega {:+.3}   rho {:+.3}",
        greeks.delta, greeks.gamma, greeks.theta, greeks.vega, greeks.rho
    );
    Ok(())
}

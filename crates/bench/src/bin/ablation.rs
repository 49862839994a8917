//! Design-choice ablations (Sections IV-V + conclusion).
//!
//! `--json-out <path>` / `--json` emit the machine-readable report.
use bop_bench::reporting::{slug, ReportOpts, Stopwatch};
use bop_core::experiments::ablation;
use bop_obs::ExperimentReport;

fn main() {
    let opts = ReportOpts::from_env();
    let timer = Stopwatch::start();
    let human = !opts.suppress_human();
    let mut report = ExperimentReport::new("ablation");

    if human {
        println!("== A. Reduced host-device reads (kernel IV.A, Section V.C) ==\n");
    }
    for device in [bop_core::devices::gpu(), bop_core::devices::fpga()] {
        let r = ablation::reduced_reads(device, 512, 512).expect("runs");
        if human {
            println!(
                "{:<40} naive {:>8.1} options/s   root-only {:>8.1} options/s   speedup {:>5.1}x",
                r.device,
                r.naive_options_per_s,
                r.modified_options_per_s,
                r.speedup()
            );
        }
        let s = slug(&r.device);
        report.push(format!("reduced_reads.{s}.naive"), None, r.naive_options_per_s, "options/s");
        report.push(
            format!("reduced_reads.{s}.modified"),
            None,
            r.modified_options_per_s,
            "options/s",
        );
        // The paper reports the modified GPU version 14x faster.
        let paper = if s.contains("gtx") || s.contains("gpu") { Some(14.0) } else { None };
        report.push(format!("reduced_reads.{s}.speedup"), paper, r.speedup(), "x");
    }
    if human {
        println!("\n(paper: modified GPU version 14x faster — 840 vs 58.4 options/s)\n");
        println!("== B. Build-option exploration (kernel IV.B on the FPGA, Section V.B) ==\n");
        println!(
            "{:>6}{:>8}{:>10}{:>12}{:>10}{:>14}{:>14}",
            "simd", "unroll", "logic", "clock MHz", "power W", "options/s", "options/J"
        );
    }
    let grid = ablation::build_grid(256, 1000, &[1, 2, 4, 8, 16], &[1, 2, 4]).expect("explores");
    let mut fits = 0u64;
    for p in &grid {
        let simd = p.build.simd;
        let unroll = p.build.unroll.unwrap_or(1);
        match &p.outcome {
            Some(o) => {
                if human {
                    println!(
                        "{:>6}{:>8}{:>9.0}%{:>12.2}{:>10.1}{:>14.0}{:>14.1}",
                        simd,
                        unroll,
                        o.logic_util * 100.0,
                        o.clock_hz / 1e6,
                        o.power_watts,
                        o.options_per_s,
                        o.options_per_j
                    );
                }
                fits += 1;
                report.push(
                    format!("build_grid.simd_{simd}_unroll_{unroll}.options_per_j"),
                    None,
                    o.options_per_j,
                    "options/J",
                );
            }
            None => {
                if human {
                    println!("{:>6}{:>8}{:>44}", simd, unroll, "--- does not fit ---");
                }
            }
        }
    }
    report.set_counter("build_grid.points", grid.len() as u64);
    report.set_counter("build_grid.fits", fits);
    if human {
        println!("\n(the paper chose unroll 2 x vec 4 \"after several compilation iterations\")\n");
        println!("== C. Clock derating toward the 10 W budget (conclusion) ==\n");
        println!(
            "{:>8}{:>14}{:>10}{:>14}{:>8}{:>9}",
            "clock", "options/s", "power W", "options/J", "goal", "budget"
        );
    }
    let points = ablation::frequency_sweep(256, 1000, &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
        .expect("sweeps");
    for p in points {
        if human {
            println!(
                "{:>7.0}%{:>14.0}{:>10.1}{:>14.1}{:>8}{:>9}",
                p.clock_fraction * 100.0,
                p.options_per_s,
                p.power_watts,
                p.options_per_j,
                if p.meets_goal { "yes" } else { "no" },
                if p.within_budget { "yes" } else { "no" }
            );
        }
        let pct = (p.clock_fraction * 100.0).round() as u64;
        report.push(format!("derating.clock_{pct}.power"), None, p.power_watts, "W");
    }
    if human {
        println!("\n(note: options/s here are at N = 256 for speed; the goal column uses the paper's 2000/s)\n");
        println!("== D. CSE (area optimisation left out of the calibrated flow) ==\n");
        println!(
            "{:<28}{:>12}{:>12}{:>14}{:>14}",
            "kernel", "logic", "logic+CSE", "clock MHz", "clock+CSE"
        );
    }
    for row in ablation::cse_ablation().expect("fits") {
        if human {
            println!(
                "{:<28}{:>11.0}%{:>11.0}%{:>14.2}{:>14.2}",
                row.arch.to_string(),
                row.plain.logic_util * 100.0,
                row.cse.logic_util * 100.0,
                row.plain.clock_hz / 1e6,
                row.cse.clock_hz / 1e6
            );
        }
        let s = slug(&row.arch.to_string());
        report.push(format!("cse.{s}.logic_util_plain"), None, row.plain.logic_util, "fraction");
        report.push(format!("cse.{s}.logic_util_cse"), None, row.cse.logic_util, "fraction");
    }

    if human {
        println!(
            "\n== E. Fixed-point datapath (the \"custom data types\" the paper declined) ==\n"
        );
    }
    let fixed = ablation::fixed_point(256).expect("runs");
    if human {
        println!("{:>12}{:>16}", "frac bits", "abs error");
    }
    for p in &fixed.sweep {
        if human {
            println!("{:>12}{:>16.2e}", p.frac_bits, p.abs_error);
        }
        report.push(
            format!("fixed_point.frac_{}.abs_error", p.frac_bits),
            None,
            p.abs_error,
            "USD",
        );
    }
    if human {
        println!(
            "\nDSP elements: {} (double datapath) -> ~{} (64-bit fixed-point estimate)",
            fixed.double_dsp, fixed.fixed_dsp_estimate
        );
        println!("\n== F. The conclusion's what-if: a newer board, derated (N = 1023) ==\n");
    }
    let w = ablation::conclusion_whatif(1023).expect("runs");
    if human {
        println!(
            "Stratix V GX A7 at full clock:    {:.0} options/s, {:.1} W",
            w.full_options_per_s, w.full_power_w
        );
        println!(
            "derated to {:.0}% of Fmax:          {:.0} options/s, {:.1} W  -> both constraints {}",
            w.derated_fraction * 100.0,
            w.derated_options_per_s,
            w.derated_power_w,
            if w.feasible { "MET" } else { "missed" }
        );
    }
    report.push("whatif.derated.options_per_s", Some(2000.0), w.derated_options_per_s, "options/s");
    report.push("whatif.derated.power", Some(10.0), w.derated_power_w, "W");
    report.set_counter("whatif.feasible", u64::from(w.feasible));

    report.wall_s = timer.elapsed_s();
    opts.emit(report).expect("emit report");
}

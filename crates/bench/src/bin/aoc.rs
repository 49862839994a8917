//! `aoc` — an offline kernel compiler in the style of Altera's `aoc`.
//!
//! Compiles an OpenCL C file through the in-tree front-end, fits it on the
//! Stratix IV model, and prints a Quartus-style fit report plus (optionally)
//! the lowered IR.
//!
//! ```sh
//! cargo run -p bop-bench --bin aoc -- crates/core/kernels/optimized.cl \
//!     --simd 4 --unroll 2 --define REAL=double --dump-ir
//! ```

use bop_clir::passes::Pipeline;
use bop_ocl::{BuildOptions, Context, Program};
use std::process::ExitCode;

struct Args {
    path: String,
    build: BuildOptions,
    defines: Vec<(String, String)>,
    dump_ir: bool,
    dump_ssa: bool,
    dump_bytecode: bool,
    part: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        build: BuildOptions::default(),
        defines: Vec::new(),
        dump_ir: false,
        dump_ssa: false,
        dump_bytecode: false,
        part: "ep4sgx530".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--simd" => {
                args.build.simd = value("--simd")?.parse().map_err(|e| format!("--simd: {e}"))?
            }
            "--cu" => {
                args.build.compute_units =
                    value("--cu")?.parse().map_err(|e| format!("--cu: {e}"))?
            }
            "--unroll" => {
                args.build.unroll =
                    Some(value("--unroll")?.parse().map_err(|e| format!("--unroll: {e}"))?)
            }
            "--cse" => args.build.cse = true,
            "--no-opt" => args.build.no_opt = true,
            "--dump-ir" => args.dump_ir = true,
            "--dump-ssa" => args.dump_ssa = true,
            "--dump-bytecode" => args.dump_bytecode = true,
            "--part" => args.part = value("--part")?,
            "--define" | "-D" => {
                let d = value("--define")?;
                let (k, v) = d
                    .split_once('=')
                    .ok_or_else(|| format!("--define expects NAME=VALUE, got `{d}`"))?;
                args.defines.push((k.to_owned(), v.to_owned()));
            }
            "--help" | "-h" => {
                return Err("usage: aoc <file.cl> [--simd N] [--cu N] [--unroll N] \
                            [--cse] [--no-opt] [--dump-ir] [--dump-ssa] [--dump-bytecode] \
                            [--part ep4sgx530|ep4sgx230] [--define NAME=VALUE]..."
                    .into())
            }
            other if !other.starts_with('-') && args.path.is_empty() => args.path = a,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.path.is_empty() {
        return Err("no input file (try --help)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut source = match std::fs::read_to_string(&args.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    for (k, v) in &args.defines {
        source = source.replace(k, v);
    }
    let part = match args.part.as_str() {
        "ep4sgx530" => bop_fpga::FpgaPart::ep4sgx530(),
        "ep4sgx230" => bop_fpga::FpgaPart::ep4sgx230(),
        other => {
            eprintln!("unknown part `{other}` (ep4sgx530 | ep4sgx230)");
            return ExitCode::FAILURE;
        }
    };
    let device =
        bop_fpga::FpgaDevice::with_part(part, bop_clir::mathlib::DeviceMath::altera_13_0());
    let part_name = device.part().name.clone();
    let caps = device.part().clone();
    let ctx = Context::new(device);
    let program = match Program::from_source(&ctx, &args.path, &source, &args.build) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    let report = program.report();
    let res = report.resources.expect("FPGA builds carry resources");

    println!("aoc: {} -> {}", args.path, part_name);
    println!(
        "build options: simd={} cu={} unroll={:?} cse={}",
        args.build.simd, args.build.compute_units, args.build.unroll, args.build.cse
    );
    println!("\n;---- Fitter summary ----------------------------------------");
    let pct = |used: u64, cap: u64| 100.0 * used as f64 / cap as f64;
    println!(
        "; Logic (ALUTs)      : {:>9} / {:>9} ({:.0} %)",
        res.aluts,
        caps.aluts,
        pct(res.aluts, caps.aluts)
    );
    println!(
        "; Registers          : {:>9} / {:>9} ({:.0} %)",
        res.registers,
        caps.registers,
        pct(res.registers, caps.registers)
    );
    println!(
        "; Memory bits        : {:>9} / {:>9} ({:.0} %)",
        res.memory_bits,
        caps.memory_bits,
        pct(res.memory_bits, caps.memory_bits)
    );
    println!(
        "; M9K blocks         : {:>9} / {:>9} ({:.0} %)",
        res.m9k_blocks,
        caps.m9k_blocks,
        pct(res.m9k_blocks, caps.m9k_blocks)
    );
    println!("; M144K blocks       : {:>9} / {:>9}", res.m144k_blocks, caps.m144k_blocks);
    println!(
        "; DSP 18-bit elements: {:>9} / {:>9} ({:.0} %)",
        res.dsp18,
        caps.dsp18,
        pct(res.dsp18, caps.dsp18)
    );
    println!("; Kernel clock       : {:>12.2} MHz", report.clock_hz / 1e6);
    println!("; Estimated power    : {:>12.1} W", report.power_watts);
    println!("; Kernels            : {}", report.kernels.join(", "));

    println!("\n;---- Optimisation passes -----------------------------------");
    print!("{}", program.pass_report());

    if args.dump_ssa {
        // Re-run the front-end and the build pipeline up to `out-of-ssa`:
        // the build continues past it, so the phi-carrying module has to
        // be reconstructed here.
        let clc_options =
            bop_clc::Options { unroll_override: args.build.unroll, ..bop_clc::Options::default() };
        match bop_clc::compile(&args.path, &source, &clc_options) {
            Ok(module) => {
                let build = Pipeline::for_build(args.build.no_opt, args.build.cse);
                let prefix = build.passes().iter().take_while(|p| p.name != "out-of-ssa");
                let (ssa, _) = Pipeline::new("ssa-dump", prefix.copied().collect()).run(module);
                println!("\n;---- SSA form (before out-of-ssa, phi nodes live) ----------");
                print!("{ssa}");
            }
            Err(e) => eprintln!("--dump-ssa: front-end re-run failed: {e}"),
        }
        println!("\n;---- Per-pass deltas ---------------------------------------");
        for p in &program.pass_report().passes {
            let removed = p.insts_before.saturating_sub(p.insts_after);
            println!(
                "; {:<18} {:>3} inst(s) removed, {:>2} block(s) merged, \
                 {:>2} local(s) promoted",
                p.name,
                removed,
                p.blocks_merged(),
                p.locals_promoted()
            );
        }
        println!(
            "; total: {} instruction(s) removed by pipeline `{}`",
            program.pass_report().insts_removed(),
            program.pass_report().pipeline
        );
    }
    if args.dump_ir {
        println!("\n;---- Lowered IR --------------------------------------------");
        print!("{}", program.module());
    }
    if args.dump_bytecode {
        println!("\n;---- Register bytecode -------------------------------------");
        for name in &report.kernels {
            if let Some(compiled) = program.compiled_kernel(name) {
                print!("{compiled}");
            }
        }
    }
    ExitCode::SUCCESS
}

//! # bop-clc — an OpenCL C subset compiler front-end
//!
//! This crate stands in for Altera's OpenCL kernel compiler in the DATE 2014
//! reproduction: it turns OpenCL C kernel sources into the `bop-clir`
//! dataflow IR that the simulated devices (FPGA/GPU/CPU) consume. The
//! front-end is classic:
//!
//! ```text
//! source --lex--> tokens --parse--> AST --lower--> IR --verify--> IR
//! ```
//!
//! The accepted language is the subset needed for high-throughput numeric
//! kernels (and a little more): scalar types (`bool`, `int`, `uint`,
//! `long`, `ulong`, `size_t`, `float`, `double`), pointers with OpenCL
//! address-space qualifiers, private fixed-size arrays, the full C
//! expression grammar (including `?:`, compound assignment, short-circuit
//! `&&`/`||` and `++`/`--`), `if`/`for`/`while`/`do-while`/`break`/
//! `continue`, `#pragma unroll`, work-item builtins, `barrier(...)` and
//! the math builtins `exp`, `log`, `pow`, `sqrt`, `fmax`, `fmin`, `fabs`,
//! `floor`, `min`, `max`. The front-end only lowers: every optimisation
//! (constant folding, opt-in CSE, DCE, the SSA passes) runs once, in the
//! build pipeline, [`Pipeline::for_build`](bop_clir::passes::Pipeline::for_build).
//!
//! Unsupported (diagnosed, not silently ignored): user-defined helper
//! functions, structs, vector types, `switch`, `goto`, and taking addresses
//! of locals.
//!
//! ## Example
//!
//! ```
//! use bop_clc::{compile, Options};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     __kernel void scale(__global const double* in, __global double* out, double k) {
//!         size_t gid = get_global_id(0);
//!         out[gid] = k * in[gid];
//!     }
//! "#;
//! let module = compile("scale.cl", src, &Options::default())?;
//! assert!(module.kernel("scale").is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod token;

pub use diag::{CompileError, Diag, Pos};

use bop_clir::ir::Module;

/// Front-end options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// If set, overrides the factor of every `#pragma unroll` loop in the
    /// source. This models re-compiling the same kernel with a different
    /// unroll directive, as the paper's design-space exploration does.
    pub unroll_override: Option<u32>,
    /// Ignored: the front-end no longer optimises.
    #[deprecated(
        note = "ignored; the build pipeline optimises, see `bop_ocl::BuildOptions::no_opt`"
    )]
    pub no_opt: bool,
    /// Ignored: the front-end no longer optimises.
    #[deprecated(note = "ignored; the build pipeline runs CSE, see `bop_ocl::BuildOptions::cse`")]
    pub cse: bool,
}

/// Compile OpenCL C source into an unoptimised, verified IR [`Module`].
///
/// # Errors
/// Returns a [`CompileError`] carrying one or more positioned diagnostics
/// if the source fails to lex, parse or type-check.
pub fn compile(source_name: &str, source: &str, options: &Options) -> Result<Module, CompileError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    let module = lower::lower_unit(source_name, &unit, options)?;
    bop_clir::verify::verify_module(&module).map_err(|e| {
        CompileError::single(Pos::default(), format!("internal: verifier rejected lowered IR: {e}"))
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let m = compile(
            "t.cl",
            "__kernel void k(__global double* o) { o[get_global_id(0)] = 1.0; }",
            &Options::default(),
        )
        .expect("compiles");
        assert_eq!(m.kernels().count(), 1);
    }

    #[test]
    fn compile_error_carries_position() {
        let err = compile(
            "t.cl",
            "__kernel void k(__global double* o) { o[0] = ; }",
            &Options::default(),
        )
        .expect_err("syntax error");
        assert!(!err.diags().is_empty());
        assert!(err.diags()[0].pos.line > 0);
    }
}

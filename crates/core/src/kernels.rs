//! Kernel sources and precision instantiation.
//!
//! The `.cl` sources are written against a `REAL` scalar type; this module
//! instantiates them for `double` or `float` (the paper evaluates both
//! precisions) by textual substitution — the job OpenCL programs usually
//! do with `-D` build defines.

use bop_cpu::Precision;
use std::fmt;

/// The paper's two kernel architectures (plus the Section V.C fallback
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelArch {
    /// Section IV.A: one work-item per tree node, global ping-pong
    /// buffers, one host-driven batch per time step.
    Straightforward,
    /// Section IV.B: one work-group per option, one work-item per tree
    /// row, local-memory V row, device-side leaf initialisation (pow).
    Optimized,
    /// Section V.C fallback: kernel IV.B with host-computed leaves,
    /// avoiding the device `pow` at the cost of extra transfers.
    OptimizedHostLeaves,
    /// Extension beyond the paper: kernel IV.B's dataflow with the
    /// early-exercise max removed — European options, whose lattice price
    /// must converge to Black-Scholes (the cleanest whole-stack check).
    OptimizedEuropean,
    /// Extension beyond the paper (market-risk suite): kernel IV.B's
    /// dataflow with a knock-out barrier monitored at every node. The
    /// per-option parameter block widens to 8 values (barrier level and
    /// knock direction ride along).
    Barrier,
    /// Extension beyond the paper (market-risk suite): kernel IV.B's
    /// dataflow with early exercise restricted to every k-th lattice
    /// date. The per-option parameter block widens to 8 values.
    Bermudan,
    /// Section IV.C: the streaming architecture — two single-work-item
    /// task kernels (leaf producer, induction consumer) connected by an
    /// on-chip pipe and launched as one graph. Leaf values stream through
    /// the FIFO instead of global/local memory; the whole tree is priced
    /// device-resident with zero host round-trips between levels.
    /// Bit-identical to IV.B on the same device math.
    Streaming,
}

impl KernelArch {
    /// The kernel's entry-point name.
    pub fn kernel_name(self) -> &'static str {
        match self {
            KernelArch::Straightforward => "binomial_node",
            KernelArch::Optimized => "binomial_option",
            KernelArch::OptimizedHostLeaves => "binomial_option_hostleaves",
            KernelArch::OptimizedEuropean => "binomial_european",
            KernelArch::Barrier => "binomial_barrier",
            KernelArch::Bermudan => "binomial_bermudan",
            // The consumer carries the results and therefore the stats
            // callers care about; the producer is
            // [`KernelArch::STREAMING_PRODUCER`].
            KernelArch::Streaming => "binomial_stream_consumer",
        }
    }

    /// The producer half of the [`KernelArch::Streaming`] pair (the
    /// consumer half is its [`KernelArch::kernel_name`]).
    pub const STREAMING_PRODUCER: &'static str = "binomial_leaf_producer";

    /// The raw (`REAL`-typed) source.
    pub fn raw_source(self) -> &'static str {
        match self {
            KernelArch::Straightforward => include_str!("../kernels/straightforward.cl"),
            KernelArch::Optimized => include_str!("../kernels/optimized.cl"),
            KernelArch::OptimizedHostLeaves => include_str!("../kernels/optimized_hostleaves.cl"),
            KernelArch::OptimizedEuropean => include_str!("../kernels/european.cl"),
            KernelArch::Barrier => include_str!("../kernels/barrier.cl"),
            KernelArch::Bermudan => include_str!("../kernels/bermudan.cl"),
            KernelArch::Streaming => include_str!("../kernels/streaming.cl"),
        }
    }

    /// The source instantiated at `precision`. The streaming kernel's
    /// private row length defaults to the paper's 1024; size it to the
    /// lattice with [`KernelArch::source_sized`].
    pub fn source(self, precision: Precision) -> String {
        self.source_sized(precision, 1023)
    }

    /// The source instantiated at `precision` for an `n_steps` lattice.
    /// Only the streaming kernel is lattice-sized (its private rows hold
    /// `n_steps + 1` values, substituted for `PRIVN`); every other
    /// architecture takes the lattice size as a runtime argument.
    pub fn source_sized(self, precision: Precision, n_steps: usize) -> String {
        let real = match precision {
            Precision::Double => "double",
            Precision::Single => "float",
        };
        let src = self.raw_source().replace("REAL", real);
        match self {
            KernelArch::Streaming => src.replace("PRIVN", &(n_steps + 1).to_string()),
            _ => src,
        }
    }

    /// The paper's published build options for this architecture
    /// (Section V.B): IV.A vectorized x2 + replicated x3; IV.B unrolled
    /// x2 + vectorized x4.
    pub fn paper_build_options(self) -> bop_ocl::BuildOptions {
        match self {
            KernelArch::Straightforward => bop_ocl::BuildOptions::paper_straightforward(),
            KernelArch::Optimized
            | KernelArch::OptimizedHostLeaves
            | KernelArch::OptimizedEuropean
            | KernelArch::Barrier
            | KernelArch::Bermudan => bop_ocl::BuildOptions::paper_optimized(),
            // Single-work-item tasks: no SIMD lanes or replication to
            // vectorize over; the pipeline depth does the work.
            KernelArch::Streaming => bop_ocl::BuildOptions::default(),
        }
    }
}

impl fmt::Display for KernelArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelArch::Straightforward => "IV.A straightforward",
            KernelArch::Optimized => "IV.B optimized",
            KernelArch::OptimizedHostLeaves => "IV.B optimized (host leaves)",
            KernelArch::OptimizedEuropean => "IV.B optimized (European)",
            KernelArch::Barrier => "IV.B optimized (barrier)",
            KernelArch::Bermudan => "IV.B optimized (Bermudan)",
            KernelArch::Streaming => "IV.C streaming",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_compile_in_both_precisions() {
        for arch in [
            KernelArch::Straightforward,
            KernelArch::Optimized,
            KernelArch::OptimizedHostLeaves,
            KernelArch::OptimizedEuropean,
            KernelArch::Barrier,
            KernelArch::Bermudan,
            KernelArch::Streaming,
        ] {
            for precision in [Precision::Double, Precision::Single] {
                let src = arch.source(precision);
                assert!(!src.contains("REAL"), "substitution incomplete for {arch}");
                assert!(!src.contains("PRIVN"), "row sizing incomplete for {arch}");
                let m = bop_clc::compile("k.cl", &src, &bop_clc::Options::default())
                    .unwrap_or_else(|e| panic!("{arch} at {precision:?} fails to compile: {e}"));
                assert!(m.kernel(arch.kernel_name()).is_some());
            }
        }
    }

    #[test]
    fn streaming_pair_communicates_through_a_pipe_only() {
        use bop_clir::ir::Inst;
        use bop_clir::types::{AddressSpace, Type};
        let m = bop_clc::compile(
            "k.cl",
            &KernelArch::Streaming.source_sized(Precision::Double, 64),
            &Default::default(),
        )
        .expect("compiles");
        for name in [KernelArch::STREAMING_PRODUCER, KernelArch::Streaming.kernel_name()] {
            let f = m.kernel(name).expect("kernel");
            assert!(
                f.params.iter().any(|p| matches!(p.ty, Type::Ptr(AddressSpace::Pipe, _))),
                "{name} takes a pipe"
            );
        }
        let producer = m.kernel(KernelArch::STREAMING_PRODUCER).expect("kernel");
        let writes = producer
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::PipeWrite { .. }));
        let stores =
            producer.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Store { .. }));
        assert!(writes, "producer streams leaves into the pipe");
        assert!(!stores, "producer never touches global memory for leaves");
    }

    #[test]
    fn optimized_kernel_uses_pow_and_barriers_but_straightforward_does_not() {
        use bop_clir::ir::{Builtin, Inst};
        let check = |arch: KernelArch| {
            let m = bop_clc::compile("k.cl", &arch.source(Precision::Double), &Default::default())
                .expect("compiles");
            let f = m.kernel(arch.kernel_name()).expect("kernel").clone();
            let has_pow = f.blocks.iter().any(|b| {
                b.insts.iter().any(|i| matches!(i, Inst::Call { func: Builtin::Pow, .. }))
            });
            (has_pow, f.has_barrier())
        };
        assert_eq!(check(KernelArch::Optimized), (true, true));
        assert_eq!(check(KernelArch::Straightforward), (false, false));
        assert_eq!(check(KernelArch::OptimizedHostLeaves), (false, true));
        assert_eq!(check(KernelArch::Barrier), (true, true));
        assert_eq!(check(KernelArch::Bermudan), (true, true));
    }

    #[test]
    fn param_block_widths_match_the_kernel_sources() {
        // The IV.B host writes the 6-value coefficient block, plus the
        // two payoff slots for the payoff kernels.
        let o = bop_finance::types::OptionParams::example();
        let vanilla = crate::hostprog::option_coefficients(&o, 8).len();
        let extras =
            crate::hostprog::optimized::payoff_extras(bop_finance::payoff::Payoff::American);
        assert_eq!((vanilla, vanilla + extras.len()), (6, 8));
        for arch in [KernelArch::Barrier, KernelArch::Bermudan] {
            assert!(arch.raw_source().contains("o * 8"), "{arch} reads 8-wide blocks");
        }
        for arch in [KernelArch::Optimized, KernelArch::OptimizedEuropean] {
            assert!(arch.raw_source().contains("o * 6"), "{arch} reads 6-wide blocks");
        }
    }

    #[test]
    fn paper_build_options_match_section_5b() {
        let a = KernelArch::Straightforward.paper_build_options();
        assert_eq!((a.simd, a.compute_units), (2, 3));
        let b = KernelArch::Optimized.paper_build_options();
        assert_eq!((b.simd, b.compute_units, b.unroll), (4, 1, Some(2)));
    }
}

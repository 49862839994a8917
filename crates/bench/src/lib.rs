//! # bop-bench — the experiment and benchmark harness
//!
//! Besides the small [`reporting`] library shared by the binaries, this
//! crate hosts one **binary per paper artifact** (see `src/bin/`):
//! `table1`, `table2`, `figures`, `saturation`, `accuracy`, `usecase`,
//! `ablation`, `convergence`, plus the developer tools `aoc` (offline
//! kernel compiler) and `clinfo` (platform dump) — each prints the
//! rows/series the paper reports, with the paper's numbers alongside.
//!
//! `EXPERIMENTS.md` at the workspace root records paper-vs-measured for
//! every artifact these binaries regenerate.

#![warn(missing_docs)]

pub mod reporting;

/// The paper's full citation, for reports and `--help` texts.
pub const PAPER_CITATION: &str = "V. Mena Morales, P.-H. Horrein, A. Baghdadi, E. Hochapfel, \
     S. Vaton, \"Energy-Efficient FPGA Implementation for Binomial Option Pricing Using \
     OpenCL\", DATE 2014";

#[cfg(test)]
mod tests {
    #[test]
    fn citation_names_the_venue() {
        assert!(super::PAPER_CITATION.contains("DATE 2014"));
    }
}

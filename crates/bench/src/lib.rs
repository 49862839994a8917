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

/// The value after `--name` in `args`, parsed, or `None` when the flag
/// is absent: the one flag parser of the bench binaries.
///
/// # Errors
/// A message naming the flag when its value is missing or does not
/// parse; binaries print it and exit 2 (see [`exit_usage`]).
pub fn flag_opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == name) else { return Ok(None) };
    let value = args.get(at + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{name}: cannot parse `{value}`"))
}

/// [`flag_opt`] with a `default` for an absent flag.
///
/// # Errors
/// As [`flag_opt`].
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(flag_opt(args, name)?.unwrap_or(default))
}

/// Print `bin: message` to stderr and exit with status 2, the bench
/// binaries' answer to a bad command line.
pub fn exit_usage(bin: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citation_names_the_venue() {
        assert!(super::PAPER_CITATION.contains("DATE 2014"));
    }

    #[test]
    fn flags_parse_default_or_fail_with_the_flag_name() {
        let args: Vec<String> = ["--requests", "12", "--rate", "two", "--faults"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--requests", 200), Ok(12));
        assert_eq!(flag(&args, "--shards", 2), Ok(2), "absent: the default");
        assert_eq!(flag_opt::<u64>(&args, "--deadline-ms"), Ok(None));
        let bad = flag(&args, "--rate", 1.0).expect_err("unparsable value");
        assert!(bad.contains("--rate") && bad.contains("two"), "{bad}");
        let missing = flag(&args, "--faults", 0.0).expect_err("no value");
        assert!(missing.contains("--faults"), "{missing}");
    }
}

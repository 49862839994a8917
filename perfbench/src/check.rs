//! Output checks: every price and Greek the benchmark receives is compared
//! with the host reference pricer of `bop-finance`.

use bop_finance::greeks::{lattice_greeks_payoff, Greeks};
use bop_finance::payoff::{price_payoff_f64, Payoff};
use bop_finance::types::OptionParams;

/// Price tolerance on the GPU model, whose device math is exact: only
/// the order of floating-point operations differs from the host.
pub const GPU_PRICE_TOL: f64 = 1e-9;

/// Price tolerance on the FPGA model, which reproduces the Altera 13.0
/// `pow` operator's error (about 2e-4 at N = 64-128, about 1e-3 RMSE at
/// the paper's N = 1024).
pub const FPGA_PRICE_TOL: f64 = 1e-3;

/// Tolerance on vega and rho, which are bump-and-reprice finite
/// differences over a 2e-4 bump of device prices.
pub const BUMP_GREEK_TOL: f64 = 1e-4;

/// Whether `price` is within `tol` of the host reference for `params`
/// under `payoff` on an `n_steps` lattice.
pub fn price_ok(
    price: f64,
    params: &OptionParams,
    payoff: Payoff,
    n_steps: usize,
    tol: f64,
) -> bool {
    (price - price_payoff_f64(params, payoff, n_steps)).abs() <= tol
}

/// Whether `greeks` match the host lattice Greeks: delta, gamma and theta
/// come from the host lattice in both paths, vega and rho are finite
/// differences of device prices.
pub fn greeks_ok(greeks: &Greeks, params: &OptionParams, payoff: Payoff, n_steps: usize) -> bool {
    let r = lattice_greeks_payoff(params, payoff, n_steps);
    let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol;
    close(greeks.price, r.price, GPU_PRICE_TOL)
        && close(greeks.delta, r.delta, GPU_PRICE_TOL)
        && close(greeks.gamma, r.gamma, GPU_PRICE_TOL)
        && close(greeks.theta, r.theta, GPU_PRICE_TOL)
        && close(greeks.vega, r.vega, BUMP_GREEK_TOL)
        && close(greeks.rho, r.rho, BUMP_GREEK_TOL)
}

/// Prove the checks can fail: an exact price and exact Greeks pass, and
/// the same values perturbed by one cent (price) or 1e-3 (vega) do not.
///
/// # Errors
/// Names the check that accepted a perturbed value.
pub fn self_test() -> Result<(), String> {
    let params = OptionParams::example();
    let n = 32;
    for payoff in [Payoff::American, Payoff::Bermudan { exercise_every: 4 }] {
        let exact = price_payoff_f64(&params, payoff, n);
        if !price_ok(exact, &params, payoff, n, GPU_PRICE_TOL) {
            return Err(format!("{payoff}: the exact price fails the check"));
        }
        if price_ok(exact + 0.01, &params, payoff, n, FPGA_PRICE_TOL) {
            return Err(format!("{payoff}: a price one cent off passes the check"));
        }
        let greeks = lattice_greeks_payoff(&params, payoff, n);
        if !greeks_ok(&greeks, &params, payoff, n) {
            return Err(format!("{payoff}: the exact Greeks fail the check"));
        }
        let perturbed = Greeks { vega: greeks.vega + 1e-3, ..greeks };
        if greeks_ok(&perturbed, &params, payoff, n) {
            return Err(format!("{payoff}: a perturbed vega passes the check"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn perturbed_outputs_fail_the_check() {
        super::self_test().expect("the checks reject perturbed outputs");
    }
}

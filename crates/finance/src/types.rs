//! Option parameter types.

use std::fmt;

/// Call (right to buy) or put (right to sell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionKind {
    /// Right to buy at the strike.
    Call,
    /// Right to sell at the strike.
    Put,
}

impl OptionKind {
    /// The payoff sign `phi`: `+1` for calls, `-1` for puts, so the payoff
    /// is `max(phi (S - K), 0)`.
    pub fn phi(self) -> f64 {
        match self {
            OptionKind::Call => 1.0,
            OptionKind::Put => -1.0,
        }
    }
}

impl fmt::Display for OptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptionKind::Call => "call",
            OptionKind::Put => "put",
        })
    }
}

/// European (exercise at expiry) or American (exercise any time) — the
/// latter is what makes the problem lattice-shaped, per the paper's
/// Section III.A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExerciseStyle {
    /// Exercisable only at expiry.
    European,
    /// Exercisable at any time up to expiry.
    American,
}

/// A vanilla option to price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionParams {
    /// Spot price of the underlying, `S0`.
    pub spot: f64,
    /// Strike price, `K`.
    pub strike: f64,
    /// Annualised volatility, `sigma`.
    pub volatility: f64,
    /// Continuously-compounded risk-free rate, `r`.
    pub rate: f64,
    /// Time to expiry in years, `T`.
    pub expiry: f64,
    /// Continuous dividend yield of the underlying, `q` (zero for the
    /// paper's workloads; early exercise of American calls only pays when
    /// this is positive).
    pub dividend_yield: f64,
    /// Call or put.
    pub kind: OptionKind,
    /// European or American.
    pub style: ExerciseStyle,
}

impl OptionParams {
    /// An at-the-money American call with textbook market parameters —
    /// handy as a starting point in examples and tests.
    pub fn example() -> OptionParams {
        OptionParams {
            spot: 100.0,
            strike: 100.0,
            volatility: 0.2,
            rate: 0.05,
            expiry: 1.0,
            dividend_yield: 0.0,
            kind: OptionKind::Call,
            style: ExerciseStyle::American,
        }
    }

    /// Validate that the parameters define a priceable option.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), InvalidOptionError> {
        let checks = [
            (self.spot > 0.0, "spot must be positive"),
            (self.strike > 0.0, "strike must be positive"),
            (self.volatility > 0.0, "volatility must be positive"),
            (self.expiry > 0.0, "expiry must be positive"),
            (self.rate.is_finite(), "rate must be finite"),
            (
                self.dividend_yield.is_finite() && self.dividend_yield >= 0.0,
                "dividend yield must be finite and non-negative",
            ),
            (self.spot.is_finite(), "spot must be finite"),
            (self.strike.is_finite(), "strike must be finite"),
            (self.volatility.is_finite(), "volatility must be finite"),
            (self.expiry.is_finite(), "expiry must be finite"),
        ];
        for (ok, msg) in checks {
            if !ok {
                return Err(InvalidOptionError { message: msg });
            }
        }
        Ok(())
    }

    /// Intrinsic value at the current spot.
    pub fn intrinsic(&self) -> f64 {
        (self.kind.phi() * (self.spot - self.strike)).max(0.0)
    }
}

/// Parameter validation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidOptionError {
    message: &'static str,
}

impl fmt::Display for InvalidOptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for InvalidOptionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_is_valid() {
        assert!(OptionParams::example().validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = OptionParams::example();
        p.volatility = 0.0;
        assert!(p.validate().is_err());
        let mut p = OptionParams::example();
        p.spot = -1.0;
        assert!(p.validate().is_err());
        let mut p = OptionParams::example();
        p.expiry = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn intrinsic_values() {
        let mut p = OptionParams::example();
        p.spot = 110.0;
        assert_eq!(p.intrinsic(), 10.0);
        p.kind = OptionKind::Put;
        assert_eq!(p.intrinsic(), 0.0);
        p.spot = 90.0;
        assert_eq!(p.intrinsic(), 10.0);
    }

    #[test]
    fn phi_signs() {
        assert_eq!(OptionKind::Call.phi(), 1.0);
        assert_eq!(OptionKind::Put.phi(), -1.0);
    }
}

//! Integration: the Section V.C accuracy story at full paper scale,
//! plus golden CRR vectors pinning the reference pricer bit-for-bit, and
//! the pricing mathematics' invariants (no-arbitrage bounds,
//! monotonicity, convergence, inversion) over seeded random markets.

use bop_core::experiments::accuracy::pow_operator_rmse;
use bop_core::experiments::table2::PAPER_STEPS;
use bop_core::{Accelerator, KernelArch, PayoffSuite, Precision, RiskRequest};
use bop_finance::binomial::{price_american_f32, price_american_f64};
use bop_finance::black_scholes::bs_price;
use bop_finance::implied_vol::implied_volatility;
use bop_finance::payoff::{price_payoff_f64, BarrierKind, Payoff};
use bop_finance::rng::SplitMix64;
use bop_finance::types::{ExerciseStyle, OptionKind};
use bop_finance::{bs_delta, bs_gamma, bs_rho, bs_theta, bs_vega, workload, OptionParams};

#[test]
fn full_scale_price_rmse_is_about_1e_minus_3_on_the_buggy_fpga() {
    // The headline accuracy number of the paper's Table II: kernel IV.B on
    // the 13.0 FPGA shows an RMSE of ~1e-3 at N = 1024.
    let acc = Accelerator::builder(bop_core::devices::fpga())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(PAPER_STEPS)
        .build()
        .expect("builds");
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 6, 9);
    let run = acc.price(&options).expect("prices");
    assert!(
        (1e-5..5e-3).contains(&run.rmse),
        "paper reports ~1e-3 RMSE at paper scale; measured {:.2e}",
        run.rmse
    );
}

#[test]
fn sp1_compiler_fixes_the_full_scale_rmse() {
    let acc = Accelerator::builder(bop_core::devices::fpga_sp1())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(PAPER_STEPS)
        .build()
        .expect("builds");
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 9);
    let run = acc.price(&options).expect("prices");
    assert!(run.rmse < 1e-9, "SP1 pow is accurate: {:.2e}", run.rmse);
}

#[test]
fn pow_operator_rmse_matches_the_paper_order_of_magnitude() {
    let math = bop_clir::mathlib::DeviceMath::altera_13_0();
    let rmse = pow_operator_rmse(&math, &OptionParams::example(), 1024);
    assert!(
        (3e-4..3e-2).contains(&rmse),
        "\"This operator shows an RMSE of 1e-3\": measured {rmse:.2e}"
    );
}

/// The golden vectors below were produced by this repository's own
/// `price_american_f64` at N = 512 and are pinned *bit-for-bit*: the
/// reference pricer is the yardstick for every accelerator and for the
/// chaos suite's "successful prices are exact" contract, so any drift
/// in it — however small — must be a deliberate, visible change.
#[test]
fn golden_crr_vectors_pin_the_reference_pricer() {
    let mk = |spot: f64, strike: f64, kind, style| OptionParams {
        spot,
        strike,
        volatility: 0.2,
        rate: 0.05,
        expiry: 1.0,
        dividend_yield: 0.0,
        kind,
        style,
    };
    let cases = [
        // Deep ITM American put: worth its immediate-exercise intrinsic.
        (
            "deep ITM put",
            mk(40.0, 100.0, OptionKind::Put, ExerciseStyle::American),
            0x404dffffffffffdcu64,
        ),
        (
            "deep ITM call",
            mk(250.0, 100.0, OptionKind::Call, ExerciseStyle::American),
            0x40635c10e2be77d6,
        ),
        (
            "deep OTM put",
            mk(250.0, 100.0, OptionKind::Put, ExerciseStyle::American),
            0x3ecf8e8b41f49fcc,
        ),
        (
            "deep OTM call",
            mk(40.0, 100.0, OptionKind::Call, ExerciseStyle::American),
            0x3ef28eaf2ddb26d8,
        ),
        (
            "ATM call",
            mk(100.0, 100.0, OptionKind::Call, ExerciseStyle::American),
            0x4024e4b31651fdfa,
        ),
        (
            "ATM European put",
            mk(100.0, 100.0, OptionKind::Put, ExerciseStyle::European),
            0x4016474acccd5bfe,
        ),
    ];
    for (name, option, bits) in cases {
        let price = price_american_f64(&option, 512);
        assert_eq!(
            price.to_bits(),
            bits,
            "{name}: golden {} vs computed {price:.17e}",
            f64::from_bits(bits)
        );
    }
    // The deep ITM put also equals intrinsic exactly (early exercise at
    // the root dominates every continuation).
    let itm_put = mk(40.0, 100.0, OptionKind::Put, ExerciseStyle::American);
    assert!((price_american_f64(&itm_put, 512) - itm_put.intrinsic()).abs() < 1e-12);
}

/// Build a streaming (IV.C) and an optimized (IV.B) accelerator on the
/// same device at `n_steps`.
fn streaming_pair(
    device: std::sync::Arc<dyn bop_ocl::Device>,
    n_steps: usize,
) -> (Accelerator, Accelerator) {
    let build = |arch| {
        Accelerator::builder(device.clone())
            .arch(arch)
            .precision(Precision::Double)
            .n_steps(n_steps)
            .build()
            .expect("builds")
    };
    (build(KernelArch::Streaming), build(KernelArch::Optimized))
}

#[test]
fn streaming_kernel_is_bit_identical_to_optimized_and_close_to_host_crr() {
    // Golden accuracy pin for kernel IV.C: on the buggy FPGA math it
    // reproduces IV.B bit for bit (same pow, same induction, different
    // dataflow); on the GPU's exact math it lands within 1e-9 of the
    // host CRR reference.
    let n_steps = 96;
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 6, 31);

    let (iv_c, iv_b) = streaming_pair(bop_core::devices::fpga(), n_steps);
    let stream = iv_c.price(&options).expect("IV.C prices");
    let opt = iv_b.price(&options).expect("IV.B prices");
    for (s, o) in stream.prices.iter().zip(&opt.prices) {
        assert_eq!(s.to_bits(), o.to_bits(), "IV.C must equal IV.B bit for bit");
    }
    assert!(
        stream.rmse > 1e-9,
        "the pow bug must be visible through the pipe: {:.2e}",
        stream.rmse
    );

    let (iv_c_gpu, _) = streaming_pair(bop_core::devices::gpu(), n_steps);
    let exact = iv_c_gpu.price(&options).expect("IV.C prices on exact math");
    for (price, option) in exact.prices.iter().zip(&options) {
        let reference = price_american_f64(option, n_steps);
        assert!(
            (price - reference).abs() < 1e-9,
            "IV.C on exact math: {price} vs host CRR {reference}"
        );
    }
}

#[test]
fn streaming_prices_that_survive_chaos_are_bit_identical_to_fault_free() {
    // The chaos contract extends to the pipe pair: under a seeded fault
    // plan a session either fails with a typed error or prices exactly —
    // a fault must never skew a surviving IV.C price.
    let seed = match std::env::var("BOP_CHAOS_SEED") {
        Ok(s) => s.parse().unwrap_or_else(|_| panic!("BOP_CHAOS_SEED must be a u64, got {s:?}")),
        Err(_) => 7,
    };
    let n_steps = 32;
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 3, 41);
    let (fault_free, _) = streaming_pair(bop_core::devices::gpu(), n_steps);
    let baseline = fault_free.price(&options).expect("fault-free prices");

    let (faulty, _) = streaming_pair(bop_core::devices::gpu(), n_steps);
    let faulty = faulty.with_fault_plan(bop_core::FaultPlan::new(0.3, seed));
    let mut survived = 0;
    let mut failed = 0;
    for _ in 0..24 {
        match faulty.price(&options) {
            Ok(run) => {
                survived += 1;
                assert_eq!(run.prices, baseline.prices, "a surviving price must be exact");
            }
            Err(e) => {
                failed += 1;
                assert!(!e.to_string().is_empty());
            }
        }
    }
    assert!(survived > 0, "24 sessions at 30% fault rate should not all fail");
    assert!(failed > 0, "24 sessions at 30% fault rate should not all survive");
}

#[test]
fn near_zero_volatility_collapses_to_the_deterministic_forward() {
    // sigma must stay >= r*sqrt(dt) for the CRR risk-neutral p to remain
    // a probability; 0.01 at N = 256 is safely inside while leaving no
    // measurable time value on a deep ITM European call, so the lattice
    // must reproduce S - K e^{-rT}.
    let option = OptionParams {
        spot: 100.0,
        strike: 80.0,
        volatility: 0.01,
        rate: 0.05,
        expiry: 1.0,
        dividend_yield: 0.0,
        kind: OptionKind::Call,
        style: ExerciseStyle::European,
    };
    let lattice = price_american_f64(&option, 256);
    let forward = option.spot - option.strike * (-option.rate * option.expiry).exp();
    assert!(
        (lattice - forward).abs() < 1e-9,
        "zero-vol limit: lattice {lattice:.12} vs forward {forward:.12}"
    );
}

#[test]
fn crr_converges_to_black_scholes_as_the_lattice_deepens() {
    let mut option = OptionParams::example();
    option.style = ExerciseStyle::European;
    option.kind = OptionKind::Call;
    let analytic = bs_price(&option);
    let err = |n: usize| (price_american_f64(&option, n) - analytic).abs();
    // O(1/N) convergence: measured 1.2e-1 / 3.1e-2 / 4.9e-4 at 16 / 64 /
    // 4096 steps. The bounds leave ~2x headroom without letting a broken
    // scheme through.
    let coarse = err(16);
    let fine = err(4096);
    assert!(fine < 1e-3, "N=4096 must sit within 1e-3 of Black-Scholes, got {fine:.3e}");
    assert!(
        fine < coarse / 50.0,
        "error must shrink ~linearly in N: err(16)={coarse:.3e}, err(4096)={fine:.3e}"
    );
}

#[test]
fn barrier_and_bermudan_kernels_match_the_host_reference() {
    // The payoff kernels run the real clc -> clir -> bytecode pipeline;
    // on the GPU device (exact math) their prices must agree with the
    // host-side CRR payoff pricer to float-accumulation tolerance.
    let n_steps = 64;
    let suite = PayoffSuite::build(bop_core::devices::gpu(), n_steps).expect("suite builds");
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 5, 17);
    let payoffs = [
        Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 125.0 },
        Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 160.0 },
        Payoff::Barrier { kind: BarrierKind::DownAndOut, level: 80.0 },
        Payoff::Bermudan { exercise_every: 2 },
        Payoff::Bermudan { exercise_every: 8 },
    ];
    for payoff in payoffs {
        let requests: Vec<RiskRequest> =
            options.iter().map(|&o| RiskRequest::price_only(o, payoff)).collect();
        let (results, run) = suite.price_risk(&requests).expect("prices");
        for (option, result) in options.iter().zip(&results) {
            let reference = price_payoff_f64(option, payoff, n_steps);
            assert!(
                (result.price - reference).abs() < 1e-9,
                "{payoff}: device {} vs host reference {reference}",
                result.price
            );
        }
        assert!(run.rmse < 1e-9, "{payoff}: rmse {:.2e}", run.rmse);
    }
}

#[test]
fn payoff_kernels_reproduce_their_vanilla_limits_on_the_device() {
    // Two limiting identities, checked *between kernels* on the same
    // device: a knock-out barrier the tree can never reach prices like
    // the European kernel, and a Bermudan exercisable every step prices
    // like the American kernel. The kernels share their arithmetic
    // (same products, same order), so the limits hold bit-for-bit.
    let n_steps = 48;
    let suite = PayoffSuite::build(bop_core::devices::gpu(), n_steps).expect("suite builds");
    let options = workload::volatility_curve(&workload::WorkloadConfig::default(), 1.0, 4, 23);
    let price_one = |payoff: Payoff, o: OptionParams| {
        suite.price_risk(&[RiskRequest::price_only(o, payoff)]).expect("prices").0[0].price
    };
    for &option in &options {
        let far = Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 1e9 };
        assert_eq!(
            price_one(far, option).to_bits(),
            price_one(Payoff::European, option).to_bits(),
            "an unreachable barrier is exactly the European kernel"
        );
        assert_eq!(
            price_one(Payoff::Bermudan { exercise_every: 1 }, option).to_bits(),
            price_one(Payoff::American, option).to_bits(),
            "every-step Bermudan is exactly the American kernel"
        );
    }
}

#[test]
fn lattice_greeks_are_pinned_to_the_black_scholes_closed_forms() {
    // European Greeks through the device + host-lattice assembly path
    // vs the analytic closed forms. Tolerances pin the discretisation:
    // N = 256 gives O(1/N) accuracy on first-order Greeks; they are
    // deliberately tight enough to catch a mis-scaled bump or a
    // wrong-node read (each of which shifts results by orders of
    // magnitude more).
    let n_steps = 256;
    let suite = PayoffSuite::build(bop_core::devices::gpu(), n_steps).expect("suite builds");
    let mut option = OptionParams::example();
    option.style = ExerciseStyle::European;
    let (results, _) =
        suite.price_risk(&[RiskRequest::with_greeks(option, Payoff::European)]).expect("prices");
    let g = results[0].greeks.expect("greeks requested");
    let cases = [
        ("delta", g.delta, bs_delta(&option), 5e-3),
        ("gamma", g.gamma, bs_gamma(&option), 5e-3),
        ("theta", g.theta, bs_theta(&option), 5e-2),
        ("vega", g.vega, bs_vega(&option), 2e-1),
        ("rho", g.rho, bs_rho(&option), 2e-1),
    ];
    for (name, lattice, analytic, tolerance) in cases {
        assert!(
            (lattice - analytic).abs() < tolerance,
            "{name}: lattice {lattice:.6} vs Black-Scholes {analytic:.6} (tol {tolerance})"
        );
    }

    // American delta from the same path agrees with a central difference
    // of the reference pricer (the tree reads delta off its own nodes,
    // so this is a genuinely independent check).
    let mut american = OptionParams::example();
    american.kind = OptionKind::Put;
    let (results, _) =
        suite.price_risk(&[RiskRequest::with_greeks(american, Payoff::American)]).expect("prices");
    let delta = results[0].greeks.expect("greeks").delta;
    let h = american.spot * 1e-4;
    let bump = |ds: f64| {
        let mut o = american;
        o.spot += ds;
        price_american_f64(&o, n_steps)
    };
    let central = (bump(h) - bump(-h)) / (2.0 * h);
    // Looser than the European pins: the put's early-exercise boundary
    // adds O(1/sqrt(N)) kink error to the node-read delta.
    assert!(
        (delta - central).abs() < 2e-2,
        "american delta: tree {delta:.6} vs central difference {central:.6}"
    );
}

#[test]
fn operator_error_grows_with_lattice_depth() {
    // The mechanism (Section V.C): the reduced-precision `pow` error is
    // proportional to the exponent magnitude, and kernel IV.B raises the
    // up-factor to powers up to ±N. At the operator level this is a
    // deterministic claim; at the *price* level backward induction
    // averages leaf errors and can mask the growth, so we test the
    // operator directly over the kernel's actual leaf arguments.
    let math = bop_clir::mathlib::DeviceMath::altera_13_0();
    let rmse_at = |n: usize| pow_operator_rmse(&math, &OptionParams::example(), n);
    let small = rmse_at(64);
    let large = rmse_at(1024);
    assert!(large > 2.0 * small, "pow RMSE should grow with N: {small:.2e} vs {large:.2e}");
}

/// A random option, with volatility bounded away from the region where
/// the CRR up-probability exceeds one.
fn random_option(rng: &mut SplitMix64) -> OptionParams {
    OptionParams {
        spot: rng.uniform(20.0, 300.0),
        strike: rng.uniform(20.0, 300.0),
        volatility: rng.uniform(0.08, 0.8),
        rate: rng.uniform(0.0, 0.08),
        expiry: rng.uniform(0.1, 2.5),
        dividend_yield: rng.uniform(0.0, 0.04),
        kind: if rng.next_u64() & 1 == 0 { OptionKind::Call } else { OptionKind::Put },
        style: if rng.next_u64() & 1 == 0 {
            ExerciseStyle::American
        } else {
            ExerciseStyle::European
        },
    }
}

/// Over random markets, the reference lattice respects no-arbitrage
/// bounds, American dominates European, prices rise with volatility and
/// move the right way with the strike, the European lattice converges to
/// Black-Scholes, single precision stays close to double, and refining
/// the lattice stays in a tight band.
#[test]
fn lattice_prices_keep_their_invariants_over_random_markets() {
    const N: usize = 96;
    let mut rng = SplitMix64::seed_from_u64(0xf1a7ce);
    for case in 0..128 {
        let o = random_option(&mut rng);
        let (vol_bump, strike_bump) = (rng.uniform(0.01, 0.3), rng.uniform(1.0, 40.0));
        let what = format!("case {case}: {o:?}");
        let p = price_american_f64(&o, N);

        assert!(p >= -1e-12, "{what}: negative price {p}");
        if o.style == ExerciseStyle::American {
            assert!(p + 1e-9 >= o.intrinsic(), "{what}: {p} below intrinsic {}", o.intrinsic());
        }
        let cap = match o.kind {
            OptionKind::Call => o.spot,
            OptionKind::Put => o.strike,
        };
        assert!(p <= cap * (1.0 + 1e-12), "{what}: {p} above {cap}");

        let styled = |style| price_american_f64(&OptionParams { style, ..o }, N);
        let (amer, euro) = (styled(ExerciseStyle::American), styled(ExerciseStyle::European));
        assert!(amer + 1e-9 >= euro, "{what}: American {amer} < European {euro}");

        let vega_up =
            price_american_f64(&OptionParams { volatility: o.volatility + vol_bump, ..o }, N);
        assert!(vega_up + 1e-9 >= p, "{what}: price fell with vol +{vol_bump}: {p} -> {vega_up}");

        let struck = price_american_f64(&OptionParams { strike: o.strike + strike_bump, ..o }, N);
        match o.kind {
            OptionKind::Call => assert!(struck <= p + 1e-9, "{what}: call rose with the strike"),
            OptionKind::Put => assert!(struck + 1e-9 >= p, "{what}: put fell with the strike"),
        }

        let european = OptionParams { style: ExerciseStyle::European, ..o };
        let (lattice, analytic) = (price_american_f64(&european, 512), bs_price(&european));
        let tolerance = 0.01 * (analytic.abs() + o.spot * 0.01);
        assert!(
            (lattice - analytic).abs() < tolerance,
            "{what}: lattice {lattice} vs BS {analytic}"
        );

        let single = f64::from(price_american_f32(&o, N));
        assert!((p - single).abs() < 0.05 + p.abs() * 1e-3, "{what}: f64 {p} vs f32 {single}");

        let (coarse, fine) = (price_american_f64(&o, 64), price_american_f64(&o, 256));
        assert!((coarse - fine).abs() < 0.05 + fine.abs() * 0.02, "{what}: {coarse} vs {fine}");
    }
}

/// Implied volatility inverts Black-Scholes to 1e-5 on random
/// near-the-money European options with visible time value (where the
/// inversion is well conditioned).
#[test]
fn implied_vol_round_trips_on_random_markets() {
    let mut rng = SplitMix64::seed_from_u64(0x1f01);
    for case in 0..128 {
        let (o, price) = loop {
            let o = random_option(&mut rng);
            let strike = o.spot * (0.8 + (o.strike / 300.0) * 0.4);
            let o = OptionParams { style: ExerciseStyle::European, strike, ..o };
            let price = bs_price(&o);
            if price > 0.05 && price < o.spot * 0.95 {
                break (o, price);
            }
        };
        let vol = implied_volatility(&o, price, bs_price)
            .unwrap_or_else(|e| panic!("case {case}: inversion failed for {o:?}: {e:?}"));
        assert!((vol - o.volatility).abs() < 1e-5, "case {case}: {vol} vs {o:?}");
    }
}

//! The market-risk payoff suite: one accelerator per payoff class on a
//! shared device, pricing heterogeneous request batches with optional
//! Greeks.
//!
//! The suite compiles the four IV.B-dataflow kernels (American, European,
//! barrier, Bermudan) **once** per pool and answers
//! [`RiskRequest`]es: price plus, on demand, the full first-order Greeks.
//! Delta, gamma and theta are read from a host-side lattice (they fall
//! out of the first tree levels for free); vega and rho come from
//! bump-and-reprice scenarios that ride in the *same* device batch as
//! the base option, so one session prices `base + 4 bumps` per
//! Greeks-requesting option with no extra compilation or session setup.
//!
//! A suite holds four accelerators and no kernel IV.C: serving prices
//! American options on IV.B, whose 1024 lanes beat IV.C's single
//! pipeline. Build a [`KernelArch::Streaming`] accelerator for IV.C.

use crate::accelerator::{Accelerator, AcceleratorConfig, PricingRun, SessionTrace};
use crate::error::Error;
use crate::kernels::KernelArch;
use bop_cpu::Precision;
use bop_finance::binomial::BinomialTree;
use bop_finance::greeks::{assemble_greeks, bump_scenarios, Greeks};
use bop_finance::payoff::{price_payoff_f64, Payoff};
use bop_finance::types::OptionParams;
use bop_ocl::{Device, FaultPlan};
use std::sync::Arc;

/// One pricing job for the suite: an option, the payoff to price it
/// under, and whether to compute its Greeks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskRequest {
    /// The option's market and contract parameters (the `style` field is
    /// ignored — `payoff` governs exercise).
    pub params: OptionParams,
    /// The payoff priced.
    pub payoff: Payoff,
    /// Compute delta/gamma/theta/vega/rho alongside the price.
    pub greeks: bool,
}

impl RiskRequest {
    /// A price-only request.
    pub fn price_only(params: OptionParams, payoff: Payoff) -> RiskRequest {
        RiskRequest { params, payoff, greeks: false }
    }

    /// A price + Greeks request.
    pub fn with_greeks(params: OptionParams, payoff: Payoff) -> RiskRequest {
        RiskRequest { params, payoff, greeks: true }
    }
}

/// One priced request: the device price and, if requested, the Greeks
/// (device price, device vega/rho bumps, host-lattice delta/gamma/theta).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskResult {
    /// The price, from the device.
    pub price: f64,
    /// The Greeks, when the request asked for them.
    pub greeks: Option<Greeks>,
}

/// The kernel of each payoff class, in build order: American (the
/// paper's IV.B), European, barrier, Bermudan.
const CLASS_ARCHES: [KernelArch; 4] = [
    KernelArch::Optimized,
    KernelArch::OptimizedEuropean,
    KernelArch::Barrier,
    KernelArch::Bermudan,
];

/// The per-payoff-class accelerators of one device, sharing one
/// configuration (precision, lattice size, metrics, faults, …).
#[derive(Clone)]
pub struct PayoffSuite {
    /// One accelerator per payoff class, in [`CLASS_ARCHES`] order.
    classes: [Accelerator; 4],
}

impl PayoffSuite {
    /// Build one suite for `device` with the defaults of
    /// [`AcceleratorConfig::new`] at `n_steps`.
    ///
    /// # Errors
    /// Same as [`PayoffSuite::from_config`].
    pub fn build(device: Arc<dyn Device>, n_steps: usize) -> Result<PayoffSuite, Error> {
        let mut config = AcceleratorConfig::new(device);
        config.n_steps = n_steps;
        PayoffSuite::from_config(config)
    }

    /// Realise `config` as a payoff suite. The config's `arch` field is
    /// ignored: each payoff class compiles its own kernel architecture
    /// (American → IV.B optimized, European / barrier / Bermudan → their
    /// variants). Everything else — device, precision, lattice size,
    /// build options, metrics, workers, engine, faults — applies to all
    /// four accelerators alike.
    ///
    /// # Errors
    /// Same as [`Accelerator::from_config`], for whichever kernel fails
    /// first.
    pub fn from_config(config: AcceleratorConfig) -> Result<PayoffSuite, Error> {
        Ok(PayoffSuite::pool(config, 1)?.pop().expect("pool of one"))
    }

    /// Realise `config` as `n` suites, compiling each of the four kernels
    /// **once**: suite `i` holds clones of the first suite's compiled
    /// programs. This is how the serving layer builds identical shards
    /// without paying per-shard compilation. See
    /// [`PayoffSuite::from_config`] for how `config` is interpreted.
    ///
    /// # Errors
    /// Same as [`PayoffSuite::from_config`]; rejects `n == 0`.
    pub fn pool(config: AcceleratorConfig, n: usize) -> Result<Vec<PayoffSuite>, Error> {
        let mut pools = CLASS_ARCHES
            .iter()
            .map(|&arch| {
                AcceleratorConfig { arch, ..config.clone() }.build_pool(n).map(Vec::into_iter)
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Ok((0..n)
            .map(|_| PayoffSuite {
                classes: std::array::from_fn(|i| pools[i].next().expect("one per shard")),
            })
            .collect())
    }

    /// The accelerator that prices `payoff`'s class.
    pub fn accelerator(&self, payoff: Payoff) -> &Accelerator {
        self.classes
            .iter()
            .find(|acc| acc.accepts_payoff(payoff))
            .expect("every payoff class has an accelerator")
    }

    /// The American accelerator (the paper's kernel IV.B), which speaks
    /// for the settings all four share.
    fn american(&self) -> &Accelerator {
        &self.classes[0]
    }

    /// The lattice step count (shared by all four accelerators).
    pub fn n_steps(&self) -> usize {
        self.american().n_steps()
    }

    /// The numeric precision (shared by all four accelerators).
    pub fn precision(&self) -> Precision {
        self.american().precision()
    }

    /// The device the suite runs on.
    pub fn device(&self) -> &Arc<dyn Device> {
        self.american().device()
    }

    /// Replace the fault plan on **all four** accelerators (typically to
    /// re-seed per serving shard). An inert plan disables injection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> PayoffSuite {
        self.classes = self.classes.map(|acc| acc.with_fault_plan(plan));
        self
    }

    /// The active fault plan, if any (shared by all four accelerators).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.american().fault_plan()
    }

    /// Project the performance of pricing `n_options` on the American
    /// kernel (the paper's kernel IV.B; the payoff variants execute the
    /// same dataflow, so its rates represent the suite).
    ///
    /// # Errors
    /// Same as [`Accelerator::project`].
    pub fn project(&self, n_options: usize) -> Result<crate::accelerator::Projection, Error> {
        self.american().project(n_options)
    }

    /// Price a batch of same-payoff-class requests in **one** device
    /// session: every base option, followed by the four vega/rho bump
    /// scenarios of each Greeks-requesting option, in request order.
    /// Returns per-request results plus the run's accounting (which
    /// covers the whole device batch, bumps included).
    ///
    /// The Greeks are assembled from the device prices (base, vol±,
    /// rate±) and a host-side lattice for delta/gamma/theta — all
    /// deterministic, so results are bit-identical across engines and
    /// worker counts.
    ///
    /// # Errors
    /// Rejects an empty batch and a batch mixing payoff classes (the
    /// serving layer splits batches per class); propagates pricing
    /// failures.
    pub fn price_risk(
        &self,
        requests: &[RiskRequest],
    ) -> Result<(Vec<RiskResult>, PricingRun), Error> {
        let (results, run, _) = self.price_risk_inner(requests, false)?;
        Ok((results, run))
    }

    /// Like [`PayoffSuite::price_risk`], with command tracing enabled on
    /// the session queue (the returned spans cover the whole batch,
    /// bumps included).
    ///
    /// # Errors
    /// Same as [`PayoffSuite::price_risk`].
    pub fn price_risk_with_session_trace(
        &self,
        requests: &[RiskRequest],
    ) -> Result<(Vec<RiskResult>, PricingRun, SessionTrace), Error> {
        let (results, run, trace) = self.price_risk_inner(requests, true)?;
        Ok((results, run, trace.expect("trace requested")))
    }

    fn price_risk_inner(
        &self,
        requests: &[RiskRequest],
        traced: bool,
    ) -> Result<(Vec<RiskResult>, PricingRun, Option<SessionTrace>), Error> {
        let Some(first) = requests.first() else {
            return Err(Error::Invalid("empty batch".into()));
        };
        let class = first.payoff.label();
        if let Some(mixed) = requests.iter().find(|r| r.payoff.label() != class) {
            return Err(Error::Invalid(format!(
                "mixed payoff classes in one batch ({class} and {}); split per class",
                mixed.payoff.label()
            )));
        }
        let acc = self.accelerator(first.payoff);

        // Device batch: all base options first, then the bump block of
        // each Greeks-requesting option (vol+, vol-, rate+, rate-), in
        // request order.
        let mut options: Vec<OptionParams> = Vec::with_capacity(requests.len());
        let mut payoffs: Vec<Payoff> = Vec::with_capacity(requests.len());
        for r in requests {
            options.push(r.params);
            payoffs.push(r.payoff);
        }
        for r in requests.iter().filter(|r| r.greeks) {
            options.extend(bump_scenarios(&r.params));
            payoffs.extend([r.payoff; 4]);
        }

        let (run, trace) = acc.session(&options, &payoffs, price_payoff_f64, traced)?;

        let n_steps = self.n_steps();
        let mut bumps = run.prices[requests.len()..].chunks_exact(4);
        let results = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let price = run.prices[i];
                let greeks = r.greeks.then(|| {
                    let chunk = bumps.next().expect("one bump block per greeks request");
                    let tree = BinomialTree::build_payoff(&r.params, r.payoff, n_steps);
                    let dt = r.params.expiry / n_steps as f64;
                    assemble_greeks(price, &tree, dt, [chunk[0], chunk[1], chunk[2], chunk[3]])
                });
                RiskResult { price, greeks }
            })
            .collect();
        Ok((results, run, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bop_finance::greeks::lattice_greeks_payoff;
    use bop_finance::payoff::BarrierKind;

    fn all_payoffs() -> [Payoff; 4] {
        [
            Payoff::European,
            Payoff::American,
            Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 130.0 },
            Payoff::Bermudan { exercise_every: 4 },
        ]
    }

    #[test]
    fn every_payoff_class_prices_with_greeks() {
        let suite = PayoffSuite::build(crate::devices::gpu(), 48).expect("builds");
        for payoff in all_payoffs() {
            let reqs = [
                RiskRequest::with_greeks(OptionParams::example(), payoff),
                RiskRequest::price_only(OptionParams::example(), payoff),
            ];
            let (results, run) = suite.price_risk(&reqs).expect("prices");
            assert_eq!(results.len(), 2);
            // Device batch = 2 base + 4 bumps.
            assert_eq!(run.prices.len(), 6);
            assert!(results[1].greeks.is_none());
            let g = results[0].greeks.expect("greeks requested");
            let reference = lattice_greeks_payoff(&OptionParams::example(), payoff, 48);
            // Device prices match the f64 reference to ~1e-9 on the GPU
            // model; the vega/rho finite differences divide by 2e-4.
            assert!((g.price - reference.price).abs() < 1e-9, "{payoff}");
            assert_eq!(g.delta, reference.delta, "{payoff}: tree greeks are host-side");
            assert_eq!(g.gamma, reference.gamma, "{payoff}");
            assert_eq!(g.theta, reference.theta, "{payoff}");
            assert!((g.vega - reference.vega).abs() < 1e-4, "{payoff}");
            assert!((g.rho - reference.rho).abs() < 1e-4, "{payoff}");
        }
    }

    #[test]
    fn mixed_classes_are_rejected_and_empty_batches_too() {
        let suite = PayoffSuite::build(crate::devices::gpu(), 32).expect("builds");
        let err = suite
            .price_risk(&[
                RiskRequest::price_only(OptionParams::example(), Payoff::American),
                RiskRequest::price_only(OptionParams::example(), Payoff::European),
            ])
            .expect_err("mixed classes");
        assert!(err.to_string().contains("mixed payoff classes"), "{err}");
        assert!(suite.price_risk(&[]).is_err());
    }

    #[test]
    fn distinct_payoff_parameters_ride_in_one_batch() {
        let suite = PayoffSuite::build(crate::devices::gpu(), 64).expect("builds");
        let levels = [105.0, 120.0, 150.0, 1e9];
        let reqs: Vec<RiskRequest> = levels
            .iter()
            .map(|&level| {
                let payoff = Payoff::Barrier { kind: BarrierKind::UpAndOut, level };
                RiskRequest::price_only(OptionParams::example(), payoff)
            })
            .collect();
        let (results, run) = suite.price_risk(&reqs).expect("prices");
        for (r, &level) in results.iter().zip(&levels) {
            let payoff = Payoff::Barrier { kind: BarrierKind::UpAndOut, level };
            let reference = price_payoff_f64(&OptionParams::example(), payoff, 64);
            assert!((r.price - reference).abs() < 1e-9, "level {level}");
        }
        // Tighter barriers are worth less.
        assert!(results[0].price < results[1].price);
        assert!(results[1].price < results[2].price);
        assert!(run.rmse < 1e-9, "payoff-aware reference: {}", run.rmse);
    }

    #[test]
    fn pool_shares_compiled_programs_per_class() {
        let suites =
            PayoffSuite::pool(AcceleratorConfig::new(crate::devices::gpu()), 3).expect("builds");
        assert_eq!(suites.len(), 3);
        for payoff in all_payoffs() {
            let first = suites[0].accelerator(payoff).program();
            for s in &suites[1..] {
                assert!(
                    Arc::ptr_eq(first.module(), s.accelerator(payoff).program().module()),
                    "{payoff}: pool must share one compiled program"
                );
            }
        }
    }

    #[test]
    fn a_pool_compiles_one_program_per_payoff_class() {
        let metrics = Arc::new(bop_obs::MetricsRegistry::new());
        let mut config = AcceleratorConfig::new(crate::devices::gpu());
        config.n_steps = 16;
        config.metrics = Some(metrics.clone());
        PayoffSuite::pool(config, 2).expect("builds");
        let compiles = metrics.histogram("compile.total_seconds", &[("device", "GPU")]);
        assert_eq!(compiles.expect("compiles are timed").count, 4, "one build per payoff class");
    }

    #[test]
    fn results_are_bit_identical_across_engines_and_worker_counts() {
        let matrix = [
            (bop_ocl::Engine::Walk, 1),
            (bop_ocl::Engine::Walk, 4),
            (bop_ocl::Engine::Lanes, 1),
            (bop_ocl::Engine::Lanes, 4),
        ];
        let runs: Vec<Vec<RiskResult>> = matrix
            .into_iter()
            .map(|(engine, workers)| {
                let mut config = AcceleratorConfig::new(crate::devices::gpu());
                config.n_steps = 32;
                config.engine = Some(engine);
                config.workers = Some(workers);
                let suite = PayoffSuite::from_config(config).expect("builds");
                let reqs: Vec<RiskRequest> = all_payoffs()
                    .into_iter()
                    .map(|p| RiskRequest::with_greeks(OptionParams::example(), p))
                    .collect();
                reqs.iter()
                    .map(|r| {
                        let (results, _) =
                            suite.price_risk(std::slice::from_ref(r)).expect("prices");
                        results[0]
                    })
                    .collect()
            })
            .collect();
        for ((engine, workers), run) in matrix.iter().zip(&runs).skip(1) {
            assert_eq!(*run, runs[0], "{engine} on {workers} worker(s) vs walk on 1");
        }
    }
}

//! `paper-sweep`: phase 1 of the paper's evaluation (Figure 4).
//!
//! 6 categories × 40 bundles at 64 cores, through the steps of
//! `evaluate_bundle_analytic`, each timed from outside. Set-up profiles
//! every bundle into its market with `build_market` (the paper's offline
//! phase-1 profiling). The measured work is, per bundle, the five paper
//! mechanisms, the `MaxEfficiency` oracle, and the `max_efficiency_from`
//! polish of the best equilibrium. A run evaluates at least one full
//! pass over the 240 bundles, then keeps cycling through them while
//! another bundle fits in its time. Successive bundles run on successive
//! CPUs (see [`crate::cpu`]).

use std::time::{Duration, Instant};

use rebudget_bench::{paper_mechanisms_with, system_for, PAPER_BUDGET};
use rebudget_core::mechanisms::{MaxEfficiency, Mechanism, MechanismOutcome};
use rebudget_core::theory::ef_lower_bound;
use rebudget_market::optimal::{max_efficiency_from, OptimalOptions};
use rebudget_market::Market;
use rebudget_sim::analytic::build_market_with;
use rebudget_workloads::{generate_bundle, Category};

use crate::cpu;
use crate::report::{self, Report, Snapshot, BATCH_POLICY};
use crate::Args;

const CORES: usize = 64;
const PER_CATEGORY: usize = 40;
/// Index of ReBudget-40 in `paper_mechanisms()`, the mechanism whose
/// efficiency and envy-freeness are reported.
const REBUDGET40: usize = 4;
/// Slack on the Theorem-2 floor, as in the end-to-end tests.
const FLOOR_SLACK: f64 = 1e-6;

struct Inputs {
    /// Bundle labels, in index-major order, so every tenth of a pass
    /// holds the same mix of categories.
    labels: Vec<String>,
    markets: Vec<Market>,
    /// `build_market` time of each bundle.
    build: Vec<Duration>,
}

/// Generates and profiles the bundles; keeps the markets only if `keep`.
fn setup(seed: u64, keep: bool) -> Result<Inputs, String> {
    let (sys, dram) = system_for(CORES);
    let n = Category::ALL.len() * PER_CATEGORY;
    let mut inputs = Inputs {
        labels: Vec::with_capacity(n),
        markets: Vec::with_capacity(n),
        build: Vec::with_capacity(n),
    };
    for index in 0..PER_CATEGORY {
        for category in Category::ALL {
            let bundle =
                generate_bundle(category, CORES, index, seed).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let market = build_market_with(&bundle, &sys, &dram, PAPER_BUDGET, BATCH_POLICY)
                .map_err(|e| e.to_string())?;
            inputs.build.push(t.elapsed());
            inputs.labels.push(bundle.label());
            if keep {
                inputs.markets.push(market);
            }
        }
    }
    Ok(inputs)
}

/// Times of one bundle's steps.
#[derive(Default, Clone)]
struct Steps {
    /// Per paper mechanism, in `paper_mechanisms()` order.
    mechanisms: [Duration; 5],
    oracle: Duration,
    polish: Duration,
    total: Duration,
}

impl Steps {
    fn timed(&self) -> Duration {
        self.mechanisms.iter().sum::<Duration>() + self.oracle + self.polish
    }
}

/// The outcome of one bundle, for the output checks.
struct Verdict {
    /// ReBudget-40 efficiency normalised to MaxEfficiency.
    efficiency: f64,
    envy_freeness: f64,
    /// Market mechanisms that did not converge or degraded.
    unconverged: usize,
    /// Market mechanisms whose envy-freeness fell below Theorem 2's floor.
    floor_violations: usize,
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed();
    out
}

fn evaluate(
    market: &Market,
    mechanisms: &[Box<dyn Mechanism>],
) -> Result<(Steps, Verdict), String> {
    let mut s = Steps::default();
    let start = Instant::now();
    let mut outcomes: Vec<MechanismOutcome> = Vec::with_capacity(mechanisms.len());
    for (m, slot) in mechanisms.iter().zip(&mut s.mechanisms) {
        outcomes.push(timed(slot, || m.allocate(market)).map_err(|e| e.to_string())?);
    }
    let oracle = timed(&mut s.oracle, || {
        MaxEfficiency::default()
            .with_parallel(BATCH_POLICY)
            .allocate(market)
    })
    .map_err(|e| e.to_string())?;
    let best = outcomes
        .iter()
        .max_by(|a, b| a.efficiency.total_cmp(&b.efficiency))
        .ok_or("no mechanisms")?;
    let polished = timed(&mut s.polish, || {
        let options = OptimalOptions {
            parallel: BATCH_POLICY,
            ..OptimalOptions::default()
        };
        max_efficiency_from(market, &options, best.allocation.clone())
    })
    .map_err(|e| e.to_string())?;
    s.total = start.elapsed();
    let max_efficiency = oracle.efficiency.max(polished.efficiency).max(1e-12);
    let markets = outcomes.iter().filter(|o| o.mbr.is_some());
    let verdict = Verdict {
        efficiency: outcomes[REBUDGET40].efficiency / max_efficiency,
        envy_freeness: outcomes[REBUDGET40].envy_freeness,
        unconverged: markets
            .clone()
            .filter(|o| !o.converged || o.degraded)
            .count(),
        floor_violations: markets
            .filter(|o| o.envy_freeness < ef_lower_bound(o.mbr.unwrap_or(1.0)) - FLOOR_SLACK)
            .count(),
    };
    Ok((s, verdict))
}

/// Counts over the first full pass, read from the telemetry registry.
#[derive(Default)]
struct PassCounts {
    rounds: u64,
    iterations: u64,
    recoveries: u64,
}

/// One measurement phase: at least one full pass, then cycling while
/// another bundle fits in `budget`.
struct Phase {
    steps: Vec<Steps>,
    wall: Duration,
    first_pass: Vec<Verdict>,
    counts: PassCounts,
    /// Bundle evaluations started.
    attempted: u64,
    failed: u64,
    /// Peak RSS once the first pass is done, MB.
    peak_rss_mb: f64,
}

fn run_phase(inputs: &Inputs, budget: Duration) -> Result<Phase, String> {
    let mechanisms = paper_mechanisms_with(BATCH_POLICY);
    let n = inputs.markets.len();
    let before = Snapshot::take();
    let mut phase = Phase {
        steps: Vec::new(),
        wall: Duration::ZERO,
        first_pass: Vec::with_capacity(n),
        counts: PassCounts::default(),
        attempted: 0,
        failed: 0,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < n || report::fits_another(start, i, budget) {
        cpu::pin(0, i);
        match evaluate(&inputs.markets[i % n], &mechanisms) {
            Ok((steps, verdict)) => {
                if verdict.unconverged > 0 || verdict.floor_violations > 0 {
                    phase.failed += 1;
                }
                phase.steps.push(steps);
                if i < n {
                    phase.first_pass.push(verdict);
                }
            }
            Err(e) => {
                eprintln!("bundle {} failed: {e}", inputs.labels[i % n]);
                phase.failed += 1;
            }
        }
        report::drop_journal();
        i += 1;
        if i == n {
            let after = Snapshot::take();
            phase.counts = PassCounts {
                rounds: before.counter_delta(&after, "rebudget.rounds"),
                iterations: before.counter_delta(&after, "solver.iterations"),
                recoveries: before.counter_delta(&after, "solver.recoveries"),
            };
            phase.peak_rss_mb = report::peak_rss_mb();
        }
    }
    phase.wall = start.elapsed();
    cpu::release(0);
    phase.attempted = i as u64;
    Ok(phase)
}

/// Mean milliseconds per bundle of one step over the first pass.
fn step_ms(phase: &Phase, n: usize, f: impl Fn(&Steps) -> Duration) -> f64 {
    let total: Duration = phase.steps.iter().take(n).map(f).sum();
    report::ms(total) / n as f64
}

fn check_outputs(report: &mut Report, phase: &Phase, n: usize) {
    report.check(phase.first_pass.len() == n, || {
        format!("{} of {n} bundles evaluated", phase.first_pass.len())
    });
    let violations: usize = phase.first_pass.iter().map(|v| v.floor_violations).sum();
    report.check(violations == 0, || {
        format!("{violations} Theorem-2 floor violations")
    });
    let unconverged: usize = phase.first_pass.iter().map(|v| v.unconverged).sum();
    report.check(unconverged == 0, || {
        format!("{unconverged} mechanism runs did not converge")
    });
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let (inputs, setup_s) = report::timed_setup(|keep| setup(args.seed, keep))?;
    let n = inputs.markets.len();
    let mut report = Report::default();
    if !args.trace {
        let phase = run_phase(&inputs, args.budget)?;
        check_outputs(&mut report, &phase, n);
        report.attempted = phase.attempted;
        report.failed += phase.failed;
        let lat: Vec<f64> = phase.steps.iter().map(|s| report::ms(s.total)).collect();
        let passes: Vec<f64> = lat.chunks_exact(n).map(report::growth).collect();
        let verdicts = &phase.first_pass;
        report.metric("setup_s", setup_s);
        report.metric(
            "throughput_per_s",
            phase.steps.len() as f64 / phase.wall.as_secs_f64(),
        );
        report.metric("latency_ms.p50", report::quantile(&lat, 0.5));
        report.metric("latency_ms.p95", report::quantile(&lat, 0.95));
        report.metric("latency_growth", report::median(&passes));
        report.metric("peak_rss_mb", phase.peak_rss_mb);
        report.metric(
            "efficiency",
            report::mean(&verdicts.iter().map(|v| v.efficiency).collect::<Vec<_>>()),
        );
        report.metric(
            "envy_freeness",
            report::mean(&verdicts.iter().map(|v| v.envy_freeness).collect::<Vec<_>>()),
        );
        report.metric(
            "ok_frac",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        return Ok(report);
    }
    // Traced run: an untraced phase for the overhead baseline, then the
    // traced phase the per-layer numbers come from. Both evaluate the same
    // first pass, which is what the overhead compares.
    let half = args.budget / 2;
    let base = run_phase(&inputs, half)?;
    report::tracing(true);
    let traced = run_phase(&inputs, half)?;
    report::tracing(false);
    check_outputs(&mut report, &traced, n);
    report.attempted = traced.attempted;
    report.failed += traced.failed;
    let timed: Duration = traced.steps.iter().map(Steps::timed).sum();
    let (unaccounted, covered) = report::coverage(traced.wall, timed);
    report.check(covered, || {
        format!(
            "timed layer calls cover only {:.1}% of wall time",
            100.0 - unaccounted
        )
    });
    let untraced_ms = step_ms(&base, n, |s| s.total);
    let traced_ms = step_ms(&traced, n, |s| s.total);
    let build: Duration = inputs.build.iter().sum();
    report.metric("sim.build_market_ms", report::ms(build) / n as f64);
    for (k, name) in [
        (1, "core.mechanisms.equal_budget_ms"),
        (2, "core.mechanisms.balanced_ms"),
        (3, "core.mechanisms.rebudget20_ms"),
        (4, "core.mechanisms.rebudget40_ms"),
    ] {
        report.metric(name, step_ms(&traced, n, |s| s.mechanisms[k]));
    }
    report.metric(
        "market.optimal.oracle_ms",
        step_ms(&traced, n, |s| s.oracle),
    );
    report.metric(
        "market.optimal.polish_ms",
        step_ms(&traced, n, |s| s.polish),
    );
    report.metric("core.rebudget.rounds", traced.counts.rounds as f64);
    report.metric(
        "market.equilibrium.iterations",
        traced.counts.iterations as f64,
    );
    report.metric("market.solver.recoveries", traced.counts.recoveries as f64);
    report.metric(
        "telemetry.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    report.metric("telemetry.peak_rss_mb", traced.peak_rss_mb);
    report.metric("coverage.unaccounted_pct", unaccounted);
    println!(
        "# paper-sweep first pass: {n} bundles, rounds {}, iterations {}, recoveries {}",
        traced.counts.rounds, traced.counts.iterations, traced.counts.recoveries
    );
    Ok(report)
}

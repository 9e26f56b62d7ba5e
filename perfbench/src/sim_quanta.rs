//! `sim-quanta`: phase 2 of the paper's evaluation (Figure 5).
//!
//! One bundle per category at 64 cores, each simulated under ReBudget-40
//! for [`QUANTA`] 1 ms quanta with UMON monitors on, the analytic
//! execution model, and 20 000 accesses per core per quantum. A run
//! simulates the six bundles at least once, then keeps cycling through
//! them while another simulation fits in its time; every repeat must
//! fingerprint identically.
//! The simulation is deterministic, so every repeat of a bundle does the
//! same work quantum by quantum. The latency metrics are taken over the
//! workload's steps (bundle × quantum), each timed at its fastest repeat:
//! on a shared host a quantum is now and then stalled by other tenants,
//! and whether such stalls reach 5% of the quanta in a run decided the
//! pooled 95th percentile more than the program did. Repeats of a bundle
//! start on successive CPUs, so a step's best time is not tied to one.
//! `setup_s` is the median time a simulation spends before its first
//! quantum.

use std::time::{Duration, Instant};

use rebudget_bench::{system_for, PAPER_BUDGET};
use rebudget_core::mechanisms::ReBudget;
use rebudget_sim::simulation::ExecutionModel;
use rebudget_sim::{
    run_simulation_hooked, DramConfig, QuantumControls, QuantumHook, QuantumObservation,
    RecoveryOptions, SimOptions, SimResult, SystemConfig,
};
use rebudget_workloads::{generate_bundle, Bundle, Category};

use crate::cpu;
use crate::report::{self, Report, Snapshot, BATCH_POLICY};
use crate::Args;

const CORES: usize = 64;
const QUANTA: usize = 30;
const ACCESSES: usize = 20_000;

struct Inputs {
    sys: SystemConfig,
    dram: DramConfig,
    bundles: Vec<Bundle>,
    mechanism: ReBudget,
    options: SimOptions,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let (sys, dram) = system_for(CORES);
    let bundles = Category::ALL
        .iter()
        .map(|&c| generate_bundle(c, CORES, 0, seed).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        sys,
        dram,
        bundles,
        mechanism: ReBudget::with_step(PAPER_BUDGET, 40.0).with_parallel(BATCH_POLICY),
        options: SimOptions {
            quanta: QUANTA,
            accesses_per_quantum: ACCESSES,
            budget: PAPER_BUDGET,
            use_monitors: true,
            seed,
            execution: ExecutionModel::Analytic,
            ..SimOptions::default()
        },
    })
}

/// Stamps the start of every quantum and moves the simulation to the
/// next CPU (see [`crate::cpu`]). It leaves the controls neutral and asks
/// for no observations, so the run takes the same path, with the same
/// results, as `run_simulation`.
struct QuantumClock {
    /// CPU turn of quantum 0 (see [`run_phase`]).
    turn: usize,
    starts: Vec<Instant>,
}

impl QuantumHook for QuantumClock {
    fn control(&mut self, quantum: usize, _controls: &mut QuantumControls) {
        cpu::pin(0, self.turn + quantum);
        self.starts.push(Instant::now());
    }
    fn observing(&self) -> bool {
        false
    }
    fn observe(&mut self, _observation: &QuantumObservation) {}
}

/// FNV-1a over the bit patterns of a result's metrics: the same digest
/// as the `fingerprint` line of `rebudget simulate`.
fn fingerprint(r: &SimResult) -> u64 {
    let mut bytes = Vec::with_capacity(16 + 8 * (r.utilities.len() + r.efficiency_history.len()));
    bytes.extend_from_slice(&r.efficiency.to_bits().to_be_bytes());
    bytes.extend_from_slice(&r.envy_freeness.to_bits().to_be_bytes());
    for u in &r.utilities {
        bytes.extend_from_slice(&u.to_bits().to_be_bytes());
    }
    for e in &r.efficiency_history {
        bytes.extend_from_slice(&e.to_bits().to_be_bytes());
    }
    rebudget_sim::checkpoint::fnv1a(&bytes)
}

struct Run {
    bundle: usize,
    /// Host milliseconds of each quantum (the last one runs to the return
    /// of the simulation).
    quanta_ms: Vec<f64>,
    total: Duration,
    /// The simulator's own set-up: the call until the first quantum.
    preamble: Duration,
    fingerprint: u64,
    efficiency: f64,
    envy_freeness: f64,
    fallback_quanta: usize,
    converged: bool,
}

struct Phase {
    runs: Vec<Run>,
    wall: Duration,
    /// Quanta of the simulations started.
    attempted: u64,
    failed: u64,
    /// Registry deltas over the first pass of six simulations.
    rounds: u64,
    iterations: u64,
    recoveries: u64,
    fallback_quanta: u64,
    /// Peak RSS once the first pass is done, MB.
    peak_rss_mb: f64,
}

fn simulate(inputs: &Inputs, k: usize, turn: usize) -> Result<Run, String> {
    let mut clock = QuantumClock {
        turn,
        starts: Vec::with_capacity(QUANTA),
    };
    let start = Instant::now();
    let result = run_simulation_hooked(
        &inputs.sys,
        &inputs.dram,
        &inputs.bundles[k],
        &inputs.mechanism,
        &inputs.options,
        &RecoveryOptions::default(),
        &mut clock,
    )
    .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let mut bounds = clock.starts;
    let preamble = bounds.first().map_or(Duration::ZERO, |&q0| q0 - start);
    bounds.push(end);
    Ok(Run {
        bundle: k,
        quanta_ms: bounds.windows(2).map(|w| report::ms(w[1] - w[0])).collect(),
        total: end - start,
        preamble,
        fingerprint: fingerprint(&result),
        efficiency: result.efficiency,
        envy_freeness: result.envy_freeness,
        fallback_quanta: result.fallback_quanta,
        converged: result.always_converged,
    })
}

fn run_phase(inputs: &Inputs, budget: Duration) -> Phase {
    let n = inputs.bundles.len();
    let before = Snapshot::take();
    let mut phase = Phase {
        runs: Vec::new(),
        wall: Duration::ZERO,
        attempted: 0,
        failed: 0,
        rounds: 0,
        iterations: 0,
        recoveries: 0,
        fallback_quanta: 0,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < n || report::fits_another(start, i, budget) {
        // Every pass shifts the CPU each quantum runs on by one.
        match simulate(inputs, i % n, i + i / n) {
            Ok(run) => {
                phase.failed += run.fallback_quanta as u64;
                phase.runs.push(run);
            }
            Err(e) => {
                eprintln!("simulation of bundle {} failed: {e}", i % n);
                phase.failed += QUANTA as u64;
            }
        }
        report::drop_journal();
        i += 1;
        if i == n {
            let after = Snapshot::take();
            phase.rounds = before.counter_delta(&after, "rebudget.rounds");
            phase.iterations = before.counter_delta(&after, "solver.iterations");
            phase.recoveries = before.counter_delta(&after, "solver.recoveries");
            phase.fallback_quanta = before.counter_delta(&after, "sim.fallback_quanta");
            phase.peak_rss_mb = report::peak_rss_mb();
        }
    }
    phase.wall = start.elapsed();
    cpu::release(0);
    phase.attempted = (i * QUANTA) as u64;
    phase
}

fn check_outputs(report: &mut Report, phase: &Phase, n: usize) {
    let first = &phase.runs[..n.min(phase.runs.len())];
    let complete = first.len() == n && first.iter().enumerate().all(|(k, r)| r.bundle == k);
    report.check(complete, || {
        "the first pass did not simulate every bundle".into()
    });
    for run in &phase.runs {
        let reference = first.iter().find(|r| r.bundle == run.bundle);
        report.check(
            reference.is_some_and(|r| r.fingerprint == run.fingerprint),
            || format!("bundle {} fingerprint differs across repeats", run.bundle),
        );
        report.check(run.converged, || {
            format!("bundle {} had a quantum that did not converge", run.bundle)
        });
    }
    for r in first {
        println!(
            "# sim-quanta bundle {} fingerprint {:016x}",
            r.bundle, r.fingerprint
        );
    }
}

/// Each bundle's quantum-by-quantum host milliseconds, every quantum at
/// its fastest repeat; a bundle with no completed simulation is left out.
fn best_quanta(runs: &[Run], n: usize) -> Vec<Vec<f64>> {
    let mut best = vec![Vec::<f64>::new(); n];
    for run in runs {
        let b = &mut best[run.bundle];
        if b.is_empty() {
            *b = run.quanta_ms.clone();
        } else {
            for (x, &y) in b.iter_mut().zip(&run.quanta_ms) {
                *x = x.min(y);
            }
        }
    }
    best.retain(|b| !b.is_empty());
    best
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let inputs = setup(args.seed)?;
    let n = inputs.bundles.len();
    let mut report = Report::default();
    if !args.trace {
        let phase = run_phase(&inputs, args.budget);
        check_outputs(&mut report, &phase, n);
        let quanta = phase.runs.len() * QUANTA;
        report.attempted = phase.attempted;
        report.failed += phase.failed;
        let best = best_quanta(&phase.runs, n);
        let lat: Vec<f64> = best.iter().flatten().copied().collect();
        // Growth over a simulation: the workload's quantum-by-quantum
        // profile, summed over the bundles.
        let profile: Vec<f64> = (0..QUANTA)
            .map(|q| best.iter().map(|b| b[q]).sum())
            .collect();
        let first = &phase.runs[..n.min(phase.runs.len())];
        // Every simulation sets itself up (profiles, UMON monitors, the
        // machine) before its first quantum; that is this workload's
        // set-up. Successive simulations set up on successive CPUs, so, as
        // in `report::timed_setup`, each round of one per CPU counts its
        // slowest.
        let rounds: Vec<f64> = phase
            .runs
            .chunks(cpu::count())
            .map(|round| {
                round
                    .iter()
                    .map(|r| r.preamble.as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        report.metric("setup_s", report::median(&rounds));
        report.metric("throughput_per_s", quanta as f64 / phase.wall.as_secs_f64());
        report.metric("latency_ms.p50", report::quantile(&lat, 0.5));
        report.metric("latency_ms.p95", report::quantile(&lat, 0.95));
        report.metric("latency_growth", report::growth(&profile));
        report.metric("peak_rss_mb", phase.peak_rss_mb);
        report.metric(
            "efficiency",
            report::mean(&first.iter().map(|r| r.efficiency).collect::<Vec<_>>()),
        );
        report.metric(
            "envy_freeness",
            report::mean(&first.iter().map(|r| r.envy_freeness).collect::<Vec<_>>()),
        );
        report.metric(
            "ok_frac",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        return Ok(report);
    }
    let half = args.budget / 2;
    let base = run_phase(&inputs, half);
    report::tracing(true);
    let traced = run_phase(&inputs, half);
    let spans = Snapshot::take();
    report::tracing(false);
    check_outputs(&mut report, &traced, n);
    report.attempted = traced.attempted;
    report.failed += traced.failed;
    let quanta = (traced.runs.len() * QUANTA) as f64;
    let per_quantum = |select: fn(&str) -> bool| spans.span_ns(select) as f64 / 1e6 / quanta;
    let quantum_ms = per_quantum(|p| p == "quantum");
    let rebudget_ms = per_quantum(|p| p == "quantum/rebudget");
    let timed: Duration = traced.runs.iter().map(|r| r.total).sum();
    let (unaccounted, covered) = report::coverage(traced.wall, timed);
    report.check(covered, || {
        format!(
            "timed layer calls cover only {:.1}% of wall time",
            100.0 - unaccounted
        )
    });
    let first_pass_s = |p: &Phase| {
        let first: Duration = p.runs.iter().take(n).map(|r| r.total).sum();
        first.as_secs_f64()
    };
    report.metric("sim.quantum_ms", quantum_ms);
    report.metric("sim.self_ms", quantum_ms - rebudget_ms);
    report.metric("core.rebudget_ms", rebudget_ms);
    report.metric("market.solve_ms", per_quantum(|p| p.ends_with("/solve")));
    report.metric("core.rebudget.rounds", traced.rounds as f64);
    report.metric("market.equilibrium.iterations", traced.iterations as f64);
    report.metric("market.solver.recoveries", traced.recoveries as f64);
    report.metric("sim.fallback_quanta", traced.fallback_quanta as f64);
    report.metric(
        "telemetry.overhead_pct",
        (first_pass_s(&traced) / first_pass_s(&base) - 1.0) * 100.0,
    );
    report.metric("telemetry.peak_rss_mb", traced.peak_rss_mb);
    report.metric("coverage.unaccounted_pct", unaccounted);
    println!(
        "# sim-quanta first pass: {n} bundles x {QUANTA} quanta, rounds {}, iterations {}",
        traced.rounds, traced.iterations
    );
    Ok(report)
}

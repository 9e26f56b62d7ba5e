//! Shared measurement plumbing: the result line, summary statistics,
//! process memory, telemetry snapshots, and the output checks.

use std::time::{Duration, Instant};

use rebudget_telemetry as telemetry;

use crate::cpu;

/// End-to-end metrics and their units, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p95", "ms"),
    ("latency_growth", "ratio"),
    ("peak_rss_mb", "MB"),
    ("efficiency", "ratio"),
    ("envy_freeness", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics and their units, reported by every workload with
/// `--trace 1` (0 for a layer the workload does not exercise).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.build_market_ms", "ms"),
    ("core.mechanisms.equal_budget_ms", "ms"),
    ("core.mechanisms.balanced_ms", "ms"),
    ("core.mechanisms.rebudget20_ms", "ms"),
    ("core.mechanisms.rebudget40_ms", "ms"),
    ("market.optimal.oracle_ms", "ms"),
    ("market.optimal.polish_ms", "ms"),
    ("core.rebudget.rounds", "count"),
    ("market.equilibrium.iterations", "count"),
    ("market.solver.recoveries", "count"),
    ("sim.quantum_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("core.rebudget_ms", "ms"),
    ("market.solve_ms", "ms"),
    ("sim.fallback_quanta", "count"),
    ("market.iterations_per_tick", "count"),
    ("server.apply_us", "us"),
    ("server.tick_ms", "ms"),
    ("server.commit_ms", "ms"),
    ("server.ledger_mb", "MB"),
    ("server.snapshot_kb", "KB"),
    ("daemon.admit_ms", "ms"),
    ("daemon.tick_rtt_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.peak_rss_mb", "MB"),
    ("coverage.unaccounted_pct", "%"),
];

/// The batch workloads' solver thread policy. Results are bit-identical
/// under every policy. On a 2-vCPU shared host, `Auto`'s per-call thread
/// fan-out over the 64 players measured both slower and far less steady
/// (paper-sweep: 29-38 vs 38-42 bundles/s over alternating 8 s runs), so
/// the batch paths run serial. The daemon keeps `rebudget serve`'s
/// configuration; its sparse solver splits work in 4096-player blocks, so
/// it runs serial at these sizes anyway.
pub const BATCH_POLICY: rebudget_market::ParallelPolicy = rebudget_market::ParallelPolicy::Serial;

/// Share of a workload's wall time its timed layer calls must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The run's result: the JSON object printed as the last stdout line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (bundles, quanta, or admissions + ticks).
    pub attempted: u64,
    /// Operations that failed, plus one per failed output check.
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one metric by its name in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Renders the result line for a run of the given kind. A per-layer
    /// metric the workload did not report is a layer it does not
    /// exercise and reads 0; a missing or unknown end-to-end metric fails
    /// the run.
    pub fn finish(mut self, trace: bool) -> (bool, String) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in table {
            if !self.metrics.iter().any(|m| m.0 == *name) {
                if trace {
                    self.metrics.push((name, 0.0));
                } else {
                    self.failures.push(format!("missing metric {name}"));
                }
            }
        }
        let mut fields = Vec::with_capacity(table.len());
        for (name, value) in &self.metrics {
            match table.iter().find(|(n, _)| n == name) {
                Some((_, unit)) if value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                )),
                Some(_) => self.failures.push(format!("{name} is not a finite number")),
                None => self
                    .failures
                    .push(format!("{name} is not a metric of this run")),
            }
        }
        for f in &self.failures {
            eprintln!("check failed: {f}");
        }
        let correct = self.failures.is_empty();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed.max(u64::from(!correct)),
            fields.join(", ")
        );
        (correct, line)
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 if empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 if empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Growth of a sequence of latencies from its start to its end: the
/// least-squares line through all of them, its mean over the last tenth
/// over its mean over the first tenth (1.0 means flat over uptime). The
/// line uses every sample, so the few samples at either end, which on a
/// shared host swing with other tenants' load, do not decide it alone.
pub fn growth(latencies: &[f64]) -> f64 {
    let n = latencies.len();
    if n < 2 {
        return 1.0;
    }
    let mid = (n - 1) as f64 / 2.0;
    let level = mean(latencies);
    let (mut cov, mut var) = (0.0, 0.0);
    for (x, y) in latencies.iter().enumerate() {
        let dx = x as f64 - mid;
        cov += dx * (y - level);
        var += dx * dx;
    }
    // A line's mean over a tenth is its value at the tenth's middle.
    let line = |x: f64| level + cov / var * (x - mid);
    let half_tenth = ((n / 10).max(1) - 1) as f64 / 2.0;
    let first = line(half_tenth);
    let last = line((n - 1) as f64 - half_tenth);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Whether at least half of one more unit of work, taking as long as the
/// `done` units since `start` took on average, still fits within
/// `budget`. Always true before the first unit.
pub fn fits_another(start: Instant, done: usize, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    done == 0 || elapsed + elapsed / (2 * done as u32) <= budget
}

/// Runs `setup` in [`SETUP_REPEATS`] rounds and returns the last round's
/// kept result and the median round time in seconds. Each round runs a
/// copy pinned to each allowed CPU in turn and counts the slowest, so the
/// figure does not depend on the CPU the process landed on (see
/// [`crate::cpu`]). Only the round's last copy is asked (`keep`) to hold
/// on to what it builds.
pub fn timed_setup<T>(setup: impl Fn(bool) -> Result<T, String>) -> Result<(T, f64), String> {
    let copies = cpu::count();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let mut slowest = 0.0_f64;
        for copy in 0..copies {
            // Free the previous result before building the next one.
            drop(last.take());
            cpu::pin(0, copy);
            let t = Instant::now();
            last = Some(setup(copy + 1 == copies)?);
            slowest = slowest.max(t.elapsed().as_secs_f64());
        }
        times.push(slowest);
    }
    cpu::release(0);
    let value = last.ok_or("no set-up ran")?;
    Ok((value, median(&times)))
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Turns telemetry on, from an empty registry and journal, or off.
pub fn tracing(on: bool) {
    if on {
        telemetry::reset();
    }
    telemetry::set_enabled(on);
}

/// Drops buffered journal events (while tracing, every `solver_iteration`
/// is kept in memory) without touching the registry.
pub fn drop_journal() {
    telemetry::global().journal.reset();
}

/// A point-in-time copy of the telemetry registry.
pub struct Snapshot(telemetry::MetricsSnapshot);

impl Snapshot {
    /// Copies the global registry.
    pub fn take() -> Self {
        Self(telemetry::global().registry.snapshot())
    }

    /// A counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Total nanoseconds of the spans whose path satisfies `select` (spans
    /// record into histograms named `span.<path>`).
    pub fn span_ns(&self, select: impl Fn(&str) -> bool) -> u64 {
        self.0
            .histograms
            .iter()
            .filter(|(k, _)| k.strip_prefix("span.").is_some_and(&select))
            .map(|(_, h)| h.sum)
            .sum()
    }

    /// `later − self` for a counter.
    pub fn counter_delta(&self, later: &Snapshot, name: &str) -> u64 {
        later.counter(name).saturating_sub(self.counter(name))
    }

    /// `later − self` for span nanoseconds under `select`.
    pub fn span_ns_delta(&self, later: &Snapshot, select: impl Fn(&str) -> bool + Copy) -> u64 {
        later.span_ns(select).saturating_sub(self.span_ns(select))
    }
}

/// Share of `wall` not covered by `timed`, in percent, and whether the
/// timed calls cover at least [`MIN_COVERAGE`] of it.
pub fn coverage(wall: Duration, timed: Duration) -> (f64, bool) {
    let wall = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let covered = timed.as_secs_f64() / wall;
    ((1.0 - covered).max(0.0) * 100.0, covered >= MIN_COVERAGE)
}

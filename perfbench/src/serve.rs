//! `serve-churn` and `serve-uptime`: the online daemon on its own seeded
//! workload, over its real Unix socket.
//!
//! The daemon (`Daemon` on a second thread, configured as `rebudget
//! serve` configures it) serves one client connection in a closed loop.
//! Every tick's commands are generated before timing starts. For each
//! tick the client writes the admissions, reads their queued acks, sends
//! `tick` and waits for the committed response; the durable ack runs
//! from the first admission written to that response. A session is one
//! fresh daemon driven for the workload's whole tick count and shut down
//! (which seals the ledger); a run repeats sessions while another still
//! fits in its time. Successive ticks run on successive CPUs (see
//! [`crate::cpu`]).
//!
//! The traced run re-drives the same command stream in-process through
//! `ServerCore::apply` and `ServerCore::tick`, once untraced (the
//! overhead baseline) and once with telemetry on, and prints the
//! per-tick trend of the traced session.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebudget_core::theory::ef_lower_bound;
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::metrics::mbr;
use rebudget_market::{RetryPolicy, SolverKind};
use rebudget_server::{
    Daemon, DaemonConfig, DaemonSummary, Endpoint, Listener, Request, ServerConfig, ServerCore,
    ServerError, WorkloadSpec,
};

use crate::cpu;
use crate::report::{self, Report, Snapshot};
use crate::Args;

/// One serve workload.
pub struct Spec {
    name: &'static str,
    initial_players: usize,
    arrivals_per_tick: usize,
    mean_lifetime: u64,
    update_percent: u64,
    /// Ticks per session.
    ticks: u64,
}

/// ROADMAP item 2's workload: steady churn around 2000 live players.
pub const CHURN: Spec = Spec {
    name: "serve-churn",
    initial_players: 2000,
    arrivals_per_tick: 20,
    mean_lifetime: 100,
    update_percent: 1,
    ticks: 200,
};

/// A stable population: nobody arrives, updates or (within the session)
/// departs after tick 0, so the per-tick cost is the commit's.
pub const UPTIME: Spec = Spec {
    name: "serve-uptime",
    initial_players: 1000,
    arrivals_per_tick: 0,
    mean_lifetime: 1 << 40,
    update_percent: 0,
    ticks: 600,
};

const RESOURCES: usize = 64;
const CAPACITY: f64 = 100.0;
/// `rebudget serve`'s default online tolerance.
const TOLERANCE: f64 = 1e-4;
/// Where session state (ledger, snapshot, socket) lives, relative to the
/// working directory.
const STATE_ROOT: &str = ".bench_run";

fn server_config(seed: u64) -> ServerConfig {
    let solver = SolverKind::ProportionalResponse;
    let mut options = EquilibriumOptions::large_scale().with_solver(solver);
    options.price_tolerance = TOLERANCE;
    ServerConfig {
        capacities: vec![CAPACITY; RESOURCES],
        solver,
        options,
        retry: RetryPolicy::default(),
        fallback_after: 3,
        seed,
        commit_delay_ms: 0,
    }
}

/// One tick's admission batch, parsed and serialized.
struct TickCommands {
    requests: Vec<Request>,
    lines: Vec<u8>,
}

struct Inputs {
    seed: u64,
    ticks: Vec<TickCommands>,
}

fn generate(spec: &Spec, seed: u64) -> Inputs {
    let workload = WorkloadSpec {
        seed,
        initial_players: spec.initial_players,
        resources: RESOURCES,
        arrivals_per_tick: spec.arrivals_per_tick,
        mean_lifetime: spec.mean_lifetime,
        update_percent: spec.update_percent,
    };
    let ticks = (0..spec.ticks)
        .map(|t| {
            let requests = workload.commands_for_tick(t);
            let mut lines = Vec::new();
            for r in &requests {
                lines.extend_from_slice(r.to_line().as_bytes());
                lines.push(b'\n');
            }
            TickCommands { requests, lines }
        })
        .collect();
    Inputs { seed, ticks }
}

fn server_err(e: ServerError) -> String {
    e.to_string()
}

/// This process's state directory.
fn process_dir() -> PathBuf {
    Path::new(STATE_ROOT).join(std::process::id().to_string())
}

/// A fresh state directory for session `k`.
fn state_dir(k: usize) -> PathBuf {
    process_dir().join(k.to_string())
}

/// A daemon serving on its own thread, and the client's connection.
struct Running {
    dir: PathBuf,
    socket: PathBuf,
    /// Kernel id of the daemon's thread, which each tick moves to the
    /// next CPU (see [`crate::cpu`]).
    tid: i32,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Taken by [`Running::stop`]; still set when a session fails.
    handle: Option<JoinHandle<Result<DaemonSummary, ServerError>>>,
}

const SHUTDOWN: &[u8] = b"{\"cmd\":\"shutdown\"}\n";

fn start_daemon(inputs: &Inputs, k: usize) -> Result<Running, String> {
    let dir = state_dir(k);
    let _ = std::fs::remove_dir_all(&dir);
    let core = ServerCore::open(server_config(inputs.seed), &dir).map_err(server_err)?;
    // The queue must hold the largest batch, or tick 0 would be shed.
    let largest = inputs
        .ticks
        .iter()
        .map(|t| t.requests.len())
        .max()
        .unwrap_or(0);
    let config = DaemonConfig {
        queue_cap: largest.max(DaemonConfig::default().queue_cap),
        ..DaemonConfig::default()
    };
    // Relative, so it stays under the socket path length limit.
    let socket = dir.join("d.sock");
    let listener = Listener::bind(&Endpoint::Unix(socket.clone())).map_err(server_err)?;
    let daemon = Daemon::new(core, config);
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // The receiver outlives this send: `start_daemon` waits for it.
        let _ = tx.send(cpu::thread_id());
        daemon.serve(listener)
    });
    let tid = rx
        .recv()
        .map_err(|_| "daemon thread did not start".to_string())?;
    let stream = UnixStream::connect(&socket).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    Ok(Running {
        dir,
        socket,
        tid,
        reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
        writer: stream,
        handle: Some(handle),
    })
}

impl Running {
    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer.write_all(bytes).map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Shuts the daemon down (sealing the ledger), joins its thread, and
    /// returns the sealed ledger text.
    fn stop(mut self) -> Result<(String, DaemonSummary), String> {
        self.send(SHUTDOWN)?;
        self.recv()?;
        let handle = self.handle.take().ok_or("daemon already stopped")?;
        let summary = handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(server_err)?;
        let ledger = read_ledger(&self.dir)?;
        Ok((ledger, summary))
    }
}

impl Drop for Running {
    /// A session that failed part-way still shuts its daemon down, over
    /// a fresh connection, and joins the thread.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Ok(mut s) = UnixStream::connect(&self.socket) {
                let _ = s.write_all(SHUTDOWN);
            }
            let _ = handle.join();
        }
    }
}

fn read_ledger(dir: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(dir.join("server.ledger")).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(text)
}

/// The value of `"key":` in a flat JSON response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// What a session's ticks reported, whichever way they were driven.
#[derive(Default)]
struct Session {
    /// Durable ack per tick (socket) or apply + tick time (in-process), ms.
    latency_ms: Vec<f64>,
    /// Admission batch written → last queued ack, per tick (socket).
    admit_ms: Vec<f64>,
    /// `tick` sent → committed response, per tick (socket).
    tick_rtt_ms: Vec<f64>,
    /// Time spent driving ticks (set-up and shutdown excluded).
    drive: Duration,
    /// Time inside `ServerCore::apply` and `ServerCore::tick` (in-process).
    apply: Duration,
    applies: u64,
    tick: Duration,
    /// Solve time inside each tick (traced in-process).
    solve_ms: Vec<f64>,
    iterations: u64,
    trend: Vec<String>,
    ledger_bytes: u64,
    snapshot_bytes: u64,
    attempted: u64,
    failed: u64,
    /// Ticks that did not converge, fell back, or missed the tolerance.
    bad_ticks: u64,
    digest: u64,
    records: usize,
    /// The sealed ledger text, kept for the first socket session only.
    ledger: Option<String>,
    /// Peak RSS of the process at the end of the session, MB.
    peak_rss_mb: f64,
}

fn finish_ledger(s: &mut Session, ledger: String, keep: bool) -> Result<(), String> {
    let summary = rebudget_scenario::ledger::verify(&ledger).map_err(|e| e.to_string())?;
    s.digest = summary.fnv1a;
    s.records = summary.records;
    s.ledger = keep.then_some(ledger);
    Ok(())
}

/// Drives session `k` over the socket; the first session keeps its
/// ledger text.
fn socket_session(inputs: &Inputs, mut daemon: Running, k: usize) -> Result<Session, String> {
    let mut s = Session::default();
    let start = Instant::now();
    for (t, cmds) in inputs.ticks.iter().enumerate() {
        // Session `k` starts on the `k`-th CPU, so the heavy tick 0 is
        // not always timed on the same one.
        cpu::pin(daemon.tid, t + k);
        let t0 = Instant::now();
        daemon.send(&cmds.lines)?;
        for _ in &cmds.requests {
            let ack = daemon.recv()?;
            if !ack.contains("\"queued\":true") {
                s.failed += 1;
            }
        }
        let t1 = Instant::now();
        daemon.send(b"{\"cmd\":\"tick\"}\n")?;
        let resp = loop {
            let line = daemon.recv()?;
            if field(&line, "reason").is_some_and(|r| r == "\"rejected\"") {
                s.failed += 1;
                continue;
            }
            break line;
        };
        let t2 = Instant::now();
        s.latency_ms.push(report::ms(t2 - t0));
        s.admit_ms.push(report::ms(t1 - t0));
        s.tick_rtt_ms.push(report::ms(t2 - t1));
        s.attempted += cmds.requests.len() as u64 + 1;
        s.iterations += field(&resp, "iterations")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        if field(&resp, "converged") != Some("true") || field(&resp, "fallback") != Some("false") {
            s.bad_ticks += 1;
        }
    }
    s.drive = start.elapsed();
    s.peak_rss_mb = report::peak_rss_mb();
    let (ledger, summary) = daemon.stop()?;
    let st = summary.stats;
    s.failed = s
        .failed
        .max(st.shed + st.rejected + st.malformed + st.oversized);
    finish_ledger(&mut s, ledger, k == 0)?;
    Ok(s)
}

fn inprocess_session(inputs: &Inputs, k: usize, traced: bool) -> Result<Session, String> {
    let dir = state_dir(k);
    let _ = std::fs::remove_dir_all(&dir);
    let mut core = ServerCore::open(server_config(inputs.seed), &dir).map_err(server_err)?;
    let mut s = Session::default();
    let start = Instant::now();
    for (t, cmds) in inputs.ticks.iter().enumerate() {
        cpu::pin(0, t + k);
        let t0 = Instant::now();
        let mut admitted = 0;
        for req in &cmds.requests {
            match core.apply(req) {
                Ok(()) => admitted += 1,
                Err(_) => s.failed += 1,
            }
        }
        let applied = t0.elapsed();
        let before = traced.then(Snapshot::take);
        let t1 = Instant::now();
        let tick = core.tick(admitted).map_err(server_err)?;
        let ticked = t1.elapsed();
        let solve_ms = before.map_or(0.0, |b| {
            b.span_ns_delta(&Snapshot::take(), |p| p.ends_with("solve")) as f64 / 1e6
        });
        s.apply += applied;
        s.applies += cmds.requests.len() as u64;
        s.tick += ticked;
        s.latency_ms.push(report::ms(applied + ticked));
        s.attempted += cmds.requests.len() as u64 + 1;
        s.iterations += tick.iterations;
        if !tick.converged || tick.fallback || tick.residual > TOLERANCE {
            s.bad_ticks += 1;
        }
        if traced {
            s.solve_ms.push(solve_ms);
            let ledger_bytes = std::fs::metadata(core.ledger_path()).map_or(0, |m| m.len());
            s.trend.push(format!(
                "{} {} {} {} {:.3} {:.3} {}",
                tick.tick,
                tick.players,
                tick.admitted,
                tick.iterations,
                solve_ms,
                report::ms(ticked) - solve_ms,
                ledger_bytes
            ));
        }
    }
    s.drive = start.elapsed();
    cpu::release(0);
    s.peak_rss_mb = report::peak_rss_mb();
    s.ledger_bytes = std::fs::metadata(core.ledger_path()).map_or(0, |m| m.len());
    s.snapshot_bytes = std::fs::metadata(dir.join("server.snapshot")).map_or(0, |m| m.len());
    core.seal().map_err(server_err)?;
    drop(core);
    finish_ledger(&mut s, read_ledger(&dir)?, false)?;
    report::drop_journal();
    Ok(s)
}

/// Mean over ticks of the ledger's welfare over the linear welfare bound
/// `Σ_j c_j · max_i w_ij` of the live players (an upper bound on any
/// feasible allocation's welfare), and mean over ticks of Theorem 2's
/// envy-freeness floor at the tick's budget range. Also returns the
/// ticks whose welfare exceeds the bound (an impossible allocation).
fn outcomes(inputs: &Inputs, ledger: &str) -> (f64, f64, usize) {
    let mut live: BTreeMap<&str, &[(u32, f64)]> = BTreeMap::new();
    let mut bounds = Vec::with_capacity(inputs.ticks.len());
    for cmds in &inputs.ticks {
        for req in &cmds.requests {
            match req {
                Request::Arrive { id, interests, .. } | Request::Update { id, interests } => {
                    live.insert(id.as_str(), interests.as_slice());
                }
                Request::Depart { id } => {
                    live.remove(id.as_str());
                }
                _ => {}
            }
        }
        let mut best = [0.0_f64; RESOURCES];
        for interests in live.values() {
            for &(c, w) in interests.iter() {
                best[c as usize] = best[c as usize].max(w);
            }
        }
        bounds.push(best.iter().sum::<f64>() * CAPACITY);
    }
    let hex = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
    let (mut eff, mut ef, mut over) = (Vec::new(), Vec::new(), 0);
    let mut budgets: Vec<f64> = Vec::new();
    for line in ledger.lines() {
        if let Some(list) = line.strip_prefix("budgets=") {
            budgets = list.split_whitespace().filter_map(hex).collect();
        } else if let Some(v) = line.strip_prefix("eff=").and_then(hex) {
            let bound = bounds.get(eff.len()).copied().unwrap_or(0.0);
            let ratio = if bound > 0.0 { v / bound } else { 0.0 };
            if ratio > 1.0 + 1e-9 {
                over += 1;
            }
            eff.push(ratio);
            ef.push(ef_lower_bound(mbr(&budgets)));
        }
    }
    (report::mean(&eff), report::mean(&ef), over)
}

fn check_session(report: &mut Report, spec: &Spec, s: &Session, reference: u64, how: &str) {
    report.check(s.records == spec.ticks as usize, || {
        format!("{how} ledger holds {} of {} ticks", s.records, spec.ticks)
    });
    report.check(s.bad_ticks == 0, || {
        format!(
            "{how}: {} ticks did not converge under {TOLERANCE:e} or fell back",
            s.bad_ticks
        )
    });
    report.check(s.digest == reference, || {
        format!(
            "{how} ledger digest {:016x} differs from {reference:016x}",
            s.digest
        )
    });
}

/// Runs sessions of `drive` while [`report::fits_another`] (at least
/// one).
fn repeat(
    budget: Duration,
    mut drive: impl FnMut(usize) -> Result<Session, String>,
) -> Result<Vec<Session>, String> {
    let start = Instant::now();
    let mut sessions = Vec::new();
    while report::fits_another(start, sessions.len(), budget) {
        sessions.push(drive(sessions.len())?);
    }
    Ok(sessions)
}

/// Runs the workload.
pub fn run(args: &Args, spec: &Spec) -> Result<Report, String> {
    std::fs::create_dir_all(process_dir()).map_err(|e| e.to_string())?;
    let result = drive(args, spec);
    let _ = std::fs::remove_dir_all(process_dir());
    let _ = std::fs::remove_dir(STATE_ROOT);
    result
}

fn drive(args: &Args, spec: &Spec) -> Result<Report, String> {
    // Set-up: generate the command stream, then start a daemon, each
    // repeated; the last daemon serves the first session.
    let (inputs, generate_s) = report::timed_setup(|_| Ok(generate(spec, args.seed)))?;
    let mut starts = Vec::new();
    let mut ready: Option<Running> = None;
    for r in 0..report::SETUP_REPEATS {
        if let Some(daemon) = ready.take() {
            daemon.stop()?;
        }
        let t = Instant::now();
        ready = Some(start_daemon(&inputs, 1000 + r)?);
        starts.push(t.elapsed().as_secs_f64());
    }
    let first_daemon = ready.ok_or("no set-up ran")?;
    let setup_s = generate_s + report::median(&starts);
    let mut first_daemon = Some(first_daemon);
    let mut socket = |k: usize| {
        let daemon = match first_daemon.take() {
            Some(d) => d,
            None => start_daemon(&inputs, k)?,
        };
        socket_session(&inputs, daemon, k)
    };
    let mut report = Report::default();
    if !args.trace {
        let sessions = repeat(args.budget, &mut socket)?;
        let reference = sessions[0].digest;
        for s in &sessions {
            check_session(&mut report, spec, s, reference, "socket");
            report.attempted += s.attempted;
            report.failed += s.failed + s.bad_ticks;
        }
        let ledger = sessions[0].ledger.as_deref().unwrap_or_default();
        let (efficiency, envy_freeness, over) = outcomes(&inputs, ledger);
        report.check(over == 0, || {
            format!("{over} ticks exceed the welfare bound")
        });
        println!(
            "# {} ledger digest {reference:016x}, {} sessions, iterations per session {}",
            spec.name,
            sessions.len(),
            sessions[0].iterations
        );
        let lat: Vec<f64> = sessions.iter().flat_map(|s| s.latency_ms.clone()).collect();
        let ticks: usize = sessions.iter().map(|s| s.latency_ms.len()).sum();
        let drive: Duration = sessions.iter().map(|s| s.drive).sum();
        // Every session replays the same ticks; growth is read from the
        // mean over sessions of each tick's durable ack.
        let profile: Vec<f64> = (0..spec.ticks as usize)
            .map(|t| report::mean(&sessions.iter().map(|s| s.latency_ms[t]).collect::<Vec<_>>()))
            .collect();
        report.metric("setup_s", setup_s);
        report.metric("throughput_per_s", ticks as f64 / drive.as_secs_f64());
        report.metric("latency_ms.p50", report::quantile(&lat, 0.5));
        report.metric("latency_ms.p95", report::quantile(&lat, 0.95));
        report.metric("latency_growth", report::growth(&profile));
        report.metric("peak_rss_mb", sessions[0].peak_rss_mb);
        report.metric("efficiency", efficiency);
        report.metric("envy_freeness", envy_freeness);
        report.metric(
            "ok_frac",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        return Ok(report);
    }
    // Traced run: one socket session (the digest reference and the
    // daemon's own stages), then the in-process re-drive untraced and
    // traced.
    let half = args.budget / 2;
    let over_socket = socket(0)?;
    let base = repeat(half, |k| inprocess_session(&inputs, 2000 + k, false))?;
    report::tracing(true);
    let traced = repeat(half, |k| inprocess_session(&inputs, 3000 + k, true));
    report::tracing(false);
    let traced = traced?;
    let reference = over_socket.digest;
    check_session(&mut report, spec, &over_socket, reference, "socket");
    for s in base.iter().chain(&traced) {
        check_session(&mut report, spec, s, reference, "in-process");
    }
    report.attempted = traced.iter().map(|s| s.attempted).sum();
    report.failed += traced.iter().map(|s| s.failed + s.bad_ticks).sum::<u64>();
    let t = &traced[0];
    let n = spec.ticks as f64;
    let drive: Duration = traced.iter().map(|s| s.drive).sum();
    let timed: Duration = traced.iter().map(|s| s.apply + s.tick).sum();
    let (unaccounted, covered) = report::coverage(drive, timed);
    report.check(covered, || {
        format!(
            "timed layer calls cover only {:.1}% of wall time",
            100.0 - unaccounted
        )
    });
    let session_s = |sessions: &[Session]| {
        report::mean(
            &sessions
                .iter()
                .map(|s| (s.apply + s.tick).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let solve_ms = report::mean(&t.solve_ms);
    let tick_ms = report::ms(t.tick) / n;
    report.metric("market.solve_ms", solve_ms);
    report.metric("market.iterations_per_tick", t.iterations as f64 / n);
    report.metric("market.equilibrium.iterations", t.iterations as f64);
    report.metric(
        "server.apply_us",
        t.apply.as_secs_f64() * 1e6 / t.applies.max(1) as f64,
    );
    report.metric("server.tick_ms", tick_ms);
    report.metric("server.commit_ms", tick_ms - solve_ms);
    report.metric("server.ledger_mb", t.ledger_bytes as f64 / 1e6);
    report.metric("server.snapshot_kb", t.snapshot_bytes as f64 / 1e3);
    report.metric("daemon.admit_ms", report::mean(&over_socket.admit_ms));
    report.metric("daemon.tick_rtt_ms", report::mean(&over_socket.tick_rtt_ms));
    report.metric(
        "telemetry.overhead_pct",
        (session_s(&traced) / session_s(&base) - 1.0) * 100.0,
    );
    report.metric("telemetry.peak_rss_mb", t.peak_rss_mb);
    report.metric("coverage.unaccounted_pct", unaccounted);
    println!(
        "# {} ledger digest {reference:016x}, iterations per session {}",
        spec.name, t.iterations
    );
    println!(
        "# trend {}: tick players admitted iterations solve_ms commit_ms ledger_bytes",
        spec.name
    );
    for row in &t.trend {
        println!("# trend {row}");
    }
    Ok(report)
}

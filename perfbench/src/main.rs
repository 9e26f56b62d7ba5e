//! End-to-end and per-layer benchmark of the ReBudget reproduction.
//!
//! ```text
//! perfbench --workload <paper-sweep|sim-quanta|serve-churn|serve-uptime>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is generated from `--seed` and driven through the
//! public functions of the library crates. `--trace 0` measures the
//! end-to-end metrics with telemetry off; `--trace 1` makes a separate
//! traced run that reports the per-layer metrics (see `README.md` for
//! what each one means and which end-to-end metric it should move).
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cpu;
mod report;
mod serve;
mod sim_quanta;
mod sweep;

use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time per run.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        budget: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# host: available_parallelism {threads}");
    let report = match args.workload.as_str() {
        "paper-sweep" => sweep::run(&args),
        "sim-quanta" => sim_quanta::run(&args),
        "serve-churn" => serve::run(&args, &serve::CHURN),
        "serve-uptime" => serve::run(&args, &serve::UPTIME),
        other => Err(format!("unknown workload '{other}'")),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let (correct, line) = report.finish(args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

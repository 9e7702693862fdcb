//! End-to-end benchmark of the `esvm` binary, with a per-layer budget.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of an esvm checkout. Each run builds `esvm`,
//! generates its inputs from `--seed` outside the timed region, drives
//! the real binary for about `--seconds`, checks every output and prints
//! a summary followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer budget, timing
//! in process the same public calls the command makes. The exit code is
//! non-zero when a check fails. `perfbench/README.md` defines the
//! workloads and every metric.

mod check;
mod loadgen;
mod proc;
mod report;
mod serve;
mod solve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

const WORKLOADS: [&str; 4] = ["solve-sparse", "solve-refine", "serve-wire", "serve-dense"];

const USAGE: &str =
    "usage: perfbench --workload <solve-sparse|solve-refine|serve-wire|serve-dense> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where a run keeps its generated inputs, journals and sockets,
/// relative to the checkout root; wiped at the start of every run.
const WORK_DIR: &str = ".perfbench-work";

/// What every workload needs.
pub struct Ctx {
    /// The built `esvm` binary (absolute).
    pub esvm: PathBuf,
    /// The run's scratch directory.
    pub work: PathBuf,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of the workloads")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Lowers the generator's timer slack from the default 50 µs so the
/// open loop's sleeps end close to each line's due time. Threads spawned
/// later inherit it. Best effort: without it the lag is still measured.
fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1000");
}

fn run(args: &Args) -> Result<Outcome, String> {
    let esvm = proc::build_esvm()?;
    let work = PathBuf::from(WORK_DIR);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let ctx = Ctx {
        esvm,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };
    let outcome = match args.workload.as_str() {
        "solve-sparse" => solve::run(&solve::SPARSE, &ctx, args.trace),
        "solve-refine" => solve::run(&solve::REFINE, &ctx, args.trace),
        "serve-wire" => serve::run_wire(&ctx, args.trace),
        _ => serve::run_dense(&ctx, args.trace),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    tighten_timer_slack();
    match run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.summary(&args.workload, args.trace));
            println!("{}", outcome.json(args.trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

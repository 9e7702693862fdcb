//! The `esvm` command-line front end.
//!
//! ```text
//! esvm table1 | table2                  # reproduce Tables I / II
//! esvm fig2 … fig9 [--seeds N] [--quick] [--csv]
//! esvm all [--seeds N] [--quick]        # every artefact in order
//! esvm compare --vms N --servers N [--interarrival F] [--duration F]
//!              [--transition F] [--algos a,b,…] [--seed N]
//! esvm exact [--vms N] [--servers N] [--seed N]
//! esvm timeline [--vms N] [--servers N] [--seed N] [--algos a,b,…]
//! esvm chaos [--fault-rate F] [--seed N] [--retries N] [--backoff N]
//!            [--shed-policy P] [--plan FILE | --plan-out FILE]
//! ```
//!
//! Parsing is deliberately dependency-free; [`run`] returns the rendered
//! output so it is fully testable.

use crate::options::{threads_from_env, ExpOptions};
use crate::runner::{MonteCarlo, RunError};
use crate::{experiments, Figure};
use esvm_analysis::Table;
use esvm_core::AllocatorKind;
use esvm_ilp::Formulation;
use esvm_workload::WorkloadConfig;
use std::fmt;

/// CLI errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Unknown command or malformed flags; carries the usage text.
    Usage(String),
    /// An experiment failed.
    Run(RunError),
    /// The exact solver failed.
    Exact(esvm_ilp::MilpError),
    /// Decoding/auditing failed.
    Sim(esvm_simcore::Error),
    /// A chaos replay failed.
    Chaos(esvm_chaos::ChaosError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Run(e) => write!(f, "experiment failed: {e}"),
            CliError::Exact(e) => write!(f, "exact solve failed: {e}"),
            CliError::Sim(e) => write!(f, "simulation error: {e}"),
            CliError::Chaos(e) => write!(f, "chaos replay failed: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError::Run(e)
    }
}

const USAGE: &str = "\
usage: esvm <command> [options]

commands:
  table1            VM type catalog (paper Table I)
  table2            server type catalog (paper Table II)
  fig2 .. fig9      reproduce the corresponding paper figure
  ext-migration     extension E1: live-migration consolidation trade-off
  ext-arrivals      extension E2: diurnal / bursty arrival streams
  ext-overload      extension E3: admission control under overload
  all               every table and figure in order
  compare           one Monte-Carlo comparison at explicit parameters
  exact             certify heuristics against the exact ILP optimum
  timeline          replay one instance and chart power / active servers
                    (horizons over 1000000 time units are refused)
  gen               generate a workload and write it as a trace file
                    (--out x.esvt streams the binary columnar format)
  solve             load a trace file (text or ESVT) and compare
                    allocators on it
  query             run a piped query plan over a trace or a flat
                    JSONL file such as a --trace-out trace, e.g.
                    esvm query \"load t.esvt | filter start >= 50 \\
                                | agg count,mean:cpu by:end\"
                    stages: load PATH | filter COL OP VALUE | sel COL,…
                            | agg count,sum:C,mean:C,min:C,max:C [by:C]
                            | head N
  plan              capacity planning: admission/energy frontier over
                    fleet sizes (--target F, --sizes a,b,c)
  report            standalone HTML report with SVG plots of every
                    artefact (use --out report.html)
  chaos             fault-injection run: replay allocations under a
                    seeded plan of server outages with repair + shedding
  serve             long-running online allocation loop: REQ lines in,
                    irrevocable PLACED/REJECTED decisions out
                    (stdin by default; --socket PATH for a Unix socket;
                    --trace FILE replays a text or ESVT trace as the
                    event stream)
  gap               online/offline optimality gap: per-seed empirical
                    competitive ratio of MIEC (online) vs MIEC refined
                    by offline local search
                    (--adversary break-even|sawtooth for the
                    Albers-Quedenfeld lower-bound traces)

options (figures):
  --seeds N         Monte-Carlo seeds per point (default 50)
  --threads N       worker threads fanning seeds out (default:
                    ESVM_THREADS; unset or 0 = all cores); results are
                    identical for every value
  --quick           scaled-down VM counts and 6 seeds
  --csv             emit CSV instead of aligned tables

options (compare):
  --vms N --servers N --interarrival F --duration F --transition F
  --algos a,b,…     default: miec,ffps (--algo is an alias)
  --seed N          base seed (default 0)
  --standard-vms    restrict VM catalog to the four standard types
  --small-servers   restrict server catalog to types 1-3

options (exact):
  --vms N (default 4) --servers N (default 2) --seed N (default 0)

options (chaos):
  --fault-rate F    per-server crash probability over the horizon
                    (default 0.1; drains and rack outages scale with it)
  --rack-size N     servers per rack for correlated outages (default 8)
  --mean-outage F   mean outage length in time units (default 10)
  --retries N       repair retries before a displaced VM is shed
                    (default 3)
  --backoff N       base retry backoff in time units, doubling per
                    attempt (default 2)
  --shed-policy P   smallest-remaining-first | largest-remaining-first |
                    arrival-order (default smallest-remaining-first)
  --plan FILE       replay a serialized fault plan instead of
                    generating one from --fault-rate/--seed
  --plan-out FILE   write the fault plan used, for later replay
  --live            drill the plan against a *live* serve session: the
                    DOWN/UP events interleave with the arrival stream
                    through the serve fault verbs (evict + bounded
                    backoff repair); --journal/--queue apply
  (--vms/--servers/--seed/--algos and the telemetry flags also apply)

options (serve):
  --trace FILE      replay a trace file instead of reading stdin (ESVT
                    streams through TraceReader::records; text traces
                    are materialised and fed in arrival order)
  --socket PATH     accept one connection on a Unix socket and serve
                    it to EOF (unix only)
  --servers N       fleet size for the stdin/socket fleet (default 50)
  --seed N          seed of the generated fleet specs (default 0)
  --journal FILE    write-ahead journal: every accepted event is
                    appended (checksummed) before its reply; pass the
                    same path as --recover to resume a crashed journal
  --fsync-every N   group-commit cadence: fsync after every N journal
                    appends (default 4096, a ~10ms durability window
                    at full throughput; 0 = only at checkpoints)
  --recover FILE    replay a journal before serving: the fleet comes
                    from the journal header, a torn tail is truncated,
                    and the engine state is rebuilt bit-exactly
  --queue N         bounded admission queue: at most N simultaneous
                    arrivals admitted per burst, the rest answered
                    ERR overloaded (trace feeds; default unbounded)
  --retries N / --backoff N   repair policy for DOWN evictions
  (protocol: REQ id start dur cpu mem | DOWN s | UP s | STATS | DRAIN;
   replies PLACED id server | REJECTED id | DOWNED s evicted=…
   repaired=… shed=… | UPPED s | ERR code detail)

options (gap):
  --seeds N         seeds to measure (default 10), starting at --seed
  --adversary P     break-even | sawtooth adversarial preset instead
                    of the paper workload model
  (--vms/--servers and the workload flags shape the instances)

options (telemetry, compare/solve/chaos/serve only; other commands
refuse them, and chaos --live refuses --trace-out):
  --metrics-out F   run one instrumented pass per algorithm and write
                    its decision metrics as CSV (histogram rows carry
                    exact p50/p95/p99; a summary table is also
                    appended to the output)
  --trace-out F     write the decision-provenance trace of that pass:
                    hierarchical spans, one explain record per
                    decision (placement, move, eviction, repair, shed)
                    and span-latency percentiles. A .json extension
                    selects Chrome trace_event JSON (load in Perfetto
                    / chrome://tracing); anything else is flat JSONL
                    that `esvm query` can load
  --force           allow --metrics-out / --trace-out to overwrite an
                    existing file (refused by default)
";

/// The commands that write `--metrics-out` / `--trace-out`.
const TELEMETRY_COMMANDS: [&str; 4] = ["compare", "solve", "chaos", "serve"];

/// Flag accumulator.
#[derive(Debug, Default, Clone)]
struct Flags {
    seeds: Option<u64>,
    threads: Option<usize>,
    quick: bool,
    csv: bool,
    vms: Option<usize>,
    servers: Option<usize>,
    interarrival: Option<f64>,
    duration: Option<f64>,
    transition: Option<f64>,
    algos: Option<Vec<AllocatorKind>>,
    seed: Option<u64>,
    standard_vms: bool,
    small_servers: bool,
    out: Option<String>,
    trace: Option<String>,
    target: Option<f64>,
    sizes: Option<Vec<usize>>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    force: bool,
    fault_rate: Option<f64>,
    rack_size: Option<u32>,
    mean_outage: Option<f64>,
    retries: Option<u32>,
    backoff: Option<u32>,
    shed_policy: Option<esvm_chaos::ShedPolicy>,
    plan: Option<String>,
    plan_out: Option<String>,
    socket: Option<String>,
    adversary: Option<esvm_workload::AdversaryPreset>,
    journal: Option<String>,
    fsync_every: Option<u32>,
    recover: Option<String>,
    queue: Option<usize>,
    live: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    let usage = |msg: String| CliError::Usage(format!("{msg}\n\n{USAGE}"));
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("flag {name} needs a value")))
        };
        match arg.as_str() {
            "--seeds" => {
                let seeds: u64 = value("--seeds")?
                    .parse()
                    .map_err(|_| usage("--seeds must be an integer".into()))?;
                if seeds == 0 {
                    return Err(usage("--seeds must be at least 1".into()));
                }
                flags.seeds = Some(seeds);
            }
            "--threads" => {
                flags.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| usage("--threads must be an integer".into()))?,
                )
            }
            "--quick" => flags.quick = true,
            "--csv" => flags.csv = true,
            "--force" => flags.force = true,
            "--standard-vms" => flags.standard_vms = true,
            "--small-servers" => flags.small_servers = true,
            "--vms" => {
                flags.vms = Some(
                    value("--vms")?
                        .parse()
                        .map_err(|_| usage("--vms must be an integer".into()))?,
                )
            }
            "--servers" => {
                flags.servers = Some(
                    value("--servers")?
                        .parse()
                        .map_err(|_| usage("--servers must be an integer".into()))?,
                )
            }
            "--interarrival" => {
                let raw = value(arg)?;
                flags.interarrival = Some(workload_number(arg, &raw, false).map_err(usage)?);
            }
            "--duration" => {
                let raw = value(arg)?;
                flags.duration = Some(workload_number(arg, &raw, false).map_err(usage)?);
            }
            "--transition" => {
                let raw = value(arg)?;
                flags.transition = Some(workload_number(arg, &raw, true).map_err(usage)?);
            }
            "--out" => flags.out = Some(value("--out")?),
            "--metrics-out" => flags.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => flags.trace_out = Some(value("--trace-out")?),
            "--target" => {
                flags.target = Some(
                    value("--target")?
                        .parse()
                        .map_err(|_| usage("--target must be a number in (0, 1]".into()))?,
                )
            }
            "--sizes" => {
                let list = value("--sizes")?;
                let mut sizes = Vec::new();
                for item in list.split(',') {
                    sizes.push(item.parse::<usize>().map_err(|_| {
                        usage("--sizes must be a comma-separated list of integers".into())
                    })?);
                }
                flags.sizes = Some(sizes);
            }
            "--trace" => flags.trace = Some(value("--trace")?),
            "--fault-rate" => {
                let rate: f64 = value("--fault-rate")?
                    .parse()
                    .map_err(|_| usage("--fault-rate must be a number in [0, 1]".into()))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(usage("--fault-rate must be a number in [0, 1]".into()));
                }
                flags.fault_rate = Some(rate);
            }
            "--rack-size" => {
                flags.rack_size = Some(
                    value("--rack-size")?
                        .parse()
                        .map_err(|_| usage("--rack-size must be an integer".into()))?,
                )
            }
            "--mean-outage" => {
                flags.mean_outage = Some(
                    value("--mean-outage")?
                        .parse()
                        .map_err(|_| usage("--mean-outage must be a number".into()))?,
                )
            }
            "--retries" => {
                flags.retries = Some(
                    value("--retries")?
                        .parse()
                        .map_err(|_| usage("--retries must be an integer".into()))?,
                )
            }
            "--backoff" => {
                flags.backoff = Some(
                    value("--backoff")?
                        .parse()
                        .map_err(|_| usage("--backoff must be an integer".into()))?,
                )
            }
            "--shed-policy" => {
                flags.shed_policy = Some(
                    value("--shed-policy")?
                        .parse::<esvm_chaos::ShedPolicy>()
                        .map_err(usage)?,
                )
            }
            "--plan" => flags.plan = Some(value("--plan")?),
            "--plan-out" => flags.plan_out = Some(value("--plan-out")?),
            "--socket" => flags.socket = Some(value("--socket")?),
            "--journal" => flags.journal = Some(value("--journal")?),
            "--recover" => flags.recover = Some(value("--recover")?),
            "--live" => flags.live = true,
            "--fsync-every" => {
                flags.fsync_every = Some(
                    value("--fsync-every")?
                        .parse()
                        .map_err(|_| usage("--fsync-every must be an integer".into()))?,
                )
            }
            "--queue" => {
                flags.queue = Some(
                    value("--queue")?
                        .parse()
                        .map_err(|_| usage("--queue must be an integer".into()))?,
                )
            }
            "--adversary" => {
                flags.adversary = Some(
                    value("--adversary")?
                        .parse::<esvm_workload::AdversaryPreset>()
                        .map_err(|e| usage(e.to_string()))?,
                )
            }
            "--seed" => {
                flags.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| usage("--seed must be an integer".into()))?,
                )
            }
            "--algos" | "--algo" => {
                let list = value(arg)?;
                let mut kinds = Vec::new();
                for name in list.split(',') {
                    kinds.push(
                        name.parse::<AllocatorKind>()
                            .map_err(|e| usage(e.to_string()))?,
                    );
                }
                flags.algos = Some(kinds);
            }
            other => return Err(usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok(flags)
}

/// Parses the value of a workload time flag: a finite number, `> 0`, or
/// `>= 0` when `zero_ok`. The workload generator asserts the same
/// bounds, so checking here turns a panic into a usage error.
fn workload_number(flag: &str, raw: &str, zero_ok: bool) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && (x > 0.0 || (zero_ok && x == 0.0)) => Ok(x),
        _ => Err(format!(
            "{flag} must be a finite number {}, got {raw:?}",
            if zero_ok { ">= 0" } else { "> 0" }
        )),
    }
}

/// Experiment options from the flags. `--threads` wins over
/// `ESVM_THREADS`; a malformed `ESVM_THREADS` is a usage error rather
/// than a silent fall-back to some other thread count.
fn options_from(flags: &Flags) -> Result<ExpOptions, CliError> {
    let mut opts = if flags.quick {
        ExpOptions::quick()
    } else {
        ExpOptions::paper()
    };
    if let Some(s) = flags.seeds {
        opts.seeds = s;
    }
    opts.threads = match flags.threads {
        Some(t) => t,
        None => threads_from_env()
            .map_err(|e| CliError::Usage(format!("{e} (or pass --threads N)")))?,
    };
    Ok(opts)
}

fn render_figure(figure: &Figure, csv: bool) -> String {
    if csv {
        figure.to_csv()
    } else {
        figure.render()
    }
}

fn render_table(title: &str, table: &Table, csv: bool) -> String {
    if csv {
        table.to_csv()
    } else {
        format!("{title}\n\n{table}")
    }
}

/// Runs the CLI and returns the rendered output.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, otherwise the
/// underlying experiment error.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    // `query` takes a free-form pipe expression, not flags.
    if command == "query" {
        let expr = rest.join(" ");
        if expr.trim().is_empty() {
            return Err(CliError::Usage(format!(
                "query needs a plan, e.g. `esvm query \"load trace.esvt | agg count\"`\n\n{USAGE}"
            )));
        }
        return crate::query::run_query(&expr)
            .map_err(|e| CliError::Usage(e.to_string()));
    }
    let flags = parse_flags(rest)?;
    refuse_unwritten_telemetry(command, &flags)?;
    let opts = options_from(&flags)?;

    let output = dispatch(command, &flags, &opts)?;
    // `gen` manages --out itself (it writes the trace, not the message).
    match (&flags.out, command.as_str()) {
        (Some(path), cmd) if cmd != "gen" => {
            std::fs::write(path, &output)
                .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
            Ok(format!("wrote output to {path}"))
        }
        _ => Ok(output),
    }
}

/// Refuses a telemetry flag the command would accept and then never
/// write: only the [`TELEMETRY_COMMANDS`] write them, and the live
/// chaos drill records metrics but no provenance trace.
fn refuse_unwritten_telemetry(command: &str, flags: &Flags) -> Result<(), CliError> {
    let writes = TELEMETRY_COMMANDS.contains(&command);
    let live = command == "chaos" && flags.live;
    for (flag, set, written) in [
        ("--metrics-out", flags.metrics_out.is_some(), writes),
        ("--trace-out", flags.trace_out.is_some(), writes && !live),
    ] {
        if set && !written {
            let what = if live { "chaos --live" } else { command };
            return Err(CliError::Usage(format!(
                "{what} writes no {flag} output; the telemetry flags apply to compare, \
                 solve, chaos and serve (chaos --live takes --metrics-out only)\n\n{USAGE}"
            )));
        }
    }
    Ok(())
}

fn dispatch(command: &str, flags: &Flags, opts: &ExpOptions) -> Result<String, CliError> {
    let flags = flags.clone();
    let opts = *opts;

    let figure = |f: fn(&ExpOptions) -> Result<Figure, RunError>| -> Result<String, CliError> {
        Ok(render_figure(&f(&opts)?, flags.csv))
    };

    match command {
        "table1" => Ok(render_table(
            "Table I — the types of resource demands of VMs",
            &experiments::table1(),
            flags.csv,
        )),
        "table2" => Ok(render_table(
            "Table II — the types of resource capacities and power consumption parameters of servers",
            &experiments::table2(),
            flags.csv,
        )),
        "fig2" => figure(experiments::fig2),
        "fig3" => figure(experiments::fig3),
        "fig4" => figure(experiments::fig4),
        "fig5" => figure(experiments::fig5),
        "fig6" => figure(experiments::fig6),
        "fig7" => figure(experiments::fig7),
        "fig8" => figure(experiments::fig8),
        "fig9" => figure(experiments::fig9),
        "all" => {
            let mut out = String::new();
            out.push_str(&render_table(
                "Table I — the types of resource demands of VMs",
                &experiments::table1(),
                flags.csv,
            ));
            out.push_str("\n\n");
            out.push_str(&render_table(
                "Table II — the types of resource capacities and power consumption parameters of servers",
                &experiments::table2(),
                flags.csv,
            ));
            for f in [
                experiments::fig2,
                experiments::fig3,
                experiments::fig4,
                experiments::fig5,
                experiments::fig6,
                experiments::fig7,
                experiments::fig8,
                experiments::fig9,
            ] {
                out.push_str("\n\n");
                out.push_str(&render_figure(&f(&opts)?, flags.csv));
            }
            for (title, table) in [
                (
                    "E1 — extra saving from live-migration consolidation",
                    experiments::ext_migration(&opts)?,
                ),
                (
                    "E2 — sensitivity to the arrival process",
                    experiments::ext_arrivals(&opts)?,
                ),
                (
                    "E3 — overload behaviour with admission control",
                    experiments::ext_overload(&opts)?,
                ),
            ] {
                out.push_str("\n\n");
                out.push_str(&render_table(title, &table, flags.csv));
            }
            Ok(out)
        }
        "ext-overload" => Ok(format!(
            "E3 — overload behaviour with admission control ({} seeds)\n\n{}",
            opts.seeds,
            experiments::ext_overload(&opts)?
        )),
        "ext-arrivals" => Ok(format!(
            "E2 — sensitivity to the arrival process ({} seeds)\n\n{}",
            opts.seeds,
            experiments::ext_arrivals(&opts)?
        )),
        "ext-migration" => Ok(format!(
            "E1 — extra saving from live-migration consolidation ({} seeds)\n\n{}",
            opts.seeds,
            experiments::ext_migration(&opts)?
        )),
        "compare" => run_compare(&flags, &opts),
        "chaos" => run_chaos(&flags),
        "exact" => run_exact(&flags),
        "timeline" => run_timeline(&flags),
        "gen" => run_gen(&flags),
        "plan" => run_plan(&flags, &opts),
        "report" => crate::report::html_report(&opts).map_err(CliError::Run),
        "solve" => run_solve(&flags),
        "serve" => run_serve(&flags),
        "gap" => run_gap(&flags),
        _ => Err(CliError::Usage(format!(
            "unknown command {command:?}\n\n{USAGE}"
        ))),
    }
}

/// Fails fast when an output path cannot be written: refuses to
/// overwrite an existing file without `--force` (a silently
/// overwritten metrics file is an easy way to compare an algorithm
/// against itself) and rejects a missing parent directory *before*
/// the possibly long run, not after it.
fn preflight_out_path(path: &str, force: bool) -> Result<(), CliError> {
    let p = std::path::Path::new(path);
    if !force && p.exists() {
        return Err(CliError::Usage(format!(
            "refusing to overwrite existing file {path:?} (pass --force to allow)"
        )));
    }
    match p.parent() {
        Some(parent) if !parent.as_os_str().is_empty() && !parent.is_dir() => {
            Err(CliError::Usage(format!(
                "cannot write {path:?}: directory {parent:?} does not exist"
            )))
        }
        _ => Ok(()),
    }
}

/// One instrumented run per algorithm on `problem`: decision metrics
/// become rows of `table`, provenance spans and explain records land
/// in `tracer` (each algorithm's run nested under a span named after
/// it), and the audited energy decomposition is exported as `energy.*`
/// gauges.
fn telemetry_rows<T: esvm_obs::Tracer>(
    problem: &esvm_simcore::AllocationProblem,
    algos: &[AllocatorKind],
    seed: u64,
    tracer: &T,
    table: &mut Table,
) -> Result<(), CliError> {
    use esvm_obs::MetricsRegistry;
    use rand::SeedableRng;
    for &algo in algos {
        let _algo_span = tracer.span(algo.name());
        let metrics = MetricsRegistry::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let assignment = algo
            .allocate_traced_with(problem, &mut rng, &metrics, tracer)
            .map_err(|error| RunError::Alloc { algo, seed, error })?;
        let report = assignment.audit().map_err(RunError::Audit)?;
        metrics.set_gauge("energy.run", report.breakdown.run);
        metrics.set_gauge("energy.idle", report.breakdown.idle);
        metrics.set_gauge("energy.transition", report.breakdown.transition);
        metrics.set_gauge("energy.total", report.total_cost);
        for (name, value) in metrics.snapshot() {
            table.row(vec![
                algo.name().to_owned(),
                name,
                value.kind().to_owned(),
                value.render(),
            ]);
        }
    }
    Ok(())
}

/// Serialises a collected provenance trace to `path` — Chrome
/// `trace_event` JSON for a `.json` extension, flat JSON Lines
/// otherwise — and renders the span-latency percentile table.
fn write_trace_output(
    path: &str,
    tracer: &esvm_obs::CollectingTracer,
) -> Result<String, CliError> {
    let body = if path.ends_with(".json") {
        tracer.to_chrome_trace()
    } else {
        tracer.to_jsonl()
    };
    std::fs::write(path, body)
        .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
    let mut out = String::new();
    let latencies = tracer.latencies();
    if !latencies.is_empty() {
        let mut t = Table::new(vec!["span", "count", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)"]);
        for (name, s) in latencies {
            t.row(vec![
                name.to_owned(),
                s.count.to_string(),
                format!("{:.4}", s.p50 * 1e3),
                format!("{:.4}", s.p95 * 1e3),
                format!("{:.4}", s.p99 * 1e3),
                format!("{:.4}", s.max * 1e3),
            ]);
        }
        out.push_str(&format!("\nspan latency percentiles\n\n{t}"));
    }
    out.push_str(&format!(
        "provenance trace ({} spans, {} explain records) written to {path}\n",
        tracer.spans().len(),
        tracer.explains().len()
    ));
    Ok(out)
}

/// Renders the `--metrics-out` / `--trace-out` telemetry section (an
/// empty string when neither flag is set):
/// a metric summary table for one instrumented run per algorithm, plus
/// the side files.
fn telemetry_section(
    problem: &esvm_simcore::AllocationProblem,
    algos: &[AllocatorKind],
    seed: u64,
    flags: &Flags,
) -> Result<String, CliError> {
    if flags.metrics_out.is_none() && flags.trace_out.is_none() {
        return Ok(String::new());
    }
    for path in [&flags.metrics_out, &flags.trace_out].into_iter().flatten() {
        preflight_out_path(path, flags.force)?;
    }
    let mut table = Table::new(vec!["algorithm", "metric", "kind", "value"]);
    let trace_note = match &flags.trace_out {
        Some(path) => {
            let tracer = esvm_obs::CollectingTracer::new();
            telemetry_rows(problem, algos, seed, &tracer, &mut table)?;
            write_trace_output(path, &tracer)?
        }
        None => {
            telemetry_rows(problem, algos, seed, &esvm_obs::DiscardTracer, &mut table)?;
            String::new()
        }
    };
    let mut out = format!(
        "\n\ntelemetry — one instrumented run per algorithm (seed {seed})\n\n{table}"
    );
    if let Some(path) = &flags.metrics_out {
        std::fs::write(path, table.to_csv())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("metrics written to {path}\n"));
    }
    out.push_str(&trace_note);
    Ok(out)
}

fn run_compare(flags: &Flags, opts: &ExpOptions) -> Result<String, CliError> {
    let config = workload_from(flags);
    let vms = config.vm_count_value();
    let servers = config.server_count_value();
    let algos = flags
        .algos
        .clone()
        .unwrap_or_else(|| vec![AllocatorKind::Miec, AllocatorKind::Ffps]);
    let point = MonteCarlo::new(opts.seeds, opts.threads).compare(&config, &algos)?;

    let mut table = Table::new(vec![
        "algorithm",
        "mean cost",
        "std dev",
        "run",
        "idle",
        "transition",
        "cpu util (%)",
        "mem util (%)",
        "vs ffps (%)",
        "95% CI",
    ]);
    for &algo in &algos {
        let s = point.cost_summary(algo);
        let (run, idle, transition) = point.mean_breakdown(algo);
        let (reduction, ci) = if algos.contains(&AllocatorKind::Ffps) {
            let r = point.reduction_ratio(AllocatorKind::Ffps, algo) * 100.0;
            let ci = point
                .reduction_ratio_ci(AllocatorKind::Ffps, algo)
                .map(|(lo, hi)| format!("[{:.1}; {:.1}]", lo * 100.0, hi * 100.0))
                .unwrap_or_default();
            (format!("{r:.2}"), ci)
        } else {
            (String::new(), String::new())
        };
        table.row(vec![
            algo.name().to_owned(),
            format!("{:.1}", s.mean),
            format!("{:.1}", s.std_dev),
            format!("{run:.0}"),
            format!("{idle:.0}"),
            format!("{transition:.0}"),
            format!("{:.1}", point.mean_cpu_utilization(algo) * 100.0),
            format!("{:.1}", point.mean_mem_utilization(algo) * 100.0),
            reduction,
            ci,
        ]);
    }
    let mut out = format!(
        "{} VMs on {} servers, {} seeds\n\n{}",
        vms, servers, opts.seeds, table
    );
    // Significance of the headline saving, when both contenders ran.
    if let (Some(miec), Some(ffps)) = (
        point.try_index_of(AllocatorKind::Miec),
        point.try_index_of(AllocatorKind::Ffps),
    ) {
        if let Some(p) = esvm_analysis::stats::paired_permutation_test(
            &point.costs[ffps],
            &point.costs[miec],
            4000,
        ) {
            out.push_str(&format!(
                "\nmiec saving significance (paired sign-flip permutation): p = {p:.4}\n"
            ));
        }
    }
    if flags.metrics_out.is_some() || flags.trace_out.is_some() {
        let seed = flags.seed.unwrap_or(0);
        let problem = config
            .generate(seed)
            .map_err(|e| CliError::Run(RunError::Generate(e)))?;
        out.push_str(&telemetry_section(&problem, &algos, seed, flags)?);
    }
    Ok(out)
}

/// One instrumented chaos replay per algorithm: summary rows into
/// `table`, the full robustness metric snapshot into `metric_table`,
/// eviction/repair/shed provenance into `tracer`.
fn chaos_rows<T: esvm_obs::Tracer>(
    engine: &esvm_chaos::ChaosEngine,
    problem: &esvm_simcore::AllocationProblem,
    algos: &[AllocatorKind],
    seed: u64,
    tracer: &T,
    table: &mut Table,
    metric_table: &mut Table,
) -> Result<(), CliError> {
    use esvm_obs::MetricsRegistry;
    use rand::SeedableRng;
    for &algo in algos {
        let _algo_span = tracer.span(algo.name());
        let metrics = MetricsRegistry::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let allocator = algo.build();
        let report = engine
            .run_traced(problem, allocator.as_ref(), &mut rng, &metrics, tracer)
            .map_err(|e| match e {
                esvm_chaos::ChaosError::Offline(error) => {
                    CliError::Run(RunError::Alloc { algo, seed, error })
                }
                other => CliError::Chaos(other),
            })?;
        table.row(vec![
            algo.name().to_owned(),
            format!("{:.1}", report.offline_cost),
            format!("{:.1}", report.cost),
            format!("{:.1}", report.adjusted_cost()),
            report.displaced.to_string(),
            report.repairs.len().to_string(),
            report.shed.len().to_string(),
            report.refused.len().to_string(),
            report.extra_transitions.to_string(),
        ]);
        for (name, value) in metrics.snapshot() {
            metric_table.row(vec![
                algo.name().to_owned(),
                name,
                value.kind().to_owned(),
                value.render(),
            ]);
        }
    }
    Ok(())
}

fn run_chaos(flags: &Flags) -> Result<String, CliError> {
    use esvm_chaos::{ChaosEngine, FaultPlan, FaultPlanConfig, RepairPolicy};

    let seed = flags.seed.unwrap_or(0);
    let config = workload_from(flags);
    let mut problem = config
        .generate(seed)
        .map_err(|e| CliError::Run(RunError::Generate(e)))?;

    let plan = match &flags.plan {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                CliError::Usage(format!("cannot read fault plan {path:?}: {e}"))
            })?;
            FaultPlan::from_text(&text)
                .map_err(|e| CliError::Usage(format!("bad fault plan {path:?}: {e}")))?
        }
        None => {
            let mut plan_config =
                FaultPlanConfig::with_fault_rate(flags.fault_rate.unwrap_or(0.1));
            if let Some(r) = flags.rack_size {
                plan_config.rack_size = r;
            }
            if let Some(m) = flags.mean_outage {
                plan_config.mean_outage = m;
            }
            FaultPlan::generate(&plan_config, problem.server_count(), problem.horizon(), seed)
        }
    };

    // Fail before the run, not after it, on unwritable outputs.
    for path in [&flags.plan_out, &flags.metrics_out, &flags.trace_out]
        .into_iter()
        .flatten()
    {
        preflight_out_path(path, flags.force)?;
    }

    // Input-level faults mutate the serialized trace and go through the
    // hardened parser; a trace the parser rejects ends the run with its
    // typed error — degraded, reported, never a panic.
    if !plan.input_faults().is_empty() {
        let mut text = esvm_workload::trace::to_text(&problem);
        for fault in plan.input_faults() {
            text = fault.apply(&text);
        }
        problem = esvm_workload::trace::from_text(&text).map_err(|e| {
            CliError::Usage(format!(
                "input faults made the trace unparsable (parser rejected it: {e})"
            ))
        })?;
    }

    if flags.live {
        return run_chaos_live(flags, &problem, &plan, seed);
    }

    let mut policy = RepairPolicy::default();
    if let Some(r) = flags.retries {
        policy.max_retries = r;
    }
    if let Some(b) = flags.backoff {
        policy.backoff = b;
    }
    if let Some(shed) = flags.shed_policy {
        policy.shed = shed;
    }
    let engine = ChaosEngine::new(plan).with_policy(policy);

    let algos = flags
        .algos
        .clone()
        .unwrap_or_else(|| vec![AllocatorKind::Miec, AllocatorKind::Ffps]);
    let mut table = Table::new(vec![
        "algorithm",
        "offline cost",
        "replay cost",
        "adjusted cost",
        "displaced",
        "repairs",
        "shed",
        "refused",
        "extra transitions",
    ]);
    let mut metric_table = Table::new(vec!["algorithm", "metric", "kind", "value"]);
    let trace_note = match &flags.trace_out {
        Some(path) => {
            let tracer = esvm_obs::CollectingTracer::new();
            chaos_rows(
                &engine,
                &problem,
                &algos,
                seed,
                &tracer,
                &mut table,
                &mut metric_table,
            )?;
            write_trace_output(path, &tracer)?
        }
        None => {
            chaos_rows(
                &engine,
                &problem,
                &algos,
                seed,
                &esvm_obs::DiscardTracer,
                &mut table,
                &mut metric_table,
            )?;
            String::new()
        }
    };

    let plan_ref = engine.plan();
    let mut out = format!(
        "chaos replay: {} VMs on {} servers, seed {seed}, {} availability events, \
         {} input faults\npolicy: {} (retries {}, backoff {})\n\n{}",
        problem.vm_count(),
        problem.server_count(),
        plan_ref.events().len(),
        plan_ref.input_faults().len(),
        policy.shed,
        policy.max_retries,
        policy.backoff,
        table
    );
    if let Some(path) = &flags.plan_out {
        std::fs::write(path, plan_ref.to_text())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("\nfault plan written to {path}\n"));
    }
    if let Some(path) = &flags.metrics_out {
        std::fs::write(path, metric_table.to_csv())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("\nmetrics written to {path}\n"));
    }
    out.push_str(&trace_note);
    Ok(out)
}

/// `esvm chaos --live`: the fault plan strikes a *running* serve
/// session through the `DOWN`/`UP` verbs, interleaved with the arrival
/// stream — the drill exercises the live eviction + bounded-backoff
/// repair path (and the journal, when `--journal` is set) instead of
/// the offline replay engine.
fn run_chaos_live(
    flags: &Flags,
    problem: &esvm_simcore::AllocationProblem,
    plan: &esvm_chaos::FaultPlan,
    seed: u64,
) -> Result<String, CliError> {
    use crate::serve::{feed_problem_with_faults, ServeSession};
    let metrics = esvm_obs::MetricsRegistry::new();
    let mut session = ServeSession::new(problem.servers(), &metrics, &esvm_obs::NoopTracer)
        .with_config(serve_config_from(flags));
    attach_journal(flags, problem.servers(), None, &mut session)?;
    let report = feed_problem_with_faults(problem, plan, &mut session);
    session
        .finish()
        .map_err(|e| CliError::Usage(format!("journal checkpoint failed: {e}")))?;

    let engine = session.engine();
    let (committed, surcharge) = (engine.committed_cost(), engine.fault_transitions().energy);
    let stats = engine.stats();
    let config = session.config();
    let mut table = Table::new(vec!["metric", "value"]);
    for (name, value) in [
        ("arrivals", stats.arrivals.to_string()),
        ("placed", stats.placed.to_string()),
        ("rejected", stats.rejected.to_string()),
        ("overloaded", metrics.counter(esvm_obs::names::serve::OVERLOADED).to_string()),
        ("downs applied", report.downs.to_string()),
        ("ups applied", report.ups.to_string()),
        ("evicted", stats.evicted.to_string()),
        ("repaired", stats.repaired.to_string()),
        ("departed", stats.departed.to_string()),
        ("live at end", engine.live_count().to_string()),
        ("committed cost", format!("{committed:.1}")),
        ("fault transition energy", format!("{surcharge:.1}")),
        ("adjusted cost", format!("{:.1}", committed + surcharge)),
    ] {
        table.row(vec![name.into(), value]);
    }
    let mut out = format!(
        "live chaos drill: {} VMs on {} servers, seed {seed}, {} availability events \
         (retries {}, backoff {})\n\n{table}\n",
        problem.vm_count(),
        problem.server_count(),
        plan.events().len(),
        config.max_retries,
        config.backoff,
    );
    if let Some(path) = &flags.plan_out {
        std::fs::write(path, plan.to_text())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("fault plan written to {path}\n"));
    }
    if let Some(path) = &flags.journal {
        out.push_str(&format!("journal written to {path}\n"));
    }
    if let Some(path) = &flags.metrics_out {
        let mut t = Table::new(vec!["metric", "kind", "value"]);
        for (name, value) in metrics.snapshot() {
            t.row(vec![name, value.kind().to_owned(), value.render()]);
        }
        std::fs::write(path, t.to_csv())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("metrics written to {path}\n"));
    }
    Ok(out)
}

/// Longest horizon `esvm timeline` renders. `replay` keeps three
/// per-time-unit series (about 28 bytes a unit with the chart's copy),
/// so this caps one replay near 28 MB.
const TIMELINE_MAX_HORIZON: u32 = 1_000_000;

fn run_timeline(flags: &Flags) -> Result<String, CliError> {
    use esvm_analysis::chart::strip;
    use esvm_simcore::replay;

    let seed = flags.seed.unwrap_or(0);
    let config = workload_from(flags);
    let vms = config.vm_count_value();
    let servers = config.server_count_value();
    let problem = config
        .generate(seed)
        .map_err(|e| CliError::Run(RunError::Generate(e)))?;
    if problem.horizon() > TIMELINE_MAX_HORIZON {
        return Err(CliError::Usage(format!(
            "timeline: the instance's horizon is {} time units, over the \
             {TIMELINE_MAX_HORIZON}-unit limit of the per-unit replay; use fewer VMs \
             or a shorter --interarrival / --duration\n\n{USAGE}",
            problem.horizon()
        )));
    }
    let algos = flags
        .algos
        .clone()
        .unwrap_or_else(|| vec![AllocatorKind::Miec, AllocatorKind::Ffps]);

    let width = 72;
    let mut out = format!(
        "power timeline: {vms} VMs on {servers} servers, seed {seed}, horizon {} units\n",
        problem.horizon()
    );
    for kind in algos {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let assignment = kind
            .build()
            .allocate(&problem, &mut rng)
            .map_err(|error| RunError::Alloc { algo: kind, seed, error })?;
        let trace = replay(&assignment);
        let active: Vec<f64> = trace
            .active_series()
            .iter()
            .map(|&n| f64::from(n))
            .collect();
        out.push_str(&format!(
            "\n{} — total energy {:.0} W·min (peak {:.0} W)\n{}\n{}\n",
            kind.name(),
            trace.total_energy(),
            trace.peak_power(),
            strip("power (W)", trace.power_series(), width),
            strip("active servers", &active, width),
        ));
    }
    Ok(out)
}

fn workload_from(flags: &Flags) -> WorkloadConfig {
    let vms = flags.vms.unwrap_or(100);
    let servers = flags.servers.unwrap_or_else(|| (vms / 2).max(1));
    let mut config = WorkloadConfig::new(vms, servers)
        .mean_interarrival(flags.interarrival.unwrap_or(4.0))
        .mean_duration(flags.duration.unwrap_or(5.0))
        .transition_time(flags.transition.unwrap_or(1.0));
    if flags.standard_vms {
        config = config.vm_types(esvm_workload::catalog::standard_vm_types());
    }
    if flags.small_servers {
        config = config.server_types(esvm_workload::catalog::server_types_1_3());
    }
    config
}

fn run_plan(flags: &Flags, opts: &ExpOptions) -> Result<String, CliError> {
    let target = flags.target.unwrap_or(0.95);
    if !(target > 0.0 && target <= 1.0) {
        return Err(CliError::Usage(format!(
            "--target must be in (0, 1]\n\n{USAGE}"
        )));
    }
    let template = workload_from(flags);
    let vms = template.vm_count_value();
    let sizes = flags.sizes.clone().unwrap_or_else(|| {
        // Default sweep: powers-of-two fractions of the VM count.
        [16, 8, 4, 2]
            .iter()
            .map(|d| (vms / d).max(1))
            .collect()
    });
    let planner = crate::planner::CapacityPlanner::new(template, target, opts.seeds.clamp(2, 20))
        .with_threads(opts.threads);
    let plan = planner.plan(sizes)?;
    let verdict = match plan.recommended {
        Some(p) => format!(
            "recommended fleet: {} servers ({:.1}% admission, energy {:.0})",
            p.servers,
            p.admission_rate * 100.0,
            p.energy
        ),
        None => "no evaluated fleet meets the target — try larger --sizes".to_owned(),
    };
    Ok(format!(
        "capacity plan for {vms} VMs, admission target {:.0}%\n\n{}\n{verdict}",
        target * 100.0,
        plan.to_table()
    ))
}

fn run_gen(flags: &Flags) -> Result<String, CliError> {
    let seed = flags.seed.unwrap_or(0);
    let config = workload_from(flags);
    // A `.esvt` output path selects the binary columnar format and the
    // streaming generator: the trace goes straight to disk block by
    // block, never materialising the VM list.
    if let Some(path) = flags.out.as_deref().filter(|p| p.ends_with(".esvt")) {
        config
            .generate_esvt_file(seed, path)
            .map_err(|e| CliError::Run(RunError::Generate(e)))?;
        return Ok(format!(
            "streamed {} VMs / {} servers (seed {seed}) to {path} (ESVT)",
            config.vm_count_value(),
            config.server_count_value(),
        ));
    }
    let problem = config
        .generate(seed)
        .map_err(|e| CliError::Run(RunError::Generate(e)))?;
    let text = esvm_workload::trace::to_text(&problem);
    match &flags.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| {
                CliError::Usage(format!("cannot write {path:?}: {e}"))
            })?;
            Ok(format!(
                "wrote {} VMs / {} servers (seed {seed}) to {path}",
                problem.vm_count(),
                problem.server_count()
            ))
        }
        None => Ok(text),
    }
}

/// Loads a trace for `solve`, accepting both formats: ESVT is detected
/// by its magic bytes (not the extension, so renamed files still work),
/// anything else goes through the text parser.
fn load_trace(path: &str) -> Result<esvm_simcore::AllocationProblem, CliError> {
    use std::io::Read as _;
    let mut magic = [0u8; 4];
    let is_esvt = std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| magic == esvm_workload::esvt::MAGIC)
        .unwrap_or(false);
    if is_esvt {
        return esvm_workload::esvt::read_esvt_file(path)
            .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")));
    }
    let text = std::fs::read_to_string(path).map_err(|e| {
        CliError::Usage(format!(
            "cannot read trace {path:?}: {e} (generate one with `esvm gen --out {path}`)"
        ))
    })?;
    esvm_workload::trace::from_text(&text)
        .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")))
}

fn run_solve(flags: &Flags) -> Result<String, CliError> {
    let Some(path) = &flags.trace else {
        return Err(CliError::Usage(format!(
            "solve needs --trace FILE

{USAGE}"
        )));
    };
    let problem = load_trace(path)?;

    let algos = flags
        .algos
        .clone()
        .unwrap_or_else(|| vec![AllocatorKind::Miec, AllocatorKind::Ffps]);
    let seed = flags.seed.unwrap_or(0);
    let mut table = Table::new(vec![
        "algorithm",
        "total cost",
        "run",
        "idle",
        "transition",
        "cpu util (%)",
    ]);
    for &kind in &algos {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let assignment = kind
            .build()
            .allocate(&problem, &mut rng)
            .map_err(|error| RunError::Alloc { algo: kind, seed, error })?;
        let report = assignment.audit().map_err(RunError::Audit)?;
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.0}", report.total_cost),
            format!("{:.0}", report.breakdown.run),
            format!("{:.0}", report.breakdown.idle),
            format!("{:.0}", report.breakdown.transition),
            format!("{:.1}", report.utilization.avg_cpu * 100.0),
        ]);
    }
    let mut out = format!(
        "trace {path}: {} VMs on {} servers, horizon {}

{}",
        problem.vm_count(),
        problem.server_count(),
        problem.horizon(),
        table
    );
    out.push_str(&telemetry_section(&problem, &algos, seed, flags)?);
    Ok(out)
}

fn run_exact(flags: &Flags) -> Result<String, CliError> {
    let vms = flags.vms.unwrap_or(4);
    let servers = flags.servers.unwrap_or(2);
    let seed = flags.seed.unwrap_or(0);
    let config = WorkloadConfig::new(vms, servers)
        .mean_interarrival(2.0)
        .mean_duration(3.0);
    let problem = config
        .generate(seed)
        .map_err(|e| CliError::Run(RunError::Generate(e)))?;

    let exact = Formulation::new(&problem)
        .solve()
        .map_err(CliError::Exact)?;

    let mut table = Table::new(vec!["algorithm", "total cost", "gap vs optimal (%)"]);
    table.row(vec![
        "exact (ILP)".into(),
        format!("{:.2}", exact.objective),
        "0.00".into(),
    ]);
    for kind in [AllocatorKind::Miec, AllocatorKind::Ffps] {
        let report = crate::runner::run_once(&config, kind, seed)?;
        let gap = (report.total_cost - exact.objective) / exact.objective * 100.0;
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.2}", report.total_cost),
            format!("{gap:.2}"),
        ]);
    }
    Ok(format!(
        "exact certification: {vms} VMs on {servers} servers (seed {seed}, {} B&B nodes)\n\n{}",
        exact.nodes, table
    ))
}

/// Renders the end-of-session summary of an online serving run.
fn serve_summary<T: esvm_obs::Tracer>(
    source: &str,
    session: &crate::serve::ServeSession<'_, T>,
    metrics: &esvm_obs::MetricsRegistry,
) -> String {
    use esvm_obs::names::serve as names;
    let stats = session.engine().stats();
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["requests".into(), stats.arrivals.to_string()]);
    table.row(vec!["placed".into(), stats.placed.to_string()]);
    table.row(vec!["rejected".into(), stats.rejected.to_string()]);
    table.row(vec!["departed".into(), stats.departed.to_string()]);
    table.row(vec!["evicted".into(), stats.evicted.to_string()]);
    table.row(vec!["repaired".into(), stats.repaired.to_string()]);
    table.row(vec![
        "overloaded".into(),
        metrics.counter(names::OVERLOADED).to_string(),
    ]);
    table.row(vec!["live at end".into(), session.engine().live_count().to_string()]);
    table.row(vec![
        "live peak".into(),
        stats.live_peak.to_string(),
    ]);
    table.row(vec![
        "protocol errors".into(),
        metrics.counter(names::PROTOCOL_ERRORS).to_string(),
    ]);
    // Formatted like `solve`'s total cost: a trace served to its end is
    // MIEC's schedule, so the two rows agree.
    table.row(vec![
        "energy (W·min)".into(),
        format!("{:.0}", session.engine().committed_cost()),
    ]);
    if metrics.counter(names::JOURNAL_APPENDS) > 0 {
        table.row(vec![
            "journal appends".into(),
            metrics.counter(names::JOURNAL_APPENDS).to_string(),
        ]);
        table.row(vec![
            "journal fsyncs".into(),
            metrics.counter(names::JOURNAL_FSYNCS).to_string(),
        ]);
    }
    if let Some(ms) = metrics.gauge(names::RECOVERY_MS) {
        table.row(vec!["recovery (ms)".into(), format!("{ms:.2}")]);
    }
    if let Some(h) = metrics.histogram(names::DECISION_US) {
        table.row(vec!["decision mean (µs)".into(), format!("{:.2}", h.mean())]);
        table.row(vec!["decision p50 (µs)".into(), format!("{:.2}", h.p50)]);
        table.row(vec!["decision p95 (µs)".into(), format!("{:.2}", h.p95)]);
        table.row(vec!["decision p99 (µs)".into(), format!("{:.2}", h.p99)]);
    }
    format!("online serving session — {source}\n\n{table}")
}

/// Accepts one connection on a Unix socket and serves it to EOF. A
/// socket file already at `path` is replaced; any other file there is a
/// usage error and stays as it was.
#[cfg(unix)]
fn serve_socket<T: esvm_obs::Tracer>(
    path: &str,
    session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;
    let io_err = |e: std::io::Error| CliError::Usage(format!("socket {path:?}: {e}"));
    // A stale socket file from a previous run would make bind fail.
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path).map_err(io_err)?,
        Ok(_) => {
            return Err(CliError::Usage(format!(
                "refusing to replace {path:?} with a socket: it exists and is not one"
            )))
        }
        // Nothing there, or nothing bind could use either: bind says why.
        Err(_) => {}
    }
    let listener = UnixListener::bind(path).map_err(io_err)?;
    let served = listener
        .accept()
        .and_then(|(stream, _)| crate::serve::serve_lines(&stream, &stream, session));
    let _ = std::fs::remove_file(path);
    served.map_err(io_err)
}

#[cfg(not(unix))]
fn serve_socket<T: esvm_obs::Tracer>(
    _path: &str,
    _session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    Err(CliError::Usage(
        "--socket needs a Unix platform; use stdin instead".into(),
    ))
}

/// The [`ServeConfig`](crate::serve::ServeConfig) the flags describe.
fn serve_config_from(flags: &Flags) -> crate::serve::ServeConfig {
    let mut config = crate::serve::ServeConfig::default();
    if let Some(q) = flags.queue {
        config.queue_cap = q;
    }
    if let Some(r) = flags.retries {
        config.max_retries = r;
    }
    if let Some(b) = flags.backoff {
        config.backoff = b;
    }
    config
}

/// Recovers a journal into `session`: replay (timed into the
/// `serve.recovery_ms` gauge) plus checkpoint verification. Returns the
/// recovery, for journal resumption and the summary line.
fn recover_into<T: esvm_obs::Tracer>(
    path: &str,
    session: &mut crate::serve::ServeSession<'_, T>,
    metrics: &esvm_obs::MetricsRegistry,
) -> Result<crate::journal::Recovered, CliError> {
    let t0 = std::time::Instant::now();
    let rec = crate::journal::recover_file(path)
        .map_err(|e| CliError::Usage(format!("cannot recover journal {path:?}: {e}")))?;
    session
        .replay(&rec.records)
        .map_err(|e| CliError::Usage(format!("journal {path:?} does not replay: {e}")))?;
    metrics.set_gauge(
        esvm_obs::names::serve::RECOVERY_MS,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(rec)
}

/// Attaches the `--journal` writer to `session`. Resuming the same
/// file that was just recovered truncates its torn tail and appends;
/// a different (or fresh) path gets a new journal carrying the
/// recovered records forward, so it is self-contained for the *next*
/// recovery.
fn attach_journal<T: esvm_obs::Tracer>(
    flags: &Flags,
    fleet: &[esvm_simcore::ServerSpec],
    recovered: Option<&(String, crate::journal::Recovered)>,
    session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    let Some(path) = &flags.journal else {
        return Ok(());
    };
    let fsync_every = flags.fsync_every.unwrap_or(4096);
    let io_err = |e: std::io::Error| CliError::Usage(format!("journal {path:?}: {e}"));
    let writer = match recovered {
        Some((rec_path, rec)) if rec_path == path => {
            crate::journal::truncate_torn_tail(path, rec)
                .map_err(|e| CliError::Usage(format!("journal {path:?}: {e}")))?;
            crate::journal::JournalWriter::open_append(path, fsync_every).map_err(io_err)?
        }
        _ => {
            preflight_out_path(path, flags.force)?;
            let mut w = crate::journal::JournalWriter::create(path, fleet, fsync_every)
                .map_err(io_err)?;
            if let Some((_, rec)) = recovered {
                for record in &rec.records {
                    w.append(record).map_err(io_err)?;
                }
                w.sync().map_err(io_err)?;
            }
            w
        }
    };
    session.set_journal(Some(writer));
    Ok(())
}

/// The serving loop proper, generic over the tracer choice.
fn serve_with<T: esvm_obs::Tracer>(
    flags: &Flags,
    metrics: &esvm_obs::MetricsRegistry,
    tracer: &T,
) -> Result<String, CliError> {
    use crate::serve::{feed_problem_with_faults, feed_records, serve_lines, ServeSession};
    use std::io::Read as _;

    // Open the trace feed first so the fleet can come from it. ESVT is
    // detected by magic bytes and streamed through
    // `TraceReader::records` without materialising the VM list.
    let mut esvt_reader = None;
    let mut text_problem = None;
    if let Some(path) = &flags.trace {
        let mut magic = [0u8; 4];
        let is_esvt = std::fs::File::open(path)
            .and_then(|mut f| f.read_exact(&mut magic))
            .map(|()| magic == esvm_workload::esvt::MAGIC)
            .unwrap_or(false);
        if is_esvt {
            let reader = esvm_workload::TraceReader::open(path)
                .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")))?;
            esvt_reader = Some((path.clone(), reader));
        } else {
            text_problem = Some((path.clone(), load_trace(path)?));
        }
    }

    // A recovered journal's header is the authoritative fleet;
    // otherwise the trace's, otherwise one generated from
    // --servers/--seed.
    let recovered_header = match &flags.recover {
        Some(path) => {
            let rec = crate::journal::recover_file(path)
                .map_err(|e| CliError::Usage(format!("cannot recover journal {path:?}: {e}")))?;
            Some((path.clone(), rec))
        }
        None => None,
    };
    let servers = flags.servers.unwrap_or(50);
    let seed = flags.seed.unwrap_or(0);
    let fleet: Vec<esvm_simcore::ServerSpec> = if let Some((_, rec)) = &recovered_header {
        rec.servers.clone()
    } else if let Some((_, reader)) = &esvt_reader {
        reader.servers().to_vec()
    } else if let Some((_, problem)) = &text_problem {
        problem.servers().to_vec()
    } else {
        WorkloadConfig::new(1, servers)
            .transition_time(flags.transition.unwrap_or(1.0))
            .generate(seed)
            .map_err(|e| CliError::Run(RunError::Generate(e)))?
            .servers()
            .to_vec()
    };

    let mut session =
        ServeSession::new(&fleet, metrics, tracer).with_config(serve_config_from(flags));
    let mut source_notes: Vec<String> = Vec::new();
    let recovered = match recovered_header {
        Some((path, _)) => {
            // Re-read inside the timed path so `serve.recovery_ms`
            // covers decode + replay, as a restart would pay it.
            let rec = recover_into(&path, &mut session, metrics)?;
            source_notes.push(format!(
                "recovered {} records from {path}{}",
                rec.records.len(),
                if rec.torn_bytes > 0 {
                    format!(" ({} torn bytes dropped)", rec.torn_bytes)
                } else {
                    String::new()
                }
            ));
            Some((path, rec))
        }
        None => None,
    };
    attach_journal(flags, &fleet, recovered.as_ref(), &mut session)?;
    if let Some(path) = &flags.journal {
        source_notes.push(format!("journaling to {path}"));
    }

    let main_source = if let Some((path, reader)) = esvt_reader {
        feed_records(reader.records(), &mut session)
            .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")))?;
        format!("streamed ESVT trace {path}")
    } else if let Some((path, problem)) = text_problem {
        feed_problem_with_faults(&problem, &esvm_chaos::FaultPlan::empty(), &mut session);
        format!("replayed trace {path}")
    } else {
        match &flags.socket {
            Some(path) => {
                serve_socket(path, &mut session)?;
                format!("socket {path}, {} servers (seed {seed})", fleet.len())
            }
            None => {
                // Unit tests never read the test runner's stdin: there a
                // `serve --recover J` serves an empty stream.
                #[cfg(test)]
                let input = std::io::empty();
                #[cfg(not(test))]
                let input = std::io::stdin().lock();
                serve_lines(input, std::io::stdout().lock(), &mut session)
                    .map_err(|e| CliError::Usage(format!("serve I/O failed: {e}")))?;
                format!("stdin, {} servers (seed {seed})", fleet.len())
            }
        }
    };
    // Graceful shutdown: a final verified checkpoint in the journal.
    session
        .finish()
        .map_err(|e| CliError::Usage(format!("journal checkpoint failed: {e}")))?;
    let source = std::iter::once(main_source)
        .chain(source_notes)
        .collect::<Vec<_>>()
        .join(", ");
    Ok(serve_summary(&source, &session, metrics))
}

fn run_serve(flags: &Flags) -> Result<String, CliError> {
    if flags.trace.is_some() && flags.socket.is_some() {
        return Err(CliError::Usage(format!(
            "--trace and --socket are mutually exclusive\n\n{USAGE}"
        )));
    }
    for path in [&flags.metrics_out, &flags.trace_out].into_iter().flatten() {
        preflight_out_path(path, flags.force)?;
    }
    let metrics = esvm_obs::MetricsRegistry::new();
    let mut out = match &flags.trace_out {
        Some(path) => {
            let tracer = esvm_obs::CollectingTracer::new();
            let summary = serve_with(flags, &metrics, &tracer)?;
            format!("{summary}{}", write_trace_output(path, &tracer)?)
        }
        None => serve_with(flags, &metrics, &esvm_obs::NoopTracer)?,
    };
    if let Some(path) = &flags.metrics_out {
        let mut table = Table::new(vec!["metric", "kind", "value"]);
        for (name, value) in metrics.snapshot() {
            table.row(vec![name, value.kind().to_owned(), value.render()]);
        }
        std::fs::write(path, table.to_csv())
            .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!("metrics written to {path}\n"));
    }
    Ok(out)
}

fn run_gap(flags: &Flags) -> Result<String, CliError> {
    let seeds = flags.seeds.unwrap_or(10);
    let base = flags.seed.unwrap_or(0);
    let vms = flags.vms.unwrap_or(100);
    if vms == 0 {
        // No VM, no cost: the competitive ratio would be 0/0.
        return Err(CliError::Usage(format!(
            "gap: --vms must be at least 1\n\n{USAGE}"
        )));
    }
    let servers = flags.servers.unwrap_or_else(|| (vms / 2).max(1));
    let mut table = Table::new(vec!["seed", "online", "refined online", "ratio"]);
    let mut ratios: Vec<f64> = Vec::new();
    let mut infeasible = 0usize;
    for seed in base..base + seeds {
        let problem = match flags.adversary {
            Some(preset) => preset
                .problem(vms, servers, seed)
                .map_err(CliError::Sim)?,
            None => workload_from(flags)
                .generate(seed)
                .map_err(|e| CliError::Run(RunError::Generate(e)))?,
        };
        match crate::gap::gap_row(&problem, seed) {
            Ok(row) => {
                table.row(vec![
                    seed.to_string(),
                    format!("{:.1}", row.online_cost),
                    format!("{:.1}", row.refined_online_cost),
                    format!("{:.4}", row.ratio),
                ]);
                ratios.push(row.ratio);
            }
            // An instance one side cannot place at all has no defined
            // ratio; report it rather than abort the sweep.
            Err(_) => {
                infeasible += 1;
                table.row(vec![
                    seed.to_string(),
                    "infeasible".into(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    let source = match flags.adversary {
        Some(preset) => format!("adversary {preset}"),
        None => "paper workload model".to_owned(),
    };
    let mut out = format!(
        "online/offline optimality gap — {source}, {vms} VMs on {servers} servers, seeds {base}..{}\n\n{table}",
        base + seeds
    );
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        out.push_str(&format!(
            "\nempirical competitive ratio: mean {mean:.4}, max {max:.4} over {} seeds",
            ratios.len()
        ));
    }
    if infeasible > 0 {
        out.push_str(&format!(" ({infeasible} infeasible seeds skipped)"));
    }
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn tables_render() {
        let out = run(&args(&["table1"])).unwrap();
        assert!(out.contains("m1.small"));
        let out = run(&args(&["table2", "--csv"])).unwrap();
        assert!(out.starts_with("type,"));
    }

    #[test]
    fn unknown_command_yields_usage() {
        let err = run(&args(&["fig99"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("usage:"));
    }

    #[test]
    fn missing_command_yields_usage() {
        assert!(matches!(run(&[]).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn malformed_flag_yields_usage() {
        for bad in [
            vec!["fig2", "--seeds"],
            vec!["fig2", "--seeds", "abc"],
            vec!["fig2", "--wat"],
            vec!["compare", "--algos", "nonsense"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }

    #[test]
    fn zero_seeds_is_a_usage_error_naming_the_flag() {
        for command in ["compare", "fig2", "gap", "plan"] {
            let err = run(&args(&[command, "--seeds", "0"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{command}: {err}");
            assert!(err.to_string().starts_with("--seeds must be at least 1"), "{command}: {err}");
        }
    }

    #[test]
    fn gap_with_zero_vms_is_a_usage_error_naming_the_flag() {
        let err = run(&args(&["gap", "--vms", "0", "--seeds", "1"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--vms must be at least 1"), "{err}");
        // One VM is a real instance: a finite ratio, not NaN.
        let out = run(&args(&["gap", "--vms", "1", "--seeds", "1"])).unwrap();
        assert!(out.contains("seeds 0..1") && out.contains("ratio: mean 1.0000"), "{out}");
    }

    #[test]
    fn quick_fig2_runs_end_to_end() {
        let out = run(&args(&["fig2", "--quick", "--seeds", "2", "--threads", "4"])).unwrap();
        assert!(out.contains("Fig. 2"), "{out}");
        assert!(out.contains("linear fit"), "{out}");
    }

    #[test]
    fn fig_csv_output() {
        let out = run(&args(&[
            "fig3", "--quick", "--seeds", "2", "--threads", "4", "--csv",
        ]))
        .unwrap();
        assert!(out.starts_with("series,x,y"), "{out}");
    }

    #[test]
    fn compare_command_runs() {
        let out = run(&args(&[
            "compare", "--vms", "20", "--servers", "10", "--seeds", "2", "--algos",
            "miec,ffps,best-fit",
        ]))
        .unwrap();
        assert!(out.contains("best-fit"), "{out}");
        assert!(out.contains("vs ffps"), "{out}");
    }

    #[test]
    fn plan_command_runs_and_validates_target() {
        let out = run(&args(&[
            "plan", "--vms", "30", "--interarrival", "0.5", "--duration", "8", "--seeds", "2",
            "--standard-vms", "--sizes", "2,10",
        ]))
        .unwrap();
        assert!(out.contains("capacity plan"), "{out}");
        assert!(out.contains("admission"), "{out}");
        let err = run(&args(&["plan", "--target", "1.5"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn timeline_refuses_a_horizon_over_its_cap() {
        // This instance's horizon is about 2.4e9 units, tens of GB of
        // per-unit series; the cap is checked before any allocator or
        // replay runs.
        let err = run(&args(&["timeline", "--vms", "10", "--duration", "1e9"])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected a usage error, got {err:?}");
        };
        assert!(msg.contains("1000000-unit limit"), "{msg}");
        assert!(msg.contains("horizon is"), "{msg}");
    }

    #[test]
    fn out_flag_redirects_any_command() {
        let path = std::env::temp_dir().join("esvm_cli_out_test.txt");
        let path_str = path.to_str().unwrap().to_owned();
        let msg = run(&args(&["table1", "--out", &path_str])).unwrap();
        assert!(msg.contains("wrote output"), "{msg}");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("m1.small"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_flags_write_metrics_and_events() {
        let dir = std::env::temp_dir();
        let metrics_path = dir.join("esvm_cli_metrics_test.csv");
        let events_path = dir.join("esvm_cli_events_test.jsonl");
        std::fs::remove_file(&metrics_path).ok();
        std::fs::remove_file(&events_path).ok();
        let out = run(&args(&[
            "compare",
            "--vms",
            "20",
            "--servers",
            "10",
            "--seeds",
            "2",
            "--algos",
            "miec,miec-ls",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            events_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("telemetry"), "{out}");
        assert!(out.contains("miec.vms_placed"), "{out}");
        assert!(out.contains("local_search.rounds"), "{out}");
        assert!(out.contains("energy.total"), "{out}");

        let csv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(csv.starts_with("algorithm,metric,kind,value"), "{csv}");
        assert!(csv.contains("miec.candidates_considered,counter"), "{csv}");
        assert!(csv.contains("energy.transition,gauge"), "{csv}");

        let events = std::fs::read_to_string(&events_path).unwrap();
        let lines: Vec<&str> = events.lines().collect();
        // One root span per algorithm, and its decisions' explain records.
        for algo in ["miec", "miec-ls"] {
            let root = format!("\"parent\":0,\"name\":\"{algo}\"");
            assert_eq!(lines.iter().filter(|l| l.contains(&root)).count(), 1, "{algo}");
        }
        assert!(lines
            .iter()
            .any(|l| l.starts_with("{\"type\":\"explain\",\"kind\":\"place\"")));
        std::fs::remove_file(&metrics_path).ok();
        std::fs::remove_file(&events_path).ok();
    }

    #[test]
    fn telemetry_out_refuses_to_overwrite_without_force() {
        let path = std::env::temp_dir().join("esvm_cli_overwrite_test.csv");
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::write(&path, "precious data from an earlier run\n").unwrap();
        let base = [
            "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--algos", "miec",
            "--metrics-out", &path_str,
        ];

        let err = run(&args(&base)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("refusing to overwrite")
                && msg.contains("--force")),
            "{err}"
        );
        // The existing file is untouched after the refusal.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "precious data from an earlier run\n"
        );

        let mut forced: Vec<&str> = base.to_vec();
        forced.push("--force");
        let out = run(&args(&forced)).unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("algorithm,metric,kind,value"), "{csv}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_telemetry_out_needs_no_force() {
        let path = std::env::temp_dir().join("esvm_cli_fresh_out_test.jsonl");
        std::fs::remove_file(&path).ok();
        let out = run(&args(&[
            "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--algos", "miec",
            "--trace-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("provenance trace"), "{out}");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: the histogram rows of `--metrics-out` carry exact
    /// p50/p95/p99 and the whole CSV is reproducible byte-for-byte —
    /// pinned against the committed golden file.
    #[test]
    fn metrics_out_matches_committed_golden_file() {
        let path = std::env::temp_dir().join("esvm_cli_metrics_golden_test.csv");
        std::fs::remove_file(&path).ok();
        run(&args(&[
            "compare", "--vms", "24", "--servers", "8", "--seed", "5", "--algos", "miec",
            "--metrics-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/metrics_golden.csv");
        let want = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(got, want, "metrics CSV drifted from tests/fixtures/metrics_golden.csv");
        assert!(got.contains("p50=") && got.contains("p95=") && got.contains("p99="), "{got}");
        std::fs::remove_file(&path).ok();
    }

    /// A faulted chaos replay (64 repairs under miec, 85 under ffps-ls,
    /// which also runs the local search) is pinned byte for byte, so
    /// neither the repair argmin nor the refinement can move silently.
    #[test]
    fn chaos_metrics_out_matches_committed_golden_file() {
        let path = std::env::temp_dir().join("esvm_cli_chaos_metrics_golden_test.csv");
        std::fs::remove_file(&path).ok();
        run(&args(&[
            "chaos", "--vms", "400", "--servers", "80", "--interarrival", "1", "--duration",
            "30", "--fault-rate", "0.6", "--mean-outage", "20", "--seed", "7", "--algos",
            "miec,ffps-ls", "--metrics-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/chaos_metrics_golden.csv");
        let want = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(
            got, want,
            "chaos metrics CSV drifted from tests/fixtures/chaos_metrics_golden.csv"
        );
        assert!(got.contains("miec,chaos.repairs,counter,64"), "{got}");
        assert!(got.contains("ffps-ls,chaos.repairs,counter,85"), "{got}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_out_writes_jsonl_with_one_explain_per_placement() {
        let path = std::env::temp_dir().join("esvm_cli_trace_test.jsonl");
        std::fs::remove_file(&path).ok();
        let out = run(&args(&[
            "compare", "--vms", "20", "--servers", "10", "--algos", "miec", "--trace-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("provenance trace"), "{out}");
        assert!(out.contains("span latency percentiles"), "{out}");
        // One explain record per placed VM, as the summary table reports.
        let placed: usize = out
            .lines()
            .find(|l| l.contains("miec.vms_placed"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|n| n.parse().ok())
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let explains = body
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"explain\""))
            .count();
        assert_eq!(explains, placed, "{out}");
        assert!(body.lines().any(|l| l.starts_with("{\"type\":\"span\"")), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_out_json_extension_writes_chrome_trace() {
        let path = std::env::temp_dir().join("esvm_cli_trace_test.json");
        std::fs::remove_file(&path).ok();
        let out = run(&args(&[
            "compare", "--vms", "12", "--servers", "6", "--algos", "miec", "--trace-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("provenance trace"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('{'), "{body}");
        assert!(body.contains("\"traceEvents\""), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: `--trace-out` shares the overwrite-refusal semantics
    /// of the other out flags — fail before the run, yield to --force.
    #[test]
    fn trace_out_refuses_overwrite_without_force() {
        let path = std::env::temp_dir().join("esvm_cli_trace_overwrite_test.jsonl");
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::write(&path, "an earlier trace\n").unwrap();
        let base = [
            "compare", "--vms", "12", "--servers", "6", "--algos", "miec", "--trace-out",
            &path_str,
        ];
        let err = run(&args(&base)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("refusing to overwrite")
                && msg.contains("--force")),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "an earlier trace\n");

        let mut forced: Vec<&str> = base.to_vec();
        forced.push("--force");
        let out = run(&args(&forced)).unwrap();
        assert!(out.contains("provenance trace"), "{out}");
        assert!(
            std::fs::read_to_string(&path)
                .unwrap()
                .starts_with("{\"type\":"),
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_trace_out_writes_repair_provenance() {
        let path = std::env::temp_dir().join("esvm_cli_chaos_trace_test.jsonl");
        std::fs::remove_file(&path).ok();
        let out = run(&args(&[
            "chaos", "--vms", "60", "--servers", "10", "--seed", "7", "--fault-rate", "0.6",
            "--algos", "miec", "--trace-out", path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("provenance trace"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\":\"chaos.replay\""), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn algo_is_an_alias_for_algos() {
        let a = run(&args(&["compare", "--vms", "12", "--servers", "6", "--algo", "miec"])).unwrap();
        let b = run(&args(&["compare", "--vms", "12", "--servers", "6", "--algos", "miec"])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_figure_name_yields_usage() {
        for bad in ["fig1", "fig10", "figure2", "fig"] {
            let err = run(&args(&[bad])).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("unknown command")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn algo_threads_flag_is_a_usage_error() {
        // Every allocator is one sequential engine, so there is no inner
        // thread count to set, well-formed or not.
        for value in ["2", "many"] {
            let err = run(&args(&[
                "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--algo-threads",
                value,
            ]))
            .unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("unknown flag")),
                "--algo-threads {value}: {err}"
            );
        }
    }

    #[test]
    fn shard_and_batch_flags_are_usage_errors() {
        // No allocator is sharded or batched, so neither knob exists.
        for (flag, value) in [("--shards", "3"), ("--shards", "many"), ("--batch", "8")] {
            let err = run(&args(&[
                "compare", "--vms", "12", "--servers", "6", "--seeds", "2", flag, value,
            ]))
            .unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("unknown flag")),
                "{flag} {value}: {err}"
            );
        }
    }

    #[test]
    fn events_out_flag_is_a_usage_error() {
        // Decisions are recorded through the tracer alone: --trace-out.
        let path = std::env::temp_dir().join("esvm_cli_events_out_flag_test.jsonl");
        std::fs::remove_file(&path).ok();
        let err = run(&args(&[
            "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--events-out",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("unknown flag")),
            "{err}"
        );
        assert!(!path.exists());
    }

    #[test]
    fn telemetry_flags_are_refused_where_nothing_writes_them() {
        let path = std::env::temp_dir().join("esvm_cli_unwritten_telemetry_test.out");
        let path_str = path.to_str().unwrap().to_owned();
        let commands: [&[&str]; 6] = [
            &["gap", "--seeds", "2"],
            &["timeline"],
            &["gen"],
            &["exact"],
            &["table1"],
            &["chaos", "--live"],
        ];
        for command in commands {
            for flag in ["--metrics-out", "--trace-out"] {
                if command == ["chaos", "--live"] && flag == "--metrics-out" {
                    // The live drill writes its session metrics.
                    continue;
                }
                std::fs::remove_file(&path).ok();
                let mut argv = command.to_vec();
                argv.extend([flag, path_str.as_str()]);
                let err = run(&args(&argv)).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(msg) if msg.contains(flag)),
                    "{argv:?}: {err}"
                );
                assert!(!path.exists(), "{argv:?} wrote {path_str}");
            }
        }
    }

    #[test]
    fn bad_workload_flags_are_usage_errors() {
        let bad = [
            ("--interarrival", "0"),
            ("--interarrival", "-3"),
            ("--interarrival", "nan"),
            ("--interarrival", "inf"),
            ("--duration", "0"),
            ("--duration", "-1"),
            ("--duration", "nan"),
            ("--duration", "inf"),
            ("--transition", "-1"),
            ("--transition", "nan"),
            ("--transition", "inf"),
        ];
        for command in ["compare", "gen", "chaos", "gap", "timeline", "plan"] {
            for (flag, value) in bad {
                let err = run(&args(&[command, "--vms", "12", flag, value])).unwrap_err();
                let want = format!("{flag} must be a finite number");
                assert!(
                    matches!(&err, CliError::Usage(msg) if msg.starts_with(&want)),
                    "{command} {flag} {value}: {err}"
                );
            }
        }
        // Finite but huge values pass the parser; the generator turns
        // the overflow they cause into a typed error.
        for command in ["compare", "gen", "chaos", "gap", "timeline", "plan"] {
            for (flag, value) in
                [("--interarrival", "1e308"), ("--duration", "1e308"), ("--transition", "1e308")]
            {
                let err = run(&args(&[command, "--vms", "12", flag, value])).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        CliError::Run(RunError::Generate(
                            esvm_workload::GenerateError::BadParameter(_)
                        ))
                    ),
                    "{command} {flag} {value}: {err}"
                );
            }
        }
        // The boundary values themselves are accepted.
        let out = run(&args(&[
            "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--transition", "0",
            "--interarrival", "0.5", "--duration", "0.5",
        ]))
        .unwrap();
        assert!(out.contains("mean cost"), "{out}");
    }

    #[test]
    fn chaos_command_runs_and_reports_robustness_columns() {
        let out = run(&args(&[
            "chaos", "--vms", "20", "--servers", "10", "--seed", "7", "--fault-rate", "0.3",
            "--algos", "miec,ffps",
        ]))
        .unwrap();
        assert!(out.contains("chaos replay"), "{out}");
        assert!(out.contains("adjusted cost"), "{out}");
        assert!(out.contains("miec"), "{out}");
        assert!(out.contains("smallest-remaining-first"), "{out}");
    }

    #[test]
    fn chaos_plan_round_trips_through_files() {
        let path = std::env::temp_dir().join("esvm_cli_chaos_plan_test.txt");
        std::fs::remove_file(&path).ok();
        let base = [
            "chaos", "--vms", "16", "--servers", "8", "--seed", "3", "--fault-rate", "0.5",
            "--algos", "miec",
        ];
        let mut first: Vec<&str> = base.to_vec();
        first.extend(["--plan-out", path.to_str().unwrap()]);
        let out1 = run(&args(&first)).unwrap();
        assert!(out1.contains("fault plan written"), "{out1}");
        let plan_text = std::fs::read_to_string(&path).unwrap();
        assert!(plan_text.starts_with("# esvm faultplan v1"), "{plan_text}");

        let mut second: Vec<&str> = base.to_vec();
        second.extend(["--plan", path.to_str().unwrap()]);
        let out2 = run(&args(&second)).unwrap();
        // Same plan, same seed: the replay row is identical.
        let row_of = |s: &str| s.lines().find(|l| l.starts_with("miec")).unwrap().to_owned();
        assert_eq!(row_of(&out1), row_of(&out2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_with_zero_fault_rate_matches_offline_cost() {
        let out = run(&args(&[
            "chaos", "--vms", "16", "--servers", "8", "--seed", "1", "--fault-rate", "0",
            "--algos", "miec",
        ]))
        .unwrap();
        assert!(out.contains("0 availability events"), "{out}");
        // The summary row repeats the offline cost for replay/adjusted.
        let row = out.lines().find(|l| l.contains("miec")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[1], cells[2], "{row}");
        assert_eq!(cells[1], cells[3], "{row}");
        assert!(row.contains(" 0"), "{row}");
    }

    #[test]
    fn chaos_writes_metrics_and_events() {
        let dir = std::env::temp_dir();
        let metrics_path = dir.join("esvm_cli_chaos_metrics_test.csv");
        let events_path = dir.join("esvm_cli_chaos_events_test.jsonl");
        std::fs::remove_file(&metrics_path).ok();
        std::fs::remove_file(&events_path).ok();
        let out = run(&args(&[
            "chaos", "--vms", "20", "--servers", "6", "--seed", "5", "--fault-rate", "0.8",
            "--algos", "miec",
            "--metrics-out", metrics_path.to_str().unwrap(),
            "--trace-out", events_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let csv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(csv.starts_with("algorithm,metric,kind,value"), "{csv}");
        assert!(csv.contains("chaos."), "{csv}");
        // One evict explain record per displaced VM.
        let displaced = csv
            .lines()
            .find_map(|l| l.strip_prefix("miec,chaos.displaced_vms,counter,"))
            .map_or(0, |n| n.parse::<usize>().unwrap());
        let trace = std::fs::read_to_string(&events_path).unwrap();
        let evicts = trace.lines().filter(|l| l.contains("\"kind\":\"evict\"")).count();
        assert_eq!(evicts, displaced, "{trace}");
        std::fs::remove_file(&metrics_path).ok();
        std::fs::remove_file(&events_path).ok();
    }

    #[test]
    fn chaos_flag_validation() {
        for bad in [
            vec!["chaos", "--fault-rate", "1.5"],
            vec!["chaos", "--fault-rate", "lots"],
            vec!["chaos", "--shed-policy", "nonsense"],
            vec!["chaos", "--retries", "-1"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
        let err = run(&args(&["chaos", "--plan", "/definitely/not/here.txt"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("cannot read fault plan")),
            "{err}"
        );
    }

    #[test]
    fn out_paths_into_missing_directories_fail_before_the_run() {
        let bad = "/definitely/not/a/dir/esvm_metrics.csv";
        for cmd in [
            vec!["chaos", "--vms", "12", "--servers", "6", "--metrics-out", bad],
            vec![
                "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--metrics-out", bad,
            ],
        ] {
            let err = run(&args(&cmd)).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("does not exist")),
                "{cmd:?}: {err}"
            );
        }
    }

    #[test]
    fn missing_trace_error_suggests_gen() {
        let err = run(&args(&["solve", "--trace", "/no/such/trace.txt"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("esvm gen --out")),
            "{err}"
        );
    }

    #[test]
    fn exact_command_certifies() {
        // Seed 0 draws a feasible 3-VM/2-server instance; not every seed
        // does at this tiny scale.
        let out = run(&args(&["exact", "--vms", "3", "--servers", "2", "--seed", "0"])).unwrap();
        assert!(out.contains("exact (ILP)"), "{out}");
        assert!(out.contains("miec"), "{out}");
    }

    #[test]
    fn gap_command_reports_ratios() {
        let out = run(&args(&[
            "gap", "--vms", "20", "--servers", "10", "--seeds", "3",
        ]))
        .unwrap();
        assert!(out.contains("optimality gap"), "{out}");
        assert!(out.contains("empirical competitive ratio"), "{out}");
        // Three seed rows plus the header.
        assert!(out.contains("refined online"), "{out}");
    }

    #[test]
    fn gap_command_accepts_adversary_presets() {
        let out = run(&args(&[
            "gap",
            "--vms",
            "24",
            "--servers",
            "8",
            "--seeds",
            "2",
            "--adversary",
            "break-even",
        ]))
        .unwrap();
        assert!(out.contains("adversary break-even"), "{out}");
        let err = run(&args(&["gap", "--adversary", "nonsense"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn serve_replays_text_and_esvt_traces() {
        let dir = std::env::temp_dir();
        let text_path = dir.join("esvm_cli_serve_test.txt");
        let esvt_path = dir.join("esvm_cli_serve_test.esvt");
        for path in [&text_path, &esvt_path] {
            run(&args(&[
                "gen",
                "--vms",
                "30",
                "--servers",
                "10",
                "--seed",
                "7",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let text = run(&args(&["serve", "--trace", text_path.to_str().unwrap()])).unwrap();
        assert!(text.contains("online serving session"), "{text}");
        assert!(text.contains("decision p99"), "{text}");
        let esvt = run(&args(&["serve", "--trace", esvt_path.to_str().unwrap()])).unwrap();
        assert!(esvt.contains("streamed ESVT trace"), "{esvt}");
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&esvt_path).ok();
    }

    #[test]
    fn serve_journal_round_trips_and_survives_a_torn_tail() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("esvm_cli_serve_wal_trace.txt");
        let journal_path = dir.join("esvm_cli_serve_wal.esvj");
        let torn_path = dir.join("esvm_cli_serve_wal_torn.esvj");
        for p in [&trace_path, &journal_path, &torn_path] {
            std::fs::remove_file(p).ok();
        }
        run(&args(&[
            "gen", "--vms", "40", "--servers", "10", "--seed", "9", "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let first = run(&args(&[
            "serve", "--trace", trace_path.to_str().unwrap(), "--journal",
            journal_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(first.contains("journaling to"), "{first}");
        assert!(first.contains("journal appends"), "{first}");
        // Column padding follows the widest cell (timings included), so
        // compare the row's words, not its spacing.
        let placed_row = |s: &str| {
            s.lines()
                .find(|l| l.trim_start().starts_with("placed"))
                .unwrap()
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        };

        // Clean recovery replays every record and reports no torn bytes.
        let recovered = run(&args(&["serve", "--recover", journal_path.to_str().unwrap()]))
            .unwrap();
        assert!(recovered.contains("recovered"), "{recovered}");
        assert!(!recovered.contains("torn bytes"), "{recovered}");
        assert!(recovered.contains("recovery (ms)"), "{recovered}");
        assert_eq!(placed_row(&first), placed_row(&recovered));

        // A crash mid-append leaves a torn tail: recovery truncates it
        // and still reaches a valid state.
        let bytes = std::fs::read(&journal_path).unwrap();
        std::fs::write(&torn_path, &bytes[..bytes.len() - 7]).unwrap();
        let torn = run(&args(&["serve", "--recover", torn_path.to_str().unwrap()])).unwrap();
        assert!(torn.contains("torn bytes dropped"), "{torn}");

        // Resuming the same journal file truncates the tail in place
        // and appends — the file stays recoverable afterwards.
        let resumed = run(&args(&[
            "serve", "--recover", torn_path.to_str().unwrap(), "--journal",
            torn_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(resumed.contains("journaling to"), "{resumed}");
        let again = run(&args(&["serve", "--recover", torn_path.to_str().unwrap()])).unwrap();
        assert!(!again.contains("torn bytes"), "{again}");
        for p in [&trace_path, &journal_path, &torn_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_queue_cap_sheds_bursts() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("esvm_cli_serve_queue_trace.txt");
        std::fs::remove_file(&trace_path).ok();
        // A tight interarrival packs many same-step arrivals per burst.
        run(&args(&[
            "gen", "--vms", "60", "--servers", "20", "--seed", "2", "--interarrival", "0.1",
            "--out", trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&args(&[
            "serve", "--trace", trace_path.to_str().unwrap(), "--queue", "1",
        ]))
        .unwrap();
        let overloaded: u64 = out
            .lines()
            .find(|l| l.trim_start().starts_with("overloaded"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(overloaded > 0, "{out}");
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn chaos_live_drills_the_serve_session() {
        let dir = std::env::temp_dir();
        let journal_path = dir.join("esvm_cli_chaos_live.esvj");
        std::fs::remove_file(&journal_path).ok();
        let out = run(&args(&[
            "chaos", "--vms", "40", "--servers", "10", "--seed", "7", "--fault-rate", "0.6",
            "--live", "--journal", journal_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("live chaos drill"), "{out}");
        assert!(out.contains("adjusted cost"), "{out}");
        assert!(out.contains("downs applied"), "{out}");
        // The drill's journal recovers like any serve journal.
        let recovered = run(&args(&["serve", "--recover", journal_path.to_str().unwrap()]))
            .unwrap();
        assert!(recovered.contains("recovered"), "{recovered}");
        std::fs::remove_file(&journal_path).ok();
    }

    /// The drill CI runs (`esvm chaos --live` on a loaded fleet with long
    /// idle gaps), rebuilt from its replies and explain records and
    /// audited on fresh ledgers: the printed committed cost, fault
    /// transition energy and adjusted cost are the audited schedule's.
    #[test]
    fn chaos_live_drill_passes_the_piece_audit() {
        use crate::serve::{feed_problem_with_faults, ServeSession};
        use esvm_chaos::{FaultPlan, FaultPlanConfig};
        let argv = args(&[
            "chaos", "--vms", "200", "--servers", "40", "--interarrival", "0.5", "--transition",
            "10", "--fault-rate", "0.8", "--seed", "3", "--live",
        ]);
        let out = run(&argv).unwrap();
        // The inputs `run_chaos` builds for these flags.
        let flags = parse_flags(&argv[1..]).unwrap();
        let problem = workload_from(&flags).generate(3).unwrap();
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.8),
            problem.server_count(),
            problem.horizon(),
            3,
        );
        let metrics = esvm_obs::MetricsRegistry::new();
        let tracer = esvm_obs::CollectingTracer::new();
        let mut session = ServeSession::new(problem.servers(), &metrics, &tracer)
            .with_config(serve_config_from(&flags));
        let drill = feed_problem_with_faults(&problem, &plan, &mut session);
        let records: Vec<_> = tracer.explains().into_iter().map(|e| e.record).collect();
        let audit = crate::pieces::Pieces::from_session(
            problem.servers(),
            &drill.replies,
            &records,
            |id| problem.vms()[id.index()],
        );
        let surcharge = audit.surcharge();
        let energy = audit.energy();
        let engine = session.engine();
        assert!(surcharge.count > 0 && engine.stats().repaired > 0, "{out}");
        audit.check(
            engine.committed_cost(),
            engine.fault_transitions(),
            "chaos --live",
        );
        for (row, value) in [
            ("committed cost", energy),
            ("fault transition energy", surcharge.energy),
            ("adjusted cost", energy + surcharge.energy),
        ] {
            let printed = out
                .lines()
                .find(|l| l.trim_start().starts_with(row))
                .and_then(|l| l.split_whitespace().last())
                .unwrap_or_else(|| panic!("no {row:?} row in\n{out}"));
            assert_eq!(printed, format!("{value:.1}"), "{row}\n{out}");
        }
    }

    #[test]
    fn serve_flag_validation() {
        for bad in [
            vec!["serve", "--fsync-every", "often"],
            vec!["serve", "--queue", "-2"],
            vec!["serve", "--journal"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
        let err = run(&args(&["serve", "--recover", "/no/such/journal.esvj"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("cannot recover journal")),
            "{err}"
        );
    }

    #[test]
    fn serve_trace_and_socket_are_mutually_exclusive() {
        let err = run(&args(&[
            "serve", "--trace", "/tmp/x.txt", "--socket", "/tmp/x.sock",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("mutually exclusive")),
            "{err}"
        );
    }

    #[test]
    fn serve_writes_metrics_and_trace_side_files() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("esvm_cli_serve_side_test.txt");
        let metrics_path = dir.join("esvm_cli_serve_metrics_test.csv");
        let spans_path = dir.join("esvm_cli_serve_spans_test.jsonl");
        run(&args(&[
            "gen",
            "--vms",
            "20",
            "--servers",
            "8",
            "--seed",
            "3",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&args(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--trace-out",
            spans_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let csv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(csv.contains("serve.requests"), "{csv}");
        assert!(csv.contains("serve.decision_us"), "{csv}");
        let spans = std::fs::read_to_string(&spans_path).unwrap();
        assert!(spans.contains("online.decision"), "{spans}");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
        std::fs::remove_file(&spans_path).ok();
    }
}

//! The `esvm` command-line front end.
//!
//! `esvm` with no arguments prints the usage text: every command, the
//! flags each one reads, and every flag's help. Each flag is declared
//! once, in the `FLAGS` table: its name, its value parser (with the
//! checks and messages a bad value meets), its help and the commands
//! that read it. Parsing, the usage text and the refusal of a flag the
//! command never reads all come from that table, so no command accepts
//! a flag and then drops it.
//!
//! Parsing is deliberately dependency-free; [`run`] returns the rendered
//! output so it is fully testable.

use crate::options::{threads_from_env, ExpOptions};
use crate::runner::{MonteCarlo, RunError};
use crate::{experiments, Figure};
use esvm_analysis::Table;
use esvm_core::AllocatorKind;
use esvm_ilp::Formulation;
use esvm_obs::MetricsRegistry;
use esvm_workload::WorkloadConfig;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

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

impl From<esvm_workload::GenerateError> for CliError {
    fn from(e: esvm_workload::GenerateError) -> Self {
        CliError::Run(e.into())
    }
}

/// The commands part of the usage text; the flag parts come from
/// `FLAGS`.
const COMMANDS_HELP: &str = "\
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
                    fleet sizes
  report            standalone HTML report with SVG plots of every
                    artefact
  chaos             fault-injection run: replay allocations under a
                    seeded plan of server outages with repair + shedding
  chaos --live      the fault plan drilled against a live serve session
  serve             long-running online allocation loop: REQ lines in,
                    irrevocable PLACED/REJECTED decisions out, from
                    stdin, a Unix socket or a trace file
                    protocol: REQ id start dur cpu mem | DOWN s | UP s
                    | STATS | DRAIN; replies PLACED id server | REJECTED
                    id | DOWNED s evicted=… repaired=… shed=… | UPPED s
                    | ERR code detail
  gap               online/offline optimality gap: per-seed empirical
                    competitive ratio of MIEC (online) vs MIEC refined
                    by offline local search
";

/// A set of commands, one bit per class of commands that read the same
/// flags.
type Commands = u16;

/// `table1`, `table2`, `fig2`–`fig9`, `ext-*` and `all`.
const ARTEFACT: Commands = 1 << 0;
const COMPARE: Commands = 1 << 1;
const EXACT: Commands = 1 << 2;
const TIMELINE: Commands = 1 << 3;
const GEN: Commands = 1 << 4;
const SOLVE: Commands = 1 << 5;
const PLAN: Commands = 1 << 6;
const REPORT: Commands = 1 << 7;
/// `chaos`: the offline fault replay.
const CHAOS: Commands = 1 << 8;
/// `chaos --live`: the fault plan drilled against a serve session.
const LIVE: Commands = 1 << 9;
const LIVE_NAME: &str = "chaos --live";
const SERVE: Commands = 1 << 10;
const GAP: Commands = 1 << 11;
/// The number of classes above.
const CLASSES: u32 = 12;
const EVERY: Commands = (1 << CLASSES) - 1;
/// The commands that fan seeds out over worker threads.
const FAN_OUT: Commands = ARTEFACT | COMPARE | PLAN | REPORT;
/// The commands that generate instances from the workload flags.
const WORKLOAD: Commands = COMPARE | TIMELINE | GEN | PLAN | CHAOS | LIVE | GAP;
/// The commands that run a fault plan.
const FAULTS: Commands = CHAOS | LIVE;
/// The commands that run a serve session.
const SESSION: Commands = LIVE | SERVE;
/// The commands that write `--metrics-out`.
const TELEMETRY: Commands = COMPARE | SOLVE | FAULTS | SERVE;

/// A parsed flag value, or the message a bad one gets.
type Parsed = Result<Box<dyn Any>, String>;

/// A value parser, given the flag's name for its messages.
type Parse = fn(&str, &str) -> Parsed;

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// A second spelling (only `--algo`).
    alias: Option<&'static str>,
    /// The value's placeholder in the usage text and its parser; `None`
    /// for a switch.
    value: Option<(&'static str, Parse)>,
    /// A file the command creates: before any work runs, an existing
    /// one is refused unless `--force` is given, and so is a path in a
    /// missing directory.
    creates: bool,
    /// The commands that read the flag.
    commands: Commands,
    /// The help in the usage text; `\n` starts another line.
    help: &'static str,
}

impl Flag {
    const fn switch(name: &'static str, commands: Commands, help: &'static str) -> Self {
        Self { name, alias: None, value: None, creates: false, commands, help }
    }

    const fn value(
        name: &'static str,
        placeholder: &'static str,
        parse: Parse,
        commands: Commands,
        help: &'static str,
    ) -> Self {
        Self { value: Some((placeholder, parse)), ..Self::switch(name, commands, help) }
    }

    const fn new_file(name: &'static str, commands: Commands, help: &'static str) -> Self {
        Self { creates: true, ..Self::value(name, "FILE", text, commands, help) }
    }

    fn reads(&self, class: Commands) -> bool {
        self.commands & class != 0
    }
}

/// Every flag, once.
const FLAGS: &[Flag] = &[
    Flag::value("--seeds", "N", seeds, FAN_OUT | GAP,
        "Monte-Carlo seeds per point (default 50, 6 with --quick);\n\
         gap: seeds to measure, from --seed on (default 10)"),
    Flag::value("--threads", "N", int::<usize>, FAN_OUT,
        "worker threads fanning seeds out (default: ESVM_THREADS;\n\
         unset or 0 = all cores); every value gives the same results"),
    Flag::switch("--quick", FAN_OUT, "scaled-down VM counts and 6 seeds"),
    Flag::switch("--csv", ARTEFACT, "emit CSV instead of aligned tables"),
    Flag::value("--out", "FILE", text, EVERY,
        "write the output to FILE instead of stdout; gen writes its\n\
         trace there, and an .esvt path streams the binary format"),
    Flag::value("--vms", "N", int::<usize>, WORKLOAD | EXACT,
        "VMs per instance (default 100; exact 4)"),
    Flag::value("--servers", "N", int::<usize>, WORKLOAD | EXACT | SERVE,
        "servers per instance (default: half the VMs; exact 2);\n\
         serve: size of the generated fleet (default 50)"),
    Flag::value("--interarrival", "F", |flag, raw| workload_number(flag, raw, false), WORKLOAD,
        "mean inter-arrival time, finite and > 0 (default 4)"),
    Flag::value("--duration", "F", |flag, raw| workload_number(flag, raw, false), WORKLOAD,
        "mean VM duration, finite and > 0 (default 5)"),
    Flag::value("--transition", "F", |flag, raw| workload_number(flag, raw, true),
        WORKLOAD | SERVE, "server transition time, finite and >= 0 (default 1)"),
    Flag::switch("--standard-vms", WORKLOAD, "restrict the VM catalog to the four standard types"),
    Flag::switch("--small-servers", WORKLOAD, "restrict the server catalog to types 1-3"),
    Flag::value("--seed", "N", int::<u64>, (WORKLOAD & !PLAN) | EXACT | SOLVE | SERVE,
        "seed of the instance, fault plan, fleet or allocators\n\
         (default 0); compare, gap: the first seed"),
    Flag {
        alias: Some("--algo"),
        ..Flag::value("--algos", "a,b,…", algos, COMPARE | TIMELINE | SOLVE | CHAOS,
            "allocators to run (default miec,ffps; --algo is an alias)")
    },
    Flag::value("--target", "F", target, PLAN, "admission target in (0, 1] (default 0.95)"),
    Flag::value("--sizes", "a,b,…", sizes, PLAN,
        "fleet sizes to evaluate (default: the VM count / 16, 8, 4\n\
         and 2)"),
    Flag::value("--trace", "FILE", text, SOLVE | SERVE,
        "a text or ESVT trace: the instance to solve, or the event\n\
         stream to serve instead of stdin (ESVT streams through\n\
         TraceReader::records; a text trace is fed in arrival order)"),
    Flag::new_file("--metrics-out", TELEMETRY,
        "run one instrumented pass per algorithm and write its\n\
         decision metrics as CSV (histogram rows carry exact\n\
         p50/p95/p99; a summary table is also appended to the\n\
         output); a serve session writes its own metrics"),
    Flag::new_file("--trace-out", COMPARE | SOLVE | CHAOS | SERVE,
        "write the decision-provenance trace of that pass:\n\
         hierarchical spans, one explain record per decision\n\
         (placement, move, eviction, repair, shed) and span-latency\n\
         percentiles. A .json extension selects Chrome trace_event\n\
         JSON (load in Perfetto / chrome://tracing); anything else\n\
         is flat JSONL that `esvm query` can load"),
    Flag::switch("--force", TELEMETRY,
        "let --metrics-out, --trace-out, --plan-out and --journal\n\
         overwrite an existing file (refused by default)"),
    Flag::value("--fault-rate", "F", fault_rate, FAULTS,
        "per-server crash probability over the horizon, in [0, 1]\n\
         (default 0.1; drains and rack outages scale with it)"),
    Flag::value("--rack-size", "N", int::<u32>, FAULTS,
        "servers per rack for correlated outages (default 8)"),
    Flag::value("--mean-outage", "F", number, FAULTS,
        "mean outage length in time units (default 10)"),
    Flag::value("--plan", "FILE", text, FAULTS,
        "replay a serialized fault plan instead of generating one\n\
         from --fault-rate/--seed"),
    Flag::new_file("--plan-out", FAULTS, "write the fault plan used, for later replay"),
    Flag::value("--retries", "N", int::<u32>, FAULTS | SERVE,
        "repair retries before a displaced VM is shed (default 3)"),
    Flag::value("--backoff", "N", int::<u32>, FAULTS | SERVE,
        "base retry backoff in time units, doubling per attempt\n\
         (default 2)"),
    Flag::value("--shed-policy", "P", named::<esvm_chaos::ShedPolicy>, CHAOS,
        "smallest-remaining-first | largest-remaining-first |\n\
         arrival-order (default smallest-remaining-first)"),
    Flag::switch("--live", FAULTS,
        "drill the plan against a live serve session: the DOWN/UP\n\
         events interleave with the arrival stream through the serve\n\
         fault verbs (evict + bounded backoff repair)"),
    Flag::value("--socket", "PATH", text, SERVE,
        "accept one connection on a Unix socket and serve it to EOF\n\
         (unix only); a PATH a live session holds is refused"),
    Flag::value("--journal", "FILE", text, SESSION,
        "decision journal: every accepted event is appended\n\
         (checksummed) with its outcome before its reply; pass the\n\
         same path as --recover to resume a crashed journal"),
    Flag::value("--fsync-every", "N", int::<u32>, SESSION,
        "group-commit cadence: fsync after every N journal appends\n\
         (default 4096, a ~10ms durability window at full\n\
         throughput; 0 = only at checkpoints)"),
    Flag::value("--recover", "FILE", text, SERVE,
        "recover a journal before serving: the fleet comes from the\n\
         journal header, a torn tail is truncated, and each recorded\n\
         decision is hosted again, rebuilding the state bit-exactly"),
    Flag::value("--queue", "N", int::<usize>, SESSION,
        "bounded admission queue: at most N simultaneous arrivals\n\
         admitted per burst, the rest answered ERR overloaded\n\
         (trace feeds; default unbounded)"),
    Flag::value("--adversary", "P", named::<esvm_workload::AdversaryPreset>, GAP,
        "break-even | sawtooth adversarial preset instead of the\n\
         paper workload model"),
];

/// Flag pairs a command refuses together: the second flag would be
/// silently dropped. A replayed `--plan` is not generated, and an
/// `--adversary` preset builds its own instances.
const CONFLICTS: &[(Commands, &str, &str)] = &[
    (SERVE, "--trace", "--socket"),
    (FAULTS, "--plan", "--fault-rate"),
    (FAULTS, "--plan", "--rack-size"),
    (FAULTS, "--plan", "--mean-outage"),
    (GAP, "--adversary", "--interarrival"),
    (GAP, "--adversary", "--duration"),
    (GAP, "--adversary", "--transition"),
    (GAP, "--adversary", "--standard-vms"),
    (GAP, "--adversary", "--small-servers"),
];

fn text(_flag: &str, raw: &str) -> Parsed {
    Ok(Box::new(raw.to_owned()))
}

fn int<T: FromStr + 'static>(flag: &str, raw: &str) -> Parsed {
    Ok(Box::new(raw.parse::<T>().map_err(|_| format!("{flag} must be an integer"))?))
}

fn number(flag: &str, raw: &str) -> Parsed {
    Ok(Box::new(raw.parse::<f64>().map_err(|_| format!("{flag} must be a number"))?))
}

/// A value whose type parses itself and words its own error.
fn named<T: FromStr<Err: fmt::Display> + 'static>(_flag: &str, raw: &str) -> Parsed {
    Ok(Box::new(raw.parse::<T>().map_err(|e| e.to_string())?))
}

fn seeds(flag: &str, raw: &str) -> Parsed {
    match raw.parse::<u64>().map_err(|_| format!("{flag} must be an integer"))? {
        0 => Err(format!("{flag} must be at least 1")),
        seeds => Ok(Box::new(seeds)),
    }
}

fn target(flag: &str, raw: &str) -> Parsed {
    match raw.parse::<f64>().map_err(|_| format!("{flag} must be a number in (0, 1]"))? {
        target if target > 0.0 && target <= 1.0 => Ok(Box::new(target)),
        _ => Err(format!("{flag} must be in (0, 1]")),
    }
}

fn fault_rate(flag: &str, raw: &str) -> Parsed {
    match raw.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(Box::new(rate)),
        _ => Err(format!("{flag} must be a number in [0, 1]")),
    }
}

fn sizes(flag: &str, raw: &str) -> Parsed {
    let sizes: Result<Vec<usize>, _> = raw.split(',').map(str::parse).collect();
    Ok(Box::new(sizes.map_err(|_| format!("{flag} must be a comma-separated list of integers"))?))
}

fn algos(_flag: &str, raw: &str) -> Parsed {
    let kinds: Result<Vec<AllocatorKind>, _> = raw.split(',').map(str::parse).collect();
    Ok(Box::new(kinds.map_err(|e| e.to_string())?))
}

/// Parses the value of a workload time flag: a finite number, `> 0`, or
/// `>= 0` when `zero_ok`. The workload generator asserts the same
/// bounds, so checking here turns a panic into a usage error.
fn workload_number(flag: &str, raw: &str, zero_ok: bool) -> Parsed {
    match raw.parse::<f64>() {
        Ok(x) if x.is_finite() && (x > 0.0 || (zero_ok && x == 0.0)) => Ok(Box::new(x)),
        _ => Err(format!(
            "{flag} must be a finite number {}, got {raw:?}",
            if zero_ok { ">= 0" } else { "> 0" }
        )),
    }
}

/// The paper's algorithm and its baseline: the default of `--algos`,
/// and the pair `exact` certifies.
const PAPER_PAIR: [AllocatorKind; 2] = [AllocatorKind::Miec, AllocatorKind::Ffps];

/// A command line checked against the flag table: the command as the
/// usage text names it, its class, and the parsed value of each flag
/// given (the last one wins).
struct Flags {
    command: String,
    class: Commands,
    values: BTreeMap<&'static str, Box<dyn Any>>,
}

impl Flags {
    /// Parses `args` for `command`, refusing unknown flags, flags the
    /// command does not read, bad values and conflicting pairs.
    fn parse(command: &str, class: Commands, args: &[String]) -> Result<Self, CliError> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg || f.alias == Some(arg)) else {
                return Err(usage_error(format!("unknown flag {arg:?}")));
            };
            let needs_value = || usage_error(format!("flag {arg} needs a value"));
            let raw = flag.value.map(|_| it.next().ok_or_else(needs_value)).transpose()?;
            given.push((flag, arg, raw));
        }
        // `--live` makes chaos a command of its own.
        let class = match class {
            CHAOS if given.iter().any(|(flag, ..)| flag.name == "--live") => LIVE,
            class => class,
        };
        let command = if class == LIVE { LIVE_NAME } else { command };
        let mut flags = Self { command: command.to_owned(), class, values: BTreeMap::new() };
        for (flag, arg, raw) in given {
            if !flag.reads(class) {
                let reads = flags_read_by(class).join(" ");
                return Err(usage_error(format!("{command} does not read {arg}; it reads {reads}")));
            }
            let value = match (flag.value, raw) {
                (Some((_, parse)), Some(raw)) => parse(flag.name, raw).map_err(usage_error)?,
                _ => Box::new(()),
            };
            flags.values.insert(flag.name, value);
        }
        for &(commands, a, b) in CONFLICTS {
            if commands & class != 0 && flags.values.contains_key(a) && flags.values.contains_key(b)
            {
                return Err(usage_error(format!("{a} and {b} are mutually exclusive")));
            }
        }
        Ok(flags)
    }

    /// The value given for `name`. Reading a flag the table does not
    /// give this command is a bug, caught here in debug builds.
    fn value<T: 'static>(&self, name: &str) -> Option<&T> {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == name && f.reads(self.class)),
            "{} reads {name}, which the flag table does not give it",
            self.command
        );
        let value = self.values.get(name)?;
        Some(value.downcast_ref().unwrap_or_else(|| panic!("{name} holds another type")))
    }

    fn get<T: Copy + 'static>(&self, name: &str) -> Option<T> {
        self.value(name).copied()
    }

    fn path(&self, name: &str) -> Option<&str> {
        self.value::<String>(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.value::<()>(name).is_some()
    }

    /// `--algos`, or the paper's pair.
    fn algos(&self) -> Vec<AllocatorKind> {
        self.value::<Vec<AllocatorKind>>("--algos")
            .map_or_else(|| PAPER_PAIR.to_vec(), Clone::clone)
    }

    /// Fails fast on a file the command would create: refuses to
    /// overwrite an existing file without `--force` (a silently
    /// overwritten metrics file is an easy way to compare an algorithm
    /// against itself) and rejects a missing parent directory *before*
    /// the possibly long run, not after it.
    fn preflight(&self) -> Result<(), CliError> {
        for flag in FLAGS.iter().filter(|f| f.creates && self.values.contains_key(f.name)) {
            preflight_out_path(self.path(flag.name).unwrap_or_default(), self.has("--force"))?;
        }
        Ok(())
    }
}

/// A usage error: `msg`, then the usage text.
fn usage_error(msg: impl fmt::Display) -> CliError {
    CliError::Usage(format!("{msg}\n\n{}", usage()))
}

/// The usage text: the commands, then, from the flag table, the flags
/// each command reads and every flag's help.
fn usage() -> String {
    let mut text = format!("{COMMANDS_HELP}\nflags by command (a command refuses any other flag):\n");
    for class in (0..CLASSES).map(|bit| 1 << bit) {
        let names: Vec<&str> = if class == LIVE {
            vec![LIVE_NAME]
        } else {
            COMMANDS.iter().filter(|c| c.1 == class).map(|c| c.0).collect()
        };
        wrap(&mut text, "  ", &names);
        wrap(&mut text, "      ", &flags_read_by(class));
    }
    text.push_str("\nflags:\n");
    for flag in FLAGS {
        let head = match flag.value {
            Some((placeholder, _)) => format!("  {} {placeholder}", flag.name),
            None => format!("  {}", flag.name),
        };
        let mut lines = flag.help.lines();
        if head.chars().count() < 20 {
            text.push_str(&format!("{head:<20}{}\n", lines.next().unwrap_or_default()));
        } else {
            text.push_str(&format!("{head}\n"));
        }
        for line in lines {
            text.push_str(&format!("{:20}{line}\n", ""));
        }
    }
    text
}

fn flags_read_by(class: Commands) -> Vec<&'static str> {
    FLAGS.iter().filter(|f| f.reads(class)).map(|f| f.name).collect()
}

/// Appends `words` to `text` as lines of at most 76 columns, each
/// starting with `indent`.
fn wrap(text: &mut String, indent: &str, words: &[&str]) {
    let mut line = String::from(indent);
    for word in words {
        if line.len() > indent.len() && line.len() + 1 + word.len() > 76 {
            text.push_str(&format!("{line}\n"));
            line = String::from(indent);
        }
        if line.len() > indent.len() {
            line.push(' ');
        }
        line.push_str(word);
    }
    text.push_str(&format!("{line}\n"));
}

/// A command's work, given its checked flags.
type Command = fn(&Flags) -> Result<String, CliError>;

/// Every command with flags, its class and its work.
const COMMANDS: &[(&str, Commands, Command)] = &[
    ("table1", ARTEFACT, |f| Ok(render_table(TABLE1, &experiments::table1(), f.has("--csv")))),
    ("table2", ARTEFACT, |f| Ok(render_table(TABLE2, &experiments::table2(), f.has("--csv")))),
    ("fig2", ARTEFACT, |f| figure(f, experiments::fig2)),
    ("fig3", ARTEFACT, |f| figure(f, experiments::fig3)),
    ("fig4", ARTEFACT, |f| figure(f, experiments::fig4)),
    ("fig5", ARTEFACT, |f| figure(f, experiments::fig5)),
    ("fig6", ARTEFACT, |f| figure(f, experiments::fig6)),
    ("fig7", ARTEFACT, |f| figure(f, experiments::fig7)),
    ("fig8", ARTEFACT, |f| figure(f, experiments::fig8)),
    ("fig9", ARTEFACT, |f| figure(f, experiments::fig9)),
    ("ext-migration", ARTEFACT, |f| extension(f, EXTENSIONS[0])),
    ("ext-arrivals", ARTEFACT, |f| extension(f, EXTENSIONS[1])),
    ("ext-overload", ARTEFACT, |f| extension(f, EXTENSIONS[2])),
    ("all", ARTEFACT, run_all),
    ("compare", COMPARE, run_compare),
    ("exact", EXACT, run_exact),
    ("timeline", TIMELINE, run_timeline),
    ("gen", GEN, run_gen),
    ("solve", SOLVE, run_solve),
    ("plan", PLAN, run_plan),
    ("report", REPORT, |f| crate::report::html_report(&options_from(f)?).map_err(CliError::Run)),
    ("chaos", CHAOS, run_chaos),
    ("serve", SERVE, run_serve),
    ("gap", GAP, run_gap),
];

const TABLE1: &str = "Table I — the types of resource demands of VMs";
const TABLE2: &str =
    "Table II — the types of resource capacities and power consumption parameters of servers";

/// An extension experiment: its title and its table.
type Extension = (&'static str, fn(&ExpOptions) -> Result<Table, RunError>);

/// The extension experiments, in the order `all` prints them.
const EXTENSIONS: [Extension; 3] = [
    ("E1 — extra saving from live-migration consolidation", experiments::ext_migration),
    ("E2 — sensitivity to the arrival process", experiments::ext_arrivals),
    ("E3 — overload behaviour with admission control", experiments::ext_overload),
];

/// Experiment options from the flags. `--threads` wins over
/// `ESVM_THREADS`; a malformed `ESVM_THREADS` is a usage error rather
/// than a silent fall-back to some other thread count. Only the
/// commands that fan seeds out call this, so only they read the
/// variable.
fn options_from(flags: &Flags) -> Result<ExpOptions, CliError> {
    let mut opts = if flags.has("--quick") {
        ExpOptions::quick()
    } else {
        ExpOptions::paper()
    };
    opts.seeds = flags.get("--seeds").unwrap_or(opts.seeds);
    opts.threads = match flags.get("--threads") {
        Some(t) => t,
        None => threads_from_env()
            .map_err(|e| CliError::Usage(format!("{e} (or pass --threads N)")))?,
    };
    Ok(opts)
}

fn render_table(title: &str, table: &Table, csv: bool) -> String {
    if csv {
        table.to_quoted_csv()
    } else {
        format!("{title}\n\n{table}")
    }
}

fn figure(flags: &Flags, f: fn(&ExpOptions) -> Result<Figure, RunError>) -> Result<String, CliError> {
    let figure = f(&options_from(flags)?)?;
    Ok(if flags.has("--csv") { figure.to_csv() } else { figure.render() })
}

fn extension(flags: &Flags, (title, f): Extension) -> Result<String, CliError> {
    let opts = options_from(flags)?;
    let title = format!("{title} ({} seeds)", opts.seeds);
    Ok(render_table(&title, &f(&opts)?, flags.has("--csv")))
}

fn run_all(flags: &Flags) -> Result<String, CliError> {
    let opts = options_from(flags)?;
    let csv = flags.has("--csv");
    let mut parts = vec![
        render_table(TABLE1, &experiments::table1(), csv),
        render_table(TABLE2, &experiments::table2(), csv),
    ];
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
        parts.push(figure(flags, f)?);
    }
    for (title, f) in EXTENSIONS {
        parts.push(render_table(title, &f(&opts)?, csv));
    }
    Ok(parts.join("\n\n"))
}

/// Runs the CLI and returns the rendered output.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, otherwise the
/// underlying experiment error.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    // `query` takes a free-form pipe expression, not flags.
    if command == "query" {
        let expr = rest.join(" ");
        if expr.trim().is_empty() {
            return Err(usage_error(
                "query needs a plan, e.g. `esvm query \"load trace.esvt | agg count\"`",
            ));
        }
        return crate::query::run_query(&expr)
            .map_err(|e| CliError::Usage(e.to_string()));
    }
    let Some(&(_, class, work)) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(usage_error(format!("unknown command {command:?}")));
    };
    let flags = Flags::parse(command, class, rest)?;
    flags.preflight()?;
    let output = work(&flags)?;
    // `gen` manages --out itself (it writes the trace, not the message).
    match flags.path("--out") {
        Some(path) if command != "gen" => {
            write_file(path, &output)?;
            Ok(format!("wrote output to {path}"))
        }
        _ => Ok(output),
    }
}

/// Refuses to overwrite `path` without `force`, and a path whose
/// directory does not exist.
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

/// Writes `contents` to `path`; the error names the path.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Usage(format!("cannot write {path:?}: {e}")))
}

/// The `--metrics-out` table, with an algorithm column when the runs of
/// several algorithms share it.
fn metric_table(by_algorithm: bool) -> Table {
    let header = ["algorithm", "metric", "kind", "value"];
    Table::new(header[usize::from(!by_algorithm)..].to_vec())
}

/// Appends `metrics`' snapshot to `table`, led by `algo`'s name when
/// the table has an algorithm column.
fn snapshot_rows(table: &mut Table, algo: Option<AllocatorKind>, metrics: &MetricsRegistry) {
    for (name, value) in metrics.snapshot() {
        let lead = algo.map(|a| a.name().to_owned());
        table.row(lead.into_iter().chain([name, value.kind().to_owned(), value.render()]).collect());
    }
}

/// Writes `table` to `path` as CSV; returns the line saying so.
fn write_metrics(path: &str, table: &Table) -> Result<String, CliError> {
    write_file(path, table.to_csv())?;
    Ok(format!("metrics written to {path}\n"))
}

/// Writes a serve session's metrics to `--metrics-out`, if given, and
/// returns the line saying so.
fn session_metrics(flags: &Flags, metrics: &MetricsRegistry) -> Result<String, CliError> {
    let Some(path) = flags.path("--metrics-out") else {
        return Ok(String::new());
    };
    let mut table = metric_table(false);
    snapshot_rows(&mut table, None, metrics);
    write_metrics(path, &table)
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
        snapshot_rows(table, Some(algo), &metrics);
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
    write_file(path, body)?;
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

/// Runs `$work`, a `Result`, with `$tracer` bound to the tracer
/// `--trace-out` asks for: a collecting tracer, whose trace is then
/// written to the flag's path, or else `$off`. Evaluates to the work's
/// value beside the lines reporting the trace (empty without the flag).
macro_rules! with_tracer {
    ($flags:expr, $off:expr, |$tracer:ident| $work:expr) => {
        match $flags.path("--trace-out") {
            Some(path) => {
                let $tracer = &esvm_obs::CollectingTracer::new();
                $work.and_then(|value| Ok((value, write_trace_output(path, $tracer)?)))
            }
            None => {
                let $tracer = &$off;
                $work.map(|value| (value, String::new()))
            }
        }
    };
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
    let metrics_out = flags.path("--metrics-out");
    if metrics_out.is_none() && flags.path("--trace-out").is_none() {
        return Ok(String::new());
    }
    let mut table = metric_table(true);
    let ((), trace_note) = with_tracer!(flags, esvm_obs::DiscardTracer, |tracer| {
        telemetry_rows(problem, algos, seed, tracer, &mut table)
    })?;
    let mut out = format!(
        "\n\ntelemetry — one instrumented run per algorithm (seed {seed})\n\n{table}"
    );
    if let Some(path) = metrics_out {
        out.push_str(&write_metrics(path, &table)?);
    }
    out.push_str(&trace_note);
    Ok(out)
}

fn run_compare(flags: &Flags) -> Result<String, CliError> {
    let opts = options_from(flags)?;
    let config = workload_from(flags);
    let vms = config.vm_count_value();
    let servers = config.server_count_value();
    let algos = flags.algos();
    let first = flags.get("--seed").unwrap_or(0);
    let monte_carlo = MonteCarlo {
        first_seed: first,
        ..MonteCarlo::new(opts.seeds, opts.threads)
    };
    let point = monte_carlo.compare(&config, &algos)?;

    let mut table = Table::new(vec![
        "algorithm", "mean cost", "std dev", "run", "idle", "transition", "cpu util (%)",
        "mem util (%)", "vs ffps (%)", "95% CI",
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
    let from = if first == 0 { String::new() } else { format!(" from {first}") };
    let mut out = format!(
        "{} VMs on {} servers, {} seeds{from}\n\n{}",
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
    if flags.path("--metrics-out").is_some() || flags.path("--trace-out").is_some() {
        let problem = config.generate(first)?;
        out.push_str(&telemetry_section(&problem, &algos, first, flags)?);
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
        snapshot_rows(metric_table, Some(algo), &metrics);
    }
    Ok(())
}

fn run_chaos(flags: &Flags) -> Result<String, CliError> {
    use esvm_chaos::{ChaosEngine, FaultPlan, FaultPlanConfig, RepairPolicy};

    let seed = flags.get("--seed").unwrap_or(0);
    let config = workload_from(flags);
    let mut problem = config.generate(seed)?;

    let plan = match flags.path("--plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                CliError::Usage(format!("cannot read fault plan {path:?}: {e}"))
            })?;
            FaultPlan::from_text(&text)
                .map_err(|e| CliError::Usage(format!("bad fault plan {path:?}: {e}")))?
        }
        None => {
            let mut plan_config =
                FaultPlanConfig::with_fault_rate(flags.get("--fault-rate").unwrap_or(0.1));
            plan_config.rack_size = flags.get("--rack-size").unwrap_or(plan_config.rack_size);
            plan_config.mean_outage = flags.get("--mean-outage").unwrap_or(plan_config.mean_outage);
            FaultPlan::generate(&plan_config, problem.server_count(), problem.horizon(), seed)
        }
    };

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

    if flags.has("--live") {
        return run_chaos_live(flags, &problem, &plan, seed);
    }

    let mut policy = RepairPolicy::default();
    policy.max_retries = flags.get("--retries").unwrap_or(policy.max_retries);
    policy.backoff = flags.get("--backoff").unwrap_or(policy.backoff);
    policy.shed = flags.get("--shed-policy").unwrap_or(policy.shed);
    let engine = ChaosEngine::new(plan).with_policy(policy);

    let algos = flags.algos();
    let mut table = Table::new(vec![
        "algorithm", "offline cost", "replay cost", "adjusted cost", "displaced", "repairs",
        "shed", "refused", "extra transitions",
    ]);
    let mut metric_table = metric_table(true);
    let ((), trace_note) = with_tracer!(flags, esvm_obs::DiscardTracer, |tracer| {
        chaos_rows(&engine, &problem, &algos, seed, tracer, &mut table, &mut metric_table)
    })?;

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
    if let Some(path) = flags.path("--plan-out") {
        write_file(path, plan_ref.to_text())?;
        out.push_str(&format!("\nfault plan written to {path}\n"));
    }
    if let Some(path) = flags.path("--metrics-out") {
        out.push('\n');
        out.push_str(&write_metrics(path, &metric_table)?);
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
    let metrics = MetricsRegistry::new();
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
    if let Some(path) = flags.path("--plan-out") {
        write_file(path, plan.to_text())?;
        out.push_str(&format!("fault plan written to {path}\n"));
    }
    if let Some(path) = flags.path("--journal") {
        out.push_str(&format!("journal written to {path}\n"));
    }
    out.push_str(&session_metrics(flags, &metrics)?);
    Ok(out)
}

/// Longest horizon `esvm timeline` renders. `replay` keeps three
/// per-time-unit series (about 28 bytes a unit with the chart's copy),
/// so this caps one replay near 28 MB.
const TIMELINE_MAX_HORIZON: u32 = 1_000_000;

fn run_timeline(flags: &Flags) -> Result<String, CliError> {
    use esvm_analysis::chart::strip;
    use esvm_simcore::replay;

    let seed = flags.get("--seed").unwrap_or(0);
    let config = workload_from(flags);
    let vms = config.vm_count_value();
    let servers = config.server_count_value();
    let problem = config.generate(seed)?;
    if problem.horizon() > TIMELINE_MAX_HORIZON {
        return Err(usage_error(format!(
            "timeline: the instance's horizon is {} time units, over the \
             {TIMELINE_MAX_HORIZON}-unit limit of the per-unit replay; use fewer VMs \
             or a shorter --interarrival / --duration",
            problem.horizon()
        )));
    }

    let width = 72;
    let mut out = format!(
        "power timeline: {vms} VMs on {servers} servers, seed {seed}, horizon {} units\n",
        problem.horizon()
    );
    for kind in flags.algos() {
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
    let vms = flags.get("--vms").unwrap_or(100);
    let servers = flags.get("--servers").unwrap_or_else(|| (vms / 2).max(1));
    let mut config = WorkloadConfig::new(vms, servers)
        .mean_interarrival(flags.get("--interarrival").unwrap_or(4.0))
        .mean_duration(flags.get("--duration").unwrap_or(5.0))
        .transition_time(flags.get("--transition").unwrap_or(1.0));
    if flags.has("--standard-vms") {
        config = config.vm_types(esvm_workload::catalog::standard_vm_types());
    }
    if flags.has("--small-servers") {
        config = config.server_types(esvm_workload::catalog::server_types_1_3());
    }
    config
}

fn run_plan(flags: &Flags) -> Result<String, CliError> {
    let opts = options_from(flags)?;
    let target = flags.get("--target").unwrap_or(0.95);
    let template = workload_from(flags);
    let vms = template.vm_count_value();
    let sizes = flags.value::<Vec<usize>>("--sizes").cloned().unwrap_or_else(|| {
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
    let seed = flags.get("--seed").unwrap_or(0);
    let config = workload_from(flags);
    let out = flags.path("--out");
    // A `.esvt` output path selects the binary columnar format and the
    // streaming generator: the trace goes straight to disk block by
    // block, never materialising the VM list.
    if let Some(path) = out.filter(|p| p.ends_with(".esvt")) {
        config.generate_esvt_file(seed, path)?;
        return Ok(format!(
            "streamed {} VMs / {} servers (seed {seed}) to {path} (ESVT)",
            config.vm_count_value(),
            config.server_count_value(),
        ));
    }
    let problem = config.generate(seed)?;
    let text = esvm_workload::trace::to_text(&problem);
    match out {
        Some(path) => {
            write_file(path, &text)?;
            Ok(format!(
                "wrote {} VMs / {} servers (seed {seed}) to {path}",
                problem.vm_count(),
                problem.server_count()
            ))
        }
        None => Ok(text),
    }
}

/// Whether `path` holds an ESVT trace, told by its magic bytes rather
/// than its extension, so renamed files still work.
fn is_esvt(path: &str) -> bool {
    use std::io::Read as _;
    let mut magic = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok_and(|()| magic == esvm_workload::esvt::MAGIC)
}

/// Loads a trace in either format: ESVT, or the text format.
fn load_trace(path: &str) -> Result<esvm_simcore::AllocationProblem, CliError> {
    if is_esvt(path) {
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
    let Some(path) = flags.path("--trace") else {
        return Err(usage_error("solve needs --trace FILE"));
    };
    let problem = load_trace(path)?;

    let algos = flags.algos();
    let seed = flags.get("--seed").unwrap_or(0);
    let mut table =
        Table::new(vec!["algorithm", "total cost", "run", "idle", "transition", "cpu util (%)"]);
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
        "trace {path}: {} VMs on {} servers, horizon {}\n\n{}",
        problem.vm_count(),
        problem.server_count(),
        problem.horizon(),
        table
    );
    out.push_str(&telemetry_section(&problem, &algos, seed, flags)?);
    Ok(out)
}

fn run_exact(flags: &Flags) -> Result<String, CliError> {
    let vms = flags.get("--vms").unwrap_or(4);
    let servers = flags.get("--servers").unwrap_or(2);
    let seed = flags.get("--seed").unwrap_or(0);
    let config = WorkloadConfig::new(vms, servers)
        .mean_interarrival(2.0)
        .mean_duration(3.0);
    let problem = config.generate(seed)?;

    let exact = Formulation::new(&problem)
        .solve()
        .map_err(CliError::Exact)?;

    let mut table = Table::new(vec!["algorithm", "total cost", "gap vs optimal (%)"]);
    table.row(vec![
        "exact (ILP)".into(),
        format!("{:.2}", exact.objective),
        "0.00".into(),
    ]);
    for kind in PAPER_PAIR {
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
    metrics: &MetricsRegistry,
) -> String {
    use esvm_obs::names::serve as names;
    let stats = session.engine().stats();
    let counter = |name| metrics.counter(name).to_string();
    let mut rows = vec![
        ("requests", stats.arrivals.to_string()),
        ("placed", stats.placed.to_string()),
        ("rejected", stats.rejected.to_string()),
        ("departed", stats.departed.to_string()),
        ("evicted", stats.evicted.to_string()),
        ("repaired", stats.repaired.to_string()),
        ("overloaded", counter(names::OVERLOADED)),
        ("live at end", session.engine().live_count().to_string()),
        ("live peak", stats.live_peak.to_string()),
        ("protocol errors", counter(names::PROTOCOL_ERRORS)),
        // Formatted like `solve`'s total cost: a trace served to its
        // end is MIEC's schedule, so the two rows agree.
        ("energy (W·min)", format!("{:.0}", session.engine().committed_cost())),
    ];
    if metrics.counter(names::JOURNAL_APPENDS) > 0 {
        rows.push(("journal appends", counter(names::JOURNAL_APPENDS)));
        rows.push(("journal fsyncs", counter(names::JOURNAL_FSYNCS)));
    }
    if let Some(ms) = metrics.gauge(names::RECOVERY_MS) {
        rows.push(("recovery (ms)", format!("{ms:.2}")));
    }
    if let Some(h) = metrics.histogram(names::DECISION_US) {
        rows.push(("decision mean (µs)", format!("{:.2}", h.mean())));
        rows.push(("decision p50 (µs)", format!("{:.2}", h.p50)));
        rows.push(("decision p95 (µs)", format!("{:.2}", h.p95)));
        rows.push(("decision p99 (µs)", format!("{:.2}", h.p99)));
    }
    let mut table = Table::new(vec!["metric", "value"]);
    for (name, value) in rows {
        table.row(vec![name.into(), value]);
    }
    format!("online serving session — {source}\n\n{table}")
}

/// `--socket PATH`, held for the session's life by an exclusive lock on
/// `PATH.lock`, so a second `esvm serve` on the path of a live session
/// is refused instead of taking the path over. The claim is made before
/// any journal is recovered or created; dropping it removes the lock
/// file.
struct SocketClaim {
    path: String,
    #[cfg(unix)]
    lock_path: String,
    #[cfg(unix)]
    _lock: std::fs::File,
}

#[cfg(unix)]
impl Drop for SocketClaim {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Claims `path` for a socket. A socket file already there is stale
/// (its session has let go of the lock) and is replaced; any other file
/// there is a usage error and stays as it was.
#[cfg(unix)]
fn claim_socket(path: &str) -> Result<SocketClaim, CliError> {
    use std::fs::TryLockError;
    use std::os::unix::fs::{FileTypeExt, MetadataExt};
    let io_err = |e: std::io::Error| CliError::Usage(format!("socket {path:?}: {e}"));
    // Bind refuses a path too long for a socket address; so does this,
    // before the journal.
    std::os::unix::net::SocketAddr::from_pathname(path).map_err(io_err)?;
    let lock_path = format!("{path}.lock");
    let lock = loop {
        let file = std::fs::File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&lock_path)
            .map_err(io_err)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(CliError::Usage(format!(
                    "socket {path:?} is held by a live esvm serve session"
                )))
            }
            Err(TryLockError::Error(e)) => return Err(io_err(e)),
        }
        // A session removes its lock file before its lock goes: a lock
        // on a file no longer at the path claims nothing.
        let held = file.metadata().map_err(io_err)?;
        match std::fs::metadata(&lock_path) {
            Ok(named) if (named.dev(), named.ino()) == (held.dev(), held.ino()) => break file,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
    };
    let claim = SocketClaim { path: path.to_owned(), lock_path, _lock: lock };
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
    Ok(claim)
}

/// Accepts one connection on the claimed socket and serves it to EOF;
/// the socket file goes when the session ends.
#[cfg(unix)]
fn serve_socket<T: esvm_obs::Tracer>(
    claim: &SocketClaim,
    session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    let path = &claim.path;
    let io_err = |e: std::io::Error| CliError::Usage(format!("socket {path:?}: {e}"));
    let listener = std::os::unix::net::UnixListener::bind(path).map_err(io_err)?;
    let served = listener
        .accept()
        .and_then(|(stream, _)| crate::serve::serve_lines(&stream, &stream, session));
    let _ = std::fs::remove_file(path);
    served.map_err(io_err)
}

#[cfg(not(unix))]
fn claim_socket(_path: &str) -> Result<SocketClaim, CliError> {
    Err(CliError::Usage(
        "--socket needs a Unix platform; use stdin instead".into(),
    ))
}

#[cfg(not(unix))]
fn serve_socket<T: esvm_obs::Tracer>(
    _claim: &SocketClaim,
    _session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    unreachable!("claim_socket never claims a socket here")
}

/// The [`ServeConfig`](crate::serve::ServeConfig) the flags describe.
fn serve_config_from(flags: &Flags) -> crate::serve::ServeConfig {
    let mut config = crate::serve::ServeConfig::default();
    config.queue_cap = flags.get("--queue").unwrap_or(config.queue_cap);
    config.max_retries = flags.get("--retries").unwrap_or(config.max_retries);
    config.backoff = flags.get("--backoff").unwrap_or(config.backoff);
    config
}

fn recover_file(path: &str) -> Result<crate::journal::Recovered, CliError> {
    crate::journal::recover_file(path)
        .map_err(|e| CliError::Usage(format!("cannot recover journal {path:?}: {e}")))
}

/// Replays a decoded journal into `session`, with checkpoint
/// verification, and sets the `serve.recovery_ms` gauge to `decoded`
/// (the time its read took) plus the replay's, as a restart pays both.
fn replay_recovered<T: esvm_obs::Tracer>(
    path: &str,
    rec: &crate::journal::Recovered,
    decoded: std::time::Duration,
    session: &mut crate::serve::ServeSession<'_, T>,
    metrics: &MetricsRegistry,
) -> Result<(), CliError> {
    let t0 = std::time::Instant::now();
    session
        .replay(&rec.records)
        .map_err(|e| CliError::Usage(format!("journal {path:?} does not replay: {e}")))?;
    metrics.set_gauge(
        esvm_obs::names::serve::RECOVERY_MS,
        (decoded + t0.elapsed()).as_secs_f64() * 1e3,
    );
    Ok(())
}

/// Attaches the `--journal` writer to `session`. Resuming the same
/// file that was just recovered truncates its torn tail and appends;
/// a different (or fresh) path gets a new journal carrying the
/// recovered records forward, so it is self-contained for the *next*
/// recovery.
fn attach_journal<T: esvm_obs::Tracer>(
    flags: &Flags,
    fleet: &[esvm_simcore::ServerSpec],
    recovered: Option<(&str, &crate::journal::Recovered)>,
    session: &mut crate::serve::ServeSession<'_, T>,
) -> Result<(), CliError> {
    let Some(path) = flags.path("--journal") else {
        return Ok(());
    };
    let fsync_every = flags.get("--fsync-every").unwrap_or(4096);
    let io_err = |e: std::io::Error| CliError::Usage(format!("journal {path:?}: {e}"));
    let writer = match recovered {
        Some((rec_path, rec)) if rec_path == path => {
            crate::journal::truncate_torn_tail(path, rec)
                .map_err(|e| CliError::Usage(format!("journal {path:?}: {e}")))?;
            crate::journal::JournalWriter::open_append(path, fsync_every).map_err(io_err)?
        }
        _ => {
            preflight_out_path(path, flags.has("--force"))?;
            let mut w = crate::journal::JournalWriter::create(path, fleet, fsync_every)
                .map_err(io_err)?;
            if let Some((_, rec)) = recovered {
                w.append_recovered(&rec.records).map_err(io_err)?;
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
    socket: Option<&SocketClaim>,
    metrics: &MetricsRegistry,
    tracer: &T,
) -> Result<String, CliError> {
    use crate::serve::{feed_problem_with_faults, feed_records, serve_lines, ServeSession};

    // Open the trace feed first so the fleet can come from it. ESVT is
    // streamed through `TraceReader::records` without materialising the
    // VM list.
    let mut esvt_reader = None;
    let mut text_problem = None;
    if let Some(path) = flags.path("--trace") {
        if is_esvt(path) {
            let reader = esvm_workload::TraceReader::open(path)
                .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")))?;
            esvt_reader = Some((path, reader));
        } else {
            text_problem = Some((path, load_trace(path)?));
        }
    }

    // A recovered journal's header is the authoritative fleet;
    // otherwise the trace's, otherwise one generated from
    // --servers/--seed. The journal is read once: the fleet comes from
    // that read, whose records are replayed and re-journaled below.
    let recovered = match flags.path("--recover") {
        Some(path) => {
            let t0 = std::time::Instant::now();
            let rec = recover_file(path)?;
            Some((path, rec, t0.elapsed()))
        }
        None => None,
    };
    let servers = flags.get("--servers").unwrap_or(50);
    let seed = flags.get("--seed").unwrap_or(0);
    let fleet: Vec<esvm_simcore::ServerSpec> = if let Some((_, rec, _)) = &recovered {
        rec.servers.clone()
    } else if let Some((_, reader)) = &esvt_reader {
        reader.servers().to_vec()
    } else if let Some((_, problem)) = &text_problem {
        problem.servers().to_vec()
    } else {
        WorkloadConfig::new(1, servers)
            .transition_time(flags.get("--transition").unwrap_or(1.0))
            .generate(seed)?
            .servers()
            .to_vec()
    };

    let mut session =
        ServeSession::new(&fleet, metrics, tracer).with_config(serve_config_from(flags));
    let mut source_notes: Vec<String> = Vec::new();
    if let Some((path, rec, decoded)) = &recovered {
        replay_recovered(path, rec, *decoded, &mut session, metrics)?;
        source_notes.push(format!(
            "recovered {} records from {path}{}",
            rec.records.len(),
            if rec.torn_bytes > 0 {
                format!(" ({} torn bytes dropped)", rec.torn_bytes)
            } else {
                String::new()
            }
        ));
    }
    attach_journal(
        flags,
        &fleet,
        recovered.as_ref().map(|(path, rec, _)| (*path, rec)),
        &mut session,
    )?;
    // The engine holds the replayed state and the journal its records:
    // serving needs the decoded records no longer.
    drop(recovered);
    if let Some(path) = flags.path("--journal") {
        source_notes.push(format!("journaling to {path}"));
    }

    let main_source = if let Some((path, reader)) = esvt_reader {
        feed_records(reader.records(), &mut session)
            .map_err(|e| CliError::Usage(format!("bad trace {path:?}: {e}")))?;
        format!("streamed ESVT trace {path}")
    } else if let Some((path, problem)) = text_problem {
        feed_problem_with_faults(&problem, &esvm_chaos::FaultPlan::empty(), &mut session);
        format!("replayed trace {path}")
    } else if let Some(claim) = socket {
        serve_socket(claim, &mut session)?;
        format!("socket {}, {} servers (seed {seed})", claim.path, fleet.len())
    } else {
        // Unit tests never read the test runner's stdin: there a
        // `serve --recover J` serves an empty stream.
        #[cfg(test)]
        let input = std::io::empty();
        #[cfg(not(test))]
        let input = std::io::stdin().lock();
        serve_lines(input, std::io::stdout().lock(), &mut session)
            .map_err(|e| CliError::Usage(format!("serve I/O failed: {e}")))?;
        format!("stdin, {} servers (seed {seed})", fleet.len())
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
    let socket = flags.path("--socket").map(claim_socket).transpose()?;
    let metrics = MetricsRegistry::new();
    let (summary, trace_note) = with_tracer!(flags, esvm_obs::NoopTracer, |tracer| {
        serve_with(flags, socket.as_ref(), &metrics, tracer)
    })?;
    Ok(format!("{summary}{trace_note}{}", session_metrics(flags, &metrics)?))
}

fn run_gap(flags: &Flags) -> Result<String, CliError> {
    let seeds = flags.get("--seeds").unwrap_or(10);
    let base = flags.get("--seed").unwrap_or(0);
    let vms = flags.get("--vms").unwrap_or(100);
    if vms == 0 {
        // No VM, no cost: the competitive ratio would be 0/0.
        return Err(usage_error("gap: --vms must be at least 1"));
    }
    let servers = flags.get("--servers").unwrap_or_else(|| (vms / 2).max(1));
    let adversary: Option<esvm_workload::AdversaryPreset> = flags.get("--adversary");
    let mut table = Table::new(vec!["seed", "online", "refined online", "ratio"]);
    let mut ratios: Vec<f64> = Vec::new();
    let mut infeasible = 0usize;
    for seed in base..base + seeds {
        let problem = match adversary {
            Some(preset) => preset.problem(vms, servers, seed).map_err(CliError::Sim)?,
            None => workload_from(flags).generate(seed)?,
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
    let source = match adversary {
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
    fn compare_seed_is_the_first_monte_carlo_seed() {
        let base = [
            "compare", "--vms", "12", "--servers", "6", "--seeds", "2", "--algos", "miec,ffps",
        ];
        let with = |seed: &str| run(&args(&[&base[..], &["--seed", seed]].concat())).unwrap();
        let plain = run(&args(&base)).unwrap();
        assert_eq!(with("0"), plain);
        // Seeds 7 and 8 run, not 0 and 1: the header says so and the
        // table's figures move.
        let seven = with("7");
        let (head, table) = seven.split_once('\n').unwrap();
        assert_eq!(head, "12 VMs on 6 servers, 2 seeds from 7");
        assert_ne!(table, plain.split_once('\n').unwrap().1, "{seven}");
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
        let base = ["chaos", "--vms", "16", "--servers", "8", "--seed", "3", "--algos", "miec"];
        let mut first: Vec<&str> = base.to_vec();
        first.extend(["--fault-rate", "0.5", "--plan-out", path.to_str().unwrap()]);
        let out1 = run(&args(&first)).unwrap();
        assert!(out1.contains("fault plan written"), "{out1}");
        let plan_text = std::fs::read_to_string(&path).unwrap();
        assert!(plan_text.starts_with("# esvm faultplan v1"), "{plan_text}");

        // A replayed plan takes no generator flag such as --fault-rate.
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
    fn a_failed_esvt_gen_keeps_the_old_trace() {
        let dir = std::env::temp_dir().join(format!("esvm_cli_gen_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.esvt");
        let out = path.to_str().unwrap();
        run(&args(&["gen", "--vms", "30", "--servers", "10", "--out", out])).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = run(&args(&["gen", "--vms", "40", "--servers", "1", "--out", out])).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "a temporary file was left");
        let solved = run(&args(&["solve", "--trace", out, "--algos", "miec"])).unwrap();
        assert!(!solved.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn serve_recovers_into_a_new_journal_and_refuses_version_2() {
        let paths = ["a.esvj", "b.esvj", "v2.esvj"]
            .map(|name| std::env::temp_dir().join(format!("esvm_cli_serve_v3_{name}")));
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
        let [first, moved, old] = paths.each_ref().map(|p| p.to_str().unwrap());
        // A drill journals DOWN lines, each with its repairs.
        run(&args(&[
            "chaos", "--vms", "40", "--servers", "10", "--seed", "7", "--fault-rate", "0.6",
            "--live", "--journal", first,
        ]))
        .unwrap();
        let out = run(&args(&["serve", "--recover", first, "--journal", moved])).unwrap();
        assert!(out.contains("journaling to"), "{out}");
        // The new journal carries the recovered one forward frame for
        // frame, then the session's own checkpoint.
        let (a, b) = (std::fs::read(first).unwrap(), std::fs::read(moved).unwrap());
        assert!(
            b.len() > a.len() && b[..a.len()] == a[..],
            "frames changed on the way"
        );
        let again = run(&args(&["serve", "--recover", moved])).unwrap();
        assert!(again.contains("recovered"), "{again}");

        let mut v2 = a;
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(old, v2).unwrap();
        let err = run(&args(&["serve", "--recover", old])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("unsupported ESVJ version 2")),
            "{err}"
        );
        for p in &paths {
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
        let flags = Flags::parse("chaos", CHAOS, &argv[1..]).unwrap();
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

    /// A flag the other one makes the command drop is a usage error
    /// before any work: a replayed plan is not generated, and an
    /// adversary preset builds its own instances. The plan file does
    /// not exist, so a run that got past the check would fail reading
    /// it with another message.
    #[test]
    fn flags_a_mode_would_drop_are_refused() {
        let refused = |argv: &[&str], a: &str, b: &str| {
            let err = run(&args(argv)).unwrap_err();
            let want = format!("{a} and {b} are mutually exclusive");
            assert!(matches!(&err, CliError::Usage(msg) if msg.contains(&want)), "{argv:?}: {err}");
        };
        let generator = [("--fault-rate", "0.5"), ("--rack-size", "4"), ("--mean-outage", "5")];
        for command in [&["chaos"][..], &["chaos", "--live"]] {
            for (flag, value) in generator {
                let mut argv = command.to_vec();
                argv.extend(["--plan", "/definitely/not/here.txt", flag, value]);
                refused(&argv, "--plan", flag);
            }
        }
        let workload =
            [&["--interarrival", "2"][..], &["--duration", "3"], &["--transition", "0"]];
        for extra in workload.into_iter().chain([&["--standard-vms"][..], &["--small-servers"]]) {
            let mut argv = vec!["gap", "--vms", "4", "--adversary", "break-even"];
            argv.extend(extra);
            refused(&argv, "--adversary", extra[0]);
        }
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

    /// A value `flag` accepts: every numeric flag takes 1, and paths
    /// point at `path`.
    fn sample(flag: &Flag, path: &str) -> Option<String> {
        let (placeholder, _) = flag.value?;
        Some(match (flag.name, placeholder) {
            ("--algos", _) => "miec".into(),
            ("--sizes", _) => "2,4".into(),
            ("--shed-policy", _) => "arrival-order".into(),
            ("--adversary", _) => "break-even".into(),
            (_, "FILE" | "PATH") => path.into(),
            _ => "1".into(),
        })
    }

    /// Every command × every flag (and its alias): `run` refuses the
    /// flag, naming it and the command and writing nothing, exactly
    /// when the table does not give it to the command. `run` checks all
    /// flags before any work, so an accepted flag is followed by a
    /// probe flag the command refuses: the run then stops at the probe,
    /// and its error names the probe rather than the flag.
    #[test]
    fn every_command_reads_exactly_the_flags_the_table_gives_it() {
        let path = std::env::temp_dir().join("esvm_cli_flag_table_test.out");
        let path_str = path.to_str().unwrap().to_owned();
        std::fs::remove_file(&path).ok();
        let commands = COMMANDS
            .iter()
            .map(|&(name, class, _)| (vec![name], class))
            .chain([(vec!["chaos", "--live"], LIVE)]);
        for (command, class) in commands {
            // `--live` turns chaos into the drill: refused by both.
            let refusing = if class == CHAOS { CHAOS | LIVE } else { class };
            let probe = FLAGS
                .iter()
                .find(|f| f.value.is_none() && !f.reads(refusing))
                .unwrap();
            for flag in FLAGS {
                for spelling in std::iter::once(flag.name).chain(flag.alias) {
                    let mut argv = command.clone();
                    argv.push(spelling);
                    let value = sample(flag, &path_str);
                    argv.extend(value.as_deref());
                    let accepted = flag.reads(class);
                    let refused = if accepted { probe.name } else { spelling };
                    if accepted {
                        argv.push(probe.name);
                    }
                    let err = run(&args(&argv)).unwrap_err();
                    let CliError::Usage(msg) = &err else {
                        panic!("{argv:?}: {err}");
                    };
                    let first = msg.lines().next().unwrap();
                    assert!(
                        first.starts_with(command[0]) && first.contains(&format!("does not read {refused};")),
                        "{argv:?}: {first}"
                    );
                    assert!(!path.exists(), "{argv:?} wrote {path_str}");
                }
            }
        }
    }

    #[test]
    fn usage_names_every_flag_and_the_flags_of_every_command() {
        let text = usage();
        for flag in FLAGS {
            for spelling in std::iter::once(flag.name).chain(flag.alias) {
                assert!(text.contains(spelling), "{spelling} is missing from\n{text}");
            }
        }
        for &(name, ..) in COMMANDS {
            let shown = if name.starts_with("fig") { "fig2 .. fig9" } else { name };
            assert!(text.contains(&format!("\n  {shown} ")), "{name} is missing from\n{text}");
        }
        assert!(text.contains("\n  chaos --live\n"), "{text}");
        // `esvm` with no arguments prints it.
        assert!(matches!(run(&[]), Err(CliError::Usage(msg)) if msg == text));
    }

    /// A flag the command does not read — the exact certification has a
    /// fixed workload, serve a fixed MIEC engine, compare no journal —
    /// is refused before any work runs.
    #[test]
    fn flags_a_command_never_reads_are_refused() {
        let path = std::env::temp_dir().join("esvm_cli_unread_flag_test.esvj");
        std::fs::remove_file(&path).ok();
        let journal = path.to_str().unwrap();
        for (argv, command, flag) in [
            (vec!["serve", "--algos", "ffps"], "serve", "--algos"),
            (vec!["exact", "--interarrival", "3"], "exact", "--interarrival"),
            (vec!["compare", "--journal", journal], "compare", "--journal"),
            (vec!["compare", "--live"], "compare", "--live"),
            (vec!["chaos", "--live", "--algos", "miec"], "chaos --live", "--algos"),
            (vec!["chaos", "--journal", journal], "chaos", "--journal"),
            (vec!["gap", "--threads", "2"], "gap", "--threads"),
        ] {
            let err = run(&args(&argv)).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg)
                    if msg.starts_with(&format!("{command} does not read {flag};"))),
                "{argv:?}: {err}"
            );
            assert!(!path.exists(), "{argv:?} wrote {journal}");
        }
    }

    #[test]
    fn extension_commands_honour_csv() {
        let argv = ["ext-overload", "--quick", "--seeds", "2", "--threads", "2"];
        let table = run(&args(&argv)).unwrap();
        assert!(table.starts_with("E3 — overload behaviour with admission control (2 seeds)\n\n"));
        let csv = run(&args(&[&argv[..], &["--csv"]].concat())).unwrap();
        let header = csv.lines().next().unwrap();
        assert!(header.contains(',') && !csv.contains("E3 —"), "{csv}");
        // The table `all --csv` renders.
        let opts = ExpOptions { seeds: 2, threads: 2, quick: true };
        assert_eq!(csv, experiments::ext_overload(&opts).unwrap().to_quoted_csv());
    }
}

//! The solve workloads: `esvm solve` from ESVT trace files to the
//! printed reports.
//!
//! A workload's job is a set of traces solved one after another, one
//! `esvm solve` invocation each; a round runs the whole job once.

use std::path::{Path, PathBuf};
use std::time::Instant;

use esvm_core::{Allocator, AllocatorKind, LocalSearch};
use esvm_simcore::AuditReport;
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::proc::{esvm_command, run_timed, thread_cpu_s};
use crate::report::{Budget, Outcome};
use crate::stats::{median, share};
use crate::Ctx;

/// One solve workload: the traces of its job and the allocator to run.
pub struct SolveSpec {
    traces: usize,
    vms: usize,
    servers: usize,
    interarrival: f64,
    duration: f64,
    algo: AllocatorKind,
}

/// One trace of 100k VMs on 10k servers at the paper's defaults: MIEC
/// visits every server for every VM though few servers ever host one.
pub const SPARSE: SolveSpec = SolveSpec {
    traces: 1,
    vms: 100_000,
    servers: 10_000,
    interarrival: 4.0,
    duration: 5.0,
    algo: AllocatorKind::Miec,
};

/// 48 small, busy traces (about 0.67 live VMs per server) where local
/// search dominates. Local search grows superlinearly and its work
/// varies by instance (a fifth between seeds at 1k VMs), so many small
/// instances give a job whose work varies little between seeds: 4%
/// here, against 6% for 16 traces of 1k VMs, which took a third longer.
pub const REFINE: SolveSpec = SolveSpec {
    traces: 48,
    vms: 500,
    servers: 50,
    interarrival: 0.6,
    duration: 20.0,
    algo: AllocatorKind::MiecLocalSearch,
};

/// Tiny runs after each round, for `setup_s`.
const SETUP_RUNS: usize = 8;
/// Fewest rounds in one measurement.
const MIN_ROUNDS: usize = 3;

impl SolveSpec {
    fn config(&self, vms: usize) -> WorkloadConfig {
        WorkloadConfig::new(vms, self.servers)
            .mean_interarrival(self.interarrival)
            .mean_duration(self.duration)
    }
}

/// A generated trace and the report energy an in-process solve of it
/// gives.
struct Trace {
    path: PathBuf,
    expected: Option<[String; 4]>,
}

/// The energy cells of one report row: total, run, idle, transition,
/// rendered as `esvm solve` renders them.
fn energy_cells(report: &AuditReport) -> [String; 4] {
    [
        report.total_cost,
        report.breakdown.run,
        report.breakdown.idle,
        report.breakdown.transition,
    ]
    .map(|v| format!("{v:.0}"))
}

/// Finds the algorithm's row in an `esvm solve` report and returns its
/// energy cells.
fn report_cells(stdout: &str, algo: &str) -> Result<[String; 4], String> {
    let row = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.len() == 6 && cells[0] == algo)
        .ok_or_else(|| format!("report has no {algo} row"))?;
    Ok([1, 2, 3, 4].map(|i| row[i].to_owned()))
}

fn file_name(path: &Path) -> &std::ffi::OsStr {
    path.file_name().expect("work files have names")
}

/// What one `esvm solve` invocation, or a round of them, measured.
#[derive(Default)]
struct Solved {
    /// Spawn to exit, in seconds.
    wall: f64,
    /// Processor time (user + system), in seconds.
    cpu: f64,
    /// Peak RSS, in MiB.
    rss_mb: f64,
    /// Total energy of the report.
    energy: f64,
}

/// Solves `trace` through the binary and checks the report's energy.
fn solve_once(
    ctx: &Ctx,
    spec: &SolveSpec,
    trace: &Trace,
    poll_rss: bool,
) -> Result<Solved, String> {
    let mut cmd = esvm_command(&ctx.esvm, &ctx.work);
    cmd.arg("solve")
        .arg("--trace")
        .arg(file_name(&trace.path))
        .args(["--algos", spec.algo.name()]);
    let run = run_timed(&mut cmd, poll_rss)?;
    let cells = report_cells(&run.stdout, spec.algo.name())?;
    if let Some(want) = &trace.expected {
        if &cells != want {
            return Err(format!(
                "report energy {cells:?} differs from the in-process {want:?}"
            ));
        }
    }
    let energy = cells[0]
        .parse()
        .map_err(|_| format!("bad energy cell {:?}", cells[0]))?;
    Ok(Solved {
        wall: run.seconds,
        cpu: run.cpu_seconds,
        rss_mb: run.peak_rss_mb,
        energy,
    })
}

/// The layer calls `esvm solve` makes, timed one by one from here in
/// processor time, as `solve_s` is.
#[derive(Default)]
struct Layers {
    read: f64,
    allocate: f64,
    refine: f64,
    audit: f64,
}

/// Solves `trace` in process with the public calls `esvm solve` makes,
/// adding each call's time to `layers`; returns the audited report.
fn solve_in_process(
    spec: &SolveSpec,
    trace: &Path,
    layers: &mut Layers,
) -> Result<AuditReport, String> {
    let t = thread_cpu_s()?;
    let problem =
        esvm_workload::esvt::read_esvt_file(trace).map_err(|e| format!("reading trace: {e}"))?;
    let t = lap(t, &mut layers.read)?;
    // `esvm solve` seeds each allocator with its --seed, 0 by default.
    let mut rng = StdRng::seed_from_u64(0);
    let base = AllocatorKind::Miec
        .build()
        .allocate(&problem, &mut rng)
        .map_err(|e| format!("allocating: {e}"))?;
    let t = lap(t, &mut layers.allocate)?;
    let (assignment, t) = if spec.algo == AllocatorKind::MiecLocalSearch {
        let refined = LocalSearch::new()
            .refine(&base)
            .map_err(|e| format!("refining: {e}"))?;
        (refined, lap(t, &mut layers.refine)?)
    } else {
        (base, t)
    };
    let report = assignment.audit().map_err(|e| format!("auditing: {e}"))?;
    lap(t, &mut layers.audit)?;
    Ok(report)
}

/// Adds the processor time since `since` to `into`; returns the time
/// now.
fn lap(since: f64, into: &mut f64) -> Result<f64, String> {
    let now = thread_cpu_s()?;
    *into += now - since;
    Ok(now)
}

/// Records the outcome of one checked binary run.
fn count<T>(outcome: &mut Outcome, result: Result<T, String>) -> Option<T> {
    match result {
        Ok(v) => {
            outcome.tally(1, 0, []);
            Some(v)
        }
        Err(e) => {
            outcome.tally(1, 1, [e]);
            None
        }
    }
}

/// One round: the whole job through the binary, its times and energy
/// summed and its peak RSS the largest; `None` after a failed run.
fn round(
    ctx: &Ctx,
    spec: &SolveSpec,
    traces: &[Trace],
    poll_rss: bool,
    outcome: &mut Outcome,
) -> Option<Solved> {
    let mut sum = Solved::default();
    for trace in traces {
        let run = count(outcome, solve_once(ctx, spec, trace, poll_rss))?;
        sum.wall += run.wall;
        sum.cpu += run.cpu;
        sum.rss_mb = sum.rss_mb.max(run.rss_mb);
        sum.energy += run.energy;
    }
    Some(sum)
}

/// Runs one solve workload.
pub fn run(spec: &SolveSpec, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut traces = Vec::with_capacity(spec.traces);
    for k in 0..spec.traces {
        let path = ctx.work.join(format!("trace{k}.esvt"));
        let seed = ctx
            .seed
            .wrapping_mul(spec.traces as u64)
            .wrapping_add(k as u64);
        spec.config(spec.vms)
            .generate_esvt_file(seed, &path)
            .map_err(|e| format!("generating trace {k}: {e}"))?;
        traces.push(Trace {
            path,
            expected: None,
        });
    }
    if traced {
        traced_run(spec, ctx, &mut traces)
    } else {
        end_to_end(spec, ctx, &mut traces)
    }
}

fn end_to_end(spec: &SolveSpec, ctx: &Ctx, traces: &mut [Trace]) -> Result<Outcome, String> {
    // The oracle: the same public calls `esvm solve` makes, in process.
    for trace in traces.iter_mut() {
        let report = solve_in_process(spec, &trace.path, &mut Layers::default())?;
        trace.expected = Some(energy_cells(&report));
    }
    let tiny = Trace {
        path: ctx.work.join("tiny.esvt"),
        expected: None,
    };
    spec.config(1)
        .generate_esvt_file(ctx.seed, &tiny.path)
        .map_err(|e| format!("generating the one-VM trace: {e}"))?;

    let mut outcome = Outcome::default();
    // Warm the binary's pages.
    count(&mut outcome, solve_once(ctx, spec, &tiny, false));

    let (mut rounds, mut setup) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + last <= ctx.seconds {
        let t = Instant::now();
        let Some(r) = round(ctx, spec, traces, true, &mut outcome) else {
            break;
        };
        // The fixed cost of one invocation, a one-VM trace over the same
        // fleet, timed between rounds so it sees the host they see.
        let tiny_runs = (0..SETUP_RUNS)
            .filter_map(|_| count(&mut outcome, solve_once(ctx, spec, &tiny, false)));
        setup.extend(tiny_runs.map(|run| run.wall));
        last = t.elapsed().as_secs_f64();
        rounds.push(r);
    }
    let med = |f: fn(&Solved) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (cpu, wall) = (med(|r| r.cpu), med(|r| r.wall));
    outcome.set("setup_s", median(&setup));
    outcome.set_wall("solve_s", cpu, wall);
    outcome.set("energy_wmin", rounds.first().map_or(0.0, |r| r.energy));
    // A solve job answers all of its VMs at once: each request's
    // latency is the job's time.
    outcome.set_wall("req_p50_us", cpu * 1e6, wall * 1e6);
    let vms = (spec.traces * spec.vms) as f64;
    outcome.set_wall("capacity_rps", share(vms, cpu), share(vms, wall));
    outcome.set("peak_rss_mb", med(|r| r.rss_mb));
    Ok(outcome)
}

/// Adds the counters of one `--metrics-out` run to `into`.
fn add_counters(
    ctx: &Ctx,
    spec: &SolveSpec,
    trace: &Trace,
    into: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let csv = ctx.work.join("metrics.csv");
    let mut cmd = esvm_command(&ctx.esvm, &ctx.work);
    cmd.arg("solve")
        .arg("--trace")
        .arg(file_name(&trace.path))
        .args(["--algos", spec.algo.name(), "--force", "--metrics-out"])
        .arg(file_name(&csv));
    run_timed(&mut cmd, false)?;
    let text = std::fs::read_to_string(&csv).map_err(|e| format!("reading metrics: {e}"))?;
    for line in text.lines() {
        if let [_, name, "counter", value] = line.split(',').collect::<Vec<_>>().as_slice() {
            let value: f64 = value.parse().map_err(|_| format!("bad counter {line:?}"))?;
            into.push(((*name).to_owned(), value));
        }
    }
    Ok(())
}

fn traced_run(spec: &SolveSpec, ctx: &Ctx, traces: &mut [Trace]) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut counters = Vec::new();
    for trace in traces.iter() {
        count(&mut outcome, add_counters(ctx, spec, trace, &mut counters));
    }
    let counter = |name: &str| {
        counters
            .iter()
            .filter(|(n, _)| n == name)
            .fold(0.0, |sum, (_, v)| sum + v)
    };

    let start = Instant::now();
    let (mut cpus, mut layers) = (Vec::new(), Vec::new());
    while cpus.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut l = Layers::default();
        for trace in traces.iter_mut() {
            trace.expected = Some(energy_cells(&solve_in_process(spec, &trace.path, &mut l)?));
        }
        layers.push(l);
        match round(ctx, spec, traces, false, &mut outcome) {
            Some(r) => cpus.push(r.cpu),
            None => break,
        }
    }
    let med = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let (read, allocate, refine, audit) = (
        med(|l| l.read),
        med(|l| l.allocate),
        med(|l| l.refine),
        med(|l| l.audit),
    );
    let solve_s = median(&cpus);
    outcome.set("solve_s", solve_s);
    outcome.set("workload.esvt_read_s", read);
    outcome.set("core.miec.allocate_s", allocate);
    outcome.set("core.local_search.refine_s", refine);
    outcome.set("simcore.audit_s", audit);
    outcome.set(
        "solve.residual_s",
        solve_s - read - allocate - refine - audit,
    );

    let scored = counter("miec.candidates_considered");
    let visited = scored + counter("miec.spec_class_pruned") + counter("miec.unfit_skipped");
    outcome.set("core.miec.servers_visited", visited);
    outcome.set("core.miec.candidates_scored", scored);
    outcome.set("core.miec.scored_share", share(scored, visited));
    let moves =
        counter("local_search.relocates_considered") + counter("local_search.swaps_considered");
    let accepted =
        counter("local_search.relocates_accepted") + counter("local_search.swaps_accepted");
    outcome.set("core.local_search.moves_considered", moves);
    outcome.set("core.local_search.accept_share", share(accepted, moves));

    outcome.budgets.push(Budget {
        figure: "solve_s",
        parts: vec![
            "workload.esvt_read_s",
            "core.miec.allocate_s",
            "core.local_search.refine_s",
            "simcore.audit_s",
        ],
        nested: vec![],
        residual: "solve.residual_s: spawn, report, exit",
    });
    Ok(outcome)
}

//! The serve workloads: a real `esvm serve --socket` process driven
//! through the load generator.

use std::path::Path;
use std::time::{Duration, Instant};

use esvm_chaos::{FaultEvent, FaultPlan, FaultPlanConfig};
use esvm_core::OnlineEngine;
use esvm_exper::journal::{self, JournalRecord, JournalWriter};
use esvm_exper::serve::{parse_request, Request, ServeConfig, ServeSession};
use esvm_obs::{names, MetricsRegistry, NoopTracer};
use esvm_simcore::{AllocationProblem, Assignment, ServerId, ServerSpec, Vm};
use esvm_workload::WorkloadConfig;

use crate::check::{check_replies, Sent};
use crate::loadgen::{self, Conn};
use crate::proc::{esvm_command, process_cpu_s, reaped_children_cpu_s, vm_hwm_mb, Running};
use crate::report::{Budget, Outcome};
use crate::stats::{median, percentile, share};
use crate::Ctx;

/// Fleet size of both serve workloads.
const SERVERS: usize = 5_000;
/// The socket, relative to the work directory (the server's cwd), which
/// keeps the path short whatever the checkout's location.
const SOCKET: &str = "serve.sock";
/// Fewest sessions per measurement (each one is a setup).
const MIN_SESSIONS: usize = 3;
/// Extra start-ups per measurement of `setup_s`: spawn, connect, close.
const SETUP_RUNS: usize = 9;
/// How long a server may take to start listening.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// `serve-wire`: a closed-loop phase, then a pipelined phase, on a
/// sparse stream (about 100 live VMs).
const WIRE_CLOSED: usize = 20_000;
const WIRE_PIPELINED: usize = 60_000;
const WIRE_INTERARRIVAL: f64 = 0.05;
const WIRE_DURATION: f64 = 5.0;

/// `serve-dense`: a journaled prefix recovered at start-up, then an
/// open loop at a fixed offered rate and a closed-loop phase on a dense
/// stream (about 2k live VMs) with server faults interleaved.
const DENSE_PREFIX: usize = 10_000;
const DENSE_LIVE: usize = 16_000;
/// Live lines sent open loop; the rest (about 8k) go closed loop, whose
/// pace the server alone sets.
const DENSE_OPEN_LINES: usize = 8_000;
const DENSE_INTERARRIVAL: f64 = 0.05;
const DENSE_DURATION: f64 = 100.0;
/// Low enough that fault repair stays out of the open loop's p99.
const DENSE_FAULT_RATE: f64 = 0.01;
/// Offered rate of the open loop, lines per second: about a quarter of
/// what the server sustains on this stream on a 2-vCPU VM.
const DENSE_RATE: f64 = 4_000.0;
/// Appends between two timed syncs of the twin journal: `esvm serve`'s
/// default `--fsync-every`.
const FSYNC_EVERY: u64 = 4096;
/// Decisions between two samples of the awake-server count.
const AWAKE_STRIDE: usize = 16;

/// A seeded request stream: the protocol lines and what each reply must
/// echo.
struct Stream {
    problem: AllocationProblem,
    lines: Vec<String>,
    sent: Vec<Sent>,
}

fn req_line(vm: &Vm) -> String {
    let d = vm.demand();
    let dur = vm.end() - vm.start() + 1;
    format!(
        "REQ {} {} {dur} {} {}\n",
        vm.id().index(),
        vm.start(),
        d.cpu,
        d.mem
    )
}

/// The stream of `vms` arrivals on the serve fleet, in arrival order,
/// with the plan's `DOWN`/`UP` lines interleaved by time exactly as
/// `esvm chaos --live` interleaves them.
fn stream(
    vms: usize,
    interarrival: f64,
    duration: f64,
    plan: Option<f64>,
    seed: u64,
) -> Result<Stream, String> {
    let problem = WorkloadConfig::new(vms, SERVERS)
        .mean_interarrival(interarrival)
        .mean_duration(duration)
        .generate(seed)
        .map_err(|e| format!("generating the stream: {e}"))?;
    let order = problem.vms_by_start_time();
    let last_start = order.last().map_or(0, |&j| problem.vms()[j].start());
    let plan = plan.map_or_else(FaultPlan::empty, |rate| {
        FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(rate),
            SERVERS,
            last_start,
            seed,
        )
    });
    let mut cursor = plan.cursor();
    let (mut lines, mut sent) = (Vec::new(), Vec::new());
    let faults = |events: &[FaultEvent], lines: &mut Vec<String>, sent: &mut Vec<Sent>| {
        for e in events {
            let s = e.server().0;
            match e {
                FaultEvent::ServerDown { .. } => {
                    lines.push(format!("DOWN {s}\n"));
                    sent.push(Sent::Down(s));
                }
                FaultEvent::ServerUp { .. } => {
                    lines.push(format!("UP {s}\n"));
                    sent.push(Sent::Up(s));
                }
            }
        }
    };
    for &j in &order {
        let vm = &problem.vms()[j];
        faults(cursor.take_until(vm.start()), &mut lines, &mut sent);
        lines.push(req_line(vm));
        sent.push(Sent::Req(vm.id().0));
    }
    faults(cursor.rest(), &mut lines, &mut sent);
    Ok(Stream {
        problem,
        lines,
        sent,
    })
}

/// A started server and the time it took to accept a connection.
struct Started {
    running: Running,
    conn: Conn,
    setup_s: f64,
}

impl Started {
    /// Processor time the server has used so far, in seconds.
    fn cpu_s(&mut self) -> Result<f64, String> {
        process_cpu_s(self.running.child().id())
    }
}

fn start_server(ctx: &Ctx, args: &[&str]) -> Result<Started, String> {
    let mut cmd = esvm_command(&ctx.esvm, &ctx.work);
    cmd.args(["serve", "--socket", SOCKET]).args(args);
    let spawned = Instant::now();
    let mut running = Running::spawn(&mut cmd)?;
    let conn = loadgen::connect_when_ready(&ctx.work.join(SOCKET), running.child(), START_TIMEOUT)?;
    let setup_s = spawned.elapsed().as_secs_f64();
    Ok(Started {
        running,
        conn,
        setup_s,
    })
}

/// Reads the server's peak RSS, closes the connection and waits for a
/// clean exit. Returns (peak RSS in MiB, processor seconds the server
/// used from spawn to exit).
fn stop_server(mut started: Started) -> Result<(f64, f64), String> {
    let rss = vm_hwm_mb(started.running.child().id()).unwrap_or(0.0);
    started.conn.close();
    let reaped = reaped_children_cpu_s()?;
    started.running.finish()?;
    Ok((rss, reaped_children_cpu_s()? - reaped))
}

/// Tallies one session's replies; returns the check's placements.
fn tally_replies(
    outcome: &mut Outcome,
    sent: &[Sent],
    replies: &[String],
    errors: impl IntoIterator<Item = Option<String>>,
) -> Vec<(u32, u32)> {
    let verdict = check_replies(sent, replies, SERVERS);
    let problems = errors.into_iter().flatten().chain(verdict.problems);
    outcome.tally(sent.len() as u64, verdict.failed, problems);
    verdict.placed
}

/// Eq. 7 energy of the placements a session replied, re-audited.
fn audited_energy(problem: &AllocationProblem, placed: &[(u32, u32)]) -> Result<f64, String> {
    let mut placement = vec![None; problem.vm_count()];
    for &(id, server) in placed {
        placement[id as usize] = Some(ServerId(server));
    }
    let assignment =
        Assignment::from_placement(problem, &placement).map_err(|e| format!("re-audit: {e}"))?;
    Ok(assignment
        .audit()
        .map_err(|e| format!("re-audit: {e}"))?
        .total_cost)
}

/// Runs sessions until `seconds` have passed (at least
/// [`MIN_SESSIONS`]); stops early after a failed session.
fn sessions<T>(
    ctx: &Ctx,
    outcome: &mut Outcome,
    mut session: impl FnMut(&mut Outcome) -> Result<T, String>,
) -> Vec<T> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut last = 0.0;
    while done.len() < MIN_SESSIONS || start.elapsed().as_secs_f64() + last <= ctx.seconds {
        let t = Instant::now();
        let failed_before = outcome.failed;
        match session(outcome) {
            Ok(v) => done.push(v),
            Err(e) => outcome.tally(1, 1, [e]),
        }
        last = t.elapsed().as_secs_f64();
        if outcome.failed > failed_before {
            break;
        }
    }
    done
}

/// Starts the server [`SETUP_RUNS`] times, connecting and closing at
/// once, after `restore` puts its inputs back; returns each start-up's
/// spawn-to-connect seconds.
fn setups(
    ctx: &Ctx,
    outcome: &mut Outcome,
    args: &[&str],
    restore: impl Fn() -> Result<(), String>,
) -> Vec<f64> {
    let mut times = Vec::new();
    for _ in 0..SETUP_RUNS {
        let started = restore().and_then(|()| start_server(ctx, args));
        match started.and_then(|s| {
            let setup_s = s.setup_s;
            stop_server(s).map(|_| setup_s)
        }) {
            Ok(t) => {
                outcome.tally(1, 0, []);
                times.push(t);
            }
            Err(e) => outcome.tally(1, 1, [e]),
        }
    }
    times
}

/// `setup_s`: the median start-up over the extra start-ups and the
/// sessions' own.
fn setup_median(extra: &[f64], sessions: impl Iterator<Item = f64>) -> f64 {
    median(&extra.iter().copied().chain(sessions).collect::<Vec<_>>())
}

/// One `serve-wire` session's measurements.
struct WireSession {
    setup_s: f64,
    /// Processor time of the server, spawn to exit.
    cpu_s: f64,
    rss_mb: f64,
    /// Closed-loop latency percentiles of this session, in µs.
    p50_us: f64,
    p99_us: f64,
    /// Pipelined replies per second of the server's processor time.
    capacity_rps: f64,
    /// Pipelined replies per second of wall-clock time.
    wall_rps: f64,
    energy: f64,
}

fn wire_session(ctx: &Ctx, s: &Stream, outcome: &mut Outcome) -> Result<WireSession, String> {
    let servers = SERVERS.to_string();
    let mut started = start_server(ctx, &["--servers", &servers])?;
    let closed = loadgen::closed(&mut started.conn, &s.lines[..WIRE_CLOSED]);
    let cpu_before = started.cpu_s()?;
    let piped = loadgen::pipelined(&mut started.conn, &s.lines[WIRE_CLOSED..]);
    let piped_cpu = started.cpu_s()? - cpu_before;
    let setup_s = started.setup_s;
    let (rss_mb, cpu_s) = stop_server(started)?;
    outcome.tally(1, 0, []);
    let replies: Vec<String> = closed.replies.into_iter().chain(piped.replies).collect();
    let placed = tally_replies(outcome, &s.sent, &replies, [closed.error, piped.error]);
    Ok(WireSession {
        setup_s,
        cpu_s,
        rss_mb,
        p50_us: percentile(&closed.latency_us, 50.0),
        p99_us: percentile(&closed.latency_us, 99.0),
        capacity_rps: share(WIRE_PIPELINED as f64, piped_cpu),
        wall_rps: share(WIRE_PIPELINED as f64, piped.seconds),
        energy: audited_energy(&s.problem, &placed)?,
    })
}

fn wire_stream(ctx: &Ctx) -> Result<Stream, String> {
    stream(
        WIRE_CLOSED + WIRE_PIPELINED,
        WIRE_INTERARRIVAL,
        WIRE_DURATION,
        None,
        ctx.seed,
    )
}

/// Runs `serve-wire`.
pub fn run_wire(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let s = wire_stream(ctx)?;
    let mut outcome = Outcome::default();
    if traced {
        return traced_wire(ctx, &s, outcome);
    }
    let servers = SERVERS.to_string();
    let extra = setups(ctx, &mut outcome, &["--servers", &servers], || Ok(()));
    let runs = sessions(ctx, &mut outcome, |o| wire_session(ctx, &s, o));
    let energies: Vec<f64> = runs.iter().map(|r| r.energy).collect();
    if energies
        .windows(2)
        .any(|w| w[0].to_bits() != w[1].to_bits())
    {
        outcome.tally(0, 1, [format!("sessions disagree on energy: {energies:?}")]);
    }
    let pick = |f: fn(&WireSession) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    outcome.set(
        "setup_s",
        setup_median(&extra, runs.iter().map(|r| r.setup_s)),
    );
    outcome.set("solve_s", pick(|r| r.cpu_s));
    outcome.set("energy_wmin", energies.first().copied().unwrap_or(0.0));
    outcome.set("req_p50_us", pick(|r| r.p50_us));
    outcome.set_wall(
        "capacity_rps",
        pick(|r| r.capacity_rps),
        pick(|r| r.wall_rps),
    );
    outcome.set("peak_rss_mb", pick(|r| r.rss_mb));
    Ok(outcome)
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-line timings of the in-process passes.
#[derive(Default)]
struct LayerSamples {
    parse: Vec<f64>,
    handle: Vec<f64>,
    arrive: Vec<f64>,
    session_self: Vec<f64>,
    repair: Vec<f64>,
    append: Vec<f64>,
    fsync_ms: Vec<f64>,
    awake: Vec<f64>,
    /// Of the last pass alone, so they repeat exactly between runs.
    journal_bytes: u64,
    journal_records: u64,
    mismatches: Vec<String>,
}

/// The twin of the session's journal: a writer on its own copy of the
/// prefix, synced at the session's cadence.
struct TwinJournal {
    writer: JournalWriter,
    path: std::path::PathBuf,
    start_len: u64,
}

/// Feeds `lines` through `session`, timing each layer call from here
/// into `out`: the line parse, the whole `handle`, and on `twin` (an
/// engine in the session's state) the arrival or repair, plus the append
/// to the twin journal when there is one.
fn in_process_pass(
    session: &mut ServeSession<'_, NoopTracer>,
    twin: &mut OnlineEngine,
    mut journal: Option<TwinJournal>,
    lines: &[String],
    expected: Option<&[String]>,
    out: &mut LayerSamples,
) -> Result<(), String> {
    out.journal_records = 0;
    let config = ServeConfig::default();
    let mut decisions = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let parsed = parse_request(line);
        let parse = micros(t);
        let t = Instant::now();
        let reply = session.handle(line);
        let handle = micros(t);
        if let Some(want) = expected.map(|e| &e[i]) {
            if reply.as_deref() != Some(want.as_str()) && out.mismatches.len() < 5 {
                out.mismatches
                    .push(format!("line {i}: in-process {reply:?}, oracle {want:?}"));
            }
        }
        let (record, arrive) = match parsed {
            Ok(Some(Request::Req(vm))) => {
                let t = Instant::now();
                let _ = twin.arrive(vm);
                let arrive = micros(t);
                decisions += 1;
                if decisions.is_multiple_of(AWAKE_STRIDE) {
                    let awake = twin
                        .ledgers()
                        .iter()
                        .filter(|l| l.hosted_count() > 0)
                        .count();
                    out.awake.push(awake as f64);
                }
                (JournalRecord::Req(vm), Some(arrive))
            }
            Ok(Some(Request::Down(server))) => {
                let t = Instant::now();
                if let Ok(victims) = twin.set_down(server) {
                    for vm in victims {
                        twin.repair(vm, config.max_retries, config.backoff);
                    }
                }
                out.repair.push(micros(t));
                let record = JournalRecord::Down {
                    server,
                    retries: config.max_retries,
                    backoff: config.backoff,
                };
                (record, None)
            }
            Ok(Some(Request::Up(server))) => {
                let _ = twin.set_up(server);
                (JournalRecord::Up(server), None)
            }
            other => return Err(format!("line {i} is not a stream line: {other:?}")),
        };
        let mut append = 0.0;
        if let Some(j) = journal.as_mut() {
            let t = Instant::now();
            j.writer
                .append(&record)
                .map_err(|e| format!("twin journal: {e}"))?;
            append = micros(t);
            out.append.push(append);
            out.journal_records += 1;
            if out.journal_records.is_multiple_of(FSYNC_EVERY) {
                let t = Instant::now();
                j.writer.sync().map_err(|e| format!("twin journal: {e}"))?;
                out.fsync_ms.push(micros(t) / 1e3);
            }
        }
        out.parse.push(parse);
        out.handle.push(handle);
        if let Some(arrive) = arrive {
            out.arrive.push(arrive);
            out.session_self.push(handle - parse - arrive - append);
        }
    }
    if let Some(mut j) = journal {
        j.writer.sync().map_err(|e| format!("twin journal: {e}"))?;
        let len = std::fs::metadata(&j.path)
            .map_err(|e| format!("twin journal: {e}"))?
            .len();
        out.journal_bytes = len - j.start_len;
    }
    Ok(())
}

/// Records the in-process layer metrics both serve workloads share.
fn set_layers(outcome: &mut Outcome, l: &LayerSamples, new_ms: &[f64]) {
    outcome.set("core.online.new_ms", median(new_ms));
    outcome.set("exper.serve.parse_us", median(&l.parse));
    outcome.set("exper.serve.handle_us.p50", median(&l.handle));
    outcome.set("exper.serve.handle_us.p99", percentile(&l.handle, 99.0));
    outcome.set("exper.serve.session_self_us", median(&l.session_self));
    outcome.set("core.online.arrive_us.p50", median(&l.arrive));
    outcome.set("core.online.arrive_us.p99", percentile(&l.arrive, 99.0));
    let awake = l.awake.iter().sum::<f64>() / l.awake.len().max(1) as f64;
    outcome.set("core.online.awake_servers", awake);
    outcome.set("core.online.repair_us", median(&l.repair));
    outcome.set("exper.journal.append_us.p50", median(&l.append));
    outcome.set("exper.journal.append_us.p99", percentile(&l.append, 99.0));
    outcome.set(
        "exper.journal.bytes_per_request",
        share(l.journal_bytes as f64, l.journal_records as f64),
    );
    outcome.set("exper.journal.fsync_ms.p50", median(&l.fsync_ms));
    outcome.set("exper.journal.fsync_ms.max", percentile(&l.fsync_ms, 100.0));
    let mismatches = l.mismatches.len() as u64;
    outcome.tally(0, mismatches, l.mismatches.iter().cloned());
}

/// Times `OnlineEngine::new` over the fleet.
fn time_new(fleet: &[ServerSpec], into: &mut Vec<f64>) {
    for _ in 0..10 {
        let t = Instant::now();
        std::hint::black_box(OnlineEngine::new(fleet));
        into.push(micros(t) / 1e3);
    }
}

fn traced_wire(ctx: &Ctx, s: &Stream, mut outcome: Outcome) -> Result<Outcome, String> {
    let fleet = s.problem.servers();
    let metrics = MetricsRegistry::new();
    let (mut samples, mut new_ms) = (LayerSamples::default(), Vec::new());
    let servers = SERVERS.to_string();
    let extra = setups(ctx, &mut outcome, &["--servers", &servers], || Ok(()));
    let runs = sessions(ctx, &mut outcome, |o| {
        time_new(fleet, &mut new_ms);
        let mut session = ServeSession::new(fleet, &metrics, &NoopTracer);
        let mut twin = OnlineEngine::new(fleet);
        in_process_pass(&mut session, &mut twin, None, &s.lines, None, &mut samples)?;
        wire_session(ctx, s, o)
    });
    set_layers(&mut outcome, &samples, &new_ms);
    let req_p50 = median(&runs.iter().map(|r| r.p50_us).collect::<Vec<_>>());
    outcome.set("req_p50_us", req_p50);
    outcome.set(
        "setup_s",
        setup_median(&extra, runs.iter().map(|r| r.setup_s)),
    );
    outcome.set(
        "wire.rtt_us",
        req_p50 - outcome.get("exper.serve.handle_us.p50"),
    );
    outcome.set(
        "wire.closed_p99_us",
        median(&runs.iter().map(|r| r.p99_us).collect::<Vec<_>>()),
    );
    outcome.budgets.push(Budget {
        figure: "req_p50_us",
        parts: vec!["exper.serve.handle_us.p50"],
        nested: vec![
            "exper.serve.parse_us",
            "core.online.arrive_us.p50",
            "exper.serve.session_self_us",
        ],
        residual: "wire.rtt_us: syscalls, wake-ups, flush",
    });
    outcome.budgets.push(Budget {
        figure: "setup_s",
        parts: vec!["core.online.new_ms"],
        nested: vec![],
        residual: "spawn, fleet build, bind",
    });
    Ok(outcome)
}

/// `serve-dense`'s inputs: the live lines, the journal prefix a real
/// session wrote, and the replies an in-process oracle gives.
struct Dense {
    stream: Stream,
    live_from: usize,
    prefix: std::path::PathBuf,
    expected: Vec<String>,
    energy: f64,
}

fn dense_inputs(ctx: &Ctx, outcome: &mut Outcome) -> Result<Dense, String> {
    let stream = stream(
        DENSE_PREFIX + DENSE_LIVE,
        DENSE_INTERARRIVAL,
        DENSE_DURATION,
        Some(DENSE_FAULT_RATE),
        ctx.seed,
    )?;
    // The prefix ends right after the DENSE_PREFIX-th request.
    let live_from = stream
        .sent
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Sent::Req(_)))
        .nth(DENSE_PREFIX - 1)
        .map_or(0, |(i, _)| i + 1);

    // A real journaled session writes the prefix.
    let prefix = ctx.work.join("prefix.esvj");
    let servers = SERVERS.to_string();
    let mut started = start_server(
        ctx,
        &["--servers", &servers, "--force", "--journal", "prefix.esvj"],
    )?;
    let piped = loadgen::pipelined(&mut started.conn, &stream.lines[..live_from]);
    stop_server(started)?;
    tally_replies(
        outcome,
        &stream.sent[..live_from],
        &piped.replies,
        [piped.error],
    );

    // The oracle: a session fed the same lines after the same recovery.
    let rec = journal::recover_file(&prefix).map_err(|e| format!("recovering the prefix: {e}"))?;
    let metrics = MetricsRegistry::new();
    let mut oracle = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
    oracle
        .replay(&rec.records)
        .map_err(|e| format!("replaying the prefix: {e}"))?;
    let expected = stream.lines[live_from..]
        .iter()
        .map(|l| oracle.handle(l).unwrap_or_default())
        .collect();
    let energy = oracle.engine().committed_cost();
    Ok(Dense {
        stream,
        live_from,
        prefix,
        expected,
        energy,
    })
}

/// One `serve-dense` session's measurements.
struct DenseSession {
    setup_s: f64,
    /// Processor time of the server, spawn to exit.
    cpu_s: f64,
    rss_mb: f64,
    open: loadgen::OpenLoop,
    /// p50 and p99 of the closed phase, in µs.
    closed_p50_us: f64,
    closed_p99_us: f64,
    /// Closed-phase replies per second of the server's processor time.
    closed_rps: f64,
    /// Closed-phase replies per second of wall-clock time.
    closed_wall_rps: f64,
}

/// `esvm serve` flags of a `serve-dense` session: resume the journal.
const DENSE_ARGS: [&str; 4] = ["--recover", "dense.esvj", "--journal", "dense.esvj"];
/// Where a traced session writes the program's own counters.
const DENSE_METRICS: &str = "dense-metrics.csv";

/// Puts the journal back to the prefix a real session wrote.
fn restore_journal(ctx: &Ctx, d: &Dense) -> Result<(), String> {
    copy_journal(&d.prefix, &ctx.work.join("dense.esvj")).map(drop)
}

fn dense_session(
    ctx: &Ctx,
    d: &Dense,
    args: &[&str],
    outcome: &mut Outcome,
) -> Result<DenseSession, String> {
    restore_journal(ctx, d)?;
    let mut started = start_server(ctx, args)?;
    let live = &d.stream.lines[d.live_from..];
    let open = loadgen::open_loop(&mut started.conn, &live[..DENSE_OPEN_LINES], DENSE_RATE);
    let cpu_before = started.cpu_s()?;
    let closed = loadgen::closed(&mut started.conn, &live[DENSE_OPEN_LINES..]);
    let closed_cpu = started.cpu_s()? - cpu_before;
    let setup_s = started.setup_s;
    let (rss_mb, cpu_s) = stop_server(started)?;
    outcome.tally(1, 0, []);
    let answered = closed.replies.len() as f64;
    let (closed_rps, closed_wall_rps) =
        (share(answered, closed_cpu), share(answered, closed.seconds));
    let replies: Vec<String> = open.replies.iter().cloned().chain(closed.replies).collect();
    let errors = [open.error.clone(), closed.error];
    tally_replies(outcome, &d.stream.sent[d.live_from..], &replies, errors);
    let mismatched: Vec<String> = replies
        .iter()
        .zip(&d.expected)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(i, (got, want))| format!("live line {i}: got {got:?}, oracle {want:?}"))
        .collect();
    outcome.tally(0, mismatched.len() as u64, mismatched);
    Ok(DenseSession {
        setup_s,
        cpu_s,
        rss_mb,
        open,
        closed_p50_us: percentile(&closed.latency_us, 50.0),
        closed_p99_us: percentile(&closed.latency_us, 99.0),
        closed_rps,
        closed_wall_rps,
    })
}

/// Runs `serve-dense`.
pub fn run_dense(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let d = dense_inputs(ctx, &mut outcome)?;
    if traced {
        return traced_dense(ctx, &d, outcome);
    }
    let extra = setups(ctx, &mut outcome, &DENSE_ARGS, || restore_journal(ctx, &d));
    let runs = sessions(ctx, &mut outcome, |o| {
        dense_session(ctx, &d, &DENSE_ARGS, o)
    });
    let pick = |f: &dyn Fn(&DenseSession) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    outcome.set(
        "setup_s",
        setup_median(&extra, runs.iter().map(|r| r.setup_s)),
    );
    // Processor time leaves out the open loop's idle gaps between lines,
    // which the offered rate sets.
    outcome.set("solve_s", pick(&|r| r.cpu_s));
    // The replies matched the oracle line for line, so its engine holds
    // the program's placements.
    outcome.set("energy_wmin", d.energy);
    // The closed phase's: the open loop's median, from each line's due
    // time, moved two- to sevenfold with the host's load between runs
    // (wake-ups from idle and the queue they build); the traced run
    // splits the open loop into its wait and service.
    outcome.set("req_p50_us", pick(&|r| r.closed_p50_us));
    // Open-loop replies come at the offered rate by construction; the
    // closed phase runs at the server's own pace.
    outcome.set_wall(
        "capacity_rps",
        pick(&|r| r.closed_rps),
        pick(&|r| r.closed_wall_rps),
    );
    outcome.set("peak_rss_mb", pick(&|r| r.rss_mb));
    Ok(outcome)
}

fn copy_journal(from: &Path, to: &Path) -> Result<u64, String> {
    std::fs::copy(from, to).map_err(|e| format!("copying the journal prefix: {e}"))
}

/// A counter from the CSV `esvm serve --metrics-out` writes
/// (`metric,kind,value` rows).
fn serve_counter(csv: &Path, name: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(csv).map_err(|e| format!("reading metrics: {e}"))?;
    text.lines()
        .find_map(|line| match line.split(',').collect::<Vec<_>>()[..] {
            [n, "counter", value] if n == name => value.parse().ok(),
            _ => None,
        })
        .ok_or_else(|| format!("the program's metrics have no counter {name}"))
}

fn traced_dense(ctx: &Ctx, d: &Dense, mut outcome: Outcome) -> Result<Outcome, String> {
    let metrics = MetricsRegistry::new();
    let (mut samples, mut new_ms) = (LayerSamples::default(), Vec::new());
    let (mut recover_s, mut replay_s, mut fsyncs) = (Vec::new(), Vec::new(), Vec::new());
    let live = &d.stream.lines[d.live_from..];
    let traced_args = [
        &DENSE_ARGS[..],
        &["--force", "--metrics-out", DENSE_METRICS],
    ]
    .concat();
    let extra = setups(ctx, &mut outcome, &DENSE_ARGS, || restore_journal(ctx, d));
    let runs = sessions(ctx, &mut outcome, |o| {
        let t = Instant::now();
        let rec =
            journal::recover_file(&d.prefix).map_err(|e| format!("recovering the prefix: {e}"))?;
        recover_s.push(t.elapsed().as_secs_f64());
        time_new(&rec.servers, &mut new_ms);

        // The session as `esvm serve --recover J --journal J` builds it.
        let mut session = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
        let t = Instant::now();
        session
            .replay(&rec.records)
            .map_err(|e| format!("replaying the prefix: {e}"))?;
        replay_s.push(t.elapsed().as_secs_f64());
        let own = ctx.work.join("inproc.esvj");
        copy_journal(&d.prefix, &own)?;
        let writer = JournalWriter::open_append(&own, FSYNC_EVERY as u32)
            .map_err(|e| format!("journal: {e}"))?;
        session.set_journal(Some(writer));

        // The twin engine and journal, in the session's state.
        let mut twin = session.engine().clone();
        let path = ctx.work.join("twin.esvj");
        let start_len = copy_journal(&d.prefix, &path)?;
        let writer =
            JournalWriter::open_append(&path, 0).map_err(|e| format!("twin journal: {e}"))?;
        let twin_journal = TwinJournal {
            writer,
            path,
            start_len,
        };
        in_process_pass(
            &mut session,
            &mut twin,
            Some(twin_journal),
            live,
            Some(&d.expected),
            &mut samples,
        )?;
        let run = dense_session(ctx, d, &traced_args, o)?;
        let csv = ctx.work.join(DENSE_METRICS);
        fsyncs.push(serve_counter(&csv, names::serve::JOURNAL_FSYNCS)?);
        Ok(run)
    });
    set_layers(&mut outcome, &samples, &new_ms);
    // The program's own count: a barrier every `--fsync-every` appends
    // plus the one at the shutdown checkpoint.
    if fsyncs.windows(2).any(|w| w[0] != w[1]) {
        let problem = format!("sessions disagree on the fsync count: {fsyncs:?}");
        outcome.tally(0, 1, [problem]);
    }
    let fsync_count = fsyncs.first().map_or(0.0, |&n| n as f64);
    outcome.set("exper.journal.fsyncs", fsync_count);
    outcome.set("exper.journal.recover_s", median(&recover_s));
    outcome.set("exper.serve.replay_s", median(&replay_s));
    outcome.set(
        "setup_s",
        setup_median(&extra, runs.iter().map(|r| r.setup_s)),
    );
    outcome.set(
        "req_p50_us",
        median(&runs.iter().map(|r| r.closed_p50_us).collect::<Vec<_>>()),
    );
    // Fsync stalls queue many open-loop requests at once, which puts the
    // open loop's p99 on a knife edge; the closed phase gives the tail
    // of one request at a time.
    outcome.set(
        "wire.closed_p99_us",
        median(&runs.iter().map(|r| r.closed_p99_us).collect::<Vec<_>>()),
    );
    let splits: Vec<loadgen::Split> = runs
        .iter()
        .flat_map(|r| loadgen::split(&r.open.due, &r.open.sent, &r.open.replied))
        .collect();
    let us = |f: fn(&loadgen::Split) -> f64| splits.iter().map(|s| f(s) * 1e6).collect::<Vec<_>>();
    let (service, wait, late) = (us(|s| s.service), us(|s| s.wait), us(|s| s.late));
    outcome.set("wire.service_us.p50", median(&service));
    outcome.set("wire.service_us.p99", percentile(&service, 99.0));
    outcome.set("wire.queue_wait_us.p50", median(&wait));
    outcome.set("wire.queue_wait_us.p99", percentile(&wait, 99.0));
    outcome.set("gen.late_max_ms", percentile(&late, 100.0) / 1e3);
    // Behind schedule: a line not yet written when the next one fell due.
    let slot_us = 1e6 / DENSE_RATE;
    let behind = late.iter().filter(|&&l| l > slot_us).count();
    outcome.set("gen.late_share", share(behind as f64, late.len() as f64));

    outcome.budgets.push(Budget {
        figure: "req_p50_us",
        parts: vec!["exper.serve.handle_us.p50"],
        nested: vec![
            "exper.serve.parse_us",
            "core.online.arrive_us.p50",
            "exper.journal.append_us.p50",
            "exper.serve.session_self_us",
        ],
        residual: "syscalls, wake-ups, flush",
    });
    outcome.budgets.push(Budget {
        figure: "setup_s",
        parts: vec![
            "core.online.new_ms",
            "exper.journal.recover_s",
            "exper.serve.replay_s",
        ],
        nested: vec![],
        residual: "spawn, bind",
    });
    Ok(outcome)
}

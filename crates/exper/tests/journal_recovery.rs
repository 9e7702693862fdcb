//! Crash–restart differential suite: a seeded event stream with live
//! faults is killed at a randomized event index, recovered from the
//! write-ahead journal, and resumed. The recovered session must match
//! the uninterrupted run **bit-exactly**: placements, committed cost,
//! and the per-ledger Eq. 7 energy breakdown.

use esvm_chaos::{FaultEvent, FaultPlan, FaultPlanConfig};
use esvm_exper::journal::{recover_bytes, recover_file, JournalWriter};
use esvm_exper::serve::{ServeConfig, ServeSession};
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_simcore::{AllocationProblem, ServerId, Vm};
use esvm_workload::WorkloadConfig;

/// The interleaved event sequence of a live drill: faults with
/// `at ≤ t` fire before the arrival burst at `t`, exactly as
/// `feed_problem_with_faults` orders them — materialised so a run can
/// be split at any index.
enum DrillEvent {
    Fault(FaultEvent),
    Burst(Vec<Vm>),
}

fn drill_events(problem: &AllocationProblem, plan: &FaultPlan) -> Vec<DrillEvent> {
    let vms = problem.vms();
    let order = problem.vms_by_start_time();
    let mut cursor = plan.cursor();
    let mut events = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let start = vms[order[i]].start();
        for f in cursor.take_until(start) {
            events.push(DrillEvent::Fault(*f));
        }
        let mut j = i;
        while j < order.len() && vms[order[j]].start() == start {
            j += 1;
        }
        events.push(DrillEvent::Burst(
            order[i..j].iter().map(|&k| vms[k]).collect(),
        ));
        i = j;
    }
    for f in cursor.rest() {
        events.push(DrillEvent::Fault(*f));
    }
    events
}

fn apply<T: esvm_obs::Tracer>(session: &mut ServeSession<'_, T>, events: &[DrillEvent]) {
    for event in events {
        match event {
            DrillEvent::Fault(FaultEvent::ServerDown { server, .. }) => {
                session.fault_down(*server);
            }
            DrillEvent::Fault(FaultEvent::ServerUp { server, .. }) => {
                session.fault_up(*server);
            }
            DrillEvent::Burst(vms) => {
                session.burst(vms.iter().copied());
            }
        }
    }
}

/// Everything that must survive the crash, captured bit-exactly.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    placements: Vec<Option<ServerId>>,
    committed_bits: u64,
    retired_bits: u64,
    breakdowns: Vec<[u64; 3]>,
    arrivals: u64,
    placed: u64,
    rejected: u64,
    departed: u64,
    evicted: u64,
    repaired: u64,
}

fn fingerprint<T: esvm_obs::Tracer>(session: &ServeSession<'_, T>, ids: usize) -> Fingerprint {
    let engine = session.engine();
    let stats = engine.stats();
    Fingerprint {
        placements: engine.placement(ids),
        committed_bits: engine.committed_cost().to_bits(),
        retired_bits: engine.retired_cost().to_bits(),
        breakdowns: engine
            .ledgers()
            .iter()
            .map(|l| {
                let b = l.energy_breakdown();
                [b.run.to_bits(), b.idle.to_bits(), b.transition.to_bits()]
            })
            .collect(),
        arrivals: stats.arrivals,
        placed: stats.placed,
        rejected: stats.rejected,
        departed: stats.departed,
        evicted: stats.evicted,
        repaired: stats.repaired,
    }
}

/// A tiny deterministic PRNG (splitmix64) for the kill indices, so the
/// suite needs no external randomness source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One crash–restart round: run `events[..kill]` journaled, "crash"
/// (drop the writer without a checkpoint), recover, replay, resume
/// with `events[kill..]`, and compare against the uninterrupted run.
fn crash_restart_matches(
    problem: &AllocationProblem,
    plan: &FaultPlan,
    kill: usize,
    journal_path: &std::path::Path,
) {
    let events = drill_events(problem, plan);
    let kill = kill.min(events.len());
    let config = ServeConfig::default();

    // Uninterrupted reference.
    let metrics_a = MetricsRegistry::new();
    let mut a = ServeSession::new(problem.servers(), &metrics_a, &NoopTracer).with_config(config);
    apply(&mut a, &events);
    let want = fingerprint(&a, problem.vm_count());

    // Interrupted: journal, kill at `kill`, no graceful checkpoint.
    std::fs::remove_file(journal_path).ok();
    let metrics_b = MetricsRegistry::new();
    let mut b = ServeSession::new(problem.servers(), &metrics_b, &NoopTracer).with_config(config);
    b.set_journal(Some(
        JournalWriter::create(journal_path, problem.servers(), 64).unwrap(),
    ));
    apply(&mut b, &events[..kill]);
    drop(b); // the crash: buffered writer dropped, no checkpoint record

    // Recover and resume.
    let rec = recover_file(journal_path).unwrap();
    assert_eq!(rec.servers, problem.servers(), "fleet survives the header");
    let metrics_c = MetricsRegistry::new();
    let mut c = ServeSession::new(&rec.servers, &metrics_c, &NoopTracer).with_config(config);
    c.replay(&rec.records).unwrap();
    apply(&mut c, &events[kill..]);

    let got = fingerprint(&c, problem.vm_count());
    assert_eq!(
        got, want,
        "recovered run diverged (kill index {kill} of {})",
        events.len()
    );
    std::fs::remove_file(journal_path).ok();
}

#[test]
fn crash_restart_is_bit_exact_across_25_seeds() {
    let dir = std::env::temp_dir();
    let mut rng_state = 0xE5A11u64;
    for seed in 0..25u64 {
        let problem = WorkloadConfig::new(160, 24)
            .mean_interarrival(1.0)
            .mean_duration(6.0)
            .generate(seed)
            .expect("feasible workload");
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.1),
            problem.server_count(),
            problem.horizon(),
            seed,
        );
        let events = drill_events(&problem, &plan);
        let kill = (splitmix(&mut rng_state) as usize) % events.len().max(1);
        let path = dir.join(format!("esvj_recovery_{seed}.esvj"));
        crash_restart_matches(&problem, &plan, kill, &path);
    }
}

#[test]
fn crash_restart_is_bit_exact_on_a_10k_event_stream() {
    // ~5000 VMs → ~10k arrival/departure events, one seeded kill point
    // deep in the stream.
    let problem = WorkloadConfig::new(5000, 250)
        .mean_interarrival(0.2)
        .mean_duration(8.0)
        .generate(42)
        .expect("feasible workload");
    let plan = FaultPlan::generate(
        &FaultPlanConfig::with_fault_rate(0.1),
        problem.server_count(),
        problem.horizon(),
        42,
    );
    let events = drill_events(&problem, &plan);
    let mut rng_state = 0x10_000u64;
    let kill = (splitmix(&mut rng_state) as usize) % events.len();
    let path = std::env::temp_dir().join("esvj_recovery_10k.esvj");
    crash_restart_matches(&problem, &plan, kill, &path);
}

#[test]
fn torn_tail_recovery_is_a_prefix_and_resumable() {
    // Crash *mid-write*: chop bytes off the journal tail and recover.
    // The recovered state must replay cleanly (a valid event prefix),
    // and resuming the same file must leave it recoverable again.
    let problem = WorkloadConfig::new(120, 16)
        .mean_interarrival(1.0)
        .generate(7)
        .expect("feasible workload");
    let plan = FaultPlan::generate(
        &FaultPlanConfig::with_fault_rate(0.2),
        problem.server_count(),
        problem.horizon(),
        7,
    );
    let events = drill_events(&problem, &plan);
    let path = std::env::temp_dir().join("esvj_recovery_torn.esvj");
    std::fs::remove_file(&path).ok();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(problem.servers(), &metrics, &NoopTracer);
    session.set_journal(Some(
        JournalWriter::create(&path, problem.servers(), 0).unwrap(),
    ));
    apply(&mut session, &events);
    drop(session);

    let bytes = std::fs::read(&path).unwrap();
    let full = recover_bytes(&bytes).unwrap();
    let mut rng_state = 0x70541u64;
    for _ in 0..32 {
        let cut = (splitmix(&mut rng_state) as usize) % bytes.len().max(1);
        let rec = match recover_bytes(&bytes[..cut]) {
            Ok(rec) => rec,
            Err(_) => continue, // header cut: typed error, nothing to replay
        };
        assert_eq!(rec.records[..], full.records[..rec.records.len()]);
        let m = MetricsRegistry::new();
        let mut s = ServeSession::new(&rec.servers, &m, &NoopTracer);
        s.replay(&rec.records).expect("a record prefix replays cleanly");
        // The resumed session keeps working after recovery.
        assert!(s.engine().committed_cost().is_finite());
    }
    std::fs::remove_file(&path).ok();
}

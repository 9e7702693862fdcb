//! Crash–restart differential suite: a seeded event stream with live
//! faults is killed at a randomized event index, recovered from the
//! decision journal, and resumed. The recovered session must match
//! the uninterrupted run **bit-exactly**: placements, committed cost,
//! and the per-ledger Eq. 7 energy breakdown. Recovery hosts the
//! recorded decisions; deciding the recorded events again must give
//! the same decisions, and a journal of decisions the argmin would not
//! make recovers to those decisions.

use esvm_chaos::{FaultEvent, FaultPlan, FaultPlanConfig};
use esvm_core::OnlineEngine;
use esvm_exper::journal::{recover_bytes, recover_file, Answer, JournalRecord, JournalWriter};
use esvm_exper::serve::{ServeConfig, ServeSession};
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_simcore::{AllocationProblem, Interval, PowerModel, Resources, ServerId, ServerSpec, Vm};
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

#[test]
fn a_journal_of_placements_the_argmin_would_not_choose_recovers_to_them() {
    let servers: Vec<ServerSpec> = (0..4u32)
        .map(|i| {
            ServerSpec::new(
                i,
                Resources::new(8.0, 16.0),
                PowerModel::new(100.0, 200.0),
                120.0,
            )
        })
        .collect();
    let vm = |id, start, end| Vm::new(id, Resources::new(2.0, 2.0), Interval::new(start, end));
    // Feasible, but MIEC would stack all three on server 0.
    let decided = [
        (vm(0, 1, 10), Answer::Placed(ServerId(3))),
        (vm(1, 2, 12), Answer::Placed(ServerId(1))),
        (vm(2, 3, 8), Answer::Placed(ServerId(3))),
        (vm(3, 4, 9), Answer::Rejected),
    ];
    let path = std::env::temp_dir().join(format!("esvj_chosen_{}.esvj", std::process::id()));
    let mut w = JournalWriter::create(&path, &servers, 0).unwrap();
    for (v, answer) in decided {
        w.append(&JournalRecord::Arrival(v, answer)).unwrap();
    }
    w.sync().unwrap();
    drop(w);

    let rec = recover_file(&path).unwrap();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
    let report = session.replay(&rec.records).unwrap();
    assert_eq!(report.requests, 4);
    let recorded = [
        Some(ServerId(3)),
        Some(ServerId(1)),
        Some(ServerId(3)),
        None,
    ];
    assert_eq!(session.engine().placement(4), recorded);
    let stats = session.engine().stats();
    assert_eq!((stats.placed, stats.rejected), (3, 1));
    // The energy is that of the recorded pieces on their servers.
    let mut ledgers: Vec<_> = servers
        .iter()
        .map(|s| esvm_simcore::ServerLedger::new(*s))
        .collect();
    for (v, answer) in &decided[..3] {
        let Answer::Placed(s) = answer else {
            unreachable!()
        };
        ledgers[s.index()].host(v);
    }
    let want: f64 = ledgers.iter().map(|l| l.cost()).sum();
    let got = session.engine().committed_cost();
    assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");

    // A recovery that decided again would reach other placements.
    let mut redecided = OnlineEngine::new(&rec.servers);
    for (v, _) in decided {
        redecided.arrive(v).unwrap();
    }
    assert_ne!(redecided.placement(4), recorded);
    std::fs::remove_file(&path).ok();
}

#[test]
fn deciding_a_faulted_sessions_events_again_reproduces_its_records() {
    let mut repairs = 0;
    let mut refusals = 0;
    for seed in 0..6u64 {
        let problem = WorkloadConfig::new(160, 24)
            .mean_interarrival(1.0)
            .mean_duration(6.0)
            .generate(seed)
            .expect("feasible workload");
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.3),
            problem.server_count(),
            problem.horizon(),
            seed,
        );
        let path =
            std::env::temp_dir().join(format!("esvj_redecide_{seed}_{}.esvj", std::process::id()));
        let metrics = MetricsRegistry::new();
        let mut session =
            ServeSession::new(problem.servers(), &metrics, &NoopTracer).with_config(ServeConfig {
                queue_cap: 3,
                ..ServeConfig::default()
            });
        session.set_journal(Some(
            JournalWriter::create(&path, problem.servers(), 0).unwrap(),
        ));
        apply(&mut session, &drill_events(&problem, &plan));
        // An arrival from the past and a duplicate id are refused, and
        // journaled as refused.
        let clock = session.engine().clock();
        session.handle(&format!("REQ 100000 {} 3 1.0 1.0", clock.saturating_sub(1)));
        session.handle(&format!("REQ 0 {clock} 3 1.0 1.0"));
        session.finish().unwrap();
        let rec = recover_file(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut engine = OnlineEngine::new(&rec.servers);
        let mut records = rec.records.iter().enumerate();
        while let Some((i, record)) = records.next() {
            let ctx = format!("seed {seed}, record {i}: {record:?}");
            match record {
                JournalRecord::Arrival(vm, answer) => {
                    let arrival = engine.arrive(*vm);
                    assert_eq!(Answer::of(&arrival), Some(*answer), "{ctx}");
                    refusals += u64::from(arrival.is_err());
                }
                JournalRecord::Down {
                    server,
                    retries,
                    backoff,
                } => {
                    for victim in engine.set_down(*server).unwrap() {
                        let Some((_, JournalRecord::Repair(id, outcome))) = records.next() else {
                            panic!("{ctx}: a repair of {} is missing", victim.id());
                        };
                        assert_eq!(*id, victim.id(), "{ctx}");
                        assert_eq!(engine.repair(victim, *retries, *backoff), *outcome, "{ctx}");
                        repairs += 1;
                    }
                }
                JournalRecord::Up(server) => engine.set_up(*server).unwrap(),
                JournalRecord::Drain => {
                    engine.drain();
                }
                JournalRecord::Shed(_) => {}
                JournalRecord::Checkpoint(c) => {
                    assert_eq!(
                        c.committed_cost_bits,
                        engine.committed_cost().to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(c.placed, engine.stats().placed, "{ctx}");
                }
                other => panic!("{ctx}: a session never writes {other:?}"),
            }
        }
    }
    assert!(repairs > 0, "no repair was decided again");
    assert_eq!(refusals, 12, "two refusals per seed");
}

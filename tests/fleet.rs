//! The fleet under both fault paths.
//!
//! The chaos replay and the online engine keep their ledgers, candidate
//! index, evictions and outage surcharge in one `Fleet`, so a fault is
//! priced the same way on both:
//!
//! * one server hosts a VM on [1, 5], goes down at 7 and up at 9, then
//!   hosts a VM on [12, 15]. The gap [6, 11] idles (`P_idle` 100 over 6
//!   units beats `α` 5000), but the server was off for two of those
//!   units and had to switch back on: both engines report one extra
//!   transition worth `α − 2 · P_idle` = 4800 next to the unchanged
//!   Eq. 7 cost 6725. With the second VM on [56, 59] the gap is `g*` =
//!   50 units, which costs `α` either way: the server is cold (the
//!   online engine has sealed it) and neither engine adds anything;
//! * every repair decision of either engine is an argmin over the
//!   candidate index whose tallies account for every up server:
//!   `candidates + unfit + floored + pruned` = up servers at that
//!   instant;
//! * under random fleet histories (hosts at the clock and after it,
//!   stops, outages with eviction, demotions or seals at an advancing
//!   clock) every `Fleet::scan` decides as a scan of every up server,
//!   so the run-cost floor's guard against a later-starting tail and
//!   the fit rows' stale marks are checked on every scan; some scans
//!   price a piece of another length than the one they fit, as
//!   `miec-blind` does.

use std::collections::BTreeSet;

use esvm::core::{FaultTransitions, Fleet};
use esvm::obs::{CollectingTracer, DecisionKind, ExplainRecord, MetricsRegistry};
use esvm::{
    event_order, AllocatorKind, ChaosEngine, FaultCause, FaultEvent, FaultPlan, FaultPlanConfig,
    Interval, Miec, OnlineDecision, OnlineEngine, PowerModel, ProblemBuilder, Resources, ServerId,
    ServerSpec, Vm, VmId, WorkloadConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The one-server case: a VM on [1, 5], down at 7, up at 9, then a VM
/// on `second`, on the chaos replay and on the online engine. Returns
/// each engine's Eq. 7 cost and forced transitions.
fn one_server_outage(second: Interval) -> [(&'static str, f64, FaultTransitions); 2] {
    let problem = ProblemBuilder::new()
        .server(
            Resources::new(8.0, 16.0),
            PowerModel::new(100.0, 200.0),
            5000.0,
        )
        .vm(Resources::new(2.0, 2.0), Interval::new(1, 5))
        .vm(Resources::new(2.0, 2.0), second)
        .build()
        .expect("valid problem");
    let s0 = ServerId(0);
    let mut plan = FaultPlan::empty();
    plan.push_event(FaultEvent::ServerDown {
        server: s0,
        at: 7,
        cause: FaultCause::Crash,
    });
    plan.push_event(FaultEvent::ServerUp { server: s0, at: 9 });

    let replay = ChaosEngine::new(plan)
        .run(&problem, &Miec::new(), &mut StdRng::seed_from_u64(0))
        .expect("replay");
    assert_eq!(replay.placement, vec![Some(s0), Some(s0)]);
    let replay_faults = FaultTransitions {
        count: replay.extra_transitions,
        energy: replay.fault_transition_energy,
    };

    let mut online = OnlineEngine::new(problem.servers());
    let vms = problem.vms();
    assert_eq!(online.arrive(vms[0]), Ok(OnlineDecision::Placed(s0)));
    online.advance_to(7);
    assert!(online.set_down(s0).expect("known server").is_empty());
    online.advance_to(9);
    online.set_up(s0).expect("known server");
    assert_eq!(online.arrive(vms[1]), Ok(OnlineDecision::Placed(s0)));
    [
        ("replay", replay.cost, replay_faults),
        ("online", online.committed_cost(), online.fault_transitions()),
    ]
}

/// Asserts that both engines report `cost` bit for bit and `faults`.
fn check_both(second: Interval, cost: f64, faults: FaultTransitions) {
    for (engine, got_cost, got_faults) in one_server_outage(second) {
        assert_eq!(got_cost.to_bits(), cost.to_bits(), "{engine}: {got_cost}");
        assert_eq!(got_faults.count, faults.count, "{engine}: forced switch-ons");
        assert_eq!(
            got_faults.energy.to_bits(),
            faults.energy.to_bits(),
            "{engine}: {}",
            got_faults.energy
        );
    }
}

#[test]
fn an_outage_inside_a_kept_on_gap_forces_one_switch_on_on_both_engines() {
    let forced = FaultTransitions {
        count: 1,
        energy: 4800.0,
    };
    check_both(Interval::new(12, 15), 6725.0, forced);
}

#[test]
fn an_outage_inside_a_break_even_gap_forces_none_on_both_engines() {
    // Idling through [6, 55] costs 100 · 50 = α: priced α either way.
    check_both(
        Interval::new(56, 59),
        125.0 + 100.0 + 900.0 + 5000.0 + 5000.0,
        FaultTransitions::default(),
    );
}

/// Asserts that a repair record's tallies account for `up` servers.
fn check_tallies(r: &ExplainRecord, up: usize, ctx: &str) {
    assert_eq!(r.kind, DecisionKind::Repair, "{ctx}");
    assert!(r.candidates >= 1, "{ctx}: a repair scores its winner");
    assert_eq!(
        (r.candidates + r.unfit + r.floored + r.pruned) as usize,
        up,
        "{ctx}: candidates {} + unfit {} + floored {} + pruned {} vs up servers",
        r.candidates,
        r.unfit,
        r.floored,
        r.pruned
    );
}

#[test]
fn chaos_repairs_account_for_every_up_server() {
    let config = WorkloadConfig::new(40, 10)
        .mean_interarrival(0.8)
        .mean_duration(10.0);
    let mut repairs = 0;
    for seed in 0..6u64 {
        let problem = config.generate(seed).expect("generation is feasible");
        let n = problem.server_count();
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.6),
            n,
            problem.horizon(),
            seed,
        );
        // Down servers after every plan event at or before `t`: the
        // replay applies the instant's events before any repair.
        let down_at = |t: u64| {
            let mut down = BTreeSet::new();
            for event in plan.events().iter().take_while(|e| u64::from(e.at()) <= t) {
                match event {
                    FaultEvent::ServerDown { server, .. } => down.insert(*server),
                    FaultEvent::ServerUp { server, .. } => down.remove(server),
                };
            }
            down.len()
        };
        for kind in [
            AllocatorKind::Miec,
            AllocatorKind::Ffps,
            AllocatorKind::RoundRobin,
        ] {
            let tracer = CollectingTracer::new();
            let report = ChaosEngine::new(plan.clone()).run_traced(
                &problem,
                &*kind.build(),
                &mut StdRng::seed_from_u64(seed),
                &MetricsRegistry::new(),
                &tracer,
            );
            let Ok(report) = report else { continue };
            let records: Vec<_> = tracer
                .explains()
                .into_iter()
                .map(|e| e.record)
                .filter(|r| r.kind == DecisionKind::Repair)
                .collect();
            assert_eq!(records.len(), report.repairs.len());
            for r in records {
                let t = r.time.expect("repairs carry their instant");
                let ctx = format!("{} seed {seed} vm {} at {t}", kind.name(), r.vm);
                check_tallies(&r, n - down_at(t), &ctx);
                repairs += 1;
            }
        }
    }
    assert!(
        repairs > 50,
        "only {repairs} repairs: the check is not exercised"
    );
}

#[test]
fn online_repairs_account_for_every_up_server() {
    let config = WorkloadConfig::new(40, 10)
        .mean_interarrival(0.8)
        .mean_duration(10.0);
    let mut repairs = 0;
    for seed in 0..6u64 {
        let problem = config.generate(seed).expect("generation is feasible");
        let n = problem.server_count();
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.6),
            n,
            problem.horizon(),
            seed,
        );
        let mut engine = OnlineEngine::new(problem.servers());
        let mut down: BTreeSet<ServerId> = BTreeSet::new();
        let mut faults = plan.events().iter().peekable();
        let tracer = CollectingTracer::new();
        let mut seen = 0;
        for event in event_order(problem.vms()) {
            while let Some(fault) = faults.next_if(|f| f.at() <= event.at()) {
                match fault {
                    FaultEvent::ServerDown { server, .. } => {
                        down.insert(*server);
                        for vm in engine.set_down(*server).expect("known server") {
                            engine.repair_traced(vm, 3, 2, &tracer);
                        }
                    }
                    FaultEvent::ServerUp { server, .. } => {
                        down.remove(server);
                        engine.set_up(*server).expect("known server");
                    }
                }
                // Every repair of this fault ran with `down` down.
                let explains = tracer.explains();
                for e in &explains[seen..] {
                    let r = &e.record;
                    if r.kind == DecisionKind::Shed {
                        continue;
                    }
                    let ctx = format!("seed {seed} vm {} at clock {}", r.vm, engine.clock());
                    check_tallies(r, n - down.len(), &ctx);
                    repairs += 1;
                }
                seen = explains.len();
            }
            engine.apply(event).expect("in-order stream");
        }
    }
    assert!(
        repairs > 20,
        "only {repairs} repairs: the check is not exercised"
    );
}

/// Three spec classes: `P¹` 12.5, 11.69 and 9.46 W/CU, with `g*` 50,
/// 30 and 30, so short gaps idle and fractional run costs round when
/// the idle energy is added.
fn class_spec(id: u32, class: usize) -> ServerSpec {
    let (cpu, mem, idle, peak, alpha) = [
        (8.0, 16.0, 100.0, 200.0, 5000.0),
        (6.5, 17.1, 86.0, 162.0, 2580.0),
        (13.0, 34.2, 151.0, 274.0, 4530.0),
    ][class];
    ServerSpec::new(
        id,
        Resources::new(cpu, mem),
        PowerModel::new(idle, peak),
        alpha,
    )
}

/// A piece of `vm` on `[start, start + len − 1]` with a fractional demand.
fn random_piece(rng: &mut StdRng, vm: u32, start: u32) -> Vm {
    let len = rng.gen_range(1u32..=8);
    let demand = Resources::new(rng.gen_range(0.1..4.0), rng.gen_range(0.1..8.0));
    Vm::new(vm, demand, Interval::new(start, start + len - 1))
}

/// The Eq. 7 argmin of `piece` by a scan of every up server: `fits`
/// for `piece`, then `incremental_cost` of `priced`, ascending id,
/// strict `<`.
fn full_scan(fleet: &Fleet, piece: &Vm, priced: &Vm) -> Option<(u64, u32)> {
    let mut best: Option<(f64, u32)> = None;
    for (i, ledger) in fleet.ledgers().iter().enumerate() {
        if fleet.index().is_down(ServerId(i as u32)) || !ledger.fits(piece) {
            continue;
        }
        let delta = ledger.incremental_cost(priced);
        if best.is_none_or(|(cost, _)| delta < cost) {
            best = Some((delta, i as u32));
        }
    }
    best.map(|(delta, i)| (delta.to_bits(), i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A fleet of 4–8 servers in two or three spec classes driven
    /// through random steps; after each, scans of random pieces that
    /// start at or after the clock pick the full scan's winner with its
    /// delta bits, and their tallies account for every up server. Some
    /// scans price a piece of another length than the one they fit, as
    /// `miec-blind` does.
    #[test]
    fn every_scan_decides_as_a_scan_of_every_up_server(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4u32..=8);
        let classes = rng.gen_range(2usize..=3);
        let specs: Vec<ServerSpec> = (0..n)
            .map(|i| class_spec(i, rng.gen_range(0..classes)))
            .collect();
        let seals = rng.gen_bool(0.5);
        let mut fleet = Fleet::new(&specs);
        let (mut clock, mut retired, mut next_vm) = (0u32, 0.0, 0u32);
        // Hosted pieces a step may try to stop.
        let mut hosted: Vec<(ServerId, VmId)> = Vec::new();
        for step in 0..40 {
            let server = ServerId(rng.gen_range(0..n));
            match rng.gen_range(0u32..10) {
                // Host at the clock, or as a backoff-delayed tail after it.
                0..=4 => {
                    let delay = if rng.gen_bool(0.3) { rng.gen_range(1u32..=12) } else { 0 };
                    let piece = random_piece(&mut rng, next_vm, clock + delay);
                    next_vm += 1;
                    let up = !fleet.index().is_down(server);
                    if up && fleet.ledgers()[server.index()].fits(&piece) {
                        fleet.host(server, piece, clock);
                        hosted.push((server, piece.id()));
                    }
                }
                5 | 6 => {
                    if !hosted.is_empty() {
                        let (s, vm) = hosted.swap_remove(rng.gen_range(0..hosted.len()));
                        fleet.stop(s, vm, clock);
                    }
                }
                7 => {
                    if fleet.set_down(server, clock) {
                        fleet.evict(server, clock, Vm::id);
                    } else {
                        fleet.set_up(server, clock);
                    }
                }
                _ => {
                    clock += rng.gen_range(0u32..=20);
                    if seals {
                        fleet.seal(clock, &mut retired);
                    } else {
                        fleet.demote(clock);
                    }
                }
            }
            let up = (0..n).filter(|&i| !fleet.index().is_down(ServerId(i))).count() as u64;
            for _ in 0..3 {
                let start = clock + rng.gen_range(0u32..=12);
                let piece = random_piece(&mut rng, next_vm, start);
                let priced = if rng.gen_bool(0.3) {
                    let len = rng.gen_range(1u32..=8);
                    Vm::new(piece.id(), piece.demand(), Interval::with_len(start, len))
                } else {
                    piece
                };
                let scan = fleet.scan(&piece, &priced, true);
                let best = scan.best.map(|(delta, i)| (delta.to_bits(), i));
                prop_assert_eq!(
                    best,
                    full_scan(&fleet, &piece, &priced),
                    "seed {} step {} {:?} priced as {:?}",
                    seed,
                    step,
                    piece,
                    priced
                );
                prop_assert_eq!(
                    scan.candidates + scan.unfit + scan.floored + fleet.index().pruned(),
                    up,
                    "seed {} step {}: tallies",
                    seed,
                    step
                );
            }
        }
    }
}

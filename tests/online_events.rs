//! Property tests for the online event engine.
//!
//! Arbitrary interleavings of arrivals, departures and fault events
//! must uphold the serving invariants:
//!
//! * an id is placed at most once, and a duplicate arrival is a typed
//!   error, not a second placement;
//! * a VM is never placed on a server that is down at decision time;
//! * every ledger's Eq. 7 decomposition stays consistent with its
//!   cost after *every* event, and the committed cost equals an
//!   independent Eq. 7 audit of the piece schedule the test drove:
//!   each placed piece, stopped at its eviction or drain clock, plus
//!   each repaired tail; and the fault transition energy equals the
//!   audited surcharge of the outages the test drove;
//! * out-of-order arrivals and unknown departures are typed errors
//!   that leave the engine usable;
//! * the candidate index partitions the fleet into active (up, holding
//!   unsealed pieces), per-class standby (up, sealed or never used) and
//!   down servers after every event;
//! * every arrival and every repair attempt lands where a scan of every
//!   up server puts it — `fits`, then `incremental_cost`, ascending id,
//!   strict `<` — with no candidate index and no run-cost floor, so the
//!   floor's guard against later-starting repair tails is checked on
//!   every decision;
//! * seeded early departures and a mid-stream drain stop pieces on up
//!   servers: a VM departs exactly when the audit still runs a piece of
//!   it, and every later decision still matches the full scan, so a fit
//!   row a stop leaves stale would show.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use esvm::core::{repair_delay, RepairOutcome};
use esvm::{
    event_order, FaultEvent, FaultPlan, FaultPlanConfig, Interval, OnlineDecision, OnlineEngine,
    OnlineError, Resources, ServerId, Vm, VmEvent, VmId, WorkloadConfig,
};
use proptest::prelude::*;

#[path = "support/pieces.rs"]
mod pieces;
use pieces::Pieces;

/// The Eq. 7 argmin of `piece` by a scan of every up server: `fits`,
/// then `incremental_cost`, ascending id, strict `<`.
fn full_scan(engine: &OnlineEngine, piece: &Vm) -> Option<ServerId> {
    let mut best: Option<(f64, ServerId)> = None;
    for (i, ledger) in engine.ledgers().iter().enumerate() {
        let server = ServerId(i as u32);
        if engine.is_down(server) || !ledger.fits(piece) {
            continue;
        }
        let delta = ledger.incremental_cost(piece);
        if best.is_none_or(|(cost, _)| delta < cost) {
            best = Some((delta, server));
        }
    }
    best.map(|(_, server)| server)
}

/// What `repair(vm, retries, backoff)` should do: the first restart of
/// its backoff schedule at which the full scan finds a server.
fn full_scan_repair(engine: &OnlineEngine, vm: &Vm, retries: u32, backoff: u32) -> RepairOutcome {
    let mut start = vm.start().max(engine.clock());
    for attempt in 0..=retries {
        if attempt > 0 {
            start = start.saturating_add(repair_delay(backoff, attempt));
        }
        if start > vm.end() {
            break;
        }
        let tail = Vm::new(vm.id().0, vm.demand(), Interval::new(start, vm.end()));
        if let Some(server) = full_scan(engine, &tail) {
            return RepairOutcome::Rehosted {
                server,
                start,
                attempt,
            };
        }
    }
    RepairOutcome::Shed
}

/// Asserts that the engine's committed cost and fault transition energy
/// are the piece schedule's audited energy and outage surcharge.
fn check_audit(engine: &OnlineEngine, pieces: &Pieces, ctx: &str) {
    pieces.check(engine.committed_cost(), engine.fault_transitions(), ctx);
}

/// Asserts the per-ledger Eq. 7 decomposition and that the committed
/// cost is the retired energy plus the open ledgers after an event.
fn check_energy(engine: &OnlineEngine, ctx: &str) {
    let mut live_total = 0.0;
    for (i, ledger) in engine.ledgers().iter().enumerate() {
        let cost = ledger.cost();
        let breakdown = ledger.energy_breakdown().total();
        assert!(
            (cost - breakdown).abs() <= 1e-6 * cost.abs().max(1.0),
            "{ctx}: server {i} cost {cost} vs breakdown {breakdown}"
        );
        live_total += cost;
    }
    let committed = engine.committed_cost();
    let recomputed = engine.retired_cost() + live_total;
    assert!(
        (committed - recomputed).abs() <= 1e-6 * committed.abs().max(1.0),
        "{ctx}: committed {committed} vs retired+live {recomputed}"
    );
    assert!(committed.is_finite() && committed >= -1e-9, "{ctx}: {committed}");
}

/// Asserts that the candidate index partitions the fleet: every server
/// is exactly one of active (up, holding unsealed pieces), standby in
/// its own class (up, sealed or never used) or down, and the running
/// `pruned` count matches.
fn check_index(engine: &OnlineEngine, ctx: &str) {
    let index = engine.candidate_index();
    let ledgers = engine.ledgers();
    assert_eq!(index.len(), ledgers.len(), "{ctx}: fleet size");
    let mut seen = vec![0u32; ledgers.len()];
    for s in index.active() {
        seen[s.index()] += 1;
        assert!(ledgers[s.index()].hosted_count() > 0, "{ctx}: idle {s} active");
        assert!(!engine.is_down(s), "{ctx}: down {s} active");
    }
    let mut pruned = 0;
    for class in 0..index.class_count() {
        let members: Vec<ServerId> = index.standby(class).collect();
        assert!(members.windows(2).all(|w| w[0] < w[1]), "{ctx}: class {class} order");
        pruned += members.len().saturating_sub(1) as u64;
        for s in members {
            seen[s.index()] += 1;
            assert_eq!(index.class_of(s), class, "{ctx}: {s} in a foreign class");
            assert_eq!(ledgers[s.index()].hosted_count(), 0, "{ctx}: busy {s} on standby");
            assert!(!engine.is_down(s), "{ctx}: down {s} on standby");
        }
    }
    for (i, &n) in seen.iter().enumerate() {
        let s = ServerId(i as u32);
        let down = u32::from(engine.is_down(s));
        assert_eq!(n + down, 1, "{ctx}: {s} is in {n} sets, down={down}");
        let (up, hosting) = (down == 0, ledgers[i].hosted_count() > 0);
        assert_eq!(
            (index.is_active(s), index.is_standby(s), index.is_down(s)),
            (up && hosting, up && !hosting, !up),
            "{ctx}: {s} membership flags"
        );
    }
    assert_eq!(index.pruned(), pruned, "{ctx}: pruned count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The main interleaving property: a seeded workload's event
    /// stream, spliced with a seeded fault plan, never violates the
    /// placement or energy invariants.
    #[test]
    fn interleavings_uphold_the_serving_invariants(
        seed in 0u64..200,
        fault_seed in 0u64..200,
        fault_rate in 0.0f64..0.9,
        stop_seed in 0u64..200,
    ) {
        let problem = WorkloadConfig::new(24, 6)
            .mean_interarrival(2.0)
            .generate(seed)
            .expect("generation is feasible");
        let horizon = problem.stats().horizon;
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(fault_rate),
            problem.server_count(),
            horizon,
            fault_seed,
        );

        let mut engine = OnlineEngine::new(problem.servers());
        let mut pieces = Pieces::new(problem.servers());
        let mut faults = plan.events().iter().peekable();
        let mut down: HashSet<u32> = HashSet::new();
        let mut placed_ids: HashSet<VmId> = HashSet::new();
        // Early departures and the mid-stream drain.
        let mut stops = StdRng::seed_from_u64(stop_seed);
        let mut placed_order: Vec<VmId> = Vec::new();
        let events = event_order(problem.vms());
        let drain_at = stops.gen_range(0..events.len());

        for (n, event) in events.into_iter().enumerate() {
            // Faults strike as soon as the clock would reach them.
            while let Some(f) = faults.peek() {
                if f.at() > event.at() {
                    break;
                }
                match f {
                    FaultEvent::ServerDown { server, .. } => {
                        let evicted = engine.set_down(*server).expect("known server");
                        down.insert(server.0);
                        let stopped = pieces.down(*server, engine.clock());
                        let ids: Vec<VmId> = evicted.iter().map(|vm| vm.id()).collect();
                        prop_assert_eq!(&ids, &stopped, "evicted VMs are the running pieces");
                        for vm in &evicted {
                            // Evicted ids stay consumed: irrevocability.
                            prop_assert!(placed_ids.contains(&vm.id()));
                            let expected = full_scan_repair(&engine, vm, 3, 2);
                            let outcome = engine.repair(*vm, 3, 2);
                            prop_assert_eq!(outcome, expected, "repair of {:?}", vm.id());
                            if let RepairOutcome::Rehosted { server, start, .. } = outcome {
                                prop_assert!(!down.contains(&server.0), "repaired onto a down server");
                                let tail = Interval::new(start, vm.end());
                                pieces.place(server, &Vm::new(vm.id().0, vm.demand(), tail));
                            }
                            check_audit(&engine, &pieces, "after repair");
                        }
                    }
                    FaultEvent::ServerUp { server, .. } => {
                        engine.set_up(*server).expect("known server");
                        down.remove(&server.0);
                        pieces.up(*server, engine.clock());
                    }
                }
                check_energy(&engine, "after fault");
                check_index(&engine, "after fault");
                check_audit(&engine, &pieces, "after fault");
                faults.next();
            }

            let arrival = match event {
                VmEvent::Arrive(vm) => Some(vm),
                _ => None,
            };
            // The arrival fires departures and seals up to its start
            // before it decides; advancing first lets the full scan see
            // the state the engine decides on.
            let expected = arrival.map(|vm| {
                engine.advance_to(vm.start());
                full_scan(&engine, &vm).map_or(OnlineDecision::Rejected, OnlineDecision::Placed)
            });
            let vm_id = event.vm();
            match engine.apply(event) {
                Ok(Some(decision)) => {
                    prop_assert_eq!(Some(decision), expected, "arrival of {:?}", vm_id);
                    if let Some(server) = decision.server() {
                        prop_assert!(
                            !down.contains(&server.0),
                            "placed on down server {server:?}"
                        );
                        prop_assert!(
                            !engine.is_down(server),
                            "engine disagrees on down state"
                        );
                        prop_assert!(
                            placed_ids.insert(vm_id),
                            "id {vm_id:?} placed twice"
                        );
                        pieces.place(server, &arrival.expect("a decision answers an arrival"));
                        placed_order.push(vm_id);
                    }
                }
                Ok(None) => {}
                Err(e) => prop_assert!(
                    false,
                    "in-order stream event must be accepted: {e}"
                ),
            }
            check_energy(&engine, "after event");
            check_index(&engine, "after event");
            check_audit(&engine, &pieces, "after event");

            // An early departure of a placed VM at the clock: its piece
            // stops on an up server, which keeps what ran before.
            if !placed_order.is_empty() && stops.gen_bool(0.4) {
                let vm = placed_order[stops.gen_range(0..placed_order.len())];
                let clock = engine.clock();
                let departed = engine.depart(vm).is_ok();
                prop_assert_eq!(departed, pieces.depart(vm, clock), "early departure of {:?}", vm);
                check_energy(&engine, "after departure");
                check_index(&engine, "after departure");
                check_audit(&engine, &pieces, "after departure");
            }
            if n == drain_at {
                let clock = engine.clock();
                prop_assert_eq!(engine.drain(), pieces.stop(None, clock).len());
                check_energy(&engine, "after mid-stream drain");
                check_index(&engine, "after mid-stream drain");
                check_audit(&engine, &pieces, "after mid-stream drain");
            }
        }

        // Each id appears at most once in the decision log.
        let placements = engine.placement(problem.vm_count());
        let placed: Vec<_> = placements.iter().filter(|s| s.is_some()).collect();
        prop_assert_eq!(placed.len() as u64, engine.stats().placed);
        prop_assert!(engine.stats().placed + engine.stats().rejected
            == engine.stats().arrivals);

        // Drain the survivors: each running piece stops at the clock.
        let clock = engine.clock();
        let drained = engine.drain();
        prop_assert_eq!(drained, pieces.stop(None, clock).len());
        prop_assert_eq!(engine.live_count(), 0);
        check_energy(&engine, "after drain");
        check_index(&engine, "after drain");
        check_audit(&engine, &pieces, "after drain");
    }

    /// Duplicate ids, out-of-order starts and unknown departures are
    /// typed errors and never corrupt the session.
    #[test]
    fn protocol_violations_are_typed_errors(seed in 0u64..100) {
        let problem = WorkloadConfig::new(12, 4)
            .mean_interarrival(2.0)
            .generate(seed)
            .expect("generation is feasible");
        let mut engine = OnlineEngine::new(problem.servers());

        let vms = problem.vms();
        let mut order = problem.vms_by_start_time();
        order.sort_by_key(|&i| (vms[i].start(), vms[i].id()));
        let first = vms[order[0]].clone();
        engine.arrive(first.clone()).expect("first arrival");

        // Duplicate id — even with different demand.
        let dup = Vm::new(first.id(), Resources::new(1.0, 1.0), first.interval());
        prop_assert!(matches!(
            engine.arrive(dup),
            Err(OnlineError::DuplicateVm(id)) if id == first.id()
        ));

        // Advance the clock past the first start, then present an
        // arrival from the past.
        let late = order
            .iter()
            .map(|&i| &vms[i])
            .find(|v| v.start() > first.start());
        if let Some(late) = late {
            engine.arrive(late.clone()).expect("in-order arrival");
            let stale = Vm::new(
                9_000u32,
                Resources::new(1.0, 1.0),
                Interval::new(first.start(), late.start()),
            );
            let verdict = engine.arrive(stale);
            prop_assert!(
                matches!(verdict, Err(OnlineError::OutOfOrder { .. })),
                "stale arrival must be rejected, got {verdict:?}"
            );
        }

        // Departing a never-seen id is a typed error.
        prop_assert!(matches!(
            engine.depart(VmId(60_000)),
            Err(OnlineError::UnknownVm(VmId(60_000)))
        ));

        // The session survives all of the above.
        let stats = engine.stats();
        prop_assert!(stats.arrivals >= 1);
        check_energy(&engine, "after violations");
    }
}

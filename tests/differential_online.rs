//! Differential harness: the online engine against MIEC and against
//! itself.
//!
//! Every test feeds a problem's canonical event stream
//! ([`event_order`]: arrivals with their departures interleaved) through
//! an [`OnlineEngine`], as `esvm serve` would receive it. Four contracts
//! make `esvm serve` trustworthy:
//!
//! 1. **Determinism** — the engine is sequential (`ESVM_THREADS` only
//!    sizes the seed fan-out, which it never enters), so its decisions
//!    and committed energy are bit-identical across reruns.
//! 2. **Source blindness** — a problem streamed from an ESVT trace must
//!    produce the same decisions as the same problem round-tripped
//!    through the text format.
//! 3. **The online ≥ offline bound** — local search only accepts
//!    improving moves, so the online schedule refined offline never
//!    costs more, and the empirical competitive ratio is ≥ 1 on every
//!    seed.
//! 4. **Online ≡ MIEC** — MIEC places VMs in start order from earlier
//!    placements and declared durations alone, and the engine keeps a
//!    server's history until it is cold, so the engine makes MIEC's
//!    admission-mode decisions bit for bit: placements, rejected ids,
//!    and the re-audited total and breakdown.

use esvm::workload::{catalog, esvt, trace};
use esvm::{
    event_order, AllocationProblem, Assignment, LocalSearch, Miec, OnlineDecision, OnlineEngine,
    VmId, WorkloadConfig,
};

const SEEDS: u64 = 25;

fn config() -> WorkloadConfig {
    WorkloadConfig::new(30, 8).mean_interarrival(2.0)
}

/// The problem's canonical event stream through a fresh engine: the
/// engine, the rejected ids in decision order, and how many placements
/// landed on a server that had been sealed before.
fn serve(problem: &AllocationProblem) -> (OnlineEngine, Vec<VmId>, usize) {
    let mut engine = OnlineEngine::new(problem.servers());
    let mut rejected = Vec::new();
    let mut sealed = vec![false; problem.server_count()];
    let mut reused = 0;
    for event in event_order(problem.vms()) {
        let id = event.vm();
        let hosted: Vec<u32> = engine.ledgers().iter().map(|l| l.hosted_count()).collect();
        let decision = engine
            .apply(event)
            .expect("the canonical stream is well-formed");
        for (i, ledger) in engine.ledgers().iter().enumerate() {
            sealed[i] |= ledger.hosted_count() < hosted[i];
        }
        match decision {
            Some(OnlineDecision::Placed(server)) => reused += usize::from(sealed[server.index()]),
            Some(OnlineDecision::Rejected) => rejected.push(id),
            None => {}
        }
    }
    (engine, rejected, reused)
}

/// The engine's decisions re-audited as a full-horizon assignment.
fn reaudit<'p>(problem: &'p AllocationProblem, engine: &OnlineEngine) -> Assignment<'p> {
    Assignment::from_placement(problem, &engine.placement(problem.vm_count()))
        .expect("online decisions respect capacity")
}

#[test]
fn online_greedy_is_thread_count_blind_and_rerun_stable() {
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let (oracle, oracle_rejected, _) = serve(&problem);
        for round in 0..2 {
            let (rerun, rejected, _) = serve(&problem);
            let ctx = format!("seed {seed} round {round}");
            assert_eq!(
                oracle.placement(problem.vm_count()),
                rerun.placement(problem.vm_count()),
                "{ctx}: placement"
            );
            assert_eq!(oracle_rejected, rejected, "{ctx}: rejected");
            assert_eq!(
                oracle.committed_cost().to_bits(),
                rerun.committed_cost().to_bits(),
                "{ctx}: committed cost"
            );
            assert_eq!(
                reaudit(&problem, &oracle).total_cost().to_bits(),
                reaudit(&problem, &rerun).total_cost().to_bits(),
                "{ctx}: re-audited cost"
            );
        }
    }
}

#[test]
fn online_greedy_is_trace_format_blind_bit_for_bit() {
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let from_text = trace::from_text(&trace::to_text(&problem)).expect("text load");
        let from_esvt =
            esvt::from_esvt(&esvt::to_esvt_with_block_len(&problem, 7)).expect("esvt load");

        let (text_run, text_rejected, _) = serve(&from_text);
        let (esvt_run, esvt_rejected, _) = serve(&from_esvt);
        let ctx = format!("seed {seed}");
        assert_eq!(
            text_run.placement(problem.vm_count()),
            esvt_run.placement(problem.vm_count()),
            "{ctx}: placement"
        );
        assert_eq!(text_rejected, esvt_rejected, "{ctx}: rejected");
        assert_eq!(
            text_run.committed_cost().to_bits(),
            esvt_run.committed_cost().to_bits(),
            "{ctx}: committed cost"
        );
        if text_rejected.is_empty() {
            let ta = reaudit(&from_text, &text_run).audit().expect("text audit");
            let ea = reaudit(&from_esvt, &esvt_run).audit().expect("esvt audit");
            assert_eq!(
                ta.total_cost.to_bits(),
                ea.total_cost.to_bits(),
                "{ctx}: audited cost"
            );
        }
    }
}

#[test]
fn online_cost_never_beats_the_offline_best() {
    let mut ratios = Vec::new();
    for seed in 0..SEEDS {
        let problem = config().generate(seed).expect("generation is feasible");
        let (engine, rejected, _) = serve(&problem);
        if !rejected.is_empty() {
            // A tight instance the engine cannot finish has no defined
            // ratio; the gap CLI reports it as infeasible.
            continue;
        }
        let online = reaudit(&problem, &engine);
        let refined = LocalSearch::new().refine(&online).expect("refine");

        let online_cost = online.total_cost();
        assert!(
            refined.total_cost() <= online_cost + 1e-9,
            "seed {seed}: local search must not worsen the online run"
        );
        ratios.push(online_cost / refined.total_cost());
    }
    assert!(
        ratios.len() as u64 >= SEEDS - 2,
        "almost every seed must be feasible, got {}",
        ratios.len()
    );
    // The bound is tight enough to be meaningful: online never pays
    // more than 2x on this workload family.
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    assert!(max < 2.0, "competitive ratio blew up: {max}");
}

/// Asserts that the engine fed `problem` made MIEC's admission-mode
/// decisions on `reference` (the same instance, possibly loaded another
/// way), and returns how many placements reused a sealed server.
fn assert_engine_is_miec(
    problem: &AllocationProblem,
    reference: &AllocationProblem,
    ctx: &str,
) -> usize {
    let (miec, miec_rejected) = Miec::new()
        .allocate_with_admission(reference)
        .expect("admission run");
    let (engine, rejected, reused) = serve(problem);
    assert_eq!(
        engine.placement(problem.vm_count()),
        miec.placement(),
        "{ctx}: placement"
    );
    assert_eq!(rejected, miec_rejected, "{ctx}: rejected ids");
    let online = reaudit(problem, &engine);
    assert_eq!(
        online.total_cost().to_bits(),
        miec.total_cost().to_bits(),
        "{ctx}: re-audited total"
    );
    for server in problem.servers() {
        let (x, y) = (
            online.ledger(server.id()).energy_breakdown(),
            miec.ledger(server.id()).energy_breakdown(),
        );
        for (name, x, y) in [
            ("run", x.run, y.run),
            ("idle", x.idle, y.idle),
            ("transition", x.transition, y.transition),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: {} energy.{name}",
                server.id()
            );
        }
    }
    let (committed, total) = (engine.committed_cost(), miec.total_cost());
    assert!(
        (committed - total).abs() <= 1e-9 * total.abs().max(1.0),
        "{ctx}: committed {committed} vs MIEC {total}"
    );
    reused
}

#[test]
fn online_engine_is_miec_in_admission_mode_bit_for_bit() {
    let families = [
        // The candidate-index suite's families: dense, sparse with
        // servers going cold between arrivals, and overloaded.
        WorkloadConfig::new(12, 6).mean_interarrival(3.0),
        WorkloadConfig::new(60, 30).mean_interarrival(6.0),
        WorkloadConfig::new(40, 2)
            .mean_interarrival(0.5)
            .mean_duration(20.0)
            .vm_types(catalog::standard_vm_types()),
        // This suite's family.
        config(),
        // Few servers, long break-even gaps: used servers bridge short
        // gaps, go cold, are sealed and host again.
        WorkloadConfig::new(80, 4)
            .mean_interarrival(3.0)
            .transition_time(4.0),
    ];
    let last = families.len() - 1;
    let mut reused = 0;
    for (f, family) in families.iter().enumerate() {
        for seed in 0..50 {
            let problem = family.generate(seed).expect("generation is feasible");
            let ctx = format!("family {f} seed {seed}");
            let n = assert_engine_is_miec(&problem, &problem, &ctx);
            let from_esvt =
                esvt::from_esvt(&esvt::to_esvt_with_block_len(&problem, 7)).expect("esvt load");
            assert_engine_is_miec(&from_esvt, &problem, &format!("{ctx} (ESVT)"));
            if f == last {
                reused += n;
            }
        }
    }
    assert!(
        reused > 0,
        "no sealed server was ever reused: the last family is vacuous"
    );
}

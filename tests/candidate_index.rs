//! The candidate index behind MIEC against the full-scan oracle.
//!
//! `Miec::new()` visits only the servers that may price an arrival
//! differently from a pristine twin, plus the lowest-id standby server
//! of each spec class; `Miec::without_pruning()` visits every server.
//! The two must agree bit for bit on every variant, also where
//! `miec-noalpha`'s α-zeroed fleet merges spec classes that differ only
//! in α, and on a sparse fleet the indexed scan must visit a small,
//! bounded set.

use esvm::obs::{CollectingTracer, ExplainRecord, MetricsRegistry};
use esvm::{
    catalog, Allocator, AllocationProblem, Assignment, Interval, Miec, PowerModel, ProblemBuilder,
    Resources, ServerSpec, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 50;

fn assert_bit_identical(indexed: &Assignment, full: &Assignment, ctx: &str) {
    assert_eq!(indexed.placement(), full.placement(), "{ctx}: placement");
    assert_eq!(
        indexed.total_cost().to_bits(),
        full.total_cost().to_bits(),
        "{ctx}: total cost"
    );
    let (a, b) = (
        indexed.audit().expect("indexed audit"),
        full.audit().expect("full-scan audit"),
    );
    for (name, x, y) in [
        ("run", a.breakdown.run, b.breakdown.run),
        ("idle", a.breakdown.idle, b.breakdown.idle),
        ("transition", a.breakdown.transition, b.breakdown.transition),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: energy.{name}");
    }
}

/// A named MIEC configuration.
type Variant = (&'static str, fn() -> Miec);

/// The MIEC variants the registry builds.
fn variants() -> [Variant; 3] {
    [
        ("miec", Miec::new),
        ("miec-noalpha", Miec::ignoring_transition_costs),
        ("miec-blind", || Miec::with_assumed_duration(5)),
    ]
}

#[test]
fn every_variant_matches_the_full_scan_bit_for_bit() {
    // The differential suites' instance family, plus a sparser one
    // where most used servers go cold between arrivals.
    for config in [
        WorkloadConfig::new(12, 6).mean_interarrival(3.0),
        WorkloadConfig::new(60, 30).mean_interarrival(6.0),
    ] {
        for seed in 0..SEEDS {
            let problem = config.generate(seed).expect("generation is feasible");
            for (name, make) in variants() {
                let ctx = format!("{name} seed {seed} ({} servers)", problem.server_count());
                let run = |miec: Miec| miec.allocate(&problem, &mut StdRng::seed_from_u64(seed));
                match (run(make()), run(make().without_pruning())) {
                    (Ok(a), Ok(b)) => assert_bit_identical(&a, &b, &ctx),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: error"),
                    (a, b) => panic!("{ctx}: feasibility differs: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn admission_mode_matches_the_full_scan_bit_for_bit() {
    // Overloaded: admission control rejects work on most seeds.
    let config = WorkloadConfig::new(40, 2)
        .mean_interarrival(0.5)
        .mean_duration(20.0)
        .vm_types(catalog::standard_vm_types());
    let mut rejected = 0;
    for seed in 0..SEEDS {
        let problem = config.generate(seed).expect("generation is feasible");
        for (name, make) in variants() {
            let ctx = format!("{name} seed {seed}");
            let (a, ra) = make().allocate_with_admission(&problem).expect("admission run");
            let (b, rb) = make()
                .without_pruning()
                .allocate_with_admission(&problem)
                .expect("admission run");
            assert_eq!(ra, rb, "{ctx}: rejected set");
            assert_eq!(a.placement(), b.placement(), "{ctx}: placement");
            assert_eq!(a.total_cost().to_bits(), b.total_cost().to_bits(), "{ctx}: cost");
            for server in problem.servers() {
                let (x, y) = (
                    a.ledger(server.id()).energy_breakdown(),
                    b.ledger(server.id()).energy_breakdown(),
                );
                for (name, x, y) in [
                    ("run", x.run, y.run),
                    ("idle", x.idle, y.idle),
                    ("transition", x.transition, y.transition),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {} energy.{name}", server.id());
                }
            }
            rejected += ra.len();
        }
    }
    assert!(rejected > 0, "no VM was ever rejected: the admission check is vacuous");
}

/// A traced run: the assignment and one explain record per decision.
fn traced(miec: Miec, problem: &AllocationProblem) -> (Assignment<'_>, Vec<ExplainRecord>) {
    let tracer = CollectingTracer::new();
    let assignment = miec
        .allocate_traced(problem, &MetricsRegistry::new(), &tracer)
        .expect("allocation succeeds");
    let explains = tracer.explains().into_iter().map(|e| e.record).collect();
    (assignment, explains)
}

/// Twelve servers that differ only in `α` (three values), so the real
/// specs make three spec classes and `miec-noalpha`'s, priced with
/// `α = 0`, one. The merged classes must decide as the full scan does,
/// delta bits included.
#[test]
fn spec_classes_that_differ_only_in_alpha_merge_for_noalpha() {
    const SERVERS: u32 = 12;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ProblemBuilder::new();
        for i in 0..SERVERS {
            let alpha = [0.0, 150.0, 900.0][i as usize % 3];
            b = b.server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), alpha);
        }
        let mut start = 1;
        for _ in 0..40 {
            start += rng.gen_range(0u32..3);
            let demand = Resources::new(rng.gen_range(0.5..4.0), rng.gen_range(0.5..8.0));
            b = b.vm(demand, Interval::with_len(start, rng.gen_range(1u32..=12)));
        }
        let problem = b.build().expect("valid problem");
        let noalpha = Miec::ignoring_transition_costs;
        let (indexed, explains) = traced(noalpha(), &problem);
        let (full, scanned) = traced(noalpha().without_pruning(), &problem);
        let ctx = format!("miec-noalpha seed {seed}");
        assert_bit_identical(&indexed, &full, &ctx);
        assert_eq!(explains.len(), scanned.len(), "{ctx}");
        for (e, f) in explains.iter().zip(&scanned) {
            assert_eq!((e.vm, e.winner), (f.vm, f.winner), "{ctx}");
            assert_eq!(e.delta_cost.to_bits(), f.delta_cost.to_bits(), "{ctx}: vm {}", e.vm);
        }
        // The first decision meets a pristine fleet: one class stands in
        // for all twelve servers, against three under the real specs.
        assert_eq!(explains[0].pruned, u64::from(SERVERS) - 1, "{ctx}");
        let (_, real) = traced(Miec::new(), &problem);
        assert_eq!(real[0].pruned, u64::from(SERVERS) - 3, "{ctx}");
    }
}

/// The smallest gap `g ≥ 1` with `P_idle · g ≥ α`, found by a plain
/// linear walk; `None` past a million units (never reached here).
fn break_even(spec: &ServerSpec) -> Option<u64> {
    (1..=1_000_000u64).find(|&g| spec.idle_cost(g) >= spec.transition_cost())
}

/// Spec classes: servers with equal capacity, power model and α.
fn class_count(problem: &AllocationProblem) -> usize {
    let mut reps: Vec<&ServerSpec> = Vec::new();
    for s in problem.servers() {
        if !reps.iter().any(|r| {
            r.capacity() == s.capacity()
                && r.power() == s.power()
                && r.transition_cost() == s.transition_cost()
        }) {
            reps.push(s);
        }
    }
    reps.len()
}

/// The deterministic guard on the indexed scan: on a sparse 2k-server
/// fleet each decision visits at most the servers that are *not* cold
/// at its start time — recomputed here from the placements alone —
/// plus one representative per spec class.
#[test]
fn a_sparse_fleet_visits_only_warm_servers_and_class_representatives() {
    let problem = WorkloadConfig::new(4_000, 2_000)
        .mean_interarrival(4.0)
        .generate(1)
        .expect("generation is feasible");
    let n = problem.server_count();
    let classes = class_count(&problem);
    let gaps: Vec<Option<u64>> = problem.servers().iter().map(break_even).collect();
    let tracer = CollectingTracer::new();
    let assignment = Miec::new()
        .allocate_traced(&problem, &MetricsRegistry::new(), &tracer)
        .expect("allocation succeeds");

    // Last busy end of every server used so far.
    let mut last_end: Vec<Option<u32>> = vec![None; n];
    let mut visited = 0u64;
    let mut cold_seen = false;
    for e in tracer.explains() {
        let r = &e.record;
        let vm = &problem.vms()[r.vm as usize];
        let t = u64::from(vm.start());
        let visits = r.candidates + r.unfit + r.floored;
        assert_eq!(visits + r.pruned, n as u64, "vm {}: tally", r.vm);
        let used = last_end.iter().filter(|e| e.is_some()).count();
        let warm = last_end
            .iter()
            .zip(&gaps)
            .filter(|(end, gap)| match (end, gap) {
                (Some(end), Some(gap)) => t < u64::from(*end) + 1 + gap,
                (Some(_), None) => true,
                (None, _) => false,
            })
            .count();
        cold_seen |= warm < used;
        assert!(
            visits <= (warm + classes) as u64,
            "vm {}: visited {visits} > {warm} warm + {classes} classes",
            r.vm,
        );
        visited += visits;
        let server = r.winner.expect("every VM is placed") as usize;
        let end = last_end[server].map_or(vm.end(), |e| e.max(vm.end()));
        last_end[server] = Some(end);
    }
    assert_eq!(
        tracer.explains().len(),
        problem.vm_count(),
        "one explain record per VM"
    );
    assert!(assignment.is_complete());
    assert!(cold_seen, "no server ever went cold: the guard does not exercise the cold rule");
    // The full scan would visit n servers per VM.
    assert!(
        visited * 20 < (problem.vm_count() * n) as u64,
        "visited {visited} of {} server slots",
        problem.vm_count() * n
    );
}

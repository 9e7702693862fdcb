//! Differential harness: decision-provenance tracing against the
//! uninstrumented allocators.
//!
//! The contract has two halves. First, tracing must be **inert**: for
//! every [`AllocatorKind`], running under a tracer — disabled
//! (`NoopTracer`) or enabled (`CollectingTracer`) — must reproduce the
//! plain run *bit for bit*: same placement vector, same
//! `total_cost()`. Any instrumentation that changed a decision would
//! poison every trace it produced. Second, the provenance must be **faithful**: each placed
//! VM gets exactly one `place` explain record whose winner is the
//! server the placement vector actually names, and whose cost delta is
//! bit-identical to the increment the run charged.

use esvm::obs::{CollectingTracer, DecisionKind, MetricsRegistry, NoopTracer};
use esvm::{AllocatorKind, ChaosEngine, FaultPlan, FaultPlanConfig, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 12;

fn rng_for(kind: AllocatorKind, seed: u64) -> StdRng {
    let mut h: u64 = 0xA076_1D64_78BD_642F;
    for b in kind.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
    }
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
}

/// Every kind × disabled and enabled tracers: the traced entry point is
/// placement- and cost-bit-exact vs the plain one.
#[test]
fn traced_runs_match_plain_for_every_kind_and_engine() {
    let config = WorkloadConfig::new(40, 10).mean_interarrival(2.0);
    for seed in 0..SEEDS {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in AllocatorKind::ALL {
            let plain = kind
                .build()
                .allocate(&problem, &mut rng_for(kind, seed))
                .expect("plain run");
            let metrics = MetricsRegistry::new();
            let noop = kind
                .allocate_traced_with(&problem, &mut rng_for(kind, seed), &metrics, &NoopTracer)
                .expect("noop-traced run");
            let tracer = CollectingTracer::new();
            let metrics2 = MetricsRegistry::new();
            let collected = kind
                .allocate_traced_with(&problem, &mut rng_for(kind, seed), &metrics2, &tracer)
                .expect("collect-traced run");
            let ctx = format!("{} seed {seed}", kind.name());
            assert_eq!(plain.placement(), noop.placement(), "{ctx}: noop placement");
            assert_eq!(
                plain.total_cost().to_bits(),
                noop.total_cost().to_bits(),
                "{ctx}: noop cost"
            );
            assert_eq!(
                plain.placement(),
                collected.placement(),
                "{ctx}: traced placement"
            );
            assert_eq!(
                plain.total_cost().to_bits(),
                collected.total_cost().to_bits(),
                "{ctx}: traced cost"
            );
            assert_eq!(tracer.open_spans(), 0, "{ctx}: spans left open");
        }
    }
}

/// The MIEC family emits one `place` explain record per placed VM whose
/// winner is exactly the placement vector's entry for that VM.
#[test]
fn explain_records_name_the_placed_server_bit_for_bit() {
    let config = WorkloadConfig::new(60, 12).mean_interarrival(1.5);
    for seed in 0..SEEDS {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in [
            AllocatorKind::Miec,
            AllocatorKind::MiecNoAlpha,
            AllocatorKind::MiecBlindDuration,
        ] {
            let tracer = CollectingTracer::new();
            let metrics = MetricsRegistry::new();
            let assignment = kind
                .allocate_traced_with(&problem, &mut rng_for(kind, seed), &metrics, &tracer)
                .expect("traced run");
            let ctx = format!("{} seed {seed}", kind.name());
            let placement = assignment.placement();
            let places: Vec<_> = tracer
                .explains()
                .into_iter()
                .filter(|e| e.record.kind == DecisionKind::Place)
                .collect();
            let placed = placement.iter().filter(|s| s.is_some()).count();
            assert_eq!(places.len(), placed, "{ctx}: one explain per placed VM");
            for e in &places {
                let vm = usize::try_from(e.record.vm).unwrap();
                let server =
                    placement[vm].unwrap_or_else(|| panic!("{ctx}: explain for unplaced vm {vm}"));
                assert_eq!(
                    e.record.winner,
                    Some(server.index() as u64),
                    "{ctx}: vm {vm} winner"
                );
                assert!(e.record.delta_cost.is_finite(), "{ctx}: vm {vm} delta");
                assert!(e.record.candidates >= 1, "{ctx}: vm {vm} candidates");
            }
        }
    }
}

/// Chaos replay under an enabled tracer reproduces the untraced replay
/// bit for bit, and attributes repairs/sheds when faults displace VMs.
#[test]
fn chaos_replay_is_bit_exact_under_tracing_and_attributes_repairs() {
    let config = WorkloadConfig::new(48, 10).mean_interarrival(1.5);
    for seed in 0..4 {
        let problem = config.generate(seed).expect("generation is feasible");
        let plan = FaultPlan::generate(
            &FaultPlanConfig::with_fault_rate(0.5),
            problem.server_count(),
            problem.horizon(),
            seed,
        );
        let engine = ChaosEngine::new(plan);
        for kind in AllocatorKind::ALL {
            let allocator = kind.build();
            let plain = engine
                .run(&problem, &*allocator, &mut rng_for(kind, seed))
                .expect("plain replay");
            let tracer = CollectingTracer::new();
            let metrics = MetricsRegistry::new();
            let traced = engine
                .run_traced(
                    &problem,
                    &*allocator,
                    &mut rng_for(kind, seed),
                    &metrics,
                    &tracer,
                )
                .expect("traced replay");
            let ctx = format!("{} seed {seed}", kind.name());
            assert_eq!(plain.placement, traced.placement, "{ctx}: placement");
            assert_eq!(plain.cost.to_bits(), traced.cost.to_bits(), "{ctx}: cost");
            assert_eq!(plain.repairs, traced.repairs, "{ctx}: repairs");
            assert_eq!(plain.shed, traced.shed, "{ctx}: shed");
            assert_eq!(tracer.open_spans(), 0, "{ctx}: spans left open");

            let explains = tracer.explains();
            let repairs = explains
                .iter()
                .filter(|e| e.record.kind == DecisionKind::Repair)
                .count();
            let sheds = explains
                .iter()
                .filter(|e| matches!(e.record.kind, DecisionKind::Shed | DecisionKind::Refuse))
                .count();
            assert_eq!(repairs, traced.repairs.len(), "{ctx}: repair explains");
            assert_eq!(
                sheds,
                traced.shed.len() + traced.refused.len(),
                "{ctx}: shed/refuse explains"
            );
            let evicts = explains
                .iter()
                .filter(|e| e.record.kind == DecisionKind::Evict)
                .count();
            assert_eq!(evicts as u64, traced.displaced, "{ctx}: evict explains");
        }
    }
}

/// A full traced run's Chrome export stays structurally valid and its
/// span forest parents every span at a smaller id.
#[test]
fn chrome_export_of_a_real_run_is_structurally_sound() {
    let config = WorkloadConfig::new(40, 10);
    let problem = config.generate(9).expect("generation is feasible");
    let tracer = CollectingTracer::new();
    let metrics = MetricsRegistry::new();
    let kind = AllocatorKind::MiecLocalSearch;
    kind.allocate_traced_with(&problem, &mut rng_for(kind, 9), &metrics, &tracer)
        .expect("traced run");
    let spans = tracer.spans();
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(s.parent.0 < s.id.0, "parent after child: {s:?}");
    }
    let chrome = tracer.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
    let jsonl = tracer.to_jsonl();
    assert_eq!(jsonl.lines().count(), spans.len() + tracer.explains().len());
}

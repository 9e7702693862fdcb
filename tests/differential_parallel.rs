//! Differential harness: the parallel allocation layer against the
//! sequential oracle.
//!
//! Every [`AllocatorKind`], at every thread count, must reproduce the
//! sequential run *bit for bit*: the same placement vector, the same
//! `total_cost()`, and the same audited energy decomposition. This is
//! the contract that makes `ESVM_THREADS` safe to flip on anywhere —
//! parallelism is an execution detail, never an algorithmic one.

use esvm::{catalog, AllocatorKind, Miec, Parallelism, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [2, 4, 8];
const SEEDS: u64 = 50;

/// Per-(kind, seed) RNG, identical for the oracle and every parallel
/// rerun so any divergence is attributable to the thread count alone.
fn rng_for(kind: AllocatorKind, seed: u64) -> StdRng {
    let mut h: u64 = 0xA076_1D64_78BD_642F;
    for b in kind.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
    }
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
}

#[test]
fn every_kind_matches_the_sequential_oracle_bit_for_bit() {
    let config = WorkloadConfig::new(12, 6).mean_interarrival(3.0);
    for seed in 0..SEEDS {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in AllocatorKind::ALL {
            let oracle = kind
                .build_with(Parallelism::sequential())
                .allocate(&problem, &mut rng_for(kind, seed));
            for threads in THREADS {
                let parallel = kind
                    .build_with(Parallelism::new(threads))
                    .allocate(&problem, &mut rng_for(kind, seed));
                let ctx = format!("{} seed {seed} threads {threads}", kind.name());
                match (&oracle, &parallel) {
                    (Ok(seq), Ok(par)) => {
                        assert_eq!(seq.placement(), par.placement(), "{ctx}: placement");
                        assert_eq!(
                            seq.total_cost().to_bits(),
                            par.total_cost().to_bits(),
                            "{ctx}: total cost"
                        );
                        let sa = seq.audit().expect("oracle audit");
                        let pa = par.audit().expect("parallel audit");
                        assert_eq!(
                            sa.total_cost.to_bits(),
                            pa.total_cost.to_bits(),
                            "{ctx}: audited cost"
                        );
                        for (name, s, p) in [
                            ("run", sa.breakdown.run, pa.breakdown.run),
                            ("idle", sa.breakdown.idle, pa.breakdown.idle),
                            ("transition", sa.breakdown.transition, pa.breakdown.transition),
                        ] {
                            assert_eq!(s.to_bits(), p.to_bits(), "{ctx}: energy.{name}");
                        }
                    }
                    (Err(se), Err(pe)) => {
                        assert_eq!(format!("{se:?}"), format!("{pe:?}"), "{ctx}: error");
                    }
                    (seq, par) => panic!(
                        "{ctx}: oracle and parallel disagree on feasibility: \
                         {seq:?} vs {par:?}"
                    ),
                }
            }
        }
    }
}

/// The sharded-path matrix: shards {1, 2, 4, 8} × 25 seeds, for the
/// MIEC kinds. Every cell must reproduce the sequential oracle's
/// placement, total cost and audited energy decomposition bit for bit
/// — shard ownership is an execution detail, never an algorithmic one.
#[test]
fn shard_and_batch_matrix_matches_the_oracle_bit_for_bit() {
    const SHARDS: [usize; 4] = [1, 2, 4, 8];
    let config = WorkloadConfig::new(14, 7).mean_interarrival(2.5);
    for seed in 0..25 {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in [AllocatorKind::Miec, AllocatorKind::MiecLocalSearch] {
            let oracle = kind
                .build_with(Parallelism::sequential())
                .allocate(&problem, &mut rng_for(kind, seed))
                .expect("oracle allocation succeeds");
            let sa = oracle.audit().expect("oracle audit");
            for shards in SHARDS {
                let par = Parallelism::new(4).with_shards(shards);
                let parallel = kind
                    .build_with(par)
                    .allocate(&problem, &mut rng_for(kind, seed))
                    .expect("parallel allocation succeeds");
                let ctx = format!("{} seed {seed} shards {shards}", kind.name());
                assert_eq!(oracle.placement(), parallel.placement(), "{ctx}: placement");
                assert_eq!(
                    oracle.total_cost().to_bits(),
                    parallel.total_cost().to_bits(),
                    "{ctx}: total cost"
                );
                let pa = parallel.audit().expect("parallel audit");
                for (name, s, p) in [
                    ("run", sa.breakdown.run, pa.breakdown.run),
                    ("idle", sa.breakdown.idle, pa.breakdown.idle),
                    ("transition", sa.breakdown.transition, pa.breakdown.transition),
                ] {
                    assert_eq!(s.to_bits(), p.to_bits(), "{ctx}: energy.{name}");
                }
            }
        }
    }
}

/// Adaptive mode (`Parallelism::auto` / `ESVM_THREADS=auto`) picks an
/// engine by problem size; whichever it picks, the results must match
/// the sequential oracle bit for bit. Three configurations pin down
/// the three reachable engines: a cutoff above the problem size keeps
/// the sequential engine, a cutoff of 1 forces the thread pool, and an
/// explicit shard override forces the sharded engine regardless of
/// size.
#[test]
fn auto_mode_matches_both_engines_bit_for_bit() {
    let config = WorkloadConfig::new(12, 6).mean_interarrival(3.0);
    let autos = [
        ("seq-engine", Parallelism::auto().with_threads(4).with_auto_cutoff(usize::MAX)),
        ("par-engine", Parallelism::auto().with_threads(4).with_auto_cutoff(1)),
        (
            "sharded-override",
            Parallelism::auto()
                .with_threads(4)
                .with_auto_cutoff(usize::MAX)
                .with_shards(4),
        ),
    ];
    for seed in 0..25 {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in AllocatorKind::ALL {
            let oracle = kind
                .build_with(Parallelism::sequential())
                .allocate(&problem, &mut rng_for(kind, seed))
                .expect("oracle allocation succeeds");
            let sa = oracle.audit().expect("oracle audit");
            for (label, par) in autos {
                let auto = kind
                    .build_with(par)
                    .allocate(&problem, &mut rng_for(kind, seed))
                    .expect("auto allocation succeeds");
                let ctx = format!("{} seed {seed} auto {label}", kind.name());
                assert_eq!(oracle.placement(), auto.placement(), "{ctx}: placement");
                assert_eq!(
                    oracle.total_cost().to_bits(),
                    auto.total_cost().to_bits(),
                    "{ctx}: total cost"
                );
                let aa = auto.audit().expect("auto audit");
                for (name, s, p) in [
                    ("run", sa.breakdown.run, aa.breakdown.run),
                    ("idle", sa.breakdown.idle, aa.breakdown.idle),
                    ("transition", sa.breakdown.transition, aa.breakdown.transition),
                ] {
                    assert_eq!(s.to_bits(), p.to_bits(), "{ctx}: energy.{name}");
                }
            }
        }
    }
}

#[test]
fn admission_decisions_are_thread_count_independent() {
    // Deliberately overloaded: many long-lived VMs on a two-server
    // fleet, so admission control actually rejects work.
    let config = WorkloadConfig::new(40, 2)
        .mean_interarrival(0.5)
        .mean_duration(20.0)
        .vm_types(catalog::standard_vm_types());
    let mut rejected_somewhere = false;
    for seed in 0..10 {
        let problem = config.generate(seed).expect("generation is feasible");
        let (seq_assignment, seq_rejected) = Miec::new()
            .allocate_with_admission(&problem)
            .expect("admission-controlled run cannot fail");
        rejected_somewhere |= !seq_rejected.is_empty();
        // MIEC has no threaded engine; its admission decisions are
        // checked against the full-scan oracle instead.
        let (full_assignment, full_rejected) = Miec::new()
            .without_pruning()
            .allocate_with_admission(&problem)
            .expect("admission-controlled run cannot fail");
        assert_eq!(seq_rejected, full_rejected, "seed {seed}");
        assert_eq!(seq_assignment.placement(), full_assignment.placement(), "seed {seed}");
        assert_eq!(
            seq_assignment.total_cost().to_bits(),
            full_assignment.total_cost().to_bits(),
            "seed {seed}"
        );
    }
    assert!(
        rejected_somewhere,
        "the overload workload never triggered a rejection — the \
         admission-parity check is vacuous; tighten the configuration"
    );
}

#[test]
fn observed_decision_counters_are_thread_count_independent() {
    // The exact counters (everything except the documented approximate
    // diagnostics `miec.fp_ties` / `local_search.swaps_considered` /
    // `local_search.swap_fastpath_hits`) must not depend on threads.
    const EXACT_COUNTERS: [&str; 11] = [
        "miec.vms_placed",
        "miec.vms_rejected",
        "miec.candidates_considered",
        "miec.spec_class_pruned",
        "miec.unfit_skipped",
        "local_search.rounds",
        "local_search.relocates_considered",
        "local_search.relocates_accepted",
        "local_search.relocates_rejected",
        "local_search.spec_class_pruned",
        "local_search.swaps_accepted",
    ];
    let config = WorkloadConfig::new(20, 8).mean_interarrival(2.0);
    for seed in [3_u64, 17, 41] {
        let problem = config.generate(seed).expect("generation is feasible");
        for kind in [AllocatorKind::Miec, AllocatorKind::MiecLocalSearch] {
            let observe = |par: Parallelism| {
                let metrics = esvm::obs::MetricsRegistry::new();
                let mut sink = esvm::obs::MemorySink::new();
                kind.allocate_observed_with(
                    &problem,
                    &mut rng_for(kind, seed),
                    &mut sink,
                    &metrics,
                    par,
                )
                .expect("allocation succeeds");
                EXACT_COUNTERS.map(|name| metrics.counter(name))
            };
            let oracle = observe(Parallelism::sequential());
            for threads in THREADS {
                // shards = 0 is the auto policy.
                for shards in [0, 1, 2, 8] {
                    let par = Parallelism::new(threads).with_shards(shards);
                    let parallel = observe(par);
                    for (name, (s, p)) in EXACT_COUNTERS.iter().zip(oracle.iter().zip(&parallel)) {
                        assert_eq!(
                            s, p,
                            "{} seed {seed} threads {threads} shards {shards}: counter {name}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }
}

//! Micro-benchmarks of the `ServerLedger` hot path: capacity checks,
//! commits, and candidate scoring at 10 / 100 / 1000 resident segments,
//! probed mid-span, and one start-ordered step at the end of a 50k-segment
//! history.
//!
//! `incremental_cost` (delta-based, no clone) is benchmarked against
//! `reference_incremental_cost` (the original clone-and-rescan) at each
//! size; the gap between them is the per-candidate saving the MIEC scan
//! collects once per server per VM.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_simcore::{Interval, PowerModel, Resources, ServerLedger, ServerSpec, Vm};
use std::hint::black_box;

fn spec() -> ServerSpec {
    ServerSpec::new(
        0,
        Resources::new(1e9, 1e9),
        PowerModel::new(100.0, 300.0),
        250.0,
    )
}

/// VMs at `[4k, 4k+2]` leave a one-unit gap between consecutive
/// segments, so a ledger hosting `n` of them holds `n` resident segments
/// and `n − 1` interior gaps.
fn resident_vms(n: usize) -> Vec<Vm> {
    (0..n)
        .map(|k| {
            Vm::new(
                k as u32,
                Resources::new(1.0, 1.0),
                Interval::with_len(4 * k as u32, 3),
            )
        })
        .collect()
}

fn ledger_with(n: usize) -> ServerLedger {
    let mut ledger = ServerLedger::new(spec());
    for vm in resident_vms(n) {
        ledger.host(&vm);
    }
    ledger
}

fn bench_ledger(c: &mut Criterion) {
    for n in [10usize, 100, 1000] {
        let ledger = ledger_with(n);
        // Probe in the middle of the span, splitting one interior gap:
        // the shape of local search's and the consolidator's queries,
        // which land anywhere in a history. The ledger's sorted arrays
        // are searched from the tail first, so past the 15-entry tail
        // these points time the fallback bisection.
        let mid = 4 * (n as u32 / 2) + 3;
        let probe = Vm::new(n as u32, Resources::new(1.0, 1.0), Interval::new(mid, mid));

        // The decomposition must reproduce cost() bit for bit (it is
        // computed from the same integer gap caches).
        let breakdown = ledger.energy_breakdown();
        assert_eq!(
            (breakdown.run + breakdown.idle + breakdown.transition).to_bits(),
            ledger.cost().to_bits(),
            "energy decomposition diverged from cost() at {n} segments"
        );

        let mut group = c.benchmark_group(format!("ledger_{n}_segments"));
        group.sample_size(20);
        group.bench_function(BenchmarkId::from_parameter("fits"), |b| {
            b.iter(|| black_box(ledger.fits(black_box(&probe))))
        });
        group.bench_function(BenchmarkId::from_parameter("energy_breakdown"), |b| {
            b.iter(|| black_box(ledger.energy_breakdown()))
        });
        group.bench_function(BenchmarkId::from_parameter("incremental_cost"), |b| {
            b.iter(|| black_box(ledger.incremental_cost(black_box(&probe))))
        });
        group.bench_function(
            BenchmarkId::from_parameter("reference_incremental_cost"),
            |b| b.iter(|| black_box(ledger.reference_incremental_cost(black_box(&probe)))),
        );
        // Amortised host cost: rebuild the whole ledger (n commits).
        let vms = resident_vms(n);
        group.bench_function(BenchmarkId::from_parameter("host_all"), |b| {
            b.iter(|| {
                let mut fresh = ServerLedger::new(spec());
                for vm in &vms {
                    fresh.host(vm);
                }
                black_box(fresh.cost())
            })
        });
        group.finish();
    }
}

/// Offline MIEC decides in start order and keeps every ledger's whole
/// history: the busiest server of a 100k-VM run holds tens of thousands
/// of segments, and each decision scores and hosts the next VM after
/// the last one. This point does that on a ledger of 50k segments;
/// taking the VM off again keeps the ledger at 50k between iterations,
/// so the unhost is timed too.
fn bench_end_of_history(c: &mut Criterion) {
    const N: usize = 50_000;
    let mut ledger = ledger_with(N);
    let next = Vm::new(N as u32, Resources::new(1.0, 1.0), Interval::with_len(4 * N as u32, 3));
    let checkpoint = ledger.checkpoint();
    let cost = ledger.cost().to_bits();
    let mut group = c.benchmark_group(format!("ledger_{N}_segments_end"));
    group.sample_size(20);
    group.bench_function(BenchmarkId::from_parameter("score_and_host"), |b| {
        b.iter(|| {
            let next = black_box(&next);
            assert!(ledger.fits(next));
            let delta = ledger.incremental_cost(next);
            ledger.host(next);
            ledger.unhost(next);
            ledger.restore_costs(checkpoint);
            black_box(delta)
        })
    });
    group.finish();
    assert_eq!(ledger.segments().len(), N);
    assert_eq!(ledger.cost().to_bits(), cost, "a host/unhost cycle moved the ledger's cost");
}

criterion_group!(benches, bench_ledger, bench_end_of_history);
criterion_main!(benches);

//! Micro-benchmarks of every allocation algorithm on the paper's
//! flagship instance (100 VMs on 50 servers, all catalogs), plus a
//! production-scale MIEC point (2000 VMs on 500 servers) that gates the
//! optimised-vs-reference speedup against the committed
//! `BENCH_miec.json` at the repo root, and the candidate-index-vs-full-
//! scan scale points. A run writes its fresh record under
//! `target/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_bench::{
    assert_no_regression, committed_bench_field, miec_scale_point, time_best, time_pair_best,
    write_fresh_record, ScalePoint,
};
use esvm_core::{Allocator, AllocatorKind, Miec};
use esvm_obs::{DiscardTracer, MetricsRegistry, NoopTracer};
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_allocators(c: &mut Criterion) {
    let problem = WorkloadConfig::new(100, 50)
        .mean_interarrival(4.0)
        .generate(42)
        .expect("instance");
    let mut group = c.benchmark_group("allocate_100vms_50servers");
    for kind in AllocatorKind::ALL {
        let allocator = kind.build();
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let a = allocator.allocate(black_box(&problem), &mut rng).unwrap();
                black_box(a.total_cost())
            })
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("miec_scaling");
    group.sample_size(10);
    for vms in [100usize, 200, 400] {
        let problem = WorkloadConfig::new(vms, vms / 2)
            .mean_interarrival(4.0)
            .generate(1)
            .expect("instance");
        group.bench_function(BenchmarkId::from_parameter(vms), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let a = Miec::new().allocate(black_box(&problem), &mut rng).unwrap();
                black_box(a.total_cost())
            })
        });
    }
    group.finish();
}

/// Replays the reference trajectory up to the first VM the two runs place
/// differently and asserts that, at that common state, both candidate
/// servers offered the same score under *both* arithmetics — i.e. the
/// divergence is a genuine tie whose winner the reference picked by
/// rounding noise, not a scoring bug. (Later placements may then differ
/// legitimately: the trajectories have forked.)
fn certify_first_divergence_is_fp_tie(
    problem: &esvm_simcore::AllocationProblem,
    fast: &esvm_simcore::Assignment,
    slow: &esvm_simcore::Assignment,
) {
    let mut replay = esvm_simcore::Assignment::new(problem);
    for j in problem.vms_by_start_time() {
        let vm = &problem.vms()[j];
        let f = fast.placement()[vm.id().index()].expect("complete run");
        let s = slow.placement()[vm.id().index()].expect("complete run");
        if f != s {
            let delta_gap =
                (replay.ledger(f).incremental_cost(vm) - replay.ledger(s).incremental_cost(vm)).abs();
            let reference_gap = (replay.ledger(f).reference_incremental_cost(vm)
                - replay.ledger(s).reference_incremental_cost(vm))
            .abs();
            assert!(
                delta_gap < 1e-9 && reference_gap < 1e-9,
                "first divergence at {} is not an FP tie: delta gap {delta_gap:e}, \
                 reference gap {reference_gap:e}",
                vm.id()
            );
            println!(
                "placement divergence at {} certified as an FP tie \
                 (delta gap {delta_gap:.1e}, reference gap {reference_gap:.1e})",
                vm.id()
            );
            return;
        }
        replay.place(vm.id(), s).expect("replaying a valid assignment");
    }
}

/// Formats one scale point's `BENCH_miec.json` fields. `None` (a large
/// point that was skipped this run and has no committed baseline yet)
/// records `null` timings so the flat-scan reader treats them as
/// missing; so does a point whose full-scan oracle did not run. A point
/// read back from the committed record is marked `carried_forward`.
fn scale_fields(
    prefix: &str,
    vms: usize,
    servers: usize,
    point: Option<ScalePoint>,
    carried_forward: bool,
) -> String {
    let (indexed, full_scan) = point.map_or((None, None), |p| (Some(p.indexed_s), p.full_scan_s));
    let seconds = |s: Option<f64>| s.map_or("null".into(), |s| format!("{s:.6}"));
    let (speedup, exact) = match indexed.zip(full_scan) {
        Some((i, f)) => (format!("{:.2}", f / i), "true"),
        None => ("null".into(), "null"),
    };
    format!(
        ",\n  \"{prefix}_vms\": {vms},\n  \"{prefix}_servers\": {servers},\n  \
         \"{prefix}_indexed_seconds\": {},\n  \"{prefix}_full_scan_seconds\": {},\n  \
         \"{prefix}_index_speedup\": {speedup},\n  \"{prefix}_placement_exact\": {exact},\n  \
         \"{prefix}_carried_forward\": {carried_forward}",
        seconds(indexed),
        seconds(full_scan),
    )
}

/// Production-scale point: 2000 VMs on 500 servers. Times the optimised
/// MIEC (delta scoring + candidate index) against the reference
/// implementation (full scan, clone-and-rescan scoring), checks
/// placement equivalence, gates against the committed `BENCH_miec.json`
/// and writes the fresh measurements under `target/`.
///
/// Equivalence is asserted in two layers, because they have different
/// strength guarantees:
///
/// * the candidate index is *exactly* placement-preserving (standby
///   servers of one spec class score bit-identically), so indexed vs
///   unpruned must match byte for byte;
/// * delta scoring vs the clone-and-rescan reference agree except where
///   two servers offer the *same* marginal cost: the delta path computes
///   the tie exactly and takes the lowest id, while the reference's
///   difference-of-sums carries ~1e-13 rounding noise that can break the
///   tie either way. Any divergence is therefore certified to be such an
///   FP tie (both arithmetics agree the scores are equal within 1e-9).
fn bench_miec_at_scale(c: &mut Criterion) {
    const VMS: usize = 2000;
    const SERVERS: usize = 500;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_miec.json");
    // The gate compares the reference-normalized ratio, so machine-speed
    // drift between the recording and the checking run cancels out.
    let committed_ratio = committed_bench_field(path, "optimised_seconds")
        .zip(committed_bench_field(path, "reference_seconds"))
        .map(|(o, r)| o / r);
    let problem = WorkloadConfig::new(VMS, SERVERS)
        .mean_interarrival(4.0)
        .generate(1)
        .expect("instance");

    let mut group = c.benchmark_group("miec_2000vms_500servers");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("optimised"), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let a = Miec::new().allocate(black_box(&problem), &mut rng).unwrap();
            black_box(a.total_cost())
        })
    });
    // Metrics-on scale point: same scan with counters and histograms
    // recording (the metrics-only tracer keeps no spans or explain
    // records) — the cost of turning telemetry on.
    group.bench_function(BenchmarkId::from_parameter("instrumented"), |b| {
        b.iter(|| {
            let metrics = MetricsRegistry::new();
            let a = Miec::new()
                .allocate_traced(black_box(&problem), &metrics, &DiscardTracer)
                .unwrap();
            black_box(a.total_cost())
        })
    });
    group.finish();

    let mut rng = StdRng::seed_from_u64(7);
    let fast = Miec::new().allocate(&problem, &mut rng).unwrap();
    let unpruned = Miec::new()
        .without_pruning()
        .allocate(&problem, &mut rng)
        .unwrap();
    assert_eq!(
        fast.placement(),
        unpruned.placement(),
        "the candidate index changed placements at scale"
    );
    assert_eq!(
        fast.total_cost().to_bits(),
        unpruned.total_cost().to_bits(),
        "the candidate index changed the total cost at scale"
    );
    let slow = Miec::reference().allocate(&problem, &mut rng).unwrap();
    let placements_identical = fast.placement() == slow.placement();
    if !placements_identical {
        certify_first_divergence_is_fp_tie(&problem, &fast, &slow);
        let rel = (fast.total_cost() - slow.total_cost()).abs() / slow.total_cost();
        assert!(
            rel < 1e-6,
            "optimised and reference total costs diverged: rel diff {rel:e}"
        );
    }

    // One instrumented run: the scan counters that characterise this
    // instance, plus a decision-equivalence check against the plain run.
    let metrics = MetricsRegistry::new();
    let observed = Miec::new()
        .allocate_traced(&problem, &metrics, &DiscardTracer)
        .unwrap();
    assert_eq!(
        observed.placement(),
        fast.placement(),
        "instrumentation changed MIEC placements at scale"
    );
    let candidates_considered = metrics.counter("miec.candidates_considered");
    let spec_class_pruned = metrics.counter("miec.spec_class_pruned");
    let fp_ties = metrics.counter("miec.fp_ties");

    // Optimised and reference timed interleaved: their ratio is what
    // the regression gate compares across runs.
    let pair = time_pair_best(
        15,
        || {
            let mut rng = StdRng::seed_from_u64(7);
            Miec::new().allocate(&problem, &mut rng).unwrap().total_cost()
        },
        || {
            let mut rng = StdRng::seed_from_u64(7);
            Miec::reference()
                .allocate(&problem, &mut rng)
                .unwrap()
                .total_cost()
        },
    );
    let (optimised_s, reference_s) = (pair.best_f, pair.best_g);
    // The metrics-only path against the plain run, interleaved too: a
    // best-of-N of each, timed minutes apart, would divide host drift.
    let instrumented_pair = time_pair_best(
        7,
        || {
            let mut rng = StdRng::seed_from_u64(7);
            Miec::new()
                .allocate(&problem, &mut rng)
                .unwrap()
                .total_cost()
        },
        || {
            let metrics = MetricsRegistry::new();
            Miec::new()
                .allocate_traced(&problem, &metrics, &DiscardTracer)
                .unwrap()
                .total_cost()
        },
    );
    let instrumented_s = instrumented_pair.best_g;
    let instrumentation_overhead = instrumented_s / instrumented_pair.best_f - 1.0;
    // Provenance tracing at the same point: the statically disabled
    // NoopTracer entry point (the shipping default — must cost nothing
    // beyond the plain `allocate` it compiles to) and the enabled
    // CollectingTracer path (a span per decision plus one explain
    // record per placement) against the metrics-only DiscardTracer.
    // Each ratio comes from an interleaved pair against its baseline
    // so scheduler drift cancels, and the enabled run reuses one warm
    // tracer (reset between runs) so the gate measures steady-state
    // recording, not first-run page-ins.
    // Wall-clock ratios on shared machines still see multi-10ms
    // interference bursts that outlast one whole pair block, so the
    // measurement retries up to three times and keeps the best pair —
    // a genuine regression is persistent and fails all three.
    // ESVM_REQUIRE_TRACE_OVERHEAD=1 gates both at ≤10%.
    let mut warm_tracer = esvm_obs::CollectingTracer::new();
    let mut noop_best = (1.0, f64::INFINITY);
    let mut trace_best = (1.0, f64::INFINITY);
    for _ in 0..3 {
        let noop_pair = time_pair_best(
            7,
            || {
                let mut rng = StdRng::seed_from_u64(7);
                Miec::new()
                    .allocate(&problem, &mut rng)
                    .unwrap()
                    .total_cost()
            },
            || {
                let metrics = MetricsRegistry::new();
                Miec::new()
                    .allocate_traced(&problem, &metrics, &NoopTracer)
                    .unwrap()
                    .total_cost()
            },
        );
        if noop_pair.best_g / noop_pair.best_f < noop_best.1 / noop_best.0 {
            noop_best = (noop_pair.best_f, noop_pair.best_g);
        }
        let trace_pair = time_pair_best(
            7,
            || {
                let metrics = MetricsRegistry::new();
                Miec::new()
                    .allocate_traced(&problem, &metrics, &DiscardTracer)
                    .unwrap()
                    .total_cost()
            },
            || {
                let metrics = MetricsRegistry::new();
                warm_tracer.reset();
                Miec::new()
                    .allocate_traced(&problem, &metrics, &warm_tracer)
                    .unwrap()
                    .total_cost()
            },
        );
        if trace_pair.best_g / trace_pair.best_f < trace_best.1 / trace_best.0 {
            trace_best = (trace_pair.best_f, trace_pair.best_g);
        }
        if noop_best.1 / noop_best.0 - 1.0 <= 0.10 && trace_best.1 / trace_best.0 - 1.0 <= 0.10
        {
            break;
        }
    }
    let (trace_noop_s, trace_enabled_s) = (noop_best.1, trace_best.1);
    let trace_noop_overhead = trace_noop_s / noop_best.0 - 1.0;
    let trace_overhead = trace_enabled_s / trace_best.0 - 1.0;
    println!(
        "miec tracing @ {VMS} VMs: noop tracer {trace_noop_s:.4} s ({:+.1}% vs plain), \
         collecting tracer {trace_enabled_s:.4} s ({:+.1}% vs metrics-only)",
        trace_noop_overhead * 100.0,
        trace_overhead * 100.0
    );
    if std::env::var("ESVM_REQUIRE_TRACE_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            trace_noop_overhead <= 0.10,
            "NoopTracer path exceeded 10% overhead: {:+.1}%",
            trace_noop_overhead * 100.0
        );
        assert!(
            trace_overhead <= 0.10,
            "enabled tracing exceeded 10% overhead: {:+.1}%",
            trace_overhead * 100.0
        );
    }
    // The full scan at the same point, and the index's scale points.
    // The 20k point is cheap enough to measure on every bench run; the
    // 100k and 1M points are opt-in via ESVM_SCALE_BENCH=1. At 1M the
    // full-scan oracle would score 10^11 server-VM pairs (hours), so
    // that point times the index alone. Skipped points carry their
    // committed measurements forward, marked so, so a filtered bench
    // run never erases them.
    let host_parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let unpruned_s = time_best(3, || {
        let mut rng = StdRng::seed_from_u64(7);
        Miec::new()
            .without_pruning()
            .allocate(&problem, &mut rng)
            .unwrap()
            .total_cost()
    });
    let scale_bench = std::env::var("ESVM_SCALE_BENCH").as_deref() == Ok("1");
    let mut scale_json = String::new();
    for (prefix, vms, servers, runs, always, full_scan) in [
        ("scale_20k", 20_000, 2_000, 3, true, true),
        ("scale_100k", 100_000, 10_000, 2, false, true),
        ("scale_1m", 1_000_000, 100_000, 1, false, false),
    ] {
        let (point, carried_forward) = if always || scale_bench {
            let p = miec_scale_point(vms, servers, 1, runs, full_scan);
            match p.full_scan_s {
                Some(f) => println!(
                    "{prefix}: {vms} VMs / {servers} servers, indexed {:.3} s, full scan \
                     {f:.3} s ({:.2}x), placement exact",
                    p.indexed_s,
                    f / p.indexed_s
                ),
                None => println!("{prefix}: {vms} VMs / {servers} servers, indexed {:.3} s", p.indexed_s),
            }
            (Some(p), false)
        } else {
            let committed = committed_bench_field(path, &format!("{prefix}_indexed_seconds"))
                .map(|indexed_s| ScalePoint {
                    indexed_s,
                    full_scan_s: committed_bench_field(path, &format!("{prefix}_full_scan_seconds")),
                });
            (committed, true)
        };
        scale_json.push_str(&scale_fields(prefix, vms, servers, point, carried_forward));
    }

    let speedup = reference_s / optimised_s;
    println!(
        "miec @ {VMS} VMs / {SERVERS} servers: optimised {optimised_s:.3} s, \
         instrumented {instrumented_s:.3} s ({:+.1}%), reference {reference_s:.3} s, \
         {speedup:.1}x",
        instrumentation_overhead * 100.0
    );
    // Gate at the 5% acceptance margin widened by the ratio noise this
    // very run observed (per-round spread of optimised/reference): the
    // disabled-tracer path must stay within noise of the committed number.
    println!(
        "miec ratio noise this run: {:.1}%",
        pair.ratio_noise * 100.0
    );
    assert_no_regression(
        "miec optimised/reference ratio (no-op tracer)",
        optimised_s / reference_s,
        committed_ratio,
        0.05 + pair.ratio_noise,
    );

    let json = format!(
        "{{\n  \"benchmark\": \"miec_allocation\",\n  \"vms\": {VMS},\n  \"servers\": {SERVERS},\n  \"workload_seed\": 1,\n  \"mean_interarrival\": 4.0,\n  \"optimised_seconds\": {optimised_s:.6},\n  \"instrumented_seconds\": {instrumented_s:.6},\n  \"instrumentation_overhead\": {instrumentation_overhead:.4},\n  \"trace_noop_seconds\": {trace_noop_s:.6},\n  \"trace_noop_overhead\": {trace_noop_overhead:.4},\n  \"trace_seconds\": {trace_enabled_s:.6},\n  \"trace_overhead\": {trace_overhead:.4},\n  \"reference_seconds\": {reference_s:.6},\n  \"speedup\": {speedup:.2},\n  \"host_parallelism\": {host_parallelism},\n  \"unpruned_seconds\": {unpruned_s:.6},\n  \"index_speedup\": {index_speedup:.2},\n  \"candidates_considered\": {candidates_considered},\n  \"spec_class_pruned\": {spec_class_pruned},\n  \"fp_ties\": {fp_ties},\n  \"index_placement_exact\": true,\n  \"placements_identical\": {placements_identical},\n  \"divergences_certified_fp_ties\": true{scale_json}\n}}\n",
        index_speedup = unpruned_s / optimised_s,
    );
    write_fresh_record("BENCH_miec.json", &json);
}

criterion_group!(benches, bench_allocators, bench_scaling, bench_miec_at_scale);
criterion_main!(benches);

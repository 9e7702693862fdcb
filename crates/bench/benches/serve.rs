//! Online serving benchmark: per-decision latency of the `esvm serve`
//! engine at 100k streamed events, gated against the committed
//! `BENCH_serve.json` at the repo root; a run writes its fresh record
//! under `target/`.
//!
//! The headline claim is **sub-10µs mean decision latency**: each
//! arrival runs the full O(log K)-scored MIEC scan (spec-class pruning
//! + incremental cost) plus the departure heap drain, and the mean
//! over 100k events must stay below 10µs on commodity hardware
//! (hard-asserted when `ESVM_REQUIRE_SERVE_LATENCY=1`, as the CI
//! `online` job does). The mean and tail (p50/p95/p99/max) come from
//! the same `serve.decision_us` histogram the CLI prints, so the bench
//! measures exactly what a `--metrics-out` run reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_bench::{assert_no_regression, committed_bench_field, write_fresh_record};
use esvm_chaos::FaultPlan;
use esvm_exper::serve::{feed_problem_with_faults, ServeSession};
use esvm_obs::{names::serve as names, MetricsRegistry, NoopTracer};
use esvm_workload::WorkloadConfig;
use std::hint::black_box;

const EVENTS: usize = 100_000;
const SERVERS: usize = 5_000;
const SEED: u64 = 1;

fn config(vms: usize, servers: usize) -> WorkloadConfig {
    WorkloadConfig::new(vms, servers)
        .mean_interarrival(0.05)
        .mean_duration(5.0)
}

/// Group-commit cadence of the journaled benchmark leg: matches the
/// CLI's `--fsync-every` default so the measured overhead is what a
/// default `esvm serve --journal` run pays. At ~400k events/s this is
/// a ~10ms durability window — a crash loses at most that tail, which
/// recovery truncates cleanly.
const FSYNC_EVERY: u32 = 4096;

/// One full serving session over `vms` arrivals (plus their
/// departures), optionally write-ahead journaled; returns the decision
/// histogram and the wall time.
fn run_session(
    vms: usize,
    servers: usize,
    journal: Option<&std::path::Path>,
) -> (esvm_obs::HistogramSummary, f64, u64, u64) {
    let problem = config(vms, servers).generate(SEED).expect("generate");
    let metrics = MetricsRegistry::new();
    let fleet = problem.servers().to_vec();
    let mut session = ServeSession::new(&fleet, &metrics, &NoopTracer);
    if let Some(path) = journal {
        std::fs::remove_file(path).ok();
        session.set_journal(Some(
            esvm_exper::journal::JournalWriter::create(path, &fleet, FSYNC_EVERY)
                .expect("create journal"),
        ));
    }
    let start = std::time::Instant::now();
    black_box(feed_problem_with_faults(&problem, &FaultPlan::empty(), &mut session));
    session.finish().expect("final checkpoint");
    let total = start.elapsed().as_secs_f64();
    let hist = metrics
        .histogram(names::DECISION_US)
        .expect("decision histogram");
    (hist, total, metrics.counter(names::PLACED), metrics.counter(names::REJECTED))
}

fn bench_serve(c: &mut Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let committed_mean = committed_bench_field(path, "decision_mean_us");

    // Criterion samples a smaller session so its repeats stay cheap;
    // the recorded numbers come from the full 100k run below.
    let mut group = c.benchmark_group("serve_decision");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("10k_events"), |b| {
        b.iter(|| black_box(run_session(10_000, 500, None).1))
    });
    group.finish();

    // Wall-time legs run as interleaved (plain, journaled) pairs: the
    // overhead ratio divides two sub-second wall times, so slow drift
    // in machine load would swamp the quantity under test if the legs
    // ran back-to-back in blocks. Each pair shares its moment's load;
    // the minimum paired ratio is the comparison the machine interfered
    // with least.
    let journal_path = std::env::temp_dir().join("esvm_bench_serve.esvj");
    let mut pairs = Vec::new();
    for _ in 0..3 {
        pairs.push((
            run_session(EVENTS, SERVERS, None),
            run_session(EVENTS, SERVERS, Some(&journal_path)),
        ));
    }
    std::fs::remove_file(&journal_path).ok();
    let (hist, total_s, placed, rejected) = pairs
        .iter()
        .map(|(p, _)| p.clone())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("pairs");
    let mean_us = hist.mean();
    let throughput = EVENTS as f64 / total_s;
    println!(
        "serve at {EVENTS} events on {SERVERS} servers: mean {mean_us:.2}µs, \
         p50 {:.2}µs, p95 {:.2}µs, p99 {:.2}µs, max {:.2}µs; \
         {placed} placed / {rejected} rejected in {total_s:.2}s ({throughput:.0} events/s)",
        hist.p50, hist.p95, hist.p99, hist.max
    );

    // Regression gate against the committed mean. Latency is machine
    // dependent, so the margin is generous; the hard product claim is
    // the 10µs ceiling below.
    assert_no_regression("serve mean decision latency", mean_us, committed_mean, 1.0);
    if std::env::var("ESVM_REQUIRE_SERVE_LATENCY").as_deref() == Ok("1") {
        assert!(
            mean_us < 10.0,
            "mean decision latency {mean_us:.2}µs breaches the 10µs ceiling"
        );
    }

    // Journaled leg: same stream with the write-ahead journal on at the
    // default group-commit cadence. The durability tax must stay within
    // 10% of the journal-off wall time (hard-asserted when
    // `ESVM_REQUIRE_JOURNAL_OVERHEAD=1`, as the CI `resilience` job
    // does).
    let (j_hist, j_total_s, j_placed, j_rejected) = pairs
        .iter()
        .map(|(_, j)| j.clone())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("pairs");
    assert_eq!(
        (placed, rejected),
        (j_placed, j_rejected),
        "journaling must not change decisions"
    );
    let overhead = pairs
        .iter()
        .map(|((_, p, _, _), (_, j, _, _))| j / p)
        .min_by(f64::total_cmp)
        .expect("pairs");
    println!(
        "journaled (fsync every {FSYNC_EVERY}): mean {:.2}µs, {j_total_s:.2}s total \
         — {:.1}% overhead vs journal-off",
        j_hist.mean(),
        (overhead - 1.0) * 100.0
    );
    if std::env::var("ESVM_REQUIRE_JOURNAL_OVERHEAD").as_deref() == Ok("1") {
        assert!(
            overhead <= 1.10,
            "journal overhead {:.1}% breaches the 10% budget",
            (overhead - 1.0) * 100.0
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"events\": {EVENTS},\n  \"servers\": {SERVERS},\n  \"workload_seed\": {SEED},\n  \"placed\": {placed},\n  \"rejected\": {rejected},\n  \"decision_mean_us\": {mean_us:.4},\n  \"decision_p50_us\": {:.4},\n  \"decision_p95_us\": {:.4},\n  \"decision_p99_us\": {:.4},\n  \"decision_max_us\": {:.4},\n  \"total_seconds\": {total_s:.6},\n  \"throughput_events_per_second\": {throughput:.0},\n  \"journal_fsync_every\": {FSYNC_EVERY},\n  \"journal_total_seconds\": {j_total_s:.6},\n  \"journal_overhead_ratio\": {overhead:.4}\n}}\n",
        hist.p50, hist.p95, hist.p99, hist.max,
    );
    write_fresh_record("BENCH_serve.json", &json);
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);

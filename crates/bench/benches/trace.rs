//! Trace-pipeline benchmark: columnar ESVT ingestion against the text
//! parser, gated against the committed `BENCH_trace.json` at the repo
//! root; a run writes its fresh record under `target/`.
//!
//! Three claims are measured and pinned:
//!
//! * **Ingest throughput** — streaming a trace from disk through
//!   [`esvm_workload::esvt::TraceReader`] vs `read_to_string` +
//!   `trace::from_text`. The committed `ingest_speedup` must stay ≥ 5×
//!   (hard-asserted when `ESVM_REQUIRE_TRACE_SPEEDUP=1`), and the
//!   fresh esvt/text ratio is regression-gated against the committed
//!   one — ratios survive machine-speed drift, absolute seconds don't.
//! * **O(live) memory** — `ReadStats::peak_resident` equals the block
//!   length at 100k *and* (opt-in) 1M rows: the resident set does not
//!   grow with the trace.
//! * **Query pruning** — an `esvm query` start-predicate over the same
//!   file decodes only the tail blocks; the skip fraction is recorded.
//!
//! The 1M-row points take a while to generate and are opt-in via
//! `ESVM_SCALE_BENCH=1`; without it the committed values are carried
//! forward so the record never loses its scale columns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esvm_bench::{assert_no_regression, committed_bench_field, time_pair_best, write_fresh_record};
use esvm_workload::{esvt, trace, WorkloadConfig};
use std::hint::black_box;
use std::path::PathBuf;

const ROWS: usize = 100_000;
const SERVERS: usize = 5_000;
const SEED: u64 = 1;

fn config(rows: usize, servers: usize) -> WorkloadConfig {
    WorkloadConfig::new(rows, servers)
        .mean_interarrival(0.05)
        .mean_duration(5.0)
}

struct Staged {
    text_path: PathBuf,
    esvt_path: PathBuf,
    text_bytes: u64,
    esvt_bytes: u64,
}

/// Writes one workload to disk in both formats. The ESVT side goes
/// through the streaming generator (never materialising the VM list),
/// the text side through `generate` + `to_text`; the two encode the
/// identical instance (proven bit-for-bit in the workload tests).
fn stage(rows: usize, servers: usize, tag: &str) -> Staged {
    let dir = std::env::temp_dir();
    let text_path = dir.join(format!("esvm-bench-{tag}-{rows}.trace"));
    let esvt_path = dir.join(format!("esvm-bench-{tag}-{rows}.esvt"));
    let cfg = config(rows, servers);
    cfg.generate_esvt_file(SEED, &esvt_path).expect("stream-generate esvt");
    let problem = cfg.generate(SEED).expect("generate");
    std::fs::write(&text_path, trace::to_text(&problem)).expect("write text");
    let meta = |p: &PathBuf| std::fs::metadata(p).expect("staged file").len();
    Staged {
        text_bytes: meta(&text_path),
        esvt_bytes: meta(&esvt_path),
        text_path,
        esvt_path,
    }
}

/// Full text ingest: bytes off disk → validated `AllocationProblem`.
fn ingest_text(path: &PathBuf) -> f64 {
    let text = std::fs::read_to_string(path).expect("read text");
    let problem = trace::from_text(&text).expect("parse text");
    problem.vm_count() as f64
}

/// Streaming ESVT ingest: bytes off disk → every record decoded and
/// validated, one block resident at a time. This is the allocator-feed
/// path (`stream_records`-shaped), the fair counterpart of a full text
/// parse; it also hard-checks the O(live) ceiling on every call.
fn ingest_esvt_streaming(path: &PathBuf) -> f64 {
    let mut reader = esvt::TraceReader::open(path).expect("open esvt");
    let block_len = reader.block_len();
    let mut n = 0u64;
    let stats = reader
        .for_each_batch(|batch| n += batch.len() as u64)
        .expect("stream esvt");
    assert!(
        stats.peak_resident <= block_len,
        "peak resident {} exceeded the block length {}",
        stats.peak_resident,
        block_len
    );
    n as f64
}

/// Materialising ESVT ingest: same bytes, but collected into a
/// validated `AllocationProblem` like the text path.
fn ingest_esvt_problem(path: &PathBuf) -> f64 {
    let problem = esvt::read_esvt_file(path).expect("read esvt");
    problem.vm_count() as f64
}

/// Times one staged size and returns
/// `(text_s, esvt_stream_s, esvt_problem_s, ratio_noise, peak_resident)`.
fn measure(staged: &Staged, rounds: usize) -> (f64, f64, f64, f64, usize) {
    let pair = time_pair_best(
        rounds,
        || ingest_text(&staged.text_path),
        || ingest_esvt_streaming(&staged.esvt_path),
    );
    let mut problem_s = f64::INFINITY;
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        black_box(ingest_esvt_problem(&staged.esvt_path));
        problem_s = problem_s.min(start.elapsed().as_secs_f64());
    }
    let mut reader = esvt::TraceReader::open(&staged.esvt_path).expect("open esvt");
    let stats = reader.for_each_batch(|_| ()).expect("stream esvt");
    (pair.best_f, pair.best_g, problem_s, pair.ratio_noise, stats.peak_resident)
}

fn bench_trace_pipeline(c: &mut Criterion) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    let committed_ratio = committed_bench_field(path, "esvt_stream_seconds")
        .zip(committed_bench_field(path, "text_parse_seconds"))
        .map(|(e, t)| e / t);

    let staged = stage(ROWS, SERVERS, "main");

    let mut group = c.benchmark_group(format!("trace_ingest_{ROWS}_rows"));
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("text_from_disk"), |b| {
        b.iter(|| black_box(ingest_text(&staged.text_path)))
    });
    group.bench_function(BenchmarkId::from_parameter("esvt_stream_from_disk"), |b| {
        b.iter(|| black_box(ingest_esvt_streaming(&staged.esvt_path)))
    });
    group.bench_function(BenchmarkId::from_parameter("esvt_to_problem"), |b| {
        b.iter(|| black_box(ingest_esvt_problem(&staged.esvt_path)))
    });
    group.finish();

    let (text_s, esvt_s, esvt_problem_s, noise, peak) = measure(&staged, 7);
    let speedup = text_s / esvt_s;
    let size_ratio = staged.esvt_bytes as f64 / staged.text_bytes as f64;
    println!(
        "trace ingest at {ROWS} rows: text {text_s:.4}s, esvt stream {esvt_s:.4}s \
         ({speedup:.1}x), esvt→problem {esvt_problem_s:.4}s; \
         esvt file is {:.0}% of the text size; peak resident {peak} records",
        size_ratio * 100.0
    );

    // Regression gate on the esvt/text ratio (lower is better), with
    // the margin widened by the noise observed in this very run.
    assert_no_regression(
        "esvt/text ingest ratio",
        esvt_s / text_s,
        committed_ratio,
        0.25 + noise,
    );
    // The headline claim, asserted hard where the environment says so
    // (CI sets ESVM_REQUIRE_TRACE_SPEEDUP=1 on the trace-pipeline job).
    if std::env::var("ESVM_REQUIRE_TRACE_SPEEDUP").as_deref() == Ok("1") {
        assert!(
            speedup >= 5.0,
            "streaming ESVT ingest is only {speedup:.2}x the text parser (need ≥5x)"
        );
    }

    // Query pruning over the same file: count the arrivals in the last
    // tenth of the horizon — the engine must skip the leading blocks.
    let max_start = {
        let mut reader = esvt::TraceReader::open(&staged.esvt_path).expect("open esvt");
        let mut max = 0u32;
        let mut buf = Vec::new();
        while let Some(stats) = reader.next_batch_into(&mut buf).expect("scan") {
            max = max.max(stats.max_start);
        }
        max
    };
    let cutoff = u64::from(max_start) * 9 / 10;
    let plan = format!(
        "load {} | filter start >= {cutoff} | agg count",
        staged.esvt_path.display()
    );
    let start = std::time::Instant::now();
    let rendered = esvm_exper::query::run_query(&plan).expect("query");
    let query_s = start.elapsed().as_secs_f64();
    let footer = rendered.lines().last().unwrap_or("").to_owned();
    println!("query tail-count in {query_s:.4}s: {footer}");
    let skipped = footer
        .split(" skipped")
        .next()
        .and_then(|s| s.rsplit(' ').next())
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0);
    let blocks = (ROWS as f64 / esvt::DEFAULT_BLOCK_LEN as f64).ceil();
    let skip_fraction = skipped / blocks;
    assert!(
        skipped > 0.0,
        "the tail query decoded every block — min/max pruning is not engaging"
    );

    // Scale point: 1M rows. Opt-in; carried forward otherwise.
    let scale_bench = std::env::var("ESVM_SCALE_BENCH").as_deref() == Ok("1");
    const SCALE_ROWS: usize = 1_000_000;
    let scale = if scale_bench {
        let staged = stage(SCALE_ROWS, 50_000, "scale");
        let (t, e, p, _, peak) = measure(&staged, 2);
        assert_eq!(
            peak,
            esvt::DEFAULT_BLOCK_LEN,
            "1M-row peak resident must equal the block length"
        );
        std::fs::remove_file(&staged.text_path).ok();
        std::fs::remove_file(&staged.esvt_path).ok();
        Some((t, e, p, peak))
    } else {
        println!("1M-row scale point skipped (set ESVM_SCALE_BENCH=1); carrying committed values forward");
        committed_bench_field(path, "scale_1m_text_parse_seconds")
            .zip(committed_bench_field(path, "scale_1m_esvt_stream_seconds"))
            .zip(committed_bench_field(path, "scale_1m_esvt_problem_seconds"))
            .zip(committed_bench_field(path, "scale_1m_peak_resident"))
            .map(|(((t, e), p), peak)| (t, e, p, peak as usize))
    };
    let scale_json = match scale {
        Some((t, e, p, peak)) => format!(
            ",\n  \"scale_1m_rows\": {SCALE_ROWS},\n  \"scale_1m_text_parse_seconds\": {t:.6},\n  \"scale_1m_esvt_stream_seconds\": {e:.6},\n  \"scale_1m_esvt_problem_seconds\": {p:.6},\n  \"scale_1m_ingest_speedup\": {:.2},\n  \"scale_1m_peak_resident\": {peak}",
            t / e
        ),
        None => String::new(),
    };

    let json = format!(
        "{{\n  \"benchmark\": \"trace_pipeline\",\n  \"rows\": {ROWS},\n  \"servers\": {SERVERS},\n  \"workload_seed\": {SEED},\n  \"text_bytes\": {},\n  \"esvt_bytes\": {},\n  \"esvt_size_ratio\": {size_ratio:.4},\n  \"text_parse_seconds\": {text_s:.6},\n  \"esvt_stream_seconds\": {esvt_s:.6},\n  \"esvt_problem_seconds\": {esvt_problem_s:.6},\n  \"ingest_speedup\": {speedup:.2},\n  \"peak_resident\": {peak},\n  \"block_len\": {},\n  \"query_tail_seconds\": {query_s:.6},\n  \"query_blocks_skipped_fraction\": {skip_fraction:.4}{scale_json}\n}}\n",
        staged.text_bytes,
        staged.esvt_bytes,
        esvt::DEFAULT_BLOCK_LEN,
    );
    write_fresh_record("BENCH_trace.json", &json);
    std::fs::remove_file(&staged.text_path).ok();
    std::fs::remove_file(&staged.esvt_path).ok();
}

criterion_group!(benches, bench_trace_pipeline);
criterion_main!(benches);

//! # esvm-bench
//!
//! Criterion benchmarks for the esvm workspace. One bench target per
//! paper artefact (`fig2` … `fig9`, `tables`) plus micro-benches for the
//! allocators (`allocators`) and the exact solver (`ilp`).
//!
//! Every `figN` bench **regenerates the figure** in quick mode and
//! prints it before timing a representative sweep point, so
//! `cargo bench` reproduces the paper's series as a side effect; the
//! full-scale regeneration lives in the `esvm` CLI (`esvm fig2 …`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use esvm_core::{Allocator, AllocatorKind, Miec};
use esvm_exper::runner::RunError;
use esvm_exper::{ExpOptions, Figure, MonteCarlo};
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options used for the printed quick-mode regeneration.
pub fn regen_options() -> ExpOptions {
    ExpOptions {
        seeds: 6,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        quick: true,
    }
}

/// Regenerates one figure in quick mode and prints it (used by every
/// `figN` bench before timing).
pub fn print_regenerated(
    name: &str,
    f: fn(&ExpOptions) -> Result<Figure, RunError>,
) {
    match f(&regen_options()) {
        Ok(figure) => println!("\n--- regenerated (quick mode) ---\n{figure}"),
        Err(e) => println!("\n--- {name} regeneration failed: {e} ---"),
    }
}

/// The paper's flagship comparison at one sweep point: MIEC vs FFPS over
/// a few seeds. This is what the `figN` benches time.
pub fn comparison_at(config: &WorkloadConfig, seeds: u64) -> f64 {
    let point = MonteCarlo::new(seeds, 1)
        .compare(config, &[AllocatorKind::Miec, AllocatorKind::Ffps])
        .expect("comparison");
    point.reduction_ratio(AllocatorKind::Ffps, AllocatorKind::Miec)
}

/// A mid-sweep configuration for a figure's representative point.
pub fn representative_config(vms: usize) -> WorkloadConfig {
    WorkloadConfig::new(vms, (vms / 2).max(1))
        .mean_interarrival(4.0)
        .mean_duration(5.0)
        .transition_time(1.0)
}

/// Lower-envelope (minimum) wall-clock seconds over `runs` executions
/// of `f` — far less sensitive to scheduler and frequency noise than a
/// mean or median.
pub fn time_best<F: FnMut() -> f64>(runs: usize, mut f: F) -> f64 {
    (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One MIEC scale point: the candidate-index scan against the
/// full-scan oracle on the same instance.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Lower-envelope seconds of [`Miec::new`] (the candidate index).
    pub indexed_s: f64,
    /// Lower-envelope seconds of [`Miec::without_pruning`] (every
    /// server visited per VM), when the oracle ran.
    pub full_scan_s: Option<f64>,
}

/// Measures one [`ScalePoint`] on the `seed` instance of `vms` VMs over
/// `servers` servers (mean interarrival 4). With `full_scan`, the first
/// round of each engine is also the equivalence check: placements and
/// total cost must be bit-identical, or this panics — a recorded timing
/// can never come from a divergent run. Further rounds (up to `runs`)
/// only tighten the lower envelopes. Without it only the index runs
/// (the oracle scores `vms × servers` pairs: hours at 1M × 100k).
pub fn miec_scale_point(
    vms: usize,
    servers: usize,
    seed: u64,
    runs: usize,
    full_scan: bool,
) -> ScalePoint {
    let problem = WorkloadConfig::new(vms, servers)
        .mean_interarrival(4.0)
        .generate(seed)
        .expect("instance");
    let run = |miec: &Miec| {
        let mut rng = StdRng::seed_from_u64(7);
        miec.allocate(&problem, &mut rng).expect("allocation")
    };
    let (indexed, oracle) = (Miec::new(), Miec::new().without_pruning());
    let start = std::time::Instant::now();
    let a = run(&indexed);
    let mut indexed_s = start.elapsed().as_secs_f64();
    let mut full_scan_s = full_scan.then(|| {
        let start = std::time::Instant::now();
        let b = run(&oracle);
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            a.placement(),
            b.placement(),
            "indexed MIEC diverged from the full scan at {vms} VMs / {servers} servers"
        );
        assert_eq!(
            a.total_cost().to_bits(),
            b.total_cost().to_bits(),
            "indexed MIEC cost diverged at {vms} VMs / {servers} servers"
        );
        seconds
    });
    drop(a);
    if runs > 1 {
        indexed_s = indexed_s.min(time_best(runs - 1, || run(&indexed).total_cost()));
        full_scan_s = full_scan_s
            .map(|s| s.min(time_best(runs - 1, || run(&oracle).total_cost())));
    }
    ScalePoint {
        indexed_s,
        full_scan_s,
    }
}

/// Result of [`time_pair_best`]: lower envelopes of two interleaved
/// measurements plus a live estimate of how noisy their ratio is on
/// this machine right now.
#[derive(Debug, Clone, Copy)]
pub struct PairTiming {
    /// Minimum observed seconds of the first closure.
    pub best_f: f64,
    /// Minimum observed seconds of the second closure.
    pub best_g: f64,
    /// Relative spread `median / min − 1` of the per-round ratios
    /// `f_i / g_i` — the measurement noise the regression gate must
    /// tolerate on top of its margin. The median (not the max) keeps a
    /// single perturbed round from inflating the estimate.
    pub ratio_noise: f64,
}

/// Lower-envelope seconds for two closures executed *alternately* for
/// `rounds` rounds. Interleaving makes both measurements see the same
/// machine conditions, so their ratio is stable across machine-speed
/// drift — which is what the regression gates compare (see
/// [`assert_no_regression`]); the per-round ratio spread is returned as
/// [`PairTiming::ratio_noise`] so gates can widen their margin by the
/// noise actually observed.
pub fn time_pair_best<F, G>(rounds: usize, mut f: F, mut g: G) -> PairTiming
where
    F: FnMut() -> f64,
    G: FnMut() -> f64,
{
    let mut best_f = f64::INFINITY;
    let mut best_g = f64::INFINITY;
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        let sf = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        std::hint::black_box(g());
        let sg = start.elapsed().as_secs_f64();
        best_f = best_f.min(sf);
        best_g = best_g.min(sg);
        ratios.push(sf / sg);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio_noise = if ratios.is_empty() {
        0.0
    } else {
        ratios[ratios.len() / 2] / ratios[0] - 1.0
    };
    PairTiming { best_f, best_g, ratio_noise }
}

/// Writes a freshly measured record `name` (`BENCH_*.json`) to the
/// workspace's `target/` directory, so a run never rewrites the
/// committed record at the repository root that its gates compare
/// against. To move a baseline, copy the fresh record over the
/// committed one.
pub fn write_fresh_record(name: &str, json: &str) {
    let path = format!("{}/../../target/{name}", env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {path}: {e}");
    }
}

/// Reads one numeric field from a committed `BENCH_*.json` record.
///
/// The records are flat JSON objects written by the benches themselves,
/// so a plain textual scan suffices (the workspace deliberately carries
/// no JSON parser). Returns `None` when the file or the field is
/// missing or unparsable.
pub fn committed_bench_field(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{field}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    value.parse().ok()
}

/// Asserts that a freshly measured cost (seconds, or a
/// reference-normalized ratio — lower is better) has not regressed more
/// than `margin` (a fraction, e.g. `0.05`) against the committed
/// baseline. A missing baseline only prints a notice — first runs and
/// fresh clones must not fail.
///
/// The benches gate *reference-normalized ratios*
/// (`optimised / reference`, both timed interleaved in the same run)
/// rather than raw wall-clock: machine-speed drift between the
/// baseline-recording run and the checking run then cancels out, while
/// a genuine slowdown of the optimised path still trips the gate.
///
/// # Panics
///
/// Panics when `fresh` exceeds `committed × (1 + margin)`.
pub fn assert_no_regression(label: &str, fresh: f64, committed: Option<f64>, margin: f64) {
    let Some(baseline) = committed else {
        println!("{label}: no committed baseline, skipping regression check");
        return;
    };
    let limit = baseline * (1.0 + margin);
    assert!(
        fresh < limit,
        "{label} regressed: {fresh:.6} vs committed {baseline:.6} (limit {limit:.6})"
    );
    println!(
        "{label}: {fresh:.6} vs committed {baseline:.6} — within {:.0}% margin",
        margin * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_at_returns_a_ratio() {
        let r = comparison_at(&representative_config(20), 2);
        assert!(r.is_finite());
    }

    #[test]
    fn regen_options_are_quick() {
        assert!(regen_options().quick);
    }

    #[test]
    fn committed_bench_field_parses_flat_records() {
        let path = std::env::temp_dir().join("esvm_bench_field_test.json");
        std::fs::write(
            &path,
            "{\n  \"benchmark\": \"x\",\n  \"optimised_seconds\": 0.004531,\n  \"speedup\": 15.59\n}\n",
        )
        .unwrap();
        let p = path.to_str().unwrap();
        assert_eq!(committed_bench_field(p, "optimised_seconds"), Some(0.004531));
        assert_eq!(committed_bench_field(p, "speedup"), Some(15.59));
        assert_eq!(committed_bench_field(p, "missing"), None);
        assert_eq!(committed_bench_field("/nonexistent/x.json", "a"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn regression_guard_accepts_within_margin_and_missing_baselines() {
        assert_no_regression("t", 1.04, Some(1.0), 0.05);
        assert_no_regression("t", 10.0, None, 0.05);
    }

    #[test]
    #[should_panic(expected = "regressed")]
    fn regression_guard_rejects_beyond_margin() {
        assert_no_regression("t", 1.06, Some(1.0), 0.05);
    }

    #[test]
    fn pair_timer_reports_envelopes_and_noise() {
        let pair = time_pair_best(5, || 1.0, || 2.0);
        assert!(pair.best_f > 0.0 && pair.best_g > 0.0);
        assert!(pair.ratio_noise >= 0.0 && pair.ratio_noise.is_finite());
    }
}

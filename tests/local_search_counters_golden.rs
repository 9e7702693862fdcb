//! Golden local-search counters.
//!
//! `local_search_golden.rs` pins what the search decides; this file pins
//! how much work it reports doing on the way: every `local_search.*`
//! counter but `fit_checks` (which counts verdicts computed, not read
//! back from the cache, so it moves with the cache's lifetime by
//! design). The instances are the trajectory golden's two shapes, seeds
//! and starting allocators at 200 VMs, plus 63, 64, 65, 128 and 129 VMs,
//! so that swap rows end just before, on and just after a multiple of 64
//! pairs.
//!
//! On a mismatch the computed table is written to
//! `local_search_counters_golden.actual.csv` in the system temp
//! directory, for inspection.

use esvm::obs::{DiscardTracer, MetricsRegistry};
use esvm::{Allocator, Ffps, LocalSearch, Miec, RoundRobin, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/local_search_counters_golden.csv"
);

/// The pinned counters, in column order (all but `fit_checks`).
const COUNTERS: [&str; 14] = [
    "rounds",
    "relocates_considered",
    "relocates_accepted",
    "relocates_rejected",
    "relocates_reused",
    "relocates_bounded",
    "swaps_considered",
    "swaps_accepted",
    "swaps_rejected",
    "swaps_reused",
    "swaps_bounded",
    "spec_class_pruned",
    "swap_fastpath_hits",
    "swap_probe_rollbacks",
];

/// The table the fixture pins, one CSV row per instance.
fn counters_table() -> String {
    let starts: [(&str, &dyn Allocator); 3] = [
        ("miec", &Miec::new()),
        ("ffps", &Ffps::new()),
        ("round-robin", &RoundRobin::new()),
    ];
    let modes = [
        ("default", LocalSearch::new()),
        ("relocate-only", LocalSearch::new().relocate_only()),
        ("ordered-targets", LocalSearch::new().with_ordered_targets()),
        ("max-rounds-2", LocalSearch::new().with_max_rounds(2)),
    ];
    let mut out = String::from("shape,vms,start,mode,seed");
    for name in COUNTERS {
        write!(out, ",{name}").unwrap();
    }
    out.push('\n');
    for vms in [63, 64, 65, 128, 129, 200] {
        let shapes = [
            ("refine", WorkloadConfig::new(vms, 50).mean_interarrival(0.6).mean_duration(20.0)),
            ("paper", WorkloadConfig::new(vms, 50)),
        ];
        for (shape, config) in &shapes {
            for seed in 1..=3u64 {
                let problem = config.generate(seed).expect("instance");
                for (start, allocator) in &starts {
                    let base = allocator
                        .allocate(&problem, &mut StdRng::seed_from_u64(seed))
                        .expect("base allocation");
                    for (mode, search) in &modes {
                        let metrics = MetricsRegistry::new();
                        search
                            .refine_traced(&base, &metrics, &DiscardTracer)
                            .expect("refinement");
                        write!(out, "{shape},{vms},{start},{mode},{seed}").unwrap();
                        for name in COUNTERS {
                            write!(out, ",{}", metrics.counter(&format!("local_search.{name}")))
                                .unwrap();
                        }
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[test]
fn local_search_counters_match_the_golden_fixture() {
    let got = counters_table();
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("local_search_counters_golden.actual.csv");
        let _ = std::fs::write(&actual, &got);
        let first = got
            .lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map_or_else(String::new, |(g, w)| format!("\n  got:  {g}\n  want: {w}"));
        panic!(
            "local-search counters drifted from tests/fixtures/local_search_counters_golden.csv \
             (computed table written to {}){first}",
            actual.display()
        );
    }
}

//! The chaos smokes on the built `esvm`: a faulted replay at the default
//! workload size exits 0 and writes a non-empty metrics snapshot, and a
//! faulted replay's provenance trace holds one evict record per displaced
//! VM and one repair record per re-placement.

#[path = "support/spawn.rs"]
mod spawn;

use spawn::{esvm, scratch_dir};

#[test]
fn a_faulted_replay_exits_zero_and_writes_its_metrics() {
    let dir = scratch_dir("chaos_smoke");
    esvm(
        &dir,
        &["chaos", "--seed", "7", "--fault-rate", "0.05", "--metrics-out", "chaos-metrics.csv"],
    );
    let metrics = std::fs::metadata(dir.join("chaos-metrics.csv")).expect("metrics file written");
    assert!(metrics.len() > 0, "empty metrics file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_chaos_trace_counts_its_evictions_and_repairs() {
    let dir = scratch_dir("chaos_trace_query");
    esvm(
        &dir,
        &[
            "chaos", "--vms", "200", "--servers", "40", "--seed", "7", "--fault-rate", "0.4",
            "--algos", "miec", "--trace-out", "chaos.trace.jsonl",
        ],
    );
    let counts = esvm(
        &dir,
        &["query", "load chaos.trace.jsonl | filter type eq explain | agg count by:kind"],
    );
    // This run displaces 2 VMs and makes 3 repairs.
    let rows: Vec<Vec<&str>> = counts.lines().map(|l| l.split_whitespace().collect()).collect();
    for row in [["evict", "2"], ["repair", "3"]] {
        assert!(rows.contains(&row.to_vec()), "no {row:?} row in\n{counts}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

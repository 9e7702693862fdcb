//! The serve and gap smoke on the built `esvm`: a generated ESVT trace
//! streamed through `serve` exits 0, reports its decision latency and
//! writes a non-empty metrics snapshot, and `gap` reports competitive
//! ratios on the paper workload and on an adversarial preset.

#[path = "support/spawn.rs"]
mod spawn;

use spawn::{esvm, scratch_dir};

#[test]
fn serve_streams_a_trace_and_gap_reports_its_ratios() {
    let dir = scratch_dir("serve_smoke");
    esvm(
        &dir,
        &["gen", "--vms", "50000", "--servers", "2500", "--interarrival", "0.05", "--out", "serve.esvt"],
    );
    let served = esvm(&dir, &["serve", "--trace", "serve.esvt", "--metrics-out", "serve-metrics.csv"]);
    assert!(served.contains("decision p99"), "{served}");
    let metrics = std::fs::metadata(dir.join("serve-metrics.csv")).expect("metrics file written");
    assert!(metrics.len() > 0, "empty metrics file");

    let gap = esvm(&dir, &["gap", "--vms", "60", "--servers", "20", "--seeds", "5"]);
    assert!(gap.contains("empirical competitive ratio"), "{gap}");
    let adversary = esvm(
        &dir,
        &["gap", "--vms", "40", "--servers", "10", "--seeds", "3", "--adversary", "break-even"],
    );
    assert!(adversary.contains("adversary break-even"), "{adversary}");
    std::fs::remove_dir_all(&dir).ok();
}

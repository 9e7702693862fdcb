//! The chaos smoke on the built `esvm`: a faulted replay at the default
//! workload size exits 0 and writes a non-empty metrics snapshot.

use std::process::{Command, Stdio};

#[test]
fn a_faulted_replay_exits_zero_and_writes_its_metrics() {
    let dir = std::env::temp_dir().join(format!("esvm_chaos_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "chaos",
        "--seed",
        "7",
        "--fault-rate",
        "0.05",
        "--metrics-out",
        "chaos-metrics.csv",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(args)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("esvm runs to its end");
    assert!(
        out.status.success(),
        "esvm {args:?}: exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = std::fs::metadata(dir.join("chaos-metrics.csv")).expect("metrics file written");
    assert!(metrics.len() > 0, "empty metrics file");
    std::fs::remove_dir_all(&dir).ok();
}

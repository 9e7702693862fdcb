//! `esvm` writes its report to a reader that may stop early
//! (`esvm gen … | head -1`): a closed stdout ends the run quietly, not
//! with a panic.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // About 110 KB of trace text, more than a pipe buffer holds, so the
    // write meets the closed pipe however the reader is timed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["gen", "--vms", "5000", "--servers", "100"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esvm starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("esvm runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "esvm panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
}

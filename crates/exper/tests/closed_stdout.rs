//! `esvm` writes its report to a reader that may stop early
//! (`esvm gen … | head -1`): a closed stdout ends the run quietly, and
//! a closed stderr costs only the error message, never a panic.

use esvm_exper::journal::{recover_file, JournalRecord};
use std::fmt::Write as _;
use std::io::Write as _;
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

/// `esvm compare --bogus 2>&1 | head -1` after `head` has gone: the
/// usage error meets a closed stderr and still exits 1, not 101.
#[test]
fn a_closed_stderr_keeps_the_error_exit_code() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["compare", "--bogus"])
        .stdout(Stdio::null())
        .stderr(writer)
        .output()
        .expect("esvm runs to its end");
    assert_eq!(out.status.code(), Some(1), "exit {:?}", out.status);
}

/// `esvm serve … | head -1`: a reply stream closed by its reader ends
/// the session as EOF does — the shutdown checkpoint reaches the
/// journal and the process exits 0.
#[test]
fn a_closed_stdout_ends_a_serve_session_at_its_checkpoint() {
    let journal = std::env::temp_dir().join(format!(
        "esvm_closed_stdout_serve_{}.esvj",
        std::process::id()
    ));
    std::fs::remove_file(&journal).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args([
            "serve",
            "--servers",
            "50",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esvm starts");
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().expect("piped stdin");
    let feeder = std::thread::spawn(move || {
        let mut requests = String::new();
        for id in 0..20_000u32 {
            let _ = writeln!(requests, "REQ {id} {} 5 1.0 2.0", id / 10 + 1);
        }
        // The session stops reading once its replies have nowhere to
        // go, so this write may meet a closed pipe too.
        let _ = stdin.write_all(requests.as_bytes());
    });
    let out = child.wait_with_output().expect("esvm runs to its end");
    feeder.join().expect("the feeder thread ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);

    let recovered = recover_file(&journal).expect("the journal recovers");
    assert!(
        matches!(recovered.records.last(), Some(JournalRecord::Checkpoint(_))),
        "the journal ends with {:?}",
        recovered.records.last()
    );
    assert_eq!(recovered.torn_bytes, 0);
    std::fs::remove_file(&journal).ok();
}

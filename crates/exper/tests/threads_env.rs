//! `ESVM_THREADS` is read only by the commands that fan seeds out over
//! threads: a malformed value fails those (unless `--threads` is given)
//! and leaves every other command alone.

use std::process::{Command, Output, Stdio};

fn esvm_with_bad_threads(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(args)
        .env("ESVM_THREADS", "x")
        .stdin(Stdio::null())
        .output()
        .expect("esvm runs to its end")
}

#[test]
fn commands_that_do_not_fan_out_ignore_esvm_threads() {
    for args in [
        &["table1"][..],
        &["gen", "--vms", "3", "--servers", "2"],
        &["serve", "--servers", "5"],
        &["gap", "--vms", "6", "--servers", "3", "--seeds", "1"],
    ] {
        let out = esvm_with_bad_threads(args);
        assert!(
            out.status.success(),
            "ESVM_THREADS=x esvm {args:?}: exit {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn commands_that_fan_out_reject_a_malformed_esvm_threads() {
    let compare = ["compare", "--vms", "12", "--servers", "6", "--seeds", "2"];
    let out = esvm_with_bad_threads(&compare);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("ESVM_THREADS") && stderr.contains("(or pass --threads N)"), "{stderr}");
    // The flag wins over the variable.
    let out = esvm_with_bad_threads(&[&compare[..], &["--threads", "2"]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

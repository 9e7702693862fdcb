//! Running the built `esvm` from a smoke test.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs `esvm` in `dir` with no stdin; returns its stdout, or panics
/// with its stderr if it fails.
pub fn esvm(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .expect("esvm runs to its end");
    assert!(
        out.status.success(),
        "esvm {args:?}: exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// A fresh directory of the test `name`'s own: the tests of one file
/// run on threads of one process, so a directory they shared would be
/// wiped under a running test.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esvm_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

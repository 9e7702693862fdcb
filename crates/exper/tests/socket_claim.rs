//! `esvm serve --socket PATH` claims PATH before any journal work: a
//! second server on the path of a live session is refused and the live
//! session keeps its client, and a socket that cannot be set up leaves
//! no journal behind.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("esvm_socket_claim_{}_{name}", std::process::id()))
}

fn serve(args: &[&str], socket: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_esvm"));
    cmd.arg("serve")
        .args(args)
        .arg("--socket")
        .arg(socket)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Waits for `child` to exit on its own; a server still running after a
/// minute is killed and the test fails.
fn exit_of(mut child: Child, what: &str) -> Output {
    let start = Instant::now();
    while child.try_wait().expect("the server's status").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} did not exit");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("the server's output")
}

/// A server the test stops if it fails before the server exits.
struct Running(Option<Child>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

fn assert_refused(out: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("{:?}", path.to_str().unwrap())), "{stderr}");
}

#[test]
fn a_second_server_on_a_live_socket_is_refused() {
    let path = temp("live.sock");
    let lock = PathBuf::from(format!("{}.lock", path.display()));
    let journal = temp("second.esvj");
    for p in [&path, &lock, &journal] {
        std::fs::remove_file(p).ok();
    }
    let mut first = Running(Some(serve(&["--servers", "5"], &path).spawn().expect("esvm starts")));
    // Listening, told without connecting: a connection would become the
    // session's one client.
    let start = Instant::now();
    while !path.exists() {
        let status = first.0.as_mut().unwrap().try_wait().unwrap();
        assert!(status.is_none(), "the first server exited");
        assert!(start.elapsed() < Duration::from_secs(60), "the first server never bound");
        std::thread::sleep(Duration::from_millis(5));
    }
    let inode = std::fs::metadata(&path).unwrap().ino();

    let second = serve(&["--servers", "5", "--journal", journal.to_str().unwrap()], &path)
        .spawn()
        .expect("esvm starts");
    assert_refused(&exit_of(second, "the second server"), &path);
    assert!(!journal.exists(), "the refused server created its journal");
    assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "the socket file was replaced");

    // The first server still serves the next client.
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(stream) => break stream,
            Err(e) => {
                assert!(start.elapsed() < Duration::from_secs(60), "no listener: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    (&stream).write_all(b"REQ 0 1 10 1.0 2.0\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    assert!(reply.starts_with("PLACED 0 "), "{reply:?}");
    stream.shutdown(Shutdown::Write).unwrap();
    let out = exit_of(first.0.take().unwrap(), "the first server");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(
        summary.lines().any(|l| l.split_whitespace().eq(["requests", "1"])),
        "{summary}"
    );
    assert!(!path.exists() && !lock.exists(), "the session leaves its files behind");
}

#[test]
fn a_socket_that_cannot_be_set_up_leaves_no_journal_behind() {
    let journal = temp("fresh.esvj");
    std::fs::remove_file(&journal).ok();
    let long = temp(&"s".repeat(120));
    for socket in [Path::new("/nonexistent/dir/s.sock"), &long] {
        let out = exit_of(
            serve(&["--journal", journal.to_str().unwrap()], socket).spawn().unwrap(),
            "a server without a socket",
        );
        assert_refused(&out, socket);
        assert!(!journal.exists(), "a failed socket setup left {journal:?}");
        assert!(!PathBuf::from(format!("{}.lock", socket.display())).exists());
    }

    // A journal resumed with --recover J --journal J stays as it was.
    let mut writer = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["serve", "--servers", "5", "--journal", journal.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    writer.stdin.take().unwrap().write_all(b"REQ 0 1 10 1.0 2.0\n").unwrap();
    assert!(writer.wait().unwrap().success());
    let before = std::fs::read(&journal).unwrap();
    let j = journal.to_str().unwrap();
    let out = exit_of(
        serve(&["--recover", j, "--journal", j], Path::new("/nonexistent/dir/s.sock"))
            .spawn()
            .unwrap(),
        "a resuming server without a socket",
    );
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(std::fs::read(&journal).unwrap(), before);
    std::fs::remove_file(&journal).ok();
}

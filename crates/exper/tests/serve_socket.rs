//! `esvm serve --socket` on a real connection: a pipelining client and
//! a closed-loop client get the replies an in-process session gives,
//! in order, and a path that holds anything but a socket is refused.

#![cfg(unix)]

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use esvm_exper::serve::ServeSession;
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_workload::WorkloadConfig;

/// Fleet size; `esvm serve` generates it from `--servers` and seed 0.
const SERVERS: usize = 50;
/// Lines the client writes back to back before it reads a reply.
const PIPELINED: usize = 3_000;
/// Lines the client then sends one at a time.
const CLOSED: usize = 200;
/// How long any one reply may take.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Staggered arrivals, ten per time step, that all fit the fleet.
fn requests(ids: std::ops::Range<usize>) -> Vec<String> {
    ids.map(|i| format!("REQ {i} {} {} 1.0 2.0\n", i / 10 + 1, 5 + i % 7))
        .collect()
}

fn connect_when_listening(path: &Path, child: &mut Child) -> UnixStream {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(e) => {
                if let Some(status) = child.try_wait().expect("the server's status") {
                    panic!("esvm serve exited ({status}) before listening");
                }
                assert!(
                    start.elapsed() < Duration::from_secs(60),
                    "no listener: {e}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn read_reply(reader: &mut impl BufRead, i: usize) -> String {
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => panic!("the server closed the connection before reply {i}"),
        Ok(_) => reply.trim_end().to_owned(),
        Err(e) => panic!("reply {i} did not arrive within {REPLY_TIMEOUT:?}: {e}"),
    }
}

#[test]
fn pipelined_and_closed_loop_clients_get_in_process_replies_in_order() {
    let path = std::env::temp_dir().join(format!("esvm_serve_socket_{}.sock", std::process::id()));
    // A socket file left by an earlier session is replaced.
    std::fs::remove_file(&path).ok();
    drop(UnixListener::bind(&path).expect("a stale socket file"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["serve", "--servers", &SERVERS.to_string(), "--socket"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esvm starts");
    let stream = connect_when_listening(&path, &mut child);
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(&stream);

    let pipelined = requests(0..PIPELINED);
    let mut replies = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut out = BufWriter::new(&stream);
            for line in &pipelined {
                out.write_all(line.as_bytes())?;
            }
            out.flush()
        });
        let replies: Vec<String> = (0..PIPELINED).map(|i| read_reply(&mut reader, i)).collect();
        writer.join().unwrap().expect("the requests are written");
        replies
    });
    let closed = requests(PIPELINED..PIPELINED + CLOSED);
    for (i, line) in closed.iter().enumerate() {
        (&stream).write_all(line.as_bytes()).unwrap();
        replies.push(read_reply(&mut reader, PIPELINED + i));
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let out = child.wait_with_output().expect("esvm runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!path.exists(), "the socket file is removed at the end");

    let fleet = WorkloadConfig::new(1, SERVERS)
        .transition_time(1.0)
        .generate(0)
        .unwrap()
        .servers()
        .to_vec();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&fleet, &metrics, &NoopTracer);
    for (i, line) in pipelined.iter().chain(&closed).enumerate() {
        let want = session.handle(line.trim_end()).expect("a REQ is answered");
        assert_eq!(replies[i], want, "reply {i} to {line:?}");
    }
    assert!(replies.iter().all(|r| r.starts_with("PLACED")));
    let summary = String::from_utf8_lossy(&out.stdout);
    let energy = format!("{:.0}", session.engine().committed_cost());
    assert!(
        summary
            .lines()
            .any(|l| l.starts_with("energy") && l.split_whitespace().last() == Some(&energy)),
        "want energy {energy} in\n{summary}"
    );
}

/// `esvm serve --socket FILE` where FILE is not a socket: a usage error
/// naming the path, and the file is left as it was.
#[test]
fn a_path_that_is_not_a_socket_is_refused_and_kept() {
    let path = std::env::temp_dir().join(format!("esvm_serve_socket_{}.txt", std::process::id()));
    std::fs::write(&path, "precious\n").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["serve", "--servers", "5", "--socket"])
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esvm starts");
    // A server that took the path would wait for a client forever.
    let start = Instant::now();
    while child.try_wait().expect("the server's status").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().ok();
            child.wait().ok();
            panic!("esvm serve replaced {path:?} and waited for a client");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("esvm runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{:?}", path.to_str().unwrap())),
        "{stderr}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "precious\n");
    std::fs::remove_file(&path).ok();
}

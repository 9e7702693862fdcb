//! A trace served to its end is MIEC's schedule: the energy row of
//! `esvm serve` equals `esvm solve --algos miec`'s total, whether serve
//! streams the trace file or reads its VMs as `REQ` lines on stdin.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use esvm_workload::TraceReader;

fn esvm(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("esvm runs to its end");
    assert!(
        out.status.success(),
        "esvm {args:?}: exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The last field of serve's `energy (W·min)` row.
fn energy_row(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    text.lines()
        .find(|l| l.starts_with("energy (W·min)"))
        .and_then(|l| l.split_whitespace().last())
        .unwrap_or_else(|| panic!("no energy row in\n{text}"))
        .to_owned()
}

#[test]
fn serve_energy_on_file_and_stdin_equals_solve_miec() {
    let trace = std::env::temp_dir().join(format!("esvm_serve_energy_{}.esvt", std::process::id()));
    let trace_arg = trace.to_str().unwrap();
    esvm(&[
        "gen",
        "--vms",
        "2000",
        "--servers",
        "200",
        "--seed",
        "3",
        "--out",
        trace_arg,
    ]);

    let served = energy_row(&esvm(&["serve", "--trace", trace_arg]).stdout);
    let solve = esvm(&["solve", "--trace", trace_arg, "--algos", "miec"]);
    let solve = String::from_utf8_lossy(&solve.stdout);
    let solved = solve
        .lines()
        .find_map(|l| l.strip_prefix("miec "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no miec row in\n{solve}"))
        .to_owned();

    // The same VMs in start order, as a client would send them. The
    // generated fleet of `serve --servers 200` is the trace's.
    let reader = TraceReader::open(&trace).expect("the trace opens");
    let mut requests = String::new();
    for vm in reader.records() {
        let vm = vm.expect("a valid record");
        let d = vm.demand();
        let dur = vm.end() - vm.start() + 1;
        requests += &format!(
            "REQ {} {} {dur} {} {}\n",
            vm.id().index(),
            vm.start(),
            d.cpu,
            d.mem
        );
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_esvm"))
        .args(["serve", "--servers", "200"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("esvm starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let feeder = std::thread::spawn(move || stdin.write_all(requests.as_bytes()));
    let out = child.wait_with_output().expect("esvm runs to its end");
    feeder.join().unwrap().expect("the requests are written");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let placed = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("PLACED "))
        .count();
    assert_eq!(placed, 2000);
    let wired = energy_row(&out.stdout);
    std::fs::remove_file(&trace).ok();

    assert_eq!(served, solved, "serve --trace against solve --algos miec");
    assert_eq!(wired, solved, "serve on stdin against solve --algos miec");
}

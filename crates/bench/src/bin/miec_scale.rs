//! Standalone MIEC scale driver: the candidate-index scan against the
//! full-scan oracle at arbitrary instance sizes.
//!
//! The criterion benches pin their scale points so `BENCH_miec.json`
//! stays comparable across runs; this binary is the free-form
//! counterpart for exploring other sizes (including the 100k- and
//! 1M-VM points) without editing a bench:
//!
//! ```text
//! cargo run --release -p esvm-bench --bin miec_scale -- \
//!     --vms 100000 --servers 10000 [--seed S] [--runs R]
//! ```
//!
//! Every run verifies the indexed placement and total cost are
//! bit-identical to [`Miec::without_pruning`](esvm_core::Miec) before
//! reporting the speedup, so a timing can never silently come from a
//! divergent allocation.

use esvm_bench::miec_scale_point;

struct Args {
    vms: usize,
    servers: usize,
    seed: u64,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        vms: 20_000,
        servers: 2_000,
        seed: 1,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--vms" => args.vms = value("--vms")?,
            "--servers" => args.servers = value("--servers")?,
            "--seed" => args.seed = value("--seed")? as u64,
            "--runs" => args.runs = value("--runs")?.max(1),
            "--help" | "-h" => {
                println!("usage: miec_scale [--vms N] [--servers N] [--seed S] [--runs R]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("miec_scale: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "miec_scale: {} VMs / {} servers, seed {}, best of {} runs",
        args.vms, args.servers, args.seed, args.runs
    );
    let point = miec_scale_point(args.vms, args.servers, args.seed, args.runs, true);
    let full_scan_s = point.full_scan_s.expect("the oracle ran");
    println!(
        "indexed {:.3} s, full scan {full_scan_s:.3} s, speedup {:.2}x, placement exact",
        point.indexed_s,
        full_scan_s / point.indexed_s
    );
}

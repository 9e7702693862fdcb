//! Golden local-search trajectories.
//!
//! Pins, bit for bit, what `LocalSearch` decides on a grid of small
//! instances: two workload shapes (the busy `solve-refine` shape and the
//! paper defaults) × three starting allocators × four search modes × a
//! few seeds. Each row records the number of accepted moves, an FNV-1a
//! hash over the move list (servers, VMs and the `delta` bits), a hash
//! of the final placement and the bits of the refined total cost, so any
//! change to which moves are evaluated, in which order, or with which
//! arithmetic shows up as a changed row.
//!
//! On a mismatch the computed table is written to
//! `local_search_golden.actual.csv` in the system temp directory, for
//! inspection.

use esvm::core::SearchMove;
use esvm::obs::{MetricsRegistry, NoopTracer};
use esvm::{Allocator, Assignment, Ffps, LocalSearch, Miec, RoundRobin, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/local_search_golden.csv"
);

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn move_hash(moves: &[SearchMove]) -> u64 {
    let mut h = Fnv::new();
    for m in moves {
        match *m {
            SearchMove::Relocate { vm, from, to, delta } => {
                h.bytes(&[0]);
                h.u32(vm.0);
                h.u32(from.0);
                h.u32(to.0);
                h.u64(delta.to_bits());
            }
            SearchMove::Swap { a, b, server_a, server_b, delta } => {
                h.bytes(&[1]);
                h.u32(a.0);
                h.u32(b.0);
                h.u32(server_a.0);
                h.u32(server_b.0);
                h.u64(delta.to_bits());
            }
        }
    }
    h.0
}

fn placement_hash(assignment: &Assignment) -> u64 {
    let mut h = Fnv::new();
    for slot in assignment.placement() {
        h.u32(slot.expect("refined assignments are complete").0);
    }
    h.0
}

/// The table the fixture pins, one CSV row per instance.
fn golden_table() -> String {
    let shapes = [
        ("refine", WorkloadConfig::new(200, 50).mean_interarrival(0.6).mean_duration(20.0)),
        ("paper", WorkloadConfig::new(200, 50)),
    ];
    let starts: [(&str, &dyn Allocator); 3] = [
        ("miec", &Miec::new()),
        ("ffps", &Ffps::new()),
        ("round-robin", &RoundRobin::new()),
    ];
    let modes = [
        ("default", LocalSearch::new()),
        ("relocate-only", LocalSearch::new().relocate_only()),
        ("ordered-targets", LocalSearch::new().with_ordered_targets()),
        ("max-rounds-2", LocalSearch::new().with_max_rounds(2)),
    ];
    let mut out = String::from("shape,start,mode,seed,moves,move_hash,placement_hash,cost_bits\n");
    for (shape, config) in &shapes {
        for seed in 1..=3u64 {
            let problem = config.generate(seed).expect("instance");
            for (start, allocator) in &starts {
                let base = allocator
                    .allocate(&problem, &mut StdRng::seed_from_u64(seed))
                    .expect("base allocation");
                for (mode, search) in &modes {
                    let (refined, moves) = search
                        .refine_traced(&base, &MetricsRegistry::new(), &NoopTracer)
                        .expect("refinement");
                    writeln!(
                        out,
                        "{shape},{start},{mode},{seed},{},{:016x},{:016x},{:016x}",
                        moves.len(),
                        move_hash(&moves),
                        placement_hash(&refined),
                        refined.total_cost().to_bits(),
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn local_search_trajectories_match_the_golden_fixture() {
    let got = golden_table();
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("local_search_golden.actual.csv");
        let _ = std::fs::write(&actual, &got);
        let first = got
            .lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map_or_else(String::new, |(g, w)| format!("\n  got:  {g}\n  want: {w}"));
        panic!(
            "local-search trajectories drifted from tests/fixtures/local_search_golden.csv \
             (computed table written to {}){first}",
            actual.display()
        );
    }
}

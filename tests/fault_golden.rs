//! Golden faulted runs.
//!
//! Pins, bit for bit, what both fault paths decide on a grid of small
//! instances, so a change to how either engine evicts, repairs, sheds or
//! prices a fault shows up as a changed row:
//!
//! * **chaos replay** — every allocator kind × four workload shapes × two
//!   seeds × fault rates {0.1, 0.4, 0.8} × the three shed policies. Each
//!   row holds FNV-1a hashes of the placement, the repair records and the
//!   shed and refused lists, the displacement tallies, the extra
//!   transitions, and the bits of the cost, its Eq. 7 breakdown and the
//!   fault-transition surcharge (a kind that cannot place a shape
//!   offline pins its error instead);
//! * **live drill** — the same shapes, seeds and fault rates fed through
//!   a serve session with the plan striking live (`esvm chaos --live`).
//!   Each row holds a hash of the reply lines, the bits of the committed
//!   and retired cost, and the session tallies.
//!
//! On a mismatch the computed table is written to
//! `fault_golden.actual.csv` in the system temp directory, for
//! inspection.

use esvm::exper::serve::{feed_problem_with_faults, ServeSession};
use esvm::obs::{MetricsRegistry, NoopTracer};
use esvm::simcore::{ServerId, VmId};
use esvm::{
    AllocatorKind, ChaosEngine, FaultPlan, FaultPlanConfig, RepairPolicy, ShedPolicy,
    WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/fault_golden.csv"
);

const RATES: [f64; 3] = [0.1, 0.4, 0.8];

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

    /// An optional server: `u32::MAX` stands for `None`.
    fn server(&mut self, s: Option<ServerId>) {
        self.u32(s.map_or(u32::MAX, |s| s.0));
    }
}

fn placement_hash(placement: &[Option<ServerId>]) -> u64 {
    let mut h = Fnv::new();
    for &slot in placement {
        h.server(slot);
    }
    h.0
}

fn ids_hash(ids: &[VmId]) -> u64 {
    let mut h = Fnv::new();
    for id in ids {
        h.u32(id.0);
    }
    h.0
}

fn shapes() -> [(&'static str, WorkloadConfig); 4] {
    [
        (
            "dense",
            WorkloadConfig::new(60, 12)
                .mean_interarrival(0.8)
                .mean_duration(12.0),
        ),
        ("paper", WorkloadConfig::new(60, 15)),
        // Loaded fleets: repairs run out of room, so VMs are shed and
        // arrivals refused or rejected.
        (
            "tight",
            WorkloadConfig::new(60, 10)
                .mean_interarrival(0.6)
                .mean_duration(12.0),
        ),
        (
            "scarce",
            WorkloadConfig::new(60, 7)
                .mean_interarrival(1.0)
                .mean_duration(10.0),
        ),
    ]
}

fn plan(problem: &esvm::AllocationProblem, rate: f64, seed: u64) -> FaultPlan {
    FaultPlan::generate(
        &FaultPlanConfig::with_fault_rate(rate),
        problem.server_count(),
        problem.horizon(),
        seed,
    )
}

/// Chaos replay rows: every kind under every shed policy.
fn replay_rows(out: &mut String) {
    out.push_str(
        "shape,kind,seed,rate,policy,placement_hash,repairs_hash,shed_hash,refused_hash,\
         displaced,displaced_vm_minutes,redirected,extra_transitions,cost_bits,run_bits,\
         idle_bits,transition_bits,fault_transition_energy_bits\n",
    );
    let policies = [
        ShedPolicy::SmallestRemainingFirst,
        ShedPolicy::LargestRemainingFirst,
        ShedPolicy::ArrivalOrder,
    ];
    for (shape, config) in shapes() {
        for seed in 1..=2u64 {
            let problem = config.generate(seed).expect("instance");
            for rate in RATES {
                let plan = plan(&problem, rate, seed);
                for policy in policies {
                    let engine = ChaosEngine::new(plan.clone()).with_policy(RepairPolicy {
                        shed: policy,
                        ..RepairPolicy::default()
                    });
                    for kind in AllocatorKind::ALL {
                        let allocator = kind.build();
                        let mut rng = StdRng::seed_from_u64(seed);
                        let row = format!("{shape},{},{seed},{rate},{policy}", kind.name());
                        let report = match engine.run(&problem, &*allocator, &mut rng) {
                            Ok(report) => report,
                            Err(e) => {
                                writeln!(out, "{row},offline-error: {e}").unwrap();
                                continue;
                            }
                        };
                        let mut repairs = Fnv::new();
                        for r in &report.repairs {
                            repairs.u32(r.vm.0);
                            repairs.server(r.from);
                            repairs.u32(r.to.0);
                            repairs.u32(r.displaced_at);
                            repairs.u32(r.placed_at);
                            repairs.u32(r.attempts);
                        }
                        writeln!(
                            out,
                            "{row},{:016x},{:016x},{:016x},{:016x},{},{},{},{},{:016x},{:016x},\
                             {:016x},{:016x},{:016x}",
                            placement_hash(&report.placement),
                            repairs.0,
                            ids_hash(&report.shed),
                            ids_hash(&report.refused),
                            report.displaced,
                            report.displaced_vm_minutes,
                            report.redirected_admissions,
                            report.extra_transitions,
                            report.cost.to_bits(),
                            report.breakdown.run.to_bits(),
                            report.breakdown.idle.to_bits(),
                            report.breakdown.transition.to_bits(),
                            report.fault_transition_energy.to_bits(),
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
}

/// Live drill rows: the plan strikes a serve session.
fn drill_rows(out: &mut String) {
    out.push_str(
        "shape,seed,rate,replies_hash,committed_bits,retired_bits,arrivals,placed,rejected,\
         departed,evicted,repaired,live_peak\n",
    );
    for (shape, config) in shapes() {
        for seed in 1..=2u64 {
            let problem = config.generate(seed).expect("instance");
            for rate in RATES {
                let plan = plan(&problem, rate, seed);
                let metrics = MetricsRegistry::new();
                let mut session = ServeSession::new(problem.servers(), &metrics, &NoopTracer);
                let drill = feed_problem_with_faults(&problem, &plan, &mut session);
                let mut replies = Fnv::new();
                for reply in &drill.replies {
                    replies.bytes(reply.as_bytes());
                    replies.bytes(b"\n");
                }
                let engine = session.engine();
                let s = engine.stats();
                writeln!(
                    out,
                    "{shape},{seed},{rate},{:016x},{:016x},{:016x},{},{},{},{},{},{},{}",
                    replies.0,
                    engine.committed_cost().to_bits(),
                    engine.retired_cost().to_bits(),
                    s.arrivals,
                    s.placed,
                    s.rejected,
                    s.departed,
                    s.evicted,
                    s.repaired,
                    s.live_peak,
                )
                .unwrap();
            }
        }
    }
}

#[test]
fn faulted_runs_match_the_golden_fixture() {
    let mut got = String::new();
    replay_rows(&mut got);
    drill_rows(&mut got);
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("fault_golden.actual.csv");
        let _ = std::fs::write(&actual, &got);
        let first = got
            .lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map_or_else(String::new, |(g, w)| format!("\n  got:  {g}\n  want: {w}"));
        panic!(
            "faulted runs drifted from tests/fixtures/fault_golden.csv \
             (computed table written to {}){first}",
            actual.display()
        );
    }
}

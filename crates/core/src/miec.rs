//! The paper's heuristic: Minimum Incremental Energy Cost (MIEC).

use crate::{argmin, AllocError, AllocResult, Allocator, Argmin, Fleet};
use esvm_obs::{DecisionKind, MetricsRegistry, NoopTracer, Tracer};
use esvm_simcore::{AllocationProblem, Assignment, ServerId, ServerSpec, Vm, VmId, MAX_TIME};
use rand::RngCore;

/// The heuristic of Section III.
///
/// VMs are allocated in increasing start-time order. For each VM `v_j`:
///
/// 1. build the candidate set `S_j` of servers with sufficient spare CPU
///    **and** memory throughout `[t^s_j, t^e_j]`;
/// 2. for every candidate evaluate the server's energy cost (Eq. 17,
///    including the initial switch-on `α` — see `esvm-simcore::energy`)
///    supposing `v_j` were allocated on it;
/// 3. place `v_j` on the candidate with the minimum **incremental** cost
///    (ties broken by lowest server id, for determinism).
///
/// The paper argues the heuristic saves energy because it (a) prefers
/// energy-efficient servers (small `P¹` and `P_idle`), (b) consolidates
/// VMs into existing busy segments, raising utilization, and (c) prefers
/// low-transition-cost servers when it must wake a new one.
///
/// [`Miec::ignoring_transition_costs`] is an ablation variant that scores
/// candidates as if every `α_i` were zero (placement quality without
/// transition awareness); the resulting assignment is still *charged*
/// real transition costs when audited.
///
/// # Example
///
/// ```
/// use esvm_core::{Allocator, Miec};
/// use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Two servers; the second is far more energy-efficient.
/// let problem = ProblemBuilder::new()
///     .server(Resources::new(8.0, 16.0), PowerModel::new(200.0, 400.0), 100.0)
///     .server(Resources::new(8.0, 16.0), PowerModel::new(50.0, 100.0), 25.0)
///     .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let a = Miec::new().allocate(&problem, &mut rng)?;
/// assert_eq!(a.server_of(0.into()), Some(1.into())); // efficient server
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Miec {
    ignore_transition_costs: bool,
    assumed_duration: Option<u32>,
    reference: bool,
    unpruned: bool,
}

impl Miec {
    /// The standard heuristic, scoring candidates with the full cost
    /// model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reference implementation used as the equivalence oracle in tests
    /// and benchmarks: scans every server (no candidate index) and
    /// scores candidates with the clone-and-rescan
    /// `ServerLedger::reference_incremental_cost` — the original
    /// semantics, preserved bit for bit. Produces the same placements as
    /// [`Miec::new`] except on exact-tie decisions, where the clone
    /// path's difference-of-sums arithmetic breaks the tie by rounding
    /// noise rather than by server id (the delta path computes those ties
    /// exactly and falls back to the documented lowest-id rule).
    pub fn reference() -> Self {
        Self::new().with_reference_scoring()
    }

    /// Switches any configuration (standard, ablation, assumed-duration)
    /// to the unpruned clone-and-rescan scan of [`Miec::reference`],
    /// keeping its other knobs. Oracle for equivalence tests.
    pub fn with_reference_scoring(mut self) -> Self {
        self.reference = true;
        self.unpruned = true;
        self
    }

    /// Scans every server instead of the candidate index, keeping the
    /// delta-based scoring. The index is exactly placement-preserving —
    /// standby servers of one spec class (pristine or cold) produce
    /// bit-identical scores — and this full scan is the oracle that
    /// tests and benchmarks check it against, in isolation from the
    /// scoring arithmetic.
    pub fn without_pruning(mut self) -> Self {
        self.unpruned = true;
        self
    }

    /// Ablation variant: candidate scoring pretends `α_i = 0` (transition
    /// costs are still charged by the audit). Quantifies how much of the
    /// saving comes from transition-cost awareness.
    pub fn ignoring_transition_costs() -> Self {
        Self {
            ignore_transition_costs: true,
            ..Self::default()
        }
    }

    /// Ablation variant: the paper assumes users declare each VM's
    /// duration at request time (Section I). This variant scores every
    /// candidate as if the VM would run for `units` time units (e.g. the
    /// fleet-wide mean), modelling a cloud where durations are unknown
    /// at arrival; commitment and capacity checks still use the true
    /// interval. Quantifies the value of duration knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn with_assumed_duration(units: u32) -> Self {
        assert!(units > 0, "assumed duration must be positive");
        Self {
            assumed_duration: Some(units),
            ..Self::default()
        }
    }

    /// The piece that prices `vm`: `vm` itself, unless a duration
    /// assumption is configured. An assumed end past [`MAX_TIME`] is
    /// clamped to it.
    fn priced(&self, vm: &Vm) -> Vm {
        let Some(units) = self.assumed_duration else {
            return *vm;
        };
        let end = vm.start().saturating_add(units - 1).min(MAX_TIME);
        Vm::new(vm.id(), vm.demand(), esvm_simcore::Interval::new(vm.start(), end))
    }
}

impl Miec {
    /// The shared placement loop. In admission mode an unplaceable VM is
    /// rejected and the run continues; otherwise it aborts.
    ///
    /// The decisions run on one [`Fleet`] over the specs they price
    /// with: the problem's, or copies with `α = 0` for the ablation
    /// variant. Each VM, in start order, demotes the servers the fleet's
    /// cold rule finds cold at its start, takes one [`Fleet::scan`] and
    /// is hosted on the winner; the unpruned oracles replace the scan by
    /// an unfloored [`argmin`] over every server's ledger. Both visit in
    /// ascending id order with strict `<`, so placements are
    /// bit-identical. The assignment adopts the fleet's ledgers; the
    /// ablation variant's, priced with `α = 0`, cannot be adopted, so
    /// its assignment hosts the decisions again in decision order.
    ///
    /// Generic over the tracer: with the default [`NoopTracer`]
    /// (`ENABLED == false`) every instrumentation block is a
    /// compile-time-dead branch and the monomorphised loop is the
    /// uninstrumented code.
    fn run<'p, T: Tracer>(
        &self,
        problem: &'p AllocationProblem,
        admit: bool,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) -> AllocResult<(Assignment<'p>, Vec<VmId>)> {
        let _run_span = tracer.span("miec.run");
        // The prepare span makes setup cost visible and, by closing
        // right before the loop, anchors the first decision's
        // `lap_span` to the loop entry rather than the run start.
        let prepare_span = tracer.span("miec.prepare");
        let mut fleet = if self.ignore_transition_costs {
            let zeroed = |s: &ServerSpec| ServerSpec::new(s.id(), s.capacity(), *s.power(), 0.0);
            Fleet::new(&problem.servers().iter().map(zeroed).collect::<Vec<_>>())
        } else {
            Fleet::new(problem.servers())
        };
        let mut placement = vec![None; problem.vm_count()];
        let mut rejected = Vec::new();
        // The scans' tallies, summed in the hot loop and flushed to
        // `metrics` once after it.
        let (mut total, mut pruned_total) = (Argmin::default(), 0u64);
        let ordered_vms = problem.vms_by_start_time();
        drop(prepare_span);

        for &j in &ordered_vms {
            // Decisions run back to back: each span starts where the
            // previous one (or the setup above) ended, so the hot loop
            // pays one clock read per decision instead of two.
            let _decision_span = tracer.lap_span("miec.decision");
            let vm = &problem.vms()[j];
            let priced = self.priced(vm);
            // Arrivals come in start order, so the clock only grows and
            // a cold server stays cold.
            fleet.demote(vm.start());
            let (scan, pruned) = if self.unpruned {
                let ledgers = fleet.ledgers();
                let score = |i: u32| {
                    let ledger = &ledgers[i as usize];
                    ledger.fits(vm).then(|| {
                        if self.reference {
                            ledger.reference_incremental_cost(&priced)
                        } else {
                            ledger.incremental_cost(&priced)
                        }
                    })
                };
                (argmin(0..problem.server_count() as u32, T::ENABLED, |_| None, score), 0)
            } else {
                (fleet.scan(vm, &priced, T::ENABLED), fleet.index().pruned())
            };
            if T::ENABLED {
                total.candidates += scan.candidates;
                pruned_total += pruned;
                total.unfit += scan.unfit;
                total.floored += scan.floored;
                total.fp_ties += scan.fp_ties;
            }
            let explain = |kind| scan.explain(kind, vm.id().index() as u64, pruned);
            match scan.best {
                Some((delta, winner)) => {
                    let sid = ServerId(winner);
                    fleet.host(sid, *vm, vm.start());
                    placement[j] = Some(sid);
                    if T::ENABLED {
                        metrics.observe("miec.placement_delta", delta);
                        tracer.explain(&explain(DecisionKind::Place));
                    }
                }
                None if admit => {
                    if T::ENABLED {
                        tracer.explain(&explain(DecisionKind::Reject));
                    }
                    rejected.push(vm.id());
                }
                None => return Err(AllocError::NoFeasibleServer(vm.id())),
            }
        }
        if T::ENABLED {
            metrics.add("miec.vms_placed", (problem.vm_count() - rejected.len()) as u64);
            metrics.add("miec.vms_rejected", rejected.len() as u64);
            metrics.add("miec.candidates_considered", total.candidates);
            metrics.add("miec.spec_class_pruned", pruned_total);
            metrics.add("miec.unfit_skipped", total.unfit);
            metrics.add("miec.floored", total.floored);
            metrics.add("miec.fp_ties", total.fp_ties);
        }
        if !self.ignore_transition_costs {
            let assignment = Assignment::from_ledgers(problem, placement, fleet.into_ledgers())?;
            return Ok((assignment, rejected));
        }
        let mut assignment = Assignment::new(problem);
        for &j in &ordered_vms {
            if let Some(server) = placement[j] {
                assignment.place(VmId(j as u32), server)?;
            }
        }
        Ok((assignment, rejected))
    }
    /// [`Allocator::allocate`] with instrumentation: identical
    /// placement decisions, with the scan tallies (candidates
    /// considered, spec-class pruned, exact FP ties, unfit skips) and
    /// the placement-delta histogram accumulated into `metrics`, a
    /// `miec.run` span around the placement loop, a `miec.decision`
    /// span around every per-VM argmin, and one [`ExplainRecord`](esvm_obs::ExplainRecord) per
    /// VM in `tracer` whose `(winner, delta_cost)` bit-match the
    /// placement. With [`NoopTracer`] this *is* `allocate`.
    ///
    /// # Errors
    ///
    /// Same as [`Allocator::allocate`].
    pub fn allocate_traced<'p, T: Tracer>(
        &self,
        problem: &'p AllocationProblem,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) -> AllocResult<Assignment<'p>> {
        self.run(problem, false, metrics, tracer).map(|(a, _)| a)
    }

    /// Allocation with admission control: unplaceable VMs are rejected
    /// instead of aborting the run. Returns the (partial) assignment and
    /// the rejected VM ids. Models an overloaded data center that turns
    /// requests away — the regime the paper's evaluation never enters.
    ///
    /// # Errors
    ///
    /// Only internal placement errors (never
    /// [`AllocError::NoFeasibleServer`]).
    pub fn allocate_with_admission<'p>(
        &self,
        problem: &'p AllocationProblem,
    ) -> AllocResult<(Assignment<'p>, Vec<VmId>)> {
        self.run(problem, true, &MetricsRegistry::new(), &NoopTracer)
    }
}

impl Allocator for Miec {
    fn name(&self) -> &'static str {
        if self.reference {
            "miec-reference"
        } else if self.unpruned {
            "miec-unpruned"
        } else if self.ignore_transition_costs {
            "miec-noalpha"
        } else if self.assumed_duration.is_some() {
            "miec-blind"
        } else {
            "miec"
        }
    }

    fn allocate<'p>(
        &self,
        problem: &'p AllocationProblem,
        _rng: &mut dyn RngCore,
    ) -> AllocResult<Assignment<'p>> {
        self.run(problem, false, &MetricsRegistry::new(), &NoopTracer)
            .map(|(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources, VmId};
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn consolidates_overlapping_vms_on_one_server() {
        // Two identical servers; two overlapping small VMs. Sharing one
        // server avoids a second P_idle + α.
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(2.0, 4.0), Interval::new(3, 12))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert_eq!(a.server_of(VmId(0)), a.server_of(VmId(1)));
    }

    #[test]
    fn prefers_low_transition_cost_when_all_asleep() {
        // Identical servers except transition cost; Section III's example.
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 500.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert_eq!(a.server_of(VmId(0)), Some(ServerId(1)));
    }

    #[test]
    fn prefers_small_servers_under_light_load() {
        // A small cheap server and a big hungry one; the small server is
        // adequate, so MIEC should consolidate there.
        let p = ProblemBuilder::new()
            .server(
                Resources::new(120.0, 136.0),
                PowerModel::new(260.0, 560.0),
                560.0,
            )
            .server(Resources::new(16.0, 32.0), PowerModel::new(140.0, 300.0), 300.0)
            .vm(Resources::new(1.0, 1.7), Interval::new(1, 5))
            .vm(Resources::new(1.0, 1.7), Interval::new(2, 6))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert_eq!(a.server_of(VmId(0)), Some(ServerId(1)));
        assert_eq!(a.server_of(VmId(1)), Some(ServerId(1)));
    }

    #[test]
    fn respects_capacity_and_spills_over() {
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(50.0, 100.0), 10.0)
            .server(Resources::new(4.0, 8.0), PowerModel::new(80.0, 160.0), 10.0)
            .vm(Resources::new(3.0, 6.0), Interval::new(1, 10))
            .vm(Resources::new(3.0, 6.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        // They cannot share: 6 CPU > 4.
        assert_ne!(a.server_of(VmId(0)), a.server_of(VmId(1)));
        assert!(a.audit().is_ok());
    }

    #[test]
    fn errors_when_no_server_fits() {
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(50.0, 100.0), 10.0)
            .vm(Resources::new(3.0, 6.0), Interval::new(1, 10))
            .vm(Resources::new(3.0, 6.0), Interval::new(5, 15))
            .build()
            .unwrap();
        let err = Miec::new().allocate(&p, &mut rng()).unwrap_err();
        assert_eq!(err, AllocError::NoFeasibleServer(VmId(1)));
    }

    #[test]
    fn is_deterministic() {
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(90.0, 210.0), 60.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(1.0, 2.0), Interval::new(4, 8))
            .vm(Resources::new(2.0, 2.0), Interval::new(11, 20))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        let b = Miec::new()
            .allocate(&p, &mut StdRng::seed_from_u64(999))
            .unwrap();
        assert_eq!(a.placement(), b.placement());
    }

    #[test]
    fn tie_break_is_lowest_server_id() {
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert_eq!(a.server_of(VmId(0)), Some(ServerId(0)));
    }

    #[test]
    fn ablation_variant_ignores_alpha_in_scoring() {
        // Server 0: expensive transition, slightly cheaper idle power.
        // Standard MIEC avoids the huge α; the ablation variant sees only
        // idle/run power and picks server 0.
        let p = ProblemBuilder::new()
            .server(
                Resources::new(8.0, 16.0),
                PowerModel::new(99.0, 200.0),
                10_000.0,
            )
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let smart = Miec::new().allocate(&p, &mut rng()).unwrap();
        let blind = Miec::ignoring_transition_costs()
            .allocate(&p, &mut rng())
            .unwrap();
        assert_eq!(smart.server_of(VmId(0)), Some(ServerId(1)));
        assert_eq!(blind.server_of(VmId(0)), Some(ServerId(0)));
        // The audit still charges the real α, so the ablation costs more.
        assert!(blind.total_cost() > smart.total_cost());
        assert_eq!(Miec::new().name(), "miec");
        assert_eq!(Miec::ignoring_transition_costs().name(), "miec-noalpha");
    }

    #[test]
    fn blind_duration_variant_still_produces_valid_assignments() {
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(90.0, 210.0), 60.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 30))
            .vm(Resources::new(1.0, 2.0), Interval::new(4, 5))
            .vm(Resources::new(2.0, 2.0), Interval::new(11, 40))
            .build()
            .unwrap();
        let blind = Miec::with_assumed_duration(5)
            .allocate(&p, &mut rng())
            .unwrap();
        assert!(blind.audit().is_ok());
        assert_eq!(Miec::with_assumed_duration(5).name(), "miec-blind");
        // Knowing durations can only help (statistically; on this tiny
        // instance we just assert both are valid and comparable).
        let informed = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert!(informed.total_cost() <= blind.total_cost() + 1e-9);
    }

    #[test]
    fn admission_mode_places_everything_else() {
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(50.0, 100.0), 10.0)
            .vm(Resources::new(3.0, 6.0), Interval::new(1, 10))
            .vm(Resources::new(3.0, 6.0), Interval::new(5, 15))
            .vm(Resources::new(3.0, 6.0), Interval::new(12, 20))
            .build()
            .unwrap();
        let (a, rejected) = Miec::new().allocate_with_admission(&p).unwrap();
        // VM 1 overlaps both others; exactly it is rejected.
        assert_eq!(rejected, vec![VmId(1)]);
        assert!(a.server_of(VmId(0)).is_some());
        assert!(a.server_of(VmId(2)).is_some());
        // The partial assignment still audits against capacity.
        assert!(a.total_cost() > 0.0);
    }

    #[test]
    fn pruned_scan_matches_reference_on_homogeneous_fleet() {
        // Four identical servers: pruning scores only one while all are
        // asleep, and the lowest-id tie-break must match the full scan.
        let mut b = ProblemBuilder::new();
        for _ in 0..4 {
            b = b.server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0);
        }
        let p = b
            .vm(Resources::new(6.0, 12.0), Interval::new(1, 10))
            .vm(Resources::new(6.0, 12.0), Interval::new(5, 14))
            .vm(Resources::new(6.0, 12.0), Interval::new(8, 20))
            .vm(Resources::new(2.0, 4.0), Interval::new(30, 35))
            .build()
            .unwrap();
        let fast = Miec::new().allocate(&p, &mut rng()).unwrap();
        let slow = Miec::reference().allocate(&p, &mut rng()).unwrap();
        assert_eq!(fast.placement(), slow.placement());
        assert_eq!(fast.server_of(VmId(0)), Some(ServerId(0)));
        assert_eq!(Miec::reference().name(), "miec-reference");
    }

    #[test]
    fn observed_run_matches_plain_run_and_reports_scan_counts() {
        use esvm_obs::CollectingTracer;
        let mut b = ProblemBuilder::new();
        for _ in 0..3 {
            b = b.server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0);
        }
        let p = b
            .server(Resources::new(4.0, 8.0), PowerModel::new(60.0, 120.0), 20.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(2.0, 4.0), Interval::new(3, 12))
            .vm(Resources::new(2.0, 4.0), Interval::new(20, 25))
            .build()
            .unwrap();
        let plain = Miec::new().allocate(&p, &mut rng()).unwrap();
        let tracer = CollectingTracer::new();
        let metrics = esvm_obs::MetricsRegistry::new();
        let observed = Miec::new().allocate_traced(&p, &metrics, &tracer).unwrap();
        assert_eq!(plain.placement(), observed.placement());
        assert_eq!(metrics.counter("miec.vms_placed"), 3);
        assert_eq!(metrics.counter("miec.vms_rejected"), 0);
        // 3 VMs over ≤ 4 servers, with the three identical servers
        // pruned down to one representative while asleep.
        assert!(metrics.counter("miec.candidates_considered") >= 3);
        assert!(metrics.counter("miec.spec_class_pruned") >= 2);
        assert_eq!(metrics.histogram("miec.placement_delta").unwrap().count, 3);
        // One place explain record per VM, in placement order, whose
        // tallies sum to the counters.
        let explains = tracer.explains();
        assert_eq!(explains.len(), 3);
        assert!(explains.iter().all(|e| e.record.kind == DecisionKind::Place));
        let sum = |field: fn(&esvm_obs::ExplainRecord) -> u64| {
            explains.iter().map(|e| field(&e.record)).sum::<u64>()
        };
        assert_eq!(metrics.counter("miec.candidates_considered"), sum(|r| r.candidates));
        assert_eq!(metrics.counter("miec.unfit_skipped"), sum(|r| r.unfit));
        assert_eq!(metrics.counter("miec.floored"), sum(|r| r.floored));
    }

    /// A fleet of `n` servers in three spec classes, interleaved by id.
    fn three_class_fleet(n: usize) -> ProblemBuilder {
        let mut b = ProblemBuilder::new();
        for i in 0..n {
            b = b.server(
                Resources::new(8.0, 16.0),
                PowerModel::new(100.0 + 10.0 * (i % 3) as f64, 200.0),
                50.0,
            );
        }
        b
    }

    #[test]
    fn indexed_scan_is_bit_identical_to_the_full_scan() {
        // Short gaps keep servers active; the long ones (break-even is
        // one unit at P_idle ≥ 100, α = 50) make them cold.
        let p = three_class_fleet(6)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(6.0, 12.0), Interval::new(2, 9))
            .vm(Resources::new(3.0, 4.0), Interval::new(4, 15))
            .vm(Resources::new(2.0, 2.0), Interval::new(17, 25))
            .vm(Resources::new(5.0, 8.0), Interval::new(5, 12))
            .vm(Resources::new(7.0, 8.0), Interval::new(40, 52))
            .vm(Resources::new(1.0, 1.0), Interval::new(53, 54))
            .vm(Resources::new(7.0, 9.0), Interval::new(56, 60))
            .build()
            .unwrap();
        for make in [
            Miec::new,
            Miec::ignoring_transition_costs,
            || Miec::with_assumed_duration(3),
        ] as [fn() -> Miec; 3]
        {
            let indexed = make().allocate(&p, &mut rng()).unwrap();
            let full = make().without_pruning().allocate(&p, &mut rng()).unwrap();
            assert_eq!(indexed.placement(), full.placement(), "{}", make().name());
            assert_eq!(indexed.total_cost().to_bits(), full.total_cost().to_bits());
        }
    }

    #[test]
    fn a_cold_server_stands_behind_its_class_representative() {
        // Four identical servers with break-even gap g* = 3 (P_idle =
        // 100, α = 250). VM 0 leaves server 0 idle after t = 5; VM 1
        // starts at 5 + 1 + gap. At gap = g* server 0 prices VM 1
        // exactly as its pristine twins do: the full scan scores all
        // four and keeps the lowest id on the exact tie, the index
        // scores server 0 alone as the class representative. One unit
        // earlier (gap = g* − 1) server 0 is still active.
        let explain = |gap: u32, miec: Miec| {
            let mut b = ProblemBuilder::new();
            for _ in 0..4 {
                b = b.server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 250.0);
            }
            let p = b
                .vm(Resources::new(2.0, 4.0), Interval::new(1, 5))
                .vm(Resources::new(2.0, 4.0), Interval::new(6 + gap, 12 + gap))
                .build()
                .unwrap();
            let tracer = esvm_obs::CollectingTracer::new();
            let metrics = esvm_obs::MetricsRegistry::new();
            let a = miec
                .allocate_traced(&p, &metrics, &tracer)
                .unwrap();
            (a.placement().to_vec(), tracer.explains()[1].record)
        };
        let (indexed, cold) = explain(3, Miec::new());
        let (full, scanned) = explain(3, Miec::new().without_pruning());
        assert_eq!(indexed, full);
        assert_eq!(indexed[1], Some(ServerId(0)));
        assert_eq!((cold.candidates, cold.pruned, cold.unfit), (1, 3, 0));
        assert!(!cold.fp_tie);
        assert_eq!((scanned.candidates, scanned.pruned, scanned.unfit), (4, 0, 0));
        assert!(scanned.fp_tie);
        assert_eq!(cold.delta_cost.to_bits(), scanned.delta_cost.to_bits());

        let (indexed, warm) = explain(2, Miec::new());
        let (full, _) = explain(2, Miec::new().without_pruning());
        assert_eq!(indexed, full);
        assert_eq!((warm.candidates, warm.pruned, warm.unfit), (2, 2, 0));
    }

    #[test]
    fn every_decision_accounts_for_every_server() {
        let p = three_class_fleet(9)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(6.0, 12.0), Interval::new(2, 9))
            .vm(Resources::new(7.0, 4.0), Interval::new(4, 15))
            .vm(Resources::new(2.0, 2.0), Interval::new(30, 35))
            .vm(Resources::new(8.0, 8.0), Interval::new(31, 32))
            .build()
            .unwrap();
        for miec in [Miec::new(), Miec::new().without_pruning()] {
            let tracer = esvm_obs::CollectingTracer::new();
            let metrics = esvm_obs::MetricsRegistry::new();
            miec.allocate_traced(&p, &metrics, &tracer).unwrap();
            for e in tracer.explains() {
                let r = &e.record;
                let visited = r.candidates + r.unfit + r.floored;
                assert_eq!(visited + r.pruned, 9, "{} {r:?}", miec.name());
            }
        }
    }

    #[test]
    fn traced_run_matches_plain_and_explains_every_placement() {
        use esvm_obs::{CollectingTracer, DecisionKind};
        let p = three_class_fleet(6)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
            .vm(Resources::new(6.0, 12.0), Interval::new(2, 9))
            .vm(Resources::new(3.0, 4.0), Interval::new(4, 15))
            .vm(Resources::new(2.0, 2.0), Interval::new(20, 25))
            .vm(Resources::new(5.0, 8.0), Interval::new(5, 12))
            .build()
            .unwrap();
        let plain = Miec::new().allocate(&p, &mut rng()).unwrap();
        let tracer = CollectingTracer::new();
        let metrics = esvm_obs::MetricsRegistry::new();
        let traced = Miec::new()
            .allocate_traced(&p, &metrics, &tracer)
            .unwrap();
        assert_eq!(plain.placement(), traced.placement());
        assert_eq!(plain.total_cost().to_bits(), traced.total_cost().to_bits());
        // One explain record per VM, whose (winner, delta) bit-match
        // the placement and the recorded placement deltas.
        let explains = tracer.explains();
        assert_eq!(explains.len(), p.vm_count());
        for e in &explains {
            assert_eq!(e.record.kind, DecisionKind::Place);
            assert_eq!(
                e.record.winner.map(|w| ServerId(w as u32)),
                traced.server_of(VmId(e.record.vm as u32))
            );
            assert!(e.record.candidates >= 1);
            assert!(!e.span.is_none());
        }
        // Spans: one run span, one decision span per VM.
        let spans = tracer.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "miec.run").count(), 1);
        assert_eq!(
            spans.iter().filter(|s| s.name == "miec.decision").count(),
            p.vm_count()
        );
        assert_eq!(tracer.open_spans(), 0);
        // Per-decision latency is tracked with quantiles.
        let lat = tracer.latency("miec.decision").unwrap();
        assert_eq!(lat.count, p.vm_count() as u64);
        assert!(lat.p99 <= lat.max);
    }

    #[test]
    fn handles_empty_vm_list() {
        let p = ProblemBuilder::new()
            .server(Resources::new(1.0, 1.0), PowerModel::new(1.0, 2.0), 0.0)
            .build()
            .unwrap();
        let a = Miec::new().allocate(&p, &mut rng()).unwrap();
        assert!(a.is_complete());
        assert_eq!(a.total_cost(), 0.0);
    }
}

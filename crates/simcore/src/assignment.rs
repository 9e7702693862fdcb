//! Assignments of VMs to servers, with independent auditing.

use crate::energy::{full_cost, segment_cost, transition_count, ServerLedger};
use crate::{AllocationProblem, Error, Result, ServerId, UsageProfile, Vm, VmId};
use serde::{Deserialize, Serialize};

/// A (possibly partial) placement of the problem's VMs onto servers.
///
/// The assignment maintains a [`ServerLedger`] per server so placements
/// are validated against capacity **in every time unit** as they are made,
/// and the running total cost is available in `O(1)` per query.
///
/// Construction sites: allocation heuristics (`esvm-core`) build
/// assignments VM by VM via [`Assignment::place`], or, as MIEC does,
/// hand over the ledgers they decided on through
/// [`Assignment::from_ledgers`]; the exact solver (`esvm-ilp`) decodes
/// its solution through [`Assignment::from_placement`].
#[derive(Debug, Clone)]
pub struct Assignment<'p> {
    problem: &'p AllocationProblem,
    placement: Vec<Option<ServerId>>,
    ledgers: Vec<ServerLedger>,
}

impl<'p> Assignment<'p> {
    /// Creates an empty assignment (every server asleep, no VM placed).
    pub fn new(problem: &'p AllocationProblem) -> Self {
        Self {
            problem,
            placement: vec![None; problem.vm_count()],
            ledgers: problem
                .servers()
                .iter()
                .map(|s| ServerLedger::new(*s))
                .collect(),
        }
    }

    /// Replays a raw placement vector, validating every step.
    ///
    /// # Errors
    ///
    /// Fails like [`Assignment::place`] on the first invalid entry.
    pub fn from_placement(
        problem: &'p AllocationProblem,
        placement: &[Option<ServerId>],
    ) -> Result<Self> {
        let mut assignment = Assignment::new(problem);
        for (j, slot) in placement.iter().enumerate() {
            if let Some(server) = slot {
                assignment.place(VmId(j as u32), *server)?;
            }
        }
        Ok(assignment)
    }

    /// Adopts `ledgers`, one per server in id order, that already host
    /// the VMs `placement` puts on each server, instead of hosting every
    /// VM again. An allocator that decides on its own ledgers hands its
    /// result back this way. Each ledger must carry its server's spec,
    /// host as many VMs as the placement puts there, and stay within
    /// capacity at every time unit; which VMs it hosts is not rechecked
    /// ([`Assignment::audit`] rebuilds everything from the placement).
    /// `placement` is cut or padded to the VM list: VMs past its end are
    /// unplaced, and an entry past the VM list is dropped, so the ledger
    /// that hosts it fails the hosted count.
    ///
    /// # Errors
    ///
    /// * [`Error::LedgerCount`] unless there is one ledger per server;
    /// * [`Error::UnknownServer`] for a placement onto a server the
    ///   problem lacks;
    /// * [`Error::LedgerSpec`] for a ledger of another spec;
    /// * [`Error::HostedCount`] for a ledger whose hosted count is not
    ///   the placement's;
    /// * [`Error::OverCapacity`] for a ledger over its capacity.
    pub fn from_ledgers(
        problem: &'p AllocationProblem,
        mut placement: Vec<Option<ServerId>>,
        ledgers: Vec<ServerLedger>,
    ) -> Result<Self> {
        if ledgers.len() != problem.server_count() {
            return Err(Error::LedgerCount(ledgers.len()));
        }
        placement.resize(problem.vm_count(), None);
        let mut placed = vec![0u32; ledgers.len()];
        for &server in placement.iter().flatten() {
            *placed.get_mut(server.index()).ok_or(Error::UnknownServer(server))? += 1;
        }
        for ((ledger, spec), placed) in ledgers.iter().zip(problem.servers()).zip(placed) {
            let over = |span| !ledger.peak_over(span).fits_within(spec.capacity());
            if ledger.spec() != spec {
                return Err(Error::LedgerSpec(spec.id()));
            }
            if ledger.hosted_count() != placed {
                return Err(Error::HostedCount(spec.id()));
            }
            if ledger.segments().span().is_some_and(over) {
                return Err(Error::OverCapacity(spec.id()));
            }
        }
        Ok(Self { problem, placement, ledgers })
    }

    /// The problem this assignment belongs to.
    pub fn problem(&self) -> &'p AllocationProblem {
        self.problem
    }

    /// Places `vm` on `server`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownVm`] / [`Error::UnknownServer`] for bad ids;
    /// * [`Error::AlreadyPlaced`] if the VM is already placed
    ///   (constraint (11): exactly one server per VM);
    /// * [`Error::CapacityExceeded`] if the server lacks spare CPU or
    ///   memory in any time unit of the VM's duration
    ///   (constraints (9)–(10)).
    pub fn place(&mut self, vm: VmId, server: ServerId) -> Result<()> {
        let v: &Vm = self
            .problem
            .vms()
            .get(vm.index())
            .ok_or(Error::UnknownVm(vm))?;
        if self.placement[vm.index()].is_some() {
            return Err(Error::AlreadyPlaced(vm));
        }
        let ledger = self
            .ledgers
            .get_mut(server.index())
            .ok_or(Error::UnknownServer(server))?;
        if !ledger.fits(v) {
            return Err(Error::CapacityExceeded { vm, server });
        }
        ledger.host(v);
        self.placement[vm.index()] = Some(server);
        Ok(())
    }

    /// The server hosting `vm`, if placed.
    pub fn server_of(&self, vm: VmId) -> Option<ServerId> {
        self.placement.get(vm.index()).copied().flatten()
    }

    /// The raw placement vector, indexed by VM id.
    pub fn placement(&self) -> &[Option<ServerId>] {
        &self.placement
    }

    /// Ids of VMs not yet placed.
    pub fn unplaced(&self) -> impl Iterator<Item = VmId> + '_ {
        self.placement
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(j, _)| VmId(j as u32))
    }

    /// Whether every VM is placed.
    pub fn is_complete(&self) -> bool {
        self.placement.iter().all(Option::is_some)
    }

    /// The live ledger of one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn ledger(&self, server: ServerId) -> &ServerLedger {
        &self.ledgers[server.index()]
    }

    /// All server ledgers, indexed by server id.
    pub fn ledgers(&self) -> &[ServerLedger] {
        &self.ledgers
    }

    /// Total energy cost of the current (possibly partial) assignment, in
    /// watt·time-units: the objective of Eq. (7)/(8) under the switch-off
    /// policy.
    pub fn total_cost(&self) -> f64 {
        self.ledgers.iter().map(ServerLedger::cost).sum()
    }

    /// Independently re-derives and cross-checks the assignment, returning
    /// a full report.
    ///
    /// The audit does **not** trust the incremental ledgers: it rebuilds
    /// every server's usage profile and segment set from the placement
    /// vector, re-verifies the capacity constraints, recomputes the cost
    /// from the reference implementation ([`full_cost`]) and asserts that
    /// the incremental total agrees to within floating-point tolerance.
    ///
    /// # Errors
    ///
    /// * [`Error::Unplaced`] if some VM has no server;
    /// * [`Error::CapacityExceeded`] if the placement violates capacity
    ///   (possible only for assignments forged outside [`Assignment::place`]).
    pub fn audit(&self) -> Result<AuditReport> {
        if let Some(vm) = self.unplaced().next() {
            return Err(Error::Unplaced(vm));
        }

        let n = self.problem.server_count();
        let mut per_server_vms: Vec<Vec<Vm>> = vec![Vec::new(); n];
        for (j, slot) in self.placement.iter().enumerate() {
            let server = slot.expect("checked complete above");
            per_server_vms[server.index()].push(self.problem.vms()[j]);
        }

        let mut servers = Vec::with_capacity(n);
        let mut total = EnergyBreakdown::default();
        let mut busy_units = 0u64;
        let mut cpu_util_sum = 0.0;
        let mut mem_util_sum = 0.0;

        for (i, vms) in per_server_vms.iter().enumerate() {
            let spec = &self.problem.servers()[i];

            // Independent capacity re-verification.
            let mut usage = UsageProfile::new();
            for vm in vms {
                if !usage.fits(vm.interval(), vm.demand(), spec.capacity()) {
                    return Err(Error::CapacityExceeded {
                        vm: vm.id(),
                        server: spec.id(),
                    });
                }
                usage.add(vm.interval(), vm.demand());
            }

            let segments: crate::SegmentSet = vms.iter().map(Vm::interval).collect();
            let run: f64 = vms.iter().map(|vm| spec.run_cost(vm)).sum();
            let cost = run + segment_cost(spec, &segments);
            debug_assert!(
                (cost - full_cost(spec, vms)).abs() < 1e-6,
                "segment/full cost mismatch"
            );

            // Decompose per the ILP objective: idle power over active
            // units, α per switch-on.
            let transitions = transition_count(spec, &segments);
            let kept_on_gap_units: u64 = segments
                .gaps()
                .filter(|g| !spec.switches_off_for_gap(g.len()))
                .map(|g| g.len())
                .sum();
            let active_units = segments.busy_time() + kept_on_gap_units;
            let idle_energy = spec.idle_cost(active_units);
            let transition_energy = spec.transition_cost() * transitions as f64;
            debug_assert!(
                (run + idle_energy + transition_energy - cost).abs() < 1e-6,
                "breakdown does not sum to cost"
            );

            // Utilization: pool non-zero time units (Fig. 3 metric).
            let (units, integral) = usage.nonzero_integral();
            busy_units += units;
            cpu_util_sum += integral.cpu / spec.capacity().cpu;
            mem_util_sum += if spec.capacity().mem > 0.0 {
                integral.mem / spec.capacity().mem
            } else {
                0.0
            };

            total.run += run;
            total.idle += idle_energy;
            total.transition += transition_energy;

            servers.push(ServerReport {
                server: spec.id(),
                hosted: vms.len(),
                cost,
                busy_time: segments.busy_time(),
                active_time: active_units,
                transitions,
                breakdown: EnergyBreakdown {
                    run,
                    idle: idle_energy,
                    transition: transition_energy,
                },
            });
        }

        let total_cost = total.total();
        debug_assert!(
            (total_cost - self.total_cost()).abs() < 1e-6,
            "audit total {total_cost} disagrees with incremental total {}",
            self.total_cost()
        );

        Ok(AuditReport {
            total_cost,
            breakdown: total,
            utilization: UtilizationStats {
                busy_server_time: busy_units,
                avg_cpu: if busy_units == 0 {
                    0.0
                } else {
                    cpu_util_sum / busy_units as f64
                },
                avg_mem: if busy_units == 0 {
                    0.0
                } else {
                    mem_util_sum / busy_units as f64
                },
            },
            servers,
        })
    }
}

/// Energy decomposed per the ILP objective (Eq. 7): run + idle +
/// transition, all in watt·time-units.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// `Σ W_ij x_ij`: cost of running the VMs.
    pub run: f64,
    /// `Σ P_idle y_it`: cost of keeping servers in the active state.
    pub idle: f64,
    /// `Σ α (y_it − y_{i,t−1})⁺`: switch-on transition costs.
    pub transition: f64,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.run + self.idle + self.transition
    }
}

/// Audit results for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerReport {
    /// The server.
    pub server: ServerId,
    /// Number of VMs hosted.
    pub hosted: usize,
    /// Total cost of this server (Eq. 17 + initial switch-on).
    pub cost: f64,
    /// Time units in busy segments.
    pub busy_time: u64,
    /// Time units in the active state (busy + gaps kept on).
    pub active_time: u64,
    /// Number of power-saving → active transitions.
    pub transitions: u64,
    /// Energy decomposition of `cost`.
    pub breakdown: EnergyBreakdown,
}

/// Average resource utilization across all (server, time-unit) pairs
/// where the server hosts at least one VM.
///
/// This is the metric of Figs. 3 and 8: "the average CPU utilization is
/// calculated by averaging nonzero utilization values, measuring the CPU
/// usage when the server is active."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationStats {
    /// Number of pooled (server, time-unit) samples.
    pub busy_server_time: u64,
    /// Mean CPU utilization over the pooled samples, in `[0, 1]`.
    pub avg_cpu: f64,
    /// Mean memory utilization over the pooled samples, in `[0, 1]`.
    pub avg_mem: f64,
}

/// Full audit of a complete assignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Total energy in watt·time-units.
    pub total_cost: f64,
    /// Data-center-wide energy decomposition.
    pub breakdown: EnergyBreakdown,
    /// Utilization statistics (Fig. 3 metric).
    pub utilization: UtilizationStats,
    /// Per-server details, indexed by server id.
    pub servers: Vec<ServerReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interval, PowerModel, ProblemBuilder, Resources};

    fn problem() -> AllocationProblem {
        ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(50.0, 100.0), 75.0)
            .server(
                Resources::new(8.0, 16.0),
                PowerModel::new(80.0, 200.0),
                100.0,
            )
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 4))
            .vm(Resources::new(3.0, 4.0), Interval::new(2, 6))
            .vm(Resources::new(1.0, 1.0), Interval::new(10, 12))
            .build()
            .unwrap()
    }

    #[test]
    fn place_and_query() {
        let p = problem();
        let mut a = Assignment::new(&p);
        assert!(!a.is_complete());
        a.place(VmId(0), ServerId(0)).unwrap();
        a.place(VmId(1), ServerId(1)).unwrap();
        assert_eq!(a.server_of(VmId(0)), Some(ServerId(0)));
        assert_eq!(a.server_of(VmId(1)), Some(ServerId(1)));
        assert_eq!(a.unplaced().collect::<Vec<_>>(), vec![VmId(2)]);
        a.place(VmId(2), ServerId(0)).unwrap();
        assert!(a.is_complete());
    }

    #[test]
    fn rejects_double_placement() {
        let p = problem();
        let mut a = Assignment::new(&p);
        a.place(VmId(0), ServerId(0)).unwrap();
        assert_eq!(
            a.place(VmId(0), ServerId(1)).unwrap_err(),
            Error::AlreadyPlaced(VmId(0))
        );
    }

    #[test]
    fn rejects_capacity_violation() {
        let p = problem();
        let mut a = Assignment::new(&p);
        a.place(VmId(0), ServerId(0)).unwrap();
        // VM 1 needs 3 CPU on [2,6]; server 0 has 4 − 2 = 2 left on [2,4].
        assert_eq!(
            a.place(VmId(1), ServerId(0)).unwrap_err(),
            Error::CapacityExceeded {
                vm: VmId(1),
                server: ServerId(0),
            }
        );
    }

    #[test]
    fn rejects_unknown_ids() {
        let p = problem();
        let mut a = Assignment::new(&p);
        assert_eq!(
            a.place(VmId(9), ServerId(0)).unwrap_err(),
            Error::UnknownVm(VmId(9))
        );
        assert_eq!(
            a.place(VmId(0), ServerId(9)).unwrap_err(),
            Error::UnknownServer(ServerId(9))
        );
    }

    #[test]
    fn audit_requires_complete_assignment() {
        let p = problem();
        let a = Assignment::new(&p);
        assert_eq!(a.audit().unwrap_err(), Error::Unplaced(VmId(0)));
    }

    #[test]
    fn audit_matches_incremental_total() {
        let p = problem();
        let mut a = Assignment::new(&p);
        a.place(VmId(0), ServerId(1)).unwrap();
        a.place(VmId(1), ServerId(1)).unwrap();
        a.place(VmId(2), ServerId(0)).unwrap();
        let report = a.audit().unwrap();
        assert!((report.total_cost - a.total_cost()).abs() < 1e-9);
        assert!((report.breakdown.total() - report.total_cost).abs() < 1e-9);
        assert_eq!(report.servers.len(), 2);
        assert_eq!(report.servers[1].hosted, 2);
        assert_eq!(report.servers[0].transitions, 1);
    }

    #[test]
    fn from_placement_round_trips() {
        let p = problem();
        let mut a = Assignment::new(&p);
        a.place(VmId(0), ServerId(0)).unwrap();
        a.place(VmId(1), ServerId(1)).unwrap();
        a.place(VmId(2), ServerId(0)).unwrap();
        let b = Assignment::from_placement(&p, a.placement()).unwrap();
        assert_eq!(a.placement(), b.placement());
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-9);
    }

    /// The ledgers of `placement` on `p`'s servers, hosted in VM order
    /// without a capacity check.
    fn hosted(p: &AllocationProblem, placement: &[Option<ServerId>]) -> Vec<ServerLedger> {
        let mut ledgers: Vec<ServerLedger> =
            p.servers().iter().map(|s| ServerLedger::new(*s)).collect();
        for (vm, server) in p.vms().iter().zip(placement) {
            if let Some(server) = server {
                ledgers[server.index()].host_piece(vm.demand(), vm.interval());
            }
        }
        ledgers
    }

    #[test]
    fn from_ledgers_adopts_what_from_placement_rebuilds() {
        let p = problem();
        let placement = vec![Some(ServerId(1)), Some(ServerId(1)), Some(ServerId(0))];
        let ledgers = hosted(&p, &placement);
        let adopted = Assignment::from_ledgers(&p, placement.clone(), ledgers).unwrap();
        let rebuilt = Assignment::from_placement(&p, &placement).unwrap();
        assert_eq!(adopted.placement(), rebuilt.placement());
        assert_eq!(adopted.total_cost().to_bits(), rebuilt.total_cost().to_bits());
        assert_eq!(adopted.audit(), rebuilt.audit());
        // A short placement leaves the rest unplaced.
        let first = vec![Some(ServerId(0))];
        let partial = Assignment::from_ledgers(&p, first.clone(), hosted(&p, &first)).unwrap();
        assert_eq!(partial.unplaced().count(), 2);
    }

    #[test]
    fn from_ledgers_refuses_ledgers_that_do_not_match_the_placement() {
        let p = problem();
        let placement = vec![Some(ServerId(1)), Some(ServerId(1)), Some(ServerId(0))];
        let adopt = |placement: &[Option<ServerId>], ledgers| {
            Assignment::from_ledgers(&p, placement.to_vec(), ledgers).unwrap_err()
        };
        // One ledger short.
        let mut ledgers = hosted(&p, &placement);
        ledgers.pop();
        assert_eq!(adopt(&placement, ledgers), Error::LedgerCount(1));
        // Server 0's ledger opened for server 1's spec.
        let mut ledgers = hosted(&p, &placement);
        ledgers.swap(0, 1);
        assert_eq!(adopt(&placement, ledgers), Error::LedgerSpec(ServerId(0)));
        // The placement moves VM 2 without its ledger.
        let moved = [Some(ServerId(1)), Some(ServerId(1)), Some(ServerId(1))];
        assert_eq!(
            adopt(&moved, hosted(&p, &placement)),
            Error::HostedCount(ServerId(0))
        );
        // VMs 0 and 1 need 5 CPU on [2, 4]; server 0 has 4.
        let crowded = [Some(ServerId(0)), Some(ServerId(0)), None];
        assert_eq!(adopt(&crowded, hosted(&p, &crowded)), Error::OverCapacity(ServerId(0)));
        // A placement past the VM list is dropped, and the ledger that
        // hosts it no longer matches; a placement past the fleet is refused.
        let mut ledgers = hosted(&p, &placement);
        ledgers[1].host(&Vm::new(3, Resources::new(1.0, 1.0), Interval::new(20, 21)));
        let long = [placement.as_slice(), &[Some(ServerId(1))]].concat();
        assert_eq!(adopt(&long, ledgers), Error::HostedCount(ServerId(1)));
        let far = [Some(ServerId(7)), None, None];
        assert_eq!(adopt(&far, hosted(&p, &[])), Error::UnknownServer(ServerId(7)));
    }

    #[test]
    fn from_placement_rejects_bad_vector() {
        let p = problem();
        // Both big VMs on the small server: capacity violation.
        let placement = vec![Some(ServerId(0)), Some(ServerId(0)), Some(ServerId(0))];
        assert!(Assignment::from_placement(&p, &placement).is_err());
    }

    #[test]
    fn utilization_pools_busy_time_only() {
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(50.0, 100.0), 75.0)
            .vm(Resources::new(2.0, 4.0), Interval::new(1, 4))
            .build()
            .unwrap();
        let mut a = Assignment::new(&p);
        a.place(VmId(0), ServerId(0)).unwrap();
        let r = a.audit().unwrap();
        assert_eq!(r.utilization.busy_server_time, 4);
        assert!((r.utilization.avg_cpu - 0.5).abs() < 1e-12);
        assert!((r.utilization.avg_mem - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_problem_audits_to_zero() {
        let p = ProblemBuilder::new()
            .server(Resources::new(1.0, 1.0), PowerModel::new(1.0, 2.0), 0.0)
            .build()
            .unwrap();
        let a = Assignment::new(&p);
        let r = a.audit().unwrap();
        assert_eq!(r.total_cost, 0.0);
        assert_eq!(r.utilization.busy_server_time, 0);
        assert_eq!(r.utilization.avg_cpu, 0.0);
    }
}

//! Failure-aware replay engine.
//!
//! [`ChaosEngine`] replays an offline allocation against a
//! [`FaultPlan`] in two phases. Phase 1 runs the wrapped allocator on
//! the unmodified problem to obtain the *intended* placement. Phase 2
//! replays the timeline event by event over a fresh [`Fleet`], the one
//! the online engine runs on too: arrivals host onto their intended
//! server when it is up and has capacity; a `ServerDown` evicts the
//! victim's live VMs — the already-elapsed prefix of each interval stays
//! charged to the crashed server, the remaining tail enters a retry
//! queue and is re-placed by the fleet's Eq. 7 argmin over the candidate
//! index. Bounded retries with deterministic exponential backoff precede
//! admission shedding; nothing in the engine panics on a hostile plan.
//!
//! # Event ordering
//!
//! At one instant `t` the engine processes, in order: (1) availability
//! events in canonical plan order (per server, `down` precedes `up`, so
//! a zero-length outage still displaces), then the cold rule's pass,
//! which moves the servers cold at `t` to standby and keeps their
//! history, as MIEC does; (2) the retry queue in [`ShedPolicy`] order;
//! (3) arrivals in `(start, id)` order. Every piece is hosted at an
//! interval starting at the current instant.
//!
//! # Energy accounting under faults
//!
//! Evicting at `t` keeps the prefix `[s, t-1]` of a hosted piece
//! `[s, e]`, so the ledger charges exactly the work performed before the
//! crash. Outages inside gaps shorter than `g*`, which a ledger idles
//! through, forced switch-ons the ledgers do not show; the fleet prices
//! them on the final ledgers ([`Fleet::fault_transitions`]) as
//! `extra_transitions` and `fault_transition_energy`, reported apart
//! from [`ChaosReport::cost`] so that the empty-plan replay stays
//! bit-for-bit identical to the offline allocator.
//!
//! # The empty-plan guarantee
//!
//! With [`FaultPlan::empty`], every arrival hosts onto its intended
//! server via the same `host_piece` call sequence the offline
//! [`Assignment`](esvm_simcore::Assignment) performs, in the same
//! order, against ledgers built from the same specs. Placements, total
//! cost, and the per-component energy breakdown are therefore
//! reproduced bit for bit — enforced for all allocator kinds by
//! `tests/differential_chaos.rs`.

use crate::plan::{FaultEvent, FaultPlan};
use crate::policy::{RepairPolicy, ShedPolicy};
use esvm_core::{AllocError, Allocator, Fleet};
use esvm_obs::{names, DecisionKind, ExplainRecord, MetricsRegistry, NoopTracer, Tracer};
use esvm_simcore::{
    AllocationProblem, EnergyBreakdown, Interval, ServerId, ServerLedger, TimeUnit, Vm, VmId,
};
use rand::RngCore;
use std::collections::BTreeSet;
use std::fmt;

/// Error from a chaos run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ChaosError {
    /// The offline allocator failed in phase 1; faults were never
    /// injected.
    Offline(AllocError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Offline(e) => write!(f, "offline allocation failed: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// One successful re-placement of a displaced or redirected VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairRecord {
    /// The repaired VM.
    pub vm: VmId,
    /// Server the VM was displaced from (`None` for an arrival whose
    /// intended server was unavailable — a redirected admission).
    pub from: Option<ServerId>,
    /// Server the remaining work landed on.
    pub to: ServerId,
    /// Instant the VM was displaced (or arrived).
    pub displaced_at: TimeUnit,
    /// Instant the remaining work was re-hosted.
    pub placed_at: TimeUnit,
    /// Placement attempts consumed (0 = repaired immediately).
    pub attempts: u32,
}

impl RepairRecord {
    /// Time units between displacement and re-placement.
    pub fn latency(&self) -> u64 {
        u64::from(self.placed_at - self.displaced_at)
    }
}

/// Outcome of a chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Final placement, indexed by VM id: the server hosting the VM's
    /// last-scheduled piece. Shed VMs keep the server their prefix ran
    /// on; refused VMs are `None`.
    pub placement: Vec<Option<ServerId>>,
    /// Total scheduled energy: `Σ ledger.cost()` in server order —
    /// identical to the offline `Assignment::total_cost()` fold.
    pub cost: f64,
    /// Per-component fold of the ledgers' Eq. 7 decompositions.
    pub breakdown: EnergyBreakdown,
    /// Cost of the intended (fault-free) offline assignment.
    pub offline_cost: f64,
    /// Forced recovery transitions not visible to the ledgers.
    pub extra_transitions: u64,
    /// Net energy adjustment for those forced transitions: per outage,
    /// α minus the idle energy over-charged for the down span. Add to
    /// [`ChaosReport::cost`] via [`ChaosReport::adjusted_cost`].
    pub fault_transition_energy: f64,
    /// Interval time units displaced by evictions.
    pub displaced_vm_minutes: u64,
    /// Number of eviction events (VM pieces displaced).
    pub displaced: u64,
    /// Arrivals redirected away from a down/full intended server.
    pub redirected_admissions: u64,
    /// Displaced VMs whose remaining work was dropped after retries.
    pub shed: Vec<VmId>,
    /// Arrivals that could never be admitted anywhere.
    pub refused: Vec<VmId>,
    /// Every successful re-placement, in replay order.
    pub repairs: Vec<RepairRecord>,
    /// Final per-server ledgers after replay.
    pub ledgers: Vec<ServerLedger>,
}

impl ChaosReport {
    /// Scheduled cost plus the forced-transition surcharge — the
    /// physically-meaningful total under faults.
    pub fn adjusted_cost(&self) -> f64 {
        self.cost + self.fault_transition_energy
    }
}

/// A displaced tail (or unadmitted arrival) waiting for capacity.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    vm: usize,
    end: TimeUnit,
    attempts: u32,
    next_try: TimeUnit,
    displaced_at: TimeUnit,
    from: Option<ServerId>,
}

/// Deterministic fault-injection replay around any [`Allocator`].
#[derive(Debug, Clone, Default)]
pub struct ChaosEngine {
    plan: FaultPlan,
    policy: RepairPolicy,
}

impl ChaosEngine {
    /// Engine replaying the given plan with the default
    /// [`RepairPolicy`].
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            policy: RepairPolicy::default(),
        }
    }

    /// Overrides the repair/degradation policy.
    pub fn with_policy(mut self, policy: RepairPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The plan this engine replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Runs phase 1 (offline allocation) and phase 2 (fault replay)
    /// without telemetry.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Offline`] when the wrapped allocator itself fails;
    /// faults never make the replay error — degraded runs complete with
    /// shed/refused work recorded in the report.
    pub fn run(
        &self,
        problem: &AllocationProblem,
        allocator: &dyn Allocator,
        rng: &mut dyn RngCore,
    ) -> Result<ChaosReport, ChaosError> {
        self.run_traced(problem, allocator, rng, &MetricsRegistry::new(), &NoopTracer)
    }

    /// [`ChaosEngine::run`] with instrumentation: robustness metrics
    /// land in `metrics` (see [`esvm_obs::names::chaos`]); phase 1 runs
    /// under a `chaos.offline` span, phase 2 under `chaos.replay` with
    /// one `chaos.evict` child per effective outage and one
    /// `chaos.attempt` child per repair-scoring pass; every displaced
    /// VM emits a [`DecisionKind::Evict`] explain record (source server
    /// and instant), and every repair / shed / refusal a
    /// [`DecisionKind::Repair`] / [`DecisionKind::Shed`] /
    /// [`DecisionKind::Refuse`] record attributing the displacement
    /// source, attempt count and instant. With [`NoopTracer`] this *is*
    /// [`ChaosEngine::run`].
    ///
    /// # Errors
    ///
    /// [`ChaosError::Offline`] when the wrapped allocator fails.
    pub fn run_traced<T: Tracer>(
        &self,
        problem: &AllocationProblem,
        allocator: &dyn Allocator,
        rng: &mut dyn RngCore,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) -> Result<ChaosReport, ChaosError> {
        let intended = {
            let _offline_span = tracer.span("chaos.offline");
            allocator
                .allocate(problem, rng)
                .map_err(ChaosError::Offline)?
        };
        let offline_cost = intended.total_cost();
        let intended_placement: Vec<Option<ServerId>> = intended.placement().to_vec();
        drop(intended);
        Ok(self.replay(problem, &intended_placement, offline_cost, metrics, tracer))
    }

    /// Phase 2: event-driven replay of the intended placement under the
    /// fault plan.
    fn replay<T: Tracer>(
        &self,
        problem: &AllocationProblem,
        intended: &[Option<ServerId>],
        offline_cost: f64,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) -> ChaosReport {
        let _replay_span = tracer.span("chaos.replay");
        let vms = problem.vms();
        let n = problem.servers().len();
        // Agenda: every instant where something can happen. Retry times
        // are inserted as backoffs are scheduled.
        let events = self.plan.events();
        let mut agenda: BTreeSet<TimeUnit> = vms.iter().map(|vm| vm.start()).collect();
        agenda.extend(events.iter().map(FaultEvent::at));
        let mut replay = Replay {
            policy: self.policy,
            vms,
            fleet: Fleet::new(problem.servers()),
            queue: Vec::new(),
            agenda,
            report: ChaosReport {
                placement: vec![None; vms.len()],
                offline_cost,
                ..ChaosReport::default()
            },
            metrics,
            tracer,
        };
        let arrivals: Vec<usize> = problem.vms_by_start_time();
        let mut next_event = 0usize;
        let mut next_arrival = 0usize;

        while let Some(t) = replay.agenda.pop_first() {
            // (1) Availability events, in canonical plan order.
            while next_event < events.len() && events[next_event].at() == t {
                let event = &events[next_event];
                next_event += 1;
                let server = event.server();
                if server.index() >= n {
                    continue;
                }
                if let FaultEvent::ServerUp { .. } = event {
                    replay.fleet.set_up(server, t);
                } else if replay.fleet.set_down(server, t) {
                    replay.displace(server, t);
                }
            }
            // Cold servers move to standby before any decision at `t`.
            replay.fleet.demote(t);

            // (2) Retry queue, in shed-policy order.
            let (mut due, waiting): (Vec<QueueEntry>, _) = std::mem::take(&mut replay.queue)
                .into_iter()
                .partition(|entry| entry.next_try <= t);
            replay.queue = waiting;
            self.order_queue(&mut due, t);
            for entry in due {
                replay.attempt(entry, t);
            }

            // (3) Arrivals, in (start, id) order.
            while next_arrival < arrivals.len() && vms[arrivals[next_arrival]].start() == t {
                let j = arrivals[next_arrival];
                next_arrival += 1;
                let vm = vms[j];
                match intended.get(j).copied().flatten() {
                    Some(server)
                        if server.index() < n
                            && !replay.fleet.index().is_down(server)
                            && replay.fleet.ledgers()[server.index()].fits(&vm) =>
                    {
                        replay.fleet.host(server, vm, t);
                        replay.report.placement[j] = Some(server);
                    }
                    // Intended server down or out of capacity: redirect
                    // through the same scoring the repair path uses.
                    _ => replay.attempt(
                        QueueEntry {
                            vm: j,
                            end: vm.end(),
                            attempts: 0,
                            next_try: t,
                            displaced_at: t,
                            from: None,
                        },
                        t,
                    ),
                }
            }
        }

        // Anything still queued when the agenda runs dry is past every
        // retry instant that could matter — count it as lost.
        for entry in std::mem::take(&mut replay.queue) {
            replay.drop_entry(&entry);
        }
        replay.finish()
    }

    /// Orders due queue entries so the front of the queue gets first
    /// claim on capacity (see [`ShedPolicy`]).
    fn order_queue(&self, due: &mut [QueueEntry], t: TimeUnit) {
        let remaining = |e: &QueueEntry| u64::from(e.end.saturating_sub(t)) + 1;
        match self.policy.shed {
            ShedPolicy::SmallestRemainingFirst => {
                due.sort_by_key(|e| (std::cmp::Reverse(remaining(e)), e.vm));
            }
            ShedPolicy::LargestRemainingFirst => {
                due.sort_by_key(|e| (remaining(e), e.vm));
            }
            ShedPolicy::ArrivalOrder => {
                due.sort_by_key(|e| (e.displaced_at, e.vm));
            }
        }
    }
}

/// Phase 2's state: the fleet, the retry queue, the agenda and the
/// report being filled in.
struct Replay<'a, T> {
    policy: RepairPolicy,
    vms: &'a [Vm],
    fleet: Fleet,
    queue: Vec<QueueEntry>,
    agenda: BTreeSet<TimeUnit>,
    report: ChaosReport,
    metrics: &'a MetricsRegistry,
    tracer: &'a T,
}

impl<T: Tracer> Replay<'_, T> {
    /// Evicts every live piece of `server` at instant `t` through the
    /// fleet and queues the displaced tails.
    fn displace(&mut self, server: ServerId, t: TimeUnit) {
        let _evict_span = self.tracer.span("chaos.evict");
        // Every piece starts at the instant it was hosted, so start order
        // is hosting order, the order of the ledger edits the cost bits
        // depend on.
        for piece in self.fleet.evict(server, t, Vm::start) {
            let tail_len = u64::from(piece.end() - t) + 1;
            self.report.displaced += 1;
            self.report.displaced_vm_minutes += tail_len;
            self.queue.push(QueueEntry {
                vm: piece.id().index(),
                end: piece.end(),
                attempts: 0,
                next_try: t,
                displaced_at: t,
                from: Some(server),
            });
            if T::ENABLED {
                self.metrics.add(names::chaos::DISPLACED_VMS, 1);
                self.metrics.add(names::chaos::DISPLACED_VM_MINUTES, tail_len);
                // The displaced tail is `[time, end]` of the VM.
                self.tracer.explain(&ExplainRecord {
                    from: Some(server.index() as u64),
                    time: Some(u64::from(t)),
                    ..ExplainRecord::new(DecisionKind::Evict, piece.id().index() as u64)
                });
            }
        }
    }

    /// One placement attempt for a queued entry at instant `t`: the
    /// fleet's Eq. 7 argmin over the up servers, exponential backoff on
    /// failure, shed/refuse on exhaustion.
    fn attempt(&mut self, mut entry: QueueEntry, t: TimeUnit) {
        let _attempt_span = self.tracer.span("chaos.attempt");
        let Some(interval) = Interval::checked_new(t, entry.end) else {
            self.drop_entry(&entry);
            return;
        };
        let piece = Vm::new(entry.vm as u32, self.vms[entry.vm].demand(), interval);
        let scan = self.fleet.scan(&piece, &piece, T::ENABLED);
        if let Some((_, s)) = scan.best {
            let server = ServerId(s);
            if T::ENABLED {
                let pruned = self.fleet.index().pruned();
                self.tracer.explain(&ExplainRecord {
                    from: entry.from.map(|f| f.index() as u64),
                    attempt: u64::from(entry.attempts),
                    time: Some(u64::from(t)),
                    ..scan.explain(DecisionKind::Repair, entry.vm as u64, pruned)
                });
            }
            self.fleet.host(server, piece, t);
            self.report.placement[entry.vm] = Some(server);
            let record = RepairRecord {
                vm: VmId(entry.vm as u32),
                from: entry.from,
                to: server,
                displaced_at: entry.displaced_at,
                placed_at: t,
                attempts: entry.attempts,
            };
            if entry.from.is_none() && record.latency() == 0 {
                self.report.redirected_admissions += 1;
            }
            if T::ENABLED {
                self.metrics
                    .observe(names::chaos::REPAIR_LATENCY, record.latency() as f64);
                self.metrics.add(names::chaos::REPAIRS, 1);
            }
            self.report.repairs.push(record);
            return;
        }
        entry.attempts += 1;
        if entry.attempts > self.policy.max_retries {
            self.drop_entry(&entry);
            return;
        }
        let next_try = t.saturating_add(self.policy.delay_for(entry.attempts));
        if next_try > entry.end {
            self.drop_entry(&entry);
            return;
        }
        entry.next_try = next_try;
        self.agenda.insert(next_try);
        self.queue.push(entry);
    }

    /// Records a queue entry that ran out of retries or time: shed if
    /// it had already run a prefix somewhere, refused if it was never
    /// admitted at all.
    fn drop_entry(&mut self, entry: &QueueEntry) {
        use names::chaos::{REFUSED_ADMISSIONS, SHED};
        let (list, kind, counter) = match entry.from {
            Some(_) => (&mut self.report.shed, DecisionKind::Shed, SHED),
            None => (&mut self.report.refused, DecisionKind::Refuse, REFUSED_ADMISSIONS),
        };
        list.push(VmId(entry.vm as u32));
        if T::ENABLED {
            self.metrics.add(counter, 1);
            self.tracer.explain(&ExplainRecord {
                from: entry.from.map(|f| f.index() as u64),
                attempt: u64::from(entry.attempts),
                time: Some(u64::from(entry.displaced_at)),
                ..ExplainRecord::new(kind, entry.vm as u64)
            });
        }
    }

    /// Prices the outages and folds the ledgers into the report.
    fn finish(self) -> ChaosReport {
        let mut report = self.report;
        let faults = self.fleet.fault_transitions();
        report.extra_transitions = faults.count;
        report.fault_transition_energy = faults.energy;
        self.metrics
            .add(names::chaos::EXTRA_TRANSITIONS, report.extra_transitions);
        self.metrics.set_gauge(
            names::chaos::FAULT_TRANSITION_ENERGY,
            report.fault_transition_energy,
        );
        for ledger in self.fleet.ledgers() {
            let b = ledger.energy_breakdown();
            report.cost += ledger.cost();
            report.breakdown.run += b.run;
            report.breakdown.idle += b.idle;
            report.breakdown.transition += b.transition;
        }
        if T::ENABLED {
            self.metrics.set_gauge(names::chaos::ENERGY_COST, report.cost);
            self.metrics
                .set_gauge(names::chaos::ENERGY_ADJUSTED_COST, report.adjusted_cost());
            self.metrics
                .set_gauge(names::chaos::ENERGY_OFFLINE_COST, report.offline_cost);
        }
        report.ledgers = self.fleet.into_ledgers();
        report
    }
}

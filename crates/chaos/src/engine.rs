//! Failure-aware replay engine.
//!
//! [`ChaosEngine`] replays an offline allocation against a
//! [`FaultPlan`] in two phases. Phase 1 runs the wrapped allocator on
//! the unmodified problem to obtain the *intended* placement. Phase 2
//! replays the timeline event by event over a fresh set of
//! [`ServerLedger`]s: arrivals host onto their intended server when it
//! is up and has capacity; a `ServerDown` evicts the victim's live VMs
//! — the already-elapsed prefix of each interval stays charged to the
//! crashed server, the remaining tail enters a retry queue and is
//! re-placed by the same incremental-cost scoring MIEC uses. Bounded
//! retries with deterministic exponential backoff precede admission
//! shedding; nothing in the engine panics on a hostile plan.
//!
//! # Event ordering
//!
//! At one instant `t` the engine processes, in order: (1) availability
//! events in canonical plan order (per server, `down` precedes `up`, so
//! a zero-length outage still displaces), (2) the retry queue in
//! [`ShedPolicy`] order, (3) arrivals in `(start, id)` order. Every
//! piece is hosted at an interval starting at the current instant, so
//! no busy segment of a server ever overlaps one of its own outages —
//! the invariant behind the recovery-transition accounting below.
//!
//! # Energy accounting under faults
//!
//! Evicting at `t` truncates the run cost at the crash instant: the
//! hosted piece `[s, e]` is unhosted and its prefix `[s, t-1]` is
//! re-hosted, so the ledger charges exactly the work performed before
//! the crash. After replay, each resolved outage `(crash c, recover r)`
//! that falls inside a gap the ledger prices as *kept-on idle* adds one
//! forced transition per Eq. 7 — the server was physically off and must
//! switch back on — recorded as `extra_transitions` and
//! `fault_transition_energy` (α minus the idle energy the ledger
//! over-charged for the down span). Outages inside gaps the ledger
//! already prices as off-and-restart coincide with the planned
//! transition and add nothing. The surcharge is reported separately
//! from [`ChaosReport::cost`] so that the empty-plan replay remains
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
use esvm_core::{argmin, AllocError, Allocator};
use esvm_obs::{names, DecisionKind, ExplainRecord, MetricsRegistry, NoopTracer, Tracer};
use esvm_simcore::{
    AllocationProblem, EnergyBreakdown, Interval, ServerId, ServerLedger, TimeUnit, VmId,
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
#[derive(Debug, Clone)]
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

/// A piece of a VM's interval currently charged to one server.
#[derive(Debug, Clone, Copy)]
struct Piece {
    vm: usize,
    interval: Interval,
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
        let mut ledgers: Vec<ServerLedger> = problem
            .servers()
            .iter()
            .map(|spec| ServerLedger::new(spec.clone()))
            .collect();
        let mut up = vec![true; n];
        let mut outage_start: Vec<Option<TimeUnit>> = vec![None; n];
        let mut resolved_outages: Vec<(usize, TimeUnit, TimeUnit)> = Vec::new();
        let mut resident: Vec<Vec<Piece>> = vec![Vec::new(); n];
        let mut placement: Vec<Option<ServerId>> = vec![None; vms.len()];
        let mut queue: Vec<QueueEntry> = Vec::new();
        let mut report = ChaosReport {
            placement: Vec::new(),
            cost: 0.0,
            breakdown: EnergyBreakdown::default(),
            offline_cost,
            extra_transitions: 0,
            fault_transition_energy: 0.0,
            displaced_vm_minutes: 0,
            displaced: 0,
            redirected_admissions: 0,
            shed: Vec::new(),
            refused: Vec::new(),
            repairs: Vec::new(),
            ledgers: Vec::new(),
        };

        // Agenda: every instant where something can happen. Retry times
        // are inserted as backoffs are scheduled.
        let arrivals: Vec<usize> = problem.vms_by_start_time();
        let mut agenda: BTreeSet<TimeUnit> = vms.iter().map(|vm| vm.start()).collect();
        let events = self.plan.events();
        agenda.extend(events.iter().map(FaultEvent::at));
        let mut next_event = 0usize;
        let mut next_arrival = 0usize;

        while let Some(t) = agenda.pop_first() {
            // (1) Availability events, in canonical plan order.
            while next_event < events.len() && events[next_event].at() == t {
                match events[next_event] {
                    FaultEvent::ServerUp { server, .. } => {
                        let s = server.index();
                        if s < n && !up[s] {
                            up[s] = true;
                            if let Some(c) = outage_start[s].take() {
                                if t > c {
                                    resolved_outages.push((s, c, t));
                                }
                            }
                        }
                    }
                    FaultEvent::ServerDown { server, .. } => {
                        let s = server.index();
                        if s < n && up[s] {
                            up[s] = false;
                            outage_start[s] = Some(t);
                            Self::evict(
                                s,
                                t,
                                problem,
                                &mut ledgers,
                                &mut resident,
                                &mut queue,
                                &mut report,
                                metrics,
                                tracer,
                            );
                        }
                    }
                }
                next_event += 1;
            }

            // (2) Retry queue, in shed-policy order.
            let mut due: Vec<QueueEntry> = Vec::new();
            queue.retain(|entry| {
                if entry.next_try <= t {
                    due.push(*entry);
                    false
                } else {
                    true
                }
            });
            self.order_queue(&mut due, t);
            for entry in due {
                self.attempt(
                    entry,
                    t,
                    problem,
                    &mut ledgers,
                    &up,
                    &mut resident,
                    &mut placement,
                    &mut queue,
                    &mut agenda,
                    &mut report,
                    metrics,
                    tracer,
                );
            }

            // (3) Arrivals, in (start, id) order.
            while next_arrival < arrivals.len() && vms[arrivals[next_arrival]].start() == t {
                let j = arrivals[next_arrival];
                next_arrival += 1;
                let vm = &vms[j];
                let target = intended.get(j).copied().flatten();
                let hosted = target.is_some_and(|server| {
                    let s = server.index();
                    s < n && up[s] && ledgers[s].fits_piece(vm.demand(), vm.interval())
                });
                if let (true, Some(server)) = (hosted, target) {
                    let s = server.index();
                    ledgers[s].host_piece(vm.demand(), vm.interval());
                    resident[s].push(Piece {
                        vm: j,
                        interval: vm.interval(),
                    });
                    placement[j] = Some(server);
                } else {
                    // Intended server down or out of capacity: redirect
                    // through the same scoring the repair path uses.
                    let entry = QueueEntry {
                        vm: j,
                        end: vm.end(),
                        attempts: 0,
                        next_try: t,
                        displaced_at: t,
                        from: None,
                    };
                    self.attempt(
                        entry,
                        t,
                        problem,
                        &mut ledgers,
                        &up,
                        &mut resident,
                        &mut placement,
                        &mut queue,
                        &mut agenda,
                        &mut report,
                        metrics,
                        tracer,
                    );
                }
            }
        }

        // Anything still queued when the agenda runs dry is past every
        // retry instant that could matter — count it as lost.
        let leftovers = std::mem::take(&mut queue);
        for entry in leftovers {
            self.drop_entry(&entry, &mut report, metrics, tracer);
        }

        self.charge_recovery_transitions(&ledgers, &resolved_outages, &mut report, metrics);

        for ledger in &ledgers {
            let b = ledger.energy_breakdown();
            report.cost += ledger.cost();
            report.breakdown.run += b.run;
            report.breakdown.idle += b.idle;
            report.breakdown.transition += b.transition;
        }
        if T::ENABLED {
            metrics.set_gauge(names::chaos::ENERGY_COST, report.cost);
            metrics.set_gauge(names::chaos::ENERGY_ADJUSTED_COST, report.adjusted_cost());
            metrics.set_gauge(names::chaos::ENERGY_OFFLINE_COST, offline_cost);
        }
        report.placement = placement;
        report.ledgers = ledgers;
        report
    }

    /// Evicts every live piece of server `s` at instant `t`.
    #[allow(clippy::too_many_arguments)]
    fn evict<T: Tracer>(
        s: usize,
        t: TimeUnit,
        problem: &AllocationProblem,
        ledgers: &mut [ServerLedger],
        resident: &mut [Vec<Piece>],
        queue: &mut Vec<QueueEntry>,
        report: &mut ChaosReport,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) {
        let _evict_span = tracer.span("chaos.evict");
        let pieces = std::mem::take(&mut resident[s]);
        let mut kept = Vec::with_capacity(pieces.len());
        for piece in pieces {
            let iv = piece.interval;
            if iv.end() < t {
                kept.push(piece);
                continue;
            }
            let demand = problem.vms()[piece.vm].demand();
            ledgers[s].unhost_piece(demand, iv);
            if iv.start() < t {
                // The work done before the crash really happened; only
                // the tail is displaced.
                if let Some(prefix) = Interval::checked_new(iv.start(), t - 1) {
                    ledgers[s].host_piece(demand, prefix);
                    kept.push(Piece {
                        vm: piece.vm,
                        interval: prefix,
                    });
                }
            }
            let tail_len = u64::from(iv.end() - t) + 1;
            report.displaced += 1;
            report.displaced_vm_minutes += tail_len;
            queue.push(QueueEntry {
                vm: piece.vm,
                end: iv.end(),
                attempts: 0,
                next_try: t,
                displaced_at: t,
                from: Some(ServerId(s as u32)),
            });
            if T::ENABLED {
                metrics.add(names::chaos::DISPLACED_VMS, 1);
                metrics.add(names::chaos::DISPLACED_VM_MINUTES, tail_len);
                // The displaced tail is `[time, end]` of the VM.
                tracer.explain(&ExplainRecord {
                    from: Some(s as u64),
                    time: Some(u64::from(t)),
                    ..ExplainRecord::new(DecisionKind::Evict, piece.vm as u64)
                });
            }
        }
        resident[s] = kept;
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

    /// One placement attempt for a queued entry at instant `t`:
    /// MIEC-style lowest-incremental-cost scoring over the up servers,
    /// exponential backoff on failure, shed/refuse on exhaustion.
    #[allow(clippy::too_many_arguments)]
    fn attempt<T: Tracer>(
        &self,
        mut entry: QueueEntry,
        t: TimeUnit,
        problem: &AllocationProblem,
        ledgers: &mut [ServerLedger],
        up: &[bool],
        resident: &mut [Vec<Piece>],
        placement: &mut [Option<ServerId>],
        queue: &mut Vec<QueueEntry>,
        agenda: &mut BTreeSet<TimeUnit>,
        report: &mut ChaosReport,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) {
        let _attempt_span = tracer.span("chaos.attempt");
        if t > entry.end {
            self.drop_entry(&entry, report, metrics, tracer);
            return;
        }
        let demand = problem.vms()[entry.vm].demand();
        let Some(interval) = Interval::checked_new(t, entry.end) else {
            self.drop_entry(&entry, report, metrics, tracer);
            return;
        };
        // The Eq. 7 argmin kernel over the up servers in ascending id:
        // strict `<`, so the lowest id wins exact ties. Its tallies feed
        // the explain record and are kept only in traced builds.
        let up_ids = (0..ledgers.len() as u32).filter(|&i| up[i as usize]);
        let scan = argmin(up_ids, T::ENABLED, |i| {
            let ledger = &ledgers[i as usize];
            ledger
                .fits_piece(demand, interval)
                .then(|| ledger.incremental_piece_cost(demand, interval))
        });
        if let Some((winning_cost, s)) = scan.best {
            let s = s as usize;
            if T::ENABLED {
                tracer.explain(&ExplainRecord {
                    candidates: scan.candidates,
                    unfit: scan.unfit,
                    winner: Some(s as u64),
                    delta_cost: winning_cost,
                    from: entry.from.map(|f| f.index() as u64),
                    attempt: u64::from(entry.attempts),
                    time: Some(u64::from(t)),
                    ..ExplainRecord::new(DecisionKind::Repair, entry.vm as u64)
                });
            }
            ledgers[s].host_piece(demand, interval);
            resident[s].push(Piece {
                vm: entry.vm,
                interval,
            });
            placement[entry.vm] = Some(ServerId(s as u32));
            let record = RepairRecord {
                vm: VmId(entry.vm as u32),
                from: entry.from,
                to: ServerId(s as u32),
                displaced_at: entry.displaced_at,
                placed_at: t,
                attempts: entry.attempts,
            };
            if entry.from.is_none() && record.latency() == 0 {
                report.redirected_admissions += 1;
            }
            if T::ENABLED {
                metrics.observe(names::chaos::REPAIR_LATENCY, record.latency() as f64);
                metrics.add(names::chaos::REPAIRS, 1);
            }
            report.repairs.push(record);
            return;
        }
        entry.attempts += 1;
        if entry.attempts > self.policy.max_retries {
            self.drop_entry(&entry, report, metrics, tracer);
            return;
        }
        let next_try = t.saturating_add(self.policy.delay_for(entry.attempts));
        if next_try > entry.end {
            self.drop_entry(&entry, report, metrics, tracer);
            return;
        }
        entry.next_try = next_try;
        agenda.insert(next_try);
        queue.push(entry);
    }

    /// Records a queue entry that ran out of retries or time: shed if
    /// it had already run a prefix somewhere, refused if it was never
    /// admitted at all.
    fn drop_entry<T: Tracer>(
        &self,
        entry: &QueueEntry,
        report: &mut ChaosReport,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) {
        let vm = VmId(entry.vm as u32);
        if entry.from.is_some() {
            report.shed.push(vm);
        } else {
            report.refused.push(vm);
        }
        if T::ENABLED {
            let kind = if entry.from.is_some() {
                metrics.add(names::chaos::SHED, 1);
                DecisionKind::Shed
            } else {
                metrics.add(names::chaos::REFUSED_ADMISSIONS, 1);
                DecisionKind::Refuse
            };
            tracer.explain(&ExplainRecord {
                from: entry.from.map(|f| f.index() as u64),
                attempt: u64::from(entry.attempts),
                time: Some(u64::from(entry.displaced_at)),
                ..ExplainRecord::new(kind, entry.vm as u64)
            });
        }
    }

    /// Final pass: charge one forced Eq. 7 transition for each resolved
    /// outage that fell inside a gap the ledger prices as kept-on idle
    /// (see the module docs for why this is exact).
    fn charge_recovery_transitions(
        &self,
        ledgers: &[ServerLedger],
        resolved: &[(usize, TimeUnit, TimeUnit)],
        report: &mut ChaosReport,
        metrics: &MetricsRegistry,
    ) {
        for &(s, c, r) in resolved {
            let ledger = &ledgers[s];
            let spec = ledger.spec();
            let mut prev_end: Option<TimeUnit> = None;
            let mut next_start: Option<TimeUnit> = None;
            for iv in ledger.segments().iter() {
                if iv.end() < c {
                    prev_end = Some(iv.end());
                } else if next_start.is_none() {
                    next_start = Some(iv.start());
                }
            }
            let (Some(prev), Some(next)) = (prev_end, next_start) else {
                // The outage sits before the first or after the last
                // busy segment: the ledger's initial switch-on (or
                // nothing at all) already tells the right story.
                continue;
            };
            debug_assert!(next >= r, "busy segment overlaps an outage");
            let gap_len = u64::from(next - prev) - 1;
            if spec.switches_off_for_gap(gap_len) {
                // The ledger already prices this gap as off + restart;
                // the recovery coincides with the planned transition.
                continue;
            }
            report.extra_transitions += 1;
            report.fault_transition_energy +=
                spec.transition_cost() - spec.idle_cost(u64::from(r - c));
        }
        metrics.add(names::chaos::EXTRA_TRANSITIONS, report.extra_transitions);
        metrics.set_gauge(
            names::chaos::FAULT_TRANSITION_ENERGY,
            report.fault_transition_energy,
        );
    }
}

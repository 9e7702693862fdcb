//! Dynamic consolidation by live migration — the extension the paper
//! contrasts itself against.
//!
//! Section V: "[6] and [18] researched to save energy consumption in
//! data centers by dynamic migration of VMs according to the current
//! resource utilization. In comparison, our problem focuses on saving
//! energy consumption by VM allocation instead of migration." This
//! module implements that contrasting mechanism on top of any base
//! allocation, so the repository can quantify how much extra energy
//! migration can recover and at what cost.
//!
//! [`Consolidator`] is an offline post-pass over a finished
//! [`Assignment`]: at every VM departure instant it examines each server
//! still hosting *running* VMs and asks whether migrating all of their
//! remaining tails elsewhere — truncating the server's future
//! obligations — yields a net energy gain after paying `μ × memory` per
//! move. Gains are evaluated *exactly* with the delta machinery of
//! [`ServerLedger`]: the source's saving is the sum of realized
//! `unhost_piece` returns (removal deltas) and every candidate target is
//! scored with a pure `incremental_piece_cost` (insertion delta) — no
//! fleet clones, no full-cost rescans inside the evaluation loop.
//! Rejected evictions are rolled back through ledger checkpoints, so
//! the cached per-server costs never drift. The seed's clone-and-rescan
//! evaluation survives behind [`Consolidator::reference`] as the oracle
//! the fast path is tested against.

use crate::candidates::argmin;
use crate::{AllocError, AllocResult};
use esvm_obs::MetricsRegistry;
use esvm_simcore::energy::segment_cost;
use esvm_simcore::{
    Assignment, Interval, LedgerCheckpoint, Resources, Schedule, SegmentSet, ServerId,
    ServerLedger, ServerSpec, TimeUnit, UsageProfile, VmId,
};

/// Exact per-server energy evaluation from a usage profile — the seed's
/// clone-and-rescan evaluator, retained for the reference oracle path.
#[derive(Debug, Clone)]
struct ServerState {
    spec: ServerSpec,
    usage: UsageProfile,
    run_cost: f64,
}

impl ServerState {
    fn new(spec: ServerSpec) -> Self {
        Self {
            spec,
            usage: UsageProfile::new(),
            run_cost: 0.0,
        }
    }

    /// Busy segments: maximal unions of non-zero usage.
    fn segments(&self) -> SegmentSet {
        self.usage
            .nonzero_pieces_iter()
            .map(|(interval, _)| interval)
            .collect()
    }

    fn cost(&self) -> f64 {
        self.run_cost + segment_cost(&self.spec, &self.segments())
    }

    fn run_cost_of(&self, demand: Resources, interval: Interval) -> f64 {
        self.spec.power_per_cpu_unit() * demand.cpu * interval.len() as f64
    }

    fn add(&mut self, demand: Resources, interval: Interval) {
        self.usage.add(interval, demand);
        self.run_cost += self.run_cost_of(demand, interval);
    }

    fn remove(&mut self, demand: Resources, interval: Interval) {
        self.usage.remove(interval, demand);
        self.run_cost -= self.run_cost_of(demand, interval);
    }

    fn fits(&self, demand: Resources, interval: Interval) -> bool {
        self.usage.fits(interval, demand, self.spec.capacity())
    }

    /// Cost with a hypothetical extra piece (non-mutating).
    fn cost_with(&self, demand: Resources, interval: Interval) -> f64 {
        let mut probe = self.clone();
        probe.add(demand, interval);
        probe.cost()
    }

    /// Cost with hypothetical pieces removed (non-mutating).
    fn cost_without(&self, pieces: &[(Resources, Interval)]) -> f64 {
        let mut probe = self.clone();
        for (demand, interval) in pieces {
            probe.remove(*demand, *interval);
        }
        probe.cost()
    }
}

/// The tails of VMs whose current piece runs on `source` strictly past
/// `t`: the candidate evictions at departure instant `t`, as the
/// reference pass finds them (the fast pass groups them per instant).
fn tails_on(
    current: &[(ServerId, Interval)],
    source: ServerId,
    t: TimeUnit,
) -> Vec<(VmId, Interval)> {
    current
        .iter()
        .enumerate()
        .filter_map(|(j, &(server, piece))| {
            (server == source && piece.contains(t) && piece.end() > t)
                .then(|| (VmId(j as u32), Interval::new(t + 1, piece.end())))
        })
        .collect()
}

/// Offline consolidation pass: migrate running VMs off servers whose
/// remaining obligations are no longer worth their idle power.
///
/// # Example
///
/// ```
/// use esvm_core::{Allocator, Consolidator, Ffps};
/// use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let problem = ProblemBuilder::new()
///     .server(Resources::new(8.0, 16.0), PowerModel::new(90.0, 140.0), 20.0)
///     .server(Resources::new(8.0, 16.0), PowerModel::new(10.0, 60.0), 20.0)
///     .vm(Resources::new(2.0, 2.0), Interval::new(1, 30))
///     .vm(Resources::new(2.0, 2.0), Interval::new(1, 30))
///     .vm(Resources::new(1.0, 1.0), Interval::new(1, 2))
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let base = Ffps::new().allocate(&problem, &mut rng)?;
/// let schedule = Consolidator::new(2.0).consolidate(&base)?;
/// let audit = schedule.audit().expect("valid schedule");
/// assert!(audit.total_cost <= base.total_cost() + 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Consolidator {
    migration_energy_per_gb: f64,
    min_gain: f64,
    reference: bool,
}

impl Consolidator {
    /// Creates a consolidator charging `μ` watt·time-units per GB moved.
    ///
    /// # Panics
    ///
    /// Panics if `migration_energy_per_gb` is negative or not finite.
    pub fn new(migration_energy_per_gb: f64) -> Self {
        assert!(
            migration_energy_per_gb.is_finite() && migration_energy_per_gb >= 0.0,
            "migration energy must be finite and non-negative"
        );
        Self {
            migration_energy_per_gb,
            min_gain: 1e-6,
            reference: false,
        }
    }

    /// The seed's clone-and-rescan evaluation (fleet probe copies, full
    /// segment rebuilds per candidate), retained as the oracle the
    /// delta-scored path is tested against. Same greedy policy; an
    /// order of magnitude slower on large fleets.
    pub fn reference(migration_energy_per_gb: f64) -> Self {
        Self {
            reference: true,
            ..Self::new(migration_energy_per_gb)
        }
    }

    /// Requires at least `gain` watt·time-units of net saving before a
    /// server is emptied (hysteresis against churn).
    pub fn with_min_gain(mut self, gain: f64) -> Self {
        self.min_gain = gain.max(0.0);
        self
    }

    /// The configured migration energy per GB.
    pub fn migration_energy_per_gb(&self) -> f64 {
        self.migration_energy_per_gb
    }

    /// Runs the pass over a complete assignment.
    ///
    /// # Errors
    ///
    /// [`AllocError::Placement`] if the base assignment is incomplete
    /// (the pass needs full knowledge of every VM's placement).
    pub fn consolidate<'p>(&self, base: &Assignment<'p>) -> AllocResult<Schedule<'p>> {
        self.consolidate_observed(base, &MetricsRegistry::new())
    }

    /// [`Consolidator::consolidate`] with telemetry: eviction decisions
    /// are counted into `metrics` (`consolidator.*` counters and the
    /// `consolidator.eviction_net_gain` histogram). The pass records
    /// once per run and once per committed eviction, which costs
    /// nothing next to its scan, so it records unconditionally. The
    /// reference oracle path is never instrumented (it exists only for
    /// equivalence testing).
    ///
    /// # Errors
    ///
    /// Same contract as [`Consolidator::consolidate`].
    pub fn consolidate_observed<'p>(
        &self,
        base: &Assignment<'p>,
        metrics: &MetricsRegistry,
    ) -> AllocResult<Schedule<'p>> {
        if self.reference {
            self.consolidate_reference(base)
        } else {
            self.consolidate_fast(base, metrics)
        }
    }

    /// Departure instants of the problem's VMs, ascending and deduped.
    fn departures(problem: &esvm_simcore::AllocationProblem) -> Vec<TimeUnit> {
        let mut departures: Vec<TimeUnit> = problem.vms().iter().map(|v| v.end()).collect();
        departures.sort_unstable();
        departures.dedup();
        departures
    }

    /// Delta-scored evaluation on [`ServerLedger`]s: savings realized by
    /// transient `unhost_piece`, targets scored by pure insertion
    /// deltas, rejected evictions rolled back via checkpoints.
    fn consolidate_fast<'p>(
        &self,
        base: &Assignment<'p>,
        metrics: &MetricsRegistry,
    ) -> AllocResult<Schedule<'p>> {
        let problem = base.problem();
        if let Some(vm) = base.unplaced().next() {
            return Err(AllocError::Placement(esvm_simcore::Error::Unplaced(vm)));
        }

        let mut schedule = Schedule::from_assignment(base, self.migration_energy_per_gb)
            .map_err(AllocError::Placement)?;

        let mut ledgers: Vec<ServerLedger> = problem
            .servers()
            .iter()
            .map(|s| ServerLedger::new(*s))
            .collect();
        // Current (last) piece per VM: (server, interval).
        let mut current: Vec<(ServerId, Interval)> = Vec::with_capacity(problem.vm_count());
        for (j, slot) in base.placement().iter().enumerate() {
            let server = slot.expect("checked complete");
            let vm = &problem.vms()[j];
            ledgers[server.index()].host_piece(vm.demand(), vm.interval());
            current.push((server, vm.interval()));
        }

        let mut departure_events = 0u64;
        let mut evictions_proposed = 0u64;
        let mut evictions_committed = 0u64;
        let mut evictions_rolled_back = 0u64;
        let mut migrations = 0u64;

        let n_servers = problem.server_count() as u32;
        let mut running: Vec<(ServerId, VmId, Interval)> = Vec::new();
        let mut tails: Vec<(VmId, Interval)> = Vec::new();
        for &t in &Self::departures(problem) {
            departure_events += 1;
            // The tails past `t` grouped by server in ascending id, each
            // group in VM order: what `tails_on` finds server by server,
            // from one pass over `current` per instant. A committed
            // eviction moves tails to pieces that start at `t + 1`,
            // which no group of this instant holds, so the groups stay
            // exact while the servers are visited.
            running.clear();
            running.extend(current.iter().enumerate().filter_map(|(j, &(server, piece))| {
                (piece.contains(t) && piece.end() > t)
                    .then(|| (server, VmId(j as u32), Interval::new(t + 1, piece.end())))
            }));
            running.sort_by_key(|&(server, _, _)| server);
            for group in running.chunk_by(|a, b| a.0 == b.0) {
                let source = group[0].0.index();
                tails.clear();
                tails.extend(group.iter().map(|&(_, vm, tail)| (vm, tail)));
                evictions_proposed += 1;

                // Evict the tails transiently; the realized returns sum
                // to the exact run + idle + switch-on saving on the
                // source (telescoping removal deltas).
                let source_checkpoint = ledgers[source].checkpoint();
                let mut saving = 0.0;
                for &(vm, tail) in &tails {
                    saving += ledgers[source].unhost_piece(problem.vms()[vm.index()].demand(), tail);
                }

                // Cheapest target per tail, scored by pure insertion
                // delta. Chosen targets are hosted immediately so
                // same-target tails stack; first-touch checkpoints allow
                // an exact rollback if the eviction is rejected.
                let mut touched: Vec<(usize, LedgerCheckpoint)> = Vec::new();
                let mut moves: Vec<(VmId, Interval, ServerId)> = Vec::new();
                let mut relocation_cost = 0.0;
                let mut feasible = true;
                for &(vm, tail) in &tails {
                    let demand = problem.vms()[vm.index()].demand();
                    // The Eq. 7 argmin kernel over every server but the
                    // source, in ascending id: strict `<`, so the
                    // lowest id wins exact ties. Two chained ranges, not
                    // a `filter`: the filtered scan measured ~1.8× slower.
                    // No floor: tails are not placed in start order.
                    let (below, above) = (0..source as u32, source as u32 + 1..n_servers);
                    let others = below.chain(above);
                    let score = |i: u32| {
                        let ledger = &ledgers[i as usize];
                        ledger
                            .fits_piece(demand, tail)
                            .then(|| ledger.incremental_piece_cost(demand, tail))
                    };
                    let scan = argmin(others, false, |_| None, score);
                    let Some((delta, target)) = scan.best else {
                        feasible = false;
                        break;
                    };
                    let target = target as usize;
                    if !touched.iter().any(|&(i, _)| i == target) {
                        touched.push((target, ledgers[target].checkpoint()));
                    }
                    ledgers[target].host_piece(demand, tail);
                    relocation_cost += delta + self.migration_energy_per_gb * demand.mem;
                    moves.push((vm, tail, ServerId(target as u32)));
                }

                if !feasible || saving - relocation_cost <= self.min_gain {
                    evictions_rolled_back += 1;
                    // Roll back: targets first, then re-host the tails on
                    // the source; checkpoints restore the float
                    // accumulators bit-exactly.
                    for &(vm, tail, target) in moves.iter().rev() {
                        ledgers[target.index()]
                            .unhost_piece(problem.vms()[vm.index()].demand(), tail);
                    }
                    for &(i, checkpoint) in &touched {
                        ledgers[i].restore_costs(checkpoint);
                    }
                    for &(vm, tail) in tails.iter().rev() {
                        ledgers[source].host_piece(problem.vms()[vm.index()].demand(), tail);
                    }
                    ledgers[source].restore_costs(source_checkpoint);
                    continue;
                }

                // Commit: the ledgers already reflect the eviction;
                // mirror it on the schedule.
                evictions_committed += 1;
                migrations += moves.len() as u64;
                metrics.observe("consolidator.eviction_net_gain", saving - relocation_cost);
                for &(vm, tail, target) in &moves {
                    schedule
                        .truncate_last_piece(vm, t)
                        .map_err(AllocError::Placement)?;
                    schedule
                        .host(vm, target, tail)
                        .map_err(AllocError::Placement)?;
                    current[vm.index()] = (target, tail);
                }
            }
        }

        metrics.add("consolidator.departure_events", departure_events);
        metrics.add("consolidator.evictions_proposed", evictions_proposed);
        metrics.add("consolidator.evictions_committed", evictions_committed);
        metrics.add("consolidator.evictions_rolled_back", evictions_rolled_back);
        metrics.add("consolidator.migrations", migrations);
        Ok(schedule)
    }

    /// The seed's clone-and-rescan pass (see [`Consolidator::reference`]).
    fn consolidate_reference<'p>(&self, base: &Assignment<'p>) -> AllocResult<Schedule<'p>> {
        let problem = base.problem();
        if let Some(vm) = base.unplaced().next() {
            return Err(AllocError::Placement(esvm_simcore::Error::Unplaced(vm)));
        }

        let mut schedule = Schedule::from_assignment(base, self.migration_energy_per_gb)
            .map_err(AllocError::Placement)?;

        // Exact per-server evaluators, mirroring the schedule.
        let mut servers: Vec<ServerState> = problem
            .servers()
            .iter()
            .map(|s| ServerState::new(*s))
            .collect();
        let mut current: Vec<(ServerId, Interval)> = Vec::with_capacity(problem.vm_count());
        for (j, slot) in base.placement().iter().enumerate() {
            let server = slot.expect("checked complete");
            let vm = &problem.vms()[j];
            servers[server.index()].add(vm.demand(), vm.interval());
            current.push((server, vm.interval()));
        }

        for &t in &Self::departures(problem) {
            for source in 0..problem.server_count() {
                let tails = tails_on(&current, ServerId(source as u32), t);
                if tails.is_empty() {
                    continue;
                }

                // Savings on the source if every tail leaves.
                let removed: Vec<(Resources, Interval)> = tails
                    .iter()
                    .map(|&(vm, tail)| (problem.vms()[vm.index()].demand(), tail))
                    .collect();
                let saving = servers[source].cost() - servers[source].cost_without(&removed);

                // Cheapest relocation for every tail (greedy, sequential
                // on a probe copy so same-target tails stack correctly).
                let mut probe = servers.clone();
                let mut moves: Vec<(VmId, Interval, ServerId)> = Vec::new();
                let mut relocation_cost = 0.0;
                let mut feasible = true;
                for &(vm, tail) in &tails {
                    let demand = problem.vms()[vm.index()].demand();
                    let mut best: Option<(f64, ServerId)> = None;
                    for (i, target) in probe.iter().enumerate() {
                        if i == source || !target.fits(demand, tail) {
                            continue;
                        }
                        let delta = target.cost_with(demand, tail) - target.cost();
                        if best.is_none_or(|(d, _)| delta < d) {
                            best = Some((delta, ServerId(i as u32)));
                        }
                    }
                    let Some((delta, target)) = best else {
                        feasible = false;
                        break;
                    };
                    relocation_cost += delta + self.migration_energy_per_gb * demand.mem;
                    probe[target.index()].add(demand, tail);
                    moves.push((vm, tail, target));
                }
                if !feasible || saving - relocation_cost <= self.min_gain {
                    continue;
                }

                // Commit: truncate on the schedule and evaluators, rehost.
                for &(vm, tail, target) in &moves {
                    let demand = problem.vms()[vm.index()].demand();
                    schedule
                        .truncate_last_piece(vm, t)
                        .map_err(AllocError::Placement)?;
                    schedule
                        .host(vm, target, tail)
                        .map_err(AllocError::Placement)?;
                    servers[source].remove(demand, tail);
                    servers[target.index()].add(demand, tail);
                    current[vm.index()] = (target, tail);
                }
            }
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Allocator, Ffps, Miec};
    use esvm_simcore::{PowerModel, ProblemBuilder, Resources};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn consolidation_never_increases_cost() {
        let problem = esvm_workload_config(60, 30, 2.0, 7);
        let mut rng = StdRng::seed_from_u64(0);
        for base in [
            Ffps::new().allocate(&problem, &mut rng).unwrap(),
            Miec::new().allocate(&problem, &mut rng).unwrap(),
        ] {
            let schedule = Consolidator::new(2.0).consolidate(&base).unwrap();
            let audit = schedule.audit().unwrap();
            assert!(
                audit.total_cost <= base.total_cost() + 1e-6,
                "consolidated {} vs base {}",
                audit.total_cost,
                base.total_cost()
            );
        }
    }

    /// Helper: a generated workload without depending on esvm-workload
    /// (dev-dependency cycle); hand-rolled Poisson-ish arrivals.
    fn esvm_workload_config(
        vms: usize,
        servers: usize,
        ia: f64,
        seed: u64,
    ) -> esvm_simcore::AllocationProblem {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ProblemBuilder::new();
        for i in 0..servers {
            let scale = 1.0 + (i % 3) as f64;
            b = b.server(
                Resources::new(8.0 * scale, 16.0 * scale),
                PowerModel::new(40.0 * scale, 90.0 * scale),
                90.0 * scale,
            );
        }
        let mut t = 1.0f64;
        for _ in 0..vms {
            t += -ia * (1.0 - rng.gen::<f64>()).ln();
            let start = (t.ceil() as u32).max(1);
            let len = ((-5.0 * (1.0 - rng.gen::<f64>()).ln()).round() as u32).max(1);
            let cpu = f64::from(rng.gen_range(1u32..=6));
            let mem = f64::from(rng.gen_range(1u32..=10));
            b = b.vm(
                Resources::new(cpu, mem),
                esvm_simcore::Interval::with_len(start, len),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn crafted_merge_opportunity_is_taken() {
        // Two servers each hosting one long VM; a third short VM departs
        // from server 0 at t=2, leaving vm0's tail worth migrating onto
        // server 1 (low idle power there, big idle saving on server 0).
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 150.0), 10.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(10.0, 60.0), 10.0)
            .vm(Resources::new(2.0, 2.0), Interval::new(1, 30)) // long, on 0
            .vm(Resources::new(2.0, 2.0), Interval::new(1, 30)) // long, on 1
            .vm(Resources::new(1.0, 1.0), Interval::new(1, 2)) // short, on 0
            .build()
            .unwrap();
        let mut base = esvm_simcore::Assignment::new(&p);
        base.place(VmId(0), ServerId(0)).unwrap();
        base.place(VmId(1), ServerId(1)).unwrap();
        base.place(VmId(2), ServerId(0)).unwrap();

        let schedule = Consolidator::new(1.0).consolidate(&base).unwrap();
        let audit = schedule.audit().unwrap();
        assert!(audit.migrations >= 1, "expected a migration");
        assert!(audit.total_cost < base.total_cost());
        // vm0 ends up on server 1 for its tail.
        let last = schedule.pieces_of(VmId(0)).last().unwrap();
        assert_eq!(last.server, ServerId(1));
    }

    #[test]
    fn prohibitive_migration_energy_freezes_everything() {
        let problem = esvm_workload_config(40, 20, 2.0, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let base = Ffps::new().allocate(&problem, &mut rng).unwrap();
        let schedule = Consolidator::new(1e9).consolidate(&base).unwrap();
        let audit = schedule.audit().unwrap();
        assert_eq!(audit.migrations, 0);
        assert!((audit.total_cost - base.total_cost()).abs() < 1e-6);
    }

    #[test]
    fn incomplete_assignment_is_rejected() {
        let p = ProblemBuilder::new()
            .server(Resources::new(8.0, 16.0), PowerModel::new(10.0, 20.0), 5.0)
            .vm(Resources::new(1.0, 1.0), Interval::new(1, 2))
            .build()
            .unwrap();
        let base = esvm_simcore::Assignment::new(&p);
        assert!(Consolidator::new(1.0).consolidate(&base).is_err());
        assert!(Consolidator::reference(1.0).consolidate(&base).is_err());
    }

    #[test]
    fn zero_migration_energy_consolidates_most() {
        let problem = esvm_workload_config(50, 25, 3.0, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let base = Ffps::new().allocate(&problem, &mut rng).unwrap();
        let cheap = Consolidator::new(0.0).consolidate(&base).unwrap();
        let dear = Consolidator::new(50.0).consolidate(&base).unwrap();
        let cheap_audit = cheap.audit().unwrap();
        let dear_audit = dear.audit().unwrap();
        assert!(cheap_audit.migrations >= dear_audit.migrations);
        assert!(cheap_audit.total_cost <= dear_audit.total_cost + 1e-6);
    }

    #[test]
    fn min_gain_hysteresis_reduces_churn() {
        let problem = esvm_workload_config(50, 25, 3.0, 13);
        let mut rng = StdRng::seed_from_u64(4);
        let base = Ffps::new().allocate(&problem, &mut rng).unwrap();
        let eager = Consolidator::new(1.0).consolidate(&base).unwrap();
        let lazy = Consolidator::new(1.0)
            .with_min_gain(500.0)
            .consolidate(&base)
            .unwrap();
        assert!(
            lazy.audit().unwrap().migrations <= eager.audit().unwrap().migrations
        );
    }

    #[test]
    fn observed_consolidation_matches_plain_and_counts_migrations() {
        let problem = esvm_workload_config(60, 30, 2.0, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let base = Ffps::new().allocate(&problem, &mut rng).unwrap();
        let plain = Consolidator::new(2.0).consolidate(&base).unwrap();

        let metrics = MetricsRegistry::new();
        let observed = Consolidator::new(2.0)
            .consolidate_observed(&base, &metrics)
            .unwrap();

        // Instrumentation must not change any decision.
        for j in 0..problem.vm_count() {
            assert_eq!(
                observed.pieces_of(VmId(j as u32)),
                plain.pieces_of(VmId(j as u32))
            );
        }
        let audit = observed.audit().unwrap();
        assert_eq!(metrics.counter("consolidator.migrations"), audit.migrations as u64);
        let committed = metrics.counter("consolidator.evictions_committed");
        let rolled_back = metrics.counter("consolidator.evictions_rolled_back");
        assert_eq!(
            committed + rolled_back,
            metrics.counter("consolidator.evictions_proposed")
        );
        assert!(metrics.counter("consolidator.departure_events") >= 1);
        let gains = metrics.histogram("consolidator.eviction_net_gain").unwrap();
        assert_eq!(gains.count, committed);
        assert!(gains.min > 0.0, "committed evictions always clear min_gain");
    }

    #[test]
    fn fast_and_reference_produce_the_same_schedule() {
        // The delta-scored pass and the clone-and-rescan oracle make the
        // same greedy decisions (both score exactly; divergence would
        // require a floating-point tie at the min_gain threshold or in a
        // target comparison, none of which these workloads exhibit).
        for (vms, servers, ia, seed) in
            [(60, 30, 2.0, 7), (40, 20, 2.0, 3), (50, 25, 3.0, 11), (80, 20, 1.5, 21)]
        {
            let problem = esvm_workload_config(vms, servers, ia, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ffps::new().allocate(&problem, &mut rng).unwrap();
            for mu in [0.0, 1.0, 20.0] {
                let fast = Consolidator::new(mu).consolidate(&base).unwrap();
                let slow = Consolidator::reference(mu).consolidate(&base).unwrap();
                let fa = fast.audit().unwrap();
                let sa = slow.audit().unwrap();
                assert_eq!(
                    fa.migrations, sa.migrations,
                    "seed {seed} μ={mu}: migration counts diverged"
                );
                assert!(
                    (fa.total_cost - sa.total_cost).abs() < 1e-6,
                    "seed {seed} μ={mu}: {} vs {}",
                    fa.total_cost,
                    sa.total_cost
                );
                for j in 0..problem.vm_count() {
                    assert_eq!(
                        fast.pieces_of(VmId(j as u32)),
                        slow.pieces_of(VmId(j as u32)),
                        "seed {seed} μ={mu}: vm {j} pieces diverged"
                    );
                }
            }
        }
    }
}

//! Per-server energy accounting — Eqs. (15)–(17) of the paper.
//!
//! The energy cost of server `s_i` hosting the VM set `V_i` over the
//! planning horizon is
//!
//! ```text
//! Cost_i =   Σ_{v_j ∈ V_i} W_ij                    (run cost, Eq. 3)
//!          + Σ_{[t,τ] ∈ BS_i} P_idle · (τ−t+1)     (busy segments, Eq. 15)
//!          + Σ_{[t,τ] ∈ IS_i} min{P_idle·(τ−t+1), α}  (idle segments, Eq. 16)
//!          + α · 1{V_i ≠ ∅}                        (initial switch-on)
//! ```
//!
//! The last term is not printed in Eq. (17) but is charged by the ILP
//! objective (Eq. 7 with `y_{i,0} = 0`) and required by the paper's own
//! argument that a VM landing in an all-asleep data center should prefer
//! the server with the smallest transition cost (Section III). See
//! DESIGN.md, "Substitutions".
//!
//! [`ServerLedger`] maintains this cost *incrementally*: the Minimum
//! Incremental Energy Cost heuristic asks "what would this server's cost
//! become if VM `j` were added?" once per candidate server per VM, so the
//! evaluation must not rescan the whole VM set.

use crate::{
    CoverageSet, EnergyBreakdown, Interval, Resources, SegmentSet, ServerSpec, UsageProfile, Vm,
};
use serde::{Deserialize, Serialize};

/// Energy cost of a set of busy segments on `spec`, per Eqs. (15)–(17)
/// plus the initial switch-on charge (see module docs). Excludes run
/// costs, which depend on the VMs rather than the segments.
pub fn segment_cost(spec: &ServerSpec, segments: &SegmentSet) -> f64 {
    if segments.is_empty() {
        return 0.0;
    }
    let busy = spec.idle_cost(segments.busy_time());
    let gaps: f64 = segments.gaps().map(|g| spec.gap_cost(g.len())).sum();
    busy + gaps + spec.transition_cost()
}

/// Full cost of hosting `vms` on `spec`: run costs plus [`segment_cost`]
/// of the induced busy segments. This is the reference (non-incremental)
/// implementation of Eq. (17); [`ServerLedger`] must always agree with it.
pub fn full_cost(spec: &ServerSpec, vms: &[Vm]) -> f64 {
    let run: f64 = vms.iter().map(|vm| spec.run_cost(vm)).sum();
    let segments: SegmentSet = vms.iter().map(Vm::interval).collect();
    run + segment_cost(spec, &segments)
}

/// Number of switch-on transitions performed by the switch-off policy:
/// one initial power-on plus one for every interior gap where switching
/// off is cheaper than idling.
pub fn transition_count(spec: &ServerSpec, segments: &SegmentSet) -> u64 {
    if segments.is_empty() {
        return 0;
    }
    1 + segments
        .gaps()
        .filter(|g| spec.switches_off_for_gap(g.len()))
        .count() as u64
}

/// Live energy/occupancy state of one server during allocation.
///
/// Tracks the hosted VMs' usage profile (for capacity checks), the merged
/// busy segments, the accumulated run cost, and a cached *integer*
/// decomposition of the segment cost (total busy time, kept-on gap time,
/// switch-off gap count), maintained incrementally on every
/// [`ServerLedger::host`]. This makes [`ServerLedger::cost`] O(1) and lets
/// [`ServerLedger::incremental_cost`] score a hypothetical placement as
/// pure arithmetic over a [`SegmentSet::insertion_delta`] — no clone, no
/// rescan of resident segments.
///
/// Because everything except the run-cost accumulator is cached as
/// integers, [`ServerLedger::cost`] is *defined* as the left-to-right sum
/// of the [`ServerLedger::energy_breakdown`] terms — the Eq. 7
/// decomposition identity `run + idle + transition == cost()` holds
/// bit-for-bit, by construction, at every point of any host/unhost
/// history.
///
/// # Example
///
/// ```
/// use esvm_simcore::{Interval, PowerModel, Resources, ServerLedger, ServerSpec, Vm};
/// let spec = ServerSpec::new(0, Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 150.0);
/// let mut ledger = ServerLedger::new(spec);
/// let vm = Vm::new(0, Resources::new(4.0, 4.0), Interval::new(1, 10));
/// assert!(ledger.fits(&vm));
/// let delta = ledger.incremental_cost(&vm);
/// ledger.host(&vm);
/// assert!((ledger.cost() - delta).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerLedger {
    spec: ServerSpec,
    usage: UsageProfile,
    segments: SegmentSet,
    /// Per-time-unit occupancy counts of the hosted pieces. `segments`
    /// alone cannot undo a host (overlapping VMs merge); the counts say
    /// which busy time a leaving VM frees. See [`CoverageSet`].
    #[serde(default)]
    coverage: CoverageSet,
    run_cost: f64,
    hosted: u32,
    /// Cached `segments.busy_time()`, updated on every host/unhost.
    busy_time: u64,
    /// Cached total length of the interior gaps the switch-off policy
    /// keeps idling through (`!switches_off_for_gap`). Together with
    /// `busy_time` this is the total active time priced at `P_idle`.
    #[serde(default)]
    kept_on_gap_units: u64,
    /// Cached count of the interior gaps the switch-off policy sleeps
    /// through; each one costs a fresh `α` switch-on.
    #[serde(default)]
    off_gaps: u64,
}

/// Snapshot of a [`ServerLedger`]'s floating-point cost accumulator.
///
/// A balanced `unhost`/`host` probe cycle restores all integer state
/// (segments, coverage, busy time, gap caches, hosted count) exactly, but
/// the `f64` run-cost accumulator can pick up last-bit rounding residue
/// per cycle. Refinement loops that probe thousands of hypothetical moves
/// take a checkpoint first and [`ServerLedger::restore_costs`] after
/// reverting, so the cache cannot drift from the rescan truth.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCheckpoint {
    run_cost: f64,
}

impl ServerLedger {
    /// Creates a ledger for an empty (power-saving) server.
    pub fn new(spec: ServerSpec) -> Self {
        Self {
            spec,
            usage: UsageProfile::new(),
            segments: SegmentSet::new(),
            coverage: CoverageSet::new(),
            run_cost: 0.0,
            hosted: 0,
            busy_time: 0,
            kept_on_gap_units: 0,
            off_gaps: 0,
        }
    }

    /// The server specification.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Number of VMs hosted so far.
    pub fn hosted_count(&self) -> u32 {
        self.hosted
    }

    /// The merged busy segments induced by the hosted VMs.
    pub fn segments(&self) -> &SegmentSet {
        &self.segments
    }

    /// The resource usage profile of the hosted VMs.
    pub fn usage(&self) -> &UsageProfile {
        &self.usage
    }

    /// Accumulated run cost `Σ W_ij` of the hosted VMs.
    pub fn run_cost(&self) -> f64 {
        self.run_cost
    }

    /// Whether `vm` fits on this server **throughout its duration**
    /// (both CPU and memory, every time unit — constraints (9)–(10)).
    pub fn fits(&self, vm: &Vm) -> bool {
        self.fits_piece(vm.demand(), vm.interval())
    }

    /// Current total cost of this server (Eq. 17 + initial switch-on).
    ///
    /// O(1): served from the incrementally maintained integer caches
    /// rather than a rescan of the segments. Defined as the
    /// left-to-right sum of the [`ServerLedger::energy_breakdown`]
    /// terms, so `breakdown.total() == cost()` holds bit-for-bit.
    pub fn cost(&self) -> f64 {
        self.energy_breakdown().total()
    }

    /// Eq. 7 decomposition of [`ServerLedger::cost`] into its three
    /// physical terms:
    ///
    /// * `run` — `Σ W_ij`, the accumulated run cost of the hosted VMs;
    /// * `idle` — `P_idle` times the active time (busy segments plus
    ///   the interior gaps too short to be worth sleeping through);
    /// * `transition` — `α` times [`ServerLedger::transition_count`].
    ///
    /// The identity `run + idle + transition == cost()` is exact
    /// (bit-for-bit): `cost()` is computed *from* this decomposition,
    /// whose non-run terms are each a single product over integer
    /// caches.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        if self.segments.is_empty() {
            return EnergyBreakdown { run: self.run_cost, idle: 0.0, transition: 0.0 };
        }
        EnergyBreakdown {
            run: self.run_cost,
            idle: self.spec.idle_cost(self.busy_time + self.kept_on_gap_units),
            transition: self.spec.transition_cost() * (1 + self.off_gaps) as f64,
        }
    }

    /// Number of switch-on transitions the switch-off policy performs on
    /// this server: one initial power-on plus one per interior gap it
    /// sleeps through. O(1), and always equal to the free function
    /// [`transition_count`] over [`ServerLedger::segments`].
    pub fn transition_count(&self) -> u64 {
        if self.segments.is_empty() {
            0
        } else {
            1 + self.off_gaps
        }
    }

    /// Cost the server would have if `vm` were placed on it, without
    /// mutating the ledger. Does **not** re-check capacity; callers filter
    /// with [`ServerLedger::fits`] first, as the heuristic's candidate set
    /// `S_j` does.
    ///
    /// Clones and rescans the segment set; retained as the reference
    /// oracle for [`ServerLedger::incremental_cost`], which scoring paths
    /// should use instead.
    pub fn cost_with(&self, vm: &Vm) -> f64 {
        let segments = self.segments.with_inserted(vm.interval());
        self.run_cost + self.spec.run_cost(vm) + segment_cost(&self.spec, &segments)
    }

    /// Incremental cost of adding `vm` — the quantity the MIEC heuristic
    /// minimises over the candidate set. Always non-negative: adding a VM
    /// adds run cost and never shrinks busy time.
    ///
    /// Computed from a [`SegmentSet::insertion_delta`]: `O(log n +
    /// merged)` arithmetic with no clone and no allocation, against the
    /// seed implementation's full copy-and-rescan per candidate. It is
    /// [`ServerLedger::incremental_piece_cost`] of the whole VM: its run
    /// term `P¹ · (cpu · len)` is the product [`ServerSpec::run_cost`]
    /// forms, so the two agree bit for bit.
    pub fn incremental_cost(&self, vm: &Vm) -> f64 {
        self.incremental_piece_cost(vm.demand(), vm.interval())
    }

    /// Reference implementation of [`ServerLedger::incremental_cost`]:
    /// the original `cost_with(vm) − cost()` difference of two full
    /// rescans. Kept as the test/bench oracle the delta-based scoring is
    /// checked against.
    pub fn reference_incremental_cost(&self, vm: &Vm) -> f64 {
        self.cost_with(vm) - (self.run_cost + segment_cost(&self.spec, &self.segments))
    }

    /// Run cost of a constant `demand` over `interval` — the piece-level
    /// form of [`ServerSpec::run_cost`], bit-identical to it when the
    /// piece is a whole VM.
    fn piece_run_cost(&self, demand: Resources, interval: Interval) -> f64 {
        self.spec.power_per_cpu_unit() * (demand.cpu * interval.len() as f64)
    }

    /// Length contribution of a gap the switch-off policy idles through
    /// (0 when it sleeps). Used as an integer-valued gap measure for
    /// [`SegmentSet::insertion_delta`]/[`SegmentSet::removal_delta`]:
    /// every value and every partial sum is an exact small integer in
    /// `f64`, so the resulting delta is exact.
    fn kept_on_units(&self, len: u64) -> f64 {
        if self.spec.switches_off_for_gap(len) {
            0.0
        } else {
            len as f64
        }
    }

    /// Indicator of a gap the switch-off policy sleeps through. Exact
    /// integer-valued gap measure, like [`ServerLedger::kept_on_units`].
    fn off_gap(&self, len: u64) -> f64 {
        if self.spec.switches_off_for_gap(len) {
            1.0
        } else {
            0.0
        }
    }

    /// Applies an exactly-integer-valued `f64` delta to a `u64` cache.
    /// Saturates at zero in release builds so an adversarial input that
    /// desynchronises the caches degrades the decomposition instead of
    /// wrapping to an astronomically wrong value.
    fn apply_int_delta(value: u64, delta: f64) -> u64 {
        debug_assert!(delta.fract() == 0.0, "gap-measure delta {delta} is not an integer");
        let next = (value as i64).saturating_add(delta as i64);
        debug_assert!(next >= 0, "gap-measure cache went negative: {value} {delta:+}");
        next.max(0) as u64
    }

    /// Debug check: the integer gap caches match a rescan of the
    /// segment set. (Compiled in all profiles — `debug_assert!` still
    /// type-checks its condition in release builds.)
    fn gap_caches_match_rescan(&self) -> bool {
        let kept: u64 = self
            .segments
            .gaps()
            .filter(|g| !self.spec.switches_off_for_gap(g.len()))
            .map(|g| g.len())
            .sum();
        let off = self
            .segments
            .gaps()
            .filter(|g| self.spec.switches_off_for_gap(g.len()))
            .count() as u64;
        self.kept_on_gap_units == kept && self.off_gaps == off
    }

    /// Commits `vm` to this server, updating usage, coverage, segments
    /// and the cached cost decomposition.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the VM does not fit; callers must check
    /// [`ServerLedger::fits`] first.
    pub fn host(&mut self, vm: &Vm) {
        debug_assert!(self.fits(vm), "hosting {vm} would violate capacity");
        self.host_piece(vm.demand(), vm.interval());
    }

    /// Removes a previously hosted `vm`, updating usage, coverage,
    /// segments and the cached cost decomposition, and returns the
    /// realized cost decrease — exactly what
    /// [`ServerLedger::decremental_cost`] predicted.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the VM's interval is not fully covered
    /// (i.e. it was never hosted here).
    pub fn unhost(&mut self, vm: &Vm) -> f64 {
        self.unhost_piece(vm.demand(), vm.interval())
    }

    /// Piece-level [`ServerLedger::host`]: commits a constant `demand`
    /// over `interval`. The migration layer hosts VM *tails* rather than
    /// whole VMs, so the ledger accepts any (demand, interval) piece;
    /// `hosted` counts outstanding pieces.
    pub fn host_piece(&mut self, demand: Resources, interval: Interval) {
        // Two integer-valued gap measures collected in a single delta
        // walk: they maintain the caches exactly, which is what makes
        // the Eq. 7 decomposition (and cost()) history-independent.
        let d = self
            .segments
            .insertion_delta(interval, |len| (self.kept_on_units(len), self.off_gap(len)));
        self.busy_time += d.busy_added;
        self.kept_on_gap_units = Self::apply_int_delta(self.kept_on_gap_units, d.gap_cost_delta.0);
        self.off_gaps = Self::apply_int_delta(self.off_gaps, d.gap_cost_delta.1);
        self.usage.add(interval, demand);
        self.coverage.insert(interval);
        self.segments.insert(interval);
        self.run_cost += self.piece_run_cost(demand, interval);
        self.hosted += 1;
        debug_assert_eq!(self.busy_time, self.segments.busy_time());
        debug_assert!(self.gap_caches_match_rescan(), "gap caches diverged from rescan");
        debug_assert!(
            (self.cost() - (self.run_cost + segment_cost(&self.spec, &self.segments))).abs()
                < 1e-6,
            "cached cost diverged from rescan"
        );
    }

    /// Piece-level [`ServerLedger::unhost`]: removes a previously hosted
    /// piece and returns the realized cost decrease. `O(log n + touched)`
    /// — the busy time the piece covered exclusively leaves the segment
    /// set via [`SegmentSet::removal_delta`] arithmetic; no rescan.
    pub fn unhost_piece(&mut self, demand: Resources, interval: Interval) -> f64 {
        debug_assert!(self.hosted > 0, "unhost from an empty ledger");
        debug_assert!(
            self.coverage.covers(interval),
            "unhosting a piece that was never hosted"
        );
        let mut freed = 0u64;
        let mut gap_delta = 0.0;
        let mut kept_delta = 0.0;
        let mut off_delta = 0.0;
        let mut last = false;
        // Score every exclusively-covered run against the pre-removal
        // segments (the runs are separated by surviving busy time, so
        // their deltas are exactly additive), then mutate. One delta
        // walk per run collects the priced measure (feeding the
        // realized-decrease return value) together with the two
        // integer-valued measures maintaining the decomposition caches.
        for run in self.coverage.exclusive_runs(interval) {
            let d = self.segments.removal_delta(run, |len| {
                (self.spec.gap_cost(len), self.kept_on_units(len), self.off_gap(len))
            });
            freed += d.busy_removed;
            gap_delta += d.gap_cost_delta.0;
            kept_delta += d.gap_cost_delta.1;
            off_delta += d.gap_cost_delta.2;
            last |= d.last_segment;
        }
        for run in self.coverage.exclusive_runs(interval) {
            self.segments.remove(run);
        }
        self.busy_time -= freed;
        self.kept_on_gap_units = Self::apply_int_delta(self.kept_on_gap_units, kept_delta);
        self.off_gaps = Self::apply_int_delta(self.off_gaps, off_delta);
        self.usage.remove(interval, demand);
        self.coverage.remove(interval);
        let run_cost = self.piece_run_cost(demand, interval);
        self.run_cost -= run_cost;
        self.hosted -= 1;
        debug_assert_eq!(self.busy_time, self.segments.busy_time());
        debug_assert!(self.gap_caches_match_rescan(), "gap caches diverged from rescan");
        debug_assert!(
            (self.cost() - (self.run_cost + segment_cost(&self.spec, &self.segments))).abs()
                < 1e-6,
            "cached cost diverged from rescan"
        );
        let refund = if last { self.spec.transition_cost() } else { 0.0 };
        run_cost + self.spec.idle_cost(freed) - gap_delta + refund
    }

    /// Decremental cost of removing `vm` — how much the server's cost
    /// drops when the VM leaves. The exact mirror of
    /// [`ServerLedger::incremental_cost`], and the quantity the
    /// local-search and migration layers combine into move scores
    /// (`relocate = incremental(dst) − decremental(src)`).
    ///
    /// Computed from [`SegmentSet::removal_delta`] over the VM's
    /// exclusively-covered runs: `O(log n + touched)` arithmetic with no
    /// clone and no allocation. Always non-negative.
    pub fn decremental_cost(&self, vm: &Vm) -> f64 {
        self.decremental_piece_cost(vm.demand(), vm.interval())
    }

    /// Piece-level [`ServerLedger::decremental_cost`].
    pub fn decremental_piece_cost(&self, demand: Resources, interval: Interval) -> f64 {
        debug_assert!(
            self.coverage.covers(interval),
            "scoring removal of a piece that was never hosted"
        );
        let mut freed = 0u64;
        let mut gap_delta = 0.0;
        let mut last = false;
        for run in self.coverage.exclusive_runs(interval) {
            let d = self
                .segments
                .removal_delta(run, |len| self.spec.gap_cost(len));
            freed += d.busy_removed;
            gap_delta += d.gap_cost_delta;
            last |= d.last_segment;
        }
        let refund = if last { self.spec.transition_cost() } else { 0.0 };
        self.piece_run_cost(demand, interval) + self.spec.idle_cost(freed) - gap_delta + refund
    }

    /// Piece-level [`ServerLedger::incremental_cost`]: marginal cost of
    /// hosting a constant `demand` over `interval`.
    pub fn incremental_piece_cost(&self, demand: Resources, interval: Interval) -> f64 {
        let d = self
            .segments
            .insertion_delta(interval, |len| self.spec.gap_cost(len));
        let switch_on = if d.first_segment {
            self.spec.transition_cost()
        } else {
            0.0
        };
        self.piece_run_cost(demand, interval)
            + self.spec.idle_cost(d.busy_added)
            + d.gap_cost_delta
            + switch_on
    }

    /// A floor under [`ServerLedger::incremental_piece_cost`] that holds
    /// as an `f64` comparison: the piece's run cost `P¹ · (cpu · len)`,
    /// the first term of that sum, when no busy segment starts after
    /// `interval` does; `None` otherwise.
    ///
    /// With every segment starting at or before the piece, the insertion
    /// extends the last segment or opens a gap after it, so each term
    /// added to the run cost (idle `P_idle · Δbusy`, the new gap's price,
    /// the switch-on `α`) is ≥ 0, and a rounded sum of a float and a
    /// non-negative float is never below the float. A segment that starts
    /// later (a backoff-delayed repair tail) can have its gap closed by
    /// the piece; that negative gap delta can round the sum below the run
    /// cost, so no floor is given.
    pub fn insertion_floor(&self, demand: Resources, interval: Interval) -> Option<f64> {
        match self.segments.last_start() {
            Some(start) if start > interval.start() => None,
            _ => Some(self.piece_run_cost(demand, interval)),
        }
    }

    /// Whether a constant `demand` over `interval` fits throughout.
    pub fn fits_piece(&self, demand: Resources, interval: Interval) -> bool {
        self.usage.fits(interval, demand, self.spec.capacity())
    }

    /// Cost change if `leaving` (hosted here) were replaced by
    /// `incoming`: [`ServerLedger::incremental_cost`] of `incoming` on the
    /// segments left once `leaving`'s exclusive runs are gone, minus
    /// [`ServerLedger::decremental_cost`] of `leaving`. Bit for bit what
    /// an `unhost(leaving)` / `incremental_cost(incoming)` /
    /// `host(leaving)` probe returns, without touching the usage profile
    /// or the cost caches: only the segment set is edited, and putting
    /// the runs back restores it exactly (a canonical set is determined
    /// by the time units it covers), so the ledger is bit-identical
    /// afterwards. Does not check capacity.
    pub fn replacement_delta(&mut self, leaving: &Vm, incoming: &Vm) -> f64 {
        let dec = self.decremental_cost(leaving);
        for run in self.coverage.exclusive_runs(leaving.interval()) {
            self.segments.remove(run);
        }
        let inc = self.incremental_cost(incoming);
        for run in self.coverage.exclusive_runs(leaving.interval()) {
            self.segments.insert(run);
        }
        inc - dec
    }

    /// Whether `incoming` would fit if `outgoing` (hosted here) left
    /// first — the swap feasibility check, evaluated in one pass over the
    /// usage breakpoints with no clone.
    pub fn fits_replacing(&self, incoming: &Vm, outgoing: &Vm) -> bool {
        self.usage.fits_replacing(
            incoming.interval(),
            incoming.demand(),
            outgoing.interval(),
            outgoing.demand(),
            self.spec.capacity(),
        )
    }

    /// Reference implementation of [`ServerLedger::decremental_cost`]:
    /// clones the coverage counts, rebuilds the post-removal segment set
    /// and rescans both. Kept as the test/bench oracle the delta-based
    /// scoring is checked against.
    pub fn reference_decremental_cost(&self, vm: &Vm) -> f64 {
        let mut coverage = self.coverage.clone();
        coverage.remove(vm.interval());
        let remaining = coverage.covered_segments();
        self.spec.run_cost(vm) + segment_cost(&self.spec, &self.segments)
            - segment_cost(&self.spec, &remaining)
    }

    /// Snapshots the floating-point run-cost accumulator; see
    /// [`LedgerCheckpoint`]. (The segment-cost caches are integers and
    /// round-trip balanced probe cycles exactly, so only the run cost
    /// needs checkpointing.)
    pub fn checkpoint(&self) -> LedgerCheckpoint {
        LedgerCheckpoint { run_cost: self.run_cost }
    }

    /// Restores the accumulator captured by
    /// [`ServerLedger::checkpoint`]. Only valid after the hosted pieces
    /// have been restored to their checkpointed state (probe cycles are
    /// balanced); snaps away the per-cycle floating-point residue.
    pub fn restore_costs(&mut self, checkpoint: LedgerCheckpoint) {
        self.run_cost = checkpoint.run_cost;
    }

    /// Spare capacity at time `t`.
    pub fn spare_at(&self, t: u32) -> Resources {
        self.spec.capacity().saturating_sub(self.usage.usage_at(t))
    }

    /// Peak usage over an interval (diagnostic).
    pub fn peak_over(&self, interval: Interval) -> Resources {
        self.usage.peak_over(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerModel;

    fn spec(alpha: f64) -> ServerSpec {
        ServerSpec::new(
            0,
            Resources::new(10.0, 20.0),
            PowerModel::new(100.0, 300.0),
            alpha,
        )
    }

    fn vm(id: u32, cpu: f64, mem: f64, s: u32, e: u32) -> Vm {
        Vm::new(id, Resources::new(cpu, mem), Interval::new(s, e))
    }

    #[test]
    fn empty_server_costs_nothing() {
        let ledger = ServerLedger::new(spec(50.0));
        assert_eq!(ledger.cost(), 0.0);
        assert_eq!(segment_cost(&spec(50.0), &SegmentSet::new()), 0.0);
        assert_eq!(transition_count(&spec(50.0), &SegmentSet::new()), 0);
    }

    #[test]
    fn single_vm_cost_breakdown() {
        // P1 = (300-100)/10 = 20 W/CU; VM: 5 CU × 10 units → run 1000.
        // Busy: 10 × 100 = 1000. Initial switch-on: 50.
        let mut ledger = ServerLedger::new(spec(50.0));
        let v = vm(0, 5.0, 5.0, 1, 10);
        ledger.host(&v);
        assert!((ledger.cost() - (1000.0 + 1000.0 + 50.0)).abs() < 1e-9);
        assert_eq!(ledger.hosted_count(), 1);
    }

    #[test]
    fn interior_gap_picks_cheaper_of_idle_and_transition() {
        // α = 250, P_idle = 100: gap of 2 → idle (200); gap of 3 → off (250).
        let s = spec(250.0);
        let mut short_gap = ServerLedger::new(s);
        short_gap.host(&vm(0, 1.0, 1.0, 1, 2));
        short_gap.host(&vm(1, 1.0, 1.0, 5, 6));
        // run: 20×1×2 ×2 vms = 80; busy 4×100; gap 2×100; initial 250.
        assert!((short_gap.cost() - (80.0 + 400.0 + 200.0 + 250.0)).abs() < 1e-9);

        let mut long_gap = ServerLedger::new(s);
        long_gap.host(&vm(0, 1.0, 1.0, 1, 2));
        long_gap.host(&vm(1, 1.0, 1.0, 6, 7));
        // gap of 3 → α = 250 < 300.
        assert!((long_gap.cost() - (80.0 + 400.0 + 250.0 + 250.0)).abs() < 1e-9);
        assert_eq!(transition_count(&s, long_gap.segments()), 2);
        assert_eq!(transition_count(&s, short_gap.segments()), 1);
    }

    #[test]
    fn leading_and_trailing_idle_time_is_free() {
        let mut a = ServerLedger::new(spec(50.0));
        a.host(&vm(0, 1.0, 1.0, 1, 5));
        let mut b = ServerLedger::new(spec(50.0));
        b.host(&vm(0, 1.0, 1.0, 100, 104));
        assert!((a.cost() - b.cost()).abs() < 1e-9);
    }

    #[test]
    fn cost_with_matches_host_then_cost() {
        let mut ledger = ServerLedger::new(spec(120.0));
        let vms = [
            vm(0, 2.0, 3.0, 1, 8),
            vm(1, 1.0, 1.0, 4, 12),
            vm(2, 3.0, 2.0, 20, 25),
            vm(3, 0.5, 0.5, 13, 19),
        ];
        for v in &vms {
            let predicted = ledger.cost_with(v);
            assert!(ledger.fits(v));
            ledger.host(v);
            assert!(
                (ledger.cost() - predicted).abs() < 1e-9,
                "incremental evaluation diverged at {v}"
            );
        }
    }

    #[test]
    fn ledger_agrees_with_full_cost_reference() {
        let s = spec(90.0);
        let vms = vec![
            vm(0, 2.0, 3.0, 1, 8),
            vm(1, 1.0, 1.0, 30, 31),
            vm(2, 3.0, 2.0, 10, 25),
        ];
        let mut ledger = ServerLedger::new(s);
        for v in &vms {
            ledger.host(v);
        }
        assert!((ledger.cost() - full_cost(&s, &vms)).abs() < 1e-9);
    }

    #[test]
    fn incremental_cost_is_nonnegative() {
        let mut ledger = ServerLedger::new(spec(10.0));
        ledger.host(&vm(0, 1.0, 1.0, 5, 10));
        for v in [
            vm(1, 0.0, 1.0, 5, 10), // zero-CPU VM inside existing segment
            vm(2, 1.0, 1.0, 1, 3),
            vm(3, 1.0, 1.0, 50, 60),
        ] {
            assert!(ledger.incremental_cost(&v) >= -1e-12, "{v}");
        }
    }

    #[test]
    fn zero_cpu_vm_inside_busy_segment_is_free() {
        let mut ledger = ServerLedger::new(spec(10.0));
        ledger.host(&vm(0, 1.0, 1.0, 5, 10));
        let free_rider = vm(1, 0.0, 1.0, 6, 9);
        assert!(ledger.incremental_cost(&free_rider).abs() < 1e-12);
    }

    #[test]
    fn delta_scoring_matches_reference_oracle() {
        let mut ledger = ServerLedger::new(spec(120.0));
        for v in [
            vm(0, 1.0, 1.0, 10, 20),
            vm(1, 1.0, 1.0, 30, 35),
            vm(2, 1.0, 1.0, 50, 80),
        ] {
            ledger.host(&v);
        }
        for probe in [
            vm(3, 1.0, 1.0, 1, 5),    // before the span
            vm(4, 1.0, 1.0, 21, 29),  // bridges the first gap exactly
            vm(5, 1.0, 1.0, 24, 26),  // splits the first gap
            vm(6, 1.0, 1.0, 15, 60),  // absorbs two segments
            vm(7, 1.0, 1.0, 90, 95),  // after the span
            vm(8, 1.0, 1.0, 12, 18),  // contained
        ] {
            let fast = ledger.incremental_cost(&probe);
            let slow = ledger.reference_incremental_cost(&probe);
            assert!(
                (fast - slow).abs() < 1e-9,
                "delta {fast} vs oracle {slow} for {probe}"
            );
        }
        // First-segment switch-on charge.
        let empty = ServerLedger::new(spec(120.0));
        let probe = vm(9, 1.0, 1.0, 5, 10);
        assert!(
            (empty.incremental_cost(&probe) - empty.reference_incremental_cost(&probe)).abs()
                < 1e-9
        );
    }

    #[test]
    fn unhost_realizes_predicted_decremental_cost() {
        let mut ledger = ServerLedger::new(spec(120.0));
        let vms = [
            vm(0, 2.0, 3.0, 1, 8),
            vm(1, 1.0, 1.0, 4, 12),
            vm(2, 3.0, 2.0, 20, 25),
            vm(3, 0.5, 0.5, 13, 19),
        ];
        for v in &vms {
            ledger.host(v);
        }
        // Remove in an order that exercises overlap, bridging and the
        // last-segment refund.
        for v in [&vms[1], &vms[3], &vms[0], &vms[2]] {
            let predicted = ledger.decremental_cost(v);
            let oracle = ledger.reference_decremental_cost(v);
            assert!(
                (predicted - oracle).abs() < 1e-9,
                "decremental {predicted} vs oracle {oracle} for {v}"
            );
            let before = ledger.cost();
            let realized = ledger.unhost(v);
            assert_eq!(realized, predicted, "unhost must realize the prediction");
            assert!(
                (ledger.cost() - (before - predicted)).abs() < 1e-9,
                "cost after unhosting {v}"
            );
        }
        assert_eq!(ledger.hosted_count(), 0);
        assert_eq!(ledger.cost(), 0.0);
        assert!(ledger.segments().is_empty());
    }

    #[test]
    fn decremental_negates_incremental() {
        let mut ledger = ServerLedger::new(spec(120.0));
        ledger.host(&vm(0, 1.0, 1.0, 10, 20));
        ledger.host(&vm(1, 1.0, 1.0, 40, 55));
        for probe in [
            vm(2, 1.0, 1.0, 1, 5),   // before the span
            vm(3, 1.0, 1.0, 25, 30), // splits the gap
            vm(4, 1.0, 1.0, 15, 45), // bridges both segments
            vm(5, 1.0, 1.0, 12, 18), // fully shared busy time
            vm(6, 1.0, 1.0, 60, 99), // after the span
        ] {
            let up = ledger.incremental_cost(&probe);
            ledger.host(&probe);
            let down = ledger.decremental_cost(&probe);
            assert!(
                (up - down).abs() < 1e-9,
                "incremental {up} vs decremental {down} for {probe}"
            );
            ledger.unhost(&probe);
        }
        // Last-segment refund mirrors the first-segment charge.
        let mut solo = ServerLedger::new(spec(120.0));
        let only = vm(7, 1.0, 1.0, 5, 9);
        let up = solo.incremental_cost(&only);
        solo.host(&only);
        assert!((solo.decremental_cost(&only) - up).abs() < 1e-9);
        assert!((solo.unhost(&only) - up).abs() < 1e-9);
    }

    #[test]
    fn host_unhost_round_trip_restores_state() {
        let mut ledger = ServerLedger::new(spec(90.0));
        ledger.host(&vm(0, 2.0, 3.0, 1, 8));
        ledger.host(&vm(1, 1.0, 1.0, 30, 31));
        let cost_before = ledger.cost();
        let segments_before = ledger.segments().clone();
        let checkpoint = ledger.checkpoint();
        for probe in [vm(2, 1.0, 1.0, 5, 40), vm(3, 3.0, 2.0, 10, 25)] {
            ledger.host(&probe);
            ledger.unhost(&probe);
            ledger.restore_costs(checkpoint);
        }
        assert_eq!(ledger.cost(), cost_before);
        assert_eq!(ledger.segments(), &segments_before);
        assert_eq!(ledger.hosted_count(), 2);
    }

    #[test]
    fn checkpoint_restores_after_mid_sequence_eviction() {
        // The chaos engine's eviction mechanic: host a VM, crash-evict
        // it at t (unhost the whole piece, re-host the elapsed prefix),
        // then undo the eviction and restore the checkpoint — cost()
        // and the full Eq. 7 decomposition must come back bit-exactly.
        let mut ledger = ServerLedger::new(spec(90.0));
        ledger.host(&vm(0, 2.0, 3.0, 1, 8));
        let victim = vm(1, 1.0, 1.0, 4, 20);
        ledger.host(&victim);
        let cost_before = ledger.cost().to_bits();
        let breakdown_before = ledger.energy_breakdown();
        let checkpoint = ledger.checkpoint();

        // Crash at t = 10: truncate to the prefix [4, 9].
        let crash = 10;
        let prefix = Interval::new(victim.start(), crash - 1);
        ledger.unhost_piece(victim.demand(), victim.interval());
        ledger.host_piece(victim.demand(), prefix);
        assert_ne!(ledger.cost().to_bits(), cost_before, "eviction changed cost");
        assert_eq!(
            ledger.cost().to_bits(),
            ledger.energy_breakdown().total().to_bits(),
            "conservation holds mid-eviction"
        );

        // Recovery path undoes the eviction (tail re-placed here).
        ledger.unhost_piece(victim.demand(), prefix);
        ledger.host_piece(victim.demand(), victim.interval());
        ledger.restore_costs(checkpoint);
        assert_eq!(ledger.cost().to_bits(), cost_before, "cost restored bit-exactly");
        let after = ledger.energy_breakdown();
        assert_eq!(after.run.to_bits(), breakdown_before.run.to_bits());
        assert_eq!(after.idle.to_bits(), breakdown_before.idle.to_bits());
        assert_eq!(
            after.transition.to_bits(),
            breakdown_before.transition.to_bits()
        );
        assert_eq!(ledger.hosted_count(), 2);
    }

    #[test]
    fn fits_replacing_swap_feasibility() {
        let mut ledger = ServerLedger::new(spec(10.0));
        let resident = vm(0, 6.0, 6.0, 1, 10);
        ledger.host(&resident);
        ledger.host(&vm(1, 2.0, 2.0, 5, 6));
        // 7 CPU only fits if the 6-CPU resident leaves first — but the
        // 2-CPU VM still blocks t ∈ [5,6].
        let wide = vm(2, 7.0, 1.0, 1, 10);
        assert!(!ledger.fits(&wide));
        assert!(ledger.fits_replacing(&wide, &resident));
        let wider = vm(3, 9.0, 1.0, 1, 10);
        assert!(!ledger.fits_replacing(&wider, &resident));
        // Outside the freed interval the full usage applies.
        let tail = vm(4, 7.0, 1.0, 8, 12);
        assert!(ledger.fits_replacing(&tail, &resident));
        let past = vm(5, 7.0, 1.0, 11, 12);
        assert!(ledger.fits_replacing(&past, &resident));
    }

    #[test]
    fn piece_level_api_matches_vm_level() {
        let mut a = ServerLedger::new(spec(70.0));
        let mut b = ServerLedger::new(spec(70.0));
        let v = vm(0, 2.0, 1.0, 3, 14);
        assert_eq!(
            a.incremental_piece_cost(v.demand(), v.interval()),
            a.incremental_cost(&v)
        );
        a.host(&v);
        b.host_piece(v.demand(), v.interval());
        assert_eq!(a.cost(), b.cost());
        assert_eq!(
            a.decremental_piece_cost(v.demand(), v.interval()),
            a.decremental_cost(&v)
        );
        assert!(b.fits_piece(Resources::new(8.0, 19.0), Interval::new(1, 20)));
        assert!(!b.fits_piece(Resources::new(8.1, 1.0), Interval::new(10, 11)));
        assert_eq!(a.unhost(&v), b.unhost_piece(v.demand(), v.interval()));
        assert_eq!(a.cost(), 0.0);
    }

    #[test]
    fn fits_rejects_capacity_violation() {
        let mut ledger = ServerLedger::new(spec(10.0));
        ledger.host(&vm(0, 6.0, 6.0, 1, 10));
        assert!(!ledger.fits(&vm(1, 5.0, 1.0, 5, 6)));
        assert!(ledger.fits(&vm(1, 4.0, 1.0, 5, 6)));
        assert!(ledger.fits(&vm(1, 5.0, 1.0, 11, 12)));
    }

    #[test]
    fn breakdown_identity_is_bit_exact() {
        // α = 250, P_idle = 100: gap of 2 idles, gap of 3 sleeps.
        let mut ledger = ServerLedger::new(spec(250.0));
        ledger.host(&vm(0, 1.0, 1.0, 1, 2));
        ledger.host(&vm(1, 1.0, 1.0, 5, 6)); // kept-on gap [3,4]
        ledger.host(&vm(2, 1.0, 1.0, 10, 11)); // off gap [7,9]
        let b = ledger.energy_breakdown();
        assert_eq!(b.run + b.idle + b.transition, ledger.cost());
        assert_eq!(b.total(), ledger.cost());
        // run: 3 VMs × 20 W/CU × 1 CU × 2 units; idle: (6 busy + 2 kept)
        // × 100; transition: 2 × 250.
        assert_eq!(b.run, 120.0);
        assert_eq!(b.idle, 800.0);
        assert_eq!(b.transition, 500.0);
        assert_eq!(ledger.transition_count(), 2);
    }

    #[test]
    fn ledger_transition_count_matches_free_function() {
        let s = spec(250.0);
        let mut ledger = ServerLedger::new(s);
        assert_eq!(ledger.transition_count(), 0);
        let vms = [
            vm(0, 1.0, 1.0, 1, 2),
            vm(1, 1.0, 1.0, 5, 6),
            vm(2, 1.0, 1.0, 10, 11),
            vm(3, 1.0, 1.0, 3, 4), // closes the kept-on gap
        ];
        for v in &vms {
            ledger.host(v);
            assert_eq!(
                ledger.transition_count(),
                transition_count(&s, ledger.segments()),
                "after hosting {v}"
            );
        }
        for v in &vms {
            ledger.unhost(v);
            assert_eq!(
                ledger.transition_count(),
                transition_count(&s, ledger.segments()),
                "after unhosting {v}"
            );
        }
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        let ledger = ServerLedger::new(spec(50.0));
        let b = ledger.energy_breakdown();
        assert_eq!((b.run, b.idle, b.transition), (0.0, 0.0, 0.0));
    }

    #[test]
    fn spare_at_reports_remaining() {
        let mut ledger = ServerLedger::new(spec(10.0));
        ledger.host(&vm(0, 6.0, 6.0, 1, 10));
        assert_eq!(ledger.spare_at(5), Resources::new(4.0, 14.0));
        assert_eq!(ledger.spare_at(11), Resources::new(10.0, 20.0));
        assert_eq!(ledger.peak_over(Interval::new(0, 20)), Resources::new(6.0, 6.0));
    }
}

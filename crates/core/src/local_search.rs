//! Local-search refinement of an allocation.
//!
//! MIEC is greedy and online (one pass in start-time order); the exact
//! ILP is offline but only feasible on toy instances. This module fills
//! the gap between them: a first-improvement local search over the
//! *relocate* (move one VM to another server) and *swap* (exchange the
//! servers of two VMs) neighbourhoods, evaluated with the exact audit
//! cost model.
//!
//! Moves are scored with the paired delta machinery of
//! [`ServerLedger`]: a relocate is `incremental_cost(dst) −
//! decremental_cost(src)` and a swap is four such deltas — pure
//! `O(log K)` arithmetic per candidate, no clones, no `full_cost`
//! rescans inside the move loops. The seed's clone-and-rescan evaluation
//! is retained behind [`LocalSearch::reference`] as the oracle the fast
//! path is certified against (the same pattern PR 1 used for MIEC), and
//! the relocate scan prunes spec-class-symmetric asleep targets and can
//! optionally visit targets in cached-cost order.
//!
//! Rejected evaluations are reused. Only an accepted move changes a
//! host, so a relocate target or swap pair whose hosts are all
//! unchanged since that VM's previous scan is skipped: it was rejected
//! then on identical bits. Fit verdicts are cached per (server, VM),
//! and time-disjoint swap pairs read them, since a VM leaving frees
//! nothing outside its own interval.
//!
//! Moves are bounded before they are checked. Each (server, VM) keeps
//! an insertion floor (`incremental_cost` rounded down into an `f32`)
//! and each VM its `decremental_cost` until its host changes. An
//! accepted move clears a floor only where the VM's interval meets a
//! moved VM's influence region widened by one unit, and a verdict only
//! where it overlaps a moved interval: nothing else can have changed.
//! Swap rows sort their partners 64 at a time from these cached bits
//! (same host, reused, bounded, unfit), and only the rest is checked
//! pair by pair.
//! Busy time already on a server never makes an insertion dearer (the
//! Eq. 16 gap price is concave), so `floor(vb on sa) − dec(vb) +
//! floor(va on sb) − dec(va)` bounds a swap from below, and a relocate
//! is bounded by its own half. A move whose bound shows it cannot
//! improve is skipped before its fit check; DESIGN.md §7 has the proof.

use crate::classes::spec_classes;
use crate::{AllocError, AllocResult, Allocator};
use esvm_obs::{DecisionKind, ExplainRecord, MetricsRegistry, NoopTracer, Tracer};
use esvm_simcore::energy::full_cost;
use esvm_simcore::{
    AllocationProblem, Assignment, Interval, ServerId, ServerLedger, ServerSpec, Vm, VmId,
};
use rand::RngCore;
use std::collections::HashMap;

/// Per-server evaluation state for the search: a delta-scored
/// [`ServerLedger`] plus the hosted VM list with an id → slot map so
/// [`Host::remove`] is O(1) instead of a linear scan.
#[derive(Debug, Clone)]
struct Host {
    ledger: ServerLedger,
    vms: Vec<Vm>,
    slot_of: HashMap<VmId, usize>,
}

impl Host {
    fn new(spec: ServerSpec) -> Self {
        Self {
            ledger: ServerLedger::new(spec),
            vms: Vec::new(),
            slot_of: HashMap::new(),
        }
    }

    fn add(&mut self, vm: Vm) {
        self.slot_of.insert(vm.id(), self.vms.len());
        self.ledger.host(&vm);
        self.vms.push(vm);
    }

    fn remove(&mut self, vm: VmId) -> Vm {
        let idx = self.slot_of.remove(&vm).expect("vm hosted here");
        let v = self.vms.swap_remove(idx);
        if let Some(moved) = self.vms.get(idx) {
            self.slot_of.insert(moved.id(), idx);
        }
        self.ledger.unhost(&v);
        v
    }

    fn fits(&self, vm: &Vm) -> bool {
        self.ledger.fits(vm)
    }

    /// Cached O(1) total cost (delta-maintained by the ledger).
    fn cost(&self) -> f64 {
        self.ledger.cost()
    }

    // ---- Reference oracle probes (the seed's clone-and-rescan
    // evaluation, used only by `LocalSearch::reference`) ----

    /// Full rescan of the current VM set — the value the seed cached.
    fn reference_cost(&self) -> f64 {
        full_cost(self.ledger.spec(), &self.vms)
    }

    /// Cost if `vm` were added (no capacity check).
    fn cost_with(&self, vm: &Vm) -> f64 {
        let mut vms = self.vms.clone();
        vms.push(*vm);
        full_cost(self.ledger.spec(), &vms)
    }

    /// Cost if `vm` were removed.
    fn cost_without(&self, vm: VmId) -> f64 {
        let vms: Vec<Vm> = self.vms.iter().filter(|v| v.id() != vm).copied().collect();
        full_cost(self.ledger.spec(), &vms)
    }

    /// Whether `vm` fits if `leaving` were removed first (clone probe).
    fn reference_fits_replacing(&self, vm: &Vm, leaving: &Vm) -> bool {
        let mut usage = self.ledger.usage().clone();
        usage.remove(leaving.interval(), leaving.demand());
        usage.fits(vm.interval(), vm.demand(), self.ledger.spec().capacity())
    }

    /// Cost with `leaving` replaced by `vm`.
    fn cost_replacing(&self, vm: &Vm, leaving: VmId) -> f64 {
        let mut vms: Vec<Vm> = self
            .vms
            .iter()
            .filter(|v| v.id() != leaving)
            .copied()
            .collect();
        vms.push(*vm);
        full_cost(self.ledger.spec(), &vms)
    }
}

/// Disjoint mutable references to two hosts.
fn pair_mut(hosts: &mut [Host], a: usize, b: usize) -> (&mut Host, &mut Host) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = hosts.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = hosts.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Exact cost change on one swap side: `leaving` departs and `incoming`
/// arrives on `host`. When the two intervals' influence regions on the
/// current segment set are disjoint, the removal and insertion deltas
/// are exactly additive and the score is pure arithmetic; otherwise
/// [`ServerLedger::replacement_delta`] scores the insertion on the
/// segments `leaving` leaves behind and restores them exactly. Either
/// way the ledger is bit-identical afterwards.
///
/// The boolean reports which path evaluated the side (`true` = the
/// influence-region fast path), so instrumented callers can count
/// fast-path hits vs replacement probes.
fn swap_side_delta(host: &mut Host, leaving: &Vm, incoming: &Vm) -> (f64, bool) {
    let segments = host.ledger.segments();
    let independent = !segments
        .influence_region(leaving.interval())
        .overlaps(segments.influence_region(incoming.interval()));
    if independent {
        (
            host.ledger.incremental_cost(incoming) - host.ledger.decremental_cost(leaving),
            true,
        )
    } else {
        (host.ledger.replacement_delta(leaving, incoming), false)
    }
}

/// `x` rounded toward −∞ into an `f32`: never above `x`, so a bound
/// built from it never overstates a cost.
fn round_down(x: f64) -> f32 {
    let f = x as f32;
    if f64::from(f) > x {
        f.next_down()
    } else {
        f
    }
}

/// The swap bound's rounding margin `τ = 2^-30 · C`, where `C = Σ_j
/// max_i (run_ij + P_idle,i · len_j + α_i)` bounds every cost term the
/// search adds up. It exceeds the summation rounding of both the bound
/// and the exact swap score on any server with fewer than ~2^21
/// segments (DESIGN.md §7).
fn rounding_margin(problem: &AllocationProblem) -> f64 {
    let scale: f64 = problem
        .vms()
        .iter()
        .map(|vm| {
            problem
                .servers()
                .iter()
                .map(|s| s.run_cost(vm) + s.idle_cost(vm.interval().len()) + s.transition_cost())
                .fold(0.0, f64::max)
        })
        .sum();
    scale * (-30f64).exp2()
}

/// Where an accepted move can change what [`Reuse`] caches on the two
/// hosts it changes, taken before the move.
struct Windows {
    /// The two hosts: a relocate's source and target, a swap's two
    /// servers.
    hosts: [usize; 2],
    /// The intervals of the moved VMs (a relocate repeats its one VM).
    moved: [Interval; 2],
    /// Per host, each moved VM's influence region on it widened by one
    /// unit on each side: from the end of the segment left of the VM's
    /// merge hull to the start of the segment right of it.
    reach: [[Interval; 2]; 2],
}

/// The windows of a move between hosts `on`, taken on `hosts` before
/// it: each VM in `vms` leaves one of the two hosts and joins the other
/// (a relocate passes its VM twice).
fn windows(hosts: &[Host], on: [usize; 2], vms: [&Vm; 2]) -> Windows {
    let window = |s: usize, vm: &Vm| {
        let region = hosts[s].ledger.segments().influence_region(vm.interval());
        Interval::new(region.start().saturating_sub(1), region.end().saturating_add(1))
    };
    Windows {
        hosts: on,
        moved: vms.map(|vm| vm.interval()),
        reach: on.map(|s| vms.map(|vm| window(s, vm))),
    }
}

/// One swap row: VM `a`, paired with every later VM.
struct Row {
    a: usize,
    interval: Interval,
    /// `a`'s host.
    host: usize,
    /// The clock when the row began.
    since: u64,
    /// Whether `a`'s host is unchanged since the row's previous run,
    /// which then accepted nothing: it rejected every pair whose other
    /// host is unchanged too.
    settled: bool,
    /// `a`'s half of each pair bound, `relocate_floor(a → s)`, for
    /// every non-empty host `s` other than `a`'s that is not both
    /// settled and unchanged; NaN elsewhere.
    half: Vec<f64>,
}

/// A block of up to 64 swap partners `b0 + k` of one row, sorted from
/// cached bits alone (bit `k` stands for `b0 + k`). Same-host pairs and
/// pairs the cached verdicts already refuse are in no mask: neither
/// counts anywhere.
struct Block {
    /// Both hosts unchanged since the row's previous run.
    reused: u64,
    /// The cached floors and removals bound the pair at `τ` or above.
    bounded: u64,
    /// Everything else: evaluated one by one, in ascending `b`.
    walk: u64,
}

/// What the search may reuse from its earlier, rejected evaluations.
///
/// A host changes only when a move is accepted: fit checks and scoring
/// read the ledgers, and swap probes restore them bit for bit. So an
/// evaluation whose hosts are all unchanged since it last ran would
/// rerun on identical bits. The clock ticks once per accepted move and
/// each host keeps the clock value of its last change; a relocate scan
/// or swap row records the clock at which it began, and a host is
/// unchanged since then when its stamp is not later.
///
/// The cached floors and verdicts outlive a change to their host: a
/// move clears only the entries it could have changed (see
/// [`Reuse::record_move`]).
struct Reuse {
    clock: u64,
    /// Per host, the clock value of its last change (1: the start
    /// placement; scan stamps start at 0, "never ran").
    changed: Vec<u64>,
    vm_count: usize,
    /// Per VM, its interval.
    intervals: Vec<Interval>,
    /// `hosts[s].fits(vm j)` at `s * vm_count + j`, one byte each,
    /// `None` until computed or cleared by a move.
    verdicts: Vec<Option<bool>>,
    /// `hosts[s].ledger.incremental_cost(vm j)` rounded down, at the
    /// same index as `verdicts`; NaN until computed or cleared.
    floors: Vec<f32>,
    /// Per VM, `decremental_cost` on its host; NaN once that host
    /// changes.
    removals: Vec<f64>,
    /// See [`rounding_margin`].
    tau: f64,
    /// Fit verdicts computed (not read back from `verdicts`).
    fit_checks: u64,
}

impl Reuse {
    fn new(problem: &AllocationProblem) -> Self {
        let (servers, vms) = (problem.server_count(), problem.vm_count());
        Self {
            clock: 1,
            changed: vec![1; servers],
            vm_count: vms,
            intervals: problem.vms().iter().map(Vm::interval).collect(),
            verdicts: vec![None; servers * vms],
            floors: vec![f32::NAN; servers * vms],
            removals: vec![f64::NAN; vms],
            tau: rounding_margin(problem),
            fit_checks: 0,
        }
    }

    /// Whether host `s` is unchanged since a scan that began at `since`.
    fn unchanged(&self, s: usize, since: u64) -> bool {
        self.changed[s] <= since
    }

    /// Moves `vm` from host `src` to host `dst` and records the move.
    fn relocate(&mut self, hosts: &mut [Host], vm: &Vm, src: usize, dst: usize) {
        let windows = windows(hosts, [src, dst], [vm, vm]);
        let v = hosts[src].remove(vm.id());
        hosts[dst].add(v);
        self.record_move(hosts, &windows);
    }

    /// Exchanges the hosts of `va` (on `sa`) and `vb` (on `sb`) and
    /// records the move.
    fn swap(&mut self, hosts: &mut [Host], va: &Vm, sa: usize, vb: &Vm, sb: usize) {
        let windows = windows(hosts, [sa, sb], [va, vb]);
        let a = hosts[sa].remove(va.id());
        let b = hosts[sb].remove(vb.id());
        hosts[sa].add(b);
        hosts[sb].add(a);
        self.record_move(hosts, &windows);
    }

    /// Records an accepted move (called once `hosts` holds the new
    /// placement, with the windows taken before it). A move changes a
    /// host's busy set and usage only inside the moved intervals, so on
    /// each of its two hosts an insertion floor is cleared only for a
    /// VM whose interval meets one of that host's windows, and a fit
    /// verdict only for a VM whose interval overlaps a moved one
    /// (DESIGN.md §7). The removal cost of every VM either host now
    /// holds is cleared.
    fn record_move(&mut self, hosts: &[Host], windows: &Windows) {
        self.clock += 1;
        for (&s, reach) in windows.hosts.iter().zip(&windows.reach) {
            self.changed[s] = self.clock;
            let row = s * self.vm_count..(s + 1) * self.vm_count;
            let entries = self.floors[row.clone()].iter_mut().zip(&mut self.verdicts[row]);
            for (interval, (floor, verdict)) in self.intervals.iter().zip(entries) {
                if reach.iter().any(|w| w.overlaps(*interval)) {
                    *floor = f32::NAN;
                }
                if windows.moved.iter().any(|m| m.overlaps(*interval)) {
                    *verdict = None;
                }
            }
            for vm in &hosts[s].vms {
                self.removals[vm.id().index()] = f64::NAN;
            }
        }
    }

    /// A lower bound on the cost change of moving VM `j` from host
    /// `src` to host `s`: its insertion floor on `s` minus its
    /// decremental cost on `src`, each computed at most once per host
    /// state.
    fn relocate_floor(&mut self, hosts: &[Host], j: usize, vm: &Vm, src: usize, s: usize) -> f64 {
        let slot = &mut self.floors[s * self.vm_count + j];
        if slot.is_nan() {
            *slot = round_down(hosts[s].ledger.incremental_cost(vm));
        }
        let floor = f64::from(*slot);
        floor - self.removal(&hosts[src], j, vm)
    }

    /// `host.ledger.decremental_cost(vm)` for VM index `j` on its host,
    /// computed at most once per host state.
    fn removal(&mut self, host: &Host, j: usize, vm: &Vm) -> f64 {
        let removal = &mut self.removals[j];
        if removal.is_nan() {
            *removal = host.ledger.decremental_cost(vm);
        }
        *removal
    }

    /// Whether a swap whose two relocate floors sum to `bound` is sure
    /// to be rejected: its exact score is at least `bound − τ`.
    fn swap_cannot_improve(&self, bound: f64) -> bool {
        bound >= self.tau
    }

    /// `host.fits(vm)` for host `s` and VM index `j`, computed at most
    /// once per host state.
    fn fits(&mut self, host: &Host, s: usize, j: usize, vm: &Vm) -> bool {
        let slot = &mut self.verdicts[s * self.vm_count + j];
        *slot.get_or_insert_with(|| {
            self.fit_checks += 1;
            host.fits(vm)
        })
    }

    /// `host.ledger.fits_replacing(incoming, leaving)`, counted.
    fn fits_replacing(&mut self, host: &Host, incoming: &Vm, leaving: &Vm) -> bool {
        self.fit_checks += 1;
        host.ledger.fits_replacing(incoming, leaving)
    }

    /// Fills `row.half` for the row's current host and settledness.
    fn fill_halves(&mut self, hosts: &[Host], row: &mut Row, va: &Vm) {
        for s in 0..hosts.len() {
            let skip = s == row.host
                || hosts[s].vms.is_empty()
                || (row.settled && self.unchanged(s, row.since));
            row.half[s] = if skip {
                f64::NAN
            } else {
                self.relocate_floor(hosts, row.a, va, row.host, s)
            };
        }
    }

    /// Sorts the partners `b0..b0 + len` (`len ≤ 64`) of `row` without a
    /// branch per pair, in the order the per-pair code checks them:
    /// same host, reused, bounded (floor and removal both cached), then
    /// unfit from the cache (a time-disjoint pair whose cached verdicts
    /// refuse it: `b` on `a`'s host first, then `a` on `b`'s), and the
    /// rest is walk. A NaN bound (an entry not cached) is neither `≥ τ`
    /// nor `< τ`, so its pair walks.
    fn sort_block(&self, row: &Row, b0: usize, len: usize, location: &[ServerId]) -> Block {
        debug_assert!((1..=64).contains(&len));
        let sa = row.host;
        let at = sa * self.vm_count + b0;
        let partners = location[b0..b0 + len]
            .iter()
            .zip(&self.intervals[b0..b0 + len])
            .zip(&self.removals[b0..b0 + len])
            .zip(self.floors[at..at + len].iter().zip(&self.verdicts[at..at + len]));
        // Last partner first, so each pair's bit enters at the bottom and
        // `b0 + k` ends at bit `k`.
        let (mut same, mut reused, mut bounded, mut unfit) = (0u64, 0u64, 0u64, 0u64);
        for (((server, interval), &removal), (&floor, &b_on_sa)) in partners.rev() {
            let sb = server.index();
            let bound = (f64::from(floor) - removal) + row.half[sb];
            let a_on_sb = self.verdicts[sb * self.vm_count + row.a];
            let refused =
                (b_on_sa == Some(false)) | ((b_on_sa == Some(true)) & (a_on_sb == Some(false)));
            let disjoint = !row.interval.overlaps(*interval);
            same = same << 1 | u64::from(sb == sa);
            reused = reused << 1 | u64::from(row.settled & (self.changed[sb] <= row.since));
            bounded = bounded << 1 | u64::from(bound >= self.tau);
            unfit = unfit << 1 | u64::from((bound < self.tau) & disjoint & refused);
        }
        let full = u64::MAX >> (64 - len);
        let reused = reused & !same;
        let bounded = bounded & !(same | reused);
        let unfit = unfit & !(same | reused);
        Block {
            reused,
            bounded,
            walk: full & !(same | reused | bounded | unfit),
        }
    }
}

/// One accepted move, in acceptance order. Returned by
/// [`LocalSearch::refine_traced`] so tests and benches can replay the
/// trajectory against the clone-and-rescan oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMove {
    /// `vm` moved from server `from` to server `to`.
    Relocate {
        /// The relocated VM.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
        /// Accepted score (total-cost change, negative).
        delta: f64,
    },
    /// `a` (on `server_a`) and `b` (on `server_b`) exchanged servers.
    Swap {
        /// First VM.
        a: VmId,
        /// Second VM.
        b: VmId,
        /// Server hosting `a` before the swap.
        server_a: ServerId,
        /// Server hosting `b` before the swap.
        server_b: ServerId,
        /// Accepted score (total-cost change, negative).
        delta: f64,
    },
}

/// First-improvement local search over relocate + swap moves.
///
/// # Example
///
/// ```
/// use esvm_core::{Allocator, LocalSearch, Miec};
/// use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let problem = ProblemBuilder::new()
///     .server(Resources::new(8.0, 16.0), PowerModel::new(60.0, 120.0), 30.0)
///     .server(Resources::new(8.0, 16.0), PowerModel::new(50.0, 110.0), 25.0)
///     .vm(Resources::new(2.0, 4.0), Interval::new(1, 10))
///     .vm(Resources::new(2.0, 4.0), Interval::new(5, 14))
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let base = Miec::new().allocate(&problem, &mut rng)?;
/// let refined = LocalSearch::new().refine(&base)?;
/// assert!(refined.total_cost() <= base.total_cost() + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LocalSearch {
    max_rounds: usize,
    enable_swaps: bool,
    ordered_targets: bool,
    reference: bool,
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self {
            max_rounds: 50,
            enable_swaps: true,
            ordered_targets: false,
            reference: false,
        }
    }
}

impl LocalSearch {
    /// Creates the default search (relocate + swap, ≤ 50 rounds,
    /// delta-scored, seed visit order).
    pub fn new() -> Self {
        Self::default()
    }

    /// The seed's clone-and-rescan evaluation, retained as the oracle
    /// the delta-scored path is verified against (tests and the
    /// `local_search` bench). It evaluates every candidate move, with no
    /// reuse of rejected evaluations and no fit-verdict cache.
    /// Functionally equivalent to
    /// [`LocalSearch::new`] up to certified floating-point score ties;
    /// an order of magnitude slower.
    pub fn reference() -> Self {
        Self {
            reference: true,
            ..Self::default()
        }
    }

    /// Visits relocation targets in ascending cached-cost order (cheap,
    /// already-awake servers first) instead of server-id order. Usually
    /// finds improving moves sooner; the first-improvement trajectory —
    /// and therefore the local optimum reached — may legitimately differ
    /// from the default order.
    pub fn with_ordered_targets(mut self) -> Self {
        self.ordered_targets = true;
        self
    }

    /// Caps the number of full improvement rounds.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Disables the (quadratic) swap neighbourhood.
    pub fn relocate_only(mut self) -> Self {
        self.enable_swaps = false;
        self
    }

    /// Refines a complete assignment; the result never costs more.
    ///
    /// # Errors
    ///
    /// [`AllocError::Placement`] if the input is incomplete, or if the
    /// final placement fails re-validation (would indicate a bug).
    pub fn refine<'p>(&self, base: &Assignment<'p>) -> AllocResult<Assignment<'p>> {
        self.refine_traced(base, &MetricsRegistry::new(), &NoopTracer)
            .map(|(refined, _)| refined)
    }

    /// [`LocalSearch::refine`], additionally returning every accepted
    /// move in acceptance order — the trajectory the property tests and
    /// the `local_search` bench replay against the reference oracle —
    /// with instrumentation. The scan tallies (moves scored / accepted
    /// / rejected, evaluations reused from an earlier rejection, fit
    /// verdicts computed, spec-class pruned targets, influence-region
    /// fast-path hits vs replacement probes) and the accepted-delta
    /// histogram land in `metrics`; the whole refinement runs under a
    /// `local_search.refine` span with one `local_search.round` child
    /// per improvement round, and every accepted move emits a
    /// [`DecisionKind::Relocate`] / [`DecisionKind::Swap`] explain
    /// record (winner, source server, delta, and — for relocates — the
    /// targets scored in this scan and the pruned-by-class count). With
    /// [`NoopTracer`] the instrumentation compiles away and this *is*
    /// the uninstrumented search, instruction for instruction.
    ///
    /// # Errors
    ///
    /// Same as [`LocalSearch::refine`].
    pub fn refine_traced<'p, T: Tracer>(
        &self,
        base: &Assignment<'p>,
        metrics: &MetricsRegistry,
        tracer: &T,
    ) -> AllocResult<(Assignment<'p>, Vec<SearchMove>)> {
        let problem = base.problem();
        if let Some(vm) = base.unplaced().next() {
            return Err(AllocError::Placement(esvm_simcore::Error::Unplaced(vm)));
        }
        let _refine_span = tracer.span("local_search.refine");

        let mut hosts: Vec<Host> = problem.servers().iter().map(|s| Host::new(*s)).collect();
        let mut location: Vec<ServerId> = Vec::with_capacity(problem.vm_count());
        for (j, slot) in base.placement().iter().enumerate() {
            let server = slot.expect("complete");
            hosts[server.index()].add(problem.vms()[j]);
            location.push(server);
        }

        // Spec classes for asleep-target pruning (exactly
        // decision-preserving: twins of the first asleep class member
        // give bit-identical fits and scores, and first-improvement
        // visits that member first). The reference path skips pruning and
        // ordering to stay bit-faithful to the seed implementation.
        let prune = !self.reference;
        let classes = spec_classes(problem.servers());
        let mut class_seen: Vec<u64> = vec![u64::MAX; classes.count];
        let mut scan: u64 = 0;
        // Target visit order; stays the identity unless ordered_targets.
        let mut order: Vec<usize> = (0..hosts.len()).collect();
        let mut moves: Vec<SearchMove> = Vec::new();
        // Reuse of rejected evaluations and the move bounds (both off on
        // the reference path): the clock at which each VM's relocate scan
        // and swap row last began.
        let mut reuse = Reuse::new(problem);
        let mut relocate_since: Vec<u64> = vec![0; problem.vm_count()];
        let mut swap_since: Vec<u64> = vec![0; problem.vm_count()];
        let mut row = Row {
            a: 0,
            interval: Interval::new(0, 0),
            host: 0,
            since: 0,
            settled: false,
            half: vec![f64::NAN; hosts.len()],
        };
        // Hot-loop tallies; flushed to `metrics` once after the search.
        let mut rounds = 0u64;
        let mut relocates_considered = 0u64;
        let mut relocates_accepted = 0u64;
        let mut relocates_reused = 0u64;
        let mut relocates_bounded = 0u64;
        let mut swaps_considered = 0u64;
        let mut swaps_accepted = 0u64;
        let mut swaps_reused = 0u64;
        let mut swaps_bounded = 0u64;
        let mut pruned_targets = 0u64;
        let mut fastpath_hits = 0u64;
        let mut probe_rollbacks = 0u64;

        for _ in 0..self.max_rounds {
            let mut improved = false;
            let _round_span = tracer.span("local_search.round");
            if T::ENABLED {
                rounds += 1;
            }

            // Relocate moves. (Index loop: the body needs `location[j]`
            // both read and written while `hosts` is borrowed mutably.)
            #[allow(clippy::needless_range_loop)]
            for j in 0..problem.vm_count() {
                let vm = problem.vms()[j];
                let src = location[j];
                // Per-VM scan tallies feed the explain record and the
                // run totals flushed once below.
                let mut vm_considered = 0u64;
                let mut vm_pruned = 0u64;
                // Score the departure once per VM: pure arithmetic on the
                // fast path, the seed's two full rescans on the oracle.
                let removal_gain = if self.reference {
                    hosts[src.index()].cost_without(vm.id()) - hosts[src.index()].reference_cost()
                } else {
                    -reuse.removal(&hosts[src.index()], j, &vm)
                };
                if self.ordered_targets && !self.reference {
                    order.sort_unstable_by(|&x, &y| {
                        hosts[x].cost().total_cmp(&hosts[y].cost()).then(x.cmp(&y))
                    });
                }
                scan += 1;
                // The last scan of this VM accepted nothing if its source
                // is unchanged since, so it rejected every non-empty
                // target that is unchanged too.
                let since = std::mem::replace(&mut relocate_since[j], reuse.clock);
                let settled = !self.reference && reuse.unchanged(src.index(), since);
                for &i in &order {
                    let dst = ServerId(i as u32);
                    if dst == src {
                        continue;
                    }
                    if prune && hosts[i].vms.is_empty() {
                        // Asleep targets are never reused: which member of
                        // a class gets scored can change between scans.
                        let class = classes.class_of[i];
                        if class_seen[class] == scan {
                            // A cheaper-or-equal asleep twin of the same
                            // spec class was already scored this scan.
                            if T::ENABLED {
                                vm_pruned += 1;
                            }
                            continue;
                        }
                        class_seen[class] = scan;
                    } else if settled && reuse.unchanged(i, since) {
                        if T::ENABLED {
                            relocates_reused += 1;
                        }
                        continue;
                    }
                    // `floor ≤ incremental_cost` and rounded addition is
                    // monotone, so a non-negative floor sum proves the
                    // exact score is too: no margin is needed.
                    if !self.reference
                        && reuse.relocate_floor(&hosts, j, &vm, src.index(), i) >= 0.0
                    {
                        if T::ENABLED {
                            relocates_bounded += 1;
                        }
                        continue;
                    }
                    let fits = if self.reference {
                        hosts[i].fits(&vm)
                    } else {
                        reuse.fits(&hosts[i], i, j, &vm)
                    };
                    if !fits {
                        continue;
                    }
                    let delta = if self.reference {
                        removal_gain + (hosts[i].cost_with(&vm) - hosts[i].reference_cost())
                    } else {
                        removal_gain + hosts[i].ledger.incremental_cost(&vm)
                    };
                    if T::ENABLED {
                        vm_considered += 1;
                    }
                    if delta < -1e-9 {
                        reuse.relocate(&mut hosts, &vm, src.index(), i);
                        location[j] = dst;
                        moves.push(SearchMove::Relocate {
                            vm: vm.id(),
                            from: src,
                            to: dst,
                            delta,
                        });
                        improved = true;
                        if T::ENABLED {
                            relocates_accepted += 1;
                            metrics.observe("local_search.accepted_delta", -delta);
                            tracer.explain(&ExplainRecord {
                                candidates: vm_considered,
                                pruned: vm_pruned,
                                winner: Some(dst.index() as u64),
                                delta_cost: delta,
                                from: Some(src.index() as u64),
                                ..ExplainRecord::new(
                                    DecisionKind::Relocate,
                                    vm.id().index() as u64,
                                )
                            });
                        }
                        break;
                    }
                }
                if T::ENABLED {
                    relocates_considered += vm_considered;
                    pruned_targets += vm_pruned;
                }
            }

            // Swap moves. Each row sorts its partners 64 at a time from
            // cached bits (`Reuse::sort_block`); only the walk group runs
            // the per-pair checks below, in ascending `b`, so the first
            // improving pair is the one a pair-by-pair row would accept.
            // The reference fills no half and is never settled, so every
            // pair of its on another host walks.
            if self.enable_swaps {
                let vm_count = problem.vm_count();
                for a in 0..vm_count {
                    let va = problem.vms()[a];
                    row.a = a;
                    row.interval = va.interval();
                    row.host = location[a].index();
                    row.since = std::mem::replace(&mut swap_since[a], reuse.clock);
                    row.settled = !self.reference && reuse.unchanged(row.host, row.since);
                    if !self.reference {
                        reuse.fill_halves(&hosts, &mut row, &va);
                    }
                    let mut b0 = a + 1;
                    while b0 < vm_count {
                        let len = (vm_count - b0).min(64);
                        let block = reuse.sort_block(&row, b0, len, &location);
                        // Past an accepted swap the block's bits are stale:
                        // the row resumes with a fresh block after it.
                        let mut next = b0 + len;
                        let mut walk = block.walk;
                        while walk != 0 {
                            let b = b0 + walk.trailing_zeros() as usize;
                            walk &= walk - 1;
                            let (sa, sb) = (location[a], location[b]);
                            let vb = problem.vms()[b];
                            if !self.reference {
                                let bound =
                                    reuse.relocate_floor(&hosts, b, &vb, sb.index(), sa.index())
                                        + row.half[sb.index()];
                                if reuse.swap_cannot_improve(bound) {
                                    if T::ENABLED {
                                        swaps_bounded += 1;
                                    }
                                    continue;
                                }
                            }
                            let delta = if self.reference {
                                let ha = &hosts[sa.index()];
                                let hb = &hosts[sb.index()];
                                if !ha.reference_fits_replacing(&vb, &va)
                                    || !hb.reference_fits_replacing(&va, &vb)
                                {
                                    continue;
                                }
                                (ha.cost_replacing(&vb, va.id()) - ha.reference_cost())
                                    + (hb.cost_replacing(&va, vb.id()) - hb.reference_cost())
                            } else {
                                let (ha, hb) = pair_mut(&mut hosts, sa.index(), sb.index());
                                let fits = if va.interval().overlaps(vb.interval()) {
                                    reuse.fits_replacing(ha, &vb, &va)
                                        && reuse.fits_replacing(hb, &va, &vb)
                                } else {
                                    // The leaving VM frees no time unit the
                                    // incoming one needs: `fits_replacing` is
                                    // exactly `fits`.
                                    reuse.fits(ha, sa.index(), b, &vb)
                                        && reuse.fits(hb, sb.index(), a, &va)
                                };
                                if !fits {
                                    continue;
                                }
                                let (da, fast_a) = swap_side_delta(ha, &va, &vb);
                                let (db, fast_b) = swap_side_delta(hb, &vb, &va);
                                if T::ENABLED {
                                    for fast in [fast_a, fast_b] {
                                        if fast {
                                            fastpath_hits += 1;
                                        } else {
                                            probe_rollbacks += 1;
                                        }
                                    }
                                }
                                da + db
                            };
                            if T::ENABLED {
                                swaps_considered += 1;
                            }
                            if delta < -1e-9 {
                                reuse.swap(&mut hosts, &va, sa.index(), &vb, sb.index());
                                location[a] = sb;
                                location[b] = sa;
                                row.host = sb.index();
                                row.settled = false;
                                if !self.reference {
                                    reuse.fill_halves(&hosts, &mut row, &va);
                                }
                                moves.push(SearchMove::Swap {
                                    a: va.id(),
                                    b: vb.id(),
                                    server_a: sa,
                                    server_b: sb,
                                    delta,
                                });
                                improved = true;
                                if T::ENABLED {
                                    swaps_accepted += 1;
                                    metrics.observe("local_search.accepted_delta", -delta);
                                    // `vm` is the a-side VM; `winner` is its
                                    // new server, `from` its old one; the
                                    // partner rides in `attempt`.
                                    tracer.explain(&ExplainRecord {
                                        winner: Some(sb.index() as u64),
                                        delta_cost: delta,
                                        from: Some(sa.index() as u64),
                                        attempt: vb.id().index() as u64,
                                        ..ExplainRecord::new(
                                            DecisionKind::Swap,
                                            va.id().index() as u64,
                                        )
                                    });
                                }
                                next = b + 1;
                                break;
                            }
                        }
                        if T::ENABLED {
                            // Only the pairs the row reached count.
                            let reached = u64::MAX >> (64 - (next - b0));
                            swaps_reused += u64::from((block.reused & reached).count_ones());
                            swaps_bounded += u64::from((block.bounded & reached).count_ones());
                        }
                        b0 = next;
                    }
                }
            }

            if !improved {
                break;
            }
        }

        if T::ENABLED {
            metrics.add("local_search.rounds", rounds);
            metrics.add("local_search.relocates_considered", relocates_considered);
            metrics.add("local_search.relocates_accepted", relocates_accepted);
            metrics.add(
                "local_search.relocates_rejected",
                relocates_considered - relocates_accepted,
            );
            metrics.add("local_search.relocates_reused", relocates_reused);
            metrics.add("local_search.relocates_bounded", relocates_bounded);
            metrics.add("local_search.swaps_considered", swaps_considered);
            metrics.add("local_search.swaps_accepted", swaps_accepted);
            metrics.add("local_search.swaps_rejected", swaps_considered - swaps_accepted);
            metrics.add("local_search.swaps_reused", swaps_reused);
            metrics.add("local_search.swaps_bounded", swaps_bounded);
            metrics.add("local_search.fit_checks", reuse.fit_checks);
            metrics.add("local_search.spec_class_pruned", pruned_targets);
            metrics.add("local_search.swap_fastpath_hits", fastpath_hits);
            metrics.add("local_search.swap_probe_rollbacks", probe_rollbacks);
        }

        // The search state goes before the result is built, so the peak
        // holds one of them, not both.
        drop(hosts);
        drop(reuse);
        let placement: Vec<Option<ServerId>> = location.into_iter().map(Some).collect();
        let refined =
            Assignment::from_placement(problem, &placement).map_err(AllocError::Placement)?;
        Ok((refined, moves))
    }
}

/// An [`Allocator`] wrapper: run `base`, then refine with local search.
#[derive(Debug, Clone)]
pub struct Refined<A> {
    base: A,
    search: LocalSearch,
    name: &'static str,
}

impl<A: Allocator> Refined<A> {
    /// Wraps `base`; `name` labels the pipeline in tables.
    pub fn new(base: A, search: LocalSearch, name: &'static str) -> Self {
        Self { base, search, name }
    }
}

impl<A: Allocator> Allocator for Refined<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn allocate<'p>(
        &self,
        problem: &'p AllocationProblem,
        rng: &mut dyn RngCore,
    ) -> AllocResult<Assignment<'p>> {
        let base = self.base.allocate(problem, rng)?;
        self.search.refine(&base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ffps, Miec};
    use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
    use rand::{rngs::StdRng, SeedableRng};

    /// The uninstrumented refinement and its accepted moves.
    fn trajectory<'p>(
        search: LocalSearch,
        base: &Assignment<'p>,
    ) -> (Assignment<'p>, Vec<SearchMove>) {
        search
            .refine_traced(base, &MetricsRegistry::new(), &NoopTracer)
            .unwrap()
    }

    fn problem() -> AllocationProblem {
        let mut b = ProblemBuilder::new();
        for i in 0..6 {
            let scale = 1.0 + (i % 3) as f64 * 0.5;
            b = b.server(
                Resources::new(8.0 * scale, 16.0 * scale),
                PowerModel::new(40.0 * scale, 100.0 * scale),
                60.0 * scale,
            );
        }
        for j in 0..14u32 {
            b = b.vm(
                Resources::new(1.0 + f64::from(j % 4), 2.0 + f64::from(j % 5)),
                Interval::with_len(1 + j * 2, 4 + (j % 3)),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn refinement_never_worsens() {
        let p = problem();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Ffps::new().allocate(&p, &mut rng).unwrap();
            let refined = LocalSearch::new().refine(&base).unwrap();
            assert!(
                refined.total_cost() <= base.total_cost() + 1e-9,
                "seed {seed}: {} > {}",
                refined.total_cost(),
                base.total_cost()
            );
            assert!(refined.audit().is_ok());
        }
    }

    #[test]
    fn refinement_improves_a_bad_start() {
        // Round-robin spreads everything; local search must consolidate.
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        assert!(
            refined.total_cost() < base.total_cost() * 0.95,
            "expected ≥ 5% improvement over round-robin: {} vs {}",
            refined.total_cost(),
            base.total_cost()
        );
    }

    #[test]
    fn result_is_a_local_optimum_for_relocation() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(1);
        let base = Ffps::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        // No single relocation improves the refined solution.
        for j in 0..p.vm_count() {
            let vm = p.vms()[j];
            let src = refined.server_of(vm.id()).unwrap();
            for i in 0..p.server_count() {
                let dst = ServerId(i as u32);
                if dst == src {
                    continue;
                }
                let mut placement = refined.placement().to_vec();
                placement[j] = Some(dst);
                if let Ok(candidate) = Assignment::from_placement(&p, &placement) {
                    assert!(
                        candidate.total_cost() >= refined.total_cost() - 1e-6,
                        "relocating vm{j} to srv{i} improves: {} < {}",
                        candidate.total_cost(),
                        refined.total_cost()
                    );
                }
            }
        }
    }

    #[test]
    fn relocate_only_mode_works() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(2);
        let base = Ffps::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new()
            .relocate_only()
            .with_max_rounds(3)
            .refine(&base)
            .unwrap();
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn observed_refinement_matches_plain_and_reports_counts() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let plain = LocalSearch::new().refine(&base).unwrap();

        let tracer = esvm_obs::CollectingTracer::new();
        let metrics = MetricsRegistry::new();
        let (observed, moves) = LocalSearch::new()
            .refine_traced(&base, &metrics, &tracer)
            .unwrap();

        // Instrumentation must not change any decision.
        assert_eq!(observed.placement(), plain.placement());
        assert_eq!(observed.total_cost().to_bits(), plain.total_cost().to_bits());

        let accepted = metrics.counter("local_search.relocates_accepted")
            + metrics.counter("local_search.swaps_accepted");
        assert_eq!(accepted, moves.len() as u64);
        assert!(metrics.counter("local_search.rounds") >= 1);
        assert!(
            metrics.counter("local_search.relocates_considered")
                >= metrics.counter("local_search.relocates_accepted")
        );
        // The last round re-meets pairs an earlier round rejected on
        // hosts nothing has changed since: the reuse path must run.
        assert!(metrics.counter("local_search.swaps_reused") > 0);
        assert!(metrics.counter("local_search.fit_checks") > 0);
        // Most moves cannot improve, and their bounds show it.
        assert!(metrics.counter("local_search.relocates_bounded") > 0);
        assert!(metrics.counter("local_search.swaps_bounded") > 0);
        let h = metrics.histogram("local_search.accepted_delta").unwrap();
        assert_eq!(h.count, moves.len() as u64);
        assert!(h.min > 0.0, "accepted improvements are recorded as positive gains");
        // One explain record per accepted move.
        let explains = tracer.explains();
        assert_eq!(explains.len(), moves.len());
        assert!(explains
            .iter()
            .all(|e| matches!(e.record.kind, DecisionKind::Relocate | DecisionKind::Swap)));
    }

    #[test]
    fn instrumented_refine_matches_plain_and_explains_accepted_moves() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(0);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let (plain, plain_moves) = trajectory(LocalSearch::new(), &base);

        let tracer = esvm_obs::CollectingTracer::new();
        let (traced, moves) = LocalSearch::new()
            .refine_traced(&base, &MetricsRegistry::new(), &tracer)
            .unwrap();
        assert_eq!(traced.placement(), plain.placement());
        assert_eq!(traced.total_cost().to_bits(), plain.total_cost().to_bits());
        assert_eq!(moves, plain_moves);

        // One explain record per accepted move, in acceptance order,
        // with winner / source / delta matching the move trace.
        let explains = tracer.explains();
        assert_eq!(explains.len(), moves.len());
        for (entry, mv) in explains.iter().zip(&moves) {
            match *mv {
                SearchMove::Relocate { vm, from, to, delta } => {
                    assert_eq!(entry.record.kind, DecisionKind::Relocate);
                    assert_eq!(entry.record.vm, vm.index() as u64);
                    assert_eq!(entry.record.from, Some(from.index() as u64));
                    assert_eq!(entry.record.winner, Some(to.index() as u64));
                    assert_eq!(entry.record.delta_cost.to_bits(), delta.to_bits());
                    assert!(entry.record.candidates >= 1);
                }
                SearchMove::Swap { a, b, server_a, server_b, delta } => {
                    assert_eq!(entry.record.kind, DecisionKind::Swap);
                    assert_eq!(entry.record.vm, a.index() as u64);
                    assert_eq!(entry.record.attempt, b.index() as u64);
                    assert_eq!(entry.record.from, Some(server_a.index() as u64));
                    assert_eq!(entry.record.winner, Some(server_b.index() as u64));
                    assert_eq!(entry.record.delta_cost.to_bits(), delta.to_bits());
                }
            }
        }

        // Span tree: one refine root, one round child per round, all
        // closed.
        assert_eq!(tracer.open_spans(), 0);
        let spans = tracer.spans();
        let refines: Vec<_> =
            spans.iter().filter(|s| s.name == "local_search.refine").collect();
        assert_eq!(refines.len(), 1);
        let rounds = spans.iter().filter(|s| s.name == "local_search.round");
        assert!(rounds.clone().count() >= 1);
        for r in rounds {
            assert_eq!(r.parent, refines[0].id);
        }
    }

    #[test]
    fn wrapper_allocator_composes() {
        let p = problem();
        let wrapped = Refined::new(Miec::new(), LocalSearch::new(), "miec-ls");
        assert_eq!(wrapped.name(), "miec-ls");
        let mut rng = StdRng::seed_from_u64(3);
        let refined = wrapped.allocate(&p, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let plain = Miec::new().allocate(&p, &mut rng).unwrap();
        assert!(refined.total_cost() <= plain.total_cost() + 1e-9);
    }

    #[test]
    fn incomplete_input_is_rejected() {
        let p = problem();
        let empty = Assignment::new(&p);
        assert!(LocalSearch::new().refine(&empty).is_err());
    }

    #[test]
    fn swap_bookkeeping_is_consistent() {
        // Force a scenario where swaps matter: two servers, two VMs each
        // better off exchanged (capacity prevents simple relocation).
        let p = ProblemBuilder::new()
            .server(Resources::new(4.0, 8.0), PowerModel::new(10.0, 90.0), 5.0)
            .server(Resources::new(8.0, 16.0), PowerModel::new(80.0, 160.0), 5.0)
            // Big VM must sit on server 1 unless the small one leaves.
            .vm(Resources::new(4.0, 8.0), Interval::new(1, 10))
            .vm(Resources::new(3.0, 3.0), Interval::new(1, 10))
            .build()
            .unwrap();
        let mut base = Assignment::new(&p);
        base.place(VmId(0), ServerId(1)).unwrap();
        base.place(VmId(1), ServerId(0)).unwrap();
        let refined = LocalSearch::new().refine(&base).unwrap();
        assert!(refined.audit().is_ok());
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn fast_and_reference_agree() {
        let p = problem();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
            let (fast, fast_moves) = trajectory(LocalSearch::new(), &base);
            let (slow, slow_moves) = trajectory(LocalSearch::reference(), &base);
            assert_eq!(
                fast_moves, slow_moves,
                "seed {seed}: trajectories diverged (would need tie certification)"
            );
            assert_eq!(fast.placement(), slow.placement(), "seed {seed}");
            assert!((fast.total_cost() - slow.total_cost()).abs() < 1e-6);
        }
    }

    /// On every placement a refinement from a round-robin start passes
    /// through, each relocate target and swap pair the bounds skip is
    /// also rejected by the full evaluation (fit check and exact score),
    /// and no bound exceeds the exact score it bounds by more than its
    /// margin (none for a relocate, `τ` for a swap).
    #[test]
    fn bounded_moves_are_rejected_by_the_full_evaluation() {
        let p = problem();
        let (mut relocates_bounded, mut swaps_bounded) = (0u32, 0u32);
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
            let (_, moves) = trajectory(LocalSearch::new(), &base);
            let mut location: Vec<usize> =
                base.placement().iter().map(|s| s.unwrap().index()).collect();
            for step in 0..=moves.len() {
                let mut hosts: Vec<Host> = p.servers().iter().map(|s| Host::new(*s)).collect();
                for (j, &s) in location.iter().enumerate() {
                    hosts[s].add(p.vms()[j]);
                }
                let mut reuse = Reuse::new(&p);
                for (j, vm) in p.vms().iter().enumerate() {
                    let src = location[j];
                    for dst in (0..hosts.len()).filter(|&i| i != src) {
                        let floor = reuse.relocate_floor(&hosts, j, vm, src, dst);
                        let exact = -hosts[src].ledger.decremental_cost(vm)
                            + hosts[dst].ledger.incremental_cost(vm);
                        assert!(floor <= exact, "vm{j} → srv{dst}: {floor} > {exact}");
                        if floor >= 0.0 {
                            relocates_bounded += 1;
                            assert!(!(hosts[dst].fits(vm) && exact < -1e-9), "vm{j} → srv{dst}");
                        }
                    }
                }
                for a in 0..p.vm_count() {
                    for b in (a + 1)..p.vm_count() {
                        let (sa, sb) = (location[a], location[b]);
                        if sa == sb {
                            continue;
                        }
                        let (va, vb) = (p.vms()[a], p.vms()[b]);
                        let bound = reuse.relocate_floor(&hosts, b, &vb, sb, sa)
                            + reuse.relocate_floor(&hosts, a, &va, sa, sb);
                        let (ha, hb) = pair_mut(&mut hosts, sa, sb);
                        let fits = ha.ledger.fits_replacing(&vb, &va)
                            && hb.ledger.fits_replacing(&va, &vb);
                        let exact =
                            swap_side_delta(ha, &va, &vb).0 + swap_side_delta(hb, &vb, &va).0;
                        assert!(
                            bound - reuse.tau <= exact,
                            "vm{a} ⇄ vm{b}: {bound} vs {exact}"
                        );
                        if reuse.swap_cannot_improve(bound) {
                            swaps_bounded += 1;
                            assert!(!(fits && exact < -1e-9), "vm{a} ⇄ vm{b}");
                        }
                    }
                }
                match moves.get(step) {
                    Some(&SearchMove::Relocate { vm, to, .. }) => location[vm.index()] = to.index(),
                    Some(&SearchMove::Swap { a, b, server_a, server_b, .. }) => {
                        location[a.index()] = server_b.index();
                        location[b.index()] = server_a.index();
                    }
                    None => {}
                }
            }
        }
        assert!(relocates_bounded > 0 && swaps_bounded > 0);
    }

    /// A random feasible instance and start placement: `busy` packs
    /// long VMs into a short horizon, otherwise short VMs spread out.
    fn random_instance(seed: u64, busy: bool) -> (AllocationProblem, Vec<usize>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let servers = rng.gen_range(5..=20usize);
        let vms = rng.gen_range(40..=200usize);
        let horizon: u32 = if busy { 60 } else { 600 };
        let mut b = ProblemBuilder::new();
        let mut hosts = Vec::new();
        for i in 0..servers {
            let scale = 1.0 + (i % 3) as f64;
            let spec = ServerSpec::new(
                ServerId(i as u32),
                Resources::new(8.0 * scale, 16.0 * scale),
                PowerModel::new(40.0 * scale, 100.0 * scale),
                30.0 * scale,
            );
            b = b.server(spec.capacity(), *spec.power(), spec.transition_cost());
            hosts.push(Host::new(spec));
        }
        let mut location = Vec::new();
        for _ in 0..vms {
            let len = if busy { rng.gen_range(5..=30u32) } else { rng.gen_range(1..=8u32) };
            let vm = Vm::new(
                location.len() as u32,
                Resources::new(f64::from(rng.gen_range(1..=4u32)), f64::from(rng.gen_range(1..=6u32))),
                Interval::with_len(rng.gen_range(1..=horizon), len),
            );
            let first = rng.gen_range(0..servers);
            if let Some(s) = (0..servers).map(|k| (first + k) % servers).find(|&s| hosts[s].fits(&vm)) {
                hosts[s].add(vm);
                location.push(s);
                b = b.vm(vm.demand(), vm.interval());
            }
        }
        (b.build().unwrap(), location)
    }

    /// Every floor, verdict and removal a move leaves cached equals a
    /// fresh computation on the new placement, bit for bit.
    #[test]
    fn cached_entries_survive_moves_exactly() {
        for seed in 0..6u64 {
            let (p, mut location) = random_instance(seed, seed % 2 == 0);
            let mut hosts: Vec<Host> = p.servers().iter().map(|s| Host::new(*s)).collect();
            for (j, &s) in location.iter().enumerate() {
                hosts[s].add(p.vms()[j]);
            }
            let mut reuse = Reuse::new(&p);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            let (servers, vms) = (p.server_count(), p.vm_count());
            let mut moves = 0;
            for _ in 0..20_000 {
                if moves == 300 {
                    break;
                }
                // Fill every entry, so each move is checked against a full cache.
                for (j, vm) in p.vms().iter().enumerate() {
                    for s in 0..servers {
                        let slot = &mut reuse.floors[s * vms + j];
                        if slot.is_nan() {
                            *slot = round_down(hosts[s].ledger.incremental_cost(vm));
                        }
                        reuse.fits(&hosts[s], s, j, vm);
                    }
                    reuse.removal(&hosts[location[j]], j, vm);
                }
                use rand::Rng;
                let a = rng.gen_range(0..vms);
                let va = p.vms()[a];
                if rng.gen_bool(0.5) {
                    let dst = rng.gen_range(0..servers);
                    if dst == location[a] || !hosts[dst].fits(&va) {
                        continue;
                    }
                    reuse.relocate(&mut hosts, &va, location[a], dst);
                    location[a] = dst;
                } else {
                    let b = rng.gen_range(0..vms);
                    let (sa, sb) = (location[a], location[b]);
                    let vb = p.vms()[b];
                    if sa == sb
                        || !hosts[sa].ledger.fits_replacing(&vb, &va)
                        || !hosts[sb].ledger.fits_replacing(&va, &vb)
                    {
                        continue;
                    }
                    reuse.swap(&mut hosts, &va, sa, &vb, sb);
                    location.swap(a, b);
                }
                moves += 1;
                for (j, vm) in p.vms().iter().enumerate() {
                    for (s, host) in hosts.iter().enumerate() {
                        let floor = reuse.floors[s * vms + j];
                        if !floor.is_nan() {
                            let fresh = round_down(host.ledger.incremental_cost(vm));
                            assert_eq!(floor.to_bits(), fresh.to_bits(), "seed {seed}: floor vm{j} srv{s}");
                        }
                        if let Some(verdict) = reuse.verdicts[s * vms + j] {
                            assert_eq!(verdict, host.fits(vm), "seed {seed}: verdict vm{j} srv{s}");
                        }
                    }
                    let removal = reuse.removals[j];
                    if !removal.is_nan() {
                        let fresh = hosts[location[j]].ledger.decremental_cost(vm);
                        assert_eq!(removal.to_bits(), fresh.to_bits(), "seed {seed}: removal vm{j}");
                    }
                }
            }
            assert_eq!(moves, 300, "seed {seed}: too few feasible moves");
        }
    }

    #[test]
    fn ordered_targets_never_worsen() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(5);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let refined = LocalSearch::new()
            .with_ordered_targets()
            .refine(&base)
            .unwrap();
        assert!(refined.audit().is_ok());
        assert!(refined.total_cost() <= base.total_cost() + 1e-9);
    }

    #[test]
    fn traced_moves_replay_to_the_same_result() {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(6);
        let base = crate::RoundRobin::new().allocate(&p, &mut rng).unwrap();
        let (refined, moves) = trajectory(LocalSearch::new(), &base);
        assert!(!moves.is_empty(), "round-robin start should leave work");
        let mut placement: Vec<Option<ServerId>> = base.placement().to_vec();
        for m in &moves {
            match *m {
                SearchMove::Relocate { vm, from, to, delta } => {
                    assert_eq!(placement[vm.index()], Some(from));
                    assert!(delta < -1e-9);
                    placement[vm.index()] = Some(to);
                }
                SearchMove::Swap {
                    a,
                    b,
                    server_a,
                    server_b,
                    delta,
                } => {
                    assert_eq!(placement[a.index()], Some(server_a));
                    assert_eq!(placement[b.index()], Some(server_b));
                    assert!(delta < -1e-9);
                    placement[a.index()] = Some(server_b);
                    placement[b.index()] = Some(server_a);
                }
            }
        }
        assert_eq!(placement.as_slice(), refined.placement());
    }
}

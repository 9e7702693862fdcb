//! The candidate index behind every Eq. 7 argmin.
//!
//! MIEC, offline or online, places each VM on the feasible server with
//! the least incremental Eq. 17 cost, scanning servers in ascending id
//! order with a strict `<` (lowest id wins exact ties). Most of a large
//! fleet cannot win that scan on its own merits: a server that prices
//! every arrival exactly like a *pristine* (never used) server of its
//! spec class only matters through the lowest id of such twins, which is
//! the one the strict `<` would keep anyway. [`CandidateIndex`] keeps
//! the fleet split three ways:
//!
//! * **active** — servers that may price differently from a pristine
//!   twin (they host pieces a new arrival can interact with);
//! * **standby**, per spec class — pristine servers, or servers whose
//!   history no longer affects any later price; the lowest id of each
//!   class stands in for the whole class;
//! * **down** — servers out of the fleet until they come back up.
//!
//! A decision visits `active ∪ {lowest standby id per class}` in
//! ascending id order through [`argmin`], the one Eq. 7 argmin kernel.
//! Because the visit order is the full scan's order restricted to the
//! visited set, the winner is that of the full left-to-right scan, and
//! the skipped twins are counted as `pruned`. The kernel also passes
//! over a visited server whose floor (a bound its delta cannot round
//! below, [`ServerLedger::insertion_floor`]) already meets the running
//! best, counting it as `floored` — so `candidates + unfit + floored +
//! pruned` is the number of up servers, as `candidates + unfit` is for
//! the unpruned, unfloored scan.
//!
//! Every engine owns its index through a [`Fleet`](crate::Fleet), whose
//! one scan, [`Fleet::scan`](crate::Fleet::scan), wires the index, the
//! floor, the fit rows below and the cold rule.
//!
//! ## Fit rows
//!
//! The active set is one id-sorted array of compact entries: each active
//! server's id, its spec class and its [`FitRow`]. A row holds the usage
//! the server's profile holds over the breakpoint window around the last
//! start a [`Fleet`](crate::Fleet) scan asked about, and `tail`, the
//! start of its last busy segment, read at the same refresh. With the
//! class's `P¹` and capacity, built once per index, a row decides both
//! skips of a scan without touching the ledger: the run-cost floor is
//! `P¹ · (cpu · len)` unless `tail` lies after the start, exactly
//! [`ServerLedger::insertion_floor`]; and `row.usage + demand` over the
//! class capacity turns the server away exactly where
//! [`UsageProfile::fits`](esvm_simcore::UsageProfile::fits) would,
//! since that is the first test `fits` makes. A row is born stale when a
//! server becomes active, goes stale when an active server hosts or
//! loses a piece, which are the only points its usage or its tail moves,
//! and goes with the server's entry (a seal, a demotion, an outage).
//! Class representatives have no row.
//!
//! ## The cold rule
//!
//! The [`Fleet`](crate::Fleet) of every engine — offline MIEC, the
//! chaos replay and the online engine — moves a server to standby by one
//! rule. Each engine's decision clock `t` never decreases. Let `e` be
//! the last busy end of a used server. When `t − e − 1 ≥ g*`, where `g*` is the
//! smallest gap with `P_idle · g* ≥ α` (the break-even time `α/P_idle`
//! of Albers & Quedenfeld), the interior gap a new arrival opens costs
//! `min(P_idle · g, α) = α`, so the server's
//! [`incremental_cost`](ServerLedger::incremental_cost) is
//! `run + idle + α + 0.0` against its pristine twin's
//! `run + idle + 0.0 + α` — bit-identical — and `fits` agrees because no
//! hosted piece reaches `t`. Such a server is *cold*: [`ColdRule`]
//! demotes it to standby before the decision and it stays
//! interchangeable with its twins until it hosts again. MIEC and the
//! chaos replay keep the cold server's history; the online engine
//! *seals* it (moves its cost into a retired total and resets the
//! ledger), which prices every later arrival the same way. `g*` is a
//! spec class's, found once per class when the index is built; a fleet
//! priced with `α = 0` (the `miec-noalpha` ablation) has `g* = 1`. (The
//! strict `<` of [`ServerSpec::switches_off_for_gap`] would miss the
//! exact break-even gap, so `g*` is found with `>=` by binary search.)
//!
//! [`ServerSpec::switches_off_for_gap`]: esvm_simcore::ServerSpec::switches_off_for_gap

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use esvm_obs::{DecisionKind, ExplainRecord};
use esvm_simcore::{Resources, ServerId, ServerLedger, ServerSpec, TimeUnit};

/// Where one server sits in a [`CandidateIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Active,
    Standby,
    Down,
}

/// An active server's cached usage window and busy tail (see the
/// [module docs](self#fit-rows)): `usage` is what its profile holds over
/// `[from, until)`, and `tail` the start of its last busy segment, or 0
/// for an empty ledger, which starts after no piece, as in
/// [`ServerLedger::insertion_floor`]. An empty window is stale.
#[derive(Debug, Clone, Copy)]
struct FitRow {
    from: TimeUnit,
    until: TimeUnit,
    usage: Resources,
    tail: TimeUnit,
}

impl FitRow {
    /// A row whose window holds no start.
    const STALE: Self = Self {
        from: 1,
        until: 0,
        usage: Resources::ZERO,
        tail: 0,
    };
}

/// One active server of a [`CandidateIndex`]: its id, its spec class and
/// its fit row.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    id: u32,
    class: u32,
    row: Cell<FitRow>,
}

impl Entry {
    /// The row for a piece that starts at `t`: the cached one while its
    /// window holds `t`, else one refreshed from the server's ledger with
    /// one search of its usage profile.
    #[inline]
    fn row(&self, ledgers: &[ServerLedger], t: TimeUnit) -> FitRow {
        let row = self.row.get();
        if row.from <= t && t < row.until {
            return row;
        }
        let ledger = &ledgers[self.id as usize];
        let (from, until, usage) = ledger.usage().piece_at(t);
        let tail = ledger.segments().last_start().unwrap_or(0);
        let row = FitRow {
            from,
            until,
            usage,
            tail,
        };
        self.row.set(row);
        row
    }
}

/// The active / per-class standby / down partition of a fleet that
/// every Eq. 7 argmin scans. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Spec class of each server (see [`crate::classes`]).
    class_of: Vec<usize>,
    /// `P¹`, the capacity and `g*` ([`break_even_gap`]) of each spec
    /// class. A class's members compare equal in all three (module docs
    /// of `classes`), so these are every member's bits.
    class_terms: Vec<(f64, Resources, Option<u32>)>,
    slot: Vec<Slot>,
    /// Servers that may price differently from a pristine twin, one
    /// entry each, ascending id.
    active: Vec<Entry>,
    /// Standby servers per spec class, ascending id.
    standby: Vec<BTreeSet<u32>>,
    /// The lowest standby id of every class with a standby member, in
    /// one ascending list so a decision merges two ascending sequences.
    /// At most one entry per class, so a sorted `Vec` beats a tree.
    reps: Vec<u32>,
    /// `Σ_c (|standby_c| − 1)` over classes with a standby member: the
    /// twins the class representatives stand in for.
    pruned: u64,
}

impl CandidateIndex {
    /// A fleet with every server up and on standby (pristine).
    /// Bulk-loaded from the ascending per-class id lists.
    pub fn new(servers: &[ServerSpec]) -> Self {
        let classes = crate::classes::spec_classes(servers);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); classes.count];
        for (i, &class) in classes.class_of.iter().enumerate() {
            members[class].push(i as u32);
        }
        let mut reps: Vec<u32> = members
            .iter()
            .filter_map(|ids| ids.first().copied())
            .collect();
        reps.sort_unstable();
        let class_terms = members
            .iter()
            .map(|ids| {
                let spec = &servers[ids[0] as usize];
                (spec.power_per_cpu_unit(), spec.capacity(), break_even_gap(spec))
            })
            .collect();
        Self {
            class_of: classes.class_of,
            class_terms,
            slot: vec![Slot::Standby; servers.len()],
            active: Vec::new(),
            standby: members.into_iter().map(BTreeSet::from_iter).collect(),
            reps,
            pruned: (servers.len() - classes.count) as u64,
        }
    }

    /// Number of servers in the fleet.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Number of spec classes.
    pub fn class_count(&self) -> usize {
        self.standby.len()
    }

    /// The spec class of `server`.
    ///
    /// # Panics
    ///
    /// If `server` is outside the fleet.
    pub fn class_of(&self, server: ServerId) -> usize {
        self.class_of[server.index()]
    }

    /// Active servers, ascending id.
    pub fn active(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.active.iter().map(|e| ServerId(e.id))
    }

    /// Standby servers of `class`, ascending id; the first one is the
    /// class representative.
    pub fn standby(&self, class: usize) -> impl Iterator<Item = ServerId> + '_ {
        self.standby[class].iter().map(|&i| ServerId(i))
    }

    /// Whether `server` is active. `false` outside the fleet.
    pub fn is_active(&self, server: ServerId) -> bool {
        self.slot.get(server.index()) == Some(&Slot::Active)
    }

    /// Whether `server` is on standby. `false` outside the fleet.
    pub fn is_standby(&self, server: ServerId) -> bool {
        self.slot.get(server.index()) == Some(&Slot::Standby)
    }

    /// Whether `server` is down. `false` outside the fleet.
    pub fn is_down(&self, server: ServerId) -> bool {
        self.slot.get(server.index()) == Some(&Slot::Down)
    }

    /// The standby twins a decision skips because a lower-id class
    /// representative stands in for them.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// The servers a decision visits — active servers with their entries
    /// and the class representatives without — in ascending id order.
    /// Allocation-free.
    pub(crate) fn candidates(&self) -> Candidates<'_> {
        let (mut active, mut reps) = (self.active.iter(), self.reps.iter());
        Candidates {
            next_active: head_entry(&mut active),
            next_rep: head(&mut reps),
            active,
            reps,
        }
    }

    /// The run-cost floor of a piece that starts at `t` on the active
    /// server `e`, `cpu_len` being the piece's `cpu · len`: the product
    /// and the guard of [`ServerLedger::insertion_floor`], read from
    /// `e`'s class and row.
    #[inline]
    pub(crate) fn floor(
        &self,
        e: &Entry,
        ledgers: &[ServerLedger],
        t: TimeUnit,
        cpu_len: f64,
    ) -> Option<f64> {
        (e.row(ledgers, t).tail <= t).then(|| self.class_terms[e.class as usize].0 * cpu_len)
    }

    /// Whether `demand` from `t` on is over the active server `e`'s
    /// capacity at `t`, the first test of [`ServerLedger::fits`], read
    /// from `e`'s class and row.
    #[inline]
    pub(crate) fn rejects(
        &self,
        e: &Entry,
        ledgers: &[ServerLedger],
        t: TimeUnit,
        demand: Resources,
    ) -> bool {
        let capacity = self.class_terms[e.class as usize].1;
        !(e.row(ledgers, t).usage + demand).fits_within(capacity)
    }

    /// Moves a standby server to the active set with a stale fit row.
    /// An active server is about to host: its row goes stale. No-op for
    /// a down server.
    pub(crate) fn activate(&mut self, i: u32) {
        match self.slot[i as usize] {
            Slot::Standby => {
                self.remove_standby(i);
                self.insert_active(i);
            }
            Slot::Active => self.invalidate(i),
            Slot::Down => {}
        }
    }

    /// Marks the fit row of an active server stale (no-op otherwise).
    /// Needed wherever its usage falls and it stays active.
    pub(crate) fn invalidate(&self, i: u32) {
        if let Ok(at) = self.position(i) {
            self.active[at].row.set(FitRow::STALE);
        }
    }

    /// Moves an active server to its class's standby set, dropping its
    /// entry (no-op otherwise).
    pub(crate) fn deactivate(&mut self, i: u32) {
        if self.remove_active(i) {
            self.insert_standby(i);
        }
    }

    /// Takes a server out of every scan until [`CandidateIndex::set_up`].
    pub(crate) fn set_down(&mut self, i: u32) {
        match self.slot[i as usize] {
            Slot::Active => {
                self.remove_active(i);
            }
            Slot::Standby => self.remove_standby(i),
            Slot::Down => return,
        }
        self.slot[i as usize] = Slot::Down;
    }

    /// Returns a down server to the scans: active with a stale fit row
    /// when it still hosts pieces, standby otherwise. No-op for an up
    /// server.
    pub(crate) fn set_up(&mut self, i: u32, hosting: bool) {
        if self.slot[i as usize] != Slot::Down {
            return;
        }
        if hosting {
            self.insert_active(i);
        } else {
            self.insert_standby(i);
        }
    }

    /// Where `i`'s entry is, or would go, in the active array.
    fn position(&self, i: u32) -> Result<usize, usize> {
        self.active.binary_search_by_key(&i, |e| e.id)
    }

    /// Inserts a stale entry for the server `i`, which has none, moving
    /// the entries above it up.
    fn insert_active(&mut self, i: u32) {
        let at = self.active.partition_point(|e| e.id < i);
        let entry = Entry {
            id: i,
            class: self.class_of[i as usize] as u32,
            row: Cell::new(FitRow::STALE),
        };
        self.active.insert(at, entry);
        self.slot[i as usize] = Slot::Active;
    }

    /// Drops `i`'s entry, moving the entries above it down; `false` when
    /// it has none.
    fn remove_active(&mut self, i: u32) -> bool {
        let found = self.position(i);
        if let Ok(at) = found {
            self.active.remove(at);
        }
        found.is_ok()
    }

    fn insert_standby(&mut self, i: u32) {
        let class = &mut self.standby[self.class_of[i as usize]];
        match class.first().copied() {
            None => insert_sorted(&mut self.reps, i),
            Some(rep) => {
                self.pruned += 1;
                if i < rep {
                    remove_sorted(&mut self.reps, rep);
                    insert_sorted(&mut self.reps, i);
                }
            }
        }
        class.insert(i);
        self.slot[i as usize] = Slot::Standby;
    }

    fn remove_standby(&mut self, i: u32) {
        let class = &mut self.standby[self.class_of[i as usize]];
        class.remove(&i);
        match class.first().copied() {
            None => remove_sorted(&mut self.reps, i),
            Some(next) => {
                self.pruned -= 1;
                if i < next {
                    remove_sorted(&mut self.reps, i);
                    insert_sorted(&mut self.reps, next);
                }
            }
        }
    }
}

#[cfg(test)]
impl CandidateIndex {
    /// The busy tail in the row of the active server `i` for a piece
    /// that starts at `t`, refreshed as a scan would refresh it; `None`
    /// when `i` is not active.
    pub(crate) fn tail(&self, i: u32, ledgers: &[ServerLedger], t: TimeUnit) -> Option<TimeUnit> {
        let at = self.position(i).ok()?;
        Some(self.active[at].row(ledgers, t).tail)
    }
}

fn insert_sorted(ids: &mut Vec<u32>, i: u32) {
    let at = ids.partition_point(|&x| x < i);
    ids.insert(at, i);
}

fn remove_sorted(ids: &mut Vec<u32>, i: u32) {
    let at = ids.partition_point(|&x| x < i);
    ids.remove(at);
}

/// One server a decision visits: its id, and its entry when it is
/// active.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'a> {
    pub(crate) id: u32,
    pub(crate) entry: Option<&'a Entry>,
}

impl From<Candidate<'_>> for u32 {
    #[inline]
    fn from(c: Candidate<'_>) -> u32 {
        c.id
    }
}

/// Ascending merge of the active entries and the class representatives
/// (disjoint, since active and standby are). The next id of each side
/// is cached, widened so that `u64::MAX` marks an exhausted side; a
/// step is then one comparison.
pub(crate) struct Candidates<'a> {
    active: std::slice::Iter<'a, Entry>,
    reps: std::slice::Iter<'a, u32>,
    next_active: (u64, Option<&'a Entry>),
    next_rep: u64,
}

/// The next id of `ids`, or `u64::MAX` once it is exhausted.
#[inline]
fn head<'a>(mut ids: impl Iterator<Item = &'a u32>) -> u64 {
    ids.next().map_or(u64::MAX, |&i| u64::from(i))
}

/// [`head`] of the active entries, with the entry.
#[inline]
fn head_entry<'a>(active: &mut std::slice::Iter<'a, Entry>) -> (u64, Option<&'a Entry>) {
    active
        .next()
        .map_or((u64::MAX, None), |e| (u64::from(e.id), Some(e)))
}

impl<'a> Iterator for Candidates<'a> {
    type Item = Candidate<'a>;

    #[inline]
    fn next(&mut self) -> Option<Candidate<'a>> {
        if self.next_rep < self.next_active.0 {
            let id = self.next_rep as u32;
            self.next_rep = head(&mut self.reps);
            Some(Candidate { id, entry: None })
        } else if self.next_active.0 < u64::MAX {
            let (id, entry) = self.next_active;
            self.next_active = head_entry(&mut self.active);
            Some(Candidate {
                id: id as u32,
                entry,
            })
        } else {
            None
        }
    }
}

/// Outcome of one [`argmin`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Argmin {
    /// The strict-`<` minimum `(delta, server id)`, if any server fits.
    pub best: Option<(f64, u32)>,
    /// Servers scored (they fit).
    pub candidates: u64,
    /// Servers visited that do not fit.
    pub unfit: u64,
    /// Servers passed over before their fit check because their floor
    /// already met the running best.
    pub floored: u64,
    /// Scored servers whose delta exactly tied the running best.
    pub fp_ties: u64,
}

impl Argmin {
    /// The explain record of this scan deciding about `vm`: its tallies,
    /// the `pruned` twins, and the winner with its delta when it placed.
    pub fn explain(&self, kind: DecisionKind, vm: u64, pruned: u64) -> ExplainRecord {
        ExplainRecord {
            candidates: self.candidates,
            pruned,
            unfit: self.unfit,
            floored: self.floored,
            winner: self.best.map(|(_, s)| u64::from(s)),
            delta_cost: self.best.map_or(0.0, |(delta, _)| delta),
            fp_tie: self.fp_ties > 0,
            ..ExplainRecord::new(kind, vm)
        }
    }
}

/// The Eq. 7 argmin kernel: visits `items` (ascending id), scores each
/// with `score` (`None` = does not fit), and keeps the strict-`<`
/// minimum, so the lowest id wins exact ties. An item is a server id,
/// or anything that converts to one: the [`Fleet`](crate::Fleet) visits
/// its candidates with their entries. The tallies are kept only when
/// `counting` (a compile-time constant at every call site).
///
/// Once a best exists, a server whose `floor` is `Some(f)` with `f >=`
/// the running best is passed over before `score`. `f` must be a lower
/// bound on the server's score as an `f64` comparison: then its score
/// is at least the best, and under ascending ids and the strict `<` a
/// score equal to the best loses to the lower id already held, so the
/// winner is the unfloored scan's. Only the `candidates`, `unfit` and
/// `fp_ties` tallies move, into `floored`.
///
/// [`Fleet::scan`](crate::Fleet::scan), which every engine decides
/// through (offline MIEC, the online engine, the chaos replay), feeds it
/// a [`CandidateIndex`]'s candidates with
/// [`ServerLedger::insertion_floor`], read from each active server's
/// entry. The unpruned MIEC oracles and the consolidator, which scans
/// every server but the one it would empty, pass plain ids and no
/// floor.
///
/// # Example
///
/// ```
/// use esvm_core::argmin;
/// let scores = [Some(3.0), None, Some(1.0), Some(1.0), Some(4.0)];
/// let out = argmin(0u32..5, true, |_| None, |i| scores[i as usize]);
/// assert_eq!(out.best, Some((1.0, 2))); // the lowest id wins the tie
/// assert_eq!((out.candidates, out.unfit, out.fp_ties), (4, 1, 1));
/// // A floor of 1.0 under servers 3 and 4: neither can beat server 2.
/// let out = argmin(0u32..5, true, |i| (i >= 3).then_some(1.0), |i| scores[i as usize]);
/// assert_eq!(out.best, Some((1.0, 2)));
/// assert_eq!((out.candidates, out.unfit, out.floored, out.fp_ties), (2, 1, 2, 0));
/// ```
#[inline]
pub fn argmin<I: Copy + Into<u32>>(
    items: impl Iterator<Item = I>,
    counting: bool,
    mut floor: impl FnMut(I) -> Option<f64>,
    mut score: impl FnMut(I) -> Option<f64>,
) -> Argmin {
    let mut out = Argmin::default();
    // Internal iteration, so an adapter such as the consolidator's
    // chained id ranges runs its own fold rather than a nested `next()`
    // loop.
    items.for_each(|i| {
        if let Some((best, _)) = out.best {
            if floor(i).is_some_and(|f| f >= best) {
                if counting {
                    out.floored += 1;
                }
                return;
            }
        }
        let Some(delta) = score(i) else {
            if counting {
                out.unfit += 1;
            }
            return;
        };
        if counting {
            out.candidates += 1;
            if out.best.is_some_and(|(cost, _)| delta == cost) {
                out.fp_ties += 1;
            }
        }
        if out.best.is_none_or(|(cost, _)| delta < cost) {
            out.best = Some((delta, i.into()));
        }
    });
    out
}

/// The smallest gap `g ≥ 1` with `spec.idle_cost(g) >= α`: from that
/// gap on, idling through costs at least a switch-off/on, so a new
/// interior gap is priced `α` exactly. `None` when even `u32::MAX`
/// falls short (for example `P_idle = 0` with `α > 0`) — no reachable
/// gap is that long. Binary search over the monotone predicate; no
/// float division.
pub(crate) fn break_even_gap(spec: &ServerSpec) -> Option<u32> {
    let cold = |g: u32| spec.idle_cost(u64::from(g)) >= spec.transition_cost();
    if !cold(u32::MAX) {
        return None;
    }
    let (mut lo, mut hi) = (1u32, u32::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cold(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// The cold rule of the [`Fleet`](crate::Fleet) (see the [module
/// docs](self)): a min-heap of the times at which used servers turn
/// cold.
#[derive(Debug, Clone)]
pub(crate) struct ColdRule {
    /// The time `e + 1 + g*` each server turns cold at; `u64::MAX` when
    /// it has no pending demotion.
    due: Vec<u64>,
    /// `(due, server)`; entries whose due time moved on are stale.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ColdRule {
    /// A rule over `index`'s servers with no demotion pending. Each
    /// server's `g*` is its spec class's, from the index.
    pub(crate) fn new(index: &CandidateIndex) -> Self {
        Self {
            due: vec![u64::MAX; index.len()],
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules the demotion of `server` after its pieces on `ledger`
    /// changed: it turns cold at `e + 1 + g*`, `e` being its last busy
    /// end. An empty ledger keeps its old due time, which is then late
    /// and harmless.
    pub(crate) fn reschedule(
        &mut self,
        index: &CandidateIndex,
        server: u32,
        ledger: &ServerLedger,
    ) {
        let (Some(gap), Some(span)) = (
            index.class_terms[index.class_of[server as usize]].2,
            ledger.segments().span(),
        ) else {
            return;
        };
        let due = u64::from(span.end()) + 1 + u64::from(gap);
        if due != self.due[server as usize] {
            self.due[server as usize] = due;
            self.heap.push(Reverse((due, server)));
        }
    }

    /// Demotes every server that is cold at clock `t` to standby and
    /// hands it to `cold` — down servers too, whose slot stays down.
    pub(crate) fn demote_until(
        &mut self,
        t: u32,
        index: &mut CandidateIndex,
        mut cold: impl FnMut(u32),
    ) {
        while let Some(&Reverse((due, server))) = self.heap.peek() {
            if due > u64::from(t) {
                break;
            }
            self.heap.pop();
            if self.due[server as usize] == due {
                self.due[server as usize] = u64::MAX;
                index.deactivate(server);
                cold(server);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::{Interval, PowerModel, Resources, Vm};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn spec(id: u32, p_idle: f64, alpha: f64) -> ServerSpec {
        ServerSpec::new(
            id,
            Resources::new(8.0, 16.0),
            PowerModel::new(p_idle, p_idle.max(1.0) * 2.0),
            alpha,
        )
    }

    /// The ids a decision visits, in order.
    fn visited(index: &CandidateIndex) -> Vec<u32> {
        index.candidates().map(u32::from).collect()
    }

    /// Checks the partition and the running `pruned` count against a
    /// recount.
    fn check(index: &CandidateIndex) {
        let mut standby = 0;
        let mut pruned = 0;
        for class in 0..index.class_count() {
            let n = index.standby(class).count();
            standby += n;
            pruned += n.saturating_sub(1) as u64;
            assert!(index.standby(class).all(|s| index.is_standby(s)));
        }
        let down = (0..index.len() as u32)
            .filter(|&i| index.is_down(ServerId(i)))
            .count();
        assert_eq!(index.active().count() + standby + down, index.len());
        assert!(index.active().all(|s| index.is_active(s)));
        assert_eq!(index.pruned(), pruned);
        let ids = visited(index);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        // Active servers carry an entry of their class, class
        // representatives none.
        assert!(index.candidates().all(|c| {
            c.entry.is_some() == index.is_active(ServerId(c.id))
                && c.entry.is_none_or(|e| {
                    e.id == c.id && e.class as usize == index.class_of(ServerId(c.id))
                })
        }));
        assert_eq!(
            ids.len(),
            index.active().count()
                + (0..index.class_count())
                    .filter(|&c| index.standby(c).next().is_some())
                    .count()
        );
    }

    #[test]
    fn index_keeps_the_partition_and_the_lowest_representative() {
        // Two classes interleaved by id.
        let fleet: Vec<ServerSpec> = (0..8)
            .map(|i| spec(i, if i % 2 == 0 { 100.0 } else { 50.0 }, 10.0))
            .collect();
        let mut index = CandidateIndex::new(&fleet);
        check(&index);
        assert_eq!(visited(&index), vec![0, 1]);
        assert_eq!(index.pruned(), 6);
        index.activate(0);
        check(&index);
        assert_eq!(visited(&index), vec![0, 1, 2]);
        index.set_down(2);
        index.set_down(1);
        check(&index);
        assert_eq!(visited(&index), vec![0, 3, 4]);
        index.deactivate(0);
        check(&index);
        assert_eq!(visited(&index), vec![0, 3]);
        index.set_up(2, false);
        index.set_up(1, true);
        check(&index);
        assert_eq!(visited(&index), vec![0, 1, 3]);
        // Redundant transitions are no-ops.
        index.set_up(1, false);
        index.deactivate(3);
        index.activate(1);
        check(&index);
    }

    /// Whether `e`'s row holds no start.
    fn stale(e: &Entry) -> bool {
        let row = e.row.get();
        row.from >= row.until
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `activate`, `invalidate`, `deactivate`, `set_down` and
        /// `set_up` sequences against a model: a sorted id set plus
        /// per-class standby sets. Before each step every row is made
        /// fresh, so a row found stale after it was marked by that step.
        #[test]
        fn the_active_array_matches_a_model(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1u32..=24);
            let kinds: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..3)).collect();
            let fleet: Vec<ServerSpec> = (0..n)
                .map(|i| spec(i, [100.0, 50.0, 25.0][kinds[i as usize]], 10.0))
                .collect();
            let mut index = CandidateIndex::new(&fleet);
            let mut active: BTreeSet<u32> = BTreeSet::new();
            let mut standby: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 3];
            for i in 0..n {
                standby[kinds[i as usize]].insert(i);
            }
            let mut down: BTreeSet<u32> = BTreeSet::new();
            for _ in 0..rng.gen_range(1usize..=60) {
                let fresh = FitRow { from: 0, until: TimeUnit::MAX, ..FitRow::STALE };
                index.candidates().filter_map(|c| c.entry).for_each(|e| e.row.set(fresh));
                let i = rng.gen_range(0..n);
                let kind = kinds[i as usize];
                // The server whose row the step must leave stale.
                let mut marked = None;
                match rng.gen_range(0u32..5) {
                    0 => {
                        index.activate(i);
                        if standby[kind].remove(&i) {
                            active.insert(i);
                        }
                        marked = active.contains(&i).then_some(i);
                    }
                    1 => {
                        index.invalidate(i);
                        marked = active.contains(&i).then_some(i);
                    }
                    2 => {
                        index.deactivate(i);
                        if active.remove(&i) {
                            standby[kind].insert(i);
                        }
                    }
                    3 => {
                        index.set_down(i);
                        if active.remove(&i) || standby[kind].remove(&i) {
                            down.insert(i);
                        }
                    }
                    _ => {
                        let hosting = rng.gen_bool(0.5);
                        index.set_up(i, hosting);
                        if down.remove(&i) {
                            if hosting {
                                active.insert(i);
                                marked = Some(i);
                            } else {
                                standby[kind].insert(i);
                            }
                        }
                    }
                }
                check(&index);
                let mut want: Vec<u32> = active.iter().copied().collect();
                want.extend(standby.iter().filter_map(|ids| ids.first().copied()));
                want.sort_unstable();
                prop_assert_eq!(visited(&index), want);
                for c in index.candidates() {
                    prop_assert_eq!(c.entry.is_some(), active.contains(&c.id));
                    if let Some(e) = c.entry {
                        prop_assert_eq!(e.id, c.id);
                        prop_assert_eq!(e.class as usize, index.class_of(ServerId(c.id)));
                        prop_assert_eq!(stale(e), marked == Some(c.id), "row of {}", c.id);
                    }
                }
                for class in 0..index.class_count() {
                    for s in index.standby(class) {
                        prop_assert!(standby[kinds[s.index()]].contains(&s.0));
                    }
                }
            }
        }
    }

    #[test]
    fn argmin_keeps_the_lowest_id_on_ties_and_counts_the_visit() {
        let scores = [Some(3.0), None, Some(2.0), Some(2.0), None, Some(5.0)];
        let out = argmin(0u32..6, true, |_| None, |i| scores[i as usize]);
        assert_eq!(out.best, Some((2.0, 2)));
        assert_eq!(
            (out.candidates, out.unfit, out.floored, out.fp_ties),
            (4, 2, 0, 1)
        );
        let quiet = argmin(0u32..6, false, |_| None, |i| scores[i as usize]);
        assert_eq!(quiet.best, out.best);
        assert_eq!((quiet.candidates, quiet.unfit), (0, 0));
        assert!(argmin(0u32..2, true, |_| None, |_| None).best.is_none());
    }

    #[test]
    fn a_floor_that_meets_the_best_skips_the_fit_check() {
        // Every server floors at 2.0: the first is scored (no best yet),
        // the second too (2.0 < 3.0), and the rest, the unfit one
        // included, meet the best of 2.0 and are passed over unscored.
        let scores = [Some(3.0), Some(2.0), None, Some(2.0), Some(9.0)];
        let mut scored = Vec::new();
        let mut score = |i: u32| {
            scored.push(i);
            scores[i as usize]
        };
        let out = argmin(0u32..5, true, |_| Some(2.0), &mut score);
        assert_eq!(out.best, Some((2.0, 1)));
        assert_eq!(scored, [0, 1]);
        assert_eq!(
            (out.candidates, out.unfit, out.floored, out.fp_ties),
            (2, 0, 3, 0)
        );
        // A floor below the best leaves the scan as it was.
        let low = argmin(0u32..5, true, |_| Some(1.0), |i| scores[i as usize]);
        assert_eq!(low.best, out.best);
        assert_eq!(
            (low.candidates, low.unfit, low.floored, low.fp_ties),
            (4, 1, 0, 1)
        );
    }

    #[test]
    fn break_even_gap_is_the_first_gap_idling_costs_alpha() {
        // α/P_idle = 2.5: idling 3 units (30) beats α = 25 no longer.
        assert_eq!(break_even_gap(&spec(0, 10.0, 25.0)), Some(3));
        // An exact ratio: g* = α/P_idle itself (the strict `<` of
        // `switches_off_for_gap` would say 5).
        assert_eq!(break_even_gap(&spec(0, 10.0, 40.0)), Some(4));
        assert!(!spec(0, 10.0, 40.0).switches_off_for_gap(4));
        // α = 0: every gap is already break-even.
        assert_eq!(break_even_gap(&spec(0, 10.0, 0.0)), Some(1));
        assert_eq!(break_even_gap(&spec(0, 0.0, 0.0)), Some(1));
        // P_idle = 0 with α > 0 never breaks even.
        assert_eq!(break_even_gap(&spec(0, 0.0, 5.0)), None);
        // A ratio beyond u32 never breaks even (and terminates).
        assert_eq!(break_even_gap(&spec(0, 1e-9, 1e3)), None);
        // The largest reachable gap.
        let edge = spec(0, 1.0, f64::from(u32::MAX));
        assert_eq!(break_even_gap(&edge), Some(u32::MAX));
    }

    #[test]
    fn a_gap_of_exactly_break_even_demotes_and_one_less_does_not() {
        let fleet = vec![spec(0, 10.0, 40.0), spec(1, 10.0, 40.0)];
        let gap = break_even_gap(&fleet[0]).unwrap();
        let mut index = CandidateIndex::new(&fleet);
        let mut cold = ColdRule::new(&index);
        let mut ledger = ServerLedger::new(fleet[0]);
        let vm = Vm::new(0, Resources::new(1.0, 1.0), Interval::new(1, 10));
        ledger.host(&vm);
        index.activate(0);
        cold.reschedule(&index, 0, &ledger);
        // Gap t − e − 1 = g* − 1: still active.
        let mut demoted = Vec::new();
        cold.demote_until(10 + gap, &mut index, |s| demoted.push(s));
        assert!(index.is_active(ServerId(0)) && demoted.is_empty());
        // Gap = g*: cold, and then priced like the pristine twin.
        let t = 11 + gap;
        cold.demote_until(t, &mut index, |s| demoted.push(s));
        assert!(index.is_standby(ServerId(0)));
        assert_eq!(demoted, vec![0]);
        let next = Vm::new(1, Resources::new(1.0, 1.0), Interval::new(t, t + 4));
        let twin = ServerLedger::new(fleet[1]);
        assert_eq!(
            ledger.incremental_cost(&next).to_bits(),
            twin.incremental_cost(&next).to_bits()
        );
        // One unit earlier the gap is still cheaper to idle through.
        let early = Vm::new(1, Resources::new(1.0, 1.0), Interval::new(t - 1, t + 4));
        assert!(ledger.incremental_cost(&early) < twin.incremental_cost(&early));
        check(&index);
    }

    #[test]
    fn servers_that_never_break_even_are_never_demoted() {
        let fleet = vec![spec(0, 0.0, 5.0), spec(1, 1e-9, 1e3)];
        let mut index = CandidateIndex::new(&fleet);
        let mut cold = ColdRule::new(&index);
        for i in 0..2u32 {
            let mut ledger = ServerLedger::new(fleet[i as usize]);
            ledger.host(&Vm::new(i, Resources::new(1.0, 1.0), Interval::new(1, 2)));
            index.activate(i);
            cold.reschedule(&index, i, &ledger);
        }
        cold.demote_until(u32::MAX, &mut index, |s| panic!("{s} demoted"));
        assert!(index.is_active(ServerId(0)) && index.is_active(ServerId(1)));
    }
}

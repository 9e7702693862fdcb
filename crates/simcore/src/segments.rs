//! Busy/idle segment algebra.
//!
//! A server running a set of VMs "experiences a sequence of time-segments
//! alternating in running VMs (called busy-segment) and running no VM
//! (called idle-segment)" (Section III, Fig. 1). [`SegmentSet`] maintains
//! the *busy* segments as a canonical set of disjoint, non-adjacent closed
//! intervals; the interior gaps between consecutive busy segments are the
//! idle segments of the paper. Time before the first and after the last
//! busy segment is not an idle segment: the server is simply still in the
//! power-saving state (`y_{i,0} = y_{i,T+1} = 0`).

use crate::search::tail_partition_point;
use crate::{Interval, TimeUnit};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A segment of server time: either busy (≥ 1 VM) or idle (an interior
/// gap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// The server hosts at least one VM throughout the interval.
    Busy(Interval),
    /// Interior gap between two busy segments: the server hosts no VM but
    /// is "booked" between activity periods.
    Idle(Interval),
}

impl Segment {
    /// The underlying interval.
    pub fn interval(&self) -> Interval {
        match *self {
            Segment::Busy(i) | Segment::Idle(i) => i,
        }
    }

    /// Whether this is a busy segment.
    pub fn is_busy(&self) -> bool {
        matches!(self, Segment::Busy(_))
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Segment::Busy(i) => write!(f, "busy{i}"),
            Segment::Idle(i) => write!(f, "idle{i}"),
        }
    }
}

/// How an insertion would change a [`SegmentSet`], without performing it.
///
/// Produced by [`SegmentSet::insertion_delta`]; combined with a server's
/// power parameters this yields the exact change in segment energy cost
/// as pure arithmetic — no clone, no rescan of the resident segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionDelta<M = f64> {
    /// Increase in total busy time (`busy_time` after − before).
    pub busy_added: u64,
    /// Change in the sum of per-gap costs over interior gaps, as priced
    /// by the closure given to [`SegmentSet::insertion_delta`].
    pub gap_cost_delta: M,
    /// Whether the set was empty, i.e. this insertion creates the first
    /// busy segment (the initial switch-on).
    pub first_segment: bool,
    /// The merged segment the insertion would produce.
    pub merged: Interval,
}

/// How a removal would change a [`SegmentSet`], without performing it.
///
/// Produced by [`SegmentSet::removal_delta`] — the mirror of
/// [`InsertionDelta`] for the offline refinement layer: local-search
/// relocates/swaps and migration score "what does taking this interval
/// *off* the server save?" as pure arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemovalDelta<M = f64> {
    /// Decrease in total busy time (`busy_time` before − after).
    pub busy_removed: u64,
    /// Change in the sum of per-gap costs over interior gaps (after −
    /// before), as priced by the closure given to
    /// [`SegmentSet::removal_delta`]. Usually positive (removing busy
    /// time opens or widens gaps) but can be negative when a boundary
    /// segment disappears and its gap with it.
    pub gap_cost_delta: M,
    /// Whether the removal empties the set — the last busy segment is
    /// gone and the initial switch-on charge is refunded.
    pub last_segment: bool,
}

/// Interior gap length between a segment ending at `prev_end` and the
/// next one starting at `next_start` (canonical sets guarantee
/// `next_start ≥ prev_end + 2`).
fn gap_len(prev_end: TimeUnit, next_start: TimeUnit) -> u64 {
    debug_assert!(u64::from(prev_end) + 1 < u64::from(next_start));
    u64::from(next_start) - u64::from(prev_end) - 1
}

/// Output of a gap measure usable with [`SegmentSet::insertion_delta`]
/// and [`SegmentSet::removal_delta`]. The delta walk combines per-gap
/// measure values linearly, so any type with zero / add / sub works:
/// `f64` for a priced delta, or a tuple of `f64`s to collect several
/// measures in a single walk (the ledger's cost-decomposition caches
/// ride along with the priced delta this way, at one walk per edit).
pub trait GapMeasure: Copy {
    /// The additive identity.
    const ZERO: Self;
    /// Componentwise addition.
    #[must_use]
    fn add(self, rhs: Self) -> Self;
    /// Componentwise subtraction.
    #[must_use]
    fn sub(self, rhs: Self) -> Self;
}

impl GapMeasure for f64 {
    const ZERO: Self = 0.0;
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
}

impl GapMeasure for (f64, f64) {
    const ZERO: Self = (0.0, 0.0);
    fn add(self, rhs: Self) -> Self {
        (self.0 + rhs.0, self.1 + rhs.1)
    }
    fn sub(self, rhs: Self) -> Self {
        (self.0 - rhs.0, self.1 - rhs.1)
    }
}

impl GapMeasure for (f64, f64, f64) {
    const ZERO: Self = (0.0, 0.0, 0.0);
    fn add(self, rhs: Self) -> Self {
        (self.0 + rhs.0, self.1 + rhs.1, self.2 + rhs.2)
    }
    fn sub(self, rhs: Self) -> Self {
        (self.0 - rhs.0, self.1 - rhs.1, self.2 - rhs.2)
    }
}

/// A canonical set of disjoint, non-adjacent closed intervals — the busy
/// segments of one server.
///
/// Inserting an interval merges it with every interval it overlaps or
/// touches, so the set always stores the *minimal* number of segments.
/// Segments are stored in a flat start-sorted vector and insertion
/// shifts the tail with a `memmove`. An online ledger is sealed once its
/// server goes cold and is usually short, but an offline one keeps its
/// whole history, tens of thousands of segments on the busiest server
/// of a 100k-VM run. Start-ordered allocation asks about and edits the
/// end of that history, so lookups search from the tail first (see
/// `crate::search`): a query there costs a few probes and a short
/// `memmove`, and one elsewhere a bisection.
///
/// # Example
///
/// ```
/// use esvm_simcore::{Interval, SegmentSet};
/// let mut set = SegmentSet::new();
/// set.insert(Interval::new(1, 5));
/// set.insert(Interval::new(10, 12));
/// set.insert(Interval::new(6, 7)); // adjacent to [1,5] → merges
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.busy_time(), 7 + 3);
/// let gaps: Vec<_> = set.gaps().collect();
/// assert_eq!(gaps, vec![Interval::new(8, 9)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentSet {
    /// `(start, end)` of each merged segment, sorted by start.
    segments: Vec<(TimeUnit, TimeUnit)>,
}

impl SegmentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of merged busy segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the set holds no segment.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total number of busy time units across all segments.
    pub fn busy_time(&self) -> u64 {
        self.segments
            .iter()
            .map(|&(s, e)| Interval::new(s, e).len())
            .sum()
    }

    /// The hull `[first_start, last_end]` of all segments, or `None` when
    /// empty.
    pub fn span(&self) -> Option<Interval> {
        let &(first, _) = self.segments.first()?;
        let &(_, last) = self.segments.last()?;
        Some(Interval::new(first, last))
    }

    /// The start of the latest busy segment, or `None` when empty. `O(1)`.
    pub fn last_start(&self) -> Option<TimeUnit> {
        self.segments.last().map(|&(start, _)| start)
    }

    /// Whether `t` falls inside a busy segment.
    pub fn contains(&self, t: TimeUnit) -> bool {
        let idx = tail_partition_point(&self.segments, |&(s, _)| s <= t);
        idx > 0 && t <= self.segments[idx - 1].1
    }

    /// Indices `[lo, hi)` of the segments `interval` overlaps or touches,
    /// and the hull they would merge into. Both bounds are tail-first
    /// searches; `lo == hi` means the interval lands clear of every
    /// existing segment.
    fn merge_range(&self, interval: Interval) -> (usize, usize, Interval) {
        let mut start = interval.start();
        let mut end = interval.end();
        // Ends are strictly increasing, so "ends before my start (with no
        // adjacency)" is a sorted prefix; `lo` is the first segment that
        // could reach or touch `start`.
        let lo = tail_partition_point(&self.segments, |&(_, e)| {
            u64::from(e) + 1 < u64::from(start)
        });
        // Starts are sorted, so "begins at or before end + 1" is also a
        // prefix; everything in [lo, hi) merges.
        let hi = tail_partition_point(&self.segments, |&(s, _)| {
            u64::from(s) <= u64::from(end) + 1
        });
        if lo < hi {
            start = start.min(self.segments[lo].0);
            end = end.max(self.segments[hi - 1].1);
        }
        (lo, hi, Interval::new(start, end))
    }

    /// Inserts an interval, merging with all overlapping or adjacent
    /// segments. Returns the merged segment that now covers `interval`.
    pub fn insert(&mut self, interval: Interval) -> Interval {
        let (lo, hi, merged) = self.merge_range(interval);
        if lo == hi {
            self.segments.insert(lo, (merged.start(), merged.end()));
        } else {
            self.segments[lo] = (merged.start(), merged.end());
            self.segments.drain(lo + 1..hi);
        }
        merged
    }

    /// How inserting `interval` would change the set, with interior gaps
    /// priced by `gap_cost` (a length → cost map, e.g.
    /// `ServerSpec::gap_cost`). Probes only the merged segments and their
    /// two outside neighbours — `O(log n + merged)`, no allocation — and
    /// does not mutate the set.
    ///
    /// Together with the run cost of the inserted VM this is the exact
    /// incremental energy cost the MIEC heuristic minimises; see
    /// `ServerLedger::incremental_cost`.
    pub fn insertion_delta<M: GapMeasure>(
        &self,
        interval: Interval,
        gap_cost: impl Fn(u64) -> M,
    ) -> InsertionDelta<M> {
        let (lo, hi, merged) = self.merge_range(interval);
        let absorbed: u64 = self.segments[lo..hi]
            .iter()
            .map(|&(s, e)| Interval::new(s, e).len())
            .sum();
        let mut delta = M::ZERO;
        // Interior gaps between consecutive absorbed segments become busy.
        for w in self.segments[lo..hi].windows(2) {
            delta = delta.sub(gap_cost(gap_len(w[0].1, w[1].0)));
        }
        if lo < hi {
            // The hull may extend past the outermost absorbed segments,
            // shrinking (never closing) the boundary gaps.
            if lo > 0 {
                let left_end = self.segments[lo - 1].1;
                let old = gap_len(left_end, self.segments[lo].0);
                let new = gap_len(left_end, merged.start());
                if new != old {
                    delta = delta.add(gap_cost(new)).sub(gap_cost(old));
                }
            }
            if hi < self.segments.len() {
                let right_start = self.segments[hi].0;
                let old = gap_len(self.segments[hi - 1].1, right_start);
                let new = gap_len(merged.end(), right_start);
                if new != old {
                    delta = delta.add(gap_cost(new)).sub(gap_cost(old));
                }
            }
        } else {
            // Nothing merges: the interval splits an existing gap in two,
            // or opens a new boundary gap at the edge of the span.
            let left = lo.checked_sub(1).map(|i| self.segments[i].1);
            let right = self.segments.get(lo).map(|&(s, _)| s);
            match (left, right) {
                (Some(le), Some(rs)) => {
                    delta = delta
                        .add(gap_cost(gap_len(le, merged.start())))
                        .add(gap_cost(gap_len(merged.end(), rs)))
                        .sub(gap_cost(gap_len(le, rs)));
                }
                (Some(le), None) => delta = delta.add(gap_cost(gap_len(le, merged.start()))),
                (None, Some(rs)) => delta = delta.add(gap_cost(gap_len(merged.end(), rs))),
                (None, None) => {}
            }
        }
        InsertionDelta {
            busy_added: merged.len() - absorbed,
            gap_cost_delta: delta,
            first_segment: self.is_empty(),
            merged,
        }
    }

    /// Indices `[lo, hi)` of the segments `interval` strictly overlaps
    /// (adjacency does not count, unlike [`SegmentSet::merge_range`]).
    fn overlap_range(&self, interval: Interval) -> (usize, usize) {
        let lo = tail_partition_point(&self.segments, |&(_, e)| e < interval.start());
        let hi = tail_partition_point(&self.segments, |&(s, _)| s <= interval.end());
        (lo, hi)
    }

    /// Removes `interval` from the set (set subtraction): every busy time
    /// unit inside `interval` becomes free, splitting or trimming the
    /// segments it overlaps. `O(log n + overlapped)`.
    pub fn remove(&mut self, interval: Interval) {
        let (lo, hi) = self.overlap_range(interval);
        if lo >= hi {
            return;
        }
        let left = (self.segments[lo].0 < interval.start())
            .then(|| (self.segments[lo].0, interval.start() - 1));
        let right = (self.segments[hi - 1].1 > interval.end())
            .then(|| (interval.end() + 1, self.segments[hi - 1].1));
        match (left, right) {
            (Some(l), Some(r)) => {
                self.segments[lo] = l;
                if hi - lo >= 2 {
                    self.segments[lo + 1] = r;
                    self.segments.drain(lo + 2..hi);
                } else {
                    self.segments.insert(lo + 1, r);
                }
            }
            (Some(only), None) | (None, Some(only)) => {
                self.segments[lo] = only;
                self.segments.drain(lo + 1..hi);
            }
            (None, None) => {
                self.segments.drain(lo..hi);
            }
        }
    }

    /// How removing `interval` (set subtraction, as
    /// [`SegmentSet::remove`]) would change the set, with interior gaps
    /// priced by `gap_cost`. The exact mirror of
    /// [`SegmentSet::insertion_delta`]: probes only the overlapped
    /// segments and their two outside neighbours — `O(log n +
    /// overlapped)`, no allocation, no mutation.
    ///
    /// Together with the freed VM's run cost this is the exact
    /// decremental energy cost the local-search and migration layers
    /// maximise; see `ServerLedger::decremental_cost`.
    pub fn removal_delta<M: GapMeasure>(
        &self,
        interval: Interval,
        gap_cost: impl Fn(u64) -> M,
    ) -> RemovalDelta<M> {
        let (lo, hi) = self.overlap_range(interval);
        if lo >= hi {
            return RemovalDelta {
                busy_removed: 0,
                gap_cost_delta: M::ZERO,
                last_segment: false,
            };
        }
        let busy_removed: u64 = self.segments[lo..hi]
            .iter()
            .map(|&(s, e)| {
                Interval::new(s, e)
                    .intersection(interval)
                    .map_or(0, |i| i.len())
            })
            .sum();
        let mut delta = M::ZERO;
        // Interior gaps between consecutive overlapped segments dissolve
        // into the freed region.
        for w in self.segments[lo..hi].windows(2) {
            delta = delta.sub(gap_cost(gap_len(w[0].1, w[1].0)));
        }
        // Surviving remnants of the outermost overlapped segments.
        let left_remnant = self.segments[lo].0 < interval.start();
        let right_remnant = self.segments[hi - 1].1 > interval.end();
        let left_neighbor = lo.checked_sub(1).map(|i| self.segments[i].1);
        let right_neighbor = self.segments.get(hi).map(|&(s, _)| s);
        // The freed region becomes one interior gap iff busy time
        // survives on both sides of it (a remnant or an outside
        // neighbour); otherwise it merges into free boundary time.
        let left_end = if left_remnant {
            Some(interval.start() - 1)
        } else {
            left_neighbor
        };
        let right_start = if right_remnant {
            Some(interval.end() + 1)
        } else {
            right_neighbor
        };
        if let (Some(le), Some(rs)) = (left_end, right_start) {
            delta = delta.add(gap_cost(gap_len(le, rs)));
        }
        // Old boundary gaps next to disappearing segment edges are
        // absorbed (into the new gap above, or into boundary free time).
        if !left_remnant {
            if let Some(le) = left_neighbor {
                delta = delta.sub(gap_cost(gap_len(le, self.segments[lo].0)));
            }
        }
        if !right_remnant {
            if let Some(rs) = right_neighbor {
                delta = delta.sub(gap_cost(gap_len(self.segments[hi - 1].1, rs)));
            }
        }
        RemovalDelta {
            busy_removed,
            gap_cost_delta: delta,
            last_segment: lo == 0
                && hi == self.segments.len()
                && !left_remnant
                && !right_remnant,
        }
    }

    /// The closed time region whose busy/gap structure can change when
    /// `interval` is inserted into or removed from this set: from just
    /// after the nearest segment lying entirely left of `interval`'s
    /// merge hull to just before the nearest segment entirely right of
    /// it. Two edits whose influence regions do not overlap have exactly
    /// additive cost deltas, which is what lets a swap be scored as four
    /// independent deltas in the common case; when the set is empty on
    /// one side the region is unbounded there (the first/last-segment
    /// switch-on charge is global state).
    pub fn influence_region(&self, interval: Interval) -> Interval {
        let (lo, hi, _) = self.merge_range(interval);
        let left = lo
            .checked_sub(1)
            .map_or(TimeUnit::MIN, |i| self.segments[i].1 + 1);
        let right = self
            .segments
            .get(hi)
            .map_or(TimeUnit::MAX, |&(s, _)| s - 1);
        Interval::new(left, right)
    }

    /// Iterates over the busy segments in time order.
    pub fn iter(&self) -> impl Iterator<Item = Interval> + '_ {
        self.segments.iter().map(|&(s, e)| Interval::new(s, e))
    }

    /// Iterates over the interior idle gaps between consecutive busy
    /// segments, in time order. Leading/trailing power-saving time is not
    /// reported (see module docs).
    pub fn gaps(&self) -> impl Iterator<Item = Interval> + '_ {
        self.segments
            .windows(2)
            .map(|w| Interval::new(w[0].1 + 1, w[1].0 - 1))
    }

    /// Iterates over busy and idle segments interleaved in time order, as
    /// in Fig. 1 of the paper.
    pub fn timeline(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.len().saturating_mul(2));
        let mut prev_end: Option<TimeUnit> = None;
        for seg in self.iter() {
            if let Some(pe) = prev_end {
                out.push(Segment::Idle(Interval::new(pe + 1, seg.start() - 1)));
            }
            out.push(Segment::Busy(seg));
            prev_end = Some(seg.end());
        }
        out
    }

    /// A copy of the set with `interval` inserted. Retained as the
    /// reference oracle for [`SegmentSet::insertion_delta`]-based scoring
    /// (see the simcore property tests); the allocation hot path no
    /// longer calls it.
    pub fn with_inserted(&self, interval: Interval) -> SegmentSet {
        let mut copy = self.clone();
        copy.insert(interval);
        copy
    }

    /// A copy of the set with `interval` removed. Reference oracle for
    /// [`SegmentSet::removal_delta`]-based scoring; the refinement hot
    /// path never calls it.
    pub fn with_removed(&self, interval: Interval) -> SegmentSet {
        let mut copy = self.clone();
        copy.remove(interval);
        copy
    }
}

/// Multiset of closed intervals with per-time-unit coverage counts —
/// how many hosted VMs occupy each time unit of one server.
///
/// [`SegmentSet`] alone cannot *undo* an insertion: two VMs covering the
/// same hour merge into one busy segment, and set subtraction would free
/// time the other VM still needs. `CoverageSet` keeps the counts so that
/// removing a VM frees exactly the time units it covered *exclusively*
/// ([`CoverageSet::exclusive_runs`]), which is what
/// `ServerLedger::decremental_cost` feeds to
/// [`SegmentSet::removal_delta`].
///
/// Stored as a flat breakpoint map `(start, count)` sorted by start, the
/// same layout as `UsageProfile` but with exact integer counts, so
/// `remove` after `insert` restores the vector bit for bit.
///
/// # Example
///
/// ```
/// use esvm_simcore::{CoverageSet, Interval};
/// let mut cov = CoverageSet::new();
/// cov.insert(Interval::new(1, 10));
/// cov.insert(Interval::new(4, 6));
/// assert_eq!(cov.count_at(5), 2);
/// // Removing [1,10] would free only what it covers alone:
/// let runs: Vec<_> = cov.exclusive_runs(Interval::new(1, 10)).collect();
/// assert_eq!(runs, vec![Interval::new(1, 3), Interval::new(7, 10)]);
/// cov.remove(Interval::new(4, 6));
/// cov.remove(Interval::new(1, 10));
/// assert!(cov.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageSet {
    /// `(start, count)` breakpoints: the coverage count is `count` from
    /// `start` until the next breakpoint (0 before the first). Counts of
    /// adjacent breakpoints always differ, and no leading zero-count
    /// breakpoints are kept, so the representation is canonical.
    breakpoints: Vec<(TimeUnit, u32)>,
}

impl CoverageSet {
    /// Creates an empty coverage map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no time unit is covered.
    pub fn is_empty(&self) -> bool {
        self.breakpoints.is_empty()
    }

    /// Number of stored breakpoints (diagnostic).
    pub fn breakpoint_count(&self) -> usize {
        self.breakpoints.len()
    }

    /// Coverage count at time `t`.
    pub fn count_at(&self, t: TimeUnit) -> u32 {
        let idx = tail_partition_point(&self.breakpoints, |&(s, _)| s <= t);
        idx.checked_sub(1).map_or(0, |i| self.breakpoints[i].1)
    }

    /// Ensures a breakpoint exists exactly at `t`, carrying the count in
    /// force there, and returns its index.
    fn ensure_breakpoint(&mut self, t: TimeUnit) -> usize {
        let idx = tail_partition_point(&self.breakpoints, |&(s, _)| s < t);
        if self.breakpoints.get(idx).is_none_or(|&(s, _)| s != t) {
            let carried = idx.checked_sub(1).map_or(0, |i| self.breakpoints[i].1);
            self.breakpoints.insert(idx, (t, carried));
        }
        idx
    }

    /// Drops the breakpoint at index `idx` if it no longer changes the
    /// count (equal to its predecessor's count, or a leading zero).
    fn drop_if_redundant(&mut self, idx: usize) {
        if let Some(&(_, count)) = self.breakpoints.get(idx) {
            let prev = idx.checked_sub(1).map_or(0, |i| self.breakpoints[i].1);
            if count == prev {
                self.breakpoints.remove(idx);
            }
        }
    }

    /// Adds one covering interval: counts inside `interval` increase by
    /// one. `O(log n + touched)`.
    pub fn insert(&mut self, interval: Interval) {
        let lo = self.ensure_breakpoint(interval.start());
        let hi = self.ensure_breakpoint(interval.end() + 1);
        for bp in &mut self.breakpoints[lo..hi] {
            bp.1 += 1;
        }
        // An edited edge can land on its neighbour's count (e.g. raising
        // a count-1 run that follows a count-2 run): canonicalize so the
        // representation stays the unique one for these counts — which is
        // what makes `remove` a bit-for-bit inverse.
        self.drop_if_redundant(hi);
        self.drop_if_redundant(lo);
    }

    /// Removes one covering interval previously [`CoverageSet::insert`]ed:
    /// counts inside `interval` decrease by one. Exactly inverts the
    /// matching insert — the breakpoint vector is restored bit for bit.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if some time unit of `interval` is not
    /// covered.
    pub fn remove(&mut self, interval: Interval) {
        let lo = self.ensure_breakpoint(interval.start());
        let hi = self.ensure_breakpoint(interval.end() + 1);
        for bp in &mut self.breakpoints[lo..hi] {
            debug_assert!(bp.1 > 0, "removing uncovered time at {}", bp.0);
            bp.1 -= 1;
        }
        // Only the two edited edges can have become redundant: interior
        // breakpoints keep their relative differences. Higher index first
        // so the lower one stays valid.
        self.drop_if_redundant(hi);
        self.drop_if_redundant(lo);
    }

    /// Whether every time unit of `interval` is covered at least once.
    pub fn covers(&self, interval: Interval) -> bool {
        let lo = tail_partition_point(&self.breakpoints, |&(s, _)| s <= interval.start());
        if lo == 0 {
            return false;
        }
        let hi = tail_partition_point(&self.breakpoints, |&(s, _)| s <= interval.end());
        self.breakpoints[lo - 1..hi].iter().all(|&(_, c)| c > 0)
    }

    /// Maximal runs inside `interval` where the coverage count is exactly
    /// one — the time a VM with that interval occupies *exclusively*, and
    /// therefore the busy time freed when it leaves. Runs are clipped to
    /// `interval`, disjoint, and in time order. `O(log n + touched)`, no
    /// allocation.
    pub fn exclusive_runs(&self, interval: Interval) -> impl Iterator<Item = Interval> + '_ {
        let lo = tail_partition_point(&self.breakpoints, |&(s, _)| s <= interval.start())
            .saturating_sub(1);
        let mut idx = lo;
        let n = self.breakpoints.len();
        std::iter::from_fn(move || {
            while idx < n {
                let (start, count) = self.breakpoints[idx];
                if start > interval.end() {
                    return None;
                }
                let piece_end = self
                    .breakpoints
                    .get(idx + 1)
                    .map_or(TimeUnit::MAX, |&(s, _)| s - 1);
                idx += 1;
                if count != 1 {
                    continue;
                }
                let s = start.max(interval.start());
                let e = piece_end.min(interval.end());
                if s <= e {
                    return Some(Interval::new(s, e));
                }
            }
            None
        })
    }

    /// The covered time as merged busy segments (reference/diagnostic:
    /// rebuilds a [`SegmentSet`] from the counts).
    pub fn covered_segments(&self) -> SegmentSet {
        let mut set = SegmentSet::new();
        let mut run_start: Option<TimeUnit> = None;
        for (i, &(start, count)) in self.breakpoints.iter().enumerate() {
            if count > 0 && run_start.is_none() {
                run_start = Some(start);
            }
            if count == 0 {
                if let Some(s) = run_start.take() {
                    set.insert(Interval::new(s, start - 1));
                }
            }
            if count > 0 && i + 1 == self.breakpoints.len() {
                // Canonical maps end with a zero-count breakpoint, so
                // this is unreachable; kept defensive.
                set.insert(Interval::new(run_start.take().unwrap(), TimeUnit::MAX));
            }
        }
        set
    }
}

impl FromIterator<Interval> for SegmentSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut set = SegmentSet::new();
        for interval in iter {
            set.insert(interval);
        }
        set
    }
}

impl Extend<Interval> for SegmentSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        for interval in iter {
            self.insert(interval);
        }
    }
}

impl fmt::Display for SegmentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, seg) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{seg}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(intervals: &[(u32, u32)]) -> SegmentSet {
        intervals
            .iter()
            .map(|&(s, e)| Interval::new(s, e))
            .collect()
    }

    #[test]
    fn disjoint_insertions_stay_separate() {
        let s = set(&[(1, 3), (7, 9)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.busy_time(), 6);
        assert_eq!(s.span(), Some(Interval::new(1, 9)));
        assert_eq!(s.last_start(), Some(7));
    }

    #[test]
    fn overlapping_insertions_merge() {
        let s = set(&[(1, 5), (3, 8)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some(Interval::new(1, 8)));
    }

    #[test]
    fn adjacent_insertions_merge() {
        let s = set(&[(1, 5), (6, 8)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.busy_time(), 8);
    }

    #[test]
    fn insertion_bridges_multiple_segments() {
        let mut s = set(&[(1, 2), (5, 6), (9, 10)]);
        let merged = s.insert(Interval::new(3, 8));
        assert_eq!(merged, Interval::new(1, 10));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insertion_contained_in_existing() {
        let mut s = set(&[(1, 10)]);
        s.insert(Interval::new(4, 5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.busy_time(), 10);
    }

    #[test]
    fn gaps_are_interior_only() {
        let s = set(&[(3, 5), (9, 10), (20, 25)]);
        let gaps: Vec<_> = s.gaps().collect();
        assert_eq!(gaps, vec![Interval::new(6, 8), Interval::new(11, 19)]);
    }

    #[test]
    fn empty_and_single_segment_have_no_gaps() {
        assert_eq!(SegmentSet::new().gaps().count(), 0);
        assert_eq!(set(&[(1, 9)]).gaps().count(), 0);
        assert_eq!(SegmentSet::new().span(), None);
        assert_eq!(SegmentSet::new().last_start(), None);
    }

    #[test]
    fn contains_point_queries() {
        let s = set(&[(2, 4), (8, 8)]);
        assert!(s.contains(2) && s.contains(4) && s.contains(8));
        assert!(!s.contains(1) && !s.contains(5) && !s.contains(9));
    }

    #[test]
    fn timeline_alternates() {
        let s = set(&[(1, 2), (5, 6)]);
        let tl = s.timeline();
        assert_eq!(
            tl,
            vec![
                Segment::Busy(Interval::new(1, 2)),
                Segment::Idle(Interval::new(3, 4)),
                Segment::Busy(Interval::new(5, 6)),
            ]
        );
        assert!(tl[0].is_busy() && !tl[1].is_busy());
        assert_eq!(tl[1].interval(), Interval::new(3, 4));
    }

    #[test]
    fn with_inserted_does_not_mutate() {
        let s = set(&[(1, 2)]);
        let t = s.with_inserted(Interval::new(4, 5));
        assert_eq!(s.len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn merge_at_time_zero() {
        let mut s = SegmentSet::new();
        s.insert(Interval::new(0, 0));
        s.insert(Interval::new(1, 2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.span(), Some(Interval::new(0, 2)));
    }

    #[test]
    fn display_lists_segments() {
        let s = set(&[(1, 2), (5, 6)]);
        assert_eq!(s.to_string(), "{[1, 2], [5, 6]}");
    }

    /// Capped gap pricing used by the delta tests: min(len, 4).
    fn price(len: u64) -> f64 {
        (len as f64).min(4.0)
    }

    /// Oracle: the gap-cost sum of a whole set under `price`.
    fn gap_sum(s: &SegmentSet) -> f64 {
        s.gaps().map(|g| price(g.len())).sum()
    }

    fn check_delta(s: &SegmentSet, interval: Interval) {
        let d = s.insertion_delta(interval, price);
        let after = s.with_inserted(interval);
        assert_eq!(
            d.busy_added,
            after.busy_time() - s.busy_time(),
            "busy_added wrong inserting {interval} into {s}"
        );
        assert!(
            (d.gap_cost_delta - (gap_sum(&after) - gap_sum(s))).abs() < 1e-9,
            "gap_cost_delta wrong inserting {interval} into {s}"
        );
        assert_eq!(d.first_segment, s.is_empty());
        assert!(after.iter().any(|seg| seg == d.merged));
    }

    #[test]
    fn insertion_delta_matches_clone_oracle() {
        let s = set(&[(10, 15), (20, 22), (30, 40), (50, 50)]);
        for (a, b) in [
            (1, 3),   // before the span: new boundary gap
            (1, 8),   // touches the first segment from the left
            (12, 14), // contained: no change
            (16, 19), // bridges two segments exactly
            (17, 18), // splits a gap in two
            (23, 29), // bridges with adjacency on both sides
            (16, 45), // absorbs three segments
            (5, 60),  // absorbs everything
            (55, 99), // after the span: new boundary gap
            (51, 51), // adjacent to the last segment
        ] {
            check_delta(&s, Interval::new(a, b));
        }
        check_delta(&SegmentSet::new(), Interval::new(3, 7));
        check_delta(&set(&[(5, 6)]), Interval::new(5, 6));
    }

    #[test]
    fn insertion_delta_does_not_mutate() {
        let s = set(&[(1, 2), (8, 9)]);
        let before = s.clone();
        let _ = s.insertion_delta(Interval::new(4, 5), price);
        assert_eq!(s, before);
    }

    #[test]
    fn insertion_delta_first_segment_flag() {
        let d = SegmentSet::new().insertion_delta(Interval::new(2, 4), price);
        assert!(d.first_segment);
        assert_eq!(d.busy_added, 3);
        assert_eq!(d.gap_cost_delta, 0.0);
        assert_eq!(d.merged, Interval::new(2, 4));
    }

    #[test]
    fn remove_splits_trims_and_clears() {
        let mut s = set(&[(1, 10)]);
        s.remove(Interval::new(4, 5));
        assert_eq!(s, set(&[(1, 3), (6, 10)]));
        s.remove(Interval::new(1, 3));
        assert_eq!(s, set(&[(6, 10)]));
        s.remove(Interval::new(9, 20));
        assert_eq!(s, set(&[(6, 8)]));
        s.remove(Interval::new(6, 8));
        assert!(s.is_empty());
        // No-ops: clear of every segment, or empty set.
        let mut t = set(&[(5, 6)]);
        t.remove(Interval::new(1, 3));
        t.remove(Interval::new(8, 9));
        assert_eq!(t, set(&[(5, 6)]));
    }

    #[test]
    fn remove_spanning_multiple_segments() {
        let mut s = set(&[(1, 4), (8, 12), (20, 25), (30, 31)]);
        s.remove(Interval::new(3, 22));
        assert_eq!(s, set(&[(1, 2), (23, 25), (30, 31)]));
    }

    fn check_removal_delta(s: &SegmentSet, interval: Interval) {
        let d = s.removal_delta(interval, price);
        let after = s.with_removed(interval);
        assert_eq!(
            d.busy_removed,
            s.busy_time() - after.busy_time(),
            "busy_removed wrong removing {interval} from {s}"
        );
        assert!(
            (d.gap_cost_delta - (gap_sum(&after) - gap_sum(s))).abs() < 1e-9,
            "gap_cost_delta wrong removing {interval} from {s}"
        );
        assert_eq!(
            d.last_segment,
            !s.is_empty() && after.is_empty(),
            "last_segment wrong removing {interval} from {s}"
        );
    }

    #[test]
    fn removal_delta_matches_clone_oracle() {
        let s = set(&[(10, 15), (20, 22), (30, 40), (50, 50)]);
        for (a, b) in [
            (1, 3),   // clear of the span: no-op
            (12, 13), // splits the first segment
            (10, 12), // trims a segment's head
            (14, 17), // trims a segment's tail
            (20, 22), // removes a whole interior segment
            (10, 15), // removes the first segment: boundary gap vanishes
            (50, 55), // removes the last segment
            (13, 35), // spans three segments, remnants both sides
            (16, 29), // covers one whole segment between two others
            (5, 60),  // removes everything
            (23, 29), // entirely inside a gap: no-op
        ] {
            check_removal_delta(&s, Interval::new(a, b));
        }
        check_removal_delta(&SegmentSet::new(), Interval::new(3, 7));
        check_removal_delta(&set(&[(5, 6)]), Interval::new(5, 6));
        check_removal_delta(&set(&[(0, 3)]), Interval::new(0, 1));
    }

    #[test]
    fn removal_delta_negates_insertion_delta_for_disjoint_interval() {
        // Inserting an interval that overlaps nothing, then removing it,
        // must be an exact round trip of both deltas.
        let s = set(&[(10, 15), (30, 40)]);
        for (a, b) in [(1, 5), (17, 25), (20, 28), (50, 60), (17, 17)] {
            let x = Interval::new(a, b);
            let ins = s.insertion_delta(x, price);
            let rem = s.with_inserted(x).removal_delta(x, price);
            assert_eq!(ins.busy_added, rem.busy_removed, "{x}");
            assert!(
                (ins.gap_cost_delta + rem.gap_cost_delta).abs() < 1e-12,
                "{x}: {} vs {}",
                ins.gap_cost_delta,
                rem.gap_cost_delta
            );
            assert_eq!(ins.first_segment, rem.last_segment, "{x}");
        }
    }

    #[test]
    fn influence_region_bounds() {
        let s = set(&[(10, 15), (30, 40)]);
        // Between the two segments, merging with neither.
        assert_eq!(
            s.influence_region(Interval::new(20, 22)),
            Interval::new(16, 29)
        );
        // Touching the first segment: region still stops at the second.
        assert_eq!(
            s.influence_region(Interval::new(12, 18)),
            Interval::new(0, 29)
        );
        // Past the last segment: unbounded right.
        assert_eq!(
            s.influence_region(Interval::new(50, 55)),
            Interval::new(41, TimeUnit::MAX)
        );
        // Empty set: everything interacts (switch-on charge is global).
        assert_eq!(
            SegmentSet::new().influence_region(Interval::new(5, 6)),
            Interval::new(0, TimeUnit::MAX)
        );
    }

    #[test]
    fn disjoint_influence_regions_have_additive_deltas() {
        let s = set(&[(10, 15), (30, 40)]);
        let remove = Interval::new(12, 13);
        let insert = Interval::new(50, 60);
        assert!(!s
            .influence_region(remove)
            .overlaps(s.influence_region(insert)));
        let sum = s.removal_delta(remove, price).gap_cost_delta
            + s.insertion_delta(insert, price).gap_cost_delta;
        let mut seq = s.clone();
        seq.remove(remove);
        let true_delta = seq.insertion_delta(insert, price).gap_cost_delta
            + s.removal_delta(remove, price).gap_cost_delta;
        assert!((sum - true_delta).abs() < 1e-12);
        // And the end state matches either order.
        seq.insert(insert);
        let mut other = s.clone();
        other.insert(insert);
        other.remove(remove);
        assert_eq!(seq, other);
    }

    #[test]
    fn coverage_counts_and_exclusive_runs() {
        let mut cov = CoverageSet::new();
        cov.insert(Interval::new(1, 10));
        cov.insert(Interval::new(4, 6));
        cov.insert(Interval::new(6, 12));
        assert_eq!(cov.count_at(0), 0);
        assert_eq!(cov.count_at(1), 1);
        assert_eq!(cov.count_at(5), 2);
        assert_eq!(cov.count_at(6), 3);
        assert_eq!(cov.count_at(11), 1);
        assert_eq!(cov.count_at(13), 0);
        assert!(cov.covers(Interval::new(1, 12)));
        assert!(!cov.covers(Interval::new(0, 3)));
        assert!(!cov.covers(Interval::new(10, 13)));
        // [4,10] is shared with the second and third VM.
        let runs: Vec<_> = cov.exclusive_runs(Interval::new(1, 10)).collect();
        assert_eq!(runs, vec![Interval::new(1, 3)]);
        // Clipping: the exclusive tail [11,12] belongs to the third VM.
        let runs: Vec<_> = cov.exclusive_runs(Interval::new(6, 12)).collect();
        assert_eq!(runs, vec![Interval::new(11, 12)]);
        assert_eq!(cov.covered_segments(), set(&[(1, 12)]));
    }

    #[test]
    fn coverage_remove_exactly_inverts_insert() {
        let mut cov = CoverageSet::new();
        cov.insert(Interval::new(5, 20));
        cov.insert(Interval::new(10, 12));
        let snapshot = cov.clone();
        cov.insert(Interval::new(8, 30));
        assert_ne!(cov, snapshot);
        cov.remove(Interval::new(8, 30));
        assert_eq!(cov, snapshot, "remove must restore the exact breakpoints");
        cov.remove(Interval::new(10, 12));
        cov.remove(Interval::new(5, 20));
        assert!(cov.is_empty());
        assert_eq!(cov.breakpoint_count(), 0);
    }
}

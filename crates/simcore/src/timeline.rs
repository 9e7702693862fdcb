//! Piecewise-constant resource usage over time.
//!
//! [`UsageProfile`] tracks how much CPU and memory of one server is
//! committed at every time unit, supporting the two queries allocation
//! needs:
//!
//! * *capacity check*: does a demand fit **throughout** an interval
//!   (constraints (9)–(10) must hold in every time unit)?
//! * *peak / integral*: peak usage over an interval and the time-integral
//!   of usage (for utilization statistics, Figs. 3 and 8).
//!
//! The profile is a breakpoint map `time → usage`, where an entry at `t`
//! gives the usage from `t` (inclusive) until the next breakpoint
//! (exclusive). Before the first breakpoint the usage is zero.

use crate::resources::EPSILON;
use crate::search::tail_partition_point;
use crate::{Interval, Resources, TimeUnit};
use serde::{Deserialize, Serialize};

/// Piecewise-constant (CPU, memory) usage over discrete time.
///
/// # Example
///
/// ```
/// use esvm_simcore::{Interval, Resources, UsageProfile};
/// let mut p = UsageProfile::new();
/// p.add(Interval::new(1, 10), Resources::new(2.0, 4.0));
/// p.add(Interval::new(5, 20), Resources::new(1.0, 1.0));
/// assert_eq!(p.usage_at(3), Resources::new(2.0, 4.0));
/// assert_eq!(p.usage_at(7), Resources::new(3.0, 5.0));
/// assert_eq!(p.usage_at(15), Resources::new(1.0, 1.0));
/// // The window of breakpoints around a time, and the usage over it.
/// assert_eq!(p.piece_at(7), (5, 11, Resources::new(3.0, 5.0)));
/// assert_eq!(p.piece_at(30), (21, u32::MAX, Resources::ZERO));
/// assert_eq!(p.peak_over(Interval::new(1, 20)), Resources::new(3.0, 5.0));
/// assert!(p.fits(Interval::new(1, 20), Resources::new(1.0, 1.0), Resources::new(4.0, 6.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UsageProfile {
    /// `(time, usage)` pairs sorted by time; each entry is in force from
    /// its time until the next entry. Flat storage keeps the frequent
    /// range scans (`fits`, `peak_over`) on contiguous memory; inserts
    /// shift the tail with a `memmove`. An offline ledger keeps every
    /// breakpoint of its history (85,112 on the busiest server of a
    /// 100k-VM MIEC run), but start-ordered allocation adds and asks
    /// about breakpoints at the end, where the `memmove` is short and
    /// the tail-first search (`crate::search`) answers in a few probes.
    breakpoints: Vec<(TimeUnit, Resources)>,
}

impl UsageProfile {
    /// Creates an empty (all-zero) profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first breakpoint at or after `t`.
    fn lower_bound(&self, t: TimeUnit) -> usize {
        tail_partition_point(&self.breakpoints, |&(t0, _)| t0 < t)
    }

    /// Index just past the last breakpoint at or before `t`.
    fn upper_bound(&self, t: TimeUnit) -> usize {
        tail_partition_point(&self.breakpoints, |&(t0, _)| t0 <= t)
    }

    /// Usage at time unit `t`.
    pub fn usage_at(&self, t: TimeUnit) -> Resources {
        match self.upper_bound(t) {
            0 => Resources::ZERO,
            i => self.breakpoints[i - 1].1,
        }
    }

    /// The breakpoint window that holds `t`, as `(from, until, usage)`:
    /// `usage` is in force over every time unit of `[from, until)`. The
    /// index arithmetic is [`UsageProfile::usage_at`]'s, so while the
    /// profile is unchanged `usage_at(s)` returns this very `usage` for
    /// every `s` in the window. Before the first breakpoint `from` is 0;
    /// after the last one `until` is `TimeUnit::MAX`, so that one unit
    /// lies in no window.
    ///
    /// A cached window rejects a start in it exactly where
    /// [`UsageProfile::fits`] does, since `fits` first tests the usage in
    /// force at the start (see there for when a cache goes stale).
    pub fn piece_at(&self, t: TimeUnit) -> (TimeUnit, TimeUnit, Resources) {
        let i = self.upper_bound(t);
        let (from, usage) = match i {
            0 => (0, Resources::ZERO),
            i => self.breakpoints[i - 1],
        };
        let until = self
            .breakpoints
            .get(i)
            .map_or(TimeUnit::MAX, |&(next, _)| next);
        (from, until, usage)
    }

    /// Ensures a breakpoint exists exactly at `t`, carrying the value that
    /// is in force there.
    fn ensure_breakpoint(&mut self, t: TimeUnit) {
        let i = self.lower_bound(t);
        if self.breakpoints.get(i).is_none_or(|&(t0, _)| t0 != t) {
            let value = if i == 0 {
                Resources::ZERO
            } else {
                self.breakpoints[i - 1].1
            };
            self.breakpoints.insert(i, (t, value));
        }
    }

    /// Adds `demand` to every time unit of `interval`.
    pub fn add(&mut self, interval: Interval, demand: Resources) {
        self.ensure_breakpoint(interval.start());
        if let Some(after) = interval.end().checked_add(1) {
            self.ensure_breakpoint(after);
        }
        let (a, b) = (
            self.lower_bound(interval.start()),
            self.upper_bound(interval.end()),
        );
        for (_, usage) in &mut self.breakpoints[a..b] {
            *usage += demand;
        }
    }

    /// Subtracts `demand` from every time unit of `interval`; the inverse
    /// of [`UsageProfile::add`]. Usage is clamped at zero to absorb
    /// floating-point noise.
    pub fn remove(&mut self, interval: Interval, demand: Resources) {
        self.ensure_breakpoint(interval.start());
        if let Some(after) = interval.end().checked_add(1) {
            self.ensure_breakpoint(after);
        }
        let (a, b) = (
            self.lower_bound(interval.start()),
            self.upper_bound(interval.end()),
        );
        for (_, usage) in &mut self.breakpoints[a..b] {
            *usage = usage.saturating_sub(demand);
        }
    }

    /// Component-wise peak usage over `interval`.
    pub fn peak_over(&self, interval: Interval) -> Resources {
        let mut peak = self.usage_at(interval.start());
        if interval.start() < interval.end() {
            let (a, b) = (
                self.lower_bound(interval.start() + 1),
                self.upper_bound(interval.end()),
            );
            for &(_, u) in &self.breakpoints[a..b] {
                peak = peak.max(u);
            }
        }
        peak
    }

    /// Whether adding `demand` throughout `interval` keeps usage within
    /// `capacity` in **every** time unit (constraints (9)–(10)).
    ///
    /// The first test is the usage in force at the start: when
    /// `usage_at(start) + demand` does not fit, the answer is `false`. A
    /// [`UsageProfile::piece_at`] window cached while the profile is
    /// unchanged holds that very usage for any start inside it, so it
    /// rejects exactly where this does. After an [`add`](Self::add) it
    /// can only under-reject: usage only rose, and rounded addition of a
    /// non-negative demand is monotone. After a
    /// [`remove`](Self::remove) it could reject a demand that fits, so a
    /// cache must be dropped or refreshed whenever usage falls.
    pub fn fits(&self, interval: Interval, demand: Resources, capacity: Resources) -> bool {
        // Check the piece in force at interval start, then every
        // breakpoint inside the interval.
        if !(self.usage_at(interval.start()) + demand).fits_within(capacity) {
            return false;
        }
        if interval.start() == interval.end() {
            return true;
        }
        let (a, b) = (
            self.lower_bound(interval.start() + 1),
            self.upper_bound(interval.end()),
        );
        self.breakpoints[a..b]
            .iter()
            .all(|&(_, u)| (u + demand).fits_within(capacity))
    }

    /// Whether adding `demand` throughout `interval` keeps usage within
    /// `capacity` in every time unit, assuming `freed_demand` (currently
    /// part of this profile) leaves `freed_interval` first.
    ///
    /// This is the swap feasibility check ("does VM b fit here once VM a
    /// is gone?") evaluated in one pass over the breakpoints — the
    /// clone-then-`fits` probe the seed local search used, without the
    /// clone. Within a piece the binding time unit is one *outside*
    /// `freed_interval` (freeing only lowers usage), so each piece is
    /// checked at its dominant value.
    pub fn fits_replacing(
        &self,
        interval: Interval,
        demand: Resources,
        freed_interval: Interval,
        freed_demand: Resources,
        capacity: Resources,
    ) -> bool {
        let mut t = interval.start();
        let mut idx = self.upper_bound(t);
        loop {
            let usage = match idx {
                0 => Resources::ZERO,
                i => self.breakpoints[i - 1].1,
            };
            let piece_end = self
                .breakpoints
                .get(idx)
                .map_or(TimeUnit::MAX, |&(next, _)| next - 1)
                .min(interval.end());
            let freed = if freed_interval.contains(t) && freed_interval.contains(piece_end) {
                freed_demand
            } else {
                Resources::ZERO
            };
            if !(usage + demand).saturating_sub(freed).fits_within(capacity) {
                return false;
            }
            if piece_end >= interval.end() {
                return true;
            }
            t = piece_end + 1;
            idx += 1;
        }
    }

    /// Streams the maximal constant pieces `(interval, usage)` with
    /// non-zero usage, in time order, without materialising them.
    pub fn nonzero_pieces_iter(&self) -> impl Iterator<Item = (Interval, Resources)> + '_ {
        self.breakpoints
            .iter()
            .enumerate()
            .map(move |(i, &(start, usage))| {
                let end = match self.breakpoints.get(i + 1) {
                    Some(&(next, _)) => next - 1,
                    // Trailing piece: zero for every profile built via
                    // `add`, except when an interval reaches
                    // `TimeUnit::MAX` and the closing breakpoint cannot be
                    // represented.
                    None => TimeUnit::MAX,
                };
                (Interval::new(start, end), usage)
            })
            .filter(|(_, usage)| !usage.is_zero())
    }

    /// The non-zero pieces collected into a vector; thin wrapper over
    /// [`UsageProfile::nonzero_pieces_iter`] for callers that need random
    /// access.
    pub fn nonzero_pieces(&self) -> Vec<(Interval, Resources)> {
        self.nonzero_pieces_iter().collect()
    }

    /// Time-integral of usage over all non-zero pieces, together with the
    /// number of non-zero time units. Drives the utilization metric of
    /// Figs. 3 and 8 ("averaging nonzero utilization values").
    pub fn nonzero_integral(&self) -> (u64, Resources) {
        let mut units = 0u64;
        let mut integral = Resources::ZERO;
        for (interval, usage) in self.nonzero_pieces_iter() {
            units += interval.len();
            integral += usage * interval.len() as f64;
        }
        (units, integral)
    }

    /// Time-integral of **CPU** usage over the whole horizon:
    /// `Σ_t Σ_{j on this server} R^CPU_jt`. Multiplied by `P¹_i` this is
    /// the server's total run cost (Eq. 4).
    pub fn cpu_integral(&self) -> f64 {
        self.nonzero_pieces_iter()
            .map(|(interval, usage)| usage.cpu * interval.len() as f64)
            .sum()
    }

    /// Whether the profile is identically zero.
    pub fn is_zero(&self) -> bool {
        self.breakpoints.iter().all(|(_, u)| u.is_zero())
    }

    /// Drops redundant breakpoints (equal consecutive values, leading
    /// zeros). Queries are unaffected; this only compacts storage after
    /// many `add`/`remove` cycles.
    pub fn compact(&mut self) {
        let mut prev = Resources::ZERO;
        self.breakpoints.retain(|&(_, u)| {
            let redundant =
                (u.cpu - prev.cpu).abs() <= EPSILON && (u.mem - prev.mem).abs() <= EPSILON;
            if !redundant {
                prev = u;
            }
            !redundant
        });
    }

    /// Number of stored breakpoints (diagnostic).
    pub fn breakpoint_count(&self) -> usize {
        self.breakpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(cpu: f64, mem: f64) -> Resources {
        Resources::new(cpu, mem)
    }

    #[test]
    fn empty_profile_is_zero_everywhere() {
        let p = UsageProfile::new();
        assert_eq!(p.usage_at(0), Resources::ZERO);
        assert_eq!(p.usage_at(1000), Resources::ZERO);
        assert!(p.is_zero());
        assert!(p.fits(Interval::new(0, 9), res(5.0, 5.0), res(5.0, 5.0)));
    }

    #[test]
    fn add_creates_plateau() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(3, 7), res(2.0, 1.0));
        assert_eq!(p.usage_at(2), Resources::ZERO);
        assert_eq!(p.usage_at(3), res(2.0, 1.0));
        assert_eq!(p.usage_at(7), res(2.0, 1.0));
        assert_eq!(p.usage_at(8), Resources::ZERO);
    }

    #[test]
    fn overlapping_adds_stack() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(1, 10), res(1.0, 1.0));
        p.add(Interval::new(5, 15), res(2.0, 0.5));
        assert_eq!(p.usage_at(4), res(1.0, 1.0));
        assert_eq!(p.usage_at(5), res(3.0, 1.5));
        assert_eq!(p.usage_at(10), res(3.0, 1.5));
        assert_eq!(p.usage_at(11), res(2.0, 0.5));
        assert_eq!(p.usage_at(16), Resources::ZERO);
    }

    #[test]
    fn remove_undoes_add() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(1, 10), res(1.0, 1.0));
        p.add(Interval::new(5, 15), res(2.0, 0.5));
        p.remove(Interval::new(5, 15), res(2.0, 0.5));
        for t in 0..20 {
            let expect = if (1..=10).contains(&t) {
                res(1.0, 1.0)
            } else {
                Resources::ZERO
            };
            assert_eq!(p.usage_at(t), expect, "t={t}");
        }
    }

    #[test]
    fn fits_detects_mid_interval_violation() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(5, 6), res(3.0, 0.0));
        let cap = res(4.0, 10.0);
        // New demand of 2 CPU over [1, 10] collides at t=5..6 only.
        assert!(!p.fits(Interval::new(1, 10), res(2.0, 0.0), cap));
        assert!(p.fits(Interval::new(1, 4), res(2.0, 0.0), cap));
        assert!(p.fits(Interval::new(7, 10), res(2.0, 0.0), cap));
        assert!(p.fits(Interval::new(1, 10), res(1.0, 0.0), cap));
    }

    #[test]
    fn fits_checks_single_unit_interval() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(5, 5), res(3.0, 3.0));
        let cap = res(4.0, 4.0);
        assert!(!p.fits(Interval::new(5, 5), res(2.0, 0.0), cap));
        assert!(p.fits(Interval::new(6, 6), res(2.0, 0.0), cap));
    }

    #[test]
    fn peak_over_ranges() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(1, 3), res(1.0, 4.0));
        p.add(Interval::new(3, 5), res(2.0, 1.0));
        assert_eq!(p.peak_over(Interval::new(0, 10)), res(3.0, 5.0));
        assert_eq!(p.peak_over(Interval::new(4, 10)), res(2.0, 1.0));
        assert_eq!(p.peak_over(Interval::new(6, 10)), Resources::ZERO);
    }

    #[test]
    fn nonzero_pieces_and_integral() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(1, 2), res(1.0, 2.0));
        p.add(Interval::new(5, 5), res(4.0, 4.0));
        let pieces = p.nonzero_pieces();
        assert_eq!(
            pieces,
            vec![
                (Interval::new(1, 2), res(1.0, 2.0)),
                (Interval::new(5, 5), res(4.0, 4.0)),
            ]
        );
        let (units, integral) = p.nonzero_integral();
        assert_eq!(units, 3);
        assert_eq!(integral, res(1.0 * 2.0 + 4.0, 2.0 * 2.0 + 4.0));
        assert!((p.cpu_integral() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn compact_preserves_queries() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(1, 10), res(1.0, 1.0));
        p.add(Interval::new(11, 20), res(1.0, 1.0));
        p.add(Interval::new(3, 4), res(0.5, 0.5));
        p.remove(Interval::new(3, 4), res(0.5, 0.5));
        let before: Vec<_> = (0..25).map(|t| p.usage_at(t)).collect();
        p.compact();
        let after: Vec<_> = (0..25).map(|t| p.usage_at(t)).collect();
        assert_eq!(before, after);
        // [1,10] and [11,20] at equal usage collapse into one piece plus
        // the trailing zero.
        assert_eq!(p.breakpoint_count(), 2);
    }

    #[test]
    fn peak_over_single_unit_interval() {
        let mut p = UsageProfile::new();
        p.add(Interval::new(5, 9), res(2.0, 3.0));
        assert_eq!(p.peak_over(Interval::new(6, 6)), res(2.0, 3.0));
        assert_eq!(p.peak_over(Interval::new(4, 4)), Resources::ZERO);
    }

    #[test]
    fn add_at_max_time_does_not_overflow() {
        let mut p = UsageProfile::new();
        let t = TimeUnit::MAX;
        p.add(Interval::new(t, t), res(1.0, 1.0));
        assert_eq!(p.usage_at(t), res(1.0, 1.0));
        assert_eq!(p.usage_at(t - 1), Resources::ZERO);
    }
}

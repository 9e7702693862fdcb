//! The one search over the ledgers' sorted arrays.
//!
//! Busy segments ([`SegmentSet`](crate::SegmentSet)), coverage counts
//! ([`CoverageSet`](crate::CoverageSet)) and usage breakpoints
//! ([`UsageProfile`](crate::UsageProfile)) are flat start-sorted
//! vectors, and every lookup in them is a partition point. Offline
//! ledgers keep their whole history: the busiest server of a 100k-VM
//! MIEC run holds tens of thousands of entries. MIEC decides in start
//! order, so its fit checks, insertion deltas and hosts, and the audit
//! that walks the placement the same way, ask about the newest time on
//! the server, which lies within a few entries of the end. Bisecting the
//! whole array spends ~16 probes on cache lines far from the answer.
//!
//! [`tail_partition_point`] probes the tail first. The probes are
//! bounded because local search and the consolidator ask about
//! arbitrary times: a search the tail does not answer pays four extra
//! predicate calls before the usual bisection, where a gallop from the
//! end (probing 1, 2, 4, … places back) would pay up to `2 log₂ n`.

/// How far from the end the tail probes look: entries 1, 3, 7 and 15
/// places from the end. Each probe that misses rules out a stride twice
/// as long as the one before.
const TAIL_PROBES: [usize; 4] = [1, 3, 7, 15];

/// Exactly `slice.partition_point(pred)`, found from the tail.
///
/// `pred` must hold on a prefix of `slice` and fail on the rest, as
/// for [`slice::partition_point`]. The entries 1, 3, 7 and 15 places
/// from the end are probed in turn; the first that satisfies `pred`
/// bounds the answer to the stride after it, which is bisected. When
/// all four fail, the prefix before the last probe is bisected.
///
/// Cost in calls to `pred`: at most 4 plus the bisection of a stride of
/// at most 7 entries when the answer lies within 15 entries of the end,
/// and at most 4 plus `⌈log₂ n⌉ + 1` otherwise.
#[inline]
pub(crate) fn tail_partition_point<T>(slice: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let n = slice.len();
    // Every entry at or after `hi` fails `pred`.
    let mut hi = n;
    for back in TAIL_PROBES {
        let Some(at) = n.checked_sub(back) else {
            break;
        };
        if pred(&slice[at]) {
            return at + 1 + slice[at + 1..hi].partition_point(pred);
        }
        hi = at;
    }
    slice[..hi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Predicate calls `partition_point` spends on a slice of `len`
    /// entries, at most.
    fn bisection_bound(len: usize) -> usize {
        if len == 0 {
            0
        } else {
            len.next_power_of_two().trailing_zeros() as usize + 1
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On sorted slices of 0–300 entries with duplicates, the
        /// search returns `partition_point` at every threshold, for a
        /// strict and a non-strict comparison.
        #[test]
        fn equals_partition_point_at_every_threshold(
            mut keys in proptest::collection::vec(0u32..120, 0..300),
        ) {
            keys.sort_unstable();
            for threshold in 0..=121 {
                prop_assert_eq!(
                    tail_partition_point(&keys, |&k| k < threshold),
                    keys.partition_point(|&k| k < threshold),
                    "k < {}", threshold
                );
                prop_assert_eq!(
                    tail_partition_point(&keys, |&k| k <= threshold),
                    keys.partition_point(|&k| k <= threshold),
                    "k <= {}", threshold
                );
            }
        }
    }

    #[test]
    fn probes_are_bounded() {
        for n in 0..=300usize {
            let keys: Vec<usize> = (0..n).collect();
            for answer in 0..=n {
                let calls = Cell::new(0usize);
                let found = tail_partition_point(&keys, |&k| {
                    calls.set(calls.get() + 1);
                    k < answer
                });
                assert_eq!(found, answer, "n = {n}");
                // The stride a tail answer falls in: past the last
                // entry, or after the probe 3, 7 or 15 places back.
                let bound = match n - answer {
                    0 => 1,
                    1..=2 => 2 + bisection_bound(1),
                    3..=6 => 3 + bisection_bound(3),
                    7..=14 => 4 + bisection_bound(7),
                    _ => 4 + bisection_bound(n),
                };
                assert!(
                    calls.get() <= bound,
                    "n = {n}, answer {answer}: {} calls, bound {bound}",
                    calls.get()
                );
            }
        }
    }
}

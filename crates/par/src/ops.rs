//! The seed fan-out.
//!
//! [`par_map`] hands items to worker threads through one atomic cursor,
//! so a slow item never stalls the others, and writes each result into
//! its input slot: the output is the sequential map's for every thread
//! count, whichever thread ran which item.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// results in input order.
///
/// `f` receives `(index, &item)` so callers can derive per-item state
/// (an RNG stream, a seed) from the position rather than the thread.
/// With one thread (or `0`, or at most one item) this is a plain
/// in-order loop on the calling thread. A panic in `f` propagates out
/// of `par_map` once every worker has stopped.
///
/// # Example
///
/// ```
/// use esvm_par::par_map;
/// let squares = par_map(4, &[1u64, 2, 3, 4], |_i, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices. Results come
            // back through `join`, which synchronises with the worker.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                // The scope joins the remaining workers (they run the
                // cursor dry) before the panic leaves it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0u64, 1, 7, 100] {
                let items: Vec<u64> = (0..n).collect();
                let expected: Vec<u64> =
                    items.iter().enumerate().map(|(i, x)| x * 2 + i as u64).collect();
                let out = par_map(threads, &items, |i, x| x * 2 + i as u64);
                assert_eq!(out, expected, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_i, x| *x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_i, x| *x), vec![7]);
        // Zero threads is the sequential loop, not a hang.
        assert_eq!(par_map(0, &[1u32, 2], |_i, x| *x), vec![1, 2]);
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_rest() {
        // Item 0 waits until every other item is done. Only a shared
        // cursor lets that finish: a fixed split would strand item 0's
        // block behind it.
        use std::time::{Duration, Instant};
        let done = AtomicUsize::new(0);
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(2, &items, |i, x| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while done.load(Ordering::SeqCst) < items.len() - 1 {
                    assert!(Instant::now() < deadline, "the other items never ran");
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            x + 1
        });
        assert_eq!(out, (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn a_panic_in_f_propagates() {
        for threads in [1usize, 2, 8] {
            let items: Vec<u32> = (0..50).collect();
            let caught = std::panic::catch_unwind(|| {
                par_map(threads, &items, |_i, &x| {
                    assert!(x != 17, "item 17 fails");
                    x
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("item 17 fails"), "threads={threads}: {message:?}");
        }
    }
}

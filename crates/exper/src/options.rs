//! Common experiment knobs.

use std::num::NonZeroUsize;

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Number of Monte-Carlo seeds per sweep point (the paper uses 50).
    pub seeds: u64,
    /// Worker threads fanning seeds out (default: `ESVM_THREADS`, else
    /// all cores).
    pub threads: usize,
    /// Quick mode shrinks VM counts (100–500 → 20–100) so the full
    /// figure set reproduces in seconds; used by tests and benches.
    pub quick: bool,
}

impl ExpOptions {
    /// The paper's configuration: 50 seeds, full VM counts.
    pub fn paper() -> Self {
        Self {
            seeds: 50,
            threads: default_threads(),
            quick: false,
        }
    }

    /// A fast smoke configuration: 6 seeds, scaled-down VM counts.
    pub fn quick() -> Self {
        Self {
            seeds: 6,
            threads: default_threads(),
            quick: true,
        }
    }

    /// Scales a paper VM count for quick mode (divides by 5).
    pub fn scale_vms(&self, paper_count: usize) -> usize {
        if self.quick {
            (paper_count / 5).max(10)
        } else {
            paper_count
        }
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// The seed fan-out's default thread count: [`threads_from_env`], or all
/// cores when `ESVM_THREADS` is malformed. The CLI rejects a malformed
/// value as a usage error before it builds options.
pub(crate) fn default_threads() -> usize {
    threads_from_env().unwrap_or_else(|_| all_cores())
}

/// Reads `ESVM_THREADS`, the seed fan-out's thread count, with
/// [`threads_from`]'s rule.
///
/// # Errors
///
/// A message naming the malformed value.
pub(crate) fn threads_from_env() -> Result<usize, String> {
    threads_from(std::env::var("ESVM_THREADS").ok().as_deref())
}

/// The one `ESVM_THREADS` rule, factored out of the environment for
/// testability: unset or `0` means all cores and `N ≥ 1` means `N`
/// threads. Anything else is an error.
fn threads_from(env: Option<&str>) -> Result<usize, String> {
    match env.map(|v| v.trim().parse::<usize>()) {
        None | Some(Ok(0)) => Ok(all_cores()),
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => Err(format!(
            "ESVM_THREADS must be a non-negative integer (0 = all cores), got {:?}",
            env.unwrap_or_default()
        )),
    }
}

fn all_cores() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let o = ExpOptions::paper();
        assert_eq!(o.seeds, 50);
        assert!(!o.quick);
        assert!(o.threads >= 1);
        assert_eq!(o.scale_vms(300), 300);
        assert_eq!(ExpOptions::default(), o);
    }

    #[test]
    fn esvm_threads_policy() {
        // Unset or 0 means all cores; N ≥ 1 means N threads.
        let all_cores = threads_from(None).unwrap();
        assert!(all_cores >= 1);
        assert_eq!(threads_from(Some("0")), Ok(all_cores));
        assert_eq!(threads_from(Some("1")), Ok(1));
        assert_eq!(threads_from(Some("3")), Ok(3));
    }

    #[test]
    fn esvm_threads_parsing_rules() {
        // Surrounding whitespace is trimmed before the integer parse.
        assert_eq!(threads_from(Some(" 2 ")), Ok(2));
        assert_eq!(threads_from(Some(" 8 ")), Ok(8));
        assert_eq!(threads_from(Some("\t4\n")), Ok(4));
        assert_eq!(threads_from(Some(" 0 ")), threads_from(None));
    }

    #[test]
    fn esvm_threads_bad_values_are_errors() {
        // Anything but a non-negative integer, `auto` included, is an
        // error naming the variable and the value.
        for bad in ["lots", "nope", "", "auto", "-2", "4x", "3.5"] {
            let err = threads_from(Some(bad)).unwrap_err();
            assert!(err.contains("ESVM_THREADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn quick_scales_down() {
        let o = ExpOptions::quick();
        assert!(o.quick);
        assert_eq!(o.scale_vms(100), 20);
        assert_eq!(o.scale_vms(500), 100);
        assert_eq!(o.scale_vms(20), 10); // floor
    }
}

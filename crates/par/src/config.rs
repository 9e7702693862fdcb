//! Thread-count configuration shared by every parallel entry point.

/// Average number of chunks each thread should see per generation.
/// More chunks than threads lets the dynamic claiming absorb shard
/// imbalance; the constant is small so tiny inputs stay in one chunk.
pub(crate) const CHUNKS_PER_THREAD: usize = 4;

/// Default problem-size cutoff of [`Parallelism::auto`]: below this
/// many items the sharded scorer's dispatch overhead outweighs its
/// speedup, so auto mode runs the sequential engine.
pub const DEFAULT_AUTO_CUTOFF: usize = 200_000;

/// Thread/shard configuration for a parallel entry point.
///
/// The default — [`Parallelism::sequential`], one thread — makes every
/// parallel code path *be* the sequential one (no pool, no locks, plain
/// in-order loops). Results are identical for every thread count by
/// construction; only wall-clock changes.
///
/// Beyond the thread count, the sharded paths read one more knob: the
/// number of persistent server-state *shards*
/// ([`Parallelism::with_shards`], `0` = auto-size from the thread
/// count). It is an execution detail: every (threads, shards) pair
/// produces bit-identical results.
///
/// # Example
///
/// ```
/// use esvm_par::Parallelism;
/// assert_eq!(Parallelism::default(), Parallelism::sequential());
/// assert_eq!(Parallelism::new(4).threads(), 4);
/// assert_eq!(Parallelism::new(0).threads(), 1); // clamped
/// let par = Parallelism::new(4).with_shards(8);
/// assert_eq!(par.shards_for(1000), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
    /// Shard-count override for the sharded paths; `0` = auto.
    shards: usize,
    /// Adaptive mode: fall back to the sequential engine below
    /// `auto_cutoff` items (see [`Parallelism::auto`]).
    adaptive: bool,
    /// Problem-size threshold of adaptive mode.
    auto_cutoff: usize,
}

impl Parallelism {
    /// One thread: the sequential code path, today's behaviour.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            shards: 0,
            adaptive: false,
            auto_cutoff: DEFAULT_AUTO_CUTOFF,
        }
    }

    /// `threads` worker threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::sequential()
        }
    }

    /// Adaptive engine selection: all available cores, but entry points
    /// consult [`Parallelism::resolve_for`] and run the plain
    /// sequential engine below [`DEFAULT_AUTO_CUTOFF`] items — where
    /// pool dispatch overhead outweighs the parallel scoring — and the
    /// sharded engine above it. An explicit shard
    /// override ([`Parallelism::with_shards`] / `ESVM_SHARDS`) forces
    /// the sharded engine at any size. Both engines are bit-identical,
    /// so the switch is invisible in results.
    pub fn auto() -> Self {
        Self {
            threads: available_parallelism(),
            adaptive: true,
            ..Self::sequential()
        }
    }

    /// Whether this configuration selects its engine adaptively.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Overrides the problem-size cutoff of adaptive mode (mainly for
    /// tests and calibration; no effect unless [`Parallelism::auto`]).
    pub fn with_auto_cutoff(mut self, cutoff: usize) -> Self {
        self.auto_cutoff = cutoff;
        self
    }

    /// The adaptive-mode cutoff in effect.
    pub fn auto_cutoff(&self) -> usize {
        self.auto_cutoff
    }

    /// Resolves adaptive mode against a concrete problem size,
    /// returning the configuration an entry point should actually run:
    /// unchanged for non-adaptive configurations; for adaptive ones,
    /// the sequential engine below the cutoff (unless an explicit shard
    /// override forces the sharded engine) and the full thread count at
    /// or above it.
    pub fn resolve_for(&self, n_items: usize) -> Self {
        if !self.adaptive {
            return *self;
        }
        let mut resolved = *self;
        resolved.adaptive = false;
        if self.shards == 0 && n_items < self.auto_cutoff {
            resolved.threads = 1;
        }
        resolved
    }

    /// Overrides the thread count (clamped to at least 1), keeping the
    /// shard knob — for front ends that let a flag override
    /// `ESVM_THREADS` while `ESVM_SHARDS` still applies.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the shard count of the sharded allocation paths.
    /// `0` (the default) auto-sizes: [`CHUNKS_PER_THREAD`] shards per
    /// thread, capped at the item count, so dynamic chunk claiming can
    /// absorb shard imbalance.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Reads the `ESVM_THREADS` environment variable:
    ///
    /// * unset or unparsable → [`Parallelism::sequential`] (the safe
    ///   default — parallelism is strictly opt-in);
    /// * `0` → all available cores;
    /// * `N ≥ 1` → exactly `N` threads.
    ///
    /// `ESVM_SHARDS` (shard-count override, `0`/unset = auto) refines
    /// the sharded paths the same way; an unparsable value falls back
    /// to the default.
    /// `ESVM_THREADS=auto` selects [`Parallelism::auto`];
    /// `ESVM_AUTO_CUTOFF` overrides its problem-size threshold.
    pub fn from_env() -> Self {
        let base = match std::env::var("ESVM_THREADS") {
            Ok(value) => Self::parse_env(&value),
            Err(_) => Self::sequential(),
        };
        base.with_shards(env_usize("ESVM_SHARDS").unwrap_or(0))
            .with_auto_cutoff(env_usize("ESVM_AUTO_CUTOFF").unwrap_or(DEFAULT_AUTO_CUTOFF))
    }

    /// The pure parsing rule behind [`Parallelism::from_env`],
    /// separated so it is testable without mutating the process
    /// environment.
    pub fn parse_env(value: &str) -> Self {
        Self::try_parse_env(value).unwrap_or_else(|_| Self::sequential())
    }

    /// Checked variant of [`Parallelism::from_env`] for front ends that
    /// want to *reject* a malformed `ESVM_THREADS` with an actionable
    /// message rather than silently fall back to sequential. An unset
    /// variable is still the sequential default.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed value.
    pub fn try_from_env() -> Result<Self, String> {
        let base = match std::env::var("ESVM_THREADS") {
            Ok(value) => Self::try_parse_env(&value)?,
            Err(_) => Self::sequential(),
        };
        let shards = try_env_usize("ESVM_SHARDS")?.unwrap_or(0);
        let cutoff = try_env_usize("ESVM_AUTO_CUTOFF")?.unwrap_or(DEFAULT_AUTO_CUTOFF);
        Ok(base.with_shards(shards).with_auto_cutoff(cutoff))
    }

    /// The pure parsing rule behind [`Parallelism::try_from_env`].
    ///
    /// # Errors
    ///
    /// A description of the malformed value: `ESVM_THREADS` must be a
    /// non-negative integer (`0` meaning all cores) or `auto`
    /// (adaptive engine selection).
    pub fn try_parse_env(value: &str) -> Result<Self, String> {
        if value.trim().eq_ignore_ascii_case("auto") {
            return Ok(Self::auto());
        }
        match value.trim().parse::<usize>() {
            Ok(0) => Ok(Self::new(available_parallelism())),
            Ok(n) => Ok(Self::new(n)),
            Err(_) => Err(format!(
                "ESVM_THREADS must be a non-negative integer (0 = all cores) or \"auto\", got {value:?}"
            )),
        }
    }

    /// Configured thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this is the sequential configuration.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// The configured shard-count override (`0` = auto).
    pub fn shards_override(&self) -> usize {
        self.shards
    }

    /// The shard count the sharded paths use for `n_items` servers:
    /// the explicit [`Parallelism::with_shards`] override if set,
    /// otherwise [`CHUNKS_PER_THREAD`] shards per thread — either way
    /// capped at `n_items` (no empty shards) and at least 1.
    pub fn shards_for(&self, n_items: usize) -> usize {
        let raw = if self.shards == 0 {
            self.threads * CHUNKS_PER_THREAD
        } else {
            self.shards
        };
        raw.clamp(1, n_items.max(1))
    }

    /// The chunking `(chunk_size, n_chunks)` this configuration uses
    /// for `n` items: about [`CHUNKS_PER_THREAD`] chunks per thread so
    /// dynamic claiming can absorb imbalance, never empty chunks.
    ///
    /// Chunking is a pure function of `(threads, n)` — callers size
    /// their per-chunk result slots with it before dispatching.
    pub fn chunking(&self, n: usize) -> (usize, usize) {
        if n == 0 {
            return (1, 0);
        }
        let target = self.threads * CHUNKS_PER_THREAD;
        let chunk_size = ((n + target - 1) / target).max(1);
        (chunk_size, (n + chunk_size - 1) / chunk_size)
    }

    /// Upper bound on `chunking(n).1` over **all** `n ≤ n_max` — for
    /// sizing per-chunk result slots once when the per-dispatch item
    /// count varies (e.g. per-VM candidate lists). Note `chunking` is
    /// not monotone in `n` (a smaller `n` can use more, smaller
    /// chunks), so `chunking(n_max).1` alone is not a valid bound.
    pub fn max_chunks(&self, n_max: usize) -> usize {
        // chunking(n).1 ≤ n (chunks are non-empty) and ≤ threads ×
        // CHUNKS_PER_THREAD (chunk_size rounds up to hit the target).
        n_max.min(self.threads * CHUNKS_PER_THREAD)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Available cores, with a safe fallback of 1.
pub(crate) fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Lenient env read: `None` when unset or unparsable.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Checked env read: `None` when unset, an error when unparsable.
fn try_env_usize(name: &str) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(value) => value.trim().parse().map(Some).map_err(|_| {
            format!("{name} must be a non-negative integer, got {value:?}")
        }),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential() {
        assert!(Parallelism::default().is_sequential());
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert!(!Parallelism::new(2).is_sequential());
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(Parallelism::parse_env("3"), Parallelism::new(3));
        assert_eq!(Parallelism::parse_env(" 8 "), Parallelism::new(8));
        assert_eq!(Parallelism::parse_env("nope"), Parallelism::sequential());
        assert_eq!(Parallelism::parse_env(""), Parallelism::sequential());
        assert_eq!(Parallelism::parse_env("-2"), Parallelism::sequential());
        // "0" means all cores — at least one.
        assert!(Parallelism::parse_env("0").threads() >= 1);
    }

    #[test]
    fn checked_env_parsing_surfaces_bad_values() {
        assert_eq!(Parallelism::try_parse_env("4"), Ok(Parallelism::new(4)));
        assert!(Parallelism::try_parse_env("0").unwrap().threads() >= 1);
        for bad in ["nope", "", "-2", "3.5", "4x"] {
            let err = Parallelism::try_parse_env(bad).unwrap_err();
            assert!(err.contains("ESVM_THREADS"), "{err}");
            assert!(err.contains(bad) || bad.is_empty(), "{err}");
        }
    }

    #[test]
    fn chunking_covers_every_item_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::new(threads);
            for n in [0usize, 1, 2, 7, 16, 100, 1001] {
                let (size, count) = par.chunking(n);
                assert!(size >= 1);
                // Chunks tile [0, n) exactly.
                assert_eq!(count, if n == 0 { 0 } else { (n + size - 1) / size });
                let covered: usize = (0..count)
                    .map(|c| ((c + 1) * size).min(n) - (c * size).min(n))
                    .sum();
                assert_eq!(covered, n, "threads={threads} n={n}");
                // Never more chunks than items.
                assert!(count <= n.max(1));
            }
        }
    }

    #[test]
    fn max_chunks_bounds_every_smaller_dispatch() {
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::new(threads);
            for n_max in [1usize, 7, 16, 100, 1001] {
                let bound = par.max_chunks(n_max);
                for n in 0..=n_max {
                    assert!(
                        par.chunking(n).1 <= bound,
                        "threads={threads} n={n} n_max={n_max}"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_knob() {
        let par = Parallelism::new(4);
        // Auto: CHUNKS_PER_THREAD shards per thread, capped at items.
        assert_eq!(par.shards_for(1000), 4 * CHUNKS_PER_THREAD);
        assert_eq!(par.shards_for(3), 3);
        assert_eq!(par.shards_for(0), 1);
        assert_eq!(par.shards_override(), 0);
        // Explicit override wins (still capped at the item count).
        let par = par.with_shards(6);
        assert_eq!(par.shards_override(), 6);
        assert_eq!(par.shards_for(1000), 6);
        assert_eq!(par.shards_for(2), 2);
    }

    #[test]
    fn auto_resolves_by_problem_size() {
        let auto = Parallelism::auto().with_auto_cutoff(1000);
        assert!(auto.is_adaptive());
        // Below the cutoff: sequential engine, shard knob kept.
        let small = auto.resolve_for(999);
        assert!(!small.is_adaptive());
        assert_eq!(small.threads(), 1);
        // At/above the cutoff: full thread count.
        let big = auto.resolve_for(1000);
        assert_eq!(big.threads(), auto.threads());
        assert!(!big.is_adaptive());
        // An explicit shard override forces the sharded engine at any
        // size (the ESVM_SHARDS escape hatch).
        let forced = auto.with_shards(4).resolve_for(10);
        assert_eq!(forced.threads(), auto.threads());
        assert_eq!(forced.shards_override(), 4);
        // Non-adaptive configurations resolve to themselves.
        let fixed = Parallelism::new(4);
        assert_eq!(fixed.resolve_for(1), fixed);
        assert_eq!(Parallelism::sequential().resolve_for(1 << 30).threads(), 1);
    }

    #[test]
    fn auto_parses_from_env_value() {
        let parsed = Parallelism::parse_env("auto");
        assert!(parsed.is_adaptive());
        assert!(parsed.threads() >= 1);
        assert!(Parallelism::try_parse_env("AUTO").unwrap().is_adaptive());
        assert_eq!(parsed.auto_cutoff(), DEFAULT_AUTO_CUTOFF);
    }

    #[test]
    fn env_usize_helpers_parse_and_reject() {
        assert_eq!(try_env_usize("ESVM_TEST_UNSET_VAR_XYZ"), Ok(None));
        // Direct parse paths (avoid mutating the process environment).
        assert_eq!("12".trim().parse::<usize>().ok(), Some(12));
        assert!("4x".trim().parse::<usize>().is_err());
    }

    #[test]
    fn chunking_scales_with_threads() {
        let (_, sequential_chunks) = Parallelism::new(1).chunking(1000);
        let (_, parallel_chunks) = Parallelism::new(8).chunking(1000);
        assert!(parallel_chunks > sequential_chunks);
        assert!(parallel_chunks <= 8 * CHUNKS_PER_THREAD);
    }
}

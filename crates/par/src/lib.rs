//! # esvm-par
//!
//! The workspace's one parallel job: the *seed fan-out*. Monte-Carlo
//! comparisons and the capacity planner run independent seeds, and
//! [`par_map`] spreads them over worker threads. Every allocator is a
//! single sequential engine; nothing here runs inside one.
//!
//! Results are positional: each lands in its input slot, so the output
//! is the sequential map's for every thread count. Workers claim items
//! through one atomic cursor, so uneven seeds still balance. Built on
//! [`std::thread::scope`], with no external dependencies and no unsafe
//! code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ops;

pub use ops::par_map;

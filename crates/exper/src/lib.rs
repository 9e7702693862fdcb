//! # esvm-exper
//!
//! Experiment harness reproducing **every table and figure** of
//! *"Energy Saving Virtual Machine Allocation in Cloud Computing"*
//! (Xie et al., ICDCSW 2013).
//!
//! * [`runner`] — seeded, multi-threaded Monte-Carlo executor comparing
//!   allocation algorithms on generated workloads;
//! * [`figure`] — a renderable figure/series data model shared by the
//!   CLI, the benches and the integration tests;
//! * [`experiments`] — one module per paper artefact:
//!   [`experiments::table1`], [`experiments::table2`],
//!   [`experiments::fig2`] … [`experiments::fig9`];
//! * [`planner`] — capacity planning: the admission/energy frontier
//!   over fleet sizes, with a recommended minimal fleet;
//! * [`query`] — the `esvm query` streaming engine over ESVT traces
//!   and JSON-lines event files;
//! * [`serve`] — the `esvm serve` online allocation loop: a line
//!   protocol over the irrevocable-at-arrival engine, fed from stdin,
//!   a Unix socket, or streamed traces, with live `DOWN`/`UP` fault
//!   verbs, bounded-queue overload shedding and crash recovery;
//! * [`journal`] — the ESVJ decision journal behind
//!   `esvm serve --journal`/`--recover`: checksummed append-only
//!   records of each decision, torn-tail tolerant recovery that hosts
//!   them again, checkpoint verification;
//! * [`gap`] — the `esvm gap` online/offline optimality-gap report
//!   (empirical competitive ratios per seed);
//! * [`report`] — a standalone HTML reproduction report with embedded
//!   SVG plots of every figure;
//! * [`options`] — common knobs (seed count, thread count, quick mode);
//! * [`cli`] — the `esvm` command-line front end.
//!
//! ## Example
//!
//! ```no_run
//! use esvm_exper::{experiments, options::ExpOptions};
//! let figure = experiments::fig2(&ExpOptions::quick()).unwrap();
//! println!("{}", figure.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod figure;
pub mod gap;
pub mod journal;
pub mod options;
pub mod planner;
pub mod query;
pub mod report;
pub mod runner;
pub mod serve;

/// The piece-schedule audit the fault tests share.
#[cfg(test)]
#[path = "../../../tests/support/pieces.rs"]
mod pieces;

pub use figure::{Figure, Series};
pub use options::ExpOptions;
pub use runner::{ComparisonPoint, MonteCarlo, RunError};

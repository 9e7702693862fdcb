//! # esvm-simcore
//!
//! Discrete-time data-center simulation substrate for the reproduction of
//! *"Energy Saving Virtual Machine Allocation in Cloud Computing"*
//! (Xie, Jia, Yang, Zhang — ICDCS Workshops 2013).
//!
//! The crate models the world of Section II of the paper:
//!
//! * time is a sequence of integer **time units** (1 unit = 1 minute in the
//!   paper's evaluation); a VM occupies a closed interval
//!   `[t_start, t_end]` of time units ([`Interval`]);
//! * every VM has a two-dimensional resource demand (CPU in EC2-style
//!   *compute units*, memory in GB) that is constant over its lifetime
//!   ([`Resources`], [`Vm`]);
//! * every server is **non-homogeneous**: its own capacity, its own affine
//!   power model `P(u) = P_idle + (P_peak − P_idle)·u` and its own
//!   transition cost `α` ([`ServerSpec`], [`PowerModel`]);
//! * a server hosting VMs experiences alternating **busy** and **idle**
//!   segments ([`SegmentSet`]); during an interior idle segment it either
//!   stays active (paying `P_idle` per unit) or switches off and back on
//!   (paying `α`), whichever is cheaper — Eq. (16) of the paper;
//! * the total energy of an allocation is audited by [`Assignment`] /
//!   [`ServerLedger`] implementing Eqs. (15)–(17) plus the initial
//!   switch-on cost implied by the ILP objective (Eq. 7 with `y_{i,0}=0`).
//!
//! The crate is deliberately free of any allocation *policy*: heuristics
//! live in `esvm-core`, the exact ILP in `esvm-ilp`, workload generation in
//! `esvm-workload`. Everything here is deterministic and pure.
//!
//! ## Example
//!
//! ```
//! use esvm_simcore::{
//!     AllocationProblem, Assignment, Interval, PowerModel, Resources, ServerSpec, Vm,
//! };
//!
//! // One server, two VMs that do not overlap in time.
//! let server = ServerSpec::new(0, Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 50.0);
//! let vms = vec![
//!     Vm::new(0, Resources::new(4.0, 8.0), Interval::new(1, 10)),
//!     Vm::new(1, Resources::new(2.0, 2.0), Interval::new(20, 30)),
//! ];
//! let problem = AllocationProblem::new(vec![server], vms).unwrap();
//!
//! let mut assignment = Assignment::new(&problem);
//! assignment.place(0.into(), 0.into()).unwrap();
//! assignment.place(1.into(), 0.into()).unwrap();
//!
//! let audit = assignment.audit().unwrap();
//! assert!(audit.total_cost > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod error;
mod problem;
mod resources;
mod schedule;
mod search;
mod segments;
mod server;
mod time;
mod timeline;
mod vm;

pub mod energy;
pub mod events;
pub mod stream;

pub use assignment::{Assignment, AuditReport, EnergyBreakdown, ServerReport, UtilizationStats};
pub use energy::{LedgerCheckpoint, ServerLedger};
pub use events::{replay, PowerTrace};
pub use stream::{departure_time, event_order, VmEvent};
pub use error::{Error, Result};
pub use problem::{AllocationProblem, ProblemBuilder, ProblemStats};
pub use resources::Resources;
pub use schedule::{Piece, Schedule, ScheduleAudit};
pub use segments::{CoverageSet, GapMeasure, InsertionDelta, RemovalDelta, Segment, SegmentSet};
pub use server::{PowerModel, ServerId, ServerSpec};
pub use time::{Interval, TimeUnit, MAX_TIME};
pub use timeline::UsageProfile;
pub use vm::{Vm, VmId};

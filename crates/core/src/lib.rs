//! # esvm-core
//!
//! Energy-saving VM allocation algorithms — the primary contribution of
//! *"Energy Saving Virtual Machine Allocation in Cloud Computing"*
//! (Xie, Jia, Yang, Zhang — ICDCS Workshops 2013) plus the paper's
//! baseline and a set of ablation baselines.
//!
//! * [`Miec`] — the paper's heuristic (*Minimum Incremental Energy
//!   Cost*): VMs in increasing start-time order, each placed on the
//!   candidate server whose total energy (Eq. 17) grows the least.
//! * [`Ffps`] — the paper's baseline (*First Fit Power Saving*): same VM
//!   order, servers in one fixed random order, first fitting server wins;
//!   the same switch-off policy is applied afterwards.
//! * [`FirstFit`], [`BestFit`], [`LowestIdlePower`], [`RoundRobin`],
//!   [`Random`] — additional baselines for ablation studies;
//! * [`Consolidator`] — a live-migration consolidation post-pass, the
//!   mechanism the paper contrasts allocation against (Section V);
//! * [`LocalSearch`] — offline relocate/swap refinement, bounding how
//!   much MIEC's greediness leaves on the table.
//!
//! All algorithms implement [`Allocator`] and produce a validated
//! [`Assignment`](esvm_simcore::Assignment) whose energy can be audited
//! independently by `esvm-simcore`.
//!
//! ## Example
//!
//! ```
//! use esvm_core::{Allocator, Ffps, Miec};
//! use esvm_simcore::{Interval, PowerModel, ProblemBuilder, Resources};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let problem = ProblemBuilder::new()
//!     .server(Resources::new(8.0, 16.0), PowerModel::new(100.0, 200.0), 100.0)
//!     .server(Resources::new(4.0, 8.0), PowerModel::new(40.0, 90.0), 45.0)
//!     .vm(Resources::new(1.0, 1.7), Interval::new(1, 10))
//!     .vm(Resources::new(2.0, 3.5), Interval::new(5, 14))
//!     .build()?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let smart = Miec::new().allocate(&problem, &mut rng)?;
//! let baseline = Ffps::new().allocate(&problem, &mut rng)?;
//! assert!(smart.total_cost() <= baseline.total_cost() + 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod baselines;
mod candidates;
mod classes;
mod error;
mod ffps;
mod fleet;
mod miec;
mod local_search;
mod migration;
mod online;
mod registry;

pub use allocator::Allocator;
pub use baselines::{BestFit, FirstFit, LowestIdlePower, Random, RoundRobin};
pub use candidates::{argmin, Argmin, CandidateIndex};
pub use error::{AllocError, AllocResult};
pub use ffps::Ffps;
pub use fleet::{FaultTransitions, Fleet};
pub use miec::Miec;
pub use local_search::{LocalSearch, Refined, SearchMove};
pub use migration::Consolidator;
pub use online::{
    repair_delay, OnlineDecision, OnlineEngine, OnlineError, OnlineStats, Recorded, RehostError,
    RepairOutcome,
};
pub use registry::AllocatorKind;

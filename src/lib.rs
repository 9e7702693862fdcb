//! # esvm — Energy Saving Virtual Machine Allocation
//!
//! A full Rust reproduction of *"Energy Saving Virtual Machine
//! Allocation in Cloud Computing"* (Ruitao Xie, Xiaohua Jia, Kan Yang,
//! Bo Zhang — IEEE ICDCS Workshops 2013).
//!
//! A cloud data center receives VM requests with (CPU, memory) demands
//! and fixed time intervals. Servers are non-homogeneous: each has its
//! own capacity, affine power model `P(u) = P_idle + (P_peak−P_idle)·u`
//! and transition cost `α` for waking from the power-saving state. The
//! goal is a placement of every VM minimising total energy.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`simcore`] — the data-center model: time, resources, servers,
//!   busy/idle segments, energy accounting (Eqs. 1–7, 15–17);
//! * [`core`] — the allocation algorithms: the paper's **MIEC**
//!   heuristic, the **FFPS** baseline, and ablation baselines;
//! * [`chaos`] — deterministic fault injection and failure-aware
//!   replay: seeded [`FaultPlan`]s, eviction-correct energy accounting,
//!   repair via incremental-cost scoring, graceful shedding;
//! * [`ilp`] — the exact boolean-ILP formulation (Eqs. 8–14) with a
//!   from-scratch simplex + branch-and-bound solver for certification;
//! * [`workload`] — Poisson/exponential workload generation and the
//!   EC2-derived Table I / Table II catalogs;
//! * [`par`] — the seed fan-out: a positional parallel map that runs
//!   Monte-Carlo and capacity-planner seeds on worker threads (results
//!   identical for every thread count; every allocator is sequential);
//! * [`analysis`] — statistics, the paper's Adj.R² curve fits, tables;
//! * [`exper`] — the harness reproducing every figure and table.
//!
//! The most common types are re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use esvm::{Allocator, Ffps, Miec, WorkloadConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 100 VM requests on 50 heterogeneous servers (paper Section IV-B).
//! let problem = WorkloadConfig::new(100, 50)
//!     .mean_interarrival(4.0)
//!     .generate(42)?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let smart = Miec::new().allocate(&problem, &mut rng)?;
//! let baseline = Ffps::new().allocate(&problem, &mut rng)?;
//!
//! let saving = 1.0 - smart.total_cost() / baseline.total_cost();
//! println!("MIEC saves {:.1}% energy", saving * 100.0);
//! assert!(smart.audit()?.total_cost <= baseline.audit()?.total_cost);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use esvm_analysis as analysis;
pub use esvm_chaos as chaos;
pub use esvm_core as core;
pub use esvm_exper as exper;
pub use esvm_ilp as ilp;
pub use esvm_obs as obs;
pub use esvm_par as par;
pub use esvm_simcore as simcore;
pub use esvm_workload as workload;

pub use esvm_analysis::{energy_reduction_ratio, Fit, FitKind, Summary, Table};
pub use esvm_chaos::{
    ChaosEngine, ChaosError, ChaosReport, FaultCause, FaultEvent, FaultPlan, FaultPlanConfig,
    InputFault, RepairPolicy, ShedPolicy,
};
pub use esvm_core::{
    Allocator, AllocatorKind, BestFit, Consolidator, Ffps, FirstFit, LocalSearch, LowestIdlePower,
    Miec, OnlineDecision, OnlineEngine, OnlineError, OnlineStats, Random, Refined, RoundRobin,
};
pub use esvm_exper::{ExpOptions, Figure, MonteCarlo, Series};
pub use esvm_ilp::Formulation;
pub use esvm_simcore::{
    replay, AllocationProblem, Assignment, AuditReport, EnergyBreakdown, Interval, PowerModel,
    PowerTrace, ProblemBuilder, Resources, Schedule, ScheduleAudit, ServerId, ServerLedger,
    ServerSpec, Vm, VmId,
};
pub use esvm_simcore::{departure_time, event_order, VmEvent};
pub use esvm_workload::{catalog, AdversaryPreset, ServerType, VmClass, VmType, WorkloadConfig};

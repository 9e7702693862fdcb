//! Capacity planning: how many servers does a workload need?
//!
//! The paper takes the fleet as given (servers = VMs/2). A downstream
//! operator asks the inverse question: *given my request stream and an
//! admission-rate target, how small can the fleet be, and what will it
//! cost in energy?* [`CapacityPlanner`] answers it by sweeping fleet
//! sizes, running admission-controlled MIEC on seeded workloads at each
//! size, and reporting the admission/energy frontier plus the minimal
//! fleet meeting the target.

use crate::runner::RunError;
use esvm_analysis::Table;
use esvm_core::{AllocatorKind, Miec};
use esvm_par::par_map;
use esvm_workload::WorkloadConfig;

/// One fleet size on the frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Fleet size evaluated.
    pub servers: usize,
    /// Mean fraction of VMs admitted, in `[0, 1]`.
    pub admission_rate: f64,
    /// Mean total energy of the admitted work (watt·time-units).
    pub energy: f64,
    /// Mean energy per admitted CPU·time unit.
    pub energy_per_work: f64,
}

/// The planning result: the frontier and the chosen fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPlan {
    /// Admission target the plan was built for, in `[0, 1]`.
    pub target: f64,
    /// Evaluated fleet sizes, ascending.
    pub frontier: Vec<FrontierPoint>,
    /// The smallest evaluated fleet meeting the target, if any.
    pub recommended: Option<FrontierPoint>,
}

impl CapacityPlan {
    /// Renders the frontier as a table (the recommended row is marked).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "servers",
            "admission (%)",
            "energy",
            "energy/work",
            "meets target",
        ]);
        for p in &self.frontier {
            let marker = if Some(p.servers) == self.recommended.map(|r| r.servers) {
                "<- recommended".to_owned()
            } else if p.admission_rate >= self.target {
                "yes".to_owned()
            } else {
                String::new()
            };
            table.row(vec![
                p.servers.to_string(),
                format!("{:.2}", p.admission_rate * 100.0),
                format!("{:.0}", p.energy),
                format!("{:.2}", p.energy_per_work),
                marker,
            ]);
        }
        table
    }
}

/// Hard ceiling on the seed count: beyond this the sweep would take
/// days, and `seed * sizes` bookkeeping could overflow downstream
/// aggregation.
pub const MAX_PLANNER_SEEDS: u64 = 1_000_000;

/// Sweeps fleet sizes for a workload template.
#[derive(Debug, Clone)]
pub struct CapacityPlanner {
    template: WorkloadConfig,
    target: f64,
    seeds: u64,
    threads: usize,
}

impl CapacityPlanner {
    /// Creates a planner for the given workload template (its server
    /// count is ignored — the sweep overrides it) and admission target.
    ///
    /// The per-fleet-size evaluation fans its seeds out over
    /// `ESVM_THREADS` worker threads (all cores when unset); override
    /// the count with [`with_threads`](Self::with_threads). Results are
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics unless `target ∈ (0, 1]` and
    /// `1 ≤ seeds ≤ MAX_PLANNER_SEEDS`.
    pub fn new(template: WorkloadConfig, target: f64, seeds: u64) -> Self {
        assert!(
            target > 0.0 && target <= 1.0,
            "admission target must be in (0, 1]"
        );
        assert!(seeds >= 1, "need at least one seed");
        assert!(
            seeds <= MAX_PLANNER_SEEDS,
            "seed count {seeds} exceeds the planner cap of {MAX_PLANNER_SEEDS}"
        );
        Self {
            template,
            target,
            seeds,
            threads: crate::options::default_threads(),
        }
    }

    /// Overrides the number of threads that fan seeds out per fleet
    /// size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates one fleet size.
    fn evaluate(&self, servers: usize) -> Result<FrontierPoint, RunError> {
        let config = self.template.clone().with_server_count(servers);
        let seeds: Vec<u64> = (0..self.seeds).collect();
        let runs = par_map(self.threads, &seeds, |_i, &seed| -> Result<_, RunError> {
            let problem = config.generate(seed)?;
            let (assignment, rejected) =
                Miec::new()
                    .allocate_with_admission(&problem)
                    .map_err(|error| RunError::Alloc {
                        algo: AllocatorKind::Miec,
                        seed,
                        error,
                    })?;
            let admitted = 1.0 - rejected.len() as f64 / problem.vm_count().max(1) as f64;
            let energy = assignment.total_cost();
            let work = assignment
                .placement()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(j, _)| problem.vms()[j].cpu_time())
                .sum::<f64>();
            Ok((admitted, energy, work))
        });
        // Fold in seed order so both the sums and the reported error
        // (first failing seed) are independent of the thread count.
        let mut admitted = 0.0;
        let mut energy = 0.0;
        let mut work = 0.0;
        for run in runs {
            let (a, e, w) = run?;
            admitted += a;
            energy += e;
            work += w;
        }
        let n = self.seeds as f64;
        Ok(FrontierPoint {
            servers,
            admission_rate: admitted / n,
            energy: energy / n,
            energy_per_work: if work > 0.0 { energy / work } else { 0.0 },
        })
    }

    /// Builds the plan over the given candidate fleet sizes (deduplicated
    /// and sorted ascending).
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] (e.g. a fleet too small to host
    /// the largest VM type at all).
    pub fn plan(&self, mut candidate_sizes: Vec<usize>) -> Result<CapacityPlan, RunError> {
        candidate_sizes.sort_unstable();
        candidate_sizes.dedup();
        let mut frontier = Vec::with_capacity(candidate_sizes.len());
        for servers in candidate_sizes {
            frontier.push(self.evaluate(servers.max(1))?);
        }
        let recommended = frontier
            .iter()
            .copied()
            .find(|p| p.admission_rate >= self.target);
        Ok(CapacityPlan {
            target: self.target,
            frontier,
            recommended,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_workload::catalog;

    fn template() -> WorkloadConfig {
        WorkloadConfig::new(60, 1)
            .mean_interarrival(0.5)
            .mean_duration(10.0)
            .vm_types(catalog::standard_vm_types())
    }

    #[test]
    fn admission_rate_is_monotone_in_fleet_size() {
        let plan = CapacityPlanner::new(template(), 0.99, 4)
            .plan(vec![2, 6, 20])
            .unwrap();
        assert_eq!(plan.frontier.len(), 3);
        for w in plan.frontier.windows(2) {
            assert!(
                w[0].admission_rate <= w[1].admission_rate + 1e-9,
                "{w:?}"
            );
        }
    }

    #[test]
    fn recommendation_is_smallest_meeting_target() {
        let plan = CapacityPlanner::new(template(), 0.9, 4)
            .plan(vec![20, 2, 6, 6])
            .unwrap();
        if let Some(rec) = plan.recommended {
            assert!(rec.admission_rate >= 0.9);
            for p in &plan.frontier {
                if p.servers < rec.servers {
                    assert!(p.admission_rate < 0.9, "{p:?} should have been chosen");
                }
            }
        }
        // A generous fleet always meets a 90 % target for this stream.
        assert!(plan.recommended.is_some());
    }

    #[test]
    fn table_marks_the_recommendation() {
        let plan = CapacityPlanner::new(template(), 0.5, 2)
            .plan(vec![2, 30])
            .unwrap();
        let text = plan.to_table().to_string();
        assert!(text.contains("<- recommended"), "{text}");
    }

    #[test]
    #[should_panic(expected = "admission target")]
    fn invalid_target_is_rejected() {
        let _ = CapacityPlanner::new(template(), 1.5, 2);
    }

    #[test]
    #[should_panic(expected = "admission target")]
    fn zero_target_is_rejected() {
        let _ = CapacityPlanner::new(template(), 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "admission target")]
    fn nan_target_is_rejected() {
        let _ = CapacityPlanner::new(template(), f64::NAN, 2);
    }

    #[test]
    #[should_panic(expected = "need at least one seed")]
    fn zero_seeds_are_rejected() {
        let _ = CapacityPlanner::new(template(), 0.9, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the planner cap")]
    fn seed_overflow_is_rejected() {
        let _ = CapacityPlanner::new(template(), 0.9, MAX_PLANNER_SEEDS + 1);
    }

    #[test]
    fn generation_errors_propagate_deterministically() {
        // One giant VM type on tiny servers: generation itself fails.
        let bad = WorkloadConfig::new(10, 1)
            .vm_types(vec![catalog::VM_TYPES[6]])
            .server_types(vec![catalog::SERVER_TYPES[0]]);
        let seq = CapacityPlanner::new(bad.clone(), 0.9, 4)
            .with_threads(1)
            .plan(vec![2])
            .unwrap_err();
        let par = CapacityPlanner::new(bad, 0.9, 4)
            .with_threads(4)
            .plan(vec![2])
            .unwrap_err();
        assert!(matches!(seq, RunError::Generate(_)), "{seq:?}");
        assert_eq!(seq, par, "error must not depend on the thread count");
    }

    #[test]
    fn plan_is_independent_of_thread_count() {
        let seq = CapacityPlanner::new(template(), 0.9, 4)
            .with_threads(1)
            .plan(vec![2, 6, 20])
            .unwrap();
        for threads in [2, 4, 8] {
            let par = CapacityPlanner::new(template(), 0.9, 4)
                .with_threads(threads)
                .plan(vec![2, 6, 20])
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}

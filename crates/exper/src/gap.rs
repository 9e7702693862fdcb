//! The online/offline optimality gap (`esvm gap`).
//!
//! MIEC places VMs in start order using only earlier placements and
//! each request's declared duration, so it is an online rule: the
//! online engine behind `esvm serve` makes its decisions bit for bit
//! (DESIGN §11). The online side of the gap is therefore [`Miec`], and
//! the offline side is its assignment refined by [`LocalSearch`], which
//! sees the whole trace and may move any VM. Both are measured by the
//! identical full-horizon Eq. 7 functional (the audited
//! [`Assignment`](esvm_simcore::Assignment) cost). Local search only
//! ever accepts improving moves, so `refined ≤ online` holds by
//! construction and the ratio is ≥ 1 up to floating-point rounding. It
//! says how much hindsight recovers over the online decisions, not how
//! far either is from the optimum.

use esvm_core::{AllocResult, Allocator, LocalSearch, Miec};
use esvm_simcore::AllocationProblem;
use rand::{rngs::StdRng, SeedableRng};

/// One seed's gap measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapRow {
    /// The workload seed.
    pub seed: u64,
    /// Online cost: MIEC's irrevocable start-order decisions.
    pub online_cost: f64,
    /// The online assignment after offline local-search refinement
    /// (guaranteed ≤ `online_cost`).
    pub refined_online_cost: f64,
    /// The empirical competitive ratio
    /// `online_cost / refined_online_cost` (≥ 1 up to FP rounding).
    pub ratio: f64,
}

/// Measures the gap on one instance.
///
/// # Errors
///
/// Propagates allocation failure (e.g. an infeasible instance); the
/// caller decides whether to skip or abort.
pub fn gap_row(problem: &AllocationProblem, seed: u64) -> AllocResult<GapRow> {
    let online = Miec::new().allocate(problem, &mut StdRng::seed_from_u64(seed))?;
    let refined = LocalSearch::new().refine(&online)?;
    let online_cost = online.total_cost();
    let refined_online_cost = refined.total_cost();
    Ok(GapRow {
        seed,
        online_cost,
        refined_online_cost,
        ratio: online_cost / refined_online_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_workload::{AdversaryPreset, WorkloadConfig};

    #[test]
    fn ratio_is_at_least_one_on_random_workloads() {
        for seed in 0..5 {
            let problem = WorkloadConfig::new(40, 10)
                .mean_interarrival(2.0)
                .generate(seed)
                .unwrap();
            let row = gap_row(&problem, seed).unwrap();
            assert!(
                row.ratio >= 1.0 - 1e-9,
                "seed {seed}: ratio {} < 1",
                row.ratio
            );
            assert!(row.refined_online_cost <= row.online_cost + 1e-9);
        }
    }

    #[test]
    fn adversarial_presets_produce_measurable_gaps() {
        for preset in AdversaryPreset::ALL {
            let problem = preset.problem(40, 8, 1).unwrap();
            let row = gap_row(&problem, 1).unwrap();
            assert!(row.ratio >= 1.0 - 1e-9, "{preset}: ratio {}", row.ratio);
            assert!(row.online_cost.is_finite() && row.online_cost > 0.0);
        }
    }
}

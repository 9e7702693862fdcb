//! Repair and graceful-degradation policies.
//!
//! When a server goes down, its live VMs are displaced and queued for
//! repair. The engine retries placement a bounded number of times with
//! deterministic exponential backoff; when a displaced VM exhausts its
//! retries (or its interval ends first) it is *shed* — dropped from the
//! schedule and counted, never panicked over. [`ShedPolicy`] decides
//! which queued VMs take priority when capacity is scarce.

use std::fmt;
use std::str::FromStr;

/// Order in which queued displaced VMs compete for scarce capacity.
///
/// The policy orders the retry queue at each processing instant; VMs at
/// the *front* get first claim on capacity, so the ones a policy ranks
/// last are the ones shed first under sustained pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Give capacity to the VMs with the most remaining runtime;
    /// smallest-remaining VMs are sacrificed first. This minimises the
    /// displaced VM-minutes lost per shed and is the default.
    #[default]
    SmallestRemainingFirst,
    /// Give capacity to the smallest-remaining VMs (cheapest to finish)
    /// and shed long tails first.
    LargestRemainingFirst,
    /// First displaced, first served: shed the most recent arrivals.
    ArrivalOrder,
}

impl ShedPolicy {
    /// Stable lower-case name used by the CLI and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::SmallestRemainingFirst => "smallest-remaining-first",
            ShedPolicy::LargestRemainingFirst => "largest-remaining-first",
            ShedPolicy::ArrivalOrder => "arrival-order",
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "smallest-remaining-first" | "smallest" => Ok(ShedPolicy::SmallestRemainingFirst),
            "largest-remaining-first" | "largest" => Ok(ShedPolicy::LargestRemainingFirst),
            "arrival-order" | "arrival" => Ok(ShedPolicy::ArrivalOrder),
            other => Err(format!(
                "unknown shed policy {other:?} (expected smallest-remaining-first, \
                 largest-remaining-first, or arrival-order)"
            )),
        }
    }
}

/// Knobs governing repair retries and admission shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Retries after the immediate repair attempt before a VM is shed.
    pub max_retries: u32,
    /// Base backoff in time units; attempt `k` waits `backoff * 2^(k-1)`.
    pub backoff: u32,
    /// Queue-ordering policy deciding which VMs are shed under pressure.
    pub shed: ShedPolicy,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff: 2,
            shed: ShedPolicy::SmallestRemainingFirst,
        }
    }
}

impl RepairPolicy {
    /// Delay before retry attempt `attempt` (1-based): `backoff *
    /// 2^(attempt-1)`, saturating, never less than 1 so the engine
    /// always makes forward progress. The online repair path's schedule,
    /// [`esvm_core::repair_delay`].
    pub fn delay_for(&self, attempt: u32) -> u32 {
        esvm_core::repair_delay(self.backoff, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let policy = RepairPolicy::default();
        assert_eq!(policy.delay_for(1), 2);
        assert_eq!(policy.delay_for(2), 4);
        assert_eq!(policy.delay_for(3), 8);
        let extreme = RepairPolicy {
            backoff: u32::MAX,
            ..RepairPolicy::default()
        };
        assert_eq!(extreme.delay_for(30), u32::MAX);
        let unit = RepairPolicy {
            backoff: 1,
            ..RepairPolicy::default()
        };
        assert_eq!(unit.delay_for(33), u32::MAX, "2^32 saturates");
        let zero = RepairPolicy {
            backoff: 0,
            ..RepairPolicy::default()
        };
        assert_eq!(zero.delay_for(1), 1, "progress is guaranteed");
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            ShedPolicy::SmallestRemainingFirst,
            ShedPolicy::LargestRemainingFirst,
            ShedPolicy::ArrivalOrder,
        ] {
            assert_eq!(policy.name().parse::<ShedPolicy>().unwrap(), policy);
        }
        assert!("meteor".parse::<ShedPolicy>().is_err());
    }
}

//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is the complete script of everything that goes wrong
//! during a chaos run: timed server outages (crashes, planned drains,
//! correlated rack outages) plus input-level faults applied to trace
//! text before parsing. Plans are *data*, not behaviour: the same plan
//! replayed against the same problem and allocator reproduces the same
//! run bit for bit, and a plan serialises to a line-oriented text format
//! so any chaos run can be archived and replayed later.

use crate::input::InputFault;
use esvm_simcore::{ServerId, TimeUnit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Why a server went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// Unplanned crash: the server vanishes at the fault instant.
    Crash,
    /// Planned drain: operationally identical to a crash in this model
    /// (live VMs are displaced at the drain instant), kept distinct for
    /// telemetry.
    Drain,
    /// Correlated outage taking down a whole rack at once.
    RackOutage,
}

impl FaultCause {
    /// Stable lower-case name used in the serialised plan.
    pub fn name(&self) -> &'static str {
        match self {
            FaultCause::Crash => "crash",
            FaultCause::Drain => "drain",
            FaultCause::RackOutage => "rack-outage",
        }
    }
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed availability event in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The server becomes unavailable at `at`; its live VMs are evicted.
    ServerDown {
        /// The victim server.
        server: ServerId,
        /// Fault instant (first time unit the server is down).
        at: TimeUnit,
        /// Why the server went down.
        cause: FaultCause,
    },
    /// The server becomes available again at `at`.
    ServerUp {
        /// The recovering server.
        server: ServerId,
        /// Recovery instant (first time unit the server is up again).
        at: TimeUnit,
    },
}

impl FaultEvent {
    /// The event's time.
    pub fn at(&self) -> TimeUnit {
        match self {
            FaultEvent::ServerDown { at, .. } | FaultEvent::ServerUp { at, .. } => *at,
        }
    }

    /// The event's server.
    pub fn server(&self) -> ServerId {
        match self {
            FaultEvent::ServerDown { server, .. } | FaultEvent::ServerUp { server, .. } => *server,
        }
    }
}

/// A forward cursor over a [`FaultPlan`]'s canonical `(time, server,
/// downs-before-ups)` event order. A live feed walks its request
/// stream and, before each arrival at time `t`, drains
/// [`take_until`](PlanCursor::take_until)`(t)` into the session's
/// fault verbs — the plan "strikes" exactly when the session clock
/// would reach each event, mirroring the offline replay semantics.
#[derive(Debug, Clone)]
pub struct PlanCursor<'a> {
    events: &'a [FaultEvent],
    next: usize,
}

impl<'a> PlanCursor<'a> {
    /// The events with `at() <= t` not yet taken, advancing the cursor
    /// past them. Successive calls with non-decreasing `t` partition
    /// the plan.
    pub fn take_until(&mut self, t: TimeUnit) -> &'a [FaultEvent] {
        let from = self.next;
        while self.next < self.events.len() && self.events[self.next].at() <= t {
            self.next += 1;
        }
        &self.events[from..self.next]
    }

    /// All remaining events (a trailing drain after the last arrival).
    pub fn rest(&mut self) -> &'a [FaultEvent] {
        let from = self.next;
        self.next = self.events.len();
        &self.events[from..]
    }

    /// How many events have not been taken yet.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

/// Knobs for [`FaultPlan::generate`].
///
/// `fault_rate` is the headline knob the CLI exposes: the per-server
/// probability of suffering one independent crash somewhere in the
/// horizon. Drains and correlated rack outages default to fractions of
/// it so a single `--fault-rate` sweeps the whole fault mix.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Per-server probability of one crash over the horizon.
    pub fault_rate: f64,
    /// Per-server probability of one planned drain (default:
    /// `fault_rate / 2`).
    pub drain_rate: f64,
    /// Per-rack probability of a correlated outage (default:
    /// `fault_rate / 4`).
    pub rack_outage_rate: f64,
    /// Servers per rack for correlated outages (0 disables racks).
    pub rack_size: u32,
    /// Mean outage duration in time units (drawn geometrically).
    pub mean_outage: f64,
}

impl FaultPlanConfig {
    /// Config with every secondary rate derived from `fault_rate`.
    pub fn with_fault_rate(fault_rate: f64) -> Self {
        let fault_rate = fault_rate.clamp(0.0, 1.0);
        Self {
            fault_rate,
            drain_rate: fault_rate / 2.0,
            rack_outage_rate: fault_rate / 4.0,
            rack_size: 8,
            mean_outage: 10.0,
        }
    }
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self::with_fault_rate(0.1)
    }
}

/// A complete, deterministic script of faults for one chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    input_faults: Vec<InputFault>,
}

/// Error parsing a serialised [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanParseError {
    /// The version line is missing or unsupported.
    BadHeader,
    /// A data line is malformed.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::BadHeader => write!(f, "missing or unsupported fault-plan header"),
            PlanParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for PlanParseError {}

const HEADER: &str = "# esvm faultplan v1";

impl FaultPlan {
    /// The empty plan: nothing ever fails. Replaying under the empty
    /// plan is guaranteed to reproduce the offline allocator bit for
    /// bit (see `ChaosEngine`).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan contains no faults of any kind.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.input_faults.is_empty()
    }

    /// The timed availability events, sorted by `(time, server)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The input-level faults.
    pub fn input_faults(&self) -> &[InputFault] {
        &self.input_faults
    }

    /// Adds one availability event, keeping the canonical order.
    pub fn push_event(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.sort_events();
    }

    /// Adds one input-level fault.
    pub fn push_input_fault(&mut self, fault: InputFault) {
        self.input_faults.push(fault);
    }

    fn sort_events(&mut self) {
        // Canonical order: time, then server id, then downs before ups
        // (a down/up pair on the same server at the same instant is a
        // zero-length outage and must resolve as "down then up").
        self.events.sort_by_key(|e| {
            (
                e.at(),
                e.server().index(),
                matches!(e, FaultEvent::ServerUp { .. }),
            )
        });
    }

    /// A forward cursor over the plan's canonical event order, for
    /// feeding faults into a live session interleaved with a request
    /// stream (see `esvm chaos --live`).
    pub fn cursor(&self) -> PlanCursor<'_> {
        PlanCursor {
            events: &self.events,
            next: 0,
        }
    }

    /// Generates a seeded plan for a fleet of `server_count` servers
    /// over `[1, horizon]`. Deterministic: the same `(config, seed,
    /// fleet, horizon)` always yields the same plan, and servers draw
    /// from the stream in id order so the plan for server `i` does not
    /// depend on the fleet size beyond `i`.
    pub fn generate(
        config: &FaultPlanConfig,
        server_count: usize,
        horizon: TimeUnit,
        seed: u64,
    ) -> Self {
        let mut plan = FaultPlan::default();
        if horizon < 2 {
            return plan;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5_C4A0_5u64);
        let outage = |rng: &mut StdRng, server: u32, cause: FaultCause, plan: &mut FaultPlan| {
            let at = rng.gen_range(2..=horizon);
            let len = Self::outage_len(rng, config.mean_outage);
            plan.events.push(FaultEvent::ServerDown {
                server: ServerId(server),
                at,
                cause,
            });
            let back = at.saturating_add(len);
            if back <= horizon {
                plan.events.push(FaultEvent::ServerUp {
                    server: ServerId(server),
                    at: back,
                });
            }
        };
        for s in 0..server_count as u32 {
            if rng.gen_bool(config.fault_rate) {
                outage(&mut rng, s, FaultCause::Crash, &mut plan);
            }
            if rng.gen_bool(config.drain_rate) {
                outage(&mut rng, s, FaultCause::Drain, &mut plan);
            }
        }
        if config.rack_size > 0 {
            let racks = (server_count as u32).div_ceil(config.rack_size);
            for rack in 0..racks {
                if !rng.gen_bool(config.rack_outage_rate) {
                    continue;
                }
                let at = rng.gen_range(2..=horizon);
                let len = Self::outage_len(&mut rng, config.mean_outage);
                let back = at.saturating_add(len);
                let lo = rack * config.rack_size;
                let hi = (lo + config.rack_size).min(server_count as u32);
                for s in lo..hi {
                    plan.events.push(FaultEvent::ServerDown {
                        server: ServerId(s),
                        at,
                        cause: FaultCause::RackOutage,
                    });
                    if back <= horizon {
                        plan.events.push(FaultEvent::ServerUp {
                            server: ServerId(s),
                            at: back,
                        });
                    }
                }
            }
        }
        plan.sort_events();
        plan
    }

    /// Geometric-ish outage length with the given mean, at least 1.
    fn outage_len(rng: &mut StdRng, mean: f64) -> u32 {
        let mean = mean.max(1.0);
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse-CDF of the exponential, rounded up to a whole unit.
        let len = -mean * (1.0 - u).ln();
        (len.ceil() as u32).max(1)
    }

    /// Serialises the plan to its line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for e in &self.events {
            match e {
                FaultEvent::ServerDown { server, at, cause } => {
                    out.push_str(&format!("down,{},{at},{cause}\n", server.index()));
                }
                FaultEvent::ServerUp { server, at } => {
                    out.push_str(&format!("up,{},{at}\n", server.index()));
                }
            }
        }
        for f in &self.input_faults {
            out.push_str(&format!("input,{}\n", f.to_field_text()));
        }
        out
    }

    /// Parses a plan serialised by [`FaultPlan::to_text`].
    ///
    /// # Errors
    ///
    /// [`PlanParseError`] on a missing header or malformed line.
    pub fn from_text(text: &str) -> Result<Self, PlanParseError> {
        let mut saw_header = false;
        let mut plan = FaultPlan::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line == HEADER {
                saw_header = true;
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            let bad = |reason: String| PlanParseError::BadLine {
                line: lineno,
                reason,
            };
            let parse_u32 = |s: &str, what: &str| {
                s.parse::<u32>()
                    .map_err(|_| bad(format!("{what} is not a non-negative integer: {s:?}")))
            };
            match fields.first().copied() {
                Some("down") if fields.len() == 4 => {
                    let cause = match fields[3] {
                        "crash" => FaultCause::Crash,
                        "drain" => FaultCause::Drain,
                        "rack-outage" => FaultCause::RackOutage,
                        other => return Err(bad(format!("unknown fault cause {other:?}"))),
                    };
                    plan.events.push(FaultEvent::ServerDown {
                        server: ServerId(parse_u32(fields[1], "server")?),
                        at: parse_u32(fields[2], "time")?,
                        cause,
                    });
                }
                Some("up") if fields.len() == 3 => {
                    plan.events.push(FaultEvent::ServerUp {
                        server: ServerId(parse_u32(fields[1], "server")?),
                        at: parse_u32(fields[2], "time")?,
                    });
                }
                Some("input") if fields.len() >= 2 => {
                    let fault = InputFault::from_field_text(&fields[1..])
                        .map_err(|reason| bad(reason))?;
                    plan.input_faults.push(fault);
                }
                _ => return Err(bad(format!("unrecognised plan line: {line:?}"))),
            }
        }
        if !saw_header {
            return Err(PlanParseError::BadHeader);
        }
        plan.sort_events();
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = FaultPlanConfig::with_fault_rate(0.5);
        let a = FaultPlan::generate(&config, 20, 100, 7);
        let b = FaultPlan::generate(&config, 20, 100, 7);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&config, 20, 100, 8);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn zero_rate_yields_empty_plan() {
        let config = FaultPlanConfig::with_fault_rate(0.0);
        assert!(FaultPlan::generate(&config, 50, 200, 3).is_empty());
    }

    #[test]
    fn events_are_time_ordered() {
        let config = FaultPlanConfig::with_fault_rate(0.8);
        let plan = FaultPlan::generate(&config, 30, 150, 11);
        assert!(!plan.is_empty());
        for pair in plan.events().windows(2) {
            assert!(pair[0].at() <= pair[1].at());
        }
    }

    #[test]
    fn text_round_trip() {
        let config = FaultPlanConfig::with_fault_rate(0.6);
        let mut plan = FaultPlan::generate(&config, 12, 80, 5);
        plan.push_input_fault(InputFault::DuplicateVmLine { line: 9 });
        plan.push_input_fault(InputFault::TruncateAt { line: 4 });
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            FaultPlan::from_text("down,0,5,crash\n").unwrap_err(),
            PlanParseError::BadHeader
        );
        let bad = format!("{HEADER}\ndown,0,x,crash\n");
        assert!(matches!(
            FaultPlan::from_text(&bad).unwrap_err(),
            PlanParseError::BadLine { line: 2, .. }
        ));
        let bad = format!("{HEADER}\ndown,0,5,meteor\n");
        assert!(matches!(
            FaultPlan::from_text(&bad).unwrap_err(),
            PlanParseError::BadLine { .. }
        ));
    }

    #[test]
    fn rack_outage_hits_whole_rack() {
        let config = FaultPlanConfig {
            fault_rate: 0.0,
            drain_rate: 0.0,
            rack_outage_rate: 1.0,
            rack_size: 4,
            mean_outage: 5.0,
        };
        let plan = FaultPlan::generate(&config, 8, 100, 1);
        let downed: Vec<u32> = plan
            .events()
            .iter()
            .filter_map(|e| match e {
                FaultEvent::ServerDown {
                    server,
                    cause: FaultCause::RackOutage,
                    ..
                } => Some(server.index() as u32),
                _ => None,
            })
            .collect();
        assert_eq!(downed.len(), 8, "both racks of 4 go down: {downed:?}");
    }
}

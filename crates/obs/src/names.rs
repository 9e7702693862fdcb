//! Canonical metric names shared between emitters and consumers.
//!
//! Subsystems that record metrics from more than one crate keep the
//! names here so the emitting code, the CLI that renders snapshots, and
//! the tests that assert on counters can never drift apart.

/// Robustness metrics recorded by the chaos replay engine.
pub mod chaos {
    /// Counter: VM pieces displaced by server outages.
    pub const DISPLACED_VMS: &str = "chaos.displaced_vms";
    /// Counter: interval time units displaced by evictions.
    pub const DISPLACED_VM_MINUTES: &str = "chaos.displaced_vm_minutes";
    /// Counter: successful re-placements (repairs and redirections).
    pub const REPAIRS: &str = "chaos.repairs";
    /// Histogram: time units between displacement and re-placement.
    pub const REPAIR_LATENCY: &str = "chaos.repair_latency";
    /// Counter: displaced VMs whose remaining work was dropped.
    pub const SHED: &str = "chaos.shed";
    /// Counter: arrivals that could never be admitted anywhere.
    pub const REFUSED_ADMISSIONS: &str = "chaos.refused_admissions";
    /// Counter: forced recovery transitions attributable to faults.
    pub const EXTRA_TRANSITIONS: &str = "chaos.extra_transitions";
    /// Gauge: net Eq. 7 energy adjustment for forced transitions.
    pub const FAULT_TRANSITION_ENERGY: &str = "chaos.fault_transition_energy";
    /// Gauge: scheduled energy cost of the chaos run.
    pub const ENERGY_COST: &str = "chaos.energy_cost";
    /// Gauge: scheduled cost plus the forced-transition surcharge.
    pub const ENERGY_ADJUSTED_COST: &str = "chaos.energy_adjusted_cost";
    /// Gauge: cost of the intended fault-free offline assignment.
    pub const ENERGY_OFFLINE_COST: &str = "chaos.energy_offline_cost";
}

/// Metrics recorded by the online serving loop (`esvm serve`).
pub mod serve {
    /// Histogram: wall-clock per-decision latency in microseconds.
    pub const DECISION_US: &str = "serve.decision_us";
    /// Counter: well-formed `REQ` lines accepted into the event loop.
    pub const REQUESTS: &str = "serve.requests";
    /// Counter: requests answered `PLACED`.
    pub const PLACED: &str = "serve.placed";
    /// Counter: requests answered `REJECTED`.
    pub const REJECTED: &str = "serve.rejected";
    /// Counter: VMs whose capacity was freed by a departure event.
    pub const DEPARTED: &str = "serve.departed";
    /// Counter: lines answered with a typed `ERR` reply.
    pub const PROTOCOL_ERRORS: &str = "serve.protocol_errors";
    /// Counter: records appended to the decision journal.
    pub const JOURNAL_APPENDS: &str = "serve.journal_appends";
    /// Counter: batched `fsync` barriers issued by the journal writer.
    pub const JOURNAL_FSYNCS: &str = "serve.journal_fsyncs";
    /// Gauge: wall-clock milliseconds spent reading a journal and
    /// hosting its decisions again on `--recover`.
    pub const RECOVERY_MS: &str = "serve.recovery_ms";
    /// Counter: VMs evicted by a live `DOWN` fault verb.
    pub const EVICTED: &str = "serve.evicted";
    /// Counter: requests shed by the bounded admission queue.
    pub const OVERLOADED: &str = "serve.overloaded";
}

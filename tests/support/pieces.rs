//! The piece schedule a fault test drives, audited on fresh ledgers.
//!
//! Shared by the tests of the online engine and the serve session
//! (include it with `#[path]`). A test records every piece it sees
//! placed and every outage it drives, stopping running pieces where the
//! engine must stop them (an outage, a drain, an early departure).
//! [`Pieces::check`] then rescans that schedule on fresh ledgers and
//! compares the engine's energy figures with it: the Eq. 7 energy of
//! the pieces and the surcharge of the switch-ons the outages forced.
//! The audit keeps every piece on one ledger per server, as if no
//! server were ever sealed.

#![allow(dead_code)]

use esvm_core::FaultTransitions;
use esvm_obs::{DecisionKind, ExplainRecord};
use esvm_simcore::{Interval, ServerId, ServerLedger, ServerSpec, TimeUnit, Vm, VmId};

/// Every piece placed, each stopped where the test stopped it, and the
/// outages the test drove.
pub struct Pieces {
    servers: Vec<ServerSpec>,
    /// `(server, piece)`; `None` once a piece that had not started was
    /// stopped.
    pieces: Vec<Option<(ServerId, Vm)>>,
    /// When each down server went down.
    down_since: Vec<Option<TimeUnit>>,
    /// Outages `(server, down, up)` with `up > down`.
    outages: Vec<(ServerId, TimeUnit, TimeUnit)>,
}

impl Pieces {
    pub fn new(servers: &[ServerSpec]) -> Self {
        Self {
            servers: servers.to_vec(),
            pieces: Vec::new(),
            down_since: vec![None; servers.len()],
            outages: Vec::new(),
        }
    }

    /// Rebuilds a serve session's schedule from its replies and the
    /// explain records its tracer collected, both in order. Each
    /// `PLACED` or `REJECTED` reply has one `Place` or `Reject` record,
    /// whose instant is the session clock from then on; a placed VM is
    /// `vm(id)`. A `DOWNED` reply stops the server's running pieces at
    /// the clock and has one `Repair` or `Shed` record per evicted VM; a
    /// repaired tail runs from the record's instant to the VM's end. An
    /// `UPPED` reply closes the server's outage, a `DRAINED` one stops
    /// every running piece.
    pub fn from_session(
        servers: &[ServerSpec],
        replies: &[String],
        records: &[ExplainRecord],
        vm: impl Fn(VmId) -> Vm,
    ) -> Self {
        let mut pieces = Self::new(servers);
        let mut records = records.iter().filter(|r| {
            use DecisionKind::*;
            matches!(r.kind, Place | Reject | Repair | Shed)
        });
        let mut next = |want: &[DecisionKind]| {
            let r = records
                .next()
                .expect("a decision record per decision reply");
            assert!(
                want.contains(&r.kind),
                "{:?} record where {want:?} was due",
                r.kind
            );
            (
                VmId(r.vm as u32),
                r.winner.map(|s| ServerId(s as u32)),
                r.time.unwrap() as TimeUnit,
            )
        };
        let mut clock = 0;
        for reply in replies {
            let words: Vec<&str> = reply.split_whitespace().collect();
            let server = || ServerId(words[1].parse().expect("server id"));
            match words[0] {
                "PLACED" | "REJECTED" => {
                    let (id, winner, time) = next(&[DecisionKind::Place, DecisionKind::Reject]);
                    clock = time;
                    if let Some(s) = winner {
                        pieces.place(s, &vm(id));
                    }
                }
                "DOWNED" => {
                    let evicted: usize = words[2]
                        .strip_prefix("evicted=")
                        .and_then(|n| n.parse().ok())
                        .expect("evicted=<n>");
                    let stopped = pieces.down(server(), clock);
                    assert_eq!(stopped.len(), evicted, "{reply}: evicted pieces");
                    for _ in 0..evicted {
                        let (id, winner, time) = next(&[DecisionKind::Repair, DecisionKind::Shed]);
                        assert!(stopped.contains(&id), "{reply}: {id} was not evicted");
                        if let Some(s) = winner {
                            let whole = vm(id);
                            let tail = Interval::new(time, whole.end());
                            pieces.place(s, &Vm::new(id, whole.demand(), tail));
                        }
                    }
                }
                "UPPED" => pieces.up(server(), clock),
                "DRAINED" => {
                    pieces.stop(None, clock);
                }
                _ => {}
            }
        }
        pieces
    }

    /// Records `vm` (a whole VM or a repaired tail) as placed on
    /// `server`.
    pub fn place(&mut self, server: ServerId, vm: &Vm) {
        self.pieces.push(Some((server, *vm)));
    }

    /// Stops every piece on `server` (all servers when `None`) that
    /// still runs at `clock`: `[start, clock − 1]` stays, a piece that
    /// has not started goes. Returns the stopped VMs in id order.
    pub fn stop(&mut self, server: Option<ServerId>, clock: TimeUnit) -> Vec<VmId> {
        self.stop_where(clock, |s, _| server.is_none_or(|want| want == s))
    }

    /// Stops the piece of `vm` that still runs at `clock`, as
    /// [`Pieces::stop`] does; `false` when none runs.
    pub fn depart(&mut self, vm: VmId, clock: TimeUnit) -> bool {
        !self.stop_where(clock, |_, id| id == vm).is_empty()
    }

    /// Stops every piece still running at `clock` whose server and VM
    /// `which` accepts. Returns the stopped VMs in id order.
    fn stop_where(
        &mut self,
        clock: TimeUnit,
        which: impl Fn(ServerId, VmId) -> bool,
    ) -> Vec<VmId> {
        let mut stopped = Vec::new();
        for slot in &mut self.pieces {
            let Some((s, vm)) = *slot else { continue };
            if vm.end() < clock || !which(s, vm.id()) {
                continue;
            }
            stopped.push(vm.id());
            *slot = (vm.start() < clock).then(|| {
                (
                    s,
                    Vm::new(vm.id(), vm.demand(), Interval::new(vm.start(), clock - 1)),
                )
            });
        }
        stopped.sort_unstable();
        stopped
    }

    /// Takes `server` down at `clock` and stops its running pieces.
    /// Returns the stopped VMs in id order (none when it was down
    /// already).
    pub fn down(&mut self, server: ServerId, clock: TimeUnit) -> Vec<VmId> {
        let since = &mut self.down_since[server.index()];
        if since.is_some() {
            return Vec::new();
        }
        *since = Some(clock);
        self.stop(Some(server), clock)
    }

    /// Brings `server` up at `clock`, closing its outage.
    pub fn up(&mut self, server: ServerId, clock: TimeUnit) {
        if let Some(down) = self.down_since[server.index()].take() {
            if clock > down {
                self.outages.push((server, down, clock));
            }
        }
    }

    /// Eq. 7 energy of the schedule on fresh ledgers.
    pub fn energy(&self) -> f64 {
        let mut ledgers: Vec<ServerLedger> =
            self.servers.iter().map(|s| ServerLedger::new(*s)).collect();
        for (server, vm) in self.pieces.iter().flatten() {
            ledgers[server.index()].host_piece(vm.demand(), vm.interval());
        }
        ledgers.iter().map(|l| l.cost()).sum()
    }

    /// The switch-ons the outages forced, priced from the pieces: an
    /// outage inside an idle gap that costs less than `α` to idle
    /// through costs `α` minus the idle energy of the down span. A gap
    /// that costs exactly `α` counts as off, as the cold rule counts it.
    pub fn surcharge(&self) -> FaultTransitions {
        let mut total = FaultTransitions::default();
        for &(server, down, up) in &self.outages {
            let on = || self.pieces.iter().flatten().filter(|(s, _)| *s == server);
            assert!(
                on().all(|(_, vm)| vm.end() < down || vm.start() >= up),
                "a piece on {server} runs during its outage [{down}, {up})"
            );
            let before = on()
                .filter(|(_, vm)| vm.end() < down)
                .map(|(_, vm)| vm.end())
                .max();
            let after = on()
                .filter(|(_, vm)| vm.start() >= up)
                .map(|(_, vm)| vm.start())
                .min();
            let (Some(before), Some(after)) = (before, after) else {
                continue;
            };
            let spec = &self.servers[server.index()];
            if spec.idle_cost(u64::from(after - before - 1)) < spec.transition_cost() {
                total.count += 1;
                total.energy += spec.transition_cost() - spec.idle_cost(u64::from(up - down));
            }
        }
        total
    }

    /// Asserts that an engine's committed energy and forced transitions
    /// are the audited schedule's.
    pub fn check(&self, committed: f64, faults: FaultTransitions, ctx: &str) {
        let energy = self.energy();
        assert!(
            (committed - energy).abs() <= 1e-9 * energy.abs().max(1.0),
            "{ctx}: committed {committed} vs audited piece schedule {energy}"
        );
        let audited = self.surcharge();
        assert_eq!(
            faults.count, audited.count,
            "{ctx}: forced switch-ons vs audited outages"
        );
        assert!(
            (faults.energy - audited.energy).abs() <= 1e-9 * audited.energy.abs().max(1.0),
            "{ctx}: fault transition energy {} vs audited outages {}",
            faults.energy,
            audited.energy
        );
    }
}

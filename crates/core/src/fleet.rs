//! The fleet every MIEC engine runs on; see [`Fleet`].

use std::collections::HashMap;

use esvm_simcore::{Interval, ServerId, ServerLedger, ServerSpec, TimeUnit, Vm, VmId};

use crate::candidates::{argmin, Argmin, CandidateIndex, ColdRule};

/// The forced Eq. 7 transitions of a fleet's outages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultTransitions {
    /// Forced switch-ons the ledgers do not show.
    pub count: u64,
    /// Their net energy (`α` minus the idle energy of each down span).
    pub energy: f64,
}

/// The state offline [`Miec`](crate::Miec), the chaos replay
/// (`esvm_chaos::ChaosEngine`) and the
/// [`OnlineEngine`](crate::OnlineEngine) keep about the servers: a
/// [`ServerLedger`] each, the [`CandidateIndex`] with its down mask, the
/// cold rule (module docs of `candidates`), each server's hosted pieces
/// and its outages, with one eviction, one Eq. 7 argmin
/// ([`Fleet::scan`]) and one forced-transition surcharge. Offline MIEC
/// only hosts and demotes; the fault engines also stop and evict, and
/// the online engine seals. No busy segment overlaps an outage of its
/// server, but an outage `[c, r)` inside a gap shorter than `g*`, which a
/// ledger idles through (Eq. 16), forced a switch-on the ledger does not
/// charge: `α` minus the idle energy `P_idle · (r − c)` it did charge
/// (DESIGN §9).
#[derive(Debug, Clone)]
pub struct Fleet {
    ledgers: Vec<ServerLedger>,
    index: CandidateIndex,
    cold: ColdRule,
    /// Per server that hosts any, the pieces that may still run, in
    /// hosting order. Ended pieces are dropped when a list would grow,
    /// and a list goes at an eviction or a seal, so a large fleet of
    /// idle servers costs nothing here.
    pieces: HashMap<u32, Vec<Vm>>,
    /// When each down server went down.
    down_since: HashMap<u32, TimeUnit>,
    /// Resolved outages `(server, down, up)` of unsealed ledgers, in the
    /// order they were resolved.
    outages: Vec<(u32, TimeUnit, TimeUnit)>,
    /// Surcharge booked at seals.
    sealed: FaultTransitions,
}

impl Fleet {
    /// A fleet with every server up, pristine and on standby.
    pub fn new(servers: &[ServerSpec]) -> Self {
        let index = CandidateIndex::new(servers);
        Self {
            ledgers: servers.iter().map(|s| ServerLedger::new(*s)).collect(),
            cold: ColdRule::new(&index),
            index,
            pieces: HashMap::new(),
            down_since: HashMap::new(),
            outages: Vec::new(),
            sealed: FaultTransitions::default(),
        }
    }

    /// The per-server ledgers.
    pub fn ledgers(&self) -> &[ServerLedger] {
        &self.ledgers
    }

    /// The ledgers, consuming the fleet.
    pub fn into_ledgers(self) -> Vec<ServerLedger> {
        self.ledgers
    }

    /// The candidate index every scan visits; its down mask is the
    /// fleet's.
    pub fn index(&self) -> &CandidateIndex {
        &self.index
    }

    /// The Eq. 7 argmin for `piece` over the candidate index, deciding
    /// as a scan of every up server would: each server that fits `piece`
    /// is scored by the incremental cost of `priced`, a piece of the same
    /// start and demand. Every engine passes `piece` twice but
    /// `miec-blind`, which prices an assumed duration. A server whose
    /// [`insertion_floor`](ServerLedger::insertion_floor) for `priced`
    /// meets the running best is passed over unscored, and an active
    /// server whose fit row shows `piece` over capacity at its start is
    /// unfit. An active server takes both tests from its entry in the
    /// index, so its ledger is read only to refresh its row or to score
    /// it. With `counting`, its tallies and [`CandidateIndex::pruned`]
    /// sum to the up servers.
    #[inline]
    pub fn scan(&self, piece: &Vm, priced: &Vm, counting: bool) -> Argmin {
        debug_assert_eq!((piece.start(), piece.demand()), (priced.start(), priced.demand()));
        let (ledgers, index) = (&self.ledgers, &self.index);
        let (t, demand) = (piece.start(), piece.demand());
        // The second factor of every server's run cost.
        let cpu_len = demand.cpu * priced.interval().len() as f64;
        argmin(
            index.candidates(),
            counting,
            |c| match c.entry {
                Some(e) => index.floor(e, ledgers, t, cpu_len),
                None => ledgers[c.id as usize].insertion_floor(demand, priced.interval()),
            },
            |c| {
                if c.entry.is_some_and(|e| index.rejects(e, ledgers, t, demand)) {
                    return None;
                }
                let ledger = &ledgers[c.id as usize];
                ledger.fits(piece).then(|| ledger.incremental_cost(priced))
            },
        )
    }

    /// Hosts `piece` on the up server `server` at `clock`, the caller's
    /// decision clock, which never decreases: pieces that ended before
    /// it can no longer be stopped.
    pub fn host(&mut self, server: ServerId, piece: Vm, clock: TimeUnit) {
        let s = server.index();
        self.ledgers[s].host(&piece);
        self.index.activate(server.0);
        self.cold.reschedule(&self.index, server.0, &self.ledgers[s]);
        let list = self.pieces.entry(server.0).or_default();
        if list.len() == list.capacity() {
            list.retain(|p| p.end() >= clock);
        }
        list.push(piece);
    }

    /// Stops the piece of `vm` that runs on `server` at `clock` and
    /// returns it as hosted; `None` when no such piece runs.
    pub fn stop(&mut self, server: ServerId, vm: VmId, clock: TimeUnit) -> Option<Vm> {
        let list = self.pieces.get_mut(&server.0)?;
        let at = list.iter().position(|p| p.id() == vm && p.end() >= clock)?;
        let piece = list.remove(at);
        self.cut(server, &piece, clock);
        Some(piece)
    }

    /// Stops every piece that runs on `server` at `clock`, in the order
    /// of `key` (ties in hosting order), and returns them as hosted.
    pub fn evict<K: Ord>(
        &mut self,
        server: ServerId,
        clock: TimeUnit,
        key: impl FnMut(&Vm) -> K,
    ) -> Vec<Vm> {
        let mut running = self.pieces.remove(&server.0).unwrap_or_default();
        running.retain(|p| p.end() >= clock);
        running.sort_by_key(key);
        for piece in &running {
            self.cut(server, piece, clock);
        }
        running
    }

    /// Replaces `piece` on `server` by its prefix before `clock`.
    fn cut(&mut self, server: ServerId, piece: &Vm, clock: TimeUnit) {
        let ledger = &mut self.ledgers[server.index()];
        ledger.unhost(piece);
        if piece.start() < clock {
            ledger.host_piece(piece.demand(), Interval::new(piece.start(), clock - 1));
        }
        if ledger.hosted_count() == 0 {
            self.index.deactivate(server.0);
        } else {
            // Its usage fell: a row left as it was could turn away a
            // piece that fits.
            self.index.invalidate(server.0);
            self.cold.reschedule(&self.index, server.0, ledger);
        }
    }

    /// Takes `server` out of every scan at `clock`; `false` when it was
    /// already down.
    pub fn set_down(&mut self, server: ServerId, clock: TimeUnit) -> bool {
        if self.index.is_down(server) {
            return false;
        }
        self.index.set_down(server.0);
        self.down_since.insert(server.0, clock);
        true
    }

    /// Returns `server` to the scans at `clock`, closing its outage;
    /// `false` when it was already up.
    pub fn set_up(&mut self, server: ServerId, clock: TimeUnit) -> bool {
        if !self.index.is_down(server) {
            return false;
        }
        let ledger = &self.ledgers[server.index()];
        self.index.set_up(server.0, ledger.hosted_count() > 0);
        // Found cold while down, a server that kept its history has no
        // due time left: the next pass must still move it to standby.
        self.cold.reschedule(&self.index, server.0, ledger);
        if let Some(down) = self.down_since.remove(&server.0).filter(|&c| c < clock) {
            self.outages.push((server.0, down, clock));
        }
        true
    }

    /// Moves every server cold at `t` to standby, keeping its history.
    pub fn demote(&mut self, t: TimeUnit) {
        self.cold.demote_until(t, &mut self.index, |_| {});
    }

    /// Moves every server cold at `t` (down ones too) to standby and
    /// seals it: its cost is added to `retired`, its outages are booked,
    /// and its ledger and pieces start afresh.
    pub fn seal(&mut self, t: TimeUnit, retired: &mut f64) {
        let (ledgers, pieces) = (&mut self.ledgers, &mut self.pieces);
        let (outages, sealed) = (&mut self.outages, &mut self.sealed);
        self.cold.demote_until(t, &mut self.index, |i| {
            let ledger = &mut ledgers[i as usize];
            outages.retain(|&(s, down, up)| {
                if s == i {
                    charge(ledger, down, up, sealed);
                }
                s != i
            });
            *retired += ledger.cost();
            *ledger = ServerLedger::new(*ledger.spec());
            pieces.remove(&i);
        });
    }

    /// The forced transitions of every resolved outage: those booked at
    /// seals, then the rest on the current ledgers, in resolution order.
    pub fn fault_transitions(&self) -> FaultTransitions {
        let mut total = self.sealed;
        for &(s, down, up) in &self.outages {
            charge(&self.ledgers[s as usize], down, up, &mut total);
        }
        total
    }
}

/// Adds the forced transition of the outage `[down, up)` on `ledger` if
/// it falls inside a gap whose idling costs less than `α`. Before the
/// first or after the last busy segment the ledger's own switch-on tells
/// the story; in a gap priced `α`, the recovery is the planned
/// switch-on. A gap of exactly `g*`, where idling costs `α` too, counts
/// as off, as the cold rule counts it (the online engine has sealed the
/// server by then).
fn charge(ledger: &ServerLedger, down: TimeUnit, up: TimeUnit, total: &mut FaultTransitions) {
    let (spec, segments) = (ledger.spec(), ledger.segments());
    let prev = segments.iter().filter(|iv| iv.end() < down).last();
    let next = segments.iter().find(|iv| iv.end() >= down);
    let (Some(prev), Some(next)) = (prev, next) else {
        return;
    };
    debug_assert!(next.start() >= up, "busy segment overlaps an outage");
    let gap = u64::from(next.start() - prev.end()) - 1;
    if spec.idle_cost(gap) < spec.transition_cost() {
        total.count += 1;
        total.energy += spec.transition_cost() - spec.idle_cost(u64::from(up - down));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::{PowerModel, Resources};

    /// `P_idle` 100 and `α` 5000: `g*` = 50.
    fn specs(n: u32) -> Vec<ServerSpec> {
        (0..n)
            .map(|i| {
                ServerSpec::new(
                    i,
                    Resources::new(8.0, 16.0),
                    PowerModel::new(100.0, 200.0),
                    5000.0,
                )
            })
            .collect()
    }

    fn vm(id: u32, start: u32, end: u32) -> Vm {
        Vm::new(id, Resources::new(2.0, 2.0), Interval::new(start, end))
    }

    #[test]
    fn an_outage_in_a_kept_on_gap_costs_one_switch_on_before_and_after_the_seal() {
        let mut fleet = Fleet::new(&specs(1));
        let s0 = ServerId(0);
        fleet.host(s0, vm(0, 1, 5), 1);
        assert!(fleet.set_down(s0, 7) && !fleet.set_down(s0, 8));
        assert!(fleet.set_up(s0, 9) && !fleet.set_up(s0, 10));
        // Outages before the first or after the last busy segment cost
        // nothing: the gap is not closed yet.
        assert_eq!(fleet.fault_transitions(), FaultTransitions::default());
        fleet.host(s0, vm(1, 12, 15), 12);
        // The gap [6, 11] idles (600 < 5000), but the server was off for
        // [7, 9): α − 2 · P_idle.
        let want = FaultTransitions {
            count: 1,
            energy: 4800.0,
        };
        assert_eq!(fleet.fault_transitions(), want);
        assert_eq!(fleet.ledgers()[0].cost(), 6725.0);
        // Sealing books it and retires the ledger.
        let mut retired = 0.0;
        fleet.seal(15 + 1 + 50, &mut retired);
        assert_eq!(retired, 6725.0);
        assert_eq!(fleet.ledgers()[0].hosted_count(), 0);
        assert_eq!(fleet.fault_transitions(), want);
        // A zero-length outage is no outage.
        fleet.set_down(s0, 70);
        fleet.set_up(s0, 70);
        fleet.host(s0, vm(2, 71, 72), 71);
        assert_eq!(fleet.fault_transitions(), want);
    }

    #[test]
    fn a_server_cold_while_down_comes_back_on_standby() {
        for seals in [false, true] {
            let mut fleet = Fleet::new(&specs(2));
            let s0 = ServerId(0);
            fleet.host(s0, vm(0, 1, 5), 1);
            fleet.set_down(s0, 6);
            // Cold at 5 + 1 + 50 while down: the slot stays down.
            let mut retired = 0.0;
            if seals {
                fleet.seal(60, &mut retired);
            } else {
                fleet.demote(60);
            }
            assert!(fleet.index().is_down(s0));
            fleet.set_up(s0, 60);
            if seals {
                fleet.seal(60, &mut retired);
            } else {
                fleet.demote(60);
            }
            // Standby either way: the replay keeps the history, the
            // online engine has sealed it.
            assert!(fleet.index().is_standby(s0), "seals = {seals}");
            assert_eq!(fleet.ledgers()[0].hosted_count(), u32::from(!seals));
            // Server 0 stands in for its twin: one server visited.
            let scan = fleet.scan(&vm(1, 60, 61), &vm(1, 60, 61), true);
            assert_eq!(scan.best.map(|(_, s)| s), Some(0));
            assert_eq!(
                (scan.candidates, scan.unfit, fleet.index().pruned()),
                (1, 0, 1)
            );
        }
    }

    #[test]
    fn a_gap_filling_server_behind_a_later_tail_is_scored_not_floored() {
        // Server 0 is busy across the piece on [6, 9], so it prices the
        // piece at its run cost exactly. Server 1, of the same class, is
        // busy on [1, 5] and holds a tail on [10, 20], hosted at clock 3
        // as a backoff-delayed repair is. The piece closes the gap
        // between them, and `(run + idle) − gap` rounds one ulp below the
        // run cost: server 1 wins. Its run cost meets server 0's delta,
        // so only the guard, which gives no floor under a segment that
        // starts after the piece, keeps server 1 in the scan.
        let mut fleet = Fleet::new(&specs(2));
        let (s0, s1) = (ServerId(0), ServerId(1));
        fleet.host(s0, vm(0, 1, 20), 1);
        fleet.host(s1, vm(1, 1, 5), 1);
        fleet.host(s1, vm(2, 10, 20), 3);
        let piece = Vm::new(3, Resources::new(1.1, 1.0), Interval::new(6, 9));
        let ledgers = fleet.ledgers();
        let run = ledgers[1].spec().run_cost(&piece);
        let priced: Vec<f64> = ledgers.iter().map(|l| l.incremental_cost(&piece)).collect();
        assert_eq!(priced[0].to_bits(), run.to_bits());
        assert!(priced[1] < run, "{} vs run {run}", priced[1]);
        let scan = fleet.scan(&piece, &piece, true);
        assert_eq!(scan.best, Some((priced[1], 1)));
        assert_eq!((scan.candidates, scan.unfit, scan.floored), (2, 0, 0));
        let floor = ledgers[1].insertion_floor(piece.demand(), piece.interval());
        assert_eq!(floor, None);
    }

    #[test]
    fn a_server_whose_run_cost_meets_the_best_is_floored() {
        // Both servers are busy across the piece and price it at its run
        // cost; the second is passed over before its fit check.
        let mut fleet = Fleet::new(&specs(2));
        fleet.host(ServerId(0), vm(0, 1, 20), 1);
        fleet.host(ServerId(1), vm(1, 1, 20), 1);
        let scan = fleet.scan(&vm(2, 6, 9), &vm(2, 6, 9), true);
        assert_eq!(scan.best.map(|(_, s)| s), Some(0));
        assert_eq!((scan.candidates, scan.unfit, scan.floored), (1, 0, 1));
    }

    #[test]
    fn a_stop_refreshes_the_fit_row_of_a_server_it_frees() {
        // Server 0 is full over [1, 100]. The first scan turns it away
        // at clock 5 and leaves its fit row holding that full window.
        let mut fleet = Fleet::new(&specs(2));
        let s0 = ServerId(0);
        for id in 0..4 {
            fleet.host(s0, vm(id, 1, 100), 1);
        }
        let piece = vm(9, 5, 9);
        let winner = |fleet: &Fleet| {
            let scan = fleet.scan(&piece, &piece, true);
            (scan.best.map(|(_, s)| s), scan.unfit)
        };
        assert_eq!(winner(&fleet), (Some(1), 1));
        // A stop at clock 5 frees 2 CPU from then on: the row must not
        // turn server 0 away from its old window.
        assert!(fleet.stop(s0, VmId(0), 5).is_some());
        assert!(fleet.index().is_active(s0));
        assert_eq!(winner(&fleet), (Some(0), 0));
        // Hosting fills it again.
        fleet.host(s0, piece, 5);
        assert_eq!(winner(&fleet), (Some(1), 1));
    }

    #[test]
    fn a_refreshed_row_holds_the_start_of_the_last_segment() {
        // Each step reads the row at start 4 again, whose window a row
        // left unmarked would still hold.
        let mut fleet = Fleet::new(&specs(2));
        let s0 = ServerId(0);
        let rows = |fleet: &Fleet| {
            let last = fleet.ledgers[0].segments().iter().last().map(|s| s.start());
            (fleet.index.tail(0, &fleet.ledgers, 4), last)
        };
        fleet.host(s0, vm(0, 1, 5), 1);
        assert_eq!(rows(&fleet), (Some(1), Some(1)));
        // A backoff-delayed tail lies after the start.
        fleet.host(s0, vm(1, 12, 20), 3);
        assert_eq!(rows(&fleet), (Some(12), Some(12)));
        // Stopped before it starts, it goes, and so does its segment.
        assert!(fleet.stop(s0, VmId(1), 4).is_some());
        assert_eq!(rows(&fleet), (Some(1), Some(1)));
        fleet.host(s0, vm(2, 9, 30), 4);
        assert_eq!(rows(&fleet), (Some(9), Some(9)));
        // Down at 6, an eviction drops [9, 30], which has not started,
        // while the server has no entry; up, it gets a fresh one.
        assert!(fleet.set_down(s0, 6));
        assert_eq!(fleet.index.tail(0, &fleet.ledgers, 4), None);
        assert_eq!(fleet.evict(s0, 6, Vm::id), [vm(2, 9, 30)]);
        assert!(fleet.set_up(s0, 7));
        assert_eq!(rows(&fleet), (Some(1), Some(1)));
    }

    #[test]
    fn stopping_keeps_the_prefix_and_drops_an_unstarted_piece() {
        let mut fleet = Fleet::new(&specs(2));
        let s0 = ServerId(0);
        fleet.host(s0, vm(0, 1, 10), 1);
        fleet.host(s0, vm(1, 4, 20), 4);
        fleet.host(s0, vm(2, 6, 30), 6);
        assert_eq!(fleet.stop(s0, VmId(1), 21), None, "ended pieces do not run");
        let stopped = fleet.evict(s0, 6, Vm::id);
        assert_eq!(
            stopped.iter().map(Vm::id).collect::<Vec<_>>(),
            [VmId(0), VmId(1), VmId(2)]
        );
        let mut audit = ServerLedger::new(specs(1)[0]);
        audit.host(&vm(0, 1, 5));
        audit.host(&vm(1, 4, 5));
        assert_eq!(fleet.ledgers()[0].hosted_count(), 2);
        assert_eq!(fleet.ledgers()[0].cost().to_bits(), audit.cost().to_bits());
        // Nothing runs on server 0 any more.
        assert!(fleet.evict(s0, 6, Vm::id).is_empty());
        // A piece stopped before it starts leaves an empty ledger, which
        // goes back to standby.
        let s1 = ServerId(1);
        fleet.host(s1, vm(3, 8, 9), 8);
        assert_eq!(fleet.stop(s1, VmId(3), 7), Some(vm(3, 8, 9)));
        assert_eq!(fleet.ledgers()[1].hosted_count(), 0);
        assert!(fleet.index().is_standby(s1));
    }
}

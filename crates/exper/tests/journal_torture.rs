//! Torn-journal torture suite, mirroring the ESVT codec torture tests:
//! truncate a valid journal at **every** byte prefix and bit-flip
//! **every** byte, one at a time. Recovery must either reconstruct a
//! valid event-prefix state or fail with a typed [`JournalError`] —
//! never panic, never silently diverge from the prefix property.

use esvm_core::RepairOutcome;
use esvm_exper::journal::{
    recover_bytes, Answer, JournalError, JournalRecord, JournalWriter, Recovered,
};
use esvm_exper::serve::ServeSession;
use esvm_obs::{MetricsRegistry, NoopTracer};
use esvm_simcore::{Interval, PowerModel, Resources, ServerId, ServerSpec, Vm, VmId};

fn fleet() -> Vec<ServerSpec> {
    (0..3u32)
        .map(|i| {
            ServerSpec::new(
                i,
                Resources::new(8.0, 16.0),
                PowerModel::new(100.0 + f64::from(i), 200.0 + f64::from(i)),
                120.0,
            )
        })
        .collect()
}

/// A journal exercising every record type, built through a real
/// session so the records are mutually consistent.
fn build_journal(path: &std::path::Path) -> Vec<u8> {
    std::fs::remove_file(path).ok();
    let servers = fleet();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
    session.set_journal(Some(JournalWriter::create(path, &servers, 0).unwrap()));
    for line in [
        "REQ 0 1 10 2.0 4.0",
        "REQ 1 1 10 8.0 16.0",
        "DOWN 1",
        "REQ 2 3 4 1.5 2.5",
        "UP 1",
        "REQ 3 4 6 4.0 4.0",
        "DRAIN",
    ] {
        session.handle(line);
    }
    session.finish().unwrap();
    std::fs::read(path).unwrap()
}

/// The reference recovery of the intact journal.
fn baseline(bytes: &[u8]) -> Recovered {
    let rec = recover_bytes(bytes).expect("intact journal recovers");
    assert_eq!(rec.torn_bytes, 0);
    assert!(rec.records.len() >= 8, "one per handled line + checkpoints");
    rec
}

/// Replays `records` through a fresh session; any typed error is fine,
/// a panic is not (the harness would abort the test).
fn replay_survives(servers: &[ServerSpec], records: &[JournalRecord]) {
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(servers, &metrics, &NoopTracer);
    let _ = session.replay(records);
}

#[test]
fn truncation_at_every_prefix_recovers_a_record_prefix_or_typed_error() {
    let path = std::env::temp_dir().join("esvj_torture_truncate.esvj");
    let bytes = build_journal(&path);
    let full = baseline(&bytes);
    for cut in 0..bytes.len() {
        match recover_bytes(&bytes[..cut]) {
            Ok(rec) => {
                // The record list must be an exact prefix of the intact
                // journal's — a torn tail may lose events, never invent
                // or reorder them.
                assert!(
                    rec.records.len() <= full.records.len(),
                    "cut {cut}: more records than the intact journal"
                );
                assert_eq!(
                    rec.records[..],
                    full.records[..rec.records.len()],
                    "cut {cut}: recovered records are not a prefix"
                );
                assert_eq!(rec.servers, full.servers, "cut {cut}");
                assert!(rec.valid_len as usize <= cut, "cut {cut}");
                replay_survives(&rec.servers, &rec.records);
            }
            // Header truncation is a typed error: a journal that ever
            // acknowledged a record has a durable header, so an
            // unreadable header is not a torn tail but real corruption.
            Err(e) => assert!(
                matches!(
                    e,
                    JournalError::BadMagic
                        | JournalError::BadVersion(_)
                        | JournalError::CorruptHeader(_)
                ),
                "cut {cut}: unexpected error {e:?}"
            ),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flips_at_every_byte_recover_a_valid_state_or_typed_error() {
    let path = std::env::temp_dir().join("esvj_torture_flip.esvj");
    let bytes = build_journal(&path);
    let full = baseline(&bytes);
    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut mutated = bytes.clone();
            mutated[pos] ^= bit;
            match recover_bytes(&mutated) {
                Ok(rec) => {
                    // A flip the checksums caught truncates to a prefix;
                    // the fleet must be the intact one (header flips are
                    // caught by the header checksum and never get here).
                    assert_eq!(rec.servers, full.servers, "pos {pos} bit {bit:#x}");
                    assert!(
                        rec.records.len() <= full.records.len(),
                        "pos {pos} bit {bit:#x}"
                    );
                    // Every recovered record must decode to one the
                    // intact journal contains at the same index, except
                    // where the flip landed inside a record payload AND
                    // still checksummed — impossible for FNV-1a with a
                    // single-bit flip over the same length.
                    assert_eq!(
                        rec.records[..],
                        full.records[..rec.records.len()],
                        "pos {pos} bit {bit:#x}: silent divergence"
                    );
                    replay_survives(&rec.servers, &rec.records);
                }
                Err(e) => assert!(
                    matches!(
                        e,
                        JournalError::BadMagic
                            | JournalError::BadVersion(_)
                            | JournalError::CorruptHeader(_)
                            | JournalError::CorruptRecord { .. }
                    ),
                    "pos {pos} bit {bit:#x}: unexpected error {e:?}"
                ),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tampered_records_that_still_decode_are_caught_by_the_checkpoint() {
    // Forge a journal whose records pass their frame checksums but
    // whose content lies about history: the checkpoint verification
    // must catch the divergence as a typed mismatch.
    let path = std::env::temp_dir().join("esvj_torture_forged.esvj");
    std::fs::remove_file(&path).ok();
    let servers = fleet();
    let mut w = JournalWriter::create(&path, &servers, 0).unwrap();
    w.append(&JournalRecord::Arrival(
        Vm::new(0, Resources::new(1.0, 1.0), Interval::new(1, 5)),
        Answer::Placed(ServerId(0)),
    ))
    .unwrap();
    w.append(&JournalRecord::Checkpoint(esvm_exper::journal::Checkpoint {
        clock: 1,
        live: 2, // lie
        placed: 2,
        rejected: 0,
        departed: 0,
        evicted: 0,
        repaired: 0,
        committed_cost_bits: 0,
        retired_cost_bits: 0,
    }))
    .unwrap();
    w.sync().unwrap();
    drop(w);
    let rec = esvm_exper::journal::recover_file(&path).unwrap();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
    let err = session.replay(&rec.records).unwrap_err();
    assert!(
        matches!(err, JournalError::CheckpointMismatch { .. }),
        "{err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn fault_records_for_foreign_fleets_are_typed_corruption() {
    // A DOWN/UP record naming a server outside the header's fleet can
    // only come from tampering (the live session validates the verb
    // before journaling); replay must refuse it, typed.
    let path = std::env::temp_dir().join("esvj_torture_foreign.esvj");
    std::fs::remove_file(&path).ok();
    let servers = fleet();
    for record in [
        JournalRecord::Down {
            server: ServerId(99),
            retries: 3,
            backoff: 2,
        },
        JournalRecord::Up(ServerId(99)),
    ] {
        let mut w = JournalWriter::create(&path, &servers, 0).unwrap();
        w.append(&record).unwrap();
        w.sync().unwrap();
        drop(w);
        let rec = esvm_exper::journal::recover_file(&path).unwrap();
        let metrics = MetricsRegistry::new();
        let mut session = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
        let err = session.replay(&rec.records).unwrap_err();
        assert!(
            matches!(err, JournalError::CorruptRecord { .. }),
            "{record:?} → {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn shed_records_replay_without_touching_the_engine() {
    let servers = fleet();
    let metrics = MetricsRegistry::new();
    let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
    let records = [
        JournalRecord::Arrival(
            Vm::new(0, Resources::new(1.0, 1.0), Interval::new(1, 4)),
            Answer::Placed(ServerId(0)),
        ),
        JournalRecord::Shed(VmId(1)),
        JournalRecord::Shed(VmId(2)),
    ];
    let report = session.replay(&records).unwrap();
    assert_eq!(report.sheds, 2);
    assert_eq!(session.engine().stats().arrivals, 1);
    assert_eq!(
        metrics.counter(esvm_obs::names::serve::OVERLOADED),
        2,
        "sheds restore the overload counter"
    );
}

#[test]
fn decisions_the_engine_could_not_have_made_are_typed_corruption() {
    let servers = fleet();
    let vm = |id, cpu| Vm::new(id, Resources::new(cpu, cpu), Interval::new(1, 10));
    let placed = |id, cpu, s| JournalRecord::Arrival(vm(id, cpu), Answer::Placed(ServerId(s)));
    let down = |s| JournalRecord::Down {
        server: ServerId(s),
        retries: 3,
        backoff: 2,
    };
    let repaired = |id, s| {
        JournalRecord::Repair(
            VmId(id),
            RepairOutcome::Rehosted {
                server: ServerId(s),
                start: 1,
                attempt: 0,
            },
        )
    };
    let path = std::env::temp_dir().join(format!(
        "esvj_torture_decisions_{}.esvj",
        std::process::id()
    ));
    for (records, what) in [
        (vec![placed(0, 1.0, 9)], "a server outside the fleet"),
        (vec![down(2), placed(0, 1.0, 2)], "a down server"),
        (
            vec![placed(0, 6.0, 1), placed(1, 6.0, 1)],
            "a server it does not fit",
        ),
        (
            vec![placed(0, 1.0, 0), down(0), repaired(0, 9)],
            "a repair outside the fleet",
        ),
        (
            vec![placed(0, 1.0, 0), down(0), repaired(0, 0)],
            "a repair onto the down server",
        ),
        (
            vec![
                placed(0, 6.0, 0),
                placed(1, 6.0, 1),
                down(0),
                repaired(0, 1),
            ],
            "a repair onto a server it does not fit",
        ),
        (
            vec![placed(0, 1.0, 0), down(0)],
            "a DOWN without its repair",
        ),
        (
            vec![placed(0, 1.0, 0), down(0), repaired(5, 1)],
            "a repair of another VM",
        ),
        (vec![repaired(0, 1)], "a repair no DOWN evicted"),
        (vec![JournalRecord::Req(vm(0, 1.0))], "a bare request"),
        (
            vec![JournalRecord::Arrival(vm(0, 1.0), Answer::Duplicate)],
            "a refusal that does not hold",
        ),
        (
            vec![
                placed(0, 1.0, 0),
                JournalRecord::Arrival(vm(0, 1.0), Answer::Rejected),
            ],
            "a decision on a duplicate id",
        ),
    ] {
        // Written and read back as recovery reads it, one line per frame.
        let mut w = JournalWriter::create(&path, &servers, 0).unwrap();
        w.append_line(&records).unwrap();
        w.sync().unwrap();
        drop(w);
        let rec = esvm_exper::journal::recover_file(&path).unwrap();
        assert_eq!(rec.records, records, "{what}");
        let metrics = MetricsRegistry::new();
        let mut session = ServeSession::new(&rec.servers, &metrics, &NoopTracer);
        let err = session.replay(&rec.records).unwrap_err();
        assert!(
            matches!(err, JournalError::CorruptRecord { .. }),
            "{what}: {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_version_2_journal_is_refused_typed() {
    let path = std::env::temp_dir().join("esvj_torture_v2.esvj");
    let mut bytes = build_journal(&path);
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(recover_bytes(&bytes), Err(JournalError::BadVersion(2)));
    std::fs::remove_file(&path).ok();
}

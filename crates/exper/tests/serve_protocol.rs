//! Adversarial property tests for the `esvm serve` line protocol.
//!
//! A hardened server has exactly three behaviours per request line:
//! a decision (`PLACED`/`REJECTED`), a typed `ERR` reply, or silence
//! on blanks and comments. These tests mutate well-formed request
//! streams — corrupted fields, truncation, duplicated and deleted
//! lines, arbitrary bytes and overlong lines on the wire — and assert
//! the session never panics, never emits anything outside the reply
//! grammar, and keeps serving after every error.

use std::collections::HashMap;

use esvm_exper::serve::{parse_request, serve_lines, Request, ServeSession, MAX_LINE_BYTES};
use esvm_obs::{CollectingTracer, MetricsRegistry, NoopTracer};
use esvm_simcore::{PowerModel, Resources, ServerSpec};
use proptest::prelude::*;

#[path = "../../../tests/support/pieces.rs"]
mod pieces;
use pieces::Pieces;

/// Garbage values a corrupted field can take, including the ones that
/// would reach `Resources::new`/`Interval::with_len` asserts if the
/// parser validated after construction instead of before.
const GARBAGE: [&str; 12] = [
    "NaN", "-NaN", "inf", "-inf", "-1", "1e999", "0x10", "", "foo", "1.5.3",
    "99999999999999999999", "4294967295",
];

fn fleet() -> Vec<ServerSpec> {
    (0..4u32)
        .map(|i| {
            ServerSpec::new(
                i,
                Resources::new(8.0, 16.0),
                PowerModel::new(100.0, 200.0),
                120.0,
            )
        })
        .collect()
}

/// A well-formed request stream: staggered arrivals that mostly fit.
fn valid_stream(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("REQ {i} {} {} 2.0 4.0", i + 1, 5 + i % 7))
        .collect()
}

/// A well-formed stream interleaving arrivals with fault verbs. It ends
/// long after every earlier piece, with a repaired tail and an outage
/// inside a gap that idles (`P_idle` 100 < `α` 120): server 0 runs
/// [10000, 10000], is down over [10001, 10002) while VM 90002's tail
/// moves to server 1, and hosts [10002, 10003], which does not fit on
/// server 1. That outage forces one switch-on worth 120 − 100.
fn faulty_stream(n: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..n {
        lines.push(format!("REQ {i} {} {} 2.0 4.0", i + 1, 5 + i % 7));
        match i % 5 {
            1 => lines.push(format!("DOWN {}", i % 4)),
            3 => lines.push(format!("UP {}", i % 4)),
            _ => {}
        }
    }
    lines.extend(
        [
            "REQ 90001 10000 1 2.0 4.0",
            "REQ 90002 10001 3 2.0 4.0",
            "DOWN 0",
            "REQ 90003 10002 1 2.0 4.0",
            "UP 0",
            "REQ 90004 10002 2 5.0 10.0",
        ]
        .map(str::to_owned),
    );
    lines
}

fn mutate(lines: &[String], line: usize, field: usize, garbage: usize, mode: usize) -> Vec<String> {
    if lines.is_empty() {
        return Vec::new();
    }
    let line = line % lines.len();
    let mut out = lines.to_vec();
    match mode % 4 {
        // Replace one space-separated field with garbage.
        0 => {
            let mut fields: Vec<String> =
                out[line].split_whitespace().map(str::to_owned).collect();
            let field = field % fields.len();
            fields[field] = GARBAGE[garbage % GARBAGE.len()].to_owned();
            out[line] = fields.join(" ");
        }
        // Truncate mid-line.
        1 => {
            let cut = out[line].len() / 2;
            out[line].truncate(cut);
        }
        // Duplicate a line verbatim (duplicate-id injection).
        2 => {
            let dup = out[line].clone();
            out.insert(line, dup);
        }
        // Delete a line (skipped ids, reordered stream).
        _ => {
            out.remove(line);
        }
    }
    out
}

/// The full reply grammar; anything else is a protocol break.
fn reply_is_well_formed(reply: &str) -> bool {
    reply.starts_with("PLACED ")
        || reply.starts_with("REJECTED ")
        || reply.starts_with("ERR ")
        || reply.starts_with("STATS ")
        || reply.starts_with("DRAINED ")
        || reply.starts_with("DOWNED ")
        || reply.starts_with("UPPED ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single mutation of a valid stream yields only well-formed
    /// replies, never a panic, and the session keeps serving.
    #[test]
    fn mutated_streams_never_break_the_session(
        line in 0usize..10_000,
        field in 0usize..8,
        garbage in 0usize..GARBAGE.len(),
        mode in 0usize..4,
    ) {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);

        let stream = mutate(&valid_stream(12), line, field, garbage, mode);
        for request in &stream {
            if let Some(reply) = session.handle(request) {
                prop_assert!(
                    reply_is_well_formed(&reply),
                    "unexpected reply {reply:?} to {request:?}"
                );
                prop_assert!(!reply.contains('\n'), "reply must be one line");
            }
        }

        // The session survives: a fresh, valid request still gets a
        // decision, and the control verbs still answer.
        let probe = session.handle("REQ 50000 4000 5 1.0 2.0");
        prop_assert!(
            matches!(probe.as_deref(), Some(r) if r == "PLACED 50000 0"
                || r.starts_with("PLACED 50000 ") || r == "REJECTED 50000"),
            "session did not survive: {probe:?}"
        );
        let stats = session.handle("STATS").expect("STATS always replies");
        prop_assert!(stats.starts_with("STATS "), "{stats}");
        let drained = session.handle("DRAIN").expect("DRAIN always replies");
        prop_assert!(drained.starts_with("DRAINED "), "{drained}");
    }

    /// Stacked mutations (up to 5) behave the same, and every `ERR`
    /// carries a kebab-case code.
    #[test]
    fn stacked_mutations_yield_typed_errors(
        edits in proptest::collection::vec(
            (0usize..10_000, 0usize..8, 0usize..GARBAGE.len(), 0usize..4),
            1..6,
        ),
    ) {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);

        let mut stream = valid_stream(10);
        for &(line, field, garbage, mode) in &edits {
            stream = mutate(&stream, line, field, garbage, mode);
        }
        let mut errors = 0u64;
        for request in &stream {
            match session.handle(request) {
                Some(reply) if reply.starts_with("ERR ") => {
                    errors += 1;
                    let code = reply.split_whitespace().nth(1).unwrap_or("");
                    prop_assert!(
                        !code.is_empty()
                            && code.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                        "ERR code must be kebab-case: {reply:?}"
                    );
                }
                Some(reply) => prop_assert!(reply_is_well_formed(&reply), "{reply:?}"),
                None => {}
            }
        }
        prop_assert_eq!(
            metrics.counter(esvm_obs::names::serve::PROTOCOL_ERRORS),
            errors,
            "every ERR reply is counted exactly once"
        );
    }

    /// Mutated streams that interleave DOWN/UP fault verbs never panic,
    /// never break the grammar, and keep the energy books: after every
    /// line the committed cost and the fault transition energy are those
    /// of the piece schedule rebuilt from the replies and the explain
    /// records, audited on fresh ledgers.
    #[test]
    fn mutated_fault_streams_conserve_energy(
        line in 0usize..10_000,
        field in 0usize..8,
        garbage in 0usize..GARBAGE.len(),
        mode in 0usize..4,
    ) {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let tracer = CollectingTracer::new();
        let mut session = ServeSession::new(&servers, &metrics, &tracer);

        let stream = mutate(&faulty_stream(14), line, field, garbage, mode);
        let (mut replies, mut placed) = (Vec::new(), HashMap::new());
        for request in &stream {
            if let Some(reply) = session.handle(request) {
                prop_assert!(
                    reply_is_well_formed(&reply),
                    "unexpected reply {reply:?} to {request:?}"
                );
                if let (true, Ok(Some(Request::Req(vm)))) =
                    (reply.starts_with("PLACED "), parse_request(request))
                {
                    placed.insert(vm.id(), vm);
                }
                replies.push(reply);
            }
            // The books hold after *every* event, not just at the end.
            let records: Vec<_> = tracer.explains().into_iter().map(|e| e.record).collect();
            let pieces = Pieces::from_session(&servers, &replies, &records, |id| placed[&id]);
            let engine = session.engine();
            pieces.check(
                engine.committed_cost(),
                engine.fault_transitions(),
                &format!("after {request:?}"),
            );
        }
        // Fault verbs still answer after the abuse.
        let down = session.handle("DOWN 0").expect("DOWN replies");
        prop_assert!(down.starts_with("DOWNED 0 "), "{down}");
        let up = session.handle("UP 0").expect("UP replies");
        prop_assert_eq!(up.as_str(), "UPPED 0");
    }

    /// Arbitrary bytes spliced into a valid wire stream — invalid
    /// UTF-8, stray `\r` and NUL, and lines around the length cap —
    /// never end the session: `serve_lines` returns `Ok`, every reply
    /// is one well-formed UTF-8 line, every `ERR` is counted, and the
    /// session serves the next connection's requests.
    #[test]
    fn arbitrary_bytes_never_end_the_session(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        at in 0usize..10_000,
        run in 0usize..(2 * MAX_LINE_BYTES + 2),
        fill in 0u8..=255,
    ) {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);

        let mut wire = valid_stream(8).join("\n").into_bytes();
        wire.push(b'\n');
        let at = at % (wire.len() + 1);
        let mut garbage = bytes;
        // A run of one byte value: with `run` near the cap this probes
        // both sides of it (and a newline fill splits it into blanks).
        garbage.extend(std::iter::repeat_n(fill, run));
        wire.splice(at..at, garbage);

        let mut out = Vec::new();
        serve_lines(&wire[..], &mut out, &mut session).expect("bad bytes are not I/O errors");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let mut errors = 0u64;
        for reply in text.lines() {
            prop_assert!(reply_is_well_formed(reply), "unexpected reply {reply:?}");
            if reply.starts_with("ERR ") {
                errors += 1;
            }
        }
        prop_assert_eq!(
            metrics.counter(esvm_obs::names::serve::PROTOCOL_ERRORS),
            errors,
            "every ERR reply is counted exactly once"
        );

        let mut out = Vec::new();
        serve_lines(&b"REQ 50000 4000000000 5 1.0 2.0\nSTATS\n"[..], &mut out, &mut session)
            .expect("the session keeps serving");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let replies: Vec<&str> = text.lines().collect();
        prop_assert_eq!(replies.len(), 2, "{}", text);
        prop_assert!(
            replies[0].starts_with("PLACED 50000 ") || replies[0] == "REJECTED 50000",
            "session did not survive: {}", replies[0]
        );
        prop_assert!(replies[1].starts_with("STATS "), "{}", replies[1]);
    }

    /// Bounded admission: for any queue cap, a burst admits exactly
    /// `min(cap, len)` requests, sheds the rest with `ERR overloaded`,
    /// and shed ids remain admissible later (the engine never saw them).
    #[test]
    fn bursts_respect_any_queue_cap(cap in 0usize..12, burst_len in 1usize..16) {
        use esvm_exper::serve::ServeConfig;
        use esvm_simcore::{Interval, Vm};
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer)
            .with_config(ServeConfig { queue_cap: cap, ..ServeConfig::default() });
        let vms: Vec<Vm> = (0..burst_len as u32)
            .map(|i| Vm::new(i, Resources::new(0.5, 0.5), Interval::new(1, 4)))
            .collect();
        let replies = session.burst(vms);
        prop_assert_eq!(replies.len(), burst_len);
        let admitted = replies.iter().filter(|r| !r.starts_with("ERR overloaded")).count();
        prop_assert_eq!(admitted, cap.min(burst_len));
        prop_assert_eq!(
            metrics.counter(esvm_obs::names::serve::OVERLOADED),
            (burst_len - cap.min(burst_len)) as u64
        );
        // A shed id is not burned: it can be admitted at a calmer time.
        if cap < burst_len {
            let id = cap as u32; // first shed id
            let retry = session.handle(&format!("REQ {id} 2 3 0.5 0.5")).unwrap();
            prop_assert!(retry.starts_with(&format!("PLACED {id} ")), "{retry}");
        }
    }
}

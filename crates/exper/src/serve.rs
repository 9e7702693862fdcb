//! The `esvm serve` online allocation loop and its line protocol.
//!
//! A session wraps an [`OnlineEngine`] behind a newline-delimited text
//! protocol, one request per line, one reply per request:
//!
//! ```text
//! REQ <id> <start> <dur> <cpu> <mem>   →  PLACED <id> <server>
//!                                      |  REJECTED <id>
//!                                      |  ERR <code> <detail>
//! DOWN <server>                        →  DOWNED <server> evicted=… repaired=… shed=…
//! UP <server>                          →  UPPED <server>
//! STATS                                →  STATS requests=… placed=… …
//! DRAIN                                →  DRAINED departed=<n>
//! ```
//!
//! `id`, `start` and `dur` are unsigned integers (`dur ≥ 1` time
//! units), `cpu`/`mem` finite non-negative decimals — validated by the
//! *same* [`fields`] functions as the text-trace parser, so nothing
//! reachable from the wire is weaker-checked than file ingestion.
//! Blank lines and `#` comments are ignored without a reply. Malformed
//! input of any kind — unknown verbs, missing fields, NaN demands,
//! negative durations, overflow-scale starts — earns a typed `ERR`
//! reply and leaves the session fully usable; nothing on the wire can
//! panic or poison the engine. Every accepted `REQ` is timed and lands
//! in the [`serve.decision_us`](esvm_obs::names::serve::DECISION_US)
//! histogram, so `--metrics-out` reports p50/p95/p99 per-decision
//! latency and `--trace-out` carries the engine's `online.decision`
//! spans.
//!
//! ## Fault verbs and repair
//!
//! `DOWN <server>` evicts the server's live VMs and runs each through
//! the engine's chaos-style bounded-backoff
//! [`repair`](OnlineEngine::repair_traced) path (configured by
//! [`ServeConfig::max_retries`]/[`backoff`](ServeConfig::backoff));
//! `UP <server>` returns it to the argmin scan. Both reply with typed
//! `ERR unknown-server` for an out-of-fleet id and never panic, so a
//! seeded [`FaultPlan`](esvm_chaos::FaultPlan) can be drilled against
//! a *live* session ([`feed_problem_with_faults`], `esvm chaos
//! --live`) instead of only against offline replay.
//!
//! ## Overload protection
//!
//! Arrivals that land in the same time step form a burst; the session
//! admits at most [`ServeConfig::queue_cap`] of them and answers the
//! rest `ERR overloaded` ([`ServeSession::burst`]) — bounded
//! backpressure instead of unbounded queueing latency. Line-at-a-time
//! feeds ([`serve_lines`]) are naturally paced by the wire and are
//! never shed.
//!
//! ## Durability
//!
//! With a [`JournalWriter`] attached, every state-changing line
//! (admitted `REQ`, `DOWN`, `UP`, `DRAIN`, overload shed) is journaled
//! as its outcome — the server, rejection or refusal of a `REQ`, the
//! repair of each VM a `DOWN` evicted — after the engine decided and
//! before the reply is queued. [`ServeSession::replay`] rebuilds a
//! crashed session by hosting the recorded decisions again, without
//! deciding, and verifies any [`Checkpoint`](crate::journal::Checkpoint)
//! snapshots along the way. A failed append ends the session: the
//! engine has already moved, so the line is answered `ERR journal-io`,
//! nothing more is served, and the journal is cut back to the state
//! before that line. See the [`journal`](crate::journal) module for the
//! format and recovery rules.
//!
//! ## Reply batching
//!
//! [`serve_lines`] answers every request in order, but a pipelining
//! client's replies leave in batches: each reply is queued in a
//! buffered writer, and the batch is flushed as soon as no complete
//! request line is left in the read buffer (the next read may block,
//! so a closed-loop client gets its reply at once) or holding it for
//! one more request would age its oldest reply past a 20 µs hold
//! budget. A reply therefore waits at most the budget plus one
//! request's handling beyond its own, and a request slower than the
//! budget flushes alone. Decisions and reply bytes do not depend on
//! the batching; only when the bytes leave does.
//!
//! Feeds: [`serve_lines`] drives a session from any [`Read`] (stdin,
//! a Unix socket, a file of `REQ` lines); [`feed_problem_with_faults`]
//! replays a fully materialised problem, with or without faults;
//! [`feed_records`] streams an ESVT trace through
//! [`TraceReader::records`] without materialising the VM list.
//!
//! [`TraceReader::records`]: esvm_workload::TraceReader::records
//! [`fields`]: esvm_workload::trace::fields

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::time::{Duration, Instant};

use esvm_chaos::{FaultEvent, FaultPlan};
use esvm_core::{OnlineDecision, OnlineEngine, OnlineError, Recorded, RepairOutcome};
use esvm_obs::names::serve as names;
use esvm_obs::{MetricsRegistry, Tracer};
use esvm_simcore::{Resources, ServerId, ServerSpec, Vm, MAX_TIME};
use esvm_workload::trace::fields;

use crate::journal::{Answer, Checkpoint, JournalError, JournalRecord, JournalWriter};

/// A parsed protocol line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// `REQ id start dur cpu mem` — an arrival needing a decision.
    Req(Vm),
    /// `DOWN server` — fault injection: evict and repair.
    Down(ServerId),
    /// `UP server` — recovery: the server rejoins the argmin.
    Up(ServerId),
    /// `STATS` — one-line session summary.
    Stats,
    /// `DRAIN` — depart every live VM.
    Drain,
}

/// Typed protocol failures; rendered on the wire as
/// `ERR <kebab-code> <detail>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// First word of the line is not a known verb.
    UnknownVerb(String),
    /// A verb had the wrong number of fields.
    FieldCount {
        /// The verb.
        verb: &'static str,
        /// The grammar it expected.
        want: &'static str,
        /// Fields found on the line (after the verb).
        got: usize,
    },
    /// A field failed numeric validation (unparseable, NaN, negative,
    /// or beyond the representable range).
    BadNumber {
        /// Field name from the grammar.
        field: &'static str,
        /// The offending token.
        value: String,
    },
    /// `start`/`dur` describe an interval outside `[0, MAX_TIME]`.
    BadInterval {
        /// Requested start.
        start: u64,
        /// Requested duration.
        dur: u64,
    },
    /// The bounded admission queue is full; the request was shed.
    Overloaded {
        /// The shed request's id.
        id: u32,
        /// The queue capacity in force.
        cap: usize,
    },
    /// The journal could not record a line the engine had already
    /// applied, so the session ends (see [`ServeSession`]).
    Journal(String),
    /// The engine refused the event (duplicate id, time travel, …).
    Online(OnlineError),
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line exceeds [`MAX_LINE_BYTES`]; the rest of it was skipped.
    LineTooLong,
}

impl ProtocolError {
    /// The stable kebab-case error code of the `ERR` reply.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::UnknownVerb(_) => "unknown-verb",
            ProtocolError::FieldCount { .. } => "field-count",
            ProtocolError::BadNumber { .. } => "bad-number",
            ProtocolError::BadInterval { .. } => "bad-interval",
            ProtocolError::Overloaded { .. } => "overloaded",
            ProtocolError::Journal(_) => "journal-io",
            ProtocolError::InvalidUtf8 => "invalid-utf8",
            ProtocolError::LineTooLong => "line-too-long",
            ProtocolError::Online(OnlineError::DuplicateVm(_)) => "duplicate-id",
            ProtocolError::Online(OnlineError::OutOfOrder { .. }) => "out-of-order",
            ProtocolError::Online(OnlineError::UnknownVm(_)) => "unknown-id",
            ProtocolError::Online(OnlineError::UnknownServer(_)) => "unknown-server",
            ProtocolError::Online(_) => "online",
        }
    }

    /// The full wire reply for this error.
    pub fn reply(&self) -> String {
        format!("ERR {} {}", self.code(), self)
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownVerb(verb) => {
                write!(
                    f,
                    "unknown verb {verb:?}; expected REQ, DOWN, UP, STATS or DRAIN"
                )
            }
            ProtocolError::FieldCount { verb, want, got } => {
                write!(f, "{verb} needs {want}, got {got}")
            }
            ProtocolError::BadNumber { field, value } => {
                write!(f, "field {field} cannot be {value:?}")
            }
            ProtocolError::BadInterval { start, dur } => write!(
                f,
                "interval start={start} dur={dur} exceeds the horizon cap {MAX_TIME}"
            ),
            ProtocolError::Overloaded { id, cap } => {
                write!(f, "admission queue full (cap {cap}); request {id} shed")
            }
            ProtocolError::Journal(e) => write!(f, "journal append failed, the session ends: {e}"),
            ProtocolError::Online(e) => write!(f, "{e}"),
            ProtocolError::InvalidUtf8 => f.write_str("line is not valid UTF-8"),
            ProtocolError::LineTooLong => {
                write!(f, "line longer than {MAX_LINE_BYTES} bytes skipped")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

fn parse_u32(field: &'static str, token: &str) -> Result<u32, ProtocolError> {
    fields::parse_u32(field, token).map_err(|e| ProtocolError::BadNumber {
        field: e.field,
        value: e.value,
    })
}

fn parse_demand(field: &'static str, token: &str) -> Result<f64, ProtocolError> {
    fields::parse_demand(field, token).map_err(|e| ProtocolError::BadNumber {
        field: e.field,
        value: e.value,
    })
}

/// Parses one protocol line. `Ok(None)` means the line carries nothing
/// (blank or `#` comment) and deserves no reply.
pub fn parse_request(line: &str) -> Result<Option<Request>, ProtocolError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().expect("non-empty line has a first token");
    match verb {
        "STATS" => Ok(Some(Request::Stats)),
        "DRAIN" => Ok(Some(Request::Drain)),
        "DOWN" | "UP" => {
            let rest: Vec<&str> = tokens.collect();
            if rest.len() != 1 {
                return Err(ProtocolError::FieldCount {
                    verb: if verb == "DOWN" { "DOWN" } else { "UP" },
                    want: "1 field (server)",
                    got: rest.len(),
                });
            }
            let server = ServerId(parse_u32("server", rest[0])?);
            Ok(Some(if verb == "DOWN" {
                Request::Down(server)
            } else {
                Request::Up(server)
            }))
        }
        "REQ" => {
            let rest: Vec<&str> = tokens.collect();
            if rest.len() != 5 {
                return Err(ProtocolError::FieldCount {
                    verb: "REQ",
                    want: "5 fields (id start dur cpu mem)",
                    got: rest.len(),
                });
            }
            let id = parse_u32("id", rest[0])?;
            let start = parse_u32("start", rest[1])?;
            let dur = parse_u32("dur", rest[2])?;
            let cpu = parse_demand("cpu", rest[3])?;
            let mem = parse_demand("mem", rest[4])?;
            if dur == 0 {
                return Err(ProtocolError::BadNumber {
                    field: "dur",
                    value: rest[2].to_owned(),
                });
            }
            // Check in u64 so `start + dur` itself cannot overflow,
            // then the shared interval validator seals the invariants
            // `Interval::new` would otherwise assert.
            let end = start as u64 + dur as u64 - 1;
            if end > MAX_TIME as u64 {
                return Err(ProtocolError::BadInterval {
                    start: start as u64,
                    dur: dur as u64,
                });
            }
            let interval =
                fields::checked_interval(start, end as u32).map_err(|e| ProtocolError::BadNumber {
                    field: e.field,
                    value: e.value,
                })?;
            Ok(Some(Request::Req(Vm::new(
                id,
                Resources::new(cpu, mem),
                interval,
            ))))
        }
        other => Err(ProtocolError::UnknownVerb(other.to_owned())),
    }
}

/// Session knobs beyond the fleet: overload and repair behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Arrivals admitted per simultaneous burst before `ERR
    /// overloaded` shedding kicks in ([`ServeSession::burst`]).
    /// `usize::MAX` (the default) never sheds.
    pub queue_cap: usize,
    /// Repair retries after the immediate re-place attempt for each
    /// VM evicted by a `DOWN` verb.
    pub max_retries: u32,
    /// Base backoff (time units) of the exponential retry schedule.
    pub backoff: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: usize::MAX,
            max_retries: 3,
            backoff: 2,
        }
    }
}

/// Tallies of one [`ServeSession::replay`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records applied in total.
    pub records: usize,
    /// Arrival records re-hosted.
    pub requests: u64,
    /// `DOWN`/`UP` records re-applied (a `DOWN` with its repairs).
    pub faults: u64,
    /// Overload sheds restored (counter only; the engine never saw
    /// them).
    pub sheds: u64,
    /// Checkpoint records verified against the replayed state.
    pub checkpoints: u64,
}

/// Tallies of one live fault drill ([`feed_problem_with_faults`]).
#[derive(Debug, Clone, Default)]
pub struct DrillReport {
    /// One wire reply per arrival and per fault event, in feed order.
    pub replies: Vec<String>,
    /// `DOWN` events applied.
    pub downs: u64,
    /// `UP` events applied.
    pub ups: u64,
}

/// One online serving session: engine + instrumentation + durability.
///
/// A session whose journal failed has ended: the line that failed was
/// answered `ERR journal-io`, every later line gets the same answer
/// without reaching the engine, [`finish`](Self::finish) fails, and
/// [`serve_lines`] stops with an error.
pub struct ServeSession<'a, T: Tracer> {
    engine: OnlineEngine,
    metrics: &'a MetricsRegistry,
    tracer: &'a T,
    config: ServeConfig,
    journal: Option<JournalWriter>,
    /// (appends, fsyncs) already mirrored into the metric counters.
    journal_counted: (u64, u64),
    /// The journal failure that ended the session, once one has.
    ended: Option<ProtocolError>,
}

impl<'a, T: Tracer> ServeSession<'a, T> {
    /// A fresh session over `servers`, recording per-decision latency
    /// into `metrics` and decision provenance into `tracer`.
    pub fn new(servers: &[ServerSpec], metrics: &'a MetricsRegistry, tracer: &'a T) -> Self {
        Self {
            engine: OnlineEngine::new(servers),
            metrics,
            tracer,
            config: ServeConfig::default(),
            journal: None,
            journal_counted: (0, 0),
            ended: None,
        }
    }

    /// Replaces the session knobs (builder style).
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// The session knobs in force.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Attaches (or detaches) the journal. Subsequent state-changing
    /// lines are journaled once applied, before they are answered.
    pub fn set_journal(&mut self, journal: Option<JournalWriter>) {
        self.journal_counted = journal
            .as_ref()
            .map(|w| (w.appends(), w.fsyncs()))
            .unwrap_or((0, 0));
        self.journal = journal;
    }

    /// The engine, for post-session inspection.
    pub fn engine(&self) -> &OnlineEngine {
        &self.engine
    }

    /// Journals the records of one line as one frame, then makes them
    /// durable when `sync` is set (no-op when no journal is attached).
    /// The writer's append/fsync counters are mirrored into the metrics
    /// registry only when a durability barrier fires — per-append
    /// registry lookups would tax every decision; at group-commit
    /// boundaries (and at [`finish`](Self::finish)) the counters are
    /// exact. A failure ends the session: the writer is
    /// [`abandon`](JournalWriter::abandon)ed at the line's start.
    fn journal_line(&mut self, records: &[JournalRecord], sync: bool) -> Result<(), ProtocolError> {
        let Some(w) = self.journal.as_mut() else {
            return Ok(());
        };
        let start = w.end();
        let written = w
            .append_line(records)
            .and_then(|()| if sync { w.sync() } else { Ok(()) });
        if let Err(e) = written {
            if let Some(w) = self.journal.take() {
                w.abandon(start);
            }
            let e = ProtocolError::Journal(e.to_string());
            self.ended = Some(e.clone());
            return Err(e);
        }
        if w.fsyncs() != self.journal_counted.1 {
            let counted = (w.appends(), w.fsyncs());
            self.metrics
                .add(names::JOURNAL_APPENDS, counted.0 - self.journal_counted.0);
            self.metrics
                .add(names::JOURNAL_FSYNCS, counted.1 - self.journal_counted.1);
            self.journal_counted = counted;
        }
        Ok(())
    }

    /// The journal failure that ended the session, if one has.
    fn journal_failure(&self) -> Option<&ProtocolError> {
        self.ended.as_ref()
    }

    /// The answer to any line once the session has ended.
    fn ended_reply(&self) -> Option<String> {
        let e = self.ended.as_ref()?;
        self.metrics.add(names::PROTOCOL_ERRORS, 1);
        Some(e.reply())
    }

    /// The engine-state snapshot a graceful shutdown journals.
    fn checkpoint(&self) -> Checkpoint {
        let s = self.engine.stats();
        Checkpoint {
            clock: self.engine.clock(),
            live: self.engine.live_count() as u64,
            placed: s.placed,
            rejected: s.rejected,
            departed: s.departed,
            evicted: s.evicted,
            repaired: s.repaired,
            committed_cost_bits: self.engine.committed_cost().to_bits(),
            retired_cost_bits: self.engine.retired_cost().to_bits(),
        }
    }

    /// Graceful shutdown: journals a final checkpoint record and
    /// fsyncs, so a restart can verify the recovered state bit-exactly.
    /// No-op without a journal.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal append or sync, or the failure that
    /// ended the session.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if let Some(e) = &self.ended {
            return Err(std::io::Error::other(e.to_string()));
        }
        if self.journal.is_none() {
            return Ok(());
        }
        let record = JournalRecord::Checkpoint(self.checkpoint());
        self.journal_line(&[record], true)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Feeds one arrival through the timed decision path, journals the
    /// decision and returns the wire reply.
    pub fn request(&mut self, vm: Vm) -> String {
        if let Some(reply) = self.ended_reply() {
            return reply;
        }
        self.metrics.add(names::REQUESTS, 1);
        let t0 = Instant::now();
        let decision = self.engine.arrive_traced(vm, self.tracer);
        self.metrics
            .observe(names::DECISION_US, t0.elapsed().as_secs_f64() * 1e6);
        // A session without a journal builds no record.
        if self.journal.is_some() {
            if let Some(answer) = Answer::of(&decision) {
                if let Err(e) = self.journal_line(&[JournalRecord::Arrival(vm, answer)], false) {
                    return self.reject(&e);
                }
            }
        }
        match decision {
            Ok(OnlineDecision::Placed(sid)) => {
                self.metrics.add(names::PLACED, 1);
                format!("PLACED {} {}", vm.id().0, sid.0)
            }
            Ok(OnlineDecision::Rejected) => {
                self.metrics.add(names::REJECTED, 1);
                format!("REJECTED {}", vm.id().0)
            }
            Err(e) => self.reject(&ProtocolError::Online(e)),
        }
    }

    /// Sheds one request from a full admission queue: journaled (the
    /// reply promises the engine never saw it, and recovery must keep
    /// that promise), counted, answered `ERR overloaded`.
    fn shed(&mut self, vm: Vm) -> String {
        if let Some(reply) = self.ended_reply() {
            return reply;
        }
        if let Err(e) = self.journal_line(&[JournalRecord::Shed(vm.id())], false) {
            return self.reject(&e);
        }
        self.metrics.add(names::OVERLOADED, 1);
        ProtocolError::Overloaded {
            id: vm.id().0,
            cap: self.config.queue_cap,
        }
        .reply()
    }

    /// Feeds a burst of simultaneous arrivals through the bounded
    /// admission queue: the first [`ServeConfig::queue_cap`] are
    /// admitted in order, the rest are shed with `ERR overloaded`.
    /// Returns one reply per input, in input order.
    pub fn burst(&mut self, vms: impl IntoIterator<Item = Vm>) -> Vec<String> {
        let cap = self.config.queue_cap;
        vms.into_iter()
            .enumerate()
            .map(|(i, vm)| {
                if i < cap {
                    self.request(vm)
                } else {
                    self.shed(vm)
                }
            })
            .collect()
    }

    /// Applies a `DOWN` fault: evict, repair each victim through the
    /// bounded-backoff path, journal the outcomes, reply.
    pub fn fault_down(&mut self, server: ServerId) -> String {
        if let Some(reply) = self.ended_reply() {
            return reply;
        }
        let (retries, backoff) = (self.config.max_retries, self.config.backoff);
        let victims = match self.engine.set_down(server) {
            Ok(victims) => victims,
            Err(e) => return self.reject(&ProtocolError::Online(e)),
        };
        self.metrics.add(names::EVICTED, victims.len() as u64);
        let mut line = Vec::with_capacity(1 + victims.len());
        line.push(JournalRecord::Down {
            server,
            retries,
            backoff,
        });
        let (mut repaired, mut shed) = (0u64, 0u64);
        for vm in &victims {
            let outcome = self
                .engine
                .repair_traced(*vm, retries, backoff, self.tracer);
            match outcome {
                RepairOutcome::Rehosted { .. } => repaired += 1,
                RepairOutcome::Shed => shed += 1,
            }
            line.push(JournalRecord::Repair(vm.id(), outcome));
        }
        if let Err(e) = self.journal_line(&line, false) {
            return self.reject(&e);
        }
        format!(
            "DOWNED {} evicted={} repaired={repaired} shed={shed}",
            server.0,
            victims.len()
        )
    }

    /// Applies an `UP` recovery: restore, journal, reply.
    pub fn fault_up(&mut self, server: ServerId) -> String {
        if let Some(reply) = self.ended_reply() {
            return reply;
        }
        if let Err(e) = self.engine.set_up(server) {
            return self.reject(&ProtocolError::Online(e));
        }
        if let Err(e) = self.journal_line(&[JournalRecord::Up(server)], false) {
            return self.reject(&e);
        }
        format!("UPPED {}", server.0)
    }

    /// Rebuilds a crashed session from its recovered journal records by
    /// hosting each recorded decision again, without deciding: an
    /// arrival passes `arrive`'s preconditions, moves the clock and is
    /// hosted on its recorded server after a `fits` check, and each
    /// repair a `DOWN` holds is hosted at its recorded restart
    /// ([`OnlineEngine::rehost`]). These are the `Fleet::host` calls the
    /// decisions made, in the same order, so ledgers, cost bits and
    /// every checkpoint field equal the crashed session's by
    /// construction. Checkpoint records are verified field-by-field —
    /// costs by `f64::to_bits` — against the rebuilt state; a mismatch
    /// is a typed [`JournalError::CheckpointMismatch`]. The counters of
    /// requests, placements, rejections and refusals are restored; the
    /// decision-latency histogram and the trace only see decisions this
    /// process makes.
    ///
    /// An attached journal is suspended for the duration so replay
    /// never re-journals its own input.
    ///
    /// # Errors
    ///
    /// [`JournalError::CorruptRecord`] for a record the live session
    /// could never have written: a bare `REQ`, a decision naming a
    /// server outside the fleet, a down server or one the piece does not
    /// fit, a `DOWN` whose repairs do not follow it, or a repair
    /// outside one. A checkpoint mismatch as above.
    pub fn replay(&mut self, records: &[JournalRecord]) -> Result<ReplayReport, JournalError> {
        let suspended = self.journal.take();
        let result = self.replay_inner(records);
        self.journal = suspended;
        result
    }

    fn replay_inner(&mut self, records: &[JournalRecord]) -> Result<ReplayReport, JournalError> {
        let corrupt = |index, reason: String| JournalError::CorruptRecord { index, reason };
        let mut report = ReplayReport::default();
        let mut index = 0;
        while let Some(record) = records.get(index) {
            match record {
                JournalRecord::Arrival(vm, answer) => {
                    self.engine
                        .rehost(*vm, Recorded::Arrival(answer.arrival(vm)))
                        .map_err(|e| corrupt(index, e.to_string()))?;
                    self.metrics.add(names::REQUESTS, 1);
                    let outcome = match answer {
                        Answer::Placed(_) => names::PLACED,
                        Answer::Rejected => names::REJECTED,
                        Answer::Duplicate | Answer::OutOfOrder(_) => names::PROTOCOL_ERRORS,
                    };
                    self.metrics.add(outcome, 1);
                    report.requests += 1;
                }
                JournalRecord::Req(vm) => {
                    return Err(corrupt(
                        index,
                        format!("a bare REQ of {}: version 3 journals decisions", vm.id()),
                    ))
                }
                JournalRecord::Drain => {
                    let n = self.engine.drain();
                    self.metrics.add(names::DEPARTED, n as u64);
                }
                JournalRecord::Down { server, .. } => {
                    let victims = self
                        .engine
                        .set_down(*server)
                        .map_err(|e| corrupt(index, format!("DOWN: {e}")))?;
                    self.metrics.add(names::EVICTED, victims.len() as u64);
                    for vm in victims {
                        index += 1;
                        let outcome = match records.get(index) {
                            Some(JournalRecord::Repair(id, outcome)) if *id == vm.id() => outcome,
                            other => {
                                return Err(corrupt(
                                    index,
                                    format!(
                                        "DOWN {} evicted {}, but the record after is {other:?}",
                                        server.0,
                                        vm.id()
                                    ),
                                ))
                            }
                        };
                        self.engine
                            .rehost(vm, Recorded::Repair(*outcome))
                            .map_err(|e| corrupt(index, e.to_string()))?;
                    }
                    report.faults += 1;
                }
                JournalRecord::Repair(vm, _) => {
                    return Err(corrupt(
                        index,
                        format!("a repair of {vm} that no DOWN evicted"),
                    ))
                }
                JournalRecord::Up(server) => {
                    self.engine
                        .set_up(*server)
                        .map_err(|e| corrupt(index, format!("UP: {e}")))?;
                    report.faults += 1;
                }
                JournalRecord::Shed(_) => {
                    self.metrics.add(names::OVERLOADED, 1);
                    report.sheds += 1;
                }
                JournalRecord::Checkpoint(c) => {
                    self.verify_checkpoint(c)?;
                    report.checkpoints += 1;
                }
            }
            index += 1;
        }
        report.records = index;
        Ok(report)
    }

    fn verify_checkpoint(&self, c: &Checkpoint) -> Result<(), JournalError> {
        let replayed = self.checkpoint();
        let fields: [(&'static str, u64, u64); 9] = [
            ("clock", c.clock as u64, replayed.clock as u64),
            ("live", c.live, replayed.live),
            ("placed", c.placed, replayed.placed),
            ("rejected", c.rejected, replayed.rejected),
            ("departed", c.departed, replayed.departed),
            ("evicted", c.evicted, replayed.evicted),
            ("repaired", c.repaired, replayed.repaired),
            (
                "committed_cost",
                c.committed_cost_bits,
                replayed.committed_cost_bits,
            ),
            (
                "retired_cost",
                c.retired_cost_bits,
                replayed.retired_cost_bits,
            ),
        ];
        for (field, journal, replayed) in fields {
            if journal != replayed {
                return Err(JournalError::CheckpointMismatch {
                    field,
                    journal,
                    replayed,
                });
            }
        }
        Ok(())
    }

    /// The `STATS` reply line.
    pub fn stats_line(&self) -> String {
        let s = self.engine.stats();
        let lat = self.metrics.histogram(names::DECISION_US);
        let (mean, p50, p95, p99) = lat
            .map(|h| (h.mean(), h.p50, h.p95, h.p99))
            .unwrap_or((0.0, 0.0, 0.0, 0.0));
        format!(
            "STATS requests={} placed={} rejected={} departed={} evicted={} repaired={} \
             overloaded={} live={} mean_us={mean:.2} p50_us={p50:.2} p95_us={p95:.2} \
             p99_us={p99:.2}",
            s.arrivals,
            s.placed,
            s.rejected,
            s.departed,
            s.evicted,
            s.repaired,
            self.metrics.counter(names::OVERLOADED),
            self.engine.live_count(),
        )
    }

    /// Handles one raw protocol line. `None` = no reply owed (blank or
    /// comment line).
    pub fn handle(&mut self, line: &str) -> Option<String> {
        match parse_request(line) {
            Ok(None) => None,
            Ok(Some(Request::Req(vm))) => Some(self.request(vm)),
            Ok(Some(Request::Down(server))) => Some(self.fault_down(server)),
            Ok(Some(Request::Up(server))) => Some(self.fault_up(server)),
            Ok(Some(Request::Stats)) => Some(self.stats_line()),
            Ok(Some(Request::Drain)) => Some(self.drain()),
            Err(e) => Some(self.reject(&e)),
        }
    }

    /// [`ServeSession::handle`] for a raw wire line: bytes that are not
    /// UTF-8 earn `ERR invalid-utf8` instead of ending the session.
    fn handle_bytes(&mut self, line: &[u8]) -> Option<String> {
        match std::str::from_utf8(line) {
            Ok(line) => self.handle(line),
            Err(_) => Some(self.reject(&ProtocolError::InvalidUtf8)),
        }
    }

    /// Counts a protocol error and renders its `ERR` reply.
    fn reject(&mut self, e: &ProtocolError) -> String {
        self.metrics.add(names::PROTOCOL_ERRORS, 1);
        e.reply()
    }

    /// The `DRAIN` verb: depart every live VM, then journal the drain
    /// with a verified checkpoint and fsync — the graceful-shutdown
    /// barrier.
    pub fn drain(&mut self) -> String {
        if let Some(reply) = self.ended_reply() {
            return reply;
        }
        let n = self.engine.drain();
        self.metrics.add(names::DEPARTED, n as u64);
        if self.journal.is_some() {
            let line = [
                JournalRecord::Drain,
                JournalRecord::Checkpoint(self.checkpoint()),
            ];
            if let Err(e) = self.journal_line(&line, true) {
                return self.reject(&e);
            }
        }
        format!("DRAINED departed={n}")
    }
}

/// Longest request line [`serve_lines`] accepts, in bytes, not counting
/// its `\n`. The widest well-formed request is far shorter.
pub const MAX_LINE_BYTES: usize = 4096;

/// How long a queued reply may be held for the requests behind it.
///
/// Flushing every reply on its own cost a pipelined reply 8.8–9.2 µs of
/// server processor time on perfbench's serve-wire stream (2-vCPU KVM
/// guest), of which handling the request took 4.6 µs: the write, a
/// syscall plus the client's wake-up, costs about `w` = 4.5 µs. A
/// batch held for `B` shares one write among about `B / h + 1` replies
/// that take `h` each to handle. `B` = 20 µs, about 4`w`, makes that
/// five replies at `h` = 4.6 µs, so the write costs each 0.9 µs instead
/// of 4.5, while a held reply waits at most `B + h` ≈ 25 µs beyond its
/// own handling, about one closed-loop round trip. Decisions slower
/// than `B`, such as a dense fleet's 37–60 µs, are flushed one by one.
const REPLY_HOLD: Duration = Duration::from_micros(20);

/// Capacity of [`serve_lines`]'s read buffer and of its reply buffer.
const WIRE_BUFFER_BYTES: usize = 64 << 10;

/// Whether the replies held for the wire must leave now, just after a
/// line was handled: when no complete request line is waiting in the
/// read buffer (the next read may block), or when holding them through
/// one more request, taken to cost as long as the last one did, would
/// age the oldest past [`REPLY_HOLD`].
fn flush_due(line_waiting: bool, oldest_held: Duration, last_handled: Duration) -> bool {
    !line_waiting || oldest_held + last_handled > REPLY_HOLD
}

/// Drives a session from a byte stream, writing one reply per
/// non-empty line, until EOF. Lines end at `\n` (an `\r` before it is
/// dropped). Protocol errors are replied to and the loop continues — a
/// line that is not UTF-8 earns `ERR invalid-utf8`, and one longer than
/// [`MAX_LINE_BYTES`] earns `ERR line-too-long` and is skipped without
/// being buffered — so only transport failures end the session early.
/// A reply stream closed by its reader (`esvm serve … | head -1`) ends
/// the session as EOF does: nobody is left to answer.
///
/// `input` and `output` are buffered here (64 KiB each), so a socket
/// can be passed as both. Replies leave in batches: a batch is flushed
/// as soon as no complete request line is left in the read buffer, so
/// no reply is held across a read that may block, or once holding it
/// for one more request would age its oldest reply past a 20 µs budget.
/// A reply thus waits at most that budget plus one request's handling
/// beyond its own. The reply bytes are the same as when every reply
/// was flushed alone; only when they leave differs.
///
/// # Errors
///
/// I/O errors from the input stream, and output errors other than a
/// broken pipe, including one from the flush at EOF.
pub fn serve_lines<R: Read, W: Write, T: Tracer>(
    input: R,
    output: W,
    session: &mut ServeSession<'_, T>,
) -> std::io::Result<()> {
    let input = BufReader::with_capacity(WIRE_BUFFER_BYTES, input);
    let mut output = BufWriter::with_capacity(WIRE_BUFFER_BYTES, output);
    match serve_batches(input, &mut output, session).and_then(|()| output.flush()) {
        // A reply stream closed by its reader. (Reads do not fail this
        // way on Unix; where a platform's do, that is EOF too.)
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// The loop of [`serve_lines`]: every line read, handled and its reply
/// queued, and the batch flushed when [`flush_due`] says so.
fn serve_batches<R: Read, W: Write, T: Tracer>(
    mut input: BufReader<R>,
    output: &mut BufWriter<W>,
    session: &mut ServeSession<'_, T>,
) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(256);
    // When the oldest reply in `output` was queued, while one is held.
    let mut held_since = None;
    loop {
        line.clear();
        // One byte past the cap tells an overlong line from one that
        // fills the cap exactly.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut input).take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let started = Instant::now();
        let reply = match line.strip_suffix(b"\n") {
            Some(body) => session.handle_bytes(body.strip_suffix(b"\r").unwrap_or(body)),
            None if line.len() > MAX_LINE_BYTES => {
                skip_line(&mut input)?;
                Some(session.reject(&ProtocolError::LineTooLong))
            }
            // The last line, cut short by EOF.
            None => session.handle_bytes(&line),
        };
        let now = Instant::now();
        if let Some(mut reply) = reply {
            reply.push('\n');
            output.write_all(reply.as_bytes())?;
            held_since.get_or_insert(now);
        }
        if let Some(e) = session.journal_failure() {
            output.flush()?;
            return Err(std::io::Error::other(e.to_string()));
        }
        if let Some(since) = held_since {
            let line_waiting = input.buffer().contains(&b'\n');
            if flush_due(line_waiting, now - since, now - started) {
                output.flush()?;
                held_since = None;
            }
        }
    }
}

/// Discards input up to and including the next `\n` (or to EOF).
fn skip_line<R: BufRead>(input: &mut R) -> std::io::Result<()> {
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(end) => {
                input.consume(end + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                input.consume(n);
            }
        }
    }
}

/// Replays a materialised problem through the session in canonical
/// arrival order (departures fire implicitly as the clock advances),
/// with a [`FaultPlan`] striking live: before each arrival burst at
/// time `t`, every plan event with `at ≤ t` is applied through the
/// session's fault verbs (evictions, bounded-backoff repair, journal
/// and all); trailing events fire after the last arrival. Arrivals
/// sharing a start time form one admission burst (see
/// [`ServeSession::burst`]). With a plan this is `esvm chaos --live` —
/// the drill runs against the real service loop, not an offline
/// replay; with [`FaultPlan::empty`] it is `esvm serve --trace` on a
/// text trace.
pub fn feed_problem_with_faults<T: Tracer>(
    problem: &esvm_simcore::AllocationProblem,
    plan: &FaultPlan,
    session: &mut ServeSession<'_, T>,
) -> DrillReport {
    let vms = problem.vms();
    let order = problem.vms_by_start_time();
    let mut cursor = plan.cursor();
    let mut report = DrillReport::default();
    let mut i = 0;
    loop {
        let events = if i < order.len() {
            cursor.take_until(vms[order[i]].start())
        } else {
            cursor.rest()
        };
        for event in events {
            match event {
                FaultEvent::ServerDown { server, .. } => {
                    report.replies.push(session.fault_down(*server));
                    report.downs += 1;
                }
                FaultEvent::ServerUp { server, .. } => {
                    report.replies.push(session.fault_up(*server));
                    report.ups += 1;
                }
            }
        }
        if i >= order.len() {
            break;
        }
        let start = vms[order[i]].start();
        let mut j = i;
        while j < order.len() && vms[order[j]].start() == start {
            j += 1;
        }
        report
            .replies
            .extend(session.burst(order[i..j].iter().map(|&k| vms[k])));
        i = j;
    }
    report
}

/// Streams ESVT records straight into the session —
/// [`TraceReader::records`](esvm_workload::TraceReader::records) yields
/// VMs in (start, id) order, so the stream is already a valid event
/// feed; consecutive same-start records form one admission burst.
/// Returns `(placed, rejected)` (overload sheds count via the
/// [`serve.overloaded`](esvm_obs::names::serve::OVERLOADED) counter).
///
/// # Errors
///
/// Stops at the first corrupt record with its
/// [`TraceError`](esvm_workload::trace::TraceError).
pub fn feed_records<R: std::io::Read + std::io::Seek, T: Tracer>(
    records: esvm_workload::esvt::Records<R>,
    session: &mut ServeSession<'_, T>,
) -> Result<(u64, u64), esvm_workload::trace::TraceError> {
    let mut placed = 0;
    let mut rejected = 0;
    let mut batch: Vec<Vm> = Vec::new();
    let mut tally = |replies: Vec<String>| {
        for reply in replies {
            if reply.starts_with("PLACED") {
                placed += 1;
            } else if reply.starts_with("REJECTED") {
                rejected += 1;
            }
        }
    };
    for record in records {
        let vm = record?;
        if batch.last().is_some_and(|prev| prev.start() != vm.start()) {
            tally(session.burst(batch.drain(..)));
        }
        batch.push(vm);
    }
    if !batch.is_empty() {
        tally(session.burst(batch.drain(..)));
    }
    Ok((placed, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_obs::NoopTracer;
    use esvm_simcore::PowerModel;

    fn fleet() -> Vec<ServerSpec> {
        (0..2u32)
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

    #[test]
    fn req_round_trip() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        assert_eq!(
            session.handle("REQ 0 1 10 2.0 4.0").as_deref(),
            Some("PLACED 0 0")
        );
        assert_eq!(
            session.handle("REQ 1 1 10 8.0 16.0").as_deref(),
            Some("PLACED 1 1")
        );
        assert_eq!(
            session.handle("REQ 2 1 10 8.0 16.0").as_deref(),
            Some("REJECTED 2")
        );
        assert!(session.handle("STATS").unwrap().contains("placed=2"));
        assert_eq!(
            session.handle("DRAIN").as_deref(),
            Some("DRAINED departed=2")
        );
    }

    #[test]
    fn comments_and_blanks_get_no_reply() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        assert_eq!(session.handle(""), None);
        assert_eq!(session.handle("   "), None);
        assert_eq!(session.handle("# a comment"), None);
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_session_survives() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        for (line, code) in [
            ("FLY 1 2 3", "unknown-verb"),
            ("REQ 0 1 10", "field-count"),
            ("REQ 0 1 10 2.0 4.0 9", "field-count"),
            ("REQ x 1 10 2.0 4.0", "bad-number"),
            ("REQ 0 1 -3 2.0 4.0", "bad-number"),
            ("REQ 0 1 0 2.0 4.0", "bad-number"),
            ("REQ 0 1 10 NaN 4.0", "bad-number"),
            ("REQ 0 1 10 2.0 -1", "bad-number"),
            ("REQ 0 1 10 1e999 4.0", "bad-number"),
            ("REQ 0 99999999999 10 2.0 4.0", "bad-number"),
            ("REQ 0 4294967294 10 2.0 4.0", "bad-interval"),
            ("DOWN", "field-count"),
            ("DOWN 0 1", "field-count"),
            ("DOWN x", "bad-number"),
            ("UP -1", "bad-number"),
            ("DOWN 99", "unknown-server"),
            ("UP 99", "unknown-server"),
        ] {
            let reply = session.handle(line).unwrap();
            assert!(
                reply.starts_with(&format!("ERR {code}")),
                "{line:?} → {reply:?}"
            );
        }
        // The session is not poisoned: a good request still works.
        assert_eq!(
            session.handle("REQ 7 1 5 1.0 1.0").as_deref(),
            Some("PLACED 7 0")
        );
        assert_eq!(metrics.counter(names::PROTOCOL_ERRORS), 17);
    }

    #[test]
    fn engine_rejections_are_typed_online_errors() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        session.handle("REQ 0 5 5 1.0 1.0");
        let dup = session.handle("REQ 0 5 5 1.0 1.0").unwrap();
        assert!(dup.starts_with("ERR duplicate-id"), "{dup}");
        let late = session.handle("REQ 1 2 5 1.0 1.0").unwrap();
        assert!(late.starts_with("ERR out-of-order"), "{late}");
    }

    #[test]
    fn down_evicts_and_repairs_up_restores() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        assert_eq!(
            session.handle("REQ 0 1 10 8.0 16.0").as_deref(),
            Some("PLACED 0 0")
        );
        // Server 1 is free, so the evicted VM repairs immediately.
        assert_eq!(
            session.handle("DOWN 0").as_deref(),
            Some("DOWNED 0 evicted=1 repaired=1 shed=0")
        );
        assert_eq!(metrics.counter(names::EVICTED), 1);
        // Server 1 also goes down: the VM is evicted again and the
        // repair has nowhere to go within the backoff budget.
        assert_eq!(
            session.handle("DOWN 1").as_deref(),
            Some("DOWNED 1 evicted=1 repaired=0 shed=1")
        );
        assert_eq!(session.handle("UP 0").as_deref(), Some("UPPED 0"));
        assert_eq!(
            session.handle("REQ 1 2 5 1.0 1.0").as_deref(),
            Some("PLACED 1 0")
        );
        let stats = session.handle("STATS").unwrap();
        assert!(stats.contains("evicted=2"), "{stats}");
        assert!(stats.contains("repaired=1"), "{stats}");
    }

    #[test]
    fn bursts_shed_past_the_queue_cap() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer).with_config(
            ServeConfig {
                queue_cap: 2,
                ..ServeConfig::default()
            },
        );
        let vms: Vec<Vm> = (0..4u32)
            .map(|i| {
                Vm::new(
                    i,
                    Resources::new(1.0, 1.0),
                    esvm_simcore::Interval::new(1, 5),
                )
            })
            .collect();
        let replies = session.burst(vms);
        assert_eq!(replies.len(), 4);
        assert!(replies[0].starts_with("PLACED"));
        assert!(replies[1].starts_with("PLACED"));
        assert!(replies[2].starts_with("ERR overloaded"), "{}", replies[2]);
        assert!(replies[3].starts_with("ERR overloaded"), "{}", replies[3]);
        assert_eq!(metrics.counter(names::OVERLOADED), 2);
        // Shed ids are NOT consumed: the engine never saw them, so a
        // calmer moment can admit them.
        let retry = session.handle("REQ 2 2 4 1.0 1.0").unwrap();
        assert!(retry.starts_with("PLACED 2"), "{retry}");
    }

    #[test]
    fn serve_lines_replies_per_line() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        let input = b"REQ 0 1 10 2.0 4.0\n# comment\nSTATS\n".to_vec();
        let mut out = Vec::new();
        serve_lines(&input[..], &mut out, &mut session).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "PLACED 0 0");
        assert!(lines[1].starts_with("STATS requests=1"));
    }

    #[test]
    fn serve_lines_survives_bad_bytes_and_overlong_lines() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        let mut input = b"REQ 0 1 10 2.0 4.0\r\nREQ \xff 1 10 2.0 4.0\n".to_vec();
        input.extend(std::iter::repeat_n(b'7', 3 * MAX_LINE_BYTES));
        input.extend(b"\n");
        input.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES));
        input.extend(b"\nSTATS\n");
        input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        let mut out = Vec::new();
        serve_lines(&input[..], &mut out, &mut session).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert_eq!(lines[0], "PLACED 0 0");
        assert!(lines[1].starts_with("ERR invalid-utf8 "), "{}", lines[1]);
        assert!(lines[2].starts_with("ERR line-too-long "), "{}", lines[2]);
        // A blank line exactly at the cap is still a line (no reply).
        assert!(lines[3].starts_with("STATS requests=1"), "{}", lines[3]);
        // An unterminated overlong tail is answered before EOF.
        assert!(lines[4].starts_with("ERR line-too-long "), "{}", lines[4]);
        assert_eq!(metrics.counter(names::PROTOCOL_ERRORS), 3);
    }

    #[test]
    fn a_batch_is_held_only_while_a_line_waits_within_the_budget() {
        let us = Duration::from_micros;
        let tick = Duration::from_nanos(1);
        // No complete line buffered: the next read may block.
        assert!(flush_due(false, Duration::ZERO, Duration::ZERO));
        assert!(!flush_due(true, Duration::ZERO, us(5)));
        // One more request like the last one ages the batch to exactly
        // the budget: hold; a nanosecond past it: flush.
        assert!(!flush_due(true, REPLY_HOLD - us(5), us(5)));
        assert!(flush_due(true, REPLY_HOLD - us(5) + tick, us(5)));
        // A request slower than the budget flushes its own reply.
        assert!(flush_due(true, Duration::ZERO, REPLY_HOLD + tick));
    }

    /// A reply stream the test reads while `serve_lines` writes it.
    #[derive(Clone, Default)]
    struct SharedOut(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Hands out `wire` in chunks of the given sizes, one per read, and
    /// on every read asserts that `out` already holds the replies owed
    /// for the complete lines handed out before it (after EOF, the
    /// unterminated last line is complete too).
    struct ScriptedReader<'a> {
        wire: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
        handed: usize,
        at_eof: bool,
        owed: &'a [usize],
        out: SharedOut,
    }

    impl Read for ScriptedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let complete = if self.at_eof {
                self.owed.len()
            } else {
                self.wire[..self.handed]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
            };
            let owed: usize = self.owed[..complete].iter().sum();
            let replied = self.out.0.borrow().iter().filter(|&&b| b == b'\n').count();
            assert_eq!(
                replied, owed,
                "a read after {} bytes ({complete} complete lines) found {replied} replies written",
                self.handed
            );
            let size = (*self.sizes.next().unwrap()).min(buf.len());
            let n = size.min(self.wire.len() - self.handed);
            buf[..n].copy_from_slice(&self.wire[self.handed..self.handed + n]);
            self.handed += n;
            self.at_eof = n == 0;
            Ok(n)
        }
    }

    #[test]
    fn no_reply_is_held_across_a_read() {
        let overlong = [&[b'x'; MAX_LINE_BYTES + 50][..], b"\n"].concat();
        // Each line with the replies it is owed.
        let script: [(&[u8], usize); 9] = [
            (b"REQ 0 1 10 2.0 4.0\n", 1),
            (b"REQ 1 1 10 1.0 2.0\n", 1),
            (b"\n", 0),
            (b"# a comment\n", 0),
            (b"REQ 2 2 10 1.0 2.0\r\n", 1),
            (&overlong, 1),
            (b"UP 1\n", 1),
            (b"REQ 3 3 5 1.0 1.0\n", 1),
            // The last line, cut short by EOF.
            (b"REQ 4 3 5 1.0 1.0", 1),
        ];
        let wire: Vec<u8> = script
            .iter()
            .flat_map(|(line, _)| line.iter().copied())
            .collect();
        let owed: Vec<usize> = script.iter().map(|&(_, n)| n).collect();
        let servers = fleet();
        let metrics = MetricsRegistry::new();
        // The replies of a session handed one line at a time.
        let mut oracle = ServeSession::new(&servers, &metrics, &NoopTracer);
        let mut want = String::new();
        for (line, _) in &script {
            let reply = if line.len() > MAX_LINE_BYTES {
                Some(ProtocolError::LineTooLong.reply())
            } else {
                oracle.handle(std::str::from_utf8(line).unwrap().trim_end())
            };
            if let Some(reply) = reply {
                want += &reply;
                want.push('\n');
            }
        }
        assert_eq!(want.lines().count(), owed.iter().sum::<usize>());
        for sizes in [&[1][..], &[5, 1, 23, 4096, 2, 700], &[40], &[1 << 20]] {
            let out = SharedOut::default();
            let reader = ScriptedReader {
                wire: &wire,
                sizes: sizes.iter().cycle(),
                handed: 0,
                at_eof: false,
                owed: &owed,
                out: out.clone(),
            };
            let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
            serve_lines(reader, out.clone(), &mut session).unwrap();
            let got = String::from_utf8(out.0.take()).unwrap();
            assert_eq!(got, want, "chunks of {sizes:?}");
        }
    }

    #[test]
    fn journaled_session_recovers_bit_exactly() {
        let path = std::env::temp_dir().join("esvj_serve_recover.wal");
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        session.set_journal(Some(JournalWriter::create(&path, &servers, 0).unwrap()));
        for line in [
            "REQ 0 1 10 2.0 4.0",
            "REQ 1 1 10 8.0 16.0",
            "REQ 1 1 10 1.0 1.0", // duplicate: journaled, rejected
            "DOWN 1",
            "REQ 2 3 4 1.0 1.0",
            "UP 1",
            "REQ 3 4 4 4.0 4.0",
        ] {
            session.handle(line);
        }
        session.finish().unwrap();
        let want_placements = session.engine().placement(8);
        let want_cost = session.engine().committed_cost().to_bits();

        let rec = crate::journal::recover_file(&path).unwrap();
        assert_eq!(rec.torn_bytes, 0);
        let metrics2 = MetricsRegistry::new();
        let mut restored = ServeSession::new(&rec.servers, &metrics2, &NoopTracer);
        let report = restored.replay(&rec.records).unwrap();
        assert_eq!(report.requests, 5);
        assert_eq!(report.faults, 2);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(restored.engine().placement(8), want_placements);
        assert_eq!(restored.engine().committed_cost().to_bits(), want_cost);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_ends_the_session() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        // Every write to /dev/full fails; a barrier per record makes the
        // first append reach the device.
        session.set_journal(Some(JournalWriter::open_append("/dev/full", 1).unwrap()));
        let input = b"REQ 0 1 10 2.0 4.0\nREQ 1 1 10 2.0 4.0\n".to_vec();
        let mut out = Vec::new();
        let served = serve_lines(&input[..], &mut out, &mut session);
        assert!(served.is_err(), "the session went on past a failed append");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.starts_with("ERR journal-io "), "{text}");
        // The engine decided the first line; nothing reaches it any more.
        assert_eq!(session.engine().stats().arrivals, 1);
        let reply = session.handle("REQ 2 2 5 1.0 1.0").unwrap();
        assert!(reply.starts_with("ERR journal-io "), "{reply}");
        assert!(session
            .handle("DRAIN")
            .unwrap()
            .starts_with("ERR journal-io "));
        assert_eq!(session.engine().stats().arrivals, 1);
        assert_eq!(session.engine().live_count(), 1);
        assert!(
            session.finish().is_err(),
            "a checkpoint after a failed append"
        );
    }

    #[test]
    fn tampered_checkpoint_is_a_typed_mismatch() {
        let metrics = MetricsRegistry::new();
        let servers = fleet();
        let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
        let records = [
            JournalRecord::Arrival(
                Vm::new(
                    0,
                    Resources::new(1.0, 1.0),
                    esvm_simcore::Interval::new(1, 5),
                ),
                Answer::Placed(ServerId(0)),
            ),
            JournalRecord::Checkpoint(Checkpoint {
                clock: 1,
                live: 1,
                placed: 2, // lie: only one placement happened
                rejected: 0,
                departed: 0,
                evicted: 0,
                repaired: 0,
                committed_cost_bits: 0,
                retired_cost_bits: 0,
            }),
        ];
        let err = session.replay(&records).unwrap_err();
        assert!(
            matches!(err, JournalError::CheckpointMismatch { field: "placed", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn a_streamed_esvt_trace_is_served_as_miec_decides_it() {
        use esvm_core::Miec;
        use esvm_workload::{esvt, TraceReader, WorkloadConfig};
        let mut rejected_total = 0;
        for seed in 0..10 {
            // Dense enough that some seeds turn work away.
            let problem = WorkloadConfig::new(300, 12)
                .mean_interarrival(0.3)
                .mean_duration(8.0)
                .generate(seed)
                .expect("generation succeeds");
            let bytes = esvt::to_esvt_with_block_len(&problem, 16);
            let reader = TraceReader::new(std::io::Cursor::new(bytes)).expect("ESVT header");
            let servers = reader.servers().to_vec();
            let metrics = MetricsRegistry::new();
            let mut session = ServeSession::new(&servers, &metrics, &NoopTracer);
            let (placed, rejected) =
                feed_records(reader.records(), &mut session).expect("ESVT records");

            let (miec, miec_rejected) = Miec::new()
                .allocate_with_admission(&problem)
                .expect("admission run");
            let ctx = format!("seed {seed}");
            assert_eq!(
                session.engine().placement(problem.vm_count()),
                miec.placement(),
                "{ctx}: PLACED servers"
            );
            assert_eq!(rejected, miec_rejected.len() as u64, "{ctx}: rejected");
            assert_eq!(placed + rejected, problem.vm_count() as u64, "{ctx}: replies");
            let (energy, total) = (session.engine().committed_cost(), miec.total_cost());
            assert!(
                (energy - total).abs() <= 1e-9 * total,
                "{ctx}: served energy {energy} vs MIEC {total}"
            );
            rejected_total += rejected;
        }
        assert!(rejected_total > 0, "no seed rejected work: admission is untested");
    }

    #[test]
    fn live_fault_drill_conserves_energy() {
        use esvm_workload::WorkloadConfig;
        // A transition time of 10 makes idle gaps long enough for an
        // outage to fall inside one.
        let problem = WorkloadConfig::new(40, 8)
            .mean_interarrival(1.5)
            .transition_time(10.0)
            .generate(11)
            .expect("feasible");
        let horizon = problem.stats().horizon;
        let plan = FaultPlan::generate(
            &esvm_chaos::FaultPlanConfig::with_fault_rate(0.5),
            problem.server_count(),
            horizon,
            13,
        );
        let metrics = MetricsRegistry::new();
        let tracer = esvm_obs::CollectingTracer::new();
        let mut session = ServeSession::new(problem.servers(), &metrics, &tracer);
        let report = feed_problem_with_faults(&problem, &plan, &mut session);
        assert_eq!(report.downs + report.ups, plan.events().len() as u64);
        assert_eq!(
            report.replies.len(),
            problem.vm_count() + plan.events().len()
        );
        for reply in &report.replies {
            assert!(!reply.starts_with("ERR unknown-server"), "{reply}");
        }
        // The drill's energy books are those of the piece schedule its
        // replies and explain records describe, audited on fresh ledgers.
        let records: Vec<_> = tracer.explains().into_iter().map(|e| e.record).collect();
        let audit = crate::pieces::Pieces::from_session(
            problem.servers(),
            &report.replies,
            &records,
            |id| problem.vms()[id.index()],
        );
        let engine = session.engine();
        assert!(
            engine.stats().repaired > 0 && audit.surcharge().count > 0,
            "nothing to audit"
        );
        audit.check(
            engine.committed_cost(),
            engine.fault_transitions(),
            "live drill",
        );
        // Every ledger's decomposition matches its cost.
        for ledger in engine.ledgers() {
            let cost = ledger.cost();
            let breakdown = ledger.energy_breakdown().total();
            assert!(
                (cost - breakdown).abs() <= 1e-6 * cost.abs().max(1.0),
                "{cost} vs {breakdown}"
            );
        }
    }
}

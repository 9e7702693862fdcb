//! The `esvm serve` decision journal (ESVJ v3).
//!
//! A serve session is a long-lived process making irrevocable
//! decisions; losing its state to a crash would strand every placement
//! it acknowledged. The journal makes the session crash-recoverable: it
//! records each decision the engine made, after the engine made it and
//! before the reply is queued, and recovery hosts the recorded
//! decisions again ([`OnlineEngine::rehost`]) instead of deciding
//! again. The recovered state is therefore what the clients were told,
//! bit for bit, whichever build recovers it, and it is checked against
//! the committed and retired costs snapshotted in
//! [`JournalRecord::Checkpoint`] records. Appends are made durable on a
//! batched [`fsync`](JournalWriter::sync) cadence (group commit).
//!
//! ## On-disk format
//!
//! Little-endian throughout, FNV-1a 64 checksums (the same function as
//! the ESVT trace codec):
//!
//! ```text
//! magic    "ESVJ" (4 bytes)
//! version  u16 = 3
//! fleet    u32 server count, then per server:
//!          id u32 · cpu f64 · mem f64 · p_idle f64 · p_peak f64 · alpha f64
//! sum      u64 FNV-1a over version..fleet (a journal is self-contained:
//!          recovery needs no side channel to rebuild the engine)
//! frames   each: len u32 · payload (len bytes) · u64 FNV-1a(payload)
//! ```
//!
//! A frame's payload is the records of one protocol line, each a tag
//! byte plus fixed fields (see [`JournalRecord`]): a `DOWN` line's
//! frame holds its [`Down`](JournalRecord::Down) record and one
//! [`Repair`](JournalRecord::Repair) per evicted VM, so no torn tail
//! can keep an eviction without its repairs. A session writes every
//! record but `REQ`, the bare request version 2 journaled:
//!
//! ```text
//! tag  record      fields after the tag
//! 1    REQ         id u32 · start u32 · end u32 · cpu f64 · mem f64
//! 7    ARRIVAL     the REQ fields · answer u8, then by answer:
//!                  0 placed · server u32 | 1 rejected | 2 duplicate id
//!                  | 3 out of order · clock u32
//! 2    DRAIN       —
//! 3    DOWN        server u32 · retries u32 · backoff u32
//! 8    REPAIR      id u32 · outcome u8, then by outcome:
//!                  0 rehosted · server u32 · start u32 · attempt u32 | 1 shed
//! 4    UP          server u32
//! 5    SHED        id u32
//! 6    CHECKPOINT  clock u32 · live · placed · rejected · departed · evicted
//!                  · repaired · committed bits · retired bits (u64 each)
//! ```
//!
//! The framing makes a torn tail (a crash mid-append or mid-sync)
//! detectable: recovery accepts the longest prefix of valid frames and
//! reports the rest as [`torn_bytes`](Recovered::torn_bytes) for the
//! caller to truncate before appending again. A header that fails validation is a typed
//! error instead — there is no prefix state to fall back to (the
//! header is synced before the first record is acknowledged, so a
//! journal that ever acked anything has a durable header).
//!
//! Nothing in this module panics on untrusted bytes: every decoded
//! quantity is validated before it reaches a constructor with
//! invariants ([`Resources`], [`PowerModel`], [`Interval`]).
//!
//! [`OnlineEngine::rehost`]: esvm_core::OnlineEngine::rehost

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use esvm_core::{OnlineDecision, OnlineError, RepairOutcome};
use esvm_simcore::{PowerModel, Resources, ServerId, ServerSpec, TimeUnit, Vm, VmId, MAX_TIME};
use esvm_workload::trace::fields;

/// File magic: an ESVJ journal, not an ESVT trace.
pub const MAGIC: [u8; 4] = *b"ESVJ";
/// Format version this build writes and reads. Version 3 journals
/// decisions. Version 2 journaled requests, which recovery decided
/// again, and version 1 predates the engine that keeps each server's
/// history until it is cold (DESIGN §11): neither holds what a decision
/// log holds, so both are refused.
pub const VERSION: u16 = 3;

/// Bytes per serialized server spec in the header.
const SERVER_BYTES: usize = 4 + 5 * 8;

/// Write-buffer size: large enough that a whole group-commit window
/// (`--fsync-every` records at ~46 bytes each) coalesces into one
/// `write(2)` at the sync barrier instead of dribbling out in 8 KiB
/// default-BufWriter chunks between barriers.
const WRITE_BUF_BYTES: usize = 64 * 1024;

const TAG_REQ: u8 = 1;
const TAG_DRAIN: u8 = 2;
const TAG_DOWN: u8 = 3;
const TAG_UP: u8 = 4;
const TAG_SHED: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_ARRIVAL: u8 = 7;
const TAG_REPAIR: u8 = 8;

/// FNV-1a 64-bit, matching the ESVT codec's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Typed journal failures. Like the serve protocol's errors, every
/// variant describes *why* without panicking; corrupt input can never
/// poison a recovery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalError {
    /// The file does not start with the ESVJ magic bytes.
    BadMagic,
    /// The journal's format version is unsupported.
    BadVersion(u16),
    /// The header (fleet section) is structurally invalid: truncated,
    /// checksum mismatch, or a server spec that violates the physical
    /// invariants. Unrecoverable — without a fleet there is no engine.
    CorruptHeader(String),
    /// A record with a *valid* checksum decodes to an impossible value
    /// (unknown tag, undersized payload, non-finite demand). This is
    /// version drift or in-memory corruption, not a torn tail, so it
    /// is an error rather than a silent truncation point.
    CorruptRecord {
        /// 0-based index of the offending record.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A [`JournalRecord::Checkpoint`] disagrees with the replayed
    /// engine state: the journal and the engine have diverged and the
    /// recovered state cannot be trusted.
    CheckpointMismatch {
        /// The checkpoint field that differs.
        field: &'static str,
        /// Value recorded in the journal.
        journal: u64,
        /// Value reached by replay.
        replayed: u64,
    },
    /// Reading or writing the underlying byte stream failed.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not an ESVJ journal (bad magic bytes)"),
            JournalError::BadVersion(v) => write!(f, "unsupported ESVJ version {v}"),
            JournalError::CorruptHeader(reason) => write!(f, "corrupt journal header: {reason}"),
            JournalError::CorruptRecord { index, reason } => {
                write!(f, "corrupt journal record {index}: {reason}")
            }
            JournalError::CheckpointMismatch {
                field,
                journal,
                replayed,
            } => write!(
                f,
                "checkpoint mismatch on {field}: journal recorded {journal}, replay reached {replayed}"
            ),
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// A consistency snapshot of the replayed engine, written on `DRAIN`
/// and graceful shutdown. Replay verifies every field bit-for-bit
/// (costs compare by `f64::to_bits`), turning silent divergence into
/// [`JournalError::CheckpointMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Session clock.
    pub clock: TimeUnit,
    /// Currently live VMs.
    pub live: u64,
    /// Arrivals answered `PLACED`.
    pub placed: u64,
    /// Arrivals answered `REJECTED`.
    pub rejected: u64,
    /// Departures fired (scheduled or explicit).
    pub departed: u64,
    /// VMs evicted by `DOWN` verbs.
    pub evicted: u64,
    /// Evicted VMs re-placed by the repair path.
    pub repaired: u64,
    /// `OnlineEngine::committed_cost().to_bits()`.
    pub committed_cost_bits: u64,
    /// `OnlineEngine::retired_cost().to_bits()`.
    pub retired_cost_bits: u64,
}

/// The session's answer to an admitted `REQ`, as its
/// [`JournalRecord::Arrival`] keeps it: the engine's decision or the
/// precondition that refused the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// `PLACED` on this server.
    Placed(ServerId),
    /// `REJECTED`: no up server could host it.
    Rejected,
    /// `ERR duplicate-id`: the id had arrived before.
    Duplicate,
    /// `ERR out-of-order`: it started before the clock, which stood at
    /// this time.
    OutOfOrder(TimeUnit),
}

impl Answer {
    /// The answer for what [`OnlineEngine::arrive`] returned; `None`
    /// for an error it never returns.
    ///
    /// [`OnlineEngine::arrive`]: esvm_core::OnlineEngine::arrive
    pub fn of(arrival: &Result<OnlineDecision, OnlineError>) -> Option<Self> {
        match arrival {
            Ok(OnlineDecision::Placed(server)) => Some(Answer::Placed(*server)),
            Ok(OnlineDecision::Rejected) => Some(Answer::Rejected),
            Err(OnlineError::DuplicateVm(_)) => Some(Answer::Duplicate),
            Err(OnlineError::OutOfOrder { clock, .. }) => Some(Answer::OutOfOrder(*clock)),
            Err(_) => None,
        }
    }

    /// What `arrive` returned for `vm`: the inverse of [`of`](Self::of).
    pub fn arrival(self, vm: &Vm) -> Result<OnlineDecision, OnlineError> {
        match self {
            Answer::Placed(server) => Ok(OnlineDecision::Placed(server)),
            Answer::Rejected => Ok(OnlineDecision::Rejected),
            Answer::Duplicate => Err(OnlineError::DuplicateVm(vm.id())),
            Answer::OutOfOrder(clock) => Err(OnlineError::OutOfOrder {
                vm: vm.id(),
                start: vm.start(),
                clock,
            }),
        }
    }
}

/// One journaled event, in the order it was applied to the engine.
/// The session writes each as the engine's outcome, after the engine
/// moved; recovery hosts the outcomes again
/// ([`ServeSession::replay`](crate::serve::ServeSession::replay)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// A bare request with no decision: the record version 2 journaled.
    /// It stays encodable, but a session never writes one and replay
    /// refuses it as [`JournalError::CorruptRecord`].
    Req(Vm),
    /// An admitted `REQ` and the answer the session gave it.
    Arrival(Vm, Answer),
    /// A `DRAIN` verb: every live VM departed.
    Drain,
    /// A `DOWN` verb with the repair policy in force when it was
    /// applied. The records after it in its frame are its repairs.
    Down {
        /// The downed server.
        server: ServerId,
        /// `--retries` at the time of the fault.
        retries: u32,
        /// `--backoff` at the time of the fault.
        backoff: u32,
    },
    /// What the repair of one VM a `DOWN` evicted did: the server and
    /// restart of its remainder, or shed. A `DOWN`'s repairs follow it
    /// in eviction order (ascending id).
    Repair(VmId, RepairOutcome),
    /// An `UP` verb.
    Up(ServerId),
    /// A request shed by the bounded admission queue. The engine never
    /// saw it; replay only restores the overload counter.
    Shed(VmId),
    /// A consistency snapshot (see [`Checkpoint`]).
    Checkpoint(Checkpoint),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_vm(buf: &mut Vec<u8>, vm: &Vm) {
    put_u32(buf, vm.id().0);
    put_u32(buf, vm.start());
    put_u32(buf, vm.end());
    put_f64(buf, vm.demand().cpu);
    put_f64(buf, vm.demand().mem);
}

/// A little-endian cursor that can never read past its slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Encodes one record's payload (tag + fields, no framing).
pub fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    encode_record_into(record, &mut buf);
    buf
}

/// [`encode_record`] into a caller-owned buffer (appended, not
/// cleared) — the allocation-free path the hot append loop uses.
pub fn encode_record_into(record: &JournalRecord, buf: &mut Vec<u8>) {
    match record {
        JournalRecord::Req(vm) => {
            buf.push(TAG_REQ);
            put_vm(buf, vm);
        }
        JournalRecord::Arrival(vm, answer) => {
            buf.push(TAG_ARRIVAL);
            put_vm(buf, vm);
            match answer {
                Answer::Placed(server) => {
                    buf.push(0);
                    put_u32(buf, server.0);
                }
                Answer::Rejected => buf.push(1),
                Answer::Duplicate => buf.push(2),
                Answer::OutOfOrder(clock) => {
                    buf.push(3);
                    put_u32(buf, *clock);
                }
            }
        }
        JournalRecord::Repair(vm, outcome) => {
            buf.push(TAG_REPAIR);
            put_u32(buf, vm.0);
            match outcome {
                RepairOutcome::Rehosted {
                    server,
                    start,
                    attempt,
                } => {
                    buf.push(0);
                    put_u32(buf, server.0);
                    put_u32(buf, *start);
                    put_u32(buf, *attempt);
                }
                RepairOutcome::Shed => buf.push(1),
            }
        }
        JournalRecord::Drain => buf.push(TAG_DRAIN),
        JournalRecord::Down {
            server,
            retries,
            backoff,
        } => {
            buf.push(TAG_DOWN);
            put_u32(buf, server.0);
            put_u32(buf, *retries);
            put_u32(buf, *backoff);
        }
        JournalRecord::Up(server) => {
            buf.push(TAG_UP);
            put_u32(buf, server.0);
        }
        JournalRecord::Shed(vm) => {
            buf.push(TAG_SHED);
            put_u32(buf, vm.0);
        }
        JournalRecord::Checkpoint(c) => {
            buf.push(TAG_CHECKPOINT);
            put_u32(buf, c.clock);
            put_u64(buf, c.live);
            put_u64(buf, c.placed);
            put_u64(buf, c.rejected);
            put_u64(buf, c.departed);
            put_u64(buf, c.evicted);
            put_u64(buf, c.repaired);
            put_u64(buf, c.committed_cost_bits);
            put_u64(buf, c.retired_cost_bits);
        }
    }
}

/// Decodes one record's payload whose checksum already verified.
/// Failure here means the bytes are *consistently* wrong (version
/// drift), which is reported as a reason string for
/// [`JournalError::CorruptRecord`].
pub fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut c = Cursor::new(payload);
    let record = next_record(&mut c)?;
    if !c.done() {
        return Err("trailing bytes after record payload".to_owned());
    }
    Ok(record)
}

/// Decodes the VM fields `REQ` and `ARRIVAL` records share.
fn take_vm(c: &mut Cursor<'_>, what: &str) -> Result<Vm, String> {
    let truncated = || format!("{what} truncated");
    let id = c.u32().ok_or_else(truncated)?;
    let start = c.u32().ok_or_else(truncated)?;
    let end = c.u32().ok_or_else(truncated)?;
    let cpu = c.f64_bits().ok_or_else(truncated)?;
    let mem = c.f64_bits().ok_or_else(truncated)?;
    if !(cpu.is_finite() && mem.is_finite() && cpu >= 0.0 && mem >= 0.0) {
        return Err(format!(
            "{what} {id} has impossible demand cpu={cpu} mem={mem}"
        ));
    }
    if start > end || end > MAX_TIME {
        return Err(format!(
            "{what} {id} has impossible interval [{start}, {end}]"
        ));
    }
    let interval = fields::checked_interval(start, end).map_err(|e| e.reason)?;
    Ok(Vm::new(id, Resources::new(cpu, mem), interval))
}

/// Decodes the next record of a frame's payload.
fn next_record(c: &mut Cursor<'_>) -> Result<JournalRecord, String> {
    let tag = c.u8().ok_or("empty payload")?;
    let record = match tag {
        TAG_REQ => JournalRecord::Req(take_vm(c, "REQ")?),
        TAG_ARRIVAL => {
            let vm = take_vm(c, "ARRIVAL")?;
            let truncated = "ARRIVAL truncated";
            let answer = match c.u8().ok_or(truncated)? {
                0 => Answer::Placed(ServerId(c.u32().ok_or(truncated)?)),
                1 => Answer::Rejected,
                2 => Answer::Duplicate,
                3 => Answer::OutOfOrder(c.u32().ok_or(truncated)?),
                other => return Err(format!("ARRIVAL {} has unknown answer {other}", vm.id().0)),
            };
            JournalRecord::Arrival(vm, answer)
        }
        TAG_REPAIR => {
            let truncated = "REPAIR truncated";
            let vm = VmId(c.u32().ok_or(truncated)?);
            let outcome = match c.u8().ok_or(truncated)? {
                0 => RepairOutcome::Rehosted {
                    server: ServerId(c.u32().ok_or(truncated)?),
                    start: c.u32().ok_or(truncated)?,
                    attempt: c.u32().ok_or(truncated)?,
                },
                1 => RepairOutcome::Shed,
                other => return Err(format!("REPAIR {} has unknown outcome {other}", vm.0)),
            };
            JournalRecord::Repair(vm, outcome)
        }
        TAG_DRAIN => JournalRecord::Drain,
        TAG_DOWN => {
            let server = c.u32().ok_or("DOWN truncated")?;
            let retries = c.u32().ok_or("DOWN truncated")?;
            let backoff = c.u32().ok_or("DOWN truncated")?;
            JournalRecord::Down {
                server: ServerId(server),
                retries,
                backoff,
            }
        }
        TAG_UP => JournalRecord::Up(ServerId(c.u32().ok_or("UP truncated")?)),
        TAG_SHED => JournalRecord::Shed(VmId(c.u32().ok_or("SHED truncated")?)),
        TAG_CHECKPOINT => {
            let clock = c.u32().ok_or("CHECKPOINT truncated")?;
            let mut next = || c.u64().ok_or("CHECKPOINT truncated");
            JournalRecord::Checkpoint(Checkpoint {
                clock,
                live: next()?,
                placed: next()?,
                rejected: next()?,
                departed: next()?,
                evicted: next()?,
                repaired: next()?,
                committed_cost_bits: next()?,
                retired_cost_bits: next()?,
            })
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    Ok(record)
}

fn encode_header(servers: &[ServerSpec]) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + 4 + servers.len() * SERVER_BYTES);
    body.extend_from_slice(&VERSION.to_le_bytes());
    put_u32(&mut body, servers.len() as u32);
    for s in servers {
        put_u32(&mut body, s.id().0);
        put_f64(&mut body, s.capacity().cpu);
        put_f64(&mut body, s.capacity().mem);
        put_f64(&mut body, s.power().p_idle());
        put_f64(&mut body, s.power().p_peak());
        put_f64(&mut body, s.transition_cost());
    }
    let sum = fnv1a(&body);
    let mut out = Vec::with_capacity(4 + body.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn decode_header(bytes: &[u8]) -> Result<(Vec<ServerSpec>, usize), JournalError> {
    if bytes.len() < 4 {
        return Err(JournalError::BadMagic);
    }
    if bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let corrupt = |reason: &str| JournalError::CorruptHeader(reason.to_owned());
    let mut c = Cursor::new(&bytes[4..]);
    let version_bytes = c.take(2).ok_or_else(|| corrupt("truncated version"))?;
    let version = u16::from_le_bytes(version_bytes.try_into().expect("2 bytes"));
    // The version is covered by the checksum, but a *recognisably*
    // different version deserves its typed error even if a later
    // corruption check would also fire.
    if version != VERSION {
        return Err(JournalError::BadVersion(version));
    }
    let count = c.u32().ok_or_else(|| corrupt("truncated server count"))? as usize;
    // A flipped count byte could demand gigabytes; the checksummed
    // region must actually be present before anything is trusted.
    let body_len = 2 + 4 + count
        .checked_mul(SERVER_BYTES)
        .ok_or_else(|| corrupt("server count overflows"))?;
    let body = bytes
        .get(4..4 + body_len)
        .ok_or_else(|| corrupt("truncated fleet section"))?;
    let sum_bytes = bytes
        .get(4 + body_len..4 + body_len + 8)
        .ok_or_else(|| corrupt("truncated header checksum"))?;
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(corrupt("header checksum mismatch"));
    }

    let mut servers = Vec::with_capacity(count);
    let mut c = Cursor::new(&body[6..]);
    for i in 0..count {
        let id = c.u32().expect("length checked");
        let cpu = c.f64_bits().expect("length checked");
        let mem = c.f64_bits().expect("length checked");
        let p_idle = c.f64_bits().expect("length checked");
        let p_peak = c.f64_bits().expect("length checked");
        let alpha = c.f64_bits().expect("length checked");
        // Constructor invariants, validated so corrupt-but-checksummed
        // bytes (version drift) fail typed instead of panicking.
        if !(cpu.is_finite() && mem.is_finite() && cpu > 0.0 && mem >= 0.0) {
            return Err(corrupt(&format!("server {i} has impossible capacity")));
        }
        if !(p_idle.is_finite() && p_peak.is_finite() && 0.0 <= p_idle && p_idle <= p_peak) {
            return Err(corrupt(&format!("server {i} has impossible power model")));
        }
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(corrupt(&format!("server {i} has impossible transition cost")));
        }
        servers.push(ServerSpec::new(
            id,
            Resources::new(cpu, mem),
            PowerModel::new(p_idle, p_peak),
            alpha,
        ));
    }
    Ok((servers, 4 + body_len + 8))
}

/// The result of reading a journal: the fleet, the longest valid
/// record prefix, and how much of a torn tail was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The fleet the session ran over, from the self-contained header.
    pub servers: Vec<ServerSpec>,
    /// Every record of the longest valid frame prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset one past the last valid frame — the length to
    /// truncate the file to before appending to it again.
    pub valid_len: u64,
    /// Bytes after `valid_len` discarded as a torn tail.
    pub torn_bytes: u64,
}

/// Parses journal bytes: header strictly, then the longest prefix of
/// frames whose framing and checksums verify, each frame's records in
/// order. A record that frames and checksums correctly but decodes to
/// an impossible value is [`JournalError::CorruptRecord`] — that is
/// divergence, not tearing.
///
/// # Errors
///
/// [`JournalError::BadMagic`] / [`BadVersion`](JournalError::BadVersion)
/// / [`CorruptHeader`](JournalError::CorruptHeader) for an unusable
/// header, [`CorruptRecord`](JournalError::CorruptRecord) as above.
/// A torn tail is *not* an error.
pub fn recover_bytes(bytes: &[u8]) -> Result<Recovered, JournalError> {
    let (servers, header_len) = decode_header(bytes)?;
    let mut records = Vec::new();
    let mut off = header_len;
    while let Some(len_bytes) = bytes.get(off..off + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len == 0 {
            break;
        }
        let Some(payload) = bytes.get(off + 4..off + 4 + len) else {
            break;
        };
        let Some(sum_bytes) = bytes.get(off + 4 + len..off + 4 + len + 8) else {
            break;
        };
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if fnv1a(payload) != stored {
            break;
        }
        let mut c = Cursor::new(payload);
        while !c.done() {
            let record = next_record(&mut c).map_err(|reason| JournalError::CorruptRecord {
                index: records.len(),
                reason,
            })?;
            records.push(record);
        }
        off += 4 + len + 8;
    }
    Ok(Recovered {
        servers,
        records,
        valid_len: off as u64,
        torn_bytes: (bytes.len() - off) as u64,
    })
}

/// Reads and parses a journal file. See [`recover_bytes`].
///
/// # Errors
///
/// [`JournalError::Io`] on read failure, else as [`recover_bytes`].
pub fn recover_file(path: impl AsRef<Path>) -> Result<Recovered, JournalError> {
    recover_bytes(&std::fs::read(path)?)
}

/// Truncates a recovered journal's torn tail in place so the file ends
/// at the last valid record and can be appended to again.
///
/// # Errors
///
/// [`JournalError::Io`] on filesystem failure.
pub fn truncate_torn_tail(path: impl AsRef<Path>, recovered: &Recovered) -> Result<(), JournalError> {
    if recovered.torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(recovered.valid_len)?;
        file.sync_data()?;
    }
    Ok(())
}

/// The append side of the journal: length-prefixed checksummed frames
/// through a buffered writer, with an every-`fsync_every`-records
/// durability barrier (`0` = only explicit [`sync`](Self::sync) calls,
/// e.g. at checkpoints). Appends land in the writer's buffer; the
/// flush + `fsync` pair is batched — group commit, exactly like a
/// database log. A crash inside the window loses at most the last
/// `fsync_every` acknowledged events **as a torn tail**, which
/// [`recover_bytes`] truncates to the longest valid frame prefix; it
/// can never corrupt the replayable prefix, because every frame
/// carries its own checksum.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
    /// The file's length once every frame appended so far is written.
    end: u64,
    fsync_every: u32,
    unsynced: u32,
    appends: u64,
    fsyncs: u64,
    /// Reused payload buffer so the hot append path allocates nothing.
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing
    /// file), writes the fleet header and makes it durable.
    ///
    /// # Errors
    ///
    /// I/O errors from creation, writing or syncing.
    pub fn create(
        path: impl AsRef<Path>,
        servers: &[ServerSpec],
        fsync_every: u32,
    ) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(WRITE_BUF_BYTES, file);
        let header = encode_header(servers);
        out.write_all(&header)?;
        out.flush()?;
        out.get_ref().sync_data()?;
        Ok(Self {
            out,
            end: header.len() as u64,
            fsync_every,
            unsynced: 0,
            appends: 0,
            fsyncs: 1,
            scratch: Vec::with_capacity(128),
        })
    }

    /// Opens an existing journal for appending. The caller is expected
    /// to have validated it with [`recover_file`] and truncated any
    /// torn tail with [`truncate_torn_tail`] first.
    ///
    /// # Errors
    ///
    /// I/O errors from opening the file.
    pub fn open_append(path: impl AsRef<Path>, fsync_every: u32) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            end: file.metadata()?.len(),
            out: BufWriter::with_capacity(WRITE_BUF_BYTES, file),
            fsync_every,
            unsynced: 0,
            appends: 0,
            fsyncs: 0,
            scratch: Vec::with_capacity(128),
        })
    }

    /// Appends one record as a frame of its own. See
    /// [`append_line`](Self::append_line).
    ///
    /// # Errors
    ///
    /// As [`append_line`](Self::append_line).
    pub fn append(&mut self, record: &JournalRecord) -> std::io::Result<()> {
        self.append_line(std::slice::from_ref(record))
    }

    /// Appends the records of one protocol line as one frame, so that a
    /// torn tail keeps all of them or none; once `fsync_every` records
    /// are appended since the last barrier, the buffer is flushed and
    /// made durable.
    ///
    /// # Errors
    ///
    /// I/O errors from writing or syncing. The frame may then be
    /// anywhere between the buffer and the disk, and the writer must be
    /// [`abandon`](Self::abandon)ed.
    pub fn append_line(&mut self, records: &[JournalRecord]) -> std::io::Result<()> {
        // An empty frame would read as the end of the journal.
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        for record in records {
            encode_record_into(record, &mut self.scratch);
        }
        let len = u32::try_from(self.scratch.len() - 4)
            .map_err(|_| std::io::Error::other("a journal frame over 4 GiB"))?;
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        let sum = fnv1a(&self.scratch[4..]);
        self.scratch.extend_from_slice(&sum.to_le_bytes());
        self.out.write_all(&self.scratch)?;
        self.end += self.scratch.len() as u64;
        let n = records.len() as u32;
        self.appends += u64::from(n);
        self.unsynced = self.unsynced.saturating_add(n);
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends recovered records framed as a session writes them:
    /// each `Repair` shares the frame of the `DOWN` before it.
    ///
    /// # Errors
    ///
    /// As [`append_line`](Self::append_line).
    pub(crate) fn append_recovered(&mut self, records: &[JournalRecord]) -> std::io::Result<()> {
        records
            .chunk_by(|_, next| matches!(next, JournalRecord::Repair(..)))
            .try_for_each(|line| self.append_line(line))
    }

    /// The journal's length once every frame appended so far is
    /// written: where the next frame starts.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Gives the journal up after a failed append or sync: what is
    /// still buffered is dropped unwritten, and the file is cut back to
    /// `end` (an earlier [`end`](Self::end)) if it grew past it, so it
    /// recovers to the state it held there. Best effort: a disk that
    /// refuses the cut too leaves the file as it is.
    pub fn abandon(self, end: u64) {
        let (file, _unwritten) = self.out.into_parts();
        if file.metadata().is_ok_and(|m| m.len() > end) && file.set_len(end).is_ok() {
            let _ = file.sync_data();
        }
    }

    /// Flushes and fsyncs pending appends (a durability barrier).
    ///
    /// # Errors
    ///
    /// I/O errors from flushing or syncing.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Durability barriers issued so far (including the header sync).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esvm_simcore::Interval;

    fn fleet() -> Vec<ServerSpec> {
        (0..3u32)
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

    fn sample_records() -> Vec<JournalRecord> {
        let vm = |id| Vm::new(id, Resources::new(2.0, 4.0), Interval::new(1, 10));
        vec![
            JournalRecord::Req(vm(0)),
            JournalRecord::Arrival(vm(1), Answer::Placed(ServerId(2))),
            JournalRecord::Arrival(vm(2), Answer::Rejected),
            JournalRecord::Arrival(vm(1), Answer::Duplicate),
            JournalRecord::Arrival(vm(3), Answer::OutOfOrder(4)),
            JournalRecord::Down {
                server: ServerId(1),
                retries: 3,
                backoff: 2,
            },
            JournalRecord::Repair(
                VmId(1),
                RepairOutcome::Rehosted {
                    server: ServerId(0),
                    start: 5,
                    attempt: 1,
                },
            ),
            JournalRecord::Repair(VmId(2), RepairOutcome::Shed),
            JournalRecord::Up(ServerId(1)),
            JournalRecord::Shed(VmId(9)),
            JournalRecord::Drain,
            JournalRecord::Checkpoint(Checkpoint {
                clock: 10,
                live: 0,
                placed: 1,
                rejected: 0,
                departed: 1,
                evicted: 0,
                repaired: 0,
                committed_cost_bits: 4_618_441_417_868_443_648,
                retired_cost_bits: 0,
            }),
        ]
    }

    #[test]
    fn a_decision_costs_recovery_no_more_memory_than_a_request() {
        // Recovery holds every record; an arrival's answer fits beside
        // its VM within the checkpoint-sized enum a `REQ` took.
        assert!(std::mem::size_of::<JournalRecord>() <= 80);
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let payload = encode_record(&record);
            assert_eq!(decode_record(&payload), Ok(record), "{record:?}");
        }
    }

    #[test]
    fn an_arrival_answer_is_what_arrive_returned() {
        let vm = Vm::new(3, Resources::new(1.0, 1.0), Interval::new(2, 4));
        for arrival in [
            Ok(OnlineDecision::Placed(ServerId(1))),
            Ok(OnlineDecision::Rejected),
            Err(OnlineError::DuplicateVm(VmId(3))),
            Err(OnlineError::OutOfOrder {
                vm: VmId(3),
                start: 2,
                clock: 7,
            }),
        ] {
            let answer = Answer::of(&arrival).expect("arrive's own answer");
            assert_eq!(answer.arrival(&vm), arrival);
        }
        assert_eq!(Answer::of(&Err(OnlineError::UnknownVm(VmId(3)))), None);
    }

    #[test]
    fn a_line_is_one_frame_and_an_abandoned_line_is_cut_off() {
        let path = std::env::temp_dir().join(format!("esvj_line_{}.wal", std::process::id()));
        let records = sample_records();
        let mut w = JournalWriter::create(&path, &fleet(), 0).unwrap();
        w.append_line(&records[5..8]).unwrap();
        w.sync().unwrap();
        let kept = w.end();
        assert_eq!(kept, std::fs::metadata(&path).unwrap().len());
        // A torn tail inside the frame loses the whole line.
        let bytes = std::fs::read(&path).unwrap();
        let torn = recover_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert!(torn.records.is_empty());
        // A line written to the file before its failure is cut off.
        w.append_line(&records[..2]).unwrap();
        w.sync().unwrap();
        w.append(&records[2]).unwrap();
        w.abandon(kept);
        let rec = recover_file(&path).unwrap();
        assert_eq!(rec.records, records[5..8]);
        assert_eq!((rec.valid_len, rec.torn_bytes), (kept, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip_and_counters() {
        let path = std::env::temp_dir().join("esvj_round_trip.wal");
        let mut w = JournalWriter::create(&path, &fleet(), 2).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        assert_eq!(w.appends(), records.len() as u64);
        // Header sync + one barrier per two appends.
        assert_eq!(w.fsyncs(), 1 + records.len() as u64 / 2);
        drop(w);

        let rec = recover_file(&path).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.servers.len(), 3);
        assert_eq!(rec.servers[1].capacity().cpu, 8.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = std::env::temp_dir().join("esvj_torn.wal");
        let mut w = JournalWriter::create(&path, &fleet(), 0).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Cut mid-record: the prefix parses, the tail is reported.
        let cut = full.len() - 5;
        let rec = recover_bytes(&full[..cut]).unwrap();
        assert!(rec.records.len() < sample_records().len());
        assert_eq!(rec.valid_len + rec.torn_bytes, cut as u64);
        // Truncation brings the file back to a clean append point.
        std::fs::write(&path, &full[..cut]).unwrap();
        truncate_torn_tail(&path, &rec).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            rec.valid_len
        );
        let again = recover_file(&path).unwrap();
        assert_eq!(again.records, rec.records);
        assert_eq!(again.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_is_typed() {
        let bytes = encode_header(&fleet());
        assert_eq!(recover_bytes(b"ESVT"), Err(JournalError::BadMagic));
        assert_eq!(recover_bytes(&bytes[..3]), Err(JournalError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            recover_bytes(&wrong_version),
            Err(JournalError::BadVersion(9))
        );
        // Journals written before the engine kept history until cold,
        // and before the journal recorded decisions.
        for old in [1u16, 2] {
            let mut older = bytes.clone();
            older[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(recover_bytes(&older), Err(JournalError::BadVersion(old)));
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 20;
        flipped[last] ^= 0x10;
        assert!(matches!(
            recover_bytes(&flipped),
            Err(JournalError::CorruptHeader(_))
        ));
        // Truncated fleet section.
        assert!(matches!(
            recover_bytes(&bytes[..bytes.len() - 9]),
            Err(JournalError::CorruptHeader(_))
        ));
    }

    #[test]
    fn valid_checksum_with_impossible_payload_is_corrupt_record() {
        let mut bytes = encode_header(&fleet());
        // Hand-forge a frame with a valid checksum over an unknown tag.
        let payload = [42u8, 1, 2, 3];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        assert!(matches!(
            recover_bytes(&bytes),
            Err(JournalError::CorruptRecord { index: 0, .. })
        ));
    }
}

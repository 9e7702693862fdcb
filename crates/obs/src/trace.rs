//! Decision-provenance tracing: RAII hierarchical spans, per-placement
//! explain records, and per-span latency histograms.
//!
//! The paper's Eq. 7 argmin is opaque at runtime: the placement says
//! *what* MIEC chose but not *why* — which candidates were scanned,
//! what spec-class pruning discarded, what the decision cost in wall
//! time. This module makes each decision
//! self-describing without perturbing the hot paths, using zero-cost
//! static dispatch: instrumented algorithms are generic over
//! `T: Tracer`, guard every metric update and record construction
//! behind the associated constant [`Tracer::ENABLED`], and
//! monomorphisation compiles the [`NoopTracer`] instantiation down to
//! the uninstrumented code.
//!
//! Three primitives:
//!
//! * **Spans** — hierarchical wall-clock intervals (run → phase →
//!   decision) opened with [`Tracer::span`], closed by RAII when the
//!   returned [`SpanGuard`] drops (including during panic unwinding),
//!   carrying monotonic timestamps and parent ids.
//! * **Explain records** — one [`ExplainRecord`] per placement
//!   decision: the VM, how many candidates were scanned, how many the
//!   spec-class prune discarded, the winning server, the incremental-cost delta, and
//!   the floating-point-tie flag; under chaos, the eviction and
//!   repair/shed attribution (attempt count, replay time,
//!   evicted-from server).
//! * **Latency histograms** — every closed span's duration lands in a
//!   per-name [`Log2Histogram`], so p50/p95/p99/max decision latency
//!   is available without post-processing.
//!
//! The [`CollectingTracer`] buffers everything in memory and exports
//! two formats: flat JSON Lines (queryable with `esvm query`, one
//! object per span or explain record) and Chrome `trace_event` JSON,
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! The [`DiscardTracer`] is enabled but keeps nothing: the tracer of a
//! metrics-only run.

use crate::metrics::{HistogramSummary, Log2Histogram};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of one span within a tracer. Ids are assigned in enter
/// order starting at 1; [`SpanId::NONE`] (0) is the parent of roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent parent: roots of the span forest point here.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What kind of decision an [`ExplainRecord`] explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// MIEC placed a VM on the winning server.
    Place,
    /// MIEC found no feasible server (admission control rejects).
    Reject,
    /// LocalSearch accepted a relocate move.
    Relocate,
    /// LocalSearch accepted a swap move.
    Swap,
    /// ChaosEngine re-placed a displaced VM after an outage.
    Repair,
    /// ChaosEngine shed a VM after exhausting retries.
    Shed,
    /// ChaosEngine refused an arrival admission under degradation.
    Refuse,
    /// ChaosEngine displaced a VM's remaining work from a server that
    /// went down (`from`), at replay time `time`.
    Evict,
}

impl DecisionKind {
    /// Lower-case label used in exports (`"place"`, `"repair"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Place => "place",
            DecisionKind::Reject => "reject",
            DecisionKind::Relocate => "relocate",
            DecisionKind::Swap => "swap",
            DecisionKind::Repair => "repair",
            DecisionKind::Shed => "shed",
            DecisionKind::Refuse => "refuse",
            DecisionKind::Evict => "evict",
        }
    }
}

/// Why one allocation decision came out the way it did.
///
/// Every field maps to a term of the paper's Eq. 7 argmin loop (see
/// MODEL.md): `candidates` is the number of servers actually scored,
/// `pruned` the asleep twins the spec-class prune skipped, `unfit` the
/// capacity failures, `winner`/`delta_cost` the argmin itself, and
/// `fp_tie` whether a scored delta exactly equalled the best one so
/// far, a tie the lowest id wins. Construct with struct-update syntax over
/// [`ExplainRecord::new`]. The chaos fields (`from`, `attempt`,
/// `time`) default to absent/zero outside replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainRecord {
    /// Decision kind (placement, move, repair, …).
    pub kind: DecisionKind,
    /// VM the decision is about (slot index).
    pub vm: u64,
    /// Servers actually scored by the argmin scan.
    pub candidates: u64,
    /// Standby spec-class twins (pristine or cold) a lower-id class
    /// representative stood in for.
    pub pruned: u64,
    /// Servers that failed the capacity check.
    pub unfit: u64,
    /// Winning server, when the decision placed somewhere.
    pub winner: Option<u64>,
    /// Incremental Eq. 7 cost delta of the winning placement.
    pub delta_cost: f64,
    /// Whether a scored delta exactly equalled the running best during
    /// the scan, so the lowest server id decided between them.
    pub fp_tie: bool,
    /// Server the VM was displaced from (chaos repair attribution).
    pub from: Option<u64>,
    /// Repair attempt number under chaos (0 = first try).
    pub attempt: u64,
    /// Replay time unit of the decision under chaos.
    pub time: Option<u64>,
}

impl ExplainRecord {
    /// A record of `kind` about `vm` with every other field zeroed —
    /// the base for struct-update construction at instrumentation
    /// sites.
    pub fn new(kind: DecisionKind, vm: u64) -> Self {
        Self {
            kind,
            vm,
            candidates: 0,
            pruned: 0,
            unfit: 0,
            winner: None,
            delta_cost: 0.0,
            fp_tie: false,
            from: None,
            attempt: 0,
            time: None,
        }
    }
}

/// The one instrumentation channel: destination for spans and explain
/// records, and the switch for every metric an engine records.
///
/// Implementations with `ENABLED = true` receive everything;
/// [`NoopTracer`] sets `ENABLED = false`, and instrumented call sites
/// guard metric updates, argmin tallies and explain-record
/// construction behind this constant so the disabled instantiation
/// compiles to the uninstrumented code. Span guards need no guard —
/// the noop `enter`/`exit` pair is inlined away.
///
/// Methods take `&self` (tracers use interior mutability) so a span
/// guard borrowing the tracer does not block nested spans or explain
/// records underneath it.
pub trait Tracer {
    /// Whether this tracer records anything at all.
    const ENABLED: bool = true;

    /// Opens a span named `name`; the caller must pass the returned id
    /// to [`Tracer::exit`]. Prefer [`Tracer::span`], which does so by
    /// RAII.
    fn enter(&self, name: &'static str) -> SpanId;

    /// Closes the span `id` (and any still-open children, which are
    /// closed at the same instant).
    fn exit(&self, id: SpanId);

    /// Records one decision explanation, attached to the innermost
    /// open span.
    fn explain(&self, record: &ExplainRecord);

    /// Like [`Tracer::enter`], but the span's start may reuse the
    /// tracer's most recent clock stamp instead of reading the clock
    /// again. Meant for back-to-back phases in a hot loop (decision
    /// after decision), where the previous span's end *is* this span's
    /// start; implementations without a stamp to reuse read the clock.
    fn enter_following(&self, name: &'static str) -> SpanId {
        self.enter(name)
    }

    /// Opens a span closed automatically when the returned guard
    /// drops — including during panic unwinding, so span trees stay
    /// balanced even when an allocator panics mid-decision.
    fn span(&self, name: &'static str) -> SpanGuard<'_, Self>
    where
        Self: Sized,
    {
        SpanGuard { id: self.enter(name), tracer: self }
    }

    /// RAII form of [`Tracer::enter_following`]: a span contiguous
    /// with the tracer's previous activity, at half the clock cost.
    fn lap_span(&self, name: &'static str) -> SpanGuard<'_, Self>
    where
        Self: Sized,
    {
        SpanGuard { id: self.enter_following(name), tracer: self }
    }
}

/// RAII guard returned by [`Tracer::span`]; closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a, T: Tracer> {
    id: SpanId,
    tracer: &'a T,
}

impl<T: Tracer> SpanGuard<'_, T> {
    /// The guarded span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl<T: Tracer> Drop for SpanGuard<'_, T> {
    fn drop(&mut self) {
        self.tracer.exit(self.id);
    }
}

/// The statically disabled default tracer: guards compile to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn exit(&self, _id: SpanId) {}

    #[inline(always)]
    fn explain(&self, _record: &ExplainRecord) {}
}

/// An enabled tracer that keeps nothing: every instrumentation guard
/// runs, so counters and histograms land in the metrics registry, but
/// spans and explain records are dropped. The tracer of a metrics-only
/// run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiscardTracer;

impl Tracer for DiscardTracer {
    #[inline(always)]
    fn enter(&self, _name: &'static str) -> SpanId {
        SpanId::NONE
    }

    #[inline(always)]
    fn exit(&self, _id: SpanId) {}

    #[inline(always)]
    fn explain(&self, _record: &ExplainRecord) {}
}

/// One closed span: name, parent, and monotonic start/end nanoseconds
/// measured from the tracer's construction instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (enter order, 1-based).
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Static span name (`"miec.run"`, `"miec.decision"`, …).
    pub name: &'static str,
    /// Monotonic start, nanoseconds since tracer construction.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since tracer construction.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One explain record plus its position in the span tree and timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainEntry {
    /// Innermost span open when the record was emitted.
    pub span: SpanId,
    /// Monotonic timestamp, nanoseconds since tracer construction.
    pub ts_ns: u64,
    /// The decision explanation itself.
    pub record: ExplainRecord,
}

#[derive(Debug)]
struct OpenSpan {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
}

#[derive(Debug, Default)]
struct Collected {
    next_id: u64,
    // Most recent clock stamp taken by enter/exit. Explain records
    // inside an open span reuse it instead of reading the clock a
    // third time per decision: the stamp is at or after the innermost
    // span's start and at or before its eventual end, so containment
    // and monotonicity hold by construction.
    last_ns: u64,
    open: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    explains: Vec<ExplainEntry>,
}

/// An enabled tracer that buffers spans and explain records in memory
/// and tracks per-span-name duration histograms.
///
/// Like [`MetricsRegistry`](crate::MetricsRegistry) it uses interior
/// mutability and is not `Sync`: every traced engine runs on one
/// thread.
#[derive(Debug)]
pub struct CollectingTracer {
    epoch: Instant,
    inner: RefCell<Collected>,
}

impl Default for CollectingTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingTracer {
    /// An empty tracer; timestamps count from this instant.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), inner: RefCell::new(Collected::default()) }
    }

    /// Discards everything recorded so far and restarts the timestamp
    /// epoch, keeping the allocated buffers. Reusing one tracer across
    /// runs this way skips re-faulting the span/explain buffers, which
    /// is a real share of a cold tracer's first-run cost.
    pub fn reset(&mut self) {
        let inner = self.inner.get_mut();
        inner.next_id = 0;
        inner.last_ns = 0;
        inner.open.clear();
        inner.spans.clear();
        inner.explains.clear();
        self.epoch = Instant::now();
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        // Stays in u64 arithmetic (no u128 `as_nanos`): the tracer
        // lives minutes, not centuries.
        let d = self.epoch.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }

    /// All closed spans so far, in close order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.clone()
    }

    /// All explain records so far, in emission order.
    pub fn explains(&self) -> Vec<ExplainEntry> {
        self.inner.borrow().explains.clone()
    }

    /// Number of spans entered but not yet exited.
    pub fn open_spans(&self) -> usize {
        self.inner.borrow().open.len()
    }

    /// Duration summary (with p50/p95/p99) for the span name, if any
    /// span of that name has closed.
    pub fn latency(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.inner.borrow();
        let mut hist = Log2Histogram::new();
        for s in inner.spans.iter().filter(|s| s.name == name) {
            hist.record(s.duration_ns() as f64 / 1e9);
        }
        (hist.summary().count > 0).then(|| hist.summary())
    }

    /// Duration summaries for every span name, sorted by name.
    ///
    /// Histograms are built lazily from the buffered span records (the
    /// per-decision hot path only stamps and pushes), so this walks
    /// every closed span — fine at report time, not meant per-decision.
    pub fn latencies(&self) -> Vec<(&'static str, HistogramSummary)> {
        let inner = self.inner.borrow();
        let mut hists: Vec<(&'static str, Log2Histogram)> = Vec::new();
        for s in &inner.spans {
            let hist = match hists.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, h)) => h,
                None => {
                    hists.push((s.name, Log2Histogram::new()));
                    &mut hists.last_mut().expect("just pushed").1
                }
            };
            hist.record(s.duration_ns() as f64 / 1e9);
        }
        hists.sort_unstable_by_key(|(name, _)| *name);
        hists.into_iter().map(|(name, h)| (name, h.summary())).collect()
    }

    /// Serialises every span and explain record as flat JSON Lines —
    /// the shape `esvm query` ingests. Explain lines come first (in
    /// emission order), then spans (in enter order), so provenance
    /// filters like `filter pruned gt 100` see a homogeneous prefix.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for e in &inner.explains {
            push_explain_jsonl(&mut out, e);
        }
        let mut spans = inner.spans.clone();
        spans.sort_by_key(|s| s.id);
        for s in &spans {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":",
                s.id.0, s.parent.0
            );
            push_json_string(&mut out, s.name);
            let _ = writeln!(
                out,
                ",\"start_us\":{},\"dur_us\":{}}}",
                json_f64(s.start_ns as f64 / 1e3),
                json_f64(s.duration_ns() as f64 / 1e3)
            );
        }
        out
    }

    /// Serialises the span forest (plus explain records as instant
    /// events) as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or Perfetto. Timestamps are microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut spans = inner.spans.clone();
        spans.sort_by_key(|s| s.id);
        for s in &spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            push_json_string(&mut out, s.name);
            let _ = write!(
                out,
                ",\"cat\":\"esvm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                json_f64(s.start_ns as f64 / 1e3),
                json_f64(s.duration_ns() as f64 / 1e3),
                s.id.0,
                s.parent.0
            );
        }
        for e in &inner.explains {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"explain:{}\",\"cat\":\"esvm\",\"ph\":\"i\",\"ts\":{},\
                 \"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{{",
                e.record.kind.as_str(),
                json_f64(e.ts_ns as f64 / 1e3)
            );
            push_explain_fields(&mut out, e);
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

impl Tracer for CollectingTracer {
    #[inline]
    fn enter(&self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.last_ns = start_ns;
        inner.next_id += 1;
        let id = SpanId(inner.next_id);
        let parent = inner.open.last().map_or(SpanId::NONE, |s| s.id);
        inner.open.push(OpenSpan { id, parent, name, start_ns });
        id
    }

    #[inline]
    fn enter_following(&self, name: &'static str) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        // Before any stamp exists there is nothing to be contiguous
        // with — take a real reading, as `enter` would.
        let start_ns = if inner.last_ns == 0 { self.now_ns() } else { inner.last_ns };
        inner.last_ns = start_ns;
        inner.next_id += 1;
        let id = SpanId(inner.next_id);
        let parent = inner.open.last().map_or(SpanId::NONE, |s| s.id);
        inner.open.push(OpenSpan { id, parent, name, start_ns });
        id
    }

    #[inline]
    fn exit(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.last_ns = end_ns;
        // Exits arrive in LIFO order under RAII; still-open children
        // (possible only through manual enter/exit misuse) are closed
        // at the same instant so the tree stays well-formed.
        let Some(pos) = inner.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        while inner.open.len() > pos {
            let s = inner.open.pop().expect("len > pos");
            inner.spans.push(SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_ns: s.start_ns,
                end_ns,
            });
        }
    }

    #[inline]
    fn explain(&self, record: &ExplainRecord) {
        let mut inner = self.inner.borrow_mut();
        // Inside a span, reuse the enter/exit stamp (see `last_ns`);
        // a bare explain with no open span pays for a real clock read.
        let (span, ts_ns) = match inner.open.last() {
            Some(s) => (s.id, inner.last_ns),
            None => (SpanId::NONE, self.now_ns()),
        };
        inner.explains.push(ExplainEntry { span, ts_ns, record: *record });
    }
}

/// Shortest-roundtrip f64 rendering with non-finite values as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Appends `s` as a JSON string literal, escaping quotes, backslashes
/// and control characters.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_explain_fields(out: &mut String, e: &ExplainEntry) {
    let r = &e.record;
    let _ = write!(
        out,
        "\"kind\":\"{}\",\"vm\":{},\"candidates\":{},\"pruned\":{},\"unfit\":{},\
         \"winner\":{},\"delta\":{},\"fp_tie\":{}",
        r.kind.as_str(),
        r.vm,
        r.candidates,
        r.pruned,
        r.unfit,
        r.winner.map_or("null".to_owned(), |w| w.to_string()),
        json_f64(r.delta_cost),
        r.fp_tie,
    );
    if let Some(from) = r.from {
        let _ = write!(out, ",\"from\":{from}");
    }
    if r.attempt != 0 {
        let _ = write!(out, ",\"attempt\":{}", r.attempt);
    }
    if let Some(time) = r.time {
        let _ = write!(out, ",\"time\":{time}");
    }
    let _ = write!(out, ",\"span\":{}", e.span.0);
}

fn push_explain_jsonl(out: &mut String, e: &ExplainEntry) {
    out.push_str("{\"type\":\"explain\",");
    push_explain_fields(out, e);
    let _ = writeln!(out, ",\"ts_us\":{}}}", json_f64(e.ts_ns as f64 / 1e3));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings_and_nulls_non_finite_floats() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn noop_tracer_is_statically_disabled() {
        assert!(!<NoopTracer as Tracer>::ENABLED);
        assert!(<DiscardTracer as Tracer>::ENABLED);
        assert!(<CollectingTracer as Tracer>::ENABLED);
        let t = NoopTracer;
        let g = t.span("x");
        assert!(g.id().is_none());
        t.explain(&ExplainRecord::new(DecisionKind::Place, 0));
    }

    #[test]
    fn spans_nest_and_close_in_raii_order() {
        let t = CollectingTracer::new();
        {
            let _run = t.span("run");
            {
                let _batch = t.span("batch");
                let _decision = t.span("decision");
            }
            assert_eq!(t.open_spans(), 1);
        }
        assert_eq!(t.open_spans(), 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        // Close order: decision, batch, run.
        assert_eq!(spans[0].name, "decision");
        assert_eq!(spans[1].name, "batch");
        assert_eq!(spans[2].name, "run");
        // Parent links form the chain run <- batch <- decision.
        assert_eq!(spans[2].parent, SpanId::NONE);
        assert_eq!(spans[1].parent, spans[2].id);
        assert_eq!(spans[0].parent, spans[1].id);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn explain_attaches_to_innermost_open_span() {
        let t = CollectingTracer::new();
        let outer = t.span("outer");
        {
            let inner = t.span("inner");
            t.explain(&ExplainRecord {
                winner: Some(7),
                delta_cost: 1.5,
                ..ExplainRecord::new(DecisionKind::Place, 3)
            });
            assert_eq!(t.explains()[0].span, inner.id());
        }
        t.explain(&ExplainRecord::new(DecisionKind::Reject, 4));
        assert_eq!(t.explains()[1].span, outer.id());
        drop(outer);
        let e = &t.explains()[0];
        assert_eq!(e.record.vm, 3);
        assert_eq!(e.record.winner, Some(7));
        assert_eq!(e.record.delta_cost, 1.5);
    }

    #[test]
    fn guards_close_spans_during_panic_unwind() {
        let t = CollectingTracer::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _run = t.span("run");
            let _decision = t.span("decision");
            panic!("allocator exploded mid-decision");
        }));
        assert!(caught.is_err());
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn lap_spans_are_contiguous_with_previous_activity() {
        let t = CollectingTracer::new();
        {
            let _a = t.span("a");
        }
        {
            let _b = t.lap_span("b");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // b starts exactly where a ended: no clock read in between.
        assert_eq!(spans[1].start_ns, spans[0].end_ns);
        assert!(spans[1].end_ns >= spans[1].start_ns);

        // With no stamp to reuse, a lap span takes a real reading.
        let fresh = CollectingTracer::new();
        {
            let _first = fresh.lap_span("first");
        }
        let spans = fresh.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn reset_clears_records_and_restarts_ids() {
        let mut t = CollectingTracer::new();
        {
            let _a = t.span("a");
            t.explain(&ExplainRecord::new(DecisionKind::Place, 1));
        }
        assert_eq!(t.spans().len(), 1);
        t.reset();
        assert_eq!(t.spans().len(), 0);
        assert_eq!(t.explains().len(), 0);
        assert_eq!(t.open_spans(), 0);
        {
            let _b = t.span("b");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, SpanId(1), "ids restart from 1 after reset");
    }

    #[test]
    fn manual_exit_closes_open_children() {
        let t = CollectingTracer::new();
        let run = t.enter("run");
        let _child = t.enter("child");
        t.exit(run); // child never exited explicitly
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.spans().len(), 2);
        // A second exit of the same id is a no-op.
        t.exit(run);
        assert_eq!(t.spans().len(), 2);
    }

    #[test]
    fn latency_histograms_track_per_name_durations() {
        let t = CollectingTracer::new();
        for _ in 0..10 {
            let _d = t.span("decision");
        }
        let summary = t.latency("decision").unwrap();
        assert_eq!(summary.count, 10);
        assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        assert!(summary.p99 <= summary.max || summary.count == 0);
        assert!(t.latency("missing").is_none());
        assert_eq!(t.latencies().len(), 1);
    }

    #[test]
    fn jsonl_export_is_flat_and_parseable() {
        let t = CollectingTracer::new();
        {
            let _run = t.span("miec.run");
            t.explain(&ExplainRecord {
                candidates: 500,
                pruned: 461,
                winner: Some(37),
                delta_cost: 1.25,
                from: Some(9),
                time: Some(42),
                attempt: 2,
                ..ExplainRecord::new(DecisionKind::Repair, 12)
            });
        }
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"explain\""), "{jsonl}");
        assert!(lines[0].contains("\"kind\":\"repair\""), "{jsonl}");
        assert!(lines[0].contains("\"pruned\":461"), "{jsonl}");
        assert!(lines[0].contains("\"winner\":37"), "{jsonl}");
        assert!(lines[0].contains("\"from\":9"), "{jsonl}");
        assert!(lines[0].contains("\"attempt\":2"), "{jsonl}");
        assert!(lines[0].contains("\"time\":42"), "{jsonl}");
        assert!(lines[1].starts_with("{\"type\":\"span\""), "{jsonl}");
        assert!(lines[1].contains("\"name\":\"miec.run\""), "{jsonl}");
        // Each line is a flat JSON object: single-level brace nesting.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), 1, "{line}");
        }
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let t = CollectingTracer::new();
        {
            let _run = t.span("run");
            let _d = t.span("decision");
            t.explain(&ExplainRecord::new(DecisionKind::Place, 1));
        }
        let json = t.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"name\":\"explain:place\""), "{json}");
        // Balanced braces and brackets (cheap well-formedness check;
        // the exper tests run a real parse).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

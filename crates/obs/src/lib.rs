//! In-house observability layer for the esvm workspace.
//!
//! The paper's objective (Eq. 7) is a sum of three physically distinct
//! terms — run, idle and transition energy — and the allocation layers
//! (MIEC candidate scanning, local-search refinement, migration
//! consolidation) make thousands of micro-decisions per run. This crate
//! provides the two primitives the rest of the workspace uses to make
//! both visible without perturbing the hot paths:
//!
//! * a [`MetricsRegistry`] holding named counters, gauges and
//!   log2-bucketed histograms (with p50/p95/p99 quantiles);
//! * a [`Tracer`] trait for decision provenance — RAII hierarchical
//!   spans ([`trace::SpanGuard`]), per-decision [`ExplainRecord`]s,
//!   and per-span latency histograms, collected by
//!   [`CollectingTracer`] and exportable as query-friendly JSON Lines
//!   or Chrome `trace_event` JSON.
//!
//! The tracer is the one instrumentation switch. Instrumented engines
//! take `(metrics, tracer)` and are generic over `T: Tracer` only;
//! every counter increment, histogram observation and explain record
//! sits behind the associated constant [`Tracer::ENABLED`].
//! Monomorphisation compiles the [`NoopTracer`] instantiation down to
//! the uninstrumented code — the disabled path has literally zero
//! observability instructions, which the `ledger` and `local_search`
//! benches pin against the recorded numbers. A metrics-only run passes
//! the [`DiscardTracer`], which is enabled but keeps no spans or
//! records.
//!
//! The crate is dependency-free (the workspace builds offline) and
//! deliberately single-threaded: the registry uses interior mutability
//! via `RefCell` so call sites can share it immutably, and is therefore
//! not `Sync`. Experiment code instruments one representative seeded run
//! per configuration rather than the multi-threaded Monte-Carlo sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod names;
pub mod trace;

pub use metrics::{HistogramSummary, Log2Histogram, MetricValue, MetricsRegistry};
pub use trace::{
    CollectingTracer, DecisionKind, DiscardTracer, ExplainEntry, ExplainRecord, NoopTracer,
    SpanGuard, SpanId, SpanRecord, Tracer,
};

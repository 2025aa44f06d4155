//! `bq-obs`: zero-external-dependency observability for the bq workspace.
//!
//! Three pieces, layered bottom-up:
//!
//! * [`registry`] — a process-global metrics registry of atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s, registered
//!   by static name via the [`counter!`]/[`gauge!`]/[`histogram!`] macros
//!   (registry lock once per call site, then lock-free). Exposed as
//!   Prometheus-style text or JSON, and diffable via [`Snapshot`].
//! * [`tracer`] — an opt-in structured span tracer ([`span!`]) with a
//!   thread-local span stack and a bounded ring of [`FinishedSpan`]s,
//!   rendered as an indented flame tree or JSON.
//! * [`profile`] — [`QueryProfile`]: one statement's wall time, rendered
//!   plan, counter deltas, and span flame in a single value
//!   ([`ProfileSession`] brackets the execution).
//!
//! Every crate in the workspace reports into the same global registry, so
//! `Db::metrics_text()` shows storage, txn, datalog, and exec activity in
//! one page. Instrumentation must never change results — only observe —
//! and `tests/obs_integration.rs` (workspace root) enforces that
//! differentially.

pub mod profile;
pub mod registry;
pub mod tracer;

pub use profile::{ProfileSession, QueryProfile};
pub use registry::{
    delta_json, global, Counter, Gauge, HistTimer, Histogram, MetricRow, Registry, Snapshot,
    LATENCY_BUCKETS_US, SIZE_BUCKETS,
};
pub use tracer::{
    buffered, drain, enabled, flame_text, now_us, set_enabled, set_ring_capacity, span, span_with,
    spans_json, FinishedSpan, SpanGuard,
};

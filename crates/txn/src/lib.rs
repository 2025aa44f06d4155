//! # bq-txn
//!
//! Transaction processing — the second dominant PODS tradition (§6:
//! "concurrency control and schedulers, reliability and recovery, …").
//! The paper observes that "most database products seem to have adopted the
//! simplest solutions [GR] (two-phase locking, and occasionally optimistic
//! methods or tree-based locking)"; experiment **E9** reproduces the
//! comparison that justifies that choice.
//!
//! * [`ops`] — operations, transactions, items.
//! * [`schedule`] — schedules (histories) and their projections.
//! * [`conflict`] — conflict graphs, conflict-serializability, and
//!   brute-force view-serializability for small histories.
//! * [`classify`] — recoverability / ACA / strictness classification.
//! * [`locks`] — a shared/exclusive lock table with a waits-for graph.
//! * [`twopl`] — strict two-phase locking with deadlock detection.
//! * [`tso`] — timestamp ordering.
//! * [`occ`] — backward-validation optimistic concurrency control.
//! * [`tree`] — the tree (hierarchical) locking protocol.
//! * [`twopc`] — two-phase commit with participant and coordinator
//!   crashes (atomicity and the blocking theorem, simulated; experiment
//!   **E9b**).
//! * [`workload`] — parameterised workload generation (hotspots, read
//!   ratios, path-structured accesses).
//! * [`sim`] — the deterministic scheduler simulator and its metrics.

pub mod classify;
pub mod conflict;
pub mod locks;
pub mod occ;
pub mod ops;
pub mod schedule;
pub mod sim;
pub mod tree;
pub mod tso;
pub mod twopc;
pub mod twopl;
pub mod workload;
pub mod woundwait;

pub use classify::{is_aca, is_recoverable, is_strict};
pub use conflict::{conflict_graph, is_conflict_serializable, is_view_serializable};
pub use ops::{Access, Action, Op, TxnId};
pub use schedule::Schedule;
pub use sim::{run_sim, Decision, Scheduler, SimConfig, SimMetrics};
pub use twopc::{is_atomic, run_2pc, TwoPcConfig, TwoPcOutcome};
pub use workload::{Workload, WorkloadConfig};

//! `bq-governor`: resource governance for the bq workspace.
//!
//! The paper's "healthy field" metaphor (Figure 2) describes a discipline
//! that stays connected and responsive under stress instead of
//! fragmenting; the engine-level analogue is a system where one bad query
//! — a cross product, a runaway fixpoint, a giant build side — cannot take
//! the whole process down with it. This crate supplies the mechanism:
//!
//! * [`QueryContext`] — a cheap, cloneable per-query capability carrying a
//!   deadline, a cooperative [`CancelToken`], an atomic [`MemoryBudget`],
//!   and an iteration cap. Hot loops call [`QueryContext::check`] at
//!   morsel/iteration boundaries and charge allocations through
//!   [`QueryContext::try_reserve`] (usually batched via a [`Charger`]).
//! * [`AdmissionController`] — a process-wide bounded slot pool with a
//!   bounded wait queue that **sheds** load ([`GovernorError::Overloaded`])
//!   instead of queuing forever.
//! * [`CancelRegistry`] — the one registry of in-flight statements: it
//!   stamps each statement's trace id, lists it (`bq.queries`, a server's
//!   `ListQueries`), and cancels it from another thread (`KILL`).
//!
//! Design rules, mirroring `bq-obs` and `bq-faults`:
//!
//! * **std-only** — no dependencies beyond the workspace's own std-only
//!   crates.
//! * **Pay for what you use** — an unlimited context never reads the
//!   clock ([`QueryContext::check`] skips `Instant::now` when no deadline
//!   is set) and never touches an atomic beyond one relaxed cancel-flag
//!   load, so governed-but-unlimited execution stays within the ≤3%
//!   overhead budget measured in EXPERIMENTS.md.
//! * **Typed errors** — every refusal is a [`GovernorError`] variant that
//!   engine crates wrap (`RelError::Governed`, `DlError::Governed`,
//!   `StorageError::Governed`) and `bq-core` normalizes back to
//!   `CoreError::Governor`.
//! * **Observable and injectable** — admissions/sheds/cancellations land
//!   in the `bq-obs` registry, and the `governor.reserve.fail` failpoint
//!   makes out-of-memory paths deterministic to test.

pub mod admission;
pub mod context;

pub use admission::{AdmissionController, AdmissionPermit, AdmissionStats};
pub use context::{
    CancelRegistry, CancelToken, Charger, InFlight, MemoryBudget, QueryContext, RegisteredCancel,
    CHARGE_QUANTUM, MAX_TRACKED_SQL,
};

use std::fmt;

/// Why the governor refused to continue a piece of work. All variants are
/// plain data so the enum stays `Clone + PartialEq + Eq`, matching the
/// engine error types that embed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernorError {
    /// The statement ran past its deadline.
    DeadlineExceeded {
        /// The deadline the statement was admitted with, in milliseconds.
        deadline_ms: u64,
    },
    /// Another thread cancelled the statement via its [`CancelToken`].
    Cancelled,
    /// A reservation would have pushed usage past the memory budget.
    MemoryExceeded {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// Bytes already reserved when the request arrived.
        used: u64,
        /// The budget's limit in bytes.
        budget: u64,
    },
    /// The admission controller's slots and wait queue were both full.
    Overloaded {
        /// Statements running when this one was shed.
        running: usize,
        /// Statements already queued when this one was shed.
        queued: usize,
    },
    /// A fixpoint computation hit its iteration cap without converging.
    IterationLimit {
        /// The configured cap.
        limit: u64,
    },
}

impl fmt::Display for GovernorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernorError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline exceeded ({deadline_ms} ms)")
            }
            GovernorError::Cancelled => write!(f, "cancelled"),
            GovernorError::MemoryExceeded {
                requested,
                used,
                budget,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} B with {used} B of {budget} B used"
            ),
            GovernorError::Overloaded { running, queued } => write!(
                f,
                "overloaded: {running} statements running, {queued} queued; try again later"
            ),
            GovernorError::IterationLimit { limit } => {
                write!(f, "iteration limit reached ({limit} iterations)")
            }
        }
    }
}

impl std::error::Error for GovernorError {}

/// Record the governed outcome of one statement in the `bq-obs` registry.
///
/// Called once per statement by `bq-core` (not from worker threads, so a
/// statement that fails on four workers at once still counts once), after
/// whatever consumed its result — a copy, a reply encoding — so the peak
/// includes it: observes the budget's reservation high-water mark and
/// bumps the matching outcome counter for governor refusals. Admission
/// metrics are recorded by the [`AdmissionController`] itself.
pub fn record_statement(ctx: &QueryContext, err: Option<&GovernorError>) {
    if let Some(budget) = ctx.budget() {
        bq_obs::histogram!(
            "bq_governor_high_water_bytes",
            "per-statement peak of reserved bytes against the memory budget",
            &[
                1 << 10,
                64 << 10,
                1 << 20,
                16 << 20,
                256 << 20,
                1 << 30,
                16 << 30
            ]
        )
        .observe(budget.high_water());
    }
    if let Some(err) = err {
        record_refusal(err);
    }
}

/// Count one governor refusal under its outcome counter: what
/// [`record_statement`] does for a statement's error, and what a consumer
/// of a statement's rows (a copy, a reply encoding) does when it is
/// refused after the statement returned.
pub fn record_refusal(err: &GovernorError) {
    match err {
        GovernorError::Cancelled => {
            bq_obs::counter!(
                "bq_governor_cancelled_total",
                "statements stopped by cooperative cancellation"
            )
            .inc();
        }
        GovernorError::DeadlineExceeded { .. } => {
            bq_obs::counter!(
                "bq_governor_timed_out_total",
                "statements stopped by their deadline"
            )
            .inc();
        }
        GovernorError::MemoryExceeded { .. } => {
            bq_obs::counter!(
                "bq_governor_mem_exceeded_total",
                "statements stopped by their memory budget"
            )
            .inc();
        }
        GovernorError::IterationLimit { .. } => {
            bq_obs::counter!(
                "bq_governor_iteration_capped_total",
                "fixpoints stopped by their iteration cap"
            )
            .inc();
        }
        // Overloaded is counted at the admission controller.
        GovernorError::Overloaded { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_for_humans() {
        let cases: &[(GovernorError, &str)] = &[
            (
                GovernorError::DeadlineExceeded { deadline_ms: 50 },
                "deadline exceeded (50 ms)",
            ),
            (GovernorError::Cancelled, "cancelled"),
            (
                GovernorError::MemoryExceeded {
                    requested: 128,
                    used: 900,
                    budget: 1024,
                },
                "memory budget exceeded: requested 128 B with 900 B of 1024 B used",
            ),
            (
                GovernorError::Overloaded {
                    running: 4,
                    queued: 8,
                },
                "overloaded: 4 statements running, 8 queued; try again later",
            ),
            (
                GovernorError::IterationLimit { limit: 1000 },
                "iteration limit reached (1000 iterations)",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), *want);
        }
    }

    #[test]
    fn record_statement_bumps_outcome_counters() {
        let before = bq_obs::global().snapshot();
        let ctx = QueryContext::unlimited().with_memory_budget(1 << 20);
        ctx.try_reserve(4096).unwrap();
        record_statement(&ctx, Some(&GovernorError::Cancelled));
        record_statement(
            &ctx,
            Some(&GovernorError::DeadlineExceeded { deadline_ms: 1 }),
        );
        record_statement(&ctx, None);
        let after = bq_obs::global().snapshot();
        assert!(
            after.get("bq_governor_cancelled_total") - before.get("bq_governor_cancelled_total")
                >= 1
        );
        assert!(
            after.get("bq_governor_timed_out_total") - before.get("bq_governor_timed_out_total")
                >= 1
        );
        assert!(
            after.get("bq_governor_high_water_bytes_count")
                - before.get("bq_governor_high_water_bytes_count")
                >= 3
        );
    }
}

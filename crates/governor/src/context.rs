//! Per-query governance state: cancel tokens, memory budgets, the
//! [`QueryContext`] capability that threads both (plus a deadline and an
//! iteration cap) through the engine, and the [`CancelRegistry`] of
//! in-flight statements.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::GovernorError;

/// A cooperative cancellation flag shared between the thread running a
/// statement and any thread that wants to stop it. Cloning shares the
/// flag; [`CancelToken::cancel`] is sticky (there is no un-cancel — make
/// a fresh token, or a fresh [`QueryContext`], for the next statement).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Safe to call from any thread, any number of
    /// times; running work notices at its next governance check.
    pub fn cancel(&self) {
        // relaxed: advisory flag; checks are best-effort and re-polled.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](CancelToken::cancel) been called on any clone?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        // relaxed: see cancel() — one stale read only delays the stop.
        self.flag.load(Ordering::Relaxed)
    }
}

/// An atomic byte-reservation ledger with a fixed limit.
///
/// Allocation sites call [`try_reserve`](MemoryBudget::try_reserve)
/// *before* allocating and [`release`](MemoryBudget::release) when the
/// memory is returned; the ledger refuses reservations that would pass
/// the limit. Accounting is approximate by design (sites charge estimated
/// sizes, see `Tuple::approx_bytes`) — the goal is stopping runaway
/// queries within a budget's order of magnitude, not malloc-exact
/// bookkeeping. Cloning shares the ledger.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    limit: u64,
    used: AtomicU64,
    high_water: AtomicU64,
}

impl MemoryBudget {
    /// A budget of `limit` bytes with nothing reserved.
    pub fn new(limit: u64) -> MemoryBudget {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit,
                used: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
            }),
        }
    }

    /// The configured limit in bytes.
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        // relaxed: monotonic-ish stats read; no memory is guarded by it.
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The highest value [`used`](MemoryBudget::used) has reached.
    pub fn high_water(&self) -> u64 {
        // relaxed: stats read, same as used().
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Reserve `bytes`, failing with [`GovernorError::MemoryExceeded`] if
    /// that would pass the limit. Lock-free CAS loop; contention is rare
    /// because callers batch charges through a [`Charger`].
    pub fn try_reserve(&self, bytes: u64) -> Result<(), GovernorError> {
        bq_faults::fail_point!("governor.reserve.fail", |_| Err(
            GovernorError::MemoryExceeded {
                requested: bytes,
                used: self.used(),
                budget: self.inner.limit,
            }
        ));
        // relaxed: the ledger is a pure counter — no data is published
        // under it, so the CAS loop needs no ordering edges.
        let mut used = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = used.saturating_add(bytes);
            if next > self.inner.limit {
                return Err(GovernorError::MemoryExceeded {
                    requested: bytes,
                    used,
                    budget: self.inner.limit,
                });
            }
            // relaxed: counter-only CAS, see the load above.
            match self.inner.used.compare_exchange_weak(
                used,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // relaxed: advisory high-water mark for stats.
                    self.inner.high_water.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => used = actual,
            }
        }
    }

    /// Return `bytes` to the budget. Saturates at zero so a site that
    /// over-releases (estimates are approximate) cannot wrap the ledger.
    pub fn release(&self, bytes: u64) {
        let _ = self
            .inner
            .used
            // relaxed: counter-only update, as in try_reserve.
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(bytes))
            });
    }
}

/// The per-query capability threaded through every engine layer.
///
/// Construction is builder-style from [`QueryContext::unlimited`]; an
/// unlimited context makes every check a no-op beyond one relaxed atomic
/// load, which is what keeps governed-but-unlimited execution inside the
/// overhead budget. Cloning shares the token and budget, so a context can
/// be handed to each executor worker.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    cancel: CancelToken,
    /// Absolute deadline; `None` means no clock reads on the hot path.
    deadline: Option<Instant>,
    deadline_ms: u64,
    budget: Option<MemoryBudget>,
    max_iterations: Option<u64>,
    /// Trace identity, stamped by [`CancelRegistry::register`]. Shared
    /// by clones.
    ids: Arc<TraceIds>,
}

/// Sentinel for a query id that has not been stamped yet. Registry ids
/// start at zero, so zero cannot mean "unassigned".
const ID_UNASSIGNED: u64 = u64::MAX;

/// Interior-mutable query/session identity cells on a [`QueryContext`].
#[derive(Debug)]
struct TraceIds {
    query: AtomicU64,
    session: AtomicU64,
}

impl Default for TraceIds {
    fn default() -> TraceIds {
        TraceIds {
            query: AtomicU64::new(ID_UNASSIGNED),
            session: AtomicU64::new(0),
        }
    }
}

impl QueryContext {
    /// A context with no deadline, no budget, no iteration cap, and a
    /// fresh cancel token.
    pub fn unlimited() -> QueryContext {
        QueryContext::default()
    }

    /// Impose a wall-clock deadline, measured from now.
    pub fn with_deadline(mut self, timeout: Duration) -> QueryContext {
        self.deadline = Some(Instant::now() + timeout);
        self.deadline_ms = timeout.as_millis() as u64;
        self
    }

    /// Impose a memory budget of `bytes`.
    pub fn with_memory_budget(mut self, bytes: u64) -> QueryContext {
        self.budget = Some(MemoryBudget::new(bytes));
        self
    }

    /// Cap fixpoint evaluation at `n` iterations.
    pub fn with_max_iterations(mut self, n: u64) -> QueryContext {
        self.max_iterations = Some(n);
        self
    }

    /// The cancel token; hand a clone to whoever may need to stop this
    /// statement.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The memory budget, if one is set.
    pub fn budget(&self) -> Option<&MemoryBudget> {
        self.budget.as_ref()
    }

    /// The trace/query id [`CancelRegistry::register`] stamped, if the
    /// statement was registered yet.
    pub fn query_id(&self) -> Option<u64> {
        // relaxed: identity cell; nothing is published under it.
        match self.ids.query.load(Ordering::Relaxed) {
            ID_UNASSIGNED => None,
            id => Some(id),
        }
    }

    /// The owning session's id (a server's connection id); 0 for an
    /// embedded or unregistered statement.
    pub fn session_id(&self) -> u64 {
        // relaxed: identity cell, see query_id.
        self.ids.session.load(Ordering::Relaxed)
    }

    /// The iteration cap, if one is set.
    pub fn max_iterations(&self) -> Option<u64> {
        self.max_iterations
    }

    /// The governance check hot loops run at morsel/iteration boundaries:
    /// cancellation first (one relaxed load), then the deadline — and the
    /// clock is only read when a deadline exists.
    #[inline]
    pub fn check(&self) -> Result<(), GovernorError> {
        if self.cancel.is_cancelled() {
            return Err(GovernorError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(GovernorError::DeadlineExceeded {
                    deadline_ms: self.deadline_ms,
                });
            }
        }
        Ok(())
    }

    /// [`check`](QueryContext::check) plus the iteration cap: fixpoint
    /// loops call this once per round with the 1-based round number.
    pub fn check_iteration(&self, iteration: u64) -> Result<(), GovernorError> {
        self.check()?;
        if let Some(limit) = self.max_iterations {
            if iteration > limit {
                return Err(GovernorError::IterationLimit { limit });
            }
        }
        Ok(())
    }

    /// Charge `bytes` against the budget; a no-op without one.
    pub fn try_reserve(&self, bytes: u64) -> Result<(), GovernorError> {
        match &self.budget {
            Some(budget) => budget.try_reserve(bytes),
            None => Ok(()),
        }
    }

    /// Return `bytes` to the budget; a no-op without one.
    pub fn release(&self, bytes: u64) {
        if let Some(budget) = &self.budget {
            budget.release(bytes);
        }
    }
}

/// Batch small charges so hot loops touch the shared ledger (and the
/// clock) once per [`CHARGE_QUANTUM`] rather than once per row.
pub const CHARGE_QUANTUM: u64 = 64 * 1024;

/// Accumulates estimated allocation sizes and flushes them to the
/// context every [`CHARGE_QUANTUM`] bytes, folding a governance
/// [`check`](QueryContext::check) into each flush. Call
/// [`flush`](Charger::flush) before declaring the charged structure
/// complete; on error, drop the structure — the statement is over and the
/// budget dies with its context.
pub struct Charger<'a> {
    ctx: &'a QueryContext,
    pending: u64,
    total: u64,
    enabled: bool,
}

impl<'a> Charger<'a> {
    /// A charger with nothing pending. Disabled (all charges are no-ops)
    /// when the context has no budget, so ungoverned hot loops can guard
    /// their size estimation with [`is_enabled`](Charger::is_enabled) and
    /// pay nothing.
    pub fn new(ctx: &'a QueryContext) -> Charger<'a> {
        Charger {
            ctx,
            pending: 0,
            total: 0,
            enabled: ctx.budget.is_some(),
        }
    }

    /// Is a budget attached? When false, skip computing charge sizes.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `bytes` to the pending tally, flushing at the quantum.
    #[inline]
    pub fn charge(&mut self, bytes: u64) -> Result<(), GovernorError> {
        if !self.enabled {
            return Ok(());
        }
        self.pending += bytes;
        self.total += bytes;
        if self.pending >= CHARGE_QUANTUM {
            self.flush()?;
        }
        Ok(())
    }

    /// Every byte charged through this charger, flushed or pending.
    /// Zero when disabled (no budget means sizes were never estimated).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reserve everything pending and run a governance check.
    pub fn flush(&mut self) -> Result<(), GovernorError> {
        if self.pending > 0 {
            self.ctx.try_reserve(self.pending)?;
            self.pending = 0;
        }
        self.ctx.check()
    }
}

/// Cap on statement text kept per [`InFlight`] row, so the registry
/// stays allocation-bounded no matter what clients send.
pub const MAX_TRACKED_SQL: usize = 512;

/// One in-flight statement as [`CancelRegistry::list`] reports it: a row
/// of `bq.queries` and of a server's `ListQueries` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlight {
    /// Registry id: the trace/query id, and the `KILL` target.
    pub query: u64,
    /// Owning session id (0 when embedded).
    pub session: u64,
    /// Statement kind (`sql`, `datalog`, …).
    pub kind: &'static str,
    /// Statement text, cut to [`MAX_TRACKED_SQL`] bytes.
    pub sql: String,
    /// Start time from [`bq_obs::now_us`].
    pub start_us: u64,
}

type Entries = Arc<Mutex<BTreeMap<u64, (CancelToken, InFlight)>>>;

/// The one registry of in-flight statements: each entry holds the
/// statement's cancel token and its [`InFlight`] row, keyed by the id
/// registration hands out. `Db::cancel_handle`, `bq.queries`, a server's
/// `ListQueries` and `Kill` all read this map, so every listed statement
/// is cancellable by construction. Registration returns a
/// [`RegisteredCancel`] guard that deregisters on drop, so a finished
/// statement can never be "cancelled" into its next run. Cloning shares
/// the map.
#[derive(Debug, Clone, Default)]
pub struct CancelRegistry {
    inner: Entries,
    next_id: Arc<AtomicU64>,
}

impl CancelRegistry {
    /// An empty registry.
    pub fn new() -> CancelRegistry {
        CancelRegistry::default()
    }

    /// Track the statement `ctx` governs for the lifetime of the returned
    /// guard. This is the only place ids are stamped: the context gets a
    /// fresh query id and `session`, so the slow log, profiles and a
    /// server's `Done` frame all carry the id `KILL` accepts.
    pub fn register(
        &self,
        ctx: &QueryContext,
        session: u64,
        kind: &'static str,
        sql: &str,
    ) -> RegisteredCancel {
        // relaxed: unique-id hand-out; the mutex below publishes the entry.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // relaxed: identity cells, see QueryContext::query_id.
        ctx.ids.query.store(id, Ordering::Relaxed);
        ctx.ids.session.store(session, Ordering::Relaxed);
        let mut end = sql.len().min(MAX_TRACKED_SQL);
        while !sql.is_char_boundary(end) {
            end -= 1;
        }
        let row = InFlight {
            query: id,
            session,
            kind,
            sql: sql[..end].to_string(),
            start_us: bq_obs::now_us(),
        };
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, (ctx.cancel_token(), row));
        RegisteredCancel {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Cancel the single registered statement with this id, if it is
    /// still in flight. Returns whether one was found — a finished
    /// statement has already deregistered, so a stale id is a clean
    /// `false`, never a cancel of unrelated work.
    pub fn cancel_id(&self, id: u64) -> bool {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&id) {
            Some((token, _)) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Cancel every registered statement; returns how many.
    pub fn cancel_all(&self) -> usize {
        let map = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for (token, _) in map.values() {
            token.cancel();
        }
        map.len()
    }

    /// Number of statements currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The statements currently in flight, by id.
    pub fn list(&self) -> Vec<InFlight> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|(_, row)| row.clone())
            .collect()
    }
}

/// Guard returned by [`CancelRegistry::register`]; deregisters the
/// statement when dropped.
#[derive(Debug)]
pub struct RegisteredCancel {
    inner: Entries,
    id: u64,
}

impl RegisteredCancel {
    /// The registry id under which this statement is tracked; hand it to
    /// clients so they can [`CancelRegistry::cancel_id`] it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for RegisteredCancel {
    fn drop(&mut self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn budget_reserves_up_to_the_limit() {
        let budget = MemoryBudget::new(1000);
        assert!(budget.try_reserve(600).is_ok());
        assert!(budget.try_reserve(400).is_ok());
        let err = budget.try_reserve(1).unwrap_err();
        assert_eq!(
            err,
            GovernorError::MemoryExceeded {
                requested: 1,
                used: 1000,
                budget: 1000,
            }
        );
        budget.release(500);
        assert!(budget.try_reserve(300).is_ok());
        assert_eq!(budget.used(), 800);
        assert_eq!(budget.high_water(), 1000);
    }

    #[test]
    fn budget_release_saturates_at_zero() {
        let budget = MemoryBudget::new(100);
        budget.try_reserve(10).unwrap();
        budget.release(10_000);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn budget_is_consistent_under_contention() {
        let budget = MemoryBudget::new(100_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let budget = budget.clone();
                scope.spawn(move || {
                    let mut held = 0u64;
                    for _ in 0..10_000 {
                        if budget.try_reserve(7).is_ok() {
                            held += 7;
                        }
                    }
                    budget.release(held);
                });
            }
        });
        assert_eq!(budget.used(), 0, "everything reserved was released");
        assert!(budget.high_water() <= 100_000, "limit never overshot");
    }

    #[test]
    fn unlimited_context_checks_are_noops() {
        let ctx = QueryContext::unlimited();
        assert!(ctx.check().is_ok());
        assert!(ctx.check_iteration(u64::MAX).is_ok());
        assert!(ctx.try_reserve(u64::MAX).is_ok());
    }

    #[test]
    fn deadline_in_the_past_fails_immediately() {
        let ctx = QueryContext::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(
            ctx.check(),
            Err(GovernorError::DeadlineExceeded { deadline_ms: 0 })
        );
    }

    #[test]
    fn cancellation_beats_the_deadline() {
        let ctx = QueryContext::unlimited().with_deadline(Duration::ZERO);
        ctx.cancel_token().cancel();
        assert_eq!(ctx.check(), Err(GovernorError::Cancelled));
    }

    #[test]
    fn iteration_cap_triggers_past_the_limit() {
        let ctx = QueryContext::unlimited().with_max_iterations(3);
        assert!(ctx.check_iteration(3).is_ok());
        assert_eq!(
            ctx.check_iteration(4),
            Err(GovernorError::IterationLimit { limit: 3 })
        );
    }

    #[test]
    fn charger_batches_below_the_quantum() {
        let ctx = QueryContext::unlimited().with_memory_budget(10 * CHARGE_QUANTUM);
        let mut charger = Charger::new(&ctx);
        charger.charge(CHARGE_QUANTUM / 2).unwrap();
        assert_eq!(ctx.budget().unwrap().used(), 0, "below quantum: no flush");
        charger.charge(CHARGE_QUANTUM / 2).unwrap();
        assert_eq!(ctx.budget().unwrap().used(), CHARGE_QUANTUM);
        charger.charge(16).unwrap();
        charger.flush().unwrap();
        assert_eq!(ctx.budget().unwrap().used(), CHARGE_QUANTUM + 16);
    }

    #[test]
    fn charger_surfaces_budget_refusals() {
        let ctx = QueryContext::unlimited().with_memory_budget(CHARGE_QUANTUM);
        let mut charger = Charger::new(&ctx);
        charger.charge(CHARGE_QUANTUM / 2).unwrap();
        let err = charger.charge(CHARGE_QUANTUM).unwrap_err();
        assert!(matches!(err, GovernorError::MemoryExceeded { .. }));
    }

    #[test]
    fn reserve_failpoint_injects_memory_exhaustion() {
        bq_faults::configure(
            "governor.reserve.fail",
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Always)
                .caller_thread(),
        );
        let budget = MemoryBudget::new(u64::MAX);
        let err = budget.try_reserve(1).unwrap_err();
        assert!(matches!(err, GovernorError::MemoryExceeded { .. }));
        bq_faults::off("governor.reserve.fail");
        assert!(budget.try_reserve(1).is_ok());
    }

    #[test]
    fn cancel_registry_hits_only_in_flight_tokens() {
        let registry = CancelRegistry::new();
        let first = QueryContext::unlimited();
        let guard = registry.register(&first, 0, "sql", "select 1");
        assert_eq!(registry.in_flight(), 1);
        assert_eq!(registry.cancel_all(), 1);
        assert!(first.check().is_err());
        drop(guard);
        assert_eq!(registry.in_flight(), 0);

        let second = QueryContext::unlimited();
        let _guard = registry.register(&second, 0, "sql", "select 2");
        // The earlier cancel_all must not leak into the new statement.
        assert!(second.check().is_ok());
    }

    #[test]
    fn cancel_id_targets_one_statement() {
        let registry = CancelRegistry::new();
        let first = QueryContext::unlimited();
        let second = QueryContext::unlimited();
        let guard_a = registry.register(&first, 1, "sql", "a");
        let _guard_b = registry.register(&second, 2, "sql", "b");
        assert!(registry.cancel_id(guard_a.id()));
        assert!(first.check().is_err());
        assert!(second.check().is_ok(), "only the targeted token stops");

        let stale = guard_a.id();
        drop(guard_a);
        assert!(!registry.cancel_id(stale), "stale ids are a clean miss");
    }

    #[test]
    fn registration_stamps_ids_and_lists_the_row() {
        let registry = CancelRegistry::new();
        let ctx = QueryContext::unlimited();
        assert_eq!((ctx.query_id(), ctx.session_id()), (None, 0));
        let guard = registry.register(&ctx.clone(), 7, "datalog", "p(X) :- q(X).");
        assert_eq!(ctx.query_id(), Some(guard.id()), "clones share the cells");
        assert_eq!(ctx.session_id(), 7);
        let rows = registry.list();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (
                rows[0].query,
                rows[0].session,
                rows[0].kind,
                rows[0].sql.as_str()
            ),
            (guard.id(), 7, "datalog", "p(X) :- q(X).")
        );
        drop(guard);
        assert!(registry.list().is_empty());
        assert!(ctx.query_id().is_some(), "the id outlives the entry");
    }

    #[test]
    fn registered_text_is_cut_at_a_char_boundary() {
        let registry = CancelRegistry::new();
        // 'é' is two bytes, so byte MAX_TRACKED_SQL falls inside one.
        let long = format!("s{}", "é".repeat(MAX_TRACKED_SQL));
        let _g = registry.register(&QueryContext::unlimited(), 0, "sql", &long);
        let sql = registry.list().pop().unwrap().sql;
        assert_eq!(sql.len(), MAX_TRACKED_SQL - 1);
        assert!(long.starts_with(&sql));
    }
}

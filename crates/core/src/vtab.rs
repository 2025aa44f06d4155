//! Virtual system-catalog tables — the `bq.*` namespace.
//!
//! A [`VirtualTable`] snapshots one slice of engine state into an
//! ordinary [`Relation`]; query evaluation then proceeds through the
//! normal parse → optimize → execute path against an ephemeral catalog
//! overlay, so joins, filters, set operations, EXPLAIN, and the wire
//! protocol all work on system state with zero special cases past name
//! resolution. Snapshots are point-in-time: a query sees the state as of
//! its own name-resolution step, not a live view.
//!
//! Built-in tables: `bq.metrics`, `bq.queries`, `bq.slow_log`,
//! `bq.failpoints`, `bq.sessions` (populated by a server front-end via
//! [`SessionRegistry`]), and `bq.locks` (materialised directly by `Db`,
//! which owns the lock table).

use crate::slowlog::SlowLog;
use crate::Result;
use bq_relational::{Relation, Tuple, Type, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Name prefix that routes a relation to the virtual catalog.
pub const VTAB_PREFIX: &str = "bq.";

/// Cap on SQL text retained per `bq.queries` row, so the running-query
/// registry stays allocation-bounded no matter what clients send.
const MAX_TRACKED_SQL: usize = 512;

/// A provider of one virtual table: snapshots engine state into a
/// relation on demand.
pub trait VirtualTable: Send + Sync + fmt::Debug {
    /// Fully qualified name (`bq.metrics`).
    fn name(&self) -> &'static str;
    /// Materialise the current state as a relation.
    fn snapshot(&self) -> Result<Relation>;
}

// ---------------------------------------------------------------------
// bq.metrics
// ---------------------------------------------------------------------

/// `bq.metrics(name, kind, value, p50, p95, p99)` over the global
/// observability registry. Counters and gauges carry their value;
/// histograms carry their observation count plus bucket-estimated
/// percentiles (in the unit the histogram observes, typically µs).
#[derive(Debug, Default)]
pub struct MetricsTable;

impl VirtualTable for MetricsTable {
    fn name(&self) -> &'static str {
        "bq.metrics"
    }

    fn snapshot(&self) -> Result<Relation> {
        let mut rel = Relation::with_schema(&[
            ("name", Type::Str),
            ("kind", Type::Str),
            ("value", Type::Int),
            ("p50", Type::Int),
            ("p95", Type::Int),
            ("p99", Type::Int),
        ])?;
        for row in bq_obs::global().rows() {
            rel.insert(Tuple::new(vec![
                Value::str(row.name),
                Value::str(row.kind),
                Value::Int(row.value),
                Value::Int(row.p50),
                Value::Int(row.p95),
                Value::Int(row.p99),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.failpoints
// ---------------------------------------------------------------------

/// `bq.failpoints(site, description, armed, policy, hits, fires)`: the
/// full fault-injection catalog joined with live arming state.
#[derive(Debug, Default)]
pub struct FailpointsTable;

impl VirtualTable for FailpointsTable {
    fn name(&self) -> &'static str {
        "bq.failpoints"
    }

    fn snapshot(&self) -> Result<Relation> {
        let armed: BTreeMap<String, bq_faults::SiteInfo> = bq_faults::list()
            .into_iter()
            .map(|s| (s.site.clone(), s))
            .collect();
        let mut rel = Relation::with_schema(&[
            ("site", Type::Str),
            ("description", Type::Str),
            ("armed", Type::Bool),
            ("policy", Type::Str),
            ("hits", Type::Int),
            ("fires", Type::Int),
        ])?;
        for (site, description) in bq_faults::CATALOG {
            let info = armed.get(*site);
            rel.insert(Tuple::new(vec![
                Value::str(*site),
                Value::str(*description),
                Value::Bool(info.is_some()),
                Value::str(info.map_or("", |i| i.policy.as_str())),
                Value::Int(info.map_or(0, |i| i.hits as i64)),
                Value::Int(info.map_or(0, |i| i.fires as i64)),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.queries
// ---------------------------------------------------------------------

/// One in-flight statement, as tracked by [`RunningQueries`].
#[derive(Debug, Clone)]
pub struct RunningQuery {
    /// Owning session id (0 when embedded/untagged).
    pub session: u64,
    /// Statement kind (`sql`, `datalog`, …).
    pub kind: &'static str,
    /// Statement text, truncated to a fixed cap.
    pub sql: String,
    /// Start time from [`bq_obs::now_us`].
    pub start_us: u64,
}

/// Registry of statements currently in flight, keyed by trace/query id —
/// the same id [`bq_governor::CancelRegistry`] hands out, so every row of
/// `bq.queries` is KILL-able by construction. Cloning shares the map.
#[derive(Debug, Clone, Default)]
pub struct RunningQueries {
    inner: Arc<Mutex<BTreeMap<u64, RunningQuery>>>,
}

impl RunningQueries {
    /// An empty registry.
    pub fn new() -> RunningQueries {
        RunningQueries::default()
    }

    /// Track a statement for the lifetime of the returned guard.
    pub fn track(&self, query: u64, session: u64, kind: &'static str, sql: &str) -> RunningGuard {
        let mut text = String::with_capacity(sql.len().min(MAX_TRACKED_SQL));
        for c in sql.chars() {
            if text.len() + c.len_utf8() > MAX_TRACKED_SQL {
                break;
            }
            text.push(c);
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).insert(
            query,
            RunningQuery {
                session,
                kind,
                sql: text,
                start_us: bq_obs::now_us(),
            },
        );
        RunningGuard {
            inner: Arc::clone(&self.inner),
            query,
        }
    }

    /// Snapshot of the in-flight statements, by query id.
    pub fn snapshot(&self) -> Vec<(u64, RunningQuery)> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&q, r)| (q, r.clone()))
            .collect()
    }
}

/// Removes its statement from [`RunningQueries`] on drop, so a finished
/// statement can never linger in `bq.queries`.
#[derive(Debug)]
pub struct RunningGuard {
    inner: Arc<Mutex<BTreeMap<u64, RunningQuery>>>,
    query: u64,
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.query);
    }
}

/// `bq.queries(query, session, kind, sql, elapsed_ms, state)`: the
/// KILL-able statement registry as a relation.
#[derive(Debug)]
pub struct QueriesTable {
    queries: RunningQueries,
}

impl QueriesTable {
    /// A view over `queries`.
    pub fn new(queries: RunningQueries) -> QueriesTable {
        QueriesTable { queries }
    }
}

impl VirtualTable for QueriesTable {
    fn name(&self) -> &'static str {
        "bq.queries"
    }

    fn snapshot(&self) -> Result<Relation> {
        let now = bq_obs::now_us();
        let mut rel = Relation::with_schema(&[
            ("query", Type::Int),
            ("session", Type::Int),
            ("kind", Type::Str),
            ("sql", Type::Str),
            ("elapsed_ms", Type::Int),
            ("state", Type::Str),
        ])?;
        for (query, run) in self.queries.snapshot() {
            rel.insert(Tuple::new(vec![
                Value::Int(query as i64),
                Value::Int(run.session as i64),
                Value::str(run.kind),
                Value::str(run.sql),
                Value::Int((now.saturating_sub(run.start_us) / 1000) as i64),
                Value::str("running"),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.slow_log
// ---------------------------------------------------------------------

/// `bq.slow_log(query, session, sql, elapsed_us, rows, fingerprint,
/// plan)`: the bounded ring of completed statements over the latency
/// threshold, with the rendered per-operator stats tree per entry.
#[derive(Debug)]
pub struct SlowLogTable {
    log: Arc<SlowLog>,
}

impl SlowLogTable {
    /// A view over `log`.
    pub fn new(log: Arc<SlowLog>) -> SlowLogTable {
        SlowLogTable { log }
    }
}

impl VirtualTable for SlowLogTable {
    fn name(&self) -> &'static str {
        "bq.slow_log"
    }

    fn snapshot(&self) -> Result<Relation> {
        let mut rel = Relation::with_schema(&[
            ("query", Type::Int),
            ("session", Type::Int),
            ("sql", Type::Str),
            ("elapsed_us", Type::Int),
            ("rows", Type::Int),
            ("fingerprint", Type::Str),
            ("plan", Type::Str),
        ])?;
        for e in self.log.entries() {
            rel.insert(Tuple::new(vec![
                Value::Int(e.query as i64),
                Value::Int(e.session as i64),
                Value::str(e.sql),
                Value::Int(e.elapsed_us as i64),
                Value::Int(e.rows as i64),
                Value::str(format!("{:016x}", e.fingerprint)),
                Value::str(e.plan),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.sessions
// ---------------------------------------------------------------------

/// One connected session, as published by a front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// Session (connection) id.
    pub session: u64,
    /// Peer address, or a marker like `embedded`.
    pub peer: String,
    /// Execution mode the session runs under.
    pub mode: String,
    /// Rendered session limits (`mem=64MiB deadline=500ms` or `none`).
    pub limits: String,
    /// Is a transaction open on this session?
    pub txn: bool,
}

/// Shared registry behind `bq.sessions`. The engine owns one; a server
/// front-end clones it and upserts/removes rows as connections come and
/// go. Embedded-only processes simply leave it empty.
#[derive(Debug, Clone, Default)]
pub struct SessionRegistry {
    inner: Arc<Mutex<BTreeMap<u64, SessionRow>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Insert or update one session's row.
    pub fn upsert(&self, row: SessionRow) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(row.session, row);
    }

    /// Remove a closed session.
    pub fn remove(&self, session: u64) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session);
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the live sessions, by id.
    pub fn snapshot(&self) -> Vec<SessionRow> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }
}

/// `bq.sessions(session, peer, mode, limits, txn)` over a
/// [`SessionRegistry`].
#[derive(Debug)]
pub struct SessionsTable {
    registry: SessionRegistry,
}

impl SessionsTable {
    /// A view over `registry`.
    pub fn new(registry: SessionRegistry) -> SessionsTable {
        SessionsTable { registry }
    }
}

impl VirtualTable for SessionsTable {
    fn name(&self) -> &'static str {
        "bq.sessions"
    }

    fn snapshot(&self) -> Result<Relation> {
        let mut rel = Relation::with_schema(&[
            ("session", Type::Int),
            ("peer", Type::Str),
            ("mode", Type::Str),
            ("limits", Type::Str),
            ("txn", Type::Bool),
        ])?;
        for row in self.registry.snapshot() {
            rel.insert(Tuple::new(vec![
                Value::Int(row.session as i64),
                Value::str(row.peer),
                Value::str(row.mode),
                Value::str(row.limits),
                Value::Bool(row.txn),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.replicas
// ---------------------------------------------------------------------

/// One subscribed replica, as published by the primary's shipping loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRow {
    /// Subscriber id (the server session id of the replication stream).
    pub id: u64,
    /// Peer address of the replica connection.
    pub endpoint: String,
    /// Stream state: `bootstrapping`, `streaming`, or `stalled`.
    pub state: String,
    /// Highest WAL byte offset the replica has acknowledged as applied.
    pub acked: u64,
    /// Highest WAL byte offset shipped to the replica.
    pub shipped: u64,
    /// [`bq_obs::now_us`] timestamp of the last acknowledgement.
    pub last_ack_us: u64,
}

/// Shared registry behind `bq.replicas`. The primary's subscriber loops
/// upsert a row per state change and [`ReplicaRegistry::record_ack`]
/// per acknowledged segment; the semi-sync commit wait blocks in
/// [`ReplicaRegistry::wait_all_acked`]. Every change notifies, and the
/// waiter checks the rows under the same mutex before it sleeps, so an
/// ack that lands just before the wait is never missed. The mutex is a
/// leaf: nothing else is taken under it.
#[derive(Debug, Clone, Default)]
pub struct ReplicaRegistry {
    inner: Arc<ReplicaShared>,
}

#[derive(Debug, Default)]
struct ReplicaShared {
    rows: Mutex<BTreeMap<u64, ReplicaRow>>,
    changed: Condvar,
}

impl ReplicaRegistry {
    /// An empty registry.
    pub fn new() -> ReplicaRegistry {
        ReplicaRegistry::default()
    }

    fn rows(&self) -> MutexGuard<'_, BTreeMap<u64, ReplicaRow>> {
        self.inner.rows.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Insert one replica's row, or replace it on a state change.
    pub fn upsert(&self, row: ReplicaRow) {
        self.rows().insert(row.id, row);
        self.inner.changed.notify_all();
    }

    /// Record one acknowledged segment on replica `id`'s row, in place.
    /// A replica that already departed is left departed.
    pub fn record_ack(&self, id: u64, acked: u64, shipped: u64, now_us: u64) {
        if let Some(row) = self.rows().get_mut(&id) {
            row.acked = acked;
            row.shipped = shipped;
            row.last_ack_us = now_us;
        }
        self.inner.changed.notify_all();
    }

    /// Remove a departed replica.
    pub fn remove(&self, id: u64) {
        self.rows().remove(&id);
        self.inner.changed.notify_all();
    }

    /// Wake every waiter without changing a row, so a stopping server's
    /// semi-sync waits re-check their stop flag now.
    pub fn wake_all(&self) {
        let _rows = self.rows();
        self.inner.changed.notify_all();
    }

    /// Number of subscribed replicas.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Have all subscribed replicas acknowledged at least `offset`?
    /// Vacuously true with no replicas — the semi-sync commit wait
    /// degrades to primary-only durability when nothing is subscribed.
    /// Returns `true` at once when they have; otherwise sleeps until the
    /// registry next changes (an ack, a state change, a departure, a
    /// [`ReplicaRegistry::wake_all`]) or `slice` passes, and answers for
    /// the rows as they stand then. `false` means "not yet": the caller
    /// checks its own ceiling and stop flag and calls again.
    pub fn wait_all_acked(&self, offset: u64, slice: Duration) -> bool {
        let all_acked = |rows: &BTreeMap<u64, ReplicaRow>| rows.values().all(|r| r.acked >= offset);
        let rows = self.rows();
        if all_acked(&rows) {
            return true;
        }
        let (rows, _) = self
            .inner
            .changed
            .wait_timeout(rows, slice)
            .unwrap_or_else(|e| e.into_inner());
        all_acked(&rows)
    }

    /// Snapshot of the subscribed replicas, by id.
    pub fn snapshot(&self) -> Vec<ReplicaRow> {
        self.rows().values().cloned().collect()
    }
}

/// `bq.replicas(replica, endpoint, state, acked_lsn, lag_bytes, lag_ms)`
/// over a [`ReplicaRegistry`]. Lag is computed at snapshot time: bytes
/// shipped but unacknowledged, and wall time since the last ack.
#[derive(Debug)]
pub struct ReplicasTable {
    registry: ReplicaRegistry,
}

impl ReplicasTable {
    /// A view over `registry`.
    pub fn new(registry: ReplicaRegistry) -> ReplicasTable {
        ReplicasTable { registry }
    }
}

impl VirtualTable for ReplicasTable {
    fn name(&self) -> &'static str {
        "bq.replicas"
    }

    fn snapshot(&self) -> Result<Relation> {
        let now = bq_obs::now_us();
        let mut rel = Relation::with_schema(&[
            ("replica", Type::Int),
            ("endpoint", Type::Str),
            ("state", Type::Str),
            ("acked_lsn", Type::Int),
            ("lag_bytes", Type::Int),
            ("lag_ms", Type::Int),
        ])?;
        for row in self.registry.snapshot() {
            let lag_ms = if row.last_ack_us == 0 {
                0
            } else {
                (now.saturating_sub(row.last_ack_us) / 1000) as i64
            };
            rel.insert(Tuple::new(vec![
                Value::Int(row.id as i64),
                Value::str(row.endpoint),
                Value::str(row.state),
                Value::Int(row.acked as i64),
                Value::Int(row.shipped.saturating_sub(row.acked) as i64),
                Value::Int(lag_ms),
            ]))?;
        }
        Ok(rel)
    }
}

// ---------------------------------------------------------------------
// bq.backups
// ---------------------------------------------------------------------

/// One archived backup, as published by the backup engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupRow {
    /// Chain sequence number (also the archive object prefix).
    pub seq: u64,
    /// `full` or `incremental`.
    pub kind: String,
    /// First WAL byte offset the backup covers (equals `wal_end` for a
    /// full backup — the snapshot image subsumes everything before it).
    pub wal_start: u64,
    /// WAL horizon the backup restores to.
    pub wal_end: u64,
    /// Archived payload size in bytes (snapshot image or WAL segment).
    pub bytes: u64,
    /// `complete`, or `failed:<reason>` for an aborted attempt.
    pub state: String,
    /// [`crate::Db::content_fingerprint`] at the backup horizon.
    pub fingerprint: u64,
    /// [`bq_obs::now_us`] timestamp of the attempt.
    pub created_us: u64,
}

/// Shared registry behind `bq.backups`: the backup engine upserts one
/// row per attempt, keyed by chain sequence number.
#[derive(Debug, Clone, Default)]
pub struct BackupRegistry {
    inner: Arc<Mutex<BTreeMap<u64, BackupRow>>>,
}

impl BackupRegistry {
    /// An empty registry.
    pub fn new() -> BackupRegistry {
        BackupRegistry::default()
    }

    /// Insert or update one backup's row.
    pub fn upsert(&self, row: BackupRow) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(row.seq, row);
    }

    /// Number of recorded backup attempts.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded backups, by sequence number.
    pub fn snapshot(&self) -> Vec<BackupRow> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }
}

/// `bq.backups(backup, kind, wal_start, wal_end, bytes, state,
/// fingerprint, age_ms)` over a [`BackupRegistry`]. The fingerprint is
/// rendered in hex like `bq.slow_log` plan fingerprints.
#[derive(Debug)]
pub struct BackupsTable {
    registry: BackupRegistry,
}

impl BackupsTable {
    /// A view over `registry`.
    pub fn new(registry: BackupRegistry) -> BackupsTable {
        BackupsTable { registry }
    }
}

impl VirtualTable for BackupsTable {
    fn name(&self) -> &'static str {
        "bq.backups"
    }

    fn snapshot(&self) -> Result<Relation> {
        let now = bq_obs::now_us();
        let mut rel = Relation::with_schema(&[
            ("backup", Type::Int),
            ("kind", Type::Str),
            ("wal_start", Type::Int),
            ("wal_end", Type::Int),
            ("bytes", Type::Int),
            ("state", Type::Str),
            ("fingerprint", Type::Str),
            ("age_ms", Type::Int),
        ])?;
        for row in self.registry.snapshot() {
            let age_ms = (now.saturating_sub(row.created_us) / 1000) as i64;
            rel.insert(Tuple::new(vec![
                Value::Int(row.seq as i64),
                Value::str(row.kind),
                Value::Int(row.wal_start as i64),
                Value::Int(row.wal_end as i64),
                Value::Int(row.bytes as i64),
                Value::str(row.state),
                Value::str(format!("{:016x}", row.fingerprint)),
                Value::Int(age_ms),
            ]))?;
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slowlog::SlowEntry;

    #[test]
    fn metrics_snapshot_has_rows_and_schema() {
        bq_obs::counter!("bq_core_vtab_selftest_total", "vtab self-test").inc();
        let rel = MetricsTable.snapshot().unwrap();
        assert_eq!(rel.schema().arity(), 6);
        assert!(rel
            .iter()
            .any(|t| t.get(0) == &Value::str("bq_core_vtab_selftest_total")));
    }

    #[test]
    fn failpoints_snapshot_covers_the_catalog() {
        let rel = FailpointsTable.snapshot().unwrap();
        assert_eq!(rel.len(), bq_faults::CATALOG.len());
    }

    #[test]
    fn running_queries_guard_removes_on_drop() {
        let rq = RunningQueries::new();
        let guard = rq.track(7, 3, "sql", "select x from r");
        assert_eq!(rq.snapshot().len(), 1);
        let rel = QueriesTable::new(rq.clone()).snapshot().unwrap();
        assert_eq!(rel.len(), 1);
        let row = rel.iter().next().unwrap();
        assert_eq!(row.get(0), &Value::Int(7));
        assert_eq!(row.get(5), &Value::str("running"));
        drop(guard);
        assert!(rq.snapshot().is_empty());
    }

    #[test]
    fn tracked_sql_is_truncated() {
        let rq = RunningQueries::new();
        let long = "s".repeat(10_000);
        let _g = rq.track(1, 0, "sql", &long);
        let (_, run) = rq.snapshot().pop().unwrap();
        assert!(run.sql.len() <= MAX_TRACKED_SQL);
    }

    #[test]
    fn slow_log_table_renders_entries() {
        let log = Arc::new(SlowLog::new());
        log.record(SlowEntry {
            query: 42,
            session: 1,
            sql: "select a from r".to_string(),
            elapsed_us: 1234,
            rows: 10,
            fingerprint: 0xdead_beef,
            plan: "SeqScan [r]  (rows=10)".to_string(),
        });
        let rel = SlowLogTable::new(log).snapshot().unwrap();
        assert_eq!(rel.len(), 1);
        let row = rel.iter().next().unwrap();
        assert_eq!(row.get(0), &Value::Int(42));
        assert_eq!(row.get(5), &Value::str("00000000deadbeef"));
    }

    #[test]
    fn replica_registry_tracks_acks_and_lag() {
        let reg = ReplicaRegistry::new();
        assert!(reg.is_empty());
        reg.upsert(ReplicaRow {
            id: 3,
            endpoint: "127.0.0.1:5000".to_string(),
            state: "streaming".to_string(),
            acked: 100,
            shipped: 164,
            last_ack_us: bq_obs::now_us(),
        });
        assert!(reg.wait_all_acked(100, Duration::ZERO));
        assert!(!reg.wait_all_acked(101, Duration::ZERO));
        let rel = ReplicasTable::new(reg.clone()).snapshot().unwrap();
        assert_eq!(rel.len(), 1);
        let row = rel.iter().next().unwrap();
        assert_eq!(row.get(0), &Value::Int(3));
        assert_eq!(row.get(3), &Value::Int(100));
        assert_eq!(row.get(4), &Value::Int(64));
        reg.remove(3);
        assert!(reg.is_empty());
    }

    fn replica_row(id: u64, acked: u64) -> ReplicaRow {
        ReplicaRow {
            id,
            endpoint: "127.0.0.1:5000".to_string(),
            state: "streaming".to_string(),
            acked,
            shipped: acked,
            last_ack_us: 1,
        }
    }

    /// Long enough that a test passing on it means a wake-up was lost.
    const LONG: Duration = Duration::from_secs(30);

    /// Run `change` on another thread while this one waits for `offset`.
    /// The change may land before or after the wait starts: the level
    /// check makes both orders come back `true`, never on the slice.
    fn woken_by(reg: &ReplicaRegistry, offset: u64, change: impl FnOnce(&ReplicaRegistry) + Send) {
        std::thread::scope(|s| {
            s.spawn(move || change(reg));
            // `false` before the slice is up is a wake-up for some other
            // change; only running out the slice means one was lost.
            let start = std::time::Instant::now();
            while !reg.wait_all_acked(offset, LONG) {
                assert!(start.elapsed() < LONG, "wake-up lost");
            }
        });
    }

    #[test]
    fn wait_all_acked_is_vacuous_with_no_replicas() {
        assert!(ReplicaRegistry::new().wait_all_acked(u64::MAX, LONG));
    }

    #[test]
    fn wait_all_acked_is_woken_by_record_ack_upsert_and_remove() {
        let reg = ReplicaRegistry::new();
        reg.upsert(replica_row(3, 100));
        assert!(reg.wait_all_acked(100, LONG), "already acked: no wait");
        woken_by(&reg, 164, |r| r.record_ack(3, 164, 164, 2));
        assert_eq!(reg.snapshot()[0], {
            let mut row = replica_row(3, 164);
            row.last_ack_us = 2;
            row
        });
        woken_by(&reg, 200, |r| r.upsert(replica_row(3, 200)));
        woken_by(&reg, 300, |r| r.remove(3));
        assert!(reg.is_empty());
    }

    #[test]
    fn wait_all_acked_is_false_when_the_slice_runs_out() {
        let reg = ReplicaRegistry::new();
        reg.upsert(replica_row(3, 100));
        assert!(!reg.wait_all_acked(101, Duration::from_millis(10)));
        // An ack for a replica that already left does not resurrect it.
        reg.remove(3);
        reg.record_ack(3, 500, 500, 9);
        assert!(reg.is_empty());
    }

    #[test]
    fn session_registry_round_trips() {
        let reg = SessionRegistry::new();
        reg.upsert(SessionRow {
            session: 1,
            peer: "127.0.0.1:9".to_string(),
            mode: "parallel".to_string(),
            limits: "none".to_string(),
            txn: false,
        });
        let rel = SessionsTable::new(reg.clone()).snapshot().unwrap();
        assert_eq!(rel.len(), 1);
        reg.remove(1);
        assert!(reg.is_empty());
    }
}

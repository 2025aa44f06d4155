//! The facade `Db`: transactions, the WAL, and the query, replication
//! and introspection surfaces over one table store.
//!
//! Architecture: the tables live in [`crate::table`] — a relation per
//! table for the query surfaces (SQL-ish, algebra, calculus, Datalog), a
//! heap file per table for recovery, `RecordId` indexes — and rows enter
//! and leave them only through its `put`/`take`. This module owns what
//! surrounds a row: the table-granularity strict-2PL lock table, the
//! undo list of every open transaction, and the log record of every
//! mutation, from which crash recovery ([`Db::crash_at`]) tells the table
//! store which heap records to drop.

use crate::codec;
use crate::error::CoreError;
use crate::slowlog::{plan_fingerprint, SlowEntry, SlowLog};
use crate::table::{Placed, Tables};
use crate::vtab::{
    BackupRegistry, FailpointsTable, MetricsTable, ReplicaRegistry, SessionRegistry, VirtualTable,
    VTAB_PREFIX,
};
use crate::watch::WalWatch;
use crate::Result;
use bq_datalog::parser::{parse_atom, parse_program};
use bq_datalog::{FactStore, SemiNaive};
use bq_exec::engine::default_parallelism;
use bq_exec::{lower, ExecMode, ExecStats, Executor, RowSet};
use bq_governor::{AdmissionController, AdmissionStats, CancelRegistry, Charger, QueryContext};
use bq_relational::algebra::{optimize, Expr};
use bq_relational::calculus::Query as CalcQuery;
use bq_relational::codd::calculus_to_algebra;
use bq_relational::sqlish;
use bq_relational::{Database, Relation, Schema, Tuple, Type, Value};
use bq_storage::wal::{LogRecord, Wal};
use bq_storage::{PageId, StorageError};
use bq_txn::locks::{LockResult, LockTable, Mode};
use bq_txn::ops::TxnId;
use bq_util::{ByteReader, ByteWriter, Fnv1a64};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

/// Bound on distinct clients tracked by the write-dedup table; the
/// oldest client is evicted first (FIFO by first write).
const MAX_DEDUP_CLIENTS: usize = 64;
/// Bound on request ids remembered per client (FIFO).
const MAX_DEDUP_REQUESTS: usize = 256;
/// Version byte leading every [`Db::snapshot_bytes`] image.
const SNAPSHOT_VERSION: u8 = 2;

/// Handle of an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnHandle(pub u64);

fn type_from_byte(b: u8) -> Result<Type> {
    Type::from_byte(b).ok_or_else(|| CoreError::Codec(format!("bad type byte {b}")))
}

/// Session-level resource defaults, applied to every statement that does
/// not bring its own [`QueryContext`]. All `None` means ungoverned (the
/// seed behaviour). Set via [`Db::set_limits`] or bqsh's `.limits`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionLimits {
    /// Per-statement memory budget in bytes.
    pub memory_bytes: Option<u64>,
    /// Per-statement deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Cap on fixpoint iterations (Datalog naive/semi-naive rounds).
    pub max_iterations: Option<u64>,
}

impl SessionLimits {
    /// Build a per-statement [`QueryContext`] enforcing these limits.
    /// All-`None` limits yield [`QueryContext::unlimited`], whose checks
    /// compile down to one relaxed atomic load. Callers that hold limits
    /// outside a `Db` (e.g. a server session) use this directly;
    /// [`Db::govern`] delegates here.
    pub fn context(&self) -> QueryContext {
        let mut ctx = QueryContext::unlimited();
        if let Some(ms) = self.deadline_ms {
            ctx = ctx.with_deadline(Duration::from_millis(ms));
        }
        if let Some(bytes) = self.memory_bytes {
            ctx = ctx.with_memory_budget(bytes);
        }
        if let Some(n) = self.max_iterations {
            ctx = ctx.with_max_iterations(n);
        }
        ctx
    }
}

/// One relational statement, in any of the languages Codd's Theorem
/// makes equivalent; [`Db::run`] runs them all.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// SQL-ish text: parsed and optimized on every run.
    Sql(&'a str),
    /// A plan from [`Db::prepare_sql`], run as given; `text` is what
    /// `bq.queries` and the slow log show.
    Prepared {
        /// The statement text the plan was prepared from.
        text: &'a str,
        /// The parsed and optimized plan.
        plan: &'a Expr,
    },
    /// A relational-algebra expression, run as given.
    Algebra(&'a Expr),
    /// A tuple-calculus query.
    Calculus(&'a CalcQuery),
}

/// What [`Db::run`] returns: the result rows, the per-operator statistics
/// of the plan that built them, and the statement's wall time. The rows
/// still borrow the engine's tables, so the answer lives only as long as
/// the borrow of the engine it came from (a server's read lock); its
/// consumer copies them ([`Answer::into_relation`]) or encodes them before
/// letting go.
#[derive(Debug)]
pub struct Answer<'db> {
    /// The result rows: sorted, distinct, borrowed where no operator
    /// built them.
    pub rows: RowSet<'db>,
    /// Per-operator statistics, rooted at the set build.
    pub stats: ExecStats,
    /// Wall time from admission to result, in microseconds.
    pub elapsed_us: u64,
    /// Records the statement when the answer is dropped: after its
    /// consumer has charged the budget for its copies or reply bytes.
    recorder: Recorder,
}

/// Records a statement's governed outcome ([`bq_governor::record_statement`])
/// when dropped, so the budget's high-water mark is read once whatever
/// used the statement's result is done with it.
#[derive(Debug)]
struct Recorder(QueryContext);

impl Drop for Recorder {
    fn drop(&mut self) {
        bq_governor::record_statement(&self.0, None);
    }
}

impl Answer<'_> {
    /// The rows as an owned relation, the embedded surfaces' result: the
    /// budget is charged for the copies first ([`RowSet::into_relation`]),
    /// and a refusal there counts as the statement's.
    pub fn into_relation(mut self, ctx: &QueryContext) -> Result<Relation> {
        self.rows
            .into_relation(ctx, &mut self.stats)
            .map_err(|e| refused(e.into()))
    }
}

/// Count `e` as a governor refusal if it is one: a refusal met while
/// copying an [`Answer`]'s rows comes after [`Db::run`] recorded the
/// statement.
fn refused(e: CoreError) -> CoreError {
    if let Some(g) = e.governor() {
        bq_governor::record_refusal(g);
    }
    e
}

/// What `records` say of their transactions: the ones begun and neither
/// committed nor aborted (recovery's losers), and the rows the committed
/// ones logged.
fn log_outcome(records: &[LogRecord]) -> (Vec<u64>, usize) {
    // Open transactions with the rows each logged. A commit or abort
    // ends one of the latest, so it is looked for from the end.
    let mut open: Vec<(u64, usize)> = Vec::new();
    let mut committed_rows = 0;
    for rec in records {
        match rec {
            LogRecord::Begin(t) => open.push((*t, 0)),
            LogRecord::RowInsert { txn, .. } => {
                if let Some((_, rows)) = open.iter_mut().rev().find(|(t, _)| t == txn) {
                    *rows += 1;
                }
            }
            LogRecord::Commit(t) | LogRecord::TaggedCommit { txn: t, .. } | LogRecord::Abort(t) => {
                if let Some(i) = open.iter().rposition(|(o, _)| o == t) {
                    let (_, rows) = open.remove(i);
                    if !matches!(rec, LogRecord::Abort(_)) {
                        committed_rows += rows;
                    }
                }
            }
            LogRecord::CreateTable { .. }
            | LogRecord::CreateIndex { .. }
            | LogRecord::Checkpoint(_) => {}
        }
    }
    (open.iter().map(|(t, _)| *t).collect(), committed_rows)
}

/// Lower and execute `expr` against `cat` with per-operator stats, first
/// optimizing it against `cat` unless it is `optimized` already.
fn execute<'c>(
    exec: &Executor,
    expr: &Expr,
    optimized: bool,
    cat: &'c Database,
    ctx: &QueryContext,
) -> Result<(RowSet<'c>, ExecStats)> {
    let planned;
    let expr = if optimized {
        expr
    } else {
        planned = optimize(expr, cat)?;
        &planned
    };
    Ok(exec.execute_plan_rows(&lower(expr, cat)?, cat, ctx)?)
}

/// The database engine facade.
#[derive(Debug)]
pub struct Db {
    /// Relations, heap pages, indexes and lock ids of every table.
    tables: Tables,
    locks: LockTable,
    wal: Wal,
    /// Where [`Db::sync_wal`] publishes the durable WAL horizon; a
    /// primary's shipping loops wait on a clone instead of polling.
    watch: WalWatch,
    /// Open transactions, each with the receipts of the rows it put —
    /// what an abort takes back.
    open: BTreeMap<u64, Vec<Placed>>,
    next_txn: u64,
    /// Execution mode of statements that do not bring their own.
    mode: ExecMode,
    /// Session-level resource defaults for statements without an explicit
    /// [`QueryContext`].
    limits: SessionLimits,
    /// Process-facing admission control: every query statement takes a
    /// slot (or is queued, or shed) before touching the engine.
    admission: AdmissionController,
    /// In-flight statements keyed by trace/query id — `bq.queries`, and
    /// what [`Db::cancel_handle`] cancels from another thread.
    cancels: CancelRegistry,
    /// Virtual system tables (`bq.*`), resolved through an ephemeral
    /// catalog overlay at query time. `bq.locks` is materialised directly
    /// (the lock table lives in `self`); everything else via a provider.
    vtabs: BTreeMap<String, Arc<dyn VirtualTable>>,
    /// Bounded ring of completed statements — `bq.slow_log`.
    slow: Arc<SlowLog>,
    /// Connected sessions, published by a front-end — `bq.sessions`.
    sessions: SessionRegistry,
    /// Subscribed replicas, published by a primary's shipping loops —
    /// `bq.replicas`.
    replicas: ReplicaRegistry,
    /// Archived backups, published by a backup engine — `bq.backups`.
    backups: BackupRegistry,
    /// Bounded write-dedup table: client identity → recent request ids,
    /// consulted before a tagged write is applied. Replicated via
    /// [`LogRecord::TaggedCommit`] and the snapshot, so a promoted
    /// replica refuses a retry the old primary already applied.
    dedup: BTreeMap<String, VecDeque<u64>>,
    /// Client arrival order for FIFO eviction of `dedup`.
    dedup_order: VecDeque<String>,
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

impl Db {
    /// An empty engine.
    pub fn new() -> Db {
        let cancels = CancelRegistry::new();
        let slow = Arc::new(SlowLog::new());
        let sessions = SessionRegistry::new();
        let replicas = ReplicaRegistry::new();
        let backups = BackupRegistry::new();
        let providers: Vec<Arc<dyn VirtualTable>> = vec![
            Arc::new(MetricsTable),
            Arc::new(FailpointsTable),
            Arc::new(cancels.clone()),
            slow.clone(),
            Arc::new(sessions.clone()),
            Arc::new(replicas.clone()),
            Arc::new(backups.clone()),
        ];
        let vtabs = providers
            .into_iter()
            .map(|vt| (vt.name().to_string(), vt))
            .collect();
        Db {
            tables: Tables::default(),
            locks: LockTable::new(),
            wal: Wal::new(),
            watch: WalWatch::default(),
            open: BTreeMap::new(),
            next_txn: 1,
            mode: ExecMode::Parallel(default_parallelism()),
            limits: SessionLimits::default(),
            // Effectively unbounded by default: admission only sheds after
            // `set_admission` narrows the slot pool.
            admission: AdmissionController::new(usize::MAX, 0),
            cancels,
            vtabs,
            slow,
            sessions,
            replicas,
            backups,
            dedup: BTreeMap::new(),
            dedup_order: VecDeque::new(),
        }
    }

    /// Execution mode of statements that do not bring their own.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Switch statements that do not bring their own mode between
    /// sequential and morsel-parallel execution.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    // ------------------------------------------------------------------
    // DDL + autocommit DML
    // ------------------------------------------------------------------

    /// Create a table. DDL is logged and synced immediately so a lone
    /// `create table` ships to replicas without waiting for a commit. A
    /// `bq.` name is refused: every read of one goes to the virtual
    /// catalog.
    pub fn create_table(&mut self, name: &str, attrs: &[(&str, Type)]) -> Result<()> {
        if name.starts_with(VTAB_PREFIX) {
            return Err(CoreError::ReservedName(name.to_string()));
        }
        if self.tables.contains(name) {
            return Err(CoreError::TableExists(name.to_string()));
        }
        let schema = Schema::new(attrs)?;
        // Log first: if the device is full, the engine is left untouched
        // and the caller sees the typed error.
        self.wal.append(&LogRecord::CreateTable {
            name: name.to_string(),
            cols: attrs
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_byte()))
                .collect(),
        })?;
        self.tables.create(name, schema)?;
        self.sync_tolerating_full();
        Ok(())
    }

    /// Autocommit insert: a one-row transaction.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        self.autocommit_insert(table, row, None)
    }

    /// Autocommit insert whose commit carries a client idempotency tag
    /// (see [`Db::commit_tagged`]).
    pub fn insert_tagged(
        &mut self,
        table: &str,
        row: Vec<Value>,
        client: &str,
        request: u64,
    ) -> Result<()> {
        self.autocommit_insert(table, row, Some((client, request)))
    }

    /// begin → insert → commit, aborting when the insert is refused (a
    /// refused commit has rolled the transaction back already).
    fn autocommit_insert(
        &mut self,
        table: &str,
        row: Vec<Value>,
        tag: Option<(&str, u64)>,
    ) -> Result<()> {
        let _t = Self::stmt_timer("insert");
        let h = self.begin()?;
        if let Err(e) = self.insert_in(h, table, row) {
            self.abort(h)?;
            return Err(e);
        }
        self.commit_with(h, tag)
    }

    /// Names of all tables.
    pub fn tables(&self) -> Vec<&str> {
        self.tables.relations().names()
    }

    /// Read-only view of a whole table.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.tables.relation(name)
    }

    /// Number of rows in a table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        Ok(self.table(name)?.len())
    }

    // ------------------------------------------------------------------
    // Secondary indexes
    // ------------------------------------------------------------------

    /// Create (and build) a B+-tree index on `table.column`, logged first
    /// as [`Db::create_table`] is: a full log device refuses it typed.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table(table)?.schema().require(column)?;
        self.wal.append(&LogRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        self.sync_tolerating_full();
        self.tables.create_index(table, column)
    }

    /// Is there an index on `table.column`?
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        self.tables.has_index(table, column)
    }

    /// Point lookup `table.column = value`, via the index when one exists
    /// (O(log n)), else by scanning.
    pub fn lookup(&self, table: &str, column: &str, value: &Value) -> Result<Vec<Tuple>> {
        self.tables.lookup_range(table, column, value, value)
    }

    /// Range lookup `lo <= table.column <= hi` via the index when present.
    pub fn lookup_range(
        &self,
        table: &str,
        column: &str,
        lo: &Value,
        hi: &Value,
    ) -> Result<Vec<Tuple>> {
        self.tables.lookup_range(table, column, lo, hi)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. Fails typed (and leaves nothing open) when
    /// the WAL device is full.
    pub fn begin(&mut self) -> Result<TxnHandle> {
        let h = self.next_txn;
        self.next_txn += 1;
        self.wal.append(&LogRecord::Begin(h))?;
        self.open.insert(h, Vec::new());
        bq_obs::counter!("bq_core_txn_begins_total", "transactions begun").inc();
        Ok(TxnHandle(h))
    }

    /// Sync the WAL, tolerating a full device: freshly appended records
    /// stay volatile (exactly as under `wal.sync.skip`) and become
    /// durable on the next successful sync. A torn log (`TornLog`) is
    /// tolerated alike: nothing is durable past the tear until a crash.
    fn sync_tolerating_full(&mut self) {
        if self.sync_wal().is_err() {
            bq_obs::counter!(
                "bq_core_wal_sync_enospc_total",
                "WAL syncs refused by a full device (records stay volatile)"
            )
            .inc();
        }
    }

    fn check_open(&self, h: TxnHandle) -> Result<()> {
        if self.open.contains_key(&h.0) {
            Ok(())
        } else {
            Err(CoreError::BadTxn(h.0))
        }
    }

    fn lock_table_for(&mut self, h: TxnHandle, table: &str, mode: Mode) -> Result<()> {
        let id = self
            .tables
            .lock_id(table)
            .ok_or_else(|| CoreError::NoSuchTable(table.to_string()))?;
        match self.locks.request(TxnId(h.0 as u32), id, mode) {
            LockResult::Granted => Ok(()),
            LockResult::Wait => Err(CoreError::Locked {
                table: table.to_string(),
            }),
        }
    }

    /// Insert within a transaction (takes an exclusive table lock). A
    /// row the table already holds is a no-op: nothing is stored, logged
    /// or left to undo.
    pub fn insert_in(&mut self, h: TxnHandle, table: &str, row: Vec<Value>) -> Result<()> {
        self.check_open(h)?;
        self.lock_table_for(h, table, Mode::Exclusive)?;
        let tuple = Tuple::new(row);
        let bytes = codec::encode(&tuple);
        self.put_pending(h.0, table, tuple, bytes)
    }

    /// [`Db::put_logged`] as a row of the open transaction `txn`, which
    /// takes it back on abort.
    fn put_pending(&mut self, txn: u64, table: &str, tuple: Tuple, bytes: Vec<u8>) -> Result<()> {
        if let Some(placed) = self.put_logged(txn, table, tuple, bytes)? {
            self.open.entry(txn).or_default().push(placed);
        }
        Ok(())
    }

    /// Put a row on behalf of `txn` and log it under the record id it
    /// got — on a primary and, for a shipped row, on a replica alike.
    /// `None` when the table already holds the row: nothing was written.
    fn put_logged(
        &mut self,
        txn: u64,
        table: &str,
        tuple: Tuple,
        bytes: Vec<u8>,
    ) -> Result<Option<Placed>> {
        let Some(placed) = self.tables.put(table, tuple, &bytes)? else {
            return Ok(None);
        };
        if let Err(e) = self.wal.append(&LogRecord::RowInsert {
            txn,
            page: placed.rid.page,
            slot: placed.rid.slot,
            table: table.to_string(),
            bytes,
        }) {
            // The row never reached the log: take it back out so tables
            // and log agree, then surface the error.
            self.tables.take(&placed)?;
            return Err(e.into());
        }
        Ok(Some(placed))
    }

    /// Read a whole table within a transaction (takes a shared lock).
    pub fn scan_in(&mut self, h: TxnHandle, table: &str) -> Result<Relation> {
        self.check_open(h)?;
        self.lock_table_for(h, table, Mode::Shared)?;
        Ok(self.table(table)?.clone())
    }

    /// Commit: log COMMIT, force the log (one fsync batch per commit),
    /// release locks.
    pub fn commit(&mut self, h: TxnHandle) -> Result<()> {
        self.commit_with(h, None)
    }

    /// Commit carrying a client idempotency tag: logs
    /// [`LogRecord::TaggedCommit`] (which replicates the dedup entry
    /// along with the commit), forces the log, notes the (client,
    /// request) pair locally, and releases locks.
    pub fn commit_tagged(&mut self, h: TxnHandle, client: &str, request: u64) -> Result<()> {
        self.commit_with(h, Some((client, request)))
    }

    fn commit_with(&mut self, h: TxnHandle, tag: Option<(&str, u64)>) -> Result<()> {
        self.check_open(h)?;
        let record = match tag {
            None => LogRecord::Commit(h.0),
            Some((client, request)) => LogRecord::TaggedCommit {
                txn: h.0,
                client: client.to_string(),
                request,
            },
        };
        if let Err(e) = self.wal.append(&record) {
            // The COMMIT record never reached the log, so the
            // transaction can never become durable: roll it back and
            // surface the typed error. Reads stay available; no lock is
            // left behind.
            self.rollback_effects(h)?;
            if e == StorageError::DiskFull {
                bq_obs::counter!(
                    "bq_core_txn_enospc_aborts_total",
                    "transactions rolled back because the WAL device was full"
                )
                .inc();
            }
            return Err(e.into());
        }
        // The COMMIT record is in the log, so the transaction is over
        // whatever the sync says.
        self.open.remove(&h.0);
        self.locks.release_all(TxnId(h.0 as u32));
        if let Some((client, request)) = tag {
            self.note_request(client, request);
        }
        bq_obs::counter!("bq_core_txn_commits_total", "transactions committed").inc();
        // Acknowledged means durable, so a failed sync fails the commit
        // typed. Its outcome is then unknown: the record may still become
        // durable with the next sync, or a crash may lose it first. A
        // tagged retry resolves it (see `seen_durably`).
        self.sync_wal()?;
        Ok(())
    }

    /// Has this (client, request) pair already committed here? The
    /// commit may not be durable yet: its sync may have failed.
    pub fn seen_request(&self, client: &str, request: u64) -> bool {
        self.dedup
            .get(client)
            .is_some_and(|reqs| reqs.contains(&request))
    }

    /// [`Db::seen_request`], answered only once the commit is durable: a
    /// hit syncs the WAL first, and a failed sync is the error. Consulted
    /// by the server before applying a tagged write, making client
    /// retries after a lost acknowledgement exactly-once.
    pub fn seen_durably(&mut self, client: &str, request: u64) -> Result<bool> {
        if !self.seen_request(client, request) {
            return Ok(false);
        }
        self.sync_wal()?;
        Ok(true)
    }

    /// Note a committed (client, request) pair in the bounded dedup
    /// table: FIFO eviction per client and across clients.
    fn note_request(&mut self, client: &str, request: u64) {
        if !self.dedup.contains_key(client) {
            if self.dedup_order.len() >= MAX_DEDUP_CLIENTS {
                if let Some(evicted) = self.dedup_order.pop_front() {
                    self.dedup.remove(&evicted);
                }
            }
            self.dedup_order.push_back(client.to_string());
            self.dedup.insert(client.to_string(), VecDeque::new());
        }
        let reqs = self.dedup.get_mut(client).expect("just inserted");
        if reqs.len() >= MAX_DEDUP_REQUESTS {
            reqs.pop_front();
        }
        reqs.push_back(request);
    }

    /// Abort: undo inserts, log ABORT, release locks.
    pub fn abort(&mut self, h: TxnHandle) -> Result<()> {
        self.check_open(h)?;
        self.rollback_effects(h)?;
        // Best-effort logging: on a full device the ABORT record is
        // dropped — recovery rolls the commit-less transaction back
        // anyway, so the in-memory rollback above is still correct.
        if self.wal.append(&LogRecord::Abort(h.0)).is_ok() {
            // Synced so the abort ships to subscribers promptly (a
            // replica otherwise holds the transaction open until
            // promotion).
            self.sync_tolerating_full();
        } else {
            bq_obs::counter!(
                "bq_core_wal_sync_enospc_total",
                "WAL syncs refused by a full device (records stay volatile)"
            )
            .inc();
        }
        bq_obs::counter!("bq_core_txn_aborts_total", "transactions aborted").inc();
        Ok(())
    }

    /// Undo a transaction's in-memory effects (in reverse insertion
    /// order) and release its locks. Shared by [`Db::abort`] and the
    /// commit path's disk-full bail-out.
    fn rollback_effects(&mut self, h: TxnHandle) -> Result<()> {
        let undo = self.open.remove(&h.0).expect("checked open");
        self.take_back(undo)?;
        self.locks.release_all(TxnId(h.0 as u32));
        Ok(())
    }

    /// Take a transaction's rows back out of the tables, newest first.
    fn take_back(&mut self, undo: Vec<Placed>) -> Result<()> {
        undo.iter()
            .rev()
            .try_for_each(|placed| self.tables.take(placed))
    }

    // ------------------------------------------------------------------
    // Resource governance
    // ------------------------------------------------------------------

    /// Current session limits.
    pub fn limits(&self) -> SessionLimits {
        self.limits
    }

    /// Set session-level defaults applied to every statement that does not
    /// bring its own [`QueryContext`].
    pub fn set_limits(&mut self, limits: SessionLimits) {
        self.limits = limits;
    }

    /// Bound concurrent statements: at most `slots` run at once, at most
    /// `queue_limit` wait; beyond that, statements are shed with
    /// [`bq_governor::GovernorError::Overloaded`].
    pub fn set_admission(&mut self, slots: usize, queue_limit: usize) {
        self.admission = AdmissionController::new(slots, queue_limit);
    }

    /// Snapshot of the admission controller's counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Configured admission bounds: `(slots, queue_limit)`.
    pub fn admission_limits(&self) -> (usize, usize) {
        (self.admission.slots(), self.admission.queue_limit())
    }

    /// A handle that cancels the statements currently in flight on this
    /// engine. Cloneable and `Send`: obtain it before launching a query,
    /// hand it to another thread, and call
    /// [`CancelRegistry::cancel_all`] to stop them. Statements started
    /// *after* the call are unaffected (each registers a fresh token).
    pub fn cancel_handle(&self) -> CancelRegistry {
        self.cancels.clone()
    }

    /// Build a per-statement [`QueryContext`] from the session limits.
    /// All-`None` limits yield [`QueryContext::unlimited`], whose checks
    /// compile down to one relaxed atomic load.
    pub fn govern(&self) -> QueryContext {
        self.limits.context()
    }

    /// Statement wrapper: admission slot, registration in the in-flight
    /// registry (`bq.queries`, [`Db::cancel_handle`]), latency timer, and
    /// the once-per-statement governor metrics. Returns the result paired
    /// with the statement's wall time in microseconds and the [`Recorder`]
    /// that records it; a failed statement is recorded here.
    fn run_governed<T>(
        &self,
        kind: &'static str,
        stmt: &str,
        ctx: &QueryContext,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<(T, u64, Recorder)> {
        let _permit = self.admission.admit(ctx)?;
        // A front-end (the server) registers its statements before they
        // queue on the engine lock; a context that carries no id yet is
        // an embedded or direct caller's, registered here. Either way the
        // statement is listed and KILL-able exactly once.
        let _reg = ctx
            .query_id()
            .is_none()
            .then(|| self.cancels.register(ctx, 0, kind, stmt));
        let start_us = bq_obs::now_us();
        let _t = Self::stmt_timer(kind);
        let out = f();
        let elapsed_us = bq_obs::now_us().saturating_sub(start_us);
        if let Err(e) = &out {
            bq_governor::record_statement(ctx, e.governor());
        }
        out.map(|v| (v, elapsed_us, Recorder(ctx.clone())))
    }

    /// Feed one completed statement into the slow log.
    fn note_slow(
        &self,
        ctx: &QueryContext,
        text: &str,
        elapsed_us: u64,
        rows: u64,
        stats: &ExecStats,
    ) {
        if elapsed_us < self.slow.threshold_us() {
            return;
        }
        self.slow.record(SlowEntry {
            query: ctx.query_id().unwrap_or(0),
            session: ctx.session_id(),
            sql: text.to_string(),
            elapsed_us,
            rows,
            fingerprint: plan_fingerprint(stats),
            plan: stats.render(),
        });
    }

    // ------------------------------------------------------------------
    // Virtual system catalog (`bq.*`)
    // ------------------------------------------------------------------

    /// Names of the queryable virtual tables.
    pub fn virtual_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.vtabs.keys().cloned().collect();
        names.push("bq.locks".to_string());
        names.sort();
        names
    }

    /// The slow-query log, shared with the `bq.slow_log` virtual table.
    pub fn slow_log(&self) -> Arc<SlowLog> {
        Arc::clone(&self.slow)
    }

    /// Only statements at or above this wall time (µs) enter the slow
    /// log; 0 (the default) logs every completed statement.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow.set_threshold_us(us);
    }

    /// The registry behind `bq.sessions`; a server front-end clones it
    /// and publishes its connections there.
    pub fn session_registry(&self) -> SessionRegistry {
        self.sessions.clone()
    }

    /// `bq.locks` materialised from the live lock table: one row per
    /// held lock, one (with `waiting = true`) per outstanding request.
    fn locks_relation(&self) -> Result<Relation> {
        let names = self.tables.lock_names();
        let mut rel = Relation::with_schema(&[
            ("item", Type::Str),
            ("txn", Type::Int),
            ("mode", Type::Str),
            ("waiting", Type::Bool),
        ])?;
        for (item, txn, mode, waiting) in self.locks.entries() {
            rel.insert(Tuple::new(vec![
                Value::str(names.get(&item).copied().unwrap_or("?")),
                Value::Int(i64::from(txn.0)),
                Value::str(match mode {
                    Mode::Shared => "shared",
                    Mode::Exclusive => "exclusive",
                }),
                Value::Bool(waiting),
            ]))?;
        }
        Ok(rel)
    }

    /// If `rels`, the relations a statement names, include a `bq.*`
    /// relation, build the ephemeral catalog overlay for it: point-in-time
    /// snapshots of the named virtual tables plus copies of the named user
    /// tables, so joins across the boundary see one consistent instant.
    /// Every row the overlay holds is charged to `ctx`, a user table's
    /// before it is copied. Plain queries return `None` and run against the
    /// real catalog, paying nothing.
    fn overlay_for(&self, rels: &BTreeSet<String>, ctx: &QueryContext) -> Result<Option<Database>> {
        if !rels.iter().any(|n| n.starts_with(VTAB_PREFIX)) {
            return Ok(None);
        }
        let mut charger = Charger::new(ctx);
        let mut charge = |rel: &Relation| -> Result<()> {
            if charger.is_enabled() {
                for t in rel.iter() {
                    charger.charge(t.approx_bytes())?;
                }
            }
            Ok(charger.flush()?)
        };
        let mut overlay = Database::new();
        for name in rels {
            let rel = if let Some(vt) = self.vtabs.get(name.as_str()) {
                vt.snapshot()?
            } else if name == "bq.locks" {
                self.locks_relation()?
            } else if name.starts_with(VTAB_PREFIX) {
                return Err(CoreError::NoSuchTable(name.clone()));
            } else {
                let table = self.tables.relation(name)?;
                charge(table)?;
                overlay.add(name, table.clone());
                continue;
            };
            charge(&rel)?;
            overlay.add(name, rel);
        }
        Ok(Some(overlay))
    }

    /// Run `f` against the catalog `expr` should see: the virtual-table
    /// overlay when it reads `bq.*`, charged to `ctx`, the real catalog
    /// otherwise.
    fn with_catalog_for<T>(
        &self,
        expr: &Expr,
        ctx: &QueryContext,
        f: impl FnOnce(&Database) -> Result<T>,
    ) -> Result<T> {
        match self.overlay_for(&expr.relations(), ctx)? {
            Some(overlay) => f(&overlay),
            None => f(self.tables.relations()),
        }
    }

    // ------------------------------------------------------------------
    // Query surfaces
    // ------------------------------------------------------------------

    /// The one body every relational statement runs through, whatever
    /// language it is written in: admission and the in-flight registry
    /// entry ([`Db::run_governed`]), the catalog it should see
    /// ([`Db::with_catalog_for`]), execution with per-operator stats under
    /// `ctx` and `mode`, and the slow-log record. SQL text is parsed
    /// and optimized here; a prepared plan and an algebra expression run
    /// as given, never re-optimized. A calculus query is translated to
    /// algebra by Codd's Theorem against the catalog it runs on (the
    /// overlay of the relations it names, when it reads `bq.*`), then
    /// optimized like SQL text.
    pub fn run(&self, query: Query<'_>, ctx: &QueryContext, mode: ExecMode) -> Result<Answer<'_>> {
        let exec = Executor::new(mode);
        let (kind, text) = match query {
            Query::Sql(text) | Query::Prepared { text, .. } => ("sql", text),
            Query::Algebra(_) => ("algebra", "(algebra)"),
            Query::Calculus(_) => ("calculus", "(calculus)"),
        };
        let ((rows, stats), elapsed_us, recorder) = self.run_governed(kind, text, ctx, || {
            // SQL text and a translated calculus query are optimized
            // against the catalog they run on; a plan runs as given.
            let built;
            let (expr, optimized, overlay) = match query {
                Query::Sql(text) => {
                    built = sqlish::parse(text)?;
                    (&built, false, self.overlay_for(&built.relations(), ctx)?)
                }
                Query::Prepared { plan, .. } | Query::Algebra(plan) => {
                    (plan, true, self.overlay_for(&plan.relations(), ctx)?)
                }
                Query::Calculus(query) => {
                    let overlay = self.overlay_for(&query.relations(), ctx)?;
                    let cat = overlay.as_ref().unwrap_or(self.tables.relations());
                    built = calculus_to_algebra(query, cat)?;
                    (&built, false, overlay)
                }
            };
            match overlay {
                // The overlay dies here, so its rows are copied out first.
                Some(overlay) => {
                    let (rows, mut stats) = execute(&exec, expr, optimized, &overlay, ctx)?;
                    Ok((rows.into_owned(ctx, &mut stats)?, stats))
                }
                None => execute(&exec, expr, optimized, self.tables.relations(), ctx),
            }
        })?;
        self.note_slow(ctx, text, elapsed_us, rows.rows.len() as u64, &stats);
        Ok(Answer {
            rows,
            stats,
            elapsed_us,
            recorder,
        })
    }

    /// Run a SQL-ish query under the session limits and the engine's
    /// execution mode; see [`Db::run`].
    pub fn sql(&self, text: &str) -> Result<Relation> {
        self.sql_with_ctx_mode(text, &self.govern(), self.mode)
    }

    /// Run a SQL-ish query under an explicit [`QueryContext`] and
    /// [`ExecMode`]; see [`Db::run`].
    pub fn sql_with_ctx_mode(
        &self,
        text: &str,
        ctx: &QueryContext,
        mode: ExecMode,
    ) -> Result<Relation> {
        self.run(Query::Sql(text), ctx, mode)?.into_relation(ctx)
    }

    /// Parse and optimize a SQL-ish query into a plan for
    /// [`Query::Prepared`], without executing it. Statements over `bq.*`
    /// tables optimize against a snapshot overlay; each later execution
    /// still snapshots fresh state.
    pub fn prepare_sql(&self, text: &str) -> Result<Expr> {
        let expr = sqlish::parse(text)?;
        self.with_catalog_for(&expr, &self.govern(), |cat| Ok(optimize(&expr, cat)?))
    }

    /// Evaluate a relational-algebra expression under the session limits
    /// and the engine's mode; see [`Db::run`]. (The original recursive
    /// interpreter survives as [`bq_relational::algebra::eval`], the
    /// differential-testing oracle.)
    pub fn algebra(&self, expr: &Expr) -> Result<Relation> {
        let ctx = self.govern();
        self.run(Query::Algebra(expr), &ctx, self.mode)?
            .into_relation(&ctx)
    }

    /// Evaluate a tuple-calculus query under the session limits and the
    /// engine's mode; see [`Db::run`].
    pub fn calculus(&self, query: &CalcQuery) -> Result<Relation> {
        let ctx = self.govern();
        self.run(Query::Calculus(query), &ctx, self.mode)?
            .into_relation(&ctx)
    }

    /// `EXPLAIN ANALYZE`: run the statement through [`Db::run`] and render
    /// the physical plan annotated with per-operator rows, batches, wall
    /// time, and memory charged against the governor budget. When `ctx`
    /// brings no memory budget, one that never binds is attached so the
    /// engine estimates allocation sizes and `mem=` is populated.
    pub fn explain_analyze(
        &self,
        text: &str,
        ctx: &QueryContext,
        mode: ExecMode,
    ) -> Result<String> {
        // Large enough to never interfere, present so sizes are charged.
        const ANALYZE_BUDGET: u64 = 1 << 40;
        let analyzed;
        let ctx = if ctx.budget().is_none() {
            // The clone shares the cancel token and trace-id cells, so
            // cancellation and id stamping behave exactly as ungoverned.
            analyzed = ctx.clone().with_memory_budget(ANALYZE_BUDGET);
            &analyzed
        } else {
            ctx
        };
        let Answer {
            rows,
            mut stats,
            elapsed_us,
            recorder,
        } = self.run(Query::Sql(text), ctx, mode)?;
        // The copy is part of what an embedded statement costs.
        let before = stats.elapsed;
        let rows = rows
            .into_relation(ctx, &mut stats)
            .map_err(|e| refused(e.into()))?;
        drop(recorder);
        let copy_us = (stats.elapsed - before).as_micros() as u64;
        Ok(format!(
            "mode: {mode}\nquery: {}\nelapsed: {}us\nrows: {}\n{}",
            ctx.query_id().unwrap_or(0),
            elapsed_us + copy_us,
            rows.len(),
            stats.render()
        ))
    }

    /// Run a Datalog program against the tables (tables are the EDB) and
    /// answer a query atom. Example:
    /// `db.datalog("ancestor(X,Y) :- parent(X,Y). …", "ancestor(ann, X)")`.
    pub fn datalog(&self, program: &str, query: &str) -> Result<Vec<Vec<Value>>> {
        self.datalog_with_ctx(program, query, &self.govern())
    }

    /// Run a Datalog program under an explicit [`QueryContext`]: the EDB
    /// holds only the tables the program or the query atom names, its
    /// copy is charged against the memory budget, the fixpoint checks the
    /// deadline/cancel/iteration cap every round, and — crucially — the
    /// program is **validated before** the EDB is materialised, so an
    /// unsafe or unstratifiable program costs parsing, not a copy of the
    /// tables.
    pub fn datalog_with_ctx(
        &self,
        program: &str,
        query: &str,
        ctx: &QueryContext,
    ) -> Result<Vec<Vec<Value>>> {
        self.run_governed("datalog", program, ctx, || {
            let program = parse_program(program)?;
            let atom = parse_atom(query)?;
            bq_datalog::safety::check_program(&program)?;
            bq_datalog::stratify(&program)?;
            let mut named = program.all_preds();
            named.insert(atom.pred.as_str());
            let mut edb = FactStore::new();
            let mut charger = Charger::new(ctx);
            let catalog = self.tables.relations();
            for name in catalog.names().into_iter().filter(|n| named.contains(n)) {
                ctx.check().map_err(bq_datalog::DlError::from)?;
                let rel = catalog.get(name)?;
                for t in rel.iter() {
                    if charger.is_enabled() {
                        charger
                            .charge(t.approx_bytes())
                            .map_err(bq_datalog::DlError::from)?;
                    }
                    edb.insert(name, t.values().to_vec());
                }
            }
            charger.flush().map_err(bq_datalog::DlError::from)?;
            let (store, _) = SemiNaive::run_with_ctx(&program, &edb, ctx)?;
            Ok(bq_datalog::interp::query(&store, &atom))
        })
        .map(|(rows, _, _)| rows)
    }

    /// Borrow the logical catalog (for the algebra/calculus builders).
    pub fn catalog(&self) -> &Database {
        self.tables.relations()
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Per-statement-kind latency histogram timer. Each kind gets its own
    /// registered histogram so `.stats` separates SQL from Datalog etc.
    fn stmt_timer(kind: &'static str) -> bq_obs::HistTimer<'static> {
        let h: &'static bq_obs::Histogram = match kind {
            "sql" => bq_obs::histogram!(
                "bq_core_stmt_latency_us_sql",
                "SQL statement latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
            "algebra" => bq_obs::histogram!(
                "bq_core_stmt_latency_us_algebra",
                "algebra statement latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
            "calculus" => bq_obs::histogram!(
                "bq_core_stmt_latency_us_calculus",
                "calculus statement latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
            "datalog" => bq_obs::histogram!(
                "bq_core_stmt_latency_us_datalog",
                "datalog statement latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
            "insert" => bq_obs::histogram!(
                "bq_core_stmt_latency_us_insert",
                "autocommit insert latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
            _ => bq_obs::histogram!(
                "bq_core_stmt_latency_us_other",
                "other statement latency (us)",
                bq_obs::LATENCY_BUCKETS_US
            ),
        };
        h.start_timer()
    }

    /// Prometheus-style text dump of the global metrics registry —
    /// counters from every instrumented crate (storage, txn, datalog,
    /// exec, core) in one page.
    pub fn metrics_text(&self) -> String {
        bq_obs::global().text()
    }

    /// JSON dump of the global metrics registry.
    pub fn metrics_json(&self) -> String {
        bq_obs::global().json()
    }

    /// Zero every metric in the global registry. The registry is
    /// process-wide, so this resets counters for all `Db` instances.
    pub fn reset_metrics(&self) {
        bq_obs::global().reset();
    }

    /// Turn the span tracer on or off (process-wide).
    pub fn set_tracing(&self, on: bool) {
        bq_obs::set_enabled(on);
    }

    /// Is span tracing currently enabled?
    pub fn tracing(&self) -> bool {
        bq_obs::enabled()
    }

    /// Run a SQL-ish query through [`Db::run`] under a profile session:
    /// returns the result and a [`bq_obs::QueryProfile`] with wall time,
    /// the rendered physical plan, metric deltas, and the span flame
    /// captured during execution, tagged with the trace/query id.
    pub fn profile_sql(
        &self,
        text: &str,
        ctx: &QueryContext,
        mode: ExecMode,
    ) -> Result<(Relation, bq_obs::QueryProfile)> {
        let session = bq_obs::ProfileSession::start(text);
        let outcome = self.run(Query::Sql(text), ctx, mode);
        // Finished on failure too: that is what restores the tracing flag.
        let plan = outcome.as_ref().map(|answer| answer.stats.render());
        let mut profile = session.finish(plan.unwrap_or_default());
        profile.query = ctx.query_id().unwrap_or(0);
        Ok((outcome?.into_relation(ctx)?, profile))
    }

    // ------------------------------------------------------------------
    // Crash and recovery
    // ------------------------------------------------------------------

    /// Crash with the whole WAL surviving, synced or not, and recover (see
    /// [`Db::crash_at`], which can cut the log shorter). Returns the ids
    /// of the transactions recovery rolled back.
    pub fn simulate_crash_and_recover(&mut self) -> Result<Vec<u64>> {
        self.crash_at(|log, _| log.len())
    }

    /// Rebuild relations and indexes from the heap pages and the
    /// surviving log. A heap record is live iff the last surviving
    /// `RowInsert` of its key — the table and the encoded tuple, which
    /// names one row because a table is a set — belongs to a committed
    /// transaction. Returns the transactions the log shows begun and
    /// neither committed nor aborted: the ones rolled back.
    fn recover(&mut self, records: &[LogRecord]) -> Result<Vec<u64>> {
        let (losers, committed_rows) = log_outcome(records);

        // Rows of runtime aborts left the heap with the abort. So when no
        // transaction is in flight and the heap holds as many records as
        // committed transactions logged, every record is a committed row,
        // and none needs looking up.
        if losers.is_empty() && self.tables.record_count() == committed_rows {
            self.tables.recover(|_, _| true)?;
            return Ok(losers);
        }
        let committed: HashSet<u64> = records
            .iter()
            .filter_map(|rec| match rec {
                LogRecord::Commit(t) | LogRecord::TaggedCommit { txn: t, .. } => Some(*t),
                _ => None,
            })
            .collect();
        let mut last: HashMap<(&str, &[u8]), bool> = HashMap::new();
        for rec in records {
            if let LogRecord::RowInsert {
                txn, table, bytes, ..
            } = rec
            {
                last.insert((table, bytes), committed.contains(txn));
            }
        }
        self.tables
            .recover(|table, bytes| last.get(&(table, bytes)) == Some(&true))?;
        Ok(losers)
    }

    // ------------------------------------------------------------------
    // Replication: snapshot export/import, record apply, promotion
    // ------------------------------------------------------------------

    /// The registry behind `bq.replicas`; a primary's shipping loops
    /// clone it and publish per-subscriber progress there.
    pub fn replica_registry(&self) -> ReplicaRegistry {
        self.replicas.clone()
    }

    /// The registry behind `bq.backups`; a backup engine clones it and
    /// publishes one row per archived backup attempt.
    pub fn backup_registry(&self) -> BackupRegistry {
        self.backups.clone()
    }

    /// The watch this engine publishes its durable WAL horizon to. A
    /// primary's shipping loops take a clone once and block on it while
    /// they are caught up.
    pub fn wal_watch(&self) -> WalWatch {
        self.watch.clone()
    }

    /// Force the WAL and return the durable horizon in bytes: every
    /// commit logged so far sits inside the durable prefix afterwards.
    /// The incremental-backup cut point — and the only place the engine
    /// syncs its WAL, so every advance of the horizon reaches
    /// [`Db::wal_watch`].
    pub fn sync_wal(&mut self) -> Result<u64> {
        self.wal.sync()?;
        let horizon = self.wal.synced_len() as u64;
        self.watch.publish(horizon);
        Ok(horizon)
    }

    /// Bytes of the WAL guaranteed durable — the shipping horizon.
    pub fn wal_durable_len(&self) -> u64 {
        self.wal.synced_len() as u64
    }

    /// Up to `max` durable WAL bytes starting at byte offset `from`, for
    /// shipping to a subscriber. Empty when `from` is at the horizon.
    pub fn wal_durable_bytes(&self, from: u64, max: usize) -> Vec<u8> {
        let chunk = self.wal.durable_bytes_from(from as usize);
        chunk[..chunk.len().min(max)].to_vec()
    }

    /// Encoded committed rows of `table`: the relation minus the rows
    /// open transactions have pending.
    fn committed_rows(&self, table: &str) -> Result<Vec<Vec<u8>>> {
        let pending: BTreeSet<&Tuple> = self
            .open
            .values()
            .flatten()
            .filter(|placed| placed.table == table)
            .map(|placed| &placed.tuple)
            .collect();
        let rows = self.tables.relation(table)?.iter();
        Ok(rows
            .filter(|t| !pending.contains(t))
            .map(codec::encode)
            .collect())
    }

    /// The engine as a log, for replica bootstrap and full backups: a
    /// header (the version, `next_txn` and the durable WAL offset the
    /// image corresponds to, where shipping resumes), then the records
    /// that rebuild it through [`Db::apply_record`]. The committed rows
    /// and the write-dedup table come under txn 0, which `next_txn` never
    /// hands out, then each open transaction with its pending rows, and
    /// the index definitions last. The WAL is synced first so the offset
    /// sits on a record boundary; a full log device fails the export
    /// typed (an image claiming a stale horizon while carrying newer
    /// commits would restore wrongly).
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>> {
        self.sync_wal()?;
        let mut buf = Vec::new();
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_u64(self.next_txn);
        buf.put_u64(self.wal.synced_len() as u64);
        let mut log = |rec: LogRecord| rec.encode_into(&mut buf);
        let row = |txn, table: &str, bytes| LogRecord::RowInsert {
            txn,
            page: PageId(0),
            slot: 0,
            table: table.to_string(),
            bytes,
        };

        log(LogRecord::Begin(0));
        for name in self.tables() {
            let attrs = self.table(name)?.schema().attrs();
            log(LogRecord::CreateTable {
                name: name.to_string(),
                cols: attrs
                    .iter()
                    .map(|a| (a.name.clone(), a.ty.to_byte()))
                    .collect(),
            });
            for bytes in self.committed_rows(name)? {
                log(row(0, name, bytes));
            }
        }
        log(LogRecord::Commit(0));
        for (client, reqs) in &self.dedup {
            for &request in reqs {
                log(LogRecord::TaggedCommit {
                    txn: 0,
                    client: client.clone(),
                    request,
                });
            }
        }
        for (&txn, pending) in &self.open {
            log(LogRecord::Begin(txn));
            for placed in pending {
                log(row(txn, &placed.table, codec::encode(&placed.tuple)));
            }
        }
        for (table, column) in self.tables.index_defs() {
            log(LogRecord::CreateIndex {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        bq_obs::counter!("bq_core_snapshots_total", "bootstrap snapshots exported").inc();
        Ok(buf)
    }

    /// Rebuild this engine in place from a [`Db::snapshot_bytes`] image,
    /// returning the primary WAL offset the snapshot corresponds to.
    /// Every record goes through [`Db::apply_record`] into a fresh engine,
    /// whose WAL then starts with the image, synced, so a crash after the
    /// load keeps it. Only when all of them apply does that engine's
    /// storage replace this one's: a torn or corrupt image, or a record
    /// that does not apply, leaves the engine untouched. Virtual-table,
    /// session, and cancel registries keep their identities so a serving
    /// front-end survives a re-bootstrap.
    pub fn apply_snapshot(&mut self, bytes: &[u8]) -> Result<u64> {
        let mut r = ByteReader::new(bytes);
        if r.u8()? != SNAPSHOT_VERSION {
            return Err(CoreError::Codec("unknown snapshot version".to_string()));
        }
        let next_txn = r.u64()?;
        let wal_offset = r.u64()?;
        let body = &bytes[r.pos()..];
        let (records, consumed) = Wal::decode_stream(body)?;
        if consumed < body.len() {
            return Err(CoreError::Codec("snapshot ends in a torn record".into()));
        }
        let mut fresh = Db::new();
        for rec in &records {
            fresh.apply_record(rec)?;
        }
        fresh.sync_wal()?;

        self.tables = fresh.tables;
        self.locks = fresh.locks;
        self.wal = fresh.wal;
        self.watch.publish(self.wal.synced_len() as u64);
        self.open = fresh.open;
        self.next_txn = fresh.next_txn.max(next_txn);
        self.dedup = fresh.dedup;
        self.dedup_order = fresh.dedup_order;
        bq_obs::counter!(
            "bq_core_snapshots_applied_total",
            "bootstrap snapshots applied"
        )
        .inc();
        Ok(wal_offset)
    }

    /// Apply one shipped, restored or snapshot log record: transactions
    /// are keyed by the primary's ids, the lock table is bypassed (replay
    /// is single-writer by construction), and each record is re-logged
    /// into the local WAL so the engine's own durability story holds.
    pub fn apply_record(&mut self, rec: &LogRecord) -> Result<()> {
        match rec {
            LogRecord::Begin(t) => {
                self.next_txn = self.next_txn.max(t.saturating_add(1));
                self.open.insert(*t, Vec::new());
                self.wal.append(rec)?;
            }
            LogRecord::Commit(txn) | LogRecord::TaggedCommit { txn, .. } => {
                self.open.remove(txn);
                self.wal.append(rec)?;
                if let LogRecord::TaggedCommit {
                    client, request, ..
                } = rec
                {
                    self.note_request(client, *request);
                }
                self.sync_wal()?;
            }
            LogRecord::Abort(t) => {
                if let Some(undo) = self.open.remove(t) {
                    self.take_back(undo)?;
                }
                self.wal.append(rec)?;
            }
            LogRecord::CreateTable { name, cols } => {
                // Idempotent: a resent segment may replay DDL we hold.
                if !self.tables.contains(name) {
                    let typed: Vec<(String, Type)> = cols
                        .iter()
                        .map(|(n, t)| Ok((n.clone(), type_from_byte(*t)?)))
                        .collect::<Result<_>>()?;
                    let attrs: Vec<(&str, Type)> =
                        typed.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                    self.tables.create(name, Schema::new(&attrs)?)?;
                    self.wal.append(rec)?;
                    self.sync_wal()?;
                }
            }
            LogRecord::CreateIndex { table, column } => {
                // Idempotent, as DDL is.
                if !self.tables.has_index(table, column) {
                    self.tables.create_index(table, column)?;
                    self.wal.append(rec)?;
                    self.sync_wal()?;
                }
            }
            LogRecord::RowInsert {
                txn, table, bytes, ..
            } => {
                // The replica's heap chooses its own location; the row
                // is re-logged with it so local crash recovery stays
                // consistent.
                self.put_pending(*txn, table, codec::decode(bytes)?, bytes.clone())?;
            }
            LogRecord::Checkpoint(_) => {
                // Nothing writes a checkpoint yet; nothing to apply.
            }
        }
        bq_obs::counter!(
            "bq_repl_records_applied_total",
            "replicated records applied"
        )
        .inc();
        Ok(())
    }

    /// Promote a replica to primary: abort every transaction that was
    /// shipped a `Begin` but never a commit (the old primary died
    /// mid-transaction), returning the aborted ids. After promotion the
    /// engine accepts writes like any primary.
    pub fn promote(&mut self) -> Result<Vec<u64>> {
        let open: Vec<u64> = self.open.keys().copied().collect();
        for t in &open {
            self.abort(TxnHandle(*t))?;
        }
        bq_obs::counter!("bq_core_promotions_total", "replica promotions").inc();
        Ok(open)
    }

    /// Order-insensitive FNV-1a fingerprint of the committed logical
    /// contents: table names, schemas, the sorted set of committed row
    /// encodings, and the index definitions. Primary and replica converge
    /// to the same fingerprint even though their heap locations differ.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv1a64::default();
        for name in self.tables() {
            h.write(name.as_bytes());
            if let Ok(rel) = self.table(name) {
                for attr in rel.schema().attrs() {
                    h.write(attr.name.as_bytes());
                    h.write(&[attr.ty.to_byte()]);
                }
            }
            let mut rows = self.committed_rows(name).unwrap_or_default();
            rows.sort_unstable();
            for row in rows {
                h.write(&(row.len() as u32).to_le_bytes());
                h.write(&row);
            }
        }
        for (table, column) in self.tables.index_defs() {
            h.write(table.as_bytes());
            h.write(&[0]);
            h.write(column.as_bytes());
        }
        h.finish()
    }

    // ------------------------------------------------------------------
    // Integrity scrubbing
    // ------------------------------------------------------------------

    /// Walk every heap page verifying its checksum; if any page is
    /// corrupt, rewrite every page from the intact relations. Every row
    /// re-enters a fresh heap, the undo entries of open transactions are
    /// re-pointed, and the indexes are rebuilt over the new record ids.
    /// Heap placements may differ from the originals — like a replica's —
    /// which [`Db::content_fingerprint`] is insensitive to by design, and
    /// so is crash recovery, which finds a row by its key, not by where
    /// its `RowInsert` says it went. Nothing is logged.
    /// Returns `(pages_checked, pages_restored)`.
    pub fn scrub_pages(&mut self) -> Result<(usize, usize)> {
        let (n, corrupt) = self.tables.verify_pages()?;
        bq_obs::counter!(
            "bq_scrub_pages_checked_total",
            "heap pages checksum-verified by scrub"
        )
        .add(n as u64);
        if corrupt > 0 {
            let pending = self.open.values_mut().flatten();
            self.tables.rebuild_pages(pending)?;
            bq_obs::counter!(
                "bq_scrub_pages_restored_total",
                "corrupt heap pages rebuilt by scrub from the logical layer"
            )
            .add(corrupt as u64);
        }
        Ok((n, corrupt))
    }

    /// Number of pages in the backing store.
    pub fn page_count(&self) -> usize {
        self.tables.page_count()
    }

    /// Chaos hook: flip a byte of a stored page so its checksum fails —
    /// the damage [`Db::scrub_pages`] exists to find and repair.
    pub fn corrupt_page(&mut self, page: u32) -> Result<()> {
        self.tables.corrupt_page(page)
    }

    /// Chaos hook: crash with the WAL cut where `cut` says, and recover.
    /// `cut` sees the whole log and its synced length and names the byte
    /// to cut at; a synced byte is never lost, and a cut inside a record
    /// tears it. Relations, indexes, open transactions, locks and the
    /// dedup table are lost with the process; the heap pages and the
    /// catalog (tables and index definitions) stay as written, even where
    /// the cut drops the `CreateTable` or `CreateIndex` record that made
    /// them. Returns the ids of the transactions recovery rolled back. A
    /// corrupt heap page fails recovery with a typed `Corruption` error,
    /// and the tables are then not to be trusted.
    pub fn crash_at(&mut self, cut: impl FnOnce(&[u8], usize) -> usize) -> Result<Vec<u64>> {
        self.open.clear();
        self.locks = LockTable::new();
        let len = self.wal.byte_len();
        let records = self.wal.crash(cut)?;
        // The dedup table is the log's tagged commits replayed in order, so
        // only a crash that cut the log can change it.
        if self.wal.byte_len() < len {
            self.dedup.clear();
            self.dedup_order.clear();
            for rec in &records {
                if let LogRecord::TaggedCommit {
                    client, request, ..
                } = rec
                {
                    self.note_request(client, *request);
                }
            }
        }
        let losers = self.recover(&records)?;
        self.log_rollbacks(&losers);
        Ok(losers)
    }

    /// Log an ABORT for each transaction recovery rolled back, and sync
    /// it: a later crash then finds them ended, and a replica that was
    /// shipped their BEGIN closes them. Best effort, as in [`Db::abort`]:
    /// a loser whose ABORT is lost is rolled back again by the next
    /// recovery.
    fn log_rollbacks(&mut self, losers: &[u64]) {
        if losers.is_empty() {
            return;
        }
        for &t in losers {
            if self.wal.append(&LogRecord::Abort(t)).is_err() {
                return;
            }
        }
        self.sync_tolerating_full();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::tup;

    fn emp_db() -> Db {
        let mut db = Db::new();
        db.create_table(
            "emp",
            &[("name", Type::Str), ("dept", Type::Str), ("sal", Type::Int)],
        )
        .unwrap();
        db.insert(
            "emp",
            vec![Value::str("ann"), Value::str("cs"), Value::Int(90)],
        )
        .unwrap();
        db.insert(
            "emp",
            vec![Value::str("bob"), Value::str("cs"), Value::Int(70)],
        )
        .unwrap();
        db.insert(
            "emp",
            vec![Value::str("eve"), Value::str("ee"), Value::Int(80)],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = emp_db();
        assert_eq!(db.row_count("emp").unwrap(), 3);
        let out = db.sql("select e.name from emp e where e.sal > 75").unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = emp_db();
        assert!(matches!(
            db.create_table("emp", &[("x", Type::Int)]),
            Err(CoreError::TableExists(_))
        ));
    }

    /// A `bq.` table could be written and never read: every read of a
    /// `bq.` name goes to the virtual catalog.
    #[test]
    fn the_bq_namespace_is_reserved() {
        let mut db = emp_db();
        for name in ["bq.x", "bq.metrics"] {
            assert!(matches!(
                db.create_table(name, &[("a", Type::Int)]),
                Err(CoreError::ReservedName(n)) if n == name
            ));
        }
        assert!(db.insert("bq.x", vec![Value::Int(1)]).is_err());
        db.create_table("bqx", &[("a", Type::Int)]).unwrap();
    }

    #[test]
    fn schema_mismatch_rejected_and_rolled_back() {
        let mut db = emp_db();
        let before = db.row_count("emp").unwrap();
        assert!(db.insert("emp", vec![Value::Int(1)]).is_err());
        assert_eq!(db.row_count("emp").unwrap(), before);
    }

    #[test]
    fn abort_rolls_back_inserts() {
        let mut db = emp_db();
        let h = db.begin().unwrap();
        db.insert_in(
            h,
            "emp",
            vec![Value::str("zoe"), Value::str("cs"), Value::Int(50)],
        )
        .unwrap();
        assert_eq!(db.row_count("emp").unwrap(), 4);
        db.abort(h).unwrap();
        assert_eq!(db.row_count("emp").unwrap(), 3);
    }

    #[test]
    fn aborted_duplicate_insert_keeps_the_committed_row() {
        let mut db = Db::new();
        db.create_table("t", &[("a", Type::Int), ("b", Type::Int)])
            .unwrap();
        db.create_index("t", "b").unwrap();
        db.insert("t", vec![Value::Int(1), Value::Int(2)]).unwrap();
        let before = db.content_fingerprint();

        let h = db.begin().unwrap();
        db.insert_in(h, "t", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.abort(h).unwrap();

        assert_eq!(db.row_count("t").unwrap(), 1);
        assert_eq!(db.sql("select x.a from t x").unwrap().len(), 1);
        assert_eq!(db.lookup("t", "b", &Value::Int(2)).unwrap().len(), 1);
        assert_eq!(db.content_fingerprint(), before);
        // The duplicate was not logged.
        let records = Wal::decode_stream(&db.wal_durable_bytes(0, usize::MAX))
            .unwrap()
            .0;
        let is_insert = |r: &&LogRecord| matches!(r, LogRecord::RowInsert { .. });
        assert_eq!(records.iter().filter(is_insert).count(), 1);
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.content_fingerprint(), before, "no write, no change");
        assert_eq!(db.lookup("t", "b", &Value::Int(2)).unwrap().len(), 1);
    }

    #[test]
    fn table_locks_conflict() {
        let mut db = emp_db();
        let h1 = db.begin().unwrap();
        let h2 = db.begin().unwrap();
        db.insert_in(
            h1,
            "emp",
            vec![Value::str("zoe"), Value::str("cs"), Value::Int(50)],
        )
        .unwrap();
        // h2 cannot read or write emp while h1 holds the X lock.
        assert!(matches!(
            db.scan_in(h2, "emp"),
            Err(CoreError::Locked { .. })
        ));
        db.commit(h1).unwrap();
        assert_eq!(db.scan_in(h2, "emp").unwrap().len(), 4);
        db.commit(h2).unwrap();
    }

    #[test]
    fn shared_locks_allow_concurrent_readers() {
        let mut db = emp_db();
        let h1 = db.begin().unwrap();
        let h2 = db.begin().unwrap();
        assert!(db.scan_in(h1, "emp").is_ok());
        assert!(db.scan_in(h2, "emp").is_ok());
        db.commit(h1).unwrap();
        db.commit(h2).unwrap();
    }

    #[test]
    fn crash_recovery_keeps_winners_drops_losers() {
        let mut db = emp_db();
        let h = db.begin().unwrap();
        db.insert_in(
            h,
            "emp",
            vec![Value::str("zoe"), Value::str("cs"), Value::Int(50)],
        )
        .unwrap();
        // Crash before commit.
        let losers = db.simulate_crash_and_recover().unwrap();
        assert_eq!(losers, vec![h.0]);
        assert_eq!(db.row_count("emp").unwrap(), 3, "loser insert removed");
        let out = db
            .sql("select e.name from emp e where e.name = 'zoe'")
            .unwrap();
        assert!(out.is_empty());
        // Committed data survived.
        assert!(db
            .sql("select e.name from emp e")
            .unwrap()
            .contains(&tup!["ann"]));
    }

    #[test]
    fn recovery_lets_the_last_writer_of_a_slot_decide() {
        let mut db = emp_db();
        db.create_index("emp", "dept").unwrap();
        let row = |name: &str| vec![Value::str(name), Value::str("cs"), Value::Int(50)];
        // A rolled-back transaction logs slot 3 of page 0 …
        let aborted = db.begin().unwrap();
        db.insert_in(aborted, "emp", row("zoe")).unwrap();
        db.abort(aborted).unwrap();
        // … scrub repacks the three committed rows into fresh pages, and
        // the next row — committed — lands on that very slot.
        db.corrupt_page(0).unwrap();
        assert_eq!(db.scrub_pages().unwrap(), (1, 1));
        db.insert("emp", row("yan")).unwrap();
        let log = Wal::decode_stream(&db.wal_durable_bytes(0, usize::MAX))
            .unwrap()
            .0;
        let slots = log.iter().filter_map(|r| match r {
            LogRecord::RowInsert { page, slot, .. } => Some((page.0, *slot)),
            _ => None,
        });
        let slots: Vec<(u32, u16)> = slots.collect();
        assert_eq!(slots.len(), 5);
        assert_eq!(slots[3], slots[4], "the loser's slot was written again");
        // A transaction still open at the crash loses exactly its rows.
        let open = db.begin().unwrap();
        db.insert_in(open, "emp", row("wes")).unwrap();
        db.insert_in(open, "emp", row("vic")).unwrap();

        // The rolled-back transaction ended with its ABORT: not a loser.
        let losers = db.simulate_crash_and_recover().unwrap();
        assert_eq!(losers, vec![open.0]);
        let names = db.sql("select e.name from emp e").unwrap();
        let want = ["ann", "bob", "eve", "yan"].map(|n| tup![n]);
        assert_eq!(names.tuples(), want, "yan's slot ends with a winner");
        // The rebuilt index agrees with the rebuilt relation.
        let cs = db.lookup("emp", "dept", &Value::str("cs")).unwrap();
        assert_eq!(cs.len(), 3);
        assert_eq!(
            db.lookup("emp", "dept", &Value::str("ee")).unwrap().len(),
            1
        );
        // And recovery changes nothing the second time: the loser it
        // rolled back now ends with the ABORT it logged.
        assert!(db.simulate_crash_and_recover().unwrap().is_empty());
        assert_eq!(db.row_count("emp").unwrap(), 4);
    }

    #[test]
    fn recovery_is_idempotent_and_preserves_counts() {
        let mut db = emp_db();
        db.simulate_crash_and_recover().unwrap();
        db.simulate_crash_and_recover().unwrap();
        assert_eq!(db.row_count("emp").unwrap(), 3);
    }

    #[test]
    fn a_rolled_back_loser_is_logged_aborted() {
        let row = |name: &str| vec![Value::str(name), Value::str("cs"), Value::Int(1)];
        let mut db = emp_db();
        db.create_table("other", &[("a", Type::Int)]).unwrap();
        let loser = db.begin().unwrap();
        db.insert_in(loser, "emp", row("lou")).unwrap();
        // A commit after it makes the loser's BEGIN and row durable, so a
        // replica is shipped them and holds the transaction open.
        db.insert("other", vec![Value::Int(1)]).unwrap();
        let ship = |db: &Db, replica: &mut Db, from: u64| {
            let bytes = db.wal_durable_bytes(from, usize::MAX);
            for rec in Wal::decode_stream(&bytes).unwrap().0 {
                replica.apply_record(&rec).unwrap();
            }
            from + bytes.len() as u64
        };
        let mut replica = Db::new();
        let shipped = ship(&db, &mut replica, 0);
        assert_eq!(db.simulate_crash_and_recover().unwrap(), vec![loser.0]);
        // The ABORT recovery logged is durable: it ships, and the replica
        // closes the transaction and takes its row back.
        assert_eq!(ship(&db, &mut replica, shipped), db.wal_durable_len());
        assert_eq!(replica.content_fingerprint(), db.content_fingerprint());
        assert!(replica.promote().unwrap().is_empty(), "nothing left open");
        // A second crash finds the loser ended: no loser, and every heap
        // record is a committed row, so no record is looked up.
        let mut records = Vec::new();
        let losers = db
            .crash_at(|log, _| {
                records = Wal::decode_stream(log).unwrap().0;
                log.len()
            })
            .unwrap();
        assert!(losers.is_empty(), "{losers:?}");
        let (open, committed_rows) = log_outcome(&records);
        assert!(open.is_empty());
        assert_eq!(db.tables.record_count(), committed_rows);
        assert_eq!(db.row_count("emp").unwrap(), 3);
    }

    #[test]
    fn datalog_over_tables() {
        let mut db = Db::new();
        db.create_table("parent", &[("p", Type::Str), ("c", Type::Str)])
            .unwrap();
        for (p, c) in [("ann", "bob"), ("bob", "cid"), ("cid", "dee")] {
            db.insert("parent", vec![Value::str(p), Value::str(c)])
                .unwrap();
        }
        let answers = db
            .datalog(
                "ancestor(X, Y) :- parent(X, Y).\n\
                 ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).",
                "ancestor(ann, X)",
            )
            .unwrap();
        assert_eq!(answers.len(), 3);
    }

    #[test]
    fn datalog_copies_only_the_tables_it_names() {
        let mut db = Db::new();
        db.create_table("parent", &[("p", Type::Int), ("c", Type::Int)])
            .unwrap();
        for i in 0..10 {
            db.insert("parent", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        let program = "anc(X, Y) :- parent(X, Y).\n\
                       anc(X, Z) :- parent(X, Y), anc(Y, Z).";
        let ctx = || QueryContext::unlimited().with_memory_budget(128 * 1024);
        let alone = db.datalog_with_ctx(program, "anc(0, Y)", &ctx()).unwrap();
        assert_eq!(alone.len(), 10);
        // An unrelated table whose copy alone would exceed the budget.
        db.create_table("wide", &[("id", Type::Int), ("blob", Type::Str)])
            .unwrap();
        for i in 0..300 {
            db.insert("wide", vec![Value::Int(i), Value::str("x".repeat(1000))])
                .unwrap();
        }
        assert_eq!(
            db.datalog_with_ctx(program, "anc(0, Y)", &ctx()).unwrap(),
            alone
        );
    }

    #[test]
    fn algebra_and_calculus_surfaces_agree() {
        use bq_relational::algebra::expr::Predicate;
        use bq_relational::calculus::ast::{Formula, Query, Term};
        use bq_relational::value::CmpOp;

        let db = emp_db();
        let via_algebra = db
            .algebra(
                &Expr::rel("emp")
                    .select(Predicate::eq_const("dept", "cs"))
                    .project(&["name"]),
            )
            .unwrap();
        let q = Query::new(
            &[("e", "emp")],
            &[("e", "name", "name")],
            Formula::cmp(
                Term::attr("e", "dept"),
                CmpOp::Eq,
                Term::Const(Value::str("cs")),
            ),
        );
        let via_calculus = db.calculus(&q).unwrap();
        assert_eq!(via_algebra.tuples(), via_calculus.tuples());
    }

    #[test]
    fn index_lookup_matches_scan() {
        let mut db = emp_db();
        // Scan answer before the index exists…
        let scan = db.lookup("emp", "dept", &Value::str("cs")).unwrap();
        db.create_index("emp", "dept").unwrap();
        assert!(db.has_index("emp", "dept"));
        // …equals the indexed answer after.
        let mut indexed = db.lookup("emp", "dept", &Value::str("cs")).unwrap();
        indexed.sort();
        let mut scan = scan;
        scan.sort();
        assert_eq!(indexed, scan);
        assert_eq!(indexed.len(), 2);
    }

    #[test]
    fn index_tracks_inserts_and_aborts() {
        let mut db = emp_db();
        db.create_index("emp", "dept").unwrap();
        let h = db.begin().unwrap();
        db.insert_in(
            h,
            "emp",
            vec![Value::str("zoe"), Value::str("cs"), Value::Int(50)],
        )
        .unwrap();
        assert_eq!(
            db.lookup("emp", "dept", &Value::str("cs")).unwrap().len(),
            3
        );
        db.abort(h).unwrap();
        assert_eq!(
            db.lookup("emp", "dept", &Value::str("cs")).unwrap().len(),
            2
        );
    }

    #[test]
    fn index_survives_recovery() {
        let mut db = emp_db();
        db.create_index("emp", "sal").unwrap();
        let h = db.begin().unwrap();
        db.insert_in(
            h,
            "emp",
            vec![Value::str("zoe"), Value::str("cs"), Value::Int(50)],
        )
        .unwrap();
        db.simulate_crash_and_recover().unwrap();
        // Loser gone from the index too.
        assert!(db.lookup("emp", "sal", &Value::Int(50)).unwrap().is_empty());
        assert_eq!(db.lookup("emp", "sal", &Value::Int(90)).unwrap().len(), 1);
    }

    #[test]
    fn range_lookup_via_index() {
        let mut db = emp_db();
        db.create_index("emp", "sal").unwrap();
        let mid = db
            .lookup_range("emp", "sal", &Value::Int(75), &Value::Int(92))
            .unwrap();
        assert_eq!(mid.len(), 2); // 80 and 90
                                  // And the unindexed path agrees.
        let mut db2 = emp_db();
        let scan = db2
            .lookup_range("emp", "sal", &Value::Int(75), &Value::Int(92))
            .unwrap();
        assert_eq!(mid.len(), scan.len());
        let _ = &mut db2;
    }

    #[test]
    fn exec_mode_is_switchable_and_answers_stay_put() {
        use bq_relational::algebra::expr::Predicate;
        let mut db = emp_db();
        let expr = Expr::rel("emp")
            .select(Predicate::eq_const("dept", "cs"))
            .project(&["name"]);
        let oracle = bq_relational::algebra::eval::eval(&expr, db.catalog()).unwrap();
        for mode in [
            ExecMode::Sequential,
            ExecMode::Parallel(1),
            ExecMode::Parallel(4),
        ] {
            db.set_exec_mode(mode);
            assert_eq!(db.exec_mode(), mode);
            assert_eq!(db.algebra(&expr).unwrap(), oracle, "{mode}");
            assert_eq!(
                db.sql("select e.name from emp e where e.dept = 'cs'")
                    .unwrap(),
                oracle,
                "{mode}"
            );
        }
    }

    #[test]
    fn explain_renders_the_physical_plan() {
        let db = emp_db();
        let explain = |text| db.explain_analyze(text, &db.govern(), db.exec_mode());
        let out = explain("select e.name from emp e where e.sal > 75").unwrap();
        // The selection is pushed into the scan: no stand-alone filter, and
        // no seek either, since `sal` does not lead emp's column order.
        assert!(out.contains("SeqScan [emp] where e.sal > 75  ("), "{out}");
        assert!(!out.contains("Filter"), "{out}");
        assert!(out.contains("rows=2 in=3"), "{out}");
        assert!(out.starts_with("mode:"), "{out}");
        let out = explain("select e.sal from emp e where e.name = 'bob'").unwrap();
        assert!(
            out.contains("SeqScan [emp] where e.name = 'bob' seek name = 'bob'  (rows=1 in=1"),
            "{out}"
        );
    }

    #[test]
    fn explain_analyze_reports_runtime_and_memory() {
        let db = emp_db();
        let out = db
            .explain_analyze(
                "select e.name from emp e where e.sal > 75",
                &db.govern(),
                db.exec_mode(),
            )
            .unwrap();
        assert!(out.starts_with("mode:"), "{out}");
        assert!(out.contains("query: "), "{out}");
        assert!(out.contains("elapsed: "), "{out}");
        assert!(out.contains("rows: 2"), "{out}");
        assert!(out.contains("SeqScan [emp]"), "{out}");
        assert!(out.contains("time="), "{out}");
        // The synthetic analyze budget makes allocation sites charge, so
        // per-operator memory is populated even for ungoverned sessions.
        assert!(out.contains("mem="), "{out}");
    }

    #[test]
    fn virtual_tables_answer_ordinary_sql() {
        let db = emp_db();
        db.sql("select e.name from emp e").unwrap();

        let metrics = db
            .sql("select m.name from bq.metrics m where m.kind = 'counter'")
            .unwrap();
        assert!(!metrics.is_empty());

        let failpoints = db.sql("select f.site from bq.failpoints f").unwrap();
        assert_eq!(failpoints.len(), bq_faults::CATALOG.len());

        // The statement reading `bq.queries` sees itself in flight.
        let queries = db
            .sql("select q.query, q.sql, q.state from bq.queries q")
            .unwrap();
        assert_eq!(queries.len(), 1);

        let slow = db.sql("select s.query, s.sql from bq.slow_log s").unwrap();
        assert!(!slow.is_empty(), "default threshold logs everything");

        // Embedded engines have no sessions and hold no locks.
        assert!(db
            .sql("select x.session from bq.sessions x")
            .unwrap()
            .is_empty());
        assert!(db.sql("select l.item from bq.locks l").unwrap().is_empty());

        // Joins across the virtual boundary go through the normal planner.
        let joined = db
            .sql(
                "select q.sql, m.name from bq.queries q, bq.metrics m \
                 where m.name = 'bq_exec_operators_total'",
            )
            .unwrap();
        assert_eq!(joined.len(), 1);

        assert!(matches!(
            db.sql("select z.a from bq.nope z"),
            Err(CoreError::NoSuchTable(_))
        ));
    }

    #[test]
    fn slow_log_records_completed_statements() {
        let db = emp_db();
        db.sql("select e.name from emp e where e.sal > 75").unwrap();
        let entries = db.slow_log().entries();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.sql, "select e.name from emp e where e.sal > 75");
        assert_eq!(e.rows, 2);
        assert!(e.plan.contains("SeqScan [emp]"), "{}", e.plan);

        // Raising the threshold filters fast statements out.
        db.set_slow_threshold_us(60_000_000);
        db.sql("select e.name from emp e").unwrap();
        let after = db.slow_log().entries().len();
        assert_eq!(after, 1, "only the statement run before the raise");
    }

    #[test]
    fn locks_table_shows_held_locks() {
        let mut db = emp_db();
        let h = db.begin().unwrap();
        db.insert_in(
            h,
            "emp",
            vec![Value::str("kim"), Value::str("cs"), Value::Int(60)],
        )
        .unwrap();
        let locks = db
            .sql("select l.item, l.mode, l.txn from bq.locks l")
            .unwrap();
        assert_eq!(locks.len(), 1);
        let row = locks.iter().next().unwrap();
        assert_eq!(row.get(0), &Value::str("emp"));
        assert_eq!(row.get(1), &Value::str("exclusive"));
        db.commit(h).unwrap();
        assert!(db.sql("select l.item from bq.locks l").unwrap().is_empty());
    }

    #[test]
    fn prepared_statements_resolve_virtual_tables() {
        let db = emp_db();
        let text = "select q.query, q.state from bq.queries q";
        let plan = db.prepare_sql(text).unwrap();
        let prepared = Query::Prepared { text, plan: &plan };
        let out = db.run(prepared, &db.govern(), db.exec_mode()).unwrap();
        assert_eq!(out.rows.rows.len(), 1, "the prepared execution sees itself");
    }

    #[test]
    fn calculus_surface_runs_through_the_engine() {
        use bq_relational::calculus::ast::{Formula, Query, Range, Term};
        use bq_relational::calculus::eval_query;
        use bq_relational::value::CmpOp;
        let db = emp_db();
        let q = Query::new(
            &[("e", "emp")],
            &[("e", "name", "name")],
            Formula::cmp(
                Term::attr("e", "sal"),
                CmpOp::Gt,
                Term::Const(Value::Int(75)),
            ),
        );
        let via_engine = db.calculus(&q).unwrap();
        let direct = eval_query(&q, db.catalog()).unwrap();
        assert_eq!(via_engine.tuples(), direct.tuples());

        // A quantifier over the active domain translates too: the domain
        // is algebra over the catalog's columns, and the answer's stats
        // tree is the executed plan's operators.
        let over_domain = Query::new(
            &[("e", "emp")],
            &[("e", "name", "name")],
            Formula::Exists {
                var: "d".to_string(),
                range: Range::Domain(Schema::new(&[("sal", Type::Int)]).unwrap()),
                body: Box::new(Formula::cmp(
                    Term::attr("d", "sal"),
                    CmpOp::Gt,
                    Term::attr("e", "sal"),
                )),
            },
        );
        let logged = db.slow_log().entries().len();
        let answer = db
            .run(
                crate::Query::Calculus(&over_domain),
                &db.govern(),
                db.exec_mode(),
            )
            .unwrap();
        let direct = eval_query(&over_domain, db.catalog()).unwrap();
        let rows: Vec<Tuple> = answer.rows.rows.iter().map(|r| (**r).clone()).collect();
        assert_eq!(rows, direct.tuples());
        let plan = answer.stats.render();
        assert!(plan.contains("SeqScan [emp]"), "{plan}");
        assert_eq!(db.slow_log().entries().len(), logged + 1);
    }

    #[test]
    fn calculus_reads_virtual_tables_as_sql_does() {
        use bq_relational::calculus::ast::{Formula, HeadItem, Query, Range, Term};
        use bq_relational::value::CmpOp;
        let db = emp_db();
        let metric = "bq_core_txn_begins_total";
        let named = |var: &str, attr: &str| {
            Formula::cmp(
                Term::attr(var, attr),
                CmpOp::Eq,
                Term::Const(Value::str(metric)),
            )
        };

        // A join across the virtual boundary.
        let sql = db
            .sql(&format!(
                "select e.name, m.kind from emp e, bq.metrics m where m.name = '{metric}'"
            ))
            .unwrap();
        assert_eq!(sql.len(), 3);
        let join = Query::new(
            &[("e", "emp"), ("m", "bq.metrics")],
            &[("e", "name", "name"), ("m", "kind", "kind")],
            named("m", "name"),
        );
        assert_eq!(db.calculus(&join).unwrap().tuples(), sql.tuples());

        // A variable over the active domain: the domain is that of the
        // relations the query reads, `bq.metrics` included.
        let sql = db
            .sql(&format!(
                "select m.name from bq.metrics m where m.name = '{metric}'"
            ))
            .unwrap();
        assert_eq!(sql.len(), 1);
        let over_domain = Query {
            free: vec![(
                "d".to_string(),
                Range::Domain(Schema::new(&[("name", Type::Str)]).unwrap()),
            )],
            head: vec![HeadItem {
                var: "d".to_string(),
                attr: "name".to_string(),
                name: "name".to_string(),
            }],
            formula: Formula::exists(
                "m",
                "bq.metrics",
                named("m", "name").and(Formula::cmp(
                    Term::attr("m", "name"),
                    CmpOp::Eq,
                    Term::attr("d", "name"),
                )),
            ),
        };
        assert_eq!(db.calculus(&over_domain).unwrap().tuples(), sql.tuples());
    }

    #[test]
    fn metrics_and_profile_surfaces_work() {
        let db = emp_db();
        db.sql("select e.name from emp e").unwrap();
        let text = db.metrics_text();
        // Liveness only (the registry is process-global and shared across
        // test threads): the names exist and the exec path counted.
        assert!(text.contains("bq_exec_operators_total"), "{text}");
        assert!(text.contains("bq_core_stmt_latency_us_sql"), "{text}");
        assert!(db.metrics_json().starts_with('{'));

        let profile_sql = |text| db.profile_sql(text, &db.govern(), db.exec_mode());
        let (rel, profile) = profile_sql("select e.name from emp e where e.sal > 75").unwrap();
        assert_eq!(rel.len(), 2);
        assert!(profile.plan.contains("SeqScan [emp]"), "{}", profile.plan);
        assert!(!profile.deltas.is_empty(), "query must move counters");
        assert!(
            profile.spans.iter().any(|s| s.name == "exec.plan"),
            "profile captures the executor span"
        );
        // Errors restore state and still surface.
        assert!(profile_sql("select nonsense").is_err());
    }

    #[test]
    fn session_memory_budget_stops_a_cross_product() {
        use bq_governor::GovernorError;
        let mut db = emp_db();
        db.set_limits(SessionLimits {
            memory_bytes: Some(512),
            ..SessionLimits::default()
        });
        let err = db
            .sql("select e.name, f.dept, g.sal from emp e, emp f, emp g")
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Governor(GovernorError::MemoryExceeded { .. })
            ),
            "{err:?}"
        );
        // Lifting the limit restores the seed behaviour on the same Db.
        db.set_limits(SessionLimits::default());
        assert_eq!(
            db.sql("select e.name, f.dept, g.sal from emp e, emp f, emp g")
                .unwrap()
                .len(),
            18
        );
    }

    #[test]
    fn zero_deadline_times_out_typed() {
        use bq_governor::GovernorError;
        let mut db = emp_db();
        db.set_limits(SessionLimits {
            deadline_ms: Some(0),
            ..SessionLimits::default()
        });
        let err = db.sql("select e.name from emp e").unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Governor(GovernorError::DeadlineExceeded { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn iteration_cap_stops_a_recursive_fixpoint() {
        use bq_governor::GovernorError;
        let mut db = Db::new();
        db.create_table("edge", &[("a", Type::Int), ("b", Type::Int)])
            .unwrap();
        for i in 0..32i64 {
            db.insert("edge", vec![Value::Int(i), Value::Int(i + 1)])
                .unwrap();
        }
        db.set_limits(SessionLimits {
            max_iterations: Some(3),
            ..SessionLimits::default()
        });
        let err = db
            .datalog(
                "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).",
                "path(0, X)",
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Governor(GovernorError::IterationLimit { limit: 3 })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_datalog_is_rejected_before_any_evaluation() {
        let db = emp_db();
        // Unsafe rule: head variable Y never bound in the body.
        let err = db.datalog("weird(X, Y) :- emp(X, D, S).", "weird(a, Y)");
        assert!(
            matches!(err, Err(CoreError::Datalog(bq_datalog::DlError::Unsafe(_)))),
            "{err:?}"
        );
    }

    #[test]
    fn cancel_handle_reaches_in_flight_statements() {
        let db = emp_db();
        let handle = db.cancel_handle();
        assert_eq!(handle.in_flight(), 0);
        // No statement in flight: nothing cancelled, and the next
        // statement is unaffected by a past cancel_all.
        assert_eq!(handle.cancel_all(), 0);
        assert_eq!(db.sql("select e.name from emp e").unwrap().len(), 3);
    }

    #[test]
    fn admission_sheds_when_slots_and_queue_are_full() {
        use bq_governor::GovernorError;
        let mut db = emp_db();
        db.set_admission(1, 0);
        // Hold the only slot by admitting a context manually.
        let ctx = db.govern();
        let permit = db.admission.admit(&ctx).unwrap();
        let err = db.sql("select e.name from emp e").unwrap_err();
        assert!(
            matches!(err, CoreError::Governor(GovernorError::Overloaded { .. })),
            "{err:?}"
        );
        drop(permit);
        assert!(db.sql("select e.name from emp e").is_ok());
        let stats = db.admission_stats();
        assert!(stats.shed >= 1 && stats.admitted >= 2, "{stats:?}");
    }

    /// Ship every durable WAL byte past `from` into `dst`, returning the
    /// new offset — the in-process equivalent of one replication stream.
    fn ship(src: &Db, dst: &mut Db, from: u64) -> u64 {
        let chunk = src.wal_durable_bytes(from, usize::MAX);
        let (records, consumed) = bq_storage::wal::Wal::decode_stream(&chunk).unwrap();
        for rec in &records {
            dst.apply_record(rec).unwrap();
        }
        from + consumed as u64
    }

    #[test]
    fn every_move_of_the_durable_horizon_reaches_the_watch() {
        let mut primary = emp_db();
        let watch = primary.wal_watch();
        let check = |db: &Db, what: &str| {
            assert_eq!(watch.horizon(), db.wal_durable_len(), "after {what}");
        };
        check(&primary, "create table + autocommit inserts");
        let row = |n: &str| vec![Value::str(n), Value::str("cs"), Value::Int(1)];
        let h = primary.begin().unwrap();
        primary.insert_in(h, "emp", row("w1")).unwrap();
        assert!(watch.horizon() < primary.wal.byte_len() as u64, "unsynced");
        primary.commit_tagged(h, "client-a", 1).unwrap();
        check(&primary, "tagged commit");
        let h = primary.begin().unwrap();
        primary.insert_in(h, "emp", row("w2")).unwrap();
        primary.abort(h).unwrap();
        check(&primary, "abort");
        let _open = primary.begin().unwrap();
        primary.snapshot_bytes().unwrap();
        check(&primary, "snapshot export");

        // A replica's engine publishes to its own watch as it applies,
        // and a re-bootstrap moves the horizon to the end of the image its
        // fresh WAL starts with.
        let mut replica = Db::new();
        let applied = replica.wal_watch();
        ship(&primary, &mut replica, 0);
        assert!(applied.horizon() > 0);
        assert_eq!(applied.horizon(), replica.wal_durable_len());
        replica
            .apply_snapshot(&primary.snapshot_bytes().unwrap())
            .unwrap();
        assert_eq!(applied.horizon(), replica.wal_durable_len());
        assert_eq!(replica.wal_durable_len() as usize, replica.wal.byte_len());
    }

    #[test]
    fn snapshot_roundtrip_preserves_contents_and_dedup() {
        let mut primary = emp_db();
        let h = primary.begin().unwrap();
        primary
            .insert_in(
                h,
                "emp",
                vec![Value::str("tag"), Value::str("cs"), Value::Int(1)],
            )
            .unwrap();
        primary.commit_tagged(h, "client-a", 7).unwrap();
        assert!(primary.seen_request("client-a", 7));
        primary.create_index("emp", "dept").unwrap();

        // An open transaction's pending row is not committed content.
        let open = primary.begin().unwrap();
        primary
            .insert_in(
                open,
                "emp",
                vec![Value::str("pending"), Value::str("ee"), Value::Int(2)],
            )
            .unwrap();

        let snap = primary.snapshot_bytes().unwrap();
        let mut replica = Db::new();
        let offset = replica.apply_snapshot(&snap).unwrap();
        assert_eq!(offset, primary.wal_durable_len());
        assert_eq!(replica.row_count("emp").unwrap(), 5, "pending row ships");
        assert!(replica.seen_request("client-a", 7));
        assert!(!replica.seen_request("client-a", 8));
        assert!(replica.has_index("emp", "dept"));
        assert_eq!(
            replica.content_fingerprint(),
            primary.content_fingerprint(),
            "fingerprints ignore the pending row on both sides"
        );

        // The shipped open transaction aborts on promotion.
        let aborted = replica.promote().unwrap();
        assert_eq!(aborted, vec![open.0]);
        assert_eq!(replica.row_count("emp").unwrap(), 4);

        // A corrupt snapshot leaves the engine untouched.
        let mut other = Db::new();
        assert!(other.apply_snapshot(&snap[..snap.len() / 2]).is_err());
        assert!(other.tables().is_empty());
    }

    #[test]
    fn a_snapshot_whose_records_do_not_apply_leaves_the_engine_untouched() {
        let mut primary = emp_db();
        let mut image = primary.snapshot_bytes().unwrap();
        // Corrupt the first value's kind byte of the last row: the image
        // stays well framed, and only applying the row finds the damage.
        let eve = codec::encode(&tup![Value::str("eve"), Value::str("ee"), Value::Int(80)]);
        let at = image.windows(eve.len()).rposition(|w| w == eve).unwrap();
        image[at + 4] = 0xEE;

        let mut replica = emp_db();
        replica.create_index("emp", "sal").unwrap();
        replica
            .insert(
                "emp",
                vec![Value::str("kim"), Value::str("ee"), Value::Int(60)],
            )
            .unwrap();
        let before = replica.content_fingerprint();
        let durable = replica.wal_durable_len();
        assert!(matches!(
            replica.apply_snapshot(&image),
            Err(CoreError::Codec(_))
        ));
        assert_eq!(replica.content_fingerprint(), before);
        assert_eq!(replica.wal_durable_len(), durable);
        assert_eq!(replica.wal_watch().horizon(), durable);
        assert!(replica.has_index("emp", "sal"));
        replica
            .insert(
                "emp",
                vec![Value::str("lee"), Value::str("cs"), Value::Int(50)],
            )
            .unwrap();
    }

    #[test]
    fn shipped_records_converge_with_the_primary() {
        let mut primary = Db::new();
        let mut replica = Db::new();
        let mut offset = replica
            .apply_snapshot(&primary.snapshot_bytes().unwrap())
            .unwrap();

        primary
            .create_table("t", &[("a", Type::Int), ("b", Type::Str)])
            .unwrap();
        for i in 0..10i64 {
            primary
                .insert("t", vec![Value::Int(i), Value::str(format!("r{i}"))])
                .unwrap();
        }
        // An aborted transaction ships too and leaves no trace.
        let h = primary.begin().unwrap();
        primary
            .insert_in(h, "t", vec![Value::Int(99), Value::str("gone")])
            .unwrap();
        primary.abort(h).unwrap();

        offset = ship(&primary, &mut replica, offset);
        assert_eq!(offset, primary.wal_durable_len());
        assert_eq!(replica.row_count("t").unwrap(), 10);
        assert_eq!(replica.content_fingerprint(), primary.content_fingerprint());
        // Re-applying the same bytes is the dup-segment case the stream
        // guards against; the replica position logic prevents it, so no
        // assertion here — but a tagged retry on the promoted replica
        // must dedup:
        let h = primary.begin().unwrap();
        primary
            .insert_in(h, "t", vec![Value::Int(100), Value::str("tagged")])
            .unwrap();
        primary.commit_tagged(h, "cli", 1).unwrap();
        offset = ship(&primary, &mut replica, offset);
        let _ = offset;
        replica.promote().unwrap();
        assert!(replica.seen_request("cli", 1), "dedup survives promotion");
        assert_eq!(replica.content_fingerprint(), primary.content_fingerprint());
    }

    #[test]
    fn dedup_table_is_bounded() {
        let mut db = Db::new();
        db.create_table("t", &[("a", Type::Int)]).unwrap();
        for i in 0..(super::MAX_DEDUP_REQUESTS as u64 + 10) {
            let h = db.begin().unwrap();
            db.insert_in(h, "t", vec![Value::Int(i as i64)]).unwrap();
            db.commit_tagged(h, "one-client", i).unwrap();
        }
        assert!(!db.seen_request("one-client", 0), "oldest ids evicted");
        assert!(db.seen_request("one-client", super::MAX_DEDUP_REQUESTS as u64));

        for c in 0..(super::MAX_DEDUP_CLIENTS + 5) {
            let h = db.begin().unwrap();
            db.insert_in(h, "t", vec![Value::Int(c as i64)]).unwrap();
            db.commit_tagged(h, &format!("client-{c}"), 1).unwrap();
        }
        assert!(
            !db.seen_request("one-client", super::MAX_DEDUP_REQUESTS as u64),
            "oldest client evicted"
        );
    }

    #[test]
    fn bad_txn_handle_rejected() {
        let mut db = emp_db();
        assert!(matches!(
            db.commit(TxnHandle(999)),
            Err(CoreError::BadTxn(999))
        ));
        let h = db.begin().unwrap();
        db.commit(h).unwrap();
        assert!(db.abort(h).is_err(), "handle is gone after commit");
    }
}

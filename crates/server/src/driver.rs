//! The driver trait: one interface over embedded and remote databases.
//!
//! `bqsh` (and any other frontend) talks to a [`Driver`]; whether the
//! statements run in-process against an embedded [`Db`] or travel the
//! wire to a `bq-server` is invisible above this line. The embedded
//! driver lives here; the remote one is [`crate::client::Connection`].

use crate::stmt::{parse_statement, SessionCore};
use crate::wire::{ErrorCode, QueryInfo};
use bq_core::{CoreError, Db, SessionLimits};
use bq_exec::ExecMode;
use bq_governor::QueryContext;
use bq_relational::Relation;
use std::fmt;
use std::sync::{Arc, RwLock};

/// What a successfully executed statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A result relation (selects).
    Rows(Relation),
    /// A confirmation message (DDL, DML, transaction verbs).
    Message(String),
}

/// A typed driver failure: the wire error taxonomy plus a message. The
/// embedded driver produces the same codes the server would send, so
/// frontends match one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverError {
    /// Taxonomy entry.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl DriverError {
    /// Build from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> DriverError {
        DriverError {
            code,
            message: message.into(),
        }
    }

    /// Map an engine error onto the wire taxonomy.
    pub fn from_core(e: CoreError) -> DriverError {
        DriverError {
            code: ErrorCode::from_core(&e),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for DriverError {}

/// One database session, embedded or remote.
pub trait Driver {
    /// Parse and run one statement line.
    fn execute(&mut self, line: &str) -> Result<Outcome, DriverError>;

    /// Prepare a select; returns the statement id.
    fn prepare(&mut self, sql: &str) -> Result<u64, DriverError>;

    /// Run a prepared statement.
    fn execute_prepared(&mut self, stmt: u64) -> Result<Outcome, DriverError>;

    /// Replace the session's resource limits.
    fn set_limits(&mut self, limits: SessionLimits) -> Result<(), DriverError>;

    /// The session's current resource limits.
    fn limits(&self) -> SessionLimits;

    /// Set the session's execution mode.
    fn set_mode(&mut self, mode: ExecMode) -> Result<(), DriverError>;

    /// The mode the session set, or `None` if it never set one (its
    /// statements then run in the engine's default mode).
    fn mode(&self) -> Option<ExecMode>;

    /// Cancel a running query by kill id; `Ok(false)` means no such
    /// query was running.
    fn kill(&mut self, query: u64) -> Result<bool, DriverError>;

    /// Queries currently running (server-side registry; empty when
    /// embedded — in-process statements finish on the caller's thread).
    fn running(&mut self) -> Result<Vec<QueryInfo>, DriverError>;

    /// Where the statements run: `"embedded"` or `"remote"`.
    fn backend(&self) -> &'static str;
}

/// The in-process driver: a [`SessionCore`] over an owned (shared)
/// engine. The engine sits behind an `RwLock` so the embedded path is
/// bit-for-bit the same code the server runs per connection.
pub struct EmbeddedDriver {
    db: Arc<RwLock<Db>>,
    core: SessionCore,
}

impl Default for EmbeddedDriver {
    fn default() -> Self {
        EmbeddedDriver::new(Db::new())
    }
}

impl EmbeddedDriver {
    /// Wrap an engine.
    pub fn new(db: Db) -> EmbeddedDriver {
        EmbeddedDriver::shared(Arc::new(RwLock::new(db)))
    }

    /// Drive an engine that is also being served (embedded session and
    /// TCP sessions over the same data).
    pub fn shared(db: Arc<RwLock<Db>>) -> EmbeddedDriver {
        EmbeddedDriver {
            db,
            core: SessionCore::new(),
        }
    }

    /// The shared engine handle (e.g. to pass to [`crate::serve`]).
    pub fn db(&self) -> Arc<RwLock<Db>> {
        Arc::clone(&self.db)
    }

    /// Run a closure against the engine's write half — the escape hatch
    /// for engine-wide frontend commands (`.tables`, `.stats`, `.limits
    /// slots=`) that have no wire equivalent.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Db) -> R) -> R {
        let mut db = self.db.write().unwrap_or_else(|e| e.into_inner());
        f(&mut db)
    }

    /// Run a statement that has no wire equivalent (`.profile`,
    /// `.datalog`) as this session: under its limits and in its mode.
    pub fn with_session<T>(
        &self,
        f: impl FnOnce(&Db, &QueryContext, ExecMode) -> bq_core::Result<T>,
    ) -> Result<T, DriverError> {
        let ctx = self.core.context();
        self.core.read(&self.db, |db, mode| f(db, &ctx, mode))
    }
}

impl Driver for EmbeddedDriver {
    fn execute(&mut self, line: &str) -> Result<Outcome, DriverError> {
        let stmt = parse_statement(line)?;
        let ctx = self.core.context();
        self.core.run(&self.db, &stmt, &ctx)
    }

    fn prepare(&mut self, sql: &str) -> Result<u64, DriverError> {
        self.core.prepare(&self.db, sql)
    }

    fn execute_prepared(&mut self, stmt: u64) -> Result<Outcome, DriverError> {
        let ctx = self.core.context();
        self.core.execute_prepared(&self.db, stmt, &ctx)
    }

    fn set_limits(&mut self, limits: SessionLimits) -> Result<(), DriverError> {
        self.core.limits = limits;
        Ok(())
    }

    fn limits(&self) -> SessionLimits {
        self.core.limits
    }

    fn set_mode(&mut self, mode: ExecMode) -> Result<(), DriverError> {
        self.core.mode = Some(mode);
        Ok(())
    }

    fn mode(&self) -> Option<ExecMode> {
        self.core.mode
    }

    fn kill(&mut self, _query: u64) -> Result<bool, DriverError> {
        // Embedded statements run on the caller's thread: by the time a
        // kill could be issued, the statement has already returned.
        Ok(false)
    }

    fn running(&mut self) -> Result<Vec<QueryInfo>, DriverError> {
        Ok(Vec::new())
    }

    fn backend(&self) -> &'static str {
        "embedded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_driver_round_trips_statements() {
        let mut d = EmbeddedDriver::default();
        d.execute("create table t (a int, b str)").unwrap();
        d.execute("insert into t values (1, 'x')").unwrap();
        match d.execute("select t.b from t where t.a = 1").unwrap() {
            Outcome::Rows(rel) => assert_eq!(rel.len(), 1),
            other => panic!("expected rows, got {other:?}"),
        }
        let id = d.prepare("select t.a from t").unwrap();
        assert!(matches!(d.execute_prepared(id).unwrap(), Outcome::Rows(_)));
        assert_eq!(d.backend(), "embedded");
        assert!(!d.kill(0).unwrap());
        assert!(d.running().unwrap().is_empty());
    }

    #[test]
    fn embedded_limits_and_mode_stay_in_the_session() {
        let mut d = EmbeddedDriver::default();
        d.execute("create table t (a int)").unwrap();
        let engine_mode = d.with_db(|db| db.exec_mode());
        d.set_mode(ExecMode::Sequential).unwrap();
        assert_eq!(d.mode(), Some(ExecMode::Sequential));
        assert_eq!(d.with_db(|db| db.exec_mode()), engine_mode);

        let limits = SessionLimits {
            memory_bytes: Some(16),
            deadline_ms: None,
            max_iterations: None,
        };
        d.set_limits(limits).unwrap();
        assert_eq!(d.limits(), limits);
        assert_eq!(d.with_db(|db| db.limits()), SessionLimits::default());
        for i in 0..64 {
            let _ = d.execute(&format!("insert into t values ({i})"));
        }
        let err = d.execute("select t.a from t").unwrap_err();
        assert_eq!(err.code, ErrorCode::MemoryExceeded, "{err}");
    }

    #[test]
    fn one_sessions_mode_does_not_leak_into_another() {
        let mut a = EmbeddedDriver::default();
        let mut b = EmbeddedDriver::shared(a.db());
        a.execute("create table t (a int)").unwrap();
        a.execute("insert into t values (1)").unwrap();
        let engine_mode = b.with_db(|db| db.exec_mode());
        assert_ne!(engine_mode, ExecMode::Sequential);
        a.set_mode(ExecMode::Sequential).unwrap();

        let mode_line =
            |d: &mut EmbeddedDriver| match d.execute("explain analyze select t.a from t") {
                Ok(Outcome::Message(m)) => m.lines().next().unwrap_or_default().to_string(),
                other => panic!("expected a plan, got {other:?}"),
            };
        assert_eq!(mode_line(&mut a), "mode: sequential");
        assert_eq!(mode_line(&mut b), format!("mode: {engine_mode}"));
        assert_eq!(b.mode(), None);
    }
}

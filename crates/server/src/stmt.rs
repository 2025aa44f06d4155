//! Statement classification and per-session execution state.
//!
//! [`parse_statement`] reads one line of input into a [`Statement`] with
//! the engine's one SQL-ish grammar ([`bq_relational::sqlish::statement`]);
//! a select is classified by its first word and parsed where it runs.
//! [`SessionCore`] is the per-session state machine both frontends share:
//! the server gives every TCP connection one, and the embedded driver
//! gives the shell one, so a statement behaves identically whichever path
//! it arrives by.

use crate::driver::{DriverError, Outcome};
use crate::wire::ErrorCode;
use bq_core::{Answer, Db, Query, SessionLimits, TxnHandle};
use bq_exec::ExecMode;
use bq_governor::QueryContext;
use bq_relational::algebra::Expr;
use bq_relational::sqlish;
pub use bq_relational::sqlish::Statement;
use bq_relational::Type;
use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Classify one line of input. Unknown statement shapes are
/// [`ErrorCode::Unsupported`]; malformed known shapes are
/// [`ErrorCode::Query`].
pub fn parse_statement(line: &str) -> Result<Statement, DriverError> {
    sqlish::statement(line)
        .map_err(|e| DriverError::new(ErrorCode::Query, e.to_string()))?
        .ok_or_else(|| {
            DriverError::new(
                ErrorCode::Unsupported,
                format!("unrecognized statement: `{}`", line.trim()),
            )
        })
}

/// A prepared select: the optimized plan plus the original text (shown by
/// the running-query registry while it executes).
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// Original statement text.
    pub sql: String,
    /// Parsed-and-optimized plan.
    pub expr: Expr,
}

/// What a statement produced, with a select's rows in whatever form the
/// caller's `consume` made of them ([`SessionCore::run_as`]).
#[derive(Debug)]
pub(crate) enum Produced<T> {
    /// What `consume` made of a select's answer.
    Rows(T),
    /// A confirmation message (DDL, DML, transaction verbs, EXPLAIN).
    Message(String),
}

/// Per-session execution state shared by the server and the embedded
/// driver: resource limits, execution mode, the prepared-statement table,
/// and the interactive-transaction handle.
#[derive(Debug, Default)]
pub struct SessionCore {
    /// Resource limits applied to every statement on this session.
    pub limits: SessionLimits,
    /// Session execution mode; `None` follows the engine-wide mode.
    pub mode: Option<ExecMode>,
    txn: Option<TxnHandle>,
    prepared: HashMap<u64, PreparedPlan>,
    next_stmt: u64,
}

fn read_db(db: &RwLock<Db>) -> RwLockReadGuard<'_, Db> {
    db.read().unwrap_or_else(|e| e.into_inner())
}

fn write_db(db: &RwLock<Db>) -> RwLockWriteGuard<'_, Db> {
    db.write().unwrap_or_else(|e| e.into_inner())
}

impl SessionCore {
    /// A fresh session: no limits, engine-default mode, no open
    /// transaction, empty statement table.
    pub fn new() -> SessionCore {
        SessionCore::default()
    }

    /// Build the [`QueryContext`] the next statement should run under.
    pub fn context(&self) -> QueryContext {
        self.limits.context()
    }

    /// Run `f` on the engine's read half in this session's mode: the one
    /// it set, or the engine's default when it never set one.
    pub(crate) fn read<T>(
        &self,
        db: &RwLock<Db>,
        f: impl FnOnce(&Db, ExecMode) -> bq_core::Result<T>,
    ) -> Result<T, DriverError> {
        let db = read_db(db);
        f(&db, self.mode.unwrap_or_else(|| db.exec_mode())).map_err(DriverError::from_core)
    }

    /// Is an interactive transaction open?
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Statement text of a prepared plan, if the id is live.
    pub fn prepared_sql(&self, stmt: u64) -> Option<&str> {
        self.prepared.get(&stmt).map(|p| p.sql.as_str())
    }

    /// Run one parsed statement under `ctx`; a select's rows come back
    /// as an owned relation ([`Answer::into_relation`]).
    pub fn run(
        &mut self,
        db: &RwLock<Db>,
        stmt: &Statement,
        ctx: &QueryContext,
    ) -> Result<Outcome, DriverError> {
        Ok(
            match self.run_as(db, stmt, ctx, |answer| answer.into_relation(ctx))? {
                Produced::Rows(rel) => Outcome::Rows(rel),
                Produced::Message(m) => Outcome::Message(m),
            },
        )
    }

    /// Run one parsed statement under `ctx`. Selects execute through the
    /// shared read lock (concurrent sessions read in parallel), and
    /// `consume` turns the answer, whose rows still borrow the tables,
    /// into the caller's form before the lock is released; mutations take
    /// the write lock for the duration of the statement.
    pub(crate) fn run_as<T>(
        &mut self,
        db: &RwLock<Db>,
        stmt: &Statement,
        ctx: &QueryContext,
        consume: impl FnOnce(Answer<'_>) -> bq_core::Result<T>,
    ) -> Result<Produced<T>, DriverError> {
        match stmt {
            Statement::Select(sql) => self
                .read(db, |db, mode| {
                    consume(db.run(Query::Sql(sql), ctx, mode)?)
                })
                .map(Produced::Rows),
            Statement::ExplainAnalyze(sql) => self
                .read(db, |db, mode| db.explain_analyze(sql, ctx, mode))
                .map(Produced::Message),
            Statement::CreateTable { name, cols } => {
                let refs: Vec<(&str, Type)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                write_db(db)
                    .create_table(name, &refs)
                    .map_err(DriverError::from_core)?;
                Ok(Produced::Message(format!("created table {name}")))
            }
            Statement::Insert { table, row } => {
                let mut db = write_db(db);
                match self.txn {
                    Some(h) => db.insert_in(h, table, row.clone()),
                    None => db.insert(table, row.clone()),
                }
                .map_err(DriverError::from_core)?;
                Ok(Produced::Message("1 row".to_string()))
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(DriverError::new(
                        ErrorCode::TxnState,
                        "a transaction is already open on this session",
                    ));
                }
                self.txn = Some(write_db(db).begin().map_err(DriverError::from_core)?);
                Ok(Produced::Message("begin".to_string()))
            }
            Statement::Commit => {
                let h = self.txn.take().ok_or_else(|| {
                    DriverError::new(ErrorCode::TxnState, "no open transaction to commit")
                })?;
                write_db(db).commit(h).map_err(DriverError::from_core)?;
                Ok(Produced::Message("commit".to_string()))
            }
            Statement::Rollback => {
                let h = self.txn.take().ok_or_else(|| {
                    DriverError::new(ErrorCode::TxnState, "no open transaction to roll back")
                })?;
                write_db(db).abort(h).map_err(DriverError::from_core)?;
                Ok(Produced::Message("rollback".to_string()))
            }
        }
    }

    /// Parse and optimize a select into the session's statement table.
    /// Only selects are preparable: the point of preparing is skipping
    /// parse+optimize on re-execution, which mutations don't have.
    pub fn prepare(&mut self, db: &RwLock<Db>, sql: &str) -> Result<u64, DriverError> {
        let Ok(Statement::Select(sql)) = parse_statement(sql) else {
            return Err(DriverError::new(
                ErrorCode::Unsupported,
                "only selects can be prepared",
            ));
        };
        let expr = read_db(db)
            .prepare_sql(&sql)
            .map_err(DriverError::from_core)?;
        let id = self.next_stmt;
        self.next_stmt += 1;
        self.prepared.insert(id, PreparedPlan { sql, expr });
        Ok(id)
    }

    /// Run a prepared plan under `ctx`; its rows come back as an owned
    /// relation.
    pub fn execute_prepared(
        &self,
        db: &RwLock<Db>,
        stmt: u64,
        ctx: &QueryContext,
    ) -> Result<Outcome, DriverError> {
        self.execute_as(db, stmt, ctx, |answer| answer.into_relation(ctx))
            .map(Outcome::Rows)
    }

    /// Run a prepared plan under `ctx` and hand its answer to `consume`
    /// under the read lock, as [`SessionCore::run_as`] does for a select.
    pub(crate) fn execute_as<T>(
        &self,
        db: &RwLock<Db>,
        stmt: u64,
        ctx: &QueryContext,
        consume: impl FnOnce(Answer<'_>) -> bq_core::Result<T>,
    ) -> Result<T, DriverError> {
        let plan = self.prepared.get(&stmt).ok_or_else(|| {
            DriverError::new(
                ErrorCode::NoSuchStatement,
                format!("no prepared statement {stmt}"),
            )
        })?;
        let query = Query::Prepared {
            text: &plan.sql,
            plan: &plan.expr,
        };
        self.read(db, |db, mode| consume(db.run(query, ctx, mode)?))
    }

    /// End the session: any open transaction is rolled back so a dropped
    /// connection can never leave table locks held.
    pub fn close(&mut self, db: &RwLock<Db>) {
        if let Some(h) = self.txn.take() {
            let _ = write_db(db).abort(h);
        }
        self.prepared.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::Value;

    #[test]
    fn parse_classifies_statement_shapes() {
        assert!(matches!(
            parse_statement("select e.name from emp e"),
            Ok(Statement::Select(_))
        ));
        assert_eq!(
            parse_statement("create table t (a int, b str)").unwrap(),
            Statement::CreateTable {
                name: "t".into(),
                cols: vec![("a".into(), Type::Int), ("b".into(), Type::Str)],
            }
        );
        assert_eq!(
            parse_statement("insert into t values (1, 'x, y', true, null)").unwrap(),
            Statement::Insert {
                table: "t".into(),
                row: vec![
                    Value::Int(1),
                    Value::str("x, y"),
                    Value::Bool(true),
                    Value::Null(0)
                ],
            }
        );
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("commit").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("rollback").unwrap(), Statement::Rollback);
        assert_eq!(
            parse_statement("gibberish").unwrap_err().code,
            ErrorCode::Unsupported
        );
        for bad in [
            "create table t a int",
            "create table t (a int) junk",
            "create tablet (a int)",
            "insert into t junk (1)",
            "insert into t (1)",
            "insert into t values (1) junk",
            "insert into t values (wat)",
            "insert into t values ('abc)",
            "insert into t values ('a'b')",
            "insert into t values (1, ')",
        ] {
            assert_eq!(
                parse_statement(bad).unwrap_err().code,
                ErrorCode::Query,
                "{bad}"
            );
        }
        assert_eq!(
            parse_statement("insert into t values ('')").unwrap(),
            Statement::Insert {
                table: "t".into(),
                row: vec![Value::str("")],
            }
        );
        // No space is needed before the list, and keywords take any case.
        assert_eq!(
            parse_statement("INSERT INTO t VALUES(1)").unwrap(),
            Statement::Insert {
                table: "t".into(),
                row: vec![Value::Int(1)],
            }
        );
        assert_eq!(
            parse_statement("create table t(a int)").unwrap(),
            Statement::CreateTable {
                name: "t".into(),
                cols: vec![("a".into(), Type::Int)],
            }
        );
    }

    #[test]
    fn explain_analyze_parses_and_runs() {
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE select t.a from t"),
            Ok(Statement::ExplainAnalyze(_))
        ));
        assert!(!parse_statement("explain analyze select t.a from t")
            .unwrap()
            .is_mutation());
        assert_eq!(
            parse_statement("explain analyze insert into t values (1)")
                .unwrap_err()
                .code,
            ErrorCode::Query
        );

        let db = RwLock::new(Db::new());
        let mut s = SessionCore::new();
        let ctx = s.context();
        s.run(
            &db,
            &parse_statement("create table t (a int)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.run(
            &db,
            &parse_statement("insert into t values (1)").unwrap(),
            &ctx,
        )
        .unwrap();
        let ctx = s.context();
        match s
            .run(
                &db,
                &parse_statement("explain analyze select t.a from t").unwrap(),
                &ctx,
            )
            .unwrap()
        {
            Outcome::Message(m) => {
                assert!(m.contains("SeqScan [t]"), "{m}");
                assert!(m.contains("query: "), "{m}");
                assert!(m.contains("mem="), "{m}");
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn session_runs_statements_and_transactions() {
        let db = RwLock::new(Db::new());
        let mut s = SessionCore::new();
        let ctx = s.context();
        s.run(
            &db,
            &parse_statement("create table t (a int)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.run(
            &db,
            &parse_statement("insert into t values (1)").unwrap(),
            &ctx,
        )
        .unwrap();

        // Interactive transaction: rollback undoes, commit keeps.
        s.run(&db, &Statement::Begin, &ctx).unwrap();
        assert!(s.in_txn());
        s.run(
            &db,
            &parse_statement("insert into t values (2)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.run(&db, &Statement::Rollback, &ctx).unwrap();
        assert_eq!(read_db(&db).row_count("t").unwrap(), 1);

        s.run(&db, &Statement::Begin, &ctx).unwrap();
        s.run(
            &db,
            &parse_statement("insert into t values (3)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.run(&db, &Statement::Commit, &ctx).unwrap();
        assert_eq!(read_db(&db).row_count("t").unwrap(), 2);

        // State misuse is typed.
        assert_eq!(
            s.run(&db, &Statement::Commit, &ctx).unwrap_err().code,
            ErrorCode::TxnState
        );
        s.run(&db, &Statement::Begin, &ctx).unwrap();
        assert_eq!(
            s.run(&db, &Statement::Begin, &ctx).unwrap_err().code,
            ErrorCode::TxnState
        );

        // Close rolls the open transaction back.
        s.run(
            &db,
            &parse_statement("insert into t values (4)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.close(&db);
        assert!(!s.in_txn());
        assert_eq!(read_db(&db).row_count("t").unwrap(), 2);
    }

    #[test]
    fn prepared_statements_skip_reparsing() {
        let db = RwLock::new(Db::new());
        let mut s = SessionCore::new();
        let ctx = s.context();
        s.run(
            &db,
            &parse_statement("create table t (a int)").unwrap(),
            &ctx,
        )
        .unwrap();
        s.run(
            &db,
            &parse_statement("insert into t values (7)").unwrap(),
            &ctx,
        )
        .unwrap();

        let id = s.prepare(&db, "select t.a from t where t.a > 0").unwrap();
        assert_eq!(
            s.prepared_sql(id).unwrap(),
            "select t.a from t where t.a > 0"
        );
        match s.execute_prepared(&db, id, &s.context()).unwrap() {
            Outcome::Rows(rel) => assert_eq!(rel.len(), 1),
            other => panic!("expected rows, got {other:?}"),
        }

        assert_eq!(
            s.execute_prepared(&db, 999, &s.context()).unwrap_err().code,
            ErrorCode::NoSuchStatement
        );
        assert_eq!(
            s.prepare(&db, "insert into t values (1)").unwrap_err().code,
            ErrorCode::Unsupported
        );
        assert_eq!(
            s.prepare(&db, "select nope").unwrap_err().code,
            ErrorCode::Query
        );
    }
}

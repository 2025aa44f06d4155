//! Statement parsing and per-session execution state.
//!
//! [`parse_statement`] classifies one line of input into a [`Statement`]:
//! selects go to the SQL-ish parser inside the engine, while `create
//! table`, `insert into`, and the transaction verbs are parsed here.
//! [`SessionCore`] is the per-session state machine both frontends share:
//! the server gives every TCP connection one, and the embedded driver
//! gives the shell one, so a statement behaves identically whichever path
//! it arrives by.

use crate::driver::{DriverError, Outcome};
use crate::wire::ErrorCode;
use bq_core::{Db, Query, SessionLimits, TxnHandle};
use bq_exec::ExecMode;
use bq_governor::QueryContext;
use bq_relational::algebra::Expr;
use bq_relational::{Type, Value};
use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One parsed client statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A select, kept as text: the engine parses and optimizes it under
    /// governance so a parse error is a typed query error, not a protocol
    /// one.
    Select(String),
    /// `explain analyze <select>` — run the inner select governed and
    /// return the physical plan annotated with per-operator runtime
    /// stats (rows, batches, wall time, memory) as a message.
    ExplainAnalyze(String),
    /// `create table name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names and types, in order.
        cols: Vec<(String, Type)>,
    },
    /// `insert into name values (v, ...)`.
    Insert {
        /// Target table.
        table: String,
        /// The row.
        row: Vec<Value>,
    },
    /// `begin` — open an interactive transaction on this session.
    Begin,
    /// `commit` the session's open transaction.
    Commit,
    /// `rollback` the session's open transaction.
    Rollback,
}

impl Statement {
    /// Does this statement mutate the database (needs the write lock)?
    pub fn is_mutation(&self) -> bool {
        !matches!(self, Statement::Select(_) | Statement::ExplainAnalyze(_))
    }
}

/// Classify one line of input. Unknown statement shapes are
/// [`ErrorCode::Unsupported`]; malformed known shapes are
/// [`ErrorCode::Query`].
pub fn parse_statement(line: &str) -> Result<Statement, DriverError> {
    let trimmed = line.trim();
    let lower = trimmed.to_lowercase();
    if lower.starts_with("select") {
        return Ok(Statement::Select(trimmed.to_string()));
    }
    if let Some(rest) = lower.strip_prefix("explain analyze") {
        if !rest.trim_start().starts_with("select") {
            return Err(query_err("explain analyze takes a select"));
        }
        // Slice the original (case-preserved) text past the prefix.
        let inner = trimmed["explain analyze".len()..].trim().to_string();
        return Ok(Statement::ExplainAnalyze(inner));
    }
    if lower.starts_with("create table") {
        return parse_create(trimmed);
    }
    if lower.starts_with("insert into") {
        return parse_insert(trimmed);
    }
    match lower.as_str() {
        "begin" => Ok(Statement::Begin),
        "commit" => Ok(Statement::Commit),
        "rollback" | "abort" => Ok(Statement::Rollback),
        _ => Err(DriverError::new(
            ErrorCode::Unsupported,
            format!("unrecognized statement: `{trimmed}`"),
        )),
    }
}

fn query_err(msg: impl Into<String>) -> DriverError {
    DriverError::new(ErrorCode::Query, msg.into())
}

/// `create table name (col type, ...)`
fn parse_create(line: &str) -> Result<Statement, DriverError> {
    let open = line
        .find('(')
        .ok_or_else(|| query_err("expected column list"))?;
    let close = line
        .rfind(')')
        .ok_or_else(|| query_err("unterminated column list"))?;
    let name = line[..open]
        .split_whitespace()
        .nth(2)
        .ok_or_else(|| query_err("expected table name"))?;
    let mut cols: Vec<(String, Type)> = Vec::new();
    for part in line[open + 1..close].split(',') {
        let mut it = part.split_whitespace();
        let col = it.next().ok_or_else(|| query_err("expected column name"))?;
        let ty = match it
            .next()
            .ok_or_else(|| query_err("expected column type"))?
            .to_lowercase()
            .as_str()
        {
            "int" | "integer" => Type::Int,
            "str" | "string" | "text" | "varchar" => Type::Str,
            "bool" | "boolean" => Type::Bool,
            other => return Err(query_err(format!("unknown type `{other}`"))),
        };
        cols.push((col.to_string(), ty));
    }
    Ok(Statement::CreateTable {
        name: name.to_string(),
        cols,
    })
}

/// `insert into name values (v, ...)`
fn parse_insert(line: &str) -> Result<Statement, DriverError> {
    let open = line
        .find('(')
        .ok_or_else(|| query_err("expected value list"))?;
    let close = line
        .rfind(')')
        .ok_or_else(|| query_err("unterminated value list"))?;
    let table = line[..open]
        .split_whitespace()
        .nth(2)
        .ok_or_else(|| query_err("expected table name"))?;
    let mut row: Vec<Value> = Vec::new();
    for part in split_top_level(&line[open + 1..close]) {
        let part = part.trim();
        let v = if let Some(stripped) = part.strip_prefix('\'') {
            Value::Str(stripped.trim_end_matches('\'').to_string())
        } else if part.eq_ignore_ascii_case("true") {
            Value::Bool(true)
        } else if part.eq_ignore_ascii_case("false") {
            Value::Bool(false)
        } else if part.eq_ignore_ascii_case("null") {
            Value::Null(0)
        } else {
            Value::Int(
                part.parse::<i64>()
                    .map_err(|_| query_err(format!("bad value `{part}`")))?,
            )
        };
        row.push(v);
    }
    Ok(Statement::Insert {
        table: table.to_string(),
        row,
    })
}

/// Split on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
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

    /// Run one parsed statement under `ctx`. Selects execute through the
    /// shared read lock (concurrent sessions read in parallel); mutations
    /// take the write lock for the duration of the statement.
    pub fn run(
        &mut self,
        db: &RwLock<Db>,
        stmt: &Statement,
        ctx: &QueryContext,
    ) -> Result<Outcome, DriverError> {
        match stmt {
            Statement::Select(sql) => self
                .read(db, |db, mode| db.run(Query::Sql(sql), ctx, mode))
                .map(|answer| Outcome::Rows(answer.rel)),
            Statement::ExplainAnalyze(sql) => self
                .read(db, |db, mode| db.explain_analyze(sql, ctx, mode))
                .map(Outcome::Message),
            Statement::CreateTable { name, cols } => {
                let refs: Vec<(&str, Type)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                write_db(db)
                    .create_table(name, &refs)
                    .map_err(DriverError::from_core)?;
                Ok(Outcome::Message(format!("created table {name}")))
            }
            Statement::Insert { table, row } => {
                let mut db = write_db(db);
                match self.txn {
                    Some(h) => db.insert_in(h, table, row.clone()),
                    None => db.insert(table, row.clone()),
                }
                .map_err(DriverError::from_core)?;
                Ok(Outcome::Message("1 row".to_string()))
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(DriverError::new(
                        ErrorCode::TxnState,
                        "a transaction is already open on this session",
                    ));
                }
                self.txn = Some(write_db(db).begin().map_err(DriverError::from_core)?);
                Ok(Outcome::Message("begin".to_string()))
            }
            Statement::Commit => {
                let h = self.txn.take().ok_or_else(|| {
                    DriverError::new(ErrorCode::TxnState, "no open transaction to commit")
                })?;
                write_db(db).commit(h).map_err(DriverError::from_core)?;
                Ok(Outcome::Message("commit".to_string()))
            }
            Statement::Rollback => {
                let h = self.txn.take().ok_or_else(|| {
                    DriverError::new(ErrorCode::TxnState, "no open transaction to roll back")
                })?;
                write_db(db).abort(h).map_err(DriverError::from_core)?;
                Ok(Outcome::Message("rollback".to_string()))
            }
        }
    }

    /// Parse and optimize a select into the session's statement table.
    /// Only selects are preparable: the point of preparing is skipping
    /// parse+optimize on re-execution, which mutations don't have.
    pub fn prepare(&mut self, db: &RwLock<Db>, sql: &str) -> Result<u64, DriverError> {
        if !sql.trim_start().to_lowercase().starts_with("select") {
            return Err(DriverError::new(
                ErrorCode::Unsupported,
                "only selects can be prepared",
            ));
        }
        let expr = read_db(db)
            .prepare_sql(sql)
            .map_err(DriverError::from_core)?;
        let id = self.next_stmt;
        self.next_stmt += 1;
        self.prepared.insert(
            id,
            PreparedPlan {
                sql: sql.trim().to_string(),
                expr,
            },
        );
        Ok(id)
    }

    /// Run a prepared plan under `ctx`.
    pub fn execute_prepared(
        &self,
        db: &RwLock<Db>,
        stmt: u64,
        ctx: &QueryContext,
    ) -> Result<Outcome, DriverError> {
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
        self.read(db, |db, mode| db.run(query, ctx, mode))
            .map(|answer| Outcome::Rows(answer.rel))
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
        assert_eq!(
            parse_statement("create table t a int").unwrap_err().code,
            ErrorCode::Query
        );
        assert_eq!(
            parse_statement("insert into t values (wat)")
                .unwrap_err()
                .code,
            ErrorCode::Query
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

//! The write side shared by `write-heavy`, `mixed-rw` and `repl-semisync`:
//! run one [`WriteOp`] over a connection, remember what was acknowledged,
//! and check the table against that record afterwards.

use crate::gen::{self, Row, WriteOp};
use crate::harness::Tally;
use crate::stats::Samples;
use bq_core::Db;
use bq_relational::Value;
use bq_server::{Connection, Driver, DriverError, Outcome};

/// Rows the server acknowledged as committed, and rows it acknowledged as
/// rolled back.
#[derive(Debug, Default)]
pub struct WriteLog {
    pub committed: Vec<Row>,
    pub rolled_back: Vec<Row>,
}

fn acked(reply: Result<Outcome, DriverError>, sql: &str) -> Result<(), String> {
    match reply {
        Ok(Outcome::Message(_)) => Ok(()),
        other => Err(format!("`{sql}`: {other:?}")),
    }
}

/// Run one write op, record its latency (a transaction is one sample) and
/// log its rows once the server has acknowledged their fate.
pub fn run_write(
    conn: &mut Connection,
    table: &str,
    op: &WriteOp,
    latency: &mut Samples,
    log: &mut WriteLog,
) -> Result<(), String> {
    let statements: Vec<String> = op
        .rows()
        .iter()
        .map(|r| gen::insert_sql(table, r))
        .collect();
    latency.time(|| match op {
        WriteOp::Auto(_) => acked(conn.execute(&statements[0]), &statements[0]),
        WriteOp::Tagged(_, request) => acked(
            conn.execute_tagged(&statements[0], *request),
            &statements[0],
        ),
        WriteOp::Txn { commit, .. } => {
            acked(conn.execute("begin"), "begin")?;
            for sql in &statements {
                acked(conn.execute(sql), sql)?;
            }
            let end = if *commit { "commit" } else { "rollback" };
            acked(conn.execute(end), end)
        }
    })?;
    let fate = if op.commits() {
        &mut log.committed
    } else {
        &mut log.rolled_back
    };
    fate.extend_from_slice(op.rows());
    Ok(())
}

/// End-state oracle: the table holds exactly preload + committed rows,
/// every acknowledged row is there, and no rolled-back row is. `key` is
/// the column (position, name) that identifies a row.
pub fn verify_writes(
    db: &Db,
    table: &str,
    key: (usize, &str),
    preload: u64,
    log: &WriteLog,
    tally: &mut Tally,
    when: &str,
) {
    let expected = preload as usize + log.committed.len();
    let found = db.row_count(table).unwrap_or(0);
    if found != expected {
        tally.fail(
            1,
            format!("{when}: {table} has {found} rows, expected {expected}"),
        );
    }
    let present = |row: &Row| {
        db.lookup(table, key.1, &Value::Int(row[key.0]))
            .is_ok_and(|hits| hits.iter().any(|t| t.values() == gen::values(row)))
    };
    let missing = log.committed.iter().filter(|r| !present(r)).count();
    if missing > 0 {
        tally.fail(
            missing as u64,
            format!("{when}: {missing} acknowledged rows are missing from {table}"),
        );
    }
    let resurrected = log.rolled_back.iter().filter(|r| present(r)).count();
    if resurrected > 0 {
        tally.fail(
            resurrected as u64,
            format!("{when}: {resurrected} rolled-back rows are in {table}"),
        );
    }
}

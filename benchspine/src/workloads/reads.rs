//! The read side shared by `point-read`, `analytic-join` and `mixed-rw`:
//! the `fact`/`dim` tables, the model the results are checked against,
//! and a remote session that runs one [`ReadOp`].

use crate::gen::{self, ReadOp, Row};
use crate::harness::{build_db, Params, Remote, TableSpec, DIM_COLS, FACT_COLS};
use crate::stats::Samples;
use bq_core::Db;
use bq_exec::ExecMode;
use bq_relational::{Relation, Value};
use bq_server::{Connection, Driver, Outcome};
use std::collections::HashMap;

pub struct StarTables {
    pub fact: Vec<Row>,
    pub dim: Vec<Row>,
}

impl StarTables {
    pub fn generate(p: &Params) -> StarTables {
        StarTables {
            fact: gen::fact_rows(p.seed, p.scale.fact_rows, p.scale.dim_rows),
            dim: gen::dim_rows(p.scale.dim_rows),
        }
    }

    pub fn specs(&self) -> [TableSpec<'_>; 2] {
        [
            TableSpec {
                name: "fact",
                cols: FACT_COLS,
                rows: &self.fact,
                index: None,
            },
            TableSpec {
                name: "dim",
                cols: DIM_COLS,
                rows: &self.dim,
                index: None,
            },
        ]
    }

    /// Preload a fresh engine; returns it with its heap bytes per row.
    pub fn build(&self) -> (Db, f64) {
        build_db(&self.specs())
    }
}

/// What the reads must return, computed from the generated rows alone.
pub struct ReadModel {
    by_id: HashMap<i64, Row>,
    /// `v_above[t]` = rows with `v > t`.
    v_above: Vec<usize>,
}

impl ReadModel {
    pub fn new(fact: &[Row]) -> ReadModel {
        let mut v_above = vec![0usize; 1001];
        for row in fact {
            for slot in &mut v_above[..row[2] as usize] {
                *slot += 1;
            }
        }
        ReadModel {
            by_id: fact.iter().map(|r| (r[0], r.clone())).collect(),
            v_above,
        }
    }

    /// Rows a `v > threshold` selection (or the star join over it, which
    /// matches every fact row to exactly one `dim` row) must return.
    pub fn rows_above(&self, threshold: i64) -> usize {
        self.v_above[threshold as usize]
    }
}

/// A remote session with the prepared pool of the `point-read` mix.
pub struct ReadSession {
    pub conn: Connection,
    /// (statement id, fact id) per prepared point select.
    prepared: Vec<(u64, i64)>,
}

impl ReadSession {
    pub fn open(remote: &Remote, p: &Params, client: &str) -> ReadSession {
        let mut conn = remote.connect(client);
        conn.set_mode(ExecMode::Sequential).expect("set_mode");
        let prepared = gen::prepared_pool(p.seed, p.scale.fact_rows, p.scale.prepared_pool)
            .into_iter()
            .map(|id| {
                let stmt = conn.prepare(&gen::point_sql(id)).expect("prepare");
                (stmt, id)
            })
            .collect();
        ReadSession { conn, prepared }
    }

    /// Statement text of `op` (for a prepared op, the text it was
    /// prepared from).
    pub fn sql(&self, op: &ReadOp) -> String {
        match *op {
            ReadOp::Point(id) => gen::point_sql(id),
            ReadOp::Prepared(i) => gen::point_sql(self.prepared[i].1),
            ReadOp::Range(t) => gen::range_sql(t),
            ReadOp::Star(t) => gen::star_sql(t),
        }
    }

    /// Run one read, record its latency, and check the reply against the
    /// model.
    pub fn run(
        &mut self,
        op: &ReadOp,
        model: &ReadModel,
        latency: &mut Samples,
    ) -> Result<(), String> {
        let sql = self.sql(op);
        let reply = match *op {
            ReadOp::Prepared(i) => {
                let stmt = self.prepared[i].0;
                latency.time(|| self.conn.execute_prepared(stmt))
            }
            _ => latency.time(|| self.conn.execute(&sql)),
        };
        let rel = match reply {
            Ok(Outcome::Rows(rel)) => rel,
            other => return Err(format!("`{sql}`: {other:?}")),
        };
        let ok = match *op {
            ReadOp::Point(id) => is_single_row(&rel, &model.by_id[&id]),
            ReadOp::Prepared(i) => is_single_row(&rel, &model.by_id[&self.prepared[i].1]),
            ReadOp::Range(t) => {
                rel.len() == model.rows_above(t) && int_column(&rel, 2).all(|v| v > t)
            }
            ReadOp::Star(t) => rel.len() == model.rows_above(t),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "`{sql}` returned {} rows that do not match the model",
                rel.len()
            ))
        }
    }
}

/// Does `rel` hold exactly one row with these integer values?
fn is_single_row(rel: &Relation, expect: &[i64]) -> bool {
    rel.len() == 1
        && rel
            .iter()
            .next()
            .is_some_and(|t| t.values() == gen::values(expect))
}

/// Integer column `col` of every row.
fn int_column(rel: &Relation, col: usize) -> impl Iterator<Item = i64> + '_ {
    rel.iter().map(move |t| match t.get(col) {
        Value::Int(i) => *i,
        _ => i64::MIN,
    })
}

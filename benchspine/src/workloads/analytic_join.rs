//! `analytic-join`: one remote connection under `ExecMode::Sequential`,
//! cycles of ten statements over `fact` x `dim`: 4 star joins with a
//! filter and a projection, 2 three-way self-joins through `dim`, 3 set
//! operations (`union` / `except` of two selections) and 1 whole-table
//! export.
//!
//! Operators dominate and per-statement wire/parse cost is negligible —
//! the mirror image of `point-read`; the export is the one place where
//! wire row encode/decode is a large share. Join ordering and batch work
//! show here and must not move `point-read`.

use super::reads::StarTables;
use crate::gen;
use crate::harness::{read, recoveries, report_end_state, timed_setups, Measured, Params, Remote};
use crate::layers::{self, Run, WireBytes};
use crate::stats::Samples;
use bq_exec::ExecMode;
use bq_relational::algebra::{eval, optimize};
use bq_relational::sqlish;
use bq_server::{Connection, Driver, Outcome};

pub fn run(p: &Params, run: &mut Run) {
    let (shapes, cycle) = gen::analytic_shapes(p.scale.dim_rows);
    let ((remote, mut conn, resident), setups) =
        timed_setups(p.scale.setup_reps, &mut run.pacer, || {
            let (db, resident) = StarTables::generate(p).build();
            let remote = Remote::start(db);
            let mut conn = remote.connect("bq-spine-analytic");
            conn.set_mode(ExecMode::Sequential).expect("set_mode");
            (remote, conn, resident)
        });

    // Oracle, once per shape, before timing: the remote result must equal
    // the recursive evaluator's on the same optimized expression. (The
    // unoptimized three-way product is ~10^10 tuples, out of any oracle's
    // reach; optimizer rewrites are covered by the repo's own tests.)
    let db = remote.db();
    let expected_rows: Vec<usize> = shapes
        .iter()
        .map(|shape| {
            let guard = read(&db);
            let oracle = sqlish::parse(&shape.sql)
                .and_then(|e| optimize(&e, guard.catalog()))
                .and_then(|e| eval(&e, guard.catalog()));
            drop(guard);
            let reply = conn.execute(&shape.sql);
            let agree = matches!((&oracle, &reply), (Ok(a), Ok(Outcome::Rows(b))) if a == b);
            run.tally.check(agree, || {
                format!("shape `{}` disagrees with algebra::eval", shape.name)
            });
            oracle.map_or(0, |rel| rel.len())
        })
        .collect();

    let ops: Vec<usize> = (0..p.scale.analytic_cycles).flat_map(|_| cycle).collect();
    let run_op = |conn: &mut Connection, shape: &usize, lat: &mut Samples| {
        let sql = &shapes[*shape].sql;
        match lat.time(|| conn.execute(sql)) {
            Ok(Outcome::Rows(rel)) if rel.len() == expected_rows[*shape] => Ok(()),
            Ok(Outcome::Rows(rel)) => Err(format!(
                "`{sql}`: {} rows, oracle has {}",
                rel.len(),
                expected_rows[*shape]
            )),
            other => Err(format!("`{sql}`: {other:?}")),
        }
    };

    if !p.trace {
        let pacer = Some(&mut run.pacer);
        let measured = Measured::rounds(&ops, p.scale.rounds, &mut run.tally, pacer, |op, lat| {
            run_op(&mut conn, op, lat)
        });
        measured.report(&mut run.metrics);
        conn.close();
        let db = remote.stop();
        let recovery = recoveries(&db, p.scale.recover_reps, &mut run.tally, &mut run.pacer);
        report_end_state(&mut run.metrics, &setups, resident, &recovery, &db);
        return;
    }

    layers::connect_probe(run, &remote);
    let bytes = WireBytes::start();
    layers::trace_overhead(run, &ops, |op, lat| run_op(&mut conn, op, lat));
    bytes.finish(&mut run.metrics, ops.len() as u64);
    let sample: Vec<String> = ops
        .iter()
        .take(2 * cycle.len())
        .map(|&shape| shapes[shape].sql.clone())
        .collect();
    layers::select_stages(run, &db, &mut conn, &sample, ExecMode::Sequential);
    conn.close();
    remote.stop();
}

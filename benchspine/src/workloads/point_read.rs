//! `point-read`: one remote connection, selects on `fact` only.
//!
//! 60% `where f.id = ?` (1 row), 20% the same via `prepare` /
//! `execute_prepared`, 20% `where f.v > ?` (~1% of the rows). Parse,
//! optimize, a full scan per statement and per-statement wire/server cost
//! do all the work; storage and replication do none. Every point select
//! is a full scan today — `Db::lookup`'s B+-tree is never an access path —
//! so an index access path must show here and nowhere else.

use super::reads::{ReadModel, ReadSession, StarTables};
use crate::gen::{ReadOp, ReadStream};
use crate::harness::{recoveries, report_end_state, timed_setups, Measured, Params, Remote};
use crate::layers::{self, Run, WireBytes};
use crate::stats::Samples;
use bq_exec::ExecMode;
use bq_server::Driver;

pub fn run(p: &Params, run: &mut Run) {
    let tables = StarTables::generate(p);
    let model = ReadModel::new(&tables.fact);
    let ((remote, mut session, resident), setups) =
        timed_setups(p.scale.setup_reps, &mut run.pacer, || {
            let (db, resident) = StarTables::generate(p).build();
            let remote = Remote::start(db);
            let session = ReadSession::open(&remote, p, "bq-spine-read");
            (remote, session, resident)
        });
    let ops: Vec<ReadOp> = ReadStream::new(p.seed, p.scale.fact_rows, p.scale.prepared_pool, None)
        .take(p.scale.point_read_ops as usize)
        .collect();

    if !p.trace {
        let pacer = Some(&mut run.pacer);
        let measured = Measured::rounds(&ops, p.scale.rounds, &mut run.tally, pacer, |op, lat| {
            session.run(op, &model, lat)
        });
        measured.report(&mut run.metrics);
        session.conn.close();
        let db = remote.stop();
        let recovery = recoveries(&db, p.scale.recover_reps, &mut run.tally, &mut run.pacer);
        report_end_state(&mut run.metrics, &setups, resident, &recovery, &db);
        return;
    }

    layers::connect_probe(run, &remote);
    let bytes = WireBytes::start();
    layers::trace_overhead(run, &ops, |op, lat| session.run(op, &model, lat));
    bytes.finish(&mut run.metrics, ops.len() as u64);

    let db = remote.db();
    let sample: Vec<String> = ops.iter().take(400).map(|op| session.sql(op)).collect();
    layers::select_stages(run, &db, &mut session.conn, &sample, ExecMode::Sequential);
    prepared_saving(run, &mut session, &ops, &model);
    layers::pool_probe(run);
    layers::db_tracing_probe(run, &db, &sample[..sample.len().min(200)]);
    session.conn.close();
    remote.stop();
}

/// The same point select as text and as a prepared plan, alternating:
/// what skipping parse + optimize saves a remote client.
fn prepared_saving(run: &mut Run, session: &mut ReadSession, ops: &[ReadOp], model: &ReadModel) {
    let (mut text, mut prepared) = (Samples::new(), Samples::new());
    for op in ops
        .iter()
        .filter(|op| matches!(op, ReadOp::Prepared(_)))
        .take(300)
    {
        let sql = session.sql(op);
        let as_text = text.time(|| session.conn.execute(&sql));
        run.tally
            .check(as_text.is_ok(), || format!("`{sql}`: {as_text:?}"));
        let as_plan = session.run(op, model, &mut prepared);
        run.tally.check(as_plan.is_ok(), || format!("{as_plan:?}"));
    }
    run.metrics.set(
        "relational.prepared_saving_us",
        text.p50_us() - prepared.p50_us(),
        text.len() as u64,
    );
}

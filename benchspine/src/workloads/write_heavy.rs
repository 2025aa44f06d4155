//! `write-heavy`: one remote connection inserting into `orders` (preloaded,
//! indexed on `id`): 70% autocommit `insert`, 20% `execute_tagged` insert
//! (no replica attached), 8% `begin` + 5 inserts + `commit`, 2% `begin` +
//! 5 inserts + `rollback`; ends with `Db::simulate_crash_and_recover`.
//!
//! The core insert path and storage (heap first-fit, WAL append + sync per
//! commit, index bucket clone, catalog `BTreeSet`) do the work; exec does
//! none. It runs the same core/storage layers as `point-read` in the
//! opposite direction, so a read gain bought with write cost shows here.

use super::writes::{run_write, verify_writes, WriteLog};
use crate::gen::{self, WriteMix, WriteOp, WriteStream};
use crate::harness::{
    build_db, read, recoveries, report_end_state, timed_setups, Measured, Params, Remote,
    TableSpec, ORDERS_COLS,
};
use crate::layers::{self, Run, WireBytes};

const KEY: (usize, &str) = (0, "id");

pub fn run(p: &Params, run: &mut Run) {
    let preload = p.scale.orders_preload;
    let ((remote, mut conn, resident), setups) =
        timed_setups(p.scale.setup_reps, &mut run.pacer, || {
            let rows = gen::order_rows(p.seed, 0, preload);
            let orders = TableSpec {
                name: "orders",
                cols: ORDERS_COLS,
                rows: &rows,
                index: Some(KEY.1),
            };
            let (db, resident) = build_db(&[orders]);
            let remote = Remote::start(db);
            let conn = remote.connect("bq-spine-write");
            (remote, conn, resident)
        });
    let ops: Vec<WriteOp> = WriteStream::orders(p.seed, preload as i64, WriteMix::Heavy)
        .take(p.scale.write_heavy_ops as usize)
        .collect();
    let mut log = WriteLog::default();

    if !p.trace {
        let measured = Measured::rounds(&ops, p.scale.rounds, &mut run.tally, None, |op, lat| {
            run_write(&mut conn, "orders", op, lat, &mut log)
        });
        measured.report(&mut run.metrics);
        conn.close();
        let db = remote.stop();
        verify_writes(
            &read(&db),
            "orders",
            KEY,
            preload,
            &log,
            &mut run.tally,
            "before the crash",
        );
        let recovery = recoveries(&db, p.scale.recover_reps, &mut run.tally, &mut run.pacer);
        verify_writes(
            &read(&db),
            "orders",
            KEY,
            preload,
            &log,
            &mut run.tally,
            "after recovery",
        );
        report_end_state(&mut run.metrics, &setups, resident, &recovery, &db);
        return;
    }

    layers::connect_probe(run, &remote);
    let bytes = WireBytes::start();
    layers::trace_overhead(run, &ops, |op, lat| {
        run_write(&mut conn, "orders", op, lat, &mut log)
    });
    bytes.finish(&mut run.metrics, ops.len() as u64);

    let db = remote.db();
    let used: usize = ops.iter().map(|op| op.rows().len()).sum();
    let first_fresh = preload as i64 + used as i64;
    let fresh = WriteStream::orders(p.seed, first_fresh, WriteMix::AutoOnly);
    let staged = (ops.len() / 4).clamp(20, 300);
    layers::insert_stages(run, &db, &mut conn, "orders", fresh, staged);
    conn.close();
    remote.stop();

    let recovery = recoveries(&db, p.scale.recover_reps, &mut run.tally, &mut run.pacer);
    layers::recover_per_kb(run, &db, &recovery);
    let pages = read(&db).page_count();
    let shadow = gen::order_rows(p.seed, 0, preload.max(4000));
    layers::insert_growth(run, "orders", ORDERS_COLS, &shadow);
    let probe = gen::order_rows(p.seed, shadow.len() as i64, 1000);
    layers::storage_probes(run, &shadow, pages, &probe);
}

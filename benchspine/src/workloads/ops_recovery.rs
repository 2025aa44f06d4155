//! `ops-recovery`: the operator's path, embedded. `orders` is preloaded
//! (indexed on `id`); each round takes a full backup, inserts a batch,
//! takes an incremental backup, restores the latest backup into a fresh
//! engine (fingerprint checked against the source) and crash-recovers the
//! source (fingerprint checked), all on a `MemArchive`.
//!
//! Dominated by snapshot encode and the redo / `apply_record` path. The
//! ops whose latency is reported are the embedded inserts; throughput is
//! inserts per second of the whole cycle, so slower backups, restores or
//! recoveries lower it. Single-threaded, so the space metrics repeat
//! exactly.

use crate::gen::{self, WriteMix, WriteStream};
use crate::harness::{
    build_db, read, report_end_state, timed, timed_setups, write, Params, TableSpec, ORDERS_COLS,
};
use crate::layers::{self, Run};
use crate::stats::{median, Samples};
use bq_backup::{BackupEngine, MemArchive};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub fn run(p: &Params, run: &mut Run) {
    let preload = p.scale.orders_preload;
    let ((db, engine, resident), setups) = timed_setups(p.scale.setup_reps, &mut run.pacer, || {
        let rows = gen::order_rows(p.seed, 0, preload);
        let orders = TableSpec {
            name: "orders",
            cols: ORDERS_COLS,
            rows: &rows,
            index: Some("id"),
        };
        let (db, resident) = build_db(&[orders]);
        let engine = BackupEngine::new(Arc::new(MemArchive::new()), db.backup_registry());
        (Arc::new(RwLock::new(db)), engine, resident)
    });

    let mut stream = WriteStream::orders(p.seed, preload as i64, WriteMix::AutoOnly);
    let mut inserts = Samples::new();
    let (mut round_rates, mut recovery, mut restores) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fulls, mut incrementals) = (Vec::new(), Vec::new());
    let (mut archived_bytes, mut last_full_bytes) = (0u64, 0u64);
    for _ in 0..p.scale.recovery_rounds {
        let round = Instant::now();
        run.rec.next_op();

        let (full, seconds) = timed(|| run.rec.span("backup.full", |_| engine.backup_full(&db)));
        fulls.push(seconds);
        run.tally
            .check(full.is_ok(), || format!("backup_full: {full:?}"));
        last_full_bytes = full.map_or(0, |m| m.object_len);
        archived_bytes += last_full_bytes;

        for op in stream.by_ref().take(p.scale.recovery_batch as usize) {
            let out = inserts.time(|| write(&db).insert("orders", gen::values(&op.rows()[0])));
            run.tally
                .check(out.is_ok(), || format!("embedded insert: {out:?}"));
        }

        let (incr, seconds) = timed(|| {
            run.rec
                .span("backup.incremental", |_| engine.backup_incremental(&db))
        });
        incrementals.push(seconds);
        run.tally
            .check(incr.is_ok(), || format!("backup_incremental: {incr:?}"));
        archived_bytes += incr.map_or(0, |m| m.object_len);

        let source = read(&db).content_fingerprint();
        let (restored, seconds) =
            timed(|| run.rec.span("backup.restore", |_| engine.restore_latest()));
        restores.push(seconds);
        run.tally.check(
            restored
                .as_ref()
                .is_ok_and(|(r, _)| r.content_fingerprint() == source),
            || "restore_latest did not reproduce the source".to_string(),
        );
        drop(restored);

        let rec = &mut run.rec;
        let (recovered, seconds) = run
            .pacer
            .normalized(|| rec.span("core.recover", |_| write(&db).simulate_crash_and_recover()));
        recovery.push(seconds);
        run.tally.check(
            recovered.is_ok() && read(&db).content_fingerprint() == source,
            || "crash recovery changed the committed contents".to_string(),
        );
        round_rates.push(p.scale.recovery_batch as f64 / round.elapsed().as_secs_f64());
    }

    if !p.trace {
        let n = inserts.len() as u64;
        run.metrics.set("throughput_ops_s", median(&round_rates), n);
        run.metrics.set("latency_p50_us", inserts.p50_us(), n);
        run.metrics.set("latency_p95_us", inserts.p95_us(), n);
        report_end_state(&mut run.metrics, &setups, resident, &recovery, &db);
        return;
    }

    let rows = read(&db).row_count("orders").unwrap_or(0) as f64;
    let backup_s: f64 = fulls.iter().chain(&incrementals).sum();
    let rounds = fulls.len() as u64;
    let m = &mut run.metrics;
    m.set("restore_s", median(&restores), rounds);
    m.set(
        "backup_mb_s",
        archived_bytes as f64 / 1e6 / backup_s,
        2 * rounds,
    );
    m.set("backup.full_ms", median(&fulls) * 1e3, rounds);
    m.set("backup.incremental_ms", median(&incrementals) * 1e3, rounds);
    m.set(
        "backup.object_bytes_per_row",
        last_full_bytes as f64 / rows.max(1.0),
        1,
    );
    let (scrub, seconds) = timed(|| run.rec.span("backup.scrub", |_| engine.scrub(Some(&db))));
    run.metrics.set("backup.scrub_ms", seconds * 1e3, 1);
    run.tally
        .check(scrub.as_ref().is_ok_and(|r| r.clean()), || {
            format!("scrub found damage: {scrub:?}")
        });
    layers::recover_per_kb(run, &db, &recovery);
    layers::snapshot_probes(run, &db);
    let shadow = gen::order_rows(p.seed, 0, preload.max(4000));
    layers::insert_growth(run, "orders", ORDERS_COLS, &shadow);
}

//! `mixed-rw`: two remote connections for a fixed time. Connection A
//! inserts into `orders` (autocommit); connection B runs the `point-read`
//! mix on `fact` with one star join every 50 statements.
//!
//! Reads and writes sit beside each other on the single `RwLock<Db>`: a
//! reader's scan and a writer's insert exclude each other. A change that
//! shortens one side by lengthening lock hold on the other shows here and
//! nowhere else. This is the one duration-based workload, so its counts
//! vary from run to run.

use super::reads::{ReadModel, ReadSession, StarTables};
use super::writes::{run_write, verify_writes, WriteLog};
use crate::gen::{self, ReadStream, WriteMix, WriteStream};
use crate::harness::{
    build_db, read, recoveries, report_end_state, timed_setups, write, Params, Remote, TableSpec,
    Tally, ORDERS_COLS,
};
use crate::layers::Run;
use crate::stats::Samples;
use crate::trace::Recorder;
use bq_core::Db;
use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

const KEY: (usize, &str) = (0, "id");

/// Reads between two star joins on connection B.
const STAR_EVERY: u64 = 50;

pub fn run(p: &Params, run: &mut Run) {
    let preload = p.scale.orders_preload;
    let tables = StarTables::generate(p);
    let model = ReadModel::new(&tables.fact);
    let ((remote, mut reader, mut writer, resident), setups) =
        timed_setups(p.scale.setup_reps, &mut run.pacer, || {
            let star = StarTables::generate(p);
            let orders = gen::order_rows(p.seed, 0, preload);
            let [fact, dim] = star.specs();
            let orders = TableSpec {
                name: "orders",
                cols: ORDERS_COLS,
                rows: &orders,
                index: Some(KEY.1),
            };
            let (db, resident) = build_db(&[fact, dim, orders]);
            let remote = Remote::start(db);
            let reader = ReadSession::open(&remote, p, "bq-spine-read");
            let writer = remote.connect("bq-spine-write");
            (remote, reader, writer, resident)
        });

    // Both clients run closed-loop until the deadline; in the traced run
    // every op sits in a span on its thread's own recorder.
    let epoch = Instant::now();
    let deadline = epoch + p.scale.mixed_rw_time;
    let traced = p.trace;
    let mut log = WriteLog::default();
    let (reads, writes) = thread::scope(|s| {
        let log = &mut log;
        let writer = &mut writer;
        let write_side = s.spawn(move || {
            let mut side = Side::new(epoch);
            for op in WriteStream::orders(p.seed, preload as i64, WriteMix::AutoOnly) {
                if Instant::now() >= deadline {
                    break;
                }
                side.op(traced, "client.write", |lat| {
                    run_write(writer, "orders", &op, lat, log)
                });
            }
            side
        });
        let mut side = Side::new(epoch);
        let pool = p.scale.prepared_pool;
        for op in ReadStream::new(p.seed, p.scale.fact_rows, pool, Some(STAR_EVERY)) {
            if Instant::now() >= deadline {
                break;
            }
            side.op(traced, "client.read", |lat| reader.run(&op, &model, lat));
        }
        (side, write_side.join().expect("writer thread panicked"))
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    let (read_lat, write_lat) = (reads.merge_into(run), writes.merge_into(run));

    reader.conn.close();
    writer.close();
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

    if !p.trace {
        let mut pooled = read_lat;
        pooled.extend(&write_lat);
        let n = pooled.len() as u64;
        run.metrics.set("throughput_ops_s", n as f64 / elapsed, n);
        run.metrics.set("latency_p50_us", pooled.p50_us(), n);
        run.metrics.set("latency_p95_us", pooled.p95_us(), n);
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

    let m = &mut run.metrics;
    m.set("read_p50_us", read_lat.p50_us(), read_lat.len() as u64);
    m.set("read_p95_us", read_lat.p95_us(), read_lat.len() as u64);
    m.set("write_p50_us", write_lat.p50_us(), write_lat.len() as u64);
    m.set("write_p95_us", write_lat.p95_us(), write_lat.len() as u64);
    let first_fresh = (preload as usize + log.committed.len()) as i64;
    lock_waits(run, &db, p, first_fresh);
}

/// One client's half of the measured phase.
struct Side {
    latency: Samples,
    tally: Tally,
    rec: Recorder,
}

impl Side {
    fn new(epoch: Instant) -> Side {
        Side {
            latency: Samples::new(),
            tally: Tally::default(),
            rec: Recorder::new(epoch),
        }
    }

    /// Fold this side's tally and spans into the run; hand back its
    /// latencies.
    fn merge_into(self, run: &mut Run) -> Samples {
        run.tally.merge(self.tally);
        run.rec.merge(self.rec);
        self.latency
    }

    fn op(
        &mut self,
        traced: bool,
        span: &'static str,
        f: impl FnOnce(&mut Samples) -> Result<(), String>,
    ) {
        let latency = &mut self.latency;
        let outcome = if traced {
            self.rec.next_op();
            self.rec.span(span, |_| f(latency))
        } else {
            f(latency)
        };
        self.tally.check(outcome.is_ok(), || outcome.unwrap_err());
    }
}

/// A two-thread embedded replay of the same mix on the same engine, with
/// a span around each `RwLock<Db>` acquisition: how long a reader waits
/// for the writer and the writer for readers.
fn lock_waits(run: &mut Run, db: &RwLock<Db>, p: &Params, first_fresh: i64) {
    let epoch = Instant::now();
    let deadline = epoch + (p.scale.mixed_rw_time / 2).max(Duration::from_millis(100));
    let (reads, writes) = thread::scope(|s| {
        let write_side = s.spawn(move || {
            let mut side = Side::new(epoch);
            for op in WriteStream::orders(p.seed, first_fresh, WriteMix::AutoOnly) {
                if Instant::now() >= deadline {
                    break;
                }
                side.rec.next_op();
                let mut guard = side.rec.span("core.write_lock_wait", |_| write(db));
                let out = guard.insert("orders", gen::values(&op.rows()[0]));
                drop(guard);
                side.tally
                    .check(out.is_ok(), || format!("embedded insert: {out:?}"));
            }
            side
        });
        let mut side = Side::new(epoch);
        let pool = gen::prepared_pool(p.seed, p.scale.fact_rows, p.scale.prepared_pool);
        for op in ReadStream::new(p.seed, p.scale.fact_rows, pool.len(), Some(STAR_EVERY)) {
            if Instant::now() >= deadline {
                break;
            }
            let sql = match op {
                gen::ReadOp::Point(id) => gen::point_sql(id),
                gen::ReadOp::Prepared(i) => gen::point_sql(pool[i]),
                gen::ReadOp::Range(t) => gen::range_sql(t),
                gen::ReadOp::Star(t) => gen::star_sql(t),
            };
            side.rec.next_op();
            let guard = side.rec.span("core.read_lock_wait", |_| read(db));
            let out = guard.sql(&sql);
            drop(guard);
            side.tally
                .check(out.is_ok(), || format!("embedded `{sql}`: {out:?}"));
        }
        (side, write_side.join().expect("writer thread panicked"))
    });
    let (n_reads, n_writes) = (reads.tally.attempted, writes.tally.attempted);
    reads.merge_into(run);
    writes.merge_into(run);
    let waits = run.rec.self_times();
    let mean_us = |name: &str| {
        waits.get(name).map_or(0.0, |v| {
            v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3
        })
    };
    run.metrics.set(
        "core.read_lock_wait_us",
        mean_us("core.read_lock_wait"),
        n_reads,
    );
    run.metrics.set(
        "core.write_lock_wait_us",
        mean_us("core.write_lock_wait"),
        n_writes,
    );
}

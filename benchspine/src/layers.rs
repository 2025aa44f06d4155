//! The traced run's layer probes: each replays sampled operations stage by
//! stage through the layers' *public* functions, one span per call under a
//! parent span per operation. Nothing here reaches inside the engine;
//! what the stages cannot account for is `server.unattributed_us`.

use crate::gen::{self, Row, WriteOp};
use crate::harness::{read, write, Metrics, Pacer, Remote, Tally};
use crate::stats::{median, Samples};
use crate::trace::Recorder;
use bq_core::{codec, Db};
use bq_exec::{lower, ExecMode, ExecStats, Executor};
use bq_governor::QueryContext;
use bq_relational::algebra::optimize;
use bq_relational::{sqlish, Relation, Tuple, Value};
use bq_server::wire::schema_from_cols;
use bq_server::{parse_statement, Connection, Driver, EmbeddedDriver, Outcome, Request, Response};
use bq_storage::{BPlusTree, BufferPool, HeapFile, LogRecord, PageId, PageStore, Wal};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Mutable state of one workload run.
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
    pub rec: Recorder,
    pub pacer: Pacer,
}

/// Value of one `bq_obs` registry counter right now.
pub fn counter(name: &str) -> i64 {
    bq_obs::global().snapshot().get(name)
}

/// Median self time (ns) per span name, from [`Recorder::self_times`].
fn medians(self_times: &BTreeMap<&'static str, Vec<u64>>) -> BTreeMap<&'static str, f64> {
    self_times
        .iter()
        .map(|(name, v)| {
            let as_f64: Vec<f64> = v.iter().map(|&ns| ns as f64).collect();
            (*name, median(&as_f64))
        })
        .collect()
}

/// Rows per `Rows` frame, as `ServerConfig::default()` streams them.
const BATCH_ROWS: usize = 256;

/// Encode a result the way the server's `send_outcome` does: schema
/// frame, `Rows` frames of 256 tuples, `Done`.
fn encode_result(rel: &Relation) -> (Vec<Vec<u8>>, usize) {
    let cols = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| (a.name.clone(), a.ty))
        .collect();
    let mut frames = vec![Response::RowSchema { cols }.encode()];
    let mut row_bytes = 0;
    for chunk in rel.tuples().chunks(BATCH_ROWS) {
        let frame = Response::Rows {
            tuples: chunk.to_vec(),
        }
        .encode();
        row_bytes += frame.len();
        frames.push(frame);
    }
    frames.push(
        Response::Done {
            rows: rel.len() as u64,
            query: 0,
            message: String::new(),
        }
        .encode(),
    );
    (frames, row_bytes)
}

/// Decode a result the way `Connection::read_result` does.
fn decode_result(frames: &[Vec<u8>]) -> Result<Relation, String> {
    let mut schema = None;
    let mut tuples: Vec<Tuple> = Vec::new();
    for frame in frames {
        match Response::decode(frame).map_err(|e| e.to_string())? {
            Response::RowSchema { cols } => {
                schema = Some(schema_from_cols(&cols).map_err(|e| e.to_string())?);
            }
            Response::Rows { tuples: batch } => tuples.extend(batch),
            Response::Done { .. } => {}
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    Relation::from_tuples(schema.ok_or("no schema frame")?, tuples).map_err(|e| e.to_string())
}

/// Per-operator sums over one `ExecStats` tree, in nanoseconds and rows.
#[derive(Default)]
struct OperatorSums {
    scan: f64,
    filter: f64,
    product: f64,
    join_build: f64,
    join_probe: f64,
    distinct: f64,
    scanned_rows: u64,
}

impl OperatorSums {
    fn add(&mut self, stats: &ExecStats) {
        let ns = stats.elapsed.as_nanos() as f64;
        if stats.op.starts_with("SeqScan") {
            self.scan += ns;
            self.scanned_rows += stats.rows_out;
        } else if stats.op.starts_with("Filter") {
            self.filter += ns;
        } else if stats.op.starts_with("Product") {
            self.product += ns;
        } else if stats.op.starts_with("PartitionedHashJoin") {
            self.join_build += stats.build.map_or(0.0, |d| d.as_nanos() as f64);
            self.join_probe += stats.probe.map_or(0.0, |d| d.as_nanos() as f64);
        } else if stats.op.starts_with("Hash") {
            self.distinct += ns;
        }
        for child in &stats.children {
            self.add(child);
        }
    }
}

fn rows_of(outcome: Result<Outcome, bq_server::DriverError>) -> Result<Relation, String> {
    match outcome {
        Ok(Outcome::Rows(rel)) => Ok(rel),
        Ok(Outcome::Message(m)) => Err(format!("expected rows, got message `{m}`")),
        Err(e) => Err(e.to_string()),
    }
}

/// Replay select statements stage by stage against `db`, and whole
/// through `Db::sql_with_ctx_mode`, the embedded driver and `conn` (a
/// remote session on a server over the same `db`). `mode` is the mode the
/// workload's session runs in.
pub fn select_stages(
    run: &mut Run,
    db: &Arc<RwLock<Db>>,
    conn: &mut Connection,
    statements: &[String],
    mode: ExecMode,
) {
    let mut embedded = EmbeddedDriver::shared(Arc::clone(db));
    embedded.set_mode(mode).expect("embedded set_mode");
    let ctx = QueryContext::unlimited();
    let other_mode = match mode {
        ExecMode::Sequential => ExecMode::Parallel(2),
        ExecMode::Parallel(_) => ExecMode::Sequential,
    };
    let (mut core_sql, mut session, mut remote) = (Samples::new(), Samples::new(), Samples::new());
    let (mut exec_mode, mut exec_other) = (Samples::new(), Samples::new());
    let mut sums = OperatorSums::default();
    let (mut rows, mut row_bytes, mut intermediate, mut results) = (0u64, 0usize, 0u64, 0u64);

    for sql in statements {
        let guard = read(db);
        let cat = guard.catalog();
        run.rec.next_op();
        let staged = run
            .rec
            .span("op.select", |rec| -> Result<Relation, String> {
                let req = Request::Query { sql: sql.clone() };
                let body = rec.span("wire.request_encode", |_| req.encode());
                rec.span("wire.request_decode", |_| Request::decode(&body))
                    .map_err(|e| e.to_string())?;
                rec.span("server.parse_statement", |_| parse_statement(sql))
                    .map_err(|e| e.to_string())?;
                let expr = rec
                    .span("relational.parse", |_| sqlish::parse(sql))
                    .map_err(|e| e.to_string())?;
                let optimized = rec
                    .span("relational.optimize", |_| optimize(&expr, cat))
                    .map_err(|e| e.to_string())?;
                let plan = rec
                    .span("exec.lower", |_| lower(&optimized, cat))
                    .map_err(|e| e.to_string())?;
                let (rel, stats) = rec
                    .span("exec.execute", |_| {
                        exec_mode.time(|| {
                            Executor::new(mode).execute_plan_with_stats_ctx(&plan, cat, &ctx)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                // The same plan under the other mode: a probe, not a stage, so
                // it sits in its own span outside the stage sum.
                let (_, other_stats) = rec
                    .span("probe.other_mode", |_| {
                        exec_other.time(|| {
                            Executor::new(other_mode).execute_plan_with_stats_ctx(&plan, cat, &ctx)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                // Operator self times are read off the sequential execution so
                // they do not depend on how morsels were scheduled.
                let stats = if mode == ExecMode::Sequential {
                    stats
                } else {
                    other_stats
                };
                sums.add(&stats);
                intermediate += stats.total_rows();
                results += stats.rows_out_root().max(1);
                let (frames, bytes) = rec.span("wire.rows_encode", |_| encode_result(&rel));
                let back = rec.span("wire.rows_decode", |_| decode_result(&frames))?;
                rows += rel.len() as u64;
                row_bytes += bytes;
                if back != rel {
                    return Err("wire round trip changed the result".to_string());
                }
                Ok(rel)
            });
        let direct = core_sql
            .time(|| guard.sql_with_ctx_mode(sql, &ctx, mode))
            .map_err(|e| e.to_string());
        drop(guard);
        let via_embedded = rows_of(session.time(|| embedded.execute(sql)));
        let via_remote = rows_of(remote.time(|| conn.execute(sql)));
        let agree = match (&staged, &direct, &via_embedded, &via_remote) {
            (Ok(a), Ok(b), Ok(c), Ok(d)) => a == b && b == c && c == d,
            _ => false,
        };
        run.tally.check(agree, || {
            format!("paths disagree on `{sql}`: {:?}", staged.as_ref().err())
        });
    }

    let n = statements.len() as u64;
    let ops = n.max(1) as f64;
    let all_self_ns = run.rec.self_times();
    let self_ns = medians(&all_self_ns);
    let stage = |name: &str| self_ns.get(name).copied().unwrap_or(0.0);
    let m = &mut run.metrics;
    m.set("wire.request_encode_ns", stage("wire.request_encode"), n);
    m.set("wire.request_decode_ns", stage("wire.request_decode"), n);
    m.set(
        "server.parse_statement_ns",
        stage("server.parse_statement"),
        n,
    );
    m.set("relational.parse_us", stage("relational.parse") / 1e3, n);
    m.set(
        "relational.optimize_us",
        stage("relational.optimize") / 1e3,
        n,
    );
    m.set("exec.lower_us", stage("exec.lower") / 1e3, n);
    let per_krow = |name: &str| {
        let total_ns: u64 = all_self_ns.get(name).map_or(0, |v| v.iter().sum());
        total_ns as f64 / 1e3 / (rows.max(1) as f64 / 1e3)
    };
    m.set(
        "wire.rows_encode_us_per_krow",
        per_krow("wire.rows_encode"),
        rows,
    );
    m.set(
        "wire.rows_decode_us_per_krow",
        per_krow("wire.rows_decode"),
        rows,
    );
    m.set(
        "wire.bytes_per_row",
        row_bytes as f64 / rows.max(1) as f64,
        rows,
    );
    let (seq, par) = match mode {
        ExecMode::Sequential => (&exec_mode, &exec_other),
        ExecMode::Parallel(_) => (&exec_other, &exec_mode),
    };
    m.set("exec.execute_seq_ms", seq.p50_ns() / 1e6, n);
    m.set("exec.execute_par2_ms", par.p50_ns() / 1e6, n);
    m.set("exec.scan_self_ms", sums.scan / ops / 1e6, n);
    m.set("exec.filter_self_ms", sums.filter / ops / 1e6, n);
    m.set("exec.product_self_ms", sums.product / ops / 1e6, n);
    m.set("exec.join_build_ms", sums.join_build / ops / 1e6, n);
    m.set("exec.join_probe_ms", sums.join_probe / ops / 1e6, n);
    m.set("exec.distinct_self_ms", sums.distinct / ops / 1e6, n);
    m.set(
        "exec.rows_examined_per_result",
        sums.scanned_rows as f64 / results.max(1) as f64,
        n,
    );
    m.set("exec.intermediate_rows", intermediate as f64 / ops, n);
    m.set("core.sql_us", core_sql.p50_us(), n);
    let stages = [
        "op.select",
        "wire.request_encode",
        "wire.request_decode",
        "server.parse_statement",
        "relational.parse",
        "relational.optimize",
        "exec.lower",
        "exec.execute",
        "wire.rows_encode",
        "wire.rows_decode",
    ];
    path_metrics(m, &session, &remote, stages.iter().map(|s| stage(s)).sum());
}

/// The three whole-path numbers and what the stages leave unexplained.
fn path_metrics(m: &mut Metrics, embedded: &Samples, remote: &Samples, stage_self_ns: f64) {
    let n = remote.len() as u64;
    m.set("server.session_run_us", embedded.p50_us(), n);
    m.set("server.remote_p50_us", remote.p50_us(), n);
    m.set(
        "server.remote_overhead_us",
        remote.p50_us() - embedded.p50_us(),
        n,
    );
    m.set(
        "server.unattributed_us",
        remote.p50_us() - stage_self_ns / 1e3,
        n,
    );
}

/// Replay autocommit inserts stage by stage (`begin` / `insert_in` /
/// `commit` on `db`), whole through the embedded driver and `conn`, and
/// every tenth time a 5-row transaction that aborts. Each path
/// inserts its own fresh row, so all of them see the same table growth.
pub fn insert_stages(
    run: &mut Run,
    db: &Arc<RwLock<Db>>,
    conn: &mut Connection,
    table: &'static str,
    mut fresh: impl Iterator<Item = WriteOp>,
    n: usize,
) {
    let mut embedded = EmbeddedDriver::shared(Arc::clone(db));
    let (mut session, mut remote) = (Samples::new(), Samples::new());
    let mut next_row = move || -> Row { fresh.next().expect("endless stream").rows()[0].clone() };
    let done = Response::Done {
        rows: 0,
        query: 0,
        message: "1 row".to_string(),
    };
    for i in 0..n {
        let row = next_row();
        let sql = gen::insert_sql(table, &row);
        run.rec.next_op();
        let staged = run.rec.span("op.insert", |rec| -> Result<(), String> {
            let req = Request::Query { sql: sql.clone() };
            let body = rec.span("wire.request_encode", |_| req.encode());
            rec.span("wire.request_decode", |_| Request::decode(&body))
                .map_err(|e| e.to_string())?;
            rec.span("server.parse_statement", |_| parse_statement(&sql))
                .map_err(|e| e.to_string())?;
            let mut guard = write(db);
            let h = rec
                .span("core.begin", |_| guard.begin())
                .map_err(|e| e.to_string())?;
            rec.span("core.insert_in", |_| {
                guard.insert_in(h, table, gen::values(&row))
            })
            .map_err(|e| e.to_string())?;
            rec.span("core.commit", |_| guard.commit(h))
                .map_err(|e| e.to_string())?;
            drop(guard);
            let frame = rec.span("wire.done_encode", |_| done.encode());
            rec.span("wire.done_decode", |_| Response::decode(&frame))
                .map_err(|e| e.to_string())?;
            Ok(())
        });
        run.tally
            .check(staged.is_ok(), || format!("staged insert: {staged:?}"));
        for (samples, driver) in [
            (&mut session, &mut embedded as &mut dyn Driver),
            (&mut remote, &mut *conn as &mut dyn Driver),
        ] {
            let sql = gen::insert_sql(table, &next_row());
            let out = samples.time(|| driver.execute(&sql));
            run.tally.check(out.is_ok(), || format!("`{sql}`: {out:?}"));
        }
        if i % 10 == 0 {
            run.rec.next_op();
            let aborted = run.rec.span("op.rollback", |rec| -> Result<(), String> {
                let mut guard = write(db);
                let h = guard.begin().map_err(|e| e.to_string())?;
                for _ in 0..gen::TXN_ROWS {
                    guard
                        .insert_in(h, table, gen::values(&next_row()))
                        .map_err(|e| e.to_string())?;
                }
                rec.span("core.abort", |_| guard.abort(h))
                    .map_err(|e| e.to_string())
            });
            run.tally
                .check(aborted.is_ok(), || format!("staged abort: {aborted:?}"));
        }
    }

    let n = n as u64;
    let self_ns = medians(&run.rec.self_times());
    let stage = |name: &str| self_ns.get(name).copied().unwrap_or(0.0);
    let m = &mut run.metrics;
    m.set("wire.request_encode_ns", stage("wire.request_encode"), n);
    m.set("wire.request_decode_ns", stage("wire.request_decode"), n);
    m.set(
        "server.parse_statement_ns",
        stage("server.parse_statement"),
        n,
    );
    m.set("core.begin_us", stage("core.begin") / 1e3, n);
    m.set("core.insert_in_us", stage("core.insert_in") / 1e3, n);
    m.set("core.commit_us", stage("core.commit") / 1e3, n);
    m.set("core.abort_us", stage("core.abort") / 1e3, n.div_ceil(10));
    let stages = [
        "op.insert",
        "wire.request_encode",
        "wire.request_decode",
        "server.parse_statement",
        "core.begin",
        "core.insert_in",
        "core.commit",
        "wire.done_encode",
        "wire.done_decode",
    ];
    path_metrics(m, &session, &remote, stages.iter().map(|s| stage(s)).sum());
}

/// `Db::insert` cost at ~1000 and ~4000 resident rows, read off a preload
/// of `rows` into a fresh single-table engine with an index on column 0.
pub fn insert_growth(run: &mut Run, table: &'static str, cols: &[&str], rows: &[Row]) {
    let mut db = Db::new();
    let typed: Vec<(&str, bq_relational::Type)> = cols
        .iter()
        .map(|c| (*c, bq_relational::Type::Int))
        .collect();
    db.create_table(table, &typed).expect("create table");
    db.create_index(table, cols[0]).expect("create index");
    let (mut at_1k, mut at_4k) = (Samples::new(), Samples::new());
    for (i, row) in rows.iter().enumerate() {
        let start = Instant::now();
        db.insert(table, gen::values(row)).expect("insert");
        let took = start.elapsed();
        match i {
            900..1100 => at_1k.push(took),
            3800..4000 => at_4k.push(took),
            _ => {}
        }
    }
    let m = &mut run.metrics;
    m.set("core.insert_us_at_1k", at_1k.p50_us(), at_1k.len() as u64);
    m.set("core.insert_us_at_4k", at_4k.p50_us(), at_4k.len() as u64);
    if !at_1k.is_empty() && !at_4k.is_empty() {
        m.set(
            "core.insert_growth_ratio",
            at_4k.p50_us() / at_1k.p50_us(),
            at_4k.len() as u64,
        );
    }
}

/// `simulate_crash_and_recover` per KB of durable WAL.
pub fn recover_per_kb(run: &mut Run, db: &RwLock<Db>, recovery_s: &[f64]) {
    let kb = read(db).wal_durable_len() as f64 / 1024.0;
    run.metrics.set(
        "core.recover_us_per_kb",
        median(recovery_s) * 1e6 / kb.max(1.0),
        recovery_s.len() as u64,
    );
}

/// Standalone `HeapFile` / `Wal` / `BPlusTree` fed the workload's encoded
/// rows: the heap is first filled to `pages` pages (the workload's page
/// count), then `probe` rows are inserted under the timer.
pub fn storage_probes(run: &mut Run, fill: &[Row], pages: usize, probe: &[Row]) {
    let encoded = |row: &Row| codec::encode(&Tuple::new(gen::values(row)));
    let n = probe.len() as u64;

    let mut store = PageStore::new();
    let mut heap = HeapFile::new();
    let mut filler = fill.iter().cycle();
    while heap.page_count() < pages {
        heap.insert(&mut store, &encoded(filler.next().expect("fill rows")))
            .expect("heap fill");
    }
    let (reads, writes) = (store.read_count(), store.write_count());
    for row in probe {
        let bytes = encoded(row);
        run.rec.next_op();
        run.rec
            .span("storage.heap_insert", |_| heap.insert(&mut store, &bytes))
            .expect("heap insert");
    }
    let m = &mut run.metrics;
    m.set(
        "storage.page_reads_per_insert",
        (store.read_count() - reads) as f64 / n as f64,
        n,
    );
    m.set(
        "storage.page_writes_per_insert",
        (store.write_count() - writes) as f64 / n as f64,
        n,
    );

    let mut wal = Wal::new();
    for (txn, row) in probe.iter().enumerate() {
        let txn = txn as u64 + 1;
        let insert = LogRecord::RowInsert {
            txn,
            page: PageId(0),
            slot: 0,
            table: "orders".to_string(),
            bytes: encoded(row),
        };
        run.rec.next_op();
        wal.append(&LogRecord::Begin(txn)).expect("wal begin");
        run.rec
            .span("storage.wal_append", |_| wal.append(&insert))
            .expect("wal append");
        wal.append(&LogRecord::Commit(txn)).expect("wal commit");
        run.rec
            .span("storage.wal_sync", |_| wal.sync())
            .expect("wal sync");
    }
    let m = &mut run.metrics;
    m.set(
        "storage.wal_bytes_per_row",
        wal.byte_len() as f64 / n as f64,
        n,
    );
    m.set(
        "storage.wal_syncs_per_commit",
        wal.sync_count() as f64 / n as f64,
        n,
    );

    let splits = counter("bq_storage_btree_splits_total");
    let mut tree: BPlusTree<Value, Vec<Tuple>> = BPlusTree::default();
    for row in fill.iter().chain(probe) {
        let tuple = Tuple::new(gen::values(row));
        run.rec.next_op();
        run.rec.span("storage.btree_upsert", |_| {
            tree.upsert(Value::Int(row[0]), vec![tuple])
        });
    }
    for row in probe {
        let key = Value::Int(row[0]);
        let hit = run
            .rec
            .span("storage.btree_get", |_| tree.get(&key).is_some());
        run.tally.check(hit, || format!("btree lost key {key}"));
    }
    let keys = (fill.len() + probe.len()) as u64;
    let self_ns = medians(&run.rec.self_times());
    let stage = |name: &str| self_ns.get(name).copied().unwrap_or(0.0);
    let m = &mut run.metrics;
    m.set(
        "storage.heap_insert_us",
        stage("storage.heap_insert") / 1e3,
        n,
    );
    m.set("storage.wal_append_ns", stage("storage.wal_append"), n);
    m.set("storage.wal_sync_ns", stage("storage.wal_sync"), n);
    m.set(
        "storage.btree_upsert_ns",
        stage("storage.btree_upsert"),
        keys,
    );
    m.set("storage.btree_get_ns", stage("storage.btree_get"), n);
    m.set(
        "storage.btree_splits",
        (counter("bq_storage_btree_splits_total") - splits) as f64,
        keys,
    );
}

/// Pages of the heap the buffer-pool probe scans, and the two pool sizes:
/// one the heap does not fit in and one it does.
pub const POOL_HEAP_PAGES: usize = 96;
pub const POOL_SMALL: usize = 32;
pub const POOL_LARGE: usize = 128;

/// No query touches the buffer pool today (the executor reads the logical
/// catalog), so this drives `BufferPool` directly: two sequential passes
/// over a 96-page heap through a 32-frame and a 128-frame pool.
pub fn pool_probe(run: &mut Run) {
    let mut store = PageStore::new();
    let mut heap = HeapFile::new();
    // Four records to a page: the probe is about page traffic, and small
    // records would spend its time in first-fit inserts.
    let record = [0u8; 1000];
    while heap.page_count() < POOL_HEAP_PAGES {
        heap.insert(&mut store, &record).expect("heap fill");
    }
    let scan = |store: &mut PageStore, frames: usize| {
        let pool = BufferPool::new(frames);
        for _pass in 0..2 {
            for page in 0..POOL_HEAP_PAGES as u32 {
                pool.pin(store, PageId(page)).expect("pin");
                pool.unpin(PageId(page), false).expect("unpin");
            }
        }
        pool.stats()
    };
    let pins = 2 * POOL_HEAP_PAGES as u64;
    let small = scan(&mut store, POOL_SMALL);
    let large = scan(&mut store, POOL_LARGE);
    let m = &mut run.metrics;
    m.set("storage.pool_hit_rate", small.hit_rate(), pins);
    m.set("storage.pool_evictions", small.evictions as f64, pins);
    m.set("storage.pool_hit_rate_fits", large.hit_rate(), pins);
}

/// Snapshot encode, snapshot apply into a fresh engine, and per-record
/// `apply_record` over the decoded durable WAL — the redo path replica
/// bootstrap and `restore_latest` share.
pub fn snapshot_probes(run: &mut Run, db: &RwLock<Db>) {
    let mut guard = write(db);
    let expected = guard.content_fingerprint();
    run.rec.next_op();
    let image = run
        .rec
        .span("repl.snapshot_encode", |_| guard.snapshot_bytes())
        .expect("snapshot");
    let wal = guard.wal_durable_bytes(0, usize::MAX);
    drop(guard);

    let mut from_image = Db::new();
    run.rec
        .span("repl.snapshot_apply", |_| from_image.apply_snapshot(&image))
        .expect("apply snapshot");
    run.tally
        .check(from_image.content_fingerprint() == expected, || {
            "snapshot image restored to a different fingerprint".to_string()
        });

    let (records, _) = Wal::decode_stream(&wal).expect("decode durable WAL");
    let mut from_log = Db::new();
    let start = Instant::now();
    let applied = run.rec.span("repl.apply_records", |_| {
        records.iter().try_for_each(|r| from_log.apply_record(r))
    });
    let per_record_us = start.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
    run.tally.check(
        applied.is_ok() && from_log.content_fingerprint() == expected,
        || format!("WAL replay diverged: {applied:?}"),
    );

    let self_ns = medians(&run.rec.self_times());
    let m = &mut run.metrics;
    m.set(
        "repl.snapshot_encode_ms",
        self_ns["repl.snapshot_encode"] / 1e6,
        1,
    );
    m.set(
        "repl.snapshot_apply_ms",
        self_ns["repl.snapshot_apply"] / 1e6,
        1,
    );
    m.set("repl.apply_record_us", per_record_us, records.len() as u64);
}

/// `connect` + handshake, median of a few dials.
pub fn connect_probe(run: &mut Run, remote: &Remote) {
    let mut dial = Samples::new();
    for _ in 0..15 {
        dial.time(|| remote.connect("bq-spine-dial")).close();
    }
    run.metrics
        .set("server.connect_us", dial.p50_us(), dial.len() as u64);
}

/// Wire bytes per operation from the server's own byte counters, around
/// a phase of `ops` remote operations.
pub struct WireBytes {
    bytes_in: i64,
    bytes_out: i64,
}

impl WireBytes {
    pub fn start() -> WireBytes {
        WireBytes {
            bytes_in: counter("bq_server_bytes_in_total"),
            bytes_out: counter("bq_server_bytes_out_total"),
        }
    }

    pub fn finish(self, metrics: &mut Metrics, ops: u64) {
        let per_op = |now: i64, then: i64| (now - then) as f64 / ops.max(1) as f64;
        metrics.set(
            "server.bytes_in_per_op",
            per_op(counter("bq_server_bytes_in_total"), self.bytes_in),
            ops,
        );
        metrics.set(
            "server.bytes_out_per_op",
            per_op(counter("bq_server_bytes_out_total"), self.bytes_out),
            ops,
        );
    }
}

/// Run `ops` closed-loop, every second one inside a `client.op` span, and
/// report throughput with a span per op over throughput without: what the
/// benchmark's own recorder costs the thing it measures. Alternating keeps
/// both halves on the same table sizes. Returns the ops' latencies.
pub fn trace_overhead<T>(
    run: &mut Run,
    ops: &[T],
    mut run_op: impl FnMut(&T, &mut Samples) -> Result<(), String>,
) -> Samples {
    let mut latency = Samples::new();
    let mut seconds = [0.0f64; 2];
    for (i, op) in ops.iter().enumerate() {
        let spanned = i % 2 == 1;
        let start = Instant::now();
        let outcome = if spanned {
            run.rec.next_op();
            run.rec.span("client.op", |_| run_op(op, &mut latency))
        } else {
            run_op(op, &mut latency)
        };
        seconds[usize::from(spanned)] += start.elapsed().as_secs_f64();
        run.tally.check(outcome.is_ok(), || outcome.unwrap_err());
    }
    let plain_rate = ops.len().div_ceil(2) as f64 / seconds[0];
    let spanned_rate = (ops.len() / 2) as f64 / seconds[1];
    run.metrics.set(
        "obs.bench_trace_overhead_ratio",
        spanned_rate / plain_rate,
        ops.len() as u64,
    );
    latency
}

/// Embedded select throughput with `Db::set_tracing(true)` over the same
/// with it off (ROADMAP's 3% rule: reported, not enforced).
pub fn db_tracing_probe(run: &mut Run, db: &RwLock<Db>, statements: &[String]) {
    let guard = read(db);
    let mut pass = |on: bool| {
        guard.set_tracing(on);
        let start = Instant::now();
        for sql in statements {
            let out = guard.sql(sql);
            run.tally.check(out.is_ok(), || format!("`{sql}`: {out:?}"));
        }
        statements.len() as f64 / start.elapsed().as_secs_f64()
    };
    let off = pass(false);
    let on = pass(true);
    guard.set_tracing(false);
    run.metrics
        .set("obs.db_tracing_on_ratio", on / off, statements.len() as u64);
}

/// `QueryContext::unlimited().check()`: the governor's per-morsel cost
/// when nothing is limited.
pub fn governor_probe(metrics: &mut Metrics) {
    const CHECKS: u32 = 200_000;
    let ctx = QueryContext::unlimited();
    let start = Instant::now();
    for _ in 0..CHECKS {
        std::hint::black_box(std::hint::black_box(&ctx).check()).expect("unlimited context");
    }
    metrics.set(
        "governor.ctx_check_ns",
        start.elapsed().as_nanos() as f64 / f64::from(CHECKS),
        u64::from(CHECKS),
    );
}

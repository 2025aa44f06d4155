//! What the six workloads share: sizes, the tally of attempted and failed
//! operations, the metric sink, an in-process server, and the measurement
//! steps every workload performs (set-up timing, rounds, crash recovery,
//! space accounting, the noise-control oracle).

use crate::gen::{self, Row};
use crate::spec;
use crate::stats::{median, Samples};
use crate::trace::{CountingAlloc, Recorder};
use bq_core::{codec, Db};
use bq_relational::algebra::{eval, Expr};
use bq_relational::{Database, Relation, Type};
use bq_server::{connect_with, serve, ConnectOptions, Connection, Server, ServerConfig};
use bq_storage::PAGE_SIZE;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Table sizes and op counts of one run. Op counts are fixed, not
/// durations (except `mixed-rw`): an insert costs more the larger its
/// table, so only a fixed count compares like with like and lets every
/// count metric repeat exactly. `--seconds` scales the counts; on the seed
/// code each measured phase then takes about that long.
#[derive(Debug, Clone)]
pub struct Scale {
    pub fact_rows: u64,
    pub dim_rows: u64,
    pub orders_preload: u64,
    pub ledger_preload: u64,
    pub prepared_pool: usize,
    /// Times a workload sets itself up; `setup_s` is the median.
    pub setup_reps: usize,
    /// Crash recoveries at the end of a workload; `recovery_s` is the median.
    pub recover_reps: usize,
    /// Rounds the measured phase is split into; throughput is their median.
    pub rounds: usize,
    pub point_read_ops: u64,
    /// `analytic-join` runs this many cycles of ten statements.
    pub analytic_cycles: u64,
    pub write_heavy_ops: u64,
    pub mixed_rw_time: Duration,
    pub repl_tagged_ops: u64,
    pub repl_burst_ops: u64,
    /// `ops-recovery`: rounds of backup / inserts / backup / restore / recover.
    pub recovery_rounds: u64,
    pub recovery_batch: u64,
}

impl Scale {
    pub fn full(seconds: u64) -> Scale {
        Scale {
            fact_rows: 5000,
            dim_rows: 500,
            orders_preload: 4000,
            ledger_preload: 2000,
            prepared_pool: 48,
            setup_reps: 3,
            recover_reps: 9,
            rounds: 16,
            point_read_ops: 1200 * seconds,
            analytic_cycles: 4 * seconds,
            write_heavy_ops: 1200 * seconds,
            mixed_rw_time: Duration::from_secs(seconds),
            repl_tagged_ops: 320 * seconds,
            repl_burst_ops: 160 * seconds,
            recovery_rounds: seconds,
            recovery_batch: 250,
        }
    }

    /// Tiny sizes for the schema test: every code path, no meaningful time.
    pub fn smoke() -> Scale {
        Scale {
            fact_rows: 400,
            dim_rows: 40,
            orders_preload: 300,
            ledger_preload: 200,
            prepared_pool: 8,
            setup_reps: 1,
            recover_reps: 3,
            rounds: 2,
            point_read_ops: 240,
            analytic_cycles: 2,
            write_heavy_ops: 200,
            mixed_rw_time: Duration::from_millis(400),
            repl_tagged_ops: 40,
            repl_burst_ops: 40,
            recovery_rounds: 2,
            recovery_batch: 40,
        }
    }

    /// The traced run's sizes: a quarter of the op counts, one set-up.
    pub fn traced(&self) -> Scale {
        Scale {
            setup_reps: 1,
            rounds: 2,
            point_read_ops: self.point_read_ops / 4,
            analytic_cycles: (self.analytic_cycles / 4).max(1),
            write_heavy_ops: self.write_heavy_ops / 4,
            mixed_rw_time: self.mixed_rw_time / 4,
            repl_tagged_ops: self.repl_tagged_ops / 4,
            repl_burst_ops: self.repl_burst_ops / 4,
            recovery_rounds: (self.recovery_rounds / 4).max(2),
            ..self.clone()
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
}

/// Operations attempted and failed. Errors, refusals, oracle mismatches,
/// semi-sync timeouts and acknowledged writes missing after recovery all
/// count as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one attempt; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }

    /// Count `n` failures that are not attempts of their own (an
    /// end-state check over operations already counted).
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// Metric sink: name → (value, sample count). Refuses names the catalogue
/// does not list, so nothing unnamed is ever emitted.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, u64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            spec::metric(name).is_some(),
            "metric `{name}` is not in the catalogue (spec.rs)"
        );
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, u64)> {
        self.0.get(name).copied()
    }
}

/// What one workload run hands back.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// The noise-control oracle drifted by more than 10% across the run.
    pub noisy: bool,
    pub wall_s: f64,
    /// The traced run's spans.
    pub trace: Option<Recorder>,
}

pub fn read(db: &RwLock<Db>) -> RwLockReadGuard<'_, Db> {
    db.read().expect("engine lock poisoned: a session panicked")
}

pub fn write(db: &RwLock<Db>) -> RwLockWriteGuard<'_, Db> {
    db.write()
        .expect("engine lock poisoned: a session panicked")
}

/// A table to preload: name, column names, rows, and an indexed column.
pub struct TableSpec<'a> {
    pub name: &'static str,
    pub cols: &'static [&'static str],
    pub rows: &'a [Row],
    pub index: Option<&'static str>,
}

pub const FACT_COLS: &[&str] = &["id", "k", "v"];
pub const DIM_COLS: &[&str] = &["k", "grp"];
pub const ORDERS_COLS: &[&str] = &["id", "cust", "amt"];
pub const LEDGER_COLS: &[&str] = &["account", "delta"];

/// Build an engine and preload it through embedded `Db::insert` — the
/// same insert path the server runs, without the socket. Returns the
/// engine and the heap bytes it holds per preloaded row.
pub fn build_db(tables: &[TableSpec<'_>]) -> (Db, f64) {
    let rows: usize = tables.iter().map(|t| t.rows.len()).sum();
    let (db, bytes) = CountingAlloc::window(|| {
        let mut db = Db::new();
        for t in tables {
            let cols: Vec<(&str, Type)> = t.cols.iter().map(|c| (*c, Type::Int)).collect();
            db.create_table(t.name, &cols).expect("create table");
            if let Some(col) = t.index {
                db.create_index(t.name, col).expect("create index");
            }
            for row in t.rows {
                db.insert(t.name, gen::values(row)).expect("preload insert");
            }
        }
        db
    });
    (db, bytes as f64 / rows.max(1) as f64)
}

/// An in-process server over loopback TCP.
pub struct Remote {
    server: Server,
}

impl Remote {
    pub fn start(db: Db) -> Remote {
        let server = serve(Arc::new(RwLock::new(db)), ServerConfig::default())
            .expect("bind an ephemeral loopback port");
        Remote { server }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn db(&self) -> Arc<RwLock<Db>> {
        self.server.db()
    }

    /// Dial and handshake; `client` is the identity tagged writes dedup on.
    pub fn connect(&self, client: &str) -> Connection {
        connect_with(
            self.addr(),
            ConnectOptions {
                client: client.to_string(),
                ..ConnectOptions::default()
            },
        )
        .expect("connect to the in-process server")
    }

    /// Shut the server down (its sessions have been closed by now) and
    /// hand back the engine.
    pub fn stop(self) -> Arc<RwLock<Db>> {
        let db = self.server.db();
        self.server.shutdown(Duration::from_secs(2));
        db
    }
}

/// Run `f`; return its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `setup` `reps` times, dropping all but the last environment, and
/// return it with each repetition's wall time in seconds. Ends with the
/// oracle's opening block of readings.
pub fn timed_setups<E>(
    reps: usize,
    pacer: &mut Pacer,
    mut setup: impl FnMut() -> E,
) -> (E, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut env = None;
    for _ in 0..reps.max(1) {
        drop(env.take());
        let (built, seconds) = timed(&mut setup);
        env = Some(built);
        times.push(seconds);
    }
    pacer.block();
    (env.expect("at least one repetition"), times)
}

/// Client-side timings of a measured phase, normalized by the oracle
/// unless the workload is paced by timers.
#[derive(Debug, Default)]
pub struct Measured {
    pub latency: Samples,
    /// Ops per second of each round.
    pub round_rates: Vec<f64>,
}

impl Measured {
    /// Closed loop over `ops` in `rounds` equal rounds: the next op is
    /// issued only when the previous one has returned. `run` performs one
    /// op and says whether it succeeded and matched its oracle; the check
    /// happens inside `run` after the reply, so it is part of the round's
    /// busy time but not of the op's latency. With a `pacer`, the oracle is
    /// interleaved and each round's rate and latencies are normalized by
    /// the machine speed it saw; without one (a workload paced by timers,
    /// not by the CPU) they are reported as measured.
    pub fn rounds<T>(
        ops: &[T],
        rounds: usize,
        tally: &mut Tally,
        mut pacer: Option<&mut Pacer>,
        mut run: impl FnMut(&T, &mut Samples) -> Result<(), String>,
    ) -> Measured {
        let mut m = Measured::default();
        let per_round = ops.len().div_ceil(rounds.max(1)).max(1);
        for round in ops.chunks(per_round) {
            let mut latency = Samples::new();
            let mut busy = Duration::ZERO;
            if let Some(p) = pacer.as_deref_mut() {
                p.take();
            }
            for op in round {
                let start = Instant::now();
                let outcome = run(op, &mut latency);
                busy += start.elapsed();
                tally.check(outcome.is_ok(), || outcome.unwrap_err());
                if let Some(p) = pacer.as_deref_mut() {
                    p.tick();
                }
            }
            let speed = pacer.as_deref_mut().map_or(1.0, Pacer::take);
            m.round_rates
                .push(round.len() as f64 / busy.as_secs_f64() * speed);
            m.latency.extend_scaled(&latency, 1.0 / speed);
        }
        m
    }

    /// Write the three end-to-end timing metrics.
    pub fn report(&self, metrics: &mut Metrics) {
        let n = self.latency.len() as u64;
        metrics.set("throughput_ops_s", median(&self.round_rates), n);
        metrics.set("latency_p50_us", self.latency.p50_us(), n);
        metrics.set("latency_p95_us", self.latency.p95_us(), n);
    }
}

/// Crash and recover the engine `reps` times; each call drops the logical
/// layer and rebuilds it from heap pages and the WAL — decoding tuples and
/// refilling `BTreeSet`s, the same tuple churn the oracle does, so each
/// time is normalized by oracle evaluations on either side of it. The
/// committed contents must come back unchanged. Returns seconds.
pub fn recoveries(db: &RwLock<Db>, reps: usize, tally: &mut Tally, pacer: &mut Pacer) -> Vec<f64> {
    let mut db = write(db);
    let before = db.content_fingerprint();
    let times = (0..reps)
        .map(|_| {
            let (recovered, seconds) = pacer.normalized(|| db.simulate_crash_and_recover());
            recovered.expect("crash recovery");
            seconds
        })
        .collect();
    if db.content_fingerprint() != before {
        tally.fail(
            1,
            "crash recovery changed the committed contents".to_string(),
        );
    }
    times
}

/// The end-to-end metrics every workload takes the same way: set-up time,
/// resident bytes per preloaded row, crash-recovery time and the space
/// ratio of the end state.
pub fn report_end_state(
    metrics: &mut Metrics,
    setups: &[f64],
    resident_bytes_per_row: f64,
    recovery: &[f64],
    db: &RwLock<Db>,
) {
    metrics.set("setup_s", median(setups), setups.len() as u64);
    metrics.set("resident_bytes_per_row", resident_bytes_per_row, 1);
    metrics.set("recovery_s", median(recovery), recovery.len() as u64);
    metrics.set(
        "stored_bytes_per_user_byte",
        stored_bytes_per_user_byte(&read(db)),
        1,
    );
}

/// Bytes the engine stores (durable WAL + heap pages) per byte of user
/// data (the tuples' own encoding).
pub fn stored_bytes_per_user_byte(db: &Db) -> f64 {
    let user: usize = db
        .tables()
        .iter()
        .filter_map(|t| db.table(t).ok())
        .flat_map(Relation::iter)
        .map(|t| codec::encode(t).len())
        .sum();
    (db.wal_durable_len() as usize + db.page_count() * PAGE_SIZE) as f64 / user.max(1) as f64
}

/// Oracle time, in milliseconds, that every timing is normalized to: about
/// what one evaluation takes on the box the baseline was taken on when it
/// is quiet.
pub const ORACLE_REFERENCE_MS: f64 = 1.5;

/// Work between two oracle evaluations. The noise on a shared virtual
/// machine comes in bursts of tens of milliseconds, so the oracle has to be
/// interleaved this finely to see the same bursts the workload sees;
/// readings taken only at round boundaries did not track it.
const ORACLE_EVERY: Duration = Duration::from_millis(20);

/// Readings per block: one block opens and one closes every run.
const ORACLE_BLOCK: usize = 25;

/// The in-run noise control (EXPERIMENTS.md E14b's ratio method, which
/// ROADMAP keeps mandatory on this container): a fixed star join over 2000
/// fact rows through the untouched recursive evaluator, interleaved with
/// the measured work. Its input does not depend on the seed, so its time
/// moves only when the machine does — and a timing divided by it does not.
///
/// It is a query, and it tracks what slows queries: measured on the seed
/// code, back-to-back rounds of remote point selects varied by 7.3% raw
/// and 2.1% divided by the interleaved oracle, and ten `analytic-join`
/// runs spread 12.6% raw and 3.0% normalized at p50. The two workloads
/// whose time goes to `exec` operators churning tuples (`point-read`,
/// `analytic-join`) therefore report `raw x ORACLE_REFERENCE_MS /
/// oracle_ms` — what the run would have read on a machine where the oracle
/// takes 1.5 ms. Crash recovery, which decodes tuples and refills
/// `BTreeSet`s, is normalized the same way (raw it is bimodal, 6.5 or
/// 10.5 ms by run; normalized it repeats within 3%). The oracle does *not*
/// track the insert path (page copies and checksums), whose raw times
/// repeat within 1-2% while the oracle beside them wanders by 10%;
/// workloads dominated by inserts or by timers, and every set-up time, are
/// reported as measured. Every run brackets itself with oracle readings
/// either way, for the `noisy` flag.
pub struct Pacer {
    db: Database,
    expr: Expr,
    last: Instant,
    /// Oracle time and evaluations since the last [`Pacer::take`].
    pending: (Duration, u32),
    /// The most recent speed factor, reused by a span too short to hold
    /// an evaluation of its own.
    factor: f64,
    /// Every evaluation of the run, in milliseconds.
    readings: Vec<f64>,
}

impl Default for Pacer {
    fn default() -> Pacer {
        Pacer::new()
    }
}

impl Pacer {
    pub fn new() -> Pacer {
        let mut db = Database::new();
        let mut fact =
            Relation::with_schema(&[("id", Type::Int), ("k", Type::Int), ("v", Type::Int)])
                .expect("fact schema");
        for row in gen::fact_rows(0xe14, 2000, 500) {
            fact.insert(gen::values(&row).into()).expect("fact row");
        }
        let mut dim =
            Relation::with_schema(&[("k", Type::Int), ("grp", Type::Int)]).expect("dim schema");
        for row in gen::dim_rows(500) {
            dim.insert(gen::values(&row).into()).expect("dim row");
        }
        db.add("fact", fact);
        db.add("dim", dim);
        let expr = Expr::rel("fact")
            .natural_join(Expr::rel("dim"))
            .project(&["id", "grp"]);
        Pacer {
            db,
            expr,
            last: Instant::now(),
            pending: (Duration::ZERO, 0),
            factor: 1.0,
            readings: Vec::new(),
        }
    }

    /// A block of readings back to back. One is taken when the workload
    /// is set up and one when it ends (the `noisy` comparison); the first
    /// also gives the first speed factor. Readings before set-up would not
    /// compare: on a fresh heap with nothing else in the caches the oracle
    /// runs a fifth faster than it ever does beside an engine.
    fn block(&mut self) {
        for _ in 0..ORACLE_BLOCK {
            self.evaluate();
        }
        self.take();
    }

    fn evaluate(&mut self) {
        let start = Instant::now();
        let out = eval(&self.expr, &self.db).expect("oracle join");
        assert_eq!(out.len(), 2000, "oracle join lost rows");
        let took = start.elapsed();
        self.pending.0 += took;
        self.pending.1 += 1;
        self.readings.push(took.as_secs_f64() * 1e3);
        self.last = Instant::now();
    }

    /// Call between operations: evaluates the oracle once if 20 ms of work
    /// have passed since the last evaluation.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= ORACLE_EVERY {
            self.evaluate();
        }
    }

    /// Time one call of `f`, bracketed by two oracle evaluations; returns
    /// its result and its seconds at reference machine speed.
    pub fn normalized<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        self.take();
        self.evaluate();
        let (out, took) = timed(f);
        self.evaluate();
        (out, took / self.take())
    }

    /// Machine speed over the span since the last `take`, as oracle time
    /// relative to the reference: above 1 when the machine was slow.
    pub fn take(&mut self) -> f64 {
        let (total, evals) = std::mem::take(&mut self.pending);
        if evals > 0 {
            self.factor = total.as_secs_f64() * 1e3 / f64::from(evals) / ORACLE_REFERENCE_MS;
        }
        self.last = Instant::now();
        self.factor
    }

    /// Close the run with a last block of readings. Returns the mean
    /// oracle time, the number of readings, and the run's `noisy` flag:
    /// whether the medians of the blocks of 25 readings drifted by more
    /// than 10% between the fastest and the slowest.
    pub fn finish(mut self) -> (f64, u64, bool) {
        self.block();
        let blocks: Vec<f64> = self.readings.chunks(ORACLE_BLOCK).map(median).collect();
        let (lo, hi) = blocks
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        let mean = self.readings.iter().sum::<f64>() / self.readings.len().max(1) as f64;
        (mean, self.readings.len() as u64, hi > lo * 1.10)
    }
}

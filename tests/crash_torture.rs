//! Crash-recovery torture harness: the engine, crashed.
//!
//! Seeded workloads of explicit transactions run against a [`Db`]: two
//! tables with an index on a leading and on a non-leading column, up to
//! three transactions open at once, inserts of new rows and re-inserts of
//! rows the engine already shows, commits (tagged or not) and aborts. The
//! engine is then crashed through its chaos hook [`Db::crash_at`] — with
//! the WAL cut at every record boundary past the durable prefix, inside
//! records (torn tails), at the durable prefix after skipped fsyncs, at a
//! torn append, and under a full log device — and recovered. Every
//! scenario asserts:
//!
//! * **committed-durable** — every row of a transaction whose COMMIT
//!   survived the cut is in its table, and every commit the engine
//!   acknowledged survived (unless fsyncs were skipped behind its back);
//! * **uncommitted-invisible** — no other row is, through the relation or
//!   through either index, and the dedup table knows exactly the tagged
//!   commits that survived;
//! * **idempotent** — recovering again changes nothing, and the log ends
//!   at a complete record: the next commit survives the next crash.
//!
//! The oracle is `four_doors`' committed-set model read against the
//! engine's own log: the model records the rows each transaction wrote,
//! and the COMMIT records the cut left say which of those sets count.
//!
//! The failpoint registry is process-global, so every test serializes on
//! a mutex and leaves the registry clean. Pin a run with
//! `BQ_TORTURE_SEED=<n>`; a failing scenario prints the workload seed, the
//! step count, the cut and the armed failpoint policy that replay it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use big_queries::bq_core::{CoreError, TxnHandle};
use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_storage::{LogRecord, StorageError, Wal};
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

/// Base seed for every sweep; override with `BQ_TORTURE_SEED=<n>` to
/// explore new schedules (or to pin a failing one).
fn base_seed() -> u64 {
    std::env::var("BQ_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_805)
}

const TABLES: [&str; 2] = ["t", "u"];
const COLS: [&str; 3] = ["a", "b", "c"];
/// Indexed columns: `a` leads the schema, `c` does not.
const INDEXED: [usize; 2] = [0, 2];
/// Values per column; small, so fresh rows collide with old ones too.
const DOMAIN: [i64; 3] = [6, 3, 5];
const CLIENT: &str = "crash-torture";
/// Steps per workload.
const STEPS: usize = 40;

type Row = [i64; 3];
/// A row and the table it belongs to.
type Entry = (usize, Row);

fn values(row: &Row) -> Vec<Value> {
    row.iter().map(|v| Value::Int(*v)).collect()
}

fn tuple(row: &Row) -> Tuple {
    Tuple::new(values(row))
}

fn new_engine() -> Db {
    let mut db = Db::new();
    for table in TABLES {
        let cols: Vec<(&str, Type)> = COLS.iter().map(|c| (*c, Type::Int)).collect();
        db.create_table(table, &cols).unwrap();
        for col in INDEXED {
            db.create_index(table, COLS[col]).unwrap();
        }
    }
    db
}

/// What the engine must hold.
#[derive(Default)]
struct Model {
    /// Rows each transaction wrote, by id: what its surviving COMMIT
    /// brings back after a crash.
    wrote: BTreeMap<u64, Vec<Entry>>,
    /// Rows the engine shows now: committed in memory, or pending.
    visible: BTreeSet<Entry>,
    /// Commits the engine acknowledged.
    acked: BTreeSet<u64>,
    /// Tagged request id → the transaction it tagged.
    tags: BTreeMap<u64, u64>,
    /// Commits refused with a full device.
    refused: usize,
}

/// One seeded workload against a fresh engine. Failpoints the caller
/// arms fire as its steps run.
struct Run {
    db: Db,
    model: Model,
    rng: SplitMix64,
    open: Vec<TxnHandle>,
}

impl Run {
    fn new(seed: u64) -> Run {
        Run {
            db: new_engine(),
            model: Model::default(),
            rng: SplitMix64::seed_from_u64(seed),
            open: Vec::new(),
        }
    }

    /// The workload of `seed`, `steps` steps in.
    fn replay(seed: u64, steps: usize) -> Run {
        let mut run = Run::new(seed);
        for _ in 0..steps {
            run.step();
        }
        run
    }

    fn step(&mut self) {
        let roll = self.rng.gen_range(100);
        if self.open.is_empty() || (roll < 20 && self.open.len() < 3) {
            // A full device refuses the Begin.
            if let Ok(h) = self.db.begin() {
                self.open.push(h);
            }
            return;
        }
        let i = self.rng.gen_index(self.open.len());
        match roll {
            0..=59 => {
                let visible: Vec<Entry> = self.model.visible.iter().copied().collect();
                let entry = if roll < 45 || visible.is_empty() {
                    let row = [0, 1, 2].map(|c| self.rng.gen_range(DOMAIN[c] as u64) as i64);
                    (self.rng.gen_index(TABLES.len()), row)
                } else {
                    *self.rng.choose(&visible)
                };
                self.insert(self.open[i], entry);
            }
            60..=84 => self.commit(i),
            _ => self.abort(i),
        }
    }

    fn insert(&mut self, h: TxnHandle, entry: Entry) {
        let (t, row) = entry;
        match self.db.insert_in(h, TABLES[t], values(&row)) {
            Ok(()) => {
                // A row the engine already shows is not written again.
                if self.model.visible.insert(entry) {
                    self.model.wrote.entry(h.0).or_default().push(entry);
                }
            }
            // Another open transaction holds the table, or the device
            // refused the row: nothing was written.
            Err(CoreError::Locked { .. } | CoreError::Storage(_)) => {}
            Err(e) => panic!("insert failed: {e}"),
        }
    }

    fn commit(&mut self, i: usize) {
        let h = self.open.swap_remove(i);
        let outcome = if self.rng.gen_bool() {
            let request = self.model.tags.len() as u64 + 1;
            self.model.tags.insert(request, h.0);
            self.db.commit_tagged(h, CLIENT, request)
        } else {
            self.db.commit(h)
        };
        match outcome {
            Ok(()) => {
                self.model.acked.insert(h.0);
            }
            // A full device or a torn log. If it refused the COMMIT
            // record, the transaction rolled back; if it refused only the
            // sync, the commit stands in memory and the log decides it at
            // a crash.
            Err(CoreError::Storage(StorageError::DiskFull | StorageError::TornLog)) => {
                self.model.refused += 1;
                let rows = self.model.wrote.get(&h.0).cloned().unwrap_or_default();
                let shows =
                    |(t, row): &Entry| self.db.table(TABLES[*t]).unwrap().contains(&tuple(row));
                if !rows.iter().all(shows) {
                    self.forget(&rows);
                }
            }
            Err(e) => panic!("commit failed: {e}"),
        }
    }

    fn abort(&mut self, i: usize) {
        let h = self.open.swap_remove(i);
        match self.db.abort(h) {
            // Undo read back a page this very step corrupted.
            Ok(()) | Err(CoreError::Storage(StorageError::Corruption { .. })) => {}
            Err(e) => panic!("abort failed: {e}"),
        }
        let rows = self.model.wrote.get(&h.0).cloned().unwrap_or_default();
        self.forget(&rows);
    }

    fn forget(&mut self, rows: &[Entry]) {
        for entry in rows {
            self.model.visible.remove(entry);
        }
    }
}

/// The byte offset where each record of `log` ends.
fn boundaries(log: &[u8]) -> Vec<usize> {
    let (records, _) = Wal::decode_stream(log).unwrap();
    let ends = records.iter().scan(0, |end, rec| {
        *end += rec.encode().len();
        Some(*end)
    });
    ends.collect()
}

/// Every table, through its relation and both indexes, holds exactly
/// `want`.
fn check_tables(db: &Db, want: &BTreeSet<Entry>, what: &str) {
    for (t, table) in TABLES.iter().enumerate() {
        let rows: Vec<Tuple> = want
            .iter()
            .filter(|(wt, _)| *wt == t)
            .map(|(_, row)| tuple(row))
            .collect();
        assert_eq!(db.table(table).unwrap().tuples(), rows, "{what}: {table}");
        for col in INDEXED {
            for key in 0..DOMAIN[col] {
                let mut hits = db.lookup(table, COLS[col], &Value::Int(key)).unwrap();
                hits.sort();
                let scan: Vec<Tuple> = rows
                    .iter()
                    .filter(|row| row.get(col) == &Value::Int(key))
                    .cloned()
                    .collect();
                assert_eq!(hits, scan, "{what}: {table}.{} = {key}", COLS[col]);
            }
        }
    }
}

/// Crash `run`'s engine with the WAL cut where `cut` says, recover, and
/// hold the result to the model read against the surviving log; then
/// check that recovery is idempotent and that the log takes the next
/// commit. With `acked_durable`, every commit the model saw acknowledged
/// must have survived. `what` names the scenario (workload seed, steps,
/// armed policy); the cut is added to it.
fn crash_and_check(
    run: &mut Run,
    what: &str,
    acked_durable: bool,
    cut: impl FnOnce(&[u8], usize) -> usize,
) {
    let mut survivors = Vec::new();
    let mut at = String::new();
    let losers = run.db.crash_at(|log, synced| {
        let c = cut(log, synced);
        at = format!("cut at byte {c} of {} (synced {synced})", log.len());
        survivors = Wal::decode_stream(&log[..c]).unwrap().0;
        c
    });
    let what = format!("{what}, {at}");
    let losers = losers.unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));

    let (mut begun, mut ended, mut committed) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for rec in &survivors {
        match rec {
            LogRecord::Begin(t) => {
                begun.insert(*t);
            }
            LogRecord::Commit(t) | LogRecord::TaggedCommit { txn: t, .. } => {
                committed.insert(*t);
                ended.insert(*t);
            }
            LogRecord::Abort(t) => {
                ended.insert(*t);
            }
            _ => {}
        }
    }
    let want_losers: Vec<u64> = begun.difference(&ended).copied().collect();
    assert_eq!(losers, want_losers, "{what}: rolled-back transactions");
    if acked_durable {
        let lost: Vec<&u64> = run.model.acked.difference(&committed).collect();
        assert!(
            lost.is_empty(),
            "{what}: acknowledged commits lost: {lost:?}"
        );
    }
    let want: BTreeSet<Entry> = committed
        .iter()
        .filter_map(|t| run.model.wrote.get(t))
        .flatten()
        .copied()
        .collect();
    check_tables(&run.db, &want, &what);
    for (request, txn) in &run.model.tags {
        assert_eq!(
            run.db.seen_request(CLIENT, *request),
            committed.contains(txn),
            "{what}: dedup entry of request {request}"
        );
    }

    // Idempotent: a second recovery from the whole surviving log, in
    // which the losers end with the ABORTs the first one logged.
    let fingerprint = run.db.content_fingerprint();
    assert_eq!(
        run.db.simulate_crash_and_recover().unwrap(),
        Vec::<u64>::new(),
        "{what}: losers rolled back again"
    );
    assert_eq!(run.db.content_fingerprint(), fingerprint, "{what}: re-run");
    check_tables(&run.db, &want, &format!("{what} (re-run)"));

    // The log ends at a complete record: a commit appended now decodes
    // and survives the next crash.
    let marker = (0, [DOMAIN[0], 0, 0]);
    let h = run.db.begin().unwrap();
    run.db.insert_in(h, TABLES[0], values(&marker.1)).unwrap();
    run.db.commit(h).unwrap();
    run.db.crash_at(|_, synced| synced).unwrap();
    let mut want = want;
    want.insert(marker);
    check_tables(&run.db, &want, &format!("{what} (next commit)"));
}

fn replay_line(seed: u64, steps: usize, policy: &str) -> String {
    format!(
        "BQ_TORTURE_SEED={} workload seed {seed}, {steps} steps, armed: {policy}",
        base_seed()
    )
}

/// The tentpole sweep: 8 seeded workloads crashed after every step at
/// every record boundary the crash may cut at — the end of each record
/// past the durable prefix — with nothing armed. Every acknowledged
/// commit survives every one of them.
#[test]
fn crash_sweep_at_every_record_boundary() {
    let _g = serial();
    let mut scenarios = 0usize;
    for s in 0..8u64 {
        let seed = base_seed().wrapping_add(s);
        for steps in 0..=STEPS {
            let what = replay_line(seed, steps, "nothing");
            // The first crash cuts at the end of the log and lists the
            // other boundaries past the durable prefix.
            let mut cuts = Vec::new();
            let mut run = Run::replay(seed, steps);
            crash_and_check(&mut run, &what, true, |log, synced| {
                cuts = boundaries(log);
                cuts.retain(|&b| b >= synced && b < log.len());
                log.len()
            });
            scenarios += 1;
            for cut in cuts {
                let mut run = Run::replay(seed, steps);
                crash_and_check(&mut run, &what, true, |_, _| cut);
                scenarios += 1;
            }
        }
    }
    assert!(scenarios >= 200, "only {scenarios} crash scenarios swept");
}

/// Cuts that land *inside* a record past the durable prefix: the torn
/// record is dropped, the log ends where it began, and everything before
/// it recovers to the oracle.
#[test]
fn torn_mid_record_cuts_recover_the_complete_prefix() {
    let _g = serial();
    let mut scenarios = 0usize;
    for s in 0..8u64 {
        let seed = base_seed().wrapping_add(1000 + s);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for steps in 1..=STEPS {
            let what = replay_line(seed, steps, "nothing");
            let mut run = Run::replay(seed, steps);
            let mut torn = None;
            crash_and_check(&mut run, &what, true, |log, synced| {
                let ends = boundaries(log);
                let starts = std::iter::once(0).chain(ends.iter().copied());
                let records: Vec<(usize, usize)> = starts
                    .zip(ends.iter().copied())
                    .filter(|&(start, end)| start >= synced && end - start >= 2)
                    .collect();
                if records.is_empty() {
                    return log.len();
                }
                let (start, end) = *rng.choose(&records);
                torn = Some(start);
                start + 1 + rng.gen_index(end - start - 1)
            });
            if torn.is_some() {
                scenarios += 1;
            }
        }
    }
    assert!(scenarios >= 50, "only {scenarios} torn-tail scenarios");
}

/// `wal.sync.skip` drops fsyncs at random during the workload; a crash
/// that keeps exactly the durable prefix loses the skipped batches —
/// commits the engine believed durable included — and recovery still
/// matches the committed set of what survived.
#[test]
fn skipped_fsyncs_lose_the_volatile_tail_consistently() {
    let _g = serial();
    let policy = Policy::new(Action::Error, Trigger::Prob(40)).caller_thread();
    let mut fired_total = 0u64;
    let mut scenarios = 0usize;
    for s in 0..25u64 {
        let seed = base_seed().wrapping_add(2000 + s);
        faults::set_seed(seed);
        faults::configure("wal.sync.skip", policy);
        let mut run = Run::replay(seed, STEPS);
        fired_total += faults::fire_count("wal.sync.skip");
        faults::reset();
        let what = replay_line(
            seed,
            STEPS,
            &format!("wal.sync.skip={policy} (fault seed {seed})"),
        );
        // A skipped fsync reports success: acknowledged commits may go.
        crash_and_check(&mut run, &what, false, |_, synced| synced);
        scenarios += 1;
    }
    assert!(fired_total > 0, "the sweep never skipped an fsync");
    assert!(scenarios >= 25);
}

/// `wal.append.torn` tears the nth append mid-record and fails it typed;
/// from then on the log refuses every write, so the rest of the workload
/// runs without a commit being acknowledged, and recovery treats the
/// fragment as end-of-log. Every commit acknowledged before the tear
/// survives.
#[test]
fn torn_appends_are_crashes_at_the_failpoint() {
    let _g = serial();
    let mut scenarios = 0usize;
    for k in 1..=25u64 {
        let seed = base_seed().wrapping_add(3000 + k);
        let policy = Policy::new(Action::Corrupt, Trigger::Nth(k)).caller_thread();
        let mut run = Run::new(seed);
        faults::configure("wal.append.torn", policy);
        let mut steps = 0;
        while steps < STEPS && faults::fire_count("wal.append.torn") == 0 {
            run.step();
            steps += 1;
        }
        let fired = faults::fire_count("wal.append.torn") == 1;
        faults::reset();
        if !fired {
            continue; // the workload made fewer than k appends
        }
        let what = replay_line(seed, STEPS, &format!("wal.append.torn={policy}"));
        let acked = run.model.acked.clone();
        for _ in steps..STEPS {
            run.step();
        }
        assert_eq!(
            run.model.acked, acked,
            "{what}: a commit was acknowledged after the tear"
        );
        let mut fragment = false;
        crash_and_check(&mut run, &what, true, |log, _| {
            fragment = boundaries(log).last() != Some(&log.len());
            log.len()
        });
        assert!(fragment, "{what}: the log ends in a torn fragment");
        scenarios += 1;
    }
    assert!(scenarios >= 20, "only {scenarios} torn-append scenarios");
}

/// `wal.append.enospc` refuses log writes at random: a Begin, a row, a
/// COMMIT record (the transaction rolls back) or a commit's sync (the
/// commit fails typed, its outcome unknown). A crash at the durable
/// prefix loses no commit the engine acknowledged.
#[test]
fn enospc_never_loses_an_acknowledged_commit() {
    let _g = serial();
    let policy = Policy::new(Action::Error, Trigger::Prob(15)).caller_thread();
    let (mut fired_total, mut refused, mut scenarios) = (0u64, 0usize, 0usize);
    for s in 0..25u64 {
        let seed = base_seed().wrapping_add(4000 + s);
        faults::set_seed(seed);
        let mut run = Run::new(seed);
        faults::configure("wal.append.enospc", policy);
        for _ in 0..STEPS {
            run.step();
        }
        fired_total += faults::fire_count("wal.append.enospc");
        faults::reset();
        refused += run.model.refused;
        let what = replay_line(
            seed,
            STEPS,
            &format!("wal.append.enospc={policy} (fault seed {seed})"),
        );
        crash_and_check(&mut run, &what, true, |_, synced| synced);
        scenarios += 1;
    }
    assert!(fired_total > 0, "the sweep never filled the device");
    assert!(refused > 0, "no commit was ever refused");
    assert!(scenarios >= 25);
}

/// `page.write.bitflip` corrupts a heap page as it is written; the
/// recovery pass over the heap finds it and fails typed rather than
/// handing back a table short of the page's rows.
#[test]
fn bit_flipped_pages_fail_recovery_typed() {
    let _g = serial();
    let mut scenarios = 0usize;
    for s in 0..25u64 {
        let seed = base_seed().wrapping_add(5000 + s);
        let policy = Policy::new(Action::Corrupt, Trigger::Nth(1 + s % 5)).caller_thread();
        let mut run = Run::new(seed);
        faults::configure("page.write.bitflip", policy);
        let mut steps = 0;
        // Crash as soon as a page is corrupt, before a step reads it.
        while steps < STEPS && faults::fire_count("page.write.bitflip") == 0 {
            run.step();
            steps += 1;
        }
        let fired = faults::fire_count("page.write.bitflip") == 1;
        faults::reset();
        if !fired {
            continue;
        }
        let what = replay_line(seed, steps, &format!("page.write.bitflip={policy}"));
        match run.db.simulate_crash_and_recover() {
            Err(CoreError::Storage(StorageError::Corruption { .. })) => {}
            other => panic!("{what}: recovery over a corrupt page gave {other:?}"),
        }
        scenarios += 1;
    }
    assert!(scenarios >= 15, "only {scenarios} bit-flip scenarios");
}

/// The zero-overhead claim: with every site disarmed, a workload and its
/// crash end byte-identical to a run where the registry was never
/// touched, and nothing fires.
#[test]
fn disarmed_failpoints_change_nothing() {
    let _g = serial();
    let seed = base_seed().wrapping_add(6000);
    let fingerprint = || {
        let mut run = Run::replay(seed, STEPS);
        let live = run.db.content_fingerprint();
        let losers = run.db.simulate_crash_and_recover().unwrap();
        (
            live,
            losers,
            run.db.content_fingerprint(),
            run.model.visible,
        )
    };

    assert!(!faults::armed());
    let before = bq_obs::global().snapshot();
    let a = fingerprint();

    // Arm, fire, and disarm a site in between the two measured runs; the
    // registry must return to perfect transparency.
    faults::configure(
        "wal.append.torn",
        Policy::new(Action::Corrupt, Trigger::Always),
    );
    let mut scratch = Wal::new();
    // Corrupt-armed: the append tears and fails typed.
    assert_eq!(
        scratch.append(&LogRecord::Begin(1)),
        Err(StorageError::TornLog)
    );
    assert_eq!(faults::fire_count("wal.append.torn"), 1);
    faults::reset();

    let b = fingerprint();
    let after = bq_obs::global().snapshot();
    assert_eq!(a, b, "disarmed failpoints perturbed a workload");
    // The two fingerprint runs themselves fired nothing.
    assert_eq!(
        after.get("bq_faults_fired_total") - before.get("bq_faults_fired_total"),
        1,
        "only the deliberately armed fire in between is counted"
    );
    assert!(!faults::armed());
}

/// The resurrection a crash could cause when it keeps a heap record but
/// cuts off the log records that own it: a transaction's Begin and
/// RowInsert sit in the unsynced tail, its row sits in the heap, and the
/// crash keeps only the durable prefix. The row stays gone.
#[test]
fn a_row_whose_begin_was_cut_off_stays_gone() {
    let _g = serial();
    let mut db = new_engine();
    let h = db.begin().unwrap();
    db.insert_in(h, "t", vec![Value::Int(1), Value::Int(1), Value::Int(1)])
        .unwrap();
    db.commit(h).unwrap();
    let loser = db.begin().unwrap();
    db.insert_in(
        loser,
        "t",
        vec![Value::Int(2), Value::Int(2), Value::Int(2)],
    )
    .unwrap();

    let losers = db.crash_at(|_, synced| synced).unwrap();
    assert!(losers.is_empty(), "the log no longer knows the loser");
    let rows = db.table("t").unwrap().tuples();
    assert_eq!(rows, vec![tuple(&[1, 1, 1])]);
    assert!(db.lookup("t", "a", &Value::Int(2)).unwrap().is_empty());
    assert_eq!(db.simulate_crash_and_recover().unwrap(), Vec::<u64>::new());
    assert_eq!(db.table("t").unwrap().tuples(), rows, "and stays gone");
}

/// A snapshot carries an open transaction's pending rows. The engine it
/// bootstraps holds them as that transaction's, so a crash rolls them
/// back instead of keeping them as committed rows.
#[test]
fn a_bootstrapped_engine_rolls_back_pending_rows_in_a_crash() {
    let _g = serial();
    let mut primary = new_engine();
    primary
        .insert("t", vec![Value::Int(1), Value::Int(1), Value::Int(1)])
        .unwrap();
    let open = primary.begin().unwrap();
    primary
        .insert_in(open, "u", vec![Value::Int(2), Value::Int(2), Value::Int(2)])
        .unwrap();
    let committed = primary.content_fingerprint();

    let mut replica = Db::new();
    replica
        .apply_snapshot(&primary.snapshot_bytes().unwrap())
        .unwrap();
    assert_eq!(replica.row_count("u").unwrap(), 1, "the pending row ships");
    assert_eq!(replica.simulate_crash_and_recover().unwrap(), vec![open.0]);
    assert_eq!(replica.row_count("u").unwrap(), 0);
    assert!(replica.lookup("u", "c", &Value::Int(2)).unwrap().is_empty());
    assert_eq!(replica.content_fingerprint(), committed);
}

/// The guard beside the two above: an engine bootstrapped from a
/// snapshot and one restored from a backup each keep every committed row
/// and dedup entry across a crash — even one that keeps only the durable
/// prefix, since the image they load is logged and synced.
#[test]
fn restored_engines_keep_every_row_across_a_crash() {
    let _g = serial();
    let mut primary = new_engine();
    for i in 0..5 {
        primary
            .insert("t", vec![Value::Int(i), Value::Int(i % 3), Value::Int(i)])
            .unwrap();
    }
    let h = primary.begin().unwrap();
    primary
        .insert_in(h, "u", vec![Value::Int(9), Value::Int(0), Value::Int(4)])
        .unwrap();
    primary.commit_tagged(h, CLIENT, 1).unwrap();
    let want = primary.content_fingerprint();
    let image = primary.snapshot_bytes().unwrap();

    let primary = RwLock::new(primary);
    let archive = Arc::new(MemArchive::new());
    let registry = primary.read().unwrap().backup_registry();
    let engine = BackupEngine::new(archive, registry);
    engine.backup_full(&primary).unwrap();
    let (restored, _) = engine.restore_latest().unwrap();
    let mut bootstrapped = Db::new();
    bootstrapped.apply_snapshot(&image).unwrap();

    for (what, mut db) in [("bootstrapped", bootstrapped), ("restored", restored)] {
        assert_eq!(db.content_fingerprint(), want, "{what}");
        for cut in ["durable prefix", "whole log"] {
            let losers = match cut {
                "durable prefix" => db.crash_at(|_, synced| synced),
                _ => db.simulate_crash_and_recover(),
            };
            assert!(losers.unwrap().is_empty(), "{what}, {cut}");
            assert_eq!(db.content_fingerprint(), want, "{what}, {cut}");
            assert_eq!(db.lookup("t", "c", &Value::Int(3)).unwrap().len(), 1);
            assert!(db.seen_request(CLIENT, 1), "{what}, {cut}: dedup entry");
        }
    }
}

/// A commit whose sync fails is refused typed — not acknowledged — while
/// it stands in memory. A tagged retry is answered "already applied" only
/// once a sync covers the commit; a crash before that loses the commit,
/// and the retry then applies it afresh.
#[test]
fn an_unsynced_commit_fails_typed_and_a_tagged_retry_resolves_it() {
    let _g = serial();
    let row = vec![Value::Int(3), Value::Int(1), Value::Int(2)];
    // The second hit on the site after arming is the commit's sync; the
    // first is its COMMIT record, which goes through.
    let sync_fails = Policy::new(Action::Error, Trigger::Nth(2)).caller_thread();
    let full = Policy::new(Action::Error, Trigger::Always).caller_thread();

    for crash_first in [false, true] {
        let mut db = new_engine();
        let h = db.begin().unwrap();
        db.insert_in(h, "t", row.clone()).unwrap();
        faults::configure("wal.append.enospc", sync_fails);
        let err = db.commit_tagged(h, CLIENT, 7).unwrap_err();
        faults::reset();
        assert!(
            matches!(err, CoreError::Storage(StorageError::DiskFull)),
            "{err}"
        );
        assert_eq!(db.row_count("t").unwrap(), 1, "applied in memory");
        assert!(db.seen_request(CLIENT, 7));

        if crash_first {
            // The COMMIT record was never durable: the crash loses it, and
            // with it the dedup entry; the retry applies the row again.
            db.crash_at(|_, synced| synced).unwrap();
            assert_eq!(db.row_count("t").unwrap(), 0);
            assert!(!db.seen_durably(CLIENT, 7).unwrap());
            db.insert_tagged("t", row.clone(), CLIENT, 7).unwrap();
        } else {
            // While the device stays full the retry cannot be answered.
            faults::configure("wal.append.enospc", full);
            assert!(db.seen_durably(CLIENT, 7).is_err());
            faults::reset();
            assert!(db.seen_durably(CLIENT, 7).unwrap(), "already applied");
        }
        db.crash_at(|_, synced| synced).unwrap();
        assert_eq!(
            db.table("t").unwrap().tuples(),
            vec![Tuple::new(row.clone())]
        );
        assert!(db.seen_request(CLIENT, 7));
    }
}

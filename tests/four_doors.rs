//! Four doors, one room: a row can enter a table through a local insert,
//! a shipped log record, a bootstrap snapshot, or a rebuild (crash
//! recovery from the heap, scrub from the relation). This seeded
//! differential drives one random stream of transactions — heavy on
//! re-inserts of rows the table already holds, committed or pending —
//! and checks that every door leads to the same table.
//!
//! Five engines must agree on `content_fingerprint`, `row_count`,
//! `select *` and `lookup` of every key of an indexed leading and an
//! indexed non-leading column: the primary, a replica fed record by
//! record, a replica bootstrapped from a snapshot mid-stream, the primary
//! after `simulate_crash_and_recover`, and a primary after
//! `corrupt_page` + `scrub_pages`. A model (committed set + pending set
//! per transaction) pins what they agree *on*.
//!
//! Pin a run with `BQ_TORTURE_SEED=<n>`.

use std::collections::{BTreeMap, BTreeSet};

use big_queries::bq_core::{CoreError, TxnHandle};
use big_queries::bq_storage::wal::Wal;
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

const TABLES: [&str; 2] = ["t", "u"];
const COLS: [&str; 3] = ["a", "b", "c"];
/// Indexed columns: `a` leads the schema, `c` does not.
const INDEXED: [usize; 2] = [0, 2];
/// Values per column; small, so fresh rows collide with old ones too.
const DOMAIN: [i64; 3] = [6, 3, 5];
const CLIENT: &str = "four-doors";

type Row = [i64; 3];

fn base_seed() -> u64 {
    std::env::var("BQ_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_805)
}

fn values(row: &Row) -> Vec<Value> {
    row.iter().map(|v| Value::Int(*v)).collect()
}

fn new_primary() -> Db {
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

/// Everything the engines must agree on, per table.
#[derive(Debug, PartialEq)]
struct View {
    fingerprint: u64,
    rows: Vec<usize>,
    select: Vec<Relation>,
    /// `(table, column, key)` → sorted hits.
    lookups: BTreeMap<(usize, usize, i64), Vec<Tuple>>,
}

fn view(db: &Db) -> View {
    let mut lookups = BTreeMap::new();
    for (t, table) in TABLES.iter().enumerate() {
        for col in INDEXED {
            assert!(db.has_index(table, COLS[col]));
            for key in 0..DOMAIN[col] {
                let mut hits = db.lookup(table, COLS[col], &Value::Int(key)).unwrap();
                hits.sort();
                lookups.insert((t, col, key), hits);
            }
        }
    }
    View {
        fingerprint: db.content_fingerprint(),
        rows: TABLES.iter().map(|t| db.row_count(t).unwrap()).collect(),
        select: TABLES
            .iter()
            .map(|t| db.sql(&format!("select x.a, x.b, x.c from {t} x")).unwrap())
            .collect(),
        lookups,
    }
}

/// What the tables must hold: committed rows, and per open transaction
/// the rows it has pending. A row lives in exactly one of them.
#[derive(Default)]
struct Model {
    committed: BTreeSet<(usize, Row)>,
    pending: BTreeMap<u64, Vec<(usize, Row)>>,
}

impl Model {
    fn holds(&self, entry: &(usize, Row)) -> bool {
        self.committed.contains(entry) || self.pending.values().flatten().any(|e| e == entry)
    }

    fn visible(&self) -> BTreeSet<(usize, Row)> {
        let pending = self.pending.values().flatten().copied();
        self.committed.iter().copied().chain(pending).collect()
    }

    fn check(&self, db: &Db, what: &str) {
        let want = self.visible();
        for (t, table) in TABLES.iter().enumerate() {
            let got: Vec<Tuple> = db.table(table).unwrap().tuples();
            let want: Vec<Tuple> = want
                .iter()
                .filter(|(wt, _)| *wt == t)
                .map(|(_, row)| Tuple::new(values(row)))
                .collect();
            assert_eq!(got, want, "{what}: contents of {table}");
            for col in INDEXED {
                for key in 0..DOMAIN[col] {
                    let mut hits = db.lookup(table, COLS[col], &Value::Int(key)).unwrap();
                    hits.sort();
                    let scan: Vec<Tuple> = want
                        .iter()
                        .filter(|row| row.get(col) == &Value::Int(key))
                        .cloned()
                        .collect();
                    assert_eq!(hits, scan, "{what}: {table}.{} = {key}", COLS[col]);
                }
            }
        }
    }
}

/// Ship every durable WAL byte past `from` into `dst`, one record at a
/// time; returns the new offset.
fn ship(src: &Db, dst: &mut Db, from: u64) -> u64 {
    let chunk = src.wal_durable_bytes(from, usize::MAX);
    let (records, consumed) = Wal::decode_stream(&chunk).unwrap();
    for rec in &records {
        dst.apply_record(rec).unwrap();
    }
    from + consumed as u64
}

struct Round {
    rng: SplitMix64,
    model: Model,
    primary: Db,
    /// A second primary fed the same calls: the one that gets scrubbed
    /// (a scrub moves rows without logging, so it is kept off the engine
    /// whose WAL the crash is replayed from).
    twin: Db,
    replica: Db,
    replica_at: u64,
    /// Bootstrapped from a snapshot mid-stream.
    late: Option<(Db, u64)>,
    open: Vec<TxnHandle>,
    tagged: u64,
}

impl Round {
    fn new(seed: u64) -> Round {
        // Index definitions travel by snapshot only, so the shipped
        // replica starts from one too — of the still-empty tables.
        let mut primary = new_primary();
        let mut replica = Db::new();
        let replica_at = replica
            .apply_snapshot(&primary.snapshot_bytes().unwrap())
            .unwrap();
        Round {
            rng: SplitMix64::seed_from_u64(seed),
            model: Model::default(),
            primary,
            twin: new_primary(),
            replica,
            replica_at,
            late: None,
            open: Vec::new(),
            tagged: 0,
        }
    }

    /// Apply one call to both primaries; they must answer alike.
    fn both<T>(&mut self, f: impl Fn(&mut Db) -> Result<T, CoreError>) -> Result<T, CoreError> {
        let out = f(&mut self.primary);
        let twin = f(&mut self.twin);
        assert_eq!(out.is_ok(), twin.is_ok(), "primaries diverged");
        out
    }

    fn fresh_row(&mut self) -> (usize, Row) {
        let row = [0, 1, 2].map(|c| self.rng.gen_range(DOMAIN[c] as u64) as i64);
        (self.rng.gen_index(TABLES.len()), row)
    }

    /// Insert in `h`, or autocommit when `h` is `None`.
    fn insert(&mut self, h: Option<TxnHandle>, entry: (usize, Row)) {
        let (t, row) = entry;
        let out = match h {
            Some(h) => self.both(|db| db.insert_in(h, TABLES[t], values(&row))),
            None => self.both(|db| db.insert(TABLES[t], values(&row))),
        };
        match out {
            Ok(()) if self.model.holds(&entry) => {}
            Ok(()) => match h {
                Some(h) => self.model.pending.entry(h.0).or_default().push(entry),
                None => {
                    self.model.committed.insert(entry);
                }
            },
            // Another open transaction holds the table.
            Err(CoreError::Locked { .. }) => {}
            Err(e) => panic!("insert failed: {e}"),
        }
    }

    fn finish(&mut self, i: usize, commit: bool) {
        let h = self.open.swap_remove(i);
        let rows = self.model.pending.remove(&h.0).unwrap_or_default();
        if !commit {
            self.both(|db| db.abort(h)).unwrap();
            return;
        }
        if self.rng.gen_bool() {
            self.tagged += 1;
            let request = self.tagged;
            self.both(|db| db.commit_tagged(h, CLIENT, request))
                .unwrap();
        } else {
            self.both(|db| db.commit(h)).unwrap();
        }
        self.model.committed.extend(rows);
    }

    fn step(&mut self) {
        let some_txn = (!self.open.is_empty()).then(|| *self.rng.choose(&self.open));
        match self.rng.gen_range(100) {
            0..=11 if self.open.len() < 3 => {
                let h = self.both(|db| db.begin()).unwrap();
                self.open.push(h);
            }
            // A row that may or may not be new.
            0..=39 => {
                let entry = self.fresh_row();
                self.insert(some_txn, entry);
            }
            // Re-insert of a committed row.
            40..=59 if !self.model.committed.is_empty() => {
                let committed: Vec<_> = self.model.committed.iter().copied().collect();
                let entry = *self.rng.choose(&committed);
                self.insert(some_txn, entry);
            }
            // Re-insert of a row inside the transaction that wrote it.
            60..=74 => {
                let mine = some_txn.and_then(|h| Some((h, self.model.pending.get(&h.0)?.clone())));
                if let Some((h, rows)) = mine.filter(|(_, rows)| !rows.is_empty()) {
                    let entry = *self.rng.choose(&rows);
                    self.insert(Some(h), entry);
                }
            }
            75..=89 if !self.open.is_empty() => {
                let i = self.rng.gen_index(self.open.len());
                self.finish(i, true);
            }
            _ if !self.open.is_empty() => {
                let i = self.rng.gen_index(self.open.len());
                self.finish(i, false);
            }
            _ => {}
        }
    }

    /// Bring the replicas level with the primary and compare everyone.
    fn checkpoint(&mut self, what: &str) {
        self.primary.sync_wal().unwrap();
        self.replica_at = ship(&self.primary, &mut self.replica, self.replica_at);
        if let Some((late, at)) = &mut self.late {
            *at = ship(&self.primary, late, *at);
        }
        self.compare(what);
    }

    fn compare(&self, what: &str) {
        self.model.check(&self.primary, what);
        let want = view(&self.primary);
        assert_eq!(view(&self.twin), want, "{what}: twin primary");
        assert_eq!(view(&self.replica), want, "{what}: shipped replica");
        if let Some((late, _)) = &self.late {
            assert_eq!(view(late), want, "{what}: snapshot replica");
        }
    }

    fn bootstrap_late(&mut self) {
        let snapshot = self.primary.snapshot_bytes().unwrap();
        let mut late = Db::new();
        let at = late.apply_snapshot(&snapshot).unwrap();
        self.late = Some((late, at));
    }
}

fn run_round(seed: u64) {
    const STEPS: usize = 160;
    let mut r = Round::new(seed);
    for step in 0..STEPS {
        r.step();
        if step == STEPS / 2 {
            r.bootstrap_late();
        }
        if step % 20 == 19 {
            r.checkpoint(&format!("seed {seed} step {step}"));
        }
    }
    let what = format!("seed {seed} at the end");
    r.checkpoint(&what);

    // Door four, from the relation: scrub rewrites every page and keeps
    // committed and pending rows alike.
    r.twin.corrupt_page(0).unwrap();
    let (_, restored) = r.twin.scrub_pages().unwrap();
    assert!(restored > 0, "{what}: page 0 exists and was corrupted");
    r.compare(&format!("{what}, twin scrubbed"));

    // Door four, from the heap: a crash keeps exactly the committed rows,
    // which is what the others hold once they abort what is open.
    let before = r.primary.content_fingerprint();
    r.primary.simulate_crash_and_recover().unwrap();
    assert_eq!(r.primary.content_fingerprint(), before, "{what}: crash");
    r.model.pending.clear();
    r.twin.promote().unwrap();
    r.replica.promote().unwrap();
    if let Some((late, _)) = &mut r.late {
        late.promote().unwrap();
    }
    r.compare(&format!("{what}, after the crash"));
    for request in 1..=r.tagged {
        assert!(r.replica.seen_request(CLIENT, request), "{what}: dedup");
    }
}

#[test]
fn four_doors_one_room() {
    let base = base_seed();
    for round in 0..24 {
        run_round(base.wrapping_add(round));
    }
}

//! Seeded generators: table contents and statement streams per workload.
//!
//! Everything here is a pure function of the seed. The engine only ever
//! receives what these functions produce, never the seed itself.

use bq_relational::Value;
use bq_util::{Rng, SplitMix64};

/// One all-integer row. Integer columns make every encoded tuple the same
/// length, which is what lets the byte-ratio metrics repeat exactly.
pub type Row = Vec<i64>;

pub fn values(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&i| Value::Int(i)).collect()
}

/// Independent stream per (seed, purpose, offset): adding a draw to one
/// stream never shifts another, and a row range that starts at `offset`
/// does not repeat the draws of the range before it.
fn rng(seed: u64, purpose: u64, offset: u64) -> SplitMix64 {
    let by_purpose = SplitMix64::seed_from_u64(seed).next_u64() ^ purpose;
    SplitMix64::seed_from_u64(SplitMix64::seed_from_u64(by_purpose).next_u64() ^ offset)
}

/// `fact(id, k, v)`: `k` joins to `dim`, `v` lies in `0..1000`. Both
/// columns are seeded shuffles of an exactly even spread, so a predicate
/// like `v > 900` selects the same number of rows under every seed: seeds
/// change which rows qualify, never how much work a statement is.
pub fn fact_rows(seed: u64, n: u64, dim_rows: u64) -> Vec<Row> {
    let mut r = rng(seed, 1, 0);
    let mut spread = |modulus: u64| {
        let mut column: Vec<i64> = (0..n).map(|i| (i % modulus) as i64).collect();
        r.shuffle(&mut column);
        column
    };
    let (k, v) = (spread(dim_rows), spread(1000));
    (0..n as usize)
        .map(|i| vec![i as i64, k[i], v[i]])
        .collect()
}

/// `dim(k, grp)`: one row per join key.
pub fn dim_rows(n: u64) -> Vec<Row> {
    (0..n as i64).map(|k| vec![k, k % 13]).collect()
}

/// `orders(id, cust, amt)` rows with ids `first..first + n`.
pub fn order_rows(seed: u64, first: i64, n: u64) -> Vec<Row> {
    let mut r = rng(seed, 2, first as u64);
    (first..first + n as i64)
        .map(|id| vec![id, r.gen_range(1000) as i64, r.gen_range(10_000) as i64])
        .collect()
}

/// `ledger(account, delta)` rows numbered `first..first + n`. Tables are
/// sets, so `delta` carries the row number to keep every row distinct.
pub fn ledger_rows(seed: u64, first: i64, n: u64) -> Vec<Row> {
    let mut r = rng(seed, 3, first as u64);
    (first..first + n as i64)
        .map(|i| vec![r.gen_range(500) as i64, i * 1000 + r.gen_range(1000) as i64])
        .collect()
}

pub fn insert_sql(table: &str, row: &[i64]) -> String {
    let vals: Vec<String> = row.iter().map(i64::to_string).collect();
    format!("insert into {table} values ({})", vals.join(", "))
}

pub fn point_sql(id: i64) -> String {
    format!("select f.id, f.k, f.v from fact f where f.id = {id}")
}

pub fn range_sql(threshold: i64) -> String {
    format!("select f.id, f.k, f.v from fact f where f.v > {threshold}")
}

pub fn star_sql(threshold: i64) -> String {
    format!("select f.id, d.grp from fact f, dim d where f.k = d.k and f.v > {threshold}")
}

/// One read of the `point-read` mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// `where f.id = ?` as statement text (1 row).
    Point(i64),
    /// The same through `prepare` / `execute_prepared`: index into the
    /// session's prepared pool.
    Prepared(usize),
    /// `where f.v > ?` (~1% of the rows).
    Range(i64),
    /// One star join (only `mixed-rw` asks for these).
    Star(i64),
}

/// Ids whose point selects a session prepares up front. Prepared
/// statements carry no parameters, so the pool is the parameter space.
pub fn prepared_pool(seed: u64, fact_rows: u64, n: usize) -> Vec<i64> {
    let mut r = rng(seed, 4, 0);
    (0..n).map(|_| r.gen_range(fact_rows) as i64).collect()
}

/// The `point-read` mix: 60% point selects, 20% prepared, 20% small
/// ranges — exactly, in every block of ten, in seeded order; with
/// `star_every = Some(n)`, every n-th op is a star join instead.
pub struct ReadStream {
    rng: SplitMix64,
    fact_rows: u64,
    pool: usize,
    star_every: Option<u64>,
    issued: u64,
    /// The kinds left in the current block of ten.
    block: Vec<u8>,
}

impl ReadStream {
    pub fn new(seed: u64, fact_rows: u64, pool: usize, star_every: Option<u64>) -> ReadStream {
        ReadStream {
            rng: rng(seed, 5, 0),
            fact_rows,
            pool,
            star_every,
            issued: 0,
            block: Vec::new(),
        }
    }
}

/// Refill `block` with `shares[i]` copies of kind `i`, in seeded order.
fn refill(block: &mut Vec<u8>, shares: &[usize], rng: &mut SplitMix64) {
    for (kind, &share) in shares.iter().enumerate() {
        block.extend(std::iter::repeat_n(kind as u8, share));
    }
    rng.shuffle(block);
}

impl Iterator for ReadStream {
    type Item = ReadOp;

    fn next(&mut self) -> Option<ReadOp> {
        self.issued += 1;
        if self
            .star_every
            .is_some_and(|n| self.issued.is_multiple_of(n))
        {
            return Some(ReadOp::Star(900));
        }
        if self.block.is_empty() {
            refill(&mut self.block, &[6, 2, 2], &mut self.rng);
        }
        Some(match self.block.pop() {
            Some(0) => ReadOp::Point(self.rng.gen_range(self.fact_rows) as i64),
            Some(1) => ReadOp::Prepared(self.rng.gen_index(self.pool)),
            _ => ReadOp::Range(985 + self.rng.gen_range(10) as i64),
        })
    }
}

/// One named statement shape of `analytic-join`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub sql: String,
}

/// The five `analytic-join` shapes, followed by the order in which one
/// cycle of ten statements runs them: 4 star joins, 2 three-way
/// self-joins, 3 set operations, 1 export. Their constants are fixed: with
/// `fact`'s evenly spread columns every seed gives each statement the same
/// input sizes, and the seed decides only which rows they are.
pub fn analytic_shapes(dim_rows: u64) -> (Vec<Shape>, [usize; 10]) {
    let (star, three, lo) = (900, 990, 500);
    let key = (dim_rows / 10) as i64;
    let shapes = vec![
        Shape {
            name: "star",
            sql: star_sql(star),
        },
        Shape {
            name: "threeway",
            sql: format!(
                "select f.id as a, g.id as b from fact f, dim d, fact g \
                 where f.k = d.k and g.k = d.k and f.v > {three} and g.v > {three}"
            ),
        },
        Shape {
            name: "union",
            sql: format!(
                "select f.id from fact f where f.v > {lo} \
                 union select f.id from fact f where f.k < {key}"
            ),
        },
        Shape {
            name: "except",
            sql: format!(
                "select f.id from fact f where f.v > {lo} \
                 except select f.id from fact f where f.k < {}",
                key * 4
            ),
        },
        Shape {
            name: "export",
            sql: "select f.id, f.k, f.v from fact f".to_string(),
        },
    ];
    (shapes, [0, 2, 0, 1, 3, 0, 4, 0, 1, 2])
}

/// One write operation; a transaction is one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Autocommit `insert`.
    Auto(Row),
    /// `execute_tagged` insert with its request id.
    Tagged(Row, u64),
    /// `begin`, the inserts, then `commit` or `rollback`.
    Txn { rows: Vec<Row>, commit: bool },
}

impl WriteOp {
    pub fn rows(&self) -> &[Row] {
        match self {
            WriteOp::Auto(row) | WriteOp::Tagged(row, _) => std::slice::from_ref(row),
            WriteOp::Txn { rows, .. } => rows,
        }
    }

    /// Does the op leave its rows in the table?
    pub fn commits(&self) -> bool {
        !matches!(self, WriteOp::Txn { commit: false, .. })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMix {
    /// 70% autocommit, 20% tagged, 8% 5-row commit, 2% 5-row rollback —
    /// exactly, in every block of a hundred ops, in seeded order.
    Heavy,
    AutoOnly,
    TaggedOnly,
}

/// Rows a transaction of the `Heavy` mix inserts.
pub const TXN_ROWS: u64 = 5;

/// An endless stream of writes into `orders` or `ledger`, numbering its
/// rows from `first` so no two ops of a run collide.
pub struct WriteStream {
    rng: SplitMix64,
    seed: u64,
    ledger: bool,
    next_row: i64,
    next_request: u64,
    mix: WriteMix,
    /// The kinds left in the current block of a hundred (`Heavy` only).
    block: Vec<u8>,
}

impl WriteStream {
    pub fn orders(seed: u64, first: i64, mix: WriteMix) -> WriteStream {
        WriteStream {
            rng: rng(seed, 7, 0),
            seed,
            ledger: false,
            next_row: first,
            next_request: 1,
            mix,
            block: Vec::new(),
        }
    }

    pub fn ledger(seed: u64, first: i64, mix: WriteMix) -> WriteStream {
        WriteStream {
            ledger: true,
            ..WriteStream::orders(seed, first, mix)
        }
    }

    fn take_rows(&mut self, n: u64) -> Vec<Row> {
        let first = self.next_row;
        self.next_row += n as i64;
        if self.ledger {
            ledger_rows(self.seed, first, n)
        } else {
            order_rows(self.seed, first, n)
        }
    }

    fn take_row(&mut self) -> Row {
        self.take_rows(1).remove(0)
    }

    fn tagged(&mut self) -> WriteOp {
        let request = self.next_request;
        self.next_request += 1;
        WriteOp::Tagged(self.take_row(), request)
    }
}

impl Iterator for WriteStream {
    type Item = WriteOp;

    fn next(&mut self) -> Option<WriteOp> {
        Some(match self.mix {
            WriteMix::AutoOnly => WriteOp::Auto(self.take_row()),
            WriteMix::TaggedOnly => self.tagged(),
            WriteMix::Heavy => {
                if self.block.is_empty() {
                    refill(&mut self.block, &[70, 20, 8, 2], &mut self.rng);
                }
                match self.block.pop() {
                    Some(0) => WriteOp::Auto(self.take_row()),
                    Some(1) => self.tagged(),
                    kind => WriteOp::Txn {
                        rows: self.take_rows(TXN_ROWS),
                        commit: kind == Some(2),
                    },
                }
            }
        })
    }
}

/// FNV-1a over every table and the head of every statement stream a seed
/// produces: the "same seed, same bytes" witness the unit test pins.
pub fn stream_hash(seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |text: &str| {
        for b in text.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in fact_rows(seed, 200, 50) {
        mix(&insert_sql("fact", &row));
    }
    for row in dim_rows(50) {
        mix(&insert_sql("dim", &row));
    }
    for row in order_rows(seed, 0, 100) {
        mix(&insert_sql("orders", &row));
    }
    for row in ledger_rows(seed, 0, 100) {
        mix(&insert_sql("ledger", &row));
    }
    for id in prepared_pool(seed, 200, 16) {
        mix(&point_sql(id));
    }
    for op in ReadStream::new(seed, 200, 16, Some(50)).take(300) {
        mix(&format!("{op:?}"));
    }
    let (shapes, cycle) = analytic_shapes(50);
    for shape in &shapes {
        mix(&shape.sql);
    }
    mix(&format!("{cycle:?}"));
    for op in WriteStream::orders(seed, 100, WriteMix::Heavy).take(300) {
        mix(&format!("{op:?}"));
    }
    for op in WriteStream::ledger(seed, 100, WriteMix::TaggedOnly).take(100) {
        mix(&format!("{op:?}"));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_stream_and_the_hash_is_pinned() {
        assert_eq!(stream_hash(1995), stream_hash(1995));
        assert_ne!(stream_hash(1995), stream_hash(1996));
        // Pinned: a change here means every committed baseline was taken
        // on different inputs and must be measured again.
        assert_eq!(stream_hash(1995), PINNED_HASH_SEED_1995);
    }

    const PINNED_HASH_SEED_1995: u64 = 15_400_132_434_544_657_858;

    #[test]
    fn write_streams_never_repeat_a_row() {
        let mut seen = BTreeSet::new();
        for op in WriteStream::orders(7, 40, WriteMix::Heavy).take(500) {
            for row in op.rows() {
                assert!(row[0] >= 40);
                assert!(seen.insert(row.clone()), "duplicate {row:?}");
            }
        }
        let preload: BTreeSet<Row> = ledger_rows(7, 0, 300).into_iter().collect();
        assert_eq!(preload.len(), 300);
        for op in WriteStream::ledger(7, 300, WriteMix::TaggedOnly).take(300) {
            assert!(matches!(op, WriteOp::Tagged(..)));
            assert!(!preload.contains(&op.rows()[0]));
        }
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let ops: Vec<WriteOp> = WriteStream::orders(3, 0, WriteMix::Heavy)
            .take(4000)
            .collect();
        let share = |f: fn(&WriteOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 4000.0;
        assert_eq!(share(|o| matches!(o, WriteOp::Auto(_))), 0.70);
        assert_eq!(share(|o| matches!(o, WriteOp::Tagged(..))), 0.20);
        assert_eq!(share(|o| !o.commits()), 0.02);
        let reads: Vec<ReadOp> = ReadStream::new(3, 1000, 8, Some(50)).take(5000).collect();
        let stars = reads
            .iter()
            .filter(|r| matches!(r, ReadOp::Star(_)))
            .count();
        assert_eq!(stars, 100);
        let points = reads
            .iter()
            .filter(|r| matches!(r, ReadOp::Point(_)))
            .count();
        assert!((points as f64 / 4900.0 - 0.60).abs() < 0.01);
        // Evenly spread columns: the same selectivity under every seed.
        for seed in [1, 2] {
            let fact = fact_rows(seed, 2000, 50);
            assert_eq!(fact.iter().filter(|r| r[2] > 900).count(), 198);
            assert_eq!(fact.iter().filter(|r| r[1] == 7).count(), 40);
        }
    }
}

//! Crash-recovery torture harness.
//!
//! Hundreds of seeded scenarios drive the fault-injection layer
//! (`bq-faults`) end to end: randomized multi-transaction workloads are
//! logged to a [`Wal`], crashed at every record boundary and at torn
//! mid-record offsets, and recovered, asserting the durability invariant
//! each time:
//!
//! * **committed-durable** — every transaction whose COMMIT reached the
//!   surviving log prefix is fully applied;
//! * **uncommitted-invisible** — no effect of any other transaction is
//!   visible;
//! * **idempotent** — recovering a second time changes nothing.
//!
//! The oracle is *committed-only replay*: apply, in log order, exactly the
//! updates of transactions that committed within the surviving prefix.
//! The workload generator enforces strict 2PL at page granularity (a page
//! is owned by at most one active transaction, and runtime aborts revert
//! their writes before releasing), which is what makes physical-undo
//! recovery and committed-only replay provably coincide.
//!
//! The failpoint registry is process-global, so every test serializes on
//! a mutex and leaves the registry clean. Pin a run with
//! `BQ_TORTURE_SEED=<n>`; the default keeps CI deterministic.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_storage::page::{PageId, PageStore, PAYLOAD_SIZE};
use big_queries::bq_storage::wal::{LogRecord, RecoveryReport, TxnId, Wal};
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

const N_PAGES: usize = 4;

struct TortureLog {
    wal: Wal,
    /// `wal.byte_len()` after each append — the record boundaries the
    /// crash sweep cuts at.
    boundaries: Vec<usize>,
}

/// A transaction's undo list: `(page, offset, before-image)` per update.
type UndoList = Vec<(usize, usize, Vec<u8>)>;

fn log(wal: &mut Wal, boundaries: &mut Vec<usize>, rec: &LogRecord) {
    wal.append(rec).unwrap();
    boundaries.push(wal.byte_len());
}

/// Generate a randomized multi-transaction workload: up to three
/// concurrent transactions under strict page-level 2PL, each appending
/// physical updates, committing (with an fsync), aborting (reverting its
/// writes), or still in flight when the log ends.
fn gen_workload(seed: u64) -> TortureLog {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut wal = Wal::new();
    let mut boundaries = Vec::new();
    // Runtime page images with every update applied as it happens; the
    // source of accurate before-images.
    let mut images = vec![vec![0u8; PAYLOAD_SIZE]; N_PAGES];
    let mut owner: Vec<Option<TxnId>> = vec![None; N_PAGES];
    // Active transactions with their undo lists (page, offset, before).
    let mut active: Vec<(TxnId, UndoList)> = Vec::new();
    let mut next_txn: TxnId = 1;

    let steps = 30 + rng.gen_index(21);
    for _ in 0..steps {
        let roll = rng.gen_range(100);
        let mut free: Vec<usize> = (0..N_PAGES).filter(|&p| owner[p].is_none()).collect();
        if active.is_empty() || (roll < 25 && !free.is_empty() && active.len() < 3) {
            // BEGIN: lock one or two free pages for the new transaction.
            let t = next_txn;
            next_txn += 1;
            rng.shuffle(&mut free);
            for &p in free.iter().take(1 + rng.gen_index(free.len().min(2))) {
                owner[p] = Some(t);
            }
            log(&mut wal, &mut boundaries, &LogRecord::Begin(t));
            active.push((t, Vec::new()));
        } else if roll < 70 {
            // UPDATE: a random active transaction writes one of its pages.
            let ai = rng.gen_index(active.len());
            let t = active[ai].0;
            let owned: Vec<usize> = (0..N_PAGES).filter(|&p| owner[p] == Some(t)).collect();
            let p = owned[rng.gen_index(owned.len())];
            let len = 1 + rng.gen_index(8);
            let off = rng.gen_index(PAYLOAD_SIZE - len);
            let before = images[p][off..off + len].to_vec();
            let after: Vec<u8> = (0..len).map(|_| rng.gen_range(256) as u8).collect();
            images[p][off..off + len].copy_from_slice(&after);
            active[ai].1.push((p, off, before.clone()));
            log(
                &mut wal,
                &mut boundaries,
                &LogRecord::Update {
                    txn: t,
                    page: PageId(p as u32),
                    offset: off as u32,
                    before,
                    after,
                },
            );
        } else {
            // END: commit (70%) with an fsync, or abort and revert.
            let ai = rng.gen_index(active.len());
            let (t, undo) = active.swap_remove(ai);
            if rng.gen_pct(70) {
                log(&mut wal, &mut boundaries, &LogRecord::Commit(t));
                wal.sync().unwrap();
            } else {
                for (p, off, before) in undo.iter().rev() {
                    images[*p][*off..off + before.len()].copy_from_slice(before);
                }
                log(&mut wal, &mut boundaries, &LogRecord::Abort(t));
            }
            for o in owner.iter_mut() {
                if *o == Some(t) {
                    *o = None;
                }
            }
        }
    }
    // Whatever is still in `active` is in flight when the crash hits.
    TortureLog { wal, boundaries }
}

/// The durability oracle: apply, in log order, exactly the updates of
/// transactions whose COMMIT survives in `records`.
fn committed_replay(records: &[LogRecord]) -> Vec<Vec<u8>> {
    let committed: BTreeSet<TxnId> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit(t) => Some(*t),
            _ => None,
        })
        .collect();
    let mut imgs = vec![vec![0u8; PAYLOAD_SIZE]; N_PAGES];
    for rec in records {
        if let LogRecord::Update {
            txn,
            page,
            offset,
            after,
            ..
        } = rec
        {
            if committed.contains(txn) {
                let s = *offset as usize;
                imgs[page.0 as usize][s..s + after.len()].copy_from_slice(after);
            }
        }
    }
    imgs
}

/// Crash at byte `cut` (truncate the log clone, drop all dirty pages),
/// STEAL-flush a random subset of surviving updates to the "disk", and
/// recover. Returns the crashed log, the recovered store, and the report.
fn crash_recover(wal: &Wal, cut: usize, rng: &mut SplitMix64) -> (Wal, PageStore, RecoveryReport) {
    let mut crashed = wal.clone();
    crashed.truncate(cut);
    let mut store = PageStore::new();
    for _ in 0..N_PAGES {
        store.allocate();
    }
    // STEAL: some dirty pages reached the device before the crash. Any
    // subset of logged updates may be on disk; recovery must not care.
    let records = crashed.iter().expect("surviving prefix must parse");
    for rec in &records {
        if let LogRecord::Update {
            page,
            offset,
            after,
            ..
        } = rec
        {
            if rng.gen_pct(40) {
                let mut p = store.read(*page).unwrap();
                let s = *offset as usize;
                p.payload_mut()[s..s + after.len()].copy_from_slice(after);
                store.write(*page, p).unwrap();
            }
        }
    }
    let report = crashed.recover(&mut store).expect("recovery must succeed");
    (crashed, store, report)
}

fn assert_matches_oracle(store: &mut PageStore, records: &[LogRecord], ctx: &str) {
    let expect = committed_replay(records);
    for (pid, img) in expect.iter().enumerate() {
        let page = store.read(PageId(pid as u32)).unwrap();
        assert_eq!(
            page.payload(),
            &img[..],
            "{ctx}: page {pid} diverges from committed-only replay"
        );
    }
}

/// The tentpole sweep: 8 seeded workloads crashed at *every* record
/// boundary — well over the 200-scenario floor on its own.
#[test]
fn crash_sweep_at_every_record_boundary() {
    let _g = serial();
    let base = base_seed();
    let mut scenarios = 0usize;
    for s in 0..8u64 {
        let w = gen_workload(base.wrapping_add(s));
        let mut rng = SplitMix64::seed_from_u64(base ^ (s.wrapping_mul(0x9e37)));
        for &cut in &w.boundaries {
            let (crashed, mut store, report) = crash_recover(&w.wal, cut, &mut rng);
            let records = crashed.iter().unwrap();
            let ctx = format!("seed {s}, cut {cut}");
            assert_matches_oracle(&mut store, &records, &ctx);

            // Committed-durable: every COMMIT in the prefix is a winner.
            let committed: BTreeSet<TxnId> = records
                .iter()
                .filter_map(|r| match r {
                    LogRecord::Commit(t) => Some(*t),
                    _ => None,
                })
                .collect();
            assert_eq!(
                report.committed.iter().copied().collect::<BTreeSet<_>>(),
                committed,
                "{ctx}: winner set"
            );
            assert_eq!(report.torn_tail, None, "{ctx}: boundary cuts are clean");

            // Idempotent: a second recovery is a no-op on the state.
            let report2 = crashed.recover(&mut store).unwrap();
            assert_matches_oracle(&mut store, &records, &format!("{ctx} (re-run)"));
            assert_eq!(report.committed, report2.committed, "{ctx}");
            assert_eq!(report.rolled_back, report2.rolled_back, "{ctx}");
            scenarios += 1;
        }
    }
    assert!(scenarios >= 200, "only {scenarios} crash scenarios swept");
}

/// Cuts that land *inside* a record: the torn tail is reported, dropped,
/// and everything before it recovers to the oracle.
#[test]
fn torn_mid_record_cuts_recover_the_complete_prefix() {
    let _g = serial();
    let base = base_seed();
    let mut scenarios = 0usize;
    for s in 0..8u64 {
        let w = gen_workload(base.wrapping_add(1000 + s));
        let mut rng = SplitMix64::seed_from_u64(base ^ s.rotate_left(17));
        // Every ~4th record gets a random mid-record cut.
        for i in (0..w.boundaries.len()).step_by(4) {
            let rec_start = if i == 0 { 0 } else { w.boundaries[i - 1] };
            let rec_end = w.boundaries[i];
            if rec_end - rec_start < 2 {
                continue;
            }
            let cut = rec_start + 1 + rng.gen_index(rec_end - rec_start - 1);
            let (crashed, mut store, report) = crash_recover(&w.wal, cut, &mut rng);
            assert_eq!(
                report.torn_tail,
                Some(rec_start as u64),
                "seed {s}: tear reported at the torn record's LSN"
            );
            let records = crashed.iter().unwrap();
            assert_matches_oracle(&mut store, &records, &format!("seed {s}, torn cut {cut}"));
            scenarios += 1;
        }
    }
    assert!(scenarios >= 50, "only {scenarios} torn-tail scenarios");
}

/// `wal.sync.skip` drops fsyncs at random during the workload; a crash
/// that preserves exactly the durable prefix loses the skipped batches —
/// including commits the application believed durable — and recovery
/// still matches committed-only replay of what actually survived.
#[test]
fn skipped_fsyncs_lose_the_volatile_tail_consistently() {
    let _g = serial();
    let base = base_seed();
    let mut fired_total = 0u64;
    let mut scenarios = 0usize;
    for s in 0..25u64 {
        faults::set_seed(base.wrapping_add(s));
        faults::configure(
            "wal.sync.skip",
            Policy::new(Action::Error, Trigger::Prob(40)).caller_thread(),
        );
        let w = gen_workload(base.wrapping_add(2000 + s));
        fired_total += faults::fire_count("wal.sync.skip");
        faults::reset();

        let cut = w.wal.synced_len();
        let mut rng = SplitMix64::seed_from_u64(base ^ s);
        let (crashed, mut store, _report) = crash_recover(&w.wal, cut, &mut rng);
        let records = crashed.iter().unwrap();
        assert_matches_oracle(
            &mut store,
            &records,
            &format!("seed {s}, durable cut {cut}"),
        );
        scenarios += 1;
    }
    assert!(fired_total > 0, "the sweep never skipped an fsync");
    assert!(scenarios >= 25);
}

/// `wal.append.torn` tears the nth append mid-record; the process "dies"
/// there, and recovery treats the fragment as end-of-log.
#[test]
fn torn_appends_are_crashes_at_the_failpoint() {
    let _g = serial();
    let base = base_seed();
    let mut scenarios = 0usize;
    for k in 1..=25u64 {
        faults::configure(
            "wal.append.torn",
            Policy::new(Action::Corrupt, Trigger::Nth(k)).caller_thread(),
        );
        let w = gen_workload(base.wrapping_add(3000 + k));
        let fired = faults::fire_count("wal.append.torn") == 1;
        faults::reset();
        if !fired {
            continue; // workload had fewer than k appends
        }
        // The crash happens at the torn append: the disk holds everything
        // up to and including the partial record, nothing after.
        let cut = w.boundaries[k as usize - 1];
        let mut rng = SplitMix64::seed_from_u64(base ^ k);
        let (crashed, mut store, report) = crash_recover(&w.wal, cut, &mut rng);
        assert!(
            report.torn_tail.is_some(),
            "seed {k}: the torn fragment is detected"
        );
        let records = crashed.iter().unwrap();
        assert_matches_oracle(&mut store, &records, &format!("torn append k={k}"));
        scenarios += 1;
    }
    assert!(scenarios >= 20, "only {scenarios} torn-append scenarios");
}

/// `page.write.bitflip` corrupts a flushed page; the checksum catches it
/// on the next read and recovery rebuilds the page from the log.
#[test]
fn bit_flipped_pages_are_rebuilt_from_the_log() {
    let _g = serial();
    let base = base_seed();
    let mut scenarios = 0usize;
    for s in 0..25u64 {
        let w = gen_workload(base.wrapping_add(4000 + s));
        let records = w.wal.iter().unwrap();
        if !records
            .iter()
            .any(|r| matches!(r, LogRecord::Update { .. }))
        {
            continue;
        }
        let mut store = PageStore::new();
        for _ in 0..N_PAGES {
            store.allocate();
        }
        // Flush every update to the device; one write gets a flipped bit.
        faults::configure(
            "page.write.bitflip",
            Policy::new(Action::Corrupt, Trigger::Nth(1 + s % 5)).caller_thread(),
        );
        for rec in &records {
            if let LogRecord::Update {
                page,
                offset,
                after,
                ..
            } = rec
            {
                let mut p = match store.read(*page) {
                    Ok(p) => p,
                    // Reading the already-flipped page: recovery will
                    // rebuild it; keep flushing the rest.
                    Err(_) => continue,
                };
                let st = *offset as usize;
                p.payload_mut()[st..st + after.len()].copy_from_slice(after);
                store.write(*page, p).unwrap();
            }
        }
        let fired = faults::fire_count("page.write.bitflip") == 1;
        faults::reset();
        if !fired {
            continue;
        }
        let report = w.wal.recover(&mut store).unwrap();
        assert!(
            report.pages_restored >= 1,
            "seed {s}: the corrupt page was rebuilt"
        );
        assert_matches_oracle(&mut store, &records, &format!("bitflip seed {s}"));
        scenarios += 1;
    }
    assert!(scenarios >= 15, "only {scenarios} bit-flip scenarios");
}

/// Injected worker panics at every morsel index: the executor degrades to
/// a sequential re-run and the query result never changes.
#[test]
fn exec_panics_at_every_morsel_keep_results_exact() {
    let _g = serial();
    let mut db = Database::new();
    let mut rel = Relation::with_schema(&[("k", Type::Int), ("v", Type::Int)]).unwrap();
    for i in 0..300i64 {
        rel.insert(big_queries::bq_relational::tup![i, i % 17])
            .unwrap();
    }
    db.add("t", rel);
    let expr = big_queries::bq_relational::algebra::expr::Expr::rel("t").project(&["v"]);

    let oracle = Executor::new(ExecMode::Sequential)
        .with_morsel_size(16)
        .execute(&expr, &db)
        .unwrap();

    let mut scenarios = 0usize;
    for k in 1..=25u64 {
        // Global scope: the panic must land on a worker thread.
        faults::configure(
            "exec.morsel.panic",
            Policy::new(Action::Panic, Trigger::Nth(k)),
        );
        let got = Executor::new(ExecMode::Parallel(4))
            .with_morsel_size(16)
            .execute(&expr, &db)
            .unwrap();
        let fired = faults::fire_count("exec.morsel.panic") >= 1;
        faults::reset();
        assert_eq!(got, oracle, "panic at morsel {k} changed the result");
        if fired {
            scenarios += 1;
        }
    }
    assert!(scenarios >= 15, "only {scenarios} exec-panic scenarios");
}

/// The zero-overhead claim, checked the same way `tests/obs_integration`
/// checks tracing: with every site disarmed, results are byte-identical
/// to a run where the registry was never touched, and nothing fires.
#[test]
fn disarmed_failpoints_change_nothing() {
    let _g = serial();
    let base = base_seed();
    let fingerprint = |seed: u64| {
        let w = gen_workload(seed);
        let records = w.wal.iter().unwrap();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (_, store, report) = crash_recover(&w.wal, w.wal.byte_len(), &mut rng);
        let pages: Vec<Vec<u8>> = (0..N_PAGES)
            .map(|p| store.read(PageId(p as u32)).unwrap().payload().to_vec())
            .collect();
        (w.wal.byte_len(), records, report, pages)
    };

    assert!(!faults::armed());
    let before = bq_obs::global().snapshot();
    let a = fingerprint(base.wrapping_add(5000));

    // Arm, fire, and disarm a site in between the two measured runs; the
    // registry must return to perfect transparency.
    faults::configure(
        "wal.append.torn",
        Policy::new(Action::Corrupt, Trigger::Always),
    );
    let mut scratch = Wal::new();
    // Corrupt-armed, not error-armed: the append itself succeeds.
    scratch.append(&LogRecord::Begin(1)).unwrap();
    assert_eq!(faults::fire_count("wal.append.torn"), 1);
    faults::reset();

    let b = fingerprint(base.wrapping_add(5000));
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

//! Chaos acceptance for bq-backup: online backups, point-in-time
//! recovery, scrubbing, and the `backup.*` / `wal.append.enospc`
//! failpoints, under seeded schedules.
//!
//! The load-bearing assertions, per the roadmap:
//!
//! * **PITR oracle** — `restore_to_offset(off)` fingerprints identically
//!   to the committed-only state the live engine had at `off`, for every
//!   archived backup boundary, with aborted transactions excluded.
//! * **Crash atomicity** — a crash at any point during backup or
//!   restore never yields a manifest that restores to a wrong state:
//!   the restore answers correctly or is refused with a typed error.
//! * **Checksums gate replay** — a bit-flipped archived segment and a
//!   torn manifest are refused typed; `restore_latest` heals past them.
//! * **Chains heal** — a dropped or rotted segment re-bases the next
//!   incremental on the last full backup; a dropped full re-seeds.
//! * **Disk-full degrades** — `wal.append.enospc` aborts the in-flight
//!   transaction with a typed error and leaves the engine
//!   read-available; `backup.archive.enospc` fails the backup typed and
//!   leaves the chain restorable.
//! * **Differential** — with every failpoint disarmed, the same seeded
//!   workload+backup schedule restores to the same fingerprint as a
//!   chaos-swept run that healed.
//!
//! Pin the schedules with `BQ_BACKUP_SEED=<n>`.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use big_queries::bq_core::BackupRegistry;
use big_queries::bq_faults::{self as faults, Action, Policy, Trigger};
use big_queries::bq_storage::Wal;
use big_queries::bq_util::{Rng, SplitMix64};
use big_queries::prelude::*;

/// The failpoint registry is process-global; tests touching it
/// serialize, mirroring `crash_torture.rs` and `repl_torture.rs`.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

/// Seed for the chaos schedules; override with `BQ_BACKUP_SEED=<n>`.
fn backup_seed() -> u64 {
    std::env::var("BQ_BACKUP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_809)
}

fn fingerprint(db: &RwLock<Db>) -> u64 {
    db.read()
        .unwrap_or_else(|e| e.into_inner())
        .content_fingerprint()
}

/// A fresh engine with `t(a int, b str)` plus its registry-backed
/// backup engine over an in-memory archive.
fn rig() -> (RwLock<Db>, BackupEngine, Arc<MemArchive>, BackupRegistry) {
    let mut db = Db::new();
    db.create_table("t", &[("a", Type::Int), ("b", Type::Str)])
        .unwrap();
    let registry = db.backup_registry();
    let archive = Arc::new(MemArchive::new());
    let engine = BackupEngine::new(archive.clone(), registry.clone());
    (RwLock::new(db), engine, archive, registry)
}

/// Commit one batch of `n` rows starting at `from`.
fn commit_rows(db: &RwLock<Db>, from: i64, n: i64) {
    let mut db = db.write().unwrap();
    let h = db.begin().unwrap();
    for i in from..from + n {
        db.insert_in(h, "t", vec![Value::Int(i), Value::Str(format!("r{i}"))])
            .unwrap();
    }
    db.commit(h).unwrap();
}

/// Begin-and-abort a batch: these rows must never appear in any restore.
fn abort_rows(db: &RwLock<Db>, from: i64, n: i64) {
    let mut db = db.write().unwrap();
    let h = db.begin().unwrap();
    for i in from..from + n {
        db.insert_in(h, "t", vec![Value::Int(i), Value::Str("doomed".into())])
            .unwrap();
    }
    db.abort(h).unwrap();
}

/// **PITR oracle sweep**: a seeded workload of committed and aborted
/// transactions, a backup at every round, and a restore to every
/// archived boundary — each must fingerprint exactly as the committed
/// state did at that horizon.
#[test]
fn restore_to_offset_matches_committed_only_oracle() {
    let _g = serial();
    let mut rng = SplitMix64::seed_from_u64(backup_seed());
    let (db, engine, _, _) = rig();

    // (wal offset, committed-only fingerprint) after each round.
    let mut oracle: Vec<(u64, u64)> = Vec::new();
    let mut next_id: i64 = 0;
    for round in 0..12 {
        let n = 1 + rng.gen_range(4) as i64;
        if rng.gen_range(100) < 30 {
            abort_rows(&db, 100_000 + next_id, n);
        } else {
            commit_rows(&db, next_id, n);
            next_id += n;
        }
        let m = if round % 5 == 0 {
            engine.backup_full(&db).unwrap()
        } else {
            engine.backup_incremental(&db).unwrap()
        };
        assert_eq!(m.fingerprint, fingerprint(&db));
        oracle.push((m.wal_end, fingerprint(&db)));
    }

    for (off, want) in &oracle {
        let restored = engine.restore_to_offset(*off).unwrap();
        assert_eq!(
            restored.content_fingerprint(),
            *want,
            "restore to offset {off} diverged from the committed-only oracle"
        );
    }
    let (latest, off) = engine.restore_latest().unwrap();
    let (last_off, last_fp) = *oracle.last().unwrap();
    assert_eq!(off, last_off);
    assert_eq!(latest.content_fingerprint(), last_fp);
}

/// **Crash mid-backup**: the payload lands but the manifest never does;
/// the archive still restores to the pre-crash state, and a retry heals.
#[test]
fn crash_mid_backup_is_invisible_to_restore() {
    let _g = serial();
    let (db, engine, _, registry) = rig();
    commit_rows(&db, 0, 5);
    let m1 = engine.backup_full(&db).unwrap();
    let fp1 = fingerprint(&db);

    commit_rows(&db, 5, 5);
    faults::configure("backup.crash", Policy::new(Action::Error, Trigger::Always));
    let err = engine.backup_incremental(&db).unwrap_err();
    assert!(
        matches!(err, BackupError::Injected("backup.crash")),
        "{err}"
    );
    faults::off("backup.crash");

    // The orphaned payload is invisible: restores answer the old chain.
    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m1.wal_end);
    assert_eq!(restored.content_fingerprint(), fp1);
    assert!(registry
        .rows()
        .iter()
        .any(|r| r.state.starts_with("failed:")));

    // The retry reuses the sequence number and seals the chain.
    let m2 = engine.backup_incremental(&db).unwrap();
    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m2.wal_end);
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));
}

/// **Crash mid-restore**: the half-built engine is discarded with a
/// typed error, the live engine is untouched, and a retry succeeds.
#[test]
fn crash_mid_restore_refuses_then_retries_clean() {
    let _g = serial();
    let (db, engine, _, _) = rig();
    commit_rows(&db, 0, 6);
    engine.backup_full(&db).unwrap();
    commit_rows(&db, 6, 6);
    let m2 = engine.backup_incremental(&db).unwrap();
    let live = fingerprint(&db);

    faults::configure(
        "backup.restore.crash",
        Policy::new(Action::Error, Trigger::Nth(3)),
    );
    let err = engine.restore_to_offset(m2.wal_end).unwrap_err();
    assert!(
        matches!(err, BackupError::Injected("backup.restore.crash")),
        "{err}"
    );
    faults::off("backup.restore.crash");
    assert_eq!(
        fingerprint(&db),
        live,
        "live engine untouched by a failed restore"
    );

    let restored = engine.restore_to_offset(m2.wal_end).unwrap();
    assert_eq!(restored.content_fingerprint(), live);
}

/// **Bit-flipped segment**: refused typed on direct restore, healed past
/// by `restore_latest`, surfaced by scrub, and superseded by the next
/// backup re-basing on the last full.
#[test]
fn bit_flipped_segment_is_refused_and_healed() {
    let _g = serial();
    let (db, engine, _, _) = rig();
    commit_rows(&db, 0, 4);
    let m1 = engine.backup_full(&db).unwrap();
    let fp1 = fingerprint(&db);

    commit_rows(&db, 4, 4);
    faults::configure(
        "backup.segment.bitflip",
        Policy::new(Action::Corrupt, Trigger::Always),
    );
    let m2 = engine.backup_incremental(&db).unwrap();
    faults::off("backup.segment.bitflip");

    // Direct restore through the rotted link is refused typed.
    assert!(matches!(
        engine.restore_to_offset(m2.wal_end),
        Err(BackupError::ObjectCorrupt { .. })
    ));
    // Healing restore stops at the last proven link.
    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m1.wal_end);
    assert_eq!(restored.content_fingerprint(), fp1);
    // The scrubber names the rotted object.
    let report = engine.scrub(Some(&db)).unwrap();
    assert_eq!(report.objects_bad, 1, "{report:?}");
    assert!(report.bad.contains(&m2.object), "{report:?}");

    // The next backup re-bases on the full and supersedes the bad link.
    let m3 = engine.backup_incremental(&db).unwrap();
    assert_eq!(m3.wal_start, m1.wal_end, "chain re-based on the full");
    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m3.wal_end);
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));
}

/// **Torn manifest**: a manifest torn in flight is refused typed, never
/// partially trusted, and the next attempt overwrites it.
#[test]
fn torn_manifest_is_refused_then_overwritten() {
    let _g = serial();
    let (db, engine, _, _) = rig();
    commit_rows(&db, 0, 5);

    faults::configure(
        "backup.manifest.torn",
        Policy::new(Action::Corrupt, Trigger::Always),
    );
    let m1 = engine.backup_full(&db).unwrap();
    faults::off("backup.manifest.torn");

    // The only full's manifest is torn: restore surfaces exactly that.
    let err = engine.restore_to_offset(m1.wal_end).unwrap_err();
    assert!(matches!(err, BackupError::TornManifest { .. }), "{err}");
    assert!(matches!(
        engine.restore_latest(),
        Err(BackupError::TornManifest { .. })
    ));
    let report = engine.scrub(Some(&db)).unwrap();
    assert_eq!(report.manifests_bad, 1, "{report:?}");

    // The next attempt reuses the sequence and seals a valid manifest.
    let m = engine.backup_incremental(&db).unwrap();
    assert_eq!(
        m.seq, m1.seq,
        "torn manifest must be overwritten, not skipped"
    );
    let (restored, _) = engine.restore_latest().unwrap();
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));
}

/// **Chain gap**: a dropped segment re-bases the next incremental on the
/// last full; a dropped full re-seeds the chain with a fresh full.
#[test]
fn chain_gap_falls_back_to_full() {
    let _g = serial();
    let (db, engine, archive, _) = rig();
    commit_rows(&db, 0, 3);
    let m1 = engine.backup_full(&db).unwrap();
    commit_rows(&db, 3, 3);
    let m2 = engine.backup_incremental(&db).unwrap();

    // Drop the segment: the chain is broken mid-air.
    assert!(archive.delete(&m2.object).unwrap());
    commit_rows(&db, 6, 3);
    let m3 = engine.backup_incremental(&db).unwrap();
    assert_eq!(m3.wal_start, m1.wal_end, "re-based on the last full");
    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m3.wal_end);
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));

    // Drop the full's image too: nothing proves the chain's base, so
    // the next backup re-seeds with a fresh full.
    assert!(archive.delete(&m1.object).unwrap());
    commit_rows(&db, 9, 3);
    let m4 = engine.backup_incremental(&db).unwrap();
    assert!(matches!(m4.kind, big_queries::bq_backup::BackupKind::Full));
    let (restored, _) = engine.restore_latest().unwrap();
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));
}

/// **Archive disk-full**: the backup fails typed, the chain stays
/// restorable, and the attempt is recorded as failed.
#[test]
fn archive_enospc_fails_typed_and_chain_survives() {
    let _g = serial();
    let (db, engine, _, registry) = rig();
    commit_rows(&db, 0, 4);
    let m1 = engine.backup_full(&db).unwrap();
    let fp1 = fingerprint(&db);

    commit_rows(&db, 4, 4);
    faults::configure(
        "backup.archive.enospc",
        Policy::new(Action::Error, Trigger::Always),
    );
    assert!(matches!(
        engine.backup_incremental(&db),
        Err(BackupError::ArchiveFull { .. })
    ));
    faults::off("backup.archive.enospc");

    let (restored, off) = engine.restore_latest().unwrap();
    assert_eq!(off, m1.wal_end);
    assert_eq!(restored.content_fingerprint(), fp1);
    assert!(registry
        .rows()
        .iter()
        .any(|r| r.state.contains("archive full")));
    // Space back: the retry seals.
    engine.backup_incremental(&db).unwrap();
    let (restored, _) = engine.restore_latest().unwrap();
    assert_eq!(restored.content_fingerprint(), fingerprint(&db));
}

/// **WAL disk-full degrades gracefully** (satellite): the in-flight
/// transaction aborts with a typed ENOSPC error, reads keep answering,
/// no lock is poisoned, and writes resume once space returns.
#[test]
fn wal_enospc_aborts_txn_but_stays_read_available() {
    let _g = serial();
    let (db, _, _, _) = rig();
    commit_rows(&db, 0, 5);
    let fp_before = fingerprint(&db);

    faults::configure(
        "wal.append.enospc",
        Policy::new(Action::Error, Trigger::Always),
    );
    {
        let mut db = db.write().unwrap();
        // A fresh transaction cannot even log Begin.
        let err = db.begin().unwrap_err().to_string();
        assert!(err.contains("ENOSPC"), "{err}");
        // Reads still answer while the device is full.
        let rows = db.sql("select t.a from t t").unwrap();
        assert_eq!(rows.len(), 5);
    }
    faults::off("wal.append.enospc");

    // Mid-transaction failure: the insert's WAL append is refused, the
    // effect is rolled back, and the engine fingerprint is unchanged.
    {
        let mut db = db.write().unwrap();
        let h = db.begin().unwrap();
        db.insert_in(h, "t", vec![Value::Int(100), Value::Str("pre".into())])
            .unwrap();
        faults::configure(
            "wal.append.enospc",
            Policy::new(Action::Error, Trigger::Always),
        );
        let err = db
            .insert_in(h, "t", vec![Value::Int(101), Value::Str("post".into())])
            .unwrap_err()
            .to_string();
        assert!(err.contains("ENOSPC"), "{err}");
        // Commit cannot log either: the transaction rolls back typed.
        let err = db.commit(h).unwrap_err().to_string();
        assert!(err.contains("ENOSPC"), "{err}");
        faults::off("wal.append.enospc");
        assert_eq!(
            db.content_fingerprint(),
            fp_before,
            "aborted txn left no trace"
        );
    }

    // Space back: writes resume on the same engine (nothing poisoned).
    commit_rows(&db, 5, 3);
    assert_ne!(fingerprint(&db), fp_before);
    let rows = db.write().unwrap().sql("select t.a from t t").unwrap();
    assert_eq!(rows.len(), 8);
}

/// **Fingerprint stability** (satellite): `content_fingerprint` is
/// identical across a `snapshot_bytes` → `apply_snapshot` roundtrip and
/// across a WAL replay through the redo path — the property every PITR
/// oracle comparison in this suite stands on.
#[test]
fn content_fingerprint_is_stable_across_snapshot_and_replay() {
    let _g = serial();
    let (db, _, _, _) = rig();
    commit_rows(&db, 0, 7);
    abort_rows(&db, 100, 3);
    // Leave a transaction in flight: pending rows ride the snapshot as
    // in-flight, and must not move the committed-only fingerprint.
    let h = {
        let mut db = db.write().unwrap();
        let h = db.begin().unwrap();
        db.insert_in(h, "t", vec![Value::Int(500), Value::Str("open".into())])
            .unwrap();
        h
    };
    let want = fingerprint(&db);

    // Snapshot image roundtrip.
    let image = db.write().unwrap().snapshot_bytes().unwrap();
    let mut from_snapshot = Db::new();
    from_snapshot.apply_snapshot(&image).unwrap();
    assert_eq!(from_snapshot.content_fingerprint(), want);

    // WAL replay from birth through the redo path.
    let bytes = {
        let mut db = db.write().unwrap();
        db.sync_wal().unwrap();
        db.wal_durable_bytes(0, usize::MAX)
    };
    let (records, consumed) = Wal::decode_stream(&bytes).unwrap();
    assert_eq!(
        consumed,
        bytes.len(),
        "durable WAL ends on a record boundary"
    );
    let mut from_replay = Db::new();
    for rec in &records {
        from_replay.apply_record(rec).unwrap();
    }
    assert_eq!(from_replay.content_fingerprint(), want);

    // The open transaction is still usable on the original engine.
    db.write().unwrap().commit(h).unwrap();
    assert_ne!(fingerprint(&db), want);
}

/// Apply every durable WAL record of `src` past `from` to `dst`, one at a
/// time; returns the new offset.
fn ship(src: &RwLock<Db>, dst: &mut Db, from: u64) -> u64 {
    let bytes = src.write().unwrap().wal_durable_bytes(from, usize::MAX);
    let (records, consumed) = Wal::decode_stream(&bytes).unwrap();
    for rec in &records {
        dst.apply_record(rec).unwrap();
    }
    from + consumed as u64
}

/// **Index definitions travel by the log.** An index created after a
/// replica bootstrapped reaches the replica with the records after it,
/// the replica that bootstraps from that replica once it is promoted, and
/// a point-in-time restore past it — and only a restore past it.
#[test]
fn an_index_created_after_bootstrap_reaches_replicas_and_restores() {
    let _g = serial();
    let (db, eng, _, _) = rig();
    commit_rows(&db, 0, 4);
    let before = eng.backup_full(&db).unwrap();
    let mut replica = Db::new();
    let image = db.write().unwrap().snapshot_bytes().unwrap();
    let at = replica.apply_snapshot(&image).unwrap();
    {
        let mut db = db.write().unwrap();
        db.create_index("t", "a").unwrap();
        db.create_table("u", &[("x", Type::Int)]).unwrap();
        db.insert("u", vec![Value::Int(1)]).unwrap();
    }
    let after = eng.backup_incremental(&db).unwrap();
    let want = fingerprint(&db);

    ship(&db, &mut replica, at);
    assert!(replica.has_index("t", "a"), "shipped replica");
    assert_eq!(replica.row_count("u").unwrap(), 1);
    assert_eq!(replica.content_fingerprint(), want);

    replica.promote().unwrap();
    let mut next = Db::new();
    next.apply_snapshot(&replica.snapshot_bytes().unwrap())
        .unwrap();
    assert!(next.has_index("t", "a"), "replica of the promoted replica");
    assert_eq!(next.content_fingerprint(), want);

    let restored = eng.restore_to_offset(after.wal_end).unwrap();
    assert!(restored.has_index("t", "a"), "restore past the index");
    assert_eq!(restored.content_fingerprint(), want);
    let restored = eng.restore_to_offset(before.wal_end).unwrap();
    assert!(!restored.has_index("t", "a"), "restore before the index");
}

/// **`bq.backups` virtual table**: backup attempts are queryable as
/// ordinary rows, successes and failures alike.
#[test]
fn backups_virtual_table_lists_attempts() {
    let _g = serial();
    let (db, engine, _, _) = rig();
    commit_rows(&db, 0, 3);
    engine.backup_full(&db).unwrap();
    commit_rows(&db, 3, 3);
    faults::configure(
        "backup.archive.enospc",
        Policy::new(Action::Error, Trigger::Always),
    );
    let _ = engine.backup_incremental(&db);
    faults::off("backup.archive.enospc");

    // The failed attempt is queryable alongside the completed full.
    let rows = db
        .write()
        .unwrap()
        .sql("select b.backup, b.kind, b.state from bq.backups b")
        .unwrap();
    assert_eq!(rows.len(), 2, "{rows:?}");
    let rendered = format!("{rows:?}");
    assert!(rendered.contains("full"), "{rendered}");
    assert!(rendered.contains("failed:"), "{rendered}");

    // A successful retry reuses the sequence and upserts over the
    // failure: the table converges to completed rows only.
    engine.backup_incremental(&db).unwrap();
    let rows = db
        .write()
        .unwrap()
        .sql("select b.backup, b.kind, b.state from bq.backups b")
        .unwrap();
    assert_eq!(rows.len(), 2, "{rows:?}");
    let rendered = format!("{rows:?}");
    assert!(rendered.contains("incremental"), "{rendered}");
    assert!(!rendered.contains("failed:"), "{rendered}");
}

/// **Disarmed differential**: the same seeded workload+backup schedule,
/// once swept by every `backup.*` failpoint (with heal-retries) and once
/// clean, converges to identical live and restored fingerprints.
#[test]
fn chaos_swept_schedule_matches_disarmed_differential() {
    let _g = serial();

    fn run(seed: u64, chaos: bool) -> (u64, u64) {
        faults::reset();
        let (db, engine, _, _) = rig();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let sites = [
            ("backup.crash", Action::Error),
            ("backup.segment.bitflip", Action::Corrupt),
            ("backup.manifest.torn", Action::Corrupt),
            ("backup.archive.enospc", Action::Error),
        ];
        let mut next_id: i64 = 0;
        for round in 0..10 {
            let n = 1 + rng.gen_range(3) as i64;
            commit_rows(&db, next_id, n);
            next_id += n;
            // The chaos draw happens in both runs so the workload and
            // schedule stay aligned; only the arming differs.
            let strike = rng.gen_range(100) < 40;
            let site = sites[rng.gen_range(sites.len() as u64) as usize];
            if chaos && strike {
                faults::configure(site.0, Policy::new(site.1, Trigger::Always));
            }
            let _ = if round % 4 == 0 {
                engine.backup_full(&db)
            } else {
                engine.backup_incremental(&db)
            };
            faults::reset();
            // Heal: one clean retry, as the bqd schedule would issue.
            let _ = engine.backup_incremental(&db);
        }
        faults::reset();
        engine.backup_incremental(&db).unwrap();
        let (restored, _) = engine.restore_latest().unwrap();
        (fingerprint(&db), restored.content_fingerprint())
    }

    let seed = backup_seed();
    let (live_chaos, restored_chaos) = run(seed, true);
    let (live_clean, restored_clean) = run(seed, false);
    assert_eq!(
        live_chaos, live_clean,
        "backup faults must never touch the live engine"
    );
    assert_eq!(
        restored_chaos, live_chaos,
        "chaos run restores to live state"
    );
    assert_eq!(
        restored_clean, live_clean,
        "clean run restores to live state"
    );
}

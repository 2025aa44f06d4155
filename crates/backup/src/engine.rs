//! The backup engine: online full/incremental backups, point-in-time
//! recovery, and integrity scrubbing over an [`Archive`].
//!
//! # Concurrency and lock order
//!
//! One engine serializes its own operations through an internal `state`
//! mutex, then briefly takes the engine's `db` write lock only for the
//! in-memory copy (snapshot export or WAL-delta read) — never across
//! archive I/O, so writers are blocked for the copy, not the upload.
//! Lock order is therefore `state` before `db`, declared to bq-lint.
//!
//! # Crash atomicity
//!
//! Payload objects are archived first and the manifest last. A crash at
//! any point leaves either (a) a complete manifest whose payload is
//! already durable, or (b) orphan payload bytes no manifest points at.
//! Restores only trust decodable, checksum-verified manifests, so a
//! half-taken backup is invisible rather than wrong. Failed attempts
//! reuse their sequence number: the next attempt overwrites orphans.

use crate::archive::Archive;
use crate::error::BackupError;
use crate::manifest::{BackupKind, Manifest};
use crate::Result;
use bq_core::{BackupRegistry, BackupRow, Db};
use bq_storage::Wal;
use bq_util::fnv1a32;
use std::sync::{Arc, Mutex, RwLock};

/// A manifest that failed to decode: its archive name and the typed
/// refusal.
pub type TornEntry = (String, BackupError);

/// What a scrub pass found (and repaired).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Manifests decoded (including torn ones).
    pub manifests_checked: usize,
    /// Manifests refused as torn.
    pub manifests_bad: usize,
    /// Payload objects verified against their manifests.
    pub objects_checked: usize,
    /// Payload objects missing or failing their checksum.
    pub objects_bad: usize,
    /// Live heap pages read (0 when no engine was scrubbed).
    pub pages_checked: usize,
    /// Live heap pages found corrupt and rebuilt from the logical layer.
    pub pages_restored: usize,
    /// Names of every bad manifest/object, for operators and tests.
    pub bad: Vec<String>,
}

impl ScrubReport {
    /// Did the pass find nothing wrong?
    pub fn clean(&self) -> bool {
        self.manifests_bad == 0 && self.objects_bad == 0 && self.pages_restored == 0
    }
}

/// Orchestrates backups, restores, and scrubs against one [`Archive`].
#[derive(Debug)]
pub struct BackupEngine {
    archive: Arc<dyn Archive>,
    /// Serializes backup/scrub operations; ordered before the `db`
    /// write lock (see the module docs).
    state: Mutex<()>,
    registry: BackupRegistry,
}

impl BackupEngine {
    /// An engine archiving into `archive`, publishing rows to
    /// `registry` (surface it via `bq.backups` by passing the registry
    /// obtained from [`Db::backup_registry`]).
    pub fn new(archive: Arc<dyn Archive>, registry: BackupRegistry) -> BackupEngine {
        BackupEngine {
            archive,
            state: Mutex::new(()),
            registry,
        }
    }

    /// The archive this engine reads and writes.
    pub fn archive(&self) -> &Arc<dyn Archive> {
        &self.archive
    }

    /// Take a full backup: snapshot image + horizon, archived without
    /// holding the engine lock during upload.
    pub fn backup_full(&self, db: &RwLock<Db>) -> Result<Manifest> {
        let _g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.full_locked(db)
    }

    /// Take an incremental backup: the durable WAL delta since the
    /// chain tip. Falls back to a fresh full backup whenever the chain
    /// is unusable — no full yet, a torn link, a missing object, or a
    /// WAL horizon behind the tip (the engine was restored or promoted
    /// since, so the old chain no longer describes this history).
    pub fn backup_incremental(&self, db: &RwLock<Db>) -> Result<Manifest> {
        let _g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let tip = match self.chain_tip()? {
            Some(tip) => tip,
            None => return self.full_locked(db),
        };
        let mut guard = db.write().unwrap_or_else(|e| e.into_inner());
        // lint: allow(blocking-while-locked) the hold is the point: the WAL horizon must not move between sync and snapshot, so commits wait out this fsync by design
        let horizon = guard.sync_wal()?;
        if horizon < tip.wal_end {
            // The engine's WAL restarted behind the chain (restore or
            // promotion): the old chain describes a different history.
            drop(guard);
            return self.full_locked(db);
        }
        let delta = guard.wal_durable_bytes(tip.wal_end, usize::MAX);
        let fingerprint = guard.content_fingerprint();
        drop(guard);
        if delta.is_empty() {
            return Ok(tip);
        }
        let seq = self.next_seq()?;
        let object = format!("{seq:08}.seg");
        let object_fnv = fnv1a32(&delta);
        let mut stored = delta;
        if bq_faults::hit("backup.segment.bitflip").is_some() {
            // Media rot between checksum and platter: the archived copy
            // differs from what the manifest vouches for.
            stored[0] ^= 0x01;
        }
        self.put_payload(seq, &object, &stored)?;
        self.crash_point(seq, "backup.crash")?;
        let manifest = Manifest {
            seq,
            kind: BackupKind::Incremental,
            wal_start: tip.wal_end,
            wal_end: horizon,
            object,
            object_len: stored.len() as u64,
            object_fnv,
            fingerprint,
        };
        self.seal(&manifest)?;
        bq_obs::counter!("bq_backup_incremental_total", "incremental backups sealed").inc();
        Ok(manifest)
    }

    fn full_locked(&self, db: &RwLock<Db>) -> Result<Manifest> {
        let (image, horizon, fingerprint) = {
            let mut db = db.write().unwrap_or_else(|e| e.into_inner());
            let image = db.snapshot_bytes()?;
            (image, db.wal_durable_len(), db.content_fingerprint())
        };
        let seq = self.next_seq()?;
        let object = format!("{seq:08}.snap");
        let object_fnv = fnv1a32(&image);
        self.put_payload(seq, &object, &image)?;
        self.crash_point(seq, "backup.crash")?;
        let manifest = Manifest {
            seq,
            kind: BackupKind::Full,
            wal_start: horizon,
            wal_end: horizon,
            object,
            object_len: image.len() as u64,
            object_fnv,
            fingerprint,
        };
        self.seal(&manifest)?;
        bq_obs::counter!("bq_backup_full_total", "full backups sealed").inc();
        Ok(manifest)
    }

    /// Archive a payload object, honouring the disk-full failpoint.
    fn put_payload(&self, seq: u64, name: &str, bytes: &[u8]) -> Result<()> {
        if bq_faults::hit("backup.archive.enospc").is_some() {
            self.record_failed(seq, name, "archive full");
            return Err(BackupError::ArchiveFull {
                name: name.to_string(),
            });
        }
        if let Err(e) = self.archive.put(name, bytes) {
            self.record_failed(seq, name, "archive put failed");
            return Err(e);
        }
        Ok(())
    }

    /// Simulated crash between payload and manifest: the payload is
    /// durable but orphaned, and the attempt dies with a typed error.
    fn crash_point(&self, seq: u64, site: &'static str) -> Result<()> {
        if bq_faults::hit(site).is_some() {
            self.record_failed(seq, site, "crashed before manifest");
            return Err(BackupError::Injected(site));
        }
        Ok(())
    }

    /// Write the manifest — the commit point of a backup. The
    /// `backup.manifest.torn` failpoint tears the write in half, as a
    /// crashed non-atomic archive would.
    fn seal(&self, manifest: &Manifest) -> Result<()> {
        let mut bytes = manifest.encode();
        if bq_faults::hit("backup.manifest.torn").is_some() {
            bytes.truncate(bytes.len() / 2);
        }
        if let Err(e) = self.archive.put(&manifest.name(), &bytes) {
            self.record_failed(manifest.seq, &manifest.name(), "manifest put failed");
            return Err(e);
        }
        self.registry.upsert(BackupRow {
            seq: manifest.seq,
            kind: manifest.kind.as_str().to_string(),
            wal_start: manifest.wal_start,
            wal_end: manifest.wal_end,
            bytes: manifest.object_len,
            state: "complete".to_string(),
            fingerprint: manifest.fingerprint,
            created_us: bq_obs::now_us(),
        });
        bq_obs::counter!("bq_backup_bytes_total", "payload bytes archived")
            .add(manifest.object_len);
        Ok(())
    }

    fn record_failed(&self, seq: u64, what: &str, why: &str) {
        self.registry.upsert(BackupRow {
            seq,
            kind: "attempt".to_string(),
            wal_start: 0,
            wal_end: 0,
            bytes: 0,
            state: format!("failed:{why} ({what})"),
            fingerprint: 0,
            created_us: bq_obs::now_us(),
        });
        bq_obs::counter!("bq_backup_failed_total", "backup attempts that failed").inc();
    }

    /// All decodable manifests in sequence order, plus the names and
    /// typed errors of torn ones.
    pub fn manifests(&self) -> Result<(Vec<Manifest>, Vec<TornEntry>)> {
        let mut valid = Vec::new();
        let mut torn = Vec::new();
        for name in self.archive.list()? {
            if !name.ends_with(".manifest") {
                continue;
            }
            let bytes = self
                .archive
                .get(&name)?
                .ok_or_else(|| BackupError::ObjectMissing { name: name.clone() })?;
            match Manifest::decode(&name, &bytes) {
                Ok(m) => valid.push(m),
                Err(e) => torn.push((name, e)),
            }
        }
        valid.sort_by_key(|m| m.seq);
        Ok((valid, torn))
    }

    /// Next chain sequence number: one past the highest *sealed*
    /// manifest. Orphan payloads and torn manifests do not advance it,
    /// so a retried attempt overwrites its own wreckage.
    fn next_seq(&self) -> Result<u64> {
        let (valid, _) = self.manifests()?;
        Ok(valid.last().map_or(1, |m| m.seq + 1))
    }

    /// The manifest the next incremental should extend: the last link
    /// of the unbroken chain rooted at the newest full backup. `None`
    /// when there is no usable chain (take a full backup instead).
    fn chain_tip(&self) -> Result<Option<Manifest>> {
        let (valid, _) = self.manifests()?;
        let full = match valid.iter().rev().find(|m| m.kind == BackupKind::Full) {
            Some(f) => f.clone(),
            None => return Ok(None),
        };
        if !self.object_verifies(&full) {
            return Ok(None);
        }
        // Walk forward one link at a time, checksum-verifying each
        // payload: a dropped OR rotted segment ends the chain here, so
        // the next incremental re-bases on the last proven link and the
        // chain heals. At each position the newest manifest wins (a
        // re-taken incremental supersedes a dead one covering the same
        // range — its bad object must not shadow the replacement).
        let mut tip = full.clone();
        loop {
            let next = valid
                .iter()
                .filter(|m| {
                    m.kind == BackupKind::Incremental
                        && m.seq > full.seq
                        && m.wal_start == tip.wal_end
                        && m.wal_end > tip.wal_end
                        && self.object_verifies(m)
                })
                .max_by_key(|m| m.seq);
            match next {
                Some(m) => tip = m.clone(),
                None => return Ok(Some(tip)),
            }
        }
    }

    /// Point-in-time recovery: rebuild a fresh engine whose state is
    /// exactly the archived history up to WAL offset `target`. Verifies
    /// every payload checksum before applying a single record; refuses
    /// torn manifests, corrupt or missing objects, chain gaps, and
    /// offsets that do not land on an archived record boundary — each
    /// with its own typed [`BackupError`].
    pub fn restore_to_offset(&self, target: u64) -> Result<Db> {
        let _g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (valid, torn) = self.manifests()?;
        let full = valid
            .iter()
            .filter(|m| m.kind == BackupKind::Full && m.wal_end <= target)
            .max_by_key(|m| (m.wal_end, m.seq));
        let full = match full {
            Some(f) => f,
            None => {
                // A torn manifest may be hiding exactly the full backup
                // needed; surface it rather than a misleading "none".
                if let Some((_, e)) = torn.into_iter().next() {
                    return Err(e);
                }
                return Err(BackupError::NoFullBackup);
            }
        };
        let db = self.replay_chain(full, &valid, target)?;
        bq_obs::counter!(
            "bq_backup_restores_total",
            "point-in-time restores completed"
        )
        .inc();
        Ok(db)
    }

    /// Restore to the newest offset the archive can actually prove:
    /// walks back from the newest full backup until it finds a chain
    /// whose payloads all verify, healing past torn or rotted links by
    /// falling back to the previous full. Returns the engine and the
    /// WAL offset it was restored to.
    pub fn restore_latest(&self) -> Result<(Db, u64)> {
        let _g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (valid, torn) = self.manifests()?;
        let mut fulls: Vec<&Manifest> = valid
            .iter()
            .filter(|m| m.kind == BackupKind::Full)
            .collect();
        fulls.sort_by_key(|m| std::cmp::Reverse((m.wal_end, m.seq)));
        for full in fulls {
            if !self.object_verifies(full) {
                continue;
            }
            let horizon = self.verified_horizon(full, &valid);
            let db = self.replay_chain(full, &valid, horizon)?;
            bq_obs::counter!(
                "bq_backup_restores_total",
                "point-in-time restores completed"
            )
            .inc();
            return Ok((db, horizon));
        }
        if let Some((_, e)) = torn.into_iter().next() {
            return Err(e);
        }
        Err(BackupError::NoFullBackup)
    }

    /// The newest WAL offset [`BackupEngine::restore_latest`] would
    /// reach right now, without building the engine. `None` when no
    /// verifiable full backup exists.
    pub fn latest_restorable(&self) -> Result<Option<u64>> {
        let (valid, _) = self.manifests()?;
        let mut fulls: Vec<&Manifest> = valid
            .iter()
            .filter(|m| m.kind == BackupKind::Full)
            .collect();
        fulls.sort_by_key(|m| std::cmp::Reverse((m.wal_end, m.seq)));
        for full in fulls {
            if !self.object_verifies(full) {
                continue;
            }
            return Ok(Some(self.verified_horizon(full, &valid)));
        }
        Ok(None)
    }

    /// How far past `full` the chain extends through contiguous,
    /// checksum-verified incrementals, newest manifest winning at each
    /// position (a re-taken incremental supersedes a dead one).
    fn verified_horizon(&self, full: &Manifest, valid: &[Manifest]) -> u64 {
        let mut horizon = full.wal_end;
        loop {
            let next = valid
                .iter()
                .filter(|m| {
                    m.kind == BackupKind::Incremental
                        && m.seq > full.seq
                        && m.wal_start == horizon
                        && m.wal_end > horizon
                        && self.object_verifies(m)
                })
                .max_by_key(|m| m.seq);
            match next {
                Some(m) => horizon = m.wal_end,
                None => return horizon,
            }
        }
    }

    fn object_verifies(&self, m: &Manifest) -> bool {
        match self.archive.get(&m.object) {
            Ok(Some(bytes)) => m.verify_object(&bytes).is_ok(),
            _ => false,
        }
    }

    /// Seed a fresh engine from `full`'s image and replay archived WAL
    /// through [`Db::apply_record`] up to exactly `target`.
    fn replay_chain(&self, full: &Manifest, valid: &[Manifest], target: u64) -> Result<Db> {
        let image = self
            .archive
            .get(&full.object)?
            .ok_or_else(|| BackupError::ObjectMissing {
                name: full.object.clone(),
            })?;
        full.verify_object(&image)?;
        let mut db = Db::new();
        db.apply_snapshot(&image)?;
        let mut pos = full.wal_end;
        if pos == target && full.fingerprint != db.content_fingerprint() {
            // The image itself restored to something other than what
            // its manifest pinned — refuse rather than hand back a
            // silently wrong engine.
            return Err(BackupError::Core(format!(
                "restored fingerprint {:016x} != manifest fingerprint {:016x}",
                db.content_fingerprint(),
                full.fingerprint
            )));
        }
        let segs: Vec<&Manifest> = valid
            .iter()
            .filter(|m| m.kind == BackupKind::Incremental && m.seq > full.seq)
            .collect();
        while pos < target {
            // Newest manifest at this position wins (a re-taken
            // incremental supersedes a dead one covering the same range).
            let m = segs
                .iter()
                .filter(|m| m.wal_start == pos && m.wal_end > pos)
                .max_by_key(|m| m.seq);
            let m = match m {
                Some(m) => *m,
                None => {
                    if let Some(found) = segs
                        .iter()
                        .filter(|m| m.wal_start > pos)
                        .map(|m| m.wal_start)
                        .min()
                    {
                        return Err(BackupError::ChainGap {
                            expected: pos,
                            found,
                        });
                    }
                    // Nothing archived past here: the target lies beyond
                    // the horizon the archive can prove.
                    return Err(BackupError::BadOffset {
                        requested: target,
                        boundary: pos,
                    });
                }
            };
            let seg = self
                .archive
                .get(&m.object)?
                .ok_or_else(|| BackupError::ObjectMissing {
                    name: m.object.clone(),
                })?;
            // Verify the WHOLE segment before applying any of it: a
            // flipped bit past the target offset still means the
            // archive lied about these bytes.
            m.verify_object(&seg)?;
            let want = (target.min(m.wal_end) - m.wal_start) as usize;
            let (records, consumed) = Wal::decode_stream(&seg[..want])?;
            if consumed < want {
                return Err(BackupError::BadOffset {
                    requested: target,
                    boundary: pos + consumed as u64,
                });
            }
            for rec in &records {
                if bq_faults::hit("backup.restore.crash").is_some() {
                    return Err(BackupError::Injected("backup.restore.crash"));
                }
                db.apply_record(rec)?;
            }
            pos += consumed as u64;
        }
        if pos < target {
            return Err(BackupError::BadOffset {
                requested: target,
                boundary: pos,
            });
        }
        Ok(db)
    }

    /// Verify every archived manifest and payload object, then (when an
    /// engine is supplied) walk its heap pages, rebuilding the physical
    /// layer from the intact logical layer if any page is corrupt.
    pub fn scrub(&self, db: Option<&RwLock<Db>>) -> Result<ScrubReport> {
        let _g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut report = ScrubReport::default();
        let (valid, torn) = self.manifests()?;
        report.manifests_checked = valid.len() + torn.len();
        report.manifests_bad = torn.len();
        for (name, _) in &torn {
            report.bad.push(name.clone());
        }
        for m in &valid {
            report.objects_checked += 1;
            let ok = match self.archive.get(&m.object)? {
                Some(bytes) => m.verify_object(&bytes).is_ok(),
                None => false,
            };
            if !ok {
                report.objects_bad += 1;
                report.bad.push(m.object.clone());
            }
        }
        if let Some(db) = db {
            let (checked, restored) = db
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .scrub_pages()?;
            report.pages_checked = checked;
            report.pages_restored = restored;
        }
        bq_obs::counter!("bq_scrub_runs_total", "scrub passes completed").inc();
        bq_obs::counter!(
            "bq_scrub_objects_checked_total",
            "archived objects verified by scrub"
        )
        .add(report.objects_checked as u64);
        bq_obs::counter!(
            "bq_scrub_objects_bad_total",
            "archived objects found missing or corrupt by scrub"
        )
        .add(report.objects_bad as u64);
        bq_obs::counter!(
            "bq_scrub_manifests_bad_total",
            "manifests refused as torn by scrub"
        )
        .add(report.manifests_bad as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::MemArchive;
    use bq_relational::{Type, Value};

    fn engine() -> (BackupEngine, Arc<MemArchive>) {
        let mem = Arc::new(MemArchive::new());
        let eng = BackupEngine::new(mem.clone(), BackupRegistry::new());
        (eng, mem)
    }

    fn seeded_db(rows: u64) -> RwLock<Db> {
        let mut db = Db::new();
        db.create_table("t", &[("id", Type::Int), ("name", Type::Str)])
            .unwrap();
        let h = db.begin().unwrap();
        for i in 0..rows {
            db.insert_in(
                h,
                "t",
                vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))],
            )
            .unwrap();
        }
        db.commit(h).unwrap();
        RwLock::new(db)
    }

    fn add_rows(db: &RwLock<Db>, from: u64, n: u64) {
        let mut db = db.write().unwrap();
        let h = db.begin().unwrap();
        for i in from..from + n {
            db.insert_in(
                h,
                "t",
                vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))],
            )
            .unwrap();
        }
        db.commit(h).unwrap();
    }

    fn fp(db: &RwLock<Db>) -> u64 {
        db.read().unwrap().content_fingerprint()
    }

    #[test]
    fn full_backup_then_restore_matches_fingerprint() {
        let (eng, _) = engine();
        let db = seeded_db(10);
        let m = eng.backup_full(&db).unwrap();
        assert_eq!(m.kind, BackupKind::Full);
        assert_eq!(m.wal_start, m.wal_end);
        let restored = eng.restore_to_offset(m.wal_end).unwrap();
        assert_eq!(restored.content_fingerprint(), fp(&db));
        assert_eq!(restored.content_fingerprint(), m.fingerprint);
    }

    #[test]
    fn incremental_chain_restores_to_latest() {
        let (eng, _) = engine();
        let db = seeded_db(5);
        eng.backup_full(&db).unwrap();
        add_rows(&db, 5, 5);
        let m2 = eng.backup_incremental(&db).unwrap();
        assert_eq!(m2.kind, BackupKind::Incremental);
        add_rows(&db, 10, 5);
        let m3 = eng.backup_incremental(&db).unwrap();
        assert_eq!(m3.wal_start, m2.wal_end);
        let (restored, off) = eng.restore_latest().unwrap();
        assert_eq!(off, m3.wal_end);
        assert_eq!(restored.content_fingerprint(), fp(&db));
    }

    #[test]
    fn restore_to_mid_chain_offset_excludes_later_writes() {
        let (eng, _) = engine();
        let db = seeded_db(4);
        let m1 = eng.backup_full(&db).unwrap();
        let fp_at_full = fp(&db);
        add_rows(&db, 4, 4);
        let m2 = eng.backup_incremental(&db).unwrap();
        let fp_at_incr = fp(&db);
        add_rows(&db, 8, 4);
        eng.backup_incremental(&db).unwrap();
        assert_eq!(
            eng.restore_to_offset(m1.wal_end)
                .unwrap()
                .content_fingerprint(),
            fp_at_full
        );
        assert_eq!(
            eng.restore_to_offset(m2.wal_end)
                .unwrap()
                .content_fingerprint(),
            fp_at_incr
        );
    }

    #[test]
    fn empty_archive_refuses_with_no_full_backup() {
        let (eng, _) = engine();
        assert!(matches!(
            eng.restore_to_offset(0),
            Err(BackupError::NoFullBackup)
        ));
        assert!(matches!(
            eng.restore_latest(),
            Err(BackupError::NoFullBackup)
        ));
        assert_eq!(eng.latest_restorable().unwrap(), None);
    }

    #[test]
    fn first_incremental_without_full_takes_a_full() {
        let (eng, _) = engine();
        let db = seeded_db(3);
        let m = eng.backup_incremental(&db).unwrap();
        assert_eq!(m.kind, BackupKind::Full);
    }

    #[test]
    fn incremental_with_no_new_writes_returns_tip() {
        let (eng, _) = engine();
        let db = seeded_db(3);
        let m1 = eng.backup_full(&db).unwrap();
        let m2 = eng.backup_incremental(&db).unwrap();
        assert_eq!(m2, m1);
    }

    #[test]
    fn dropped_segment_heals_by_falling_back_to_full() {
        let (eng, mem) = engine();
        let db = seeded_db(3);
        eng.backup_full(&db).unwrap();
        add_rows(&db, 3, 3);
        let m2 = eng.backup_incremental(&db).unwrap();
        assert!(mem.delete(&m2.object).unwrap());
        add_rows(&db, 6, 3);
        let m3 = eng.backup_incremental(&db).unwrap();
        // The chain re-bases on the last full backup: the new segment
        // starts at the full's horizon, superseding the dead link.
        assert_eq!(m3.kind, BackupKind::Incremental);
        assert_eq!(m3.wal_start, m2.wal_start);
        let (restored, off) = eng.restore_latest().unwrap();
        assert_eq!(off, m3.wal_end);
        assert_eq!(restored.content_fingerprint(), fp(&db));
    }

    #[test]
    fn corrupt_segment_is_refused_but_latest_heals_past_it() {
        let (eng, mem) = engine();
        let db = seeded_db(3);
        let m1 = eng.backup_full(&db).unwrap();
        let fp_at_full = fp(&db);
        add_rows(&db, 3, 3);
        let m2 = eng.backup_incremental(&db).unwrap();
        assert!(mem.flip_bit(&m2.object, 2));
        assert!(matches!(
            eng.restore_to_offset(m2.wal_end),
            Err(BackupError::ObjectCorrupt { .. })
        ));
        let (restored, off) = eng.restore_latest().unwrap();
        assert_eq!(off, m1.wal_end);
        assert_eq!(restored.content_fingerprint(), fp_at_full);
    }

    #[test]
    fn offset_inside_a_record_is_refused_with_boundary() {
        let (eng, _) = engine();
        let db = seeded_db(3);
        let m1 = eng.backup_full(&db).unwrap();
        add_rows(&db, 3, 3);
        let m2 = eng.backup_incremental(&db).unwrap();
        let err = eng.restore_to_offset(m1.wal_end + 1).unwrap_err();
        match err {
            BackupError::BadOffset {
                requested,
                boundary,
            } => {
                assert_eq!(requested, m1.wal_end + 1);
                assert!(boundary <= m1.wal_end + 1);
                assert!(boundary >= m1.wal_end);
            }
            other => panic!("expected BadOffset, got {other}"),
        }
        // Past the archived horizon is equally unanswerable.
        assert!(matches!(
            eng.restore_to_offset(m2.wal_end + 1000),
            Err(BackupError::BadOffset { .. })
        ));
    }

    #[test]
    fn scrub_reports_clean_archive_and_counts_damage() {
        let (eng, mem) = engine();
        let db = seeded_db(4);
        eng.backup_full(&db).unwrap();
        add_rows(&db, 4, 2);
        let m2 = eng.backup_incremental(&db).unwrap();
        let clean = eng.scrub(Some(&db)).unwrap();
        assert!(clean.clean(), "{clean:?}");
        assert_eq!(clean.objects_checked, 2);
        assert!(clean.pages_checked > 0);
        mem.flip_bit(&m2.object, 1);
        mem.truncate(&Manifest::name_for(1), 5);
        let dirty = eng.scrub(Some(&db)).unwrap();
        assert_eq!(dirty.manifests_bad, 1);
        assert_eq!(dirty.objects_bad, 1);
        assert!(dirty.bad.iter().any(|n| n == &m2.object));
    }

    #[test]
    fn scrub_repairs_a_corrupted_live_page() {
        let (eng, _) = engine();
        let db = seeded_db(6);
        let before = fp(&db);
        db.write().unwrap().corrupt_page(0).unwrap();
        let report = eng.scrub(Some(&db)).unwrap();
        assert!(report.pages_restored > 0);
        assert_eq!(fp(&db), before, "repair must restore committed content");
        assert!(eng.scrub(Some(&db)).unwrap().clean());
    }

    #[test]
    fn registry_rows_published_per_backup() {
        let mem = Arc::new(MemArchive::new());
        let db = seeded_db(2);
        let registry = db.read().unwrap().backup_registry();
        let eng = BackupEngine::new(mem, registry.clone());
        eng.backup_full(&db).unwrap();
        add_rows(&db, 2, 2);
        eng.backup_incremental(&db).unwrap();
        let rows = registry.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind, "full");
        assert_eq!(rows[1].kind, "incremental");
        assert!(rows.iter().all(|r| r.state == "complete"));
    }
}

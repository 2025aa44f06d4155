//! Write-ahead log with redo/undo crash recovery.
//!
//! The log is an append-only byte buffer of self-delimiting records. Each
//! record carries a transaction id; updates carry physical before/after
//! images of a page byte range, which makes both redo and undo trivial and
//! idempotent — exactly the discipline the transaction-processing tradition
//! the paper surveys ("reliability and recovery") formalised.
//!
//! [`Wal::recover`] implements a two-pass ARIES-style protocol over an
//! in-memory [`PageStore`]: a redo pass replays every update in log order,
//! then an undo pass rolls back updates of transactions with no COMMIT.

use crate::error::StorageError;
use crate::page::{Page, PageId, PageStore};
use crate::Result;
use bq_util::{ByteReader, ByteWriter, DecodeError};

/// A log sequence number: byte offset of the record in the log.
pub type Lsn = u64;

/// Transaction identifier used by the log.
pub type TxnId = u64;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_CREATE_TABLE: u8 = 6;
const TAG_ROW_INSERT: u8 = 7;
const TAG_TAGGED_COMMIT: u8 = 8;

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin(TxnId),
    /// Transaction committed; its effects must survive recovery.
    Commit(TxnId),
    /// Transaction aborted by the system; treated as a loser in recovery.
    Abort(TxnId),
    /// A physical update to `len = before.len()` bytes of a page payload.
    Update {
        /// Transaction that performed the update.
        txn: TxnId,
        /// Page updated.
        page: PageId,
        /// Byte offset within the page payload.
        offset: u32,
        /// Pre-image (for undo).
        before: Vec<u8>,
        /// Post-image (for redo).
        after: Vec<u8>,
    },
    /// Fuzzy checkpoint marker (active transaction list).
    Checkpoint(Vec<TxnId>),
    /// Logical DDL: a table was created. Column types travel as raw
    /// bytes so the log stays decoupled from the relational type enum.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names and type bytes, in declaration order.
        cols: Vec<(String, u8)>,
    },
    /// Logical row insert: the encoded tuple plus the heap location the
    /// primary chose for it. Replicas replay the tuple through their own
    /// heap (locations may differ); crash recovery uses the location to
    /// identify the owning transaction of a heap record.
    RowInsert {
        /// Transaction that inserted the row.
        txn: TxnId,
        /// Heap page the primary placed the row on.
        page: PageId,
        /// Slot within that page.
        slot: u16,
        /// Target table.
        table: String,
        /// Codec-encoded tuple bytes.
        bytes: Vec<u8>,
    },
    /// Commit carrying a client-supplied idempotency tag. Acts exactly
    /// like [`LogRecord::Commit`] for recovery, and additionally ships
    /// the (client, request) pair so replicas rebuild the write-dedup
    /// table and a promoted replica refuses a duplicate retry.
    TaggedCommit {
        /// Committing transaction.
        txn: TxnId,
        /// Client identity string scoping the request id.
        client: String,
        /// Client-supplied request id, unique per client.
        request: u64,
    },
}

impl LogRecord {
    /// Serialize to self-delimiting bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            LogRecord::Begin(t) => {
                buf.put_u8(TAG_BEGIN);
                buf.put_u64(*t);
            }
            LogRecord::Commit(t) => {
                buf.put_u8(TAG_COMMIT);
                buf.put_u64(*t);
            }
            LogRecord::Abort(t) => {
                buf.put_u8(TAG_ABORT);
                buf.put_u64(*t);
            }
            LogRecord::Update {
                txn,
                page,
                offset,
                before,
                after,
            } => {
                buf.put_u8(TAG_UPDATE);
                buf.put_u64(*txn);
                buf.put_u32(page.0);
                buf.put_u32(*offset);
                buf.put_u32(before.len() as u32);
                buf.put_u32(after.len() as u32);
                buf.extend_from_slice(before);
                buf.extend_from_slice(after);
            }
            LogRecord::Checkpoint(active) => {
                buf.put_u8(TAG_CHECKPOINT);
                buf.put_u32(active.len() as u32);
                for t in active {
                    buf.put_u64(*t);
                }
            }
            LogRecord::CreateTable { name, cols } => {
                buf.put_u8(TAG_CREATE_TABLE);
                buf.put_str(name);
                buf.put_u32(cols.len() as u32);
                for (col, ty) in cols {
                    buf.put_str(col);
                    buf.put_u8(*ty);
                }
            }
            LogRecord::RowInsert {
                txn,
                page,
                slot,
                table,
                bytes,
            } => {
                buf.put_u8(TAG_ROW_INSERT);
                buf.put_u64(*txn);
                buf.put_u32(page.0);
                buf.put_u32(u32::from(*slot));
                buf.put_str(table);
                buf.put_bytes(bytes);
            }
            LogRecord::TaggedCommit {
                txn,
                client,
                request,
            } => {
                buf.put_u8(TAG_TAGGED_COMMIT);
                buf.put_u64(*txn);
                buf.put_str(client);
                buf.put_u64(*request);
            }
        }
        buf
    }

    /// Decode one record. A record cut short is
    /// [`DecodeError::Truncated`] (a torn tail, benign at the end of the
    /// log); an unknown tag or a bad string is [`DecodeError::Invalid`].
    fn decode(r: &mut ByteReader<'_>) -> std::result::Result<LogRecord, DecodeError> {
        let at = r.pos();
        Ok(match r.u8()? {
            TAG_BEGIN => LogRecord::Begin(r.u64()?),
            TAG_COMMIT => LogRecord::Commit(r.u64()?),
            TAG_ABORT => LogRecord::Abort(r.u64()?),
            TAG_UPDATE => {
                let txn = r.u64()?;
                let page = PageId(r.u32()?);
                let offset = r.u32()?;
                let before_len = r.u32()? as usize;
                let after_len = r.u32()? as usize;
                LogRecord::Update {
                    txn,
                    page,
                    offset,
                    before: r.take(before_len)?.to_vec(),
                    after: r.take(after_len)?.to_vec(),
                }
            }
            TAG_CHECKPOINT => LogRecord::Checkpoint(r.list(8, ByteReader::u64)?),
            TAG_CREATE_TABLE => LogRecord::CreateTable {
                name: r.str()?.to_owned(),
                // A column is at least a name length and a type byte.
                cols: r.list(5, |r| Ok::<_, DecodeError>((r.str()?.to_owned(), r.u8()?)))?,
            },
            TAG_ROW_INSERT => LogRecord::RowInsert {
                txn: r.u64()?,
                page: PageId(r.u32()?),
                slot: r.u32()? as u16,
                table: r.str()?.to_owned(),
                bytes: r.bytes()?.to_vec(),
            },
            TAG_TAGGED_COMMIT => LogRecord::TaggedCommit {
                txn: r.u64()?,
                client: r.str()?.to_owned(),
                request: r.u64()?,
            },
            other => return Err(DecodeError::invalid(at, format!("bad log tag {other}"))),
        })
    }

    /// Decode whole records from the front of `buf` into `out`, returning
    /// the end of the last one. Decoding stops at the first truncated
    /// record; only an invalid record is an error,
    /// [`StorageError::CorruptLog`] at its offset.
    fn decode_prefix(buf: &[u8], out: &mut Vec<LogRecord>) -> Result<usize> {
        let mut r = ByteReader::new(buf);
        while !r.is_empty() {
            let start = r.pos();
            match LogRecord::decode(&mut r) {
                Ok(rec) => out.push(rec),
                Err(DecodeError::Truncated { .. }) => return Ok(start),
                Err(DecodeError::Invalid { at, .. }) => return Err(StorageError::CorruptLog(at)),
            }
        }
        Ok(buf.len())
    }
}

/// Summary of a recovery run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose COMMIT was found (winners).
    pub committed: Vec<TxnId>,
    /// Transactions with no COMMIT (losers, rolled back).
    pub rolled_back: Vec<TxnId>,
    /// Updates replayed in the redo pass.
    pub redone: usize,
    /// Updates reverted in the undo pass.
    pub undone: usize,
    /// LSN of a torn trailing record (crash mid-append), if one was
    /// found; everything before it recovered normally.
    pub torn_tail: Option<Lsn>,
    /// Pages whose on-disk image failed its checksum and were rebuilt
    /// from scratch by replaying the log.
    pub pages_restored: usize,
}

/// An append-only write-ahead log.
///
/// `Clone` is deliberate: crash harnesses clone the log, truncate the
/// clone at an arbitrary byte, and recover from it, without disturbing
/// the live instance.
#[derive(Debug, Default, Clone)]
pub struct Wal {
    buf: Vec<u8>,
    records: usize,
    unsynced: usize,
    syncs: u64,
    synced_len: usize,
}

impl Wal {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, returning its LSN (byte offset).
    ///
    /// Failpoint `wal.append.torn`: only a prefix of the encoded record
    /// reaches the log — the write was torn by a crash mid-append. The
    /// caller is expected to stop writing (the process "died"); recovery
    /// treats the partial record as end-of-log.
    ///
    /// Failpoint `wal.append.enospc`: the log device is full — the write
    /// is refused with [`StorageError::DiskFull`] and the log is left
    /// exactly as it was. The caller aborts the in-flight transaction;
    /// reads remain available.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        if bq_faults::hit("wal.append.enospc").is_some() {
            bq_obs::counter!(
                "bq_storage_wal_enospc_total",
                "WAL writes refused by a full device (injected)"
            )
            .inc();
            return Err(StorageError::DiskFull);
        }
        let lsn = self.buf.len() as Lsn;
        let mut encoded = rec.encode();
        if bq_faults::hit("wal.append.torn").is_some() {
            encoded.truncate((encoded.len() / 2).max(1));
            bq_obs::counter!(
                "bq_storage_wal_torn_appends_total",
                "WAL appends torn by faults"
            )
            .inc();
        }
        bq_obs::counter!("bq_storage_wal_appends_total", "WAL records appended").inc();
        bq_obs::counter!("bq_storage_wal_bytes_total", "WAL bytes appended")
            .add(encoded.len() as u64);
        self.buf.extend_from_slice(&encoded);
        self.records += 1;
        self.unsynced += 1;
        Ok(lsn)
    }

    /// Force the log to stable storage (simulated): all records appended
    /// since the last sync become one durable fsync batch. Returns the
    /// batch size. Callers (e.g. commit) group appends between syncs, so
    /// the fsync count vs. append count exposes batching behaviour.
    ///
    /// Failpoint `wal.sync.skip`: the fsync is silently dropped — the
    /// batch stays volatile ([`Wal::synced_len`] does not advance), so a
    /// crash loses it even though the caller believed it durable.
    ///
    /// Failpoint `wal.append.enospc`: a full device fails the fsync too —
    /// the batch stays volatile and the caller sees
    /// [`StorageError::DiskFull`].
    pub fn sync(&mut self) -> Result<usize> {
        if bq_faults::hit("wal.append.enospc").is_some() {
            bq_obs::counter!(
                "bq_storage_wal_enospc_total",
                "WAL writes refused by a full device (injected)"
            )
            .inc();
            return Err(StorageError::DiskFull);
        }
        if bq_faults::hit("wal.sync.skip").is_some() {
            bq_obs::counter!(
                "bq_storage_wal_skipped_fsyncs_total",
                "WAL fsyncs lost to faults"
            )
            .inc();
            return Ok(0);
        }
        let batch = self.unsynced;
        self.synced_len = self.buf.len();
        if batch > 0 {
            self.unsynced = 0;
            self.syncs += 1;
            bq_obs::counter!("bq_storage_wal_fsyncs_total", "WAL fsync batches").inc();
            bq_obs::histogram!(
                "bq_storage_wal_fsync_batch",
                "records per WAL fsync batch",
                bq_obs::SIZE_BUCKETS
            )
            .observe(batch as u64);
        }
        Ok(batch)
    }

    /// Number of fsync batches forced so far.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Bytes of the log guaranteed durable: everything up to the last
    /// successful [`Wal::sync`]. A crash may preserve any prefix of the
    /// bytes past this point (including torn fragments), never fewer.
    pub fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// Number of records appended.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Size of the log in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Raw bytes of the durable prefix starting at byte offset `from`,
    /// for replication shipping. Only synced bytes are eligible — a
    /// subscriber must never see records a crash could still lose.
    /// `from` values at or past the durable prefix yield an empty slice.
    pub fn durable_bytes_from(&self, from: usize) -> &[u8] {
        let end = self.synced_len;
        if from >= end {
            &[]
        } else {
            &self.buf[from..end]
        }
    }

    /// Decode every complete record in `buf`, returning the records and
    /// the number of bytes consumed. A truncated trailing record stops
    /// the scan (the caller buffers the tail and retries once more bytes
    /// arrive); an invalid tag is corruption. This is the replica-side
    /// complement of [`Wal::durable_bytes_from`]: shipped segments can
    /// split records at arbitrary byte boundaries.
    pub fn decode_stream(buf: &[u8]) -> Result<(Vec<LogRecord>, usize)> {
        let mut out = Vec::new();
        let consumed = LogRecord::decode_prefix(buf, &mut out)?;
        Ok((out, consumed))
    }

    /// Decode every complete record in order. A truncated trailing
    /// record (crash mid-append) is treated as end-of-log, not an error;
    /// use [`Wal::iter_with_tail`] to learn where the tear was. Only an
    /// invalid tag — real corruption in the middle of the log — yields
    /// [`StorageError::CorruptLog`].
    pub fn iter(&self) -> Result<Vec<LogRecord>> {
        Ok(self.iter_with_tail()?.0)
    }

    /// Decode every complete record, and the LSN of a torn trailing
    /// record if the log ends mid-record.
    pub fn iter_with_tail(&self) -> Result<(Vec<LogRecord>, Option<Lsn>)> {
        let mut out = Vec::with_capacity(self.records);
        let end = LogRecord::decode_prefix(&self.buf, &mut out)?;
        if end == self.buf.len() {
            return Ok((out, None));
        }
        bq_obs::counter!(
            "bq_storage_wal_torn_tails_total",
            "torn trailing WAL records discarded at recovery"
        )
        .inc();
        Ok((out, Some(end as Lsn)))
    }

    /// Truncate the log to `len` bytes — simulates a crash mid-append.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.synced_len = self.synced_len.min(len);
    }

    /// ARIES-style recovery: redo all updates in log order, then undo the
    /// updates of every transaction without a COMMIT record, in reverse
    /// order. Pages touched are sealed with the final state.
    ///
    /// Robust against two crash artifacts: a torn trailing record is
    /// treated as end-of-log (reported via
    /// [`RecoveryReport::torn_tail`]), and a page whose stored image
    /// fails its checksum is rebuilt from scratch by the redo pass
    /// (possible because this log is never checkpoint-truncated, so it
    /// holds every update since the page was born).
    pub fn recover(&self, store: &mut PageStore) -> Result<RecoveryReport> {
        bq_obs::counter!("bq_storage_recoveries_total", "WAL recovery runs").inc();
        let (records, torn_tail) = self.iter_with_tail()?;
        let mut committed: Vec<TxnId> = Vec::new();
        let mut started: Vec<TxnId> = Vec::new();
        for rec in &records {
            match rec {
                LogRecord::Begin(t) if !started.contains(t) => started.push(*t),
                LogRecord::Commit(t) => committed.push(*t),
                LogRecord::TaggedCommit { txn, .. } => committed.push(*txn),
                _ => {}
            }
        }
        let losers: Vec<TxnId> = started
            .iter()
            .copied()
            .filter(|t| !committed.contains(t))
            .collect();

        let mut report = RecoveryReport {
            committed: committed.clone(),
            rolled_back: losers.clone(),
            torn_tail,
            ..RecoveryReport::default()
        };

        // Redo pass: replay every update, winners and losers alike. A
        // corrupt page image is replaced with a fresh zeroed page — the
        // log replays its entire history.
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
                    Err(StorageError::Corruption { .. }) => {
                        report.pages_restored += 1;
                        bq_obs::counter!(
                            "bq_storage_recovery_page_restores_total",
                            "corrupt pages rebuilt from the log during recovery"
                        )
                        .inc();
                        Page::new()
                    }
                    Err(e) => return Err(e),
                };
                let start = *offset as usize;
                p.payload_mut()[start..start + after.len()].copy_from_slice(after);
                store.write(*page, p)?;
                report.redone += 1;
            }
        }

        // Undo pass: revert loser updates in reverse log order.
        for rec in records.iter().rev() {
            if let LogRecord::Update {
                txn,
                page,
                offset,
                before,
                ..
            } = rec
            {
                if losers.contains(txn) {
                    let mut p = store.read(*page)?;
                    let start = *offset as usize;
                    p.payload_mut()[start..start + before.len()].copy_from_slice(before);
                    store.write(*page, p)?;
                    report.undone += 1;
                }
            }
        }
        bq_obs::counter!(
            "bq_storage_recovery_redo_total",
            "updates replayed by recovery"
        )
        .add(report.redone as u64);
        bq_obs::counter!(
            "bq_storage_recovery_undo_total",
            "updates reverted by recovery"
        )
        .add(report.undone as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(txn: TxnId, page: PageId, offset: u32, before: &[u8], after: &[u8]) -> LogRecord {
        LogRecord::Update {
            txn,
            page,
            offset,
            before: before.to_vec(),
            after: after.to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        let mut wal = Wal::new();
        let recs = vec![
            LogRecord::Begin(1),
            update(1, PageId(3), 10, b"old", b"new"),
            LogRecord::Checkpoint(vec![1, 2]),
            LogRecord::Commit(1),
            LogRecord::Abort(2),
        ];
        for r in &recs {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.iter().unwrap(), recs);
        assert_eq!(wal.record_count(), 5);
    }

    #[test]
    fn encode_decode_roundtrip_replication_variants() {
        let mut wal = Wal::new();
        let recs = vec![
            LogRecord::CreateTable {
                name: "emp".to_string(),
                cols: vec![("id".to_string(), 0), ("name".to_string(), 1)],
            },
            LogRecord::Begin(3),
            LogRecord::RowInsert {
                txn: 3,
                page: PageId(7),
                slot: 2,
                table: "emp".to_string(),
                bytes: vec![1, 2, 3, 4],
            },
            LogRecord::TaggedCommit {
                txn: 3,
                client: "bq-failover-a1".to_string(),
                request: 42,
            },
        ];
        for r in &recs {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.iter().unwrap(), recs);
    }

    #[test]
    fn tagged_commit_is_a_winner_in_recovery() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.append(&update(1, pid, 0, b"\0", b"T")).unwrap();
        wal.append(&LogRecord::TaggedCommit {
            txn: 1,
            client: "c".to_string(),
            request: 1,
        })
        .unwrap();
        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.committed, vec![1]);
        assert!(report.rolled_back.is_empty());
        assert_eq!(store.read(pid).unwrap().payload()[0], b'T');
    }

    #[test]
    fn durable_bytes_expose_only_the_synced_prefix() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.sync().unwrap();
        let durable = wal.synced_len();
        wal.append(&LogRecord::Commit(1)).unwrap();
        assert_eq!(wal.durable_bytes_from(0).len(), durable);
        assert!(wal.durable_bytes_from(durable).is_empty());
        assert!(wal.durable_bytes_from(durable + 100).is_empty());
        wal.sync().unwrap();
        let (recs, consumed) = Wal::decode_stream(wal.durable_bytes_from(0)).unwrap();
        assert_eq!(recs, vec![LogRecord::Begin(1), LogRecord::Commit(1)]);
        assert_eq!(consumed, wal.synced_len());
    }

    #[test]
    fn decode_stream_buffers_a_split_record() {
        let rec = LogRecord::RowInsert {
            txn: 9,
            page: PageId(1),
            slot: 0,
            table: "t".to_string(),
            bytes: vec![5; 32],
        };
        let encoded = rec.encode();
        let mid = encoded.len() / 2;
        let (recs, consumed) = Wal::decode_stream(&encoded[..mid]).unwrap();
        assert!(recs.is_empty());
        assert_eq!(consumed, 0);
        let (recs, consumed) = Wal::decode_stream(&encoded).unwrap();
        assert_eq!(recs, vec![rec]);
        assert_eq!(consumed, encoded.len());
        assert!(Wal::decode_stream(&[0xEE, 0, 0]).is_err());
    }

    #[test]
    fn lsns_are_monotonic() {
        let mut wal = Wal::new();
        let a = wal.append(&LogRecord::Begin(1)).unwrap();
        let b = wal.append(&LogRecord::Commit(1)).unwrap();
        assert!(b > a);
        assert_eq!(a, 0);
    }

    #[test]
    fn torn_trailing_record_is_end_of_log() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        let tear = wal
            .append(&update(1, PageId(0), 0, b"aaaa", b"bbbb"))
            .unwrap();
        let full = wal.byte_len();
        wal.truncate(full - 2);
        // The torn record is dropped; everything before it survives.
        let (records, tail) = wal.iter_with_tail().unwrap();
        assert_eq!(records, vec![LogRecord::Begin(1)]);
        assert_eq!(tail, Some(tear));
        assert_eq!(wal.iter().unwrap(), vec![LogRecord::Begin(1)]);
    }

    #[test]
    fn bad_tag_is_still_corruption() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        let pos = wal.byte_len();
        wal.buf.push(0xEE); // not a valid tag
        wal.buf.extend_from_slice(&[0; 8]);
        assert_eq!(wal.iter(), Err(StorageError::CorruptLog(pos)));
    }

    #[test]
    fn recovery_rolls_back_transaction_with_torn_record() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        // T1 commits fully; T2's update is torn mid-append by the crash.
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.append(&update(1, pid, 0, b"\0", b"C")).unwrap();
        wal.append(&LogRecord::Commit(1)).unwrap();
        wal.append(&LogRecord::Begin(2)).unwrap();
        let tear = wal.append(&update(2, pid, 1, b"\0", b"L")).unwrap();
        let full = wal.byte_len();
        wal.truncate(full - 3);

        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.committed, vec![1]);
        assert_eq!(report.rolled_back, vec![2]);
        assert_eq!(report.torn_tail, Some(tear));
        let page = store.read(pid).unwrap();
        assert_eq!(page.payload()[0], b'C');
        assert_eq!(page.payload()[1], 0, "torn loser update never replayed");
    }

    #[test]
    fn torn_append_failpoint_leaves_partial_record() {
        let site = "wal.append.torn";
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(9)).unwrap();
        bq_faults::configure(
            site,
            bq_faults::Policy::new(bq_faults::Action::Corrupt, bq_faults::Trigger::Nth(1))
                .caller_thread(),
        );
        let tear = wal
            .append(&update(9, PageId(0), 0, b"xxxx", b"yyyy"))
            .unwrap();
        bq_faults::off(site);
        let (records, tail) = wal.iter_with_tail().unwrap();
        assert_eq!(records, vec![LogRecord::Begin(9)]);
        assert_eq!(tail, Some(tear));
    }

    #[test]
    fn skipped_fsync_does_not_advance_durable_prefix() {
        let site = "wal.sync.skip";
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.sync().unwrap();
        let durable = wal.synced_len();
        assert_eq!(durable, wal.byte_len());

        wal.append(&LogRecord::Commit(1)).unwrap();
        bq_faults::configure(
            site,
            bq_faults::Policy::new(bq_faults::Action::Error, bq_faults::Trigger::Nth(1))
                .caller_thread(),
        );
        assert_eq!(
            wal.sync().unwrap(),
            0,
            "injected skip reports an empty batch"
        );
        bq_faults::off(site);
        assert_eq!(
            wal.synced_len(),
            durable,
            "the commit record is still volatile"
        );
        // A crash that preserves only the durable prefix loses the commit.
        let mut crashed = wal.clone();
        crashed.truncate(crashed.synced_len());
        assert_eq!(crashed.iter().unwrap(), vec![LogRecord::Begin(1)]);
    }

    #[test]
    fn truncate_clamps_durable_prefix() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.sync().unwrap();
        wal.truncate(1);
        assert_eq!(wal.synced_len(), 1);
    }

    #[test]
    fn recovery_redoes_committed_and_undoes_losers() {
        let mut store = PageStore::new();
        let pid = store.allocate();

        let mut wal = Wal::new();
        // T1 commits: writes "C" at offset 0.
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.append(&update(1, pid, 0, b"\0", b"C")).unwrap();
        wal.append(&LogRecord::Commit(1)).unwrap();
        // T2 never commits: writes "L" at offset 1.
        wal.append(&LogRecord::Begin(2)).unwrap();
        wal.append(&update(2, pid, 1, b"\0", b"L")).unwrap();

        // Crash: page store still holds the original zeroes (no flush).
        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.committed, vec![1]);
        assert_eq!(report.rolled_back, vec![2]);
        assert_eq!(report.redone, 2);
        assert_eq!(report.undone, 1);

        let page = store.read(pid).unwrap();
        assert_eq!(page.payload()[0], b'C', "winner effect survives");
        assert_eq!(page.payload()[1], 0, "loser effect rolled back");
    }

    #[test]
    fn recovery_handles_stolen_dirty_pages() {
        // A loser's page got flushed before the crash (STEAL policy):
        // undo must still revert it.
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(7)).unwrap();
        wal.append(&update(7, pid, 5, b"\0\0", b"XY")).unwrap();
        // Simulate the flush of the dirty page.
        let mut p = store.read(pid).unwrap();
        p.payload_mut()[5..7].copy_from_slice(b"XY");
        store.write(pid, p).unwrap();

        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.rolled_back, vec![7]);
        let page = store.read(pid).unwrap();
        assert_eq!(&page.payload()[5..7], b"\0\0");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.append(&update(1, pid, 0, b"\0\0\0", b"abc")).unwrap();
        wal.append(&LogRecord::Commit(1)).unwrap();
        wal.recover(&mut store).unwrap();
        wal.recover(&mut store).unwrap();
        let page = store.read(pid).unwrap();
        assert_eq!(&page.payload()[..3], b"abc");
    }

    #[test]
    fn multiple_updates_same_txn_undone_in_reverse() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        // Two overlapping updates to the same byte; undo must restore "\0".
        wal.append(&update(1, pid, 0, b"\0", b"A")).unwrap();
        wal.append(&update(1, pid, 0, b"A", b"B")).unwrap();
        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.undone, 2);
        let page = store.read(pid).unwrap();
        assert_eq!(page.payload()[0], 0);
    }

    #[test]
    fn recovery_rebuilds_corrupt_page_from_log() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.append(&update(1, pid, 0, b"\0\0\0", b"abc")).unwrap();
        wal.append(&LogRecord::Commit(1)).unwrap();
        // Flush the page, then rot a byte of its stored image.
        let mut p = store.read(pid).unwrap();
        p.payload_mut()[..3].copy_from_slice(b"abc");
        store.write(pid, p).unwrap();
        store.corrupt(pid, crate::page::HEADER_SIZE + 100).unwrap();

        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.pages_restored, 1);
        let page = store.read(pid).unwrap();
        assert_eq!(&page.payload()[..3], b"abc");
    }

    #[test]
    fn aborted_transaction_is_a_loser() {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(4)).unwrap();
        wal.append(&update(4, pid, 2, b"\0", b"Z")).unwrap();
        wal.append(&LogRecord::Abort(4)).unwrap();
        let report = wal.recover(&mut store).unwrap();
        assert_eq!(report.rolled_back, vec![4]);
        assert_eq!(store.read(pid).unwrap().payload()[2], 0);
    }
}

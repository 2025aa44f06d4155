//! Write-ahead log.
//!
//! The log is an append-only byte buffer of self-delimiting logical
//! records, each carrying a transaction id. It knows which prefix of
//! itself is durable ([`Wal::synced_len`]) and how a crash treats the rest
//! (any longer prefix may survive, torn records included), but it holds no
//! recovery routine: the engine that writes the records (bq-core's `Db`)
//! decides after a crash what they mean.

use crate::error::StorageError;
use crate::page::PageId;
use crate::Result;
use bq_util::{ByteReader, ByteWriter, DecodeError};

/// A log sequence number: byte offset of the record in the log.
pub type Lsn = u64;

/// Transaction identifier used by the log.
pub type TxnId = u64;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
// Tag 4 stays unassigned: logs once defined it as a page-image update,
// and a log holding one must be refused as corrupt, not misread.
const TAG_CHECKPOINT: u8 = 5;
const TAG_CREATE_TABLE: u8 = 6;
const TAG_ROW_INSERT: u8 = 7;
const TAG_TAGGED_COMMIT: u8 = 8;
const TAG_CREATE_INDEX: u8 = 9;

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction start.
    Begin(TxnId),
    /// Transaction committed; its effects must survive recovery.
    Commit(TxnId),
    /// Transaction rolled back; its rows left the heap before this
    /// record was written.
    Abort(TxnId),
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
    /// writer chose for it. Replicas replay the tuple through their own
    /// heap (locations may differ), and crash recovery addresses the row
    /// by table and bytes, so the location is a record of where the row
    /// went, not a key.
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
    /// Logical DDL: an index was created on `table.column`. It names no
    /// rows: whoever replays it builds the index over the rows it holds.
    CreateIndex {
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
}

impl LogRecord {
    /// Serialize to self-delimiting bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append [`LogRecord::encode`]'s bytes to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
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
            LogRecord::CreateIndex { table, column } => {
                buf.put_u8(TAG_CREATE_INDEX);
                buf.put_str(table);
                buf.put_str(column);
            }
        }
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
            TAG_CREATE_INDEX => LogRecord::CreateIndex {
                table: r.str()?.to_owned(),
                column: r.str()?.to_owned(),
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

/// An append-only write-ahead log.
#[derive(Debug, Default)]
pub struct Wal {
    buf: Vec<u8>,
    records: usize,
    unsynced: usize,
    syncs: u64,
    synced_len: usize,
    /// The log ends in a torn fragment: nothing more is written until a
    /// crash cuts it off.
    torn: bool,
}

impl Wal {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, returning its LSN (byte offset).
    ///
    /// Failpoint `wal.append.torn`: only a prefix of the encoded record
    /// reaches the log — the write was torn by a crash mid-append — and
    /// the append fails with [`StorageError::TornLog`]. From then on every
    /// append and sync fails the same way (a record after the fragment
    /// would decode as garbage and be lost with it) until [`Wal::crash`]
    /// drops the partial record.
    ///
    /// Failpoint `wal.append.enospc`: the log device is full — the write
    /// is refused with [`StorageError::DiskFull`] and the log is left
    /// exactly as it was. The caller aborts the in-flight transaction;
    /// reads remain available.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        if self.torn {
            return Err(StorageError::TornLog);
        }
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
            self.buf.extend_from_slice(&encoded);
            self.torn = true;
            return Err(StorageError::TornLog);
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
    /// [`StorageError::DiskFull`]. After a torn append it fails with
    /// [`StorageError::TornLog`]: no sync may cover the fragment.
    pub fn sync(&mut self) -> Result<usize> {
        if self.torn {
            return Err(StorageError::TornLog);
        }
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

    /// A crash of the log device. `cut` sees the whole log and its synced
    /// length and names the byte the crash cuts at; every byte past it is
    /// lost, and a synced byte never is (the cut is clamped into
    /// `synced_len..=byte_len`). A record the cut tears is dropped too, so
    /// the log ends at its last complete record and the next append
    /// decodes (a torn append's fragment is one such record). Returns the
    /// surviving records.
    pub fn crash(&mut self, cut: impl FnOnce(&[u8], usize) -> usize) -> Result<Vec<LogRecord>> {
        self.torn = false;
        let keep = cut(&self.buf, self.synced_len).clamp(self.synced_len, self.buf.len());
        self.buf.truncate(keep);
        let mut out = Vec::with_capacity(self.records);
        let end = LogRecord::decode_prefix(&self.buf, &mut out)?;
        if end < keep {
            bq_obs::counter!(
                "bq_storage_wal_torn_tails_total",
                "torn trailing WAL records discarded by a crash"
            )
            .inc();
            // A torn record is dropped even if a sync covered it.
            self.buf.truncate(end);
            self.synced_len = self.synced_len.min(end);
        }
        let synced = self.records.saturating_sub(self.unsynced);
        self.records = out.len();
        self.unsynced = self.records.saturating_sub(synced);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every complete record of `wal`, in order.
    fn records(wal: &Wal) -> Result<Vec<LogRecord>> {
        Ok(Wal::decode_stream(&wal.buf)?.0)
    }

    fn row_insert(txn: TxnId, bytes: &[u8]) -> LogRecord {
        LogRecord::RowInsert {
            txn,
            page: PageId(0),
            slot: 0,
            table: "t".to_string(),
            bytes: bytes.to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        let mut wal = Wal::new();
        let recs = vec![
            LogRecord::Begin(1),
            row_insert(1, b"new"),
            LogRecord::Checkpoint(vec![1, 2]),
            LogRecord::Commit(1),
            LogRecord::Abort(2),
        ];
        for r in &recs {
            wal.append(r).unwrap();
        }
        assert_eq!(records(&wal).unwrap(), recs);
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
            LogRecord::CreateIndex {
                table: "emp".to_string(),
                column: "name".to_string(),
            },
        ];
        for r in &recs {
            wal.append(r).unwrap();
        }
        assert_eq!(records(&wal).unwrap(), recs);
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
        let tear = wal.append(&row_insert(1, b"bbbb")).unwrap();
        // The crash tears the insert two bytes short of its end: the torn
        // record is dropped, everything before it survives, and the log
        // ends where the torn record began.
        let survivors = wal.crash(|log, _| log.len() - 2).unwrap();
        assert_eq!(survivors, vec![LogRecord::Begin(1)]);
        assert_eq!(wal.byte_len() as Lsn, tear);
        assert_eq!(records(&wal).unwrap(), survivors);
        // The next append decodes.
        wal.append(&LogRecord::Abort(1)).unwrap();
        assert_eq!(records(&wal).unwrap().len(), 2);
    }

    #[test]
    fn bad_tag_is_still_corruption() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        let pos = wal.byte_len();
        wal.buf.push(0xEE); // not a valid tag
        wal.buf.extend_from_slice(&[0; 8]);
        assert_eq!(records(&wal), Err(StorageError::CorruptLog(pos)));
    }

    /// The retired page-image tag decodes to a typed refusal, whatever
    /// bytes follow it: here, the last pinned encoding it had.
    #[test]
    fn the_retired_update_tag_is_refused() {
        let mut bytes = vec![4];
        bytes.extend_from_slice(&4u64.to_le_bytes());
        for n in [5u32, 6, 2, 2] {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        bytes.extend_from_slice(b"abcd");
        assert_eq!(Wal::decode_stream(&bytes), Err(StorageError::CorruptLog(0)));
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
        let tear = wal.byte_len();
        let torn = wal.append(&row_insert(9, b"yyyy"));
        bq_faults::off(site);
        assert_eq!(
            torn,
            Err(StorageError::TornLog),
            "the torn append fails typed"
        );
        assert!(wal.byte_len() > tear, "a fragment reached the log");
        // Nothing lands after the fragment, and no sync covers it.
        let len = wal.byte_len();
        assert_eq!(
            wal.append(&LogRecord::Commit(9)),
            Err(StorageError::TornLog)
        );
        assert_eq!(wal.sync(), Err(StorageError::TornLog));
        assert_eq!((wal.byte_len(), wal.synced_len()), (len, 0));
        let survivors = wal.crash(|log, _| log.len()).unwrap();
        assert_eq!(survivors, vec![LogRecord::Begin(9)]);
        assert_eq!(wal.byte_len(), tear, "the fragment is gone");
        // The crash lifts the refusal.
        wal.append(&LogRecord::Commit(9)).unwrap();
        wal.sync().unwrap();
        let survivors = wal.crash(|log, _| log.len()).unwrap();
        assert_eq!(survivors, vec![LogRecord::Begin(9), LogRecord::Commit(9)]);
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
        let survivors = wal.crash(|_, synced| synced).unwrap();
        assert_eq!(survivors, vec![LogRecord::Begin(1)]);
    }

    #[test]
    fn truncate_clamps_durable_prefix() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Begin(1)).unwrap();
        wal.sync().unwrap();
        wal.append(&LogRecord::Commit(1)).unwrap();
        // A cut below the synced length is clamped up to it ...
        let survivors = wal.crash(|_, _| 1).unwrap();
        assert_eq!(survivors, vec![LogRecord::Begin(1)]);
        assert_eq!(wal.byte_len(), wal.synced_len());
        // ... and one past the end keeps the whole log.
        wal.append(&LogRecord::Commit(1)).unwrap();
        let len = wal.byte_len();
        wal.crash(|_, _| usize::MAX).unwrap();
        assert_eq!(wal.byte_len(), len);
        // A sync after a crash counts just the records appended since.
        assert_eq!(wal.sync().unwrap(), 1);
    }
}

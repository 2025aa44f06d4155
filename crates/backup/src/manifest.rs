//! Backup manifests: the small, checksummed records of truth.
//!
//! A manifest names exactly one archived payload object (a snapshot
//! image for a full backup, a WAL segment for an incremental), records
//! the WAL range the backup covers, the payload's length and FNV-1a
//! checksum, and the committed-content fingerprint at the horizon. The
//! encoding ends with an FNV-1a trailer over everything before it, so a
//! torn or bit-flipped manifest is always detected and refused — it can
//! never silently point a restore at the wrong bytes.
//!
//! Chain rules: a full backup covers `[0, wal_end]` by itself
//! (`wal_start == wal_end` — the image subsumes all earlier history);
//! an incremental covers `[wal_start, wal_end)` and is applicable only
//! when replay has reached exactly `wal_start`. Manifests are written
//! *after* their payload object, so a crash mid-backup leaves orphan
//! objects that no manifest points at; the next attempt overwrites them.

use crate::error::BackupError;
use crate::Result;
use bq_util::{fnv1a32, ByteReader, ByteWriter, DecodeError};

/// Magic bytes leading every manifest.
const MAGIC: &[u8; 4] = b"BQBK";
/// Version byte after the magic.
const VERSION: u8 = 1;

/// What a backup archived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupKind {
    /// A [`bq_core::Db::snapshot_bytes`] image at `wal_end`.
    Full,
    /// The durable WAL bytes `[wal_start, wal_end)`.
    Incremental,
}

impl BackupKind {
    /// Human-readable name, as shown by `bq.backups`.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackupKind::Full => "full",
            BackupKind::Incremental => "incremental",
        }
    }
}

/// One checksummed backup record. See the module docs for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Chain sequence number; also the archive object name prefix.
    pub seq: u64,
    /// Full image or incremental WAL delta.
    pub kind: BackupKind,
    /// First WAL byte offset covered (equals `wal_end` for a full).
    pub wal_start: u64,
    /// WAL horizon this backup restores to.
    pub wal_end: u64,
    /// Archive object holding the payload bytes.
    pub object: String,
    /// Payload length in bytes.
    pub object_len: u64,
    /// FNV-1a checksum of the payload bytes.
    pub object_fnv: u32,
    /// [`bq_core::Db::content_fingerprint`] at `wal_end` (committed
    /// rows only), pinned so restores can be spot-checked.
    pub fingerprint: u64,
}

impl Manifest {
    /// Archive object name of the manifest for chain sequence `seq`.
    pub fn name_for(seq: u64) -> String {
        format!("{seq:08}.manifest")
    }

    /// Archive object name of this manifest.
    pub fn name(&self) -> String {
        Manifest::name_for(self.seq)
    }

    /// Serialize with the trailing FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64(self.seq);
        buf.put_u8(match self.kind {
            BackupKind::Full => 0,
            BackupKind::Incremental => 1,
        });
        buf.put_u64(self.wal_start);
        buf.put_u64(self.wal_end);
        buf.put_str(&self.object);
        buf.put_u64(self.object_len);
        buf.put_u32(self.object_fnv);
        buf.put_u64(self.fingerprint);
        let sum = fnv1a32(&buf);
        buf.put_u32(sum);
        buf
    }

    /// Decode and verify; every failure is a typed
    /// [`BackupError::TornManifest`] naming `name`.
    pub fn decode(name: &str, bytes: &[u8]) -> Result<Manifest> {
        let torn = |detail: String| BackupError::TornManifest {
            name: name.to_string(),
            detail,
        };
        let Some((body, trailer)) = bytes.split_last_chunk::<4>() else {
            return Err(torn(format!("only {} bytes", bytes.len())));
        };
        let stored = u32::from_le_bytes(*trailer);
        let computed = fnv1a32(body);
        if stored != computed {
            return Err(torn(format!(
                "trailer checksum {stored:#010x} != computed {computed:#010x}"
            )));
        }
        Manifest::decode_body(body).map_err(|e| torn(e.to_string()))
    }

    fn decode_body(body: &[u8]) -> std::result::Result<Manifest, DecodeError> {
        let mut r = ByteReader::new(body);
        if r.take(4)? != MAGIC {
            return Err(DecodeError::invalid(0, "bad magic"));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::invalid(
                r.pos() - 1,
                format!("unknown version {version}"),
            ));
        }
        let seq = r.u64()?;
        let kind = match r.u8()? {
            0 => BackupKind::Full,
            1 => BackupKind::Incremental,
            other => {
                return Err(DecodeError::invalid(
                    r.pos() - 1,
                    format!("bad kind byte {other}"),
                ))
            }
        };
        let m = Manifest {
            seq,
            kind,
            wal_start: r.u64()?,
            wal_end: r.u64()?,
            object: r.str()?.to_owned(),
            object_len: r.u64()?,
            object_fnv: r.u32()?,
            fingerprint: r.u64()?,
        };
        r.finish()?;
        Ok(m)
    }

    /// Verify `bytes` against this manifest's recorded length and
    /// checksum; a mismatch is a typed [`BackupError::ObjectCorrupt`].
    pub fn verify_object(&self, bytes: &[u8]) -> Result<()> {
        let found = fnv1a32(bytes);
        if bytes.len() as u64 != self.object_len || found != self.object_fnv {
            return Err(BackupError::ObjectCorrupt {
                name: self.object.clone(),
                expected: self.object_fnv,
                found,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seq: 3,
            kind: BackupKind::Incremental,
            wal_start: 128,
            wal_end: 512,
            object: "00000003.seg".to_string(),
            object_len: 384,
            object_fnv: 0x1234_5678,
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&m.name(), &bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.name(), "00000003.manifest");
    }

    #[test]
    fn every_truncation_is_refused_typed() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Manifest::decode("m", &bytes[..len]).unwrap_err();
            assert!(
                matches!(err, BackupError::TornManifest { .. }),
                "len {len}: {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Manifest::decode("m", &bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn object_verification_checks_length_and_checksum() {
        let payload = b"the archived bytes".to_vec();
        let mut m = sample();
        m.object_len = payload.len() as u64;
        m.object_fnv = fnv1a32(&payload);
        m.verify_object(&payload).unwrap();
        let mut flipped = payload.clone();
        flipped[4] ^= 0x01;
        assert!(matches!(
            m.verify_object(&flipped),
            Err(BackupError::ObjectCorrupt { .. })
        ));
        assert!(m.verify_object(&payload[..5]).is_err());
    }
}

//! Clean reader decoder (virtual path crates/demo/src/snapshot.rs): every
//! count that sizes an allocation comes from the reader's bounded
//! `count(..)`, inline or through a binding; an encoder sized by its
//! own input is not a decoder.

use bq_util::{ByteReader, DecodeError};

pub fn decode_ids(r: &mut ByteReader<'_>) -> Result<Vec<u64>, DecodeError> {
    let mut ids = Vec::with_capacity(r.count(8)?);
    for _ in 0..ids.capacity() {
        ids.push(r.u64()?);
    }
    Ok(ids)
}

pub fn decode_names(bytes: &[u8]) -> Result<Vec<String>, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let n = r.count(4)?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.str()?.to_owned());
    }
    Ok(names)
}

pub fn encode_ids(ids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * ids.len());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

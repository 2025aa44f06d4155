//! Tuple ⇄ bytes codec for storage-backed tables.
//!
//! A simple self-delimiting tagged encoding: per value, a 1-byte tag then
//! the payload (little-endian i64, length-prefixed UTF-8, a boolean byte,
//! or a null label).

use crate::Result;
use bq_relational::{Tuple, Value};
use bq_util::{ByteReader, ByteWriter, DecodeError};

const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_NULL: u8 = 4;

/// Encode a tuple to bytes.
pub fn encode(tuple: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * tuple.arity());
    encode_into(&mut out, tuple);
    out
}

/// Append a tuple's encoding to `out`, so a caller assembling a larger
/// buffer (a result frame) writes each tuple in place.
pub fn encode_into(out: &mut Vec<u8>, tuple: &Tuple) {
    out.put_u32(tuple.arity() as u32);
    for v in tuple.values() {
        match v {
            Value::Int(i) => {
                out.put_u8(TAG_INT);
                out.put_u64(*i as u64);
            }
            Value::Str(s) => {
                out.put_u8(TAG_STR);
                out.put_str(s);
            }
            Value::Bool(b) => {
                out.put_u8(TAG_BOOL);
                out.put_u8(u8::from(*b));
            }
            Value::Null(n) => {
                out.put_u8(TAG_NULL);
                out.put_u32(*n);
            }
        }
    }
}

/// Decode bytes back into a tuple.
pub fn decode(bytes: &[u8]) -> Result<Tuple> {
    let mut r = ByteReader::new(bytes);
    // The smallest value is a boolean: a tag and one byte.
    let values = r.list(2, |r| {
        let at = r.pos();
        Ok(match r.u8()? {
            TAG_INT => Value::Int(r.u64()? as i64),
            TAG_STR => Value::Str(r.str()?.to_owned()),
            TAG_BOOL => Value::Bool(r.u8()? != 0),
            TAG_NULL => Value::Null(r.u32()?),
            other => return Err(DecodeError::invalid(at, format!("bad tag {other}"))),
        })
    })?;
    r.finish()?;
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_value_kinds() {
        let t = Tuple::new(vec![
            Value::Int(-42),
            Value::str("héllo wörld"),
            Value::Bool(true),
            Value::Null(7),
            Value::str(""),
        ]);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn empty_tuple_roundtrips() {
        let t = Tuple::new(vec![]);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_bytes_error() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let bytes = encode(&t);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let t = Tuple::new(vec![Value::Bool(false)]);
        let mut bytes = encode(&t);
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn bad_tag_error() {
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.push(99);
        assert!(decode(&bytes).is_err());
    }
}

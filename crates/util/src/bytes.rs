//! The little-endian byte reader and writer under every binary format in
//! the workspace: the wire protocol, the WAL, backup manifests, the tuple
//! codec and replica snapshots.
//!
//! Decoding is *total*: every [`ByteReader`] method returns a value or a
//! [`DecodeError`] naming the byte where decoding stopped. Nothing
//! panics, and nothing is sized by a number read off the input before
//! that number is checked against the bytes actually left. For lengths
//! the check is exact. For counts of items it is [`ByteReader::count`]'s
//! one rule: a count is refused when even the smallest encoding of that
//! many items would run past the end of the input. That rule bounds every
//! allocation a decoder makes by a fixed multiple of its input, so no
//! format needs a cap of its own.
//!
//! Integers are little-endian; byte strings and UTF-8 strings carry a
//! `u32` length prefix ([`ByteWriter::put_bytes`], [`ByteWriter::put_str`]).

use std::fmt;

/// Why a decode stopped. Each format maps the two kinds onto its own
/// error type; the WAL, for one, reads [`DecodeError::Truncated`] as a
/// torn tail and [`DecodeError::Invalid`] as corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside the value starting at byte `at`, or a
    /// length or count there claimed more bytes than are left.
    Truncated {
        /// Offset of the value that did not fit.
        at: usize,
    },
    /// The bytes at `at` are present but encode nothing valid: an
    /// unknown tag, invalid UTF-8, trailing bytes.
    Invalid {
        /// Offset of the offending value.
        at: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl DecodeError {
    /// An [`DecodeError::Invalid`] at byte `at`.
    pub fn invalid(at: usize, detail: impl Into<String>) -> DecodeError {
        DecodeError::Invalid {
            at,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at } => write!(f, "truncated at byte {at}"),
            DecodeError::Invalid { at, detail } => write!(f, "{detail} at byte {at}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an input slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read `buf` from its first byte.
    #[inline]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take_at(self.pos, n)
    }

    /// The next `n` bytes, reporting a shortfall at `at` — the start of
    /// the value they belong to.
    #[inline]
    fn take_at(&mut self, at: usize, n: usize) -> Result<&'a [u8], DecodeError> {
        let chunk = self.buf[self.pos..]
            .get(..n)
            .ok_or(DecodeError::Truncated { at })?;
        self.pos += n;
        Ok(chunk)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated { at: self.pos })?;
        self.pos += N;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32`-length-prefixed byte string, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        self.take_at(at, len)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|_| DecodeError::invalid(at, "invalid UTF-8"))
    }

    /// A `u32` count of items whose smallest encoding is
    /// `min_item_bytes` long (taken as at least 1). A count that could
    /// not fit in the bytes left is [`DecodeError::Truncated`], so the
    /// result is safe to size an allocation with.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::Truncated { at });
        }
        Ok(n)
    }

    /// A [`ByteReader::count`] followed by that many items, each read
    /// by `item`.
    #[inline]
    pub fn list<T, E: From<DecodeError>>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// The end-of-input check: trailing bytes are
    /// [`DecodeError::Invalid`].
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::invalid(
                self.pos,
                format!("{} trailing bytes", self.remaining()),
            ))
        }
    }
}

/// The encoding side of [`ByteReader`], on any growable byte buffer.
pub trait ByteWriter {
    /// One byte.
    fn put_u8(&mut self, v: u8);
    /// A little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// A little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// A `u32`-length-prefixed byte string.
    fn put_bytes(&mut self, b: &[u8]);
    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

impl ByteWriter for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_roundtrip() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u32(0xdead_beef);
        out.put_u64(u64::MAX - 1);
        out.put_str("héllo");
        out.put_bytes(&[1, 2]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(&[1u8, 2][..]));
        assert!(r.is_empty());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn every_read_past_the_end_is_truncated_at_its_start() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated { at: 0 }));
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u64(), Err(DecodeError::Truncated { at: 1 }));
        assert_eq!(r.take(3), Err(DecodeError::Truncated { at: 1 }));
        assert_eq!(r.take(2), Ok(&[2u8, 3][..]));
        assert_eq!(r.u8(), Err(DecodeError::Truncated { at: 3 }));
    }

    #[test]
    fn a_length_past_the_input_is_truncated_at_the_prefix() {
        let mut buf = vec![9];
        buf.put_u32(u32::MAX);
        let mut r = ByteReader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.bytes(), Err(DecodeError::Truncated { at: 1 }));
        let mut r = ByteReader::new(&buf[1..]);
        assert_eq!(r.str(), Err(DecodeError::Truncated { at: 0 }));
    }

    #[test]
    fn invalid_utf8_and_trailing_bytes_are_invalid() {
        let mut buf = Vec::new();
        buf.put_bytes(&[0xff, 0xfe]);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.str(), Err(DecodeError::Invalid { at: 0, .. })));
        let err = ByteReader::new(&[0, 0]).finish().unwrap_err();
        assert_eq!(err, DecodeError::invalid(0, "2 trailing bytes"));
        assert_eq!(err.to_string(), "2 trailing bytes at byte 0");
    }

    #[test]
    fn a_count_that_cannot_fit_is_refused_before_any_allocation() {
        let mut buf = Vec::new();
        buf.put_u32(3);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(ByteReader::new(&buf).count(8), Ok(3));
        assert_eq!(
            ByteReader::new(&buf).count(9),
            Err(DecodeError::Truncated { at: 0 })
        );
        // A zero minimum is read as one byte per item.
        let mut forged = Vec::new();
        forged.put_u32(u32::MAX);
        assert_eq!(
            ByteReader::new(&forged).count(0),
            Err(DecodeError::Truncated { at: 0 })
        );
        let listed: Result<Vec<u64>, DecodeError> = ByteReader::new(&forged).list(8, |r| r.u64());
        assert_eq!(listed, Err(DecodeError::Truncated { at: 0 }));
    }

    #[test]
    fn list_reads_each_item_and_forwards_item_errors() {
        let mut buf = Vec::new();
        buf.put_u32(2);
        buf.put_str("a");
        buf.put_str("bc");
        let mut r = ByteReader::new(&buf);
        let items = r.list(4, |r| r.str().map(str::to_owned));
        assert_eq!(items, Ok(vec!["a".to_string(), "bc".to_string()]));
        #[derive(Debug, PartialEq)]
        struct Mine(String);
        impl From<DecodeError> for Mine {
            fn from(e: DecodeError) -> Mine {
                Mine(e.to_string())
            }
        }
        let mut r = ByteReader::new(&buf);
        let refused: Result<Vec<()>, Mine> = r.list(4, |_| Err(Mine("no".into())));
        assert_eq!(refused, Err(Mine("no".into())));
    }
}

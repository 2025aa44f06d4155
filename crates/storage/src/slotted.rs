//! The classic slotted-page record layout.
//!
//! Within a page payload, records grow from the end towards the front while
//! the slot directory grows from the front towards the end:
//!
//! ```text
//! +--------+-------------------+-----------+-----------------+
//! | header | slot dir (4B/ea)  | free space| records (back)  |
//! +--------+-------------------+-----------+-----------------+
//! ```
//!
//! The layout header is 6 bytes: slot count (u16), free-space start (u16),
//! free-space end (u16). Each slot is 4 bytes: offset (u16) and length (u16).
//! A deleted slot keeps its directory entry with offset `DEAD` so record ids
//! remain stable; [`SlottedPage::compact`] reclaims the record bytes.

use crate::error::StorageError;
use crate::page::{Page, PAYLOAD_SIZE};
use crate::Result;

const LAYOUT_HEADER: usize = 6;
const SLOT_SIZE: usize = 4;
const DEAD: u16 = u16::MAX;

/// A view over a [`Page`] payload interpreting it as a slotted page.
#[derive(Debug)]
pub struct SlottedPage<'a> {
    payload: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Interpret `page`'s payload as a slotted page, initialising the layout
    /// header if the page is fresh (all zeroes would read as 0 slots with a
    /// zero free-end, which we normalise to the payload end).
    pub fn new(page: &'a mut Page) -> Self {
        let mut sp = SlottedPage {
            payload: page.payload_mut(),
        };
        if sp.free_end() == 0 {
            sp.set_free_start(LAYOUT_HEADER as u16);
            sp.set_free_end(PAYLOAD_SIZE as u16);
        }
        sp
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16_in(self.payload, off)
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.payload[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots ever allocated on this page (including dead ones).
    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16_at(0, v);
    }

    fn free_start(&self) -> u16 {
        self.u16_at(2)
    }

    fn set_free_start(&mut self, v: u16) {
        self.set_u16_at(2, v);
    }

    fn free_end(&self) -> u16 {
        self.u16_at(4)
    }

    fn set_free_end(&mut self, v: u16) {
        self.set_u16_at(4, v);
    }

    fn slot_dir_offset(slot: u16) -> usize {
        LAYOUT_HEADER + slot as usize * SLOT_SIZE
    }

    fn slot(&self, slot: u16) -> (u16, u16) {
        let off = Self::slot_dir_offset(slot);
        (self.u16_at(off), self.u16_at(off + 2))
    }

    fn set_slot(&mut self, slot: u16, record_off: u16, len: u16) {
        let off = Self::slot_dir_offset(slot);
        self.set_u16_at(off, record_off);
        self.set_u16_at(off + 2, len);
    }

    /// Contiguous free bytes between the slot directory and the record heap.
    pub fn free_space(&self) -> usize {
        (self.free_end() - self.free_start()) as usize
    }

    /// Maximum record size any empty page can accept (one slot entry + data).
    pub fn max_record_size() -> usize {
        PAYLOAD_SIZE - LAYOUT_HEADER - SLOT_SIZE
    }

    /// Can a record of `len` bytes be inserted without compaction?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: Self::max_record_size(),
            });
        }
        if !self.fits(record.len()) {
            return Err(StorageError::PageFull);
        }
        let slot = self.slot_count();
        let new_end = self.free_end() as usize - record.len();
        self.payload[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        self.set_free_start((Self::slot_dir_offset(slot + 1)) as u16);
        Ok(slot)
    }

    /// Read the record stored in `slot`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        record_in(self.payload, slot)
    }

    /// Delete the record in `slot`, keeping the slot entry so other record
    /// ids remain stable. Returns true if a live record was deleted.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (off, _) = self.slot(slot);
        if off == DEAD {
            return false;
        }
        self.set_slot(slot, DEAD, 0);
        true
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).0 != DEAD)
            .count()
    }

    /// Iterate `(slot, record)` pairs for live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Rewrite the record heap to squeeze out space freed by deletions.
    /// Slot numbers are preserved; only record offsets change.
    pub fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> = self.iter().map(|(s, r)| (s, r.to_vec())).collect();
        let mut end = PAYLOAD_SIZE;
        for (slot, rec) in &live {
            end -= rec.len();
            self.payload[end..end + rec.len()].copy_from_slice(rec);
            self.set_slot(*slot, end as u16, rec.len() as u16);
        }
        self.set_free_end(end as u16);
    }
}

fn u16_in(payload: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([payload[off], payload[off + 1]])
}

/// The record in `slot` of a slotted payload, borrowed in place.
fn record_in(payload: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= u16_in(payload, 0) {
        return None;
    }
    let dir = SlottedPage::slot_dir_offset(slot);
    let (off, len) = (u16_in(payload, dir), u16_in(payload, dir + 2));
    if off == DEAD {
        return None;
    }
    Some(&payload[off as usize..off as usize + len as usize])
}

/// The record in `slot` of `page`, read without a `&mut Page`.
pub fn record(page: &Page, slot: u16) -> Option<&[u8]> {
    record_in(page.payload(), slot)
}

/// Iterate `(slot, record)` pairs for the live records of `page` in slot
/// order: [`SlottedPage::iter`] without a `&mut Page`, so a page can be
/// read where it is stored.
pub fn records(page: &Page) -> impl Iterator<Item = (u16, &[u8])> + '_ {
    let payload = page.payload();
    (0..u16_in(payload, 0)).filter_map(move |s| record_in(payload, s).map(|r| (s, r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Page {
        Page::new()
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let s0 = sp.insert(b"hello").unwrap();
        let s1 = sp.insert(b"world!").unwrap();
        assert_eq!(sp.get(s0), Some(&b"hello"[..]));
        assert_eq!(sp.get(s1), Some(&b"world!"[..]));
        assert_eq!(sp.live_records(), 2);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let mut page = fresh();
        let sp = SlottedPage::new(&mut page);
        assert_eq!(sp.get(0), None);
    }

    #[test]
    fn delete_keeps_other_slots_stable() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let s0 = sp.insert(b"aaa").unwrap();
        let s1 = sp.insert(b"bbb").unwrap();
        assert!(sp.delete(s0));
        assert!(!sp.delete(s0), "double delete reports false");
        assert_eq!(sp.get(s0), None);
        assert_eq!(sp.get(s1), Some(&b"bbb"[..]));
    }

    #[test]
    fn page_fills_up_and_reports_full() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let rec = [7u8; 100];
        let mut inserted = 0;
        loop {
            match sp.insert(&rec) {
                Ok(_) => inserted += 1,
                Err(StorageError::PageFull) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // 100B data + 4B slot each, inside ~4074 usable bytes.
        assert!(inserted >= 35, "expected dozens of records, got {inserted}");
        assert!(!sp.fits(100));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let too_big = vec![0u8; PAYLOAD_SIZE];
        assert!(matches!(
            sp.insert(&too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn compact_reclaims_deleted_space() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        let recs: Vec<u16> = (0..10)
            .map(|i| sp.insert(&[i as u8; 200]).unwrap())
            .collect();
        let before = sp.free_space();
        for s in recs.iter().step_by(2) {
            sp.delete(*s);
        }
        sp.compact();
        assert!(sp.free_space() >= before + 5 * 200);
        // survivors unchanged
        for s in recs.iter().skip(1).step_by(2) {
            assert_eq!(sp.get(*s).unwrap(), &[*s as u8; 200][..]);
        }
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut page = fresh();
        let mut sp = SlottedPage::new(&mut page);
        sp.insert(b"a").unwrap();
        let s1 = sp.insert(b"b").unwrap();
        sp.insert(b"c").unwrap();
        sp.delete(s1);
        let got: Vec<(u16, Vec<u8>)> = sp.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(0, b"a".to_vec()), (2, b"c".to_vec())]);
        // The read-only view agrees, and sees nothing on a fresh page.
        let view: Vec<(u16, Vec<u8>)> = records(&page).map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(view, got);
        assert_eq!(
            (record(&page, 2), record(&page, 1)),
            (Some(&b"c"[..]), None)
        );
        assert_eq!(records(&fresh()).count(), 0);
    }

    #[test]
    fn layout_survives_page_roundtrip() {
        let mut page = fresh();
        {
            let mut sp = SlottedPage::new(&mut page);
            sp.insert(b"persist me").unwrap();
        }
        page.seal();
        let mut cloned = page.clone();
        let sp = SlottedPage::new(&mut cloned);
        assert_eq!(sp.get(0), Some(&b"persist me"[..]));
    }
}

//! Fixed-size page frames and the in-memory page store.
//!
//! A [`Page`] is `PAGE_SIZE` bytes. The first [`HEADER_SIZE`] bytes form a
//! header: a 4-byte FNV-1a checksum, an 8-byte LSN (log sequence number of
//! the last update, for WAL ordering), and 4 reserved bytes. Everything after
//! the header is the payload that the slotted-page layer manages.

use crate::error::StorageError;
use crate::Result;
use bq_util::fnv1a32;
use std::sync::atomic::{AtomicU64, Ordering};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the start of each page for the checksum + LSN header.
pub const HEADER_SIZE: usize = 16;

/// Usable payload bytes per page.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - HEADER_SIZE;

/// Identifier of a page within a [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A single fixed-size page of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Create a zeroed page.
    pub fn new() -> Self {
        Page {
            data: vec![0; PAGE_SIZE],
        }
    }

    /// Payload bytes (after the header), immutable.
    pub fn payload(&self) -> &[u8] {
        &self.data[HEADER_SIZE..]
    }

    /// Payload bytes (after the header), mutable. Callers must re-seal the
    /// page with [`Page::seal`] before handing it back to a store if they
    /// want the checksum kept consistent.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.data[HEADER_SIZE..]
    }

    /// Raw page bytes including the header.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Log sequence number of the last update applied to this page.
    pub fn lsn(&self) -> u64 {
        // lint: allow(panic) the 4..12 range is exactly 8 bytes
        u64::from_le_bytes(self.data[4..12].try_into().expect("8 bytes"))
    }

    /// Record the LSN of the latest update.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[4..12].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Compute the FNV-1a checksum of everything except the checksum field.
    fn compute_checksum(&self) -> u32 {
        fnv1a32(&self.data[4..])
    }

    /// Stamp the stored checksum so that [`Page::verify`] succeeds.
    pub fn seal(&mut self) {
        let sum = self.compute_checksum();
        self.data[0..4].copy_from_slice(&sum.to_le_bytes());
    }

    /// Verify the stored checksum against the current contents.
    pub fn verify(&self) -> bool {
        let (stored, computed) = self.checksums();
        stored == computed
    }

    /// The stored and freshly computed checksums, for building a typed
    /// [`StorageError::Corruption`] when they disagree.
    pub fn checksums(&self) -> (u32, u32) {
        // lint: allow(panic) the 0..4 range is exactly 4 bytes
        let stored = u32::from_le_bytes(self.data[0..4].try_into().expect("4 bytes"));
        (stored, self.compute_checksum())
    }
}

/// An in-memory vector of pages standing in for a disk file.
///
/// `PageStore` is the "device" that the buffer pool reads from and writes
/// back to. Reads verify checksums so that corruption injected by tests is
/// detected exactly as a disk-backed engine would detect torn writes.
#[derive(Debug, Default)]
pub struct PageStore {
    pages: Vec<Page>,
    /// Atomic so a read needs only `&self`: readers share the store.
    reads: AtomicU64,
    writes: u64,
}

impl PageStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh zeroed page, returning its id.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        let mut page = Page::new();
        page.seal();
        self.pages.push(page);
        id
    }

    /// Number of allocated pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages have been allocated.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Read a page, verifying its checksum.
    pub fn read(&self, id: PageId) -> Result<Page> {
        self.read_ref(id).cloned()
    }

    /// Read a page in place, verifying its checksum: [`PageStore::read`]
    /// for a reader that only looks.
    pub fn read_ref(&self, id: PageId) -> Result<&Page> {
        // relaxed: statistic, publishes no other data.
        self.reads.fetch_add(1, Ordering::Relaxed);
        bq_obs::counter!("bq_storage_page_reads_total", "page store device reads").inc();
        let page = self
            .pages
            .get(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id.0))?;
        let (expected, found) = page.checksums();
        if expected != found {
            bq_obs::counter!(
                "bq_storage_page_corruptions_total",
                "checksum failures detected on page reads"
            )
            .inc();
            return Err(StorageError::Corruption {
                page: id.0,
                expected,
                found,
            });
        }
        Ok(page)
    }

    /// Write a page back, sealing its checksum.
    ///
    /// Failpoint `page.write.bitflip`: after the seal, one payload bit
    /// flips (a simulated torn/decayed device write), so the next
    /// [`PageStore::read`] reports [`StorageError::Corruption`].
    pub fn write(&mut self, id: PageId, mut page: Page) -> Result<()> {
        self.writes += 1;
        bq_obs::counter!("bq_storage_page_writes_total", "page store device writes").inc();
        let slot = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id.0))?;
        page.seal();
        if bq_faults::hit("page.write.bitflip").is_some() {
            // Deterministic victim bit: derived from the write counter so
            // a seeded schedule corrupts the same byte every replay.
            let byte = HEADER_SIZE + (self.writes as usize).wrapping_mul(37) % PAYLOAD_SIZE;
            page.data[byte] ^= 1 << (self.writes % 8);
        }
        *slot = page;
        Ok(())
    }

    /// Number of device reads performed (for buffer-pool hit-rate tests).
    pub fn read_count(&self) -> u64 {
        // relaxed: statistic, see `read`.
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of device writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Corrupt a byte of a stored page. Test hook for checksum verification.
    pub fn corrupt(&mut self, id: PageId, offset: usize) -> Result<()> {
        let page = self
            .pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageNotFound(id.0))?;
        page.data[offset] ^= 0xff;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed_and_sized() {
        let p = Page::new();
        assert_eq!(p.raw().len(), PAGE_SIZE);
        assert!(p.payload().iter().all(|&b| b == 0));
        assert_eq!(p.payload().len(), PAYLOAD_SIZE);
    }

    #[test]
    fn seal_then_verify_roundtrip() {
        let mut p = Page::new();
        p.payload_mut()[0] = 42;
        p.seal();
        assert!(p.verify());
        p.payload_mut()[1] = 7; // mutate without resealing
        assert!(!p.verify());
    }

    #[test]
    fn lsn_roundtrip() {
        let mut p = Page::new();
        p.set_lsn(0xdead_beef_cafe);
        assert_eq!(p.lsn(), 0xdead_beef_cafe);
    }

    #[test]
    fn store_allocates_sequential_ids() {
        let mut s = PageStore::new();
        assert_eq!(s.allocate(), PageId(0));
        assert_eq!(s.allocate(), PageId(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn store_read_write_roundtrip() {
        let mut s = PageStore::new();
        let id = s.allocate();
        let mut p = s.read(id).unwrap();
        p.payload_mut()[..3].copy_from_slice(b"abc");
        s.write(id, p).unwrap();
        let back = s.read(id).unwrap();
        assert_eq!(&back.payload()[..3], b"abc");
    }

    #[test]
    fn read_missing_page_errors() {
        let s = PageStore::new();
        assert_eq!(s.read(PageId(3)), Err(StorageError::PageNotFound(3)));
    }

    #[test]
    fn corruption_is_detected_with_typed_checksums() {
        let mut s = PageStore::new();
        let id = s.allocate();
        let sealed = s.read(id).unwrap();
        let (expected, _) = sealed.checksums();
        s.corrupt(id, HEADER_SIZE + 10).unwrap();
        match s.read(id) {
            Err(StorageError::Corruption {
                page,
                expected: e,
                found,
            }) => {
                assert_eq!(page, 0);
                assert_eq!(e, expected, "stored checksum survives the flip");
                assert_ne!(found, e, "computed checksum differs");
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
    }

    #[test]
    fn bitflip_failpoint_corrupts_a_write() {
        let site = "page.write.bitflip";
        let mut s = PageStore::new();
        let id = s.allocate();
        bq_faults::configure(
            site,
            bq_faults::Policy::new(bq_faults::Action::Corrupt, bq_faults::Trigger::Nth(1))
                .caller_thread(),
        );
        let mut p = s.read(id).unwrap();
        p.payload_mut()[0] = 9;
        s.write(id, p).unwrap();
        bq_faults::off(site);
        assert!(
            matches!(s.read(id), Err(StorageError::Corruption { page: 0, .. })),
            "flipped bit must be caught by the checksum"
        );
    }

    #[test]
    fn fnv1a_known_values() {
        // The checksum is 32-bit FNV-1a over everything after its field.
        let mut p = Page::new();
        p.payload_mut()[0] = b'a';
        p.seal();
        assert_eq!(p.checksums().0, fnv1a32(&p.raw()[4..]));
        assert_ne!(p.checksums().0, fnv1a32(&Page::new().raw()[4..]));
    }

    #[test]
    fn io_counters_track_operations() {
        let mut s = PageStore::new();
        let id = s.allocate();
        let p = s.read(id).unwrap();
        s.write(id, p).unwrap();
        assert_eq!(s.read_count(), 1);
        assert_eq!(s.write_count(), 1);
    }
}

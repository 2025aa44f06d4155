//! Unordered heap files of variable-length records.
//!
//! A [`HeapFile`] owns a set of pages inside a [`PageStore`] and places each
//! record on the first page with room (a simple free-space strategy adequate
//! for the simulated workloads in this workspace). Records are addressed by
//! [`RecordId`] = (page, slot), which stays stable across deletions.

use crate::page::{PageId, PageStore};
use crate::slotted::{self, SlottedPage};
use crate::{Result, StorageError};

/// Stable address of a record inside a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// A heap file: an unordered bag of records spread over pages.
#[derive(Debug, Default)]
pub struct HeapFile {
    pages: Vec<PageId>,
    record_count: usize,
}

impl HeapFile {
    /// Create an empty heap file (no pages allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.record_count
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Number of pages owned by this file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Insert a record, allocating a new page if no existing page fits it.
    pub fn insert(&mut self, store: &mut PageStore, record: &[u8]) -> Result<RecordId> {
        // A record no page can hold is refused here, before a page is
        // allocated that would then belong to no file.
        let max = SlottedPage::max_record_size();
        if record.len() > max {
            let size = record.len();
            return Err(StorageError::RecordTooLarge { size, max });
        }
        // First-fit over existing pages.
        for &pid in &self.pages {
            let mut page = store.read(pid)?;
            let mut sp = SlottedPage::new(&mut page);
            if sp.fits(record.len()) {
                let slot = sp.insert(record)?;
                store.write(pid, page)?;
                self.record_count += 1;
                return Ok(RecordId { page: pid, slot });
            }
        }
        // No room anywhere: allocate.
        let pid = store.allocate();
        let mut page = store.read(pid)?;
        let slot = {
            let mut sp = SlottedPage::new(&mut page);
            sp.insert(record)?
        };
        store.write(pid, page)?;
        self.pages.push(pid);
        self.record_count += 1;
        Ok(RecordId { page: pid, slot })
    }

    /// Fetch a record by id.
    pub fn get(&self, store: &PageStore, rid: RecordId) -> Result<Option<Vec<u8>>> {
        if !self.pages.contains(&rid.page) {
            return Ok(None);
        }
        let page = store.read_ref(rid.page)?;
        Ok(slotted::record(page, rid.slot).map(<[u8]>::to_vec))
    }

    /// Delete a record. Returns true if a live record was removed.
    pub fn delete(&mut self, store: &mut PageStore, rid: RecordId) -> Result<bool> {
        if !self.pages.contains(&rid.page) {
            return Ok(false);
        }
        let mut page = store.read(rid.page)?;
        let deleted = {
            let mut sp = SlottedPage::new(&mut page);
            sp.delete(rid.slot)
        };
        if deleted {
            store.write(rid.page, page)?;
            self.record_count -= 1;
        }
        Ok(deleted)
    }

    /// Full scan: collect every `(RecordId, bytes)` pair in page order.
    pub fn scan(&self, store: &PageStore) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.record_count);
        self.for_each_record(store, |rid, rec| {
            out.push((rid, rec.to_vec()));
            Ok::<_, StorageError>(())
        })?;
        Ok(out)
    }

    /// Visit every record in page order, borrowed from its page where
    /// the store keeps it: each page is checksum-verified and nothing is
    /// copied. Stops at the first error, `f`'s or a page's.
    pub fn for_each_record<E: From<StorageError>>(
        &self,
        store: &PageStore,
        mut f: impl FnMut(RecordId, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        for &pid in &self.pages {
            for (slot, rec) in slotted::records(store.read_ref(pid)?) {
                f(RecordId { page: pid, slot }, rec)?;
            }
        }
        Ok(())
    }

    /// Compact every page, reclaiming space freed by deletions.
    pub fn vacuum(&mut self, store: &mut PageStore) -> Result<()> {
        for &pid in &self.pages {
            let mut page = store.read(pid)?;
            {
                let mut sp = SlottedPage::new(&mut page);
                sp.compact();
            }
            store.write(pid, page)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let rid = heap.insert(&mut store, b"record one").unwrap();
        assert_eq!(heap.get(&store, rid).unwrap(), Some(b"record one".to_vec()));
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn get_unknown_rid_is_none() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let rid = heap.insert(&mut store, b"x").unwrap();
        let bogus = RecordId {
            page: PageId(99),
            slot: 0,
        };
        assert_eq!(heap.get(&store, bogus).unwrap(), None);
        assert_eq!(
            heap.get(
                &store,
                RecordId {
                    page: rid.page,
                    slot: 42
                }
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn oversized_record_allocates_no_page() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let too_big = vec![0u8; SlottedPage::max_record_size() + 1];
        for _ in 0..2 {
            assert!(matches!(
                heap.insert(&mut store, &too_big),
                Err(StorageError::RecordTooLarge { .. })
            ));
            assert_eq!((store.len(), heap.page_count(), heap.len()), (0, 0, 0));
        }
        let fits = vec![0u8; SlottedPage::max_record_size()];
        heap.insert(&mut store, &fits).unwrap();
        assert_eq!((store.len(), heap.page_count()), (1, 1));
    }

    #[test]
    fn spills_to_multiple_pages() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let rec = vec![1u8; 1000];
        for _ in 0..20 {
            heap.insert(&mut store, &rec).unwrap();
        }
        assert!(heap.page_count() > 1, "1000B x20 cannot fit on one page");
        assert_eq!(heap.len(), 20);
        assert_eq!(heap.scan(&store).unwrap().len(), 20);
    }

    #[test]
    fn delete_then_scan_skips_record() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let a = heap.insert(&mut store, b"a").unwrap();
        let b = heap.insert(&mut store, b"b").unwrap();
        assert!(heap.delete(&mut store, a).unwrap());
        assert!(!heap.delete(&mut store, a).unwrap());
        let scan = heap.scan(&store).unwrap();
        assert_eq!(scan, vec![(b, b"b".to_vec())]);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn records_are_visited_in_place_from_verified_pages() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let rec = vec![3u8; 1000];
        let rids: Vec<RecordId> = (0..9)
            .map(|_| heap.insert(&mut store, &rec).unwrap())
            .collect();
        heap.delete(&mut store, rids[4]).unwrap();
        let mut seen = Vec::new();
        heap.for_each_record(&store, |rid, bytes| {
            assert_eq!(bytes, &rec[..]);
            seen.push(rid);
            Ok::<_, StorageError>(())
        })
        .unwrap();
        let live: Vec<RecordId> = heap
            .scan(&store)
            .unwrap()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert_eq!(seen, live);
        assert_eq!(seen.len(), 8);

        // A corrupt page stops the pass with a typed error.
        store.corrupt(rids[8].page, 0).unwrap();
        let err = heap.for_each_record(&store, |_, _| Ok::<_, StorageError>(()));
        assert!(
            matches!(err, Err(StorageError::Corruption { page, .. }) if page == rids[8].page.0),
            "{err:?}"
        );
    }

    #[test]
    fn vacuum_then_reuse_space() {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let big = vec![9u8; 1900];
        let a = heap.insert(&mut store, &big).unwrap();
        let _b = heap.insert(&mut store, &big).unwrap();
        assert_eq!(heap.page_count(), 1);
        // A third big record needs a second page.
        let _c = heap.insert(&mut store, &big).unwrap();
        assert_eq!(heap.page_count(), 2);
        // Delete + vacuum frees room on page 0; the next insert reuses it.
        heap.delete(&mut store, a).unwrap();
        heap.vacuum(&mut store).unwrap();
        let d = heap.insert(&mut store, &big).unwrap();
        assert_eq!(d.page, a.page, "first-fit should reuse vacuumed page");
        assert_eq!(heap.page_count(), 2);
    }

    #[test]
    fn empty_heap_behaves() {
        let store = PageStore::new();
        let heap = HeapFile::new();
        assert!(heap.is_empty());
        assert_eq!(heap.scan(&store).unwrap(), vec![]);
    }
}

//! Storage-substrate integration: heap + buffer pool + B+-tree working
//! together the way a mini storage engine would use them.

use big_queries::bq_storage::btree::BPlusTree;
use big_queries::bq_storage::buffer::BufferPool;
use big_queries::bq_storage::heap::HeapFile;
use big_queries::bq_storage::page::PageStore;

#[test]
fn heap_plus_btree_index_stay_consistent() {
    let mut store = PageStore::new();
    let mut heap = HeapFile::new();
    let mut index: BPlusTree<u64, big_queries::bq_storage::heap::RecordId> = BPlusTree::new(16);

    // Insert 500 keyed records; index maps key → record id.
    for key in 0..500u64 {
        let payload = format!("record-{key}").into_bytes();
        let rid = heap.insert(&mut store, &payload).unwrap();
        index.insert(key, rid).unwrap();
    }
    // Point lookups go through the index to the heap.
    for key in [0u64, 123, 499] {
        let rid = *index.get(&key).unwrap();
        let bytes = heap.get(&store, rid).unwrap().unwrap();
        assert_eq!(bytes, format!("record-{key}").into_bytes());
    }
    // Delete every third record via the index; both structures agree.
    for key in (0..500u64).step_by(3) {
        let rid = index.remove(&key).unwrap();
        assert!(heap.delete(&mut store, rid).unwrap());
    }
    assert_eq!(heap.len(), index.len());
    // Range scan of the survivors resolves correctly.
    for (key, rid) in index.range(&100, &110) {
        let bytes = heap.get(&store, rid).unwrap().unwrap();
        assert_eq!(bytes, format!("record-{key}").into_bytes());
    }
}

#[test]
fn buffer_pool_caches_heap_pages() {
    let mut store = PageStore::new();
    let mut heap = HeapFile::new();
    for i in 0..50 {
        heap.insert(&mut store, format!("row {i}").as_bytes())
            .unwrap();
    }
    let pool = BufferPool::new(8);
    // Simulate repeated page reads through the pool.
    let n_pages = store.len() as u32;
    for _ in 0..20 {
        for p in 0..n_pages {
            pool.pin(&mut store, big_queries::bq_storage::page::PageId(p))
                .unwrap();
            pool.unpin(big_queries::bq_storage::page::PageId(p), false)
                .unwrap();
        }
    }
    assert!(pool.stats().hit_rate() > 0.9, "working set fits the pool");
}

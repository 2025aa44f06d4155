//! Substrate microbenchmarks: B+-tree vs std BTreeMap, heap-file
//! insert/scan, buffer-pool hit behaviour, WAL append + recovery.

use bq_bench::bench;
use bq_storage::btree::BPlusTree;
use bq_storage::buffer::BufferPool;
use bq_storage::heap::HeapFile;
use bq_storage::page::{PageId, PageStore};
use bq_storage::wal::{LogRecord, Wal};
use std::collections::BTreeMap;

fn main() {
    println!("storage");

    for n in [1_000u64, 10_000] {
        bench(&format!("bplus_insert/{n}"), 10, || {
            let mut t = BPlusTree::new(32);
            for i in 0..n {
                t.upsert(i.wrapping_mul(2654435761) % n, i);
            }
            t.len()
        });
        bench(&format!("std_btreemap_insert/{n}"), 10, || {
            let mut t = BTreeMap::new();
            for i in 0..n {
                t.insert(i.wrapping_mul(2654435761) % n, i);
            }
            t.len()
        });
    }

    bench("heap_insert_scan_1000", 10, || {
        let mut store = PageStore::new();
        let mut heap = HeapFile::new();
        let rec = [7u8; 64];
        for _ in 0..1000 {
            heap.insert(&mut store, &rec).expect("insert");
        }
        heap.scan(&store).expect("scan").len()
    });

    {
        let mut store = PageStore::new();
        let ids: Vec<PageId> = (0..64).map(|_| store.allocate()).collect();
        bench("buffer_pool_hot_loop", 10, || {
            let pool = BufferPool::new(16);
            for _ in 0..10 {
                for &id in &ids {
                    pool.pin(&mut store, id).expect("pin");
                    pool.unpin(id, false).expect("unpin");
                }
            }
            pool.stats().hit_rate()
        });
    }

    bench("wal_append_recover_1000", 10, || {
        let mut store = PageStore::new();
        let pid = store.allocate();
        let mut wal = Wal::new();
        for t in 0..1000u64 {
            wal.append(&LogRecord::Begin(t)).expect("append");
            wal.append(&LogRecord::Update {
                txn: t,
                page: pid,
                offset: (t % 100) as u32,
                before: vec![0],
                after: vec![(t % 256) as u8],
            })
            .expect("append");
            if t % 2 == 0 {
                wal.append(&LogRecord::Commit(t)).expect("append");
            }
        }
        wal.recover(&mut store).expect("recover").redone
    });

    // Facade point lookups: index vs scan.
    {
        use bq_core::Db;
        use bq_relational::{Type, Value};
        let build = |with_index: bool| {
            let mut db = Db::new();
            db.create_table("emp", &[("id", Type::Int), ("dept", Type::Str)])
                .expect("create");
            for i in 0..2000i64 {
                db.insert(
                    "emp",
                    vec![Value::Int(i), Value::str(format!("d{}", i % 50))],
                )
                .expect("insert");
            }
            if with_index {
                db.create_index("emp", "id").expect("index");
            }
            db
        };
        let indexed = build(true);
        let plain = build(false);
        bench("core_lookup_indexed", 10, || {
            indexed
                .lookup("emp", "id", &Value::Int(1234))
                .expect("lookup")
        });
        bench("core_lookup_scan", 10, || {
            plain
                .lookup("emp", "id", &Value::Int(1234))
                .expect("lookup")
        });
    }
}

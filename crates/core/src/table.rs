//! The table store: all per-table state, and the one seam through which
//! a row enters or leaves a table.
//!
//! A table is kept three ways, each for a different reader: the
//! **relation** (a `BTreeSet<Tuple>` inside the [`Database`] the executor
//! borrows) is what queries read; the **heap pages** are what crash
//! recovery and scrub read; each **index** maps a column value to the
//! [`RecordId`]s of the heap records carrying it and holds no tuples of
//! its own. They cannot disagree because only [`Tables::put`] adds a row
//! and only [`Tables::take`] removes one, and each touches all three.
//!
//! A table is a *set*: `put` of a tuple the relation already holds
//! writes nothing, so every row has exactly one `RecordId`.

use crate::codec;
use crate::error::CoreError;
use crate::Result;
use bq_relational::{Database, Relation, Schema, Tuple, Value};
use bq_storage::btree::{BPlusTree, DEFAULT_ORDER};
use bq_storage::heap::{HeapFile, RecordId};
use bq_storage::page::{PageId, PageStore};
use bq_storage::StorageError;
use std::collections::BTreeMap;

/// Receipt of one [`Tables::put`]: which row went where. It is the undo
/// entry of the transaction that wrote the row.
#[derive(Debug)]
pub(crate) struct Placed {
    pub(crate) table: String,
    pub(crate) rid: RecordId,
    pub(crate) tuple: Tuple,
}

/// A secondary index on one column.
#[derive(Debug)]
struct Index {
    /// Position of the indexed column in the table's schema.
    col: usize,
    tree: BPlusTree<Value, Vec<RecordId>>,
}

impl Index {
    /// Build the index on column `col` from the rows of one heap pass.
    /// The rows are sorted by key and the tree is laid out bottom-up; the
    /// sort is stable, so a key's record ids keep the order of the pass,
    /// as adding them one by one would leave them.
    fn build(col: usize, rows: &[(RecordId, Tuple)]) -> Index {
        let mut entries: Vec<(&Value, RecordId)> =
            rows.iter().map(|(rid, t)| (t.get(col), *rid)).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut grouped: Vec<(Value, Vec<RecordId>)> = Vec::new();
        for (key, rid) in entries {
            match grouped.last_mut() {
                Some((last, rids)) if last == key => rids.push(rid),
                _ => grouped.push((key.clone(), vec![rid])),
            }
        }
        let tree = BPlusTree::from_sorted(DEFAULT_ORDER, grouped);
        Index { col, tree }
    }

    fn add(&mut self, tuple: &Tuple, rid: RecordId) {
        let key = tuple.get(self.col);
        match self.tree.get_mut(key) {
            Some(bucket) => bucket.push(rid),
            None => {
                self.tree.upsert(key.clone(), vec![rid]);
            }
        }
    }

    fn remove(&mut self, tuple: &Tuple, rid: RecordId) {
        let key = tuple.get(self.col);
        if let Some(bucket) = self.tree.get_mut(key) {
            bucket.retain(|r| *r != rid);
            if bucket.is_empty() {
                self.tree.remove(key);
            }
        }
    }
}

/// What a table has besides its relation.
#[derive(Debug)]
struct Physical {
    heap: HeapFile,
    /// The table's item in the lock table: its position in creation order.
    lock_id: usize,
    /// Indexes by column name.
    indexes: BTreeMap<String, Index>,
}

/// Every table of one engine.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    relations: Database,
    store: PageStore,
    physical: BTreeMap<String, Physical>,
}

fn no_such_table(name: &str) -> CoreError {
    CoreError::NoSuchTable(name.to_string())
}

impl Tables {
    /// Add an empty table.
    pub(crate) fn create(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.contains(name) {
            return Err(CoreError::TableExists(name.to_string()));
        }
        self.relations.add(name, Relation::new(schema));
        let table = Physical {
            heap: HeapFile::new(),
            lock_id: self.physical.len(),
            indexes: BTreeMap::new(),
        };
        self.physical.insert(name.to_string(), table);
        Ok(())
    }

    /// Add a row, given both as a tuple and as its [`codec`] bytes (every
    /// caller holds one and derives the other). `None` when the table
    /// already holds the tuple: nothing was written.
    ///
    /// The tuple is claimed in the relation first (which checks it
    /// against the schema); the heap write is the only step that can
    /// fail after that, and withdraws the claim when it does. A caller
    /// whose WAL append then fails hands the receipt to [`Tables::take`].
    pub(crate) fn put(
        &mut self,
        table: &str,
        tuple: Tuple,
        bytes: &[u8],
    ) -> Result<Option<Placed>> {
        let physical = self
            .physical
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        let relation = self.relations.get_mut(table)?;
        if !relation.insert(tuple.clone())? {
            return Ok(None);
        }
        let rid = match physical.heap.insert(&mut self.store, bytes) {
            Ok(rid) => rid,
            Err(e) => {
                relation.remove(&tuple);
                return Err(e.into());
            }
        };
        for index in physical.indexes.values_mut() {
            index.add(&tuple, rid);
        }
        let table = table.to_string();
        Ok(Some(Placed { table, rid, tuple }))
    }

    /// Undo the [`Tables::put`] that issued `placed`. The heap delete
    /// comes first and is the only step that can fail, so an error
    /// leaves the row wholly present.
    pub(crate) fn take(&mut self, placed: &Placed) -> Result<()> {
        let Placed { table, rid, tuple } = placed;
        let physical = self
            .physical
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        physical.heap.delete(&mut self.store, *rid)?;
        self.relations.get_mut(table)?.remove(tuple);
        for index in physical.indexes.values_mut() {
            index.remove(tuple, *rid);
        }
        Ok(())
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.physical.contains_key(name)
    }

    /// The relations, as the executor reads them.
    pub(crate) fn relations(&self) -> &Database {
        &self.relations
    }

    pub(crate) fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations.get(name).map_err(|_| no_such_table(name))
    }

    pub(crate) fn lock_id(&self, name: &str) -> Option<usize> {
        self.physical.get(name).map(|t| t.lock_id)
    }

    /// Lock-table item → table name.
    pub(crate) fn lock_names(&self) -> BTreeMap<usize, &str> {
        let named = self.physical.iter();
        named.map(|(name, t)| (t.lock_id, name.as_str())).collect()
    }

    pub(crate) fn page_count(&self) -> usize {
        self.store.len()
    }

    /// Create an index on `table.column` and build it from the heap.
    pub(crate) fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let col = self.relation(table)?.schema().require(column)?;
        let physical = self
            .physical
            .get_mut(table)
            .ok_or_else(|| no_such_table(table))?;
        let mut rows = Vec::with_capacity(physical.heap.len());
        physical.heap.for_each_record(&self.store, |rid, bytes| {
            rows.push((rid, codec::decode(bytes)?));
            Ok::<_, CoreError>(())
        })?;
        let index = Index::build(col, &rows);
        physical.indexes.insert(column.to_string(), index);
        Ok(())
    }

    pub(crate) fn has_index(&self, table: &str, column: &str) -> bool {
        let table = self.physical.get(table);
        table.is_some_and(|t| t.indexes.contains_key(column))
    }

    /// Every `(table, column)` that carries an index, sorted.
    pub(crate) fn index_defs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.physical.iter().flat_map(|(table, t)| {
            let columns = t.indexes.keys();
            columns.map(move |column| (table.as_str(), column.as_str()))
        })
    }

    /// Rows with `lo <= table.column <= hi`: through the index when there
    /// is one (the heap pages serve the rows), else by scanning the
    /// relation.
    pub(crate) fn lookup_range(
        &self,
        table: &str,
        column: &str,
        lo: &Value,
        hi: &Value,
    ) -> Result<Vec<Tuple>> {
        let relation = self.relation(table)?;
        let physical = self
            .physical
            .get(table)
            .ok_or_else(|| no_such_table(table))?;
        let Some(index) = physical.indexes.get(column) else {
            let col = relation.schema().require(column)?;
            let hits = relation.iter().filter(|t| (lo..=hi).contains(&t.get(col)));
            return Ok(hits.cloned().collect());
        };
        let hits = index.tree.range(lo, hi).into_iter();
        hits.flat_map(|(_, rids)| rids)
            .map(|rid| {
                let (page, slot) = (rid.page.0, rid.slot);
                let record = physical.heap.get(&self.store, rid)?;
                codec::decode(&record.ok_or(StorageError::RecordNotFound { page, slot })?)
            })
            .collect()
    }

    /// Heap records across every table.
    pub(crate) fn record_count(&self) -> usize {
        self.physical.values().map(|t| t.heap.len()).sum()
    }

    /// Crash recovery: forget every relation and index, then rebuild both
    /// from one pass over the heaps, deleting the records `live` refuses
    /// (it is given the table and the record's bytes). Each relation and
    /// each index is built in one piece from the surviving rows.
    pub(crate) fn recover(&mut self, live: impl Fn(&str, &[u8]) -> bool) -> Result<()> {
        for (name, physical) in &mut self.physical {
            let mut rows = Vec::with_capacity(physical.heap.len());
            let mut dead = Vec::new();
            // Records are decoded where their pages lie; the dead ones are
            // deleted after the pass.
            physical.heap.for_each_record(&self.store, |rid, bytes| {
                if live(name, bytes) {
                    rows.push((rid, codec::decode(bytes)?));
                } else {
                    dead.push(rid);
                }
                Ok::<_, CoreError>(())
            })?;
            for rid in dead {
                physical.heap.delete(&mut self.store, rid)?;
            }
            for index in physical.indexes.values_mut() {
                *index = Index::build(index.col, &rows);
            }
            let relation = self.relations.get_mut(name)?;
            let tuples = rows.into_iter().map(|(_, tuple)| tuple);
            *relation = Relation::from_tuples(relation.schema().clone(), tuples)?;
        }
        Ok(())
    }

    /// Checksum-verify every page: `(pages checked, pages corrupt)`.
    pub(crate) fn verify_pages(&self) -> Result<(usize, usize)> {
        let n = self.store.len();
        let mut corrupt = 0;
        for i in 0..n {
            match self.store.read(PageId(i as u32)) {
                Ok(_) => {}
                Err(StorageError::Corruption { .. }) => corrupt += 1,
                Err(e) => return Err(e.into()),
            }
        }
        Ok((n, corrupt))
    }

    /// Scrub repair: write every row into fresh pages, reading only the
    /// relations, and re-point `pending` — the receipts open transactions
    /// hold — at the new locations. Record ids change (as they differ on
    /// a replica), so the indexes are rebuilt too. Nothing is replaced
    /// unless the whole rebuild succeeds.
    pub(crate) fn rebuild_pages<'a>(
        &mut self,
        pending: impl IntoIterator<Item = &'a mut Placed>,
    ) -> Result<()> {
        let mut fresh = Tables::default();
        // Lock ids are positions in creation order; transactions hold
        // locks by id across the rebuild.
        for name in self.lock_names().into_values() {
            fresh.create(name, self.relation(name)?.schema().clone())?;
        }
        for (table, column) in self.index_defs() {
            fresh.create_index(table, column)?;
        }
        let mut pending: BTreeMap<(&str, &Tuple), &mut RecordId> = pending
            .into_iter()
            .map(|Placed { table, rid, tuple }| ((table.as_str(), &*tuple), rid))
            .collect();
        let mut moved = Vec::with_capacity(pending.len());
        for name in self.relations.names() {
            for tuple in self.relation(name)?.iter() {
                let placed = fresh.put(name, tuple.clone(), &codec::encode(tuple))?;
                let placed = placed.expect("a relation holds a tuple once");
                if let Some(rid) = pending.remove(&(name, tuple)) {
                    moved.push((rid, placed.rid));
                }
            }
        }
        for (rid, to) in moved {
            *rid = to;
        }
        *self = fresh;
        Ok(())
    }

    /// Chaos hook: flip a byte of a stored page so its checksum fails.
    pub(crate) fn corrupt_page(&mut self, page: u32) -> Result<()> {
        Ok(self.store.corrupt(PageId(page), 0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bq_relational::Type;

    fn tables() -> Tables {
        let mut tables = Tables::default();
        // Created out of name order: lock ids follow creation.
        for name in ["zed", "abe"] {
            let schema = Schema::new(&[("k", Type::Int), ("v", Type::Str)]).unwrap();
            tables.create(name, schema).unwrap();
            tables.create_index(name, "v").unwrap();
        }
        tables
    }

    fn lookup(tables: &Tables, table: &str, v: &str) -> Vec<Tuple> {
        let v = Value::str(v);
        tables.lookup_range(table, "v", &v, &v).unwrap()
    }

    fn put(tables: &mut Tables, table: &str, k: i64, v: &str) -> Option<Placed> {
        let tuple = Tuple::new(vec![Value::Int(k), Value::str(v)]);
        let bytes = codec::encode(&tuple);
        tables.put(table, tuple, &bytes).unwrap()
    }

    #[test]
    fn a_refused_put_leaves_nothing_behind() {
        let mut tables = tables();
        put(&mut tables, "zed", 0, "fits");
        let pages = tables.page_count();
        let big = "x".repeat(5000);
        let huge = Tuple::new(vec![Value::Int(1), Value::str(&big)]);
        let err = tables.put("zed", huge.clone(), &codec::encode(&huge));
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::RecordTooLarge { .. }))
        ));
        assert_eq!(tables.page_count(), pages, "no page allocated and leaked");
        assert_eq!(tables.relation("zed").unwrap().len(), 1);
        assert!(lookup(&tables, "zed", &big).is_empty());
        // Schema violations stop before the heap too.
        let short = Tuple::new(vec![Value::Int(1)]);
        let bytes = codec::encode(&short);
        assert!(tables.put("zed", short.clone(), &bytes).is_err());
        assert!(matches!(
            tables.put("nope", short, &bytes),
            Err(CoreError::NoSuchTable(_))
        ));
    }

    #[test]
    fn put_is_idempotent_and_take_undoes_exactly_one_put() {
        let mut tables = tables();
        let first = put(&mut tables, "zed", 1, "a").expect("new row");
        let again = put(&mut tables, "zed", 1, "a");
        assert!(again.is_none(), "a table is a set");
        let other = put(&mut tables, "zed", 2, "a").expect("same key, other row");
        assert_eq!(lookup(&tables, "zed", "a").len(), 2);
        tables.take(&other).unwrap();
        assert_eq!(lookup(&tables, "zed", "a"), vec![first.tuple.clone()]);
        tables.take(&first).unwrap();
        assert!(tables.relation("zed").unwrap().is_empty());
        assert!(lookup(&tables, "zed", "a").is_empty());
        assert_eq!(tables.record_count(), 0, "the heap is empty again");
    }

    #[test]
    fn rebuilt_pages_keep_lock_ids_and_repoint_receipts() {
        let mut tables = tables();
        put(&mut tables, "abe", 1, "committed");
        let mut pending = put(&mut tables, "zed", 2, "pending").unwrap();
        let ids = (tables.lock_id("zed"), tables.lock_id("abe"));
        assert_eq!(ids, (Some(0), Some(1)));

        tables.corrupt_page(0).unwrap();
        assert_eq!(tables.verify_pages().unwrap(), (2, 1));
        tables.rebuild_pages([&mut pending]).unwrap();

        assert_eq!(tables.verify_pages().unwrap(), (2, 0));
        assert_eq!((tables.lock_id("zed"), tables.lock_id("abe")), ids);
        let hit = lookup(&tables, "abe", "committed");
        assert_eq!(hit.len(), 1, "indexes follow the rows to their new pages");
        tables.take(&pending).unwrap();
        assert!(tables.relation("zed").unwrap().is_empty());
        assert!(lookup(&tables, "zed", "pending").is_empty());
    }
}

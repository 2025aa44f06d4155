//! An order-configurable B+-tree with linked leaves.
//!
//! All data lives in the leaves; internal nodes hold only separators. Leaves
//! are chained left-to-right so range scans walk siblings without
//! re-descending. Nodes are stored in an arena (`Vec<Node>`) and referenced
//! by index, which keeps the implementation safe-Rust and makes splits cheap.
//!
//! Deletion removes the key from its leaf without rebalancing (the common
//! "lazy delete" simplification used by several production engines); the
//! tree never returns deleted keys and subsequent inserts reuse leaf space.

use crate::error::StorageError;
use crate::Result;
use std::fmt::Debug;

/// Default maximum number of keys per node.
pub const DEFAULT_ORDER: usize = 32;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        keys: Vec<K>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        next: Option<usize>,
    },
}

/// A B+-tree mapping ordered keys to values.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: usize,
    order: usize,
    len: usize,
    height: usize,
}

impl<K: Ord + Clone + Debug, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new(DEFAULT_ORDER)
    }
}

impl<K: Ord + Clone + Debug, V: Clone> BPlusTree<K, V> {
    /// Create an empty tree whose nodes hold at most `order` keys.
    pub fn new(order: usize) -> Self {
        assert!(order >= 3, "order must be at least 3");
        BPlusTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            len: 0,
            height: 1,
        }
    }

    /// Build a tree over `entries`, which must arrive in strictly
    /// ascending key order, bottom-up: the leaves are filled left to
    /// right and each level of separators is laid over the one below, so
    /// loading costs one pass and no descents or splits. Nodes of a level
    /// are filled evenly, none beyond `order` keys.
    ///
    /// # Panics
    /// When a key is not greater than the one before it.
    pub fn from_sorted(order: usize, entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let (keys, vals): (Vec<K>, Vec<V>) = entries.into_iter().unzip();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "from_sorted needs strictly ascending keys"
        );
        let mut tree = BPlusTree::new(order);
        if keys.is_empty() {
            return tree;
        }
        tree.len = keys.len();
        tree.nodes.clear();
        // `(smallest key below, node)` for every node of the level just
        // built, left to right.
        let mut level: Vec<(K, usize)> = Vec::new();
        let (mut keys, mut vals) = (keys.into_iter(), vals.into_iter());
        for size in even_chunks(tree.len, order) {
            let keys: Vec<K> = keys.by_ref().take(size).collect();
            level.push((keys[0].clone(), tree.nodes.len()));
            tree.nodes.push(Node::Leaf {
                keys,
                vals: vals.by_ref().take(size).collect(),
                next: Some(tree.nodes.len() + 1),
            });
        }
        if let Some(Node::Leaf { next, .. }) = tree.nodes.last_mut() {
            *next = None;
        }
        while level.len() > 1 {
            let mut below = level.into_iter();
            level = Vec::new();
            // An internal node with `order` keys has `order + 1` children.
            for size in even_chunks(below.len(), order + 1) {
                let (mut keys, children): (Vec<K>, Vec<usize>) = below.by_ref().take(size).unzip();
                // The first child needs no separator; its smallest key is
                // this node's, for the level above.
                let smallest = keys.remove(0);
                level.push((smallest, tree.nodes.len()));
                tree.nodes.push(Node::Internal { keys, children });
            }
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert a key/value pair, erroring on duplicates.
    pub fn insert(&mut self, key: K, value: V) -> Result<()> {
        if self.contains(&key) {
            return Err(StorageError::DuplicateKey);
        }
        self.upsert(key, value);
        Ok(())
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn upsert(&mut self, key: K, value: V) -> Option<V> {
        let (old, split) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
            self.height += 1;
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(&mut self, idx: usize, key: K, value: V) -> (Option<V>, Option<(K, usize)>) {
        match &mut self.nodes[idx] {
            Node::Leaf { keys, vals, .. } => match keys.binary_search(&key) {
                Ok(pos) => {
                    let old = std::mem::replace(&mut vals[pos], value);
                    (Some(old), None)
                }
                Err(pos) => {
                    keys.insert(pos, key);
                    vals.insert(pos, value);
                    let overflow = keys.len() > self.order;
                    let split = if overflow { self.split_leaf(idx) } else { None };
                    (None, split)
                }
            },
            Node::Internal { keys, children } => {
                let child_pos = keys.partition_point(|k| *k <= key);
                let child = children[child_pos];
                let (old, split) = self.insert_rec(child, key, value);
                let mut my_split = None;
                if let Some((sep, right)) = split {
                    if let Node::Internal { keys, children } = &mut self.nodes[idx] {
                        keys.insert(child_pos, sep);
                        children.insert(child_pos + 1, right);
                        if keys.len() > self.order {
                            my_split = self.split_internal(idx);
                        }
                    }
                }
                (old, my_split)
            }
        }
    }

    fn split_leaf(&mut self, idx: usize) -> Option<(K, usize)> {
        bq_obs::counter!("bq_storage_btree_splits_total", "B+-tree node splits").inc();
        let new_idx = self.nodes.len();
        if let Node::Leaf { keys, vals, next } = &mut self.nodes[idx] {
            let mid = keys.len() / 2;
            let right_keys: Vec<K> = keys.split_off(mid);
            let right_vals: Vec<V> = vals.split_off(mid);
            let sep = right_keys[0].clone();
            let right = Node::Leaf {
                keys: right_keys,
                vals: right_vals,
                next: *next,
            };
            *next = Some(new_idx);
            self.nodes.push(right);
            Some((sep, new_idx))
        } else {
            // lint: allow(panic) callers split the node kind they just matched
            unreachable!("split_leaf called on internal node")
        }
    }

    fn split_internal(&mut self, idx: usize) -> Option<(K, usize)> {
        bq_obs::counter!("bq_storage_btree_splits_total", "B+-tree node splits").inc();
        let new_idx = self.nodes.len();
        if let Node::Internal { keys, children } = &mut self.nodes[idx] {
            let mid = keys.len() / 2;
            let sep = keys[mid].clone();
            let right_keys: Vec<K> = keys.split_off(mid + 1);
            keys.pop(); // drop the separator from the left node
            let right_children: Vec<usize> = children.split_off(mid + 1);
            let right = Node::Internal {
                keys: right_keys,
                children: right_children,
            };
            self.nodes.push(right);
            Some((sep, new_idx))
        } else {
            // lint: allow(panic) callers split the node kind they just matched
            unreachable!("split_internal called on leaf")
        }
    }

    fn find_leaf(&self, key: &K) -> usize {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Internal { keys, children } => {
                    let pos = keys.partition_point(|k| k <= key);
                    idx = children[pos];
                }
            }
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.find_leaf(key);
        if let Node::Leaf { keys, vals, .. } = &self.nodes[leaf] {
            keys.binary_search(key).ok().map(|pos| &vals[pos])
        } else {
            // lint: allow(panic) find_leaf returns a leaf index by construction
            unreachable!()
        }
    }

    /// Look up a key for in-place update of its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let leaf = self.find_leaf(key);
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, vals, .. } => keys.binary_search(key).ok().map(|pos| &mut vals[pos]),
            Node::Internal { .. } => None,
        }
    }

    /// Does the tree contain `key`?
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Remove a key, returning its value. No rebalancing (lazy delete).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let leaf = self.find_leaf(key);
        if let Node::Leaf { keys, vals, .. } = &mut self.nodes[leaf] {
            if let Ok(pos) = keys.binary_search(key) {
                keys.remove(pos);
                let v = vals.remove(pos);
                self.len -= 1;
                return Some(v);
            }
        }
        None
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut leaf = Some(self.find_leaf(lo));
        while let Some(idx) = leaf {
            if let Node::Leaf { keys, vals, next } = &self.nodes[idx] {
                for (k, v) in keys.iter().zip(vals.iter()) {
                    if k > hi {
                        return out;
                    }
                    if k >= lo {
                        out.push((k.clone(), v.clone()));
                    }
                }
                leaf = *next;
            } else {
                // lint: allow(panic) leaf chain (`next`) links only leaves
                unreachable!()
            }
        }
        out
    }

    /// Every `(key, value)` pair in key order (full leaf walk).
    pub fn iter_all(&self) -> Vec<(K, V)> {
        // Walk down the leftmost spine, then follow leaf links.
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => break,
                Node::Internal { children, .. } => idx = children[0],
            }
        }
        let mut out = Vec::with_capacity(self.len);
        let mut leaf = Some(idx);
        while let Some(i) = leaf {
            if let Node::Leaf { keys, vals, next } = &self.nodes[i] {
                out.extend(keys.iter().cloned().zip(vals.iter().cloned()));
                leaf = *next;
            }
        }
        out
    }

    /// Verify structural invariants (key ordering within and across nodes,
    /// separator correctness). Used by property tests; O(n).
    pub fn check_invariants(&self) -> bool {
        let all = self.iter_all();
        all.windows(2).all(|w| w[0].0 < w[1].0) && all.len() == self.len
    }
}

/// Sizes of the fewest chunks of at most `max` that `n` items fill, as
/// even as possible (they differ by at most one).
fn even_chunks(n: usize, max: usize) -> impl Iterator<Item = usize> {
    let chunks = n.div_ceil(max);
    (0..chunks).map(move |i| n / chunks + usize::from(i < n % chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_tree_basics() {
        let t: BPlusTree<i64, String> = BPlusTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new(4);
        for i in [5, 1, 9, 3, 7] {
            t.insert(i, i * 10).unwrap();
        }
        for i in [5, 1, 9, 3, 7] {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&2), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn duplicate_insert_errors_but_upsert_replaces() {
        let mut t = BPlusTree::new(4);
        t.insert(1, "a").unwrap();
        assert_eq!(t.insert(1, "b"), Err(StorageError::DuplicateKey));
        assert_eq!(t.upsert(1, "c"), Some("a"));
        assert_eq!(t.get(&1), Some(&"c"));
        *t.get_mut(&1).unwrap() = "d";
        assert_eq!(t.get(&1), Some(&"d"));
        assert_eq!(t.get_mut(&2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn splits_grow_height() {
        let mut t = BPlusTree::new(4);
        for i in 0..100 {
            t.insert(i, i).unwrap();
        }
        assert!(t.height() >= 3, "100 keys at order 4 needs height >= 3");
        assert!(t.check_invariants());
        for i in 0..100 {
            assert_eq!(t.get(&i), Some(&i));
        }
    }

    #[test]
    fn descending_and_random_insert_orders() {
        for order in [3, 4, 8, 32] {
            let mut t = BPlusTree::new(order);
            let keys: Vec<i64> = (0..500).rev().collect();
            for &k in &keys {
                t.insert(k, k).unwrap();
            }
            assert!(t.check_invariants());
            assert_eq!(t.iter_all().len(), 500);
        }
    }

    #[test]
    fn range_scan_matches_btreemap() {
        let mut t = BPlusTree::new(5);
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random key sequence.
        let mut x: u64 = 12345;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x % 1000) as i64;
            t.upsert(k, k * 2);
            model.insert(k, k * 2);
        }
        let got = t.range(&100, &300);
        let want: Vec<(i64, i64)> = model.range(100..=300).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        // Degenerate ranges.
        assert_eq!(t.range(&300, &100), vec![]);
    }

    #[test]
    fn remove_then_get_none() {
        let mut t = BPlusTree::new(4);
        for i in 0..50 {
            t.insert(i, i).unwrap();
        }
        assert_eq!(t.remove(&25), Some(25));
        assert_eq!(t.remove(&25), None);
        assert_eq!(t.get(&25), None);
        assert_eq!(t.len(), 49);
        assert!(t.check_invariants());
    }

    #[test]
    fn iter_all_is_sorted_and_complete() {
        let mut t = BPlusTree::new(3);
        let keys = [42, 17, 99, 3, 58, 71, 23, 8];
        for &k in &keys {
            t.insert(k, ()).unwrap();
        }
        let got: Vec<i32> = t.iter_all().into_iter().map(|(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn byte_keys_work() {
        let mut t: BPlusTree<Vec<u8>, u64> = BPlusTree::new(8);
        t.insert(b"banana".to_vec(), 2).unwrap();
        t.insert(b"apple".to_vec(), 1).unwrap();
        t.insert(b"cherry".to_vec(), 3).unwrap();
        let all: Vec<u64> = t.iter_all().into_iter().map(|(_, v)| v).collect();
        assert_eq!(all, vec![1, 2, 3]);
    }

    mod properties {
        use super::*;
        use bq_util::{Rng, SplitMix64};

        /// The B+-tree behaves exactly like `BTreeMap` under random
        /// command sequences, at several node orders. Replaces the old
        /// proptest strategy with a seeded SplitMix64 sweep so the suite
        /// builds with no external dependencies.
        #[test]
        fn behaves_like_btreemap() {
            let mut rng = SplitMix64::seed_from_u64(0xb7ee);
            for case in 0..64 {
                let order = 3 + (case % 9);
                let n_cmds = rng.gen_index(120);
                let mut tree = BPlusTree::new(order);
                let mut model = BTreeMap::new();
                for _ in 0..n_cmds {
                    let k = rng.gen_range(200) as u16;
                    if rng.gen_index(4) < 3 {
                        let v = rng.gen_range(1000) as u16;
                        assert_eq!(tree.upsert(k, v), model.insert(k, v));
                    } else {
                        assert_eq!(tree.remove(&k), model.remove(&k));
                    }
                }
                assert_eq!(tree.len(), model.len());
                assert!(tree.check_invariants(), "invariants at order {order}");
                let got = tree.iter_all();
                let want: Vec<(u16, u16)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want);
                // Range queries agree too.
                let r = tree.range(&50, &150);
                let wr: Vec<(u16, u16)> = model.range(50..=150).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(r, wr);
            }
        }
    }

    /// Bulk loading gives the tree that inserting one key at a time gives
    /// — same entries, every key found through the separators — and the
    /// result keeps working as a tree: later upserts split its full
    /// nodes, removes empty them.
    #[test]
    fn from_sorted_equals_an_incrementally_built_tree() {
        use bq_util::{Rng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x50_47ed);
        for order in [3usize, 4, 5, 32] {
            let sizes = [0, 1, order, order + 1, order * (order + 1), 1000];
            for n in sizes.into_iter().chain([rng.gen_index(3000)]) {
                // Random keys with gaps; each carries a bucket of values,
                // as an index key carries the record ids of its rows.
                let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
                while model.len() < n {
                    let bucket = (0..1 + rng.gen_index(3)).map(|i| i as u32).collect();
                    model.insert(rng.gen_range(1 << 20) as u32, bucket);
                }
                let mut tree = BPlusTree::from_sorted(order, model.clone());
                let mut grown = BPlusTree::new(order);
                for (k, v) in &model {
                    grown.insert(*k, v.clone()).unwrap();
                }
                let at = format!("order {order}, {n} keys");
                assert!(tree.check_invariants(), "{at}");
                assert_eq!(tree.len(), n, "{at}");
                assert_eq!(tree.iter_all(), grown.iter_all(), "{at}");
                assert!(tree.height() <= grown.height(), "{at}");
                for (k, v) in &model {
                    assert_eq!(tree.get(k), Some(v), "{at}: key {k}");
                    assert_eq!(tree.get(&(k + 1)), model.get(&(k + 1)), "{at}");
                }
                let (lo, hi) = (1 << 18, 1 << 19);
                let want: Vec<(u32, Vec<u32>)> =
                    model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                assert_eq!(tree.range(&lo, &hi), want, "{at}");

                for _ in 0..200 {
                    let k = rng.gen_range(1 << 20) as u32;
                    if rng.gen_bool() {
                        assert_eq!(tree.upsert(k, vec![k]), model.insert(k, vec![k]), "{at}");
                    } else {
                        assert_eq!(tree.remove(&k), model.remove(&k), "{at}");
                    }
                }
                if let Some(k) = model.keys().next().copied() {
                    assert_eq!(tree.remove(&k), model.remove(&k), "{at}: smallest key");
                    assert!(tree.get_mut(&k).is_none(), "{at}");
                }
                assert!(tree.check_invariants(), "{at}");
                let want: Vec<(u32, Vec<u32>)> = model.into_iter().collect();
                assert_eq!(tree.iter_all(), want, "{at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_refuses_unsorted_keys() {
        BPlusTree::from_sorted(4, [(2, ()), (1, ())]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_refuses_repeated_keys() {
        BPlusTree::from_sorted(4, [(1, ()), (1, ())]);
    }

    #[test]
    fn large_tree_model_check() {
        let mut t = BPlusTree::new(16);
        let mut model = BTreeMap::new();
        let mut x: u64 = 7;
        for i in 0..5000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let k = x % 10_000;
            if i % 7 == 0 {
                t.remove(&k);
                model.remove(&k);
            } else {
                t.upsert(k, i);
                model.insert(k, i);
            }
        }
        assert_eq!(t.len(), model.len());
        let got = t.iter_all();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}

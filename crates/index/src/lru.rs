//! A fixed-capacity LRU map: the RAM cache of an index partition.
//!
//! Monolithic chunk indexes outgrow RAM; each lookup of a *random*
//! fingerprint then costs a disk seek — the bottleneck documented by DDFS
//! and Sparse Indexing and cited by the paper as the motivation for its
//! application-aware partitioning. An [`IndexPartition`](crate::IndexPartition)
//! keeps its most-recently-used slots in this map; whatever the map evicts
//! goes to the partition's tier, RAM or disk, and a lookup the cache cannot
//! answer is the tier's to answer and to charge.
//!
//! Implementation: one `HashMap` from each key to its node in a
//! slab-allocated doubly-linked list, and the node owns the key's value —
//! one map operation per get, O(1) touch/insert/evict, no unsafe code. An
//! evicted node is reused in place, so the slab never outgrows the
//! capacity. Every slab access is a checked `get`: `NIL`, the "no
//! neighbour" link, is `usize::MAX`, which no slab reaches, so the
//! end-of-list test and the bounds check are one branch.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map from `K` to `V`.
pub(crate) struct LruMap<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Copy> LruMap<K, V> {
    /// Creates a map that holds at most `capacity` entries (capacity 0 is
    /// allowed and means "nothing is ever resident").
    pub(crate) fn new(capacity: usize) -> Self {
        LruMap { map: HashMap::new(), slab: Vec::new(), head: NIL, tail: NIL, capacity }
    }

    /// Maximum number of resident entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// True if `key` is resident (without touching recency).
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// The value of a resident `key`, which becomes most-recently-used.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab.get(idx).map(|node| node.value)
    }

    /// Inserts `key` as most-recently-used and returns the entry this
    /// evicts: the least-recently-used one when the map is full, or the
    /// given entry itself at capacity 0. A resident key takes the new
    /// value, becomes most-recently-used and evicts nothing.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            if let Some(node) = self.slab.get_mut(idx) {
                node.value = value;
            }
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        if self.capacity == 0 {
            return Some((key, value));
        }
        let fresh = Node { key, value, prev: NIL, next: NIL };
        let (idx, evicted) = if self.map.len() < self.capacity {
            self.slab.push(fresh);
            (self.slab.len() - 1, None)
        } else {
            // Full and capacity >= 1: the tail is a live node, reused in
            // place for the new entry.
            let lru = self.tail;
            self.unlink(lru);
            let old = self.slab.get_mut(lru).map(|node| std::mem::replace(node, fresh));
            let evicted = old.map(|node| (node.key, node.value));
            if let Some((old_key, _)) = &evicted {
                self.map.remove(old_key);
            }
            (lru, evicted)
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// The resident entries, most-recently-used first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.slab.get(at)?;
            at = node.next;
            Some((node.key, node.value))
        })
    }

    /// Applies `f` to every resident value; recency is unchanged.
    pub(crate) fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut V)) {
        let mut at = self.head;
        while let Some(node) = self.slab.get_mut(at) {
            f(&mut node.value);
            at = node.next;
        }
    }

    /// Detaches `idx` (a live node: head, tail, or a map entry).
    fn unlink(&mut self, idx: usize) {
        let Some(node) = self.slab.get_mut(idx) else { return };
        let prev = std::mem::replace(&mut node.prev, NIL);
        let next = std::mem::replace(&mut node.next, NIL);
        match self.slab.get_mut(prev) {
            Some(p) => p.next = next,
            None if self.head == idx => self.head = next,
            None => {}
        }
        match self.slab.get_mut(next) {
            Some(n) => n.prev = prev,
            None if self.tail == idx => self.tail = prev,
            None => {}
        }
    }

    /// Links `idx` (freshly minted or just unlinked) in as most recent.
    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        let Some(node) = self.slab.get_mut(idx) else { return };
        node.prev = NIL;
        node.next = head;
        if let Some(h) = self.slab.get_mut(head) {
            h.prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &LruMap<u64, u64>) -> Vec<u64> {
        lru.iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn basic_insert_and_contains() {
        let mut lru = LruMap::new(2);
        assert_eq!(lru.insert(1, 10), None);
        assert_eq!(lru.insert(2, 20), None);
        assert!(lru.contains(&1) && lru.contains(&2));
        assert_eq!((lru.get(&1), lru.get(&3)), (Some(10), None));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Get 1 so 2 becomes LRU.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
        assert_eq!(keys(&lru), [3, 1]);
    }

    #[test]
    fn reinsert_touches_instead_of_evicting() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), None); // already resident: new value
        assert_eq!(lru.insert(3, 30), Some((2, 20))); // 2 was LRU after 1's touch
        assert_eq!(lru.get(&1), Some(11));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut lru = LruMap::new(0);
        assert_eq!(lru.insert(42, 1), Some((42, 1)), "the entry is its own victim");
        assert!(!lru.contains(&42));
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn remove_frees_slots() {
        // `clear` removes every entry and frees every slot.
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.clear();
        assert_eq!((lru.len(), lru.get(&1)), (0, None));
        assert_eq!(lru.insert(3, 30), None); // no eviction needed
        assert_eq!(lru.insert(4, 40), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(keys(&lru), [4, 3]);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruMap::new(1);
        assert_eq!(lru.insert(1, 10), None);
        assert_eq!(lru.insert(2, 20), Some((1, 10)));
        assert_eq!(lru.insert(3, 30), Some((2, 20)));
        assert!(lru.contains(&3));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn long_sequence_matches_reference_model() {
        // Cross-check against a naive Vec-based LRU map (front = MRU):
        // every get, insert, eviction and the full recency order.
        for cap in [0usize, 1, 8] {
            let mut lru = LruMap::new(cap);
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut x = 12345u64;
            for step in 0..10_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = (x >> 33) % 20;
                let pos = reference.iter().position(|&(k, _)| k == key);
                if step % 3 == 0 {
                    let expected = pos.map(|p| reference.remove(p));
                    if let Some(kv) = expected {
                        reference.insert(0, kv);
                    }
                    assert_eq!(lru.get(&key), expected.map(|(_, v)| v), "cap {cap} step {step}");
                } else {
                    let evicted = match pos {
                        Some(p) => {
                            reference.remove(p);
                            None
                        }
                        None if reference.len() == cap => reference.pop().or(Some((key, step))),
                        None => None,
                    };
                    if cap > 0 {
                        reference.insert(0, (key, step));
                    }
                    assert_eq!(lru.insert(key, step), evicted, "cap {cap} step {step}");
                }
                assert_eq!(Vec::from_iter(lru.iter()), reference, "cap {cap} step {step}");
                assert_eq!(lru.len(), reference.len());
            }
        }
    }
}

//! A fixed-capacity LRU set: the RAM-resident portion of a chunk index.
//!
//! Monolithic chunk indexes outgrow RAM; each lookup of a *random*
//! fingerprint then costs a disk seek — the bottleneck documented by DDFS
//! and Sparse Indexing and cited by the paper as the motivation for its
//! application-aware partitioning. [`IndexPartition`](crate::IndexPartition)
//! tracks its most-recently-used fingerprints with this set. With a spill
//! tier the set's victim is evicted to disk; without one the victim stays
//! in the table untracked, and a later hit on it is charged as the disk
//! read it would have cost.
//!
//! Implementation: a `HashMap` into a slab-allocated doubly-linked list —
//! O(1) touch/insert/evict, no unsafe code. Every slab access is a checked
//! `get`: `NIL`, the "no neighbour" link, is `usize::MAX`, which no slab
//! reaches, so the end-of-list test and the bounds check are one branch.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU set over `K`.
pub struct LruSet<K: Eq + Hash + Clone> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone> LruSet<K> {
    /// Creates a set that holds at most `capacity` keys (capacity 0 is
    /// allowed and means "nothing is ever resident").
    pub fn new(capacity: usize) -> Self {
        LruSet {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// If `key` is resident, marks it most-recently-used and returns true.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most-recently-used, evicting the LRU key if at
    /// capacity. Returns the evicted key, if any. Inserting a resident key
    /// just touches it.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if self.touch(&key) {
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            // The map is full and capacity >= 1, so the tail is a live node.
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.free.push(lru);
            let old_key = self.slab.get(lru).map(|node| node.key.clone());
            if let Some(old) = &old_key {
                self.map.remove(old);
            }
            old_key
        } else {
            None
        };
        // `free` holds only indices previously minted into the slab.
        let idx = match self.free.pop() {
            Some(i) => {
                if let Some(node) = self.slab.get_mut(i) {
                    node.key = key.clone();
                }
                i
            }
            None => {
                self.slab.push(Node { key: key.clone(), prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Removes `key` if resident; returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// True if `key` is resident (without touching recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
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

    #[test]
    fn basic_insert_and_contains() {
        let mut lru = LruSet::new(2);
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(2), None);
        assert!(lru.contains(&1) && lru.contains(&2));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        // Touch 1 so 2 becomes LRU.
        assert!(lru.touch(&1));
        assert_eq!(lru.insert(3), Some(2));
        assert!(lru.contains(&1) && lru.contains(&3) && !lru.contains(&2));
    }

    #[test]
    fn reinsert_touches_instead_of_evicting() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert_eq!(lru.insert(1), None); // already resident
        assert_eq!(lru.insert(3), Some(2)); // 2 was LRU after 1's touch
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut lru = LruSet::new(0);
        assert_eq!(lru.insert(42), None);
        assert!(!lru.contains(&42));
        assert!(lru.is_empty());
    }

    #[test]
    fn remove_frees_slots() {
        let mut lru = LruSet::new(2);
        lru.insert(1);
        lru.insert(2);
        assert!(lru.remove(&1));
        assert!(!lru.remove(&1));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.insert(3), None); // no eviction needed
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruSet::new(1);
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(2), Some(1));
        assert_eq!(lru.insert(3), Some(2));
        assert!(lru.contains(&3));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn long_sequence_matches_reference_model() {
        // Cross-check against a naive Vec-based LRU.
        let cap = 8;
        let mut lru = LruSet::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // front = MRU
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (x >> 33) % 20;
            // Reference update.
            if let Some(pos) = reference.iter().position(|&k| k == key) {
                reference.remove(pos);
            } else if reference.len() == cap {
                reference.pop();
            }
            reference.insert(0, key);
            // LRU update.
            lru.insert(key);
            assert_eq!(lru.len(), reference.len());
            for k in &reference {
                assert!(lru.contains(k), "missing {k}");
            }
        }
    }
}

//! In-memory cloud object store.
//!
//! Stands in for Amazon S3 in the paper's experiments (see DESIGN.md §5):
//! a flat key → bytes namespace with put/get/delete/list and exact
//! request/byte accounting, which the WAN and price models consume.
//!
//! Objects are kept as the shared buffers callers put: storing one and
//! serving it are reference-count bumps, so no payload byte is copied
//! under the store's lock.

use std::collections::BTreeMap;
use std::sync::Arc;

use aadedupe_lock::Lock;

use crate::backend::BackendError;

/// Per-operation accounting counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectStoreStats {
    /// PUT requests served.
    pub put_requests: u64,
    /// GET requests served (including misses).
    pub get_requests: u64,
    /// DELETE requests served.
    pub delete_requests: u64,
    /// Bytes received by PUTs.
    pub bytes_in: u64,
    /// Bytes returned by GETs.
    pub bytes_out: u64,
    /// Stale temp files removed by crash-recovery sweeps (durable stores).
    pub tmp_swept: u64,
    /// Best-effort cleanup deletions that themselves failed. Never silent:
    /// every swallowed `remove_file` error lands here for audit.
    pub cleanup_failures: u64,
}

/// A flat in-memory object namespace with accounting.
///
/// `BTreeMap` keeps listings ordered, matching S3's lexicographic listing
/// semantics.
pub struct ObjectStore {
    inner: Lock<Inner>,
}

struct Inner {
    objects: BTreeMap<String, Arc<Vec<u8>>>,
    stats: ObjectStoreStats,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore {
            inner: Lock::new(Inner {
                objects: BTreeMap::new(),
                stats: ObjectStoreStats::default(),
            }),
        }
    }

    /// Stores `bytes` under `key` as they are, replacing any previous
    /// object. Memory never fails, but the signature matches
    /// [`ObjectBackend`] so callers written against the trait handle
    /// errors uniformly.
    ///
    /// [`ObjectBackend`]: crate::backend::ObjectBackend
    pub fn put(&self, key: &str, bytes: impl Into<Arc<Vec<u8>>>) -> Result<(), BackendError> {
        let bytes = bytes.into();
        let mut g = self.inner.lock();
        g.stats.put_requests += 1;
        g.stats.bytes_in += bytes.len() as u64;
        g.objects.insert(key.to_owned(), bytes);
        Ok(())
    }

    /// Fetches the object at `key`: a new reference to the stored buffer.
    pub fn get(&self, key: &str) -> Result<Option<Arc<Vec<u8>>>, BackendError> {
        let mut g = self.inner.lock();
        g.stats.get_requests += 1;
        let out = g.objects.get(key).map(Arc::clone);
        if let Some(o) = &out {
            g.stats.bytes_out += o.len() as u64;
        }
        Ok(out)
    }

    /// Deletes the object at `key`; returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool, BackendError> {
        let mut g = self.inner.lock();
        g.stats.delete_requests += 1;
        Ok(g.objects.remove(key).is_some())
    }

    /// True if an object exists at `key` (not counted as a request).
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().objects.contains_key(key)
    }

    /// Keys starting with `prefix`, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.lock()
            .objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.inner.lock().objects.len()
    }

    /// Total bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.inner.lock().objects.values().map(|v| v.len() as u64).sum()
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> ObjectStoreStats {
        self.inner.lock().stats
    }

    /// Corrupts one byte of the object at `key` (failure injection for
    /// tests); returns false if the object is missing or empty. Copy on
    /// write: a buffer an earlier get handed out keeps its bytes.
    pub fn corrupt(&self, key: &str, byte_index: usize) -> bool {
        let mut g = self.inner.lock();
        match g.objects.get_mut(key) {
            Some(v) if !v.is_empty() => {
                let v = Arc::make_mut(v);
                let i = byte_index % v.len();
                v.get_mut(i).map(|b| *b ^= 0xff).is_some()
            }
            _ => false,
        }
    }
}

impl crate::backend::ObjectBackend for ObjectStore {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<(), BackendError> {
        ObjectStore::put(self, key, bytes)
    }

    fn get(&self, key: &str) -> Result<Option<Arc<Vec<u8>>>, BackendError> {
        ObjectStore::get(self, key)
    }

    fn delete(&self, key: &str) -> Result<bool, BackendError> {
        ObjectStore::delete(self, key)
    }

    fn contains(&self, key: &str) -> bool {
        ObjectStore::contains(self, key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        ObjectStore::list(self, prefix)
    }

    fn object_count(&self) -> usize {
        ObjectStore::object_count(self)
    }

    fn stored_bytes(&self) -> u64 {
        ObjectStore::stored_bytes(self)
    }

    fn stats(&self) -> ObjectStoreStats {
        ObjectStore::stats(self)
    }

    fn corrupt(&self, key: &str, byte_index: usize) -> bool {
        ObjectStore::corrupt(self, key, byte_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_cycle() {
        let s = ObjectStore::new();
        s.put("a/1", vec![1, 2, 3]).unwrap();
        assert_eq!(s.get("a/1").unwrap().as_deref(), Some(&vec![1, 2, 3]));
        assert!(s.contains("a/1"));
        assert!(s.delete("a/1").unwrap());
        assert!(!s.delete("a/1").unwrap());
        assert_eq!(s.get("a/1").unwrap(), None);
    }

    #[test]
    fn put_replaces() {
        let s = ObjectStore::new();
        s.put("k", vec![1]).unwrap();
        s.put("k", vec![2, 3]).unwrap();
        assert_eq!(s.get("k").unwrap().as_deref(), Some(&vec![2, 3]));
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.stored_bytes(), 2);
    }

    #[test]
    fn listing_is_prefix_filtered_and_ordered() {
        let s = ObjectStore::new();
        s.put("containers/2", vec![]).unwrap();
        s.put("containers/1", vec![]).unwrap();
        s.put("index/snap", vec![]).unwrap();
        assert_eq!(s.list("containers/"), vec!["containers/1", "containers/2"]);
        assert_eq!(s.list(""), vec!["containers/1", "containers/2", "index/snap"]);
        assert!(s.list("zzz").is_empty());
    }

    #[test]
    fn accounting() {
        let s = ObjectStore::new();
        s.put("a", vec![0u8; 100]).unwrap();
        s.put("b", vec![0u8; 50]).unwrap();
        s.get("a").unwrap();
        s.get("missing").unwrap();
        s.delete("b").unwrap();
        let st = s.stats();
        assert_eq!(st.put_requests, 2);
        assert_eq!(st.get_requests, 2);
        assert_eq!(st.delete_requests, 1);
        assert_eq!(st.bytes_in, 150);
        assert_eq!(st.bytes_out, 100);
        assert_eq!(s.stored_bytes(), 100);
    }

    #[test]
    fn corruption_injection() {
        let s = ObjectStore::new();
        s.put("x", vec![0u8; 10]).unwrap();
        assert!(s.corrupt("x", 3));
        assert_eq!(s.get("x").unwrap().unwrap()[3], 0xff);
        assert!(!s.corrupt("missing", 0));
    }

    #[test]
    fn objects_are_stored_and_served_without_copying() {
        let s = ObjectStore::new();
        let bytes = Arc::new(vec![7u8; 64]);
        s.put("k", Arc::clone(&bytes)).unwrap();
        let got = s.get("k").unwrap().unwrap();
        assert!(Arc::ptr_eq(&got, &bytes), "the put buffer is the stored and the served one");
        assert_eq!(s.stats().bytes_out, 64);
    }

    #[test]
    fn corruption_is_copy_on_write() {
        let s = ObjectStore::new();
        s.put("x", vec![0u8; 10]).unwrap();
        let before = s.get("x").unwrap().unwrap();
        assert!(s.corrupt("x", 3));
        assert_eq!(*before, vec![0u8; 10], "a buffer fetched earlier keeps its bytes");
        let after = s.get("x").unwrap().unwrap();
        assert_eq!(after[3], 0xff, "the next get sees the flipped byte");
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(s.stored_bytes(), 10);
    }
}

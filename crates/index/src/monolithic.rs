//! The monolithic (single, full, unclassified) chunk index baseline.
//!
//! This is the structure traditional source dedup clients (Avamar-style)
//! maintain: every chunk of every application in one index. With the same
//! total RAM budget as the application-aware index, its working set
//! exceeds the cache as soon as the dataset is non-trivial, so lookups
//! degrade to modelled disk probes — the bottleneck quantified by the
//! `ablation_index` bench.

use crate::partition::IndexPartition;
use crate::{ChunkEntry, ChunkIndex, IndexStats, LookupOutcome};
use aadedupe_hashing::Fingerprint;

/// Single-partition chunk index.
pub struct MonolithicIndex {
    partition: IndexPartition,
}

impl MonolithicIndex {
    /// Creates a monolithic index with `ram_capacity` cacheable entries.
    pub fn new(ram_capacity: usize) -> Self {
        MonolithicIndex {
            partition: IndexPartition::new(ram_capacity),
        }
    }

    /// Classified lookup (RAM vs disk), for callers modelling lookup cost.
    pub fn lookup_classified(&self, fp: &Fingerprint) -> LookupOutcome {
        self.partition.lookup_classified(fp)
    }

    /// Access to the underlying partition (snapshot codec).
    pub fn partition(&self) -> &IndexPartition {
        &self.partition
    }
}

impl ChunkIndex for MonolithicIndex {
    fn lookup(&self, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.partition.lookup(fp)
    }

    fn insert(&self, fp: Fingerprint, entry: ChunkEntry) -> bool {
        self.partition.insert(fp, entry)
    }

    fn release(&self, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.partition.release(fp)
    }

    fn len(&self) -> usize {
        self.partition.len()
    }

    fn stats(&self) -> IndexStats {
        self.partition.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Md5, &n.to_le_bytes())
    }

    #[test]
    fn trait_object_usable() {
        let idx: Box<dyn ChunkIndex> = Box::new(MonolithicIndex::new(100));
        assert!(idx.insert(fp(1), ChunkEntry::new(8, 0, 0)));
        assert!(idx.lookup(&fp(1)).is_some());
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }

    #[test]
    fn grows_past_ram_and_pays_for_it() {
        let idx = MonolithicIndex::new(64);
        for i in 0..10_000 {
            idx.insert(fp(i), ChunkEntry::new(1, 0, 0));
        }
        for i in 0..10_000 {
            idx.lookup(&fp(i));
        }
        // Sequential scan of 10 000 keys through a 64-entry LRU: every
        // lookup finds its key evicted. Exact, so the model cannot drift.
        let expected = IndexStats {
            lookups: 10_000,
            hits: 10_000,
            disk_reads: 10_000,
            inserts: 10_000,
            ..IndexStats::default()
        };
        assert_eq!(idx.stats(), expected);
    }
}

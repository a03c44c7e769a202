#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Chunk fingerprint indexes for AA-Dedupe.
//!
//! A dedup index maps each chunk fingerprint to where that chunk lives in
//! cloud storage. The paper's contribution here (§III.E, Fig. 6) is the
//! **application-aware index structure**: instead of one monolithic index
//! over every chunk, AA-Dedupe keeps one *small, independent* index per
//! application type. Because data sharing between applications is
//! negligible (Observation 2), partitioning loses essentially no
//! deduplication — while each partition is small enough to stay resident in
//! RAM, side-stepping the disk-index lookup bottleneck that throttles
//! monolithic chunk indexes (the DDFS problem), and lookups in different
//! partitions can proceed in parallel.
//!
//! * [`ChunkEntry`] — the per-chunk metadata (length, container location).
//! * [`IndexPartition`] — one cache over a RAM or disk tier: an LRU
//!   cache of the most-recently-used entries, and behind it a RAM map or
//!   on-disk segments, each behind its own existence filter. Each key is
//!   held once; RAM/disk hit accounting is measured by the disk tier and
//!   modelled by the RAM tier.
//! * [`MonolithicIndex`] — single-partition baseline (Avamar-style): one
//!   big [`IndexPartition`].
//! * [`AppAwareIndex`] — per-application partitions (the paper's design).
//! * [`codec`] — the write-only snapshot the paper's "periodical data
//!   synchronization" uploads into the cloud.
//!
//! Nothing here is durable on its own: the disk tier is per-process
//! scratch space, and the index's durable home is the cloud — the session
//! manifests the engine folds back into [`IndexPartition::reconcile`].
//! Nothing reads a [`codec`] snapshot back. The manifests are also the
//! only statement of what is live: an entry is written once and a hit
//! only reads it, and a key leaves a partition only when `reconcile`
//! replaces the partition's contents wholesale.

pub mod appaware;
pub mod codec;
pub mod filter;
mod lru;
pub mod partition;
pub mod segment;
mod tier;

pub use appaware::AppAwareIndex;
pub use filter::CuckooFilter;
pub use partition::{IndexPartition, LookupOutcome, RamFootprint};

/// The monolithic (single, full, unclassified) chunk index baseline.
///
/// This is the structure traditional source dedup clients (Avamar-style)
/// maintain: every chunk of every application in one index. With the same
/// total RAM budget as the application-aware index, its working set
/// exceeds the cache as soon as the dataset is non-trivial, so lookups
/// degrade to modelled disk probes — the bottleneck quantified by
/// `paper ablation-index` (crate `aadedupe-bench`).
pub type MonolithicIndex = IndexPartition;

/// Where a stored chunk lives.
///
/// The paper (§III.E): "The metadata contains the hash information such as
/// chunk length and location." An entry is written once and read many
/// times: how many recipes share the chunk is the manifests' statement,
/// not the index's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Chunk length in bytes.
    pub len: u64,
    /// Identifier of the container object holding the chunk.
    pub container: u64,
    /// Byte offset of the chunk within the container's data section.
    pub offset: u32,
}

impl ChunkEntry {
    /// New entry.
    pub fn new(len: u64, container: u64, offset: u32) -> Self {
        ChunkEntry { len, container, offset }
    }
}

/// Cumulative access statistics for an index (or a partition of one).
///
/// `disk_reads` counts lookups the RAM-cache model classified as requiring
/// an on-disk index probe — the quantity the application-aware structure
/// exists to minimise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups that found the fingerprint (duplicates detected).
    pub hits: u64,
    /// Lookups answered from the RAM cache.
    pub ram_hits: u64,
    /// Lookups that had to touch the on-disk index (real segment reads
    /// by the disk tier, modelled by the RAM tier).
    pub disk_reads: u64,
    /// Entries inserted by the query path.
    pub inserts: u64,
    /// Entries re-created by state restore ([`IndexPartition::reconcile`])
    /// rather than the query path. Kept separate from `inserts` so
    /// post-recovery stats remain comparable with a never-crashed run's
    /// query-path counts.
    pub recovered_entries: u64,
    /// Negative lookups the segments' existence filters answered without
    /// any disk probe (disk tier only).
    pub filter_hits: u64,
    /// Lookups a filter passed that then found nothing on disk — false
    /// positives (disk tier only).
    pub filter_false_positives: u64,
}

impl IndexStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &IndexStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.ram_hits += other.ram_hits;
        self.disk_reads += other.disk_reads;
        self.inserts += other.inserts;
        self.recovered_entries += other.recovered_entries;
        self.filter_hits += other.filter_hits;
        self.filter_false_positives += other.filter_false_positives;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_constructor() {
        let e = ChunkEntry::new(4096, 7, 128);
        assert_eq!(e.len, 4096);
        assert_eq!(e.container, 7);
        assert_eq!(e.offset, 128);
    }

    #[test]
    fn stats_merge() {
        let mut a = IndexStats {
            lookups: 1,
            hits: 2,
            ram_hits: 3,
            disk_reads: 4,
            inserts: 5,
            recovered_entries: 6,
            filter_hits: 7,
            filter_false_positives: 8,
        };
        let b = IndexStats {
            lookups: 10,
            hits: 20,
            ram_hits: 30,
            disk_reads: 40,
            inserts: 50,
            recovered_entries: 60,
            filter_hits: 70,
            filter_false_positives: 80,
        };
        a.merge(&b);
        assert_eq!(
            a,
            IndexStats {
                lookups: 11,
                hits: 22,
                ram_hits: 33,
                disk_reads: 44,
                inserts: 55,
                recovered_entries: 66,
                filter_hits: 77,
                filter_false_positives: 88,
            }
        );
    }
}

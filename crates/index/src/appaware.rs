//! The application-aware index structure (paper §III.E, Fig. 6).
//!
//! One independent [`IndexPartition`] per [`AppType`]. An incoming chunk is
//! directed to the partition of its file's application type; the other
//! partitions are never touched. Consequences, exactly as the paper
//! argues:
//!
//! 1. **Small indices** — each partition covers one application's chunks,
//!    so it stays within its RAM cache for realistic personal datasets,
//!    avoiding on-disk index probes.
//! 2. **No lost dedup** — cross-application chunk sharing is negligible
//!    (Observation 2), so partitioning by type barely changes the dedup
//!    ratio; `paper obs2` (crate `aadedupe-bench`) measures this.
//! 3. **Parallelism** — partitions are independently locked, so lookups
//!    for different applications may proceed concurrently.

use crate::partition::{IndexPartition, RamFootprint};
use crate::{ChunkEntry, IndexStats, LookupOutcome};
use aadedupe_filetype::AppType;
use aadedupe_hashing::Fingerprint;
use aadedupe_obs::{Counter, Recorder, Stage};
use std::path::Path;
use std::sync::Arc;

/// Per-application chunk index.
pub struct AppAwareIndex {
    /// Indexed by `AppType::tag() - 1`.
    partitions: Vec<IndexPartition>,
    recorder: Arc<Recorder>,
}

impl AppAwareIndex {
    /// Creates an index whose partitions each cache `ram_per_partition`
    /// entries.
    ///
    /// To compare fairly against [`MonolithicIndex`](crate::MonolithicIndex)
    /// under an equal total RAM budget, pass `total_ram / AppType::ALL.len()`.
    pub fn new(ram_per_partition: usize) -> Self {
        AppAwareIndex {
            partitions: AppType::ALL
                .iter()
                .map(|_| IndexPartition::new(ram_per_partition))
                .collect(),
            recorder: Recorder::shared_disabled(),
        }
    }

    /// Creates a disk-backed index rooted at `dir`: each partition keeps at
    /// most `ram_per_partition` entries cached in RAM and spills the rest
    /// to its own segment subdirectory (`p01/`..`p13/` by application tag),
    /// each segment guarded by its own existence filter. The directory is this
    /// process's scratch space: every partition starts empty and sweeps
    /// the segment files an earlier process left on its first flush.
    pub fn disk_backed(ram_per_partition: usize, dir: &Path) -> Self {
        AppAwareIndex {
            partitions: AppType::ALL
                .iter()
                .map(|t| {
                    IndexPartition::disk_backed(
                        ram_per_partition,
                        dir.join(format!("p{:02}", t.tag())),
                    )
                })
                .collect(),
            recorder: Recorder::shared_disabled(),
        }
    }

    /// Flushes every disk-backed partition's dirty cache slots to its
    /// segments ([`IndexPartition::persist`]). Stops at the first failing
    /// partition; partitions over a RAM tier are no-ops.
    pub fn persist(&self) -> Result<(), crate::segment::SegmentError> {
        for p in &self.partitions {
            p.persist()?;
        }
        Ok(())
    }

    /// The first storage-layer IO error any partition has hit, if any.
    /// Disk-backed partitions degrade (absence answers, duplicate storage)
    /// rather than fail, so callers must poll this before trusting a
    /// session's dedup accounting enough to commit state.
    pub fn io_error(&self) -> Option<String> {
        self.partitions.iter().find_map(IndexPartition::io_error)
    }

    /// Aggregate RAM footprint across all partitions.
    pub fn ram_footprint(&self) -> RamFootprint {
        let mut total = RamFootprint::default();
        for p in &self.partitions {
            total.merge(&p.ram_footprint());
        }
        total
    }

    /// Routes this index's lookup observations (stage latency, per-app
    /// hit/miss, disk probes) to `recorder`.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// The partition serving an application type.
    #[expect(
        clippy::indexing_slicing,
        reason = "AppType tags are 1..=ALL.len(); partitions has one slot per variant"
    )]
    pub fn partition(&self, app: AppType) -> &IndexPartition {
        &self.partitions[(app.tag() - 1) as usize]
    }

    /// All `(AppType, partition)` pairs.
    pub fn partitions(&self) -> impl Iterator<Item = (AppType, &IndexPartition)> {
        AppType::ALL.iter().map(move |&t| (t, self.partition(t)))
    }

    /// Classified lookup within one application's partition.
    pub fn lookup_classified(&self, app: AppType, fp: &Fingerprint) -> LookupOutcome {
        let started = self.recorder.start();
        let (outcome, trace) = self.partition(app).lookup_traced(fp);
        self.recorder.record(Stage::Index, started);
        if started.is_some() {
            self.recorder.index_outcome(app.tag(), outcome.entry().is_some());
            if trace.disk_probes > 0 {
                self.recorder.count(Counter::IndexDiskProbes, trace.disk_probes);
            }
            if trace.filter_short_circuit {
                self.recorder.count(Counter::FilterHits, 1);
            }
            if trace.filter_false_positive {
                self.recorder.count(Counter::FilterFalsePositives, 1);
            }
        }
        outcome
    }

    /// Lookup within one application's partition.
    pub fn lookup(&self, app: AppType, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.lookup_classified(app, fp).entry()
    }

    /// Insert into one application's partition.
    ///
    /// Thread-safety: every partition method takes `&self` and locks only
    /// that partition, so concurrent access is serialized but safe. The
    /// backup engine makes every lookup and insert from its session thread,
    /// in file order, so a lookup→insert sequence needs no further
    /// synchronisation: no other thread touches the index meanwhile.
    pub fn insert(&self, app: AppType, fp: Fingerprint, entry: ChunkEntry) -> bool {
        self.partition(app).insert(fp, entry)
    }

    /// Total entries across all partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(super::partition::IndexPartition::len).sum()
    }

    /// True when all partitions are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged statistics across partitions.
    pub fn stats(&self) -> IndexStats {
        let mut s = IndexStats::default();
        for p in &self.partitions {
            s.merge(&p.stats());
        }
        s
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test code: the thread id names a per-test scratch directory")]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, &n.to_le_bytes())
    }

    #[test]
    fn partitions_are_independent() {
        let idx = AppAwareIndex::new(100);
        idx.insert(AppType::Doc, fp(1), ChunkEntry::new(8, 0, 0));
        // The same fingerprint is absent from every other partition.
        assert!(idx.lookup(AppType::Doc, &fp(1)).is_some());
        assert!(idx.lookup(AppType::Txt, &fp(1)).is_none());
        assert!(idx.lookup(AppType::Avi, &fp(1)).is_none());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn same_fingerprint_can_exist_per_app() {
        // Partitioning means identical content in two app types is stored
        // twice — the (negligible, per Observation 2) cost of independence.
        let idx = AppAwareIndex::new(100);
        assert!(idx.insert(AppType::Doc, fp(9), ChunkEntry::new(8, 0, 0)));
        assert!(idx.insert(AppType::Ppt, fp(9), ChunkEntry::new(8, 1, 0)));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.lookup(AppType::Doc, &fp(9)).unwrap().container, 0);
        assert_eq!(idx.lookup(AppType::Ppt, &fp(9)).unwrap().container, 1);
    }

    #[test]
    fn small_partitions_avoid_disk_where_monolithic_pays() {
        // Equal total RAM budget: 13 partitions x 100 vs one 1300-entry
        // monolithic cache, with 5000 entries spread over all apps.
        let total_ram = 1300;
        let app_aware = AppAwareIndex::new(total_ram / AppType::ALL.len());
        let monolithic = crate::MonolithicIndex::new(total_ram);
        let per_app = 90; // fits each partition's 100-entry cache

        for (ai, app) in AppType::ALL.iter().enumerate() {
            for i in 0..per_app {
                let f = fp((ai * 10_000 + i) as u64);
                app_aware.insert(*app, f, ChunkEntry::new(1, 0, 0));
                monolithic.insert(f, ChunkEntry::new(1, 0, 0));
            }
        }
        for (ai, app) in AppType::ALL.iter().enumerate() {
            for i in 0..per_app {
                let f = fp((ai * 10_000 + i) as u64);
                app_aware.lookup(*app, &f);
                monolithic.lookup(&f);
            }
        }
        // 13*90 = 1170 entries total: each partition (90 <= 100) is fully
        // RAM-resident, while the monolithic index (1170 <= 1300) also fits
        // here — so push past the monolithic budget:
        assert_eq!(app_aware.stats().disk_reads, 0);

        let monolithic_small = crate::MonolithicIndex::new(200);
        for (ai, _) in AppType::ALL.iter().enumerate() {
            for i in 0..per_app {
                let f = fp((ai * 10_000 + i) as u64);
                monolithic_small.insert(f, ChunkEntry::new(1, 0, 0));
            }
        }
        for (ai, _) in AppType::ALL.iter().enumerate() {
            for i in 0..per_app {
                let f = fp((ai * 10_000 + i) as u64);
                monolithic_small.lookup(&f);
            }
        }
        assert!(monolithic_small.stats().disk_reads > 0);
    }

    #[test]
    fn concurrent_shard_access_is_safe() {
        // One thread per partition, each doing the pipeline's
        // lookup→insert sequence against its own partition only.
        let idx = AppAwareIndex::new(1000);
        std::thread::scope(|scope| {
            for app in AppType::ALL {
                let idx = &idx;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let f = fp(i); // same fingerprints in every partition
                        if idx.lookup(app, &f).is_none() {
                            idx.insert(app, f, ChunkEntry::new(i, i, 0));
                        }
                    }
                });
            }
        });
        assert_eq!(idx.len(), 200 * AppType::ALL.len());
    }

    #[test]
    fn disk_backed_index_routes_and_reports_footprint() {
        let dir = std::env::temp_dir().join(format!(
            "aadedupe-appaware-disk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let idx = AppAwareIndex::disk_backed(4, &dir);
        for i in 0..64u64 {
            idx.insert(AppType::Doc, fp(i), ChunkEntry::new(i, i, 0));
        }
        for i in 0..64u64 {
            assert!(idx.lookup(AppType::Doc, &fp(i)).is_some(), "i={i}");
        }
        // Negative lookups in a partition that never saw data stay cheap.
        assert!(idx.lookup(AppType::Avi, &fp(1)).is_none());
        assert_eq!(idx.partition(AppType::Avi).stats().disk_reads, 0);

        let foot = idx.ram_footprint();
        assert_eq!(foot.cache_capacity, 4 * AppType::ALL.len());
        assert!(foot.cache_entries <= foot.cache_capacity);
        assert!(foot.segments > 0, "64 entries over a 4-entry cache must spill");
        assert!(idx.io_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}

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
//!    ratio; the `obs2_cross_app_sharing` bench measures this.
//! 3. **Parallelism** — partitions are independently locked, so lookups
//!    for different applications proceed concurrently
//!    ([`AppAwareIndex::lookup_batch_parallel`]).

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
    /// guarded by a per-partition existence filter. The directory is this
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
    /// partition; partitions without a spill tier are no-ops.
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
    pub fn partition(&self, app: AppType) -> &IndexPartition {
        // aalint: allow(panic-path) -- AppType tags are 1..=ALL.len(); partitions has one slot per variant
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
    /// that partition's mutex, so concurrent inserts/lookups against
    /// *different* applications never contend, and concurrent access to
    /// the *same* partition is serialized but safe. The parallel backup
    /// pipeline exploits this by deduplicating each application's files
    /// only under that application's lane lock: within a lane the
    /// lookup→insert sequence needs no extra synchronisation because no
    /// other thread touches that partition meanwhile.
    pub fn insert(&self, app: AppType, fp: Fingerprint, entry: ChunkEntry) -> bool {
        self.partition(app).insert(fp, entry)
    }

    /// Repoints one application's entry at a new `(container, offset)`
    /// placement — the vacuum relocation primitive.
    /// Returns false if the fingerprint is absent from that partition.
    pub fn update_placement(
        &self,
        app: AppType,
        fp: &Fingerprint,
        container: u64,
        offset: u32,
    ) -> bool {
        self.partition(app).update_placement(fp, container, offset)
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

    /// Looks up many `(app, fingerprint)` pairs concurrently, one scoped
    /// thread per application type present in the batch — the "index access
    /// parallelism" the paper's future work highlights. Result order
    /// matches input order.
    pub fn lookup_batch_parallel(
        &self,
        queries: &[(AppType, Fingerprint)],
    ) -> Vec<Option<ChunkEntry>> {
        let mut results: Vec<Option<ChunkEntry>> = vec![None; queries.len()];
        // Group query positions by partition.
        let mut by_app: Vec<Vec<usize>> = AppType::ALL.iter().map(|_| Vec::new()).collect();
        for (i, (app, _)) in queries.iter().enumerate() {
            // aalint: allow(panic-path) -- AppType tags are 1..=ALL.len(); by_app has one slot per variant
            by_app[(app.tag() - 1) as usize].push(i);
        }
        // Hand each non-empty group to its own thread; each thread writes
        // disjoint positions of `results` through a channel-free split.
        let mut slots: Vec<(usize, Option<ChunkEntry>)> = Vec::with_capacity(queries.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (tag_idx, positions) in by_app.into_iter().enumerate() {
                if positions.is_empty() {
                    continue;
                }
                // aalint: allow(panic-path) -- tag_idx < AppType::ALL.len() = partitions.len() via enumerate over by_app
                let partition = &self.partitions[tag_idx];
                handles.push(scope.spawn(move || {
                    positions
                        .into_iter()
                        // aalint: allow(panic-path) -- i came from enumerate over queries
                        .map(|i| (i, partition.lookup(&queries[i].1)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(part) => slots.extend(part),
                    // Re-raise the worker's panic payload on the caller
                    // thread instead of replacing it with our own message.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        for (i, entry) in slots {
            // aalint: allow(panic-path) -- i came from enumerate over queries, relayed through the worker
            results[i] = entry;
        }
        results
    }
}

#[cfg(test)]
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
    fn parallel_batch_matches_serial() {
        let idx = AppAwareIndex::new(10_000);
        let apps = [AppType::Doc, AppType::Txt, AppType::Avi, AppType::Vmdk];
        let mut queries = Vec::new();
        for i in 0..400u64 {
            let app = apps[(i % 4) as usize];
            if i % 3 != 0 {
                idx.insert(app, fp(i), ChunkEntry::new(i, i, 0));
            }
            queries.push((app, fp(i)));
        }
        let parallel = idx.lookup_batch_parallel(&queries);
        for (i, (app, f)) in queries.iter().enumerate() {
            let serial = idx.lookup(*app, f);
            assert_eq!(parallel[i].map(|e| e.container), serial.map(|e| e.container), "i={i}");
        }
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

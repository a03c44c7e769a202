//! A single chunk-index partition: one cache over a RAM or disk tier.
//!
//! Both index designs are built from partitions: the monolithic baseline is
//! one big partition; the application-aware index is one partition per
//! [`AppType`](aadedupe_filetype::AppType). A partition is one exact
//! key-value store guarded by one [`Lock`]: an LRU cache of the
//! `ram_capacity` most-recently-used slots over a tier that holds every
//! other entry — in RAM ([`IndexPartition::new`]) or in sorted on-disk
//! segments ([`IndexPartition::disk_backed`]). Each key is held once.
//!
//! **One path.** A lookup tries the cache, then the tier; a tier hit is
//! admitted to the cache as most-recently-used, and the cache's victim
//! goes to the tier. [`IndexPartition::reconcile`] clears the cache and
//! hands the fold to the tier. Entries are written once — by `insert` —
//! and read many times: a hit changes nothing but recency. A key leaves a
//! partition, or takes a new placement, only when `reconcile` replaces
//! the contents wholesale; what is live, and where, is the manifests'
//! statement, not the index's.
//!
//! Dedup decisions, entry values and what the cache holds are identical
//! over either tier (the differential suites pin this); only the
//! [`IndexStats`] classification differs — the disk tier measures disk
//! reads, the RAM tier models them. The disk tier is per-process scratch
//! space: the index's durable form is the cloud's session manifests,
//! which the engine folds into `reconcile` when it opens a repository
//! (the [`codec`](crate::codec) snapshot is the paper's periodic sync
//! artefact). Its IO keeps this API infallible: a failure poisons the
//! partition (sticky [`IndexPartition::io_error`]), which the engine
//! checks before committing a session.

use crate::segment::SegmentError;
use crate::tier::{Cache, CacheSlot, Spill, Tier};
use crate::{ChunkEntry, IndexStats};
use aadedupe_hashing::Fingerprint;
use aadedupe_lock::Lock;
use std::collections::HashMap;
use std::path::PathBuf;

/// Rough per-entry RAM cost (key + slot + map/LRU overhead) used by
/// [`RamFootprint::approx_bytes`]. Deliberately generous.
const ENTRY_COST: usize = 128;

/// How a lookup was served by the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Fingerprint found, served from RAM (cache hit).
    HitRam(ChunkEntry),
    /// Fingerprint found, required a disk probe.
    HitDisk(ChunkEntry),
    /// Fingerprint absent, absence determined in RAM (a partition within
    /// its budget, or existence-filter short-circuit).
    MissRam,
    /// Fingerprint absent, a disk probe was needed to prove it.
    MissDisk,
}

impl LookupOutcome {
    /// The entry, if the lookup hit.
    pub fn entry(&self) -> Option<ChunkEntry> {
        match self {
            LookupOutcome::HitRam(e) | LookupOutcome::HitDisk(e) => Some(*e),
            _ => None,
        }
    }

    /// Whether the storage layer charged a disk read.
    pub fn touched_disk(&self) -> bool {
        matches!(self, LookupOutcome::HitDisk(_) | LookupOutcome::MissDisk)
    }
}

/// Per-lookup storage-layer observations, for the observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTrace {
    /// Every segment's filter answered "definitely absent": no disk IO.
    pub filter_short_circuit: bool,
    /// A filter said "maybe" but disk found nothing — a false positive.
    pub filter_false_positive: bool,
    /// Number of segment probes performed (a RAM tier models this as 0
    /// or 1).
    pub disk_probes: u64,
}

/// A point-in-time measurement of the RAM a partition actually holds —
/// the quantity the sub-RAM index bench asserts stays within budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RamFootprint {
    /// Entries held in RAM: the cache's, plus every entry of a RAM tier.
    pub cache_entries: usize,
    /// Configured cache budget (entries).
    pub cache_capacity: usize,
    /// Bytes held by the segments' existence filters.
    pub filter_bytes: usize,
    /// Bytes held by segment fence indexes and block buffers.
    pub fence_bytes: usize,
    /// Number of on-disk segments.
    pub segments: usize,
    /// Rough total bytes: `cache_entries * ENTRY_COST + filter + fences`.
    pub approx_bytes: usize,
}

impl RamFootprint {
    /// Accumulates another partition's footprint into this one.
    pub fn merge(&mut self, other: &RamFootprint) {
        self.cache_entries += other.cache_entries;
        self.cache_capacity += other.cache_capacity;
        self.filter_bytes += other.filter_bytes;
        self.fence_bytes += other.fence_bytes;
        self.segments += other.segments;
        self.approx_bytes += other.approx_bytes;
    }
}

/// Sorts bulk input by fingerprint; on duplicate keys the last write wins
/// (`HashMap::insert` semantics).
fn sorted_last_wins(
    entries: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
) -> Vec<(Fingerprint, ChunkEntry)> {
    let mut sorted = Vec::from_iter(entries);
    sorted.sort_by_key(|(f, _)| *f);
    sorted.reverse();
    sorted.dedup_by_key(|(f, _)| *f);
    sorted.reverse();
    sorted
}

/// The partition's storage: the cache, and the tier behind it.
struct Store {
    cache: Cache,
    tier: Tier,
    /// Exact entry count (cache ∪ tier).
    live: u64,
}

impl Store {
    fn new(capacity: usize, tier: Tier) -> Self {
        Store { cache: Cache::new(capacity), tier, live: 0 }
    }

    /// Asks the tier for a key the cache does not hold and admits a hit.
    fn behind(&mut self, fp: &Fingerprint) -> (Option<ChunkEntry>, ProbeTrace) {
        let outgrown = self.live > self.cache.capacity() as u64;
        let (slot, trace) = self.tier.take(fp, outgrown);
        let entry = slot.map(|slot| {
            self.admit(*fp, slot);
            slot.entry
        });
        (entry, trace)
    }

    /// Makes `fp`'s slot most-recently-used; the cache's victim goes to
    /// the tier.
    fn admit(&mut self, fp: Fingerprint, slot: CacheSlot) {
        if let Some((victim, slot)) = self.cache.insert(fp, slot) {
            self.tier.put(victim, slot, &mut self.cache);
        }
    }

    /// Full enumeration in fingerprint order: the tier overlaid with the
    /// cache. A key the disk tier also holds keeps the cache's copy: the
    /// stable sort leaves it first.
    fn dump(&mut self) -> Vec<(Fingerprint, ChunkEntry)> {
        let mut all = Vec::from_iter(self.cache.iter().map(|(f, s)| (f, s.entry)));
        all.extend(self.tier.scan());
        all.sort_by_key(|(f, _)| *f);
        all.dedup_by_key(|(f, _)| *f);
        all
    }

    fn footprint(&self) -> RamFootprint {
        let mut f = self.tier.footprint();
        f.cache_entries += self.cache.len();
        f.cache_capacity = self.cache.capacity();
        f.approx_bytes = f.cache_entries * ENTRY_COST + f.filter_bytes + f.fence_bytes;
        f
    }
}

struct Inner {
    store: Store,
    stats: IndexStats,
}

/// One index partition.
pub struct IndexPartition {
    inner: Lock<Inner>,
}

impl IndexPartition {
    fn with_store(store: Store) -> Self {
        IndexPartition { inner: Lock::new(Inner { store, stats: IndexStats::default() }) }
    }

    /// Creates a RAM-resident partition: a RAM tier behind a cache of
    /// `ram_capacity` entries, whose disk reads are modelled.
    pub fn new(ram_capacity: usize) -> Self {
        Self::with_store(Store::new(ram_capacity, Tier::Ram(HashMap::new())))
    }

    /// Creates a disk-backed partition: at most `ram_capacity` entries
    /// cached in RAM, the rest in sorted segments under `dir`, each
    /// behind a cuckoo existence filter that short-circuits the lookups
    /// it cannot answer.
    ///
    /// The tier is this process's scratch space and always starts empty:
    /// construction is infallible, and the directory is created — and
    /// segment files an earlier process left there swept — lazily on the
    /// first flush. IO failures poison the partition — see
    /// [`IndexPartition::io_error`].
    pub fn disk_backed(ram_capacity: usize, dir: PathBuf) -> Self {
        // At capacity 0 every insert would write a segment of its own;
        // one slot is the honest minimum.
        Self::with_store(Store::new(ram_capacity.max(1), Tier::Disk(Spill::new(dir))))
    }

    /// Flushes every dirty cache slot of a disk-backed partition to a
    /// segment, so the partition's whole state is in its tier. No-op over
    /// a RAM tier. Fails without writing if the partition is poisoned —
    /// degraded state must not reach disk.
    pub fn persist(&self) -> Result<(), SegmentError> {
        let mut g = self.inner.lock();
        let Store { cache, tier, .. } = &mut g.store;
        tier.persist(cache)
    }

    /// The first IO error this partition hit, if any. Once set, the
    /// partition keeps serving degraded (probe failures read as absent,
    /// dirty state stays in RAM) and the error sticks until the partition
    /// is rebuilt; the engine must not commit state derived from it.
    pub fn io_error(&self) -> Option<String> {
        self.inner.lock().store.tier.error()
    }

    /// Full lookup with storage classification. A hit is a read: the
    /// entry is returned as stored and the fingerprint becomes
    /// most-recently-used.
    pub fn lookup_classified(&self, fp: &Fingerprint) -> LookupOutcome {
        self.lookup_traced(fp).0
    }

    /// [`IndexPartition::lookup_classified`] plus the per-lookup
    /// filter/probe observations the observability counters consume.
    pub fn lookup_traced(&self, fp: &Fingerprint) -> (LookupOutcome, ProbeTrace) {
        let mut g = self.inner.lock();
        let Inner { store, stats } = &mut *g;
        let (entry, trace) = match store.cache.get(fp) {
            Some(slot) => (Some(slot.entry), ProbeTrace::default()),
            None => store.behind(fp),
        };
        let disk = trace.disk_probes > 0;
        stats.lookups += 1;
        stats.filter_hits += u64::from(trace.filter_short_circuit);
        stats.filter_false_positives += u64::from(trace.filter_false_positive);
        stats.disk_reads += u64::from(disk);
        let Some(e) = entry else {
            return (if disk { LookupOutcome::MissDisk } else { LookupOutcome::MissRam }, trace);
        };
        stats.hits += 1;
        if disk {
            return (LookupOutcome::HitDisk(e), trace);
        }
        stats.ram_hits += 1;
        (LookupOutcome::HitRam(e), trace)
    }

    /// Lookup discarding the RAM/disk classification.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.lookup_classified(fp).entry()
    }

    /// Inserts a new entry; returns `false` if the fingerprint was already
    /// present (the original is kept). A key behind the cache is admitted
    /// to it, for locality; a cached one keeps its recency.
    pub fn insert(&self, fp: Fingerprint, entry: ChunkEntry) -> bool {
        let mut g = self.inner.lock();
        let Inner { store, stats } = &mut *g;
        if store.cache.contains(&fp) || store.behind(&fp).0.is_some() {
            return false;
        }
        store.admit(fp, CacheSlot { entry, dirty: true });
        store.live += 1;
        stats.inserts += 1;
        true
    }

    /// Replaces the partition's contents with exactly `entries` — the one
    /// bulk primitive, and the only way a key leaves a partition. Keys
    /// absent from `entries` are pruned (nothing references them any
    /// more), present ones take the given placement verbatim; newly
    /// materialised entries count as `recovered_entries`. The cache is
    /// left empty: the tier holds the fold. Returns `(pruned, added)`
    /// counts relative to the previous contents.
    pub fn reconcile(
        &self,
        entries: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
    ) -> (usize, usize) {
        let mut g = self.inner.lock();
        let Inner { store, stats } = &mut *g;
        let sorted = sorted_last_wins(entries);
        let Store { cache, tier, live } = store;
        let kept = sorted.iter().filter(|(f, _)| cache.contains(f) || tier.contains(f)).count();
        let (pruned, added) = (*live as usize - kept, sorted.len() - kept);
        cache.clear();
        *live = sorted.len() as u64;
        tier.replace(&sorted);
        stats.recovered_entries += added as u64;
        (pruned, added)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().store.live as usize
    }

    /// True when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IndexStats {
        self.inner.lock().stats
    }

    /// Measured RAM footprint (cache slots, a RAM tier's entries, segment
    /// filters, fences and block buffers).
    pub fn ram_footprint(&self) -> RamFootprint {
        self.inner.lock().store.footprint()
    }

    /// Iterates over all `(fingerprint, entry)` pairs into a vector
    /// (used by the snapshot codec). Sorted by fingerprint so snapshot
    /// bytes do not depend on storage layout.
    pub fn dump(&self) -> Vec<(Fingerprint, ChunkEntry)> {
        self.inner.lock().store.dump()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test code: the thread id names a per-test scratch directory")]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use crate::tier::MAX_SEGMENTS;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, &n.to_le_bytes())
    }

    fn disk_partition(ram: usize, tag: &str) -> (IndexPartition, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "aadedupe-part-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (IndexPartition::disk_backed(ram, dir.clone()), dir)
    }

    /// Runs `body` against partitions over the RAM tier, then over the
    /// disk tier; `make(ram)` hands the body fresh partitions of that kind.
    fn on_both_stores(tag: &str, body: impl Fn(&mut dyn FnMut(usize) -> IndexPartition)) {
        body(&mut IndexPartition::new);
        let mut dirs = Vec::new();
        body(&mut |ram| {
            let (p, dir) = disk_partition(ram, &format!("{tag}{}", dirs.len()));
            dirs.push(dir);
            p
        });
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn insert_then_lookup() {
        on_both_stores("basic", |make| {
            let p = make(8);
            for i in 0..100 {
                assert!(p.insert(fp(i), ChunkEntry::new(i, i, i as u32)), "i={i}");
            }
            assert!(!p.insert(fp(1), ChunkEntry::new(20, 1, 1)), "duplicate insert rejected");
            assert_eq!(p.len(), 100);
            for i in 0..100 {
                let e = p.lookup(&fp(i)).unwrap_or_else(|| panic!("missing {i}"));
                assert_eq!((e.len, e.container), (i, i), "original entry preserved");
            }
            assert!(p.lookup(&fp(100)).is_none());
            assert!(p.io_error().is_none(), "{:?}", p.io_error());
        });
    }

    #[test]
    fn a_hit_is_a_read() {
        // Entries are written once: hits through a cache far smaller than
        // the key set change recency and nothing else, so they leave
        // nothing for a flush to write.
        let (p, dir) = disk_partition(8, "hit");
        for i in 0..100 {
            p.insert(fp(i), ChunkEntry::new(i + 1, i, i as u32));
        }
        p.persist().unwrap();
        let (segments, contents) = (p.ram_footprint().segments, p.dump());
        for i in 0..300 {
            let e = p.lookup(&fp((i * 37) % 100)).expect("every key is present");
            assert_eq!(e.len, (i * 37) % 100 + 1);
        }
        p.persist().unwrap();
        assert_eq!(p.ram_footprint().segments, segments, "300 hits left nothing to flush");
        assert_eq!(p.dump(), contents);
        assert!(p.ram_footprint().cache_entries <= 8);
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_index_never_touches_disk() {
        let p = IndexPartition::new(1000);
        for i in 0..500 {
            p.insert(fp(i), ChunkEntry::new(1, 0, i as u32));
        }
        for i in 0..500 {
            assert!(!p.lookup_classified(&fp(i)).touched_disk(), "i={i}");
        }
        for i in 1000..1100 {
            assert_eq!(p.lookup_classified(&fp(i)), LookupOutcome::MissRam);
        }
        assert_eq!(p.stats().disk_reads, 0);
    }

    #[test]
    fn oversized_index_pays_disk_reads() {
        let p = IndexPartition::new(10);
        for i in 0..1000 {
            p.insert(fp(i), ChunkEntry::new(1, 0, i as u32));
        }
        // Cold lookups over a large key space: almost everything misses the
        // tiny cache.
        let mut disk = 0;
        for i in 0..1000 {
            if p.lookup_classified(&fp(i)).touched_disk() {
                disk += 1;
            }
        }
        assert!(disk >= 900, "expected most lookups on disk, got {disk}");
        // Immediately repeated lookups are RAM hits (cache locality).
        assert!(!p.lookup_classified(&fp(999)).touched_disk());
    }

    #[test]
    fn sequential_scan_past_the_budget_pays_one_read_per_lookup() {
        let p = IndexPartition::new(64);
        for i in 0..10_000 {
            p.insert(fp(i), ChunkEntry::new(1, 0, 0));
        }
        for i in 0..10_000 {
            p.lookup(&fp(i));
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
        assert_eq!(p.stats(), expected);
    }

    #[test]
    fn negative_lookup_on_big_index_probes_disk() {
        let p = IndexPartition::new(10);
        for i in 0..100 {
            p.insert(fp(i), ChunkEntry::new(1, 0, 0));
        }
        assert_eq!(p.lookup_classified(&fp(777)), LookupOutcome::MissDisk);
    }

    #[test]
    fn stats_accounting() {
        let p = IndexPartition::new(100);
        p.insert(fp(1), ChunkEntry::new(1, 0, 0));
        p.lookup(&fp(1));
        p.lookup(&fp(2));
        let s = p.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn dump_and_reconcile_round_trip() {
        on_both_stores("dl", |make| {
            let p = make(8);
            for i in 0..300 {
                p.insert(fp(i), ChunkEntry::new(i, i, i as u32));
            }
            let dumped = p.dump();
            assert_eq!(dumped.len(), 300);
            assert!(dumped.windows(2).all(|w| w[0].0 < w[1].0), "dump is fingerprint-ordered");
            let q = make(8);
            assert_eq!(q.reconcile(dumped.clone()), (0, 300));
            assert_eq!(q.len(), 300);
            assert_eq!(q.dump(), dumped);
            for (f, e) in dumped {
                assert_eq!(q.lookup(&f).map(|x| (x.len, x.container)), Some((e.len, e.container)));
            }
            assert!(q.io_error().is_none(), "{:?}", q.io_error());
        });
    }

    #[test]
    fn reconcile_prunes_fixes_and_adds() {
        on_both_stores("rec", |make| {
            let p = make(100);
            p.insert(fp(1), ChunkEntry::new(10, 0, 0)); // stays, placement corrected
            p.insert(fp(2), ChunkEntry::new(20, 0, 16)); // pruned (stale)
            let truth = ChunkEntry::new(10, 5, 0);
            let (pruned, added) =
                p.reconcile([(fp(1), truth), (fp(3), ChunkEntry::new(30, 6, 0))]);
            assert_eq!((pruned, added), (1, 1));
            assert_eq!(p.len(), 2);
            assert_eq!(p.stats().recovered_entries, 1);
            assert_eq!(p.stats().inserts, 2, "recovery never counts as a query-path insert");
            assert!(p.lookup(&fp(2)).is_none());
            assert_eq!(p.lookup(&fp(1)), Some(truth));

            // Far over the cache budget: reconcile down to a subset with
            // corrected placements.
            let q = make(8);
            for i in 0..300u64 {
                q.insert(fp(i), ChunkEntry::new(i, i, 0));
            }
            let truth = (0..100u64).map(|i| (fp(i), ChunkEntry::new(i, i + 1000, 7)));
            assert_eq!(q.reconcile(truth), (200, 0));
            assert_eq!(q.len(), 100);
            assert!(q.lookup(&fp(250)).is_none());
            assert_eq!(q.lookup(&fp(50)), Some(ChunkEntry::new(50, 1050, 7)));
            assert!(q.io_error().is_none(), "{:?}", q.io_error());
        });
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let p = Arc::new(IndexPartition::new(10_000));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let k = t * 1000 + i;
                    p.insert(fp(k), ChunkEntry::new(k, 0, 0));
                    assert!(p.lookup(&fp(k)).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.len(), 4000);
    }

    // ---- disk-backed mode ----

    #[test]
    fn disk_backed_negative_lookups_skip_disk() {
        let (p, dir) = disk_partition(8, "neg");
        for i in 0..200 {
            p.insert(fp(i), ChunkEntry::new(1, 0, 0));
        }
        let before = p.stats();
        for i in 10_000..10_500 {
            let (outcome, trace) = p.lookup_traced(&fp(i));
            assert_eq!(outcome, LookupOutcome::MissRam, "i={i}");
            assert_eq!(trace.disk_probes, 0, "i={i}");
        }
        let s = p.stats();
        assert_eq!(s.disk_reads, before.disk_reads, "no disk probes for fresh keys");
        assert_eq!(s.filter_hits - before.filter_hits, 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hit_reads_one_segment() {
        // Four flushes of 200 keys through a 200-slot cache leave four
        // segments of 200 keys each, every one behind its own filter.
        let (p, dir) = disk_partition(200, "one");
        for batch in 0..4u64 {
            for i in batch * 200..(batch + 1) * 200 {
                p.insert(fp(i), ChunkEntry::new(i + 1, 0, 0));
            }
            p.persist().unwrap();
        }
        assert_eq!(p.ram_footprint().segments, 4);
        // Oldest segment first, so each key was evicted before its turn:
        // every lookup reads the one segment that holds its key, plus one
        // more per filter false positive on a newer segment.
        let mut extra = 0;
        for i in 0..800 {
            let (outcome, trace) = p.lookup_traced(&fp(i));
            assert_eq!(outcome, LookupOutcome::HitDisk(ChunkEntry::new(i + 1, 0, 0)), "i={i}");
            assert!(trace.disk_probes >= 1, "i={i}");
            extra += trace.disk_probes - 1;
        }
        // A key no segment holds reads none, false positives aside.
        let mut wasted = 0;
        for i in 10_000..30_000 {
            let (outcome, trace) = p.lookup_traced(&fp(i));
            assert!(outcome.entry().is_none(), "i={i}");
            assert_eq!(trace.filter_short_circuit, trace.disk_probes == 0, "i={i}");
            wasted += trace.disk_probes;
        }
        // The filters are deterministic, so the false positives are exact.
        assert_eq!((extra, wasted, p.stats().filter_false_positives), (0, 9, 9));
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_footprint_stays_bounded() {
        let budget = 16;
        let (p, dir) = disk_partition(budget, "bound");
        for i in 0..2000 {
            p.insert(fp(i), ChunkEntry::new(1, 0, 0));
        }
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        let f = p.ram_footprint();
        assert!(
            f.cache_entries <= budget,
            "cache {} exceeds budget {budget}",
            f.cache_entries
        );
        assert!(f.segments <= MAX_SEGMENTS + 1, "segments {} unbounded", f.segments);
        // Entries (2000) vastly exceed RAM-resident slots.
        assert_eq!(p.len(), 2000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Classified-lookup tallies, checked against [`IndexStats`].
    #[derive(Default)]
    struct Tally {
        ram: u64,
        disk: u64,
        hit_disk: u64,
    }

    impl Tally {
        fn lookup(&mut self, p: &IndexPartition, f: &Fingerprint) -> Option<ChunkEntry> {
            let outcome = p.lookup_classified(f);
            if outcome.touched_disk() {
                self.disk += 1;
            } else {
                self.ram += 1;
            }
            self.hit_disk += u64::from(matches!(outcome, LookupOutcome::HitDisk(_)));
            outcome.entry()
        }

        fn check(&self, p: &IndexPartition, step: u64) {
            let s = p.stats();
            assert_eq!(s.lookups, self.ram + self.disk, "step {step}");
            assert_eq!(s.hits, s.ram_hits + self.hit_disk, "step {step}");
        }
    }

    #[test]
    fn disk_backed_matches_resident_over_mixed_ops() {
        // Differential: the same op sequence over the RAM tier and the
        // disk tier yields identical results and contents, whatever the
        // disk tier's cache budget.
        for budget in [1usize, 8, 1 << 20] {
            let resident = IndexPartition::new(1 << 20);
            let (disk, dir) = disk_partition(budget, &format!("diff{budget}"));
            let (mut rt, mut dt) = (Tally::default(), Tally::default());
            let mut x = 99u64;
            for step in 0..4000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = (x >> 33) % 300;
                let e = ChunkEntry::new(k + 1, step, k as u32);
                match step % 8 {
                    0 | 1 | 5 => {
                        assert_eq!(resident.insert(fp(k), e), disk.insert(fp(k), e), "step {step}");
                    }
                    2 | 3 => assert_eq!(
                        rt.lookup(&resident, &fp(k)),
                        dt.lookup(&disk, &fp(k)),
                        "step {step}"
                    ),
                    6 => assert_eq!(resident.dump(), disk.dump(), "step {step}"),
                    _ => {}
                }
                if step == 2000 {
                    // Mid-sequence wholesale replacement: half of what is
                    // there survives, under a batch that overwrites
                    // present keys and adds never-seen ones.
                    let mut truth = resident.dump();
                    truth.truncate(truth.len() / 2);
                    truth.extend((280..340u64).map(|i| (fp(i), ChunkEntry::new(i, step, 9))));
                    assert_eq!(
                        resident.reconcile(truth.clone()),
                        disk.reconcile(truth),
                        "step {step}"
                    );
                }
                assert_eq!(resident.len(), disk.len(), "step {step}");
                rt.check(&resident, step);
                dt.check(&disk, step);
            }
            assert_eq!(resident.dump(), disk.dump(), "contents identical before reconcile");
            let truth = || (0..400u64).step_by(3).map(|i| (fp(i), ChunkEntry::new(i, i, 1)));
            assert_eq!(resident.reconcile(truth()), disk.reconcile(truth()));
            assert_eq!(resident.stats().recovered_entries, disk.stats().recovered_entries);
            assert!(disk.io_error().is_none(), "{:?}", disk.io_error());
            assert_eq!(resident.len(), disk.len());
            assert_eq!(resident.dump(), disk.dump(), "final contents identical");
            assert!(disk.ram_footprint().cache_entries <= budget, "budget {budget} respected");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn modelled_classification_is_pinned() {
        // The RAM/disk model the paper figures and the baselines consume,
        // for a lookup → insert-on-miss trace. Expected counts were
        // recorded from this store as it stood before the vacuum
        // relocation primitive was deleted, running this same trace; that
        // store had been pinned against the separate tier-less
        // implementation it replaced.
        fn run(capacity: usize) -> IndexStats {
            let p = IndexPartition::new(capacity);
            let mut x = 7u64;
            for step in 0..6000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = (x >> 33) % 300;
                if p.lookup(&fp(k)).is_none() {
                    assert!(p.insert(fp(k), ChunkEntry::new(k + 1, step, 0)));
                }
            }
            assert_eq!(p.len(), 300);
            p.stats()
        }
        // (capacity, ram_hits, disk_reads): 0 tracks nothing, `len` fits.
        for (capacity, ram_hits, disk_reads) in
            [(0, 0, 5999), (1, 24, 5974), (64, 1329, 4606), (300, 5700, 0)]
        {
            let expected = IndexStats {
                lookups: 6000,
                hits: 5700,
                ram_hits,
                disk_reads,
                inserts: 300,
                ..IndexStats::default()
            };
            assert_eq!(run(capacity), expected, "capacity {capacity}");
        }
    }

    #[test]
    fn disk_backed_reconcile_away_then_reinsert() {
        let (p, dir) = disk_partition(4, "rr");
        for i in 0..50 {
            p.insert(fp(i), ChunkEntry::new(i + 1, 0, 0));
        }
        // Entry 3 spilled to disk by now; nothing references it any more.
        let rest = p.dump().into_iter().filter(|(f, _)| *f != fp(3));
        assert_eq!(p.reconcile(rest), (1, 0));
        assert_eq!(p.lookup_classified(&fp(3)), LookupOutcome::MissRam, "the filter forgot it");
        assert_eq!(p.len(), 49);
        // Re-insert under the same fingerprint.
        assert!(p.insert(fp(3), ChunkEntry::new(99, 9, 9)));
        assert_eq!(p.lookup(&fp(3)).unwrap().len, 99);
        assert_eq!(p.len(), 50);
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_survives_many_flushes_and_merges() {
        // Thousands of keys through a 16-slot cache: many flushes and
        // merges, each segment sizing its own filter, and every live key
        // stays findable.
        let (p, dir) = disk_partition(16, "grow");
        for i in 0..3000 {
            p.insert(fp(i), ChunkEntry::new(i, 0, 0));
        }
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        for i in (0..3000).step_by(37) {
            assert!(p.lookup(&fp(i)).is_some(), "i={i}");
        }
        assert_eq!(p.len(), 3000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_tiers_cache_the_same_keys_in_the_same_order() {
        // One lookup / insert-on-miss / reconcile trace through a resident
        // partition and a disk-backed one at one budget: the tier never
        // decides what the cache holds, and reconcile leaves both cold.
        let budget = 16;
        let resident = IndexPartition::new(budget);
        let (disk, dir) = disk_partition(budget, "order");
        let cached = |p: &IndexPartition| Vec::from_iter(p.inner.lock().store.cache.iter().map(|(f, _)| f));
        let mut x = 5u64;
        for step in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 200;
            if step % 250 == 249 {
                // Folds both within and far past the budget.
                let mut truth = resident.dump();
                truth.truncate(if step % 500 == 249 { budget / 2 } else { truth.len() * 2 / 3 });
                assert_eq!(resident.reconcile(truth.clone()), disk.reconcile(truth), "step {step}");
                assert!(cached(&resident).is_empty(), "step {step}");
            } else {
                let found = resident.lookup(&fp(k));
                assert_eq!(found, disk.lookup(&fp(k)), "step {step}");
                if found.is_none() {
                    let e = ChunkEntry::new(k + 1, step, 0);
                    assert!(resident.insert(fp(k), e) && disk.insert(fp(k), e), "step {step}");
                }
            }
            assert_eq!(cached(&resident), cached(&disk), "step {step}");
            let (r, d) = (resident.stats(), disk.stats());
            assert_eq!((r.lookups, r.hits), (d.lookups, d.hits), "step {step}");
            assert_eq!(resident.dump(), disk.dump(), "step {step}");
        }
        assert!(disk.io_error().is_none(), "{:?}", disk.io_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dirty_victim_whose_flush_fails_is_kept() {
        // A file where the tier's directory should be: every flush fails.
        let blocker = std::env::temp_dir().join(format!(
            "aadedupe-part-blocked-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&blocker, b"in the way").unwrap();
        let p = IndexPartition::disk_backed(2, blocker.join("p01"));
        for i in 0..20 {
            assert!(p.insert(fp(i), ChunkEntry::new(i + 1, 0, 0)), "i={i}");
        }
        assert!(p.io_error().is_some(), "the failed flush sticks");
        assert!(p.persist().is_err(), "a poisoned partition writes nothing");
        assert_eq!((p.len(), p.ram_footprint().segments), (20, 0));
        for i in (0..20).rev() {
            assert_eq!(p.lookup(&fp(i)).map(|e| e.len), Some(i + 1), "i={i}");
            assert!(!p.insert(fp(i), ChunkEntry::new(99, 9, 9)), "i={i}");
        }
        assert_eq!(p.dump().len(), 20);
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn first_flush_sweeps_stale_segments_and_nothing_else() {
        let (p, dir) = disk_partition(4, "sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // What an earlier process left behind: a segment and an in-flight
        // temp file at sequence numbers this run will not reach, beside a
        // file the tier never wrote (the directory is a user's path).
        let stale =
            Segment::write(&dir, 0xfff0, 1, [Ok((fp(9_999), ChunkEntry::new(1, 0, 0)))]).unwrap();
        drop(stale);
        let stale_seg = Segment::path_for(&dir, 0xfff0);
        let stale_tmp = dir.join("seg-000000000000fff1.aaseg.tmp-write");
        let foreign = dir.join("notes.txt");
        std::fs::write(&stale_tmp, b"half a segment").unwrap();
        std::fs::write(&foreign, b"not the tier's").unwrap();
        for i in 0..40 {
            p.insert(fp(i), ChunkEntry::new(i + 1, 0, 0));
        }
        assert!(p.io_error().is_none(), "{:?}", p.io_error());
        assert!(p.ram_footprint().segments > 0, "40 keys over a 4-slot cache must spill");
        assert!(!stale_seg.exists(), "a previous process's segment is swept");
        assert!(!stale_tmp.exists(), "so is its in-flight temp file");
        assert!(foreign.exists(), "a file the tier did not write is not the tier's to delete");
        assert!(p.lookup(&fp(9_999)).is_none(), "the tier starts empty");
        for i in 0..40 {
            assert_eq!(p.lookup(&fp(i)).map(|e| e.len), Some(i + 1), "i={i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_io_error_is_sticky_and_degrades() {
        let (p, dir) = disk_partition(4, "err");
        for i in 0..40 {
            p.insert(fp(i), ChunkEntry::new(i, 0, 0));
        }
        assert!(p.io_error().is_none());
        // Sabotage: truncate the segment files behind the partition's
        // back (the partition holds open handles to the same inodes, so
        // truncation — unlike unlink — breaks its reads).
        let mut truncated = 0;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let f = std::fs::OpenOptions::new().write(true).open(e.path()).unwrap();
                f.set_len(0).unwrap();
                truncated += 1;
            }
        }
        assert!(truncated > 0, "expected segments on disk");
        // A read that needs the segments now degrades — the spilled keys
        // are missing from the dump — and poisons the partition.
        assert!(p.dump().len() < 40, "some key must live in a segment");
        assert!(p.io_error().is_some(), "read failure must stick");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

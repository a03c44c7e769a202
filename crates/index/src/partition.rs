//! A single chunk-index partition: one store, with or without a spill tier.
//!
//! Both index designs are built from partitions: the monolithic baseline is
//! one big partition; the application-aware index is one partition per
//! [`AppType`](aadedupe_filetype::AppType). A partition is one exact
//! key-value store guarded by a [`parking_lot::Mutex`]: a table of slots,
//! an [`LruSet`] over the `ram_capacity`
//! most-recently-used fingerprints, and — optionally — a spill tier of
//! sorted on-disk [`segment`](crate::segment)s behind a
//! [`CuckooFilter`] existence prefilter.
//!
//! **Slots.** A slot is an entry and one bit: `dirty` says no segment
//! holds this entry yet, so it must be flushed before it may leave RAM
//! (inert without a tier). Entries are written once — by `insert`, or by
//! `update_placement` when vacuum moves a chunk, whose newer record
//! shadows the older one — and read many times: a hit changes nothing
//! but recency. A key leaves a partition only when
//! [`IndexPartition::reconcile`] replaces the contents wholesale; what
//! is live is the manifests' statement, not the index's.
//!
//! **One ladder.** Every operation fetches the key's slot — slot table,
//! then filter, then segments newest→oldest — and admits it back as
//! most-recently-used, which hands the LRU its victim.
//!
//! **What the LRU means.** With a tier ([`IndexPartition::disk_backed`])
//! the victim is evicted, flushed first if dirty: at most `ram_capacity`
//! slots stay in RAM, negative lookups — the overwhelmingly-common case
//! in a backup stream — are answered by the filter with zero disk probes,
//! and RAM-vs-disk hit accounting is *measured*. Without one
//! ([`IndexPartition::new`]) the victim has nowhere to go and stays in the
//! table, merely untracked, and the accounting is *modelled* for the
//! throughput and energy models: a hit on an untracked slot is charged as
//! the one disk read a real tier would cost, and so is a miss (the
//! modelled design has no filter) — unless the whole table fits the
//! budget, when every lookup is a RAM hit. Capacity 0 tracks nothing.
//!
//! Dedup decisions and entry values are bit-identical with and without
//! a tier (the differential suites pin this); only the [`IndexStats`]
//! classification differs. Recency is refreshed the same way in both: a
//! rejected duplicate `insert` of a key behind the cache re-admits it.
//!
//! **The tier is scratch space.** It belongs to the process that built
//! it: [`IndexPartition::disk_backed`] always starts empty, the first
//! flush sweeps whatever segment files an earlier process left in the
//! directory, and neither the filter nor any segment metadata is ever
//! serialised. The index's durable form is the cloud's session manifests
//! (the engine folds them into [`IndexPartition::reconcile`] when it
//! opens a repository); the [`codec`](crate::codec) snapshot is the
//! paper's periodic sync artefact.
//!
//! Spill IO keeps the partition API infallible: any segment read/write
//! failure poisons the partition (sticky [`IndexPartition::io_error`])
//! and the operation degrades safely (a failed probe reports "absent",
//! which can only cause duplicate storage, never corruption). The engine
//! checks `io_error()` before committing a session, so no state derived
//! from failed IO reaches the cloud.

use crate::filter::CuckooFilter;
use crate::lru::LruSet;
use crate::segment::{merge_segments, Segment, SegmentError};
use crate::{ChunkEntry, IndexStats};
use aadedupe_hashing::Fingerprint;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// Segment-count ceiling: a flush that leaves more than this many
/// segments triggers a full streaming compaction.
const MAX_SEGMENTS: usize = 8;

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
    /// Fingerprint absent, absence determined in RAM (a table that fits
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
    /// The existence filter answered "definitely absent" with no disk IO.
    pub filter_short_circuit: bool,
    /// The filter said "maybe" but disk found nothing — a false positive.
    pub filter_false_positive: bool,
    /// Number of segment probes performed (a store without a spill tier
    /// models this as 0 or 1).
    pub disk_probes: u64,
}

/// A point-in-time measurement of the RAM a partition actually holds —
/// the quantity the sub-RAM index bench asserts stays within budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RamFootprint {
    /// Slots held in RAM (without a spill tier: every entry, LRU-tracked
    /// or not).
    pub cache_entries: usize,
    /// Configured cache budget (entries).
    pub cache_capacity: usize,
    /// Bytes held by the existence filter's slot table.
    pub filter_bytes: usize,
    /// Bytes held by segment fence indexes.
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
/// One slot of the store's table.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    entry: ChunkEntry,
    /// No segment holds this entry yet: flush before eviction.
    dirty: bool,
}

/// The optional spill tier: existence filter + sorted segments on disk.
struct Spill {
    dir: PathBuf,
    filter: CuckooFilter,
    /// Oldest → newest; newer segments shadow older ones.
    segments: Vec<Segment>,
    next_seq: u64,
    /// Directory created + stale files swept (done lazily on first
    /// flush so construction stays infallible).
    initialized: bool,
    /// Sticky first IO error; see the module docs for the degradation
    /// contract.
    error: Option<String>,
}

impl Spill {
    fn new(dir: PathBuf) -> Self {
        Spill {
            dir,
            filter: CuckooFilter::with_capacity(1024),
            segments: Vec::new(),
            next_seq: 1,
            initialized: false,
            error: None,
        }
    }

    fn poison(&mut self, e: &SegmentError) {
        if self.error.is_none() {
            self.error = Some(e.to_string());
        }
    }

    /// Creates the partition directory and sweeps the segment files a
    /// previous process left there — the tier is per-process scratch; the
    /// cloud's manifests are the index's durable form. Only names
    /// [`Segment::owns_file_name`] recognises are removed: the directory
    /// is a user-supplied path.
    fn init(&mut self) -> Result<(), SegmentError> {
        if self.initialized {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SegmentError::Io(format!("create {}: {e}", self.dir.display())))?;
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SegmentError::Io(format!("read {}: {e}", self.dir.display())))?;
        let mut stale: Vec<PathBuf> = entries
            .flatten()
            .filter(|d| d.file_name().to_str().is_some_and(Segment::owns_file_name))
            .map(|d| d.path())
            .filter(|p| p.is_file())
            .collect();
        stale.sort_unstable();
        for p in stale {
            std::fs::remove_file(&p)
                .map_err(|e| SegmentError::Io(format!("sweep {}: {e}", p.display())))?;
        }
        self.initialized = true;
        Ok(())
    }

    /// Probes segments newest→oldest. Returns the newest record for the
    /// key and how many segments were consulted. IO errors poison the
    /// tier and read as "absent".
    fn probe(&mut self, fp: &Fingerprint) -> (Option<ChunkEntry>, u64) {
        let mut probes = 0u64;
        let mut found = None;
        let mut err = None;
        for seg in self.segments.iter_mut().rev() {
            probes += 1;
            match seg.get(fp) {
                Ok(Some(rec)) => {
                    found = Some(rec);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = err {
            self.poison(&e);
        }
        (found, probes)
    }

    /// Writes `records` (strictly ascending) as the next, newest segment.
    fn write_segment(
        &mut self,
        records: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
    ) -> Result<(), SegmentError> {
        self.init()?;
        let seg = Segment::write(&self.dir, self.next_seq, records)?;
        self.next_seq += 1;
        self.segments.push(seg);
        Ok(())
    }

    /// Full streaming merge of all segments into one.
    fn compact(&mut self) -> Result<(), SegmentError> {
        if self.segments.len() <= 1 {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let merged = merge_segments(&self.dir, seq, &mut self.segments)?;
        let old = std::mem::replace(&mut self.segments, vec![merged]);
        for seg in old {
            seg.remove()?;
        }
        Ok(())
    }

    /// Drops every segment (files included) and replaces the filter with
    /// one holding exactly the keys of `entries`.
    fn reset(&mut self, entries: &[(Fingerprint, ChunkEntry)]) -> Result<(), SegmentError> {
        for seg in std::mem::take(&mut self.segments) {
            seg.remove()?;
        }
        let capacity = (entries.len() + 2).next_power_of_two().max(1024);
        self.filter = CuckooFilter::build(capacity, |insert| {
            entries.iter().for_each(|(f, _)| insert(f));
            Ok(())
        })?;
        Ok(())
    }

    /// Merged enumeration of every segment, oldest→newest (the cache
    /// overlay is the caller's). O(live) memory — used only by the
    /// snapshot codec, which is O(live) by contract anyway.
    fn scan(&mut self) -> BTreeMap<Fingerprint, ChunkEntry> {
        let mut merged: BTreeMap<Fingerprint, ChunkEntry> = BTreeMap::new();
        let mut first_err: Option<SegmentError> = None;
        for seg in &mut self.segments {
            let mut stream = match seg.stream() {
                Ok(s) => s,
                Err(e) => {
                    first_err.get_or_insert(e);
                    continue;
                }
            };
            loop {
                match stream.next_record() {
                    Ok(Some((f, e))) => {
                        merged.insert(f, e);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        first_err.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = first_err {
            self.poison(&e);
        }
        merged
    }
}

/// Sorts bulk input by fingerprint; on duplicate keys the last write wins
/// (`HashMap::insert` semantics).
fn sorted_last_wins(
    entries: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
) -> Vec<(Fingerprint, ChunkEntry)> {
    let mut sorted: Vec<(Fingerprint, ChunkEntry)> = entries.into_iter().collect();
    sorted.sort_by_key(|(f, _)| *f);
    sorted.reverse();
    sorted.dedup_by_key(|(f, _)| *f);
    sorted.reverse();
    sorted
}

/// What [`Store::fetch`] found, and what finding it cost.
struct Fetched {
    /// A copy of the key's slot: cached, or a record read from a segment
    /// and not yet admitted. `None`: absent.
    slot: Option<CacheSlot>,
    /// Resolved behind the cache — by segment probes, or by the one
    /// modelled read a store without a tier charges.
    disk: bool,
    trace: ProbeTrace,
}

/// The partition's storage: slot table + LRU, and an optional spill tier.
struct Store {
    slots: HashMap<Fingerprint, CacheSlot>,
    lru: LruSet<Fingerprint>,
    /// Exact entry count (slots ∪ segments).
    live: u64,
    spill: Option<Spill>,
}

impl Store {
    fn new(capacity: usize, spill: Option<Spill>) -> Self {
        Store { slots: HashMap::new(), lru: LruSet::new(capacity), live: 0, spill }
    }

    fn poison(&mut self, e: &SegmentError) {
        if let Some(sp) = &mut self.spill {
            sp.poison(e);
        }
    }

    /// The lookup ladder, once: slot table → existence filter → segment
    /// probes. No side effect beyond IO-error poisoning: the caller
    /// [`Store::admit`]s the returned copy.
    fn fetch(&mut self, fp: &Fingerprint) -> Fetched {
        let mut trace = ProbeTrace::default();
        let cached = self.slots.get(fp).copied();
        let Some(sp) = &mut self.spill else {
            // LRU victims stayed in the table; charge what a real tier
            // would: one read for an untracked slot or (no filter in the
            // modelled design) a miss, unless the whole table fits.
            let disk = self.slots.len() > self.lru.capacity() && !self.lru.contains(fp);
            trace.disk_probes = u64::from(disk);
            return Fetched { slot: cached, disk, trace };
        };
        if cached.is_some() {
            return Fetched { slot: cached, disk: false, trace };
        }
        if !sp.filter.contains(fp) {
            trace.filter_short_circuit = true;
            return Fetched { slot: None, disk: false, trace };
        }
        let (found, probes) = sp.probe(fp);
        trace.disk_probes = probes;
        // Nothing found, or probe degraded by an IO error: the filter
        // passed but disk disagreed.
        let slot = found.map(|entry| CacheSlot { entry, dirty: false });
        trace.filter_false_positive = slot.is_none();
        Fetched { slot, disk: true, trace }
    }

    /// The ladder's read-only form: no recency or stats effect.
    fn peek(&mut self, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.fetch(fp).slot.map(|slot| slot.entry)
    }

    /// Writes a slot and makes its key most-recently-used. With a tier
    /// the LRU victim is evicted (flushed first if dirty) to stay within
    /// budget; the admitted key itself is never the victim. IO failures
    /// poison the tier; the table then temporarily exceeds budget rather
    /// than losing the dirty slot. Without a tier the victim stays in
    /// the table, untracked.
    fn admit(&mut self, fp: Fingerprint, slot: CacheSlot) {
        let cached = self.slots.insert(fp, slot).is_some();
        if self.spill.is_none() {
            self.lru.insert(fp);
            return;
        }
        if cached {
            // Already within budget (or a dirty victim a failed flush
            // kept, which stays untracked): recency only.
            self.lru.touch(&fp);
            return;
        }
        let Some(victim) = self.lru.insert(fp) else { return };
        if self.slots.get(&victim).is_some_and(|s| s.dirty) {
            if let Err(e) = self.flush_dirty() {
                self.poison(&e);
                // Poisoned: keep the dirty victim cached (untracked
                // by the LRU) rather than losing state; the engine
                // refuses to commit a poisoned index.
                return;
            }
        }
        self.slots.remove(&victim);
    }

    /// Admits an entry no segment holds yet.
    fn put(&mut self, fp: Fingerprint, entry: ChunkEntry) {
        self.admit(fp, CacheSlot { entry, dirty: true });
    }

    /// Writes every dirty slot as one new sorted segment, then marks the
    /// flushed slots clean.
    fn flush_dirty(&mut self) -> Result<(), SegmentError> {
        let Some(sp) = &mut self.spill else { return Ok(()) };
        let mut dirty: Vec<(Fingerprint, ChunkEntry)> =
            self.slots.iter().filter(|(_, s)| s.dirty).map(|(f, s)| (*f, s.entry)).collect();
        dirty.sort_unstable_by_key(|(f, _)| *f);
        if !dirty.is_empty() {
            sp.write_segment(dirty.iter().copied())?;
        }
        for (f, _) in &dirty {
            if let Some(s) = self.slots.get_mut(f) {
                s.dirty = false;
            }
        }
        if sp.segments.len() > MAX_SEGMENTS {
            sp.compact()?;
        }
        Ok(())
    }

    /// Inserts into the filter (if there is one), transparently
    /// rebuilding it at a larger capacity from the authoritative key set
    /// when it overflows. The key must already be in the table or in a
    /// segment.
    fn filter_insert(&mut self, fp: &Fingerprint) {
        if self.spill.as_mut().is_some_and(|sp| sp.filter.insert(fp).is_err()) {
            if let Err(e) = self.rebuild_filter() {
                self.poison(&e);
            }
        }
    }

    /// Rebuilds the filter from the authoritative key set — every cached
    /// key, then every record of the freshly compacted segment that is not
    /// cached — at a capacity that at least doubles. O(cache + filter) RAM.
    fn rebuild_filter(&mut self) -> Result<(), SegmentError> {
        let Some(sp) = &mut self.spill else { return Ok(()) };
        sp.compact()?;
        let capacity = ((self.live as usize) + 2)
            .next_power_of_two()
            .max(sp.filter.capacity().saturating_mul(2));
        let mut cached: Vec<Fingerprint> = self.slots.keys().copied().collect();
        cached.sort_unstable();
        let (slots, segments) = (&self.slots, &mut sp.segments);
        sp.filter = CuckooFilter::build(capacity, |insert| {
            cached.iter().for_each(&mut *insert);
            if let Some(seg) = segments.first_mut() {
                let mut s = seg.stream()?;
                while let Some((k, _)) = s.next_record()? {
                    if !slots.contains_key(&k) {
                        insert(&k);
                    }
                }
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Bulk-writes `sorted` behind the cache as one segment — or, with
    /// no tier to hold it, into the table, each key becoming
    /// most-recently-used in turn.
    fn write_behind(&mut self, sorted: &[(Fingerprint, ChunkEntry)]) -> Result<(), SegmentError> {
        match &mut self.spill {
            Some(_) if sorted.is_empty() => Ok(()),
            Some(sp) => sp.write_segment(sorted.iter().copied()),
            None => {
                for (f, e) in sorted {
                    self.admit(*f, CacheSlot { entry: *e, dirty: false });
                }
                Ok(())
            }
        }
    }

    /// Drops all table, filter, and segment state (files included) and
    /// replaces it with exactly `sorted` (deduped) — the reconciliation
    /// primitive.
    fn replace_all(&mut self, sorted: &[(Fingerprint, ChunkEntry)]) -> Result<(), SegmentError> {
        self.slots.clear();
        self.lru = LruSet::new(self.lru.capacity());
        self.live = sorted.len() as u64;
        if let Some(sp) = &mut self.spill {
            sp.reset(sorted)?;
        }
        self.write_behind(sorted)
    }

    /// Full enumeration in fingerprint order: the segments overlaid with
    /// the slot table.
    fn dump(&mut self) -> Vec<(Fingerprint, ChunkEntry)> {
        let mut merged = self.spill.as_mut().map_or_else(BTreeMap::new, Spill::scan);
        let mut overlay: Vec<(Fingerprint, ChunkEntry)> =
            self.slots.iter().map(|(f, s)| (*f, s.entry)).collect();
        overlay.sort_unstable_by_key(|(f, _)| *f);
        merged.extend(overlay);
        merged.into_iter().collect()
    }

    fn footprint(&self) -> RamFootprint {
        let (filter_bytes, fence_bytes, segments) = self.spill.as_ref().map_or((0, 0, 0), |sp| {
            let fences = sp.segments.iter().map(Segment::mem_bytes).sum();
            (sp.filter.mem_bytes(), fences, sp.segments.len())
        });
        RamFootprint {
            cache_entries: self.slots.len(),
            cache_capacity: self.lru.capacity(),
            filter_bytes,
            fence_bytes,
            segments,
            approx_bytes: self.slots.len() * ENTRY_COST + filter_bytes + fence_bytes,
        }
    }

    /// Flushes every dirty slot into a segment, so the tier alone holds
    /// the partition's state. Refuses a poisoned tier; nothing to do
    /// without one.
    fn persist(&mut self) -> Result<(), SegmentError> {
        if let Some(e) = self.spill.as_ref().and_then(|sp| sp.error.as_ref()) {
            return Err(SegmentError::Io(e.clone()));
        }
        self.flush_dirty()
    }
}

struct Inner {
    store: Store,
    stats: IndexStats,
}

/// One index partition.
pub struct IndexPartition {
    inner: Mutex<Inner>,
    ram_capacity: usize,
}

impl IndexPartition {
    fn with_store(ram_capacity: usize, store: Store) -> Self {
        IndexPartition {
            inner: Mutex::new(Inner { store, stats: IndexStats::default() }),
            ram_capacity,
        }
    }

    /// Creates a RAM-resident partition (no spill tier) whose modelled
    /// cache holds `ram_capacity` entries.
    pub fn new(ram_capacity: usize) -> Self {
        Self::with_store(ram_capacity, Store::new(ram_capacity, None))
    }

    /// Creates a disk-backed partition: at most `ram_capacity` entries
    /// cached in RAM, overflow in sorted segments under `dir`, negative
    /// lookups short-circuited by a cuckoo existence filter.
    ///
    /// The tier is this process's scratch space and always starts empty:
    /// construction is infallible, and the directory is created — and
    /// segment files an earlier process left there swept — lazily on the
    /// first flush. IO failures poison the partition — see
    /// [`IndexPartition::io_error`].
    pub fn disk_backed(ram_capacity: usize, dir: PathBuf) -> Self {
        // A zero-capacity cache would make the write-back cache unbounded
        // (`LruSet` stores nothing at capacity 0); one slot is the honest
        // minimum.
        let store = Store::new(ram_capacity.max(1), Some(Spill::new(dir)));
        Self::with_store(ram_capacity, store)
    }

    /// Flushes every dirty cache slot of a disk-backed partition to a
    /// segment, so the partition's whole state is in its tier. No-op
    /// without a spill tier. Fails without writing if the partition is
    /// poisoned — degraded state must not reach disk.
    pub fn persist(&self) -> Result<(), SegmentError> {
        self.inner.lock().store.persist()
    }

    /// The RAM cache capacity (entries).
    pub fn ram_capacity(&self) -> usize {
        self.ram_capacity
    }

    /// The first IO error this partition hit, if any. Once set, the
    /// partition keeps serving degraded (probe failures read as absent,
    /// dirty state stays cached) and the error sticks until the partition
    /// is rebuilt; the engine must not commit state derived from it.
    pub fn io_error(&self) -> Option<String> {
        self.inner.lock().store.spill.as_ref().and_then(|sp| sp.error.clone())
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
        let Fetched { slot, disk, trace } = store.fetch(fp);
        stats.lookups += 1;
        stats.filter_hits += u64::from(trace.filter_short_circuit);
        stats.filter_false_positives += u64::from(trace.filter_false_positive);
        stats.disk_reads += u64::from(trace.disk_probes > 0);
        let Some(slot) = slot else {
            return (if disk { LookupOutcome::MissDisk } else { LookupOutcome::MissRam }, trace);
        };
        let e = slot.entry;
        store.admit(*fp, slot);
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

    /// Side-effect-free existence/entry peek: no statistics, no
    /// cache-recency change.
    pub fn peek(&self, fp: &Fingerprint) -> Option<ChunkEntry> {
        self.inner.lock().store.peek(fp)
    }

    /// Inserts a new entry; returns `false` if the fingerprint was already
    /// present (the original is kept).
    pub fn insert(&self, fp: Fingerprint, entry: ChunkEntry) -> bool {
        let mut g = self.inner.lock();
        let Inner { store, stats } = &mut *g;
        let found = store.fetch(&fp);
        if let Some(slot) = found.slot {
            if found.disk {
                // Already present behind the cache; admit for locality.
                store.admit(fp, slot);
            }
            return false;
        }
        store.put(fp, entry);
        store.filter_insert(&fp);
        store.live += 1;
        stats.inserts += 1;
        true
    }

    /// Repoints an entry at a new `(container, offset)` placement while
    /// preserving its length — the vacuum relocation primitive. The
    /// relocated entry becomes cache-resident and most-recently-used: a
    /// hot entry must not be charged a disk read on its next lookup just
    /// because vacuum moved it. Returns false (and changes nothing) if the
    /// fingerprint is absent.
    pub fn update_placement(&self, fp: &Fingerprint, container: u64, offset: u32) -> bool {
        let mut g = self.inner.lock();
        let Some(CacheSlot { entry, .. }) = g.store.fetch(fp).slot else {
            return false;
        };
        g.store.put(*fp, ChunkEntry { container, offset, ..entry });
        true
    }

    /// Replaces the partition's contents with exactly `entries` — the one
    /// bulk primitive, and the only way a key leaves a partition. Keys
    /// absent from `entries` are pruned (nothing references them any
    /// more), present ones take the given placement verbatim; newly
    /// materialised entries count as `recovered_entries`. Returns
    /// `(pruned, added)` counts relative to the previous contents.
    pub fn reconcile(
        &self,
        entries: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
    ) -> (usize, usize) {
        let mut g = self.inner.lock();
        let Inner { store, stats } = &mut *g;
        let sorted = sorted_last_wins(entries);
        let before = store.live as usize;
        let kept = sorted.iter().filter(|(f, _)| store.peek(f).is_some()).count();
        let added = sorted.len() - kept;
        if let Err(e) = store.replace_all(&sorted) {
            store.poison(&e);
        }
        stats.recovered_entries += added as u64;
        (before - kept, added)
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

    /// Measured RAM footprint (table slots, filter table, segment
    /// fences). Without a spill tier the table holds every entry.
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
mod tests {
    use super::*;
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

    /// Runs `body` against the store without a spill tier, then with
    /// one; `make(ram)` hands the body fresh partitions of that kind.
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
    fn update_placement_preserves_len() {
        let p = IndexPartition::new(100);
        p.insert(fp(1), ChunkEntry::new(10, 7, 3));
        assert!(p.update_placement(&fp(1), 42, 99));
        assert_eq!(p.lookup(&fp(1)), Some(ChunkEntry::new(10, 42, 99)));
        assert_eq!(p.len(), 1);
        assert!(!p.update_placement(&fp(2), 0, 0), "absent fp is a no-op");
    }

    #[test]
    fn update_placement_keeps_entry_hot() {
        // Regression (vacuum-then-lookup): relocating an entry must leave
        // it cache-resident — a hot entry must not be charged a disk read
        // on its next lookup just because vacuum moved it.
        on_both_stores("vac", |make| {
            let p = make(10);
            for i in 0..100 {
                p.insert(fp(i), ChunkEntry::new(1, 0, i as u32));
            }
            // Make fp(5) hot, then age it fully out of the cache.
            p.lookup(&fp(5));
            for i in 50..90 {
                p.lookup(&fp(i));
            }
            // Vacuum relocates it: placement update must re-admit it.
            assert!(p.update_placement(&fp(5), 77, 3));
            let (outcome, trace) = p.lookup_traced(&fp(5));
            assert!(
                matches!(outcome, LookupOutcome::HitRam(_)),
                "relocated entry should be RAM-resident, got {outcome:?}"
            );
            assert_eq!(trace.disk_probes, 0);
            let e = outcome.entry().unwrap();
            assert_eq!((e.container, e.offset), (77, 3));
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
        // Differential: the same op sequence against the store without
        // and with a spill tier yields identical results and contents,
        // whatever the tier's cache budget.
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
                    4 => assert_eq!(
                        resident.update_placement(&fp(k), step, 7),
                        disk.update_placement(&fp(k), step, 7),
                        "step {step}"
                    ),
                    6 => assert_eq!(resident.peek(&fp(k)), disk.peek(&fp(k)), "step {step}"),
                    _ if step % 200 == 7 => {
                        assert_eq!(resident.dump(), disk.dump(), "step {step}");
                    }
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
        // for a lookup → insert-on-miss → occasional `update_placement`
        // trace. Expected counts were recorded from the separate
        // tier-less implementation this store replaced (PR 13's parent).
        fn run(capacity: usize) -> IndexStats {
            let p = IndexPartition::new(capacity);
            let mut x = 7u64;
            for step in 0..6000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let k = (x >> 33) % 300;
                if p.lookup(&fp(k)).is_none() {
                    assert!(p.insert(fp(k), ChunkEntry::new(k + 1, step, 0)));
                }
                if step % 7 == 0 {
                    p.update_placement(&fp((x >> 13) % 300), step, 1);
                }
            }
            assert_eq!(p.len(), 300);
            p.stats()
        }
        // (capacity, ram_hits, disk_reads): 0 tracks nothing, `len` fits.
        for (capacity, ram_hits, disk_reads) in
            [(0, 0, 5999), (1, 24, 5974), (64, 1311, 4624), (300, 5700, 0)]
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
    fn disk_backed_filter_rebuild_survives_growth() {
        // Push far past the initial 1024-capacity filter; the transparent
        // rebuild must keep every live key findable.
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
    fn first_flush_sweeps_stale_segments_and_nothing_else() {
        let (p, dir) = disk_partition(4, "sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // What an earlier process left behind: a segment and an in-flight
        // temp file at sequence numbers this run will not reach, beside a
        // file the tier never wrote (the directory is a user's path).
        let stale = Segment::write(&dir, 0xfff0, [(fp(9_999), ChunkEntry::new(1, 0, 0))]).unwrap();
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
        // A lookup that needs a disk probe now degrades to a miss and
        // poisons the partition.
        let evicted: Vec<u64> = (0..40).filter(|i| p.peek(&fp(*i)).is_none()).collect();
        assert!(!evicted.is_empty(), "some key must need a disk probe");
        assert!(p.io_error().is_some(), "probe failure must stick");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

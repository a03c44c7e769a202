//! What an index partition holds behind its cache: a RAM or a disk tier.
//!
//! Every entry of a partition lives once, in its
//! [`LruMap`](crate::lru::LruMap) cache or in the [`Tier`] behind it. The
//! tiers differ only in how they hold entries and in what answering a
//! lookup costs:
//!
//! * [`Tier::Ram`] is a plain map, and its disk reads are *modelled* for
//!   the throughput and energy models: while the partition holds more
//!   entries than its cache budget, a lookup it answers, hit or miss, is
//!   the one disk read a real tier would cost (the modelled design has no
//!   filter).
//! * [`Tier::Disk`] is a [`Spill`] of sorted on-disk
//!   [`segment`](crate::segment)s, each behind its own
//!   [`CuckooFilter`](crate::CuckooFilter), and its disk reads are
//!   *measured*: negative lookups — the overwhelmingly-common case in a
//!   backup stream — are answered by the filters with no read, and a hit
//!   reads one block of the segment that holds it. A dirty victim flushes
//!   every dirty cache slot as one new segment.
//!
//! The disk tier belongs to the process that built it: it starts empty,
//! its first flush sweeps the segment files an earlier process left in
//! the directory, and nothing of it is ever serialised. A failed read or
//! write poisons it (a sticky error) and degrades safely: a failed probe
//! reads as "absent", which can only cause duplicate storage, and a dirty
//! victim whose flush fails is kept until a later flush writes it.

use crate::lru::LruMap;
use crate::partition::{ProbeTrace, RamFootprint};
use crate::segment::{merge_segments, Segment, SegmentError};
use crate::ChunkEntry;
use aadedupe_hashing::Fingerprint;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// Segment-count ceiling: a flush that leaves more than this many
/// segments triggers a full streaming compaction.
pub(crate) const MAX_SEGMENTS: usize = 8;

/// One cache slot: an entry and whether a segment holds it yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheSlot {
    pub(crate) entry: ChunkEntry,
    /// No segment holds this entry yet: the disk tier writes it before it
    /// leaves the cache (inert over the RAM tier).
    pub(crate) dirty: bool,
}

/// The cache of a partition.
pub(crate) type Cache = LruMap<Fingerprint, CacheSlot>;

/// Where a partition's cache victims go.
pub(crate) enum Tier {
    /// Every entry not in the cache; disk reads are modelled.
    Ram(HashMap<Fingerprint, ChunkEntry>),
    /// Sorted segments on disk; disk reads are measured.
    Disk(Spill),
}

impl Tier {
    /// Looks `fp` up and hands a hit over for admission to the cache: the
    /// RAM tier lets go of it, a segment keeps its copy (the slot is
    /// clean). `outgrown`: the partition holds more entries than its cache
    /// budget, so the RAM tier charges a read.
    pub(crate) fn take(&mut self, fp: &Fingerprint, outgrown: bool) -> (Option<CacheSlot>, ProbeTrace) {
        let clean = |entry| CacheSlot { entry, dirty: false };
        let sp = match self {
            Tier::Ram(map) => {
                let trace = ProbeTrace { disk_probes: u64::from(outgrown), ..ProbeTrace::default() };
                return (map.remove(fp).map(clean), trace);
            }
            Tier::Disk(sp) => sp,
        };
        if let Some(i) = sp.unflushed.iter().position(|(f, _)| f == fp) {
            let (_, entry) = sp.unflushed.swap_remove(i);
            return (Some(CacheSlot { entry, dirty: true }), ProbeTrace::default());
        }
        let (found, probes) = sp.probe(fp);
        let trace = ProbeTrace {
            filter_short_circuit: probes == 0,
            // Nothing found, or a probe degraded by an IO error: a filter
            // passed but disk disagreed.
            filter_false_positive: found.is_none() && probes > 0,
            disk_probes: probes,
        };
        (found.map(clean), trace)
    }

    /// Whether the tier holds `fp`; no effect beyond IO-error poisoning.
    pub(crate) fn contains(&mut self, fp: &Fingerprint) -> bool {
        match self {
            Tier::Ram(map) => map.contains_key(fp),
            Tier::Disk(sp) => sp.unflushed.iter().any(|(f, _)| f == fp) || sp.probe(fp).0.is_some(),
        }
    }

    /// Takes a cache victim. The disk tier drops a clean one (a segment
    /// holds it) and writes a dirty one with every dirty slot of `cache`.
    pub(crate) fn put(&mut self, fp: Fingerprint, slot: CacheSlot, cache: &mut Cache) {
        match self {
            Tier::Ram(map) => {
                map.insert(fp, slot.entry);
            }
            Tier::Disk(sp) if slot.dirty => {
                sp.unflushed.push((fp, slot.entry));
                let flushed = sp.flush(cache);
                sp.poison(flushed);
            }
            Tier::Disk(_) => {}
        }
    }

    /// Writes every dirty slot of `cache`, so the tier alone holds the
    /// partition's state. Refuses a poisoned tier; nothing to do in RAM.
    pub(crate) fn persist(&mut self, cache: &mut Cache) -> Result<(), SegmentError> {
        match self {
            Tier::Ram(_) => Ok(()),
            Tier::Disk(Spill { error: Some(e), .. }) => Err(SegmentError::Io(e.clone())),
            Tier::Disk(sp) => sp.flush(cache),
        }
    }

    /// Drops everything the tier holds (segment files included) and holds
    /// exactly `sorted` instead. A disk tier that fails poisons itself.
    pub(crate) fn replace(&mut self, sorted: &[(Fingerprint, ChunkEntry)]) {
        match self {
            Tier::Ram(map) => *map = HashMap::from_iter(sorted.iter().copied()),
            Tier::Disk(sp) => {
                sp.unflushed.clear();
                let old = std::mem::take(&mut sp.segments);
                let replaced = remove_all(old).and_then(|()| match sorted {
                    [] => Ok(()),
                    _ => sp.write_segment(sorted),
                });
                sp.poison(replaced);
            }
        }
    }

    /// Every entry the tier holds.
    pub(crate) fn scan(&mut self) -> BTreeMap<Fingerprint, ChunkEntry> {
        let mut merged = BTreeMap::new();
        match self {
            // A BTreeMap orders what it takes: hash order cannot reach it.
            Tier::Ram(map) => merged.extend(&*map),
            Tier::Disk(sp) => {
                for seg in &mut sp.segments {
                    // The first error ends the segment's records.
                    for record in seg.records() {
                        match record {
                            Ok((f, e)) => {
                                merged.insert(f, e);
                            }
                            Err(e) => {
                                sp.error.get_or_insert_with(|| e.to_string());
                            }
                        }
                    }
                }
                merged.extend(sp.unflushed.iter().copied());
            }
        }
        merged
    }

    /// What the tier holds in RAM; `cache_entries` counts its entries.
    pub(crate) fn footprint(&self) -> RamFootprint {
        match self {
            Tier::Ram(map) => RamFootprint { cache_entries: map.len(), ..RamFootprint::default() },
            Tier::Disk(sp) => RamFootprint {
                cache_entries: sp.unflushed.len(),
                filter_bytes: sp.segments.iter().map(|seg| seg.filter().mem_bytes()).sum(),
                fence_bytes: sp.segments.iter().map(Segment::mem_bytes).sum(),
                segments: sp.segments.len(),
                ..RamFootprint::default()
            },
        }
    }

    /// The disk tier's sticky first IO error, if any.
    pub(crate) fn error(&self) -> Option<String> {
        match self {
            Tier::Ram(_) => None,
            Tier::Disk(sp) => sp.error.clone(),
        }
    }
}

/// Deletes `segments`' files, stopping at the first failure.
fn remove_all(segments: Vec<Segment>) -> Result<(), SegmentError> {
    for seg in segments {
        seg.remove()?;
    }
    Ok(())
}

/// The disk tier: sorted segments on disk, each with its filter.
pub(crate) struct Spill {
    dir: PathBuf,
    /// Oldest → newest; newer segments shadow older ones.
    segments: Vec<Segment>,
    /// Dirty victims no flush has written yet (a flush failed).
    unflushed: Vec<(Fingerprint, ChunkEntry)>,
    next_seq: u64,
    /// Directory created + stale files swept (done lazily on first
    /// flush so construction stays infallible).
    initialized: bool,
    /// Sticky first IO error.
    error: Option<String>,
}

impl Spill {
    pub(crate) fn new(dir: PathBuf) -> Self {
        Spill {
            dir,
            segments: Vec::new(),
            unflushed: Vec::new(),
            next_seq: 1,
            initialized: false,
            error: None,
        }
    }

    /// Keeps the first IO error.
    fn poison(&mut self, result: Result<(), SegmentError>) {
        if let Err(e) = result {
            self.error.get_or_insert_with(|| e.to_string());
        }
    }

    /// Creates the partition directory and sweeps the segment files a
    /// previous process left there. Only names
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

    /// Probes segments newest→oldest, reading only those whose filter
    /// passes. Returns the newest record for the key and how many
    /// segments were read. IO errors poison the tier and read as "absent".
    fn probe(&mut self, fp: &Fingerprint) -> (Option<ChunkEntry>, u64) {
        let mut probes = 0u64;
        for seg in self.segments.iter_mut().rev().filter(|seg| seg.filter().contains(fp)) {
            probes += 1;
            match seg.get(fp) {
                Ok(None) => {}
                Ok(found) => return (found, probes),
                Err(e) => {
                    self.error.get_or_insert_with(|| e.to_string());
                    break;
                }
            }
        }
        (None, probes)
    }

    /// Writes the unflushed victims and every dirty slot of `cache` as one
    /// new sorted segment, marks the slots clean, and past
    /// [`MAX_SEGMENTS`] merges every segment into one.
    fn flush(&mut self, cache: &mut Cache) -> Result<(), SegmentError> {
        let mut dirty = self.unflushed.clone();
        dirty.extend(cache.iter().filter(|(_, s)| s.dirty).map(|(f, s)| (f, s.entry)));
        dirty.sort_unstable_by_key(|(f, _)| *f);
        if !dirty.is_empty() {
            self.write_segment(&dirty)?;
        }
        self.unflushed.clear();
        cache.for_each_value_mut(|s| s.dirty = false);
        if self.segments.len() <= MAX_SEGMENTS {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let merged = merge_segments(&self.dir, seq, &mut self.segments)?;
        remove_all(std::mem::replace(&mut self.segments, vec![merged]))
    }

    /// Writes `records` (strictly ascending) as the next, newest segment.
    fn write_segment(&mut self, records: &[(Fingerprint, ChunkEntry)]) -> Result<(), SegmentError> {
        self.init()?;
        let seg = Segment::write(&self.dir, self.next_seq, records.len(), records.iter().copied().map(Ok))?;
        self.next_seq += 1;
        self.segments.push(seg);
        Ok(())
    }
}

//! A deterministic, std-only cuckoo existence filter.
//!
//! The paper's partitioning keeps each application's chunk index *small*,
//! but at fleet scale even a per-application partition outgrows its RAM
//! budget and spills to disk segments ([`segment`](crate::segment)). The
//! common case in a backup stream is then a **negative** lookup — a chunk
//! the index has never seen — and without help every one of those would
//! probe the on-disk segments. This filter answers "definitely absent"
//! from a few bytes of RAM so the overwhelmingly-common new-chunk case
//! never touches disk (the biu back-it-up dedup flow builds the same
//! prefilter with a `CuckooFilter` over written-file hashes).
//!
//! Design: a classic partial-key cuckoo filter — `SLOTS_PER_BUCKET`
//! 16-bit tags per bucket, two candidate buckets per key
//! (`i2 = i1 ^ hash(tag)`), bounded eviction chains. Tags are only ever
//! added: a key leaves a partition only when the partition is replaced
//! wholesale, and then the filter is built afresh from the new key set.
//!
//! Everything is deterministic: tag/bucket derivation hashes the full
//! fingerprint digest with FNV-1a, and the eviction path uses an internal
//! splitmix64 counter whose state is part of the filter — the same operation sequence
//! always produces the same filter, which the serial↔parallel
//! differential suite relies on.
//!
//! When an insert fails (an eviction chain exceeds its bound — the
//! filter is effectively full), [`CuckooFilter::insert`] returns
//! [`FilterFull`]; the caller rebuilds at a larger capacity from the
//! authoritative key set (the partition knows every live fingerprint)
//! through [`CuckooFilter::build`]. That is also the filter's only
//! origin: it is built from keys by the process that uses it, never
//! edited down and never serialised.

use aadedupe_hashing::Fingerprint;

/// Tags per bucket. Four is the standard sweet spot: ~95% achievable
/// load factor with two candidate buckets.
const SLOTS_PER_BUCKET: usize = 4;

/// Upper bound on one insert's eviction chain before declaring the
/// filter full.
const MAX_KICKS: usize = 500;

/// An insert failed because the filter could not place the tag within
/// `MAX_KICKS` evictions — the filter is effectively full. One
/// displaced tag is dropped in the process, so the filter may now
/// report false negatives: the caller MUST rebuild it (at a larger
/// capacity, from the authoritative key set) before serving lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterFull;

impl std::fmt::Display for FilterFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cuckoo filter full")
    }
}

impl std::error::Error for FilterFull {}

/// Deterministic cuckoo existence filter over chunk fingerprints.
pub struct CuckooFilter {
    /// `buckets * SLOTS_PER_BUCKET` tags; 0 = empty slot.
    slots: Vec<u16>,
    /// Bucket count (power of two).
    buckets: usize,
    /// Deterministic eviction-path randomness; evolves with the
    /// operation sequence, never reads a clock.
    rng: u64,
}

/// FNV-1a 64-bit over the fingerprint's algorithm tag and digest bytes.
fn hash_fingerprint(fp: &Fingerprint) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    step(fp.algorithm().tag());
    for &b in fp.digest() {
        step(b);
    }
    h
}

/// Mixes a tag into a bucket displacement (the `i1 ^ hash(tag)` term).
/// splitmix64 finalizer — strong enough that tag-correlated buckets do
/// not cluster.
fn hash_tag(tag: u16) -> u64 {
    let mut z = u64::from(tag).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CuckooFilter {
    /// A filter able to hold roughly `capacity` keys (rounded up to a
    /// power-of-two bucket count; the achievable load factor is ~95%).
    pub fn with_capacity(capacity: usize) -> Self {
        let want_buckets = capacity.max(SLOTS_PER_BUCKET).div_ceil(SLOTS_PER_BUCKET);
        let buckets = want_buckets.next_power_of_two();
        CuckooFilter {
            slots: vec![0u16; buckets * SLOTS_PER_BUCKET],
            buckets,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// A filter holding every key `keys` hands to its callback, starting
    /// at `capacity` and doubling it whenever an insert overflows — `keys`
    /// then runs again from the start, so it must visit the same keys in
    /// the same order each time. The one way a filter comes to hold a key
    /// set: a partition replacing its contents, and a live filter that
    /// overflowed.
    pub fn build<E>(
        mut capacity: usize,
        mut keys: impl FnMut(&mut dyn FnMut(&Fingerprint)) -> Result<(), E>,
    ) -> Result<Self, E> {
        loop {
            let mut filter = CuckooFilter::with_capacity(capacity);
            let mut full = false;
            keys(&mut |fp| full = full || filter.insert(fp).is_err())?;
            if !full {
                return Ok(filter);
            }
            capacity = capacity.saturating_mul(2);
        }
    }

    /// Nominal capacity (total slots).
    pub fn capacity(&self) -> usize {
        self.buckets * SLOTS_PER_BUCKET
    }

    /// RAM held by the slot table, in bytes.
    pub fn mem_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u16>()
    }

    /// The (tag, bucket-1, bucket-2) triple for a fingerprint.
    fn place(&self, fp: &Fingerprint) -> (u16, usize, usize) {
        let h = hash_fingerprint(fp);
        // Tag from the high bits, bucket from the low; tag 0 is reserved
        // for "empty slot".
        let tag = (((h >> 48) as u16) | 1).max(1);
        let mask = self.buckets - 1;
        let i1 = (h as usize) & mask;
        let i2 = i1 ^ (hash_tag(tag) as usize & mask);
        (tag, i1, i2)
    }

    fn bucket(&self, i: usize) -> &[u16] {
        // aalint: allow(panic-path) -- bucket indices are masked to buckets - 1 (a power of two); slots holds buckets * SLOTS_PER_BUCKET
        &self.slots[i * SLOTS_PER_BUCKET..(i + 1) * SLOTS_PER_BUCKET]
    }

    fn bucket_mut(&mut self, i: usize) -> &mut [u16] {
        // aalint: allow(panic-path) -- same mask bound as bucket()
        &mut self.slots[i * SLOTS_PER_BUCKET..(i + 1) * SLOTS_PER_BUCKET]
    }

    fn try_place(&mut self, bucket: usize, tag: u16) -> bool {
        for slot in self.bucket_mut(bucket) {
            if *slot == 0 {
                *slot = tag;
                return true;
            }
        }
        false
    }

    /// Whether the filter *may* contain `fp`. False means definitely
    /// absent; true means present or a false positive (rate ≈
    /// `2 * SLOTS_PER_BUCKET / 2^16` per lookup at full load).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let (tag, i1, i2) = self.place(fp);
        self.bucket(i1).contains(&tag) || self.bucket(i2).contains(&tag)
    }

    /// Inserts `fp`'s tag. Duplicate inserts of the same fingerprint
    /// store duplicate tags — the index never double-inserts, so this
    /// does not arise there.
    pub fn insert(&mut self, fp: &Fingerprint) -> Result<(), FilterFull> {
        let (tag, i1, i2) = self.place(fp);
        if self.try_place(i1, tag) || self.try_place(i2, tag) {
            return Ok(());
        }
        // Both candidate buckets full: walk a bounded eviction chain,
        // deterministically choosing the victim slot.
        let mut tag = tag;
        let mut bucket = if self.next_rand() & 1 == 0 { i1 } else { i2 };
        let mask = self.buckets - 1;
        for _ in 0..MAX_KICKS {
            let victim_slot = (self.next_rand() as usize) % SLOTS_PER_BUCKET;
            let slots = self.bucket_mut(bucket);
            // aalint: allow(panic-path) -- victim_slot < SLOTS_PER_BUCKET by the modulo; the slice is exactly that long
            std::mem::swap(&mut tag, &mut slots[victim_slot]);
            bucket ^= hash_tag(tag) as usize & mask;
            if self.try_place(bucket, tag) {
                return Ok(());
            }
        }
        // Chain exhausted: the tag in hand is dropped, which may orphan
        // a previously-inserted key (false negatives possible from here
        // on). That is acceptable only because the caller's contract is
        // to rebuild from the authoritative key set on this error.
        Err(FilterFull)
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64 step: full-period, deterministic.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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
    fn no_false_negatives() {
        let mut f = CuckooFilter::with_capacity(4096);
        for i in 0..2000 {
            f.insert(&fp(i)).expect("capacity 4096 holds 2000");
        }
        for i in 0..2000 {
            assert!(f.contains(&fp(i)), "false negative at {i}");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        // Built from far too small a start, so the eviction path and the
        // grow-and-start-over path both run.
        let build = || {
            let keys: Vec<Fingerprint> = (0..1500).map(fp).collect();
            let f = CuckooFilter::build(8, |insert| {
                keys.iter().for_each(&mut *insert);
                Ok::<(), ()>(())
            })
            .unwrap();
            assert!(keys.iter().all(|k| f.contains(k)), "a grown filter holds every key");
            f.slots.clone()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn overflow_reports_full() {
        let mut f = CuckooFilter::with_capacity(SLOTS_PER_BUCKET);
        let mut full = false;
        for i in 0..10_000 {
            if f.insert(&fp(i)).is_err() {
                full = true;
                break;
            }
        }
        assert!(full, "tiny filter must eventually report full");
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let mut f = CuckooFilter::with_capacity(16 * 1024);
        for i in 0..10_000 {
            f.insert(&fp(i)).unwrap();
        }
        let mut fps = 0usize;
        let probes = 100_000u64;
        for i in 0..probes {
            if f.contains(&fp(1_000_000 + i)) {
                fps += 1;
            }
        }
        // Theory: ~ 2 buckets * 4 slots / 2^16 ≈ 1.2e-4 per probe at full
        // load; we are under half load. Allow an order of magnitude.
        let rate = fps as f64 / probes as f64;
        assert!(rate < 2e-3, "false positive rate {rate} too high");
    }
}

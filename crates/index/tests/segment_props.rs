//! Property tests for on-disk segments and the existence filter.
//!
//! A segment file is what a disk-backed partition trusts for every
//! spilled entry. It holds the sorted records alone; the fences in RAM
//! hold each block's offset and check. Every read is one checked block,
//! so a written segment gives back exactly the records written, through
//! [`Segment::get`], through [`Segment::records`] and through a merge,
//! and a truncated or corrupted file yields a typed [`SegmentError`] on
//! each of those paths — it never panics and never silently yields a
//! wrong record. The cuckoo filter must never report a false negative
//! and keep its false-positive rate within the sizing math documented in
//! DESIGN.md; a written segment's own filter holds every key it wrote,
//! whatever its size hint.

use proptest::prelude::*;

use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::segment::{merge_segments, Segment, SegmentError};
use aadedupe_index::{ChunkEntry, CuckooFilter};
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

fn fp(seed: u64, algo: HashAlgorithm) -> Fingerprint {
    Fingerprint::compute(algo, &seed.to_le_bytes())
}

/// Strategy: a sorted, strictly-ascending run of records (the only shape
/// the encoder accepts), mixing algorithms.
fn arb_records() -> impl Strategy<Value = Vec<(Fingerprint, ChunkEntry)>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            prop_oneof![
                Just(HashAlgorithm::Sha1),
                Just(HashAlgorithm::Md5),
                Just(HashAlgorithm::Rabin96),
            ],
            (any::<u64>(), any::<u64>(), any::<u32>()),
        ),
        0..200,
    )
    .prop_map(|raw| {
        let mut records: Vec<(Fingerprint, ChunkEntry)> = raw
            .iter()
            .map(|&(seed, algo, (len, container, offset))| {
                (fp(seed, algo), ChunkEntry { len, container, offset })
            })
            .collect();
        records.sort_by_key(|(fp, _)| *fp);
        records.dedup_by(|a, b| a.0 == b.0);
        records
    })
}

/// A fresh scratch directory for one property's segment files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aadedupe-segprops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every key `seg` wrote passes its filter, `get` returns exactly the
/// entry written — `None` for `absent` — and the records read back in
/// order are exactly `written`.
fn check_segment(seq: u64, seg: &mut Segment, written: &[(Fingerprint, ChunkEntry)], absent: &[Fingerprint]) {
    assert_eq!(seg.count(), written.len() as u64);
    for (fp, entry) in written {
        assert!(seg.filter().contains(fp), "false negative in segment {seq}");
        assert_eq!(seg.get(fp).expect("clean read"), Some(*entry));
    }
    for fp in absent.iter().filter(|fp| written.binary_search_by_key(fp, |(f, _)| f).is_err()) {
        assert_eq!(seg.get(fp).expect("clean read"), None);
    }
    let read: Result<Vec<_>, _> = seg.records().collect();
    assert_eq!(read.expect("clean read"), written);
}

/// Whether a failed read failed with one of the typed variants a damaged
/// or cut file produces.
fn damage_error(e: &SegmentError) -> bool {
    matches!(e, SegmentError::BadChecksum | SegmentError::Truncated | SegmentError::BadFingerprint)
}

proptest! {
    /// Two overlapping segments, written under size hints that are often
    /// far below their record counts (hint 0 always is: the filter then
    /// overflows and is rebuilt from the finished file), and their merge:
    /// no filter misses a key, and `get` and the record walk give back
    /// exactly what was written.
    #[test]
    fn segment_filters_hold_every_key_and_get_agrees_with_decode(
        records in arb_records(),
        shadow in 1usize..5,
        hints in (prop_oneof![Just(0usize), 0usize..300], prop_oneof![Just(0usize), 0usize..300]),
        absent in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let dir = scratch("filters");
        // The newer segment rewrites every `shadow`-th key with a new entry.
        let newer: Vec<(Fingerprint, ChunkEntry)> = records
            .iter()
            .step_by(shadow)
            .map(|(fp, e)| (*fp, ChunkEntry { len: e.len ^ 1, ..*e }))
            .collect();
        let absent: Vec<Fingerprint> = absent.iter().map(|&k| fp(k, HashAlgorithm::Md5)).collect();
        let mut old = Segment::write(&dir, 1, hints.0, records.iter().copied().map(Ok)).expect("write");
        let mut new = Segment::write(&dir, 2, hints.1, newer.iter().copied().map(Ok)).expect("write");
        check_segment(1, &mut old, &records, &absent);
        check_segment(2, &mut new, &newer, &absent);
        let mut merged = merge_segments(&dir, 3, &mut [old, new]).expect("merge");
        let mut want: BTreeMap<Fingerprint, ChunkEntry> = records.iter().copied().collect();
        want.extend(newer.iter().copied());
        check_segment(3, &mut merged, &Vec::from_iter(want), &absent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A byte flipped anywhere in a written segment's file, and then the
    /// file cut short: every `get`, the record walk and a merge of the
    /// segment each either fail with a typed error or give back exactly
    /// what was written — never a panic, never a wrong record — and the
    /// damaged block's own keys do fail. A failed merge leaves no file.
    #[test]
    fn a_corrupt_block_is_an_error_never_a_wrong_entry(
        records in arb_records(),
        pos in any::<u64>(),
        flip in 1u8..=255,
        cut in any::<u64>(),
    ) {
        prop_assume!(!records.is_empty());
        let dir = scratch("corrupt");
        let mut seg = Segment::write(&dir, 1, records.len(), records.iter().copied().map(Ok)).expect("write");
        let path = Segment::path_for(&dir, 1);
        // The file is the records alone.
        let len = std::fs::metadata(&path).expect("stat").len();
        let pos = pos % len;
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[pos as usize] ^= flip;
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        file.seek(SeekFrom::Start(pos)).expect("seek");
        file.write_all(&bytes[pos as usize..=pos as usize]).expect("flip");
        let mut failed = 0;
        for (fp, entry) in &records {
            match seg.get(fp) {
                Err(e) if damage_error(&e) => failed += 1,
                Err(e) => panic!("untyped failure {e}"),
                Ok(got) => prop_assert_eq!(got, Some(*entry)),
            }
        }
        prop_assert!(failed > 0, "the flipped block was read back as clean");
        for cut_len in [len, cut % len] {
            file.set_len(cut_len).expect("truncate");
            for (fp, entry) in &records {
                if let Ok(got) = seg.get(fp) {
                    prop_assert_eq!(got, Some(*entry));
                }
            }
            let read: Result<Vec<_>, _> = seg.records().collect();
            match read {
                Err(e) => prop_assert!(damage_error(&e), "untyped failure {}", e),
                Ok(read) => prop_assert_eq!(read, records.clone()),
            }
            match merge_segments(&dir, 2, std::slice::from_mut(&mut seg)) {
                Err(e) => {
                    prop_assert!(damage_error(&e), "untyped failure {}", e);
                    prop_assert!(!Segment::path_for(&dir, 2).exists(), "a failed merge left its output");
                }
                Ok(mut merged) => {
                    let read: Result<Vec<_>, _> = merged.records().collect();
                    prop_assert_eq!(read.expect("a merge reads back"), records.clone());
                    merged.remove().expect("remove");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The filter never reports a false negative for inserted keys.
    #[test]
    fn filter_has_no_false_negatives(keys in proptest::collection::vec(any::<u64>(), 0..500)) {
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let mut filter = CuckooFilter::with_capacity(keys.len().max(8) * 2);
        for &k in &keys {
            filter.insert(&fp(k, HashAlgorithm::Sha1)).expect("under-filled filter accepts");
        }
        for &k in &keys {
            prop_assert!(filter.contains(&fp(k, HashAlgorithm::Sha1)), "false negative for {k}");
        }
    }
}

/// Deterministic (non-proptest) FPR bound: 10k keys in a 16k-capacity
/// filter, 100k foreign probes — the false-positive rate must stay within
/// an order of magnitude of the theoretical `2 * 4 / 2^16` per probe.
#[test]
fn filter_false_positive_rate_bound() {
    let mut filter = CuckooFilter::with_capacity(16 * 1024);
    for i in 0..10_000u64 {
        filter.insert(&fp(i, HashAlgorithm::Sha1)).expect("insert");
    }
    let probes = 100_000u64;
    let mut false_positives = 0u64;
    for i in 0..probes {
        if filter.contains(&fp(10_000_000 + i, HashAlgorithm::Sha1)) {
            false_positives += 1;
        }
    }
    let rate = false_positives as f64 / probes as f64;
    assert!(rate < 2e-3, "false positive rate {rate} exceeds bound");
}

//! Property tests for the on-disk segment codec and the existence filter.
//!
//! The segment format is what a disk-backed partition trusts for every
//! spilled entry, so the codec must be *total*: encode→decode→encode
//! is byte-stable, and arbitrarily truncated or corrupted input returns a
//! typed [`SegmentError`] — it never panics and never silently yields
//! wrong records. The cuckoo filter must never report a false negative
//! and keep its false-positive rate within the sizing math documented in
//! DESIGN.md. A written segment's own filter holds every key it wrote,
//! whatever its size hint, and [`Segment::get`] — which reads one block —
//! agrees with the full decode, or fails typed when that block is damaged.

use proptest::prelude::*;

use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::segment::{decode_segment, encode_segment, merge_segments, Segment, SegmentError};
use aadedupe_index::{ChunkEntry, CuckooFilter};
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

/// Every key `seg` wrote passes its filter, and `get` returns exactly
/// the entry the full decode of its file holds — `None` for `absent`.
fn check_segment(dir: &Path, seq: u64, seg: &mut Segment, absent: &[Fingerprint]) -> Vec<(Fingerprint, ChunkEntry)> {
    let decoded = decode_segment(&std::fs::read(Segment::path_for(dir, seq)).expect("read segment"))
        .expect("a written segment decodes");
    assert_eq!(decoded.len() as u64, seg.count());
    for (fp, entry) in &decoded {
        assert!(seg.filter().contains(fp), "false negative in segment {seq}");
        assert_eq!(seg.get(fp).expect("clean read"), Some(*entry));
    }
    for fp in absent.iter().filter(|fp| decoded.binary_search_by_key(fp, |(f, _)| f).is_err()) {
        assert_eq!(seg.get(fp).expect("clean read"), None);
    }
    decoded
}

proptest! {
    /// Two overlapping segments, written under size hints that are often
    /// far below their record counts (hint 0 always is: the filter then
    /// overflows and is rebuilt from the finished file), and their merge:
    /// no filter misses a key, and `get` agrees with `decode_segment`.
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
        let mut old = Segment::write(&dir, 1, hints.0, records.iter().copied()).expect("write");
        let mut new = Segment::write(&dir, 2, hints.1, newer.iter().copied()).expect("write");
        prop_assert_eq!(check_segment(&dir, 1, &mut old, &absent), records.clone());
        prop_assert_eq!(check_segment(&dir, 2, &mut new, &absent), newer.clone());
        let mut merged = merge_segments(&dir, 3, &mut [old, new]).expect("merge");
        let mut want: BTreeMap<Fingerprint, ChunkEntry> = records.iter().copied().collect();
        want.extend(newer.iter().copied());
        prop_assert_eq!(check_segment(&dir, 3, &mut merged, &absent), Vec::from_iter(want));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A byte flipped inside the record region of a written segment, and
    /// then the file cut short: every `get` either fails with a typed
    /// error or returns exactly the entry that was written — never a panic,
    /// never a wrong entry — and the damaged block's own keys do fail.
    #[test]
    fn a_corrupt_block_is_an_error_never_a_wrong_entry(
        records in arb_records(),
        pos in any::<u64>(),
        flip in 1u8..=255,
        cut in any::<u64>(),
    ) {
        prop_assume!(!records.is_empty());
        let dir = scratch("corrupt");
        let mut seg = Segment::write(&dir, 1, records.len(), records.iter().copied()).expect("write");
        let path = Segment::path_for(&dir, 1);
        let len = std::fs::metadata(&path).expect("stat").len();
        // Records lie between the 14-byte header and the 8-byte checksum.
        let records_region = 14..len - 8;
        let pos = records_region.start + pos % (records_region.end - records_region.start);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[pos as usize] ^= flip;
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        file.seek(SeekFrom::Start(pos)).expect("seek");
        file.write_all(&bytes[pos as usize..=pos as usize]).expect("flip");
        let mut failed = 0;
        for (fp, entry) in &records {
            match seg.get(fp) {
                Err(
                    SegmentError::BadChecksum | SegmentError::Truncated | SegmentError::BadFingerprint,
                ) => failed += 1,
                Err(e) => panic!("untyped failure {e}"),
                Ok(got) => prop_assert_eq!(got, Some(*entry)),
            }
        }
        prop_assert!(failed > 0, "the flipped block was read back as clean");
        file.set_len(records_region.start + cut % (records_region.end - records_region.start))
            .expect("truncate");
        for (fp, entry) in &records {
            if let Ok(got) = seg.get(fp) {
                prop_assert_eq!(got, Some(*entry));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// encode→decode is the identity, and re-encoding the decoded records
    /// reproduces the exact bytes (byte-stable).
    #[test]
    fn roundtrip_is_byte_stable(records in arb_records()) {
        let bytes = encode_segment(&records).expect("sorted records encode");
        let decoded = decode_segment(&bytes).expect("own output decodes");
        prop_assert_eq!(&decoded, &records);
        let again = encode_segment(&decoded).expect("re-encode");
        prop_assert_eq!(again, bytes);
    }

    /// Every strict prefix fails with a typed error — never panics, never
    /// "succeeds" with fewer records.
    #[test]
    fn truncation_is_detected(records in arb_records(), cut in 0usize..4096) {
        let bytes = encode_segment(&records).expect("encode");
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(decode_segment(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    /// Any single-byte corruption either fails with a typed error or — in
    /// the one benign case, a fence-irrelevant padding-free format means
    /// there are no benign cases past the checksum — decodes to the
    /// original records. In practice the trailing FNV-1a checksum catches
    /// every record-byte flip; header flips hit BadMagic/Truncated.
    #[test]
    fn corruption_never_panics_or_lies(
        records in arb_records(),
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_segment(&records).expect("encode");
        prop_assume!(!bytes.is_empty());
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        match decode_segment(&bytes) {
            // A detected failure must be one of the typed variants.
            Err(
                SegmentError::BadMagic
                | SegmentError::Truncated
                | SegmentError::BadFingerprint
                | SegmentError::BadChecksum
                | SegmentError::Unsorted
                | SegmentError::Io(_),
            ) => {}
            // Undetected implies the decode result is still exactly right
            // (possible only if the flip cancelled out semantically —
            // with a 64-bit FNV over all record bytes this effectively
            // means the flip hit nothing load-bearing; if it ever decodes
            // it MUST match).
            Ok(decoded) => prop_assert_eq!(decoded, records, "corrupt decode differs"),
        }
    }

    /// Arbitrary garbage input never panics.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_segment(&bytes);
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

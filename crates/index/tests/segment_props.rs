//! Property tests for the on-disk segment codec and the existence filter.
//!
//! The segment format is what a disk-backed partition trusts across
//! process restarts, so the codec must be *total*: encode→decode→encode
//! is byte-stable, and arbitrarily truncated or corrupted input returns a
//! typed [`SegmentError`] — it never panics and never silently yields
//! wrong records. The cuckoo filter must never report a false negative
//! and keep its false-positive rate within the sizing math documented in
//! DESIGN.md.

use proptest::prelude::*;

use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::segment::{decode_segment, encode_segment, SegmentError};
use aadedupe_index::{ChunkEntry, CuckooFilter};

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

proptest! {
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

//! Byte-stability of the index snapshot codec.
//!
//! The parallel pipeline relies on index snapshots being a pure function
//! of index *content*: the differential suite compares cloud objects byte
//! for byte, and the periodic sync (paper §III.E) uploads these
//! snapshots. So beyond plain round-tripping, `encode(decode(encode(x)))`
//! must equal `encode(x)` exactly — for every application-type partition,
//! for empty partitions, and for entries at the extremes of their field
//! ranges.

use aadedupe_filetype::AppType;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::codec::{decode_app_aware, encode_app_aware};
use aadedupe_index::{AppAwareIndex, ChunkEntry};

const RAM: usize = 1024;

fn fp(seed: u64, algo: HashAlgorithm) -> Fingerprint {
    Fingerprint::compute(algo, &seed.to_le_bytes())
}

/// One entry per hash algorithm, with boundary values mixed in.
fn sample_entries(salt: u64) -> Vec<(Fingerprint, ChunkEntry)> {
    vec![
        (
            fp(salt, HashAlgorithm::Sha1),
            ChunkEntry { len: 0, container: 0, offset: 0 },
        ),
        (
            fp(salt.wrapping_add(1), HashAlgorithm::Md5),
            ChunkEntry { len: 8192, container: salt, offset: 4096 },
        ),
        (
            fp(salt.wrapping_add(2), HashAlgorithm::Rabin96),
            ChunkEntry { len: u64::MAX, container: u64::MAX, offset: u32::MAX },
        ),
    ]
}

#[test]
fn encode_decode_encode_is_byte_stable_per_partition() {
    // Populate one partition at a time so stability is proven for every
    // AppType individually while all other partitions are empty.
    for (i, &app) in AppType::ALL.iter().enumerate() {
        let index = AppAwareIndex::new(RAM);
        index.partition(app).reconcile(sample_entries(i as u64 * 1000));
        let first = encode_app_aware(&index);
        let decoded = decode_app_aware(&first, RAM).expect("snapshot decodes");
        let second = encode_app_aware(&decoded);
        assert_eq!(first, second, "byte-unstable codec for {app:?}");
        assert_eq!(decoded.len(), index.len(), "entry count for {app:?}");
    }
}

#[test]
fn encode_decode_encode_is_byte_stable_fully_populated() {
    let index = AppAwareIndex::new(RAM);
    for (i, &app) in AppType::ALL.iter().enumerate() {
        index.partition(app).reconcile(sample_entries(i as u64 * 1000 + 7));
    }
    let first = encode_app_aware(&index);
    let decoded = decode_app_aware(&first, RAM).expect("snapshot decodes");
    let second = encode_app_aware(&decoded);
    assert_eq!(first, second);

    // A third generation must also agree: stability is idempotent, not a
    // one-shot coincidence of the first decode.
    let third = encode_app_aware(&decode_app_aware(&second, RAM).expect("decodes again"));
    assert_eq!(second, third);
}

#[test]
fn empty_index_is_byte_stable_and_lists_every_partition() {
    let index = AppAwareIndex::new(RAM);
    let first = encode_app_aware(&index);
    let decoded = decode_app_aware(&first, RAM).expect("empty snapshot decodes");
    assert!(decoded.is_empty());
    assert_eq!(first, encode_app_aware(&decoded));
    // Header + 13 partitions, each tag (1) + count (8): empty partitions
    // are still present so decode can never mistake one app for another.
    assert_eq!(first.len(), 6 + 4 + AppType::ALL.len() * 9);
}

#[test]
fn max_size_entries_survive_exactly() {
    let index = AppAwareIndex::new(RAM);
    let extreme = ChunkEntry { len: u64::MAX, container: u64::MAX, offset: u32::MAX };
    let f = fp(u64::MAX, HashAlgorithm::Sha1);
    index.partition(AppType::Vmdk).reconcile(vec![(f, extreme)]);
    let snap = encode_app_aware(&index);
    let back = decode_app_aware(&snap, RAM).expect("decodes");
    let got = back.partition(AppType::Vmdk).dump();
    assert_eq!(got, vec![(f, extreme)]);
    assert_eq!(snap, encode_app_aware(&back));
}

#[test]
fn stability_is_independent_of_insertion_order() {
    // The encoder sorts partition dumps by fingerprint digest, so two
    // indexes with the same content loaded in different orders must
    // produce identical snapshots — the property that makes parallel and
    // serial index-sync uploads byte-identical.
    let entries = sample_entries(4242);
    let forward = AppAwareIndex::new(RAM);
    forward.partition(AppType::Mp3).reconcile(entries.clone());
    let backward = AppAwareIndex::new(RAM);
    let mut reversed = entries;
    reversed.reverse();
    backward.partition(AppType::Mp3).reconcile(reversed);
    assert_eq!(encode_app_aware(&forward), encode_app_aware(&backward));
}

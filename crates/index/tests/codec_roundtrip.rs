//! Byte-stability of the index snapshot codec.
//!
//! The periodic sync (paper §III.E) uploads these snapshots, and the
//! differential suites compare cloud objects byte for byte, so a snapshot
//! must be a pure function of index *content*: every partition present,
//! empty or not, and no trace of the order entries arrived in. The exact
//! layout is pinned by `codec`'s own golden test.

use aadedupe_filetype::AppType;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::codec::encode_app_aware;
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
fn empty_index_is_byte_stable_and_lists_every_partition() {
    let first = encode_app_aware(&AppAwareIndex::new(RAM));
    assert_eq!(first, encode_app_aware(&AppAwareIndex::new(RAM)));
    // Header + 13 partitions, each tag (1) + count (8): empty partitions
    // are still present.
    assert_eq!(first.len(), 6 + 4 + AppType::ALL.len() * 9);
}

#[test]
fn stability_is_independent_of_insertion_order() {
    // The encoder sorts partition dumps by fingerprint digest, so two
    // indexes with the same content loaded in different orders must
    // produce identical snapshots — the property that makes parallel and
    // serial index-sync uploads byte-identical.
    let mut entries: Vec<(AppType, Fingerprint, ChunkEntry)> = Vec::new();
    for app in [AppType::Mp3, AppType::Txt] {
        for (f, e) in sample_entries(app.tag().into()) {
            entries.push((app, f, e));
        }
    }
    let forward = AppAwareIndex::new(RAM);
    for &(app, f, e) in &entries {
        forward.insert(app, f, e);
    }
    let backward = AppAwareIndex::new(RAM);
    for &(app, f, e) in entries.iter().rev() {
        backward.insert(app, f, e);
    }
    assert_eq!(forward.len(), 6);
    assert_eq!(encode_app_aware(&forward), encode_app_aware(&backward));
}

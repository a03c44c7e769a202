//! How every scheme stores an empty file, pinned.
//!
//! The evaluation dataset holds no empty file, so neither the evaluation
//! golden nor its namespace pins see how a scheme stores one. Here each of
//! the five schemes backs up one session holding an empty file of every
//! category (compressed → WFC, static → SC, dynamic → CDC, and plain text)
//! beside small non-empty files, and the session's counters and cloud
//! namespace are pinned. Each empty file must restore as an empty file, and
//! the session's manifest must reference every container it uploaded.

use std::collections::BTreeSet;

use aadedupe_baselines::all_schemes;
use aadedupe_cloud::CloudSim;
use aadedupe_core::recipe::Manifest;
use aadedupe_core::restore::container_id;
use aadedupe_filetype::{MemoryFile, SourceFile};

/// Deterministic bytes: an xorshift stream seeded by `seed`.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed + 1) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn session() -> Vec<MemoryFile> {
    vec![
        MemoryFile::new("empty.avi", Vec::new()),
        MemoryFile::new("clip.avi", bytes(1, 16 * 1024)),
        MemoryFile::new("empty.pdf", Vec::new()),
        MemoryFile::new("paper.pdf", bytes(2, 24 * 1024)),
        MemoryFile::new("empty.doc", Vec::new()),
        MemoryFile::new("notes.doc", bytes(3, 40 * 1024)),
        MemoryFile::new("empty.txt", Vec::new()),
        MemoryFile::new("readme.txt", bytes(4, 100)),
    ]
}

/// Per scheme: chunks, tiny files, PUTs, object count and FNV-1a (64-bit)
/// over the namespace — every key in sorted order with its object's bytes,
/// each prefixed by its length, as `evaluation_golden`'s `NAMESPACES`.
const PINNED: [(&str, u64, u64, u64, usize, u64); 5] = [
    ("Jungle Disk", 8, 0, 9, 9, 0x9869_fa1f_9921_4628),
    ("BackupPC", 8, 0, 6, 6, 0xc6d7_b0dc_861a_879c),
    ("Avamar", 15, 0, 16, 16, 0x8cba_e8a0_31d1_e025),
    ("SAM", 16, 5, 14, 14, 0x05b6_7c9f_2bcc_34c8),
    ("AA-Dedupe", 15, 5, 6, 6, 0xb7c0_0abf_5498_54b3),
];

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn every_scheme_stores_an_empty_file_as_pinned() {
    let files = session();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    let got: Vec<(&str, u64, u64, u64, usize, u64)> = (0..PINNED.len())
        .map(|i| {
            // One cloud per scheme, so each namespace is the scheme's own.
            let cloud = CloudSim::with_paper_defaults();
            let mut scheme = all_schemes(&cloud).swap_remove(i);
            let report = scheme.backup_session(&sources).expect("backup");
            let restored = scheme.restore_session(0).expect("restore");
            for file in &files {
                let back = restored.iter().find(|r| r.path == file.path());
                let back = back.unwrap_or_else(|| panic!("{}: {} not restored", scheme.name(), file.path()));
                assert_eq!(back.data, file.read(), "{}: {}", scheme.name(), file.path());
            }
            let store = cloud.store();
            let mut keys = store.list("");
            keys.sort();
            // Every container object the session uploaded is one its manifest
            // references: an object nothing references is a wasted PUT.
            let manifest = keys.iter().find(|k| k.contains("/manifests/")).expect("a manifest");
            let manifest = store.get(manifest).expect("manifest reads").expect("manifest exists");
            let manifest = Manifest::decode(&manifest).expect("manifest decodes");
            let referenced: BTreeSet<u64> =
                manifest.files.iter().flat_map(|f| f.chunks.iter().map(|c| c.container)).collect();
            for key in keys.iter().filter(|k| k.contains("/containers/")) {
                let id = container_id(key).expect("container key names an id");
                let name = scheme.name();
                assert!(referenced.contains(&id), "{name}: {key} is referenced by no manifest");
            }
            let digest = keys.iter().fold(0xcbf2_9ce4_8422_2325, |h, key| {
                let object = store.get(key).expect("listed object reads").expect("listed object exists");
                let h = fnv1a(h, &(key.len() as u64).to_le_bytes());
                let h = fnv1a(h, key.as_bytes());
                let h = fnv1a(h, &(object.len() as u64).to_le_bytes());
                fnv1a(h, &object)
            });
            (scheme.name(), report.chunks_total, report.files_tiny, report.put_requests, keys.len(), digest)
        })
        .collect();
    assert_eq!(got, PINNED.to_vec());
}

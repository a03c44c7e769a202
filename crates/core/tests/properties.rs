//! Property-based tests for the core engine and recipe format.

use proptest::prelude::*;

use aadedupe_cloud::CloudSim;
use aadedupe_core::recipe::{ChunkRef, FileRecipe, Manifest};
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aadedupe_filetype::{AppType, MemoryFile, SourceFile};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    let chunk = (any::<u8>(), 0u32..1_000_000, any::<u64>(), any::<u32>(), 0usize..3).prop_map(
        |(seed, len, container, offset, algo)| {
            let algo = [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1][algo];
            ChunkRef {
                fingerprint: Fingerprint::compute(algo, &[seed]),
                len,
                container,
                offset,
            }
        },
    );
    let file = ("[a-zA-Z0-9/_.]{1,40}", 0usize..13, any::<bool>(), proptest::collection::vec(chunk, 0..10))
        .prop_map(|(path, app_i, tiny, chunks)| FileRecipe {
            path,
            app: AppType::ALL[app_i],
            tiny,
            chunks,
        });
    (any::<u64>(), proptest::collection::vec(file, 0..12))
        .prop_map(|(session, files)| Manifest { session, files })
}

proptest! {
    /// Manifest encode/decode is the identity.
    #[test]
    fn manifest_round_trip(m in arb_manifest()) {
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, m);
    }

    /// The manifest decoder is total on garbage.
    #[test]
    fn manifest_decoder_total(garbage in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Manifest::decode(&garbage);
    }

    /// Engine identity: restore(backup(files)) == files for arbitrary
    /// small file sets across mixed app types, tiny and empty files
    /// included, under serial and parallel chunk workers.
    #[test]
    fn engine_round_trip(
        contents in proptest::collection::vec(
            ("[a-z]{1,6}", 0usize..6, proptest::collection::vec(any::<u8>(), 0..30_000)),
            1..6
        ),
        workers in 1usize..4,
    ) {
        let exts = ["txt", "doc", "pdf", "mp3", "vmdk", "avi"];
        let mut files: Vec<MemoryFile> = std::iter::zip(0.., contents)
            .map(|(i, (stem, e, data))| MemoryFile::new(format!("u/{stem}{i}.{}", exts[e]), data))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files.dedup_by(|a, b| a.path == b.path);

        let config = AaDedupeConfig {
            pipeline: PipelineConfig::with_workers(workers),
            ..AaDedupeConfig::default()
        };
        let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        let report = engine.backup_session(&sources).expect("backup");
        prop_assert_eq!(report.files_total as usize, files.len());

        let restored = engine.restore_session(0).expect("restore");
        prop_assert_eq!(restored.len(), files.len());
        for (orig, rest) in files.iter().zip(&restored) {
            prop_assert_eq!(&orig.path, &rest.path);
            prop_assert_eq!(&orig.data, &rest.data);
        }
    }

    /// Report invariants hold for arbitrary inputs: stored ≤ logical,
    /// duplicates ≤ total chunks, DR ≥ 1.
    #[test]
    fn report_invariants(
        contents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..20_000), 1..5
        ),
    ) {
        let files: Vec<MemoryFile> = std::iter::zip(0.., contents)
            .map(|(i, data)| MemoryFile::new(format!("f{i}.doc"), data))
            .collect();
        let mut engine = AaDedupe::new(CloudSim::with_paper_defaults());
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        let r = engine.backup_session(&sources).expect("backup");
        prop_assert!(r.stored_bytes <= r.logical_bytes);
        prop_assert!(r.chunks_duplicate <= r.chunks_total);
        prop_assert!(r.dr() >= 1.0);
        prop_assert!(r.transferred_bytes >= r.stored_bytes || r.stored_bytes == 0);
    }

    /// Sessions are independent of file iteration order for dedup totals
    /// (stored bytes), because the index is content-addressed.
    #[test]
    fn stored_bytes_order_independent(
        contents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 12_000..20_000), 2..5
        ),
    ) {
        let files: Vec<MemoryFile> = std::iter::zip(0.., contents)
            .map(|(i, data)| MemoryFile::new(format!("f{i}.pdf"), data))
            .collect();
        let run = |order: Vec<&MemoryFile>| {
            let mut engine = AaDedupe::new(CloudSim::with_paper_defaults());
            let sources: Vec<&dyn SourceFile> =
                order.iter().map(|f| *f as &dyn SourceFile).collect();
            engine.backup_session(&sources).expect("backup").stored_bytes
        };
        let forward = run(files.iter().collect());
        let backward = run(files.iter().rev().collect());
        prop_assert_eq!(forward, backward);
    }
}

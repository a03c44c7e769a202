//! Property-based integration tests (proptest) over the public API.

use proptest::prelude::*;

use aa_dedupe::baselines::all_schemes;
use aa_dedupe::chunking::{spans_cover, CdcChunker, Chunker, ScChunker, WfcChunker};
use aa_dedupe::cloud::CloudSim;
use aa_dedupe::filetype::{MemoryFile, SourceFile};
use aa_dedupe::hashing::{Fingerprint, HashAlgorithm};

/// Strategy: a small file with a path whose extension picks an app type,
/// and content with some internal repetition (so dedup paths are hit).
fn arb_file() -> impl Strategy<Value = MemoryFile> {
    let ext = prop_oneof![
        Just("txt"),
        Just("doc"),
        Just("pdf"),
        Just("mp3"),
        Just("vmdk"),
        Just("zzz"),
    ];
    (
        "[a-z]{1,8}",
        ext,
        proptest::collection::vec(any::<u8>(), 0..4096),
        1u8..6,
    )
        .prop_map(|(stem, ext, unit, reps)| {
            let mut data = Vec::with_capacity(unit.len() * reps as usize);
            for _ in 0..reps {
                data.extend_from_slice(&unit);
            }
            MemoryFile::new(format!("user/{stem}.{ext}"), data)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// restore(backup(x)) == x, for every scheme, on arbitrary file sets.
    #[test]
    fn backup_restore_identity_all_schemes(
        files in proptest::collection::vec(arb_file(), 1..8),
        scheme_index in 0usize..5,
    ) {
        // Paths must be unique or the manifest legitimately keeps both.
        let mut files = files;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files.dedup_by(|a, b| a.path == b.path);

        let cloud = CloudSim::with_paper_defaults();
        let mut scheme = all_schemes(&cloud).remove(scheme_index);
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        scheme.backup_session(&sources).expect("backup");
        let restored = scheme.restore_session(0).expect("restore");
        prop_assert_eq!(restored.len(), files.len());
        for (orig, rest) in files.iter().zip(&restored) {
            prop_assert_eq!(&orig.path, &rest.path);
            prop_assert_eq!(&orig.data, &rest.data);
        }
    }

    /// Two sessions of the same data never store new bytes the second time
    /// for dedup schemes (index 1..=4: BackupPC, Avamar, SAM, AA-Dedupe —
    /// except AA-Dedupe's unindexed tiny files, excluded by sizing).
    #[test]
    fn second_session_stores_nothing_new(
        files in proptest::collection::vec(arb_file(), 1..6),
        scheme_index in 1usize..5,
    ) {
        let mut files = files;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files.dedup_by(|a, b| a.path == b.path);
        // Pad every file above the 10 KiB tiny threshold.
        for f in &mut files {
            while f.data.len() < 11 * 1024 {
                let extension: Vec<u8> = f.data.iter().copied().chain([7u8]).collect();
                f.data.extend_from_slice(&extension);
            }
            *f = MemoryFile::new(f.path.clone(), f.data.clone());
        }
        let cloud = CloudSim::with_paper_defaults();
        let mut scheme = all_schemes(&cloud).remove(scheme_index);
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        scheme.backup_session(&sources).expect("s0");
        let r1 = scheme.backup_session(&sources).expect("s1");
        prop_assert_eq!(r1.stored_bytes, 0, "scheme {}", scheme.name());
    }

    /// All three chunkers exactly tile arbitrary inputs.
    #[test]
    fn chunkers_tile_arbitrary_input(data in proptest::collection::vec(any::<u8>(), 0..100_000)) {
        let chunkers: [&dyn Chunker; 3] = [
            &WfcChunker::new(),
            &ScChunker::new(8 * 1024),
            &CdcChunker::default(),
        ];
        for c in chunkers {
            let spans = c.chunk(&data);
            prop_assert!(spans_cover(&data, &spans), "{:?}", c.method());
        }
    }

    /// CDC respects min/max bounds on arbitrary input (final chunk exempt
    /// from the minimum).
    #[test]
    fn cdc_bounds_hold(data in proptest::collection::vec(any::<u8>(), 0..200_000)) {
        let cdc = CdcChunker::default();
        let spans = cdc.chunk(&data);
        for (i, s) in spans.iter().enumerate() {
            prop_assert!(s.len <= cdc.params().max_size);
            if i + 1 < spans.len() {
                prop_assert!(s.len >= cdc.params().min_size);
            }
        }
    }

    /// Fingerprints are deterministic and algorithm-tagged.
    #[test]
    fn fingerprint_determinism(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for algo in [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            let a = Fingerprint::compute(algo, &data);
            let b = Fingerprint::compute(algo, &data);
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.algorithm(), algo);
            prop_assert_eq!(a.digest().len(), algo.digest_len());
            // Encode/decode round-trips.
            let mut buf = Vec::new();
            a.encode(&mut buf);
            let (decoded, used) = Fingerprint::decode(&buf).expect("decodes");
            prop_assert_eq!(decoded, a);
            prop_assert_eq!(used, buf.len());
        }
    }

    /// A single byte flip anywhere changes every digest.
    #[test]
    fn fingerprints_detect_single_bit_damage(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        idx in 0usize..2048,
        bit in 0u8..8,
    ) {
        let idx = idx % data.len();
        let mut mutated = data.clone();
        mutated[idx] ^= 1 << bit;
        for algo in [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            prop_assert_ne!(
                Fingerprint::compute(algo, &data),
                Fingerprint::compute(algo, &mutated),
                "{:?} missed a bit flip at {}:{}", algo, idx, bit
            );
        }
    }
}

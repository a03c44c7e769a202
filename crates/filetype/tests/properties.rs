//! Property-based tests for classification and policy.

use proptest::prelude::*;
use std::path::PathBuf;

use aadedupe_chunking::ChunkingMethod;
use aadedupe_filetype::{classify, classify_extension, AppType, Category, DedupPolicy};
use aadedupe_hashing::HashAlgorithm;

proptest! {
    /// Classification is case-insensitive on extensions.
    #[test]
    fn classification_case_insensitive(stem in "[a-z]{1,10}", ext in "[a-zA-Z]{1,5}") {
        let lower = classify(&PathBuf::from(format!("{stem}.{}", ext.to_lowercase())));
        let upper = classify(&PathBuf::from(format!("{stem}.{}", ext.to_uppercase())));
        prop_assert_eq!(lower, upper);
    }

    /// Every canonical extension maps back to its own type.
    #[test]
    fn canonical_extensions_round_trip(_x in any::<u8>()) {
        for app in AppType::TABLE1 {
            prop_assert_eq!(classify_extension(app.extension()), app, "{}", app);
        }
    }

    /// Policy totality: every (policy, app) pair yields a coherent
    /// (chunking, hash) combination — WFC implies a whole-file-grade hash
    /// under the AA policy, CDC always gets SHA-1.
    #[test]
    fn aa_policy_coherence(app_i in 0usize..13) {
        let app = AppType::ALL[app_i];
        let (method, hash) = DedupPolicy::aa_dedupe().for_app(app);
        match app.category() {
            Category::Compressed => {
                prop_assert_eq!(method, ChunkingMethod::Wfc);
                prop_assert_eq!(hash, HashAlgorithm::Rabin96);
            }
            Category::StaticUncompressed => {
                prop_assert_eq!(method, ChunkingMethod::Sc);
                prop_assert_eq!(hash, HashAlgorithm::Md5);
            }
            Category::DynamicUncompressed => {
                prop_assert_eq!(method, ChunkingMethod::Cdc);
                prop_assert_eq!(hash, HashAlgorithm::Sha1);
            }
        }
    }
}

//! The category → (chunking method, hash function) policy table.
//!
//! This is the paper's Fig. 6 in code form:
//!
//! | Category              | Chunking | Fingerprint      |
//! |-----------------------|----------|------------------|
//! | compressed            | WFC      | 12 B Rabin       |
//! | static uncompressed   | SC 8 KiB | 16 B MD5         |
//! | dynamic uncompressed  | CDC      | 20 B SHA-1       |
//!
//! Baseline schemes construct different policies (e.g. Avamar uses
//! CDC + SHA-1 for *everything*), so the policy is a value, not a constant.

use crate::{AppType, Category};
use aadedupe_chunking::ChunkingMethod;
use aadedupe_hashing::HashAlgorithm;

/// A dedup policy: which chunking method and which fingerprint algorithm to
/// apply to each category of file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupPolicy {
    compressed: (ChunkingMethod, HashAlgorithm),
    static_uncompressed: (ChunkingMethod, HashAlgorithm),
    dynamic_uncompressed: (ChunkingMethod, HashAlgorithm),
}

impl DedupPolicy {
    /// The AA-Dedupe policy of the paper's Fig. 6.
    pub const fn aa_dedupe() -> Self {
        DedupPolicy {
            compressed: (ChunkingMethod::Wfc, HashAlgorithm::Rabin96),
            static_uncompressed: (ChunkingMethod::Sc, HashAlgorithm::Md5),
            dynamic_uncompressed: (ChunkingMethod::Cdc, HashAlgorithm::Sha1),
        }
    }

    /// A uniform policy: the same method/hash for every category (how the
    /// monolithic baselines like Avamar behave).
    pub const fn uniform(method: ChunkingMethod, hash: HashAlgorithm) -> Self {
        DedupPolicy {
            compressed: (method, hash),
            static_uncompressed: (method, hash),
            dynamic_uncompressed: (method, hash),
        }
    }

    /// AA-Dedupe's chunking dispatch but a uniform strong hash — the
    /// `paper ablation-hash` configuration isolating the weak-hash
    /// contribution.
    pub const fn aa_chunking_strong_hash() -> Self {
        DedupPolicy {
            compressed: (ChunkingMethod::Wfc, HashAlgorithm::Sha1),
            static_uncompressed: (ChunkingMethod::Sc, HashAlgorithm::Sha1),
            dynamic_uncompressed: (ChunkingMethod::Cdc, HashAlgorithm::Sha1),
        }
    }

    /// The (method, hash) pair for a category.
    pub const fn for_category(&self, cat: Category) -> (ChunkingMethod, HashAlgorithm) {
        match cat {
            Category::Compressed => self.compressed,
            Category::StaticUncompressed => self.static_uncompressed,
            Category::DynamicUncompressed => self.dynamic_uncompressed,
        }
    }

    /// The (method, hash) pair for a concrete application type.
    pub const fn for_app(&self, app: AppType) -> (ChunkingMethod, HashAlgorithm) {
        self.for_category(app.category())
    }
}

impl Default for DedupPolicy {
    fn default() -> Self {
        Self::aa_dedupe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aa_dedupe_policy_matches_fig6() {
        let p = DedupPolicy::aa_dedupe();
        assert_eq!(
            p.for_app(AppType::Mp3),
            (ChunkingMethod::Wfc, HashAlgorithm::Rabin96)
        );
        assert_eq!(
            p.for_app(AppType::Vmdk),
            (ChunkingMethod::Sc, HashAlgorithm::Md5)
        );
        assert_eq!(
            p.for_app(AppType::Doc),
            (ChunkingMethod::Cdc, HashAlgorithm::Sha1)
        );
        assert_eq!(
            p.for_app(AppType::Other),
            (ChunkingMethod::Cdc, HashAlgorithm::Sha1)
        );
    }

    #[test]
    fn uniform_policy() {
        let p = DedupPolicy::uniform(ChunkingMethod::Cdc, HashAlgorithm::Sha1);
        for cat in Category::ALL {
            assert_eq!(p.for_category(cat), (ChunkingMethod::Cdc, HashAlgorithm::Sha1));
        }
    }

    #[test]
    fn ablation_policy_keeps_chunking() {
        let p = DedupPolicy::aa_chunking_strong_hash();
        assert_eq!(p.for_category(Category::Compressed).0, ChunkingMethod::Wfc);
        assert_eq!(p.for_category(Category::Compressed).1, HashAlgorithm::Sha1);
        assert_eq!(p.for_category(Category::StaticUncompressed).0, ChunkingMethod::Sc);
    }

    #[test]
    fn default_is_aa_dedupe() {
        assert_eq!(DedupPolicy::default(), DedupPolicy::aa_dedupe());
    }
}

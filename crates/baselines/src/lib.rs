#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Baseline cloud backup schemes (paper §IV.A, §V).
//!
//! Clean-room reimplementations of the *strategies* the paper compares
//! AA-Dedupe against, built over the same substrates (chunking, hashing,
//! index, containers, cloud) so that every measured difference is due to
//! the strategy, exactly as in the paper's evaluation:
//!
//! * [`JungleDisk`] — file-*incremental* backup: no deduplication; files
//!   whose change token moved since the previous session are re-uploaded
//!   whole, one request per file.
//! * [`BackupPc`] — source *file-level* deduplication: every file is
//!   SHA-1-fingerprinted whole; only unseen files are uploaded (whole, one
//!   request per file).
//! * [`Avamar`] — source *chunk-level* deduplication: every file (any
//!   type) is CDC-chunked and SHA-1-fingerprinted against one monolithic
//!   chunk index; unique chunks are uploaded individually. Maximum space
//!   savings, maximum CPU/index/request overhead.
//! * [`Sam`] — the *hybrid* semantic-aware scheme: whole-file dedup for
//!   compressed files and tiny files, CDC chunk-level dedup for the rest,
//!   over global (monolithic) indexes; unique units uploaded individually.
//!
//! All four implement [`BackupScheme`], so the
//! harness sweeps them interchangeably with AA-Dedupe, and all four commit
//! through AA-Dedupe's own `upload_session` — with no retries and no
//! recorder: the baselines model no retry.

pub mod avamar;
pub mod backuppc;
mod common;
pub mod jungledisk;
pub mod sam;

pub use avamar::Avamar;
pub use backuppc::BackupPc;
pub use jungledisk::JungleDisk;
pub use sam::Sam;

use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme};

/// Instantiates all five schemes of the paper's evaluation over fresh
/// engines sharing nothing, each with its own namespace in `cloud`.
pub fn all_schemes(cloud: &CloudSim) -> Vec<Box<dyn BackupScheme>> {
    all_schemes_with_ram(cloud, avamar::DEFAULT_RAM_ENTRIES)
}

/// Like [`all_schemes`] but under an explicit modelled RAM budget
/// (`ram_entries` cacheable index entries per client).
///
/// The budget is applied per *client*, matching how the paper's clients
/// compete: the monolithic schemes hold one index of that size; AA-Dedupe
/// gives the budget to each partition because only one application stream
/// is hot at a time (files are processed app-by-app, so at any moment a
/// single partition occupies the client's index RAM) -- this is exactly
/// the "small independent indices" effect of paper SIII.E.
pub fn all_schemes_with_ram(cloud: &CloudSim, ram_entries: usize) -> Vec<Box<dyn BackupScheme>> {
    let aa_config = AaDedupeConfig {
        ram_entries_per_partition: ram_entries,
        ..AaDedupeConfig::default()
    };
    vec![
        Box::new(JungleDisk::new(cloud.clone())),
        Box::new(BackupPc::with_ram(cloud.clone(), ram_entries)),
        Box::new(Avamar::with_ram(cloud.clone(), ram_entries)),
        Box::new(Sam::with_ram(cloud.clone(), ram_entries)),
        Box::new(AaDedupe::with_config(cloud.clone(), aa_config)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_schemes_with_distinct_names() {
        let cloud = CloudSim::with_paper_defaults();
        let schemes = all_schemes(&cloud);
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["Jungle Disk", "BackupPC", "Avamar", "SAM", "AA-Dedupe"]
        );
    }
}

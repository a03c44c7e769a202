#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Baseline cloud backup schemes (paper §IV.A, §V).
//!
//! Clean-room reimplementations of the *strategies* the paper compares
//! AA-Dedupe against, built over the same substrates (chunking, hashing,
//! index, containers, cloud) so that every measured difference is due to
//! the strategy, exactly as in the paper's evaluation. One client,
//! [`Baseline`], runs all four; its [`Strategy`] decides only how a file
//! becomes its recipe:
//!
//! * [`Strategy::JungleDisk`] — file-*incremental* backup, no dedup;
//! * [`Strategy::BackupPc`] — source *file-level* dedup;
//! * [`Strategy::Avamar`] — source *chunk-level* (CDC) dedup;
//! * [`Strategy::Sam`] — the *hybrid* semantic-aware scheme.
//!
//! Every unit (a whole file or one chunk) is stored as its own cloud
//! object. The client implements [`BackupScheme`], so the harness sweeps
//! it interchangeably with AA-Dedupe, and commits through AA-Dedupe's own
//! `upload_session` — with no retries and no recorder: the baselines model
//! no retry.

mod common;

use std::collections::HashMap;
use std::time::Instant;

use aadedupe_chunking::{CdcChunker, Chunker};
use aadedupe_cloud::CloudSim;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{ChunkRef, FileRecipe, Manifest};
use aadedupe_core::restore::{restore_session, RestoredFile};
use aadedupe_core::retry::{upload_session, Transfer};
use aadedupe_core::timing::DedupClock;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupError, BackupScheme, RetryPolicy};
use aadedupe_filetype::{Category, SourceFile};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::MonolithicIndex;
use aadedupe_metrics::SessionReport;
use aadedupe_obs::Recorder;

use crate::common::{dedup_unit, PER_UNIT};

/// Default modelled RAM budget for baseline indexes, in entries. Matches
/// the total budget AA-Dedupe's 13 partitions get by default in the
/// evaluation configuration (see the harness), so comparisons are
/// RAM-fair.
pub const DEFAULT_RAM_ENTRIES: usize = 13 * 4096;

/// Files below this size are *tiny* to SAM: deduplicated whole and flagged
/// in their recipe.
const TINY_FILE: u64 = 10 * 1024;

/// The backup strategy a [`Baseline`] client follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Jungle Disk: file-incremental cloud backup, no deduplication.
    ///
    /// The paper's representative of plain incremental backup \[25\]: the
    /// client reads and MD5s every file and compares the digest's 64-bit
    /// prefix with the one it recorded for the same path in the previous
    /// session. A file whose prefix matches is carried forward by
    /// reference; a new or changed file is uploaded *whole*, one request
    /// per file, with no redundancy elimination of any kind — a renamed
    /// file or a second copy is uploaded again. Space efficiency is
    /// therefore the worst of the five schemes (Fig. 7) — a one-byte edit
    /// to a VM image re-ships the whole image — but CPU cost is minimal:
    /// one MD5 pass over the bytes read.
    JungleDisk,
    /// BackupPC: source file-level deduplication.
    ///
    /// The paper's representative of whole-file dedup \[26\]: every file is
    /// fingerprinted whole (SHA-1) and checked against a global file index;
    /// a hit means the file's bytes are already in the pool and only a
    /// reference is recorded, a miss uploads the file whole (one request
    /// per file). Metadata overhead is minimal and lookup cost low, at the
    /// price of missing all sub-file redundancy — a one-byte edit stores
    /// the file again in full.
    BackupPc,
    /// Avamar: source chunk-level (CDC) deduplication.
    ///
    /// The paper's representative of fine-grained source dedup \[24\]:
    /// *every* file — media, archives, VM images, documents, tiny files
    /// alike — is content-defined-chunked (8 KiB average) and
    /// SHA-1-fingerprinted against one monolithic chunk index; each unique
    /// chunk is uploaded as its own cloud object. This maximises detected
    /// redundancy (Fig. 7's best-case storage) but pays for it three times
    /// over, exactly as the paper reports: CDC boundary detection plus
    /// SHA-1 over all bytes (CPU), a full unclassified chunk index that
    /// outgrows RAM (modelled disk seeks), and a per-chunk request storm
    /// over the WAN (Fig. 10's request cost) — making its backup throughput
    /// the worst of the five schemes, "even worse than the full backup
    /// method".
    Avamar,
    /// SAM: hybrid semantic-aware source deduplication.
    ///
    /// The paper's closest prior work \[11\]: SAM combines file-level and
    /// chunk-level dedup using file semantics — whole-file fingerprints for
    /// data unlikely to carry sub-file redundancy (compressed files, and
    /// tiny files under 10 KiB), CDC chunk-level dedup for the rest — over
    /// *global* indexes, a file index and a chunk index that split the RAM
    /// budget ¼ / ¾. It thus saves most of Avamar's space at lower CPU
    /// cost, but unlike AA-Dedupe it (a) keeps SHA-1 everywhere instead of
    /// matching hash strength to granularity, (b) keeps unclassified
    /// indexes instead of per-application partitions, and (c) ships each
    /// unique unit as its own object instead of aggregating into
    /// containers — the three deltas the paper's Figs. 8–11 quantify.
    Sam,
}

impl Strategy {
    /// Scheme name as used in the paper's figures.
    const fn name(self) -> &'static str {
        match self {
            Strategy::JungleDisk => "Jungle Disk",
            Strategy::BackupPc => "BackupPC",
            Strategy::Avamar => "Avamar",
            Strategy::Sam => "SAM",
        }
    }

    /// The client's namespace in its cloud.
    const fn key(self) -> &'static str {
        match self {
            Strategy::JungleDisk => "jungledisk",
            Strategy::BackupPc => "backuppc",
            Strategy::Avamar => "avamar",
            Strategy::Sam => "sam",
        }
    }
}

/// A baseline backup client: one session loop, one [`Strategy`].
pub struct Baseline {
    strategy: Strategy,
    cloud: CloudSim,
    /// Stores every unit in a container of its own ([`PER_UNIT`]).
    containers: ContainerStore,
    /// Global whole-file index (BackupPC; SAM's compressed and tiny files).
    file_index: MonolithicIndex,
    /// Global chunk index (Avamar; SAM's other files).
    chunk_index: MonolithicIndex,
    cdc: CdcChunker,
    /// Jungle Disk's path → (digest prefix, stored copy), as of the last
    /// session.
    seen: HashMap<String, (u64, ChunkRef)>,
    sessions: usize,
}

impl Baseline {
    /// New client over `cloud` with the default RAM budget.
    pub fn new(strategy: Strategy, cloud: CloudSim) -> Self {
        Self::with_ram(strategy, cloud, DEFAULT_RAM_ENTRIES)
    }

    /// New client with an explicit index RAM budget (entries). SAM splits
    /// it ¼ / ¾ between its file and chunk indexes; BackupPC and Avamar
    /// give all of it to the one index they use; Jungle Disk uses neither.
    pub fn with_ram(strategy: Strategy, cloud: CloudSim, ram_entries: usize) -> Self {
        let (file_ram, chunk_ram) = match strategy {
            Strategy::Sam => (ram_entries / 4, ram_entries - ram_entries / 4),
            _ => (ram_entries, ram_entries),
        };
        Baseline {
            strategy,
            cloud,
            containers: ContainerStore::new(PER_UNIT),
            file_index: MonolithicIndex::new(file_ram),
            chunk_index: MonolithicIndex::new(chunk_ram),
            cdc: CdcChunker::default(),
            seen: HashMap::new(),
            sessions: 0,
        }
    }

    /// How one file becomes its recipe's chunk list — the one step in
    /// which the strategies differ. Whole files and Avamar's chunks go to
    /// container stream 0, SAM's chunks to stream 1.
    fn chunks(
        &mut self,
        file: &dyn SourceFile,
        data: &[u8],
        previous: &HashMap<String, (u64, ChunkRef)>,
        report: &mut SessionReport,
        clock: &mut DedupClock,
    ) -> Vec<ChunkRef> {
        match self.strategy {
            Strategy::JungleDisk => {
                let fingerprint = Fingerprint::compute(HashAlgorithm::Md5, data);
                let token = fingerprint.prefix64();
                let reference = match previous.get(file.path()) {
                    Some(&(old_token, reference)) if old_token == token => reference,
                    _ => {
                        let placement = self.containers.add_chunk(0, fingerprint, data);
                        report.stored_bytes += data.len() as u64;
                        ChunkRef {
                            fingerprint,
                            len: data.len() as u32,
                            container: placement.container,
                            offset: placement.offset,
                        }
                    }
                };
                report.chunks_total += 1;
                self.seen.insert(file.path().to_string(), (token, reference));
                vec![reference]
            }
            Strategy::BackupPc => {
                vec![dedup_unit(&self.file_index, &mut self.containers, 0, data, report, clock)]
            }
            Strategy::Sam
                if file.app_type().category() == Category::Compressed
                    || file.size() < TINY_FILE =>
            {
                vec![dedup_unit(&self.file_index, &mut self.containers, 0, data, report, clock)]
            }
            Strategy::Avamar | Strategy::Sam => {
                let stream = u32::from(self.strategy == Strategy::Sam);
                let spans = self.cdc.chunk(data);
                spans
                    .iter()
                    .map(|span| {
                        let chunk = span.slice(data);
                        dedup_unit(&self.chunk_index, &mut self.containers, stream, chunk, report, clock)
                    })
                    .collect()
            }
        }
    }
}

impl BackupScheme for Baseline {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError> {
        let mut report = SessionReport::new(self.name(), self.sessions);
        let mut clock = DedupClock::new();
        let mut manifest = Manifest::new(self.sessions as u64);
        // Jungle Disk compares against the last session and records this
        // one afresh: a path absent from this session is forgotten.
        let previous = std::mem::take(&mut self.seen);

        for file in files {
            report.files_total += 1;
            report.logical_bytes += file.size();
            let tiny = self.strategy == Strategy::Sam && file.size() < TINY_FILE;
            if tiny {
                report.files_tiny += 1;
            }
            let data = file.read();
            let start = Instant::now();
            let chunks = self.chunks(*file, &data, &previous, &mut report, &mut clock);
            clock.add_cpu(start.elapsed());
            manifest.files.push(FileRecipe {
                path: file.path().to_string(),
                app: file.app_type(),
                tiny,
                chunks,
            });
        }

        // Every byte of the dataset is read once from the source disk.
        clock.charge_source_read(report.logical_bytes);
        let unobserved = Recorder::disabled();
        let transfer = Transfer::new(&self.cloud, RetryPolicy::no_retries(), &unobserved);
        upload_session(&transfer, &mut self.containers, self.strategy.key(), &manifest, &mut report)?;
        report.dedup_cpu = clock.total();
        self.sessions += 1;
        Ok(report)
    }

    fn restore_session(&self, session: usize) -> Result<Vec<RestoredFile>, BackupError> {
        restore_session(&self.cloud, self.strategy.key(), session as u64)
    }

    fn sessions_completed(&self) -> usize {
        self.sessions
    }
}

/// Instantiates all five schemes of the paper's evaluation over fresh
/// engines sharing nothing, each with its own namespace in `cloud`.
pub fn all_schemes(cloud: &CloudSim) -> Vec<Box<dyn BackupScheme>> {
    all_schemes_with_ram(cloud, DEFAULT_RAM_ENTRIES)
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
        Box::new(Baseline::with_ram(Strategy::JungleDisk, cloud.clone(), ram_entries)),
        Box::new(Baseline::with_ram(Strategy::BackupPc, cloud.clone(), ram_entries)),
        Box::new(Baseline::with_ram(Strategy::Avamar, cloud.clone(), ram_entries)),
        Box::new(Baseline::with_ram(Strategy::Sam, cloud.clone(), ram_entries)),
        Box::new(AaDedupe::with_config(cloud.clone(), aa_config)),
    ]
}

// Each strategy's contracts, one test module per strategy.
#[cfg(test)]
mod avamar;
#[cfg(test)]
mod backuppc;
#[cfg(test)]
mod jungledisk;
#[cfg(test)]
mod sam;

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

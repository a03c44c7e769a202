//! SAM: hybrid semantic-aware source deduplication.
//!
//! The paper's closest prior work \[11\]: SAM combines file-level and
//! chunk-level dedup using file semantics — whole-file fingerprints for
//! data unlikely to carry sub-file redundancy (compressed files, tiny
//! files), CDC chunk-level dedup for the rest — over *global* indexes.
//! It thus saves most of Avamar's space at lower CPU cost, but unlike
//! AA-Dedupe it (a) keeps SHA-1 everywhere instead of matching hash
//! strength to granularity, (b) keeps one unclassified index instead of
//! per-application partitions, and (c) ships each unique unit as its own
//! object instead of aggregating into containers — the three deltas the
//! paper's Figs. 8–11 quantify.

use std::time::Instant;

use aadedupe_chunking::{CdcChunker, Chunker};
use aadedupe_cloud::CloudSim;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{FileRecipe, Manifest};
use aadedupe_core::restore::{restore_session, RestoredFile};
use aadedupe_core::timing::DedupClock;
use aadedupe_core::retry::{upload_session, Transfer};
use aadedupe_core::{BackupError, BackupScheme, RetryPolicy};
use aadedupe_filetype::{Category, SourceFile};
use aadedupe_index::MonolithicIndex;
use aadedupe_metrics::SessionReport;
use aadedupe_obs::Recorder;

use crate::common::{dedup_unit, PER_UNIT};

const SCHEME_KEY: &str = "sam";

/// Hybrid file/chunk-level dedup client.
pub struct Sam {
    cloud: CloudSim,
    containers: ContainerStore,
    /// Global whole-file index (compressed + tiny files).
    file_index: MonolithicIndex,
    /// Global chunk index (everything else).
    chunk_index: MonolithicIndex,
    cdc: CdcChunker,
    sessions: usize,
}

impl Sam {
    /// New client over `cloud` with the default RAM budget.
    pub fn new(cloud: CloudSim) -> Self {
        Self::with_ram(cloud, crate::avamar::DEFAULT_RAM_ENTRIES)
    }

    /// New client; the RAM budget is split between the two global indexes.
    pub fn with_ram(cloud: CloudSim, ram_entries: usize) -> Self {
        Sam {
            cloud,
            containers: ContainerStore::new(PER_UNIT),
            file_index: MonolithicIndex::new(ram_entries / 4),
            chunk_index: MonolithicIndex::new(ram_entries - ram_entries / 4),
            cdc: CdcChunker::default(),
            sessions: 0,
        }
    }

    /// Whether SAM handles a file at whole-file granularity.
    fn file_level(file: &dyn SourceFile) -> bool {
        file.app_type().category() == Category::Compressed || file.size() < 10 * 1024
    }
}

impl BackupScheme for Sam {
    fn name(&self) -> &'static str {
        "SAM"
    }

    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError> {
        let mut report = SessionReport::new(self.name(), self.sessions);
        let mut clock = DedupClock::new();
        let mut manifest = Manifest::new(self.sessions as u64);

        for file in files {
            report.files_total += 1;
            report.logical_bytes += file.size();
            let data = file.read();
            let file_level = Self::file_level(*file);
            if file.size() < 10 * 1024 {
                report.files_tiny += 1;
            }
            let start = Instant::now();
            let mut chunks = Vec::new();
            if file_level {
                chunks.push(dedup_unit(
                    &self.file_index,
                    &mut self.containers,
                    0,
                    &data,
                    &mut report,
                    &mut clock,
                ));
            } else {
                for span in self.cdc.chunk(&data) {
                    chunks.push(dedup_unit(
                        &self.chunk_index,
                        &mut self.containers,
                        1,
                        span.slice(&data),
                        &mut report,
                        &mut clock,
                    ));
                }
            }
            clock.add_cpu(start.elapsed());
            manifest.files.push(FileRecipe {
                path: file.path().to_string(),
                app: file.app_type(),
                tiny: file.size() < 10 * 1024,
                chunks,
            });
        }

        // Every byte of the dataset is read once from the source disk.
        clock.charge_source_read(report.logical_bytes);
        let unobserved = Recorder::disabled();
        let transfer = Transfer::new(&self.cloud, RetryPolicy::no_retries(), &unobserved);
        upload_session(&transfer, &mut self.containers, SCHEME_KEY, &manifest, &mut report)?;
        report.dedup_cpu = clock.total();
        self.sessions += 1;
        Ok(report)
    }

    fn restore_session(&self, session: usize) -> Result<Vec<RestoredFile>, BackupError> {
        restore_session(&self.cloud, SCHEME_KEY, session as u64)
    }

    fn sessions_completed(&self) -> usize {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_filetype::MemoryFile;

    fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
        files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    #[test]
    fn media_is_whole_file_documents_are_chunked() {
        let mut sam = Sam::new(CloudSim::with_paper_defaults());
        let files = vec![
            MemoryFile::new("song.mp3", vec![1u8; 100_000]),
            MemoryFile::new("paper.txt", b"text ".repeat(20_000)),
        ];
        let s0 = sam.backup_session(&sources(&files)).unwrap();
        // MP3 contributes exactly one "chunk"; TXT contributes many.
        assert!(s0.chunks_total > 5);
        let restored = sam.restore_session(0).unwrap();
        assert_eq!(restored[0].data, files[0].data);
        assert_eq!(restored[1].data, files[1].data);
    }

    #[test]
    fn tiny_files_dedupe_at_file_level() {
        let mut sam = Sam::new(CloudSim::with_paper_defaults());
        let files = vec![
            MemoryFile::new("a/cfg.txt", b"config".to_vec()),
            MemoryFile::new("b/cfg.txt", b"config".to_vec()),
        ];
        let s0 = sam.backup_session(&sources(&files)).unwrap();
        assert_eq!(s0.files_tiny, 2);
        assert_eq!(s0.chunks_duplicate, 1, "identical tiny files dedupe");
        assert_eq!(s0.stored_bytes, 6);
    }

    #[test]
    fn sub_file_redundancy_found_for_documents() {
        let mut sam = Sam::new(CloudSim::with_paper_defaults());
        let base: Vec<u8> = (0..150_000u32).map(|i| (i.wrapping_mul(48271) >> 9) as u8).collect();
        sam.backup_session(&sources(&[MemoryFile::new("d.doc", base.clone())])).unwrap();
        let mut edited = base.clone();
        edited.insert(100, 7);
        let s1 = sam
            .backup_session(&sources(&[MemoryFile::new("d.doc", edited)]))
            .unwrap();
        assert!(s1.stored_bytes < base.len() as u64 / 4);
    }

    #[test]
    fn compressed_edit_stores_whole_file_again() {
        let mut sam = Sam::new(CloudSim::with_paper_defaults());
        let base = vec![3u8; 80_000];
        sam.backup_session(&sources(&[MemoryFile::new("m.avi", base.clone())])).unwrap();
        let mut edited = base.clone();
        edited[40_000] ^= 1;
        let s1 = sam
            .backup_session(&sources(&[MemoryFile::new("m.avi", edited)]))
            .unwrap();
        assert_eq!(s1.stored_bytes, 80_000, "whole-file granularity for media");
    }
}

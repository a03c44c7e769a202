//! Avamar: source chunk-level (CDC) deduplication.
//!
//! The paper's representative of fine-grained source dedup \[24\]: *every*
//! file — media, archives, VM images, documents, tiny files alike — is
//! content-defined-chunked (8 KiB average) and SHA-1-fingerprinted against
//! one monolithic chunk index; each unique chunk is uploaded as its own
//! cloud object. This maximises detected redundancy (Fig. 7's best-case
//! storage) but pays for it three times over, exactly as the paper
//! reports: CDC boundary detection plus SHA-1 over all bytes (CPU), a full
//! unclassified chunk index that outgrows RAM (modelled disk seeks), and a
//! per-chunk request storm over the WAN (Fig. 10's request cost) — making
//! its backup throughput the worst of the five schemes, "even worse than
//! the full backup method".

use std::time::Instant;

use aadedupe_chunking::{CdcChunker, Chunker};
use aadedupe_cloud::CloudSim;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{FileRecipe, Manifest};
use aadedupe_core::restore::{restore_session, RestoredFile};
use aadedupe_core::timing::DedupClock;
use aadedupe_core::{BackupError, BackupScheme};
use aadedupe_filetype::SourceFile;
use aadedupe_index::MonolithicIndex;
use aadedupe_metrics::SessionReport;

use crate::common::{dedup_unit, ship_session, PER_UNIT};

const SCHEME_KEY: &str = "avamar";

/// Default modelled RAM budget for baseline indexes, in entries. Matches
/// the total budget AA-Dedupe's 13 partitions get by default in the
/// evaluation configuration (see the harness), so comparisons are
/// RAM-fair.
pub const DEFAULT_RAM_ENTRIES: usize = 13 * 4096;

/// Chunk-level CDC dedup client.
pub struct Avamar {
    cloud: CloudSim,
    containers: ContainerStore,
    index: MonolithicIndex,
    cdc: CdcChunker,
    sessions: usize,
}

impl Avamar {
    /// New client over `cloud` with the default RAM budget.
    pub fn new(cloud: CloudSim) -> Self {
        Self::with_ram(cloud, DEFAULT_RAM_ENTRIES)
    }

    /// New client with an explicit index RAM budget (entries).
    pub fn with_ram(cloud: CloudSim, ram_entries: usize) -> Self {
        Avamar {
            cloud,
            containers: ContainerStore::new(PER_UNIT),
            index: MonolithicIndex::new(ram_entries),
            cdc: CdcChunker::default(),
            sessions: 0,
        }
    }
}

impl BackupScheme for Avamar {
    fn name(&self) -> &'static str {
        "Avamar"
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
            let start = Instant::now();
            let spans = self.cdc.chunk(&data);
            let mut chunks = Vec::with_capacity(spans.len());
            for span in &spans {
                chunks.push(dedup_unit(
                    &self.index,
                    &mut self.containers,
                    0,
                    span.slice(&data),
                    &mut report,
                    &mut clock,
                ));
            }
            clock.add_cpu(start.elapsed());
            manifest.files.push(FileRecipe {
                path: file.path().to_string(),
                app: file.app_type(),
                tiny: false,
                chunks,
            });
        }

        // Every byte of the dataset is read once from the source disk.
        clock.charge_source_read(report.logical_bytes);
        ship_session(&self.cloud, &mut self.containers, SCHEME_KEY, &manifest, &mut report)?;
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
    fn finds_sub_file_redundancy_where_backuppc_cannot() {
        let mut av = Avamar::new(CloudSim::with_paper_defaults());
        let base: Vec<u8> = (0..200_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        av.backup_session(&sources(&[MemoryFile::new("f.txt", base.clone())])).unwrap();
        // Insert a byte at the front: CDC re-aligns, most chunks dedupe.
        let mut edited = base.clone();
        edited.insert(0, 0x42);
        let s1 = av
            .backup_session(&sources(&[MemoryFile::new("f.txt", edited.clone())]))
            .unwrap();
        assert!(
            s1.stored_bytes < base.len() as u64 / 4,
            "CDC should store a small delta, stored {}",
            s1.stored_bytes
        );
        assert_eq!(av.restore_session(1).unwrap()[0].data, edited);
    }

    #[test]
    fn one_request_per_unique_chunk() {
        let mut av = Avamar::new(CloudSim::with_paper_defaults());
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 37 % 251) as u8).collect();
        let s0 = av.backup_session(&sources(&[MemoryFile::new("a.bin", data)])).unwrap();
        // chunks + 1 manifest.
        assert_eq!(s0.put_requests, s0.chunks_total - s0.chunks_duplicate + 1);
        assert!(s0.put_requests > 5, "fine-grained chunking, many requests");
    }

    #[test]
    fn large_dataset_overflows_ram_index() {
        let mut av = Avamar::with_ram(CloudSim::with_paper_defaults(), 8);
        // Non-periodic stream (a multiplicative byte sequence repeats every
        // 32 KiB, which would dedupe into fewer unique chunks than the
        // cache holds); xorshift has no such short period.
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..400_000)
            .map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x >> 32) as u8 })
            .collect();
        let s0 = av.backup_session(&sources(&[MemoryFile::new("big.bin", data)])).unwrap();
        assert!(s0.index_disk_reads > 0, "tiny cache must spill");
    }

    #[test]
    fn round_trip_many_files() {
        let mut av = Avamar::new(CloudSim::with_paper_defaults());
        let files: Vec<MemoryFile> = (0..5)
            .map(|i| MemoryFile::new(format!("f{i}.doc"), vec![i as u8; 30_000 + i * 1000]))
            .collect();
        av.backup_session(&sources(&files)).unwrap();
        let restored = av.restore_session(0).unwrap();
        for (orig, rest) in files.iter().zip(restored.iter()) {
            assert_eq!(orig.data, rest.data);
        }
    }
}

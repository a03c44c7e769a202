//! BackupPC: source file-level deduplication.
//!
//! The paper's representative of whole-file dedup \[26\]: every file is
//! fingerprinted whole (SHA-1) and checked against a global file index; a
//! hit means the file's bytes are already in the pool and only a reference
//! is recorded, a miss uploads the file whole (one request per file).
//! Metadata overhead is minimal and lookup cost low, at the price of
//! missing all sub-file redundancy — a one-byte edit stores the file
//! again in full.

use std::time::Instant;

use aadedupe_cloud::CloudSim;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{FileRecipe, Manifest};
use aadedupe_core::restore::{restore_session, RestoredFile};
use aadedupe_core::timing::DedupClock;
use aadedupe_core::retry::{upload_session, Transfer};
use aadedupe_core::{BackupError, BackupScheme, RetryPolicy};
use aadedupe_filetype::SourceFile;
use aadedupe_index::MonolithicIndex;
use aadedupe_metrics::SessionReport;
use aadedupe_obs::Recorder;

use crate::common::{dedup_unit, PER_UNIT};

const SCHEME_KEY: &str = "backuppc";

/// File-level dedup client.
pub struct BackupPc {
    cloud: CloudSim,
    containers: ContainerStore,
    /// Global whole-file fingerprint index.
    index: MonolithicIndex,
    sessions: usize,
}

impl BackupPc {
    /// New client over `cloud`, with the default RAM budget.
    pub fn new(cloud: CloudSim) -> Self {
        Self::with_ram(cloud, crate::avamar::DEFAULT_RAM_ENTRIES)
    }

    /// New client with an explicit index RAM budget (entries).
    pub fn with_ram(cloud: CloudSim, ram_entries: usize) -> Self {
        BackupPc {
            cloud,
            containers: ContainerStore::new(PER_UNIT),
            index: MonolithicIndex::new(ram_entries),
            sessions: 0,
        }
    }
}

impl BackupScheme for BackupPc {
    fn name(&self) -> &'static str {
        "BackupPC"
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
            let reference =
                dedup_unit(&self.index, &mut self.containers, 0, &data, &mut report, &mut clock);
            clock.add_cpu(start.elapsed());
            manifest.files.push(FileRecipe {
                path: file.path().to_string(),
                app: file.app_type(),
                tiny: false,
                chunks: vec![reference],
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
    fn dedupes_identical_files_any_path() {
        let mut bp = BackupPc::new(CloudSim::with_paper_defaults());
        let payload = b"same content".repeat(1000);
        let files = vec![
            MemoryFile::new("a/x.doc", payload.clone()),
            MemoryFile::new("b/y.doc", payload.clone()),
        ];
        let s0 = bp.backup_session(&sources(&files)).unwrap();
        assert_eq!(s0.chunks_duplicate, 1, "second copy dedupes");
        assert_eq!(s0.stored_bytes, payload.len() as u64);
        let restored = bp.restore_session(0).unwrap();
        assert_eq!(restored[0].data, payload);
        assert_eq!(restored[1].data, payload);
    }

    #[test]
    fn misses_sub_file_redundancy() {
        let mut bp = BackupPc::new(CloudSim::with_paper_defaults());
        let base = vec![9u8; 50_000];
        bp.backup_session(&sources(&[MemoryFile::new("f.pdf", base.clone())])).unwrap();
        // One byte changed: file-level dedup stores it all again.
        let mut edited = base.clone();
        edited[25_000] ^= 1;
        let s1 = bp
            .backup_session(&sources(&[MemoryFile::new("f.pdf", edited)]))
            .unwrap();
        assert_eq!(s1.stored_bytes, 50_000);
    }

    #[test]
    fn unchanged_sessions_store_nothing() {
        let mut bp = BackupPc::new(CloudSim::with_paper_defaults());
        let files = vec![MemoryFile::new("v.avi", vec![5u8; 30_000])];
        bp.backup_session(&sources(&files)).unwrap();
        let s1 = bp.backup_session(&sources(&files)).unwrap();
        assert_eq!(s1.stored_bytes, 0);
        assert_eq!(s1.chunks_duplicate, 1);
        // Both sessions restorable.
        assert_eq!(bp.restore_session(0).unwrap(), bp.restore_session(1).unwrap());
    }
}

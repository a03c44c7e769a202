//! Jungle Disk: file-incremental cloud backup (no deduplication).
//!
//! The paper's representative of plain incremental backup \[25\]: a file is
//! re-uploaded *whole* whenever its metadata (here: change token) differs
//! from the previous session, one request per file, with no redundancy
//! elimination of any kind. Unchanged files are carried forward by
//! reference. Space efficiency is therefore the worst of the five schemes
//! (Fig. 7) — a one-byte edit to a VM image re-ships the whole image — but
//! CPU cost is minimal: the only data-touching work is an MD5 integrity
//! digest over the bytes actually uploaded (as real clients compute for
//! S3's content-MD5 check).

use std::collections::HashMap;
use std::time::Instant;

use aadedupe_cloud::CloudSim;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{ChunkRef, FileRecipe, Manifest};
use aadedupe_core::restore::{restore_session, RestoredFile};
use aadedupe_core::timing::DedupClock;
use aadedupe_core::{BackupError, BackupScheme};
use aadedupe_filetype::SourceFile;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_metrics::SessionReport;

use crate::common::{ship_session, PER_UNIT};

const SCHEME_KEY: &str = "jungledisk";

/// File-incremental backup client.
pub struct JungleDisk {
    cloud: CloudSim,
    containers: ContainerStore,
    /// path → (change token, last uploaded placement) from the previous
    /// session.
    seen: HashMap<String, (u64, ChunkRef)>,
    sessions: usize,
}

impl JungleDisk {
    /// New client over `cloud`.
    pub fn new(cloud: CloudSim) -> Self {
        JungleDisk {
            cloud,
            containers: ContainerStore::new(PER_UNIT),
            seen: HashMap::new(),
            sessions: 0,
        }
    }
}

impl BackupScheme for JungleDisk {
    fn name(&self) -> &'static str {
        "Jungle Disk"
    }

    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError> {
        let mut report = SessionReport::new(self.name(), self.sessions);
        let mut clock = DedupClock::new();
        let mut manifest = Manifest::new(self.sessions as u64);
        let mut next_seen = HashMap::with_capacity(files.len());

        for file in files {
            report.files_total += 1;
            report.logical_bytes += file.size();
            // Hash-verify change detection: read and MD5 the file, compare
            // against the previous session's digest. (The real client keeps
            // a content-addressed block database and cannot blindly trust
            // mtimes.)
            let data = file.read();
            let start = Instant::now();
            let fp = Fingerprint::compute(HashAlgorithm::Md5, &data);
            clock.add_cpu(start.elapsed());
            let token = fp.prefix64();
            let reference = match self.seen.get(file.path()) {
                Some((old_token, reference)) if *old_token == token => *reference,
                _ => {
                    // Changed or new: upload whole.
                    let start = Instant::now();
                    let placement = self.containers.add_chunk(0, fp, &data);
                    clock.add_cpu(start.elapsed());
                    report.stored_bytes += data.len() as u64;
                    ChunkRef {
                        fingerprint: fp,
                        len: data.len() as u32,
                        container: placement.container,
                        offset: placement.offset,
                    }
                }
            };
            report.chunks_total += 1;
            next_seen.insert(file.path().to_string(), (token, reference));
            manifest.files.push(FileRecipe {
                path: file.path().to_string(),
                app: file.app_type(),
                tiny: false,
                chunks: if file.size() == 0 { vec![] } else { vec![reference] },
            });
        }
        // Every byte of the dataset is read once from the source disk.
        clock.charge_source_read(report.logical_bytes);
        self.seen = next_seen;

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
    fn uploads_everything_then_only_changes() {
        let cloud = CloudSim::with_paper_defaults();
        let mut jd = JungleDisk::new(cloud);
        let mut files = vec![
            MemoryFile::new("a.txt", b"alpha".repeat(1000)),
            MemoryFile::new("b.pdf", vec![1u8; 20_000]),
        ];
        let s0 = jd.backup_session(&sources(&files)).unwrap();
        assert_eq!(s0.stored_bytes, s0.logical_bytes, "first session: no savings");

        // Unchanged second session: nothing re-uploaded.
        let s1 = jd.backup_session(&sources(&files)).unwrap();
        assert_eq!(s1.stored_bytes, 0);

        // Edit one byte of the PDF: the whole file is re-shipped.
        files[1] = MemoryFile::new("b.pdf", {
            let mut d = vec![1u8; 20_000];
            d[10] = 2;
            d
        });
        let s2 = jd.backup_session(&sources(&files)).unwrap();
        assert_eq!(s2.stored_bytes, 20_000, "whole changed file re-uploaded");
    }

    #[test]
    fn restores_any_session() {
        let cloud = CloudSim::with_paper_defaults();
        let mut jd = JungleDisk::new(cloud);
        let v1 = vec![MemoryFile::new("doc.doc", b"version-1".repeat(500))];
        jd.backup_session(&sources(&v1)).unwrap();
        let v2 = vec![MemoryFile::new("doc.doc", b"version-2".repeat(500))];
        jd.backup_session(&sources(&v2)).unwrap();

        assert_eq!(jd.restore_session(0).unwrap()[0].data, v1[0].data);
        assert_eq!(jd.restore_session(1).unwrap()[0].data, v2[0].data);
        assert!(matches!(
            jd.restore_session(7),
            Err(BackupError::UnknownSession(7))
        ));
    }

    #[test]
    fn no_dedup_of_identical_files() {
        let cloud = CloudSim::with_paper_defaults();
        let mut jd = JungleDisk::new(cloud);
        let payload = b"identical twins".repeat(800);
        let files = vec![
            MemoryFile::new("one.txt", payload.clone()),
            MemoryFile::new("two.txt", payload.clone()),
        ];
        let s0 = jd.backup_session(&sources(&files)).unwrap();
        assert_eq!(s0.stored_bytes, 2 * payload.len() as u64, "incremental ≠ dedup");
    }

    #[test]
    fn one_request_per_changed_file() {
        let cloud = CloudSim::with_paper_defaults();
        let mut jd = JungleDisk::new(cloud);
        let files: Vec<MemoryFile> = (0..7)
            .map(|i| MemoryFile::new(format!("f{i}.txt"), vec![i as u8; 5000]))
            .collect();
        let s0 = jd.backup_session(&sources(&files)).unwrap();
        // 7 file objects + 1 manifest.
        assert_eq!(s0.put_requests, 8);
    }
}

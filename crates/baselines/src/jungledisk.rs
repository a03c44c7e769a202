//! Jungle Disk's contracts ([`Strategy::JungleDisk`](crate::Strategy::JungleDisk)).

#[cfg(test)]
mod tests {
    use crate::{Baseline, Strategy};
    use aadedupe_cloud::CloudSim;
    use aadedupe_core::{BackupError, BackupScheme};
    use aadedupe_filetype::{MemoryFile, SourceFile};

    fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
        files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    #[test]
    fn uploads_everything_then_only_changes() {
        let cloud = CloudSim::with_paper_defaults();
        let mut jd = Baseline::new(Strategy::JungleDisk, cloud);
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
        let mut jd = Baseline::new(Strategy::JungleDisk, cloud);
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
        let mut jd = Baseline::new(Strategy::JungleDisk, cloud);
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
        let mut jd = Baseline::new(Strategy::JungleDisk, cloud);
        let files: Vec<MemoryFile> = (0..7)
            .map(|i| MemoryFile::new(format!("f{i}.txt"), vec![i as u8; 5000]))
            .collect();
        let s0 = jd.backup_session(&sources(&files)).unwrap();
        // 7 file objects + 1 manifest.
        assert_eq!(s0.put_requests, 8);
    }
}

//! BackupPC's contracts ([`Strategy::BackupPc`](crate::Strategy::BackupPc)).

#[cfg(test)]
mod tests {
    use crate::{Baseline, Strategy};
    use aadedupe_cloud::CloudSim;
    use aadedupe_core::BackupScheme;
    use aadedupe_filetype::{MemoryFile, SourceFile};

    fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
        files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    #[test]
    fn dedupes_identical_files_any_path() {
        let mut bp = Baseline::new(Strategy::BackupPc, CloudSim::with_paper_defaults());
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
        let mut bp = Baseline::new(Strategy::BackupPc, CloudSim::with_paper_defaults());
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
        let mut bp = Baseline::new(Strategy::BackupPc, CloudSim::with_paper_defaults());
        let files = vec![MemoryFile::new("v.avi", vec![5u8; 30_000])];
        bp.backup_session(&sources(&files)).unwrap();
        let s1 = bp.backup_session(&sources(&files)).unwrap();
        assert_eq!(s1.stored_bytes, 0);
        assert_eq!(s1.chunks_duplicate, 1);
        // Both sessions restorable.
        assert_eq!(bp.restore_session(0).unwrap(), bp.restore_session(1).unwrap());
    }
}

//! SAM's contracts ([`Strategy::Sam`](crate::Strategy::Sam)).

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
    fn media_is_whole_file_documents_are_chunked() {
        let mut sam = Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults());
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
        let mut sam = Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults());
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
        let mut sam = Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults());
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
        let mut sam = Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults());
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

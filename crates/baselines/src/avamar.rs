//! Avamar's contracts ([`Strategy::Avamar`](crate::Strategy::Avamar)).

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
    fn finds_sub_file_redundancy_where_backuppc_cannot() {
        let mut av = Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults());
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
        let mut av = Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults());
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 37 % 251) as u8).collect();
        let s0 = av.backup_session(&sources(&[MemoryFile::new("a.bin", data)])).unwrap();
        // chunks + 1 manifest.
        assert_eq!(s0.put_requests, s0.chunks_total - s0.chunks_duplicate + 1);
        assert!(s0.put_requests > 5, "fine-grained chunking, many requests");
    }

    #[test]
    fn large_dataset_overflows_ram_index() {
        let mut av = Baseline::with_ram(Strategy::Avamar, CloudSim::with_paper_defaults(), 8);
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
        let mut av = Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults());
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

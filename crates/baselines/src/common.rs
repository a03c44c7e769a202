//! Shared plumbing for the baseline schemes.

use aadedupe_container::format::HEADER_LEN;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::ChunkRef;
use aadedupe_core::timing::DedupClock;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{ChunkEntry, MonolithicIndex};
use aadedupe_metrics::SessionReport;

/// Container size that forces every chunk into its own dedicated, unpadded
/// container — modelling schemes that upload each unit (file or chunk) as
/// an individual cloud object instead of aggregating.
pub const PER_UNIT: usize = HEADER_LEN + 1;

/// Deduplicates one unit — a whole file or one chunk — the way every
/// baseline does: SHA-1 it, look it up in `index` (a lookup that goes to
/// disk is counted and charged to `clock`), and reference the stored copy;
/// a new unit is appended to container stream `stream` and indexed first.
pub fn dedup_unit(
    index: &MonolithicIndex,
    containers: &mut ContainerStore,
    stream: u32,
    bytes: &[u8],
    report: &mut SessionReport,
    clock: &mut DedupClock,
) -> ChunkRef {
    let fingerprint = Fingerprint::compute(HashAlgorithm::Sha1, bytes);
    report.chunks_total += 1;
    let outcome = index.lookup_classified(&fingerprint);
    if outcome.touched_disk() {
        clock.charge_disk_probes(1);
        report.index_disk_reads += 1;
    }
    let (container, offset) = match outcome.entry() {
        Some(entry) => {
            report.chunks_duplicate += 1;
            (entry.container, entry.offset)
        }
        None => {
            let placement = containers.add_chunk(stream, fingerprint, bytes);
            index.insert(
                fingerprint,
                ChunkEntry::new(bytes.len() as u64, placement.container, placement.offset),
            );
            report.stored_bytes += bytes.len() as u64;
            (placement.container, placement.offset)
        }
    };
    ChunkRef { fingerprint, len: bytes.len() as u32, container, offset }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_unit_store_gives_one_object_per_chunk() {
        let mut store = ContainerStore::new(PER_UNIT);
        for i in 0..5u8 {
            store.add_chunk(0, Fingerprint::compute(HashAlgorithm::Sha1, &[i]), &[i; 100]);
        }
        store.seal_all();
        let sealed = store.drain_sealed();
        assert_eq!(sealed.len(), 5);
        assert!(sealed.iter().all(|s| s.padding == 0 && s.chunks == 1));
    }
}

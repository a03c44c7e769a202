//! Shared plumbing for the baseline schemes.

use aadedupe_cloud::CloudSim;
use aadedupe_container::format::HEADER_LEN;
use aadedupe_container::ContainerStore;
use aadedupe_core::recipe::{ChunkRef, Manifest};
use aadedupe_core::restore::container_key;
use aadedupe_core::scheme::BackupError;
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

/// Seals all open containers, uploads them (and the manifest) under
/// `scheme_key`, updating the report's transfer and request accounting.
/// Any upload failure aborts the session — the baselines model no retry.
pub fn ship_session(
    cloud: &CloudSim,
    containers: &mut ContainerStore,
    scheme_key: &str,
    manifest: &Manifest,
    report: &mut SessionReport,
) -> Result<(), BackupError> {
    let puts_before = cloud.store().stats().put_requests;
    let wan_before = cloud.elapsed();
    containers.seal_all();
    for sealed in containers.drain_sealed() {
        let key = container_key(scheme_key, sealed.id);
        report.transferred_bytes += sealed.bytes.len() as u64;
        cloud.put(&key, sealed.bytes)?;
    }
    let mbytes = manifest.encode();
    report.transferred_bytes += mbytes.len() as u64;
    cloud.put(&Manifest::key(scheme_key, manifest.session), mbytes)?;
    report.put_requests += cloud.store().stats().put_requests - puts_before;
    report.transfer_time += cloud.elapsed() - wan_before;
    Ok(())
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

    #[test]
    fn ship_session_accounts_requests_and_bytes() {
        let cloud = CloudSim::with_paper_defaults();
        let mut store = ContainerStore::new(PER_UNIT);
        store.add_chunk(0, Fingerprint::compute(HashAlgorithm::Sha1, b"x"), b"payload");
        let manifest = Manifest::new(0);
        let mut report = SessionReport::new("t", 0);
        ship_session(&cloud, &mut store, "t", &manifest, &mut report).unwrap();
        assert_eq!(report.put_requests, 2, "one container + one manifest");
        assert!(report.transferred_bytes > 7);
        assert!(report.transfer_time > std::time::Duration::ZERO);
    }
}

//! Differential test: a disk-backed index must be observationally
//! identical to the RAM-resident one.
//!
//! The disk-backed `IndexPartition` (write-back LRU cache + on-disk
//! segments + cuckoo existence filter) changes *where* index entries
//! live, never *what* the index answers: for a fixed file ordering, every
//! dedup decision — and therefore every container, manifest and index
//! snapshot uploaded to the cloud, and every restored byte — must be
//! bit-identical to a run with the default RAM-resident partitions. Only
//! the RAM/disk stat classification (ram_hits vs disk_reads, filter
//! counters) may differ. This holds across the serial and parallel
//! pipelines, so the matrix here is {resident, disk} × workers {1, 4}.

use std::collections::BTreeMap;
use std::path::PathBuf;

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aa_dedupe::filetype::SourceFile;
use aa_dedupe::index::{IndexStats, RamFootprint};
use aa_dedupe::metrics::SessionReport;
use aa_dedupe::workload::{DatasetSpec, Generator, Snapshot};

const SEED: u64 = 20_260_807;
const SESSIONS: usize = 2;
/// Small enough that the generated corpus overflows every partition's
/// cache, forcing real segment spills and disk probes — and that the
/// whole index is at least ten times the total cache budget
/// ([`assert_sub_ram`]).
const RAM_BUDGET: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "aadedupe-diskdiff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn config(workers: usize, index_dir: Option<PathBuf>) -> AaDedupeConfig {
    AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        ram_entries_per_partition: RAM_BUDGET,
        index_dir,
        ..AaDedupeConfig::default()
    }
}

/// Cloud-visible state plus per-session reports after a run.
struct Observation {
    reports: Vec<SessionReport>,
    restores: Vec<Vec<(String, Vec<u8>)>>,
    objects: BTreeMap<String, Vec<u8>>,
    index_len: usize,
    index_stats: IndexStats,
    footprint: RamFootprint,
}

fn run(cfg: AaDedupeConfig, sessions: &[Vec<&dyn SourceFile>]) -> Observation {
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
    let reports: Vec<SessionReport> = sessions
        .iter()
        .map(|sources| engine.backup_session(sources).expect("backup"))
        .collect();
    assert!(engine.index().io_error().is_none(), "index storage must stay healthy");
    let restores = (0..sessions.len())
        .map(|s| {
            engine
                .restore_session(s)
                .unwrap_or_else(|e| panic!("restore of session {s} failed: {e}"))
                .into_iter()
                .map(|f| (f.path, f.data))
                .collect()
        })
        .collect();
    let store = engine.cloud().store();
    let objects = store
        .list("")
        .into_iter()
        .map(|key| {
            let bytes =
                store.get(&key).unwrap().unwrap_or_else(|| panic!("listed key {key} missing"));
            (key, bytes.to_vec())
        })
        .collect();
    Observation {
        reports,
        restores,
        objects,
        index_len: engine.index().len(),
        index_stats: engine.index().stats(),
        footprint: engine.index().ram_footprint(),
    }
}

/// The sub-RAM contract of a disk-backed run: the index is many times the
/// cache budget, the cache never overran it, and the negative lookups of
/// a backup stream were answered by the existence filter, not by disk.
fn assert_sub_ram(disk: &Observation, label: &str) {
    let foot = &disk.footprint;
    assert!(
        disk.index_len >= 10 * foot.cache_capacity,
        "{label}: corpus too small — index {} entries < 10x cache budget {}",
        disk.index_len,
        foot.cache_capacity
    );
    assert!(
        foot.cache_entries <= foot.cache_capacity,
        "{label}: cache overran its budget ({} > {})",
        foot.cache_entries,
        foot.cache_capacity
    );
    // False positives are the only misses allowed to probe segments.
    let stats = &disk.index_stats;
    let negatives = stats.filter_hits + stats.filter_false_positives;
    assert!(stats.filter_hits > 0, "{label}: filter never short-circuited");
    assert!(
        (stats.filter_false_positives as f64) < (negatives as f64) * 0.01 + 8.0,
        "{label}: filter false-positive rate too high ({} of {negatives})",
        stats.filter_false_positives
    );
}

/// Everything except the RAM/disk stat classification must match.
fn assert_equivalent(resident: &Observation, disk: &Observation, label: &str) {
    for (r, d) in resident.reports.iter().zip(&disk.reports) {
        let s = r.session;
        assert_eq!(r.logical_bytes, d.logical_bytes, "{label} s{s}: logical_bytes");
        assert_eq!(r.stored_bytes, d.stored_bytes, "{label} s{s}: stored_bytes");
        assert_eq!(r.transferred_bytes, d.transferred_bytes, "{label} s{s}: transferred_bytes");
        assert_eq!(r.chunks_total, d.chunks_total, "{label} s{s}: chunks_total");
        assert_eq!(r.chunks_duplicate, d.chunks_duplicate, "{label} s{s}: chunks_duplicate");
        assert_eq!(r.put_requests, d.put_requests, "{label} s{s}: put_requests");
        // index_disk_reads is exactly the classification that differs:
        // modelled LRU misses vs real segment probes. Not compared.
    }
    for (session, (r, d)) in resident.restores.iter().zip(&disk.restores).enumerate() {
        assert_eq!(r.len(), d.len(), "{label} s{session}: restored file count");
        for ((rp, rd), (dp, dd)) in r.iter().zip(d) {
            assert_eq!(rp, dp, "{label} s{session}: restore order/path");
            assert_eq!(rd, dd, "{label} s{session}: bytes of {rp}");
        }
    }
    let rk: Vec<&String> = resident.objects.keys().collect();
    let dk: Vec<&String> = disk.objects.keys().collect();
    assert_eq!(rk, dk, "{label}: cloud key set");
    for (key, bytes) in &resident.objects {
        assert_eq!(bytes, &disk.objects[key], "{label}: cloud object {key}");
    }
}

#[test]
fn disk_backed_matches_resident_across_pipelines() {
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEED);
    let snaps: Vec<Snapshot> = (0..SESSIONS).map(|w| generator.snapshot(w)).collect();
    let sessions: Vec<Vec<&dyn SourceFile>> = snaps.iter().map(|s| s.as_sources()).collect();

    let resident_serial = run(config(1, None), &sessions);
    for workers in [1usize, 4] {
        let dir = temp_dir(&format!("w{workers}"));
        let disk = run(config(workers, Some(dir.clone())), &sessions);
        assert_equivalent(&resident_serial, &disk, &format!("disk workers={workers}"));
        assert_sub_ram(&disk, &format!("disk workers={workers}"));
        std::fs::remove_dir_all(&dir).ok();

        if workers > 1 {
            let resident_parallel = run(config(workers, None), &sessions);
            assert_equivalent(
                &resident_serial,
                &resident_parallel,
                &format!("resident workers={workers}"),
            );
        }
    }
}

/// What the crash+recover drill observes: the third session's report,
/// the final cloud namespace, and the recovered restore of session 2.
type RecoveryObservation = (SessionReport, BTreeMap<String, Vec<u8>>, Vec<(String, Vec<u8>)>);

/// Runs the crash+recover flow: two sessions, lose all local state
/// (including any index segment directory), recover a fresh engine from
/// the cloud, run a third session.
fn crash_and_recover(
    sessions: &[Vec<&dyn SourceFile>],
    crash_dir: Option<PathBuf>,
    recovered_dir: Option<PathBuf>,
) -> RecoveryObservation {
    let mut engine =
        AaDedupe::with_config(CloudSim::with_paper_defaults(), config(1, crash_dir.clone()));
    for sources in &sessions[..2] {
        engine.backup_session(sources).expect("backup");
    }
    let cloud = engine.cloud().clone();
    drop(engine);
    if let Some(d) = &crash_dir {
        std::fs::remove_dir_all(d).ok(); // the local disk is gone
    }

    let mut recovered = AaDedupe::open(cloud, config(1, recovered_dir)).expect("open");
    assert!(recovered.index().io_error().is_none());
    let report = recovered.backup_session(&sessions[2]).expect("post-recovery backup");

    let store = recovered.cloud().store();
    let objects = store
        .list("")
        .into_iter()
        .map(|key| {
            let bytes =
                store.get(&key).unwrap().unwrap_or_else(|| panic!("listed key {key} missing"));
            (key, bytes.to_vec())
        })
        .collect();
    let restore = recovered
        .restore_session(2)
        .expect("post-recovery restore")
        .into_iter()
        .map(|f| (f.path, f.data))
        .collect();
    (report, objects, restore)
}

#[test]
fn disk_backed_recovery_drill() {
    // Disaster recovery with a disk-backed index: after losing all local
    // state (including the index segment directory), the engine rebuilt
    // from the cloud's manifests must behave bit-identically to a
    // RAM-resident engine recovered the same way — segments and existence
    // filters are rebuilt in a fresh directory as the manifests load.
    // (A recovered engine legitimately differs from a *never-
    // crashed* one in tiny-file packing: `tiny_seen` is not persisted, so
    // the first post-recovery session re-packs tiny files once. The
    // resident↔disk comparison is immune to that, and big-file dedup is
    // additionally pinned against the never-crashed ground truth below.)
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEED ^ 0xdead);
    let snaps: Vec<Snapshot> = (0..3).map(|w| generator.snapshot(w)).collect();
    let sessions: Vec<Vec<&dyn SourceFile>> = snaps.iter().map(|s| s.as_sources()).collect();

    let healthy_dir = temp_dir("healthy");
    let healthy = run(config(1, Some(healthy_dir.clone())), &sessions);
    std::fs::remove_dir_all(&healthy_dir).ok();

    let (resident_report, resident_objects, resident_restore) =
        crash_and_recover(&sessions, None, None);
    let crash_dir = temp_dir("crashed");
    let recovered_dir = temp_dir("recovered");
    let (disk_report, disk_objects, disk_restore) =
        crash_and_recover(&sessions, Some(crash_dir), Some(recovered_dir.clone()));
    std::fs::remove_dir_all(&recovered_dir).ok();

    // Disk-backed recovery ≡ resident recovery, bit for bit.
    assert_eq!(disk_report.stored_bytes, resident_report.stored_bytes, "recovery stored_bytes");
    assert_eq!(
        disk_report.transferred_bytes, resident_report.transferred_bytes,
        "recovery transferred_bytes"
    );
    assert_eq!(disk_report.chunks_total, resident_report.chunks_total, "recovery chunks_total");
    assert_eq!(
        disk_report.chunks_duplicate, resident_report.chunks_duplicate,
        "recovery chunks_duplicate"
    );
    let rk: Vec<&String> = resident_objects.keys().collect();
    let dk: Vec<&String> = disk_objects.keys().collect();
    assert_eq!(rk, dk, "recovery cloud key set");
    for (key, bytes) in &resident_objects {
        assert_eq!(bytes, &disk_objects[key], "recovery cloud object {key}");
    }

    // The recovered restores are bit-exact against the healthy one.
    // (Chunk counts are NOT compared against the never-crashed engine:
    // the re-packed tiny files count as chunks there too.)
    assert_eq!(disk_restore, resident_restore, "recovered restores diverge");
    assert_eq!(disk_restore, healthy.restores[2], "recovered session-2 restore");
}

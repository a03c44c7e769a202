//! Integration tests for the observability subsystem wired through the
//! engine: stage stats must reconcile with `SessionReport` aggregates,
//! `dedup_cpu` must cover the recorder's chunk / hash / index stage times,
//! and turning the recorder on must not perturb serial↔parallel determinism.

use std::collections::BTreeMap;
use std::sync::Arc;

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aa_dedupe::metrics::SessionReport;
use aa_dedupe::obs::{Counter, Recorder, Snapshot as ObsSnapshot, Stage, WorkerRole};
use aa_dedupe::workload::{DatasetSpec, Generator, Snapshot};

/// One worker is the serial schedule, more are the pipeline.
fn config(workers: usize, recorder: Option<Arc<Recorder>>) -> AaDedupeConfig {
    let mut config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        ..AaDedupeConfig::default()
    };
    if let Some(rec) = recorder {
        config.recorder = rec;
    }
    config
}

fn dataset(sessions: usize) -> Vec<Snapshot> {
    let mut generator = Generator::new(DatasetSpec::tiny_test(), 77);
    (0..sessions).map(|w| generator.snapshot(w)).collect()
}

fn run(config: AaDedupeConfig, snaps: &[Snapshot]) -> (AaDedupe, Vec<SessionReport>) {
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let reports = snaps
        .iter()
        .map(|s| engine.backup_session(&s.as_sources()).expect("backup"))
        .collect();
    (engine, reports)
}

/// Stage stats and per-AppType hit/miss counters must reconcile with the
/// session report, on both engine paths.
#[test]
fn stage_stats_reconcile_with_session_report() {
    for serial in [true, false] {
        let rec = Recorder::shared();
        let snaps = dataset(2);
        let workers = if serial { 1 } else { 4 };
        let (_, reports) = run(config(workers, Some(Arc::clone(&rec))), &snaps);
        let snap = rec.snapshot();
        let label = if serial { "serial" } else { "parallel" };

        // The hot pipeline stages all measured real work.
        for stage in [Stage::Classify, Stage::Chunk, Stage::Hash, Stage::Index, Stage::Upload] {
            assert!(snap.stage(stage).hist.count > 0, "{label}: stage {} idle", stage.name());
        }

        // Lifetime identities across both sessions. Every non-tiny chunk
        // does exactly one index lookup; hits split into duplicate chunks
        // minus tiny files carried forward by the packer (which count as
        // duplicates in the report but never touch the index).
        let chunks: u64 = reports.iter().map(|r| r.chunks_total).sum();
        let dups: u64 = reports.iter().map(|r| r.chunks_duplicate).sum();
        let tiny: u64 = reports.iter().map(|r| r.files_tiny).sum();
        let files: u64 = reports.iter().map(|r| r.files_total).sum();
        assert_eq!(
            snap.index_hits() + snap.index_misses(),
            chunks - tiny,
            "{label}: lookups vs chunks"
        );
        assert_eq!(
            snap.index_hits(),
            dups - snap.counter(Counter::TinyCarried),
            "{label}: hits vs duplicates"
        );
        assert_eq!(snap.counter(Counter::FilesClassified), files, "{label}: files");
        // Unchanged tiny files are carried forward by reference, not
        // re-packed: packed + carried covers every tiny sighting.
        assert_eq!(
            snap.counter(Counter::TinyPacked) + snap.counter(Counter::TinyCarried),
            tiny,
            "{label}: tiny packed+carried"
        );
        let chunk_count = snap.counter(Counter::ChunksCdc)
            + snap.counter(Counter::ChunksSc)
            + snap.counter(Counter::ChunksWfc);
        assert_eq!(chunk_count, chunks - tiny, "{label}: chunker output");
        assert_eq!(
            snap.counter(Counter::IndexDiskProbes),
            reports.iter().map(|r| r.index_disk_reads).sum::<u64>(),
            "{label}: disk probes"
        );
        assert_eq!(
            snap.counter(Counter::UploadBytes),
            reports.iter().map(|r| r.transferred_bytes).sum::<u64>(),
            "{label}: uploaded bytes"
        );
    }
}

/// `dedup_cpu` is the engine's own clock whether or not a recorder
/// watches: the chunk, hash and index stage timers all run inside that
/// clock's measured windows, so on the serial schedule their sum can only
/// be smaller.
#[test]
fn dedup_cpu_does_not_depend_on_the_recorder() {
    let rec = Recorder::shared();
    let snaps = dataset(2);
    let (_, reports) = run(config(1, Some(Arc::clone(&rec))), &snaps);
    let snap = rec.snapshot();
    let stages = snap.stage_total(Stage::Chunk)
        + snap.stage_total(Stage::Hash)
        + snap.stage_total(Stage::Index);
    let dedup_cpu: std::time::Duration = reports.iter().map(|r| r.dedup_cpu).sum();
    assert!(!stages.is_zero(), "stage timers ran");
    assert!(dedup_cpu >= stages, "dedup_cpu {dedup_cpu:?} < stage sum {stages:?}");
}

/// A pipelined session runs on its workers and nothing else: each reports
/// its busy/idle split once, as a chunker.
#[test]
fn a_pipelined_session_reports_exactly_its_workers() {
    let rec = Recorder::shared();
    run(config(3, Some(Arc::clone(&rec))), &dataset(1));
    let workers: Vec<(WorkerRole, usize)> =
        rec.snapshot().workers.iter().map(|w| (w.role, w.id)).collect();
    assert_eq!(workers, [0, 1, 2].map(|id| (WorkerRole::Chunker, id)));
}

/// With the default (disabled) recorder nothing is recorded and the report
/// still carries the clock-derived `dedup_cpu`.
#[test]
fn disabled_recorder_records_nothing() {
    let rec = Recorder::shared_disabled();
    let snaps = dataset(1);
    let (_, reports) = run(config(2, Some(Arc::clone(&rec))), &snaps);
    assert!(!reports[0].dedup_cpu.is_zero(), "the clock still charges time");
    let snap = rec.snapshot();
    for stage in Stage::ALL {
        assert_eq!(snap.stage(stage).hist.count, 0, "stage {}", stage.name());
    }
    assert_eq!(snap.counter(Counter::FilesClassified), 0);
    assert_eq!(snap.index_hits() + snap.index_misses(), 0);
}

/// Everything deterministic about the cloud state, with observability ON
/// for both engines. Recording must never influence chunking, dedup
/// decisions, packing or upload order.
#[test]
fn differential_serial_parallel_with_observability_enabled() {
    fn observe(config: AaDedupeConfig, snaps: &[Snapshot]) -> BTreeMap<String, Vec<u8>> {
        let (engine, _) = run(config, snaps);
        let store = engine.cloud().store();
        store.list("").into_iter().map(|k| {
            let bytes = store.get(&k).unwrap().expect("listed key present");
            (k, bytes.to_vec())
        }).collect()
    }
    let snaps = dataset(2);
    let serial = observe(config(1, Some(Recorder::shared())), &snaps);
    for workers in [2, 4] {
        let parallel = observe(config(workers, Some(Recorder::shared())), &snaps);
        assert_eq!(serial.len(), parallel.len(), "workers={workers}: object count");
        for (key, bytes) in &serial {
            assert_eq!(bytes, &parallel[key], "workers={workers}: cloud object {key}");
        }
    }
}

/// Per-session deltas: a second snapshot minus the first must describe
/// exactly the second session's work.
#[test]
fn snapshot_delta_isolates_a_session() {
    let rec = Recorder::shared();
    let snaps = dataset(2);
    let mut engine =
        AaDedupe::with_config(CloudSim::with_paper_defaults(), config(1, Some(Arc::clone(&rec))));
    engine.backup_session(&snaps[0].as_sources()).expect("backup 0");
    let mid: ObsSnapshot = rec.snapshot();
    let r1 = engine.backup_session(&snaps[1].as_sources()).expect("backup 1");
    let delta = rec.snapshot().delta_since(&mid);
    assert_eq!(delta.counter(Counter::FilesClassified), r1.files_total);
    assert_eq!(delta.counter(Counter::UploadBytes), r1.transferred_bytes);
    assert_eq!(
        delta.index_hits() + delta.index_misses(),
        r1.chunks_total - r1.files_tiny
    );
}

//! Failure injection: corruption and loss must be *detected*, never
//! silently restored.

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupError, BackupScheme};
use aa_dedupe::filetype::{MemoryFile, SourceFile};

fn backed_up_engine() -> (AaDedupe, Vec<MemoryFile>) {
    let cloud = CloudSim::with_paper_defaults();
    let mut engine = AaDedupe::new(cloud);
    let files = vec![
        MemoryFile::new("user/doc/a.doc", b"important words ".repeat(4000)),
        MemoryFile::new("user/pdf/b.pdf", vec![0x42; 120_000]),
        MemoryFile::new("user/mp3/c.mp3", (0..90_000u32).map(|i| (i % 249) as u8).collect()),
    ];
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("backup");
    (engine, files)
}

#[test]
fn healthy_restore_sanity() {
    let (engine, files) = backed_up_engine();
    let restored = engine.restore_session(0).expect("restore");
    for (orig, rest) in files.iter().zip(&restored) {
        assert_eq!(orig.data, rest.data);
    }
}

#[test]
fn corrupted_container_data_is_detected() {
    let (engine, _) = backed_up_engine();
    // Corrupt one byte *inside the first chunk's payload* of every
    // container (containers are padded, so positions near the end may be
    // harmless zero-fill — aim precisely).
    for key in engine.cloud().store().list("aa-dedupe/containers/") {
        let raw = engine.cloud().store().get(&key).unwrap().unwrap();
        let parsed = aa_dedupe::container::ParsedContainer::parse(&raw).unwrap();
        let desc_len: usize = parsed.descriptors.iter().map(aa_dedupe::container::ChunkDescriptor::encoded_len).sum();
        let first = parsed.descriptors.first().expect("non-empty container");
        let abs = aa_dedupe::container::format::HEADER_LEN + desc_len + first.offset as usize;
        assert!(engine.cloud().store().corrupt(&key, abs));
    }
    let err = engine.restore_session(0).expect_err("must detect corruption");
    assert!(
        matches!(err, BackupError::Verification(_) | BackupError::Corrupt(_)),
        "unexpected error: {err:?}"
    );
}

#[test]
fn corrupted_container_header_is_detected() {
    let (engine, _) = backed_up_engine();
    for key in engine.cloud().store().list("aa-dedupe/containers/") {
        engine.cloud().store().corrupt(&key, 0); // magic byte
    }
    let err = engine.restore_session(0).expect_err("must detect bad magic");
    assert!(matches!(err, BackupError::Corrupt(_)), "{err:?}");
}

#[test]
fn missing_container_is_detected() {
    let (engine, _) = backed_up_engine();
    for key in engine.cloud().store().list("aa-dedupe/containers/") {
        engine.cloud().store().delete(&key).unwrap();
    }
    let err = engine.restore_session(0).expect_err("must detect loss");
    assert!(matches!(err, BackupError::MissingObject(_)), "{err:?}");
}

#[test]
fn corrupted_manifest_is_detected() {
    let (engine, _) = backed_up_engine();
    for key in engine.cloud().store().list("aa-dedupe/manifests/") {
        engine.cloud().store().corrupt(&key, 1);
    }
    let err = engine.restore_session(0).expect_err("must detect manifest damage");
    assert!(matches!(err, BackupError::Corrupt(_)), "{err:?}");
}

#[test]
fn restore_of_never_backed_up_session_fails_cleanly() {
    let (engine, _) = backed_up_engine();
    assert!(matches!(
        engine.restore_session(99).expect_err("unknown session"),
        BackupError::UnknownSession(99)
    ));
}

#[test]
fn index_recovery_requires_a_snapshot() {
    let cloud = CloudSim::with_paper_defaults();
    let mut engine = AaDedupe::new(cloud);
    let f = MemoryFile::new("user/txt/x.txt", b"words ".repeat(3000));
    engine.backup_session(&[&f as &dyn SourceFile]).expect("backup");
    // No snapshot in the cloud: recovery must fail with a missing object.
    for key in engine.cloud().store().list("aa-dedupe/index/") {
        engine.cloud().delete(&key).expect("delete snapshot");
    }
    let err = engine.recover_index_from_cloud().expect_err("no snapshot exists");
    assert!(matches!(err, BackupError::MissingObject(_)), "{err:?}");
}

#[test]
fn corrupted_index_snapshot_is_detected() {
    let cloud = CloudSim::with_paper_defaults();
    let mut engine = AaDedupe::new(cloud);
    let f = MemoryFile::new("user/txt/x.txt", b"words ".repeat(3000));
    engine.backup_session(&[&f as &dyn SourceFile]).expect("backup");
    for key in engine.cloud().store().list("aa-dedupe/index/") {
        engine.cloud().store().corrupt(&key, 3);
    }
    let err = engine.recover_index_from_cloud().expect_err("snapshot corrupt");
    assert!(matches!(err, BackupError::Corrupt(_)), "{err:?}");
}

#[test]
fn double_delete_of_a_session_fails_cleanly() {
    let (mut engine, _) = backed_up_engine();
    engine.backup_session(&[]).expect("empty session 1");
    engine.delete_session(0).expect("first delete");
    assert!(matches!(
        engine.delete_session(0).expect_err("second delete"),
        BackupError::UnknownSession(0)
    ));
}

// ---------------------------------------------------------------------------
// Fault drills: deterministic injected upload failures, retry/backoff, and
// the crash-consistent commit protocol.
// ---------------------------------------------------------------------------

use aa_dedupe::cloud::{
    FaultInjectingBackend, FaultPlan, ObjectBackend, ObjectStore, PriceModel, WanModel,
};
use aa_dedupe::core::{PipelineConfig, RetryPolicy};
use aa_dedupe::obs::{Counter, Recorder};
use std::collections::BTreeMap;
use std::sync::Arc;

fn drill_files() -> Vec<MemoryFile> {
    vec![
        MemoryFile::new("user/doc/a.doc", b"important words ".repeat(4000)),
        MemoryFile::new("user/pdf/b.pdf", vec![0x42; 120_000]),
        MemoryFile::new("user/mp3/c.mp3", (0..90_000u32).map(|i| (i % 249) as u8).collect()),
        MemoryFile::new("user/txt/note.txt", b"tiny note".to_vec()),
    ]
}

fn changed_files() -> Vec<MemoryFile> {
    let mut files = drill_files();
    files[0] = MemoryFile::new("user/doc/a.doc", b"important words ".repeat(4500));
    files.push(MemoryFile::new("user/jpg/new.jpg", vec![9u8; 60_000]));
    files
}

fn cloud_over(backend: Arc<dyn ObjectBackend>) -> CloudSim {
    CloudSim::with_backend(backend, WanModel::paper_defaults(), PriceModel::s3_april_2011())
}

fn config_with(workers: usize, retry: RetryPolicy, rec: Option<Arc<Recorder>>) -> AaDedupeConfig {
    let mut config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        retry,
        ..AaDedupeConfig::default()
    };
    if let Some(rec) = rec {
        config.recorder = rec;
    }
    config
}

fn assert_restores_bit_exact(engine: &AaDedupe, session: usize, expect: &[MemoryFile]) {
    let restored = engine.restore_session(session).expect("restore");
    let by_path: BTreeMap<_, _> = restored.into_iter().map(|f| (f.path, f.data)).collect();
    assert_eq!(by_path.len(), expect.len(), "session {session} file count");
    for f in expect {
        assert_eq!(by_path.get(&f.path), Some(&f.data), "session {session} file {}", f.path);
    }
}

#[test]
fn transient_faults_every_upload_point_retries_to_success() {
    for workers in [1usize, 4] {
        // Every put in the engine's namespace fails exactly once before
        // succeeding — hits containers, the manifest and the index
        // snapshot alike.
        let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
        let faulty = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner),
            FaultPlan::new(7).fail_prefix_puts("aa-dedupe/", 1, true),
        ));
        let rec = Recorder::shared();
        let mut engine = AaDedupe::with_config(
            cloud_over(faulty.clone() as Arc<dyn ObjectBackend>),
            config_with(workers, RetryPolicy::default(), Some(rec.clone())),
        );
        let files = drill_files();
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        engine.backup_session(&sources).expect("transient faults must be survivable");
        assert!(!engine.is_poisoned());
        assert_restores_bit_exact(&engine, 0, &files);

        // Exactly one retry per distinct uploaded key, none abandoned.
        let snap = rec.snapshot();
        let distinct_keys = inner.list("aa-dedupe/").len() as u64;
        assert!(distinct_keys > 0);
        assert_eq!(snap.counter(Counter::UploadRetries), distinct_keys, "workers={workers}");
        assert_eq!(snap.counter(Counter::UploadGiveups), 0, "workers={workers}");
        assert_eq!(faulty.faults_injected(), distinct_keys, "workers={workers}");
    }
}

#[test]
fn persistent_fault_aborts_without_a_manifest_and_poisons_the_engine() {
    for workers in [1usize, 4] {
        let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
        let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner),
            FaultPlan::new(7).fail_prefix_puts("aa-dedupe/containers/", u32::MAX, false),
        ));
        let rec = Recorder::shared();
        let mut engine = AaDedupe::with_config(
            cloud_over(faulty),
            config_with(workers, RetryPolicy::default(), Some(rec.clone())),
        );
        let files = drill_files();
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        let err = engine.backup_session(&sources).expect_err("permanent fault must abort");
        assert!(matches!(err, BackupError::Cloud(_)), "{err:?}");
        // Permanent errors are not retried.
        assert_eq!(rec.snapshot().counter(Counter::UploadRetries), 0);
        assert_eq!(rec.snapshot().counter(Counter::UploadGiveups), 1);
        // The commit point was never reached: no manifest, so no session —
        // a reopened engine sees a clean (empty) repository.
        assert!(inner.list("aa-dedupe/manifests/").is_empty());
        // The failed instance refuses further backups.
        assert!(engine.is_poisoned());
        let err = engine.backup_session(&sources).expect_err("poisoned");
        assert!(matches!(err, BackupError::Poisoned(_)), "{err:?}");
        let reopened = AaDedupe::open(
            cloud_over(Arc::clone(&inner)),
            config_with(workers, RetryPolicy::default(), None),
        )
        .expect("reopen over the bare store");
        assert!(reopened.list_sessions().is_empty());
    }
}

#[test]
fn retry_budget_exhaustion_gives_up() {
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
        Arc::clone(&inner),
        FaultPlan::new(3).fail_prefix_puts("aa-dedupe/", u32::MAX, true),
    ));
    let rec = Recorder::shared();
    let policy = RetryPolicy { max_attempts: 3, session_retry_budget: 2, ..RetryPolicy::default() };
    let mut engine =
        AaDedupe::with_config(cloud_over(faulty), config_with(1, policy, Some(rec.clone())));
    let files = drill_files();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    let err = engine.backup_session(&sources).expect_err("budget exhausted");
    assert!(matches!(err, BackupError::Cloud(_)), "{err:?}");
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::UploadRetries), 2, "whole session budget spent");
    assert_eq!(snap.counter(Counter::UploadGiveups), 1);
}

#[test]
fn truncated_container_write_is_swept_on_reopen() {
    // A truncated put leaves a partial object visible (a torn multipart
    // upload). Without retries the session aborts before its manifest, so
    // reopening sweeps the partial container as an orphan.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
        Arc::clone(&inner),
        FaultPlan::new(11).truncate_nth_put(1, 16),
    ));
    let mut engine =
        AaDedupe::with_config(cloud_over(faulty), config_with(1, RetryPolicy::no_retries(), None));
    let files = drill_files();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect_err("truncated write must fail the session");
    let partials = inner.list("aa-dedupe/containers/");
    assert_eq!(partials.len(), 1, "the torn object is visible before the sweep");
    assert_eq!(inner.get(&partials[0]).unwrap().unwrap().len(), 16);

    let reopened = AaDedupe::open(
        cloud_over(Arc::clone(&inner)),
        config_with(1, RetryPolicy::default(), None),
    )
    .expect("reopen");
    assert_eq!(reopened.orphans_swept(), 1);
    assert!(inner.list("aa-dedupe/containers/").is_empty());
}

#[test]
fn crash_at_every_operation_leaves_a_recoverable_repository() {
    for workers in [1usize, 4] {
        // Dry run to learn how many backend operations session 1 performs
        // (open's manifest fetches + the second session's uploads).
        let total_ops = {
            let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
            let mut e0 = AaDedupe::with_config(
                cloud_over(Arc::clone(&inner)),
                config_with(workers, RetryPolicy::no_retries(), None),
            );
            let files = drill_files();
            let sources: Vec<&dyn SourceFile> =
                files.iter().map(|f| f as &dyn SourceFile).collect();
            e0.backup_session(&sources).expect("clean session 0");
            let counting =
                Arc::new(FaultInjectingBackend::new(Arc::clone(&inner), FaultPlan::new(0)));
            let mut e1 = AaDedupe::open(
                cloud_over(counting.clone() as Arc<dyn ObjectBackend>),
                config_with(workers, RetryPolicy::no_retries(), None),
            )
            .expect("open");
            let changed = changed_files();
            let sources: Vec<&dyn SourceFile> =
                changed.iter().map(|f| f as &dyn SourceFile).collect();
            e1.backup_session(&sources).expect("clean session 1");
            counting.ops_attempted()
        };
        assert!(total_ops >= 3, "expected open+upload traffic, got {total_ops}");

        let files = drill_files();
        let changed = changed_files();
        for crash_at in 1..=total_ops {
            // Fresh repository with a committed session 0.
            let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
            {
                let mut e0 = AaDedupe::with_config(
                    cloud_over(Arc::clone(&inner)),
                    config_with(workers, RetryPolicy::no_retries(), None),
                );
                let sources: Vec<&dyn SourceFile> =
                    files.iter().map(|f| f as &dyn SourceFile).collect();
                e0.backup_session(&sources).expect("clean session 0");
            }
            // Crash-stop the backend at operation `crash_at` during
            // open + session 1. Failures here are expected and fine.
            let crashing = Arc::new(FaultInjectingBackend::new(
                Arc::clone(&inner),
                FaultPlan::new(0).crash_at_op(crash_at),
            ));
            let session1_committed = match AaDedupe::open(
                cloud_over(crashing.clone() as Arc<dyn ObjectBackend>),
                config_with(workers, RetryPolicy::no_retries(), None),
            ) {
                Ok(mut e1) => {
                    let sources: Vec<&dyn SourceFile> =
                        changed.iter().map(|f| f as &dyn SourceFile).collect();
                    e1.backup_session(&sources).is_ok()
                }
                Err(_) => false,
            };

            // Recovery: reopen over the bare store. Whatever the crash
            // point, session 0 must restore bit-exactly, session 1 exactly
            // when its manifest committed, and the orphan sweep must leave
            // only referenced containers behind.
            let e = AaDedupe::open(
                cloud_over(Arc::clone(&inner)),
                config_with(workers, RetryPolicy::no_retries(), None),
            )
            .unwrap_or_else(|err| {
                panic!("workers={workers} crash_at={crash_at}: reopen failed: {err}")
            });
            let sessions = e.list_sessions();
            assert!(sessions.contains(&0), "workers={workers} crash_at={crash_at}");
            assert_restores_bit_exact(&e, 0, &files);
            if sessions.contains(&1) {
                assert_restores_bit_exact(&e, 1, &changed);
            } else {
                assert!(
                    !session1_committed,
                    "workers={workers} crash_at={crash_at}: a session reported as committed \
                     must be restorable"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Restore fault drills: injected GET failures against the pipelined
// bounded-memory restore engine, and the delete-session crash sweep.
// ---------------------------------------------------------------------------

use aa_dedupe::core::{restore_session_pipelined, RestoreOptions, RestoredFile};

/// A clean one-session repository over a bare [`ObjectStore`], so restore
/// drills can wrap the store in faults without the backup seeing them.
fn clean_repository() -> (Arc<ObjectStore>, Vec<MemoryFile>) {
    let inner = Arc::new(ObjectStore::new());
    let mut engine = AaDedupe::new(cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>));
    let files = drill_files();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("clean backup");
    (inner, files)
}

fn assert_files_bit_exact(restored: &[RestoredFile], expect: &[MemoryFile], label: &str) {
    let by_path: BTreeMap<_, _> =
        restored.iter().map(|f| (f.path.as_str(), f.data.as_slice())).collect();
    assert_eq!(by_path.len(), expect.len(), "{label}: file count");
    for f in expect {
        assert_eq!(by_path.get(f.path.as_str()), Some(&f.data.as_slice()), "{label}: {}", f.path);
    }
}

#[test]
fn restore_transient_fault_at_every_fetch_point_retries_to_success() {
    for workers in [1usize, 4] {
        let (inner, files) = clean_repository();
        // Every GET in the namespace fails exactly once before succeeding —
        // hits the manifest and every container alike.
        let faulty = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner) as Arc<dyn ObjectBackend>,
            FaultPlan::new(7).fail_prefix_gets("aa-dedupe/", 1, true),
        ));
        let cloud = cloud_over(faulty.clone() as Arc<dyn ObjectBackend>);
        let rec = Recorder::new();
        let restored = restore_session_pipelined(
            &cloud,
            "aa-dedupe",
            0,
            &RestoreOptions { workers },
            &RetryPolicy::default(),
            &rec,
        )
        .expect("transient faults must be survivable");
        assert_files_bit_exact(&restored, &files, &format!("workers={workers}"));

        // Exactly one retry per fetched key: the manifest plus each
        // distinct container, no more (each refetch, if any, is clean).
        let containers = inner.list("aa-dedupe/containers/").len() as u64;
        assert!(containers > 0);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(Counter::RestoreRetries),
            1 + containers,
            "workers={workers}: one retry for the manifest and one per container"
        );
        assert_eq!(snap.counter(Counter::RestoreGiveups), 0, "workers={workers}");
        assert_eq!(faulty.faults_injected(), 1 + containers, "workers={workers}");
    }
}

#[test]
fn restore_permanent_fault_aborts_cleanly_and_deterministically() {
    // Permanent container GET failures: no retries, a clean abort (no
    // partial result), and — the determinism contract — the same error for
    // every worker count, surfaced at the first consumed reference.
    let mut errors = Vec::new();
    for workers in [1usize, 4] {
        let (inner, _) = clean_repository();
        let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner) as Arc<dyn ObjectBackend>,
            FaultPlan::new(7).fail_prefix_gets("aa-dedupe/containers/", u32::MAX, false),
        ));
        let rec = Recorder::new();
        let err = restore_session_pipelined(
            &cloud_over(faulty),
            "aa-dedupe",
            0,
            &RestoreOptions { workers },
            &RetryPolicy::default(),
            &rec,
        )
        .expect_err("permanent fault must abort");
        assert!(matches!(err, BackupError::Cloud(_)), "workers={workers}: {err:?}");
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::RestoreRetries), 0, "permanent errors are not retried");
        assert!(snap.counter(Counter::RestoreGiveups) >= 1, "workers={workers}");
        errors.push(err.to_string());
    }
    assert_eq!(errors[0], errors[1], "the surfaced error must not depend on worker count");
}

#[test]
fn restore_corruption_detected_identically_across_worker_counts() {
    // One corrupted container in the middle of a parallel restore: every
    // worker count must report the same verification failure the serial
    // oracle does.
    let (inner, _) = clean_repository();
    let keys = inner.list("aa-dedupe/containers/");
    let key = keys.last().expect("containers exist");
    let raw = inner.get(key).unwrap().unwrap();
    let parsed = aa_dedupe::container::ParsedContainer::parse(&raw).unwrap();
    let desc_len: usize = parsed.descriptors.iter().map(aa_dedupe::container::ChunkDescriptor::encoded_len).sum();
    let target = aa_dedupe::container::format::HEADER_LEN
        + desc_len
        + parsed.descriptors[0].offset as usize;
    assert!(inner.corrupt(key, target));

    let cloud = cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>);
    let serial_err =
        aa_dedupe::core::restore_session(&cloud, "aa-dedupe", 0).expect_err("oracle detects it");
    for workers in [1usize, 4] {
        let err = restore_session_pipelined(
            &cloud,
            "aa-dedupe",
            0,
            &RestoreOptions { workers },
            &RetryPolicy::default(),
            &Recorder::disabled(),
        )
        .expect_err("must detect corruption");
        assert!(
            matches!(err, BackupError::Verification(_) | BackupError::Corrupt(_)),
            "workers={workers}: {err:?}"
        );
        assert_eq!(
            err.to_string(),
            serial_err.to_string(),
            "workers={workers}: pipelined error must match the serial oracle"
        );
    }
}

#[test]
fn restore_two_faults_surface_the_first_referenced_container() {
    // Two containers fail permanently. Whichever worker meets which first,
    // the error returned names the one the manifest references first.
    let inner = Arc::new(ObjectStore::new());
    let config = AaDedupeConfig { container_size: 16 * 1024, ..AaDedupeConfig::default() };
    let mut engine =
        AaDedupe::with_config(cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>), config);
    // Distinct content per file, so the session spreads over dozens of
    // small containers — more than any worker count claims at once.
    let files: Vec<MemoryFile> = (0..16u32)
        .map(|k| {
            let data = (0..40_000u32).map(|i| ((i + 1) * (2 * k + 3) % 251) as u8).collect();
            MemoryFile::new(format!("user/pdf/f{k:02}.pdf"), data)
        })
        .collect();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("clean backup");

    let manifest = aa_dedupe::core::Manifest::decode(
        &inner.get("aa-dedupe/manifests/00000000").unwrap().expect("manifest committed"),
    )
    .expect("decode");
    let mut order: Vec<u64> = Vec::new();
    for c in manifest.files.iter().flat_map(|f| &f.chunks) {
        if !order.contains(&c.container) {
            order.push(c.container);
        }
    }
    assert!(order.len() > 16, "drill needs a spread of containers, got {}", order.len());
    let key = |i: usize| format!("aa-dedupe/containers/{:012}", order[i]);

    let mid = order.len() / 2;
    for (early, late) in [(0, order.len() - 1), (mid, mid + 1)] {
        for workers in [1usize, 2, 4, 8] {
            for round in 0..20 {
                let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
                    Arc::clone(&inner) as Arc<dyn ObjectBackend>,
                    FaultPlan::new(round)
                        .fail_prefix_gets(key(late), u32::MAX, false)
                        .fail_prefix_gets(key(early), u32::MAX, false),
                ));
                let rec = Recorder::new();
                let err = restore_session_pipelined(
                    &cloud_over(faulty),
                    "aa-dedupe",
                    0,
                    &RestoreOptions { workers },
                    &RetryPolicy::default(),
                    &rec,
                )
                .expect_err("permanent faults must abort");
                let label = format!("faults=({early},{late}) workers={workers} round={round}");
                assert!(matches!(err, BackupError::Cloud(_)), "{label}: {err:?}");
                assert!(err.to_string().contains(&key(early)), "{label}: {err}");
                assert!(rec.snapshot().counter(Counter::RestoreGiveups) >= 1, "{label}");
            }
        }
    }
}

#[test]
fn restore_retry_budget_exhaustion_gives_up() {
    let (inner, _) = clean_repository();
    let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
        Arc::clone(&inner) as Arc<dyn ObjectBackend>,
        FaultPlan::new(3).fail_prefix_gets("aa-dedupe/", u32::MAX, true),
    ));
    let rec = Recorder::new();
    let policy = RetryPolicy { max_attempts: 3, session_retry_budget: 2, ..RetryPolicy::default() };
    let err = restore_session_pipelined(
        &cloud_over(faulty),
        "aa-dedupe",
        0,
        &RestoreOptions::default(),
        &policy,
        &rec,
    )
    .expect_err("budget exhausted");
    assert!(matches!(err, BackupError::Cloud(_)), "{err:?}");
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::RestoreRetries), 2, "whole restore budget spent");
    assert_eq!(snap.counter(Counter::RestoreGiveups), 1);
}

#[test]
fn delete_crash_at_every_operation_never_strands_a_listed_session() {
    // The delete commit protocol: the manifest delete is the un-commit
    // point. Crash-stopping the backend at every operation of a deletion
    // must leave the repository in one of exactly two states — the session
    // still fully restorable (un-commit never happened) or gone with its
    // exclusive containers reclaimable — and must never damage the other
    // session, which shares containers with the deleted one.
    let files = drill_files();
    let changed = changed_files();
    let two_sessions = |inner: &Arc<ObjectStore>| {
        let mut e = AaDedupe::with_config(
            cloud_over(Arc::clone(inner) as Arc<dyn ObjectBackend>),
            config_with(1, RetryPolicy::no_retries(), None),
        );
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        e.backup_session(&sources).expect("clean session 0");
        let sources: Vec<&dyn SourceFile> = changed.iter().map(|f| f as &dyn SourceFile).collect();
        e.backup_session(&sources).expect("clean session 1");
    };

    // Dry run to learn how many backend operations open + delete perform.
    let total_ops = {
        let inner = Arc::new(ObjectStore::new());
        two_sessions(&inner);
        let counting = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner) as Arc<dyn ObjectBackend>,
            FaultPlan::new(0),
        ));
        let mut e = AaDedupe::open(
            cloud_over(counting.clone() as Arc<dyn ObjectBackend>),
            config_with(1, RetryPolicy::no_retries(), None),
        )
        .expect("open");
        e.delete_session(0).expect("clean delete");
        counting.ops_attempted()
    };
    assert!(total_ops >= 3, "expected open+delete traffic, got {total_ops}");

    for crash_at in 1..=total_ops {
        let inner = Arc::new(ObjectStore::new());
        two_sessions(&inner);
        let crashing = Arc::new(FaultInjectingBackend::new(
            Arc::clone(&inner) as Arc<dyn ObjectBackend>,
            FaultPlan::new(0).crash_at_op(crash_at),
        ));
        let deleted = match AaDedupe::open(
            cloud_over(crashing.clone() as Arc<dyn ObjectBackend>),
            config_with(1, RetryPolicy::no_retries(), None),
        ) {
            Ok(mut e) => match e.delete_session(0) {
                Ok(()) => {
                    // Ok means the un-commit committed: the manifest is
                    // gone, and any container whose delete the crash ate is
                    // still listed for the next sweep.
                    assert!(
                        !inner.contains("aa-dedupe/manifests/00000000"),
                        "crash_at={crash_at}: Ok delete must have removed the manifest"
                    );
                    true
                }
                Err(_) => {
                    // Err can only arise before the manifest delete
                    // succeeded; nothing may have been mutated.
                    assert!(
                        inner.contains("aa-dedupe/manifests/00000000"),
                        "crash_at={crash_at}: failed delete must leave the manifest intact"
                    );
                    false
                }
            },
            Err(_) => false, // crash during open: delete never started
        };

        // Recovery: reopen over the bare store. Session 1 must always be
        // restorable; session 0 exactly when its manifest survived; and the
        // orphan sweep must leave only referenced containers behind.
        let e = AaDedupe::open(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(1, RetryPolicy::no_retries(), None),
        )
        .unwrap_or_else(|err| panic!("crash_at={crash_at}: reopen failed: {err}"));
        let sessions = e.list_sessions();
        assert!(sessions.contains(&1), "crash_at={crash_at}");
        assert_restores_bit_exact(&e, 1, &changed);
        if deleted {
            assert!(!sessions.contains(&0), "crash_at={crash_at}");
            // Every surviving container is referenced by the surviving
            // manifest — what the crash left behind was reclaimed as orphans.
            let manifest_bytes = inner
                .get(&aa_dedupe::core::Manifest::key("aa-dedupe", 1))
                .unwrap()
                .expect("manifest 1");
            let manifest = aa_dedupe::core::Manifest::decode(&manifest_bytes).expect("decode");
            let referenced: std::collections::HashSet<String> = manifest
                .files
                .iter()
                .flat_map(|f| f.chunks.iter())
                .map(|c| format!("aa-dedupe/containers/{:012}", c.container))
                .collect();
            for key in inner.list("aa-dedupe/containers/") {
                assert!(
                    referenced.contains(&key),
                    "crash_at={crash_at}: unreferenced container {key} survived the sweep"
                );
            }
        } else {
            assert!(sessions.contains(&0), "crash_at={crash_at}");
            assert_restores_bit_exact(&e, 0, &files);
        }
    }
}

#[test]
fn recovered_engine_continues_the_session_sequence() {
    // Regression test: after disaster recovery the session counter must
    // resume after the last committed manifest, not restart at zero.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let files = drill_files();
    {
        let mut e0 = AaDedupe::with_config(
            cloud_over(Arc::clone(&inner)),
            AaDedupeConfig::default(),
        );
        let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
        e0.backup_session(&sources).expect("session 0");
    }
    // "New machine": blank engine, index rebuilt from the cloud snapshot.
    let mut e = AaDedupe::with_config(
        cloud_over(Arc::clone(&inner)),
        AaDedupeConfig::default(),
    );
    e.recover_index_from_cloud().expect("recover");
    assert_eq!(e.sessions_completed(), 1, "counter resumes after the recovered manifest");
    let changed = changed_files();
    let sources: Vec<&dyn SourceFile> = changed.iter().map(|f| f as &dyn SourceFile).collect();
    e.backup_session(&sources).expect("session 1 after recovery");
    assert_restores_bit_exact(&e, 0, &files);
    assert_restores_bit_exact(&e, 1, &changed);
}

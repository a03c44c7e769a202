//! Vacuum drills: space reclamation must never cost a byte of restorable
//! data — not under crashes at any commit operation, not across worker
//! counts, not on reruns.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use aa_dedupe::chunking::{CdcParams, DEFAULT_CDC};
use aa_dedupe::cloud::{
    CloudSim, FaultInjectingBackend, FaultPlan, ObjectBackend, ObjectStore, PriceModel, WanModel,
};
use aa_dedupe::container::ParsedContainer;
use aa_dedupe::core::{
    AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, RetentionPolicy, RetryPolicy,
    VacuumOptions,
};
use aa_dedupe::filetype::{MemoryFile, SourceFile};

fn cloud_over(backend: Arc<dyn ObjectBackend>) -> CloudSim {
    CloudSim::with_backend(backend, WanModel::paper_defaults(), PriceModel::s3_april_2011())
}

fn config_with(workers: usize) -> AaDedupeConfig {
    AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        retry: RetryPolicy::no_retries(),
        ..AaDedupeConfig::default()
    }
}

/// Churned sessions: a stable shared core plus per-session unique data, so
/// deleting old sessions strands dead chunks inside containers that newer
/// sessions still reference — exactly what vacuum exists to reclaim.
fn churn_files(session: usize) -> Vec<MemoryFile> {
    let stable = b"the quick brown fox jumps over the lazy dog ".repeat(3000);
    let mut doc = stable.clone();
    doc.extend(format!("session {session} edits ").repeat(2000 + session * 37).into_bytes());
    vec![
        MemoryFile::new("user/doc/report.doc", doc),
        MemoryFile::new("user/pdf/shared.pdf", vec![0x42; 150_000]),
        MemoryFile::new(
            "user/mp3/track.mp3",
            (0..120_000u32).map(|i| ((i as usize * (session + 3)) % 251) as u8).collect(),
        ),
        MemoryFile::new("user/txt/note.txt", format!("tiny note v{session}").into_bytes()),
    ]
}

fn backup(engine: &mut AaDedupe, files: &[MemoryFile]) {
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("backup");
}

fn assert_restores_bit_exact(engine: &AaDedupe, session: usize, expect: &[MemoryFile]) {
    let restored = engine.restore_session(session).expect("restore");
    let by_path: BTreeMap<_, _> = restored.into_iter().map(|f| (f.path, f.data)).collect();
    assert_eq!(by_path.len(), expect.len(), "session {session} file count");
    for f in expect {
        assert_eq!(by_path.get(&f.path), Some(&f.data), "session {session} file {}", f.path);
    }
}

/// A repository with `sessions` churned sessions, the first `deleted` of
/// them already deleted — dead chunks stranded in shared containers.
fn churned_repository(
    sessions: usize,
    deleted: usize,
    workers: usize,
) -> (Arc<ObjectStore>, Vec<Vec<MemoryFile>>) {
    let inner = Arc::new(ObjectStore::new());
    let mut engine = AaDedupe::with_config(
        cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
        config_with(workers),
    );
    let mut corpus = Vec::new();
    for s in 0..sessions {
        let files = churn_files(s);
        backup(&mut engine, &files);
        corpus.push(files);
    }
    for s in 0..deleted {
        engine.delete_session(s).expect("delete");
    }
    (inner, corpus)
}

#[test]
fn vacuum_reclaims_space_and_preserves_every_restore() {
    for workers in [1usize, 4] {
        let (inner, corpus) = churned_repository(6, 3, workers);
        let mut engine = AaDedupe::open(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(workers),
        )
        .expect("open");
        let report = engine.vacuum(&VacuumOptions::default()).expect("vacuum");
        assert!(!report.dry_run);
        assert!(report.containers_rewritten > 0, "workers={workers}: churn must leave prey");
        assert!(report.bytes_reclaimed > 0, "workers={workers}");
        assert!(
            report.stored_bytes_after < report.stored_bytes_before,
            "workers={workers}: {report:?}"
        );
        // Six sessions synced six snapshots; only the newest survives.
        assert_eq!(report.snapshots_pruned, 5, "workers={workers}");
        assert_eq!(inner.list("aa-dedupe/index/"), ["aa-dedupe/index/00000005"]);
        // Every retained session restores bit-exactly through the
        // vacuumed engine...
        for (s, files) in corpus.iter().enumerate().skip(3) {
            assert_restores_bit_exact(&engine, s, files);
        }
        // ...and through a cold reopen over the bare store.
        let cold = AaDedupe::open(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(workers),
        )
        .expect("cold reopen");
        assert_eq!(cold.orphans_swept(), 0, "workers={workers}: vacuum left orphans");
        for (s, files) in corpus.iter().enumerate().skip(3) {
            assert_restores_bit_exact(&cold, s, files);
        }
    }
}

#[test]
fn vacuum_rerun_is_idempotent() {
    let (inner, _corpus) = churned_repository(6, 3, 1);
    let mut engine = AaDedupe::open(
        cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
        config_with(1),
    )
    .expect("open");
    let first = engine.vacuum(&VacuumOptions::default()).expect("first pass");
    assert!(first.containers_rewritten > 0);
    let second = engine.vacuum(&VacuumOptions::default()).expect("second pass");
    assert_eq!(second.containers_rewritten, 0, "{second:?}");
    assert_eq!(second.containers_deleted, 0, "{second:?}");
    assert_eq!(second.bytes_reclaimed, 0, "{second:?}");
    assert_eq!(second.stored_bytes_after, first.stored_bytes_after);
}

#[test]
fn dry_run_mutates_nothing_and_predicts_the_real_pass() {
    let (inner, _corpus) = churned_repository(6, 3, 1);
    let listing_before: Vec<String> = inner.list("aa-dedupe/");
    let bytes_before = inner.stored_bytes();

    let mut engine = AaDedupe::open(
        cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
        config_with(1),
    )
    .expect("open");
    let dry =
        engine.vacuum(&VacuumOptions { dry_run: true, ..VacuumOptions::default() }).expect("dry");
    assert!(dry.dry_run);
    assert!(dry.containers_rewritten > 0);
    assert_eq!(inner.list("aa-dedupe/"), listing_before, "dry run wrote or deleted objects");
    assert_eq!(inner.stored_bytes(), bytes_before);
    assert_eq!(dry.stored_bytes_after, dry.stored_bytes_before);

    // The engine is untouched: a real pass right after sees the same work
    // and reclaims at least what the dry run predicted (deletes can only
    // add sweep-debt objects the dry run also counted).
    let real = engine.vacuum(&VacuumOptions::default()).expect("real");
    assert_eq!(real.containers_rewritten, dry.containers_rewritten);
    assert_eq!(real.relocations, dry.relocations);
    assert_eq!(real.bytes_reclaimed, dry.bytes_reclaimed);
    assert_eq!(real.containers_deleted, dry.containers_deleted);
}

/// Every object of a namespace, key and bytes.
fn namespace(store: &ObjectStore) -> Vec<(String, Vec<u8>)> {
    let object = |key: String| {
        let bytes = store.get(&key).expect("get").expect("listed key present");
        (key, bytes.to_vec())
    };
    store.list("").into_iter().map(object).collect()
}

#[test]
fn a_dry_run_leaves_the_next_sessions_ids_alone() {
    // A dry run plans fresh containers without taking their ids, so the
    // next session writes exactly what it writes without the dry run.
    let next = churn_files(6);
    let mut namespaces = Vec::new();
    for dry_run in [false, true] {
        let (inner, _corpus) = churned_repository(6, 3, 1);
        let mut engine = AaDedupe::open(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(1),
        )
        .expect("open");
        if dry_run {
            let opts = VacuumOptions { dry_run: true, ..VacuumOptions::default() };
            let report = engine.vacuum(&opts).expect("dry run");
            assert!(report.containers_created > 0, "the dry run must plan new containers");
        }
        backup(&mut engine, &next);
        namespaces.push(namespace(&inner));
    }
    assert!(namespaces[0] == namespaces[1], "a dry run changed what the next session wrote");
}

#[test]
fn backup_after_vacuum_dedups_identically() {
    // Vacuum must be invisible to dedup: the same next session over a
    // vacuumed and an un-vacuumed clone of the repository must produce
    // identical dedup decisions (placements move, fingerprints do not).
    let next = churn_files(7);
    let mut reports = Vec::new();
    for vacuum in [false, true] {
        let (inner, _corpus) = churned_repository(6, 3, 1);
        let mut engine = AaDedupe::open(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(1),
        )
        .expect("open");
        if vacuum {
            let r = engine.vacuum(&VacuumOptions::default()).expect("vacuum");
            assert!(r.containers_rewritten > 0);
        }
        let sources: Vec<&dyn SourceFile> = next.iter().map(|f| f as &dyn SourceFile).collect();
        let report = engine.backup_session(&sources).expect("backup after vacuum");
        assert_restores_bit_exact(&engine, 6, &next);
        reports.push((report.stored_bytes, report.chunks_duplicate, report.chunks_total));
    }
    assert_eq!(reports[0], reports[1], "vacuum changed dedup behavior");
}

#[test]
fn poisoned_engine_refuses_to_vacuum() {
    use aa_dedupe::core::BackupError;
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let faulty: Arc<dyn ObjectBackend> = Arc::new(FaultInjectingBackend::new(
        Arc::clone(&inner),
        FaultPlan::new(7).fail_prefix_puts("aa-dedupe/containers/", u32::MAX, false),
    ));
    let mut engine = AaDedupe::with_config(cloud_over(faulty), config_with(1));
    let files = churn_files(0);
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect_err("permanent fault poisons");
    let err = engine.vacuum(&VacuumOptions::default()).expect_err("poisoned");
    assert!(matches!(err, BackupError::Poisoned(_)), "{err:?}");
}

// ---------------------------------------------------------------------------
// The acceptance drill: a 20-session churned corpus under keep-last-5
// retention must reclaim at least 30% of stored bytes, without touching
// the retained sessions or the dedup ratio of subsequent backups.
// ---------------------------------------------------------------------------

/// One session of the longitudinal corpus: a stable archive, a growing
/// append-only log, and a rolling window of three per-session unique
/// "photo imports" — the kind of churn (media comes, media goes) that
/// strands dead chunks inside shared containers.
fn longitudinal_session(s: usize) -> Vec<MemoryFile> {
    let mut files = vec![
        MemoryFile::new("user/doc/archive.doc", b"stable archived words ".repeat(14_000)),
        MemoryFile::new(
            "user/txt/journal.txt",
            (0..=s).flat_map(|w| format!("week {w} journal entry ").repeat(1200).into_bytes()).collect::<Vec<u8>>(),
        ),
    ];
    for roll in s.saturating_sub(2)..=s {
        files.push(MemoryFile::new(
            format!("user/jpg/roll-{roll:03}.jpg"),
            (0..250_000u32).map(|i| ((i as usize).wrapping_mul(roll + 7) % 253) as u8).collect::<Vec<u8>>(),
        ));
    }
    files
}

#[test]
fn longitudinal_churn_with_keep_last_five_reclaims_thirty_percent() {
    const WEEKS: usize = 20;
    const KEEP: usize = 5;
    let build = |apply_vacuum: bool| {
        let inner = Arc::new(ObjectStore::new());
        let mut engine = AaDedupe::with_config(
            cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
            config_with(1),
        );
        let mut corpus = Vec::new();
        for week in 0..WEEKS {
            let files = longitudinal_session(week);
            backup(&mut engine, &files);
            corpus.push(files);
        }
        let before = inner.stored_bytes();
        let retention =
            engine.apply_retention(&RetentionPolicy::KeepLast(KEEP)).expect("retention");
        assert_eq!(retention.examined, WEEKS);
        assert_eq!(retention.retained, KEEP);
        assert_eq!(retention.deleted, WEEKS - KEEP);
        let vacuum_report = apply_vacuum
            .then(|| engine.vacuum(&VacuumOptions::default()).expect("vacuum"));
        let after = inner.stored_bytes();
        // Retained sessions restore bit-exactly, deleted ones are gone.
        for week in 0..WEEKS - KEEP {
            assert!(engine.restore_session(week).is_err(), "week {week} deleted");
        }
        for (week, files) in corpus.iter().enumerate().skip(WEEKS - KEEP) {
            assert_restores_bit_exact(&engine, week, files);
        }
        // The next backup after pruning: its dedup behavior is the
        // vacuum-invariance probe.
        let next = longitudinal_session(WEEKS);
        let sources: Vec<&dyn SourceFile> = next.iter().map(|f| f as &dyn SourceFile).collect();
        let report = engine.backup_session(&sources).expect("week 20");
        assert_restores_bit_exact(&engine, WEEKS, &next);
        (before, after, vacuum_report, (report.stored_bytes, report.chunks_duplicate))
    };

    let (before, after, vacuum_report, dedup_with_vacuum) = build(true);
    let vacuum_report = vacuum_report.expect("vacuum ran");
    assert!(vacuum_report.bytes_reclaimed > 0, "{vacuum_report:?}");
    let reclaimed = before - after;
    assert!(
        reclaimed as f64 >= 0.30 * before as f64,
        "retention+vacuum reclaimed {reclaimed} of {before} bytes ({:.1}%), need >= 30%",
        100.0 * reclaimed as f64 / before as f64
    );

    // Control: the same pruning without vacuum. The subsequent backup's
    // dedup decisions must be identical — vacuum moves placements, never
    // fingerprints.
    let (_, control_after, _, dedup_without_vacuum) = build(false);
    assert_eq!(dedup_with_vacuum, dedup_without_vacuum, "vacuum changed the dedup ratio");
    assert!(after < control_after, "vacuum reclaimed nothing beyond retention");
}

// ---------------------------------------------------------------------------
// Crash drills: crash-stop the backend at every backend operation of
// open + vacuum; every retained session must stay restorable, and a rerun
// must converge.
// ---------------------------------------------------------------------------

#[test]
fn vacuum_crash_at_every_operation_preserves_all_sessions() {
    for workers in [1usize, 4] {
        const SESSIONS: usize = 4;
        const DELETED: usize = 2;
        // Dry run: count backend operations of open + vacuum.
        let total_ops = {
            let (inner, _) = churned_repository(SESSIONS, DELETED, workers);
            let counting = Arc::new(FaultInjectingBackend::new(
                Arc::clone(&inner) as Arc<dyn ObjectBackend>,
                FaultPlan::new(0),
            ));
            let mut e = AaDedupe::open(
                cloud_over(counting.clone() as Arc<dyn ObjectBackend>),
                config_with(workers),
            )
            .expect("open");
            let report = e.vacuum(&VacuumOptions::default()).expect("clean vacuum");
            assert!(report.containers_rewritten > 0, "drill needs a non-trivial pass");
            counting.ops_attempted()
        };
        assert!(total_ops >= 5, "expected open+vacuum traffic, got {total_ops}");

        for crash_at in 1..=total_ops {
            let (inner, corpus) = churned_repository(SESSIONS, DELETED, workers);
            let crashing = Arc::new(FaultInjectingBackend::new(
                Arc::clone(&inner) as Arc<dyn ObjectBackend>,
                FaultPlan::new(0).crash_at_op(crash_at),
            ));
            // Crash anywhere during open + vacuum; failures are expected.
            if let Ok(mut e) = AaDedupe::open(
                cloud_over(crashing.clone() as Arc<dyn ObjectBackend>),
                config_with(workers),
            ) {
                let _interrupted = e.vacuum(&VacuumOptions::default());
            }

            // Recovery: reopen over the bare store. Every retained
            // session restores bit-exactly whatever the crash point.
            let e = AaDedupe::open(
                cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>),
                config_with(workers),
            )
            .unwrap_or_else(|err| {
                panic!("workers={workers} crash_at={crash_at}: reopen failed: {err}")
            });
            for (s, files) in corpus.iter().enumerate().skip(DELETED) {
                assert_restores_bit_exact(&e, s, files);
            }

            // And a rerun converges: vacuum to completion, verify again.
            let mut e = e;
            e.vacuum(&VacuumOptions::default()).unwrap_or_else(|err| {
                panic!("workers={workers} crash_at={crash_at}: rerun failed: {err}")
            });
            for (s, files) in corpus.iter().enumerate().skip(DELETED) {
                assert_restores_bit_exact(&e, s, files);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The property: random sessions over a shared content pool, a random strict
// subset of them deleted, then vacuum at any ratio and container size.
// ---------------------------------------------------------------------------

/// `len` deterministic pseudo-random bytes (xorshift64) seeded by `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

/// One session drawn from a small content pool: bit `i` of `pick` includes
/// pool entry `i`, at edit `version`. Stable entries dedupe across sessions
/// and versioned ones die with theirs, so deletes strand dead chunks next
/// to live ones.
fn pool_session(pick: u8, version: u8) -> Vec<MemoryFile> {
    let v = u64::from(version);
    let note = format!("shared tiny note, edition {}", version % 2).into_bytes();
    let mut edited = noise(1, 8_000);
    edited.extend(noise(100 + v, 6_000));
    let journal = noise(5, 2_000 + 1_500 * usize::from(version));
    let pool = [
        // The same tiny file under two paths: one fingerprint at two
        // offsets of the tiny stream.
        vec![
            MemoryFile::new("user/txt/a.txt", note.clone()),
            MemoryFile::new("user/txt/b.txt", note),
        ],
        vec![MemoryFile::new("user/doc/stable.doc", noise(2, 14_000))],
        vec![MemoryFile::new("user/doc/edited.doc", edited)],
        vec![MemoryFile::new("user/pdf/stable.pdf", noise(3, 12_288))],
        vec![MemoryFile::new("user/pdf/weekly.pdf", noise(200 + v, 11_000))],
        // Whole-file chunked and larger than any container: oversized.
        vec![MemoryFile::new("user/mp3/weekly.mp3", noise(300 + v, 20_000))],
        vec![MemoryFile::new(format!("user/txt/log-{version}.txt"), noise(400 + v, 3_000))],
        vec![MemoryFile::new("user/txt/journal.txt", journal)],
    ];
    pool.into_iter().enumerate().filter(|(i, _)| pick >> i & 1 == 1).flat_map(|(_, f)| f).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vacuum never costs a restorable byte and never reuses an id: every
    /// retained session restores bit-exactly through the engine and through
    /// a cold open that finds nothing to sweep; every created container
    /// parses, verifies and keeps to the container size unless it holds a
    /// single chunk; the dry run predicts the real pass; and a backup after
    /// the pass leaves every session restorable.
    #[test]
    fn vacuum_preserves_restores_and_mints_fresh_ids(
        picks in proptest::collection::vec((any::<u8>(), 0u8..3), 2..6),
        deleted in any::<u8>(),
        container_kib in 4usize..=16,
        ratio in 0usize..5,
        pipelined in any::<bool>(),
    ) {
        let ratio = [0.0, 0.25, 0.5, 0.75, 1.0][ratio];
        // Small chunks, so most containers hold several.
        let config = AaDedupeConfig {
            container_size: container_kib * 1024,
            sc_chunk_size: 1024,
            cdc: CdcParams { min_size: 256, avg_size: 1024, max_size: 4096, ..DEFAULT_CDC },
            ..config_with(if pipelined { 4 } else { 1 })
        };
        let inner = Arc::new(ObjectStore::new());
        let cloud = || cloud_over(Arc::clone(&inner) as Arc<dyn ObjectBackend>);
        let mut engine = AaDedupe::with_config(cloud(), config.clone());
        let corpus: Vec<Vec<MemoryFile>> =
            picks.iter().map(|&(pick, version)| pool_session(pick, version)).collect();
        for files in &corpus {
            backup(&mut engine, files);
        }
        // A strict subset: the last session always survives.
        let retained: Vec<usize> =
            (0..corpus.len()).filter(|&s| s + 1 == corpus.len() || deleted >> s & 1 == 0).collect();
        for s in (0..corpus.len()).filter(|s| !retained.contains(s)) {
            engine.delete_session(s).expect("delete");
        }
        let containers = "aa-dedupe/containers/";
        let listed_before: BTreeSet<String> = inner.list(containers).into_iter().collect();

        let dry = engine.vacuum(&VacuumOptions { ratio, dry_run: true }).expect("dry run");
        prop_assert_eq!(inner.list(containers).len(), listed_before.len());
        let real = engine.vacuum(&VacuumOptions { ratio, dry_run: false }).expect("vacuum");
        let plan = |r: &aa_dedupe::core::VacuumReport| {
            (r.containers_rewritten, r.containers_created, r.relocations, r.bytes_reclaimed)
        };
        prop_assert_eq!(plan(&dry), plan(&real));

        // Keys listed now but not before are the pass's containers; one
        // fewer than it created would mean an id was taken twice.
        let created: Vec<String> =
            inner.list(containers).into_iter().filter(|k| !listed_before.contains(k)).collect();
        prop_assert_eq!(created.len(), real.containers_created);
        for key in &created {
            let bytes = inner.get(key).expect("get").expect("created container present");
            let parsed = ParsedContainer::parse(&bytes).expect("created container parses");
            parsed.verify().expect("created container verifies");
            prop_assert!(
                bytes.len() <= config.container_size || parsed.descriptors.len() == 1,
                "{key}: {} bytes in {} chunks", bytes.len(), parsed.descriptors.len()
            );
        }

        let cold = AaDedupe::open(cloud(), config.clone()).expect("cold open");
        prop_assert_eq!(cold.orphans_swept(), 0);
        for &s in &retained {
            assert_restores_bit_exact(&engine, s, &corpus[s]);
            assert_restores_bit_exact(&cold, s, &corpus[s]);
        }

        // A session after the pass takes ids of its own.
        let next = pool_session(u8::MAX, 3);
        backup(&mut engine, &next);
        for &s in &retained {
            assert_restores_bit_exact(&engine, s, &corpus[s]);
        }
        assert_restores_bit_exact(&engine, corpus.len(), &next);
    }
}

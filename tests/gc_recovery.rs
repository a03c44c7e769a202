//! GC regressions: session deletion, alone and after disaster recovery
//! (`recover_index_from_cloud`).
//!
//! The engine once kept its own incremental copy of what is live
//! (per-chunk and per-container reference counts), and every bug pinned
//! here was that copy drifting from the committed manifests:
//!
//! 1. Recovery restored the index but left the per-container counts
//!    empty, so the first `delete_session` after a recovery panicked
//!    (later: refused with a typed error). Deletion now folds the
//!    manifests itself and needs no state of its own.
//! 2. `delete_session` removes index entries in memory but uploads no
//!    fresh snapshot, so a later recovery resurrected the deleted
//!    fingerprints from the stale snapshot; backing up the same data
//!    again then deduplicated against containers that no longer exist —
//!    silently unrestorable sessions. Recovery must install what the
//!    live manifests say, not what the snapshot says.
//! 3. The tiny-file cache was never told about a deletion, so an
//!    unchanged tiny file was carried forward into a reclaimed container.

use std::sync::Arc;

use aa_dedupe::cloud::{CloudSim, ObjectBackend, ObjectStore, PriceModel, WanModel};
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupError, BackupScheme};
use aa_dedupe::filetype::{MemoryFile, SourceFile};

fn cloud_over(backend: Arc<dyn ObjectBackend>) -> CloudSim {
    CloudSim::with_backend(backend, WanModel::paper_defaults(), PriceModel::s3_april_2011())
}

fn config() -> AaDedupeConfig {
    AaDedupeConfig::default()
}

fn base_files() -> Vec<MemoryFile> {
    vec![
        MemoryFile::new("user/doc/a.doc", b"important words ".repeat(4000)),
        MemoryFile::new("user/pdf/b.pdf", vec![0x42; 120_000]),
        MemoryFile::new("user/txt/note.txt", b"tiny note".to_vec()),
    ]
}

fn changed_files() -> Vec<MemoryFile> {
    let mut files = base_files();
    files[0] = MemoryFile::new("user/doc/a.doc", b"important words ".repeat(4500));
    files.push(MemoryFile::new("user/jpg/new.jpg", vec![9u8; 60_000]));
    files
}

fn backup(engine: &mut AaDedupe, files: &[MemoryFile]) {
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("backup");
}

fn assert_restores_bit_exact(engine: &AaDedupe, session: usize, expect: &[MemoryFile]) {
    let restored = engine.restore_session(session).expect("restore");
    let by_path: std::collections::BTreeMap<_, _> =
        restored.into_iter().map(|f| (f.path, f.data)).collect();
    assert_eq!(by_path.len(), expect.len(), "session {session} file count");
    for f in expect {
        assert_eq!(by_path.get(&f.path), Some(&f.data), "session {session} file {}", f.path);
    }
}

#[test]
fn delete_after_recovery_succeeds() {
    // Regression for bug 1: the recovered engine must be able to delete.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let (files, changed) = (base_files(), changed_files());
    {
        let mut e0 = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
        backup(&mut e0, &files);
        backup(&mut e0, &changed);
    }
    // Disaster recovery onto a blank engine, then delete the old session.
    let mut e = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
    e.recover_index_from_cloud().expect("recover");
    e.delete_session(0).expect("delete after recovery must not panic or fail");
    assert!(e.restore_session(0).is_err(), "session 0 is gone");
    assert_restores_bit_exact(&e, 1, &changed);
    // The shared chunks' containers survived the delete's sweep.
    assert!(!inner.list("aa-dedupe/containers/").is_empty());
}

#[test]
fn delete_needs_no_state_of_its_own() {
    // Deletion reads liveness from the manifests, so a blank engine pointed
    // at a populated repository deletes exactly as an opened one does.
    let (files, changed) = (base_files(), changed_files());
    let repository = || {
        let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
        let mut e0 = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
        backup(&mut e0, &files);
        backup(&mut e0, &changed);
        inner
    };
    let (a, b) = (repository(), repository());
    let mut blank = AaDedupe::with_config(cloud_over(Arc::clone(&a)), config());
    let mut opened = AaDedupe::open(cloud_over(Arc::clone(&b)), config()).expect("open");
    blank.delete_session(0).expect("delete through a blank engine");
    opened.delete_session(0).expect("delete through an opened engine");
    assert_eq!(a.list(""), b.list(""), "both reclaimed exactly the same containers");
    for engine in [&mut blank, &mut opened] {
        let err = engine.delete_session(0).expect_err("second delete");
        assert!(matches!(err, BackupError::UnknownSession(0)), "{err:?}");
        assert_restores_bit_exact(engine, 1, &changed);
    }
}

#[test]
fn tiny_file_is_not_carried_into_a_reclaimed_container() {
    // Regression for bug 3. Session 1 is the only one that references the
    // tiny file's container; deleting it reclaims the container, so the
    // next session must pack the unchanged tiny file anew.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let files = base_files();
    let mut e = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
    backup(&mut e, &files[..2]);
    backup(&mut e, &files);
    e.delete_session(1).expect("delete");
    backup(&mut e, &files);
    assert_restores_bit_exact(&e, 2, &files);
    let verifier = AaDedupe::open(cloud_over(Arc::clone(&inner)), config()).expect("open");
    assert_restores_bit_exact(&verifier, 2, &files);
}

#[test]
fn recovery_does_not_resurrect_deleted_fingerprints() {
    // Regression for bug 2: backup -> delete -> recover -> backup the
    // same data again -> restore must be bit-exact. With a stale-snapshot
    // recovery the second backup dedups against deleted containers and
    // the restore fails.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    let files = base_files();
    {
        let mut e0 = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
        backup(&mut e0, &files);
        // An extra session so a manifest (and its index snapshot) remains
        // after the delete — the resurrection scenario needs a snapshot
        // that still lists session 0's fingerprints.
        backup(&mut e0, &changed_files());
        e0.delete_session(0).expect("delete");
    }
    let mut e = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
    e.recover_index_from_cloud().expect("recover");
    // Back up the *same* data the deleted session held. Every chunk the
    // recovered index remembers must point at a container that exists.
    backup(&mut e, &files);
    let session = e.sessions_completed() - 1;
    assert_restores_bit_exact(&e, session, &files);

    // And a fully fresh engine (no shared in-memory state) agrees.
    let verifier = AaDedupe::open(cloud_over(Arc::clone(&inner)), config()).expect("open");
    assert_restores_bit_exact(&verifier, session, &files);
}

#[test]
fn recovery_rebuilds_refcounts_that_match_open() {
    // Deleting every session through a recovered engine reclaims every
    // container, as it would through a freshly opened one.
    let inner: Arc<dyn ObjectBackend> = Arc::new(ObjectStore::new());
    {
        let mut e0 = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
        backup(&mut e0, &base_files());
        backup(&mut e0, &changed_files());
    }
    let mut e = AaDedupe::with_config(cloud_over(Arc::clone(&inner)), config());
    e.recover_index_from_cloud().expect("recover");
    e.delete_session(0).expect("delete 0");
    e.delete_session(1).expect("delete 1");
    let leftover = inner.list("aa-dedupe/containers/");
    assert!(leftover.is_empty(), "leaked containers: {leftover:?}");
}

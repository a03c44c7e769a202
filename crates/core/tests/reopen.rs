//! Engine state resumption: `AaDedupe::open` over an existing namespace.

use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme, VacuumOptions};
use aadedupe_filetype::{MemoryFile, SourceFile};
use aadedupe_index::codec::encode_app_aware;
use aadedupe_metrics::SessionReport;

fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
    files.iter().map(|f| f as &dyn SourceFile).collect()
}

/// Every object of a cloud namespace, key and bytes.
type Namespace = Vec<(String, Vec<u8>)>;

fn namespace(cloud: &CloudSim) -> Namespace {
    let store = cloud.store();
    let object = |key: &String| {
        let bytes = store.get(key).expect("get").expect("listed key present");
        (key.clone(), bytes.to_vec())
    };
    store.list("").iter().map(object).collect()
}

/// The deterministic fields of a session report.
fn counters(r: &SessionReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.session, r.logical_bytes, r.stored_bytes, r.transferred_bytes, r.put_requests),
        (r.chunks_total, r.chunks_duplicate, r.files_total, r.files_tiny, r.index_disk_reads),
    )
}

fn week(version: u8) -> Vec<MemoryFile> {
    vec![
        MemoryFile::new("user/doc/a.doc", vec![version; 60_000]),
        MemoryFile::new("user/pdf/shared.pdf", b"stable across versions ".repeat(2000)),
        MemoryFile::new("user/tiny/t.txt", vec![version; 100]),
    ]
}

#[test]
fn open_on_fresh_namespace_is_a_fresh_engine() {
    let cloud = CloudSim::with_paper_defaults();
    let engine = AaDedupe::open(cloud, AaDedupeConfig::default()).expect("open");
    assert_eq!(engine.sessions_completed(), 0);
    assert_eq!(engine.index().len(), 0);
    assert!(engine.list_sessions().is_empty());
}

#[test]
fn open_resumes_sessions_and_dedup_state() {
    let cloud = CloudSim::with_paper_defaults();
    let mut first = AaDedupe::new(cloud.clone());
    let w0 = week(1);
    let w1 = week(2);
    first.backup_session(&sources(&w0)).expect("s0");
    let r1 = first.backup_session(&sources(&w1)).expect("s1");
    // The unchanged PDF deduped in session 1.
    assert!(r1.chunks_duplicate > 0);
    let index_len = first.index().len();
    drop(first);

    // Reopen from the cloud alone.
    let mut reopened = AaDedupe::open(cloud, AaDedupeConfig::default()).expect("open");
    assert_eq!(reopened.sessions_completed(), 2);
    assert_eq!(reopened.list_sessions(), vec![0, 1]);
    assert_eq!(reopened.index().len(), index_len, "index rebuilt from manifests");

    // A third session over week-2 data dedupes fully against resumed state.
    let r2 = reopened.backup_session(&sources(&w1)).expect("s2");
    // Only the tiny file (which bypasses the index by design) re-stores.
    assert_eq!(r2.stored_bytes, 100, "resumed index must recognise all indexed chunks");

    // Deletion works on a resumed engine: drop the two old
    // sessions; session 2 must survive with the shared PDF intact.
    reopened.delete_session(0).expect("delete 0");
    reopened.delete_session(1).expect("delete 1");
    let restored = reopened.restore_session(2).expect("restore 2");
    let pdf = restored.iter().find(|f| f.path.ends_with("shared.pdf")).expect("pdf");
    assert_eq!(pdf.data, w1[1].data);
}

#[test]
fn restore_file_fetches_single_path() {
    let cloud = CloudSim::with_paper_defaults();
    let mut engine = AaDedupe::new(cloud);
    let files = week(3);
    engine.backup_session(&sources(&files)).expect("backup");
    let got = engine.restore_file(0, "user/doc/a.doc").expect("restore_file");
    assert_eq!(got.data, files[0].data);
    assert!(engine.restore_file(0, "user/doc/missing.doc").is_err());
    assert!(engine.restore_file(9, "user/doc/a.doc").is_err());
}

#[test]
fn open_tolerates_index_sync_disabled() {
    // open() rebuilds from the manifests and reads no snapshot, so a
    // repository whose snapshot is gone or corrupt opens, and carries on,
    // exactly like the untouched one.
    fn repository() -> CloudSim {
        let cloud = CloudSim::with_paper_defaults();
        AaDedupe::new(cloud.clone()).backup_session(&sources(&week(4))).expect("backup");
        cloud
    }
    /// What `open` rebuilt, then what the next session reported and left
    /// in the cloud — every object but the `tampered` ones.
    fn reopened(cloud: CloudSim, tampered: &[String]) -> (Vec<u8>, usize, SessionReport, Namespace) {
        let mut engine = AaDedupe::open(cloud, AaDedupeConfig::default()).expect("open");
        let index = encode_app_aware(engine.index());
        let sessions = engine.sessions_completed();
        let report = engine.backup_session(&sources(&week(4))).expect("next session");
        let mut objects = namespace(engine.cloud());
        objects.retain(|(key, _)| !tampered.contains(key));
        (index, sessions, report, objects)
    }
    let snapshots = |cloud: &CloudSim| cloud.store().list("aa-dedupe/index/");

    let control = repository();
    let tampered = snapshots(&control);
    assert_eq!(tampered.len(), 1, "one session, one snapshot");
    let (index, sessions, report, objects) = reopened(control, &tampered);
    assert_eq!(sessions, 1);
    assert_eq!(report.stored_bytes, 100, "only the tiny file re-stores");

    let deleted = repository();
    for key in snapshots(&deleted) {
        deleted.delete(&key).expect("delete snapshot");
    }
    let corrupted = repository();
    for key in snapshots(&corrupted) {
        assert!(corrupted.store().corrupt(&key, 3), "corrupt snapshot");
    }
    for (label, cloud) in [("deleted", deleted), ("corrupted", corrupted)] {
        let got = reopened(cloud, &tampered);
        assert_eq!(got.0, index, "{label}: index");
        assert_eq!(got.1, sessions, "{label}: session count");
        assert_eq!(counters(&got.2), counters(&report), "{label}: next session");
        assert!(got.3 == objects, "{label}: next session's namespace");
    }
}

#[test]
fn a_delete_leaves_what_a_reopen_would_find() {
    // Deletion is `open`'s fold over the other manifests, and vacuum ends
    // in the same settle over the rewritten ones: the engine that deleted
    // (and vacuumed) and an engine opened over the same repository
    // afterwards hold the same index, and neither left garbage for `open`
    // to sweep.
    fn changed(vacuum: bool) -> AaDedupe {
        let mut engine = AaDedupe::new(CloudSim::with_paper_defaults());
        for version in 1..=3 {
            engine.backup_session(&sources(&week(version))).expect("backup");
        }
        engine.delete_session(1).expect("delete 1");
        if vacuum {
            let opts = VacuumOptions { ratio: 1.0, dry_run: false };
            let report = engine.vacuum(&opts).expect("vacuum");
            assert!(report.containers_rewritten > 0, "the vacuum must move chunks: {report:?}");
        }
        engine
    }
    for (label, vacuum) in [("delete", false), ("delete + vacuum", true)] {
        let mut long_lived = changed(vacuum);
        let cloud = changed(vacuum).cloud().clone();
        let mut reopened = AaDedupe::open(cloud, AaDedupeConfig::default()).expect("open");

        assert_eq!(
            encode_app_aware(long_lived.index()),
            encode_app_aware(reopened.index()),
            "{label}: index"
        );
        assert_eq!(reopened.orphans_swept(), 0, "{label}: nothing was left to sweep");
        assert_eq!(long_lived.sessions_completed(), 3, "{label}");
        assert_eq!(reopened.sessions_completed(), 3, "{label}");

        // The next session decides, counts and writes the same on both.
        // (Its tiny file differs from week 3's: the tiny-file cache is the
        // one thing a reopen does not rebuild.)
        let next = week(2);
        let a = long_lived.backup_session(&sources(&next)).expect("next after the change");
        let b = reopened.backup_session(&sources(&next)).expect("next after reopen");
        assert_eq!(counters(&a), counters(&b), "{label}: next session");
        assert_eq!(namespace(long_lived.cloud()), namespace(reopened.cloud()), "{label}");
    }
}

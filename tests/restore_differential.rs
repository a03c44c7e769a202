//! Differential test: the pipelined container-major restore engine must be
//! observationally identical to the serial restore oracle.
//!
//! For a fixed manifest, `restore_session_pipelined` with any worker
//! count must return — bit for bit — the same files in the same order as
//! `restore_session`, and `restore_file` must match the corresponding
//! entry. This is the restore determinism contract of DESIGN.md §11; any
//! scheduling-dependent divergence in fetch order, scatter order or error
//! surfacing shows up here.
//!
//! Set `AA_DIFF_WORKERS=1,4,default` (comma-separated worker counts or
//! `default`, [`RestoreOptions::default`]) to restrict the worker matrix
//! — used by CI to split the sweep across jobs. Unset, it runs 1, 2, 4, 8
//! and the default.

use std::sync::Arc;

use aa_dedupe::cloud::{
    BackendError, CloudSim, ObjectBackend, ObjectStore, ObjectStoreStats, PriceModel, WanModel,
};
use aa_dedupe::container::format::HEADER_LEN;
use aa_dedupe::container::{ChunkDescriptor, ParsedContainer};
use aa_dedupe::core::{
    restore_session, restore_session_pipelined, AaDedupe, AaDedupeConfig, BackupError,
    BackupScheme, Manifest, PipelineConfig, RestoreOptions, RestoredFile, RetryPolicy,
};
use aa_dedupe::filetype::{MemoryFile, SourceFile};
use aa_dedupe::obs::Recorder;
use aa_dedupe::workload::{DatasetSpec, Generator, Snapshot};

const SEEDS: [u64; 3] = [11, 42, 1337];
const SESSIONS: usize = 2;
const SCHEME: &str = "aa-dedupe";

/// The restore options compared with the serial oracle, each with its label.
fn worker_matrix() -> Vec<(String, RestoreOptions)> {
    let spec = std::env::var("AA_DIFF_WORKERS").unwrap_or_else(|_| "1,2,4,8,default".into());
    spec.split(',')
        .map(|entry| match entry.trim() {
            "default" => {
                let opts = RestoreOptions::default();
                (format!("default ({})", opts.workers), opts)
            }
            n => {
                let workers = n.parse().expect("AA_DIFF_WORKERS entries: integers or `default`");
                (n.to_owned(), RestoreOptions { workers })
            }
        })
        .collect()
}

fn backed_up(sessions: &[Vec<&dyn SourceFile>]) -> CloudSim {
    let mut engine = AaDedupe::with_config(
        CloudSim::with_paper_defaults(),
        AaDedupeConfig { pipeline: PipelineConfig::with_workers(4), ..AaDedupeConfig::default() },
    );
    for sources in sessions {
        engine.backup_session(sources).expect("backup");
    }
    engine.cloud().clone()
}

/// A cloud over a bare [`ObjectStore`] the test keeps a handle on, to read
/// its GET counter and committed objects.
fn counted_cloud() -> (Arc<ObjectStore>, CloudSim) {
    let inner = Arc::new(ObjectStore::new());
    let cloud = CloudSim::with_backend(
        Arc::clone(&inner) as Arc<dyn ObjectBackend>,
        WanModel::paper_defaults(),
        PriceModel::s3_april_2011(),
    );
    (inner, cloud)
}

fn committed_manifest(inner: &ObjectStore, session: u64) -> Manifest {
    let bytes = inner.get(&Manifest::key(SCHEME, session)).unwrap().expect("manifest committed");
    Manifest::decode(&bytes).expect("decode")
}

fn pipelined(cloud: &CloudSim, session: u64, opts: &RestoreOptions) -> Vec<RestoredFile> {
    restore_session_pipelined(
        cloud,
        SCHEME,
        session,
        opts,
        &RetryPolicy::default(),
        &Recorder::disabled(),
    )
    .unwrap_or_else(|e| panic!("workers={}: {e}", opts.workers))
}

#[test]
fn pipelined_matches_serial_across_seeds_workers_and_caches() {
    for seed in SEEDS {
        let mut generator = Generator::new(DatasetSpec::tiny_test(), seed);
        let snaps: Vec<Snapshot> = (0..SESSIONS).map(|w| generator.snapshot(w)).collect();
        let sessions: Vec<Vec<&dyn SourceFile>> = snaps.iter().map(|s| s.as_sources()).collect();
        let cloud = backed_up(&sessions);
        for session in 0..SESSIONS as u64 {
            let serial = restore_session(&cloud, SCHEME, session).expect("serial oracle");
            for (workers, opts) in worker_matrix() {
                let label = format!("seed={seed} s={session} workers={workers}");
                let para = pipelined(&cloud, session, &opts);
                assert_eq!(serial.len(), para.len(), "{label}: file count");
                for (s, p) in serial.iter().zip(&para) {
                    assert_eq!(s.path, p.path, "{label}: order/path");
                    assert_eq!(s.data, p.data, "{label}: bytes of {}", s.path);
                }
            }
        }
    }
}

#[test]
fn restore_file_matches_the_session_entry_for_every_path() {
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEEDS[1]);
    let snap = generator.snapshot(0);
    let sessions = vec![snap.as_sources()];
    let cloud = backed_up(&sessions);
    let serial = restore_session(&cloud, SCHEME, 0).expect("serial oracle");
    assert!(!serial.is_empty());
    let engine = AaDedupe::open(cloud, AaDedupeConfig::default()).expect("open");
    for (workers, opts) in worker_matrix() {
        let mut e = engine.config().clone();
        e.restore = opts;
        let engine = AaDedupe::open(engine.cloud().clone(), e).expect("open");
        for expect in &serial {
            let got = engine
                .restore_file(0, &expect.path)
                .unwrap_or_else(|e| panic!("workers={workers} {}: {e}", expect.path));
            assert_eq!(&got, expect, "workers={workers}");
        }
    }
}

#[test]
fn restore_file_fetches_only_that_files_containers() {
    // The single-file regression: restoring one file must GET exactly
    // 1 (manifest) + the file's distinct container count — not the whole
    // session's container set.
    let (inner, cloud) = counted_cloud();
    // Small containers so the session spans many of them and a single
    // file references a strict subset.
    let config = AaDedupeConfig { container_size: 16 * 1024, ..AaDedupeConfig::default() };
    let mut engine = AaDedupe::with_config(cloud, config);
    let files = [
        MemoryFile::new("user/doc/a.doc", b"important words ".repeat(8000)),
        MemoryFile::new("user/pdf/b.pdf", (0..160_000u32).map(|i| (i % 241) as u8).collect()),
        MemoryFile::new("user/mp3/c.mp3", (0..120_000u32).map(|i| (i % 249) as u8).collect()),
    ];
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    engine.backup_session(&sources).expect("backup");

    let manifest = committed_manifest(&inner, 0);
    let session_containers: std::collections::HashSet<u64> =
        manifest.files.iter().flat_map(|f| f.chunks.iter().map(|c| c.container)).collect();

    for f in &manifest.files {
        let file_containers: std::collections::HashSet<u64> =
            f.chunks.iter().map(|c| c.container).collect();
        let before = inner.stats().get_requests;
        let restored = engine.restore_file(0, &f.path).expect("restore_file");
        let gets = inner.stats().get_requests - before;
        assert_eq!(
            gets,
            1 + file_containers.len() as u64,
            "{}: one manifest GET plus one GET per distinct container",
            f.path
        );
        let original = files.iter().find(|m| m.path == f.path).expect("source file");
        assert_eq!(restored.data, original.data, "{}", f.path);
    }
    // The point of the fix: at least one file references strictly fewer
    // containers than the session, so per-file GETs really are a subset.
    assert!(
        manifest.files.iter().any(|f| {
            let n: std::collections::HashSet<u64> =
                f.chunks.iter().map(|c| c.container).collect();
            n.len() < session_containers.len()
        }),
        "workload too small to distinguish per-file from per-session fetching"
    );
}

#[test]
fn every_container_is_fetched_exactly_once() {
    // Three sessions over small containers: later sessions reference
    // containers scattered over the earlier ones, far more than any fixed
    // window holds. Each restore must GET the manifest once and every
    // referenced container exactly once, and hold at most `workers`
    // verified containers (one per worker, from its verification to the
    // end of its scatter) — the RestoreVerified gauge is the witness.
    let (inner, cloud) = counted_cloud();
    let config = AaDedupeConfig { container_size: 16 * 1024, ..AaDedupeConfig::default() };
    let mut engine = AaDedupe::with_config(cloud.clone(), config);
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEEDS[1]);
    for week in 0..3 {
        engine.backup_session(&generator.snapshot(week).as_sources()).expect("backup");
    }

    for session in 0..3u64 {
        let manifest = committed_manifest(&inner, session);
        let distinct: std::collections::HashSet<u64> =
            manifest.files.iter().flat_map(|f| f.chunks.iter().map(|c| c.container)).collect();
        assert!(distinct.len() > 64, "session {session}: drill needs many containers");
        let serial = restore_session(&cloud, SCHEME, session).expect("serial oracle");

        for (workers, opts) in worker_matrix() {
            let label = format!("s={session} workers={workers}");
            let rec = Recorder::new();
            let before = inner.stats().get_requests;
            let restored = restore_session_pipelined(
                &cloud,
                SCHEME,
                session,
                &opts,
                &RetryPolicy::default(),
                &rec,
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            let gets = inner.stats().get_requests - before;
            assert_eq!(restored, serial, "{label}");
            assert_eq!(gets, 1 + distinct.len() as u64, "{label}: manifest + one GET per container");
            let gauge = rec.snapshot().restore_verified;
            assert!(gauge.hwm > 0, "{label}: the gauge must have moved");
            assert!(gauge.hwm <= opts.workers as u64, "{label}: {} containers held", gauge.hwm);
            assert_eq!(gauge.depth, 0, "{label}: every container handed over was dropped");
        }
    }
}

#[test]
fn of_two_corrupt_containers_the_earlier_in_plan_order_is_reported() {
    // Two containers hold a corrupt chunk. Whichever worker verifies which
    // first, the error names the container the manifest references first:
    // a pair far apart in plan order, and an adjacent pair that two
    // workers claim at nearly the same moment.
    let config = AaDedupeConfig { container_size: 16 * 1024, ..AaDedupeConfig::default() };
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEEDS[1]);
    let snap = generator.snapshot(0);
    let backed_up = || {
        let (inner, cloud) = counted_cloud();
        AaDedupe::with_config(cloud.clone(), config.clone())
            .backup_session(&snap.as_sources())
            .expect("backup");
        (inner, cloud)
    };
    let mut order: Vec<u64> = Vec::new();
    for c in committed_manifest(&backed_up().0, 0).files.iter().flat_map(|f| &f.chunks) {
        if !order.contains(&c.container) {
            order.push(c.container);
        }
    }
    assert!(order.len() > 16, "drill needs a spread of containers, got {}", order.len());

    let mid = order.len() / 2;
    for (early, late) in [(1, order.len() - 2), (mid, mid + 1)] {
        let (inner, cloud) = backed_up();
        for container in [order[early], order[late]] {
            // Flip a byte of the container's first chunk: every chunk of a
            // first session's container is referenced by it.
            let key = format!("{SCHEME}/containers/{container:012}");
            let raw = inner.get(&key).unwrap().expect("container committed");
            let parsed = ParsedContainer::parse(&raw).expect("parse");
            let desc_len: usize = parsed.descriptors.iter().map(ChunkDescriptor::encoded_len).sum();
            let first = HEADER_LEN + desc_len + parsed.descriptors[0].offset as usize;
            assert!(inner.corrupt(&key, first), "{key}");
        }
        let named = format!("chunk at {}:", order[early]);
        for (workers, opts) in worker_matrix() {
            for round in 0..40 {
                let label = format!("corrupt=({early},{late}) workers={workers} round={round}");
                let err = restore_session_pipelined(
                    &cloud,
                    SCHEME,
                    0,
                    &opts,
                    &RetryPolicy::default(),
                    &Recorder::disabled(),
                )
                .expect_err(&label);
                assert!(matches!(err, BackupError::Verification(_)), "{label}: {err:?}");
                assert!(err.to_string().contains(&named), "{label}: {err}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// list_sessions ordering regression.
// ---------------------------------------------------------------------------

/// A backend whose `list` returns keys in *reverse* lexicographic order —
/// the adversarial listing the `list_sessions` contract must survive.
struct ReverseListing(Arc<dyn ObjectBackend>);

impl ObjectBackend for ReverseListing {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<(), BackendError> {
        self.0.put(key, bytes)
    }
    fn get(&self, key: &str) -> Result<Option<Arc<Vec<u8>>>, BackendError> {
        self.0.get(key)
    }
    fn delete(&self, key: &str) -> Result<bool, BackendError> {
        self.0.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.0.contains(key)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        let mut keys = self.0.list(prefix);
        keys.reverse();
        keys
    }
    fn object_count(&self) -> usize {
        self.0.object_count()
    }
    fn stored_bytes(&self) -> u64 {
        self.0.stored_bytes()
    }
    fn stats(&self) -> ObjectStoreStats {
        self.0.stats()
    }
    fn corrupt(&self, key: &str, byte_index: usize) -> bool {
        self.0.corrupt(key, byte_index)
    }
}

#[test]
fn list_sessions_is_numerically_ascending_regardless_of_backend_order() {
    let scrambled: Arc<dyn ObjectBackend> =
        Arc::new(ReverseListing(Arc::new(ObjectStore::new())));
    let cloud = CloudSim::with_backend(
        scrambled,
        WanModel::paper_defaults(),
        PriceModel::s3_april_2011(),
    );
    let mut engine = AaDedupe::new(cloud);
    let f = MemoryFile::new("user/txt/x.txt", b"session zero ".repeat(2000));
    engine.backup_session(&[&f as &dyn SourceFile]).expect("session 0");
    // Past ten sessions so a lexicographic (or reversed) ordering of the
    // manifest keys can no longer masquerade as numeric.
    for s in 1..=11 {
        engine.backup_session(&[]).unwrap_or_else(|e| panic!("session {s}: {e}"));
    }
    let sessions = engine.list_sessions();
    assert_eq!(sessions, (0..=11).collect::<Vec<usize>>(), "ascending by session number");
}

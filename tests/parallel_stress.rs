//! Concurrency stress: colliding chunks racing through the pipeline.
//!
//! Two files of the same application type share identical content, so
//! every chunk of the second file collides with a chunk of the first.
//! With eight workers the chunk+hash stage races both files, and the
//! session thread must still make exactly one store decision per unique
//! fingerprint. A lost-update (insert racing lookup) or a double-append
//! would inflate `stored_bytes`; run the session in a loop so a rare
//! interleaving still has many chances to show up.
//!
//! The handoff itself: a batch chunked ahead of its turn waits until the
//! session thread reaches it, the chunked bytes waiting for their turn are
//! bounded, and a panic on a worker or on the session thread is re-raised
//! rather than waited for.
//!
//! `EXPERIMENTS.md` documents the ThreadSanitizer invocation that runs
//! this same binary under TSan.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aa_dedupe::filetype::{AppType, MemoryFile, SourceFile};

const ITERATIONS: usize = 16;

/// The pipeline's bound on chunked bytes waiting for their turn, in
/// containers (the engine's `AHEAD_CONTAINERS`).
const AHEAD_CONTAINERS: usize = 64;

/// (stored bytes, chunks, duplicate chunks) of one session.
type Counters = (u64, u64, u64);

/// Every cloud object a session left, with its bytes.
type Namespace = Vec<(String, Vec<u8>)>;

fn shared_content(len: usize) -> Vec<u8> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn sources<F: SourceFile>(files: &[F]) -> Vec<&dyn SourceFile> {
    files.iter().map(|f| f as &dyn SourceFile).collect()
}

fn run_once(files: &[MemoryFile], pipeline: PipelineConfig) -> Counters {
    backup(&sources(files), AaDedupeConfig { pipeline, ..AaDedupeConfig::default() }).0
}

fn backup(sources: &[&dyn SourceFile], config: AaDedupeConfig) -> (Counters, Namespace) {
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let r = engine.backup_session(sources).expect("backup");
    let store = engine.cloud().store();
    let objects = store
        .list("")
        .into_iter()
        .map(|key| {
            let bytes = store.get(&key).unwrap().expect("listed key present");
            (key, bytes.to_vec())
        })
        .collect();
    ((r.stored_bytes, r.chunks_total, r.chunks_duplicate), objects)
}

#[test]
fn colliding_chunks_never_double_count_stored_bytes() {
    // Two 64 KiB .doc files (static 8 KiB chunking, same AppType ⇒ same
    // index partition and container stream) with identical bytes: the
    // second file must dedup completely against the first.
    let content = shared_content(64 * 1024);
    let files = vec![
        MemoryFile::new("stress/a.doc".to_string(), content.clone()),
        MemoryFile::new("stress/b.doc".to_string(), content),
    ];

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    let (stored, total, duplicate) = serial;
    assert_eq!(stored, 64 * 1024, "serial: second file must fully dedup");
    assert_eq!(duplicate * 2, total, "serial: exactly half the chunks are duplicates");

    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(
            parallel, serial,
            "iteration {iteration}: (stored, total, duplicate) diverged under workers=8"
        );
    }
}

#[test]
fn many_identical_files_across_apps_stay_consistent() {
    // Harder interleaving: ten file pairs across several app types, each
    // pair internally identical. Streams race each other end-to-end but
    // per-pair dedup totals must match the serial run every iteration.
    let exts = ["doc", "pdf", "txt", "mp3", "zip"];
    let mut files = Vec::new();
    for (i, ext) in exts.iter().enumerate() {
        let content = shared_content(48 * 1024 + i * 4096);
        files.push(MemoryFile::new(format!("m/{i}a.{ext}"), content.clone()));
        files.push(MemoryFile::new(format!("m/{i}b.{ext}"), content));
    }

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(parallel, serial, "iteration {iteration}: dedup counters diverged");
    }
}

#[test]
fn one_application_taking_the_whole_job_list_stays_consistent() {
    // One application owns every big file, so one partition and one
    // container stream take the whole job list. Files differ in size (eight
    // workers finish out of order, so most batches wait for their turn) and
    // are prefixes of one another (every chunk of a shorter file collides
    // with a longer one). A stall in the cursor or the handoff hangs the
    // test, and a lost or repeated file shows in the counters.
    let content = shared_content(160 * 1024);
    let files: Vec<MemoryFile> = (0..24)
        .map(|i| {
            let len = 16 * 1024 * (1 + (i * 7) % 10);
            MemoryFile::new(format!("one/{i:02}.pdf"), content[..len].to_vec())
        })
        .collect();

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    assert_eq!(serial.0, 160 * 1024, "serial: only the longest prefix is stored");
    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(parallel, serial, "iteration {iteration}: dedup counters diverged");
    }
}

#[test]
fn later_files_wait_for_the_session_thread_to_reach_them() {
    // One application, files in descending size: the large early files are
    // still being chunked when the small later ones are done, so those wait
    // in the handoff until the session thread has deduped the files before
    // them. Windows of one buffer make the later files largely duplicates
    // of the earlier ones (CDC resynchronises on shifted bytes).
    let content = shared_content(192 * 1024);
    let files: Vec<MemoryFile> = (0..20)
        .map(|i| {
            let (at, len) = (i * 1000, (192 - 7 * i) * 1024 - i * 1000);
            MemoryFile::new(format!("later/{i:02}.doc"), content[at..at + len].to_vec())
        })
        .collect();
    let config = |workers| AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        ..AaDedupeConfig::default()
    };
    let (counters, namespace) = backup(&sources(&files), config(1));
    assert!(counters.2 > 0, "serial: later files share chunks with earlier ones");
    for workers in [2, 8] {
        for iteration in 0..ITERATIONS / 4 {
            let parallel = backup(&sources(&files), config(workers));
            let label = format!("workers={workers} iteration {iteration}");
            assert_eq!(parallel.0, counters, "{label}: (stored, total, duplicate) diverged");
            assert!(parallel.1 == namespace, "{label}: cloud namespace diverged");
        }
    }
}

/// Shared by one session's [`Gated`] files.
#[derive(Default)]
struct Gate {
    /// Reads but the held one.
    reads: AtomicUsize,
    /// `reads` when the held read was let go.
    read_while_closed: AtomicUsize,
    /// The held read panics instead of returning, once let go.
    panic: bool,
    /// When set, the held read is the first one made on any thread but
    /// this one (the session thread), instead of the first file's.
    session: Option<ThreadId>,
    /// Whether a read off the session thread has been held.
    held: AtomicBool,
}

/// A file whose reads a test watches. One read — the first file's, or the
/// first off the session thread — is held until the other reads stop for
/// a while (or a timeout passes), so every later file is chunked ahead of
/// its turn.
struct Gated<'g> {
    file: MemoryFile,
    gate: &'g Gate,
    first: bool,
}

impl SourceFile for Gated<'_> {
    fn path(&self) -> &str {
        self.file.path()
    }

    fn app_type(&self) -> AppType {
        self.file.app_type()
    }

    fn size(&self) -> u64 {
        self.file.size()
    }

    fn read(&self) -> Vec<u8> {
        const QUIET: Duration = Duration::from_millis(300);
        const TIMEOUT: Duration = Duration::from_secs(10);
        let held = match self.gate.session {
            None => self.first,
            Some(session) => {
                std::thread::current().id() != session && !self.gate.held.swap(true, SeqCst)
            }
        };
        if !held {
            self.gate.reads.fetch_add(1, SeqCst);
            return self.file.read();
        }
        let (start, mut quiet_since) = (Instant::now(), Instant::now());
        let mut seen = self.gate.reads.load(SeqCst);
        while quiet_since.elapsed() < QUIET && start.elapsed() < TIMEOUT {
            std::thread::sleep(Duration::from_millis(5));
            let now = self.gate.reads.load(SeqCst);
            if now != seen {
                (seen, quiet_since) = (now, Instant::now());
            }
        }
        self.gate.read_while_closed.store(seen, SeqCst);
        assert!(!self.gate.panic, "the held read fails");
        self.file.read()
    }

    fn change_token(&self) -> u64 {
        self.file.change_token()
    }
}

const GATED_FILE: usize = 64 * 1024;
/// Small containers make the waiting budget 1 MiB: sixteen gated files.
const GATED_CONTAINER: usize = 16 * 1024;

/// 48 distinct files of one application, read through `gate`.
fn gated_files(gate: &Gate) -> Vec<Gated<'_>> {
    let content = shared_content(48 * GATED_FILE);
    let file = |i: usize, bytes: &[u8]| MemoryFile::new(format!("gate/{i:02}.pdf"), bytes.to_vec());
    let files = content.chunks(GATED_FILE).enumerate();
    files.map(|(i, bytes)| Gated { file: file(i, bytes), gate, first: i == 0 }).collect()
}

fn gated_config(workers: usize) -> AaDedupeConfig {
    AaDedupeConfig {
        container_size: GATED_CONTAINER,
        pipeline: PipelineConfig::with_workers(workers),
        ..AaDedupeConfig::default()
    }
}

#[test]
fn bytes_waiting_for_their_turn_are_bounded() {
    // The first file is held while the other threads run ahead through the
    // rest: once the budget is spent they stop claiming, so only a budget's
    // worth of files, plus one in flight per worker, is read.
    let plain: Vec<MemoryFile> =
        gated_files(&Gate::default()).into_iter().map(|gated| gated.file).collect();
    let serial = backup(&sources(&plain), gated_config(1));
    for workers in [2, 8] {
        let gate = Gate::default();
        let parallel = backup(&sources(&gated_files(&gate)), gated_config(workers));
        assert!(parallel == serial, "workers={workers}: session differs from the serial one");
        let read = gate.read_while_closed.load(SeqCst);
        let bound = AHEAD_CONTAINERS * GATED_CONTAINER / GATED_FILE + workers + 1;
        assert!(read <= bound, "workers={workers}: {read} files read while held, bound {bound}");
    }
}

#[test]
fn a_worker_that_panics_is_raised_not_waited_for() {
    // The worker's first read is held and panics after the session thread
    // spent the budget and began waiting for it: that wait must end, so the
    // session re-raises the panic instead of hanging.
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let session = Some(std::thread::current().id());
        let gate = Gate { panic: true, session, ..Gate::default() };
        let files = gated_files(&gate);
        let session = AssertUnwindSafe(|| backup(&sources(&files), gated_config(2)));
        done.send(std::panic::catch_unwind(session).is_err()).expect("test thread listens");
    });
    let raised = aadedupe_lock::recv_timeout(&outcome, Duration::from_secs(60));
    assert_eq!(raised, Ok(true), "the session hung or returned instead of re-raising");
}

/// A tiny file whose read panics.
struct Unreadable(MemoryFile);

impl SourceFile for Unreadable {
    fn path(&self) -> &str {
        self.0.path()
    }

    fn app_type(&self) -> AppType {
        self.0.app_type()
    }

    fn size(&self) -> u64 {
        self.0.size()
    }

    fn read(&self) -> Vec<u8> {
        panic!("the tiny file's read fails")
    }

    fn change_token(&self) -> u64 {
        self.0.change_token()
    }
}

#[test]
fn a_session_thread_that_panics_is_raised_not_waited_for() {
    // Tiny files are packed by the session thread, where they fall in file
    // order: this one right after the held first file is deduped. By then a
    // worker has spent the budget and waits for the session thread, so the
    // session thread's panic must end that wait and be re-raised.
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let gate = Gate::default();
        let files = gated_files(&gate);
        let tiny = Unreadable(MemoryFile::new("gate/tiny.txt".to_string(), b"tiny".to_vec()));
        let mut sources = sources(&files);
        sources.insert(1, &tiny);
        let session = AssertUnwindSafe(|| backup(&sources, gated_config(2)));
        done.send(std::panic::catch_unwind(session).is_err()).expect("test thread listens");
    });
    let raised = aadedupe_lock::recv_timeout(&outcome, Duration::from_secs(60));
    assert_eq!(raised, Ok(true), "the session hung or returned instead of re-raising");
}

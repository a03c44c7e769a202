//! The AA-Dedupe backup engine.
//!
//! Faithful to the paper's Fig. 5 dataflow: a file size filter diverts
//! tiny files straight into containers; the intelligent chunker picks
//! WFC/SC/CDC per application category; the deduplicator consults the
//! application-aware index (one partition per application, each with a
//! RAM-resident working set); new chunks are aggregated into 1 MiB
//! containers per application stream; manifests complete the cloud state,
//! and an index snapshot after every session is the paper's periodic sync.
//!
//! # One dataflow, one dedup loop
//!
//! Every file takes the same steps: `pack_tiny` under the size filter,
//! else `read_and_chunk` and `dedupe_chunks` (index lookup; a new chunk's
//! range is appended straight into the [`ContainerStore`]); then `absorb`
//! folds the outcome into the report and the manifest. Big files are read
//! and chunked in *hash batches* planned once, before any file is read,
//! from file sizes alone (`plan_batches`): the next consecutive big files
//! until the batch holds a container's worth of bytes. `read_and_chunk`
//! cuts each file of a batch *in place* (chunks are ranges of its buffer,
//! never copies) and fingerprints the whole batch with one
//! [`Fingerprint::compute_many`] call per hash algorithm, so MD5's four
//! lanes stay full across file boundaries.
//!
//! The session thread runs the engine's one dedup loop: file by file, in
//! file order. When it reaches a batch's first file it takes the batch's
//! chunked files from a `Handoff`. With [`PipelineConfig::workers`] ≤ 1
//! nobody else chunks, so each batch is chunked inline right before it is
//! deduped. With N workers, N − 1 `std::thread::scope` threads chunk ahead
//! and the session thread is the N-th. The default is the pipeline: one
//! worker per core, at most 8 ([`PipelineConfig::default`]); one worker is
//! the serial schedule the differential suites hold every count to.
//!
//! ```text
//!  workers ── claim the next batch (the cursor); read, classify, chunk,
//!             hash it; deposit it ──────────────────────────────────────┐
//!  session ── take batch b: deposited, dedupe it; unclaimed, or budget  │
//!             left, claim and chunk the next batch itself; else wait ◀──┘
//! ```
//!
//! Determinism contract: the output (containers, manifests, index, report
//! counters) is *identical* for every worker count, for a fixed file
//! ordering, because
//!
//! 1. container ids are per-stream
//!    ([`compose_id`](aadedupe_container::compose_id)), so a stream's
//!    container layout depends only on that stream's own append sequence;
//! 2. one thread, the session thread, makes every index lookup and insert
//!    and every container append, in file order, whichever thread chunked
//!    the file;
//! 3. a fingerprint depends only on its chunk's bytes, so which thread,
//!    batch or MD5 lane hashed a chunk changes nothing.
//!
//! Liveness: a worker waits only before it claims a batch, while more than
//! `AHEAD_CONTAINERS` containers' worth of chunked bytes wait for the
//! session thread. The session thread chunks every batch it claims itself
//! and claims its next batch when nobody has, so it waits only for a batch
//! that a worker has claimed and not yet deposited; that worker is not
//! waiting, so the batch arrives. The session thread thus takes every
//! deposit in batch order, which frees the budget every waiting worker
//! waits for. A thread that panics ends every wait on its way out
//! (`WakeOnUnwind`), so the scope re-raises the panic instead of hanging.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use aadedupe_chunking::{
    CdcParams, ChunkSpan, Chunker, ChunkingMethod, ContentChunker, ScChunker, WfcChunker,
    DEFAULT_CDC,
};
use aadedupe_cloud::CloudSim;
use aadedupe_container::{decompose_id, ContainerStore, DEFAULT_CONTAINER_SIZE};
use aadedupe_filetype::{AppType, DedupPolicy, SourceFile};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{codec, AppAwareIndex, ChunkEntry};
use aadedupe_lock::Lock;
use aadedupe_metrics::SessionReport;
use aadedupe_obs::{Counter, Recorder, Stage, WorkerRole};

use crate::recipe::{ChunkRef, FileRecipe, Manifest};
use crate::restore::{
    container_id, containers_prefix, fetch_manifest, restore_file_pipelined,
    restore_session_pipelined, RestoreOptions, RestoredFile,
};
use crate::retry::{upload_session, RetryPolicy, Transfer};
use crate::scheme::{BackupError, BackupScheme};
use crate::timing::DedupClock;

/// Worker-pool configuration for the backup pipeline.
///
/// The default runs the pipeline: one worker per core the platform
/// reports, at most 8 (`DEFAULT_WORKERS_CAP`), and 1 when it cannot say.
/// The worker count never changes a stored byte (module docs), only how
/// much of the reading, chunking and hashing overlaps the dedup loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Threads per backup session. The calling thread dedupes every file
    /// in file order; `workers − 1` more read, chunk and fingerprint hash
    /// batches ahead of it. At 1 (or 0) every batch is chunked inline.
    /// Defaults to the machine's cores, at most 8.
    pub workers: usize,
}

/// The most workers [`PipelineConfig::default`] and
/// [`RestoreOptions::default`] take, however many cores the machine has:
/// the largest worker count `tests/parallel_differential.rs` proves leaves
/// the same cloud namespace as one worker, and `tests/restore_differential.rs`
/// the same restored bytes.
const DEFAULT_WORKERS_CAP: usize = 8;

/// The worker count both pipelines default to, backup's
/// [`PipelineConfig`] and restore's [`RestoreOptions`]: one per core the
/// platform reports, at most `DEFAULT_WORKERS_CAP`, and 1 when it cannot
/// say.
pub(crate) fn default_workers() -> usize {
    let cores = match std::thread::available_parallelism() {
        Ok(cores) => cores.get(),
        Err(_) => 1,
    };
    cores.min(DEFAULT_WORKERS_CAP)
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: default_workers() }
    }
}

impl PipelineConfig {
    /// Pipeline with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig { workers }
    }
}

/// Chunked bytes that may wait for the session thread, in containers:
/// 64 MiB at the paper's 1 MiB. While more wait, no thread claims a batch
/// beyond the one the session thread dedupes next.
const AHEAD_CONTAINERS: usize = 64;

/// Engine configuration. Defaults are the paper's evaluation settings.
#[derive(Debug, Clone)]
pub struct AaDedupeConfig {
    /// Files strictly below this size bypass dedup (paper: 10 KiB).
    pub tiny_threshold: u64,
    /// Fixed container size (paper: 1 MiB).
    pub container_size: usize,
    /// Static chunk size (paper: 8 KiB).
    pub sc_chunk_size: usize,
    /// CDC parameters (paper: 2/8/16 KiB, 48-byte window). The
    /// [`CdcParams::algorithm`] field selects the boundary algorithm for
    /// every CDC-routed application (Rabin, the paper's scan and the
    /// fidelity oracle, or gear-hash FastCDC).
    pub cdc: CdcParams,
    /// Chunking/hash policy per category (paper: Fig. 6).
    pub policy: DedupPolicy,
    /// Cache capacity of each index partition, in entries. Every
    /// partition is one cache over a RAM or disk tier: over the disk tier
    /// ([`Self::index_dir`]) this bounds the write-back cache; over the
    /// RAM tier it is the modelled RAM budget (a lookup the tier answers
    /// while the partition outgrows it is charged as a disk read).
    pub ram_entries_per_partition: usize,
    /// Root directory for the index's disk tier. `None` (the default)
    /// puts a RAM tier behind every partition's cache, so every entry
    /// stays in RAM with modelled disk accounting; `Some(dir)` puts a
    /// disk tier there instead: the cache's victims go to real segment
    /// files under `dir/p01..p13`, each guarded by its own existence
    /// filter. Dedup decisions, and what each cache holds, are
    /// bit-identical either way — only the RAM/disk stat classification
    /// and the actual memory footprint differ.
    pub index_dir: Option<PathBuf>,
    /// Backup pipeline worker-pool settings (default: one worker per
    /// core, at most 8).
    pub pipeline: PipelineConfig,
    /// Restore pipeline settings (fetch/parse/verify/scatter worker
    /// threads; default: one per core, at most 8).
    pub restore: RestoreOptions,
    /// Retry/backoff policy for transient backend failures, shared by
    /// every upload and download.
    pub retry: RetryPolicy,
    /// Cloud namespace prefix for this engine's objects.
    pub scheme_key: String,
    /// Observability sink shared by the engine, index, container store and
    /// chunkers. Disabled by default (one relaxed atomic load per
    /// would-be observation); swap in an enabled [`Recorder`] — or call
    /// `enable()` on this one — to collect per-stage metrics.
    pub recorder: Arc<Recorder>,
}

impl Default for AaDedupeConfig {
    fn default() -> Self {
        AaDedupeConfig {
            tiny_threshold: 10 * 1024,
            container_size: DEFAULT_CONTAINER_SIZE,
            sc_chunk_size: 8 * 1024,
            cdc: DEFAULT_CDC,
            policy: DedupPolicy::aa_dedupe(),
            ram_entries_per_partition: 1 << 18,
            index_dir: None,
            pipeline: PipelineConfig::default(),
            restore: RestoreOptions::default(),
            retry: RetryPolicy::default(),
            scheme_key: "aa-dedupe".into(),
            recorder: Recorder::shared_disabled(),
        }
    }
}

/// Stream id used for the tiny-file container stream; application streams
/// use the application tag (1..=13).
pub(crate) const TINY_STREAM: u32 = 0;

/// The prefix every index snapshot key of a scheme starts with; session
/// `s`'s snapshot is the prefix plus `s` in eight digits.
pub(crate) fn snapshots_prefix(scheme: &str) -> String {
    format!("{scheme}/index/")
}

/// Everything a set of committed manifests determines — the one statement
/// of what is live. [`AaDedupe::open`], deletion and vacuum all read it
/// from this fold: the engine keeps no count that could drift.
#[derive(Default)]
pub(crate) struct Liveness {
    /// Per application, every indexed chunk (tiny files bypass the index);
    /// the first placement folded wins.
    entries: BTreeMap<AppType, BTreeMap<Fingerprint, ChunkEntry>>,
    /// Every referenced container and the fingerprints referenced in it.
    pub(crate) containers: BTreeMap<u64, BTreeSet<Fingerprint>>,
    /// One past the newest session (restarting at 0 would clobber
    /// session 0's manifest).
    next_session: usize,
}

impl Liveness {
    /// Folds `manifests`. Holds O(unique chunks) — the bound every
    /// session's snapshot dump accepts.
    pub(crate) fn of<'a>(manifests: impl IntoIterator<Item = &'a Manifest>) -> Self {
        let mut live = Liveness::default();
        for m in manifests {
            live.add(m);
        }
        live
    }

    fn add(&mut self, manifest: &Manifest) {
        self.next_session = self.next_session.max(manifest.session as usize + 1);
        for f in &manifest.files {
            for c in &f.chunks {
                self.containers.entry(c.container).or_default().insert(c.fingerprint);
                if !f.tiny {
                    self.entries
                        .entry(f.app)
                        .or_default()
                        .entry(c.fingerprint)
                        .or_insert_with(|| ChunkEntry::new(c.len as u64, c.container, c.offset));
                }
            }
        }
    }
}

/// The AA-Dedupe backup client.
///
/// Field visibility is `pub(crate)`: the vacuum pass
/// ([`crate::vacuum`]) and retention policies ([`crate::retention`])
/// are sibling modules operating on the same state (container ids, the
/// tiny-file cache; the index only through `settle`) under the same
/// crash-consistency invariants.
pub struct AaDedupe {
    pub(crate) config: AaDedupeConfig,
    pub(crate) cloud: CloudSim,
    pub(crate) index: AppAwareIndex,
    pub(crate) containers: ContainerStore,
    pub(crate) sessions: usize,
    /// Tiny-file incrementality: path -> (change token, last placement).
    /// Tiny files bypass the chunk *index* (the paper's size filter), but
    /// the client still skips re-packing unchanged ones, Cumulus-style.
    /// Not persisted: after [`AaDedupe::open`] the first session re-packs
    /// tiny files once.
    pub(crate) tiny_seen: HashMap<String, (u64, ChunkRef)>,
    /// Set when a session failed mid-upload: the in-memory index may then
    /// reference chunks that never reached the cloud, so further backups
    /// from this instance are refused (reopen from the cloud instead).
    pub(crate) poisoned: Option<String>,
    /// Containers garbage-collected by the orphan sweep in
    /// [`AaDedupe::open`].
    orphans_swept: u64,
}

/// Time elapsed on a [`Recorder::start`] timer; zero while recording is off.
fn since(timer: Option<Instant>) -> Duration {
    timer.map_or(Duration::ZERO, |t| t.elapsed())
}

/// The result of chunk+hash over one file: the file's bytes, read once,
/// and where they were cut.
struct ChunkedFile {
    data: Vec<u8>,
    /// (fingerprint, chunk length) in file order; the lengths tile `data`.
    chunks: Vec<(Fingerprint, usize)>,
    /// CPU time spent producing its batch's chunks — on the batch's first
    /// file, zero on the rest — so the session total counts each once.
    cpu: Duration,
}

/// The result of deduplicating one file: its recipe plus the report
/// deltas the merge step folds into the session totals.
struct DedupedFile {
    recipe: FileRecipe,
    stored_bytes: u64,
    chunks_duplicate: u64,
    disk_reads: u64,
    cpu: Duration,
}

/// Splits the session's big files into hash batches, from their sizes
/// alone and before any file is read: each batch is the next run of files,
/// in file order, until it holds `limit` bytes (one container) or more. So
/// a batch holds at most one file beyond what fits in a container, and a
/// file of a container or more closes its batch.
fn plan_batches<T>(
    files: impl IntoIterator<Item = T>,
    size: impl Fn(&T) -> u64,
    limit: u64,
) -> Vec<Vec<T>> {
    let (mut batches, mut batch, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for file in files {
        bytes += size(&file);
        batch.push(file);
        if bytes >= limit {
            batches.push(std::mem::take(&mut batch));
            bytes = 0;
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    batches
}

/// The head of the big-file path — classify, read, chunk, fingerprint —
/// over one batch, run by whichever thread claimed the batch.
/// Each file's buffer is cut in place according to the policy; then every
/// chunk of the batch that takes one hash algorithm is fingerprinted in one
/// [`Fingerprint::compute_many`] call, so MD5's lanes refill across file
/// boundaries. Each call builds its own chunker — parameters and a
/// reference to the process-wide Rabin tables, no table is computed or
/// copied per file — so worker threads share nothing they write. The
/// batch's chunk+hash time is charged once, to its first file.
fn read_and_chunk<'f>(
    cfg: &AaDedupeConfig,
    batch: impl Iterator<Item = &'f dyn SourceFile>,
) -> Vec<(AppType, ChunkedFile)> {
    let rec = &cfg.recorder;
    let read: Vec<(AppType, Vec<u8>)> = batch
        .map(|file| {
            let classify = rec.start();
            let app = file.app_type();
            rec.record(Stage::Classify, classify);
            let data = file.read();
            rec.count(Counter::SourceBytes, data.len() as u64);
            (app, data)
        })
        .collect();
    let (chunks, cpu) = crate::timing::measure_cpu(|| {
        let cut: Vec<(HashAlgorithm, Vec<ChunkSpan>)> = read
            .iter()
            .map(|(app, data)| {
                let (method, hash) = cfg.policy.for_app(*app);
                let chunking = rec.start();
                let (spans, by_method) = match method {
                    // One chunk per file, cut only every `WFC_PIECE_MAX` bytes.
                    ChunkingMethod::Wfc => (WfcChunker::new().chunk(data), Counter::ChunksWfc),
                    ChunkingMethod::Sc => {
                        (ScChunker::new(cfg.sc_chunk_size).chunk(data), Counter::ChunksSc)
                    }
                    ChunkingMethod::Cdc => {
                        (ContentChunker::new(cfg.cdc).chunk(data), Counter::ChunksCdc)
                    }
                };
                rec.record(Stage::Chunk, chunking);
                rec.count(by_method, spans.len() as u64);
                rec.count(Counter::ChunkBytes, data.len() as u64);
                (hash, spans)
            })
            .collect();
        let mut chunks: Vec<Vec<(Fingerprint, usize)>> =
            cut.iter().map(|(_, spans)| Vec::with_capacity(spans.len())).collect();
        let mut algos: Vec<HashAlgorithm> = cut.iter().map(|&(hash, _)| hash).collect();
        algos.sort_unstable();
        algos.dedup();
        for algo in algos {
            let pieces: Vec<&[u8]> = cut
                .iter()
                .zip(&read)
                .filter(|((hash, _), _)| *hash == algo)
                .flat_map(|((_, spans), (_, data))| spans.iter().map(|span| span.slice(data)))
                .collect();
            let hashing = rec.start();
            let fingerprints = Fingerprint::compute_many(algo, &pieces);
            rec.record(Stage::Hash, hashing);
            let mut fingerprints = fingerprints.iter().copied();
            // `spans` leads each zip, so no file takes a fingerprint past its own.
            for ((hash, spans), out) in cut.iter().zip(&mut chunks) {
                if *hash == algo {
                    out.extend(spans.iter().zip(fingerprints.by_ref()).map(|(s, fp)| (fp, s.len)));
                }
            }
        }
        chunks
    });
    let cpus = std::iter::once(cpu).chain(std::iter::repeat(Duration::ZERO));
    std::iter::zip(read, chunks)
        .zip(cpus)
        .map(|(((app, data), chunks), cpu)| (app, ChunkedFile { data, chunks, cpu }))
        .collect()
}

/// A hash batch: consecutive big files of the session.
type Batch<'f> = Vec<&'f dyn SourceFile>;

/// A batch's files, read and chunked, in batch order.
type Chunked = Vec<(AppType, ChunkedFile)>;

fn bytes(chunked: &Chunked) -> usize {
    chunked.iter().map(|(_, file)| file.data.len()).sum()
}

/// Where the session thread takes each batch's chunked files from: the
/// batches nobody has claimed and those chunked ahead of their turn, under
/// one lock that no thread holds while it reads, chunks or dedupes. A
/// claimed batch moves out, so its file list is freed once it is read.
struct Handoff<'a> {
    cfg: &'a AaDedupeConfig,
    /// `AHEAD_CONTAINERS` containers, in bytes.
    budget: usize,
    state: Lock<Ahead<'a>>,
    /// Signalled whenever a batch is deposited or taken, and on unwind.
    turn: Condvar,
}

struct Ahead<'a> {
    /// The batches nobody has claimed, in order.
    unclaimed: VecDeque<Batch<'a>>,
    /// How many batches have been claimed: the next one's index.
    cursor: usize,
    /// Batches chunked ahead of their turn, by batch index.
    ready: BTreeMap<usize, Chunked>,
    /// The bytes `ready` holds.
    bytes: usize,
    /// Set by a thread that unwinds: every wait ends.
    unwinding: bool,
}

/// Held by every thread of a session. One that unwinds never deposits its
/// batch or takes the next one, so this sets the flag and ends every wait:
/// the scope re-raises, not hangs.
struct WakeOnUnwind<'h, 'a>(&'h Handoff<'a>);

impl Drop for WakeOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().unwinding = true;
            self.0.turn.notify_all();
        }
    }
}

impl<'a> Handoff<'a> {
    fn new(cfg: &'a AaDedupeConfig, batches: Vec<Batch<'a>>) -> Self {
        let budget = AHEAD_CONTAINERS * cfg.container_size;
        let ahead = Ahead {
            unclaimed: VecDeque::from(batches),
            cursor: 0,
            ready: BTreeMap::new(),
            bytes: 0,
            unwinding: false,
        };
        Handoff { cfg, budget, state: Lock::new(ahead), turn: Condvar::new() }
    }

    /// Claims the batch at the cursor, if any is left.
    fn claim(ahead: &mut Ahead<'a>) -> Option<(usize, Batch<'a>)> {
        let batch = ahead.unclaimed.pop_front()?;
        ahead.cursor += 1;
        Some((ahead.cursor - 1, batch))
    }

    /// Reads and chunks a batch on the calling thread.
    fn chunk(&self, batch: Batch<'a>) -> Chunked {
        let rec = &self.cfg.recorder;
        let span = rec.trace_start();
        let chunked = read_and_chunk(self.cfg, batch.iter().copied());
        rec.trace_complete("chunk_hash", span);
        chunked
    }

    fn deposit(&self, b: usize, chunked: Chunked) {
        let mut ahead = self.state.lock();
        ahead.bytes += bytes(&chunked);
        ahead.ready.insert(b, chunked);
        drop(ahead);
        self.turn.notify_all();
    }

    /// A spawned worker: while the budget has room, claim the next batch,
    /// chunk it and deposit it.
    fn chunk_ahead(&self, id: usize) {
        let _wake = WakeOnUnwind(self);
        let rec = &self.cfg.recorder;
        let (mut busy, mut idle) = (Duration::ZERO, Duration::ZERO);
        loop {
            let waiting = rec.start();
            let mut ahead =
                self.state.lock().wait_while(&self.turn, |a| a.bytes > self.budget && !a.unwinding);
            let claim = if ahead.unwinding { None } else { Self::claim(&mut ahead) };
            drop(ahead);
            idle += since(waiting);
            let Some((b, batch)) = claim else { break };
            let working = rec.start();
            let chunked = self.chunk(batch);
            self.deposit(b, chunked);
            busy += since(working);
        }
        rec.worker_report(WorkerRole::Chunker, id, busy, idle);
    }

    /// Batch `b`, chunked, for the session thread, which takes every batch
    /// in order. Until `b` is deposited the session thread chunks batches
    /// itself: `b` once nobody has claimed it, a later one while the budget
    /// has room. `None` once another thread unwinds.
    fn take(&self, b: usize, idle: &mut Duration) -> Option<Chunked> {
        loop {
            let mut ahead = self.state.lock();
            let (c, batch) = loop {
                if let Some(chunked) = ahead.ready.remove(&b) {
                    ahead.bytes -= bytes(&chunked);
                    drop(ahead);
                    self.turn.notify_all();
                    return Some(chunked);
                }
                if ahead.unwinding {
                    return None;
                }
                if ahead.cursor == b || ahead.bytes <= self.budget {
                    if let Some(claimed) = Self::claim(&mut ahead) {
                        break claimed;
                    }
                }
                let waiting = self.cfg.recorder.start();
                ahead = ahead.wait(&self.turn);
                *idle += since(waiting);
            };
            drop(ahead);
            let chunked = self.chunk(batch);
            if c == b {
                return Some(chunked);
            }
            self.deposit(c, chunked);
        }
    }
}

/// Deduplicates one chunked file against its application's partition,
/// appending each new chunk to the application's stream in `store`. Runs
/// on the session thread only, in file order.
fn dedupe_chunks(
    index: &AppAwareIndex,
    store: &mut ContainerStore,
    path: &str,
    app: AppType,
    chunked: ChunkedFile,
) -> DedupedFile {
    let (mut deduped, elapsed) = crate::timing::measure_cpu(|| {
        let mut recipe = FileRecipe {
            path: path.to_string(),
            app,
            tiny: false,
            chunks: Vec::with_capacity(chunked.chunks.len()),
        };
        let (mut stored_bytes, mut chunks_duplicate, mut disk_reads) = (0u64, 0u64, 0u64);
        let mut rest = chunked.data.as_slice();
        for &(fp, len) in &chunked.chunks {
            let (bytes, tail) = rest.split_at(len);
            rest = tail;
            let outcome = index.lookup_classified(app, &fp);
            if outcome.touched_disk() {
                disk_reads += 1;
            }
            let (container, offset) = match outcome.entry() {
                Some(entry) => {
                    chunks_duplicate += 1;
                    (entry.container, entry.offset)
                }
                None => {
                    let at = store.add_chunk(app.tag() as u32, fp, bytes);
                    index.insert(app, fp, ChunkEntry::new(len as u64, at.container, at.offset));
                    stored_bytes += len as u64;
                    (at.container, at.offset)
                }
            };
            recipe.chunks.push(ChunkRef { fingerprint: fp, len: len as u32, container, offset });
        }
        DedupedFile { recipe, stored_bytes, chunks_duplicate, disk_reads, cpu: Duration::ZERO }
    });
    deduped.cpu = chunked.cpu + elapsed;
    deduped
}

/// The tiny-file path: no chunk-level dedup (the size filter), but
/// unchanged files (same change token) are carried forward by reference
/// instead of re-packed — the Cumulus-style grouping the paper cites for
/// its tiny-file handling. Runs on the session thread only, in file order.
fn pack_tiny(
    tiny_seen: &mut HashMap<String, (u64, ChunkRef)>,
    file: &dyn SourceFile,
    store: &mut ContainerStore,
    rec: &Recorder,
) -> DedupedFile {
    let token = file.change_token();
    let carried =
        tiny_seen.get(file.path()).filter(|(seen, _)| *seen == token).map(|(_, carried)| *carried);
    let (reference, stored_bytes, cpu) = if let Some(reference) = carried {
        rec.count(Counter::TinyCarried, 1);
        (reference, 0, Duration::ZERO)
    } else {
        let packing = rec.start();
        rec.count(Counter::TinyPacked, 1);
        let data = file.read();
        rec.count(Counter::SourceBytes, data.len() as u64);
        // Tiny files are fingerprinted only for restore-time integrity
        // (container descriptors need a key); they are not indexed.
        let ((fp, placement), cpu) = crate::timing::measure_cpu(|| {
            let fp = Fingerprint::compute(HashAlgorithm::Sha1, &data);
            (fp, store.add_chunk(TINY_STREAM, fp, &data))
        });
        let reference = ChunkRef {
            fingerprint: fp,
            len: data.len() as u32,
            container: placement.container,
            offset: placement.offset,
        };
        tiny_seen.insert(file.path().to_string(), (token, reference));
        rec.record(Stage::TinyPack, packing);
        (reference, data.len() as u64, cpu)
    };
    DedupedFile {
        recipe: FileRecipe {
            path: file.path().to_string(),
            app: file.app_type(),
            tiny: true,
            chunks: vec![reference],
        },
        stored_bytes,
        chunks_duplicate: u64::from(carried.is_some()),
        disk_reads: 0,
        cpu,
    }
}

/// Folds one file's dedup outcome into the session totals, returning the
/// recipe for the manifest. Every file passes through here, in file
/// order.
fn absorb(out: DedupedFile, report: &mut SessionReport, clock: &mut DedupClock) -> FileRecipe {
    report.chunks_total += out.recipe.chunks.len() as u64;
    report.chunks_duplicate += out.chunks_duplicate;
    report.stored_bytes += out.stored_bytes;
    report.index_disk_reads += out.disk_reads;
    clock.charge_disk_probes(out.disk_reads);
    clock.add_cpu(out.cpu);
    out.recipe
}

impl AaDedupe {
    /// Engine with the paper's default configuration.
    pub fn new(cloud: CloudSim) -> Self {
        Self::with_config(cloud, AaDedupeConfig::default())
    }

    /// Engine with an explicit configuration: an index over a RAM tier by
    /// default, over a disk tier under [`AaDedupeConfig::index_dir`] when
    /// set.
    pub fn with_config(cloud: CloudSim, config: AaDedupeConfig) -> Self {
        let mut index = match &config.index_dir {
            Some(dir) => AppAwareIndex::disk_backed(config.ram_entries_per_partition, dir),
            None => AppAwareIndex::new(config.ram_entries_per_partition),
        };
        index.set_recorder(Arc::clone(&config.recorder));
        let mut containers = ContainerStore::new(config.container_size);
        containers.set_recorder(Arc::clone(&config.recorder));
        for app in AppType::ALL {
            config.recorder.label_app(app.tag(), app.to_string());
        }
        AaDedupe {
            index,
            containers,
            sessions: 0,
            tiny_seen: HashMap::new(),
            poisoned: None,
            orphans_swept: 0,
            cloud,
            config,
        }
    }

    /// Opens an engine over an *existing* cloud namespace, resuming its
    /// state — the one way to rebuild an engine from the cloud, disaster
    /// recovery included: the fold of every committed manifest, settled
    /// (`Liveness`, `settle`; no index snapshot is read). The index and the
    /// session counter are what the manifests say, container ids resume
    /// past every listed container, and every listed container no manifest
    /// references is swept — a failed delete fails the open. A fresh
    /// namespace yields a fresh engine.
    pub fn open(cloud: CloudSim, config: AaDedupeConfig) -> Result<Self, BackupError> {
        let mut engine = Self::with_config(cloud, config);
        let live = engine.committed_liveness(None)?;
        let (swept, sweep) = engine.settle(live);
        sweep?;
        engine.orphans_swept = swept;
        engine.config.recorder.count(Counter::OrphansSwept, swept);
        Ok(engine)
    }

    /// Every committed manifest but session `skip`'s, fetched through
    /// `transfer` and decoded one at a time in listing order — the
    /// repository's source of truth, and the one place that lists them
    /// all. The skipped manifest is left out by key and never fetched.
    pub(crate) fn committed_manifests<'a>(
        &'a self,
        transfer: &'a Transfer<'_>,
        skip: Option<u64>,
    ) -> impl Iterator<Item = Result<Manifest, BackupError>> + 'a {
        let keys = self.cloud.store().list(&Manifest::prefix(&self.config.scheme_key));
        let mut keys = VecDeque::from(keys);
        std::iter::from_fn(move || keys.pop_front())
            .filter(move |key| skip.is_none_or(|s| Manifest::session_of(key) != Some(s)))
            .map(move |key| {
                // Any manifest's jitter op: restore's, outside the container ids.
                let bytes = transfer.get(&key, u64::MAX)?;
                Manifest::decode(&bytes.ok_or(BackupError::MissingObject(key))?)
            })
    }

    /// A handle for one operation's transfers under this engine's policy
    /// and recorder, with a fresh retry budget.
    pub(crate) fn transfer(&self) -> Transfer<'_> {
        Transfer::new(&self.cloud, self.config.retry, &self.config.recorder)
    }

    /// Session `session`'s manifest, fetched and decoded: what the
    /// session holds, without reading a container.
    pub fn manifest(&self, session: usize) -> Result<Manifest, BackupError> {
        fetch_manifest(&self.transfer(), &self.config.scheme_key, session as u64)
    }

    /// How many chunks the committed manifests index: what
    /// [`AaDedupe::open`] would rebuild the index with. Reads the cloud and
    /// changes nothing.
    pub fn committed_chunks(&self) -> Result<usize, BackupError> {
        Ok(self.committed_liveness(None)?.entries.values().map(BTreeMap::len).sum())
    }

    /// What the committed manifests — all but session `skip`'s — say is
    /// live. Reads the cloud and changes nothing.
    fn committed_liveness(&self, skip: Option<u64>) -> Result<Liveness, BackupError> {
        let transfer = self.transfer();
        let mut live = Liveness::default();
        for manifest in self.committed_manifests(&transfer, skip) {
            live.add(&manifest?);
        }
        Ok(live)
    }

    /// Makes the in-memory state say what `live` says and returns the
    /// referenced container ids: `settle`'s first half. Every partition is
    /// replaced wholesale — the one way a key leaves the index, and the
    /// only write to it besides a session's inserts; the session counter
    /// only moves forward; and a cached tiny-file reference survives only
    /// while some manifest references that chunk there — carried forward
    /// past that, it would point at bytes the sweep or the next vacuum may
    /// reclaim.
    fn install(&mut self, mut live: Liveness) -> BTreeSet<u64> {
        for app in AppType::ALL {
            self.index.partition(app).reconcile(live.entries.remove(&app).unwrap_or_default());
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "a pure per-entry predicate: what is kept does not depend on visiting order"
        )]
        self.tiny_seen.retain(|_, (_, r)| {
            live.containers.get(&r.container).is_some_and(|fps| fps.contains(&r.fingerprint))
        });
        self.sessions = self.sessions.max(live.next_session);
        live.containers.into_keys().collect()
    }

    /// Ends every repository change — [`AaDedupe::open`],
    /// [`AaDedupe::delete_session`] and vacuum's commit — by making memory
    /// and the cloud say what the committed manifests `live` say. Installs
    /// the fold, then lists the container prefix once. Every listed id
    /// advances its stream's sequence, orphans included, so no id that was
    /// ever visible in the cloud is minted again (ids minted before the
    /// per-stream scheme decompose as stream 0, which only over-advances
    /// the tiny stream — harmless). Every listed container the fold does
    /// not reference is deleted, in listing order: the leftovers of
    /// sessions that crashed before their manifest (the commit point)
    /// landed, of deleted sessions, of vacuum's rewritten and dead
    /// containers, and of earlier sweeps that failed. Safe by construction:
    /// a container is reachable only through a committed manifest.
    ///
    /// Infallible in memory — deletion and vacuum call it past their
    /// commit points. Tries every delete and returns how many succeeded
    /// beside the first failure; what it could not delete is still listed
    /// next time.
    pub(crate) fn settle(&mut self, live: Liveness) -> (u64, Result<(), BackupError>) {
        let referenced = self.install(live);
        let mut swept = 0;
        let mut first_failure = None;
        for key in self.cloud.store().list(&containers_prefix(&self.config.scheme_key)) {
            let id = container_id(&key);
            if let Some((stream, seq)) = id.map(decompose_id) {
                self.containers.resume_stream_ids(stream, seq + 1);
            }
            if id.is_some_and(|id| referenced.contains(&id)) {
                continue;
            }
            match self.cloud.delete(&key) {
                Ok(_) => swept += 1,
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        (swept, first_failure.map_or(Ok(()), |e| Err(e.into())))
    }

    /// Containers the orphan sweep removed when this engine was opened.
    pub fn orphans_swept(&self) -> u64 {
        self.orphans_swept
    }

    /// Whether this engine instance refuses further backups because a
    /// previous session failed mid-upload.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Sessions currently restorable from the cloud (ascending). Sorted
    /// numerically after parsing — backend listing order is lexicographic
    /// at best and arbitrary in general.
    pub fn list_sessions(&self) -> Vec<usize> {
        let mut sessions: Vec<usize> = self
            .cloud
            .store()
            .list(&Manifest::prefix(&self.config.scheme_key))
            .iter()
            .filter_map(|k| Manifest::session_of(k).map(|s| s as usize))
            .collect();
        sessions.sort_unstable();
        sessions
    }

    /// Restores a single file by path from a past session, fetching only
    /// the containers that file's recipe references.
    pub fn restore_file(&self, session: usize, path: &str) -> Result<RestoredFile, BackupError> {
        restore_file_pipelined(
            &self.cloud,
            &self.config.scheme_key,
            session as u64,
            path,
            &self.config.restore,
            &self.config.retry,
            &self.config.recorder,
        )
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AaDedupeConfig {
        &self.config
    }

    /// The cloud this engine talks to.
    pub fn cloud(&self) -> &CloudSim {
        &self.cloud
    }

    /// The application-aware index (inspection).
    pub fn index(&self) -> &AppAwareIndex {
        &self.index
    }

    /// One session's size filter + chunk + dedup dataflow: the engine's
    /// one dedup loop, on the calling thread, with `workers − 1` threads
    /// chunking ahead of it (module docs: schedule, determinism, liveness).
    fn run_session(
        &mut self,
        files: &[&dyn SourceFile],
        report: &mut SessionReport,
        clock: &mut DedupClock,
    ) -> Manifest {
        report.files_total += files.len() as u64;
        for f in files {
            report.logical_bytes += f.size();
            if f.size() < self.config.tiny_threshold {
                report.files_tiny += 1;
            }
        }
        self.config.recorder.count(Counter::FilesClassified, files.len() as u64);
        let mut manifest = Manifest::new(self.sessions as u64);
        let cfg = &self.config;
        let rec = &cfg.recorder;
        let (index, containers, tiny_seen) =
            (&self.index, &mut self.containers, &mut self.tiny_seen);
        let big = files.iter().copied().filter(|f| f.size() >= cfg.tiny_threshold);
        let batches = plan_batches(big, |f| f.size(), cfg.container_size as u64);
        let batch_count = batches.len();
        let handoff = Handoff::new(cfg, batches);
        std::thread::scope(|scope| {
            for id in 1..cfg.pipeline.workers {
                let handoff = &handoff;
                scope.spawn(move || handoff.chunk_ahead(id));
            }
            let _wake = WakeOnUnwind(&handoff);
            let (started, mut idle) = (rec.start(), Duration::ZERO);
            let mut chunked =
                (0..batch_count).map_while(|b| handoff.take(b, &mut idle)).flatten();
            for &file in files {
                let next = (file.size() >= cfg.tiny_threshold).then(|| chunked.next());
                let span = rec.trace_start();
                let out = match next {
                    None => pack_tiny(tiny_seen, file, containers, rec),
                    Some(Some((app, next))) => {
                        dedupe_chunks(index, containers, file.path(), app, next)
                    }
                    // A worker unwound, and the scope re-raises its panic.
                    Some(None) => return,
                };
                rec.trace_complete("file", span);
                manifest.files.push(absorb(out, report, clock));
            }
            drop(chunked);
            if cfg.pipeline.workers > 1 {
                rec.worker_report(WorkerRole::Chunker, 0, since(started).saturating_sub(idle), idle);
            }
        });
        manifest
    }

    /// Deletes a past session and reclaims the containers nothing
    /// references any more (the background deletion process of §III.F):
    /// [`AaDedupe::open`]'s fold over every *other* committed manifest,
    /// settled the same way, so what survives is exactly what a reopen
    /// would find.
    ///
    /// Crash consistency: the *manifest* delete is the un-commit point.
    /// Until it succeeds nothing is mutated — an `Err` means the session
    /// is still fully restorable and neither memory nor the cloud changed.
    /// After it nothing returns `Err`: the fold is settled and container
    /// reclamation is best-effort garbage collection. A container whose
    /// delete failed is still listed and unreferenced, so the next
    /// deletion, vacuum or [`AaDedupe::open`] reclaims it — the inverse
    /// order would delete containers a still-committed manifest references.
    pub fn delete_session(&mut self, session: usize) -> Result<(), BackupError> {
        let key = Manifest::key(&self.config.scheme_key, session as u64);
        if !self.cloud.store().contains(&key) {
            return Err(BackupError::UnknownSession(session));
        }
        let live = self.committed_liveness(Some(session as u64))?;
        self.cloud.delete(&key)?;
        match self.settle(live) {
            (_, Ok(()) | Err(_)) => Ok(()),
        }
    }
}

impl BackupScheme for AaDedupe {
    fn name(&self) -> &'static str {
        "AA-Dedupe"
    }

    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError> {
        if let Some(why) = &self.poisoned {
            return Err(BackupError::Poisoned(why.clone()));
        }
        let mut report = SessionReport::new(self.name(), self.sessions);
        let mut clock = DedupClock::new();
        let rec = Arc::clone(&self.config.recorder);
        let session_span = rec.trace_start();
        let wan_before = self.cloud.elapsed();
        let puts_before = self.cloud.store().stats().put_requests;

        let manifest = self.run_session(files, &mut report, &mut clock);
        // Every byte of the dataset is read once from the source disk.
        clock.charge_source_read(report.logical_bytes);

        // Disk-backed index partitions degrade on local IO errors (lookups
        // answer "absent": duplicate storage, never corruption) instead of
        // failing mid-pipeline. An errored session's dedup state is
        // untrustworthy though, so refuse to commit anything to the cloud
        // — and poison the instance, since the in-memory index now holds
        // this session's inserts with nothing committed behind them.
        if let Some(why) = self.index.io_error() {
            self.poisoned = Some(format!("index storage failure: {why}"));
            return Err(BackupError::IndexStorage(why));
        }

        // Commit protocol: containers, then the manifest — the commit
        // point (`upload_session`) — then the index snapshot. A crash
        // after the manifest leaves a fully restorable session.
        let upload_span = rec.trace_start();
        let transfer = Transfer::new(&self.cloud, self.config.retry, &rec);
        let (scheme, containers) = (&self.config.scheme_key, &mut self.containers);
        let op = match upload_session(&transfer, containers, scheme, &manifest, &mut report) {
            Ok(op) => op,
            Err(e) => {
                // The in-memory index already references this session's
                // chunks; some never reached the cloud. Refuse further
                // backups from this instance.
                self.poisoned = Some(format!("session upload failed: {e}"));
                return Err(e);
            }
        };
        // Index synchronisation (paper §III.E): a snapshot after every
        // session. Nothing reads it back — `open` rebuilds the index from
        // the manifests.
        let snap = codec::encode_app_aware(&self.index);
        let skey = format!("{}{:08}", snapshots_prefix(scheme), self.sessions);
        match transfer.put(&skey, snap, op + 1) {
            Ok(len) => report.transferred_bytes += len,
            Err(e) => {
                // The manifest is committed, so the session is durable and
                // the engine's state matches the cloud, and nothing depends
                // on the snapshot. Count the session and surface the
                // failure without poisoning.
                self.sessions += 1;
                return Err(BackupError::Cloud(format!(
                    "session committed, but index snapshot upload failed: {e}"
                )));
            }
        }
        rec.trace_complete("upload", upload_span);

        // The session's totals, the snapshot's PUT and time included.
        report.put_requests = self.cloud.store().stats().put_requests - puts_before;
        report.dedup_cpu = clock.total();
        report.transfer_time = self.cloud.elapsed() - wan_before;
        rec.trace_complete("session", session_span);
        self.sessions += 1;
        Ok(report)
    }

    fn restore_session(&self, session: usize) -> Result<Vec<RestoredFile>, BackupError> {
        restore_session_pipelined(
            &self.cloud,
            &self.config.scheme_key,
            session as u64,
            &self.config.restore,
            &self.config.retry,
            &self.config.recorder,
        )
    }

    fn sessions_completed(&self) -> usize {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_filetype::MemoryFile;

    fn mem(path: &str, data: Vec<u8>) -> MemoryFile {
        MemoryFile::new(path, data)
    }

    fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
        files.iter().map(|f| f as &dyn SourceFile).collect()
    }

    fn engine() -> AaDedupe {
        AaDedupe::new(CloudSim::with_paper_defaults())
    }

    #[test]
    fn fastcdc_engine_round_trips_and_differs_from_rabin() {
        use aadedupe_chunking::CdcAlgorithm;
        let files = vec![
            mem("user/doc/a.doc", b"document text, edited weekly ".repeat(9000)),
            mem("user/txt/b.txt", (0..180_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()),
        ];
        let mut rabin = engine();
        let cfg = AaDedupeConfig {
            cdc: DEFAULT_CDC.with_algorithm(CdcAlgorithm::FastCdc),
            ..AaDedupeConfig::default()
        };
        let mut fast = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
        let rr = rabin.backup_session(&sources(&files)).unwrap();
        let rf = fast.backup_session(&sources(&files)).unwrap();
        // Different hash families cut at different positions...
        assert_ne!(rr.chunks_total, rf.chunks_total);
        // ...but restores are bit-exact either way.
        assert_eq!(rabin.restore_session(0).unwrap(), fast.restore_session(0).unwrap());
    }

    #[test]
    fn backup_and_restore_round_trip() {
        let mut e = engine();
        let files = vec![
            mem("user/doc/a.doc", b"document text ".repeat(3000)), // dynamic
            mem("user/pdf/b.pdf", vec![7u8; 50_000]),              // static
            mem("user/mp3/c.mp3", (0..60_000u32).map(|i| (i % 251) as u8).collect()), // compressed
            mem("user/tiny/t.txt", b"tiny".to_vec()),              // tiny
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.files_total, 4);
        assert_eq!(report.files_tiny, 1);
        assert!(report.logical_bytes > 0);
        assert!(report.transferred_bytes > 0);

        let restored = e.restore_session(0).unwrap();
        assert_eq!(restored.len(), 4);
        for (orig, rest) in files.iter().zip(restored.iter()) {
            assert_eq!(orig.path, rest.path);
            assert_eq!(orig.data, rest.data, "{}", orig.path);
        }
    }

    #[test]
    fn second_identical_session_dedupes_everything() {
        let mut e = engine();
        let files = vec![
            mem("user/doc/a.doc", b"words and words ".repeat(4000)),
            mem("user/exe/b.exe", vec![3u8; 100_000]),
        ];
        let s0 = e.backup_session(&sources(&files)).unwrap();
        let s1 = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(s1.stored_bytes, 0, "identical data stores nothing new");
        assert!(s1.chunks_duplicate >= s0.chunks_total - 1);
        assert!(s1.transferred_bytes < s0.transferred_bytes / 2);
        // Both sessions restore correctly.
        for session in 0..2 {
            let restored = e.restore_session(session).unwrap();
            assert_eq!(restored[0].data, files[0].data);
            assert_eq!(restored[1].data, files[1].data);
        }
    }

    #[test]
    fn policy_routes_by_category() {
        let mut e = engine();
        // A compressed file large enough that SC would make many chunks,
        // but WFC must make exactly one.
        let media = mem("user/avi/m.avi", vec![9u8; 200_000]);
        let report = e.backup_session(&sources(std::slice::from_ref(&media))).unwrap();
        assert_eq!(report.chunks_total, 1, "WFC yields one chunk per file");
        // A static file gets 8 KiB fixed chunks.
        let mut e2 = engine();
        let stat = mem("user/pdf/s.pdf", vec![1u8; 80_000]);
        let r2 = e2.backup_session(&sources(&[stat])).unwrap();
        assert_eq!(r2.chunks_total, 80_000 / 8192 + 1);
    }

    #[test]
    fn tiny_files_bypass_dedup() {
        let mut e = engine();
        // Two identical tiny files: no dedup on the tiny path.
        let files = vec![
            mem("user/tiny/a.txt", b"same tiny content".to_vec()),
            mem("user/tiny/b.txt", b"same tiny content".to_vec()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.files_tiny, 2);
        assert_eq!(report.chunks_duplicate, 0);
        assert_eq!(report.stored_bytes, 2 * 17);
        // Restore still works.
        let restored = e.restore_session(0).unwrap();
        assert_eq!(restored[0].data, restored[1].data);
    }

    #[test]
    fn intra_session_duplicate_files_dedup() {
        let mut e = engine();
        let payload = vec![0xabu8; 64_000];
        let files = vec![
            mem("user/pdf/one.pdf", payload.clone()),
            mem("user/pdf/two.pdf", payload.clone()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert!(report.chunks_duplicate >= report.chunks_total / 2 - 1);
        assert!(report.stored_bytes <= payload.len() as u64 + 8192);
    }

    #[test]
    fn cross_app_identical_content_is_not_shared() {
        // Observation 2's corollary: identical bytes under different app
        // types live in different partitions and are stored twice.
        let mut e = engine();
        // Non-repeating payload so no *intra-file* chunks collide.
        let payload: Vec<u8> = {
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            (0..40_000).map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x >> 32) as u8 }).collect()
        };
        let files = vec![
            mem("user/pdf/a.pdf", payload.clone()),
            mem("user/exe/b.exe", payload.clone()),
        ];
        let report = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(report.chunks_duplicate, 0);
        assert_eq!(report.stored_bytes, 2 * payload.len() as u64);
    }

    #[test]
    fn parallel_workers_match_serial_results() {
        let files: Vec<MemoryFile> = (0..12)
            .map(|i| {
                mem(
                    &format!("user/txt/f{i}.txt"),
                    format!("file number {i} ").repeat(2000 + i * 37).into_bytes(),
                )
            })
            .collect();
        let serial_cfg = AaDedupeConfig {
            pipeline: PipelineConfig::with_workers(1),
            ..AaDedupeConfig::default()
        };
        let mut serial = AaDedupe::with_config(CloudSim::with_paper_defaults(), serial_cfg);
        let cfg = AaDedupeConfig {
            pipeline: PipelineConfig::with_workers(4),
            ..AaDedupeConfig::default()
        };
        let mut parallel = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);

        let rs = serial.backup_session(&sources(&files)).unwrap();
        let rp = parallel.backup_session(&sources(&files)).unwrap();
        assert_eq!(rs.stored_bytes, rp.stored_bytes);
        assert_eq!(rs.chunks_total, rp.chunks_total);
        assert_eq!(rs.chunks_duplicate, rp.chunks_duplicate);
        // Bit-exact restores from both.
        let a = serial.restore_session(0).unwrap();
        let b = parallel.restore_session(0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn the_default_pipeline_runs_a_worker_per_core_up_to_the_cap() {
        let cores = match std::thread::available_parallelism() {
            Ok(cores) => cores.get(),
            Err(_) => 1,
        };
        let workers = PipelineConfig::default().workers;
        assert_eq!(workers, cores.min(DEFAULT_WORKERS_CAP));
        assert!(workers >= 1);
        assert_eq!(AaDedupeConfig::default().pipeline.workers, workers);
        // Restore's default is the pipeline's.
        assert_eq!(RestoreOptions::default(), RestoreOptions { workers });
        assert_eq!(AaDedupeConfig::default().restore, RestoreOptions { workers });
    }

    #[test]
    fn wfc_records_files_beyond_64_mib_as_64_mib_pieces() {
        // What every repository written so far holds for a compressed
        // file larger than 2^26 bytes; every worker count must keep to it.
        let big: Vec<u8> = (0..(1u32 << 26) + 5).map(|i| (i ^ (i >> 13)) as u8).collect();
        let files = vec![mem("user/iso/big.iso", big), mem("user/mp3/c.mp3", vec![9u8; 60_000])];
        let namespaces = [1, 2].map(|workers| {
            let cfg = AaDedupeConfig {
                pipeline: PipelineConfig::with_workers(workers),
                ..AaDedupeConfig::default()
            };
            let mut e = AaDedupe::with_config(CloudSim::with_paper_defaults(), cfg);
            e.backup_session(&sources(&files)).unwrap();
            assert_eq!(e.restore_session(0).unwrap()[0].data, files[0].data, "workers={workers}");
            let store = e.cloud().store();
            let object = |key: &String| store.get(key).unwrap().expect("listed key present");
            let manifest = Manifest::decode(&object(&Manifest::key("aa-dedupe", 0))).unwrap();
            let lens: Vec<u32> = manifest.files[0].chunks.iter().map(|c| c.len).collect();
            assert_eq!(lens, [1 << 26, 5], "workers={workers}");
            let digest = |key: &String| Fingerprint::compute(HashAlgorithm::Md5, &object(key));
            store.list("").iter().map(|k| (k.clone(), digest(k))).collect::<Vec<_>>()
        });
        assert_eq!(namespaces[0], namespaces[1], "cloud objects differ between schedules");
    }

    #[test]
    fn liveness_is_a_pure_fold_over_manifests() {
        let fp = |n: u8| Fingerprint::compute(HashAlgorithm::Sha1, &[n]);
        let chunk = |n: u8, container: u64, offset: u32| ChunkRef {
            fingerprint: fp(n),
            len: 100 + u32::from(n),
            container,
            offset,
        };
        let file = |path: &str, app, tiny, chunks: Vec<ChunkRef>| FileRecipe {
            path: path.into(),
            app,
            tiny,
            chunks,
        };
        let doc = 40u64; // a Doc-stream container id; the tiny stream's is 0
        // Session 3 shares chunk 1 with session 5, which found it at another
        // placement (the first one folded wins); two tiny files with equal
        // bytes sit at two offsets of one tiny-stream container.
        let manifests = [
            Manifest {
                session: 3,
                files: vec![
                    file("a.doc", AppType::Doc, false, vec![chunk(1, doc, 0), chunk(2, doc, 101)]),
                    file("t.txt", AppType::Txt, true, vec![chunk(9, 0, 0)]),
                    file("u.txt", AppType::Txt, true, vec![chunk(9, 0, 109)]),
                ],
            },
            Manifest {
                session: 5,
                files: vec![file(
                    "a.doc",
                    AppType::Doc,
                    false,
                    vec![chunk(1, doc + 1, 7), chunk(3, doc + 1, 108)],
                )],
            },
        ];
        let live = Liveness::of(&manifests);
        assert_eq!(live.next_session, 6);
        let entries: Vec<(Fingerprint, ChunkEntry)> =
            live.entries[&AppType::Doc].iter().map(|(f, e)| (*f, *e)).collect();
        let mut expected = vec![
            (fp(1), ChunkEntry::new(101, doc, 0)),
            (fp(2), ChunkEntry::new(102, doc, 101)),
            (fp(3), ChunkEntry::new(103, doc + 1, 108)),
        ];
        expected.sort_by_key(|(f, _)| *f);
        assert_eq!(entries, expected);
        assert_eq!(live.entries.len(), 1, "tiny files are not indexed");
        let set = |fps: &[u8]| fps.iter().map(|n| fp(*n)).collect::<BTreeSet<_>>();
        let containers =
            BTreeMap::from([(0, set(&[9])), (doc, set(&[1, 2])), (doc + 1, set(&[1, 3]))]);
        assert_eq!(live.containers, containers);
    }

    #[test]
    fn delete_session_reclaims_fully_dead_containers() {
        let mut e = engine();
        let files0 = vec![mem("user/doc/x.doc", b"version one ".repeat(3000))];
        e.backup_session(&sources(&files0)).unwrap();
        let objects_after_0 = e.cloud().store().object_count();
        // Session 1 with completely different content.
        let files1 = vec![mem("user/doc/y.doc", b"other stuff ".repeat(3000))];
        e.backup_session(&sources(&files1)).unwrap();

        e.delete_session(0).unwrap();
        // Session 0's manifest is gone and its containers reclaimed.
        assert!(e.restore_session(0).is_err());
        let restored = e.restore_session(1).unwrap();
        assert_eq!(restored[0].data, files1[0].data);
        assert!(e.cloud().store().object_count() < objects_after_0 + 4);
    }

    #[test]
    fn delete_preserves_shared_chunks() {
        let mut e = engine();
        let shared = mem("user/doc/s.doc", b"shared bytes ".repeat(4000));
        e.backup_session(&sources(std::slice::from_ref(&shared))).unwrap();
        e.backup_session(&sources(std::slice::from_ref(&shared))).unwrap();
        e.delete_session(0).unwrap();
        // Session 1 references the same chunks; they must survive.
        let restored = e.restore_session(1).unwrap();
        assert_eq!(restored[0].data, shared.data);
    }

    #[test]
    fn report_counters_are_consistent() {
        let mut e = engine();
        let files = vec![
            mem("user/txt/a.txt", b"alpha ".repeat(5000)),
            mem("user/tiny/t.txt", b"x".to_vec()),
        ];
        let r = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(r.files_total, 2);
        assert!(r.chunks_duplicate <= r.chunks_total);
        assert!(r.stored_bytes <= r.logical_bytes);
        assert!(r.dr() >= 1.0);
        assert!(r.dedup_cpu > std::time::Duration::ZERO);
        assert!(r.put_requests > 0);
    }
}

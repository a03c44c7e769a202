//! The AA-Dedupe backup engine.
//!
//! Faithful to the paper's Fig. 5 dataflow: a file size filter diverts
//! tiny files straight into containers; the intelligent chunker picks
//! WFC/SC/CDC per application category; the deduplicator consults the
//! application-aware index (one partition per application, each with a
//! RAM-resident working set); new chunks are aggregated into 1 MiB
//! containers per application stream; manifests and periodic index
//! snapshots complete the cloud state.
//!
//! # One dataflow, two schedules
//!
//! Every file takes the same steps whichever schedule runs them:
//! `pack_tiny` under the size filter, else `read_and_chunk` (the file's
//! buffer is cut *in place*: chunks are ranges of it, never copies) and
//! `dedupe_chunks` (index lookup; a new chunk's range is appended straight
//! into the [`ContainerStore`]); then `absorb` folds the outcome into the
//! report and the manifest. The serial schedule is one loop over them.
//! With [`PipelineConfig::workers`] > 1 they run on exactly that many
//! `std::thread::scope` threads and one *lane* per application:
//!
//! ```text
//!  workers ── claim the next big file (shared cursor); read, classify, chunk,
//!             hash; deposit it in its lane, dedupe the lane's ready run ──┐
//!  main ── tiny files, in file order, into the tiny stream                 │
//!          after the workers: each lane's stream and outcomes, in order ◀─┘
//! ```
//!
//! Determinism contract: the output (containers, manifests, index,
//! report counters) is *identical* to a serial run for a fixed file
//! ordering, because
//!
//! 1. container ids are per-stream
//!    ([`compose_id`](aadedupe_container::compose_id)), so a stream's
//!    container layout depends only on that stream's own append sequence;
//! 2. a lane dedupes its application's files one at a time, under its
//!    lock and in file order — whichever worker holds the lock — and owns
//!    the application's container stream for the session
//!    ([`ContainerStore::split_stream`]), so every stream's append
//!    sequence — and every partition's lookup/insert sequence — is the
//!    serial one;
//! 3. tiny files are packed by the main thread in file order, feeding the
//!    tiny stream (which never leaves the engine's store) the exact
//!    serial sequence.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use aadedupe_chunking::{
    CdcParams, Chunker, ChunkingMethod, ContentChunker, ScChunker, DEFAULT_CDC,
};
use aadedupe_cloud::CloudSim;
use aadedupe_container::{decompose_id, ContainerStore, DEFAULT_CONTAINER_SIZE};
use aadedupe_filetype::{AppType, DedupPolicy, SourceFile};
use aadedupe_hashing::Fingerprint;
use aadedupe_index::{codec, AppAwareIndex, ChunkEntry};
use aadedupe_metrics::SessionReport;
use aadedupe_obs::{Counter, Recorder, Stage, WorkerRole};

use crate::recipe::{ChunkRef, FileRecipe, Manifest};
use crate::restore::{
    container_id, container_key, containers_prefix, restore_file_pipelined,
    restore_session_pipelined, RestoreOptions, RestoredFile,
};
use crate::retry::RetryPolicy;
use crate::scheme::{BackupError, BackupScheme};
use crate::timing::DedupClock;

/// Worker-pool configuration for the backup pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Chunk+hash worker threads: 1 runs the serial schedule, more run the
    /// pipeline.
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: 1 }
    }
}

impl PipelineConfig {
    /// Pipeline with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig { workers }
    }
}

/// Chunked bytes that may wait for their turn in the pipeline, in
/// containers: 64 MiB at the paper's 1 MiB. A worker whose deposit finds
/// more waiting claims nothing further until its own file is deduped.
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
    /// LRU capacity of each index partition, in entries: the write-back
    /// cache budget when [`Self::index_dir`] gives the partitions a spill
    /// tier, the modelled RAM budget (LRU victims stay in RAM and a later
    /// hit on one is charged as a disk read) when it does not.
    pub ram_entries_per_partition: usize,
    /// Root directory for the index's spill tier. `None` (the default)
    /// keeps every entry in RAM with modelled disk accounting;
    /// `Some(dir)` makes partitions evict entries beyond
    /// [`Self::ram_entries_per_partition`] to real segment files under
    /// `dir/p01..p13`, guarded by per-partition existence filters. Dedup
    /// decisions are bit-identical either way — only the RAM/disk stat
    /// classification and the actual memory footprint differ.
    pub index_dir: Option<PathBuf>,
    /// Backup pipeline worker-pool settings.
    pub pipeline: PipelineConfig,
    /// Restore pipeline settings (fetch/parse/verify worker threads).
    pub restore: RestoreOptions,
    /// Retry/backoff policy for transient backend failures, shared by
    /// uploads and restore downloads.
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

/// The prefix every index snapshot key of a scheme starts with.
pub(crate) fn snapshots_prefix(scheme: &str) -> String {
    format!("{scheme}/index/")
}

/// The key of the index snapshot taken after `sessions` sessions.
pub(crate) fn snapshot_key(scheme: &str, sessions: usize) -> String {
    format!("{}{sessions:08}", snapshots_prefix(scheme))
}

/// Everything a set of committed manifests determines — the one statement
/// of what is live. [`AaDedupe::open`], recovery, deletion and vacuum all
/// read it from this fold: the engine keeps no count that could drift.
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
        manifests.into_iter().for_each(|m| live.add(m));
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
/// are sibling modules operating on the same state (index placements,
/// container ids, the tiny-file cache) under the same crash-consistency
/// invariants.
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

/// Longest chunk the engine records: whole-file chunking cuts a larger
/// file into consecutive pieces of this size plus the remainder, so every
/// [`ChunkRef::len`] fits its `u32`. Existing recipes were cut with it.
const WFC_PIECE_MAX: usize = 1 << 26;

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
    /// CPU time spent producing them.
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

/// One application's big files in a pipelined session. Whichever worker
/// holds `state` dedupes the lane's ready run, in file order.
struct Lane<'a> {
    /// (file index, file), in file order.
    files: Vec<(usize, &'a dyn SourceFile)>,
    state: Mutex<LaneState>,
    /// Signalled whenever files leave `ready`.
    turn: Condvar,
}

struct LaneState {
    /// Chunked files that arrived ahead of their turn, by file index.
    ready: BTreeMap<usize, ChunkedFile>,
    /// The application's container stream, split off for the session.
    store: ContainerStore,
    /// The outcomes of the lane's first `outs.len()` files: its position.
    outs: Vec<DedupedFile>,
}

/// Held by every pipeline worker. One that unwinds never deposits its file,
/// so this sets the flag and ends every wait: the scope re-raises, not hangs.
struct WakeOnUnwind<'s, 'a>(&'s [Lane<'a>], &'s AtomicBool);

impl Drop for WakeOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.1.store(true, Relaxed);
            for lane in self.0 {
                drop(lane.state.lock()); // orders the store before each waiter's next check
                lane.turn.notify_all();
            }
        }
    }
}

/// Cuts `data` in place according to the policy and fingerprints every
/// chunk. Each call builds its own chunker — parameters and a reference to
/// the process-wide Rabin tables, no table is computed or copied per file —
/// so worker threads share nothing they write.
fn chunk_and_hash(cfg: &AaDedupeConfig, app: AppType, data: Vec<u8>) -> ChunkedFile {
    let rec = &cfg.recorder;
    let (chunks, cpu) = crate::timing::measure_cpu(|| {
        let (method, hash) = cfg.policy.for_app(app);
        let chunking = rec.start();
        let (spans, by_method) = match method {
            // One chunk per file, cut only every WFC_PIECE_MAX bytes:
            // static chunking at that size.
            ChunkingMethod::Wfc => (ScChunker::new(WFC_PIECE_MAX).chunk(&data), Counter::ChunksWfc),
            ChunkingMethod::Sc => {
                (ScChunker::new(cfg.sc_chunk_size).chunk(&data), Counter::ChunksSc)
            }
            ChunkingMethod::Cdc => {
                (ContentChunker::new(cfg.cdc).chunk(&data), Counter::ChunksCdc)
            }
        };
        rec.record(Stage::Chunk, chunking);
        rec.count(by_method, spans.len() as u64);
        rec.count(Counter::ChunkBytes, data.len() as u64);
        // One file's chunks are one batch: static chunking's equal-length
        // chunks are what `compute_many` hashes four at a time.
        let pieces: Vec<&[u8]> = spans.iter().map(|span| span.slice(&data)).collect();
        let hashing = rec.start();
        let fingerprints = Fingerprint::compute_many(hash, &pieces);
        rec.record(Stage::Hash, hashing);
        fingerprints.into_iter().zip(&spans).map(|(fp, span)| (fp, span.len)).collect()
    });
    ChunkedFile { data, chunks, cpu }
}

/// The head of the big-file path — classify, read, chunk, fingerprint —
/// run by the serial loop and by every pipeline worker.
fn read_and_chunk(cfg: &AaDedupeConfig, file: &dyn SourceFile) -> (AppType, ChunkedFile) {
    let rec = &cfg.recorder;
    let classify = rec.start();
    let app = file.app_type();
    rec.record(Stage::Classify, classify);
    let data = file.read();
    rec.count(Counter::SourceBytes, data.len() as u64);
    (app, chunk_and_hash(cfg, app, data))
}

/// Deduplicates one chunked file against its application's partition,
/// appending each new chunk to the application's stream in `store` — the
/// engine's store in the serial loop, the lane's split-off part in the
/// pipeline. The lookup→insert sequence per partition and the append
/// sequence per stream are what both schedules execute identically.
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
/// its tiny-file handling. Always runs on the main thread, in file order.
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
            let fp = Fingerprint::compute(aadedupe_hashing::HashAlgorithm::Sha1, &data);
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
/// recipe for the manifest. Both pipelines funnel every file through
/// here, in file order.
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

    /// Builds the index `config` asks for: without a spill tier by
    /// default, with one under [`AaDedupeConfig::index_dir`] when set.
    /// Recovery uses this too, so a rebuilt index keeps its tier.
    fn build_index(config: &AaDedupeConfig) -> AppAwareIndex {
        let mut index = match &config.index_dir {
            Some(dir) => {
                AppAwareIndex::disk_backed(config.ram_entries_per_partition, dir)
            }
            None => AppAwareIndex::new(config.ram_entries_per_partition),
        };
        index.set_recorder(Arc::clone(&config.recorder));
        index
    }

    /// Engine with an explicit configuration.
    pub fn with_config(cloud: CloudSim, config: AaDedupeConfig) -> Self {
        let index = Self::build_index(&config);
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
    /// state: the index and the session counter are what the committed
    /// manifests say (`Liveness` — exact, snapshot-independent), and
    /// every listed container no manifest references is swept. A fresh
    /// namespace yields a fresh engine.
    pub fn open(cloud: CloudSim, config: AaDedupeConfig) -> Result<Self, BackupError> {
        let mut engine = Self::with_config(cloud, config);
        let live = engine.committed_liveness(None)?;
        let referenced = engine.install(live);
        // Resume ids over *everything* in the namespace — orphans included —
        // before sweeping, so a resumed engine never re-mints an id that was
        // ever visible in the cloud.
        engine.resume_container_ids();
        engine.orphans_swept = engine.sweep_unreferenced(&referenced)?;
        engine.config.recorder.count(Counter::OrphansSwept, engine.orphans_swept);
        Ok(engine)
    }

    /// Every committed manifest but session `skip`'s, fetched and decoded
    /// one at a time in listing order — the repository's source of truth,
    /// and the one place that lists, fetches and decodes them all. The
    /// skipped manifest is left out by key and never fetched.
    pub(crate) fn committed_manifests(
        &self,
        skip: Option<u64>,
    ) -> impl Iterator<Item = Result<Manifest, BackupError>> + '_ {
        let keys = self.cloud.store().list(&Manifest::prefix(&self.config.scheme_key));
        keys.into_iter()
            .filter(move |key| skip.is_none_or(|s| Manifest::session_of(key) != Some(s)))
            .map(move |key| {
                let (bytes, _t) = self.cloud.get(&key)?;
                let bytes = bytes.ok_or(BackupError::MissingObject(key))?;
                Manifest::decode(&bytes)
            })
    }

    /// What the committed manifests — all but session `skip`'s — say is
    /// live. Reads the cloud and changes nothing.
    fn committed_liveness(&self, skip: Option<u64>) -> Result<Liveness, BackupError> {
        let mut live = Liveness::default();
        for manifest in self.committed_manifests(skip) {
            live.add(&manifest?);
        }
        Ok(live)
    }

    /// Makes the in-memory state say what `live` says and returns the
    /// referenced container ids. Infallible: deletion calls it past its
    /// point of no return. Every partition is replaced wholesale — the one
    /// way a key leaves the index; the session counter only moves forward;
    /// and a cached tiny-file reference survives only while some manifest
    /// references that chunk there — carried forward past that, it would
    /// point at bytes the sweep or the next vacuum may reclaim.
    fn install(&mut self, mut live: Liveness) -> BTreeSet<u64> {
        for app in AppType::ALL {
            self.index.partition(app).reconcile(live.entries.remove(&app).unwrap_or_default());
        }
        // aalint: allow(unordered-iteration) -- a pure per-entry predicate: what is kept does not depend on visiting order
        self.tiny_seen.retain(|_, (_, r)| {
            live.containers.get(&r.container).is_some_and(|fps| fps.contains(&r.fingerprint))
        });
        self.sessions = self.sessions.max(live.next_session);
        live.containers.into_keys().collect()
    }

    /// Deletes every listed container `referenced` does not name and
    /// returns how many went: the leftovers of sessions that crashed before
    /// their manifest (the commit point) landed, of deleted sessions, and
    /// of earlier sweeps that failed. Safe by construction: a container is
    /// reachable only through a committed manifest. Tries every one and
    /// reports the first failure at the end — what it could not delete is
    /// still listed next time.
    fn sweep_unreferenced(&self, referenced: &BTreeSet<u64>) -> Result<u64, BackupError> {
        let mut swept = 0;
        let mut first_failure = None;
        for key in self.cloud.store().list(&containers_prefix(&self.config.scheme_key)) {
            if container_id(&key).is_some_and(|id| referenced.contains(&id)) {
                continue;
            }
            match self.cloud.delete(&key) {
                Ok(_) => swept += 1,
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        first_failure.map_or(Ok(swept), |e| Err(e.into()))
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

    /// Advances every stream's container sequence past its containers in
    /// the cloud namespace, so resumed engines never clobber live
    /// containers. Ids minted before the per-stream scheme decompose as
    /// stream 0, which only over-advances the tiny stream — harmless.
    fn resume_container_ids(&mut self) {
        for key in self.cloud.store().list(&containers_prefix(&self.config.scheme_key)) {
            if let Some(id) = container_id(&key) {
                let (stream, seq) = decompose_id(id);
                self.containers.resume_stream_ids(stream, seq + 1);
            }
        }
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

    /// One session's size filter + chunk + dedup dataflow, serial or
    /// parallel per the pipeline config. Both paths yield identical
    /// manifests, containers, index state, and counters.
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
        if self.config.pipeline.workers > 1 {
            self.run_session_parallel(files, report, clock)
        } else {
            self.run_session_serial(files, report, clock)
        }
    }

    /// The serial schedule: one thread does everything, in file order.
    /// This is the oracle the pipeline is tested against.
    fn run_session_serial(
        &mut self,
        files: &[&dyn SourceFile],
        report: &mut SessionReport,
        clock: &mut DedupClock,
    ) -> Manifest {
        let mut manifest = Manifest::new(self.sessions as u64);
        let cfg = &self.config;
        let rec = &cfg.recorder;
        for file in files {
            let span = rec.trace_start();
            let out = if file.size() < cfg.tiny_threshold {
                pack_tiny(&mut self.tiny_seen, *file, &mut self.containers, rec)
            } else {
                let (app, chunked) = read_and_chunk(cfg, *file);
                dedupe_chunks(&self.index, &mut self.containers, file.path(), app, chunked)
            };
            rec.trace_complete("file", span);
            manifest.files.push(absorb(out, report, clock));
        }
        manifest
    }

    /// The pipeline schedule (module docs: dataflow, determinism). A worker
    /// waits only for an earlier file of its own lane, and the oldest file
    /// not yet deduped is being chunked by a worker that is not waiting —
    /// deposited, it is its lane's next file — so every wait ends.
    fn run_session_parallel(
        &mut self,
        files: &[&dyn SourceFile],
        report: &mut SessionReport,
        clock: &mut DedupClock,
    ) -> Manifest {
        let cfg = &self.config;
        let rec = &cfg.recorder;
        let index = &self.index;
        let containers = &mut self.containers;

        // One lane per application with big files; each owns its stream.
        let mut by_app: BTreeMap<AppType, Vec<(usize, &dyn SourceFile)>> = BTreeMap::new();
        let big = files.iter().copied().enumerate().filter(|(_, f)| f.size() >= cfg.tiny_threshold);
        for (i, f) in big {
            by_app.entry(f.app_type()).or_default().push((i, f));
        }
        let lanes: Vec<Lane> = by_app.into_iter().map(|(app, files)| {
            let store = containers.split_stream(app.tag() as u32);
            let state = LaneState { ready: BTreeMap::new(), store, outs: Vec::new() };
            Lane { files, state: Mutex::new(state), turn: Condvar::new() }
        }).collect();
        // The workers' job list: every big file, in file order, with its lane.
        let mut jobs: Vec<(usize, &dyn SourceFile, &Lane)> = lanes
            .iter()
            .flat_map(|lane| lane.files.iter().map(move |&(i, f)| (i, f, lane)))
            .collect();
        jobs.sort_unstable_by_key(|&(i, ..)| i);
        let (cursor, ahead) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
        let unwinding = &AtomicBool::new(false);

        let mut outs = std::thread::scope(|scope| {
            for w in 0..cfg.pipeline.workers {
                let (jobs, lanes) = (&jobs, &lanes);
                scope.spawn(move || {
                    let _wake = WakeOnUnwind(lanes, unwinding);
                    let (mut busy, mut idle) = (Duration::ZERO, Duration::ZERO);
                    // Relaxed: the cursor only hands out tickets; the job
                    // list it indexes was complete before any thread began.
                    while let Some(&(i, file, lane)) = jobs.get(cursor.fetch_add(1, Relaxed)) {
                        let working = rec.start();
                        let span = rec.trace_start();
                        let (app, chunked) = read_and_chunk(cfg, file);
                        rec.trace_complete("chunk_hash", span);
                        // Poisoned only by a panicking worker; the scope re-raises it.
                        let mut state = lane.state.lock().unwrap_or_else(PoisonError::into_inner);
                        ahead.fetch_add(chunked.data.len(), Relaxed);
                        state.ready.insert(i, chunked);
                        // Dedupe the lane's ready run, in file order.
                        while let Some(&(j, f)) = lane.files.get(state.outs.len()) {
                            let Some(next) = state.ready.remove(&j) else { break };
                            ahead.fetch_sub(next.data.len(), Relaxed);
                            let span = rec.trace_start();
                            let out = dedupe_chunks(index, &mut state.store, f.path(), app, next);
                            rec.trace_complete("dedupe", span);
                            state.outs.push(out);
                        }
                        lane.turn.notify_all();
                        busy += since(working);
                        if ahead.load(Relaxed) > AHEAD_CONTAINERS * cfg.container_size {
                            let waiting = rec.start();
                            drop(lane.turn.wait_while(state, |s| {
                                s.ready.contains_key(&i) && !unwinding.load(Relaxed)
                            }));
                            idle += since(waiting);
                        }
                    }
                    rec.worker_report(WorkerRole::Chunker, w, busy, idle);
                });
            }

            // Main thread: tiny files in file order into the tiny stream.
            let tiny = files.iter().enumerate().filter(|(_, f)| f.size() < cfg.tiny_threshold);
            tiny.map(|(i, f)| (i, pack_tiny(&mut self.tiny_seen, *f, containers, rec)))
                .collect::<BTreeMap<usize, DedupedFile>>()
        });
        // Each lane's stream comes home, in stream order, with its outcomes.
        for lane in lanes {
            let state = lane.state.into_inner().unwrap_or_else(PoisonError::into_inner);
            containers.merge(state.store);
            outs.extend(lane.files.iter().map(|&(i, _)| i).zip(state.outs));
        }

        // Merge in file order — identical to the serial loop.
        debug_assert_eq!(outs.len(), files.len());
        let mut manifest = Manifest::new(self.sessions as u64);
        for out in outs.into_values() {
            manifest.files.push(absorb(out, report, clock));
        }
        manifest
    }

    /// Deletes a past session and reclaims the containers nothing
    /// references any more (the background deletion process of §III.F):
    /// [`AaDedupe::open`]'s fold over every *other* committed manifest, so
    /// what survives is exactly what a reopen would find.
    ///
    /// Crash consistency: the *manifest* delete is the un-commit point.
    /// Until it succeeds nothing is mutated — an `Err` means the session
    /// is still fully restorable and neither memory nor the cloud changed.
    /// After it nothing returns `Err`: the fold is installed and container
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
        let referenced = self.install(live);
        match self.sweep_unreferenced(&referenced) {
            Ok(_) | Err(_) => Ok(()),
        }
    }

    /// Rebuilds the in-memory state from the cloud after the local state
    /// was lost — the disaster-recovery path the paper's periodic
    /// synchronisation enables.
    ///
    /// The newest snapshot is fetched and validated (a repository without
    /// one, or with an undecodable one, is an error) — and then the
    /// manifests decide. The snapshot can be stale in both directions:
    /// [`delete_session`](AaDedupe::delete_session) never uploads a fresh
    /// one (so it resurrects fingerprints of deleted chunks, and a backup
    /// deduping against them would commit a silently unrestorable
    /// session), and sessions after the last sync are absent from it. The
    /// committed manifests are the source of truth, so the index and the
    /// session counter come out of the same fold [`AaDedupe::open`] uses,
    /// which replaces every partition's contents wholesale. A failed
    /// recovery leaves the engine as it was.
    pub fn recover_index_from_cloud(&mut self) -> Result<(), BackupError> {
        let prefix = snapshots_prefix(&self.config.scheme_key);
        let keys = self.cloud.store().list(&prefix);
        let latest =
            keys.last().ok_or_else(|| BackupError::MissingObject(format!("{prefix}*")))?;
        let (bytes, _t) = self.cloud.get(latest)?;
        let bytes = bytes.ok_or_else(|| BackupError::MissingObject(latest.clone()))?;
        // A fresh index as configured, so a poisoned spill tier is left
        // behind with the old one.
        let index = Self::build_index(&self.config);
        codec::decode_app_aware_into(&bytes, &index)
            .map_err(|e| BackupError::Corrupt(format!("index snapshot: {e}")))?;
        let live = self.committed_liveness(None)?;
        self.index = index;
        self.install(live);
        // Post-recovery state matches the cloud exactly, so the stale
        // tiny-file cache and the poison flag are cleared; the container
        // store restarts fresh with its ids resumed past every id ever
        // visible in the namespace.
        self.tiny_seen.clear();
        self.poisoned = None;
        let mut containers = ContainerStore::new(self.config.container_size);
        containers.set_recorder(Arc::clone(&self.config.recorder));
        self.containers = containers;
        self.resume_container_ids();
        Ok(())
    }
}

impl AaDedupe {
    /// Uploads one object, retrying transient failures under the
    /// configured [`RetryPolicy`] and per-session retry `budget`. Backoff
    /// is charged to the simulated transfer clock (and optionally slept);
    /// `op_seq` feeds the deterministic jitter. Exhausting the attempts or
    /// the budget, or any permanent failure, counts an upload give-up and
    /// surfaces the backend error.
    pub(crate) fn put_with_retry(
        &self,
        key: &str,
        bytes: &[u8],
        budget: &mut u32,
        op_seq: u64,
    ) -> Result<(), BackupError> {
        let rec = &self.config.recorder;
        let policy = &self.config.retry;
        let mut attempt = 1u32;
        loop {
            match self.cloud.put(key, bytes.to_vec()) {
                Ok(_t) => return Ok(()),
                Err(e) if e.transient && attempt < policy.max_attempts.max(1) && *budget > 0 => {
                    *budget -= 1;
                    rec.count(Counter::UploadRetries, 1);
                    let wait = policy.backoff(attempt, op_seq);
                    self.cloud.charge(wait);
                    if policy.sleep && !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    attempt += 1;
                }
                Err(e) => {
                    rec.count(Counter::UploadGiveups, 1);
                    return Err(BackupError::Cloud(format!(
                        "{e} (attempt {attempt} of {})",
                        policy.max_attempts.max(1)
                    )));
                }
            }
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
        let puts_before = self.cloud.store().stats();

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

        // Commit protocol: containers first (in id order, so the upload
        // sequence does not depend on stream sealing order), then the
        // manifest — the commit point — then the index snapshot. A crash
        // before the manifest leaves only orphan containers, which the
        // sweep in `open` reclaims; a crash after it leaves a fully
        // restorable session.
        self.containers.seal_all();
        let mut sealed = self.containers.drain_sealed();
        sealed.sort_by_key(|s| s.id);
        let upload_span = rec.trace_start();
        let mut retry_budget = self.config.retry.session_retry_budget;
        let mut upload_seq = 0u64;
        for sealed in sealed {
            let uploading = rec.start();
            let key = container_key(&self.config.scheme_key, sealed.id);
            report.transferred_bytes += sealed.bytes.len() as u64;
            rec.count(Counter::UploadBytes, sealed.bytes.len() as u64);
            rec.count(Counter::UploadObjects, 1);
            upload_seq += 1;
            if let Err(e) = self.put_with_retry(&key, &sealed.bytes, &mut retry_budget, upload_seq)
            {
                // The in-memory index already references this session's
                // chunks; some never reached the cloud. Refuse further
                // backups from this instance.
                self.poisoned = Some(format!("container upload failed: {e}"));
                return Err(e);
            }
            rec.record(Stage::Upload, uploading);
        }
        // Ship the manifest — the commit point.
        let uploading = rec.start();
        let mbytes = manifest.encode();
        report.transferred_bytes += mbytes.len() as u64;
        rec.count(Counter::UploadBytes, mbytes.len() as u64);
        rec.count(Counter::UploadObjects, 1);
        upload_seq += 1;
        let mkey = Manifest::key(&self.config.scheme_key, manifest.session);
        if let Err(e) = self.put_with_retry(&mkey, &mbytes, &mut retry_budget, upload_seq) {
            self.poisoned = Some(format!("manifest upload failed: {e}"));
            return Err(e);
        }
        rec.record(Stage::Upload, uploading);
        // Index synchronisation: a snapshot after every session.
        let uploading = rec.start();
        let snap = codec::encode_app_aware(&self.index);
        report.transferred_bytes += snap.len() as u64;
        rec.count(Counter::UploadBytes, snap.len() as u64);
        rec.count(Counter::UploadObjects, 1);
        upload_seq += 1;
        let skey = snapshot_key(&self.config.scheme_key, self.sessions);
        if let Err(e) = self.put_with_retry(&skey, &snap, &mut retry_budget, upload_seq) {
            // The manifest is committed, so the session is durable and
            // the engine's state matches the cloud; the snapshot is only
            // a recovery accelerator. Count the session and surface the
            // failure without poisoning.
            self.sessions += 1;
            return Err(BackupError::Cloud(format!(
                "session committed, but index snapshot upload failed: {e}"
            )));
        }
        rec.record(Stage::Upload, uploading);
        rec.trace_complete("upload", upload_span);

        let put_delta = self.cloud.store().stats().put_requests - puts_before.put_requests;
        report.put_requests = put_delta;
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
    use aadedupe_hashing::HashAlgorithm;

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
        let mut serial = engine();
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
    fn wfc_records_files_beyond_64_mib_as_64_mib_pieces() {
        // What every repository written so far holds for a compressed
        // file larger than 2^26 bytes; both schedules must keep to it.
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
    fn index_recovery_from_cloud_snapshot() {
        let mut e = engine();
        let files = vec![mem("user/ppt/p.ppt", b"slide deck ".repeat(5000))];
        e.backup_session(&sources(&files)).unwrap();
        let entries_before = e.index().len();
        assert!(entries_before > 0);
        // Simulate client disk loss.
        e.index = AppAwareIndex::new(e.config.ram_entries_per_partition);
        assert_eq!(e.index().len(), 0);
        e.recover_index_from_cloud().unwrap();
        assert_eq!(e.index().len(), entries_before);
        // Recovered index actually dedupes.
        let r = e.backup_session(&sources(&files)).unwrap();
        assert_eq!(r.stored_bytes, 0);
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

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Observability for the AA-Dedupe pipeline — std-only, zero-cost when
//! disabled.
//!
//! The backup engine's per-session [`SessionReport`] aggregates say *what*
//! a session cost; this crate says *where*: per-stage latency histograms
//! (classify / chunk / hash / index / container / upload), per-application
//! index hit/miss counters, pipeline worker busy/idle time, and the
//! restore's verified-container gauge (depth and high-water mark). A [`Recorder`] is
//! plumbed through the engine, index, container store, and chunker;
//! everything it records leaves through one machine-readable [`Document`]
//! (a header, the [`Sampler`]'s samples streamed as they are taken, the
//! buffered spans, and a closing [`Snapshot`] summary — samples and
//! summary in one schema) and one human rendering of that same summary
//! ([`Snapshot::render_table`]).
//!
//! # Zero-cost when disabled
//!
//! Every recording entry point first performs one relaxed atomic load of
//! the enabled flag and returns immediately when it is off — no clock
//! reads, no allocation, no locks. [`Recorder::start`] returns `None` when
//! disabled so callers skip their `Instant::now()` too. The
//! `overhead_guard` test enforces a generous per-op budget on the disabled
//! path so a regression (an accidental mutex or allocation) fails CI.
//!
//! # Determinism
//!
//! The recorder only *observes*: no code path consults it to make a
//! decision, so enabling observability cannot perturb the serial ↔
//! parallel determinism contract (the differential suite runs with it
//! enabled to prove this).
//!
//! [`SessionReport`]: https://docs.rs/aadedupe-metrics

pub mod hist;
pub mod json;
pub mod sampler;
pub mod series;
pub mod snapshot;
pub mod trace;

pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use sampler::{Sample, Sampler, SamplerCore, Sink};
pub use series::{Document, METRICS_SCHEMA_VERSION};
pub use snapshot::{AppIndexSnapshot, QueueSnapshot, Snapshot, StageSnapshot, WorkerSnapshot};
pub use trace::{TraceEvent, TraceSink};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use aadedupe_lock::Lock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The instrumented stages of the backup pipeline, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// File-type / application classification.
    Classify,
    /// Chunk boundary production (per chunk).
    Chunk,
    /// Fingerprint computation (per chunk).
    Hash,
    /// Index partition lookup (per chunk).
    Index,
    /// Appending a unique chunk to its stream's open container.
    ContainerAppend,
    /// Sealing a full (or end-of-session) container.
    ContainerSeal,
    /// Packing one tiny file (the size-filter bypass path).
    TinyPack,
    /// Shipping sealed containers, the manifest, and index snapshots.
    Upload,
    /// Downloading (and parsing) one container during a restore.
    RestoreFetch,
    /// Verifying the referenced chunks of one fetched container.
    RestoreVerify,
    /// Reassembling one file from cached containers, in manifest order.
    RestoreAssemble,
    /// Vacuum: fetching manifests/containers and computing live ratios.
    VacuumAnalyze,
    /// Vacuum: repacking surviving chunks into fresh containers.
    VacuumRewrite,
    /// Vacuum: the crash-ordered commit (container and manifest puts,
    /// then container deletes and snapshot pruning).
    VacuumCommit,
}

impl Stage {
    /// Every stage, in dataflow order.
    pub const ALL: [Stage; 14] = [
        Stage::Classify,
        Stage::Chunk,
        Stage::Hash,
        Stage::Index,
        Stage::ContainerAppend,
        Stage::ContainerSeal,
        Stage::TinyPack,
        Stage::Upload,
        Stage::RestoreFetch,
        Stage::RestoreVerify,
        Stage::RestoreAssemble,
        Stage::VacuumAnalyze,
        Stage::VacuumRewrite,
        Stage::VacuumCommit,
    ];

    /// Stable snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Classify => "classify",
            Stage::Chunk => "chunk",
            Stage::Hash => "hash",
            Stage::Index => "index",
            Stage::ContainerAppend => "container_append",
            Stage::ContainerSeal => "container_seal",
            Stage::TinyPack => "tiny_pack",
            Stage::Upload => "upload",
            Stage::RestoreFetch => "restore_fetch",
            Stage::RestoreVerify => "restore_verify",
            Stage::RestoreAssemble => "restore_assemble",
            Stage::VacuumAnalyze => "vacuum_analyze",
            Stage::VacuumRewrite => "vacuum_rewrite",
            Stage::VacuumCommit => "vacuum_commit",
        }
    }
}

/// Monotonic counters with stable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Files classified by the size filter / classifier.
    FilesClassified,
    /// Chunks produced by content-defined chunking.
    ChunksCdc,
    /// Chunks produced by static (fixed-size) chunking.
    ChunksSc,
    /// Chunks produced by whole-file chunking.
    ChunksWfc,
    /// Bytes that passed through a chunker.
    ChunkBytes,
    /// Index lookups that the storage model charged a disk probe for.
    IndexDiskProbes,
    /// Negative index lookups answered by the existence filter with zero
    /// disk probes (disk-backed partitions only).
    FilterHits,
    /// Index lookups the existence filter passed that then found nothing
    /// on disk — its false positives (disk-backed partitions only).
    FilterFalsePositives,
    /// Chunks appended to containers (unique chunks + tiny payloads).
    ContainerAppends,
    /// Containers sealed.
    ContainersSealed,
    /// Serialized bytes of sealed containers.
    SealedBytes,
    /// Tiny files packed (read + appended).
    TinyPacked,
    /// Tiny files carried forward by reference (unchanged since last
    /// session; no bytes moved).
    TinyCarried,
    /// Objects uploaded to the cloud namespace.
    UploadObjects,
    /// Bytes uploaded to the cloud namespace.
    UploadBytes,
    /// Upload attempts retried after a transient backend failure.
    UploadRetries,
    /// Uploads abandoned (permanent failure, attempts or budget exhausted).
    UploadGiveups,
    /// Unreferenced containers garbage-collected on engine open (crash
    /// leftovers from sessions whose manifest never committed).
    OrphansSwept,
    /// Downloads retried after a transient backend failure — every
    /// download, not only restore's: `open` and the other manifest folds,
    /// vacuum's scan and the session listing retry through the same loop.
    RestoreRetries,
    /// Downloads abandoned (permanent failure, attempts or budget
    /// exhausted), by any reader: restore, `open`/fold, vacuum, sessions.
    RestoreGiveups,
    /// Bytes read from the source dataset into the pipeline (big files at
    /// chunk time, tiny files at pack time; carried-forward tiny files move
    /// no bytes and are not counted).
    SourceBytes,
    /// Unique chunk payload bytes appended to containers (post-dedup,
    /// pre-container framing) — the live numerator of the stored side of
    /// the dedup ratio.
    StoredBytes,
    /// Bytes assembled into restored files.
    RestoredBytes,
    /// Containers rewritten (repacked into fresh ids) by vacuum.
    ContainersRewritten,
    /// Stored bytes reclaimed by vacuum (old containers minus rewrites).
    BytesReclaimed,
}

impl Counter {
    /// Every counter.
    pub const ALL: [Counter; 25] = [
        Counter::FilesClassified,
        Counter::ChunksCdc,
        Counter::ChunksSc,
        Counter::ChunksWfc,
        Counter::ChunkBytes,
        Counter::IndexDiskProbes,
        Counter::FilterHits,
        Counter::FilterFalsePositives,
        Counter::ContainerAppends,
        Counter::ContainersSealed,
        Counter::SealedBytes,
        Counter::TinyPacked,
        Counter::TinyCarried,
        Counter::UploadObjects,
        Counter::UploadBytes,
        Counter::UploadRetries,
        Counter::UploadGiveups,
        Counter::OrphansSwept,
        Counter::RestoreRetries,
        Counter::RestoreGiveups,
        Counter::SourceBytes,
        Counter::StoredBytes,
        Counter::RestoredBytes,
        Counter::ContainersRewritten,
        Counter::BytesReclaimed,
    ];

    /// Stable snake_case name (the JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::FilesClassified => "files_classified",
            Counter::ChunksCdc => "chunks_cdc",
            Counter::ChunksSc => "chunks_sc",
            Counter::ChunksWfc => "chunks_wfc",
            Counter::ChunkBytes => "chunk_bytes",
            Counter::IndexDiskProbes => "index_disk_probes",
            Counter::FilterHits => "filter_hits",
            Counter::FilterFalsePositives => "filter_false_positives",
            Counter::ContainerAppends => "container_appends",
            Counter::ContainersSealed => "containers_sealed",
            Counter::SealedBytes => "sealed_bytes",
            Counter::TinyPacked => "tiny_packed",
            Counter::TinyCarried => "tiny_carried",
            Counter::UploadObjects => "upload_objects",
            Counter::UploadBytes => "upload_bytes",
            Counter::UploadRetries => "upload_retries",
            Counter::UploadGiveups => "upload_giveups",
            Counter::OrphansSwept => "orphans_swept",
            Counter::RestoreRetries => "restore_retries",
            Counter::RestoreGiveups => "restore_giveups",
            Counter::SourceBytes => "source_bytes",
            Counter::StoredBytes => "stored_bytes",
            Counter::RestoredBytes => "restored_bytes",
            Counter::ContainersRewritten => "containers_rewritten",
            Counter::BytesReclaimed => "bytes_reclaimed",
        }
    }
}

/// Which pipeline thread a busy/idle report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkerRole {
    /// A backup session thread: chunk+hash. Id 0 is the session thread,
    /// which also dedupes every file.
    Chunker,
    /// A restore fetch/parse/verify worker.
    Restorer,
}

impl WorkerRole {
    /// Stable name.
    pub const fn name(self) -> &'static str {
        match self {
            WorkerRole::Chunker => "chunker",
            WorkerRole::Restorer => "restorer",
        }
    }
}

/// Highest application tag the per-app hit/miss table covers (AA-Dedupe
/// uses tags 1..=13).
pub const MAX_APP_TAG: usize = 32;

/// A bounded buffer's depth gauge.
#[derive(Debug, Default)]
struct QueueGauge {
    depth: AtomicI64,
    hwm: AtomicI64,
    /// Pops that arrived while the gauge was already at zero. Concurrent
    /// producers and consumers can interleave push/pop arbitrarily, so the
    /// gauge saturates instead of going negative, and the mismatch is
    /// counted here rather than corrupting the depth.
    underflow: AtomicU64,
}

/// One thread's accumulated busy/idle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkerTime {
    role: WorkerRole,
    id: usize,
    busy: Duration,
    idle: Duration,
}

/// The metrics sink every instrumented component records into.
///
/// Cheap to share (`Arc<Recorder>`); all methods take `&self` and are
/// thread-safe. Counters and histograms accumulate over the recorder's
/// lifetime — callers wanting per-session figures take a [`Snapshot`]
/// before and after and subtract.
pub struct Recorder {
    enabled: AtomicBool,
    tracing: AtomicBool,
    epoch: Instant,
    stages: [Histogram; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
    app_hits: [AtomicU64; MAX_APP_TAG],
    app_misses: [AtomicU64; MAX_APP_TAG],
    app_labels: Lock<Vec<(u8, String)>>,
    /// Verified containers a restore has not scattered yet: counted by a
    /// worker after verify, uncounted by the same worker after its scatter.
    /// The high-water mark proves the `workers` restore memory bound.
    restore_verified: QueueGauge,
    workers: Lock<Vec<WorkerTime>>,
    trace: TraceSink,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.is_tracing())
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    fn with_enabled(enabled: bool) -> Self {
        Recorder {
            enabled: AtomicBool::new(enabled),
            tracing: AtomicBool::new(false),
            epoch: Instant::now(),
            stages: std::array::from_fn(|_| Histogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            app_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            app_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            app_labels: Lock::new(Vec::new()),
            restore_verified: QueueGauge::default(),
            workers: Lock::new(Vec::new()),
            trace: TraceSink::default(),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "Stage discriminants index an array with one slot per variant"
    )]
    fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "Counter discriminants index an array with one slot per variant"
    )]
    fn counter(&self, counter: Counter) -> &AtomicU64 {
        &self.counters[counter as usize]
    }

    /// An enabled recorder.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled recorder — every recording call is a no-op after one
    /// relaxed atomic load.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Shared enabled recorder.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Shared disabled recorder (the default everywhere).
    pub fn shared_disabled() -> Arc<Self> {
        Arc::new(Self::disabled())
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Relaxed);
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Additionally buffer chrome-trace events (implies enabled).
    pub fn enable_tracing(&self) {
        self.enabled.store(true, Relaxed);
        self.tracing.store(true, Relaxed);
    }

    /// Whether trace events are being buffered.
    pub fn is_tracing(&self) -> bool {
        self.tracing.load(Relaxed)
    }

    /// Starts a stage/trace timer: `Some(now)` when enabled, `None` when
    /// disabled — so disabled callers never read the clock.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the elapsed time of a timer obtained from
    /// [`Recorder::start`] into `stage`'s histogram.
    #[inline]
    pub fn record(&self, stage: Stage, started: Option<Instant>) {
        if let Some(t) = started {
            self.record_duration(stage, t.elapsed());
        }
    }

    /// Records an externally measured duration into `stage`'s histogram.
    #[inline]
    pub fn record_duration(&self, stage: Stage, d: Duration) {
        if self.is_enabled() {
            self.stage(stage).record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if self.is_enabled() {
            self.counter(counter).fetch_add(n, Relaxed);
        }
    }

    /// Registers a human-readable label for an application tag (idempotent;
    /// used by the snapshot exports).
    pub fn label_app(&self, tag: u8, label: impl Into<String>) {
        let mut g = self.app_labels.lock();
        if !g.iter().any(|(t, _)| *t == tag) {
            g.push((tag, label.into()));
        }
    }

    /// Records one index lookup outcome for an application partition.
    #[inline]
    pub fn index_outcome(&self, tag: u8, hit: bool) {
        if self.is_enabled() {
            let table = if hit { &self.app_hits } else { &self.app_misses };
            // Tags past the table share its last slot.
            if let Some(slot) = table.get(usize::from(tag)).or(table.last()) {
                slot.fetch_add(1, Relaxed);
            }
        }
    }

    /// Notes one verified container a restore worker now holds for its
    /// scatter.
    #[inline]
    pub fn restore_verified_push(&self) {
        if self.is_enabled() {
            let g = &self.restore_verified;
            let depth = g.depth.fetch_add(1, Relaxed) + 1;
            g.hwm.fetch_max(depth, Relaxed);
        }
    }

    /// Notes one verified container scattered and dropped.
    /// Saturates at zero: a pop that races ahead of its matching push (or a
    /// caller bug) increments the gauge's underflow counter instead of
    /// driving the depth negative — a negative depth would poison every
    /// later high-water reading.
    #[inline]
    pub fn restore_verified_pop(&self) {
        if self.is_enabled() {
            let g = &self.restore_verified;
            if g.depth.fetch_update(Relaxed, Relaxed, |d| (d > 0).then(|| d - 1)).is_err() {
                g.underflow.fetch_add(1, Relaxed);
            }
        }
    }

    /// Reports a pipeline thread's accumulated busy/idle split (called once
    /// per thread at exit).
    pub fn worker_report(&self, role: WorkerRole, id: usize, busy: Duration, idle: Duration) {
        if self.is_enabled() {
            self.workers.lock().push(WorkerTime { role, id, busy, idle });
        }
    }

    /// Starts a trace timer: `Some(now)` only when tracing is on.
    #[inline]
    pub fn trace_start(&self) -> Option<Instant> {
        if self.is_tracing() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Buffers a complete trace event for a timer from
    /// [`Recorder::trace_start`].
    pub fn trace_complete(&self, name: &'static str, started: Option<Instant>) {
        let Some(t) = started else { return };
        if !self.is_tracing() {
            return;
        }
        let ts_ns = t.duration_since(self.epoch).as_nanos().min(u64::MAX as u128) as u64;
        let dur_ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.trace.push(TraceEvent { name, ts_ns, dur_ns, tid: self.trace.tid() });
    }

    /// Takes every buffered trace event, ordered by start time.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// Point-in-time copy of every metric. Safe to call while other
    /// threads record; each histogram snapshot is internally consistent
    /// (its count is the sum of its buckets).
    pub fn snapshot(&self) -> Snapshot {
        let labels = self.app_labels.lock().clone();
        let label_of = |tag: u8| {
            labels
                .iter()
                .find(|(t, _)| *t == tag)
                .map_or_else(|| format!("app_{tag:02}"), |(_, l)| l.clone())
        };
        let mut apps = Vec::new();
        for (tag, (hits, misses)) in (0u8..).zip(self.app_hits.iter().zip(&self.app_misses)) {
            let (hits, misses) = (hits.load(Relaxed), misses.load(Relaxed));
            if hits > 0 || misses > 0 {
                apps.push(AppIndexSnapshot { tag, label: label_of(tag), hits, misses });
            }
        }
        let mut workers: Vec<WorkerSnapshot> = self
            .workers
            .lock()
            .iter()
            .map(|w| WorkerSnapshot {
                role: w.role,
                id: w.id,
                busy_ns: w.busy.as_nanos().min(u64::MAX as u128) as u64,
                idle_ns: w.idle.as_nanos().min(u64::MAX as u128) as u64,
            })
            .collect();
        workers.sort_by_key(|w| (w.role, w.id));
        Snapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| StageSnapshot { stage: s, hist: self.stage(s).snapshot() })
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|&c| (c, self.counter(c).load(Relaxed)))
                .collect(),
            apps,
            restore_verified: QueueSnapshot {
                depth: self.restore_verified.depth.load(Relaxed).max(0) as u64,
                hwm: self.restore_verified.hwm.load(Relaxed).max(0) as u64,
                underflow: self.restore_verified.underflow.load(Relaxed),
            },
            workers,
        }
    }

    /// Zeroes every metric and drops buffered trace events. Labels and the
    /// enabled/tracing flags are kept.
    pub fn reset(&self) {
        for h in &self.stages {
            h.reset();
        }
        for c in &self.counters {
            c.store(0, Relaxed);
        }
        for t in self.app_hits.iter().chain(&self.app_misses) {
            t.store(0, Relaxed);
        }
        let q = &self.restore_verified;
        q.depth.store(0, Relaxed);
        q.hwm.store(0, Relaxed);
        q.underflow.store(0, Relaxed);
        self.workers.lock().clear();
        self.trace.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert_eq!(r.start(), None);
        r.record(Stage::Chunk, r.start());
        r.record_duration(Stage::Hash, Duration::from_millis(5));
        r.count(Counter::ChunkBytes, 100);
        r.index_outcome(1, true);
        r.restore_verified_push();
        r.worker_report(WorkerRole::Chunker, 0, Duration::from_secs(1), Duration::ZERO);
        r.trace_complete("x", r.trace_start());
        let s = r.snapshot();
        assert_eq!(s.stage(Stage::Chunk).hist.count, 0);
        assert_eq!(s.counter(Counter::ChunkBytes), 0);
        assert!(s.apps.is_empty());
        assert!(s.workers.is_empty());
        assert_eq!(s.restore_verified.hwm, 0);
        assert!(r.drain_trace().is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates_everything() {
        let r = Recorder::new();
        r.record(Stage::Chunk, r.start());
        r.record_duration(Stage::Chunk, Duration::from_micros(3));
        r.count(Counter::ChunksCdc, 2);
        r.index_outcome(5, true);
        r.index_outcome(5, false);
        r.index_outcome(5, false);
        r.label_app(5, "rar");
        r.restore_verified_push();
        r.restore_verified_push();
        r.restore_verified_pop();
        r.worker_report(WorkerRole::Restorer, 4, Duration::from_millis(2), Duration::from_millis(1));
        let s = r.snapshot();
        assert_eq!(s.stage(Stage::Chunk).hist.count, 2);
        assert_eq!(s.counter(Counter::ChunksCdc), 2);
        let app = &s.apps[0];
        assert_eq!((app.tag, app.label.as_str(), app.hits, app.misses), (5, "rar", 1, 2));
        assert_eq!(s.restore_verified.hwm, 2);
        assert_eq!(s.restore_verified.depth, 1);
        assert_eq!(s.workers[0].role, WorkerRole::Restorer);
        r.reset();
        assert_eq!(r.snapshot().counter(Counter::ChunksCdc), 0);
    }

    #[test]
    fn tracing_buffers_complete_events() {
        let r = Recorder::new();
        assert!(r.trace_start().is_none(), "tracing off by default");
        r.enable_tracing();
        let t = r.trace_start();
        std::thread::sleep(Duration::from_millis(1));
        r.trace_complete("span", t);
        let evs = r.drain_trace();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "span");
        assert!(evs[0].dur_ns >= 1_000_000);
    }
}

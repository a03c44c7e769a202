#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! `aabackup` — a usable AA-Dedupe backup client.
//!
//! Backs up a directory tree into a filesystem-backed repository using
//! the full AA-Dedupe pipeline (file size filter, application-aware
//! chunking and hashing, per-application indexes, 1 MiB containers), and
//! restores any past session bit-exactly.
//!
//! ```text
//! aabackup backup  --repo <dir> [--workers N] [--chunker rabin|fastcdc]
//!                  [--index-dir <dir>] [--index-ram <entries>] [--stats]
//!                  [--metrics <f>] [--metrics-interval-ms N] [--progress]
//!                  <source-dir>
//! aabackup restore --repo <dir> [--workers N] [--stats] [--metrics <f>]
//!                  [--metrics-interval-ms N] [--progress] <session> <out>
//! aabackup restore-file --repo <dir> [--workers N] <session> <path> <out-file>
//! aabackup sessions --repo <dir>                  list sessions
//! aabackup delete  --repo <dir> [--index-dir <dir>] [--index-ram <entries>]
//!                  <session>                      delete + reclaim space
//! aabackup vacuum  --repo <dir> [--ratio <f>] [--dry-run]
//!                  [--index-dir <dir>] [--index-ram <entries>]
//!                                                 rewrite sparse containers
//! aabackup retention --repo <dir> (--keep-last N | --gfs D,W,M) [--vacuum]
//!                  [--index-dir <dir>] [--index-ram <entries>]
//!                                                 prune sessions by policy
//! aabackup stats   --repo <dir>                   repository statistics
//! ```
//!
//! `--workers N` sets both the backup pipeline's and the restore's worker
//! threads. Without it both keep the engine's default: one worker per
//! core, at most 8. The worker count never changes what a backup stores
//! or a restore writes.
//!
//! `--metrics <f>` writes the run's one telemetry document (NDJSON:
//! `header`, a `sample` per tick as it is taken, `span`s, closing
//! `summary`); `--stats` prints that summary as a table; `--progress`
//! redraws a status line on every tick of the same sampler.
//!
//! `restore`, `restore-file`, `sessions` and `vacuum --dry-run` only
//! read: they never modify the repository and build no index. Every other
//! command first rebuilds the index from the repository's manifests — its
//! one durable form; `--index-dir` names scratch space for that run, not
//! saved state — and sweeps containers no manifest references.

mod progress;
mod source;

use std::fs::File;
use std::io::BufWriter;
use std::path::{Component, Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use aadedupe_chunking::CdcAlgorithm;
use aadedupe_cloud::{CloudSim, FsObjectStore, PriceModel, WanModel};
use aadedupe_core::restore::containers_prefix;
use aadedupe_core::{
    AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, RestoreOptions, RetentionPolicy,
    RetryPolicy, VacuumOptions,
};
use aadedupe_obs::{Document, Recorder, Sample, Sampler, Sink};

use progress::{Progress, ProgressKind};
use source::walk_directory;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  aabackup backup  --repo <dir> [--workers N] [--chunker rabin|fastcdc]\n                   [--index-dir <dir>] [--index-ram <entries>] [--stats]\n                   [--metrics <file>] [--metrics-interval-ms N] [--progress] <source-dir>\n  aabackup restore --repo <dir> [--workers N] [--stats]\n                   [--metrics <file>] [--metrics-interval-ms N] [--progress] <session> <out-dir>\n  aabackup restore-file --repo <dir> [--workers N] <session> <path> <out-file>\n  aabackup sessions --repo <dir>\n  aabackup delete  --repo <dir> [--index-dir <dir>] [--index-ram <entries>] <session>\n  aabackup vacuum  --repo <dir> [--ratio <f>] [--dry-run]\n                   [--index-dir <dir>] [--index-ram <entries>]\n  aabackup retention --repo <dir> (--keep-last N | --gfs D,W,M) [--vacuum]\n                   [--index-dir <dir>] [--index-ram <entries>]\n  aabackup stats   --repo <dir>\n\n--workers N sets the backup and restore worker threads; without it,\nboth run one per core (at most 8)."
    );
    ExitCode::from(2)
}

/// Splits a boolean `flag` out of the argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Splits `<flag> <value>` out of the argument list and parses the value.
/// `Ok(None)` means the flag was absent; `Err` means it was present but
/// its value was missing or `parse` refused it.
fn take_value<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ()> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    parse(&value).map(Some).ok_or(())
}

fn parse_path(value: &str) -> Option<PathBuf> {
    Some(PathBuf::from(value))
}

fn parse_u64(value: &str) -> Option<u64> {
    value.parse().ok()
}

/// `D,W,M`: three comma-separated counts.
fn parse_gfs(value: &str) -> Option<(usize, usize, usize)> {
    let parts: Vec<&str> = value.split(',').collect();
    let [d, w, m] = parts.as_slice() else { return None };
    Some((d.parse().ok()?, w.parse().ok()?, m.parse().ok()?))
}

/// Telemetry outputs requested on the command line.
struct ObsArgs {
    stats: bool,
    metrics: Option<PathBuf>,
    metrics_interval_ms: u64,
    progress: bool,
}

/// A run's telemetry between [`ObsArgs::start`] and [`ObsArgs::stop`].
struct Telemetry {
    rec: Arc<Recorder>,
    /// Present with `--metrics` or `--progress`.
    sampler: Option<Sampler<Live>>,
}

/// The sampler's sink: each tick is one document line and one redraw.
struct Live {
    doc: Option<Document<BufWriter<File>>>,
    progress: Option<Progress>,
}

impl Sink for Live {
    fn sample(&mut self, sample: Sample) {
        if let Some(doc) = &mut self.doc {
            doc.sample(&sample);
        }
        if let Some(progress) = &mut self.progress {
            progress.tick(&sample);
        }
    }
}

impl ObsArgs {
    /// A recorder when any output was asked for, `None` (the engine's
    /// disabled default) otherwise. It records nothing until
    /// [`ObsArgs::start`] turns it on, so the samples and the summary
    /// cover the same window: the run, not the repository open before it.
    fn recorder(&self) -> Option<Arc<Recorder>> {
        (self.stats || self.metrics.is_some() || self.progress).then(Recorder::shared_disabled)
    }

    /// Turns `rec` on (spans only for the document) and, with `--metrics`
    /// or `--progress`, starts the sampler. The document is created, its
    /// header labelled `session`, before the run, so a bad path fails the
    /// command first; `total` bytes give the status line an ETA.
    fn start(
        &self,
        rec: Option<Arc<Recorder>>,
        session: &str,
        kind: ProgressKind,
        total: Option<u64>,
    ) -> Result<Option<Telemetry>, String> {
        let Some(rec) = rec else { return Ok(None) };
        let interval_ms = self.metrics_interval_ms.max(1);
        let doc = match &self.metrics {
            Some(path) => Some(
                File::create(path)
                    .and_then(|f| Document::start(BufWriter::new(f), session, interval_ms))
                    .map_err(|e| format!("write metrics {path:?}: {e}"))?,
            ),
            None => None,
        };
        if doc.is_some() {
            rec.enable_tracing();
        } else {
            rec.enable();
        }
        let progress = self.progress.then(|| Progress::new(kind, total));
        let sampler = (doc.is_some() || progress.is_some()).then(|| {
            let interval = Duration::from_millis(interval_ms);
            Sampler::spawn(Arc::clone(&rec), interval, Live { doc, progress })
        });
        Ok(Some(Telemetry { rec, sampler }))
    }

    /// Stops the sampler after its final tick, ends the status line, and
    /// takes the closing snapshot once: `--metrics` closes the document
    /// with it and `--stats` renders the same value. Returns what to print
    /// after the command's own report.
    fn stop(&self, telemetry: Option<Telemetry>) -> Result<String, String> {
        let Some(Telemetry { rec, sampler }) = telemetry else { return Ok(String::new()) };
        let live = sampler.map(Sampler::stop);
        let summary = rec.snapshot();
        let mut after = String::new();
        if let Some(Live { doc, progress }) = live {
            if let Some(progress) = progress {
                progress.end_line();
            }
            if let (Some(doc), Some(path)) = (doc, &self.metrics) {
                doc.finish(&rec.drain_trace(), &summary)
                    .map_err(|e| format!("write metrics {path:?}: {e}"))?;
                after = format!("  telemetry written to {}\n", path.display());
            }
        }
        if self.stats {
            after.push_str(&summary.render_table());
        }
        Ok(after)
    }
}

/// Index storage settings of the commands that rebuild the index
/// ([`open_engine`]): `--index-dir <dir>` spills index entries beyond the
/// RAM budget to segment files under `<dir>` — scratch space the run
/// sweeps and refills, never state a later run depends on — and
/// `--index-ram <entries>` sets the per-partition RAM-cache budget
/// (defaults to the engine default when absent). The reading commands
/// accept and ignore both.
#[derive(Clone, Default)]
struct IndexArgs {
    dir: Option<PathBuf>,
    ram: Option<u64>,
}

impl IndexArgs {
    fn take(args: &mut Vec<String>) -> Result<IndexArgs, ()> {
        Ok(IndexArgs {
            dir: take_value(args, "--index-dir", parse_path)?,
            ram: match take_value(args, "--index-ram", parse_u64)? {
                Some(0) => return Err(()), // a zero-entry cache is a mistake
                other => other,
            },
        })
    }
}

/// The repository under `repo`. Opening it changes nothing inside it.
fn open_store(repo: &Path) -> Result<FsObjectStore, String> {
    FsObjectStore::open(repo).map_err(|e| format!("cannot open repository {repo:?}: {e}"))
}

/// `store` as a cloud, and the configuration every command runs the
/// engine with.
fn repository(
    store: FsObjectStore,
    workers: Option<usize>,
    chunker: CdcAlgorithm,
    recorder: Option<Arc<Recorder>>,
) -> (CloudSim, AaDedupeConfig) {
    // A local repository has no WAN: model an ideal fast link so timings
    // reflect dedup work, while keeping the S3 cost model for reporting.
    let cloud = CloudSim::with_backend(
        Arc::new(store),
        WanModel::ideal(1e9, 1e9),
        PriceModel::s3_april_2011(),
    );
    // Without `--workers`, backup and restore keep the engine's defaults.
    let mut config = AaDedupeConfig {
        pipeline: workers.map_or_else(PipelineConfig::default, PipelineConfig::with_workers),
        cdc: aadedupe_chunking::DEFAULT_CDC.with_algorithm(chunker),
        restore: workers.map_or_else(RestoreOptions::default, |workers| RestoreOptions { workers }),
        // Against a real disk, backoff should really wait, not just be
        // charged to the simulated clock.
        retry: RetryPolicy { sleep: true, ..RetryPolicy::default() },
        ..AaDedupeConfig::default()
    };
    if let Some(rec) = recorder {
        config.recorder = rec;
    }
    (cloud, config)
}

/// The engine for commands that change the repository (backup, delete,
/// vacuum, retention): the store's stale temp files are swept, and
/// [`AaDedupe::open`] rebuilds the index from the manifests and sweeps
/// orphaned containers.
fn open_engine(
    repo: &Path,
    workers: Option<usize>,
    chunker: CdcAlgorithm,
    index: &IndexArgs,
    recorder: Option<Arc<Recorder>>,
) -> Result<AaDedupe, String> {
    let store = open_store(repo)?;
    store.sweep_stale_writes();
    let (cloud, mut config) = repository(store, workers, chunker, recorder);
    config.index_dir = index.dir.clone();
    if let Some(ram) = index.ram {
        config.ram_entries_per_partition = ram as usize;
    }
    AaDedupe::open(cloud, config).map_err(|e| format!("cannot resume repository state: {e}"))
}

/// The engine for commands that only read (restore, restore-file,
/// sessions, vacuum --dry-run, stats). They consult manifests and
/// containers, never the index, so nothing is rebuilt — and nothing is
/// swept: a container no manifest references yet, or a temp file, may be
/// a concurrent backup's, on its way to the commit point. A reading
/// command never modifies the repository.
fn read_engine(
    repo: &Path,
    workers: Option<usize>,
    recorder: Option<Arc<Recorder>>,
) -> Result<AaDedupe, String> {
    let (cloud, config) = repository(open_store(repo)?, workers, CdcAlgorithm::Rabin, recorder);
    Ok(AaDedupe::with_config(cloud, config))
}

fn cmd_backup(
    repo: &Path,
    src: &Path,
    workers: Option<usize>,
    chunker: CdcAlgorithm,
    index: &IndexArgs,
    obs: &ObsArgs,
) -> Result<(), String> {
    let rec = obs.recorder();
    let mut engine = open_engine(repo, workers, chunker, index, rec.clone())?;
    if engine.orphans_swept() > 0 {
        println!(
            "swept {} orphaned container(s) left by an interrupted backup",
            engine.orphans_swept()
        );
    }
    let files =
        walk_directory(src).map_err(|e| format!("cannot walk source {src:?}: {e}"))?;
    let sources: Vec<&dyn aadedupe_filetype::SourceFile> =
        files.iter().map(|f| f as &dyn aadedupe_filetype::SourceFile).collect();
    let session = engine.sessions_completed();
    let total: u64 = sources.iter().map(|f| f.size()).sum();
    let telemetry =
        obs.start(rec, &format!("backup-{session:05}"), ProgressKind::Backup, Some(total))?;
    let outcome = engine.backup_session(&sources);
    let telemetry = obs.stop(telemetry);
    let report = outcome.map_err(|e| format!("backup failed: {e}"))?;
    println!(
        "session {session}: {} files ({} tiny), {} logical",
        report.files_total,
        report.files_tiny,
        human(report.logical_bytes)
    );
    println!(
        "  new data {} | uploaded {} | DR {:.2} | {} duplicate of {} chunks",
        human(report.stored_bytes),
        human(report.transferred_bytes),
        report.dr(),
        report.chunks_duplicate,
        report.chunks_total
    );
    println!(
        "  dedup time {:.2}s ({} saved/s)",
        report.dedup_cpu.as_secs_f64(),
        human(report.de() as u64)
    );
    print!("{}", telemetry?);
    Ok(())
}

fn cmd_restore(
    repo: &Path,
    session: usize,
    out: &Path,
    workers: Option<usize>,
    obs: &ObsArgs,
) -> Result<(), String> {
    let rec = obs.recorder();
    let engine = read_engine(repo, workers, rec.clone())?;
    // Restore size is not known until the manifest is read, so the status
    // line shows throughput without an ETA.
    let telemetry =
        obs.start(rec, &format!("restore-{session:05}"), ProgressKind::Restore, None)?;
    let outcome = engine.restore_session(session);
    let telemetry = obs.stop(telemetry);
    let files = outcome.map_err(|e| format!("restore failed: {e}"))?;
    // The manifest is outside input: `join` lets `..` climb out of `out` and
    // an absolute path replace it, so every path is checked before the
    // first file is created.
    let inside =
        |path: &str| Path::new(path).components().all(|c| matches!(c, Component::Normal(_)));
    if let Some(bad) = files.iter().find(|f| !inside(&f.path)) {
        return Err(format!(
            "restore refused, nothing written: manifest names a path outside the output \
             directory: {:?}",
            bad.path
        ));
    }
    for f in &files {
        let dest = out.join(&f.path);
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        std::fs::write(&dest, &f.data).map_err(|e| format!("write {dest:?}: {e}"))?;
    }
    println!("restored {} files from session {session} into {out:?}", files.len());
    print!("{}", telemetry?);
    Ok(())
}

fn cmd_restore_file(
    repo: &Path,
    session: usize,
    path: &str,
    out: &Path,
    workers: Option<usize>,
) -> Result<(), String> {
    let engine = read_engine(repo, workers, None)?;
    let file = engine
        .restore_file(session, path)
        .map_err(|e| format!("restore failed: {e}"))?;
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    std::fs::write(out, &file.data).map_err(|e| format!("write {out:?}: {e}"))?;
    println!("restored {} ({} bytes) from session {session} to {out:?}", path, file.data.len());
    Ok(())
}

fn cmd_sessions(repo: &Path) -> Result<(), String> {
    let engine = read_engine(repo, None, None)?;
    let sessions = engine.list_sessions();
    if sessions.is_empty() {
        println!("no sessions");
        return Ok(());
    }
    // The manifest alone names every file and its length; scrubbing the
    // containers behind it is not the listing's job.
    for s in sessions {
        match engine.manifest(s) {
            Ok(m) => println!("session {s}: {} files, {}", m.files.len(), human(m.logical_bytes())),
            Err(e) => println!("session {s}: unreadable ({e})"),
        }
    }
    Ok(())
}

fn cmd_delete(repo: &Path, session: usize, index: &IndexArgs) -> Result<(), String> {
    let mut engine = open_engine(repo, None, CdcAlgorithm::Rabin, index, None)?;
    engine.delete_session(session).map_err(|e| format!("delete failed: {e}"))?;
    println!("deleted session {session}; unreferenced containers reclaimed");
    Ok(())
}

/// Runs a vacuum pass on an already-open engine and prints the report;
/// shared by `vacuum` and `retention --vacuum`.
fn run_vacuum(engine: &mut AaDedupe, ratio: f64, dry_run: bool) -> Result<(), String> {
    let cost_before = engine.cloud().monthly_cost().storage;
    let opts = VacuumOptions { ratio, dry_run };
    let report = engine.vacuum(&opts).map_err(|e| format!("vacuum failed: {e}"))?;
    let verb = if report.dry_run { "would rewrite" } else { "rewrote" };
    println!(
        "vacuum (ratio {ratio}): {verb} {} of {} containers into {}, {} deleted, {} manifests repointed",
        report.containers_rewritten,
        report.containers_total,
        report.containers_created,
        report.containers_deleted,
        report.manifests_rewritten
    );
    println!(
        "  {} {} across {} chunk relocations",
        if report.dry_run { "would reclaim" } else { "reclaimed" },
        human(report.bytes_reclaimed),
        report.relocations
    );
    if !report.dry_run {
        let cost_after = engine.cloud().monthly_cost().storage;
        println!(
            "  stored {} -> {} | S3 storage cost ${:.4}/mo -> ${:.4}/mo",
            human(report.stored_bytes_before),
            human(report.stored_bytes_after),
            cost_before,
            cost_after
        );
    }
    Ok(())
}

fn cmd_vacuum(repo: &Path, ratio: f64, dry_run: bool, index: &IndexArgs) -> Result<(), String> {
    // A dry run only reads manifests and containers: it needs no index and
    // must not sweep, so it opens the repository like a reader.
    let mut engine = if dry_run {
        read_engine(repo, None, None)?
    } else {
        open_engine(repo, None, CdcAlgorithm::Rabin, index, None)?
    };
    run_vacuum(&mut engine, ratio, dry_run)
}

fn cmd_retention(
    repo: &Path,
    policy: &RetentionPolicy,
    vacuum_after: bool,
    index: &IndexArgs,
) -> Result<(), String> {
    let mut engine = open_engine(repo, None, CdcAlgorithm::Rabin, index, None)?;
    let report =
        engine.apply_retention(policy).map_err(|e| format!("retention failed: {e}"))?;
    println!(
        "retention: examined {} sessions, retained {}, deleted {}",
        report.examined, report.retained, report.deleted
    );
    if vacuum_after {
        run_vacuum(&mut engine, VacuumOptions::default().ratio, false)?;
    }
    Ok(())
}

fn cmd_stats(repo: &Path) -> Result<(), String> {
    let engine = read_engine(repo, None, None)?;
    let chunks = engine.committed_chunks().map_err(|e| format!("cannot read manifests: {e}"))?;
    let store = engine.cloud().store();
    println!("repository: {} objects, {}", store.object_count(), human(store.stored_bytes()));
    println!(
        "  containers: {}",
        store.list(&containers_prefix(&engine.config().scheme_key)).len()
    );
    println!("  sessions:   {:?}", engine.list_sessions());
    println!("  index:      {chunks} chunks");
    let cost = engine.cloud().monthly_cost();
    println!(
        "  S3-equivalent monthly cost: ${:.4} (storage ${:.4}, transfer ${:.4}, requests ${:.4})",
        cost.total(),
        cost.storage,
        cost.transfer,
        cost.request
    );
    Ok(())
}

fn human(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else { return usage() };
    args.remove(0);
    let Ok(Some(repo)) = take_value(&mut args, "--repo", parse_path) else { return usage() };
    let Ok(workers) =
        take_value(&mut args, "--workers", |v| v.parse::<usize>().ok().filter(|&n| n >= 1))
    else {
        return usage();
    };
    let Ok(chunker) = take_value(&mut args, "--chunker", CdcAlgorithm::parse) else {
        return usage();
    };
    let chunker = chunker.unwrap_or(CdcAlgorithm::Rabin);
    let Ok(index) = IndexArgs::take(&mut args) else { return usage() };
    let stats = take_flag(&mut args, "--stats");
    let Ok(metrics) = take_value(&mut args, "--metrics", parse_path) else { return usage() };
    let Ok(metrics_interval_ms) = take_value(&mut args, "--metrics-interval-ms", parse_u64) else {
        return usage();
    };
    let progress = take_flag(&mut args, "--progress");
    let Ok(ratio) = take_value(&mut args, "--ratio", |v| {
        v.parse::<f64>().ok().filter(|f| (0.0..=1.0).contains(f))
    }) else {
        return usage();
    };
    let dry_run = take_flag(&mut args, "--dry-run");
    let Ok(keep_last) = take_value(&mut args, "--keep-last", parse_u64) else { return usage() };
    let Ok(gfs) = take_value(&mut args, "--gfs", parse_gfs) else { return usage() };
    let vacuum_after = take_flag(&mut args, "--vacuum");
    let obs = ObsArgs {
        stats,
        metrics,
        metrics_interval_ms: metrics_interval_ms.unwrap_or(250),
        progress,
    };

    let result = match (command.as_str(), args.as_slice()) {
        ("backup", [src]) => cmd_backup(&repo, Path::new(src), workers, chunker, &index, &obs),
        ("restore", [session, out]) => match session.parse() {
            Ok(s) => cmd_restore(&repo, s, Path::new(out), workers, &obs),
            Err(_) => return usage(),
        },
        ("restore-file", [session, path, out]) => match session.parse() {
            Ok(s) => cmd_restore_file(&repo, s, path, Path::new(out), workers),
            Err(_) => return usage(),
        },
        ("sessions", []) => cmd_sessions(&repo),
        ("delete", [session]) => match session.parse() {
            Ok(s) => cmd_delete(&repo, s, &index),
            Err(_) => return usage(),
        },
        ("vacuum", []) => {
            cmd_vacuum(&repo, ratio.unwrap_or(VacuumOptions::default().ratio), dry_run, &index)
        }
        ("retention", []) => match (keep_last, gfs) {
            (Some(n), None) => {
                cmd_retention(&repo, &RetentionPolicy::KeepLast(n as usize), vacuum_after, &index)
            }
            (None, Some((d, w, m))) => cmd_retention(
                &repo,
                &RetentionPolicy::Gfs { daily: d, weekly: w, monthly: m },
                vacuum_after,
                &index,
            ),
            _ => return usage(),
        },
        ("stats", []) => cmd_stats(&repo),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

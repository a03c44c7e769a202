#![forbid(unsafe_code)]
//! `aabackup` — a usable AA-Dedupe backup client.
//!
//! Backs up a directory tree into a filesystem-backed repository using
//! the full AA-Dedupe pipeline (file size filter, application-aware
//! chunking and hashing, per-application indexes, 1 MiB containers), and
//! restores any past session bit-exactly.
//!
//! ```text
//! aabackup backup  --repo <dir> [--workers N] [--stats] [--stats-json <f>]
//!                  [--trace <f>] <source-dir>
//! aabackup restore --repo <dir> [--workers N] [--stats] <session> <out>
//! aabackup restore-file --repo <dir> [--workers N] <session> <path> <out-file>
//! aabackup sessions --repo <dir>                  list sessions
//! aabackup delete  --repo <dir> <session>         delete + reclaim space
//! aabackup vacuum  --repo <dir> [--ratio <f>] [--dry-run]
//!                                                 rewrite sparse containers
//! aabackup retention --repo <dir> (--keep-last N | --gfs D,W,M) [--vacuum]
//!                                                 prune sessions by policy
//! aabackup stats   --repo <dir>                   repository statistics
//! ```

mod progress;
mod source;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use aadedupe_chunking::CdcAlgorithm;
use aadedupe_cloud::{CloudSim, FsObjectStore, PriceModel, WanModel};
use aadedupe_core::{
    AaDedupe, AaDedupeConfig, BackupError, BackupScheme, Manifest, PipelineConfig,
    RestoreOptions, RetentionPolicy, RetryPolicy, VacuumOptions,
};
use aadedupe_obs::{Recorder, Sampler, SamplerConfig, Scope};

use progress::{Progress, ProgressKind};
use source::walk_directory;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  aabackup backup  --repo <dir> [--workers N] [--chunker rabin|fastcdc]\n                   [--index-dir <dir>] [--index-ram <entries>] [--stats] [--stats-json <file>] [--trace <file>]\n                   [--metrics <file>] [--metrics-interval-ms N] [--progress] <source-dir>\n  aabackup restore --repo <dir> [--workers N] [--stats] [--stats-json <file>]\n                   [--metrics <file>] [--metrics-interval-ms N] [--progress] <session> <out-dir>\n  aabackup restore-file --repo <dir> [--workers N] <session> <path> <out-file>\n  aabackup sessions --repo <dir>\n  aabackup delete  --repo <dir> <session>\n  aabackup vacuum  --repo <dir> [--ratio <f>] [--dry-run]\n  aabackup retention --repo <dir> (--keep-last N | --gfs D,W,M) [--vacuum]\n  aabackup stats   --repo <dir>"
    );
    ExitCode::from(2)
}

/// Splits `--repo <dir>` out of the argument list.
fn take_repo(args: &mut Vec<String>) -> Option<PathBuf> {
    let i = args.iter().position(|a| a == "--repo")?;
    if i + 1 >= args.len() {
        return None;
    }
    let dir = args.remove(i + 1);
    args.remove(i);
    Some(PathBuf::from(dir))
}

/// Splits `--workers <n>` out of the argument list. `Err` means the flag
/// was present but malformed (missing or non-numeric value, or zero).
fn take_workers(args: &mut Vec<String>) -> Result<Option<usize>, ()> {
    let Some(i) = args.iter().position(|a| a == "--workers") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(()),
    }
}

/// Splits `--chunker <rabin|fastcdc>` out of the argument list. `Err`
/// means the flag was present but its value was missing or unknown.
fn take_chunker(args: &mut Vec<String>) -> Result<Option<CdcAlgorithm>, ()> {
    let Some(i) = args.iter().position(|a| a == "--chunker") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    match CdcAlgorithm::parse(&value) {
        Some(alg) => Ok(Some(alg)),
        None => Err(()),
    }
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

/// Splits `<flag> <path>` out of the argument list. `Err` means the flag
/// was present but its value was missing.
fn take_path(args: &mut Vec<String>, flag: &str) -> Result<Option<PathBuf>, ()> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(PathBuf::from(value)))
}

/// Splits `<flag> <n>` (a non-negative integer) out of the argument list.
/// `Err` means the flag was present but its value was missing or
/// non-numeric.
fn take_u64(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, ()> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    value.parse::<u64>().map(Some).map_err(|_| ())
}

/// Splits `<flag> <f>` (a ratio in `0.0..=1.0`) out of the argument list.
/// `Err` means the flag was present but its value was missing, non-numeric
/// or out of range.
fn take_ratio(args: &mut Vec<String>, flag: &str) -> Result<Option<f64>, ()> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    match value.parse::<f64>() {
        Ok(f) if (0.0..=1.0).contains(&f) => Ok(Some(f)),
        _ => Err(()),
    }
}

/// Splits `--gfs D,W,M` out of the argument list. `Err` means the flag was
/// present but its value was missing or not three comma-separated counts.
fn take_gfs(args: &mut Vec<String>) -> Result<Option<(usize, usize, usize)>, ()> {
    let Some(i) = args.iter().position(|a| a == "--gfs") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    let parts: Vec<&str> = value.split(',').collect();
    let [d, w, m] = parts.as_slice() else { return Err(()) };
    match (d.parse(), w.parse(), m.parse()) {
        (Ok(d), Ok(w), Ok(m)) => Ok(Some((d, w, m))),
        _ => Err(()),
    }
}

/// Observability outputs requested on the command line.
struct ObsArgs {
    stats: bool,
    stats_json: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_interval_ms: u64,
    progress: bool,
}

impl ObsArgs {
    fn any(&self) -> bool {
        self.stats
            || self.stats_json.is_some()
            || self.trace.is_some()
            || self.metrics.is_some()
            || self.progress
    }

    /// Whether a background sampler is needed (metrics stream or live
    /// progress line).
    fn wants_sampler(&self) -> bool {
        self.metrics.is_some() || self.progress
    }

    /// Spawns the sampler for `session_label` when requested; the handle
    /// is inert when nothing needs sampling.
    fn spawn_sampler(&self, rec: &Arc<Recorder>, session_label: String) -> Option<Sampler> {
        self.wants_sampler().then(|| {
            let cfg = SamplerConfig {
                interval: Duration::from_millis(self.metrics_interval_ms.max(1)),
                ..SamplerConfig::default()
            };
            Sampler::spawn(Arc::clone(rec), Scope::session(session_label), cfg)
        })
    }

    /// Stops `sampler` and writes its NDJSON stream to `--metrics` if
    /// requested.
    fn finish_sampler(&self, sampler: Option<Sampler>) -> Result<(), String> {
        let Some(sampler) = sampler else { return Ok(()) };
        let series = sampler.stop();
        if let Some(path) = &self.metrics {
            std::fs::write(path, series.to_ndjson())
                .map_err(|e| format!("write metrics {path:?}: {e}"))?;
            println!(
                "  metrics time-series written to {} ({} samples{})",
                path.display(),
                series.len(),
                if series.dropped() > 0 {
                    format!(", {} evicted", series.dropped())
                } else {
                    String::new()
                }
            );
        }
        Ok(())
    }
}

/// Index storage settings shared by every subcommand: `--index-dir <dir>`
/// spills index entries beyond the RAM budget to segment files under
/// `<dir>`, and `--index-ram <entries>` sets the per-partition RAM-cache
/// budget (defaults to the engine default when absent).
#[derive(Clone, Default)]
struct IndexArgs {
    dir: Option<PathBuf>,
    ram: Option<u64>,
}

impl IndexArgs {
    fn take(args: &mut Vec<String>) -> Result<IndexArgs, ()> {
        Ok(IndexArgs {
            dir: take_path(args, "--index-dir")?,
            ram: match take_u64(args, "--index-ram")? {
                Some(0) => return Err(()), // a zero-entry cache is a mistake
                other => other,
            },
        })
    }
}

fn open_engine(
    repo: &Path,
    workers: usize,
    chunker: CdcAlgorithm,
    index: &IndexArgs,
    recorder: Option<Arc<Recorder>>,
) -> Result<AaDedupe, String> {
    let store =
        FsObjectStore::open(repo).map_err(|e| format!("cannot open repository {repo:?}: {e}"))?;
    // A local repository has no WAN: model an ideal fast link so timings
    // reflect dedup work, while keeping the S3 cost model for reporting.
    let cloud = CloudSim::with_backend(
        Arc::new(store),
        WanModel::ideal(1e9, 1e9),
        PriceModel::s3_april_2011(),
    );
    let mut config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        cdc: aadedupe_chunking::DEFAULT_CDC.with_algorithm(chunker),
        restore: RestoreOptions { workers },
        // Against a real disk, backoff should really wait, not just be
        // charged to the simulated clock.
        retry: RetryPolicy { sleep: true, ..RetryPolicy::default() },
        ..AaDedupeConfig::default()
    };
    config.index_dir = index.dir.clone();
    if let Some(ram) = index.ram {
        config.ram_entries_per_partition = ram as usize;
    }
    if let Some(rec) = recorder {
        config.recorder = rec;
    }
    AaDedupe::open(cloud, config).map_err(|e| format!("cannot resume repository state: {e}"))
}

fn cmd_backup(
    repo: &Path,
    src: &Path,
    workers: usize,
    chunker: CdcAlgorithm,
    index: &IndexArgs,
    obs: &ObsArgs,
) -> Result<(), String> {
    let rec = if obs.any() {
        let rec = Recorder::shared();
        if obs.trace.is_some() {
            rec.enable_tracing();
        }
        Some(rec)
    } else {
        None
    };
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
    let sampler = rec
        .as_ref()
        .and_then(|r| obs.spawn_sampler(r, format!("backup-{session:05}")));
    let live = (obs.progress && sampler.is_some()).then(|| {
        let total: u64 = sources.iter().map(|f| f.size()).sum();
        Progress::start(
            sampler.as_ref().expect("guarded above").probe(),
            ProgressKind::Backup,
            Some(total),
        )
    });
    let outcome = engine.backup_session(&sources);
    if let Some(live) = live {
        live.finish();
    }
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
    obs.finish_sampler(sampler)?;
    if let Some(rec) = rec {
        let snap = rec.snapshot();
        if obs.stats {
            print!("{}", snap.render_table());
        }
        if let Some(path) = &obs.stats_json {
            std::fs::write(path, snap.to_json())
                .map_err(|e| format!("write stats {path:?}: {e}"))?;
            println!("  stage stats written to {}", path.display());
        }
        if let Some(path) = &obs.trace {
            let mut out = std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("create trace {path:?}: {e}"))?,
            );
            rec.write_trace_ndjson(&mut out)
                .map_err(|e| format!("write trace {path:?}: {e}"))?;
            println!("  chrome trace written to {}", path.display());
        }
    }
    Ok(())
}

fn cmd_restore(
    repo: &Path,
    session: usize,
    out: &Path,
    workers: usize,
    index: &IndexArgs,
    obs: &ObsArgs,
) -> Result<(), String> {
    let rec = obs.any().then(Recorder::shared);
    let engine = open_engine(repo, workers, CdcAlgorithm::Rabin, index, rec.clone())?;
    let sampler = rec
        .as_ref()
        .and_then(|r| obs.spawn_sampler(r, format!("restore-{session:05}")));
    let live = (obs.progress && sampler.is_some()).then(|| {
        Progress::start(
            sampler.as_ref().expect("guarded above").probe(),
            // Restore size is not known until the manifest is assembled,
            // so the line shows throughput without an ETA.
            ProgressKind::Restore,
            None,
        )
    });
    let outcome = engine.restore_session(session);
    if let Some(live) = live {
        live.finish();
    }
    let files = outcome.map_err(|e| format!("restore failed: {e}"))?;
    for f in &files {
        let dest = out.join(&f.path);
        if let Some(parent) = dest.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
        std::fs::write(&dest, &f.data).map_err(|e| format!("write {dest:?}: {e}"))?;
    }
    println!("restored {} files from session {session} into {out:?}", files.len());
    obs.finish_sampler(sampler)?;
    if let Some(rec) = rec {
        let snap = rec.snapshot();
        if obs.stats {
            print!("{}", snap.render_table());
        }
        if let Some(path) = &obs.stats_json {
            std::fs::write(path, snap.to_json())
                .map_err(|e| format!("write stats {path:?}: {e}"))?;
            println!("  stage stats written to {}", path.display());
        }
    }
    Ok(())
}

fn cmd_restore_file(
    repo: &Path,
    session: usize,
    path: &str,
    out: &Path,
    workers: usize,
    index: &IndexArgs,
) -> Result<(), String> {
    let engine = open_engine(repo, workers, CdcAlgorithm::Rabin, index, None)?;
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

fn cmd_sessions(repo: &Path, index: &IndexArgs) -> Result<(), String> {
    let engine = open_engine(repo, 1, CdcAlgorithm::Rabin, index, None)?;
    let sessions = engine.list_sessions();
    if sessions.is_empty() {
        println!("no sessions");
        return Ok(());
    }
    // The manifest alone names every file and its length; scrubbing the
    // containers behind it is not the listing's job.
    for s in sessions {
        let key = Manifest::key(&engine.config().scheme_key, s as u64);
        let manifest = engine
            .cloud()
            .get(&key)
            .map_err(BackupError::from)
            .and_then(|(bytes, _)| bytes.ok_or(BackupError::UnknownSession(s)))
            .and_then(|bytes| Manifest::decode(&bytes));
        match manifest {
            Ok(m) => println!("session {s}: {} files, {}", m.files.len(), human(m.logical_bytes())),
            Err(e) => println!("session {s}: unreadable ({e})"),
        }
    }
    Ok(())
}

fn cmd_delete(repo: &Path, session: usize, index: &IndexArgs) -> Result<(), String> {
    let mut engine = open_engine(repo, 1, CdcAlgorithm::Rabin, index, None)?;
    engine.delete_session(session).map_err(|e| format!("delete failed: {e}"))?;
    println!("deleted session {session}; unreferenced containers reclaimed");
    Ok(())
}

/// Runs a vacuum pass on an already-open engine and prints the report;
/// shared by `vacuum` and `retention --vacuum`.
fn run_vacuum(engine: &mut AaDedupe, ratio: f64, dry_run: bool) -> Result<(), String> {
    let cost_before = engine.cloud().monthly_cost().storage;
    let opts = VacuumOptions { ratio, dry_run, ..VacuumOptions::default() };
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
    let mut engine = open_engine(repo, 1, CdcAlgorithm::Rabin, index, None)?;
    run_vacuum(&mut engine, ratio, dry_run)
}

fn cmd_retention(
    repo: &Path,
    policy: &RetentionPolicy,
    vacuum_after: bool,
    index: &IndexArgs,
) -> Result<(), String> {
    let mut engine = open_engine(repo, 1, CdcAlgorithm::Rabin, index, None)?;
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

fn cmd_stats(repo: &Path, index: &IndexArgs) -> Result<(), String> {
    let engine = open_engine(repo, 1, CdcAlgorithm::Rabin, index, None)?;
    let store = engine.cloud().store();
    println!("repository: {} objects, {}", store.object_count(), human(store.stored_bytes()));
    println!(
        "  containers: {}",
        store.list("aa-dedupe/containers/").len()
    );
    println!("  sessions:   {:?}", engine.list_sessions());
    println!("  index:      {} chunks", engine.index().len());
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
    let Some(repo) = take_repo(&mut args) else { return usage() };
    let Ok(workers) = take_workers(&mut args) else { return usage() };
    let workers = workers.unwrap_or(1);
    let Ok(chunker) = take_chunker(&mut args) else { return usage() };
    let chunker = chunker.unwrap_or(CdcAlgorithm::Rabin);
    let Ok(index) = IndexArgs::take(&mut args) else { return usage() };
    let stats = take_flag(&mut args, "--stats");
    let Ok(stats_json) = take_path(&mut args, "--stats-json") else { return usage() };
    let Ok(trace) = take_path(&mut args, "--trace") else { return usage() };
    let Ok(metrics) = take_path(&mut args, "--metrics") else { return usage() };
    let Ok(metrics_interval_ms) = take_u64(&mut args, "--metrics-interval-ms") else {
        return usage();
    };
    let progress = take_flag(&mut args, "--progress");
    let Ok(ratio) = take_ratio(&mut args, "--ratio") else { return usage() };
    let dry_run = take_flag(&mut args, "--dry-run");
    let Ok(keep_last) = take_u64(&mut args, "--keep-last") else { return usage() };
    let Ok(gfs) = take_gfs(&mut args) else { return usage() };
    let vacuum_after = take_flag(&mut args, "--vacuum");
    let obs = ObsArgs {
        stats,
        stats_json,
        trace,
        metrics,
        metrics_interval_ms: metrics_interval_ms.unwrap_or(250),
        progress,
    };

    let result = match (command.as_str(), args.as_slice()) {
        ("backup", [src]) => cmd_backup(&repo, Path::new(src), workers, chunker, &index, &obs),
        ("restore", [session, out]) => match session.parse() {
            Ok(s) => cmd_restore(&repo, s, Path::new(out), workers, &index, &obs),
            Err(_) => return usage(),
        },
        ("restore-file", [session, path, out]) => match session.parse() {
            Ok(s) => cmd_restore_file(&repo, s, path, Path::new(out), workers, &index),
            Err(_) => return usage(),
        },
        ("sessions", []) => cmd_sessions(&repo, &index),
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
        ("stats", []) => cmd_stats(&repo, &index),
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

//! Sub-RAM index scaling: disk-backed partitions on a corpus whose chunk
//! index is many times the configured RAM budget.
//!
//! The ROADMAP's "Sub-RAM index" item claims the application-aware index
//! keeps working — flat memory, near-flat throughput, identical dedup
//! decisions — when the per-partition RAM budget holds only a fraction of
//! the live fingerprints and the remainder spills to on-disk segments
//! behind a cuckoo existence filter. This bin proves it end to end:
//!
//! 1. backs the same corpus up twice (second session is all-duplicate,
//!    so lookups hammer the cache→filter→segment path) under
//!    {RAM-resident, disk-backed} × workers {1, 4};
//! 2. asserts dedup ratio, stored/transferred bytes and restored bytes
//!    are bit-identical across all four configurations;
//! 3. asserts the live index is ≥ 10× the RAM cache budget, the cache
//!    never exceeds its budget, and (disk mode) negative lookups are
//!    answered by the filter with ~zero disk probes;
//! 4. reports peak RSS (`VmHWM`) and per-configuration timings as a JSON
//!    document on stdout for CI artifacts; `AA_IDX_RSS_CAP_MB` (when > 0)
//!    turns the RSS figure into a hard assertion.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin index_scaling`
//!
//! Environment knobs:
//! * `AA_IDX_MB` — approximate corpus size in MiB (default 48).
//! * `AA_IDX_RAM` — RAM-cache entries per partition (default 8, which
//!   keeps the index ≥ 10× the total cache budget at the default size).
//! * `AA_IDX_WORKERS` — comma-separated worker counts (default 1,4).
//! * `AA_IDX_RSS_CAP_MB` — peak-RSS hard cap in MiB, 0 disables (default 0).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use aadedupe_bench::perf::{env_or, machine_json, mixed_corpus, BIN_SCHEMA_VERSION};
use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aadedupe_filetype::{MemoryFile, SourceFile};
use aadedupe_index::IndexStats;
use aadedupe_obs::{Counter, Recorder};

/// Peak resident set size of this process in bytes (`VmHWM` from
/// /proc/self/status), or 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

struct RunResult {
    label: String,
    workers: usize,
    disk_backed: bool,
    seconds_session1: f64,
    seconds_session2: f64,
    stored_bytes: u64,
    transferred_bytes: u64,
    dedup_ratio: f64,
    restored_bytes: u64,
    index_len: usize,
    stats: IndexStats,
    cache_entries: usize,
    cache_capacity: usize,
    footprint_bytes: usize,
    filter_hits: u64,
    filter_false_positives: u64,
    disk_probes: u64,
}

fn run(
    files: &[MemoryFile],
    workers: usize,
    ram_entries: usize,
    index_dir: Option<PathBuf>,
) -> RunResult {
    let disk_backed = index_dir.is_some();
    let label = format!(
        "{}-w{workers}",
        if disk_backed { "disk" } else { "resident" }
    );
    let recorder = Recorder::shared();
    let config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        ram_entries_per_partition: ram_entries,
        index_dir,
        recorder: Arc::clone(&recorder),
        ..AaDedupeConfig::default()
    };
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();

    let start = Instant::now();
    let r1 = engine.backup_session(&sources).expect("session 1");
    let seconds_session1 = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let r2 = engine.backup_session(&sources).expect("session 2");
    let seconds_session2 = start.elapsed().as_secs_f64();
    assert!(engine.index().io_error().is_none(), "{label}: index storage error");

    let restored_bytes: u64 = engine
        .restore_session(1)
        .expect("restore")
        .iter()
        .map(|f| f.data.len() as u64)
        .sum();

    let stats = engine.index().stats();
    let foot = engine.index().ram_footprint();
    let snap = recorder.snapshot();
    RunResult {
        label,
        workers,
        disk_backed,
        seconds_session1,
        seconds_session2,
        stored_bytes: r1.stored_bytes + r2.stored_bytes,
        transferred_bytes: r1.transferred_bytes + r2.transferred_bytes,
        // Cumulative over both sessions so the ratio stays finite even
        // though the all-duplicate second session stores ~nothing.
        dedup_ratio: (r1.logical_bytes + r2.logical_bytes) as f64
            / (r1.stored_bytes + r2.stored_bytes).max(1) as f64,
        restored_bytes,
        index_len: engine.index().len(),
        stats,
        cache_entries: foot.cache_entries,
        cache_capacity: foot.cache_capacity,
        footprint_bytes: foot.approx_bytes,
        filter_hits: snap.counter(Counter::FilterHits),
        filter_false_positives: snap.counter(Counter::FilterFalsePositives),
        disk_probes: snap.counter(Counter::IndexDiskProbes),
    }
}

fn main() {
    let mb: usize = env_or("AA_IDX_MB", 48);
    let ram_entries: usize = env_or("AA_IDX_RAM", 8);
    let rss_cap_mb: u64 = env_or("AA_IDX_RSS_CAP_MB", 0);
    let workers: Vec<usize> = std::env::var("AA_IDX_WORKERS").map_or_else(
        |_| vec![1, 4],
        |s| s.split(',').map(|w| w.trim().parse().expect("worker count")).collect(),
    );

    let files = mixed_corpus(mb, 0x1DE7, "idx");
    let logical: usize = files.iter().map(|f| f.data.len()).sum();
    eprintln!(
        "index_scaling: {} files, {} MiB, ram budget {} entries/partition, workers {:?}",
        files.len(),
        logical >> 20,
        ram_entries,
        workers
    );

    let mut results: Vec<RunResult> = Vec::new();
    for &w in &workers {
        // Disk-backed first: RSS high-water is cumulative per process, so
        // the figure reflects the disk-backed configuration, not a
        // resident run that legitimately holds the whole index in RAM.
        let dir = std::env::temp_dir().join(format!(
            "aadedupe-idxscale-w{w}-{}",
            std::process::id()
        ));
        results.push(run(&files, w, ram_entries, Some(dir.clone())));
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("index_scaling: leaking segment dir {}: {e}", dir.display());
        }
    }
    let disk_rss = peak_rss_bytes();
    for &w in &workers {
        results.push(run(&files, w, ram_entries, None));
    }

    // --- Assertions: the bench is also the proof. ---
    let baseline = &results[0];
    for r in &results[1..] {
        assert_eq!(
            r.stored_bytes, baseline.stored_bytes,
            "{}: stored_bytes diverges from {}",
            r.label, baseline.label
        );
        assert_eq!(
            r.transferred_bytes, baseline.transferred_bytes,
            "{}: transferred_bytes diverges",
            r.label
        );
        assert_eq!(r.restored_bytes, baseline.restored_bytes, "{}: restored_bytes", r.label);
        assert_eq!(r.index_len, baseline.index_len, "{}: index entry count", r.label);
        // Bit comparison: dr() is derived from byte counters, so exact
        // equality is the contract, and it stays meaningful when an
        // all-duplicate session makes the ratio infinite.
        assert!(
            r.dedup_ratio.to_bits() == baseline.dedup_ratio.to_bits(),
            "{}: dedup ratio diverges ({} vs {})",
            r.label,
            r.dedup_ratio,
            baseline.dedup_ratio
        );
    }
    for r in results.iter().filter(|r| r.disk_backed) {
        assert!(
            r.index_len >= 10 * r.cache_capacity,
            "{}: corpus too small — index {} entries < 10x cache budget {}",
            r.label,
            r.index_len,
            r.cache_capacity
        );
        assert!(
            r.cache_entries <= r.cache_capacity,
            "{}: cache overran its budget ({} > {})",
            r.label,
            r.cache_entries,
            r.cache_capacity
        );
        // Negative lookups (session 1 is all-new once the filter warms)
        // must be answered by the filter, not disk: false positives are
        // the only misses allowed to probe segments.
        let negatives = r.stats.filter_hits + r.stats.filter_false_positives;
        assert!(r.stats.filter_hits > 0, "{}: filter never short-circuited", r.label);
        assert!(
            (r.stats.filter_false_positives as f64) < (negatives as f64) * 0.01 + 8.0,
            "{}: filter false-positive rate too high ({} of {})",
            r.label,
            r.stats.filter_false_positives,
            negatives
        );
    }
    if rss_cap_mb > 0 {
        assert!(
            disk_rss <= rss_cap_mb * (1 << 20),
            "disk-backed peak RSS {} MiB exceeds cap {} MiB",
            disk_rss >> 20,
            rss_cap_mb
        );
    }

    println!("{{");
    println!("  \"schema_version\": {BIN_SCHEMA_VERSION},");
    println!("  \"machine\": {},", machine_json());
    println!("  \"workload_mib\": {},", logical >> 20);
    println!("  \"files\": {},", files.len());
    println!("  \"ram_entries_per_partition\": {ram_entries},");
    println!("  \"disk_peak_rss_mib\": {},", disk_rss >> 20);
    println!("  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        println!(
            "    {{\"label\": \"{}\", \"workers\": {}, \"disk_backed\": {}, \
             \"s_session1\": {:.4}, \"s_session2\": {:.4}, \"mib_per_s\": {:.2}, \
             \"stored_bytes\": {}, \"dedup_ratio\": {:.4}, \"restored_bytes\": {}, \
             \"index_entries\": {}, \"cache_entries\": {}, \"cache_capacity\": {}, \
             \"footprint_bytes\": {}, \"ram_hits\": {}, \"disk_reads\": {}, \
             \"filter_hits\": {}, \"filter_false_positives\": {}, \"disk_probes\": {}}}{comma}",
            r.label,
            r.workers,
            r.disk_backed,
            r.seconds_session1,
            r.seconds_session2,
            2.0 * logical as f64 / (1 << 20) as f64 / (r.seconds_session1 + r.seconds_session2),
            r.stored_bytes,
            r.dedup_ratio,
            r.restored_bytes,
            r.index_len,
            r.cache_entries,
            r.cache_capacity,
            r.footprint_bytes,
            r.stats.ram_hits,
            r.stats.disk_reads,
            r.filter_hits,
            r.filter_false_positives,
            r.disk_probes
        );
    }
    println!("  ]");
    println!("}}");
    eprintln!("index_scaling: all assertions passed");
}

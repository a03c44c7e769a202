//! Differential test for the continuous-telemetry layer: a backup/restore
//! run with the recorder enabled AND a live background sampler attached
//! (the `--metrics` configuration) must be bit-exact against the same run
//! with observability fully off — same restored bytes, same report
//! counters, same cloud namespace — across worker counts {1, 4}.
//!
//! This is the observe-only contract from DESIGN.md extended to the
//! sampler: a thread concurrently snapshotting the recorder mid-pipeline
//! must never influence chunking, dedup decisions, packing, upload order,
//! or restore assembly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, RestoreOptions};
use aa_dedupe::metrics::SessionReport;
use aa_dedupe::obs::{Counter, Recorder, Sampler, SamplerConfig, TimeSeries};
use aa_dedupe::workload::{DatasetSpec, Generator, Snapshot};

const SESSIONS: usize = 2;

fn dataset() -> Vec<Snapshot> {
    let mut generator = Generator::new(DatasetSpec::tiny_test(), 4242);
    (0..SESSIONS).map(|w| generator.snapshot(w)).collect()
}

/// Everything observable about one full backup+restore run: the cloud
/// namespace, the per-session report counters, and the restored bytes.
struct Observed {
    objects: BTreeMap<String, Vec<u8>>,
    reports: Vec<(u64, u64, u64, u64, u64)>,
    restored: Vec<(String, Vec<u8>)>,
}

fn report_key(r: &SessionReport) -> (u64, u64, u64, u64, u64) {
    (r.files_total, r.chunks_total, r.chunks_duplicate, r.stored_bytes, r.transferred_bytes)
}

/// Runs the whole workload; when `telemetry` is set, the recorder is on
/// and a fast background sampler (1 ms ticks, well below any stage
/// duration) hammers delta-snapshots throughout, exactly as `--metrics`
/// would. Returns the observed state plus the sampled series.
fn run(workers: usize, telemetry: bool) -> (Observed, Option<TimeSeries>) {
    let rec = if telemetry { Recorder::shared() } else { Recorder::shared_disabled() };
    let config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        restore: RestoreOptions { workers },
        recorder: Arc::clone(&rec),
        ..AaDedupeConfig::default()
    };
    let sampler = telemetry.then(|| {
        Sampler::spawn(
            Arc::clone(&rec),
            "diff",
            SamplerConfig { interval: Duration::from_millis(1), capacity: 1 << 16 },
        )
    });

    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let snaps = dataset();
    let reports: Vec<_> = snaps
        .iter()
        .map(|s| report_key(&engine.backup_session(&s.as_sources()).expect("backup")))
        .collect();
    let mut restored = Vec::new();
    for session in 0..SESSIONS {
        for f in engine.restore_session(session).expect("restore") {
            restored.push((f.path, f.data));
        }
    }
    let store = engine.cloud().store();
    let objects = store
        .list("")
        .into_iter()
        .map(|k| {
            let bytes = store.get(&k).expect("store get").expect("listed key present");
            (k, bytes.to_vec())
        })
        .collect();
    let series = sampler.map(Sampler::stop);
    (Observed { objects, reports, restored }, series)
}

#[test]
fn sampler_on_is_bit_exact_vs_obs_off_across_worker_counts() {
    for workers in [1, 4] {
        let (off, none) = run(workers, false);
        let (on, series) = run(workers, true);
        assert!(none.is_none());

        // Report counters: identical, session by session.
        assert_eq!(off.reports, on.reports, "workers={workers}: session reports");

        // Restored bytes: identical files in identical order.
        assert_eq!(off.restored.len(), on.restored.len(), "workers={workers}: file count");
        for ((p0, d0), (p1, d1)) in off.restored.iter().zip(&on.restored) {
            assert_eq!(p0, p1, "workers={workers}: restored path order");
            assert_eq!(d0, d1, "workers={workers}: restored bytes of {p0}");
        }

        // Cloud namespace: identical keys and identical object bytes.
        assert_eq!(
            off.objects.keys().collect::<Vec<_>>(),
            on.objects.keys().collect::<Vec<_>>(),
            "workers={workers}: cloud keys"
        );
        for (key, bytes) in &off.objects {
            assert_eq!(bytes, &on.objects[key], "workers={workers}: cloud object {key}");
        }

        // The telemetry run really sampled live pipeline state: totals
        // across all intervals must equal the recorder's own counters
        // (delta decomposition loses nothing).
        let series = series.expect("telemetry run has a series");
        assert!(!series.is_empty(), "workers={workers}: sampler ticked");
        let logical: u64 = series.iter().map(|s| s.source_bytes).sum();
        let restored: u64 = series.iter().map(|s| s.restored_bytes).sum();
        assert!(logical > 0, "workers={workers}: source bytes sampled");
        assert_eq!(
            restored,
            off.restored.iter().map(|(_, d)| d.len() as u64).sum::<u64>(),
            "workers={workers}: sampled restore bytes equal actual restored bytes"
        );
    }
}

/// The sampler's interval decomposition is lossless: summing every
/// interval delta reproduces the recorder's cumulative counters exactly,
/// even with 1 ms ticks racing a live parallel pipeline.
#[test]
fn interval_deltas_sum_to_cumulative_counters() {
    let rec = Recorder::shared();
    let sampler = Sampler::spawn(
        Arc::clone(&rec),
        "sum",
        SamplerConfig { interval: Duration::from_millis(1), capacity: 1 << 16 },
    );
    let config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(4),
        recorder: Arc::clone(&rec),
        ..AaDedupeConfig::default()
    };
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    for s in &dataset() {
        engine.backup_session(&s.as_sources()).expect("backup");
    }
    let series = sampler.stop();
    let snap = rec.snapshot();
    assert!(series.dropped() == 0, "ring sized for the whole run");
    for (counter, pick) in [
        (Counter::SourceBytes, 0usize),
        (Counter::StoredBytes, 1),
        (Counter::UploadBytes, 2),
    ] {
        let total: u64 = series
            .iter()
            .map(|s| [s.source_bytes, s.stored_bytes, s.upload_bytes][pick])
            .sum();
        assert_eq!(total, snap.counter(counter), "{}", counter.name());
    }
    let app_lookups: u64 = series.iter().flat_map(|s| s.apps.iter()).map(|a| a.hits + a.misses).sum();
    assert_eq!(app_lookups, snap.index_hits() + snap.index_misses(), "per-app deltas");
}

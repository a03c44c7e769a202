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
use aa_dedupe::obs::{Counter, Recorder, Sample, Sampler, Sink, Stage};
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

/// Every sample the sampler streamed, summed metric by metric.
#[derive(Default)]
struct Sums {
    ticks: u64,
    counters: BTreeMap<&'static str, u64>,
    /// Application tag → (hits, misses).
    apps: BTreeMap<u8, (u64, u64)>,
    /// Stage → (count, total_ns).
    stages: BTreeMap<&'static str, (u64, u64)>,
}

impl Sink for Sums {
    fn sample(&mut self, sample: Sample) {
        self.ticks += 1;
        let delta = &sample.delta;
        for &(counter, n) in &delta.counters {
            *self.counters.entry(counter.name()).or_default() += n;
        }
        for app in &delta.apps {
            let sum = self.apps.entry(app.tag).or_default();
            *sum = (sum.0 + app.hits, sum.1 + app.misses);
        }
        for stage in &delta.stages {
            let sum = self.stages.entry(stage.stage.name()).or_default();
            *sum = (sum.0 + stage.hist.count, sum.1 + stage.hist.total_ns);
        }
    }
}

impl Sums {
    fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.name()).copied().unwrap_or(0)
    }
}

/// Runs the whole workload; when `telemetry` is set, the recorder is on
/// and a fast background sampler (1 ms ticks, well below any stage
/// duration) hammers delta-snapshots throughout, exactly as `--metrics`
/// would. Returns the observed state plus the sampled sums.
fn run(workers: usize, telemetry: bool) -> (Observed, Option<Sums>) {
    let rec = if telemetry { Recorder::shared() } else { Recorder::shared_disabled() };
    let config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(workers),
        restore: RestoreOptions { workers },
        recorder: Arc::clone(&rec),
        ..AaDedupeConfig::default()
    };
    let sampler = telemetry
        .then(|| Sampler::spawn(Arc::clone(&rec), Duration::from_millis(1), Sums::default()));

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
        let series = series.expect("telemetry run has sums");
        assert!(series.ticks > 0, "workers={workers}: sampler ticked");
        let logical = series.counter(Counter::SourceBytes);
        let restored = series.counter(Counter::RestoredBytes);
        assert!(logical > 0, "workers={workers}: source bytes sampled");
        assert_eq!(
            restored,
            off.restored.iter().map(|(_, d)| d.len() as u64).sum::<u64>(),
            "workers={workers}: sampled restore bytes equal actual restored bytes"
        );
    }
}

/// The sampler's interval decomposition is lossless: summing every
/// interval delta reproduces the recorder's cumulative state exactly —
/// every counter, every application's hits and misses, every stage's
/// count and time — even with 1 ms ticks racing a live parallel pipeline.
#[test]
fn interval_deltas_sum_to_cumulative_counters() {
    let rec = Recorder::shared();
    let sampler = Sampler::spawn(Arc::clone(&rec), Duration::from_millis(1), Sums::default());
    let config = AaDedupeConfig {
        pipeline: PipelineConfig::with_workers(4),
        recorder: Arc::clone(&rec),
        ..AaDedupeConfig::default()
    };
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    for s in &dataset() {
        engine.backup_session(&s.as_sources()).expect("backup");
    }
    let sums = sampler.stop();
    let snap = rec.snapshot();
    assert!(sums.ticks > 0, "sampler ticked");
    for counter in Counter::ALL {
        assert_eq!(sums.counter(counter), snap.counter(counter), "{}", counter.name());
    }
    assert!(sums.counter(Counter::SourceBytes) > 0);
    assert!(!snap.apps.is_empty());
    for app in &snap.apps {
        assert_eq!(sums.apps.get(&app.tag), Some(&(app.hits, app.misses)), "app {}", app.label);
    }
    assert_eq!(sums.apps.len(), snap.apps.len(), "no app sampled that the recorder lacks");
    for stage in Stage::ALL {
        let hist = &snap.stage(stage).hist;
        let sampled = sums.stages.get(stage.name()).copied().unwrap_or_default();
        assert_eq!(sampled, (hist.count, hist.total_ns), "stage {}", stage.name());
    }
}

//! Sampler integration tests: bounded ring-buffer memory and delta-rate
//! correctness against a synthetically driven `Recorder`.
//!
//! The sampler's tick engine is deterministic given the recorder's state,
//! so these tests drive `SamplerCore::tick` with synthetic time and assert
//! exact per-interval deltas — no sleeps, no timing tolerance.

use std::sync::Arc;
use std::time::Duration;

use aadedupe_obs::{json, Counter, Queue, Recorder, Sampler, SamplerConfig, SamplerCore};

#[test]
fn ring_memory_stays_bounded_over_many_ticks() {
    let rec = Recorder::shared();
    let cfg = SamplerConfig { interval: Duration::from_millis(250), capacity: 32 };
    let mut core = SamplerCore::new(Arc::clone(&rec), "bounded", cfg);
    for i in 0..10_000u64 {
        rec.count(Counter::SourceBytes, 100);
        core.tick((i + 1) * 250, 250);
    }
    let series = core.into_series();
    assert_eq!(series.len(), 32, "ring holds exactly its capacity");
    assert_eq!(series.dropped(), 10_000 - 32, "evictions are counted");
    // Survivors are the newest ticks, sequence numbers intact.
    let seqs: Vec<u64> = series.iter().map(|s| s.seq).collect();
    let expected: Vec<u64> = (10_000 - 32..10_000).collect();
    assert_eq!(seqs, expected);
    // The export is honest about the truncation.
    let mut doc = Vec::new();
    series.write_document(&[], &rec.snapshot(), &mut doc).expect("Vec write");
    let docs = json::parse_ndjson(&String::from_utf8(doc).expect("UTF-8")).expect("NDJSON parses");
    assert_eq!(docs[0].get("dropped").as_u64(), Some(10_000 - 32));
    assert_eq!(docs.len(), 34, "header + capacity samples + summary");
}

#[test]
fn delta_rates_match_a_synthetically_driven_recorder() {
    let rec = Recorder::shared();
    let mut core = SamplerCore::new(Arc::clone(&rec), "rates", SamplerConfig::default());
    // A scripted drive: (interval ms, source bytes, stored bytes, upload
    // bytes, restore retries) per interval.
    let script: [(u64, u64, u64, u64, u64); 4] = [
        (250, 1_000_000, 400_000, 500_000, 0),
        (500, 2_000_000, 0, 0, 3),
        (250, 0, 0, 250_000, 1),
        (125, 4_000_000, 4_000_000, 0, 0),
    ];
    let mut t = 0;
    for &(dt, src, stored, up, retries) in &script {
        rec.count(Counter::SourceBytes, src);
        rec.count(Counter::StoredBytes, stored);
        rec.count(Counter::UploadBytes, up);
        rec.count(Counter::RestoreRetries, retries);
        t += dt;
        core.tick(t, dt);
    }
    let series = core.into_series();
    let samples: Vec<_> = series.iter().collect();
    assert_eq!(samples.len(), script.len());
    let mut cum_src = 0;
    for (i, (s, &(dt, src, stored, up, retries))) in samples.iter().zip(&script).enumerate() {
        cum_src += src;
        assert_eq!(s.dt_ms, dt, "interval {i}");
        assert_eq!(s.source_bytes, src, "interval {i}");
        assert_eq!(s.stored_bytes, stored, "interval {i}");
        assert_eq!(s.upload_bytes, up, "interval {i}");
        assert_eq!(s.retries, retries, "interval {i}");
        assert_eq!(s.cum_source_bytes, cum_src, "interval {i}");
        // Rate is bytes scaled by the *measured* interval, not the nominal.
        let expect_bps = src as f64 * 1000.0 / dt as f64;
        assert!(
            (s.source_bps() - expect_bps).abs() < 1e-6,
            "interval {i}: {} != {expect_bps}",
            s.source_bps()
        );
    }
    // 1 MB over 250 ms is 4 MB/s, exactly.
    assert_eq!(samples[0].source_bps(), 4_000_000.0);
    // The long interval halves the rate despite double the bytes.
    assert_eq!(samples[1].source_bps(), 4_000_000.0);
    // The short interval at the end runs hot.
    assert_eq!(samples[3].source_bps(), 32_000_000.0);
}

#[test]
fn queue_depths_and_app_hit_rates_flow_into_samples() {
    let rec = Recorder::shared();
    let mut core = SamplerCore::new(Arc::clone(&rec), "dims", SamplerConfig::default());
    rec.label_app(7, "pdf");
    rec.label_app(2, "mp3");
    rec.queue_push(Queue::RestoreVerified);
    rec.queue_push(Queue::RestoreVerified);
    for _ in 0..3 {
        rec.index_outcome(7, true);
    }
    rec.index_outcome(7, false);
    rec.index_outcome(2, false);
    core.tick(250, 250);
    rec.queue_pop(Queue::RestoreVerified);
    rec.index_outcome(2, true);
    core.tick(500, 250);

    let series = core.into_series();
    let samples: Vec<_> = series.iter().collect();
    let gauge = |i: usize| {
        samples[i]
            .queues
            .iter()
            .find(|q| q.queue == Queue::RestoreVerified)
            .expect("restore-verified gauge")
    };
    assert_eq!((gauge(0).depth, gauge(0).hwm), (2, 2), "verified-container occupancy is sampled");
    assert_eq!((gauge(1).depth, gauge(1).hwm), (1, 2), "depth drops, hwm is cumulative");

    // First interval: pdf 3/1, mp3 0/1. Second: only mp3 moved.
    let pdf = samples[0].apps.iter().find(|a| a.label == "pdf").expect("pdf traffic");
    assert_eq!((pdf.hits, pdf.misses), (3, 1));
    assert_eq!(pdf.hit_rate(), 0.75);
    assert!(samples[1].apps.iter().all(|a| a.label != "pdf"), "idle app absent from delta");
    let mp3 = samples[1].apps.iter().find(|a| a.label == "mp3").expect("mp3 traffic");
    assert_eq!((mp3.hits, mp3.misses), (1, 0));
}

#[test]
fn enabling_the_recorder_after_spawn_does_not_resurrect_an_inert_sampler() {
    let rec = Recorder::shared_disabled();
    let sampler = Sampler::spawn(Arc::clone(&rec), "latch", SamplerConfig::default());
    assert!(sampler.is_inert());
    rec.enable();
    rec.count(Counter::SourceBytes, 42);
    assert_eq!(sampler.latest(), None, "enabled-after-spawn stays inert");
    assert!(sampler.stop().is_empty());
}

//! Sampler integration tests: streamed samples and exact interval deltas
//! against a synthetically driven `Recorder`.
//!
//! The sampler's tick engine is deterministic given the recorder's state,
//! so these tests drive `SamplerCore::tick` with synthetic time and assert
//! exact per-interval deltas — no sleeps, no timing tolerance.

use std::sync::Arc;
use std::time::Duration;

use aadedupe_obs::{json, Counter, Document, Recorder, Sampler, SamplerCore};

/// The sampler holds no samples: every tick is one line in the sink, in
/// order, however long the run.
#[test]
fn ten_thousand_ticks_stream_ten_thousand_contiguous_lines() {
    let rec = Recorder::shared();
    let mut core = SamplerCore::new(Arc::clone(&rec));
    let mut doc = Document::start(Vec::new(), "streamed", 250).expect("Vec write");
    for i in 0..10_000u64 {
        rec.count(Counter::SourceBytes, 100);
        doc.sample(&core.tick((i + 1) * 250, 250));
    }
    let bytes = doc.finish(&[], &rec.snapshot()).expect("Vec write");
    let docs =
        json::parse_ndjson(&String::from_utf8(bytes).expect("UTF-8")).expect("NDJSON parses");
    assert_eq!(docs.len(), 10_002, "header + one line per tick + summary");
    let header = docs[0].as_obj().expect("header object");
    assert!(!header.contains_key("capacity") && !header.contains_key("dropped"), "{header:?}");
    for (i, sample) in docs[1..=10_000].iter().enumerate() {
        assert_eq!(sample.get("kind").as_str(), Some("sample"));
        assert_eq!(sample.get("seq").as_u64(), Some(i as u64), "contiguous sequence");
        assert_eq!(sample.get("counters").get("source_bytes").as_u64(), Some(100));
    }
}

#[test]
fn delta_rates_match_a_synthetically_driven_recorder() {
    let rec = Recorder::shared();
    let mut core = SamplerCore::new(Arc::clone(&rec));
    // A scripted drive: (interval ms, source bytes, stored bytes, upload
    // bytes, restore retries) per interval.
    let script: [(u64, u64, u64, u64, u64); 4] = [
        (250, 1_000_000, 400_000, 500_000, 0),
        (500, 2_000_000, 0, 0, 3),
        (250, 0, 0, 250_000, 1),
        (125, 4_000_000, 4_000_000, 0, 0),
    ];
    let mut t = 0;
    let mut samples = Vec::new();
    for &(dt, src, stored, up, retries) in &script {
        rec.count(Counter::SourceBytes, src);
        rec.count(Counter::StoredBytes, stored);
        rec.count(Counter::UploadBytes, up);
        rec.count(Counter::RestoreRetries, retries);
        t += dt;
        samples.push(core.tick(t, dt));
    }
    let mut t = 0;
    for (i, (s, &(dt, src, stored, up, retries))) in samples.iter().zip(&script).enumerate() {
        t += dt;
        // Rates are the reader's: bytes over the *measured* `dt_ms`.
        assert_eq!((s.t_ms, s.dt_ms), (t, dt), "interval {i}");
        assert_eq!(s.delta.counter(Counter::SourceBytes), src, "interval {i}");
        assert_eq!(s.delta.counter(Counter::StoredBytes), stored, "interval {i}");
        assert_eq!(s.delta.counter(Counter::UploadBytes), up, "interval {i}");
        assert_eq!(s.delta.counter(Counter::RestoreRetries), retries, "interval {i}");
    }
}

#[test]
fn queue_depths_and_app_hit_rates_flow_into_samples() {
    let rec = Recorder::shared();
    let mut core = SamplerCore::new(Arc::clone(&rec));
    rec.label_app(7, "pdf");
    rec.label_app(2, "mp3");
    rec.restore_verified_push();
    rec.restore_verified_push();
    for _ in 0..3 {
        rec.index_outcome(7, true);
    }
    rec.index_outcome(7, false);
    rec.index_outcome(2, false);
    let first = core.tick(250, 250).delta;
    rec.restore_verified_pop();
    rec.index_outcome(2, true);
    let second = core.tick(500, 250).delta;

    let gauge = |s: &aadedupe_obs::Snapshot| {
        let g = s.restore_verified;
        (g.depth, g.hwm)
    };
    assert_eq!(gauge(&first), (2, 2), "verified-container occupancy is sampled");
    assert_eq!(gauge(&second), (1, 2), "depth drops, hwm is cumulative");

    // First interval: pdf 3/1, mp3 0/1. Second: only mp3 moved.
    let pdf = first.apps.iter().find(|a| a.label == "pdf").expect("pdf traffic");
    assert_eq!((pdf.hits, pdf.misses), (3, 1));
    assert!(second.apps.iter().all(|a| a.label != "pdf"), "idle app absent from delta");
    let mp3 = second.apps.iter().find(|a| a.label == "mp3").expect("mp3 traffic");
    assert_eq!((mp3.hits, mp3.misses), (1, 0));
}

#[test]
fn enabling_the_recorder_after_spawn_does_not_resurrect_an_inert_sampler() {
    let rec = Recorder::shared_disabled();
    let sampler = Sampler::spawn(Arc::clone(&rec), Duration::from_millis(1), Vec::new());
    assert!(sampler.is_inert());
    rec.enable();
    rec.count(Counter::SourceBytes, 42);
    std::thread::sleep(Duration::from_millis(5));
    assert!(sampler.stop().is_empty(), "enabled-after-spawn stays inert");
}

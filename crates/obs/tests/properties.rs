//! Integration tests for the observability crate: bucket-edge exactness,
//! concurrent recording, snapshot-while-recording consistency, trace
//! well-formedness, and the zero-cost-when-disabled overhead guard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aadedupe_obs::{
    bucket_bounds, bucket_index, json, Counter, Recorder, Sampler, Stage,
    TraceEvent, BUCKETS,
};

#[test]
fn histogram_bucket_boundaries_cover_the_u64_range() {
    // Exhaustive edge check: for every bucket, its lower bound maps in,
    // the value one below maps out, and the exclusive upper bound maps to
    // the next bucket.
    assert_eq!(bucket_index(0), 0);
    for b in 1..BUCKETS {
        let (lo, hi) = bucket_bounds(b);
        assert_eq!(bucket_index(lo), b, "lower bound of bucket {b}");
        assert_ne!(bucket_index(lo - 1), b, "value below bucket {b}");
        match hi {
            Some(hi) => {
                assert_eq!(bucket_index(hi - 1), b, "last value of bucket {b}");
                assert_eq!(bucket_index(hi), b + 1, "upper bound exits bucket {b}");
            }
            None => {
                assert_eq!(b, BUCKETS - 1, "only the last bucket is unbounded");
                assert_eq!(bucket_index(u64::MAX), b, "overflow bucket catches u64::MAX");
            }
        }
    }
    // Every power of two lands exactly one bucket above its predecessor
    // value, until the overflow bucket absorbs the rest.
    for p in 0..63u32 {
        let v = 1u64 << p;
        assert_eq!(bucket_index(v), ((p + 1) as usize).min(BUCKETS - 1), "2^{p}");
    }
}

#[test]
fn concurrent_counter_increments_from_eight_threads_are_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let rec = Recorder::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rec = &rec;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    rec.count(Counter::ChunkBytes, 1);
                    rec.count(Counter::ChunksCdc, 2);
                    rec.index_outcome(3, (t as u64 + i).is_multiple_of(2));
                    rec.record_duration(Stage::Hash, Duration::from_nanos(i % 1024));
                }
            });
        }
    });
    let s = rec.snapshot();
    let n = (THREADS as u64) * PER_THREAD;
    assert_eq!(s.counter(Counter::ChunkBytes), n);
    assert_eq!(s.counter(Counter::ChunksCdc), 2 * n);
    assert_eq!(s.apps[0].hits + s.apps[0].misses, n);
    assert_eq!(s.stage(Stage::Hash).hist.count, n);
    assert_eq!(
        s.stage(Stage::Hash).hist.buckets.iter().sum::<u64>(),
        n,
        "histogram count equals bucket sum"
    );
}

#[test]
fn snapshots_taken_while_recording_are_internally_consistent() {
    // Writers hammer one histogram and counter; a reader takes snapshots
    // concurrently. Every snapshot must be internally consistent (count ==
    // bucket sum by construction) and monotonically non-decreasing.
    let rec = Recorder::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let rec = &rec;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    rec.record_duration(Stage::Chunk, Duration::from_nanos(i % 4096));
                    rec.count(Counter::ChunkBytes, 1);
                    i += 1;
                }
            });
        }
        let rec = &rec;
        let stop = &stop;
        scope.spawn(move || {
            let mut last_count = 0u64;
            let mut last_counter = 0u64;
            for _ in 0..200 {
                let s = rec.snapshot();
                let h = &s.stage(Stage::Chunk).hist;
                assert_eq!(h.count, h.buckets.iter().sum::<u64>());
                assert!(h.count >= last_count, "histogram count went backwards");
                let c = s.counter(Counter::ChunkBytes);
                assert!(c >= last_counter, "counter went backwards");
                last_count = h.count;
                last_counter = c;
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
}

/// Regression test for queue-gauge underflow: pops racing ahead of their
/// matching pushes (a legal interleaving when producer and consumer report
/// from different threads) must saturate the gauge at zero — never wrap to
/// 2^64-1 — and be counted in the underflow diagnostic.
#[test]
fn queue_pop_on_empty_gauge_saturates_at_zero() {
    // Deterministic single-threaded shape first: pop before any push.
    let rec = Recorder::new();
    rec.restore_verified_pop();
    rec.restore_verified_pop();
    rec.restore_verified_push();
    let q = rec.snapshot().restore_verified;
    assert_eq!(q.depth, 1, "pushes after spurious pops still count from zero");
    assert_eq!(q.underflow, 2, "both empty pops recorded");

    // Concurrent mismatched ordering: poppers run unsynchronized against
    // pushers, so some pops observe an empty gauge. Whatever the
    // interleaving, depth must end at exactly pushes - matched pops and
    // never wrap negative.
    const OPS: u64 = 10_000;
    let rec = Recorder::new();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let rec = &rec;
            scope.spawn(move || {
                for _ in 0..OPS {
                    rec.restore_verified_push();
                }
            });
            scope.spawn(move || {
                for _ in 0..OPS {
                    rec.restore_verified_pop();
                }
            });
        }
    });
    let q = rec.snapshot().restore_verified;
    // pushes = 2*OPS; pops that found the gauge non-empty = 2*OPS - underflow.
    assert_eq!(q.depth, q.underflow, "depth = pushes - (pops - underflow)");
    assert!(q.depth < u64::MAX / 2, "gauge never wrapped negative");
}

#[test]
fn queue_gauges_track_high_water_marks_under_contention() {
    let rec = Recorder::new();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let rec = &rec;
            scope.spawn(move || {
                for _ in 0..1000 {
                    rec.restore_verified_push();
                    rec.restore_verified_pop();
                }
            });
        }
    });
    let q = rec.snapshot().restore_verified;
    assert_eq!(q.depth, 0, "all pushes matched by pops");
    assert!(q.hwm >= 1 && q.hwm <= 4, "hwm bounded by concurrency, got {}", q.hwm);
}

#[test]
fn ndjson_trace_events_are_well_formed() {
    let rec = Recorder::new();
    rec.enable_tracing();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let rec = &rec;
            scope.spawn(move || {
                for name in ["chunk_hash", "dedupe", "upload"] {
                    let t = rec.trace_start();
                    rec.trace_complete(name, t);
                }
            });
        }
    });
    let lines: Vec<String> = rec.drain_trace().iter().map(TraceEvent::to_json).collect();
    assert_eq!(lines.len(), 9);
    let mut last_ts = 0.0f64;
    for line in lines {
        assert!(!line.contains('\n'), "one event per NDJSON line");
        let ev = json::parse(&line).expect("each NDJSON line parses");
        assert_eq!(ev.get("kind").as_str(), Some("span"));
        assert_eq!(ev.get("ph").as_str(), Some("X"), "complete events only");
        assert!(ev.get("ts").as_f64().unwrap() >= last_ts, "events ordered by start");
        assert!(ev.get("dur").as_f64().unwrap() >= 0.0);
        assert!(ev.get("tid").as_u64().unwrap() < 3);
        assert!(matches!(
            ev.get("name").as_str(),
            Some("chunk_hash" | "dedupe" | "upload")
        ));
        last_ts = ev.get("ts").as_f64().unwrap();
    }
    assert!(rec.drain_trace().is_empty(), "draining empties the buffer");
}

/// The zero-cost guard: the disabled recorder's entire API surface must
/// cost no more than a few relaxed atomic loads per call. The budget is
/// deliberately generous (500 ns per iteration of SEVEN recording calls,
/// ~100× the expected cost in a release build) so the guard only trips on
/// a real regression — an accidental mutex, clock read, or allocation on
/// the disabled path — not on a noisy CI machine.
#[test]
fn overhead_guard() {
    let rec = Recorder::shared_disabled();
    // The sampler is compiled in and attached, but the recorder is
    // disabled: spawn must cost one relaxed load, start no thread, and
    // leave the budget below untouched.
    let sampler =
        Sampler::spawn(std::sync::Arc::clone(&rec), Duration::from_millis(250), Vec::new());
    assert!(sampler.is_inert(), "disabled recorder must yield an inert sampler");
    const ITERS: u64 = 1_000_000;
    // Warm-up pass so lazy init / cache effects don't bill the timed loop.
    for _ in 0..10_000 {
        rec.record(Stage::Chunk, rec.start());
    }
    let t = Instant::now();
    for i in 0..ITERS {
        let s = rec.start();
        rec.record(Stage::Chunk, s);
        rec.record_duration(Stage::Hash, Duration::from_nanos(i));
        rec.count(Counter::ChunkBytes, i);
        rec.index_outcome((i % 13) as u8, i % 2 == 0);
        rec.restore_verified_push();
        rec.restore_verified_pop();
        rec.trace_complete("noop", rec.trace_start());
    }
    let per_iter = t.elapsed().as_nanos() as f64 / ITERS as f64;
    assert!(
        per_iter < 500.0,
        "disabled recorder costs {per_iter:.0} ns per 7-call iteration (budget 500 ns)"
    );
    // And it really recorded nothing — recorder and sampler alike.
    let s = rec.snapshot();
    assert_eq!(s.stage(Stage::Chunk).hist.count, 0);
    assert_eq!(s.counter(Counter::ChunkBytes), 0);
    assert!(sampler.stop().is_empty(), "inert sampler sampled nothing");
}

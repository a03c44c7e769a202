//! Background sampler: one [`Sample`] per tick — the [`Recorder`]'s growth
//! over the interval — handed to a [`Sink`] as it is taken.
//!
//! Every tick snapshots the recorder and subtracts the previous snapshot
//! ([`Snapshot::delta_since`]): every stage's count and time, every
//! counter and every application's hits and misses over the interval, with
//! the queue gauges and worker reports as they stand. Ticks are
//! [`Instant`]-based — no wall clock — and all timing lives here in `obs`,
//! outside the dedup-decision crates. The sampler keeps no samples: the
//! sink decides what a tick becomes (a document line, a progress redraw).
//!
//! Two layers:
//!
//! * [`SamplerCore`] — the pure tick engine. `tick(t_ms, dt_ms)` is
//!   deterministic given the recorder's state, so tests drive it manually
//!   with synthetic time and assert exact deltas with no timing races.
//! * [`Sampler`] — [`SamplerCore`] plus the one `obs-sampler` thread. When
//!   the recorder is disabled, [`Sampler::spawn`] checks one relaxed load
//!   and returns an inert handle: no thread, nothing for the hot path to
//!   pay (the `overhead_guard` test runs with an inert sampler attached to
//!   prove it).

use crate::snapshot::Snapshot;
use crate::Recorder;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sampler tick: what the recorder gained over the `dt_ms` ending
/// `t_ms` after the sampler's epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Tick sequence number (0-based, contiguous).
    pub seq: u64,
    /// End of the interval, milliseconds since the sampler's epoch
    /// (`Instant`-based; no wall clock anywhere).
    pub t_ms: u64,
    /// Measured interval length in milliseconds.
    pub dt_ms: u64,
    /// The interval's [`Snapshot::delta_since`] the previous tick.
    pub delta: Snapshot,
}

impl Sample {
    /// One NDJSON `sample` line: the summary's serializer over the delta,
    /// with `seq`, `t_ms` and `dt_ms` after the `kind`.
    pub fn to_json(&self) -> String {
        self.delta.json_line(&format!(
            "\"kind\": \"sample\", \"seq\": {}, \"t_ms\": {}, \"dt_ms\": {}",
            self.seq, self.t_ms, self.dt_ms
        ))
    }
}

/// Where a [`Sampler`] delivers its ticks, on the sampler's thread.
pub trait Sink: Send + 'static {
    /// Takes one tick's sample.
    fn sample(&mut self, sample: Sample);
}

/// Keeps every sample (tests, short runs).
impl Sink for Vec<Sample> {
    fn sample(&mut self, sample: Sample) {
        self.push(sample);
    }
}

/// The deterministic tick engine: snapshot → delta → sample.
///
/// Holds only the previous snapshot; callers supply the clock (`t_ms`,
/// `dt_ms`), which is what makes delta tests exact.
#[derive(Debug)]
pub struct SamplerCore {
    rec: Arc<Recorder>,
    prev: Snapshot,
    seq: u64,
}

impl SamplerCore {
    /// A core whose baseline is the recorder's state right now: the first
    /// tick reports only activity after this call.
    pub fn new(rec: Arc<Recorder>) -> SamplerCore {
        let prev = rec.snapshot();
        SamplerCore { rec, prev, seq: 0 }
    }

    /// Takes the sample at `t_ms` (ms since the sampler's epoch) covering
    /// the last `dt_ms`.
    pub fn tick(&mut self, t_ms: u64, dt_ms: u64) -> Sample {
        let now = self.rec.snapshot();
        let delta = now.delta_since(&self.prev);
        self.prev = now;
        let seq = self.seq;
        self.seq += 1;
        Sample { seq, t_ms, dt_ms, delta }
    }
}

/// Handle to a running (or inert) background sampler; [`Sampler::stop`]
/// ends it and hands the sink back. A handle dropped without `stop` leaves
/// the thread ticking until the process exits.
#[derive(Debug)]
pub struct Sampler<S>(State<S>);

#[derive(Debug)]
enum State<S> {
    /// The recorder was disabled at spawn: the sink is never called.
    Inert(S),
    Running { stop: Arc<AtomicBool>, thread: JoinHandle<S> },
}

/// Sleep in slices this long so `stop()` latency stays low even with a
/// long sampling interval.
const SLICE: Duration = Duration::from_millis(20);

impl<S: Sink> Sampler<S> {
    /// Spawns the `obs-sampler` thread, which ticks `rec` every `interval`
    /// (at least 1 ms) into `sink`.
    ///
    /// When the recorder is disabled this is one relaxed load and an inert
    /// handle — no thread, no baseline snapshot, nothing sampled. The
    /// recorder's enabled state is latched at spawn: enabling it later
    /// does not start a sampler retroactively.
    ///
    /// # Panics
    ///
    /// If the OS cannot spawn the sampling thread.
    pub fn spawn(rec: Arc<Recorder>, interval: Duration, sink: S) -> Sampler<S> {
        if !rec.is_enabled() {
            return Sampler(State::Inert(sink));
        }
        let interval = interval.max(Duration::from_millis(1));
        let core = SamplerCore::new(rec);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on OS resource exhaustion; observability \
                      cannot degrade gracefully past \"no threads left\" and the engine \
                      would be failing too"
        )]
        let thread = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || run_loop(core, sink, &thread_stop, interval))
            .expect("spawn obs-sampler thread");
        Sampler(State::Running { stop, thread })
    }

    /// Whether this handle is inert (recorder was disabled at spawn).
    pub fn is_inert(&self) -> bool {
        matches!(self.0, State::Inert(_))
    }

    /// Stops the thread after one final partial-interval tick, so tail
    /// activity is never lost, and returns the sink.
    ///
    /// # Panics
    ///
    /// If the sampling thread (the sink included) panicked.
    pub fn stop(self) -> S {
        match self.0 {
            State::Inert(sink) => sink,
            State::Running { stop, thread } => {
                stop.store(true, Relaxed);
                #[expect(
                    clippy::expect_used,
                    reason = "join propagates a sampler-thread panic; the loop only snapshots \
                              and calls the sink, so a panic there is a bug worth surfacing"
                )]
                aadedupe_lock::join(thread).expect("obs-sampler thread panicked")
            }
        }
    }
}

/// The thread body: tick every `interval`, sleeping in [`SLICE`] pieces so
/// stop latency is bounded, then take one final partial tick on shutdown.
fn run_loop<S: Sink>(
    mut core: SamplerCore,
    mut sink: S,
    stop: &AtomicBool,
    interval: Duration,
) -> S {
    let epoch = Instant::now();
    let mut last = Duration::ZERO;
    let mut next = interval;
    loop {
        let stopping = loop {
            if stop.load(Relaxed) {
                break true;
            }
            let elapsed = epoch.elapsed();
            if elapsed >= next {
                break false;
            }
            std::thread::sleep(SLICE.min(next - elapsed));
        };
        let now = epoch.elapsed();
        let t_ms = u64::try_from(now.as_millis()).unwrap_or(u64::MAX);
        let dt_ms = u64::try_from((now - last).as_millis()).unwrap_or(u64::MAX);
        // The final tick is taken even when under 1 ms has passed
        // (`dt_ms == 0`): skipping it dropped the run's last deltas.
        sink.sample(core.tick(t_ms, dt_ms));
        if stopping {
            return sink;
        }
        last = now;
        next += interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn spawn_on_disabled_recorder_is_inert() {
        let rec = Recorder::shared_disabled();
        let s = Sampler::spawn(rec, Duration::from_millis(250), Vec::new());
        assert!(s.is_inert());
        assert!(s.stop().is_empty());
    }

    #[test]
    fn core_tick_reports_exact_deltas() {
        let rec = Recorder::shared();
        rec.count(Counter::SourceBytes, 500);
        let mut core = SamplerCore::new(Arc::clone(&rec));
        // Baseline taken after the 500 above: first tick must not see it.
        rec.count(Counter::SourceBytes, 2_000);
        rec.count(Counter::StoredBytes, 800);
        rec.count(Counter::UploadRetries, 3);
        rec.label_app(7, "pdf");
        rec.index_outcome(7, true);
        rec.index_outcome(7, false);
        let s0 = core.tick(250, 250);
        rec.count(Counter::SourceBytes, 1_000);
        let s1 = core.tick(500, 250);
        assert_eq!((s0.seq, s0.t_ms, s0.dt_ms), (0, 250, 250));
        assert_eq!(s0.delta.counter(Counter::SourceBytes), 2_000);
        assert_eq!(s0.delta.counter(Counter::StoredBytes), 800);
        assert_eq!(s0.delta.counter(Counter::UploadRetries), 3);
        assert_eq!(s0.delta.apps.len(), 1);
        assert_eq!((s0.delta.apps[0].hits, s0.delta.apps[0].misses), (1, 1));
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.delta.counter(Counter::SourceBytes), 1_000);
        assert!(s1.delta.apps.is_empty(), "no app traffic in second interval");
    }

    #[test]
    fn background_sampler_captures_tail_on_stop() {
        let rec = Recorder::shared();
        let s = Sampler::spawn(Arc::clone(&rec), Duration::from_secs(3600), Vec::new());
        assert!(!s.is_inert());
        rec.count(Counter::SourceBytes, 4_096);
        // Interval is an hour; the final partial tick on stop must still
        // capture the bytes counted above.
        std::thread::sleep(Duration::from_millis(5));
        let samples = s.stop();
        assert!(!samples.is_empty());
        let total: u64 = samples.iter().map(|p| p.delta.counter(Counter::SourceBytes)).sum();
        assert_eq!(total, 4_096);
    }
}

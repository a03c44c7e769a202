//! Background sampler: periodic delta-snapshots of a [`Recorder`] into a
//! bounded [`TimeSeries`].
//!
//! The sampler graduates observability from post-mortem aggregates to live
//! signals: every tick it snapshots the recorder, subtracts the previous
//! snapshot, and pushes one [`SamplePoint`] carrying per-interval byte
//! deltas (→ throughput), queue depths + high-water, retry counts, and
//! per-application index hit-rates. Ticks are [`Instant`]-based — no wall
//! clock — and all timing lives here in `obs`, outside the
//! dedup-decision crates.
//!
//! Two layers:
//!
//! * [`SamplerCore`] — the pure tick engine. `tick(t_ms, dt_ms)` is
//!   deterministic given the recorder's state, so tests drive it manually
//!   with synthetic time and assert exact deltas with no timing races.
//! * [`Sampler`] — [`SamplerCore`] plus the background thread. When the
//!   recorder is disabled, [`Sampler::spawn`] checks one relaxed load and
//!   returns an inert handle: no thread, no allocation beyond the empty
//!   struct, nothing for the hot path to pay (the `overhead_guard` test
//!   runs with an inert sampler attached to prove it).

use crate::series::{AppInterval, QueuePoint, SamplePoint, TimeSeries};
use crate::snapshot::Snapshot;
use crate::{Counter, Queue, Recorder};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Nominal tick interval. Default 250ms.
    pub interval: Duration,
    /// Ring capacity in samples. Default 4096 (~17 minutes at 250ms);
    /// older samples are evicted and counted, never reallocated.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig { interval: Duration::from_millis(250), capacity: 4096 }
    }
}

/// The deterministic tick engine: snapshot → delta → sample.
///
/// Holds the previous snapshot and running byte totals; callers supply the
/// clock (`t_ms`, `dt_ms`), which is what makes delta-rate tests exact.
#[derive(Debug)]
pub struct SamplerCore {
    rec: Arc<Recorder>,
    prev: Snapshot,
    series: TimeSeries,
    cum_source: u64,
    cum_stored: u64,
    cum_restored: u64,
    seq: u64,
}

impl SamplerCore {
    /// A core whose baseline is the recorder's state right now: the first
    /// tick reports only activity after this call. `session` labels the
    /// series.
    pub fn new(rec: Arc<Recorder>, session: &str, cfg: SamplerConfig) -> SamplerCore {
        let prev = rec.snapshot();
        let interval_ms = u64::try_from(cfg.interval.as_millis()).unwrap_or(u64::MAX);
        SamplerCore {
            rec,
            prev,
            series: TimeSeries::new(session, interval_ms, cfg.capacity),
            cum_source: 0,
            cum_stored: 0,
            cum_restored: 0,
            seq: 0,
        }
    }

    /// Takes one sample at `t_ms` (ms since the sampler's epoch) covering
    /// the last `dt_ms`, and pushes it onto the series.
    pub fn tick(&mut self, t_ms: u64, dt_ms: u64) {
        let now = self.rec.snapshot();
        let delta = now.delta_since(&self.prev);
        let source = delta.counter(Counter::SourceBytes);
        let stored = delta.counter(Counter::StoredBytes);
        let restored = delta.counter(Counter::RestoredBytes);
        self.cum_source += source;
        self.cum_stored += stored;
        self.cum_restored += restored;
        let sample = SamplePoint {
            seq: self.seq,
            t_ms,
            dt_ms,
            source_bytes: source,
            stored_bytes: stored,
            upload_bytes: delta.counter(Counter::UploadBytes),
            restored_bytes: restored,
            retries: delta.counter(Counter::UploadRetries)
                + delta.counter(Counter::RestoreRetries),
            cum_source_bytes: self.cum_source,
            cum_stored_bytes: self.cum_stored,
            cum_restored_bytes: self.cum_restored,
            queues: Queue::ALL
                .iter()
                .map(|&q| {
                    let g = now.queue(q);
                    QueuePoint { queue: q, depth: g.depth, hwm: g.hwm }
                })
                .collect(),
            apps: delta
                .apps
                .iter()
                .map(|a| AppInterval {
                    tag: a.tag,
                    label: a.label.clone(),
                    hits: a.hits,
                    misses: a.misses,
                })
                .collect(),
        };
        self.seq += 1;
        self.series.push(sample);
        self.prev = now;
    }

    /// The series accumulated so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the core, yielding its series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

/// Handle to a running (or inert) background sampler.
///
/// Dropping without [`Sampler::stop`] detaches the thread; it parks on the
/// stop flag's `Arc` and exits at the next tick slice, so an early-exit
/// CLI path cannot hang on it. Call `stop()` to get the series back.
#[derive(Debug)]
pub struct Sampler {
    inner: Option<Running>,
    session: String,
    interval_ms: u64,
}

#[derive(Debug)]
struct Running {
    stop: Arc<AtomicBool>,
    core: Arc<Mutex<SamplerCore>>,
    handle: JoinHandle<()>,
}

/// Sleep in slices this long so `stop()` latency stays low even with a
/// long sampling interval.
const SLICE: Duration = Duration::from_millis(20);

impl Sampler {
    /// Spawns the sampling thread against `rec`.
    ///
    /// When the recorder is disabled this is one relaxed load and an inert
    /// handle — no thread, no baseline snapshot, nothing sampled;
    /// [`Sampler::stop`] then returns an empty series. The recorder's
    /// enabled state is latched at spawn: enabling it later does not start
    /// a sampler retroactively.
    ///
    /// # Panics
    ///
    /// If the OS cannot spawn the sampling thread.
    pub fn spawn(rec: Arc<Recorder>, session: &str, cfg: SamplerConfig) -> Sampler {
        let interval_ms = u64::try_from(cfg.interval.as_millis()).unwrap_or(u64::MAX);
        if !rec.is_enabled() {
            return Sampler { inner: None, session: session.into(), interval_ms };
        }
        let interval = cfg.interval.max(Duration::from_millis(1));
        let core = Arc::new(Mutex::new(SamplerCore::new(rec, session, cfg)));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_core = Arc::clone(&core);
        let thread_stop = Arc::clone(&stop);
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on OS resource exhaustion; observability \
                      cannot degrade gracefully past \"no threads left\" and the engine \
                      would be failing too"
        )]
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || run_loop(&thread_core, &thread_stop, interval))
            .expect("spawn obs-sampler thread");
        let inner = Some(Running { stop, core, handle });
        Sampler { inner, session: session.into(), interval_ms }
    }

    /// Whether this handle is inert (recorder was disabled at spawn).
    pub fn is_inert(&self) -> bool {
        self.inner.is_none()
    }

    /// A cheap cloneable probe another thread can poll for the newest
    /// sample (e.g. a live progress renderer) while this handle stays with
    /// the owner. Probes from an inert sampler always return `None`.
    pub fn probe(&self) -> SamplerProbe {
        SamplerProbe { core: self.inner.as_ref().map(|r| Arc::clone(&r.core)) }
    }

    /// The newest sample, cloned out of the running series (None while
    /// inert or before the first tick).
    pub fn latest(&self) -> Option<SamplePoint> {
        let running = self.inner.as_ref()?;
        let core = running.core.lock().unwrap_or_else(PoisonError::into_inner);
        core.series().latest().cloned()
    }

    /// Stops the thread, takes one final partial-interval sample so tail
    /// activity is never lost, and returns the full series.
    ///
    /// # Panics
    ///
    /// If the sampling thread panicked.
    pub fn stop(mut self) -> TimeSeries {
        let Some(running) = self.inner.take() else {
            return TimeSeries::new(&self.session, self.interval_ms, 1);
        };
        running.stop.store(true, Relaxed);
        #[expect(
            clippy::expect_used,
            reason = "join propagates a sampler-thread panic; the loop body only locks and \
                      snapshots, so a panic there is a bug worth surfacing, not an input error"
        )]
        running.handle.join().expect("obs-sampler thread panicked");
        let core = Arc::try_unwrap(running.core).map_or_else(
            |arc| {
                // The thread has exited, but clone defensively if another
                // handle still holds the Arc.
                let guard = arc.lock().unwrap_or_else(PoisonError::into_inner);
                guard.series().clone()
            },
            |mutex| mutex.into_inner().unwrap_or_else(PoisonError::into_inner).into_series(),
        );
        core
    }
}

/// A cloneable read-only view of a running sampler's newest sample.
#[derive(Debug, Clone)]
pub struct SamplerProbe {
    core: Option<Arc<Mutex<SamplerCore>>>,
}

impl SamplerProbe {
    /// The newest sample (None while inert or before the first tick).
    pub fn latest(&self) -> Option<SamplePoint> {
        let core = self.core.as_ref()?;
        let guard = core.lock().unwrap_or_else(PoisonError::into_inner);
        guard.series().latest().cloned()
    }
}

/// The thread body: tick every `interval`, sleeping in [`SLICE`] pieces so
/// stop latency is bounded, then take one final partial tick on shutdown.
fn run_loop(core: &Arc<Mutex<SamplerCore>>, stop: &Arc<AtomicBool>, interval: Duration) {
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
        core.lock().unwrap_or_else(PoisonError::into_inner).tick(t_ms, dt_ms);
        if stopping {
            return;
        }
        last = now;
        next += interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_on_disabled_recorder_is_inert() {
        let rec = Recorder::shared_disabled();
        let s = Sampler::spawn(rec, "off", SamplerConfig::default());
        assert!(s.is_inert());
        assert_eq!(s.latest(), None);
        let series = s.stop();
        assert!(series.is_empty());
        assert_eq!(series.session(), "off");
    }

    #[test]
    fn core_tick_reports_exact_deltas() {
        let rec = Recorder::shared();
        rec.count(Counter::SourceBytes, 500);
        let mut core = SamplerCore::new(Arc::clone(&rec), "t", SamplerConfig::default());
        // Baseline taken after the 500 above: first tick must not see it.
        rec.count(Counter::SourceBytes, 2_000);
        rec.count(Counter::StoredBytes, 800);
        rec.count(Counter::UploadRetries, 3);
        rec.label_app(7, "pdf");
        rec.index_outcome(7, true);
        rec.index_outcome(7, false);
        core.tick(250, 250);
        rec.count(Counter::SourceBytes, 1_000);
        core.tick(500, 250);
        let s0 = core.series().iter().next().expect("first sample").clone();
        assert_eq!(s0.source_bytes, 2_000);
        assert_eq!(s0.stored_bytes, 800);
        assert_eq!(s0.retries, 3);
        assert_eq!(s0.source_bps(), 8_000.0);
        assert_eq!(s0.apps.len(), 1);
        assert_eq!((s0.apps[0].hits, s0.apps[0].misses), (1, 1));
        let s1 = core.series().latest().expect("second sample");
        assert_eq!(s1.source_bytes, 1_000);
        assert_eq!(s1.cum_source_bytes, 3_000);
        assert!(s1.apps.is_empty(), "no app traffic in second interval");
    }

    #[test]
    fn background_sampler_captures_tail_on_stop() {
        let rec = Recorder::shared();
        let cfg = SamplerConfig { interval: Duration::from_secs(3600), capacity: 16 };
        let s = Sampler::spawn(Arc::clone(&rec), "tail", cfg);
        assert!(!s.is_inert());
        rec.count(Counter::SourceBytes, 4_096);
        // Interval is an hour; the final partial tick on stop must still
        // capture the bytes counted above.
        std::thread::sleep(Duration::from_millis(5));
        let series = s.stop();
        assert!(!series.is_empty());
        let total: u64 = series.iter().map(|p| p.source_bytes).sum();
        assert_eq!(total, 4_096);
    }
}

//! CPU/IO cost accounting for the deduplication stage.
//!
//! Dedup throughput (`DT`) has two components in this reproduction:
//!
//! 1. **Measured CPU time** — chunking and fingerprinting are executed for
//!    real; we accumulate their wall-clock time (single-threaded work, so
//!    wall ≈ CPU).
//! 2. **Modelled index I/O** — the paper's on-disk index bottleneck. Our
//!    indexes run in memory but classify each lookup as RAM or disk
//!    (see [`aadedupe_index`]); every modelled disk probe is charged a
//!    fixed seek time. This is what makes a monolithic full index slow and
//!    the application-aware small indices fast, reproducing Fig. 8's
//!    ordering on hardware that no longer has a 2010 laptop disk.

use std::time::{Duration, Instant};

/// Seek time charged per modelled on-disk index probe. 2010-era laptop
/// 2.5" disks seek in 10-15 ms; production dedup clients amortise heavily
/// with write buffers and locality-aware caches, so we charge 1 ms per
/// probe that misses the RAM-resident working set.
pub const DISK_SEEK: Duration = Duration::from_millis(1);

/// Modelled sequential read throughput of the client's source disk. Every
/// scheme must read the dataset once per session; on the paper's 2010
/// laptop that stream is part of the measured dedup throughput, so we
/// charge it uniformly (80 MB/s: a 2.5" SATA disk of the era).
pub const SOURCE_READ_BPS: f64 = 80.0 * 1024.0 * 1024.0;

/// Runs `f` and returns its result together with its measured wall time.
/// This is the one sanctioned wall-clock read on the dedup path: every
/// CPU-time measurement in the engine routes through here, and the
/// duration feeds throughput accounting (`DT`) only — it never influences
/// chunk boundaries, fingerprints, index placement, or container layout.
pub fn measure_cpu<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "throughput accounting only; the duration is reported, never branched on by dedup decisions"
    )]
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Accumulates the dedup stage's cost.
#[derive(Debug, Clone, Default)]
pub struct DedupClock {
    cpu: Duration,
    disk_probes: u64,
    read_bytes: u64,
}

impl DedupClock {
    /// New, zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, adding its wall time to the CPU account.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, elapsed) = measure_cpu(f);
        self.cpu += elapsed;
        out
    }

    /// Adds externally measured CPU time (from pipeline worker threads).
    pub fn add_cpu(&mut self, d: Duration) {
        self.cpu += d;
    }

    /// Charges `n` modelled disk probes.
    pub fn charge_disk_probes(&mut self, n: u64) {
        self.disk_probes += n;
    }

    /// Charges the sequential source-disk read of `bytes` of input data.
    pub fn charge_source_read(&mut self, bytes: u64) {
        self.read_bytes += bytes;
    }

    /// Measured CPU time.
    pub fn cpu(&self) -> Duration {
        self.cpu
    }

    /// Number of charged disk probes.
    pub fn disk_probes(&self) -> u64 {
        self.disk_probes
    }

    /// Total dedup-stage time: CPU plus modelled seeks plus the modelled
    /// sequential read of the source data.
    pub fn total(&self) -> Duration {
        self.cpu
            + DISK_SEEK * self.disk_probes as u32
            + Duration::from_secs_f64(self.read_bytes as f64 / SOURCE_READ_BPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_accumulates() {
        let mut c = DedupClock::new();
        let v = c.measure(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(c.cpu() >= Duration::from_millis(5));
    }

    #[test]
    fn disk_probes_charged_at_seek_time() {
        let mut c = DedupClock::new();
        c.charge_disk_probes(10);
        assert_eq!(c.disk_probes(), 10);
        assert_eq!(c.total() - c.cpu(), DISK_SEEK * 10);
    }

    #[test]
    fn source_reads_charged_at_disk_rate() {
        let mut c = DedupClock::new();
        c.charge_source_read(80 * 1024 * 1024);
        assert!((c.total().as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn add_cpu_from_workers() {
        let mut c = DedupClock::new();
        c.add_cpu(Duration::from_millis(7));
        c.add_cpu(Duration::from_millis(3));
        assert_eq!(c.cpu(), Duration::from_millis(10));
    }
}

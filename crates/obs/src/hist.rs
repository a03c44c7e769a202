//! Thread-safe latency histogram with log2 buckets.
//!
//! Bucket layout (values are nanoseconds):
//!
//! * bucket 0 — the value `0` exactly;
//! * bucket `b` for `1 <= b < BUCKETS-1` — the half-open range
//!   `[2^(b-1), 2^b)`;
//! * bucket `BUCKETS-1` — the overflow range `[2^(BUCKETS-2), ∞)`.
//!
//! With `BUCKETS = 40` the last finite edge is `2^38` ns ≈ 4.6 minutes,
//! far beyond any single pipeline stage. Recording is three relaxed
//! atomic ops (bucket, total, max); the observed count of a histogram is
//! *defined* as the sum of its bucket counts, so a snapshot taken while
//! other threads record is always internally consistent — there is no
//! separate count field that could lag the buckets.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets (including the zero bucket and the overflow
/// bucket).
pub const BUCKETS: usize = 40;

/// The bucket a nanosecond value falls into.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound and exclusive upper bound of a bucket; the
/// overflow bucket has no upper bound.
///
/// # Panics
///
/// If `bucket >= BUCKETS`: bucket indices come from [`bucket_index`].
pub fn bucket_bounds(bucket: usize) -> (u64, Option<u64>) {
    assert!(bucket < BUCKETS, "bucket {bucket} out of range");
    match bucket {
        0 => (0, Some(1)),
        b if b == BUCKETS - 1 => (1 << (b - 1), None),
        b => (1 << (b - 1), Some(1 << b)),
    }
}

/// A lock-free log2 latency histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_index() returns < BUCKETS = counts.len()"
        )]
        self.counts[bucket_index(ns)].fetch_add(1, Relaxed);
        self.total_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Consistent point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.counts.iter().map(|c| c.load(Relaxed)).collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            total_ns: self.total_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
            buckets,
        }
    }

    /// Zeroes every bucket and the total/max accumulators.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Relaxed);
        }
        self.total_ns.store(0, Relaxed);
        self.max_ns.store(0, Relaxed);
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded (sum of `buckets`).
    pub count: u64,
    /// Sum of all recorded values, nanoseconds.
    pub total_ns: u64,
    /// Largest recorded value, nanoseconds.
    pub max_ns: u64,
    /// Per-bucket observation counts (see module docs for edges).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_index, count)` pairs — the sparse form used by
    /// the JSON export.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate().filter(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for b in 1..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(hi.unwrap() - 1), b, "upper edge of bucket {b}");
            assert_ne!(bucket_index(hi.unwrap()), b, "exclusive upper bound of {b}");
        }
    }

    #[test]
    fn overflow_bucket_catches_everything_above_the_last_edge() {
        let (lo, hi) = bucket_bounds(BUCKETS - 1);
        assert_eq!(hi, None);
        assert_eq!(bucket_index(lo), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(lo);
        assert_eq!(h.snapshot().buckets[BUCKETS - 1], 2);
    }

    #[test]
    fn count_is_bucket_sum_and_stats_accumulate() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 7, 1 << 20] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert_eq!(s.total_ns, 15 + (1 << 20));
        assert_eq!(s.max_ns, 1 << 20);
        assert!((s.mean_ns() - (s.total_ns as f64 / 5.0)).abs() < 1e-9);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot { buckets: vec![0; BUCKETS], ..Default::default() });
    }
}

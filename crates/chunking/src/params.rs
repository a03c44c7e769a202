//! Chunking parameters.
//!
//! The paper's evaluation fixes (§IV.A): 8 KiB static chunks; CDC with an
//! 8 KiB expected chunk size, 2 KiB minimum, 16 KiB maximum, a 48-byte
//! Rabin sliding window and 1-byte step. These are the workspace defaults;
//! the ablation benches sweep them.
//!
//! Since the gear-hash chunker landed, a [`CdcParams`] also names *which*
//! boundary-detection algorithm runs ([`CdcAlgorithm`]): the paper's
//! Rabin scan (the fidelity oracle) or the FastCDC-family gear hash with
//! normalized chunking. The sizes mean the same thing under both; only
//! the boundary positions differ.

use std::fmt;

/// Default static-chunking size: 8 KiB.
pub const DEFAULT_SC_SIZE: usize = 8 * 1024;

/// Which content-defined boundary-detection algorithm a CDC partition
/// runs. Part of each application's CDC configuration: two engines (or
/// two partitions) dedupe against each other only if they agree on it,
/// since the algorithms produce different — though statistically
/// equivalent — cut points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CdcAlgorithm {
    /// 48-byte-window, 1-byte-step Rabin fingerprint — the paper's
    /// chunker and the fidelity oracle for the differential harness.
    #[default]
    Rabin,
    /// Gear-hash FastCDC: normalized chunking with two-tier masks,
    /// min-size skip-ahead, max-size cutoff. Same dedup ratio, a fraction
    /// of the CPU.
    FastCdc,
}

impl CdcAlgorithm {
    /// Canonical lowercase name, as accepted by `aabackup --chunker`.
    pub const fn name(self) -> &'static str {
        match self {
            CdcAlgorithm::Rabin => "rabin",
            CdcAlgorithm::FastCdc => "fastcdc",
        }
    }

    /// Inverse of [`CdcAlgorithm::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rabin" => Some(CdcAlgorithm::Rabin),
            "fastcdc" => Some(CdcAlgorithm::FastCdc),
            _ => None,
        }
    }

    /// Every algorithm, in a stable order — the axis differential suites
    /// and benches iterate over.
    pub const ALL: [CdcAlgorithm; 2] = [CdcAlgorithm::Rabin, CdcAlgorithm::FastCdc];
}

impl fmt::Display for CdcAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Content-defined chunking parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdcParams {
    /// Minimum chunk size in bytes; no boundary is accepted before this.
    pub min_size: usize,
    /// Expected (average) chunk size in bytes. Must be a power of two: the
    /// boundary condition is a mask derived from it.
    pub avg_size: usize,
    /// Maximum chunk size; a boundary is forced here (the paper's
    /// Observation 3 notes these forced cuts hurt CDC on static data).
    pub max_size: usize,
    /// Rabin rolling-hash window in bytes (the paper uses 48). Ignored by
    /// the gear hash, whose shift-add recurrence has an implicit 64-byte
    /// window.
    pub window: usize,
    /// Boundary-detection algorithm.
    pub algorithm: CdcAlgorithm,
    /// FastCDC normalization level: below `avg_size` the boundary mask
    /// carries `log2(avg_size) + norm_level` bits (cuts are rarer), above
    /// it `log2(avg_size) - norm_level` bits (cuts are more likely),
    /// squeezing the size distribution toward the target. Level 0 disables
    /// normalization. Ignored by Rabin.
    pub norm_level: u32,
}

impl Default for CdcParams {
    fn default() -> Self {
        DEFAULT_CDC
    }
}

impl CdcParams {
    /// This parameter set with a different boundary algorithm.
    #[must_use]
    pub const fn with_algorithm(mut self, algorithm: CdcAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// With a description, on a nonsensical set: sizes out of order, a
    /// non-power-of-two average, a window wider than the minimum chunk, or
    /// a FastCDC normalization level the masks cannot carry.
    pub fn validate(&self) {
        assert!(self.min_size > 0, "min_size must be positive");
        assert!(
            self.avg_size.is_power_of_two(),
            "avg_size must be a power of two (divisor-mask boundary test)"
        );
        assert!(
            self.min_size <= self.avg_size && self.avg_size <= self.max_size,
            "require min <= avg <= max"
        );
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.window <= self.min_size,
            "window must fit inside the minimum chunk"
        );
        if self.algorithm == CdcAlgorithm::FastCdc {
            let avg_bits = self.avg_size.trailing_zeros();
            assert!(
                self.norm_level < avg_bits,
                "norm_level must leave the large-region mask at least one bit"
            );
            assert!(
                avg_bits + self.norm_level <= 48,
                "small-region mask needs log2(avg) + norm_level <= 48 bits"
            );
        }
    }

    /// Boundary mask derived from `avg_size` (the Rabin divisor mask).
    pub fn mask(&self) -> u64 {
        (self.avg_size as u64) - 1
    }
}

/// The paper's CDC configuration: min 2 KiB, average 8 KiB, max 16 KiB,
/// 48-byte window, Rabin boundaries.
pub const DEFAULT_CDC: CdcParams = CdcParams {
    min_size: 2 * 1024,
    avg_size: 8 * 1024,
    max_size: 16 * 1024,
    window: aadedupe_hashing::rabin::DEFAULT_WINDOW,
    algorithm: CdcAlgorithm::Rabin,
    norm_level: DEFAULT_NORM_LEVEL,
};

/// Default FastCDC normalization level (the FastCDC paper's "NC 2").
pub const DEFAULT_NORM_LEVEL: u32 = 2;

/// The gear-hash configuration: identical size contract to
/// [`DEFAULT_CDC`], FastCDC boundaries with level-2 normalization.
pub const DEFAULT_FASTCDC: CdcParams =
    DEFAULT_CDC.with_algorithm(CdcAlgorithm::FastCdc);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_valid() {
        DEFAULT_CDC.validate();
        DEFAULT_FASTCDC.validate();
        assert_eq!(DEFAULT_CDC.mask(), 8191);
        assert_eq!(DEFAULT_CDC.algorithm, CdcAlgorithm::Rabin);
        assert_eq!(DEFAULT_FASTCDC.algorithm, CdcAlgorithm::FastCdc);
        assert_eq!(DEFAULT_FASTCDC.min_size, DEFAULT_CDC.min_size);
        assert_eq!(DEFAULT_FASTCDC.max_size, DEFAULT_CDC.max_size);
        assert_eq!(CdcParams::default(), DEFAULT_CDC);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in CdcAlgorithm::ALL {
            assert_eq!(CdcAlgorithm::parse(a.name()), Some(a));
        }
        assert_eq!(CdcAlgorithm::parse("gear2000"), None);
        assert_eq!(CdcAlgorithm::parse(""), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_avg_rejected() {
        CdcParams { min_size: 1024, avg_size: 3000, max_size: 8192, ..DEFAULT_CDC }.validate();
    }

    #[test]
    #[should_panic(expected = "min <= avg <= max")]
    fn inverted_bounds_rejected() {
        CdcParams { min_size: 8192, avg_size: 4096, max_size: 16384, ..DEFAULT_CDC }.validate();
    }

    #[test]
    #[should_panic(expected = "window must fit")]
    fn oversized_window_rejected() {
        CdcParams { min_size: 32, avg_size: 64, max_size: 128, window: 48, ..DEFAULT_CDC }
            .validate();
    }

    #[test]
    #[should_panic(expected = "norm_level")]
    fn excessive_norm_level_rejected() {
        CdcParams { norm_level: 13, ..DEFAULT_FASTCDC }.validate();
    }

    #[test]
    fn norm_level_only_constrains_fastcdc() {
        // The same out-of-range level is fine under Rabin, which ignores it.
        CdcParams { norm_level: 13, ..DEFAULT_CDC }.validate();
    }
}

//! WAN link model.
//!
//! The paper's testbed reached "about 500 KB/s average upload speed and
//! 1 MB/s average download speed with the AirPort Extreme 802.11g wireless
//! card" (§IV.A). Backup windows and transfer times in the evaluation are
//! derived from these rates; this model reproduces them deterministically,
//! adding an optional per-request overhead that captures why small
//! transfers are inefficient over WAN ("the overhead of lower layer
//! protocols can be high for small data transfers", §II.B).

use std::time::Duration;

/// Deterministic WAN link: fixed up/down bandwidth plus per-request
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanModel {
    /// Upload bandwidth, bytes/second.
    pub upload_bps: f64,
    /// Download bandwidth, bytes/second.
    pub download_bps: f64,
    /// Fixed per-request overhead (connection setup, request framing,
    /// protocol round trips).
    pub per_request_overhead: Duration,
}

impl WanModel {
    /// The paper's link: 500 KB/s up, 1 MB/s down, 30 ms per request.
    pub const fn paper_defaults() -> Self {
        WanModel {
            upload_bps: 500.0 * 1024.0,
            download_bps: 1024.0 * 1024.0,
            per_request_overhead: Duration::from_millis(30),
        }
    }

    /// An idealised link with no per-request overhead (for analytic-model
    /// cross-checks).
    pub const fn ideal(upload_bps: f64, download_bps: f64) -> Self {
        WanModel {
            upload_bps,
            download_bps,
            per_request_overhead: Duration::ZERO,
        }
    }

    /// Time to upload `bytes` in one request.
    pub fn upload_time(&self, bytes: u64) -> Duration {
        self.per_request_overhead + Duration::from_secs_f64(bytes as f64 / self.upload_bps)
    }

    /// Time to download `bytes` in one request.
    pub fn download_time(&self, bytes: u64) -> Duration {
        self.per_request_overhead + Duration::from_secs_f64(bytes as f64 / self.download_bps)
    }
}

impl Default for WanModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates() {
        let wan = WanModel::paper_defaults();
        // 5 MB upload at 500 KB/s ≈ 10 s (+30 ms overhead).
        let t = wan.upload_time(5 * 500 * 1024);
        assert!((t.as_secs_f64() - 5.03).abs() < 1e-9, "{t:?}");
        // Download is twice as fast.
        let d = wan.download_time(1024 * 1024);
        assert!((d.as_secs_f64() - 1.03).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn ideal_link_has_no_overhead() {
        let wan = WanModel::ideal(1000.0, 2000.0);
        assert_eq!(wan.upload_time(1000), Duration::from_secs(1));
        assert_eq!(wan.download_time(1000), Duration::from_secs_f64(0.5));
        assert_eq!(wan.upload_time(0), Duration::ZERO);
    }

    #[test]
    fn zero_bytes_costs_only_overhead() {
        let wan = WanModel::paper_defaults();
        assert_eq!(wan.upload_time(0), Duration::from_millis(30));
    }
}

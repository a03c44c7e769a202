//! Per-session measurement record.
//!
//! Every backup scheme emits one [`SessionReport`] per backup session; the
//! bench harness turns vectors of these into the paper's Figures 7–11.

use crate::{backup_window_secs, dedup_efficiency, dedup_ratio, EnergyModel};
use std::time::Duration;

/// Measured outcome of one backup session under one scheme.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Scheme name ("AA-Dedupe", "Avamar", …).
    pub scheme: String,
    /// Session number (0-based; the paper runs 10 weekly sessions).
    pub session: usize,
    /// Logical dataset size presented to the scheme (DS), bytes.
    pub logical_bytes: u64,
    /// New unique chunk payload this session (post-dedup, pre-container),
    /// bytes.
    pub stored_bytes: u64,
    /// Bytes actually uploaded (containers incl. metadata and padding,
    /// file recipes, index snapshots).
    pub transferred_bytes: u64,
    /// Upload (PUT) requests issued.
    pub put_requests: u64,
    /// Time spent chunking, fingerprinting and indexing: measured CPU plus
    /// the scheme's modelled source-read and index-probe charges. Computed
    /// the same way whether or not an observability recorder is attached.
    pub dedup_cpu: Duration,
    /// Simulated WAN time for this session's uploads.
    pub transfer_time: Duration,
    /// Total chunks examined.
    pub chunks_total: u64,
    /// Of which detected as duplicates.
    pub chunks_duplicate: u64,
    /// Files examined.
    pub files_total: u64,
    /// Of which tiny files bypassing dedup (< the size-filter threshold).
    pub files_tiny: u64,
    /// Modelled on-disk index probes.
    pub index_disk_reads: u64,
}

impl SessionReport {
    /// Blank report for a scheme/session (fields filled during the run).
    pub fn new(scheme: impl Into<String>, session: usize) -> Self {
        SessionReport {
            scheme: scheme.into(),
            session,
            logical_bytes: 0,
            stored_bytes: 0,
            transferred_bytes: 0,
            put_requests: 0,
            dedup_cpu: Duration::ZERO,
            transfer_time: Duration::ZERO,
            chunks_total: 0,
            chunks_duplicate: 0,
            files_total: 0,
            files_tiny: 0,
            index_disk_reads: 0,
        }
    }

    /// Whether this session recorded no dedup CPU at all — the one
    /// degenerate case [`dt`](Self::dt), [`de`](Self::de) and
    /// [`bws`](Self::bws) all special-case the same way.
    fn zero_cpu(&self) -> bool {
        self.dedup_cpu.is_zero()
    }

    /// Dedup ratio DR for this session.
    pub fn dr(&self) -> f64 {
        dedup_ratio(self.logical_bytes, self.stored_bytes)
    }

    /// Dedup throughput DT (bytes/s): logical bytes over dedup CPU time.
    pub fn dt(&self) -> f64 {
        if self.zero_cpu() {
            f64::INFINITY
        } else {
            self.logical_bytes as f64 / self.dedup_cpu.as_secs_f64()
        }
    }

    /// The paper's dedup-efficiency metric DE (bytes saved per second).
    pub fn de(&self) -> f64 {
        if self.zero_cpu() {
            // Degenerate zero-CPU session: efficiency is bytes saved over
            // zero time; report saved bytes per transfer second instead of
            // infinity when transfer time exists.
            let secs = self.transfer_time.as_secs_f64();
            let saved = self.logical_bytes.saturating_sub(self.stored_bytes) as f64;
            return if secs == 0.0 { 0.0 } else { saved / secs };
        }
        dedup_efficiency(self.dr().max(1.0), self.dt())
    }

    /// Backup window (seconds) under the pipelined model with network
    /// throughput `nt_bytes_per_sec`.
    pub fn bws(&self, nt_bytes_per_sec: f64) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        if self.zero_cpu() {
            // Pure-transfer scheme: window is the transfer term alone.
            return self.logical_bytes as f64 / (self.dr().max(1.0) * nt_bytes_per_sec);
        }
        backup_window_secs(self.logical_bytes, self.dt(), self.dr().max(1.0), nt_bytes_per_sec)
    }

    /// Session energy (joules) under `model`, using the measured compute
    /// and transfer times and the modelled window.
    pub fn energy(&self, model: &EnergyModel, nt_bytes_per_sec: f64) -> f64 {
        let window = Duration::from_secs_f64(self.bws(nt_bytes_per_sec));
        model.session_energy(self.dedup_cpu, self.transfer_time, window)
    }

    /// CSV header matching [`SessionReport::csv_row`].
    pub const CSV_HEADER: &'static str = "scheme,session,logical_bytes,stored_bytes,transferred_bytes,put_requests,dedup_cpu_s,transfer_s,chunks_total,chunks_duplicate,files_total,files_tiny,index_disk_reads,dr,de_bytes_per_s";

    /// One CSV row for harness output.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{:.4},{:.1}",
            self.scheme,
            self.session,
            self.logical_bytes,
            self.stored_bytes,
            self.transferred_bytes,
            self.put_requests,
            self.dedup_cpu.as_secs_f64(),
            self.transfer_time.as_secs_f64(),
            self.chunks_total,
            self.chunks_duplicate,
            self.files_total,
            self.files_tiny,
            self.index_disk_reads,
            self.dr(),
            self.de(),
        )
    }
}

/// Sums cumulative *transferred* bytes across sessions — containers,
/// recipes and index snapshots as shipped to the cloud. This is what lands
/// in cloud storage, i.e. the Fig. 7 "cumulative cloud storage" series.
pub fn cumulative_transferred(reports: &[SessionReport]) -> Vec<u64> {
    let mut acc = 0u64;
    reports
        .iter()
        .map(|r| {
            acc += r.transferred_bytes;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionReport {
        SessionReport {
            scheme: "Test".into(),
            session: 1,
            logical_bytes: 1_000_000,
            stored_bytes: 250_000,
            transferred_bytes: 260_000,
            put_requests: 3,
            dedup_cpu: Duration::from_secs_f64(0.5),
            transfer_time: Duration::from_secs_f64(0.52),
            chunks_total: 120,
            chunks_duplicate: 90,
            files_total: 10,
            files_tiny: 4,
            index_disk_reads: 2,
        }
    }

    #[test]
    fn derived_quantities() {
        let r = sample();
        assert!((r.dr() - 4.0).abs() < 1e-9);
        assert!((r.dt() - 2_000_000.0).abs() < 1e-6);
        // DE = (1 - 1/4) * 2 MB/s = 1.5 MB/s saved.
        assert!((r.de() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn bws_network_bound_case() {
        let r = sample();
        // NT = 500 KB/s: transfer term = 1e6/(4*5e5) = 0.5 s; dedup term
        // also 0.5 s; window = 0.5 s.
        let w = r.bws(500_000.0);
        assert!((w - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_session_is_harmless() {
        let r = SessionReport::new("X", 0);
        assert_eq!(r.dr(), 1.0);
        assert_eq!(r.de(), 0.0);
        assert_eq!(r.bws(1e6), 0.0);
    }

    #[test]
    fn energy_positive_and_monotone_in_compute() {
        let m = EnergyModel::default();
        let mut a = sample();
        let e1 = a.energy(&m, 500_000.0);
        a.dedup_cpu = Duration::from_secs(5);
        let e2 = a.energy(&m, 500_000.0);
        assert!(e2 > e1 && e1 > 0.0);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = sample();
        let fields = r.csv_row().split(',').count();
        assert_eq!(fields, SessionReport::CSV_HEADER.split(',').count());
    }

    #[test]
    fn cumulative_series() {
        let mut rs = vec![sample(), sample(), sample()];
        rs[1].transferred_bytes = 100;
        rs[2].transferred_bytes = 1;
        assert_eq!(cumulative_transferred(&rs), vec![260_000, 260_100, 260_101]);
    }
}

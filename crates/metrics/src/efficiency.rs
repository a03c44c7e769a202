//! Deduplication-efficiency and backup-window formulas (paper §IV.B, §IV.D).

/// Dedup ratio `DR = logical / stored` (ratio of data sizes before and
/// after deduplication). Empty inputs define `DR = 1` (nothing to save);
/// a zero stored size with nonzero input is infinite reduction.
pub fn dedup_ratio(logical_bytes: u64, stored_bytes: u64) -> f64 {
    if logical_bytes == 0 {
        1.0
    } else if stored_bytes == 0 {
        f64::INFINITY
    } else {
        logical_bytes as f64 / stored_bytes as f64
    }
}

/// The paper's metric, **bytes saved per second**:
///
/// ```text
/// DE = SC/DS · DT = (1 − 1/DR) · DT
/// ```
///
/// where `DT` is dedup throughput in bytes/second. High-effectiveness but
/// slow schemes (Avamar) and fast but ineffective schemes (plain
/// incremental) both score low; AA-Dedupe's design goal is maximising this
/// quantity.
///
/// # Panics
///
/// If `dr` is below 1.
pub fn dedup_efficiency(dr: f64, dt_bytes_per_sec: f64) -> f64 {
    assert!(dr >= 1.0 || dr.is_nan(), "dedup ratio below 1: {dr}");
    if dr.is_infinite() {
        return dt_bytes_per_sec;
    }
    (1.0 - 1.0 / dr) * dt_bytes_per_sec
}

/// Pipelined backup-window model (paper §IV.D):
///
/// ```text
/// BWS = DS · max(1/DT, 1/(DR·NT))
/// ```
///
/// Deduplication and transfer overlap, so the window is bound by the slower
/// of (a) pushing `DS` bytes through the deduplicator at `DT`, and (b)
/// pushing the surviving `DS/DR` bytes over the WAN at `NT`.
///
/// # Panics
///
/// If either throughput is not positive.
pub fn backup_window_secs(ds_bytes: u64, dt_bytes_per_sec: f64, dr: f64, nt_bytes_per_sec: f64) -> f64 {
    assert!(dt_bytes_per_sec > 0.0 && nt_bytes_per_sec > 0.0);
    let dedup_time = ds_bytes as f64 / dt_bytes_per_sec;
    let transfer_time = if dr.is_infinite() {
        0.0
    } else {
        ds_bytes as f64 / (dr * nt_bytes_per_sec)
    };
    dedup_time.max(transfer_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dr_basics() {
        assert_eq!(dedup_ratio(100, 50), 2.0);
        assert_eq!(dedup_ratio(100, 100), 1.0);
        assert_eq!(dedup_ratio(0, 0), 1.0);
        assert!(dedup_ratio(100, 0).is_infinite());
    }

    #[test]
    fn de_formula() {
        // DR=2 at 100 MB/s saves half the bytes: 50 MB saved/s.
        assert!((dedup_efficiency(2.0, 100e6) - 50e6).abs() < 1.0);
        // DR=1 saves nothing regardless of throughput.
        assert_eq!(dedup_efficiency(1.0, 500e6), 0.0);
        // Infinite DR (everything duplicate) saves at full throughput.
        assert_eq!(dedup_efficiency(f64::INFINITY, 42.0), 42.0);
    }

    #[test]
    fn de_monotonic_in_both_factors() {
        let base = dedup_efficiency(1.5, 10e6);
        assert!(dedup_efficiency(2.0, 10e6) > base);
        assert!(dedup_efficiency(1.5, 20e6) > base);
    }

    #[test]
    fn bws_dedup_bound_vs_network_bound() {
        let ds = 1_000_000_000u64; // 1 GB
        // Slow dedup (1 MB/s), fast effective network: dedup-bound.
        let w1 = backup_window_secs(ds, 1e6, 10.0, 1e6);
        assert!((w1 - 1000.0).abs() < 1e-6);
        // Fast dedup (100 MB/s), DR=2 over a 0.5 MB/s uplink: network-bound.
        let w2 = backup_window_secs(ds, 100e6, 2.0, 0.5e6);
        assert!((w2 - 1000.0).abs() < 1e-6);
        // Higher DR shrinks a network-bound window.
        assert!(backup_window_secs(ds, 100e6, 4.0, 0.5e6) < w2);
        // ...but cannot shrink a dedup-bound one.
        assert_eq!(
            backup_window_secs(ds, 1e6, 2.0, 100e6),
            backup_window_secs(ds, 1e6, 20.0, 100e6)
        );
    }

    #[test]
    fn bws_infinite_dr_is_dedup_bound() {
        let w = backup_window_secs(1000, 10.0, f64::INFINITY, 1.0);
        assert!((w - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn de_rejects_sub_unit_dr() {
        dedup_efficiency(0.5, 1.0);
    }
}

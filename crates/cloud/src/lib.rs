#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Simulated cloud backend for AA-Dedupe.
//!
//! The paper evaluates against Amazon S3 over a home 802.11g uplink. This
//! crate substitutes a deterministic simulator with the same observable
//! quantities (see DESIGN.md §5):
//!
//! * [`ObjectStore`] — flat key→bytes namespace with request/byte
//!   accounting (the S3 stand-in).
//! * [`WanModel`] — 500 KB/s up / 1 MB/s down link with per-request
//!   overhead; produces the transfer times that dominate backup windows.
//! * [`PriceModel`] — S3's April 2011 tariff and the paper's
//!   `CC = DS/DR·(SP+TP) + OC·OP` cost model.
//! * [`CloudSim`] — the three combined: every `put`/`get` moves simulated
//!   time and accumulates billable usage.

pub mod backend;
pub mod fault;
pub mod fsstore;
pub mod objectstore;
pub mod pricing;
pub mod wan;

pub use backend::{BackendError, BackendOp, ObjectBackend};
pub use fault::{FaultInjectingBackend, FaultPlan, FaultRule};
pub use fsstore::FsObjectStore;
pub use objectstore::{ObjectStore, ObjectStoreStats};
pub use pricing::{CostBreakdown, PriceModel, BYTES_PER_GB};
pub use wan::WanModel;

use aadedupe_lock::Lock;
use std::sync::Arc;
use std::time::Duration;

/// A cloud endpoint: object backend + WAN + pricing, with simulated-time
/// accounting. Cheap to clone (shared state).
#[derive(Clone)]
pub struct CloudSim {
    store: Arc<dyn ObjectBackend>,
    wan: WanModel,
    prices: PriceModel,
    clock: Arc<Lock<Duration>>,
}

impl CloudSim {
    /// Simulator with explicit models over an in-memory backend.
    pub fn new(wan: WanModel, prices: PriceModel) -> Self {
        Self::with_backend(Arc::new(ObjectStore::new()), wan, prices)
    }

    /// Simulator over a caller-supplied backend (e.g. [`FsObjectStore`]).
    pub fn with_backend(
        store: Arc<dyn ObjectBackend>,
        wan: WanModel,
        prices: PriceModel,
    ) -> Self {
        CloudSim { store, wan, prices, clock: Arc::new(Lock::new(Duration::ZERO)) }
    }

    /// The paper's configuration: 802.11g WAN + S3 April 2011 prices.
    pub fn with_paper_defaults() -> Self {
        Self::new(WanModel::paper_defaults(), PriceModel::s3_april_2011())
    }

    /// Uploads an object; returns the simulated transfer time (also added
    /// to the simulated clock). A failed attempt still consumes the link
    /// time — the bytes travelled, the backend just didn't keep them.
    ///
    /// The object is shared, not copied: a `Vec` moves into the `Arc`,
    /// and a caller that retries passes the same `Arc` again.
    pub fn put(&self, key: &str, bytes: impl Into<Arc<Vec<u8>>>) -> Result<Duration, BackendError> {
        let bytes = bytes.into();
        let t = self.wan.upload_time(bytes.len() as u64);
        *self.clock.lock() += t;
        self.store.put(key, bytes)?;
        Ok(t)
    }

    /// Downloads an object; returns its bytes and the simulated transfer
    /// time (misses and failures cost one request overhead). The bytes
    /// are the caller's own: this is the download's one copy, taken
    /// outside any backend lock, and none at all when the backend kept no
    /// reference to the object it returned.
    pub fn get(&self, key: &str) -> Result<(Option<Vec<u8>>, Duration), BackendError> {
        let out = self.store.get(key);
        let t = match &out {
            Ok(Some(b)) => self.wan.download_time(b.len() as u64),
            Ok(None) | Err(_) => self.wan.per_request_overhead,
        };
        *self.clock.lock() += t;
        Ok((out?.map(Arc::unwrap_or_clone), t))
    }

    /// Deletes an object (request overhead only).
    pub fn delete(&self, key: &str) -> Result<bool, BackendError> {
        *self.clock.lock() += self.wan.per_request_overhead;
        self.store.delete(key)
    }

    /// Charges extra wall-clock to the simulated transfer clock (retry
    /// backoff waits, for instance, count toward the backup window).
    pub fn charge(&self, d: Duration) {
        *self.clock.lock() += d;
    }

    /// The underlying object backend (for inspection and failure
    /// injection).
    pub fn store(&self) -> &dyn ObjectBackend {
        self.store.as_ref()
    }

    /// The WAN model in force.
    pub fn wan(&self) -> &WanModel {
        &self.wan
    }

    /// The price model in force.
    pub fn prices(&self) -> &PriceModel {
        &self.prices
    }

    /// Total simulated wall-clock consumed by transfers so far.
    pub fn elapsed(&self) -> Duration {
        *self.clock.lock()
    }

    /// One month's bill for the current contents and cumulative upload
    /// traffic (the paper's CC formula with measured quantities).
    pub fn monthly_cost(&self) -> CostBreakdown {
        let stats = self.store.stats();
        self.prices.monthly_cost(
            self.store.stored_bytes(),
            stats.bytes_in,
            stats.put_requests,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_advances_clock_by_transfer_time() {
        let cloud = CloudSim::with_paper_defaults();
        let payload = vec![0u8; 500 * 1024]; // exactly 1 s at 500 KB/s
        let t = cloud.put("c/1", payload).unwrap();
        assert!((t.as_secs_f64() - 1.03).abs() < 1e-9);
        assert_eq!(cloud.elapsed(), t);
    }

    #[test]
    fn get_round_trip() {
        let cloud = CloudSim::with_paper_defaults();
        cloud.put("k", vec![1, 2, 3]).unwrap();
        let (data, t) = cloud.get("k").unwrap();
        assert_eq!(data, Some(vec![1, 2, 3]));
        assert!(t >= Duration::from_millis(30));
        let (missing, tm) = cloud.get("nope").unwrap();
        assert_eq!(missing, None);
        assert_eq!(tm, Duration::from_millis(30));
    }

    #[test]
    fn monthly_cost_reflects_usage() {
        let cloud = CloudSim::with_paper_defaults();
        cloud.put("a", vec![0u8; 1 << 20]).unwrap();
        cloud.put("b", vec![0u8; 1 << 20]).unwrap();
        let c = cloud.monthly_cost();
        // 2 MiB stored + uploaded, 2 requests.
        let gb = 2.0 / 1024.0;
        assert!((c.storage - gb * 0.14).abs() < 1e-9);
        assert!((c.transfer - gb * 0.10).abs() < 1e-9);
        assert!((c.request - 2e-5).abs() < 1e-12);
    }

    #[test]
    fn clones_share_state() {
        let cloud = CloudSim::with_paper_defaults();
        let clone = cloud.clone();
        clone.put("shared", vec![9]).unwrap();
        assert_eq!(cloud.get("shared").unwrap().0, Some(vec![9]));
        assert!(cloud.elapsed() > Duration::ZERO);
    }

    #[test]
    fn delete_costs_a_request() {
        let cloud = CloudSim::with_paper_defaults();
        cloud.put("x", vec![1]).unwrap();
        let before = cloud.elapsed();
        assert!(cloud.delete("x").unwrap());
        assert_eq!(cloud.elapsed() - before, Duration::from_millis(30));
        assert!(!cloud.delete("x").unwrap());
    }
}

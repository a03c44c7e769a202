//! The one way to the cloud. [`RetryPolicy`] is bounded exponential
//! backoff with deterministic jitter; a [`Transfer`] applies it to one
//! operation — a backup session, a restore call, an `open` or other
//! manifest fold, a vacuum pass — with one retry budget shared by all the
//! operation's threads, and its `put` and `get` are the only retrying
//! transfers. [`upload_session`] is the session commit every scheme ships
//! through, the baselines included.
//!
//! Only failures the backend classifies as *transient*
//! ([`BackendError::transient`]) are retried. Backoff doubles per attempt
//! up to a cap, with "equal jitter" (half fixed, half seeded hash) so
//! concurrent clients don't thundering-herd a recovering endpoint — yet
//! the same seed and attempt sequence always produces the same waits,
//! keeping fault-drill tests exactly reproducible.
//!
//! [`BackendError::transient`]: aadedupe_cloud::BackendError

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use aadedupe_cloud::{BackendError, CloudSim};
use aadedupe_container::ContainerStore;
use aadedupe_metrics::SessionReport;
use aadedupe_obs::{Counter, Recorder, Stage};

use crate::recipe::Manifest;
use crate::restore::container_key;
use crate::scheme::BackupError;

/// Retry/backoff settings for cloud transfers, uploads and downloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per object (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Total retries one [`Transfer`] — a backup session, a restore call,
    /// an `open`, a vacuum pass — may spend across all its objects.
    pub session_retry_budget: u32,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
    /// Whether to really sleep between attempts. The backoff is always
    /// charged to the simulated transfer clock; real sleeping matters only
    /// when the backend is a live endpoint (the CLI), not in simulation.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            session_retry_budget: 64,
            jitter_seed: 0xaade_d09e,
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every transient failure is fatal).
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1, session_retry_budget: 0, ..RetryPolicy::default() }
    }

    /// The wait before retry number `attempt` (1-based) of transfer number
    /// `op`: exponential in `attempt`, half of it jittered by a hash of
    /// `(jitter_seed, op, attempt)` — deterministic for a fixed seed.
    pub fn backoff(&self, attempt: u32, op: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max_backoff);
        let half = exp / 2;
        let jitter_room = half.as_nanos().min(u64::MAX as u128) as u64;
        if jitter_room == 0 {
            return exp;
        }
        let h = splitmix64(self.jitter_seed ^ op.rotate_left(17) ^ attempt as u64);
        half + Duration::from_nanos(h % (jitter_room + 1))
    }
}

/// One operation's way to the cloud: the policy, the recorder and the
/// operation's retry budget, shared by all its threads.
pub struct Transfer<'a> {
    cloud: &'a CloudSim,
    policy: RetryPolicy,
    budget: AtomicU32,
    rec: &'a Recorder,
}

impl<'a> Transfer<'a> {
    /// A handle with a fresh budget of `policy.session_retry_budget`.
    pub fn new(cloud: &'a CloudSim, policy: RetryPolicy, rec: &'a Recorder) -> Self {
        Transfer { cloud, policy, budget: AtomicU32::new(policy.session_retry_budget), rec }
    }

    /// Uploads one object and returns its length. Counts it as upload
    /// traffic (bytes and objects, a [`Stage::Upload`] sample once it
    /// lands); every attempt sends the one shared buffer `bytes` moves
    /// into, so nothing is copied. `op` seeds the backoff jitter.
    pub(crate) fn put(&self, key: &str, bytes: Vec<u8>, op: u64) -> Result<u64, BackupError> {
        let uploading = self.rec.start();
        let len = bytes.len() as u64;
        self.rec.count(Counter::UploadBytes, len);
        self.rec.count(Counter::UploadObjects, 1);
        let bytes = Arc::new(bytes);
        let counters = (Counter::UploadRetries, Counter::UploadGiveups);
        self.retrying(op, counters, || self.cloud.put(key, Arc::clone(&bytes)))?;
        self.rec.record(Stage::Upload, uploading);
        Ok(len)
    }

    /// Downloads one object (`None`: no such key); retries count as
    /// restore retries whatever the reader. `op` seeds the backoff jitter.
    pub(crate) fn get(&self, key: &str, op: u64) -> Result<Option<Vec<u8>>, BackupError> {
        let counters = (Counter::RestoreRetries, Counter::RestoreGiveups);
        self.retrying(op, counters, || self.cloud.get(key)).map(|(bytes, _t)| bytes)
    }

    /// Runs `attempt_once`, retrying transient failures while the policy's
    /// attempts and the shared budget last; backoff is charged to the
    /// simulated transfer clock (and slept if the policy says so). Running
    /// out, or a permanent failure, counts a give-up and surfaces the error.
    fn retrying<T>(
        &self,
        op: u64,
        (retried, gave_up): (Counter, Counter),
        mut attempt_once: impl FnMut() -> Result<T, BackendError>,
    ) -> Result<T, BackupError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let take_one = |b: u32| b.checked_sub(1);
        let mut attempt = 1u32;
        loop {
            match attempt_once() {
                Ok(out) => return Ok(out),
                Err(e)
                    if e.transient
                        && attempt < max_attempts
                        && self.budget.fetch_update(Relaxed, Relaxed, take_one).is_ok() =>
                {
                    self.rec.count(retried, 1);
                    let wait = self.policy.backoff(attempt, op);
                    self.cloud.charge(wait);
                    if self.policy.sleep && !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    attempt += 1;
                }
                Err(e) => {
                    self.rec.count(gave_up, 1);
                    let why = format!("{e} (attempt {attempt} of {max_attempts})");
                    return Err(BackupError::Cloud(why));
                }
            }
        }
    }
}

/// Commits one session: seals every open container, uploads the sealed
/// ones in id order (independent of stream sealing order), then the
/// manifest — the commit point; a failure before it leaves only orphans
/// for [`AaDedupe::open`](crate::AaDedupe::open) to sweep. Adds the bytes,
/// PUT requests and transfer time to `report` and returns how many objects
/// it put, the jitter `op`s it used being `1..=` that.
pub fn upload_session(
    transfer: &Transfer<'_>,
    containers: &mut ContainerStore,
    scheme_key: &str,
    manifest: &Manifest,
    report: &mut SessionReport,
) -> Result<u64, BackupError> {
    let cloud = transfer.cloud;
    let (puts_before, wan_before) = (cloud.store().stats().put_requests, cloud.elapsed());
    containers.seal_all();
    let mut sealed = containers.drain_sealed();
    sealed.sort_by_key(|s| s.id);
    let mut op = 0u64;
    for s in sealed {
        op += 1;
        report.transferred_bytes += transfer.put(&container_key(scheme_key, s.id), s.bytes, op)?;
    }
    op += 1;
    let mkey = Manifest::key(scheme_key, manifest.session);
    report.transferred_bytes += transfer.put(&mkey, manifest.encode(), op)?;
    report.put_requests += cloud.store().stats().put_requests - puts_before;
    report.transfer_time += cloud.elapsed() - wan_before;
    Ok(op)
}

/// splitmix64 — deterministic bit mixer for the jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_cloud::{FaultInjectingBackend, FaultPlan, ObjectStore, PriceModel, WanModel};
    use aadedupe_container::format::HEADER_LEN;
    use aadedupe_hashing::{Fingerprint, HashAlgorithm};

    fn faulty(plan: FaultPlan) -> CloudSim {
        let inner = Arc::new(ObjectStore::new());
        let backend = Arc::new(FaultInjectingBackend::new(inner, plan));
        CloudSim::with_backend(backend, WanModel::paper_defaults(), PriceModel::s3_april_2011())
    }

    #[test]
    fn upload_session_accounts_requests_and_bytes() {
        let cloud = CloudSim::with_paper_defaults();
        let mut store = ContainerStore::new(HEADER_LEN + 1);
        store.add_chunk(0, Fingerprint::compute(HashAlgorithm::Sha1, b"x"), b"payload");
        let manifest = Manifest::new(0);
        let mut report = SessionReport::new("t", 0);
        let rec = Recorder::disabled();
        let transfer = Transfer::new(&cloud, RetryPolicy::no_retries(), &rec);
        upload_session(&transfer, &mut store, "t", &manifest, &mut report).unwrap();
        assert_eq!(report.put_requests, 2, "one container + one manifest");
        assert!(report.transferred_bytes > 7);
        assert!(report.transfer_time > std::time::Duration::ZERO);
    }

    #[test]
    fn upload_session_ships_containers_in_id_order_then_the_manifest() {
        // Stream 2 rolls over while the session runs, so its first
        // container is sealed before stream 1's: the uploads must still go
        // in id order, and the manifest last.
        let session = || {
            let mut store = ContainerStore::new(HEADER_LEN + 256);
            for i in 0..3u8 {
                store.add_chunk(2, Fingerprint::compute(HashAlgorithm::Sha1, &[i]), &[i; 200]);
            }
            store.add_chunk(1, Fingerprint::compute(HashAlgorithm::Sha1, b"one"), b"one");
            store
        };
        let mut sealed = session();
        sealed.seal_all();
        let drained: Vec<u64> = sealed.drain_sealed().iter().map(|s| s.id).collect();
        let mut ids = drained.clone();
        ids.sort_unstable();
        assert_ne!(drained, ids, "the drill needs containers sealed out of id order");
        let mut order: Vec<String> = ids.iter().map(|&id| container_key("t", id)).collect();
        order.push(Manifest::key("t", 0));
        // A crash at the n-th put leaves exactly the first n - 1 in place.
        for crash_at in 1..=order.len() as u64 {
            let cloud = faulty(FaultPlan::new(0).crash_at_op(crash_at));
            let rec = Recorder::disabled();
            let transfer = Transfer::new(&cloud, RetryPolicy::default(), &rec);
            let mut report = SessionReport::new("t", 0);
            upload_session(&transfer, &mut session(), "t", &Manifest::new(0), &mut report)
                .expect_err("crash-stopped");
            let landed = order.get(..crash_at as usize - 1).unwrap();
            assert_eq!(cloud.store().list("t/"), landed, "crash at put {crash_at}");
        }
    }

    #[test]
    fn one_transfer_retries_puts_and_gets_from_one_budget() {
        let plan = FaultPlan::new(1).fail_prefix_puts("k/", 1, true);
        let cloud = faulty(plan.fail_prefix_gets("k/", 1, true));
        let rec = Recorder::new();
        let policy = RetryPolicy { session_retry_budget: 2, ..RetryPolicy::default() };
        let transfer = Transfer::new(&cloud, policy, &rec);
        assert_eq!(transfer.put("k/a", vec![7; 10], 1).unwrap(), 10);
        assert_eq!(transfer.get("k/a", 1).unwrap(), Some(vec![7; 10]));
        // The put and the get spent the budget: the next transient failure
        // is final.
        assert!(matches!(transfer.get("k/b", 2), Err(BackupError::Cloud(_))));
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::UploadRetries), 1);
        assert_eq!(snap.counter(Counter::UploadObjects), 1);
        assert_eq!(snap.counter(Counter::UploadBytes), 10);
        assert_eq!(snap.counter(Counter::RestoreRetries), 1);
        assert_eq!(snap.counter(Counter::RestoreGiveups), 1);
        assert!(cloud.elapsed() > policy.backoff(1, 1), "backoff is charged to the clock");
    }

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            ..RetryPolicy::default()
        };
        for op in 0..20 {
            let mut prev = Duration::ZERO;
            for attempt in 1..=6 {
                let d = p.backoff(attempt, op);
                let exp = p.base_backoff.saturating_mul(1 << (attempt - 1)).min(p.max_backoff);
                assert!(d >= exp / 2, "attempt {attempt}: {d:?} < half of {exp:?}");
                assert!(d <= exp, "attempt {attempt}: {d:?} > {exp:?}");
                assert!(d >= prev / 4, "never collapses");
                prev = d;
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(2, 5), p.backoff(2, 5));
        let q = RetryPolicy { jitter_seed: p.jitter_seed + 1, ..p };
        // Different seeds almost surely differ somewhere in a small sweep.
        let differs = (0..16).any(|op| p.backoff(2, op) != q.backoff(2, op));
        assert!(differs);
    }

    #[test]
    fn zero_base_backoff_is_zero_wait() {
        let p = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(p.backoff(1, 0), Duration::ZERO);
        assert_eq!(p.backoff(5, 3), Duration::ZERO);
    }

    #[test]
    fn no_retries_policy() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.session_retry_budget, 0);
    }
}

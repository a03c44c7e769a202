//! Deterministic fault injection for any [`ObjectBackend`].
//!
//! Real cloud backup runs over an unreliable WAN to storage the client
//! does not control; the engine's retry and commit logic is only
//! trustworthy if it can be exercised against *scheduled* failures. A
//! [`FaultInjectingBackend`] wraps any backend and makes operations fail
//! according to a [`FaultPlan`] — a seeded, fully deterministic schedule,
//! so every test failure reproduces from its seed and rule list alone.
//!
//! Supported faults:
//!
//! * fail the Nth put (transient or permanent);
//! * fail every key under a prefix K times, then let it succeed
//!   (the classic flaky-endpoint shape retries must absorb);
//! * the same two shapes for gets, so restore downloads can be drilled
//!   exactly like uploads;
//! * truncate the Nth put — the *partial* object becomes visible and the
//!   put reports a transient failure, modelling a torn write;
//! * crash-stop at the Nth operation — that operation and every later one
//!   fails permanently, modelling process death mid-session;
//! * seeded random transient put failures at a fixed per-mille rate.

use std::collections::HashMap;
use std::sync::Arc;

use aadedupe_lock::Lock;

use crate::backend::{BackendError, BackendOp, ObjectBackend};
use crate::objectstore::ObjectStoreStats;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRule {
    /// Fail the `n`th put (1-based over the backend's lifetime).
    NthPut {
        /// Which put to fail, counting from 1.
        n: u64,
        /// Whether the failure is worth retrying.
        transient: bool,
    },
    /// Fail the first `times` puts of every key matching `prefix`, then
    /// let that key succeed.
    PrefixPuts {
        /// Key prefix the rule applies to.
        prefix: String,
        /// Failures per key before it recovers.
        times: u32,
        /// Whether the failures are worth retrying.
        transient: bool,
    },
    /// Truncate the `n`th put to its first `keep` bytes: the truncated
    /// object becomes visible under the key and the put reports a
    /// *transient* failure (a retry overwrites it with the full bytes).
    TruncateNthPut {
        /// Which put to truncate, counting from 1.
        n: u64,
        /// Bytes of the payload that reach the backend.
        keep: usize,
    },
    /// Fail the `n`th get (1-based over the backend's lifetime).
    NthGet {
        /// Which get to fail, counting from 1.
        n: u64,
        /// Whether the failure is worth retrying.
        transient: bool,
    },
    /// Fail the first `times` gets of every key matching `prefix`, then
    /// let that key succeed.
    PrefixGets {
        /// Key prefix the rule applies to.
        prefix: String,
        /// Failures per key before it recovers.
        times: u32,
        /// Whether the failures are worth retrying.
        transient: bool,
    },
    /// Crash-stop: operation number `op` (1-based, counting puts, gets and
    /// deletes together) and every operation after it fails permanently.
    /// The crashed operation never reaches the inner backend.
    CrashAtOp {
        /// First operation that fails.
        op: u64,
    },
    /// Fail roughly `per_mille`/1000 of puts with a transient error,
    /// chosen deterministically from the plan seed and the put number.
    RandomPuts {
        /// Failure rate in thousandths.
        per_mille: u16,
    },
}

/// A deterministic failure schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds [`FaultRule::NthPut`].
    pub fn fail_nth_put(mut self, n: u64, transient: bool) -> Self {
        self.rules.push(FaultRule::NthPut { n, transient });
        self
    }

    /// Adds [`FaultRule::PrefixPuts`].
    pub fn fail_prefix_puts(mut self, prefix: impl Into<String>, times: u32, transient: bool) -> Self {
        self.rules.push(FaultRule::PrefixPuts { prefix: prefix.into(), times, transient });
        self
    }

    /// Adds [`FaultRule::TruncateNthPut`].
    pub fn truncate_nth_put(mut self, n: u64, keep: usize) -> Self {
        self.rules.push(FaultRule::TruncateNthPut { n, keep });
        self
    }

    /// Adds [`FaultRule::NthGet`].
    pub fn fail_nth_get(mut self, n: u64, transient: bool) -> Self {
        self.rules.push(FaultRule::NthGet { n, transient });
        self
    }

    /// Adds [`FaultRule::PrefixGets`].
    pub fn fail_prefix_gets(mut self, prefix: impl Into<String>, times: u32, transient: bool) -> Self {
        self.rules.push(FaultRule::PrefixGets { prefix: prefix.into(), times, transient });
        self
    }

    /// Adds [`FaultRule::CrashAtOp`].
    pub fn crash_at_op(mut self, op: u64) -> Self {
        self.rules.push(FaultRule::CrashAtOp { op });
        self
    }

    /// Adds [`FaultRule::RandomPuts`].
    pub fn random_transient_puts(mut self, per_mille: u16) -> Self {
        self.rules.push(FaultRule::RandomPuts { per_mille });
        self
    }
}

/// splitmix64 — the deterministic bit mixer behind [`FaultRule::RandomPuts`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Default)]
struct FaultState {
    /// Operations attempted (puts + gets + deletes), 1-based after increment.
    ops: u64,
    /// Puts attempted, 1-based after increment.
    puts: u64,
    /// Gets attempted, 1-based after increment.
    gets: u64,
    /// Per-key failures already injected by `PrefixPuts` rules.
    prefix_failures: HashMap<String, u32>,
    /// Per-key failures already injected by `PrefixGets` rules.
    prefix_get_failures: HashMap<String, u32>,
    /// Faults injected so far (for test assertions).
    injected: u64,
    /// Set once a `CrashAtOp` rule fires; everything fails afterwards.
    crashed: bool,
}

/// An [`ObjectBackend`] decorator that fails operations per a [`FaultPlan`].
///
/// Read-only inspection methods (`contains`, `list`, `stats`, …) pass
/// through unfaulted so tests can always examine the surviving state.
pub struct FaultInjectingBackend {
    inner: Arc<dyn ObjectBackend>,
    plan: FaultPlan,
    state: Lock<FaultState>,
}

impl FaultInjectingBackend {
    /// Wraps `inner` with the failure schedule `plan`.
    pub fn new(inner: Arc<dyn ObjectBackend>, plan: FaultPlan) -> Self {
        FaultInjectingBackend { inner, plan, state: Lock::new(FaultState::default()) }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn ObjectBackend> {
        &self.inner
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Operations attempted so far (puts + gets + deletes).
    pub fn ops_attempted(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether a crash-stop rule has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Advances the op counter; returns an error if the backend is (now)
    /// crash-stopped.
    fn tick_op(&self, op: BackendOp, key: &str) -> Result<u64, BackendError> {
        let mut g = self.state.lock();
        g.ops += 1;
        let n = g.ops;
        if g.crashed || self.plan.rules.iter().any(|r| matches!(r, FaultRule::CrashAtOp { op } if *op <= n))
        {
            g.crashed = true;
            g.injected += 1;
            return Err(BackendError::permanent(op, key, "injected crash-stop"));
        }
        Ok(n)
    }

    /// Consults every put rule; returns the fault to inject, if any.
    /// `Some((transient, keep))`: `keep` is `Some(len)` for a truncation.
    fn put_fault(&self, key: &str) -> Option<(bool, Option<usize>)> {
        let mut g = self.state.lock();
        g.puts += 1;
        let nth = g.puts;
        for rule in &self.plan.rules {
            match rule {
                FaultRule::NthPut { n, transient } if *n == nth => {
                    g.injected += 1;
                    return Some((*transient, None));
                }
                FaultRule::TruncateNthPut { n, keep } if *n == nth => {
                    g.injected += 1;
                    return Some((true, Some(*keep)));
                }
                FaultRule::PrefixPuts { prefix, times, transient } if key.starts_with(prefix.as_str()) => {
                    let seen = g.prefix_failures.entry(key.to_owned()).or_insert(0);
                    if *seen < *times {
                        *seen += 1;
                        g.injected += 1;
                        return Some((*transient, None));
                    }
                }
                FaultRule::RandomPuts { per_mille }
                    if splitmix64(self.plan.seed ^ nth) % 1000 < *per_mille as u64 =>
                {
                    g.injected += 1;
                    return Some((true, None));
                }
                _ => {}
            }
        }
        None
    }

    /// Consults every get rule; returns `Some(transient)` to inject a fault.
    fn get_fault(&self, key: &str) -> Option<bool> {
        let mut g = self.state.lock();
        g.gets += 1;
        let nth = g.gets;
        for rule in &self.plan.rules {
            match rule {
                FaultRule::NthGet { n, transient } if *n == nth => {
                    g.injected += 1;
                    return Some(*transient);
                }
                FaultRule::PrefixGets { prefix, times, transient }
                    if key.starts_with(prefix.as_str()) =>
                {
                    let seen = g.prefix_get_failures.entry(key.to_owned()).or_insert(0);
                    if *seen < *times {
                        *seen += 1;
                        g.injected += 1;
                        return Some(*transient);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

impl ObjectBackend for FaultInjectingBackend {
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<(), BackendError> {
        self.tick_op(BackendOp::Put, key)?;
        match self.put_fault(key) {
            Some((_, Some(keep))) => {
                // Torn write: a partial copy lands, the put still fails, and
                // the caller's buffer is left whole for the retry.
                let keep = keep.min(bytes.len());
                self.inner.put(key, Arc::new(bytes.iter().take(keep).copied().collect()))?;
                Err(BackendError::transient(
                    BackendOp::Put,
                    key,
                    format!("injected truncation to {keep} bytes"),
                ))
            }
            Some((true, None)) => {
                Err(BackendError::transient(BackendOp::Put, key, "injected transient failure"))
            }
            Some((false, None)) => {
                Err(BackendError::permanent(BackendOp::Put, key, "injected permanent failure"))
            }
            None => self.inner.put(key, bytes),
        }
    }

    fn get(&self, key: &str) -> Result<Option<Arc<Vec<u8>>>, BackendError> {
        self.tick_op(BackendOp::Get, key)?;
        match self.get_fault(key) {
            Some(true) => {
                Err(BackendError::transient(BackendOp::Get, key, "injected transient failure"))
            }
            Some(false) => {
                Err(BackendError::permanent(BackendOp::Get, key, "injected permanent failure"))
            }
            None => self.inner.get(key),
        }
    }

    fn delete(&self, key: &str) -> Result<bool, BackendError> {
        self.tick_op(BackendOp::Delete, key)?;
        self.inner.delete(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn stats(&self) -> ObjectStoreStats {
        self.inner.stats()
    }

    fn corrupt(&self, key: &str, byte_index: usize) -> bool {
        self.inner.corrupt(key, byte_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectstore::ObjectStore;

    fn faulty(plan: FaultPlan) -> (FaultInjectingBackend, Arc<ObjectStore>) {
        let store = Arc::new(ObjectStore::new());
        (FaultInjectingBackend::new(store.clone(), plan), store)
    }

    #[test]
    fn nth_put_fails_once() {
        let (b, inner) = faulty(FaultPlan::new(1).fail_nth_put(2, true));
        b.put("a", vec![1].into()).unwrap();
        let err = b.put("b", vec![2].into()).unwrap_err();
        assert!(err.transient);
        b.put("b", vec![2].into()).unwrap(); // third put: rule no longer matches
        assert_eq!(inner.object_count(), 2);
        assert_eq!(b.faults_injected(), 1);
    }

    #[test]
    fn prefix_puts_fail_k_times_then_recover() {
        let (b, _) = faulty(FaultPlan::new(1).fail_prefix_puts("c/", 2, true));
        assert!(b.put("c/1", vec![1].into()).is_err());
        assert!(b.put("c/1", vec![1].into()).is_err());
        b.put("c/1", vec![1].into()).unwrap();
        // An unrelated key never fails; each key has its own counter.
        b.put("m/0", vec![9].into()).unwrap();
        assert!(b.put("c/2", vec![2].into()).is_err());
        assert_eq!(b.faults_injected(), 3);
    }

    #[test]
    fn truncation_makes_partial_object_visible_and_fails() {
        let (b, inner) = faulty(FaultPlan::new(1).truncate_nth_put(1, 3));
        let err = b.put("k", vec![1, 2, 3, 4, 5].into()).unwrap_err();
        assert!(err.transient);
        assert_eq!(inner.get("k").unwrap().as_deref(), Some(&vec![1, 2, 3]), "torn write is visible");
        b.put("k", vec![1, 2, 3, 4, 5].into()).unwrap();
        assert_eq!(inner.get("k").unwrap().as_deref(), Some(&vec![1, 2, 3, 4, 5]), "retry heals it");
    }

    #[test]
    fn nth_get_fails_once() {
        let (b, _) = faulty(FaultPlan::new(1).fail_nth_get(2, true));
        b.put("a", vec![1].into()).unwrap();
        assert_eq!(b.get("a").unwrap().as_deref(), Some(&vec![1]));
        let err = b.get("a").unwrap_err();
        assert!(err.transient);
        assert_eq!(b.get("a").unwrap().as_deref(), Some(&vec![1]), "third get: rule no longer matches");
        assert_eq!(b.faults_injected(), 1);
    }

    #[test]
    fn prefix_gets_fail_k_times_then_recover() {
        let (b, _) = faulty(FaultPlan::new(1).fail_prefix_gets("c/", 2, true));
        b.put("c/1", vec![1].into()).unwrap();
        b.put("m/0", vec![9].into()).unwrap();
        assert!(b.get("c/1").is_err());
        assert!(b.get("c/1").is_err());
        assert_eq!(b.get("c/1").unwrap().as_deref(), Some(&vec![1]));
        // An unrelated key never fails; each key has its own counter.
        assert_eq!(b.get("m/0").unwrap().as_deref(), Some(&vec![9]));
        assert!(b.get("c/1").unwrap().is_some(), "counter is per key, not global");
        assert_eq!(b.faults_injected(), 2);
    }

    #[test]
    fn permanent_get_failure_is_not_transient() {
        let (b, _) = faulty(FaultPlan::new(1).fail_prefix_gets("c/", u32::MAX, false));
        b.put("c/1", vec![1].into()).unwrap();
        let err = b.get("c/1").unwrap_err();
        assert!(!err.transient);
        assert!(b.get("c/1").is_err(), "never recovers");
    }

    #[test]
    fn crash_stop_fails_everything_from_the_chosen_op() {
        let (b, inner) = faulty(FaultPlan::new(1).crash_at_op(3));
        b.put("a", vec![1].into()).unwrap();
        assert_eq!(b.get("a").unwrap().as_deref(), Some(&vec![1]));
        let err = b.put("b", vec![2].into()).unwrap_err();
        assert!(!err.transient, "crash-stop is not retryable");
        assert!(b.get("a").is_err(), "backend stays dead");
        assert!(b.delete("a").is_err());
        assert!(b.crashed());
        assert!(!inner.contains("b"), "crashed op never reached the store");
        // Inspection still works on the surviving state.
        assert_eq!(b.list(""), vec!["a"]);
    }

    #[test]
    fn random_puts_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (b, _) = faulty(FaultPlan::new(seed).random_transient_puts(300));
            (0..100).map(|i| b.put(&format!("k/{i}"), vec![0].into()).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let failures = run(7).iter().filter(|f| **f).count();
        assert!((15..=45).contains(&failures), "rate ~300/1000, got {failures}");
    }

    #[test]
    fn empty_plan_passes_everything_through() {
        let (b, inner) = faulty(FaultPlan::new(0));
        b.put("x", vec![1, 2].into()).unwrap();
        assert_eq!(b.get("x").unwrap().as_deref(), Some(&vec![1, 2]));
        assert!(b.delete("x").unwrap());
        assert_eq!(b.faults_injected(), 0);
        assert_eq!(b.ops_attempted(), 3);
        assert_eq!(inner.stats().put_requests, 1);
    }
}

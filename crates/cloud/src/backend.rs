//! The object-store backend abstraction.
//!
//! [`CloudSim`](crate::CloudSim) models WAN and pricing identically for
//! any backend; the backend decides where object bytes live. Three are
//! provided: the in-memory [`ObjectStore`](crate::ObjectStore) (fast,
//! used by tests and the evaluation harness), the filesystem-backed
//! [`FsObjectStore`](crate::FsObjectStore) (durable, used by the
//! `aabackup` CLI), and the [`FaultInjectingBackend`](crate::FaultInjectingBackend)
//! wrapper that makes any of them fail on a deterministic schedule.
//!
//! Transfers can fail — a real S3 endpoint over a WAN drops connections,
//! a local disk fills up — so `put`/`get`/`delete` are fallible and every
//! error carries a [`BackendError::transient`] classification that the
//! engine's retry policy consults.

use std::fmt;
use std::sync::Arc;

use crate::objectstore::ObjectStoreStats;

/// The backend operation an error arose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendOp {
    /// Storing an object.
    Put,
    /// Fetching an object.
    Get,
    /// Deleting an object.
    Delete,
}

impl BackendOp {
    /// Stable lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            BackendOp::Put => "put",
            BackendOp::Get => "get",
            BackendOp::Delete => "delete",
        }
    }
}

/// A failed backend operation.
///
/// `transient: true` means a retry may succeed (timeout, interrupted
/// transfer); `false` means retrying is pointless (permission denied,
/// invalid key, crash-stopped backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Which operation failed.
    pub op: BackendOp,
    /// The object key it targeted.
    pub key: String,
    /// Whether a retry may succeed.
    pub transient: bool,
    /// Human-readable cause.
    pub message: String,
}

impl BackendError {
    /// An error worth retrying.
    pub fn transient(op: BackendOp, key: &str, message: impl Into<String>) -> Self {
        BackendError { op, key: key.to_owned(), transient: true, message: message.into() }
    }

    /// An error retrying cannot fix.
    pub fn permanent(op: BackendOp, key: &str, message: impl Into<String>) -> Self {
        BackendError { op, key: key.to_owned(), transient: false, message: message.into() }
    }

    /// Classifies an I/O error: interrupted/timed-out transfers are worth
    /// retrying, everything else (permissions, missing directories, disk
    /// full) is not.
    pub fn from_io(op: BackendOp, key: &str, e: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        let transient = matches!(
            e.kind(),
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock
        );
        BackendError { op, key: key.to_owned(), transient, message: e.to_string() }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} failed ({}): {}",
            self.op.name(),
            self.key,
            if self.transient { "transient" } else { "permanent" },
            self.message
        )
    }
}

impl std::error::Error for BackendError {}

/// A flat key → bytes object namespace with request/byte accounting.
///
/// Implementations must be thread-safe; accounting counters cover every
/// *attempted* operation including misses and failures (matching how a
/// cloud provider bills requests).
///
/// Objects are shared, immutable buffers: a put hands over a reference to
/// the caller's bytes (every retry of one upload sends the same buffer)
/// and a get returns one, so a backend that keeps objects in memory stores
/// and serves them without copying.
pub trait ObjectBackend: Send + Sync {
    /// Stores `bytes` under `key`, replacing any previous object. An `Err`
    /// means the object was **not** durably stored (a partially written
    /// object must never become visible under `key`).
    fn put(&self, key: &str, bytes: Arc<Vec<u8>>) -> Result<(), BackendError>;

    /// Fetches the object at `key`. `Ok(None)` is a clean miss; `Err` is a
    /// failed transfer whose outcome is unknown.
    fn get(&self, key: &str) -> Result<Option<Arc<Vec<u8>>>, BackendError>;

    /// Deletes the object at `key`; returns whether it existed.
    fn delete(&self, key: &str) -> Result<bool, BackendError>;

    /// True if an object exists at `key` (not counted as a request).
    fn contains(&self, key: &str) -> bool;

    /// Keys starting with `prefix`, in lexicographic order.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Number of stored objects.
    fn object_count(&self) -> usize;

    /// Total bytes currently stored.
    fn stored_bytes(&self) -> u64;

    /// Accounting snapshot.
    fn stats(&self) -> ObjectStoreStats;

    /// Corrupts one byte of the object at `key` (failure injection);
    /// returns false if the object is missing or empty. Buffers handed out
    /// by earlier gets keep the bytes they had.
    fn corrupt(&self, key: &str, byte_index: usize) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_op_key_and_classification() {
        let e = BackendError::transient(BackendOp::Put, "c/1", "timeout");
        assert_eq!(e.to_string(), "put c/1 failed (transient): timeout");
        let e = BackendError::permanent(BackendOp::Get, "m/0", "gone");
        assert_eq!(e.to_string(), "get m/0 failed (permanent): gone");
    }

    #[test]
    fn io_classification() {
        use std::io::{Error, ErrorKind};
        let t = BackendError::from_io(BackendOp::Put, "k", &Error::new(ErrorKind::TimedOut, "t"));
        assert!(t.transient);
        let p =
            BackendError::from_io(BackendOp::Put, "k", &Error::new(ErrorKind::PermissionDenied, "p"));
        assert!(!p.transient);
    }
}

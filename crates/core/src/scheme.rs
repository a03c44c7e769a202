//! The uniform backup-scheme interface.
//!
//! The paper's evaluation sweeps five cloud backup clients — Jungle Disk,
//! BackupPC, Avamar, SAM and AA-Dedupe — over the same workload and
//! reports per-session measurements. [`BackupScheme`] is the contract that
//! makes the sweep uniform: feed a session's files, get a
//! [`SessionReport`]; restore any past
//! session and get verified bytes back.

use aadedupe_filetype::SourceFile;
use aadedupe_metrics::SessionReport;
use std::fmt;

use crate::restore::RestoredFile;

/// Failure modes of backup/restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// A referenced cloud object is missing.
    MissingObject(String),
    /// An object failed to parse (corrupt container/manifest/index).
    Corrupt(String),
    /// A restored chunk failed fingerprint verification.
    Verification(String),
    /// The requested session was never backed up.
    UnknownSession(usize),
    /// A cloud backend operation failed (after any retries).
    Cloud(String),
    /// A previous session failed mid-upload on this engine instance; its
    /// in-memory state may reference objects that never reached the cloud,
    /// so further backups are refused — reopen the engine from the cloud.
    Poisoned(String),
    /// The disk-backed index hit a local IO error during the session.
    /// Lookups degraded to "absent" (duplicate storage, never corruption),
    /// but the session's dedup accounting can no longer be trusted, so the
    /// commit is refused before anything reaches the cloud.
    IndexStorage(String),
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::MissingObject(k) => write!(f, "missing cloud object {k}"),
            BackupError::Corrupt(what) => write!(f, "corrupt object: {what}"),
            BackupError::Verification(what) => write!(f, "verification failed: {what}"),
            BackupError::UnknownSession(s) => write!(f, "unknown session {s}"),
            BackupError::Cloud(what) => write!(f, "cloud backend failure: {what}"),
            BackupError::Poisoned(what) => {
                write!(f, "engine poisoned by a failed session ({what}); reopen from the cloud")
            }
            BackupError::IndexStorage(what) => {
                write!(f, "disk-backed index storage failure: {what}")
            }
        }
    }
}

impl std::error::Error for BackupError {}

impl From<aadedupe_cloud::BackendError> for BackupError {
    fn from(e: aadedupe_cloud::BackendError) -> Self {
        BackupError::Cloud(e.to_string())
    }
}

/// A cloud backup client strategy.
pub trait BackupScheme {
    /// Scheme name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Runs one full backup session over `files`, uploading whatever the
    /// strategy decides is new, and reports the session's measurements.
    fn backup_session(
        &mut self,
        files: &[&dyn SourceFile],
    ) -> Result<SessionReport, BackupError>;

    /// Restores every file of a past session, verifying integrity.
    fn restore_session(&self, session: usize) -> Result<Vec<RestoredFile>, BackupError>;

    /// Number of completed sessions.
    fn sessions_completed(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            BackupError::MissingObject("containers/3".into()).to_string(),
            "missing cloud object containers/3"
        );
        assert_eq!(BackupError::UnknownSession(4).to_string(), "unknown session 4");
        let e: Box<dyn std::error::Error> = Box::new(BackupError::Corrupt("x".into()));
        assert!(e.to_string().contains("corrupt"));
    }
}

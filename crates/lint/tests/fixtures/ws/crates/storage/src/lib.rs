//! Second fixture crate: the cross-crate call-graph linking target. Its
//! wrapper propagates the backend's error correctly; the finding is the
//! caller in `core` that drops it.

pub struct BackendError;

pub trait ObjectBackend {
    fn put(&self, key: &str, bytes: Vec<u8>) -> Result<(), BackendError>;
}

/// Stores `bytes` under `key`, handing the backend's error up.
pub fn store_blob(
    backend: &dyn ObjectBackend,
    key: &str,
    bytes: Vec<u8>,
) -> Result<(), BackendError> {
    backend.put(key, bytes)
}

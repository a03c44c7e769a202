//! L7 fixtures: storage fallibility laundered directly, laundered
//! through a transitive wrapper, and propagated properly (the negative
//! both findings are measured against).

pub struct BackendError;

pub trait ObjectBackend {
    fn put(&self, key: &str, bytes: Vec<u8>) -> Result<(), BackendError>;
}

pub struct NullBackend;

impl ObjectBackend for NullBackend {
    fn put(&self, _key: &str, _bytes: Vec<u8>) -> Result<(), BackendError> {
        Ok(())
    }
}

pub struct Uploader {
    backend: NullBackend,
}

impl Uploader {
    pub fn fire_and_forget(&self, key: &str, bytes: Vec<u8>) {
        self.backend.put(key, bytes).unwrap_or(());
    }

    pub fn forward(&self, key: &str, bytes: Vec<u8>) -> Result<(), BackendError> {
        self.backend.put(key, bytes)
    }

    fn relay(&self, key: &str, bytes: Vec<u8>) -> Result<(), BackendError> {
        self.backend.put(key, bytes)
    }

    pub fn transitive_discard(&self, key: &str) {
        self.relay(key, Vec::new()).unwrap_or(());
    }
}

//! Cross-crate fixture: core laundering a storage error that a wrapper in
//! the `storage` fixture crate propagates, proving the call graph links
//! across crate boundaries through the Cargo dependency closure.

pub fn archive(backend: &dyn fixture_storage::ObjectBackend, key: &str) {
    fixture_storage::store_blob(backend, key, Vec::new()).unwrap_or(());
}

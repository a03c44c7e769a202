//! Incremental container construction.
//!
//! One open [`ContainerBuilder`] exists per backup stream; chunks are
//! appended until the projected serialized size would exceed the fixed
//! container size, at which point the caller seals the container (padding
//! it) and opens a new one. The builder tracks its projected size exactly,
//! so a sealed container never overflows the fixed size — except dedicated
//! oversized containers holding a single huge chunk.

use crate::format::{encode_container, ChunkDescriptor, HEADER_LEN};

/// Serialized size of one chunk: its descriptor plus its data.
fn entry_len(len: usize, digest_len: usize) -> usize {
    ChunkDescriptor::encoded_len_for(digest_len) + len
}

/// Whether a chunk of `len` bytes under a `digest_len`-byte fingerprint
/// fits an *empty* container of `target_size`. One that does not fits none
/// and gets a dedicated oversized container.
pub(crate) fn fits_empty(target_size: usize, len: usize, digest_len: usize) -> bool {
    HEADER_LEN + entry_len(len, digest_len) <= target_size
}

/// An open, partially-filled container.
pub(crate) struct ContainerBuilder {
    container_id: u64,
    target_size: usize,
    descriptors: Vec<ChunkDescriptor>,
    data: Vec<u8>,
    /// Projected serialized size (header + descriptors + data, no padding).
    projected: usize,
}

impl ContainerBuilder {
    /// Opens an empty container.
    pub fn new(container_id: u64, target_size: usize) -> Self {
        // aalint: allow(panic-path) -- construction-time parameter validation: a container smaller than its header is a config bug
        assert!(target_size > HEADER_LEN, "container size too small");
        ContainerBuilder {
            container_id,
            target_size,
            descriptors: Vec::new(),
            data: Vec::with_capacity(target_size.min(1 << 22)),
            projected: HEADER_LEN,
        }
    }

    /// The container's identifier.
    pub fn container_id(&self) -> u64 {
        self.container_id
    }

    /// Number of chunks appended so far.
    pub fn chunk_count(&self) -> usize {
        self.descriptors.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Whether appending a chunk of `len` bytes fingerprinted by an
    /// algorithm with `digest_len` would keep the container within its
    /// fixed size.
    pub fn fits(&self, len: usize, digest_len: usize) -> bool {
        self.projected + entry_len(len, digest_len) <= self.target_size
    }

    /// Appends a chunk, returning its offset within the data section.
    ///
    /// The caller is responsible for checking [`ContainerBuilder::fits`]
    /// first; appending an oversized chunk into an empty builder is allowed
    /// (dedicated oversized container), otherwise this panics.
    pub fn append(&mut self, fingerprint: aadedupe_hashing::Fingerprint, chunk: &[u8]) -> u32 {
        let digest_len = fingerprint.algorithm().digest_len();
        // aalint: allow(panic-path) -- documented precondition: callers check fits() first; violating it is a caller bug worth a loud panic
        assert!(
            self.fits(chunk.len(), digest_len) || self.is_empty(),
            "chunk does not fit and builder is not empty"
        );
        let offset = self.data.len() as u32;
        self.descriptors.push(ChunkDescriptor {
            fingerprint,
            offset,
            len: chunk.len() as u32,
        });
        self.data.extend_from_slice(chunk);
        self.projected += entry_len(chunk.len(), digest_len);
        offset
    }

    /// Seals the container into its final byte form.
    ///
    /// The paper pads partially-filled containers "out to full size" when
    /// writing them to the local *disk* staging area (fixed-slot container
    /// logs a la DDFS); shipping zero padding over a 500 KB/s WAN would be
    /// pure waste, so the uploaded form is the self-delimiting body alone.
    /// Returns `(bytes, padding)` where `padding` is the notional
    /// fixed-slot fill (`target_size - body`, 0 for oversized containers)
    /// that a padded on-disk layout would add -- reported so the
    /// container-size ablation can quantify the tradeoff.
    pub fn seal(self) -> (Vec<u8>, usize) {
        let body = self.projected;
        let padding = self.target_size.saturating_sub(body);
        let out = encode_container(self.container_id, &self.descriptors, &self.data, None);
        debug_assert_eq!(out.len(), body);
        (out, padding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ParsedContainer;
    use aadedupe_hashing::{Fingerprint, HashAlgorithm};

    fn fp(data: &[u8]) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, data)
    }

    #[test]
    fn append_until_full_then_seal() {
        let mut b = ContainerBuilder::new(1, 4096);
        let chunk = vec![0xaau8; 500];
        let mut appended = 0;
        while b.fits(chunk.len(), 20) {
            b.append(fp(&chunk), &chunk);
            appended += 1;
        }
        assert!(appended >= 6, "should fit several 500B chunks in 4 KiB");
        let (bytes, padding) = b.seal();
        assert!(bytes.len() <= 4096, "body stays within the fixed size");
        assert_eq!(bytes.len() + padding, 4096, "padding is the notional slot fill");
        assert!(padding < 600, "padding should be less than one chunk");
        let parsed = ParsedContainer::parse(&bytes).unwrap();
        assert_eq!(parsed.descriptors.len(), appended);
        parsed.verify().unwrap();
    }

    #[test]
    fn projected_size_is_exact() {
        let mut b = ContainerBuilder::new(2, 8192);
        for i in 0..5u8 {
            let chunk = vec![i; 100 + i as usize];
            b.append(fp(&chunk), &chunk);
        }
        let projected = b.projected;
        let (bytes, _padding) = b.seal();
        assert_eq!(bytes.len(), projected);
    }

    #[test]
    fn oversized_single_chunk_unpadded() {
        let mut b = ContainerBuilder::new(3, 1024);
        let big = vec![1u8; 10_000];
        assert!(!b.fits(big.len(), 12));
        b.append(Fingerprint::compute(HashAlgorithm::Rabin96, &big), &big);
        let (bytes, padding) = b.seal();
        assert_eq!(padding, 0);
        assert!(bytes.len() > 10_000);
        let parsed = ParsedContainer::parse(&bytes).unwrap();
        assert_eq!(parsed.descriptors.len(), 1);
        parsed.verify().unwrap();
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_append_into_nonempty_panics() {
        let mut b = ContainerBuilder::new(4, 1024);
        b.append(fp(b"small"), b"small");
        let big = vec![0u8; 10_000];
        b.append(fp(&big), &big);
    }

    #[test]
    fn empty_builder_seals_to_bare_header() {
        let b = ContainerBuilder::new(5, 256);
        let (bytes, padding) = b.seal();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(padding, 256 - HEADER_LEN);
        let parsed = ParsedContainer::parse(&bytes).unwrap();
        assert!(parsed.descriptors.is_empty());
    }

    #[test]
    fn offsets_are_sequential() {
        let mut b = ContainerBuilder::new(6, 1 << 16);
        let o1 = b.append(fp(b"aaa"), b"aaa");
        let o2 = b.append(fp(b"bbbb"), b"bbbb");
        let o3 = b.append(fp(b"c"), b"c");
        assert_eq!((o1, o2, o3), (0, 3, 7));
    }
}

//! Container byte layout.
//!
//! A container is self-describing (paper §III.F): "a metadata section
//! includes the chunk descriptors for the stored chunks". Layout (little-
//! endian):
//!
//! ```text
//! magic        "AACON\x01"        6 bytes
//! container_id u64
//! chunk_count  u32
//! data_len     u64                length of the data section
//! descriptors  chunk_count ×:
//!   fingerprint                   1 + digest_len bytes
//!   offset u32                    within the data section
//!   len    u32
//! data         data_len bytes
//! padding      zeros to the fixed container size (absent for oversized
//!              single-chunk containers)
//! ```

use aadedupe_hashing::Fingerprint;
use std::collections::HashMap;
use std::fmt;

/// Magic prefix of every container object.
pub const CONTAINER_MAGIC: &[u8; 6] = b"AACON\x01";

/// Fixed header size before the descriptor table.
pub const HEADER_LEN: usize = 6 + 8 + 4 + 8;

/// One chunk's metadata inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDescriptor {
    /// The chunk's fingerprint.
    pub fingerprint: Fingerprint,
    /// Offset within the container's data section.
    pub offset: u32,
    /// Chunk length in bytes.
    pub len: u32,
}

impl ChunkDescriptor {
    /// Encoded size of a descriptor over a `digest_len`-byte fingerprint:
    /// algorithm tag, digest, offset, length.
    pub(crate) const fn encoded_len_for(digest_len: usize) -> usize {
        1 + digest_len + 4 + 4
    }

    /// Encoded size of this descriptor.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_for(self.fingerprint.algorithm().digest_len())
    }
}

/// Container parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Missing or wrong magic.
    BadMagic,
    /// Byte stream shorter than the declared structure.
    Truncated,
    /// A descriptor failed to decode.
    BadDescriptor,
    /// A descriptor points outside the data section.
    DescriptorOutOfRange,
    /// A chunk's bytes do not match its fingerprint (corruption).
    ChunkCorrupt(Fingerprint),
    /// Requested fingerprint is not stored in this container.
    ChunkNotFound,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "bad container magic"),
            ContainerError::Truncated => write!(f, "truncated container"),
            ContainerError::BadDescriptor => write!(f, "undecodable chunk descriptor"),
            ContainerError::DescriptorOutOfRange => {
                write!(f, "chunk descriptor exceeds data section")
            }
            ContainerError::ChunkCorrupt(fp) => write!(f, "chunk {fp} fails verification"),
            ContainerError::ChunkNotFound => write!(f, "chunk not present in container"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Appends a container's header and descriptor table — everything that
/// precedes a data section of `data_len` bytes — to `out`.
pub(crate) fn encode_head(
    container_id: u64,
    descriptors: &[ChunkDescriptor],
    data_len: usize,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(CONTAINER_MAGIC);
    out.extend_from_slice(&container_id.to_le_bytes());
    out.extend_from_slice(&(descriptors.len() as u32).to_le_bytes());
    out.extend_from_slice(&(data_len as u64).to_le_bytes());
    for d in descriptors {
        d.fingerprint.encode(out);
        out.extend_from_slice(&d.offset.to_le_bytes());
        out.extend_from_slice(&d.len.to_le_bytes());
    }
}

/// Serialises a container. `pad_to` pads the result with zeros up to the
/// fixed container size; pass `None` for oversized single-chunk containers.
pub fn encode_container(
    container_id: u64,
    descriptors: &[ChunkDescriptor],
    data: &[u8],
    pad_to: Option<usize>,
) -> Vec<u8> {
    let desc_len: usize = descriptors.iter().map(ChunkDescriptor::encoded_len).sum();
    let body_len = HEADER_LEN + desc_len + data.len();
    let total = pad_to.map_or(body_len, |p| p.max(body_len));
    let mut out = Vec::with_capacity(total);
    encode_head(container_id, descriptors, data.len(), &mut out);
    out.extend_from_slice(data);
    out.resize(total, 0);
    out
}

/// The next `N` bytes of `buf` at `*pos`, advancing it.
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], ContainerError> {
    let bytes = buf.get(*pos..).and_then(<[u8]>::first_chunk).ok_or(ContainerError::Truncated)?;
    *pos += N;
    Ok(*bytes)
}

/// A parsed (and structurally validated) container. It owns the object it
/// was parsed from: the data section is a range of that buffer, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedContainer {
    /// The container's identifier.
    pub container_id: u64,
    /// Descriptor table.
    pub descriptors: Vec<ChunkDescriptor>,
    /// The container object, padding included.
    buf: Vec<u8>,
    /// Where the data section starts in `buf`.
    data_at: usize,
    /// Length of the data section.
    data_len: usize,
}

impl ParsedContainer {
    /// Parses borrowed container bytes: a copy of them through
    /// [`from_vec`](Self::from_vec).
    pub fn parse(buf: &[u8]) -> Result<Self, ContainerError> {
        Self::from_vec(buf.to_vec())
    }

    /// Parses a container object in place, validating structure (not
    /// chunk contents). The buffer is kept; nothing is copied out of it.
    pub fn from_vec(buf: Vec<u8>) -> Result<Self, ContainerError> {
        if buf.len() < HEADER_LEN {
            return Err(if buf.starts_with(CONTAINER_MAGIC) || CONTAINER_MAGIC.starts_with(&buf) {
                ContainerError::Truncated
            } else {
                ContainerError::BadMagic
            });
        }
        if !buf.starts_with(CONTAINER_MAGIC) {
            return Err(ContainerError::BadMagic);
        }
        let mut pos = CONTAINER_MAGIC.len();
        let container_id = u64::from_le_bytes(take(&buf, &mut pos)?);
        let chunk_count = u32::from_le_bytes(take(&buf, &mut pos)?) as usize;
        let data_len = u64::from_le_bytes(take(&buf, &mut pos)?) as usize;
        // Each descriptor is at least 13+8 bytes.
        if chunk_count.saturating_mul(13) > buf.len() {
            return Err(ContainerError::Truncated);
        }
        let mut descriptors = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let rest = buf.get(pos..).ok_or(ContainerError::Truncated)?;
            let (fingerprint, used) = Fingerprint::decode(rest).ok_or(ContainerError::BadDescriptor)?;
            pos += used;
            let offset = u32::from_le_bytes(take(&buf, &mut pos)?);
            let len = u32::from_le_bytes(take(&buf, &mut pos)?);
            if (offset as usize).saturating_add(len as usize) > data_len {
                return Err(ContainerError::DescriptorOutOfRange);
            }
            descriptors.push(ChunkDescriptor { fingerprint, offset, len });
        }
        if pos.checked_add(data_len).is_none_or(|end| end > buf.len()) {
            return Err(ContainerError::Truncated);
        }
        Ok(ParsedContainer { container_id, descriptors, buf, data_at: pos, data_len })
    }

    /// The data section (padding stripped).
    #[expect(
        clippy::indexing_slicing,
        reason = "from_vec() checked data_at + data_len <= buf.len()"
    )]
    pub fn data(&self) -> &[u8] {
        &self.buf[self.data_at..self.data_at + self.data_len]
    }

    /// The bytes of the chunk at a descriptor.
    ///
    /// # Panics
    ///
    /// If `d` is not one of this container's [`descriptors`](Self::descriptors).
    #[expect(
        clippy::indexing_slicing,
        reason = "from_vec() validated offset + len <= data_len for every descriptor it returned"
    )]
    pub fn chunk_bytes(&self, d: &ChunkDescriptor) -> &[u8] {
        &self.data()[d.offset as usize..(d.offset + d.len) as usize]
    }

    /// Finds a chunk by fingerprint and returns its bytes.
    pub fn find(&self, fp: &Fingerprint) -> Result<&[u8], ContainerError> {
        self.descriptors
            .iter()
            .find(|d| d.fingerprint == *fp)
            .map(|d| self.chunk_bytes(d))
            .ok_or(ContainerError::ChunkNotFound)
    }

    /// Builds an `(offset, fingerprint) → descriptor` lookup table so
    /// restore can resolve chunk references in O(1) instead of scanning
    /// the descriptor table per chunk. Keyed on the pair because a
    /// duplicate chunk may legitimately appear at several offsets.
    pub fn descriptor_map(&self) -> HashMap<(u32, Fingerprint), ChunkDescriptor> {
        self.descriptors.iter().map(|d| ((d.offset, d.fingerprint), *d)).collect()
    }

    /// Recomputes every chunk's fingerprint, returning the first corrupt
    /// chunk found. Used for failure-injection tests and restore-time
    /// integrity checking.
    pub fn verify(&self) -> Result<(), ContainerError> {
        for d in &self.descriptors {
            let recomputed =
                Fingerprint::compute(d.fingerprint.algorithm(), self.chunk_bytes(d));
            if recomputed != d.fingerprint {
                return Err(ContainerError::ChunkCorrupt(d.fingerprint));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn build_sample(pad: Option<usize>) -> (Vec<u8>, Vec<ChunkDescriptor>, Vec<u8>) {
        let chunks: Vec<Vec<u8>> = vec![b"first chunk".to_vec(), vec![7u8; 300], b"z".to_vec()];
        let mut data = Vec::new();
        let mut descriptors = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            let algo = match i % 3 {
                0 => HashAlgorithm::Sha1,
                1 => HashAlgorithm::Md5,
                _ => HashAlgorithm::Rabin96,
            };
            descriptors.push(ChunkDescriptor {
                fingerprint: Fingerprint::compute(algo, c),
                offset: data.len() as u32,
                len: c.len() as u32,
            });
            data.extend_from_slice(c);
        }
        let encoded = encode_container(42, &descriptors, &data, pad);
        (encoded, descriptors, data)
    }

    #[test]
    fn round_trip_unpadded() {
        let (encoded, descriptors, data) = build_sample(None);
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        assert_eq!(parsed.container_id, 42);
        assert_eq!(parsed.descriptors, descriptors);
        assert_eq!(parsed.data(), data);
        parsed.verify().unwrap();
    }

    #[test]
    fn round_trip_padded() {
        let (encoded, descriptors, _) = build_sample(Some(4096));
        assert_eq!(encoded.len(), 4096, "padded to fixed size");
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        assert_eq!(parsed.descriptors.len(), descriptors.len());
        parsed.verify().unwrap();
    }

    #[test]
    fn find_by_fingerprint() {
        let (encoded, descriptors, _) = build_sample(None);
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        assert_eq!(parsed.find(&descriptors[0].fingerprint).unwrap(), b"first chunk");
        let absent = Fingerprint::compute(HashAlgorithm::Sha1, b"not here");
        assert_eq!(parsed.find(&absent), Err(ContainerError::ChunkNotFound));
    }

    #[test]
    fn descriptor_map_covers_every_descriptor() {
        let (encoded, descriptors, _) = build_sample(None);
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        let map = parsed.descriptor_map();
        assert_eq!(map.len(), descriptors.len());
        for d in &descriptors {
            assert_eq!(map[&(d.offset, d.fingerprint)], *d);
        }
        assert!(!map.contains_key(&(999, descriptors[0].fingerprint)));
    }

    #[test]
    fn corruption_detected() {
        let (mut encoded, _, _) = build_sample(None);
        // Flip a byte inside the data section (after header+descriptors).
        let n = encoded.len();
        encoded[n - 5] ^= 0x01;
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        assert!(matches!(parsed.verify(), Err(ContainerError::ChunkCorrupt(_))));
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        let (encoded, _, _) = build_sample(None);
        for n in 0..encoded.len() {
            assert!(ParsedContainer::parse(&encoded[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut encoded, _, _) = build_sample(None);
        encoded[0] = b'X';
        assert_eq!(ParsedContainer::parse(&encoded), Err(ContainerError::BadMagic));
    }

    #[test]
    fn descriptor_out_of_range_rejected() {
        let d = ChunkDescriptor {
            fingerprint: Fingerprint::compute(HashAlgorithm::Md5, b"x"),
            offset: 100,
            len: 100,
        };
        // data section only 10 bytes but descriptor claims 100..200.
        let encoded = encode_container(1, &[d], &[0u8; 10], None);
        assert_eq!(
            ParsedContainer::parse(&encoded),
            Err(ContainerError::DescriptorOutOfRange)
        );
    }

    #[test]
    fn empty_container() {
        let encoded = encode_container(9, &[], &[], Some(128));
        assert_eq!(encoded.len(), 128);
        let parsed = ParsedContainer::parse(&encoded).unwrap();
        assert!(parsed.descriptors.is_empty());
        assert!(parsed.data().is_empty());
        parsed.verify().unwrap();
    }
}

//! Binary snapshot codec for index synchronisation.
//!
//! The paper (§III.E): "a periodical data synchronization scheme is also
//! proposed in AA-Dedupe to backup the application-aware index in the cloud
//! storage to protect the data integrity of the PC backup datasets." This
//! module provides the snapshot format those syncs upload, and its decoder.
//! Only the application-aware index has a snapshot — no baseline syncs one.
//! The engine's recovery validates the newest snapshot, then installs what
//! the cloud's session manifests say, which are the index's durable form.
//! An entry is its fingerprint and placement and nothing else, so an index
//! no session changed encodes to the same bytes again.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "AAIDX\x02"                    6 bytes
//! npart   u32                            partition count
//! per partition:
//!   tag     u8                           AppType tag
//!   count   u64                          entry count
//!   per entry:
//!     fingerprint                        1 + digest_len bytes
//!     len, container                     u64, u64
//!     offset                             u32
//! ```

use crate::{AppAwareIndex, ChunkEntry};
use aadedupe_filetype::AppType;
use aadedupe_hashing::Fingerprint;
use std::fmt;

const MAGIC: &[u8; 6] = b"AAIDX\x02";

/// Snapshot decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing/incorrect magic header.
    BadMagic,
    /// Input ended before the structure was complete.
    Truncated,
    /// An unknown application-type tag was encountered.
    BadAppTag(u8),
    /// A fingerprint failed to decode.
    BadFingerprint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad index snapshot magic"),
            CodecError::Truncated => write!(f, "truncated index snapshot"),
            CodecError::BadAppTag(t) => write!(f, "unknown application tag {t}"),
            CodecError::BadFingerprint => write!(f, "undecodable fingerprint"),
        }
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        // aalint: allow(panic-path) -- guarded by the buf.len() - pos < n check above
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(|_| CodecError::Truncated)?))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?))
    }

    fn fingerprint(&mut self) -> Result<Fingerprint, CodecError> {
        // aalint: allow(panic-path) -- pos only advances through bounds-checked take() and decode()'s consumed count
        let rest = &self.buf[self.pos..];
        let (fp, used) = Fingerprint::decode(rest).ok_or(CodecError::BadFingerprint)?;
        self.pos += used;
        Ok(fp)
    }
}

fn encode_entries(out: &mut Vec<u8>, entries: &[(Fingerprint, ChunkEntry)]) {
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (fp, e) in entries {
        fp.encode(out);
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.container.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
    }
}

fn decode_entries(r: &mut Reader<'_>) -> Result<Vec<(Fingerprint, ChunkEntry)>, CodecError> {
    let count = r.u64()? as usize;
    // Guard against absurd counts from corrupt headers: each entry needs at
    // least 13 + 20 bytes.
    if count.saturating_mul(13) > r.buf.len() {
        return Err(CodecError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let fp = r.fingerprint()?;
        let len = r.u64()?;
        let container = r.u64()?;
        let offset = r.u32()?;
        entries.push((fp, ChunkEntry { len, container, offset }));
    }
    Ok(entries)
}

/// Serialises an application-aware index. Partition dumps are sorted by
/// fingerprint so snapshots are byte-deterministic.
pub fn encode_app_aware(index: &AppAwareIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(AppType::ALL.len() as u32).to_le_bytes());
    for (app, partition) in index.partitions() {
        out.push(app.tag());
        let mut entries = partition.dump();
        entries.sort_by(|a, b| a.0.digest().cmp(b.0.digest()));
        encode_entries(&mut out, &entries);
    }
    out
}

/// Rebuilds an application-aware index from a snapshot.
pub fn decode_app_aware(
    buf: &[u8],
    ram_per_partition: usize,
) -> Result<AppAwareIndex, CodecError> {
    let index = AppAwareIndex::new(ram_per_partition);
    decode_app_aware_into(buf, &index)?;
    Ok(index)
}

/// Decodes a snapshot into a caller-constructed index, replacing each
/// partition's contents ([`IndexPartition::reconcile`](crate::IndexPartition::reconcile))
/// — so the result keeps whatever storage mode (RAM-resident or
/// disk-backed) the caller built it with.
pub fn decode_app_aware_into(buf: &[u8], index: &AppAwareIndex) -> Result<(), CodecError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(6)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let npart = r.u32()? as usize;
    for _ in 0..npart {
        let tag = r.u8()?;
        let app = AppType::from_tag(tag).ok_or(CodecError::BadAppTag(tag))?;
        let entries = decode_entries(&mut r)?;
        index.partition(app).reconcile(entries);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(n: u64, algo: HashAlgorithm) -> Fingerprint {
        Fingerprint::compute(algo, &n.to_le_bytes())
    }

    fn populated() -> AppAwareIndex {
        let idx = AppAwareIndex::new(1000);
        for i in 0..100u64 {
            idx.insert(AppType::Doc, fp(i, HashAlgorithm::Sha1), ChunkEntry::new(i, i, i as u32));
            idx.insert(AppType::Avi, fp(i, HashAlgorithm::Rabin96), ChunkEntry::new(i * 2, i, 0));
            idx.insert(AppType::Vmdk, fp(i, HashAlgorithm::Md5), ChunkEntry::new(i * 3, i, 9));
        }
        idx
    }

    #[test]
    fn app_aware_round_trip() {
        let idx = populated();
        let snap = encode_app_aware(&idx);
        let back = decode_app_aware(&snap, 1000).expect("decodes");
        assert_eq!(back.len(), idx.len());
        for i in 0..100u64 {
            let e = back
                .lookup(AppType::Doc, &fp(i, HashAlgorithm::Sha1))
                .expect("doc entry");
            assert_eq!(e.len, i);
            assert!(back.lookup(AppType::Avi, &fp(i, HashAlgorithm::Rabin96)).is_some());
            assert!(back.lookup(AppType::Vmdk, &fp(i, HashAlgorithm::Md5)).is_some());
            // Cross-partition isolation survives the round trip.
            assert!(back.lookup(AppType::Txt, &fp(i, HashAlgorithm::Sha1)).is_none());
        }
    }

    #[test]
    fn snapshots_are_deterministic() {
        let a = encode_app_aware(&populated());
        let b = encode_app_aware(&populated());
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut snap = encode_app_aware(&populated());
        snap[0] ^= 0xff;
        assert_eq!(decode_app_aware(&snap, 10).err(), Some(CodecError::BadMagic));
        assert_eq!(decode_app_aware(b"", 10).err(), Some(CodecError::Truncated));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let snap = encode_app_aware(&populated());
        // Any strict prefix must fail (never panic, never succeed).
        for n in (0..snap.len()).step_by(97) {
            assert!(decode_app_aware(&snap[..n], 10).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn rejects_unknown_app_tag() {
        let idx = AppAwareIndex::new(10);
        idx.insert(AppType::Avi, fp(1, HashAlgorithm::Rabin96), ChunkEntry::new(1, 0, 0));
        let mut snap = encode_app_aware(&idx);
        // First partition tag byte sits right after magic+npart.
        snap[10] = 99;
        assert_eq!(decode_app_aware(&snap, 10).err(), Some(CodecError::BadAppTag(99)));
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = AppAwareIndex::new(10);
        let back = decode_app_aware(&encode_app_aware(&idx), 10).unwrap();
        assert!(back.is_empty());
    }
}

//! Binary snapshot format for index synchronisation.
//!
//! The paper (§III.E): "a periodical data synchronization scheme is also
//! proposed in AA-Dedupe to backup the application-aware index in the cloud
//! storage to protect the data integrity of the PC backup datasets." This
//! module encodes the snapshot that sync uploads after every session. Only
//! the application-aware index has one — no baseline syncs an index.
//!
//! The format is write-only: nothing decodes it. The cloud's committed
//! session manifests are the index's durable form, and a client that lost
//! its local state rebuilds the index from them (`AaDedupe::open`). An
//! entry is its fingerprint and placement and nothing else, so an index no
//! session changed encodes to the same bytes again.
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

use crate::AppAwareIndex;
use aadedupe_filetype::AppType;

const MAGIC: &[u8; 6] = b"AAIDX\x02";

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
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (fp, e) in entries {
            fp.encode(&mut out);
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.container.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkEntry;
    use aadedupe_hashing::{Fingerprint, HashAlgorithm};

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
    fn snapshots_are_deterministic() {
        let a = encode_app_aware(&populated());
        let b = encode_app_aware(&populated());
        assert_eq!(a, b);
    }

    #[test]
    fn golden_layout_one_entry_per_algorithm() {
        // The layout table above, byte for byte: one entry per hash
        // algorithm, each field at its extreme somewhere.
        let idx = AppAwareIndex::new(16);
        let rabin = Fingerprint::rabin96([0xaa; 12]);
        let md5 = Fingerprint::md5([0x55; 16]);
        let sha1 = Fingerprint::sha1([0x11; 20]);
        idx.insert(AppType::Avi, rabin, ChunkEntry::new(u64::MAX, 0x0102_0304_0506_0708, u32::MAX));
        idx.insert(AppType::Pdf, md5, ChunkEntry::new(8192, u64::MAX, 0));
        idx.insert(AppType::Doc, sha1, ChunkEntry::new(0, 0, 4096));

        let entry = |tag: u8| -> Vec<u8> {
            match tag {
                1 => [&[1u8][..], &[0xaa; 12], &[0xff; 8], &[8, 7, 6, 5, 4, 3, 2, 1], &[0xff; 4]]
                    .concat(),
                7 => [&[2u8][..], &[0x55; 16], &[0, 0x20, 0, 0, 0, 0, 0, 0], &[0xff; 8], &[0; 4]]
                    .concat(),
                10 => [&[3u8][..], &[0x11; 20], &[0; 8], &[0; 8], &[0, 0x10, 0, 0]].concat(),
                _ => Vec::new(),
            }
        };
        let mut want = b"AAIDX\x02".to_vec();
        want.extend([13, 0, 0, 0]);
        for tag in 1..=13u8 {
            let entry = entry(tag);
            want.push(tag);
            want.extend([u8::from(!entry.is_empty()), 0, 0, 0, 0, 0, 0, 0]);
            want.extend(entry);
        }
        assert_eq!(want.len(), 6 + 4 + 13 * 9 + (1 + 12 + 20) + (1 + 16 + 20) + (1 + 20 + 20));
        assert_eq!(encode_app_aware(&idx), want);
    }
}

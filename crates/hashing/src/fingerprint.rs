//! Uniform chunk-fingerprint type.
//!
//! AA-Dedupe deliberately mixes fingerprint algorithms — 12-byte extended
//! Rabin for whole-file chunks, 16-byte MD5 for static chunks, 20-byte SHA-1
//! for content-defined chunks — so every index and container in the
//! workspace keys on this tagged union rather than a raw digest. The tag is
//! part of equality: an MD5 digest can never alias a Rabin digest even if
//! the bytes matched, which keeps the per-application index spaces disjoint.

use std::fmt;

/// Which hash family produced a [`Fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashAlgorithm {
    /// 12-byte extended Rabin fingerprint (whole-file chunks).
    Rabin96,
    /// 16-byte MD5 (static 8 KiB chunks).
    Md5,
    /// 20-byte SHA-1 (content-defined chunks).
    Sha1,
}

impl HashAlgorithm {
    /// Digest length in bytes.
    pub const fn digest_len(self) -> usize {
        match self {
            HashAlgorithm::Rabin96 => 12,
            HashAlgorithm::Md5 => 16,
            HashAlgorithm::Sha1 => 20,
        }
    }

    /// Stable single-byte tag used in on-disk/on-wire encodings.
    pub const fn tag(self) -> u8 {
        match self {
            HashAlgorithm::Rabin96 => 1,
            HashAlgorithm::Md5 => 2,
            HashAlgorithm::Sha1 => 3,
        }
    }

    /// Inverse of [`HashAlgorithm::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(HashAlgorithm::Rabin96),
            2 => Some(HashAlgorithm::Md5),
            3 => Some(HashAlgorithm::Sha1),
            _ => None,
        }
    }

    /// Human-readable name, as used in harness output.
    pub const fn name(self) -> &'static str {
        match self {
            HashAlgorithm::Rabin96 => "rabin96",
            HashAlgorithm::Md5 => "md5",
            HashAlgorithm::Sha1 => "sha1",
        }
    }
}

impl fmt::Display for HashAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A chunk fingerprint: digest bytes plus the algorithm that produced them.
///
/// Stored inline (no heap allocation); the 20-byte buffer is only partially
/// used by the shorter algorithms and the unused tail is kept zeroed so that
/// derived equality/hashing are correct.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    algo: HashAlgorithm,
    bytes: [u8; 20],
}

impl Fingerprint {
    /// Wraps a 12-byte extended Rabin digest.
    pub fn rabin96(digest: [u8; 12]) -> Self {
        let mut bytes = [0u8; 20];
        bytes[..12].copy_from_slice(&digest);
        Fingerprint {
            algo: HashAlgorithm::Rabin96,
            bytes,
        }
    }

    /// Wraps a 16-byte MD5 digest.
    pub fn md5(digest: [u8; 16]) -> Self {
        let mut bytes = [0u8; 20];
        bytes[..16].copy_from_slice(&digest);
        Fingerprint {
            algo: HashAlgorithm::Md5,
            bytes,
        }
    }

    /// Wraps a 20-byte SHA-1 digest.
    pub fn sha1(digest: [u8; 20]) -> Self {
        Fingerprint {
            algo: HashAlgorithm::Sha1,
            bytes: digest,
        }
    }

    /// Fingerprints `data` with the given algorithm.
    pub fn compute(algo: HashAlgorithm, data: &[u8]) -> Self {
        match algo {
            HashAlgorithm::Rabin96 => Fingerprint::rabin96(crate::rabin96(data)),
            HashAlgorithm::Md5 => Fingerprint::md5(crate::md5(data)),
            HashAlgorithm::Sha1 => Fingerprint::sha1(crate::sha1(data)),
        }
    }

    /// Fingerprints a batch: `compute_many(a, cs)[i] == compute(a, cs[i])`.
    ///
    /// The one place that knows MD5 goes faster several messages at a time
    /// ([`crate::md5_many`]). SHA-1 and Rabin-96 have no wide form.
    pub fn compute_many(algo: HashAlgorithm, chunks: &[&[u8]]) -> Vec<Self> {
        if algo == HashAlgorithm::Md5 {
            return crate::md5_many(chunks).iter().copied().map(Fingerprint::md5).collect();
        }
        chunks.iter().map(|c| Fingerprint::compute(algo, c)).collect()
    }

    /// The producing algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.algo
    }

    /// Digest bytes (length = `self.algorithm().digest_len()`).
    #[expect(
        clippy::indexing_slicing,
        reason = "digest_len() <= 20 = bytes.len() for every HashAlgorithm variant"
    )]
    pub fn digest(&self) -> &[u8] {
        &self.bytes[..self.algo.digest_len()]
    }

    /// First 8 digest bytes as a `u64` — a cheap bucket key for sharded
    /// index structures.
    pub fn prefix64(&self) -> u64 {
        let mut first = [0u8; 8];
        first.copy_from_slice(&self.bytes[..8]);
        u64::from_le_bytes(first)
    }

    /// Serialises to `1 + digest_len` bytes: algorithm tag then digest.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.algo.tag());
        out.extend_from_slice(self.digest());
    }

    /// Inverse of [`Fingerprint::encode`]. Returns the fingerprint and the
    /// number of bytes consumed.
    pub fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let (&tag, rest) = input.split_first()?;
        let algo = HashAlgorithm::from_tag(tag)?;
        let len = algo.digest_len();
        let mut bytes = [0u8; 20];
        bytes.get_mut(..len)?.copy_from_slice(rest.get(..len)?);
        Some((Fingerprint { algo, bytes }, 1 + len))
    }

    /// Hexadecimal digest string.
    pub fn to_hex(&self) -> String {
        crate::to_hex(self.digest())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.algo, self.to_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.algo, self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths() {
        assert_eq!(HashAlgorithm::Rabin96.digest_len(), 12);
        assert_eq!(HashAlgorithm::Md5.digest_len(), 16);
        assert_eq!(HashAlgorithm::Sha1.digest_len(), 20);
    }

    #[test]
    fn tag_round_trip() {
        for algo in [
            HashAlgorithm::Rabin96,
            HashAlgorithm::Md5,
            HashAlgorithm::Sha1,
        ] {
            assert_eq!(HashAlgorithm::from_tag(algo.tag()), Some(algo));
        }
        assert_eq!(HashAlgorithm::from_tag(0), None);
        assert_eq!(HashAlgorithm::from_tag(4), None);
    }

    #[test]
    fn algorithm_is_part_of_identity() {
        // Same leading bytes, different algorithms => different fingerprints.
        let data = b"identical input";
        let a = Fingerprint::compute(HashAlgorithm::Md5, data);
        let b = Fingerprint::compute(HashAlgorithm::Sha1, data);
        assert_ne!(a, b);

        let m = Fingerprint::md5([7u8; 16]);
        let mut s20 = [0u8; 20];
        s20[..16].copy_from_slice(&[7u8; 16]);
        let s = Fingerprint::sha1(s20);
        assert_ne!(m, s);
    }

    #[test]
    fn encode_decode_round_trip() {
        for algo in [
            HashAlgorithm::Rabin96,
            HashAlgorithm::Md5,
            HashAlgorithm::Sha1,
        ] {
            let fp = Fingerprint::compute(algo, b"round trip me");
            let mut buf = Vec::new();
            fp.encode(&mut buf);
            assert_eq!(buf.len(), 1 + algo.digest_len());
            let (decoded, used) = Fingerprint::decode(&buf).expect("decodes");
            assert_eq!(decoded, fp);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let fp = Fingerprint::compute(HashAlgorithm::Sha1, b"x");
        let mut buf = Vec::new();
        fp.encode(&mut buf);
        for n in 0..buf.len() {
            assert!(Fingerprint::decode(&buf[..n]).is_none(), "truncated {n}");
        }
        assert!(Fingerprint::decode(&[0xFF, 1, 2, 3]).is_none());
        assert!(Fingerprint::decode(&[]).is_none());
    }

    #[test]
    fn compute_matches_primitives() {
        let data = b"hello fingerprints";
        assert_eq!(
            Fingerprint::compute(HashAlgorithm::Md5, data).digest(),
            &crate::md5(data)
        );
        assert_eq!(
            Fingerprint::compute(HashAlgorithm::Sha1, data).digest(),
            &crate::sha1(data)
        );
        assert_eq!(
            Fingerprint::compute(HashAlgorithm::Rabin96, data).digest(),
            &crate::rabin96(data)
        );
    }

    #[test]
    fn display_formats() {
        let fp = Fingerprint::md5([0xab; 16]);
        let s = format!("{fp}");
        assert!(s.starts_with("md5:abab"));
        assert_eq!(fp.to_hex().len(), 32);
    }

    #[test]
    fn prefix64_is_stable() {
        let fp = Fingerprint::compute(HashAlgorithm::Sha1, b"prefix");
        assert_eq!(fp.prefix64(), fp.prefix64());
        let other = Fingerprint::compute(HashAlgorithm::Sha1, b"prefix2");
        assert_ne!(fp.prefix64(), other.prefix64());
    }
}

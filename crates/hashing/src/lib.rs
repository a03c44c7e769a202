#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Hash substrate for AA-Dedupe.
//!
//! The AA-Dedupe paper (CLUSTER 2011) matches hash strength to chunk
//! granularity to minimise computational overhead (its Observation 4):
//!
//! * **Whole-file chunks** (compressed applications) are fingerprinted with
//!   an *extended 12-byte Rabin hash* — the number of whole-file chunks in a
//!   personal dataset is so small that a weak hash already has a collision
//!   probability far below the hardware error rate.
//! * **Static 8 KiB chunks** (static uncompressed applications, VM images)
//!   use a *16-byte MD5* fingerprint.
//! * **Content-defined chunks** (dynamic uncompressed applications) use a
//!   *20-byte SHA-1* fingerprint: boundary detection dominates CDC cost, so
//!   the stronger hash is nearly free.
//!
//! This crate implements all three hash families from scratch:
//!
//! * [`Md5`] — RFC 1321. One straight-line `compress`, generic over a lane
//!   count: one lane for the streaming hasher, four for [`md5_many`], which
//!   hashes a list of messages of any lengths at ≈ 2.5× the single-stream
//!   rate, each lane taking the next message as soon as its own ends.
//! * [`Sha1`] — FIPS 180-1. One straight-line scalar `compress` on a
//!   16-word rolling schedule; lanes were measured and lose, so it has none.
//! * [`rabin`] — Rabin fingerprinting over GF(2): a one-shot polynomial
//!   fingerprint ([`rabin::RabinFingerprinter`]), the 96-bit extended
//!   variant used for whole files ([`rabin::extended_fingerprint`]: its two
//!   31-bit residues kept as one residue modulo their product, 8 bytes a
//!   step in two independent chains), and the rolling windowed hash that
//!   drives content-defined chunking ([`rabin::RollingHash`]).
//!
//! On a superscalar core the paper's single-stream ordering (MD5 cheaper
//! than SHA-1) inverts: MD5's steps form one serial dependency chain, SHA-1's
//! schedule and five-word state expose parallel work. What the policy needs
//! — static chunks get the cheapest strong hash — holds where the engine
//! hashes: in batches that span files, through
//! [`Fingerprint::compute_many`], whose MD5 path is four chunks wide. The same overlap — four windows over one table set,
//! [`rabin::RollingHash::rolled`] — puts CDC's boundary scan ahead of the
//! SHA-1 it feeds: "detection dominates" described a byte-serial scan. The
//! textbook kernels the crate used to ship live on in `tests/textbook/` as
//! the differential oracle for all of this.
//!
//! The uniform [`Fingerprint`] type carries any of the three digests plus
//! its algorithm tag, and is the key type of every chunk index in the
//! workspace.

mod block;
pub mod fingerprint;
pub mod md5;
pub mod rabin;
pub mod sha1;

pub use fingerprint::{Fingerprint, HashAlgorithm};
pub use md5::{md5_many, Md5};
pub use sha1::Sha1;

/// Convenience: MD5 digest of a byte slice.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Convenience: SHA-1 digest of a byte slice.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Convenience: 96-bit (12-byte) extended Rabin fingerprint of a byte slice.
pub fn rabin96(data: &[u8]) -> [u8; 12] {
    rabin::extended_fingerprint(data)
}

/// Lowercase hexadecimal rendering of a digest.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        for nibble in [b >> 4, b & 0xf] {
            s.push(char::from(if nibble < 10 { b'0' + nibble } else { b'a' + nibble - 10 }));
        }
    }
    s
}

/// `table[byte]`: the lookup into the 256-entry byte tables (the Rabin pop
/// table, the extended fingerprint's `x^64` / `x^128` tables, the gear
/// table). The index is a `u8`, so it cannot leave the table.
#[inline(always)]
pub fn byte_entry<T: Copy>(table: &[T; 256], byte: u8) -> T {
    #[expect(clippy::indexing_slicing, reason = "a u8 is < 256 = table.len()")]
    table[usize::from(byte)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0x0f, 0xf0, 0xff]), "000ff0ff");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn convenience_wrappers_match_streaming() {
        let data = b"the quick brown fox";
        let mut m = Md5::new();
        m.update(&data[..9]);
        m.update(&data[9..]);
        assert_eq!(md5(data), m.finalize());

        let mut s = Sha1::new();
        s.update(&data[..4]);
        s.update(&data[4..]);
        assert_eq!(sha1(data), s.finalize());
    }
}

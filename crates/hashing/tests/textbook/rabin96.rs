//! Schoolbook extended Rabin hash: the 12-byte whole-file fingerprint
//! written as its definition — each residue reduced by long division after
//! every byte — with the word mix copied from the kernel. Slow and
//! obviously the format; the differential oracle for
//! `aadedupe_hashing::rabin96`.

use aadedupe_hashing::rabin::{gf2, POLY_31, POLY_31B};

/// `fa ‖ fb ‖ aux`, each little-endian: `fa` and `fb` are the message,
/// behind an implicit leading `0x01` byte, modulo [`POLY_31`] and
/// [`POLY_31B`]; `aux` is a multiplicative mix of the 4-byte words and the
/// tail bytes, seeded with the length.
pub fn rabin96(data: &[u8]) -> [u8; 12] {
    let (mut fa, mut fb) = (1u64, 1u64);
    for &b in data {
        fa = gf2::pmod((fa << 8) | u64::from(b), POLY_31);
        fb = gf2::pmod((fb << 8) | u64::from(b), POLY_31B);
    }

    let mut aux = 0x9E3779B97F4A7C15u64 ^ (data.len() as u64);
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        let x = {
            let mut word = [0u8; 4];
            word.copy_from_slice(w);
            u32::from_be_bytes(word)
        };
        aux = (aux ^ x as u64).wrapping_mul(0xFF51AFD7ED558CCD).rotate_left(29);
    }
    for &b in words.remainder() {
        aux = (aux ^ b as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
    }
    aux ^= aux >> 33;

    let mut out = [0u8; 12];
    out[..4].copy_from_slice(&(fa as u32).to_le_bytes());
    out[4..8].copy_from_slice(&(fb as u32).to_le_bytes());
    out[8..12].copy_from_slice(&(aux as u32).to_le_bytes());
    out
}

//! SHA-1 message digest (FIPS 180-1), implemented from scratch.
//!
//! AA-Dedupe uses the 20-byte SHA-1 digest as the chunk fingerprint for
//! *dynamic uncompressed* application data deduplicated with content-defined
//! chunking (CDC). Because most of CDC's computational cost is spent on
//! Rabin-window boundary detection rather than fingerprinting, the paper
//! keeps the strong hash here "with only a slight increase in overhead".
//!
//! One scalar `compress`: SHA-1's message schedule and five-word state
//! already give a superscalar core independent work within one block, and
//! running several messages in `[u32; N]` lanes (as [`mod@crate::md5`] does)
//! measured no faster at two lanes and slower at four and eight.

use crate::block::BlockBuffer;

/// Streaming SHA-1 hasher.
///
/// ```
/// use aadedupe_hashing::{Sha1, to_hex};
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(to_hex(&h.finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    block: BlockBuffer,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the FIPS 180-1 initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            block: BlockBuffer::new(),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.block.update(data, |block| compress(&mut self.state, block));
    }

    /// Completes the hash, returning the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        self.block.finish(u64::to_be_bytes, |block| compress(&mut self.state, block));
        let mut out = [0u8; 20];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The FIPS 180-1 §7 block transform, on the 16-word rolling schedule of
/// its §8 ("alternate method"). The only SHA-1 round code in the crate.
#[inline(always)]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    // W(t) for t >= 16, written over W(t - 16), which no later step reads.
    macro_rules! next {
        ($t:literal) => {{
            w[$t & 15] = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15]).rotate_left(1);
            w[$t & 15]
        }};
    }
    macro_rules! ch { ($b:expr, $c:expr, $d:expr) => { $d ^ ($b & ($c ^ $d)) } }
    macro_rules! parity { ($b:expr, $c:expr, $d:expr) => { $b ^ $c ^ $d } }
    macro_rules! maj { ($b:expr, $c:expr, $d:expr) => { ($b & $c) | ($d & ($b | $c)) } }
    // e += (a <<< 5) + f(b, c, d) + k + W(t); b <<<= 30.
    macro_rules! step {
        ($f:ident, $k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $w:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f!($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add($w);
            $b = $b.rotate_left(30);
        };
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // Five steps bring the five names back round to where they started.
    macro_rules! five {
        ($f:ident, $k:expr, $w0:expr, $w1:expr, $w2:expr, $w3:expr, $w4:expr) => {
            step!($f, $k, a, b, c, d, e, $w0);
            step!($f, $k, e, a, b, c, d, $w1);
            step!($f, $k, d, e, a, b, c, $w2);
            step!($f, $k, c, d, e, a, b, $w3);
            step!($f, $k, b, c, d, e, a, $w4);
        };
    }

    five!(ch, 0x5a827999, w[0], w[1], w[2], w[3], w[4]);
    five!(ch, 0x5a827999, w[5], w[6], w[7], w[8], w[9]);
    five!(ch, 0x5a827999, w[10], w[11], w[12], w[13], w[14]);
    five!(ch, 0x5a827999, w[15], next!(16), next!(17), next!(18), next!(19));

    five!(parity, 0x6ed9eba1, next!(20), next!(21), next!(22), next!(23), next!(24));
    five!(parity, 0x6ed9eba1, next!(25), next!(26), next!(27), next!(28), next!(29));
    five!(parity, 0x6ed9eba1, next!(30), next!(31), next!(32), next!(33), next!(34));
    five!(parity, 0x6ed9eba1, next!(35), next!(36), next!(37), next!(38), next!(39));

    five!(maj, 0x8f1bbcdc, next!(40), next!(41), next!(42), next!(43), next!(44));
    five!(maj, 0x8f1bbcdc, next!(45), next!(46), next!(47), next!(48), next!(49));
    five!(maj, 0x8f1bbcdc, next!(50), next!(51), next!(52), next!(53), next!(54));
    five!(maj, 0x8f1bbcdc, next!(55), next!(56), next!(57), next!(58), next!(59));

    five!(parity, 0xca62c1d6, next!(60), next!(61), next!(62), next!(63), next!(64));
    five!(parity, 0xca62c1d6, next!(65), next!(66), next!(67), next!(68), next!(69));
    five!(parity, 0xca62c1d6, next!(70), next!(71), next!(72), next!(73), next!(74));
    five!(parity, 0xca62c1d6, next!(75), next!(76), next!(77), next!(78), next!(79));

    for (word, add) in state.iter_mut().zip([a, b, c, d, e]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    fn hex_sha1(data: &[u8]) -> String {
        let mut h = Sha1::new();
        h.update(data);
        to_hex(&h.finalize())
    }

    /// FIPS 180-1 appendix A/B vectors plus well-known extras.
    #[test]
    fn fips_vectors() {
        assert_eq!(hex_sha1(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex_sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex_sha1(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex_sha1(b"The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    /// FIPS 180-1 appendix C: one million 'a's.
    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex_sha1(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).flat_map(u32::to_le_bytes).collect();
        for split in [1usize, 13, 63, 64, 65, 255, 8192] {
            let mut h = Sha1::new();
            for piece in data.chunks(split) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), crate::sha1(&data), "split={split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        for n in 54..=130usize {
            let data = vec![0x5cu8; n];
            let d1 = crate::sha1(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len={n}");
        }
    }
}

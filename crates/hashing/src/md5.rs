//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! AA-Dedupe uses the 16-byte MD5 digest as the chunk fingerprint for
//! *static uncompressed* application data deduplicated with static chunking
//! (SC). MD5 is no longer collision-resistant against adversaries, but the
//! paper's threat model is accidental collision in a TB-scale personal
//! dataset, where the collision probability is many orders of magnitude
//! below the hardware error rate.
//!
//! MD5's 64 steps are one serial dependency chain, so a single message
//! cannot go faster than that chain (≈ 4.4 cycles/byte) while most of a
//! superscalar core's issue slots sit idle. Independent messages fill them:
//! `compress` is generic over a lane count `N` and keeps `N` states side
//! by side as `[u32; N]` words — `N` independent chains for the compiler
//! to interleave, or to vectorise where the target has vector rotates.
//! [`Md5`] runs it at `N = 1`, [`md5_many`] at `N = 4`, refilling a lane
//! with the next message as soon as its message ends, so a list of any
//! lengths keeps all four busy: measured ≈ 2.4–2.7× one stream on the
//! default x86-64 target, on equal and on mixed lengths alike (two lanes
//! leave slots idle, eight spill the sixteen general registers;
//! `examples/hash_rates.rs`).

use crate::block::{pad, BlockBuffer};

/// RFC 1321 §3.3 initial state.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Streaming MD5 hasher.
///
/// ```
/// use aadedupe_hashing::{Md5, to_hex};
/// let mut h = Md5::new();
/// h.update(b"abc");
/// assert_eq!(to_hex(&h.finalize()), "900150983cd24fb0d6963f7d28e17f72");
/// ```
#[derive(Clone)]
pub struct Md5 {
    state: [[u32; 1]; 4],
    block: BlockBuffer,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 { state: INIT.map(|w| [w]), block: BlockBuffer::new() }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.block.update(data, |block| compress(&mut self.state, [block]));
    }

    /// Completes the hash, returning the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        self.block.finish(u64::to_le_bytes, |block| compress(&mut self.state, [block]));
        digest(self.state.map(|[word]| word))
    }
}

/// MD5 of every message: `md5_many(msgs)[i] == md5(msgs[i])`, the
/// messages sharing the four lanes of `compress::<4>` whatever their
/// lengths.
///
/// A lane holds one message: its whole blocks, read from the caller's
/// slice, then its one or two padded tail blocks. The lanes step together.
/// When a lane's message ends, its digest is written out, the lane's state
/// words go back to the initial state and the next queued message moves
/// in. A lane the queue can no longer fill compresses a zero block whose
/// result is discarded, and the last message, alone with the queue empty,
/// finishes in `compress::<1>`.
pub fn md5_many(msgs: &[&[u8]]) -> Vec<[u8; 16]> {
    let mut out = vec![[0u8; 16]; msgs.len()];
    let mut queue = msgs.iter().zip(out.iter_mut()).map(|(msg, out)| Lane::new(msg, out));
    let mut lanes: [Option<Lane>; 4] = std::array::from_fn(|_| queue.next());
    let mut state = INIT.map(|w| [w; 4]);
    // A retiring lane is refilled at once, so while the queue holds a
    // message all four lanes are live.
    while lanes.iter().flatten().count() + queue.len() > 1 {
        let blocks = lanes.each_ref().map(|slot| slot.as_ref().and_then(Lane::block));
        compress(&mut state, blocks.map(|block| block.unwrap_or(&[0; 64])));
        for (lane, slot) in lanes.iter_mut().enumerate() {
            let Some(msg) = slot else { continue };
            msg.advance();
            if msg.block().is_some() {
                continue;
            }
            if let Some(done) = slot.take() {
                *done.out = digest(lane_state(&state, lane));
            }
            *slot = queue.next();
            for (word, init) in state.iter_mut().zip(INIT) {
                if let Some(w) = word.get_mut(lane) {
                    *w = init;
                }
            }
        }
    }
    for (lane, slot) in std::iter::zip(0.., lanes) {
        if let Some(last) = slot {
            last.finish_alone(lane_state(&state, lane).map(|w| [w]));
        }
    }
    out
}

/// One message in a lane of [`md5_many`], and where its digest goes.
struct Lane<'a> {
    /// Whole blocks not yet compressed.
    whole: &'a [[u8; 64]],
    /// The padded tail; `tail[next..]` is still to go. A tail that pads to
    /// one block sits in `tail[1]`, `next` starting there.
    tail: [[u8; 64]; 2],
    next: usize,
    out: &'a mut [u8; 16],
}

impl<'a> Lane<'a> {
    fn new(msg: &'a [u8], out: &'a mut [u8; 16]) -> Self {
        let (whole, rest) = msg.as_chunks::<64>();
        let ([first, second], two) = pad(rest, (msg.len() as u64).wrapping_mul(8).to_le_bytes());
        let (tail, next) = if two { ([first, second], 0) } else { ([second, first], 1) };
        Lane { whole, tail, next, out }
    }

    /// The next block to compress; `None` once the message is through.
    fn block(&self) -> Option<&[u8; 64]> {
        self.whole.first().or_else(|| self.tail.get(self.next))
    }

    /// Steps past the block [`Lane::block`] returned.
    fn advance(&mut self) {
        match self.whole.split_first() {
            Some((_, rest)) => self.whole = rest,
            None => self.next += 1,
        }
    }

    /// Compresses the rest of the message one lane wide from `state`.
    fn finish_alone(mut self, mut state: [[u32; 1]; 4]) {
        while let Some(block) = self.block() {
            compress(&mut state, [block]);
            self.advance();
        }
        *self.out = digest(state.map(|[w]| w));
    }
}

/// Lane `lane`'s four state words.
fn lane_state(state: &[[u32; 4]; 4], lane: usize) -> [u32; 4] {
    state.map(|word| word.get(lane).copied().unwrap_or_default())
}

fn digest(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The RFC 1321 §3.4 block transform over `N` independent
/// (state, block) pairs, lane `l` of every word belonging to pair `l`.
/// The only MD5 round code in the crate.
#[inline(always)]
fn compress<const N: usize>(state: &mut [[u32; N]; 4], blocks: [&[u8; 64]; N]) {
    // m[w][l]: little-endian word w of lane l's block.
    let mut m = [[0u32; N]; 16];
    for (lane, block) in blocks.iter().enumerate() {
        for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
            // `lane` enumerates a [_; N] and `word` is a [u32; N]: always Some.
            if let Some(slot) = word.get_mut(lane) {
                *slot = u32::from_le_bytes(*bytes);
            }
        }
    }
    macro_rules! ff { ($b:expr, $c:expr, $d:expr) => { $d ^ ($b & ($c ^ $d)) } }
    macro_rules! gg { ($b:expr, $c:expr, $d:expr) => { $c ^ ($d & ($b ^ $c)) } }
    macro_rules! hh { ($b:expr, $c:expr, $d:expr) => { $b ^ $c ^ $d } }
    macro_rules! ii { ($b:expr, $c:expr, $d:expr) => { $c ^ ($b | !$d) } }
    // a = b + ((a + f(b, c, d) + m + k) <<< s), in every lane.
    macro_rules! step {
        ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $s:expr, $k:expr) => {
            for (a, (&b, (&c, (&d, &m)))) in
                $a.iter_mut().zip($b.iter().zip($c.iter().zip($d.iter().zip(&$m))))
            {
                *a = a
                    .wrapping_add($f!(b, c, d))
                    .wrapping_add(m)
                    .wrapping_add($k)
                    .rotate_left($s)
                    .wrapping_add(b);
            }
        };
    }
    let [mut a, mut b, mut c, mut d] = *state;

    step!(ff, a, b, c, d, m[ 0],  7, 0xd76aa478); step!(ff, d, a, b, c, m[ 1], 12, 0xe8c7b756);
    step!(ff, c, d, a, b, m[ 2], 17, 0x242070db); step!(ff, b, c, d, a, m[ 3], 22, 0xc1bdceee);
    step!(ff, a, b, c, d, m[ 4],  7, 0xf57c0faf); step!(ff, d, a, b, c, m[ 5], 12, 0x4787c62a);
    step!(ff, c, d, a, b, m[ 6], 17, 0xa8304613); step!(ff, b, c, d, a, m[ 7], 22, 0xfd469501);
    step!(ff, a, b, c, d, m[ 8],  7, 0x698098d8); step!(ff, d, a, b, c, m[ 9], 12, 0x8b44f7af);
    step!(ff, c, d, a, b, m[10], 17, 0xffff5bb1); step!(ff, b, c, d, a, m[11], 22, 0x895cd7be);
    step!(ff, a, b, c, d, m[12],  7, 0x6b901122); step!(ff, d, a, b, c, m[13], 12, 0xfd987193);
    step!(ff, c, d, a, b, m[14], 17, 0xa679438e); step!(ff, b, c, d, a, m[15], 22, 0x49b40821);

    step!(gg, a, b, c, d, m[ 1],  5, 0xf61e2562); step!(gg, d, a, b, c, m[ 6],  9, 0xc040b340);
    step!(gg, c, d, a, b, m[11], 14, 0x265e5a51); step!(gg, b, c, d, a, m[ 0], 20, 0xe9b6c7aa);
    step!(gg, a, b, c, d, m[ 5],  5, 0xd62f105d); step!(gg, d, a, b, c, m[10],  9, 0x02441453);
    step!(gg, c, d, a, b, m[15], 14, 0xd8a1e681); step!(gg, b, c, d, a, m[ 4], 20, 0xe7d3fbc8);
    step!(gg, a, b, c, d, m[ 9],  5, 0x21e1cde6); step!(gg, d, a, b, c, m[14],  9, 0xc33707d6);
    step!(gg, c, d, a, b, m[ 3], 14, 0xf4d50d87); step!(gg, b, c, d, a, m[ 8], 20, 0x455a14ed);
    step!(gg, a, b, c, d, m[13],  5, 0xa9e3e905); step!(gg, d, a, b, c, m[ 2],  9, 0xfcefa3f8);
    step!(gg, c, d, a, b, m[ 7], 14, 0x676f02d9); step!(gg, b, c, d, a, m[12], 20, 0x8d2a4c8a);

    step!(hh, a, b, c, d, m[ 5],  4, 0xfffa3942); step!(hh, d, a, b, c, m[ 8], 11, 0x8771f681);
    step!(hh, c, d, a, b, m[11], 16, 0x6d9d6122); step!(hh, b, c, d, a, m[14], 23, 0xfde5380c);
    step!(hh, a, b, c, d, m[ 1],  4, 0xa4beea44); step!(hh, d, a, b, c, m[ 4], 11, 0x4bdecfa9);
    step!(hh, c, d, a, b, m[ 7], 16, 0xf6bb4b60); step!(hh, b, c, d, a, m[10], 23, 0xbebfbc70);
    step!(hh, a, b, c, d, m[13],  4, 0x289b7ec6); step!(hh, d, a, b, c, m[ 0], 11, 0xeaa127fa);
    step!(hh, c, d, a, b, m[ 3], 16, 0xd4ef3085); step!(hh, b, c, d, a, m[ 6], 23, 0x04881d05);
    step!(hh, a, b, c, d, m[ 9],  4, 0xd9d4d039); step!(hh, d, a, b, c, m[12], 11, 0xe6db99e5);
    step!(hh, c, d, a, b, m[15], 16, 0x1fa27cf8); step!(hh, b, c, d, a, m[ 2], 23, 0xc4ac5665);

    step!(ii, a, b, c, d, m[ 0],  6, 0xf4292244); step!(ii, d, a, b, c, m[ 7], 10, 0x432aff97);
    step!(ii, c, d, a, b, m[14], 15, 0xab9423a7); step!(ii, b, c, d, a, m[ 5], 21, 0xfc93a039);
    step!(ii, a, b, c, d, m[12],  6, 0x655b59c3); step!(ii, d, a, b, c, m[ 3], 10, 0x8f0ccc92);
    step!(ii, c, d, a, b, m[10], 15, 0xffeff47d); step!(ii, b, c, d, a, m[ 1], 21, 0x85845dd1);
    step!(ii, a, b, c, d, m[ 8],  6, 0x6fa87e4f); step!(ii, d, a, b, c, m[15], 10, 0xfe2ce6e0);
    step!(ii, c, d, a, b, m[ 6], 15, 0xa3014314); step!(ii, b, c, d, a, m[13], 21, 0x4e0811a1);
    step!(ii, a, b, c, d, m[ 4],  6, 0xf7537e82); step!(ii, d, a, b, c, m[11], 10, 0xbd3af235);
    step!(ii, c, d, a, b, m[ 2], 15, 0x2ad7d2bb); step!(ii, b, c, d, a, m[ 9], 21, 0xeb86d391);

    for (word, add) in state.iter_mut().zip([a, b, c, d]) {
        for (w, x) in word.iter_mut().zip(add) {
            *w = w.wrapping_add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    fn hex_md5(data: &[u8]) -> String {
        let mut h = Md5::new();
        h.update(data);
        to_hex(&h.finalize())
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        assert_eq!(hex_md5(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex_md5(b"a"), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex_md5(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(hex_md5(b"message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
        assert_eq!(
            hex_md5(b"abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex_md5(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex_md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(100_000).collect();
        // Feed in irregular pieces crossing every block boundary pattern.
        for split in [1usize, 7, 63, 64, 65, 127, 4096] {
            let mut h = Md5::new();
            for piece in data.chunks(split) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), crate::md5(&data), "split={split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of lengths 54..=130 cross the one-vs-two padding-block
        // boundary (55/56) and the block boundary (64).
        for n in 54..=130usize {
            let data = vec![0xabu8; n];
            let d1 = crate::md5(&data);
            let mut h = Md5::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), d1, "len={n}");
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex_md5(&data), "7707d6ae4e027c70eea2a935c2296f21");
    }
}

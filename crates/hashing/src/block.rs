//! The 64-byte block discipline MD5 and SHA-1 share (Merkle–Damgård):
//! whole blocks go to the compression function straight from the caller's
//! slice, a partial block waits in a buffer, and the message ends with
//! `0x80`, zeros and its 64-bit bit length — one padded block, or two when
//! fewer than eight bytes are left after the `0x80`.

/// Bytes received so far, and the tail of them not yet compressed.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    /// Always < 64: a full buffer is compressed at once.
    buf_len: usize,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer { len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Absorbs `data`, calling `compress` once per completed block.
    #[inline]
    pub(crate) fn update(&mut self, data: &[u8], mut compress: impl FnMut(&[u8; 64])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let taken = fill(self.buf.iter_mut().skip(self.buf_len), data);
            self.buf_len += taken;
            if self.buf_len < 64 {
                return;
            }
            compress(&self.buf);
            data = data.get(taken..).unwrap_or_default();
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(block);
        }
        self.buf_len = fill(self.buf.iter_mut(), tail);
    }

    /// Compresses the padded tail. `len_bytes` encodes the bit length:
    /// little-endian for MD5, big-endian for SHA-1.
    #[inline]
    pub(crate) fn finish(self, len_bytes: fn(u64) -> [u8; 8], mut compress: impl FnMut(&[u8; 64])) {
        let tail = self.buf.get(..self.buf_len).unwrap_or_default();
        let ([first, second], two) = pad(tail, len_bytes(self.len.wrapping_mul(8)));
        compress(&first);
        if two {
            compress(&second);
        }
    }
}

/// Copies the head of `src` into `dst`, as much as fits; returns the count.
/// `src` leads the zip, so `dst` gives up no slot past the last byte copied.
fn fill<'a>(dst: impl Iterator<Item = &'a mut u8>, src: &[u8]) -> usize {
    src.iter().zip(dst).map(|(&s, d)| *d = s).count()
}

/// The closing block(s) of a message whose last `tail.len()` (< 64) bytes
/// are uncompressed: the tail, `0x80`, zeros, and `bit_len` in the last
/// eight bytes. The flag says whether the second block is in use.
#[inline]
pub(crate) fn pad(tail: &[u8], bit_len: [u8; 8]) -> ([[u8; 64]; 2], bool) {
    let [mut first, mut second] = [[0u8; 64]; 2];
    // Callers pass what is left after whole blocks: tail.len() < 64.
    let mut bytes = first.iter_mut();
    fill(bytes.by_ref(), tail);
    if let Some(marker) = bytes.next() {
        *marker = 0x80;
    }
    let two = tail.len() >= 56;
    let last = if two { &mut second } else { &mut first };
    last[56..].copy_from_slice(&bit_len);
    ([first, second], two)
}

//! Static Chunking (SC).
//!
//! Splits a file into fixed-size chunks (the paper's default: 8 KiB), the
//! last chunk carrying the remainder. Cheap — no per-byte work at all — and,
//! per the paper's Observation 3, *as effective as or better than CDC* on
//! static application data and VM disk images, because those datasets are
//! updated in place (no boundary shifting) while CDC wastes redundancy on
//! forced max-size cuts.

use crate::{ChunkSpan, Chunker, ChunkingMethod, DEFAULT_SC_SIZE};

/// Fixed-size chunker.
#[derive(Debug, Clone, Copy)]
pub struct ScChunker {
    chunk_size: usize,
}

impl Default for ScChunker {
    fn default() -> Self {
        Self::new(DEFAULT_SC_SIZE)
    }
}

impl ScChunker {
    /// Chunker with the given fixed chunk size.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be nonzero");
        ScChunker { chunk_size }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Chunker for ScChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let mut spans = Vec::with_capacity(data.len().div_ceil(self.chunk_size));
        let mut offset = 0;
        while offset < data.len() {
            let len = self.chunk_size.min(data.len() - offset);
            spans.push(ChunkSpan {
                offset,
                len,
                method: ChunkingMethod::Sc,
            });
            offset += len;
        }
        spans
    }

    fn method(&self) -> ChunkingMethod {
        ChunkingMethod::Sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans_cover;

    #[test]
    fn exact_multiple() {
        let data = vec![0u8; 8192 * 3];
        let spans = ScChunker::new(8192).chunk(&data);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.len == 8192));
        assert!(spans_cover(&data, &spans));
    }

    #[test]
    fn remainder_chunk() {
        let data = vec![0u8; 8192 + 100];
        let spans = ScChunker::new(8192).chunk(&data);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].len, 8192);
        assert_eq!(spans[1].len, 100);
        assert!(spans_cover(&data, &spans));
    }

    #[test]
    fn input_smaller_than_chunk() {
        let data = vec![0u8; 10];
        let spans = ScChunker::new(8192).chunk(&data);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 10);
    }

    #[test]
    fn empty_input() {
        assert!(ScChunker::new(8192).chunk(b"").is_empty());
    }

    #[test]
    fn chunk_size_one() {
        let spans = ScChunker::new(1).chunk(b"abc");
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.len == 1));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_chunk_size_rejected() {
        ScChunker::new(0);
    }

    #[test]
    fn boundaries_are_position_dependent() {
        // SC suffers boundary shifting: a one-byte prefix insertion changes
        // every chunk's content. This documents the behaviour CDC avoids.
        let data: Vec<u8> = (0..40_960u32).map(|i| (i % 251) as u8).collect();
        let mut shifted = vec![0xffu8];
        shifted.extend_from_slice(&data);
        let a = ScChunker::new(8192).chunk(&data);
        let b = ScChunker::new(8192).chunk(&shifted);
        // All full chunks of the shifted stream differ in content.
        let same = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.slice(&data) == y.slice(&shifted))
            .count();
        assert_eq!(same, 0);
    }
}

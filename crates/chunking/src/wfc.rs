//! Whole File Chunking (WFC).
//!
//! The degenerate chunking strategy: the entire file is a single chunk.
//! AA-Dedupe applies it to *compressed* applications (AVI, MP3, ISO, DMG,
//! RAR, JPG), whose sub-file redundancy in the paper's Table 1 is ≤ 0.9 % —
//! file-level duplicate detection captures essentially all of it while
//! paying one weak-hash computation per file. A file larger than
//! [`WFC_PIECE_MAX`] is the one exception: it is cut into pieces of that
//! size.

use crate::{ChunkSpan, Chunker, ChunkingMethod};

/// Longest chunk whole-file chunking emits: a larger file is cut into
/// consecutive pieces of this size plus the remainder, so every chunk
/// length fits the `u32` a recipe records it in. Every repository written
/// so far was cut with it.
pub const WFC_PIECE_MAX: usize = 1 << 26;

/// Whole-file chunker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WfcChunker;

impl WfcChunker {
    /// Creates a whole-file chunker.
    pub fn new() -> Self {
        WfcChunker
    }
}

impl Chunker for WfcChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        (0..data.len())
            .step_by(WFC_PIECE_MAX)
            .map(|offset| ChunkSpan {
                offset,
                len: WFC_PIECE_MAX.min(data.len() - offset),
                method: ChunkingMethod::Wfc,
            })
            .collect()
    }

    fn method(&self) -> ChunkingMethod {
        ChunkingMethod::Wfc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans_cover;

    #[test]
    fn whole_file_is_one_chunk() {
        let data = vec![1u8; 12_345];
        let spans = WfcChunker::new().chunk(&data);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].offset, 0);
        assert_eq!(spans[0].len, data.len());
        assert_eq!(spans[0].method, ChunkingMethod::Wfc);
        assert!(spans_cover(&data, &spans));
    }

    #[test]
    fn empty_input_no_chunks() {
        assert!(WfcChunker::new().chunk(b"").is_empty());
    }

    #[test]
    fn files_beyond_the_piece_max_are_cut_into_pieces() {
        let data = vec![7u8; WFC_PIECE_MAX + 5];
        let spans = WfcChunker::new().chunk(&data);
        let lens: Vec<usize> = spans.iter().map(|s| s.len).collect();
        assert_eq!(lens, [1 << 26, 5]);
        assert!(spans_cover(&data, &spans));
    }

    #[test]
    fn single_byte_file() {
        let spans = WfcChunker::new().chunk(b"x");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 1);
    }
}

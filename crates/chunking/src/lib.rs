#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Chunking substrate for AA-Dedupe.
//!
//! AA-Dedupe's "intelligent chunker" dispatches each file to one of three
//! chunking strategies according to its application category (paper §III.C):
//!
//! * [`wfc`] — **Whole File Chunking**: the entire file is one chunk (cut
//!   every [`WFC_PIECE_MAX`] bytes). Used
//!   for compressed applications (AVI, MP3, RAR, …), whose sub-file
//!   redundancy is negligible (Observation 1).
//! * [`sc`] — **Static Chunking**: fixed-size 8 KiB chunks. Used for static
//!   uncompressed applications and VM disk images, where SC matches or beats
//!   CDC (Observation 3) because CDC force-cuts many max-length chunks.
//! * [`cdc`] — **Content Defined Chunking**: variable-size chunks delimited
//!   where a 48-byte rolling Rabin fingerprint matches a divisor mask;
//!   min 2 KiB / average 8 KiB / max 16 KiB. Used for dynamic uncompressed
//!   applications, where it survives the boundary-shifting problem caused by
//!   inserts/deletes.
//!
//! The CDC family has two interchangeable boundary algorithms, selected by
//! [`CdcParams::algorithm`] and dispatched through [`ContentChunker`]:
//! the paper's Rabin scan ([`cdc`], the default and the fidelity oracle:
//! four stripes in lock-step, cut for cut the byte-serial scan kept in
//! `tests/oracle/`) and the gear-hash FastCDC kernel ([`fastcdc`], over the
//! compile-time [`gear`] table): the same dedup ratio at about two thirds
//! of the CPU. Their equivalence is enforced by the differential fidelity
//! harness (`tests/chunker_fidelity.rs` at the workspace root).
//!
//! All chunkers implement the [`Chunker`] trait over byte slices and return
//! byte *ranges* so callers can avoid copying. The crate also provides
//! [`params::CdcParams`] for parameter sweeps and the [`ChunkingMethod`] tag
//! used across the workspace.

pub mod cdc;
pub mod fastcdc;
pub mod gear;
pub mod params;
pub mod sc;
pub mod stream;
pub mod wfc;

pub use cdc::CdcChunker;
pub use fastcdc::FastCdcChunker;
pub use params::{
    CdcAlgorithm, CdcParams, DEFAULT_CDC, DEFAULT_FASTCDC, DEFAULT_NORM_LEVEL, DEFAULT_SC_SIZE,
};
pub use sc::ScChunker;
pub use stream::{StreamChunker, StreamedChunk};
pub use wfc::{WfcChunker, WFC_PIECE_MAX};

use std::fmt;

/// Which chunking strategy produced a chunk — carried through indexes,
/// containers and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChunkingMethod {
    /// Whole File Chunking.
    Wfc,
    /// Static (fixed-size) Chunking.
    Sc,
    /// Content Defined Chunking.
    Cdc,
}

impl ChunkingMethod {
    /// Stable single-byte tag for on-disk encodings.
    pub const fn tag(self) -> u8 {
        match self {
            ChunkingMethod::Wfc => 1,
            ChunkingMethod::Sc => 2,
            ChunkingMethod::Cdc => 3,
        }
    }

    /// Inverse of [`ChunkingMethod::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(ChunkingMethod::Wfc),
            2 => Some(ChunkingMethod::Sc),
            3 => Some(ChunkingMethod::Cdc),
            _ => None,
        }
    }

    /// Human-readable name, as used in harness output.
    pub const fn name(self) -> &'static str {
        match self {
            ChunkingMethod::Wfc => "WFC",
            ChunkingMethod::Sc => "SC",
            ChunkingMethod::Cdc => "CDC",
        }
    }
}

impl fmt::Display for ChunkingMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A chunk of file data: its byte range within the source plus the strategy
/// that produced it. Chunkers return ranges, not copies; callers slice the
/// source buffer themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Byte offset of the chunk within the source.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
    /// Strategy that produced the chunk.
    pub method: ChunkingMethod,
}

impl ChunkSpan {
    /// End offset (exclusive).
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// The chunk's bytes within `source`.
    #[expect(
        clippy::indexing_slicing,
        reason = "spans are produced against this buffer; slicing a different source is a \
                  caller bug worth a loud panic"
    )]
    pub fn slice<'a>(&self, source: &'a [u8]) -> &'a [u8] {
        &source[self.offset..self.end()]
    }
}

/// A content-defined chunker of either boundary algorithm, selected by
/// [`CdcParams::algorithm`]. This is the type the engine's chunking
/// dispatch builds: the size contract (min/avg/max) is identical across
/// algorithms, only the cut positions differ.
#[derive(Clone)]
pub enum ContentChunker {
    /// The paper's 48-byte-window Rabin scan (the fidelity oracle).
    Rabin(CdcChunker),
    /// Gear-hash FastCDC with normalized chunking.
    FastCdc(FastCdcChunker),
}

impl ContentChunker {
    /// Builds the chunker named by `params.algorithm`.
    pub fn new(params: CdcParams) -> Self {
        match params.algorithm {
            CdcAlgorithm::Rabin => ContentChunker::Rabin(CdcChunker::new(params)),
            CdcAlgorithm::FastCdc => ContentChunker::FastCdc(FastCdcChunker::new(params)),
        }
    }

    /// The configured parameters (algorithm tag included).
    pub fn params(&self) -> &CdcParams {
        match self {
            ContentChunker::Rabin(c) => c.params(),
            ContentChunker::FastCdc(c) => c.params(),
        }
    }

    /// Length of the first chunk of `data`, treating `data` as the stream
    /// remainder; final given `max_size` bytes of lookahead or EOF.
    pub fn first_cut(&self, data: &[u8]) -> usize {
        match self {
            ContentChunker::Rabin(c) => c.first_cut(data),
            ContentChunker::FastCdc(c) => c.first_cut(data),
        }
    }

    /// All cut positions (exclusive end offsets); the final position is
    /// always `data.len()`.
    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        match self {
            ContentChunker::Rabin(c) => c.boundaries(data),
            ContentChunker::FastCdc(c) => c.boundaries(data),
        }
    }
}

impl Chunker for ContentChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        match self {
            ContentChunker::Rabin(c) => c.chunk(data),
            ContentChunker::FastCdc(c) => c.chunk(data),
        }
    }

    fn method(&self) -> ChunkingMethod {
        ChunkingMethod::Cdc
    }
}

/// A chunking strategy over an in-memory file.
pub trait Chunker {
    /// Splits `data` into contiguous, non-overlapping spans that exactly
    /// cover it (empty input yields no spans).
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan>;

    /// The method tag this chunker stamps on its spans.
    fn method(&self) -> ChunkingMethod;
}

/// Validates the fundamental chunker invariant: spans are contiguous,
/// non-empty, and exactly cover `data`. Used by tests and debug assertions.
pub fn spans_cover(data: &[u8], spans: &[ChunkSpan]) -> bool {
    if data.is_empty() {
        return spans.is_empty();
    }
    let mut cursor = 0;
    for s in spans {
        if s.len == 0 || s.offset != cursor {
            return false;
        }
        cursor = s.end();
    }
    cursor == data.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tag_round_trip() {
        for m in [ChunkingMethod::Wfc, ChunkingMethod::Sc, ChunkingMethod::Cdc] {
            assert_eq!(ChunkingMethod::from_tag(m.tag()), Some(m));
        }
        assert_eq!(ChunkingMethod::from_tag(0), None);
        assert_eq!(ChunkingMethod::from_tag(9), None);
    }

    #[test]
    fn span_slicing() {
        let data = b"0123456789";
        let s = ChunkSpan {
            offset: 3,
            len: 4,
            method: ChunkingMethod::Sc,
        };
        assert_eq!(s.slice(data), b"3456");
        assert_eq!(s.end(), 7);
    }

    #[test]
    fn spans_cover_checks() {
        let data = b"abcdef";
        let ok = vec![
            ChunkSpan { offset: 0, len: 2, method: ChunkingMethod::Sc },
            ChunkSpan { offset: 2, len: 4, method: ChunkingMethod::Sc },
        ];
        assert!(spans_cover(data, &ok));
        let gap = vec![
            ChunkSpan { offset: 0, len: 2, method: ChunkingMethod::Sc },
            ChunkSpan { offset: 3, len: 3, method: ChunkingMethod::Sc },
        ];
        assert!(!spans_cover(data, &gap));
        let short = vec![ChunkSpan { offset: 0, len: 5, method: ChunkingMethod::Sc }];
        assert!(!spans_cover(data, &short));
        let empty_span = vec![
            ChunkSpan { offset: 0, len: 0, method: ChunkingMethod::Sc },
            ChunkSpan { offset: 0, len: 6, method: ChunkingMethod::Sc },
        ];
        assert!(!spans_cover(data, &empty_span));
        assert!(spans_cover(b"", &[]));
        assert!(!spans_cover(b"", &ok));
    }
}

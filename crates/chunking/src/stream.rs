//! Streaming chunking over `std::io::Read`.
//!
//! The slice-based [`Chunker`](crate::Chunker) API requires the whole file
//! in memory; fine for PC-scale files, but VM disk images (the paper's
//! biggest category) can exceed RAM. [`StreamChunker`] produces the same
//! chunks incrementally with bounded memory: an internal buffer of at most
//! `2 × max_chunk` bytes (never more than 2^26), refilled as chunks are
//! emitted.
//!
//! Equivalence with the batch API is guaranteed by construction for SC and
//! tested exhaustively for CDC (boundaries depend only on a 48-byte
//! window, which never spans the buffer seam thanks to the carry-over
//! logic). WFC equals the batch API's single chunk up to the buffer cap:
//! a longer stream comes out as consecutive pieces of at most 2^26 bytes.

use std::io::Read;

use crate::{CdcChunker, ChunkingMethod, ContentChunker, FastCdcChunker, ScChunker, WFC_PIECE_MAX};

/// A chunk produced by streaming: its bytes plus global offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedChunk {
    /// Offset of the chunk within the overall stream.
    pub offset: u64,
    /// The chunk's bytes (owned; the stream buffer has moved on).
    pub data: Vec<u8>,
    /// Strategy that produced the chunk.
    pub method: ChunkingMethod,
}

/// Incremental chunker over a byte stream.
pub struct StreamChunker<R: Read> {
    reader: R,
    method: Method,
    buf: Vec<u8>,
    /// Global offset of `buf[0]`.
    base: u64,
    eof: bool,
    err: Option<std::io::Error>,
}

enum Method {
    Wfc,
    Sc(ScChunker),
    Cdc(ContentChunker),
}

impl<R: Read> StreamChunker<R> {
    /// Whole-file streaming: accumulates the stream and emits it as one
    /// chunk at EOF — or, past the 2^26-byte buffer cap, as consecutive
    /// pieces of at most that size.
    pub fn wfc(reader: R) -> Self {
        Self::new(reader, Method::Wfc)
    }

    /// Fixed-size streaming.
    pub fn sc(reader: R, chunker: ScChunker) -> Self {
        Self::new(reader, Method::Sc(chunker))
    }

    /// Content-defined streaming with Rabin boundaries (the historical
    /// entry point; [`StreamChunker::content`] takes either algorithm).
    pub fn cdc(reader: R, chunker: CdcChunker) -> Self {
        Self::content(reader, ContentChunker::Rabin(chunker))
    }

    /// Content-defined streaming with gear-hash FastCDC boundaries.
    pub fn fastcdc(reader: R, chunker: FastCdcChunker) -> Self {
        Self::content(reader, ContentChunker::FastCdc(chunker))
    }

    /// Content-defined streaming with whichever boundary algorithm the
    /// chunker was built for.
    pub fn content(reader: R, chunker: ContentChunker) -> Self {
        Self::new(reader, Method::Cdc(chunker))
    }

    fn new(reader: R, method: Method) -> Self {
        StreamChunker { reader, method, buf: Vec::new(), base: 0, eof: false, err: None }
    }

    /// Takes the I/O error that terminated the stream, if any.
    pub fn io_error(&mut self) -> Option<std::io::Error> {
        self.err.take()
    }

    /// How many buffered bytes we need before a chunk can be emitted
    /// without seeing EOF.
    fn high_water(&self) -> usize {
        match &self.method {
            Method::Wfc => WFC_PIECE_MAX,
            Method::Sc(sc) => sc.chunk_size(),
            // CDC boundaries within the first max_size bytes are final
            // once max_size bytes are visible.
            Method::Cdc(cdc) => cdc.params().max_size,
        }
    }

    fn fill(&mut self) {
        let target = self.high_water().saturating_mul(2).min(1 << 26);
        let mut scratch = [0u8; 64 * 1024];
        while !self.eof && self.buf.len() < target {
            match self.reader.read(&mut scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => match scratch.get(..n) {
                    Some(read) => self.buf.extend_from_slice(read),
                    // A reader that claims more bytes than the buffer holds
                    // broke the `Read` contract: end the stream with an error.
                    None => {
                        self.err = Some(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "reader reported {n} bytes read into a {}-byte buffer",
                                scratch.len()
                            ),
                        ));
                        self.eof = true;
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.err = Some(e);
                    self.eof = true;
                }
            }
        }
    }

    fn emit(&mut self, len: usize, method: ChunkingMethod) -> StreamedChunk {
        let data: Vec<u8> = self.buf.drain(..len).collect();
        let chunk = StreamedChunk { offset: self.base, data, method };
        self.base += len as u64;
        chunk
    }
}

impl<R: Read> Iterator for StreamChunker<R> {
    type Item = StreamedChunk;

    fn next(&mut self) -> Option<StreamedChunk> {
        self.fill();
        if self.buf.is_empty() {
            return None;
        }
        let (len, method) = match &self.method {
            // Everything buffered: fill reads to EOF or to one piece.
            Method::Wfc => (self.buf.len().min(WFC_PIECE_MAX), ChunkingMethod::Wfc),
            Method::Sc(sc) => (sc.chunk_size().min(self.buf.len()), ChunkingMethod::Sc),
            Method::Cdc(cdc) => {
                // A boundary found with max_size bytes visible is final:
                // both CDC algorithms decide each cut from the current
                // chunk's bytes alone (Rabin re-primes its window, the
                // gear hash restarts at zero), never from bytes past it.
                let cut = if self.buf.len() <= cdc.params().max_size && self.eof {
                    // Tail: chunk exactly as the batch API would.
                    cdc.first_cut(&self.buf)
                } else {
                    // The first max_size bytes, or all of a shorter buffer.
                    cdc.first_cut(self.buf.get(..cdc.params().max_size).unwrap_or(&self.buf))
                };
                (cut, ChunkingMethod::Cdc)
            }
        };
        Some(self.emit(len, method))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdcParams, Chunker, WfcChunker, DEFAULT_CDC, DEFAULT_FASTCDC};

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    fn collect_stream(s: impl Iterator<Item = StreamedChunk>) -> (Vec<u8>, Vec<usize>) {
        let mut data = Vec::new();
        let mut lens = Vec::new();
        for c in s {
            assert_eq!(c.offset as usize, data.len(), "offsets are contiguous");
            data.extend_from_slice(&c.data);
            lens.push(c.data.len());
        }
        (data, lens)
    }

    #[test]
    fn sc_stream_matches_batch() {
        let data = pseudo_random(100_000, 1);
        let sc = ScChunker::new(8192);
        let batch: Vec<usize> = sc.chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) = collect_stream(StreamChunker::sc(&data[..], sc));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn cdc_stream_matches_batch() {
        for (len, seed) in [(0usize, 2u64), (100, 3), (2048, 4), (50_000, 5), (400_000, 6)] {
            let data = pseudo_random(len, seed);
            let cdc = CdcChunker::default();
            let batch: Vec<usize> = cdc.chunk(&data).iter().map(|s| s.len).collect();
            let (reassembled, lens) =
                collect_stream(StreamChunker::cdc(&data[..], CdcChunker::default()));
            assert_eq!(reassembled, data, "len={len}");
            assert_eq!(lens, batch, "len={len}");
        }
    }

    #[test]
    fn cdc_stream_matches_batch_custom_params() {
        let params =
            CdcParams { min_size: 256, avg_size: 1024, max_size: 4096, window: 48, ..DEFAULT_CDC };
        let data = pseudo_random(150_000, 9);
        let batch: Vec<usize> =
            CdcChunker::new(params).chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) =
            collect_stream(StreamChunker::cdc(&data[..], CdcChunker::new(params)));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn fastcdc_stream_matches_batch() {
        for (len, seed) in [(0usize, 2u64), (100, 3), (2048, 4), (50_000, 5), (400_000, 6)] {
            let data = pseudo_random(len, seed);
            let fast = FastCdcChunker::default();
            let batch: Vec<usize> = fast.chunk(&data).iter().map(|s| s.len).collect();
            let (reassembled, lens) =
                collect_stream(StreamChunker::fastcdc(&data[..], FastCdcChunker::default()));
            assert_eq!(reassembled, data, "len={len}");
            assert_eq!(lens, batch, "len={len}");
        }
    }

    #[test]
    fn fastcdc_stream_matches_batch_custom_params() {
        let params = CdcParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 4096,
            ..DEFAULT_FASTCDC
        };
        let data = pseudo_random(150_000, 9);
        let batch: Vec<usize> =
            FastCdcChunker::new(params).chunk(&data).iter().map(|s| s.len).collect();
        let (reassembled, lens) =
            collect_stream(StreamChunker::content(&data[..], ContentChunker::new(params)));
        assert_eq!(reassembled, data);
        assert_eq!(lens, batch);
    }

    #[test]
    fn wfc_stream_single_chunk() {
        let data = pseudo_random(123_456, 7);
        let batch = WfcChunker::new().chunk(&data);
        let chunks: Vec<StreamedChunk> = StreamChunker::wfc(&data[..]).collect();
        assert_eq!(chunks.len(), batch.len());
        assert_eq!(chunks[0].data, data);
        assert_eq!(chunks[0].method, ChunkingMethod::Wfc);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert_eq!(StreamChunker::wfc(&b""[..]).count(), 0);
        assert_eq!(StreamChunker::sc(&b""[..], ScChunker::new(8192)).count(), 0);
        assert_eq!(StreamChunker::cdc(&b""[..], CdcChunker::default()).count(), 0);
    }

    #[test]
    fn io_errors_surface() {
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    Err(std::io::Error::other("disk on fire"))
                } else {
                    let n = buf.len().min(self.0);
                    self.0 -= n;
                    buf[..n].fill(7);
                    Ok(n)
                }
            }
        }
        let mut s = StreamChunker::cdc(Failing(10_000), CdcChunker::default());
        let consumed: usize = s.by_ref().map(|c| c.data.len()).sum();
        assert_eq!(consumed, 10_000, "bytes before the error still chunk");
        assert!(s.io_error().is_some());
    }

    #[test]
    fn a_reader_that_overreports_is_an_error() {
        // Claims one byte more than the buffer it was handed.
        struct Lying;
        impl Read for Lying {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                Ok(buf.len() + 1)
            }
        }
        let mut s = StreamChunker::cdc(Lying, CdcChunker::default());
        assert_eq!(s.by_ref().count(), 0, "nothing was read, so nothing is chunked");
        let err = s.io_error().expect("the broken contract surfaces as an error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn stream_chunker_is_send() {
        // A streaming source hands its chunker to whichever thread reads
        // it; a non-Send field sneaking into StreamChunker must fail this
        // build.
        fn assert_send<T: Send>() {}
        assert_send::<StreamChunker<std::io::Cursor<Vec<u8>>>>();
        assert_send::<StreamChunker<&[u8]>>();
    }

    #[test]
    fn default_cdc_params_used() {
        // Sanity: the streaming path respects min/max bounds.
        let data = pseudo_random(300_000, 11);
        let chunks: Vec<StreamedChunk> =
            StreamChunker::cdc(&data[..], CdcChunker::default()).collect();
        for (i, c) in chunks.iter().enumerate() {
            assert!(c.data.len() <= DEFAULT_CDC.max_size);
            if i + 1 < chunks.len() {
                assert!(c.data.len() >= DEFAULT_CDC.min_size);
            }
        }
    }
}

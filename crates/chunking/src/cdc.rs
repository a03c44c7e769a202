//! Content Defined Chunking (CDC).
//!
//! Chunk boundaries are declared where the Rabin fingerprint of a sliding
//! window (48 bytes in the paper, 1-byte step) over the data matches a
//! divisor mask derived from the expected chunk size. Because the boundary
//! depends only on nearby *content*, an insertion or deletion re-aligns
//! within a chunk or two instead of shifting every subsequent boundary —
//! the boundary-shifting problem that defeats static chunking on
//! frequently-edited data (paper §II, Observation 3 discussion).
//!
//! The minimum chunk size suppresses pathological tiny chunks; the maximum
//! forces a cut, which is precisely why CDC *loses* to SC on static data:
//! long boundary-free stretches get cut at arbitrary max-size positions.

use crate::{CdcAlgorithm, CdcParams, ChunkSpan, Chunker, ChunkingMethod, DEFAULT_CDC};
use aadedupe_hashing::rabin::RollingHash;

/// Boundary magic value compared against the masked rolling hash. Nonzero
/// so that runs of zero bytes (whose window hash is 0) do not match at
/// every position.
const BOUNDARY_MAGIC: u64 = 0x1d3;

/// Candidate cuts are tested `LANES` stripes of `STRIPE` at a time. Both
/// are measured (`examples/cdc_rates.rs`), not knobs: fewer lanes leave
/// issue slots idle, eight gain ≈ 6 % here but need every register x86-64
/// has; a stripe this long amortises priming three lanes and bounds the
/// scan past a cut to one block.
const LANES: usize = 4;
const STRIPE: usize = 256;

/// Content-defined chunker with Rabin-window boundary detection.
#[derive(Clone)]
pub struct CdcChunker {
    params: CdcParams,
    /// The window's tables (shared, see [`RollingHash`]); every scan keeps
    /// its hash states in locals, so `&self` serves any number of threads.
    hasher: RollingHash,
}

impl Default for CdcChunker {
    fn default() -> Self {
        Self::new(DEFAULT_CDC)
    }
}

impl CdcChunker {
    /// Chunker with the given CDC parameters (validated on construction;
    /// the algorithm field is forced to [`CdcAlgorithm::Rabin`] so
    /// `params()` always tells the truth — this type *is* the Rabin
    /// implementation, whatever the caller's tag said).
    pub fn new(params: CdcParams) -> Self {
        let params = params.with_algorithm(CdcAlgorithm::Rabin);
        params.validate();
        CdcChunker {
            params,
            hasher: RollingHash::new(params.window),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CdcParams {
        &self.params
    }

    /// The only Rabin scan loop in the crate: tests `N` stripes of `n`
    /// candidates, back to back. Candidate `k` hashes `block[k..k + window]`
    /// and `fp` enters as candidate 0's hash. A window hash depends on its
    /// own bytes alone, so the stripes run in lock-step — `N` independent
    /// dependency chains for the core to overlap — and the first hit in
    /// position order is the one a byte-serial scan stops at. Returns it;
    /// without one, `fp` leaves as the hash of the next window.
    #[inline(always)]
    fn scan<const N: usize>(&self, fp: &mut u64, block: &[u8], n: usize) -> Option<usize> {
        let (t, window) = (&self.hasher, self.params.window);
        let mask = self.params.mask();
        let magic = BOUNDARY_MAGIC & mask;
        // Lane 0 continues from `fp`; the others prime theirs, in lock-step too.
        let mut fps = [0u64; N];
        fps[0] = *fp;
        for k in 0..window {
            for (j, fp) in fps.iter_mut().enumerate().skip(1) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the caller's block holds N * n candidates: \
                              j * n + k < (N - 1) * n + window < block.len()"
                )]
                let byte = block[j * n + k];
                *fp = t.pushed(*fp, byte);
            }
        }
        // Per lane, the bytes that leave and the bytes that enter.
        #[expect(
            clippy::indexing_slicing,
            reason = "j < N, and the caller's block holds N * n + window bytes"
        )]
        let lanes: [_; N] = std::array::from_fn(|j| (&block[j * n..][..n], &block[j * n + window..][..n]));
        // The lowest matching candidate so far; `N * n` while there is none.
        let mut first = N * n;
        for i in 0..n {
            // One candidate in `avg_size` matches: one well-predicted
            // branch a step keeps the bookkeeping off the lanes' path.
            if fps.iter().any(|fp| fp & mask == magic) {
                for (j, fp) in fps.iter().enumerate() {
                    if fp & mask == magic {
                        first = first.min(j * n + i);
                    }
                }
            }
            for (fp, (out, inc)) in fps.iter_mut().zip(&lanes) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i < n, the length both slices were cut to"
                )]
                let (out, inc) = (out[i], inc[i]);
                *fp = t.rolled(*fp, out, inc);
            }
        }
        if let Some(&last) = fps.last() {
            *fp = last;
        }
        (first < N * n).then_some(first)
    }

    /// Length of the first chunk of `data`, treating `data` as the
    /// remainder of the stream: the returned cut is final given at least
    /// `max_size` bytes of lookahead (or end-of-stream). Mirrors
    /// [`FastCdcChunker::first_cut`](crate::FastCdcChunker::first_cut).
    pub fn first_cut(&self, data: &[u8]) -> usize {
        self.first_cut_lanes::<LANES>(data)
    }

    /// [`CdcChunker::first_cut`] at another lane count, for the lane-width
    /// experiment in `examples/cdc_rates.rs`; the cut is the same at any.
    #[doc(hidden)]
    pub fn first_cut_lanes<const N: usize>(&self, data: &[u8]) -> usize {
        let CdcParams { min_size, max_size, window, .. } = self.params;
        if data.len() <= min_size {
            return data.len();
        }
        let upper = data.len().min(max_size);
        // Candidate cut lengths: min_size ..= upper, the window for length
        // L ending at byte L-1. `upper` is the forced cut and needs no
        // test, so no byte at or past it is read: a cut found in
        // `data[..upper]` is final (`StreamChunker` relies on it).
        // `at` is the first untested candidate, `fp` its window's hash.
        let mut at = min_size;
        let mut fp =
            data.iter().skip(at - window).take(window).fold(0, |fp, &b| self.hasher.pushed(fp, b));
        while at < upper {
            let (left, stripe) = (upper - at, (upper - at) / N);
            #[expect(
                clippy::indexing_slicing,
                reason = "validate() pins window <= min_size <= at, and at < upper <= data.len()"
            )]
            let block = &data[at - window..upper];
            // Full stripes (a constant the loop is compiled for) while
            // that much is left, shorter ones after; a stripe shorter than
            // the window that primes it is not worth its lane.
            let (hit, tested) = if stripe >= STRIPE {
                (self.scan::<N>(&mut fp, block, STRIPE), N * STRIPE)
            } else if stripe >= window {
                (self.scan::<N>(&mut fp, block, stripe), N * stripe)
            } else {
                (self.scan::<1>(&mut fp, block, left), left)
            };
            if let Some(hit) = hit {
                return at + hit;
            }
            at += tested;
        }
        upper
    }

    /// Finds all chunk boundaries (cut positions, exclusive end offsets) in
    /// `data`. The final position `data.len()` is always the last cut.
    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut rest = data;
        while !rest.is_empty() {
            rest = rest.split_at(self.first_cut(rest)).1;
            cuts.push(data.len() - rest.len());
        }
        cuts
    }
}

impl Chunker for CdcChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        if data.is_empty() {
            return Vec::new();
        }
        let cuts = self.boundaries(data);
        let mut spans = Vec::with_capacity(cuts.len());
        let mut prev = 0;
        for cut in cuts {
            spans.push(ChunkSpan {
                offset: prev,
                len: cut - prev,
                method: ChunkingMethod::Cdc,
            });
            prev = cut;
        }
        spans
    }

    fn method(&self) -> ChunkingMethod {
        ChunkingMethod::Cdc
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test code: chunk sets are compared as sets")]
mod tests {
    use super::*;
    use crate::spans_cover;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        // xorshift64* stream; deterministic and cheap.
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn covers_input_and_respects_bounds() {
        let chunker = CdcChunker::default();
        let data = pseudo_random(400_000, 7);
        let spans = chunker.chunk(&data);
        assert!(spans_cover(&data, &spans));
        let p = chunker.params();
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len <= p.max_size, "span {i} too long: {}", s.len);
            if i + 1 < spans.len() {
                assert!(s.len >= p.min_size, "span {i} too short: {}", s.len);
            }
        }
    }

    #[test]
    fn average_size_in_expected_range() {
        let chunker = CdcChunker::default();
        let data = pseudo_random(4_000_000, 99);
        let spans = chunker.chunk(&data);
        let avg = data.len() / spans.len();
        // Min/max truncation shifts the mean; accept a generous band around
        // the nominal 8 KiB (analytically ~ min + avg*(1-e^-2)-ish).
        assert!(
            (4 * 1024..=14 * 1024).contains(&avg),
            "average chunk size {avg} outside expected band"
        );
    }

    #[test]
    fn deterministic() {
        let chunker = CdcChunker::default();
        let data = pseudo_random(300_000, 3);
        assert_eq!(chunker.boundaries(&data), chunker.boundaries(&data));
    }

    #[test]
    fn boundary_shift_resistance() {
        // Insert a byte near the front; boundaries must re-align so that
        // most chunk *contents* are preserved.
        let chunker = CdcChunker::default();
        let data = pseudo_random(1_000_000, 11);
        let mut edited = data.clone();
        edited.insert(1000, 0x42);

        let digest = |d: &[u8]| -> std::collections::HashSet<[u8; 20]> {
            chunker
                .chunk(d)
                .iter()
                .map(|s| aadedupe_hashing::sha1(s.slice(d)))
                .collect()
        };
        let a = digest(&data);
        let b = digest(&edited);
        let shared = a.intersection(&b).count();
        assert!(
            shared * 10 >= a.len() * 8,
            "only {shared}/{} chunks survived a 1-byte insert",
            a.len()
        );
    }

    #[test]
    fn static_chunking_would_not_survive_the_same_edit() {
        // Contrast test for Observation 3's discussion: SC loses everything.
        use crate::ScChunker;
        let data = pseudo_random(1_000_000, 11);
        let mut edited = data.clone();
        edited.insert(0, 0x42);
        let sc = ScChunker::new(8192);
        let digest = |d: &[u8]| -> std::collections::HashSet<[u8; 20]> {
            sc.chunk(d).iter().map(|s| aadedupe_hashing::sha1(s.slice(d))).collect()
        };
        let shared = digest(&data).intersection(&digest(&edited)).count();
        assert!(shared <= 1, "SC unexpectedly preserved {shared} chunks");
    }

    #[test]
    fn tiny_inputs() {
        let chunker = CdcChunker::default();
        for n in [0usize, 1, 100, 2047, 2048, 2049] {
            let data = pseudo_random(n, 5);
            let spans = chunker.chunk(&data);
            assert!(spans_cover(&data, &spans), "n={n}");
            if n > 0 && n <= chunker.params().min_size {
                assert_eq!(spans.len(), 1, "n={n} should be a single chunk");
            }
        }
    }

    #[test]
    fn zero_filled_data_forces_max_cuts() {
        // All-zero windows hash to 0 != magic, so every chunk is forced at
        // max_size — the degenerate case the magic constant guards.
        let chunker = CdcChunker::default();
        let data = vec![0u8; 100_000];
        let spans = chunker.chunk(&data);
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len, chunker.params().max_size);
        }
    }

    #[test]
    fn custom_params() {
        let p = CdcParams { min_size: 256, avg_size: 1024, max_size: 4096, window: 32, ..DEFAULT_CDC };
        let chunker = CdcChunker::new(p);
        let data = pseudo_random(200_000, 21);
        let spans = chunker.chunk(&data);
        assert!(spans_cover(&data, &spans));
        let avg = data.len() / spans.len();
        assert!((512..=2048).contains(&avg), "avg {avg}");
    }

    #[test]
    fn boundaries_end_with_len() {
        let chunker = CdcChunker::default();
        let data = pseudo_random(50_000, 13);
        let cuts = chunker.boundaries(&data);
        assert_eq!(*cuts.last().unwrap(), data.len());
        // Strictly increasing.
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }
}

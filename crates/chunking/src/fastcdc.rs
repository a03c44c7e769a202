//! Gear-hash FastCDC content-defined chunking.
//!
//! Same contract as the Rabin chunker ([`crate::CdcChunker`]) — spans
//! tile the input, interior chunks live in `[min_size, max_size]`, cut
//! points depend only on content — at a fraction of the CPU:
//!
//! * **Gear hash**: one shift-add and one table lookup per byte
//!   (`fp = (fp << 1) + GEAR[b]`), versus the Rabin scan's two lookups
//!   plus window bookkeeping. The window is implicit: a byte's influence
//!   is shifted out after 64 steps.
//! * **Min-size skip-ahead**: the hash restarts at every chunk start, so
//!   the first `min_size` bytes of each chunk are never scanned at all —
//!   with the default 2 KiB/8 KiB parameters that skips ~25 % of all
//!   input bytes.
//! * **Normalized chunking** (the FastCDC paper's "NC"): before the
//!   target size the boundary mask carries `log2(avg) + norm_level` bits
//!   (boundaries rare), after it `log2(avg) - norm_level` bits
//!   (boundaries likely). The size distribution squeezes toward the
//!   target, which both cuts the forced-boundary rate at `max_size` and
//!   lets the large-region mask re-find boundaries quickly after an edit.
//! * **Max-size cutoff**: identical to Rabin — a boundary is forced at
//!   `max_size`.
//!
//! Boundary decisions depend only on the bytes of the current chunk (the
//! gear hash restarts at each cut), so the streaming equivalence argument
//! in [`crate::stream`] carries over unchanged: a cut found with
//! `max_size` bytes of lookahead is final.
//!
//! Fidelity is proven differentially, with Rabin as the oracle: see
//! `tests/chunker_fidelity.rs` (dedup-ratio parity, bit-exact restores)
//! and `tests/golden_fastcdc.rs` (pinned gear table, masks, cut points).

use crate::gear::{spread_mask, GEAR};
use crate::{CdcAlgorithm, CdcParams, ChunkSpan, Chunker, ChunkingMethod, DEFAULT_FASTCDC};
use aadedupe_hashing::byte_entry;

/// Gear-hash chunker with FastCDC normalized boundary detection.
#[derive(Debug, Clone)]
pub struct FastCdcChunker {
    params: CdcParams,
    /// Mask used below the target size: `log2(avg) + norm_level` bits.
    mask_small: u64,
    /// Mask used at/above the target size: `log2(avg) - norm_level` bits.
    mask_large: u64,
}

impl Default for FastCdcChunker {
    fn default() -> Self {
        Self::new(DEFAULT_FASTCDC)
    }
}

impl FastCdcChunker {
    /// Chunker with the given CDC parameters (validated on construction;
    /// the algorithm field is forced to [`CdcAlgorithm::FastCdc`] so
    /// `params()` always tells the truth).
    pub fn new(params: CdcParams) -> Self {
        let params = params.with_algorithm(CdcAlgorithm::FastCdc);
        params.validate();
        let avg_bits = params.avg_size.trailing_zeros();
        FastCdcChunker {
            params,
            mask_small: spread_mask(avg_bits + params.norm_level),
            mask_large: spread_mask(avg_bits - params.norm_level),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CdcParams {
        &self.params
    }

    /// The two-tier boundary masks `(small_region, large_region)`.
    pub fn masks(&self) -> (u64, u64) {
        (self.mask_small, self.mask_large)
    }

    /// Length of the first chunk of `data`, treating `data` as the
    /// remainder of the stream: the returned cut is final given at least
    /// `max_size` bytes of lookahead (or end-of-stream).
    pub fn first_cut(&self, data: &[u8]) -> usize {
        let CdcParams { min_size, max_size, avg_size, .. } = self.params;
        if data.len() <= min_size {
            return data.len();
        }
        let n = data.len().min(max_size);
        let normal = avg_size.min(n);
        let mut fp = 0u64;
        let mut roll = |b: u8| {
            fp = (fp << 1).wrapping_add(byte_entry(&GEAR, b));
            fp
        };
        // min_size <= normal <= n <= data.len(): both regions exist.
        // Small region [min_size, normal): the stricter mask makes
        // boundaries rare, pushing cuts toward the target size.
        let small = data.get(min_size..normal).unwrap_or_default();
        if let Some(k) = small.iter().position(|&b| roll(b) & self.mask_small == 0) {
            return min_size + k + 1;
        }
        // Large region [normal, n): the looser mask makes boundaries
        // likely, so few chunks reach the forced cut at max_size.
        let large = data.get(normal..n).unwrap_or_default();
        if let Some(k) = large.iter().position(|&b| roll(b) & self.mask_large == 0) {
            return normal + k + 1;
        }
        n
    }

    /// Finds all chunk boundaries (cut positions, exclusive end offsets)
    /// in `data`. The final position `data.len()` is always the last cut.
    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut rest = data;
        while !rest.is_empty() {
            rest = rest.get(self.first_cut(rest)..).unwrap_or_default();
            cuts.push(data.len() - rest.len());
        }
        cuts
    }
}

impl Chunker for FastCdcChunker {
    fn chunk(&self, data: &[u8]) -> Vec<ChunkSpan> {
        if data.is_empty() {
            return Vec::new();
        }
        let cuts = self.boundaries(data);
        let mut spans = Vec::with_capacity(cuts.len());
        let mut prev = 0;
        for cut in cuts {
            spans.push(ChunkSpan { offset: prev, len: cut - prev, method: ChunkingMethod::Cdc });
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
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn covers_input_and_respects_bounds() {
        let chunker = FastCdcChunker::default();
        let data = pseudo_random(400_000, 7);
        let spans = chunker.chunk(&data);
        assert!(spans_cover(&data, &spans));
        let p = chunker.params();
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len <= p.max_size, "span {i} too long: {}", s.len);
            if i + 1 < spans.len() {
                assert!(s.len > p.min_size, "span {i} too short: {}", s.len);
            }
        }
    }

    #[test]
    fn normalization_squeezes_the_distribution() {
        // With level-2 normalization the mean lands near the target and
        // forced max-size cuts are rare on random data.
        let chunker = FastCdcChunker::default();
        let data = pseudo_random(8_000_000, 99);
        let spans = chunker.chunk(&data);
        let avg = data.len() / spans.len();
        assert!(
            (6 * 1024..=13 * 1024).contains(&avg),
            "average chunk size {avg} outside expected band"
        );
        let forced = spans.iter().filter(|s| s.len == chunker.params().max_size).count();
        assert!(
            forced * 20 <= spans.len(),
            "{forced}/{} chunks were forced max-size cuts",
            spans.len()
        );
    }

    #[test]
    fn deterministic() {
        let chunker = FastCdcChunker::default();
        let data = pseudo_random(300_000, 3);
        assert_eq!(chunker.boundaries(&data), chunker.boundaries(&data));
    }

    #[test]
    fn boundary_shift_resistance() {
        let chunker = FastCdcChunker::default();
        let data = pseudo_random(1_000_000, 11);
        let mut edited = data.clone();
        edited.insert(1000, 0x42);

        let digest = |d: &[u8]| -> std::collections::HashSet<[u8; 20]> {
            chunker.chunk(d).iter().map(|s| aadedupe_hashing::sha1(s.slice(d))).collect()
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
    fn tiny_inputs() {
        let chunker = FastCdcChunker::default();
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
        // A constant stream drives the gear hash to a fixed point whose
        // masked value is (with overwhelming probability for a random
        // table) nonzero, so every chunk is forced at max_size — the same
        // degenerate behaviour the Rabin magic constant guards against.
        let chunker = FastCdcChunker::default();
        let data = vec![0u8; 200_000];
        let spans = chunker.chunk(&data);
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len, chunker.params().max_size);
        }
    }

    #[test]
    fn custom_params() {
        let p = CdcParams {
            min_size: 256,
            avg_size: 1024,
            max_size: 4096,
            window: 32,
            algorithm: CdcAlgorithm::FastCdc,
            norm_level: 2,
        };
        let chunker = FastCdcChunker::new(p);
        let data = pseudo_random(400_000, 21);
        let spans = chunker.chunk(&data);
        assert!(spans_cover(&data, &spans));
        let avg = data.len() / spans.len();
        assert!((512..=2048).contains(&avg), "avg {avg}");
    }

    #[test]
    fn norm_level_zero_disables_normalization() {
        // With norm_level 0 both masks collapse to log2(avg) bits: the
        // classic single-mask gear chunker. Distribution spreads out but
        // the contract still holds.
        let p = CdcParams { norm_level: 0, ..DEFAULT_FASTCDC };
        let chunker = FastCdcChunker::new(p);
        let (s, l) = chunker.masks();
        assert_eq!(s, l);
        let data = pseudo_random(2_000_000, 77);
        let spans = chunker.chunk(&data);
        assert!(spans_cover(&data, &spans));
        let avg = data.len() / spans.len();
        assert!((4 * 1024..=14 * 1024).contains(&avg), "avg {avg}");
    }

    #[test]
    fn constructor_forces_algorithm_tag() {
        let c = FastCdcChunker::new(crate::DEFAULT_CDC);
        assert_eq!(c.params().algorithm, CdcAlgorithm::FastCdc);
    }

    #[test]
    fn boundaries_end_with_len_and_increase() {
        let chunker = FastCdcChunker::default();
        let data = pseudo_random(150_000, 13);
        let cuts = chunker.boundaries(&data);
        assert_eq!(cuts.last().copied(), Some(data.len()));
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }
}

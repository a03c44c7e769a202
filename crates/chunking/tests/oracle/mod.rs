//! The byte-serial Rabin boundary scan `CdcChunker` shipped until the
//! striped lane scan replaced it (PR 22) — `cut_with`, `first_cut` and
//! `boundaries` verbatim, test-only, on the stateful `RollingHash` API. It
//! is the oracle `scalar_oracle.rs` holds the lane scan to and the "before"
//! side of `examples/cdc_rates.rs`.

#![allow(dead_code, reason = "each includer uses its own part")]

use aadedupe_chunking::{CdcAlgorithm, CdcParams};
use aadedupe_hashing::rabin::RollingHash;

const BOUNDARY_MAGIC: u64 = 0x1d3;

#[derive(Clone)]
pub struct ScalarCdc {
    params: CdcParams,
    hasher: RollingHash,
}

impl ScalarCdc {
    pub fn new(params: CdcParams) -> Self {
        let params = params.with_algorithm(CdcAlgorithm::Rabin);
        params.validate();
        ScalarCdc {
            params,
            hasher: RollingHash::new(params.window),
        }
    }

    /// One chunk decision over the stream remainder `data`, using (and
    /// resetting) the caller's rolling hash. Returns the cut length.
    fn cut_with(&self, rh: &mut RollingHash, data: &[u8]) -> usize {
        let CdcParams { min_size, max_size, window, .. } = self.params;
        let mask = self.params.mask();
        let magic = BOUNDARY_MAGIC & mask;
        if data.len() <= min_size {
            return data.len();
        }
        // Prime the window with the `window` bytes preceding the first
        // candidate cut at `min_size`.
        rh.reset();
        for &b in &data[min_size - window..min_size] {
            rh.push(b);
        }
        let upper = data.len().min(max_size);
        // Candidate cut lengths: min_size ..= upper. The window for a cut
        // of length L ends at byte L-1.
        if rh.value() & mask == magic {
            return min_size;
        }
        for len in min_size + 1..=upper {
            let incoming = data[len - 1];
            let outgoing = data[len - 1 - window];
            rh.roll(outgoing, incoming);
            if rh.value() & mask == magic {
                return len;
            }
        }
        upper
    }

    pub fn first_cut(&self, data: &[u8]) -> usize {
        let mut rh = self.hasher.clone();
        self.cut_with(&mut rh, data)
    }

    pub fn boundaries(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::new();
        let mut start = 0usize;
        let mut rh = self.hasher.clone();
        while start < data.len() {
            let cut = start + self.cut_with(&mut rh, &data[start..]);
            cuts.push(cut);
            start = cut;
        }
        cuts
    }
}

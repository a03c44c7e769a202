//! Differential tests: the striped lane scan in `CdcChunker` against the
//! byte-serial scan it replaced (`oracle/`, verbatim). Every cut must be
//! the one the serial scan finds — the lane scan is an execution strategy,
//! not a new chunker — so the suite aims at the places where stripes could
//! disagree with position order: block and stripe edges, hits in several
//! lanes of one block, the shorter stripes and the one-lane tail at the
//! end of the candidate range, the forced cut.

mod oracle;

use proptest::prelude::*;

use aadedupe_chunking::{CdcChunker, CdcParams, DEFAULT_CDC};
use aadedupe_hashing::rabin::RollingHash;
use oracle::ScalarCdc;

/// The product's block geometry (`LANES` × `STRIPE` in `cdc.rs`).
const STRIPE: usize = 256;
const BLOCK: usize = 4 * STRIPE;

fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
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

/// Both scans over `data`, cut by cut, at the product's lane count and at
/// every other one the scan is generic over.
fn assert_same_cuts(params: CdcParams, data: &[u8]) {
    let (lanes, scalar) = (CdcChunker::new(params), ScalarCdc::new(params));
    let want = scalar.boundaries(data);
    assert_eq!(lanes.boundaries(data), want, "{params:?}, {} bytes", data.len());
    let mut start = 0;
    for &cut in &want {
        let rest = &data[start..];
        let len = cut - start;
        assert_eq!(lanes.first_cut_lanes::<1>(rest), len, "1 lane at {start}, {params:?}");
        assert_eq!(lanes.first_cut_lanes::<2>(rest), len, "2 lanes at {start}, {params:?}");
        assert_eq!(lanes.first_cut_lanes::<3>(rest), len, "3 lanes at {start}, {params:?}");
        assert_eq!(lanes.first_cut_lanes::<8>(rest), len, "8 lanes at {start}, {params:?}");
        // The stream contract: a cut decided with `max_size` bytes in
        // view is the cut decided with everything in view.
        if rest.len() > params.max_size {
            assert_eq!(lanes.first_cut(&rest[..params.max_size]), len, "clipped at {start}");
        }
        start = cut;
    }
}

/// Valid parameter sets whose candidate range `min_size ..= max_size`
/// straddles the block geometry every way: shorter than a block, a block
/// exactly, a block ± 1, many blocks — with windows from one byte to 64,
/// `window == min_size` included.
fn arb_params() -> impl Strategy<Value = CdcParams> {
    let slack = prop_oneof![Just(0usize), 0usize..300];
    let candidates = prop_oneof![
        1usize..BLOCK,
        Just(BLOCK - 1),
        Just(BLOCK),
        Just(BLOCK + 1),
        BLOCK + 2..6 * BLOCK,
    ];
    (1usize..=64, slack, 0u32..4, candidates).prop_map(|(window, slack, boost, candidates)| {
        let min_size = window + slack;
        let avg_size = min_size.next_power_of_two() << boost;
        CdcParams {
            min_size,
            avg_size,
            max_size: (min_size + candidates - 1).max(avg_size),
            window,
            ..DEFAULT_CDC
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any parameters, any data: identical cuts.
    #[test]
    fn lane_scan_matches_scalar_scan(
        params in arb_params(),
        len in prop_oneof![0usize..200, 0usize..40_000],
        seed in any::<u64>(),
        kind in 0u8..4,
    ) {
        let mut data = pseudo_random(len, seed);
        match kind {
            // A long boundary-free run in the middle: forced cuts, whole
            // blocks without a hit.
            1 => data.iter_mut().skip(len / 4).take(len / 2).for_each(|b| *b = 0),
            // Two symbols: the same few windows over and over.
            2 => data.iter_mut().for_each(|b| *b &= 1),
            3 => data.fill(0),
            _ => {}
        }
        assert_same_cuts(params, &data);
    }
}

/// The lengths around every default-parameter edge (`min_size`, a block
/// past it, `max_size`) and a few in between.
#[test]
fn default_parameter_length_edges() {
    for len in [
        0usize, 1, 2047, 2048, 2049, 3071, 3072, 3073, 4095, 4096, 4097, 5000, 16383, 16384,
        16385, 20000, 100_003,
    ] {
        assert_same_cuts(DEFAULT_CDC, &pseudo_random(len, len as u64 + 1));
        assert_same_cuts(DEFAULT_CDC, &vec![0u8; len]);
    }
}

#[test]
fn zero_runs_cut_at_max_size_and_leave_a_partial_tail() {
    let data = vec![0u8; 3 * DEFAULT_CDC.max_size + 777];
    assert_same_cuts(DEFAULT_CDC, &data);
    let cuts = CdcChunker::default().boundaries(&data);
    assert_eq!(cuts, [16384, 32768, 49152, 49929]);
}

/// The cut lengths in `from ..= data.len()` whose window matches, by the
/// stateful reference API: prime one window, roll to the end.
fn matching_cuts(params: &CdcParams, data: &[u8], from: usize) -> Vec<usize> {
    let (mask, window) = (params.mask(), params.window);
    let mut rh = RollingHash::new(window);
    data[from - window..from].iter().for_each(|&b| rh.push(b));
    let mut hits = Vec::new();
    for cut in from..=data.len() {
        if rh.value() & mask == 0x1d3 & mask {
            hits.push(cut);
        }
        if cut < data.len() {
            rh.roll(data[cut - window], data[cut]);
        }
    }
    hits
}

/// Eight bytes that, on a zero background, make exactly one window match:
/// the one they end. Every other window they overlap — cut off at either
/// edge — misses, so `plant` puts a hit at one candidate and nowhere else.
fn lone_hit_pattern(params: &CdcParams) -> [u8; 8] {
    let window = params.window;
    (1u64..)
        .map(|c| c.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes())
        .find(|pat| {
            let mut probe = vec![0u8; 2 * window + 8];
            probe[window..window + 8].copy_from_slice(pat);
            matching_cuts(params, &probe, window) == [window + 8]
        })
        .expect("one pattern in a few thousand qualifies")
}

/// `len` zero bytes with a hit planted at each of `candidates` (cut
/// lengths), and the proof that those are the only matching candidates.
fn plant(params: &CdcParams, len: usize, candidates: &[usize]) -> Vec<u8> {
    let pat = lone_hit_pattern(params);
    let mut data = vec![0u8; len];
    for &cut in candidates {
        data[cut - 8..cut].copy_from_slice(&pat);
    }
    let upper = len.min(params.max_size);
    let mut want: Vec<usize> = candidates.iter().copied().filter(|&c| c <= upper).collect();
    want.sort_unstable();
    assert_eq!(matching_cuts(params, &data[..upper], params.min_size), want, "the planted hits are the only ones");
    data
}

/// A single hit at every distinguished place of the scan's geometry: the
/// full blocks, the short-striped block after them, the odd candidates at
/// one lane, and a tail too short to stripe at all.
#[test]
fn a_lone_hit_is_found_wherever_it_falls() {
    let p = DEFAULT_CDC;
    // 10 003 bytes: candidates 2048 .. 10 003 are 7 full blocks, one block
    // of 4 stripes of 196, and 3 odd candidates at one lane, then the
    // forced cut at `upper` = 10 003.
    let len = 10_003;
    let mut places = vec![p.min_size, p.min_size + 1];
    for block in [0, 3] {
        for lane in 0..4 {
            let first = p.min_size + block * BLOCK + lane * STRIPE;
            places.extend([first, first + 1, first + STRIPE - 1]);
        }
    }
    let short = p.min_size + 7 * BLOCK;
    for lane in 0..4 {
        places.extend([short + lane * 196, short + lane * 196 + 1, short + lane * 196 + 195]);
    }
    places.extend([short - 1, len - 3, len - 2, len - 1]);
    for &place in &places {
        let data = plant(&p, len, &[place]);
        assert_eq!(CdcChunker::new(p).first_cut(&data), place);
        assert_same_cuts(p, &data);
    }
    // 150 candidates after the full blocks: stripes would be shorter than
    // the window that primes them, so all of them go at one lane.
    for place in [short, short + 1, short + 37, short + 148, short + 149] {
        let data = plant(&p, short + 150, &[place]);
        assert_eq!(CdcChunker::new(p).first_cut(&data), place);
        assert_same_cuts(p, &data);
    }
    // At `upper` exactly — end of data, then `max_size` — the hit and the
    // forced cut coincide; past it, it must not be seen at all.
    for (len, place) in [(len, len), (20_000, p.max_size), (20_000, p.max_size + 1)] {
        let data = plant(&p, len, &[place]);
        assert_eq!(CdcChunker::new(p).first_cut(&data), place.min(p.max_size));
        assert_same_cuts(p, &data);
    }
    // Nowhere: the forced cut.
    assert_eq!(CdcChunker::new(p).first_cut(&plant(&p, len, &[])), len);
}

/// Several hits: the lowest *position* wins, whichever lane or step of
/// the lock-step loop comes across it first.
#[test]
fn the_first_hit_in_position_order_wins() {
    let p = DEFAULT_CDC;
    // As above: 7 full blocks, then stripes of 196, then 3 odd candidates.
    let len = 10_003;
    let at = |block: usize, lane: usize, step: usize| p.min_size + block * BLOCK + lane * STRIPE + step;
    let short = |lane: usize, step: usize| p.min_size + 7 * BLOCK + lane * 196 + step;
    for hits in [
        // A later step of a lower lane beats an earlier step of a higher one.
        vec![at(0, 3, 10), at(0, 1, 200)],
        vec![at(2, 2, 0), at(2, 0, 255)],
        vec![short(3, 5), short(1, 150)],
        // Twice in one lane.
        vec![at(1, 1, 100), at(1, 1, 10)],
        vec![short(2, 190), short(2, 60)],
        // Lane 0 first in both orders.
        vec![at(0, 0, 200), at(0, 3, 0)],
        // A hit in lane 2 beats one in lane 0 of the *next* block.
        vec![at(0, 2, 17), at(1, 0, 5)],
        // Full block against short block against the odd candidates.
        vec![at(6, 3, 255), short(0, 99)],
        vec![short(3, 100), len - 1],
        // One in every lane.
        vec![at(4, 3, 1), at(4, 2, 2), at(4, 1, 3), at(4, 0, 4)],
        vec![short(3, 1), short(2, 2), short(1, 3), short(0, 4)],
    ] {
        let data = plant(&p, len, &hits);
        let first = *hits.iter().min().expect("nonempty");
        assert_eq!(CdcChunker::new(p).first_cut(&data), first, "{hits:?}");
        assert_same_cuts(p, &data);
    }
}

/// `window == min_size`: the first candidate's window starts at byte 0.
#[test]
fn window_as_large_as_the_minimum_chunk() {
    let p = CdcParams { min_size: 64, avg_size: 1024, max_size: 64 + 2 * BLOCK + 100, window: 64, ..DEFAULT_CDC };
    for place in [64, 65, 64 + STRIPE, 64 + BLOCK - 1, 64 + BLOCK, 64 + 2 * BLOCK + 50] {
        let data = plant(&p, 4000, &[place]);
        assert_eq!(CdcChunker::new(p).first_cut(&data), place);
        assert_same_cuts(p, &data);
    }
    for len in [0, 1, 63, 64, 65, 66, 64 + BLOCK, 64 + BLOCK + 1] {
        assert_same_cuts(p, &pseudo_random(len, 77));
    }
}

/// A window longer than a stripe: lanes prime from bytes that reach into
/// the next stripe, and short stripes give way to one lane early.
#[test]
fn window_longer_than_a_stripe() {
    let p = CdcParams { min_size: 512, avg_size: 1024, max_size: 8192, window: 300, ..DEFAULT_CDC };
    for place in [512, 513, 512 + STRIPE, 512 + BLOCK - 1, 512 + BLOCK, 512 + 3 * BLOCK + 700, 4999] {
        let data = plant(&p, 5000, &[place]);
        assert_eq!(CdcChunker::new(p).first_cut(&data), place);
        assert_same_cuts(p, &data);
    }
    for len in [511, 512, 513, 5000, 8191, 8192, 8193, 30_000] {
        assert_same_cuts(p, &pseudo_random(len, 99));
    }
}

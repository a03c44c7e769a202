//! Boundary-scan rates on this machine: the byte-serial Rabin scan (the
//! test oracle in `tests/oracle/`) against the striped lane scan, the lane
//! scan at 1 / 2 / 3 / 4 / 8 lanes, and FastCDC, at the default parameters
//! over 32 MiB of pseudo-random input — as one stream and as 14 KiB files,
//! the size of a document, each of which ends its scan in a partial block
//! — and of low-entropy input. MiB/s of input, best of fifteen
//! rounds with the contenders taking turns inside each round (the box is
//! shared: back-to-back passes see the same weather), plus the cost of
//! building a chunker. One JSON object on stdout.
//!
//! `cargo run --release -p aadedupe-chunking --example cdc_rates`
//!
//! `lanes_over_scalar` on the random buffer is the figure the lane scan
//! rests on: if a toolchain fails to overlap the lanes it drops towards 1.

#![expect(clippy::disallowed_methods, reason = "a benchmark reads the wall clock")]

#[path = "../tests/oracle/mod.rs"]
mod oracle;

use std::hint::black_box;
use std::time::Instant;

use aadedupe_chunking::{CdcChunker, ContentChunker, DEFAULT_CDC, DEFAULT_FASTCDC};

const TOTAL: usize = 32 << 20;
const ROUNDS: usize = 15;

type Pass<'a> = &'a dyn Fn(&[u8]) -> Vec<usize>;

/// Best-of-`ROUNDS` MiB/s of each pass over `data`, one pass of each per
/// round.
fn rates<const K: usize>(data: &[u8], passes: [Pass; K]) -> [f64; K] {
    let mut best = [f64::INFINITY; K];
    for _ in 0..ROUNDS {
        for (best, pass) in best.iter_mut().zip(passes) {
            let t = Instant::now();
            black_box(pass(black_box(data)));
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    best.map(|secs| (TOTAL >> 20) as f64 / secs)
}

/// `CdcChunker::boundaries` at `N` lanes.
fn boundaries_at<const N: usize>(chunker: &CdcChunker, data: &[u8]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut start = 0;
    while start < data.len() {
        start += chunker.first_cut_lanes::<N>(&data[start..]);
        cuts.push(start);
    }
    cuts
}

fn main() {
    // xorshift64: incompressible, cuts land where the mask says they should.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let random: Vec<u8> = (0..TOTAL / 8)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()
        })
        .collect();
    // Half zeros (every chunk a forced max-size cut), half one repeating
    // sentence (the same few cut points over and over).
    let text = b"the quick brown fox jumps over the lazy dog; ";
    let mut low_entropy = vec![0u8; TOTAL / 2];
    low_entropy.extend(text.iter().cycle().take(TOTAL / 2));

    let scalar = oracle::ScalarCdc::new(DEFAULT_CDC);
    let lanes = CdcChunker::new(DEFAULT_CDC);
    let fast = ContentChunker::new(DEFAULT_FASTCDC);

    // Each `file`-sized piece chunked on its own, cuts concatenated.
    fn per_file(data: &[u8], file: usize, cut: impl Fn(&[u8]) -> Vec<usize>) -> Vec<usize> {
        data.chunks(file).flat_map(cut).collect()
    }

    let mut fields = Vec::new();
    for (name, data, file) in [
        ("random", &random, TOTAL),
        ("random_14k_files", &random, 14 << 10),
        ("low_entropy", &low_entropy, TOTAL),
    ] {
        let want = per_file(data, file, |d| scalar.boundaries(d));
        let got = per_file(data, file, |d| lanes.boundaries(d));
        assert_eq!(got, want, "{name}: the lane scan moved a cut");
        let [scalar_rate, lane_rate, fast_rate] = rates(
            data,
            [
                &|d| per_file(d, file, |d| scalar.boundaries(d)),
                &|d| per_file(d, file, |d| lanes.boundaries(d)),
                &|d| per_file(d, file, |d| fast.boundaries(d)),
            ],
        );
        fields.push(format!(
            "\"{name}\": {{\"chunks\": {}, \"scalar_mib_s\": {scalar_rate:.0}, \
             \"lanes_mib_s\": {lane_rate:.0}, \"lanes_over_scalar\": {:.2}, \
             \"fastcdc_mib_s\": {fast_rate:.0}, \"fastcdc_over_lanes\": {:.2}}}",
            want.len(),
            lane_rate / scalar_rate,
            fast_rate / lane_rate
        ));
    }

    let by_lanes = rates(
        &random,
        [
            &|d| boundaries_at::<1>(&lanes, d),
            &|d| boundaries_at::<2>(&lanes, d),
            &|d| boundaries_at::<3>(&lanes, d),
            &|d| boundaries_at::<4>(&lanes, d),
            &|d| boundaries_at::<8>(&lanes, d),
        ],
    );
    let by_lanes: Vec<String> =
        [1, 2, 3, 4, 8].iter().zip(by_lanes).map(|(n, r)| format!("\"{n}\": {r:.0}")).collect();
    fields.push(format!("\"random_mib_s_by_lanes\": {{{}}}", by_lanes.join(", ")));

    const BUILDS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..BUILDS {
        black_box(ContentChunker::new(black_box(DEFAULT_CDC)));
    }
    let new_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(BUILDS);
    fields.push(format!("\"content_chunker_new_us\": {new_us:.2}"));

    println!("{{{}}}", fields.join(", "));
}

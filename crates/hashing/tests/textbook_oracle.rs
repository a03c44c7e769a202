//! Differential tests: the straight-line MD5 / SHA-1 kernels, the
//! four-wide `md5x4`, the Rabin-96 kernel and the
//! `Fingerprint::compute_many` batch seam against the textbook
//! implementations in `textbook/`, and Rabin-96's digest bytes pinned.

mod textbook;

use proptest::prelude::*;

use aadedupe_hashing::{md5, md5x4, rabin96, sha1, to_hex, Fingerprint, HashAlgorithm, Md5, Sha1};

fn textbook_md5(data: &[u8]) -> [u8; 16] {
    let mut h = textbook::md5::Md5::new();
    h.update(data);
    h.finalize()
}

fn textbook_sha1(data: &[u8]) -> [u8; 20] {
    let mut h = textbook::sha1::Sha1::new();
    h.update(data);
    h.finalize()
}

/// `n` bytes that differ from message to message (`salt`) and from block
/// to block.
fn bytes(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8) ^ salt).collect()
}

proptest! {
    /// Any message, fed in any pieces, digests as the textbook says.
    #[test]
    fn kernels_match_textbook(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        splits in proptest::collection::vec(0usize..20_000, 0..8),
    ) {
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();

        let mut m = Md5::new();
        let mut s = Sha1::new();
        for w in cuts.windows(2) {
            m.update(&data[w[0]..w[1]]);
            s.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(m.finalize(), textbook_md5(&data));
        prop_assert_eq!(s.finalize(), textbook_sha1(&data));
        prop_assert_eq!(md5(&data), textbook_md5(&data));
        prop_assert_eq!(sha1(&data), textbook_sha1(&data));
    }

    /// Any message up to ~100 KB — many table steps, every tail shape —
    /// fingerprints as the schoolbook definition says.
    #[test]
    fn rabin96_matches_textbook(data in proptest::collection::vec(any::<u8>(), 0..100_000)) {
        prop_assert_eq!(rabin96(&data), textbook::rabin96::rabin96(&data));
    }
}

/// Every length through several whole steps of each kernel width, starting
/// at every alignment of an 8-byte word.
#[test]
fn rabin96_every_short_length_and_offset_matches_textbook() {
    let buf = bytes(300 + 8, 0xa7);
    for off in 0..8 {
        for n in 0..=300usize {
            let data = &buf[off..off + n];
            assert_eq!(rabin96(data), textbook::rabin96::rabin96(data), "len={n} off={off}");
        }
    }
}

/// The first `n` bytes of `hash_rates`' xorshift64 stream.
fn xorshift(n: usize) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut out: Vec<u8> = (0..n.div_ceil(8))
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()
        })
        .collect();
    out.truncate(n);
    out
}

/// Rabin-96 digests are stored in every manifest and container: a kernel
/// change that moves one byte turns every existing repository's whole-file
/// duplicates into misses. These are the bytes the format has always had.
#[test]
fn rabin96_golden_digests() {
    let cases: [(&[u8], &str); 2] = [
        (b"", "0100000001000000c9c05130"),
        (b"abc", "63626101636261017d8f0737"),
    ];
    for (data, want) in cases {
        assert_eq!(to_hex(&rabin96(data)), want, "{data:?}");
    }
    for (n, want) in [
        (15, "242b8015e34f5b31b94d61a6"),
        (16, "17252b0006a3435bb36d6bd0"),
        (17, "3617252b80c6b543eada9094"),
        (31, "bb89f62597de067c3f900076"),
        (1 << 20, "35064d4f36404b6eb20cab81"),
        ((1 << 20) + 13, "41e6726c946ab94b582203e3"),
    ] {
        assert_eq!(to_hex(&rabin96(&xorshift(n))), want, "xorshift({n})");
    }
}

/// Every length across the first four blocks — each padding shape (one
/// block, two blocks, exactly full) at each block count — one-shot and
/// split at every third position.
#[test]
fn every_short_length_matches_textbook() {
    for n in 0..=260usize {
        let data = bytes(n, 0x5a);
        let (want_md5, want_sha1) = (textbook_md5(&data), textbook_sha1(&data));
        assert_eq!(md5(&data), want_md5, "md5 len={n}");
        assert_eq!(sha1(&data), want_sha1, "sha1 len={n}");
        for cut in (0..=n).step_by(3) {
            let (mut m, mut s) = (Md5::new(), Sha1::new());
            m.update(&data[..cut]);
            m.update(&data[cut..]);
            s.update(&data[..cut]);
            s.update(&data[cut..]);
            assert_eq!(m.finalize(), want_md5, "md5 len={n} cut={cut}");
            assert_eq!(s.finalize(), want_sha1, "sha1 len={n} cut={cut}");
        }
    }
}

#[test]
fn md5x4_is_four_md5() {
    for n in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 8191, 8192] {
        let msgs = [bytes(n, 1), bytes(n, 2), bytes(n, 3), bytes(n, 4)];
        let got = md5x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(got[lane], textbook_md5(msg), "len={n} lane={lane}");
        }
    }
}

/// Unequal lengths cannot share lanes; the answer is still four digests.
#[test]
fn md5x4_of_unequal_lengths_is_four_md5() {
    for odd in 0..4 {
        let mut msgs = [bytes(200, 1), bytes(200, 2), bytes(200, 3), bytes(200, 4)];
        msgs[odd] = bytes(136, 9);
        let got = md5x4([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
        for (lane, msg) in msgs.iter().enumerate() {
            assert_eq!(got[lane], textbook_md5(msg), "odd={odd} lane={lane}");
        }
    }
}

/// `compute_many` is `map(compute)`: for lists of 0..=9 chunks, all of one
/// length except one, with the odd one at every position (so every way a
/// run of four can be broken), and for lists of all-equal and all-distinct
/// lengths.
#[test]
fn compute_many_is_map_compute() {
    let mut lists: Vec<Vec<Vec<u8>>> = Vec::new();
    for n in 0..=9usize {
        lists.push((0..n).map(|i| bytes(300, i as u8)).collect());
        lists.push((0..n).map(|i| bytes(64 * i + 7, i as u8)).collect());
        for odd in 0..n {
            lists.push(
                (0..n).map(|i| bytes(if i == odd { 90 } else { 300 }, i as u8)).collect(),
            );
        }
    }
    for algo in [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1] {
        for list in &lists {
            let chunks: Vec<&[u8]> = list.iter().map(Vec::as_slice).collect();
            let want: Vec<Fingerprint> =
                chunks.iter().map(|c| Fingerprint::compute(algo, c)).collect();
            let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            assert_eq!(Fingerprint::compute_many(algo, &chunks), want, "{algo} lens={lens:?}");
        }
    }
}

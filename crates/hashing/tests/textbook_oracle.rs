//! Differential tests: the straight-line MD5 / SHA-1 kernels, the
//! many-message `md5_many`, the Rabin-96 kernel and the
//! `Fingerprint::compute_many` batch seam against the textbook
//! implementations in `textbook/`, and Rabin-96's digest bytes pinned.

mod textbook;

use proptest::prelude::*;

use aadedupe_hashing::{
    md5, md5_many, rabin96, sha1, to_hex, Fingerprint, HashAlgorithm, Md5, Sha1,
};

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
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
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

/// The lengths at which MD5's padding changes shape: empty, one byte, the
/// last length with one padded block (55), the first with two (56), a
/// block short of full, full, one over, and the same at two blocks and at
/// the static chunk size.
const BOUNDARY_LENGTHS: [usize; 11] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 8191, 8192];

/// Asserts `md5_many(msgs)` is the textbook digest of each message.
fn assert_md5_many(msgs: &[Vec<u8>], label: &str) {
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let got = md5_many(&refs);
    assert_eq!(got.len(), msgs.len(), "{label}: digest count");
    for (i, (got, msg)) in got.iter().zip(msgs).enumerate() {
        assert_eq!(*got, textbook_md5(msg), "{label}: message {i} of len {}", msg.len());
    }
}

/// Four messages of one length, at every padding boundary.
#[test]
fn md5_many_of_four_equal_lengths_is_four_md5() {
    for n in BOUNDARY_LENGTHS {
        let msgs: Vec<Vec<u8>> = (1..=4).map(|salt| bytes(n, salt)).collect();
        assert_md5_many(&msgs, &format!("len={n}"));
    }
}

/// Four messages, one of a different length at each position.
#[test]
fn md5_many_of_unequal_lengths_is_four_md5() {
    for odd in 0..4 {
        let mut msgs: Vec<Vec<u8>> = (1..=4).map(|salt| bytes(200, salt)).collect();
        msgs[odd] = bytes(136, 9);
        assert_md5_many(&msgs, &format!("odd={odd}"));
    }
}

/// Lists of 0..=9 messages whose lengths walk the padding boundaries from
/// every start with every stride: all-equal lists (stride 0), every pair of
/// boundary lengths side by side, and lists in which lanes finish in every
/// order.
#[test]
fn md5_many_over_padding_boundary_lists_is_md5() {
    let k = BOUNDARY_LENGTHS.len();
    for count in 0..=9usize {
        for start in 0..k {
            for stride in 0..k {
                let lens: Vec<usize> =
                    (0..count).map(|i| BOUNDARY_LENGTHS[(start + i * stride) % k]).collect();
                let msgs: Vec<Vec<u8>> =
                    lens.iter().enumerate().map(|(i, &n)| bytes(n, i as u8)).collect();
                assert_md5_many(&msgs, &format!("lens={lens:?}"));
            }
        }
    }
}

/// One long message beside forty short ones: while it occupies one lane,
/// each of the others is emptied and refilled many times.
#[test]
fn md5_many_refills_lanes_beside_a_long_message() {
    for long_at in [0, 1, 20, 40] {
        let mut msgs: Vec<Vec<u8>> = (0..40).map(|i| bytes(7 + 37 * i, i as u8)).collect();
        msgs.insert(long_at, bytes(64 << 10, 0xee));
        assert_md5_many(&msgs, &format!("64 KiB message at {long_at}"));
    }
}

#[test]
fn md5_many_of_nothing_is_nothing() {
    assert_eq!(md5_many(&[]), Vec::<[u8; 16]>::new());
}

proptest! {
    /// Any list of up to 64 messages of any lengths up to 20 000 bytes.
    #[test]
    fn md5_many_matches_textbook(
        spec in proptest::collection::vec((0usize..20_000, any::<u8>()), 0..=64),
    ) {
        let msgs: Vec<Vec<u8>> = spec.iter().map(|&(n, salt)| bytes(n, salt)).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let want: Vec<[u8; 16]> = msgs.iter().map(|m| textbook_md5(m)).collect();
        prop_assert_eq!(md5_many(&refs), want);
    }
}

/// `compute_many` is `map(compute)`: for lists of 0..=9 chunks, all of one
/// length except one, with the odd one at every position (so every way a
/// run of four can be broken); for lists of all-equal and all-distinct
/// lengths; and for lists of up to 18 pseudo-random mixed lengths.
#[test]
fn compute_many_is_map_compute() {
    let mut lists: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for n in 0..=9usize {
        lists.push((0..n).map(|i| bytes(300, i as u8)).collect());
        lists.push((0..n).map(|i| bytes(64 * i + 7, i as u8)).collect());
        lists.push((0..n).map(|i| bytes(8191 - 61 * i, i as u8)).collect());
        // Mixed lengths: 4096 plus a pseudo-random 0..8192 each.
        lists.push(
            (0..2 * n)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    bytes(4096 + (x % 8192) as usize, i as u8)
                })
                .collect(),
        );
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

//! Shift-resilience regression tests: the reason CDC exists.
//!
//! Prepend, insert and delete edits shift every downstream byte offset;
//! a content-defined chunker must re-synchronise within a bounded window
//! so the changed-chunk fraction stays small. Rabin's resilience is the
//! established baseline; these tests pin FastCDC to the same contract so
//! a regression in the gear scan (e.g. a mask that accidentally couples
//! to absolute position) cannot land silently.

#![expect(clippy::disallowed_methods, reason = "test code: chunk sets are compared as sets")]

use std::collections::HashSet;

use aadedupe_chunking::{CdcAlgorithm, Chunker, ContentChunker, DEFAULT_CDC};

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

fn digests(chunker: &ContentChunker, data: &[u8]) -> HashSet<[u8; 20]> {
    chunker.chunk(data).iter().map(|s| aadedupe_hashing::sha1(s.slice(data))).collect()
}

/// Fraction of original chunks lost after an edit, per algorithm.
fn churn(algorithm: CdcAlgorithm, data: &[u8], edited: &[u8]) -> (usize, usize) {
    let chunker = ContentChunker::new(DEFAULT_CDC.with_algorithm(algorithm));
    let before = digests(&chunker, data);
    let after = digests(&chunker, edited);
    (before.difference(&after).count(), before.len())
}

/// Every edit in this suite may dirty the chunk it touches plus a short
/// re-synchronisation tail; with ~250 chunks per buffer, losing more
/// than 8 means boundaries stopped being content-defined.
const MAX_LOST: usize = 8;

#[test]
fn prepend_shifts_every_offset_but_almost_no_chunks() {
    let data = pseudo_random(2 << 20, 3);
    for k in [1usize, 7, 100] {
        let mut edited = pseudo_random(k, 77);
        edited.extend_from_slice(&data);
        for algorithm in CdcAlgorithm::ALL {
            let (lost, total) = churn(algorithm, &data, &edited);
            assert!(
                lost <= MAX_LOST,
                "{algorithm}: prepend {k}B lost {lost}/{total} chunks"
            );
        }
    }
}

#[test]
fn mid_stream_insert_is_localized() {
    let data = pseudo_random(2 << 20, 5);
    for (at, k) in [(100_000usize, 1usize), (1_000_000, 64), (1_900_000, 4096)] {
        let mut edited = data.clone();
        let patch = pseudo_random(k, 123);
        edited.splice(at..at, patch);
        for algorithm in CdcAlgorithm::ALL {
            let (lost, total) = churn(algorithm, &data, &edited);
            assert!(
                lost <= MAX_LOST,
                "{algorithm}: insert {k}B@{at} lost {lost}/{total} chunks"
            );
        }
    }
}

#[test]
fn mid_stream_delete_is_localized() {
    let data = pseudo_random(2 << 20, 9);
    for (at, k) in [(50_000usize, 1usize), (700_000, 512), (1_500_000, 10_000)] {
        let mut edited = data.clone();
        edited.drain(at..at + k);
        for algorithm in CdcAlgorithm::ALL {
            let (lost, total) = churn(algorithm, &data, &edited);
            assert!(
                lost <= MAX_LOST,
                "{algorithm}: delete {k}B@{at} lost {lost}/{total} chunks"
            );
        }
    }
}

#[test]
fn scattered_multi_edit_churn_is_proportional_to_edit_count() {
    // Five edits spread across the buffer: churn must scale with the
    // number of edit sites, not with file size — no cascade between
    // sites.
    let data = pseudo_random(4 << 20, 13);
    let sites = [300_000usize, 1_200_000, 2_100_000, 3_000_000, 3_900_000];
    let mut edited = data.clone();
    for (i, &at) in sites.iter().rev().enumerate() {
        edited.splice(at..at, pseudo_random(16 + i, 55 + i as u64));
    }
    for algorithm in CdcAlgorithm::ALL {
        let (lost, total) = churn(algorithm, &data, &edited);
        assert!(
            lost <= sites.len() * MAX_LOST,
            "{algorithm}: {} edits lost {lost}/{total} chunks",
            sites.len()
        );
    }
}

#[test]
fn fastcdc_resynchronises_as_well_as_the_rabin_baseline() {
    // Head-to-head on the identical edit: FastCDC's lost-chunk count may
    // not exceed Rabin's by more than the small fixed margin that
    // different cut densities explain. This is the regression tripwire:
    // normalization must not have traded resilience for speed.
    let data = pseudo_random(4 << 20, 17);
    let mut edited = data.clone();
    edited.splice(2_000_000..2_000_000, b"edit".iter().copied());
    let (rabin_lost, _) = churn(CdcAlgorithm::Rabin, &data, &edited);
    let (fast_lost, total) = churn(CdcAlgorithm::FastCdc, &data, &edited);
    assert!(
        fast_lost <= rabin_lost + 4,
        "fastcdc lost {fast_lost}/{total}, rabin baseline lost {rabin_lost}"
    );
}

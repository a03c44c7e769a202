#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Figure 4: deduplication throughput of different implementations.
//!
//! The paper crosses three chunking methods (WFC, SC, CDC) with three hash
//! functions (Rabin, MD5, SHA-1) and measures end-to-end dedup throughput
//! (chunk + fingerprint + index) on a 60 MB dataset. Expected shape:
//! simpler chunking ⇒ higher throughput (WFC > SC > CDC), weaker hash ⇒
//! higher throughput (Rabin > MD5 > SHA-1), and for CDC the hash choice
//! barely matters because boundary detection dominates.
//!
//! The three hash columns fingerprint one chunk at a time, as the paper
//! did; "MD5 batched" hashes each file's chunks as one batch
//! (`Fingerprint::compute_many`), as the engine does for a file of a
//! container or more (such a file closes its hash batch) — four chunks
//! wide whatever their lengths, so it differs from the MD5 column on the
//! SC and CDC rows, and not on the WFC row, whose batch is one chunk.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin fig4_dedup_throughput`

use std::time::Instant;

use aadedupe_bench::{fmt_rate, print_table};
use aadedupe_chunking::{CdcChunker, Chunker, ScChunker, WfcChunker};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{ChunkEntry, MonolithicIndex};
use aadedupe_workload::Prng;

fn corpus() -> Vec<Vec<u8>> {
    let mb: usize = std::env::var("AA_FIG4_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let file_size = 4 << 20;
    (0..(mb << 20) / file_size)
        .map(|i| {
            let mut v = vec![0u8; file_size];
            Prng::derive(&[0xF164, i as u64]).fill(&mut v);
            v
        })
        .collect()
}

/// Full dedup pass: chunk, fingerprint (one chunk at a time, or each
/// file's chunks as one batch), index lookup/insert.
fn dedup_pass(files: &[Vec<u8>], chunker: &dyn Chunker, algo: HashAlgorithm, batched: bool) -> f64 {
    let index = MonolithicIndex::new(1 << 20);
    let start = Instant::now();
    let dedup = |fp: Fingerprint, len: usize| {
        if index.lookup(&fp).is_none() {
            index.insert(fp, ChunkEntry::new(len as u64, 0, 0));
        }
    };
    for f in files {
        let spans = chunker.chunk(f);
        if batched {
            let pieces: Vec<&[u8]> = spans.iter().map(|span| span.slice(f)).collect();
            for (fp, span) in Fingerprint::compute_many(algo, &pieces).into_iter().zip(&spans) {
                dedup(fp, span.len);
            }
        } else {
            for span in &spans {
                dedup(Fingerprint::compute(algo, span.slice(f)), span.len);
            }
        }
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let files = corpus();
    let total: usize = files.iter().map(Vec::len).sum();
    println!(
        "Figure 4 — dedup throughput (chunk + fingerprint + index) over {} MiB",
        total >> 20
    );

    let chunkers: [(&str, Box<dyn Chunker>); 3] = [
        ("WFC", Box::new(WfcChunker::new())),
        ("SC", Box::new(ScChunker::new(8 * 1024))),
        ("CDC", Box::new(CdcChunker::default())),
    ];
    let algos = [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1];

    let mut rows = Vec::new();
    let mut tp = std::collections::HashMap::new();
    let mut md5_batched = std::collections::HashMap::new();
    for (cname, chunker) in &chunkers {
        let mut row = vec![cname.to_string()];
        for algo in algos {
            let t = dedup_pass(&files, chunker.as_ref(), algo, false);
            let rate = total as f64 / t;
            tp.insert((*cname, algo), rate);
            row.push(fmt_rate(rate));
        }
        let batched = total as f64 / dedup_pass(&files, chunker.as_ref(), HashAlgorithm::Md5, true);
        md5_batched.insert(*cname, batched);
        row.push(fmt_rate(batched));
        rows.push(row);
    }
    print_table(
        "Fig. 4: dedup throughput, chunking × hash",
        &["chunking", "Rabin hash", "MD5", "SHA-1", "MD5 batched"],
        &rows,
    );

    println!("\nshape checks (paper Fig. 4):");
    let get = |c: &str, a: HashAlgorithm| tp[&(c, a)];
    println!(
        "  WFC ≥ SC ≥ CDC (with Rabin): {}",
        if get("WFC", HashAlgorithm::Rabin96) >= get("SC", HashAlgorithm::Rabin96)
            && get("SC", HashAlgorithm::Rabin96) >= get("CDC", HashAlgorithm::Rabin96)
        {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "  Rabin ≥ MD5 ≥ SHA-1 (with SC, one chunk at a time): {}",
        if get("SC", HashAlgorithm::Rabin96) >= get("SC", HashAlgorithm::Md5)
            && get("SC", HashAlgorithm::Md5) >= get("SC", HashAlgorithm::Sha1)
        {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "  MD5 ≥ SHA-1 as the engine hashes SC (batched): {}",
        if md5_batched["SC"] >= get("SC", HashAlgorithm::Sha1) { "ok" } else { "VIOLATED" }
    );
    let cdc_spread = (get("CDC", HashAlgorithm::Rabin96) - get("CDC", HashAlgorithm::Sha1)).abs()
        / get("CDC", HashAlgorithm::Sha1);
    println!(
        "  CDC insensitive to hash (<60% spread): {} ({:.0}%)",
        if cdc_spread < 0.6 { "ok" } else { "VIOLATED" },
        100.0 * cdc_spread
    );
}

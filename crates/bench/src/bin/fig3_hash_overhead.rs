#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Figure 3: computational overhead of typical hash functions.
//!
//! The paper measures Rabin, MD5 and SHA-1 execution times for whole-file
//! chunking (WFC) and 8 KiB static chunking (SC) over a 60 MB dataset, and
//! observes (a) Rabin < MD5 < SHA-1, and (b) WFC time ≈ SC time for the
//! same hash — the cost is in the hash itself, not in chunk bookkeeping
//! (Observation 4).
//!
//! Those columns hash one chunk at a time, as the paper did. The last two
//! hash each file's chunks as one batch (`Fingerprint::compute_many`), as
//! the engine does for a file of a container or more (such a file closes
//! its hash batch): MD5 then runs four chunks wide, which is where static
//! chunks get their cheap strong hash on a superscalar core.
//! (Single-stream MD5 is one serial dependency chain and no longer beats
//! SHA-1 there; see EXPERIMENTS.md.)
//!
//! Run: `cargo run --release -p aadedupe-bench --bin fig3_hash_overhead`

use std::time::Instant;

use aadedupe_bench::{fmt_rate, print_table};
use aadedupe_chunking::{Chunker, ScChunker, WfcChunker};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_workload::Prng;

/// Builds the 60 MB test corpus as a set of ~4 MiB "files".
fn corpus() -> Vec<Vec<u8>> {
    let mb: usize = std::env::var("AA_FIG3_MB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let file_size = 4 << 20;
    let files = (mb << 20) / file_size;
    (0..files)
        .map(|i| {
            let mut v = vec![0u8; file_size];
            Prng::derive(&[0xF163, i as u64]).fill(&mut v);
            v
        })
        .collect()
}

/// Total time to chunk `files` with `chunker` and fingerprint every chunk
/// with `algo` — one chunk at a time, or each file's chunks as one batch.
fn run(
    files: &[Vec<u8>],
    chunker: &dyn Chunker,
    algo: HashAlgorithm,
    batched: bool,
) -> (f64, usize) {
    let start = Instant::now();
    let mut chunks = 0usize;
    for f in files {
        let spans = chunker.chunk(f);
        chunks += spans.len();
        if batched {
            let pieces: Vec<&[u8]> = spans.iter().map(|span| span.slice(f)).collect();
            std::hint::black_box(Fingerprint::compute_many(algo, &pieces));
        } else {
            for span in &spans {
                std::hint::black_box(Fingerprint::compute(algo, span.slice(f)));
            }
        }
    }
    (start.elapsed().as_secs_f64(), chunks)
}

fn main() {
    let files = corpus();
    let total: usize = files.iter().map(Vec::len).sum();
    println!(
        "Figure 3 — hash computation overhead over a {} MiB dataset",
        total >> 20
    );

    let wfc = WfcChunker::new();
    let sc = ScChunker::new(8 * 1024);
    let algos = [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1];

    let mut rows = Vec::new();
    let mut times = std::collections::HashMap::new();
    for algo in algos {
        let (t_wfc, c_wfc) = run(&files, &wfc, algo, false);
        let (t_sc, c_sc) = run(&files, &sc, algo, false);
        let (t_batched, _) = run(&files, &sc, algo, true);
        times.insert(algo, (t_wfc, t_sc, t_batched));
        rows.push(vec![
            algo.name().to_string(),
            format!("{:.3} s", t_wfc),
            format!("{c_wfc}"),
            format!("{:.3} s", t_sc),
            format!("{c_sc}"),
            fmt_rate(total as f64 / t_sc),
            format!("{:.3} s", t_batched),
            fmt_rate(total as f64 / t_batched),
        ]);
    }
    print_table(
        "Fig. 3: execution time per hash × chunking",
        &[
            "hash",
            "WFC time",
            "WFC chunks",
            "SC time",
            "SC chunks",
            "SC throughput",
            "SC batched",
            "batched throughput",
        ],
        &rows,
    );

    let (r_wfc, r_sc, _) = times[&HashAlgorithm::Rabin96];
    let (m_wfc, m_sc, m_batched) = times[&HashAlgorithm::Md5];
    let (s_wfc, s_sc, s_batched) = times[&HashAlgorithm::Sha1];
    println!("\nshape checks (paper Fig. 3):");
    println!(
        "  Rabin < MD5 < SHA-1, one chunk at a time: {} ({:.2}s < {:.2}s < {:.2}s)",
        if r_sc < m_sc && m_sc < s_sc { "ok" } else { "VIOLATED" },
        r_sc, m_sc, s_sc
    );
    println!(
        "  MD5 < SHA-1 as the engine hashes SC (batched): {} ({:.2}s < {:.2}s)",
        if m_batched < s_batched { "ok" } else { "VIOLATED" },
        m_batched, s_batched
    );
    println!(
        "  WFC ≈ SC per hash (±25%), one chunk at a time: {}",
        if (r_wfc - r_sc).abs() / r_sc < 0.25
            && (m_wfc - m_sc).abs() / m_sc < 0.25
            && (s_wfc - s_sc).abs() / s_sc < 0.25
        {
            "ok"
        } else {
            "VIOLATED"
        }
    );
}

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Observation 2: cross-application data sharing is negligible.
//!
//! The paper compares chunk fingerprints across applications after
//! intra-application dedup and finds exactly one shared 16 KB chunk in
//! ~41 GB. This binary repeats the measurement on the synthetic corpus:
//! chunk every file with 8 KiB CDC + SHA-1, build one fingerprint set per
//! application, and intersect the sets pairwise.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin obs2_cross_app_sharing`

use std::collections::{HashMap, HashSet};

use aadedupe_bench::{fmt_bytes, print_table, EvalConfig};
use aadedupe_chunking::{CdcChunker, Chunker};
use aadedupe_filetype::AppType;
use aadedupe_hashing::sha1;
use aadedupe_workload::{DatasetSpec, Generator};

fn main() {
    let cfg = EvalConfig::from_env();
    println!(
        "Observation 2 — cross-application chunk sharing over a {} dataset",
        fmt_bytes(cfg.dataset_bytes)
    );
    let mut generator = Generator::new(DatasetSpec::paper_scaled(cfg.dataset_bytes), cfg.seed);
    let snapshot = generator.snapshot(0);
    let cdc = CdcChunker::default();

    // Per-application fingerprint sets (intra-app dedup is the set itself).
    let mut sets: HashMap<AppType, HashSet<[u8; 20]>> = HashMap::new();
    let mut chunk_bytes: HashMap<AppType, u64> = HashMap::new();
    for f in &snapshot.files {
        let data = f.materialize();
        let set = sets.entry(f.app).or_default();
        for span in cdc.chunk(&data) {
            let bytes = span.slice(&data);
            set.insert(sha1(bytes));
            *chunk_bytes.entry(f.app).or_default() += bytes.len() as u64;
        }
    }

    let mut rows = Vec::new();
    let mut total_shared = 0usize;
    let apps: Vec<AppType> = AppType::ALL
        .into_iter()
        .filter(|a| sets.contains_key(a))
        .collect();
    for (i, a) in apps.iter().enumerate() {
        for b in apps.iter().skip(i + 1) {
            let shared = sets[a].intersection(&sets[b]).count();
            total_shared += shared;
            if shared > 0 {
                rows.push(vec![a.name().into(), b.name().into(), shared.to_string()]);
            }
        }
    }
    if rows.is_empty() {
        rows.push(vec!["(none)".into(), "(none)".into(), "0".into()]);
    }
    print_table(
        "Cross-application duplicate chunks (pairwise)",
        &["app A", "app B", "shared chunks"],
        &rows,
    );

    let total_chunks: usize = sets.values().map(std::collections::HashSet::len).sum();
    println!(
        "\ntotal unique chunks: {total_chunks}; shared across applications: {total_shared} \
         ({:.4}%)   (paper: one 16 KB chunk in ~41 GB)",
        100.0 * total_shared as f64 / total_chunks.max(1) as f64
    );
    println!(
        "implication: partitioning the index by application loses ~nothing, enabling \
         small independent indexes (Fig. 6)."
    );
}

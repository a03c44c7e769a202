#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Table 1: chunk-level data redundancy in typical PC applications.
//!
//! For each of the twelve application types, generates a single-type
//! corpus, removes whole-file duplicates (as the paper does before its
//! chunk-level measurement), then reports the dedup ratio achieved by
//! 8 KiB static chunking (SC) and by 8 KiB-average content-defined
//! chunking (CDC), next to the paper's measured values.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin table1_redundancy`

use std::collections::{HashMap, HashSet};

use aadedupe_bench::print_table;
use aadedupe_chunking::{CdcChunker, Chunker, ScChunker};
use aadedupe_filetype::AppType;
use aadedupe_hashing::sha1;
use aadedupe_workload::{AppSpec, DatasetSpec, Generator};

/// Dedup ratio of `files` under `chunker` (after file-level dedup).
fn chunk_dr(files: &[Vec<u8>], chunker: &dyn Chunker) -> f64 {
    let mut unique: HashMap<[u8; 20], u64> = HashMap::new();
    let mut total = 0u64;
    for f in files {
        for span in chunker.chunk(f) {
            let bytes = span.slice(f);
            total += bytes.len() as u64;
            unique.entry(sha1(bytes)).or_insert(bytes.len() as u64);
        }
    }
    let stored: u64 = unique.values().sum();
    if stored == 0 {
        1.0
    } else {
        total as f64 / stored as f64
    }
}

fn main() {
    let per_type_bytes: u64 = std::env::var("AA_TYPE_MB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(24)
        << 20;
    println!(
        "Table 1 — per-application chunk-level redundancy over {} MiB/type corpora",
        per_type_bytes >> 20
    );

    let sc = ScChunker::new(8 * 1024);
    let cdc = CdcChunker::default();
    let mut rows = Vec::new();

    for app in AppType::TABLE1 {
        // Single-type dataset, calibrated like the full evaluation corpus.
        let scale = (app.profile().dataset_mb as f64 * 1024.0 * 1024.0
            / per_type_bytes as f64)
            .max(1.0)
            .powf(0.7);
        let spec = DatasetSpec {
            apps: vec![AppSpec::calibrated(app, per_type_bytes, scale)],
            tiny: aadedupe_workload::model::TinySpec {
                initial_files: 0,
                mean_file_size: 1024,
                weekly_new_files: 0,
                weekly_modify_fraction: 0.0,
                weekly_delete_fraction: 0.0,
            },
        };
        let mut generator = Generator::new(spec, 0x7AB1E ^ app.tag() as u64);
        let snapshot = generator.snapshot(0);

        // File-level dedup first.
        let mut seen_files: HashSet<[u8; 20]> = HashSet::new();
        let mut files: Vec<Vec<u8>> = Vec::new();
        let mut mean_size = 0u64;
        for f in &snapshot.files {
            let data = f.materialize();
            mean_size += data.len() as u64;
            if seen_files.insert(sha1(&data)) {
                files.push(data);
            }
        }
        mean_size /= snapshot.files.len().max(1) as u64;

        let sc_dr = chunk_dr(&files, &sc);
        let cdc_dr = chunk_dr(&files, &cdc);
        let p = app.profile();
        rows.push(vec![
            app.name().to_string(),
            format!("{}", files.iter().map(|f| f.len() as u64).sum::<u64>() >> 20),
            aadedupe_bench::fmt_bytes(mean_size),
            format!("{sc_dr:.3}"),
            format!("{cdc_dr:.3}"),
            format!("{:.3}", p.sc_dr),
            format!("{:.3}", p.cdc_dr),
        ]);
    }
    print_table(
        "Table 1: SC vs CDC dedup ratio per application (measured vs paper)",
        &["type", "MiB", "mean file", "SC DR", "CDC DR", "paper SC", "paper CDC"],
        &rows,
    );
    println!("\nExpected shape: compressed types ≈ 1.00x; SC ≥ CDC for PDF/EXE/VMDK;");
    println!("CDC ≥ SC for DOC/TXT/PPT; VMDK carries the most sub-file redundancy.");
}

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Ablation: application-aware chunking vs one-size-fits-all.
//!
//! Swaps AA-Dedupe's per-category chunking dispatch for uniform policies —
//! all-CDC (what Avamar does), all-SC, all-WFC — while keeping everything
//! else (index, containers, hash-per-policy) identical. Isolates
//! Observations 1 and 3: compressed data doesn't deserve sub-file
//! chunking, static data prefers SC, dynamic data needs CDC.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin ablation_chunking`

use aadedupe_bench::{fmt_bytes, fmt_rate, print_table, run_evaluation_with, EvalConfig};
use aadedupe_chunking::ChunkingMethod;
use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme};
use aadedupe_filetype::DedupPolicy;
use aadedupe_hashing::HashAlgorithm;
use aadedupe_metrics::SessionReport;

fn scheme(cloud: &CloudSim, policy: DedupPolicy, key: &str) -> Box<dyn BackupScheme> {
    let config = AaDedupeConfig { policy, scheme_key: key.into(), ..AaDedupeConfig::default() };
    Box::new(AaDedupe::with_config(cloud.clone(), config))
}

fn main() {
    let cfg = EvalConfig::from_env();
    println!(
        "Ablation — chunking policy ({} × {} sessions)",
        fmt_bytes(cfg.dataset_bytes),
        cfg.sessions
    );
    let runs = run_evaluation_with(cfg, |cloud| {
        vec![
            scheme(cloud, DedupPolicy::aa_dedupe(), "aa-adaptive"),
            scheme(
                cloud,
                DedupPolicy::uniform(ChunkingMethod::Cdc, HashAlgorithm::Sha1),
                "all-cdc",
            ),
            scheme(
                cloud,
                DedupPolicy::uniform(ChunkingMethod::Sc, HashAlgorithm::Md5),
                "all-sc",
            ),
            scheme(
                cloud,
                DedupPolicy::uniform(ChunkingMethod::Wfc, HashAlgorithm::Rabin96),
                "all-wfc",
            ),
        ]
    });

    let labels = ["adaptive (AA)", "all-CDC+SHA1", "all-SC+MD5", "all-WFC+Rabin"];
    let mut rows = Vec::new();
    for (label, run) in labels.iter().zip(&runs) {
        let cpu: f64 = run.reports.iter().map(|r| r.dedup_cpu.as_secs_f64()).sum();
        let logical: u64 = run.reports.iter().map(|r| r.logical_bytes).sum();
        let stored: u64 = run.reports.iter().map(|r| r.stored_bytes).sum();
        let chunks: u64 = run.reports.iter().map(|r| r.chunks_total).sum();
        let de: f64 =
            run.reports.iter().skip(1).map(SessionReport::de).sum::<f64>() / (cfg.sessions - 1).max(1) as f64;
        rows.push(vec![
            label.to_string(),
            chunks.to_string(),
            format!("{:.3} s", cpu),
            format!("{:.2}", logical as f64 / stored.max(1) as f64),
            fmt_rate(de),
        ]);
    }
    print_table(
        "Chunking-policy ablation (identical data)",
        &["policy", "chunks", "dedup CPU", "cumulative DR", "avg DE (s2..)"],
        &rows,
    );
    println!(
        "\nexpected shape: all-WFC is fastest but loses DR (no sub-file dedup); all-CDC \
         maximises DR but burns CPU on compressed data for nothing; the adaptive policy \
         approaches all-CDC's DR at a fraction of the CPU — the highest DE."
    );
}

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Ablation: adaptive hash selection vs uniform strong hashing.
//!
//! Keeps AA-Dedupe's chunking dispatch (WFC/SC/CDC by category) but swaps
//! the paper's adaptive Rabin/MD5/SHA-1 selection for SHA-1 everywhere —
//! isolating Observation 4's contribution ("the use of weaker hash
//! functions for more coarse-grained chunks is the only way to reduce the
//! computational overhead").
//!
//! Run: `cargo run --release -p aadedupe-bench --bin ablation_hash`

use aadedupe_bench::{fmt_bytes, fmt_rate, print_table, run_evaluation_with, EvalConfig};
use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme};
use aadedupe_filetype::DedupPolicy;
use aadedupe_metrics::SessionReport;

fn scheme_with_policy(cloud: &CloudSim, policy: DedupPolicy, key: &str) -> Box<dyn BackupScheme> {
    let config = AaDedupeConfig { policy, scheme_key: key.into(), ..AaDedupeConfig::default() };
    Box::new(AaDedupe::with_config(cloud.clone(), config))
}

fn main() {
    let cfg = EvalConfig::from_env();
    println!(
        "Ablation — hash policy ({} × {} sessions)",
        fmt_bytes(cfg.dataset_bytes),
        cfg.sessions
    );
    let runs = run_evaluation_with(cfg, |cloud| {
        vec![
            scheme_with_policy(cloud, DedupPolicy::aa_dedupe(), "aa-adaptive"),
            scheme_with_policy(cloud, DedupPolicy::aa_chunking_strong_hash(), "aa-sha1"),
        ]
    });

    let mut rows = Vec::new();
    for (label, run) in ["adaptive Rabin/MD5/SHA-1", "uniform SHA-1"].iter().zip(&runs) {
        let cpu: f64 = run.reports.iter().map(|r| r.dedup_cpu.as_secs_f64()).sum();
        let logical: u64 = run.reports.iter().map(|r| r.logical_bytes).sum();
        let stored: u64 = run.reports.iter().map(|r| r.stored_bytes).sum();
        let de: f64 =
            run.reports.iter().map(SessionReport::de).sum::<f64>() / run.reports.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{:.3} s", cpu),
            fmt_rate(logical as f64 / cpu),
            format!("{:.2}", logical as f64 / stored.max(1) as f64),
            fmt_rate(de),
        ]);
    }
    print_table(
        "Hash-policy ablation (identical chunking, identical data)",
        &["policy", "dedup CPU", "throughput", "DR", "avg DE"],
        &rows,
    );
    println!(
        "\nexpected shape: identical DR (hash choice does not change which chunks match), \
         lower CPU and higher DE for the adaptive policy."
    );
}

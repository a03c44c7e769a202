#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Figures 1 & 2: file count and storage capacity by file-size bucket.
//!
//! Paper's headline numbers: ~61 % of files are < 10 KiB but hold only
//! ~1.2 % of bytes; ~1.4 % of files are > 1 MiB and hold ~75 % of bytes.
//!
//! Run: `cargo run --release -p aadedupe-bench --bin fig1_2_size_distribution`

use aadedupe_bench::{fmt_bytes, print_table, EvalConfig};
use aadedupe_workload::{DatasetSpec, Generator, SizeBucket, SizeHistogram};

fn main() {
    let cfg = EvalConfig::from_env();
    println!(
        "Figures 1 & 2 — size distribution of a {} synthetic PC dataset (seed {})",
        fmt_bytes(cfg.dataset_bytes),
        cfg.seed
    );
    let mut generator = Generator::new(DatasetSpec::paper_scaled(cfg.dataset_bytes), cfg.seed);
    let snapshot = generator.snapshot(0);
    let h = SizeHistogram::of_snapshot(&snapshot);

    let rows: Vec<Vec<String>> = SizeBucket::ALL
        .iter()
        .map(|&b| {
            vec![
                b.label().to_string(),
                h.count(b).to_string(),
                format!("{:.1}%", 100.0 * h.count_fraction(b)),
                fmt_bytes(h.bytes(b)),
                format!("{:.1}%", 100.0 * h.bytes_fraction(b)),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 + Fig. 2: files and bytes per size bucket",
        &["size bucket", "files", "% files (Fig.1)", "bytes", "% bytes (Fig.2)"],
        &rows,
    );

    println!();
    println!(
        "tiny (<10KB): {:.1}% of files, {:.2}% of bytes   (paper: ~61%, ~1.2%)",
        100.0 * h.count_fraction(SizeBucket::Under10K),
        100.0 * h.bytes_fraction(SizeBucket::Under10K),
    );
    println!(
        "large (>1MB): {:.1}% of files, {:.1}% of bytes   (paper: ~1.4%, ~75%)",
        100.0 * h.large_file_count_fraction(),
        100.0 * h.large_file_bytes_fraction(),
    );
    println!(
        "total: {} files, {}",
        h.total_count(),
        fmt_bytes(h.total_bytes())
    );
}

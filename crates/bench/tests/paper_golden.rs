//! The deterministic half of every `paper` report, pinned beside
//! `evaluation_golden.rs`: Table 1's SC and CDC bytes, Figs. 1–2's
//! buckets, Observation 2's pairwise overlaps, the byte, chunk and PUT
//! columns of the three evaluation-based ablations, the index ablation's
//! modelled disk probes and the vacuum churn table — at reduced sizes
//! where the default run is slow. A change that claims to decide nothing
//! differently leaves every number here alone. Also: `results/` holds one
//! file per `paper` subcommand and nothing else.

use aadedupe_bench::figures::{
    chunking_variants, container_size_variants, cross_app_sharing, fingerprint_stream, hash_variants,
    index_stats, size_histogram, table1_rows, tiny_threshold_variants, vacuum_churn_rows, INDEXES,
};
use aadedupe_bench::{results_dir, run_variants, EvalConfig, FIGURES};
use aadedupe_workload::SizeBucket;

fn cfg(mib: u64, sessions: usize) -> EvalConfig {
    EvalConfig { dataset_bytes: mib << 20, sessions, seed: 2011, csv: false }
}

/// `paper all` cannot skip a figure, and no orphan results file survives
/// a renamed or deleted subcommand.
#[test]
fn results_hold_one_file_per_subcommand() {
    let mut files: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    files.sort();
    let mut want: Vec<String> = FIGURES.iter().map(|(name, _)| format!("{name}.txt")).collect();
    want.sort();
    assert_eq!(files, want);
}

/// Files and bytes per size bucket, the rows of `results/fig1-2.txt`.
#[test]
fn fig1_2_buckets_at_the_default_size() {
    let h = size_histogram(&cfg(64, 10));
    let got: Vec<(u64, u64)> = SizeBucket::ALL.iter().map(|&b| (h.count(b), h.bytes(b))).collect();
    assert_eq!(got, [(974, 1435392), (588, 11828322), (23, 7236434), (13, 48833921), (0, 0), (0, 0)]);
}

/// Per application at 6 MiB per type: bytes after whole-file dedup, and
/// unique bytes under SC and under CDC (the DR columns are their ratios).
#[test]
fn table1_sc_and_cdc_bytes() {
    let got: Vec<(&str, u64, u64, u64)> =
        table1_rows(6 << 20).iter().map(|r| (r.app.name(), r.bytes, r.sc_stored, r.cdc_stored)).collect();
    assert_eq!(
        got,
        [
            ("AVI", 20230576, 20230576, 20230576),
            ("MP3", 6773793, 6773793, 6773793),
            ("ISO", 14693048, 14693048, 14693048),
            ("DMG", 5972904, 5972904, 5972904),
            ("RAR", 8347765, 8347765, 8347765),
            ("JPG", 6696528, 6696528, 6696528),
            ("PDF", 7875749, 7875749, 7875749),
            ("EXE", 6968410, 6861914, 6930655),
            ("VMDK", 8642137, 6930009, 7292780),
            ("DOC", 8320754, 7960306, 7687554),
            ("TXT", 6657824, 6231840, 6035387),
            ("PPT", 6781763, 6118211, 4916534),
        ]
    );
}

/// Every application pair shares no chunk; the unique chunk count pins
/// the chunking and hashing behind that.
#[test]
fn obs2_pairwise_overlaps() {
    let (pairs, unique) = cross_app_sharing(&cfg(8, 1));
    let shared: Vec<usize> = pairs.iter().map(|p| p.2).collect();
    assert_eq!((pairs.len(), unique), (66, 1564));
    assert_eq!(shared, [0; 66], "{pairs:?}");
}

/// Per variant of each evaluation-based ablation at 4 MiB × 2 sessions:
/// chunks, stored bytes, uploaded bytes and PUTs, summed over sessions.
#[test]
fn ablation_bytes_chunks_and_puts() {
    let sweeps = [chunking_variants(), hash_variants(), container_size_variants(), tiny_threshold_variants()];
    let got: Vec<Vec<(&str, [u64; 4])>> = sweeps
        .iter()
        .map(|variants| {
            let runs = run_variants(cfg(4, 2), variants);
            std::iter::zip(variants, &runs)
                .map(|((label, _), run)| {
                    let columns = [
                        run.total(|r| r.chunks_total),
                        run.total(|r| r.stored_bytes),
                        run.total(|r| r.transferred_bytes),
                        run.total(|r| r.put_requests),
                    ];
                    (*label, columns)
                })
                .collect()
        })
        .collect();
    let want: [&[(&str, [u64; 4])]; 4] = [
        &[
            ("adaptive (AA)", [1660, 8356754, 8509137, 31]),
            ("all-CDC+SHA1", [2460, 8436509, 8672963, 31]),
            ("all-SC+MD5", [2513, 8365381, 8588192, 31]),
            ("all-WFC+Rabin", [986, 8768408, 8861815, 31]),
        ],
        &[("adaptive Rabin/MD5/SHA-1", [1660, 8356754, 8509137, 31]), ("uniform SHA-1", [1660, 8356754, 8517185, 31])],
        &[
            ("64 KiB", [1660, 8356754, 8511139, 108]),
            ("256 KiB", [1660, 8356754, 8509475, 44]),
            ("1 MiB", [1660, 8356754, 8509137, 31]),
            ("4 MiB", [1660, 8356754, 8509111, 30]),
        ],
        &[
            ("0 B", [1669, 8353190, 8529540, 29]),
            ("10 KiB", [1660, 8356754, 8509137, 31]),
            ("100 KiB", [1349, 8490381, 8601792, 18]),
            ("1 MiB", [1282, 8547725, 8653658, 14]),
        ],
    ];
    assert_eq!(got, want.map(<[_]>::to_vec));
}

/// Lookups and modelled disk probes per index at the default 64 MiB, the
/// rows of `results/ablation-index.txt`.
#[test]
fn ablation_index_probes_at_the_default_size() {
    let cfg = cfg(64, 10);
    let stream = fingerprint_stream(&cfg);
    let got: Vec<(&str, u64, u64)> = INDEXES
        .iter()
        .enumerate()
        .map(|(which, name)| {
            let stats = index_stats(&cfg, &stream, which);
            (*name, stats.lookups, stats.disk_reads)
        })
        .collect();
    assert_eq!(stream.len(), 5660);
    assert_eq!(
        got,
        [
            ("monolithic", 11320, 5872),
            ("app-aware (equal split)", 11320, 7583),
            ("app-aware (one-hot)", 11320, 0),
        ]
    );
}

/// Per churn level at 6 sessions of 1 MiB: stored bytes before
/// retention, after it and after vacuum, containers rewritten, relocations.
#[test]
fn vacuum_churn_table() {
    let got = vacuum_churn_rows(&cfg(6, 6));
    assert_eq!(
        got,
        [
            [6341128, 6332033, 6291714, 4, 6],
            [6143253, 6124364, 6086423, 4, 4],
            [5872285, 5853396, 5818079, 4, 4],
            [5601317, 5582428, 4778272, 6, 39],
        ]
    );
}

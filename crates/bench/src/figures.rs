//! The figures besides Figs. 3 and 4: Figs. 1–2, Table 1, Observation 2,
//! the five-scheme evaluation (Figs. 7–11), the ablations and the vacuum
//! churn table. Each `pub fn <figure>(cfg) -> String` is a
//! [`crate::FIGURES`] entry; the functions returning numbers are what
//! `tests/paper_golden.rs` pins.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aadedupe_chunking::{CdcChunker, ChunkSpan, Chunker, ChunkingMethod, ScChunker, WfcChunker};
use aadedupe_cloud::{CloudSim, ObjectBackend, ObjectStore, PriceModel, WanModel};
use aadedupe_core::timing::DISK_SEEK;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig, RetentionPolicy, VacuumOptions};
use aadedupe_filetype::{AppType, DedupPolicy, MemoryFile, SourceFile};
use aadedupe_hashing::{sha1, Fingerprint, HashAlgorithm};
use aadedupe_index::{AppAwareIndex, ChunkEntry, IndexPartition, IndexStats, MonolithicIndex};
use aadedupe_metrics::{report::cumulative_transferred, EnergyModel, SessionReport};
use aadedupe_workload::model::TinySpec;
use aadedupe_workload::{AppSpec, DatasetSpec, Generator, SizeBucket, SizeHistogram};

use crate::{fmt_bytes, fmt_rate, print_table, ram_budget_entries, run_evaluation, run_variants};
use crate::{EvalConfig, SchemeRun, Variant};

/// Bytes of each single-application corpus of Table 1.
pub const TABLE1_TYPE_BYTES: u64 = 24 << 20;
/// The paper's upload bandwidth (NT), bytes/second.
const NT: f64 = 500.0 * 1024.0;

/// `total / stored`, 1 for nothing stored.
fn ratio(total: u64, stored: u64) -> f64 {
    if stored == 0 { 1.0 } else { total as f64 / stored as f64 }
}

/// The size histogram of the first snapshot of the paper-scaled dataset.
pub fn size_histogram(cfg: &EvalConfig) -> SizeHistogram {
    let mut generator = Generator::new(DatasetSpec::paper_scaled(cfg.dataset_bytes), cfg.seed);
    SizeHistogram::of_snapshot(&generator.snapshot(0))
}

/// Figures 1 & 2: file count and storage capacity by file-size bucket.
/// Paper: ~61 % of files are < 10 KiB but hold only ~1.2 % of bytes;
/// ~1.4 % of files are > 1 MiB and hold ~75 % of bytes.
pub fn fig1_2(cfg: &EvalConfig) -> String {
    let mut out = String::new();
    let (size, seed) = (fmt_bytes(cfg.dataset_bytes), cfg.seed);
    outln!(out, "Figures 1 & 2 — size distribution of a {size} synthetic PC dataset (seed {seed})");
    let h = size_histogram(cfg);
    let percent = |f: f64| format!("{:.1}%", 100.0 * f);
    let rows: Vec<Vec<String>> = SizeBucket::ALL
        .iter()
        .map(|&b| {
            let (files, bytes) = (h.count(b).to_string(), fmt_bytes(h.bytes(b)));
            vec![b.label().into(), files, percent(h.count_fraction(b)), bytes, percent(h.bytes_fraction(b))]
        })
        .collect();
    let headers = ["size bucket", "files", "% files (Fig.1)", "bytes", "% bytes (Fig.2)"];
    print_table(&mut out, "Fig. 1 + Fig. 2: files and bytes per size bucket", &headers, &rows);
    let under10k = SizeBucket::Under10K;
    let tiny = [h.count_fraction(under10k), h.bytes_fraction(under10k)].map(|f| 100.0 * f);
    let large = [h.large_file_count_fraction(), h.large_file_bytes_fraction()].map(|f| 100.0 * f);
    outln!(out, "\ntiny (<10KB): {:.1}% of files, {:.2}% of bytes   (paper: ~61%, ~1.2%)", tiny[0], tiny[1]);
    outln!(out, "large (>1MB): {:.1}% of files, {:.1}% of bytes   (paper: ~1.4%, ~75%)", large[0], large[1]);
    outln!(out, "total: {} files, {}", h.total_count(), fmt_bytes(h.total_bytes()));
    out
}

/// One application's row of Table 1: the mean file size before
/// whole-file dedup, the bytes left after it, and the unique bytes of
/// those under 8 KiB static and 8 KiB-average content-defined chunking.
#[derive(Debug, PartialEq, Eq)]
pub struct Table1Row {
    pub app: AppType,
    pub mean_file: u64,
    pub bytes: u64,
    pub sc_stored: u64,
    pub cdc_stored: u64,
}

/// Unique chunk bytes of `files` under `chunker`.
fn stored_under(files: &[Vec<u8>], chunker: &dyn Chunker) -> u64 {
    let mut unique: HashMap<[u8; 20], u64> = HashMap::new();
    for f in files {
        for span in chunker.chunk(f) {
            unique.entry(sha1(span.slice(f))).or_insert(span.len as u64);
        }
    }
    unique.values().sum()
}

/// Table 1's measurement over single-application corpora of
/// `per_type_bytes` each: whole-file dedup first, as the paper does before
/// its chunk-level measurement, then SC and CDC.
pub fn table1_rows(per_type_bytes: u64) -> Vec<Table1Row> {
    let (sc, cdc) = (ScChunker::new(8 * 1024), CdcChunker::default());
    let mut rows = Vec::new();
    for app in AppType::TABLE1 {
        // Single-type dataset, calibrated like the full evaluation corpus.
        let scale = (app.profile().dataset_mb as f64 * 1024.0 * 1024.0 / per_type_bytes as f64).max(1.0);
        let tiny = TinySpec {
            initial_files: 0,
            mean_file_size: 1024,
            weekly_new_files: 0,
            weekly_modify_fraction: 0.0,
            weekly_delete_fraction: 0.0,
        };
        let spec = DatasetSpec { apps: vec![AppSpec::calibrated(app, per_type_bytes, scale.powf(0.7))], tiny };
        let snapshot = Generator::new(spec, 0x7AB1E ^ app.tag() as u64).snapshot(0);
        let (mut seen, mut files, mut all_bytes) = (HashSet::new(), Vec::new(), 0u64);
        for f in &snapshot.files {
            let data = f.materialize();
            all_bytes += data.len() as u64;
            if seen.insert(sha1(&data)) {
                files.push(data);
            }
        }
        rows.push(Table1Row {
            app,
            mean_file: all_bytes / snapshot.files.len().max(1) as u64,
            bytes: files.iter().map(|f| f.len() as u64).sum(),
            sc_stored: stored_under(&files, &sc),
            cdc_stored: stored_under(&files, &cdc),
        });
    }
    rows
}

/// Table 1: chunk-level data redundancy in typical PC applications, SC vs
/// CDC per application type, next to the paper's measured values.
pub fn table1(_: &EvalConfig) -> String {
    let mut out = String::new();
    let mib = TABLE1_TYPE_BYTES >> 20;
    outln!(out, "Table 1 — per-application chunk-level redundancy over {mib} MiB/type corpora");
    let rows: Vec<Vec<String>> = table1_rows(TABLE1_TYPE_BYTES)
        .iter()
        .map(|r| {
            let p = r.app.profile();
            let ratios = [ratio(r.bytes, r.sc_stored), ratio(r.bytes, r.cdc_stored), p.sc_dr, p.cdc_dr];
            let head = [r.app.name().to_string(), format!("{}", r.bytes >> 20), fmt_bytes(r.mean_file)];
            [head.to_vec(), ratios.map(|x| format!("{x:.3}")).to_vec()].concat()
        })
        .collect();
    let headers = ["type", "MiB", "mean file", "SC DR", "CDC DR", "paper SC", "paper CDC"];
    let title = "Table 1: SC vs CDC dedup ratio per application (measured vs paper)";
    print_table(&mut out, title, &headers, &rows);
    outln!(out, "\nExpected shape: compressed types ≈ 1.00x; SC ≥ CDC for PDF/EXE/VMDK;");
    outln!(out, "CDC ≥ SC for DOC/TXT/PPT; VMDK carries the most sub-file redundancy.");
    out
}

/// Observation 2's measurement: every file of the paper-scaled snapshot
/// chunked with 8 KiB CDC + SHA-1, one fingerprint set per application.
/// Returns the shared chunks of every application pair, in
/// [`AppType::ALL`] order, and the total of unique chunks.
pub fn cross_app_sharing(cfg: &EvalConfig) -> (Vec<(AppType, AppType, usize)>, usize) {
    let snapshot = Generator::new(DatasetSpec::paper_scaled(cfg.dataset_bytes), cfg.seed).snapshot(0);
    let mut sets: HashMap<AppType, HashSet<[u8; 20]>> = HashMap::new();
    for f in &snapshot.files {
        let data = f.materialize();
        let spans = CdcChunker::default().chunk(&data);
        sets.entry(f.app).or_default().extend(spans.iter().map(|span| sha1(span.slice(&data))));
    }
    let apps: Vec<AppType> = AppType::ALL.into_iter().filter(|a| sets.contains_key(a)).collect();
    let mut pairs = Vec::new();
    for (i, a) in apps.iter().enumerate() {
        for b in &apps[i + 1..] {
            pairs.push((*a, *b, sets[a].intersection(&sets[b]).count()));
        }
    }
    (pairs, sets.values().map(HashSet::len).sum())
}

/// Observation 2: cross-application data sharing is negligible (the
/// paper finds one shared 16 KB chunk in ~41 GB).
pub fn obs2(cfg: &EvalConfig) -> String {
    let mut out = String::new();
    let size = fmt_bytes(cfg.dataset_bytes);
    outln!(out, "Observation 2 — cross-application chunk sharing over a {size} dataset");
    let (pairs, total) = cross_app_sharing(cfg);
    let shared: usize = pairs.iter().map(|p| p.2).sum();
    let mut rows: Vec<Vec<String>> = pairs
        .iter()
        .filter(|p| p.2 > 0)
        .map(|(a, b, n)| vec![a.name().into(), b.name().into(), n.to_string()])
        .collect();
    if rows.is_empty() {
        rows.push(vec!["(none)".into(), "(none)".into(), "0".into()]);
    }
    let headers = ["app A", "app B", "shared chunks"];
    print_table(&mut out, "Cross-application duplicate chunks (pairwise)", &headers, &rows);
    let percent = 100.0 * shared as f64 / total.max(1) as f64;
    outln!(
        out,
        "\ntotal unique chunks: {total}; shared across applications: {shared} ({percent:.4}%)   \
         (paper: one 16 KB chunk in ~41 GB)"
    );
    outln!(
        out,
        "implication: partitioning the index by application loses ~nothing, enabling \
         small independent indexes (Fig. 6)."
    );
    out
}

/// A table with one row per session and one column per run.
fn per_session(out: &mut String, title: &str, runs: &[&SchemeRun], cell: impl Fn(&SchemeRun, usize) -> String) {
    let headers: Vec<&str> = std::iter::once("session").chain(runs.iter().map(|r| r.name)).collect();
    let rows: Vec<Vec<String>> = (0..runs[0].reports.len())
        .map(|s| std::iter::once(format!("{}", s + 1)).chain(runs.iter().map(|r| cell(r, s))).collect())
        .collect();
    print_table(out, title, &headers, &rows);
}

/// Mean of `f` over the steady-state sessions, the second on: the first
/// seeds the cloud with little redundancy for anyone, and the paper's
/// ratios concern the sessions after it.
fn steady_mean(run: &SchemeRun, f: impl Fn(&SessionReport) -> f64) -> f64 {
    run.reports.iter().skip(1).map(f).sum::<f64>() / run.reports.len().saturating_sub(1).max(1) as f64
}

/// A summary line per run: its name and `line(its value, AA-Dedupe's)`,
/// AA-Dedupe being the last run.
fn summary(
    out: &mut String,
    title: &str,
    runs: &[&SchemeRun],
    value: &dyn Fn(&SchemeRun) -> f64,
    line: &dyn Fn(f64, f64) -> String,
) {
    let values: Vec<f64> = runs.iter().map(|r| value(r)).collect();
    outln!(out, "\n{title}");
    for (run, v) in runs.iter().zip(&values) {
        outln!(out, "  {:<12} {}", run.name, line(*v, values.last().copied().unwrap_or(1.0)));
    }
}

/// Figures 7–11: Jungle Disk, BackupPC, Avamar, SAM and AA-Dedupe over the
/// same weekly full backups. Storage (Fig. 7) and monthly cost (Fig. 10,
/// S3 April 2011 prices) are deterministic; dedup efficiency (Fig. 8),
/// backup window (Fig. 9) and energy (Fig. 11) follow from measured time.
pub fn evaluation(cfg: &EvalConfig) -> String {
    let mut out = String::new();
    let (sessions, size, seed) = (cfg.sessions, fmt_bytes(cfg.dataset_bytes), cfg.seed);
    let what = format!("5 schemes × {sessions} weekly sessions × {size} logical/session (seed {seed})");
    outln!(out, "Evaluation — {what}");
    let runs = run_evaluation(*cfg);
    let all: Vec<&SchemeRun> = runs.iter().collect();
    let storage = |r: &SchemeRun, s: usize| fmt_bytes(cumulative_transferred(&r.reports)[s]);
    per_session(&mut out, "Fig. 7: cumulative cloud storage", &all, storage);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let c = run.cloud.monthly_cost();
            let costs = [c.storage, c.transfer, c.request, c.total()].map(|x| format!("${x:.4}"));
            [vec![run.name.into(), fmt_bytes(run.cloud.store().stored_bytes())], costs.to_vec()].concat()
        })
        .collect();
    let headers = ["scheme", "stored", "storage $", "transfer $", "requests $", "total $"];
    print_table(&mut out, "Fig. 10: monthly cloud cost (S3 April 2011 prices)", &headers, &rows);

    outln!(out, "\n-- timing: one run; dedup time is measured, the WAN is modelled --");
    // Paper: AA-Dedupe's DE ≈ 2× BackupPC's, 5× SAM's, 7× Avamar's.
    let title = "Fig. 8: dedup efficiency (bytes saved per second)";
    per_session(&mut out, title, &all, |r, s| fmt_rate(r.reports[s].de()));
    let de = |x: f64, aa: f64| format!("{:>14}   AA-Dedupe/this = {:.1}x", fmt_rate(x), aa / x.max(1e-9));
    summary(&mut out, "average DE (sessions 2..): ", &all, &|r| steady_mean(r, SessionReport::de), &de);
    let title = "Fig. 9: backup window (NT = 500 KB/s)";
    per_session(&mut out, title, &all, |r, s| format!("{:.1} s", r.reports[s].bws(NT)));
    let shorter = |w: f64, aa: f64| 100.0 * (1.0 - aa / w.max(1e-9));
    let bws = |w: f64, aa: f64| format!("{w:>9.1} s   AA-Dedupe shorter by {:.0}%", shorter(w, aa));
    summary(&mut out, "average backup window (sessions 2..):", &all, &|r| steady_mean(r, |x| x.bws(NT)), &bws);
    let model = EnergyModel::laptop_2010();
    let sources: Vec<&SchemeRun> = runs.iter().filter(|r| r.name != "Jungle Disk").collect();
    let title = "Fig. 11: energy per session (source-dedup schemes)";
    per_session(&mut out, title, &sources, |r, s| format!("{:.0} J", r.reports[s].energy(&model, NT)));
    let energy = |r: &SchemeRun| r.reports.iter().map(|x| x.energy(&model, NT)).sum();
    let joules = |e: f64, aa: f64| format!("{e:>10.0} J   this/AA-Dedupe = {:.1}x", e / aa.max(1e-9));
    summary(&mut out, "total energy over all sessions:", &sources, &energy, &joules);
    if cfg.csv {
        outln!(out, "\n{}", SessionReport::CSV_HEADER);
        for r in runs.iter().flat_map(|run| &run.reports) {
            outln!(out, "{}", r.csv_row());
        }
    }
    out
}

/// An AA-Dedupe variant: `label`, its cloud namespace `key`, the paper's
/// engine with `tweak` applied.
fn variant(label: &'static str, key: String, tweak: impl FnOnce(&mut AaDedupeConfig)) -> Variant {
    let mut config = AaDedupeConfig { scheme_key: key, ..AaDedupeConfig::default() };
    tweak(&mut config);
    (label, config)
}

/// The chunking ablation: AA-Dedupe's per-category dispatch against
/// all-CDC (what Avamar does), all-SC and all-WFC, all else equal.
pub fn chunking_variants() -> Vec<Variant> {
    let uniform = DedupPolicy::uniform;
    [
        ("adaptive (AA)", "aa-adaptive", DedupPolicy::aa_dedupe()),
        ("all-CDC+SHA1", "all-cdc", uniform(ChunkingMethod::Cdc, HashAlgorithm::Sha1)),
        ("all-SC+MD5", "all-sc", uniform(ChunkingMethod::Sc, HashAlgorithm::Md5)),
        ("all-WFC+Rabin", "all-wfc", uniform(ChunkingMethod::Wfc, HashAlgorithm::Rabin96)),
    ]
    .into_iter()
    .map(|(label, key, policy)| variant(label, key.into(), |c| c.policy = policy))
    .collect()
}

/// The hash ablation: the paper's adaptive Rabin/MD5/SHA-1 selection
/// against SHA-1 everywhere, both with AA-Dedupe's chunking dispatch.
pub fn hash_variants() -> Vec<Variant> {
    let strong = DedupPolicy::aa_chunking_strong_hash();
    vec![
        variant("adaptive Rabin/MD5/SHA-1", "aa-adaptive".into(), |c| c.policy = DedupPolicy::aa_dedupe()),
        variant("uniform SHA-1", "aa-sha1".into(), |c| c.policy = strong),
    ]
}

/// The container-size sweep, 64 KiB to 4 MiB, at the paper's 10 KiB tiny
/// threshold, and (`tiny_threshold_variants`) the tiny-file threshold
/// sweep, 0 to 1 MiB, at the paper's 1 MiB containers.
pub fn container_size_variants() -> Vec<Variant> {
    [("64 KiB", 64 << 10), ("256 KiB", 256 << 10), ("1 MiB", 1 << 20), ("4 MiB", 4 << 20)]
        .into_iter()
        .map(|(label, size)| variant(label, format!("aa-c{size}"), |c| c.container_size = size))
        .collect()
}

/// See [`container_size_variants`].
pub fn tiny_threshold_variants() -> Vec<Variant> {
    [("0 B", 0), ("10 KiB", 10 << 10), ("100 KiB", 100 << 10), ("1 MiB", 1 << 20)]
        .into_iter()
        .map(|(label, tiny)| variant(label, format!("aa-t{tiny}"), |c| c.tiny_threshold = tiny))
        .collect()
}

/// An ablation report. Each sweep is a table title, the header of its
/// first column and its variants; every sweep's deterministic table
/// comes first, then every sweep's timed one, then the expected shape.
fn ablation(cfg: &EvalConfig, title: &str, sweeps: &[(&str, &str, Vec<Variant>)], shape: &str) -> String {
    let mut out = String::new();
    outln!(out, "Ablation — {title} ({} × {} sessions)", fmt_bytes(cfg.dataset_bytes), cfg.sessions);
    let runs: Vec<Vec<SchemeRun>> = sweeps.iter().map(|sweep| run_variants(*cfg, &sweep.2)).collect();
    let tables = |out: &mut String, headers: &[&str], row: &dyn Fn(&SchemeRun) -> Vec<String>| {
        for ((table, first, variants), runs) in sweeps.iter().zip(&runs) {
            let row = |((label, _), run): (&Variant, &SchemeRun)| [vec![label.to_string()], row(run)].concat();
            let rows: Vec<Vec<String>> = variants.iter().zip(runs).map(row).collect();
            print_table(out, table, &[&[*first], headers].concat(), &rows);
        }
    };
    let headers = ["chunks", "stored", "uploaded", "PUTs", "cumulative DR", "request $", "total $"];
    tables(&mut out, &headers, &|run| {
        let (stored, cost) = (run.total(|r| r.stored_bytes), run.cloud.monthly_cost());
        vec![
            run.total(|r| r.chunks_total).to_string(),
            fmt_bytes(stored),
            fmt_bytes(run.total(|r| r.transferred_bytes)),
            run.total(|r| r.put_requests).to_string(),
            format!("{:.2}", ratio(run.total(|r| r.logical_bytes), stored)),
            format!("${:.4}", cost.request),
            format!("${:.4}", cost.total()),
        ]
    });
    outln!(out, "\n-- timing: one run; dedup CPU is the engine's measured chunk + hash + index time --");
    tables(&mut out, &["dedup CPU", "throughput", "avg DE (s2..)"], &|run| {
        let cpu: f64 = run.reports.iter().map(|r| r.dedup_cpu.as_secs_f64()).sum();
        let throughput = run.total(|r| r.logical_bytes) as f64 / cpu;
        vec![format!("{cpu:.3} s"), fmt_rate(throughput), fmt_rate(steady_mean(run, SessionReport::de))]
    });
    outln!(out, "\nexpected shape: {shape}");
    out
}

/// Ablation: application-aware chunking vs one-size-fits-all
/// (Observations 1 and 3).
pub fn ablation_chunking(cfg: &EvalConfig) -> String {
    let sweeps = [("Chunking-policy ablation (identical data)", "policy", chunking_variants())];
    let shape = "all-WFC is fastest but loses DR (no sub-file dedup); all-CDC maximises DR but burns \
                 CPU on compressed data; the adaptive policy nears all-CDC's DR at a fraction of its CPU.";
    ablation(cfg, "chunking policy", &sweeps, shape)
}

/// Ablation: adaptive hash selection vs uniform strong hashing
/// (Observation 4).
pub fn ablation_hash(cfg: &EvalConfig) -> String {
    let sweeps = [("Hash-policy ablation (identical chunking, identical data)", "policy", hash_variants())];
    let shape = "identical DR (the hash does not change which chunks match); less CPU for the adaptive policy.";
    ablation(cfg, "hash policy", &sweeps, shape)
}

/// Ablation: container size (request cost vs padding, paper §III.F) and
/// tiny-file threshold (index load vs dedup coverage).
pub fn ablation_container(cfg: &EvalConfig) -> String {
    let sweeps = [
        ("Container-size sweep (10 KiB tiny threshold)", "container", container_size_variants()),
        ("Tiny-file threshold sweep (1 MiB containers)", "threshold", tiny_threshold_variants()),
    ];
    let shape = "request cost falls with container size; raising the tiny threshold cuts chunks and CPU \
                 but forfeits mid-sized files' dedup, so DR drops past ~10 KiB, the paper's knee.";
    ablation(cfg, "container size and tiny-file threshold", &sweeps, shape)
}

/// The index ablation's input: every chunk of the first evaluation
/// snapshot's non-tiny files under the AA-Dedupe policy, as (application,
/// fingerprint, length).
pub fn fingerprint_stream(cfg: &EvalConfig) -> Vec<(AppType, Fingerprint, u32)> {
    let snapshot = Generator::new(DatasetSpec::eval_mix(cfg.dataset_bytes), cfg.seed).snapshot(0);
    let chunkers: [&dyn Chunker; 3] = [&WfcChunker::new(), &ScChunker::new(8 * 1024), &CdcChunker::default()];
    let mut stream = Vec::new();
    for f in snapshot.files.iter().filter(|f| f.len() >= 10 * 1024) {
        let (data, (method, hash)) = (f.materialize(), DedupPolicy::aa_dedupe().for_app(f.app));
        for chunker in chunkers.iter().filter(|c| c.method() == method) {
            let spans = chunker.chunk(&data);
            let fingerprint = |s: &ChunkSpan| Fingerprint::compute(hash, s.slice(&data));
            stream.extend(spans.iter().map(|s| (f.app, fingerprint(s), s.len as u32)));
        }
    }
    stream
}

/// The indexes of the index ablation, under one total RAM budget, half
/// the evaluation's (the monolithic index spills at bench scale, as at
/// paper scale): one monolithic index, per-application partitions
/// splitting the budget, and partitions each given all of it ("one-hot":
/// the client processes one application stream at a time, §III.E).
pub const INDEXES: [&str; 3] = ["monolithic", "app-aware (equal split)", "app-aware (one-hot)"];

/// Drives `stream` through an index twice, inserting on the first pass's
/// misses.
fn drive<'i>(stream: &[(AppType, Fingerprint, u32)], partition: impl Fn(AppType) -> &'i IndexPartition) {
    for pass in 0..2 {
        for (app, fp, len) in stream {
            let index = partition(*app);
            if index.lookup(fp).is_none() && pass == 0 {
                index.insert(*fp, ChunkEntry::new(u64::from(*len), 0, 0));
            }
        }
    }
}

/// The statistics of [`INDEXES`]`[which]` after `stream` was driven
/// through it twice, inserting on the first pass's misses.
pub fn index_stats(cfg: &EvalConfig, stream: &[(AppType, Fingerprint, u32)], which: usize) -> IndexStats {
    let ram = ram_budget_entries(cfg.dataset_bytes) / 2;
    if which == 0 {
        let mono = MonolithicIndex::new(ram);
        drive(stream, |_| &mono);
        return mono.stats();
    }
    let aware = AppAwareIndex::new(if which == 1 { ram / AppType::ALL.len() } else { ram });
    drive(stream, |app| aware.partition(app));
    aware.stats()
}

/// Ablation: application-aware index vs monolithic full index, under an
/// equal total modelled-RAM budget (paper §III.E).
pub fn ablation_index(cfg: &EvalConfig) -> String {
    let mut out = String::new();
    let (size, ram) = (fmt_bytes(cfg.dataset_bytes), ram_budget_entries(cfg.dataset_bytes) / 2);
    outln!(out, "Ablation — index structure over a {size} snapshot, total RAM budget {ram} entries");
    let stream = fingerprint_stream(cfg);
    outln!(out, "fingerprint stream: {} chunks", stream.len());
    let rows: Vec<Vec<String>> = (0..INDEXES.len())
        .map(|which| {
            let st = index_stats(cfg, &stream, which);
            let seek = (DISK_SEEK * st.disk_reads as u32).as_secs_f64();
            let counts = [st.lookups, st.disk_reads].map(|n| n.to_string());
            [vec![INDEXES[which].into()], counts.to_vec(), vec![format!("{seek:.3} s")]].concat()
        })
        .collect();
    let headers = ["index", "lookups", "modelled disk probes", "modelled seek time"];
    print_table(&mut out, "Index ablation (equal total RAM)", &headers, &rows);

    outln!(
        out,
        "\nexpected shape: naively splitting the RAM budget 13 ways helps nobody; the win \
         comes from one-hot residency -- one application stream is processed at a time, so \
         its (small) partition gets the whole budget and stays RAM-resident, while the \
         monolithic index must cache the union and spills."
    );
    out
}

/// Sessions each churn run keeps, and the churn levels.
const KEEP: usize = 5;
const CHURN: [f64; 4] = [0.10, 0.25, 0.50, 0.75];

/// One session at a given churn level: an append to a journal that stays
/// live forever, and a scratch file (`churn` of the bytes) only this
/// session references. The packer interleaves both into the same
/// containers, so once retention kills the scratch, its dead bytes are
/// stranded next to live ones and only a vacuum rewrite reclaims them.
fn session_files(session: usize, per_session_bytes: u64, churn: f64, seed: u64) -> Vec<MemoryFile> {
    let scratch = (per_session_bytes as f64 * churn) as usize;
    let append = per_session_bytes as usize - scratch;
    let fill = |n: usize, salt: u64| -> Vec<u8> {
        (0..n).map(|i| ((i as u64).wrapping_mul(salt | 1).wrapping_add(salt >> 5) % 251) as u8).collect()
    };
    let salt = |s: usize| seed ^ (s as u64).wrapping_mul(0x517C_C1B7);
    let journal: Vec<u8> = (0..=session).flat_map(|s| fill(append, salt(s))).collect();
    let scratch = fill(scratch, !seed ^ (session as u64 + 1).wrapping_mul(0x9E37_79B9));
    vec![
        MemoryFile::new("user/txt/journal.txt", journal),
        MemoryFile::new(format!("user/txt/scratch-{session:03}.txt"), scratch),
    ]
}

/// Sessions of the churn corpus (at least one more than [`KEEP`]) and
/// bytes per session.
fn churn_shape(cfg: &EvalConfig) -> (usize, u64) {
    let sessions = cfg.sessions.max(KEEP + 1);
    (sessions, (cfg.dataset_bytes / sessions as u64).max(1 << 20))
}

/// Per churn level: stored bytes before retention, after keep-last-5
/// retention and after one vacuum pass, then containers rewritten and
/// chunks relocated.
#[expect(clippy::expect_used, reason = "a failed churn run invalidates the whole table")]
pub fn vacuum_churn_rows(cfg: &EvalConfig) -> Vec<[u64; 5]> {
    let (sessions, per_session) = churn_shape(cfg);
    let mut rows = Vec::new();
    for churn in CHURN {
        let inner = Arc::new(ObjectStore::new());
        let backend = Arc::clone(&inner) as Arc<dyn ObjectBackend>;
        let cloud = CloudSim::with_backend(backend, WanModel::paper_defaults(), PriceModel::s3_april_2011());
        let config = AaDedupeConfig { pipeline: PipelineConfig::with_workers(2), ..AaDedupeConfig::default() };
        let mut engine = AaDedupe::with_config(cloud, config);
        for s in 0..sessions {
            let files = session_files(s, per_session, churn, cfg.seed);
            let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
            engine.backup_session(&sources).expect("backup");
        }
        let before = inner.stored_bytes();
        engine.apply_retention(&RetentionPolicy::KeepLast(KEEP)).expect("retention");
        let retained = inner.stored_bytes();
        let report = engine.vacuum(&VacuumOptions::default()).expect("vacuum");
        let moved = [report.containers_rewritten, report.relocations].map(|n| n as u64);
        rows.push([before, retained, inner.stored_bytes(), moved[0], moved[1]]);
    }
    rows
}

/// Reclaimed bytes vs. churn after keep-last-5 retention and one vacuum
/// pass, split into what retention's whole-container deletes reclaimed
/// and what the rewrite added: the paper's evaluation is append-only, a
/// deployed service is not.
pub fn vacuum_churn(cfg: &EvalConfig) -> String {
    let mut out = String::new();
    let ((sessions, per_session), ratio) = (churn_shape(cfg), VacuumOptions::default().ratio);
    let each = fmt_bytes(per_session);
    let what = format!("{sessions} sessions of {each} each, keep-last {KEEP}, vacuum ratio {ratio}");
    outln!(out, "Vacuum reclaim vs. churn — {what}");
    let rows: Vec<Vec<String>> = std::iter::zip(CHURN, vacuum_churn_rows(cfg))
        .map(|(churn, [before, retained, vacuumed, rewritten, relocations])| {
            let total = format!("{:.1}%", 100.0 * (before - vacuumed) as f64 / before as f64);
            let reclaim = [before, before - retained, retained - vacuumed].map(fmt_bytes);
            let counts = [rewritten, relocations].map(|n| n.to_string());
            [vec![format!("{:.0}%", churn * 100.0)], reclaim.to_vec(), vec![total], counts.to_vec()].concat()
        })
        .collect();
    let reclaims = ["retention reclaim", "vacuum reclaim", "total reclaimed"];
    let headers = [&["churn", "stored before"], &reclaims[..], &["rewritten", "relocations"]].concat();
    print_table(&mut out, "Reclaimed space after keep-last-5 retention + one vacuum pass", &headers, &rows);
    outln!(
        out,
        "\nshape: retention's own deletes only reclaim containers that died whole, so \
         its share grows with churn; the vacuum share is the dead bytes stranded next \
         to live journal bytes and peaks at mid churn — below that containers stay \
         above the 0.5 liveness bar, above it scratch fills whole containers that die \
         on their own. Every retained session stays bit-exact (tests/vacuum.rs)."
    );
    out
}

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! The `paper` command: one subcommand per table or figure of the
//! AA-Dedupe paper ([`FIGURES`]), and `all`, which rewrites every
//! `results/<subcommand>.txt`:
//! `cargo run --release -p aadedupe-bench --bin paper -- <subcommand>|all`.
//!
//! Each report prints its deterministic part first (byte ratios, chunk and
//! file counts, PUTs, cost, modelled disk probes, the vacuum table; pinned
//! in `tests/paper_golden.rs` and `tests/evaluation_golden.rs`) and its
//! timing part after a `-- timing` line. Where a pass is cheap enough to
//! repeat (Figs. 3 and 4), each time is the median of [`timed::ROUNDS`]
//! rounds in which the passes take turns.
//!
//! Environment knobs (all optional):
//! * `AA_EVAL_MB` — logical dataset size per weekly snapshot in MiB
//!   (default 64; the paper used ~35 GB/week).
//! * `AA_SESSIONS` — number of weekly sessions (default 10, as the paper).
//! * `AA_SEED` — dataset seed (default 2011).
//! * `AA_CSV` — when `1`, `evaluation` also emits raw per-session CSV rows.

use std::path::PathBuf;

use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, AaDedupeConfig, BackupScheme};
use aadedupe_metrics::SessionReport;
use aadedupe_workload::{DatasetSpec, Generator};

/// `writeln!` into a `String` report, which cannot fail.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)+) => {{
        $out.push_str(&format!($($arg)+));
        $out.push('\n');
    }};
}

pub mod figures;
pub mod timed;

/// A subcommand of `paper`: its name, which is also its file under
/// [`results_dir`], and the report it prints.
pub type Figure = (&'static str, fn(&EvalConfig) -> String);

/// Every subcommand of `paper`, in the order `all` runs them.
pub const FIGURES: [Figure; 11] = [
    ("fig1-2", figures::fig1_2),
    ("table1", figures::table1),
    ("fig3", timed::fig3),
    ("fig4", timed::fig4),
    ("obs2", figures::obs2),
    ("evaluation", figures::evaluation),
    ("ablation-chunking", figures::ablation_chunking),
    ("ablation-hash", figures::ablation_hash),
    ("ablation-container", figures::ablation_container),
    ("ablation-index", figures::ablation_index),
    ("vacuum-churn", figures::vacuum_churn),
];

/// The checkout's `results/` directory, which `paper all` rewrites.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Modelled client RAM budget (index entries) for a given dataset size:
/// at bench scale every index would fit, hiding the paper's disk-index
/// bottleneck, so the budget scales with the dataset — roughly the chunk
/// index of the non-media minority (what AA-Dedupe needs), well short of
/// the full-dataset index (what Avamar needs).
pub fn ram_budget_entries(dataset_bytes: u64) -> usize {
    ((dataset_bytes / 8192) as usize).max(1024)
}

/// Evaluation parameters shared by every subcommand.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Logical bytes per weekly snapshot.
    pub dataset_bytes: u64,
    /// Number of weekly full-backup sessions.
    pub sessions: usize,
    /// Workload seed.
    pub seed: u64,
    /// Emit raw CSV rows too.
    pub csv: bool,
}

impl EvalConfig {
    /// Reads the configuration from the environment (see crate docs).
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Reads the configuration through `var`, which maps a knob's name to
    /// its value; a knob that is absent or does not parse takes its default.
    pub fn from_lookup(var: impl Fn(&str) -> Option<String>) -> Self {
        let number = |name: &str, default| var(name).and_then(|v| v.parse().ok()).unwrap_or(default);
        EvalConfig {
            dataset_bytes: number("AA_EVAL_MB", 64) << 20,
            sessions: number("AA_SESSIONS", 10) as usize,
            seed: number("AA_SEED", 2011),
            csv: var("AA_CSV").as_deref() == Some("1"),
        }
    }
}

/// Result of sweeping one scheme over all sessions.
pub struct SchemeRun {
    /// Scheme name.
    pub name: &'static str,
    /// One report per session.
    pub reports: Vec<SessionReport>,
    /// The scheme's private cloud (for cost/storage queries).
    pub cloud: CloudSim,
}

impl SchemeRun {
    /// `field` summed over every session.
    pub fn total(&self, field: impl Fn(&SessionReport) -> u64) -> u64 {
        self.reports.iter().map(field).sum()
    }
}

/// Runs the full five-scheme × N-session evaluation. Every scheme sees the
/// *identical* weekly snapshots (same spec + seed ⇒ byte-identical data),
/// and every scheme gets the same modelled RAM budget for its indexes.
pub fn run_evaluation(cfg: EvalConfig) -> Vec<SchemeRun> {
    let ram = ram_budget_entries(cfg.dataset_bytes);
    run_evaluation_with(cfg, move |cloud| aadedupe_baselines::all_schemes_with_ram(cloud, ram))
}

/// An AA-Dedupe variant of an ablation: its row label and its engine.
pub type Variant = (&'static str, AaDedupeConfig);

/// The ablations' one scheme factory: runs every variant over the
/// evaluation's sessions, as [`run_evaluation`] runs the five schemes.
pub fn run_variants(cfg: EvalConfig, variants: &[Variant]) -> Vec<SchemeRun> {
    let engine = |cloud: &CloudSim, config: &AaDedupeConfig| -> Box<dyn BackupScheme> {
        Box::new(AaDedupe::with_config(cloud.clone(), config.clone()))
    };
    run_evaluation_with(cfg, |cloud| variants.iter().map(|(_, config)| engine(cloud, config)).collect())
}

/// Like [`run_evaluation`] but with a caller-supplied scheme factory. Each
/// scheme gets its own cloud, so storage and cost are per scheme.
#[expect(clippy::expect_used, reason = "a failed session invalidates the whole run")]
pub fn run_evaluation_with(
    cfg: EvalConfig,
    factory: impl Fn(&CloudSim) -> Vec<Box<dyn BackupScheme>>,
) -> Vec<SchemeRun> {
    let schemes = factory(&CloudSim::with_paper_defaults()).len();
    (0..schemes)
        .map(|si| {
            let cloud = CloudSim::with_paper_defaults();
            let mut scheme = factory(&cloud).remove(si);
            let mut generator = Generator::new(DatasetSpec::eval_mix(cfg.dataset_bytes), cfg.seed);
            let mut session = |week| scheme.backup_session(&generator.snapshot(week).as_sources());
            let reports = (0..cfg.sessions).map(|week| session(week).expect("backup session failed")).collect();
            eprintln!("  [done] {}", scheme.name());
            SchemeRun { name: scheme.name(), reports, cloud }
        })
        .collect()
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Formats bytes/second.
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    if !bytes_per_sec.is_finite() {
        return "∞".into();
    }
    format!("{}/s", fmt_bytes(bytes_per_sec as u64))
}

/// Appends an aligned plain-text table to a report: a blank line, the
/// title, the header, a rule and the rows.
pub fn print_table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| -> String {
        let padded = cells.zip(&widths).enumerate().map(|(i, (cell, width))| {
            let pad = " ".repeat(width - cell.chars().count());
            if i == 0 { format!("{cell}{pad}") } else { format!("  {pad}{cell}") }
        });
        padded.collect()
    };
    outln!(out, "\n== {title} ==\n{}", line(&mut headers.iter().copied()));
    outln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        outln!(out, "{}", line(&mut row.iter().map(String::as_str)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn fmt_rate_handles_infinity() {
        assert_eq!(fmt_rate(f64::INFINITY), "∞");
        assert_eq!(fmt_rate(1024.0), "1.00 KiB/s");
    }

    #[test]
    fn env_defaults() {
        // No knob set: the defaults. No process environment is read.
        let cfg = EvalConfig::from_lookup(|_| None);
        assert_eq!(cfg.sessions, 10);
        assert_eq!(cfg.dataset_bytes, 64 << 20);
        assert_eq!(cfg.seed, 2011);
        assert!(!cfg.csv);
        // Every knob set; one that does not parse keeps its default.
        let set = |name: &str| match name {
            "AA_EVAL_MB" => Some("8".to_string()),
            "AA_SESSIONS" => Some("three".to_string()),
            "AA_SEED" => Some("7".to_string()),
            "AA_CSV" => Some("1".to_string()),
            _ => None,
        };
        let cfg = EvalConfig::from_lookup(set);
        assert_eq!((cfg.dataset_bytes, cfg.sessions, cfg.seed, cfg.csv), (8 << 20, 10, 7, true));
    }

    #[test]
    fn tiny_evaluation_smoke() {
        // A micro evaluation across all five schemes: every session must
        // succeed and produce coherent reports.
        let cfg = EvalConfig { dataset_bytes: 2 << 20, sessions: 2, seed: 7, csv: false };
        let runs = run_evaluation(cfg);
        assert_eq!(runs.len(), 5);
        for run in &runs {
            assert_eq!(run.reports.len(), 2);
            for r in &run.reports {
                assert!(r.stored_bytes <= r.logical_bytes, "{}", run.name);
                assert!(r.logical_bytes > 0);
            }
        }
        // All schemes saw the same logical data.
        let logical: Vec<u64> = runs.iter().map(|r| r.reports[0].logical_bytes).collect();
        assert!(logical.windows(2).all(|w| w[0] == w[1]), "{logical:?}");
    }
}

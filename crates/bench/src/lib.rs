#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Benchmark harness for the AA-Dedupe reproduction.
//!
//! One runnable binary per table/figure of the paper (see DESIGN.md §3 for
//! the experiment index); this library holds what they share: the
//! evaluation configuration, the five-scheme sweep runner, and plain-text
//! table formatting.
//!
//! Environment knobs (all optional):
//!
//! * `AA_EVAL_MB` — logical dataset size per weekly snapshot in MiB
//!   (default 64; the paper used ~35 GB/week — scale up if you have the
//!   time budget).
//! * `AA_SESSIONS` — number of weekly sessions (default 10, as the paper).
//! * `AA_SEED` — dataset seed (default 2011).
//! * `AA_CSV` — when `1`, also emit raw per-session CSV rows.

use aadedupe_cloud::CloudSim;
use aadedupe_core::BackupScheme;
use aadedupe_metrics::SessionReport;
use aadedupe_workload::{DatasetSpec, Generator};

/// Modelled client RAM budget (index entries) for a given dataset size.
///
/// The paper's clients index 35 GB weekly snapshots on 2010 laptops where
/// the chunk index cannot be fully RAM-resident (the DDFS bottleneck). At
/// laptop-bench scale everything would trivially fit, hiding the effect,
/// so the budget scales with the dataset: enough to hold roughly the
/// chunk index of the *non-media minority* (what AA-Dedupe needs), well
/// short of the full-dataset chunk index (what Avamar needs).
pub fn ram_budget_entries(dataset_bytes: u64) -> usize {
    ((dataset_bytes / 8192) as usize).max(1024)
}

/// Evaluation parameters shared by the figure binaries.
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
        let mb = std::env::var("AA_EVAL_MB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(64);
        let sessions = std::env::var("AA_SESSIONS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(10);
        let seed = std::env::var("AA_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(2011);
        let csv = std::env::var("AA_CSV").is_ok_and(|v| v == "1");
        EvalConfig { dataset_bytes: mb << 20, sessions, seed, csv }
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

/// Runs the full five-scheme × N-session evaluation. Every scheme sees the
/// *identical* weekly snapshots (same spec + seed ⇒ byte-identical data),
/// and every scheme gets the same modelled RAM budget for its indexes.
pub fn run_evaluation(cfg: EvalConfig) -> Vec<SchemeRun> {
    let ram = ram_budget_entries(cfg.dataset_bytes);
    run_evaluation_with(cfg, move |cloud| aadedupe_baselines::all_schemes_with_ram(cloud, ram))
}

/// Like [`run_evaluation`] but with a caller-supplied scheme factory (used
/// by the ablation binaries).
pub fn run_evaluation_with(
    cfg: EvalConfig,
    factory: impl Fn(&CloudSim) -> Vec<Box<dyn BackupScheme>>,
) -> Vec<SchemeRun> {
    // Each scheme gets its own cloud so storage/cost accounting is
    // per-scheme; the probe instance is only used for naming.
    let probe = factory(&CloudSim::with_paper_defaults());
    let mut runs: Vec<SchemeRun> = Vec::new();
    for (si, probe_scheme) in probe.iter().enumerate() {
        let cloud = CloudSim::with_paper_defaults();
        let mut scheme = factory(&cloud).remove(si);
        let mut generator = Generator::new(DatasetSpec::eval_mix(cfg.dataset_bytes), cfg.seed);
        let mut reports = Vec::with_capacity(cfg.sessions);
        for week in 0..cfg.sessions {
            let snapshot = generator.snapshot(week);
            #[expect(
                clippy::expect_used,
                reason = "evaluation harness: a failed session invalidates the whole run, \
                          aborting with the error is the intended behavior"
            )]
            let report =
                scheme.backup_session(&snapshot.as_sources()).expect("backup session failed");
            reports.push(report);
        }
        eprintln!("  [done] {}", probe_scheme.name());
        runs.push(SchemeRun { name: scheme.name(), reports, cloud });
    }
    runs
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

/// Prints an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let pad = widths[i].saturating_sub(c.chars().count());
            if i == 0 {
                s.push_str(c);
                s.push_str(&" ".repeat(pad));
            } else {
                s.push_str("  ");
                s.push_str(&" ".repeat(pad));
                s.push_str(c);
            }
        }
        s
    };
    let header_cells: Vec<String> = headers.iter().map(ToString::to_string).collect();
    println!("{}", line(&header_cells));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    for row in rows {
        println!("{}", line(row));
    }
}

/// Emits raw CSV for a set of scheme runs when the config asks for it.
pub fn maybe_csv(cfg: &EvalConfig, runs: &[SchemeRun]) {
    if !cfg.csv {
        return;
    }
    println!("\n{}", SessionReport::CSV_HEADER);
    for run in runs {
        for r in &run.reports {
            println!("{}", r.csv_row());
        }
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
        // Without env vars set, defaults apply.
        let cfg = EvalConfig::from_env();
        assert_eq!(cfg.sessions, 10);
        assert_eq!(cfg.dataset_bytes, 64 << 20);
        assert_eq!(cfg.seed, 2011);
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

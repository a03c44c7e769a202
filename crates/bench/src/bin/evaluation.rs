#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Figures 7–11: the full five-scheme evaluation.
//!
//! Runs Jungle Disk, BackupPC, Avamar, SAM and AA-Dedupe over the same ten
//! weekly full backups and regenerates:
//!
//! * **Fig. 7** — cumulative cloud storage per session,
//! * **Fig. 8** — dedup efficiency (bytes saved per second) per session,
//! * **Fig. 9** — backup window per session (NT = 500 KB/s),
//! * **Fig. 10** — monthly cloud cost (S3 April 2011 prices),
//! * **Fig. 11** — energy per session (source-dedup schemes).
//!
//! Run: `cargo run --release -p aadedupe-bench --bin evaluation`
//! (`AA_EVAL_MB=256 AA_SESSIONS=10` for a bigger run; `AA_CSV=1` for raw rows.)

use aadedupe_bench::{fmt_bytes, maybe_csv, print_table, run_evaluation, EvalConfig, SchemeRun};
use aadedupe_metrics::{report::cumulative_transferred, EnergyModel, SessionReport};

/// The paper's upload bandwidth (NT), bytes/second.
const NT: f64 = 500.0 * 1024.0;

fn per_session_table<F: Fn(&SchemeRun, usize) -> String>(
    runs: &[SchemeRun],
    sessions: usize,
    cell: F,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let mut headers: Vec<&'static str> = vec!["session"];
    headers.extend(runs.iter().map(|r| r.name));
    let rows = (0..sessions)
        .map(|s| {
            let mut row = vec![format!("{}", s + 1)];
            row.extend(runs.iter().map(|r| cell(r, s)));
            row
        })
        .collect();
    (headers, rows)
}

fn main() {
    let cfg = EvalConfig::from_env();
    println!(
        "Evaluation — {} schemes × {} weekly sessions × {} logical/session (seed {})",
        5,
        cfg.sessions,
        fmt_bytes(cfg.dataset_bytes),
        cfg.seed
    );
    eprintln!("running (this processes ~{} of data)...", fmt_bytes(cfg.dataset_bytes * cfg.sessions as u64 * 5));
    let runs = run_evaluation(cfg);

    // ---- Fig. 7: cumulative cloud storage -------------------------------
    let cumulative: Vec<Vec<u64>> = runs.iter().map(|r| cumulative_transferred(&r.reports)).collect();
    let (headers, rows) = per_session_table(&runs, cfg.sessions, |r, s| {
        let i = runs.iter().position(|x| std::ptr::eq(x, r)).unwrap();
        fmt_bytes(cumulative[i][s])
    });
    print_table("Fig. 7: cumulative cloud storage", &headers, &rows);

    // ---- Fig. 8: dedup efficiency ---------------------------------------
    let (headers, rows) =
        per_session_table(&runs, cfg.sessions, |r, s| aadedupe_bench::fmt_rate(r.reports[s].de()));
    print_table("Fig. 8: dedup efficiency (bytes saved per second)", &headers, &rows);

    // Average DE ratios vs AA-Dedupe (paper: AA ≈ 2× BackupPC, 5× SAM,
    // 7× Avamar). Session 0 is the seeding session with little redundancy
    // for anyone; the paper's ratios concern steady-state sessions.
    let avg_de: Vec<f64> = runs
        .iter()
        .map(|r| {
            let des: Vec<f64> = r.reports.iter().skip(1).map(SessionReport::de).collect();
            des.iter().sum::<f64>() / des.len().max(1) as f64
        })
        .collect();
    let aa = avg_de.last().copied().unwrap_or(1.0);
    println!("\naverage DE (sessions 2..): ");
    for (run, de) in runs.iter().zip(&avg_de) {
        println!(
            "  {:<12} {:>14}   AA-Dedupe/this = {:.1}x",
            run.name,
            aadedupe_bench::fmt_rate(*de),
            aa / de.max(1e-9)
        );
    }

    // ---- Fig. 9: backup window ------------------------------------------
    let (headers, rows) = per_session_table(&runs, cfg.sessions, |r, s| {
        format!("{:.1} s", r.reports[s].bws(NT))
    });
    print_table("Fig. 9: backup window (NT = 500 KB/s)", &headers, &rows);
    let avg_bws: Vec<f64> = runs
        .iter()
        .map(|r| r.reports.iter().skip(1).map(|x| x.bws(NT)).sum::<f64>() / (cfg.sessions - 1).max(1) as f64)
        .collect();
    let aa_bws = *avg_bws.last().unwrap();
    println!("\naverage backup window (sessions 2..):");
    for (run, w) in runs.iter().zip(&avg_bws) {
        println!(
            "  {:<12} {:>9.1} s   AA-Dedupe shorter by {:.0}%",
            run.name,
            w,
            100.0 * (1.0 - aa_bws / w.max(1e-9))
        );
    }

    // ---- Fig. 10: monthly cloud cost -------------------------------------
    let mut rows = Vec::new();
    for run in &runs {
        let c = run.cloud.monthly_cost();
        rows.push(vec![
            run.name.to_string(),
            fmt_bytes(run.cloud.store().stored_bytes()),
            format!("${:.4}", c.storage),
            format!("${:.4}", c.transfer),
            format!("${:.4}", c.request),
            format!("${:.4}", c.total()),
        ]);
    }
    print_table(
        "Fig. 10: monthly cloud cost (S3 April 2011 prices)",
        &["scheme", "stored", "storage $", "transfer $", "requests $", "total $"],
        &rows,
    );

    // ---- Fig. 11: energy (source-dedup schemes) ---------------------------
    let model = EnergyModel::laptop_2010();
    let dedup_runs: Vec<&SchemeRun> = runs.iter().filter(|r| r.name != "Jungle Disk").collect();
    let mut headers: Vec<&'static str> = vec!["session"];
    headers.extend(dedup_runs.iter().map(|r| r.name));
    let rows: Vec<Vec<String>> = (0..cfg.sessions)
        .map(|s| {
            let mut row = vec![format!("{}", s + 1)];
            row.extend(
                dedup_runs
                    .iter()
                    .map(|r| format!("{:.0} J", r.reports[s].energy(&model, NT))),
            );
            row
        })
        .collect();
    print_table("Fig. 11: energy per session (source-dedup schemes)", &headers, &rows);
    let total_energy: Vec<f64> = dedup_runs
        .iter()
        .map(|r| r.reports.iter().map(|x| x.energy(&model, NT)).sum::<f64>())
        .collect();
    let aa_e = *total_energy.last().unwrap();
    println!("\ntotal energy over all sessions:");
    for (run, e) in dedup_runs.iter().zip(&total_energy) {
        println!(
            "  {:<12} {:>10.0} J   this/AA-Dedupe = {:.1}x",
            run.name,
            e,
            e / aa_e.max(1e-9)
        );
    }

    maybe_csv(&cfg, &runs);
}

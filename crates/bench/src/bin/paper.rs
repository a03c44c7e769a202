#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! `paper <subcommand>` prints one table or figure of the AA-Dedupe paper;
//! `paper all` runs every subcommand and writes what each prints to
//! `results/<subcommand>.txt`. The `aadedupe_bench` crate docs list the knobs.

use std::process::ExitCode;
use std::time::Instant;

use aadedupe_bench::{results_dir, EvalConfig, FIGURES};

fn main() -> ExitCode {
    let cfg = EvalConfig::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [command] = args.as_slice() else { return usage() };
    if command == "all" {
        for (name, figure) in FIGURES {
            let (start, path) = (Instant::now(), results_dir().join(format!("{name}.txt")));
            if let Err(e) = std::fs::write(&path, figure(&cfg)) {
                eprintln!("paper: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("{name}: {:.1} s", start.elapsed().as_secs_f64());
        }
        return ExitCode::SUCCESS;
    }
    let Some((_, figure)) = FIGURES.iter().find(|(name, _)| name == command) else { return usage() };
    print!("{}", figure(&cfg));
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: paper <{}|all>", names.join("|"));
    ExitCode::from(2)
}

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! `aalint` CLI.
//!
//! ```text
//! cargo run -p aalint -- check            # human-readable, exit 1 on findings
//! cargo run -p aalint -- check --json     # machine-readable report on stdout
//! cargo run -p aalint -- check --root DIR # scan an explicit workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "check" if cmd.is_none() => cmd = Some(arg),
            _ => return usage(&format!("unrecognized argument `{arg}`")),
        }
    }
    if cmd.as_deref() != Some("check") {
        return usage("expected the `check` subcommand");
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("aalint: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match aalint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("aalint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match aalint::scan_workspace(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("aalint: scan failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("aalint: {err}\nusage: aalint check [--json] [--root <workspace-dir>]");
    ExitCode::from(2)
}

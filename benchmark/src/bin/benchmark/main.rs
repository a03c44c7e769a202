#![forbid(unsafe_code)]
//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--trace-out <file>]
//! benchmark all --out <set.json> [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! A run measures one workload. With `--trace 0` it walks the end-to-end
//! path only and prints the end-to-end metrics; with `--trace 1` it
//! replays the same workload layer by layer and prints the per-layer
//! metrics. Progress and the readable tables go to stderr; the last line
//! of stdout is the result object. See `benchmark/README.md`.

mod compare;
mod e2e;
mod layers;
mod replay;
mod run;
mod schema;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// Arguments of one measuring run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two iterations over a workload scaled down by
    /// [`workloads::SMOKE_DIVISOR`]: a functional check, not a measurement.
    pub smoke: bool,
    /// Where the traced run writes its spans (default
    /// `.bench_out/trace-<workload>-<seed>.ndjson`).
    pub trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage:
  benchmark --workload <full_mixed|weekly_incr|media_large|vm_spill> [--seed <n>] [--seconds <s>]
            [--trace <0|1>] [--smoke] [--trace-out <file>]
  benchmark all --out <set.json> [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke]
  benchmark compare <a.json> <b.json>";

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.remove(i))
        .is_some()
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match take_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
    }
}

fn parse_run(mut args: Vec<String>) -> Result<RunArgs, String> {
    let name = take_value(&mut args, "--workload")?.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = take_parsed(&mut args, "--seed", run::DEFAULT_SEED)?;
    let seconds: f64 = take_parsed(&mut args, "--seconds", run::DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match take_parsed(&mut args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let smoke = take_flag(&mut args, "--smoke");
    let workload = if smoke {
        workload.scaled(workloads::SMOKE_DIVISOR)
    } else {
        workload
    };
    let trace_out = take_value(&mut args, "--trace-out")?.map(PathBuf::from);
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        trace_out,
    })
}

fn parse_all(mut args: Vec<String>) -> Result<suite::SuiteArgs, String> {
    let out = take_value(&mut args, "--out")?
        .map(PathBuf::from)
        .ok_or("--out is required")?;
    let seed = take_parsed(&mut args, "--seed", run::DEFAULT_SEED)?;
    let seconds: f64 = take_parsed(&mut args, "--seconds", run::DEFAULT_SECONDS)?;
    let runs: u64 = take_parsed(&mut args, "--runs", 10)?;
    let smoke = take_flag(&mut args, "--smoke");
    if !(seconds.is_finite() && seconds > 0.0) || runs == 0 || !args.is_empty() {
        return Err(format!("bad arguments to `all`: {args:?}"));
    }
    Ok(suite::SuiteArgs {
        out,
        seed,
        seconds,
        runs,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        // Internal: one repository lifetime in a fresh process (see
        // `run::rss_probe`).
        Some("rss-probe") => parse_run(args[1..].to_vec()).and_then(|a| run::rss_probe(&a)),
        Some("all") => parse_all(args[1..].to_vec()).and_then(|a| suite::run_all(&a)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run_compare(a, b),
            _ => Err("compare takes two result sets".into()),
        },
        _ => parse_run(args).and_then(|a| run::run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! `benchmark all`: a result set — every workload, `--runs` end-to-end
//! runs on consecutive seeds plus the traced runs — in one JSON document.
//!
//! Each run is a child process of this binary, so peak-RSS and allocator
//! state never leak from one run into the next, and the numbers are the
//! ones the driver's own invocations produce.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use aadedupe_obs::json::{self, Value};

use crate::schema::{E2E, LAYERS};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;

/// Version of the result-set layout.
pub const SET_SCHEMA: u32 = 1;
/// Traced runs per workload (on the first seeds of the set).
const TRACED_RUNS: u64 = 2;

pub struct SuiteArgs {
    pub out: std::path::PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub runs: u64,
    pub smoke: bool,
}

/// One child run's result object.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
    let metrics = doc
        .get("metrics")
        .as_obj()
        .ok_or("result line has no metrics object")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .as_f64()
                .ok_or_else(|| format!("{name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        attempted: doc.get("attempted").as_u64().ok_or("no attempted count")?,
        failed: doc.get("failed").as_u64().ok_or("no failed count")?,
        metrics,
    })
}

fn child_run(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(parse_result);
    match result {
        // A run whose checks failed still reports; it exits non-zero.
        Ok(result) if output.status.success() || result.failed > 0 => Ok(result),
        other => {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            Err(format!(
                "{workload} seed {seed} trace {}: {} ({})",
                u8::from(trace),
                other
                    .err()
                    .unwrap_or_else(|| "failed without a failed operation".into()),
                output.status
            ))
        }
    }
}

fn summary_json(unit: &str, values: &[f64]) -> String {
    let s = Summary::of(values).unwrap_or(Summary {
        median: 0.0,
        q1: 0.0,
        q3: 0.0,
        min: 0.0,
        max: 0.0,
        n: 0,
    });
    let list = values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"values\": [{list}]}}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    )
}

/// The host, as in the repository's other bench artifacts: numbers from
/// two machines only compare when this matches.
fn machine_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {cpus}}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs the whole suite and writes the result set to `args.out`.
/// `Ok(true)` when no operation failed in any run.
pub fn run_all(args: &SuiteArgs) -> Result<bool, String> {
    let mut sections = Vec::new();
    let mut clean = true;
    for w in WORKLOADS {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut e2e: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in 0..args.runs {
            eprintln!(
                "{}: end-to-end run {} of {} (seed {})",
                w.name,
                r + 1,
                args.runs,
                args.seed + r
            );
            let result = child_run(args, w.name, args.seed + r, false)?;
            attempted += result.attempted;
            failed += result.failed;
            for m in E2E {
                let value = result
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("{} missing", m.name))?;
                e2e.entry(m.name).or_default().push(*value);
            }
        }
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in 0..TRACED_RUNS.min(args.runs) {
            eprintln!(
                "{}: traced run {} of {} (seed {})",
                w.name,
                r + 1,
                TRACED_RUNS,
                args.seed + r
            );
            let result = child_run(args, w.name, args.seed + r, true)?;
            attempted += result.attempted;
            failed += result.failed;
            for m in LAYERS {
                let value = result
                    .metrics
                    .get(m.name)
                    .ok_or_else(|| format!("{} missing", m.name))?;
                layers.entry(m.name).or_default().push(*value);
            }
        }
        clean &= failed == 0;
        for m in E2E {
            if let Some(s) = e2e.get(m.name).and_then(|v| Summary::of(v)) {
                eprintln!(
                    "  {:<34} {:>12.4} {:<6} spread {:>6.2}% of bound {:>4.1}%",
                    m.name,
                    s.median,
                    m.unit,
                    s.spread() * 100.0,
                    m.bound * 100.0
                );
            }
        }
        let block = |metrics: &BTreeMap<&str, Vec<f64>>, unit_of: &dyn Fn(&str) -> &'static str| {
            metrics
                .iter()
                .map(|(name, values)| {
                    format!(
                        "        \"{name}\": {}",
                        summary_json(unit_of(name), values)
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let e2e_unit = |name: &str| E2E.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        let layer_unit = |name: &str| {
            LAYERS
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
        };
        sections.push(format!(
            "    \"{}\": {{\n      \"budget_kib\": {},\n      \"ops_attempted\": {attempted},\n      \"ops_failed\": {failed},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            w.name,
            if args.smoke { w.scaled(crate::workloads::SMOKE_DIVISOR) } else { w }.budget_kib,
            block(&e2e, &e2e_unit),
            block(&layers, &layer_unit)
        ));
    }
    let doc = format!(
        "{{\n  \"schema\": {SET_SCHEMA},\n  \"machine\": {},\n  \"commit\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": {},\n  \"smoke\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        machine_json(),
        git_commit(),
        args.seed,
        args.seconds,
        args.runs,
        args.smoke,
        sections.join(",\n")
    );
    json::parse(&doc).map_err(|e| format!("bug: the result set does not parse: {e}"))?;
    write_file(&args.out, &doc)?;
    eprintln!("wrote {}", args.out.display());
    Ok(clean)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a result set written by [`run_all`].
pub fn load_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").as_u64() {
        Some(v) if v == u64::from(SET_SCHEMA) => Ok(doc),
        Some(v) => Err(format!(
            "{path}: result-set schema {v}, this binary reads {SET_SCHEMA}"
        )),
        None => Err(format!("{path}: not a benchmark result set")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#,
        )
        .expect("parses");
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics.get("setup_s"), Some(&0.25));
        assert!(parse_result("not json").is_err());
        assert!(parse_result(r#"{"attempted": 1}"#).is_err());
    }

    #[test]
    fn summary_json_parses_and_keeps_every_value() {
        let doc = json::parse(&summary_json("ms", &[3.0, 1.0, 2.0])).expect("parses");
        assert_eq!(doc.get("median").as_f64(), Some(2.0));
        assert_eq!(doc.get("n").as_u64(), Some(3));
        assert_eq!(doc.get("values").as_arr().map(<[Value]>::len), Some(3));
        assert_eq!(doc.get("unit").as_str(), Some("ms"));
    }

    #[test]
    fn machine_json_parses() {
        let doc = json::parse(&machine_json()).expect("parses");
        assert!(doc.get("cpus").as_u64().is_some());
    }
}

//! One measuring run: set-up, the end-to-end phase or the traced phase,
//! and the result object.

use std::time::Instant;

use crate::e2e::{self, Costs, Ops};
use crate::schema::E2E;
use crate::stats::{status_mib, Summary};
use crate::workloads::{prepare, Corpus, Scratch, Workload};
use crate::RunArgs;

pub const DEFAULT_SEED: u64 = 2011;
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Set-up is repeated and its median reported, so one slow page-fault
/// burst does not decide `setup_s`: at least `MIN_SETUPS` times, then until
/// `SETUP_BUDGET_S` is spent or `MAX_SETUPS` is reached.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 21;
const SETUP_BUDGET_S: f64 = 1.5;
/// Iterations measured even when `--seconds` is already spent.
const MIN_ITERATIONS: usize = 5;
const SMOKE_ITERATIONS: usize = 2;
/// Fresh processes behind `rss_growth_mib` (their median is reported).
const RSS_PROBES: usize = 3;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Distribution of the samples behind `value`, where there are any.
    pub summary: Option<Summary>,
}

/// Everything a run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
}

/// Set-up as the benchmark defines it: generator, materialisation and the
/// index directory. Returns the corpus and the seconds it took.
fn set_up(w: &Workload, seed: u64, scratch: &Scratch) -> Result<(Corpus, f64), String> {
    let start = Instant::now();
    let corpus = prepare(w, seed);
    let dir = scratch
        .fresh_dir("setup")
        .map_err(|e| format!("scratch: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    scratch.discard(&dir);
    Ok((corpus, seconds))
}

/// What `benchmark rss-probe` prints: the peak resident-set growth of one
/// repository lifetime in a process that has done nothing else.
///
/// A user's backup is a fresh process. Inside the measuring loop the peak
/// would instead depend on what earlier iterations left in the allocator's
/// free lists (±20 % between seeds); from a clean heap it repeats to a
/// few percent.
pub fn rss_probe(args: &RunArgs) -> Result<bool, String> {
    let (growth, ops) = probe_in_process(args)?;
    println!(
        "{{\"rss_growth_mib\": {growth}, \"attempted\": {}, \"failed\": {}}}",
        ops.attempted, ops.failed
    );
    Ok(ops.failed == 0)
}

/// Set-up, then one repository lifetime; the peak RSS above the set-up's.
fn probe_in_process(args: &RunArgs) -> Result<(f64, Ops), String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch: {e}"))?;
    let (corpus, _) = set_up(&args.workload, args.seed, &scratch)?;
    let rss_after_setup = status_mib("VmRSS");
    let it = e2e::iteration(&args.workload, &corpus, &scratch, args.seed, 0)
        .map_err(|e| format!("scratch: {e}"))?;
    Ok((it.peak_rss_mib - rss_after_setup, it.ops))
}

/// Runs `benchmark rss-probe` as a child and reads its one-line result.
fn spawn_rss_probe(args: &RunArgs, ops: &mut Ops) -> Result<f64, String> {
    if cfg!(test) {
        // The test harness is not the benchmark binary: nothing to spawn.
        let (growth, probe_ops) = probe_in_process(args)?;
        ops.absorb(probe_ops);
        return Ok(growth);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args([
        "rss-probe",
        "--workload",
        args.workload.name,
        "--seed",
        &args.seed.to_string(),
    ]);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let output = command
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the rss probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = aadedupe_obs::json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("rss probe ({}): {e}", output.status))?;
    let field = |name: &str| {
        doc.get(name)
            .as_f64()
            .ok_or_else(|| format!("rss probe: no {name}"))
    };
    ops.attempted += field("attempted")? as u64;
    ops.failed += field("failed")? as u64;
    field("rss_growth_mib")
}

fn run_e2e(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let w = &args.workload;
    let io = |e: std::io::Error| format!("scratch: {e}");

    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let setting_up = Instant::now();
    let corpus = loop {
        let (corpus, seconds) = set_up(w, args.seed, scratch)?;
        setup_s.push(seconds);
        let enough =
            setup_s.len() >= MIN_SETUPS && setting_up.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        if args.smoke || enough || setup_s.len() >= MAX_SETUPS {
            break corpus;
        }
        // One corpus resident at a time, as in every later phase.
        drop(corpus);
    };

    let mut ops = Ops::default();
    // Warm-up: allocator arenas, page cache and branch predictors settle;
    // its operations count, its timings do not.
    let warm = e2e::iteration(w, &corpus, scratch, args.seed, 0).map_err(io)?;
    ops.absorb(warm.ops);
    let reference: Costs = warm.costs;

    let mut iterations = Vec::new();
    let started = Instant::now();
    loop {
        let round = iterations.len() as u64 + 1;
        let it = e2e::iteration(w, &corpus, scratch, args.seed, round).map_err(io)?;
        ops.absorb(it.ops);
        ops.check(it.costs == reference, || {
            format!(
                "{}: cost figures changed between iterations: {:?} vs {reference:?}",
                w.name, it.costs
            )
        });
        iterations.push(it);
        let done = if args.smoke {
            iterations.len() >= SMOKE_ITERATIONS
        } else {
            iterations.len() >= MIN_ITERATIONS && started.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            break;
        }
    }

    let probes = if args.smoke { 1 } else { RSS_PROBES };
    let rss_growth = (0..probes)
        .map(|_| spawn_rss_probe(args, &mut ops))
        .collect::<Result<Vec<f64>, String>>()?;

    let series =
        |f: &dyn Fn(&e2e::Iteration) -> f64| -> Vec<f64> { iterations.iter().map(f).collect() };

    let sampled = |name: &'static str, samples: Vec<f64>| -> (&'static str, f64, Option<Summary>) {
        let summary = Summary::of(&samples);
        (name, summary.map_or(0.0, |s| s.median), summary)
    };
    let values = [
        sampled("setup_s", setup_s),
        sampled("backup_mib_s", series(&|it| it.backup_mib_s)),
        sampled("restore_mib_s", series(&|it| it.restore_mib_s)),
        sampled("cpu_s_per_gib", series(&|it| it.cpu_s_per_gib)),
        (
            "stored_bytes_per_logical_byte",
            reference.stored_per_logical,
            None,
        ),
        (
            "upload_bytes_per_logical_byte",
            reference.upload_per_logical,
            None,
        ),
        ("put_requests_per_gib", reference.puts_per_gib, None),
        sampled("rss_growth_mib", rss_growth),
    ];
    let metrics = E2E
        .iter()
        .map(|m| {
            let (_, value, summary) = values
                .iter()
                .find(|(name, _, _)| *name == m.name)
                .ok_or(m.name)?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value: *value,
                summary: *summary,
            })
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(|name| format!("no value computed for {name}"))?;
    Ok(Outcome { metrics, ops })
}

/// The result object the driver reads: the last line of stdout.
pub fn result_line(outcome: &Outcome) -> String {
    // `{}` prints the shortest text that reads back to the same f64: every
    // measured digit, no rounding.
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted,
        outcome.ops.failed
    )
}

fn print_table(args: &RunArgs, outcome: &Outcome) {
    eprintln!(
        "workload {}  seed {}  seconds {}  trace {}{}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke {
            "  (smoke: not a measurement)"
        } else {
            ""
        }
    );
    for m in &outcome.metrics {
        match m.summary {
            Some(s) => eprintln!(
                "  {:<38} {:>14.4} {:<7} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
                m.name, m.value, m.unit, s.q1, s.q3, s.min, s.max, s.n
            ),
            None => eprintln!("  {:<38} {:>14.4} {:<7}", m.name, m.value, m.unit),
        }
    }
    eprintln!(
        "  ops_attempted {}  ops_failed {}",
        outcome.ops.attempted, outcome.ops.failed
    );
}

/// Measures one workload: the end-to-end phase or the traced phase.
pub fn measure(args: &RunArgs) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch: {e}"))?;
    let mut outcome = if args.trace {
        crate::layers::run_traced(args, &scratch)?
    } else {
        run_e2e(args, &scratch)?
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .ops
                .check(false, || format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    Ok(outcome)
}

/// Runs one workload and prints its result; `Ok(true)` when every
/// correctness check passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let outcome = measure(args)?;
    print_table(args, &outcome);
    println!("{}", result_line(&outcome));
    Ok(outcome.ops.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::LAYERS;
    use crate::workloads::WORKLOADS;

    fn smoke(workload: Workload, trace: bool, scratch: &Scratch) -> Outcome {
        let args = RunArgs {
            workload: workload.scaled(crate::workloads::SMOKE_DIVISOR),
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace,
            smoke: true,
            trace_out: Some(scratch.path(&format!("trace-{}.ndjson", workload.name))),
        };
        measure(&args).unwrap_or_else(|e| panic!("{} trace {trace}: {e}", workload.name))
    }

    #[test]
    fn smoke_runs_are_correct_and_report_every_declared_metric() {
        let scratch = Scratch::create().expect("scratch");
        for w in WORKLOADS {
            let e2e = smoke(w, false, &scratch);
            assert_eq!(e2e.ops.failed, 0, "{}", w.name);
            assert!(e2e.ops.attempted > 0);
            assert_eq!(
                e2e.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
                E2E.map(|m| m.name)
            );
            // (Two exceptions at smoke scale inside a test harness: CPU
            // time comes in 10 ms ticks, so an iteration can use none, and
            // the RSS probe runs in this already-warm process.)
            let coarse = ["cpu_s_per_gib", "rss_growth_mib"];
            for m in e2e.metrics.iter().filter(|m| !coarse.contains(&m.name)) {
                assert!(m.value > 0.0, "{}: {} is never 0", w.name, m.name);
            }

            let traced = smoke(w, true, &scratch);
            assert_eq!(traced.ops.failed, 0, "{}", w.name);
            assert_eq!(
                traced.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
                LAYERS.map(|m| m.name)
            );

            // The result object parses with the repository's own reader
            // and names exactly the declared metrics.
            for (outcome, names) in [
                (&e2e, E2E.iter().map(|m| m.name).collect::<Vec<_>>()),
                (&traced, LAYERS.iter().map(|m| m.name).collect::<Vec<_>>()),
            ] {
                let doc =
                    aadedupe_obs::json::parse(&result_line(outcome)).expect("result line parses");
                assert_eq!(doc.get("failed").as_u64(), Some(0));
                let keys: Vec<&str> = doc
                    .get("metrics")
                    .as_obj()
                    .expect("metrics")
                    .keys()
                    .map(String::as_str)
                    .collect();
                let mut sorted = names.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted);
            }

            // The trace file is NDJSON: one run span, passes under it,
            // per-file spans under the passes.
            let text = std::fs::read_to_string(scratch.path(&format!("trace-{}.ndjson", w.name)))
                .expect("trace file written");
            let spans = aadedupe_obs::json::parse_ndjson(&text).expect("trace parses");
            assert_eq!(spans[0].get("name").as_str(), Some("run"));
            assert!(spans
                .iter()
                .skip(1)
                .all(|s| s.get("parent").as_u64().is_some()));
            assert!(spans.iter().any(|s| s.get("file").as_str().is_some()));
            assert!(spans
                .iter()
                .all(|s| s.get("workload").as_str() == Some(w.name)));
        }
    }

    #[test]
    fn bypass_predictions_hold() {
        let scratch = Scratch::create().expect("scratch");
        let value = |o: &Outcome, name: &str| {
            o.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared metric")
        };
        let media = smoke(
            Workload::by_name("media_large").expect("defined"),
            true,
            &scratch,
        );
        for idle in [
            "chunking.sc_mib_s",
            "chunking.cdc_rabin_mib_s",
            "hashing.md5_mib_s",
            "hashing.sha1_mib_s",
        ] {
            assert_eq!(
                value(&media, idle),
                0.0,
                "{idle}: media files take the WFC + Rabin-96 route"
            );
        }
        assert!(value(&media, "hashing.rabin96_mib_s") > 0.0);
        assert_eq!(value(&media, "index.disk_probes_per_lookup"), 0.0);
        let spill = smoke(
            Workload::by_name("vm_spill").expect("defined"),
            true,
            &scratch,
        );
        assert!(
            value(&spill, "index.disk_probes_per_lookup") > 0.0,
            "the spilling index reaches disk"
        );
        assert!(value(&spill, "hashing.md5_mib_s") > 0.0);
    }
}

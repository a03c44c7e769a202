//! `benchmark compare <a.json> <b.json>`: two result sets, row by row.
//!
//! One row per workload × end-to-end metric with both medians, both
//! quartile pairs, the metric's bound and a verdict; then the per-layer
//! differences. The verdict never calls a metric unchanged when the
//! run-to-run spread is wider than the bound it is judged by.

use aadedupe_obs::json::Value;

use crate::schema::{Better, E2eMetric, E2E, LAYERS};
use crate::stats::Summary;
use crate::suite::load_set;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` (the change) against `a` (the parent) for one metric.
///
/// * Spread (the wider interquartile range of the two, as a share of its
///   median) above the bound: the medians cannot be trusted to the bound,
///   so a verdict needs complete separation — `Better` when every run of
///   `b` beats every run of `a`, `Worse` when every run loses *and* the
///   median moved by more than the bound. Anything else is `Unresolved`,
///   never `Same`.
/// * Otherwise `Worse` when the median moved the wrong way by more than
///   the bound, `Better` when it moved the right way by more than the
///   parent's own spread, else `Same`.
pub fn judge(metric: &E2eMetric, a: &Summary, b: &Summary) -> Verdict {
    // Positive = b is worse, as a share of a's median.
    let sign = if metric.better == Better::Higher {
        -1.0
    } else {
        1.0
    };
    let worse_by = if a.median == 0.0 {
        0.0
    } else {
        sign * (b.median - a.median) / a.median.abs()
    };
    let (b_all_better, b_all_worse) = match metric.better {
        Better::Higher => (b.min > a.max, b.max < a.min),
        Better::Lower => (b.max < a.min, b.min > a.max),
    };
    if a.spread().max(b.spread()) > metric.bound {
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && worse_by > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > a.spread() && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_of(node: &Value) -> Option<Summary> {
    Some(Summary {
        median: node.get("median").as_f64()?,
        q1: node.get("q1").as_f64()?,
        q3: node.get("q3").as_f64()?,
        min: node.get("min").as_f64()?,
        max: node.get("max").as_f64()?,
        n: node.get("n").as_u64()? as usize,
    })
}

fn failure_rate(set: &Value, workload: &str) -> f64 {
    let w = set.get("workloads").get(workload);
    let attempted = w.get("ops_attempted").as_f64().unwrap_or(0.0);
    let failed = w.get("ops_failed").as_f64().unwrap_or(0.0);
    if attempted == 0.0 {
        1.0
    } else {
        failed / attempted
    }
}

/// Prints the comparison; `Ok(true)` when nothing got worse.
pub fn run_compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    if a.get("machine") != b.get("machine") {
        println!(
            "note: the two sets come from different machines; absolute numbers do not compare"
        );
    }
    let mut ok = true;
    println!(
        "{:<12} {:<30} {:>12} {:>23} {:>12} {:>23} {:>7} {:>6}  verdict",
        "workload", "metric", "a.median", "a.[q1, q3]", "b.median", "b.[q1, q3]", "change", "bound"
    );
    for w in WORKLOADS {
        for m in &E2E {
            let node = |set: &Value| {
                summary_of(
                    set.get("workloads")
                        .get(w.name)
                        .get("end_to_end")
                        .get(m.name),
                )
            };
            let (Some(sa), Some(sb)) = (node(&a), node(&b)) else {
                println!("{:<12} {:<30} missing from one set", w.name, m.name);
                ok = false;
                continue;
            };
            let verdict = judge(m, &sa, &sb);
            ok &= verdict != Verdict::Worse;
            let change = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median * 100.0
            };
            println!(
                "{:<12} {:<30} {:>12.4} {:>23} {:>12.4} {:>23} {:>+6.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                change,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (failure_rate(&a, w.name), failure_rate(&b, w.name));
        if fb > fa {
            println!(
                "{:<12} ops_failed / ops_attempted rose from {fa:.6} to {fb:.6}",
                w.name
            );
            ok = false;
        }
    }
    println!(
        "\n{:<12} {:<40} {:>14} {:>14} {:>8}  better",
        "workload", "layer metric", "a", "b", "change"
    );
    for w in WORKLOADS {
        for m in &LAYERS {
            let value = |set: &Value| {
                set.get("workloads")
                    .get(w.name)
                    .get("per_layer")
                    .get(m.name)
                    .get("median")
                    .as_f64()
            };
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                continue;
            };
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            println!(
                "{:<12} {:<40} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                w.name,
                m.name,
                va,
                vb,
                change,
                m.better.as_str()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Summary {
        Summary::of(values).expect("non-empty")
    }

    const THROUGHPUT: E2eMetric = E2eMetric {
        name: "backup_mib_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const LATENCY: E2eMetric = E2eMetric {
        name: "restore_file_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn tight_runs_are_judged_by_the_bound() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(&THROUGHPUT, &a, &runs(&[100.2, 100.0, 99.9, 100.4, 99.6])),
            Verdict::Same
        );
        assert_eq!(
            judge(&THROUGHPUT, &a, &runs(&[85.0, 86.0, 84.0, 85.5, 84.5])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&THROUGHPUT, &a, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5])),
            Verdict::Better
        );
        // Lower-is-better flips the direction.
        assert_eq!(
            judge(&LATENCY, &a, &runs(&[120.0, 121.0, 119.0, 120.5, 119.5])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&LATENCY, &a, &runs(&[85.0, 86.0, 84.0, 85.5, 84.5])),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_never_same() {
        let a = runs(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let b = runs(&[82.0, 98.0, 118.0, 93.0, 108.0]);
        assert!(a.spread() > THROUGHPUT.bound);
        assert_eq!(judge(&THROUGHPUT, &a, &b), Verdict::Unresolved);
        // Complete separation still resolves.
        let far = runs(&[180.0, 200.0, 220.0, 190.0, 210.0]);
        assert_eq!(judge(&THROUGHPUT, &a, &far), Verdict::Better);
        assert_eq!(judge(&THROUGHPUT, &far, &a), Verdict::Worse);
        // Separated, but by less than the bound: not a regression, and the
        // spread is too wide to call it unchanged.
        let wide = E2eMetric {
            bound: 0.50,
            ..THROUGHPUT
        };
        let (hi, lo) = (
            runs(&[100.0, 130.0, 160.0, 200.0, 240.0]),
            runs(&[60.0, 70.0, 85.0, 95.0, 99.0]),
        );
        assert!(hi.spread() > wide.bound);
        assert_eq!(judge(&wide, &hi, &lo), Verdict::Unresolved);
    }
}

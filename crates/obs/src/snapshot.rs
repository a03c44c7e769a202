//! Point-in-time metric snapshots and their two renderings.
//!
//! A [`Snapshot`] is a plain-data copy of a
//! [`Recorder`](crate::Recorder)'s state. The same value renders as
//!
//! * [`Snapshot::to_json`] — the closing `summary` line of the run's
//!   telemetry document (members `stages`, `counters`, `apps`, `queues`,
//!   `workers`); every `sample` line is the same serializer over one
//!   interval's delta ([`Sample::to_json`](crate::Sample::to_json));
//! * [`Snapshot::render_table`] — the human `--stats` table.
//!
//! Snapshots also subtract ([`Snapshot::delta_since`]), which is how the
//! sampler turns lifetime-cumulative counters into per-interval deltas.

use crate::hist::HistogramSnapshot;
use crate::series::json_str;
use crate::{Counter, Stage, WorkerRole};
use std::time::Duration;

/// One stage's histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Its latency histogram.
    pub hist: HistogramSnapshot,
}

/// One application partition's index hit/miss counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppIndexSnapshot {
    /// Application tag (see `aadedupe-filetype`).
    pub tag: u8,
    /// Registered label, or `app_NN` when unlabelled.
    pub label: String,
    /// Lookups that found the fingerprint.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
}

/// One queue gauge: instantaneous depth plus high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Depth at snapshot time (0 between sessions).
    pub depth: u64,
    /// Highest depth ever observed.
    pub hwm: u64,
    /// Pops observed while the gauge was already at zero (the gauge
    /// saturates instead of going negative).
    pub underflow: u64,
}

/// One pipeline thread's busy/idle split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Thread role.
    pub role: WorkerRole,
    /// Index within the role (worker 0..N).
    pub id: usize,
    /// Time spent processing, nanoseconds.
    pub busy_ns: u64,
    /// Time spent blocked on a channel, nanoseconds.
    pub idle_ns: u64,
}

impl WorkerSnapshot {
    /// Busy fraction of the thread's observed lifetime (0 when idle+busy
    /// is zero).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// A plain-data copy of every metric a recorder holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Every stage, in dataflow order (present even when empty).
    pub stages: Vec<StageSnapshot>,
    /// Every counter.
    pub counters: Vec<(Counter, u64)>,
    /// Per-application index hit/miss counts (only apps with traffic).
    pub apps: Vec<AppIndexSnapshot>,
    /// The restore's verified-container gauge, named `restore_verified`
    /// in the `queues` member of the JSON rendering.
    pub restore_verified: QueueSnapshot,
    /// Pipeline thread busy/idle reports.
    pub workers: Vec<WorkerSnapshot>,
}

impl Snapshot {
    /// The snapshot of one stage.
    ///
    /// # Panics
    ///
    /// If the snapshot lacks `s`; [`Recorder::snapshot`](crate::Recorder::snapshot)
    /// builds one entry per variant.
    #[expect(
        clippy::expect_used,
        reason = "Recorder::snapshot constructs one entry per Stage variant; absence is a \
                  construction bug, not an input error"
    )]
    pub fn stage(&self, s: Stage) -> &StageSnapshot {
        self.stages.iter().find(|x| x.stage == s).expect("all stages present")
    }

    /// Total recorded time in one stage.
    pub fn stage_total(&self, s: Stage) -> Duration {
        Duration::from_nanos(self.stage(s).hist.total_ns)
    }

    /// One counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.iter().find(|(x, _)| *x == c).map_or(0, |(_, v)| *v)
    }

    /// Sum of index hits across all applications.
    pub fn index_hits(&self) -> u64 {
        self.apps.iter().map(|a| a.hits).sum()
    }

    /// Sum of index misses across all applications.
    pub fn index_misses(&self) -> u64 {
        self.apps.iter().map(|a| a.misses).sum()
    }

    /// The growth of this snapshot relative to an earlier one from the
    /// same recorder: histogram counts/totals, counters, and hit/miss
    /// counts subtract; queue high-water marks and worker reports keep the
    /// later (cumulative) values.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                let e = &earlier.stage(s.stage).hist;
                StageSnapshot {
                    stage: s.stage,
                    hist: HistogramSnapshot {
                        count: s.hist.count.saturating_sub(e.count),
                        total_ns: s.hist.total_ns.saturating_sub(e.total_ns),
                        max_ns: s.hist.max_ns,
                        buckets: s
                            .hist
                            .buckets
                            .iter()
                            .zip(&e.buckets)
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect(),
                    },
                }
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|&(c, v)| (c, v.saturating_sub(earlier.counter(c))))
            .collect();
        let apps = self
            .apps
            .iter()
            .map(|a| {
                let e = earlier.apps.iter().find(|x| x.tag == a.tag);
                AppIndexSnapshot {
                    tag: a.tag,
                    label: a.label.clone(),
                    hits: a.hits.saturating_sub(e.map_or(0, |x| x.hits)),
                    misses: a.misses.saturating_sub(e.map_or(0, |x| x.misses)),
                }
            })
            .filter(|a| a.hits > 0 || a.misses > 0)
            .collect();
        Snapshot {
            stages,
            counters,
            apps,
            restore_verified: self.restore_verified,
            workers: self.workers.clone(),
        }
    }

    /// The snapshot as one `"kind": "summary"` NDJSON line.
    pub fn to_json(&self) -> String {
        self.json_line("\"kind\": \"summary\"")
    }

    /// The snapshot's members as one NDJSON object, after `head` (the
    /// line's `kind` and any members of its own).
    pub(crate) fn json_line(&self, head: &str) -> String {
        fn join(items: impl Iterator<Item = String>) -> String {
            items.collect::<Vec<_>>().join(", ")
        }
        let stages = join(self.stages.iter().map(|s| {
            format!(
                "\"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}, \"buckets\": [{}]}}",
                s.stage.name(),
                s.hist.count,
                s.hist.total_ns,
                s.hist.mean_ns(),
                s.hist.max_ns,
                join(s.hist.occupied().map(|(bucket, n)| format!("[{bucket}, {n}]")))
            )
        }));
        let counters = join(self.counters.iter().map(|(c, v)| format!("\"{}\": {v}", c.name())));
        let apps = join(self.apps.iter().map(|a| {
            format!(
                "{}: {{\"tag\": {}, \"hits\": {}, \"misses\": {}}}",
                json_str(&a.label),
                a.tag,
                a.hits,
                a.misses
            )
        }));
        let q = &self.restore_verified;
        let queues = format!(
            "\"restore_verified\": {{\"depth\": {}, \"hwm\": {}, \"underflow\": {}}}",
            q.depth, q.hwm, q.underflow
        );
        let workers = join(self.workers.iter().map(|w| {
            format!(
                "{{\"role\": \"{}\", \"id\": {}, \"busy_ns\": {}, \"idle_ns\": {}, \"utilization\": {:.4}}}",
                w.role.name(),
                w.id,
                w.busy_ns,
                w.idle_ns,
                w.utilization()
            )
        }));
        format!(
            "{{{head}, \"stages\": {{{stages}}}, \"counters\": {{{counters}}}, \
             \"apps\": {{{apps}}}, \"queues\": {{{queues}}}, \"workers\": [{workers}]}}"
        )
    }

    /// The human-readable `--stats` table.
    pub fn render_table(&self) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.2}", ns as f64 / 1e6)
        }
        let mut out = String::new();
        out.push_str("stage                 count   total_ms      mean_us     max_us\n");
        for s in &self.stages {
            if s.hist.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<18} {:>8}  {:>9}  {:>11.1}  {:>9.1}\n",
                s.stage.name(),
                s.hist.count,
                ms(s.hist.total_ns),
                s.hist.mean_ns() / 1e3,
                s.hist.max_ns as f64 / 1e3,
            ));
        }
        if !self.apps.is_empty() {
            out.push_str("\nindex partition      hits     misses   hit-rate\n");
            for a in &self.apps {
                let total = a.hits + a.misses;
                out.push_str(&format!(
                    "{:<16} {:>8}  {:>9}  {:>8.1}%\n",
                    a.label,
                    a.hits,
                    a.misses,
                    if total == 0 { 0.0 } else { 100.0 * a.hits as f64 / total as f64 }
                ));
            }
        }
        if self.restore_verified.hwm > 0 {
            out.push_str("\nqueue        high-water\n");
            out.push_str(&format!("restore_verified {:>11}\n", self.restore_verified.hwm));
        }
        if !self.workers.is_empty() {
            out.push_str("\nthread           busy_ms    idle_ms   utilization\n");
            for w in &self.workers {
                out.push_str(&format!(
                    "{:<12} {:>11} {:>10}  {:>11.1}%\n",
                    format!("{}/{}", w.role.name(), w.id),
                    ms(w.busy_ns),
                    ms(w.idle_ns),
                    100.0 * w.utilization()
                ));
            }
        }
        let sealed = self.counter(Counter::ContainersSealed);
        let uploaded = self.counter(Counter::UploadBytes);
        out.push_str(&format!(
            "\ncontainers sealed {sealed}, uploaded {uploaded} bytes in {} objects\n",
            self.counter(Counter::UploadObjects)
        ));
        out.push_str(&format!(
            "upload retries {}, give-ups {}\n",
            self.counter(Counter::UploadRetries),
            self.counter(Counter::UploadGiveups)
        ));
        out.push_str(&format!(
            "restore retries {}, give-ups {}\n",
            self.counter(Counter::RestoreRetries),
            self.counter(Counter::RestoreGiveups)
        ));
        let orphans = self.counter(Counter::OrphansSwept);
        if orphans > 0 {
            out.push_str(&format!("orphaned containers swept {orphans}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Recorder};

    #[test]
    fn json_export_parses_and_has_all_sections() {
        let r = Recorder::new();
        r.record_duration(Stage::Chunk, Duration::from_micros(10));
        r.count(Counter::ChunksCdc, 1);
        r.label_app(7, "pdf");
        r.index_outcome(7, true);
        r.label_app(8, "odd \"label\"");
        r.index_outcome(8, false);
        r.restore_verified_push();
        r.worker_report(WorkerRole::Chunker, 0, Duration::from_millis(1), Duration::ZERO);
        let line = r.snapshot().to_json();
        assert!(!line.contains('\n'), "one NDJSON line");
        let doc = json::parse(&line).expect("snapshot JSON parses");
        assert_eq!(doc.get("kind").as_str(), Some("summary"));
        for stage in Stage::ALL {
            assert!(
                doc.get("stages").get(stage.name()).get("count").as_u64().is_some(),
                "missing stage {}",
                stage.name()
            );
        }
        assert_eq!(doc.get("counters").get("chunks_cdc").as_u64(), Some(1));
        assert_eq!(doc.get("apps").get("pdf").get("hits").as_u64(), Some(1));
        assert_eq!(doc.get("apps").get("odd \"label\"").get("misses").as_u64(), Some(1));
        assert_eq!(doc.get("queues").get("restore_verified").get("hwm").as_u64(), Some(1));
        assert_eq!(doc.get("workers").at(0).get("role").as_str(), Some("chunker"));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let r = Recorder::new();
        r.record_duration(Stage::Hash, Duration::from_micros(5));
        r.count(Counter::UploadBytes, 100);
        r.index_outcome(3, false);
        let before = r.snapshot();
        r.record_duration(Stage::Hash, Duration::from_micros(7));
        r.count(Counter::UploadBytes, 50);
        r.index_outcome(3, false);
        r.index_outcome(3, true);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.stage(Stage::Hash).hist.count, 1);
        assert_eq!(delta.stage(Stage::Hash).hist.total_ns, 7_000);
        assert_eq!(delta.counter(Counter::UploadBytes), 50);
        assert_eq!(delta.apps[0].hits, 1);
        assert_eq!(delta.apps[0].misses, 1);
    }

    #[test]
    fn table_renders_non_empty_sections() {
        let r = Recorder::new();
        r.record_duration(Stage::Index, Duration::from_micros(2));
        r.label_app(1, "avi");
        r.index_outcome(1, false);
        let table = r.snapshot().render_table();
        assert!(table.contains("index"));
        assert!(table.contains("avi"));
        assert!(table.contains("hit-rate"));
    }
}

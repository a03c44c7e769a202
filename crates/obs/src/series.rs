//! The sampler's time series and the run's telemetry document.
//!
//! A [`TimeSeries`] is a bounded ring buffer of [`SamplePoint`]s — one per
//! sampler tick — labelled with the session it observed. Memory is bounded
//! by construction: the ring holds at most `capacity` samples and evicts
//! the oldest on overflow, counting evictions in [`TimeSeries::dropped`] so
//! the export is honest about truncation.
//!
//! [`TimeSeries::write_document`] is the one writer of the run's
//! machine-readable telemetry: an NDJSON stream of `kind`-tagged lines in a
//! fixed order — one `header` (the only carrier of
//! [`METRICS_SCHEMA_VERSION`]), the `sample`s, the run's `span`s, and a
//! closing `summary`.

use crate::{Queue, Snapshot, TraceEvent};
use std::collections::VecDeque;
use std::io;

/// Version of the telemetry document (see [`TimeSeries::write_document`]);
/// the header line is the only place it is written. History:
///
/// * 1 — header + `sample` lines; the header labels the run with a `scope`
///   object.
/// * 2 — drops the `jobs` and `appender` queue gauges from every sample:
///   the backup pipeline no longer has a job channel or an appender thread.
/// * 3 — `span` and `summary` lines join the stream (until then two files
///   in two formats of their own, each behind its own flag); header
///   `scope: {session}` becomes `session`; the restore gauge gets its
///   present name, `restore_verified`.
///
/// New keys and new line kinds do not bump this; removals or retypings do.
/// Readers must tolerate unknown keys and unknown kinds.
pub const METRICS_SCHEMA_VERSION: u32 = 3;

/// Minimal JSON string escaping for label values (labels are short ASCII
/// identifiers in practice; escaping keeps arbitrary ones well-formed).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One queue gauge at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePoint {
    /// Which queue.
    pub queue: Queue,
    /// Instantaneous depth at the tick.
    pub depth: u64,
    /// Cumulative high-water mark at the tick.
    pub hwm: u64,
}

/// One application partition's index traffic within a sample interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppInterval {
    /// Application tag.
    pub tag: u8,
    /// Registered label.
    pub label: String,
    /// Index hits within the interval.
    pub hits: u64,
    /// Index misses within the interval.
    pub misses: u64,
}

impl AppInterval {
    /// Hit fraction of the interval's lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One sampler tick: per-interval deltas plus cumulative progress totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    /// Tick sequence number (0-based, monotonic, survives ring eviction).
    pub seq: u64,
    /// End of the interval, milliseconds since the sampler's epoch
    /// (`Instant`-based; no wall clock anywhere).
    pub t_ms: u64,
    /// Measured interval length in milliseconds.
    pub dt_ms: u64,
    /// Source bytes read into the pipeline this interval.
    pub source_bytes: u64,
    /// Unique chunk payload bytes stored this interval.
    pub stored_bytes: u64,
    /// Bytes uploaded this interval.
    pub upload_bytes: u64,
    /// Bytes assembled into restored files this interval.
    pub restored_bytes: u64,
    /// Upload + restore retries this interval.
    pub retries: u64,
    /// Cumulative source bytes since the sampler started.
    pub cum_source_bytes: u64,
    /// Cumulative stored bytes since the sampler started.
    pub cum_stored_bytes: u64,
    /// Cumulative restored bytes since the sampler started.
    pub cum_restored_bytes: u64,
    /// Every queue gauge at the tick (depth + high-water).
    pub queues: Vec<QueuePoint>,
    /// Per-application index traffic within the interval (only apps with
    /// traffic).
    pub apps: Vec<AppInterval>,
}

impl SamplePoint {
    fn rate(bytes: u64, dt_ms: u64) -> f64 {
        if dt_ms == 0 {
            0.0
        } else {
            bytes as f64 * 1000.0 / dt_ms as f64
        }
    }

    /// Source-read throughput over the interval, bytes/s.
    pub fn source_bps(&self) -> f64 {
        Self::rate(self.source_bytes, self.dt_ms)
    }

    /// Stored-payload throughput over the interval, bytes/s.
    pub fn stored_bps(&self) -> f64 {
        Self::rate(self.stored_bytes, self.dt_ms)
    }

    /// Upload throughput over the interval, bytes/s.
    pub fn upload_bps(&self) -> f64 {
        Self::rate(self.upload_bytes, self.dt_ms)
    }

    /// Restore throughput over the interval, bytes/s.
    pub fn restored_bps(&self) -> f64 {
        Self::rate(self.restored_bytes, self.dt_ms)
    }

    /// Running dedup ratio: cumulative source over cumulative stored bytes
    /// (1.0 before any bytes moved — nothing read dedups to nothing).
    pub fn dedup_ratio_so_far(&self) -> f64 {
        if self.cum_source_bytes == 0 {
            1.0
        } else if self.cum_stored_bytes == 0 {
            f64::INFINITY
        } else {
            self.cum_source_bytes as f64 / self.cum_stored_bytes as f64
        }
    }

    /// One NDJSON sample line (`"kind": "sample"`).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"kind\": \"sample\", \"seq\": {}, \"t_ms\": {}, \"dt_ms\": {}, \
             \"source_bytes\": {}, \"source_bps\": {:.1}, \
             \"stored_bytes\": {}, \"stored_bps\": {:.1}, \
             \"upload_bytes\": {}, \"upload_bps\": {:.1}, \
             \"restored_bytes\": {}, \"restored_bps\": {:.1}, \
             \"retries\": {}, \"dedup_ratio\": {}, \
             \"cum\": {{\"source_bytes\": {}, \"stored_bytes\": {}, \"restored_bytes\": {}}}",
            self.seq,
            self.t_ms,
            self.dt_ms,
            self.source_bytes,
            self.source_bps(),
            self.stored_bytes,
            self.stored_bps(),
            self.upload_bytes,
            self.upload_bps(),
            self.restored_bytes,
            self.restored_bps(),
            self.retries,
            json_ratio(self.dedup_ratio_so_far()),
            self.cum_source_bytes,
            self.cum_stored_bytes,
            self.cum_restored_bytes,
        );
        out.push_str(", \"queues\": {");
        for (i, q) in self.queues.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"depth\": {}, \"hwm\": {}}}",
                q.queue.name(),
                q.depth,
                q.hwm
            ));
        }
        out.push_str("}, \"apps\": [");
        for (i, a) in self.apps.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"app\": {}, \"tag\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}",
                json_str(&a.label),
                a.tag,
                a.hits,
                a.misses,
                a.hit_rate()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Infinity is not valid JSON; the running dedup ratio is unbounded until
/// the first unique byte lands, so encode that state as `null`.
fn json_ratio(r: f64) -> String {
    if r.is_finite() {
        format!("{r:.4}")
    } else {
        "null".into()
    }
}

/// A bounded ring buffer of one session's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    session: String,
    interval_ms: u64,
    capacity: usize,
    samples: VecDeque<SamplePoint>,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series for the session labelled `session` (e.g.
    /// `backup-00003`), with the given nominal sampling interval and ring
    /// capacity (clamped to at least 1).
    pub fn new(session: &str, interval_ms: u64, capacity: usize) -> TimeSeries {
        let capacity = capacity.max(1);
        TimeSeries {
            session: session.into(),
            interval_ms,
            capacity,
            samples: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// The label of the session this series observed.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a sample, evicting the oldest when the ring is full.
    pub fn push(&mut self, sample: SamplePoint) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<&SamplePoint> {
        self.samples.back()
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = &SamplePoint> {
        self.samples.iter()
    }

    /// Writes the run's telemetry document: the `header` line (schema
    /// version, session label, nominal interval, ring capacity, samples
    /// evicted), one `sample` line per held sample oldest first, one `span`
    /// line per entry of `spans`, and `summary` as the closing line.
    pub fn write_document(
        &self,
        spans: &[TraceEvent],
        summary: &Snapshot,
        out: &mut dyn io::Write,
    ) -> io::Result<()> {
        writeln!(
            out,
            "{{\"schema_version\": {METRICS_SCHEMA_VERSION}, \"kind\": \"header\", \
             \"session\": {}, \"interval_ms\": {}, \"capacity\": {}, \"dropped\": {}}}",
            json_str(&self.session),
            self.interval_ms,
            self.capacity,
            self.dropped
        )?;
        for s in &self.samples {
            writeln!(out, "{}", s.to_json())?;
        }
        for span in spans {
            writeln!(out, "{}", span.to_json())?;
        }
        writeln!(out, "{}", summary.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Counter, Recorder};

    fn sample(seq: u64) -> SamplePoint {
        SamplePoint {
            seq,
            t_ms: 250 * (seq + 1),
            dt_ms: 250,
            source_bytes: 1000,
            stored_bytes: 400,
            upload_bytes: 500,
            restored_bytes: 0,
            retries: 0,
            cum_source_bytes: 1000 * (seq + 1),
            cum_stored_bytes: 400 * (seq + 1),
            cum_restored_bytes: 0,
            queues: vec![QueuePoint { queue: Queue::RestoreVerified, depth: 2, hwm: 5 }],
            apps: vec![AppInterval { tag: 7, label: "pdf".into(), hits: 3, misses: 1 }],
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut ts = TimeSeries::new("s", 250, 4);
        for seq in 0..10 {
            ts.push(sample(seq));
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.dropped(), 6);
        // Oldest survivors are the newest four, in order.
        let seqs: Vec<u64> = ts.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(ts.latest().map(|s| s.seq), Some(9));
    }

    #[test]
    fn document_round_trips_through_the_json_reader() {
        let rec = Recorder::new();
        rec.enable_tracing();
        rec.count(Counter::SourceBytes, 2000);
        rec.trace_complete("session", rec.trace_start());
        let mut ts = TimeSeries::new("s-0", 250, 8);
        ts.push(sample(0));
        ts.push(sample(1));
        let mut doc = Vec::new();
        ts.write_document(&rec.drain_trace(), &rec.snapshot(), &mut doc).expect("Vec write");
        let text = String::from_utf8(doc).expect("document is UTF-8");
        let docs = json::parse_ndjson(&text).expect("NDJSON parses");
        let kinds: Vec<_> = docs.iter().map(|d| d.get("kind").as_str()).collect();
        assert_eq!(kinds, ["header", "sample", "sample", "span", "summary"].map(Some));
        let header = &docs[0];
        assert_eq!(
            header.get("schema_version").as_u64(),
            Some(u64::from(METRICS_SCHEMA_VERSION))
        );
        assert_eq!(header.get("session").as_str(), Some("s-0"));
        assert_eq!(ts.session(), "s-0");
        let s = &docs[1];
        assert_eq!(s.get("source_bytes").as_u64(), Some(1000));
        assert_eq!(s.get("source_bps").as_f64(), Some(4000.0));
        assert_eq!(s.get("queues").get("restore_verified").get("hwm").as_u64(), Some(5));
        assert_eq!(s.get("apps").at(0).get("app").as_str(), Some("pdf"));
        assert_eq!(s.get("apps").at(0).get("hit_rate").as_f64(), Some(0.75));
        assert_eq!(s.get("dedup_ratio").as_f64(), Some(2.5));
        assert_eq!(docs[3].get("name").as_str(), Some("session"));
        let sampled: u64 = docs[1..3].iter().filter_map(|d| d.get("source_bytes").as_u64()).sum();
        assert_eq!(docs[4].get("counters").get("source_bytes").as_u64(), Some(sampled));
    }

    #[test]
    fn unbounded_dedup_ratio_serializes_as_null() {
        let mut s = sample(0);
        s.cum_stored_bytes = 0;
        let doc = json::parse(&s.to_json()).expect("sample parses");
        assert_eq!(doc.get("dedup_ratio"), &json::Value::Null);
    }
}

//! The run's telemetry document, written as the run makes it.
//!
//! A [`Document`] is the one writer of the run's machine-readable
//! telemetry: an NDJSON stream of `kind`-tagged lines in a fixed order —
//! one `header` (the only carrier of [`METRICS_SCHEMA_VERSION`]), one
//! `sample` per sampler tick as the tick is taken, the run's `span`s, and
//! a closing `summary`. A sample and the summary come from one serializer
//! ([`Snapshot`]'s), so a sample's keys are the summary's plus `seq`,
//! `t_ms` and `dt_ms`.

use crate::{Sample, Snapshot, TraceEvent};
use std::io;

/// Version of the telemetry document (see [`Document`]); the header line
/// is the only place it is written. History:
///
/// * 1 — header + `sample` lines; the header labels the run with a `scope`
///   object.
/// * 2 — drops the `jobs` and `appender` queue gauges from every sample:
///   the backup pipeline no longer has a job channel or an appender thread.
/// * 3 — `span` and `summary` lines join the stream (until then two files
///   in two formats of their own, each behind its own flag); header
///   `scope: {session}` becomes `session`; the restore gauge gets its
///   present name, `restore_verified`.
/// * 4 — a `sample` is the interval's delta in the summary's schema
///   (`stages`, `counters`, `apps`, `queues`, `workers`) plus `seq`,
///   `t_ms`, `dt_ms`; its hand-picked byte fields, rates, `retries`,
///   `dedup_ratio` and `cum` totals are gone, and so are the header's
///   `capacity` and `dropped` (samples are streamed, never evicted).
///
/// New keys and new line kinds do not bump this; removals or retypings do.
/// Readers must tolerate unknown keys and unknown kinds.
pub const METRICS_SCHEMA_VERSION: u32 = 4;

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

/// The run's telemetry document over `out`, one line at a time.
#[derive(Debug)]
pub struct Document<W> {
    out: W,
    /// The first failed write; nothing is written after it.
    error: Option<io::Error>,
}

impl<W: io::Write> Document<W> {
    /// Opens the document with its `header` line: schema version, the
    /// label of the session it observes (e.g. `backup-00003`) and the
    /// nominal sampling interval.
    pub fn start(mut out: W, session: &str, interval_ms: u64) -> io::Result<Document<W>> {
        writeln!(
            out,
            "{{\"schema_version\": {METRICS_SCHEMA_VERSION}, \"kind\": \"header\", \
             \"session\": {}, \"interval_ms\": {interval_ms}}}",
            json_str(session)
        )?;
        out.flush()?;
        Ok(Document { out, error: None })
    }

    /// Appends one `sample` line and flushes it, so a reader following the
    /// file sees every tick as it lands. A failed write is kept for
    /// [`Document::finish`] and ends the document.
    pub fn sample(&mut self, sample: &Sample) {
        if self.error.is_none() {
            let line = writeln!(self.out, "{}", sample.to_json()).and_then(|()| self.out.flush());
            self.error = line.err();
        }
    }

    /// Closes the document: one `span` line per entry of `spans`, then
    /// `summary`. Returns the writer, or the document's first write error.
    pub fn finish(mut self, spans: &[TraceEvent], summary: &Snapshot) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        for span in spans {
            writeln!(self.out, "{}", span.to_json())?;
        }
        writeln!(self.out, "{}", summary.to_json())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Counter, Recorder, SamplerCore, Stage};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn document_round_trips_through_the_json_reader() {
        let rec = Recorder::shared();
        rec.enable_tracing();
        let mut core = SamplerCore::new(Arc::clone(&rec));
        let mut doc = Document::start(Vec::new(), "s-0", 250).expect("Vec write");
        rec.label_app(7, "pdf");
        for _ in 0..3 {
            rec.index_outcome(7, true);
        }
        rec.index_outcome(7, false);
        rec.count(Counter::SourceBytes, 1000);
        rec.record_duration(Stage::Hash, Duration::from_micros(3));
        doc.sample(&core.tick(250, 250));
        rec.count(Counter::SourceBytes, 1000);
        doc.sample(&core.tick(500, 250));
        rec.trace_complete("session", rec.trace_start());
        let bytes = doc.finish(&rec.drain_trace(), &rec.snapshot()).expect("Vec write");
        let text = String::from_utf8(bytes).expect("document is UTF-8");
        let docs = json::parse_ndjson(&text).expect("NDJSON parses");
        let kinds: Vec<_> = docs.iter().map(|d| d.get("kind").as_str()).collect();
        assert_eq!(kinds, ["header", "sample", "sample", "span", "summary"].map(Some));
        let header = &docs[0];
        assert_eq!(
            header.get("schema_version").as_u64(),
            Some(u64::from(METRICS_SCHEMA_VERSION))
        );
        assert_eq!(header.get("session").as_str(), Some("s-0"));
        let s = &docs[1];
        assert_eq!((s.get("seq").as_u64(), s.get("dt_ms").as_u64()), (Some(0), Some(250)));
        assert_eq!(s.get("counters").get("source_bytes").as_u64(), Some(1000));
        assert_eq!(s.get("stages").get("hash").get("count").as_u64(), Some(1));
        assert_eq!(s.get("apps").get("pdf").get("hits").as_u64(), Some(3));
        assert_eq!(docs[3].get("name").as_str(), Some("session"));
        // One schema: a sample's keys are the summary's plus its own three.
        let keys = |d: &json::Value| {
            d.as_obj().expect("object").keys().cloned().collect::<std::collections::BTreeSet<_>>()
        };
        let mut expected = keys(&docs[4]);
        expected.extend(["seq", "t_ms", "dt_ms"].map(String::from));
        assert_eq!(keys(s), expected);
        let sampled: u64 =
            docs[1..3].iter().filter_map(|d| d.get("counters").get("source_bytes").as_u64()).sum();
        assert_eq!(docs[4].get("counters").get("source_bytes").as_u64(), Some(sampled));
    }

    #[test]
    fn a_failed_sample_write_fails_the_document() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(Document::start(Full, "s", 1).is_err());
        let rec = Recorder::shared();
        let mut core = SamplerCore::new(Arc::clone(&rec));
        let mut doc = Document { out: Full, error: None };
        doc.sample(&core.tick(1, 1));
        assert!(doc.finish(&[], &rec.snapshot()).is_err());
    }
}

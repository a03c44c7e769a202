//! Spans recorded by the layer replay.
//!
//! The benchmark records spans from its own code, around its calls into
//! each layer: one run span, one span per pass under it, and — in a
//! traced replay — one span per (file, pass) under the pass. Spans stay in
//! memory and are written as NDJSON when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// `(session, file index)` for a per-file span.
    pub file: Option<(u16, u32)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether per-file spans are recorded (a traced replay) or only the
    /// run and pass spans (an untraced one).
    per_file: bool,
}

impl Tracer {
    pub fn new(per_file: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            per_file,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            file: None,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `body` for one file of a pass, under a per-file span when this
    /// is a traced replay.
    pub fn file<T>(
        &mut self,
        pass: SpanId,
        session: usize,
        index: usize,
        body: impl FnOnce() -> T,
    ) -> T {
        if !self.per_file {
            return body();
        }
        let start = Instant::now();
        let out = body();
        let end = Instant::now();
        let name = self.spans[pass as usize].name;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Some(pass),
            file: Some((session as u16, index as u32)),
        });
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per pass name: `(total ns, self ns)` summed over the pass's spans.
    /// A span's self time is its duration minus the part its children
    /// cover; children never overlap here (one thread), so the sum is
    /// exact. In a traced replay a pass's self time is what the per-file
    /// spans do not cover: loop overhead and the span recording itself.
    pub fn pass_times(&self) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&covered) {
            if s.file.is_none() {
                let total = s.end_ns - s.start_ns;
                let entry = out.entry(s.name).or_insert((0u64, 0u64));
                entry.0 += total;
                entry.1 += total.saturating_sub(*children);
            }
        }
        out
    }

    /// Writes one JSON object per span. `path_of` resolves a per-file
    /// span's `(session, index)` to the file's path.
    pub fn write_ndjson<'a>(
        &self,
        workload: &str,
        path_of: impl Fn(u16, u32) -> &'a str,
        out: &mut dyn Write,
    ) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            if let Some((session, index)) = s.file {
                write!(
                    out,
                    ", \"session\": {session}, \"file\": \"{}\"",
                    escape(path_of(session, index))
                )?;
            }
            writeln!(out, ", \"workload\": \"{}\"}}", escape(workload))?;
        }
        Ok(())
    }
}

/// JSON string escaping for the characters a path can hold.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ndjson_parses() {
        let mut t = Tracer::new(true);
        let run = t.open("run", None);
        let pass = t.open("chunking.cdc", Some(run));
        t.file(pass, 0, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.file(pass, 0, 1, || ());
        t.close(pass);
        t.close(run);
        assert_eq!(t.len(), 4);
        let pass_ns = t.spans[pass as usize].end_ns - t.spans[pass as usize].start_ns;
        let run_ns = t.spans[run as usize].end_ns - t.spans[run as usize].start_ns;
        let times = t.pass_times();
        assert_eq!(times["chunking.cdc"].0, pass_ns);
        assert!(times["chunking.cdc"].1 < pass_ns, "children are subtracted");
        assert_eq!(times["run"], (run_ns, run_ns - pass_ns));

        let mut buf = Vec::new();
        t.write_ndjson(
            "w\"l",
            |_, i| {
                if i == 0 {
                    "user/a.doc"
                } else {
                    "user/b\\c.doc"
                }
            },
            &mut buf,
        )
        .expect("write to a Vec");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines = aadedupe_obs::json::parse_ndjson(&text).expect("trace parses");
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("parent"), &aadedupe_obs::json::Value::Null);
        assert_eq!(lines[2].get("parent").as_u64(), Some(u64::from(pass)));
        assert_eq!(lines[2].get("file").as_str(), Some("user/a.doc"));
        assert_eq!(lines[3].get("file").as_str(), Some("user/b\\c.doc"));
        assert_eq!(lines[1].get("workload").as_str(), Some("w\"l"));
    }

    #[test]
    fn untraced_replay_records_no_file_spans() {
        let mut t = Tracer::new(false);
        let run = t.open("run", None);
        assert_eq!(t.file(run, 0, 0, || 7), 7);
        assert_eq!(t.len(), 1);
    }
}

//! Diagnostics and report output.
//!
//! Output is deterministic by construction: diagnostics are sorted by
//! (file, line, rule) before emission, and the JSON emitter
//! writes keys in a fixed order — the same tree always serializes to
//! the same bytes, so reports are diffable and golden-testable.
//!
//! String building uses `push_str(&format!(..))` rather than `write!`:
//! `fmt::Write` returns a `Result` that can only be discarded, and the
//! crate root denies dropping one (`clippy::let_underscore_must_use`).

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule slug (`unordered-iteration` or `blocking-under-lock`).
    pub rule: &'static str,
    /// Workspace-root-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Full scan result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when the scan produced no diagnostics.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Canonical order: by file, then line, then rule.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable listing: one `file:line: [rule] message` per
    /// diagnostic, then the summary lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}:{}: [{}] {}\n", d.file, d.line, d.rule, d.message));
        }
        out.push_str(&format!(
            "\n{} file(s) scanned, {} diagnostic(s)\n",
            self.files_scanned,
            self.diagnostics.len()
        ));
        out
    }

    /// Machine-readable JSON (stable key order, sorted entries).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 5,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.message)
            ));
        }
        out.push_str(if self.diagnostics.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Report { files_scanned: 2, ..Default::default() };
        r.diagnostics.push(Diagnostic {
            rule: "blocking-under-lock",
            file: "b.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
        });
        r.diagnostics.push(Diagnostic {
            rule: "unordered-iteration",
            file: "a.rs".into(),
            line: 9,
            message: "x".into(),
        });
        r.sort();
        let j = r.render_json();
        assert_eq!(r.diagnostics[0].file, "a.rs", "sorted by file first");
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"clean\": false"));
        assert_eq!(j, r.render_json(), "deterministic bytes");
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.clean());
        assert!(r.render_json().contains("\"clean\": true"));
    }
}

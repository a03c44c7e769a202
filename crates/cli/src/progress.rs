//! Live single-line progress, redrawn once per sampler tick.
//!
//! A [`Progress`] is fed every [`Sample`] the run's one `obs-sampler`
//! thread takes (the CLI's sink calls [`Progress::tick`]) and redraws one
//! `\r`-terminated status line on stderr from running totals it keeps of
//! the deltas: bytes moved, throughput over the tick, running dedup ratio,
//! and — when the total is known up front (backup knows its source size;
//! restore does not) — an ETA. Rendering reads only sampler output, so the
//! pipeline itself is never perturbed.

use crate::human;
use aadedupe_obs::{Counter, Sample};
use std::io::Write;

/// Which byte stream the line tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressKind {
    /// Source bytes read into the backup pipeline.
    Backup,
    /// Bytes assembled into restored files.
    Restore,
}

/// The status line's state: the run's totals so far.
pub struct Progress {
    kind: ProgressKind,
    total_bytes: Option<u64>,
    done: u64,
    stored: u64,
    drew: bool,
}

impl Progress {
    /// A line for `kind`; `total_bytes` enables percentage + ETA.
    pub fn new(kind: ProgressKind, total_bytes: Option<u64>) -> Progress {
        Progress { kind, total_bytes, done: 0, stored: 0, drew: false }
    }

    /// Folds one tick's delta into the totals and redraws the line.
    pub fn tick(&mut self, s: &Sample) {
        let (verb, counter) = match self.kind {
            ProgressKind::Backup => ("backup", Counter::SourceBytes),
            ProgressKind::Restore => ("restore", Counter::RestoredBytes),
        };
        let moved = s.delta.counter(counter);
        self.done += moved;
        self.stored += s.delta.counter(Counter::StoredBytes);
        let bps = if s.dt_ms == 0 { 0.0 } else { moved as f64 * 1000.0 / s.dt_ms as f64 };
        let done = self.done;
        let mut line = format!("\r{verb}  {}", human(done));
        if let Some(total) = self.total_bytes {
            let pct = if total == 0 { 100.0 } else { 100.0 * done as f64 / total as f64 };
            line.push_str(&format!(" / {} ({pct:.0}%)", human(total)));
        }
        line.push_str(&format!("  {}/s", human(bps as u64)));
        if self.kind == ProgressKind::Backup && self.stored > 0 {
            line.push_str(&format!("  DR {:.2}", done as f64 / self.stored as f64));
        }
        match self.total_bytes {
            Some(total) if bps > 0.0 && total > done => {
                let eta = (total - done) as f64 / bps;
                line.push_str(&format!("  ETA {}", fmt_eta(eta)));
            }
            _ => {}
        }
        // Pad so a shrinking line fully overwrites the previous draw.
        line.push_str(&" ".repeat(8));
        let mut err = std::io::stderr();
        // Progress is best-effort cosmetics; a closed stderr must not fail
        // the backup itself, so the write result is deliberately unused.
        let _draw = err.write_all(line.as_bytes()).and_then(|()| err.flush());
        self.drew = true;
    }

    /// Leaves the last drawn line on screen and moves past it.
    pub fn end_line(&self) {
        if self.drew {
            eprintln!();
        }
    }
}

fn fmt_eta(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

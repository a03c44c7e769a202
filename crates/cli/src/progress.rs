//! Live single-line progress rendered from the background sampler.
//!
//! A [`Progress`] owns a thread that polls a [`SamplerProbe`] a few times
//! per second and redraws one `\r`-terminated status line on stderr:
//! bytes moved, throughput, running dedup ratio, and — when the total is
//! known up front (backup knows its source size; restore does not) — an
//! ETA. Rendering reads only sampler output, so the pipeline itself is
//! never perturbed; with observability off no `Progress` is ever built.

use aadedupe_obs::{SamplePoint, SamplerProbe};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which byte stream the line tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressKind {
    /// Source bytes read into the backup pipeline.
    Backup,
    /// Bytes assembled into restored files.
    Restore,
}

/// Handle to the background renderer; call [`Progress::finish`] to stop
/// it and print the final line.
pub struct Progress {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

const REDRAW: Duration = Duration::from_millis(200);

impl Progress {
    /// Starts the renderer. `total_bytes` enables percentage + ETA.
    pub fn start(probe: SamplerProbe, kind: ProgressKind, total_bytes: Option<u64>) -> Progress {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("aabackup-progress".into())
            .spawn(move || {
                let mut drew = false;
                while !thread_stop.load(Relaxed) {
                    if let Some(s) = probe.latest() {
                        draw(&s, kind, total_bytes);
                        drew = true;
                    }
                    std::thread::sleep(REDRAW);
                }
                if let Some(s) = probe.latest() {
                    draw(&s, kind, total_bytes);
                    drew = true;
                }
                if drew {
                    eprintln!();
                }
            })
            .expect("spawn progress thread");
        Progress { stop, handle: Some(handle) }
    }

    /// Stops the renderer, leaving the final status line on screen.
    pub fn finish(mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("progress thread panicked");
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            // Drop runs on error paths where the progress thread may have
            // died with the pipe; the CLI is already reporting the
            // primary failure, so the join result is deliberately unused.
            let _join = h.join();
        }
    }
}

fn draw(s: &SamplePoint, kind: ProgressKind, total_bytes: Option<u64>) {
    let (verb, done, bps) = match kind {
        ProgressKind::Backup => ("backup", s.cum_source_bytes, s.source_bps()),
        ProgressKind::Restore => ("restore", s.cum_restored_bytes, s.restored_bps()),
    };
    let mut line = format!("\r{verb}  {}", human(done));
    if let Some(total) = total_bytes {
        let pct = if total == 0 { 100.0 } else { 100.0 * done as f64 / total as f64 };
        line.push_str(&format!(" / {} ({pct:.0}%)", human(total)));
    }
    line.push_str(&format!("  {}/s", human(bps as u64)));
    if kind == ProgressKind::Backup {
        let dr = s.dedup_ratio_so_far();
        if dr.is_finite() {
            line.push_str(&format!("  DR {dr:.2}"));
        }
    }
    match total_bytes {
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

fn human(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

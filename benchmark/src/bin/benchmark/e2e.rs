//! The end-to-end path: what a PC owner runs.
//!
//! One iteration is one repository lifetime — a fresh engine over a fresh
//! cloud, every weekly session backed up serially, the newest session
//! restored in bulk and then file by file — with every restored byte
//! compared against its source. Phases are interleaved inside the
//! iteration so a noisy-neighbour episode costs a few samples of every
//! metric instead of one metric wholly.

use std::time::Instant;

use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, BackupScheme};
use aadedupe_metrics::SessionReport;
use aadedupe_workload::Prng;

use crate::stats::{cpu_seconds, status_mib, Fnv};
use crate::workloads::{Corpus, Scratch, Workload};

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// `restore_file` calls (each compared with its source) per iteration.
const FILE_RESTORES_PER_ITERATION: usize = 96;

/// Attempted and failed operations. One operation per session backed up,
/// per file restored and compared, per post-vacuum check, per invariant
/// asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The byte-exact cost figures of one repository lifetime. Identical for
/// every iteration over the same corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Costs {
    /// Cloud bytes after the last session ÷ logical bytes of every session.
    pub stored_per_logical: f64,
    /// Uploaded bytes ÷ logical bytes, timed sessions.
    pub upload_per_logical: f64,
    /// PUT requests per logical GiB, timed sessions.
    pub puts_per_gib: f64,
}

/// What one iteration measured.
pub struct Iteration {
    pub backup_mib_s: f64,
    pub restore_mib_s: f64,
    pub cpu_s_per_gib: f64,
    /// Peak resident set during the iteration (`VmHWM`, reset at its start).
    pub peak_rss_mib: f64,
    pub costs: Costs,
    /// Wall seconds inside `backup_session`, timed sessions summed.
    pub backup_wall_s: f64,
    /// Wall seconds inside `restore_session`.
    pub restore_wall_s: f64,
    pub ops: Ops,
}

/// A repository after its last backup session, for the phases that follow.
pub struct Repository {
    pub engine: AaDedupe,
    pub cloud: CloudSim,
    pub reports: Vec<SessionReport>,
    /// Wall seconds of each session's `backup_session` call.
    pub session_wall_s: Vec<f64>,
    /// CPU seconds across the timed sessions.
    pub backup_cpu_s: f64,
    index_dir: std::path::PathBuf,
}

impl Repository {
    /// Builds a fresh engine — the workload's configuration as amended by
    /// `configure` — and backs up every session of `corpus` in order,
    /// calling `before_session` ahead of each.
    pub fn build(
        w: &Workload,
        corpus: &Corpus,
        scratch: &Scratch,
        configure: impl FnOnce(&mut aadedupe_core::AaDedupeConfig),
        mut before_session: impl FnMut(usize),
        ops: &mut Ops,
    ) -> std::io::Result<Repository> {
        let index_dir = scratch.fresh_dir("index")?;
        let mut config = w.config(&index_dir);
        configure(&mut config);
        let cloud = CloudSim::with_paper_defaults();
        let mut engine = AaDedupe::with_config(cloud.clone(), config);
        let mut reports = Vec::with_capacity(w.weeks);
        let mut session_wall_s = Vec::with_capacity(w.weeks);
        let mut backup_cpu_s = 0.0;
        for week in 0..w.weeks {
            let sources = corpus.sources(week);
            before_session(week);
            let cpu = cpu_seconds();
            let start = Instant::now();
            let outcome = engine.backup_session(&sources);
            session_wall_s.push(start.elapsed().as_secs_f64());
            if week >= w.first_timed {
                backup_cpu_s += cpu_seconds() - cpu;
            }
            match outcome {
                Ok(report) => {
                    ops.check(true, String::new);
                    reports.push(report);
                }
                Err(e) => {
                    ops.check(false, || {
                        format!("{}: backup of session {week}: {e}", w.name)
                    });
                    reports.push(SessionReport::new("failed", week));
                }
            }
        }
        Ok(Repository {
            engine,
            cloud,
            reports,
            session_wall_s,
            backup_cpu_s,
            index_dir,
        })
    }

    /// Removes the repository's index directory.
    pub fn discard(self, scratch: &Scratch) {
        let Repository {
            engine, index_dir, ..
        } = self;
        drop(engine);
        scratch.discard(&index_dir);
    }

    /// Restores `session` in bulk and compares every file with its source.
    /// Returns the bytes restored and the wall seconds inside the call.
    pub fn restore_and_compare(
        &self,
        w: &Workload,
        corpus: &Corpus,
        session: usize,
        ops: &mut Ops,
    ) -> (u64, f64) {
        let start = Instant::now();
        let outcome = self.engine.restore_session(session);
        let wall = start.elapsed().as_secs_f64();
        let expected = &corpus.sessions[session];
        let restored = match outcome {
            Ok(files) => files,
            Err(e) => {
                ops.check(false, || {
                    format!("{}: restore of session {session}: {e}", w.name)
                });
                return (0, wall);
            }
        };
        ops.check(restored.len() == expected.len(), || {
            format!(
                "{}: restored {} files, expected {}",
                w.name,
                restored.len(),
                expected.len()
            )
        });
        let mut bytes = 0u64;
        for (got, want) in restored.iter().zip(expected) {
            bytes += got.data.len() as u64;
            ops.check(got.path == want.path && got.data == want.data, || {
                format!("{}: restored {} differs from its source", w.name, want.path)
            });
        }
        (bytes, wall)
    }

    /// `calls` single-file restores from `session`, each compared with its
    /// source; returns their latencies in ms. Every file is equally likely
    /// (so most are tiny), but the draw is systematic over the size-ordered
    /// files — `offset` in [0, 1), then every (n / calls)-th file — so each
    /// call of this function sees the same size mix and the latency
    /// quantiles measure the program, not the draw.
    pub fn restore_files(
        &self,
        w: &Workload,
        corpus: &Corpus,
        session: usize,
        calls: usize,
        offset: f64,
        ops: &mut Ops,
    ) -> Vec<f64> {
        let files = &corpus.sessions[session];
        let mut by_size: Vec<usize> = (0..files.len()).collect();
        by_size.sort_by_key(|&i| (files[i].data.len(), i));
        let mut latencies_ms = Vec::with_capacity(calls);
        for k in 0..calls {
            let rank = (k as f64 + offset) * files.len() as f64 / calls as f64;
            let want = &files[by_size[(rank as usize).min(files.len() - 1)]];
            let start = Instant::now();
            let outcome = self.engine.restore_file(session, &want.path);
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            ops.check(outcome.is_ok_and(|got| got.data == want.data), || {
                format!(
                    "{}: restore_file({}) differs from its source",
                    w.name, want.path
                )
            });
        }
        latencies_ms
    }

    /// The cost figures of this repository.
    pub fn costs(&self, w: &Workload, corpus: &Corpus) -> Costs {
        let all_logical: u64 = (0..w.weeks).map(|s| corpus.logical_bytes(s)).sum();
        let timed = &self.reports[w.first_timed..];
        let logical: u64 = timed.iter().map(|r| r.logical_bytes).sum();
        let uploaded: u64 = timed.iter().map(|r| r.transferred_bytes).sum();
        let puts: u64 = timed.iter().map(|r| r.put_requests).sum();
        Costs {
            stored_per_logical: self.cloud.store().stored_bytes() as f64
                / all_logical.max(1) as f64,
            upload_per_logical: uploaded as f64 / logical.max(1) as f64,
            puts_per_gib: puts as f64 / (logical.max(1) as f64 / GIB),
        }
    }
}

/// Object count and an FNV over every key, length and byte of a cloud
/// namespace: two namespaces with equal fingerprints hold the same objects.
pub fn namespace_fingerprint(cloud: &CloudSim) -> Result<(usize, u64), String> {
    let store = cloud.store();
    let mut h = Fnv::new();
    let keys = store.list("");
    for key in &keys {
        let bytes = store
            .get(key)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("listed object {key} is missing"))?;
        h.update(key.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    Ok((keys.len(), h.finish()))
}

/// Resets this process's peak-RSS counter (`echo 5 > /proc/self/clear_refs`)
/// so `VmHWM` afterwards is the peak since now. Where the kernel refuses,
/// `VmHWM` stays the peak since process start — a coarser, still valid
/// upper bound.
fn reset_peak_rss() {
    // A refusal is tolerated by design (see above), not swallowed silently.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!("note: cannot reset VmHWM ({e}); rss_growth_mib uses the process-wide peak");
        });
    }
}

/// Runs one full iteration of `w` over `corpus`.
pub fn iteration(
    w: &Workload,
    corpus: &Corpus,
    scratch: &Scratch,
    seed: u64,
    round: u64,
) -> std::io::Result<Iteration> {
    let mut ops = Ops::default();
    reset_peak_rss();
    let repo = Repository::build(w, corpus, scratch, |_| {}, |_| {}, &mut ops)?;
    let last = w.weeks - 1;
    let backup_wall_s: f64 = repo.session_wall_s[w.first_timed..].iter().sum();
    let backed_up: u64 = (w.first_timed..w.weeks)
        .map(|s| corpus.logical_bytes(s))
        .sum();
    let costs = repo.costs(w, corpus);

    let cpu = cpu_seconds();
    let (restored, restore_wall_s) = repo.restore_and_compare(w, corpus, last, &mut ops);
    // The comparison is inside the CPU window; it is a memcmp of bytes
    // already in cache and the same on every commit.
    let cpu_s = repo.backup_cpu_s + (cpu_seconds() - cpu);

    // Point lookups, checked but not reported here: their latency is a
    // layer metric (`restore.file_p50_ms` …), see the README.
    let offset = Prng::derive(&[seed, 0xF11E_5E1E, round]).unit();
    repo.restore_files(
        w,
        corpus,
        last,
        FILE_RESTORES_PER_ITERATION,
        offset,
        &mut ops,
    );
    let peak_rss_mib = status_mib("VmHWM");

    let iteration = Iteration {
        backup_mib_s: backed_up as f64 / MIB / backup_wall_s,
        restore_mib_s: restored as f64 / MIB / restore_wall_s,
        cpu_s_per_gib: cpu_s / ((backed_up + restored) as f64 / GIB),
        peak_rss_mib,
        costs,
        backup_wall_s,
        restore_wall_s,
        ops,
    };
    repo.discard(scratch);
    Ok(iteration)
}

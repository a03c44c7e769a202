//! The four repository-lifetime workloads and their corpus set-up.
//!
//! A workload is a [`Workload`] constant: which [`DatasetSpec`] the
//! generator runs, how many weekly sessions the repository sees, which of
//! them are timed, and the engine configuration. `prepare` turns one into
//! a [`Corpus`] — every session's files materialised as [`MemoryFile`]s —
//! so the generator never runs inside a timed region.

use std::path::{Path, PathBuf};

use aadedupe_core::AaDedupeConfig;
use aadedupe_filetype::{Category, MemoryFile, SourceFile};
use aadedupe_workload::{DatasetSpec, Generator};

const MIB: u64 = 1 << 20;

/// Which slice of the application mix a workload keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The paper's evaluation mix: all twelve applications plus tiny files.
    Eval,
    /// Compressed applications only, re-drawn as few large files.
    Media,
    /// Static-uncompressed applications only (VMDK/EXE/PDF).
    Static,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Application mix.
    pub mix: Mix,
    /// Week-0 byte budget in KiB (frozen; `--smoke` divides it).
    pub budget_kib: u64,
    /// Weekly sessions the repository sees.
    pub weeks: usize,
    /// First timed session; earlier ones are backed up untimed.
    pub first_timed: usize,
    /// `Some(n)`: a disk-backed index caching `n` entries per partition —
    /// far below the fingerprint population (≈ 10–20 % of it).
    pub spill_ram_entries: Option<usize>,
    /// Whether the traced run deletes session 0 and vacuums.
    pub vacuum: bool,
}

/// `--smoke` scales budgets (and the spilling cache) down by this.
pub const SMOKE_DIVISOR: u64 = 16;

/// Media workload file sizes: lognormal around 1.5 MiB, above the 1 MiB
/// container size so most files seal an oversized container of their own.
const MEDIA_MEAN_FILE: u64 = 3 * MIB / 2;
const MEDIA_SIGMA: f64 = 0.25;

/// Every application gets at least this many files when its byte share
/// allows. At benchmark scale `eval_mix` gives ISO one file and AVI five
/// (σ = 0.7), so 44 % of the bytes would be thirteen lognormal draws and
/// every byte ratio would move ±10 % with the seed. Capping the mean file
/// size keeps each application's byte share, redundancy and churn while
/// making the aggregate a property of the spec, not of one draw.
const MIN_FILES_PER_APP: u64 = 24;
/// Lognormal shape of the capped applications.
const CAPPED_SIGMA: f64 = 0.35;
/// The generator's floor for a non-tiny file.
const MIN_BIG_FILE: u64 = 12 * 1024;

/// Weekly arrivals as a share of the population, per category — the same
/// shares `AppSpec::calibrated` uses.
fn weekly_new_share(category: Category) -> f64 {
    match category {
        Category::Compressed => 0.03,
        Category::StaticUncompressed => 0.01,
        Category::DynamicUncompressed => 0.05,
    }
}

/// Caps each application's mean file size so it has at least
/// [`MIN_FILES_PER_APP`] files, keeping its byte share.
fn steady(spec: &mut DatasetSpec) {
    for a in &mut spec.apps {
        let bytes = a.initial_files as u64 * a.mean_file_size;
        let cap = (bytes / MIN_FILES_PER_APP).max(MIN_BIG_FILE);
        if a.mean_file_size > cap {
            a.mean_file_size = cap;
            a.sigma = CAPPED_SIGMA;
            a.initial_files = bytes.div_ceil(cap) as usize;
            let arrivals = a.initial_files as f64 * weekly_new_share(a.app.category());
            a.weekly_new_files = (arrivals.ceil() as usize).max(1);
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "full_mixed",
        mix: Mix::Eval,
        budget_kib: 48 * 1024,
        weeks: 1,
        first_timed: 0,
        spill_ram_entries: None,
        vacuum: false,
    },
    Workload {
        name: "weekly_incr",
        mix: Mix::Eval,
        budget_kib: 32 * 1024,
        weeks: 4,
        first_timed: 1,
        spill_ram_entries: None,
        vacuum: true,
    },
    Workload {
        name: "media_large",
        mix: Mix::Media,
        budget_kib: 64 * 1024,
        weeks: 1,
        first_timed: 0,
        spill_ram_entries: None,
        vacuum: false,
    },
    Workload {
        name: "vm_spill",
        mix: Mix::Static,
        budget_kib: 40 * 1024,
        weeks: 3,
        first_timed: 0,
        spill_ram_entries: Some(512),
        vacuum: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at `1 / divisor` of its size.
    pub fn scaled(mut self, divisor: u64) -> Workload {
        self.budget_kib /= divisor;
        self.spill_ram_entries = self
            .spill_ram_entries
            .map(|n| (n / divisor as usize).max(1));
        self
    }

    /// The generator input.
    pub fn spec(&self) -> DatasetSpec {
        let bytes = self.budget_kib * 1024;
        let mut spec = DatasetSpec::eval_mix(bytes);
        let keep = match self.mix {
            Mix::Eval => {
                steady(&mut spec);
                return spec;
            }
            Mix::Media => Category::Compressed,
            Mix::Static => Category::StaticUncompressed,
        };
        // One category only, at eval_mix relative shares stretched to the
        // whole budget; no tiny files.
        spec.apps.retain(|a| a.app.category() == keep);
        spec.tiny.initial_files = 0;
        spec.tiny.weekly_new_files = 0;
        let kept: u64 = spec
            .apps
            .iter()
            .map(|a| a.initial_files as u64 * a.mean_file_size)
            .sum();
        let stretch = bytes as f64 / kept.max(1) as f64;
        for a in &mut spec.apps {
            let app_bytes = (a.initial_files as u64 * a.mean_file_size) as f64 * stretch;
            if self.mix == Mix::Media {
                a.mean_file_size = MEDIA_MEAN_FILE;
                a.sigma = MEDIA_SIGMA;
                a.copy_rate = 0.0;
            }
            a.initial_files = ((app_bytes / a.mean_file_size as f64).ceil() as usize).max(1);
            a.pool_size = ((a.pool_size as f64 * stretch) as u64).max(16);
            let arrivals = a.initial_files as f64 * weekly_new_share(keep);
            a.weekly_new_files = (arrivals.ceil() as usize).max(1);
        }
        if self.mix == Mix::Static {
            steady(&mut spec);
        }
        spec
    }

    /// The engine configuration the e2e path runs: the CLI default
    /// (`workers = 1`, `AaDedupeConfig::default()`), plus the disk-backed
    /// index on the spilling workload.
    pub fn config(&self, index_dir: &Path) -> AaDedupeConfig {
        let mut config = AaDedupeConfig::default();
        if let Some(entries) = self.spill_ram_entries {
            config.index_dir = Some(index_dir.to_path_buf());
            config.ram_entries_per_partition = entries;
        }
        config
    }
}

/// A workload's materialised input: one `Vec<MemoryFile>` per weekly
/// session, in generator order.
pub struct Corpus {
    pub sessions: Vec<Vec<MemoryFile>>,
}

impl Corpus {
    /// Session `week` as backup-scheme inputs.
    pub fn sources(&self, week: usize) -> Vec<&dyn SourceFile> {
        self.sessions[week]
            .iter()
            .map(|f| f as &dyn SourceFile)
            .collect()
    }

    /// Logical bytes of session `week`.
    pub fn logical_bytes(&self, week: usize) -> u64 {
        self.sessions[week]
            .iter()
            .map(|f| f.data.len() as u64)
            .sum()
    }

    /// FNV-1a over every path and byte, in order — the determinism check.
    #[cfg(test)]
    pub fn checksum(&self) -> u64 {
        let mut h = crate::stats::Fnv::new();
        for session in &self.sessions {
            for f in session {
                h.update(f.path.as_bytes());
                h.update(&f.data);
            }
        }
        h.finish()
    }
}

/// Scratch space of one benchmark process, inside the working directory
/// and removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

/// Distinguishes the scratch roots of one process (its tests run in
/// parallel threads).
static SCRATCH_ROOTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Scratch {
    /// Creates `<cwd>/.bench_scratch/aadedupe-benchmark-<pid>-<n>`. Inside
    /// the working directory, not the system's temporary directory: a run
    /// reads and writes only inside its checkout.
    pub fn create() -> std::io::Result<Scratch> {
        let n = SCRATCH_ROOTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!("aadedupe-benchmark-{}-{n}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, existing sub-directory.
    pub fn fresh_dir(&self, label: &str) -> std::io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// A path inside the scratch root (not created).
    #[cfg(test)]
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Removes a directory handed out by [`Scratch::fresh_dir`].
    pub fn discard(&self, dir: &Path) {
        if dir.starts_with(&self.root) {
            if let Err(e) = std::fs::remove_dir_all(dir) {
                // The whole root goes on drop; say so and carry on.
                eprintln!("note: could not remove {}: {e}", dir.display());
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.root) {
            eprintln!("note: could not remove {}: {e}", self.root.display());
        }
        // Leave no empty parent behind; it stays while another process or
        // test still has a root in it (remove_dir refuses a non-empty one).
        if let Some(parent) = self.root.parent() {
            drop(std::fs::remove_dir(parent));
        }
    }
}

/// Set-up: runs the generator for every week of `w` and materialises each
/// snapshot.
pub fn prepare(w: &Workload, seed: u64) -> Corpus {
    let mut generator = Generator::new(w.spec(), seed);
    let sessions = (0..w.weeks)
        .map(|week| {
            generator
                .snapshot(week)
                .files
                .iter()
                .map(|f| MemoryFile {
                    path: f.path.clone(),
                    app: f.app,
                    data: f.materialize(),
                    token: f.change_token(),
                })
                .collect()
        })
        .collect();
    Corpus { sessions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_workload_and_seed() {
        for w in WORKLOADS.map(|w| w.scaled(SMOKE_DIVISOR)) {
            let a = prepare(&w, 2011);
            let b = prepare(&w, 2011);
            assert_eq!(a.sessions.len(), w.weeks);
            assert_eq!(
                a.checksum(),
                b.checksum(),
                "{}: same seed, same bytes",
                w.name
            );
            assert_ne!(
                a.checksum(),
                prepare(&w, 4242).checksum(),
                "{}: the seed matters",
                w.name
            );
            assert!(a.logical_bytes(0) > 0);
        }
    }

    #[test]
    fn mixes_keep_only_their_category() {
        let media = Workload::by_name("media_large")
            .expect("defined")
            .scaled(SMOKE_DIVISOR);
        let corpus = prepare(&media, 7);
        assert!(corpus.sessions[0]
            .iter()
            .all(|f| f.app.category() == Category::Compressed));
        let config = media.config(Path::new("unused"));
        assert!(corpus.sessions[0]
            .iter()
            .all(|f| f.data.len() as u64 >= config.tiny_threshold));
        assert!(config.index_dir.is_none());

        let spill = Workload::by_name("vm_spill")
            .expect("defined")
            .scaled(SMOKE_DIVISOR);
        let corpus = prepare(&spill, 7);
        assert!(corpus
            .sessions
            .iter()
            .flatten()
            .all(|f| f.app.category() == Category::StaticUncompressed));
        assert_eq!(
            spill.config(Path::new("idx")).ram_entries_per_partition,
            512 / SMOKE_DIVISOR as usize
        );
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn steady_gives_every_application_enough_files() {
        let spec = Workload::by_name("full_mixed").expect("defined").spec();
        let plain = DatasetSpec::eval_mix(48 * MIB);
        for (a, b) in spec.apps.iter().zip(&plain.apps) {
            assert_eq!(a.app, b.app);
            assert!(
                a.initial_files as u64 >= MIN_FILES_PER_APP.min(b.initial_files as u64),
                "{:?}",
                a.app
            );
            // The byte share survives the re-draw (to rounding).
            let (ours, theirs) = (
                a.initial_files as u64 * a.mean_file_size,
                b.initial_files as u64 * b.mean_file_size,
            );
            assert!(
                ours.abs_diff(theirs) <= a.mean_file_size,
                "{:?}: {ours} vs {theirs}",
                a.app
            );
        }
    }

    #[test]
    fn scratch_roots_are_private_and_removed() {
        let (a, b) = (
            Scratch::create().expect("create"),
            Scratch::create().expect("create"),
        );
        let dir = a.fresh_dir("x").expect("dir");
        assert!(dir.is_dir() && !dir.starts_with(&b.root));
        let root = a.root.clone();
        drop(a);
        assert!(!root.exists());
        assert!(b.root.exists());
    }
}

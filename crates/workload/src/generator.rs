//! Stateful weekly-snapshot generator.
//!
//! [`Generator::new`] builds the week-0 file population from a
//! [`DatasetSpec`]; each [`Generator::snapshot`] call returns the full
//! backup of the requested week (the paper runs *full* weekly backups, so
//! every snapshot presents every live file), evolving the population
//! between weeks with category-appropriate churn:
//!
//! * compressed files are immutable; libraries accrete (and occasionally
//!   duplicate) files;
//! * static files rarely change, and change wholesale when they do;
//! * VM images receive in-place block overwrites;
//! * documents receive offset-shifting paragraph edits and appends;
//! * tiny files churn fast but carry almost no bytes.

use crate::content::{compressed_bytes, BlockFile, TokenFile, BLOCK};
use crate::model::{AppSpec, DatasetSpec};
use crate::rng::Prng;
use aadedupe_filetype::{AppType, Category};

/// How a file's bytes are derived.
#[derive(Debug, Clone)]
enum Body {
    /// Seeded random stream of the given length (compressed apps).
    Compressed { seed: u64, len: usize },
    /// Aligned-block file (static apps, VM images).
    Blocky(BlockFile),
    /// Paragraph-token file (dynamic documents, tiny text files).
    Tokens(TokenFile),
}

/// One live file in the population.
#[derive(Debug, Clone)]
struct FileState {
    id: u64,
    app: AppType,
    path: String,
    body: Body,
    tiny: bool,
}

/// One file of a snapshot, materializable on demand.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Stable file identifier across weeks.
    pub id: u64,
    /// Repository-relative path (extension encodes the application).
    pub path: String,
    /// Application type.
    pub app: AppType,
    /// Whether this file belongs to the tiny-file population.
    pub tiny: bool,
    body: Body,
    pool_tag: u64,
}

impl FileEntry {
    /// Produces the file's bytes.
    pub fn materialize(&self) -> Vec<u8> {
        match &self.body {
            Body::Compressed { seed, len } => compressed_bytes(*seed, *len),
            Body::Blocky(b) => b.materialize(self.pool_tag),
            Body::Tokens(t) => t.materialize(self.pool_tag),
        }
    }

    /// The file's length in bytes (without materializing).
    pub fn len(&self) -> usize {
        match &self.body {
            Body::Compressed { len, .. } => *len,
            Body::Blocky(b) => b.len(),
            Body::Tokens(t) => t.byte_len(),
        }
    }

    /// True for zero-length files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A cheap content-version token (the synthetic analogue of an mtime):
    /// derived from the file's *logical description*, not its bytes, so it
    /// is O(description) like a stat call, and changes exactly when the
    /// derivation changes.
    pub fn change_token(&self) -> u64 {
        fn mix(acc: u64, v: u64) -> u64 {
            (acc ^ v).wrapping_mul(0x100000001B3).rotate_left(17)
        }
        match &self.body {
            Body::Compressed { seed, len } => mix(mix(1, *seed), *len as u64),
            Body::Blocky(b) => b.structure_token(),
            Body::Tokens(t) => t.structure_token(),
        }
    }
}

impl aadedupe_filetype::SourceFile for FileEntry {
    fn path(&self) -> &str {
        &self.path
    }

    fn app_type(&self) -> AppType {
        self.app
    }

    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read(&self) -> Vec<u8> {
        self.materialize()
    }

    fn change_token(&self) -> u64 {
        FileEntry::change_token(self)
    }
}

/// A full weekly backup: every live file of that week.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Week number (0-based).
    pub week: usize,
    /// The files, in stable id order.
    pub files: Vec<FileEntry>,
}

impl Snapshot {
    /// Total logical bytes in the snapshot.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.len() as u64).sum()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The files as backup-scheme inputs.
    pub fn as_sources(&self) -> Vec<&dyn aadedupe_filetype::SourceFile> {
        self.files
            .iter()
            .map(|f| f as &dyn aadedupe_filetype::SourceFile)
            .collect()
    }
}

/// The stateful generator.
pub struct Generator {
    spec: DatasetSpec,
    seed: u64,
    week: usize,
    next_id: u64,
    files: Vec<FileState>,
}

impl Generator {
    /// Builds the week-0 population.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        let mut gen = Generator { spec, seed, week: 0, next_id: 0, files: Vec::new() };
        let apps = gen.spec.apps.clone();
        for a in &apps {
            for _ in 0..a.initial_files {
                gen.spawn_file(a, false);
            }
        }
        let tiny_count = gen.spec.tiny.initial_files;
        for _ in 0..tiny_count {
            gen.spawn_tiny();
        }
        gen
    }

    fn pool_tag(seed: u64, app: AppType) -> u64 {
        // One pool per (dataset, application): cross-app sharing is zero by
        // construction (Observation 2).
        seed ^ (app.tag() as u64).wrapping_mul(0x9E3779B97F4A7C15)
    }

    fn spawn_file(&mut self, a: &AppSpec, force_copy: bool) {
        let id = self.next_id;
        self.next_id += 1;
        let mut r = Prng::derive(&[self.seed, id, 0xF11E]);

        // File-level duplicates: copy an existing same-type file's body.
        let copy = force_copy || r.chance(a.copy_rate);
        if copy {
            if let Some(src) = self
                .files
                .iter()
                .filter(|f| f.app == a.app && !f.tiny)
                .nth(r.below(64) as usize % self.files.len().max(1))
            {
                let body = src.body.clone();
                let path = format!("user/{}/file{:06}.{}", a.app.extension(), id, a.app.extension());
                self.files.push(FileState { id, app: a.app, path, body, tiny: false });
                return;
            }
        }

        let len = r.lognormal_mean(a.mean_file_size as f64, a.sigma).max(12.0 * 1024.0) as usize;
        let body = match a.app.category() {
            Category::Compressed => Body::Compressed { seed: r.next_u64(), len },
            Category::StaticUncompressed => {
                Body::Blocky(BlockFile::new(r.next_u64(), len, a.pool_size, a.dup_rate))
            }
            Category::DynamicUncompressed => {
                // Documents carry their redundancy as *versions*: users
                // keep edited near-copies (report_v2.doc, thesis drafts).
                // A near-copy shares long byte runs with its source --
                // catchable by CDC fully and by SC up to the first shifted
                // offset, which is exactly the SC~CDC balance Table 1
                // reports for DOC/TXT/PPT.
                // Rate is boosted over the raw Table-1 fraction because at
                // laptop scale files are smaller, so each edit destroys a
                // larger share of a near-copy's chunk-level overlap.
                let near_copy = r.chance((a.dup_rate * 2.0).min(0.45));
                let source = if near_copy {
                    let candidates: Vec<&FileState> = self
                        .files
                        .iter()
                        .filter(|f| f.app == a.app && !f.tiny)
                        .collect();
                    if candidates.is_empty() {
                        None
                    } else {
                        let pick = r.below(candidates.len() as u64) as usize;
                        match &candidates[pick].body {
                            Body::Tokens(t) => Some(t.clone()),
                            _ => None,
                        }
                    }
                } else {
                    None
                };
                match source {
                    Some(mut t) => {
                        t.edit(r.next_u64(), 2);
                        t.append(r.next_u64(), 1);
                        Body::Tokens(t)
                    }
                    None => Body::Tokens(TokenFile::new(
                        r.next_u64(),
                        len,
                        a.pool_size,
                        // Paragraph-level pool sharing is kept as texture;
                        // version near-copies carry the calibrated bulk.
                        a.dup_rate / 3.0,
                    )),
                }
            }
        };
        let path = format!("user/{}/file{:06}.{}", a.app.extension(), id, a.app.extension());
        self.files.push(FileState { id, app: a.app, path, body, tiny: false });
    }

    fn spawn_tiny(&mut self) {
        let id = self.next_id;
        self.next_id += 1;
        let mut r = Prng::derive(&[self.seed, id, 0x717F]);
        let len = r
            .lognormal_mean(self.spec.tiny.mean_file_size as f64, 0.8)
            .clamp(64.0, 10.0 * 1024.0 - 1.0) as usize;
        // Tiny files: mostly text/config, some small images.
        let (app, body) = if r.chance(0.8) {
            (AppType::Txt, Body::Tokens(TokenFile::new(r.next_u64(), len, 256, 0.15)))
        } else {
            (AppType::Jpg, Body::Compressed { seed: r.next_u64(), len })
        };
        let path = format!("user/tiny/note{:06}.{}", id, app.extension());
        self.files.push(FileState { id, app, path, body, tiny: true });
    }

    /// Returns the full backup for `week`.
    ///
    /// Weeks must be requested in non-decreasing order; requesting a past
    /// week panics (the churn process is not reversible).
    pub fn snapshot(&mut self, week: usize) -> Snapshot {
        assert!(
            week >= self.week,
            "cannot rewind the generator (at week {}, requested {week})",
            self.week
        );
        while self.week < week {
            self.advance_week();
        }
        let files = self
            .files
            .iter()
            .map(|f| FileEntry {
                id: f.id,
                path: f.path.clone(),
                app: f.app,
                tiny: f.tiny,
                body: f.body.clone(),
                pool_tag: Self::pool_tag(self.seed, f.app),
            })
            .collect();
        Snapshot { week, files }
    }

    fn advance_week(&mut self) {
        self.week += 1;
        let week = self.week as u64;
        let apps = self.spec.apps.clone();
        let mut r = Prng::derive(&[self.seed, week, 0x3EE4]);

        // Deletions and modifications over the existing population.
        let mut doomed: Vec<usize> = Vec::new();
        for i in 0..self.files.len() {
            let (app, tiny, id) = {
                let f = &self.files[i];
                (f.app, f.tiny, f.id)
            };
            let (modify_frac, delete_frac) = if tiny {
                (self.spec.tiny.weekly_modify_fraction, self.spec.tiny.weekly_delete_fraction)
            } else {
                match apps.iter().find(|a| a.app == app) {
                    Some(a) => (a.weekly_modify_fraction, a.weekly_delete_fraction),
                    None => (0.10, 0.02), // tiny-population types not in spec
                }
            };
            if r.chance(delete_frac) {
                doomed.push(i);
                continue;
            }
            if r.chance(modify_frac) {
                let step = Prng::derive(&[self.seed, id, week, 0xED17]).next_u64();
                let f = &mut self.files[i];
                match &mut f.body {
                    // Compressed files are immutable; "modification" in
                    // media libraries is re-export = wholesale new bytes.
                    Body::Compressed { seed, .. } => *seed = step,
                    Body::Blocky(b) => {
                        // VM images: in-place writes touching ~2% of blocks;
                        // other static files: a couple of blocks.
                        let frac = if f.app == AppType::Vmdk { 0.02 } else { 0.01 };
                        let count = ((b.len() / BLOCK) as f64 * frac).ceil() as usize;
                        b.overwrite_blocks(step, count.max(1));
                    }
                    Body::Tokens(t) => {
                        t.edit(step, 3);
                        t.append(step ^ 0xAAAA, 1);
                    }
                }
            }
        }
        for i in doomed.into_iter().rev() {
            self.files.swap_remove(i);
        }
        self.files.sort_by_key(|f| f.id);

        // Arrivals.
        for a in &apps {
            for _ in 0..a.weekly_new_files {
                self.spawn_file(a, false);
            }
        }
        for _ in 0..self.spec.tiny.weekly_new_files {
            self.spawn_tiny();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DatasetSpec;

    fn small_gen() -> Generator {
        Generator::new(DatasetSpec::tiny_test(), 42)
    }

    #[test]
    fn snapshots_are_deterministic() {
        let s1 = Generator::new(DatasetSpec::tiny_test(), 7).snapshot(0);
        let s2 = Generator::new(DatasetSpec::tiny_test(), 7).snapshot(0);
        assert_eq!(s1.file_count(), s2.file_count());
        for (a, b) in s1.files.iter().zip(s2.files.iter()) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.materialize(), b.materialize());
        }
        // Different seed, different data.
        let s3 = Generator::new(DatasetSpec::tiny_test(), 8).snapshot(0);
        assert!(s1
            .files
            .iter()
            .zip(s3.files.iter())
            .any(|(a, b)| a.materialize() != b.materialize()));
    }

    #[test]
    fn unchanged_files_identical_across_weeks() {
        let mut generator = small_gen();
        let w0 = generator.snapshot(0);
        let w1 = generator.snapshot(1);
        // Compressed files never change in place: every surviving id has
        // identical bytes unless its seed was re-rolled (modify_frac = 0).
        let mut survived = 0;
        for f1 in w1.files.iter().filter(|f| f.app.category() == Category::Compressed && !f.tiny) {
            if let Some(f0) = w0.files.iter().find(|f| f.id == f1.id) {
                assert_eq!(f0.materialize(), f1.materialize(), "compressed file mutated");
                survived += 1;
            }
        }
        assert!(survived > 0, "no compressed files survived week 1");
    }

    #[test]
    fn weekly_churn_changes_some_documents() {
        let mut generator = small_gen();
        let w0 = generator.snapshot(0);
        let w3 = generator.snapshot(3);
        let mut changed = 0;
        let mut compared = 0;
        for f3 in w3.files.iter().filter(|f| f.app.category() == Category::DynamicUncompressed) {
            if let Some(f0) = w0.files.iter().find(|f| f.id == f3.id) {
                compared += 1;
                if f0.materialize() != f3.materialize() {
                    changed += 1;
                }
            }
        }
        assert!(compared > 0);
        assert!(changed > 0, "three weeks of churn should edit something");
    }

    #[test]
    fn population_grows_over_time() {
        let mut generator = small_gen();
        let c0 = generator.snapshot(0).file_count();
        let c5 = generator.snapshot(5).file_count();
        assert!(c5 > c0, "arrivals should outpace the small delete rate");
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn rewinding_panics() {
        let mut generator = small_gen();
        generator.snapshot(2);
        generator.snapshot(1);
    }

    #[test]
    fn entry_len_matches_materialized_len() {
        let mut generator = small_gen();
        for f in &generator.snapshot(0).files {
            assert_eq!(f.len(), f.materialize().len(), "{}", f.path);
        }
    }

    #[test]
    fn tiny_files_are_tiny_and_dominate_count() {
        let mut generator = small_gen();
        let snap = generator.snapshot(0);
        let tiny: Vec<_> = snap.files.iter().filter(|f| f.tiny).collect();
        assert!(tiny.iter().all(|f| f.len() < 10 * 1024));
        let frac = tiny.len() as f64 / snap.file_count() as f64;
        assert!(frac > 0.4, "tiny fraction {frac}");
    }

    #[test]
    fn paths_encode_app_types() {
        let mut generator = small_gen();
        for f in &generator.snapshot(0).files {
            assert_eq!(
                aadedupe_filetype::classify(std::path::Path::new(&f.path)),
                f.app,
                "{}",
                f.path
            );
        }
    }
}

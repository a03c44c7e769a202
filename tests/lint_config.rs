//! Meta-test: every crate carries the compiler-checked lints — among them
//! the panic line of `core` and of every crate it links, the determinism
//! lists in the `clippy.toml` of every decision and output-shaping crate,
//! the error-folding list of every storage-path crate, and the ban on
//! `std::sync::{Mutex, RwLock}` and on the raw blocking calls in every
//! `clippy.toml`.
//!
//! Clippy enforces each list; this test keeps the lists themselves from
//! going missing, so a crate that drops one fails the ordinary test suite,
//! not just the dedicated CI job.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The line at every library crate root: panics and dropped `Result`s
/// in non-test library code are clippy errors.
const LIB_LINE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
                        clippy::let_underscore_must_use, clippy::unused_result_ok))]";
/// The line at the root of `core` and of every crate it links instead:
/// indexing, slicing and panic macros are clippy errors there too, and a
/// public fn that can still panic says so in a `# Panics` section.
const PANIC_LINE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
                          clippy::let_underscore_must_use, clippy::unused_result_ok, \
                          clippy::indexing_slicing, clippy::panic, clippy::unreachable, \
                          clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]";
/// Ratchet on the vetted indexing/slicing sites under [`PANIC_LINE`]. May
/// shrink, never grow: rewrite the site instead of vetting it.
const MAX_INDEXING_EXPECTS: usize = 40;
/// Crates whose code makes dedup decisions: chunk boundaries,
/// fingerprints, index placement, container layout.
const DEDUP_DECISION_CRATES: &[&str] = &["core", "chunking", "hashing", "index", "container"];
/// Crates that shape report output (metrics) or observability snapshots
/// (obs).
const OUTPUT_SHAPING_CRATES: &[&str] = &["metrics", "obs"];
/// `disallowed-methods` entries in the `clippy.toml` of every
/// [`DEDUP_DECISION_CRATES`] member: the wall clock and thread identity.
const DECISION_METHODS: &[&str] =
    &["std::time::Instant::now", "std::time::SystemTime::now", "std::thread::current"];
/// `disallowed-methods` entries in the `clippy.toml` of every decision and
/// [`OUTPUT_SHAPING_CRATES`] member: every method that exposes hash order.
/// `IntoIterator::into_iter` is banned outright, since clippy cannot tell
/// a hash map's from any other; a `for` loop's desugaring is not flagged
/// by it, but by `iter_over_hash_type` on a hash type.
const HASH_ORDER_METHODS: &[&str] = &[
    "std::collections::HashMap::iter",
    "std::collections::HashMap::iter_mut",
    "std::collections::HashMap::keys",
    "std::collections::HashMap::values",
    "std::collections::HashMap::values_mut",
    "std::collections::HashMap::into_keys",
    "std::collections::HashMap::into_values",
    "std::collections::HashMap::drain",
    "std::collections::HashMap::retain",
    "std::collections::HashSet::iter",
    "std::collections::HashSet::drain",
    "std::collections::HashSet::retain",
    "std::collections::HashSet::union",
    "std::collections::HashSet::intersection",
    "std::collections::HashSet::difference",
    "std::collections::HashSet::symmetric_difference",
    "core::iter::IntoIterator::into_iter",
];
/// Ratchet on the vetted `disallowed_methods` sites in non-test code of
/// those crates. May shrink, never grow.
const MAX_DISALLOWED_EXPECTS: usize = 3;
/// `disallowed-types` entries in every `clippy.toml`: every lock is an
/// `aadedupe_lock::Lock`, which takes one lock per thread at a time.
const LOCK_TYPES: &[&str] = &["std::sync::Mutex", "std::sync::RwLock"];
/// `disallowed-methods` entries in every `clippy.toml`: the calls that
/// block on another thread go through `aadedupe_lock`'s wrappers, which
/// refuse them under a lock in debug builds.
const BLOCKING_METHODS: &[&str] = &[
    "std::sync::mpsc::SyncSender::send",
    "std::sync::mpsc::Receiver::recv",
    "std::sync::mpsc::Receiver::recv_timeout",
    "std::thread::JoinHandle::join",
    "std::thread::ScopedJoinHandle::join",
];
/// The crates a storage `Result` passes through on its way to the
/// manifest commit point or the CLI's exit code.
const STORAGE_PATH_CRATES: &[&str] = &["cloud", "core", "baselines", "cli"];
/// `disallowed-methods` entries in the `clippy.toml` of every
/// [`STORAGE_PATH_CRATES`] member: the `Result` methods that fold an error
/// into a default.
const ERROR_FOLDING_METHODS: &[&str] = &[
    "core::result::Result::unwrap_or",
    "core::result::Result::unwrap_or_default",
    "core::result::Result::unwrap_or_else",
    "core::result::Result::map_or",
    "core::result::Result::map_or_else",
];
/// The line at every bin crate root: only the dropped-`Result` lints.
const BIN_LINE: &str =
    "#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]";

/// `crates/*` directories, sorted.
fn member_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `path = ".."` entries of the list `key` (`disallowed-methods`,
/// `disallowed-types`) in a `clippy.toml`.
fn listed<'t>(toml: &'t str, key: &str) -> BTreeSet<&'t str> {
    let list = toml.split_once(&format!("{key} = [")).map_or("", |(_, rest)| rest);
    let list = list.split_once("\n]").map_or(list, |(body, _)| body);
    list.split("path = \"").skip(1).filter_map(|r| r.split('"').next()).collect()
}

/// `[package] name` and the `[dependencies]` keys of a manifest. Dev- and
/// build-dependencies are not linked into the library, so they are skipped.
fn package_and_deps(manifest: &str) -> (String, Vec<String>) {
    let (mut section, mut name, mut deps) = ("", String::new(), Vec::new());
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" {
            let value = line.strip_prefix("name").and_then(|r| r.trim_start().strip_prefix('='));
            if let Some(v) = value {
                name = v.trim().trim_matches('"').to_string();
            }
        } else if section == "[dependencies]" {
            if let Some((key, _)) = line.split_once(['.', '=']) {
                deps.push(key.trim().to_string());
            }
        }
    }
    (name, deps)
}

/// The member dirs whose roots carry [`PANIC_LINE`]: `crates/core` and the
/// closure of its `[dependencies]`, read from the manifests, so a crate
/// `core` starts to link is under the line from that commit on.
fn panic_line_crates(root: &Path) -> BTreeSet<PathBuf> {
    let members: BTreeMap<String, (PathBuf, Vec<String>)> = member_dirs(root)
        .into_iter()
        .map(|dir| {
            let (name, deps) = package_and_deps(&read(&dir.join("Cargo.toml")));
            (name, (dir, deps))
        })
        .collect();
    let mut todo = vec!["aadedupe-core".to_string()];
    let mut set = BTreeSet::new();
    while let Some(name) = todo.pop() {
        if let Some((dir, deps)) = members.get(&name) {
            if set.insert(dir.clone()) {
                todo.extend(deps.iter().cloned());
            }
        }
    }
    set
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `unsafe` is forbidden only through `[workspace.lints.rust]`, and
/// `unwrap`/`expect`/dropped `Result`s only through the crate-root
/// clippy line, so a member that opts out of either is unchecked.
#[test]
fn every_member_inherits_the_lint_table_and_every_root_carries_its_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = member_dirs(root);
    let panic_line = panic_line_crates(root);
    assert!(
        panic_line.len() > 5 && panic_line.contains(&root.join("crates/hashing")),
        "core's dependency closure lost its crates: {panic_line:?}"
    );
    assert!(members.len() > 10, "found only {} members", members.len());
    for dir in std::iter::once(root.to_path_buf()).chain(members) {
        let manifest = read(&dir.join("Cargo.toml"));
        let mut lines = manifest.lines().map(str::trim).skip_while(|l| *l != "[lints]");
        assert!(
            lines.next().is_some() && lines.next() == Some("workspace = true"),
            "{}: missing `[lints] workspace = true`",
            dir.display()
        );
        let lib = dir.join("src/lib.rs");
        if lib.is_file() {
            let line = if panic_line.contains(&dir) { PANIC_LINE } else { LIB_LINE };
            assert!(read(&lib).lines().any(|l| l == line), "{}: missing {line}", lib.display());
        }
        let mut bins = vec![dir.join("src/main.rs")];
        if let Ok(entries) = fs::read_dir(dir.join("src/bin")) {
            bins.extend(entries.map(|e| e.expect("src/bin entry").path()));
        }
        for bin in bins.into_iter().filter(|p| p.is_file()) {
            assert!(read(&bin).lines().any(|l| l == BIN_LINE), "{}: missing {BIN_LINE}", bin.display());
        }
    }
}

/// The vetted indexing/slicing sites under the panic line stay few.
#[test]
fn indexing_expects_under_the_panic_line_are_ratcheted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in panic_line_crates(root) {
        rust_files(&dir.join("src"), &mut files);
    }
    // Whitespace dropped, so a multi-line attribute counts too.
    let sites: usize = files
        .iter()
        .map(|f| {
            let text: String = read(f).split_whitespace().collect();
            text.matches("#[expect(clippy::indexing_slicing").count()
        })
        .sum();
    assert!(
        sites <= MAX_INDEXING_EXPECTS,
        "{sites} `#[expect(clippy::indexing_slicing` sites, bound is {MAX_INDEXING_EXPECTS}"
    );
    println!("panic line: {} files, {sites} vetted indexing/slicing sites", files.len());
}

/// The determinism rules live in clippy configuration: each decision and
/// output-shaping crate's `clippy.toml` carries its full list, and the
/// workspace lint table denies `allow`s without a reason.
#[test]
fn determinism_crates_carry_their_clippy_toml() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let decision = DEDUP_DECISION_CRATES.iter().map(|c| (c, DECISION_METHODS));
    let shaping = OUTPUT_SHAPING_CRATES.iter().map(|c| (c, &[][..]));
    for (krate, own) in decision.chain(shaping) {
        let path = root.join("crates").join(krate).join("clippy.toml");
        let toml = read(&path);
        let listed = listed(&toml, "disallowed-methods");
        for method in own.iter().chain(HASH_ORDER_METHODS) {
            assert!(listed.contains(method), "{}: `{method}` is not disallowed", path.display());
        }
    }
    let manifest = read(&root.join("Cargo.toml"));
    let lint = "allow_attributes_without_reason = \"deny\"";
    assert!(manifest.lines().any(|l| l == lint), "Cargo.toml: missing `{lint}`");
}

/// The vetted `disallowed_methods` sites in non-test code stay few; a test
/// module's one module-level `expect` does not count.
#[test]
fn disallowed_method_expects_are_ratcheted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in DEDUP_DECISION_CRATES.iter().chain(OUTPUT_SHAPING_CRATES) {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    let attr = "#[expect(clippy::disallowed_methods";
    let sites: usize = files
        .iter()
        .map(|f| {
            let text: String = read(f).split_whitespace().collect();
            text.match_indices(attr).filter(|(i, _)| !text[..*i].ends_with("#[cfg(test)]")).count()
        })
        .sum();
    assert!(
        sites <= MAX_DISALLOWED_EXPECTS,
        "{sites} `{attr}` sites, bound is {MAX_DISALLOWED_EXPECTS}: fix the site instead"
    );
    println!("determinism: {sites} vetted disallowed-method sites");
}

/// Clippy reads only the nearest `clippy.toml`, so the root one (for
/// members without their own) and every per-crate one must each ban the
/// std locks and the raw blocking calls: lock nesting and blocking under
/// a lock are checked by `aadedupe_lock` alone.
#[test]
fn every_clippy_toml_disallows_the_std_locks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tomls = vec![root.join("clippy.toml")];
    tomls.extend(member_dirs(root).iter().map(|d| d.join("clippy.toml")).filter(|p| p.is_file()));
    assert!(tomls.len() > 7, "found only {} clippy.toml files", tomls.len());
    for path in &tomls {
        let toml = read(path);
        let types = listed(&toml, "disallowed-types");
        for ty in LOCK_TYPES {
            assert!(types.contains(ty), "{}: `{ty}` is not disallowed", path.display());
        }
        let methods = listed(&toml, "disallowed-methods");
        for method in BLOCKING_METHODS {
            assert!(methods.contains(method), "{}: `{method}` is not disallowed", path.display());
        }
    }
}

/// A storage error is matched or propagated, never folded into a default:
/// each storage-path crate's `clippy.toml` disallows the folding methods.
#[test]
fn storage_path_crates_disallow_folding_an_error() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for krate in STORAGE_PATH_CRATES {
        let path = root.join("crates").join(krate).join("clippy.toml");
        let toml = read(&path);
        let listed = listed(&toml, "disallowed-methods");
        for method in ERROR_FOLDING_METHODS {
            assert!(listed.contains(method), "{}: `{method}` is not disallowed", path.display());
        }
    }
}

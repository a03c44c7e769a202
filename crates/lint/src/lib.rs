#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! `aalint` — workspace-native static analysis for AA-Dedupe.
//!
//! Checks only what the compiler cannot say. `unsafe` is rejected by
//! `[workspace.lints.rust]`; `unwrap`/`expect` in library code and
//! dropped `Result`s (`let _ = ..`, trailing `.ok();`) by the clippy
//! line at every crate root; indexing, slicing and panic macros in `core`
//! and every crate it links by the longer form of that line those crates
//! carry; the wall clock, thread identity and hash-order traversal in the
//! decision and output-shaping crates by the `disallowed-methods` list in
//! each one's `clippy.toml` and the workspace's `iter_over_hash_type`.
//! Lock nesting is a type's: every lock is an `aadedupe_lock::Lock`, whose
//! `lock()` panics in debug builds when the thread already holds one, and
//! the `clippy.toml` files disallow `std::sync::{Mutex, RwLock}`. A storage
//! error folded into a default (`Result::unwrap_or` and its kin) is
//! disallowed in the `clippy.toml` of every crate on the storage path.
//! What is left needs one file's token stream (DESIGN §12 maps every
//! hazard to its checker):
//!
//! - **L2 `unordered-iteration`** — the one hash-order traversal clippy
//!   cannot name by path: `name.into_iter()` on a binding declared as a
//!   `HashMap`/`HashSet`, with no order-insensitive sink or sort.
//! - **L3 `blocking-under-lock`** — no blocking channel/thread call
//!   while a lock guard is live in the same scope.
//!
//! No comment silences a finding: it is fixed in code. (A vetted clippy
//! site takes `#[expect(.., reason = "..")]`, which the compiler checks.)
//! The scanner is hand-rolled and std-only (no `syn`): the build is
//! offline, and the rules are linear token patterns that do not need a
//! full parse.

pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::{Diagnostic, Report};
pub use rules::{DEDUP_DECISION_CRATES, OUTPUT_SHAPING_CRATES};

/// Directories never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", ".github", "results"];

/// Scans every first-party `.rs` file under `root` (a workspace root)
/// with the rules (L2, L3) and returns the sorted report.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files.iter().filter(|rel| rules::classify(rel).is_some()) {
        let src = fs::read_to_string(root.join(rel))?;
        report.files_scanned += 1;
        report.diagnostics.extend(rules::scan_source(rel, &src));
    }
    report.sort();
    Ok(report)
}

/// Recursively collects workspace-relative `/`-separated `.rs` paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]` — the scan root when invoked via
/// `cargo run -p aalint` from anywhere inside the tree.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_found_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }

    #[test]
    fn scan_workspace_covers_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let report = scan_workspace(&root).expect("scan");
        assert!(report.files_scanned > 50, "walker found the workspace sources");
    }
}

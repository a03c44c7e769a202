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
//! What is left needs the token stream or the whole-workspace call graph
//! (DESIGN §12 maps every hazard to its checker):
//!
//! - **L2 `unordered-iteration`** — the one hash-order traversal clippy
//!   cannot name by path: `name.into_iter()` on a binding declared as a
//!   `HashMap`/`HashSet`, with no order-insensitive sink or sort.
//! - **L3 `blocking-under-lock`** — no blocking channel/thread call
//!   while a `MutexGuard` is live in the same scope.
//!
//! A second pass ([`graph`]) lexes no new source: it resolves a
//! conservative whole-workspace call graph (name + arity, bounded by
//! the Cargo dependency DAG, dev-dependencies and test functions
//! excluded) from the same token streams and runs two interprocedural
//! rules (DESIGN §17):
//!
//! - **L5 `lock-order-cycle`** — two locks acquired in opposite orders
//!   on any pair of call paths (per-call-site transitive resolution).
//! - **L7 `discarded-fallibility`** — a caller of the object-store
//!   fallible surface (`put`/`get`/`delete`) does not itself return
//!   `Result`, so the error cannot propagate.
//!
//! No comment silences a finding: it is fixed in code. (A vetted clippy
//! site takes `#[expect(.., reason = "..")]`, which the compiler checks.)
//! The scanner is hand-rolled and std-only (no `syn`): the build is
//! offline, and the rules are linear token patterns that do not need a
//! full parse.

pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::{Diagnostic, GraphStats, Report};
pub use rules::{DEDUP_DECISION_CRATES, OUTPUT_SHAPING_CRATES};

/// Directories never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", ".github", "results"];

/// Scans every first-party `.rs` file under `root` (a workspace root)
/// and returns the sorted report.
///
/// Two phases: the file-local rules (L2, L3) run per file on its token
/// stream; the same pre-lexed streams then feed the workspace call
/// graph and the interprocedural rules (L5, L7).
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    let mut inputs: Vec<graph::FileInput> = Vec::new();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let Some(class) = rules::classify(&rel) else { continue };
        report.files_scanned += 1;
        let toks = lexer::lex(&src);
        let test_ranges = rules::test_line_ranges(&toks);
        report.diagnostics.extend(rules::file_diagnostics(&rel, &class, &toks, &test_ranges));
        inputs.push(graph::FileInput { rel, class, toks, test_ranges });
    }

    let (ip_diags, stats) = graph::interprocedural(&inputs, root);
    report.graph = stats;
    report.diagnostics.extend(ip_diags);
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

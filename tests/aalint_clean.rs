//! Meta-test: the workspace's own sources pass `aalint`, and every crate
//! carries the compiler-checked lints aalint leaves to rustc and clippy.
//!
//! This is the enforcement point that keeps `cargo test` equivalent to
//! `cargo run -p aalint -- check` — a violation anywhere in first-party
//! code fails the ordinary test suite, not just the dedicated CI job.

use std::fs;
use std::path::{Path, PathBuf};

/// The line at every library crate root: panics and dropped `Result`s
/// in non-test library code are clippy errors.
const LIB_LINE: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
                        clippy::let_underscore_must_use, clippy::unused_result_ok))]";
/// The line at every bin crate root: only the dropped-`Result` lints.
const BIN_LINE: &str =
    "#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]";

#[test]
fn workspace_is_aalint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = aalint::scan_workspace(root).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "walker lost the workspace: only {} files scanned",
        report.files_scanned
    );
    assert!(report.clean(), "aalint violations in first-party code:\n{}", report.render_text());
    // The interprocedural pass must actually see the workspace: a graph
    // that collapses to a handful of nodes means the symbol pass broke,
    // and L5–L7 would be vacuously green.
    assert!(
        report.graph.nodes > 1000,
        "call graph lost the workspace: only {} fns",
        report.graph.nodes
    );
    assert!(report.graph.edges > report.graph.nodes, "call graph has almost no edges");
    assert!(
        report.graph.panic_tainted > 0,
        "zero panic-tainted fns is implausible — leaf detection broke"
    );
    // Ratchet: the suppression inventory may shrink, never grow. Lower the
    // bound (here and in CI's aalint step) when a PR removes suppressions.
    assert!(
        report.allows.len() <= 102,
        "{} `aalint: allow` sites, bound is 102: remove the leaf instead of annotating it",
        report.allows.len()
    );
    // Every suppression carries a justification by construction; keep the
    // inventory visible in test output so reviewers see the count move.
    println!(
        "aalint: {} files, {} allows inventoried, graph {} fns / {} edges / {} panic-tainted",
        report.files_scanned,
        report.allows.len(),
        report.graph.nodes,
        report.graph.edges,
        report.graph.panic_tainted
    );
}

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

/// `unsafe` is forbidden only through `[workspace.lints.rust]`, and
/// `unwrap`/`expect`/dropped `Result`s only through the crate-root
/// clippy line, so a member that opts out of either is unchecked.
#[test]
fn every_member_inherits_the_lint_table_and_every_root_carries_its_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = member_dirs(root);
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
            assert!(read(&lib).lines().any(|l| l == LIB_LINE), "{}: missing {LIB_LINE}", lib.display());
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

//! Meta-test: the workspace's own sources pass `aalint`.
//!
//! This is the enforcement point that keeps `cargo test` equivalent to
//! `cargo run -p aalint -- check` — a violation anywhere in first-party
//! code fails the ordinary test suite, not just the dedicated CI job.

use std::path::Path;

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
        report.allows.len() <= 116,
        "{} `aalint: allow` sites, bound is 116: remove the leaf instead of annotating it",
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

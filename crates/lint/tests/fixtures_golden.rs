//! Fixture-corpus tests: scans the deliberately-violating mini-workspace
//! under `tests/fixtures/ws/` and pins the exact diagnostics against a
//! golden JSON report, then drives the `aalint` binary for the three
//! exit codes the CLI contract promises (0 clean / 1 findings / 2 error).
//!
//! The fixture tree sits under a directory named `fixtures`, which both
//! the workspace walker and `classify` skip — so the corpus never leaks
//! into a scan of the real workspace, and these tests must point the
//! scanner at the fixture root explicitly.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn golden() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixtures.json");
    std::fs::read_to_string(path).expect("golden report exists")
}

#[test]
fn fixture_scan_matches_golden_json() {
    let report = aalint::scan_workspace(&fixture_ws()).expect("scan fixtures");
    assert!(!report.clean(), "the corpus exists to violate the rules");
    assert_eq!(report.render_json(), golden(), "diagnostics drifted from the golden report");
}

#[test]
fn fixture_scan_covers_every_rule() {
    let report = aalint::scan_workspace(&fixture_ws()).expect("scan fixtures");
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in ["unordered-iteration", "blocking-under-lock"] {
        assert!(rules.contains(&rule), "no fixture exercises `{rule}`: {rules:?}");
    }
}

#[test]
fn fixture_clean_examples_stay_clean() {
    let report = aalint::scan_workspace(&fixture_ws()).expect("scan fixtures");
    // The sorted sink and the drop-before-send idiom are the sanctioned
    // fixes; neither may diagnose.
    let l2: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.ends_with("l2_determinism.rs"))
        .map(|d| d.line)
        .collect();
    assert_eq!(l2, vec![7], "sorted_is_clean must not diagnose");
    let l3: Vec<u32> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.ends_with("l3_locks.rs"))
        .map(|d| d.line)
        .collect();
    assert_eq!(l3, vec![8, 14], "drops_before_send must not diagnose");
}

#[test]
fn cli_exits_one_with_golden_json_on_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_aalint"))
        .args(["check", "--json", "--root"])
        .arg(fixture_ws())
        .output()
        .expect("run aalint");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden());
}

#[test]
fn cli_exits_zero_on_clean_tree() {
    let dir = std::env::temp_dir().join(format!("aalint-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(dir.join("src/lib.rs"), "pub fn nothing() {}\n").expect("write source");
    let out = Command::new(env!("CARGO_BIN_EXE_aalint"))
        .args(["check", "--root"])
        .arg(&dir)
        .output()
        .expect("run aalint");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_exits_two_on_unscannable_root() {
    let out = Command::new(env!("CARGO_BIN_EXE_aalint"))
        .args(["check", "--root", "/nonexistent/aalint-no-such-dir"])
        .output()
        .expect("run aalint");
    assert_eq!(out.status.code(), Some(2));
}

//! End-to-end CLI test: drive the `aabackup` binary against real
//! directories.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use aadedupe_cloud::{FsObjectStore, ObjectBackend};
use aadedupe_core::Manifest;

fn bin() -> PathBuf {
    // target/debug/aabackup relative to this crate's target dir.
    let mut p = PathBuf::from(env!("CARGO_BIN_EXE_aabackup"));
    assert!(p.exists(), "{p:?}");
    p = p.canonicalize().unwrap();
    p
}

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "aabackup-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("src/sub")).unwrap();
        fs::create_dir_all(root.join("repo")).unwrap();
        fs::create_dir_all(root.join("out")).unwrap();
        Self { root }
    }

    fn src(&self) -> PathBuf {
        self.root.join("src")
    }

    fn repo(&self) -> PathBuf {
        self.root.join("repo")
    }

    fn out(&self) -> PathBuf {
        self.root.join("out")
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn aabackup");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn backup_restore_cycle_on_disk() {
    let dirs = Dirs::new("cycle");
    fs::write(dirs.src().join("report.doc"), b"words ".repeat(5000)).unwrap();
    fs::write(dirs.src().join("sub/photo.jpg"), vec![7u8; 40_000]).unwrap();
    fs::write(dirs.src().join("note.txt"), b"tiny note").unwrap();

    let repo = dirs.repo();
    let repo_s = repo.to_str().unwrap();
    let src_s = dirs.src();
    let src_s = src_s.to_str().unwrap();

    // Session 0.
    let (ok, out) = run(&["backup", "--repo", repo_s, src_s]);
    assert!(ok, "{out}");
    assert!(out.contains("session 0"), "{out}");

    // Session 1 over unchanged data: everything dedupes except the tiny
    // note, which bypasses the index by design (paper's size filter).
    let (ok, out) = run(&["backup", "--repo", repo_s, src_s]);
    assert!(ok, "{out}");
    assert!(out.contains("session 1"), "{out}");
    assert!(out.contains("new data 9 B"), "{out}");

    // Sessions listing.
    let (ok, out) = run(&["sessions", "--repo", repo_s]);
    assert!(ok, "{out}");
    assert!(out.contains("session 0") && out.contains("session 1"), "{out}");
    // 30 000 + 40 000 + 9 source bytes, read from the manifest.
    assert!(out.contains("session 0: 3 files, 68.37 KiB"), "{out}");

    // Restore session 0 and compare bytes.
    let out_dir = dirs.out();
    let (ok, text) = run(&["restore", "--repo", repo_s, "0", out_dir.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert_eq!(
        fs::read(out_dir.join("report.doc")).unwrap(),
        b"words ".repeat(5000)
    );
    assert_eq!(fs::read(out_dir.join("sub/photo.jpg")).unwrap(), vec![7u8; 40_000]);
    assert_eq!(fs::read(out_dir.join("note.txt")).unwrap(), b"tiny note");

    // Single-file restore.
    let single = dirs.root.join("single.doc");
    let (ok, text) = run(&[
        "restore-file", "--repo", repo_s, "0", "report.doc",
        single.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert_eq!(fs::read(&single).unwrap(), b"words ".repeat(5000));

    // Stats run cleanly.
    let (ok, out) = run(&["stats", "--repo", repo_s]);
    assert!(ok, "{out}");
    assert!(out.contains("sessions:"), "{out}");

    // Delete session 0; session 1 must still restore.
    let (ok, out) = run(&["delete", "--repo", repo_s, "0"]);
    assert!(ok, "{out}");
    let out2 = dirs.root.join("out2");
    fs::create_dir_all(&out2).unwrap();
    let (ok, text) = run(&["restore", "--repo", repo_s, "1", out2.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert_eq!(fs::read(out2.join("report.doc")).unwrap(), b"words ".repeat(5000));
    // And the deleted session is gone.
    let (ok, _) = run(&["restore", "--repo", repo_s, "0", out2.to_str().unwrap()]);
    assert!(!ok);
}

#[test]
fn incremental_change_stores_only_delta() {
    let dirs = Dirs::new("delta");
    let repo = dirs.repo();
    let repo_s = repo.to_str().unwrap();
    let src = dirs.src();

    // A 160 KB "static" PDF.
    let base: Vec<u8> = (0..160_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    fs::write(src.join("doc.pdf"), &base).unwrap();
    let (ok, out) = run(&["backup", "--repo", repo_s, src.to_str().unwrap()]);
    assert!(ok, "{out}");

    // Flip one byte in place; only ~one 8 KiB chunk should be new.
    let mut edited = base.clone();
    edited[80_000] ^= 1;
    fs::write(src.join("doc.pdf"), &edited).unwrap();
    let (ok, out) = run(&["backup", "--repo", repo_s, src.to_str().unwrap()]);
    assert!(ok, "{out}");
    // "new data 8.00 KiB" (exactly one SC chunk).
    assert!(out.contains("new data 8.00 KiB"), "{out}");
}

#[test]
fn fastcdc_chunker_backup_restores_bit_exactly() {
    let dirs = Dirs::new("fastcdc");
    let repo = dirs.repo();
    let repo_s = repo.to_str().unwrap();
    let src = dirs.src();

    // A dynamic (CDC-routed) file with entropy, plus a tiny file.
    let body: Vec<u8> =
        (0..300_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    fs::write(src.join("essay.doc"), &body).unwrap();
    fs::write(src.join("note.txt"), b"tiny note").unwrap();

    let (ok, out) =
        run(&["backup", "--repo", repo_s, "--chunker", "fastcdc", src.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("session 0"), "{out}");

    // Identical second session dedupes everything but the tiny file.
    let (ok, out) =
        run(&["backup", "--repo", repo_s, "--chunker", "fastcdc", src.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("new data 9 B"), "{out}");

    // Restores are bit-exact.
    let out_dir = dirs.out();
    let (ok, text) = run(&["restore", "--repo", repo_s, "0", out_dir.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert_eq!(fs::read(out_dir.join("essay.doc")).unwrap(), body);
    assert_eq!(fs::read(out_dir.join("note.txt")).unwrap(), b"tiny note");
}

/// The manifest comes from the repository, not from the user: a path in it
/// that would land outside `<out>` must abort the restore before any file
/// — even an innocent earlier one — is created.
#[test]
fn restore_refuses_manifest_paths_outside_the_output_directory() {
    let dirs = Dirs::new("escape");
    fs::write(dirs.src().join("a.doc"), b"words ".repeat(5000)).unwrap();
    fs::write(dirs.src().join("b.doc"), b"other ".repeat(5000)).unwrap();
    let repo = dirs.repo();
    let repo_s = repo.to_str().unwrap();
    let (ok, out) = run(&["backup", "--repo", repo_s, dirs.src().to_str().unwrap()]);
    assert!(ok, "{out}");

    let out_dir = dirs.out();
    let absolute = dirs.root.join("absolute.txt");
    for hostile in ["../escaped.txt", absolute.to_str().unwrap()] {
        // Session 0's manifest, with its last file renamed.
        let store = FsObjectStore::open(&repo).unwrap();
        let key = Manifest::key("aa-dedupe", 0);
        let mut manifest =
            Manifest::decode(&store.get(&key).unwrap().expect("manifest stored")).unwrap();
        manifest.files.last_mut().expect("two files").path = hostile.to_string();
        store.put(&key, manifest.encode()).unwrap();

        let (ok, text) = run(&["restore", "--repo", repo_s, "0", out_dir.to_str().unwrap()]);
        assert!(!ok, "restore of {hostile:?} succeeded:\n{text}");
        assert!(text.contains("error: restore refused, nothing written"), "{text}");
        assert!(text.contains(hostile), "the message names the path:\n{text}");
        assert!(!dirs.root.join("escaped.txt").exists(), "{hostile:?} climbed out of <out>");
        assert!(!absolute.exists(), "{hostile:?} replaced <out>");
        assert_eq!(fs::read_dir(&out_dir).unwrap().count(), 0, "<out> must stay empty");
    }
}

/// `sessions`, `restore`, `restore-file` and `vacuum --dry-run` only read.
/// A container no manifest references may be a concurrent backup's,
/// uploaded on its way to the commit point: sweeping it is `backup`'s job
/// on its next open, never a reader's. Nor does a reader build an index,
/// so `--index-dir` is never written.
#[test]
fn read_only_commands_leave_the_repository_untouched() {
    let dirs = Dirs::new("readonly");
    fs::write(dirs.src().join("report.doc"), b"words ".repeat(5000)).unwrap();
    let repo = dirs.repo();
    let repo_s = repo.to_str().unwrap();
    let src = dirs.src();
    let (ok, out) = run(&["backup", "--repo", repo_s, src.to_str().unwrap()]);
    assert!(ok, "{out}");

    // The in-flight container is a well-formed one (a copy of a committed
    // container under a fresh id), so a dry run's analysis parses it.
    let store = FsObjectStore::open(&repo).unwrap();
    let containers = store.list("aa-dedupe/containers/");
    let committed = store.get(&containers[0]).unwrap().expect("a committed container");
    let orphan = "aa-dedupe/containers/000099999999";
    store.put(orphan, committed).unwrap();
    let before = store.list("");
    assert!(before.iter().any(|k| k == orphan), "{before:?}");

    let out_dir = dirs.out();
    let out_s = out_dir.to_str().unwrap();
    let index_dir = dirs.root.join("index");
    let single = dirs.root.join("single.doc");
    let index_s = index_dir.to_str().unwrap();
    let readers: [&[&str]; 6] = [
        &["sessions", "--repo", repo_s],
        &["restore", "--repo", repo_s, "0", out_s],
        &["restore", "--repo", repo_s, "--index-dir", index_s, "0", out_s],
        &["restore-file", "--repo", repo_s, "0", "report.doc", single.to_str().unwrap()],
        &["vacuum", "--repo", repo_s, "--dry-run"],
        &["vacuum", "--repo", repo_s, "--index-dir", index_s, "--dry-run"],
    ];
    for args in readers {
        let (ok, text) = run(args);
        assert!(ok, "{args:?}: {text}");
        assert_eq!(store.list(""), before, "{args:?} changed the repository");
        assert!(!index_dir.exists(), "{args:?} built an index it never consults");
    }
    assert_eq!(fs::read(out_dir.join("report.doc")).unwrap(), b"words ".repeat(5000));
    assert_eq!(fs::read(&single).unwrap(), b"words ".repeat(5000));

    // The next backup opens the repository for writing and sweeps.
    let (ok, out) = run(&["backup", "--repo", repo_s, src.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("swept 1 orphaned container(s)"), "{out}");
    assert!(!store.list("").iter().any(|k| k == orphan), "orphan survived the sweep");
}

#[test]
fn bad_usage_exits_nonzero() {
    let (ok, _) = run(&["frobnicate"]);
    assert!(!ok);
    let (ok, _) = run(&["backup"]);
    assert!(!ok);
    let (ok, _) = run(&["restore", "--repo", "/nonexistent-hopefully", "notanumber", "/tmp"]);
    assert!(!ok);
    // Unknown chunker name is a usage error.
    let (ok, _) = run(&["backup", "--repo", "/tmp", "--chunker", "simd9000", "/tmp"]);
    assert!(!ok);
}

#[test]
fn backup_fails_loudly_when_the_repo_cannot_store_objects() {
    // Regression test for the silent-data-loss bug: plant a regular file
    // where the store needs the `aa-dedupe` directory, so every container
    // put fails. The old code ignored write errors and reported a
    // successful session over a repository holding nothing.
    let dirs = Dirs::new("blocked");
    fs::write(dirs.src().join("report.doc"), b"words ".repeat(5000)).unwrap();
    fs::write(dirs.repo().join("aa-dedupe"), b"not a directory").unwrap();

    let repo = dirs.repo();
    let (ok, out) =
        run(&["backup", "--repo", repo.to_str().unwrap(), dirs.src().to_str().unwrap()]);
    assert!(!ok, "backup must exit non-zero when uploads fail, got: {out}");
    assert!(out.contains("backup failed"), "{out}");
    assert!(out.contains("put"), "error should name the failing operation: {out}");
    // Nothing half-committed: no manifest means no restorable session.
    let (ok, out) = run(&["sessions", "--repo", repo.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("no sessions"), "{out}");
}

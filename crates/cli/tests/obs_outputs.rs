//! End-to-end test of the telemetry flags: run a real backup with
//! `--stats`, `--metrics` and `--progress`, then validate the one document
//! it writes and reconcile its summary against the table and the session
//! report numbers the CLI prints.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use aadedupe_obs::{json, Stage};

fn bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_aabackup")).canonicalize().unwrap()
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

/// Pulls `{dup} duplicate of {total} chunks` and `({tiny} tiny)` out of the
/// CLI's session summary lines.
fn parse_summary(out: &str) -> (u64, u64, u64) {
    let mut dup = None;
    let mut total = None;
    let mut tiny = None;
    for line in out.lines() {
        if let Some(rest) = line.split(" duplicate of ").nth(1) {
            total = rest.split(' ').next().and_then(|w| w.parse().ok());
            let before = line.split(" duplicate of ").next().unwrap();
            dup = before.rsplit(' ').next().and_then(|w| w.parse().ok());
        }
        if let Some(pos) = line.find(" tiny)") {
            tiny = line[..pos].rsplit('(').next().and_then(|w| w.parse().ok());
        }
    }
    (
        dup.expect("duplicate count in CLI output"),
        total.expect("chunk total in CLI output"),
        tiny.expect("tiny count in CLI output"),
    )
}

/// `--metrics` writes the run's telemetry document as NDJSON: the
/// schema-versioned header line, delta samples whose byte totals reconcile
/// with the backup itself, the run's spans and the closing summary, in that
/// order. `--progress` renders a live status line on stderr without
/// disturbing any of it.
#[test]
fn metrics_ndjson_and_progress_outputs() {
    let root = std::env::temp_dir().join(format!("aabackup-metrics-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("src")).unwrap();
    fs::create_dir_all(root.join("repo")).unwrap();

    // Enough unique data that the run spans several 5 ms sampling ticks.
    let mut src_bytes = 0u64;
    for i in 0..6u32 {
        let payload: Vec<u8> = (0..400_000u32)
            .map(|j| (j.wrapping_mul(2654435761).wrapping_add(i * 7919) >> 9) as u8)
            .collect();
        src_bytes += payload.len() as u64;
        fs::write(root.join(format!("src/data{i}.doc")), payload).unwrap();
    }

    let repo = root.join("repo");
    let metrics_path = root.join("metrics.ndjson");
    let (ok, out) = run(&[
        "backup",
        "--repo",
        repo.to_str().unwrap(),
        "--workers",
        "2",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--metrics-interval-ms",
        "5",
        "--progress",
        root.join("src").to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    // The live progress line rendered at least once (carriage-return
    // redraws land on stderr, captured into `out`).
    assert!(out.contains("\rbackup  "), "no progress line:\n{out}");
    assert!(out.contains("/s"), "no throughput in progress line:\n{out}");

    // The document parses line by line and starts with the header.
    let text = fs::read_to_string(&metrics_path).unwrap();
    let docs = json::parse_ndjson(&text).expect("metrics NDJSON parses");
    let header = &docs[0];
    assert_eq!(header.get("kind").as_str(), Some("header"), "{text}");
    assert_eq!(header.get("schema_version").as_u64(), Some(4));
    assert!(header.get("interval_ms").as_u64() == Some(5), "{text}");
    let session = header.get("session").as_str().expect("header.session");
    assert!(session.starts_with("backup-"), "header labels the run: {session}");

    // Kinds arrive in the fixed order header → sample+ → span+ → summary.
    let kinds: Vec<&str> = docs.iter().map(|d| d.get("kind").as_str().expect("kind")).collect();
    let samples = kinds.iter().filter(|k| **k == "sample").count();
    let spans = kinds.iter().filter(|k| **k == "span").count();
    assert!(samples >= 1 && spans >= 1, "{kinds:?}");
    let order = [vec!["header"], vec!["sample"; samples], vec!["span"; spans], vec!["summary"]];
    assert_eq!(kinds, order.concat(), "kind order");

    // Interval deltas reconcile with the source corpus exactly (the final
    // partial tick loses nothing), and with the closing summary.
    let mut sampled_source = 0u64;
    for (i, sample) in docs[1..=samples].iter().enumerate() {
        assert_eq!(sample.get("seq").as_u64(), Some(i as u64), "contiguous sample sequence");
        let bytes = sample.get("counters").get("source_bytes").as_u64();
        sampled_source += bytes.expect("counters.source_bytes");
    }
    assert_eq!(sampled_source, src_bytes, "sampled deltas sum to the corpus size:\n{text}");
    assert_conserved(&docs);
    let summary = docs.last().unwrap();
    assert_eq!(summary.get("counters").get("source_bytes").as_u64(), Some(src_bytes));

    // A second backup into the same repository opens it first (rebuilding
    // the index from the manifests) before the run's telemetry starts;
    // samples and summary still cover one window.
    fs::write(root.join("src/late.doc"), b"late arrival ".repeat(5000)).unwrap();
    let (ok, out) = run(&[
        "backup",
        "--repo",
        repo.to_str().unwrap(),
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--metrics-interval-ms",
        "5",
        root.join("src").to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    let docs = json::parse_ndjson(&fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(docs[0].get("session").as_str(), Some("backup-00001"));
    assert_conserved(&docs);
    let summary = docs.last().unwrap();
    assert_eq!(summary.get("counters").get("source_bytes").as_u64(), Some(src_bytes + 65_000));

    let _ = fs::remove_dir_all(&root);
}

/// Every metric is conserved: per counter, per application's hits and
/// misses, per stage's count and time, the samples sum to the summary.
fn assert_conserved(docs: &[json::Value]) {
    let samples: Vec<_> =
        docs.iter().filter(|d| d.get("kind").as_str() == Some("sample")).collect();
    let summary = docs.last().unwrap();
    let sum = |path: &[&str]| -> u64 {
        let at = |d: &json::Value| path.iter().fold(d, |v, key| v.get(key)).as_u64().unwrap_or(0);
        assert_eq!(samples.iter().map(|s| at(s)).sum::<u64>(), at(summary), "{path:?}");
        at(summary)
    };
    for counter in summary.get("counters").as_obj().expect("counters").keys() {
        sum(&["counters", counter]);
    }
    for app in summary.get("apps").as_obj().expect("apps").keys() {
        sum(&["apps", app, "hits"]);
        sum(&["apps", app, "misses"]);
    }
    for stage in Stage::ALL {
        sum(&["stages", stage.name(), "count"]);
        sum(&["stages", stage.name(), "total_ns"]);
    }
    assert!(sum(&["counters", "source_bytes"]) > 0);
}

/// A `--metrics` file that cannot be created fails the command before the
/// backup runs: nothing is committed.
#[test]
fn a_bad_metrics_path_fails_before_the_backup() {
    let root = std::env::temp_dir().join(format!("aabackup-badmetrics-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("src")).unwrap();
    fs::write(root.join("src/report.doc"), b"lorem ipsum ".repeat(2000)).unwrap();
    let repo = root.join("repo");
    let (ok, out) = run(&[
        "backup",
        "--repo",
        repo.to_str().unwrap(),
        "--metrics",
        root.join("missing/dir/m.ndjson").to_str().unwrap(),
        root.join("src").to_str().unwrap(),
    ]);
    assert!(!ok, "{out}");
    assert!(out.contains("write metrics"), "{out}");
    let (ok, out) = run(&["sessions", "--repo", repo.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("no sessions"), "{out}");

    let _ = fs::remove_dir_all(&root);
}

/// One `--stats --metrics` run: the table `--stats` prints and the summary
/// line `--metrics` writes are renderings of the same snapshot.
#[test]
fn stats_table_and_document_summary_agree() {
    let root = std::env::temp_dir().join(format!("aabackup-obs-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("src")).unwrap();
    fs::create_dir_all(root.join("repo")).unwrap();

    // A dynamic doc (CDC), a static-ish payload (SC via extension), a
    // compressed photo (WFC) and a tiny note (size-filter bypass). All
    // contents are distinct so no tiny file is carried within the session.
    fs::write(root.join("src/report.doc"), b"lorem ipsum ".repeat(6000)).unwrap();
    fs::write(
        root.join("src/image.iso"),
        (0..120_000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect::<Vec<u8>>(),
    )
    .unwrap();
    fs::write(root.join("src/photo.jpg"), vec![9u8; 30_000]).unwrap();
    fs::write(root.join("src/note.txt"), b"tiny note").unwrap();

    let repo = root.join("repo");
    let metrics_path = root.join("metrics.ndjson");
    let (ok, out) = run(&[
        "backup",
        "--repo",
        repo.to_str().unwrap(),
        "--workers",
        "4",
        "--stats",
        "--metrics",
        metrics_path.to_str().unwrap(),
        root.join("src").to_str().unwrap(),
    ]);
    assert!(ok, "{out}");

    let (dup, chunks_total, files_tiny) = parse_summary(&out);

    // The summary line closes the document and carries every stage key.
    let docs = json::parse_ndjson(&fs::read_to_string(&metrics_path).unwrap())
        .expect("metrics NDJSON parses");
    let doc = docs.last().unwrap();
    assert_eq!(doc.get("kind").as_str(), Some("summary"));
    let stages = doc.get("stages").as_obj().expect("stages object");
    for stage in Stage::ALL {
        let entry = stages.get(stage.name()).unwrap_or_else(|| panic!("stage {}", stage.name()));
        assert!(entry.get("count").as_u64().is_some(), "{}", stage.name());
    }
    // Work actually flowed through the pipeline stages, and the table the
    // same run printed shows the summary's counts.
    for stage in [Stage::Chunk, Stage::Hash, Stage::Index, Stage::Upload] {
        let count = stages[stage.name()].get("count").as_u64().unwrap();
        assert!(count > 0, "stage {} recorded nothing", stage.name());
        let row: Vec<&str> = out
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|words| words.first() == Some(&stage.name()))
            .unwrap_or_else(|| panic!("no table row for {}:\n{out}", stage.name()));
        assert_eq!(row[1], count.to_string(), "table count for {}:\n{out}", stage.name());
    }

    // Per-AppType hit/miss counts reconcile with the session summary:
    // every non-tiny chunk does exactly one partition lookup, and in a
    // first session every index hit is a duplicate chunk (tiny files
    // bypass the index entirely).
    let apps = doc.get("apps").as_obj().expect("apps object");
    let mut hits = 0u64;
    let mut misses = 0u64;
    for app in apps.values() {
        hits += app.get("hits").as_u64().unwrap();
        misses += app.get("misses").as_u64().unwrap();
    }
    assert_eq!(hits + misses, chunks_total - files_tiny, "{out}");
    assert_eq!(hits, dup, "{out}");

    // Span lines: every one is an object with the chrome-trace keys, and
    // the session-level span is among them.
    let spans: Vec<_> = docs.iter().filter(|d| d.get("kind").as_str() == Some("span")).collect();
    for ev in &spans {
        let obj = ev.as_obj().expect("span object");
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(obj.contains_key(key), "span missing {key}: {ev:?}");
        }
        assert_eq!(ev.get("ph").as_str(), Some("X"), "{ev:?}");
    }
    assert!(spans.iter().any(|ev| ev.get("name").as_str() == Some("session")), "no session span");

    // The flags this document replaced are unknown arguments now.
    for gone in ["--stats-json", "--trace"] {
        let (ok, out) = run(&[
            "backup",
            "--repo",
            repo.to_str().unwrap(),
            gone,
            root.join("gone").to_str().unwrap(),
            root.join("src").to_str().unwrap(),
        ]);
        assert!(!ok && out.contains("usage:"), "{gone} must be a usage error:\n{out}");
        assert!(!root.join("gone").exists(), "{gone} wrote a file");
    }

    let _ = fs::remove_dir_all(&root);
}

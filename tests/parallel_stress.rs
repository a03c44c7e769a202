//! Concurrency stress: colliding chunks racing through the pipeline.
//!
//! Two files of the same application type share identical content, so
//! every chunk of the second file collides with a chunk of the first.
//! With eight workers the chunk+hash stage races both files, and the
//! per-app dedup shard must still make exactly one store decision per
//! unique fingerprint. A lost-update (insert racing lookup) or a
//! double-append would inflate `stored_bytes`; run the session in a loop
//! so a rare interleaving still has many chances to show up.
//!
//! `EXPERIMENTS.md` documents the ThreadSanitizer invocation that runs
//! this same binary under TSan.

use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aa_dedupe::filetype::{MemoryFile, SourceFile};

const ITERATIONS: usize = 16;

fn shared_content(len: usize) -> Vec<u8> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

fn run_once(files: &[MemoryFile], pipeline: PipelineConfig) -> (u64, u64, u64) {
    let config = AaDedupeConfig { pipeline, ..AaDedupeConfig::default() };
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    let r = engine.backup_session(&sources).expect("backup");
    (r.stored_bytes, r.chunks_total, r.chunks_duplicate)
}

#[test]
fn colliding_chunks_never_double_count_stored_bytes() {
    // Two 64 KiB .doc files (static 8 KiB chunking, same AppType ⇒ same
    // index partition and container stream) with identical bytes: the
    // second file must dedup completely against the first.
    let content = shared_content(64 * 1024);
    let files = vec![
        MemoryFile::new("stress/a.doc".to_string(), content.clone()),
        MemoryFile::new("stress/b.doc".to_string(), content),
    ];

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    let (stored, total, duplicate) = serial;
    assert_eq!(stored, 64 * 1024, "serial: second file must fully dedup");
    assert_eq!(duplicate * 2, total, "serial: exactly half the chunks are duplicates");

    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(
            parallel, serial,
            "iteration {iteration}: (stored, total, duplicate) diverged under workers=8"
        );
    }
}

#[test]
fn many_identical_files_across_apps_stay_consistent() {
    // Harder interleaving: ten file pairs across several app types, each
    // pair internally identical. Streams race each other end-to-end but
    // per-pair dedup totals must match the serial run every iteration.
    let exts = ["doc", "pdf", "txt", "mp3", "zip"];
    let mut files = Vec::new();
    for (i, ext) in exts.iter().enumerate() {
        let content = shared_content(48 * 1024 + i * 4096);
        files.push(MemoryFile::new(format!("m/{i}a.{ext}"), content.clone()));
        files.push(MemoryFile::new(format!("m/{i}b.{ext}"), content));
    }

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(parallel, serial, "iteration {iteration}: dedup counters diverged");
    }
}

#[test]
fn one_shard_taking_the_whole_job_list_stays_consistent() {
    // One application owns every big file, so a single shard takes the
    // whole job list through one four-slot channel. Files differ in size
    // (eight workers finish out of order and block on the four slots) and
    // are prefixes of one another (every chunk of a shorter file collides
    // with a longer one). With no other shard making progress, a stall in the
    // cursor, the reorder buffer or the channel hangs the test, and a lost
    // or repeated file shows in the counters.
    let content = shared_content(160 * 1024);
    let files: Vec<MemoryFile> = (0..24)
        .map(|i| {
            let len = 16 * 1024 * (1 + (i * 7) % 10);
            MemoryFile::new(format!("one/{i:02}.pdf"), content[..len].to_vec())
        })
        .collect();

    let serial = run_once(&files, PipelineConfig::with_workers(1));
    assert_eq!(serial.0, 160 * 1024, "serial: only the longest prefix is stored");
    for iteration in 0..ITERATIONS {
        let parallel = run_once(&files, PipelineConfig::with_workers(8));
        assert_eq!(parallel, serial, "iteration {iteration}: dedup counters diverged");
    }
}

//! Differential test: the parallel pipeline must be observationally
//! identical to the serial engine.
//!
//! For a fixed file ordering, `workers = k` must produce — bit for bit —
//! the same cloud state as `workers = 1` on the serial path: the same
//! restored files, the same `SessionReport` counters, the same cloud
//! objects (containers, manifests, index snapshots) under the same keys,
//! and the same per-partition index statistics. This is the determinism
//! contract documented in `DESIGN.md`; any scheduling-dependent divergence
//! in chunking, dedup decisions, container packing or upload order shows
//! up here as a hard failure.
//!
//! The matrix runs 2, 4 and 8 workers and the engine's own default
//! (`PipelineConfig::default()`: the machine's cores, at most 8), each
//! against one worker. Set `AA_DIFF_WORKERS=2,4,default` (comma-separated
//! worker counts or `default`; one worker is the serial schedule itself)
//! to restrict the worker matrix and
//! `AA_DIFF_CHUNKER=rabin` (or `fastcdc`, comma-separated) to restrict the
//! CDC boundary-algorithm dimension — used by CI to split the sweep across
//! jobs. The contract is algorithm-independent: for
//! every algorithm, parallel output must equal that algorithm's serial
//! output.

use std::collections::{BTreeMap, HashMap};

use aa_dedupe::chunking::CdcAlgorithm;
use aa_dedupe::cloud::CloudSim;
use aa_dedupe::core::{AaDedupe, AaDedupeConfig, BackupScheme, PipelineConfig};
use aa_dedupe::filetype::{MemoryFile, SourceFile};
use aa_dedupe::index::IndexStats;
use aa_dedupe::metrics::SessionReport;
use aa_dedupe::workload::{DatasetSpec, Generator, Snapshot};

const SEEDS: [u64; 3] = [11, 42, 1337];
const SESSIONS: usize = 2;

/// The pipelines compared with the serial schedule, each with its label.
fn worker_matrix() -> Vec<(String, PipelineConfig)> {
    let spec = std::env::var("AA_DIFF_WORKERS").unwrap_or_else(|_| "2,4,8,default".into());
    spec.split(',')
        .map(|entry| match entry.trim() {
            "default" => {
                let pipeline = PipelineConfig::default();
                (format!("default ({})", pipeline.workers), pipeline)
            }
            n => {
                let workers = n.parse().expect("AA_DIFF_WORKERS entries: integers or `default`");
                (n.to_owned(), PipelineConfig::with_workers(workers))
            }
        })
        .collect()
}

fn chunker_matrix() -> Vec<CdcAlgorithm> {
    match std::env::var("AA_DIFF_CHUNKER") {
        Ok(s) => s
            .split(',')
            .map(|a| {
                CdcAlgorithm::parse(a.trim()).expect("AA_DIFF_CHUNKER entries: rabin|fastcdc")
            })
            .collect(),
        Err(_) => CdcAlgorithm::ALL.to_vec(),
    }
}

/// Everything observable about an engine after a run, in comparable form.
struct Observation {
    reports: Vec<SessionReport>,
    /// Restored (path, bytes) per session, in restore order.
    restores: Vec<Vec<(String, Vec<u8>)>>,
    /// Full cloud object namespace: key → bytes.
    objects: BTreeMap<String, Vec<u8>>,
    /// Per-partition index statistics, keyed by app tag.
    partition_stats: BTreeMap<u8, IndexStats>,
}

fn observe(engine: &AaDedupe, reports: Vec<SessionReport>, sessions: usize) -> Observation {
    let restores = (0..sessions)
        .map(|s| {
            engine
                .restore_session(s)
                .unwrap_or_else(|e| panic!("restore of session {s} failed: {e}"))
                .into_iter()
                .map(|f| (f.path, f.data))
                .collect()
        })
        .collect();
    let store = engine.cloud().store();
    let objects = store
        .list("")
        .into_iter()
        .map(|key| {
            let bytes =
                store.get(&key).unwrap().unwrap_or_else(|| panic!("listed key {key} missing"));
            (key, bytes.to_vec())
        })
        .collect();
    let partition_stats =
        engine.index().partitions().map(|(app, p)| (app.tag(), p.stats())).collect();
    Observation { reports, restores, objects, partition_stats }
}

fn run_sessions(config: AaDedupeConfig, sessions: &[Vec<&dyn SourceFile>]) -> Observation {
    let mut engine = AaDedupe::with_config(CloudSim::with_paper_defaults(), config);
    let reports = sessions
        .iter()
        .map(|sources| engine.backup_session(sources).expect("backup"))
        .collect();
    observe(&engine, reports, sessions.len())
}

/// One worker is the serial schedule — the oracle; more are the pipeline.
fn one_worker() -> PipelineConfig {
    PipelineConfig::with_workers(1)
}

fn config(pipeline: PipelineConfig, algorithm: CdcAlgorithm) -> AaDedupeConfig {
    let mut config = AaDedupeConfig { pipeline, ..AaDedupeConfig::default() };
    config.cdc.algorithm = algorithm;
    config
}

/// Asserts every deterministic observable matches between two runs.
/// `dedup_cpu` and `transfer_time` are wall-clock measurements and are
/// deliberately excluded; everything else must be bit-identical.
fn assert_equivalent(serial: &Observation, parallel: &Observation, label: &str) {
    assert_eq!(serial.reports.len(), parallel.reports.len(), "{label}: session count");
    for (s, p) in serial.reports.iter().zip(&parallel.reports) {
        let session = s.session;
        assert_eq!(s.logical_bytes, p.logical_bytes, "{label} s{session}: logical_bytes");
        assert_eq!(s.stored_bytes, p.stored_bytes, "{label} s{session}: stored_bytes");
        assert_eq!(
            s.transferred_bytes, p.transferred_bytes,
            "{label} s{session}: transferred_bytes"
        );
        assert_eq!(s.put_requests, p.put_requests, "{label} s{session}: put_requests");
        assert_eq!(s.chunks_total, p.chunks_total, "{label} s{session}: chunks_total");
        assert_eq!(
            s.chunks_duplicate, p.chunks_duplicate,
            "{label} s{session}: chunks_duplicate"
        );
        assert_eq!(s.files_total, p.files_total, "{label} s{session}: files_total");
        assert_eq!(s.files_tiny, p.files_tiny, "{label} s{session}: files_tiny");
        assert_eq!(
            s.index_disk_reads, p.index_disk_reads,
            "{label} s{session}: index_disk_reads"
        );
    }
    for (session, (s, p)) in serial.restores.iter().zip(&parallel.restores).enumerate() {
        assert_eq!(s.len(), p.len(), "{label} s{session}: restored file count");
        for ((sp, sd), (pp, pd)) in s.iter().zip(p) {
            assert_eq!(sp, pp, "{label} s{session}: restore order/path");
            assert_eq!(sd, pd, "{label} s{session}: bytes of {sp}");
        }
    }
    let serial_keys: Vec<&String> = serial.objects.keys().collect();
    let parallel_keys: Vec<&String> = parallel.objects.keys().collect();
    assert_eq!(serial_keys, parallel_keys, "{label}: cloud key set");
    for (key, bytes) in &serial.objects {
        assert_eq!(bytes, &parallel.objects[key], "{label}: cloud object {key}");
    }
    assert_eq!(
        serial.partition_stats, parallel.partition_stats,
        "{label}: per-partition index stats"
    );
}

#[test]
fn parallel_matches_serial_across_seeds_workers_and_chunkers() {
    for algorithm in chunker_matrix() {
        for seed in SEEDS {
            let mut generator = Generator::new(DatasetSpec::tiny_test(), seed);
            let snaps: Vec<Snapshot> = (0..SESSIONS).map(|w| generator.snapshot(w)).collect();
            let sessions: Vec<Vec<&dyn SourceFile>> =
                snaps.iter().map(|s| s.as_sources()).collect();
            let serial = run_sessions(config(one_worker(), algorithm), &sessions);
            for (workers, pipeline) in worker_matrix() {
                let parallel = run_sessions(config(pipeline, algorithm), &sessions);
                assert_equivalent(
                    &serial,
                    &parallel,
                    &format!("chunker={algorithm} seed={seed} workers={workers}"),
                );
            }
        }
    }
}

#[test]
fn parallel_matches_serial_on_tiny_file_heavy_set() {
    // The size filter bypasses dedup for files < 10 KiB; those are packed
    // by the session thread between the big files the workers chunk, so
    // the tiny path needs its own differential coverage: all-tiny, boundary
    // sizes, and a mix where tiny and big files interleave in the input
    // ordering.
    let sizes: [usize; 9] = [0, 1, 512, 4 * 1024, 10 * 1024 - 1, 10 * 1024, 20 * 1024, 37, 9999];
    let exts = ["txt", "doc", "pdf", "mp3", "c", "html", "jpg", "avi", "zip"];
    let files: Vec<MemoryFile> = sizes
        .iter()
        .zip(exts)
        .enumerate()
        .map(|(i, (&len, ext))| {
            let data: Vec<u8> = (0..len).map(|j| ((i * 131 + j * 7) % 251) as u8).collect();
            MemoryFile::new(format!("tiny/f{i}.{ext}"), data)
        })
        .collect();
    let sources: Vec<&dyn SourceFile> = files.iter().map(|f| f as &dyn SourceFile).collect();
    // Two identical sessions: the second exercises the change-token
    // carry-forward for tiny files and full-duplicate paths for big ones.
    let sessions = vec![sources.clone(), sources];
    for algorithm in chunker_matrix() {
        let serial = run_sessions(config(one_worker(), algorithm), &sessions);
        for (workers, pipeline) in worker_matrix() {
            let parallel = run_sessions(config(pipeline, algorithm), &sessions);
            assert_equivalent(
                &serial,
                &parallel,
                &format!("tiny-set chunker={algorithm} workers={workers}"),
            );
        }
    }
}

#[test]
fn restores_are_bit_exact_against_source_data() {
    // The matrix test proves parallel ≡ serial; this anchors both to the
    // ground truth so an identical-but-wrong pair cannot slip through.
    let mut generator = Generator::new(DatasetSpec::tiny_test(), SEEDS[0]);
    let snap = generator.snapshot(0);
    for algorithm in chunker_matrix() {
        for (workers, pipeline) in worker_matrix() {
            let mut engine = AaDedupe::with_config(
                CloudSim::with_paper_defaults(),
                config(pipeline, algorithm),
            );
            engine.backup_session(&snap.as_sources()).expect("backup");
            let restored = engine.restore_session(0).expect("restore");
            let by_path: HashMap<&str, &[u8]> =
                restored.iter().map(|f| (f.path.as_str(), f.data.as_slice())).collect();
            assert_eq!(restored.len(), snap.file_count(), "chunker={algorithm} workers={workers}");
            for f in &snap.files {
                assert_eq!(
                    by_path[f.path.as_str()],
                    f.materialize().as_slice(),
                    "chunker={algorithm} workers={workers}: {}",
                    f.path
                );
            }
        }
    }
}

/// `n` pseudo-random bytes from `seed` (xorshift64).
fn noise(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn parallel_matches_serial_across_hash_batch_boundaries() {
    // Big files are chunked and hashed in batches of consecutive files that
    // reach one container (here 128 KiB); tiny files are skipped by the
    // planner and packed where they fall. The list straddles batches: tiny
    // files between big ones; SC (MD5), CDC (SHA-1) and SC again inside one
    // batch; SC sizes off the 8 KiB grid; a file larger than a container;
    // a batch of only WFC (Rabin-96) files; an SC file that repeats part of
    // its batch-mate; and a short last batch.
    let container_size = 128 << 10;
    let a = noise(50_001, 1);
    let mut b = a[..16 << 10].to_vec();
    b.extend(noise(30_000 - b.len(), 2));
    let files = |session: u64| -> Vec<MemoryFile> {
        let edited = |mut data: Vec<u8>| {
            if session > 0 {
                data[9_000..9_100].copy_from_slice(&noise(100, 77));
            }
            data
        };
        vec![
            MemoryFile::new("t0.txt", noise(100, 10 + session)),
            MemoryFile::new("a.pdf", a.clone()),
            MemoryFile::new("t1.doc", noise(5_000, 11)),
            MemoryFile::new("b.pdf", edited(b.clone())),
            MemoryFile::new("c.doc", noise(40_000, 3)),
            MemoryFile::new("d.exe", noise(20_483, 4)),
            MemoryFile::new("e.vmdk", edited(noise(300_007, 5))),
            MemoryFile::new("t2.pdf", noise(9_999, 12)),
            MemoryFile::new("m1.mp3", noise(60_000, 6)),
            MemoryFile::new("m2.avi", edited(noise(50_000, 7))),
            MemoryFile::new("m3.jpg", noise(40_000, 8)),
            MemoryFile::new("f.pdf", noise(3 * 8192, 9)),
            MemoryFile::new("g.exe", noise(12_345 + session as usize, 13)),
            MemoryFile::new("t3.exe", noise(1_000, 14)),
            MemoryFile::new("h.doc", edited(noise(11_000, 15))),
        ]
    };
    let snaps = [files(0), files(1)];
    let sessions: Vec<Vec<&dyn SourceFile>> = snaps
        .iter()
        .map(|files| files.iter().map(|f| f as &dyn SourceFile).collect())
        .collect();
    for algorithm in chunker_matrix() {
        let config = |pipeline| AaDedupeConfig { container_size, ..config(pipeline, algorithm) };
        let serial = run_sessions(config(one_worker()), &sessions);
        for (restored, files) in serial.restores.iter().zip(&snaps) {
            let source: Vec<(String, Vec<u8>)> =
                files.iter().map(|f| (f.path.clone(), f.data.clone())).collect();
            assert!(restored == &source, "chunker={algorithm}: serial restore differs from source");
        }
        for (workers, pipeline) in worker_matrix() {
            let parallel = run_sessions(config(pipeline), &sessions);
            assert_equivalent(
                &serial,
                &parallel,
                &format!("batch-boundary chunker={algorithm} workers={workers}"),
            );
        }
    }
}

//! The traced run: per-layer metrics from the layer replay, the engine's
//! own recorder, a two-worker engine, the restore oracles and vacuum.
//!
//! Everything here runs after (and apart from) the end-to-end phase: a
//! second engine interleaved between serial iterations drags their medians
//! down and widens their spread.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use aadedupe_chunking::{CdcAlgorithm, Chunker, ChunkingMethod, ContentChunker};
use aadedupe_cloud::{FsObjectStore, ObjectBackend};
use aadedupe_core::{
    restore_session, restore_session_pipelined, AaDedupeConfig, Manifest, PipelineConfig,
    RestoreOptions, RetryPolicy, VacuumOptions,
};
use aadedupe_obs::{Recorder, Stage};

use crate::e2e::{self, Ops, Repository};
use crate::replay::{Replay, SessionCounts, BACKUP_PASSES, RESTORE_PASSES};
use crate::run::{Metric, Outcome};
use crate::schema::LAYERS;
use crate::stats::{median, percentile};
use crate::workloads::{prepare, Corpus, Scratch, Workload};
use crate::RunArgs;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// Shares of `--seconds` each repeated phase may use.
const REFERENCE_SHARE: f64 = 0.20;
const REPLAY_SHARE: f64 = 0.40;
const RECORDER_SHARE: f64 = 0.10;
const PARALLEL_SHARE: f64 = 0.15;

/// `restore_file` calls behind `restore.file_p50_ms`, `_p95_ms`, `_p99_ms`.
const TAIL_FILE_RESTORES: usize = 400;

/// Repeats `body` until `budget_s` is spent and it ran `min` times.
fn repeat<T>(
    budget_s: f64,
    min: usize,
    mut body: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < budget_s {
        out.push(body(out.len())?);
    }
    Ok(out)
}

fn rate(units: u64, seconds: f64, per: f64) -> f64 {
    if units == 0 || seconds <= 0.0 {
        0.0
    } else {
        units as f64 / per / seconds
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One replay's contribution: metric name → value.
type Numbers = BTreeMap<&'static str, f64>;

struct ReplayRun {
    numbers: Numbers,
    /// Seconds of the whole replay (run span).
    total_s: f64,
    spans: usize,
}

/// What every replay of a run is checked against: the serial engine's
/// repository and the manifests it wrote.
#[derive(Clone, Copy)]
struct Reference<'a> {
    w: &'a Workload,
    corpus: &'a Corpus,
    scratch: &'a Scratch,
    repository: &'a Repository,
    manifests: &'a [Manifest],
}

/// Runs one full replay (every backup session, then the restore of the
/// newest) and derives the per-layer numbers from its passes. The first
/// replay of a run passes `namespace`: it is compared with the serial
/// engine's cloud, and its layer state feeds the one-off probes.
fn replay_once(
    reference: &Reference<'_>,
    namespace: Option<(usize, u64)>,
    per_file_spans: bool,
    trace_out: Option<&std::path::Path>,
    ops: &mut Ops,
) -> Result<ReplayRun, String> {
    let Reference {
        w,
        corpus,
        scratch,
        repository,
        manifests,
    } = *reference;
    let dir = scratch
        .fresh_dir("replay-index")
        .map_err(|e| format!("scratch: {e}"))?;
    let mut replay = Replay::new(w, corpus, w.config(&dir), manifests, per_file_spans);
    for week in 0..w.weeks {
        let counts = replay.backup_session(week)?;
        let report = &repository.reports[week];
        let theirs = SessionCounts {
            chunks_total: report.chunks_total,
            chunks_duplicate: report.chunks_duplicate,
            stored_bytes: report.stored_bytes,
            containers: report.put_requests.saturating_sub(2),
            index_disk_reads: report.index_disk_reads,
            transferred_bytes: report.transferred_bytes,
            put_requests: report.put_requests,
        };
        ops.check(counts == theirs, || {
            format!(
                "{} session {week}: replay counted {counts:?}, the engine reported {theirs:?}",
                w.name
            )
        });
    }
    replay.restore_session(w.weeks - 1)?;
    let total_s = replay.finish();
    ops.absorb(replay.ops);

    if let Some(theirs) = namespace {
        ops.check(e2e::namespace_fingerprint(&replay.cloud)? == theirs, || {
            format!(
                "{}: the replay's cloud namespace differs from the serial engine's",
                w.name
            )
        });
    }

    let p = |name: &str| replay.passes.get(name).copied().unwrap_or_default();
    let mib_s = |name: &str| rate(p(name).units, p(name).all_s, MIB);
    let ms = |names: &[&str]| replay.timed_sum(names) * 1e3;
    let stats = replay.index().stats();
    let negative = stats.lookups - stats.hits;
    let store = replay.store_stats();
    let footprint = replay.index().ram_footprint();
    let last_files = corpus.sessions[w.weeks - 1].len() as u64;

    let mut n = Numbers::new();
    n.insert(
        "filetype.classify_mops_s",
        rate(
            p("filetype.classify").units,
            p("filetype.classify").all_s,
            1e6,
        ),
    );
    n.insert("chunking.sc_mib_s", mib_s("chunking.sc"));
    n.insert("chunking.cdc_rabin_mib_s", mib_s("chunking.cdc"));
    n.insert(
        "chunking.chunks_per_mib",
        rate(replay.big_chunks, replay.big_bytes as f64 / MIB, 1.0),
    );
    n.insert(
        "chunking.busy_ms",
        ms(&["chunking.wfc", "chunking.sc", "chunking.cdc"]),
    );
    n.insert("hashing.rabin96_mib_s", mib_s("hashing.rabin96"));
    n.insert("hashing.md5_mib_s", mib_s("hashing.md5"));
    n.insert("hashing.sha1_mib_s", mib_s("hashing.sha1"));
    n.insert(
        "hashing.busy_ms",
        ms(&["hashing.rabin96", "hashing.md5", "hashing.sha1"]),
    );
    n.insert("index.busy_ms", ms(&["index.lookup_insert"]));
    n.insert(
        "index.lookup_kops_s",
        rate(
            p("index.lookup_insert").units,
            p("index.lookup_insert").all_s,
            1e3,
        ),
    );
    n.insert("index.hit_share", share(stats.hits, stats.lookups));
    n.insert(
        "index.disk_probes_per_lookup",
        share(stats.disk_reads, stats.lookups),
    );
    n.insert(
        "index.filter_reject_share",
        share(stats.filter_hits, negative),
    );
    n.insert(
        "index.filter_false_positive_share",
        share(stats.filter_false_positives, negative),
    );
    n.insert("index.ram_mib", footprint.approx_bytes as f64 / MIB);
    n.insert(
        "index.snapshot_encode_mib_s",
        mib_s("index.snapshot_encode"),
    );
    n.insert(
        "index.snapshot_bytes_per_entry",
        share(replay.last_snapshot_bytes, replay.index().len() as u64),
    );
    n.insert("container.append_mib_s", mib_s("container.append"));
    n.insert("container.seal_mib_s", mib_s("container.seal"));
    n.insert("container.parse_mib_s", mib_s("container.parse"));
    n.insert(
        "container.fill_ratio",
        share(store.data_bytes, replay.sealed_bytes),
    );
    n.insert(
        "container.oversized_share",
        share(store.oversized, store.sealed),
    );
    n.insert(
        "container.busy_ms",
        ms(&["container.append", "container.seal"]),
    );
    n.insert("cloud.put_mib_s", mib_s("cloud.put"));
    n.insert("cloud.get_mib_s", mib_s("cloud.get"));
    n.insert("cloud.wan_model_s", replay.wan_s);
    n.insert("recipe.encode_mib_s", mib_s("recipe.encode"));
    n.insert("recipe.decode_mib_s", mib_s("recipe.decode"));
    n.insert(
        "recipe.bytes_per_file",
        share(replay.last_manifest_bytes, last_files),
    );
    n.insert("engine.layer_sum_ms", ms(&BACKUP_PASSES));
    n.insert("restore.fetch_ms", ms(&["cloud.get"]));
    n.insert("restore.parse_ms", ms(&["container.parse"]));
    n.insert("restore.verify_ms", ms(&["restore.verify"]));
    n.insert("restore.assemble_ms", ms(&["restore.assemble"]));
    n.insert("restore.layer_sum_ms", ms(&RESTORE_PASSES));

    // Once, on the first replay: the probes that need its layer state.
    if namespace.is_some() {
        let started = Instant::now();
        replay
            .index()
            .persist()
            .map_err(|e| format!("index persist: {e}"))?;
        n.insert("index.persist_ms", started.elapsed().as_secs_f64() * 1e3);
        let (put, get) = fs_store_probe(&replay, scratch)?;
        n.insert("cloud.fs_put_mib_s", put);
        n.insert("cloud.fs_get_mib_s", get);
    }

    let spans = replay.tracer.len();
    if let Some(path) = trace_out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        replay
            .tracer
            .write_ndjson(
                w.name,
                |s, i| corpus.sessions[s as usize][i as usize].path.as_str(),
                &mut out,
            )
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "  trace: {spans} spans written to {}; per pass (self = not under a per-file span):",
            path.display()
        );
        for (name, (total, own)) in replay.tracer.pass_times() {
            eprintln!(
                "    {name:<24} total {:>10.3} ms  self {:>9.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    drop(replay);
    scratch.discard(&dir);
    Ok(ReplayRun {
        numbers: n,
        total_s,
        spans,
    })
}

/// Puts and gets the replay's containers through `FsObjectStore` in a
/// scratch directory: the sandbox's disk, not a device.
fn fs_store_probe(replay: &Replay<'_>, scratch: &Scratch) -> Result<(f64, f64), String> {
    let dir = scratch
        .fresh_dir("fs-store")
        .map_err(|e| format!("scratch: {e}"))?;
    let fs = FsObjectStore::open(&dir).map_err(|e| format!("fs store: {e}"))?;
    let memory = replay.cloud.store();
    let mut objects = Vec::new();
    for key in memory.list("") {
        if key.contains("/containers/") {
            let bytes = memory
                .get(&key)
                .map_err(|e| e.to_string())?
                .unwrap_or_default();
            objects.push((key, bytes));
        }
    }
    let total: u64 = objects.iter().map(|(_, b)| b.len() as u64).sum();
    let keys: Vec<String> = objects.iter().map(|(k, _)| k.clone()).collect();
    let started = Instant::now();
    for (key, bytes) in objects {
        fs.put(&key, bytes).map_err(|e| e.to_string())?;
    }
    let put_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut read = 0u64;
    for key in &keys {
        read += fs
            .get(key)
            .map_err(|e| e.to_string())?
            .map_or(0, |b| b.len() as u64);
    }
    let get_s = started.elapsed().as_secs_f64();
    scratch.discard(&dir);
    if read != total {
        return Err(format!("fs store returned {read} bytes of {total}"));
    }
    Ok((rate(total, put_s, MIB), rate(total, get_s, MIB)))
}

/// The CDC-routed files of the newest session through FastCDC instead of
/// Rabin: same bytes, the alternate algorithm.
fn fastcdc_probe(w: &Workload, corpus: &Corpus, config: &AaDedupeConfig) -> f64 {
    let chunker = ContentChunker::new(config.cdc.with_algorithm(CdcAlgorithm::FastCdc));
    let routed: Vec<&[u8]> = corpus.sessions[w.weeks - 1]
        .iter()
        .filter(|f| {
            f.data.len() as u64 >= config.tiny_threshold
                && config.policy.for_app(f.app).0 == ChunkingMethod::Cdc
        })
        .map(|f| f.data.as_slice())
        .collect();
    let bytes: u64 = routed.iter().map(|d| d.len() as u64).sum();
    let started = Instant::now();
    let mut chunks = 0usize;
    for data in &routed {
        chunks += chunker.chunk(std::hint::black_box(data)).len();
    }
    std::hint::black_box(chunks);
    rate(bytes, started.elapsed().as_secs_f64(), MIB)
}

/// The engine with its own recorder on: in-situ stage totals over the
/// timed sessions, and what switching the recorder on costs.
fn recorder_run(
    w: &Workload,
    corpus: &Corpus,
    scratch: &Scratch,
    ops: &mut Ops,
) -> Result<(Numbers, f64), String> {
    let recorder = Recorder::shared();
    let rec = Arc::clone(&recorder);
    let repo = Repository::build(
        w,
        corpus,
        scratch,
        |config| config.recorder = Arc::clone(&recorder),
        |week| {
            if week == w.first_timed {
                rec.reset();
            }
        },
        ops,
    )
    .map_err(|e| format!("scratch: {e}"))?;
    let snapshot = recorder.snapshot();
    let ms = |stages: &[Stage]| {
        stages
            .iter()
            .map(|s| snapshot.stage_total(*s).as_secs_f64())
            .sum::<f64>()
            * 1e3
    };
    let mut n = Numbers::new();
    n.insert("engine.stage_chunk_ms", ms(&[Stage::Chunk]));
    n.insert("engine.stage_hash_ms", ms(&[Stage::Hash]));
    n.insert("engine.stage_index_ms", ms(&[Stage::Index]));
    n.insert(
        "engine.stage_container_ms",
        ms(&[
            Stage::ContainerAppend,
            Stage::ContainerSeal,
            Stage::TinyPack,
        ]),
    );
    n.insert("engine.stage_upload_ms", ms(&[Stage::Upload]));
    let wall: f64 = repo.session_wall_s[w.first_timed..].iter().sum();
    repo.discard(scratch);
    Ok((n, wall))
}

/// What one two-worker engine run measured over the timed sessions.
struct Parallel {
    backup_wall_s: f64,
    cpu_s: f64,
}

fn parallel_run(
    w: &Workload,
    corpus: &Corpus,
    scratch: &Scratch,
    serial_namespace: Option<(usize, u64)>,
    ops: &mut Ops,
) -> Result<Parallel, String> {
    let repo = Repository::build(
        w,
        corpus,
        scratch,
        |config| config.pipeline = PipelineConfig::with_workers(2),
        |_| {},
        ops,
    )
    .map_err(|e| format!("scratch: {e}"))?;
    if let Some(serial) = serial_namespace {
        ops.check(e2e::namespace_fingerprint(&repo.cloud)? == serial, || {
            format!(
                "{}: a workers = 2 engine left a different cloud namespace than the serial one",
                w.name
            )
        });
    }
    let out = Parallel {
        backup_wall_s: repo.session_wall_s[w.first_timed..].iter().sum(),
        cpu_s: repo.backup_cpu_s,
    };
    repo.discard(scratch);
    Ok(out)
}

/// The traced run.
pub fn run_traced(args: &RunArgs, scratch: &Scratch) -> Result<Outcome, String> {
    let w = &args.workload;
    let io = |e: std::io::Error| format!("scratch: {e}");
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let corpus = prepare(w, args.seed);
    let last = w.weeks - 1;
    let mut ops = Ops::default();
    let mut numbers = Numbers::new();

    // Reference: the serial engine, untraced — the walls the layer sums
    // are compared with.
    let warm = e2e::iteration(w, &corpus, scratch, args.seed, 0).map_err(io)?;
    ops.absorb(warm.ops);
    let reference_runs = repeat(
        seconds * REFERENCE_SHARE,
        if args.smoke { 1 } else { 3 },
        |i| {
            let it = e2e::iteration(w, &corpus, scratch, args.seed, i as u64 + 1).map_err(io)?;
            ops.absorb(it.ops);
            Ok((it.backup_wall_s, it.restore_wall_s))
        },
    )?;
    let serial_backup_s = median(&reference_runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let serial_restore_s = median(&reference_runs.iter().map(|r| r.1).collect::<Vec<_>>());

    // One serial repository stays alive: its manifests place the replay's
    // chunks, its namespace is what the replay and the two-worker engine
    // must reproduce, and vacuum runs on it at the very end.
    let mut reference =
        Repository::build(w, &corpus, scratch, |_| {}, |_| {}, &mut ops).map_err(io)?;
    let serial_namespace = e2e::namespace_fingerprint(&reference.cloud)?;
    let scheme = reference.engine.config().scheme_key.clone();
    let mut expected = Vec::with_capacity(w.weeks);
    for week in 0..w.weeks {
        let key = Manifest::key(&scheme, week as u64);
        let bytes = reference
            .cloud
            .store()
            .get(&key)
            .map_err(|e| e.to_string())?;
        let bytes = bytes.ok_or_else(|| format!("the engine's {key} is missing"))?;
        expected.push(Manifest::decode(&bytes).map_err(|e| e.to_string())?);
    }
    let backed_up: u64 = (w.first_timed..w.weeks)
        .map(|s| corpus.logical_bytes(s))
        .sum();
    let restored_bytes = corpus.logical_bytes(last);

    // Refetches under the bounded container cache: GETs the engine's
    // restore issued per distinct container it needed.
    let distinct: HashSet<u64> = expected[last]
        .files
        .iter()
        .flat_map(|f| f.chunks.iter().map(|c| c.container))
        .collect();
    let gets_before = reference.cloud.store().stats().get_requests;
    reference.restore_and_compare(w, &corpus, last, &mut ops);
    let gets = reference.cloud.store().stats().get_requests - gets_before;
    numbers.insert(
        "restore.fetches_per_distinct_container",
        share(gets.saturating_sub(1), distinct.len() as u64),
    );

    // The replays: untraced ones give the numbers, traced ones the trace
    // file and the cost of recording a span per (file, pass).
    let trace_out = args.trace_out.clone().unwrap_or_else(|| {
        std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-{}.ndjson", w.name, args.seed))
    });
    let mut untraced: Vec<ReplayRun> = Vec::new();
    let mut traced: Vec<ReplayRun> = Vec::new();
    let min_replays = if args.smoke { 2 } else { 4 };
    let checked_against = Reference {
        w,
        corpus: &corpus,
        scratch,
        repository: &reference,
        manifests: &expected,
    };
    repeat(seconds * REPLAY_SHARE, min_replays, |i| {
        let per_file = i % 2 == 1;
        let run = replay_once(
            &checked_against,
            (i == 0).then_some(serial_namespace),
            per_file,
            (i == 1).then_some(trace_out.as_path()),
            &mut ops,
        )?;
        if per_file { &mut traced } else { &mut untraced }.push(run);
        Ok(())
    })?;
    let names: HashSet<&'static str> = untraced
        .iter()
        .flat_map(|r| r.numbers.keys().copied())
        .collect();
    for name in names {
        let samples: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.numbers.get(name).copied())
            .collect();
        numbers.insert(name, median(&samples));
    }
    let untraced_s = median(&untraced.iter().map(|r| r.total_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|r| r.total_s).collect::<Vec<_>>());
    numbers.insert("trace.spans", traced.first().map_or(0, |r| r.spans) as f64);
    numbers.insert("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    numbers.insert(
        "chunking.cdc_fastcdc_mib_s",
        fastcdc_probe(w, &corpus, reference.engine.config()),
    );

    // The gap: what the engine spends between its layers.
    let layer_sum_ms = numbers.get("engine.layer_sum_ms").copied().unwrap_or(0.0);
    let unattributed_ms = serial_backup_s * 1e3 - layer_sum_ms;
    numbers.insert("engine.unattributed_ms", unattributed_ms);
    numbers.insert(
        "engine.unattributed_share",
        unattributed_ms / (serial_backup_s * 1e3),
    );
    let restore_sum_ms = numbers.remove("restore.layer_sum_ms").unwrap_or(0.0);
    numbers.insert(
        "restore.unattributed_ms",
        serial_restore_s * 1e3 - restore_sum_ms,
    );

    // The engine's own recorder, switched on.
    let recorded = repeat(seconds * RECORDER_SHARE, 1, |_| {
        recorder_run(w, &corpus, scratch, &mut ops)
    })?;
    if let Some((stages, _)) = recorded.last() {
        numbers.extend(stages.iter().map(|(k, v)| (*k, *v)));
    }
    let recorded_s = median(&recorded.iter().map(|r| r.1).collect::<Vec<_>>());
    numbers.insert(
        "engine.recorder_overhead_share",
        (recorded_s - serial_backup_s) / serial_backup_s,
    );

    // Two workers: a layer metric until two result sets agree on it.
    let parallel = repeat(
        seconds * PARALLEL_SHARE,
        if args.smoke { 1 } else { 2 },
        |i| {
            parallel_run(
                w,
                &corpus,
                scratch,
                (i == 0).then_some(serial_namespace),
                &mut ops,
            )
        },
    )?;
    let w2_s = median(&parallel.iter().map(|p| p.backup_wall_s).collect::<Vec<_>>());
    let w2_cpu_s = median(&parallel.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
    numbers.insert("engine.backup_w2_mib_s", rate(backed_up, w2_s, MIB));
    numbers.insert("engine.parallel_speedup", serial_backup_s / w2_s);
    numbers.insert(
        "engine.w2_cpu_s_per_gib",
        w2_cpu_s / (backed_up as f64 / GIB),
    );
    numbers.insert(
        "engine.w2_model_gap_share",
        (w2_s * 1e3 - layer_sum_ms / 2.0) / (w2_s * 1e3),
    );

    // Restore oracles and the point-lookup tail, against the reference.
    let started = Instant::now();
    let oracle =
        restore_session(&reference.cloud, &scheme, last as u64).map_err(|e| e.to_string())?;
    numbers.insert(
        "restore.serial_mib_s",
        rate(restored_bytes, started.elapsed().as_secs_f64(), MIB),
    );
    ops.check(
        oracle
            .iter()
            .map(|f| &f.data)
            .eq(corpus.sessions[last].iter().map(|f| &f.data)),
        || {
            format!(
                "{}: the serial restore oracle differs from the source",
                w.name
            )
        },
    );
    drop(oracle);
    let started = Instant::now();
    let two = restore_session_pipelined(
        &reference.cloud,
        &scheme,
        last as u64,
        &RestoreOptions {
            workers: 2,
            ..RestoreOptions::default()
        },
        &RetryPolicy::default(),
        &Recorder::disabled(),
    )
    .map_err(|e| e.to_string())?;
    numbers.insert(
        "restore.w2_mib_s",
        rate(restored_bytes, started.elapsed().as_secs_f64(), MIB),
    );
    ops.check(
        two.iter()
            .map(|f| &f.data)
            .eq(corpus.sessions[last].iter().map(|f| &f.data)),
        || format!("{}: the two-worker restore differs from the source", w.name),
    );
    drop(two);

    let calls = if args.smoke { 32 } else { TAIL_FILE_RESTORES };
    let mut file_ms = reference.restore_files(w, &corpus, last, calls, 0.5, &mut ops);
    file_ms.sort_by(f64::total_cmp);
    numbers.insert("restore.file_p50_ms", percentile(&file_ms, 0.50));
    numbers.insert("restore.file_p95_ms", percentile(&file_ms, 0.95));
    numbers.insert("restore.file_p99_ms", percentile(&file_ms, 0.99));

    // Vacuum last: it rewrites the reference repository. Where the
    // repository has history, its oldest session is deleted first.
    if w.vacuum {
        reference
            .engine
            .delete_session(0)
            .map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let report = reference
        .engine
        .vacuum(&VacuumOptions::default())
        .map_err(|e| e.to_string())?;
    let vacuum_s = started.elapsed().as_secs_f64();
    numbers.insert(
        "vacuum.scan_mib_s",
        rate(report.stored_bytes_before, vacuum_s, MIB),
    );
    numbers.insert(
        "vacuum.reclaimed_share",
        share(report.bytes_reclaimed, report.stored_bytes_before),
    );
    numbers.insert(
        "vacuum.containers_rewritten",
        report.containers_rewritten as f64,
    );
    reference.restore_and_compare(w, &corpus, last, &mut ops);
    reference.discard(scratch);

    let metrics = LAYERS
        .iter()
        .map(|m| {
            let value = numbers.get(m.name).copied().ok_or(m.name)?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
                summary: None,
            })
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(|name| format!("no value computed for {name}"))?;
    Ok(Outcome { metrics, ops })
}

//! The layer replay: the backup and restore dataflow re-implemented one
//! stage at a time from the layers' public functions.
//!
//! The engine interleaves its layers per chunk, so timing a layer inside
//! it means a timer pair per chunk. The replay instead runs every file
//! through one layer, then every file through the next: each pass is timed
//! as a whole, and what the engine spends *between* layers — source
//! clones, per-chunk `Vec`s, recipe building, its own timer pairs — shows
//! up as the gap between the sum of the passes and the engine's wall time.
//!
//! The replay is checked, not trusted: per session its chunk, duplicate,
//! stored-byte, container and disk-probe counts must equal the engine's
//! `SessionReport`, its manifest must equal the engine's, and at the end
//! its cloud namespace must be byte-identical to the engine's.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;

use aadedupe_chunking::{
    ChunkSpan, Chunker, ChunkingMethod, ContentChunker, ScChunker, WfcChunker,
};
use aadedupe_cloud::{BackendError, CloudSim};
use aadedupe_container::{ContainerStore, ParsedContainer};
use aadedupe_core::restore::container_key;
use aadedupe_core::{AaDedupeConfig, BackupError, ChunkRef, FileRecipe, Manifest};
use aadedupe_filetype::{classify, AppType, MemoryFile};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{codec, AppAwareIndex, ChunkEntry};

use crate::e2e::Ops;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Corpus, Workload};

/// Stream id of the tiny-file containers (application streams use the
/// application tag).
const TINY_STREAM: u32 = 0;

/// Passes that make up one backup session, in dataflow order. Their timed
/// seconds add up to `engine.layer_sum_ms`.
pub const BACKUP_PASSES: [&str; 13] = [
    "filetype.classify",
    "chunking.wfc",
    "chunking.sc",
    "chunking.cdc",
    "hashing.rabin96",
    "hashing.md5",
    "hashing.sha1",
    "index.lookup_insert",
    "container.append",
    "container.seal",
    "cloud.put",
    "recipe.encode",
    "index.snapshot_encode",
];

/// Passes of the restore mirror.
pub const RESTORE_PASSES: [&str; 5] = [
    "cloud.get",
    "recipe.decode",
    "container.parse",
    "restore.verify",
    "restore.assemble",
];

/// Accumulated time and work of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Seconds over every session replayed.
    pub all_s: f64,
    /// Seconds over the workload's timed sessions only.
    pub timed_s: f64,
    /// Bytes (or operations) processed, every session.
    pub units: u64,
}

/// What a session's replay counted — the figures the engine's
/// `SessionReport` must agree with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    pub chunks_total: u64,
    pub chunks_duplicate: u64,
    pub stored_bytes: u64,
    pub containers: u64,
    pub index_disk_reads: u64,
    pub transferred_bytes: u64,
    pub put_requests: u64,
}

/// One file's way through the passes.
struct Plan {
    app: AppType,
    method: ChunkingMethod,
    hash: HashAlgorithm,
    tiny: bool,
    /// An unchanged tiny file is carried forward by reference.
    carried: Option<ChunkRef>,
    spans: Vec<ChunkSpan>,
    fps: Vec<Fingerprint>,
    refs: Vec<ChunkRef>,
    /// Indices into `spans` of the chunks the index did not know.
    unique: Vec<usize>,
}

pub struct Replay<'a> {
    w: &'a Workload,
    corpus: &'a Corpus,
    config: AaDedupeConfig,
    /// The engine's manifests: where the engine placed each chunk.
    expected: &'a [Manifest],
    index: AppAwareIndex,
    store: ContainerStore,
    tiny_seen: HashMap<String, (u64, ChunkRef)>,
    pub cloud: CloudSim,
    pub tracer: Tracer,
    run: SpanId,
    pub passes: BTreeMap<&'static str, Pass>,
    pub ops: Ops,
    /// Simulated WAN seconds of the timed sessions' uploads.
    pub wan_s: f64,
    /// Chunks and bytes of the non-tiny files, every session.
    pub big_chunks: u64,
    pub big_bytes: u64,
    pub last_manifest_bytes: u64,
    pub last_snapshot_bytes: u64,
    /// Bytes of every container sealed.
    pub sealed_bytes: u64,
}

fn cloud_err(e: BackendError) -> String {
    e.to_string()
}

impl<'a> Replay<'a> {
    /// A replay over fresh layer state. `config` is the engine's
    /// configuration (its `index_dir` must be a fresh directory).
    pub fn new(
        w: &'a Workload,
        corpus: &'a Corpus,
        config: AaDedupeConfig,
        expected: &'a [Manifest],
        per_file_spans: bool,
    ) -> Replay<'a> {
        let index = match &config.index_dir {
            Some(dir) => AppAwareIndex::disk_backed(config.ram_entries_per_partition, dir),
            None => AppAwareIndex::new(config.ram_entries_per_partition),
        };
        let store = ContainerStore::new(config.container_size);
        let mut tracer = Tracer::new(per_file_spans);
        let run = tracer.open("run", None);
        Replay {
            w,
            corpus,
            config,
            expected,
            index,
            store,
            tiny_seen: HashMap::new(),
            cloud: CloudSim::with_paper_defaults(),
            tracer,
            run,
            passes: BTreeMap::new(),
            ops: Ops::default(),
            wan_s: 0.0,
            big_chunks: 0,
            big_bytes: 0,
            last_manifest_bytes: 0,
            last_snapshot_bytes: 0,
            sealed_bytes: 0,
        }
    }

    fn begin(&mut self, name: &'static str) -> SpanId {
        self.tracer.open(name, Some(self.run))
    }

    fn end(&mut self, span: SpanId, name: &'static str, timed: bool, units: u64) {
        let seconds = self.tracer.close(span);
        let pass = self.passes.entry(name).or_default();
        pass.all_s += seconds;
        if timed {
            pass.timed_s += seconds;
        }
        pass.units += units;
    }

    /// Closes the run span; call once every pass is done.
    pub fn finish(&mut self) -> f64 {
        self.tracer.close(self.run)
    }

    pub fn index(&self) -> &AppAwareIndex {
        &self.index
    }

    pub fn store_stats(&self) -> aadedupe_container::StoreStats {
        self.store.stats()
    }

    /// Seconds of `names` over the timed sessions.
    pub fn timed_sum(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.passes.get(n).map_or(0.0, |p| p.timed_s))
            .sum()
    }

    /// Replays backup session `week` and checks it against the engine's
    /// manifest for that session.
    pub fn backup_session(&mut self, week: usize) -> Result<SessionCounts, String> {
        let corpus = self.corpus;
        let files: &[MemoryFile] = &corpus.sessions[week];
        let timed = week >= self.w.first_timed;
        let policy = self.config.policy;
        let tiny_threshold = self.config.tiny_threshold;
        let expected = self.expected.get(week);
        let mut counts = SessionCounts::default();

        // filetype: classify every path, route it through the policy.
        let span = self.begin("filetype.classify");
        let mut plans: Vec<Plan> = Vec::with_capacity(files.len());
        for (i, f) in files.iter().enumerate() {
            plans.push(self.tracer.file(span, week, i, || {
                let app = classify(Path::new(&f.path));
                let (method, hash) = policy.for_app(app);
                Plan {
                    app,
                    method,
                    hash,
                    tiny: (f.data.len() as u64) < tiny_threshold,
                    carried: None,
                    spans: Vec::new(),
                    fps: Vec::new(),
                    refs: Vec::new(),
                    unique: Vec::new(),
                }
            }));
        }
        self.end(span, "filetype.classify", timed, files.len() as u64);
        let misrouted = plans
            .iter()
            .zip(files)
            .filter(|(p, f)| p.app != f.app)
            .count();
        self.ops.check(misrouted == 0, || {
            format!("{misrouted} files classified differently")
        });

        // The size filter's carry-forward decision is engine logic, not a
        // layer: untimed here, so it lands in the unattributed gap.
        for (plan, f) in plans.iter_mut().zip(files) {
            if plan.tiny {
                plan.carried = self
                    .tiny_seen
                    .get(&f.path)
                    .filter(|(token, _)| *token == f.token)
                    .map(|(_, reference)| *reference);
            }
        }

        // chunking, one sub-pass per method.
        let chunkers: [(&'static str, ChunkingMethod, Box<dyn Chunker>); 3] = [
            (
                "chunking.wfc",
                ChunkingMethod::Wfc,
                Box::new(WfcChunker::new()),
            ),
            (
                "chunking.sc",
                ChunkingMethod::Sc,
                Box::new(ScChunker::new(self.config.sc_chunk_size)),
            ),
            (
                "chunking.cdc",
                ChunkingMethod::Cdc,
                Box::new(ContentChunker::new(self.config.cdc)),
            ),
        ];
        for (name, method, chunker) in &chunkers {
            let span = self.begin(name);
            let mut bytes = 0u64;
            for (i, (plan, f)) in plans.iter_mut().zip(files).enumerate() {
                if plan.tiny || plan.method != *method {
                    continue;
                }
                plan.spans = self.tracer.file(span, week, i, || chunker.chunk(&f.data));
                bytes += f.data.len() as u64;
                self.big_chunks += plan.spans.len() as u64;
            }
            self.big_bytes += bytes;
            self.end(span, name, timed, bytes);
        }

        // hashing, one sub-pass per algorithm; packed tiny files are
        // fingerprinted whole with SHA-1.
        let algorithms: [(&'static str, HashAlgorithm); 3] = [
            ("hashing.rabin96", HashAlgorithm::Rabin96),
            ("hashing.md5", HashAlgorithm::Md5),
            ("hashing.sha1", HashAlgorithm::Sha1),
        ];
        for (name, algorithm) in algorithms {
            let span = self.begin(name);
            let mut bytes = 0u64;
            for (i, (plan, f)) in plans.iter_mut().zip(files).enumerate() {
                if plan.tiny {
                    if plan.carried.is_none() && algorithm == HashAlgorithm::Sha1 {
                        plan.fps = self.tracer.file(span, week, i, || {
                            vec![Fingerprint::compute(algorithm, &f.data)]
                        });
                        bytes += f.data.len() as u64;
                    }
                } else if plan.hash == algorithm {
                    let spans = &plan.spans;
                    plan.fps = self.tracer.file(span, week, i, || {
                        spans
                            .iter()
                            .map(|s| Fingerprint::compute(algorithm, s.slice(&f.data)))
                            .collect()
                    });
                    bytes += f.data.len() as u64;
                }
            }
            self.end(span, name, timed, bytes);
        }

        // index: the engine's lookup → insert-on-miss sequence, in file
        // order. A new chunk's placement is the one the engine recorded.
        let span = self.begin("index.lookup_insert");
        let mut lookups = 0u64;
        let mut misplaced = 0u64;
        for (i, plan) in plans.iter_mut().enumerate() {
            if plan.tiny {
                continue;
            }
            let theirs = expected
                .and_then(|m| m.files.get(i))
                .map_or(&[][..], |r| &r.chunks[..]);
            let index = &self.index;
            let (refs, unique, disk, bad) = self.tracer.file(span, week, i, || {
                let mut refs = Vec::with_capacity(plan.fps.len());
                let mut unique = Vec::new();
                let (mut disk, mut bad) = (0u64, 0u64);
                for (k, (fp, s)) in plan.fps.iter().zip(&plan.spans).enumerate() {
                    let outcome = index.lookup_classified(plan.app, fp);
                    disk += u64::from(outcome.touched_disk());
                    let (container, offset) = match outcome.entry() {
                        Some(entry) => (entry.container, entry.offset),
                        None => {
                            let placed = theirs.get(k).filter(|c| c.fingerprint == *fp);
                            bad += u64::from(placed.is_none());
                            let (container, offset) =
                                placed.map_or((u64::MAX, k as u32), |c| (c.container, c.offset));
                            index.insert(
                                plan.app,
                                *fp,
                                ChunkEntry::new(s.len as u64, container, offset),
                            );
                            unique.push(k);
                            (container, offset)
                        }
                    };
                    refs.push(ChunkRef {
                        fingerprint: *fp,
                        len: s.len as u32,
                        container,
                        offset,
                    });
                }
                (refs, unique, disk, bad)
            });
            lookups += plan.fps.len() as u64;
            counts.chunks_duplicate += (plan.fps.len() - unique.len()) as u64;
            counts.index_disk_reads += disk;
            misplaced += bad;
            plan.refs = refs;
            plan.unique = unique;
        }
        self.end(span, "index.lookup_insert", timed, lookups);
        self.ops.check(misplaced == 0, || {
            format!("session {week}: {misplaced} new chunks the engine's manifest does not place")
        });

        // container: append what the index did not know, in file order.
        let span = self.begin("container.append");
        let mut appended = 0u64;
        let mut moved = 0u64;
        for (i, (plan, f)) in plans.iter_mut().zip(files).enumerate() {
            let store = &mut self.store;
            if plan.tiny {
                if let Some(reference) = plan.carried {
                    plan.refs = vec![reference];
                    counts.chunks_duplicate += 1;
                    continue;
                }
                let Some(fp) = plan.fps.first().copied() else {
                    continue;
                };
                let placement = self
                    .tracer
                    .file(span, week, i, || store.add_chunk(TINY_STREAM, fp, &f.data));
                let reference = ChunkRef {
                    fingerprint: fp,
                    len: f.data.len() as u32,
                    container: placement.container,
                    offset: placement.offset,
                };
                self.tiny_seen.insert(f.path.clone(), (f.token, reference));
                plan.refs = vec![reference];
                appended += f.data.len() as u64;
            } else if !plan.unique.is_empty() {
                let stream = u32::from(plan.app.tag());
                let (fps, spans, unique, refs) = (&plan.fps, &plan.spans, &plan.unique, &plan.refs);
                let (bytes, bad) = self.tracer.file(span, week, i, || {
                    let (mut bytes, mut bad) = (0u64, 0u64);
                    for &k in unique {
                        let placement = store.add_chunk(stream, fps[k], spans[k].slice(&f.data));
                        bytes += spans[k].len as u64;
                        bad += u64::from(
                            (placement.container, placement.offset)
                                != (refs[k].container, refs[k].offset),
                        );
                    }
                    (bytes, bad)
                });
                appended += bytes;
                moved += bad;
            }
        }
        self.end(span, "container.append", timed, appended);
        self.ops.check(moved == 0, || {
            format!("session {week}: {moved} chunks landed elsewhere than the engine placed them")
        });
        counts.stored_bytes = appended;

        let span = self.begin("container.seal");
        let rolled = self.store.pending();
        self.store.seal_all();
        let mut sealed = self.store.drain_sealed();
        let seal_bytes: u64 = sealed[rolled.min(sealed.len())..]
            .iter()
            .map(|s| s.bytes.len() as u64)
            .sum();
        sealed.sort_by_key(|s| s.id);
        self.end(span, "container.seal", timed, seal_bytes);
        counts.containers = sealed.len() as u64;
        self.sealed_bytes += sealed.iter().map(|s| s.bytes.len() as u64).sum::<u64>();

        // Recipe building is engine logic: untimed.
        let manifest = Manifest {
            session: week as u64,
            files: plans
                .iter_mut()
                .zip(files)
                .map(|(plan, f)| FileRecipe {
                    path: f.path.clone(),
                    app: plan.app,
                    tiny: plan.tiny,
                    chunks: std::mem::take(&mut plan.refs),
                })
                .collect(),
        };
        counts.chunks_total = manifest.files.iter().map(|r| r.chunks.len() as u64).sum();
        self.ops.check(expected == Some(&manifest), || {
            format!("session {week}: the replay's manifest differs from the engine's")
        });

        // cloud: containers in id order, then the manifest, then the index
        // snapshot — the engine's commit order.
        let scheme = self.config.scheme_key.clone();
        let mut wan = std::time::Duration::ZERO;
        let span = self.begin("cloud.put");
        let mut put_bytes = 0u64;
        for s in sealed {
            put_bytes += s.bytes.len() as u64;
            wan += self
                .cloud
                .put(&container_key(&scheme, s.id), s.bytes)
                .map_err(cloud_err)?;
        }
        self.end(span, "cloud.put", timed, put_bytes);

        let span = self.begin("recipe.encode");
        let encoded = manifest.encode();
        self.end(span, "recipe.encode", timed, encoded.len() as u64);
        self.last_manifest_bytes = encoded.len() as u64;

        let span = self.begin("cloud.put");
        let manifest_bytes = encoded.len() as u64;
        wan += self
            .cloud
            .put(&Manifest::key(&scheme, week as u64), encoded)
            .map_err(cloud_err)?;
        self.end(span, "cloud.put", timed, manifest_bytes);

        let span = self.begin("index.snapshot_encode");
        let snapshot = codec::encode_app_aware(&self.index);
        self.end(span, "index.snapshot_encode", timed, snapshot.len() as u64);
        self.last_snapshot_bytes = snapshot.len() as u64;

        let span = self.begin("cloud.put");
        let snapshot_bytes = snapshot.len() as u64;
        wan += self
            .cloud
            .put(&format!("{scheme}/index/{week:08}"), snapshot)
            .map_err(cloud_err)?;
        self.end(span, "cloud.put", timed, snapshot_bytes);

        counts.transferred_bytes = put_bytes + manifest_bytes + snapshot_bytes;
        counts.put_requests = counts.containers + 2;
        if timed {
            self.wan_s += wan.as_secs_f64();
        }
        Ok(counts)
    }

    /// Replays the restore of `session` — fetch, parse, verify, assemble —
    /// and compares every assembled file with its source.
    pub fn restore_session(&mut self, session: usize) -> Result<(), String> {
        let scheme = self.config.scheme_key.clone();
        let corrupt = |e: BackupError| e.to_string();

        let span = self.begin("cloud.get");
        let (raw_manifest, _) = self
            .cloud
            .get(&Manifest::key(&scheme, session as u64))
            .map_err(cloud_err)?;
        let raw_manifest = raw_manifest.ok_or("the replay's manifest is missing")?;
        self.end(span, "cloud.get", true, raw_manifest.len() as u64);

        let span = self.begin("recipe.decode");
        let manifest = Manifest::decode(&raw_manifest).map_err(corrupt)?;
        self.end(span, "recipe.decode", true, raw_manifest.len() as u64);

        // Planning (first-reference order, distinct references) is engine
        // logic: untimed.
        let mut order: Vec<u64> = Vec::new();
        let mut slot: HashMap<u64, usize> = HashMap::new();
        let mut seen: HashSet<(u64, u32, Fingerprint)> = HashSet::new();
        let mut distinct: Vec<Vec<(u32, Fingerprint, u32)>> = Vec::new();
        for f in &manifest.files {
            for c in &f.chunks {
                let at = *slot.entry(c.container).or_insert_with(|| {
                    order.push(c.container);
                    distinct.push(Vec::new());
                    order.len() - 1
                });
                if seen.insert((c.container, c.offset, c.fingerprint)) {
                    distinct[at].push((c.offset, c.fingerprint, c.len));
                }
            }
        }

        let span = self.begin("cloud.get");
        let mut raws: Vec<Vec<u8>> = Vec::with_capacity(order.len());
        let mut fetched = 0u64;
        for id in &order {
            let key = container_key(&scheme, *id);
            let (raw, _) = self.cloud.get(&key).map_err(cloud_err)?;
            let raw = raw.ok_or_else(|| format!("container {key} is missing"))?;
            fetched += raw.len() as u64;
            raws.push(raw);
        }
        self.end(span, "cloud.get", true, fetched);

        let span = self.begin("container.parse");
        let mut parsed = Vec::with_capacity(raws.len());
        for raw in &raws {
            let container = ParsedContainer::parse(raw).map_err(|e| e.to_string())?;
            let map = container.descriptor_map();
            parsed.push((container, map));
        }
        self.end(span, "container.parse", true, fetched);
        drop(raws);

        let span = self.begin("restore.verify");
        let (mut verified, mut wrong) = (0u64, 0u64);
        for ((container, map), refs) in parsed.iter().zip(&distinct) {
            for (offset, fp, len) in refs {
                match map.get(&(*offset, *fp)) {
                    Some(d) if d.len == *len => {
                        let bytes = container.chunk_bytes(d);
                        verified += bytes.len() as u64;
                        wrong += u64::from(Fingerprint::compute(fp.algorithm(), bytes) != *fp);
                    }
                    _ => wrong += 1,
                }
            }
        }
        self.end(span, "restore.verify", true, verified);
        self.ops.check(wrong == 0, || {
            format!("{wrong} chunks failed verification in the replay")
        });

        let span = self.begin("restore.assemble");
        let mut assembled: Vec<Vec<u8>> = Vec::with_capacity(manifest.files.len());
        let mut bytes = 0u64;
        for (i, f) in manifest.files.iter().enumerate() {
            let data = self.tracer.file(span, session, i, || {
                let mut data = Vec::with_capacity(f.file_len() as usize);
                for c in &f.chunks {
                    let found = slot
                        .get(&c.container)
                        .and_then(|at| parsed.get(*at))
                        .and_then(|(container, map)| {
                            map.get(&(c.offset, c.fingerprint))
                                .map(|d| container.chunk_bytes(d))
                        });
                    if let Some(chunk) = found {
                        data.extend_from_slice(chunk);
                    }
                }
                data
            });
            bytes += data.len() as u64;
            assembled.push(data);
        }
        self.end(span, "restore.assemble", true, bytes);

        let sources = &self.corpus.sessions[session];
        self.ops.check(assembled.len() == sources.len(), || {
            format!(
                "the replay assembled {} files of {}",
                assembled.len(),
                sources.len()
            )
        });
        for (got, want) in assembled.iter().zip(sources) {
            self.ops.check(*got == want.data, || {
                format!("the replay's {} differs from its source", want.path)
            });
        }
        Ok(())
    }
}

//! Manifest-driven restore.
//!
//! Restore is the correctness oracle of the whole system: for any past
//! session, fetch its manifest, fetch each referenced container (chunk
//! locality makes this cheap — the paper groups chunks "likely to be
//! retrieved together"), extract and *verify* every chunk against its
//! fingerprint, and reassemble the files byte-for-byte.
//!
//! Two engines share that contract:
//!
//! * [`restore_session`] — the serial reference implementation: fetch
//!   every referenced container up front, then assemble in manifest
//!   order. Simple, but it holds every container at once and a single
//!   transient GET aborts it. It is kept as the oracle the pipelined
//!   engine is differentially tested against (and as the restore path of
//!   the baseline schemes).
//! * [`restore_session_pipelined`] — the production path, container-major:
//!   a planner walks the manifest once and lists, per container in
//!   first-reference order, the distinct chunks read from it and every
//!   `(file, byte position)` each lands at. N workers — the calling
//!   thread and N − 1 spawned ones — claim containers from a shared
//!   cursor, download through the restore call's one [`Transfer`] (the
//!   retry handle every upload and download uses, its budget shared by
//!   the workers), parse and verify each, copy its chunks straight into
//!   the output files and drop it. Every container is fetched, parsed and
//!   verified exactly once.
//!
//! # Memory bound
//!
//! Besides the restored files themselves (`Vec<RestoredFile>` is
//! O(session) in both engines), the pipelined engine holds at most
//! `workers` containers at once, one per worker. A held container is the
//! downloaded object itself, parsed in place
//! ([`ParsedContainer::from_vec`]): its chunks are ranges of that buffer
//! until the scatter copies them out. Every output buffer is reserved by
//! the calling thread before the workers start, so it comes from the
//! calling thread's allocator arena whichever worker fills it.
//!
//! # Determinism contract
//!
//! For a fixed manifest, restored bytes and verification outcomes are
//! identical for any worker count. Of all failed container downloads or
//! verifications, the one returned is the container that comes first in
//! plan (= first-reference) order — never the first to *fail*, which
//! would depend on worker scheduling. The cursor hands out plan indices
//! monotonically, the first failure stops further claims, every worker
//! finishes the container it holds and joins, and the failure with the
//! smallest index is kept.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use aadedupe_cloud::CloudSim;
use aadedupe_container::{ChunkDescriptor, ParsedContainer};
use aadedupe_hashing::Fingerprint;
use aadedupe_lock::Lock;
use aadedupe_obs::{Counter, Recorder, Stage, WorkerRole};

use crate::engine::default_workers;
use crate::recipe::{FileRecipe, Manifest};
use crate::retry::{RetryPolicy, Transfer};
use crate::scheme::BackupError;

/// One restored file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredFile {
    /// Original path.
    pub path: String,
    /// Reconstructed contents.
    pub data: Vec<u8>,
}

/// Settings for the pipelined restore engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOptions {
    /// Fetch/parse/verify/scatter workers, the calling thread included.
    /// Defaults to the backup pipeline's default: one per core, at most 8.
    pub workers: usize,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions { workers: default_workers() }
    }
}

/// The prefix every container key of a scheme starts with.
pub fn containers_prefix(scheme: &str) -> String {
    format!("{scheme}/containers/")
}

/// The cloud object key for a scheme's container.
pub fn container_key(scheme: &str, container: u64) -> String {
    format!("{}{container:012}", containers_prefix(scheme))
}

/// The container a listed key names: the inverse of [`container_key`].
pub fn container_id(key: &str) -> Option<u64> {
    key.rsplit('/').next()?.parse().ok()
}

/// Restores every file of `session` from `scheme_key`'s cloud namespace.
///
/// Serial reference implementation — see the module docs; production
/// callers use [`restore_session_pipelined`].
pub fn restore_session(
    cloud: &CloudSim,
    scheme_key: &str,
    session: u64,
) -> Result<Vec<RestoredFile>, BackupError> {
    let mkey = Manifest::key(scheme_key, session);
    let (bytes, _t) = cloud.get(&mkey)?;
    let bytes = bytes.ok_or(BackupError::UnknownSession(session as usize))?;
    let manifest = Manifest::decode(&bytes)?;

    // Fetch each referenced container once, building its descriptor
    // lookup table at parse time.
    let mut containers: HashMap<u64, FetchedContainer> = HashMap::new();
    for f in &manifest.files {
        for c in &f.chunks {
            if let std::collections::hash_map::Entry::Vacant(slot) =
                containers.entry(c.container)
            {
                let key = container_key(scheme_key, c.container);
                let (raw, _t) = cloud.get(&key)?;
                let raw = raw.ok_or_else(|| BackupError::MissingObject(key.clone()))?;
                let parsed = ParsedContainer::from_vec(raw)
                    .map_err(|e| BackupError::Corrupt(format!("{key}: {e}")))?;
                let map = parsed.descriptor_map();
                slot.insert(FetchedContainer { parsed, map });
            }
        }
    }

    let mut out = Vec::with_capacity(manifest.files.len());
    for f in &manifest.files {
        let mut data = Vec::with_capacity(f.file_len() as usize);
        for c in &f.chunks {
            let container = containers
                .get(&c.container)
                .ok_or_else(|| BackupError::MissingObject(container_key(scheme_key, c.container)))?;
            let descriptor = lookup_descriptor(container, c.container, c.offset, &c.fingerprint)?;
            let chunk = container.parsed.chunk_bytes(&descriptor);
            check_len(&c.fingerprint, c.len, &descriptor)?;
            verify_chunk(c.container, c.offset, &c.fingerprint, chunk)?;
            data.extend_from_slice(chunk);
        }
        out.push(RestoredFile { path: f.path.clone(), data });
    }
    Ok(out)
}

/// Restores every file of `session` through the pipelined container-major
/// engine. Byte-identical to [`restore_session`] for any `opts`.
pub fn restore_session_pipelined(
    cloud: &CloudSim,
    scheme_key: &str,
    session: u64,
    opts: &RestoreOptions,
    retry: &RetryPolicy,
    rec: &Recorder,
) -> Result<Vec<RestoredFile>, BackupError> {
    let transfer = Transfer::new(cloud, *retry, rec);
    let manifest = fetch_manifest(&transfer, scheme_key, session)?;
    let files: Vec<&FileRecipe> = manifest.files.iter().collect();
    run_pipeline(&transfer, scheme_key, &files, opts, rec)
}

/// Restores one file by path from `session`, fetching only the containers
/// that file's recipe references.
pub fn restore_file_pipelined(
    cloud: &CloudSim,
    scheme_key: &str,
    session: u64,
    path: &str,
    opts: &RestoreOptions,
    retry: &RetryPolicy,
    rec: &Recorder,
) -> Result<RestoredFile, BackupError> {
    let transfer = Transfer::new(cloud, *retry, rec);
    let manifest = fetch_manifest(&transfer, scheme_key, session)?;
    let recipe = manifest
        .files
        .iter()
        .find(|f| f.path == path)
        .ok_or_else(|| BackupError::MissingObject(format!("session {session}: {path}")))?;
    let mut files = run_pipeline(&transfer, scheme_key, &[recipe], opts, rec)?;
    files.pop().ok_or_else(|| BackupError::MissingObject(format!("session {session}: {path}")))
}

/// A parsed container plus its O(1) descriptor lookup table.
struct FetchedContainer {
    parsed: ParsedContainer,
    map: HashMap<(u32, Fingerprint), ChunkDescriptor>,
}

/// One container's work order: what this restore reads from it and where
/// each piece goes.
struct ContainerJob {
    container: u64,
    /// Distinct `(offset, fingerprint, recipe length)` references, in
    /// first-reference order.
    refs: Vec<(u32, Fingerprint, u32)>,
    /// Every landing site: `(index into refs, file index, byte position)`.
    dests: Vec<(usize, usize, usize)>,
}

/// A fetched container that passed verification: the parsed object plus
/// one descriptor per [`ContainerJob::refs`] entry, in the same order.
struct VerifiedContainer {
    parsed: ParsedContainer,
    descriptors: Vec<ChunkDescriptor>,
}

/// Walks the recipes in manifest order and turns them inside out: one job
/// per container, in first-reference order — the fetch issue order.
fn plan_restore(files: &[&FileRecipe]) -> Vec<ContainerJob> {
    let mut order: Vec<ContainerJob> = Vec::new();
    let mut slot: HashMap<u64, usize> = HashMap::new();
    let mut seen: HashMap<(u64, u32, Fingerprint, u32), usize> = HashMap::new();
    for (file, f) in files.iter().enumerate() {
        let mut at = 0usize;
        for c in &f.chunks {
            let idx = *slot.entry(c.container).or_insert_with(|| {
                order.push(ContainerJob { container: c.container, refs: Vec::new(), dests: Vec::new() });
                order.len() - 1
            });
            #[expect(
                clippy::indexing_slicing,
                reason = "idx was pushed into order in the same entry() insertion that minted it"
            )]
            let job = &mut order[idx];
            let r = *seen.entry((c.container, c.offset, c.fingerprint, c.len)).or_insert_with(|| {
                job.refs.push((c.offset, c.fingerprint, c.len));
                job.refs.len() - 1
            });
            job.dests.push((r, file, at));
            at += c.len as usize;
        }
    }
    order
}

/// Fetches and decodes a session's manifest through `transfer`.
pub(crate) fn fetch_manifest(
    transfer: &Transfer<'_>,
    scheme_key: &str,
    session: u64,
) -> Result<Manifest, BackupError> {
    // Jitter op: outside the container-id space so the manifest's backoff
    // schedule never collides with a container's.
    let bytes = transfer.get(&Manifest::key(scheme_key, session), u64::MAX)?;
    Manifest::decode(&bytes.ok_or(BackupError::UnknownSession(session as usize))?)
}

fn lookup_descriptor(
    fc: &FetchedContainer,
    container: u64,
    offset: u32,
    fp: &Fingerprint,
) -> Result<ChunkDescriptor, BackupError> {
    fc.map.get(&(offset, *fp)).copied().ok_or_else(|| {
        BackupError::Corrupt(format!(
            "container {container} lacks chunk {fp} at offset {offset}"
        ))
    })
}

fn check_len(fp: &Fingerprint, recipe_len: u32, d: &ChunkDescriptor) -> Result<(), BackupError> {
    if d.len != recipe_len {
        return Err(BackupError::Corrupt(format!(
            "chunk {} length mismatch: recipe {} vs container {}",
            fp, recipe_len, d.len
        )));
    }
    Ok(())
}

fn verify_chunk(
    container: u64,
    offset: u32,
    fp: &Fingerprint,
    chunk: &[u8],
) -> Result<(), BackupError> {
    check_fingerprint(container, offset, fp, Fingerprint::compute(fp.algorithm(), chunk))
}

fn check_fingerprint(
    container: u64,
    offset: u32,
    fp: &Fingerprint,
    recomputed: Fingerprint,
) -> Result<(), BackupError> {
    if recomputed != *fp {
        return Err(BackupError::Verification(format!(
            "chunk at {container}:{offset} does not match fingerprint {fp}"
        )));
    }
    Ok(())
}

/// Fetches, parses and verifies one container (worker body). Verification
/// resolves every distinct reference through the descriptor map and
/// checks length then fingerprint, and reports the first reference to fail
/// either — the same error, with the same message, as the serial engine's
/// chunk-at-a-time [`verify_chunk`]. The re-hash itself is batched
/// ([`Fingerprint::compute_many`]), one run of same-algorithm references
/// at a time.
fn fetch_parse_verify(
    transfer: &Transfer<'_>,
    scheme_key: &str,
    job: &ContainerJob,
    rec: &Recorder,
) -> Result<VerifiedContainer, BackupError> {
    let key = container_key(scheme_key, job.container);
    let fetching = rec.start();
    let raw = transfer.get(&key, job.container)?;
    let raw = raw.ok_or_else(|| BackupError::MissingObject(key.clone()))?;
    let parsed = ParsedContainer::from_vec(raw)
        .map_err(|e| BackupError::Corrupt(format!("{key}: {e}")))?;
    let map = parsed.descriptor_map();
    let fc = FetchedContainer { parsed, map };
    rec.record(Stage::RestoreFetch, fetching);
    let verifying = rec.start();
    let mut descriptors = Vec::with_capacity(job.refs.len());
    for run in job.refs.chunk_by(|a, b| a.1.algorithm() == b.1.algorithm()) {
        let Some((_, first, _)) = run.first() else { continue };
        // Resolve the run up to its first lookup or length error, and
        // re-hash what resolved before reporting it: a corrupt chunk
        // ahead of the bad reference is the earlier failure.
        let mut chunks = Vec::with_capacity(run.len());
        let mut unresolved = None;
        for (offset, fp, len) in run {
            let resolved = lookup_descriptor(&fc, job.container, *offset, fp)
                .and_then(|d| check_len(fp, *len, &d).map(|()| d));
            match resolved {
                Ok(d) => {
                    chunks.push(fc.parsed.chunk_bytes(&d));
                    descriptors.push(d);
                }
                Err(e) => {
                    unresolved = Some(e);
                    break;
                }
            }
        }
        let recomputed = Fingerprint::compute_many(first.algorithm(), &chunks);
        for ((offset, fp, _), recomputed) in run.iter().zip(recomputed) {
            check_fingerprint(job.container, *offset, fp, recomputed)?;
        }
        if let Some(e) = unresolved {
            return Err(e);
        }
    }
    rec.record(Stage::RestoreVerify, verifying);
    Ok(VerifiedContainer { parsed: fc.parsed, descriptors })
}

/// Runs the planner → workers pipeline over `files`; the calling thread
/// is worker 0.
fn run_pipeline(
    transfer: &Transfer<'_>,
    scheme_key: &str,
    files: &[&FileRecipe],
    opts: &RestoreOptions,
    rec: &Recorder,
) -> Result<Vec<RestoredFile>, BackupError> {
    let order = plan_restore(files);
    // More workers than containers would just be idle threads.
    let workers = opts.workers.min(order.len()).max(1);
    let cursor = AtomicUsize::new(0);
    // Reserved here, not by the first worker to write: a buffer allocated
    // on a worker thread comes from that thread's allocator arena, whose
    // pages the next backup on this thread cannot reuse (DESIGN §11).
    let out: Vec<Lock<Vec<u8>>> =
        files.iter().map(|f| Lock::new(Vec::with_capacity(f.file_len() as usize))).collect();
    let first_err: Lock<Option<(usize, BackupError)>> = Lock::new(None);
    let work = |w: usize| {
        let mut busy = Duration::ZERO;
        loop {
            // Relaxed: the cursor only hands out tickets; the plan it
            // indexes is immutable.
            let idx = cursor.fetch_add(1, Relaxed);
            let Some(job) = order.get(idx) else { break };
            let working = rec.start();
            match fetch_parse_verify(transfer, scheme_key, job, rec) {
                Ok(vc) => {
                    rec.restore_verified_push();
                    scatter(job, &vc, &out, rec);
                    rec.restore_verified_pop();
                }
                Err(e) => {
                    // Stop claiming; containers already claimed still finish.
                    cursor.store(order.len(), Relaxed);
                    let mut kept = first_err.lock();
                    if kept.as_ref().is_none_or(|(first, _)| idx < *first) {
                        *kept = Some((idx, e));
                    }
                }
            }
            if let Some(t) = working {
                busy += t.elapsed();
            }
        }
        // Nothing to wait for but an output file's lock, counted as busy.
        rec.worker_report(WorkerRole::Restorer, w, busy, Duration::ZERO);
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        work(0);
    });
    if let Some((_, e)) = first_err.into_inner() {
        return Err(e);
    }
    Ok(std::iter::zip(files, out)
        .map(|(f, data)| RestoredFile { path: f.path.clone(), data: data.into_inner() })
        .collect())
}

/// Copies one verified container's chunks to every place they land,
/// taking each file's lock once per run of destinations in it. A chunk
/// that lands at its file's current end is appended — almost every byte,
/// since destinations are in manifest order and containers are claimed
/// close to it. One that lands further on grows the file with zeros
/// first; the gap is overwritten when its own container is scattered.
fn scatter(job: &ContainerJob, vc: &VerifiedContainer, out: &[Lock<Vec<u8>>], rec: &Recorder) {
    let scattering = rec.start();
    let mut copied = 0;
    for run in job.dests.chunk_by(|a, b| a.1 == b.1) {
        let Some(&(_, file, _)) = run.first() else { continue };
        #[expect(
            clippy::indexing_slicing,
            reason = "plan_restore minted file as an index into files, and out holds one \
                      buffer per file"
        )]
        let mut data = out[file].lock();
        for &(r, _, at) in run {
            #[expect(
                clippy::indexing_slicing,
                reason = "plan_restore minted r as an index into this job's refs, and the \
                          worker resolved one descriptor per ref"
            )]
            let chunk = vc.parsed.chunk_bytes(&vc.descriptors[r]);
            let end = at + chunk.len();
            if at == data.len() {
                data.extend_from_slice(chunk);
            } else {
                if data.len() < end {
                    data.resize(end, 0);
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the resize above guarantees data.len() >= end, and at <= end"
                )]
                data[at..end].copy_from_slice(chunk);
            }
            copied += chunk.len() as u64;
        }
    }
    rec.count(Counter::RestoredBytes, copied);
    rec.record(Stage::RestoreAssemble, scattering);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::{ChunkRef, FileRecipe};
    use aadedupe_container::ContainerStore;
    use aadedupe_filetype::AppType;
    use aadedupe_hashing::HashAlgorithm;

    /// Uploads one container per group of chunks (ids 0..) and returns a
    /// reference to every chunk, in order.
    fn put_containers(cloud: &CloudSim, groups: &[&[&[u8]]]) -> Vec<ChunkRef> {
        put_containers_hashed(cloud, HashAlgorithm::Sha1, groups)
    }

    fn put_containers_hashed(
        cloud: &CloudSim,
        algo: HashAlgorithm,
        groups: &[&[&[u8]]],
    ) -> Vec<ChunkRef> {
        let mut store = ContainerStore::new(1 << 16);
        let mut refs = Vec::new();
        for group in groups {
            for ch in *group {
                let fp = Fingerprint::compute(algo, ch);
                let p = store.add_chunk(0, fp, ch);
                refs.push(ChunkRef {
                    fingerprint: fp,
                    len: ch.len() as u32,
                    container: p.container,
                    offset: p.offset,
                });
            }
            store.seal_all();
        }
        for sc in store.drain_sealed() {
            cloud.put(&container_key("test", sc.id), sc.bytes).unwrap();
        }
        refs
    }

    fn put_manifest(cloud: &CloudSim, files: Vec<(&str, Vec<ChunkRef>)>) {
        let mut recipes = Vec::new();
        for (path, chunks) in files {
            recipes.push(FileRecipe { path: path.into(), app: AppType::Txt, tiny: false, chunks });
        }
        cloud.put(&Manifest::key("test", 0), Manifest { session: 0, files: recipes }.encode()).unwrap();
    }

    /// Builds a one-session cloud by hand: two chunks in one container.
    fn setup() -> (CloudSim, Vec<Vec<u8>>) {
        let cloud = CloudSim::with_paper_defaults();
        let chunks = vec![b"hello world ".repeat(10), b"second chunk".repeat(20)];
        let refs = put_containers(&cloud, &[&[&chunks[0], &chunks[1]]]);
        put_manifest(&cloud, vec![("user/txt/a.txt", refs)]);
        (cloud, chunks)
    }

    fn pipelined(
        cloud: &CloudSim,
        session: u64,
        workers: usize,
    ) -> Result<Vec<RestoredFile>, BackupError> {
        restore_session_pipelined(
            cloud,
            "test",
            session,
            &RestoreOptions { workers },
            &RetryPolicy::default(),
            &Recorder::disabled(),
        )
    }

    #[test]
    fn restores_bit_exact() {
        let (cloud, chunks) = setup();
        let files = restore_session(&cloud, "test", 0).unwrap();
        assert_eq!(files.len(), 1);
        let expected: Vec<u8> = chunks.concat();
        assert_eq!(files[0].data, expected);
        assert_eq!(files[0].path, "user/txt/a.txt");
    }

    #[test]
    fn pipelined_matches_serial() {
        let (cloud, _) = setup();
        let serial = restore_session(&cloud, "test", 0).unwrap();
        for workers in [1, 2, 4] {
            assert_eq!(pipelined(&cloud, 0, workers).unwrap(), serial, "workers={workers}");
        }
    }

    #[test]
    fn pipelined_restore_file_finds_one_file() {
        let (cloud, chunks) = setup();
        let file = restore_file_pipelined(
            &cloud,
            "test",
            0,
            "user/txt/a.txt",
            &RestoreOptions::default(),
            &RetryPolicy::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(file.data, chunks.concat());
        let missing = restore_file_pipelined(
            &cloud,
            "test",
            0,
            "no/such/file",
            &RestoreOptions::default(),
            &RetryPolicy::default(),
            &Recorder::disabled(),
        );
        assert!(matches!(missing.unwrap_err(), BackupError::MissingObject(_)));
    }

    #[test]
    fn unknown_session() {
        let (cloud, _) = setup();
        assert_eq!(
            restore_session(&cloud, "test", 5).unwrap_err(),
            BackupError::UnknownSession(5)
        );
        assert_eq!(pipelined(&cloud, 5, 2).unwrap_err(), BackupError::UnknownSession(5));
    }

    #[test]
    fn missing_container_detected() {
        let (cloud, _) = setup();
        let keys = cloud.store().list("test/containers/");
        for k in keys {
            cloud.store().delete(&k).unwrap();
        }
        assert!(matches!(
            restore_session(&cloud, "test", 0).unwrap_err(),
            BackupError::MissingObject(_)
        ));
        for workers in [1, 4] {
            assert!(matches!(
                pipelined(&cloud, 0, workers).unwrap_err(),
                BackupError::MissingObject(_)
            ));
        }
    }

    #[test]
    fn corrupted_chunk_fails_verification() {
        let (cloud, _) = setup();
        let key = cloud.store().list("test/containers/")[0].clone();
        // Flip a byte inside the first chunk's payload (positions near the
        // container end can be harmless padding).
        let raw = cloud.store().get(&key).unwrap().unwrap();
        let parsed = ParsedContainer::parse(&raw).unwrap();
        let desc_len: usize = parsed.descriptors.iter().map(aadedupe_container::ChunkDescriptor::encoded_len).sum();
        let target = aadedupe_container::format::HEADER_LEN
            + desc_len
            + parsed.descriptors[0].offset as usize;
        cloud.store().corrupt(&key, target);
        let err = restore_session(&cloud, "test", 0).unwrap_err();
        assert!(
            matches!(err, BackupError::Verification(_) | BackupError::Corrupt(_)),
            "{err:?}"
        );
        for workers in [1, 4] {
            let perr = pipelined(&cloud, 0, workers).unwrap_err();
            assert!(
                matches!(perr, BackupError::Verification(_) | BackupError::Corrupt(_)),
                "workers={workers}: {perr:?}"
            );
        }
    }

    /// The batched re-hash must not change *which* failure a container
    /// reports: a corrupt chunk k alone, and a wrong recipe length at
    /// reference j with the corrupt chunk after it (k > j: the length error
    /// comes first) and before it (k < j: the pending batch is verified
    /// before the length error is returned).
    #[test]
    fn batched_verify_reports_the_error_serial_reports() {
        let chunks: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 256]).collect();
        let group: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        for algo in [HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            for (k, j) in [(5, None), (6, Some(2)), (2, Some(6))] {
                let cloud = CloudSim::with_paper_defaults();
                let mut refs = put_containers_hashed(&cloud, algo, &[&group]);
                if let Some(j) = j {
                    refs[j].len += 1;
                }
                put_manifest(&cloud, vec![("f", refs)]);
                let key = cloud.store().list("test/containers/")[0].clone();
                let parsed =
                    ParsedContainer::parse(&cloud.store().get(&key).unwrap().unwrap()).unwrap();
                let payload = aadedupe_container::format::HEADER_LEN
                    + parsed.descriptors.iter().map(ChunkDescriptor::encoded_len).sum::<usize>();
                cloud.store().corrupt(&key, payload + parsed.descriptors[k].offset as usize);

                let serial = restore_session(&cloud, "test", 0).unwrap_err();
                match j {
                    Some(j) if j < k => assert!(matches!(serial, BackupError::Corrupt(_))),
                    _ => assert!(matches!(serial, BackupError::Verification(_))),
                }
                for workers in [1, 4] {
                    let err = pipelined(&cloud, 0, workers).unwrap_err();
                    assert_eq!(err.to_string(), serial.to_string(), "{algo} k={k} j={j:?}");
                }
            }
        }
    }

    #[test]
    fn corrupted_manifest_detected() {
        let (cloud, _) = setup();
        let key = Manifest::key("test", 0);
        cloud.store().corrupt(&key, 2);
        assert!(matches!(
            restore_session(&cloud, "test", 0).unwrap_err(),
            BackupError::Corrupt(_)
        ));
        assert!(matches!(pipelined(&cloud, 0, 2).unwrap_err(), BackupError::Corrupt(_)));
    }

    #[test]
    fn planner_orders_dedups_and_places_references() {
        let fp = |b: &[u8]| Fingerprint::compute(HashAlgorithm::Md5, b);
        let chunk = |container: u64, offset: u32, data: &[u8]| ChunkRef {
            fingerprint: fp(data),
            len: data.len() as u32,
            container,
            offset,
        };
        let recipe = |path: &str, chunks: Vec<ChunkRef>| FileRecipe {
            path: path.into(),
            app: AppType::Txt,
            tiny: false,
            chunks,
        };
        // Containers first used in order 7, 3, 7 again (duplicate
        // reference), then 9; the second file re-reads 3.
        let f0 = recipe(
            "f0",
            vec![chunk(7, 0, b"aa"), chunk(3, 0, b"b"), chunk(7, 0, b"aa"), chunk(9, 4, b"ccc")],
        );
        let f1 = recipe("f1", vec![chunk(3, 8, b"dd"), chunk(3, 0, b"b")]);
        let order = plan_restore(&[&f0, &f1]);
        let ids: Vec<u64> = order.iter().map(|j| j.container).collect();
        assert_eq!(ids, vec![7, 3, 9], "first-use order");
        assert_eq!(order[0].refs, vec![(0, fp(b"aa"), 2)], "duplicate reference deduplicated");
        assert_eq!(order[0].dests, vec![(0, 0, 0), (0, 0, 3)]);
        assert_eq!(order[1].refs, vec![(0, fp(b"b"), 1), (8, fp(b"dd"), 2)]);
        assert_eq!(order[1].dests, vec![(0, 0, 2), (1, 1, 0), (0, 1, 2)]);
        assert_eq!(order[2].refs, vec![(4, fp(b"ccc"), 3)]);
        assert_eq!(order[2].dests, vec![(0, 0, 5)]);
    }

    #[test]
    fn interleaved_containers_fill_gaps_in_place() {
        // One file reads containers A, B, A: A's scatter appends its first
        // chunk, zero-fills B's gap and writes its second; B's scatter then
        // overwrites the gap.
        let cloud = CloudSim::with_paper_defaults();
        let (a, b) = (b"alpha ".repeat(50), b"bravo".repeat(30));
        let refs = put_containers(&cloud, &[&[&a], &[&b]]);
        assert_ne!(refs[0].container, refs[1].container);
        put_manifest(
            &cloud,
            vec![("aba", vec![refs[0], refs[1], refs[0]]), ("b", vec![refs[1]])],
        );
        let serial = restore_session(&cloud, "test", 0).unwrap();
        assert_eq!(serial[0].data, [a.as_slice(), &b, &a].concat());
        for workers in [1, 2, 4, 8] {
            assert_eq!(pipelined(&cloud, 0, workers).unwrap(), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_files_and_empty_sessions_restore_without_workers() {
        let cloud = CloudSim::with_paper_defaults();
        let refs = put_containers(&cloud, &[&[b"payload"]]);
        put_manifest(&cloud, vec![("empty", vec![]), ("full", refs), ("also-empty", vec![])]);
        let serial = restore_session(&cloud, "test", 0).unwrap();
        assert_eq!(serial[0].data, b"");
        assert_eq!(serial[1].data, b"payload");
        assert_eq!(pipelined(&cloud, 0, 4).unwrap(), serial);

        // No files at all: zero containers, so nothing may wait on a worker.
        put_manifest(&cloud, vec![]);
        for workers in [1, 4] {
            assert_eq!(pipelined(&cloud, 0, workers).unwrap(), vec![], "workers={workers}");
        }
    }

    #[test]
    fn second_recipe_length_for_one_chunk_is_corrupt() {
        // The same (container, offset, fingerprint) named with two recipe
        // lengths: the right one first, so only a per-length check sees it.
        let cloud = CloudSim::with_paper_defaults();
        let refs = put_containers(&cloud, &[&[b"twelve bytes"]]);
        let wrong = ChunkRef { len: 5, ..refs[0] };
        put_manifest(&cloud, vec![("f", vec![refs[0], wrong])]);
        let serial = restore_session(&cloud, "test", 0).unwrap_err();
        assert!(matches!(serial, BackupError::Corrupt(_)), "{serial:?}");
        for workers in [1, 2, 4, 8] {
            assert_eq!(pipelined(&cloud, 0, workers).unwrap_err(), serial, "workers={workers}");
        }
    }
}

//! Vacuum: threshold-driven container rewriting and space reclamation.
//!
//! Dead chunks accumulate *inside* live containers: deleting a session
//! only removes containers whose every chunk is dead, so under years of
//! churn the stored-to-live ratio erodes toward the worst case. The
//! vacuum pass reclaims that slack by rewriting containers whose live
//! ratio fell below a threshold (and combining undersized survivors of
//! the same stream) into fresh container ids, through the same
//! [`ContainerStore`] sessions append to, then repointing every manifest,
//! index entry and tiny-file reference at the new placements so restores
//! stay bit-exact.
//!
//! # Algorithm
//!
//! 1. **Analyze** ([`Stage::VacuumAnalyze`]): fetch every manifest,
//!    take the per-container live fingerprint sets from the engine's one
//!    liveness fold, fetch and parse every container, and classify each
//!    as *retained* (healthy), *dead* (no live chunk — deleted outright,
//!    which also covers crash leftovers and containers an earlier sweep
//!    failed to delete), or a *rewrite candidate*
//!    (live ratio < `ratio`, or undersized with a same-stream partner to
//!    combine with).
//! 2. **Rewrite** ([`Stage::VacuumRewrite`]): per stream, lend the stream
//!    out of the engine's store ([`ContainerStore::split_stream`]), append
//!    every candidate's surviving chunks in container-id order, seal, and
//!    merge the stream back — building the relocation map `(old container,
//!    old offset, fingerprint) → new placement`. Fresh ids continue the
//!    stream's own sequence, containers roll at the configured size and an
//!    oversized chunk gets a container of its own, exactly as in a
//!    session. A dry run packs into a detached store instead, so the
//!    engine's sequences stay as they were.
//! 3. **Commit** ([`Stage::VacuumCommit`]), in crash-consistent order:
//!    **new containers → rewritten manifests → index snapshot →
//!    old-container deletes**. A crash at any operation leaves every
//!    retained session restorable: new containers without manifests are
//!    orphans (swept on reopen); a partially rewritten manifest set mixes
//!    old and new pointers while *both* copies still exist; the snapshot
//!    lands before any delete so recovery never resurrects pointers to
//!    removed containers; and old containers are unreferenced by the time
//!    they are deleted, so a missed delete is ordinary orphan garbage
//!    the listing still shows. Rerunning vacuum after any interruption
//!    converges: the analysis starts from the cloud, and half-written
//!    rewrites are either referenced (kept) or dead (deleted).
//!
//! Liveness is keyed by fingerprint per container: if the same
//! fingerprint occupies two offsets of one container (possible only on the
//! tiny stream, which skips dedup), both copies survive and both slots are
//! relocated.

use std::collections::BTreeMap;

use aadedupe_container::{decompose_id, ContainerStore, ParsedContainer, Placement};
use aadedupe_hashing::Fingerprint;
use aadedupe_obs::{Counter, Recorder, Stage};

use crate::engine::{snapshot_key, snapshots_prefix, AaDedupe, Liveness};
use crate::recipe::Manifest;
use crate::restore::{container_id, container_key, containers_prefix};
use crate::scheme::BackupError;

/// Tuning knobs for one vacuum pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VacuumOptions {
    /// Rewrite containers whose live-byte ratio (live payload bytes over
    /// total payload bytes) is strictly below this threshold. `0.0`
    /// rewrites nothing on ratio grounds; `1.0` rewrites any container
    /// with at least one dead byte.
    ///
    /// Undersized containers — live payload below half the configured
    /// container size — are rewritten whatever the ratio when their stream
    /// has at least two of them, so their survivors are combined.
    pub ratio: f64,
    /// Analyze and plan only: report what a real pass would do without
    /// touching the cloud namespace or the engine's in-memory state.
    pub dry_run: bool,
}

impl Default for VacuumOptions {
    fn default() -> Self {
        VacuumOptions { ratio: 0.5, dry_run: false }
    }
}

/// What one vacuum pass did (or, for a dry run, would do).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Containers inspected.
    pub containers_total: usize,
    /// Containers repacked into fresh ids.
    pub containers_rewritten: usize,
    /// Fresh containers produced by the rewrite.
    pub containers_created: usize,
    /// Old containers removed (rewritten sources and fully dead ones).
    pub containers_deleted: usize,
    /// Superseded index snapshots pruned (recovery only ever reads the
    /// newest; older ones are pure garbage).
    pub snapshots_pruned: usize,
    /// Manifests whose chunk pointers were rewritten.
    pub manifests_rewritten: usize,
    /// Chunk slots repointed at new placements.
    pub relocations: usize,
    /// Stored bytes in the namespace before the pass.
    pub stored_bytes_before: u64,
    /// Stored bytes after (equal to `stored_bytes_before` on a dry run).
    pub stored_bytes_after: u64,
    /// Container bytes reclaimed: old container sizes minus rewritten
    /// sizes (estimated identically on a dry run).
    pub bytes_reclaimed: u64,
    /// Whether this was a dry run.
    pub dry_run: bool,
}

/// One container's analysis result.
struct Candidate {
    id: u64,
    parsed: ParsedContainer,
    /// Serialized size in the cloud (what a delete reclaims).
    stored_len: u64,
}

/// How the analysis classified a container.
enum Disposition {
    /// Healthy: left in place.
    Retain,
    /// No live chunk: deleted without a rewrite.
    Dead,
    /// Repacked together with its stream's other candidates.
    Rewrite,
}

impl AaDedupe {
    /// Runs one vacuum pass over the engine's namespace. Returns the
    /// report; on a [dry run](VacuumOptions::dry_run) neither the cloud
    /// nor the engine state is touched.
    ///
    /// Fails fast on a poisoned engine (its in-memory state diverged
    /// from the cloud, so liveness computed from it is untrustworthy).
    /// A cloud failure during commit leaves every retained session
    /// restorable — see the module docs for the order-of-operations
    /// argument — and the engine's in-memory state is only mutated after
    /// the manifests (the commit point of the pass) are fully rewritten.
    pub fn vacuum(&mut self, opts: &VacuumOptions) -> Result<VacuumReport, BackupError> {
        if let Some(why) = &self.poisoned {
            return Err(BackupError::Poisoned(why.clone()));
        }
        let rec = std::sync::Arc::clone(&self.config.recorder);
        let scheme = self.config.scheme_key.clone();
        let mut report = VacuumReport {
            dry_run: opts.dry_run,
            stored_bytes_before: self.cloud.store().stored_bytes(),
            ..VacuumReport::default()
        };

        // ---- Phase 1: analyze -------------------------------------------
        let analyzing = rec.start();
        // Manifests, fetched and decoded once; rewritten in place later.
        let mut manifests: BTreeMap<u64, Manifest> = BTreeMap::new();
        for manifest in self.committed_manifests(None) {
            let manifest = manifest?;
            manifests.insert(manifest.session, manifest);
        }
        // Live fingerprints per container: the fold `open` installs.
        let live_fps = Liveness::of(manifests.values()).containers;
        // Every container in the namespace, parsed.
        let mut containers: BTreeMap<u64, Candidate> = BTreeMap::new();
        for key in self.cloud.store().list(&containers_prefix(&scheme)) {
            let Some(id) = container_id(&key) else { continue };
            let (bytes, _t) = self.cloud.get(&key)?;
            let bytes = bytes.ok_or_else(|| BackupError::MissingObject(key.clone()))?;
            let stored_len = bytes.len() as u64;
            let parsed = ParsedContainer::parse(&bytes)
                .map_err(|e| BackupError::Corrupt(format!("container {id:012}: {e}")))?;
            containers.insert(id, Candidate { id, parsed, stored_len });
        }
        report.containers_total = containers.len();

        // Classify. The undersized rule needs per-stream counts first.
        let empty = std::collections::BTreeSet::new();
        let live_payload = |c: &Candidate| -> u64 {
            let live = live_fps.get(&c.id).unwrap_or(&empty);
            c.parsed
                .descriptors
                .iter()
                .filter(|d| live.contains(&d.fingerprint))
                .map(|d| d.len as u64)
                .sum()
        };
        let half_size = (self.config.container_size as u64) / 2;
        let mut undersized_per_stream: BTreeMap<u32, usize> = BTreeMap::new();
        for c in containers.values() {
            let live = live_payload(c);
            if live > 0 && live < half_size {
                *undersized_per_stream.entry(decompose_id(c.id).0).or_insert(0) += 1;
            }
        }
        let mut dispositions: BTreeMap<u64, Disposition> = BTreeMap::new();
        for c in containers.values() {
            let live = live_payload(c);
            let total: u64 = c.parsed.descriptors.iter().map(|d| d.len as u64).sum();
            let below_ratio = total > 0 && (live as f64) / (total as f64) < opts.ratio;
            let combinable = live < half_size
                && undersized_per_stream.get(&decompose_id(c.id).0).copied().unwrap_or(0) >= 2;
            let disposition = if live == 0 {
                Disposition::Dead
            } else if below_ratio || combinable {
                Disposition::Rewrite
            } else {
                Disposition::Retain
            };
            dispositions.insert(c.id, disposition);
        }
        rec.record(Stage::VacuumAnalyze, analyzing);

        // ---- Phase 2: rewrite (in memory) -------------------------------
        let rewriting = rec.start();
        // Rewrite candidates per stream, in id order.
        let mut by_stream: BTreeMap<u32, Vec<&Candidate>> = BTreeMap::new();
        for c in containers.values() {
            if matches!(dispositions.get(&c.id), Some(Disposition::Rewrite)) {
                by_stream.entry(decompose_id(c.id).0).or_default().push(c);
            }
        }
        let mut new_containers: Vec<(u64, Vec<u8>)> = Vec::new();
        // (old container, old offset, fingerprint) -> new placement.
        let mut relocations: BTreeMap<(u64, u32, Fingerprint), Placement> = BTreeMap::new();
        for (&stream, candidates) in &by_stream {
            // The stream is lent out of the engine's own store, so fresh ids
            // continue its sequence and a later session can never mint them
            // again; a dry run must not advance that sequence.
            let mut packer = if opts.dry_run {
                ContainerStore::new(self.config.container_size)
            } else {
                self.containers.split_stream(stream)
            };
            // Vacuum appends are not session traffic.
            packer.set_recorder(Recorder::shared_disabled());
            for c in candidates {
                let live = live_fps.get(&c.id).unwrap_or(&empty);
                for d in c.parsed.descriptors.iter().filter(|d| live.contains(&d.fingerprint)) {
                    let placement =
                        packer.add_chunk(stream, d.fingerprint, c.parsed.chunk_bytes(d));
                    relocations.insert((c.id, d.offset, d.fingerprint), placement);
                }
            }
            packer.seal_stream(stream);
            new_containers.extend(packer.drain_sealed().into_iter().map(|s| (s.id, s.bytes)));
            if !opts.dry_run {
                self.containers.merge(packer);
            }
        }
        new_containers.sort_by_key(|(id, _)| *id);
        report.containers_rewritten = by_stream.values().map(Vec::len).sum();
        report.containers_created = new_containers.len();
        report.relocations = relocations.len();

        // Rewrite manifests in memory, remembering which changed.
        let mut dirty_manifests: Vec<u64> = Vec::new();
        for (session, manifest) in &mut manifests {
            let mut changed = false;
            for f in &mut manifest.files {
                for c in &mut f.chunks {
                    if let Some(p) = relocations.get(&(c.container, c.offset, c.fingerprint)) {
                        c.container = p.container;
                        c.offset = p.offset;
                        changed = true;
                    }
                }
            }
            if changed {
                dirty_manifests.push(*session);
            }
        }
        report.manifests_rewritten = dirty_manifests.len();

        // Old containers to delete, in id order: rewritten sources and
        // fully dead ones.
        let doomed: Vec<u64> = dispositions
            .iter()
            .filter(|(_, d)| !matches!(d, Disposition::Retain))
            .map(|(&id, _)| id)
            .collect();
        let reclaimable: u64 = doomed
            .iter()
            .filter_map(|id| containers.get(id).map(|c| c.stored_len))
            .sum();
        let new_bytes: u64 = new_containers.iter().map(|(_, b)| b.len() as u64).sum();
        report.bytes_reclaimed = reclaimable.saturating_sub(new_bytes);
        rec.record(Stage::VacuumRewrite, rewriting);

        if opts.dry_run {
            report.containers_deleted = doomed.len();
            report.stored_bytes_after = report.stored_bytes_before;
            return Ok(report);
        }

        // ---- Phase 3: commit --------------------------------------------
        // Order: new containers -> rewritten manifests -> index snapshot
        // -> old-container deletes. See the module docs for why a crash
        // at any operation leaves every retained session restorable.
        let committing = rec.start();
        let mut retry_budget = self.config.retry.session_retry_budget;
        let mut op_seq = 0u64;
        for (id, bytes) in &new_containers {
            op_seq += 1;
            rec.count(Counter::UploadBytes, bytes.len() as u64);
            rec.count(Counter::UploadObjects, 1);
            // A failure here leaves only orphan containers (no manifest
            // references them yet) and no in-memory mutation: the engine
            // remains fully usable and a rerun converges.
            self.put_with_retry(&container_key(&scheme, *id), bytes, &mut retry_budget, op_seq)?;
        }
        for session in &dirty_manifests {
            // aalint: allow(panic-path) -- dirty_manifests holds keys of manifests by construction
            let manifest = &manifests[session];
            let bytes = manifest.encode();
            op_seq += 1;
            rec.count(Counter::UploadBytes, bytes.len() as u64);
            rec.count(Counter::UploadObjects, 1);
            // A failure mid-way mixes old and new pointers across
            // manifests; both container generations still exist, so every
            // session stays restorable and in-memory state is untouched.
            self.put_with_retry(&Manifest::key(&scheme, *session), &bytes, &mut retry_budget, op_seq)?;
        }

        // Manifests are fully rewritten — the pass is committed. Apply the
        // relocation map to the in-memory state (infallible) before any
        // operation that can still fail.
        self.apply_relocations(&manifests, &relocations);

        // Fresh index snapshot, keyed like a session snapshot so recovery
        // picks it up as the latest. A failure here is reported but the
        // pass is committed; recovery reconciles against the manifests
        // anyway, and the old containers survive until the next pass.
        let snap = aadedupe_index::codec::encode_app_aware(&self.index);
        op_seq += 1;
        rec.count(Counter::UploadBytes, snap.len() as u64);
        rec.count(Counter::UploadObjects, 1);
        let skey = snapshot_key(&scheme, self.sessions);
        if let Err(e) = self.put_with_retry(&skey, &snap, &mut retry_budget, op_seq) {
            rec.record(Stage::VacuumCommit, committing);
            return Err(BackupError::Cloud(format!(
                "vacuum committed, but index snapshot upload failed: {e}"
            )));
        }

        // Old containers are unreferenced now; deletes are best-effort
        // garbage collection exactly like `delete_session`'s: one that
        // fails stays listed, and the next pass finds it dead.
        for id in doomed {
            if self.cloud.delete(&container_key(&scheme, id)).is_ok() {
                report.containers_deleted += 1;
            }
        }
        // Superseded index snapshots: the fresh one is durable, recovery
        // always reads the newest key, so every older snapshot is garbage.
        // Best-effort like the container deletes — a missed one is pruned
        // by the next pass.
        let mut snaps = self.cloud.store().list(&snapshots_prefix(&scheme));
        snaps.sort_unstable();
        for key in &snaps {
            if *key == skey {
                continue;
            }
            // Both arms spelled out: aalint's L7 wants a storage result's
            // failure arm visible, not folded into an `if let`.
            #[allow(clippy::single_match)]
            match self.cloud.delete(key) {
                Ok(true) => report.snapshots_pruned += 1,
                // A missed or failed snapshot delete is pruned by the
                // next pass.
                Ok(false) | Err(_) => {}
            }
        }
        rec.record(Stage::VacuumCommit, committing);

        rec.count(Counter::ContainersRewritten, report.containers_rewritten as u64);
        rec.count(Counter::BytesReclaimed, report.bytes_reclaimed);
        report.stored_bytes_after = self.cloud.store().stored_bytes();
        Ok(report)
    }

    /// Applies the relocation map to the in-memory state: index
    /// placements (per-app) and the tiny-file cache. Infallible; called
    /// only after the rewritten manifests — the pass's commit point — are
    /// durable.
    fn apply_relocations(
        &mut self,
        manifests: &BTreeMap<u64, Manifest>,
        relocations: &BTreeMap<(u64, u32, Fingerprint), Placement>,
    ) {
        // Index entries hold one placement per (app, fingerprint); the
        // rewritten manifests carry the new placement for every live
        // chunk, so walking them repoints exactly the moved entries.
        for manifest in manifests.values() {
            for f in &manifest.files {
                if f.tiny {
                    continue;
                }
                for c in &f.chunks {
                    self.index.update_placement(f.app, &c.fingerprint, c.container, c.offset);
                }
            }
        }
        // Tiny-file carry-forward references must follow their chunks or
        // the next unchanged tiny file would reference a deleted
        // container.
        let mut paths: Vec<String> = self.tiny_seen.keys().cloned().collect();
        paths.sort_unstable();
        for path in paths {
            if let Some((_token, reference)) = self.tiny_seen.get_mut(&path) {
                if let Some(p) =
                    relocations.get(&(reference.container, reference.offset, reference.fingerprint))
                {
                    reference.container = p.container;
                    reference.offset = p.offset;
                }
            }
        }
    }
}

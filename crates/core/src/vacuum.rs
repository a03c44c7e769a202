//! Vacuum: threshold-driven container rewriting and space reclamation.
//!
//! Dead chunks accumulate *inside* live containers: deleting a session
//! only removes containers whose every chunk is dead, so under years of
//! churn the stored-to-live ratio erodes toward the worst case. The
//! vacuum pass reclaims that slack by rewriting containers whose live
//! ratio fell below a threshold (and combining undersized survivors of
//! the same stream) into fresh container ids, through the same
//! [`ContainerStore`] sessions append to, then repointing every manifest
//! and tiny-file reference at the new placements so restores stay
//! bit-exact. The index follows the rewritten manifests the way it
//! follows them after `open` and `delete_session`: it is their fold.
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
//! 2. **Rewrite** ([`Stage::VacuumRewrite`]): per stream, append every
//!    candidate's surviving chunks in container-id order to a detached
//!    [`ContainerStore`] and seal — building the relocation map `(old
//!    container, old offset, fingerprint) → new placement`. The detached
//!    store is seeded from the engine's per-stream sequences, so fresh ids
//!    continue each stream's own; containers roll at the configured size
//!    and an oversized chunk gets a container of its own, exactly as in a
//!    session. Dry and real passes pack alike; only a real pass advances
//!    the engine's sequences past the minted ids, before its first upload.
//! 3. **Commit** ([`Stage::VacuumCommit`]), in crash-consistent order:
//!    **new containers → rewritten manifests → settle**, then every index
//!    snapshot but the newest is pruned. Once the manifests are written,
//!    the tiny-file cache is repointed through the relocation map and the
//!    engine settles on the rewritten manifests exactly as `open` and
//!    `delete_session` settle on theirs: the index becomes their fold, and
//!    one listing sweeps every container they no longer reference — the
//!    rewritten sources and the dead ones. A crash at any
//!    operation leaves every retained session restorable: new containers
//!    without manifests are orphans (swept on reopen); a partially
//!    rewritten manifest set mixes old and new pointers while *both*
//!    copies still exist; and old containers are unreferenced by the time
//!    the sweep deletes them, so a missed delete is ordinary orphan garbage
//!    the listing still shows. Rerunning vacuum after any interruption
//!    converges: the analysis starts from the cloud, and half-written
//!    rewrites are either referenced (kept) or dead (deleted). Vacuum
//!    uploads no snapshot: nothing reads one, and the next session's
//!    sync uploads the relocated index.
//!
//! Liveness is keyed by fingerprint per container: if the same
//! fingerprint occupies two offsets of one container (possible only on the
//! tiny stream, which skips dedup), both copies survive and both slots are
//! relocated.

use std::collections::{BTreeMap, BTreeSet};

use aadedupe_container::{decompose_id, ContainerStore, ParsedContainer, Placement};
use aadedupe_hashing::Fingerprint;
use aadedupe_obs::{Counter, Stage};

use crate::engine::{snapshots_prefix, AaDedupe, Liveness};
use crate::recipe::Manifest;
use crate::restore::{container_id, container_key, containers_prefix};
use crate::retry::Transfer;
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
    /// Old containers removed (rewritten sources and fully dead ones): on
    /// a real pass, what the closing sweep deleted; on a dry run, what it
    /// would delete.
    pub containers_deleted: usize,
    /// Index snapshots pruned: every one but the newest (nothing reads
    /// them; the newest is the periodic sync's latest upload).
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
    /// After a real pass the engine holds what [`AaDedupe::open`] over the
    /// same store would build.
    pub fn vacuum(&mut self, opts: &VacuumOptions) -> Result<VacuumReport, BackupError> {
        if let Some(why) = &self.poisoned {
            return Err(BackupError::Poisoned(why.clone()));
        }
        let rec = std::sync::Arc::clone(&self.config.recorder);
        let scheme = self.config.scheme_key.clone();
        // The pass's one handle: its reads and its uploads share a budget.
        let transfer = Transfer::new(&self.cloud, self.config.retry, &rec);
        let mut report = VacuumReport {
            dry_run: opts.dry_run,
            stored_bytes_before: self.cloud.store().stored_bytes(),
            ..VacuumReport::default()
        };

        // ---- Phase 1: analyze -------------------------------------------
        let analyzing = rec.start();
        // Manifests, fetched and decoded once; rewritten in place later.
        let mut manifests: BTreeMap<u64, Manifest> = BTreeMap::new();
        for manifest in self.committed_manifests(&transfer, None) {
            let manifest = manifest?;
            manifests.insert(manifest.session, manifest);
        }
        // Live fingerprints per container: the fold `open` installs.
        let live_fps = Liveness::of(manifests.values()).containers;
        // Every container in the namespace, parsed.
        let mut containers: BTreeMap<u64, Candidate> = BTreeMap::new();
        for key in self.cloud.store().list(&containers_prefix(&scheme)) {
            let Some(id) = container_id(&key) else { continue };
            let bytes = transfer.get(&key, id)?;
            let bytes = bytes.ok_or_else(|| BackupError::MissingObject(key.clone()))?;
            let stored_len = bytes.len() as u64;
            let parsed = ParsedContainer::from_vec(bytes)
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
        // (old container, old offset, fingerprint) -> new placement.
        let mut relocations: BTreeMap<(u64, u32, Fingerprint), Placement> = BTreeMap::new();
        // One detached store packs every stream, dry run or not; its
        // recorder is off, as vacuum appends are not session traffic.
        // Seeded from the engine's sequences, its fresh ids continue each
        // stream's own.
        let mut packer = ContainerStore::new(self.config.container_size);
        for (&stream, candidates) in &by_stream {
            packer.resume_stream_ids(stream, self.containers.next_seq(stream));
            for c in candidates {
                let live = live_fps.get(&c.id).unwrap_or(&empty);
                for d in c.parsed.descriptors.iter().filter(|d| live.contains(&d.fingerprint)) {
                    let placement =
                        packer.add_chunk(stream, d.fingerprint, c.parsed.chunk_bytes(d));
                    relocations.insert((c.id, d.offset, d.fingerprint), placement);
                }
            }
            packer.seal_stream(stream);
        }
        let mut new_containers = packer.drain_sealed();
        new_containers.sort_by_key(|s| s.id);
        report.containers_rewritten = by_stream.values().map(Vec::len).sum();
        report.containers_created = new_containers.len();
        report.relocations = relocations.len();

        // Rewrite manifests in memory, remembering which changed.
        let mut dirty_manifests: BTreeSet<u64> = BTreeSet::new();
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
                dirty_manifests.insert(*session);
            }
        }
        report.manifests_rewritten = dirty_manifests.len();

        // Old containers the sweep will delete: rewritten sources and
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
        let new_bytes: u64 = new_containers.iter().map(|s| s.bytes.len() as u64).sum();
        report.bytes_reclaimed = reclaimable.saturating_sub(new_bytes);
        rec.record(Stage::VacuumRewrite, rewriting);

        if opts.dry_run {
            report.containers_deleted = doomed.len();
            report.stored_bytes_after = report.stored_bytes_before;
            return Ok(report);
        }

        // ---- Phase 3: commit --------------------------------------------
        // Order: new containers -> rewritten manifests -> settle. See the
        // module docs for why a crash at any operation leaves every
        // retained session restorable.
        let committing = rec.start();
        // Before the first upload, the engine's sequences move past every
        // id the packer minted, so a later session can never mint one
        // again, whether or not its container landed.
        for &stream in by_stream.keys() {
            self.containers.resume_stream_ids(stream, packer.next_seq(stream));
        }
        let mut op = 0u64;
        for sealed in new_containers {
            op += 1;
            // A failure here leaves only orphan containers (no manifest
            // references them yet) and the engine fully usable: a rerun
            // converges.
            transfer.put(&container_key(&scheme, sealed.id), sealed.bytes, op)?;
        }
        for (session, manifest) in manifests.iter().filter(|(s, _)| dirty_manifests.contains(s)) {
            op += 1;
            // A failure mid-way mixes old and new pointers across
            // manifests; both container generations still exist, so every
            // session stays restorable and in-memory state is untouched.
            transfer.put(&Manifest::key(&scheme, *session), manifest.encode(), op)?;
        }

        // Manifests are fully rewritten — the pass is committed. Tiny-file
        // carry-forward references must follow their chunks or the next
        // unchanged tiny file would reference a deleted container.
        #[expect(clippy::disallowed_methods, reason = "sorted on the next statement")]
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
        // Then the engine settles on the rewritten manifests, as `open` and
        // `delete_session` do on theirs. The old containers are
        // unreferenced now, and the sweep is best-effort garbage collection
        // exactly like `delete_session`'s: a delete that fails stays
        // listed, and the next pass finds it dead.
        let (deleted, Ok(()) | Err(_)) = self.settle(Liveness::of(manifests.values()));
        report.containers_deleted = deleted as usize;
        // Every index snapshot but the newest: nothing reads them.
        // Best-effort like the container deletes — a missed one is pruned
        // by the next pass.
        let mut snaps = self.cloud.store().list(&snapshots_prefix(&scheme));
        snaps.sort_unstable();
        snaps.pop();
        for key in &snaps {
            #[expect(
                clippy::single_match,
                reason = "a storage error is dropped only in a visible arm, never folded into an `if let`"
            )]
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
}

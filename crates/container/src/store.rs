//! Open-container management and sealing: the one producer of container
//! bytes, for backup sessions and vacuum rewrites alike.
//!
//! "An open chunk container is maintained for each incoming backup data
//! stream, appending each new chunk or tiny file to the open container
//! corresponding to the stream it is part of. When a container fills up
//! with a predefined fixed size, a new one is opened up." (paper §III.F)
//!
//! The [`ContainerStore`] implements exactly that: callers name a stream
//! (AA-Dedupe uses one stream per application type, preserving chunk
//! locality for restores), and the store routes each chunk to that stream's
//! open container, sealing and queueing full containers for upload.
//!
//! Container ids are *per-stream*: id = `stream << STREAM_ID_SHIFT | seq`,
//! with an independent sequence counter per stream ([`compose_id`] /
//! [`decompose_id`]). A stream's container layout therefore depends only
//! on that stream's own append sequence — never on how appends to
//! different streams interleave. As long as each stream's chunks arrive in
//! a fixed order, the produced containers are byte-identical. Vacuum relies
//! on it: it repacks into a detached store seeded with the stream's
//! [`next_seq`](ContainerStore::next_seq).

use crate::builder::{fits_empty, ContainerBuilder};
use crate::format::{encode_container, ChunkDescriptor};
use aadedupe_hashing::Fingerprint;
use aadedupe_obs::{Counter, Recorder, Stage};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bit position splitting a container id into (stream, sequence): the low
/// 40 bits count containers within a stream (over a trillion per stream),
/// the high bits carry the stream id.
pub const STREAM_ID_SHIFT: u32 = 40;

/// Builds a container id from a stream id and that stream's sequence
/// number.
pub fn compose_id(stream: u32, seq: u64) -> u64 {
    debug_assert!(seq < 1 << STREAM_ID_SHIFT, "stream sequence overflow");
    ((stream as u64) << STREAM_ID_SHIFT) | seq
}

/// Splits a container id into (stream, sequence). Ids minted before the
/// per-stream scheme decompose as stream 0, which is harmless: resuming
/// advances stream 0 past them and new ids never collide with them.
pub fn decompose_id(id: u64) -> (u32, u64) {
    ((id >> STREAM_ID_SHIFT) as u32, id & ((1 << STREAM_ID_SHIFT) - 1))
}

/// A sealed container ready for upload.
#[derive(Debug, Clone)]
pub struct SealedContainer {
    /// Container identifier (matches the id embedded in `bytes`).
    pub id: u64,
    /// Serialized container body (padding is never shipped).
    pub bytes: Vec<u8>,
    /// Notional fixed-slot padding a padded on-disk layout would add.
    pub padding: usize,
    /// Number of chunks inside.
    pub chunks: usize,
}

/// Where a chunk was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The container that will hold (or holds) the chunk.
    pub container: u64,
    /// Offset within that container's data section.
    pub offset: u32,
}

/// Cumulative container statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Containers sealed (including oversized dedicated ones).
    pub sealed: u64,
    /// Of which, oversized dedicated single-chunk containers.
    pub oversized: u64,
    /// Total chunk payload bytes written.
    pub data_bytes: u64,
    /// Total padding bytes written.
    pub padding_bytes: u64,
    /// Total chunks placed.
    pub chunks: u64,
}

/// Manages one open container per stream plus the sealed-output queue.
pub struct ContainerStore {
    container_size: usize,
    /// Next sequence number per stream (ids are per-stream, see
    /// [`compose_id`]).
    next_seq: BTreeMap<u32, u64>,
    open: BTreeMap<u32, ContainerBuilder>,
    sealed: Vec<SealedContainer>,
    stats: StoreStats,
    recorder: Arc<Recorder>,
}

impl ContainerStore {
    /// Store producing containers of the given fixed size.
    pub fn new(container_size: usize) -> Self {
        ContainerStore {
            container_size,
            next_seq: BTreeMap::new(),
            open: BTreeMap::new(),
            sealed: Vec::new(),
            stats: StoreStats::default(),
            recorder: Recorder::shared_disabled(),
        }
    }

    /// Routes this store's append/seal observations to `recorder`.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// The fixed container size.
    pub fn container_size(&self) -> usize {
        self.container_size
    }

    /// Ensures `stream`'s future sequence numbers start at or after
    /// `next_seq` — the per-stream resume used after decomposing existing
    /// container ids with [`decompose_id`].
    pub fn resume_stream_ids(&mut self, stream: u32, next_seq: u64) {
        let seq = self.next_seq.entry(stream).or_insert(0);
        *seq = (*seq).max(next_seq);
    }

    /// The sequence number `stream`'s next container takes.
    pub fn next_seq(&self, stream: u32) -> u64 {
        self.next_seq.get(&stream).copied().unwrap_or(0)
    }

    /// Field-level id minting so [`add_chunk`](Self::add_chunk) can mint
    /// inside an `open.entry()` closure (disjoint field borrows).
    fn fresh_id(next_seq: &mut BTreeMap<u32, u64>, stream: u32) -> u64 {
        let seq = next_seq.entry(stream).or_insert(0);
        *seq += 1;
        compose_id(stream, *seq - 1)
    }

    /// Adds a chunk to `stream`'s open container, sealing/rolling as
    /// needed. Oversized chunks get a dedicated container sealed
    /// immediately.
    pub fn add_chunk(&mut self, stream: u32, fp: Fingerprint, chunk: &[u8]) -> Placement {
        let started = self.recorder.start();
        self.recorder.count(Counter::ContainerAppends, 1);
        self.recorder.count(Counter::StoredBytes, chunk.len() as u64);
        self.stats.chunks += 1;
        self.stats.data_bytes += chunk.len() as u64;
        let digest_len = fp.algorithm().digest_len();

        // Oversized chunk: dedicated container, sealed at once, unpadded —
        // encoded straight into one buffer of exactly its size.
        if !fits_empty(self.container_size, chunk.len(), digest_len) {
            let id = Self::fresh_id(&mut self.next_seq, stream);
            let descriptor = ChunkDescriptor { fingerprint: fp, offset: 0, len: chunk.len() as u32 };
            let bytes = encode_container(id, &[descriptor], chunk, None);
            self.stats.sealed += 1;
            self.stats.oversized += 1;
            self.recorder.count(Counter::ContainersSealed, 1);
            self.recorder.count(Counter::SealedBytes, bytes.len() as u64);
            self.sealed.push(SealedContainer { id, bytes, padding: 0, chunks: 1 });
            self.recorder.record(Stage::ContainerAppend, started);
            return Placement { container: id, offset: 0 };
        }

        // Roll the stream's open container if the chunk doesn't fit.
        let needs_roll =
            self.open.get(&stream).is_some_and(|b| !b.fits(chunk.len(), digest_len));
        if needs_roll {
            self.seal_stream(stream);
        }
        let (next_seq, size) = (&mut self.next_seq, self.container_size);
        let builder = self
            .open
            .entry(stream)
            .or_insert_with(|| ContainerBuilder::new(Self::fresh_id(next_seq, stream), size));
        let id = builder.container_id();
        let offset = builder.append(fp, chunk);
        self.recorder.record(Stage::ContainerAppend, started);
        Placement { container: id, offset }
    }

    /// Seals `stream`'s open container (if any); the notional slot fill
    /// is accounted in [`StoreStats::padding_bytes`].
    pub fn seal_stream(&mut self, stream: u32) {
        if let Some(b) = self.open.remove(&stream) {
            if b.is_empty() {
                return;
            }
            let started = self.recorder.start();
            let id = b.container_id();
            let chunks = b.chunk_count();
            let (bytes, padding) = b.seal();
            self.stats.sealed += 1;
            self.stats.padding_bytes += padding as u64;
            self.recorder.count(Counter::ContainersSealed, 1);
            self.recorder.count(Counter::SealedBytes, bytes.len() as u64);
            self.sealed.push(SealedContainer { id, bytes, padding, chunks });
            self.recorder.record(Stage::ContainerSeal, started);
        }
    }

    /// Seals every open container (end of a backup session).
    pub fn seal_all(&mut self) {
        let streams: Vec<u32> = self.open.keys().copied().collect();
        for s in streams {
            self.seal_stream(s);
        }
    }

    /// Takes the queue of sealed containers (ready for upload).
    pub fn drain_sealed(&mut self) -> Vec<SealedContainer> {
        std::mem::take(&mut self.sealed)
    }

    /// Sealed containers waiting to be drained.
    pub fn pending(&self) -> usize {
        self.sealed.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ParsedContainer;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(data: &[u8]) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, data)
    }

    #[test]
    fn fills_and_rolls_containers() {
        let mut store = ContainerStore::new(4096);
        let chunk = vec![3u8; 1000];
        let mut placements = Vec::new();
        for _ in 0..10 {
            placements.push(store.add_chunk(0, fp(&chunk), &chunk));
        }
        store.seal_all();
        let sealed = store.drain_sealed();
        assert!(sealed.len() >= 3, "10 KB of chunks in 4 KiB containers");
        // Every placement must resolve inside its sealed container.
        for p in &placements {
            let sc = sealed.iter().find(|s| s.id == p.container).expect("container sealed");
            let parsed = ParsedContainer::parse(&sc.bytes).unwrap();
            let d = parsed
                .descriptors
                .iter()
                .find(|d| d.offset == p.offset)
                .expect("offset present");
            assert_eq!(parsed.chunk_bytes(d), &chunk[..]);
        }
    }

    #[test]
    fn streams_are_isolated() {
        let mut store = ContainerStore::new(4096);
        let a = store.add_chunk(1, fp(b"stream-a"), b"stream-a");
        let b = store.add_chunk(2, fp(b"stream-b"), b"stream-b");
        assert_ne!(a.container, b.container, "distinct streams use distinct containers");
        store.seal_all();
        assert_eq!(store.drain_sealed().len(), 2);
    }

    /// The largest chunk an empty container holds goes into the stream's
    /// open container; one byte more gets a dedicated one — at every
    /// digest length the policy uses.
    #[test]
    fn oversized_boundary_is_exact_for_every_digest_length() {
        use crate::format::HEADER_LEN;
        let size = 4096;
        for alg in [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            let digest_len = alg.digest_len();
            assert!([12, 16, 20].contains(&digest_len));
            // Header, then one descriptor: algorithm tag, digest, offset, length.
            let largest = size - HEADER_LEN - (1 + digest_len + 4 + 4);
            let mut store = ContainerStore::new(size);

            let chunk = vec![7u8; largest];
            let fits = store.add_chunk(0, Fingerprint::compute(alg, &chunk), &chunk);
            assert_eq!((store.stats().oversized, store.pending()), (0, 0), "{alg:?}: stays open");
            store.seal_all();
            let sealed = store.drain_sealed();
            assert_eq!((sealed[0].id, sealed[0].bytes.len(), sealed[0].padding), (fits.container, size, 0));

            let chunk = vec![7u8; largest + 1];
            let over = store.add_chunk(0, Fingerprint::compute(alg, &chunk), &chunk);
            assert_eq!((store.stats().oversized, store.pending()), (1, 1), "{alg:?}: sealed at once");
            let sealed = store.drain_sealed();
            assert_eq!((sealed[0].id, sealed[0].bytes.len(), sealed[0].padding), (over.container, size + 1, 0));
        }
    }

    #[test]
    fn oversized_chunk_gets_dedicated_container() {
        let mut store = ContainerStore::new(1024);
        store.add_chunk(0, fp(b"small"), b"small");
        let big = vec![9u8; 5000];
        let p = store.add_chunk(0, fp(&big), &big);
        // The dedicated container is sealed immediately.
        assert_eq!(store.pending(), 1);
        let sealed = store.drain_sealed();
        assert_eq!(sealed[0].id, p.container);
        assert_eq!(sealed[0].padding, 0, "oversized container unpadded");
        assert_eq!(store.stats().oversized, 1);
        // The small chunk's container is still open.
        store.seal_all();
        assert_eq!(store.drain_sealed().len(), 1);
    }

    #[test]
    fn padding_accounted() {
        let mut store = ContainerStore::new(4096);
        store.add_chunk(0, fp(b"x"), b"x");
        store.seal_all();
        let sealed = store.drain_sealed();
        assert!(sealed[0].bytes.len() < 100, "only header + descriptor + 1 byte shipped");
        assert!(sealed[0].padding > 4000, "the notional slot fill is accounted");
        assert_eq!(store.stats().padding_bytes, sealed[0].padding as u64);
    }

    #[test]
    fn sealing_empty_stream_is_noop() {
        let mut store = ContainerStore::new(4096);
        store.seal_stream(7);
        store.seal_all();
        assert_eq!(store.pending(), 0);
        assert_eq!(store.stats().sealed, 0);
    }

    #[test]
    fn resume_ids_skips_used_range() {
        let mut store = ContainerStore::new(4096);
        store.resume_stream_ids(0, 100);
        let p = store.add_chunk(0, fp(b"x"), b"x");
        assert_eq!(decompose_id(p.container), (0, 100));
        // Resuming backwards never lowers the counter.
        store.seal_all();
        store.resume_stream_ids(0, 5);
        let q = store.add_chunk(0, fp(b"y"), b"y");
        assert_eq!(decompose_id(q.container), (0, 101));
    }

    #[test]
    fn container_ids_unique_and_monotonic() {
        let mut store = ContainerStore::new(1024);
        let big = vec![1u8; 4000];
        let p1 = store.add_chunk(0, fp(&big), &big);
        let p2 = store.add_chunk(0, fp(b"s"), b"s");
        let p3 = store.add_chunk(1, fp(b"t"), b"t");
        let mut ids = vec![p1.container, p2.container, p3.container];
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn ids_compose_and_decompose() {
        for (stream, seq) in [(0u32, 0u64), (1, 0), (13, 7), (0, (1 << 40) - 1), (255, 12345)] {
            let id = compose_id(stream, seq);
            assert_eq!(decompose_id(id), (stream, seq));
        }
        // Legacy small ids decompose as stream 0.
        assert_eq!(decompose_id(42), (0, 42));
    }

    #[test]
    fn stream_layout_independent_of_interleaving() {
        // The determinism contract: a stream's sealed containers depend
        // only on that stream's own append sequence, not on how appends
        // to other streams interleave with it.
        let chunks_a: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 900]).collect();
        let chunks_b: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i ^ 0x55; 700]).collect();

        #[derive(Clone, Copy)]
        enum Mode {
            Interleaved,
            StreamByStream,
        }
        type Outcome = (Vec<(u64, Vec<u8>)>, StoreStats, [u64; 3]);
        let run = |mode: Mode| -> Outcome {
            let mut store = ContainerStore::new(2048);
            // Stream 1 starts with an open container and stream 2 with a
            // resumed sequence; stream 3 is never touched.
            store.add_chunk(1, fp(b"head"), b"head");
            store.resume_stream_ids(2, 5);
            match mode {
                Mode::Interleaved => {
                    for (a, b) in chunks_a.iter().zip(&chunks_b) {
                        store.add_chunk(1, fp(a), a);
                        store.add_chunk(2, fp(b), b);
                    }
                }
                Mode::StreamByStream => {
                    for b in &chunks_b {
                        store.add_chunk(2, fp(b), b);
                    }
                    for a in &chunks_a {
                        store.add_chunk(1, fp(a), a);
                    }
                }
            }
            // Every stream's sequence continues where its appends left it:
            // stream 1 in its open container, the others in fresh ones.
            let tail = store.add_chunk(1, fp(b"tail"), b"tail").container;
            store.seal_stream(2);
            let fresh = [2, 3].map(|s| store.add_chunk(s, fp(b"fresh"), b"fresh").container);
            let minted = [tail, fresh[0], fresh[1]];
            store.seal_all();
            let mut sealed: Vec<(u64, Vec<u8>)> =
                store.drain_sealed().iter().map(|s| (s.id, s.bytes.clone())).collect();
            sealed.sort_by_key(|(id, _)| *id);
            (sealed, store.stats(), minted)
        };
        let (sealed, stats, minted) = run(Mode::Interleaved);
        assert_eq!(decompose_id(sealed[0].0), (1, 0), "the open container kept its id");
        assert_eq!(decompose_id(minted[2]), (3, 0));
        let in_stream_2 = sealed.iter().filter(|(id, _)| decompose_id(*id).0 == 2).count() as u64;
        assert_eq!(decompose_id(minted[1]), (2, 4 + in_stream_2), "no id is minted twice");
        assert_eq!(run(Mode::StreamByStream), (sealed, stats, minted), "layout is order-independent");
    }

    #[test]
    fn per_stream_resume_is_independent() {
        let mut store = ContainerStore::new(4096);
        store.resume_stream_ids(3, 17);
        let p3 = store.add_chunk(3, fp(b"c"), b"c");
        let p4 = store.add_chunk(4, fp(b"d"), b"d");
        assert_eq!(decompose_id(p3.container), (3, 17));
        assert_eq!(decompose_id(p4.container), (4, 0), "other streams unaffected");
        assert_eq!([store.next_seq(3), store.next_seq(4), store.next_seq(5)], [18, 1, 0]);
    }

    #[test]
    fn stats_track_everything() {
        let mut store = ContainerStore::new(2048);
        for i in 0..5u8 {
            let c = vec![i; 300];
            store.add_chunk(0, fp(&c), &c);
        }
        store.seal_all();
        let s = store.stats();
        assert_eq!(s.chunks, 5);
        assert_eq!(s.data_bytes, 1500);
        assert!(s.sealed >= 1);
    }
}

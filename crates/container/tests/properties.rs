//! Property-based tests for the container substrate.

use proptest::prelude::*;
use std::collections::BTreeMap;

use aadedupe_container::format::{encode_container, HEADER_LEN};
use aadedupe_container::{
    compose_id, ChunkDescriptor, ContainerStore, ParsedContainer, Placement, SealedContainer,
};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};

fn arb_chunks() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    // (stream, bytes) pairs; chunk sizes span tiny to oversized.
    proptest::collection::vec(
        (0u32..3, proptest::collection::vec(any::<u8>(), 1..5000)),
        1..40,
    )
}

fn seal_all(store: &mut ContainerStore) -> Vec<SealedContainer> {
    store.seal_all();
    store.drain_sealed()
}

/// `(stream, pick, bytes)`: pick 0–2 appends `bytes` to the stream under
/// Rabin-96 / MD5 / SHA-1, pick 3 seals the stream — open container or
/// none. Lengths reach past a 2 KiB container, so rolls, oversized chunks
/// and seals of empty streams all occur.
fn arb_steps() -> impl Strategy<Value = Vec<(u32, u8, Vec<u8>)>> {
    proptest::collection::vec(
        (0u32..4, 0u8..4, proptest::collection::vec(any::<u8>(), 0..2600)),
        0..40,
    )
}

/// The store's packing rules, restated over `encode_container`: what each
/// stream's containers must hold, byte for byte.
#[derive(Default)]
struct Model {
    next_seq: BTreeMap<u32, u64>,
    /// Per stream: id, descriptors and data of the open container.
    open: BTreeMap<u32, (u64, Vec<ChunkDescriptor>, Vec<u8>)>,
    /// `(id, bytes, padding, chunks)` of every container sealed so far.
    sealed: Vec<(u64, Vec<u8>, usize, usize)>,
}

impl Model {
    const SIZE: usize = 2048;

    fn mint(&mut self, stream: u32) -> u64 {
        let seq = self.next_seq.entry(stream).or_insert(0);
        *seq += 1;
        compose_id(stream, *seq - 1)
    }

    fn seal(&mut self, stream: u32) {
        if let Some((id, descriptors, data)) = self.open.remove(&stream) {
            let bytes = encode_container(id, &descriptors, &data, None);
            let padding = Self::SIZE - bytes.len();
            self.sealed.push((id, bytes, padding, descriptors.len()));
        }
    }

    fn add(&mut self, stream: u32, fingerprint: Fingerprint, chunk: &[u8]) -> Placement {
        let entry = 1 + fingerprint.algorithm().digest_len() + 8 + chunk.len();
        if HEADER_LEN + entry > Self::SIZE {
            let id = self.mint(stream);
            let d = ChunkDescriptor { fingerprint, offset: 0, len: chunk.len() as u32 };
            self.sealed.push((id, encode_container(id, &[d], chunk, None), 0, 1));
            return Placement { container: id, offset: 0 };
        }
        let projected = |(_, ds, data): &(u64, Vec<ChunkDescriptor>, Vec<u8>)| {
            HEADER_LEN + ds.iter().map(ChunkDescriptor::encoded_len).sum::<usize>() + data.len()
        };
        if self.open.get(&stream).is_some_and(|c| projected(c) + entry > Self::SIZE) {
            self.seal(stream);
        }
        if !self.open.contains_key(&stream) {
            let id = self.mint(stream);
            self.open.insert(stream, (id, Vec::new(), Vec::new()));
        }
        let (id, descriptors, data) = self.open.get_mut(&stream).expect("opened above");
        let offset = data.len() as u32;
        descriptors.push(ChunkDescriptor { fingerprint, offset, len: chunk.len() as u32 });
        data.extend_from_slice(chunk);
        Placement { container: *id, offset }
    }
}

proptest! {
    /// The store seals exactly what `encode_container` writes for the
    /// same chunks — in place for an open container, straight into one
    /// buffer for an oversized chunk — with the same placements, ids,
    /// padding and chunk counts, and no spare capacity.
    #[test]
    fn sealed_bytes_equal_encode_container(steps in arb_steps()) {
        let algorithms = [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1];
        let mut store = ContainerStore::new(Model::SIZE);
        let mut model = Model::default();
        for (stream, pick, bytes) in &steps {
            match algorithms.get(*pick as usize) {
                Some(alg) => {
                    let fp = Fingerprint::compute(*alg, bytes);
                    prop_assert_eq!(store.add_chunk(*stream, fp, bytes), model.add(*stream, fp, bytes));
                }
                None => {
                    store.seal_stream(*stream);
                    model.seal(*stream);
                }
            }
        }
        let streams: Vec<u32> = model.open.keys().copied().collect();
        for s in streams {
            model.seal(s);
        }
        let mut sealed = Vec::new();
        for s in seal_all(&mut store) {
            assert_eq!(s.bytes.capacity(), s.bytes.len(), "container {}", s.id);
            sealed.push((s.id, s.bytes, s.padding, s.chunks));
        }
        sealed.sort_by_key(|s| s.0);
        model.sealed.sort_by_key(|s| s.0);
        prop_assert_eq!(sealed, model.sealed);
    }

    /// Every chunk added to a store is recoverable from some sealed
    /// container at its reported placement, bit-exactly.
    #[test]
    fn placements_resolve(chunks in arb_chunks()) {
        let mut store = ContainerStore::new(4096);
        let mut placements = Vec::new();
        for (stream, bytes) in &chunks {
            let fp = Fingerprint::compute(HashAlgorithm::Sha1, bytes);
            let p = store.add_chunk(*stream, fp, bytes);
            placements.push((p, fp, bytes.clone()));
        }
        let mut sealed = seal_all(&mut store);
        sealed.sort_by_key(|s| s.id);
        for (p, fp, bytes) in placements {
            let sc = sealed
                .binary_search_by_key(&p.container, |s| s.id)
                .map_or_else(|_| panic!("container {} not sealed", p.container), |i| &sealed[i]);
            let parsed = ParsedContainer::parse(&sc.bytes).expect("parses");
            let d = parsed.descriptors.iter()
                .find(|d| d.offset == p.offset && d.fingerprint == fp)
                .expect("descriptor present");
            prop_assert_eq!(parsed.chunk_bytes(d), &bytes[..]);
            parsed.verify().expect("verifies");
        }
    }

    /// Sealed in-size containers are exactly the fixed size; oversized
    /// ones hold exactly one chunk, unpadded.
    #[test]
    fn sizes_and_padding(chunks in arb_chunks()) {
        let size = 4096usize;
        let mut store = ContainerStore::new(size);
        for (stream, bytes) in &chunks {
            let fp = Fingerprint::compute(HashAlgorithm::Md5, bytes);
            store.add_chunk(*stream, fp, bytes);
        }
        for sc in seal_all(&mut store) {
            if sc.bytes.len() > size {
                prop_assert_eq!(sc.chunks, 1, "oversized containers are single-chunk");
                prop_assert_eq!(sc.padding, 0);
            } else {
                prop_assert!(sc.chunks >= 1);
                prop_assert_eq!(sc.bytes.len() + sc.padding, size, "body + slot fill = fixed size");
            }
            ParsedContainer::parse(&sc.bytes).expect("sealed containers parse");
        }
    }

    /// Parsing never panics on arbitrary bytes; any prefix of a valid
    /// container that cuts into its *body* (header + descriptors + data)
    /// fails cleanly. Prefixes that only shave padding still parse — the
    /// body is self-delimiting and padding is semantically void.
    #[test]
    fn parser_total(garbage in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let _ = ParsedContainer::parse(&garbage); // must not panic
        let mut store = ContainerStore::new(1024);
        store.add_chunk(0, Fingerprint::compute(HashAlgorithm::Sha1, &garbage), &garbage);
        let sealed = seal_all(&mut store);
        let bytes = &sealed[0].bytes;
        for n in 0..bytes.len() {
            prop_assert!(ParsedContainer::parse(&bytes[..n]).is_err(), "prefix {}", n);
        }
        prop_assert!(ParsedContainer::parse(bytes).is_ok());
    }
}

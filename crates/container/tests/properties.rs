//! Property-based tests for the container substrate.

use proptest::prelude::*;

use aadedupe_container::{ContainerStore, ParsedContainer, SealedContainer};
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

proptest! {
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

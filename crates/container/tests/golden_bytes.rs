//! The container byte layout, pinned. Each expected object is written out
//! field by field from the layout table in `format.rs` — digests included,
//! as literal hex — so a sealer that moves, drops or reorders one byte
//! fails here, whichever path (a sealed open container or a dedicated
//! oversized one) produced it.

use aadedupe_container::{compose_id, ContainerStore, SealedContainer};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn drain(store: &mut ContainerStore) -> Vec<SealedContainer> {
    let mut sealed = store.drain_sealed();
    sealed.sort_by_key(|s| s.id);
    sealed
}

#[test]
fn two_chunks_under_two_algorithms_seal_to_the_documented_layout() {
    let (a, b) = (
        &b"abc"[..],
        &b"The quick brown fox jumps over the lazy dog"[..],
    );
    let md5 = hex("900150983cd24fb0d6963f7d28e17f72"); // RFC 1321's "abc"
    let sha1 = hex("2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
    let (fa, fb) = (
        Fingerprint::compute(HashAlgorithm::Md5, a),
        Fingerprint::compute(HashAlgorithm::Sha1, b),
    );
    assert_eq!((fa.digest(), fb.digest()), (&md5[..], &sha1[..]));

    let mut store = ContainerStore::new(4096);
    let pa = store.add_chunk(5, fa, a);
    let pb = store.add_chunk(5, fb, b);
    assert_eq!(store.pending(), 0, "both fit the open container");
    store.seal_all();
    let sealed = drain(&mut store);

    let expected: Vec<u8> = [
        &b"AACON\x01"[..],
        &[0, 0, 0, 0, 0, 5, 0, 0], // container id: stream 5 << 40 | sequence 0
        &[2, 0, 0, 0],             // chunk count
        &[46, 0, 0, 0, 0, 0, 0, 0], // data length: 3 + 43
        &[2],                      // MD5 tag
        &md5,
        &[0, 0, 0, 0], // offset
        &[3, 0, 0, 0], // length
        &[3],          // SHA-1 tag
        &sha1,
        &[3, 0, 0, 0],
        &[43, 0, 0, 0],
        a,
        b,
    ]
    .concat();
    assert_eq!(expected.len(), 126);
    assert_eq!(sealed.len(), 1);
    let s = &sealed[0];
    assert_eq!(s.id, compose_id(5, 0));
    assert_eq!(s.bytes, expected);
    assert_eq!(
        s.bytes.capacity(),
        126,
        "a sealed container keeps no spare capacity"
    );
    assert_eq!((s.padding, s.chunks), (4096 - 126, 2));
    assert_eq!([pa.offset, pb.offset], [0, 3]);
    assert_eq!([pa.container, pb.container], [s.id, s.id]);
}

#[test]
fn an_oversized_chunk_is_one_unpadded_container_of_its_own() {
    let chunk: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let fp = Fingerprint::compute(HashAlgorithm::Rabin96, &chunk);
    let rabin = hex("bb68f1015e09ec00e2942804");
    assert_eq!(fp.digest(), &rabin[..]);

    // The stream already has an open container (sequence 0): the
    // oversized chunk takes the next id and leaves that one open.
    let mut store = ContainerStore::new(1024);
    let open = store.add_chunk(13, Fingerprint::compute(HashAlgorithm::Sha1, b"x"), b"x");
    let over = store.add_chunk(13, fp, &chunk);
    assert_eq!(store.pending(), 1, "sealed at once");
    let sealed = drain(&mut store);

    let expected: Vec<u8> = [
        &b"AACON\x01"[..],
        &[1, 0, 0, 0, 0, 13, 0, 0], // container id: stream 13 << 40 | sequence 1
        &[1, 0, 0, 0],              // chunk count
        &[0x88, 0x13, 0, 0, 0, 0, 0, 0], // data length: 5000
        &[1],                       // Rabin-96 tag
        &rabin,
        &[0, 0, 0, 0],       // offset
        &[0x88, 0x13, 0, 0], // length
        &chunk,
    ]
    .concat();
    let s = &sealed[0];
    assert_eq!(s.id, compose_id(13, 1));
    assert_eq!((over.container, over.offset), (s.id, 0));
    assert_eq!(s.bytes, expected);
    assert_eq!(
        s.bytes.capacity(),
        5047,
        "encoded into one buffer of exactly its size"
    );
    assert_eq!((s.padding, s.chunks), (0, 1));
    assert_eq!(store.stats().oversized, 1);

    store.seal_all();
    let rest = drain(&mut store);
    assert_eq!((rest.len(), rest[0].id), (1, open.container));
    assert_eq!(open.container, compose_id(13, 0));
}

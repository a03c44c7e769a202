//! Kernel rates on this machine: single-stream MD5 and SHA-1, MD5 over a
//! list of messages four lanes wide (`md5_many`), and the whole-file
//! Rabin-96, over 64 MiB cut into messages — best of three passes each
//! (five for the MD5 lists, whose passes take turns within each round so
//! that a slow spell of a shared machine hits both sides of the ratio), one
//! JSON object on stdout.
//!
//! `cargo run --release -p aadedupe-hashing --example hash_rates`
//!
//! `md5_many_over_md5` is the figure `Fingerprint::compute_many` rests on,
//! measured on equal 8 KiB messages (`msg_8192`, static chunks) and on
//! messages of distinct lengths, 4096 plus a pseudo-random 0..8192 bytes
//! each (`msg_distinct`): lanes that only paired equal lengths read ≈ 1 on
//! the second list, and a toolchain that fails to overlap the lanes drops
//! both towards (or below) 1. `rabin96_mib_s` is measured on whole-file
//! sized messages (1.5 MiB, the benchmark's media files, and 16 KiB, just
//! over the tiny-file cutoff).

#![expect(clippy::disallowed_methods, reason = "a benchmark reads the wall clock")]

use std::hint::black_box;
use std::time::Instant;

use aadedupe_hashing::{md5, md5_many, rabin96, sha1};

const TOTAL: usize = 64 << 20;

/// MiB/s of each of `passes` over `msgs`, best of `rounds`; the passes
/// take turns within each round.
fn rates<const P: usize>(msgs: &[&[u8]], rounds: usize, passes: [&dyn Fn(); P]) -> [f64; P] {
    let mut best = [f64::INFINITY; P];
    for _ in 0..rounds {
        for (best, pass) in best.iter_mut().zip(passes) {
            let t = Instant::now();
            pass();
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    let mib = msgs.iter().map(|m| m.len()).sum::<usize>() as f64 / f64::from(1 << 20);
    best.map(|secs| mib / secs)
}

fn main() {
    // xorshift64: incompressible enough that nothing is special-cased.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let data: Vec<u8> = (0..TOTAL / 8)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()
        })
        .collect();

    // Distinct lengths: 4096 plus a pseudo-random 0..8192 bytes each.
    let mut distinct = Vec::new();
    let mut rest = data.as_slice();
    while let Some((msg, tail)) = rest.split_at_checked(4096 + (x % 8192) as usize) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        distinct.push(msg);
        rest = tail;
    }
    let equal: Vec<&[u8]> = data.chunks_exact(8192).collect();

    let mut fields = Vec::new();
    for (name, msgs) in [("msg_8192", equal), ("msg_distinct", distinct)] {
        let [md5_1, md5_4, sha1_1] = rates(
            &msgs,
            5,
            [
                &|| msgs.iter().for_each(|m| _ = black_box(md5(black_box(m)))),
                &|| _ = black_box(md5_many(black_box(&msgs))),
                &|| msgs.iter().for_each(|m| _ = black_box(sha1(black_box(m)))),
            ],
        );
        fields.push(format!(
            "\"{name}\": {{\"md5_mib_s\": {md5_1:.0}, \"md5_many_mib_s\": {md5_4:.0}, \
             \"md5_many_over_md5\": {:.2}, \"sha1_mib_s\": {sha1_1:.0}}}",
            md5_4 / md5_1
        ));
    }
    for len in [3 << 19, 16 << 10] {
        let msgs: Vec<&[u8]> = data.chunks_exact(len).collect();
        let [rabin] =
            rates(&msgs, 3, [&|| msgs.iter().for_each(|m| _ = black_box(rabin96(black_box(m))))]);
        fields.push(format!("\"msg_{len}\": {{\"rabin96_mib_s\": {rabin:.0}}}"));
    }
    println!("{{{}}}", fields.join(", "));
}

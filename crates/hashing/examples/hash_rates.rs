//! Kernel rates on this machine: single-stream MD5 and SHA-1, MD5 four
//! messages wide (`md5x4`), and the whole-file Rabin-96, over 64 MiB cut
//! into equal messages — best of three passes each, one JSON object on
//! stdout.
//!
//! `cargo run --release -p aadedupe-hashing --example hash_rates`
//!
//! `md5x4_over_md5` is the figure `Fingerprint::compute_many` rests on: if a
//! toolchain fails to vectorise the lanes it drops towards (or below) 1.
//! `rabin96_mib_s` is measured on whole-file sized messages (1.5 MiB, the
//! benchmark's media files, and 16 KiB, just over the tiny-file cutoff).

#![expect(clippy::disallowed_methods, reason = "a benchmark reads the wall clock")]

use std::hint::black_box;
use std::time::Instant;

use aadedupe_hashing::{md5, md5x4, rabin96, sha1};

const TOTAL: usize = 64 << 20;

/// Best-of-three MiB/s of `pass` over `msgs`.
fn rate(msgs: &[&[u8]], mut pass: impl FnMut()) -> f64 {
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    msgs.iter().map(|m| m.len()).sum::<usize>() as f64 / f64::from(1 << 20) / best
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

    let mut fields = Vec::new();
    for len in [8192usize, 1000] {
        let msgs: Vec<&[u8]> = data.chunks_exact(len).collect();
        let md5_1 = rate(&msgs, || {
            for m in &msgs {
                black_box(md5(black_box(m)));
            }
        });
        let md5_4 = rate(&msgs, || {
            for four in msgs.chunks_exact(4) {
                black_box(md5x4(black_box([four[0], four[1], four[2], four[3]])));
            }
        });
        let sha1_1 = rate(&msgs, || {
            for m in &msgs {
                black_box(sha1(black_box(m)));
            }
        });
        fields.push(format!(
            "\"msg_{len}\": {{\"md5_mib_s\": {md5_1:.0}, \"md5x4_mib_s\": {md5_4:.0}, \
             \"md5x4_over_md5\": {:.2}, \"sha1_mib_s\": {sha1_1:.0}}}",
            md5_4 / md5_1
        ));
    }
    for len in [3 << 19, 16 << 10] {
        let msgs: Vec<&[u8]> = data.chunks_exact(len).collect();
        let rabin = rate(&msgs, || {
            for m in &msgs {
                black_box(rabin96(black_box(m)));
            }
        });
        fields.push(format!("\"msg_{len}\": {{\"rabin96_mib_s\": {rabin:.0}}}"));
    }
    println!("{{{}}}", fields.join(", "));
}

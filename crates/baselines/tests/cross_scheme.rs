//! Cross-scheme behavioural contracts.
//!
//! These tests pin the *strategy* differences the paper's evaluation
//! relies on, using hand-built workloads where the expected behaviour is
//! exactly computable.

use aadedupe_baselines::{Baseline, Strategy};
use aadedupe_cloud::CloudSim;
use aadedupe_core::{AaDedupe, BackupScheme};
use aadedupe_filetype::{MemoryFile, SourceFile};

fn sources(files: &[MemoryFile]) -> Vec<&dyn SourceFile> {
    files.iter().map(|f| f as &dyn SourceFile).collect()
}

/// A 1-byte in-place edit to a large static file.
fn edited(base: &[u8]) -> Vec<u8> {
    let mut v = base.to_vec();
    let mid = v.len() / 2;
    v[mid] ^= 0x80;
    v
}

#[test]
fn one_byte_edit_cost_ladder() {
    // The defining strategy difference: after a 1-byte in-place edit to a
    // 200 KB PDF, how much does each scheme store?
    let base: Vec<u8> = (0..200_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
    let v1 = vec![MemoryFile::new("big.pdf", base.clone())];
    let v2 = vec![MemoryFile::new("big.pdf", edited(&base))];

    let mut stored = std::collections::HashMap::new();
    macro_rules! run {
        ($name:expr, $scheme:expr) => {{
            let mut s = $scheme;
            s.backup_session(&sources(&v1)).unwrap();
            let r = s.backup_session(&sources(&v2)).unwrap();
            stored.insert($name, r.stored_bytes);
        }};
    }
    run!("jd", Baseline::new(Strategy::JungleDisk, CloudSim::with_paper_defaults()));
    run!("bp", Baseline::new(Strategy::BackupPc, CloudSim::with_paper_defaults()));
    run!("av", Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults()));
    run!("sam", Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults()));
    run!("aa", AaDedupe::new(CloudSim::with_paper_defaults()));

    // Whole-file schemes re-store everything.
    assert_eq!(stored["jd"], 200_000);
    assert_eq!(stored["bp"], 200_000);
    // Chunk-level schemes store roughly one chunk.
    assert!(stored["av"] <= 20 * 1024, "avamar stored {}", stored["av"]);
    assert!(stored["sam"] <= 20 * 1024, "sam stored {}", stored["sam"]);
    // AA-Dedupe uses SC for PDFs: exactly one 8 KiB block differs.
    assert!(stored["aa"] <= 8 * 1024, "aa stored {}", stored["aa"]);
}

#[test]
fn media_edit_cost_is_whole_file_for_aa_and_sam() {
    // For compressed media, AA-Dedupe and SAM deliberately fall back to
    // whole-file granularity; only Avamar chunks it (and wastes CPU, per
    // Observation 1 — the redundancy it finds is negligible anyway).
    let base: Vec<u8> = (0..150_000u32).map(|i| (i.wrapping_mul(40503) >> 9) as u8).collect();
    let v1 = vec![MemoryFile::new("clip.avi", base.clone())];
    let v2 = vec![MemoryFile::new("clip.avi", edited(&base))];

    let mut aa = AaDedupe::new(CloudSim::with_paper_defaults());
    aa.backup_session(&sources(&v1)).unwrap();
    let aa_r = aa.backup_session(&sources(&v2)).unwrap();
    assert_eq!(aa_r.stored_bytes, 150_000, "WFC: whole file re-stored");

    let mut sam = Baseline::new(Strategy::Sam, CloudSim::with_paper_defaults());
    sam.backup_session(&sources(&v1)).unwrap();
    let sam_r = sam.backup_session(&sources(&v2)).unwrap();
    assert_eq!(sam_r.stored_bytes, 150_000);

    let mut av = Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults());
    av.backup_session(&sources(&v1)).unwrap();
    let av_r = av.backup_session(&sources(&v2)).unwrap();
    assert!(av_r.stored_bytes <= 20 * 1024);
}

#[test]
fn request_counts_reflect_aggregation() {
    // 50 distinct 4 KiB text files: Avamar/SAM pay ~one PUT per unit,
    // AA-Dedupe packs tiny files into ~one container.
    let files: Vec<MemoryFile> = (0..50)
        .map(|i| {
            MemoryFile::new(
                format!("notes/n{i}.txt"),
                format!("note {i} ").repeat(500).into_bytes(),
            )
        })
        .collect();

    let mut av = Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults());
    let av_r = av.backup_session(&sources(&files)).unwrap();
    let mut aa = AaDedupe::new(CloudSim::with_paper_defaults());
    let aa_r = aa.backup_session(&sources(&files)).unwrap();

    assert!(av_r.put_requests >= 50, "per-chunk uploads: {}", av_r.put_requests);
    assert!(
        aa_r.put_requests <= 6,
        "container aggregation should need only a few PUTs: {}",
        aa_r.put_requests
    );
    // Both restore fine.
    assert_eq!(av.restore_session(0).unwrap().len(), 50);
    assert_eq!(aa.restore_session(0).unwrap().len(), 50);
}

#[test]
fn rename_is_free_for_content_addressed_schemes_only() {
    let payload = b"stable content ".repeat(2000);
    let v1 = vec![MemoryFile::new("old_name.doc", payload.clone())];
    let v2 = vec![MemoryFile::new("new_name.doc", payload.clone())];

    // Jungle Disk keys on path: a rename is a full re-upload.
    let mut jd = Baseline::new(Strategy::JungleDisk, CloudSim::with_paper_defaults());
    jd.backup_session(&sources(&v1)).unwrap();
    let jd_r = jd.backup_session(&sources(&v2)).unwrap();
    assert_eq!(jd_r.stored_bytes, payload.len() as u64);

    // BackupPC keys on content: a rename stores nothing.
    let mut bp = Baseline::new(Strategy::BackupPc, CloudSim::with_paper_defaults());
    bp.backup_session(&sources(&v1)).unwrap();
    let bp_r = bp.backup_session(&sources(&v2)).unwrap();
    assert_eq!(bp_r.stored_bytes, 0);

    // AA-Dedupe likewise (chunks are content-addressed per app).
    let mut aa = AaDedupe::new(CloudSim::with_paper_defaults());
    aa.backup_session(&sources(&v1)).unwrap();
    let aa_r = aa.backup_session(&sources(&v2)).unwrap();
    assert_eq!(aa_r.stored_bytes, 0);
}

#[test]
fn dedup_cpu_ladder_on_mixed_workload() {
    // Avamar (CDC+SHA-1 over everything) must spend at least as much
    // dedup CPU as AA-Dedupe (WFC+Rabin on media, SC+MD5 on static) on a
    // media-heavy workload.
    let files: Vec<MemoryFile> = (0..4)
        .map(|i| {
            let mut x = 0x5DEECE66Du64.wrapping_mul(i as u64 + 1) | 1;
            MemoryFile::new(
                format!("m{i}.mp3"),
                (0..2_000_000)
                    .map(|_| { x ^= x << 13; x ^= x >> 7; x ^= x << 17; (x >> 32) as u8 })
                    .collect::<Vec<u8>>(),
            )
        })
        .collect();
    // Best of three first sessions per scheme: one wall-clock sample each
    // is at the mercy of the scheduler.
    let best = |scheme: &dyn Fn() -> Box<dyn BackupScheme>| {
        (0..3)
            .map(|_| scheme().backup_session(&sources(&files)).unwrap().dedup_cpu)
            .min()
            .expect("three sessions")
    };
    let avamar = best(&|| Box::new(Baseline::new(Strategy::Avamar, CloudSim::with_paper_defaults())));
    let aa = best(&|| Box::new(AaDedupe::new(CloudSim::with_paper_defaults())));
    // The paper's claim is the order, so that is what is asserted, and
    // the margin is thin by now: ≈ 95 ms of either figure is the same
    // modelled source read, PR 21's SHA-1 over every byte costs little
    // more than the weak whole-file fingerprint it is compared with, and
    // PR 22's striped scan more than halved what CDC over every byte adds
    // (measured CPU ≈ 17 vs 10 ms: 1.05–1.10x overall in ten dev-profile
    // runs, 10 / 10 in order; it was 1.17x with the byte-serial scan and
    // well over 1.2x with the textbook SHA-1). If this ever flaps,
    // compare the two figures minus the source-read term they share.
    assert!(avamar > aa, "avamar {avamar:?} vs aa {aa:?}");
}

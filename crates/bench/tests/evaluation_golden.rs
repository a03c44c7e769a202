//! The fidelity anchor: every dedup decision of the five-scheme evaluation,
//! and the cloud namespace it leaves, pinned.
//!
//! `AA_EVAL_MB=8 AA_SESSIONS=3 AA_CSV=1 evaluation` at seed 2011, minus the
//! timing columns. A kernel, scheduling or storage change that claims to
//! decide nothing differently must leave every number here alone; the
//! AA-Dedupe `transferred` and PUT columns include the index snapshot each
//! session uploads, so they pin the periodic sync too.

use aadedupe_bench::{run_evaluation, EvalConfig};

/// Per scheme and session: logical, stored, transferred, PUTs, chunks,
/// duplicate chunks, files, tiny files, modelled index disk reads.
const GOLDEN: [(&str, [[u64; 9]; 3]); 5] = [
    (
        "Jungle Disk",
        [
            [10448162, 10448162, 10551428, 894, 893, 0, 893, 0, 0],
            [19612366, 9944884, 10011046, 126, 925, 0, 925, 0, 0],
            [24161004, 5485868, 5554777, 147, 951, 0, 951, 0, 0],
        ],
    ),
    (
        "BackupPC",
        [
            [10448162, 10411797, 10521877, 888, 893, 6, 893, 0, 0],
            [19612366, 9943214, 10013466, 124, 925, 802, 925, 0, 0],
            [24161004, 5483274, 5556461, 145, 951, 807, 951, 0, 130],
        ],
    ),
    (
        "Avamar",
        [
            [10448162, 9961884, 10155844, 1774, 1843, 70, 893, 0, 748],
            [19612366, 9729455, 9929520, 1163, 2889, 1727, 925, 0, 2827],
            [24161004, 5256110, 5451767, 700, 3436, 2737, 951, 0, 3367],
        ],
    ),
    (
        "SAM",
        [
            [10448162, 9961884, 10110580, 1282, 1351, 70, 893, 545, 419],
            [19612366, 9729455, 9823824, 212, 1446, 1235, 925, 559, 697],
            [24161004, 5256110, 5360969, 293, 1587, 1295, 951, 570, 894],
        ],
    ),
    (
        "AA-Dedupe",
        [
            [10448162, 9967736, 10108617, 17, 1361, 66, 893, 545, 0],
            [19612366, 9697968, 9818874, 15, 1452, 1246, 925, 559, 0],
            [24161004, 5233254, 5369828, 15, 1590, 1302, 951, 570, 0],
        ],
    ),
];

#[test]
fn five_schemes_three_sessions_decide_as_pinned() {
    let runs = run_evaluation(EvalConfig { dataset_bytes: 8 << 20, sessions: 3, seed: 2011, csv: false });
    let got: Vec<(&str, Vec<[u64; 9]>)> = runs
        .iter()
        .map(|run| {
            let rows = run.reports.iter().enumerate().map(|(session, r)| {
                assert_eq!(r.session, session, "{}", run.name);
                [
                    r.logical_bytes,
                    r.stored_bytes,
                    r.transferred_bytes,
                    r.put_requests,
                    r.chunks_total,
                    r.chunks_duplicate,
                    r.files_total,
                    r.files_tiny,
                    r.index_disk_reads,
                ]
            });
            (run.name, rows.collect())
        })
        .collect();
    let want: Vec<(&str, Vec<[u64; 9]>)> =
        GOLDEN.iter().map(|(name, rows)| (*name, rows.to_vec())).collect();
    assert_eq!(got, want);
}

/// Per scheme: its object count and FNV-1a (64-bit) over its cloud
/// namespace after the three sessions — every key in sorted order with its
/// object's bytes, each prefixed by its length. `GOLDEN` counts what was
/// stored; this pins where it went and how it was encoded (stream ids in
/// container keys, container and manifest bytes), which counts alone
/// cannot see.
const NAMESPACES: [(&str, usize, u64); 5] = [
    ("Jungle Disk", 1167, 0x9f5f_f54f_0c5c_eb51),
    ("BackupPC", 1157, 0xbb67_77d1_da5c_02fc),
    ("Avamar", 3637, 0xb522_d812_99d7_856f),
    ("SAM", 1787, 0x4abe_1569_8727_c8a2),
    ("AA-Dedupe", 47, 0xe925_756f_bf17_d442),
];

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn five_schemes_three_sessions_leave_pinned_namespaces() {
    let runs = run_evaluation(EvalConfig { dataset_bytes: 8 << 20, sessions: 3, seed: 2011, csv: false });
    let got: Vec<(&str, usize, u64)> = runs
        .iter()
        .map(|run| {
            let store = run.cloud.store();
            let mut keys = store.list("");
            keys.sort();
            let digest = keys.iter().fold(0xcbf2_9ce4_8422_2325, |h, key| {
                let object = store.get(key).expect("listed object reads").expect("listed object exists");
                let h = fnv1a(h, &(key.len() as u64).to_le_bytes());
                let h = fnv1a(h, key.as_bytes());
                let h = fnv1a(h, &(object.len() as u64).to_le_bytes());
                fnv1a(h, &object)
            });
            (run.name, keys.len(), digest)
        })
        .collect();
    assert_eq!(got, NAMESPACES.to_vec());
}

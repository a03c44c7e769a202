//! The timed figures, Fig. 3 (hash overhead) and Fig. 4 (dedup
//! throughput): one 60 MiB corpus, one timed pass. Their deterministic
//! part is the corpus's chunk counts. Each time is the median of
//! [`ROUNDS`] rounds in which the passes take turns, and each verdict
//! judges medians of per-round ratios, so a slow spell of a shared machine
//! lands on both sides of every ratio.

use std::hint::black_box;
use std::time::Instant;

use aadedupe_chunking::{CdcChunker, Chunker, ScChunker, WfcChunker};
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use aadedupe_index::{ChunkEntry, MonolithicIndex};
use aadedupe_workload::Prng;

use crate::{fmt_rate, print_table, EvalConfig};

/// Rounds behind every median.
pub const ROUNDS: usize = 5;
/// The paper's 60 MB dataset, as 4 MiB files.
const CORPUS_BYTES: usize = 60 << 20;
const ALGOS: [HashAlgorithm; 3] = [HashAlgorithm::Rabin96, HashAlgorithm::Md5, HashAlgorithm::Sha1];
/// The PAPER.md sentences the verdicts test.
const CHUNK_POLICY: &str = "PAPER.md §1 item 2, \"Intelligent chunker — per file category: \
                            compressed → WFC, static uncompressed → SC, dynamic uncompressed → CDC\"";
const HASH_POLICY: &str = "PAPER.md §1 item 3, \"Hash selection — fingerprint strength matched to \
                           chunk granularity: WFC → 12 B extended Rabin hash, SC → 16 B MD5, \
                           CDC → 20 B SHA-1\"";

/// Seconds of each of `passes` passes in each of [`ROUNDS`] rounds in
/// which the passes take turns (`secs[pass][round]`); `run(i)` runs pass
/// `i` and returns the seconds it took.
pub fn rounds(passes: usize, run: impl Fn(usize) -> f64) -> Vec<Vec<f64>> {
    let mut secs = vec![Vec::with_capacity(ROUNDS); passes];
    for _ in 0..ROUNDS {
        for (i, s) in secs.iter_mut().enumerate() {
            s.push(run(i));
        }
    }
    secs
}

/// The median of `xs` (the upper one of an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median over rounds of `of(round)`.
fn per_round(of: impl Fn(usize) -> f64) -> f64 {
    median((0..ROUNDS).map(of).collect())
}

/// The median over rounds of pass `a`'s seconds over pass `b`'s.
fn ratio(secs: &[Vec<f64>], a: usize, b: usize) -> f64 {
    per_round(|round| secs[a][round] / secs[b][round])
}

/// Appends one verdict: `ok` when every measured ratio `holds`, else
/// `VIOLATED`; then the bound and the ratios.
fn verdict(out: &mut String, bound: &str, measured: &[(&str, f64)], holds: impl Fn(f64) -> bool) {
    let word = if measured.iter().all(|m| holds(m.1)) { "ok" } else { "VIOLATED" };
    let shown: Vec<String> = measured.iter().map(|(name, r)| format!("{name} {r:.2}")).collect();
    outln!(out, "  {word:<8}  {bound}: {}", shown.join(", "));
}

/// One timed pass: chunks every file and fingerprints every chunk with
/// `algo`, one chunk at a time or each file's chunks as one batch
/// (`Fingerprint::compute_many`, as the engine hashes a file of a
/// container or more: MD5 then runs four chunks wide). When `indexed`,
/// each fingerprint is also looked up in an index built before the clock
/// starts, and inserted on a miss. Returns the seconds it took.
fn pass(files: &[Vec<u8>], chunker: &dyn Chunker, algo: HashAlgorithm, batched: bool, indexed: bool) -> f64 {
    let index = indexed.then(|| MonolithicIndex::new(1 << 20));
    let start = Instant::now();
    for f in files {
        let pieces: Vec<&[u8]> = chunker.chunk(f).iter().map(|span| span.slice(f)).collect();
        let fps = if batched {
            Fingerprint::compute_many(algo, &pieces)
        } else {
            pieces.iter().map(|piece| Fingerprint::compute(algo, piece)).collect()
        };
        for (fp, piece) in std::iter::zip(fps, &pieces) {
            match &index {
                Some(index) if index.lookup(&fp).is_none() => {
                    index.insert(fp, ChunkEntry::new(piece.len() as u64, 0, 0));
                }
                _ => _ = black_box(fp),
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// A pass of a timed figure: which of its chunkers, which hash, batched.
type Pass = (usize, HashAlgorithm, bool);

/// Builds the corpus, appends its chunk counts under `chunkers`, and runs
/// every pass of `plan` in [`ROUNDS`] rounds: the seconds of each pass in
/// each round.
fn measure(out: &mut String, chunkers: &[(&str, &dyn Chunker)], plan: &[Pass], indexed: bool) -> Vec<Vec<f64>> {
    let files: Vec<Vec<u8>> = (0..CORPUS_BYTES >> 22)
        .map(|i| {
            let mut v = vec![0u8; 4 << 20];
            Prng::derive(&[0xF163, i as u64]).fill(&mut v);
            v
        })
        .collect();
    let count = |c: &dyn Chunker| files.iter().map(|f| c.chunk(f).len()).sum::<usize>();
    let counts: Vec<String> = chunkers.iter().map(|(name, c)| format!("{name} {}", count(*c))).collect();
    outln!(out, "corpus: {} files of 4 MiB; chunks: {}", files.len(), counts.join(", "));
    outln!(out, "\n-- timing: median of {ROUNDS} rounds, the passes taking turns --");
    rounds(plan.len(), |i| pass(&files, chunkers[plan[i].0].1, plan[i].1, plan[i].2, indexed))
}

/// Figure 3: computational overhead of typical hash functions. The paper
/// times Rabin, MD5 and SHA-1 under whole-file (WFC) and 8 KiB static
/// chunking (SC) and observes Rabin < MD5 < SHA-1, and WFC ≈ SC for the
/// same hash: the cost is the hash's, not the chunk bookkeeping's
/// (Observation 4).
pub fn fig3(_: &EvalConfig) -> String {
    let mut out = format!("Figure 3 — hash computation overhead over a {} MiB dataset\n", CORPUS_BYTES >> 20);
    let chunkers: [(&str, &dyn Chunker); 2] = [("WFC", &WfcChunker::new()), ("SC", &ScChunker::new(8 * 1024))];
    // Pass 3 * hash + column: WFC, then SC one chunk at a time, then SC batched.
    let plan: Vec<Pass> = ALGOS.iter().flat_map(|&a| [(0, a, false), (1, a, false), (1, a, true)]).collect();
    let secs = measure(&mut out, &chunkers, &plan, false);
    let rate = |s: f64| fmt_rate(CORPUS_BYTES as f64 / s);
    let rows: Vec<Vec<String>> = ALGOS
        .iter()
        .enumerate()
        .map(|(a, algo)| {
            let [w, s, b] = [0, 1, 2].map(|column| median(secs[3 * a + column].clone()));
            let secs = |x: f64| format!("{x:.3} s");
            vec![algo.name().into(), secs(w), secs(s), rate(s), secs(b), rate(b)]
        })
        .collect();
    let headers = ["hash", "WFC time", "SC time", "SC throughput", "SC batched", "batched throughput"];
    print_table(&mut out, "Fig. 3: execution time per hash × chunking", &headers, &rows);

    // Time ratio of hash a over hash b in one column.
    let r = |a: usize, b: usize, column: usize| ratio(&secs, 3 * a + column, 3 * b + column);
    outln!(out, "\nverdicts on {HASH_POLICY}, as time ratios:");
    let bound = "Rabin < MD5 and Rabin < SHA-1, SC one chunk at a time";
    verdict(&mut out, bound, &[("rabin96/md5", r(0, 1, 1)), ("rabin96/sha1", r(0, 2, 1))], |x| x < 1.0);
    let md5_sha1 = r(1, 2, 1);
    outln!(out, "            (not held: MD5 vs SHA-1 one chunk at a time, md5/sha1 {md5_sha1:.2};");
    outln!(out, "            single-stream MD5 is one dependency chain, so their order is the core's)");
    let bound = "Rabin < MD5 < SHA-1, SC batched as the engine hashes";
    verdict(&mut out, bound, &[("rabin96/md5", r(0, 1, 2)), ("md5/sha1", r(1, 2, 2))], |x| x < 1.0);
    let wfc_sc: Vec<(&str, f64)> =
        ALGOS.iter().enumerate().map(|(a, algo)| (algo.name(), ratio(&secs, 3 * a, 3 * a + 1))).collect();
    let bound = "WFC time within ±25% of SC time per hash, one chunk at a time (Observation 4), WFC/SC";
    verdict(&mut out, bound, &wfc_sc, |x| (x - 1.0).abs() < 0.25);
    out
}

/// Figure 4: dedup throughput (chunk + fingerprint + index) of WFC, SC
/// and CDC crossed with Rabin, MD5 and SHA-1 on the Fig. 3 corpus. The
/// paper observes simpler chunking ⇒ higher throughput, weaker hash ⇒
/// higher throughput, and a CDC row the hash barely moves.
pub fn fig4(_: &EvalConfig) -> String {
    let mib = CORPUS_BYTES >> 20;
    let mut out = format!("Figure 4 — dedup throughput (chunk + fingerprint + index) over {mib} MiB\n");
    let chunkers: [(&str, &dyn Chunker); 3] =
        [("WFC", &WfcChunker::new()), ("SC", &ScChunker::new(8 * 1024)), ("CDC", &CdcChunker::default())];
    // Pass 4 * chunker + column: each hash one chunk at a time, then MD5 batched.
    let columns = [(ALGOS[0], false), (ALGOS[1], false), (ALGOS[2], false), (ALGOS[1], true)];
    let plan: Vec<Pass> = (0..3).flat_map(|c| columns.map(|(a, batched)| (c, a, batched))).collect();
    let secs = measure(&mut out, &chunkers, &plan, true);
    let rows: Vec<Vec<String>> = chunkers
        .iter()
        .enumerate()
        .map(|(c, (name, _))| {
            let rate = |column: usize| fmt_rate(CORPUS_BYTES as f64 / median(secs[4 * c + column].clone()));
            let rates = (0..4).map(rate);
            std::iter::once(name.to_string()).chain(rates).collect()
        })
        .collect();
    let headers = ["chunking", "Rabin hash", "MD5", "SHA-1", "MD5 batched"];
    print_table(&mut out, "Fig. 4: dedup throughput, chunking × hash", &headers, &rows);

    // Throughput of pass (chunker a, column i) over pass (chunker b, column j).
    let tp = |a: usize, i: usize, b: usize, j: usize| ratio(&secs, 4 * b + j, 4 * a + i);
    outln!(out, "\nverdict on {CHUNK_POLICY}, as throughput ratios:");
    let bound = "CDC below SC and WFC with Rabin, the hash that leaves the chunking cost most exposed";
    verdict(&mut out, bound, &[("CDC/SC", tp(2, 0, 1, 0)), ("CDC/WFC", tp(2, 0, 0, 0))], |x| x < 1.0);
    let wfc_sc = tp(0, 0, 1, 0);
    outln!(out, "            (not held: WFC vs SC, WFC/SC {wfc_sc:.2}; both hash the same bytes, Fig. 3's WFC ≈ SC)");
    outln!(out, "verdicts on {HASH_POLICY}, as throughput ratios:");
    let bound = "SC: Rabin above MD5 and SHA-1, one chunk at a time";
    verdict(&mut out, bound, &[("md5/rabin96", tp(1, 1, 1, 0)), ("sha1/rabin96", tp(1, 2, 1, 0))], |x| x < 1.0);
    let bound = "SC: Rabin ≥ MD5 ≥ SHA-1, MD5 batched as the engine hashes";
    verdict(&mut out, bound, &[("md5/rabin96", tp(1, 3, 1, 0)), ("sha1/md5", tp(1, 2, 1, 3))], |x| x <= 1.0);
    // Rabin over SHA-1 throughput in chunker c's row, per round.
    let spread = |c: usize, round: usize| secs[4 * c + 2][round] / secs[4 * c][round];
    let bound = "the hash moves CDC less than SC: CDC's rabin96/sha1 over SC's";
    verdict(&mut out, bound, &[("quotient", per_round(|round| spread(2, round) / spread(1, round)))], |x| x < 1.0);
    let [cdc, sc] = [2, 1].map(|c| per_round(|round| spread(c, round)));
    outln!(out, "            (CDC rabin96/sha1 {cdc:.2}, SC {sc:.2}; not held: CDC + Rabin within 60% of CDC + SHA-1)");
    out
}

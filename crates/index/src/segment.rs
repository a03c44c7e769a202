//! On-disk index partition segments.
//!
//! When a partition's entries outgrow its RAM budget, the overflow lives
//! in *segments*: immutable, sorted fingerprint→[`ChunkEntry`] runs on
//! local disk. The design is LSM-lite — the write-back cache flushes as a
//! new segment, newer segments shadow older ones (an insert after a probe
//! that hit an IO error can write a key twice; nothing is ever deleted
//! key by key), and a bounded segment count is maintained by a streaming
//! k-way merge ([`merge_segments`]) that needs O(1) memory, which is what
//! keeps the "sub-RAM index" claim honest.
//!
//! A segment file is its records and nothing else: no header, no
//! trailer. Records are sorted strictly ascending by fingerprint and
//! written one block of [`FENCE_EVERY`] records at a time (all integers
//! little-endian):
//!
//! ```text
//! fingerprint                          1 + digest_len bytes
//! len, container                       u64, u64
//! offset                               u32
//! ```
//!
//! What describes the file lives in RAM, in its [`Segment`] handle: the
//! record count, where the records end, the segment's own
//! [`CuckooFilter`] (built while the segment is written), one
//! block-sized read buffer, and a sparse **fence index** — per block, its
//! first fingerprint, its byte offset and a check over its bytes. Every
//! read of the file is one block: one seek, one `read_exact`, checked
//! against its fence before anything parses it. A point lookup that
//! passes the filter reads the one block that can hold its key; merges,
//! scans and filter rebuilds read every block in order
//! ([`Segment::records`]). A damaged block is a typed error, never a
//! wrong record.
//!
//! Files are written under a temp name and renamed only once complete, so
//! a failed or crashed write — an input that fails mid-merge included —
//! leaves at most a `.tmp-write` file, never a segment under its final
//! name. Nothing is fsynced: no process ever reopens a segment.
//!
//! A segment is read only through the handle [`Segment::write`] returned:
//! nothing opens a file an earlier process left behind. The disk tier is
//! per-process scratch space and sweeps such files (recognised by
//! [`Segment::owns_file_name`]) on its first flush.

use crate::filter::CuckooFilter;
use crate::ChunkEntry;
use aadedupe_hashing::{Fingerprint, HashAlgorithm};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One fence (fingerprint, byte offset, check) kept in RAM per this many
/// records.
pub const FENCE_EVERY: usize = 64;

/// Suffix of in-flight atomic-write temp files (same discipline as
/// `FsObjectStore`).
const TMP_SUFFIX: &str = ".tmp-write";

/// Segment write/read failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The file ended before the block a read wanted.
    Truncated,
    /// A fingerprint failed to decode.
    BadFingerprint,
    /// A block's bytes did not match its fence's check.
    BadChecksum,
    /// Records were not strictly ascending by fingerprint.
    Unsorted,
    /// An underlying filesystem error (with path context).
    Io(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "truncated segment"),
            SegmentError::BadFingerprint => write!(f, "undecodable fingerprint in segment"),
            SegmentError::BadChecksum => write!(f, "segment checksum mismatch"),
            SegmentError::Unsorted => write!(f, "segment records out of order"),
            SegmentError::Io(msg) => write!(f, "segment io: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

fn io_err(path: &Path, what: &str, e: &io::Error) -> SegmentError {
    SegmentError::Io(format!("{what} {}: {e}", path.display()))
}

/// The check a fence keeps over its block: FNV-1a's xor-multiply step
/// over 8-byte words (the tail zero-padded). Each step is a bijection of
/// the running value, so a corruption confined to one word always
/// changes the check.
fn block_check(block: &[u8]) -> u64 {
    let (words, tail) = block.as_chunks::<8>();
    let mut last = [0u8; 8];
    std::iter::zip(&mut last, tail).for_each(|(d, s)| *d = *s);
    words.iter().chain([&last]).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(*w)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fence: the first fingerprint of a block of up to [`FENCE_EVERY`]
/// records, the block's byte offset, and its [`block_check`].
#[derive(Clone, Copy)]
struct Fence {
    first: Fingerprint,
    offset: u64,
    check: u64,
}

/// Byte length of a record whose fingerprint carries algorithm `tag`:
/// tag, digest, then `len`, `container`, `offset`.
fn record_len(tag: u8) -> Result<usize, SegmentError> {
    let algo = HashAlgorithm::from_tag(tag).ok_or(SegmentError::BadFingerprint)?;
    Ok(1 + algo.digest_len() + 8 + 8 + 4)
}

/// Parses the record at the front of `buf`: the record and its length.
fn parse_record(buf: &[u8]) -> Result<(Fingerprint, ChunkEntry, usize), SegmentError> {
    let &tag = buf.first().ok_or(SegmentError::Truncated)?;
    let len = record_len(tag)?;
    let record = buf.get(..len).ok_or(SegmentError::Truncated)?;
    let (fp, used) = Fingerprint::decode(record).ok_or(SegmentError::BadFingerprint)?;
    let fields = record.get(used..).ok_or(SegmentError::Truncated)?;
    let (len_le, fields) = fields.split_first_chunk::<8>().ok_or(SegmentError::Truncated)?;
    let (container, fields) = fields.split_first_chunk::<8>().ok_or(SegmentError::Truncated)?;
    let (offset, _) = fields.split_first_chunk::<4>().ok_or(SegmentError::Truncated)?;
    let entry = ChunkEntry {
        len: u64::from_le_bytes(*len_le),
        container: u64::from_le_bytes(*container),
        offset: u32::from_le_bytes(*offset),
    };
    Ok((fp, entry, len))
}

/// Writes records, strictly ascending by fingerprint, a fence block at a
/// time, and collects the fences as it goes.
struct Writer {
    w: BufWriter<File>,
    count: u64,
    /// Bytes written so far: where the block being filled starts.
    offset: u64,
    fences: Vec<Fence>,
    last: Option<Fingerprint>,
    /// The records of the block being filled, not yet written.
    block: Vec<u8>,
}

impl Writer {
    fn push(&mut self, fp: Fingerprint, entry: &ChunkEntry) -> Result<(), SegmentError> {
        if self.last.is_some_and(|l| l >= fp) {
            return Err(SegmentError::Unsorted);
        }
        self.last = Some(fp);
        if self.count.is_multiple_of(FENCE_EVERY as u64) {
            self.close_block()?;
            self.fences.push(Fence { first: fp, offset: self.offset, check: 0 });
        }
        fp.encode(&mut self.block);
        self.block.extend_from_slice(&entry.len.to_le_bytes());
        self.block.extend_from_slice(&entry.container.to_le_bytes());
        self.block.extend_from_slice(&entry.offset.to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// Writes the block being filled and seals its fence's check.
    fn close_block(&mut self) -> Result<(), SegmentError> {
        self.w
            .write_all(&self.block)
            .map_err(|e| SegmentError::Io(format!("segment write block: {e}")))?;
        self.offset += self.block.len() as u64;
        if let Some(fence) = self.fences.last_mut() {
            fence.check = block_check(&self.block);
        }
        self.block.clear();
        Ok(())
    }
}

/// An immutable on-disk segment plus its in-RAM fence index and filter.
pub struct Segment {
    path: PathBuf,
    file: File,
    fences: Vec<Fence>,
    filter: CuckooFilter,
    /// The last block read, kept so a read allocates nothing.
    block: Vec<u8>,
    count: u64,
    records_end: u64,
}

impl Segment {
    /// Writes `records` (strictly ascending by fingerprint) as segment
    /// `seq` under `dir`, atomically, and opens it for reading. The
    /// segment's filter is built as the records pass, sized for
    /// `capacity` keys; a short hint costs one more pass over the
    /// finished file, at twice the record count and up. The first
    /// failing record is the write's error, and no segment file is left.
    pub fn write(
        dir: &Path,
        seq: u64,
        capacity: usize,
        records: impl IntoIterator<Item = Result<(Fingerprint, ChunkEntry), SegmentError>>,
    ) -> Result<Segment, SegmentError> {
        let path = Self::path_for(dir, seq);
        let tmp = dir.join(format!("seg-{seq:016x}.aaseg{TMP_SUFFIX}"));
        let written = Self::write_file(&tmp, capacity, records).and_then(|mut seg| {
            fs::rename(&tmp, &path).map_err(|e| io_err(&path, "rename", &e))?;
            seg.path = path;
            Ok(seg)
        });
        if written.is_err() {
            // Best-effort cleanup so a retry starts clean; the original
            // error is what matters.
            if let Err(rm) = fs::remove_file(&tmp) {
                debug_assert!(
                    rm.kind() == io::ErrorKind::NotFound,
                    "tmp cleanup failed: {rm}"
                );
            }
        }
        written
    }

    /// [`Segment::write`]'s records and filter, under the temp name `tmp`.
    fn write_file(
        tmp: &Path,
        capacity: usize,
        records: impl IntoIterator<Item = Result<(Fingerprint, ChunkEntry), SegmentError>>,
    ) -> Result<Segment, SegmentError> {
        let file = File::options().read(true).write(true).create(true).truncate(true).open(tmp);
        let file = file.map_err(|e| io_err(tmp, "create", &e))?;
        let mut w = Writer {
            w: BufWriter::new(file),
            count: 0,
            offset: 0,
            fences: Vec::new(),
            last: None,
            block: Vec::new(),
        };
        let mut filter = CuckooFilter::with_capacity(capacity);
        let mut full = false;
        for record in records {
            let (fp, entry) = record?;
            w.push(fp, &entry)?;
            full = full || filter.insert(&fp).is_err();
        }
        w.close_block()?;
        let file = w.w.into_inner().map_err(|e| io_err(tmp, "flush", e.error()))?;
        let mut seg = Segment {
            path: tmp.to_path_buf(),
            file,
            fences: w.fences,
            filter,
            block: Vec::new(),
            count: w.count,
            records_end: w.offset,
        };
        if full {
            let filter = CuckooFilter::build(capacity.max(w.count as usize) * 2, |insert| {
                seg.records().try_for_each(|r| r.map(|(fp, _)| insert(&fp)))
            })?;
            seg.filter = filter;
        }
        Ok(seg)
    }

    /// The on-disk path a segment with this sequence number uses.
    pub fn path_for(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("seg-{seq:016x}.aaseg"))
    }

    /// Whether `name` is a file name this module writes: a segment
    /// ([`Segment::path_for`]) or the in-flight temp file of one. The
    /// disk tier's first-flush sweep deletes these and nothing else —
    /// the directory is a user-supplied path.
    pub fn owns_file_name(name: &str) -> bool {
        let name = name.strip_suffix(TMP_SUFFIX).unwrap_or(name);
        let hex = name.strip_prefix("seg-").and_then(|rest| rest.strip_suffix(".aaseg"));
        hex.is_some_and(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
    }

    /// Record count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The segment's existence filter: it holds every key the segment
    /// does, so a key it rejects needs no [`Segment::get`].
    pub fn filter(&self) -> &CuckooFilter {
        &self.filter
    }

    /// RAM held by the fence index and the block buffer, in bytes (the
    /// filter reports its own).
    pub fn mem_bytes(&self) -> usize {
        self.fences.len() * std::mem::size_of::<Fence>() + self.block.capacity()
    }

    /// Reads block `i` — from its fence to the next fence or the end of
    /// the records — with one seek and one `read_exact`, and checks it
    /// against its fence. Every read of the file goes through here.
    fn read_block(&mut self, i: usize) -> Result<&[u8], SegmentError> {
        let fence = *self.fences.get(i).ok_or(SegmentError::Truncated)?;
        let end = self.fences.get(i + 1).map_or(self.records_end, |next| next.offset);
        self.block.resize((end - fence.offset) as usize, 0);
        self.file
            .seek(SeekFrom::Start(fence.offset))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        self.file.read_exact(&mut self.block).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => SegmentError::Truncated,
            _ => io_err(&self.path, "read", &e),
        })?;
        if block_check(&self.block) != fence.check {
            return Err(SegmentError::BadChecksum);
        }
        Ok(&self.block)
    }

    /// Point lookup; `Ok(None)` = fingerprint not in this segment. Reads
    /// exactly the one block that can hold `fp`.
    pub fn get(&mut self, fp: &Fingerprint) -> Result<Option<ChunkEntry>, SegmentError> {
        // The last fence at or below `fp`; none means `fp` sorts first.
        let Some(i) = self.fences.partition_point(|f| f.first <= *fp).checked_sub(1) else {
            return Ok(None);
        };
        let mut rest = self.read_block(i)?;
        while !rest.is_empty() {
            let (cur, rec, used) = parse_record(rest)?;
            if cur == *fp {
                return Ok(Some(rec));
            }
            if cur > *fp {
                break;
            }
            rest = rest.get(used..).ok_or(SegmentError::Truncated)?;
        }
        Ok(None)
    }

    /// Every record in order, read a block at a time (for merges, scans
    /// and filter rebuilds). The first error ends the walk.
    pub fn records(
        &mut self,
    ) -> impl Iterator<Item = Result<(Fingerprint, ChunkEntry), SegmentError>> + '_ {
        let blocks = self.fences.len();
        // The next block to read, and the unread bytes of the last one.
        let (mut next, mut pos, mut end) = (0, 0, 0);
        std::iter::from_fn(move || {
            if pos == end {
                if next == blocks {
                    return None;
                }
                match self.read_block(next) {
                    Ok(block) => (pos, end) = (0, block.len()),
                    Err(e) => {
                        next = blocks;
                        return Some(Err(e));
                    }
                }
                next += 1;
            }
            match self.block.get(pos..end).ok_or(SegmentError::Truncated).and_then(parse_record) {
                Ok((fp, entry, used)) => {
                    pos += used;
                    Some(Ok((fp, entry)))
                }
                Err(e) => {
                    (next, pos) = (blocks, end);
                    Some(Err(e))
                }
            }
        })
    }

    /// Deletes the segment file, consuming the handle.
    pub fn remove(self) -> Result<(), SegmentError> {
        fs::remove_file(&self.path).map_err(|e| io_err(&self.path, "remove", &e))
    }
}

/// Streams a k-way merge of `segments` (oldest→newest order) into a new
/// segment `seq` under `dir`, with newest-wins shadowing. Memory use is
/// O(segments), not O(records); the merged filter is sized for the
/// inputs' summed counts, an upper bound on the merged count. An input
/// that fails to read fails the merge, and no file is left for `seq`.
pub fn merge_segments(
    dir: &Path,
    seq: u64,
    segments: &mut [Segment],
) -> Result<Segment, SegmentError> {
    let capacity = segments.iter().map(|s| s.count as usize).sum();
    // One cursor per segment, oldest first, each holding its next
    // undelivered record.
    let mut cursors = Vec::with_capacity(segments.len());
    for seg in segments {
        let mut records = seg.records();
        let head = records.next().transpose()?;
        cursors.push((head, records));
    }
    // Pull the globally-smallest fingerprint each round; among equal
    // fingerprints the newest segment (the last cursor) wins and the
    // others are skipped.
    let merged = std::iter::from_fn(|| {
        let min_fp = cursors.iter().filter_map(|(head, _)| head.map(|(fp, _)| fp)).min()?;
        let mut winner = None;
        for (head, records) in &mut cursors {
            let Some((_, entry)) = head.take_if(|(fp, _)| *fp == min_fp) else { continue };
            match records.next().transpose() {
                Ok(next) => *head = next,
                Err(e) => return Some(Err(e)),
            }
            winner = Some(entry);
        }
        winner.map(|entry| Ok((min_fp, entry)))
    });
    Segment::write(dir, seq, capacity, merged)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test code: the thread id names a per-test scratch directory")]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::compute(HashAlgorithm::Sha1, &n.to_le_bytes())
    }

    fn sorted_records(n: u64) -> Vec<(Fingerprint, ChunkEntry)> {
        let mut v: Vec<(Fingerprint, ChunkEntry)> =
            (0..n).map(|i| (fp(i), ChunkEntry::new(i, i * 2, i as u32))).collect();
        v.sort_unstable_by_key(|(f, _)| *f);
        v
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aadedupe-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, seq: u64, recs: &[(Fingerprint, ChunkEntry)]) -> Result<Segment, SegmentError> {
        Segment::write(dir, seq, recs.len(), recs.iter().copied().map(Ok))
    }

    fn drain(seg: &mut Segment) -> Result<Vec<(Fingerprint, ChunkEntry)>, SegmentError> {
        seg.records().collect()
    }

    /// The names of the files in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> =
            fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
        names.sort_unstable();
        names
    }

    /// Overwrites one byte of segment `seq`'s file in place; the open
    /// handle reads the damaged byte.
    fn flip(dir: &Path, seq: u64, at: u64) {
        let path = Segment::path_for(dir, seq);
        let mut bytes = fs::read(&path).unwrap();
        bytes[at as usize] ^= 0x01;
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn encode_rejects_unsorted() {
        let dir = temp_dir("unsorted");
        let mut recs = sorted_records(10);
        recs.swap(0, 5);
        assert_eq!(write(&dir, 1, &recs).err(), Some(SegmentError::Unsorted));
        assert_eq!(files(&dir), Vec::<String>::new(), "a refused write leaves no file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_round_trip_and_point_lookups() {
        let dir = temp_dir("rt");
        let recs = sorted_records(1000);
        let mut seg = write(&dir, 1, &recs).unwrap();
        assert_eq!(seg.count(), 1000);
        for (f, rec) in &recs {
            assert_eq!(seg.get(f).unwrap(), Some(*rec));
        }
        assert_eq!(seg.get(&fp(999_999)).unwrap(), None);
        assert_eq!(drain(&mut seg).unwrap(), recs);
        // The file is the records alone: 41 bytes per SHA-1 record.
        assert_eq!(fs::metadata(Segment::path_for(&dir, 1)).unwrap().len(), 1000 * 41);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_verifies_checksum() {
        let dir = temp_dir("stream");
        let recs = sorted_records(300);
        let mut seg = write(&dir, 1, &recs).unwrap();
        // A `len` byte of record 100, in the second block: the record
        // still parses, so only the block's check can tell.
        flip(&dir, 1, 100 * 41 + 21);
        let mut records = seg.records();
        for rec in &recs[..FENCE_EVERY] {
            assert_eq!(records.next(), Some(Ok(*rec)), "the first block is intact");
        }
        assert_eq!(records.next(), Some(Err(SegmentError::BadChecksum)));
        assert_eq!(records.next(), None, "the first error ends the walk");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_lets_the_newest_segment_win() {
        let dir = temp_dir("merge");
        // Old segment: fps 0..100. Newer: fp 50 written again, fp 100 new.
        let old = sorted_records(100);
        let mut newer =
            [(fp(50), ChunkEntry::new(5050, 7, 7)), (fp(100), ChunkEntry::new(100, 200, 100))];
        newer.sort_unstable_by_key(|(f, _)| *f);
        let s1 = write(&dir, 1, &old).unwrap();
        let s2 = write(&dir, 2, &newer).unwrap();
        let mut merged = merge_segments(&dir, 3, &mut [s1, s2]).unwrap();
        assert_eq!(merged.count(), 101, "a shadowed key is written once");
        assert_eq!(merged.get(&fp(50)).unwrap().unwrap().len, 5050, "newest wins");
        assert_eq!(merged.get(&fp(99)).unwrap().unwrap().len, 99);
        assert_eq!(merged.get(&fp(100)).unwrap().unwrap().container, 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_merge_leaves_no_output() {
        let dir = temp_dir("merge-fail");
        let s1 = write(&dir, 1, &sorted_records(300)).unwrap();
        let s2 = write(&dir, 2, &sorted_records(10)).unwrap();
        // The last block of the older input: the merge has written most
        // of its output by the time it reads the damage.
        flip(&dir, 1, 299 * 41 + 21);
        let merged = merge_segments(&dir, 3, &mut [s1, s2]);
        assert_eq!(merged.err(), Some(SegmentError::BadChecksum));
        let names = files(&dir);
        assert!(names.iter().all(|n| !n.starts_with("seg-0000000000000003")), "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fences_stay_sparse() {
        let dir = temp_dir("fence");
        let seg = write(&dir, 1, &sorted_records(6400)).unwrap();
        assert_eq!(seg.fences.len(), 100);
        assert!(seg.mem_bytes() < 6400, "fence RAM far below one entry per record");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_algorithms_round_trip() {
        let dir = temp_dir("mixed");
        let mut recs: Vec<(Fingerprint, ChunkEntry)> = (0..150u64)
            .map(|i| {
                let algo = match i % 3 {
                    0 => HashAlgorithm::Rabin96,
                    1 => HashAlgorithm::Md5,
                    _ => HashAlgorithm::Sha1,
                };
                (Fingerprint::compute(algo, &i.to_le_bytes()), ChunkEntry::new(i, i, 0))
            })
            .collect();
        recs.sort_unstable_by_key(|(f, _)| *f);
        recs.dedup_by_key(|(f, _)| *f);
        let mut seg = write(&dir, 1, &recs).unwrap();
        assert_eq!(drain(&mut seg).unwrap(), recs);
        for (f, rec) in &recs {
            assert_eq!(seg.get(f).unwrap(), Some(*rec));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

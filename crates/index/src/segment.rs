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
//! Per segment the RAM held is a sparse **fence index** — every
//! [`FENCE_EVERY`]-th record's fingerprint, the byte offset of the block
//! it starts, and a check over that block's bytes — plus the segment's
//! own [`CuckooFilter`], built once while the segment is written, and one
//! block-sized read buffer. A point lookup that passes the filter
//! binary-searches the fences and reads exactly one block (≤
//! `FENCE_EVERY` records) with one seek and one `read_exact`, checks it
//! and parses it in place.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic    "AASEG\x02"                   6 bytes
//! count    u64                           record count
//! per record (sorted strictly ascending by fingerprint):
//!   fingerprint                          1 + digest_len bytes
//!   len, container                       u64, u64
//!   offset                               u32
//! checksum  u64                          FNV-1a over the record bytes
//! ```
//!
//! Files are written under a temp name and renamed, so a crashed write
//! leaves only a `.tmp-write` file, never a half-written segment under
//! its final name. Nothing is fsynced: no process ever reopens a segment.
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
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header identifying a segment file.
pub const MAGIC: &[u8; 6] = b"AASEG\x02";

/// One fence (fingerprint, byte offset) kept in RAM per this many records.
pub const FENCE_EVERY: usize = 64;

/// Byte offset where records start (magic + count).
const RECORDS_START: u64 = 14;

/// Suffix of in-flight atomic-write temp files (same discipline as
/// `FsObjectStore`).
const TMP_SUFFIX: &str = ".tmp-write";

/// Segment encode/decode/IO failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Missing/incorrect magic header.
    BadMagic,
    /// Input ended before the structure was complete.
    Truncated,
    /// A fingerprint failed to decode.
    BadFingerprint,
    /// The trailing checksum, or a block's in-RAM check, did not match
    /// the bytes read.
    BadChecksum,
    /// Records were not strictly ascending by fingerprint.
    Unsorted,
    /// An underlying filesystem error (with path context).
    Io(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::BadMagic => write!(f, "bad segment magic"),
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

/// FNV-1a 64-bit running state.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The check a fence keeps over its block: FNV-1a's xor-multiply step
/// over 8-byte words (the tail zero-padded), eight times fewer steps per
/// lookup than the file's byte-wise checksum. Each step is a bijection
/// of the running value, so a corruption confined to one word always
/// changes the check.
fn block_check(block: &[u8]) -> u64 {
    let (words, tail) = block.as_chunks::<8>();
    let mut last = [0u8; 8];
    std::iter::zip(&mut last, tail).for_each(|(d, s)| *d = *s);
    words.iter().chain([&last]).fold(Fnv::new().0, |h, w| {
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

/// Serialises one record into `out`.
fn encode_record(out: &mut Vec<u8>, fp: &Fingerprint, e: &ChunkEntry) {
    fp.encode(out);
    out.extend_from_slice(&e.len.to_le_bytes());
    out.extend_from_slice(&e.container.to_le_bytes());
    out.extend_from_slice(&e.offset.to_le_bytes());
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

/// Reads exactly `n` bytes, mapping EOF to [`SegmentError::Truncated`].
fn read_exact_n(r: &mut impl Read, buf: &mut [u8]) -> Result<(), SegmentError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SegmentError::Truncated
        } else {
            SegmentError::Io(format!("segment read: {e}"))
        }
    })
}

/// Reads one record from a stream into `raw` (its bytes, for
/// checksumming) and parses it.
fn read_record(
    r: &mut impl Read,
    raw: &mut Vec<u8>,
) -> Result<(Fingerprint, ChunkEntry), SegmentError> {
    let mut tag = [0u8; 1];
    read_exact_n(r, &mut tag)?;
    raw.clear();
    raw.resize(record_len(tag[0])?, tag[0]);
    read_exact_n(r, raw.get_mut(1..).ok_or(SegmentError::Truncated)?)?;
    let (fp, entry, _) = parse_record(raw)?;
    Ok((fp, entry))
}

/// Streaming segment writer over any `Write + Seek` sink. Records must be
/// pushed in strictly ascending fingerprint order; they are written a
/// fence block at a time, and the fences are collected as a side product.
/// What [`SegmentEncoder::finish`] hands back: the sink, the record
/// count, the byte offset where records end, and the fence index.
type FinishedWrite<W> = (W, u64, u64, Vec<Fence>);

struct SegmentEncoder<W: Write + Seek> {
    w: W,
    fnv: Fnv,
    count: u64,
    offset: u64,
    fences: Vec<Fence>,
    last: Option<Fingerprint>,
    /// The records of the block being filled, not yet written.
    block: Vec<u8>,
}

impl<W: Write + Seek> SegmentEncoder<W> {
    fn new(mut w: W) -> Result<Self, SegmentError> {
        let header_err = |e: &io::Error| SegmentError::Io(format!("segment write header: {e}"));
        w.write_all(MAGIC).map_err(|e| header_err(&e))?;
        w.write_all(&0u64.to_le_bytes()).map_err(|e| header_err(&e))?;
        Ok(SegmentEncoder {
            w,
            fnv: Fnv::new(),
            count: 0,
            offset: RECORDS_START,
            fences: Vec::new(),
            last: None,
            block: Vec::new(),
        })
    }

    fn push(&mut self, fp: Fingerprint, entry: &ChunkEntry) -> Result<(), SegmentError> {
        if self.last.is_some_and(|l| l >= fp) {
            return Err(SegmentError::Unsorted);
        }
        self.last = Some(fp);
        if self.count.is_multiple_of(FENCE_EVERY as u64) {
            self.close_block()?;
            self.fences.push(Fence { first: fp, offset: self.offset, check: 0 });
        }
        encode_record(&mut self.block, &fp, entry);
        self.count += 1;
        Ok(())
    }

    /// Writes the block being filled and seals its fence's check.
    fn close_block(&mut self) -> Result<(), SegmentError> {
        self.w
            .write_all(&self.block)
            .map_err(|e| SegmentError::Io(format!("segment write block: {e}")))?;
        self.fnv.update(&self.block);
        self.offset += self.block.len() as u64;
        if let Some(fence) = self.fences.last_mut() {
            fence.check = block_check(&self.block);
        }
        self.block.clear();
        Ok(())
    }

    /// Writes the last block and the checksum, patches the record count
    /// into the header, and returns `(sink, count, records_end, fences)`.
    fn finish(mut self) -> Result<FinishedWrite<W>, SegmentError> {
        self.close_block()?;
        let fin_err = |what: &str, e: &io::Error| SegmentError::Io(format!("{what}: {e}"));
        self.w
            .write_all(&self.fnv.0.to_le_bytes())
            .map_err(|e| fin_err("segment write checksum", &e))?;
        self.w
            .seek(SeekFrom::Start(6))
            .map_err(|e| fin_err("segment seek header", &e))?;
        self.w
            .write_all(&self.count.to_le_bytes())
            .map_err(|e| fin_err("segment patch count", &e))?;
        Ok((self.w, self.count, self.offset, self.fences))
    }
}

/// Encodes records (strictly ascending by fingerprint) into the segment
/// file format, in memory. Pure counterpart of [`Segment::write`] — the
/// two produce identical bytes, which the property suite pins.
pub fn encode_segment(records: &[(Fingerprint, ChunkEntry)]) -> Result<Vec<u8>, SegmentError> {
    let mut enc = SegmentEncoder::new(io::Cursor::new(Vec::new()))?;
    for (fp, rec) in records {
        enc.push(*fp, rec)?;
    }
    let (cursor, _, _, _) = enc.finish()?;
    Ok(cursor.into_inner())
}

/// Decodes a full segment image, verifying magic, count, order, and
/// checksum. Never panics on arbitrary input.
pub fn decode_segment(buf: &[u8]) -> Result<Vec<(Fingerprint, ChunkEntry)>, SegmentError> {
    let (magic, header) = buf.split_first_chunk::<6>().ok_or(SegmentError::Truncated)?;
    if magic != MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let (count, body) = header.split_first_chunk::<8>().ok_or(SegmentError::Truncated)?;
    let (records_bytes, stored) = body.split_last_chunk::<8>().ok_or(SegmentError::Truncated)?;
    let count = u64::from_le_bytes(*count);
    // Each record is at least 33 bytes (12-byte digest); guard absurd
    // counts from corrupt headers before allocating.
    if count.saturating_mul(33) > buf.len() as u64 {
        return Err(SegmentError::Truncated);
    }
    let mut rest = records_bytes;
    let mut records = Vec::with_capacity(count as usize);
    let mut last: Option<Fingerprint> = None;
    for _ in 0..count {
        let (fp, rec, used) = parse_record(rest)?;
        rest = rest.get(used..).ok_or(SegmentError::Truncated)?;
        if last.is_some_and(|l| l >= fp) {
            return Err(SegmentError::Unsorted);
        }
        last = Some(fp);
        records.push((fp, rec));
    }
    if !rest.is_empty() {
        // Trailing garbage between the last record and the checksum.
        return Err(SegmentError::Truncated);
    }
    let mut fnv = Fnv::new();
    fnv.update(records_bytes);
    if fnv.0 != u64::from_le_bytes(*stored) {
        return Err(SegmentError::BadChecksum);
    }
    Ok(records)
}

/// An immutable on-disk segment plus its in-RAM fence index and filter.
pub struct Segment {
    path: PathBuf,
    file: File,
    fences: Vec<Fence>,
    filter: CuckooFilter,
    /// The block the last [`Segment::get`] read, kept so a probe
    /// allocates nothing.
    block: Vec<u8>,
    count: u64,
    records_end: u64,
}

impl Segment {
    /// Writes `records` (strictly ascending by fingerprint) as segment
    /// `seq` under `dir`, atomically, and opens it for reading. The
    /// segment's filter is built as the records pass, sized for
    /// `capacity` keys; a short hint costs one more pass over the
    /// finished file, at twice the record count and up.
    pub fn write(
        dir: &Path,
        seq: u64,
        capacity: usize,
        records: impl IntoIterator<Item = (Fingerprint, ChunkEntry)>,
    ) -> Result<Segment, SegmentError> {
        let path = Self::path_for(dir, seq);
        let tmp = dir.join(format!("seg-{seq:016x}.aaseg{TMP_SUFFIX}"));
        let mut filter = CuckooFilter::with_capacity(capacity);
        let mut full = false;
        let result = (|| {
            let f = File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
            let mut enc = SegmentEncoder::new(BufWriter::new(f))?;
            for (fp, rec) in records {
                enc.push(fp, &rec)?;
                full = full || filter.insert(&fp).is_err();
            }
            let (w, count, records_end, fences) = enc.finish()?;
            w.into_inner().map_err(|e| io_err(&tmp, "flush", e.error()))?;
            fs::rename(&tmp, &path).map_err(|e| io_err(&path, "rename", &e))?;
            let file = File::open(&path).map_err(|e| io_err(&path, "open", &e))?;
            Ok((file, count, records_end, fences))
        })();
        if result.is_err() {
            // Best-effort cleanup so a retry starts clean; the original
            // error is what matters.
            if let Err(rm) = fs::remove_file(&tmp) {
                debug_assert!(
                    rm.kind() == io::ErrorKind::NotFound,
                    "tmp cleanup failed: {rm}"
                );
            }
        }
        let (file, count, records_end, fences) = result?;
        let mut seg = Segment { path, file, fences, filter, block: Vec::new(), count, records_end };
        if full {
            let filter = CuckooFilter::build(capacity.max(count as usize) * 2, |insert| {
                let mut s = seg.stream()?;
                while let Some((fp, _)) = s.next_record()? {
                    insert(&fp);
                }
                Ok(())
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

    /// Point lookup; `Ok(None)` = fingerprint not in this segment. Reads
    /// exactly the one fence block that can hold `fp` — one seek and one
    /// `read_exact` — and checks it against its fence before parsing.
    pub fn get(&mut self, fp: &Fingerprint) -> Result<Option<ChunkEntry>, SegmentError> {
        let idx = self.fences.partition_point(|f| f.first <= *fp);
        // The last fence at or below `fp`; none means `fp` sorts first.
        let Some(&fence) = idx.checked_sub(1).and_then(|i| self.fences.get(i)) else {
            return Ok(None);
        };
        let end = self.fences.get(idx).map_or(self.records_end, |next| next.offset);
        self.block.resize((end - fence.offset) as usize, 0);
        self.file
            .seek(SeekFrom::Start(fence.offset))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        read_exact_n(&mut self.file, &mut self.block)?;
        if block_check(&self.block) != fence.check {
            return Err(SegmentError::BadChecksum);
        }
        let mut rest = self.block.as_slice();
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

    /// Opens a sequential stream over all records (for merges and filter
    /// rebuilds). The checksum is verified when the stream is drained.
    pub fn stream(&mut self) -> Result<SegmentStream<'_>, SegmentError> {
        self.file
            .seek(SeekFrom::Start(RECORDS_START))
            .map_err(|e| io_err(&self.path, "seek", &e))?;
        Ok(SegmentStream {
            r: BufReader::new(&mut self.file),
            remaining: self.count,
            fnv: Fnv::new(),
            raw: Vec::with_capacity(64),
        })
    }

    /// Deletes the segment file, consuming the handle.
    pub fn remove(self) -> Result<(), SegmentError> {
        fs::remove_file(&self.path).map_err(|e| io_err(&self.path, "remove", &e))
    }
}

/// Sequential record stream over one segment.
pub struct SegmentStream<'a> {
    r: BufReader<&'a mut File>,
    remaining: u64,
    fnv: Fnv,
    raw: Vec<u8>,
}

impl SegmentStream<'_> {
    /// The next record, or `None` when the stream is drained (at which
    /// point the checksum has been verified).
    pub fn next_record(&mut self) -> Result<Option<(Fingerprint, ChunkEntry)>, SegmentError> {
        if self.remaining == 0 {
            let mut stored = [0u8; 8];
            read_exact_n(&mut self.r, &mut stored)?;
            if u64::from_le_bytes(stored) != self.fnv.0 {
                return Err(SegmentError::BadChecksum);
            }
            // Mark verified so repeated calls don't re-read the checksum.
            self.fnv = Fnv::new();
            self.remaining = u64::MAX;
            return Ok(None);
        }
        if self.remaining == u64::MAX {
            return Ok(None);
        }
        let (fp, rec) = read_record(&mut self.r, &mut self.raw)?;
        self.fnv.update(&self.raw);
        self.remaining -= 1;
        Ok(Some((fp, rec)))
    }
}

/// Streams a k-way merge of `segments` (oldest→newest order) into a new
/// segment `seq` under `dir`, with newest-wins shadowing. Memory use is
/// O(segments), not O(records); the merged filter is sized for the
/// inputs' summed counts, an upper bound on the merged count.
pub fn merge_segments(
    dir: &Path,
    seq: u64,
    segments: &mut [Segment],
) -> Result<Segment, SegmentError> {
    // One cursor per segment, each holding its next undelivered record.
    struct Cursor<'a> {
        stream: SegmentStream<'a>,
        head: Option<(Fingerprint, ChunkEntry)>,
        age: usize, // position in `segments`: higher = newer
    }
    let capacity = segments.iter().map(|s| s.count as usize).sum();
    let mut cursors = Vec::with_capacity(segments.len());
    for (age, seg) in segments.iter_mut().enumerate() {
        let mut stream = seg.stream()?;
        let head = stream.next_record()?;
        cursors.push(Cursor { stream, head, age });
    }

    // Pull the globally-smallest fingerprint each round; among equal
    // fingerprints the newest segment wins and the others are skipped.
    let mut merged_err: Option<SegmentError> = None;
    let iter = std::iter::from_fn(|| {
        let min_fp = cursors.iter().filter_map(|c| c.head.as_ref().map(|(fp, _)| *fp)).min()?;
        let mut winner: Option<(usize, ChunkEntry)> = None;
        for c in &mut cursors {
            let Some((_, entry)) = c.head.take_if(|(fp, _)| *fp == min_fp) else { continue };
            match c.stream.next_record() {
                Ok(next) => c.head = next,
                Err(e) => {
                    merged_err = Some(e);
                    return None;
                }
            }
            if winner.as_ref().is_none_or(|(age, _)| c.age > *age) {
                winner = Some((c.age, entry));
            }
        }
        winner.map(|(_, entry)| (min_fp, entry))
    });
    let merged = Segment::write(dir, seq, capacity, iter);
    match merged_err {
        Some(e) => Err(e),
        None => merged,
    }
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

    #[test]
    fn encode_decode_round_trip() {
        let recs = sorted_records(500);
        let bytes = encode_segment(&recs).unwrap();
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back, recs);
        // Byte stability: re-encoding the decode is identical.
        assert_eq!(encode_segment(&back).unwrap(), bytes);
    }

    #[test]
    fn encode_rejects_unsorted() {
        let mut recs = sorted_records(10);
        recs.swap(0, 5);
        assert_eq!(encode_segment(&recs).err(), Some(SegmentError::Unsorted));
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = encode_segment(&sorted_records(100)).unwrap();
        // Checksum catches any record-region flip.
        let mut bad = bytes.clone();
        bad[40] ^= 0x01;
        assert!(decode_segment(&bad).is_err());
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_segment(&bad).err(), Some(SegmentError::BadMagic));
        // Truncation at every length never panics.
        for n in 0..bytes.len() {
            assert!(decode_segment(&bytes[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn file_round_trip_and_point_lookups() {
        let dir = temp_dir("rt");
        let recs = sorted_records(1000);
        let mut seg = Segment::write(&dir, 1, recs.len(), recs.iter().copied()).unwrap();
        assert_eq!(seg.count(), 1000);
        for (f, rec) in &recs {
            assert_eq!(seg.get(f).unwrap(), Some(*rec));
        }
        assert_eq!(seg.get(&fp(999_999)).unwrap(), None);
        // File bytes match the pure encoder exactly.
        let on_disk = fs::read(Segment::path_for(&dir, 1)).unwrap();
        assert_eq!(on_disk, encode_segment(&recs).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_verifies_checksum() {
        let dir = temp_dir("stream");
        let recs = sorted_records(300);
        let mut seg = Segment::write(&dir, 1, recs.len(), recs.iter().copied()).unwrap();
        let mut out = Vec::new();
        let mut s = seg.stream().unwrap();
        while let Some(r) = s.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, recs);
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
        let s1 = Segment::write(&dir, 1, old.len(), old.iter().copied()).unwrap();
        let s2 = Segment::write(&dir, 2, newer.len(), newer.iter().copied()).unwrap();
        let mut merged = merge_segments(&dir, 3, &mut [s1, s2]).unwrap();
        assert_eq!(merged.count(), 101, "a shadowed key is written once");
        assert_eq!(merged.get(&fp(50)).unwrap().unwrap().len, 5050, "newest wins");
        assert_eq!(merged.get(&fp(99)).unwrap().unwrap().len, 99);
        assert_eq!(merged.get(&fp(100)).unwrap().unwrap().container, 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fences_stay_sparse() {
        let dir = temp_dir("fence");
        let seg = Segment::write(&dir, 1, 6400, sorted_records(6400).iter().copied()).unwrap();
        assert_eq!(seg.fences.len(), 100);
        assert!(seg.mem_bytes() < 6400, "fence RAM far below one entry per record");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_algorithms_round_trip() {
        let mut recs: Vec<(Fingerprint, ChunkEntry)> = (0..50u64)
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
        let bytes = encode_segment(&recs).unwrap();
        assert_eq!(decode_segment(&bytes).unwrap(), recs);
    }
}

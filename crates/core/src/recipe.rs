//! File recipes and session manifests.
//!
//! After dedup, a file is represented by its *recipe*: the ordered list of
//! chunk references (fingerprint, length, container placement) that
//! reconstruct it. A session's recipes are bundled into a *manifest*,
//! uploaded alongside the containers; restore needs nothing else.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! magic     "AAMAN\x01"
//! session   u64
//! nfiles    u64
//! per file:
//!   path_len u16, path bytes (UTF-8)
//!   app tag  u8
//!   flags    u8   (bit 0: tiny file)
//!   nchunks  u32
//!   per chunk:
//!     fingerprint           1 + digest_len
//!     len u32, container u64, offset u32
//! ```

use aadedupe_filetype::AppType;
use aadedupe_hashing::Fingerprint;

use crate::scheme::BackupError;

const MAGIC: &[u8; 6] = b"AAMAN\x01";

/// A reference to one stored chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Chunk fingerprint (verifies restored bytes).
    pub fingerprint: Fingerprint,
    /// Chunk length in bytes.
    pub len: u32,
    /// Container object holding the chunk.
    pub container: u64,
    /// Offset within the container's data section.
    pub offset: u32,
}

/// One file's reconstruction recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecipe {
    /// File path.
    pub path: String,
    /// Application type.
    pub app: AppType,
    /// Whether the file was handled by the tiny-file path.
    pub tiny: bool,
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
}

impl FileRecipe {
    /// Logical file size (sum of chunk lengths).
    pub fn file_len(&self) -> u64 {
        self.chunks.iter().map(|c| c.len as u64).sum()
    }
}

/// All recipes of one backup session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Session number.
    pub session: u64,
    /// Per-file recipes, in backup order.
    pub files: Vec<FileRecipe>,
}

/// The next `N` bytes of a manifest being decoded, advancing `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], BackupError> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| BackupError::Corrupt("manifest: truncated".into()))?;
    *rest = tail;
    Ok(*head)
}

impl Manifest {
    /// Empty manifest for a session.
    pub fn new(session: u64) -> Self {
        Manifest { session, files: Vec::new() }
    }

    /// Total logical bytes described.
    pub fn logical_bytes(&self) -> u64 {
        self.files.iter().map(FileRecipe::file_len).sum()
    }

    /// Serialises the manifest.
    ///
    /// # Panics
    ///
    /// If a path is longer than the format's `u16` length field.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&(self.files.len() as u64).to_le_bytes());
        for f in &self.files {
            let path = f.path.as_bytes();
            assert!(path.len() <= u16::MAX as usize, "path too long");
            out.extend_from_slice(&(path.len() as u16).to_le_bytes());
            out.extend_from_slice(path);
            out.push(f.app.tag());
            out.push(u8::from(f.tiny));
            out.extend_from_slice(&(f.chunks.len() as u32).to_le_bytes());
            for c in &f.chunks {
                c.fingerprint.encode(&mut out);
                out.extend_from_slice(&c.len.to_le_bytes());
                out.extend_from_slice(&c.container.to_le_bytes());
                out.extend_from_slice(&c.offset.to_le_bytes());
            }
        }
        out
    }

    /// Parses a manifest, failing on any structural damage.
    pub fn decode(buf: &[u8]) -> Result<Self, BackupError> {
        let corrupt = |what: &str| BackupError::Corrupt(format!("manifest: {what}"));
        let mut rest = buf;
        if &take::<6>(&mut rest)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let session = u64::from_le_bytes(take(&mut rest)?);
        let nfiles = u64::from_le_bytes(take(&mut rest)?) as usize;
        if nfiles.saturating_mul(8) > buf.len() {
            return Err(corrupt("absurd file count"));
        }
        let mut files = Vec::with_capacity(nfiles);
        for _ in 0..nfiles {
            let plen = usize::from(u16::from_le_bytes(take(&mut rest)?));
            let (path, after) = rest.split_at_checked(plen).ok_or_else(|| corrupt("truncated"))?;
            rest = after;
            let path = String::from_utf8(path.to_vec()).map_err(|_| corrupt("non-UTF-8 path"))?;
            let [tag] = take(&mut rest)?;
            let app = AppType::from_tag(tag).ok_or_else(|| corrupt("bad app tag"))?;
            let [flags] = take(&mut rest)?;
            let nchunks = u32::from_le_bytes(take(&mut rest)?) as usize;
            if nchunks.saturating_mul(13) > buf.len() {
                return Err(corrupt("absurd chunk count"));
            }
            let mut chunks = Vec::with_capacity(nchunks);
            for _ in 0..nchunks {
                let (fingerprint, used) =
                    Fingerprint::decode(rest).ok_or_else(|| corrupt("bad fingerprint"))?;
                rest = rest.get(used..).ok_or_else(|| corrupt("truncated"))?;
                let len = u32::from_le_bytes(take(&mut rest)?);
                let container = u64::from_le_bytes(take(&mut rest)?);
                let offset = u32::from_le_bytes(take(&mut rest)?);
                chunks.push(ChunkRef { fingerprint, len, container, offset });
            }
            files.push(FileRecipe { path, app, tiny: flags & 1 != 0, chunks });
        }
        Ok(Manifest { session, files })
    }

    /// The prefix every manifest key of a scheme starts with.
    pub fn prefix(scheme: &str) -> String {
        format!("{scheme}/manifests/")
    }

    /// The cloud object key for a scheme's session manifest.
    pub fn key(scheme: &str, session: u64) -> String {
        format!("{}{session:08}", Self::prefix(scheme))
    }

    /// The session a listed key names: the inverse of [`Manifest::key`].
    pub fn session_of(key: &str) -> Option<u64> {
        key.rsplit('/').next()?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_hashing::HashAlgorithm;

    fn sample() -> Manifest {
        let fp = |d: &[u8], a| Fingerprint::compute(a, d);
        Manifest {
            session: 3,
            files: vec![
                FileRecipe {
                    path: "user/doc/a.doc".into(),
                    app: AppType::Doc,
                    tiny: false,
                    chunks: vec![
                        ChunkRef {
                            fingerprint: fp(b"c1", HashAlgorithm::Sha1),
                            len: 4096,
                            container: 7,
                            offset: 0,
                        },
                        ChunkRef {
                            fingerprint: fp(b"c2", HashAlgorithm::Sha1),
                            len: 2048,
                            container: 7,
                            offset: 4096,
                        },
                    ],
                },
                FileRecipe {
                    path: "user/tiny/n.txt".into(),
                    app: AppType::Txt,
                    tiny: true,
                    chunks: vec![ChunkRef {
                        fingerprint: fp(b"tiny", HashAlgorithm::Sha1),
                        len: 100,
                        container: 8,
                        offset: 12,
                    }],
                },
                FileRecipe {
                    path: "user/avi/empty.avi".into(),
                    app: AppType::Avi,
                    tiny: false,
                    chunks: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.logical_bytes(), 4096 + 2048 + 100);
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn corrupt_app_tag_rejected() {
        let mut bytes = sample().encode();
        // First file's app tag sits after magic(6)+session(8)+nfiles(8)+
        // path_len(2)+path(14).
        let tag_pos = 6 + 8 + 8 + 2 + "user/doc/a.doc".len();
        bytes[tag_pos] = 250;
        assert!(matches!(Manifest::decode(&bytes), Err(BackupError::Corrupt(_))));
    }

    #[test]
    fn empty_manifest() {
        let m = Manifest::new(9);
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back.session, 9);
        assert!(back.files.is_empty());
        assert_eq!(back.logical_bytes(), 0);
    }

    #[test]
    fn keys_are_ordered_by_session() {
        let a = Manifest::key("aa-dedupe", 2);
        let b = Manifest::key("aa-dedupe", 10);
        assert!(a < b, "zero-padded keys sort numerically");
        assert!(b.starts_with(&Manifest::prefix("aa-dedupe")));
        assert_eq!(Manifest::session_of(&b), Some(10), "a listed key names its session");
        assert_eq!(Manifest::session_of("aa-dedupe/manifests/.tmp"), None);
    }
}

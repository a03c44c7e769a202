//! Disk-backed source files for the CLI.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

use aadedupe_filetype::{classify, AppType, SourceFile};

/// A file on disk presented to a backup scheme. Bytes are read lazily;
/// the change token derives from (mtime, size) exactly like a real
/// incremental client's stat-based change detection.
pub struct DiskSourceFile {
    /// Absolute path on disk.
    abs: PathBuf,
    /// Repository-relative path (forward slashes).
    rel: String,
    app: AppType,
    size: u64,
    token: u64,
}

impl DiskSourceFile {
    /// Describes `abs`, recording it under the relative path `rel`.
    pub fn new(abs: PathBuf, rel: String) -> std::io::Result<Self> {
        let meta = fs::metadata(&abs)?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos() as u64);
        let app = classify(Path::new(&rel));
        let size = meta.len();
        // stat-derived token: changes whenever mtime or size change.
        let token = mtime
            .rotate_left(17)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(size);
        Ok(DiskSourceFile { abs, rel, app, size, token })
    }
}

impl SourceFile for DiskSourceFile {
    fn path(&self) -> &str {
        &self.rel
    }

    fn app_type(&self) -> AppType {
        self.app
    }

    fn size(&self) -> u64 {
        self.size
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "ROADMAP item 2: a read error commits an empty file; fixing it makes `SourceFile::read` fallible"
    )]
    fn read(&self) -> Vec<u8> {
        // A vanished/unreadable file backs up as empty rather than
        // aborting the whole session (mirrors real clients' skip logic).
        fs::read(&self.abs).unwrap_or_default()
    }

    fn change_token(&self) -> u64 {
        self.token
    }
}

/// Recursively collects the regular files under `root` (symlinks are
/// skipped), sorted by relative path for deterministic sessions.
pub fn walk_directory(root: &Path) -> std::io::Result<Vec<DiskSourceFile>> {
    fn recurse(dir: &Path, root: &Path, out: &mut Vec<DiskSourceFile>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let file_type = entry.file_type()?;
            if file_type.is_symlink() {
                continue;
            }
            if file_type.is_dir() {
                recurse(&path, root, out)?;
            } else if file_type.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|_| {
                        std::io::Error::other(format!(
                            "walked path {} escapes scan root {}",
                            path.display(),
                            root.display()
                        ))
                    })?
                    .to_string_lossy()
                    .replace(std::path::MAIN_SEPARATOR, "/");
                out.push(DiskSourceFile::new(path, rel)?);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    recurse(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_tree() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aadedupe-cli-src-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("a.txt"), b"alpha").unwrap();
        fs::write(dir.join("sub/b.pdf"), vec![1u8; 2000]).unwrap();
        dir
    }

    #[test]
    fn walks_recursively_sorted() {
        let dir = temp_tree();
        let files = walk_directory(&dir).unwrap();
        let rels: Vec<&str> = files.iter().map(SourceFile::path).collect();
        assert_eq!(rels, vec!["a.txt", "sub/b.pdf"]);
        assert_eq!(files[0].app_type(), aadedupe_filetype::AppType::Txt);
        assert_eq!(files[1].app_type(), aadedupe_filetype::AppType::Pdf);
        assert_eq!(files[0].size(), 5);
        assert_eq!(files[0].read(), b"alpha");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn token_tracks_content_changes() {
        let dir = temp_tree();
        let before = walk_directory(&dir).unwrap();
        // Same stat → same token.
        let again = walk_directory(&dir).unwrap();
        assert_eq!(before[0].change_token(), again[0].change_token());
        // Different size → different token (mtime granularity can be
        // coarse on some filesystems, so change the size too).
        fs::write(dir.join("a.txt"), b"alpha-extended").unwrap();
        let after = walk_directory(&dir).unwrap();
        assert_ne!(before[0].change_token(), after[0].change_token());
        let _ = fs::remove_dir_all(dir);
    }
}

//! What the standalone `index_scaling` bin needs beyond the evaluation
//! sweep: the mixed-category corpus generator, the environment-knob
//! reader, and the schema version and machine identification stamped into
//! its JSON document.

use aadedupe_filetype::MemoryFile;
use aadedupe_workload::Prng;

/// Version stamped into the standalone `index_scaling` bin's JSON
/// document.
pub const BIN_SCHEMA_VERSION: u32 = 1;

/// Reads `key` from the environment, falling back to `default` when the
/// variable is absent or unparsable.
pub fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A mixed-category corpus of ~`mb` MiB: large CDC-chunked media/archives,
/// mid-size SC-chunked documents, and a sprinkle of tiny files so every
/// pipeline stage (size filter, all three chunkers, tiny packer) is hot.
/// ~A third of the big files repeat earlier content so the dedup and
/// duplicate-chunk paths see real traffic. Deterministic in (`mb`, `seed`,
/// `prefix`).
pub fn mixed_corpus(mb: usize, seed: u64, prefix: &str) -> Vec<MemoryFile> {
    let mut files = Vec::new();
    let target = mb << 20;
    let mut produced = 0usize;
    let exts = ["pdf", "doc", "mp3", "zip", "txt", "html", "vmdk", "avi"];
    let mut i = 0usize;
    while produced < target {
        let ext = exts[i % exts.len()];
        let len = match i % 8 {
            // A few tiny files per cycle keep the bypass path exercised.
            0 => 2 * 1024,
            1 | 2 => 64 * 1024,
            3..=5 => 256 * 1024,
            _ => 1 << 20,
        };
        let mut data = vec![0u8; len];
        Prng::derive(&[seed, i as u64]).fill(&mut data);
        if i % 3 == 2 && len >= 64 * 1024 {
            let half = len / 2;
            let (a, b) = data.split_at_mut(half);
            b[..half].copy_from_slice(&a[..half]);
        }
        files.push(MemoryFile::new(format!("{prefix}/f{i:05}.{ext}"), data));
        produced += len;
        i += 1;
    }
    files
}

/// The host description stamped into bench artifacts, as a JSON fragment:
/// numbers from two machines are only comparable when this matches.
pub fn machine_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {cpus}}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadedupe_filetype::SourceFile;

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let a = mixed_corpus(2, 0x5CA1E, "scale");
        let b = mixed_corpus(2, 0x5CA1E, "scale");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.path(), y.path());
            assert_eq!(x.data, y.data);
        }
        let total: usize = a.iter().map(|f| f.data.len()).sum();
        assert!(total >= 2 << 20, "corpus reaches the requested size");
        // Different seed ⇒ different bytes.
        let c = mixed_corpus(2, 0xE5702E, "scale");
        assert_ne!(a[1].data, c[1].data);
    }

    #[test]
    fn machine_json_parses() {
        let doc = aadedupe_obs::json::parse(&machine_json()).expect("machine JSON parses");
        assert!(doc.get("cpus").as_u64().is_some());
        assert!(doc.get("os").as_str().is_some());
    }
}

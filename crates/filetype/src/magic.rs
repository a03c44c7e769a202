//! Magic-byte content sniffing.
//!
//! Used as a fallback when a file has no (or an unknown) extension. Only
//! formats relevant to the paper's twelve application types are recognised;
//! anything else returns `None` and the caller falls back to
//! [`AppType::Other`].

use crate::AppType;

/// A magic signature: pattern bytes matched at a fixed offset.
struct Signature {
    offset: usize,
    pattern: &'static [u8],
    app: AppType,
}

/// Signature table, first match wins. Longer/more-specific signatures are
/// listed before shorter prefixes they could shadow.
const SIGNATURES: &[Signature] = &[
    // RIFF....AVI LIST
    Signature { offset: 0, pattern: b"RIFF", app: AppType::Avi },
    // MP3: ID3 tag or MPEG frame sync.
    Signature { offset: 0, pattern: b"ID3", app: AppType::Mp3 },
    Signature { offset: 0, pattern: &[0xFF, 0xFB], app: AppType::Mp3 },
    // ISO 9660: "CD001" at offset 0x8001 — too deep for a head buffer, so
    // also accept the El Torito boot record head many images carry.
    Signature { offset: 0x8001, pattern: b"CD001", app: AppType::Iso },
    // DMG (UDIF) trailers aren't in the head; zlib-compressed UDIF blocks
    // frequently start with "koly" when tools copy the trailer first.
    Signature { offset: 0, pattern: b"koly", app: AppType::Dmg },
    // RAR 4.x and 5.x.
    Signature { offset: 0, pattern: b"Rar!\x1a\x07", app: AppType::Rar },
    // ZIP (classified with archives).
    Signature { offset: 0, pattern: b"PK\x03\x04", app: AppType::Rar },
    // GZIP.
    Signature { offset: 0, pattern: &[0x1F, 0x8B], app: AppType::Rar },
    // JPEG/JFIF.
    Signature { offset: 0, pattern: &[0xFF, 0xD8, 0xFF], app: AppType::Jpg },
    // PNG (classified with images).
    Signature { offset: 0, pattern: &[0x89, b'P', b'N', b'G'], app: AppType::Jpg },
    // PDF.
    Signature { offset: 0, pattern: b"%PDF-", app: AppType::Pdf },
    // PE executables ("MZ"), ELF, Mach-O.
    Signature { offset: 0, pattern: b"MZ", app: AppType::Exe },
    Signature { offset: 0, pattern: &[0x7F, b'E', b'L', b'F'], app: AppType::Exe },
    Signature { offset: 0, pattern: &[0xFE, 0xED, 0xFA, 0xCE], app: AppType::Exe },
    Signature { offset: 0, pattern: &[0xCF, 0xFA, 0xED, 0xFE], app: AppType::Exe },
    // VMware sparse-extent VMDK ("KDMV") and descriptor files.
    Signature { offset: 0, pattern: b"KDMV", app: AppType::Vmdk },
    Signature { offset: 0, pattern: b"# Disk DescriptorFile", app: AppType::Vmdk },
    // Legacy MS Office compound file (DOC/PPT/XLS share it; map to DOC).
    Signature {
        offset: 0,
        pattern: &[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1],
        app: AppType::Doc,
    },
];

/// Sniffs the application type from the first bytes of a file.
///
/// `head` should contain at least the first few hundred bytes; deep-offset
/// signatures (ISO 9660) are only checked when the buffer is long enough.
pub fn sniff(head: &[u8]) -> Option<AppType> {
    for sig in SIGNATURES {
        let end = sig.offset + sig.pattern.len();
        // aalint: allow(panic-path) -- head.len() >= end short-circuits before the slice
        if head.len() >= end && &head[sig.offset..end] == sig.pattern {
            return Some(sig.app);
        }
    }
    // Mostly-printable heads are treated as text.
    if !head.is_empty() && head.len() >= 16 {
        let printable = head
            .iter()
            .take(512)
            .filter(|&&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7f).contains(&b))
            .count();
        let scanned = head.len().min(512);
        if printable * 100 >= scanned * 97 {
            return Some(AppType::Txt);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognises_common_formats() {
        assert_eq!(sniff(b"%PDF-1.4 blah"), Some(AppType::Pdf));
        assert_eq!(sniff(&[0xFF, 0xD8, 0xFF, 0xE0, 0, 0]), Some(AppType::Jpg));
        assert_eq!(sniff(b"Rar!\x1a\x07\x00"), Some(AppType::Rar));
        assert_eq!(sniff(b"PK\x03\x04...."), Some(AppType::Rar));
        assert_eq!(sniff(b"MZ\x90\x00"), Some(AppType::Exe));
        assert_eq!(sniff(&[0x7F, b'E', b'L', b'F', 2, 1]), Some(AppType::Exe));
        assert_eq!(sniff(b"KDMV\x01\x00"), Some(AppType::Vmdk));
        assert_eq!(sniff(b"ID3\x04\x00"), Some(AppType::Mp3));
        assert_eq!(sniff(b"RIFF\x24\x00\x00\x00AVI LIST"), Some(AppType::Avi));
        assert_eq!(
            sniff(&[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1, 0, 0]),
            Some(AppType::Doc)
        );
    }

    #[test]
    fn iso_deep_offset() {
        let mut img = vec![0u8; 0x8010];
        img[0x8001..0x8006].copy_from_slice(b"CD001");
        assert_eq!(sniff(&img), Some(AppType::Iso));
        // Too-short head cannot see the deep signature.
        assert_eq!(sniff(&img[..0x100]), None);
    }

    #[test]
    fn printable_text_heuristic() {
        let text = b"fn main() {\n    println!(\"hello\");\n}\nmore text to pass the minimum\n";
        assert_eq!(sniff(text), Some(AppType::Txt));
        // Binary noise is not text.
        let noise: Vec<u8> = (0..256u16).map(|i| (i as u8).wrapping_mul(37)).collect();
        assert_eq!(sniff(&noise), None);
    }

    #[test]
    fn short_or_empty_heads() {
        assert_eq!(sniff(b""), None);
        assert_eq!(sniff(b"ab"), None); // below the 16-byte text minimum
        assert_eq!(sniff(b"MZ"), Some(AppType::Exe)); // exact-length signature still matches
    }
}

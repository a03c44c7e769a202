#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Application/file-type classification for AA-Dedupe.
//!
//! The paper's central premise is that the dedup pipeline should be
//! specialised per *application*: "the selection for the proper chunking
//! methods and hash functions in deduplication is entirely based on file
//! type" (§III.E). This crate supplies that type system:
//!
//! * [`AppType`] — the twelve concrete application types of the paper's
//!   Table 1 (AVI, MP3, ISO, DMG, RAR, JPG, PDF, EXE, VMDK, DOC, TXT, PPT)
//!   plus an `Other` catch-all.
//! * [`Category`] — the paper's three dedup categories (§III.C):
//!   compressed, static uncompressed, dynamic uncompressed.
//! * [`classify`] — the extension tables: a file's type is its
//!   extension, as in the paper.
//! * [`DedupPolicy`] — the category → (chunking method, hash algorithm)
//!   table of the paper's Fig. 6.

pub mod policy;
pub mod source;

pub use policy::DedupPolicy;
pub use source::{MemoryFile, SourceFile};

use std::fmt;
use std::path::Path;

/// The concrete application types studied in the paper's Table 1.
///
/// Each variant carries the paper's measured dataset characteristics via
/// [`AppType::profile`], which the workload generator uses for calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppType {
    /// AVI video (compressed).
    Avi,
    /// MP3 audio (compressed).
    Mp3,
    /// ISO disc images (compressed contents).
    Iso,
    /// macOS disk images (compressed).
    Dmg,
    /// RAR archives (compressed).
    Rar,
    /// JPEG images (compressed).
    Jpg,
    /// PDF documents (static uncompressed container).
    Pdf,
    /// Executables / installed binaries (static uncompressed).
    Exe,
    /// VMware virtual disk images (static uncompressed, block-updated).
    Vmdk,
    /// Word-processor documents (dynamic uncompressed).
    Doc,
    /// Plain text / source code (dynamic uncompressed).
    Txt,
    /// Presentations (dynamic uncompressed).
    Ppt,
    /// Anything else; treated as dynamic uncompressed (the conservative
    /// choice: CDC + SHA-1 never loses redundancy, only efficiency).
    Other,
}

/// The paper's three dedup categories (§III.C), which drive chunking and
/// hash selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Compressed application data: negligible sub-file redundancy → WFC.
    Compressed,
    /// Static uncompressed data (rarely edited, or block-updated like VM
    /// images) → SC.
    StaticUncompressed,
    /// Dynamic uncompressed data (frequently edited documents) → CDC.
    DynamicUncompressed,
}

impl Category {
    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            Category::Compressed => "compressed",
            Category::StaticUncompressed => "static-uncompressed",
            Category::DynamicUncompressed => "dynamic-uncompressed",
        }
    }

    /// All categories, in a stable order.
    pub const ALL: [Category; 3] = [
        Category::Compressed,
        Category::StaticUncompressed,
        Category::DynamicUncompressed,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-application dataset characteristics from the paper's Table 1,
/// used to calibrate the synthetic workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Dataset size in MB in the paper's corpus.
    pub dataset_mb: u64,
    /// Mean file size in bytes.
    pub mean_file_size: u64,
    /// Dedup ratio achieved by 8 KiB static chunking after file-level dedup.
    pub sc_dr: f64,
    /// Dedup ratio achieved by 8 KiB-average CDC after file-level dedup.
    pub cdc_dr: f64,
}

impl AppType {
    /// All twelve paper application types (excluding `Other`), in Table 1
    /// order.
    pub const TABLE1: [AppType; 12] = [
        AppType::Avi,
        AppType::Mp3,
        AppType::Iso,
        AppType::Dmg,
        AppType::Rar,
        AppType::Jpg,
        AppType::Pdf,
        AppType::Exe,
        AppType::Vmdk,
        AppType::Doc,
        AppType::Txt,
        AppType::Ppt,
    ];

    /// All types including `Other`.
    pub const ALL: [AppType; 13] = [
        AppType::Avi,
        AppType::Mp3,
        AppType::Iso,
        AppType::Dmg,
        AppType::Rar,
        AppType::Jpg,
        AppType::Pdf,
        AppType::Exe,
        AppType::Vmdk,
        AppType::Doc,
        AppType::Txt,
        AppType::Ppt,
        AppType::Other,
    ];

    /// Canonical lowercase extension for the type.
    pub const fn extension(self) -> &'static str {
        match self {
            AppType::Avi => "avi",
            AppType::Mp3 => "mp3",
            AppType::Iso => "iso",
            AppType::Dmg => "dmg",
            AppType::Rar => "rar",
            AppType::Jpg => "jpg",
            AppType::Pdf => "pdf",
            AppType::Exe => "exe",
            AppType::Vmdk => "vmdk",
            AppType::Doc => "doc",
            AppType::Txt => "txt",
            AppType::Ppt => "ppt",
            AppType::Other => "bin",
        }
    }

    /// Uppercase display name matching the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            AppType::Avi => "AVI",
            AppType::Mp3 => "MP3",
            AppType::Iso => "ISO",
            AppType::Dmg => "DMG",
            AppType::Rar => "RAR",
            AppType::Jpg => "JPG",
            AppType::Pdf => "PDF",
            AppType::Exe => "EXE",
            AppType::Vmdk => "VMDK",
            AppType::Doc => "DOC",
            AppType::Txt => "TXT",
            AppType::Ppt => "PPT",
            AppType::Other => "OTHER",
        }
    }

    /// The dedup category of this application type (paper §III.C).
    pub const fn category(self) -> Category {
        match self {
            AppType::Avi
            | AppType::Mp3
            | AppType::Iso
            | AppType::Dmg
            | AppType::Rar
            | AppType::Jpg => Category::Compressed,
            AppType::Pdf | AppType::Exe | AppType::Vmdk => Category::StaticUncompressed,
            AppType::Doc | AppType::Txt | AppType::Ppt | AppType::Other => {
                Category::DynamicUncompressed
            }
        }
    }

    /// Stable single-byte tag for on-disk encodings and index partitioning.
    pub const fn tag(self) -> u8 {
        match self {
            AppType::Avi => 1,
            AppType::Mp3 => 2,
            AppType::Iso => 3,
            AppType::Dmg => 4,
            AppType::Rar => 5,
            AppType::Jpg => 6,
            AppType::Pdf => 7,
            AppType::Exe => 8,
            AppType::Vmdk => 9,
            AppType::Doc => 10,
            AppType::Txt => 11,
            AppType::Ppt => 12,
            AppType::Other => 13,
        }
    }

    /// Inverse of [`AppType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        AppType::ALL.into_iter().find(|t| t.tag() == tag)
    }

    /// Table 1 characteristics for calibration of synthetic corpora.
    /// Mean file sizes are the paper's values; dedup ratios are SC/CDC DR
    /// after file-level dedup.
    pub const fn profile(self) -> AppProfile {
        const MB: u64 = 1 << 20;
        const KB: u64 = 1 << 10;
        match self {
            AppType::Avi => AppProfile { dataset_mb: 2243, mean_file_size: 198 * MB, sc_dr: 1.0002, cdc_dr: 1.0002 },
            AppType::Mp3 => AppProfile { dataset_mb: 1410, mean_file_size: 5 * MB, sc_dr: 1.001, cdc_dr: 1.002 },
            AppType::Iso => AppProfile { dataset_mb: 1291, mean_file_size: 646 * MB, sc_dr: 1.002, cdc_dr: 1.002 },
            AppType::Dmg => AppProfile { dataset_mb: 1032, mean_file_size: 86 * MB, sc_dr: 1.004, cdc_dr: 1.004 },
            AppType::Rar => AppProfile { dataset_mb: 1452, mean_file_size: 12 * MB, sc_dr: 1.008, cdc_dr: 1.008 },
            AppType::Jpg => AppProfile { dataset_mb: 1797, mean_file_size: 2 * MB, sc_dr: 1.009, cdc_dr: 1.009 },
            AppType::Pdf => AppProfile { dataset_mb: 910, mean_file_size: 403 * KB, sc_dr: 1.015, cdc_dr: 1.014 },
            AppType::Exe => AppProfile { dataset_mb: 400, mean_file_size: 298 * KB, sc_dr: 1.063, cdc_dr: 1.062 },
            AppType::Vmdk => AppProfile { dataset_mb: 28473, mean_file_size: 312 * MB, sc_dr: 1.286, cdc_dr: 1.168 },
            AppType::Doc => AppProfile { dataset_mb: 550, mean_file_size: 180 * KB, sc_dr: 1.231, cdc_dr: 1.234 },
            AppType::Txt => AppProfile { dataset_mb: 906, mean_file_size: 615 * KB, sc_dr: 1.232, cdc_dr: 1.259 },
            AppType::Ppt => AppProfile { dataset_mb: 320, mean_file_size: 977 * KB, sc_dr: 1.275, cdc_dr: 1.3 },
            AppType::Other => AppProfile { dataset_mb: 0, mean_file_size: 64 * KB, sc_dr: 1.1, cdc_dr: 1.12 },
        }
    }
}

impl fmt::Display for AppType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies a file by its path extension alone.
///
/// Unknown or missing extensions map to [`AppType::Other`]. Matching is
/// case-insensitive and understands common aliases (`jpeg` → JPG,
/// `docx` → DOC, …).
pub fn classify(path: &Path) -> AppType {
    let ext = match path.extension().and_then(|e| e.to_str()) {
        Some(e) => e.to_ascii_lowercase(),
        None => return AppType::Other,
    };
    classify_extension(&ext)
}

/// Classifies a lowercase extension string.
pub fn classify_extension(ext: &str) -> AppType {
    match ext {
        "avi" | "mov" | "mp4" | "mkv" | "wmv" => AppType::Avi,
        "mp3" | "aac" | "m4a" | "ogg" | "flac" => AppType::Mp3,
        "iso" | "img" => AppType::Iso,
        "dmg" => AppType::Dmg,
        "rar" | "zip" | "gz" | "bz2" | "7z" | "xz" | "tgz" => AppType::Rar,
        "jpg" | "jpeg" | "png" | "gif" => AppType::Jpg,
        "pdf" => AppType::Pdf,
        "exe" | "dll" | "so" | "dylib" | "app" | "msi" => AppType::Exe,
        "vmdk" | "vdi" | "qcow2" | "vhd" => AppType::Vmdk,
        "doc" | "docx" | "rtf" | "odt" | "pages" => AppType::Doc,
        "txt" | "md" | "log" | "csv" | "xml" | "json" | "html" | "c" | "h" | "rs" | "py"
        | "java" | "cpp" | "tex" => AppType::Txt,
        "ppt" | "pptx" | "key" | "odp" | "xls" | "xlsx" => AppType::Ppt,
        _ => AppType::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn table1_categories_match_paper() {
        use Category::*;
        let expect = [
            (AppType::Avi, Compressed),
            (AppType::Mp3, Compressed),
            (AppType::Iso, Compressed),
            (AppType::Dmg, Compressed),
            (AppType::Rar, Compressed),
            (AppType::Jpg, Compressed),
            (AppType::Pdf, StaticUncompressed),
            (AppType::Exe, StaticUncompressed),
            (AppType::Vmdk, StaticUncompressed),
            (AppType::Doc, DynamicUncompressed),
            (AppType::Txt, DynamicUncompressed),
            (AppType::Ppt, DynamicUncompressed),
        ];
        for (t, c) in expect {
            assert_eq!(t.category(), c, "{t}");
        }
    }

    #[test]
    fn extension_classification() {
        assert_eq!(classify(&PathBuf::from("a/b/movie.AVI")), AppType::Avi);
        assert_eq!(classify(&PathBuf::from("x.jpeg")), AppType::Jpg);
        assert_eq!(classify(&PathBuf::from("report.docx")), AppType::Doc);
        assert_eq!(classify(&PathBuf::from("notes.txt")), AppType::Txt);
        assert_eq!(classify(&PathBuf::from("image.vmdk")), AppType::Vmdk);
        assert_eq!(classify(&PathBuf::from("noext")), AppType::Other);
        assert_eq!(classify(&PathBuf::from("weird.zzz")), AppType::Other);
    }

    #[test]
    fn tags_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in AppType::ALL {
            assert!(seen.insert(t.tag()), "duplicate tag for {t}");
            assert_eq!(AppType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(AppType::from_tag(0), None);
        assert_eq!(AppType::from_tag(200), None);
    }

    #[test]
    fn profiles_match_table1() {
        // Spot-check the values driving workload calibration.
        let vmdk = AppType::Vmdk.profile();
        assert_eq!(vmdk.dataset_mb, 28473);
        assert!(vmdk.sc_dr > vmdk.cdc_dr, "Observation 3: SC beats CDC on VMDK");
        let txt = AppType::Txt.profile();
        assert!(txt.cdc_dr > txt.sc_dr, "CDC beats SC on dynamic TXT");
        let avi = AppType::Avi.profile();
        assert!(avi.sc_dr < 1.01, "compressed data has negligible sub-file redundancy");
    }

    #[test]
    fn display_names() {
        assert_eq!(AppType::Vmdk.to_string(), "VMDK");
        assert_eq!(Category::Compressed.to_string(), "compressed");
    }
}

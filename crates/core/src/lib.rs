#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! The AA-Dedupe engine (paper §III, Fig. 5).
//!
//! The backup path implements the architecture of the paper's Fig. 5:
//!
//! ```text
//! files ──► file size filter ──► intelligent chunker ──► deduplicator
//!              │ (<10 KiB)          (WFC/SC/CDC by         (app-aware
//!              ▼                     category)              index)
//!        tiny-file packer ─────────────────────────────► container
//!                                                         management ──► cloud
//! ```
//!
//! * [`engine::AaDedupe`] — the scheme itself: application-aware chunking,
//!   adaptive hashing, per-application index partitions, container
//!   aggregation, pipelined chunk+hash workers, periodic index sync.
//! * [`scheme::BackupScheme`] — the uniform interface every scheme in the
//!   workspace implements, so the evaluation harness can sweep all five.
//! * [`recipe`] — file recipes and the per-session manifest format that
//!   both AA-Dedupe and the baselines persist to the cloud.
//! * [`restore`] — manifest-driven restore with fingerprint verification.
//! * [`timing`] — cost model for CPU work (measured) and index disk probes
//!   (modelled).

pub mod engine;
pub mod recipe;
pub mod restore;
pub mod retention;
pub mod retry;
pub mod scheme;
pub mod timing;
pub mod vacuum;

pub use engine::{AaDedupe, AaDedupeConfig, PipelineConfig};
pub use recipe::{ChunkRef, FileRecipe, Manifest};
pub use restore::{
    restore_file_pipelined, restore_session, restore_session_pipelined, RestoreOptions,
    RestoredFile,
};
pub use retention::{RetentionPolicy, RetentionReport};
pub use retry::RetryPolicy;
pub use scheme::{BackupError, BackupScheme};
pub use vacuum::{VacuumOptions, VacuumReport};

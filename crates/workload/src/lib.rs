#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! Synthetic PC backup workload generator.
//!
//! The paper drives its evaluation with a private trace: 10 consecutive
//! weekly full backups of a user directory — 351 GB, 68,972 files, 12
//! applications. That trace is unavailable, so this crate generates a
//! statistically equivalent synthetic workload (the substitution is argued
//! in DESIGN.md §5). Everything the evaluation consumes is calibrated to
//! the paper's published numbers:
//!
//! * **File size mix** (Figs. 1–2): ~61 % of files are tiny (< 10 KiB)
//!   holding ~1.2 % of bytes; ~1.4 % of files exceed 1 MiB and hold ~75 %
//!   of bytes.
//! * **Per-application redundancy** (Table 1): compressed types carry no
//!   sub-file redundancy; static types carry *aligned* duplicate blocks
//!   (so SC ≥ CDC); dynamic types carry *unaligned* shared runs (so
//!   CDC ≥ SC).
//! * **Cross-application sharing ≈ 0** (Observation 2): every type draws
//!   content from its own seeded pools.
//! * **Weekly churn**: compressed files are immutable but accrete; static
//!   files rarely change; VM images take in-place block writes; dynamic
//!   documents take insert/delete/replace edits that shift byte offsets.
//!
//! All content is derived from `(dataset seed, file id, version)` tuples,
//! so snapshots are deterministic, unchanged files are byte-identical
//! across weeks, and nothing is held in RAM until a file is
//! [`materialize`](FileEntry::materialize)d.

pub mod content;
pub mod generator;
pub mod model;
pub mod rng;
pub mod sizedist;

pub use generator::{FileEntry, Generator, Snapshot};
pub use model::{AppSpec, DatasetSpec};
pub use rng::Prng;
pub use sizedist::{SizeBucket, SizeHistogram};

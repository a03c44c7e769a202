#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Evaluation metrics and analytic models for AA-Dedupe.
//!
//! The paper's Table II glossary, reproduced here because every symbol
//! appears in this crate's APIs:
//!
//! | Sym | Meaning              | Sym | Meaning            |
//! |-----|----------------------|-----|--------------------|
//! | DE  | Dedupe Efficiency    | SC  | Saved Capacity     |
//! | DT  | Dedupe Throughput    | DS  | Dataset Size       |
//! | NT  | Network Throughput   | DR  | Dedupe Ratio       |
//! | BWS | Backup Window Size   | SP  | Storage Price      |
//! | OP  | Operation Price      | TP  | Transfer Price     |
//! | OC  | Operation Count      | CC  | Cloud Cost         |
//!
//! * [`efficiency`] — the paper's new metric **bytes saved per second**
//!   (`DE = (1 − 1/DR)·DT`) and the pipelined backup-window model
//!   (`BWS = DS·max(1/DT, 1/(DR·NT))`).
//! * [`energy`] — power/energy model attributing consumption to CPU-bound
//!   dedup time and network-bound transfer time.
//! * [`report`] — the [`SessionReport`] record every backup scheme emits
//!   per session; the bench harness aggregates these into the paper's
//!   figures.

pub mod efficiency;
pub mod energy;
pub mod report;

pub use efficiency::{backup_window_secs, dedup_efficiency, dedup_ratio};
pub use energy::EnergyModel;
pub use report::SessionReport;

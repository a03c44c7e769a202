#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok))]
//! # AA-Dedupe
//!
//! A Rust reproduction of **"AA-Dedupe: An Application-Aware Source
//! Deduplication Approach for Cloud Backup Services in the Personal
//! Computing Environment"** (Fu, Jiang, Xiao, Tian, Liu — IEEE CLUSTER
//! 2011).
//!
//! This façade crate re-exports the workspace members under stable module
//! names so downstream users can depend on `aa-dedupe` alone:
//!
//! * [`hashing`] — MD5, SHA-1 and Rabin fingerprints, implemented from
//!   scratch.
//! * [`chunking`] — whole-file (WFC), static (SC) and content-defined (CDC)
//!   chunking.
//! * [`filetype`] — application/file-type classification and the
//!   per-category dedup policy table.
//! * [`index`] — monolithic and application-aware chunk indexes.
//! * [`container`] — self-describing 1 MiB chunk containers.
//! * [`cloud`] — simulated cloud object store, WAN model and S3-style cost
//!   accounting.
//! * [`metrics`] — dedup efficiency, backup-window, cost and energy models.
//! * [`obs`] — structured tracing, per-stage latency histograms and
//!   pipeline profiling for the backup engine.
//! * [`workload`] — synthetic PC backup workload generator calibrated to the
//!   paper's published dataset statistics.
//! * [`core`] — the AA-Dedupe engine itself (file size filter, intelligent
//!   chunker, application-aware deduplicator, pipelined backup, restore).
//! * [`baselines`] — clean-room reimplementations of the paper's comparison
//!   schemes: Jungle Disk, BackupPC, Avamar and SAM.
//!
//! ## Quickstart
//!
//! ```
//! use aa_dedupe::core::{AaDedupe, BackupScheme};
//! use aa_dedupe::cloud::CloudSim;
//! use aa_dedupe::workload::{DatasetSpec, Generator};
//!
//! // A small synthetic PC dataset (two weekly snapshots).
//! let mut generator = Generator::new(DatasetSpec::tiny_test(), 42);
//! let week0 = generator.snapshot(0);
//!
//! // Back it up with AA-Dedupe into a simulated cloud.
//! let cloud = CloudSim::with_paper_defaults();
//! let mut scheme = AaDedupe::new(cloud);
//! let report = scheme.backup_session(&week0.as_sources()).unwrap();
//! assert!(report.stored_bytes <= report.logical_bytes);
//! ```

pub use aadedupe_baselines as baselines;
pub use aadedupe_chunking as chunking;
pub use aadedupe_cloud as cloud;
pub use aadedupe_container as container;
pub use aadedupe_core as core;
pub use aadedupe_filetype as filetype;
pub use aadedupe_hashing as hashing;
pub use aadedupe_index as index;
pub use aadedupe_metrics as metrics;
pub use aadedupe_obs as obs;
pub use aadedupe_workload as workload;

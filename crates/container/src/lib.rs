#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::indexing_slicing, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::missing_panics_doc))]
//! Self-describing chunk containers (paper §III.F).
//!
//! Deduplication turns large sequential writes into many small random ones,
//! and WAN protocols (and S3's per-request pricing) punish small transfers.
//! AA-Dedupe therefore aggregates new chunks and tiny files into fixed-size
//! (default 1 MiB) **containers** before upload:
//!
//! * A container is *self-describing*: a metadata section holds a
//!   descriptor (fingerprint, offset, length) for every stored chunk, so a
//!   container alone suffices to rebuild index entries.
//! * One **open container per backup stream**; each new chunk is appended
//!   to the open container of its stream. Chunk locality groups data likely
//!   to be restored together.
//! * A full container is sealed and shipped; a container flushed early is
//!   **padded** to its fixed size (padding is accounted —
//!   `paper ablation-container` sweeps the size/padding tradeoff).
//! * Chunks too large to share a container (e.g. whole-file chunks of
//!   media files) get a dedicated, unpadded container of their own.
//! * Deletion support: a background sweep (the core crate's vacuum pass)
//!   repacks the live chunks of mostly-dead containers through the same
//!   [`ContainerStore`] that sessions append to, so every container in the
//!   system is sealed by one producer.
//!
//! Modules: [`format`](mod@format) (the byte layout) and [`store`]
//! (open-container management and sealing, over a crate-private
//! incremental builder).

mod builder;
pub mod format;
pub mod store;

pub use format::{ChunkDescriptor, ContainerError, ParsedContainer, CONTAINER_MAGIC};
pub use store::{
    compose_id, decompose_id, ContainerStore, Placement, SealedContainer, StoreStats,
    STREAM_ID_SHIFT,
};

/// Default fixed container size: 1 MiB (paper §III.F).
pub const DEFAULT_CONTAINER_SIZE: usize = 1 << 20;

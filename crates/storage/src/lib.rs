//! # treedoc-storage
//!
//! The durability layer of a Treedoc replica: a crash loses neither the
//! document nor the replication state (vector clock, unacked send log) the
//! at-least-once and flatten-commitment machinery depends on.
//!
//! * [`backend`] — the pluggable [`StorageBackend`] blob store (in-memory
//!   and real-file implementations);
//! * [`wal`] — an append-only, length-prefixed, CRC-checked record log;
//!   torn or corrupt tails are detected and cleanly ignored on replay;
//! * [`snapshot`] — checkpoints as named sections behind a manifest of
//!   per-section content hashes with a merkle-style root, verified on load;
//! * [`store`] — [`DocStore`], which owns recovery (newest valid snapshot +
//!   WAL tail) and compaction (checkpoint on flatten commit, truncating the
//!   pre-epoch WAL — the committed epoch of §4.2.1 is the natural
//!   log-compaction point).
//!
//! Sections and records are opaque here. The replication layer snapshots a
//! document as its cell stream (the encoding anti-entropy ships), not as
//! the paper's §5.2 heap-array image, which the `treedoc-reference` crate
//! keeps for Table 1's "on-disk overhead" column.
//!
//! ## Multi-document hosting
//!
//! A hosting node keeps many documents over one backend. Two pieces make
//! that shape first-class:
//!
//! * [`backend::NamespacedBackend`] — a per-document blob-namespace view
//!   over a shared, counting [`backend::SharedBackend`] (with
//!   [`backend::list_namespaces`] to rediscover hosted documents after a
//!   restart, and [`FileBackend::open_shard`] for the on-disk shard
//!   directory layout);
//! * [`group`] — the cross-document group-commit WAL: every document of a
//!   shard logs into one shared append queue, a flush writes the whole
//!   queue with a single backend segment append, and per-document replay
//!   cursors (durable in snapshot names) keep recovery isolated per
//!   document, and a per-document record index makes a document's replay
//!   read only the segments holding its unfolded records. [`DocStore::with_group_wal`] opens a store in that mode;
//!   its `append`/`checkpoint`/`recover` API is unchanged, so the
//!   replication layer's journaling works identically over either sink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod checksum;
pub mod group;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use backend::{
    list_namespaces, reject_path_separators, FileBackend, MemoryBackend, NamespacedBackend,
    SharedBackend, SharedStats, StorageBackend, StorageError, NAMESPACE_SEPARATOR,
};
pub use checksum::{combine_hashes, content_hash64, crc32};
pub use group::{GroupReplay, GroupWal, GroupWalStats};
pub use snapshot::{Snapshot, SnapshotError};
pub use store::{DocStore, Recovered, RecoveryStats};
pub use wal::{TailFault, WalEntry, WalReplay};

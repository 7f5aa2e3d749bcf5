//! # treedoc-node
//!
//! A multi-document **hosting node**: one process serving many Treedoc
//! documents to many user sessions — the "hostable multi-user
//! synchronization node" shape the reproduction's roadmap aims at, built on
//! the layers underneath:
//!
//! * every document is an ordinary [`treedoc_replication::Replica`] over a
//!   [`treedoc_core::Treedoc`], durable through the existing
//!   [`treedoc_storage::DocStore`] journaling and recovery;
//! * documents are spread over `S` **shards**. A shard is one shared blob
//!   backend ([`treedoc_storage::SharedBackend`]; on disk a
//!   `shard-<idx>/` directory via
//!   [`treedoc_storage::FileBackend::open_shard`]) in which each document
//!   owns a blob namespace ([`treedoc_storage::NamespacedBackend`]) for its
//!   snapshots;
//! * each shard's WAL traffic goes through one cross-document
//!   **group-commit** log ([`treedoc_storage::GroupWal`]): all resident
//!   documents of the shard enqueue records, and a node
//!   [`commit`](HostingNode::commit) makes them durable with a single
//!   segment append per shard;
//! * the node keeps a bounded **resident set**: cold documents are evicted
//!   (checkpointed to a snapshot, in-memory tree dropped) by an LRU policy
//!   ([`resident::ResidentSet`]) and faulted back in on first touch through
//!   the ordinary [`Replica::recover`](treedoc_replication::Replica::recover)
//!   path — eviction and crash recovery are the *same* mechanism, which is
//!   what makes the eviction correctness properties testable;
//! * a fault-in costs what the document owns, not what the shard holds: the
//!   document's store lists its namespace once and reads its newest
//!   snapshot, and the group WAL's per-document record index reads only
//!   the segments holding the document's records past its cursor — none at
//!   all for a document checkpointed at eviction. An eviction lists
//!   nothing. `tests/fault_in_io.rs` pins these backend-call counts, equal
//!   at 400 and 800 hosted documents;
//! * after a node-wide crash, [`HostingNode::restart`] rediscovers every
//!   hosted document from the shard backends
//!   ([`treedoc_storage::list_namespaces`]) and restarts it evicted (each
//!   shard's group WAL reads its segments once to rebuild its index); state
//!   flushed by the last `commit`/checkpoint is recovered exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod resident;

pub use node::{HostingNode, NodeStats, SessionId};
pub use resident::ResidentSet;

use std::fmt;

use treedoc_storage::StorageError;

/// Identifier of a hosted document (its blob namespace is `d<id>`).
pub type DocId = u64;

/// Tuning knobs of a [`HostingNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Number of shards documents are spread over (`doc % shards`).
    pub shards: usize,
    /// Resident-set capacity: touching a document beyond this evicts the
    /// least-recently-used resident one.
    pub max_resident: usize,
    /// Site identifier the node stamps operations with.
    pub site: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            shards: 4,
            max_resident: 64,
            site: 1,
        }
    }
}

impl NodeConfig {
    /// The shard hosting `doc`.
    pub fn shard_of(&self, doc: DocId) -> usize {
        (doc % self.shards.max(1) as u64) as usize
    }
}

/// What can go wrong serving a session.
#[derive(Debug)]
pub enum NodeError {
    /// The session id was never admitted (or already disconnected).
    UnknownSession(u64),
    /// The document is not hosted by this node.
    UnknownDocument(DocId),
    /// An edit addressed a position outside the document.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// Document length at the time.
        len: usize,
    },
    /// The durable layer failed.
    Storage(StorageError),
    /// A document could not be rebuilt from its store.
    Recover(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            NodeError::UnknownDocument(id) => write!(f, "document {id} is not hosted here"),
            NodeError::OutOfRange { index, len } => {
                write!(
                    f,
                    "position {index} out of range for document of length {len}"
                )
            }
            NodeError::Storage(e) => write!(f, "storage error: {e}"),
            NodeError::Recover(msg) => write!(f, "recovery failed: {msg}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<StorageError> for NodeError {
    fn from(e: StorageError) -> Self {
        NodeError::Storage(e)
    }
}

//! # treedoc-replication
//!
//! The happened-before delivery substrate the Treedoc CRDT relies on (§1 and
//! §2.2 of the paper): operations initiated at one site must be replayed at
//! every other site in an order compatible with Lamport's happened-before
//! relation — concurrent operations may arrive in any order, which is exactly
//! the case the CRDT design makes harmless.
//!
//! The crate provides:
//!
//! * [`VectorClock`] — the causality-tracking clock each replica maintains;
//! * [`CausalMessage`] / [`CausalBuffer`] — causal broadcast: messages carry
//!   the sender's clock and a duplicate-safe hold-back queue (per-sender FIFO
//!   queues keyed by next-expected sequence number) delivers them only once
//!   their causal predecessors have been delivered, discarding stale copies;
//! * [`SimNetwork`] — a deterministic discrete-event network simulator with
//!   per-link latency, drop/duplicate/reorder-burst fault injection and
//!   partitions, used by the test suite, the `treedoc-sim` scenarios and the
//!   flatten commitment protocol;
//! * [`Replica`] — glue that owns a document, stamps locally initiated
//!   operations and replays remote ones in causal order, for any document
//!   type implementing [`ReplicatedDocument`] (provided here for
//!   [`Treedoc`](treedoc_core::Treedoc) and implementable for any other CRDT,
//!   e.g. the Logoot baseline). Its at-least-once mode logs stamped messages
//!   and retransmits them until peers acknowledge via [`Envelope::Ack`],
//!   making convergence hold on lossy links too;
//! * [`flatten`] — distributed flatten commitment (§4.2.1): the proposal,
//!   vote and outcome types and the 2PC/3PC [`FlattenCoordinator`] that
//!   runs the agreement as real messages; [`Replica`] is the participant;
//! * [`wire`] — the binary wire codec: every [`Envelope`] and
//!   [`WalRecord`] has a compact, versioned binary form built on
//!   [`treedoc_core::codec`], with [`OpBatch`] entries delta-encoded
//!   against each other (shared-prefix identifiers, elided clocks and
//!   senders). [`Replica`]'s sender-side batching ([`BatchPolicy`],
//!   [`Replica::stamp_batched`]) buffers stamps until a flush threshold
//!   and coalesces retransmission windows into single batch envelopes.
//!   A single-op envelope is [`chain`]ed to its sender's previous stamped
//!   op, so a typed keystroke crosses the wire in about 16 bytes;
//! * [`persist`] — durability: with a [`DocStore`](treedoc_storage::DocStore)
//!   attached, a replica journals every event to a checksummed WAL before
//!   acting on it (binary records of [`wire`]; a record in any other
//!   format fails recovery with a typed [`RecoverError`]), checkpoints on
//!   committed flattens (truncating the pre-epoch log) and recovers after
//!   a crash with its document, clock, hold-back and unacked send log
//!   intact ([`Replica::recover`]);
//! * [`sync`] — state-based anti-entropy: replicas compare incremental
//!   merkle digests, walk diverging identifier ranges in `O(log n)` digest
//!   rounds and ship only the missing runs of cells
//!   ([`Replica::sync_probe`] / [`Replica::receive_sync`]); a brand-new
//!   site bootstraps from snapshot chunks instead
//!   ([`Replica::snapshot_envelopes`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chain;
pub mod clock;
pub mod flatten;
pub mod network;
pub mod persist;
pub mod replica;
pub mod sync;
pub mod testkit;
pub mod wire;

pub use causal::{
    BufferStats, CausalBuffer, CausalBufferImage, CausalMessage, Deliveries, Receipt,
};
pub use chain::ChainedOp;
pub use clock::{ClockOrdering, VectorClock};
pub use flatten::{
    CommitOutcome, CommitProtocol, CoordinatorStats, DecisionKind, FlattenCoordinator,
    FlattenDecision, FlattenProposal, FlattenPropose, FlattenVote, Vote, VoteStage,
};
pub use network::{LinkConfig, NetworkEvent, SimNetwork};
pub use persist::{PersistentDocument, RecoverError, RecoveryReport, WalRecord};
pub use replica::{
    BatchPolicy, Envelope, FlattenDocument, OpBatch, Replica, ReplicatedDocument, SyncEffect,
};
pub use sync::{
    RangeDigest, SnapshotChunk, SnapshotOffer, SyncConfig, SyncDigests, SyncDocument, SyncRoot,
    SyncRuns,
};
pub use wire::{decode_envelope, encode_envelope, WireError};

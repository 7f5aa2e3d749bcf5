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
//! * [`Replica`] — the wiring that owns a document, stamps locally
//!   initiated operations and replays remote ones in causal order, for any
//!   document implementing [`ReplicatedDocument`] (here [`Treedoc`](treedoc_core::Treedoc);
//!   any other CRDT, e.g. the Logoot baseline, can implement it). One
//!   handler, [`Replica::receive_any`], takes every envelope and returns its
//!   [`Effect`]; each protocol part below owns its state in its own module
//!   (the table in [`replica`]);
//! * [`chain`] — single-op envelopes delta-encoded against the sender's
//!   previous op, so a typed keystroke costs about 16 wire bytes;
//! * [`send`] — chaining, batching ([`BatchPolicy`]) and the at-least-once
//!   send log, retransmitted until peers acknowledge ([`Envelope::Ack`]);
//! * [`flatten`] — distributed flatten commitment (§4.2.1): the proposal,
//!   vote and outcome types, the 2PC/3PC [`FlattenCoordinator`] and the
//!   participant every replica runs;
//! * [`wire`] — the [`Envelope`]s and the binary codec of every envelope and
//!   [`WalRecord`], with [`OpBatch`] entries delta-encoded against each other;
//! * [`persist`] — durability: a replica with a
//!   [`DocStore`](treedoc_storage::DocStore) journals every event before
//!   acting on it, checkpoints on committed flattens and recovers after a
//!   crash with its document, clock, hold-back and send log intact
//!   ([`Replica::recover`]; any other record format is a typed
//!   [`RecoverError`]);
//! * [`sync`] — state-based anti-entropy: merkle digest walks that ship
//!   only the diverging cells ([`Replica::sync_probe`]), and snapshot
//!   bootstrap for a brand-new site ([`Replica::snapshot_envelopes`]).
//!
//! ## Telemetry
//!
//! A [`Replica`] counts into the registry bound with
//! [`Replica::set_telemetry`], one counter per tally, each kept by the part
//! whose event it counts:
//!
//! | counter | counts |
//! | --- | --- |
//! | `replica.ops_stamped` | operations stamped here |
//! | `replica.ops_received` | operations arriving in envelopes or [`Replica::receive`] |
//! | `replica.ops_applied` | operations delivered to the document |
//! | `replica.replays_skipped` | delivered operations the document already held (sync only) |
//! | `replica.duplicates_discarded` | stale or duplicate operations discarded, by the causal buffer or as chained envelopes already delivered or parked |
//! | `replica.chained_ops_dropped` | chained envelopes that disagreed with the chain head they name |
//! | `replica.retransmissions` | send-log entries handed out again for a peer |
//! | `replica.batches_flushed` / `replica.batch_ops` | batches emitted and the operations in them |
//! | `flatten.votes_cast` | flatten votes (local proposals included) |
//! | `flatten.commits` / `flatten.aborts` | flattens committed here / proposals seen aborted |
//! | `flatten.unilateral_commits` | 3PC commits taken after the pre-commit timeout |
//! | `flatten.blocked_ticks` | ticks spent locked in the prepared state |
//! | `flatten.late_epoch_ops` | operations tagged with an older flatten epoch |
//! | `sync.digests_rx` / `sync.runs_rx` | digest and leaf messages of the walk received |
//! | `sync.cells_integrated` / `sync.echo_bytes` | cells a leaf changed, bytes of the echoes sent |
//!
//! The replica counts and never reads a clock: what a stamp or a receipt
//! costs is timed from outside (`perfbench`). The `replica.holdback_depth`
//! gauge keeps the largest hold-back seen. An attached store adds the
//! `store.*` instruments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chain;
pub mod clock;
pub mod flatten;
pub mod network;
pub mod persist;
pub mod replica;
pub mod send;
pub mod sync;
pub mod testkit;
pub mod wire;

pub use causal::{CausalBuffer, CausalMessage, Deliveries, Receipt};
pub use chain::ChainedOp;
pub use clock::{ClockOrdering, VectorClock};
pub use flatten::{
    CommitOutcome, CommitProtocol, CoordinatorStats, DecisionKind, FlattenCoordinator,
    FlattenDecision, FlattenDocument, FlattenProposal, FlattenPropose, FlattenVote, Vote,
    VoteStage,
};
pub use network::{LinkConfig, NetworkEvent, SimNetwork};
pub use persist::{PersistentDocument, RecoverError, RecoveryReport, WalRecord};
pub use replica::{Effect, Envelope, OpBatch, Replica, ReplicatedDocument};
pub use send::{BatchPolicy, MAX_BATCH_BYTES};
pub use sync::{
    RangeDigest, SnapshotChunk, SnapshotOffer, SyncDigests, SyncDocument, SyncRoot, SyncRuns,
};
pub use wire::{decode_envelope, encode_envelope, WireError};

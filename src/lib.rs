//! # treedoc-repro
//!
//! Umbrella crate of the reproduction of *"A Commutative Replicated Data Type
//! for Cooperative Editing"* (Preguiça, Marquès, Shapiro, Leția — ICDCS
//! 2009).
//!
//! It re-exports every sub-crate of the workspace so the examples and
//! integration tests can reach the whole system through a single dependency:
//!
//! * [`core`] (`treedoc-core`) — the Treedoc CRDT itself,
//! * [`replication`] (`treedoc-replication`) — vector clocks, causal
//!   delivery, the simulated network, the binary wire/WAL codec and the
//!   2PC/3PC agreement for `flatten`,
//! * [`storage`] (`treedoc-storage`) — the durable store: backends, WAL,
//!   verified snapshots and group commit,
//! * [`trace`] (`treedoc-trace`) — diffs, synthetic corpora and the replay
//!   harness behind the paper's evaluation,
//! * [`sim`] (`treedoc-sim`) — multi-site cooperative-editing scenarios,
//! * [`node`] (`treedoc-node`) — the multi-document hosting node (sharded
//!   stores, cold eviction, group-commit WAL),
//! * [`telemetry`] (`treedoc-telemetry`) — counters, gauges, log-bucketed
//!   histograms and the bounded trace ring every subsystem records into,
//! * [`logoot`] — the Logoot baseline CRDT of §5.3.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the reproduction of
//! every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use logoot;
pub use treedoc_core as core;
pub use treedoc_node as node;
pub use treedoc_replication as replication;
pub use treedoc_sim as sim;
pub use treedoc_storage as storage;
pub use treedoc_telemetry as telemetry;
pub use treedoc_trace as trace;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use treedoc_core::{
        codec, Op, PosId, Sdis, SiteId, Treedoc, TreedocConfig, Udis, WireAtom, WireDis,
        WirePayload,
    };
    pub use treedoc_node::{DocId, HostingNode, NodeConfig, NodeError, SessionId};
    pub use treedoc_replication::{
        decode_envelope, encode_envelope, BatchPolicy, CausalBuffer, CausalMessage, CommitOutcome,
        CommitProtocol, Effect, Envelope, FlattenCoordinator, FlattenProposal, LinkConfig, OpBatch,
        PersistentDocument, RecoverError, RecoveryReport, Replica, SimNetwork, SyncDocument,
        VectorClock, Vote, WireError,
    };
    pub use treedoc_sim::{
        crash_recovery_demo, partitioned_commit_demo, CrashRecoveryReport, CrashSchedule,
        PartitionedCommitReport, Scenario, ScenarioMatrix, SimReport,
    };
    pub use treedoc_storage::{
        DocStore, FileBackend, GroupWal, MemoryBackend, NamespacedBackend, SharedBackend, Snapshot,
        StorageBackend,
    };
    pub use treedoc_telemetry::{
        parse_jsonl, Counter, Gauge, Histogram, Registry, RegistrySnapshot, Telemetry, TraceEvent,
        Tracer,
    };
}

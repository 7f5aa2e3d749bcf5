//! # treedoc-sim
//!
//! A multi-site cooperative-editing simulator.
//!
//! The paper's evaluation replays serialised edit histories on a single
//! replica; this crate exercises the *distributed* claim — convergence of
//! concurrently edited replicas under happened-before delivery — by driving
//! several [`Replica`](treedoc_replication::Replica)s over the seeded
//! discrete-event network of `treedoc-replication`:
//!
//! * every site performs random local edits (seeded, reproducible),
//! * operations are broadcast through the simulated network (latency,
//!   reordering, optional partitions, and seeded drop/duplicate/reorder-burst
//!   fault injection),
//! * causal delivery is enforced by each replica's duplicate-safe hold-back
//!   buffer; on lossy links the at-least-once ack/retransmit protocol
//!   recovers dropped messages — or, with [`Scenario::anti_entropy`],
//!   state-based merkle-digest sync sessions repair the divergence instead
//!   (and a [`Scenario::late_join`]er bootstraps mid-run from snapshot
//!   chunks; [`Scenario::offline`] models a long offline gap),
//! * at the end the scenario drains the network, runs recovery rounds until
//!   every send log is acknowledged (or every root digest agrees, in
//!   anti-entropy mode), and asserts convergence.
//!
//! [`Scenario`] describes a run; [`run`] executes it and returns the
//! [`SimReport`] used by the integration tests, the examples and the
//! benchmark ablations. [`ScenarioMatrix`] expands a cross-product of fault
//! axes (loss × duplication × partition × burst × balancing × snapshot
//! cadence × crash timing) into scenarios and runs them all.
//!
//! With [`Scenario::durable`] every replica journals through a checksummed
//! WAL into a [`DocStore`](treedoc_storage::DocStore) and checkpoints on
//! committed flattens; [`Scenario::crash`] kills a site mid-run and restarts
//! it from that store, with the recovery cost (records replayed, bytes read
//! back, snapshot hits) reported in the [`SimReport`]. The scripted
//! [`crash_recovery_demo`] additionally proves the crash invisible: the
//! recovered session ends with the same digest as the crash-free one.
//!
//! The [`hosting`] module leaves the single-document world: it drives
//! Zipf-popularity user sessions over thousands of documents on one
//! [`HostingNode`](treedoc_node::HostingNode), counting resident memory
//! against the hosted population, evictions, fault-ins and group-commit
//! appends, and checking node-wide crash recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commitment;
pub mod hosting;
pub mod recovery;
pub mod scenario;

pub use commitment::{partitioned_commit_demo, PartitionedCommitReport};
pub use hosting::{run_hosting, HostingReport, HostingScenario, Zipf};
pub use recovery::{crash_recovery_demo, CrashRecoveryReport};
pub use scenario::{
    run, run_with, CrashSchedule, OfflineWindow, Scenario, ScenarioMatrix, SimReport,
};

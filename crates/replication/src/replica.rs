//! A replica = a document + a causal delivery layer.
//!
//! [`Replica`] owns any document implementing [`ReplicatedDocument`], stamps
//! the operations it initiates with the replica's vector clock, and replays
//! remote operations through a [`CausalBuffer`] so that happened-before order
//! is always respected — the only delivery requirement the CRDT needs (§2.2).
//!
//! Everything else is a protocol part that owns its state and logic in the
//! module that holds its messages:
//!
//! | part | module | owns |
//! | --- | --- | --- |
//! | causal delivery | [`crate::causal`] | the delivered clock and the causal hold-back |
//! | chained envelopes | [`crate::chain`] | per-sender chain heads and parked chained ops |
//! | sender | [`crate::send`] | envelope chaining, the batcher, the at-least-once send log and acks |
//! | flatten participant | [`crate::flatten`] | the epoch, votes, decisions and the prepared lock |
//! | anti-entropy | [`crate::sync`] | the digest walk and snapshot bootstrap |
//! | journal | [`crate::persist`] | the WAL chain, checkpoints and recovery |
//!
//! `Replica` holds the parts, the operations held back for a future flatten
//! epoch, and the dispatch ([`receive_envelope`](Replica::receive_envelope)
//! for operations and acks on any document, [`receive_any`](Replica::receive_any)
//! for every envelope), plus the glue that touches more than one part:
//! journaling an arrival before acting on it, the chain cascade, a sync
//! fast-forward that releases held ops, a flatten commit that drains them.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use serde::{de::DeserializeOwned, Deserialize, Serialize};
use treedoc_core::{Error, HasSource, Op, Side, SiteId, Treedoc, WireAtom, WireDis, WirePayload};
use treedoc_storage::{DocStore, Snapshot, StorageError};
use treedoc_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::causal::{CausalBuffer, CausalBufferImage, CausalMessage, Receipt};
use crate::chain::{ChainedOp, OpChains, OpChainsImage, Resolution};
use crate::clock::VectorClock;
use crate::flatten::{CommitProtocol, FlattenDocument, FlattenPropose, FlattenRole};
use crate::persist::{
    self, Journal, PersistentDocument, RecoverError, RecoveryReport, WalRecord, SECTION_REPLICA,
};
use crate::send::{AtLeastOnce, BatchPolicy, Sender};
use crate::sync::{self, SyncDocument, SyncRoot, SyncSession};
use crate::wire;
pub use crate::wire::{Effect, Envelope, OpBatch};

/// A document type that can be driven by a [`Replica`].
pub trait ReplicatedDocument {
    /// The operation type exchanged between replicas, with its binary wire
    /// form (the one format envelopes and WAL records are written in).
    type Op: Clone + WirePayload;

    /// Replays one delivered operation. Returns `false` when the document
    /// already held the operation's effect and skipped it: state transfer
    /// can move a cell ahead of clock coverage (a sync session that
    /// converges asymmetrically leaves one side holding synced cells its
    /// clock does not yet cover), so an operation delivered later may find
    /// its insert already integrated or its atom already deleted. Any other
    /// failure means a broken delivery layer and panics.
    fn replay(&mut self, op: &Self::Op) -> bool;

    /// A cheap digest of the document content, used by the test harness and
    /// the simulator to check convergence without comparing full documents.
    fn digest(&self) -> u64;
}

impl<A, D> ReplicatedDocument for Treedoc<A, D>
where
    A: WireAtom + std::hash::Hash,
    D: WireDis + HasSource,
{
    type Op = Op<A, D>;

    #[allow(
        clippy::panic,
        reason = "the documented contract: only a broken delivery layer gets here"
    )]
    fn replay(&mut self, op: &Op<A, D>) -> bool {
        match self.apply(op) {
            Ok(()) => true,
            // A duplicate insert (the identifier holds a live atom or a
            // tombstone) or a delete of an unknown identifier: the effect
            // reached the store as a synced cell, whose precedence already
            // decided it.
            Err(Error::DuplicatePosId { .. } | Error::UnknownPosId { .. }) => false,
            // Anything else cannot happen under causal delivery; the
            // simulator's tests want to hear about it loudly.
            Err(e) => panic!("causally delivered operation must replay cleanly: {e}"),
        }
    }

    fn digest(&self) -> u64 {
        // The store's incremental merkle digest: O(1) to read, covers every
        // stored cell (live, tombstone, ghost) and is independent of how the
        // store fragmented — the same digest the anti-entropy protocol
        // compares, so "converged" means the same thing everywhere.
        self.merkle_digest()
    }
}

/// The durable form of a whole [`Replica`] minus the document (which has its
/// own snapshot sections — see [`PersistentDocument`]). The flatten
/// participant and the send log are written as their live structs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaImage<Op> {
    site: SiteId,
    buffer: CausalBufferImage<Op>,
    epoch_held: Vec<(u64, CausalMessage<Op>)>,
    at_least_once: Option<AtLeastOnce<Op>>,
    flatten: FlattenRole,
    /// Chain heads and parked chained ops of the envelope resolver (absent
    /// while the replica has received no op).
    chains: Option<OpChainsImage<Op>>,
}

/// The replica's own instruments; each part binds its own (see
/// [`Replica`]). Inert until [`Replica::set_telemetry`].
#[derive(Debug, Clone, Default)]
struct ReplicaMetrics {
    /// The bound handle, kept so a store attached later inherits it.
    telemetry: Telemetry,
    stamp_micros: Histogram,
    ops_received: Counter,
    receive_micros: Histogram,
    ops_applied: Counter,
    replays_skipped: Counter,
    duplicates_discarded: Counter,
    holdback_depth: Gauge,
}

impl ReplicaMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        ReplicaMetrics {
            telemetry: telemetry.clone(),
            stamp_micros: telemetry.histogram("replica.stamp_micros"),
            ops_received: telemetry.counter("replica.ops_received"),
            receive_micros: telemetry.histogram("replica.receive_micros"),
            ops_applied: telemetry.counter("replica.ops_applied"),
            replays_skipped: telemetry.counter("replica.replays_skipped"),
            duplicates_discarded: telemetry.counter("replica.duplicates_discarded"),
            holdback_depth: telemetry.gauge("replica.holdback_depth"),
        }
    }
}

/// A document plus the machinery to exchange its operations causally.
///
/// The replica keeps protocol state only. What it and its parts count goes
/// to the registry bound with [`set_telemetry`](Self::set_telemetry), one
/// counter per tally (listed in the [crate docs](crate#telemetry)), summed
/// over every replica bound to the same registry. A recovered replica
/// counts nothing while it replays its WAL: bind it after
/// [`recover`](Self::recover) returns.
#[derive(Debug)]
pub struct Replica<Doc: ReplicatedDocument> {
    site: SiteId,
    doc: Doc,
    buffer: CausalBuffer<Doc::Op>,
    /// Operations stamped in a flatten epoch this replica has not reached
    /// yet (their identifiers live in the post-flatten tree), held back
    /// until the local flatten commits.
    epoch_held: Vec<(u64, CausalMessage<Doc::Op>)>,
    chains: OpChains<Doc::Op>,
    sender: Sender<Doc::Op>,
    flatten: FlattenRole,
    sync: SyncSession,
    /// The attached durable store, when persistence is on (see
    /// [`attach_store`](Replica::attach_store)).
    journal: Option<Journal<Doc>>,
    metrics: ReplicaMetrics,
}

impl<Doc: ReplicatedDocument> Replica<Doc> {
    /// Wraps a document.
    pub fn new(site: SiteId, doc: Doc) -> Self {
        Replica {
            site,
            doc,
            buffer: CausalBuffer::new(),
            epoch_held: Vec::new(),
            chains: OpChains::default(),
            sender: Sender::new(None),
            flatten: FlattenRole::default(),
            sync: SyncSession::default(),
            journal: None,
            metrics: ReplicaMetrics::default(),
        }
    }

    /// Points every part's instruments at `telemetry`, and forwards the
    /// handle to the attached store if any. A disabled handle reverts
    /// everything to no-ops.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = ReplicaMetrics::resolve(telemetry);
        self.chains.bind(telemetry);
        self.sender.bind(telemetry);
        self.flatten.bind(telemetry);
        self.sync.bind(telemetry);
        if let Some(journal) = self.journal.as_mut() {
            journal.store.set_telemetry(telemetry);
        }
    }

    /// Appends one WAL record, constructed lazily so the non-durable path
    /// (and WAL replay, which runs with no journal attached) pays nothing.
    fn journal_with(&mut self, record: impl FnOnce() -> WalRecord<Doc::Op>) {
        if let Some(journal) = self.journal.as_mut() {
            journal.append(self.flatten.epoch(), record());
        }
    }

    /// The replica's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Read access to the document.
    pub fn doc(&self) -> &Doc {
        &self.doc
    }

    /// Write access to the document, for *local* edits only (the returned
    /// operations must then be wrapped with [`stamp`](Self::stamp) and
    /// broadcast).
    pub fn doc_mut(&mut self) -> &mut Doc {
        &mut self.doc
    }

    /// The replica's current causal clock.
    pub fn clock(&self) -> &VectorClock {
        self.buffer.delivered_clock()
    }

    /// Number of operations this replica initiated: its own entry of its
    /// causal clock, which every stamp advances by one (and which a
    /// recovered replica gets back with its clock).
    pub fn ops_sent(&self) -> u64 {
        self.buffer.delivered_clock().get(self.site)
    }

    /// Content digest, for convergence checks.
    pub fn digest(&self) -> u64 {
        self.doc.digest()
    }

    /// Number of messages still waiting for causal predecessors (including
    /// operations held back for a future flatten epoch, and chained ops
    /// parked until their predecessor resolves).
    pub fn pending(&self) -> usize {
        self.buffer.pending_len() + self.epoch_held.len() + self.chains.parked_len()
    }

    // --- Sending ---

    /// Stamps a locally initiated operation with this replica's clock,
    /// producing the message to broadcast. In at-least-once mode the message
    /// is also retained for retransmission until every peer acknowledges it.
    pub fn stamp(&mut self, op: Doc::Op) -> CausalMessage<Doc::Op> {
        let span = self.metrics.stamp_micros.start();
        let clock = self.buffer.record_local(self.site);
        let message = CausalMessage {
            sender: self.site,
            clock,
            payload: op,
        };
        let epoch = self.flatten.epoch();
        self.sender.log(epoch, &message);
        // Persist before the message can leave the replica: a recovered
        // replica still holds the edit and can retransmit it.
        self.journal_with(|| WalRecord::Stamped {
            epoch,
            msg: message.clone(),
        });
        span.stop();
        message
    }

    /// Stamps a locally initiated operation and wraps it in an envelope
    /// tagged with the replica's current flatten epoch — the broadcast form
    /// the simulator sends: an [`Envelope::OpChained`] when the envelope
    /// this method stamped last is the op's immediate predecessor, the
    /// absolute [`Envelope::Op`] otherwise (see [`crate::send`]).
    pub fn stamp_envelope(&mut self, op: Doc::Op) -> Envelope<Doc::Op> {
        let epoch = self.flatten.epoch();
        let msg = self.stamp(op);
        self.sender.envelope(epoch, msg)
    }

    /// Switches the replica to batched sending: operations stamped through
    /// [`stamp_batched`](Self::stamp_batched) are buffered and emitted as
    /// [`Envelope::OpBatch`]es when `policy` triggers (see [`crate::send`]).
    pub fn enable_batching(&mut self, policy: BatchPolicy) {
        assert!(policy.max_ops >= 1, "a batch holds at least one operation");
        self.sender.enable_batching(policy);
    }

    /// Stamps a locally initiated operation into the current batch, returning
    /// the batch when the flush policy triggered. Without
    /// [`enable_batching`](Self::enable_batching) it is exactly
    /// [`stamp_envelope`](Self::stamp_envelope), so drivers need one call.
    pub fn stamp_batched(&mut self, op: Doc::Op) -> Option<Envelope<Doc::Op>> {
        if !self.sender.is_batching() {
            return Some(self.stamp_envelope(op));
        }
        let epoch = self.flatten.epoch();
        let msg = self.stamp(op);
        self.sender.batch(epoch, msg)
    }

    /// Emits whatever the batcher holds, regardless of the flush policy;
    /// `None` when the batch is empty or batching is off.
    pub fn flush_batch(&mut self) -> Option<Envelope<Doc::Op>> {
        self.sender.flush()
    }

    /// Operations buffered in the current (unflushed) batch.
    pub fn pending_batch_len(&self) -> usize {
        self.sender.pending_batch_len()
    }

    /// Switches the replica to at-least-once mode: every message stamped from
    /// now on is logged until all `peers` have acknowledged it. Idempotent
    /// and merging: registered peers keep their acknowledgements.
    pub fn enable_at_least_once(&mut self, peers: &[SiteId]) {
        self.journal_with(|| WalRecord::PeersEnabled {
            peers: peers.to_vec(),
        });
        self.sender.enable_at_least_once(self.site, peers);
    }

    /// `true` while the send log holds a message some peer has not acked.
    pub fn has_unacked(&self) -> bool {
        self.sender.has_unacked()
    }

    /// The acknowledgement envelope this replica would broadcast right now.
    pub fn ack_envelope(&self) -> Envelope<Doc::Op> {
        Envelope::Ack {
            from: self.site,
            clock: self.buffer.delivered_clock().clone(),
        }
    }

    /// Every logged message `peer` has not acknowledged yet, tagged with the
    /// epoch it was **stamped** in (so one retransmitted after a flatten is
    /// still recognisable as late pre-flatten traffic), counted in
    /// `replica.retransmissions`. Empty outside at-least-once mode.
    ///
    /// # Panics
    ///
    /// If `peer` was not registered with
    /// [`enable_at_least_once`](Self::enable_at_least_once).
    pub fn unacked_envelopes_for(&mut self, peer: SiteId) -> Vec<Envelope<Doc::Op>> {
        let entries = self.sender.unacked(peer);
        let envelope = |(epoch, msg)| Envelope::Op { epoch, msg };
        entries.into_iter().map(envelope).collect()
    }

    /// Like [`unacked_envelopes_for`](Self::unacked_envelopes_for), but
    /// coalesced into a **single** [`Envelope::OpBatch`], so a round costs
    /// one envelope. `None` when the peer is fully acknowledged.
    pub fn unacked_batch_for(&mut self, peer: SiteId) -> Option<Envelope<Doc::Op>> {
        let entries = self.sender.unacked(peer);
        (!entries.is_empty()).then_some(Envelope::OpBatch(OpBatch { entries }))
    }

    // --- Receiving ---

    /// Receives a message from the network (persisted first, with a store
    /// attached); buffered messages that become deliverable are replayed
    /// immediately, in causal order, and duplicates are discarded.
    pub fn receive(&mut self, msg: CausalMessage<Doc::Op>) -> usize {
        let epoch = self.flatten.epoch();
        self.receive_ops(Envelope::Op { epoch, msg }, false)
    }

    /// Handles an operation or acknowledgement [`Envelope`]: operations go
    /// through chain resolution, epoch filtering and causal delivery,
    /// acknowledgements update the send log. Returns the number of
    /// operations applied.
    ///
    /// Flatten and sync envelopes are **ignored**: answering them needs a
    /// [`FlattenDocument`] and a [`SyncDocument`] ([`receive_any`](Self::receive_any)).
    pub fn receive_envelope(&mut self, envelope: Envelope<Doc::Op>) -> usize {
        match envelope {
            Envelope::Op { .. } | Envelope::OpChained(_) | Envelope::OpBatch(_) => {
                self.receive_ops(envelope, true)
            }
            Envelope::Ack { from, clock } => {
                let acked = clock.get(self.site);
                if self.sender.ack_advances(from, acked) {
                    self.journal_received(&Envelope::Ack { from, clock });
                    self.sender.record_ack(from, acked);
                }
                0
            }
            _ => 0,
        }
    }

    /// Persists an arriving envelope before the replica acts on it — the
    /// one place a `Received` record is written. Known duplicate operations
    /// are left out (a batch keeps its fresh entries): their replay changes
    /// nothing, so this trims the WAL by roughly the duplicate rate.
    fn journal_received(&mut self, envelope: &Envelope<Doc::Op>) {
        if self.journal.is_none() {
            return;
        }
        let fresh = match envelope {
            Envelope::Op { epoch, msg }
                if self.is_known_duplicate(*epoch, msg.sender, msg.seq()) =>
            {
                return;
            }
            Envelope::OpBatch(batch) => {
                let entries: Vec<_> = batch
                    .entries
                    .iter()
                    .filter(|(epoch, msg)| !self.is_known_duplicate(*epoch, msg.sender, msg.seq()))
                    .cloned()
                    .collect();
                if entries.is_empty() {
                    return;
                }
                Envelope::OpBatch(OpBatch { entries })
            }
            other => other.clone(),
        };
        self.journal_with(|| WalRecord::Received { envelope: fresh });
    }

    /// Receives an operation envelope: chained ops resolved, then journaled,
    /// then each op through epoch filtering and causal delivery.
    fn receive_ops(&mut self, envelope: Envelope<Doc::Op>, opens_chain: bool) -> usize {
        let span = self.metrics.receive_micros.start();
        let ops = match &envelope {
            Envelope::OpBatch(batch) => batch.len(),
            _ => 1,
        };
        self.metrics.ops_received.add(ops as u64);
        let envelope = match envelope {
            Envelope::OpChained(op) => self.resolve_chained(op),
            other => Some(other),
        };
        let mut applied = 0;
        if let Some(envelope) = envelope {
            self.journal_received(&envelope);
            applied = match envelope {
                Envelope::Op { epoch, msg } => self.receive_resolved(epoch, msg, opens_chain),
                Envelope::OpBatch(batch) => batch
                    .entries
                    .into_iter()
                    .map(|(epoch, msg)| self.receive_resolved(epoch, msg, false))
                    .sum(),
                // Unresolved: journaled as received, so replay parks it again.
                Envelope::OpChained(op) => {
                    self.chains.park(op);
                    0
                }
                _ => 0,
            };
        }
        span.stop();
        if self.metrics.holdback_depth.is_enabled() {
            self.metrics.holdback_depth.set(self.pending() as u64);
        }
        applied
    }

    /// The absolute op a chained one resolves to, itself while it must park,
    /// or nothing for a known duplicate or one that disagrees with its head.
    fn resolve_chained(&mut self, op: ChainedOp) -> Option<Envelope<Doc::Op>> {
        if self.is_known_duplicate(op.epoch, op.sender, op.seq)
            || self.chains.is_parked(op.sender, op.seq)
        {
            self.metrics.duplicates_discarded.inc();
            return None;
        }
        match self.chains.resolve(&op) {
            Resolution::Resolved(msg) => Some(Envelope::Op {
                epoch: op.epoch,
                msg,
            }),
            Resolution::Park => Some(Envelope::OpChained(op)),
            Resolution::Invalid => None,
        }
    }

    /// Receives an absolute (or just resolved) op as its sender's chain head,
    /// with the parked successors it releases. Only a single-op envelope
    /// opens a chain (`opens_chain`), so senders that only batch cost no
    /// bookkeeping; known duplicates are not journaled, so they leave the
    /// heads alone.
    fn receive_resolved(
        &mut self,
        epoch: u64,
        msg: CausalMessage<Doc::Op>,
        opens_chain: bool,
    ) -> usize {
        if !(opens_chain || self.chains.follows(msg.sender))
            || self.is_known_duplicate(epoch, msg.sender, msg.seq())
        {
            return self.receive_op(epoch, msg);
        }
        let next = self.chains.advance(epoch, &msg);
        self.receive_op(epoch, msg) + self.cascade(next)
    }

    /// Receives, in order, the parked successors a new chain head released
    /// (journaled when they arrived).
    fn cascade(&mut self, mut next: Option<(u64, CausalMessage<Doc::Op>)>) -> usize {
        let mut applied = 0;
        while let Some((epoch, msg)) = next {
            next = self.chains.advance(epoch, &msg);
            applied += self.receive_op(epoch, msg);
        }
        applied
    }

    /// `true` when `(sender, seq)` is already held back for a future epoch.
    fn is_epoch_held(&self, sender: SiteId, seq: u64) -> bool {
        self.epoch_held
            .iter()
            .any(|(_, held)| held.sender == sender && held.seq() == seq)
    }

    /// Read-only check whether an incoming operation would be discarded as a
    /// duplicate: by the causal buffer, or by the epoch hold-back.
    fn is_known_duplicate(&self, epoch: u64, sender: SiteId, seq: u64) -> bool {
        if epoch > self.flatten.epoch() {
            self.is_epoch_held(sender, seq)
        } else {
            self.buffer.is_duplicate(sender, seq)
        }
    }

    /// Epoch-aware receipt: a future-epoch op (stamped on a flattened tree
    /// not committed here yet) is held back, once; a past-epoch one counts
    /// as late pre-flatten traffic, which the buffer discards as stale.
    fn receive_op(&mut self, epoch: u64, msg: CausalMessage<Doc::Op>) -> usize {
        if epoch > self.flatten.epoch() {
            if !self.is_epoch_held(msg.sender, msg.seq()) {
                self.epoch_held.push((epoch, msg));
            }
            return 0;
        }
        self.flatten.note_op_epoch(epoch);
        self.deliver_causally(msg)
    }

    /// Delivers what the causal buffer releases given `message`.
    fn deliver_causally(&mut self, message: CausalMessage<Doc::Op>) -> usize {
        let deliveries = self.buffer.receive(message);
        if deliveries.receipt == Receipt::Duplicate {
            self.metrics.duplicates_discarded.inc();
        }
        self.deliver(deliveries)
    }

    /// Hands delivered operations to the document, in order; one it already
    /// held (only a sync session causes that) counts as a skipped replay.
    fn deliver(&mut self, messages: impl IntoIterator<Item = CausalMessage<Doc::Op>>) -> usize {
        let mut count = 0;
        for m in messages {
            if !self.doc.replay(&m.payload) {
                self.metrics.replays_skipped.inc();
            }
            self.metrics.ops_applied.inc();
            count += 1;
        }
        count
    }

    /// Merges a peer's clock after a state comparison proved the documents
    /// equal: replays what the merge unblocks (the document skips ops a
    /// session already integrated) and discards, as duplicates, held-back
    /// traffic the state transfer covered.
    fn sync_fast_forward(&mut self, remote: &VectorClock) -> usize {
        let held = self.buffer.pending_len();
        let released = self.buffer.fast_forward(remote);
        let discarded = held - released.len() - self.buffer.pending_len();
        self.metrics.duplicates_discarded.add(discarded as u64);
        self.chains.drop_covered(self.buffer.delivered_clock());
        self.deliver(released)
    }

    /// Adopts the chain heads a peer's root carried with the clock just
    /// fast-forwarded to: ops got by state transfer become heads, and the
    /// parked ones behind them resolve in the cascade.
    fn adopt_chain_heads(&mut self, bytes: &[u8]) -> usize {
        let Ok(heads) = wire::decode_chain_heads::<Doc::Op>(bytes) else {
            return 0; // malformed heads: the next session offers them again
        };
        let mut applied = 0;
        for (epoch, msg) in heads {
            if msg.sender == self.site || self.chains.holds(msg.sender, msg.seq()) {
                continue;
            }
            let next = self.chains.advance(epoch, &msg);
            applied += self.cascade(next);
        }
        applied
    }

    // --- Flatten participant: epoch and lock (any document) ---

    /// Number of flattens committed at this replica (the epoch every
    /// operation envelope is tagged with).
    pub fn flatten_epoch(&self) -> u64 {
        self.flatten.epoch()
    }

    /// `true` while this replica has voted Yes on a proposal whose decision
    /// has not arrived: the subtree is locked against local edits.
    pub fn is_flatten_prepared(&self) -> bool {
        self.flatten.is_prepared()
    }

    /// The attached store, for diagnostics and tests.
    pub fn store(&self) -> Option<&DocStore> {
        self.journal.as_ref().map(|j| &j.store)
    }

    /// Hands the attached store back (e.g. to survive a simulated crash);
    /// the replica stops journaling.
    pub fn detach_store(&mut self) -> Option<DocStore> {
        self.journal.take().map(|j| j.store)
    }

    /// Writes a checkpoint now (snapshot + WAL truncation). Called on a
    /// cadence by the simulator; committed flattens checkpoint on their own.
    /// No-op without an attached store.
    pub fn persist_checkpoint(&mut self) -> Result<(), StorageError> {
        let Some(mut journal) = self.journal.take() else {
            return Ok(());
        };
        let result = journal.checkpoint(self, self.flatten.epoch());
        self.journal = Some(journal);
        result
    }
}

impl<Doc: FlattenDocument> Replica<Doc> {
    /// The handler of every envelope a WAL record can hold: operations and
    /// acknowledgements as in [`receive_envelope`](Self::receive_envelope),
    /// plus proposals and decisions, journaled and answered by the flatten
    /// participant. Votes are the coordinator's: dropped, unjournaled.
    fn receive_logged(&mut self, envelope: Envelope<Doc::Op>) -> Effect<Doc::Op> {
        if matches!(
            envelope,
            Envelope::FlattenPropose(_) | Envelope::FlattenDecision(_)
        ) {
            self.journal_received(&envelope);
        }
        let (commit, reply) = match envelope {
            Envelope::FlattenPropose(propose) => {
                let delivered = self.buffer.delivered_clock();
                let vote = self.flatten.vote(self.site, &self.doc, propose, delivered);
                (false, Some(vote))
            }
            Envelope::FlattenDecision(decision) => self.flatten.on_decision(self.site, decision),
            Envelope::FlattenVote(_) => (false, None),
            other => {
                let applied = self.receive_envelope(other);
                return Effect {
                    applied,
                    ..Effect::default()
                };
            }
        };
        Effect {
            applied: if commit { self.commit_prepared() } else { 0 },
            replies: reply.map(Envelope::FlattenVote).into_iter().collect(),
            ..Effect::default()
        }
    }

    /// Initiates a flatten proposal at this replica (the coordinator side):
    /// votes locally, locks itself prepared and returns the
    /// [`FlattenPropose`] to distribute. `None` — counting a local abort —
    /// when its own vote is No or another proposal holds the lock.
    pub fn propose_flatten(
        &mut self,
        subtree: Vec<Side>,
        protocol: CommitProtocol,
    ) -> Option<FlattenPropose> {
        // Journaled before evaluation: the whole method is deterministic in
        // the replica state, so replay re-derives the same vote, lock and
        // transaction id.
        self.journal_with(|| WalRecord::Proposed {
            subtree: subtree.clone(),
            protocol,
        });
        let delivered = self.buffer.delivered_clock();
        self.flatten
            .propose(self.site, &self.doc, subtree, protocol, delivered)
    }

    /// Concludes the coordinator's **own** prepared state once its
    /// [`FlattenCoordinator`](crate::flatten::FlattenCoordinator) reaches an
    /// outcome. Returns the held-back operations applied as a result.
    pub fn finish_flatten(&mut self, txn: u64, committed: bool) -> usize {
        if !self.flatten.is_prepared_for(txn) {
            return 0;
        }
        self.journal_with(|| WalRecord::Finished {
            txn,
            committed,
            unilateral: false,
        });
        if committed {
            self.commit_prepared()
        } else {
            self.flatten.abort(txn);
            0
        }
    }

    /// Advances the participant's clock one round while prepared; a 3PC
    /// participant past `pre_commit_timeout` ticks after the pre-commit
    /// commits unilaterally. Returns held-back operations that applied.
    pub fn flatten_tick(&mut self, pre_commit_timeout: u64) -> usize {
        let Some(txn) = self.flatten.tick(pre_commit_timeout) else {
            return 0;
        };
        // Ticks are not journaled (they are wall-clock, not input), so the
        // unilateral decision itself must be: replay re-commits from this
        // record instead of re-waiting a timeout it cannot see.
        self.journal_with(|| WalRecord::Finished {
            txn,
            committed: true,
            unilateral: true,
        });
        self.commit_prepared()
    }

    /// Commits the prepared flatten, delivers the held-back operations its
    /// epoch releases (journaled when they arrived; replay re-drains them
    /// the same way) and checkpoints: the committed epoch is the natural
    /// log-compaction point (§4.2.1), truncating the pre-epoch WAL.
    ///
    /// # Panics
    ///
    /// When the checkpoint fails, like a failed WAL append.
    #[allow(
        clippy::expect_used,
        reason = "durability: a commit whose checkpoint failed cannot be reported by its callers"
    )]
    fn commit_prepared(&mut self) -> usize {
        let Some(ready) = self.flatten.commit(&mut self.doc, &mut self.epoch_held) else {
            return 0;
        };
        let applied = ready.into_iter().map(|m| self.deliver_causally(m)).sum();
        self.persist_checkpoint()
            .expect("checkpoint failed; durability cannot be guaranteed");
        applied
    }
}

/// State-based anti-entropy (see [`crate::sync`]). Sync traffic is
/// idempotent and therefore **not journaled**: integrated cells and
/// fast-forwarded clocks become durable together at the next checkpoint.
impl<Doc: SyncDocument> Replica<Doc> {
    /// The opening probe of a sync session: this replica's root digest,
    /// cell count and delivered clock.
    pub fn sync_probe(&self) -> Envelope<Doc::Op> {
        self.sync_root(true, false, Vec::new())
    }

    fn sync_root(&self, reply: bool, want_heads: bool, chain_heads: Vec<u8>) -> Envelope<Doc::Op> {
        let (digest, cells) = self.doc.sync_root();
        Envelope::SyncRoot(SyncRoot {
            from: self.site,
            digest,
            cells,
            clock: self.buffer.delivered_clock().clone(),
            reply,
            want_heads,
            chain_heads,
        })
    }

    /// The chain heads a peer whose delivered clock is `peer` lacks.
    fn chain_heads_beyond(&self, peer: &VectorClock) -> Vec<u8> {
        let delivered = self.buffer.delivered_clock();
        let own = self.sender.last();
        self.chains
            .heads_beyond(self.flatten.epoch(), own, delivered, peer)
    }

    /// A root whose states match this replica's proves everything the peer
    /// delivered is reflected here: its clock coverage is safe to adopt,
    /// and with it the chain heads it sent. A probe is echoed with the heads
    /// its clock does not cover, asking for the prober's when the probe's
    /// clock covered ops this replica lacked.
    fn on_same_root(&mut self, root: SyncRoot) -> Effect<Doc::Op> {
        let mine = self.buffer.delivered_clock();
        let gained = root.clock.iter().any(|(site, seq)| seq > mine.get(site));
        let applied =
            self.sync_fast_forward(&root.clock) + self.adopt_chain_heads(&root.chain_heads);
        let mut replies = Vec::new();
        if root.reply {
            let heads = self.chain_heads_beyond(&root.clock);
            replies.push(self.sync_root(false, gained, heads));
        } else if root.want_heads {
            let heads = self.chain_heads_beyond(&VectorClock::new());
            if !heads.is_empty() {
                replies.push(self.sync_root(false, false, heads));
            }
        }
        Effect {
            applied,
            replies,
            converged: true,
            ..Effect::default()
        }
    }

    /// The donor side of the bootstrap path: the whole document as a
    /// [`SnapshotOffer`](crate::SnapshotOffer) and its chunks of
    /// [`CHUNK_BYTES`](crate::sync::CHUNK_BYTES), for a joining site to
    /// adopt before a sync session picks up its causal clock.
    pub fn snapshot_envelopes(&self) -> Vec<Envelope<Doc::Op>> {
        sync::snapshot_envelopes(&self.doc, self.site)
    }
}

impl<Doc: FlattenDocument + SyncDocument> Replica<Doc> {
    /// Handles **any** envelope, returning what it did and the replies to
    /// send back to its sender: operations and acknowledgements as in
    /// [`receive_envelope`](Self::receive_envelope), flatten-commitment
    /// messages (answered with a vote or acknowledgement), and sync and
    /// bootstrap messages (answered with the session's next messages).
    pub fn receive_any(&mut self, envelope: Envelope<Doc::Op>) -> Effect<Doc::Op> {
        match envelope {
            Envelope::SyncRoot(root) if self.doc.sync_root() == (root.digest, root.cells) => {
                self.on_same_root(root)
            }
            Envelope::SyncRoot(_)
            | Envelope::SyncDigests(_)
            | Envelope::SyncRuns(_)
            | Envelope::SnapshotOffer(_)
            | Envelope::SnapshotChunk(_) => self.sync.receive(&mut self.doc, self.site, envelope),
            other => self.receive_logged(other),
        }
    }
}

/// Durability through the journal of [`crate::persist`]: only a replica
/// with a store needs these bounds.
impl<Doc> Replica<Doc>
where
    Doc: PersistentDocument + FlattenDocument,
    Doc::Op: Serialize + DeserializeOwned,
{
    /// The journal's checkpoint hook: the document's sections plus the
    /// replication image.
    fn build_snapshot(replica: &Replica<Doc>) -> Snapshot {
        let image = ReplicaImage {
            site: replica.site,
            buffer: replica.buffer.export_image(),
            epoch_held: replica.epoch_held.clone(),
            at_least_once: replica.sender.at_least_once().cloned(),
            flatten: replica.flatten.clone(),
            chains: replica.chains.export_image(),
        };
        let mut snapshot = Snapshot::new();
        replica.doc.encode_sections(&mut snapshot);
        snapshot.push_section(SECTION_REPLICA, persist::to_json_bytes(&image));
        snapshot
    }

    /// Rebuilds a replica, without a store, from a snapshot's sections.
    fn from_snapshot(snapshot: &Snapshot) -> Result<Self, RecoverError> {
        let doc = Doc::decode_sections(snapshot)?;
        let image: ReplicaImage<Doc::Op> =
            persist::from_json_bytes("replica section", snapshot.require(SECTION_REPLICA)?)?;
        Ok(Replica {
            buffer: CausalBuffer::from_image(image.buffer),
            epoch_held: image.epoch_held,
            chains: OpChains::from_image(image.chains),
            sender: Sender::new(image.at_least_once),
            flatten: image.flatten,
            ..Replica::new(image.site, doc)
        })
    }

    /// Attaches a durable store: writes a baseline snapshot and journals
    /// every later event — stamps, received envelopes, commitment steps —
    /// *before* the replica acts on it. Committed flattens checkpoint on
    /// their own, truncating the pre-epoch WAL.
    pub fn attach_store(&mut self, store: DocStore) -> Result<(), StorageError> {
        let mut store = store;
        store.set_telemetry(&self.metrics.telemetry);
        let journal = Journal::attach(store, Self::build_snapshot, self, self.flatten.epoch())?;
        self.journal = Some(journal);
        Ok(())
    }

    /// Rebuilds a replica from its durable store: the newest verified
    /// snapshot plus the WAL tail replayed through the live handlers, with
    /// the store re-attached (recovery itself writes nothing). It rejoins
    /// with its document, clock, hold-back, epoch state and send log intact;
    /// what peers sent meanwhile comes back by retransmission, as if lost.
    pub fn recover(store: DocStore) -> Result<(Self, RecoveryReport), RecoverError> {
        let (mut replica, journal, report) = Journal::recover(
            store,
            Self::build_snapshot,
            Self::from_snapshot,
            Self::replay_record,
        )?;
        replica.journal = Some(journal);
        Ok((replica, report))
    }

    /// Redoes one logged event through the live handlers.
    fn replay_record(&mut self, record: WalRecord<Doc::Op>) {
        match record {
            WalRecord::Stamped { epoch, msg } => {
                let clock = self.buffer.record_local(self.site);
                debug_assert_eq!(
                    clock, msg.clock,
                    "WAL replay must reproduce the stamped clock"
                );
                self.doc.replay_logged_local(&msg.payload);
                self.sender.log(epoch, &msg);
            }
            WalRecord::Received { envelope } => {
                // Replies were already sent pre-crash; a peer that missed one
                // retransmits its request and is re-answered idempotently.
                let _ = self.receive_logged(envelope);
            }
            WalRecord::PeersEnabled { peers } => self.enable_at_least_once(&peers),
            WalRecord::Proposed { subtree, protocol } => {
                let _ = self.propose_flatten(subtree, protocol);
            }
            // `unilateral` tells a live reader how the commit was reached;
            // replay counts nothing, so it redoes both kinds alike.
            WalRecord::Finished { txn, committed, .. } => {
                let _ = self.finish_flatten(txn, committed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::{DecisionKind, FlattenDecision, FlattenProposal, FlattenVote, Vote};
    use crate::send::MAX_BATCH_BYTES;
    use treedoc_core::Sdis;
    use treedoc_telemetry::Registry;

    type Doc = Treedoc<char, Sdis>;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn replica(n: u64) -> Replica<Doc> {
        Replica::new(site(n), Doc::new(site(n)))
    }

    /// Binds `replica` to a fresh registry, for the tests that read a tally.
    fn metered(replica: &mut Replica<Doc>) -> Registry {
        let registry = Registry::new();
        replica.set_telemetry(&registry.handle());
        registry
    }

    /// The counter `name` of `registry` (0 when never touched).
    fn count(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    fn typed(text: &str) -> Doc {
        let mut d = Doc::new(site(1));
        for (i, c) in text.chars().enumerate() {
            d.local_insert(i, c).unwrap();
        }
        d
    }

    fn decision(txn: u64, kind: DecisionKind) -> Envelope<<Doc as ReplicatedDocument>::Op> {
        Envelope::FlattenDecision(FlattenDecision { txn, kind })
    }

    fn whole_doc_proposal(base_revision: u64) -> FlattenProposal {
        FlattenProposal {
            proposer: site(1),
            subtree: Vec::new(),
            base_revision,
            txn: 1,
        }
    }

    #[test]
    fn quiescent_document_votes_yes_and_flattens_on_commit() {
        let mut d = typed("hello world");
        let nodes_before = d.node_count();
        let proposal = whole_doc_proposal(d.revision());
        assert_eq!(d.flatten_vote(&proposal), Vote::Yes);
        d.apply_flatten(&proposal);
        assert!(d.node_count() <= nodes_before);
        assert_eq!(d.to_string(), "hello world");
    }

    #[test]
    fn document_with_an_edit_after_the_base_revision_votes_no() {
        let mut d = typed("hello");
        let base = d.revision();
        // An edit after the proposal's base revision makes the subtree hot.
        d.next_revision();
        d.local_insert(0, '!').unwrap();
        assert_eq!(d.flatten_vote(&whole_doc_proposal(base)), Vote::No);
        assert_eq!(
            d.to_string(),
            "!hello",
            "voting leaves the document untouched"
        );
    }

    #[test]
    fn missing_subtree_votes_no() {
        let d = typed("x");
        let proposal = FlattenProposal {
            subtree: vec![Side::Right; 4],
            ..whole_doc_proposal(10)
        };
        assert_eq!(d.flatten_vote(&proposal), Vote::No);
    }

    #[test]
    fn stamp_and_receive_round_trip() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let msg = a.stamp(op);
        assert_eq!(a.ops_sent(), 1);
        assert_eq!(b.ops_sent(), 0);
        assert_eq!(b.receive(msg), 1);
        assert_eq!(b.doc().to_string(), "x");
        assert_eq!(count(&metrics, "replica.ops_applied"), 1);
        assert_eq!(a.digest(), b.digest());
    }

    /// Runs one complete sync session between `a` and `b`: probe from `a`,
    /// ping-pong every reply until both sides go quiet, then a closing probe
    /// so both clocks fast-forward. Returns (total cells integrated, digest
    /// messages, run messages).
    fn sync_session(a: &mut Replica<Doc>, b: &mut Replica<Doc>) -> (usize, usize, usize) {
        let (mut cells, mut digest_msgs, mut run_msgs) = (0, 0, 0);
        for _round in 0..64 {
            // `true` in the queue = envelope addressed to `a`.
            let mut queue: Vec<(bool, Envelope<<Doc as ReplicatedDocument>::Op>)> =
                vec![(false, a.sync_probe())];
            let mut converged = false;
            while let Some((to_a, envelope)) = queue.pop() {
                match &envelope {
                    Envelope::SyncDigests(_) => digest_msgs += 1,
                    Envelope::SyncRuns(_) => run_msgs += 1,
                    _ => {}
                }
                let effect = if to_a {
                    a.receive_any(envelope)
                } else {
                    b.receive_any(envelope)
                };
                cells += effect.cells_integrated;
                converged |= effect.converged;
                queue.extend(effect.replies.into_iter().map(|e| (!to_a, e)));
            }
            if converged {
                return (cells, digest_msgs, run_msgs);
            }
        }
        panic!("sync session did not converge");
    }

    #[test]
    fn sync_session_repairs_a_diverged_replica() {
        let mut a = replica(1);
        let mut b = replica(2);
        // Shared prefix both sides applied.
        for i in 0..300 {
            let op = a
                .doc_mut()
                .local_insert(i, char::from(b'a' + (i % 26) as u8))
                .unwrap();
            let msg = a.stamp(op);
            b.receive(msg);
        }
        // A suffix b never saw (e.g. lost on the network).
        for i in 300..340 {
            let op = a
                .doc_mut()
                .local_insert(i, char::from(b'a' + (i % 26) as u8))
                .unwrap();
            let _lost = a.stamp(op);
        }
        assert_ne!(a.digest(), b.digest());
        let (cells, digest_msgs, run_msgs) = sync_session(&mut a, &mut b);
        assert_eq!(a.digest(), b.digest(), "states converged");
        assert_eq!(a.doc().to_string(), b.doc().to_string());
        assert!(cells >= 40, "the 40 missing cells crossed ({cells})");
        assert!(cells < 340, "the shared prefix did not cross ({cells})");
        assert!(digest_msgs > 0 && run_msgs > 0);
        // The fast-forward lets b discard late copies of the synced ops as
        // duplicates instead of replaying them (which would panic).
        assert_eq!(
            b.clock().get(site(1)),
            a.clock().get(site(1)),
            "b's clock covers everything the sync transferred"
        );
    }

    #[test]
    fn sync_session_between_equal_replicas_only_probes() {
        let mut a = replica(1);
        let mut b = replica(2);
        for i in 0..100 {
            let op = a.doc_mut().local_insert(i, 'x').unwrap();
            let msg = a.stamp(op);
            b.receive(msg);
        }
        let (cells, digest_msgs, run_msgs) = sync_session(&mut a, &mut b);
        assert_eq!((cells, digest_msgs, run_msgs), (0, 0, 0));
    }

    #[test]
    fn sync_handles_concurrent_divergence_on_both_sides() {
        let mut a = replica(1);
        let mut b = replica(2);
        for i in 0..200 {
            let op = a.doc_mut().local_insert(i, 'x').unwrap();
            let msg = a.stamp(op);
            b.receive(msg);
        }
        // Both sides edit concurrently; nothing is exchanged.
        for i in 0..25 {
            let op = a.doc_mut().local_insert(i * 3, 'A').unwrap();
            a.stamp(op);
            let op = b.doc_mut().local_insert(i * 5, 'B').unwrap();
            b.stamp(op);
        }
        // Deletes diverge too (tombstones must cross).
        let op = a.doc_mut().local_delete(10).unwrap();
        a.stamp(op);
        let (cells, _digests, _runs) = sync_session(&mut a, &mut b);
        assert_eq!(a.digest(), b.digest(), "both directions repaired");
        assert_eq!(a.doc().to_string(), b.doc().to_string());
        assert!(cells >= 51, "both sides' edits crossed ({cells})");
    }

    #[test]
    fn snapshot_bootstrap_brings_up_an_empty_joiner() {
        // Edits at scattered positions give the cells deep identifiers, so
        // the document needs several 16 KiB chunks.
        let mut donor = replica(1);
        for i in 0..6000 {
            let at = (i * 7919) % (donor.doc().len() + 1);
            let op = donor
                .doc_mut()
                .local_insert(at, char::from(b'a' + (i % 26) as u8))
                .unwrap();
            donor.stamp(op);
        }
        let op = donor.doc_mut().local_delete(123).unwrap();
        donor.stamp(op);

        let mut joiner = replica(9);
        let envelopes = donor.snapshot_envelopes();
        assert!(envelopes.len() > 3, "offer plus several chunks");
        let mut bootstrapped = false;
        for envelope in envelopes {
            bootstrapped |= joiner.receive_any(envelope).bootstrapped;
        }
        assert!(bootstrapped);
        assert_eq!(joiner.digest(), donor.digest());
        assert_eq!(joiner.doc().to_string(), donor.doc().to_string());
        assert_eq!(joiner.doc().site(), site(9), "joiner keeps its identity");

        // A closing sync round transfers the causal clock, so late copies of
        // the donor's ops are recognised as duplicates.
        let (cells, _d, _r) = sync_session(&mut donor, &mut joiner);
        assert_eq!(cells, 0, "states were already equal");
        assert_eq!(joiner.clock().get(site(1)), donor.clock().get(site(1)));

        // The joiner can edit immediately and the donor applies it.
        let op = joiner.doc_mut().local_insert(0, '!').unwrap();
        let msg = joiner.stamp(op);
        donor.receive(msg);
        assert_eq!(joiner.digest(), donor.digest());
    }

    #[test]
    fn causally_dependent_messages_wait_for_their_predecessors() {
        let mut a = replica(1);
        let mut b = replica(2);
        // a inserts then deletes the same atom: the delete depends on the
        // insert.
        let ins = a.doc_mut().local_insert(0, 'x').unwrap();
        let m_ins = a.stamp(ins);
        let del = a.doc_mut().local_delete(0).unwrap();
        let m_del = a.stamp(del);
        // b receives them out of order: the delete must be held back.
        assert_eq!(b.receive(m_del), 0);
        assert_eq!(b.pending(), 1);
        assert_eq!(b.receive(m_ins), 2);
        assert_eq!(b.pending(), 0);
        assert!(b.doc().is_empty());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn three_replicas_converge_with_concurrent_edits() {
        let mut replicas = [replica(1), replica(2), replica(3)];
        // Each replica types its own text concurrently.
        let mut messages = Vec::new();
        for (i, r) in replicas.iter_mut().enumerate() {
            for (j, c) in "abc".chars().enumerate() {
                let op = r
                    .doc_mut()
                    .local_insert(j, char::from(b'a' + (i as u8 * 3) + j as u8))
                    .unwrap();
                let _ = c;
                messages.push((r.site(), r.stamp(op)));
            }
        }
        // Deliver everything to everyone else, in an arbitrary (but causal
        // per sender, since we kept emission order) order.
        for (sender, msg) in &messages {
            for r in replicas.iter_mut() {
                if r.site() != *sender {
                    r.receive(msg.clone());
                }
            }
        }
        let d0 = replicas[0].digest();
        assert!(replicas.iter().all(|r| r.digest() == d0));
        assert_eq!(replicas[0].doc().len(), 9);
    }

    #[test]
    fn redelivered_messages_are_applied_once() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let msg = a.stamp(op);
        assert_eq!(b.receive(msg.clone()), 1);
        assert_eq!(b.receive(msg.clone()), 0, "duplicate must not re-apply");
        assert_eq!(b.receive(msg), 0);
        assert_eq!(count(&metrics, "replica.ops_applied"), 1);
        assert_eq!(count(&metrics, "replica.duplicates_discarded"), 2);
        assert_eq!(b.pending(), 0, "duplicates must not linger in pending");
        assert_eq!(b.doc().to_string(), "x");
    }

    #[test]
    fn stamp_batched_flushes_on_the_op_count_policy() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut a);
        a.enable_batching(BatchPolicy { max_ops: 3 });
        let mut flushed = Vec::new();
        for k in 0..7 {
            let op = a
                .doc_mut()
                .local_insert(k, char::from(b'a' + k as u8))
                .unwrap();
            if let Some(env) = a.stamp_batched(op) {
                flushed.push(env);
            }
        }
        assert_eq!(flushed.len(), 2, "two full batches of three");
        assert_eq!(a.pending_batch_len(), 1, "one op still buffering");
        flushed.extend(a.flush_batch());
        assert_eq!(count(&metrics, "replica.batches_flushed"), 3);
        assert_eq!(count(&metrics, "replica.batch_ops"), 7);
        assert!(a.flush_batch().is_none(), "nothing left to flush");

        for env in flushed {
            match &env {
                Envelope::OpBatch(batch) => assert!(!batch.is_empty()),
                other => panic!("expected a batch, got {other:?}"),
            }
            b.receive_envelope(env);
        }
        assert_eq!(b.doc().to_string(), "abcdefg");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn stamp_batched_flushes_on_the_byte_policy() {
        let mut a = replica(1);
        let mut b = replica(2);
        a.enable_batching(BatchPolicy {
            max_ops: usize::MAX,
        });
        let mut flushed = Vec::new();
        let mut stamped = 0;
        // Scattered positions give the ops deep identifiers and entries of
        // a few dozen bytes, so the 16 KiB cap triggers every few hundred.
        while flushed.len() < 2 {
            let at = (stamped * 7919) % (a.doc().len() + 1);
            let op = a.doc_mut().local_insert(at, 'x').unwrap();
            flushed.extend(a.stamp_batched(op));
            stamped += 1;
        }
        for env in &flushed {
            let bytes = wire::encode_envelope(env).len();
            assert!(
                (MAX_BATCH_BYTES..MAX_BATCH_BYTES + 256).contains(&bytes),
                "a batch flushes as its encoding reaches the cap: {bytes} B"
            );
        }
        // The byte-split stream still delivers every op, in order.
        flushed.extend(a.flush_batch());
        let applied: usize = flushed
            .into_iter()
            .map(|env| {
                b.receive_envelope(wire::decode_envelope(&wire::encode_envelope(&env)).unwrap())
            })
            .sum();
        assert_eq!(applied, stamped);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn without_batching_stamp_batched_degenerates_to_single_envelopes() {
        let mut a = replica(1);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let env = a.stamp_batched(op).expect("flushes immediately");
        assert!(matches!(env, Envelope::Op { .. }));
        assert_eq!(a.pending_batch_len(), 0);
    }

    #[test]
    fn duplicate_batches_are_discarded_per_entry() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        a.enable_at_least_once(&[site(1), site(2)]);
        a.enable_batching(BatchPolicy { max_ops: 4 });
        for k in 0..4 {
            let op = a
                .doc_mut()
                .local_insert(k, char::from(b'a' + k as u8))
                .unwrap();
            let _ = a.stamp_batched(op);
        }
        let batch = a.flush_batch();
        assert!(batch.is_none(), "policy already flushed at 4 ops");
        // Reconstruct the same window as a retransmission batch, twice.
        let env = a.unacked_batch_for(site(2)).expect("whole window unacked");
        assert_eq!(b.receive_envelope(env.clone()), 4);
        assert_eq!(
            b.receive_envelope(env),
            0,
            "duplicate batch re-applies nothing"
        );
        assert_eq!(count(&metrics, "replica.duplicates_discarded"), 4);
        assert_eq!(b.doc().to_string(), "abcd");
    }

    #[test]
    fn unacked_batch_coalesces_the_window_and_counts_retransmissions() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut a);
        a.enable_at_least_once(&sites);
        for k in 0..5 {
            let op = a
                .doc_mut()
                .local_insert(k, char::from(b'a' + k as u8))
                .unwrap();
            let _ = a.stamp(op); // every first transmission is "lost"
        }
        let env = a.unacked_batch_for(site(2)).expect("five unacked");
        assert_eq!(count(&metrics, "replica.retransmissions"), 5);
        assert_eq!(b.receive_envelope(env), 5);
        assert_eq!(b.doc().to_string(), "abcde");

        let ack = b.ack_envelope();
        a.receive_envelope(ack);
        assert!(a.unacked_batch_for(site(2)).is_none(), "fully acked");
    }

    #[test]
    fn at_least_once_retransmits_until_acked() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut a);
        a.enable_at_least_once(&sites);

        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let _lost = a.stamp(op);
        assert!(a.has_unacked());

        // The first transmission is "lost": b never sees it. A later
        // retransmission round recovers it.
        let again = a.unacked_envelopes_for(site(2));
        assert_eq!(again.len(), 1);
        assert_eq!(count(&metrics, "replica.retransmissions"), 1);
        for envelope in again {
            b.receive_envelope(envelope);
        }
        assert_eq!(b.doc().to_string(), "x");

        // b acknowledges; a prunes its log and stops retransmitting.
        let ack = b.ack_envelope();
        assert_eq!(a.receive_envelope(ack), 0);
        assert!(!a.has_unacked());
        assert!(a.unacked_envelopes_for(site(2)).is_empty());
        assert_eq!(count(&metrics, "replica.retransmissions"), 1);
    }

    #[test]
    fn acks_are_cumulative_and_per_peer() {
        let sites = [site(1), site(2), site(3)];
        let mut a = replica(1);
        let mut b = replica(2);
        let mut c = replica(3);
        a.enable_at_least_once(&sites);

        let mut msgs = Vec::new();
        for ch in ['x', 'y', 'z'] {
            let len = a.doc().len();
            let op = a.doc_mut().local_insert(len, ch).unwrap();
            msgs.push(a.stamp(op));
        }
        // b gets everything, c only the first message.
        for m in &msgs {
            b.receive(m.clone());
        }
        c.receive(msgs[0].clone());

        a.receive_envelope(b.ack_envelope());
        a.receive_envelope(c.ack_envelope());
        assert!(a.has_unacked(), "c still misses two messages");
        assert!(a.unacked_envelopes_for(site(2)).is_empty());
        let for_c = a.unacked_envelopes_for(site(3));
        assert_eq!(for_c.len(), 2);
        for envelope in for_c {
            c.receive_envelope(envelope);
        }
        a.receive_envelope(c.ack_envelope());
        assert!(!a.has_unacked());
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn re_enabling_at_least_once_keeps_received_acks() {
        // Regression: a second `enable_at_least_once` call (e.g. with a
        // grown peer set) used to rebuild the ack table from zero, so
        // everything already acknowledged was retransmitted again.
        let mut a = replica(1);
        let mut b = replica(2);
        a.enable_at_least_once(&[site(1), site(2), site(3)]);
        // b delivers and acks; c stays silent, keeping the entry in the log.
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let msg = a.stamp(op);
        b.receive(msg);
        a.receive_envelope(b.ack_envelope());
        assert!(a.has_unacked(), "c has not acked yet");

        // Site 4 joins: re-enable with the grown peer set.
        a.enable_at_least_once(&[site(1), site(2), site(3), site(4)]);
        assert!(
            a.unacked_envelopes_for(site(2)).is_empty(),
            "b's earlier ack must survive the re-enable (no spurious \
             retransmission of already-acked entries)"
        );
        assert_eq!(
            a.unacked_envelopes_for(site(3)).len(),
            1,
            "the still-silent peer keeps its backlog"
        );
        assert_eq!(
            a.unacked_envelopes_for(site(4)).len(),
            1,
            "the new peer is tracked from zero and served what is still logged"
        );
    }

    #[test]
    fn re_enabling_is_idempotent_for_the_same_peer_set() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        a.enable_at_least_once(&sites);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        b.receive(a.stamp(op));
        a.receive_envelope(b.ack_envelope());
        a.enable_at_least_once(&sites);
        assert!(!a.has_unacked(), "re-enabling must not resurrect the log");
        assert!(a.unacked_envelopes_for(site(2)).is_empty());
    }

    #[test]
    fn future_epoch_ops_are_held_until_the_local_flatten_commits() {
        // a and b hold the same two-atom document.
        let mut a = replica(1);
        let mut b = replica(2);
        for (i, ch) in ['x', 'y'].into_iter().enumerate() {
            let op = a.doc_mut().local_insert(i, ch).unwrap();
            b.receive(a.stamp(op));
        }
        let ack = Envelope::Ack {
            from: b.site(),
            clock: b.clock().clone(),
        };
        a.receive_envelope(ack);

        // a proposes, b votes Yes; a commits locally, b has not yet.
        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("quiescent proposer votes Yes");
        let txn = propose.proposal.txn;
        let effect = b.receive_any(Envelope::FlattenPropose(propose));
        assert!(matches!(effect.replies[..], [Envelope::FlattenVote(_)]));
        assert!(b.is_flatten_prepared());
        a.finish_flatten(txn, true);
        assert_eq!(a.flatten_epoch(), 1);

        // a edits the flattened tree and broadcasts: b must hold the op back
        // (applying it on the unflattened tree would diverge).
        let op = a.doc_mut().local_insert(0, 'z').unwrap();
        let env = a.stamp_envelope(op);
        assert_eq!(b.receive_envelope(env), 0);
        assert_eq!(b.pending(), 1, "future-epoch op is held, not applied");

        // The decision arrives: b flattens, drains the held op and matches a.
        let effect = b.receive_any(decision(txn, DecisionKind::Commit));
        assert_eq!(
            effect.applied, 1,
            "the held op is applied after the flatten"
        );
        assert!(matches!(effect.replies[..], [Envelope::FlattenVote(_)]));
        assert_eq!(b.flatten_epoch(), 1);
        assert_eq!(b.pending(), 0);
        assert_eq!(a.doc().to_string(), "zxy");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn pre_flatten_ops_arriving_late_are_detected_and_discarded() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        a.enable_at_least_once(&sites);

        // a's op reaches b (so clocks agree) but b's ack never reaches a:
        // the op stays in a's send log across the flatten.
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let env = a.stamp_envelope(op);
        b.receive_envelope(env);

        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("proposer votes Yes");
        let txn = propose.proposal.txn;
        let _ = b.receive_any(Envelope::FlattenPropose(propose));
        a.finish_flatten(txn, true);
        let _ = b.receive_any(decision(txn, DecisionKind::Commit));

        // The lost-ack retransmission arrives after both flattened: it is
        // tagged with the pre-flatten epoch, detected, and discarded as the
        // duplicate it must be.
        let retransmitted = a.unacked_envelopes_for(site(2));
        assert_eq!(retransmitted.len(), 1);
        assert!(matches!(retransmitted[0], Envelope::Op { epoch: 0, .. }));
        for env in retransmitted {
            assert_eq!(b.receive_envelope(env), 0);
        }
        assert_eq!(count(&metrics, "flatten.late_epoch_ops"), 1);
        assert_eq!(b.pending(), 0);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn participant_votes_no_on_unequal_clocks() {
        let mut a = replica(1);
        let mut b = replica(2);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        b.receive(a.stamp(op));
        // b edits concurrently: its clock exceeds a's proposal base clock.
        let op = b.doc_mut().local_insert(1, 'y').unwrap();
        let _ = b.stamp(op);

        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("proposer votes Yes");
        let effect = b.receive_any(Envelope::FlattenPropose(propose));
        let [Envelope::FlattenVote(FlattenVote { vote, .. })] = effect.replies[..] else {
            panic!("expected a vote reply, got {effect:?}");
        };
        assert_eq!(vote, Vote::No, "edits take precedence over clean-up");
        assert!(!b.is_flatten_prepared());
    }

    #[test]
    fn typing_envelopes_chain_to_the_previous_stamp() {
        let mut a = replica(1);
        let mut b = replica(2);
        let mut kinds = Vec::new();
        for i in 0..6 {
            let op = a.doc_mut().local_insert(i, 'x').unwrap();
            if i == 3 {
                // A stamp that leaves another way breaks the chain.
                b.receive(a.stamp(op));
                kinds.push("stamp");
                continue;
            }
            let envelope = a.stamp_envelope(op);
            kinds.push(match envelope {
                Envelope::Op { .. } => "absolute",
                Envelope::OpChained(_) => "chained",
                _ => "other",
            });
            assert_eq!(b.receive_envelope(envelope), 1);
        }
        assert_eq!(
            kinds,
            ["absolute", "chained", "chained", "stamp", "absolute", "chained"]
        );
        // Without a batcher, `stamp_batched` is `stamp_envelope`.
        let op = a.doc_mut().local_insert(6, 'x').unwrap();
        assert!(matches!(a.stamp_batched(op), Some(Envelope::OpChained(_))));
    }

    #[test]
    fn a_receiver_recovered_from_a_checkpoint_keeps_resolving_chained_envelopes() {
        let mut a = replica(1);
        let mut b = replica(2);
        b.attach_store(DocStore::in_memory()).unwrap();
        let type_key = |a: &mut Replica<Doc>| {
            let len = a.doc().len();
            let op = a.doc_mut().local_insert(len, 'k').unwrap();
            a.stamp_envelope(op)
        };
        for _ in 0..10 {
            let envelope = type_key(&mut a);
            assert_eq!(b.receive_envelope(envelope), 1);
        }
        // The chain heads are part of the checkpoint: with no WAL record
        // after it, the recovered receiver resolves the next keystroke
        // from the snapshot alone.
        b.persist_checkpoint().unwrap();
        let store = b.detach_store().unwrap();
        let (mut b, report) = Replica::<Doc>::recover(store).unwrap();
        assert_eq!(report.wal_records_replayed, 0);
        for _ in 0..10 {
            let envelope = type_key(&mut a);
            assert!(matches!(envelope, Envelope::OpChained(_)));
            assert_eq!(b.receive_envelope(envelope), 1);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn recovered_replica_matches_the_crashed_one() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        a.enable_at_least_once(&sites);
        a.attach_store(DocStore::in_memory()).unwrap();

        // Mixed traffic: local edits, remote ops, an ack.
        for (i, ch) in ['x', 'y', 'z'].into_iter().enumerate() {
            let op = a.doc_mut().local_insert(i, ch).unwrap();
            b.receive(a.stamp(op));
        }
        let op = b.doc_mut().local_insert(0, 'r').unwrap();
        a.receive(b.stamp(op));
        a.receive_envelope(b.ack_envelope());

        let digest = a.digest();
        let clock = a.clock().clone();
        let unacked = a.unacked_envelopes_for(site(2)).len();

        // Crash: the replica object dies, the store survives.
        let store = a.detach_store().unwrap();
        drop(a);
        let (mut a2, report) = Replica::<Doc>::recover(store).unwrap();
        let metrics = metered(&mut a2);
        assert!(report.snapshot_hit);
        assert!(report.wal_records_replayed >= 5, "{report:?}");
        assert_eq!(a2.digest(), digest, "document recovered");
        assert_eq!(a2.clock(), &clock, "vector clock recovered");
        assert_eq!(a2.ops_sent(), 3, "stamps recovered with the clock");
        assert_eq!(a2.site(), site(1));
        assert_eq!(
            a2.unacked_envelopes_for(site(2)).len(),
            unacked,
            "unacked send log recovered"
        );
        assert_eq!(
            count(&metrics, "replica.retransmissions"),
            unacked as u64,
            "the registry bound after recovery counts live hand-outs only"
        );

        // The recovered replica keeps working: edit, exchange, converge.
        let op = a2.doc_mut().local_insert(0, 'n').unwrap();
        b.receive(a2.stamp(op));
        assert_eq!(a2.digest(), b.digest());
    }

    #[test]
    fn recovery_replays_the_wal_tail_on_top_of_a_checkpoint() {
        let mut a = replica(1);
        a.attach_store(DocStore::in_memory()).unwrap();
        for i in 0..4 {
            let op = a
                .doc_mut()
                .local_insert(i, char::from(b'a' + i as u8))
                .unwrap();
            let _ = a.stamp(op);
        }
        a.persist_checkpoint().unwrap();
        assert_eq!(
            a.store().unwrap().wal_len().unwrap(),
            0,
            "checkpoint truncates"
        );
        for i in 0..3 {
            let op = a
                .doc_mut()
                .local_insert(0, char::from(b'p' + i as u8))
                .unwrap();
            let _ = a.stamp(op);
        }
        let digest = a.digest();
        let store = a.detach_store().unwrap();
        let (a2, report) = Replica::<Doc>::recover(store).unwrap();
        assert_eq!(report.wal_records_replayed, 3, "only the tail replays");
        assert_eq!(a2.digest(), digest);
    }

    #[test]
    fn recovered_holdback_queue_still_drains() {
        let mut a = replica(1);
        let mut b = replica(2);
        b.attach_store(DocStore::in_memory()).unwrap();
        let ins = a.doc_mut().local_insert(0, 'x').unwrap();
        let m_ins = a.stamp(ins);
        let del = a.doc_mut().local_delete(0).unwrap();
        let m_del = a.stamp(del);
        // Only the dependent delete arrives before the crash.
        assert_eq!(b.receive(m_del), 0);
        assert_eq!(b.pending(), 1);

        let store = b.detach_store().unwrap();
        let (mut b2, _) = Replica::<Doc>::recover(store).unwrap();
        assert_eq!(b2.pending(), 1, "hold-back survived the crash");
        assert_eq!(b2.receive(m_ins), 2, "the missing prefix drains the chain");
        assert!(b2.doc().is_empty());
        assert_eq!(a.digest(), b2.digest());
    }

    #[test]
    fn wal_replay_counts_nothing_in_a_registry_bound_after_recovery() {
        let mut a = replica(1);
        let mut b = replica(2);
        let live = metered(&mut a);
        a.attach_store(DocStore::in_memory()).unwrap();
        for i in 0..3 {
            let op = b.doc_mut().local_insert(i, 'r').unwrap();
            assert_eq!(a.receive_envelope(b.stamp_envelope(op)), 1);
        }
        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("quiescent proposer votes Yes");
        // An abort journals a `Finished` record and writes no checkpoint, so
        // the WAL tail keeps the received ops and the whole flatten.
        a.finish_flatten(propose.proposal.txn, false);
        assert_eq!(count(&live, "replica.ops_applied"), 3);
        assert_eq!(count(&live, "flatten.votes_cast"), 1);
        assert_eq!(count(&live, "flatten.aborts"), 1);

        let store = a.detach_store().unwrap();
        let (mut a2, report) = Replica::<Doc>::recover(store).unwrap();
        assert_eq!(report.wal_records_replayed, 5, "3 ops, proposal, finish");
        assert_eq!(a2.digest(), b.digest());
        let metrics = metered(&mut a2);
        let counters = metrics.snapshot();
        for name in [
            "replica.ops_applied",
            "replica.ops_received",
            "flatten.votes_cast",
            "flatten.aborts",
            "flatten.commits",
            "flatten.unilateral_commits",
            "flatten.blocked_ticks",
            "flatten.late_epoch_ops",
        ] {
            assert_eq!(counters.counter(name), Some(0), "{name} after replay");
        }

        let op = b.doc_mut().local_insert(0, 'n').unwrap();
        assert_eq!(a2.receive_envelope(b.stamp_envelope(op)), 1);
        assert_eq!(count(&metrics, "replica.ops_applied"), 1);
        assert_eq!(count(&live, "replica.ops_applied"), 3, "old binding gone");
    }

    #[test]
    fn a_replica_image_carrying_the_old_tally_fields_still_loads() {
        // Snapshots written before the tallies moved to the registry carry
        // them in the replica section; fields the image lacks are ignored.
        let mut a = replica(1);
        a.enable_at_least_once(&[site(2)]);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let _ = a.stamp(op);
        let mut snapshot = Replica::build_snapshot(&a);
        let json = String::from_utf8(snapshot.section(SECTION_REPLICA).unwrap().to_vec()).unwrap();
        let tallies = r#""commits":0,"aborts":1,"votes_cast":1,"unilateral_commits":0,"blocked_ticks":0,"late_epoch_ops":0,"next_txn""#;
        let old = json
            .replacen('{', r#"{"ops_sent":1,"ops_applied":0,"#, 1)
            .replacen(r#""next_txn""#, tallies, 1)
            .replacen(
                r#""peer_acked""#,
                r#""retransmissions":2,"window":null,"peer_acked""#,
                1,
            )
            .replacen(
                r#""pending""#,
                r#""high_water_mark":3,"stats":{"delivered":0,"duplicates_discarded":1},"pending""#,
                1,
            );
        assert_eq!(
            ["late_epoch_ops", "window", "high_water_mark"].map(|f| old.matches(f).count()),
            [1, 1, 1]
        );
        snapshot.push_section(SECTION_REPLICA, old.into_bytes());
        let loaded = Replica::<Doc>::from_snapshot(&snapshot).unwrap();
        assert_eq!(loaded.clock(), a.clock());
        assert_eq!(loaded.ops_sent(), 1);
        assert!(loaded.has_unacked());
    }

    /// The replica section of `replica`'s snapshot.
    fn replica_section(replica: &Replica<Doc>) -> Vec<u8> {
        let snapshot = Replica::build_snapshot(replica);
        snapshot.section(SECTION_REPLICA).unwrap().to_vec()
    }

    #[test]
    fn a_checkpoint_taken_mid_protocol_recovers_every_part() {
        // b holds, at its checkpoint: a prepared, pre-committed 3PC flatten,
        // a send log acked by one peer of two, an op held for the next
        // epoch and a parked chained op.
        let (mut a, mut b, mut c) = (replica(1), replica(2), replica(3));
        b.enable_at_least_once(&[site(1), site(3)]);
        b.attach_store(DocStore::in_memory()).unwrap();
        for i in 0..3 {
            let op = b.doc_mut().local_insert(i, 'b').unwrap();
            a.receive(b.stamp(op));
        }
        b.receive_envelope(a.ack_envelope());
        let typed: Vec<_> = (0..3)
            .map(|i| {
                let op = c.doc_mut().local_insert(i, 'c').unwrap();
                c.stamp_envelope(op)
            })
            .collect();
        assert!(matches!(typed[2], Envelope::OpChained(_)));
        assert_eq!(b.receive_envelope(typed[2].clone()), 0, "parked");
        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::ThreePhase)
            .expect("quiescent proposer votes Yes");
        let txn = propose.proposal.txn;
        let _ = b.receive_any(Envelope::FlattenPropose(propose));
        let _ = b.receive_any(decision(txn, DecisionKind::PreCommit));
        assert_eq!(b.flatten_tick(10), 0, "one blocked tick");
        a.finish_flatten(txn, true);
        let op = a.doc_mut().local_insert(0, 'a').unwrap();
        assert_eq!(b.receive_envelope(a.stamp_envelope(op)), 0, "epoch-held");
        assert!(b.is_flatten_prepared() && b.has_unacked());
        assert_eq!(b.pending(), 2, "one epoch-held op, one parked op");

        b.persist_checkpoint().unwrap();
        let (mut b2, report) = Replica::<Doc>::recover(b.detach_store().unwrap()).unwrap();
        assert_eq!(report.wal_records_replayed, 0, "the snapshot alone");
        assert_eq!(replica_section(&b2), replica_section(&b));

        // One more stamp and receive: the same bytes and state from both.
        let mut stamped = Vec::new();
        for r in [&mut b, &mut b2] {
            let op = r.doc_mut().local_insert(0, 'n').unwrap();
            stamped.push(wire::encode_envelope(&r.stamp_envelope(op)));
            let effect = r.receive_any(decision(txn, DecisionKind::Commit));
            assert_eq!(effect.applied, 1, "the held op drains");
            for envelope in &typed[..2] {
                r.receive_envelope(envelope.clone());
            }
            assert_eq!(r.pending(), 0, "the parked op resolved");
        }
        assert_eq!(stamped[0], stamped[1]);
        assert_eq!(b2.digest(), b.digest());
        assert_eq!(
            b2.unacked_envelopes_for(site(3)),
            b.unacked_envelopes_for(site(3))
        );
        assert_eq!(replica_section(&b2), replica_section(&b));
    }

    #[test]
    fn duplicates_discarded_before_a_crash_stay_counted_after_recovery() {
        // Duplicates are not journaled, so a tally kept in the replica's
        // snapshot image would restart from the last checkpoint; the
        // registry outlives the crash.
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        b.attach_store(DocStore::in_memory()).unwrap();
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let msg = a.stamp(op);
        b.receive(msg.clone());
        b.persist_checkpoint().unwrap();
        b.receive(msg.clone());
        b.receive(msg.clone());
        assert_eq!(count(&metrics, "replica.duplicates_discarded"), 2);

        let (mut b2, _) = Replica::<Doc>::recover(b.detach_store().unwrap()).unwrap();
        b2.set_telemetry(&metrics.handle());
        assert_eq!(count(&metrics, "replica.duplicates_discarded"), 2);
        b2.receive(msg);
        assert_eq!(count(&metrics, "replica.duplicates_discarded"), 3);
    }

    #[test]
    fn recovering_an_unused_store_is_a_typed_error() {
        match Replica::<Doc>::recover(DocStore::in_memory()) {
            Err(RecoverError::NoSnapshot) => {}
            other => panic!("expected NoSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn committed_flatten_checkpoints_and_truncates_the_wal() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = [metered(&mut a), metered(&mut b)];
        a.attach_store(DocStore::in_memory()).unwrap();
        b.attach_store(DocStore::in_memory()).unwrap();
        for (i, ch) in ['x', 'y'].into_iter().enumerate() {
            let op = a.doc_mut().local_insert(i, ch).unwrap();
            b.receive(a.stamp(op));
        }
        let ack = Envelope::Ack {
            from: b.site(),
            clock: b.clock().clone(),
        };
        a.receive_envelope(ack);
        assert!(a.store().unwrap().wal_len().unwrap() > 0, "edits journaled");

        let propose = a
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("quiescent proposer votes Yes");
        let txn = propose.proposal.txn;
        let _ = b.receive_any(Envelope::FlattenPropose(propose));
        a.finish_flatten(txn, true);
        let _ = b.receive_any(decision(txn, DecisionKind::Commit));

        for (r, metrics) in [&a, &b].into_iter().zip(&metrics) {
            assert_eq!(r.flatten_epoch(), 1);
            assert_eq!(count(metrics, "flatten.commits"), 1);
            let store = r.store().unwrap();
            assert!(
                count(metrics, "store.snapshots_written") >= 2,
                "attach baseline + flatten-commit checkpoint"
            );
            assert!(
                count(metrics, "store.wal_truncations") >= 1,
                "the flatten commit retired the pre-epoch records"
            );
            let replayed = store.wal_entries().unwrap();
            assert!(
                replayed.entries.iter().all(|e| e.epoch >= 1),
                "post-compaction WAL holds only post-epoch records: {replayed:?}"
            );
        }

        // Post-flatten edits journal into the truncated log and recover.
        let op = a.doc_mut().local_insert(0, 'n').unwrap();
        b.receive(a.stamp(op));
        let digest = b.digest();
        let store = b.detach_store().unwrap();
        let (b2, report) = Replica::<Doc>::recover(store).unwrap();
        assert_eq!(
            report.snapshot_epoch, 1,
            "recovered from the epoch snapshot"
        );
        assert_eq!(b2.digest(), digest);
        assert_eq!(b2.flatten_epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "not a registered at-least-once peer")]
    fn retransmitting_to_an_unregistered_peer_is_rejected() {
        // The send log is pruned by registered peers' acks only, so it could
        // already be missing what an unregistered peer needs — asking for
        // such a peer's backlog must fail loudly, not return a partial log.
        let mut a = replica(1);
        a.enable_at_least_once(&[site(1), site(2)]);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let _ = a.stamp(op);
        let _ = a.unacked_envelopes_for(site(3));
    }

    #[test]
    fn acks_from_unregistered_sites_do_not_unblock_pruning() {
        let mut a = replica(1);
        let mut b = replica(2);
        let mut c = replica(3);
        a.enable_at_least_once(&[site(1), site(2), site(3)]);
        let op = a.doc_mut().local_insert(0, 'x').unwrap();
        let msg = a.stamp(op);
        b.receive(msg.clone());
        c.receive(msg);

        // An ack from an unknown site 9 must not shrink the prune floor or
        // widen the peer set.
        let mut stranger = VectorClock::new();
        stranger.observe(site(1), 1);
        a.receive_envelope(Envelope::Ack {
            from: site(9),
            clock: stranger,
        });
        assert!(a.has_unacked(), "registered peers have not acked yet");

        a.receive_envelope(b.ack_envelope());
        assert!(a.has_unacked(), "site 3 is still missing its ack");
        a.receive_envelope(c.ack_envelope());
        assert!(!a.has_unacked());
    }

    #[test]
    fn lost_then_retransmitted_with_duplicates_converges() {
        let sites = [site(1), site(2)];
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut b);
        a.enable_at_least_once(&sites);

        let mut msgs = Vec::new();
        for k in 0..5u8 {
            let len = a.doc().len();
            let op = a.doc_mut().local_insert(len, char::from(b'a' + k)).unwrap();
            msgs.push(a.stamp(op));
        }
        // Only messages 0 and 3 arrive, 3 twice (a network duplicate).
        b.receive(msgs[0].clone());
        b.receive(msgs[3].clone());
        b.receive(msgs[3].clone());
        assert_eq!(b.pending(), 1);
        a.receive_envelope(b.ack_envelope());

        // Retransmit whatever b has not acknowledged (messages 2..=5 by
        // cumulative ack, including the buffered one, which b discards).
        let again = a.unacked_envelopes_for(site(2));
        assert_eq!(again.len(), 4);
        for envelope in again {
            b.receive_envelope(envelope);
        }
        a.receive_envelope(b.ack_envelope());
        assert!(!a.has_unacked());
        assert_eq!(b.pending(), 0);
        assert_eq!(b.doc().to_string(), "abcde");
        assert!(count(&metrics, "replica.duplicates_discarded") >= 2);
    }
}

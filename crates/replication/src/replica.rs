//! A replica = a document + a causal delivery layer.
//!
//! [`Replica`] owns any document implementing [`ReplicatedDocument`], stamps
//! the operations it initiates with the replica's vector clock, and replays
//! remote operations through a [`CausalBuffer`] so that happened-before order
//! is always respected — the only delivery requirement the CRDT needs (§2.2).
//!
//! On a lossy transport causal delivery must be built from **at-least-once**
//! delivery: the replica keeps a log of the messages it stamped, peers
//! acknowledge cumulatively (an [`Envelope::Ack`] carrying their delivered
//! clock), and anything a peer has not acknowledged can be retransmitted with
//! [`Replica::unacked_for`]. The duplicate-safe [`CausalBuffer`] discards the
//! redundant copies this produces, so the pair yields exactly-once *delivery*
//! on top of at-least-once *transmission*.

use std::collections::BTreeMap;

use serde::{de::DeserializeOwned, Deserialize, Serialize};
use treedoc_core::{Error, HasSource, Op, Side, SiteId, Treedoc, WireAtom, WireDis, WirePayload};
use treedoc_storage::{DocStore, Snapshot, StorageError};
use treedoc_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::causal::{CausalBuffer, CausalBufferImage, CausalMessage};
use crate::chain::{ChainedOp, OpChains, OpChainsImage, Resolution};
use crate::clock::VectorClock;
use crate::flatten::{
    CommitProtocol, DecisionKind, FlattenDecision, FlattenProposal, FlattenPropose, FlattenVote,
    Vote, VoteStage,
};
use crate::persist::{
    self, PersistentDocument, RecoverError, RecoveryReport, WalRecord, SECTION_REPLICA,
};
use crate::sync::{
    SnapshotChunk, SnapshotOffer, SyncConfig, SyncDigests, SyncDocument, SyncRoot, SyncRuns,
};
use crate::wire::{self, WalChain};

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

/// A run of causally consecutive stamped operations from one sender, shipped
/// as a single envelope. Produced by the sender-side flush policy
/// ([`Replica::stamp_batched`]) and by retransmission coalescing
/// ([`Replica::unacked_batch_for`]); the binary wire codec delta-encodes the
/// entries against each other (shared-prefix position identifiers, clock
/// diffs), so a batch costs far fewer bytes than its operations shipped one
/// envelope each.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpBatch<Op> {
    /// `(stamped flatten epoch, message)` pairs in stamp order.
    pub entries: Vec<(u64, CausalMessage<Op>)>,
}

impl<Op> OpBatch<Op> {
    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Wire format between replicas: causally stamped operations (tagged with
/// the sender's flatten epoch), operation batches, cumulative
/// acknowledgements for at-least-once delivery, and the three
/// flatten-commitment messages of §4.2.1 (see [`crate::flatten`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Envelope<Op> {
    /// A (possibly retransmitted) causally stamped operation.
    Op {
        /// The sender's flatten epoch when the operation was stamped. A
        /// receiver in an older epoch holds the message back until its own
        /// flatten commits; a receiver in a newer epoch counts it as late
        /// pre-flatten traffic (always a duplicate — see the module docs of
        /// [`crate::flatten`]) and lets the causal buffer discard it.
        epoch: u64,
        /// The stamped operation.
        msg: CausalMessage<Op>,
    },
    /// A batch of stamped operations, each tagged with its own epoch.
    /// Receiving a batch is exactly receiving its entries in order.
    OpBatch(OpBatch<Op>),
    /// A stamped operation delta-encoded against its sender's previous one
    /// (see [`crate::chain`]); the receiver resolves it against the
    /// predecessor it holds, and receiving it is then exactly receiving
    /// the absolute [`Envelope::Op`].
    OpChained(ChainedOp),
    /// Cumulative acknowledgement: `from` has delivered everything described
    /// by `clock` (in particular, `clock.get(receiver)` messages of the
    /// receiving replica).
    Ack {
        /// The acknowledging site.
        from: SiteId,
        /// Its delivered clock at acknowledgement time.
        clock: VectorClock,
    },
    /// Coordinator → participant: vote request for a flatten proposal.
    FlattenPropose(FlattenPropose),
    /// Participant → coordinator: a vote or phase acknowledgement.
    FlattenVote(FlattenVote),
    /// Coordinator → participant: pre-commit, commit or abort.
    FlattenDecision(FlattenDecision),
    /// Anti-entropy: root digest probe / echo (see [`crate::sync`]).
    SyncRoot(SyncRoot),
    /// Anti-entropy: sub-range digests of the merkle walk.
    SyncDigests(SyncDigests),
    /// Anti-entropy: the cells of a diverging leaf range.
    SyncRuns(SyncRuns),
    /// Bootstrap: announces a snapshot transfer to a joining site.
    SnapshotOffer(SnapshotOffer),
    /// Bootstrap: one piece of the offered snapshot.
    SnapshotChunk(SnapshotChunk),
}

/// The per-replica participant role of the flatten commitment protocol (see
/// [`crate::flatten`]): voting, the prepared lock and epoch tracking. Its
/// tallies are `flatten.*` counters in [`ReplicaMetrics`].
#[derive(Debug, Default)]
struct FlattenRole {
    /// Number of flattens committed at this replica so far; every operation
    /// envelope is tagged with the epoch it was stamped in.
    epoch: u64,
    /// The proposal this replica has voted Yes on and not yet seen decided.
    prepared: Option<PreparedFlatten>,
    /// Votes already cast, per transaction (re-answered idempotently when a
    /// proposal is retransmitted). Retained for the replica's lifetime: one
    /// small entry per proposal ever observed, bounded by the run length
    /// (a long-lived deployment would prune entries from settled epochs).
    voted: BTreeMap<u64, Vote>,
    /// Concluded transactions (`true` = committed), for idempotent decision
    /// handling under network duplication. Same retention as `voted`.
    decided: BTreeMap<u64, bool>,
    /// Local transaction counter for proposals initiated here.
    next_txn: u64,
}

/// State of a proposal this replica has voted Yes on: the replica is locked
/// (no edits in the subtree) until the decision arrives.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PreparedFlatten {
    txn: u64,
    proposal: FlattenProposal,
    /// 3PC only: the pre-commit round was acknowledged, so the decision is
    /// known to be commit and the replica may terminate unilaterally.
    pre_committed: bool,
    /// Ticks spent waiting since preparing (reset by the pre-commit).
    ticks_waiting: u64,
}

/// The durable form of [`FlattenRole`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlattenImage {
    epoch: u64,
    voted: Vec<(u64, Vote)>,
    decided: Vec<(u64, bool)>,
    next_txn: u64,
    prepared: Option<PreparedFlatten>,
}

impl FlattenRole {
    fn export_image(&self) -> FlattenImage {
        FlattenImage {
            epoch: self.epoch,
            voted: self.voted.iter().map(|(&t, &v)| (t, v)).collect(),
            decided: self.decided.iter().map(|(&t, &d)| (t, d)).collect(),
            next_txn: self.next_txn,
            prepared: self.prepared.clone(),
        }
    }

    fn from_image(image: FlattenImage) -> Self {
        FlattenRole {
            epoch: image.epoch,
            prepared: image.prepared,
            voted: image.voted.into_iter().collect(),
            decided: image.decided.into_iter().collect(),
            next_txn: image.next_txn,
        }
    }
}

/// A document that can take part in distributed flatten commitment: it can
/// vote on a proposal and apply a committed one. Implemented for
/// [`Treedoc`]; the clock-equality half of the vote lives on
/// [`Replica`] itself.
pub trait FlattenDocument: ReplicatedDocument {
    /// Votes on the proposal from the document's point of view: No when the
    /// subtree is missing or has activity after the proposal's base
    /// revision.
    ///
    /// Note that revisions are **local bookkeeping** (operation delivery
    /// never advances them, sync integration does), so a participant asks
    /// this with its *own* [`base_revision`](Self::base_revision) in place
    /// of the proposer's: in distributed runs the guard rejects missing
    /// subtrees, and the concurrency veto is the clock-equality test on
    /// [`Replica`].
    fn flatten_vote(&self, proposal: &FlattenProposal) -> Vote;
    /// Applies a committed flatten (deterministic, so every committing
    /// replica produces the same structure).
    fn apply_flatten(&mut self, proposal: &FlattenProposal);
    /// The revision a proposal initiated at this replica is based on.
    fn base_revision(&self) -> u64;
}

impl<A, D> FlattenDocument for Treedoc<A, D>
where
    A: WireAtom + std::hash::Hash,
    D: WireDis + HasSource,
{
    fn flatten_vote(&self, proposal: &FlattenProposal) -> Vote {
        match self.store().region_hot_rev(&proposal.subtree) {
            Some(hot_rev) if hot_rev <= proposal.base_revision => Vote::Yes,
            _ => Vote::No,
        }
    }

    fn apply_flatten(&mut self, proposal: &FlattenProposal) {
        let _ = self.flatten(&proposal.subtree);
    }

    fn base_revision(&self) -> u64 {
        self.revision()
    }
}

/// Sender-side flush policy for operation batching: a batch is emitted as
/// soon as it holds `max_ops` operations **or** its binary encoding reaches
/// `max_bytes`, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Maximum operations per batch (≥ 1).
    pub max_ops: usize,
    /// Maximum encoded payload bytes per batch.
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_ops: 16,
            max_bytes: 16 * 1024,
        }
    }
}

/// One buffered batch entry: `(stamped flatten epoch, message)`.
type BatchEntry<Op> = (u64, CausalMessage<Op>);

/// The sender-side operation batcher: buffers stamped messages until the
/// flush policy triggers. The encoded size is measured through a
/// monomorphised hook captured where the codec bounds hold (same trick as
/// [`Journal`]), so the buffering call sites need none.
struct Batcher<Op> {
    policy: BatchPolicy,
    pending: Vec<BatchEntry<Op>>,
    /// Encoded bytes of `pending` so far (each entry measured delta-encoded
    /// against its predecessor, exactly as the wire will ship it).
    pending_bytes: usize,
    /// Encoded size of one batch entry given its predecessor.
    entry_bytes: fn(&BatchEntry<Op>, Option<&BatchEntry<Op>>) -> usize,
}

impl<Op> std::fmt::Debug for Batcher<Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("policy", &self.policy)
            .field("pending", &self.pending.len())
            .field("pending_bytes", &self.pending_bytes)
            .finish()
    }
}

/// The sender-side retransmission state of at-least-once mode.
#[derive(Debug)]
struct AtLeastOnce<Op> {
    /// Every stamped-but-not-fully-acknowledged message, keyed by this
    /// replica's own sequence number, together with the flatten epoch it was
    /// stamped in (so retransmissions keep their original epoch tag).
    send_log: BTreeMap<u64, (u64, CausalMessage<Op>)>,
    /// Highest sequence number of ours each peer has cumulatively
    /// acknowledged.
    peer_acked: BTreeMap<SiteId, u64>,
}

impl<Op> AtLeastOnce<Op> {
    fn new(site: SiteId, peers: &[SiteId]) -> Self {
        AtLeastOnce {
            send_log: BTreeMap::new(),
            peer_acked: peers
                .iter()
                .copied()
                .filter(|&p| p != site)
                .map(|p| (p, 0))
                .collect(),
        }
    }

    /// Registers additional peers without touching acknowledgements already
    /// received (see [`Replica::enable_at_least_once`]).
    fn add_peers(&mut self, site: SiteId, peers: &[SiteId]) {
        for &p in peers {
            if p != site {
                self.peer_acked.entry(p).or_insert(0);
            }
        }
    }

    /// Drops log entries every peer has acknowledged.
    fn prune(&mut self) {
        let fully_acked = self.peer_acked.values().copied().min().unwrap_or(0);
        self.send_log = self.send_log.split_off(&(fully_acked + 1));
    }

    fn export_image(&self) -> AtLeastOnceImage<Op>
    where
        Op: Clone,
    {
        AtLeastOnceImage {
            send_log: self
                .send_log
                .iter()
                .map(|(&seq, (epoch, msg))| (seq, *epoch, msg.clone()))
                .collect(),
            peer_acked: self.peer_acked.iter().map(|(&p, &a)| (p, a)).collect(),
        }
    }

    fn from_image(image: AtLeastOnceImage<Op>) -> Self {
        AtLeastOnce {
            send_log: image
                .send_log
                .into_iter()
                .map(|(seq, epoch, msg)| (seq, (epoch, msg)))
                .collect(),
            peer_acked: image.peer_acked.into_iter().collect(),
        }
    }
}

/// The durable form of the at-least-once retransmission state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AtLeastOnceImage<Op> {
    /// `(own sequence number, stamped epoch, message)` triples.
    send_log: Vec<(u64, u64, CausalMessage<Op>)>,
    peer_acked: Vec<(SiteId, u64)>,
}

/// The durable form of a whole [`Replica`] minus the document (which has its
/// own snapshot sections — see [`PersistentDocument`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaImage<Op> {
    site: SiteId,
    buffer: CausalBufferImage<Op>,
    epoch_held: Vec<(u64, CausalMessage<Op>)>,
    at_least_once: Option<AtLeastOnceImage<Op>>,
    flatten: FlattenImage,
    /// Chain heads and parked chained ops of the envelope resolver (absent
    /// while the replica has received no op).
    chains: Option<OpChainsImage<Op>>,
}

/// The journaling half of an attached [`DocStore`]: the store plus the
/// monomorphised snapshot hook (captured where the `Serialize` bounds hold,
/// so the journaling call sites need none).
struct Journal<Doc: ReplicatedDocument> {
    store: DocStore,
    make_snapshot: fn(&Replica<Doc>) -> Snapshot,
    /// `true` while `Replica::recover` replays the WAL: suppresses re-logging
    /// and re-checkpointing of events that are already durable.
    replaying: bool,
    /// The op entry the next record chains to; reset on every checkpoint
    /// attempt, rebuilt by `Replica::recover`.
    chain: WalChain<Doc::Op>,
}

impl<Doc: ReplicatedDocument> Journal<Doc> {
    /// Checkpoints `snapshot` and resets the chain, whether or not the
    /// checkpoint succeeded: the next record is written absolute, so it
    /// decodes from whichever snapshot a recovery starts at.
    fn checkpoint(&mut self, epoch: u64, snapshot: &Snapshot) -> Result<(), StorageError> {
        self.chain.reset();
        self.store.checkpoint(epoch, snapshot)
    }
}

impl<Doc: ReplicatedDocument> std::fmt::Debug for Journal<Doc> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("store", &self.store)
            .field("replaying", &self.replaying)
            .finish()
    }
}

/// Telemetry instruments of one replica: stamp/receive volume and latency,
/// batching, the causal/epoch hold-back depth, sync-session traffic, and
/// every tally the replica keeps — they live here and nowhere else, so they
/// count live events only (WAL replay runs before a recovered replica is
/// bound) and a registry that outlives a crashed replica keeps counting
/// across the crash. Inert by default; bound by [`Replica::set_telemetry`].
#[derive(Debug, Clone, Default)]
struct ReplicaMetrics {
    /// The bound handle, kept so a store attached later inherits it.
    telemetry: Telemetry,
    stamp_micros: Histogram,
    ops_received: Counter,
    receive_micros: Histogram,
    ops_applied: Counter,
    replays_skipped: Counter,
    retransmissions: Counter,
    batches_flushed: Counter,
    batch_ops: Counter,
    holdback_depth: Gauge,
    flatten_commits: Counter,
    flatten_aborts: Counter,
    flatten_votes_cast: Counter,
    flatten_unilateral_commits: Counter,
    flatten_blocked_ticks: Counter,
    flatten_late_epoch_ops: Counter,
    sync_digests_rx: Counter,
    sync_runs_rx: Counter,
    sync_echo_bytes: Counter,
    sync_cells_integrated: Counter,
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
            retransmissions: telemetry.counter("replica.retransmissions"),
            batches_flushed: telemetry.counter("replica.batches_flushed"),
            batch_ops: telemetry.counter("replica.batch_ops"),
            holdback_depth: telemetry.gauge("replica.holdback_depth"),
            flatten_commits: telemetry.counter("flatten.commits"),
            flatten_aborts: telemetry.counter("flatten.aborts"),
            flatten_votes_cast: telemetry.counter("flatten.votes_cast"),
            flatten_unilateral_commits: telemetry.counter("flatten.unilateral_commits"),
            flatten_blocked_ticks: telemetry.counter("flatten.blocked_ticks"),
            flatten_late_epoch_ops: telemetry.counter("flatten.late_epoch_ops"),
            sync_digests_rx: telemetry.counter("sync.digests_rx"),
            sync_runs_rx: telemetry.counter("sync.runs_rx"),
            sync_echo_bytes: telemetry.counter("sync.echo_bytes"),
            sync_cells_integrated: telemetry.counter("sync.cells_integrated"),
        }
    }
}

/// A document plus the machinery to exchange its operations causally.
///
/// The replica keeps protocol state only. What it counts goes to the
/// registry bound with [`set_telemetry`](Self::set_telemetry), one counter
/// per tally, summed over every replica bound to the same registry:
///
/// | counter | counts |
/// | --- | --- |
/// | `replica.ops_received` | operations arriving in envelopes or [`receive`](Self::receive) |
/// | `replica.ops_applied` | operations delivered to the document |
/// | `replica.replays_skipped` | delivered operations the document already held (sync only) |
/// | `replica.retransmissions` | send-log entries handed out again for a peer |
/// | `replica.batches_flushed` / `replica.batch_ops` | batches emitted and the operations in them |
/// | `flatten.votes_cast` | flatten votes (local proposals included) |
/// | `flatten.commits` / `flatten.aborts` | flattens committed here / proposals seen aborted |
/// | `flatten.unilateral_commits` | 3PC commits taken after the pre-commit timeout |
/// | `flatten.blocked_ticks` | ticks spent locked in the prepared state |
/// | `flatten.late_epoch_ops` | operations tagged with an older flatten epoch |
///
/// Stamps are the count of the `replica.stamp_micros` histogram. A
/// recovered replica counts nothing while it replays its WAL: bind it after
/// [`recover`](Self::recover) returns. The counts the causal buffer and
/// the chain resolver own ([`duplicates_discarded`](Self::duplicates_discarded),
/// [`high_water_mark`](Self::high_water_mark),
/// [`chained_ops_dropped`](Self::chained_ops_dropped)) stay on the replica.
#[derive(Debug)]
pub struct Replica<Doc: ReplicatedDocument> {
    site: SiteId,
    doc: Doc,
    buffer: CausalBuffer<Doc::Op>,
    at_least_once: Option<AtLeastOnce<Doc::Op>>,
    flatten: FlattenRole,
    /// Operations stamped in a flatten epoch this replica has not reached
    /// yet (their identifiers live in the post-flatten tree), held back until
    /// the local flatten commits.
    epoch_held: Vec<(u64, CausalMessage<Doc::Op>)>,
    /// The attached durable store, when persistence is on (see
    /// [`attach_store`](Replica::attach_store)).
    journal: Option<Journal<Doc>>,
    /// The sender-side operation batcher, when batching is on (see
    /// [`enable_batching`](Replica::enable_batching)).
    batcher: Option<Batcher<Doc::Op>>,
    /// Chunks of an in-flight snapshot bootstrap (transient: a crash simply
    /// restarts the transfer).
    bootstrap: Option<BootstrapAssembly>,
    /// The last op [`stamp_envelope`](Replica::stamp_envelope) stamped,
    /// with its epoch: the next envelope is chained to it when it is the
    /// immediate predecessor (transient: a recovered replica starts a new
    /// chain with an absolute envelope).
    last_envelope: Option<(u64, CausalMessage<Doc::Op>)>,
    /// The receiver-side resolver of chained envelopes.
    chains: OpChains<Doc::Op>,
    metrics: ReplicaMetrics,
}

/// Collects the chunks of one snapshot transfer until all have arrived.
#[derive(Debug)]
struct BootstrapAssembly {
    from: SiteId,
    digest: u64,
    total_bytes: u64,
    chunks: u64,
    received: BTreeMap<u64, Vec<u8>>,
}

impl<Doc: ReplicatedDocument> Replica<Doc> {
    /// Wraps a document.
    pub fn new(site: SiteId, doc: Doc) -> Self {
        Replica {
            site,
            doc,
            buffer: CausalBuffer::new(),
            at_least_once: None,
            flatten: FlattenRole::default(),
            epoch_held: Vec::new(),
            journal: None,
            batcher: None,
            bootstrap: None,
            last_envelope: None,
            chains: OpChains::default(),
            metrics: ReplicaMetrics::default(),
        }
    }

    /// Points this replica's instruments (stamp/receive counters and
    /// latency, batching, hold-back depth, sync traffic) at `telemetry`, and
    /// forwards the handle to the attached store if any. A disabled handle
    /// reverts everything to no-ops.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = ReplicaMetrics::resolve(telemetry);
        if let Some(journal) = self.journal.as_mut() {
            journal.store.set_telemetry(telemetry);
        }
    }

    /// `true` while journaling is live (a store is attached and the replica
    /// is not replaying its own log).
    fn journaling(&self) -> bool {
        self.journal.as_ref().is_some_and(|j| !j.replaying)
    }

    /// Appends one WAL record, constructed lazily so the non-durable path
    /// pays nothing. Persistence is load-bearing: a backend failure here is
    /// fatal rather than silently forgotten.
    fn journal_with(&mut self, record: impl FnOnce() -> WalRecord<Doc::Op>) {
        if !self.journaling() {
            return;
        }
        let record = record();
        let journal = self.journal.as_mut().expect("journaling() checked");
        let bytes = journal.chain.encode(&record);
        journal
            .store
            .append(self.flatten.epoch, &bytes)
            .expect("WAL append failed; durability cannot be guaranteed");
        journal.chain.advance(record);
    }

    /// Checkpoints through the attached journal (no-op without one, or while
    /// replaying). Factored out so the flatten-commit path — which has no
    /// persistence bounds — can call it through the stored hook.
    fn checkpoint_via_journal(&mut self) {
        let Some(mut journal) = self.journal.take() else {
            return;
        };
        if !journal.replaying {
            let snapshot = (journal.make_snapshot)(self);
            journal
                .checkpoint(self.flatten.epoch, &snapshot)
                .expect("checkpoint failed; durability cannot be guaranteed");
        }
        self.journal = Some(journal);
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

    /// Hands a delivered operation to the document, counting it in
    /// `replica.ops_applied` — and in `replica.replays_skipped` when the
    /// document already held its effect, which only a sync session can
    /// cause (see [`ReplicatedDocument::replay`]).
    fn deliver(&mut self, op: &Doc::Op) {
        if !self.doc.replay(op) {
            self.metrics.replays_skipped.inc();
        }
        self.metrics.ops_applied.inc();
    }

    /// Stale or duplicate messages discarded: by the causal buffer, or as
    /// chained envelopes already delivered or parked.
    pub fn duplicates_discarded(&self) -> u64 {
        self.buffer.stats().duplicates_discarded + self.chains.duplicates()
    }

    /// Largest hold-back queue observed so far.
    pub fn high_water_mark(&self) -> usize {
        self.buffer.high_water_mark()
    }

    /// Switches the replica to at-least-once mode: every message stamped from
    /// now on is kept in a send log until all `peers` (the sender itself is
    /// ignored if listed) have acknowledged it, and can be retransmitted with
    /// [`unacked_for`](Self::unacked_for).
    ///
    /// Calling this again is **idempotent and merging**: peers already
    /// registered keep the acknowledgements they have sent (so nothing
    /// already acked is spuriously retransmitted), and peers new to the set
    /// are registered from zero. A peer added mid-run is only guaranteed the
    /// log entries that have not yet been pruned by the original peer set's
    /// acknowledgements.
    pub fn enable_at_least_once(&mut self, peers: &[SiteId]) {
        self.journal_with(|| WalRecord::PeersEnabled {
            peers: peers.to_vec(),
        });
        match self.at_least_once.as_mut() {
            Some(alo) => alo.add_peers(self.site, peers),
            None => self.at_least_once = Some(AtLeastOnce::new(self.site, peers)),
        }
    }

    /// `true` when at-least-once mode is on.
    pub fn at_least_once_enabled(&self) -> bool {
        self.at_least_once.is_some()
    }

    /// `true` while some stamped message has not been acknowledged by every
    /// peer (always `false` outside at-least-once mode).
    pub fn has_unacked(&self) -> bool {
        self.at_least_once
            .as_ref()
            .is_some_and(|alo| !alo.send_log.is_empty())
    }

    /// The acknowledgement envelope this replica would broadcast right now.
    pub fn ack_envelope(&self) -> Envelope<Doc::Op> {
        Envelope::Ack {
            from: self.site,
            clock: self.buffer.delivered_clock().clone(),
        }
    }

    /// Records a peer's cumulative acknowledgement (its delivered clock) and
    /// prunes the send log of everything all peers have now seen.
    ///
    /// The peer set is fixed by
    /// [`enable_at_least_once`](Self::enable_at_least_once):
    /// acknowledgements from sites outside it are ignored, because the send
    /// log is pruned against the registered peers only — honouring an
    /// unregistered peer here would pretend the log can still serve it
    /// after pruning already discarded entries it never acknowledged.
    pub fn record_ack(&mut self, peer: SiteId, clock: &VectorClock) {
        let acked = clock.get(self.site);
        if let Some(alo) = self.at_least_once.as_mut() {
            if let Some(entry) = alo.peer_acked.get_mut(&peer) {
                *entry = (*entry).max(acked);
                alo.prune();
            }
        }
    }

    /// Clones every logged message `peer` has not acknowledged yet, counting
    /// them in `replica.retransmissions`. Returns an empty vector outside
    /// at-least-once mode.
    ///
    /// # Panics
    ///
    /// If `peer` was not registered in
    /// [`enable_at_least_once`](Self::enable_at_least_once): the send log
    /// is pruned by the registered peers' acknowledgements alone, so it
    /// cannot be relied on to still hold what an unregistered peer is
    /// missing — silently returning a partial log would lose messages.
    pub fn unacked_for(&mut self, peer: SiteId) -> Vec<CausalMessage<Doc::Op>> {
        self.unacked_envelopes_for(peer)
            .into_iter()
            .map(|env| match env {
                Envelope::Op { msg, .. } => msg,
                _ => unreachable!("the send log only holds operations"),
            })
            .collect()
    }

    /// Like [`unacked_for`](Self::unacked_for), but returns full envelopes
    /// carrying the flatten epoch each message was **stamped** in, so a
    /// pre-flatten operation retransmitted after a committed flatten is
    /// still recognisable as late pre-flatten traffic by the receiver.
    pub fn unacked_envelopes_for(&mut self, peer: SiteId) -> Vec<Envelope<Doc::Op>> {
        let Some(alo) = self.at_least_once.as_mut() else {
            return Vec::new();
        };
        let acked = alo
            .peer_acked
            .get(&peer)
            .copied()
            .unwrap_or_else(|| panic!("site {peer} is not a registered at-least-once peer"));
        let missing: Vec<Envelope<Doc::Op>> = alo
            .send_log
            .range(acked + 1..)
            .map(|(_, (epoch, m))| Envelope::Op {
                epoch: *epoch,
                msg: m.clone(),
            })
            .collect();
        self.metrics.retransmissions.add(missing.len() as u64);
        missing
    }

    /// Like [`unacked_envelopes_for`](Self::unacked_envelopes_for), but
    /// coalesces the peer's unacked window into a **single**
    /// [`Envelope::OpBatch`] (entries keep their stamped epochs), so a
    /// retransmission round costs one envelope instead of one per message.
    /// Every entry still counts as a retransmission. `None` when the peer is
    /// fully acknowledged.
    ///
    /// # Panics
    ///
    /// Like [`unacked_envelopes_for`](Self::unacked_envelopes_for), if
    /// `peer` was not registered.
    pub fn unacked_batch_for(&mut self, peer: SiteId) -> Option<Envelope<Doc::Op>> {
        let alo = self.at_least_once.as_mut()?;
        let acked = alo
            .peer_acked
            .get(&peer)
            .copied()
            .unwrap_or_else(|| panic!("site {peer} is not a registered at-least-once peer"));
        let entries: Vec<(u64, CausalMessage<Doc::Op>)> = alo
            .send_log
            .range(acked + 1..)
            .map(|(_, (epoch, m))| (*epoch, m.clone()))
            .collect();
        if entries.is_empty() {
            return None;
        }
        self.metrics.retransmissions.add(entries.len() as u64);
        Some(Envelope::OpBatch(OpBatch { entries }))
    }

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
        if let Some(alo) = self.at_least_once.as_mut() {
            alo.send_log
                .insert(message.seq(), (self.flatten.epoch, message.clone()));
        }
        // Persist before the message can leave the replica: a crash after
        // this point finds the operation (and the local edit it implies) in
        // the log, so the recovered replica can still retransmit it.
        let epoch = self.flatten.epoch;
        self.journal_with(|| WalRecord::Stamped {
            epoch,
            msg: message.clone(),
        });
        span.stop();
        message
    }

    /// Stamps a locally initiated operation and wraps it in an envelope
    /// tagged with the replica's current flatten epoch — the broadcast form
    /// the simulator sends.
    ///
    /// When the envelope this method stamped last is the op's immediate
    /// predecessor (sequence number one lower, same epoch), the envelope is
    /// an [`Envelope::OpChained`] delta-encoded against it; otherwise it is
    /// the absolute [`Envelope::Op`]. Receivers resolve the chained form
    /// against the predecessor they received, or adopted with a sync
    /// fast-forward (see [`crate::chain`]).
    pub fn stamp_envelope(&mut self, op: Doc::Op) -> Envelope<Doc::Op> {
        let epoch = self.flatten.epoch;
        let msg = self.stamp(op);
        let envelope = match &self.last_envelope {
            Some((prev_epoch, prev))
                if *prev_epoch == epoch && prev.seq().checked_add(1) == Some(msg.seq()) =>
            {
                Envelope::OpChained(ChainedOp::after(epoch, &msg, prev))
            }
            _ => Envelope::Op {
                epoch,
                msg: msg.clone(),
            },
        };
        self.last_envelope = Some((epoch, msg));
        envelope
    }

    /// Switches the replica to batched sending: operations stamped through
    /// [`stamp_batched`](Self::stamp_batched) are buffered and emitted as
    /// [`Envelope::OpBatch`]es when `policy` triggers. Journaling and the
    /// at-least-once send log are unaffected (both act at stamp time), so a
    /// crash can only lose an unflushed batch the retransmission protocol
    /// recovers anyway.
    pub fn enable_batching(&mut self, policy: BatchPolicy)
    where
        Doc::Op: treedoc_core::WirePayload,
    {
        assert!(policy.max_ops >= 1, "a batch holds at least one operation");
        self.batcher = Some(Batcher {
            policy,
            pending: Vec::new(),
            pending_bytes: 0,
            entry_bytes: crate::wire::batch_entry_bytes::<Doc::Op>,
        });
    }

    /// `true` when batched sending is on.
    pub fn batching_enabled(&self) -> bool {
        self.batcher.is_some()
    }

    /// Stamps a locally initiated operation into the current batch. Returns
    /// the batch envelope to broadcast when the flush policy triggered, or
    /// `None` while the batch is still filling. Without
    /// [`enable_batching`](Self::enable_batching) this behaves exactly like
    /// [`stamp_envelope`](Self::stamp_envelope) (every op flushes
    /// immediately), so drivers need a single call site for both modes.
    pub fn stamp_batched(&mut self, op: Doc::Op) -> Option<Envelope<Doc::Op>> {
        if self.batcher.is_none() {
            return Some(self.stamp_envelope(op));
        }
        let entry = (self.flatten.epoch, self.stamp(op));
        let batcher = self.batcher.as_mut()?;
        batcher.pending_bytes += (batcher.entry_bytes)(&entry, batcher.pending.last());
        batcher.pending.push(entry);
        if batcher.pending.len() >= batcher.policy.max_ops
            || batcher.pending_bytes >= batcher.policy.max_bytes
        {
            self.flush_batch()
        } else {
            None
        }
    }

    /// Emits whatever the batcher holds, regardless of the flush policy
    /// (drivers call this at round boundaries and before quiescence checks).
    /// `None` when the batch is empty or batching is off.
    pub fn flush_batch(&mut self) -> Option<Envelope<Doc::Op>> {
        let batcher = self.batcher.as_mut()?;
        if batcher.pending.is_empty() {
            return None;
        }
        batcher.pending_bytes = 0;
        let entries = std::mem::take(&mut batcher.pending);
        self.metrics.batches_flushed.inc();
        self.metrics.batch_ops.add(entries.len() as u64);
        Some(Envelope::OpBatch(OpBatch { entries }))
    }

    /// Operations buffered in the current (unflushed) batch.
    pub fn pending_batch_len(&self) -> usize {
        self.batcher.as_ref().map_or(0, |b| b.pending.len())
    }

    /// Receives a message from the network; buffered messages that become
    /// deliverable are replayed immediately, in causal order. Duplicates are
    /// discarded (see [`Replica::duplicates_discarded`]).
    ///
    /// With a store attached the message is persisted (as an epoch-tagged
    /// operation envelope) before delivery.
    pub fn receive(&mut self, message: CausalMessage<Doc::Op>) -> usize {
        let span = self.metrics.receive_micros.start();
        self.metrics.ops_received.inc();
        let epoch = self.flatten.epoch;
        self.journal_received_op(epoch, &message);
        let applied = self.receive_resolved(epoch, message, false);
        span.stop();
        self.note_holdback_depth();
        applied
    }

    /// Publishes the hold-back depth (causally blocked plus epoch-held
    /// messages) to the `replica.holdback_depth` gauge. One branch when
    /// telemetry is off.
    fn note_holdback_depth(&self) {
        if self.metrics.holdback_depth.is_enabled() {
            self.metrics.holdback_depth.set(self.pending() as u64);
        }
    }

    /// The persist-before-deliver guard for incoming operations, shared by
    /// [`receive`](Self::receive) and the envelope path so the two can never
    /// drift apart: journals the message unless it is a read-only-detectable
    /// duplicate (whose replay would be a no-op anyway).
    fn journal_received_op(&mut self, epoch: u64, msg: &CausalMessage<Doc::Op>) {
        if self.journaling() && !self.op_is_known_duplicate(epoch, msg.sender, msg.seq()) {
            let msg = msg.clone();
            self.journal_with(|| WalRecord::Received {
                envelope: Envelope::Op { epoch, msg },
            });
        }
    }

    /// The persist-before-deliver guard for incoming batches: journals the
    /// batch with its known-duplicate entries filtered out (their replay
    /// would be a no-op), as one `Received` record. A batch that is
    /// duplicates throughout — the common case under retransmission
    /// coalescing, where the whole unacked window is re-sent — costs no WAL
    /// record at all.
    fn journal_received_batch(&mut self, batch: &OpBatch<Doc::Op>) {
        if !self.journaling() {
            return;
        }
        let fresh: Vec<(u64, CausalMessage<Doc::Op>)> = batch
            .entries
            .iter()
            .filter(|(epoch, msg)| !self.op_is_known_duplicate(*epoch, msg.sender, msg.seq()))
            .cloned()
            .collect();
        if !fresh.is_empty() {
            self.journal_with(|| WalRecord::Received {
                envelope: Envelope::OpBatch(OpBatch { entries: fresh }),
            });
        }
    }

    /// Read-only check whether an incoming operation would be discarded as a
    /// duplicate (by the causal buffer, or by the epoch hold-back dedup).
    /// Such a message is side-effect-free on replay, so the journal skips
    /// it — under retransmission-heavy schedules this trims the WAL (and
    /// the recovery bill) by roughly the duplicate rate.
    fn op_is_known_duplicate(&self, epoch: u64, sender: SiteId, seq: u64) -> bool {
        if epoch > self.flatten.epoch {
            self.epoch_held
                .iter()
                .any(|(_, held)| held.sender == sender && held.seq() == seq)
        } else {
            self.buffer.is_duplicate(sender, seq)
        }
    }

    /// `true` when recording this acknowledgement would change nothing:
    /// at-least-once is off, the peer is unregistered, or the cumulative
    /// watermark is not advanced. Such acks are not worth a WAL record.
    fn ack_is_noop(&self, peer: SiteId, clock: &VectorClock) -> bool {
        let acked = clock.get(self.site);
        match self.at_least_once.as_ref() {
            Some(alo) => alo
                .peer_acked
                .get(&peer)
                .is_none_or(|&current| acked <= current),
            None => true,
        }
    }

    /// The delivery path proper, shared by [`receive`](Self::receive) and the
    /// envelope/hold-back paths (whose arrivals were already journaled).
    fn receive_unjournaled(&mut self, message: CausalMessage<Doc::Op>) -> usize {
        let deliverable = self.buffer.receive(message);
        let count = deliverable.len();
        for m in deliverable {
            self.deliver(&m.payload);
        }
        count
    }

    /// Handles an operation or acknowledgement [`Envelope`]: operations go
    /// through epoch filtering and causal delivery, acknowledgements update
    /// the retransmission state. Returns the number of operations applied.
    ///
    /// Flatten-commitment envelopes are **ignored** here because answering
    /// them needs a voting document; route complete traffic through
    /// [`receive_any`](Self::receive_any) (available when the document
    /// implements [`FlattenDocument`]).
    pub fn receive_envelope(&mut self, envelope: Envelope<Doc::Op>) -> usize {
        match envelope {
            Envelope::Op { epoch, msg } => {
                let span = self.metrics.receive_micros.start();
                self.metrics.ops_received.inc();
                self.journal_received_op(epoch, &msg);
                let applied = self.receive_resolved(epoch, msg, true);
                span.stop();
                self.note_holdback_depth();
                applied
            }
            Envelope::OpChained(op) => {
                let span = self.metrics.receive_micros.start();
                self.metrics.ops_received.inc();
                let applied = self.receive_chained(op);
                span.stop();
                self.note_holdback_depth();
                applied
            }
            Envelope::OpBatch(batch) => {
                let span = self.metrics.receive_micros.start();
                self.metrics.ops_received.add(batch.entries.len() as u64);
                self.journal_received_batch(&batch);
                let applied = batch
                    .entries
                    .into_iter()
                    .map(|(epoch, msg)| self.receive_resolved(epoch, msg, false))
                    .sum();
                span.stop();
                self.note_holdback_depth();
                applied
            }
            Envelope::Ack { from, clock } => {
                if self.journaling() && !self.ack_is_noop(from, &clock) {
                    let clock2 = clock.clone();
                    self.journal_with(|| WalRecord::Received {
                        envelope: Envelope::Ack {
                            from,
                            clock: clock2,
                        },
                    });
                }
                self.record_ack(from, &clock);
                0
            }
            Envelope::FlattenPropose(_)
            | Envelope::FlattenVote(_)
            | Envelope::FlattenDecision(_) => 0,
            // Sync traffic needs a SyncDocument; route it through
            // [`receive_sync`](Self::receive_sync).
            Envelope::SyncRoot(_)
            | Envelope::SyncDigests(_)
            | Envelope::SyncRuns(_)
            | Envelope::SnapshotOffer(_)
            | Envelope::SnapshotChunk(_) => 0,
        }
    }

    /// Resolves a chained op against its sender's chain head and receives
    /// the absolute message — journaled as the received op, exactly like an
    /// [`Envelope::Op`]. A chained op whose predecessor has not resolved
    /// yet is journaled as received (so replay parks it again) and parked;
    /// a known duplicate, or one that disagrees with its head, is dropped.
    fn receive_chained(&mut self, op: ChainedOp) -> usize {
        if self.op_is_known_duplicate(op.epoch, op.sender, op.seq)
            || self.chains.is_parked(op.sender, op.seq)
        {
            self.chains.note_duplicate();
            return 0;
        }
        match self.chains.resolve(&op) {
            Resolution::Resolved(msg) => {
                self.journal_received_op(op.epoch, &msg);
                self.receive_resolved(op.epoch, msg, true)
            }
            Resolution::Park => {
                if self.journaling() {
                    let envelope = Envelope::OpChained(op.clone());
                    self.journal_with(|| WalRecord::Received { envelope });
                }
                self.chains.park(op);
                0
            }
            Resolution::Invalid => 0,
        }
    }

    /// Receives an absolute (or just resolved) op: it becomes its sender's
    /// chain head, and any chained successors parked behind it resolve in
    /// cascade (they were journaled when they arrived).
    ///
    /// A single-op envelope may open its sender's chain (`opens_chain`);
    /// a batch entry or a [`receive`](Self::receive)d message only
    /// continues a chain this replica already follows — a sender's chain
    /// always opens with an absolute single-op envelope, so senders that
    /// only batch cost no head bookkeeping. Known duplicates leave the
    /// heads alone: they are not journaled, so replay never sees them.
    fn receive_resolved(
        &mut self,
        epoch: u64,
        msg: CausalMessage<Doc::Op>,
        opens_chain: bool,
    ) -> usize {
        if !(opens_chain || self.chains.follows(msg.sender))
            || self.op_is_known_duplicate(epoch, msg.sender, msg.seq())
        {
            return self.receive_op(epoch, msg);
        }
        let mut next = self.chains.advance(epoch, &msg);
        let mut applied = self.receive_op(epoch, msg);
        while let Some((epoch, msg)) = next {
            next = self.chains.advance(epoch, &msg);
            applied += self.receive_op(epoch, msg);
        }
        applied
    }

    /// Chained ops dropped unresolved: they disagreed with the chain head
    /// they name. At-least-once retransmission re-ships such an op
    /// absolute.
    pub fn chained_ops_dropped(&self) -> u64 {
        self.chains.dropped()
    }

    /// Epoch-aware operation receipt: future-epoch operations (stamped on a
    /// flattened tree this replica has not committed yet) are held back —
    /// duplicate copies (network duplication, retransmission) of an
    /// already-held message are discarded so the hold-back stays one entry
    /// per message; past-epoch operations are counted as late pre-flatten
    /// traffic and offered to the duplicate-safe buffer, which discards them
    /// as stale.
    fn receive_op(&mut self, epoch: u64, msg: CausalMessage<Doc::Op>) -> usize {
        if epoch > self.flatten.epoch {
            let already_held = self
                .epoch_held
                .iter()
                .any(|(_, held)| held.sender == msg.sender && held.seq() == msg.seq());
            if !already_held {
                self.epoch_held.push((epoch, msg));
            }
            return 0;
        }
        if epoch < self.flatten.epoch {
            self.metrics.flatten_late_epoch_ops.inc();
        }
        self.receive_unjournaled(msg)
    }

    /// Number of messages still waiting for causal predecessors (including
    /// operations held back for a future flatten epoch, and chained ops
    /// parked until their predecessor resolves).
    pub fn pending(&self) -> usize {
        self.buffer.pending_len() + self.epoch_held.len() + self.chains.parked_len()
    }

    /// Content digest, for convergence checks.
    pub fn digest(&self) -> u64 {
        self.doc.digest()
    }

    // ------------------------------------------------------------------
    // Flatten commitment: epoch and lock (any document)
    // ------------------------------------------------------------------

    /// Number of flattens committed at this replica (the epoch every
    /// operation envelope is tagged with).
    pub fn flatten_epoch(&self) -> u64 {
        self.flatten.epoch
    }

    /// `true` while this replica has voted Yes on a proposal whose decision
    /// has not arrived: the subtree is locked against local edits.
    pub fn is_flatten_prepared(&self) -> bool {
        self.flatten.prepared.is_some()
    }

    /// Concludes the coordinator's **own** prepared state once its
    /// [`FlattenCoordinator`](crate::flatten::FlattenCoordinator) reaches an
    /// outcome: applies the flatten on commit, discards the lock on abort.
    /// Returns the number of held-back operations applied as a result.
    pub fn finish_flatten(&mut self, txn: u64, committed: bool) -> usize
    where
        Doc: FlattenDocument,
    {
        if self.flatten.prepared.as_ref().is_none_or(|p| p.txn != txn) {
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
            self.flatten.prepared = None;
            self.metrics.flatten_aborts.inc();
            self.flatten.decided.insert(txn, false);
            0
        }
    }

    /// Applies the prepared flatten, bumps the epoch and releases any
    /// held-back future-epoch operations that became applicable.
    fn commit_prepared(&mut self) -> usize
    where
        Doc: FlattenDocument,
    {
        let prepared = self
            .flatten
            .prepared
            .take()
            .expect("commit_prepared requires a prepared proposal");
        self.doc.apply_flatten(&prepared.proposal);
        self.flatten.epoch += 1;
        self.metrics.flatten_commits.inc();
        self.flatten.decided.insert(prepared.txn, true);
        let applied = self.drain_epoch_held();
        // The committed epoch is the natural log-compaction point (§4.2.1):
        // checkpoint the flattened replica and truncate the pre-epoch WAL.
        self.checkpoint_via_journal();
        applied
    }

    /// Re-offers held-back operations whose epoch the replica has reached.
    fn drain_epoch_held(&mut self) -> usize
    where
        Doc: FlattenDocument,
    {
        let epoch = self.flatten.epoch;
        let (ready, held): (Vec<_>, Vec<_>) = std::mem::take(&mut self.epoch_held)
            .into_iter()
            .partition(|(e, _)| *e <= epoch);
        self.epoch_held = held;
        let mut applied = 0;
        for (_, msg) in ready {
            // Held-back messages were journaled when they arrived; replaying
            // the log reconstructs the hold-back and re-drains it the same
            // way, so no second record is written here.
            applied += self.receive_unjournaled(msg);
        }
        applied
    }
}

/// What handling one sync envelope produced (see
/// [`Replica::receive_sync`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncEffect<Op> {
    /// Envelopes to send back to the peer the handled envelope came from.
    pub replies: Vec<Envelope<Op>>,
    /// Cells that changed this replica's store.
    pub cells_integrated: usize,
    /// Held-back operations released (and replayed) by a clock
    /// fast-forward.
    pub ops_released: usize,
    /// `true` when a root comparison found the two states equal (the clock
    /// was fast-forwarded; the session is over).
    pub converged: bool,
    /// `true` when a snapshot bootstrap completed and this replica adopted
    /// the transferred state.
    pub bootstrapped: bool,
}

impl<Op> SyncEffect<Op> {
    fn empty() -> Self {
        SyncEffect {
            replies: Vec::new(),
            cells_integrated: 0,
            ops_released: 0,
            converged: false,
            bootstrapped: false,
        }
    }
}

/// State-based anti-entropy (see [`crate::sync`] for the protocol). Sync
/// traffic is idempotent and therefore **not journaled**: a crash loses at
/// most an in-flight session, which the next session repairs; integrated
/// cells and fast-forwarded clocks become durable together at the next
/// checkpoint.
impl<Doc: SyncDocument> Replica<Doc> {
    /// The opening probe of a sync session: this replica's root digest,
    /// cell count and delivered clock.
    pub fn sync_probe(&self) -> Envelope<Doc::Op> {
        self.sync_root_envelope(true, false, Vec::new())
    }

    fn sync_root_envelope(
        &self,
        reply: bool,
        want_heads: bool,
        chain_heads: Vec<u8>,
    ) -> Envelope<Doc::Op> {
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

    /// The chain heads of the current epoch a peer whose delivered clock is
    /// `peer` lacks: this replica's own last envelope-stamped op and its
    /// newest resolved op per sender, where delivered here and not covered
    /// by `peer`. Empty bytes when there are none.
    fn chain_heads_beyond(&self, peer: &VectorClock) -> Vec<u8> {
        let epoch = self.flatten.epoch;
        let delivered = self.buffer.delivered_clock();
        let heads: Vec<(u64, CausalMessage<Doc::Op>)> = self
            .chains
            .newest_heads(epoch)
            .chain(self.last_envelope.iter().filter(|(e, _)| *e == epoch))
            .filter(|(_, msg)| {
                let (sender, seq) = (msg.sender, msg.seq());
                peer.get(sender) < seq && seq <= delivered.get(sender)
            })
            .cloned()
            .collect();
        wire::encode_chain_heads(&heads)
    }

    /// Merges a peer's clock after a state comparison proved the documents
    /// equal, replaying anything the merge unblocks and discarding held-back
    /// traffic the state transfer already covered. A prior session may have
    /// integrated a released operation's cells ahead of clock coverage; the
    /// document then skips it (see [`ReplicatedDocument::replay`]).
    fn sync_fast_forward(&mut self, remote: &VectorClock) -> usize {
        let released = self.buffer.fast_forward(remote);
        let count = released.len();
        for m in released {
            self.deliver(&m.payload);
        }
        self.chains.drop_covered(self.buffer.delivered_clock());
        count
    }

    /// Adopts the chain heads a peer's root carried along with the clock
    /// this replica just fast-forwarded to: ops this replica got by state
    /// transfer become heads, so envelopes chained to them resolve, and
    /// parked ones resolve now. Returns the operations that applied.
    ///
    /// A digest walk may have integrated a resolved op's cells already; the
    /// document then skips it (see [`ReplicatedDocument::replay`]).
    fn adopt_chain_heads(&mut self, bytes: &[u8]) -> usize {
        let Ok(heads) = wire::decode_chain_heads::<Doc::Op>(bytes) else {
            return 0; // malformed heads: the next session offers them again
        };
        let mut applied = 0;
        for (epoch, msg) in heads {
            if msg.sender == self.site || self.chains.holds(msg.sender, msg.seq()) {
                continue;
            }
            let mut next = self.chains.advance(epoch, &msg);
            while let Some((epoch, msg)) = next {
                next = self.chains.advance(epoch, &msg);
                if epoch > self.flatten.epoch {
                    applied += self.receive_op(epoch, msg);
                    continue;
                }
                for m in self.buffer.receive(msg) {
                    self.deliver(&m.payload);
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Handles one sync envelope, producing the replies of the digest walk.
    /// Operation/ack/flatten envelopes passed here are delegated to
    /// [`receive_envelope`](Self::receive_envelope) (their applied count is
    /// reported as `ops_released`).
    pub fn receive_sync(
        &mut self,
        envelope: Envelope<Doc::Op>,
        config: &SyncConfig,
    ) -> SyncEffect<Doc::Op> {
        match envelope {
            Envelope::SyncRoot(root) => self.on_sync_root(root, config),
            Envelope::SyncDigests(digests) => {
                self.metrics.sync_digests_rx.inc();
                self.on_sync_digests(digests, config)
            }
            Envelope::SyncRuns(runs) => {
                self.metrics.sync_runs_rx.inc();
                self.on_sync_runs(runs)
            }
            Envelope::SnapshotOffer(offer) => {
                self.bootstrap = Some(BootstrapAssembly {
                    from: offer.from,
                    digest: offer.digest,
                    total_bytes: offer.total_bytes,
                    chunks: offer.chunks,
                    received: BTreeMap::new(),
                });
                SyncEffect::empty()
            }
            Envelope::SnapshotChunk(chunk) => self.on_snapshot_chunk(chunk),
            other => SyncEffect {
                ops_released: self.receive_envelope(other),
                ..SyncEffect::empty()
            },
        }
    }

    fn on_sync_root(&mut self, root: SyncRoot, config: &SyncConfig) -> SyncEffect<Doc::Op> {
        let (my_digest, my_cells) = self.doc.sync_root();
        let mut effect = SyncEffect::empty();
        if root.digest == my_digest && root.cells == my_cells {
            // Equal states: everything the peer delivered is reflected here,
            // so its clock coverage is safe to adopt, and with it the chain
            // heads it sent.
            let mine = self.buffer.delivered_clock();
            let gained = root.clock.iter().any(|(site, seq)| seq > mine.get(site));
            effect.ops_released =
                self.sync_fast_forward(&root.clock) + self.adopt_chain_heads(&root.chain_heads);
            effect.converged = true;
            if root.reply {
                // The echo hands over the heads the probe's clock does not
                // cover, and asks for the prober's when the probe's clock
                // covered ops this replica lacked.
                let heads = self.chain_heads_beyond(&root.clock);
                effect
                    .replies
                    .push(self.sync_root_envelope(false, gained, heads));
            } else if root.want_heads {
                let heads = self.chain_heads_beyond(&VectorClock::new());
                if !heads.is_empty() {
                    effect
                        .replies
                        .push(self.sync_root_envelope(false, false, heads));
                }
            }
            return effect;
        }
        if !root.reply {
            // A mismatched echo: the session's repair phase is (still)
            // running; the next probe will re-compare.
            return effect;
        }
        if my_cells as usize <= config.leaf_cells || root.cells as usize <= config.leaf_cells {
            // One side is small enough that digest rounds cost more than the
            // cells themselves: exchange them outright.
            if let Some((cells, count)) = self.doc.sync_cells(&[], &[]) {
                effect.replies.push(Envelope::SyncRuns(SyncRuns {
                    from: self.site,
                    lo: Vec::new(),
                    hi: Vec::new(),
                    count,
                    cells,
                    reply: true,
                }));
            }
        } else if let Some(ranges) = self.doc.sync_split(&[], &[], config.fanout) {
            effect.replies.push(Envelope::SyncDigests(SyncDigests {
                from: self.site,
                ranges,
            }));
        }
        effect
    }

    fn on_sync_digests(
        &mut self,
        digests: SyncDigests,
        config: &SyncConfig,
    ) -> SyncEffect<Doc::Op> {
        let mut effect = SyncEffect::empty();
        let mut narrowed = Vec::new();
        for range in digests.ranges {
            let Some((my_digest, my_cells)) = self.doc.sync_range(&range.lo, &range.hi) else {
                continue; // malformed bounds: drop the range
            };
            if my_digest == range.digest && my_cells == range.cells {
                continue; // this range already agrees
            }
            if my_cells as usize <= config.leaf_cells || range.cells as usize <= config.leaf_cells {
                if let Some((cells, count)) = self.doc.sync_cells(&range.lo, &range.hi) {
                    effect.replies.push(Envelope::SyncRuns(SyncRuns {
                        from: self.site,
                        lo: range.lo,
                        hi: range.hi,
                        count,
                        cells,
                        reply: true,
                    }));
                }
            } else if let Some(split) = self.doc.sync_split(&range.lo, &range.hi, config.fanout) {
                narrowed.extend(split);
            }
        }
        if !narrowed.is_empty() {
            effect.replies.push(Envelope::SyncDigests(SyncDigests {
                from: self.site,
                ranges: narrowed,
            }));
        }
        effect
    }

    fn on_sync_runs(&mut self, runs: SyncRuns) -> SyncEffect<Doc::Op> {
        let mut effect = SyncEffect::empty();
        // Compute the echo *before* integrating, and echo only the cells the
        // peer provably lacks — absent from its list, or outranked by ours —
        // so a leaf exchange costs bytes proportional to the divergence, not
        // to the range population.
        let mine = if runs.reply {
            self.doc
                .sync_cells_absent_from(&runs.lo, &runs.hi, &runs.cells)
        } else {
            None
        };
        effect.cells_integrated = self.doc.sync_integrate(&runs.cells).unwrap_or(0);
        self.metrics
            .sync_cells_integrated
            .add(effect.cells_integrated as u64);
        if let Some((cells, count)) = mine {
            if count > 0 {
                self.metrics.sync_echo_bytes.add(cells.len() as u64);
                effect.replies.push(Envelope::SyncRuns(SyncRuns {
                    from: self.site,
                    lo: runs.lo,
                    hi: runs.hi,
                    count,
                    cells,
                    reply: false,
                }));
            }
        }
        effect
    }

    fn on_snapshot_chunk(&mut self, chunk: SnapshotChunk) -> SyncEffect<Doc::Op> {
        let mut effect = SyncEffect::empty();
        let Some(assembly) = self.bootstrap.as_mut() else {
            return effect; // chunk without an offer: drop
        };
        if chunk.from != assembly.from || chunk.total != assembly.chunks {
            return effect; // from a different transfer
        }
        assembly.received.insert(chunk.index, chunk.data);
        if (assembly.received.len() as u64) < assembly.chunks {
            return effect;
        }
        let assembly = self.bootstrap.take().expect("assembly just observed");
        let bytes: Vec<u8> = assembly.received.into_values().flatten().collect();
        if bytes.len() as u64 != assembly.total_bytes {
            return effect; // chunk indices lied about coverage
        }
        if self.doc.adopt_bootstrap(&bytes).is_some() && self.doc.digest() == assembly.digest {
            effect.bootstrapped = true;
            effect.cells_integrated = self.doc.sync_root().1 as usize;
        }
        effect
    }

    /// The donor side of the bootstrap path: the whole document encoded as
    /// a [`SnapshotOffer`] followed by its [`SnapshotChunk`]s, for a joining
    /// site to adopt (the joiner then runs a normal sync session to pick up
    /// its causal clock).
    pub fn snapshot_envelopes(&self, config: &SyncConfig) -> Vec<Envelope<Doc::Op>> {
        let bytes = self.doc.encode_bootstrap();
        let chunk_bytes = config.chunk_bytes.max(1);
        let pieces: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[]]
        } else {
            bytes.chunks(chunk_bytes).collect()
        };
        let total = pieces.len() as u64;
        let mut out = Vec::with_capacity(pieces.len() + 1);
        out.push(Envelope::SnapshotOffer(SnapshotOffer {
            from: self.site,
            digest: self.doc.digest(),
            total_bytes: bytes.len() as u64,
            chunks: total,
        }));
        for (index, piece) in pieces.into_iter().enumerate() {
            out.push(Envelope::SnapshotChunk(SnapshotChunk {
                from: self.site,
                index: index as u64,
                total,
                data: piece.to_vec(),
            }));
        }
        out
    }
}

impl<Doc: FlattenDocument> Replica<Doc> {
    /// Handles **any** envelope: operations and acknowledgements as in
    /// [`receive_envelope`](Self::receive_envelope), plus the flatten
    /// commitment messages, which may produce an immediate reply addressed
    /// to the envelope's sender. Returns `(operations applied, reply)`.
    pub fn receive_any(
        &mut self,
        envelope: Envelope<Doc::Op>,
    ) -> (usize, Option<Envelope<Doc::Op>>) {
        match envelope {
            Envelope::FlattenPropose(p) => {
                if self.journaling() {
                    let p2 = p.clone();
                    self.journal_with(|| WalRecord::Received {
                        envelope: Envelope::FlattenPropose(p2),
                    });
                }
                (0, self.on_flatten_propose(p))
            }
            Envelope::FlattenDecision(d) => {
                self.journal_with(|| WalRecord::Received {
                    envelope: Envelope::FlattenDecision(d),
                });
                self.on_flatten_decision(d)
            }
            // Votes carry no participant state: nothing to persist.
            Envelope::FlattenVote(_) => (0, None),
            other => (self.receive_envelope(other), None),
        }
    }

    /// Initiates a flatten proposal at this replica (the coordinator side):
    /// votes locally, locks itself prepared and returns the
    /// [`FlattenPropose`] to distribute (via
    /// [`FlattenCoordinator`](crate::flatten::FlattenCoordinator)). Returns
    /// `None` — counting a local abort — when this replica's own vote is No
    /// or it is already part of another proposal.
    pub fn propose_flatten(
        &mut self,
        subtree: Vec<Side>,
        protocol: CommitProtocol,
    ) -> Option<FlattenPropose> {
        // Journaled before evaluation: the whole method is deterministic in
        // the replica state, so replay re-derives the same vote, lock and
        // transaction id.
        if self.journaling() {
            let subtree2 = subtree.clone();
            self.journal_with(|| WalRecord::Proposed {
                subtree: subtree2,
                protocol,
            });
        }
        if self.flatten.prepared.is_some() {
            return None;
        }
        self.flatten.next_txn += 1;
        // Globally unique as long as site ids and per-site proposal counts
        // fit 32 bits each — far beyond what a run can produce; asserted so
        // a violation cannot silently corrupt the vote/decision dedup maps.
        debug_assert!(
            self.site.as_u64() < (1 << 32) && self.flatten.next_txn < (1 << 32),
            "transaction id packing overflow"
        );
        let txn = (self.site.as_u64() << 32) | self.flatten.next_txn;
        let proposal = FlattenProposal {
            proposer: self.site,
            subtree,
            base_revision: self.doc.base_revision(),
            txn,
        };
        self.metrics.flatten_votes_cast.inc();
        if self.doc.flatten_vote(&proposal) != Vote::Yes {
            self.metrics.flatten_aborts.inc();
            self.flatten.decided.insert(txn, false);
            return None;
        }
        self.flatten.voted.insert(txn, Vote::Yes);
        self.flatten.prepared = Some(PreparedFlatten {
            txn,
            proposal: proposal.clone(),
            pre_committed: false,
            ticks_waiting: 0,
        });
        Some(FlattenPropose {
            proposal,
            protocol,
            base_clock: self.buffer.delivered_clock().clone(),
            epoch: self.flatten.epoch,
        })
    }

    /// Advances the participant's clock one round while prepared, counting
    /// blocked time. A replica that has acknowledged a 3PC pre-commit and
    /// waited `pre_commit_timeout` ticks without hearing the decision
    /// commits unilaterally (the decision is known to be commit) — the
    /// non-blocking property 2PC lacks. Returns held-back operations applied
    /// by such a commit.
    pub fn flatten_tick(&mut self, pre_commit_timeout: u64) -> usize {
        let Some(prepared) = self.flatten.prepared.as_mut() else {
            return 0;
        };
        self.metrics.flatten_blocked_ticks.inc();
        prepared.ticks_waiting += 1;
        if prepared.pre_committed && prepared.ticks_waiting >= pre_commit_timeout {
            let txn = prepared.txn;
            // Ticks are not journaled (they are wall-clock, not input), so
            // the unilateral decision itself must be: replay re-commits from
            // this record instead of re-waiting a timeout it cannot see.
            self.journal_with(|| WalRecord::Finished {
                txn,
                committed: true,
                unilateral: true,
            });
            self.metrics.flatten_unilateral_commits.inc();
            return self.commit_prepared();
        }
        0
    }

    fn vote_reply(&self, txn: u64, vote: Vote, stage: VoteStage) -> Option<Envelope<Doc::Op>> {
        Some(Envelope::FlattenVote(FlattenVote {
            txn,
            from: self.site,
            vote,
            stage,
        }))
    }

    /// Participant half of the vote round (see the module docs of
    /// [`crate::flatten`] for the soundness argument behind the
    /// clock-equality test).
    fn on_flatten_propose(&mut self, propose: FlattenPropose) -> Option<Envelope<Doc::Op>> {
        let txn = propose.proposal.txn;
        if self.flatten.decided.contains_key(&txn) {
            // Late duplicate of a concluded transaction: re-acknowledge so a
            // coordinator that missed our ack can finish.
            return self.vote_reply(txn, Vote::Yes, VoteStage::AckDecision);
        }
        if let Some(&vote) = self.flatten.voted.get(&txn) {
            // Retransmitted proposal: repeat the recorded vote.
            return self.vote_reply(txn, vote, VoteStage::Vote);
        }
        let vote = if propose.epoch != self.flatten.epoch {
            Vote::No
        } else if self.flatten.prepared.is_some() {
            // Already locked by a concurrent proposal.
            Vote::No
        } else if self.buffer.delivered_clock() != &propose.base_clock {
            // Concurrent activity the proposer has not seen (or activity the
            // proposer saw that we have not): edits take precedence.
            Vote::No
        } else {
            // Revisions are local (sync integration advances them), so the
            // region is judged against this replica's own revision, not the
            // proposer's; clock equality above is the concurrency veto.
            self.doc.flatten_vote(&FlattenProposal {
                base_revision: self.doc.base_revision(),
                ..propose.proposal.clone()
            })
        };
        if vote == Vote::Yes {
            self.flatten.prepared = Some(PreparedFlatten {
                txn,
                proposal: propose.proposal.clone(),
                pre_committed: false,
                ticks_waiting: 0,
            });
        }
        self.flatten.voted.insert(txn, vote);
        self.metrics.flatten_votes_cast.inc();
        self.vote_reply(txn, vote, VoteStage::Vote)
    }

    /// Participant half of the pre-commit and decision rounds, idempotent
    /// under duplication and retransmission.
    fn on_flatten_decision(
        &mut self,
        decision: FlattenDecision,
    ) -> (usize, Option<Envelope<Doc::Op>>) {
        let txn = decision.txn;
        if self.flatten.decided.contains_key(&txn) {
            // Duplicate (or a decision overtaken by a unilateral commit):
            // just re-acknowledge.
            return (0, self.vote_reply(txn, Vote::Yes, VoteStage::AckDecision));
        }
        let prepared_for_txn = self.flatten.prepared.as_ref().is_some_and(|p| p.txn == txn);
        match decision.kind {
            DecisionKind::PreCommit => {
                if prepared_for_txn {
                    let prepared = self.flatten.prepared.as_mut().expect("checked above");
                    prepared.pre_committed = true;
                    prepared.ticks_waiting = 0;
                    (0, self.vote_reply(txn, Vote::Yes, VoteStage::AckPreCommit))
                } else {
                    // Pre-commit for a proposal we voted No on (or never
                    // saw): the coordinator cannot have committed it with
                    // our No vote, so this is stray traffic — ignore.
                    (0, None)
                }
            }
            DecisionKind::Commit => {
                if prepared_for_txn {
                    let applied = self.commit_prepared();
                    (
                        applied,
                        self.vote_reply(txn, Vote::Yes, VoteStage::AckDecision),
                    )
                } else {
                    debug_assert!(
                        false,
                        "commit for a transaction this replica never prepared"
                    );
                    (0, None)
                }
            }
            DecisionKind::Abort => {
                if prepared_for_txn {
                    self.flatten.prepared = None;
                }
                self.metrics.flatten_aborts.inc();
                self.flatten.decided.insert(txn, false);
                (0, self.vote_reply(txn, Vote::Yes, VoteStage::AckDecision))
            }
        }
    }
}

impl<Doc: ReplicatedDocument> Replica<Doc> {
    /// Exports the replication-level state for a snapshot (the document has
    /// its own sections).
    fn export_image(&self) -> ReplicaImage<Doc::Op> {
        ReplicaImage {
            site: self.site,
            buffer: self.buffer.export_image(),
            epoch_held: self.epoch_held.clone(),
            at_least_once: self.at_least_once.as_ref().map(|a| a.export_image()),
            flatten: self.flatten.export_image(),
            chains: self.chains.export_image(),
        }
    }

    /// Rebuilds a replica around a recovered document and image (the journal
    /// is attached separately by [`recover`](Replica::recover)).
    fn from_image(doc: Doc, image: ReplicaImage<Doc::Op>) -> Self {
        Replica {
            site: image.site,
            doc,
            buffer: CausalBuffer::from_image(image.buffer),
            at_least_once: image.at_least_once.map(AtLeastOnce::from_image),
            flatten: FlattenRole::from_image(image.flatten),
            epoch_held: image.epoch_held,
            journal: None,
            batcher: None,
            bootstrap: None,
            last_envelope: None,
            chains: OpChains::from_image(image.chains),
            metrics: ReplicaMetrics::default(),
        }
    }

    /// Hands the attached store back (e.g. to survive the death of this
    /// replica object in the simulator's crash fault). The store keeps its
    /// blobs and counters; the replica stops journaling.
    pub fn detach_store(&mut self) -> Option<DocStore> {
        self.journal.take().map(|j| j.store)
    }

    /// The attached store, for diagnostics and tests (WAL and snapshot
    /// inspection).
    pub fn store(&self) -> Option<&DocStore> {
        self.journal.as_ref().map(|j| &j.store)
    }

    /// `true` when a store is attached.
    pub fn has_store(&self) -> bool {
        self.journal.is_some()
    }
}

/// Durability: attaching a store, checkpointing and crash recovery. The
/// bounds are those of [`PersistentDocument`] plus serialisable operations;
/// they are only needed here — a replica without a store carries none of
/// this machinery.
impl<Doc> Replica<Doc>
where
    Doc: PersistentDocument + FlattenDocument,
    Doc::Op: Serialize + DeserializeOwned,
{
    /// Builds the full snapshot of this replica (document sections plus the
    /// replication image).
    fn build_snapshot(replica: &Replica<Doc>) -> Snapshot {
        let mut snapshot = Snapshot::new();
        replica.doc.encode_sections(&mut snapshot);
        snapshot.push_section(
            SECTION_REPLICA,
            persist::to_json_bytes(&replica.export_image()),
        );
        snapshot
    }

    /// Attaches a durable store: writes a baseline snapshot (so the store
    /// can always recover, even before the first WAL record) and starts
    /// journaling every subsequent event — stamped operations, received
    /// envelopes, commitment steps — *before* the replica acts on them.
    /// Committed flattens checkpoint automatically, truncating the pre-epoch
    /// WAL. Records are written in the binary format of [`crate::wire`].
    pub fn attach_store(&mut self, store: DocStore) -> Result<(), StorageError> {
        let mut journal = Journal {
            store,
            make_snapshot: Self::build_snapshot,
            replaying: false,
            chain: WalChain::new(),
        };
        journal.store.set_telemetry(&self.metrics.telemetry);
        let snapshot = Self::build_snapshot(self);
        journal.checkpoint(self.flatten.epoch, &snapshot)?;
        self.journal = Some(journal);
        Ok(())
    }

    /// Writes a checkpoint now (snapshot + WAL truncation). Called on a
    /// cadence by the simulator; committed flattens checkpoint on their own.
    /// No-op without an attached store.
    pub fn persist_checkpoint(&mut self) -> Result<(), StorageError> {
        let Some(mut journal) = self.journal.take() else {
            return Ok(());
        };
        let snapshot = (journal.make_snapshot)(self);
        let result = journal.checkpoint(self.flatten.epoch, &snapshot);
        self.journal = Some(journal);
        result
    }

    /// Rebuilds a replica from its durable store: loads the newest snapshot
    /// that passes hash verification, replays the valid WAL tail through the
    /// same handlers that processed the events live, and re-attaches the
    /// store (journaling resumes with the existing log — recovery itself
    /// writes nothing).
    ///
    /// The recovered replica rejoins with its document, vector clock,
    /// pending hold-back, epoch state and unacked send log intact; anything
    /// peers sent while it was down is recovered by the at-least-once
    /// retransmission protocol, exactly as if the messages had been lost in
    /// flight.
    pub fn recover(mut store: DocStore) -> Result<(Self, RecoveryReport), RecoverError> {
        let recovered = store.recover()?;
        let (_, snapshot) = recovered.snapshot.ok_or(RecoverError::NoSnapshot)?;
        let doc = Doc::decode_sections(&snapshot)?;
        let image: ReplicaImage<Doc::Op> =
            persist::from_json_bytes("replica section", snapshot.require(SECTION_REPLICA)?)?;
        let mut replica = Replica::from_image(doc, image);
        replica.journal = Some(Journal {
            store,
            make_snapshot: Self::build_snapshot,
            replaying: true,
            chain: WalChain::new(),
        });
        // Replay journals nothing, so the chain is decoded locally and handed
        // to the journal afterwards: it ends at the log's last op entry, and
        // the records journaled next continue it.
        let mut chain = WalChain::new();
        let mut replayed = 0usize;
        for entry in &recovered.wal {
            let record = chain
                .decode(&entry.payload)
                .map_err(|e| RecoverError::Parse(format!("WAL record: {e}")))?;
            replica.replay_record(record);
            replayed += 1;
        }
        if let Some(journal) = replica.journal.as_mut() {
            journal.replaying = false;
            journal.chain = chain;
        }
        let report = RecoveryReport {
            snapshot_hit: recovered.stats.snapshot_hit,
            snapshot_epoch: recovered.stats.snapshot_epoch,
            corrupt_snapshots_skipped: recovered.stats.corrupt_snapshots_skipped,
            wal_records_replayed: replayed,
            bytes_recovered: recovered.stats.bytes_recovered,
            torn_tail_bytes: recovered.stats.torn_tail_bytes,
        };
        Ok((replica, report))
    }

    /// Redoes one logged event through the live handlers (journaling is
    /// suppressed by the `replaying` flag while this runs).
    fn replay_record(&mut self, record: WalRecord<Doc::Op>) {
        match record {
            WalRecord::Stamped { epoch, msg } => {
                let clock = self.buffer.record_local(self.site);
                debug_assert_eq!(
                    clock, msg.clock,
                    "WAL replay must reproduce the stamped clock"
                );
                self.doc.replay_logged_local(&msg.payload);
                if let Some(alo) = self.at_least_once.as_mut() {
                    alo.send_log.insert(msg.seq(), (epoch, msg));
                }
            }
            WalRecord::Received { envelope } => {
                // Replies were already sent pre-crash; a peer that missed one
                // retransmits its request and is re-answered idempotently.
                let _ = self.receive_any(envelope);
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
        let config = SyncConfig::default();
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
                    a.receive_sync(envelope, &config)
                } else {
                    b.receive_sync(envelope, &config)
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
        let mut donor = replica(1);
        for i in 0..500 {
            let op = donor
                .doc_mut()
                .local_insert(i, char::from(b'a' + (i % 26) as u8))
                .unwrap();
            donor.stamp(op);
        }
        let op = donor.doc_mut().local_delete(123).unwrap();
        donor.stamp(op);

        let mut joiner = replica(9);
        let config = SyncConfig {
            chunk_bytes: 512, // force several chunks
            ..SyncConfig::default()
        };
        let envelopes = donor.snapshot_envelopes(&config);
        assert!(envelopes.len() > 3, "offer plus several chunks");
        let mut bootstrapped = false;
        for envelope in envelopes {
            bootstrapped |= joiner.receive_sync(envelope, &config).bootstrapped;
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
        assert_eq!(b.duplicates_discarded(), 2);
        assert_eq!(b.pending(), 0, "duplicates must not linger in pending");
        assert_eq!(b.doc().to_string(), "x");
    }

    #[test]
    fn stamp_batched_flushes_on_the_op_count_policy() {
        let mut a = replica(1);
        let mut b = replica(2);
        let metrics = metered(&mut a);
        a.enable_batching(BatchPolicy {
            max_ops: 3,
            max_bytes: usize::MAX,
        });
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
            max_bytes: 40,
        });
        let mut flushed = Vec::new();
        for k in 0..20 {
            let op = a.doc_mut().local_insert(k, 'x').unwrap();
            flushed.extend(a.stamp_batched(op));
        }
        assert!(
            flushed.len() >= 2,
            "40-byte batches must flush well before 20 ops"
        );
        assert!(
            a.pending_batch_len() < 20,
            "the byte policy kept batches small"
        );
        // The byte-split stream still delivers every op, in order.
        flushed.extend(a.flush_batch());
        let applied: usize = flushed
            .into_iter()
            .map(|env| {
                b.receive_envelope(wire::decode_envelope(&wire::encode_envelope(&env)).unwrap())
            })
            .sum();
        assert_eq!(applied, 20);
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
        a.enable_at_least_once(&[site(1), site(2)]);
        a.enable_batching(BatchPolicy {
            max_ops: 4,
            max_bytes: usize::MAX,
        });
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
        assert_eq!(b.duplicates_discarded(), 4);
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
        let again = a.unacked_for(site(2));
        assert_eq!(again.len(), 1);
        assert_eq!(count(&metrics, "replica.retransmissions"), 1);
        for m in again {
            b.receive(m);
        }
        assert_eq!(b.doc().to_string(), "x");

        // b acknowledges; a prunes its log and stops retransmitting.
        let ack = b.ack_envelope();
        assert_eq!(a.receive_envelope(ack), 0);
        assert!(!a.has_unacked());
        assert!(a.unacked_for(site(2)).is_empty());
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
        assert!(a.unacked_for(site(2)).is_empty());
        let for_c = a.unacked_for(site(3));
        assert_eq!(for_c.len(), 2);
        for m in for_c {
            c.receive(m);
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
            a.unacked_for(site(2)).is_empty(),
            "b's earlier ack must survive the re-enable (no spurious \
             retransmission of already-acked entries)"
        );
        assert_eq!(
            a.unacked_for(site(3)).len(),
            1,
            "the still-silent peer keeps its backlog"
        );
        assert_eq!(
            a.unacked_for(site(4)).len(),
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
        assert!(a.unacked_for(site(2)).is_empty());
    }

    #[test]
    fn future_epoch_ops_are_held_until_the_local_flatten_commits() {
        use crate::flatten::CommitProtocol;
        use crate::flatten::{DecisionKind, FlattenDecision};

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
        let (_, reply) = b.receive_any(Envelope::FlattenPropose(propose));
        assert!(matches!(reply, Some(Envelope::FlattenVote(_))));
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
        let (applied, reply) = b.receive_any(Envelope::FlattenDecision(FlattenDecision {
            txn,
            kind: DecisionKind::Commit,
        }));
        assert_eq!(applied, 1, "the held op is applied after the flatten");
        assert!(matches!(reply, Some(Envelope::FlattenVote(_))));
        assert_eq!(b.flatten_epoch(), 1);
        assert_eq!(b.pending(), 0);
        assert_eq!(a.doc().to_string(), "zxy");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn pre_flatten_ops_arriving_late_are_detected_and_discarded() {
        use crate::flatten::CommitProtocol;
        use crate::flatten::{DecisionKind, FlattenDecision};

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
        let (_, _) = b.receive_any(Envelope::FlattenPropose(propose));
        a.finish_flatten(txn, true);
        let _ = b.receive_any(Envelope::FlattenDecision(FlattenDecision {
            txn,
            kind: DecisionKind::Commit,
        }));

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
        use crate::flatten::FlattenVote;
        use crate::flatten::{CommitProtocol, Vote};

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
        let (_, reply) = b.receive_any(Envelope::FlattenPropose(propose));
        let Some(Envelope::FlattenVote(FlattenVote { vote, .. })) = reply else {
            panic!("expected a vote reply, got {reply:?}");
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
        let unacked = a.unacked_for(site(2)).len();

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
            a2.unacked_for(site(2)).len(),
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
        use crate::flatten::CommitProtocol;

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
        let json = String::from_utf8(persist::to_json_bytes(&a.export_image())).unwrap();
        let tallies = r#""commits":0,"aborts":1,"votes_cast":1,"unilateral_commits":0,"blocked_ticks":0,"late_epoch_ops":0,"next_txn""#;
        let old = json
            .replacen('{', r#"{"ops_sent":1,"ops_applied":0,"#, 1)
            .replacen(r#""next_txn""#, tallies, 1)
            .replacen(
                r#""peer_acked""#,
                r#""retransmissions":2,"window":null,"peer_acked""#,
                1,
            );
        assert_eq!(
            old.matches("late_epoch_ops").count() + old.matches("window").count(),
            2
        );
        let image = persist::from_json_bytes("replica section", old.as_bytes()).unwrap();
        let loaded = Replica::from_image(Doc::new(site(1)), image);
        assert_eq!(loaded.clock(), a.clock());
        assert_eq!(loaded.ops_sent(), 1);
        assert!(loaded.has_unacked());
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
        use crate::flatten::CommitProtocol;

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
        let _ = b.receive_any(Envelope::FlattenDecision(FlattenDecision {
            txn,
            kind: DecisionKind::Commit,
        }));

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
        let _ = a.unacked_for(site(3));
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
        a.record_ack(site(9), &stranger);
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
        let again = a.unacked_for(site(2));
        assert_eq!(again.len(), 4);
        for m in again {
            b.receive(m);
        }
        a.receive_envelope(b.ack_envelope());
        assert!(!a.has_unacked());
        assert_eq!(b.pending(), 0);
        assert_eq!(b.doc().to_string(), "abcde");
        assert!(b.duplicates_discarded() >= 2);
    }
}

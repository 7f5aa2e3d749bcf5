//! Distributed flatten commitment over the wire (§4.2.1).
//!
//! The paper's structural clean-up renames identifiers, so it only takes
//! effect if **every** replica agrees no concurrent edit touched the subtree
//! ("Any distributed commitment protocol from the literature will do"). This
//! module runs that agreement as **real messages** — the [`Envelope`]
//! variants `FlattenPropose`, `FlattenVote` and `FlattenDecision` — so
//! proposals contend with the drops, duplicates, reordering and partitions
//! of [`SimNetwork`](crate::network::SimNetwork).
//!
//! The pieces:
//!
//! * [`FlattenProposal`], [`Vote`], [`CommitProtocol`] and
//!   [`CommitOutcome`] — what is agreed on, how each replica answers, which
//!   protocol runs and how it ended;
//! * [`FlattenPropose`] / [`FlattenVote`] / [`FlattenDecision`] — the wire
//!   payloads. Their cost is **measured**: drivers encode each message with
//!   [`crate::wire::encode_envelope`] and count the bytes, so the protocol
//!   cost the paper leaves unevaluated is reported from real encodings;
//! * [`FlattenCoordinator`] — a round-based 2PC/3PC coordinator state
//!   machine. It owns no transport: [`tick`](FlattenCoordinator::tick)
//!   returns the messages to send this round (first transmissions and
//!   retransmissions alike) and [`on_vote`](FlattenCoordinator::on_vote)
//!   feeds replies back in, so any driver — the `treedoc-sim` scenario loop,
//!   a test, a benchmark — can pump it over a faulty network;
//! * the participant half, one per replica: it votes, locks while
//!   prepared, applies the flatten to a [`FlattenDocument`] on commit and
//!   counts the epoch every operation envelope is tagged with, so
//!   pre-flatten traffic arriving late is detected.
//!   [`Replica`](crate::Replica) drives it: it journals each step and
//!   releases the operations held back for the committed epoch.
//!
//! ## Votes under concurrency
//!
//! A participant votes [`Vote::Yes`] only when its delivered vector clock
//! **equals** the proposal's [`base_clock`](FlattenPropose::base_clock) (and
//! its document sees no hot activity in the subtree). Clock equality across
//! all replicas means every replica applied exactly the same operation set,
//! and — because an initiator always has its own operations in its clock —
//! that no operation exists anywhere that is not delivered everywhere. Any
//! pre-flatten message still in flight at commit time is therefore a
//! duplicate, which the duplicate-safe causal buffer discards.
//!
//! ## Blocking, and why 3PC exists
//!
//! A prepared participant is *locked*: it must not edit the subtree until the
//! decision arrives. Under 2PC a coordinator partition leaves participants
//! locked until the partition heals. Under 3PC a participant that has
//! acknowledged the *pre-commit* round knows the decision is commit and may
//! apply it unilaterally after a timeout
//! ([`Replica::flatten_tick`](crate::Replica::flatten_tick)) — the classic
//! non-blocking trade: more message rounds, less blocked time.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use treedoc_core::codec::{get_u8, get_varint, put_u8, put_varint};
use treedoc_core::{HasSource, Side, SiteId, Treedoc, WireAtom, WireDis};
use treedoc_telemetry::{Counter, Telemetry};

use crate::causal::CausalMessage;
use crate::clock::VectorClock;
use crate::replica::ReplicatedDocument;
use crate::wire::{self, Envelope};

/// A vote on a flatten proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// No conflicting activity observed: the flatten may proceed.
    Yes,
    /// A concurrent edit (or another flatten) touched the subtree: abort.
    No,
}

/// Which commitment protocol a distributed flatten runs under ("any
/// distributed commitment protocol from the literature will do", §4.2.1).
/// The two classic choices trade message cost against blocking behaviour:
/// 2PC blocks prepared participants while the coordinator is unreachable,
/// 3PC adds a pre-commit round that lets them terminate on their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitProtocol {
    /// Classic two-phase commit: vote, then decide.
    TwoPhase,
    /// Three-phase commit: vote, pre-commit, then decide (non-blocking).
    ThreePhase,
}

impl CommitProtocol {
    /// Short label used in reports and benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            CommitProtocol::TwoPhase => "2pc",
            CommitProtocol::ThreePhase => "3pc",
        }
    }
}

/// A proposed structural clean-up: flatten the subtree rooted at `subtree`
/// provided no replica has observed an edit in it after `base_revision`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlattenProposal {
    /// Identifier of the proposing site.
    pub proposer: SiteId,
    /// Plain bit path of the subtree to compact (empty = whole document).
    pub subtree: Vec<Side>,
    /// The revision the proposer observed when selecting the subtree as
    /// cold; a participant votes [`Vote::No`] if its replica has seen any
    /// activity in the subtree after this revision.
    pub base_revision: u64,
    /// Transaction identifier (unique per proposal).
    pub txn: u64,
}

/// Result of a commitment round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every participant voted "Yes": the flatten was applied everywhere.
    Committed,
    /// At least one participant voted "No", or some participant never
    /// answered before the vote timeout: nothing changed anywhere.
    Aborted {
        /// How many participants voted "No"; 0 when the round aborted
        /// because votes were missing at the vote timeout.
        no_votes: usize,
    },
}

/// Coordinator → participant: a vote request for a flatten proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlattenPropose {
    /// What is being agreed on (subtree, base revision, transaction id).
    pub proposal: FlattenProposal,
    /// Which protocol the coordinator is running (2PC or 3PC).
    pub protocol: CommitProtocol,
    /// The coordinator's delivered clock at proposal time; a participant
    /// votes Yes only if its own clock equals it (see the module docs).
    pub base_clock: VectorClock,
    /// The coordinator's flatten epoch; proposals from another epoch are
    /// rejected.
    pub epoch: u64,
}

/// Which coordinator request a [`FlattenVote`] answers. Votes are
/// deduplicated per `(txn, from, stage)`, so retransmitted requests are
/// answered idempotently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteStage {
    /// Answer to the propose/vote round.
    Vote,
    /// Acknowledgement of a 3PC pre-commit.
    AckPreCommit,
    /// Acknowledgement of the final commit/abort decision.
    AckDecision,
}

/// Participant → coordinator: a vote or a phase acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlattenVote {
    /// Transaction this vote belongs to.
    pub txn: u64,
    /// The voting site.
    pub from: SiteId,
    /// Yes/No (always Yes for acknowledgements).
    pub vote: Vote,
    /// Which request this message answers.
    pub stage: VoteStage,
}

/// The decision (or 3PC pre-decision) a coordinator distributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// 3PC only: every vote was Yes; participants acknowledge and may
    /// terminate with a commit if the coordinator goes silent afterwards.
    PreCommit,
    /// Apply the flatten.
    Commit,
    /// Discard the prepared state; nothing changes anywhere.
    Abort,
}

/// Coordinator → participant: a (pre-)decision for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlattenDecision {
    /// Transaction this decision concludes.
    pub txn: u64,
    /// Pre-commit, commit or abort.
    pub kind: DecisionKind,
}

/// Message accounting of one coordinator run, measured in actual sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Protocol messages the coordinator handed to the transport
    /// (retransmissions included). Byte costs are the driver's to measure:
    /// it owns the encoding of what [`FlattenCoordinator::tick`] returns
    /// (the simulator counts `encode_envelope(..).len()` per send).
    pub messages_sent: u64,
    /// Votes and acknowledgements received (duplicates excluded).
    pub replies_received: u64,
    /// Ticks from start until the outcome was final.
    pub rounds: u64,
}

/// Internal coordinator phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Collecting votes (retransmitting the proposal to silent voters).
    Voting,
    /// 3PC only: distributing pre-commits and collecting their acks.
    PreCommitting,
    /// Distributing the final decision until acknowledged (or timed out).
    Deciding(bool),
    /// Finished.
    Done,
}

/// How many ticks the coordinator waits for missing votes before aborting
/// (each tick retransmits the proposal to silent participants first).
pub const DEFAULT_VOTE_TIMEOUT: u64 = 60;
/// How many ticks the coordinator keeps retransmitting a decision before
/// declaring the run finished even without every acknowledgement. A
/// participant whose decision copies were *all* lost within this window
/// stays prepared; the driver must surface that as non-convergence (the
/// simulator does) — with per-message loss < 1 and ~one retransmission per
/// tick, the window makes that probability negligible.
pub const DEFAULT_DECISION_TIMEOUT: u64 = 120;

/// A round-based 2PC/3PC coordinator for one flatten proposal, transport
/// agnostic: the driver forwards inbound [`FlattenVote`]s via
/// [`on_vote`](Self::on_vote) and sends whatever [`tick`](Self::tick)
/// returns. Retransmission is built in — every tick re-sends the current
/// phase's request to participants that have not answered it, so the
/// protocol survives drops, duplicates and reordering on its own.
#[derive(Debug)]
pub struct FlattenCoordinator {
    propose: FlattenPropose,
    participants: Vec<SiteId>,
    votes: BTreeMap<SiteId, Vote>,
    pre_acks: BTreeSet<SiteId>,
    decision_acks: BTreeSet<SiteId>,
    phase: Phase,
    ticks_in_phase: u64,
    vote_timeout: u64,
    decision_timeout: u64,
    outcome: Option<CommitOutcome>,
    stats: CoordinatorStats,
}

impl FlattenCoordinator {
    /// Starts a coordinator for `propose` addressed to `participants` (the
    /// coordinator's own site must not be listed — it votes locally through
    /// its [`Replica`](crate::Replica)). No message is sent until the first
    /// [`tick`](Self::tick).
    pub fn new(propose: FlattenPropose, participants: Vec<SiteId>) -> Self {
        assert!(
            !participants.contains(&propose.proposal.proposer),
            "the coordinator does not message itself"
        );
        FlattenCoordinator {
            propose,
            participants,
            votes: BTreeMap::new(),
            pre_acks: BTreeSet::new(),
            decision_acks: BTreeSet::new(),
            phase: Phase::Voting,
            ticks_in_phase: 0,
            vote_timeout: DEFAULT_VOTE_TIMEOUT,
            decision_timeout: DEFAULT_DECISION_TIMEOUT,
            outcome: None,
            stats: CoordinatorStats::default(),
        }
    }

    /// Overrides the vote-collection timeout (in ticks).
    pub fn with_vote_timeout(mut self, ticks: u64) -> Self {
        self.vote_timeout = ticks;
        self
    }

    /// The transaction this coordinator is driving.
    pub fn txn(&self) -> u64 {
        self.propose.proposal.txn
    }

    /// The protocol being run.
    pub fn protocol(&self) -> CommitProtocol {
        self.propose.protocol
    }

    /// The outcome, once decided (the coordinator may still be
    /// retransmitting the decision — see [`is_done`](Self::is_done)).
    pub fn outcome(&self) -> Option<CommitOutcome> {
        self.outcome
    }

    /// `true` once the decision is acknowledged by every participant (or the
    /// decision retransmission window closed): no further ticks send
    /// anything.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Message accounting so far.
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// `true` when every remote vote is in and Yes (2PC), or every
    /// pre-commit is acknowledged (3PC): the next tick distributes the
    /// commit decision. Used by tests to cut a partition at the most
    /// interesting instant.
    pub fn ready_to_commit(&self) -> bool {
        match self.phase {
            Phase::Voting => {
                self.propose.protocol == CommitProtocol::TwoPhase && self.all_votes_yes()
            }
            Phase::PreCommitting => self.pre_acks.len() == self.participants.len(),
            _ => false,
        }
    }

    fn all_votes_yes(&self) -> bool {
        self.votes.len() == self.participants.len() && self.votes.values().all(|&v| v == Vote::Yes)
    }

    fn no_votes(&self) -> usize {
        self.votes.values().filter(|&&v| v == Vote::No).count()
    }

    /// Records an inbound vote or acknowledgement. Duplicates (network
    /// duplication, re-answers to retransmitted requests) are ignored.
    pub fn on_vote(&mut self, vote: FlattenVote) {
        if vote.txn != self.txn() || self.phase == Phase::Done {
            return;
        }
        let fresh = match vote.stage {
            VoteStage::Vote => self.votes.insert(vote.from, vote.vote).is_none(),
            VoteStage::AckPreCommit => self.pre_acks.insert(vote.from),
            VoteStage::AckDecision => self.decision_acks.insert(vote.from),
        };
        if fresh {
            self.stats.replies_received += 1;
        }
    }

    /// Advances the protocol one round and returns the messages to send:
    /// first transmissions when a phase begins, retransmissions to
    /// participants that have not answered yet. Returns an empty vector once
    /// [`outcome`](Self::outcome) is final.
    pub fn tick<Op>(&mut self) -> Vec<(SiteId, Envelope<Op>)> {
        if self.phase == Phase::Done {
            return Vec::new();
        }
        self.stats.rounds += 1;
        self.advance();
        let mut out = Vec::new();
        match self.phase {
            Phase::Voting => {
                for &p in &self.participants {
                    if !self.votes.contains_key(&p) {
                        out.push((p, Envelope::FlattenPropose(self.propose.clone())));
                    }
                }
            }
            Phase::PreCommitting => {
                let msg = FlattenDecision {
                    txn: self.txn(),
                    kind: DecisionKind::PreCommit,
                };
                for &p in &self.participants {
                    if !self.pre_acks.contains(&p) {
                        out.push((p, Envelope::FlattenDecision(msg)));
                    }
                }
            }
            Phase::Deciding(commit) => {
                let msg = FlattenDecision {
                    txn: self.txn(),
                    kind: if commit {
                        DecisionKind::Commit
                    } else {
                        DecisionKind::Abort
                    },
                };
                for &p in &self.participants {
                    if !self.decision_acks.contains(&p) {
                        out.push((p, Envelope::FlattenDecision(msg)));
                    }
                }
            }
            Phase::Done => {}
        }
        self.ticks_in_phase += 1;
        self.stats.messages_sent += out.len() as u64;
        out
    }

    /// Phase transitions, evaluated before each round's sends.
    fn advance(&mut self) {
        match self.phase {
            Phase::Voting => {
                if self.no_votes() > 0 {
                    self.enter_decision(false);
                } else if self.votes.len() == self.participants.len() {
                    match self.propose.protocol {
                        CommitProtocol::TwoPhase => self.enter_decision(true),
                        CommitProtocol::ThreePhase => {
                            self.phase = Phase::PreCommitting;
                            self.ticks_in_phase = 0;
                        }
                    }
                } else if self.ticks_in_phase >= self.vote_timeout {
                    // Some participant never answered (its vote — or our
                    // proposal — kept being lost, or it is partitioned away):
                    // abort cleanly instead of blocking forever.
                    self.enter_decision(false);
                }
            }
            Phase::PreCommitting => {
                if self.pre_acks.len() == self.participants.len() {
                    self.enter_decision(true);
                } else if self.ticks_in_phase >= self.decision_timeout {
                    // Every vote was Yes, so the decision is morally commit;
                    // participants that missed the pre-commit handle a direct
                    // commit just as well.
                    self.enter_decision(true);
                }
            }
            Phase::Deciding(_) => {
                if self.decision_acks.len() == self.participants.len()
                    || self.ticks_in_phase >= self.decision_timeout
                {
                    self.phase = Phase::Done;
                }
            }
            Phase::Done => {}
        }
    }

    fn enter_decision(&mut self, commit: bool) {
        self.phase = Phase::Deciding(commit);
        self.ticks_in_phase = 0;
        self.outcome = Some(if commit {
            CommitOutcome::Committed
        } else {
            CommitOutcome::Aborted {
                no_votes: self.no_votes(),
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The participant
// ---------------------------------------------------------------------------

/// A document that can take part in distributed flatten commitment: it can
/// vote on a proposal and apply a committed one. Implemented for
/// [`Treedoc`]; the clock-equality half of the vote is the participant's.
pub trait FlattenDocument: ReplicatedDocument {
    /// Votes on the proposal from the document's point of view: No when the
    /// subtree is missing or has activity after the proposal's base
    /// revision.
    ///
    /// Note that revisions are **local bookkeeping** (operation delivery
    /// never advances them, sync integration does), so a participant asks
    /// this with its *own* [`base_revision`](Self::base_revision) in place
    /// of the proposer's: in distributed runs the guard rejects missing
    /// subtrees, and the concurrency veto is the clock-equality test.
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

/// The participant's `flatten.*` counters.
#[derive(Debug, Clone, Default)]
struct FlattenMetrics {
    commits: Counter,
    aborts: Counter,
    votes_cast: Counter,
    unilateral_commits: Counter,
    blocked_ticks: Counter,
    late_epoch_ops: Counter,
}

/// A proposal this replica has voted Yes on: the replica is locked (no
/// edits in the subtree) until the decision arrives.
#[derive(Debug, Clone)]
struct PreparedFlatten {
    proposal: FlattenProposal,
    /// 3PC only: the pre-commit round was acknowledged, so the decision is
    /// known to be commit and the replica may terminate unilaterally.
    pre_committed: bool,
    /// Ticks spent waiting since preparing (reset by the pre-commit).
    ticks_waiting: u64,
}

/// The participant half of the protocol, one per replica: the flatten
/// epoch, the votes and decisions that make its answers idempotent, and the
/// prepared lock. It counts into `flatten.*`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlattenRole {
    /// Number of flattens committed at this replica so far; every operation
    /// envelope is tagged with the epoch it was stamped in.
    epoch: u64,
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
    /// The proposal this replica has voted Yes on and not yet seen decided.
    prepared: Option<PreparedFlatten>,
    metrics: FlattenMetrics,
}

impl FlattenRole {
    /// Counts into `telemetry`'s `flatten.*` counters.
    pub(crate) fn bind(&mut self, telemetry: &Telemetry) {
        self.metrics = FlattenMetrics {
            commits: telemetry.counter("flatten.commits"),
            aborts: telemetry.counter("flatten.aborts"),
            votes_cast: telemetry.counter("flatten.votes_cast"),
            unilateral_commits: telemetry.counter("flatten.unilateral_commits"),
            blocked_ticks: telemetry.counter("flatten.blocked_ticks"),
            late_epoch_ops: telemetry.counter("flatten.late_epoch_ops"),
        };
    }

    /// Number of flattens committed here.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` while a proposal holds the prepared lock.
    pub(crate) fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// `true` while `txn` holds the prepared lock.
    pub(crate) fn is_prepared_for(&self, txn: u64) -> bool {
        self.prepared
            .as_ref()
            .is_some_and(|p| p.proposal.txn == txn)
    }

    /// Counts an operation stamped in `epoch` as late pre-flatten traffic
    /// when that epoch is older than this replica's.
    pub(crate) fn note_op_epoch(&self, epoch: u64) {
        if epoch < self.epoch {
            self.metrics.late_epoch_ops.inc();
        }
    }

    /// The coordinator side: votes locally on flattening `subtree` of
    /// `doc`, locks prepared and returns the proposal to distribute with
    /// `site`'s delivered clock. `None` — counting a local abort — when the
    /// local vote is No or another proposal holds the lock.
    pub(crate) fn propose<Doc: FlattenDocument>(
        &mut self,
        site: SiteId,
        doc: &Doc,
        subtree: Vec<Side>,
        protocol: CommitProtocol,
        delivered: &VectorClock,
    ) -> Option<FlattenPropose> {
        if self.prepared.is_some() {
            return None;
        }
        self.next_txn += 1;
        // Globally unique as long as site ids and per-site proposal counts
        // fit 32 bits each — far beyond what a run can produce; asserted so
        // a violation cannot silently corrupt the vote/decision dedup maps.
        debug_assert!(
            site.as_u64() < (1 << 32) && self.next_txn < (1 << 32),
            "transaction id packing overflow"
        );
        let txn = (site.as_u64() << 32) | self.next_txn;
        let proposal = FlattenProposal {
            proposer: site,
            subtree,
            base_revision: doc.base_revision(),
            txn,
        };
        self.metrics.votes_cast.inc();
        if doc.flatten_vote(&proposal) != Vote::Yes {
            self.metrics.aborts.inc();
            self.decided.insert(txn, false);
            return None;
        }
        self.voted.insert(txn, Vote::Yes);
        self.prepare(&proposal);
        Some(FlattenPropose {
            proposal,
            protocol,
            base_clock: delivered.clone(),
            epoch: self.epoch,
        })
    }

    fn prepare(&mut self, proposal: &FlattenProposal) {
        self.prepared = Some(PreparedFlatten {
            proposal: proposal.clone(),
            pre_committed: false,
            ticks_waiting: 0,
        });
    }

    /// The vote round: `site`'s answer to `propose`, given its document and
    /// delivered clock (see the module docs for the soundness argument
    /// behind the clock-equality test).
    pub(crate) fn vote<Doc: FlattenDocument>(
        &mut self,
        site: SiteId,
        doc: &Doc,
        propose: FlattenPropose,
        delivered: &VectorClock,
    ) -> FlattenVote {
        let txn = propose.proposal.txn;
        let reply = |vote, stage| FlattenVote {
            txn,
            from: site,
            vote,
            stage,
        };
        if self.decided.contains_key(&txn) {
            // Late duplicate of a concluded transaction: re-acknowledge so a
            // coordinator that missed our ack can finish.
            return reply(Vote::Yes, VoteStage::AckDecision);
        }
        if let Some(&vote) = self.voted.get(&txn) {
            // Retransmitted proposal: repeat the recorded vote.
            return reply(vote, VoteStage::Vote);
        }
        let vote = if propose.epoch != self.epoch || self.prepared.is_some() {
            // Another epoch, or already locked by a concurrent proposal.
            Vote::No
        } else if delivered != &propose.base_clock {
            // Concurrent activity the proposer has not seen (or activity the
            // proposer saw that we have not): edits take precedence.
            Vote::No
        } else {
            // Revisions are local (sync integration advances them), so the
            // region is judged against this replica's own revision, not the
            // proposer's; clock equality above is the concurrency veto.
            doc.flatten_vote(&FlattenProposal {
                base_revision: doc.base_revision(),
                ..propose.proposal.clone()
            })
        };
        if vote == Vote::Yes {
            self.prepare(&propose.proposal);
        }
        self.voted.insert(txn, vote);
        self.metrics.votes_cast.inc();
        reply(vote, VoteStage::Vote)
    }

    /// The pre-commit and decision rounds, idempotent under duplication and
    /// retransmission: whether the prepared flatten commits now (the caller
    /// then runs [`commit`](Self::commit)) and the acknowledgement to send.
    pub(crate) fn on_decision(
        &mut self,
        site: SiteId,
        decision: FlattenDecision,
    ) -> (bool, Option<FlattenVote>) {
        let txn = decision.txn;
        let ack = |stage| {
            Some(FlattenVote {
                txn,
                from: site,
                vote: Vote::Yes,
                stage,
            })
        };
        if self.decided.contains_key(&txn) {
            // Duplicate (or a decision overtaken by a unilateral commit):
            // just re-acknowledge.
            return (false, ack(VoteStage::AckDecision));
        }
        let prepared = self.prepared.as_mut().filter(|p| p.proposal.txn == txn);
        match (decision.kind, prepared) {
            (DecisionKind::PreCommit, Some(prepared)) => {
                prepared.pre_committed = true;
                prepared.ticks_waiting = 0;
                (false, ack(VoteStage::AckPreCommit))
            }
            (DecisionKind::Commit, Some(_)) => (true, ack(VoteStage::AckDecision)),
            (DecisionKind::Abort, _) => {
                self.abort(txn);
                (false, ack(VoteStage::AckDecision))
            }
            // A pre-commit for a proposal we voted No on (or never saw): the
            // coordinator cannot have committed it with our No vote, so this
            // is stray traffic — ignore it.
            (DecisionKind::PreCommit, None) => (false, None),
            (DecisionKind::Commit, None) => {
                debug_assert!(
                    false,
                    "commit for a transaction this replica never prepared"
                );
                (false, None)
            }
        }
    }

    /// One round while prepared, counting blocked time. Returns the
    /// transaction to commit unilaterally once a pre-committed 3PC
    /// participant has waited `pre_commit_timeout` ticks (see the module
    /// docs).
    pub(crate) fn tick(&mut self, pre_commit_timeout: u64) -> Option<u64> {
        let prepared = self.prepared.as_mut()?;
        self.metrics.blocked_ticks.inc();
        prepared.ticks_waiting += 1;
        if !(prepared.pre_committed && prepared.ticks_waiting >= pre_commit_timeout) {
            return None;
        }
        self.metrics.unilateral_commits.inc();
        Some(prepared.proposal.txn)
    }

    /// Concludes `txn` as aborted, releasing the lock if it holds it.
    pub(crate) fn abort(&mut self, txn: u64) {
        if self.is_prepared_for(txn) {
            self.prepared = None;
        }
        self.metrics.aborts.inc();
        self.decided.insert(txn, false);
    }

    /// Commit and drain: applies the prepared flatten to `doc`, enters the
    /// next epoch and takes the operations `held` back for it out of the
    /// hold-back, in arrival order, for the caller to deliver. `None` when
    /// nothing is prepared.
    pub(crate) fn commit<Doc: FlattenDocument>(
        &mut self,
        doc: &mut Doc,
        held: &mut Vec<(u64, CausalMessage<Doc::Op>)>,
    ) -> Option<Vec<CausalMessage<Doc::Op>>> {
        let prepared = self.prepared.take()?;
        doc.apply_flatten(&prepared.proposal);
        self.epoch += 1;
        self.metrics.commits.inc();
        self.decided.insert(prepared.proposal.txn, true);
        let epoch = self.epoch;
        let (ready, still_held) = std::mem::take(held)
            .into_iter()
            .partition(|(e, _)| *e <= epoch);
        *held = still_held;
        Some(ready.into_iter().map(|(_, msg)| msg).collect())
    }

    /// Appends the participant's part of a replica's snapshot section: the
    /// epoch, the votes cast and the concluded transactions (each a count of
    /// `(txn, byte)` pairs), the transaction counter and the prepared lock:
    /// 0 for none, else 1 or (pre-committed) 2, the proposal as an
    /// [`Envelope::FlattenPropose`] body opens, and the ticks waited.
    pub(crate) fn encode_image(&self, out: &mut Vec<u8>) {
        put_varint(out, self.epoch);
        put_txn_bytes(out, &self.voted, |&vote| wire::vote_byte(vote));
        put_txn_bytes(out, &self.decided, |&committed| u8::from(committed));
        put_varint(out, self.next_txn);
        let Some(prepared) = &self.prepared else {
            put_u8(out, 0);
            return;
        };
        put_u8(out, 1 + u8::from(prepared.pre_committed));
        wire::put_proposal(out, &prepared.proposal);
        put_varint(out, prepared.ticks_waiting);
    }

    /// Reads what [`encode_image`](Self::encode_image) wrote.
    pub(crate) fn decode_image(input: &mut &[u8]) -> Option<Self> {
        Some(FlattenRole {
            epoch: get_varint(input)?,
            voted: get_txn_bytes(input, wire::vote_from)?,
            decided: get_txn_bytes(input, |byte| (byte <= 1).then_some(byte == 1))?,
            next_txn: get_varint(input)?,
            prepared: match get_u8(input)? {
                0 => None,
                flag @ 1..=2 => Some(PreparedFlatten {
                    proposal: wire::get_proposal(input)?,
                    pre_committed: flag == 2,
                    ticks_waiting: get_varint(input)?,
                }),
                _ => return None,
            },
            metrics: FlattenMetrics::default(),
        })
    }
}

/// Appends a count and `map`'s `(txn, byte(value))` pairs.
fn put_txn_bytes<T>(out: &mut Vec<u8>, map: &BTreeMap<u64, T>, byte: impl Fn(&T) -> u8) {
    put_varint(out, map.len() as u64);
    for (&txn, value) in map {
        put_varint(out, txn);
        put_u8(out, byte(value));
    }
}

/// Reads what [`put_txn_bytes`] wrote, `value` mapping each byte back.
fn get_txn_bytes<T>(input: &mut &[u8], value: fn(u8) -> Option<T>) -> Option<BTreeMap<u64, T>> {
    let mut map = BTreeMap::new();
    for _ in 0..get_varint(input)? {
        map.insert(get_varint(input)?, value(get_u8(input)?)?);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn propose(protocol: CommitProtocol) -> FlattenPropose {
        FlattenPropose {
            proposal: FlattenProposal {
                proposer: site(1),
                subtree: Vec::new(),
                base_revision: 0,
                txn: 7,
            },
            protocol,
            base_clock: VectorClock::new(),
            epoch: 0,
        }
    }

    fn vote(from: SiteId, v: Vote, stage: VoteStage) -> FlattenVote {
        FlattenVote {
            txn: 7,
            from,
            vote: v,
            stage,
        }
    }

    #[test]
    fn two_phase_commits_after_all_yes_votes() {
        let mut c =
            FlattenCoordinator::new(propose(CommitProtocol::TwoPhase), vec![site(2), site(3)]);
        let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert_eq!(out.len(), 2, "propose goes to both participants");
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::Vote));
        c.on_vote(vote(site(3), Vote::Yes, VoteStage::Vote));
        assert!(c.ready_to_commit());
        let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert!(out.iter().all(|(_, e)| matches!(
            e,
            Envelope::FlattenDecision(FlattenDecision {
                kind: DecisionKind::Commit,
                ..
            })
        )));
        assert_eq!(c.outcome(), Some(CommitOutcome::Committed));
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::AckDecision));
        c.on_vote(vote(site(3), Vote::Yes, VoteStage::AckDecision));
        let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert!(out.is_empty(), "all acks in: the coordinator is done");
    }

    #[test]
    fn a_single_no_vote_aborts() {
        let mut c =
            FlattenCoordinator::new(propose(CommitProtocol::TwoPhase), vec![site(2), site(3)]);
        let _: Vec<(SiteId, Envelope<u32>)> = c.tick();
        c.on_vote(vote(site(2), Vote::No, VoteStage::Vote));
        let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert_eq!(c.outcome(), Some(CommitOutcome::Aborted { no_votes: 1 }));
        // The abort goes to everyone, including the Yes/silent voters.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn missing_votes_abort_after_the_timeout_instead_of_hanging() {
        let mut c =
            FlattenCoordinator::new(propose(CommitProtocol::TwoPhase), vec![site(2), site(3)])
                .with_vote_timeout(5);
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::Vote));
        let mut proposed = 0;
        for _ in 0..6 {
            let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
            proposed += out
                .iter()
                .filter(|(_, e)| matches!(e, Envelope::FlattenPropose(_)))
                .count();
        }
        assert!(proposed >= 5, "silent voters are re-asked every tick");
        // Nobody vetoed: the abort is the timeout's, and says so.
        assert_eq!(c.outcome(), Some(CommitOutcome::Aborted { no_votes: 0 }));
    }

    #[test]
    fn three_phase_inserts_the_pre_commit_round() {
        let mut c =
            FlattenCoordinator::new(propose(CommitProtocol::ThreePhase), vec![site(2), site(3)]);
        let _: Vec<(SiteId, Envelope<u32>)> = c.tick();
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::Vote));
        c.on_vote(vote(site(3), Vote::Yes, VoteStage::Vote));
        assert!(!c.ready_to_commit(), "3PC must pre-commit first");
        let out: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert!(out.iter().all(|(_, e)| matches!(
            e,
            Envelope::FlattenDecision(FlattenDecision {
                kind: DecisionKind::PreCommit,
                ..
            })
        )));
        assert_eq!(c.outcome(), None, "no decision before the acks");
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::AckPreCommit));
        c.on_vote(vote(site(3), Vote::Yes, VoteStage::AckPreCommit));
        assert!(c.ready_to_commit());
        let _: Vec<(SiteId, Envelope<u32>)> = c.tick();
        assert_eq!(c.outcome(), Some(CommitOutcome::Committed));
    }

    #[test]
    fn duplicate_votes_are_counted_once() {
        let mut c = FlattenCoordinator::new(propose(CommitProtocol::TwoPhase), vec![site(2)]);
        let _: Vec<(SiteId, Envelope<u32>)> = c.tick();
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::Vote));
        c.on_vote(vote(site(2), Vote::Yes, VoteStage::Vote));
        assert_eq!(c.stats().replies_received, 1);
    }

    #[test]
    fn encoded_wire_sizes_order_propose_above_vote_above_decision() {
        use treedoc_core::{Op, Sdis};
        type Env = Envelope<Op<String, Sdis>>;
        let p = crate::wire::encode_envelope::<Op<String, Sdis>>(&Env::FlattenPropose(propose(
            CommitProtocol::TwoPhase,
        )));
        let v = crate::wire::encode_envelope::<Op<String, Sdis>>(&Env::FlattenVote(vote(
            site(2),
            Vote::Yes,
            VoteStage::Vote,
        )));
        let d = crate::wire::encode_envelope::<Op<String, Sdis>>(&Env::FlattenDecision(
            FlattenDecision {
                txn: 7,
                kind: DecisionKind::Commit,
            },
        ));
        assert!(p.len() > v.len());
        assert!(v.len() > d.len());
    }
}

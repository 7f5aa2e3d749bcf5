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
//! * the participant half lives on [`Replica`](crate::Replica), which votes,
//!   locks while prepared, applies the flatten on commit and tags an epoch on
//!   every operation envelope so pre-flatten traffic arriving late is
//!   detected.
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

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use treedoc_core::{Side, SiteId};

use crate::clock::VectorClock;
use crate::replica::Envelope;

/// A vote on a flatten proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitOutcome {
    /// Every participant voted "Yes": the flatten was applied everywhere.
    Committed,
    /// At least one participant voted "No" (or never answered): nothing
    /// changed anywhere.
    Aborted {
        /// How many participants voted "No".
        no_votes: usize,
    },
}

/// Coordinator → participant: a vote request for a flatten proposal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VoteStage {
    /// Answer to the propose/vote round.
    Vote,
    /// Acknowledgement of a 3PC pre-commit.
    AckPreCommit,
    /// Acknowledgement of the final commit/abort decision.
    AckDecision,
}

/// Participant → coordinator: a vote or a phase acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlattenDecision {
    /// Transaction this decision concludes.
    pub txn: u64,
    /// Pre-commit, commit or abort.
    pub kind: DecisionKind,
}

/// Message accounting of one coordinator run, measured in actual sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
                no_votes: self.no_votes().max(1),
            }
        });
    }
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
        assert!(matches!(c.outcome(), Some(CommitOutcome::Aborted { .. })));
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

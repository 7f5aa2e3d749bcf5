//! The blocked-2PC versus non-blocking-3PC demonstration.
//!
//! The paper defers the cost of a distributed flatten; the classically
//! *interesting* cell of that cost is a coordinator partition at the worst
//! instant — after every participant has promised to commit, before the
//! decision reaches anyone. Under 2PC the participants are stuck holding
//! their locks until the partition heals; under 3PC the acknowledged
//! pre-commit round lets them terminate unilaterally and keep editing.
//!
//! [`partitioned_commit_demo`] scripts exactly that schedule,
//! deterministically: quiesce, propose, pump the protocol to the brink of
//! the decision, cut the coordinator off, count who makes progress, heal,
//! and verify that both protocols end convergent and committed. It runs over
//! the same wire-level session as [`run`](crate::run), so every proposal,
//! vote and decision crosses the binary codec, and `protocol_bytes` are the
//! encoded sizes of what was sent.

use serde::{Deserialize, Serialize};

use treedoc_replication::{CommitOutcome, CommitProtocol, FlattenCoordinator, LinkConfig};
use treedoc_telemetry::Telemetry;

use crate::session::{Doc, Session, PRE_COMMIT_TIMEOUT_TICKS};

/// What the scripted coordinator-partition run measured. The counts are
/// the run's registry counters: `flatten.unilateral_commits`,
/// `flatten.blocked_ticks`, `sim.protocol_messages`, `sim.protocol_bytes`
/// and `sim.commit_rounds`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionedCommitReport {
    /// Protocol under test.
    pub protocol: CommitProtocol,
    /// Number of replicas (coordinator included).
    pub sites: usize,
    /// Participants that applied the flatten **while the coordinator was
    /// partitioned away** — 0 under 2PC (blocked), all of them under 3PC.
    pub committed_during_partition: usize,
    /// Commits applied by the 3PC unilateral termination rule.
    pub unilateral_commits: u64,
    /// Ticks participants spent locked in the prepared state.
    pub blocked_ticks: u64,
    /// Commitment messages that crossed the network (retransmissions
    /// included).
    pub protocol_messages: u64,
    /// Encoded bytes of that traffic (measured with the binary wire codec,
    /// not estimated).
    pub protocol_bytes: usize,
    /// Coordinator protocol rounds until the outcome was acknowledged.
    pub commit_rounds: u64,
    /// Whether every replica ended with identical content, the flatten
    /// applied everywhere (equal epochs) and no lock left behind.
    pub converged: bool,
}

/// Runs the scripted coordinator-partition schedule (see the module docs)
/// with `sites` replicas and returns what happened. Panics if the protocol
/// wedges — the run is deterministic, so a panic is a bug, not bad luck.
pub fn partitioned_commit_demo(
    protocol: CommitProtocol,
    sites: usize,
    seed: u64,
) -> PartitionedCommitReport {
    assert!(sites >= 2, "a commitment needs at least two replicas");
    let link = LinkConfig::fixed(5);
    let mut session = Session::new(&Telemetry::disabled(), sites, link, seed, |_, s| {
        Doc::new(s)
    });

    // 1. Build convergent, quiescent replicas: everyone edits, everything is
    //    delivered (fault-free fixed-latency links), so all clocks are equal.
    for i in 0..sites {
        for k in 0..6 {
            let doc = session.replicas[i].doc_mut();
            let text = format!("site{} line{}", i + 1, k);
            let op = doc.local_insert(doc.len().min(k), text);
            session.stamp(i, op.expect("index in range"));
        }
    }
    session.drain();

    // 2. The first site proposes a whole-document flatten.
    session.propose_flatten(protocol);
    assert!(
        session.coordinator().is_some(),
        "a quiescent coordinator votes Yes on its own proposal"
    );

    // 3. Pump the protocol to the brink of the decision: all votes in (2PC)
    //    or all pre-commit acks in (3PC), commit messages not yet sent.
    let mut guard = 0;
    while !session
        .coordinator()
        .is_some_and(FlattenCoordinator::ready_to_commit)
    {
        session.pump_coordinator();
        session.drain();
        guard += 1;
        assert!(guard < 100, "protocol never reached the decision point");
    }

    // 4. Partition the coordinator from everyone, then let it take the
    //    decision: the commit messages are cut off by the partition. The
    //    coordinator's own replica applies the decision at once.
    session.partition_first_site(true);
    session.pump_coordinator();
    assert_eq!(
        session.coordinator().and_then(FlattenCoordinator::outcome),
        Some(CommitOutcome::Committed),
        "every vote was Yes"
    );

    // 5. Life under the partition: participants tick. 2PC participants stay
    //    locked; 3PC participants hit the pre-commit timeout and terminate.
    for _ in 0..PRE_COMMIT_TIMEOUT_TICKS + 5 {
        for r in &mut session.replicas[1..] {
            let _ = r.flatten_tick(PRE_COMMIT_TIMEOUT_TICKS);
        }
    }
    let committed_during_partition = session.replicas[1..]
        .iter()
        .filter(|r| r.flatten_epoch() > 0)
        .count();

    // 6. Heal and finish: the held decision arrives, stragglers commit,
    //    acknowledgements flow back until the coordinator retires.
    session.partition_first_site(false);
    let mut guard = 0;
    while session.coordinator().is_some() {
        session.pump_coordinator();
        session.drain();
        guard += 1;
        assert!(guard < 1000, "decision never fully acknowledged");
    }

    let count = session.counts();
    PartitionedCommitReport {
        protocol,
        sites,
        committed_during_partition,
        unilateral_commits: count("flatten.unilateral_commits"),
        blocked_ticks: count("flatten.blocked_ticks"),
        protocol_messages: count("sim.protocol_messages"),
        protocol_bytes: count("sim.protocol_bytes") as usize,
        commit_rounds: count("sim.commit_rounds"),
        converged: session.converged(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_blocks_through_the_partition() {
        let report = partitioned_commit_demo(CommitProtocol::TwoPhase, 4, 11);
        assert!(report.converged, "{report:?}");
        assert_eq!(
            report.committed_during_partition, 0,
            "2PC participants must hold their locks until the heal: {report:?}"
        );
        assert_eq!(report.unilateral_commits, 0);
        assert!(report.blocked_ticks > 0);
    }

    #[test]
    fn three_phase_progresses_past_the_pre_commit() {
        let report = partitioned_commit_demo(CommitProtocol::ThreePhase, 4, 11);
        assert!(report.converged, "{report:?}");
        assert_eq!(
            report.committed_during_partition, 3,
            "all pre-committed participants terminate unilaterally: {report:?}"
        );
        assert_eq!(report.unilateral_commits, 3);
    }

    #[test]
    fn three_phase_blocks_less_but_costs_more_messages() {
        let two = partitioned_commit_demo(CommitProtocol::TwoPhase, 4, 7);
        let three = partitioned_commit_demo(CommitProtocol::ThreePhase, 4, 7);
        assert!(two.converged && three.converged);
        assert!(
            three.blocked_ticks < two.blocked_ticks,
            "3PC trades messages for blocked time: {two:?} vs {three:?}"
        );
        assert!(three.protocol_messages > two.protocol_messages);
        assert!(three.protocol_bytes > two.protocol_bytes);
    }

    #[test]
    fn demo_is_deterministic() {
        let a = partitioned_commit_demo(CommitProtocol::ThreePhase, 3, 5);
        let b = partitioned_commit_demo(CommitProtocol::ThreePhase, 3, 5);
        assert_eq!(a, b);
    }
}

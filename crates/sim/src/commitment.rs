//! The blocked-2PC versus non-blocking-3PC demonstration.
//!
//! The paper defers the cost of a distributed flatten; the classically
//! *interesting* cell of that cost is a coordinator partition at the worst
//! instant — after every participant has promised to commit, before the
//! decision reaches anyone. Under 2PC the participants are stuck holding
//! their locks until the partition heals; under 3PC the acknowledged
//! pre-commit round lets them terminate unilaterally and keep editing.
//!
//! [`partitioned_commit_demo`] scripts exactly that schedule over a
//! [`SimNetwork`], deterministically: quiesce, propose, pump the protocol to
//! the brink of the decision, cut the coordinator off, count who makes
//! progress, heal, and verify that both protocols end convergent and
//! committed.

use serde::{Deserialize, Serialize};

use treedoc_core::{Op, Sdis, SiteId, Treedoc};
use treedoc_replication::{
    encode_envelope, CommitOutcome, CommitProtocol, Envelope, FlattenCoordinator, LinkConfig,
    Replica, SimNetwork,
};

use crate::scenario::{RunCounters, SimMetrics, PRE_COMMIT_TIMEOUT_TICKS};
use treedoc_telemetry::Telemetry;

type Doc = Treedoc<String, Sdis>;
type Env = Envelope<Op<String, Sdis>>;

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

/// Delivers every currently deliverable event, feeding votes to the
/// coordinator and sending participant replies back.
fn pump_network(
    net: &mut SimNetwork<Env>,
    replicas: &mut [Replica<Doc>],
    site_ids: &[SiteId],
    coordinator: &mut FlattenCoordinator,
    metrics: &SimMetrics,
) {
    while let Some(event) = net.step() {
        if let Envelope::FlattenVote(vote) = &event.payload {
            if event.to == site_ids[0] {
                coordinator.on_vote(*vote);
                continue;
            }
        }
        let idx = site_ids
            .iter()
            .position(|&s| s == event.to)
            .expect("known site");
        for reply in replicas[idx].receive_any(event.payload).replies {
            count_protocol_message(metrics, &reply);
            net.send(event.to, event.from, reply);
        }
    }
}

/// Counts one commitment message and its encoded bytes.
fn count_protocol_message(metrics: &SimMetrics, env: &Env) {
    metrics.protocol_messages.inc();
    metrics
        .protocol_bytes
        .add(encode_envelope(env).len() as u64);
}

/// One coordinator tick: send this round's messages and account for them.
fn tick_coordinator(
    net: &mut SimNetwork<Env>,
    coordinator: &mut FlattenCoordinator,
    coordinator_site: SiteId,
    metrics: &SimMetrics,
) {
    for (to, env) in coordinator.tick::<Op<String, Sdis>>() {
        count_protocol_message(metrics, &env);
        net.send(coordinator_site, to, env);
    }
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
    let site_ids: Vec<SiteId> = (1..=sites as u64).map(SiteId::from_u64).collect();
    let mut net: SimNetwork<Env> = SimNetwork::new(LinkConfig::fixed(5), seed);
    let counters = RunCounters::begin(&Telemetry::disabled());
    let metrics = SimMetrics::resolve(counters.telemetry());

    // 1. Build convergent, quiescent replicas: everyone edits, everything is
    //    delivered (fault-free fixed-latency links), so all clocks are equal.
    let mut replicas: Vec<Replica<Doc>> = site_ids
        .iter()
        .map(|&s| {
            let mut replica = Replica::new(s, Doc::new(s));
            replica.set_telemetry(counters.telemetry());
            replica
        })
        .collect();
    for i in 0..replicas.len() {
        for k in 0..6 {
            let len = replicas[i].doc().len();
            let op = replicas[i]
                .doc_mut()
                .local_insert(len.min(k), format!("site{} line{}", i + 1, k))
                .expect("index in range");
            let env = replicas[i].stamp_envelope(op);
            net.broadcast(site_ids[i], &site_ids, env);
        }
    }
    while let Some(event) = net.step() {
        let idx = site_ids
            .iter()
            .position(|&s| s == event.to)
            .expect("known site");
        let _ = replicas[idx].receive_any(event.payload);
    }

    // 2. The first site proposes a whole-document flatten.
    let propose = replicas[0]
        .propose_flatten(Vec::new(), protocol)
        .expect("a quiescent coordinator votes Yes on its own proposal");
    let txn = propose.proposal.txn;
    let mut coordinator = FlattenCoordinator::new(propose, site_ids[1..].to_vec());

    // 3. Pump the protocol to the brink of the decision: all votes in (2PC)
    //    or all pre-commit acks in (3PC), commit messages not yet sent.
    let mut guard = 0;
    while !coordinator.ready_to_commit() {
        tick_coordinator(&mut net, &mut coordinator, site_ids[0], &metrics);
        pump_network(
            &mut net,
            &mut replicas,
            &site_ids,
            &mut coordinator,
            &metrics,
        );
        guard += 1;
        assert!(guard < 100, "protocol never reached the decision point");
    }

    // 4. Partition the coordinator from everyone, then let it take the
    //    decision: the commit messages are cut off by the partition.
    for &other in &site_ids[1..] {
        net.partition_both(site_ids[0], other);
    }
    tick_coordinator(&mut net, &mut coordinator, site_ids[0], &metrics);
    assert_eq!(
        coordinator.outcome(),
        Some(CommitOutcome::Committed),
        "every vote was Yes"
    );

    // 5. Life under the partition: participants tick. 2PC participants stay
    //    locked; 3PC participants hit the pre-commit timeout and terminate.
    for _ in 0..PRE_COMMIT_TIMEOUT_TICKS + 5 {
        for r in replicas[1..].iter_mut() {
            let _ = r.flatten_tick(PRE_COMMIT_TIMEOUT_TICKS);
        }
    }
    let committed_during_partition = replicas[1..]
        .iter()
        .filter(|r| r.flatten_epoch() > 0)
        .count();

    // 6. Heal and finish: the held decision arrives, stragglers commit,
    //    acknowledgements flow back until the coordinator retires.
    for &other in &site_ids[1..] {
        net.heal_both(site_ids[0], other);
    }
    let mut guard = 0;
    while !coordinator.is_done() {
        tick_coordinator(&mut net, &mut coordinator, site_ids[0], &metrics);
        pump_network(
            &mut net,
            &mut replicas,
            &site_ids,
            &mut coordinator,
            &metrics,
        );
        guard += 1;
        assert!(guard < 1000, "decision never fully acknowledged");
    }
    replicas[0].finish_flatten(txn, true);
    metrics.commit_rounds.add(coordinator.stats().rounds);

    let reference = replicas[0].doc().to_vec();
    let converged = replicas.iter().all(|r| r.doc().to_vec() == reference)
        && replicas.iter().all(|r| r.flatten_epoch() == 1)
        && replicas.iter().all(|r| !r.is_flatten_prepared())
        && replicas.iter().all(|r| r.pending() == 0);

    let count = counters.deltas();
    PartitionedCommitReport {
        protocol,
        sites,
        committed_during_partition,
        unilateral_commits: count("flatten.unilateral_commits"),
        blocked_ticks: count("flatten.blocked_ticks"),
        protocol_messages: count("sim.protocol_messages"),
        protocol_bytes: count("sim.protocol_bytes") as usize,
        commit_rounds: count("sim.commit_rounds"),
        converged,
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

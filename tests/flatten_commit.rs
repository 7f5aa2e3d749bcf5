//! Integration tests for the structural clean-up path: flatten agreed via
//! distributed commitment — [`Replica::propose_flatten`] and
//! [`FlattenCoordinator`] exchanging real envelopes over [`SimNetwork`],
//! loss-free and faulty — aborts under concurrent edits, and storage
//! round-trips of flattened and unflattened replicas.

use treedoc_repro::core::{Op, Sdis, SiteId, Treedoc};
use treedoc_repro::replication::persist::SECTION_CELLS;
use treedoc_repro::replication::{
    CommitOutcome, CommitProtocol, CoordinatorStats, Envelope, FlattenCoordinator, LinkConfig,
    PersistentDocument, RecoverError, Replica, SimNetwork,
};
use treedoc_repro::sim::{partitioned_commit_demo, run, Scenario, ScenarioMatrix};
use treedoc_repro::storage::Snapshot;

type Doc = Treedoc<String, Sdis>;
type Net = SimNetwork<Envelope<Op<String, Sdis>>>;

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

/// Delivers every queued envelope; replies (votes, acknowledgements) are
/// sent back, votes addressed to the first site go to `coordinator`.
fn deliver_all(
    net: &mut Net,
    site_ids: &[SiteId],
    replicas: &mut [Replica<Doc>],
    mut coordinator: Option<&mut FlattenCoordinator>,
) {
    while let Some(event) = net.step() {
        if let (Envelope::FlattenVote(vote), Some(c)) = (&event.payload, coordinator.as_mut()) {
            if event.to == site_ids[0] {
                c.on_vote(*vote);
                continue;
            }
        }
        let idx = site_ids.iter().position(|&s| s == event.to).unwrap();
        for reply in replicas[idx].receive_any(event.payload).replies {
            net.send(event.to, event.from, reply);
        }
    }
}

/// Pumps `coordinator` (run by the first site) until it is done.
fn drive(
    net: &mut Net,
    site_ids: &[SiteId],
    replicas: &mut [Replica<Doc>],
    coordinator: &mut FlattenCoordinator,
) {
    let mut guard = 0;
    while !coordinator.is_done() {
        for (to, env) in coordinator.tick() {
            net.send(site_ids[0], to, env);
        }
        deliver_all(net, site_ids, replicas, Some(coordinator));
        guard += 1;
        assert!(guard < 500, "the flatten commitment must not hang");
    }
}

/// Runs one whole-document flatten proposed by the (quiescent) first
/// replica under `protocol` and concludes it there.
fn run_flatten(
    net: &mut Net,
    site_ids: &[SiteId],
    replicas: &mut [Replica<Doc>],
    protocol: CommitProtocol,
) -> (CommitOutcome, CoordinatorStats) {
    let propose = replicas[0]
        .propose_flatten(Vec::new(), protocol)
        .expect("a quiescent proposer votes Yes");
    let txn = propose.proposal.txn;
    let mut coordinator = FlattenCoordinator::new(propose, site_ids[1..].to_vec());
    drive(net, site_ids, replicas, &mut coordinator);
    let outcome = coordinator.outcome().expect("a finished run is decided");
    replicas[0].finish_flatten(txn, outcome == CommitOutcome::Committed);
    (outcome, coordinator.stats())
}

/// Builds `n` quiescent wire-level replicas over a loss-free network: the
/// first site authors a tombstone-laden document (60 inserts, 20 deletes)
/// and every envelope is delivered, so all delivered clocks are equal.
fn tombstoned_replicas(n: u64) -> (Net, Vec<SiteId>, Vec<Replica<Doc>>) {
    let mut net = SimNetwork::new(LinkConfig::fixed(3), 7);
    let site_ids: Vec<SiteId> = (1..=n).map(site).collect();
    let mut replicas: Vec<Replica<Doc>> = site_ids
        .iter()
        .map(|&s| Replica::new(s, Doc::new(s)))
        .collect();
    let author = &mut replicas[0];
    for k in 0..80 {
        let op = if k < 60 {
            author.doc_mut().local_insert(k, format!("line {k}"))
        } else {
            author.doc_mut().local_delete(10)
        };
        let env = author.stamp_envelope(op.unwrap());
        net.broadcast(site_ids[0], &site_ids, env);
    }
    deliver_all(&mut net, &site_ids, &mut replicas, None);
    (net, site_ids, replicas)
}

/// Asserts every replica holds the same content, digest and epoch.
fn assert_converged(replicas: &[Replica<Doc>]) {
    for r in replicas {
        assert_eq!(r.doc().to_vec(), replicas[0].doc().to_vec());
        assert_eq!(r.digest(), replicas[0].digest());
        assert_eq!(r.flatten_epoch(), replicas[0].flatten_epoch());
        assert!(!r.is_flatten_prepared());
    }
}

#[test]
fn committed_flatten_keeps_replicas_convergent_and_removes_tombstones() {
    let (mut net, site_ids, mut replicas) = tombstoned_replicas(4);
    let before = replicas[0].doc().to_vec();
    assert!(replicas[0].doc().stats().tombstones > 0);
    let (outcome, stats) =
        run_flatten(&mut net, &site_ids, &mut replicas, CommitProtocol::TwoPhase);
    assert_eq!(outcome, CommitOutcome::Committed);
    // Two rounds (propose, commit) to each of the three participants.
    assert_eq!(stats.messages_sent, 2 * 3);
    assert_eq!(
        replicas[0].doc().to_vec(),
        before,
        "flatten must not change the content"
    );
    assert_converged(&replicas);
    for r in &replicas {
        assert_eq!(r.flatten_epoch(), 1);
        assert_eq!(r.doc().stats().tombstones, 0);
        assert_eq!(r.doc().node_count(), r.doc().len());
        r.doc().check_invariants().unwrap();
    }
}

#[test]
fn flatten_aborts_when_any_replica_keeps_editing() {
    let (mut net, site_ids, mut replicas) = tombstoned_replicas(3);
    // Replica 3 edits after the others' state was taken and has not sent
    // the edit yet: its delivered clock no longer matches the proposal's.
    let op = replicas[2]
        .doc_mut()
        .local_insert(0, "late edit".to_string())
        .unwrap();
    let late = replicas[2].stamp_envelope(op);
    let nodes_before: Vec<usize> = replicas.iter().map(|r| r.doc().node_count()).collect();
    let (outcome, _) = run_flatten(&mut net, &site_ids, &mut replicas, CommitProtocol::TwoPhase);
    // One real No vote: the late editor's vote arrived (a lost vote would
    // abort by timeout with `no_votes: 0`).
    assert_eq!(outcome, CommitOutcome::Aborted { no_votes: 1 });
    for (r, before) in replicas.iter().zip(nodes_before) {
        assert_eq!(
            r.doc().node_count(),
            before,
            "an aborted flatten leaves no side effects"
        );
        assert_eq!(r.flatten_epoch(), 0);
        assert!(!r.is_flatten_prepared(), "the abort released every lock");
    }
    // Once the editor's operation has reached everyone, a fresh proposal
    // commits — including under 3PC.
    net.broadcast(site_ids[2], &site_ids, late);
    deliver_all(&mut net, &site_ids, &mut replicas, None);
    let (outcome, stats) = run_flatten(
        &mut net,
        &site_ids,
        &mut replicas,
        CommitProtocol::ThreePhase,
    );
    assert_eq!(outcome, CommitOutcome::Committed);
    // Three rounds (propose, pre-commit, commit) to each of two participants.
    assert_eq!(stats.messages_sent, 3 * 2);
    assert_converged(&replicas);
    assert_eq!(replicas[0].flatten_epoch(), 1);
}

#[test]
fn flattened_and_unflattened_replicas_persist_and_reload() {
    let (_, _, replicas) = tombstoned_replicas(2);
    for doc in replicas.iter().map(Replica::doc) {
        let mut snapshot = Snapshot::new();
        doc.encode_sections(&mut snapshot);
        let reloaded = Doc::decode_sections(&snapshot).unwrap();
        assert_eq!(reloaded.to_vec(), doc.to_vec());
        assert_eq!(reloaded.node_count(), doc.node_count());
        assert_eq!(reloaded.merkle_digest(), doc.merkle_digest());
        // A truncated copy fails with a diagnosis instead of a bare `None`.
        let cells = snapshot.section(SECTION_CELLS).unwrap().to_vec();
        snapshot.push_section(SECTION_CELLS, cells[..cells.len() / 2].to_vec());
        let torn = Doc::decode_sections(&snapshot);
        assert!(matches!(torn, Err(RecoverError::Snapshot(_))), "{torn:?}");
    }
    // Flattening shrinks the snapshot's cell section.
    let (_, _, mut replicas) = tombstoned_replicas(1);
    let doc = replicas[0].doc_mut();
    let cells_bytes = |doc: &Doc| {
        let mut snapshot = Snapshot::new();
        doc.encode_sections(&mut snapshot);
        snapshot.section(SECTION_CELLS).unwrap().len()
    };
    let before = cells_bytes(doc);
    doc.flatten_all().unwrap();
    let after = cells_bytes(doc);
    assert!(
        after < before,
        "flatten must shrink the snapshot ({after} vs {before})"
    );
}

#[test]
fn dropped_votes_abort_two_phase_cleanly_instead_of_hanging() {
    // Site 3's link to the coordinator drops everything: its vote can never
    // arrive. The coordinator must retransmit, time out, and distribute an
    // abort that releases every prepared participant — no replica may be
    // left flattened or locked.
    let (mut net, site_ids, mut replicas) = tombstoned_replicas(3);
    net.set_link(site(3), site(1), LinkConfig::fixed(3).with_drop_prob(1.0));

    let propose = replicas[0]
        .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
        .expect("quiescent proposer votes Yes");
    let txn = propose.proposal.txn;
    let mut coordinator =
        FlattenCoordinator::new(propose, site_ids[1..].to_vec()).with_vote_timeout(10);

    let nodes_before: Vec<usize> = replicas.iter().map(|r| r.doc().node_count()).collect();
    drive(&mut net, &site_ids, &mut replicas, &mut coordinator);
    assert_eq!(
        coordinator.outcome(),
        Some(CommitOutcome::Aborted { no_votes: 0 }),
        "a vote that never arrives aborts the proposal by timeout, with no veto"
    );
    replicas[0].finish_flatten(txn, false);
    for (r, before) in replicas.iter().zip(nodes_before) {
        assert_eq!(r.flatten_epoch(), 0, "no replica flattened");
        assert_eq!(r.doc().node_count(), before, "abort leaves no side effects");
        assert!(!r.is_flatten_prepared(), "the abort released every lock");
    }
}

#[test]
fn coordinator_partition_blocks_two_phase_but_not_three_phase() {
    let two = partitioned_commit_demo(CommitProtocol::TwoPhase, 4, 2026);
    let three = partitioned_commit_demo(CommitProtocol::ThreePhase, 4, 2026);
    assert!(two.converged && three.converged, "{two:?}\n{three:?}");
    assert_eq!(two.committed_during_partition, 0, "2PC blocks: {two:?}");
    assert_eq!(
        three.committed_during_partition, 3,
        "3PC terminates unilaterally past the pre-commit: {three:?}"
    );
    assert!(two.blocked_ticks > three.blocked_ticks);
    assert!(three.protocol_messages > two.protocol_messages);
}

#[test]
fn distributed_flatten_over_a_lossy_partitioned_network_commits_and_converges() {
    // The acceptance cell: flatten proposals carried entirely as Envelope
    // messages over a lossy, duplicating, partitioned network — committed at
    // quiescence, aborted under concurrent edits, convergence everywhere,
    // with per-protocol message and byte accounting.
    for protocol in [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase] {
        let report = run(&Scenario {
            sites: 4,
            edits_per_site: 40,
            partition_first_site: true,
            ..Scenario::flatten_faulty(protocol)
        });
        assert!(report.converged, "{protocol:?}: {report:?}");
        assert!(report.flatten_commits >= 1, "{protocol:?}: {report:?}");
        assert!(report.protocol_messages > 0, "{protocol:?}: {report:?}");
        assert!(report.protocol_bytes > 0, "{protocol:?}: {report:?}");
        assert!(report.partition_rounds > 0, "{protocol:?}: {report:?}");
    }
}

#[test]
fn flatten_commitment_matrix_reports_per_protocol_costs() {
    let matrix = ScenarioMatrix::flatten_commitment(Scenario {
        sites: 3,
        edits_per_site: 20,
        ..Scenario::default()
    });
    let results = matrix.run();
    assert_eq!(results.len(), 8);
    let mut by_protocol = std::collections::BTreeMap::new();
    for (scenario, report) in results {
        assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
        assert!(report.flatten_commits >= 1, "cell {scenario:?}: {report:?}");
        let entry = by_protocol
            .entry(scenario.flatten_protocol.label())
            .or_insert((0u64, 0usize));
        entry.0 += report.protocol_messages;
        entry.1 += report.protocol_bytes;
    }
    let two = by_protocol["2pc"];
    let three = by_protocol["3pc"];
    assert!(two.0 > 0 && three.0 > 0);
    assert!(two.1 > 0 && three.1 > 0);
}

#[test]
fn flatten_then_continue_editing_and_reconverge() {
    let (mut net, site_ids, mut replicas) = tombstoned_replicas(2);
    let (outcome, _) = run_flatten(&mut net, &site_ids, &mut replicas, CommitProtocol::TwoPhase);
    assert_eq!(outcome, CommitOutcome::Committed);
    // Editing continues on the renamed (plain) identifiers, concurrently at
    // both replicas, and still converges.
    for (i, (pos, text)) in [(5, "post-flatten A"), (20, "post-flatten B")]
        .into_iter()
        .enumerate()
    {
        let op = replicas[i]
            .doc_mut()
            .local_insert(pos, text.to_string())
            .unwrap();
        let env = replicas[i].stamp_envelope(op);
        net.broadcast(site_ids[i], &site_ids, env);
    }
    deliver_all(&mut net, &site_ids, &mut replicas, None);
    assert_converged(&replicas);
    assert_eq!(replicas[0].doc().len(), 42);
}

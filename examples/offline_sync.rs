//! Offline editing and re-synchronisation, plus an agreed structural
//! clean-up: a laptop edits while disconnected, reconnects, both sides
//! converge, and then the replicas run the §4.2.1 commitment protocol over
//! a simulated network to flatten the document (which aborts if anyone is
//! still editing).
//!
//! Run with `cargo run --example offline_sync`.

use treedoc_repro::prelude::*;

fn main() {
    let seed: Vec<String> = (1..=8).map(|i| format!("section {i}")).collect();
    let mut desktop = Doc::from_atoms(SiteId::from_u64(1), &seed);
    let mut laptop = Doc::from_atoms(SiteId::from_u64(2), &seed);

    // The laptop goes offline and keeps editing; the desktop edits too.
    let mut laptop_outbox = Vec::new();
    for k in 0..5 {
        laptop_outbox.push(
            laptop
                .local_insert(3 + k, format!("offline note {k}"))
                .unwrap(),
        );
    }
    laptop_outbox.push(laptop.local_delete(0).unwrap());

    let mut desktop_outbox = vec![desktop
        .local_insert(8, "online appendix".to_string())
        .unwrap()];
    desktop_outbox.push(desktop.local_delete(1).unwrap());

    println!("desktop before sync: {} atoms", desktop.len());
    println!("laptop  before sync: {} atoms", laptop.len());

    // Reconnection: exchange the buffered operations (any order works, the
    // operations were concurrent).
    for op in &laptop_outbox {
        desktop.apply(op).unwrap();
    }
    for op in &desktop_outbox {
        laptop.apply(op).unwrap();
    }
    assert_eq!(desktop.to_vec(), laptop.to_vec());
    println!(
        "after sync, both replicas hold {} atoms and identical content",
        desktop.len()
    );

    // Now that the session is quiescent, agree on a flatten: the desktop
    // proposes and coordinates 2PC, the laptop votes, over a simulated link.
    let sites = [SiteId::from_u64(1), SiteId::from_u64(2)];
    let mut replicas = [
        Replica::new(sites[0], desktop),
        Replica::new(sites[1], laptop),
    ];
    let mut net = SimNetwork::new(LinkConfig::fixed(1), 1);
    let nodes_before = replicas[0].doc().node_count();
    let (outcome, messages) = agree_on_flatten(&mut net, &sites, &mut replicas);
    println!("flatten commitment: {outcome:?} in {messages} coordinator messages");
    assert_eq!(outcome, CommitOutcome::Committed);
    assert_eq!(replicas[0].doc().to_vec(), replicas[1].doc().to_vec());
    println!(
        "flatten compacted {} -> {} stored nodes; documents still identical",
        nodes_before,
        replicas[0].doc().node_count()
    );

    // A second proposal while someone is editing gets vetoed: the laptop's
    // unsent edit puts its clock ahead of the proposal's.
    let op = replicas[1]
        .doc_mut()
        .local_insert(0, "still typing...".to_string())
        .unwrap();
    let _unsent = replicas[1].stamp_envelope(op);
    let (outcome, _) = agree_on_flatten(&mut net, &sites, &mut replicas);
    println!("flatten proposed during active editing: {outcome:?} (edits take precedence)");
    assert!(matches!(outcome, CommitOutcome::Aborted { .. }));
}

type Doc = Treedoc<String, Udis>;

/// Runs one whole-document 2PC flatten proposed and coordinated by the
/// first replica over `net`, concludes it there and returns the outcome
/// with the number of messages the coordinator sent.
fn agree_on_flatten(
    net: &mut SimNetwork<Envelope<Op<String, Udis>>>,
    sites: &[SiteId],
    replicas: &mut [Replica<Doc>],
) -> (CommitOutcome, u64) {
    let propose = replicas[0]
        .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
        .expect("the proposer is quiescent");
    let txn = propose.proposal.txn;
    let mut coordinator = FlattenCoordinator::new(propose, sites[1..].to_vec());
    while !coordinator.is_done() {
        for (to, env) in coordinator.tick() {
            net.send(sites[0], to, env);
        }
        while let Some(event) = net.step() {
            if let Envelope::FlattenVote(vote) = event.payload {
                coordinator.on_vote(vote);
                continue;
            }
            let idx = sites.iter().position(|&s| s == event.to).unwrap();
            for reply in replicas[idx].receive_any(event.payload).replies {
                net.send(event.to, event.from, reply);
            }
        }
    }
    let outcome = coordinator.outcome().expect("a finished run is decided");
    replicas[0].finish_flatten(txn, outcome == CommitOutcome::Committed);
    (outcome, coordinator.stats().messages_sent)
}

//! Property tests for the distributed flatten commitment protocol under the
//! faulty delivery schedules of [`treedoc_replication::testkit`].
//!
//! The invariant the §4.2.1 agreement must uphold: **a committed distributed
//! flatten never diverges replica content**, whatever the network did to the
//! edit traffic before, during or after the proposal — and an aborted one
//! leaves every replica exactly as it was.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treedoc_core::{Op, Sdis, SiteId, Treedoc};
use treedoc_replication::testkit::faulty_schedule;
use treedoc_replication::{
    CausalMessage, CommitOutcome, CommitProtocol, Envelope, FlattenCoordinator, Replica, Vote,
};

type Doc = Treedoc<char, Sdis>;
type Msg = CausalMessage<Op<char, Sdis>>;
type Env = Envelope<Op<char, Sdis>>;

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

/// Builds `sites` at-least-once replicas and a shared emission history of
/// seeded random edits (each op broadcast-stamped by its initiator).
fn edited_replicas(
    sites: usize,
    edits_per_site: usize,
    seed: u64,
) -> (Vec<Replica<Doc>>, Vec<Msg>) {
    let site_ids: Vec<SiteId> = (1..=sites as u64).map(site).collect();
    let mut replicas: Vec<Replica<Doc>> = site_ids
        .iter()
        .map(|&s| Replica::new(s, Doc::new(s)))
        .collect();
    for r in replicas.iter_mut() {
        r.enable_at_least_once(&site_ids);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = Vec::new();
    for k in 0..edits_per_site {
        for r in replicas.iter_mut() {
            let len = r.doc().len();
            let op = if len > 1 && rng.gen_bool(0.3) {
                let idx = rng.gen_range(0..len);
                r.doc_mut().local_delete(idx).expect("index in range")
            } else {
                let idx = rng.gen_range(0..=len);
                let atom = char::from(b'a' + (k % 26) as u8);
                r.doc_mut().local_insert(idx, atom).expect("index in range")
            };
            history.push(r.stamp(op));
        }
    }
    (replicas, history)
}

/// Runs one proposal from replica 0 to completion over direct (loss-free)
/// message exchange, returning the outcome. Panics if the coordinator never
/// finishes — the protocol must terminate, not hang.
fn run_commitment(replicas: &mut [Replica<Doc>], protocol: CommitProtocol) -> CommitOutcome {
    let site_ids: Vec<SiteId> = replicas.iter().map(|r| r.site()).collect();
    let Some(propose) = replicas[0].propose_flatten(Vec::new(), protocol) else {
        return CommitOutcome::Aborted { no_votes: 1 };
    };
    let txn = propose.proposal.txn;
    let mut coordinator = FlattenCoordinator::new(propose, site_ids[1..].to_vec());
    for _ in 0..300 {
        let out: Vec<(SiteId, Env)> = coordinator.tick();
        for (to, env) in out {
            let idx = site_ids.iter().position(|&s| s == to).expect("known site");
            let (_, reply) = replicas[idx].receive_any(env);
            if let Some(Envelope::FlattenVote(vote)) = reply {
                coordinator.on_vote(vote);
            }
        }
        if coordinator.is_done() {
            let outcome = coordinator.outcome().expect("done implies outcome");
            replicas[0].finish_flatten(txn, outcome == CommitOutcome::Committed);
            return outcome;
        }
    }
    panic!("flatten commitment did not terminate");
}

/// At-least-once recovery over direct exchange: acks, then retransmissions
/// (epoch-tagged), until every log is acknowledged and every queue drained.
fn recover(replicas: &mut [Replica<Doc>]) {
    let site_ids: Vec<SiteId> = replicas.iter().map(|r| r.site()).collect();
    for _ in 0..50 {
        if replicas
            .iter()
            .all(|r| !r.has_unacked() && r.pending() == 0)
        {
            return;
        }
        let acks: Vec<(SiteId, Env)> = replicas
            .iter()
            .map(|r| (r.site(), r.ack_envelope()))
            .collect();
        for r in replicas.iter_mut() {
            for (from, ack) in &acks {
                if *from != r.site() {
                    r.receive_envelope(ack.clone());
                }
            }
        }
        let mut retransmissions: Vec<(usize, Env)> = Vec::new();
        for (i, r) in replicas.iter_mut().enumerate() {
            for (j, &peer) in site_ids.iter().enumerate() {
                if i == j {
                    continue;
                }
                for env in r.unacked_envelopes_for(peer) {
                    retransmissions.push((j, env));
                }
            }
        }
        for (j, env) in retransmissions {
            replicas[j].receive_envelope(env);
        }
    }
    panic!("at-least-once recovery did not drain");
}

proptest! {
    /// The end-to-end property: random concurrent edits scrambled by a
    /// faulty schedule, a mid-flight proposal that must resolve without
    /// wedging (committing only if every replica has identical state), full
    /// recovery, and a final proposal that commits and leaves every replica
    /// identical, tombstone-free and in the same epoch.
    #[test]
    fn committed_distributed_flatten_never_diverges(
        sites in 2usize..5,
        edits_per_site in 1usize..11,
        seed in 0u64..1_000,
        drop_prob in 0.0f64..0.4,
        duplicate_prob in 0.0f64..0.4,
        three_phase in any::<bool>(),
    ) {
        let protocol = if three_phase {
            CommitProtocol::ThreePhase
        } else {
            CommitProtocol::TwoPhase
        };
        let (mut replicas, history) = edited_replicas(sites, edits_per_site, seed);

        // Scramble the shared history independently per receiver: drops,
        // duplicates, full shuffle.
        for (i, r) in replicas.iter_mut().enumerate() {
            let incoming: Vec<Msg> = history
                .iter()
                .filter(|m| m.sender != r.site())
                .cloned()
                .collect();
            let schedule = faulty_schedule(&incoming, seed ^ (i as u64) << 8, drop_prob, duplicate_prob);
            for m in schedule {
                r.receive(m);
            }
        }

        // A proposal taken mid-flight must terminate, and may commit only
        // when every replica has already seen everything (equal clocks).
        let epochs_before: Vec<u64> = replicas.iter().map(|r| r.flatten_epoch()).collect();
        let outcome = run_commitment(&mut replicas, protocol);
        match outcome {
            CommitOutcome::Committed => {
                let reference = replicas[0].doc().to_vec();
                for r in &replicas {
                    prop_assert_eq!(r.doc().to_vec(), reference.clone());
                    prop_assert_eq!(r.flatten_epoch(), 1);
                }
            }
            CommitOutcome::Aborted { .. } => {
                for (r, before) in replicas.iter().zip(&epochs_before) {
                    prop_assert_eq!(r.flatten_epoch(), *before, "an abort changes nothing");
                    prop_assert!(!r.is_flatten_prepared(), "aborts must release the lock");
                }
            }
        }

        // After full recovery the final proposal always commits…
        recover(&mut replicas);
        let outcome = run_commitment(&mut replicas, protocol);
        prop_assert_eq!(outcome, CommitOutcome::Committed);

        // …and every replica ends identical, compact and unlocked.
        let reference = replicas[0].doc().to_vec();
        let epoch = replicas[0].flatten_epoch();
        for r in &replicas {
            prop_assert_eq!(r.doc().to_vec(), reference.clone());
            prop_assert_eq!(r.flatten_epoch(), epoch);
            prop_assert!(!r.is_flatten_prepared());
            prop_assert_eq!(r.pending(), 0);
            prop_assert_eq!(
                r.doc().node_count(),
                r.doc().len(),
                "a committed whole-document flatten leaves no tombstones"
            );
        }
    }

    /// A replica that has seen strictly more than the proposer (or less)
    /// votes No: edits take precedence over clean-up.
    #[test]
    fn behind_or_ahead_replicas_veto(
        sites in 2usize..5,
        edits_per_site in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let (mut replicas, history) = edited_replicas(sites, edits_per_site, seed);
        // Deliver everything to everyone except the last replica, which
        // misses the proposer's final message: its clock stays strictly
        // behind the proposal's base clock.
        let n = replicas.len();
        let proposer = replicas[0].site();
        let missing = history
            .iter()
            .rposition(|m| m.sender == proposer)
            .expect("the proposer emitted at least one message");
        for (i, r) in replicas.iter_mut().enumerate() {
            let behind = i == n - 1;
            let own = r.site();
            for (k, m) in history.iter().enumerate() {
                if m.sender == own || (behind && k == missing) {
                    continue;
                }
                r.receive(m.clone());
            }
        }
        let outcome = run_commitment(&mut replicas, CommitProtocol::TwoPhase);
        prop_assert!(matches!(outcome, CommitOutcome::Aborted { .. }));
        for r in &replicas {
            prop_assert_eq!(r.flatten_epoch(), 0);
            prop_assert!(!r.is_flatten_prepared());
        }
        let _ = Vote::Yes;
    }
}

//! A brand-new collaborator joins an editing session already in progress:
//! instead of replaying the whole operation history, the newcomer receives a
//! snapshot of the donor's state (chunked `SnapshotOffer`/`SnapshotChunk`
//! envelopes), then runs one anti-entropy session so it also adopts the
//! donor's causal clock — after which it edits as a first-class peer and any
//! late copies of already-absorbed operations are discardable duplicates.
//!
//! The first half drives the replica API by hand — every envelope, whether
//! an operation, a snapshot chunk or a sync round, goes through the one
//! handler `Replica::receive_any`, which returns the replies to send back;
//! the second half runs the same shape as a full simulated scenario and
//! prints its wire accounting.
//!
//! Run with `cargo run --example late_joiner`.

use treedoc_repro::prelude::*;

type Doc = Treedoc<String, Udis>;
type Env = Envelope<<Doc as treedoc_repro::replication::ReplicatedDocument>::Op>;

/// Ping-pongs one anti-entropy session between `a` and `b` until a round
/// ends with equal root digests, returning the encoded bytes it cost.
fn sync_session(replicas: &mut [Replica<Doc>], a: usize, b: usize) -> usize {
    let mut bytes = 0;
    loop {
        let mut queue: Vec<(usize, Env)> = vec![(b, replicas[a].sync_probe())];
        let mut converged = false;
        while let Some((to, env)) = queue.pop() {
            let wire = encode_envelope(&env);
            bytes += wire.len();
            let env: Env = decode_envelope(&wire).expect("sync envelope round-trips");
            let effect = replicas[to].receive_any(env);
            converged |= effect.converged;
            let reply_to = if to == a { b } else { a };
            queue.extend(effect.replies.into_iter().map(|e| (reply_to, e)));
        }
        if converged {
            return bytes;
        }
    }
}

/// Broadcasts one stamped operation envelope from `from` to every other
/// replica through the wire codec.
fn broadcast(replicas: &mut [Replica<Doc>], from: usize, env: Env) {
    let wire = encode_envelope(&env);
    for (to, replica) in replicas.iter_mut().enumerate() {
        if to != from {
            let env: Env = decode_envelope(&wire).expect("op envelope round-trips");
            replica.receive_any(env);
        }
    }
}

fn main() {
    let seed: Vec<String> = (1..=12).map(|i| format!("paragraph {i}")).collect();

    // Two veterans share the seeded document; the newcomer starts empty and
    // hears nothing until it joins.
    let mut replicas: Vec<Replica<Doc>> = vec![
        Replica::new(
            SiteId::from_u64(1),
            Doc::from_atoms(SiteId::from_u64(1), &seed),
        ),
        Replica::new(
            SiteId::from_u64(2),
            Doc::from_atoms(SiteId::from_u64(2), &seed),
        ),
        Replica::new(SiteId::from_u64(3), Doc::new(SiteId::from_u64(3))),
    ];

    // The session is already busy before the newcomer shows up.
    for k in 0..6 {
        let editor = k % 2;
        let op = replicas[editor]
            .doc_mut()
            .local_insert(k, format!("early edit {k}"))
            .expect("index in range");
        let env = replicas[editor].stamp_envelope(op);
        // Only the veterans hear each other at this point.
        let wire = encode_envelope(&env);
        let other = 1 - editor;
        let env: Env = decode_envelope(&wire).expect("op envelope round-trips");
        replicas[other].receive_any(env);
    }
    assert_eq!(replicas[0].doc().to_vec(), replicas[1].doc().to_vec());
    println!(
        "veterans converged on {} atoms; newcomer still holds {}",
        replicas[0].doc().len(),
        replicas[2].doc().len()
    );

    // Join, step 1 — snapshot bootstrap: the donor chunks its document state
    // (16 KiB a chunk) and the newcomer assembles it, checksummed end to end.
    let chunks = replicas[0].snapshot_envelopes();
    let mut snapshot_bytes = 0;
    let mut bootstrapped = false;
    for env in chunks {
        let wire = encode_envelope(&env);
        snapshot_bytes += wire.len();
        let env: Env = decode_envelope(&wire).expect("snapshot envelope round-trips");
        bootstrapped |= replicas[2].receive_any(env).bootstrapped;
    }
    assert!(bootstrapped, "snapshot bootstrap must complete");
    println!(
        "newcomer bootstrapped {} atoms from a {snapshot_bytes}-byte snapshot",
        replicas[2].doc().len()
    );

    // Join, step 2 — one sync session transfers the donor's causal clock, so
    // stragglers re-delivering pre-join operations become cheap duplicates.
    let sync_bytes = sync_session(&mut replicas, 0, 2);
    assert_eq!(replicas[0].doc().to_vec(), replicas[2].doc().to_vec());
    println!("clock transfer + digest check cost {sync_bytes} bytes");

    // From here on the newcomer is a first-class peer: everyone edits,
    // everyone hears everyone, and all three replicas converge.
    for (i, text) in ["alice", "bob", "carol"].iter().enumerate() {
        let op = replicas[i]
            .doc_mut()
            .local_insert(0, format!("signed, {text}"))
            .expect("index in range");
        let env = replicas[i].stamp_envelope(op);
        broadcast(&mut replicas, i, env);
    }
    let reference = replicas[0].doc().to_vec();
    assert!(replicas.iter().all(|r| r.doc().to_vec() == reference));
    println!(
        "after post-join edits, all {} replicas hold {} identical atoms",
        replicas.len(),
        reference.len()
    );

    // The same shape as a full simulated scenario: three sites, the last one
    // joining mid-run, with every message through the lossless wire codec.
    let report = treedoc_repro::sim::run(&Scenario::late_joiner(3));
    assert!(report.converged);
    println!(
        "\nsimulated late join: {} ops, {} pre-join messages discarded,\n\
         {}-byte snapshot + {} bytes of sync traffic over {} session(s)",
        report.ops_generated,
        report.messages_before_join,
        report.snapshot_bytes,
        report.sync_bytes,
        report.sync_sessions,
    );
}

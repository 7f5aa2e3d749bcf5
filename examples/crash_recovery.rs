//! Crash and recovery of a durable replica: two sites edit together, one
//! dies mid-session (losing its entire in-memory state), restarts from its
//! `DocStore` — checksummed WAL + verified epoch snapshot — and converges.
//!
//! Run with `cargo run --example crash_recovery`.

use treedoc_repro::prelude::*;

type Doc = Treedoc<String, Sdis>;

fn main() {
    let alice = SiteId::from_u64(1);
    let bob = SiteId::from_u64(2);
    let seed: Vec<String> = (1..=4).map(|i| format!("chapter {i}")).collect();
    let mut a = Replica::new(alice, Doc::from_atoms(alice, &seed));
    let mut b = Replica::new(bob, Doc::from_atoms(bob, &seed));
    a.enable_at_least_once(&[alice, bob]);
    b.enable_at_least_once(&[alice, bob]);

    // Both replicas journal through a durable store (in-memory backend here;
    // `FileBackend::open(dir)` gives the same API on real files).
    a.attach_store(DocStore::in_memory()).unwrap();
    b.attach_store(DocStore::in_memory()).unwrap();

    // A collaborative session: each side edits, messages flow both ways.
    let mut to_b = Vec::new();
    for k in 0..3 {
        let len = a.doc().len();
        let op = a
            .doc_mut()
            .local_insert(len, format!("alice edit {k}"))
            .unwrap();
        to_b.push(a.stamp(op));
    }
    for m in to_b.drain(..) {
        b.receive(m);
    }
    let op = b
        .doc_mut()
        .local_insert(0, "bob's preface".to_string())
        .unwrap();
    a.receive(b.stamp(op));
    a.receive_envelope(b.ack_envelope());
    b.receive_envelope(a.ack_envelope());
    println!(
        "session in progress: both replicas hold {} atoms",
        a.doc().len()
    );

    // Bob types one more line — and his process dies before anyone hears of
    // it. The only copies of that edit are his send log and his WAL.
    let len = b.doc().len();
    let op = b
        .doc_mut()
        .local_insert(len, "bob's unsent conclusion".to_string())
        .unwrap();
    let _lost_in_the_crash = b.stamp(op);

    let store = b.detach_store().expect("bob journals");
    drop(b); // the crash: clock, send log, document — all gone
    println!(
        "bob crashed ({} atoms only alice still has live)",
        a.doc().len()
    );

    // Alice keeps working while bob is down.
    let len = a.doc().len();
    let op = a
        .doc_mut()
        .local_insert(len, "alice, meanwhile".to_string())
        .unwrap();
    let while_down = a.stamp(op);

    // Restart: bob rebuilds himself from the store — newest verified
    // snapshot plus a replay of the WAL tail.
    let (mut b, report) = Replica::<Doc>::recover(store).expect("recovery succeeds");
    println!(
        "bob recovered: snapshot epoch {}, {} WAL records replayed, {} bytes read back",
        report.snapshot_epoch, report.wal_records_replayed, report.bytes_recovered
    );
    assert!(report.snapshot_hit);
    assert!(report.wal_records_replayed > 0);

    // Resynchronisation: what alice missed, bob's recovered send log still
    // holds; what bob missed, alice retransmits.
    b.receive(while_down);
    a.receive_envelope(b.ack_envelope());
    for envelope in b.unacked_envelopes_for(alice) {
        a.receive_envelope(envelope);
    }
    b.receive_envelope(a.ack_envelope());

    assert_eq!(a.doc().to_vec(), b.doc().to_vec());
    assert_eq!(a.digest(), b.digest());
    assert!(!a.has_unacked() && !b.has_unacked());
    assert!(a
        .doc()
        .to_vec()
        .iter()
        .any(|line| line == "bob's unsent conclusion"));
    println!(
        "converged after recovery: {} atoms, digests match",
        a.doc().len()
    );
    println!("final document:");
    for line in a.doc().to_vec() {
        println!("  | {line}");
    }
}

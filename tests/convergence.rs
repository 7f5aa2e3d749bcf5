//! Cross-crate integration tests: CRDT convergence under causal delivery,
//! concurrent editing, partitions, and mixed local/remote activity.

use treedoc_repro::core::{HasSource, Op, Sdis, SiteId, Treedoc, Udis, WireDis};
use treedoc_repro::replication::{CausalMessage, Replica, ReplicatedDocument};
use treedoc_repro::sim::{run, Scenario};
use treedoc_repro::telemetry::Registry;

type SDoc = Treedoc<String, Sdis>;
type UDoc = Treedoc<String, Udis>;

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

#[test]
fn two_replicas_converge_after_interleaved_editing() {
    let seed: Vec<String> = (0..20).map(|i| format!("line {i}")).collect();
    let mut a = SDoc::from_atoms(site(1), &seed);
    let mut b = SDoc::from_atoms(site(2), &seed);

    let mut ops_a: Vec<Op<String, Sdis>> = Vec::new();
    let mut ops_b: Vec<Op<String, Sdis>> = Vec::new();
    for round in 0..30 {
        ops_a.push(
            a.local_insert(round % (a.len() + 1), format!("a{round}"))
                .unwrap(),
        );
        if b.len() > 2 {
            ops_b.push(b.local_delete(round % b.len()).unwrap());
        }
        ops_b.push(
            b.local_insert(round % (b.len() + 1), format!("b{round}"))
                .unwrap(),
        );
    }
    for op in &ops_b {
        a.apply(op).unwrap();
    }
    for op in &ops_a {
        b.apply(op).unwrap();
    }
    assert_eq!(a.to_vec(), b.to_vec());
    a.check_invariants().unwrap();
    b.check_invariants().unwrap();
}

#[test]
fn udis_and_sdis_replicas_agree_on_content_order() {
    // The two disambiguator designs are different types (identifiers differ),
    // but replaying the same *local* edit script must give the same text.
    let mut s = SDoc::new(site(1));
    let mut u = UDoc::new(site(1));
    let script: Vec<(usize, Option<String>)> = (0..60)
        .map(|k| {
            if k % 5 == 4 {
                (k % 7, None)
            } else {
                (k % (k + 1), Some(format!("line {k}")))
            }
        })
        .collect();
    for (idx, action) in script {
        match action {
            Some(text) => {
                let i = idx.min(s.len());
                s.local_insert(i, text.clone()).unwrap();
                u.local_insert(i, text).unwrap();
            }
            None => {
                if !s.is_empty() {
                    let i = idx % s.len();
                    s.local_delete(i).unwrap();
                    u.local_delete(i).unwrap();
                }
            }
        }
    }
    assert_eq!(s.to_vec(), u.to_vec());
    assert_eq!(u.stats().tombstones, 0, "UDIS never stores tombstones");
    assert!(
        s.stats().tombstones > 0,
        "SDIS keeps tombstones until a flatten"
    );
}

#[test]
fn causal_delivery_handles_out_of_order_messages_across_three_sites() {
    let registry = Registry::new();
    let mut replicas: Vec<Replica<SDoc>> = (1..=3)
        .map(|n| {
            let mut replica = Replica::new(site(n), SDoc::new(site(n)));
            replica.set_telemetry(&registry.handle());
            replica
        })
        .collect();

    // Site 1 creates content, site 2 reacts to it, site 3 receives
    // everything in the *wrong* order and must hold messages back.
    let op1 = replicas[0]
        .doc_mut()
        .local_insert(0, "root".to_string())
        .unwrap();
    let m1 = replicas[0].stamp(op1);
    replicas[1].receive(m1.clone());
    let op2 = replicas[1]
        .doc_mut()
        .local_insert(1, "reply".to_string())
        .unwrap();
    let m2 = replicas[1].stamp(op2);
    let op3 = replicas[1].doc_mut().local_delete(0).unwrap();
    let m3 = replicas[1].stamp(op3);

    // Deliver to site 3 in reverse causal order.
    assert_eq!(replicas[2].receive(m3.clone()), 0);
    assert_eq!(replicas[2].receive(m2.clone()), 0);
    assert_eq!(
        replicas[2].receive(m1.clone()),
        3,
        "the whole chain flushes at once"
    );
    // And to site 1 (which already has its own op).
    replicas[0].receive(m2);
    replicas[0].receive(m3);

    let reference = replicas[1].doc().to_vec();
    assert_eq!(replicas[0].doc().to_vec(), reference);
    assert_eq!(replicas[2].doc().to_vec(), reference);
    assert_eq!(reference, vec!["reply".to_string()]);
    let counters = registry.snapshot();
    assert_eq!(counters.counter("replica.ops_applied"), Some(6));
    assert_eq!(counters.counter("replica.replays_skipped"), Some(0));
}

#[test]
fn simulated_sessions_converge_under_partitions_and_reordering() {
    for seed in [1, 7, 2024] {
        let report = run(&Scenario {
            sites: 4,
            edits_per_site: 80,
            delete_ratio: 0.35,
            partition_first_site: true,
            seed,
            ..Default::default()
        });
        assert!(report.converged, "seed {seed}: {report:?}");
        assert_eq!(report.replays_skipped, 0, "seed {seed}: {report:?}");
        assert_eq!(report.ops_generated, 4 * 80);
    }
}

#[test]
fn balanced_and_unbalanced_replicas_interoperate() {
    // One replica uses the §4.1 balancing strategies, the other does not;
    // they still converge because balancing only changes which fresh
    // identifiers a replica picks for its own inserts.
    let seed: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
    let mut plain = SDoc::from_atoms(site(1), &seed);
    let mut balanced = Treedoc::<String, Sdis>::from_atoms_with_config(
        site(2),
        &seed,
        treedoc_repro::core::TreedocConfig::balanced(),
    );
    let mut ops_a = Vec::new();
    let mut ops_b = Vec::new();
    for k in 0..40 {
        ops_a.push(plain.local_insert(plain.len(), format!("p{k}")).unwrap());
        ops_b.push(
            balanced
                .local_insert(balanced.len(), format!("b{k}"))
                .unwrap(),
        );
    }
    for op in &ops_b {
        plain.apply(op).unwrap();
    }
    for op in &ops_a {
        balanced.apply(op).unwrap();
    }
    assert_eq!(plain.to_vec(), balanced.to_vec());
}

/// Each round one site types a burst and every site hears it; then all
/// three sites backspace over the burst's last atom (every fourth writer
/// twice) and type into the gap before hearing of each other, so every
/// keystroke lands over the same dead cell. Each site receives the others'
/// messages in a scrambled order, held back by causal delivery.
fn concurrent_backspaces_converge<D>(seed: u64)
where
    D: WireDis + HasSource,
    Treedoc<String, D>: ReplicatedDocument<Op = Op<String, D>>,
{
    let registry = Registry::new();
    let mut replicas: Vec<Replica<Treedoc<String, D>>> = (1..=3)
        .map(|n| {
            let mut replica = Replica::new(site(n), Treedoc::new(site(n)));
            replica.set_telemetry(&registry.handle());
            replica
        })
        .collect();
    let mut rng = seed;
    let mut next = |bound: usize| {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (rng >> 33) as usize % bound
    };
    let mut atoms = 0;
    let mut inbox: Vec<Vec<CausalMessage<Op<String, D>>>> = vec![Vec::new(); 3];
    for round in 0..40 {
        let typist = next(3);
        let start = next(replicas[typist].doc().len() + 1);
        let burst = 2 + next(5);
        for k in 0..burst {
            atoms += 1;
            let doc = replicas[typist].doc_mut();
            let op = doc.local_insert(start + k, format!("{typist}.{atoms}"));
            send(&mut inbox, &mut replicas[typist], typist, op.unwrap());
        }
        deliver_scrambled(&mut replicas, &mut inbox, &mut next);
        let cursor = start + burst;
        for (w, replica) in replicas.iter_mut().enumerate() {
            let back = 1 + usize::from((round + w) % 4 == 0);
            for b in 1..=back {
                let op = replica.doc_mut().local_delete(cursor - b).unwrap();
                send(&mut inbox, replica, w, op);
            }
            for k in 0..1 + next(3) {
                atoms += 1;
                let doc = replica.doc_mut();
                let op = doc.local_insert(cursor - back + k, format!("{w}.{atoms}"));
                send(&mut inbox, replica, w, op.unwrap());
            }
        }
        deliver_scrambled(&mut replicas, &mut inbox, &mut next);
        let skipped = registry.snapshot().counter("replica.replays_skipped");
        assert_eq!(skipped, Some(0), "seed {seed}, round {round}");
        let digest = replicas[0].digest();
        for replica in &replicas {
            assert_eq!(replica.pending(), 0, "seed {seed}, round {round}");
            assert_eq!(replica.digest(), digest, "seed {seed}, round {round}");
            assert_eq!(replica.doc().to_vec(), replicas[0].doc().to_vec());
            replica.doc().check_invariants().unwrap();
        }
    }
}

/// Stamps `op` at `from` and queues it for every other site.
fn send<Doc: ReplicatedDocument>(
    inbox: &mut [Vec<CausalMessage<Doc::Op>>],
    replica: &mut Replica<Doc>,
    from: usize,
    op: Doc::Op,
) {
    let msg = replica.stamp(op);
    for (to, queue) in inbox.iter_mut().enumerate() {
        if to != from {
            queue.push(msg.clone());
        }
    }
}

/// Hands every queued message to its recipient, each queue shuffled.
fn deliver_scrambled<Doc: ReplicatedDocument>(
    replicas: &mut [Replica<Doc>],
    inbox: &mut [Vec<CausalMessage<Doc::Op>>],
    next: &mut impl FnMut(usize) -> usize,
) {
    for (to, queue) in inbox.iter_mut().enumerate() {
        while !queue.is_empty() {
            let msg = queue.swap_remove(next(queue.len()));
            replicas[to].receive(msg);
        }
    }
}

#[test]
fn concurrent_backspaces_over_one_dead_cell_converge() {
    for seed in [1, 2, 3] {
        concurrent_backspaces_converge::<Sdis>(seed);
        concurrent_backspaces_converge::<Udis>(seed);
    }
}

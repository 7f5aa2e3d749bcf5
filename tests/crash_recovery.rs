//! Integration tests for the durability subsystem: crash/restart in the
//! simulator, the digest-equality acceptance check, flatten-commit WAL
//! compaction, and recovery through the real file backend.

use treedoc_repro::prelude::*;
use treedoc_repro::storage::DecodeError;

#[test]
fn crashed_run_matches_the_crash_free_digest() {
    // The acceptance cell: a session in which a replica crashes mid-run and
    // recovers from its DocStore converges to the same digest as the same
    // session without the crash.
    let crashed = crash_recovery_demo(42, true);
    let clean = crash_recovery_demo(42, false);
    assert!(crashed.converged, "{crashed:?}");
    assert!(clean.converged, "{clean:?}");
    assert_eq!(crashed.final_digest, clean.final_digest, "{crashed:?}");
    assert!(crashed.snapshot_hit && crashed.wal_records_replayed > 0);
    assert!(
        crashed.lost_edit_recovered,
        "an edit whose every network copy was dropped survives only through \
         the WAL: {crashed:?}"
    );
}

#[test]
fn randomised_crash_scenarios_converge_with_recovery_accounting() {
    for seed in [1, 7, 2026] {
        let report = treedoc_repro::sim::run(&Scenario {
            sites: 4,
            edits_per_site: 40,
            // Checkpoints land at the end of rounds 2 and 5; crashing at
            // round 4 guarantees a non-empty WAL tail to replay.
            snapshot_cadence: Some(3),
            seed,
            ..Scenario::crash_faulty(2, 4, 6)
        });
        assert!(report.converged, "seed {seed}: {report:?}");
        assert_eq!(report.crashes, 1, "seed {seed}");
        assert_eq!(report.snapshot_hits, 1, "seed {seed}");
        assert!(report.wal_records_replayed > 0, "seed {seed}: {report:?}");
        assert!(report.recovered_bytes > 0, "seed {seed}: {report:?}");
    }
}

#[test]
fn flatten_commit_truncates_the_wal_to_post_epoch_records() {
    // Direct assertion of the compaction invariant on a live store: after a
    // committed flatten, every surviving WAL record carries the new epoch.
    let sites = [SiteId::from_u64(1), SiteId::from_u64(2)];
    let seed: Vec<String> = (0..6).map(|i| format!("seed {i}")).collect();
    let mut a = Replica::new(
        sites[0],
        Treedoc::<String, Sdis>::from_atoms(sites[0], &seed),
    );
    let mut b = Replica::new(
        sites[1],
        Treedoc::<String, Sdis>::from_atoms(sites[1], &seed),
    );
    a.attach_store(DocStore::in_memory()).unwrap();
    b.attach_store(DocStore::in_memory()).unwrap();

    for k in 0..5 {
        let op = a
            .doc_mut()
            .local_insert(k, format!("pre-flatten {k}"))
            .unwrap();
        let env = a.stamp_envelope(op);
        let _ = b.receive_any(env);
    }
    let ack = Envelope::Ack {
        from: b.site(),
        clock: b.clock().clone(),
    };
    let _ = a.receive_any(ack);
    assert!(
        a.store()
            .unwrap()
            .wal_entries()
            .unwrap()
            .entries
            .iter()
            .any(|e| e.epoch == 0),
        "pre-flatten records sit in the WAL at epoch 0"
    );

    let propose = a
        .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
        .expect("quiescent proposer votes Yes");
    let txn = propose.proposal.txn;
    let (_, reply) = b.receive_any(Envelope::FlattenPropose(propose));
    assert!(reply.is_some());
    a.finish_flatten(txn, true);
    let _ = b.receive_any(Envelope::FlattenDecision(
        treedoc_repro::replication::FlattenDecision {
            txn,
            kind: treedoc_repro::replication::DecisionKind::Commit,
        },
    ));

    for r in [&mut a, &mut b] {
        assert_eq!(r.flatten_epoch(), 1);
        let replayed = r.store().unwrap().wal_entries().unwrap();
        assert!(
            replayed.entries.is_empty(),
            "the commit checkpoint empties the WAL: {replayed:?}"
        );
    }
    // Post-epoch traffic lands in the truncated WAL tagged with epoch 1.
    let op = a
        .doc_mut()
        .local_insert(0, "post-flatten".to_string())
        .unwrap();
    let env = a.stamp_envelope(op);
    let _ = b.receive_any(env);
    for r in [&a, &b] {
        let replayed = r.store().unwrap().wal_entries().unwrap();
        assert!(!replayed.entries.is_empty());
        assert!(
            replayed.entries.iter().all(|e| e.epoch >= 1),
            "post-compaction WAL contains only post-epoch records: {replayed:?}"
        );
    }
}

#[test]
fn json_prefixed_wal_record_fails_recovery_with_a_typed_error() {
    // One WAL format is read: binary records. A frame that passes its CRC
    // but holds another format — here the JSON text an earlier encoder
    // wrote for a PeersEnabled record — must fail recovery with a typed
    // error, not a panic and not a silently skipped record.
    let foreign: &[u8] = br#"{"PeersEnabled":{"peers":[[0,0,0,0,0,1],[0,0,0,0,0,2]]}}"#;
    let site = SiteId::from_u64(9);
    let mut replica = Replica::new(site, Treedoc::<String, Sdis>::new(site));
    replica.attach_store(DocStore::in_memory()).unwrap();
    let mut store = replica.detach_store().unwrap();
    store.append(0, foreign).unwrap();
    let wal = store.wal_entries().unwrap();
    assert_eq!(wal.entries.len(), 1, "the frame itself is intact: {wal:?}");
    assert_eq!(wal.entries[0].payload, foreign);

    let Err(err) = Replica::<Treedoc<String, Sdis>>::recover(store) else {
        panic!("a foreign record must not recover");
    };
    match err {
        RecoverError::Parse(msg) => {
            assert!(msg.contains("unsupported wire version 123"), "{msg}")
        }
        other => panic!("expected RecoverError::Parse, got {other:?}"),
    }
}

#[test]
fn recovery_works_through_the_real_file_backend() {
    let dir = std::env::temp_dir().join(format!("treedoc-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let site = SiteId::from_u64(1);
    let digest = {
        let backend = FileBackend::open(&dir).unwrap();
        let mut replica = Replica::new(site, Treedoc::<String, Sdis>::new(site));
        replica
            .attach_store(DocStore::new(backend).unwrap())
            .unwrap();
        for k in 0..8 {
            let op = replica
                .doc_mut()
                .local_insert(k, format!("durable line {k}"))
                .unwrap();
            let _ = replica.stamp(op);
        }
        replica.digest()
        // The replica (and its file handles) drop here: the "process" dies.
    };

    let backend = FileBackend::open(&dir).unwrap();
    let (recovered, report) =
        Replica::<Treedoc<String, Sdis>>::recover(DocStore::new(backend).unwrap()).unwrap();
    assert_eq!(recovered.digest(), digest, "{report:?}");
    assert!(report.snapshot_hit);
    assert_eq!(report.wal_records_replayed, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshots_fall_back_and_corrupt_trees_are_diagnosed() {
    // A store whose newest snapshot is corrupt falls back to the previous
    // one; a DiskImage with a broken structure reports a typed error.
    let site = SiteId::from_u64(3);
    let mut replica = Replica::new(site, Treedoc::<String, Sdis>::new(site));
    replica.attach_store(DocStore::in_memory()).unwrap();
    let op = replica
        .doc_mut()
        .local_insert(0, "kept".to_string())
        .unwrap();
    let _ = replica.stamp(op);
    replica.persist_checkpoint().unwrap();
    let digest = replica.digest();
    let store = replica.detach_store().unwrap();
    let (recovered, report) = Replica::<Treedoc<String, Sdis>>::recover(store).unwrap();
    assert_eq!(recovered.digest(), digest);
    assert_eq!(report.corrupt_snapshots_skipped, 0);

    let doc: Treedoc<String, Sdis> = Treedoc::from_atoms(site, &["a".to_string(), "b".to_string()]);
    let mut image = DiskImage::encode(&doc.tree());
    image.structure.truncate(2);
    match image.decode::<Sdis>() {
        Err(DecodeError::BadRleRun | DecodeError::TruncatedStructure) => {}
        other => panic!("expected a typed decode error, got {other:?}"),
    }
}

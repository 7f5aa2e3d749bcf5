//! Integration tests for the durability subsystem: crash/restart in the
//! simulator, the digest-equality acceptance check, flatten-commit WAL
//! compaction, and recovery through the real file backend.

use treedoc_reference::{DiskImage, Tree};
use treedoc_repro::prelude::*;
use treedoc_repro::replication::persist::{SECTION_CELLS, SECTION_DOC};
use treedoc_repro::storage::{content_hash64, SnapshotError};

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
    let effect = b.receive_any(Envelope::FlattenPropose(propose));
    assert_eq!(effect.replies.len(), 1, "a vote");
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
    // one; a cell section cut short reports a typed error.
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
    let mut snapshot = Snapshot::new();
    doc.encode_sections(&mut snapshot);
    let cells = snapshot.section(SECTION_CELLS).unwrap().to_vec();
    snapshot.push_section(SECTION_CELLS, cells[..cells.len() - 1].to_vec());
    match Treedoc::<String, Sdis>::decode_sections(&snapshot) {
        Err(RecoverError::Snapshot(SnapshotError::SectionHash(_))) => {}
        other => panic!("expected a typed decode error, got {other:?}"),
    }
}

#[test]
fn old_format_snapshots_fail_with_a_missing_section() {
    // The §5.2 heap-image layout: `tree.structure` + `tree.atoms`, the
    // atoms hash in `doc.state` — and no `doc.cells`.
    let atoms: Vec<String> = (0..5).map(|k| format!("line {k}")).collect();
    let doc = Treedoc::<String, Sdis>::from_atoms(SiteId::from_u64(4), &atoms);
    let image = DiskImage::encode(&Tree::of_doc(&doc));
    let atoms = serde_json::to_string(&image.atoms).unwrap().into_bytes();
    let meta = r#"{"revision":0,"config":{"balancing":false},"source":{"site":4},"atoms_hash":"#;
    let mut old = Snapshot::new();
    old.push_section(
        SECTION_DOC,
        format!("{meta}{}}}", content_hash64(&atoms)).into(),
    );
    old.push_section("tree.structure", image.structure);
    old.push_section("tree.atoms", atoms);
    let mut store = DocStore::in_memory();
    store.checkpoint(0, &old).unwrap();
    match Replica::<Treedoc<String, Sdis>>::recover(store) {
        Err(RecoverError::Snapshot(SnapshotError::MissingSection(SECTION_CELLS))) => {}
        other => panic!("expected no doc.cells, got {:?}", other.map(|r| r.1)),
    }
}

type TypingDoc = Treedoc<char, Sdis>;

/// One step of the typing session the crash-point test replays.
#[derive(Debug, Clone, Copy)]
enum TypingStep {
    /// The writer types `char` at the end; the reader receives it.
    Key(char),
    /// The writer deletes the last character; the reader receives it.
    Backspace,
    /// The reader acknowledges what it has: a WAL record without an
    /// operation on the writer's side.
    Ack,
    /// Both replicas checkpoint (the WAL chains reset).
    Checkpoint,
}

/// Typing with runs of backspaces, periodic acknowledgements and one
/// mid-session checkpoint.
fn typing_script(len: usize) -> Vec<TypingStep> {
    (0..len)
        .map(|k| match k {
            _ if k == len / 2 => TypingStep::Checkpoint,
            _ if k % 13 == 11 || k % 13 == 12 => TypingStep::Backspace,
            _ if k % 10 == 9 => TypingStep::Ack,
            _ => TypingStep::Key(char::from(b'a' + (k % 26) as u8)),
        })
        .collect()
}

/// A writer and a remote reader, each journaling to its own disk and
/// counting into its own registry (bound after a recovery, so a recovered
/// pair counts only what it writes afterwards).
struct TypingPair {
    writer: Replica<TypingDoc>,
    reader: Replica<TypingDoc>,
    disks: [SharedBackend; 2],
    registries: [Registry; 2],
}

impl TypingPair {
    fn new() -> Self {
        let disks = [SharedBackend::in_memory(), SharedBackend::in_memory()];
        let [writer, reader] = [1, 2].map(|n| {
            let site = SiteId::from_u64(n);
            Replica::new(site, TypingDoc::new(site))
        });
        let mut pair = TypingPair {
            writer,
            reader,
            disks,
            registries: [Registry::new(), Registry::new()],
        };
        for ((replica, disk), registry) in [&mut pair.writer, &mut pair.reader]
            .into_iter()
            .zip(&pair.disks)
            .zip(&pair.registries)
        {
            replica.set_telemetry(&registry.handle());
            replica
                .attach_store(DocStore::new(disk.clone()).unwrap())
                .unwrap();
        }
        pair.writer.enable_at_least_once(&[pair.reader.site()]);
        pair
    }

    fn apply(&mut self, step: TypingStep) {
        let len = self.writer.doc().len();
        let op = match step {
            TypingStep::Key(c) => self.writer.doc_mut().local_insert(len, c).unwrap(),
            TypingStep::Backspace if len > 0 => {
                self.writer.doc_mut().local_delete(len - 1).unwrap()
            }
            TypingStep::Backspace => return,
            TypingStep::Ack => {
                let _ = self.writer.receive_any(self.reader.ack_envelope());
                return;
            }
            TypingStep::Checkpoint => {
                self.writer.persist_checkpoint().unwrap();
                self.reader.persist_checkpoint().unwrap();
                return;
            }
        };
        let envelope = self.writer.stamp_envelope(op);
        let _ = self.reader.receive_any(envelope);
    }

    fn digests(&self) -> [u64; 2] {
        [self.writer.digest(), self.reader.digest()]
    }

    fn counters(&self, name: &str) -> [u64; 2] {
        [0, 1].map(|side| {
            let counters = self.registries[side].snapshot();
            counters.counter(name).unwrap_or(0)
        })
    }

    fn wal_appends(&self) -> [u64; 2] {
        self.counters("store.wal_appends")
    }

    fn wal_bytes(&self) -> [u64; 2] {
        self.counters("store.wal_bytes")
    }

    /// What the disks hold if both replicas crash now; with `torn`, the
    /// last WAL record of each disk is cut short by a few bytes.
    fn crash_images(&self, torn: bool) -> [MemoryBackend; 2] {
        [&self.disks[0], &self.disks[1]].map(|disk| {
            let mut image = MemoryBackend::new();
            let names = disk.list().unwrap();
            for name in &names {
                image
                    .write(name, &disk.read(name).unwrap().unwrap())
                    .unwrap();
            }
            let active = names.iter().rfind(|n| n.starts_with("wal-"));
            if let (true, Some(active)) = (torn, active) {
                let mut log = image.read(active).unwrap().unwrap();
                log.truncate(log.len().saturating_sub(3));
                image.write(active, &log).unwrap();
            }
            image
        })
    }

    /// Recovers both replicas from crash images, each onto a disk of its own.
    fn recover(images: [MemoryBackend; 2]) -> Self {
        let disks = images.map(SharedBackend::new);
        let registries = [Registry::new(), Registry::new()];
        let [writer, reader] = [0, 1].map(|side| {
            let store = DocStore::new(disks[side].clone()).unwrap();
            let (mut replica, _) = Replica::<TypingDoc>::recover(store).unwrap();
            replica.set_telemetry(&registries[side].handle());
            replica
        });
        TypingPair {
            writer,
            reader,
            disks,
            registries,
        }
    }
}

#[test]
fn typing_recovers_at_every_wal_append_and_resumes_the_chain() {
    let script = typing_script(160);
    // The crash-free run: both digests, and the WAL bytes written so far,
    // after every step.
    let mut clean = TypingPair::new();
    let mut digests = vec![clean.digests()];
    let mut wal_bytes = vec![clean.wal_bytes()];
    for &step in &script {
        clean.apply(step);
        digests.push(clean.digests());
        wal_bytes.push(clean.wal_bytes());
    }

    let mut live = TypingPair::new();
    for (k, &step) in script.iter().enumerate() {
        let before = live.wal_appends();
        live.apply(step);
        let after = live.wal_appends();

        // Crash right after this step's appends: recovery lands exactly on
        // the crash-free digests.
        let recovered = TypingPair::recover(live.crash_images(false));
        assert_eq!(
            recovered.digests(),
            digests[k + 1],
            "crash after step {k} ({step:?})"
        );

        // A torn last record loses that record and nothing else.
        let torn = TypingPair::recover(live.crash_images(true)).digests();
        for side in 0..2 {
            if after[side] > before[side] {
                assert_eq!(
                    torn[side], digests[k][side],
                    "torn record of replica {side} at step {k} ({step:?})"
                );
            }
        }

        // Now and then, keep typing on the recovered pair, crash again and
        // recover: the resumed WAL chains decode to the crash-free digests.
        if k % 20 == 7 {
            let mut resumed = recovered;
            let end = (k + 16).min(script.len());
            for &step in &script[k + 1..end] {
                resumed.apply(step);
            }
            let again = TypingPair::recover(resumed.crash_images(false));
            assert_eq!(again.digests(), digests[end], "resumed after step {k}");
            // The recovered chain is the crash-free one: the records
            // written after the recovery are byte for byte those the
            // uninterrupted run wrote for the same steps.
            let crash_free = [0, 1].map(|side| wal_bytes[end][side] - wal_bytes[k + 1][side]);
            assert_eq!(resumed.wal_bytes(), crash_free, "resumed after step {k}");
        }
    }
}

/// Stamps `text` at the end of `replica`'s document.
fn type_text(replica: &mut Replica<TypingDoc>, text: &str) {
    for c in text.chars() {
        let len = replica.doc().len();
        let op = replica.doc_mut().local_insert(len, c).unwrap();
        let _ = replica.stamp_envelope(op);
    }
}

#[test]
fn stamps_after_recovering_from_a_torn_tail_survive_the_next_recovery() {
    let disk = SharedBackend::in_memory();
    let site = SiteId::from_u64(1);
    let mut writer = Replica::new(site, TypingDoc::new(site));
    writer
        .attach_store(DocStore::new(disk.clone()).unwrap())
        .unwrap();
    type_text(&mut writer, "aaaaa");
    drop(writer);

    // The crash tore the last stamp's record.
    let active = disk
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .unwrap();
    let mut log = disk.read(&active).unwrap().unwrap();
    log.truncate(log.len() - 3);
    disk.clone().write(&active, &log).unwrap();

    let (mut writer, report) =
        Replica::<TypingDoc>::recover(DocStore::new(disk.clone()).unwrap()).unwrap();
    assert!(report.torn_tail_bytes > 0);
    assert_eq!(writer.doc().to_vec(), "aaaa".chars().collect::<Vec<_>>());
    type_text(&mut writer, "bbbbb");
    let live = writer.doc().to_vec();
    drop(writer);

    let (recovered, report) = Replica::<TypingDoc>::recover(DocStore::new(disk).unwrap()).unwrap();
    assert_eq!(report.torn_tail_bytes, 0, "{report:?}");
    assert_eq!(recovered.doc().to_vec(), live);
    assert_eq!(live, "aaaabbbbb".chars().collect::<Vec<_>>());
}

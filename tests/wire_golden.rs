//! Golden wire vectors: checked-in encoded bytes for every envelope and WAL
//! record shape, asserted in **both** directions (fixture encodes to the
//! golden bytes; golden bytes decode to the fixture).
//!
//! These bytes are the wire format v4 contract. An accidental layout change
//! — reordered fields, a different tag, a varint width change — fails this
//! test loudly instead of silently breaking interop between replicas (or
//! recovery of stores written before the change). If you change the format
//! **deliberately**, bump [`codec::WIRE_VERSION`] and regenerate these
//! vectors.
//!
//! WAL records that carry operations are pinned twice: absolute (the first
//! record after a checkpoint) and chained to a predecessor. Single-op
//! envelopes are pinned both ways too: absolute (tag 1) and chained to the
//! sender's previous stamp (tag 12).
//!
//! The `replica` section of a snapshot, built from the same entry, clock
//! and envelope-body layouts, is pinned for a replica caught mid-protocol.
//!
//! Exactly one generation is decoded. The vectors pinned while the version
//! was 2 and 3 stay here as refusals: their bytes must come back as a typed
//! [`WireError::UnsupportedVersion`], never misparsed as the current layout.

use treedoc_repro::core::codec::{put_site, put_u8, put_varint};
use treedoc_repro::core::Content;
use treedoc_repro::core::{spine_successor, PathElem, PosId, Side};
use treedoc_repro::prelude::*;
use treedoc_repro::replication::persist::SECTION_REPLICA;
use treedoc_repro::replication::sync::{encode_bound, encode_cells};
use treedoc_repro::replication::{
    wire, ChainedOp, DecisionKind, FlattenDecision, FlattenPropose, FlattenVote, RangeDigest,
    SnapshotChunk, SnapshotOffer, SyncDigests, SyncRoot, SyncRuns, VoteStage, WalRecord,
};

type TestOp = Op<String, Sdis>;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn pos(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
    PosId::from_elems(
        desc.iter()
            .map(|&(bit, dis)| PathElem {
                side: Side::from_bit(bit),
                dis: dis.map(|d| Sdis::new(SiteId::from_u64(d))),
            })
            .collect(),
    )
}

fn clock(pairs: &[(u64, u64)]) -> VectorClock {
    let mut c = VectorClock::new();
    for &(s, v) in pairs {
        c.observe(SiteId::from_u64(s), v);
    }
    c
}

fn msg(sender: u64, pairs: &[(u64, u64)], op: TestOp) -> CausalMessage<TestOp> {
    CausalMessage {
        sender: SiteId::from_u64(sender),
        clock: clock(pairs),
        payload: op,
    }
}

/// Asserts both directions of one envelope golden vector.
fn check_envelope(golden_hex: &str, fixture: Envelope<TestOp>) {
    let encoded = encode_envelope(&fixture);
    assert_eq!(
        hex(&encoded),
        golden_hex,
        "wire layout changed for {fixture:?} — see the module docs before \
         regenerating this vector"
    );
    let decoded: Envelope<TestOp> = decode_envelope(&unhex(golden_hex)).expect("golden decodes");
    assert_eq!(decoded, fixture);
}

/// Asserts that `golden_hex`, an envelope pinned under an earlier wire
/// version, is refused by its version byte.
fn check_unsupported(golden_hex: &str, version: u8) {
    assert_eq!(
        decode_envelope::<TestOp>(&unhex(golden_hex)),
        Err(WireError::UnsupportedVersion(version))
    );
}

/// Asserts both directions of one WAL-record golden vector, written after
/// `prev` in the WAL chain (`None`: the record is written absolute).
fn check_wal(
    golden_hex: &str,
    fixture: WalRecord<TestOp>,
    prev: Option<&(u64, CausalMessage<TestOp>)>,
) {
    let encoded = wire::encode_wal_record(&fixture, prev);
    assert_eq!(
        hex(&encoded),
        golden_hex,
        "WAL record layout changed for {fixture:?} — see the module docs \
         before regenerating this vector"
    );
    let decoded: WalRecord<TestOp> =
        wire::decode_wal_record(&unhex(golden_hex), prev).expect("golden decodes");
    assert_eq!(decoded, fixture);
    if prev.is_some() {
        assert_eq!(
            wire::decode_wal_record::<TestOp>(&unhex(golden_hex), None),
            Err(WireError::MissingPredecessor)
        );
    }
}

#[test]
fn op_envelope_golden_vector() {
    check_envelope(
        "0401010000000000010200000000000103000000000002050000020102000000000001026869",
        Envelope::Op {
            epoch: 1,
            msg: msg(
                1,
                &[(1, 3), (2, 5)],
                Op::Insert {
                    id: pos(&[(1, None), (0, Some(1))]),
                    atom: "hi".into(),
                },
            ),
        },
    );
}

#[test]
fn op_batch_golden_vector() {
    // Three delta-encoded entries: the second elides sender and clock (same
    // sender, clock = predecessor + own increment) and shares the first's
    // path prefix; the third deletes the first entry's atom.
    check_envelope(
        "040303000000000000010100000000000101000001000100000000000101610003000101010100000000000101620003010100",
        Envelope::OpBatch(OpBatch {
            entries: vec![
                (
                    0,
                    msg(
                        1,
                        &[(1, 1)],
                        Op::Insert {
                            id: pos(&[(0, Some(1))]),
                            atom: "a".into(),
                        },
                    ),
                ),
                (
                    0,
                    msg(
                        1,
                        &[(1, 2)],
                        Op::Insert {
                            id: pos(&[(0, Some(1)), (1, Some(1))]),
                            atom: "b".into(),
                        },
                    ),
                ),
                (
                    0,
                    msg(
                        1,
                        &[(1, 3)],
                        Op::Delete {
                            id: pos(&[(0, Some(1))]),
                        },
                    ),
                ),
            ],
        }),
    );
}

#[test]
fn ack_envelope_golden_vector() {
    check_envelope(
        "0402000000000002020000000000010300000000000207",
        Envelope::Ack {
            from: SiteId::from_u64(2),
            clock: clock(&[(1, 3), (2, 7)]),
        },
    );
}

#[test]
fn flatten_envelope_golden_vectors() {
    check_envelope(
        "040400000000000102020982808080100102000000000001040000000000020401",
        Envelope::FlattenPropose(FlattenPropose {
            proposal: FlattenProposal {
                proposer: SiteId::from_u64(1),
                subtree: vec![Side::Left, Side::Right],
                base_revision: 9,
                txn: (1 << 32) | 2,
            },
            protocol: CommitProtocol::ThreePhase,
            base_clock: clock(&[(1, 4), (2, 4)]),
            epoch: 1,
        }),
    );
    check_envelope(
        "0405070000000000030100",
        Envelope::FlattenVote(FlattenVote {
            txn: 7,
            from: SiteId::from_u64(3),
            vote: Vote::Yes,
            stage: VoteStage::Vote,
        }),
    );
    check_envelope(
        "04060701",
        Envelope::FlattenDecision(FlattenDecision {
            txn: 7,
            kind: DecisionKind::Commit,
        }),
    );
}

#[test]
fn wire_v2_vectors_are_unsupported() {
    // The exact op, ack and vote vectors this file pinned while
    // WIRE_VERSION was 2.
    for golden in [
        "0201010000000000010200000000000103000000000002050000020102000000000001026869",
        "0202000000000002020000000000010300000000000207",
        "0205070000000000030100",
    ] {
        check_unsupported(golden, 2);
    }
}

/// The entries a run of sequential typing stamps: each identifier is the
/// spine successor of the previous one (exactly the cells one coalesced
/// [`treedoc_repro::core::RunTree`] run holds), the sender is constant and
/// every clock is the previous clock plus the sender's own increment.
fn run_sourced_entries() -> Vec<(u64, CausalMessage<TestOp>)> {
    let site = SiteId::from_u64(1);
    let mut doc = Treedoc::<String, Sdis>::new(site);
    (0..4)
        .map(|k| {
            let op = doc
                .local_insert(k, ["r", "u", "n", "s"][k].to_string())
                .unwrap();
            (0u64, msg(1, &[(1, k as u64 + 1)], op))
        })
        .collect()
}

/// The same entries in the per-atom layout: every entry carries its full
/// delta-encoded position identifier and none is a run step. Built from the
/// public codec primitives, so the bytes are an independent encoding rather
/// than a re-encode.
fn per_atom_batch(entries: &[(u64, CausalMessage<TestOp>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, codec::WIRE_VERSION);
    put_u8(&mut out, 3); // ENV_OP_BATCH
    put_varint(&mut out, entries.len() as u64);
    for (i, (epoch, m)) in entries.iter().enumerate() {
        put_varint(&mut out, *epoch);
        let prev = if i == 0 {
            // Head entry: full sender and clock.
            put_site(&mut out, m.sender);
            put_varint(&mut out, 1);
            put_site(&mut out, m.sender);
            put_varint(&mut out, m.clock.get(m.sender));
            None
        } else {
            // Same sender, clock = predecessor + own increment.
            put_u8(&mut out, 0b0000_0011);
            Some(&entries[i - 1].1.payload)
        };
        m.payload.encode_payload(prev, &mut out);
    }
    out
}

#[test]
fn run_sourced_batch_golden_vector() {
    let entries = run_sourced_entries();
    let batch = Envelope::OpBatch(OpBatch {
        entries: entries.clone(),
    });

    // v4 both ways: the three continuation entries are run steps (epoch,
    // flags 0x07, side byte, atom) — no position identifier on the wire.
    check_envelope(
        "040304000000000000010100000000000101000001000100000000000101720007010175000701016e0007010173",
        batch,
    );

    // The identical operations in the per-atom layout must decode to the
    // same entries — a run-coalesced document and a per-atom replica see
    // exactly the same operation stream.
    let per_atom = per_atom_batch(&entries);
    let decoded: Envelope<TestOp> = decode_envelope(&per_atom).expect("per-atom batch decodes");
    assert_eq!(decoded, Envelope::OpBatch(OpBatch { entries }));

    // And the run-step form is strictly smaller: each continuation entry
    // drops its delta-encoded identifier (a 6-byte SDIS plus the path
    // header) for a single side byte.
    let runs = unhex("040304000000000000010100000000000101000001000100000000000101720007010175000701016e0007010173");
    assert!(
        runs.len() + 8 * 3 <= per_atom.len(),
        "run batch {}B vs per-atom {}B",
        runs.len(),
        per_atom.len()
    );
}

#[test]
fn sync_envelope_golden_vectors() {
    // The five state-sync shapes wire v4 added: the root probe, a
    // digest-walk round, a leaf cell exchange, and the two snapshot
    // bootstrap envelopes.
    let mid = pos(&[(1, None), (0, Some(1))]);
    check_envelope(
        "040700000000000188776655443322112a02000000000001030000000000020501",
        Envelope::SyncRoot(SyncRoot {
            from: SiteId::from_u64(1),
            digest: 0x1122_3344_5566_7788,
            cells: 42,
            clock: clock(&[(1, 3), (2, 5)]),
            reply: true,
            want_heads: false,
            chain_heads: Vec::new(),
        }),
    );
    check_envelope(
        "040800000000000202000a000201020000000000010700000000000000030a0002010200000000000100090000000000000004",
        Envelope::SyncDigests(SyncDigests {
            from: SiteId::from_u64(2),
            ranges: vec![
                RangeDigest {
                    lo: encode_bound::<Sdis>(None),
                    hi: encode_bound(Some(&mid)),
                    digest: 7,
                    cells: 3,
                },
                RangeDigest {
                    lo: encode_bound(Some(&mid)),
                    hi: encode_bound::<Sdis>(None),
                    digest: 9,
                    cells: 4,
                },
            ],
        }),
    );
    let cells: Vec<(PosId<Sdis>, Content<String>)> = vec![
        (pos(&[(0, Some(1))]), Content::Live("hi".into())),
        (pos(&[(0, Some(1)), (1, Some(2))]), Content::Tombstone),
    ];
    check_envelope(
        "0409000000000001000a00020102000000000001021a020001000100000000000101026869010101010000000000020201",
        Envelope::SyncRuns(SyncRuns {
            from: SiteId::from_u64(1),
            lo: encode_bound::<Sdis>(None),
            hi: encode_bound(Some(&mid)),
            count: cells.len() as u64,
            cells: encode_cells(&cells),
            reply: true,
        }),
    );
    check_envelope(
        "040a000000000003efbeadde00000000ac0202",
        Envelope::SnapshotOffer(SnapshotOffer {
            from: SiteId::from_u64(3),
            digest: 0xdead_beef,
            total_bytes: 300,
            chunks: 2,
        }),
    );
    check_envelope(
        "040b000000000003010204cafebabe",
        Envelope::SnapshotChunk(SnapshotChunk {
            from: SiteId::from_u64(3),
            index: 1,
            total: 2,
            data: vec![0xca, 0xfe, 0xba, 0xbe],
        }),
    );
}

#[test]
fn wire_v3_vectors_are_unsupported() {
    // The exact op, ack, vote and run-step batch vectors this file pinned
    // while WIRE_VERSION was 3.
    for golden in [
        "0301010000000000010200000000000103000000000002050000020102000000000001026869",
        "0302000000000002020000000000010300000000000207",
        "0305070000000000030100",
        "030304000000000000010100000000000101000001000100000000000101720007010175000701016e0007010173",
    ] {
        check_unsupported(golden, 3);
    }
}

#[test]
fn wal_record_golden_vectors() {
    check_wal(
        "02010100000000000201000000000002090100010001000000000002",
        WalRecord::Stamped {
            epoch: 1,
            msg: msg(
                2,
                &[(2, 9)],
                Op::Delete {
                    id: pos(&[(0, Some(2))]),
                },
            ),
        },
        None,
    );
    check_wal(
        "020302000000000001000000000002",
        WalRecord::PeersEnabled {
            peers: vec![SiteId::from_u64(1), SiteId::from_u64(2)],
        },
        None,
    );
    check_wal(
        "02054d01",
        WalRecord::Finished {
            txn: 77,
            committed: true,
            unilateral: false,
        },
        None,
    );
}

#[test]
fn chained_wal_record_golden_vectors() {
    // Each record is delta-encoded against the WAL chain's predecessor, the
    // stamp of the absolute vector above: a stamp continuing it (tag 6,
    // sender and clock elided), an op from another site whose clock drops
    // the predecessor's site (tag 7; the clock delta writes site 2 as 0),
    // and a two-entry batch (tag 8) whose first entry chains to it.
    let prev = (
        1,
        msg(
            2,
            &[(2, 9)],
            Op::Delete {
                id: pos(&[(0, Some(2))]),
            },
        ),
    );
    check_wal(
        "0206010300010101010000000000020161",
        WalRecord::Stamped {
            epoch: 1,
            msg: msg(
                2,
                &[(2, 10)],
                Op::Insert {
                    id: pos(&[(0, Some(2)), (1, Some(2))]),
                    atom: "a".into(),
                },
            ),
        },
        Some(&prev),
    );
    check_wal(
        "0207010000000000000102000000000001030000000000020000000101010000000000010162",
        WalRecord::Received {
            envelope: Envelope::Op {
                epoch: 1,
                msg: msg(
                    1,
                    &[(1, 3)],
                    Op::Insert {
                        id: pos(&[(1, Some(1))]),
                        atom: "b".into(),
                    },
                ),
            },
        },
        Some(&prev),
    );
    check_wal(
        "02080201030101010101000000000002010102000000000001010000000000020b0001000163",
        WalRecord::Received {
            envelope: Envelope::OpBatch(OpBatch {
                entries: vec![
                    (
                        1,
                        msg(
                            2,
                            &[(2, 10)],
                            Op::Delete {
                                id: pos(&[(0, Some(2)), (1, Some(2))]),
                            },
                        ),
                    ),
                    (
                        1,
                        msg(
                            2,
                            &[(1, 1), (2, 11)],
                            Op::Insert {
                                id: pos(&[(0, Some(2))]),
                                atom: "c".into(),
                            },
                        ),
                    ),
                ],
            }),
        },
        Some(&prev),
    );
}

#[test]
fn sync_root_chain_heads_golden_vector() {
    // An echo carrying one chain head and asking for the prober's: the
    // flags byte sets bit 2 (want heads) and bit 1 (heads follow) and
    // clears bit 0 (no reply asked); the heads are a count and
    // the entry in the layout of an `Op` envelope's body (see
    // `op_envelope_golden_vector`), behind their byte length.
    let head = msg(
        1,
        &[(1, 3), (2, 5)],
        Op::Insert {
            id: pos(&[(1, None), (0, Some(1))]),
            atom: "hi".into(),
        },
    );
    let chain_heads = wire::encode_chain_heads(&[(1, head.clone())]);
    assert_eq!(
        wire::decode_chain_heads::<TestOp>(&chain_heads),
        Ok(vec![(1, head)])
    );
    check_envelope(
        "040700000000000188776655443322112a020000000000010300000000000205062501\
         010000000000010200000000000103000000000002050000020102000000000001026869",
        Envelope::SyncRoot(SyncRoot {
            from: SiteId::from_u64(1),
            digest: 0x1122_3344_5566_7788,
            cells: 42,
            clock: clock(&[(1, 3), (2, 5)]),
            reply: false,
            want_heads: true,
            chain_heads,
        }),
    );
    // Flagged heads that are absent or empty, and unknown flag bits, are
    // malformed.
    let root = "040700000000000188776655443322112a020000000000010300000000000205";
    for flags in ["02", "0200", "08", "0300"] {
        let bad = unhex(&format!("{root}{flags}"));
        assert!(decode_envelope::<TestOp>(&bad).is_err(), "flags {flags}");
    }
}

#[test]
fn chained_envelope_golden_vectors() {
    // Tag 12: a single-op envelope chained to its sender's previous stamp.
    // The header names the epoch, sender and sequence number; the
    // length-prefixed entry is delta-encoded against the predecessor. A
    // keystroke continuing the previous one is a run step (flags 07: same
    // sender, clock incremented, run step; then the side byte and atom).
    let prev = msg(
        1,
        &[(1, 3)],
        Op::Insert {
            id: pos(&[(1, Some(1))]),
            atom: "a".into(),
        },
    );
    let keystroke = msg(
        1,
        &[(1, 4)],
        Op::Insert {
            id: spine_successor(&prev.payload.id().clone(), Side::Right).expect("spine grows"),
            atom: "b".into(),
        },
    );
    check_chained("040c0000000000000104050007010162", 0, &keystroke, &prev);
    // Not a run step: a delete after a remote delivery, so the entry
    // carries the clock delta and the identifier against the predecessor's.
    let delete = msg(
        1,
        &[(1, 4), (2, 2)],
        Op::Delete {
            id: pos(&[(1, Some(1))]),
        },
    );
    check_chained(
        "040c0100000000000104140101020000000000010400000000000202010100",
        1,
        &delete,
        &prev,
    );
    // A chained envelope parked for its predecessor is journaled as a
    // received envelope (WAL tag 2), whatever the WAL chain holds.
    check_wal(
        "0202040c0000000000000104050007010162",
        WalRecord::Received {
            envelope: Envelope::OpChained(ChainedOp::after(0, &keystroke, &prev)),
        },
        None,
    );
}

/// Asserts both directions of one chained-envelope golden vector, and that
/// it resolves against `prev` to `msg`.
fn check_chained(
    golden_hex: &str,
    epoch: u64,
    msg: &CausalMessage<TestOp>,
    prev: &CausalMessage<TestOp>,
) {
    let fixture = ChainedOp::after(epoch, msg, prev);
    check_envelope(golden_hex, Envelope::OpChained(fixture.clone()));
    assert_eq!(fixture.resolve(prev).as_ref(), Some(msg));
}

#[test]
fn mid_protocol_replica_section_golden_vector() {
    // Site 2 checkpoints holding a send log acked by one peer of two, a
    // pre-committed 3PC flatten, an op held for the next epoch and a
    // chained op parked for its predecessor. In order, the section holds
    // the site, its delivered clock, the held-back messages (none: the
    // parked op waits in the chain resolver), the epoch-held op, the send
    // log, the flatten part, the chain heads and the parked op.
    let golden = concat!(
        "0000000000020100000000000202000101000000000001020000000000010100",
        "0000000002020000020002000000000001016101020000000000010200000000",
        "0003000200000000000002010000000000020100000100010000000000020162",
        "0007010162000181808080100100000200000000000100008180808010000101",
        "0000000000010200000000000101000000000002020000020002000000000001",
        "0161010000000000000302050007010163",
    );
    let site = SiteId::from_u64;
    let new = |n| Replica::new(site(n), Treedoc::<String, Sdis>::new(site(n)));
    let (mut a, mut b, mut c) = (new(1), new(2), new(3));
    b.enable_at_least_once(&[site(1), site(3)]);
    b.attach_store(DocStore::in_memory()).unwrap();
    for i in 0..2 {
        let op = b.doc_mut().local_insert(i, "b".into()).unwrap();
        a.receive(b.stamp(op));
    }
    b.receive_envelope(a.ack_envelope());
    let mut type_c = |i| {
        let op = c.doc_mut().local_insert(i, "c".into()).unwrap();
        c.stamp_envelope(op)
    };
    let _lost = type_c(0);
    b.receive_envelope(type_c(1));
    let propose = a.propose_flatten(Vec::new(), CommitProtocol::ThreePhase);
    let txn = propose.as_ref().unwrap().proposal.txn;
    let _ = b.receive_any(Envelope::FlattenPropose(propose.unwrap()));
    let kind = DecisionKind::PreCommit;
    let _ = b.receive_any(Envelope::FlattenDecision(FlattenDecision { txn, kind }));
    a.finish_flatten(txn, true);
    let op = a.doc_mut().local_insert(0, "a".into()).unwrap();
    b.receive_envelope(a.stamp_envelope(op));
    assert_eq!(b.pending(), 2, "one epoch-held op, one parked op");
    b.persist_checkpoint().unwrap();

    // The checkpoint writes the golden bytes; recovered from them, the
    // replica writes them again.
    let section = |store: &mut DocStore| {
        let snapshot = store.recover().unwrap().snapshot.unwrap().1;
        hex(snapshot.section(SECTION_REPLICA).unwrap())
    };
    let mut store = b.detach_store().unwrap();
    assert_eq!(
        section(&mut store),
        golden,
        "replica section layout changed — see the module docs before \
         regenerating this vector"
    );
    let (mut loaded, _) = Replica::<Treedoc<String, Sdis>>::recover(store).unwrap();
    loaded.persist_checkpoint().unwrap();
    assert_eq!(section(&mut loaded.detach_store().unwrap()), golden);
}

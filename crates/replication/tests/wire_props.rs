//! Property tests for the binary wire codec: arbitrary envelopes (chained
//! ones included), operation batches, WAL records and chained WAL record
//! streams round-trip exactly, and truncated, bit-flipped or arbitrary bytes
//! never panic a decoder or the resolver of chained envelopes.

use proptest::prelude::*;
use treedoc_core::{spine_successor, Op, PathElem, PosId, Sdis, Side, SiteId, Treedoc};
use treedoc_replication::wire::{self, WalChain, WireError};
use treedoc_replication::{
    decode_envelope, encode_envelope, CausalMessage, ChainedOp, CommitProtocol, Envelope,
    FlattenProposal, OpBatch, Replica, VectorClock, Vote, WalRecord,
};

type TestOp = Op<String, Sdis>;
type Env = Envelope<TestOp>;

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

fn arb_posid() -> impl Strategy<Value = PosId<Sdis>> {
    proptest::collection::vec((0u8..2, proptest::option::of(0u64..6)), 0..10).prop_map(|elems| {
        PosId::from_elems(
            elems
                .into_iter()
                .map(|(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(|d| Sdis::new(site(d))),
                })
                .collect(),
        )
    })
}

fn arb_op() -> impl Strategy<Value = TestOp> {
    (arb_posid(), proptest::option::of("[a-zA-Z0-9 _-]{0,24}")).prop_map(|(id, atom)| match atom {
        Some(atom) => Op::Insert { id, atom },
        None => Op::Delete { id },
    })
}

fn arb_clock() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec((0u64..8, 1u64..1000), 0..6).prop_map(|entries| {
        let mut clock = VectorClock::new();
        for (s, v) in entries {
            clock.observe(site(s), v);
        }
        clock
    })
}

fn arb_msg() -> impl Strategy<Value = CausalMessage<TestOp>> {
    (0u64..8, arb_clock(), arb_op()).prop_map(|(sender, clock, payload)| CausalMessage {
        sender: site(sender),
        clock,
        payload,
    })
}

/// A batch whose clocks form the monotone chain real stamping produces:
/// each entry's clock dominates its predecessor's (the sender increments
/// its own counter, possibly after observing other sites' progress).
fn arb_batch() -> impl Strategy<Value = OpBatch<TestOp>> {
    (
        arb_clock(),
        proptest::collection::vec(
            (
                0u64..8,
                proptest::collection::vec((0u64..8, 1u64..20), 0..3),
                arb_op(),
                0u64..4,
            ),
            0..12,
        ),
    )
        .prop_map(|(base, steps)| {
            let mut clock = base;
            let entries = steps
                .into_iter()
                .map(|(sender, observes, op, epoch)| {
                    for (s, bump) in observes {
                        let current = clock.get(site(s));
                        clock.observe(site(s), current + bump);
                    }
                    clock.increment(site(sender));
                    (
                        epoch,
                        CausalMessage {
                            sender: site(sender),
                            clock: clock.clone(),
                            payload: op,
                        },
                    )
                })
                .collect();
            OpBatch { entries }
        })
}

/// A stamped op and its sender's next one, as `stamp_envelope` chains
/// them: the same sender, its own counter one higher (other sites' entries
/// possibly advanced in between), and either an arbitrary payload or the
/// next keystroke of a typing run.
fn arb_chained_pair() -> impl Strategy<Value = (u64, CausalMessage<TestOp>, CausalMessage<TestOp>)>
{
    (
        0u64..4,
        arb_msg(),
        proptest::collection::vec((0u64..8, 1u64..20), 0..3),
        arb_op(),
        any::<bool>(),
    )
        .prop_map(|(epoch, mut prev, observes, op, keystroke)| {
            prev.clock.increment(prev.sender);
            let mut clock = prev.clock.clone();
            for (s, bump) in observes {
                let current = clock.get(site(s));
                clock.observe(site(s), current + bump);
            }
            clock.increment(prev.sender);
            let payload = match (&prev.payload, keystroke) {
                (Op::Insert { id, .. }, true) => match spine_successor(id, Side::Right) {
                    Some(id) => Op::Insert {
                        id,
                        atom: "k".into(),
                    },
                    None => op,
                },
                _ => op,
            };
            let msg = CausalMessage {
                sender: prev.sender,
                clock,
                payload,
            };
            (epoch, prev, msg)
        })
}

fn arb_envelope() -> impl Strategy<Value = Env> {
    prop_oneof![
        (0u64..4, arb_msg()).prop_map(|(epoch, msg)| Envelope::Op { epoch, msg }),
        arb_chained_pair().prop_map(|(epoch, prev, msg)| Envelope::OpChained(ChainedOp::after(
            epoch, &msg, &prev
        ))),
        arb_batch().prop_map(Envelope::OpBatch),
        (0u64..8, arb_clock()).prop_map(|(from, clock)| Envelope::Ack {
            from: site(from),
            clock,
        }),
        (
            0u64..8,
            proptest::collection::vec(0u8..2, 0..8),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            arb_clock(),
            0u64..4,
        )
            .prop_map(
                |(proposer, subtree, base_revision, txn, three, base_clock, epoch)| {
                    Envelope::FlattenPropose(wire_propose(
                        site(proposer),
                        subtree.into_iter().map(Side::from_bit).collect(),
                        base_revision,
                        txn,
                        three,
                        base_clock,
                        epoch,
                    ))
                }
            ),
        (any::<u64>(), 0u64..8, any::<bool>(), 0u8..3).prop_map(|(txn, from, yes, stage)| {
            Envelope::FlattenVote(treedoc_replication::FlattenVote {
                txn,
                from: site(from),
                vote: if yes { Vote::Yes } else { Vote::No },
                stage: match stage {
                    0 => treedoc_replication::VoteStage::Vote,
                    1 => treedoc_replication::VoteStage::AckPreCommit,
                    _ => treedoc_replication::VoteStage::AckDecision,
                },
            })
        }),
        (
            0u64..8,
            any::<u64>(),
            any::<u64>(),
            arb_clock(),
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec((0u64..4, arb_msg()), 0..3),
        )
            .prop_map(|(from, digest, cells, clock, reply, want_heads, heads)| {
                Envelope::SyncRoot(treedoc_replication::SyncRoot {
                    from: site(from),
                    digest,
                    cells,
                    clock,
                    reply,
                    want_heads,
                    chain_heads: wire::encode_chain_heads(&heads),
                })
            }),
        (any::<u64>(), 0u8..3).prop_map(|(txn, kind)| {
            Envelope::FlattenDecision(treedoc_replication::FlattenDecision {
                txn,
                kind: match kind {
                    0 => treedoc_replication::DecisionKind::PreCommit,
                    1 => treedoc_replication::DecisionKind::Commit,
                    _ => treedoc_replication::DecisionKind::Abort,
                },
            })
        }),
    ]
}

#[allow(clippy::too_many_arguments)]
fn wire_propose(
    proposer: SiteId,
    subtree: Vec<Side>,
    base_revision: u64,
    txn: u64,
    three: bool,
    base_clock: VectorClock,
    epoch: u64,
) -> treedoc_replication::FlattenPropose {
    treedoc_replication::FlattenPropose {
        proposal: FlattenProposal {
            proposer,
            subtree,
            base_revision,
            txn,
        },
        protocol: if three {
            CommitProtocol::ThreePhase
        } else {
            CommitProtocol::TwoPhase
        },
        base_clock,
        epoch,
    }
}

fn arb_wal_record() -> impl Strategy<Value = WalRecord<TestOp>> {
    prop_oneof![
        (0u64..4, arb_msg()).prop_map(|(epoch, msg)| WalRecord::Stamped { epoch, msg }),
        arb_envelope().prop_map(|envelope| WalRecord::Received { envelope }),
        proptest::collection::vec(0u64..8, 0..6).prop_map(|peers| WalRecord::PeersEnabled {
            peers: peers.into_iter().map(site).collect(),
        }),
        (proptest::collection::vec(0u8..2, 0..8), any::<bool>()).prop_map(|(subtree, three)| {
            WalRecord::Proposed {
                subtree: subtree.into_iter().map(Side::from_bit).collect(),
                protocol: if three {
                    CommitProtocol::ThreePhase
                } else {
                    CommitProtocol::TwoPhase
                },
            }
        }),
        (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(|(txn, committed, unilateral)| {
            WalRecord::Finished {
                txn,
                committed,
                unilateral,
            }
        }),
    ]
}

/// One step of a replica's journal: a record appended, or a checkpoint
/// attempt (which resets the chain and starts a new WAL segment).
#[derive(Debug, Clone)]
enum Step {
    Append(WalRecord<TestOp>),
    Checkpoint,
}

/// Journals as a mixed replica does: its own stamps and operations received
/// from several senders, with clocks in no particular order, batches,
/// records that carry no operation, and checkpoints.
fn arb_journal() -> impl Strategy<Value = Vec<Step>> {
    let stamped = || {
        (0u64..4, arb_msg())
            .prop_map(|(epoch, msg)| Step::Append(WalRecord::Stamped { epoch, msg }))
    };
    let step = prop_oneof![
        stamped(),
        stamped(),
        (0u64..4, arb_msg()).prop_map(|(epoch, msg)| Step::Append(WalRecord::Received {
            envelope: Envelope::Op { epoch, msg },
        })),
        arb_batch().prop_map(|batch| Step::Append(WalRecord::Received {
            envelope: Envelope::OpBatch(batch),
        })),
        arb_wal_record().prop_map(Step::Append),
        (0u8..1).prop_map(|_| Step::Checkpoint),
    ];
    proptest::collection::vec(step, 0..24)
}

/// A journal written through one chain: the segments a checkpoint cadence
/// would leave on disk, each a list of `(record, payload)` pairs.
type Segments = Vec<Vec<(WalRecord<TestOp>, Vec<u8>)>>;

fn write_journal(steps: &[Step]) -> Segments {
    let mut chain = WalChain::new();
    let mut segments: Segments = vec![Vec::new()];
    for step in steps {
        match step {
            Step::Append(record) => {
                let bytes = chain.encode(record);
                chain.advance(record.clone());
                segments
                    .last_mut()
                    .expect("one segment")
                    .push((record.clone(), bytes));
            }
            Step::Checkpoint => {
                chain.reset();
                segments.push(Vec::new());
            }
        }
    }
    segments
}

/// Decodes `bytes` through `chain`; a success must be a well-formed record,
/// one that survives a re-encode against the same predecessor.
fn decodes_cleanly(chain: &WalChain<TestOp>, bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut reader = chain.clone();
    if let Ok(record) = reader.decode(bytes) {
        let again = chain.encode(&record);
        prop_assert_eq!(chain.clone().decode(&again), Ok(record));
    }
    Ok(())
}

proptest! {
    /// Every envelope — including batches with realistic monotone clock
    /// chains — survives the encode/decode round trip bit-exactly.
    #[test]
    fn envelopes_round_trip(env in arb_envelope()) {
        let bytes = encode_envelope(&env);
        let back: Env = decode_envelope(&bytes).expect("round trip decodes");
        prop_assert_eq!(back, env);
    }

    /// Every WAL record survives the binary round trip, written absolute.
    #[test]
    fn wal_records_round_trip(record in arb_wal_record()) {
        let bytes = WalChain::new().encode(&record);
        let back = WalChain::<TestOp>::new().decode(&bytes).expect("round trip decodes");
        prop_assert_eq!(back, record);
    }

    /// The clock delta is total: any clock after any other — monotone or
    /// not, sites appearing and disappearing — round-trips, in a batch and
    /// in a WAL chain.
    #[test]
    fn any_two_clocks_round_trip_as_a_delta(
        a in arb_clock(),
        b in arb_clock(),
        ops in (arb_op(), arb_op()),
    ) {
        let first = CausalMessage { sender: site(1), clock: a, payload: ops.0 };
        let second = CausalMessage { sender: site(2), clock: b, payload: ops.1 };
        let batch = Envelope::OpBatch(OpBatch {
            entries: vec![(0, first.clone()), (0, second.clone())],
        });
        prop_assert_eq!(decode_envelope::<TestOp>(&encode_envelope(&batch)), Ok(batch));

        let mut writer = WalChain::new();
        let mut reader = WalChain::<TestOp>::new();
        for msg in [first, second] {
            let record = WalRecord::Stamped { epoch: 0, msg };
            let bytes = writer.encode(&record);
            writer.advance(record.clone());
            prop_assert_eq!(reader.decode(&bytes), Ok(record));
        }
    }

    /// A journal decodes back record for record through one chain — from
    /// its start, and from the start of every segment (where a recovery
    /// from that segment's snapshot begins) through a fresh chain.
    #[test]
    fn wal_streams_round_trip_through_the_chain(steps in arb_journal()) {
        let segments = write_journal(&steps);
        for from in 0..segments.len() {
            let mut reader = WalChain::new();
            for (record, bytes) in segments[from..].iter().flatten() {
                prop_assert_eq!(reader.decode(bytes), Ok(record.clone()));
            }
        }
    }

    /// Truncating or flipping one bit of any record of a journal yields an
    /// error or a well-formed record, never a panic.
    #[test]
    fn corrupted_wal_records_fail_cleanly(
        steps in arb_journal(),
        pick in any::<usize>(),
        frac in 0.0f64..1.0,
        bit in any::<usize>(),
    ) {
        let records: Vec<Vec<u8>> = write_journal(&steps)
            .into_iter()
            .flatten()
            .map(|(_, bytes)| bytes)
            .collect();
        prop_assume!(!records.is_empty());
        let target = pick % records.len();
        let mut chain = WalChain::new();
        for bytes in &records[..target] {
            chain.decode(bytes).expect("intact prefix decodes");
        }
        let bytes = &records[target];
        let cut = ((bytes.len() as f64) * frac) as usize;
        decodes_cleanly(&chain, &bytes[..cut])?;
        let mut flipped = bytes.clone();
        let bit = bit % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        decodes_cleanly(&chain, &flipped)?;
    }

    /// A chained record — an op-carrying record after the first of its
    /// segment — read without its predecessor is a typed error.
    #[test]
    fn chained_records_need_their_predecessor(steps in arb_journal()) {
        for segment in write_journal(&steps) {
            let mut chain = WalChain::<TestOp>::new();
            for (record, bytes) in &segment {
                let carries_ops = match record {
                    WalRecord::Stamped { .. } => true,
                    WalRecord::Received { envelope: Envelope::Op { .. } } => true,
                    WalRecord::Received { envelope: Envelope::OpBatch(batch) } => !batch.is_empty(),
                    _ => false,
                };
                if carries_ops && chain.last().is_some() {
                    prop_assert_eq!(
                        WalChain::<TestOp>::new().decode(bytes),
                        Err(WireError::MissingPredecessor)
                    );
                }
                prop_assert_eq!(chain.decode(bytes), Ok(record.clone()));
            }
        }
    }

    /// Truncating a valid envelope anywhere yields an error, never a panic
    /// or a silent mis-decode of the full value.
    #[test]
    fn truncated_envelopes_fail_cleanly(env in arb_envelope(), frac in 0.0f64..1.0) {
        let bytes = encode_envelope(&env);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_envelope::<TestOp>(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary byte soup never panics either decoder, with or without a
    /// predecessor to chain to — nor, behind a chained-envelope header,
    /// the resolver.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        prev in (0u64..4, arb_msg()),
    ) {
        let _ = decode_envelope::<TestOp>(&bytes);
        let _ = wire::decode_wal_record::<TestOp>(&bytes, None);
        let _ = wire::decode_wal_record::<TestOp>(&bytes, Some(&prev));
        let mut chained = vec![treedoc_core::WIRE_VERSION, CHAINED_TAG];
        chained.extend_from_slice(&bytes);
        resolves_cleanly(&chained, &prev.1)?;
    }

    /// A sync root's chain heads decode to the heads encoded; truncated or
    /// garbage heads fail cleanly.
    #[test]
    fn chain_heads_round_trip_and_garbage_fails_cleanly(
        heads in proptest::collection::vec((0u64..4, arb_msg()), 0..4),
        frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = wire::encode_chain_heads(&heads);
        prop_assert_eq!(wire::decode_chain_heads::<TestOp>(&bytes), Ok(heads));
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut > 0 && cut < bytes.len() {
            prop_assert!(wire::decode_chain_heads::<TestOp>(&bytes[..cut]).is_err());
        }
        if let Ok(decoded) = wire::decode_chain_heads::<TestOp>(&garbage) {
            prop_assert_eq!(
                wire::decode_chain_heads::<TestOp>(&wire::encode_chain_heads(&decoded)),
                Ok(decoded)
            );
        }
    }

    /// A chained envelope decodes to the op it was chained from, resolved
    /// against the sender's previous stamped op.
    #[test]
    fn chained_envelopes_resolve_against_their_predecessor(
        (epoch, prev, msg) in arb_chained_pair(),
    ) {
        let env: Env = Envelope::OpChained(ChainedOp::after(epoch, &msg, &prev));
        let bytes = encode_envelope(&env);
        prop_assert_eq!(bytes[1], CHAINED_TAG);
        let Ok(Envelope::OpChained(op)) = decode_envelope::<TestOp>(&bytes) else {
            return Err(TestCaseError::fail("a chained envelope decodes as one"));
        };
        prop_assert_eq!(op.resolve(&prev), Some(msg));
    }

    /// Truncating or flipping one bit of a chained envelope yields an error
    /// or a well-formed envelope, and resolving whatever decodes yields
    /// nothing or a message naming the header's sender, sequence number
    /// and epoch — never a panic.
    #[test]
    fn corrupted_chained_envelopes_fail_cleanly(
        (epoch, prev, msg) in arb_chained_pair(),
        frac in 0.0f64..1.0,
        bit in any::<usize>(),
    ) {
        let bytes = encode_envelope::<TestOp>(&Envelope::OpChained(ChainedOp::after(epoch, &msg, &prev)));
        let cut = ((bytes.len() as f64) * frac) as usize;
        resolves_cleanly(&bytes[..cut], &prev)?;
        let mut flipped = bytes.clone();
        let bit = bit % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        resolves_cleanly(&flipped, &prev)?;
    }
}

/// The tag byte of a chained envelope (after the version byte).
const CHAINED_TAG: u8 = 12;

/// Decodes `bytes` as an envelope; what decodes must be well formed (it
/// survives a re-encode), and resolving a chained one against `prev` must
/// yield nothing or a message that names the header's sender and
/// sequence number.
fn resolves_cleanly(bytes: &[u8], prev: &CausalMessage<TestOp>) -> Result<(), TestCaseError> {
    if let Ok(env) = decode_envelope::<TestOp>(bytes) {
        prop_assert_eq!(
            decode_envelope::<TestOp>(&encode_envelope(&env)),
            Ok(env.clone())
        );
        if let Envelope::OpChained(op) = env {
            if let Some(msg) = op.resolve(prev) {
                prop_assert_eq!((msg.sender, msg.seq()), (op.sender, op.seq));
            }
        }
    }
    Ok(())
}

#[test]
fn unresolvable_chained_envelopes_park_or_are_counted_never_panic() {
    type Doc = Treedoc<String, Sdis>;
    let (writer_site, reader_site) = (site(1), site(2));
    let mut writer = Replica::new(writer_site, Doc::new(writer_site));
    let mut reader = Replica::new(reader_site, Doc::new(reader_site));
    let registry = treedoc_telemetry::Registry::new();
    reader.set_telemetry(&registry.handle());
    let dropped = || registry.snapshot().counter("replica.chained_ops_dropped");
    let mut envelopes = Vec::new();
    for k in 0..4 {
        let op = writer
            .doc_mut()
            .local_insert(k, format!("line {k}"))
            .unwrap();
        envelopes.push(writer.stamp_envelope(op));
    }
    let chained = |env: &Env| match env {
        Envelope::OpChained(op) => op.clone(),
        other => panic!("expected a chained envelope, got {other:?}"),
    };

    // Its predecessor never arrived: the op parks.
    assert_eq!(reader.receive_envelope(envelopes[2].clone()), 0);
    assert_eq!(reader.pending(), 1);
    assert_eq!(dropped(), Some(0));

    // The reader holds op 1 as the head of site 1's chain, but a chained
    // op 2 naming another epoch, or garbage, does not resolve against it.
    assert_eq!(reader.receive_envelope(envelopes[0].clone()), 1);
    let mut other_epoch = chained(&envelopes[1]);
    other_epoch.epoch = 7;
    assert_eq!(reader.receive_envelope(Envelope::OpChained(other_epoch)), 0);
    let mut garbage = chained(&envelopes[1]);
    garbage.entry = vec![0, 0xff, 0xff, 0xff];
    assert_eq!(reader.receive_envelope(Envelope::OpChained(garbage)), 0);
    assert_eq!(dropped(), Some(2));

    // The real op 2 resolves, and the parked op 3 in cascade.
    assert_eq!(reader.receive_envelope(envelopes[1].clone()), 2);
    assert_eq!(reader.pending(), 0);
    // Not chained to anything the reader holds: parks, never panics.
    let stray = ChainedOp {
        epoch: 0,
        sender: site(5),
        seq: 9,
        entry: vec![0, 0x07],
    };
    assert_eq!(reader.receive_envelope(Envelope::OpChained(stray)), 0);
    assert_eq!(reader.pending(), 1);
    assert_eq!(reader.receive_envelope(envelopes[3].clone()), 1);
    assert_eq!(writer.doc().to_vec(), reader.doc().to_vec());
}

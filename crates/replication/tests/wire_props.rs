//! Property tests for the binary wire codec: arbitrary envelopes, operation
//! batches and WAL records round-trip exactly, and arbitrary byte soup never
//! panics a decoder.

use proptest::prelude::*;
use treedoc_core::{Op, PathElem, PosId, Sdis, Side, SiteId};
use treedoc_replication::wire;
use treedoc_replication::{
    decode_envelope, encode_envelope, CausalMessage, CommitProtocol, Envelope, FlattenProposal,
    OpBatch, VectorClock, Vote, WalRecord,
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

fn arb_envelope() -> impl Strategy<Value = Env> {
    prop_oneof![
        (0u64..4, arb_msg()).prop_map(|(epoch, msg)| Envelope::Op { epoch, msg }),
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

proptest! {
    /// Every envelope — including batches with realistic monotone clock
    /// chains — survives the encode/decode round trip bit-exactly.
    #[test]
    fn envelopes_round_trip(env in arb_envelope()) {
        let bytes = encode_envelope(&env);
        let back: Env = decode_envelope(&bytes).expect("round trip decodes");
        prop_assert_eq!(back, env);
    }

    /// Every WAL record survives the binary round trip.
    #[test]
    fn wal_records_round_trip(record in arb_wal_record()) {
        let bytes = wire::encode_wal_record(&record);
        let back: WalRecord<TestOp> = wire::decode_wal_record(&bytes).expect("round trip decodes");
        prop_assert_eq!(back, record);
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

    /// Arbitrary byte soup never panics either decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_envelope::<TestOp>(&bytes);
        let _ = wire::decode_wal_record::<TestOp>(&bytes);
    }
}

//! Chained single-op envelopes: an operation shipped as a delta against its
//! sender's previous stamped operation, and the receiver-side resolver that
//! turns it back into the absolute message.
//!
//! A typing keystroke continues the previous one, so its entry against that
//! predecessor is a run step of a few bytes (see the envelope table in
//! [`crate::wire`]). The receiver keeps, per sender, the last operations it
//! resolved — its **chain heads** — and resolves a [`ChainedOp`] `(S, n, e)`
//! against the head holding `S`'s op `n − 1` stamped in epoch `e`. The
//! resolved message's identifier derives from the head's, so it lands on
//! the chain the receiver already stores and applies cheaply.
//!
//! * A chained op whose predecessor has not resolved yet is **parked** by
//!   `(sender, seq)` and resolves in cascade once the predecessor does.
//! * Every absolute op resolves by itself and becomes a head: a single-op
//!   envelope always (a sender's chain opens with one), a batch entry or
//!   retransmission when the receiver already follows that sender's
//!   chain. So loss heals through at-least-once retransmission exactly as
//!   for absolute envelopes, and senders that only batch cost nothing.
//! * A few heads are kept per sender, not one: an absolute op that
//!   overtakes a chained one (after a flatten, say) must not strand it.
//! * Parked ops the delivered clock already covers are dropped as
//!   duplicates (a sync fast-forward can cover them).
//! * A replica that gets operations by state transfer rather than from
//!   their envelopes holds no head for them, so the roots that close a sync
//!   session carry the newest heads the peer may lack
//!   ([`crate::sync::SyncRoot::chain_heads`]) and the replica that
//!   fast-forwards its clock adopts them with it. Envelopes
//!   chained to a transferred op then resolve, and parked ones resolve in
//!   cascade — the same sync that releases an absolute op held back in the
//!   causal buffer releases a parked chained one.
//!
//! Heads and parked ops are part of the replica's snapshot image, so a
//! receiver recovered from a checkpoint keeps resolving. Parking is
//! unbounded, like the causal buffer: a dropped op would be lost for good
//! wherever no retransmission runs.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::BTreeMap;

use treedoc_core::codec::{get_varint, put_varint};
use treedoc_core::{SiteId, WirePayload};
use treedoc_telemetry::{Counter, Telemetry};

use crate::causal::CausalMessage;
use crate::clock::VectorClock;
use crate::wire;

/// Chain heads kept per sender: enough for an absolute op to overtake a
/// chained one without stranding it, few enough to stay a short scan.
const HEADS_PER_SENDER: usize = 4;

/// An operation envelope delta-encoded against its sender's previous stamped
/// operation (sequence number `seq − 1`, same flatten epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedOp {
    /// The flatten epoch the operation (and its predecessor) was stamped in.
    pub epoch: u64,
    /// The sending site.
    pub sender: SiteId,
    /// The operation's sequence number at its sender (≥ 2).
    pub seq: u64,
    /// The `(epoch, message)` entry delta-encoded against the predecessor,
    /// unresolved.
    pub entry: Vec<u8>,
}

impl ChainedOp {
    /// Chains `msg`, stamped in `epoch`, to `prev`, the sender's previous
    /// stamped op.
    pub fn after<Op: WirePayload>(
        epoch: u64,
        msg: &CausalMessage<Op>,
        prev: &CausalMessage<Op>,
    ) -> Self {
        let mut entry = Vec::with_capacity(16);
        wire::put_entry_after(&mut entry, epoch, msg, prev);
        ChainedOp {
            epoch,
            sender: msg.sender,
            seq: msg.seq(),
            entry,
        }
    }

    /// The absolute message, resolved against `prev` (the sender's op
    /// `seq − 1`), or `None` when the entry does not decode against it or
    /// decodes to a message other than the one the header names.
    pub fn resolve<Op: WirePayload + Clone>(
        &self,
        prev: &CausalMessage<Op>,
    ) -> Option<CausalMessage<Op>> {
        let mut input = self.entry.as_slice();
        let (epoch, msg) = wire::get_entry_after(&mut input, prev)?;
        let names_itself = input.is_empty()
            && epoch == self.epoch
            && msg.sender == self.sender
            && msg.seq() == self.seq;
        names_itself.then_some(msg)
    }
}

/// What [`OpChains::resolve`] made of a chained op.
#[derive(Debug)]
pub(crate) enum Resolution<Op> {
    /// The op, resolved against its sender's head.
    Resolved(CausalMessage<Op>),
    /// The predecessor has not resolved yet: park the op.
    Park,
    /// The op cannot be resolved: it disagrees with the head it names.
    Invalid,
}

/// The receiver-side resolver: chain heads per sender plus parked ops.
#[derive(Debug, Clone)]
pub(crate) struct OpChains<Op> {
    /// Per sender, the last ops resolved as `(epoch, message)`, ascending
    /// by sequence number, at most [`HEADS_PER_SENDER`].
    heads: BTreeMap<SiteId, Vec<(u64, CausalMessage<Op>)>>,
    /// Chained ops waiting for their predecessor.
    parked: BTreeMap<(SiteId, u64), ChainedOp>,
    /// `replica.chained_ops_dropped`: chained ops dropped as unresolvable
    /// against the head they name.
    dropped: Counter,
}

impl<Op> Default for OpChains<Op> {
    fn default() -> Self {
        OpChains {
            heads: BTreeMap::new(),
            parked: BTreeMap::new(),
            dropped: Counter::default(),
        }
    }
}

impl<Op: WirePayload + Clone> OpChains<Op> {
    /// Counts dropped chained ops in `telemetry`'s
    /// `replica.chained_ops_dropped`.
    pub(crate) fn bind(&mut self, telemetry: &Telemetry) {
        self.dropped = telemetry.counter("replica.chained_ops_dropped");
    }

    /// Resolves `op` against its sender's heads.
    pub(crate) fn resolve(&mut self, op: &ChainedOp) -> Resolution<Op> {
        let head = self.heads.get(&op.sender).and_then(|heads| {
            heads
                .iter()
                .find(|(_, msg)| msg.seq().checked_add(1) == Some(op.seq))
        });
        let resolved = match head {
            None => return Resolution::Park,
            Some((epoch, prev)) if *epoch == op.epoch => op.resolve(prev),
            Some(_) => None,
        };
        match resolved {
            Some(msg) => Resolution::Resolved(msg),
            None => {
                self.dropped.inc();
                Resolution::Invalid
            }
        }
    }

    /// `true` when this resolver follows `sender`'s chain: it holds a head
    /// or a parked op of it.
    pub(crate) fn follows(&self, sender: SiteId) -> bool {
        self.heads.contains_key(&sender)
            || self
                .parked
                .range((sender, 0)..=(sender, u64::MAX))
                .next()
                .is_some()
    }

    /// `true` when `(sender, seq)` is already parked.
    pub(crate) fn is_parked(&self, sender: SiteId, seq: u64) -> bool {
        self.parked.contains_key(&(sender, seq))
    }

    /// Parks `op` until its predecessor resolves.
    pub(crate) fn park(&mut self, op: ChainedOp) {
        self.parked.insert((op.sender, op.seq), op);
    }

    /// `true` when `(sender, seq)` is one of the heads.
    pub(crate) fn holds(&self, sender: SiteId, seq: u64) -> bool {
        self.heads
            .get(&sender)
            .is_some_and(|heads| heads.iter().any(|(_, msg)| msg.seq() == seq))
    }

    /// The chain heads of `epoch` (the newest resolved op per sender, and
    /// `own` last stamped) that `delivered` covers and `peer` does not,
    /// encoded for a sync root.
    pub(crate) fn heads_beyond(
        &self,
        epoch: u64,
        own: Option<&(u64, CausalMessage<Op>)>,
        delivered: &VectorClock,
        peer: &VectorClock,
    ) -> Vec<u8> {
        let heads: Vec<(u64, CausalMessage<Op>)> = self
            .heads
            .values()
            .filter_map(|heads| heads.last())
            .chain(own)
            .filter(|(e, msg)| {
                let (sender, seq) = (msg.sender, msg.seq());
                *e == epoch && peer.get(sender) < seq && seq <= delivered.get(sender)
            })
            .cloned()
            .collect();
        wire::encode_chain_heads(&heads)
    }

    /// Makes `msg`, just resolved in `epoch`, its sender's newest head and
    /// returns its parked successor, resolved, if one was waiting.
    pub(crate) fn advance(
        &mut self,
        epoch: u64,
        msg: &CausalMessage<Op>,
    ) -> Option<(u64, CausalMessage<Op>)> {
        let seq = msg.seq();
        let heads = self.heads.entry(msg.sender).or_default();
        // The predecessor's head has served: its successor is resolved.
        heads.retain(|(_, head)| {
            let s = head.seq();
            s != seq && s.checked_add(1) != Some(seq)
        });
        let at = heads.partition_point(|(_, head)| head.seq() < seq);
        heads.insert(at, (epoch, msg.clone()));
        if heads.len() > HEADS_PER_SENDER {
            heads.remove(0);
        }
        self.parked.remove(&(msg.sender, seq));
        let next = self.parked.remove(&(msg.sender, seq.checked_add(1)?))?;
        let resolved = if next.epoch == epoch {
            next.resolve(msg)
        } else {
            None
        };
        if resolved.is_none() {
            self.dropped.inc();
        }
        resolved.map(|msg| (epoch, msg))
    }

    /// Drops parked ops the delivered `clock` already covers: they are
    /// duplicates now.
    pub(crate) fn drop_covered(&mut self, clock: &VectorClock) {
        self.parked
            .retain(|&(sender, seq), _| seq > clock.get(sender));
    }

    /// Ops parked right now.
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Appends the resolver's part of a replica's snapshot section: the
    /// chain heads as entries, then a count and the parked ops, each laid
    /// out as an [`Envelope::OpChained`](crate::Envelope::OpChained) body.
    pub(crate) fn encode_image(&self, out: &mut Vec<u8>) {
        wire::put_entries(out, self.heads.values().flatten());
        put_varint(out, self.parked.len() as u64);
        for op in self.parked.values() {
            wire::put_chained_op(out, op);
        }
    }

    /// Reads what [`encode_image`](Self::encode_image) wrote.
    pub(crate) fn decode_image(input: &mut &[u8]) -> Option<Self> {
        let mut chains = OpChains::default();
        for (epoch, msg) in wire::get_entries(input)? {
            chains
                .heads
                .entry(msg.sender)
                .or_default()
                .push((epoch, msg));
        }
        for _ in 0..get_varint(input)? {
            let op = wire::get_chained_op(input)?;
            chains.parked.insert((op.sender, op.seq), op);
        }
        Some(chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{spine_successor, Op, PathElem, PosId, Sdis, Side};

    type TestOp = Op<char, Sdis>;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    /// `n` typing stamps of site 1: each id the spine successor of the last.
    fn typing(n: u64) -> Vec<CausalMessage<TestOp>> {
        let mut id = PosId::from_elems(vec![PathElem {
            side: Side::Right,
            dis: Some(Sdis::new(site(1))),
        }]);
        let mut clock = VectorClock::new();
        (0..n)
            .map(|_| {
                clock.increment(site(1));
                let msg = CausalMessage {
                    sender: site(1),
                    clock: clock.clone(),
                    payload: Op::Insert {
                        id: id.clone(),
                        atom: 'k',
                    },
                };
                id = spine_successor(&id, Side::Right).expect("spine grows");
                msg
            })
            .collect()
    }

    fn chained(msgs: &[CausalMessage<TestOp>], i: usize) -> ChainedOp {
        ChainedOp::after(0, &msgs[i], &msgs[i - 1])
    }

    #[test]
    fn a_keystroke_resolves_against_its_head() {
        let msgs = typing(3);
        let mut chains: OpChains<TestOp> = OpChains::default();
        assert!(chains.advance(0, &msgs[0]).is_none());
        let op = chained(&msgs, 1);
        assert!(op.entry.len() <= 5, "run step entry: {:02x?}", op.entry);
        match chains.resolve(&op) {
            Resolution::Resolved(msg) => assert_eq!(msg, msgs[1]),
            other => panic!("expected a resolution, got {other:?}"),
        }
        // Without the predecessor the successor parks.
        assert!(matches!(
            chains.resolve(&chained(&msgs, 2)),
            Resolution::Park
        ));
    }

    #[test]
    fn parked_ops_resolve_in_cascade() {
        let msgs = typing(4);
        let mut chains: OpChains<TestOp> = OpChains::default();
        chains.park(chained(&msgs, 3));
        chains.park(chained(&msgs, 2));
        chains.park(chained(&msgs, 1));
        let mut next = chains.advance(0, &msgs[0]);
        let mut resolved = Vec::new();
        while let Some((epoch, msg)) = next {
            next = chains.advance(epoch, &msg);
            resolved.push(msg);
        }
        assert_eq!(resolved, msgs[1..]);
        assert_eq!(chains.parked_len(), 0);
    }

    #[test]
    fn an_absolute_op_overtaking_a_chained_one_does_not_strand_it() {
        let msgs = typing(4);
        let mut chains: OpChains<TestOp> = OpChains::default();
        chains.advance(0, &msgs[1]);
        chains.advance(0, &msgs[3]);
        assert!(matches!(
            chains.resolve(&chained(&msgs, 2)),
            Resolution::Resolved(_)
        ));
    }

    #[test]
    fn mismatched_epochs_and_garbage_are_dropped_not_resolved() {
        let msgs = typing(2);
        let registry = treedoc_telemetry::Registry::new();
        let mut chains: OpChains<TestOp> = OpChains::default();
        chains.bind(&registry.handle());
        chains.advance(1, &msgs[0]);
        assert!(matches!(
            chains.resolve(&chained(&msgs, 1)),
            Resolution::Invalid
        ));
        let mut garbage = chained(&msgs, 1);
        garbage.epoch = 1;
        garbage.entry = vec![1, 0xff, 0xff];
        assert!(matches!(chains.resolve(&garbage), Resolution::Invalid));
        assert_eq!(
            registry.snapshot().counter("replica.chained_ops_dropped"),
            Some(2)
        );
    }

    #[test]
    fn covered_parked_ops_are_dropped() {
        let msgs = typing(3);
        let mut chains: OpChains<TestOp> = OpChains::default();
        chains.park(chained(&msgs, 2));
        let mut clock = VectorClock::new();
        clock.set_entry(site(1), 2);
        chains.drop_covered(&clock);
        assert_eq!(chains.parked_len(), 1);
        clock.set_entry(site(1), 3);
        chains.drop_covered(&clock);
        assert_eq!(chains.parked_len(), 0);
    }
}

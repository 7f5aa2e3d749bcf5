//! Causal broadcast: messages are delivered only after everything that
//! happened-before them has been delivered.
//!
//! The CRDT property makes *concurrent* operations order-insensitive, but
//! causally related operations (e.g. the insert of an atom and its later
//! delete) must still be replayed in order (§2.2: "Updates received from
//! remote sites may be replayed as soon as received, as long as
//! happened-before order is satisfied"). The [`CausalBuffer`] implements the
//! classic vector-clock hold-back queue that provides exactly that guarantee
//! on top of an unreliable-ordering network.
//!
//! Unlike the textbook version, this buffer is **duplicate-safe**: real
//! transports provide reliable delivery through retransmission, which means
//! the same message can arrive more than once. A message whose clock is
//! already covered by `delivered` (or that is already buffered) is discarded
//! on receipt, reported as a [`Receipt::Duplicate`], instead of sitting in
//! the hold-back queue forever.
//!
//! Internally messages are held in **per-sender FIFO queues keyed by the
//! sender's own sequence number**. Delivery only ever inspects each sender's
//! next-expected message, so a receive costs O(active senders) instead of the
//! O(n²) full-queue re-sweep a flat pending list needs under heavy
//! reordering.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use treedoc_core::SiteId;

use crate::clock::VectorClock;

/// A payload stamped with its sender and the sender's vector clock at send
/// time (after incrementing its own entry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalMessage<T> {
    /// The sending site.
    pub sender: SiteId,
    /// The sender's clock, including this message's own event.
    pub clock: VectorClock,
    /// The payload (typically an [`Op`](treedoc_core::Op)).
    pub payload: T,
}

impl<T> CausalMessage<T> {
    /// The sender's sequence number for this message (its own entry in the
    /// message clock): message `n` is the `n`-th event the sender produced.
    pub fn seq(&self) -> u64 {
        self.clock.get(self.sender)
    }
}

/// What happened to the message offered to [`CausalBuffer::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receipt {
    /// The message was fresh: it was either delivered (possibly releasing
    /// buffered successors) or buffered until its predecessors arrive.
    Fresh,
    /// The message was already delivered, or an identical sequence number
    /// from the same sender is already buffered; it was discarded.
    Duplicate,
}

/// The outcome of one [`CausalBuffer::receive`] call: the messages released
/// in causal order, plus what happened to the offered message itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deliveries<T> {
    /// Messages that became deliverable, in causal order.
    pub messages: Vec<CausalMessage<T>>,
    /// Whether the offered message was fresh or a discarded duplicate.
    pub receipt: Receipt,
}

impl<T> Deliveries<T> {
    /// `true` when no message became deliverable.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Number of messages released by this receive.
    pub fn len(&self) -> usize {
        self.messages.len()
    }
}

impl<T> IntoIterator for Deliveries<T> {
    type Item = CausalMessage<T>;
    type IntoIter = std::vec::IntoIter<CausalMessage<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.messages.into_iter()
    }
}

/// The durable form of a [`CausalBuffer`]: everything a crashed replica
/// needs to resume causal delivery exactly where it stopped — the delivered
/// clock and the held-back messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalBufferImage<T> {
    /// The delivered clock at snapshot time.
    pub delivered: VectorClock,
    /// Messages that were waiting for causal predecessors.
    pub pending: Vec<CausalMessage<T>>,
}

/// A hold-back queue that releases messages in causal order.
#[derive(Debug, Clone, Default)]
pub struct CausalBuffer<T> {
    /// What this replica has already delivered.
    delivered: VectorClock,
    /// Per-sender hold-back queues keyed by the sender's sequence number.
    pending: BTreeMap<SiteId, BTreeMap<u64, CausalMessage<T>>>,
    /// Total messages across all per-sender queues.
    pending_total: usize,
}

impl<T> CausalBuffer<T> {
    /// An empty buffer.
    pub fn new() -> Self {
        CausalBuffer {
            delivered: VectorClock::new(),
            pending: BTreeMap::new(),
            pending_total: 0,
        }
    }

    /// The clock of everything delivered so far.
    pub fn delivered_clock(&self) -> &VectorClock {
        &self.delivered
    }

    /// Number of messages currently held back.
    pub fn pending_len(&self) -> usize {
        self.pending_total
    }

    /// Read-only duplicate test: `true` when a message with this sender and
    /// sequence number would be discarded by [`receive`](Self::receive)
    /// (already delivered, or an identical copy is already buffered).
    /// Lets callers skip side effects — such as journaling the message to a
    /// durable log — for traffic that cannot change replica state.
    pub fn is_duplicate(&self, sender: SiteId, seq: u64) -> bool {
        seq <= self.delivered.get(sender)
            || self
                .pending
                .get(&sender)
                .is_some_and(|queue| queue.contains_key(&seq))
    }

    /// Records a locally generated event so that later remote messages that
    /// depend on it are recognised as deliverable.
    pub fn record_local(&mut self, site: SiteId) -> VectorClock {
        self.delivered.increment(site);
        self.delivered.clone()
    }

    /// Exports the buffer for a durable snapshot.
    pub fn export_image(&self) -> CausalBufferImage<T>
    where
        T: Clone,
    {
        CausalBufferImage {
            delivered: self.delivered.clone(),
            pending: self
                .pending
                .values()
                .flat_map(|queue| queue.values().cloned())
                .collect(),
        }
    }

    /// Rebuilds a buffer from a snapshot image.
    pub fn from_image(image: CausalBufferImage<T>) -> Self {
        let mut pending: BTreeMap<SiteId, BTreeMap<u64, CausalMessage<T>>> = BTreeMap::new();
        let mut total = 0usize;
        for message in image.pending {
            pending
                .entry(message.sender)
                .or_default()
                .insert(message.seq(), message);
            total += 1;
        }
        CausalBuffer {
            delivered: image.delivered,
            pending,
            pending_total: total,
        }
    }

    /// Offers a received message; returns every message (the new one and any
    /// previously buffered ones) that becomes deliverable, in causal order.
    ///
    /// Stale messages (already delivered) and duplicates of buffered messages
    /// are discarded with a [`Receipt::Duplicate`], so retransmissions never
    /// wedge the queue.
    pub fn receive(&mut self, message: CausalMessage<T>) -> Deliveries<T> {
        let sender = message.sender;
        let seq = message.seq();
        // Stale: the sender's seq is already covered by what we delivered
        // (seq 0 would be a clock that does not even include the sender's own
        // event — treat it as stale rather than buffering it unreleasably).
        if seq <= self.delivered.get(sender) {
            return Deliveries {
                messages: Vec::new(),
                receipt: Receipt::Duplicate,
            };
        }
        let queue = self.pending.entry(sender).or_default();
        // Duplicate of a message already waiting in the hold-back queue.
        if queue.contains_key(&seq) {
            return Deliveries {
                messages: Vec::new(),
                receipt: Receipt::Duplicate,
            };
        }
        // A message that merely joins the hold-back queue changes nothing for
        // any other sender, so the cross-sender drain only runs when the
        // arrival itself is deliverable right now.
        let deliverable_now = self.delivered.is_next_deliverable(sender, &message.clock);
        queue.insert(seq, message);
        self.pending_total += 1;
        Deliveries {
            messages: if deliverable_now {
                self.drain_deliverable()
            } else {
                Vec::new()
            },
            receipt: Receipt::Fresh,
        }
    }

    /// Fast-forwards the delivered clock to cover `remote`, as justified by
    /// state-based anti-entropy: when two replicas establish that their
    /// document states are equal, everything the peer delivered is — by
    /// construction — reflected here too, so this replica may adopt the
    /// peer's coverage without replaying anything.
    ///
    /// Held-back messages whose sequence number falls under the new clock
    /// are discarded as duplicates (their effects arrived through the state
    /// transfer; [`pending_len`](Self::pending_len) drops by their number
    /// and the released messages'); messages that the merge newly unblocks are released and
    /// returned in causal order for the caller to replay.
    pub fn fast_forward(&mut self, remote: &VectorClock) -> Vec<CausalMessage<T>> {
        self.delivered.merge(remote);
        // Drop pending traffic the state transfer already covered.
        let senders: Vec<SiteId> = self.pending.keys().copied().collect();
        for sender in senders {
            let covered = self.delivered.get(sender);
            if let Some(queue) = self.pending.get_mut(&sender) {
                let keep = queue.split_off(&(covered + 1));
                self.pending_total -= queue.len();
                *queue = keep;
                if queue.is_empty() {
                    self.pending.remove(&sender);
                }
            }
        }
        self.drain_deliverable()
    }

    /// Releases every message that has become deliverable, in causal order.
    ///
    /// Only each sender's next-expected message (by sequence number) is ever
    /// examined; delivering one message may unlock other senders, so passes
    /// repeat until a pass makes no progress.
    fn drain_deliverable(&mut self) -> Vec<CausalMessage<T>> {
        let mut released = Vec::new();
        loop {
            let mut progressed = false;
            let senders: Vec<SiteId> = self.pending.keys().copied().collect();
            for sender in senders {
                while let Some(message) = self.take_next_from(sender) {
                    self.delivered.merge(&message.clock);
                    released.push(message);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        released
    }

    /// Removes and returns `sender`'s next-expected message if it is present
    /// and all its cross-sender dependencies are satisfied.
    fn take_next_from(&mut self, sender: SiteId) -> Option<CausalMessage<T>> {
        let next_seq = self.delivered.get(sender) + 1;
        let queue = self.pending.get_mut(&sender)?;
        let ready = {
            let head = queue.get(&next_seq)?;
            self.delivered.is_next_deliverable(sender, &head.clock)
        };
        if !ready {
            return None;
        }
        let message = queue.remove(&next_seq).expect("head just observed");
        if queue.is_empty() {
            self.pending.remove(&sender);
        }
        self.pending_total -= 1;
        Some(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    /// Builds the message a sender with clock `clock` would emit.
    fn msg(sender: SiteId, clock: &mut VectorClock, payload: u32) -> CausalMessage<u32> {
        clock.increment(sender);
        CausalMessage {
            sender,
            clock: clock.clone(),
            payload,
        }
    }

    #[test]
    fn in_order_messages_deliver_immediately() {
        let mut sender = VectorClock::new();
        let mut buf = CausalBuffer::new();
        for i in 0..5 {
            let delivered = buf.receive(msg(site(1), &mut sender, i));
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered.messages[0].payload, i);
            assert_eq!(delivered.receipt, Receipt::Fresh);
        }
        assert_eq!(buf.pending_len(), 0);
        assert_eq!(buf.delivered_clock().get(site(1)), 5);
    }

    #[test]
    fn out_of_order_messages_are_held_back() {
        let mut sender = VectorClock::new();
        let m1 = msg(site(1), &mut sender, 1);
        let m2 = msg(site(1), &mut sender, 2);
        let m3 = msg(site(1), &mut sender, 3);

        let mut buf = CausalBuffer::new();
        assert!(buf.receive(m3).is_empty(), "m3 depends on m1 and m2");
        assert!(buf.receive(m2).is_empty(), "m2 depends on m1");
        assert_eq!(buf.pending_len(), 2);
        let delivered = buf.receive(m1);
        assert_eq!(
            delivered
                .messages
                .iter()
                .map(|m| m.payload)
                .collect::<Vec<_>>(),
            vec![1, 2, 3],
            "releasing the missing prefix flushes the whole chain in order"
        );
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn concurrent_messages_deliver_in_any_order() {
        // Two senders that have not seen each other.
        let mut s1 = VectorClock::new();
        let mut s2 = VectorClock::new();
        let a = msg(site(1), &mut s1, 10);
        let b = msg(site(2), &mut s2, 20);
        let mut buf = CausalBuffer::new();
        assert_eq!(buf.receive(b).len(), 1);
        assert_eq!(buf.receive(a).len(), 1);
    }

    #[test]
    fn cross_site_dependency_is_respected() {
        // Site 1 emits m1; site 2 receives it and then emits m2 (which
        // causally depends on m1). A third replica receiving m2 before m1
        // must hold it back.
        let mut s1 = VectorClock::new();
        let m1 = msg(site(1), &mut s1, 1);
        let mut s2 = VectorClock::new();
        s2.merge(&m1.clock); // site 2 delivered m1
        let m2 = msg(site(2), &mut s2, 2);

        let mut buf = CausalBuffer::new();
        assert!(buf.receive(m2.clone()).is_empty());
        let delivered = buf.receive(m1);
        assert_eq!(
            delivered
                .messages
                .iter()
                .map(|m| m.payload)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn local_events_count_towards_causality() {
        // A replica that locally generated an event delivers a remote message
        // depending on that event without needing to "receive" its own.
        let mut buf = CausalBuffer::<u32>::new();
        let clock = buf.record_local(site(1));
        assert_eq!(clock.get(site(1)), 1);

        // A remote site saw our event and replies.
        let mut remote = VectorClock::new();
        remote.merge(&clock);
        let m = msg(site(2), &mut remote, 7);
        assert_eq!(buf.receive(m).len(), 1);
    }

    #[test]
    fn redelivered_message_is_discarded_not_buffered() {
        // The headline bug: a duplicate of an already-delivered message used
        // to sit in `pending` forever. It must be dropped and counted.
        let mut sender = VectorClock::new();
        let m1 = msg(site(1), &mut sender, 1);
        let mut buf = CausalBuffer::new();
        assert_eq!(buf.receive(m1.clone()).len(), 1);

        let dup = buf.receive(m1);
        assert!(dup.is_empty());
        assert_eq!(dup.receipt, Receipt::Duplicate);
        assert_eq!(buf.pending_len(), 0, "duplicate must not be buffered");
    }

    #[test]
    fn duplicate_of_a_pending_message_is_discarded() {
        let mut sender = VectorClock::new();
        let _m1 = msg(site(1), &mut sender, 1);
        let m2 = msg(site(1), &mut sender, 2);
        let mut buf = CausalBuffer::new();
        assert!(buf.receive(m2.clone()).is_empty(), "m2 waits for m1");
        assert_eq!(buf.pending_len(), 1);

        let dup = buf.receive(m2);
        assert_eq!(dup.receipt, Receipt::Duplicate);
        assert_eq!(buf.pending_len(), 1, "still exactly one copy buffered");
    }

    #[test]
    fn locally_recorded_events_make_remote_copies_stale() {
        let mut buf = CausalBuffer::<u32>::new();
        let clock = buf.record_local(site(1));
        // A (bounced) copy of our own event must be recognised as stale.
        let echo = CausalMessage {
            sender: site(1),
            clock,
            payload: 0,
        };
        let d = buf.receive(echo);
        assert_eq!(d.receipt, Receipt::Duplicate);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn fast_forward_discards_covered_messages_and_releases_the_rest() {
        let mut sender = VectorClock::new();
        let m1 = msg(site(1), &mut sender, 1);
        let m2 = msg(site(1), &mut sender, 2);
        let m3 = msg(site(1), &mut sender, 3);
        let m4 = msg(site(1), &mut sender, 4);

        let mut buf = CausalBuffer::new();
        assert!(buf.receive(m2.clone()).is_empty(), "m2 waits for m1");
        assert!(buf.receive(m4.clone()).is_empty(), "m4 waits too");
        assert_eq!(buf.pending_len(), 2);

        // A state sync covered the peer's first three events: m2 must be
        // discarded (its effect arrived via state), m4 becomes deliverable.
        let released = buf.fast_forward(&m3.clock);
        assert_eq!(
            released.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![4],
            "the uncovered held-back suffix is released"
        );
        assert_eq!(buf.pending_len(), 0, "m2 was covered and discarded");
        assert_eq!(buf.delivered_clock().get(site(1)), 4);

        // Late copies of covered messages are recognised as stale.
        assert_eq!(buf.receive(m1).receipt, Receipt::Duplicate);
        assert_eq!(buf.receive(m2).receipt, Receipt::Duplicate);
    }

    #[test]
    fn image_round_trip_preserves_delivery_behaviour() {
        // Fill a buffer with delivered and held-back traffic, snapshot it,
        // rebuild, and verify the rebuilt buffer releases exactly what the
        // original would have.
        let mut s1 = VectorClock::new();
        let m1 = msg(site(1), &mut s1, 1);
        let m2 = msg(site(1), &mut s1, 2);
        let m3 = msg(site(1), &mut s1, 3);
        let mut buf = CausalBuffer::new();
        assert_eq!(buf.receive(m1.clone()).len(), 1);
        assert!(buf.receive(m3.clone()).is_empty(), "m3 waits for m2");
        assert_eq!(buf.receive(m1).receipt, Receipt::Duplicate);

        let rebuilt = CausalBuffer::from_image(buf.export_image());
        assert_eq!(rebuilt.pending_len(), buf.pending_len());
        assert_eq!(rebuilt.delivered_clock(), buf.delivered_clock());
        let mut rebuilt = rebuilt;
        let released = rebuilt.receive(m2);
        assert_eq!(
            released
                .messages
                .iter()
                .map(|m| m.payload)
                .collect::<Vec<_>>(),
            vec![2, 3],
            "the held-back m3 survived the snapshot"
        );
        assert_eq!(rebuilt.pending_len(), 0);
    }

    #[test]
    fn heavy_reordering_with_duplicates_drains_completely() {
        // 3 senders × 40 messages, delivered interleaved in reverse per-sender
        // order with every message sent twice: everything must drain and every
        // duplicate must be counted.
        let sites: Vec<SiteId> = (1..=3).map(site).collect();
        let mut clocks: Vec<VectorClock> = sites.iter().map(|_| VectorClock::new()).collect();
        let mut emitted: Vec<CausalMessage<u32>> = Vec::new();
        for k in 0..40u32 {
            for (i, &s) in sites.iter().enumerate() {
                emitted.push(msg(s, &mut clocks[i], k));
            }
        }
        let mut buf = CausalBuffer::new();
        let (mut delivered, mut duplicates) = (0usize, 0usize);
        for m in emitted.iter().rev() {
            delivered += buf.receive(m.clone()).len();
            let again = buf.receive(m.clone()); // immediate duplicate
            delivered += again.len();
            duplicates += usize::from(again.receipt == Receipt::Duplicate);
        }
        assert_eq!(delivered, emitted.len());
        assert_eq!(buf.pending_len(), 0);
        assert_eq!(duplicates, emitted.len());
    }
}

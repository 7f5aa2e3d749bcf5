//! A deterministic discrete-event network simulator with fault injection.
//!
//! The paper evaluates Treedoc by replaying serialised edit histories; to
//! exercise the *distributed* behaviour (concurrent edits, delayed and
//! reordered delivery, partitions, the flatten commitment protocol) this
//! crate provides a small discrete-event simulator: messages are enqueued
//! with a delivery time drawn from a per-link latency model, and the
//! simulation advances by repeatedly delivering the earliest message.
//!
//! Real transports are lossier than a latency model: §3/§5.2 assume causal
//! delivery, which transports implement with retransmission — implying
//! duplicates, loss and heavy reordering. [`LinkConfig`] therefore also
//! carries per-link **drop**, **duplicate** and **reorder-burst**
//! probabilities, and [`SimNetwork`] applies them at send time from its
//! seeded RNG, so every faulty run is reproducible.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treedoc_core::SiteId;

/// Latency and fault model of a link (or of the whole network when no
/// per-link override is registered).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Minimum one-way latency in simulated milliseconds.
    pub min_latency_ms: u64,
    /// Maximum one-way latency in simulated milliseconds.
    pub max_latency_ms: u64,
    /// Probability that a message is silently lost at send time.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice (the copy gets its own
    /// independently sampled latency).
    pub duplicate_prob: f64,
    /// Probability that a message is delayed by an extra
    /// [`reorder_burst_ms`](Self::reorder_burst_ms), overtaking later
    /// traffic and producing heavy reordering.
    pub reorder_burst_prob: f64,
    /// Extra delay applied to reorder-burst victims, in simulated
    /// milliseconds.
    pub reorder_burst_ms: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            min_latency_ms: 5,
            max_latency_ms: 50,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_burst_prob: 0.0,
            reorder_burst_ms: 250,
        }
    }
}

impl LinkConfig {
    /// A fixed-latency, fault-free link.
    pub fn fixed(latency_ms: u64) -> Self {
        LinkConfig {
            min_latency_ms: latency_ms,
            max_latency_ms: latency_ms,
            ..LinkConfig::default()
        }
    }

    /// Sets the drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob out of range");
        self.drop_prob = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate_prob out of range");
        self.duplicate_prob = p;
        self
    }

    /// Sets the reorder-burst probability and extra delay.
    pub fn with_reorder_burst(mut self, p: f64, extra_ms: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder_burst_prob out of range");
        self.reorder_burst_prob = p;
        self.reorder_burst_ms = extra_ms;
        self
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkEvent<T> {
    /// Simulated delivery time in milliseconds.
    pub deliver_at: u64,
    /// Sending site.
    pub from: SiteId,
    /// Receiving site.
    pub to: SiteId,
    /// The payload.
    pub payload: T,
    /// Monotonic sequence number used to break ties deterministically.
    seq: u64,
}

impl<T: Eq> Ord for NetworkEvent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl<T: Eq> PartialOrd for NetworkEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct SimNetwork<T> {
    now_ms: u64,
    next_seq: u64,
    default_link: LinkConfig,
    /// Per-link overrides of the default link model.
    links: BTreeMap<(SiteId, SiteId), LinkConfig>,
    in_flight: BinaryHeap<Reverse<NetworkEvent<T>>>,
    /// Ordered pairs `(from, to)` that are currently partitioned: messages
    /// between them are queued but not delivered until the partition heals.
    partitions: BTreeSet<(SiteId, SiteId)>,
    held: Vec<NetworkEvent<T>>,
    rng: StdRng,
    delivered_count: u64,
    sent_count: u64,
    dropped_count: u64,
    duplicated_count: u64,
}

impl<T: Eq> SimNetwork<T> {
    /// Creates a network with the given default link model and RNG seed.
    pub fn new(default_link: LinkConfig, seed: u64) -> Self {
        SimNetwork {
            now_ms: 0,
            next_seq: 0,
            default_link,
            links: BTreeMap::new(),
            in_flight: BinaryHeap::new(),
            partitions: BTreeSet::new(),
            held: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            delivered_count: 0,
            sent_count: 0,
            dropped_count: 0,
            duplicated_count: 0,
        }
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Number of messages handed to the network so far (dropped ones
    /// included, injected duplicates excluded).
    pub fn sent_count(&self) -> u64 {
        self.sent_count
    }

    /// Number of messages delivered so far (injected duplicates included).
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Number of messages silently dropped by fault injection.
    pub fn dropped_count(&self) -> u64 {
        self.dropped_count
    }

    /// Number of extra copies created by fault injection.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated_count
    }

    /// Number of messages still in flight (including ones blocked by a
    /// partition).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len() + self.held.len()
    }

    /// Overrides the link model for the directed link `from → to`.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, config: LinkConfig) {
        self.links.insert((from, to), config);
    }

    /// The effective link model for `from → to`.
    pub fn link(&self, from: SiteId, to: SiteId) -> LinkConfig {
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Sends `payload` from `from` to `to`; it will be delivered after a
    /// link-dependent delay (unless a partition holds it back longer), and
    /// may be dropped, duplicated or burst-delayed according to the link's
    /// fault model.
    pub fn send(&mut self, from: SiteId, to: SiteId, payload: T)
    where
        T: Clone,
    {
        let link = self.link(from, to);
        self.sent_count += 1;
        if link.drop_prob > 0.0 && self.rng.gen_bool(link.drop_prob) {
            self.dropped_count += 1;
            return;
        }
        let duplicate = link.duplicate_prob > 0.0 && self.rng.gen_bool(link.duplicate_prob);
        self.enqueue(from, to, payload.clone(), &link);
        if duplicate {
            self.duplicated_count += 1;
            self.enqueue(from, to, payload, &link);
        }
    }

    /// Enqueues one copy with a freshly sampled latency (plus an optional
    /// reorder burst).
    fn enqueue(&mut self, from: SiteId, to: SiteId, payload: T, link: &LinkConfig) {
        let mut latency = self.sample_latency(link);
        if link.reorder_burst_prob > 0.0 && self.rng.gen_bool(link.reorder_burst_prob) {
            latency += link.reorder_burst_ms;
        }
        let event = NetworkEvent {
            deliver_at: self.now_ms + latency,
            from,
            to,
            payload,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        if self.partitions.contains(&(from, to)) {
            self.held.push(event);
        } else {
            self.in_flight.push(Reverse(event));
        }
    }

    /// Broadcasts `payload` from `from` to every site in `recipients` except
    /// the sender itself.
    pub fn broadcast(&mut self, from: SiteId, recipients: &[SiteId], payload: T)
    where
        T: Clone,
    {
        for &to in recipients {
            if to != from {
                self.send(from, to, payload.clone());
            }
        }
    }

    /// Cuts the directed link `from → to`.
    pub fn partition(&mut self, from: SiteId, to: SiteId) {
        self.partitions.insert((from, to));
    }

    /// Cuts both directions between two sites.
    pub fn partition_both(&mut self, a: SiteId, b: SiteId) {
        self.partition(a, b);
        self.partition(b, a);
    }

    /// Heals the directed link `from → to`; messages held during the
    /// partition are released (with fresh latency from the current time).
    pub fn heal(&mut self, from: SiteId, to: SiteId) {
        self.partitions.remove(&(from, to));
        let (release, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|e| e.from == from && e.to == to);
        self.held = keep;
        for mut event in release {
            let link = self.link(from, to);
            let latency = self.sample_latency(&link);
            event.deliver_at = self.now_ms + latency;
            self.in_flight.push(Reverse(event));
        }
    }

    /// Heals both directions between two sites.
    pub fn heal_both(&mut self, a: SiteId, b: SiteId) {
        self.heal(a, b);
        self.heal(b, a);
    }

    /// Delivers the next message (earliest delivery time), advancing the
    /// simulated clock. Returns `None` when nothing is deliverable (the
    /// network is idle or everything is blocked behind partitions).
    pub fn step(&mut self) -> Option<NetworkEvent<T>> {
        let Reverse(event) = self.in_flight.pop()?;
        self.now_ms = self.now_ms.max(event.deliver_at);
        self.delivered_count += 1;
        Some(event)
    }

    fn sample_latency(&mut self, link: &LinkConfig) -> u64 {
        let LinkConfig {
            min_latency_ms,
            max_latency_ms,
            ..
        } = *link;
        if max_latency_ms <= min_latency_ms {
            min_latency_ms
        } else {
            self.rng.gen_range(min_latency_ms..=max_latency_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    #[test]
    fn messages_are_delivered_in_time_order() {
        let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::default(), 42);
        for i in 0..20 {
            net.send(site(1), site(2), i);
        }
        assert_eq!(net.in_flight(), 20);
        let mut last_time = 0;
        let mut count = 0;
        while let Some(ev) = net.step() {
            assert!(ev.deliver_at >= last_time);
            last_time = ev.deliver_at;
            count += 1;
        }
        assert_eq!(count, 20);
        assert_eq!(net.delivered_count(), 20);
        assert_eq!(net.sent_count(), 20);
        assert_eq!(net.dropped_count(), 0);
        assert_eq!(net.duplicated_count(), 0);
    }

    #[test]
    fn variable_latency_reorders_messages() {
        let mut net: SimNetwork<u32> = SimNetwork::new(
            LinkConfig {
                min_latency_ms: 1,
                max_latency_ms: 500,
                ..LinkConfig::default()
            },
            7,
        );
        for i in 0..50 {
            net.send(site(1), site(2), i);
        }
        let mut order = Vec::new();
        while let Some(ev) = net.step() {
            order.push(ev.payload);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            order, sorted,
            "with a wide latency range some reordering must occur"
        );
    }

    #[test]
    fn fixed_latency_preserves_order() {
        let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::fixed(10), 7);
        for i in 0..10 {
            net.send(site(1), site(2), i);
        }
        let mut order = Vec::new();
        while let Some(ev) = net.step() {
            order.push(ev.payload);
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn broadcast_reaches_everyone_but_the_sender() {
        let sites = [site(1), site(2), site(3)];
        let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::fixed(1), 7);
        net.broadcast(site(1), &sites, 9);
        let mut recipients = Vec::new();
        while let Some(ev) = net.step() {
            recipients.push(ev.to);
        }
        assert_eq!(recipients.len(), 2);
        assert!(recipients.contains(&site(2)) && recipients.contains(&site(3)));
    }

    #[test]
    fn partitions_hold_messages_until_healed() {
        let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::fixed(1), 7);
        net.partition_both(site(1), site(2));
        net.send(site(1), site(2), 1);
        net.send(site(2), site(1), 2);
        assert!(
            net.step().is_none(),
            "both messages are stuck behind the partition"
        );
        assert_eq!(net.in_flight(), 2);
        net.heal_both(site(1), site(2));
        let mut payloads = Vec::new();
        while let Some(ev) = net.step() {
            payloads.push(ev.payload);
        }
        payloads.sort_unstable();
        assert_eq!(payloads, vec![1, 2]);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed| {
            let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::default(), seed);
            for i in 0..30 {
                net.send(site(1), site(2), i);
            }
            let mut order = Vec::new();
            while let Some(ev) = net.step() {
                order.push(ev.payload);
            }
            order
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn drops_lose_roughly_the_configured_fraction() {
        let mut net: SimNetwork<u32> =
            SimNetwork::new(LinkConfig::fixed(1).with_drop_prob(0.3), 11);
        for i in 0..1000 {
            net.send(site(1), site(2), i);
        }
        let dropped = net.dropped_count();
        assert!(
            (200..400).contains(&(dropped as usize)),
            "expected ~300 drops, got {dropped}"
        );
        let mut delivered = 0;
        while net.step().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered + dropped, 1000);
        assert_eq!(net.sent_count(), 1000);
    }

    #[test]
    fn duplicates_add_extra_copies() {
        let mut net: SimNetwork<u32> =
            SimNetwork::new(LinkConfig::fixed(1).with_duplicate_prob(0.5), 13);
        for i in 0..500 {
            net.send(site(1), site(2), i);
        }
        let duplicated = net.duplicated_count();
        assert!(
            (150..350).contains(&(duplicated as usize)),
            "expected ~250 duplicates, got {duplicated}"
        );
        let mut delivered = 0u64;
        while net.step().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, 500 + duplicated);
    }

    #[test]
    fn reorder_bursts_delay_some_messages_past_later_traffic() {
        let mut net: SimNetwork<u32> =
            SimNetwork::new(LinkConfig::fixed(1).with_reorder_burst(0.2, 10_000), 17);
        for i in 0..200 {
            net.send(site(1), site(2), i);
        }
        let mut order = Vec::new();
        while let Some(ev) = net.step() {
            order.push(ev.payload);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_ne!(order, sorted, "bursts must reorder fixed-latency traffic");
    }

    #[test]
    fn per_link_overrides_apply_only_to_their_link() {
        let mut net: SimNetwork<u32> = SimNetwork::new(LinkConfig::fixed(1), 19);
        net.set_link(site(1), site(3), LinkConfig::fixed(1).with_drop_prob(1.0));
        for i in 0..50 {
            net.send(site(1), site(2), i);
            net.send(site(1), site(3), i);
        }
        assert_eq!(net.dropped_count(), 50, "every 1→3 message is dropped");
        let mut to_2 = 0;
        while let Some(ev) = net.step() {
            assert_eq!(ev.to, site(2));
            to_2 += 1;
        }
        assert_eq!(to_2, 50);
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let run = |seed| {
            let link = LinkConfig::default()
                .with_drop_prob(0.1)
                .with_duplicate_prob(0.1)
                .with_reorder_burst(0.1, 300);
            let mut net: SimNetwork<u32> = SimNetwork::new(link, seed);
            for i in 0..100 {
                net.send(site(1), site(2), i);
            }
            let mut order = Vec::new();
            while let Some(ev) = net.step() {
                order.push(ev.payload);
            }
            (order, net.dropped_count(), net.duplicated_count())
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23), run(24));
    }
}

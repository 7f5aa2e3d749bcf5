//! The one simulated session every driver of this crate runs over.
//!
//! A [`Session`] owns the replicas, the seeded network that carries the
//! **encoded bytes** of their envelopes, the flatten coordinator, each
//! site's membership (live, crashed, offline or not yet joined) and the
//! run's counters. Every message crosses the binary codec: it is encoded
//! once at the send boundary, where `sim.wire_bytes`/`sim.wire_msgs` count
//! it, and decoded on delivery, so every run doubles as an end-to-end codec
//! round trip. The randomised [`run`](crate::run) and both scripted demos
//! are scripts over this one type.

use treedoc_core::{Op, Sdis, SiteId, Treedoc};
use treedoc_replication::{
    decode_envelope, encode_envelope, BatchPolicy, CommitOutcome, CommitProtocol, Envelope,
    FlattenCoordinator, LinkConfig, Replica, SimNetwork,
};
use treedoc_storage::DocStore;
use treedoc_telemetry::{Counter, Registry, RegistrySnapshot, Telemetry};

/// The document every simulated site edits.
pub(crate) type Doc = Treedoc<String, Sdis>;
type Env = Envelope<Op<String, Sdis>>;

/// Ticks a participant may wait in the 3PC pre-committed state before
/// terminating with a unilateral commit (the non-blocking property).
pub(crate) const PRE_COMMIT_TIMEOUT_TICKS: u64 = 30;

/// Probe rounds a single anti-entropy session may take before the run is
/// declared wedged. Each round either proves convergence or ships cells both
/// ways, so a handful suffices; hitting the cap means the protocol is broken.
const MAX_SYNC_ROUNDS: usize = 64;

/// Declares the simulator's own counters, one per count of a report that no
/// replica or store keeps; field `f` is the registry counter `sim.f`.
macro_rules! sim_metrics {
    ($($field:ident),* $(,)?) => {
        /// The `sim.*` counters. Wire traffic is counted twice on purpose,
        /// in two independent decompositions: `sim.wire_bytes`/`wire_msgs`
        /// at the send boundary ([`Session::send`]/[`Session::broadcast`],
        /// so no caller can forget it), and the per-purpose `network_bytes`,
        /// `ack_bytes` and `protocol_bytes` where each purpose sends — the
        /// `telemetry_diff` test checks that the two agree byte for byte.
        struct SimMetrics {
            $($field: Counter,)*
        }

        impl SimMetrics {
            fn resolve(telemetry: &Telemetry) -> Self {
                SimMetrics {
                    $($field: telemetry.counter(concat!("sim.", stringify!($field))),)*
                }
            }
        }
    };
}

sim_metrics!(
    wire_bytes,
    wire_msgs,
    ops_generated,
    network_bytes,
    retransmission_bytes,
    ack_bytes,
    op_batches_sent,
    flatten_proposals,
    flatten_commits,
    flatten_aborts,
    commit_rounds,
    protocol_messages,
    protocol_bytes,
    crashes,
    wal_records_replayed,
    recovered_bytes,
    snapshot_hits,
    messages_lost_to_crash,
    messages_before_join,
    offline_losses,
    sync_sessions,
    sync_rounds,
    sync_bytes,
    snapshot_bootstraps,
    snapshot_bytes,
);

/// Where a site stands. Traffic delivered to a site that is not live is
/// discarded and counted by reason; the catch-up mechanism repairs it.
enum Membership {
    Live,
    /// The process died: only its durable store survives.
    Dead(DocStore),
    /// Unreachable for a while, replica intact.
    Offline,
    /// A late joiner before its join round.
    Unjoined,
}

/// Replicas, the network between them, the flatten coordinator and the
/// run's counters. Site 0 coordinates flatten proposals and is the
/// convergence reference.
pub(crate) struct Session {
    pub(crate) replicas: Vec<Replica<Doc>>,
    pub(crate) site_ids: Vec<SiteId>,
    membership: Vec<Membership>,
    pub(crate) net: SimNetwork<Vec<u8>>,
    batch_policy: Option<BatchPolicy>,
    /// The coordinator of the in-flight flatten proposal, and whether site
    /// 0's own replica has applied its outcome.
    coordinator: Option<(FlattenCoordinator, bool)>,
    /// Largest causal hold-back queue observed after a delivery.
    pub(crate) max_pending: usize,
    metrics: SimMetrics,
    registry: Registry,
    telemetry: Telemetry,
    before: RegistrySnapshot,
}

impl Session {
    /// `sites` live replicas, site `i` holding `doc(i, site)`, over a
    /// network with `link` as every link's model. The run counts into
    /// `telemetry`'s registry, or into a private one when the handle is
    /// disabled: a report needs its counts either way.
    pub(crate) fn new(
        telemetry: &Telemetry,
        sites: usize,
        link: LinkConfig,
        seed: u64,
        mut doc: impl FnMut(usize, SiteId) -> Doc,
    ) -> Self {
        let registry = telemetry
            .registry()
            .cloned()
            .unwrap_or_else(|| Registry::with_trace_capacity(1));
        let telemetry = registry.handle();
        let site_ids: Vec<SiteId> = (1..=sites as u64).map(SiteId::from_u64).collect();
        let replicas = site_ids
            .iter()
            .enumerate()
            .map(|(i, &site)| {
                let mut replica = Replica::new(site, doc(i, site));
                replica.set_telemetry(&telemetry);
                replica
            })
            .collect();
        Session {
            replicas,
            membership: site_ids.iter().map(|_| Membership::Live).collect(),
            site_ids,
            net: SimNetwork::new(link, seed),
            batch_policy: None,
            coordinator: None,
            max_pending: 0,
            metrics: SimMetrics::resolve(&telemetry),
            before: registry.snapshot(),
            registry,
            telemetry,
        }
    }

    /// Every replica logs what it stamps until all sites acknowledge it.
    pub(crate) fn enable_at_least_once(&mut self) {
        for r in &mut self.replicas {
            r.enable_at_least_once(&self.site_ids);
        }
    }

    /// Every replica journals into its own in-memory [`DocStore`].
    pub(crate) fn attach_stores(&mut self) {
        for r in &mut self.replicas {
            r.attach_store(DocStore::in_memory())
                .expect("in-memory store attach cannot fail");
        }
    }

    /// Every replica, restarted ones included, batches what it stamps.
    pub(crate) fn enable_batching(&mut self, policy: BatchPolicy) {
        self.batch_policy = Some(policy);
        for r in &mut self.replicas {
            r.enable_batching(policy);
        }
    }

    /// The run's counts so far: counter `name`'s delta since the session
    /// began. A registry shared across runs may hold other runs' counts, as
    /// long as no two runs count into it at the same time.
    pub(crate) fn counts(&self) -> impl Fn(&str) -> u64 + '_ {
        let after = self.registry.snapshot();
        move |name| after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)
    }

    fn index(&self, site: SiteId) -> usize {
        self.site_ids
            .iter()
            .position(|&s| s == site)
            .expect("known site")
    }

    /// Encodes `env` and sends it from `from` to `to`, returning the encoded
    /// size.
    fn send(&mut self, from: SiteId, to: SiteId, env: &Env) -> u64 {
        let bytes = encode_envelope(env);
        let len = bytes.len() as u64;
        self.metrics.wire_bytes.add(len);
        self.metrics.wire_msgs.inc();
        self.net.send(from, to, bytes);
        len
    }

    /// Encodes `env` once and sends it from `from` to every other site,
    /// returning the encoded bytes summed over the links crossed.
    fn broadcast(&mut self, from: SiteId, env: &Env) -> u64 {
        let bytes = encode_envelope(env);
        let links = self.site_ids.len() as u64 - 1;
        let total = bytes.len() as u64 * links;
        self.metrics.wire_bytes.add(total);
        self.metrics.wire_msgs.add(links);
        self.net.broadcast(from, &self.site_ids, bytes);
        total
    }

    /// Delivers up to `limit` events. Each is decoded from the bytes that
    /// crossed the wire; votes addressed to site 0 feed the coordinator,
    /// everything else goes to its replica, whose replies travel straight
    /// back.
    pub(crate) fn deliver(&mut self, limit: usize) {
        for _ in 0..limit {
            let Some(event) = self.net.step() else { return };
            let idx = self.index(event.to);
            let discarded = match self.membership[idx] {
                Membership::Live => None,
                Membership::Dead(_) => Some(&self.metrics.messages_lost_to_crash),
                Membership::Offline => Some(&self.metrics.offline_losses),
                Membership::Unjoined => Some(&self.metrics.messages_before_join),
            };
            if let Some(counter) = discarded {
                counter.inc();
                continue;
            }
            // An undecodable message means the codec, not the run, is broken.
            let envelope: Env = decode_envelope(&event.payload)
                .unwrap_or_else(|e| panic!("undecodable envelope on the wire: {e}"));
            if let (Envelope::FlattenVote(vote), 0) = (&envelope, idx) {
                if let Some((coordinator, _)) = &mut self.coordinator {
                    coordinator.on_vote(*vote);
                }
                continue;
            }
            for reply in self.replicas[idx].receive_any(envelope).replies {
                self.metrics.protocol_messages.inc();
                let sent = self.send(event.to, event.from, &reply);
                self.metrics.protocol_bytes.add(sent);
            }
            self.max_pending = self.max_pending.max(self.replicas[idx].pending());
        }
    }

    /// Delivers until nothing is deliverable (partitioned traffic stays
    /// held).
    pub(crate) fn drain(&mut self) {
        self.deliver(usize::MAX);
    }

    /// Stamps site `i`'s local operation and broadcasts whatever envelope
    /// the stamp (or the batcher's flush policy) emits.
    pub(crate) fn stamp(&mut self, i: usize, op: Op<String, Sdis>) {
        self.metrics.ops_generated.inc();
        if let Some(env) = self.replicas[i].stamp_batched(op) {
            self.publish(i, &env);
        }
    }

    /// Ships every batch the batchers still hold.
    pub(crate) fn flush_batches(&mut self) {
        for i in 0..self.replicas.len() {
            if let Some(env) = self.replicas[i].flush_batch() {
                self.publish(i, &env);
            }
        }
    }

    fn publish(&mut self, i: usize, env: &Env) {
        if matches!(env, Envelope::OpBatch(_)) {
            self.metrics.op_batches_sent.inc();
        }
        let sent = self.broadcast(self.site_ids[i], env);
        self.metrics.network_bytes.add(sent);
    }

    /// Every live site broadcasts its cumulative acknowledgement, then the
    /// network drains (acks can themselves be lost; the next round repeats
    /// them).
    pub(crate) fn ack_round(&mut self) {
        for i in 0..self.replicas.len() {
            if self.is_live(i) {
                let ack = self.replicas[i].ack_envelope();
                let sent = self.broadcast(self.site_ids[i], &ack);
                self.metrics.ack_bytes.add(sent);
            }
        }
        self.drain();
    }

    /// Every live site re-sends what each live peer has not acknowledged,
    /// tagged with the epoch it was stamped in; with batching on, a peer's
    /// whole unacked window travels as one batch.
    pub(crate) fn retransmit_round(&mut self) {
        for i in 0..self.replicas.len() {
            for j in 0..self.replicas.len() {
                if i == j || !self.is_live(i) || !self.is_live(j) {
                    continue;
                }
                let (from, peer) = (self.site_ids[i], self.site_ids[j]);
                let resent = if self.batch_policy.is_some() {
                    let batch = self.replicas[i].unacked_batch_for(peer);
                    if batch.is_some() {
                        self.metrics.op_batches_sent.inc();
                    }
                    batch.into_iter().collect()
                } else {
                    self.replicas[i].unacked_envelopes_for(peer)
                };
                for env in resent {
                    let sent = self.send(from, peer, &env);
                    self.metrics.retransmission_bytes.add(sent);
                    self.metrics.network_bytes.add(sent);
                }
            }
        }
    }

    /// Whether site `i` is live (not crashed, offline or unjoined).
    pub(crate) fn is_live(&self, i: usize) -> bool {
        matches!(self.membership[i], Membership::Live)
    }

    /// Cuts (or heals) site 0 from every other site, both directions.
    pub(crate) fn partition_first_site(&mut self, cut: bool) {
        for &other in &self.site_ids[1..] {
            if cut {
                self.net.partition_both(self.site_ids[0], other);
            } else {
                self.net.heal_both(self.site_ids[0], other);
            }
        }
    }

    /// Kills site `i`'s process: the replica object (clock, hold-back, send
    /// log, document) is gone; only its store survives.
    pub(crate) fn crash(&mut self, i: usize) {
        let store = self.replicas[i]
            .detach_store()
            .expect("a crashing replica is durable");
        self.replicas[i] = Replica::new(self.site_ids[i], Doc::new(self.site_ids[i]));
        self.membership[i] = Membership::Dead(store);
        self.metrics.crashes.inc();
    }

    /// Restarts every crashed site from its store. The replica is bound to
    /// the run's telemetry only after [`Replica::recover`] returns, so its
    /// WAL replay counts nothing. The batcher is transport policy, not
    /// durable state, so it is re-enabled rather than recovered; whatever
    /// the dead process had buffered is re-sent from the recovered send log.
    pub(crate) fn restart_dead(&mut self) {
        for i in 0..self.replicas.len() {
            let Membership::Dead(store) =
                std::mem::replace(&mut self.membership[i], Membership::Live)
            else {
                continue;
            };
            let (mut replica, report) =
                Replica::recover(store).expect("crash recovery must succeed");
            self.metrics
                .wal_records_replayed
                .add(report.wal_records_replayed as u64);
            self.metrics
                .recovered_bytes
                .add(report.bytes_recovered as u64);
            self.metrics
                .snapshot_hits
                .add(u64::from(report.snapshot_hit));
            replica.set_telemetry(&self.telemetry);
            if let Some(policy) = self.batch_policy {
                replica.enable_batching(policy);
            }
            self.replicas[i] = replica;
        }
    }

    /// Takes site `i` offline (everything delivered to it is discarded) or
    /// brings it back. One membership fault per run: the site is live
    /// otherwise.
    pub(crate) fn set_offline(&mut self, i: usize, offline: bool) {
        self.membership[i] = if offline {
            Membership::Offline
        } else {
            Membership::Live
        };
    }

    /// Marks site `i` as a late joiner that has not joined yet.
    pub(crate) fn await_joiner(&mut self, i: usize) {
        self.membership[i] = Membership::Unjoined;
    }

    /// Runs one complete anti-entropy session between replicas `a` and `b`:
    /// `a` probes, replies ping-pong between the two until a round ends with
    /// equal root digests on both sides. The session is out-of-band —
    /// reliable and synchronous, unlike the network — but every message
    /// still round-trips through the codec and counts into `sim.sync_bytes`;
    /// the replicas count what they receive and integrate (`sync.*`).
    pub(crate) fn sync_pair(&mut self, a: usize, b: usize) {
        self.metrics.sync_sessions.inc();
        for _ in 0..MAX_SYNC_ROUNDS {
            self.metrics.sync_rounds.inc();
            let mut queue = vec![(b, self.replicas[a].sync_probe())];
            let mut converged = false;
            while let Some((to, env)) = queue.pop() {
                let env = cross(&env, &self.metrics.sync_bytes);
                let effect = self.replicas[to].receive_any(env);
                converged |= effect.converged;
                let reply_to = if to == a { b } else { a };
                queue.extend(effect.replies.into_iter().map(|e| (reply_to, e)));
            }
            if converged {
                return;
            }
        }
        panic!("anti-entropy session failed to converge");
    }

    /// The late joiner arrives: the donor's snapshot chunks bootstrap it
    /// (keeping its own identity), then a sync session hands it the donor's
    /// causal clock, making late copies of absorbed operations discardable
    /// duplicates. From here on it edits and receives like everyone else.
    pub(crate) fn bootstrap_joiner(&mut self, donor: usize, joiner: usize) {
        let mut bootstrapped = false;
        for env in self.replicas[donor].snapshot_envelopes() {
            let env = cross(&env, &self.metrics.snapshot_bytes);
            bootstrapped |= self.replicas[joiner].receive_any(env).bootstrapped;
        }
        assert!(bootstrapped, "snapshot bootstrap must complete");
        self.metrics.snapshot_bootstraps.inc();
        self.membership[joiner] = Membership::Live;
        self.sync_pair(donor, joiner);
    }

    /// The in-flight flatten proposal's coordinator, if any.
    pub(crate) fn coordinator(&self) -> Option<&FlattenCoordinator> {
        self.coordinator.as_ref().map(|(c, _)| c)
    }

    /// Site 0 proposes a whole-document flatten under `protocol`. A local No
    /// vote aborts on the spot with zero network traffic.
    pub(crate) fn propose_flatten(&mut self, protocol: CommitProtocol) {
        debug_assert!(self.coordinator.is_none(), "one proposal at a time");
        self.metrics.flatten_proposals.inc();
        match self.replicas[0].propose_flatten(Vec::new(), protocol) {
            Some(propose) => {
                let participants = self.site_ids[1..].to_vec();
                self.coordinator = Some((FlattenCoordinator::new(propose, participants), false));
            }
            None => self.metrics.flatten_aborts.inc(),
        }
    }

    /// One protocol round on both sides: every replica ticks its
    /// participant role, then the coordinator pumps.
    pub(crate) fn flatten_round(&mut self) {
        for r in &mut self.replicas {
            let _ = r.flatten_tick(PRE_COMMIT_TIMEOUT_TICKS);
        }
        self.pump_coordinator();
    }

    /// Advances the coordinator one round: sends this round's
    /// (re)transmissions, applies the outcome to site 0's own replica as
    /// soon as it is decided, and retires the coordinator once every
    /// participant acknowledged.
    pub(crate) fn pump_coordinator(&mut self) {
        let Some((mut coordinator, mut finished)) = self.coordinator.take() else {
            return;
        };
        for (to, env) in coordinator.tick() {
            self.metrics.protocol_messages.inc();
            let sent = self.send(self.site_ids[0], to, &env);
            self.metrics.protocol_bytes.add(sent);
        }
        if let (Some(outcome), false) = (coordinator.outcome(), finished) {
            finished = true;
            let committed = outcome == CommitOutcome::Committed;
            self.replicas[0].finish_flatten(coordinator.txn(), committed);
            let counter = if committed {
                &self.metrics.flatten_commits
            } else {
                &self.metrics.flatten_aborts
            };
            counter.inc();
        }
        if coordinator.is_done() {
            self.metrics.commit_rounds.add(coordinator.stats().rounds);
        } else {
            self.coordinator = Some((coordinator, finished));
        }
    }

    /// Whether every replica holds site 0's content in the same flatten
    /// epoch, with a drained hold-back queue, an empty batch, a fully
    /// acknowledged send log and no flatten lock left behind.
    pub(crate) fn converged(&self) -> bool {
        let reference = self.replicas[0].doc().to_vec();
        let epoch = self.replicas[0].flatten_epoch();
        self.replicas.iter().all(|r| {
            r.doc().to_vec() == reference
                && r.pending() == 0
                && !r.has_unacked()
                && r.pending_batch_len() == 0
                && r.flatten_epoch() == epoch
                && !r.is_flatten_prepared()
        })
    }
}

/// An out-of-band envelope's trip through the codec, its encoded size
/// counted into `bytes`.
fn cross(env: &Env, bytes: &Counter) -> Env {
    let encoded = encode_envelope(env);
    bytes.add(encoded.len() as u64);
    decode_envelope(&encoded).unwrap_or_else(|e| panic!("undecodable envelope: {e}"))
}

//! Differential test of chained single-op envelopes: over random faulty
//! schedules, every operation a receiver hands its document is exactly the
//! operation its sender stamped, and all replicas end digest-equal.
//!
//! Each site types runs of keystrokes (with backspaces and cursor jumps)
//! through `stamp_envelope`, so most envelopes are chained to the sender's
//! previous stamp. The links drop, duplicate and reorder them; at-least-once
//! retransmission re-ships absolute copies — or, in the runs without it,
//! only sync sessions repair what was lost; a committed flatten interrupts
//! the stream; sites crash and recover from their stores; and sync sessions
//! fast-forward clocks past ops still in flight. The oracle is the list of
//! stamps the test recorded itself: a wrapper document logs every operation
//! the replica replays into it, and each one is compared with the stamp of
//! the same atom.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treedoc_repro::prelude::*;
use treedoc_repro::replication::{FlattenDocument, RangeDigest, ReplicatedDocument};

type Inner = Treedoc<String, Sdis>;
type TestOp = Op<String, Sdis>;

/// A Treedoc that logs every operation its replica hands it as delivered,
/// and delegates everything else.
#[derive(Debug)]
struct Recording {
    inner: Inner,
    delivered: Vec<TestOp>,
}

impl Recording {
    fn new(site: SiteId) -> Self {
        Recording {
            inner: Inner::new(site),
            delivered: Vec::new(),
        }
    }
}

impl ReplicatedDocument for Recording {
    type Op = TestOp;

    fn replay(&mut self, op: &TestOp) -> bool {
        self.delivered.push(op.clone());
        self.inner.replay(op)
    }

    fn digest(&self) -> u64 {
        ReplicatedDocument::digest(&self.inner)
    }
}

impl FlattenDocument for Recording {
    fn flatten_vote(&self, proposal: &FlattenProposal) -> Vote {
        self.inner.flatten_vote(proposal)
    }

    fn apply_flatten(&mut self, proposal: &FlattenProposal) {
        self.inner.apply_flatten(proposal);
    }

    fn base_revision(&self) -> u64 {
        self.inner.base_revision()
    }
}

impl PersistentDocument for Recording {
    fn encode_sections(&self, snapshot: &mut Snapshot) {
        self.inner.encode_sections(snapshot);
    }

    fn decode_sections(snapshot: &Snapshot) -> Result<Self, RecoverError> {
        Ok(Recording {
            inner: Inner::decode_sections(snapshot)?,
            delivered: Vec::new(),
        })
    }

    fn replay_logged_local(&mut self, op: &TestOp) {
        self.inner.replay_logged_local(op);
    }
}

impl SyncDocument for Recording {
    fn sync_root(&self) -> (u64, u64) {
        self.inner.sync_root()
    }

    fn sync_range(&self, lo: &[u8], hi: &[u8]) -> Option<(u64, u64)> {
        self.inner.sync_range(lo, hi)
    }

    fn sync_split(&self, lo: &[u8], hi: &[u8], fanout: usize) -> Option<Vec<RangeDigest>> {
        self.inner.sync_split(lo, hi, fanout)
    }

    fn sync_cells(&self, lo: &[u8], hi: &[u8]) -> Option<(Vec<u8>, u64)> {
        self.inner.sync_cells(lo, hi)
    }

    fn sync_cells_absent_from(
        &self,
        lo: &[u8],
        hi: &[u8],
        theirs: &[u8],
    ) -> Option<(Vec<u8>, u64)> {
        self.inner.sync_cells_absent_from(lo, hi, theirs)
    }

    fn sync_integrate(&mut self, cells: &[u8]) -> Option<usize> {
        self.inner.sync_integrate(cells)
    }

    fn encode_bootstrap(&self) -> Vec<u8> {
        self.inner.encode_bootstrap()
    }

    fn adopt_bootstrap(&mut self, bytes: &[u8]) -> Option<()> {
        self.inner.adopt_bootstrap(bytes)
    }
}

const SITES: usize = 3;

/// The sites of one run plus the oracle: every op stamped, by atom for
/// inserts (atoms are unique) and in a list for deletes.
struct Run {
    ids: Vec<SiteId>,
    replicas: Vec<Replica<Recording>>,
    stores: Vec<SharedBackend>,
    cursors: Vec<usize>,
    net: SimNetwork<Vec<u8>>,
    inserts: HashMap<String, TestOp>,
    deletes: Vec<TestOp>,
    chained_sent: u64,
    /// `false`: no retransmission; sync sessions are the only repair.
    at_least_once: bool,
    /// `true`: a sync session ends at the first `converged` effect on
    /// either side, as an application reacting to its own side's effect
    /// does; `false`: once both sides fast-forwarded in the same round.
    first_converged: bool,
    /// The run's counters, spanning every crash: replicas are bound to it
    /// at creation and again after each recovery.
    registry: Registry,
}

fn faulty_link() -> LinkConfig {
    LinkConfig::fixed(2)
        .with_drop_prob(0.1)
        .with_duplicate_prob(0.1)
        .with_reorder_burst(0.2, 15)
}

impl Run {
    fn new(seed: u64, at_least_once: bool, first_converged: bool) -> Self {
        let ids: Vec<SiteId> = (1..=SITES as u64).map(SiteId::from_u64).collect();
        let stores: Vec<SharedBackend> = ids.iter().map(|_| SharedBackend::in_memory()).collect();
        let registry = Registry::new();
        let replicas = ids
            .iter()
            .zip(&stores)
            .map(|(&site, disk)| {
                let mut replica = Replica::new(site, Recording::new(site));
                replica.set_telemetry(&registry.handle());
                replica
                    .attach_store(DocStore::new(disk.clone()).unwrap())
                    .unwrap();
                if at_least_once {
                    replica.enable_at_least_once(&ids);
                }
                replica
            })
            .collect();
        Run {
            ids,
            replicas,
            stores,
            cursors: vec![0; SITES],
            net: SimNetwork::new(faulty_link(), seed),
            inserts: HashMap::new(),
            deletes: Vec::new(),
            chained_sent: 0,
            at_least_once,
            first_converged,
            registry,
        }
    }

    fn send(&mut self, from: usize, envelope: &Envelope<TestOp>) {
        let bytes = encode_envelope(envelope);
        let ids = self.ids.clone();
        for (to, &peer) in ids.iter().enumerate() {
            if to != from {
                self.net.send(ids[from], peer, bytes.clone());
            }
        }
    }

    /// `site` types `keys` keystrokes at its cursor: mostly characters,
    /// sometimes a backspace, sometimes a jump to a random position first.
    fn type_run(&mut self, rng: &mut StdRng, site: usize, keys: usize) {
        let len = self.replicas[site].doc().inner.len();
        if rng.gen_bool(0.2) || self.cursors[site] > len {
            self.cursors[site] = rng.gen_range(0..=len);
        }
        for _ in 0..keys {
            let replica = &mut self.replicas[site];
            let cursor = self.cursors[site];
            let op = if cursor > 0 && rng.gen_bool(0.1) {
                self.cursors[site] -= 1;
                let op = replica.doc_mut().inner.local_delete(cursor - 1).unwrap();
                self.deletes.push(op.clone());
                op
            } else {
                let atom = format!("{}.{}", site, self.inserts.len());
                self.cursors[site] += 1;
                let op = replica
                    .doc_mut()
                    .inner
                    .local_insert(cursor, atom.clone())
                    .unwrap();
                self.inserts.insert(atom, op.clone());
                op
            };
            let envelope = replica.stamp_envelope(op);
            self.chained_sent += u64::from(matches!(envelope, Envelope::OpChained(_)));
            self.send(site, &envelope);
        }
    }

    /// Delivers up to `n` in-flight envelopes.
    fn deliver(&mut self, n: usize) {
        for _ in 0..n {
            let Some(event) = self.net.step() else {
                return;
            };
            let to = self.ids.iter().position(|&s| s == event.to).unwrap();
            let envelope: Envelope<TestOp> = decode_envelope(&event.payload).unwrap();
            self.replicas[to].receive_envelope(envelope);
        }
    }

    /// Every site acknowledges and re-ships what each peer has not
    /// acknowledged — absolute envelopes, or one coalesced batch. Without
    /// at-least-once, a sync session between two random sites instead.
    fn retransmit(&mut self, rng: &mut StdRng) {
        if !self.at_least_once {
            let a = rng.gen_range(0..SITES);
            self.sync(a, (a + 1 + rng.gen_range(0..SITES - 1)) % SITES);
            return;
        }
        for site in 0..SITES {
            let ack = self.replicas[site].ack_envelope();
            self.send(site, &ack);
        }
        for site in 0..SITES {
            for peer in 0..SITES {
                if peer == site {
                    continue;
                }
                let peer_id = self.ids[peer];
                let envelopes = if rng.gen_bool(0.5) {
                    self.replicas[site].unacked_envelopes_for(peer_id)
                } else {
                    self.replicas[site]
                        .unacked_batch_for(peer_id)
                        .into_iter()
                        .collect()
                };
                for envelope in envelopes {
                    let bytes = encode_envelope(&envelope);
                    self.net.send(self.ids[site], peer_id, bytes);
                }
            }
        }
    }

    /// Compares every op `site` delivered with the stamp of the same atom
    /// (inserts) or with a stamped delete.
    fn check_deliveries(&self, site: usize) {
        for op in &self.replicas[site].doc().delivered {
            match op {
                Op::Insert { atom, .. } => assert_eq!(
                    Some(op),
                    self.inserts.get(atom),
                    "site {site} delivered an insert its sender never stamped"
                ),
                Op::Delete { .. } => assert!(
                    self.deletes.contains(op),
                    "site {site} delivered a delete its sender never stamped: {op:?}"
                ),
            }
        }
    }

    /// The site crashes (its store survives) and recovers from it.
    fn crash(&mut self, site: usize) {
        self.check_deliveries(site);
        drop(self.replicas[site].detach_store());
        let store = DocStore::new(self.stores[site].clone()).unwrap();
        let (mut recovered, _) = Replica::<Recording>::recover(store).unwrap();
        recovered.set_telemetry(&self.registry.handle());
        self.replicas[site] = recovered;
    }

    /// Sync rounds between `a` and `b` until the session ends (see
    /// `first_converged`), then a checkpoint of both so the integrated cells
    /// and fast-forwarded clocks are durable. (In a round where only the
    /// probed side converged, ops its fast-forward released make its echo
    /// mismatch, and the prober keeps cells its clock does not cover.)
    fn sync(&mut self, a: usize, b: usize) {
        for _ in 0..64 {
            let mut queue = vec![(b, self.replicas[a].sync_probe())];
            let mut converged = [false; SITES];
            while let Some((to, envelope)) = queue.pop() {
                let effect = self.replicas[to].receive_any(envelope);
                converged[to] |= effect.converged;
                let back = if to == a { b } else { a };
                queue.extend(effect.replies.into_iter().map(|e| (back, e)));
            }
            let done = converged[a] && converged[b];
            if done || (self.first_converged && (converged[a] || converged[b])) {
                self.replicas[a].persist_checkpoint().unwrap();
                self.replicas[b].persist_checkpoint().unwrap();
                return;
            }
        }
        panic!("sync session did not converge");
    }

    fn quiescent(&self) -> bool {
        self.net.in_flight() == 0
            && self
                .replicas
                .iter()
                .all(|r| r.pending() == 0 && !r.has_unacked())
    }

    /// Heals the links and retransmits (or syncs) until every message is
    /// delivered and acknowledged everywhere.
    fn settle(&mut self, rng: &mut StdRng) {
        for &a in &self.ids.clone() {
            for &b in &self.ids.clone() {
                if a != b {
                    self.net.set_link(a, b, LinkConfig::fixed(2));
                }
            }
        }
        for _ in 0..100 {
            self.deliver(usize::MAX);
            if self.quiescent() {
                return;
            }
            self.retransmit(rng);
        }
        panic!("the run did not settle");
    }

    fn unsettle(&mut self) {
        for &a in &self.ids.clone() {
            for &b in &self.ids.clone() {
                if a != b {
                    self.net.set_link(a, b, faulty_link());
                }
            }
        }
    }

    /// A whole-document flatten, committed by all. The proposer is the site
    /// whose document revision is *lowest*: revisions are local bookkeeping
    /// (sync integration advances them), so a settled participant with a
    /// newer revision must still vote Yes.
    fn flatten(&mut self) {
        let proposer = (0..SITES)
            .min_by_key(|&i| self.replicas[i].doc().inner.revision())
            .unwrap();
        let revisions: Vec<u64> = (0..SITES)
            .map(|i| self.replicas[i].doc().inner.revision())
            .collect();
        let propose = self.replicas[proposer]
            .propose_flatten(Vec::new(), CommitProtocol::TwoPhase)
            .expect("a settled coordinator votes Yes");
        let txn = propose.proposal.txn;
        let participants = (0..SITES)
            .filter(|&i| i != proposer)
            .map(|i| self.ids[i])
            .collect();
        let mut coordinator = FlattenCoordinator::new(propose, participants);
        while !coordinator.is_done() {
            for (to, envelope) in coordinator.tick::<TestOp>() {
                let at = self.ids.iter().position(|&s| s == to).unwrap();
                for reply in self.replicas[at].receive_any(envelope).replies {
                    if let Envelope::FlattenVote(vote) = reply {
                        coordinator.on_vote(vote);
                    }
                }
            }
        }
        assert_eq!(
            coordinator.outcome(),
            Some(CommitOutcome::Committed),
            "proposer {proposer}, revisions {revisions:?}"
        );
        self.replicas[proposer].finish_flatten(txn, true);
        assert!(self.replicas.iter().all(|r| r.flatten_epoch() == 1));
    }
}

/// One faulty run; returns how many delivered ops the replicas skipped as
/// already synced.
fn run(seed: u64, at_least_once: bool, first_converged: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run = Run::new(seed, at_least_once, first_converged);
    let rounds = 160;
    for round in 0..rounds {
        if round == rounds / 2 {
            run.settle(&mut rng);
            run.flatten();
            run.unsettle();
        }
        let site = rng.gen_range(0..SITES);
        let keys = rng.gen_range(1..6);
        run.type_run(&mut rng, site, keys);
        let n = rng.gen_range(0..8);
        run.deliver(n);
        match rng.gen_range(0..20) {
            0..=2 => run.retransmit(&mut rng),
            3 => run.crash(rng.gen_range(0..SITES)),
            4 => {
                let a = rng.gen_range(0..SITES);
                run.sync(a, (a + 1 + rng.gen_range(0..SITES - 1)) % SITES);
            }
            _ => {}
        }
    }
    run.settle(&mut rng);
    // One more run from every site over the healed links, with no repair
    // after it: a site that got a sender's latest ops by sync alone must
    // still resolve the envelopes chained to them.
    for site in 0..SITES {
        run.type_run(&mut rng, site, 3);
    }
    run.deliver(usize::MAX);
    for (site, replica) in run.replicas.iter().enumerate() {
        assert_eq!(replica.pending(), 0, "seed {seed}: site {site} parked ops");
    }
    for site in 0..SITES {
        run.check_deliveries(site);
    }
    let digest = run.replicas[0].digest();
    let text = run.replicas[0].doc().inner.to_vec();
    for (site, replica) in run.replicas.iter().enumerate() {
        assert_eq!(
            replica.digest(),
            digest,
            "seed {seed}: site {site} diverged"
        );
        assert_eq!(
            replica.doc().inner.to_vec(),
            text,
            "seed {seed}: site {site}"
        );
    }
    assert!(
        run.chained_sent > 100,
        "seed {seed}: the stream was chained"
    );
    assert!(run.net.dropped_count() > 0 && run.net.duplicated_count() > 0);
    // Recovery replays every store to the same state: no journaled record
    // depended on a chain head the store cannot rebuild.
    for site in 0..SITES {
        run.crash(site);
        assert_eq!(
            run.replicas[site].digest(),
            digest,
            "seed {seed}: site {site}"
        );
        run.check_deliveries(site);
    }
    run.registry
        .snapshot()
        .counter("replica.replays_skipped")
        .unwrap_or(0)
}

#[test]
fn chained_envelopes_deliver_exactly_the_stamped_ops_under_faults() {
    for seed in [3, 17, 2026] {
        run(seed, true, false);
    }
}

#[test]
fn chained_envelopes_converge_through_sync_alone_without_retransmission() {
    // Lost envelopes are never re-shipped: a chained op whose predecessor
    // was lost parks until a sync session covers the predecessor and hands
    // over the chain head it needs.
    for seed in [3, 17, 2026] {
        run(seed, false, false);
    }
}

#[test]
fn a_session_that_ends_at_the_first_converged_effect_leaves_later_deliveries_skipped() {
    // Seed 3: the probed site's fast-forward releases held ops, its echo no
    // longer matches, and the prober keeps synced cells its clock does not
    // cover. The regular delivery of those ops must skip them, not panic
    // with a duplicate identifier.
    let skipped = run(3, true, true);
    assert!(
        skipped > 0,
        "the schedule delivered no op ahead of its clock"
    );
}

type Plain = Treedoc<String, Sdis>;

/// Ping-pongs sync rounds between `a` and `b` until both sides
/// fast-forwarded in the same round.
fn sync_plain(replicas: &mut [Replica<Plain>], a: usize, b: usize) {
    for _ in 0..64 {
        let mut queue = vec![(b, replicas[a].sync_probe())];
        let mut converged = [false, false];
        while let Some((to, envelope)) = queue.pop() {
            let wire = encode_envelope(&envelope);
            let envelope = decode_envelope(&wire).unwrap();
            let effect = replicas[to].receive_any(envelope);
            converged[usize::from(to == b)] |= effect.converged;
            let back = if to == a { b } else { a };
            queue.extend(effect.replies.into_iter().map(|e| (back, e)));
        }
        if converged == [true, true] {
            return;
        }
    }
    panic!("sync session did not converge");
}

/// `site` types `keys` characters at the end of its document and returns
/// the envelopes, in order.
fn type_keys(replica: &mut Replica<Plain>, keys: &str) -> Vec<Envelope<TestOp>> {
    keys.chars()
        .map(|c| {
            let len = replica.doc().len();
            let op = replica.doc_mut().local_insert(len, c.to_string()).unwrap();
            replica.stamp_envelope(op)
        })
        .collect()
}

fn deliver(replica: &mut Replica<Plain>, envelopes: &[Envelope<TestOp>]) {
    for envelope in envelopes {
        let envelope = decode_envelope(&encode_envelope(envelope)).unwrap();
        replica.receive_envelope(envelope);
    }
}

#[test]
fn a_peer_that_joins_by_snapshot_and_sync_resolves_the_next_chained_envelopes() {
    let ids: Vec<SiteId> = (1..=3).map(SiteId::from_u64).collect();
    let mut replicas: Vec<Replica<Plain>> = ids
        .iter()
        .map(|&site| Replica::new(site, Plain::new(site)))
        .collect();
    let registry = Registry::new();
    for replica in &mut replicas {
        replica.set_telemetry(&registry.handle());
    }
    // The veterans type to each other; the newcomer hears nothing.
    for round in 0..4 {
        let envelopes = type_keys(&mut replicas[round % 2], "abcde");
        deliver(&mut replicas[1 - round % 2], &envelopes);
    }
    // Join: a snapshot bootstrap from site 1, then one sync session.
    let mut bootstrapped = false;
    for envelope in replicas[0].snapshot_envelopes() {
        bootstrapped |= replicas[2].receive_any(envelope).bootstrapped;
    }
    assert!(bootstrapped);
    sync_plain(&mut replicas, 2, 0);
    // No chain restarts, no retransmission: the veterans keep chaining and
    // everyone hears everyone.
    for round in 0..6 {
        let from = round % 3;
        let envelopes = type_keys(&mut replicas[from], "xyz");
        if from < 2 {
            assert!(
                envelopes
                    .iter()
                    .all(|e| matches!(e, Envelope::OpChained(_))),
                "the veterans' envelopes stay chained"
            );
        }
        for to in (0..3).filter(|&to| to != from) {
            deliver(&mut replicas[to], &envelopes);
        }
    }
    for replica in &replicas {
        assert_eq!(replica.pending(), 0, "site {}", replica.site());
        assert_eq!(replica.digest(), replicas[0].digest());
    }
    let dropped = registry.snapshot().counter("replica.chained_ops_dropped");
    assert_eq!(dropped, Some(0));
    assert_eq!(replicas[2].doc().len(), 20 + 18);
}

#[test]
fn a_sync_with_a_third_site_releases_ops_parked_behind_a_lost_predecessor() {
    let ids: Vec<SiteId> = (1..=3).map(SiteId::from_u64).collect();
    let mut replicas: Vec<Replica<Plain>> = ids
        .iter()
        .map(|&site| Replica::new(site, Plain::new(site)))
        .collect();
    let (writer, relay, reader) = (0, 1, 2);
    let opening = type_keys(&mut replicas[writer], "abcde");
    deliver(&mut replicas[relay], &opening);
    deliver(&mut replicas[reader], &opening);
    // Keystroke 6 reaches only the relay, 7–9 only the reader, which parks
    // them behind the lost 6.
    let sixth = type_keys(&mut replicas[writer], "f");
    deliver(&mut replicas[relay], &sixth);
    let rest = type_keys(&mut replicas[writer], "ghi");
    assert!(rest.iter().all(|e| matches!(e, Envelope::OpChained(_))));
    deliver(&mut replicas[reader], &rest);
    assert_eq!(replicas[reader].pending(), 3);
    // The relay holds 6 and its chain head: the sync covers 6 and hands the
    // head over, so 7–9 resolve.
    sync_plain(&mut replicas, reader, relay);
    assert_eq!(replicas[reader].pending(), 0);
    assert_eq!(replicas[reader].doc().to_vec().concat(), "abcdefghi");
    // The other way round: the relay never got 7–9; after a sync with the
    // reader it resolves keystroke 10.
    let tenth = type_keys(&mut replicas[writer], "j");
    deliver(&mut replicas[relay], &tenth);
    assert_eq!(replicas[relay].pending(), 1);
    sync_plain(&mut replicas, relay, reader);
    deliver(&mut replicas[reader], &tenth);
    for replica in &replicas {
        assert_eq!(replica.pending(), 0, "site {}", replica.site());
        assert_eq!(replica.doc().to_vec().concat(), "abcdefghij");
    }
}

#[test]
fn the_prober_hands_over_the_chain_heads_the_probed_site_lacks() {
    let ids: Vec<SiteId> = (1..=3).map(SiteId::from_u64).collect();
    let mut replicas: Vec<Replica<Plain>> = ids
        .iter()
        .map(|&site| Replica::new(site, Plain::new(site)))
        .collect();
    let (writer, prober, probed) = (0, 1, 2);
    let opening = type_keys(&mut replicas[writer], "abc");
    deliver(&mut replicas[prober], &opening);
    // The probed site gets the writer's ops by state transfer only: its
    // echo carries its clock from before the merge, and the prober answers
    // with the head it lacks.
    sync_plain(&mut replicas, prober, probed);
    assert_eq!(replicas[probed].doc().to_vec().concat(), "abc");
    let next = type_keys(&mut replicas[writer], "d");
    assert!(matches!(next[0], Envelope::OpChained(_)));
    deliver(&mut replicas[probed], &next);
    assert_eq!(replicas[probed].pending(), 0);
    assert_eq!(replicas[probed].doc().to_vec().concat(), "abcd");
}

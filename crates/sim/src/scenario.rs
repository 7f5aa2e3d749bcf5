//! Randomised cooperative-editing scenarios, including faulty-network runs
//! and the distributed flatten commitment protocol carried over the wire.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use treedoc_core::{Op, Sdis, SiteId, Treedoc, TreedocConfig};
use treedoc_replication::{
    decode_envelope, encode_envelope, BatchPolicy, CommitOutcome, CommitProtocol, Envelope,
    FlattenCoordinator, LinkConfig, NetworkEvent, Replica, SimNetwork, SyncConfig,
};
use treedoc_storage::DocStore;
use treedoc_telemetry::{Counter, Telemetry};

/// A crash/restart fault: kill one site at an edit round, losing its entire
/// in-memory state, then restart it from its durable store
/// ([`Replica::recover`]) at a later round. Requires
/// [`durable`](Scenario::durable) and [`retransmit`](Scenario::retransmit)
/// (the restarted replica catches up on what it missed through the
/// at-least-once protocol, exactly as if the messages had been lost in
/// flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// Index of the site to kill (must not be 0 — the first site coordinates
    /// flatten proposals and serves as the convergence reference).
    pub site: usize,
    /// Edit round at which the site dies.
    pub crash_round: usize,
    /// Round at which it restarts from its store; a value past the edit
    /// rounds restarts it at the start of the drain phase.
    pub restart_round: usize,
}

/// An offline gap: one site's process is unreachable for a window of edit
/// rounds — everything the network delivers to it during the window is
/// discarded (the process is down), and it performs no edits. Unlike a
/// [`CrashSchedule`] the replica object itself survives (its clock and
/// document are intact), so the site models a laptop going offline rather
/// than a process dying: it catches up afterwards either through
/// at-least-once retransmission or through a state-based anti-entropy
/// session, whichever the scenario enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OfflineWindow {
    /// Index of the site that goes offline (must not be 0 — the first site
    /// is the convergence reference and sync hub).
    pub site: usize,
    /// First edit round of the gap (inclusive).
    pub from_round: usize,
    /// First edit round after the gap; a value past the edit rounds keeps
    /// the site offline until the drain phase.
    pub to_round: usize,
}

/// Description of one simulated editing session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of replicas (sites).
    pub sites: usize,
    /// Local edits initiated per site.
    pub edits_per_site: usize,
    /// Probability that an edit is a delete rather than an insert.
    pub delete_ratio: f64,
    /// How many edits a site performs before its batch is broadcast
    /// (1 = every edit is broadcast immediately).
    pub burst: usize,
    /// Sender-side operation batching: operations are buffered and shipped
    /// as one [`Envelope::OpBatch`] once this many accumulate (or
    /// [`batch_max_bytes`](Self::batch_max_bytes) is hit). `1` disables
    /// batching — every operation ships in its own envelope, the pre-batching
    /// behaviour.
    pub batch_max_ops: usize,
    /// Byte half of the flush policy: a batch also flushes once its binary
    /// encoding reaches this size. Ignored while
    /// [`batch_max_ops`](Self::batch_max_ops) is 1.
    pub batch_max_bytes: usize,
    /// Whether the §4.1 balancing strategies are enabled.
    pub balancing: bool,
    /// Simulate a temporary partition of the first site for the middle third
    /// of the run.
    pub partition_first_site: bool,
    /// Probability that the network silently drops a message. Requires
    /// [`retransmit`](Self::retransmit) to still converge.
    pub drop_prob: f64,
    /// Probability that the network delivers a message twice.
    pub duplicate_prob: f64,
    /// Probability that a message is delayed by a reorder burst, overtaking
    /// later traffic.
    pub reorder_burst_prob: f64,
    /// Enables at-least-once delivery: replicas log stamped messages,
    /// exchange cumulative acks and retransmit whatever peers miss.
    pub retransmit: bool,
    /// Every `k` edit rounds the first site proposes a distributed flatten of
    /// the whole document, carried as `Envelope::Flatten*` messages over the
    /// faulty network (§4.2.1). Mid-run proposals contend with concurrent
    /// edits (and usually abort); when set, one extra proposal runs at final
    /// quiescence and demonstrates the committed path. `None` disables the
    /// protocol.
    pub flatten_cadence: Option<usize>,
    /// Which commitment protocol flatten proposals run under (2PC or 3PC).
    pub flatten_protocol: CommitProtocol,
    /// Attach a durable [`DocStore`] (in-memory backend) to every replica:
    /// each stamps/receives through a checksummed WAL and checkpoints on
    /// committed flattens. Required by [`crash`](Self::crash).
    pub durable: bool,
    /// Every `k` edit rounds each durable replica writes a checkpoint
    /// (snapshot + WAL truncation), independent of flatten commits. `None`
    /// leaves compaction to flatten commits alone.
    pub snapshot_cadence: Option<usize>,
    /// Kill one site mid-run and restart it from its store.
    pub crash: Option<CrashSchedule>,
    /// State-based anti-entropy: instead of (or in addition to) at-least-once
    /// retransmission, the drain phase repairs diverged replicas by running
    /// merkle-digest sync sessions between the first site and every other
    /// site — `O(log n)` digest rounds per session, shipping only the runs of
    /// cells that actually differ. The sessions run out-of-band (reliable,
    /// synchronous), but every message still crosses the binary wire codec
    /// and is byte-counted in [`SimReport::sync_bytes`].
    pub anti_entropy: bool,
    /// Cap on how many unacknowledged messages a coalesced retransmission
    /// batch re-ships per recovery round ([`Replica::set_retransmit_window`]).
    /// `None` re-ships the whole window at once. When set, the simulator
    /// retransmits through batch envelopes even if sender-side batching is
    /// otherwise off, so the cap is observable.
    pub retransmit_window: Option<usize>,
    /// A brand-new site (the last index) joins at this edit round: it starts
    /// with an **empty** document (not the seed), takes no part in the
    /// session until the round arrives, then bootstraps from the first site's
    /// snapshot chunks and catches up through a sync session. Requires
    /// [`anti_entropy`](Self::anti_entropy) (later losses to the joiner are
    /// repaired by sync, not retransmission).
    pub late_join: Option<usize>,
    /// Take one site offline for a window of edit rounds (see
    /// [`OfflineWindow`]). Requires [`retransmit`](Self::retransmit) or
    /// [`anti_entropy`](Self::anti_entropy) to catch the site back up.
    pub offline: Option<OfflineWindow>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            sites: 3,
            edits_per_site: 100,
            delete_ratio: 0.3,
            burst: 5,
            batch_max_ops: 1,
            batch_max_bytes: 16 * 1024,
            balancing: false,
            partition_first_site: false,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_burst_prob: 0.0,
            retransmit: false,
            flatten_cadence: None,
            flatten_protocol: CommitProtocol::TwoPhase,
            durable: false,
            snapshot_cadence: None,
            crash: None,
            anti_entropy: false,
            retransmit_window: None,
            late_join: None,
            offline: None,
            seed: 42,
        }
    }
}

impl Scenario {
    /// A lossy at-least-once session: 10% drops, 10% duplicates, 10% reorder
    /// bursts, recovered by retransmission.
    pub fn faulty() -> Self {
        Scenario {
            drop_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_burst_prob: 0.1,
            retransmit: true,
            ..Scenario::default()
        }
    }

    /// A faulty session that additionally runs distributed flatten
    /// commitment under `protocol`: proposals every 4 edit rounds (which
    /// contend with concurrent edits) plus the final quiescent proposal.
    pub fn flatten_faulty(protocol: CommitProtocol) -> Self {
        Scenario {
            flatten_cadence: Some(4),
            flatten_protocol: protocol,
            ..Scenario::faulty()
        }
    }

    /// A lossy at-least-once session shipping batched operations: same fault
    /// mix as [`faulty`](Self::faulty), with up to `max_ops` operations
    /// coalesced per envelope (retransmissions included).
    pub fn batched_faulty(max_ops: usize) -> Self {
        Scenario {
            batch_max_ops: max_ops,
            ..Scenario::faulty()
        }
    }

    /// A faulty durable session in which `site` crashes at `crash_round` and
    /// restarts from its store at `restart_round`.
    pub fn crash_faulty(site: usize, crash_round: usize, restart_round: usize) -> Self {
        Scenario {
            durable: true,
            crash: Some(CrashSchedule {
                site,
                crash_round,
                restart_round,
            }),
            ..Scenario::faulty()
        }
    }

    /// The same fault mix as [`faulty`](Self::faulty), recovered by
    /// state-based anti-entropy instead of retransmission: no acks, no send
    /// logs — losses are repaired at the drain phase by merkle-digest sync
    /// sessions.
    pub fn anti_entropy_faulty() -> Self {
        Scenario {
            retransmit: false,
            anti_entropy: true,
            ..Scenario::faulty()
        }
    }

    /// A clean-network session in which a brand-new site joins at `round`
    /// via snapshot bootstrap and sync catch-up. The joiner is the last site
    /// index and starts empty.
    pub fn late_joiner(round: usize) -> Self {
        Scenario {
            anti_entropy: true,
            late_join: Some(round),
            ..Scenario::default()
        }
    }

    /// A session in which `site` is offline for `[from_round, to_round)`,
    /// catching up afterwards through anti-entropy (when `anti_entropy`) or
    /// retransmission (otherwise).
    pub fn offline_gap(
        site: usize,
        from_round: usize,
        to_round: usize,
        anti_entropy: bool,
    ) -> Self {
        Scenario {
            retransmit: !anti_entropy,
            anti_entropy,
            offline: Some(OfflineWindow {
                site,
                from_round,
                to_round,
            }),
            ..Scenario::default()
        }
    }
}

/// What a scenario run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Whether every replica ended with identical content, a drained
    /// hold-back queue and (in at-least-once mode) a fully acknowledged log.
    pub converged: bool,
    /// Final document length.
    pub final_len: usize,
    /// Total operations generated across all sites.
    pub ops_generated: usize,
    /// Total messages delivered by the network.
    pub messages_delivered: u64,
    /// Messages silently dropped by fault injection.
    pub messages_dropped: u64,
    /// Extra copies injected by network duplication.
    pub messages_duplicated: u64,
    /// Stale or duplicate messages the replicas' hold-back queues discarded.
    pub duplicates_discarded: u64,
    /// Messages re-sent by the at-least-once recovery protocol.
    pub retransmissions: u64,
    /// Encoded bytes of those re-sends, one count per link crossed (already
    /// included in [`network_bytes`](Self::network_bytes)).
    pub retransmission_bytes: usize,
    /// Largest causal hold-back queue observed across replicas.
    pub max_pending: usize,
    /// Total **encoded** operation-envelope bytes handed to the network
    /// (initial broadcasts plus retransmissions, one count per link
    /// crossed) — what actually went over the wire, measured by running the
    /// binary codec on every envelope, not the §5.2 estimate the simulator
    /// used to report. Copies injected by network-level duplication are not
    /// visible to the application and are excluded. Flatten-commitment and
    /// acknowledgement traffic are reported separately in
    /// [`protocol_bytes`](Self::protocol_bytes) and
    /// [`ack_bytes`](Self::ack_bytes).
    pub network_bytes: usize,
    /// Encoded bytes of the cumulative-acknowledgement traffic of the
    /// at-least-once recovery rounds (per link crossed).
    pub ack_bytes: usize,
    /// [`Envelope::OpBatch`]es handed to the network (flush-policy emissions
    /// and coalesced retransmission windows; 0 when batching is off).
    pub op_batches_sent: u64,
    /// Final simulated time in milliseconds.
    pub sim_time_ms: u64,
    /// Rounds the first site actually spent partitioned from the rest (0
    /// when [`partition_first_site`](Scenario::partition_first_site) is off
    /// — or when the run is too short for a window, which is recorded here
    /// instead of silently claiming a partition happened).
    pub partition_rounds: usize,
    /// Flatten proposals initiated by the coordinator site.
    pub flatten_proposals: usize,
    /// Proposals that committed (every replica applied the flatten).
    pub flatten_commits: usize,
    /// Proposals that aborted (a concurrent edit, a missing vote, or the
    /// coordinator's own No vote).
    pub flatten_aborts: usize,
    /// Votes cast across all replicas (coordinator's local votes included).
    pub flatten_votes: u64,
    /// Coordinator protocol rounds summed over all proposals — the
    /// distributed-flatten latency cost the paper leaves unevaluated.
    pub commit_rounds: u64,
    /// Flatten-commitment messages handed to the network (proposals, votes,
    /// pre-commits, decisions, acknowledgements; retransmissions included).
    pub protocol_messages: u64,
    /// Encoded bytes of that commitment traffic (measured with the binary
    /// wire codec, like every byte counter in this report).
    pub protocol_bytes: usize,
    /// Ticks replicas spent locked in the prepared state — the blocking
    /// cost; compare 2PC against 3PC under a coordinator partition.
    pub flatten_blocked_rounds: u64,
    /// Commits applied unilaterally by the 3PC termination rule while the
    /// coordinator was unreachable.
    pub unilateral_commits: u64,
    /// Operations that arrived tagged with a pre-flatten epoch and were
    /// discarded as duplicates.
    pub late_epoch_ops: u64,
    /// Crash/restart cycles performed.
    pub crashes: usize,
    /// WAL records replayed by crash recoveries.
    pub wal_records_replayed: u64,
    /// Bytes read back by crash recoveries (snapshot + valid WAL prefix).
    pub recovered_bytes: u64,
    /// Recoveries that found a valid snapshot (always equals
    /// [`crashes`](Self::crashes) in a healthy run).
    pub snapshot_hits: u64,
    /// WAL records appended across all durable replicas.
    pub wal_appends: u64,
    /// Snapshots written across all durable replicas (attach baselines,
    /// cadence checkpoints and flatten-commit checkpoints).
    pub snapshots_written: u64,
    /// WAL truncations performed by those checkpoints.
    pub wal_truncations: u64,
    /// Messages the network delivered to a site while it was dead (discarded;
    /// recovered later by retransmission).
    pub messages_lost_to_crash: u64,
    /// Anti-entropy sessions run (pairwise: the first site against each
    /// other site, repeated until every replica converged).
    pub sync_sessions: u64,
    /// Root-digest probe rounds across all sessions (each session needs at
    /// least one; a second confirms convergence after repair).
    pub sync_rounds: u64,
    /// [`Envelope::SyncDigests`] messages exchanged — the subtree-walk cost,
    /// `O(log n)` per diverging range.
    pub sync_digest_msgs: u64,
    /// [`Envelope::SyncRuns`] messages exchanged — leaf ranges whose cells
    /// crossed the wire.
    pub sync_run_msgs: u64,
    /// Cells integrated from sync traffic across all replicas.
    pub sync_cells: u64,
    /// Encoded bytes of all anti-entropy traffic (probes, digests, runs; the
    /// sessions run out-of-band, so these bytes are **not** part of
    /// [`network_bytes`](Self::network_bytes)).
    pub sync_bytes: usize,
    /// Late-join snapshot bootstraps completed.
    pub snapshot_bootstraps: u64,
    /// Encoded bytes of snapshot offer/chunk traffic for those bootstraps.
    pub snapshot_bytes: usize,
    /// Messages discarded because the late joiner had not joined yet.
    pub messages_before_join: u64,
    /// Messages discarded while a site was inside its offline window.
    pub offline_losses: u64,
}

type Doc = Treedoc<String, Sdis>;
type Env = Envelope<Op<String, Sdis>>;

/// What the simulated network carries: the **encoded bytes** of an envelope.
/// Every message crossing the wire goes through the binary codec and is
/// decoded on delivery, so the byte counters in [`SimReport`] are measured
/// sizes and every simulator run doubles as an end-to-end codec round-trip
/// test.
type Wire = Vec<u8>;

/// The simulator's telemetry mirror: wire traffic measured **at the send
/// boundary** (inside [`send_env`]/[`broadcast_env`], so no call site can
/// forget it), plus the per-purpose counters the registry-driven reports
/// read. The wire counters are deliberately independent of the report's
/// own accumulators — the differential test asserts the two decompositions
/// agree byte for byte.
#[derive(Debug, Clone, Default)]
struct SimMetrics {
    wire_bytes: Counter,
    wire_msgs: Counter,
    ack_bytes: Counter,
    retransmission_bytes: Counter,
    sync_sessions: Counter,
    sync_rounds: Counter,
    sync_digest_msgs: Counter,
    sync_run_msgs: Counter,
    sync_cells: Counter,
    sync_bytes: Counter,
    snapshot_bytes: Counter,
}

impl SimMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        SimMetrics {
            wire_bytes: telemetry.counter("sim.wire_bytes"),
            wire_msgs: telemetry.counter("sim.wire_msgs"),
            ack_bytes: telemetry.counter("sim.ack_bytes"),
            retransmission_bytes: telemetry.counter("sim.retransmission_bytes"),
            sync_sessions: telemetry.counter("sim.sync_sessions"),
            sync_rounds: telemetry.counter("sim.sync_rounds"),
            sync_digest_msgs: telemetry.counter("sim.sync_digest_msgs"),
            sync_run_msgs: telemetry.counter("sim.sync_run_msgs"),
            sync_cells: telemetry.counter("sim.sync_cells"),
            sync_bytes: telemetry.counter("sim.sync_bytes"),
            snapshot_bytes: telemetry.counter("sim.snapshot_bytes"),
        }
    }
}

/// Encodes an envelope and sends it, returning the encoded size. The bytes
/// are mirrored into `sim.wire_bytes` here, at the one point every unicast
/// passes through.
fn send_env(
    net: &mut SimNetwork<Wire>,
    metrics: &SimMetrics,
    from: SiteId,
    to: SiteId,
    env: &Env,
) -> usize {
    let bytes = encode_envelope(env);
    let len = bytes.len();
    metrics.wire_bytes.add(len as u64);
    metrics.wire_msgs.inc();
    net.send(from, to, bytes);
    len
}

/// Encodes an envelope once and broadcasts it, returning the encoded size
/// (per copy; the caller multiplies by the recipient count for per-link
/// accounting). The mirrored `sim.wire_bytes` count covers every link
/// crossed — the recipient list minus the sender itself.
fn broadcast_env(
    net: &mut SimNetwork<Wire>,
    metrics: &SimMetrics,
    from: SiteId,
    recipients: &[SiteId],
    env: &Env,
) -> usize {
    let bytes = encode_envelope(env);
    let len = bytes.len();
    let links = recipients.iter().filter(|&&r| r != from).count();
    metrics.wire_bytes.add((len * links) as u64);
    metrics.wire_msgs.add(links as u64);
    net.broadcast(from, recipients, bytes);
    len
}

/// Maximum recovery rounds (ack exchange + retransmission) the drain phase
/// attempts before declaring the run wedged. With independent per-message
/// drop probability < 1 the expected number of rounds is tiny; hitting the
/// cap means the protocol, not the dice, is broken.
const MAX_RECOVERY_ROUNDS: usize = 1000;

/// Ticks a participant may wait in the 3PC pre-committed state before
/// terminating with a unilateral commit (the non-blocking property).
pub(crate) const PRE_COMMIT_TIMEOUT_TICKS: u64 = 30;

/// The coordinator side of an in-flight flatten proposal plus the protocol
/// cost accumulators reported by [`SimReport`].
#[derive(Default)]
struct FlattenDriver {
    active: Option<FlattenCoordinator>,
    /// Whether the coordinator's own replica has applied the outcome.
    self_finished: bool,
    proposals: usize,
    commits: usize,
    aborts: usize,
    commit_rounds: u64,
    protocol_messages: u64,
    protocol_bytes: usize,
}

impl FlattenDriver {
    /// Starts a proposal at the coordinator (the first site). A local No
    /// vote aborts on the spot with zero network traffic.
    fn start_proposal(
        &mut self,
        replicas: &mut [Replica<Doc>],
        site_ids: &[SiteId],
        protocol: CommitProtocol,
    ) {
        debug_assert!(self.active.is_none(), "one proposal at a time");
        self.proposals += 1;
        match replicas[0].propose_flatten(Vec::new(), protocol) {
            Some(propose) => {
                self.active = Some(FlattenCoordinator::new(propose, site_ids[1..].to_vec()));
                self.self_finished = false;
            }
            None => self.aborts += 1,
        }
    }

    /// Advances the coordinator one protocol round: sends this round's
    /// (re)transmissions, applies the outcome to the coordinator's own
    /// replica as soon as it is decided, and retires the coordinator once
    /// every participant acknowledged.
    fn pump(
        &mut self,
        replicas: &mut [Replica<Doc>],
        site_ids: &[SiteId],
        net: &mut SimNetwork<Wire>,
        metrics: &SimMetrics,
    ) {
        let Some(coordinator) = self.active.as_mut() else {
            return;
        };
        for (to, env) in coordinator.tick::<Op<String, Sdis>>() {
            self.protocol_messages += 1;
            self.protocol_bytes += send_env(net, metrics, site_ids[0], to, &env);
        }
        if let Some(outcome) = coordinator.outcome() {
            if !self.self_finished {
                self.self_finished = true;
                let committed = outcome == CommitOutcome::Committed;
                replicas[0].finish_flatten(coordinator.txn(), committed);
                if committed {
                    self.commits += 1;
                } else {
                    self.aborts += 1;
                }
            }
        }
        if coordinator.is_done() {
            self.commit_rounds += coordinator.stats().rounds;
            self.active = None;
        }
    }
}

/// Delivers one network event to its addressee and tracks the hold-back
/// high-water mark across replicas. Votes addressed to the coordinator site
/// feed the active coordinator; flatten requests answered by participants
/// send their reply straight back through the network. Events addressed to a
/// dead (crashed, not yet restarted) site are discarded and counted — the
/// at-least-once protocol recovers them after the restart.
#[allow(clippy::too_many_arguments)]
fn deliver(
    replicas: &mut [Replica<Doc>],
    site_ids: &[SiteId],
    driver: &mut FlattenDriver,
    net: &mut SimNetwork<Wire>,
    metrics: &SimMetrics,
    event: NetworkEvent<Wire>,
    max_pending: &mut usize,
    dead: Option<SiteId>,
    lost_to_crash: &mut u64,
) {
    if dead == Some(event.to) {
        *lost_to_crash += 1;
        return;
    }
    // Every delivery decodes the bytes that actually crossed the wire; an
    // undecodable message means the codec (not the scenario) is broken.
    let envelope: Env = decode_envelope(&event.payload)
        .unwrap_or_else(|e| panic!("undecodable envelope on the wire: {e}"));
    if let Envelope::FlattenVote(vote) = &envelope {
        if event.to == site_ids[0] {
            if let Some(coordinator) = driver.active.as_mut() {
                coordinator.on_vote(*vote);
            }
            return;
        }
    }
    let idx = site_ids
        .iter()
        .position(|&s| s == event.to)
        .expect("known site");
    let (_, reply) = replicas[idx].receive_any(envelope);
    if let Some(reply) = reply {
        driver.protocol_messages += 1;
        driver.protocol_bytes += send_env(net, metrics, event.to, event.from, &reply);
    }
    *max_pending = (*max_pending).max(replicas[idx].pending());
}

/// Crash-recovery accounting accumulated across restarts.
#[derive(Default)]
struct RecoveryTotals {
    records: u64,
    bytes: u64,
    snapshot_hits: u64,
}

/// Restarts a crashed site from its durable store, folding the recovery
/// report into the totals. The batcher is transport policy, not durable
/// state, so it is re-enabled rather than recovered; whatever the dead
/// process had buffered unflushed is re-sent from the recovered send log by
/// the at-least-once protocol.
fn restart_replica(
    replicas: &mut [Replica<Doc>],
    idx: usize,
    store: DocStore,
    totals: &mut RecoveryTotals,
    batch_policy: Option<BatchPolicy>,
    telemetry: &Telemetry,
) {
    let (mut replica, report) = Replica::recover(store).expect("crash recovery must succeed");
    totals.records += report.wal_records_replayed as u64;
    totals.bytes += report.bytes_recovered as u64;
    totals.snapshot_hits += u64::from(report.snapshot_hit);
    if let Some(policy) = batch_policy {
        replica.enable_batching(policy);
    }
    replica.set_telemetry(telemetry);
    replicas[idx] = replica;
}

/// Anti-entropy accounting accumulated across sessions.
#[derive(Default)]
struct SyncTotals {
    sessions: u64,
    rounds: u64,
    digest_msgs: u64,
    run_msgs: u64,
    cells: u64,
    bytes: usize,
    snapshot_bootstraps: u64,
    snapshot_bytes: usize,
}

/// Probe rounds a single anti-entropy session may take before the run is
/// declared wedged. Each round either proves convergence or ships cells both
/// ways, so a handful suffices; hitting the cap means the protocol is broken.
const MAX_SYNC_ROUNDS: usize = 64;

/// Runs one complete anti-entropy session between replicas `a` and `b`:
/// `a` probes, replies ping-pong between the two until a round ends with
/// equal root digests on both sides. The session is out-of-band — reliable
/// and synchronous, unlike the lossy operation traffic — but every message
/// still round-trips through the binary wire codec and its encoded size is
/// counted, so [`SimReport`] compares sync cost against retransmission cost
/// on measured bytes.
fn sync_pair(
    replicas: &mut [Replica<Doc>],
    a: usize,
    b: usize,
    config: &SyncConfig,
    totals: &mut SyncTotals,
    metrics: &SimMetrics,
) {
    totals.sessions += 1;
    metrics.sync_sessions.inc();
    for _ in 0..MAX_SYNC_ROUNDS {
        totals.rounds += 1;
        metrics.sync_rounds.inc();
        let mut queue: Vec<(usize, Env)> = vec![(b, replicas[a].sync_probe())];
        let mut converged = false;
        while let Some((to, env)) = queue.pop() {
            let bytes = encode_envelope(&env);
            totals.bytes += bytes.len();
            metrics.sync_bytes.add(bytes.len() as u64);
            match &env {
                Envelope::SyncDigests(_) => {
                    totals.digest_msgs += 1;
                    metrics.sync_digest_msgs.inc();
                }
                Envelope::SyncRuns(_) => {
                    totals.run_msgs += 1;
                    metrics.sync_run_msgs.inc();
                }
                _ => {}
            }
            let env: Env = decode_envelope(&bytes)
                .unwrap_or_else(|e| panic!("undecodable sync envelope: {e}"));
            let effect = replicas[to].receive_sync(env, config);
            totals.cells += effect.cells_integrated as u64;
            metrics.sync_cells.add(effect.cells_integrated as u64);
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

/// Bootstraps the late joiner from the donor's snapshot chunks, then runs a
/// sync session so the joiner also adopts the donor's causal clock (making
/// late copies of already-absorbed operations discardable duplicates).
fn bootstrap_joiner(
    replicas: &mut [Replica<Doc>],
    donor: usize,
    joiner: usize,
    config: &SyncConfig,
    totals: &mut SyncTotals,
    metrics: &SimMetrics,
) {
    let mut bootstrapped = false;
    for env in replicas[donor].snapshot_envelopes(config) {
        let bytes = encode_envelope(&env);
        totals.snapshot_bytes += bytes.len();
        metrics.snapshot_bytes.add(bytes.len() as u64);
        let env: Env = decode_envelope(&bytes)
            .unwrap_or_else(|e| panic!("undecodable snapshot envelope: {e}"));
        bootstrapped |= replicas[joiner].receive_sync(env, config).bootstrapped;
    }
    assert!(bootstrapped, "snapshot bootstrap must complete");
    totals.snapshot_bootstraps += 1;
    sync_pair(replicas, donor, joiner, config, totals, metrics);
}

/// Runs a scenario to completion (all messages delivered, all losses
/// recovered when retransmission is on) and checks convergence.
pub fn run(scenario: &Scenario) -> SimReport {
    run_with(scenario, &Telemetry::disabled())
}

/// Like [`run`], but with every replica, store and wire boundary bound to
/// `telemetry`: the registry afterwards holds the run's wire/sync/latency
/// instruments (the `sim.*`, `replica.*` and `store.*` families). The report
/// itself is byte-identical to a plain [`run`] — telemetry observes, it
/// never steers.
pub fn run_with(scenario: &Scenario, telemetry: &Telemetry) -> SimReport {
    let metrics = SimMetrics::resolve(telemetry);
    assert!(
        scenario.sites >= 2,
        "a cooperative session needs at least two sites"
    );
    assert!(
        scenario.drop_prob == 0.0 || scenario.retransmit || scenario.anti_entropy,
        "a lossy network cannot converge without retransmission or anti-entropy"
    );
    assert!(
        !(scenario.anti_entropy && scenario.flatten_cadence.is_some()),
        "anti-entropy and flatten commitment are not combined in the simulator"
    );
    assert!(
        !(scenario.anti_entropy && scenario.crash.is_some()),
        "crash recovery catches up via retransmission, not anti-entropy"
    );
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let site_ids: Vec<SiteId> = (1..=scenario.sites as u64).map(SiteId::from_u64).collect();
    let config = if scenario.balancing {
        TreedocConfig::balanced()
    } else {
        TreedocConfig::default()
    };

    // The late joiner is always the last site index; until its join round it
    // is absent — no seed document, no edits, and traffic addressed to it is
    // discarded.
    let joiner: Option<usize> = scenario.late_join.map(|_| scenario.sites - 1);
    let mut joined = scenario.late_join.is_none();

    // Everyone starts from the same exploded seed document — except the late
    // joiner, which begins with an empty document of its own.
    let seed_doc: Vec<String> = (0..10).map(|i| format!("seed line {i}")).collect();
    let mut replicas: Vec<Replica<Doc>> = site_ids
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let doc = if joiner == Some(i) {
                Doc::with_config(s, config)
            } else {
                Doc::from_atoms_with_config(s, &seed_doc, config)
            };
            let mut replica = Replica::new(s, doc);
            replica.set_telemetry(telemetry);
            replica
        })
        .collect();
    if scenario.retransmit {
        for r in replicas.iter_mut() {
            r.enable_at_least_once(&site_ids);
            r.set_retransmit_window(scenario.retransmit_window);
        }
    }
    if scenario.durable {
        for r in replicas.iter_mut() {
            r.attach_store(DocStore::in_memory())
                .expect("in-memory store attach cannot fail");
        }
    }
    let batch_policy = (scenario.batch_max_ops > 1).then_some(BatchPolicy {
        max_ops: scenario.batch_max_ops,
        max_bytes: scenario.batch_max_bytes,
    });
    if let Some(policy) = batch_policy {
        for r in replicas.iter_mut() {
            r.enable_batching(policy);
        }
    }

    let link = LinkConfig::default()
        .with_drop_prob(scenario.drop_prob)
        .with_duplicate_prob(scenario.duplicate_prob)
        .with_reorder_burst(scenario.reorder_burst_prob, 250);
    let mut net: SimNetwork<Wire> = SimNetwork::new(link, scenario.seed);
    let mut ops_generated = 0usize;
    let mut network_bytes = 0usize;
    let mut retransmission_bytes = 0usize;
    let mut ack_bytes = 0usize;
    let mut op_batches_sent = 0u64;
    let mut max_pending = 0usize;

    let mut driver = FlattenDriver::default();

    let total_rounds = scenario.edits_per_site.div_ceil(scenario.burst.max(1));

    assert!(
        scenario.snapshot_cadence.is_none() || scenario.durable,
        "a snapshot cadence requires durable stores"
    );
    if let Some(cs) = scenario.crash {
        assert!(scenario.durable, "a crash schedule requires durable stores");
        assert!(
            scenario.retransmit,
            "a restarted site recovers missed traffic via retransmission"
        );
        assert!(
            cs.site >= 1 && cs.site < scenario.sites,
            "crash site out of range (site 0 is the reference and coordinator)"
        );
        assert!(
            cs.crash_round < cs.restart_round,
            "restart follows the crash"
        );
        assert!(
            cs.crash_round < total_rounds,
            "the crash must land within the edit rounds"
        );
    }
    if let Some(join_round) = scenario.late_join {
        assert!(
            scenario.anti_entropy,
            "a late joiner catches up via anti-entropy"
        );
        assert!(
            !scenario.retransmit,
            "a late joiner is not a registered at-least-once peer"
        );
        assert!(
            join_round < total_rounds,
            "the join must land within the edit rounds"
        );
        assert!(
            scenario.crash.is_none() && scenario.offline.is_none(),
            "one membership fault per run"
        );
    }
    if let Some(ow) = scenario.offline {
        assert!(
            scenario.retransmit || scenario.anti_entropy,
            "an offline site needs retransmission or anti-entropy to catch up"
        );
        assert!(
            ow.site >= 1 && ow.site < scenario.sites,
            "offline site out of range (site 0 is the reference)"
        );
        assert!(ow.from_round < ow.to_round, "the gap must be non-empty");
        assert!(
            ow.from_round < total_rounds,
            "the gap must start within the edit rounds"
        );
        assert!(scenario.crash.is_none(), "one membership fault per run");
    }
    // The dead site's index and its surviving store, while crashed.
    let mut dead: Option<(usize, DocStore)> = None;
    let mut crashes = 0usize;
    let mut lost_to_crash = 0u64;
    let mut recovery = RecoveryTotals::default();
    let sync_config = SyncConfig::default();
    let mut sync_totals = SyncTotals::default();
    let mut messages_before_join = 0u64;
    let mut offline_losses = 0u64;
    // Partition window of the middle third, clamped so the heal lands at
    // least one round after the cut: short runs used to compute the same
    // round for both (`total_rounds / 3 == 2 * total_rounds / 3`), silently
    // partitioning and healing within one round — i.e. not at all — while
    // the report still suggested a partition had been exercised.
    let partition_window =
        if scenario.partition_first_site && scenario.sites >= 2 && total_rounds > 0 {
            let start = total_rounds / 3;
            let end = ((2 * total_rounds) / 3).max(start + 1);
            Some((start, end))
        } else {
            None
        };
    let partition_rounds = partition_window.map_or(0, |(start, end)| end.min(total_rounds) - start);

    for round in 0..total_rounds {
        if let Some(cs) = scenario.crash {
            if round == cs.restart_round {
                if let Some((idx, store)) = dead.take() {
                    restart_replica(
                        &mut replicas,
                        idx,
                        store,
                        &mut recovery,
                        batch_policy,
                        telemetry,
                    );
                }
            }
            if round == cs.crash_round && crashes == 0 {
                // Death of the process: the replica object (clock, hold-back,
                // send log, document) is gone; only its store survives.
                let store = replicas[cs.site]
                    .detach_store()
                    .expect("durable replica has a store");
                replicas[cs.site] = Replica::new(site_ids[cs.site], Doc::new(site_ids[cs.site]));
                dead = Some((cs.site, store));
                crashes += 1;
            }
        }
        let dead_site = dead.as_ref().map(|&(idx, _)| site_ids[idx]);

        if let Some((start, end)) = partition_window {
            if round == start {
                for &other in &site_ids[1..] {
                    net.partition_both(site_ids[0], other);
                }
            }
            if round == end {
                for &other in &site_ids[1..] {
                    net.heal_both(site_ids[0], other);
                }
            }
        }

        // The late joiner arrives: the first site donates a snapshot (offer +
        // chunks over the wire codec), the joiner adopts it — keeping its own
        // identity — and one sync session transfers the donor's causal clock.
        // From here on the joiner edits and receives like everyone else.
        if scenario.late_join == Some(round) && !joined {
            joined = true;
            bootstrap_joiner(
                &mut replicas,
                0,
                joiner.expect("late_join implies a joiner"),
                &sync_config,
                &mut sync_totals,
                &metrics,
            );
        }
        // The site currently inside its offline window, if any.
        let offline_site: Option<SiteId> = scenario
            .offline
            .filter(|ow| round >= ow.from_round && round < ow.to_round)
            .map(|ow| site_ids[ow.site]);
        let absent_site: Option<SiteId> = (!joined).then(|| site_ids[joiner.expect("unjoined")]);

        // Each site performs a burst of local edits and broadcasts them —
        // unless it is dead, offline, not yet joined, or locked prepared by
        // an in-flight flatten proposal (edits in the subtree must wait for
        // the decision).
        for i in 0..replicas.len() {
            if Some(site_ids[i]) == dead_site
                || Some(site_ids[i]) == offline_site
                || Some(site_ids[i]) == absent_site
                || replicas[i].is_flatten_prepared()
            {
                continue;
            }
            for _ in 0..scenario.burst.max(1) {
                let op = {
                    let replica = &mut replicas[i];
                    let doc = replica.doc_mut();
                    let len = doc.len();
                    if len > 1 && rng.gen_bool(scenario.delete_ratio) {
                        let idx = rng.gen_range(0..len);
                        doc.local_delete(idx).expect("index in range")
                    } else {
                        let idx = rng.gen_range(0..=len);
                        let text = format!("site{} round{} {}", i + 1, round, rng.gen::<u32>());
                        doc.local_insert(idx, text).expect("index in range")
                    }
                };
                ops_generated += 1;
                // `stamp_batched` degenerates to one envelope per op while
                // batching is off, so a single call site serves both modes.
                // Byte accounting happens per envelope actually emitted, with
                // the real encoded size, one count per link crossed.
                if let Some(env) = replicas[i].stamp_batched(op) {
                    op_batches_sent += u64::from(matches!(env, Envelope::OpBatch(_)));
                    network_bytes +=
                        broadcast_env(&mut net, &metrics, site_ids[i], &site_ids, &env)
                            * (scenario.sites - 1);
                }
            }
        }

        // Flatten cadence: the first site proposes a whole-document flatten,
        // contending with whatever the network and the other sites are doing.
        if let Some(cadence) = scenario.flatten_cadence {
            let cadence = cadence.max(1);
            if driver.active.is_none() && round % cadence == cadence - 1 {
                driver.start_proposal(&mut replicas, &site_ids, scenario.flatten_protocol);
            }
        }

        // Advance the commitment protocol one round on both sides.
        for r in replicas.iter_mut() {
            let _ = r.flatten_tick(PRE_COMMIT_TIMEOUT_TICKS);
        }
        driver.pump(&mut replicas, &site_ids, &mut net, &metrics);

        // Let some of the traffic flow between rounds (not all of it, so
        // concurrency actually happens).
        let deliver_now = net.in_flight() / 2;
        for _ in 0..deliver_now {
            let Some(event) = net.step() else { break };
            // An absent joiner or an offline process drops whatever arrives;
            // the catch-up mechanism repairs the gap later.
            if absent_site == Some(event.to) {
                messages_before_join += 1;
                continue;
            }
            if offline_site == Some(event.to) {
                offline_losses += 1;
                continue;
            }
            deliver(
                &mut replicas,
                &site_ids,
                &mut driver,
                &mut net,
                &metrics,
                event,
                &mut max_pending,
                dead_site,
                &mut lost_to_crash,
            );
        }

        // Snapshot cadence: every k rounds each live durable replica writes a
        // checkpoint, bounding how much WAL a crash at the worst instant
        // would have to replay.
        if let Some(k) = scenario.snapshot_cadence {
            let k = k.max(1);
            if round % k == k - 1 {
                for (i, r) in replicas.iter_mut().enumerate() {
                    if Some(site_ids[i]) != dead_site && r.has_store() {
                        r.persist_checkpoint().expect("checkpoint cannot fail");
                    }
                }
            }
        }
    }

    // Heal any remaining partition and drain the network.
    if scenario.partition_first_site {
        for &other in &site_ids[1..] {
            net.heal_both(site_ids[0], other);
        }
    }
    // A site still dead when the edits end restarts at the head of the drain
    // phase (the drain cannot terminate while a registered peer never acks).
    if let Some((idx, store)) = dead.take() {
        restart_replica(
            &mut replicas,
            idx,
            store,
            &mut recovery,
            batch_policy,
            telemetry,
        );
    }
    // Flush whatever the batchers still hold: without retransmission a
    // buffered-but-never-shipped batch would be lost for good, and the final
    // quiescent flatten needs every clock settled.
    for i in 0..replicas.len() {
        if let Some(env) = replicas[i].flush_batch() {
            op_batches_sent += 1;
            network_bytes += broadcast_env(&mut net, &metrics, site_ids[i], &site_ids, &env)
                * (scenario.sites - 1);
        }
    }
    // Anti-entropy drain: fully deliver what is still in flight, then repair
    // whatever the losses left diverged through hub sync sessions (site 0
    // against each other site) until every replica reports the same root
    // digest and an empty hold-back queue. Two passes usually suffice — the
    // first gives site 0 everything, the second distributes it — and because
    // the network is drained before each check, no stale operation copy can
    // arrive after a session has already integrated its cells.
    if scenario.anti_entropy {
        let mut sync_recovery_rounds = 0usize;
        loop {
            while let Some(event) = net.step() {
                deliver(
                    &mut replicas,
                    &site_ids,
                    &mut driver,
                    &mut net,
                    &metrics,
                    event,
                    &mut max_pending,
                    None,
                    &mut lost_to_crash,
                );
            }
            let reference = replicas[0].digest();
            let repaired = replicas.iter().all(|r| r.digest() == reference)
                && replicas.iter().all(|r| r.pending() == 0);
            if net.in_flight() == 0 && repaired {
                break;
            }
            sync_recovery_rounds += 1;
            assert!(
                sync_recovery_rounds <= MAX_RECOVERY_ROUNDS,
                "anti-entropy failed to converge"
            );
            for peer in 1..replicas.len() {
                sync_pair(
                    &mut replicas,
                    0,
                    peer,
                    &sync_config,
                    &mut sync_totals,
                    &metrics,
                );
            }
        }
    }

    // With the protocol enabled, one extra proposal runs at quiescence:
    // every clock is equal by then, so it demonstrates the committed path.
    let mut final_flatten_pending = scenario.flatten_cadence.is_some();
    let mut recovery_rounds = 0usize;
    // Rounds spent idle with a replica still locked and no coordinator left
    // to unlock it (every decision copy lost inside the coordinator's
    // retransmission window). Once past the unilateral-commit timeout no
    // mechanism remains, so the run ends and reports non-convergence
    // honestly instead of spinning to the recovery cap.
    let mut orphaned_lock_rounds = 0u64;
    loop {
        while let Some(event) = net.step() {
            deliver(
                &mut replicas,
                &site_ids,
                &mut driver,
                &mut net,
                &metrics,
                event,
                &mut max_pending,
                None,
                &mut lost_to_crash,
            );
        }

        // Advance any in-flight commitment (vote retransmissions, decision
        // distribution, 3PC unilateral termination).
        for r in replicas.iter_mut() {
            let _ = r.flatten_tick(PRE_COMMIT_TIMEOUT_TICKS);
        }
        driver.pump(&mut replicas, &site_ids, &mut net, &metrics);

        let net_idle = net.in_flight() == 0;
        let logs_clear = replicas.iter().all(|r| !r.has_unacked());
        let queues_clear = replicas.iter().all(|r| r.pending() == 0);
        let locked = replicas.iter().any(|r| r.is_flatten_prepared());

        if net_idle && driver.active.is_none() {
            let logs_ok = !scenario.retransmit || logs_clear;
            if locked && logs_ok && queues_clear {
                // No coordinator, no traffic, yet a replica is still
                // prepared: its decision was lost for good. Give the 3PC
                // unilateral timeout a chance to fire, then stop and let the
                // convergence check report the stuck lock.
                orphaned_lock_rounds += 1;
                if orphaned_lock_rounds > PRE_COMMIT_TIMEOUT_TICKS + 1 {
                    break;
                }
            }
            if !locked {
                if final_flatten_pending && logs_ok && queues_clear {
                    final_flatten_pending = false;
                    driver.start_proposal(&mut replicas, &site_ids, scenario.flatten_protocol);
                    continue;
                }
                if !final_flatten_pending && logs_ok && (queues_clear || !scenario.retransmit) {
                    // Fully recovered — or, without retransmission, nothing
                    // left that could recover (convergence is judged below).
                    break;
                }
                if final_flatten_pending && !scenario.retransmit && !queues_clear {
                    // Losses without retransmission cannot clear the queues;
                    // the final proposal would only vote No forever. Skip it.
                    final_flatten_pending = false;
                    continue;
                }
            }
        }

        recovery_rounds += 1;
        assert!(
            recovery_rounds <= MAX_RECOVERY_ROUNDS,
            "recovery or flatten commitment failed to converge"
        );
        if scenario.retransmit && (!logs_clear || !queues_clear) {
            // Cumulative ack exchange (acks can themselves be dropped; the
            // next round simply repeats them).
            for i in 0..replicas.len() {
                let ack = replicas[i].ack_envelope();
                let per_copy = broadcast_env(&mut net, &metrics, site_ids[i], &site_ids, &ack)
                    * (scenario.sites - 1);
                ack_bytes += per_copy;
                metrics.ack_bytes.add(per_copy as u64);
            }
            while let Some(event) = net.step() {
                deliver(
                    &mut replicas,
                    &site_ids,
                    &mut driver,
                    &mut net,
                    &metrics,
                    event,
                    &mut max_pending,
                    None,
                    &mut lost_to_crash,
                );
            }
            // Retransmit everything still unacknowledged, per peer, keeping
            // the flatten epoch each message was stamped in. With batching
            // on, the peer's whole unacked window coalesces into a single
            // batch envelope; either way each re-send crosses the network
            // with its full encoded payload and is counted like the initial
            // broadcast.
            for i in 0..replicas.len() {
                let from = site_ids[i];
                for &peer in &site_ids {
                    if peer == from {
                        continue;
                    }
                    if batch_policy.is_some() || scenario.retransmit_window.is_some() {
                        // A retransmission window always re-ships through
                        // batch envelopes, so the cap bounds each round's
                        // payload even when sender-side batching is off.
                        if let Some(env) = replicas[i].unacked_batch_for(peer) {
                            op_batches_sent += 1;
                            let sent = send_env(&mut net, &metrics, from, peer, &env);
                            retransmission_bytes += sent;
                            metrics.retransmission_bytes.add(sent as u64);
                        }
                    } else {
                        for env in replicas[i].unacked_envelopes_for(peer) {
                            let sent = send_env(&mut net, &metrics, from, peer, &env);
                            retransmission_bytes += sent;
                            metrics.retransmission_bytes.add(sent as u64);
                        }
                    }
                }
            }
        }
    }

    let store_stats: Vec<treedoc_storage::StoreStats> = replicas
        .iter()
        .filter_map(|r| r.store().map(|s| s.stats()))
        .collect();
    let reference = replicas[0].doc().to_vec();
    let epoch = replicas[0].flatten_epoch();
    let converged = replicas.iter().all(|r| r.doc().to_vec() == reference)
        && replicas.iter().all(|r| r.pending() == 0)
        && replicas.iter().all(|r| !r.has_unacked())
        && replicas.iter().all(|r| r.pending_batch_len() == 0)
        && replicas.iter().all(|r| r.flatten_epoch() == epoch)
        && replicas.iter().all(|r| !r.is_flatten_prepared());

    SimReport {
        converged,
        final_len: reference.len(),
        ops_generated,
        messages_delivered: net.delivered_count(),
        messages_dropped: net.dropped_count(),
        messages_duplicated: net.duplicated_count(),
        duplicates_discarded: replicas.iter().map(|r| r.duplicates_discarded()).sum(),
        retransmissions: replicas.iter().map(|r| r.retransmissions()).sum(),
        retransmission_bytes,
        max_pending,
        network_bytes: network_bytes + retransmission_bytes,
        ack_bytes,
        op_batches_sent,
        sim_time_ms: net.now_ms(),
        partition_rounds,
        flatten_proposals: driver.proposals,
        flatten_commits: driver.commits,
        flatten_aborts: driver.aborts,
        flatten_votes: replicas.iter().map(|r| r.flatten_votes_cast()).sum(),
        commit_rounds: driver.commit_rounds,
        protocol_messages: driver.protocol_messages,
        protocol_bytes: driver.protocol_bytes,
        flatten_blocked_rounds: replicas.iter().map(|r| r.flatten_blocked_ticks()).sum(),
        unilateral_commits: replicas
            .iter()
            .map(|r| r.flatten_unilateral_commits())
            .sum(),
        late_epoch_ops: replicas.iter().map(|r| r.late_epoch_ops()).sum(),
        crashes,
        wal_records_replayed: recovery.records,
        recovered_bytes: recovery.bytes,
        snapshot_hits: recovery.snapshot_hits,
        wal_appends: store_stats.iter().map(|s| s.wal_appends).sum(),
        snapshots_written: store_stats.iter().map(|s| s.snapshots_written).sum(),
        wal_truncations: store_stats.iter().map(|s| s.wal_truncations).sum(),
        messages_lost_to_crash: lost_to_crash,
        sync_sessions: sync_totals.sessions,
        sync_rounds: sync_totals.rounds,
        sync_digest_msgs: sync_totals.digest_msgs,
        sync_run_msgs: sync_totals.run_msgs,
        sync_cells: sync_totals.cells,
        sync_bytes: sync_totals.bytes,
        snapshot_bootstraps: sync_totals.snapshot_bootstraps,
        snapshot_bytes: sync_totals.snapshot_bytes,
        messages_before_join,
        offline_losses,
    }
}

/// A cross-product of scenario axes: loss × duplication × partition × edit
/// burst × balancing, every combination sharing the remaining parameters of
/// [`base`](Self::base).
///
/// The swept axes **shadow** the corresponding fields of `base`: a
/// `drop_prob`, `duplicate_prob`, `burst`, `partition_first_site` or
/// `balancing` set on `base` never runs — only the values listed in the
/// axis vectors do. Put sweep values in the axes, and everything else
/// (sites, edits, seed, `reorder_burst_prob`, …) in `base`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Parameters shared by every cell (sites, edits, seed, …). Fields
    /// covered by an axis vector are ignored — see the type-level note.
    pub base: Scenario,
    /// Drop probabilities to sweep; cells with loss enable retransmission.
    pub drop_probs: Vec<f64>,
    /// Duplication probabilities to sweep.
    pub duplicate_probs: Vec<f64>,
    /// Edit burst sizes to sweep.
    pub bursts: Vec<usize>,
    /// Whether to run with and/or without the mid-run partition.
    pub partition: Vec<bool>,
    /// Whether to run with and/or without §4.1 balancing.
    pub balancing: Vec<bool>,
    /// Flatten proposal cadences to sweep (`None` = protocol disabled).
    pub flatten_cadences: Vec<Option<usize>>,
    /// Commitment protocols to sweep for cells with a flatten cadence.
    pub protocols: Vec<CommitProtocol>,
    /// Snapshot cadences to sweep (`None` = compaction on flatten commits
    /// only). Any `Some` cell runs durable.
    pub snapshot_cadences: Vec<Option<usize>>,
    /// Crash schedules to sweep (`None` = no crash). Any `Some` cell runs
    /// durable with retransmission.
    pub crashes: Vec<Option<CrashSchedule>>,
    /// Operation-batch sizes to sweep (`1` = per-op envelopes). See
    /// [`Scenario::batch_max_ops`].
    pub batch_sizes: Vec<usize>,
    /// Recovery mechanisms to sweep: `false` = at-least-once retransmission
    /// (cells with loss or an offline window get `retransmit = true`),
    /// `true` = state-based anti-entropy ([`Scenario::anti_entropy`]).
    pub anti_entropy: Vec<bool>,
    /// Offline windows to sweep (`None` = nobody goes offline). See
    /// [`OfflineWindow`].
    pub offline_windows: Vec<Option<OfflineWindow>>,
}

impl ScenarioMatrix {
    /// The default convergence matrix: fault-free and 10%-faulty cells along
    /// every axis (flatten commitment disabled — see
    /// [`flatten_commitment`](Self::flatten_commitment)).
    pub fn faulty(base: Scenario) -> Self {
        ScenarioMatrix {
            base,
            drop_probs: vec![0.0, 0.1],
            duplicate_probs: vec![0.0, 0.1],
            bursts: vec![1, 5],
            partition: vec![false, true],
            balancing: vec![false],
            flatten_cadences: vec![None],
            protocols: vec![CommitProtocol::TwoPhase],
            snapshot_cadences: vec![None],
            crashes: vec![None],
            batch_sizes: vec![1],
            anti_entropy: vec![false],
            offline_windows: vec![None],
        }
    }

    /// The wire-cost matrix behind the §5.2 overhead evaluation: batch size
    /// × loss, every lossy cell recovering through coalesced retransmission.
    /// Compare [`SimReport::network_bytes`] per operation across the batch
    /// axis — this is the sweep the `wire_bytes` bench binary prints.
    pub fn batching(base: Scenario) -> Self {
        ScenarioMatrix {
            base,
            drop_probs: vec![0.0, 0.1],
            duplicate_probs: vec![0.0],
            bursts: vec![5],
            partition: vec![false],
            balancing: vec![false],
            flatten_cadences: vec![None],
            protocols: vec![CommitProtocol::TwoPhase],
            snapshot_cadences: vec![None],
            crashes: vec![None],
            batch_sizes: vec![1, 4, 16, 64],
            anti_entropy: vec![false],
            offline_windows: vec![None],
        }
    }

    /// The distributed-flatten cost matrix: loss × partition × cadence ×
    /// protocol, the grid behind the experiment the paper could not run
    /// ("We cannot yet evaluate the cost of a distributed flatten"). Every
    /// cell carries a flatten cadence, so commits, aborts, message and byte
    /// counts are comparable per protocol.
    pub fn flatten_commitment(base: Scenario) -> Self {
        ScenarioMatrix {
            base,
            drop_probs: vec![0.0, 0.1],
            duplicate_probs: vec![0.1],
            bursts: vec![5],
            partition: vec![false, true],
            balancing: vec![false],
            flatten_cadences: vec![Some(4)],
            protocols: vec![CommitProtocol::TwoPhase, CommitProtocol::ThreePhase],
            snapshot_cadences: vec![None],
            crashes: vec![None],
            batch_sizes: vec![1],
            anti_entropy: vec![false],
            offline_windows: vec![None],
        }
    }

    /// The crash-recovery matrix: loss × snapshot cadence × crash timing.
    /// Every cell is durable; cells with a crash kill site 1 at the given
    /// round and restart it from its store, and must still converge. The
    /// cadence axis is the recovery-cost trade: frequent checkpoints mean a
    /// short WAL to replay, rare ones mean cheap steady-state writes.
    ///
    /// Crash rounds are expressed against `base`'s edit-round count; `base`
    /// should give at least 8 edit rounds (e.g. 40 edits at burst 5).
    pub fn crash_recovery(base: Scenario) -> Self {
        ScenarioMatrix {
            base: Scenario {
                durable: true,
                retransmit: true,
                ..base
            },
            drop_probs: vec![0.0, 0.1],
            duplicate_probs: vec![0.1],
            bursts: vec![5],
            partition: vec![false],
            balancing: vec![false],
            flatten_cadences: vec![None],
            protocols: vec![CommitProtocol::TwoPhase],
            snapshot_cadences: vec![None, Some(2)],
            crashes: vec![
                None,
                // An early crash with a mid-run restart…
                Some(CrashSchedule {
                    site: 1,
                    crash_round: 1,
                    restart_round: 4,
                }),
                // …and a late crash that restarts at the drain phase.
                Some(CrashSchedule {
                    site: 1,
                    crash_round: 5,
                    restart_round: usize::MAX,
                }),
            ],
            batch_sizes: vec![1],
            anti_entropy: vec![false],
            offline_windows: vec![None],
        }
    }

    /// The anti-entropy vs retransmission wire-cost matrix: loss rate ×
    /// offline gap × recovery mechanism. Retransmission cells pay
    /// [`SimReport::retransmission_bytes`] + [`SimReport::ack_bytes`];
    /// anti-entropy cells pay [`SimReport::sync_bytes`]. This is the sweep
    /// the `sync_cost` bench binary prints and the EXPERIMENTS table reports:
    /// digest sessions ship `O(missing + log n)` bytes, so they beat the
    /// full-window (per-op envelope) baseline once the loss rate or the
    /// offline gap makes the unacked windows large. Sender-side batching
    /// (the `wire_bytes` sweep) narrows the gap at low loss rates — set
    /// `batch_max_ops` on `base` to compare against coalesced
    /// retransmission instead.
    pub fn sync_vs_retransmission(base: Scenario) -> Self {
        ScenarioMatrix {
            base,
            drop_probs: vec![0.0, 0.05, 0.1, 0.2],
            duplicate_probs: vec![0.0],
            bursts: vec![5],
            partition: vec![false],
            balancing: vec![false],
            flatten_cadences: vec![None],
            protocols: vec![CommitProtocol::TwoPhase],
            snapshot_cadences: vec![None],
            crashes: vec![None],
            batch_sizes: vec![1],
            anti_entropy: vec![false, true],
            offline_windows: vec![
                None,
                // A long gap: site 1 offline from round 2 to the drain phase.
                Some(OfflineWindow {
                    site: 1,
                    from_round: 2,
                    to_round: usize::MAX,
                }),
            ],
        }
    }

    /// Expands the axes into concrete scenarios. Cells with `drop_prob > 0`,
    /// an offline window or a crash get `retransmit = true` — unless the
    /// cell recovers by anti-entropy instead (crashes always retransmit) —
    /// and cells with a snapshot cadence or a crash run durable.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &drop_prob in &self.drop_probs {
            for &duplicate_prob in &self.duplicate_probs {
                for &burst in &self.bursts {
                    for &partition_first_site in &self.partition {
                        for &balancing in &self.balancing {
                            for &flatten_cadence in &self.flatten_cadences {
                                for &flatten_protocol in &self.protocols {
                                    for &snapshot_cadence in &self.snapshot_cadences {
                                        for &crash in &self.crashes {
                                            for &batch_max_ops in &self.batch_sizes {
                                                for &anti_entropy in &self.anti_entropy {
                                                    for &offline in &self.offline_windows {
                                                        let anti_entropy =
                                                            self.base.anti_entropy || anti_entropy;
                                                        out.push(Scenario {
                                                            drop_prob,
                                                            duplicate_prob,
                                                            burst,
                                                            partition_first_site,
                                                            balancing,
                                                            flatten_cadence,
                                                            flatten_protocol,
                                                            snapshot_cadence,
                                                            crash,
                                                            batch_max_ops,
                                                            anti_entropy,
                                                            offline,
                                                            durable: self.base.durable
                                                                || snapshot_cadence.is_some()
                                                                || crash.is_some(),
                                                            retransmit: self.base.retransmit
                                                                || crash.is_some()
                                                                || ((drop_prob > 0.0
                                                                    || offline.is_some())
                                                                    && !anti_entropy),
                                                            ..self.base
                                                        });
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs every cell, returning each scenario with its report.
    pub fn run(&self) -> Vec<(Scenario, SimReport)> {
        self.run_with(|_| Telemetry::disabled())
    }

    /// Runs every cell through [`run_with`], asking `telemetry_for` for each
    /// cell's handle — pass a closure returning a fresh enabled registry's
    /// handle per cell to collect per-cell instrument snapshots (the
    /// `sync_cost` bench bin's data path), or a shared handle to aggregate.
    ///
    /// Cells are independent (each builds its own deterministic network and
    /// replicas from the scenario seed), so they execute on a fixed pool of
    /// [`std::thread::available_parallelism`] threads. `telemetry_for` is
    /// still called serially, in scenario order, before any cell runs, and
    /// the returned vector matches [`Self::scenarios`] order exactly — the
    /// output is byte-for-byte the same as the sequential run.
    pub fn run_with(
        &self,
        mut telemetry_for: impl FnMut(&Scenario) -> Telemetry,
    ) -> Vec<(Scenario, SimReport)> {
        let cells: Vec<(Scenario, Telemetry)> = self
            .scenarios()
            .into_iter()
            .map(|scenario| {
                let telemetry = telemetry_for(&scenario);
                (scenario, telemetry)
            })
            .collect();

        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(cells.len().max(1));
        if workers <= 1 {
            return cells
                .into_iter()
                .map(|(scenario, telemetry)| {
                    let report = run_with(&scenario, &telemetry);
                    (scenario, report)
                })
                .collect();
        }

        // Work-stealing over a shared index: each worker claims the next
        // unclaimed cell and writes the report into that cell's slot, so the
        // output order is position-determined, not completion-determined.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SimReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((scenario, telemetry)) = cells.get(i) else {
                        break;
                    };
                    let report = run_with(scenario, telemetry);
                    *slots[i].lock().expect("worker panicked holding a slot") = Some(report);
                });
            }
        });
        cells
            .into_iter()
            .zip(slots)
            .map(|((scenario, _), slot)| {
                let report = slot
                    .into_inner()
                    .expect("worker panicked holding a slot")
                    .expect("every claimed cell stores its report");
                (scenario, report)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_converges() {
        let report = run(&Scenario::default());
        assert!(report.converged, "replicas must converge: {report:?}");
        assert!(report.ops_generated >= 300);
        assert!(report.messages_delivered > 0);
        assert!(report.network_bytes > 0);
        assert_eq!(report.messages_dropped, 0);
        assert_eq!(report.retransmissions, 0);
    }

    #[test]
    fn many_sites_converge() {
        let report = run(&Scenario {
            sites: 6,
            edits_per_site: 40,
            ..Default::default()
        });
        assert!(report.converged);
        assert_eq!(report.ops_generated, 6 * 40);
    }

    #[test]
    fn convergence_survives_a_partition() {
        let report = run(&Scenario {
            sites: 4,
            edits_per_site: 60,
            partition_first_site: true,
            ..Default::default()
        });
        assert!(
            report.converged,
            "partitioned-then-healed replicas must still converge"
        );
    }

    #[test]
    fn balancing_does_not_affect_convergence() {
        let plain = run(&Scenario {
            seed: 7,
            ..Default::default()
        });
        let balanced = run(&Scenario {
            seed: 7,
            balancing: true,
            ..Default::default()
        });
        assert!(plain.converged && balanced.converged);
        assert_eq!(
            plain.final_len, balanced.final_len,
            "same seed, same edits, same length"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(&Scenario::default());
        let b = run(&Scenario::default());
        assert_eq!(a, b);
    }

    #[test]
    fn delete_heavy_sessions_converge() {
        let report = run(&Scenario {
            delete_ratio: 0.7,
            edits_per_site: 80,
            ..Default::default()
        });
        assert!(report.converged);
    }

    #[test]
    fn duplication_alone_converges_without_retransmission() {
        let report = run(&Scenario {
            duplicate_prob: 0.2,
            reorder_burst_prob: 0.1,
            edits_per_site: 60,
            ..Default::default()
        });
        assert!(report.converged, "{report:?}");
        assert!(report.messages_duplicated > 0);
        assert!(
            report.duplicates_discarded >= report.messages_duplicated,
            "every injected duplicate must be discarded by some hold-back \
             queue: {report:?}"
        );
    }

    #[test]
    fn lossy_network_converges_with_retransmission() {
        let report = run(&Scenario {
            edits_per_site: 60,
            ..Scenario::faulty()
        });
        assert!(report.converged, "{report:?}");
        assert!(report.messages_dropped > 0, "{report:?}");
        assert!(report.messages_duplicated > 0, "{report:?}");
        assert!(report.retransmissions > 0, "{report:?}");
        assert!(report.duplicates_discarded > 0, "{report:?}");

        // Loss recovery is not free, and the report says by how much: the
        // re-sent payload bytes are tracked and folded into the total.
        assert!(report.retransmission_bytes > 0, "{report:?}");
        assert!(
            report.network_bytes > report.retransmission_bytes,
            "the total must also cover the initial broadcasts: {report:?}"
        );
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let scenario = Scenario {
            edits_per_site: 40,
            ..Scenario::faulty()
        };
        assert_eq!(run(&scenario), run(&scenario));
    }

    #[test]
    #[should_panic(expected = "lossy network cannot converge")]
    fn loss_without_retransmission_is_rejected() {
        run(&Scenario {
            drop_prob: 0.1,
            retransmit: false,
            ..Default::default()
        });
    }

    #[test]
    fn durable_replicas_converge_and_journal() {
        let report = run(&Scenario {
            durable: true,
            edits_per_site: 40,
            ..Scenario::faulty()
        });
        assert!(report.converged, "{report:?}");
        assert!(report.wal_appends > 0, "every event journals: {report:?}");
        assert!(
            report.snapshots_written >= 3,
            "one attach baseline per replica: {report:?}"
        );
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn crashed_and_restarted_site_converges_with_recovery_accounting() {
        // Site 1 dies at round 2 (taking its clock, hold-back and send log
        // with it), restarts from its store at round 5, and the session must
        // still converge — with the recovery visible in the report.
        let report = run(&Scenario {
            edits_per_site: 40,
            ..Scenario::crash_faulty(1, 2, 5)
        });
        assert!(report.converged, "{report:?}");
        assert_eq!(report.crashes, 1);
        assert_eq!(report.snapshot_hits, 1, "recovery found a snapshot");
        assert!(
            report.wal_records_replayed > 0,
            "the WAL tail replays: {report:?}"
        );
        assert!(report.recovered_bytes > 0, "{report:?}");
        assert!(
            report.messages_lost_to_crash > 0,
            "traffic hit the dead site: {report:?}"
        );
        assert!(
            report.retransmissions > 0,
            "the restarted site catches up by retransmission: {report:?}"
        );
    }

    #[test]
    fn late_crash_restarts_at_the_drain_phase_and_converges() {
        let report = run(&Scenario {
            edits_per_site: 40,
            ..Scenario::crash_faulty(2, 6, usize::MAX)
        });
        assert!(report.converged, "{report:?}");
        assert_eq!(report.crashes, 1);
        assert!(report.wal_records_replayed > 0, "{report:?}");
    }

    #[test]
    fn snapshot_cadence_bounds_the_replayed_wal() {
        // With a checkpoint every other round, the crash finds a short WAL;
        // without one, everything since the attach baseline replays.
        let base = Scenario {
            edits_per_site: 40,
            ..Scenario::crash_faulty(1, 6, usize::MAX)
        };
        let rare = run(&base);
        let frequent = run(&Scenario {
            snapshot_cadence: Some(2),
            ..base
        });
        assert!(rare.converged && frequent.converged);
        assert!(
            frequent.wal_records_replayed < rare.wal_records_replayed,
            "checkpoints bound the replay: {frequent:?} vs {rare:?}"
        );
        assert!(frequent.snapshots_written > rare.snapshots_written);
    }

    #[test]
    fn crash_runs_are_reproducible() {
        let scenario = Scenario {
            edits_per_site: 40,
            snapshot_cadence: Some(3),
            ..Scenario::crash_faulty(1, 2, 5)
        };
        assert_eq!(run(&scenario), run(&scenario));
    }

    #[test]
    fn flatten_commit_compacts_every_durable_wal() {
        // The §4.2.1 acceptance cell: a committed distributed flatten must
        // checkpoint every replica and truncate its pre-epoch WAL.
        let scenario = Scenario {
            durable: true,
            edits_per_site: 20,
            flatten_cadence: Some(1000), // only the final quiescent proposal
            ..Scenario::faulty()
        };
        let report = run(&scenario);
        assert!(report.converged, "{report:?}");
        assert!(report.flatten_commits >= 1, "{report:?}");
        assert!(
            report.snapshots_written >= 2 * scenario.sites as u64,
            "attach baseline + flatten-commit checkpoint per replica: {report:?}"
        );
        assert!(
            report.wal_truncations >= scenario.sites as u64,
            "the flatten commit retired every replica's pre-epoch records: {report:?}"
        );
    }

    #[test]
    #[should_panic(expected = "requires durable stores")]
    fn crash_without_durability_is_rejected() {
        run(&Scenario {
            crash: Some(CrashSchedule {
                site: 1,
                crash_round: 1,
                restart_round: 3,
            }),
            retransmit: true,
            ..Scenario::default()
        });
    }

    #[test]
    #[should_panic(expected = "site 0 is the reference")]
    fn crashing_the_coordinator_site_is_rejected() {
        run(&Scenario {
            edits_per_site: 40,
            ..Scenario::crash_faulty(0, 2, 5)
        });
    }

    #[test]
    fn crash_matrix_converges_in_every_cell() {
        // The acceptance sweep: snapshot cadence × crash timing × loss, every
        // cell durable, every crashed cell recovering to convergence.
        let matrix = ScenarioMatrix::crash_recovery(Scenario {
            sites: 3,
            edits_per_site: 40,
            ..Default::default()
        });
        let results = matrix.run();
        assert_eq!(results.len(), 2 * 2 * 3);
        for (scenario, report) in results {
            assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
            assert!(report.wal_appends > 0, "cell {scenario:?}: {report:?}");
            if scenario.crash.is_some() {
                assert_eq!(report.crashes, 1, "cell {scenario:?}: {report:?}");
                assert_eq!(report.snapshot_hits, 1, "cell {scenario:?}: {report:?}");
            } else {
                assert_eq!(report.crashes, 0);
            }
        }
    }

    #[test]
    fn batched_sessions_converge_and_cut_bytes_per_op() {
        let per_op = run(&Scenario::default());
        let batched = run(&Scenario {
            batch_max_ops: 16,
            ..Scenario::default()
        });
        assert!(per_op.converged && batched.converged, "{batched:?}");
        assert_eq!(per_op.op_batches_sent, 0);
        assert!(batched.op_batches_sent > 0, "{batched:?}");
        assert_eq!(
            per_op.ops_generated, batched.ops_generated,
            "same edit volume either way"
        );
        assert!(
            batched.messages_delivered < per_op.messages_delivered,
            "batches mean fewer envelopes: {batched:?} vs {per_op:?}"
        );
        // Random-position edits share shorter path prefixes than sequential
        // typing, so demand a solid-but-not-dramatic cut here; the sequential
        // case (where delta encoding shines, >2×) is asserted in the wire
        // codec tests and measured by the `wire_bytes` bench.
        assert!(
            batched.network_bytes * 5 < per_op.network_bytes * 4,
            "batching must cut at least 20% of the wire cost: {} vs {} bytes",
            batched.network_bytes,
            per_op.network_bytes
        );
    }

    #[test]
    fn batched_lossy_sessions_recover_through_coalesced_retransmission() {
        let report = run(&Scenario {
            edits_per_site: 60,
            ..Scenario::batched_faulty(8)
        });
        assert!(report.converged, "{report:?}");
        assert!(report.messages_dropped > 0, "{report:?}");
        assert!(report.retransmissions > 0, "{report:?}");
        assert!(report.retransmission_bytes > 0, "{report:?}");
        assert!(report.op_batches_sent > 0, "{report:?}");
        assert!(report.ack_bytes > 0, "{report:?}");
    }

    #[test]
    fn batched_runs_are_reproducible() {
        let scenario = Scenario {
            edits_per_site: 40,
            ..Scenario::batched_faulty(8)
        };
        assert_eq!(run(&scenario), run(&scenario));
    }

    #[test]
    fn batching_composes_with_durability_and_crashes() {
        let report = run(&Scenario {
            edits_per_site: 40,
            batch_max_ops: 8,
            ..Scenario::crash_faulty(1, 2, 5)
        });
        assert!(report.converged, "{report:?}");
        assert_eq!(report.crashes, 1);
        assert!(report.wal_records_replayed > 0, "{report:?}");
        assert!(report.op_batches_sent > 0, "{report:?}");
    }

    #[test]
    fn batching_composes_with_the_flatten_commitment() {
        for protocol in [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase] {
            let report = run(&Scenario {
                edits_per_site: 40,
                batch_max_ops: 8,
                ..Scenario::flatten_faulty(protocol)
            });
            assert!(report.converged, "{protocol:?}: {report:?}");
            assert!(
                report.flatten_commits >= 1,
                "the final quiescent proposal commits over batched traffic: \
                 {protocol:?}: {report:?}"
            );
        }
    }

    #[test]
    fn byte_flush_policy_bounds_batch_sizes() {
        // A tiny byte budget forces flushes long before the op cap.
        let report = run(&Scenario {
            batch_max_ops: 1000,
            batch_max_bytes: 256,
            ..Scenario::default()
        });
        assert!(report.converged, "{report:?}");
        assert!(
            report.op_batches_sent as usize > report.ops_generated / 1000,
            "the byte cap must have split the stream: {report:?}"
        );
    }

    #[test]
    fn batching_matrix_converges_and_orders_the_byte_axis() {
        let matrix = ScenarioMatrix::batching(Scenario {
            sites: 3,
            edits_per_site: 40,
            ..Default::default()
        });
        let results = matrix.run();
        assert_eq!(results.len(), 2 * 4, "loss × batch-size grid");
        for (scenario, report) in &results {
            assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
        }
        // Within the loss-free column, bigger batches must never cost more
        // bytes per op.
        let mut clean: Vec<_> = results.iter().filter(|(s, _)| s.drop_prob == 0.0).collect();
        clean.sort_by_key(|(s, _)| s.batch_max_ops);
        for pair in clean.windows(2) {
            let (a, ra) = &pair[0];
            let (b, rb) = &pair[1];
            assert!(
                rb.network_bytes <= ra.network_bytes,
                "batch {} ({} B) must not beat batch {} ({} B)",
                a.batch_max_ops,
                ra.network_bytes,
                b.batch_max_ops,
                rb.network_bytes
            );
        }
    }

    #[test]
    fn matrix_covers_the_cross_product() {
        let matrix = ScenarioMatrix::faulty(Scenario::default());
        let cells = matrix.scenarios();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert!(cells.iter().any(|s| s.drop_prob > 0.0 && s.retransmit));
        assert!(cells
            .iter()
            .any(|s| s.drop_prob == 0.0 && s.duplicate_prob == 0.0));
    }

    #[test]
    fn short_runs_get_a_real_partition_window() {
        // Regression: with total_rounds < 3 the partition round and the heal
        // round used to truncate to the same value, so the partition was cut
        // and healed within one round — i.e. never in effect — while the
        // report suggested otherwise. The window is now clamped to at least
        // one round apart and its actual width is recorded.
        for edits in [5usize, 10] {
            // burst 5 → 1 and 2 edit rounds respectively.
            let report = run(&Scenario {
                sites: 3,
                edits_per_site: edits,
                burst: 5,
                partition_first_site: true,
                ..Default::default()
            });
            assert!(report.converged, "{report:?}");
            assert!(
                report.partition_rounds >= 1,
                "edits {edits}: the partition must cover at least one round: {report:?}"
            );
        }
        // And the accounting stays honest when the partition is off.
        let report = run(&Scenario::default());
        assert_eq!(report.partition_rounds, 0);
    }

    #[test]
    fn long_runs_keep_the_middle_third_partition() {
        let report = run(&Scenario {
            sites: 3,
            edits_per_site: 90,
            burst: 5, // 18 rounds → window 6..12
            partition_first_site: true,
            ..Default::default()
        });
        assert!(report.converged);
        assert_eq!(report.partition_rounds, 6);
    }

    #[test]
    fn distributed_flatten_commits_at_quiescence_over_a_faulty_network() {
        for protocol in [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase] {
            let report = run(&Scenario {
                edits_per_site: 40,
                ..Scenario::flatten_faulty(protocol)
            });
            assert!(report.converged, "{protocol:?}: {report:?}");
            assert!(report.flatten_proposals >= 2, "{protocol:?}: {report:?}");
            assert!(
                report.flatten_commits >= 1,
                "the final quiescent proposal must commit: {protocol:?}: {report:?}"
            );
            assert_eq!(
                report.flatten_proposals,
                report.flatten_commits + report.flatten_aborts,
                "{protocol:?}: {report:?}"
            );
            assert!(report.protocol_messages > 0, "{protocol:?}: {report:?}");
            assert!(report.protocol_bytes > 0, "{protocol:?}: {report:?}");
            assert!(report.commit_rounds > 0, "{protocol:?}: {report:?}");
            assert!(report.flatten_votes > 0, "{protocol:?}: {report:?}");
        }
    }

    #[test]
    fn mid_run_proposals_abort_on_concurrent_edits() {
        // A tight cadence on a busy network: proposals taken while edits are
        // in flight find unequal clocks and must abort (edits take
        // precedence over clean-up, §4.2.1), leaving every replica intact.
        let report = run(&Scenario {
            edits_per_site: 60,
            flatten_cadence: Some(2),
            ..Scenario::flatten_faulty(CommitProtocol::TwoPhase)
        });
        assert!(report.converged, "{report:?}");
        assert!(
            report.flatten_aborts >= 1,
            "mid-run proposals contend with concurrent edits: {report:?}"
        );
    }

    #[test]
    fn three_phase_costs_more_protocol_traffic_than_two_phase() {
        // Cadence larger than the run: only the final quiescent proposal
        // fires, so both protocols commit exactly once over the same edit
        // history and the per-protocol message/byte columns are comparable.
        let base = Scenario {
            edits_per_site: 20,
            flatten_cadence: Some(1000),
            ..Scenario::default()
        };
        let two = run(&Scenario {
            flatten_protocol: CommitProtocol::TwoPhase,
            ..base
        });
        let three = run(&Scenario {
            flatten_protocol: CommitProtocol::ThreePhase,
            ..base
        });
        assert!(two.converged && three.converged);
        assert_eq!(two.flatten_commits, 1);
        assert_eq!(three.flatten_commits, 1);
        assert!(
            three.protocol_messages > two.protocol_messages,
            "3PC adds the pre-commit round: {two:?} vs {three:?}"
        );
        assert!(three.protocol_bytes > two.protocol_bytes);
        assert!(three.commit_rounds > two.commit_rounds);
    }

    #[test]
    fn flatten_runs_are_reproducible() {
        let scenario = Scenario {
            edits_per_site: 40,
            ..Scenario::flatten_faulty(CommitProtocol::ThreePhase)
        };
        assert_eq!(run(&scenario), run(&scenario));
    }

    #[test]
    fn flatten_commitment_matrix_converges_in_every_cell() {
        // The acceptance grid: a flatten proposal carried entirely as
        // envelopes over a lossy, partitioned network, per protocol, with
        // convergence and a commit in every cell.
        let matrix = ScenarioMatrix::flatten_commitment(Scenario {
            sites: 3,
            edits_per_site: 20,
            ..Default::default()
        });
        let results = matrix.run();
        assert_eq!(results.len(), 8);
        for (scenario, report) in results {
            assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
            assert!(
                report.flatten_commits >= 1,
                "cell {scenario:?} never committed: {report:?}"
            );
            assert!(
                report.protocol_messages > 0,
                "cell {scenario:?}: {report:?}"
            );
        }
    }

    #[test]
    fn anti_entropy_converges_under_loss_without_retransmission() {
        // 10% drops, 10% duplicates, 10% reorder bursts — and no send logs,
        // no acks, no retransmission. The drain phase repairs every replica
        // through merkle-digest sync sessions alone.
        let report = run(&Scenario::anti_entropy_faulty());
        assert!(report.converged, "{report:?}");
        assert!(report.messages_dropped > 0, "{report:?}");
        assert_eq!(report.retransmissions, 0, "{report:?}");
        assert_eq!(report.ack_bytes, 0, "{report:?}");
        assert!(report.sync_sessions > 0, "{report:?}");
        assert!(report.sync_cells > 0, "losses must be repaired: {report:?}");
        assert!(report.sync_bytes > 0, "{report:?}");
    }

    #[test]
    fn anti_entropy_on_a_clean_network_never_syncs() {
        // Nothing dropped → the drain finds every digest equal before the
        // first session: anti-entropy costs zero bytes when nothing diverged.
        let report = run(&Scenario {
            anti_entropy: true,
            ..Scenario::default()
        });
        assert!(report.converged, "{report:?}");
        assert_eq!(report.sync_sessions, 0, "{report:?}");
        assert_eq!(report.sync_bytes, 0, "{report:?}");
    }

    #[test]
    fn late_joiner_bootstraps_mid_run_and_converges() {
        // A brand-new site joins at round 5 of 20: snapshot bootstrap from
        // site 0, clock transfer through one sync session, then it edits and
        // receives like everyone else.
        let report = run(&Scenario::late_joiner(5));
        assert!(report.converged, "{report:?}");
        assert_eq!(report.snapshot_bootstraps, 1, "{report:?}");
        assert!(report.snapshot_bytes > 0, "{report:?}");
        assert!(
            report.messages_before_join > 0,
            "pre-join broadcasts are discarded: {report:?}"
        );
        assert!(report.sync_sessions >= 1, "{report:?}");
    }

    #[test]
    fn offline_gap_catches_up_via_anti_entropy() {
        // Site 1 goes offline at round 2 and stays down until the drain
        // phase — a long-offline laptop. Anti-entropy repairs the whole gap.
        let report = run(&Scenario::offline_gap(1, 2, usize::MAX, true));
        assert!(report.converged, "{report:?}");
        assert!(report.offline_losses > 0, "{report:?}");
        assert_eq!(report.retransmissions, 0, "{report:?}");
        assert!(report.sync_cells > 0, "{report:?}");
    }

    #[test]
    fn offline_gap_catches_up_via_retransmission_too() {
        // The same gap recovered by the at-least-once baseline, for the
        // wire-cost comparison below.
        let report = run(&Scenario::offline_gap(1, 2, usize::MAX, false));
        assert!(report.converged, "{report:?}");
        assert!(report.offline_losses > 0, "{report:?}");
        assert!(report.retransmissions > 0, "{report:?}");
        assert_eq!(report.sync_bytes, 0, "{report:?}");
    }

    #[test]
    fn anti_entropy_beats_retransmission_on_a_long_offline_gap() {
        // The headline comparison: site 1 misses ~90% of the run. The
        // baseline re-ships its whole unacked window plus rounds of ack
        // broadcasts; a digest walk ships the missing runs once.
        let retrans = run(&Scenario::offline_gap(1, 2, usize::MAX, false));
        let sync = run(&Scenario::offline_gap(1, 2, usize::MAX, true));
        assert!(retrans.converged && sync.converged);
        let retrans_cost = retrans.retransmission_bytes + retrans.ack_bytes;
        let sync_cost = sync.sync_bytes;
        assert!(
            sync_cost < retrans_cost,
            "anti-entropy ({sync_cost} B) must beat retransmission \
             ({retrans_cost} B) on a long gap"
        );
    }

    #[test]
    fn anti_entropy_beats_retransmission_under_heavy_loss() {
        // At 10% loss the per-op baseline pays repeated recovery rounds of
        // acks and re-sends; the sync walk pays O(missing + log n) once.
        let retrans = run(&Scenario::faulty());
        let sync = run(&Scenario::anti_entropy_faulty());
        assert!(retrans.converged && sync.converged);
        let retrans_cost = retrans.retransmission_bytes + retrans.ack_bytes;
        let sync_cost = sync.sync_bytes;
        assert!(
            sync_cost < retrans_cost,
            "anti-entropy ({sync_cost} B) must beat retransmission \
             ({retrans_cost} B) at 10% loss"
        );
    }

    #[test]
    fn anti_entropy_runs_are_reproducible() {
        let scenario = Scenario {
            edits_per_site: 40,
            ..Scenario::anti_entropy_faulty()
        };
        assert_eq!(run(&scenario), run(&scenario));
        let joiner = Scenario {
            edits_per_site: 40,
            ..Scenario::late_joiner(3)
        };
        assert_eq!(run(&joiner), run(&joiner));
    }

    #[test]
    fn retransmit_window_bounds_resends_and_still_converges() {
        // Satellite check at the scenario level: a capped window re-ships at
        // most 4 messages per recovery round (as batch envelopes) and the
        // run still converges under the full fault mix.
        let report = run(&Scenario {
            retransmit_window: Some(4),
            ..Scenario::faulty()
        });
        assert!(report.converged, "{report:?}");
        assert!(report.retransmissions > 0, "{report:?}");
        assert!(
            report.op_batches_sent > 0,
            "a window re-ships through batch envelopes: {report:?}"
        );
    }

    #[test]
    fn sync_matrix_covers_both_mechanisms_and_converges() {
        let matrix = ScenarioMatrix::sync_vs_retransmission(Scenario {
            sites: 3,
            edits_per_site: 20,
            ..Default::default()
        });
        let results = matrix.run();
        assert_eq!(results.len(), 4 * 2 * 2);
        for (scenario, report) in results {
            assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
            if scenario.anti_entropy {
                assert_eq!(report.retransmissions, 0, "cell {scenario:?}");
            } else {
                assert_eq!(report.sync_bytes, 0, "cell {scenario:?}");
            }
        }
    }

    #[test]
    fn small_matrix_converges_in_every_cell() {
        // `burst` is a swept axis, so it belongs in the matrix, not in base.
        let matrix = ScenarioMatrix::faulty(Scenario {
            sites: 3,
            edits_per_site: 20,
            ..Default::default()
        });
        for (scenario, report) in matrix.run() {
            assert!(report.converged, "cell {scenario:?} diverged: {report:?}");
            assert_eq!(
                report.ops_generated,
                scenario.sites * scenario.edits_per_site.div_ceil(scenario.burst) * scenario.burst
            );
        }
    }
}

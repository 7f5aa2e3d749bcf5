//! Randomised cooperative-editing scenarios, including faulty-network runs
//! and the distributed flatten commitment protocol carried over the wire.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use treedoc_core::TreedocConfig;
use treedoc_replication::{BatchPolicy, CommitProtocol, LinkConfig};
use treedoc_telemetry::Telemetry;

use crate::session::{Doc, Session, PRE_COMMIT_TIMEOUT_TICKS};

/// A crash/restart fault: kill one site at an edit round, losing its entire
/// in-memory state, then restart it from its durable store
/// ([`Replica::recover`](treedoc_replication::Replica::recover)) at a later
/// round. Requires [`durable`](Scenario::durable) and
/// [`retransmit`](Scenario::retransmit)
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
    /// Sender-side operation batching: operations are buffered and shipped as one
    /// [`Envelope::OpBatch`](treedoc_replication::Envelope::OpBatch) once this many
    /// accumulate (or the batch's encoding reaches
    /// [`MAX_BATCH_BYTES`](treedoc_replication::MAX_BATCH_BYTES)). `1` disables
    /// batching — every operation ships in its own envelope, the pre-batching
    /// behaviour. With batching on, retransmission rounds coalesce each peer's
    /// unacked window into one batch as well.
    pub batch_max_ops: usize,
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
    /// Attach a durable [`DocStore`](treedoc_storage::DocStore) (in-memory backend)
    /// to every replica: each stamps/receives through a checksummed WAL and
    /// checkpoints on committed flattens. Required by [`crash`](Self::crash).
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
///
/// Every count is the delta over the run of a registry counter (see
/// [`run_with`]): field `f` reads `sim.f` unless its doc names another
/// instrument. Not tallies of the run: the outcome (`converged`,
/// `final_len`), what the simulated network counts itself (`messages_*`,
/// `sim_time_ms`), the high-water mark `max_pending`, and the schedule's
/// `partition_rounds`.
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
    /// Stale or duplicate operations the replicas discarded
    /// (`replica.duplicates_discarded`), crashed replicas' included.
    pub duplicates_discarded: u64,
    /// Delivered ops the documents skipped as already synced
    /// (`replica.replays_skipped`); 0 in every run without sync.
    pub replays_skipped: u64,
    /// Messages re-sent by the at-least-once recovery protocol
    /// (`replica.retransmissions`).
    pub retransmissions: u64,
    /// Encoded bytes of those re-sends, one count per link crossed (already
    /// included in [`network_bytes`](Self::network_bytes)).
    pub retransmission_bytes: usize,
    /// Largest causal hold-back queue observed across replicas.
    pub max_pending: usize,
    /// Total **encoded** operation-envelope bytes handed to the network
    /// (initial broadcasts plus retransmissions, one count per link
    /// crossed) — what actually went over the wire, measured by running the
    /// binary codec on every envelope. Copies injected by network-level
    /// duplication are not visible to the application and are excluded.
    /// Flatten-commitment and acknowledgement traffic are reported
    /// separately in [`protocol_bytes`](Self::protocol_bytes) and
    /// [`ack_bytes`](Self::ack_bytes).
    pub network_bytes: usize,
    /// Encoded bytes of the cumulative-acknowledgement traffic of the
    /// at-least-once recovery rounds (per link crossed).
    pub ack_bytes: usize,
    /// [`OpBatch`](treedoc_replication::Envelope::OpBatch) envelopes handed to the
    /// network (flush-policy emissions and coalesced retransmission windows; 0 when
    /// batching is off).
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
    /// Votes cast across all replicas, coordinator's local votes included
    /// (`flatten.votes_cast`).
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
    /// cost; compare 2PC against 3PC under a coordinator partition
    /// (`flatten.blocked_ticks`).
    pub flatten_blocked_rounds: u64,
    /// Commits applied unilaterally by the 3PC termination rule while the
    /// coordinator was unreachable (`flatten.unilateral_commits`).
    pub unilateral_commits: u64,
    /// Operations that arrived tagged with a pre-flatten epoch and were
    /// discarded as duplicates (`flatten.late_epoch_ops`).
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
    /// WAL records appended across all durable replicas
    /// (`store.wal_appends`).
    pub wal_appends: u64,
    /// Snapshots written across all durable replicas (attach baselines,
    /// cadence checkpoints and flatten-commit checkpoints;
    /// `store.snapshots_written`).
    pub snapshots_written: u64,
    /// WAL truncations performed by those checkpoints
    /// (`store.wal_truncations`).
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
    /// [`SyncDigests`](treedoc_replication::Envelope::SyncDigests) messages
    /// exchanged — the subtree-walk cost, `O(log n)` per diverging range
    /// (`sync.digests_rx`).
    pub sync_digest_msgs: u64,
    /// [`SyncRuns`](treedoc_replication::Envelope::SyncRuns) messages exchanged —
    /// leaf ranges whose cells crossed the wire (`sync.runs_rx`).
    pub sync_run_msgs: u64,
    /// Cells integrated from sync traffic across all replicas
    /// (`sync.cells_integrated`).
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
/// Maximum recovery rounds (ack exchange + retransmission) the drain phase
/// attempts before declaring the run wedged. With independent per-message
/// drop probability < 1 the expected number of rounds is tiny; hitting the
/// cap means the protocol, not the dice, is broken.
const MAX_RECOVERY_ROUNDS: usize = 1000;

/// Runs a scenario to completion (all messages delivered, all losses
/// recovered when retransmission is on) and checks convergence.
pub fn run(scenario: &Scenario) -> SimReport {
    run_with(scenario, &Telemetry::disabled())
}

/// Rejects schedules the simulator cannot run to convergence.
fn validate(scenario: &Scenario, total_rounds: usize) {
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
}

/// Like [`run`], but counting into `telemetry`'s registry: afterwards it
/// holds the run's `sim.*`, `replica.*`, `flatten.*`, `sync.*` and
/// `store.*` instruments, latency histograms included. The report's counts
/// are those counters' deltas over the run (a disabled handle runs over a
/// private registry), so the report is identical either way — telemetry
/// observes, it never steers. Runs sharing one registry must not overlap.
pub fn run_with(scenario: &Scenario, telemetry: &Telemetry) -> SimReport {
    let total_rounds = scenario.edits_per_site.div_ceil(scenario.burst.max(1));
    validate(scenario, total_rounds);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let config = if scenario.balancing {
        TreedocConfig::balanced()
    } else {
        TreedocConfig::default()
    };
    // Everyone starts from the same exploded seed document — except the late
    // joiner (always the last site), which begins with an empty document of
    // its own and takes no part until its join round.
    let joiner = scenario.late_join.map(|_| scenario.sites - 1);
    let seed_doc: Vec<String> = (0..10).map(|i| format!("seed line {i}")).collect();
    let link = LinkConfig::default()
        .with_drop_prob(scenario.drop_prob)
        .with_duplicate_prob(scenario.duplicate_prob)
        .with_reorder_burst(scenario.reorder_burst_prob, 250);
    let mut session = Session::new(telemetry, scenario.sites, link, scenario.seed, |i, s| {
        if joiner == Some(i) {
            Doc::with_config(s, config)
        } else {
            Doc::from_atoms_with_config(s, &seed_doc, config)
        }
    });
    if scenario.retransmit {
        session.enable_at_least_once();
    }
    if scenario.durable {
        session.attach_stores();
    }
    if scenario.batch_max_ops > 1 {
        session.enable_batching(BatchPolicy {
            max_ops: scenario.batch_max_ops,
        });
    }
    if let Some(joiner) = joiner {
        session.await_joiner(joiner);
    }

    // Partition window of the middle third, clamped so the heal lands at
    // least one round after the cut: short runs used to compute the same
    // round for both (`total_rounds / 3 == 2 * total_rounds / 3`), silently
    // partitioning and healing within one round — i.e. not at all — while
    // the report still suggested a partition had been exercised.
    let partition_window = (scenario.partition_first_site && total_rounds > 0).then(|| {
        let start = total_rounds / 3;
        (start, ((2 * total_rounds) / 3).max(start + 1))
    });
    let partition_rounds = partition_window.map_or(0, |(start, end)| end.min(total_rounds) - start);

    for round in 0..total_rounds {
        if let Some(cs) = scenario.crash {
            if round == cs.restart_round {
                session.restart_dead();
            }
            if round == cs.crash_round {
                session.crash(cs.site);
            }
        }
        if let Some((start, end)) = partition_window {
            if round == start || round == end {
                session.partition_first_site(round == start);
            }
        }
        if scenario.late_join == Some(round) {
            session.bootstrap_joiner(0, joiner.expect("late_join implies a joiner"));
        }
        if let Some(ow) = scenario.offline {
            let offline = (ow.from_round..ow.to_round).contains(&round);
            session.set_offline(ow.site, offline);
        }

        // Each live site performs a burst of local edits and broadcasts them
        // — unless it is locked prepared by an in-flight flatten proposal
        // (edits in the subtree must wait for the decision).
        for i in 0..scenario.sites {
            if !session.is_live(i) || session.replicas[i].is_flatten_prepared() {
                continue;
            }
            for _ in 0..scenario.burst.max(1) {
                let doc = session.replicas[i].doc_mut();
                let len = doc.len();
                let op = if len > 1 && rng.gen_bool(scenario.delete_ratio) {
                    doc.local_delete(rng.gen_range(0..len))
                } else {
                    let idx = rng.gen_range(0..=len);
                    let text = format!("site{} round{} {}", i + 1, round, rng.gen::<u32>());
                    doc.local_insert(idx, text)
                };
                session.stamp(i, op.expect("index in range"));
            }
        }

        // Flatten cadence: the first site proposes a whole-document flatten,
        // contending with whatever the network and the other sites are doing.
        if let Some(cadence) = scenario.flatten_cadence.map(|k| k.max(1)) {
            if session.coordinator().is_none() && round % cadence == cadence - 1 {
                session.propose_flatten(scenario.flatten_protocol);
            }
        }
        session.flatten_round();

        // Let some of the traffic flow between rounds (not all of it, so
        // concurrency actually happens).
        let deliver_now = session.net.in_flight() / 2;
        session.deliver(deliver_now);

        // Snapshot cadence: every k rounds each durable replica (a crashed
        // one has none) writes a checkpoint, bounding how much WAL a crash
        // at the worst instant would have to replay.
        if let Some(k) = scenario.snapshot_cadence.map(|k| k.max(1)) {
            if round % k == k - 1 {
                for r in session.replicas.iter_mut().filter(|r| r.store().is_some()) {
                    r.persist_checkpoint().expect("checkpoint cannot fail");
                }
            }
        }
    }

    // The drain phase: heal any partition, bring back a site still dead
    // (the drain cannot terminate while a registered peer never acks) or
    // offline, and flush what the batchers hold — without retransmission a
    // buffered batch would be lost for good, and the final quiescent
    // flatten needs every clock settled.
    if scenario.partition_first_site {
        session.partition_first_site(false);
    }
    session.restart_dead();
    if let Some(ow) = scenario.offline {
        session.set_offline(ow.site, false);
    }
    session.flush_batches();
    // Anti-entropy drain: fully deliver what is still in flight, then repair
    // whatever the losses left diverged through hub sync sessions (site 0
    // against each other site) until every replica reports the same root
    // digest and an empty hold-back queue. Two passes usually suffice — the
    // first gives site 0 everything, the second distributes it — and because
    // the network is drained before each check, no stale operation copy can
    // arrive after a session has already integrated its cells.
    if scenario.anti_entropy {
        for attempt in 0.. {
            session.drain();
            let reference = session.replicas[0].digest();
            let repaired = session
                .replicas
                .iter()
                .all(|r| r.digest() == reference && r.pending() == 0);
            if session.net.in_flight() == 0 && repaired {
                break;
            }
            assert!(
                attempt < MAX_RECOVERY_ROUNDS,
                "anti-entropy failed to converge"
            );
            for peer in 1..scenario.sites {
                session.sync_pair(0, peer);
            }
        }
    }

    // With the protocol enabled, one extra proposal runs at quiescence:
    // every clock is equal by then, so it demonstrates the committed path.
    let mut final_flatten_pending = scenario.flatten_cadence.is_some();
    // Rounds spent idle with a replica still locked and no coordinator left
    // to unlock it (every decision copy lost inside the coordinator's
    // retransmission window). Once past the unilateral-commit timeout no
    // mechanism remains, so the run ends and reports non-convergence
    // honestly instead of spinning to the recovery cap.
    let mut orphaned_lock_rounds = 0u64;
    let mut recovery_rounds = 0usize;
    loop {
        session.drain();
        // Advance any in-flight commitment (vote retransmissions, decision
        // distribution, 3PC unilateral termination).
        session.flatten_round();

        let replicas = &session.replicas;
        let logs_clear = replicas.iter().all(|r| !r.has_unacked());
        let queues_clear = replicas.iter().all(|r| r.pending() == 0);
        let locked = replicas.iter().any(|r| r.is_flatten_prepared());
        let logs_ok = !scenario.retransmit || logs_clear;
        if session.net.in_flight() == 0 && session.coordinator().is_none() {
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
                    session.propose_flatten(scenario.flatten_protocol);
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
            session.ack_round();
            session.retransmit_round();
        }
    }

    // The report: every count is its counter's delta over the run, except
    // the few the network and the run's own bookkeeping own (see the field
    // docs).
    let count = session.counts();
    SimReport {
        converged: session.converged(),
        final_len: session.replicas[0].doc().len(),
        ops_generated: count("sim.ops_generated") as usize,
        messages_delivered: session.net.delivered_count(),
        messages_dropped: session.net.dropped_count(),
        messages_duplicated: session.net.duplicated_count(),
        duplicates_discarded: count("replica.duplicates_discarded"),
        replays_skipped: count("replica.replays_skipped"),
        retransmissions: count("replica.retransmissions"),
        retransmission_bytes: count("sim.retransmission_bytes") as usize,
        max_pending: session.max_pending,
        network_bytes: count("sim.network_bytes") as usize,
        ack_bytes: count("sim.ack_bytes") as usize,
        op_batches_sent: count("sim.op_batches_sent"),
        sim_time_ms: session.net.now_ms(),
        partition_rounds,
        flatten_proposals: count("sim.flatten_proposals") as usize,
        flatten_commits: count("sim.flatten_commits") as usize,
        flatten_aborts: count("sim.flatten_aborts") as usize,
        flatten_votes: count("flatten.votes_cast"),
        commit_rounds: count("sim.commit_rounds"),
        protocol_messages: count("sim.protocol_messages"),
        protocol_bytes: count("sim.protocol_bytes") as usize,
        flatten_blocked_rounds: count("flatten.blocked_ticks"),
        unilateral_commits: count("flatten.unilateral_commits"),
        late_epoch_ops: count("flatten.late_epoch_ops"),
        crashes: count("sim.crashes") as usize,
        wal_records_replayed: count("sim.wal_records_replayed"),
        recovered_bytes: count("sim.recovered_bytes"),
        snapshot_hits: count("sim.snapshot_hits"),
        wal_appends: count("store.wal_appends"),
        snapshots_written: count("store.snapshots_written"),
        wal_truncations: count("store.wal_truncations"),
        messages_lost_to_crash: count("sim.messages_lost_to_crash"),
        sync_sessions: count("sim.sync_sessions"),
        sync_rounds: count("sim.sync_rounds"),
        sync_digest_msgs: count("sync.digests_rx"),
        sync_run_msgs: count("sync.runs_rx"),
        sync_cells: count("sync.cells_integrated"),
        sync_bytes: count("sim.sync_bytes") as usize,
        snapshot_bootstraps: count("sim.snapshot_bootstraps"),
        snapshot_bytes: count("sim.snapshot_bytes") as usize,
        messages_before_join: count("sim.messages_before_join"),
        offline_losses: count("sim.offline_losses"),
    }
}

/// A sweep over scenario axes, every cell sharing the fields of the `base`
/// it was built from.
///
/// Each constructor fixes on `base` only the fields its experiment needs
/// (say, [`crash_recovery`](Self::crash_recovery)'s 10% duplication) and
/// varies only the axes it sweeps; every other field of `base` — sites,
/// edits, seed, `balancing`, `reorder_burst_prob`, `batch_max_ops` unless
/// the batch axis is swept, … — reaches every cell unchanged. Cells come in
/// the axes' nesting order drop → duplication → burst → partition →
/// balancing → flatten cadence → protocol → snapshot cadence → crash →
/// batch size → anti-entropy → offline window, the last varying fastest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    cells: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// A matrix of the one cell `base`, to sweep axes over.
    fn over(base: Scenario) -> Self {
        ScenarioMatrix { cells: vec![base] }
    }

    /// Replaces every cell by one copy per value, `set` writing the value.
    fn sweep<T: Copy>(self, values: &[T], set: fn(&mut Scenario, T)) -> Self {
        let cells = self.cells.into_iter().flat_map(|cell| {
            values.iter().map(move |&value| {
                let mut cell = cell;
                set(&mut cell, value);
                cell
            })
        });
        ScenarioMatrix {
            cells: cells.collect(),
        }
    }

    /// The default convergence matrix: fault-free and 10%-faulty cells along
    /// the loss, duplication, burst and partition axes.
    pub fn faulty(base: Scenario) -> Self {
        Self::over(base)
            .sweep(&[0.0, 0.1], |s, p| s.drop_prob = p)
            .sweep(&[0.0, 0.1], |s, p| s.duplicate_prob = p)
            .sweep(&[1, 5], |s, burst| s.burst = burst)
            .sweep(&[false, true], |s, cut| s.partition_first_site = cut)
    }

    /// The wire-cost matrix behind the §5.2 overhead evaluation: batch size
    /// × loss, every lossy cell recovering through coalesced retransmission.
    /// Compare [`SimReport::network_bytes`] per operation across the batch
    /// axis — this is the sweep the `wire_bytes` bench binary prints.
    pub fn batching(base: Scenario) -> Self {
        Self::over(base)
            .sweep(&[0.0, 0.1], |s, p| s.drop_prob = p)
            .sweep(&[1, 4, 16, 64], |s, ops| s.batch_max_ops = ops)
    }

    /// The distributed-flatten cost matrix: loss × partition × protocol at
    /// 10% duplication, the grid behind the experiment the paper could not
    /// run ("We cannot yet evaluate the cost of a distributed flatten").
    /// Every cell proposes a flatten every 4 edit rounds, so commits,
    /// aborts, message and byte counts are comparable per protocol.
    pub fn flatten_commitment(base: Scenario) -> Self {
        let base = Scenario {
            duplicate_prob: 0.1,
            flatten_cadence: Some(4),
            ..base
        };
        Self::over(base)
            .sweep(&[0.0, 0.1], |s, p| s.drop_prob = p)
            .sweep(&[false, true], |s, cut| s.partition_first_site = cut)
            .sweep(
                &[CommitProtocol::TwoPhase, CommitProtocol::ThreePhase],
                |s, protocol| s.flatten_protocol = protocol,
            )
    }

    /// The crash-recovery matrix: loss × snapshot cadence × crash timing at
    /// 10% duplication. Every cell is durable and retransmits; cells with a
    /// crash kill site 1 at the given round and restart it from its store,
    /// and must still converge. The cadence axis is the recovery-cost trade:
    /// frequent checkpoints mean a short WAL to replay, rare ones mean cheap
    /// steady-state writes.
    ///
    /// Crash rounds are expressed against `base`'s edit-round count; `base`
    /// should give at least 8 edit rounds (e.g. 40 edits at burst 5).
    pub fn crash_recovery(base: Scenario) -> Self {
        let base = Scenario {
            duplicate_prob: 0.1,
            durable: true,
            retransmit: true,
            ..base
        };
        let crash = |crash_round, restart_round| {
            Some(CrashSchedule {
                site: 1,
                crash_round,
                restart_round,
            })
        };
        Self::over(base)
            .sweep(&[0.0, 0.1], |s, p| s.drop_prob = p)
            .sweep(&[None, Some(2)], |s, k| s.snapshot_cadence = k)
            // No crash, an early crash with a mid-run restart, and a late
            // crash that restarts at the drain phase.
            .sweep(&[None, crash(1, 4), crash(5, usize::MAX)], |s, c| {
                s.crash = c
            })
    }

    /// The anti-entropy vs retransmission wire-cost matrix: loss rate ×
    /// recovery mechanism × offline gap. Retransmission cells pay
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
        // A long gap: site 1 offline from round 2 to the drain phase.
        let gap = OfflineWindow {
            site: 1,
            from_round: 2,
            to_round: usize::MAX,
        };
        Self::over(base)
            .sweep(&[0.0, 0.05, 0.1, 0.2], |s, p| s.drop_prob = p)
            .sweep(&[false, true], |s, sync| s.anti_entropy = sync)
            .sweep(&[None, Some(gap)], |s, window| s.offline = window)
    }

    /// The concrete scenarios, in nesting order. Cells with `drop_prob > 0`
    /// or an offline window get `retransmit = true` unless they recover by
    /// anti-entropy instead; cells with a crash always retransmit; cells
    /// with a snapshot cadence or a crash run durable.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let derive = |&s: &Scenario| Scenario {
            durable: s.durable || s.snapshot_cadence.is_some() || s.crash.is_some(),
            retransmit: s.retransmit
                || s.crash.is_some()
                || ((s.drop_prob > 0.0 || s.offline.is_some()) && !s.anti_entropy),
            ..s
        };
        self.cells.iter().map(derive).collect()
    }

    /// Runs every cell, returning each scenario with its report in
    /// [`Self::scenarios`] order.
    ///
    /// Cells are independent (each builds its own deterministic network and
    /// replicas from the scenario seed, and counts into its own private
    /// registry), so they execute on a fixed pool of
    /// [`std::thread::available_parallelism`] threads; the output is
    /// byte-for-byte the same as a sequential run.
    pub fn run(&self) -> Vec<(Scenario, SimReport)> {
        let cells = self.scenarios();
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(cells.len().max(1));

        // Work-stealing over a shared index: each worker claims the next
        // unclaimed cell and writes the report into that cell's slot, so the
        // output order is position-determined, not completion-determined.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SimReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(scenario) = cells.get(i) else {
                        break;
                    };
                    let report = run(scenario);
                    *slots[i].lock().expect("worker panicked holding a slot") = Some(report);
                });
            }
        });
        cells
            .into_iter()
            .zip(slots)
            .map(|(scenario, slot)| {
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
    fn crash_run_counts_every_stores_checkpoints_once() {
        // Site 1 dies at the start of round 4 of 20 and restarts from its
        // store at the start of round 8; every other round each live site
        // checkpoints, retiring that round's records. Per store: the attach
        // baseline plus one checkpoint per odd round its site was alive —
        // 10, 8 and 10. The run's registry spans the crash and recovery
        // writes nothing, so the report is exactly the sum over the stores.
        let scenario = Scenario {
            snapshot_cadence: Some(2),
            ..Scenario::crash_faulty(1, 4, 8)
        };
        let odd_rounds = |site: usize| {
            (1..20)
                .step_by(2)
                .filter(|round| site != 1 || !(4..8).contains(round))
                .count() as u64
        };
        let checkpoints: Vec<u64> = (0..scenario.sites).map(odd_rounds).collect();
        assert_eq!(checkpoints, [10, 8, 10]);
        let report = run(&scenario);
        assert!(report.converged && report.crashes == 1, "{report:?}");
        let baselines = scenario.sites as u64;
        let truncations: u64 = checkpoints.iter().sum();
        assert_eq!(report.snapshots_written, baselines + truncations);
        assert_eq!(report.wal_truncations, truncations);
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
        // Every constructor's exact cell sequence over a default base: the
        // swept values in nesting order (the last axis varies fastest), the
        // fields the experiment fixes, and the derived `durable`,
        // `retransmit` and `anti_entropy`.
        let base = Scenario::default();
        let check = |name: &str, matrix: ScenarioMatrix, want: &dyn Fn(usize) -> Scenario| {
            let cells = matrix.scenarios();
            let want: Vec<Scenario> = (0..cells.len()).map(want).collect();
            assert_eq!(cells, want, "{name}");
            cells.len()
        };
        let faulty = check("faulty", ScenarioMatrix::faulty(base), &|k| Scenario {
            drop_prob: [0.0, 0.1][k / 8],
            duplicate_prob: [0.0, 0.1][k / 4 % 2],
            burst: [1, 5][k / 2 % 2],
            partition_first_site: k % 2 == 1,
            retransmit: k >= 8,
            ..base
        });
        assert_eq!(faulty, 16);
        let batching = check("batching", ScenarioMatrix::batching(base), &|k| Scenario {
            drop_prob: [0.0, 0.1][k / 4],
            batch_max_ops: [1, 4, 16, 64][k % 4],
            retransmit: k >= 4,
            ..base
        });
        assert_eq!(batching, 8);
        let flatten = check(
            "flatten_commitment",
            ScenarioMatrix::flatten_commitment(base),
            &|k| Scenario {
                drop_prob: [0.0, 0.1][k / 4],
                duplicate_prob: 0.1,
                partition_first_site: k / 2 % 2 == 1,
                flatten_cadence: Some(4),
                flatten_protocol: [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase][k % 2],
                retransmit: k >= 4,
                ..base
            },
        );
        assert_eq!(flatten, 8);
        let crash = |crash_round, restart_round| CrashSchedule {
            site: 1,
            crash_round,
            restart_round,
        };
        let crashes = [None, Some(crash(1, 4)), Some(crash(5, usize::MAX))];
        let crash = check(
            "crash_recovery",
            ScenarioMatrix::crash_recovery(base),
            &|k| Scenario {
                drop_prob: [0.0, 0.1][k / 6],
                duplicate_prob: 0.1,
                snapshot_cadence: [None, Some(2)][k / 3 % 2],
                crash: crashes[k % 3],
                durable: true,
                retransmit: true,
                ..base
            },
        );
        assert_eq!(crash, 12);
        let gap = OfflineWindow {
            site: 1,
            from_round: 2,
            to_round: usize::MAX,
        };
        let sync = check(
            "sync_vs_retransmission",
            ScenarioMatrix::sync_vs_retransmission(base),
            &|k| {
                let (drop_prob, anti_entropy) = ([0.0, 0.05, 0.1, 0.2][k / 4], k / 2 % 2 == 1);
                let offline = [None, Some(gap)][k % 2];
                Scenario {
                    drop_prob,
                    anti_entropy,
                    offline,
                    retransmit: (drop_prob > 0.0 || offline.is_some()) && !anti_entropy,
                    ..base
                }
            },
        );
        assert_eq!(sync, 16);
    }

    #[test]
    fn a_matrix_keeps_every_base_field_it_does_not_sweep() {
        // Only the batch-size sweep varies `batch_max_ops`, and no matrix
        // sweeps or fixes `balancing` or `reorder_burst_prob`: every other
        // cell carries `base`'s values.
        let base = Scenario {
            batch_max_ops: 8,
            balancing: true,
            reorder_burst_prob: 0.05,
            ..Scenario::default()
        };
        let matrices = [
            ("faulty", ScenarioMatrix::faulty(base), true),
            ("batching", ScenarioMatrix::batching(base), false),
            ("flatten", ScenarioMatrix::flatten_commitment(base), true),
            ("crash", ScenarioMatrix::crash_recovery(base), true),
            ("sync", ScenarioMatrix::sync_vs_retransmission(base), true),
        ];
        for (name, matrix, keeps_batch) in matrices {
            for cell in matrix.scenarios() {
                assert!(cell.balancing, "{name}: {cell:?}");
                assert!(cell.reorder_burst_prob == 0.05, "{name}: {cell:?}");
                if keeps_batch {
                    assert_eq!(cell.batch_max_ops, 8, "{name}: {cell:?}");
                }
            }
        }
    }

    #[test]
    fn the_sync_axis_sets_anti_entropy_over_a_syncing_base() {
        // The anti-entropy axis sets the field instead of OR-ing into it, so
        // a base that already syncs still yields 16 distinct cells, half of
        // them without anti-entropy.
        let base = Scenario {
            anti_entropy: true,
            ..Scenario::default()
        };
        let cells = ScenarioMatrix::sync_vs_retransmission(base).scenarios();
        assert_eq!(cells.len(), 16);
        for (i, cell) in cells.iter().enumerate() {
            assert!(
                cells[i + 1..].iter().all(|other| other != cell),
                "cell {i} repeats: {cell:?}"
            );
        }
        assert_eq!(cells.iter().filter(|cell| cell.anti_entropy).count(), 8);
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

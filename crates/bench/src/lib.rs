//! Shared experiment runners for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (§5) has a runner here;
//! the `src/bin/*` binaries print them in a paper-like layout, or as JSON for
//! the committed `BENCH_*.json` baselines. See EXPERIMENTS.md at the
//! workspace root for the experiment-by-experiment comparison with the
//! published numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use serde::Serialize;

use treedoc_replication::CommitProtocol;
use treedoc_sim::{
    partitioned_commit_demo, run_hosting, HostingScenario, Scenario, ScenarioMatrix,
};
use treedoc_telemetry::{Registry, Telemetry};
use treedoc_trace::{
    latex_corpus, paper_corpus, replay_logoot, replay_treedoc, DisChoice, DocumentSpec,
    ReplayConfig, ReplayReport,
};

/// The flatten settings evaluated in Table 1 (none, or every 1 / 2 / 8
/// revisions).
pub const TABLE1_FLATTEN: [Option<usize>; 4] = [None, Some(1), Some(2), Some(8)];

/// The flatten settings evaluated in Tables 3 and 4.
pub const TABLE34_FLATTEN: [Option<usize>; 3] = [None, Some(8), Some(2)];

/// Formats a flatten setting the way the paper labels it.
pub fn flatten_label(flatten: Option<usize>) -> String {
    match flatten {
        None => "no-flatten".to_string(),
        Some(k) => format!("flatten-{k}"),
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Document name.
    pub document: String,
    /// Flatten setting label.
    pub flatten: String,
    /// Maximum PosID size (bits).
    pub max_pos_id_bits: usize,
    /// Average PosID size (bits).
    pub avg_pos_id_bits: f64,
    /// Number of Treedoc nodes (tombstones included).
    pub nodes: usize,
    /// In-memory node bytes (26 bytes per node, §5.2).
    pub node_bytes: usize,
    /// In-memory overhead relative to the document size.
    pub mem_overhead: f64,
    /// Percentage of non-tombstone nodes.
    pub non_tombstone_pct: f64,
    /// On-disk structure bytes.
    pub disk_bytes: usize,
    /// On-disk overhead as a percentage of the document size.
    pub disk_pct: f64,
    /// Replay wall-clock time (the §5.2 remark); printed by `table1`, left
    /// out of the JSON so the row is a pure count.
    #[serde(skip)]
    pub elapsed: Duration,
}

/// Runs the Table 1 grid: every corpus document under SDIS, no balancing,
/// with each flatten setting.
pub fn table1() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for spec in paper_corpus() {
        let history = spec.generate();
        for flatten in TABLE1_FLATTEN {
            let config = ReplayConfig {
                dis: DisChoice::Sdis,
                balancing: false,
                flatten_every: flatten,
            };
            let report = replay_treedoc(&history, config);
            rows.push(table1_row(&spec, flatten, &report));
        }
    }
    rows
}

/// Builds one Table 1 row from a replay report.
pub fn table1_row(spec: &DocumentSpec, flatten: Option<usize>, report: &ReplayReport) -> Table1Row {
    Table1Row {
        document: spec.name.clone(),
        flatten: flatten_label(flatten),
        max_pos_id_bits: report.final_stats.pos_ids.max_bits,
        avg_pos_id_bits: report.avg_pos_id_bits(),
        nodes: report.final_stats.total_nodes,
        node_bytes: report.memory_bytes(),
        mem_overhead: report.memory_overhead_ratio(),
        non_tombstone_pct: report.non_tombstone_fraction() * 100.0,
        disk_bytes: report.disk_overhead_bytes,
        disk_pct: report.disk_overhead_ratio() * 100.0,
        elapsed: report.elapsed,
    }
}

/// One row of Table 2 (workload summary).
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Row label (average / least active / most active / per document).
    pub label: String,
    /// Number of revisions.
    pub revisions: usize,
    /// Atoms in the first revision.
    pub initial: usize,
    /// Atoms in the final revision.
    pub final_len: usize,
}

/// Runs Table 2: the per-document summaries plus the aggregate rows the paper
/// prints (average, least active, most active).
pub fn table2() -> Vec<Table2Row> {
    let histories: Vec<_> = paper_corpus().iter().map(|s| s.generate()).collect();
    let mut rows: Vec<Table2Row> = histories
        .iter()
        .map(|h| Table2Row {
            label: h.name.clone(),
            revisions: h.revision_count(),
            initial: h.initial_len(),
            final_len: h.final_len(),
        })
        .collect();
    let n = histories.len().max(1);
    let avg = Table2Row {
        label: "average".into(),
        revisions: histories.iter().map(|h| h.revision_count()).sum::<usize>() / n,
        initial: histories.iter().map(|h| h.initial_len()).sum::<usize>() / n,
        final_len: histories.iter().map(|h| h.final_len()).sum::<usize>() / n,
    };
    let least = histories.iter().min_by_key(|h| h.revision_count()).unwrap();
    let most = histories.iter().max_by_key(|h| h.revision_count()).unwrap();
    rows.push(avg);
    rows.push(Table2Row {
        label: "less active".into(),
        revisions: least.revision_count(),
        initial: least.initial_len(),
        final_len: least.final_len(),
    });
    rows.push(Table2Row {
        label: "most active".into(),
        revisions: most.revision_count(),
        initial: most.initial_len(),
        final_len: most.final_len(),
    });
    rows
}

/// One cell of Table 3 (tombstone fraction) / Table 4 (identifier overhead).
#[derive(Debug, Clone, Serialize)]
pub struct GridCell {
    /// Flatten setting label.
    pub flatten: String,
    /// Whether the §4.1 balancing strategies were enabled.
    pub balancing: bool,
    /// Disambiguator design label (Table 4 only; Table 3 uses SDIS).
    pub dis: String,
    /// Fraction of tombstones over stored nodes, aggregated over the LaTeX
    /// documents (Table 3).
    pub tombstone_fraction: f64,
    /// Identifier overhead per live atom, in bits (Table 4).
    pub overhead_per_atom_bits: f64,
    /// Average identifier size over stored nodes, in bits (Table 4).
    pub avg_pos_id_bits: f64,
}

/// Runs the Table 3 grid: tombstone fraction on the LaTeX documents with and
/// without balancing, for each flatten setting (SDIS).
pub fn table3() -> Vec<GridCell> {
    grid(DisChoice::Sdis)
}

/// Runs the Table 4 grid: SDIS versus UDIS identifier overhead on the LaTeX
/// documents, with and without balancing, for each flatten setting.
pub fn table4() -> Vec<GridCell> {
    let mut cells = grid(DisChoice::Sdis);
    cells.extend(grid(DisChoice::Udis));
    cells
}

fn grid(dis: DisChoice) -> Vec<GridCell> {
    let histories: Vec<_> = latex_corpus().iter().map(|s| s.generate()).collect();
    let mut cells = Vec::new();
    for flatten in TABLE34_FLATTEN {
        for balancing in [false, true] {
            let config = ReplayConfig {
                dis,
                balancing,
                flatten_every: flatten,
            };
            let mut total_nodes = 0usize;
            let mut live = 0usize;
            let mut total_bits = 0usize;
            for history in &histories {
                let report = replay_treedoc(history, config);
                total_nodes += report.final_stats.total_nodes;
                live += report.final_stats.live_atoms;
                total_bits += report.final_stats.pos_ids.total_bits;
            }
            cells.push(GridCell {
                flatten: flatten_label(flatten),
                balancing,
                dis: match dis {
                    DisChoice::Sdis => "SDIS".into(),
                    DisChoice::Udis => "UDIS".into(),
                },
                tombstone_fraction: if total_nodes == 0 {
                    0.0
                } else {
                    (total_nodes - live) as f64 / total_nodes as f64
                },
                overhead_per_atom_bits: if live == 0 {
                    0.0
                } else {
                    total_bits as f64 / live as f64
                },
                avg_pos_id_bits: if total_nodes == 0 {
                    0.0
                } else {
                    total_bits as f64 / total_nodes as f64
                },
            });
        }
    }
    cells
}

/// One row of Table 5 (Logoot versus Treedoc identifier sizes).
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// Document name.
    pub document: String,
    /// Total Treedoc (UDIS, no flatten) identifier bytes over live atoms.
    pub treedoc_bytes: usize,
    /// Total Logoot identifier bytes.
    pub logoot_bytes: usize,
    /// The ratio reported by the paper (Logoot / Treedoc).
    pub ratio: f64,
}

/// Runs Table 5: total position-identifier size of Logoot versus
/// Treedoc/UDIS without flattening, per document.
pub fn table5() -> Vec<Table5Row> {
    let mut rows = Vec::new();
    for spec in paper_corpus() {
        let history = spec.generate();
        let treedoc = replay_treedoc(
            &history,
            ReplayConfig {
                dis: DisChoice::Udis,
                balancing: false,
                flatten_every: None,
            },
        );
        let logoot = replay_logoot(&history);
        let treedoc_bytes = treedoc.live_pos_id_bytes();
        let logoot_bytes = logoot.total_id_bytes();
        rows.push(Table5Row {
            document: spec.name.clone(),
            treedoc_bytes,
            logoot_bytes,
            ratio: if treedoc_bytes == 0 {
                0.0
            } else {
                logoot_bytes as f64 / treedoc_bytes as f64
            },
        });
    }
    rows
}

/// The Figure 6 time series: total nodes and non-tombstone nodes per revision
/// for the `acf.tex` twin.
pub fn figure6(flatten_every: Option<usize>) -> ReplayReport {
    let spec = paper_corpus()
        .into_iter()
        .find(|s| s.name == "acf.tex")
        .expect("acf.tex is part of the corpus");
    let history = spec.generate();
    replay_treedoc(
        &history,
        ReplayConfig {
            dis: DisChoice::Sdis,
            balancing: false,
            flatten_every,
        },
    )
}

/// One row of the distributed-flatten cost experiment: the protocol cost of
/// §4.2.1's commitment, which the paper could not evaluate ("We cannot yet
/// evaluate the cost of a distributed flatten").
#[derive(Debug, Clone, Serialize)]
pub struct FlattenCostRow {
    /// Protocol label (`2pc` / `3pc`).
    pub protocol: String,
    /// Loss probability of the cell.
    pub drop_prob: f64,
    /// Whether the mid-run coordinator partition was active.
    pub partition: bool,
    /// Proposals initiated.
    pub proposals: usize,
    /// Proposals committed.
    pub commits: usize,
    /// Proposals aborted (concurrent edits, missing votes).
    pub aborts: usize,
    /// Commitment messages on the wire (retransmissions included).
    pub protocol_messages: u64,
    /// Encoded bytes of that traffic.
    pub protocol_bytes: usize,
    /// Coordinator protocol rounds summed over proposals.
    pub commit_rounds: u64,
    /// Ticks replicas spent locked in the prepared state.
    pub blocked_rounds: u64,
    /// 3PC unilateral terminations while the coordinator was unreachable.
    pub unilateral_commits: u64,
    /// Whether every replica converged (content, epoch, locks, queues).
    pub converged: bool,
}

/// Runs the distributed-flatten cost grid: loss × partition × protocol over
/// the faulty simulated network, one row per cell.
pub fn distributed_flatten_grid(sites: usize, edits_per_site: usize) -> Vec<FlattenCostRow> {
    let matrix = ScenarioMatrix::flatten_commitment(Scenario {
        sites,
        edits_per_site,
        ..Scenario::default()
    });
    matrix
        .run()
        .into_iter()
        .map(|(scenario, report)| FlattenCostRow {
            protocol: scenario.flatten_protocol.label().to_string(),
            drop_prob: scenario.drop_prob,
            partition: scenario.partition_first_site,
            proposals: report.flatten_proposals,
            commits: report.flatten_commits,
            aborts: report.flatten_aborts,
            protocol_messages: report.protocol_messages,
            protocol_bytes: report.protocol_bytes,
            commit_rounds: report.commit_rounds,
            blocked_rounds: report.flatten_blocked_rounds,
            unilateral_commits: report.unilateral_commits,
            converged: report.converged,
        })
        .collect()
}

/// The scripted coordinator-partition comparison (blocked 2PC versus
/// non-blocking 3PC), re-exported for the `flatten_commit` binary.
pub fn partition_comparison(sites: usize, seed: u64) -> Vec<treedoc_sim::PartitionedCommitReport> {
    [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase]
        .into_iter()
        .map(|protocol| partitioned_commit_demo(protocol, sites, seed))
        .collect()
}

// ---------------------------------------------------------------------------
// Crash recovery cost (durability subsystem)
// ---------------------------------------------------------------------------

type RecoveryDoc = treedoc_core::Treedoc<String, treedoc_core::Sdis>;

/// Builds a durable replica that has performed `ops` logged edits since its
/// attach-time checkpoint, then "crashes" it: the replica object is dropped
/// and its detached [`DocStore`](treedoc_storage::DocStore) — snapshot plus
/// `ops` WAL records — is returned.
pub fn crashed_store_with_ops(ops: usize) -> treedoc_storage::DocStore {
    let site = treedoc_core::SiteId::from_u64(1);
    let seed: Vec<String> = (0..50).map(|i| format!("seed line {i}")).collect();
    let mut replica = treedoc_replication::Replica::new(site, RecoveryDoc::from_atoms(site, &seed));
    replica
        .attach_store(treedoc_storage::DocStore::in_memory())
        .expect("in-memory attach cannot fail");
    for k in 0..ops {
        let len = replica.doc().len();
        let op = replica
            .doc_mut()
            .local_insert(len, format!("logged edit {k}"))
            .expect("append in range");
        let _ = replica.stamp(op);
    }
    replica.detach_store().expect("store attached")
}

/// Cold recovery from a crashed store; returns the recovered digest and the
/// recovery report (used by the `recovery` binary).
pub fn recover_crashed_store(
    store: treedoc_storage::DocStore,
) -> (u64, treedoc_replication::RecoveryReport) {
    let (replica, report) = treedoc_replication::Replica::<RecoveryDoc>::recover(store)
        .expect("recovery from a healthy store succeeds");
    (replica.digest(), report)
}

/// One cell of the recovery-cost experiment: what a cold restart reads and
/// replays versus the number of operations logged since the last snapshot —
/// the compaction trade the paper implies (§4.2.1 flatten as clean-up point)
/// but never measures. Its wall time is perfbench's
/// `storage.recover_ns_per_record`.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryCostRow {
    /// Logged operations since the last checkpoint.
    pub ops_since_snapshot: usize,
    /// WAL size on "disk" at crash time.
    pub wal_bytes: usize,
    /// WAL records the recovery replayed.
    pub wal_records_replayed: usize,
    /// Bytes read back (snapshot + WAL prefix).
    pub recovered_bytes: usize,
}

/// Runs the recovery-cost grid over the given ops-since-snapshot points.
pub fn recovery_cost_grid(points: &[usize]) -> Vec<RecoveryCostRow> {
    points
        .iter()
        .map(|&ops| {
            let store = crashed_store_with_ops(ops);
            let wal_bytes = store.wal_len().expect("wal readable");
            let (_, report) = recover_crashed_store(store);
            RecoveryCostRow {
                ops_since_snapshot: ops,
                wal_bytes,
                wal_records_replayed: report.wal_records_replayed,
                recovered_bytes: report.bytes_recovered,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Wire and storage overhead (binary codec + batched delta replication)
// ---------------------------------------------------------------------------

use treedoc_replication::{encode_envelope, CausalMessage, Envelope, OpBatch, Replica};

type WireDoc = treedoc_core::Treedoc<String, treedoc_core::Sdis>;
type WireOp = treedoc_core::Op<String, treedoc_core::Sdis>;

/// One `(epoch, stamped message)` pair, the unit both the per-op and the
/// batched wire paths ship.
pub type WireEntry = (u64, CausalMessage<WireOp>);

/// Builds the canonical sequential-typing workload: one replica appending
/// `ops` short lines, every operation stamped. Sequential edits produce the
/// deeply shared identifier prefixes the paper's traces exhibit (§5), which
/// is exactly what the batch delta encoding exploits.
pub fn typing_session_entries(ops: usize) -> Vec<WireEntry> {
    let site = treedoc_core::SiteId::from_u64(1);
    let mut replica = Replica::new(site, WireDoc::new(site));
    (0..ops)
        .map(|k| {
            let len = replica.doc().len();
            let op = replica
                .doc_mut()
                .local_insert(len, format!("typed line {k}"))
                .expect("append in range");
            (0u64, replica.stamp(op))
        })
        .collect()
}

/// Encoded cost of one transport choice over the typing workload.
#[derive(Debug, Clone, Serialize)]
pub struct WireEncodingRow {
    /// Transport label (`json-per-op`, `binary-per-op`, `binary-batch-N`).
    pub transport: String,
    /// Operations shipped.
    pub ops: usize,
    /// Total encoded bytes.
    pub total_bytes: usize,
    /// Bytes per operation.
    pub bytes_per_op: f64,
}

/// Encodes the same `ops`-operation typing session through every transport
/// choice: JSON text (one envelope per op, the size a serde wire would
/// ship), the binary codec per op, and the binary codec with batching at
/// each of `batch_sizes`.
pub fn wire_encoding_comparison(ops: usize, batch_sizes: &[usize]) -> Vec<WireEncodingRow> {
    let entries = typing_session_entries(ops);
    let row = |transport: String, total_bytes: usize| WireEncodingRow {
        transport,
        ops,
        total_bytes,
        bytes_per_op: total_bytes as f64 / ops.max(1) as f64,
    };
    let mut rows = Vec::new();

    let json: usize = entries
        .iter()
        .map(|(epoch, msg)| {
            let env: Envelope<WireOp> = Envelope::Op {
                epoch: *epoch,
                msg: msg.clone(),
            };
            serde_json::to_string(&env)
                .expect("envelopes serialise")
                .len()
        })
        .sum();
    rows.push(row("json-per-op".into(), json));

    let binary: usize = entries
        .iter()
        .map(|(epoch, msg)| {
            encode_envelope(&Envelope::Op {
                epoch: *epoch,
                msg: msg.clone(),
            })
            .len()
        })
        .sum();
    rows.push(row("binary-per-op".into(), binary));

    for &batch in batch_sizes {
        let batched: usize = entries
            .chunks(batch.max(1))
            .map(|chunk| {
                encode_envelope(&Envelope::OpBatch(OpBatch {
                    entries: chunk.to_vec(),
                }))
                .len()
            })
            .sum();
        rows.push(row(format!("binary-batch-{batch}"), batched));
    }
    rows
}

/// Wire bytes of a keystroke typing session shipped one envelope per
/// keystroke, as [`Replica::stamp_envelope`] emits them: the first envelope
/// absolute, every later one chained to the previous stamp.
#[derive(Debug, Clone, Serialize)]
pub struct SingleOpEnvelopeRow {
    /// Keystrokes typed (one envelope each).
    pub keystrokes: usize,
    /// Envelope bytes of the whole session.
    pub total_bytes: usize,
    /// Mean envelope bytes per keystroke.
    pub bytes_per_envelope: f64,
    /// Bytes of the last keystroke's envelope.
    pub last_envelope_bytes: usize,
    /// Bytes the last keystroke would cost as an absolute envelope.
    pub last_absolute_bytes: usize,
}

/// Types `n` single-character keystrokes at the end of an empty document
/// for each `n` in `keystrokes`, and measures the envelopes on the wire.
pub fn single_op_envelope_bytes(keystrokes: &[usize]) -> Vec<SingleOpEnvelopeRow> {
    keystrokes
        .iter()
        .map(|&n| {
            let site = treedoc_core::SiteId::from_u64(1);
            let mut replica = Replica::new(site, WireDoc::new(site));
            let (mut total_bytes, mut last_envelope_bytes) = (0, 0);
            // The last op, absolute: resolved as a receiver would.
            let mut last: Option<CausalMessage<WireOp>> = None;
            for _ in 0..n {
                let len = replica.doc().len();
                let op = replica
                    .doc_mut()
                    .local_insert(len, "k".to_string())
                    .expect("append in range");
                let envelope = replica.stamp_envelope(op);
                last_envelope_bytes = encode_envelope(&envelope).len();
                total_bytes += last_envelope_bytes;
                last = match envelope {
                    Envelope::Op { msg, .. } => Some(msg),
                    Envelope::OpChained(op) => last.and_then(|prev| op.resolve(&prev)),
                    _ => None,
                };
            }
            let last_absolute_bytes = last.map_or(0, |msg| {
                encode_envelope(&Envelope::Op { epoch: 0, msg }).len()
            });
            SingleOpEnvelopeRow {
                keystrokes: n,
                total_bytes,
                bytes_per_envelope: total_bytes as f64 / n.max(1) as f64,
                last_envelope_bytes,
                last_absolute_bytes,
            }
        })
        .collect()
}

/// WAL size of a logged typing session.
#[derive(Debug, Clone, Serialize)]
pub struct WalFormatRow {
    /// Stamped operations journaled.
    pub records: usize,
    /// WAL bytes of the binary records.
    pub binary_bytes: usize,
}

/// Journals an `ops`-edit typing session into an in-memory store and
/// reports the WAL size (frame headers included — this is what would sit
/// on disk). Each stamp after the first is chained to the one before it,
/// exactly as the replica writes it.
pub fn wal_format_comparison(ops: usize) -> WalFormatRow {
    let site = treedoc_core::SiteId::from_u64(1);
    let mut replica = Replica::new(site, WireDoc::new(site));
    replica
        .attach_store(treedoc_storage::DocStore::in_memory())
        .expect("in-memory attach cannot fail");
    for k in 0..ops {
        let len = replica.doc().len();
        let op = replica
            .doc_mut()
            .local_insert(len, format!("typed line {k}"))
            .expect("append in range");
        let _ = replica.stamp(op);
    }
    let store = replica.detach_store().expect("store attached");
    WalFormatRow {
        records: ops,
        binary_bytes: store.wal_len().expect("wal readable"),
    }
}

/// One cell of the distributed wire-cost sweep: batch size × loss over the
/// simulated faulty network, with the byte counters measured by the codec
/// (see [`treedoc_sim::SimReport`]).
#[derive(Debug, Clone, Serialize)]
pub struct WireCostRow {
    /// Batch flush threshold of the cell (1 = per-op envelopes).
    pub batch_max_ops: usize,
    /// Loss probability of the cell.
    pub drop_prob: f64,
    /// Operations generated across all sites.
    pub ops: usize,
    /// Encoded operation-envelope bytes on the wire (per link crossed,
    /// retransmissions included).
    pub network_bytes: usize,
    /// `network_bytes / ops`.
    pub bytes_per_op: f64,
    /// Envelopes the network delivered.
    pub messages_delivered: u64,
    /// Batch envelopes shipped.
    pub op_batches_sent: u64,
    /// Bytes of the retransmission share.
    pub retransmission_bytes: usize,
    /// Whether the cell converged.
    pub converged: bool,
}

/// Runs the batch-size × loss sweep ([`ScenarioMatrix::batching`]) and
/// returns one row per cell.
pub fn wire_cost_grid(sites: usize, edits_per_site: usize) -> Vec<WireCostRow> {
    let matrix = ScenarioMatrix::batching(Scenario {
        sites,
        edits_per_site,
        ..Scenario::default()
    });
    matrix
        .run()
        .into_iter()
        .map(|(scenario, report)| WireCostRow {
            batch_max_ops: scenario.batch_max_ops,
            drop_prob: scenario.drop_prob,
            ops: report.ops_generated,
            network_bytes: report.network_bytes,
            bytes_per_op: report.network_bytes as f64 / report.ops_generated.max(1) as f64,
            messages_delivered: report.messages_delivered,
            op_batches_sent: report.op_batches_sent,
            retransmission_bytes: report.retransmission_bytes,
            converged: report.converged,
        })
        .collect()
}

/// One cell of the anti-entropy vs retransmission sweep: loss rate ×
/// offline gap × recovery mechanism, recovery cost measured in encoded
/// bytes by the wire codec (see [`ScenarioMatrix::sync_vs_retransmission`]).
#[derive(Debug, Clone, Serialize)]
pub struct SyncCostRow {
    /// Loss probability of the cell.
    pub drop_prob: f64,
    /// Whether site 1 spent the run from round 2 onward offline.
    pub offline_gap: bool,
    /// `true` = state-based anti-entropy, `false` = at-least-once
    /// retransmission.
    pub anti_entropy: bool,
    /// Operations generated across all sites.
    pub ops: usize,
    /// Encoded operation-envelope bytes on the wire (initial broadcasts
    /// plus retransmissions).
    pub network_bytes: usize,
    /// What the recovery mechanism itself cost: `retransmission_bytes +
    /// ack_bytes` for the baseline, `sync_bytes` for anti-entropy.
    pub recovery_bytes: usize,
    /// `recovery_bytes / ops`.
    pub recovery_bytes_per_op: f64,
    /// Digest-walk messages ([`treedoc_sim::SimReport::sync_digest_msgs`]).
    pub sync_digest_msgs: u64,
    /// Leaf cell-exchange messages.
    pub sync_run_msgs: u64,
    /// Cells integrated by sync sessions.
    pub sync_cells: u64,
    /// Messages re-sent by the baseline.
    pub retransmissions: u64,
    /// Whether the cell converged.
    pub converged: bool,
}

/// Runs the loss × offline-gap × mechanism sweep
/// ([`ScenarioMatrix::sync_vs_retransmission`]) and returns one row per
/// cell — the experiment behind the "anti-entropy vs retransmission"
/// EXPERIMENTS section.
///
/// Each cell runs over its own telemetry [`Registry`]; the sync and
/// recovery byte/message figures are read back from the registry snapshot
/// (the `sim.*` instruments mirrored at the wire boundary) rather than the
/// report's private counters.
pub fn sync_cost_grid(sites: usize, edits_per_site: usize) -> Vec<SyncCostRow> {
    let matrix = ScenarioMatrix::sync_vs_retransmission(Scenario {
        sites,
        edits_per_site,
        ..Scenario::default()
    });
    let mut registries: Vec<Registry> = Vec::new();
    let cells = matrix.run_with(|_| {
        let registry = Registry::new();
        let handle = registry.handle();
        registries.push(registry);
        handle
    });
    cells
        .into_iter()
        .zip(registries)
        .map(|((scenario, report), registry)| {
            let snapshot = registry.snapshot();
            let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
            let recovery_bytes = if scenario.anti_entropy {
                counter("sim.sync_bytes") as usize
            } else {
                (counter("sim.retransmission_bytes") + counter("sim.ack_bytes")) as usize
            };
            SyncCostRow {
                drop_prob: scenario.drop_prob,
                offline_gap: scenario.offline.is_some(),
                anti_entropy: scenario.anti_entropy,
                ops: report.ops_generated,
                network_bytes: report.network_bytes,
                recovery_bytes,
                recovery_bytes_per_op: recovery_bytes as f64 / report.ops_generated.max(1) as f64,
                sync_digest_msgs: counter("sim.sync_digest_msgs"),
                sync_run_msgs: counter("sim.sync_run_msgs"),
                sync_cells: counter("sim.sync_cells"),
                retransmissions: report.retransmissions,
                converged: report.converged,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Core document memory-per-char (run-coalescing trajectory)
// ---------------------------------------------------------------------------

/// One memory-per-char case of the `core_memory` benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct CoreMemoryRow {
    /// Case label.
    pub case: String,
    /// Live atoms in the final document.
    pub live_atoms: usize,
    /// Occupied tree slots.
    pub total_nodes: usize,
    /// Measured index heap bytes ([`Treedoc::index_bytes`]).
    pub index_bytes: usize,
    /// `index_bytes / live_atoms`.
    pub index_bytes_per_char: f64,
    /// Paper model (26 B/node) bytes, for continuity with Table 1.
    pub paper_model_bytes: usize,
    /// Tree height of the final document.
    pub height: usize,
}

/// Parses the shared bench-binary CLI surface: `--json` switches to
/// machine-readable stdout, and `--out PATH` additionally writes that JSON to
/// `PATH` (the committed `BENCH_*.json` baselines at the repo root).
#[derive(Debug, Default, Clone)]
pub struct BenchArgs {
    /// Print machine-readable JSON instead of the paper-style tables.
    pub json: bool,
    /// Baseline file to (over)write with the JSON output.
    pub out: Option<String>,
}

impl BenchArgs {
    /// Reads the process arguments.
    pub fn from_env() -> Self {
        let mut args = BenchArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => args.json = true,
                "--out" => args.out = iter.next(),
                _ => {}
            }
        }
        args
    }

    /// Serialises `value`, prints it when `--json` was given and writes it to
    /// the `--out` baseline when one was named.
    pub fn emit<T: Serialize>(&self, value: &T) -> bool {
        if !self.json && self.out.is_none() {
            return false;
        }
        let json = serde_json::to_string_pretty(value).expect("serializable output");
        if let Some(path) = &self.out {
            std::fs::write(path, format!("{json}\n")).expect("baseline file writable");
        }
        if self.json {
            println!("{json}");
        }
        self.json
    }
}

use treedoc_core::Treedoc;

fn memory_row<D: treedoc_core::Disambiguator + treedoc_core::HasSource>(
    case: &str,
    doc: &Treedoc<String, D>,
) -> CoreMemoryRow {
    let stats = doc.stats();
    let index_bytes = doc.index_bytes();
    CoreMemoryRow {
        case: case.to_string(),
        live_atoms: stats.live_atoms,
        total_nodes: stats.total_nodes,
        index_bytes,
        index_bytes_per_char: index_bytes as f64 / stats.live_atoms.max(1) as f64,
        paper_model_bytes: stats.total_nodes * 26,
        height: stats.height,
    }
}

/// Runs the memory-per-char cases: a pure sequential-typing document (the
/// run-coalescing best case) and a flattened equivalent.
pub fn core_memory_cases(chars: usize) -> Vec<CoreMemoryRow> {
    let site = treedoc_core::SiteId::from_u64(1);
    let mut rows = Vec::new();

    let mut typed: Treedoc<String, treedoc_core::Sdis> = Treedoc::new(site);
    for k in 0..chars {
        typed.local_insert(k, "x".to_string()).expect("append");
    }
    rows.push(memory_row("sequential_typing", &typed));

    let atoms: Vec<String> = (0..chars).map(|_| "x".to_string()).collect();
    let exploded: Treedoc<String, treedoc_core::Sdis> = Treedoc::from_atoms(site, &atoms);
    rows.push(memory_row("flattened", &exploded));

    rows
}

// ---------------------------------------------------------------------------
// Telemetry overhead (the observability layer's own cost)
// ---------------------------------------------------------------------------

/// One variant of the `telemetry_overhead` bench: the sequential-typing
/// stamp workload with telemetry absent, disabled, or enabled.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Variant label (`baseline` / `disabled` / `enabled`).
    pub case: String,
    /// Operations stamped.
    pub ops: usize,
    /// Wall time, microseconds (best of [`OVERHEAD_TRIALS`]).
    pub elapsed_micros: u64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Slowdown against the baseline variant, percent (negative values are
    /// measurement noise; the baseline row is 0 by construction).
    pub overhead_pct: f64,
}

/// Trials per overhead variant; best-of minimums are far more stable than
/// means for a sub-5% comparison.
pub const OVERHEAD_TRIALS: usize = 9;

fn overhead_typing_run(ops: usize, telemetry: Option<&Telemetry>) -> u64 {
    let site = treedoc_core::SiteId::from_u64(1);
    let mut replica = Replica::new(site, WireDoc::new(site));
    if let Some(telemetry) = telemetry {
        replica.set_telemetry(telemetry);
    }
    for k in 0..ops {
        let len = replica.doc().len();
        let op = replica
            .doc_mut()
            .local_insert(len, format!("typed line {k}"))
            .expect("append in range");
        let _ = replica.stamp(op);
    }
    replica.digest()
}

/// Measures what the telemetry layer itself costs on the hot `Replica`
/// stamp path: the same `ops`-operation sequential-typing session with no
/// telemetry call at all (`baseline`), an inert handle (`disabled` — one
/// `None` branch per instrument hit), and a live registry (`enabled` —
/// atomic counters plus a histogram record per op). The `enabled` row's
/// `overhead_pct` is the figure the acceptance bound (<5%) pins.
///
/// Trials are interleaved round-robin across the three variants (taking
/// each variant's best) so clock-frequency or load drift over the bench's
/// lifetime cannot masquerade as overhead of whichever variant ran last.
pub fn telemetry_overhead_cases(ops: usize) -> Vec<OverheadRow> {
    let registry = Registry::new();
    let enabled_handle = registry.handle();
    let disabled_handle = Telemetry::disabled();
    let variants: [Option<&Telemetry>; 3] = [None, Some(&disabled_handle), Some(&enabled_handle)];
    let mut best = [Duration::MAX; 3];
    for _ in 0..OVERHEAD_TRIALS {
        for (slot, telemetry) in variants.iter().enumerate() {
            let t = std::time::Instant::now();
            overhead_typing_run(ops, *telemetry);
            best[slot] = best[slot].min(t.elapsed());
        }
    }
    let [baseline, disabled, enabled] = best;
    // The enabled variant must actually have been observed, or the numbers
    // measured nothing.
    let stamped = registry
        .snapshot()
        .counter("replica.ops_stamped")
        .unwrap_or(0);
    assert!(
        stamped >= ops as u64,
        "enabled trials recorded {stamped} stamps, expected at least {ops}"
    );

    let row = |case: &str, elapsed: Duration| OverheadRow {
        case: case.to_string(),
        ops,
        elapsed_micros: elapsed.as_micros() as u64,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        overhead_pct: (elapsed.as_secs_f64() - baseline.as_secs_f64())
            / baseline.as_secs_f64().max(1e-9)
            * 100.0,
    };
    vec![
        row("baseline", baseline),
        row("disabled", disabled),
        row("enabled", enabled),
    ]
}

/// One row of the multi-document hosting sweep (`node_hosting` bin): a
/// Zipf-popularity session workload at one resident-set size.
#[derive(Debug, Clone, Serialize)]
pub struct HostingRow {
    /// Row label (`resident-<capacity>`).
    pub case: String,
    /// Documents in the hosted population.
    pub documents: usize,
    /// Resident-set capacity.
    pub max_resident: usize,
    /// Documents the workload actually touched.
    pub hosted_docs: usize,
    /// Operations served.
    pub ops: u64,
    /// In-memory index bytes of the resident set at the end of the run.
    pub resident_bytes: u64,
    /// Cold evictions performed.
    pub evictions: u64,
    /// Fault-ins from the store.
    pub fault_ins: u64,
    /// Backend segment appends (group commit: ~shards × commits, not ~ops).
    pub segment_appends: u64,
}

/// Runs the hosting workload once per resident-set size over a fixed
/// document population and session schedule. The node's op latencies and
/// restart/refill times are perfbench's `node.*` rows.
pub fn hosting_sweep(documents: usize, sessions: usize, residents: &[usize]) -> Vec<HostingRow> {
    residents
        .iter()
        .map(|&max_resident| {
            let scenario = HostingScenario {
                documents,
                sessions,
                max_resident,
                ..HostingScenario::default()
            };
            let report = run_hosting(&scenario);
            HostingRow {
                case: format!("resident-{max_resident}"),
                documents,
                max_resident,
                hosted_docs: report.hosted_docs,
                ops: report.ops_applied,
                resident_bytes: report.resident_bytes,
                evictions: report.evictions,
                fault_ins: report.fault_ins,
                segment_appends: report.segment_appends,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_flatten_grid_converges_and_reports_costs() {
        let rows = distributed_flatten_grid(3, 20);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.converged, "{row:?}");
            assert!(row.commits >= 1, "{row:?}");
            assert!(row.protocol_messages > 0, "{row:?}");
        }
        let msgs = |p: &str| -> u64 {
            rows.iter()
                .filter(|r| r.protocol == p)
                .map(|r| r.protocol_messages)
                .sum()
        };
        assert!(msgs("2pc") > 0 && msgs("3pc") > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(flatten_label(None), "no-flatten");
        assert_eq!(flatten_label(Some(2)), "flatten-2");
    }

    #[test]
    fn recovery_grid_replays_exactly_the_logged_ops() {
        let rows = recovery_cost_grid(&[0, 15]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].wal_records_replayed, 0);
        assert_eq!(rows[0].wal_bytes, 0);
        assert_eq!(rows[1].wal_records_replayed, 15);
        assert!(rows[1].wal_bytes > 0);
        assert!(rows[1].recovered_bytes > rows[0].recovered_bytes);
    }

    #[test]
    fn baseline_rows_serialize_identically_on_every_run() {
        // The committed baselines are gated byte for byte, so a runner must
        // not depend on clocks, iteration order of hashed containers, or any
        // other per-process state.
        fn json<T: Serialize>(rows: &T) -> String {
            serde_json::to_string(rows).expect("serializable rows")
        }
        assert_eq!(
            json(&recovery_cost_grid(&[0, 50])),
            json(&recovery_cost_grid(&[0, 50]))
        );
        assert_eq!(
            json(&hosting_sweep(120, 40, &[4, 16])),
            json(&hosting_sweep(120, 40, &[4, 16]))
        );
    }

    #[test]
    fn crashed_store_recovers_to_the_same_digest() {
        let store = crashed_store_with_ops(25);
        let again = crashed_store_with_ops(25);
        let (d1, r1) = recover_crashed_store(store);
        let (d2, _) = recover_crashed_store(again);
        assert_eq!(d1, d2, "recovery is deterministic");
        assert_eq!(r1.wal_records_replayed, 25);
        assert!(r1.snapshot_hit);
    }

    #[test]
    fn batched_binary_beats_the_per_op_json_baseline() {
        // The acceptance check: the batched binary path measurably cuts
        // bytes-per-op against the per-op JSON wire this workspace used to
        // ship (and the un-batched binary codec sits in between).
        let rows = wire_encoding_comparison(256, &[32]);
        let by_label = |label: &str| {
            rows.iter()
                .find(|r| r.transport == label)
                .unwrap_or_else(|| panic!("row {label} missing"))
                .bytes_per_op
        };
        let json = by_label("json-per-op");
        let binary = by_label("binary-per-op");
        let batched = by_label("binary-batch-32");
        assert!(
            binary * 2.0 < json,
            "binary per-op must at least halve the JSON wire: {binary} vs {json}"
        );
        assert!(
            batched * 2.0 < binary,
            "delta-encoded batches must at least halve the per-op binary \
             cost on sequential typing: {batched} vs {binary}"
        );
    }

    #[test]
    fn wal_row_is_the_chained_entry_bytes_plus_tag_pair_and_frame_header_per_record() {
        // Journaled stamps chain exactly as the entries of one batch do: the
        // first is written in full, each later one against its predecessor.
        // Each WAL record adds its tag pair and a fixed frame header; the
        // batch envelope adds its version/tag pair and entry count once.
        let ops = 64;
        let row = wal_format_comparison(ops);
        let batch = wire_encoding_comparison(ops, &[ops])
            .into_iter()
            .find(|r| r.transport == format!("binary-batch-{ops}"))
            .expect("one-batch row");
        let entry_bytes = batch.total_bytes - 2 - 1; // version, tag, 1-byte count
        assert_eq!(row.records, ops);
        assert_eq!(
            row.binary_bytes,
            entry_bytes + ops * (2 + treedoc_storage::wal::RECORD_HEADER_BYTES),
            "{row:?} vs {batch:?}"
        );
    }

    #[test]
    fn single_op_envelopes_cost_the_same_bytes_at_any_depth() {
        // Every keystroke after the first is a run step chained to the
        // previous stamp: its envelope does not grow with the document,
        // while the same keystroke shipped absolute does.
        let rows = single_op_envelope_bytes(&[1_000, 10_000]);
        for row in &rows {
            assert!(row.bytes_per_envelope < 20.0, "{row:?}");
            assert!(row.last_envelope_bytes <= 17, "{row:?}");
        }
        assert_eq!(rows[0].last_envelope_bytes, rows[1].last_envelope_bytes);
        assert!(rows[1].last_absolute_bytes > 4 * rows[1].last_envelope_bytes);
    }

    #[test]
    fn wire_cost_grid_converges_and_batching_helps() {
        let rows = wire_cost_grid(3, 30);
        assert_eq!(rows.len(), 2 * 4);
        for row in &rows {
            assert!(row.converged, "{row:?}");
        }
        let clean_per_op = rows
            .iter()
            .find(|r| r.drop_prob == 0.0 && r.batch_max_ops == 1)
            .unwrap();
        let clean_batched = rows
            .iter()
            .find(|r| r.drop_prob == 0.0 && r.batch_max_ops == 64)
            .unwrap();
        assert!(
            clean_batched.bytes_per_op < clean_per_op.bytes_per_op,
            "{clean_batched:?} vs {clean_per_op:?}"
        );
    }

    #[test]
    fn table2_has_per_document_and_aggregate_rows() {
        let rows = table2();
        assert_eq!(rows.len(), 6 + 3);
        let most = rows.iter().find(|r| r.label == "most active").unwrap();
        assert_eq!(most.revisions, 870);
        let least = rows.iter().find(|r| r.label == "less active").unwrap();
        assert_eq!(least.revisions, 51);
    }
}

//! The sending side of a replica: how a stamped operation leaves it.
//!
//! * **Chaining.** A single-op envelope is an [`Envelope::OpChained`] delta
//!   against the op shipped last when that op is its immediate predecessor
//!   (sequence number one lower, same flatten epoch), absolute otherwise.
//! * **Batching.** Stamps buffer into one [`OpBatch`] until it holds
//!   [`BatchPolicy::max_ops`] operations or its encoding reaches
//!   [`MAX_BATCH_BYTES`], whichever comes first.
//! * **At-least-once.** A send log keeps every stamped op until each
//!   registered peer has acknowledged it cumulatively ([`Envelope::Ack`]);
//!   a peer's unacknowledged window can be handed out again, and the
//!   duplicate-safe causal buffer discards the redundant copies, so the
//!   pair yields exactly-once *delivery* on at-least-once *transmission*.
//!
//! Only the send log is durable: a recovered replica starts a new chain
//! with an absolute envelope, and what an unflushed batch held is logged.

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

use serde::{Deserialize, Serialize};
use treedoc_core::{SiteId, WirePayload};
use treedoc_telemetry::{Counter, Telemetry};

use crate::causal::CausalMessage;
use crate::chain::ChainedOp;
use crate::wire::{self, Envelope, OpBatch};

/// Encoded payload bytes at which a batch flushes whatever its operation
/// count, so one envelope stays bounded when [`BatchPolicy::max_ops`] is
/// large.
pub const MAX_BATCH_BYTES: usize = 16 * 1024;

/// Sender-side flush policy for operation batching: a batch is emitted as
/// soon as it holds `max_ops` operations **or** its binary encoding reaches
/// [`MAX_BATCH_BYTES`], whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Maximum operations per batch (≥ 1).
    pub max_ops: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_ops: 16 }
    }
}

/// One stamped op as the sender keeps it: `(stamped flatten epoch, message)`.
type Entry<Op> = (u64, CausalMessage<Op>);

/// Stamps buffered until the flush policy triggers.
#[derive(Debug)]
struct Batcher<Op> {
    max_ops: usize,
    pending: Vec<Entry<Op>>,
    /// Encoded bytes of `pending` so far (each entry measured delta-encoded
    /// against its predecessor, exactly as the wire will ship it).
    pending_bytes: usize,
}

/// The at-least-once send log and the acknowledgements pruning it, written
/// as is into the replica's snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AtLeastOnce<Op> {
    /// Every stamped-but-not-fully-acknowledged message, keyed by this
    /// replica's own sequence number, with the flatten epoch it was stamped
    /// in (so retransmissions keep their original epoch tag).
    send_log: BTreeMap<u64, Entry<Op>>,
    /// Highest sequence number of ours each registered peer has
    /// cumulatively acknowledged.
    peer_acked: BTreeMap<SiteId, u64>,
}

/// The `replica.*` counters of the sending side.
#[derive(Debug, Clone, Default)]
struct SenderMetrics {
    retransmissions: Counter,
    batches_flushed: Counter,
    batch_ops: Counter,
}

/// A replica's sending side (see the module docs).
#[derive(Debug)]
pub(crate) struct Sender<Op> {
    /// The last op [`envelope`](Self::envelope) shipped, with its epoch.
    last: Option<Entry<Op>>,
    batcher: Option<Batcher<Op>>,
    at_least_once: Option<AtLeastOnce<Op>>,
    metrics: SenderMetrics,
}

impl<Op: WirePayload + Clone> Sender<Op> {
    /// A sender that does not batch, keeping `at_least_once`'s send log.
    pub(crate) fn new(at_least_once: Option<AtLeastOnce<Op>>) -> Self {
        Sender {
            last: None,
            batcher: None,
            at_least_once,
            metrics: SenderMetrics::default(),
        }
    }

    /// Counts into `telemetry`'s `replica.retransmissions`,
    /// `replica.batches_flushed` and `replica.batch_ops`.
    pub(crate) fn bind(&mut self, telemetry: &Telemetry) {
        self.metrics = SenderMetrics {
            retransmissions: telemetry.counter("replica.retransmissions"),
            batches_flushed: telemetry.counter("replica.batches_flushed"),
            batch_ops: telemetry.counter("replica.batch_ops"),
        };
    }

    /// The send log, for the snapshot image.
    pub(crate) fn at_least_once(&self) -> Option<&AtLeastOnce<Op>> {
        self.at_least_once.as_ref()
    }

    /// Keeps a send log for `peers` other than `site`. Idempotent and
    /// merging: registered peers keep their acknowledgements.
    pub(crate) fn enable_at_least_once(&mut self, site: SiteId, peers: &[SiteId]) {
        let alo = self.at_least_once.get_or_insert_with(|| AtLeastOnce {
            send_log: BTreeMap::new(),
            peer_acked: BTreeMap::new(),
        });
        for &peer in peers.iter().filter(|&&p| p != site) {
            alo.peer_acked.entry(peer).or_insert(0);
        }
    }

    /// `true` while the send log holds an op some peer has not acknowledged.
    pub(crate) fn has_unacked(&self) -> bool {
        self.at_least_once
            .as_ref()
            .is_some_and(|alo| !alo.send_log.is_empty())
    }

    /// Logs `msg`, stamped in `epoch`, for retransmission (no-op outside
    /// at-least-once mode).
    pub(crate) fn log(&mut self, epoch: u64, msg: &CausalMessage<Op>) {
        if let Some(alo) = self.at_least_once.as_mut() {
            alo.send_log.insert(msg.seq(), (epoch, msg.clone()));
        }
    }

    /// `true` when `peer` is registered and `acked` (its delivered count of
    /// our ops) advances its watermark; nothing else is worth a WAL record.
    pub(crate) fn ack_advances(&self, peer: SiteId, acked: u64) -> bool {
        self.at_least_once
            .as_ref()
            .and_then(|alo| alo.peer_acked.get(&peer))
            .is_some_and(|&current| acked > current)
    }

    /// Records `peer`'s cumulative acknowledgement of `acked` ops and prunes
    /// what every peer has now seen. Unregistered sites are ignored: the
    /// log is pruned against registered peers only.
    pub(crate) fn record_ack(&mut self, peer: SiteId, acked: u64) {
        let Some(alo) = self.at_least_once.as_mut() else {
            return;
        };
        if let Some(entry) = alo.peer_acked.get_mut(&peer) {
            *entry = (*entry).max(acked);
            let fully_acked = alo.peer_acked.values().copied().min().unwrap_or(0);
            alo.send_log = alo.send_log.split_off(&(fully_acked + 1));
        }
    }

    /// Clones every logged op `peer` has not acknowledged, in stamp order,
    /// counting them in `replica.retransmissions`.
    ///
    /// # Panics
    ///
    /// If `peer` is not registered: the log is pruned by the registered
    /// peers' acknowledgements alone, so a partial log would lose messages.
    #[allow(
        clippy::panic,
        reason = "the documented panic: a partial log would silently lose messages"
    )]
    pub(crate) fn unacked(&mut self, peer: SiteId) -> Vec<Entry<Op>> {
        let Some(alo) = self.at_least_once.as_ref() else {
            return Vec::new();
        };
        let Some(&acked) = alo.peer_acked.get(&peer) else {
            panic!("site {peer} is not a registered at-least-once peer");
        };
        let missing: Vec<Entry<Op>> = alo
            .send_log
            .range(acked + 1..)
            .map(|(_, entry)| entry.clone())
            .collect();
        self.metrics.retransmissions.add(missing.len() as u64);
        missing
    }

    /// The envelope `msg`, stamped in `epoch`, ships in (see the module
    /// docs).
    pub(crate) fn envelope(&mut self, epoch: u64, msg: CausalMessage<Op>) -> Envelope<Op> {
        let envelope = match &self.last {
            Some((prev_epoch, prev))
                if *prev_epoch == epoch && prev.seq().checked_add(1) == Some(msg.seq()) =>
            {
                Envelope::OpChained(ChainedOp::after(epoch, &msg, prev))
            }
            _ => Envelope::Op {
                epoch,
                msg: msg.clone(),
            },
        };
        self.last = Some((epoch, msg));
        envelope
    }

    /// The last op [`envelope`](Self::envelope) shipped, with its epoch.
    pub(crate) fn last(&self) -> Option<&Entry<Op>> {
        self.last.as_ref()
    }

    /// Starts batching under `policy`.
    pub(crate) fn enable_batching(&mut self, policy: BatchPolicy) {
        self.batcher = Some(Batcher {
            max_ops: policy.max_ops,
            pending: Vec::new(),
            pending_bytes: 0,
        });
    }

    /// `true` when batching is on.
    pub(crate) fn is_batching(&self) -> bool {
        self.batcher.is_some()
    }

    /// Buffers `msg`, stamped in `epoch`; returns the batch when it is due.
    pub(crate) fn batch(&mut self, epoch: u64, msg: CausalMessage<Op>) -> Option<Envelope<Op>> {
        let batcher = self.batcher.as_mut()?;
        let entry = (epoch, msg);
        batcher.pending_bytes += wire::batch_entry_bytes(&entry, batcher.pending.last());
        batcher.pending.push(entry);
        if batcher.pending.len() >= batcher.max_ops || batcher.pending_bytes >= MAX_BATCH_BYTES {
            self.flush()
        } else {
            None
        }
    }

    /// Emits whatever the batcher holds; `None` when it is empty or off.
    pub(crate) fn flush(&mut self) -> Option<Envelope<Op>> {
        let batcher = self.batcher.as_mut()?;
        if batcher.pending.is_empty() {
            return None;
        }
        batcher.pending_bytes = 0;
        let entries = std::mem::take(&mut batcher.pending);
        self.metrics.batches_flushed.inc();
        self.metrics.batch_ops.add(entries.len() as u64);
        Some(Envelope::OpBatch(OpBatch { entries }))
    }

    /// Operations buffered in the unflushed batch.
    pub(crate) fn pending_batch_len(&self) -> usize {
        self.batcher.as_ref().map_or(0, |b| b.pending.len())
    }
}

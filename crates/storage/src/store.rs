//! The per-replica durable store: WAL segments plus a ring of epoch
//! snapshots.
//!
//! [`DocStore`] owns the naming, recovery and compaction policy on top of a
//! [`StorageBackend`]:
//!
//! * **append** — frame a payload as a WAL record (tagged with the replica's
//!   flatten epoch) and append it to the *active segment* `wal-<seq>.log`;
//! * **checkpoint** — write a verified [`Snapshot`] under a fresh sequence
//!   number, rotate to the WAL segment of that sequence, and prune
//!   snapshots (and the segments of pruned snapshots) beyond the fallback
//!   window. The flatten commitment of §4.2.1 makes the committed epoch the
//!   natural compaction point: the replication layer checkpoints on every
//!   flatten commit, so the records a recovery would replay are only
//!   post-epoch ones;
//! * **recover** — load the newest snapshot that passes hash verification
//!   (falling back to older ones, counting the corrupt), then replay the
//!   WAL segments **at or after that snapshot's sequence**; torn tails are
//!   dropped and reported, and cut from the log, so records appended after
//!   the recovery extend the valid prefix instead of hiding behind the
//!   torn frame.
//!
//! Keying segments by snapshot sequence is what makes a checkpoint
//! crash-safe without cross-file atomicity: records older than the chosen
//! snapshot live in lower-sequence segments and are skipped wholesale, so a
//! crash *between* the snapshot write and the rotation can never cause
//! already-folded records to be replayed on top of the new snapshot (which
//! would double-apply operations and corrupt the recovered vector clock).
//!
//! **Names are learned once.** A store is the only writer of its
//! namespace, so it lists the backend exactly once, when it opens
//! ([`DocStore::new`], [`DocStore::with_group_wal`]), and from then on keeps
//! the set of its snapshot blobs (and private segments) current itself:
//! `append`, `checkpoint`, `recover`, `wal_entries`, `wal_len` and
//! `snapshot_epochs` never list. On a shard shared by many documents a
//! store's backend is a [`NamespacedBackend`](crate::NamespacedBackend),
//! whose one listing asks the shard for its own prefix only
//! ([`StorageBackend::list_prefix`]), so faulting one document in stays
//! independent of how many others the shard holds. A group-mode store has
//! no private `wal-*` segments and never looks for any.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::backend::{MemoryBackend, StorageBackend, StorageError};
use crate::group::GroupWal;
use crate::snapshot::Snapshot;
use crate::wal::{self, WalEntry, WalReplay};
use treedoc_telemetry::{Counter, Histogram, Telemetry, TraceEvent, Tracer};

/// Snapshots kept after a checkpoint: the new one plus this many fallbacks.
const SNAPSHOT_FALLBACKS: usize = 1;

/// What a [`DocStore::recover`] pass found and salvaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whether a valid snapshot was found.
    pub snapshot_hit: bool,
    /// Epoch of the recovered snapshot (0 when none).
    pub snapshot_epoch: u64,
    /// Snapshots that failed verification and were skipped.
    pub corrupt_snapshots_skipped: usize,
    /// WAL records replayed after the snapshot.
    pub wal_records: usize,
    /// Bytes recovered (snapshot body + valid WAL prefix).
    pub bytes_recovered: usize,
    /// WAL tail bytes dropped as torn or corrupt.
    pub torn_tail_bytes: usize,
}

/// The result of a recovery pass: the newest valid snapshot (if any), the
/// WAL tail to replay on top of it, and the accounting.
#[derive(Debug)]
pub struct Recovered {
    /// The newest snapshot that passed verification, with its epoch.
    pub snapshot: Option<(u64, Snapshot)>,
    /// Valid WAL records, in append order.
    pub wal: Vec<WalEntry>,
    /// What the pass found.
    pub stats: RecoveryStats,
}

/// Where a store's WAL records go: its own private segments, or a shard's
/// shared [`GroupWal`] (one queue, one segment write per flush, for every
/// document of the shard — see [`crate::group`]).
#[derive(Debug)]
enum WalSink {
    /// Private `wal-<seq>.log` segments in this store's own namespace.
    Private,
    /// The shard-wide group-commit WAL; `doc` tags this store's records.
    Group {
        /// Shared handle to the shard's WAL.
        wal: GroupWal,
        /// This document's identity inside the shared log.
        doc: String,
    },
}

/// Telemetry instruments of one store, resolved once at
/// [`DocStore::set_telemetry`] so the hot paths never touch the registry.
/// Defaults to the inert disabled handles. The counters are the store's
/// only tallies: `store.wal_appends` (records appended), `store.wal_bytes`
/// (their framed bytes), `store.snapshots_written` and
/// `store.wal_truncations` (checkpoints that actually retired log records —
/// one over an already-empty log does not count).
#[derive(Debug, Clone, Default)]
struct StoreMetrics {
    append_micros: Histogram,
    checkpoint_micros: Histogram,
    recover_micros: Histogram,
    wal_appends: Counter,
    wal_bytes: Counter,
    snapshots_written: Counter,
    wal_truncations: Counter,
    tracer: Tracer,
}

impl StoreMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        StoreMetrics {
            append_micros: telemetry.histogram("store.append_micros"),
            checkpoint_micros: telemetry.histogram("store.checkpoint_micros"),
            recover_micros: telemetry.histogram("store.recover_micros"),
            wal_appends: telemetry.counter("store.wal_appends"),
            wal_bytes: telemetry.counter("store.wal_bytes"),
            snapshots_written: telemetry.counter("store.snapshots_written"),
            wal_truncations: telemetry.counter("store.wal_truncations"),
            tracer: telemetry.tracer(),
        }
    }
}

/// A snapshot blob's name fields: `(sequence, epoch, group cursor)`.
type SnapshotName = (u64, u64, Option<u64>);

/// A replica's durable store over a pluggable backend.
#[derive(Debug)]
pub struct DocStore {
    backend: Box<dyn StorageBackend>,
    /// Where WAL records go (private segments or a shared group WAL).
    sink: WalSink,
    /// Snapshot blobs present, as `(sequence, epoch, group cursor)` sorted
    /// ascending by sequence: listed once at open, then kept current here.
    /// The cursor is `None` for private-mode snapshots (the plain
    /// `snap-<seq>-e<epoch>.img` names).
    snapshots: Vec<SnapshotName>,
    /// Private WAL segment sequences, ascending (empty in group mode):
    /// listed once at open, then kept current here. The active segment is
    /// recorded from the moment it is chosen, before its first append; a
    /// recorded segment with no blob yet reads as empty.
    segments: Vec<u64>,
    /// Sequence of the active WAL segment (always the sequence of the
    /// newest snapshot written, or 0 before the first checkpoint). In group
    /// mode there are no private segments and this stays put.
    active_segment: u64,
    /// Bytes in the active segment, tracked in memory so a checkpoint can
    /// tell whether it retires anything without re-reading the log. In
    /// group mode this counts bytes logged since the last checkpoint.
    active_segment_bytes: u64,
    next_snapshot_seq: u64,
    metrics: StoreMetrics,
}

impl DocStore {
    /// Opens a store over `backend`, continuing any snapshot/segment
    /// sequence already present (so reopening a directory keeps allocating
    /// fresh names and appends to the newest segment).
    pub fn new(backend: impl StorageBackend + 'static) -> Result<Self, StorageError> {
        let backend: Box<dyn StorageBackend> = Box::new(backend);
        let names = backend.list()?;
        let snapshots = snapshot_names(&names);
        let mut segments: Vec<u64> = names.iter().filter_map(|n| parse_wal_name(n)).collect();
        segments.sort_unstable();
        let newest_snapshot = snapshots.last().map(|&(s, ..)| s);
        let active_segment = newest_snapshot
            .unwrap_or(0)
            .max(segments.last().copied().unwrap_or(0));
        // A snapshot's sequence must be strictly greater than every segment
        // holding records it folds in, so the first checkpoint ever taken
        // gets sequence 1 (segment 0 is the pre-checkpoint log).
        let next_snapshot_seq = newest_snapshot
            .map(|s| s + 1)
            .unwrap_or(0)
            .max(active_segment + 1);
        let active_segment_bytes = backend
            .read(&wal_name(active_segment))?
            .map_or(0, |b| b.len() as u64);
        if segments.last() != Some(&active_segment) {
            segments.push(active_segment);
        }
        Ok(DocStore {
            backend,
            sink: WalSink::Private,
            snapshots,
            segments,
            active_segment,
            active_segment_bytes,
            next_snapshot_seq,
            metrics: StoreMetrics::default(),
        })
    }

    /// Opens a store whose WAL records go to a shard-shared [`GroupWal`]
    /// instead of private segments. `backend` is the document's own
    /// (namespaced) blob view — snapshots still live there — and `doc` is
    /// the identity tagging this store's records inside the shared log
    /// (the hosting node uses the namespace string). The document's replay
    /// cursor, embedded in its newest snapshot's name, is re-registered
    /// with the WAL so pruning can make progress.
    pub fn with_group_wal(
        backend: impl StorageBackend + 'static,
        wal: GroupWal,
        doc: &str,
    ) -> Result<Self, StorageError> {
        let backend: Box<dyn StorageBackend> = Box::new(backend);
        let snapshots = snapshot_names(&backend.list()?);
        let next_snapshot_seq = snapshots.last().map(|&(s, ..)| s + 1).unwrap_or(1);
        // Register the OLDEST retained snapshot's cursor: a recovery may
        // fall back past a corrupt newest snapshot and replay from the
        // fallback's older cursor, so segments past it must survive.
        let cursor = snapshots.first().and_then(|&(_, _, c)| c).unwrap_or(0);
        wal.register(doc, cursor);
        Ok(DocStore {
            backend,
            sink: WalSink::Group {
                wal,
                doc: doc.to_string(),
            },
            snapshots,
            segments: Vec::new(),
            active_segment: 0,
            active_segment_bytes: 0,
            next_snapshot_seq,
            metrics: StoreMetrics::default(),
        })
    }

    /// Points this store's instruments at `telemetry` (checkpoint/recover
    /// latency histograms, WAL counters, trace events). A disabled handle
    /// reverts them to no-ops.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = StoreMetrics::resolve(telemetry);
    }

    /// A store over a fresh in-memory backend (tests and the simulator's
    /// crash/restart fault).
    // An in-memory backend has no failing operation; a failure here is a
    // bug worth a loud stop, not an error every caller would unwrap anyway.
    #[allow(clippy::expect_used)]
    pub fn in_memory() -> Self {
        DocStore::new(MemoryBackend::new()).expect("memory backend cannot fail")
    }

    /// Epochs of the snapshots currently kept, oldest first.
    pub fn snapshot_epochs(&self) -> Result<Vec<u64>, StorageError> {
        Ok(self.snapshots.iter().map(|&(_, epoch, _)| epoch).collect())
    }

    /// The segments a recovery starting from snapshot sequence `from_seq`
    /// must replay, in order.
    fn segments_from(&self, from_seq: u64) -> Vec<u64> {
        let first = self.segments.partition_point(|&seq| seq < from_seq);
        self.segments[first..].to_vec()
    }

    /// Replays the given segments in order, concatenating their valid
    /// record prefixes. A fault inside a non-final segment stops the replay
    /// there: records beyond a corruption point are not trustworthy even if
    /// later segments look healthy.
    fn replay_segments(&self, segments: &[u64]) -> Result<WalReplay, StorageError> {
        let mut combined = WalReplay {
            entries: Vec::new(),
            valid_bytes: 0,
            dropped_bytes: 0,
            fault: None,
        };
        for (i, &seq) in segments.iter().enumerate() {
            let bytes = self.backend.read(&wal_name(seq))?.unwrap_or_default();
            let mut replay = wal::replay(&bytes);
            combined.entries.append(&mut replay.entries);
            combined.valid_bytes += replay.valid_bytes;
            combined.dropped_bytes += replay.dropped_bytes;
            if replay.fault.is_some() {
                combined.fault = replay.fault;
                // Count the untouched later segments as dropped too.
                for &later in &segments[i + 1..] {
                    combined.dropped_bytes +=
                        self.backend.read(&wal_name(later))?.map_or(0, |b| b.len());
                }
                break;
            }
        }
        Ok(combined)
    }

    /// The newest snapshot sequence present by name (validity not checked;
    /// used to scope diagnostics the way a recovery would).
    fn newest_snapshot_seq(&self) -> u64 {
        self.snapshots.last().map_or(0, |&(seq, ..)| seq)
    }

    /// The group-WAL replay cursor of the newest snapshot present (0 when
    /// there is none, or when running in private mode).
    fn newest_snapshot_cursor(&self) -> u64 {
        self.snapshots
            .last()
            .and_then(|&(_, _, cursor)| cursor)
            .unwrap_or(0)
    }

    /// Appends one WAL record carrying `payload`, tagged with the replica's
    /// current flatten `epoch` — to the active private segment, or (in
    /// group mode) to the shard's shared queue, where it becomes durable at
    /// the next group flush.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<(), StorageError> {
        let span = self.metrics.append_micros.start();
        let frame_len = match &self.sink {
            WalSink::Private => {
                let mut frame = Vec::with_capacity(wal::record_size(payload.len()));
                wal::append_record(&mut frame, epoch, payload);
                self.backend
                    .append(&wal_name(self.active_segment), &frame)?;
                frame.len() as u64
            }
            WalSink::Group { wal, doc } => {
                wal.enqueue(doc, epoch, payload);
                wal::record_size(payload.len()) as u64
            }
        };
        self.active_segment_bytes += frame_len;
        self.metrics.wal_appends.inc();
        self.metrics.wal_bytes.add(frame_len);
        span.stop();
        Ok(())
    }

    /// The decoded WAL a recovery would replay right now — the segments at
    /// or after the newest snapshot (diagnostics and the compaction
    /// assertions of the test suite). In group mode: this document's
    /// flushed records past its newest cursor.
    pub fn wal_entries(&self) -> Result<WalReplay, StorageError> {
        match &self.sink {
            WalSink::Private => {
                let segments = self.segments_from(self.newest_snapshot_seq());
                self.replay_segments(&segments)
            }
            WalSink::Group { wal, doc } => {
                let replay = wal.replay_for(doc, self.newest_snapshot_cursor())?;
                Ok(WalReplay {
                    valid_bytes: replay.bytes,
                    dropped_bytes: replay.torn_tail_bytes,
                    entries: replay.entries,
                    fault: None,
                })
            }
        }
    }

    /// Bytes of WAL a recovery would read right now (group mode: this
    /// document's flushed frame bytes past its newest cursor).
    pub fn wal_len(&self) -> Result<usize, StorageError> {
        match &self.sink {
            WalSink::Private => {
                let mut total = 0usize;
                for seq in self.segments_from(self.newest_snapshot_seq()) {
                    total += self.backend.read(&wal_name(seq))?.map_or(0, |b| b.len());
                }
                Ok(total)
            }
            WalSink::Group { wal, doc } => {
                Ok(wal.replay_for(doc, self.newest_snapshot_cursor())?.bytes)
            }
        }
    }

    /// Writes `snapshot` as the checkpoint for `epoch`, rotates to that
    /// checkpoint's WAL segment (every record in earlier segments is now
    /// folded into the snapshot) and prunes snapshots — plus the segments
    /// of pruned snapshots — beyond the fallback window.
    ///
    /// Crash-safety: the snapshot write is the commit point. A crash before
    /// it recovers from the previous snapshot plus the still-active old
    /// segment; a crash anywhere after it recovers from the new snapshot,
    /// and the old segments are skipped by sequence — no record is ever
    /// replayed on top of a snapshot that already contains it.
    pub fn checkpoint(&mut self, epoch: u64, snapshot: &Snapshot) -> Result<(), StorageError> {
        let span = self.metrics.checkpoint_micros.start();
        // Did this checkpoint actually retire log records (as opposed to a
        // back-to-back checkpoint over an empty log)?
        let retired = self.active_segment_bytes > 0;
        let seq = self.next_snapshot_seq;
        self.next_snapshot_seq += 1;
        let cursor = match &self.sink {
            WalSink::Private => None,
            WalSink::Group { wal, .. } => {
                // Flush first: the cursor stored in the snapshot name must
                // never cover a record a crash could still lose, or LSNs
                // assigned after a restart would hide behind it.
                wal.flush()?;
                Some(wal.watermark())
            }
        };
        let blob = snapshot.encode();
        let blob_len = blob.len() as u64;
        self.backend
            .write(&snapshot_blob_name(seq, epoch, cursor), &blob)?;
        self.active_segment = seq;
        self.active_segment_bytes = 0;
        if matches!(self.sink, WalSink::Private) {
            // `seq` is above every recorded segment: the order holds.
            self.segments.push(seq);
        }
        self.snapshots.push((seq, epoch, cursor));
        let pruned = self.snapshots.len().saturating_sub(1 + SNAPSHOT_FALLBACKS);
        if pruned > 0 {
            for &(old_seq, old_epoch, old_cursor) in &self.snapshots[..pruned] {
                self.backend
                    .remove(&snapshot_blob_name(old_seq, old_epoch, old_cursor))?;
            }
            self.snapshots.drain(..pruned);
            // Segments older than the oldest retained snapshot can never be
            // replayed again (every recovery starts at a retained snapshot).
            let oldest_retained = self.snapshots.first().map_or(seq, |&(s, ..)| s);
            let dead = self.segments.partition_point(|&s| s < oldest_retained);
            for &old in &self.segments[..dead] {
                self.backend.remove(&wal_name(old))?;
            }
            self.segments.drain(..dead);
        }
        if let (WalSink::Group { wal, doc }, Some(cursor)) = (&self.sink, cursor) {
            // Group segments are shared: they are pruned by cursor floor,
            // not by snapshot sequence. A recovery falling back past the
            // newest snapshot replays from the FALLBACK's (older) cursor,
            // so only that oldest retained cursor may advance the floor.
            let oldest_retained_cursor = self
                .snapshots
                .first()
                .and_then(|&(_, _, c)| c)
                .unwrap_or(cursor);
            wal.note_checkpoint(doc, oldest_retained_cursor)?;
        }
        let micros = span.stop();
        self.metrics.snapshots_written.inc();
        if retired {
            self.metrics.wal_truncations.inc();
        }
        self.metrics.tracer.record_with(|| TraceEvent {
            epoch,
            bytes: blob_len,
            micros,
            ..TraceEvent::of("store.checkpoint")
        });
        Ok(())
    }

    /// Loads the newest snapshot that passes verification (skipping and
    /// counting corrupt ones) and replays the WAL segments at or after its
    /// sequence. A store with no snapshot at all yields `snapshot: None`
    /// and every segment.
    ///
    /// A torn or corrupt tail is reported in the stats and cut from the
    /// private WAL before this returns (the faulty segment keeps its valid
    /// prefix, later segments go), so the next [`append`](Self::append)
    /// extends exactly the records recovered here.
    pub fn recover(&mut self) -> Result<Recovered, StorageError> {
        let span = self.metrics.recover_micros.start();
        let mut stats = RecoveryStats::default();
        let mut snapshot = None;
        let mut from_seq = 0u64;
        let mut from_cursor = 0u64;
        for &(seq, epoch, cursor) in self.snapshots.iter().rev() {
            let Some(bytes) = self.backend.read(&snapshot_blob_name(seq, epoch, cursor))? else {
                continue;
            };
            match Snapshot::decode(&bytes) {
                Ok(decoded) => {
                    stats.snapshot_hit = true;
                    stats.snapshot_epoch = epoch;
                    stats.bytes_recovered += bytes.len();
                    snapshot = Some((epoch, decoded));
                    from_seq = seq;
                    from_cursor = cursor.unwrap_or(0);
                    break;
                }
                Err(_) => stats.corrupt_snapshots_skipped += 1,
            }
        }
        let replay = match &self.sink {
            WalSink::Private => {
                let segments = self.segments_from(from_seq);
                let replay = self.replay_segments(&segments)?;
                if replay.fault.is_some() {
                    self.drop_torn_tail(&segments)?;
                }
                replay
            }
            WalSink::Group { wal, doc } => {
                let group = wal.replay_for(doc, from_cursor)?;
                WalReplay {
                    valid_bytes: group.bytes,
                    dropped_bytes: group.torn_tail_bytes,
                    entries: group.entries,
                    fault: None,
                }
            }
        };
        stats.wal_records = replay.entries.len();
        stats.bytes_recovered += replay.valid_bytes;
        stats.torn_tail_bytes = replay.dropped_bytes;
        let micros = span.stop();
        self.metrics.tracer.record_with(|| TraceEvent {
            epoch: stats.snapshot_epoch,
            bytes: stats.bytes_recovered as u64,
            micros,
            ..TraceEvent::of("store.recover")
        });
        Ok(Recovered {
            snapshot,
            wal: replay.entries,
            stats,
        })
    }
}

impl DocStore {
    /// Cuts the private WAL back to the valid prefix a recovery replayed:
    /// the first faulty segment among `segments` keeps its valid records and
    /// every later one is removed (its records were dropped with the
    /// fault). Left in place, the torn bytes would stop the next recovery
    /// before every record appended after this one.
    ///
    /// The later segments go first, newest first, and the faulty one is cut
    /// last: a crash at any step leaves the fault in place ahead of whatever
    /// later records remain, so the next recovery still stops at it and
    /// never replays across the gap.
    fn drop_torn_tail(&mut self, segments: &[u64]) -> Result<(), StorageError> {
        let mut faulty = None;
        for (at, &seq) in segments.iter().enumerate() {
            let bytes = self.backend.read(&wal_name(seq))?.unwrap_or_default();
            let replay = wal::replay(&bytes);
            if replay.fault.is_some() {
                faulty = Some((at, bytes, replay.valid_bytes));
                break;
            }
        }
        let Some((at, bytes, valid_bytes)) = faulty else {
            return Ok(());
        };
        for &later in segments[at + 1..].iter().rev() {
            self.backend.remove(&wal_name(later))?;
        }
        // The removed segments are forgotten, except the active one: it
        // stays recorded for the appends that recreate it.
        let (faulty_seq, active) = (segments[at], self.active_segment);
        self.segments
            .retain(|&seq| seq <= faulty_seq || seq == active);
        self.backend
            .write(&wal_name(segments[at]), &bytes[..valid_bytes])?;
        self.active_segment_bytes = self
            .backend
            .read(&wal_name(self.active_segment))?
            .map_or(0, |b| b.len() as u64);
        Ok(())
    }
}

/// Private-mode snapshot name (kept stable across releases).
fn snapshot_name(seq: u64, epoch: u64) -> String {
    format!("snap-{seq:012}-e{epoch}.img")
}

/// Snapshot blob name; group-mode snapshots carry the document's replay
/// cursor as a `-c<lsn>` suffix, making the cursor durable atomically with
/// the snapshot itself (the checkpoint commit point) — no separate cursor
/// blob, no cross-file atomicity to get wrong.
fn snapshot_blob_name(seq: u64, epoch: u64, cursor: Option<u64>) -> String {
    match cursor {
        None => snapshot_name(seq, epoch),
        Some(c) => format!("snap-{seq:012}-e{epoch}-c{c}.img"),
    }
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:012}.log")
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The snapshot blobs among `names`, sorted ascending by sequence.
fn snapshot_names(names: &[String]) -> Vec<SnapshotName> {
    let mut found: Vec<SnapshotName> = names
        .iter()
        .filter_map(|n| parse_snapshot_name(n))
        .collect();
    found.sort_unstable();
    found
}

fn parse_snapshot_name(name: &str) -> Option<SnapshotName> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".img")?;
    let (seq, epoch_part) = rest.split_once("-e")?;
    let (epoch, cursor) = match epoch_part.split_once("-c") {
        Some((epoch, cursor)) => (epoch, Some(cursor.parse().ok()?)),
        None => (epoch_part, None),
    };
    Some((seq.parse().ok()?, epoch.parse().ok()?, cursor))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::backend::SharedBackend;

    fn snapshot_with(tag: &str) -> Snapshot {
        let mut s = Snapshot::new();
        s.push_section("replica", tag.as_bytes().to_vec());
        s
    }

    #[test]
    fn append_then_recover_replays_everything() {
        let registry = treedoc_telemetry::Registry::new();
        let mut store = DocStore::in_memory();
        store.set_telemetry(&registry.handle());
        for i in 0..5u64 {
            store.append(0, format!("op {i}").as_bytes()).unwrap();
        }
        let recovered = store.recover().unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.wal.len(), 5);
        assert_eq!(recovered.stats.wal_records, 5);
        assert!(!recovered.stats.snapshot_hit);
        assert_eq!(recovered.stats.torn_tail_bytes, 0);
        assert_eq!(registry.snapshot().counter("store.wal_appends"), Some(5));
    }

    #[test]
    fn checkpoint_truncates_the_wal() {
        let registry = treedoc_telemetry::Registry::new();
        let mut store = DocStore::in_memory();
        store.set_telemetry(&registry.handle());
        store.append(0, b"pre-epoch").unwrap();
        store.append(0, b"also pre").unwrap();
        store.checkpoint(1, &snapshot_with("epoch-1")).unwrap();
        // A back-to-back checkpoint over the now-empty log retires nothing.
        store.checkpoint(1, &snapshot_with("epoch-1")).unwrap();
        assert_eq!(store.wal_len().unwrap(), 0);
        store.append(1, b"post-epoch").unwrap();

        let recovered = store.recover().unwrap();
        let (epoch, snapshot) = recovered.snapshot.expect("snapshot present");
        assert_eq!(epoch, 1);
        assert_eq!(snapshot.section("replica").unwrap(), b"epoch-1");
        assert_eq!(recovered.wal.len(), 1);
        assert!(recovered.wal.iter().all(|e| e.epoch >= 1));
        let counters = registry.snapshot();
        assert_eq!(counters.counter("store.snapshots_written"), Some(2));
        assert_eq!(counters.counter("store.wal_truncations"), Some(1));
    }

    #[test]
    fn newest_valid_snapshot_wins_and_old_ones_are_pruned() {
        let mut store = DocStore::in_memory();
        for epoch in 1..=4u64 {
            store
                .checkpoint(epoch, &snapshot_with(&format!("e{epoch}")))
                .unwrap();
        }
        // Only the newest plus the fallback window survive.
        assert_eq!(store.snapshot_epochs().unwrap(), vec![3, 4]);
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.snapshot.unwrap().0, 4);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_the_previous() {
        let mut backend = MemoryBackend::new();
        backend
            .write(&snapshot_name(0, 1), &snapshot_with("good").encode())
            .unwrap();
        let mut bad = snapshot_with("newer").encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        backend.write(&snapshot_name(1, 2), &bad).unwrap();

        let mut store = DocStore::new(backend).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.stats.corrupt_snapshots_skipped, 1);
        let (epoch, snapshot) = recovered.snapshot.unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(snapshot.section("replica").unwrap(), b"good");
    }

    #[test]
    fn torn_wal_tail_is_dropped_and_counted() {
        let mut store = DocStore::in_memory();
        store.append(0, b"whole record").unwrap();
        store.append(0, b"torn record").unwrap();
        // Simulate the crash mid-append by rewriting a truncated WAL.
        let mut log = Vec::new();
        wal::append_record(&mut log, 0, b"whole record");
        let mut torn = log.clone();
        wal::append_record(&mut torn, 0, b"torn record");
        torn.truncate(log.len() + 7);
        let mut backend = MemoryBackend::new();
        backend.write(&wal_name(0), &torn).unwrap();
        let mut store = DocStore::new(backend).unwrap();

        let recovered = store.recover().unwrap();
        assert_eq!(recovered.wal.len(), 1);
        assert_eq!(recovered.wal[0].payload, b"whole record");
        assert_eq!(recovered.stats.torn_tail_bytes, 7);
    }

    #[test]
    fn records_appended_after_a_torn_tail_survive_the_next_recovery() {
        let backend = SharedBackend::in_memory();
        let mut store = DocStore::new(backend.clone()).unwrap();
        store.append(0, b"whole record").unwrap();
        store.append(0, b"torn record").unwrap();
        let mut log = backend.read(&wal_name(0)).unwrap().unwrap();
        log.truncate(log.len() - 4);
        backend.clone().write(&wal_name(0), &log).unwrap();

        let mut store = DocStore::new(backend.clone()).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.wal.len(), 1);
        assert!(recovered.stats.torn_tail_bytes > 0);
        store.append(0, b"after the tear").unwrap();

        let recovered = DocStore::new(backend).unwrap().recover().unwrap();
        let payloads: Vec<&[u8]> = recovered.wal.iter().map(|e| &e.payload[..]).collect();
        assert_eq!(payloads, [&b"whole record"[..], b"after the tear"]);
        assert_eq!(recovered.stats.torn_tail_bytes, 0);
    }

    #[test]
    fn a_fault_in_an_older_segment_drops_the_later_ones_for_good() {
        // A fallback recovery (newest snapshot corrupt) stops at a fault in
        // the older segment; the newer segment's records were dropped with
        // it and must not resurface once new records follow.
        let backend = SharedBackend::in_memory();
        let mut store = DocStore::new(backend.clone()).unwrap();
        store.checkpoint(0, &snapshot_with("old")).unwrap();
        store.append(0, b"kept").unwrap();
        store.append(0, b"torn").unwrap();
        store.checkpoint(1, &snapshot_with("new")).unwrap();
        store.append(1, b"dropped").unwrap();
        let old_segment = wal_name(1);
        let mut log = backend.read(&old_segment).unwrap().unwrap();
        log.truncate(log.len() - 2);
        backend.clone().write(&old_segment, &log).unwrap();
        let newest = backend
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("snap-"))
            .max()
            .unwrap();
        backend.clone().write(&newest, b"garbage").unwrap();

        let mut store = DocStore::new(backend.clone()).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.wal.len(), 1);
        store.append(1, b"after").unwrap();
        let payloads = |recovered: Recovered| -> Vec<Vec<u8>> {
            recovered.wal.into_iter().map(|e| e.payload).collect()
        };
        // The cut removed the active segment's blob, but the store still
        // tracks the segment, so its own next recovery finds the append.
        assert_eq!(payloads(store.recover().unwrap()), [&b"kept"[..], b"after"]);
        let recovered = DocStore::new(backend).unwrap().recover().unwrap();
        assert_eq!(payloads(recovered), [&b"kept"[..], b"after"]);
    }

    /// A backend that crashes at its first blob write (`at_write`) or its
    /// first removal: that call fails, and so does every later one.
    #[derive(Debug)]
    struct Crashing {
        inner: SharedBackend,
        at_write: bool,
        crashed: bool,
    }

    impl StorageBackend for Crashing {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
            self.inner.read(name)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.crashed |= self.at_write;
            if self.crashed {
                return Err(StorageError::new("crashed"));
            }
            self.inner.write(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            if self.crashed {
                return Err(StorageError::new("crashed"));
            }
            self.inner.append(name, bytes)
        }
        fn remove(&mut self, name: &str) -> Result<(), StorageError> {
            self.crashed |= !self.at_write;
            if self.crashed {
                return Err(StorageError::new("crashed"));
            }
            self.inner.remove(name)
        }
        fn list(&self) -> Result<Vec<String>, StorageError> {
            self.inner.list()
        }
    }

    #[test]
    fn a_crash_while_cutting_a_torn_tail_never_replays_across_the_fault() {
        // The fault sits in an older segment (the newest snapshot is
        // corrupt, so recovery falls back past it); cutting the tail
        // removes the newer segment and cuts the faulty one. A crash at
        // either step must leave a store whose next recovery still stops
        // at the fault, never one that replays the newer segment's record
        // after a clean cut.
        for at_write in [false, true] {
            let backend = SharedBackend::in_memory();
            let mut store = DocStore::new(backend.clone()).unwrap();
            store.checkpoint(0, &snapshot_with("old")).unwrap();
            store.append(0, b"kept").unwrap();
            store.append(0, b"torn").unwrap();
            store.checkpoint(1, &snapshot_with("new")).unwrap();
            store.append(1, b"dropped").unwrap();
            let old_segment = wal_name(1);
            let mut log = backend.read(&old_segment).unwrap().unwrap();
            log.truncate(log.len() - 2);
            backend.clone().write(&old_segment, &log).unwrap();
            let newest = backend
                .list()
                .unwrap()
                .into_iter()
                .filter(|n| n.starts_with("snap-"))
                .max()
                .unwrap();
            backend.clone().write(&newest, b"garbage").unwrap();

            let crashing = Crashing {
                inner: backend.clone(),
                at_write,
                crashed: false,
            };
            let mut store = DocStore::new(crashing).unwrap();
            assert!(store.recover().is_err(), "the cut crashed");

            let mut store = DocStore::new(backend.clone()).unwrap();
            let recovered = store.recover().unwrap();
            let payloads: Vec<&[u8]> = recovered.wal.iter().map(|e| &e.payload[..]).collect();
            assert_eq!(payloads, [&b"kept"[..]], "crash at write: {at_write}");
            assert!(recovered.stats.torn_tail_bytes > 0);
            store.append(1, b"after").unwrap();
            let recovered = DocStore::new(backend).unwrap().recover().unwrap();
            let payloads: Vec<&[u8]> = recovered.wal.iter().map(|e| &e.payload[..]).collect();
            assert_eq!(payloads, [&b"kept"[..], b"after"]);
        }
    }

    #[test]
    fn crash_between_snapshot_write_and_rotation_never_replays_folded_records() {
        // The checkpoint commit point is the snapshot write; everything
        // after it (segment rotation, pruning) may be lost to a crash. A
        // store left with the NEW snapshot and the OLD pre-checkpoint
        // segment must not replay those already-folded records on top of
        // the snapshot — they live in a lower-sequence segment and are
        // skipped wholesale.
        let mut pre_wal = Vec::new();
        wal::append_record(&mut pre_wal, 0, b"already folded into the snapshot");
        let mut backend = MemoryBackend::new();
        backend.write(&wal_name(0), &pre_wal).unwrap();
        backend
            .write(&snapshot_name(1, 1), &snapshot_with("epoch-1").encode())
            .unwrap();

        let mut store = DocStore::new(backend).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().0, 1);
        assert!(
            recovered.wal.is_empty(),
            "pre-checkpoint records must not be replayed: {recovered:?}"
        );

        // And appends after the reopen land in the snapshot's segment, so
        // they DO replay.
        let mut store = store;
        store.append(1, b"after the crash").unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.wal.len(), 1);
        assert_eq!(recovered.wal[0].payload, b"after the crash");
    }

    #[test]
    fn fallback_recovery_replays_both_surviving_segments_in_order() {
        // Newest snapshot corrupt: recovery falls back to the previous one
        // and must replay the fallback's segment followed by the newest
        // segment — the full redo chain from the older state.
        let mut seg1 = Vec::new();
        wal::append_record(&mut seg1, 0, b"between the snapshots");
        let mut seg2 = Vec::new();
        wal::append_record(&mut seg2, 0, b"after the newest");
        let mut bad = snapshot_with("newest").encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let mut backend = MemoryBackend::new();
        backend
            .write(&snapshot_name(1, 0), &snapshot_with("older-good").encode())
            .unwrap();
        backend.write(&wal_name(1), &seg1).unwrap();
        backend.write(&snapshot_name(2, 0), &bad).unwrap();
        backend.write(&wal_name(2), &seg2).unwrap();

        let mut store = DocStore::new(backend).unwrap();
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.stats.corrupt_snapshots_skipped, 1);
        assert_eq!(
            recovered.snapshot.as_ref().unwrap().1.section("replica"),
            Some(&b"older-good"[..])
        );
        assert_eq!(
            recovered
                .wal
                .iter()
                .map(|e| e.payload.as_slice())
                .collect::<Vec<_>>(),
            vec![&b"between the snapshots"[..], &b"after the newest"[..]],
            "redo chain spans both segments in order"
        );
    }

    #[test]
    fn reopening_continues_the_snapshot_sequence() {
        let mut backend = MemoryBackend::new();
        {
            let mut store = DocStore::new(backend.clone()).unwrap();
            store.checkpoint(1, &snapshot_with("first")).unwrap();
            // Clone back the mutated state (MemoryBackend is by-value).
            for name in store.backend.list().unwrap() {
                let bytes = store.backend.read(&name).unwrap().unwrap();
                backend.write(&name, &bytes).unwrap();
            }
        }
        let mut store = DocStore::new(backend).unwrap();
        store.checkpoint(2, &snapshot_with("second")).unwrap();
        assert_eq!(store.snapshot_epochs().unwrap(), vec![1, 2]);
    }

    /// A memory backend that counts `list` calls.
    #[derive(Debug)]
    struct Listing {
        inner: SharedBackend,
        lists: Arc<AtomicUsize>,
    }

    impl StorageBackend for Listing {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
            self.inner.read(name)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.write(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.append(name, bytes)
        }
        fn remove(&mut self, name: &str) -> Result<(), StorageError> {
            self.inner.remove(name)
        }
        fn list(&self) -> Result<Vec<String>, StorageError> {
            self.lists.fetch_add(1, Ordering::Relaxed);
            self.inner.list()
        }
    }

    #[test]
    fn a_store_lists_its_namespace_once_and_tracks_its_names_itself() {
        let backend = SharedBackend::in_memory();
        let lists = Arc::default();
        let listing = || Listing {
            inner: backend.clone(),
            lists: Arc::clone(&lists),
        };
        let count = || lists.load(Ordering::Relaxed);
        let mut store = DocStore::new(listing()).unwrap();
        assert_eq!(count(), 1);
        for epoch in 1..=4u64 {
            store.append(epoch, b"record").unwrap();
            store
                .checkpoint(epoch, &snapshot_with(&format!("e{epoch}")))
                .unwrap();
        }
        store.append(4, b"tail").unwrap();
        assert_eq!(store.snapshot_epochs().unwrap(), vec![3, 4]);
        assert_eq!(store.wal_entries().unwrap().entries.len(), 1);
        assert!(store.wal_len().unwrap() > 0);
        assert_eq!(store.recover().unwrap().wal.len(), 1);
        assert_eq!(count(), 1, "only the open listed");
        // What the store tracked is what the backend holds.
        let mut held: Vec<String> = backend.list().unwrap();
        held.sort();
        assert_eq!(
            held,
            [
                "snap-000000000003-e3.img",
                "snap-000000000004-e4.img",
                "wal-000000000003.log",
                "wal-000000000004.log",
            ]
        );
        // A reopened store learns the same names with one more list.
        let mut reopened = DocStore::new(listing()).unwrap();
        assert_eq!(reopened.recover().unwrap().wal.len(), 1);
        assert_eq!(count(), 2);
    }

    #[test]
    fn snapshot_names_round_trip() {
        assert_eq!(
            parse_snapshot_name(&snapshot_name(7, 3)),
            Some((7, 3, None))
        );
        assert_eq!(
            parse_snapshot_name(&snapshot_blob_name(7, 3, Some(42))),
            Some((7, 3, Some(42)))
        );
        assert_eq!(parse_snapshot_name("wal.log"), None);
        assert_eq!(parse_snapshot_name("snap-xx-e1.img"), None);
        assert_eq!(parse_snapshot_name("snap-000000000007-e3-cxx.img"), None);
    }

    mod group_mode {
        use super::*;
        use crate::backend::{NamespacedBackend, SharedBackend};
        use crate::group::GroupWal;

        fn shard() -> (SharedBackend, GroupWal) {
            let backend = SharedBackend::in_memory();
            let wal = GroupWal::open(backend.clone()).unwrap();
            (backend, wal)
        }

        fn doc_store(backend: &SharedBackend, wal: &GroupWal, ns: &str) -> DocStore {
            let view = NamespacedBackend::new(backend.clone(), ns).unwrap();
            DocStore::with_group_wal(view, wal.clone(), ns).unwrap()
        }

        #[test]
        fn group_recover_replays_only_this_documents_records() {
            let (backend, wal) = shard();
            let mut a = doc_store(&backend, &wal, "a");
            let mut b = doc_store(&backend, &wal, "b");
            a.append(0, b"a-one").unwrap();
            b.append(0, b"b-one").unwrap();
            a.append(0, b"a-two").unwrap();
            wal.flush().unwrap();

            let rec = a.recover().unwrap();
            assert_eq!(
                rec.wal
                    .iter()
                    .map(|e| e.payload.as_slice())
                    .collect::<Vec<_>>(),
                vec![&b"a-one"[..], &b"a-two"[..]]
            );
            assert_eq!(b.recover().unwrap().wal.len(), 1);
        }

        #[test]
        fn group_checkpoint_sets_a_cursor_that_survives_reopen() {
            let (backend, wal) = shard();
            let mut store = doc_store(&backend, &wal, "d");
            store.append(0, b"folded").unwrap();
            store.checkpoint(1, &snapshot_with("ck")).unwrap();
            store.append(1, b"tail").unwrap();
            wal.flush().unwrap();

            // Reopen the shard cold, as a node restart would.
            let wal2 = GroupWal::open(backend.clone()).unwrap();
            let mut store2 = doc_store(&backend, &wal2, "d");
            let rec = store2.recover().unwrap();
            assert_eq!(rec.snapshot.unwrap().0, 1);
            assert_eq!(rec.wal.len(), 1, "only the post-checkpoint tail");
            assert_eq!(rec.wal[0].payload, b"tail");
        }

        #[test]
        fn group_checkpoint_flushes_the_queue_first() {
            let (backend, wal) = shard();
            let mut store = doc_store(&backend, &wal, "d");
            store.append(0, b"queued").unwrap();
            assert_eq!(wal.pending_records(), 1);
            store.checkpoint(1, &snapshot_with("ck")).unwrap();
            assert_eq!(wal.pending_records(), 0, "checkpoint durably flushed");
            assert!(wal.watermark() >= 1);
        }

        #[test]
        fn group_wal_len_tracks_the_unfolded_tail() {
            let (backend, wal) = shard();
            let mut store = doc_store(&backend, &wal, "d");
            store.append(0, b"one").unwrap();
            wal.flush().unwrap();
            assert!(store.wal_len().unwrap() > 0);
            store.checkpoint(1, &snapshot_with("ck")).unwrap();
            assert_eq!(store.wal_len().unwrap(), 0);
        }
    }
}

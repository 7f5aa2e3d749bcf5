//! The cross-document group-commit WAL.
//!
//! A hosting node journals for *many* documents at once. Giving every
//! document its own WAL segment makes each logged record one backend
//! `append` — one segment write, and on a real directory one fsync — so a
//! node hosting N busy documents pays N times the write rate of the traffic
//! it actually carries. [`GroupWal`] is the classic fix (group commit): all
//! documents of a shard share **one** append queue, and a `flush` writes the
//! whole queue into the shared segment with a single backend `append`.
//!
//! Records are framed exactly like the private WAL of [`crate::wal`], with a
//! group header inside the payload:
//!
//! ```text
//! payload = varint(lsn) ++ varint(len(doc)) ++ doc ++ inner-payload
//! ```
//!
//! * the **LSN** is a global, monotonically increasing sequence number over
//!   the whole shard;
//! * **doc** is the owning document's namespace, so replay can hand every
//!   record to exactly one document;
//! * the inner payload is whatever the document's store appended (the
//!   replication layer's serialised `WalRecord`s).
//!
//! **Per-document replay cursors.** A document checkpoint folds everything
//! the document has logged into its snapshot; the group segments, shared
//! with other documents, cannot be truncated for it. Instead the checkpoint
//! stores the shard watermark (the highest flushed LSN) as the document's
//! *cursor*, durably embedded in the snapshot blob's name (see
//! [`crate::store`]), and recovery replays only this document's records with
//! `lsn > cursor` — so recovering one document never replays another's
//! records, and never double-applies its own folded ones.
//!
//! **Durability boundary.** Queued records are not durable until `flush`;
//! the embedding node flushes at its commit boundaries (and every checkpoint
//! flushes first, so a durable cursor never covers an unflushed LSN — which
//! is what keeps LSNs monotone across a crash that loses the queue).
//!
//! **Pruning.** A flushed segment can be deleted once every record in it is
//! folded into its document's snapshot. The conservative rule used here: the
//! *floor* is the smallest cursor among documents that still have unfolded
//! records (documents whose last record is already folded don't constrain
//! anything); any non-active segment whose highest LSN is at or under the
//! floor is unreferenced by every possible recovery and is removed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use treedoc_core::codec::{get_bytes, get_varint, put_bytes, put_varint};
use treedoc_telemetry::{Counter, Histogram, Telemetry, TraceEvent, Tracer};

use crate::backend::{SharedBackend, StorageBackend, StorageError};
use crate::wal::{self, WalEntry};

/// Rotate the active group segment once it exceeds this many bytes (checked
/// at flush, so one oversized flush still lands in one segment).
const DEFAULT_ROTATE_BYTES: u64 = 1 << 20;

/// Lifetime counters of a [`GroupWal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupWalStats {
    /// Records enqueued.
    pub records: u64,
    /// Flushes that actually wrote (each is exactly one backend segment
    /// append — the number group commit exists to shrink).
    pub segment_writes: u64,
    /// Bytes appended to segments (framing included).
    pub bytes: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Segments deleted by cursor-based pruning.
    pub pruned_segments: u64,
}

/// What a per-document replay pass found.
#[derive(Debug, Clone, Default)]
pub struct GroupReplay {
    /// This document's records with `lsn > cursor`, in LSN order.
    pub entries: Vec<WalEntry>,
    /// Frame bytes belonging to this document's replayed records.
    pub bytes: usize,
    /// Tail bytes dropped as torn or corrupt (shard-wide, not per-document).
    pub torn_tail_bytes: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct DocMark {
    /// Highest LSN folded into this document's newest snapshot.
    folded: u64,
    /// Highest LSN ever assigned to this document.
    last: u64,
}

/// Telemetry instruments of one shard's group WAL. Inert by default; bound
/// by [`GroupWal::set_telemetry`].
#[derive(Debug, Clone, Default)]
struct GroupMetrics {
    enqueue_micros: Histogram,
    flush_micros: Histogram,
    flush_records: Counter,
    pruned_segments: Counter,
    tracer: Tracer,
}

impl GroupMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        GroupMetrics {
            enqueue_micros: telemetry.histogram("gwal.enqueue_micros"),
            flush_micros: telemetry.histogram("gwal.flush_micros"),
            flush_records: telemetry.counter("gwal.flush_records"),
            pruned_segments: telemetry.counter("gwal.pruned_segments"),
            tracer: telemetry.tracer(),
        }
    }
}

#[derive(Debug)]
struct GroupInner {
    backend: SharedBackend,
    /// Framed records awaiting the next flush.
    queue: Vec<u8>,
    queued_records: u64,
    next_lsn: u64,
    active_segment: u64,
    active_segment_bytes: u64,
    rotate_bytes: u64,
    /// Flushed segments and the highest LSN each holds.
    segments: BTreeMap<u64, u64>,
    /// The segment whose torn or corrupt tail [`GroupWal::open`] cut, with
    /// the bytes cut: replays that read the segment still report them.
    cut_tail: Option<(u64, usize)>,
    /// Every document seen (enqueued, registered or discovered at open).
    docs: BTreeMap<String, DocMark>,
    stats: GroupWalStats,
    metrics: GroupMetrics,
}

/// A cloneable handle to one shard's shared group-commit WAL. All methods
/// take `&self`; the handle is freely shared between the document stores of
/// a shard.
#[derive(Debug, Clone)]
pub struct GroupWal {
    inner: Arc<Mutex<GroupInner>>,
}

fn segment_name(seq: u64) -> String {
    format!("gwal-{seq:012}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("gwal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Builds the group payload: `varint(lsn) ++ bytes(doc) ++ payload`.
fn group_payload(lsn: u64, doc: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + doc.len() + 12);
    put_varint(&mut out, lsn);
    put_bytes(&mut out, doc.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits a group payload back into `(lsn, doc, inner payload)`.
fn split_payload(payload: &[u8]) -> Option<(u64, &str, &[u8])> {
    let mut input = payload;
    let lsn = get_varint(&mut input)?;
    let doc = std::str::from_utf8(get_bytes(&mut input)?).ok()?;
    Some((lsn, doc, input))
}

impl GroupWal {
    /// Opens (or re-opens) the shard's group WAL over `backend`: existing
    /// `gwal-*.log` segments are scanned to restore the LSN counter, the
    /// segment map and each document's highest LSN. Cursors are *not* stored
    /// here — they live in the documents' snapshot names and are re-learned
    /// as each document store registers (until then pruning stays
    /// conservative).
    ///
    /// A torn or corrupt tail is cut: the segments after the faulty one go
    /// first, newest first, then the faulty one is cut to its valid prefix,
    /// so records flushed from here on extend exactly the records a replay
    /// reads (a crash mid-cut leaves the fault ahead of whatever remains).
    pub fn open(mut backend: SharedBackend) -> Result<Self, StorageError> {
        let mut segments = BTreeMap::new();
        let mut docs: BTreeMap<String, DocMark> = BTreeMap::new();
        let mut max_lsn = 0u64;
        let mut seqs: Vec<u64> = backend
            .list()?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        seqs.sort_unstable();
        let mut cut_tail = None;
        for (at, &seq) in seqs.iter().enumerate() {
            let bytes = backend.read(&segment_name(seq))?.unwrap_or_default();
            let replay = wal::replay(&bytes);
            let mut seg_max = 0u64;
            for entry in &replay.entries {
                if let Some((lsn, doc, _)) = split_payload(&entry.payload) {
                    seg_max = seg_max.max(lsn);
                    max_lsn = max_lsn.max(lsn);
                    let mark = docs.entry(doc.to_string()).or_default();
                    mark.last = mark.last.max(lsn);
                }
            }
            segments.insert(seq, seg_max);
            if replay.fault.is_some() {
                // Records past a fault are untrustworthy; the LSN counter
                // restarts above everything *valid*, which is also
                // everything any durable cursor can reference.
                for &later in seqs[at + 1..].iter().rev() {
                    backend.remove(&segment_name(later))?;
                }
                backend.write(&segment_name(seq), &bytes[..replay.valid_bytes])?;
                cut_tail = Some((seq, replay.dropped_bytes));
                break;
            }
        }
        let active_segment = segments.keys().next_back().copied().unwrap_or(0);
        let active_segment_bytes = backend
            .read(&segment_name(active_segment))?
            .map_or(0, |b| b.len() as u64);
        Ok(GroupWal {
            inner: Arc::new(Mutex::new(GroupInner {
                backend,
                queue: Vec::new(),
                queued_records: 0,
                next_lsn: max_lsn + 1,
                active_segment,
                active_segment_bytes,
                rotate_bytes: DEFAULT_ROTATE_BYTES,
                segments,
                cut_tail,
                docs,
                stats: GroupWalStats::default(),
                metrics: GroupMetrics::default(),
            })),
        })
    }

    /// A group WAL over a fresh in-memory backend (tests).
    pub fn in_memory() -> Self {
        GroupWal::open(SharedBackend::in_memory()).expect("memory backend cannot fail")
    }

    /// Overrides the segment-rotation threshold (bytes).
    pub fn set_rotate_bytes(&self, bytes: u64) {
        self.lock().rotate_bytes = bytes.max(1);
    }

    /// Points this WAL's instruments (enqueue/flush latency, flush-record
    /// and prune counters, `gwal.flush` trace events) at `telemetry`. A
    /// disabled handle reverts them to no-ops.
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        self.lock().metrics = GroupMetrics::resolve(telemetry);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GroupInner> {
        self.inner.lock().expect("group WAL lock")
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GroupWalStats {
        self.lock().stats
    }

    /// Records enqueued but not yet flushed.
    pub fn pending_records(&self) -> u64 {
        self.lock().queued_records
    }

    /// The highest **flushed** LSN (0 before the first flush). This is what
    /// document checkpoints store as their replay cursor, so it must never
    /// cover a record a crash could still lose — hence flushed, not
    /// enqueued.
    pub fn watermark(&self) -> u64 {
        let inner = self.lock();
        inner.next_lsn - 1 - inner.queued_records
    }

    /// Registers a document and the cursor from its newest durable snapshot
    /// (re-learned at store-open time so pruning can make progress after a
    /// restart).
    pub fn register(&self, doc: &str, cursor: u64) {
        let mut inner = self.lock();
        let mark = inner.docs.entry(doc.to_string()).or_default();
        mark.folded = mark.folded.max(cursor);
    }

    /// Appends one record for `doc` to the shared queue, returning its LSN.
    /// Durable only after the next [`flush`](Self::flush).
    pub fn enqueue(&self, doc: &str, epoch: u64, payload: &[u8]) -> u64 {
        let mut inner = self.lock();
        let span = inner.metrics.enqueue_micros.start();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let framed = group_payload(lsn, doc, payload);
        let before = inner.queue.len();
        let mut queue = std::mem::take(&mut inner.queue);
        wal::append_record(&mut queue, epoch, &framed);
        inner.queue = queue;
        let grew = inner.queue.len() - before;
        inner.queued_records += 1;
        inner.stats.records += 1;
        inner.stats.bytes += grew as u64;
        let mark = inner.docs.entry(doc.to_string()).or_default();
        mark.last = lsn;
        span.stop();
        lsn
    }

    /// Writes the whole queue into the active segment with **one** backend
    /// append (the group commit), then rotates and prunes if due. Returns
    /// the number of records made durable (0 for an empty queue, which
    /// performs no write at all).
    pub fn flush(&self) -> Result<u64, StorageError> {
        let mut inner = self.lock();
        if inner.queue.is_empty() {
            return Ok(0);
        }
        let span = inner.metrics.flush_micros.start();
        let queue = std::mem::take(&mut inner.queue);
        let records = std::mem::take(&mut inner.queued_records);
        let seg = inner.active_segment;
        let name = segment_name(seg);
        let mut backend = inner.backend.clone();
        backend.append(&name, &queue)?;
        let flushed_bytes = queue.len() as u64;
        inner.active_segment_bytes += flushed_bytes;
        inner.stats.segment_writes += 1;
        let flushed_max = inner.next_lsn - 1;
        let entry = inner.segments.entry(seg).or_insert(0);
        *entry = (*entry).max(flushed_max);
        if inner.active_segment_bytes >= inner.rotate_bytes {
            inner.active_segment += 1;
            inner.active_segment_bytes = 0;
            inner.stats.rotations += 1;
        }
        Self::prune(&mut inner)?;
        let micros = span.stop();
        inner.metrics.flush_records.add(records);
        inner.metrics.tracer.record_with(|| TraceEvent {
            lsn: flushed_max,
            bytes: flushed_bytes,
            micros,
            ..TraceEvent::of("gwal.flush")
        });
        Ok(records)
    }

    /// Advances `doc`'s folded cursor after its checkpoint became durable,
    /// and prunes segments nothing can recover from any more.
    pub fn note_checkpoint(&self, doc: &str, cursor: u64) -> Result<(), StorageError> {
        let mut inner = self.lock();
        let mark = inner.docs.entry(doc.to_string()).or_default();
        mark.folded = mark.folded.max(cursor);
        Self::prune(&mut inner)
    }

    /// Deletes flushed, non-active segments whose every LSN is folded (see
    /// the module docs for the floor rule).
    fn prune(inner: &mut GroupInner) -> Result<(), StorageError> {
        let floor = inner
            .docs
            .values()
            .filter(|m| m.last > m.folded)
            .map(|m| m.folded)
            .min()
            .unwrap_or(u64::MAX);
        let active = inner.active_segment;
        let dead: Vec<u64> = inner
            .segments
            .iter()
            .filter(|&(&seq, &max_lsn)| seq != active && max_lsn <= floor)
            .map(|(&seq, _)| seq)
            .collect();
        let mut backend = inner.backend.clone();
        for seq in dead {
            backend.remove(&segment_name(seq))?;
            inner.segments.remove(&seq);
            inner.stats.pruned_segments += 1;
            inner.metrics.pruned_segments.inc();
        }
        Ok(())
    }

    /// Flushed segments currently on the backend (diagnostics and tests).
    pub fn segment_count(&self) -> usize {
        self.lock().segments.len()
    }

    /// Replays `doc`'s records with `lsn > after`, in order, from the
    /// flushed segments. Records of other documents are decoded (the framing
    /// is shared) but never returned — the per-document cursor isolation the
    /// recovery path relies on. A torn or corrupt tail ends the replay
    /// there, exactly like the private WAL.
    pub fn replay_for(&self, doc: &str, after: u64) -> Result<GroupReplay, StorageError> {
        let inner = self.lock();
        let mut out = GroupReplay::default();
        for &seq in inner.segments.keys() {
            let bytes = inner.backend.read(&segment_name(seq))?.unwrap_or_default();
            let replay = wal::replay(&bytes);
            for entry in &replay.entries {
                let Some((lsn, owner, inner_payload)) = split_payload(&entry.payload) else {
                    continue; // unframed garbage that passed the CRC: skip
                };
                if owner == doc && lsn > after {
                    out.bytes += wal::record_size(entry.payload.len());
                    out.entries.push(WalEntry {
                        epoch: entry.epoch,
                        payload: inner_payload.to_vec(),
                    });
                }
            }
            out.torn_tail_bytes += replay.dropped_bytes;
            if let Some((_, cut)) = inner.cut_tail.filter(|&(cut_seq, _)| cut_seq == seq) {
                out.torn_tail_bytes += cut;
            }
            if replay.fault.is_some() {
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_documents_share_one_segment_write_per_flush() {
        let backend = SharedBackend::in_memory();
        let wal = GroupWal::open(backend.clone()).unwrap();
        for round in 0..4u64 {
            for doc in 0..16 {
                wal.enqueue(&format!("d{doc}"), 0, format!("r{round}").as_bytes());
            }
            assert_eq!(wal.flush().unwrap(), 16);
        }
        assert_eq!(wal.stats().records, 64);
        assert_eq!(wal.stats().segment_writes, 4, "one write per flush");
        assert_eq!(backend.stats().appends, 4);
        assert_eq!(wal.flush().unwrap(), 0, "empty queue writes nothing");
        assert_eq!(backend.stats().appends, 4);
    }

    #[test]
    fn replay_is_isolated_per_document() {
        let wal = GroupWal::in_memory();
        for i in 0..10u64 {
            let doc = if i % 2 == 0 { "even" } else { "odd" };
            wal.enqueue(doc, i, format!("record {i}").as_bytes());
        }
        wal.flush().unwrap();
        let even = wal.replay_for("even", 0).unwrap();
        assert_eq!(even.entries.len(), 5);
        assert!(even
            .entries
            .iter()
            .all(|e| e.epoch % 2 == 0 && e.payload.starts_with(b"record ")));
        let odd = wal.replay_for("odd", 0).unwrap();
        assert_eq!(odd.entries.len(), 5);
        let ghost = wal.replay_for("never-seen", 0).unwrap();
        assert!(ghost.entries.is_empty());
    }

    #[test]
    fn cursors_skip_folded_records() {
        let wal = GroupWal::in_memory();
        for i in 0..6u64 {
            wal.enqueue("d", 0, format!("{i}").as_bytes());
        }
        wal.flush().unwrap();
        let cursor = wal.watermark();
        wal.enqueue("d", 0, b"after");
        wal.flush().unwrap();
        let replay = wal.replay_for("d", cursor).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].payload, b"after");
    }

    #[test]
    fn watermark_never_covers_unflushed_records() {
        let wal = GroupWal::in_memory();
        wal.enqueue("d", 0, b"one");
        assert_eq!(wal.watermark(), 0, "queued but unflushed");
        wal.flush().unwrap();
        assert_eq!(wal.watermark(), 1);
        wal.enqueue("d", 0, b"two");
        assert_eq!(wal.watermark(), 1);
    }

    #[test]
    fn reopen_continues_lsns_and_discovers_documents() {
        let backend = SharedBackend::in_memory();
        {
            let wal = GroupWal::open(backend.clone()).unwrap();
            wal.enqueue("a", 0, b"first");
            wal.enqueue("b", 0, b"second");
            wal.flush().unwrap();
            wal.enqueue("a", 0, b"lost in the crash");
            // No flush: the queue dies with the process.
        }
        let wal = GroupWal::open(backend).unwrap();
        assert_eq!(wal.watermark(), 2, "only flushed LSNs survive");
        let lsn = wal.enqueue("a", 0, b"post-restart");
        assert_eq!(lsn, 3, "fresh LSNs stay above every durable cursor");
        wal.flush().unwrap();
        let replay = wal.replay_for("a", 0).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.entries[1].payload, b"post-restart");
    }

    #[test]
    fn rotation_and_pruning_retire_fully_folded_segments() {
        let wal = GroupWal::in_memory();
        wal.set_rotate_bytes(1); // rotate on every flush
        for i in 0..4u64 {
            wal.enqueue("a", 0, format!("a{i}").as_bytes());
            wal.enqueue("b", 0, format!("b{i}").as_bytes());
            wal.flush().unwrap();
        }
        assert_eq!(wal.stats().rotations, 4);
        assert_eq!(wal.segment_count(), 4);
        // Folding only `a` cannot prune anything: every segment still holds
        // unfolded records of `b`.
        wal.note_checkpoint("a", wal.watermark()).unwrap();
        assert_eq!(wal.segment_count(), 4);
        // Folding `b` too releases every non-active segment.
        wal.note_checkpoint("b", wal.watermark()).unwrap();
        assert!(wal.segment_count() <= 1, "folded segments pruned");
        assert!(wal.stats().pruned_segments >= 3);
        // Earlier records are folded; replay past the cursors finds nothing.
        assert!(wal
            .replay_for("a", wal.watermark())
            .unwrap()
            .entries
            .is_empty());
    }

    #[test]
    fn torn_tail_ends_replay_cleanly() {
        let backend = SharedBackend::in_memory();
        let wal = GroupWal::open(backend.clone()).unwrap();
        wal.enqueue("d", 0, b"whole");
        wal.flush().unwrap();
        // Tear the segment mid-frame.
        let name = segment_name(0);
        let mut bytes = backend.read(&name).unwrap().unwrap();
        let keep = bytes.len();
        wal.enqueue("d", 0, b"torn");
        wal.flush().unwrap();
        bytes = backend.read(&name).unwrap().unwrap();
        bytes.truncate(keep + 5);
        let mut backend2 = backend.clone();
        backend2.write(&name, &bytes).unwrap();

        let reopened = GroupWal::open(backend).unwrap();
        let replay = reopened.replay_for("d", 0).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].payload, b"whole");
        assert!(replay.torn_tail_bytes > 0);
    }

    #[test]
    fn records_flushed_after_a_torn_tail_survive_the_next_open() {
        let backend = SharedBackend::in_memory();
        let wal = GroupWal::open(backend.clone()).unwrap();
        wal.set_rotate_bytes(1); // one segment per flush
        for payload in [&b"whole"[..], b"torn", b"lost"] {
            wal.enqueue("d", 0, payload);
            wal.flush().unwrap();
        }
        // Tear the middle segment: the last one's record went with it.
        let name = segment_name(1);
        let mut bytes = backend.read(&name).unwrap().unwrap();
        bytes.truncate(bytes.len() - 3);
        backend.clone().write(&name, &bytes).unwrap();

        let reopened = GroupWal::open(backend.clone()).unwrap();
        assert_eq!(reopened.replay_for("d", 0).unwrap().entries.len(), 1);
        reopened.enqueue("d", 0, b"after");
        reopened.flush().unwrap();

        let replay = GroupWal::open(backend).unwrap().replay_for("d", 0).unwrap();
        let payloads: Vec<&[u8]> = replay.entries.iter().map(|e| &e.payload[..]).collect();
        assert_eq!(payloads, [&b"whole"[..], b"after"]);
        assert_eq!(replay.torn_tail_bytes, 0);
    }
}

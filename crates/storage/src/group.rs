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
//! `enqueue` writes that frame straight into the shared queue: no buffer
//! per record, and no allocation at all for a document the WAL already
//! knows (beyond the queue's and the index's amortised growth).
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
//! **Per-document record index.** Every document keeps, in memory, one
//! 16-byte entry `(lsn, segment, offset)` per flushed record not yet folded
//! into its registered cursor. `flush` fills it from the queue offsets
//! noted at `enqueue`; [`GroupWal::open`] fills it during the one scan of
//! the retained segments it makes anyway (each segment is read exactly
//! once); `register` and `note_checkpoint` drop the entries they fold.
//! [`GroupWal::replay_for`] then reads **only the segments holding the
//! document's indexed records past the cursor** and CRC-checks only those
//! frames: a document with nothing to replay — one checkpointed at
//! eviction — reads no segment at all, so faulting a document in costs what
//! the document owns, not a scan of the shard's log.
//!
//! **Faults are per document.** [`GroupWal::open`] cuts a torn or corrupt
//! tail shard-wide (see there) and every later replay reports the cut. A
//! frame that fails its check *after* `open` (bit rot under a live WAL)
//! ends the replay of the document owning it, at that frame: none of that
//! document's later records is returned, and nothing panics. Another
//! document's corrupt frame no longer truncates this document's replay —
//! a deliberately narrower rule than a shard-wide scan's "stop at the first
//! bad frame", since records of different documents are independent.
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
//! floor is unreferenced by every possible recovery and is removed. Index
//! entries are always above their document's cursor, hence above the floor,
//! so pruning never removes a segment the index points into.

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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// Bytes dropped as torn or corrupt: the tail [`GroupWal::open`] cut
    /// (shard-wide, while its segment is retained), plus — when one of this
    /// document's frames fails its check — the segment's bytes from that
    /// frame on.
    pub torn_tail_bytes: usize,
}

/// Where one flushed record sits: 16 bytes, no heap. Offsets and segment
/// numbers fit `u32` because [`GroupWal::flush`] never lets a segment
/// outgrow them (and [`GroupWal::open`] refuses a shard that did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordRef {
    lsn: u64,
    segment: u32,
    offset: u32,
}

#[derive(Debug, Clone, Default)]
struct DocMark {
    /// Highest LSN folded into this document's registered snapshot.
    folded: u64,
    /// Highest LSN ever assigned to this document.
    last: u64,
    /// The document's flushed records with `lsn > folded`, in LSN order.
    records: Vec<RecordRef>,
}

impl DocMark {
    /// Advances the folded cursor to `cursor` (never backwards) and drops
    /// the index entries it covers.
    fn fold(&mut self, cursor: u64) {
        self.folded = self.folded.max(cursor);
        let folded = self.folded;
        let covered = self.records.partition_point(|r| r.lsn <= folded);
        self.records.drain(..covered);
    }
}

/// A queued record: its owner's slot, its LSN and where its frame starts in
/// the queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    slot: usize,
    lsn: u64,
    at: usize,
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
    /// The records in `queue`, in order.
    queued: Vec<Queued>,
    next_lsn: u64,
    active_segment: u64,
    active_segment_bytes: u64,
    rotate_bytes: u64,
    /// Flushed segments and the highest LSN each holds.
    segments: BTreeMap<u64, u64>,
    /// The segment whose torn or corrupt tail [`GroupWal::open`] cut, with
    /// the bytes cut: replays report them while the segment is retained.
    cut_tail: Option<(u64, usize)>,
    docs: Docs,
    stats: GroupWalStats,
    metrics: GroupMetrics,
}

/// Every document seen (enqueued, registered or discovered at open). Each
/// has a slot in `marks`, so a queued record names its owner without a copy
/// of the owner's name.
#[derive(Debug, Default)]
struct Docs {
    slots: BTreeMap<String, usize>,
    marks: Vec<DocMark>,
}

impl Docs {
    /// The slot of `doc`, creating one for a document never seen before.
    fn slot(&mut self, doc: &str) -> usize {
        if let Some(&slot) = self.slots.get(doc) {
            return slot;
        }
        let slot = self.marks.len();
        self.marks.push(DocMark::default());
        self.slots.insert(doc.to_string(), slot);
        slot
    }

    fn mark(&mut self, doc: &str) -> &mut DocMark {
        let slot = self.slot(doc);
        &mut self.marks[slot]
    }

    /// The index entries of `doc`, empty for a document never seen.
    fn records(&self, doc: &str) -> &[RecordRef] {
        self.slots
            .get(doc)
            .map_or(&[], |&slot| &self.marks[slot].records)
    }
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

/// Splits a group payload back into `(lsn, doc, inner payload)`.
fn split_payload(payload: &[u8]) -> Option<(u64, &str, &[u8])> {
    let mut input = payload;
    let lsn = get_varint(&mut input)?;
    let doc = std::str::from_utf8(get_bytes(&mut input)?).ok()?;
    Some((lsn, doc, input))
}

/// `value` as an index field, or the error a shard too large to index gets.
fn index_field(value: u64, what: &str) -> Result<u32, StorageError> {
    u32::try_from(value)
        .map_err(|_| StorageError::new(format!("group WAL {what} {value} exceeds the index")))
}

impl GroupWal {
    /// Opens (or re-opens) the shard's group WAL over `backend`: existing
    /// `gwal-*.log` segments are scanned once each to restore the LSN
    /// counter, the segment map, each document's highest LSN and the
    /// per-document record index. Cursors are *not* stored here — they live
    /// in the documents' snapshot names and are re-learned as each document
    /// store registers (until then pruning stays conservative, and the
    /// index holds every retained record of the document).
    ///
    /// A torn or corrupt tail is cut: the segments after the faulty one go
    /// first, newest first, then the faulty one is cut to its valid prefix,
    /// so records flushed from here on extend exactly the records a replay
    /// reads (a crash mid-cut leaves the fault ahead of whatever remains).
    pub fn open(mut backend: SharedBackend) -> Result<Self, StorageError> {
        let mut segments = BTreeMap::new();
        let mut docs = Docs::default();
        let mut max_lsn = 0u64;
        let mut seqs: Vec<u64> = backend
            .list()?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        seqs.sort_unstable();
        let mut cut_tail = None;
        let mut active_segment_bytes = 0u64;
        for (at, &seq) in seqs.iter().enumerate() {
            let bytes = backend.read(&segment_name(seq))?.unwrap_or_default();
            let segment = index_field(seq, "segment")?;
            let mut seg_max = 0u64;
            let mut pos = 0usize;
            let mut faulty = false;
            while pos < bytes.len() {
                let Ok(frame) = wal::frame_at(&bytes, pos) else {
                    faulty = true;
                    break;
                };
                if let Some((lsn, doc, _)) = split_payload(frame.payload) {
                    seg_max = seg_max.max(lsn);
                    max_lsn = max_lsn.max(lsn);
                    let mark = docs.mark(doc);
                    mark.last = mark.last.max(lsn);
                    mark.records.push(RecordRef {
                        lsn,
                        segment,
                        offset: index_field(pos as u64, "offset")?,
                    });
                }
                pos = frame.end;
            }
            segments.insert(seq, seg_max);
            active_segment_bytes = pos as u64;
            if faulty {
                // Records past a fault are untrustworthy; the LSN counter
                // restarts above everything *valid*, which is also
                // everything any durable cursor can reference.
                for &later in seqs[at + 1..].iter().rev() {
                    backend.remove(&segment_name(later))?;
                }
                backend.write(&segment_name(seq), &bytes[..pos])?;
                cut_tail = Some((seq, bytes.len() - pos));
                break;
            }
        }
        let active_segment = segments.keys().next_back().copied().unwrap_or(0);
        Ok(GroupWal {
            inner: Arc::new(Mutex::new(GroupInner {
                backend,
                queue: Vec::new(),
                queued: Vec::new(),
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
    // An in-memory backend has no failing operation; a failure here is a
    // bug worth a loud stop, not an error every test would unwrap anyway.
    #[allow(clippy::expect_used)]
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

    /// The shared state. Poison-tolerant: every method leaves the state
    /// consistent at each point a panic could unwind from (allocation
    /// failure, a panicking backend), so a panic on another thread is no
    /// reason to take the shard's WAL down with it.
    fn lock(&self) -> MutexGuard<'_, GroupInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GroupWalStats {
        self.lock().stats
    }

    /// Records enqueued but not yet flushed.
    pub fn pending_records(&self) -> u64 {
        self.lock().queued.len() as u64
    }

    /// The highest **flushed** LSN (0 before the first flush). This is what
    /// document checkpoints store as their replay cursor, so it must never
    /// cover a record a crash could still lose — hence flushed, not
    /// enqueued.
    pub fn watermark(&self) -> u64 {
        let inner = self.lock();
        inner.next_lsn - 1 - inner.queued.len() as u64
    }

    /// Registers a document and the cursor from its newest durable snapshot
    /// (re-learned at store-open time so pruning can make progress after a
    /// restart). Records at or below the cursor leave the document's index:
    /// they may be pruned from here on, and no replay of this document
    /// returns them again.
    pub fn register(&self, doc: &str, cursor: u64) {
        let mut inner = self.lock();
        inner.docs.mark(doc).fold(cursor);
    }

    /// Appends one record for `doc` to the shared queue, returning its LSN.
    /// Durable only after the next [`flush`](Self::flush).
    pub fn enqueue(&self, doc: &str, epoch: u64, payload: &[u8]) -> u64 {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let span = inner.metrics.enqueue_micros.start();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let slot = inner.docs.slot(doc);
        let at = inner.queue.len();
        wal::append_record_with(&mut inner.queue, epoch, |out| {
            put_varint(out, lsn);
            put_bytes(out, doc.as_bytes());
            out.extend_from_slice(payload);
        });
        inner.queued.push(Queued { slot, lsn, at });
        inner.stats.records += 1;
        inner.stats.bytes += (inner.queue.len() - at) as u64;
        inner.docs.marks[slot].last = lsn;
        span.stop();
        lsn
    }

    /// Writes the whole queue into the active segment with **one** backend
    /// append (the group commit), indexes its records, then rotates and
    /// prunes if due. Returns the number of records made durable (0 for an
    /// empty queue, which performs no write at all). A failed append loses
    /// the queue, exactly as a crash would.
    pub fn flush(&self) -> Result<u64, StorageError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.queue.is_empty() {
            return Ok(0);
        }
        let span = inner.metrics.flush_micros.start();
        let flushed_bytes = inner.queue.len() as u64;
        // Index offsets are `u32`: a flush that would push the active
        // segment past them starts a fresh segment instead.
        if inner.active_segment_bytes > 0
            && inner.active_segment_bytes + flushed_bytes > u64::from(u32::MAX)
        {
            inner.active_segment += 1;
            inner.active_segment_bytes = 0;
            inner.stats.rotations += 1;
        }
        // The queue leaves the shared state before the append, so a failed
        // (or panicking) append loses it exactly as a crash would and never
        // leaves records behind to be written twice; its buffers come back
        // after a successful one.
        let mut queue = std::mem::take(&mut inner.queue);
        let mut queued = std::mem::take(&mut inner.queued);
        let seg = inner.active_segment;
        let base = inner.active_segment_bytes;
        let segment = index_field(seg, "segment")?;
        index_field(base + flushed_bytes, "segment size")?;
        inner.backend.append(&segment_name(seg), &queue)?;
        let records = queued.len() as u64;
        for record in queued.drain(..) {
            inner.docs.marks[record.slot].records.push(RecordRef {
                lsn: record.lsn,
                segment,
                // Fits: `base + flushed_bytes` was checked above.
                offset: (base + record.at as u64) as u32,
            });
        }
        queue.clear();
        inner.queue = queue;
        inner.queued = queued;
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
        Self::prune(inner)?;
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
    /// drops the index entries it covers, and prunes segments nothing can
    /// recover from any more.
    pub fn note_checkpoint(&self, doc: &str, cursor: u64) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.docs.mark(doc).fold(cursor);
        Self::prune(inner)
    }

    /// Deletes flushed, non-active segments whose every LSN is folded (see
    /// the module docs for the floor rule).
    fn prune(inner: &mut GroupInner) -> Result<(), StorageError> {
        let floor = inner
            .docs
            .marks
            .iter()
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

    /// Replays `doc`'s flushed records with `lsn > after`, in order, through
    /// the document's record index: only the segments holding those records
    /// are read, and only their frames are checked. Records of other
    /// documents are never read or returned — the per-document cursor
    /// isolation the recovery path relies on.
    ///
    /// Only records above the document's registered cursor are indexed (see
    /// [`register`](Self::register)); `after` below that cursor returns the
    /// same records as `after` at it. A frame of this document that fails
    /// its check (bit rot since [`open`](Self::open)) ends the replay there:
    /// no later record is returned, and the rest of that segment counts as
    /// torn.
    pub fn replay_for(&self, doc: &str, after: u64) -> Result<GroupReplay, StorageError> {
        let inner = self.lock();
        let mut out = GroupReplay::default();
        if let Some((seq, cut)) = inner.cut_tail {
            if inner.segments.contains_key(&seq) {
                out.torn_tail_bytes += cut;
            }
        }
        let records = inner.docs.records(doc);
        let from = records.partition_point(|r| r.lsn <= after);
        let mut segment: Option<(u32, Vec<u8>)> = None;
        for record in &records[from..] {
            let bytes = match &mut segment {
                Some((seq, bytes)) if *seq == record.segment => bytes,
                stale => {
                    let bytes = inner
                        .backend
                        .read(&segment_name(u64::from(record.segment)))?
                        .unwrap_or_default();
                    &mut stale.insert((record.segment, bytes)).1
                }
            };
            let offset = record.offset as usize;
            let owned = wal::frame_at(bytes, offset).ok().and_then(|frame| {
                let (lsn, owner, payload) = split_payload(frame.payload)?;
                (lsn == record.lsn && owner == doc).then_some((frame, payload))
            });
            let Some((frame, payload)) = owned else {
                out.torn_tail_bytes += bytes.len().saturating_sub(offset);
                break;
            };
            out.bytes += frame.end - offset;
            out.entries.push(WalEntry {
                epoch: frame.epoch,
                payload: payload.to_vec(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    /// Counts the reads that reach a memory backend.
    #[derive(Debug, Default)]
    struct CountingReads {
        inner: MemoryBackend,
        reads: Arc<Mutex<Vec<String>>>,
    }

    impl StorageBackend for CountingReads {
        fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
            self.reads.lock().unwrap().push(name.to_string());
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
            self.inner.list()
        }
    }

    #[test]
    fn queued_frames_are_byte_identical_to_the_buffered_group_framing() {
        // The group framing as first written: the group payload built in a
        // buffer of its own, then framed as a private WAL record.
        fn buffered(lsn: u64, doc: &str, epoch: u64, payload: &[u8]) -> Vec<u8> {
            let mut group = Vec::new();
            put_varint(&mut group, lsn);
            put_bytes(&mut group, doc.as_bytes());
            group.extend_from_slice(payload);
            let mut out = Vec::new();
            wal::append_record(&mut out, epoch, &group);
            out
        }
        let backend = SharedBackend::in_memory();
        let wal = GroupWal::open(backend.clone()).unwrap();
        let mut expected = Vec::new();
        for (doc, epoch, payload) in [("a", 0, &b""[..]), ("bb", 3, b"xyz"), ("a", 9, &[7; 200])] {
            let lsn = wal.enqueue(doc, epoch, payload);
            expected.extend(buffered(lsn, doc, epoch, payload));
        }
        wal.flush().unwrap();
        assert_eq!(backend.read(&segment_name(0)).unwrap().unwrap(), expected);
    }

    #[test]
    fn replay_reads_only_the_segments_holding_the_documents_records() {
        let reads = Arc::new(Mutex::new(Vec::new()));
        let backend = SharedBackend::new(CountingReads {
            inner: MemoryBackend::new(),
            reads: reads.clone(),
        });
        let wal = GroupWal::open(backend.clone()).unwrap();
        wal.set_rotate_bytes(1); // one segment per flush
        wal.enqueue("a", 0, b"a0");
        wal.flush().unwrap(); // segment 0: a
        wal.enqueue("b", 0, b"b0");
        wal.flush().unwrap(); // segment 1: b
        wal.enqueue("a", 0, b"a1");
        wal.enqueue("b", 0, b"b1");
        wal.flush().unwrap(); // segment 2: a, b
        let take = || std::mem::take(&mut *reads.lock().unwrap());
        take();

        assert_eq!(wal.replay_for("a", 0).unwrap().entries.len(), 2);
        assert_eq!(take(), [segment_name(0), segment_name(2)]);
        assert_eq!(wal.replay_for("a", 1).unwrap().entries.len(), 1);
        assert_eq!(take(), [segment_name(2)]);
        // Folded (as at eviction): nothing to replay, nothing read.
        wal.note_checkpoint("a", wal.watermark()).unwrap();
        assert!(wal
            .replay_for("a", wal.watermark())
            .unwrap()
            .entries
            .is_empty());
        assert!(wal.replay_for("never-seen", 0).unwrap().entries.is_empty());
        assert!(take().is_empty());

        // A reopen reads each segment exactly once and rebuilds the index.
        let wal = GroupWal::open(backend).unwrap();
        let mut opened = take();
        opened.sort();
        assert_eq!(opened, [0, 1, 2].map(segment_name));
        let b = wal.replay_for("b", 0).unwrap();
        assert_eq!(b.entries.len(), 2);
        assert_eq!(take(), [segment_name(1), segment_name(2)]);
    }

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

//! Differential test of the per-document record index: random schedules of
//! enqueues, flushes, checkpoints, registrations, rotation, reopens and torn
//! tails, after every step of which [`GroupWal::replay_for`] must agree with
//! the shard-wide full scan it replaced.

use proptest::prelude::*;

use super::*;

/// The oracle: the shard-wide scan `replay_for` used before the index.
/// Every retained segment is read and checked front to back, every record
/// decoded, and this document's records past `after` are kept; the first
/// bad frame ends the scan for every document.
fn full_scan(wal: &GroupWal, doc: &str, after: u64) -> GroupReplay {
    let inner = wal.lock();
    let mut out = GroupReplay::default();
    for &seq in inner.segments.keys() {
        let bytes = inner
            .backend
            .read(&segment_name(seq))
            .unwrap()
            .unwrap_or_default();
        let replay = wal::replay(&bytes);
        for entry in &replay.entries {
            let Some((lsn, owner, payload)) = split_payload(&entry.payload) else {
                continue;
            };
            if owner == doc && lsn > after {
                out.bytes += wal::record_size(entry.payload.len());
                out.entries.push(WalEntry {
                    epoch: entry.epoch,
                    payload: payload.to_vec(),
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
    out
}

/// A shard under test: its backend, its WAL and the cursor each document
/// registered last (what its newest snapshot would carry).
struct Shard {
    backend: SharedBackend,
    wal: GroupWal,
    names: Vec<String>,
    registered: Vec<u64>,
}

impl Shard {
    fn new(docs: usize) -> Self {
        let backend = SharedBackend::in_memory();
        Shard {
            wal: GroupWal::open(backend.clone()).unwrap(),
            backend,
            names: (0..docs).map(|d| format!("doc{d}")).collect(),
            registered: vec![0; docs],
        }
    }

    /// Drops the WAL (its queue with it) and reopens the backend, then
    /// re-registers every document's cursor as its store would.
    fn reopen(&mut self) {
        self.wal = GroupWal::open(self.backend.clone()).unwrap();
        for (name, &cursor) in self.names.iter().zip(&self.registered) {
            self.wal.register(name, cursor);
        }
    }

    /// The newest segment on the backend, with its bytes.
    fn newest_segment(&self) -> Option<(String, Vec<u8>)> {
        let name = self
            .backend
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| parse_segment_name(n).is_some())
            .max()?;
        let bytes = self.backend.read(&name).unwrap()?;
        Some((name, bytes))
    }

    fn step(&mut self, kind: u8, doc: usize, arg: u16) {
        let doc = doc % self.names.len();
        let name = &self.names[doc];
        match kind {
            0..=6 => {
                let payload = vec![doc as u8; usize::from(arg % 40)];
                self.wal.enqueue(name, u64::from(arg % 3), &payload);
            }
            7..=8 => {
                self.wal.flush().unwrap();
            }
            9..=10 => {
                self.wal.flush().unwrap();
                let cursor = self.wal.watermark();
                self.wal.note_checkpoint(name, cursor).unwrap();
                self.registered[doc] = self.registered[doc].max(cursor);
            }
            11 => {
                let low = self.registered[doc];
                let high = self.wal.watermark().max(low);
                let cursor = low + u64::from(arg) % (high - low + 1);
                self.wal.register(name, cursor);
                self.registered[doc] = cursor;
            }
            12 => self
                .wal
                .set_rotate_bytes(if arg % 2 == 0 { 1 } else { 1 << 20 }),
            13 => self.reopen(),
            _ => {
                // Tear the newest segment's tail (a crash mid-append), then
                // reopen over it.
                if let Some((seg, mut bytes)) = self.newest_segment() {
                    if !bytes.is_empty() {
                        let cut = 1 + usize::from(arg) % bytes.len();
                        bytes.truncate(bytes.len() - cut);
                        self.backend.clone().write(&seg, &bytes).unwrap();
                    }
                }
                self.reopen();
            }
        }
    }

    /// Every cursor worth checking for `doc`: the registered one, each of
    /// its replayable records' LSNs, and the watermark and beyond.
    fn cursors(&self, doc: usize) -> Vec<u64> {
        let from = self.registered[doc];
        let inner = self.wal.lock();
        let mut cursors = vec![from];
        cursors.extend(inner.docs.records(&self.names[doc]).iter().map(|r| r.lsn));
        let watermark = inner.next_lsn - 1 - inner.queued.len() as u64;
        cursors.extend([watermark, watermark + 1]);
        cursors.retain(|&c| c >= from);
        cursors
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for (doc, name) in self.names.iter().enumerate() {
            for after in self.cursors(doc) {
                let indexed = self.wal.replay_for(name, after).unwrap();
                let scanned = full_scan(&self.wal, name, after);
                prop_assert_eq!(
                    &indexed.entries,
                    &scanned.entries,
                    "{} after {}",
                    name,
                    after
                );
                prop_assert_eq!(indexed.bytes, scanned.bytes, "{} after {}", name, after);
                prop_assert_eq!(
                    indexed.torn_tail_bytes,
                    scanned.torn_tail_bytes,
                    "{} after {}",
                    name,
                    after
                );
            }
        }
        Ok(())
    }
}

proptest! {
    /// After every step of a random schedule, for every document and every
    /// cursor at or above its registered one, the indexed replay equals
    /// the full scan in entries, bytes and torn-tail bytes.
    #[test]
    fn indexed_replay_matches_the_full_scan(
        docs in 3usize..6,
        steps in proptest::collection::vec((0u8..16, 0usize..5, any::<u16>()), 1..70),
    ) {
        let mut shard = Shard::new(docs);
        for (kind, doc, arg) in steps {
            shard.step(kind, doc, arg);
            shard.check()?;
        }
    }

    /// A bit flipped in one of a document's frames after `open` ends that
    /// document's replay at the frame: exactly the records before it come
    /// back, the damage is counted, and nothing panics.
    #[test]
    fn a_corrupt_frame_ends_its_documents_replay_there(
        steps in proptest::collection::vec((0u8..12, 0usize..3, any::<u16>()), 10..60),
        pick in any::<u16>(),
        byte in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut shard = Shard::new(3);
        for (kind, doc, arg) in steps {
            shard.step(kind, doc, arg);
        }
        shard.wal.flush().unwrap();
        let doc = usize::from(pick) % 3;
        let name = shard.names[doc].clone();
        let after = shard.registered[doc];
        let before = shard.wal.replay_for(&name, after).unwrap();
        let others: Vec<(&String, u64)> = shard
            .names
            .iter()
            .zip(shard.registered.iter().copied())
            .filter(|&(n, _)| *n != name)
            .collect();
        let others_before: Vec<GroupReplay> = others
            .iter()
            .map(|&(n, cursor)| shard.wal.replay_for(n, cursor).unwrap())
            .collect();
        let records: Vec<RecordRef> = {
            let inner = shard.wal.lock();
            let records = inner.docs.records(&name);
            records[records.partition_point(|r| r.lsn <= after)..].to_vec()
        };
        prop_assume!(!records.is_empty());
        let victim = usize::from(pick) % records.len();
        let RecordRef { segment, offset, .. } = records[victim];
        let seg = segment_name(u64::from(segment));
        let mut bytes = shard.backend.read(&seg).unwrap().unwrap();
        let frame_len = wal::frame_at(&bytes, offset as usize).unwrap().end - offset as usize;
        bytes[offset as usize + usize::from(byte) % frame_len] ^= 1 << bit;
        shard.backend.clone().write(&seg, &bytes).unwrap();

        let after_flip = shard.wal.replay_for(&name, after).unwrap();
        prop_assert_eq!(&after_flip.entries[..], &before.entries[..victim]);
        prop_assert!(after_flip.torn_tail_bytes >= before.torn_tail_bytes + frame_len);
        // Another document's corrupt frame leaves these replays whole.
        for (&(other, cursor), was) in others.iter().zip(&others_before) {
            let now = shard.wal.replay_for(other, cursor).unwrap();
            prop_assert_eq!(&now.entries, &was.entries, "{} lost records", other);
        }
    }
}

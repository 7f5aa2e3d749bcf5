//! Durable replicas: the glue between [`Replica`] and the
//! [`DocStore`] of `treedoc-storage`.
//!
//! The persistence model is **write-ahead redo logging over the existing
//! message handlers**:
//!
//! * every externally visible event that mutates a replica — a stamped local
//!   operation, a received envelope, an at-least-once peer registration, a
//!   flatten proposal or conclusion — is serialised as a [`WalRecord`] and
//!   appended to the store *before* the replica acts on it
//!   (persist-before-deliver). Records are written in the compact binary
//!   format of [`crate::wire`]; a record in any other format fails recovery
//!   with a typed [`RecoverError::Parse`];
//! * records that carry operations form a **chain**: each is delta-encoded
//!   against the last operation entry journaled before it
//!   ([`WalChain`]), so a typed keystroke costs a
//!   few bytes and O(1) to replay, not its whole identifier. Every
//!   checkpoint attempt resets the chain — successful or not — so the first
//!   such record after it is written absolute, and every point a recovery
//!   can start from (the WAL segment of any snapshot it may fall back to)
//!   opens with a record that decodes on its own;
//! * a chained envelope ([`crate::chain`]) is journaled as the absolute op
//!   it resolves to, chained in the WAL like any received op; one parked
//!   for its predecessor is journaled as the received envelope, and replay
//!   parks it again and resolves it in the same cascade. Chain heads
//!   adopted from a sync root are sync traffic and not journaled: like the
//!   clock fast-forward they come with, they become durable at the next
//!   checkpoint, and until then a recovered replica keeps the ops they
//!   released parked for the next session to hand the heads over again;
//! * a checkpoint ([`Replica::persist_checkpoint`](crate::Replica::persist_checkpoint),
//!   and automatically on every committed flatten) writes a
//!   [`Snapshot`] of the whole replica — the document (see *Snapshot
//!   sections* below) plus the vector clock, flatten epoch,
//!   acknowledgement table, send log, hold-back queue and the envelope
//!   resolver's chain heads and parked ops — and truncates the
//!   WAL, since every logged record is folded into the snapshot. The
//!   committed flatten epoch of §4.2.1 is thereby the natural log-compaction
//!   point;
//! * recovery ([`Replica::recover`](crate::Replica::recover)) loads the
//!   newest snapshot that passes hash verification and replays the WAL tail
//!   through the *same* handlers that processed the events live, so a
//!   restarted replica rejoins with its document, clock, pending hold-back
//!   and unacked send log intact. The tail is decoded through the
//!   journal's own chain, which ends at the log's last operation entry, so
//!   a recovered (or, on a hosting node, faulted-in) replica journals its
//!   next records chained to the log it recovered from.
//!
//! Replay is deterministic because every handler is deterministic in its
//! inputs; the one non-input the handlers consume — tick counts while a
//! flatten is prepared — is not logged, so the purely diagnostic
//! blocked-tick counters may undercount across a crash. Nothing that feeds
//! convergence does.
//!
//! ## Snapshot sections
//!
//! A [`Treedoc`] writes one binary section, [`SECTION_RUNS`] (`doc.runs`),
//! and the replica writes [`SECTION_REPLICA`] (`replica`):
//!
//! | section | part | content |
//! | --- | --- | --- |
//! | `doc.runs` | header | varint revision counter · configuration byte (bit 0: balancing) · disambiguator source ([`WireSource`]: the site, and for UDIS the counter) |
//! | `doc.runs` | runs | the run store, one record per run ([`RunTree::encode_runs`]): a pattern tag, the cell count, the pattern's identifiers delta-encoded against the previous run's last identifier, a 2-bit content state per cell and the live atoms |
//! | `replica` | parts | site · delivered clock and held-back messages · epoch hold-back · send log · flatten participant · chain heads and parked ops, in the wire codec's entry, clock and envelope-body layouts (see [`crate::wire`], "Replica snapshot section") |
//!
//! The snapshot manifest hashes every section, so a section carries no hash
//! of its own. Loading decodes the runs straight into the store
//! ([`RunTree::decode_runs`]): no per-cell identifier is built and nothing
//! is re-coalesced, so a recovered store has the runs it was written with.
//! A malformed pattern, a run that does not follow its predecessor, a count
//! the remaining bytes cannot back or trailing bytes fail with
//! [`RecoverError::Parse`], in either section; so does a `replica` section
//! written as JSON by an older generation. Every failure is a typed [`RecoverError`]: the
//! load path never panics and allocates no more than its input's size.
//! A snapshot of an older layout — the `doc.state` + `doc.cells` cell
//! stream, or the §5.2 heap image (`tree.structure` + `tree.atoms`) — has
//! no `doc.runs` and fails with [`SnapshotError::MissingSection`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::fmt;

use treedoc_core::codec::{get_u8, get_varint, put_u8, put_varint};
use treedoc_core::{
    HasSource, Op, RunTree, Side, SiteId, Treedoc, TreedocConfig, WireAtom, WireDis, WireSource,
};
use treedoc_storage::{DocStore, Snapshot, SnapshotError, StorageError};

use crate::causal::CausalMessage;
use crate::flatten::CommitProtocol;
use crate::replica::{Replica, ReplicatedDocument};
use crate::wire::{Envelope, WalChain};

/// Snapshot section holding a [`Treedoc`]: a binary header (revision
/// counter, configuration, disambiguator source) and its run store, one
/// record per run (see the module docs).
pub const SECTION_RUNS: &str = "doc.runs";
/// Snapshot section holding the replication-level state (clock, send log,
/// acknowledgement table, flatten role, envelope chain heads).
pub const SECTION_REPLICA: &str = "replica";

/// One redo-log record: an event the replica persisted before acting on it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<Op> {
    /// A locally initiated operation, as stamped (implies the local edit:
    /// replay re-applies the payload and re-enters it into the send log).
    Stamped {
        /// The flatten epoch the operation was stamped in.
        epoch: u64,
        /// The stamped message.
        msg: CausalMessage<Op>,
    },
    /// An envelope received from the network, logged before delivery.
    Received {
        /// The envelope exactly as received.
        envelope: Envelope<Op>,
    },
    /// The at-least-once peer set was (re-)registered.
    PeersEnabled {
        /// The peers passed to `enable_at_least_once`.
        peers: Vec<SiteId>,
    },
    /// This replica initiated a flatten proposal (coordinator side).
    Proposed {
        /// The proposed subtree (empty = whole document).
        subtree: Vec<Side>,
        /// The commitment protocol chosen.
        protocol: CommitProtocol,
    },
    /// A flatten this replica was part of concluded.
    Finished {
        /// The transaction that concluded.
        txn: u64,
        /// `true` = committed (the flatten was applied).
        committed: bool,
        /// `true` when the commit was applied by the 3PC unilateral
        /// termination rule rather than by a received decision.
        unilateral: bool,
    },
}

/// Why a recovery attempt failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The backend failed.
    Storage(StorageError),
    /// A snapshot section was missing or failed verification.
    Snapshot(SnapshotError),
    /// A serialised section or WAL record failed to parse (including a
    /// `doc.runs` section whose runs are malformed or out of order).
    Parse(String),
    /// The store holds no snapshot at all (a store is always seeded with a
    /// baseline snapshot by `attach_store`, so this means the store never
    /// belonged to a replica).
    NoSnapshot,
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Storage(e) => write!(f, "recovery failed: {e}"),
            RecoverError::Snapshot(e) => write!(f, "recovery failed: {e}"),
            RecoverError::Parse(msg) => write!(f, "recovery failed: {msg}"),
            RecoverError::NoSnapshot => write!(f, "recovery failed: store holds no snapshot"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<StorageError> for RecoverError {
    fn from(e: StorageError) -> Self {
        RecoverError::Storage(e)
    }
}

impl From<SnapshotError> for RecoverError {
    fn from(e: SnapshotError) -> Self {
        RecoverError::Snapshot(e)
    }
}

/// What [`Replica::recover`](crate::Replica::recover) salvaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid snapshot was found (always true on success — a store
    /// without one fails with [`RecoverError::NoSnapshot`]).
    pub snapshot_hit: bool,
    /// Flatten epoch of the recovered snapshot.
    pub snapshot_epoch: u64,
    /// Snapshots that failed hash verification and were skipped.
    pub corrupt_snapshots_skipped: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Bytes read back (snapshot blob + valid WAL prefix).
    pub bytes_recovered: usize,
    /// WAL tail bytes dropped as torn or corrupt.
    pub torn_tail_bytes: usize,
}

/// A replica's write-ahead journal: the attached store, the chain the next
/// record is delta-encoded against, and the checkpoint hook — captured
/// where the snapshot's bounds hold, so the journaling call sites need none.
#[derive(Debug)]
pub(crate) struct Journal<Doc: ReplicatedDocument> {
    pub(crate) store: DocStore,
    snapshot: fn(&Replica<Doc>) -> Snapshot,
    chain: WalChain<Doc::Op>,
}

impl<Doc: ReplicatedDocument> Journal<Doc> {
    /// Attaches `store` to `replica` at flatten `epoch`, with a baseline
    /// snapshot to recover from.
    pub(crate) fn attach(
        store: DocStore,
        snapshot: fn(&Replica<Doc>) -> Snapshot,
        replica: &Replica<Doc>,
        epoch: u64,
    ) -> Result<Self, StorageError> {
        let mut journal = Journal {
            store,
            snapshot,
            chain: WalChain::new(),
        };
        journal.checkpoint(replica, epoch)?;
        Ok(journal)
    }

    /// Appends `record`, delta-encoded against the chain, in flatten
    /// `epoch`.
    ///
    /// # Panics
    ///
    /// When the backend fails: a lost record is fatal, not forgotten.
    #[allow(
        clippy::expect_used,
        reason = "durability: the stamp and receive paths return no `Result`"
    )]
    pub(crate) fn append(&mut self, epoch: u64, record: WalRecord<Doc::Op>) {
        let bytes = self.chain.encode(&record);
        self.store
            .append(epoch, &bytes)
            .expect("WAL append failed; durability cannot be guaranteed");
        self.chain.advance(record);
    }

    /// Checkpoints `replica` at `epoch`, truncating the WAL, and resets the
    /// chain even on failure: the next record is written absolute, so it
    /// decodes from whichever snapshot a recovery starts at.
    pub(crate) fn checkpoint(
        &mut self,
        replica: &Replica<Doc>,
        epoch: u64,
    ) -> Result<(), StorageError> {
        let snapshot = (self.snapshot)(replica);
        self.chain.reset();
        self.store.checkpoint(epoch, &snapshot)
    }

    /// Recovery: rebuilds the replica from the newest verified snapshot of
    /// `store` with `restore` and hands the valid WAL tail to `replay`,
    /// returning it with the journal to re-attach. The replica replays with
    /// no journal attached, so replay writes nothing; the tail's chain ends
    /// at the log's last op entry, and the next records continue it.
    pub(crate) fn recover(
        mut store: DocStore,
        snapshot: fn(&Replica<Doc>) -> Snapshot,
        restore: fn(&Snapshot) -> Result<Replica<Doc>, RecoverError>,
        replay: fn(&mut Replica<Doc>, WalRecord<Doc::Op>),
    ) -> Result<(Replica<Doc>, Self, RecoveryReport), RecoverError> {
        let recovered = store.recover()?;
        let (_, image) = recovered.snapshot.ok_or(RecoverError::NoSnapshot)?;
        let mut replica = restore(&image)?;
        let mut chain = WalChain::new();
        for entry in &recovered.wal {
            let record = chain
                .decode(&entry.payload)
                .map_err(|e| RecoverError::Parse(format!("WAL record: {e}")))?;
            replay(&mut replica, record);
        }
        let report = RecoveryReport {
            snapshot_hit: recovered.stats.snapshot_hit,
            snapshot_epoch: recovered.stats.snapshot_epoch,
            corrupt_snapshots_skipped: recovered.stats.corrupt_snapshots_skipped,
            wal_records_replayed: recovered.wal.len(),
            bytes_recovered: recovered.stats.bytes_recovered,
            torn_tail_bytes: recovered.stats.torn_tail_bytes,
        };
        let journal = Journal {
            store,
            snapshot,
            chain,
        };
        Ok((replica, journal, report))
    }
}

/// A document a [`Replica`] can persist and recover: it can
/// write itself into snapshot sections, rebuild itself from them, and replay
/// its *own* logged operations (which, unlike remote replay, must also keep
/// the disambiguator source ahead of every identifier it issued).
pub trait PersistentDocument: ReplicatedDocument + Sized {
    /// Writes the document into `snapshot` (sections of the implementor's
    /// choosing; [`Treedoc`] writes [`SECTION_RUNS`], see the module docs).
    fn encode_sections(&self, snapshot: &mut Snapshot);

    /// Rebuilds the document from its sections: a typed error for any
    /// missing, corrupt or inconsistent section, never a panic.
    fn decode_sections(snapshot: &Snapshot) -> Result<Self, RecoverError>;

    /// Replays one of the document's own logged operations.
    fn replay_logged_local(&mut self, op: &Self::Op);
}

/// Configuration byte of the `doc.runs` header: bit 0 is `balancing`.
const CONFIG_BALANCING: u8 = 1;

/// Reads the `doc.runs` header written by `encode_sections`.
fn get_header<S: WireSource>(input: &mut &[u8]) -> Option<(u64, TreedocConfig, S)> {
    let revision = get_varint(input)?;
    let config = match get_u8(input)? {
        0 => TreedocConfig::default(),
        CONFIG_BALANCING => TreedocConfig::balanced(),
        _ => return None,
    };
    Some((revision, config, S::decode_source(input)?))
}

impl<A, D> PersistentDocument for Treedoc<A, D>
where
    A: WireAtom + std::hash::Hash,
    D: WireDis + HasSource,
{
    fn encode_sections(&self, snapshot: &mut Snapshot) {
        let mut out = Vec::new();
        put_varint(&mut out, self.revision());
        let config = if self.config().balancing {
            CONFIG_BALANCING
        } else {
            0
        };
        put_u8(&mut out, config);
        self.dis_source().encode_source(&mut out);
        self.store().encode_runs(&mut out);
        snapshot.push_section(SECTION_RUNS, out);
    }

    fn decode_sections(snapshot: &Snapshot) -> Result<Self, RecoverError> {
        let mut input = snapshot.require(SECTION_RUNS)?;
        let (revision, config, source) = get_header(&mut input)
            .ok_or_else(|| RecoverError::Parse("doc.runs header is malformed".into()))?;
        let store = RunTree::decode_runs(&mut input)
            .map_err(|e| RecoverError::Parse(format!("doc.runs: {e}")))?;
        Ok(Treedoc::from_store(store, source, config, revision))
    }

    fn replay_logged_local(&mut self, op: &Op<A, D>) {
        self.note_replayed_local(op);
        self.replay(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{Sdis, SiteId, Udis};

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    #[test]
    fn treedoc_sections_round_trip() {
        let mut doc: Treedoc<String, Sdis> = Treedoc::new(site(1));
        for i in 0..20 {
            doc.local_insert(i, format!("line {i}")).unwrap();
        }
        doc.local_delete(3).unwrap();
        let mut snapshot = Snapshot::new();
        doc.encode_sections(&mut snapshot);
        let back = <Treedoc<String, Sdis>>::decode_sections(&snapshot).unwrap();
        assert_eq!(back.to_vec(), doc.to_vec());
        assert_eq!(back.node_count(), doc.node_count());
        assert_eq!(back.site(), doc.site());
        assert_eq!(back.revision(), doc.revision());
    }

    #[test]
    fn udis_source_counter_survives_the_round_trip() {
        let mut doc: Treedoc<String, Udis> = Treedoc::new(site(4));
        for i in 0..10 {
            doc.local_insert(i, format!("u{i}")).unwrap();
        }
        let mut snapshot = Snapshot::new();
        doc.encode_sections(&mut snapshot);
        let mut back = <Treedoc<String, Udis>>::decode_sections(&snapshot).unwrap();
        // A fresh insert after recovery must not collide with any identifier
        // the original replica issued.
        let op = back.local_insert(0, "fresh".to_string()).unwrap();
        doc.apply(&op).unwrap();
        assert_eq!(doc.to_vec(), back.to_vec());
    }

    #[test]
    fn tampered_atoms_are_caught_end_to_end() {
        let mut doc: Treedoc<String, Sdis> = Treedoc::new(site(1));
        doc.local_insert(0, "x".to_string()).unwrap();
        let mut snapshot = Snapshot::new();
        doc.encode_sections(&mut snapshot);
        // The section bodies follow the manifest, so the blob's last byte
        // is the atom's: the manifest's section hash catches the edit.
        let mut blob = snapshot.encode();
        *blob.last_mut().unwrap() ^= 1; // "x" becomes "y"
        let loaded = Snapshot::decode(&blob)
            .map_err(RecoverError::from)
            .and_then(|snapshot| <Treedoc<String, Sdis>>::decode_sections(&snapshot));
        assert!(matches!(
            loaded,
            Err(RecoverError::Snapshot(SnapshotError::SectionHash(_)))
        ));
    }

    #[test]
    fn wal_records_round_trip_and_foreign_bytes_are_typed_errors() {
        use crate::wire::{self, WalChain};
        use crate::{Envelope, Replica};
        use treedoc_storage::DocStore;

        let record: WalRecord<Op<String, Sdis>> = WalRecord::PeersEnabled {
            peers: vec![site(1), site(2)],
        };
        let bytes = WalChain::new().encode(&record);
        assert_eq!(bytes.first(), Some(&wire::WAL_BINARY_TAG));
        assert_eq!(WalChain::new().decode(&bytes), Ok(record));

        // The second of two received ops is chained to the first.
        let mut doc: Treedoc<String, Sdis> = Treedoc::new(site(1));
        let mut chain = WalChain::new();
        let mut chained = Vec::new();
        for k in 0..2 {
            let mut clock = crate::VectorClock::new();
            clock.observe(site(1), k as u64 + 1);
            let record = WalRecord::Received {
                envelope: Envelope::Op {
                    epoch: 0,
                    msg: CausalMessage {
                        sender: site(1),
                        clock,
                        payload: doc.local_insert(k, format!("line {k}")).unwrap(),
                    },
                },
            };
            chained = chain.encode(&record);
            chain.advance(record);
        }

        // Recovery reports foreign, garbled and unchained records as parse
        // errors, never a panic.
        for payload in [&b"not json"[..], &[0x02, 200, 1], &chained] {
            let mut replica = Replica::new(site(2), Treedoc::<String, Sdis>::new(site(2)));
            replica.attach_store(DocStore::in_memory()).unwrap();
            let mut store = replica.detach_store().unwrap();
            store.append(0, payload).unwrap();
            let result = Replica::<Treedoc<String, Sdis>>::recover(store);
            assert!(
                matches!(result, Err(RecoverError::Parse(_))),
                "{payload:?}: {result:?}"
            );
        }
    }
}

//! Durable replicas: the glue between [`Replica`](crate::Replica) and the
//! [`DocStore`](treedoc_storage::DocStore) of `treedoc-storage`.
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
//! * a checkpoint ([`Replica::persist_checkpoint`](crate::Replica::persist_checkpoint),
//!   and automatically on every committed flatten) writes a
//!   [`Snapshot`] of the whole replica — the §5.2
//!   disk image of the tree plus the vector clock, flatten epoch,
//!   acknowledgement table, send log and hold-back queue — and truncates the
//!   WAL, since every logged record is folded into the snapshot. The
//!   committed flatten epoch of §4.2.1 is thereby the natural log-compaction
//!   point;
//! * recovery ([`Replica::recover`](crate::Replica::recover)) loads the
//!   newest snapshot that passes hash verification and replays the WAL tail
//!   through the *same* handlers that processed the events live, so a
//!   restarted replica rejoins with its document, clock, pending hold-back
//!   and unacked send log intact.
//!
//! Replay is deterministic because every handler is deterministic in its
//! inputs; the one non-input the handlers consume — tick counts while a
//! flatten is prepared — is not logged, so the purely diagnostic
//! blocked-tick counters may undercount across a crash. Nothing that feeds
//! convergence does.

use std::fmt;

use serde::{de::DeserializeOwned, Deserialize, Serialize};
use treedoc_core::{HasSource, Op, Side, SiteId, Treedoc, TreedocConfig, WireAtom, WireDis};
use treedoc_storage::{
    content_hash64, DecodeError, DisCodec, DiskImage, Snapshot, SnapshotError, StorageError,
};

use crate::causal::CausalMessage;
use crate::flatten::CommitProtocol;
use crate::replica::{Envelope, ReplicatedDocument};

/// Snapshot section holding the §5.2 structure stream of the tree.
pub const SECTION_STRUCTURE: &str = "tree.structure";
/// Snapshot section holding the atom table (JSON).
pub const SECTION_ATOMS: &str = "tree.atoms";
/// Snapshot section holding the document-level state (revision counter,
/// configuration, disambiguator source, atom-table hash).
pub const SECTION_DOC: &str = "doc.state";
/// Snapshot section holding the replication-level state (clock, send log,
/// acknowledgement table, flatten role).
pub const SECTION_REPLICA: &str = "replica";

/// One redo-log record: an event the replica persisted before acting on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// The tree's disk image failed to decode.
    Decode(DecodeError),
    /// A serialised section or WAL record failed to parse.
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
            RecoverError::Decode(e) => write!(f, "recovery failed: tree image: {e}"),
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

impl From<DecodeError> for RecoverError {
    fn from(e: DecodeError) -> Self {
        RecoverError::Decode(e)
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

/// Parses a WAL record payload; anything but a well-formed binary record
/// (leading [`WAL_BINARY_TAG`](crate::wire::WAL_BINARY_TAG)) is a typed
/// [`RecoverError::Parse`].
pub(crate) fn decode_wal_record<Op: treedoc_core::WirePayload>(
    payload: &[u8],
) -> Result<WalRecord<Op>, RecoverError> {
    crate::wire::decode_wal_record(payload)
        .map_err(|e| RecoverError::Parse(format!("WAL record: {e}")))
}

pub(crate) fn to_json_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("snapshot sections serialise")
        .into_bytes()
}

pub(crate) fn from_json_bytes<T: DeserializeOwned>(
    what: &str,
    bytes: &[u8],
) -> Result<T, RecoverError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| RecoverError::Parse(format!("{what} is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| RecoverError::Parse(format!("{what}: {e}")))
}

/// A document a [`Replica`](crate::Replica) can persist and recover: it can
/// write itself into snapshot sections, rebuild itself from them, and replay
/// its *own* logged operations (which, unlike remote replay, must also keep
/// the disambiguator source ahead of every identifier it issued).
pub trait PersistentDocument: ReplicatedDocument + Sized {
    /// Writes the document into `snapshot` (sections of the implementor's
    /// choosing; [`Treedoc`] uses the §5.2 [`DiskImage`] layout).
    fn encode_sections(&self, snapshot: &mut Snapshot);

    /// Rebuilds the document from its sections.
    fn decode_sections(snapshot: &Snapshot) -> Result<Self, RecoverError>;

    /// Replays one of the document's own logged operations.
    fn replay_logged_local(&mut self, op: &Self::Op);
}

/// Document-level snapshot state stored next to the tree image.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DocMeta<S> {
    revision: u64,
    config: TreedocConfig,
    source: S,
    /// Content hash of the atoms section, verified end-to-end after the
    /// structural decode (belt to the snapshot manifest's braces).
    atoms_hash: u64,
}

impl<A, D> PersistentDocument for Treedoc<A, D>
where
    A: WireAtom + std::hash::Hash,
    D: WireDis + HasSource + DisCodec,
    D::Source: Serialize + DeserializeOwned,
{
    fn encode_sections(&self, snapshot: &mut Snapshot) {
        let image = DiskImage::encode(&self.tree());
        let atoms = to_json_bytes(&image.atoms);
        let meta = DocMeta {
            revision: self.revision(),
            config: self.config(),
            source: self.dis_source().clone(),
            atoms_hash: content_hash64(&atoms),
        };
        snapshot.push_section(SECTION_DOC, to_json_bytes(&meta));
        snapshot.push_section(SECTION_STRUCTURE, image.structure);
        snapshot.push_section(SECTION_ATOMS, atoms);
    }

    fn decode_sections(snapshot: &Snapshot) -> Result<Self, RecoverError> {
        let meta: DocMeta<D::Source> =
            from_json_bytes("doc.state section", snapshot.require(SECTION_DOC)?)?;
        let atoms_bytes = snapshot.require(SECTION_ATOMS)?;
        if content_hash64(atoms_bytes) != meta.atoms_hash {
            return Err(RecoverError::Decode(DecodeError::BadHash));
        }
        let atoms: Vec<A> = from_json_bytes("tree.atoms section", atoms_bytes)?;
        let image = DiskImage {
            structure: snapshot.require(SECTION_STRUCTURE)?.to_vec(),
            atoms,
            stats: Default::default(),
        };
        let tree = image.decode::<D>()?;
        Ok(Treedoc::from_parts(
            tree,
            meta.source,
            meta.config,
            meta.revision,
        ))
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
        snapshot.push_section(SECTION_ATOMS, b"[\"evil\"]".to_vec());
        assert!(matches!(
            <Treedoc<String, Sdis>>::decode_sections(&snapshot),
            Err(RecoverError::Decode(DecodeError::BadHash))
        ));
    }

    #[test]
    fn wal_records_round_trip_and_foreign_bytes_are_typed_errors() {
        let record: WalRecord<Op<String, Sdis>> = WalRecord::PeersEnabled {
            peers: vec![site(1), site(2)],
        };
        let bytes = crate::wire::encode_wal_record(&record);
        assert_eq!(bytes.first(), Some(&crate::wire::WAL_BINARY_TAG));
        let back: WalRecord<Op<String, Sdis>> = decode_wal_record(&bytes).unwrap();
        assert_eq!(back, record);

        let garbage = decode_wal_record::<Op<String, Sdis>>(b"not json");
        assert!(matches!(garbage, Err(RecoverError::Parse(_))));
        let garbage = decode_wal_record::<Op<String, Sdis>>(&[0x02, 200, 1]);
        assert!(matches!(garbage, Err(RecoverError::Parse(_))));
    }
}

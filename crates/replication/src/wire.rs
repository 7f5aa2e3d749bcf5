//! Binary wire codec for envelopes and WAL records.
//!
//! Builds the replication-layer encodings on the primitives of
//! [`treedoc_core::codec`]: every [`Envelope`] (operations, batches, acks and
//! the flatten-commitment messages) and every [`WalRecord`] has a compact,
//! versioned binary form. This is what actually crosses the simulated
//! network and what the durable WAL stores, so the byte counts the
//! simulator and benches report are measured, not estimated.
//!
//! ## Layout
//!
//! Envelopes open with the codec version ([`WIRE_VERSION`]) and a tag byte;
//! WAL records open with [`WAL_BINARY_TAG`] (`0x02`) and a tag byte. Any
//! other leading byte is a typed [`WireError::UnsupportedVersion`]: one
//! generation is read and written.
//!
//! ## Batch delta encoding
//!
//! The entries of an [`OpBatch`] are delta-encoded against their
//! predecessor: the sender is elided when unchanged, the vector clock ships
//! only its changed entries, and position identifiers share their path
//! prefix ([`treedoc_core::codec::put_pos_id`]). An entry that
//! is the sequential **run continuation** of its predecessor (a
//! [`treedoc_core::spine_step`] insert — the shape every cell of a coalesced
//! run has) elides its position identifier entirely and ships as a run step:
//! one flag, one side byte and the atom. A run of sequential inserts — the
//! dominant pattern in real edit traces (§5) — thus costs one full entry
//! plus a few bytes per atom; one coalesced run travels as one batch and is
//! journaled as one WAL record.
//!
//! The vector clock of a delta-encoded entry ships as its difference from
//! the predecessor's: changed and new sites with their value, dropped sites
//! as 0 (clocks hold no zero entries, so 0 reads back as "remove"). The
//! delta needs no ordering between the two clocks.
//!
//! ## WAL records
//!
//! ```text
//! 02 │ tag │ body
//! ```
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | 1 | `Stamped` | the entry, full |
//! | 2 | `Received` | the envelope, with its version byte |
//! | 3 | `PeersEnabled` | count, sites |
//! | 4 | `Proposed` | subtree sides, protocol |
//! | 5 | `Finished` | txn, flags |
//! | 6 | `Stamped`, chained | the entry, delta-encoded against the chain |
//! | 7 | `Received` op, chained | the entry, delta-encoded against the chain |
//! | 8 | `Received` batch, chained | count ≥ 1, entries; the first against the chain |
//!
//! A journal is replayed in order, so its op-carrying records are chained
//! like the entries of one batch: each is delta-encoded against the last
//! operation entry journaled before it ([`WalChain`]). A keystroke that
//! continues the previous one is a run step: the tag pair, epoch, flags, a
//! side byte and the atom — a few bytes however deep its identifier.
//! The chain resets on every checkpoint attempt, and the first op-carrying
//! record after a reset is written absolute (tags 1 and 2), so a recovery
//! decodes from whichever snapshot it starts at. A chained record read
//! without its predecessor is [`WireError::MissingPredecessor`].
//!
//! ## Envelopes
//!
//! ```text
//! 04 │ tag │ body
//! ```
//!
//! | tag | envelope | body |
//! |-----|----------|------|
//! | 1 | `Op` | the entry, full |
//! | 2 | `Ack` | site, clock |
//! | 3 | `OpBatch` | count, entries; each after the first delta-encoded against its predecessor |
//! | 4–6 | flatten `Propose` / `Vote` / `Decision` | see [`crate::flatten`] |
//! | 7–9 | sync `Root` / `Digests` / `Runs` | see [`crate::sync`]; a root closes with a flags byte: bit 0 reply, bit 1 its length-prefixed chain heads follow, bit 2 want the receiver's heads |
//! | 10, 11 | `SnapshotOffer` / `SnapshotChunk` | see [`crate::sync`] |
//! | 12 | `OpChained` | epoch, sender, seq, length-prefixed entry delta-encoded against the sender's op `seq − 1` |
//!
//! ## Chained envelopes
//!
//! A single-op envelope is chained to the **sender's previous stamped
//! op**: [`Replica::stamp_envelope`](crate::Replica::stamp_envelope) writes
//! tag 12 when the envelope it stamped last carries sequence number
//! `seq − 1` and the same flatten epoch, and the absolute tag 1 otherwise —
//! for the first op after start or recovery, after a flatten, and after a
//! stamp that left through another path (a batch, a bare `stamp`).
//! The entry is the one a batch would carry for the op after its
//! predecessor, so a keystroke continuing the previous one is a run step
//! and the envelope costs about 16 bytes however deep its identifier. The
//! codec stays stateless: a decoded [`ChainedOp`] holds the entry
//! unresolved, and the receiver resolves it against the predecessor it
//! already holds (see [`crate::chain`]). Retransmissions and batches stay
//! absolute. A replica that got the predecessor by state transfer adopts it
//! from the sync root it fast-forwarded to, whose chain heads are a count
//! and entries laid out like a batch's.
//!
//! Like the core codec, every decoder is total: malformed input yields a
//! typed [`WireError`], never a panic or an unbounded allocation.

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

use serde::{Deserialize, Serialize};
use treedoc_core::codec::{
    get_bytes, get_sides, get_site, get_u8, get_varint, put_bytes, put_sides, put_site, put_u8,
    put_varint, WirePayload,
};
use treedoc_core::{SiteId, WIRE_VERSION};

use crate::causal::CausalMessage;
use crate::chain::ChainedOp;
use crate::clock::VectorClock;
use crate::flatten::{
    CommitProtocol, DecisionKind, FlattenDecision, FlattenProposal, FlattenPropose, FlattenVote,
    Vote, VoteStage,
};
use crate::persist::WalRecord;
use crate::sync::{RangeDigest, SnapshotChunk, SnapshotOffer, SyncDigests, SyncRoot, SyncRuns};

/// A run of causally consecutive stamped operations from one sender, shipped
/// as a single envelope. Produced by the sender-side flush policy
/// ([`Replica::stamp_batched`](crate::Replica::stamp_batched)) and by
/// retransmission coalescing
/// ([`Replica::unacked_batch_for`](crate::Replica::unacked_batch_for)); the binary wire codec delta-encodes the
/// entries against each other (shared-prefix position identifiers, clock
/// diffs), so a batch costs far fewer bytes than its operations shipped one
/// envelope each.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpBatch<Op> {
    /// `(stamped flatten epoch, message)` pairs in stamp order.
    pub entries: Vec<(u64, CausalMessage<Op>)>,
}

impl<Op> OpBatch<Op> {
    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Wire format between replicas: causally stamped operations (tagged with
/// the sender's flatten epoch), operation batches, cumulative
/// acknowledgements for at-least-once delivery, the three
/// flatten-commitment messages of §4.2.1 (see [`crate::flatten`]) and the
/// anti-entropy messages (see [`crate::sync`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Envelope<Op> {
    /// A (possibly retransmitted) causally stamped operation.
    Op {
        /// The sender's flatten epoch when the operation was stamped. A
        /// receiver in an older epoch holds the message back until its own
        /// flatten commits; a receiver in a newer epoch counts it as late
        /// pre-flatten traffic (always a duplicate — see the module docs of
        /// [`crate::flatten`]) and lets the causal buffer discard it.
        epoch: u64,
        /// The stamped operation.
        msg: CausalMessage<Op>,
    },
    /// A batch of stamped operations, each tagged with its own epoch.
    /// Receiving a batch is exactly receiving its entries in order.
    OpBatch(OpBatch<Op>),
    /// A stamped operation delta-encoded against its sender's previous one
    /// (see [`crate::chain`]); the receiver resolves it against the
    /// predecessor it holds, and receiving it is then exactly receiving
    /// the absolute [`Envelope::Op`].
    OpChained(ChainedOp),
    /// Cumulative acknowledgement: `from` has delivered everything described
    /// by `clock` (in particular, `clock.get(receiver)` messages of the
    /// receiving replica).
    Ack {
        /// The acknowledging site.
        from: SiteId,
        /// Its delivered clock at acknowledgement time.
        clock: VectorClock,
    },
    /// Coordinator → participant: vote request for a flatten proposal.
    FlattenPropose(FlattenPropose),
    /// Participant → coordinator: a vote or phase acknowledgement.
    FlattenVote(FlattenVote),
    /// Coordinator → participant: pre-commit, commit or abort.
    FlattenDecision(FlattenDecision),
    /// Anti-entropy: root digest probe / echo (see [`crate::sync`]).
    SyncRoot(SyncRoot),
    /// Anti-entropy: sub-range digests of the merkle walk.
    SyncDigests(SyncDigests),
    /// Anti-entropy: the cells of a diverging leaf range.
    SyncRuns(SyncRuns),
    /// Bootstrap: announces a snapshot transfer to a joining site.
    SnapshotOffer(SnapshotOffer),
    /// Bootstrap: one piece of the offered snapshot.
    SnapshotChunk(SnapshotChunk),
}

/// What handling one envelope with [`Replica::receive_any`](crate::Replica::receive_any) produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Effect<Op> {
    /// Operations applied to the document: delivered ones, and held-back
    /// ones a flatten commit or a sync fast-forward released.
    pub applied: usize,
    /// Envelopes to send back to the handled envelope's sender: a flatten
    /// vote or acknowledgement, or the next messages of a sync session.
    pub replies: Vec<Envelope<Op>>,
    /// Cells that changed this replica's store (sync and bootstrap).
    pub cells_integrated: usize,
    /// `true` when a root comparison found the two states equal (the clock
    /// was fast-forwarded; the sync session is over).
    pub converged: bool,
    /// `true` when a snapshot bootstrap completed and this replica adopted
    /// the transferred state.
    pub bootstrapped: bool,
}

impl<Op> Default for Effect<Op> {
    fn default() -> Self {
        Effect {
            applied: 0,
            replies: Vec::new(),
            cells_integrated: 0,
            converged: false,
            bootstrapped: false,
        }
    }
}

/// First byte of every binary WAL record; a record opening with anything
/// else is refused as [`WireError::UnsupportedVersion`].
pub const WAL_BINARY_TAG: u8 = 0x02;

/// Why a wire decode failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion(u8),
    /// The input is truncated, carries an unknown tag, or is otherwise
    /// malformed.
    Malformed,
    /// The value decoded cleanly but bytes were left over.
    TrailingBytes,
    /// A chained WAL record was read without the record it is chained to.
    MissingPredecessor,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Malformed => write!(f, "malformed wire payload"),
            WireError::TrailingBytes => write!(f, "trailing bytes after wire payload"),
            WireError::MissingPredecessor => {
                write!(f, "chained WAL record without a predecessor")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// Appends `clock`, either in full (`prev = None`) or as its difference
/// from `prev`: every site whose value changed or appeared, with its new
/// value, and every site of `prev` that `clock` lacks, as value 0.
///
/// The delta is total — `clock` need not dominate `prev` — so consecutive
/// WAL records of a replica can chain its own stamps and the clocks of
/// messages from other senders alike.
fn put_clock(out: &mut Vec<u8>, clock: &VectorClock, prev: Option<&VectorClock>) {
    match prev {
        None => {
            put_varint(out, clock.sites() as u64);
            for (site, value) in clock.iter() {
                put_site(out, site);
                put_varint(out, value);
            }
        }
        Some(prev) => {
            let delta = || {
                let changed = clock
                    .iter()
                    .filter(|&(site, value)| prev.get(site) != value);
                let dropped = prev
                    .iter()
                    .filter(|&(site, _)| clock.get(site) == 0)
                    .map(|(site, _)| (site, 0));
                changed.chain(dropped)
            };
            put_varint(out, delta().count() as u64);
            for (site, value) in delta() {
                put_site(out, site);
                put_varint(out, value);
            }
        }
    }
}

/// Reads a clock, resolving a delta against `prev` when given. A decoded 0
/// removes the site ([`VectorClock`] holds no zero entries), so no stream
/// can smuggle in an explicit zero that compares unequal to its absence.
fn get_clock(input: &mut &[u8], prev: Option<&VectorClock>) -> Option<VectorClock> {
    let n = get_varint(input)? as usize;
    // Each entry costs at least 7 bytes; an oversized claim is truncation.
    if n > input.len() / 7 + 1 {
        return None;
    }
    let mut clock = prev.cloned().unwrap_or_default();
    for _ in 0..n {
        let site = get_site(input)?;
        let value = get_varint(input)?;
        clock.set_entry(site, value);
    }
    Some(clock)
}

// ---------------------------------------------------------------------------
// Causal messages and batch entries
// ---------------------------------------------------------------------------

/// Flag bit: this entry's sender equals the previous entry's.
const ENTRY_SAME_SENDER: u8 = 0b0000_0001;
/// Flag bit: this entry's clock is the previous entry's with the sender's
/// own counter incremented by one — the shape of every stamp issued without
/// intervening remote deliveries, i.e. the dominant case inside a batch. The
/// clock is elided entirely.
const ENTRY_CLOCK_INCREMENT: u8 = 0b0000_0010;
/// Flag bit: this entry's payload is the sequential run continuation of the
/// previous entry's — one cell of a coalesced edit run.
/// The payload ships as a run step ([`WirePayload::encode_run_step`]: for
/// operations, a side byte plus the atom) and the position identifier is
/// reconstructed at the receiver, so a whole run costs one full entry plus a
/// few bytes per atom.
const ENTRY_RUN_STEP: u8 = 0b0000_0100;

/// Appends a full (context-free) `(epoch, message)` entry — the layout of a
/// batch head and of a standalone [`Envelope::Op`] body.
fn put_entry_full<Op: WirePayload>(out: &mut Vec<u8>, epoch: u64, msg: &CausalMessage<Op>) {
    put_varint(out, epoch);
    put_site(out, msg.sender);
    put_clock(out, &msg.clock, None);
    msg.payload.encode_payload(None, out);
}

/// Appends one `(epoch, message)` batch entry, delta-encoded against the
/// previous entry (or in full when `prev = None`).
fn put_batch_entry<Op: WirePayload>(
    out: &mut Vec<u8>,
    entry: &(u64, CausalMessage<Op>),
    prev: Option<&(u64, CausalMessage<Op>)>,
) {
    let (epoch, msg) = entry;
    match prev {
        None => put_entry_full(out, *epoch, msg),
        Some((_, prev_msg)) => put_entry_after(out, *epoch, msg, prev_msg),
    }
}

/// Appends an `(epoch, message)` entry delta-encoded against `prev_msg`, the
/// entry written before it — in a batch, in the WAL chain, or (for a
/// chained envelope) the sender's previous stamped op.
pub(crate) fn put_entry_after<Op: WirePayload>(
    out: &mut Vec<u8>,
    epoch: u64,
    msg: &CausalMessage<Op>,
    prev_msg: &CausalMessage<Op>,
) {
    put_varint(out, epoch);
    let same_sender = prev_msg.sender == msg.sender;
    let clock_is_increment = {
        let mut expected = prev_msg.clock.clone();
        expected.increment(msg.sender);
        expected == msg.clock
    };
    let mut flags = 0u8;
    if same_sender {
        flags |= ENTRY_SAME_SENDER;
    }
    if clock_is_increment {
        flags |= ENTRY_CLOCK_INCREMENT;
    }
    let flags_at = out.len();
    put_u8(out, flags);
    if !same_sender {
        put_site(out, msg.sender);
    }
    if !clock_is_increment {
        put_clock(out, &msg.clock, Some(&prev_msg.clock));
    }
    // Run coalescing: a payload continuing the previous entry's run ships as
    // a step; encode_run_step writes nothing when it declines, so the flag
    // patch below is the only divergence between the two layouts.
    if msg.payload.encode_run_step(&prev_msg.payload, out) {
        out[flags_at] |= ENTRY_RUN_STEP;
    } else {
        msg.payload.encode_payload(Some(&prev_msg.payload), out);
    }
}

/// Reads one batch entry back.
fn get_batch_entry<Op: WirePayload>(
    input: &mut &[u8],
    prev: Option<&(u64, CausalMessage<Op>)>,
) -> Option<(u64, CausalMessage<Op>)> {
    match prev {
        None => get_entry_full(input),
        Some((_, prev_msg)) => get_entry_after(input, prev_msg),
    }
}

/// Reads an entry written by [`put_entry_full`].
fn get_entry_full<Op: WirePayload>(input: &mut &[u8]) -> Option<(u64, CausalMessage<Op>)> {
    let epoch = get_varint(input)?;
    let sender = get_site(input)?;
    let clock = get_clock(input, None)?;
    let payload = Op::decode_payload(input, None)?;
    Some((
        epoch,
        CausalMessage {
            sender,
            clock,
            payload,
        },
    ))
}

/// Reads an entry written by [`put_entry_after`] against `prev_msg`.
pub(crate) fn get_entry_after<Op: WirePayload>(
    input: &mut &[u8],
    prev_msg: &CausalMessage<Op>,
) -> Option<(u64, CausalMessage<Op>)> {
    let epoch = get_varint(input)?;
    let flags = get_u8(input)?;
    if flags & !(ENTRY_SAME_SENDER | ENTRY_CLOCK_INCREMENT | ENTRY_RUN_STEP) != 0 {
        return None;
    }
    let sender = if flags & ENTRY_SAME_SENDER != 0 {
        prev_msg.sender
    } else {
        get_site(input)?
    };
    let clock = if flags & ENTRY_CLOCK_INCREMENT != 0 {
        let mut clock = prev_msg.clock.clone();
        clock.increment(sender);
        clock
    } else {
        get_clock(input, Some(&prev_msg.clock))?
    };
    let payload = if flags & ENTRY_RUN_STEP != 0 {
        Op::decode_run_step(input, &prev_msg.payload)?
    } else {
        Op::decode_payload(input, Some(&prev_msg.payload))?
    };
    Some((
        epoch,
        CausalMessage {
            sender,
            clock,
            payload,
        },
    ))
}

/// Appends a count and `entries`, each after the first delta-encoded
/// against its predecessor — the body of an [`OpBatch`] and of a
/// [`SyncRoot`]'s chain heads.
fn put_entries<Op: WirePayload>(out: &mut Vec<u8>, entries: &[(u64, CausalMessage<Op>)]) {
    put_varint(out, entries.len() as u64);
    let mut prev: Option<&(u64, CausalMessage<Op>)> = None;
    for entry in entries {
        put_batch_entry(out, entry, prev);
        prev = Some(entry);
    }
}

/// Reads what [`put_entries`] wrote.
fn get_entries<Op: WirePayload>(input: &mut &[u8]) -> Option<Vec<(u64, CausalMessage<Op>)>> {
    let n = get_varint(input)? as usize;
    // A delta-encoded entry costs at least 4 bytes (epoch, flags, op tag,
    // path header); bound the claimed count by that floor so a hostile
    // length cannot amplify into an oversized reservation.
    if n > input.len() / 4 + 1 {
        return None;
    }
    let mut entries: Vec<(u64, CausalMessage<Op>)> = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = get_batch_entry(input, entries.last())?;
        entries.push(entry);
    }
    Some(entries)
}

/// Encodes chain heads for [`SyncRoot::chain_heads`]: empty for none, else
/// a count and the `(epoch, message)` entries, chained like a batch's.
pub fn encode_chain_heads<Op: WirePayload>(heads: &[(u64, CausalMessage<Op>)]) -> Vec<u8> {
    let mut out = Vec::new();
    if !heads.is_empty() {
        put_entries(&mut out, heads);
    }
    out
}

/// Decodes [`SyncRoot::chain_heads`], requiring the bytes to be consumed
/// exactly.
pub fn decode_chain_heads<Op: WirePayload>(
    bytes: &[u8],
) -> Result<Vec<(u64, CausalMessage<Op>)>, WireError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut input = bytes;
    let heads = get_entries(&mut input).ok_or(WireError::Malformed)?;
    if !input.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(heads)
}

/// Encoded size of one batch entry given its predecessor — the quantity the
/// sender-side flush policy ([`crate::replica::BatchPolicy`]) meters.
pub(crate) fn batch_entry_bytes<Op: WirePayload>(
    entry: &(u64, CausalMessage<Op>),
    prev: Option<&(u64, CausalMessage<Op>)>,
) -> usize {
    let mut scratch = Vec::with_capacity(64);
    put_batch_entry(&mut scratch, entry, prev);
    scratch.len()
}

// ---------------------------------------------------------------------------
// Small enums
// ---------------------------------------------------------------------------

fn protocol_byte(p: CommitProtocol) -> u8 {
    match p {
        CommitProtocol::TwoPhase => 0,
        CommitProtocol::ThreePhase => 1,
    }
}

fn protocol_from(byte: u8) -> Option<CommitProtocol> {
    match byte {
        0 => Some(CommitProtocol::TwoPhase),
        1 => Some(CommitProtocol::ThreePhase),
        _ => None,
    }
}

fn vote_byte(v: Vote) -> u8 {
    match v {
        Vote::No => 0,
        Vote::Yes => 1,
    }
}

fn vote_from(byte: u8) -> Option<Vote> {
    match byte {
        0 => Some(Vote::No),
        1 => Some(Vote::Yes),
        _ => None,
    }
}

fn stage_byte(s: VoteStage) -> u8 {
    match s {
        VoteStage::Vote => 0,
        VoteStage::AckPreCommit => 1,
        VoteStage::AckDecision => 2,
    }
}

fn stage_from(byte: u8) -> Option<VoteStage> {
    match byte {
        0 => Some(VoteStage::Vote),
        1 => Some(VoteStage::AckPreCommit),
        2 => Some(VoteStage::AckDecision),
        _ => None,
    }
}

fn decision_byte(k: DecisionKind) -> u8 {
    match k {
        DecisionKind::PreCommit => 0,
        DecisionKind::Commit => 1,
        DecisionKind::Abort => 2,
    }
}

fn decision_from(byte: u8) -> Option<DecisionKind> {
    match byte {
        0 => Some(DecisionKind::PreCommit),
        1 => Some(DecisionKind::Commit),
        2 => Some(DecisionKind::Abort),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

const ENV_OP: u8 = 1;
const ENV_ACK: u8 = 2;
const ENV_OP_BATCH: u8 = 3;
const ENV_FLATTEN_PROPOSE: u8 = 4;
const ENV_FLATTEN_VOTE: u8 = 5;
const ENV_FLATTEN_DECISION: u8 = 6;
// State-based anti-entropy (see `crate::sync`).
const ENV_SYNC_ROOT: u8 = 7;
const ENV_SYNC_DIGESTS: u8 = 8;
const ENV_SYNC_RUNS: u8 = 9;
const ENV_SNAPSHOT_OFFER: u8 = 10;
const ENV_SNAPSHOT_CHUNK: u8 = 11;
const ENV_OP_CHAINED: u8 = 12;

/// Sync-root flag bit: the receiver should answer with its own root.
const ROOT_REPLY: u8 = 0b01;
/// Sync-root flag bit: the root's length-prefixed chain heads follow.
const ROOT_CHAIN_HEADS: u8 = 0b10;
/// Sync-root flag bit: the receiver should answer with its chain heads.
const ROOT_WANT_HEADS: u8 = 0b100;

/// Digests are uniformly distributed 64-bit values: fixed-width
/// little-endian beats a varint for them.
fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn get_u64(input: &mut &[u8]) -> Option<u64> {
    let (head, rest) = input.split_first_chunk::<8>()?;
    *input = rest;
    Some(u64::from_le_bytes(*head))
}

/// Encodes an envelope into a fresh buffer.
pub fn encode_envelope<Op: WirePayload>(envelope: &Envelope<Op>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_envelope_into(envelope, &mut out);
    out
}

/// Appends an envelope's binary form (version byte, tag, body).
pub fn encode_envelope_into<Op: WirePayload>(envelope: &Envelope<Op>, out: &mut Vec<u8>) {
    put_u8(out, WIRE_VERSION);
    match envelope {
        Envelope::Op { epoch, msg } => {
            put_u8(out, ENV_OP);
            put_entry_full(out, *epoch, msg);
        }
        Envelope::OpChained(op) => {
            put_u8(out, ENV_OP_CHAINED);
            put_varint(out, op.epoch);
            put_site(out, op.sender);
            put_varint(out, op.seq);
            put_bytes(out, &op.entry);
        }
        Envelope::OpBatch(batch) => {
            put_u8(out, ENV_OP_BATCH);
            put_entries(out, &batch.entries);
        }
        Envelope::Ack { from, clock } => {
            put_u8(out, ENV_ACK);
            put_site(out, *from);
            put_clock(out, clock, None);
        }
        Envelope::FlattenPropose(p) => {
            put_u8(out, ENV_FLATTEN_PROPOSE);
            put_site(out, p.proposal.proposer);
            put_sides(out, &p.proposal.subtree);
            put_varint(out, p.proposal.base_revision);
            put_varint(out, p.proposal.txn);
            put_u8(out, protocol_byte(p.protocol));
            put_clock(out, &p.base_clock, None);
            put_varint(out, p.epoch);
        }
        Envelope::FlattenVote(v) => {
            put_u8(out, ENV_FLATTEN_VOTE);
            put_varint(out, v.txn);
            put_site(out, v.from);
            put_u8(out, vote_byte(v.vote));
            put_u8(out, stage_byte(v.stage));
        }
        Envelope::FlattenDecision(d) => {
            put_u8(out, ENV_FLATTEN_DECISION);
            put_varint(out, d.txn);
            put_u8(out, decision_byte(d.kind));
        }
        Envelope::SyncRoot(r) => {
            put_u8(out, ENV_SYNC_ROOT);
            put_site(out, r.from);
            put_u64(out, r.digest);
            put_varint(out, r.cells);
            put_clock(out, &r.clock, None);
            let heads = !r.chain_heads.is_empty();
            let mut flags = 0u8;
            if r.reply {
                flags |= ROOT_REPLY;
            }
            if heads {
                flags |= ROOT_CHAIN_HEADS;
            }
            if r.want_heads {
                flags |= ROOT_WANT_HEADS;
            }
            put_u8(out, flags);
            if heads {
                put_bytes(out, &r.chain_heads);
            }
        }
        Envelope::SyncDigests(d) => {
            put_u8(out, ENV_SYNC_DIGESTS);
            put_site(out, d.from);
            put_varint(out, d.ranges.len() as u64);
            for range in &d.ranges {
                put_bytes(out, &range.lo);
                put_bytes(out, &range.hi);
                put_u64(out, range.digest);
                put_varint(out, range.cells);
            }
        }
        Envelope::SyncRuns(r) => {
            put_u8(out, ENV_SYNC_RUNS);
            put_site(out, r.from);
            put_bytes(out, &r.lo);
            put_bytes(out, &r.hi);
            put_varint(out, r.count);
            put_bytes(out, &r.cells);
            put_u8(out, r.reply as u8);
        }
        Envelope::SnapshotOffer(o) => {
            put_u8(out, ENV_SNAPSHOT_OFFER);
            put_site(out, o.from);
            put_u64(out, o.digest);
            put_varint(out, o.total_bytes);
            put_varint(out, o.chunks);
        }
        Envelope::SnapshotChunk(c) => {
            put_u8(out, ENV_SNAPSHOT_CHUNK);
            put_site(out, c.from);
            put_varint(out, c.index);
            put_varint(out, c.total);
            put_bytes(out, &c.data);
        }
    }
}

/// Decodes an envelope, requiring the input to be consumed exactly.
pub fn decode_envelope<Op: WirePayload>(bytes: &[u8]) -> Result<Envelope<Op>, WireError> {
    let mut cursor = bytes;
    let envelope = decode_envelope_cursor(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(envelope)
}

/// Decodes an envelope off a cursor (used standalone and nested inside WAL
/// records).
fn decode_envelope_cursor<Op: WirePayload>(input: &mut &[u8]) -> Result<Envelope<Op>, WireError> {
    let version = get_u8(input).ok_or(WireError::Malformed)?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = get_u8(input).ok_or(WireError::Malformed)?;
    let envelope = match tag {
        ENV_OP => {
            let (epoch, msg) = get_entry_full(input).ok_or(WireError::Malformed)?;
            Envelope::Op { epoch, msg }
        }
        ENV_OP_CHAINED => {
            let epoch = get_varint(input).ok_or(WireError::Malformed)?;
            let sender = get_site(input).ok_or(WireError::Malformed)?;
            let seq = get_varint(input).ok_or(WireError::Malformed)?;
            let entry = get_bytes(input).ok_or(WireError::Malformed)?;
            // A chained op has a predecessor (sequence numbers start at 1),
            // and its entry holds at least an epoch and a flags byte.
            if seq < 2 || entry.len() < 2 {
                return Err(WireError::Malformed);
            }
            let entry = entry.to_vec();
            Envelope::OpChained(ChainedOp {
                epoch,
                sender,
                seq,
                entry,
            })
        }
        ENV_OP_BATCH => {
            let entries = get_entries(input).ok_or(WireError::Malformed)?;
            Envelope::OpBatch(OpBatch { entries })
        }
        ENV_ACK => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let clock = get_clock(input, None).ok_or(WireError::Malformed)?;
            Envelope::Ack { from, clock }
        }
        ENV_FLATTEN_PROPOSE => {
            let proposer = get_site(input).ok_or(WireError::Malformed)?;
            let subtree = get_sides(input).ok_or(WireError::Malformed)?;
            let base_revision = get_varint(input).ok_or(WireError::Malformed)?;
            let txn = get_varint(input).ok_or(WireError::Malformed)?;
            let protocol = protocol_from(get_u8(input).ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            let base_clock = get_clock(input, None).ok_or(WireError::Malformed)?;
            let epoch = get_varint(input).ok_or(WireError::Malformed)?;
            Envelope::FlattenPropose(FlattenPropose {
                proposal: FlattenProposal {
                    proposer,
                    subtree,
                    base_revision,
                    txn,
                },
                protocol,
                base_clock,
                epoch,
            })
        }
        ENV_FLATTEN_VOTE => {
            let txn = get_varint(input).ok_or(WireError::Malformed)?;
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let vote = vote_from(get_u8(input).ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            let stage = stage_from(get_u8(input).ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            Envelope::FlattenVote(FlattenVote {
                txn,
                from,
                vote,
                stage,
            })
        }
        ENV_FLATTEN_DECISION => {
            let txn = get_varint(input).ok_or(WireError::Malformed)?;
            let kind = decision_from(get_u8(input).ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            Envelope::FlattenDecision(FlattenDecision { txn, kind })
        }
        ENV_SYNC_ROOT => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let digest = get_u64(input).ok_or(WireError::Malformed)?;
            let cells = get_varint(input).ok_or(WireError::Malformed)?;
            let clock = get_clock(input, None).ok_or(WireError::Malformed)?;
            let flags = get_u8(input).ok_or(WireError::Malformed)?;
            if flags & !(ROOT_REPLY | ROOT_CHAIN_HEADS | ROOT_WANT_HEADS) != 0 {
                return Err(WireError::Malformed);
            }
            let reply = flags & ROOT_REPLY != 0;
            let want_heads = flags & ROOT_WANT_HEADS != 0;
            // Chain heads follow only when flagged, and are never empty.
            let chain_heads = if flags & ROOT_CHAIN_HEADS == 0 {
                Vec::new()
            } else {
                match get_bytes(input) {
                    Some(heads) if !heads.is_empty() => heads.to_vec(),
                    _ => return Err(WireError::Malformed),
                }
            };
            Envelope::SyncRoot(SyncRoot {
                from,
                digest,
                cells,
                clock,
                reply,
                want_heads,
                chain_heads,
            })
        }
        ENV_SYNC_DIGESTS => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let n = get_varint(input).ok_or(WireError::Malformed)? as usize;
            // A range costs at least 11 bytes (two length bytes, the digest,
            // a count); bound the claimed count by that floor.
            if n > input.len() / 11 + 1 {
                return Err(WireError::Malformed);
            }
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                let lo = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
                let hi = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
                let digest = get_u64(input).ok_or(WireError::Malformed)?;
                let cells = get_varint(input).ok_or(WireError::Malformed)?;
                ranges.push(RangeDigest {
                    lo,
                    hi,
                    digest,
                    cells,
                });
            }
            Envelope::SyncDigests(SyncDigests { from, ranges })
        }
        ENV_SYNC_RUNS => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let lo = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
            let hi = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
            let count = get_varint(input).ok_or(WireError::Malformed)?;
            let cells = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
            let reply = get_u8(input).ok_or(WireError::Malformed)? != 0;
            Envelope::SyncRuns(SyncRuns {
                from,
                lo,
                hi,
                count,
                cells,
                reply,
            })
        }
        ENV_SNAPSHOT_OFFER => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let digest = get_u64(input).ok_or(WireError::Malformed)?;
            let total_bytes = get_varint(input).ok_or(WireError::Malformed)?;
            let chunks = get_varint(input).ok_or(WireError::Malformed)?;
            Envelope::SnapshotOffer(SnapshotOffer {
                from,
                digest,
                total_bytes,
                chunks,
            })
        }
        ENV_SNAPSHOT_CHUNK => {
            let from = get_site(input).ok_or(WireError::Malformed)?;
            let index = get_varint(input).ok_or(WireError::Malformed)?;
            let total = get_varint(input).ok_or(WireError::Malformed)?;
            let data = get_bytes(input).ok_or(WireError::Malformed)?.to_vec();
            Envelope::SnapshotChunk(SnapshotChunk {
                from,
                index,
                total,
                data,
            })
        }
        _ => return Err(WireError::Malformed),
    };
    Ok(envelope)
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

const WAL_STAMPED: u8 = 1;
const WAL_RECEIVED: u8 = 2;
const WAL_PEERS_ENABLED: u8 = 3;
const WAL_PROPOSED: u8 = 4;
const WAL_FINISHED: u8 = 5;
// Chained forms of the op-carrying records: the entries are delta-encoded
// against the predecessor the WAL chain supplies (see [`WalChain`]).
const WAL_STAMPED_CHAINED: u8 = 6;
const WAL_RECEIVED_OP_CHAINED: u8 = 7;
const WAL_RECEIVED_BATCH_CHAINED: u8 = 8;

const FINISHED_COMMITTED: u8 = 0b0000_0001;
const FINISHED_UNILATERAL: u8 = 0b0000_0010;

/// Encodes a WAL record in its binary form (leading [`WAL_BINARY_TAG`]).
///
/// `prev` is the last operation entry journaled before this record since
/// the chain's last reset ([`WalChain`] keeps it). With a predecessor, an
/// op-carrying record is written in its chained form, delta-encoded against
/// it; without one it is written absolute. Records without operations
/// ignore `prev`.
pub fn encode_wal_record<Op: WirePayload>(
    record: &WalRecord<Op>,
    prev: Option<&(u64, CausalMessage<Op>)>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u8(&mut out, WAL_BINARY_TAG);
    match (record, prev) {
        (WalRecord::Stamped { epoch, msg }, None) => {
            put_u8(&mut out, WAL_STAMPED);
            put_entry_full(&mut out, *epoch, msg);
        }
        (WalRecord::Stamped { epoch, msg }, Some((_, prev_msg))) => {
            put_u8(&mut out, WAL_STAMPED_CHAINED);
            put_entry_after(&mut out, *epoch, msg, prev_msg);
        }
        (
            WalRecord::Received {
                envelope: Envelope::Op { epoch, msg },
            },
            Some((_, prev_msg)),
        ) => {
            put_u8(&mut out, WAL_RECEIVED_OP_CHAINED);
            put_entry_after(&mut out, *epoch, msg, prev_msg);
        }
        (
            WalRecord::Received {
                envelope: Envelope::OpBatch(batch),
            },
            Some((_, first)),
        ) if !batch.is_empty() => {
            put_u8(&mut out, WAL_RECEIVED_BATCH_CHAINED);
            put_varint(&mut out, batch.len() as u64);
            let mut prev_msg = first;
            for (epoch, msg) in &batch.entries {
                put_entry_after(&mut out, *epoch, msg, prev_msg);
                prev_msg = msg;
            }
        }
        (WalRecord::Received { envelope }, _) => {
            put_u8(&mut out, WAL_RECEIVED);
            encode_envelope_into(envelope, &mut out);
        }
        (WalRecord::PeersEnabled { peers }, _) => {
            put_u8(&mut out, WAL_PEERS_ENABLED);
            put_varint(&mut out, peers.len() as u64);
            for &peer in peers {
                put_site(&mut out, peer);
            }
        }
        (WalRecord::Proposed { subtree, protocol }, _) => {
            put_u8(&mut out, WAL_PROPOSED);
            put_sides(&mut out, subtree);
            put_u8(&mut out, protocol_byte(*protocol));
        }
        (
            WalRecord::Finished {
                txn,
                committed,
                unilateral,
            },
            _,
        ) => {
            put_u8(&mut out, WAL_FINISHED);
            put_varint(&mut out, *txn);
            let mut flags = 0u8;
            if *committed {
                flags |= FINISHED_COMMITTED;
            }
            if *unilateral {
                flags |= FINISHED_UNILATERAL;
            }
            put_u8(&mut out, flags);
        }
    }
    out
}

/// Decodes a binary WAL record (the payload must start with
/// [`WAL_BINARY_TAG`]). `prev` is the predecessor the record was encoded
/// against; a chained record without one is
/// [`WireError::MissingPredecessor`].
pub fn decode_wal_record<Op: WirePayload>(
    payload: &[u8],
    prev: Option<&(u64, CausalMessage<Op>)>,
) -> Result<WalRecord<Op>, WireError> {
    let mut cursor = payload;
    let lead = get_u8(&mut cursor).ok_or(WireError::Malformed)?;
    if lead != WAL_BINARY_TAG {
        return Err(WireError::UnsupportedVersion(lead));
    }
    let tag = get_u8(&mut cursor).ok_or(WireError::Malformed)?;
    let chained_prev = || prev.ok_or(WireError::MissingPredecessor);
    let record = match tag {
        WAL_STAMPED => {
            let (epoch, msg) = get_entry_full(&mut cursor).ok_or(WireError::Malformed)?;
            WalRecord::Stamped { epoch, msg }
        }
        WAL_STAMPED_CHAINED => {
            let (_, prev_msg) = chained_prev()?;
            let (epoch, msg) =
                get_entry_after(&mut cursor, prev_msg).ok_or(WireError::Malformed)?;
            WalRecord::Stamped { epoch, msg }
        }
        WAL_RECEIVED => WalRecord::Received {
            envelope: decode_envelope_cursor(&mut cursor)?,
        },
        WAL_RECEIVED_OP_CHAINED => {
            let (_, prev_msg) = chained_prev()?;
            let (epoch, msg) =
                get_entry_after(&mut cursor, prev_msg).ok_or(WireError::Malformed)?;
            WalRecord::Received {
                envelope: Envelope::Op { epoch, msg },
            }
        }
        WAL_RECEIVED_BATCH_CHAINED => {
            let (_, first) = chained_prev()?;
            let n = get_varint(&mut cursor).ok_or(WireError::Malformed)? as usize;
            // The encoder never chains an empty batch; bound the count by
            // the 4-byte floor of a delta-encoded entry, as for envelopes.
            if n == 0 || n > cursor.len() / 4 + 1 {
                return Err(WireError::Malformed);
            }
            let mut entries: Vec<(u64, CausalMessage<Op>)> = Vec::with_capacity(n);
            for _ in 0..n {
                let prev_msg = entries.last().map_or(first, |(_, msg)| msg);
                let entry = get_entry_after(&mut cursor, prev_msg).ok_or(WireError::Malformed)?;
                entries.push(entry);
            }
            WalRecord::Received {
                envelope: Envelope::OpBatch(OpBatch { entries }),
            }
        }
        WAL_PEERS_ENABLED => {
            let n = get_varint(&mut cursor).ok_or(WireError::Malformed)? as usize;
            if n > cursor.len() / 6 + 1 {
                return Err(WireError::Malformed);
            }
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                peers.push(get_site(&mut cursor).ok_or(WireError::Malformed)?);
            }
            WalRecord::PeersEnabled { peers }
        }
        WAL_PROPOSED => {
            let subtree = get_sides(&mut cursor).ok_or(WireError::Malformed)?;
            let protocol = protocol_from(get_u8(&mut cursor).ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            WalRecord::Proposed { subtree, protocol }
        }
        WAL_FINISHED => {
            let txn = get_varint(&mut cursor).ok_or(WireError::Malformed)?;
            let flags = get_u8(&mut cursor).ok_or(WireError::Malformed)?;
            if flags & !(FINISHED_COMMITTED | FINISHED_UNILATERAL) != 0 {
                return Err(WireError::Malformed);
            }
            WalRecord::Finished {
                txn,
                committed: flags & FINISHED_COMMITTED != 0,
                unilateral: flags & FINISHED_UNILATERAL != 0,
            }
        }
        _ => return Err(WireError::Malformed),
    };
    if !cursor.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(record)
}

/// The chain state of one WAL stream: the last operation entry journaled
/// since the chain was last reset.
///
/// The writer encodes each record against it ([`encode`](Self::encode)) and
/// [`advance`](Self::advance)s it once the append succeeded; the writer
/// [`reset`](Self::reset)s it on every checkpoint attempt, so the first
/// record of every WAL segment — every point a recovery can start from — is
/// absolute. Recovery replays the stream through a fresh chain
/// ([`decode`](Self::decode)), which leaves it where the writer's was, so a
/// recovered replica resumes the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct WalChain<Op> {
    last: Option<(u64, CausalMessage<Op>)>,
}

impl<Op> Default for WalChain<Op> {
    fn default() -> Self {
        WalChain { last: None }
    }
}

impl<Op: WirePayload + Clone> WalChain<Op> {
    /// An empty chain: the next record is written absolute.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry the next op-carrying record is chained to, if any.
    pub fn last(&self) -> Option<&(u64, CausalMessage<Op>)> {
        self.last.as_ref()
    }

    /// Forgets the predecessor (on a checkpoint attempt).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Encodes `record` as the next record of the stream.
    pub fn encode(&self, record: &WalRecord<Op>) -> Vec<u8> {
        encode_wal_record(record, self.last.as_ref())
    }

    /// Advances past `record`, which was just appended: its last operation
    /// entry, if it carries any, becomes the predecessor.
    pub fn advance(&mut self, record: WalRecord<Op>) {
        match record {
            WalRecord::Stamped { epoch, msg }
            | WalRecord::Received {
                envelope: Envelope::Op { epoch, msg },
            } => self.last = Some((epoch, msg)),
            WalRecord::Received {
                envelope: Envelope::OpBatch(mut batch),
            } => {
                if let Some(entry) = batch.entries.pop() {
                    self.last = Some(entry);
                }
            }
            _ => {}
        }
    }

    /// Decodes the next record of the stream and advances past it.
    pub fn decode(&mut self, payload: &[u8]) -> Result<WalRecord<Op>, WireError> {
        let record = decode_wal_record(payload, self.last.as_ref())?;
        match &record {
            WalRecord::Stamped { epoch, msg }
            | WalRecord::Received {
                envelope: Envelope::Op { epoch, msg },
            } => self.last = Some((*epoch, msg.clone())),
            WalRecord::Received {
                envelope: Envelope::OpBatch(batch),
            } => {
                if let Some(entry) = batch.entries.last() {
                    self.last = Some(entry.clone());
                }
            }
            _ => {}
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{Op, PathElem, PosId, Sdis, Side, SiteId};

    type TestOp = Op<String, Sdis>;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn pos(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
        PosId::from_elems(
            desc.iter()
                .map(|&(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(|d| Sdis::new(site(d))),
                })
                .collect(),
        )
    }

    fn clock(pairs: &[(u64, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(s, v) in pairs {
            c.set_entry(site(s), v);
        }
        c
    }

    fn msg(sender: u64, pairs: &[(u64, u64)], op: TestOp) -> CausalMessage<TestOp> {
        CausalMessage {
            sender: site(sender),
            clock: clock(pairs),
            payload: op,
        }
    }

    fn round_trip(env: &Envelope<TestOp>) {
        let bytes = encode_envelope(env);
        let back: Envelope<TestOp> = decode_envelope(&bytes).expect("decodes");
        assert_eq!(&back, env);
    }

    #[test]
    fn every_envelope_variant_round_trips() {
        round_trip(&Envelope::Op {
            epoch: 3,
            msg: msg(
                1,
                &[(1, 4), (2, 7)],
                Op::Insert {
                    id: pos(&[(1, None), (0, Some(2))]),
                    atom: "hello".into(),
                },
            ),
        });
        round_trip(&Envelope::Ack {
            from: site(2),
            clock: clock(&[(1, 10), (2, 3), (9, 1)]),
        });
        round_trip(&Envelope::FlattenPropose(FlattenPropose {
            proposal: FlattenProposal {
                proposer: site(1),
                subtree: vec![Side::Left, Side::Right],
                base_revision: 42,
                txn: (1 << 32) | 7,
            },
            protocol: CommitProtocol::ThreePhase,
            base_clock: clock(&[(1, 5), (2, 5)]),
            epoch: 2,
        }));
        for stage in [
            VoteStage::Vote,
            VoteStage::AckPreCommit,
            VoteStage::AckDecision,
        ] {
            for vote in [Vote::Yes, Vote::No] {
                round_trip(&Envelope::FlattenVote(FlattenVote {
                    txn: 9,
                    from: site(3),
                    vote,
                    stage,
                }));
            }
        }
        for kind in [
            DecisionKind::PreCommit,
            DecisionKind::Commit,
            DecisionKind::Abort,
        ] {
            round_trip(&Envelope::FlattenDecision(FlattenDecision { txn: 9, kind }));
        }
    }

    #[test]
    fn batches_round_trip_and_delta_encoding_pays_off() {
        // A run of sequential inserts from one sender: consecutive paths
        // share deep prefixes and clocks differ in one entry, the exact
        // shape the delta encoding targets.
        let mut entries = Vec::new();
        let mut elems: Vec<(u8, Option<u64>)> = vec![(1, Some(1))];
        for k in 0..32u64 {
            elems.push(((k % 2) as u8, Some(1)));
            entries.push((
                0u64,
                msg(
                    1,
                    &[(1, k + 1), (2, 4)],
                    Op::Insert {
                        id: pos(&elems),
                        atom: format!("line {k}"),
                    },
                ),
            ));
        }
        let batch = Envelope::OpBatch(OpBatch {
            entries: entries.clone(),
        });
        round_trip(&batch);

        let batched = encode_envelope(&batch).len();
        let unbatched: usize = entries
            .iter()
            .map(|(epoch, m)| {
                encode_envelope(&Envelope::Op {
                    epoch: *epoch,
                    msg: m.clone(),
                })
                .len()
            })
            .sum();
        assert!(
            batched * 2 < unbatched,
            "batch {batched}B vs per-op {unbatched}B"
        );
    }

    #[test]
    fn run_step_batches_round_trip() {
        use treedoc_core::spine_successor;
        // A sequential typing run: every identifier is the spine successor
        // of the previous one, so entries 1.. ship as run steps. Interleave
        // a delete and a sender change mid-batch to force fallbacks to the
        // full layout in the same envelope.
        let mut id = pos(&[(1, Some(1))]);
        let mut entries = Vec::new();
        entries.push((
            0u64,
            msg(
                1,
                &[(1, 1)],
                Op::Insert {
                    id: id.clone(),
                    atom: "a0".into(),
                },
            ),
        ));
        for k in 1..10u64 {
            id = spine_successor(&id, Side::Right).expect("spine grows");
            entries.push((
                0u64,
                msg(
                    1,
                    &[(1, k + 1)],
                    Op::Insert {
                        id: id.clone(),
                        atom: format!("a{k}"),
                    },
                ),
            ));
        }
        entries.push((
            0,
            msg(
                1,
                &[(1, 11)],
                Op::Delete {
                    id: pos(&[(1, Some(1))]),
                },
            ),
        ));
        entries.push((
            0,
            msg(
                2,
                &[(1, 11), (2, 1)],
                Op::Insert {
                    id: pos(&[(0, Some(2))]),
                    atom: "other".into(),
                },
            ),
        ));
        let batch = Envelope::OpBatch(OpBatch {
            entries: entries.clone(),
        });
        round_trip(&batch);

        // The nine continuation entries must each cost a handful of bytes:
        // epoch + flags + side + length-prefixed atom, no identifier.
        for window in entries[..10].windows(2) {
            let bytes = batch_entry_bytes(&window[1], Some(&window[0]));
            assert!(bytes <= 6, "continuation entry cost {bytes}B");
        }
    }

    #[test]
    fn empty_batches_round_trip() {
        round_trip(&Envelope::OpBatch(OpBatch {
            entries: Vec::new(),
        }));
    }

    #[test]
    fn wal_records_round_trip() {
        let records: Vec<WalRecord<TestOp>> = vec![
            WalRecord::Stamped {
                epoch: 1,
                msg: msg(
                    2,
                    &[(2, 9)],
                    Op::Delete {
                        id: pos(&[(0, Some(2))]),
                    },
                ),
            },
            WalRecord::Received {
                envelope: Envelope::OpBatch(OpBatch {
                    entries: vec![
                        (
                            0,
                            msg(
                                1,
                                &[(1, 1)],
                                Op::Insert {
                                    id: pos(&[(0, Some(1))]),
                                    atom: "a".into(),
                                },
                            ),
                        ),
                        (
                            0,
                            msg(
                                1,
                                &[(1, 2)],
                                Op::Insert {
                                    id: pos(&[(0, Some(1)), (1, Some(1))]),
                                    atom: "b".into(),
                                },
                            ),
                        ),
                    ],
                }),
            },
            WalRecord::PeersEnabled {
                peers: vec![site(1), site(2), site(3)],
            },
            WalRecord::Proposed {
                subtree: vec![Side::Right],
                protocol: CommitProtocol::TwoPhase,
            },
            WalRecord::Finished {
                txn: 77,
                committed: true,
                unilateral: true,
            },
        ];
        for record in &records {
            let bytes = encode_wal_record(record, None);
            assert_eq!(bytes[0], WAL_BINARY_TAG);
            let back: WalRecord<TestOp> = decode_wal_record(&bytes, None).expect("decodes");
            assert_eq!(&back, record);
        }
        // The same records as one stream: the op-carrying ones after the
        // first are chained, and the stream decodes back through a chain.
        let mut writer = WalChain::new();
        let mut reader = WalChain::new();
        for record in &records {
            let bytes = writer.encode(record);
            writer.advance(record.clone());
            assert_eq!(reader.decode(&bytes).as_ref(), Ok(record));
            assert_eq!(reader, writer);
        }
        assert!(writer.last().is_some());
    }

    #[test]
    fn chained_typing_stamps_cost_a_few_bytes_and_need_their_predecessor() {
        use treedoc_core::spine_successor;
        let mut id = pos(&[(1, Some(1))]);
        let mut writer = WalChain::new();
        let mut reader = WalChain::new();
        for k in 0..20u64 {
            let record = WalRecord::Stamped {
                epoch: 0,
                msg: msg(
                    1,
                    &[(1, k + 1), (2, 3)],
                    Op::Insert {
                        id: id.clone(),
                        atom: "x".into(),
                    },
                ),
            };
            let bytes = writer.encode(&record);
            if k > 0 {
                // Tag pair, epoch, flags, side byte, length-prefixed atom.
                assert_eq!(bytes.len(), 7, "stamp {k}: {bytes:02x?}");
                assert_eq!(
                    decode_wal_record::<TestOp>(&bytes, None),
                    Err(WireError::MissingPredecessor)
                );
            }
            assert_eq!(reader.decode(&bytes), Ok(record.clone()));
            writer.advance(record);
            id = spine_successor(&id, Side::Right).expect("spine grows");
        }
        writer.reset();
        let first = writer.encode(&WalRecord::Stamped {
            epoch: 0,
            msg: msg(1, &[(1, 21)], Op::Delete { id }),
        });
        assert_eq!(first[1], WAL_STAMPED, "a reset chain writes absolute");
    }

    #[test]
    fn malformed_and_truncated_input_yields_typed_errors() {
        let env: Envelope<TestOp> = Envelope::Op {
            epoch: 0,
            msg: msg(
                1,
                &[(1, 1)],
                Op::Insert {
                    id: pos(&[(0, Some(1))]),
                    atom: "x".into(),
                },
            ),
        };
        let bytes = encode_envelope(&env);
        for cut in 0..bytes.len() {
            assert!(
                decode_envelope::<TestOp>(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_envelope::<TestOp>(&trailing),
            Err(WireError::TrailingBytes)
        );
        assert_eq!(
            decode_envelope::<TestOp>(&[9, ENV_OP]),
            Err(WireError::UnsupportedVersion(9))
        );
        assert_eq!(
            decode_envelope::<TestOp>(&[WIRE_VERSION, 200]),
            Err(WireError::Malformed)
        );
        // A JSON-text WAL record is refused by its leading byte, not
        // misparsed.
        assert_eq!(
            decode_wal_record::<TestOp>(b"{\"PeersEnabled\":{}}", None),
            Err(WireError::UnsupportedVersion(b'{'))
        );
    }
}

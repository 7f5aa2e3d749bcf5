//! State-based anti-entropy: merkle digest walks and late-joiner bootstrap.
//!
//! Operation shipping (the [`Envelope::Op`]/[`Envelope::OpBatch`] path) moves
//! *changes*; this module moves *state*. Two replicas compare their
//! incremental merkle digests (see `treedoc_core::hash`), walk the diverging
//! identifier ranges with `O(log n)` digest exchanges, and ship only the runs
//! of cells that actually differ — so a replica that missed `k` of `m`
//! operations pays `O(k + log m)` wire bytes to catch up, however the misses
//! are distributed, instead of re-receiving a whole retransmission window.
//!
//! ## The protocol
//!
//! Every message is **stateless and idempotent**; neither side keeps a
//! session object, so lost or reordered sync messages degrade to extra
//! rounds, never to corruption.
//!
//! 1. A replica opens with [`Replica::sync_probe`]: a [`SyncRoot`] carrying
//!    its root digest, stored-cell count and vector clock.
//! 2. A receiver whose root matches fast-forwards its causal clock (the
//!    states are equal, so everything the sender delivered is covered) and
//!    answers the probe with its own root, letting the sender fast-forward
//!    too. The echo carries the chain heads the probe's clock does not
//!    cover, adopted with the clock (see [`crate::chain`]); when the merge
//!    moved the echoing replica's clock, the echo asks for the prober's
//!    heads, which follow in one more root. A receiver whose root differs
//!    answers with [`SyncDigests`]: its digest over each of up to
//!    [`FANOUT`] sub-ranges tiling the identifier space.
//! 3. [`SyncDigests`] ranges that match locally are dropped; a mismatched
//!    range is split again (ping-ponging the walk between the peers) until
//!    either side's range population falls under [`LEAF_CELLS`],
//!    at which point the cells themselves cross as [`SyncRuns`]: the
//!    initiating side sends its cells, the receiver integrates and echoes
//!    back only the **difference** (cells absent from, or outranking, the
//!    incoming list), both applying the tombstone-beats-live-beats-ghost
//!    precedence of `RunTree::integrate_cell`.
//! 4. The driver re-probes; equal roots end the session with the clock
//!    fast-forward of step 2.
//!
//! Every message, probe and echo alike, goes through
//! [`Replica::receive_any`], which answers with the replies to send back.
//!
//! A brand-new site skips the walk entirely: any peer can send a
//! [`SnapshotOffer`] followed by [`SnapshotChunk`]s
//! ([`Replica::snapshot_envelopes`], [`CHUNK_BYTES`] each) — the document's
//! durable snapshot sections, reused verbatim from the storage layer — and
//! the joiner adopts the decoded state under its **own** site identity
//! ([`SyncDocument::adopt_bootstrap`]), then runs one digest round to pick
//! up its clock.
//!
//! Sync traffic is **not journaled**: every message is idempotent and the
//! repaired state is re-derivable, so a crash mid-session simply loses the
//! session — the recovered replica re-syncs. Clock fast-forwards and
//! integrated cells become durable together at the next checkpoint, keeping
//! the recovered clock and content consistent with each other.
//!
//! The walk is sound for tombstone-keeping (SDIS) documents, whose stored
//! cell set only grows; UDIS discards deleted cells, making "deleted"
//! indistinguishable from "never seen" for state comparison — UDIS
//! deployments should stay on operation shipping.
//!
//! [`Envelope::Op`]: crate::replica::Envelope::Op
//! [`Envelope::OpBatch`]: crate::replica::Envelope::OpBatch
//! [`Replica::sync_probe`]: crate::replica::Replica::sync_probe
//! [`Replica::receive_any`]: crate::replica::Replica::receive_any
//! [`Replica::snapshot_envelopes`]: crate::replica::Replica::snapshot_envelopes

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

use treedoc_core::codec::{put_pos_id, put_u8, put_varint, WireAtom, WireDis};
use treedoc_core::{
    codec::get_pos_id, Atom, Content, Disambiguator, HasSource, PosId, SiteId, Treedoc,
};
use treedoc_storage::Snapshot;
use treedoc_telemetry::{Counter, Telemetry};

use crate::clock::VectorClock;
use crate::persist::PersistentDocument;
use crate::replica::ReplicatedDocument;
use crate::wire::{Effect, Envelope};

/// Sub-ranges a mismatched range is split into per round. Higher fanout
/// means fewer rounds but larger digest messages.
pub const FANOUT: usize = 8;

/// A range whose population (on either side) is at or under this threshold
/// ships its cells instead of splitting further. Leaf exchanges ship the
/// range's cells in **both** directions (each side repairs the other), so a
/// large leaf wastes bytes re-shipping cells both sides already share: a
/// digest entry costs ~30 B against ~30 B per cell, which makes a small leaf
/// the cheaper trade until a range is mostly missing.
pub const LEAF_CELLS: usize = 16;

/// Payload bytes per [`SnapshotChunk`] of the bootstrap path: large enough
/// that a chunk's envelope overhead is noise, small enough that one lost
/// chunk costs little to resend.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// The opening digest probe (and its echo): root digest, stored-cell count
/// and the sender's causal clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRoot {
    /// The probing site.
    pub from: SiteId,
    /// Its root merkle digest.
    pub digest: u64,
    /// Its stored-cell count (digest 0 is ambiguous without it).
    pub cells: u64,
    /// Its delivered vector clock, merged by the receiver when the states
    /// turn out equal.
    pub clock: VectorClock,
    /// `true` asks the receiver to answer with its own root (an echo sets
    /// this to `false`, ending the exchange).
    pub reply: bool,
    /// Set on an echo whose sender merged clock entries from the probe: the
    /// prober answers with one more root carrying its chain heads.
    pub want_heads: bool,
    /// The sender's chain heads: per site, the newest operation it stamped
    /// or resolved in its current flatten epoch and delivered, encoded with
    /// [`crate::wire::encode_chain_heads`] (empty for none). A probe
    /// carries none, an echo those the probe's clock does not cover, and
    /// the answer to `want_heads` all of them. A receiver that adopts
    /// `clock` adopts these too, so envelopes chained to operations it got
    /// by state transfer still resolve (see [`crate::chain`]).
    pub chain_heads: Vec<u8>,
}

/// One sub-range of the digest walk: half-open identifier bounds (encoded —
/// empty bytes mean unbounded) with the sender's digest over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeDigest {
    /// Encoded inclusive lower bound ([`encode_bound`]); empty = from the
    /// start.
    pub lo: Vec<u8>,
    /// Encoded exclusive upper bound; empty = to the end.
    pub hi: Vec<u8>,
    /// The sender's merkle digest over the range.
    pub digest: u64,
    /// The sender's stored-cell count in the range.
    pub cells: u64,
}

/// A round of the walk: the sender's digests over sub-ranges tiling the part
/// of the identifier space still under suspicion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncDigests {
    /// The sender.
    pub from: SiteId,
    /// Its sub-range digests, in identifier order.
    pub ranges: Vec<RangeDigest>,
}

/// A leaf of the walk: every cell the sender stores in the range, encoded
/// with shared-prefix identifier compression ([`encode_cells`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRuns {
    /// The sender.
    pub from: SiteId,
    /// Encoded range bounds (same convention as [`RangeDigest`]).
    pub lo: Vec<u8>,
    /// Encoded exclusive upper bound.
    pub hi: Vec<u8>,
    /// Number of cells in `cells`.
    pub count: u64,
    /// The encoded cell list ([`encode_cells`]).
    pub cells: Vec<u8>,
    /// `true` asks the receiver to send back the same range's **difference**
    /// — only the cells absent from (or outranked by) this message's list,
    /// computed before integrating so freshly learned cells are not echoed.
    pub reply: bool,
}

/// Announces a snapshot transfer to a bootstrapping site: how many
/// [`SnapshotChunk`]s follow and what the assembled state digests to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotOffer {
    /// The donor site.
    pub from: SiteId,
    /// Content digest of the offered document state, checked after adoption.
    pub digest: u64,
    /// Total encoded snapshot bytes.
    pub total_bytes: u64,
    /// Number of chunks that follow.
    pub chunks: u64,
}

/// One piece of an offered snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// The donor site.
    pub from: SiteId,
    /// Zero-based chunk index.
    pub index: u64,
    /// Total chunk count (repeated so a chunk is self-describing).
    pub total: u64,
    /// The chunk's bytes.
    pub data: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Bound and cell-list encodings
// ---------------------------------------------------------------------------

/// Encodes an optional identifier bound: empty bytes for unbounded,
/// otherwise the identifier delta-encoded against the root.
pub fn encode_bound<D: WireDis>(bound: Option<&PosId<D>>) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(id) = bound {
        put_pos_id(&mut out, id, &PosId::root());
    }
    out
}

/// Decodes a bound written by [`encode_bound`]. `None` means the bytes were
/// malformed (the outer `Option` is the parse result, the inner one the
/// bound itself).
pub fn decode_bound<D: WireDis>(bytes: &[u8]) -> Option<Option<PosId<D>>> {
    if bytes.is_empty() {
        return Some(None);
    }
    let mut cursor = bytes;
    let id = get_pos_id(&mut cursor, &PosId::root())?;
    cursor.is_empty().then_some(Some(id))
}

const CELL_LIVE: u8 = 1;
const CELL_TOMBSTONE: u8 = 2;
const CELL_GHOST: u8 = 3;

/// Encodes an ordered cell list: a count, then per cell the identifier
/// (delta-encoded against its predecessor, so runs share their path prefix),
/// a content tag and — for live cells — the atom.
pub fn encode_cells<A: WireAtom, D: WireDis>(cells: &[(PosId<D>, Content<A>)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, cells.len() as u64);
    let root = PosId::root();
    let mut prev: &PosId<D> = &root;
    for (id, content) in cells {
        put_pos_id(&mut out, id, prev);
        match content {
            Content::Live(atom) => {
                put_u8(&mut out, CELL_LIVE);
                atom.encode_atom(&mut out);
            }
            Content::Tombstone => put_u8(&mut out, CELL_TOMBSTONE),
            Content::Ghost => put_u8(&mut out, CELL_GHOST),
            // The run store never stores Absent cells; encode it as a ghost
            // (harmless: ghosts are the weakest content rank).
            Content::Absent => put_u8(&mut out, CELL_GHOST),
        }
        prev = id;
    }
    out
}

/// Decodes a cell list written by [`encode_cells`]. Total: malformed input
/// yields `None`, never a panic or oversized allocation.
pub fn decode_cells<A: WireAtom, D: WireDis>(bytes: &[u8]) -> Option<Vec<(PosId<D>, Content<A>)>> {
    let mut cursor = bytes;
    let n = treedoc_core::codec::get_varint(&mut cursor)? as usize;
    // Each cell costs at least 3 bytes (two path varints, a tag).
    if n > cursor.len() / 3 + 1 {
        return None;
    }
    let mut cells = Vec::with_capacity(n);
    let mut prev = PosId::root();
    for _ in 0..n {
        let id = get_pos_id(&mut cursor, &prev)?;
        let content = match treedoc_core::codec::get_u8(&mut cursor)? {
            CELL_LIVE => Content::Live(A::decode_atom(&mut cursor)?),
            CELL_TOMBSTONE => Content::Tombstone,
            CELL_GHOST => Content::Ghost,
            _ => return None,
        };
        prev = id.clone();
        cells.push((id, content));
    }
    cursor.is_empty().then_some(cells)
}

// ---------------------------------------------------------------------------
// The document side of the protocol
// ---------------------------------------------------------------------------

/// A document that can take part in state-based anti-entropy. The range
/// bounds cross the wire opaque ([`encode_bound`]), so the replica layer can
/// stay generic over the document.
pub trait SyncDocument: ReplicatedDocument {
    /// Root merkle digest and stored-cell count.
    fn sync_root(&self) -> (u64, u64);

    /// Digest and cell count over an encoded bound range; `None` when the
    /// bounds are malformed.
    fn sync_range(&self, lo: &[u8], hi: &[u8]) -> Option<(u64, u64)>;

    /// Splits the range into up to `fanout` sub-ranges (tiling it exactly,
    /// partitioned at this document's local cell ranks) with their digests.
    fn sync_split(&self, lo: &[u8], hi: &[u8], fanout: usize) -> Option<Vec<RangeDigest>>;

    /// Encodes every stored cell in the range; returns the bytes and the
    /// cell count.
    fn sync_cells(&self, lo: &[u8], hi: &[u8]) -> Option<(Vec<u8>, u64)>;

    /// Encodes the cells in the range that an `incoming` cell list (the
    /// peer's side of the same range) provably lacks: cells absent from the
    /// list, or present with strictly weaker content under the
    /// ghost < live < tombstone precedence. This is the echo half of a leaf
    /// exchange — shipping only the difference keeps a leaf's cost
    /// proportional to the divergence, not to the range population.
    fn sync_cells_absent_from(
        &self,
        lo: &[u8],
        hi: &[u8],
        incoming: &[u8],
    ) -> Option<(Vec<u8>, u64)>;

    /// Integrates an encoded cell list; returns how many cells changed the
    /// store, or `None` when the bytes are malformed.
    fn sync_integrate(&mut self, cells: &[u8]) -> Option<usize>;

    /// Encodes the whole document as bootstrap bytes (the durable snapshot
    /// sections).
    fn encode_bootstrap(&self) -> Vec<u8>;

    /// Replaces this document's content with a decoded bootstrap state while
    /// keeping the local identity (site, disambiguator source). `None` when
    /// the bytes fail to decode or verify.
    fn adopt_bootstrap(&mut self, bytes: &[u8]) -> Option<()>;
}

impl<A, D> SyncDocument for Treedoc<A, D>
where
    A: Atom + WireAtom + std::hash::Hash,
    D: Disambiguator + WireDis + HasSource,
{
    fn sync_root(&self) -> (u64, u64) {
        let (digest, cells) = self.store().range_digest(None, None);
        (digest, cells as u64)
    }

    fn sync_range(&self, lo: &[u8], hi: &[u8]) -> Option<(u64, u64)> {
        let lo = decode_bound::<D>(lo)?;
        let hi = decode_bound::<D>(hi)?;
        let (digest, cells) = self.store().range_digest(lo.as_ref(), hi.as_ref());
        Some((digest, cells as u64))
    }

    fn sync_split(&self, lo: &[u8], hi: &[u8], fanout: usize) -> Option<Vec<RangeDigest>> {
        let lo = decode_bound::<D>(lo)?;
        let hi = decode_bound::<D>(hi)?;
        let store = self.store();
        let fanout = fanout.max(2);
        // Rank of the first cell at or after `lo` = how many cells precede
        // it; the range population then yields evenly spaced local split
        // points.
        let start = match lo.as_ref() {
            None => 0,
            Some(l) => store.range_digest(None, Some(l)).1,
        };
        let (_, n) = store.range_digest(lo.as_ref(), hi.as_ref());
        let mut bounds: Vec<Option<PosId<D>>> = vec![lo.clone()];
        for k in 1..fanout {
            let rank = start + k * n / fanout;
            if let Some(id) = store.id_at_rank(rank) {
                // Skip split points that collapse onto the previous bound
                // (small populations) or escape the range.
                let past_lo = bounds
                    .last()
                    .is_none_or(|b| b.as_ref().is_none_or(|p| *p < id));
                let before_hi = hi.as_ref().is_none_or(|h| id < *h);
                if past_lo && before_hi {
                    bounds.push(Some(id));
                }
            }
        }
        bounds.push(hi);
        let mut ranges = Vec::with_capacity(bounds.len() - 1);
        for pair in bounds.windows(2) {
            let (blo, bhi) = (&pair[0], &pair[1]);
            let (digest, cells) = store.range_digest(blo.as_ref(), bhi.as_ref());
            ranges.push(RangeDigest {
                lo: encode_bound(blo.as_ref()),
                hi: encode_bound(bhi.as_ref()),
                digest,
                cells: cells as u64,
            });
        }
        Some(ranges)
    }

    fn sync_cells(&self, lo: &[u8], hi: &[u8]) -> Option<(Vec<u8>, u64)> {
        let lo = decode_bound::<D>(lo)?;
        let hi = decode_bound::<D>(hi)?;
        let cells = self.store().cells_in_range(lo.as_ref(), hi.as_ref());
        let count = cells.len() as u64;
        Some((encode_cells(&cells), count))
    }

    fn sync_cells_absent_from(
        &self,
        lo: &[u8],
        hi: &[u8],
        incoming: &[u8],
    ) -> Option<(Vec<u8>, u64)> {
        let incoming = decode_cells::<A, D>(incoming)?;
        let ranks: std::collections::BTreeMap<PosId<D>, u8> = incoming
            .into_iter()
            .map(|(id, content)| (id, content.rank()))
            .collect();
        let lo = decode_bound::<D>(lo)?;
        let hi = decode_bound::<D>(hi)?;
        let mut cells = self.store().cells_in_range(lo.as_ref(), hi.as_ref());
        // Identifier uniqueness makes equal-rank cells identical (two live
        // cells with one id always hold the same atom), so only a missing id
        // or a strictly weaker peer rank means the peer needs this cell.
        cells.retain(|(id, content)| match ranks.get(id) {
            None => true,
            Some(&rank) => content.rank() > rank,
        });
        let count = cells.len() as u64;
        Some((encode_cells(&cells), count))
    }

    fn sync_integrate(&mut self, cells: &[u8]) -> Option<usize> {
        let cells = decode_cells::<A, D>(cells)?;
        self.integrate_cells(cells).ok()
    }

    fn encode_bootstrap(&self) -> Vec<u8> {
        let mut snapshot = Snapshot::new();
        self.encode_sections(&mut snapshot);
        snapshot.encode()
    }

    fn adopt_bootstrap(&mut self, bytes: &[u8]) -> Option<()> {
        let snapshot = Snapshot::decode(bytes).ok()?;
        let donor = <Treedoc<A, D>>::decode_sections(&snapshot).ok()?;
        self.adopt_state(donor);
        Some(())
    }
}

// ---------------------------------------------------------------------------
// The replica side of the protocol
// ---------------------------------------------------------------------------

/// The `sync.*` counters of a replica.
#[derive(Debug, Clone, Default)]
struct SyncMetrics {
    digests_rx: Counter,
    runs_rx: Counter,
    echo_bytes: Counter,
    cells_integrated: Counter,
}

/// Collects the chunks of one snapshot transfer until all have arrived.
#[derive(Debug)]
struct BootstrapAssembly {
    from: SiteId,
    digest: u64,
    total_bytes: u64,
    chunks: u64,
    received: BTreeMap<u64, Vec<u8>>,
}

/// A replica's side of the digest walk and the bootstrap. Only a bootstrap
/// keeps state, the chunks in flight, and that is transient (a crash
/// restarts the transfer). Counts into `sync.*`.
#[derive(Debug, Default)]
pub(crate) struct SyncSession {
    bootstrap: Option<BootstrapAssembly>,
    metrics: SyncMetrics,
}

impl SyncSession {
    /// Counts into `telemetry`'s `sync.*` counters.
    pub(crate) fn bind(&mut self, telemetry: &Telemetry) {
        self.metrics = SyncMetrics {
            digests_rx: telemetry.counter("sync.digests_rx"),
            runs_rx: telemetry.counter("sync.runs_rx"),
            echo_bytes: telemetry.counter("sync.echo_bytes"),
            cells_integrated: telemetry.counter("sync.cells_integrated"),
        };
    }

    /// Handles a sync or bootstrap envelope addressed to `site`, whose
    /// document is `doc`. A root of the same state is the replica's to
    /// handle: adopting the peer's clock and chain heads touches its causal
    /// buffer and chain resolver.
    pub(crate) fn receive<Doc: SyncDocument>(
        &mut self,
        doc: &mut Doc,
        site: SiteId,
        envelope: Envelope<Doc::Op>,
    ) -> Effect<Doc::Op> {
        let mut effect = Effect::default();
        match envelope {
            // A mismatched echo means the repair phase is (still) running:
            // the next probe re-compares.
            Envelope::SyncRoot(root) if root.reply => {
                let whole = RangeDigest {
                    lo: Vec::new(),
                    hi: Vec::new(),
                    digest: root.digest,
                    cells: root.cells,
                };
                effect.replies = walk(doc, site, vec![whole]);
            }
            Envelope::SyncDigests(digests) => {
                self.metrics.digests_rx.inc();
                effect.replies = walk(doc, site, digests.ranges);
            }
            // A leaf: integrate the peer's cells and, when asked, echo only
            // those it provably lacks, computed *before* integrating, so a
            // leaf costs bytes proportional to the divergence.
            Envelope::SyncRuns(runs) => {
                self.metrics.runs_rx.inc();
                let mine = runs
                    .reply
                    .then(|| doc.sync_cells_absent_from(&runs.lo, &runs.hi, &runs.cells))
                    .flatten();
                effect.cells_integrated = doc.sync_integrate(&runs.cells).unwrap_or(0);
                self.metrics
                    .cells_integrated
                    .add(effect.cells_integrated as u64);
                if let Some((cells, count)) = mine.filter(|(_, count)| *count > 0) {
                    self.metrics.echo_bytes.add(cells.len() as u64);
                    effect.replies.push(Envelope::SyncRuns(SyncRuns {
                        from: site,
                        lo: runs.lo,
                        hi: runs.hi,
                        count,
                        cells,
                        reply: false,
                    }));
                }
            }
            Envelope::SnapshotOffer(offer) => {
                self.bootstrap = Some(BootstrapAssembly {
                    from: offer.from,
                    digest: offer.digest,
                    total_bytes: offer.total_bytes,
                    chunks: offer.chunks,
                    received: BTreeMap::new(),
                });
            }
            Envelope::SnapshotChunk(chunk) => {
                if let Some(cells) = self.on_chunk(doc, chunk) {
                    effect.cells_integrated = cells;
                    effect.bootstrapped = true;
                }
            }
            _ => {}
        }
        effect
    }

    /// Collects one chunk; the last makes `doc` adopt the assembled state,
    /// returning its stored cells when the state verifies.
    fn on_chunk<Doc: SyncDocument>(
        &mut self,
        doc: &mut Doc,
        chunk: SnapshotChunk,
    ) -> Option<usize> {
        let assembly = self.bootstrap.as_mut()?;
        if chunk.from != assembly.from || chunk.total != assembly.chunks {
            return None; // from a different transfer
        }
        assembly.received.insert(chunk.index, chunk.data);
        if (assembly.received.len() as u64) < assembly.chunks {
            return None;
        }
        let assembly = self.bootstrap.take()?;
        let bytes: Vec<u8> = assembly.received.into_values().flatten().collect();
        if bytes.len() as u64 != assembly.total_bytes {
            return None; // chunk indices lied about coverage
        }
        doc.adopt_bootstrap(&bytes)?;
        (doc.digest() == assembly.digest).then(|| doc.sync_root().1 as usize)
    }
}

/// The replies to a round of the walk: ranges that agree are dropped; a
/// mismatched range small enough on either side ([`LEAF_CELLS`]) ships its
/// cells, asking for the peer's difference back; the rest split into
/// [`FANOUT`] sub-ranges each, sent as one [`SyncDigests`]. Ranges with
/// malformed bounds are dropped.
fn walk<Doc: SyncDocument>(
    doc: &Doc,
    site: SiteId,
    ranges: Vec<RangeDigest>,
) -> Vec<Envelope<Doc::Op>> {
    let mut replies = Vec::new();
    let mut narrowed = Vec::new();
    for range in ranges {
        let Some((my_digest, my_cells)) = doc.sync_range(&range.lo, &range.hi) else {
            continue;
        };
        if my_digest == range.digest && my_cells == range.cells {
            continue;
        }
        if my_cells as usize <= LEAF_CELLS || range.cells as usize <= LEAF_CELLS {
            if let Some((cells, count)) = doc.sync_cells(&range.lo, &range.hi) {
                replies.push(Envelope::SyncRuns(SyncRuns {
                    from: site,
                    lo: range.lo,
                    hi: range.hi,
                    count,
                    cells,
                    reply: true,
                }));
            }
        } else if let Some(split) = doc.sync_split(&range.lo, &range.hi, FANOUT) {
            narrowed.extend(split);
        }
    }
    if !narrowed.is_empty() {
        replies.push(Envelope::SyncDigests(SyncDigests {
            from: site,
            ranges: narrowed,
        }));
    }
    replies
}

/// The donor side of the bootstrap path: `doc` encoded as a
/// [`SnapshotOffer`] from `site` followed by its [`SnapshotChunk`]s of
/// [`CHUNK_BYTES`], for a joining site to adopt (the joiner then runs a
/// normal sync session to pick up its causal clock).
pub(crate) fn snapshot_envelopes<Doc: SyncDocument>(
    doc: &Doc,
    site: SiteId,
) -> Vec<Envelope<Doc::Op>> {
    let bytes = doc.encode_bootstrap();
    let pieces: Vec<&[u8]> = if bytes.is_empty() {
        vec![&[]]
    } else {
        bytes.chunks(CHUNK_BYTES).collect()
    };
    let total = pieces.len() as u64;
    let mut out = Vec::with_capacity(pieces.len() + 1);
    out.push(Envelope::SnapshotOffer(SnapshotOffer {
        from: site,
        digest: doc.digest(),
        total_bytes: bytes.len() as u64,
        chunks: total,
    }));
    for (index, piece) in pieces.into_iter().enumerate() {
        out.push(Envelope::SnapshotChunk(SnapshotChunk {
            from: site,
            index: index as u64,
            total,
            data: piece.to_vec(),
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{Sdis, SiteId};

    type Doc = Treedoc<String, Sdis>;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn doc_with(n: usize) -> Doc {
        let mut doc = Doc::new(site(1));
        for i in 0..n {
            doc.local_insert(i, format!("line {i}")).unwrap();
        }
        doc
    }

    #[test]
    fn bounds_round_trip_including_unbounded() {
        let doc = doc_with(5);
        let id = doc.id_at(3).unwrap();
        let bytes = encode_bound(Some(&id));
        assert_eq!(decode_bound::<Sdis>(&bytes), Some(Some(id)));
        assert_eq!(decode_bound::<Sdis>(&[]), Some(None));
        assert_eq!(decode_bound::<Sdis>(&[0xFF, 0xFF]), None, "malformed");
    }

    #[test]
    fn cell_lists_round_trip() {
        let mut doc = doc_with(10);
        doc.local_delete(4).unwrap(); // leaves a tombstone (SDIS)
        let cells = doc.store().cells_in_range(None, None);
        let bytes = encode_cells(&cells);
        let back = decode_cells::<String, Sdis>(&bytes).expect("decodes");
        assert_eq!(back, cells);
        assert!(
            decode_cells::<String, Sdis>(&bytes[..bytes.len() - 1]).is_none(),
            "truncation is detected"
        );
    }

    #[test]
    fn split_tiles_the_range_and_digests_compose() {
        let doc = doc_with(200);
        let ranges = doc.sync_split(&[], &[], 8).expect("splits");
        assert!(ranges.len() > 1 && ranges.len() <= 8);
        assert!(ranges.first().unwrap().lo.is_empty(), "starts unbounded");
        assert!(ranges.last().unwrap().hi.is_empty(), "ends unbounded");
        let total: u64 = ranges.iter().map(|r| r.cells).sum();
        let (root_digest, root_cells) = doc.sync_root();
        assert_eq!(total, root_cells, "sub-ranges tile the whole space");
        // Adjacent ranges share their boundary.
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].hi, pair[1].lo);
        }
        // Each reported digest matches a fresh range query.
        for r in &ranges {
            let (d, n) = doc.sync_range(&r.lo, &r.hi).unwrap();
            assert_eq!((d, n), (r.digest, r.cells));
        }
        let _ = root_digest;
    }

    #[test]
    fn integrating_synced_cells_repairs_a_gap() {
        let full = doc_with(50);
        let mut partial = doc_with(30); // same site, same prefix of edits
        let (bytes, count) = full.sync_cells(&[], &[]).unwrap();
        assert_eq!(count, full.sync_root().1);
        let changed = partial.sync_integrate(&bytes).expect("integrates");
        assert_eq!(changed, 20, "exactly the missing cells changed");
        assert_eq!(partial.sync_root(), full.sync_root());
        assert_eq!(partial.to_vec(), full.to_vec());
        // Idempotent: a second pass changes nothing.
        assert_eq!(partial.sync_integrate(&bytes), Some(0));
    }

    #[test]
    fn bootstrap_round_trip_keeps_the_joiner_identity() {
        let mut donor = doc_with(40);
        donor.local_delete(7).unwrap();
        let bytes = donor.encode_bootstrap();
        let mut joiner = Doc::new(site(9));
        joiner.adopt_bootstrap(&bytes).expect("adopts");
        assert_eq!(joiner.to_vec(), donor.to_vec());
        assert_eq!(joiner.merkle_digest(), donor.merkle_digest());
        assert_eq!(joiner.site(), site(9), "identity survives adoption");
        // The joiner can edit immediately under its own site.
        let op = joiner.local_insert(0, "joined".into()).unwrap();
        donor.apply(&op).unwrap();
        assert_eq!(joiner.merkle_digest(), donor.merkle_digest());
    }
}

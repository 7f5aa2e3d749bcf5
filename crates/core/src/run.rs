//! Run-coalesced document storage: the one in-memory representation of a
//! document.
//!
//! The paper's extended binary tree spends one heap node (a major node plus
//! a mini-node) on every atom, so a sequential typing burst of `n`
//! characters would cost `n` allocations, `n` full identifiers and
//! `O(depth)` pointer chasing per edit. But Algorithm 1 of the paper makes
//! those bursts *structurally regular*: each locally typed character
//! extends a spine of single-child nodes whose disambiguators count up by
//! one (UDIS) or repeat (SDIS). A whole burst is describable by its first
//! identifier alone.
//!
//! [`RunTree`] exploits that: contiguous same-site sequential insertions are
//! stored as one [`Run`] — a shared [`PosId`] prefix, an offset range and a
//! live bitmap — inside a small-arity balanced tree keyed by live-count
//! metrics. Inserts and deletes split runs; neighbouring edits re-coalesce
//! through the runs' private `try_extend_back` / `try_extend_front`. Reads
//! (`atom_at`, `stats`, `height`) descend by cached aggregates instead of
//! walking per-atom nodes.
//!
//! The identifier tree itself is never materialised. Its regions — the
//! subtree under a plain path, which `flatten` compacts and the §5.1
//! heuristic searches for cold ones — are contiguous in document order, so
//! they are answered from the runs that intersect them
//! ([`RunTree::region_hot_rev`], [`RunTree::cold_regions`],
//! [`RunTree::flatten_region`]). A store round-trips through its cells in
//! document order ([`RunTree::collect_cells`] / [`RunTree::from_cells`]),
//! which is also the snapshot and anti-entropy format.

use std::cmp::Ordering;
use std::mem;

use crate::atom::Atom;
use crate::atom::Content;
use crate::disambiguator::Disambiguator;
use crate::error::{Error, Result};
use crate::flatten::{explode_depth, FlattenOutcome};
use crate::hash::{digest_merge, digest_pow, Hasher64, DIGEST_BASE};
use crate::path::{PathElem, PosId, Side};
use crate::stats::{DocStats, PosIdStats};

/// Maximum runs per leaf and children per internal node of the run tree.
pub const ARITY: usize = 8;

/// Maximum cells a [`Pattern::Packed`] run will hold before refusing to grow.
const PACKED_MAX: usize = 64;

/// Recognises one step of an Algorithm-1 append/prepend chain: returns
/// `Some(side)` when `next` is exactly the identifier a sequential local
/// insert on `side` of `prev` would have produced — `prev`'s final mini-node
/// plainified, one more branch on `side`, and the successor disambiguator.
pub fn spine_step<D: Disambiguator>(prev: &PosId<D>, next: &PosId<D>) -> Option<Side> {
    let a = prev.depth();
    if a == 0 || next.depth() != a + 1 {
        return None;
    }
    let prev_dis = prev.last_dis()?;
    let next_dis = next.last_dis()?;
    if *next_dis != prev_dis.sequential_next()? {
        return None;
    }
    // prev's last element must appear plainified at the same index in next,
    // below an identical interior prefix: next's parent is prev's major
    // path. Chunked identifiers make this an O(chunks) compare (a long
    // shared plain spine is one segment equality), not an O(depth) walk.
    if next.parent()? != prev.major_path() {
        return None;
    }
    next.last_side()
}

/// The inverse of [`spine_step`]: the identifier a sequential local insert
/// on `side` of `prev` produces — `prev`'s final mini-node plainified, one
/// more branch on `side`, and the successor disambiguator. `None` when
/// `prev` cannot anchor a spine (root, no final mini-node, or disambiguator
/// overflow). `spine_step(prev, &spine_successor(prev, side)?) == Some(side)`
/// always holds, which is what lets the wire codec ship a run continuation
/// as a single side bit and reconstruct the identifier at the receiver.
pub fn spine_successor<D: Disambiguator>(prev: &PosId<D>, side: Side) -> Option<PosId<D>> {
    let next_dis = prev.last_dis()?.sequential_next()?;
    Some(prev.major_path().child_mini(side, next_dis))
}

/// Identifier of the cell at growth `g` along the spine anchored at
/// `anchor` on `side` (`g == 0` is the anchor itself).
fn spine_cell_id<D: Disambiguator>(anchor: &PosId<D>, side: Side, g: usize) -> PosId<D> {
    if g == 0 {
        return anchor.clone();
    }
    debug_assert!(anchor.depth() > 0, "spine anchors end in a mini-node");
    let dis = anchor
        .last_dis()
        .expect("spine anchors end in a mini-node")
        .sequential_nth(g)
        .expect("spine growth overflow");
    // Constant chunk count however deep the spine: the shared major path,
    // one merged plains segment, one mini tip.
    anchor
        .major_path()
        .extend_plains(side, g - 1)
        .child_mini(side, dis)
}

/// Branch sides from the root of a complete tree of the given `depth` to its
/// `k`-th node in infix order (`k` counts from 0).
fn infix_path(depth: usize, k: usize) -> Vec<Side> {
    let mut path = Vec::new();
    let mut depth = depth;
    let mut k = k;
    loop {
        debug_assert!(depth > 0, "infix index out of range");
        let left_cap = (1usize << (depth - 1)) - 1;
        match k.cmp(&left_cap) {
            Ordering::Less => path.push(Side::Left),
            Ordering::Equal => return path,
            Ordering::Greater => {
                path.push(Side::Right);
                k -= left_cap + 1;
            }
        }
        depth -= 1;
    }
}

/// Length of [`infix_path`] without allocating it.
fn infix_len(depth: usize, k: usize) -> usize {
    let mut len = 0;
    let mut depth = depth;
    let mut k = k;
    loop {
        debug_assert!(depth > 0, "infix index out of range");
        let left_cap = (1usize << (depth - 1)) - 1;
        match k.cmp(&left_cap) {
            Ordering::Less => len += 1,
            Ordering::Equal => return len,
            Ordering::Greater => {
                len += 1;
                k -= left_cap + 1;
            }
        }
        depth -= 1;
    }
}

/// Summed / maxed measurements cached per run and per tree node, sufficient
/// to answer `stats()`, `height()` and live-index descent in `O(1)` per
/// level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Agg {
    /// Live atoms.
    live: usize,
    /// Occupied slots (live + tombstone + ghost).
    total: usize,
    /// Tombstones.
    tombstones: usize,
    /// Ghosts.
    ghosts: usize,
    /// Sum of identifier sizes in bits over all occupied slots.
    bits_total: usize,
    /// Sum of identifier sizes in bits over live slots.
    bits_live: usize,
    /// Largest identifier size in bits.
    bits_max: usize,
    /// Deepest identifier (tree levels are `depth_max + 1`).
    depth_max: usize,
    /// Sum of live atoms' content bytes.
    atom_bytes: usize,
    /// Incremental merkle digest of the covered cells in document order:
    /// `Σ cell_hash_i · B^(total-1-i) (mod 2^64)` with `B =`
    /// [`DIGEST_BASE`]. Independent of run boundaries and tree shape, so
    /// converged replicas agree on it however their stores fragmented; see
    /// [`crate::hash`].
    digest: u64,
}

impl Agg {
    fn merge(&mut self, other: &Agg) {
        self.live += other.live;
        self.total += other.total;
        self.tombstones += other.tombstones;
        self.ghosts += other.ghosts;
        self.bits_total += other.bits_total;
        self.bits_live += other.bits_live;
        self.bits_max = self.bits_max.max(other.bits_max);
        self.depth_max = self.depth_max.max(other.depth_max);
        self.atom_bytes += other.atom_bytes;
        self.digest = digest_merge(self.digest, other.digest, other.total as u64);
    }

    fn add_cell<A: Atom>(&mut self, bits: usize, depth: usize, content: &Content<A>) {
        self.total += 1;
        self.bits_total += bits;
        self.bits_max = self.bits_max.max(bits);
        self.depth_max = self.depth_max.max(depth);
        match content {
            Content::Live(a) => {
                self.live += 1;
                self.bits_live += bits;
                self.atom_bytes += a.content_bytes();
            }
            Content::Tombstone => self.tombstones += 1,
            Content::Ghost => self.ghosts += 1,
            Content::Absent => unreachable!("run cells are always occupied"),
        }
    }
}

/// Feeds one path element into a streaming hasher: the side bit, then a
/// presence marker and the disambiguator's canonical bytes.
fn feed_parts<D: Disambiguator>(h: &mut Hasher64, side: Side, dis: Option<&D>) {
    h.write_u8(side.bit());
    match dis {
        None => h.write_u8(0),
        Some(d) => {
            h.write_u8(1);
            d.feed(h);
        }
    }
}

/// Finishes a cell hash from a hasher already holding the cell's identifier
/// bytes: a content tag, plus the atom bytes for live cells.
fn finish_cell_hash<A: Atom>(mut h: Hasher64, content: &Content<A>) -> u64 {
    match content {
        Content::Live(a) => {
            h.write_u8(1);
            a.feed(&mut h);
        }
        Content::Tombstone => h.write_u8(2),
        Content::Ghost => h.write_u8(3),
        Content::Absent => unreachable!("run cells are always occupied"),
    }
    h.state()
}

/// Hash of one stored cell: its full identifier, a content tag and (for live
/// cells) the atom bytes. Depends only on the cell itself — never on how the
/// store groups cells into runs or tree nodes.
pub fn cell_hash<A: Atom, D: Disambiguator>(id: &PosId<D>, content: &Content<A>) -> u64 {
    let mut h = Hasher64::new();
    id.visit_elems_from(0, |side, dis| feed_parts(&mut h, side, dis));
    finish_cell_hash(h, content)
}

/// How a run derives the identifier of its `j`-th cell.
#[derive(Debug, Clone)]
enum Pattern<D> {
    /// An Algorithm-1 append (`side == Right`) or prepend (`side == Left`)
    /// chain. The anchor is the *shallowest* cell; growth `g` cells extend
    /// below it on `side`, with disambiguators `sequential_nth(g)` of the
    /// anchor's. For `Right` the anchor is first in document order, for
    /// `Left` it is last.
    Spine { anchor: PosId<D>, side: Side },
    /// Consecutive infix slots of a complete plain subtree of the given
    /// `depth` rooted just below `base` — the shape `flatten` produces. Cell
    /// `j` sits at infix index `start + j`.
    Exploded {
        base: PosId<D>,
        depth: usize,
        start: usize,
    },
    /// Arbitrary explicit identifiers (concurrent-edit shrapnel); strictly
    /// increasing in document order.
    Packed { ids: Vec<PosId<D>> },
}

/// One coalesced run: a cell-identifier pattern plus the cells' contents in
/// document order, a live bitmap, cached aggregates and the revision of the
/// most recent edit that touched the run.
#[derive(Debug, Clone)]
pub struct Run<A, D> {
    pattern: Pattern<D>,
    cells: Vec<Content<A>>,
    live_bits: Vec<u64>,
    agg: Agg,
    hot_rev: u64,
    /// Streaming-hash bookkeeping for `O(1)` digest maintenance on the
    /// append fast path: for a `Right` spine, the [`Hasher64`] state holding
    /// the identifier prefix of the *next* appended cell; for an `Exploded`
    /// run, the state after the base identifier. Unused (0) otherwise.
    aux_state: u64,
}

fn bits_push(bits: &mut Vec<u64>, index: usize, live: bool) {
    let word = index / 64;
    if word == bits.len() {
        bits.push(0);
    }
    if live {
        bits[word] |= 1u64 << (index % 64);
    }
}

fn bits_set(bits: &mut [u64], index: usize, live: bool) {
    let mask = 1u64 << (index % 64);
    if live {
        bits[index / 64] |= mask;
    } else {
        bits[index / 64] &= !mask;
    }
}

impl<A: Atom, D: Disambiguator> Run<A, D> {
    /// A run holding a single explicitly identified cell.
    fn singleton(id: PosId<D>, content: Content<A>, rev: u64) -> Self {
        let mut run = Run {
            pattern: Pattern::Packed { ids: vec![id] },
            cells: vec![content],
            live_bits: Vec::new(),
            agg: Agg::default(),
            hot_rev: rev,
            aux_state: 0,
        };
        run.recompute();
        run
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    /// Identifier of the `j`-th cell in document order.
    fn cell_id(&self, j: usize) -> PosId<D> {
        match &self.pattern {
            Pattern::Spine { anchor, side } => {
                let g = match side {
                    Side::Right => j,
                    Side::Left => self.len() - 1 - j,
                };
                spine_cell_id(anchor, *side, g)
            }
            Pattern::Exploded { base, depth, start } => {
                let mut id = base.clone();
                for side in infix_path(*depth, start + j) {
                    id = id.extend_plains(side, 1);
                }
                id
            }
            Pattern::Packed { ids } => ids[j].clone(),
        }
    }

    /// Identifier size in bits of the `j`-th cell, without materialising it.
    fn cell_bits(&self, j: usize) -> usize {
        let w = D::ACCOUNTED_BYTES * 8;
        match &self.pattern {
            Pattern::Spine { anchor, side } => {
                let g = match side {
                    Side::Right => j,
                    Side::Left => self.len() - 1 - j,
                };
                anchor.depth() + g + anchor.dis_count() * w
            }
            Pattern::Exploded { base, depth, start } => {
                base.depth() + infix_len(*depth, start + j) + base.dis_count() * w
            }
            Pattern::Packed { ids } => ids[j].size_bits(),
        }
    }

    fn first_id(&self) -> PosId<D> {
        self.cell_id(0)
    }

    fn last_id(&self) -> PosId<D> {
        self.cell_id(self.len() - 1)
    }

    /// Binary-searches for `id` among the run's cells. `Ok(j)` is the cell
    /// index, `Err(j)` the insertion point.
    fn find(&self, id: &PosId<D>) -> std::result::Result<usize, usize> {
        if let Pattern::Packed { ids } = &self.pattern {
            return ids.binary_search(id);
        }
        let mut lo = 0;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cell_id(mid).cmp(id) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The cells `[lo, hi)` of this run that lie in the region rooted at
    /// the plain path `bits` (a region is contiguous in document order).
    fn region_span(&self, bits: &[Side]) -> (usize, usize) {
        let first_not = |pred: &dyn Fn(Ordering) -> bool| {
            let (mut lo, mut hi) = (0, self.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if pred(cmp_vs_region(&self.cell_id(mid), bits)) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        (
            first_not(&|o| o == Ordering::Less),
            first_not(&|o| o != Ordering::Greater),
        )
    }

    /// Cell index of the `k`-th live cell (`k` counts from 0).
    fn select_live(&self, k: usize) -> usize {
        debug_assert!(k < self.agg.live);
        if self.agg.live == self.len() {
            return k;
        }
        let mut remaining = k;
        for (w, &word) in self.live_bits.iter().enumerate() {
            let pop = word.count_ones() as usize;
            if remaining < pop {
                let mut word = word;
                for _ in 0..remaining {
                    word &= word - 1;
                }
                return w * 64 + word.trailing_zeros() as usize;
            }
            remaining -= pop;
        }
        unreachable!("live bitmap disagrees with aggregate")
    }

    /// Rebuilds the aggregate and the live bitmap from the cells.
    fn recompute(&mut self) {
        let mut agg = Agg::default();
        self.live_bits.clear();
        let w = D::ACCOUNTED_BYTES * 8;
        match &self.pattern {
            Pattern::Spine { anchor, side } => {
                let base_bits = anchor.depth() + anchor.dis_count() * w;
                let base_depth = anchor.depth();
                let n = self.cells.len();
                for (j, c) in self.cells.iter().enumerate() {
                    let g = match side {
                        Side::Right => j,
                        Side::Left => n - 1 - j,
                    };
                    agg.add_cell(base_bits + g, base_depth + g, c);
                    bits_push(&mut self.live_bits, j, c.is_live());
                }
            }
            Pattern::Exploded { base, depth, start } => {
                let base_bits = base.depth() + base.dis_count() * w;
                let base_depth = base.depth();
                for (j, c) in self.cells.iter().enumerate() {
                    let l = infix_len(*depth, start + j);
                    agg.add_cell(base_bits + l, base_depth + l, c);
                    bits_push(&mut self.live_bits, j, c.is_live());
                }
            }
            Pattern::Packed { ids } => {
                for (j, c) in self.cells.iter().enumerate() {
                    agg.add_cell(ids[j].size_bits(), ids[j].depth(), c);
                    bits_push(&mut self.live_bits, j, c.is_live());
                }
            }
        }
        self.agg = agg;
        let mut digest = 0u64;
        let aux = self.for_each_id_state(0, self.cells.len(), &mut |j, st| {
            digest = digest
                .wrapping_mul(DIGEST_BASE)
                .wrapping_add(finish_cell_hash(st, &self.cells[j]));
        });
        self.agg.digest = digest;
        self.aux_state = aux;
    }

    /// Streams the identifier hash state of every cell in `[jlo, jhi)` in
    /// document order: calls `f(j, state)` where `state` holds cell `j`'s
    /// full identifier (content not yet fed). Spine and exploded patterns
    /// advance one shared prefix state instead of re-hashing each identifier
    /// from the root, so a full-run walk is `O(anchor depth + cells)`.
    ///
    /// Returns the [`Run::aux_state`] value for the pattern — meaningful
    /// only when the walk covered the run's full cell range.
    fn for_each_id_state(
        &self,
        jlo: usize,
        jhi: usize,
        f: &mut impl FnMut(usize, Hasher64),
    ) -> u64 {
        match &self.pattern {
            Pattern::Spine { anchor, side } => {
                let n = self.len();
                let last_side = anchor.last_side().expect("non-root anchor");
                let dis = anchor.last_dis().expect("spine anchors end in a mini-node");
                // Growth range covered by the document-order cell range.
                let (glo, ghi) = match side {
                    Side::Right => (jlo, jhi),
                    Side::Left => (n - jhi, n - jlo),
                };
                // Prefix state over elements `[0, a - 1)`: everything above
                // the anchor's final mini-node.
                let mut prefix = Hasher64::new();
                anchor
                    .parent()
                    .expect("non-root anchor")
                    .visit_elems_from(0, |s, d| feed_parts(&mut prefix, s, d));
                // `chain` is the prefix of growth `g >= 1`: the anchor with
                // its mini plainified, plus `g - 1` plain steps on `side`.
                let mut chain = prefix;
                chain.write_u8(last_side.bit());
                chain.write_u8(0);
                for _ in 1..glo.max(1) {
                    chain.write_u8(side.bit());
                    chain.write_u8(0);
                }
                let mut states: Vec<Hasher64> = Vec::new();
                for g in glo..ghi {
                    let st = if g == 0 {
                        let mut st = prefix;
                        feed_parts(&mut st, last_side, Some(dis));
                        st
                    } else {
                        let mut st = chain;
                        st.write_u8(side.bit());
                        st.write_u8(1);
                        dis.sequential_nth(g)
                            .expect("spine growth overflow")
                            .feed(&mut st);
                        chain.write_u8(side.bit());
                        chain.write_u8(0);
                        st
                    };
                    match side {
                        Side::Right => f(g, st),
                        // Document order of a prepend chain is reversed:
                        // buffer and replay below.
                        Side::Left => states.push(st),
                    }
                }
                match side {
                    Side::Right => chain.state(),
                    Side::Left => {
                        for j in jlo..jhi {
                            f(j, states[n - 1 - j - glo]);
                        }
                        0
                    }
                }
            }
            Pattern::Exploded { base, depth, start } => {
                let mut prefix = Hasher64::new();
                base.visit_elems_from(0, |s, d| feed_parts(&mut prefix, s, d));
                for j in jlo..jhi {
                    let mut st = prefix;
                    for side in infix_path(*depth, start + j) {
                        st.write_u8(side.bit());
                        st.write_u8(0);
                    }
                    f(j, st);
                }
                prefix.state()
            }
            Pattern::Packed { ids } => {
                for (j, id) in ids.iter().enumerate().take(jhi).skip(jlo) {
                    let mut st = Hasher64::new();
                    id.visit_elems_from(0, |s, d| feed_parts(&mut st, s, d));
                    f(j, st);
                }
                0
            }
        }
    }

    /// Polynomial digest of cells `[jlo, jhi)` in document order.
    fn fold_digest(&self, jlo: usize, jhi: usize) -> u64 {
        let mut digest = 0u64;
        self.for_each_id_state(jlo, jhi, &mut |j, st| {
            digest = digest
                .wrapping_mul(DIGEST_BASE)
                .wrapping_add(finish_cell_hash(st, &self.cells[j]));
        });
        digest
    }

    /// Cell index range `[jlo, jhi)` of this run's cells inside the
    /// identifier range `[lo, hi)` (`None` bounds are unbounded).
    fn range_bounds(&self, lo: Option<&PosId<D>>, hi: Option<&PosId<D>>) -> (usize, usize) {
        let at = |bound: &PosId<D>| match self.find(bound) {
            Ok(j) | Err(j) => j,
        };
        let jlo = lo.map_or(0, at);
        let jhi = hi.map_or(self.len(), at);
        (jlo, jhi)
    }

    /// Replaces the `j`-th cell's content, updating aggregates in place.
    fn set_cell(&mut self, j: usize, content: Content<A>, rev: u64) -> Content<A> {
        let bits = self.cell_bits(j);
        let old = mem::replace(&mut self.cells[j], content);
        let new = &self.cells[j];
        match &old {
            Content::Live(a) => {
                self.agg.live -= 1;
                self.agg.bits_live -= bits;
                self.agg.atom_bytes -= a.content_bytes();
            }
            Content::Tombstone => self.agg.tombstones -= 1,
            Content::Ghost => self.agg.ghosts -= 1,
            Content::Absent => unreachable!("run cells are always occupied"),
        }
        match new {
            Content::Live(a) => {
                self.agg.live += 1;
                self.agg.bits_live += bits;
                self.agg.atom_bytes += a.content_bytes();
            }
            Content::Tombstone => self.agg.tombstones += 1,
            Content::Ghost => self.agg.ghosts += 1,
            Content::Absent => unreachable!("run cells stay occupied"),
        }
        // Digest delta: swap cell `j`'s hash at its document position.
        let id = self.cell_id(j);
        let mut idh = Hasher64::new();
        id.visit_elems_from(0, |s, d| feed_parts(&mut idh, s, d));
        let h_old = finish_cell_hash(idh, &old);
        let h_new = finish_cell_hash(idh, new);
        let weight = digest_pow((self.len() - 1 - j) as u64);
        self.agg.digest = self
            .agg
            .digest
            .wrapping_add(h_new.wrapping_sub(h_old).wrapping_mul(weight));
        bits_set(&mut self.live_bits, j, new.is_live());
        self.hot_rev = self.hot_rev.max(rev);
        old
    }

    /// Appends a cell whose identifier the pattern already accounts for
    /// (`Packed` stores it explicitly; spines derive it).
    fn push_cell(&mut self, id: Option<PosId<D>>, content: Content<A>, rev: u64) {
        if let Pattern::Packed { ids } = &mut self.pattern {
            ids.push(id.expect("packed runs need explicit identifiers"));
        }
        let j = self.cells.len();
        bits_push(&mut self.live_bits, j, content.is_live());
        let bits = {
            self.cells.push(content);
            self.cell_bits(j)
        };
        let cell = self.cells.pop().expect("just pushed");
        let h = finish_cell_hash(self.push_id_state(j), &cell);
        self.agg
            .add_cell(bits, self.cell_depth_after_push(j), &cell);
        self.agg.digest = self.agg.digest.wrapping_mul(DIGEST_BASE).wrapping_add(h);
        self.cells.push(cell);
        self.hot_rev = self.hot_rev.max(rev);
    }

    /// Identifier hash state of a cell being pushed at index `j`, advancing
    /// [`Run::aux_state`] for `Right` spines. A `Left` spine returns a
    /// placeholder — every left-spine push site recomputes immediately
    /// after, because the push also perturbs document order.
    fn push_id_state(&mut self, j: usize) -> Hasher64 {
        match &self.pattern {
            Pattern::Spine {
                anchor,
                side: Side::Right,
            } => {
                let dis = anchor.last_dis().expect("spine anchors end in a mini-node");
                let mut st = Hasher64::from_state(self.aux_state);
                st.write_u8(Side::Right.bit());
                st.write_u8(1);
                dis.sequential_nth(j)
                    .expect("spine growth overflow")
                    .feed(&mut st);
                let mut aux = Hasher64::from_state(self.aux_state);
                aux.write_u8(Side::Right.bit());
                aux.write_u8(0);
                self.aux_state = aux.state();
                st
            }
            Pattern::Spine {
                side: Side::Left, ..
            } => Hasher64::new(),
            Pattern::Exploded { depth, start, .. } => {
                let mut st = Hasher64::from_state(self.aux_state);
                for side in infix_path(*depth, start + j) {
                    st.write_u8(side.bit());
                    st.write_u8(0);
                }
                st
            }
            Pattern::Packed { ids } => {
                let mut st = Hasher64::new();
                ids[j].visit_elems_from(0, |s, d| feed_parts(&mut st, s, d));
                st
            }
        }
    }

    /// Depth of cell `j` assuming the run has `j + 1` cells (used while a
    /// push is in flight).
    fn cell_depth_after_push(&self, j: usize) -> usize {
        match &self.pattern {
            Pattern::Spine { anchor, side } => {
                let g = match side {
                    Side::Right => j,
                    Side::Left => 0,
                };
                anchor.depth() + g
            }
            Pattern::Exploded { base, depth, start } => base.depth() + infix_len(*depth, start + j),
            Pattern::Packed { ids } => ids[j].depth(),
        }
    }

    /// Tries to absorb a cell directly after the run's last cell. Returns
    /// `None` when absorbed, or gives the content back when the identifier
    /// does not extend any recognised pattern.
    fn try_extend_back(
        &mut self,
        id: &PosId<D>,
        content: Content<A>,
        rev: u64,
    ) -> Option<Content<A>> {
        enum Action<D> {
            Append,
            ReanchorLeft(PosId<D>),
            UpgradeRight(PosId<D>),
            UpgradeLeft(PosId<D>),
            PackedPush(PosId<D>),
        }
        let action = match &self.pattern {
            Pattern::Spine {
                side: Side::Right, ..
            } => {
                if spine_step(&self.last_id(), id) == Some(Side::Right) {
                    Action::Append
                } else {
                    return Some(content);
                }
            }
            Pattern::Spine {
                anchor,
                side: Side::Left,
            } => {
                // The next document-order cell of a prepend chain is the
                // anchor's parent-ward extension: re-anchor upward.
                if spine_step(id, anchor) == Some(Side::Left) {
                    Action::ReanchorLeft(id.clone())
                } else {
                    return Some(content);
                }
            }
            Pattern::Exploded { depth, start, .. } => {
                let next = start + self.len();
                if next < (1usize << *depth) - 1 && self.continuation_id(next) == *id {
                    Action::Append
                } else {
                    return Some(content);
                }
            }
            Pattern::Packed { ids } if ids.len() == 1 => {
                if spine_step(&ids[0], id) == Some(Side::Right) {
                    Action::UpgradeRight(ids[0].clone())
                } else if spine_step(id, &ids[0]) == Some(Side::Left) {
                    Action::UpgradeLeft(id.clone())
                } else {
                    Action::PackedPush(id.clone())
                }
            }
            Pattern::Packed { ids } => {
                let last = ids.last().expect("non-empty run");
                // Refuse the first link of a fresh chain so the caller
                // starts a singleton that can grow into a spine.
                if ids.len() >= PACKED_MAX
                    || spine_step(last, id).is_some()
                    || spine_step(id, last).is_some()
                {
                    return Some(content);
                }
                Action::PackedPush(id.clone())
            }
        };
        match action {
            Action::Append => self.push_cell(None, content, rev),
            Action::PackedPush(id) => self.push_cell(Some(id), content, rev),
            Action::ReanchorLeft(id) => {
                self.pattern =
                    match mem::replace(&mut self.pattern, Pattern::Packed { ids: Vec::new() }) {
                        Pattern::Spine { side, .. } => Pattern::Spine { anchor: id, side },
                        _ => unreachable!(),
                    };
                self.push_cell(None, content, rev);
                self.recompute();
            }
            Action::UpgradeRight(anchor) => {
                self.pattern = Pattern::Spine {
                    anchor,
                    side: Side::Right,
                };
                self.push_cell(None, content, rev);
                // The push went through the packed-era `aux_state`; rebuild
                // the digest and streaming state for the new pattern (the
                // run has two cells, so this is O(anchor depth)).
                self.recompute();
            }
            Action::UpgradeLeft(anchor) => {
                self.pattern = Pattern::Spine {
                    anchor,
                    side: Side::Left,
                };
                self.push_cell(None, content, rev);
                self.recompute();
            }
        }
        None
    }

    /// Identifier at infix index `k` below an `Exploded` pattern's base.
    fn continuation_id(&self, k: usize) -> PosId<D> {
        match &self.pattern {
            Pattern::Exploded { base, depth, .. } => {
                let mut id = base.clone();
                for side in infix_path(*depth, k) {
                    id = id.extend_plains(side, 1);
                }
                id
            }
            _ => unreachable!("continuation_id is exploded-only"),
        }
    }

    /// Mirror of [`Run::try_extend_back`] for a cell directly before the
    /// run's first cell.
    fn try_extend_front(
        &mut self,
        id: &PosId<D>,
        content: Content<A>,
        rev: u64,
    ) -> Option<Content<A>> {
        enum Action<D> {
            InsertFront,
            ReanchorRight(PosId<D>),
            UpgradeRight(PosId<D>),
            UpgradeLeft(PosId<D>),
            PackedFront(PosId<D>),
        }
        let action = match &self.pattern {
            Pattern::Spine {
                anchor,
                side: Side::Right,
            } => {
                if spine_step(id, anchor) == Some(Side::Right) {
                    Action::ReanchorRight(id.clone())
                } else {
                    return Some(content);
                }
            }
            Pattern::Spine {
                side: Side::Left, ..
            } => {
                if spine_step(&self.first_id(), id) == Some(Side::Left) {
                    Action::InsertFront
                } else {
                    return Some(content);
                }
            }
            Pattern::Exploded { start, .. } => {
                if *start > 0 && self.continuation_id(start - 1) == *id {
                    Action::InsertFront
                } else {
                    return Some(content);
                }
            }
            Pattern::Packed { ids } if ids.len() == 1 => {
                if spine_step(id, &ids[0]) == Some(Side::Right) {
                    Action::UpgradeRight(id.clone())
                } else if spine_step(&ids[0], id) == Some(Side::Left) {
                    Action::UpgradeLeft(ids[0].clone())
                } else {
                    Action::PackedFront(id.clone())
                }
            }
            Pattern::Packed { ids } => {
                let first = ids.first().expect("non-empty run");
                if ids.len() >= PACKED_MAX
                    || spine_step(id, first).is_some()
                    || spine_step(first, id).is_some()
                {
                    return Some(content);
                }
                Action::PackedFront(id.clone())
            }
        };
        match action {
            Action::InsertFront => {
                if let Pattern::Exploded { start, .. } = &mut self.pattern {
                    *start -= 1;
                }
                self.cells.insert(0, content);
                self.hot_rev = self.hot_rev.max(rev);
                self.recompute();
            }
            Action::PackedFront(id) => {
                if let Pattern::Packed { ids } = &mut self.pattern {
                    ids.insert(0, id);
                }
                self.cells.insert(0, content);
                self.hot_rev = self.hot_rev.max(rev);
                self.recompute();
            }
            Action::ReanchorRight(id) | Action::UpgradeRight(id) => {
                self.pattern = Pattern::Spine {
                    anchor: id,
                    side: Side::Right,
                };
                self.cells.insert(0, content);
                self.hot_rev = self.hot_rev.max(rev);
                self.recompute();
            }
            Action::UpgradeLeft(anchor) => {
                self.pattern = Pattern::Spine {
                    anchor,
                    side: Side::Left,
                };
                self.cells.insert(0, content);
                self.hot_rev = self.hot_rev.max(rev);
                self.recompute();
            }
        }
        None
    }

    /// Splits the run at cell `j`: `self` keeps cells `[0, j)`, the returned
    /// run holds `[j, len)`. Requires `0 < j < len`.
    fn split_off(&mut self, j: usize) -> Run<A, D> {
        debug_assert!(j > 0 && j < self.len());
        let tail_cells = self.cells.split_off(j);
        let tail_pattern = match &mut self.pattern {
            Pattern::Packed { ids } => Pattern::Packed {
                ids: ids.split_off(j),
            },
            Pattern::Exploded { base, depth, start } => Pattern::Exploded {
                base: base.clone(),
                depth: *depth,
                start: *start + j,
            },
            Pattern::Spine { anchor, side } => match side {
                Side::Right => Pattern::Spine {
                    anchor: spine_cell_id(anchor, Side::Right, j),
                    side: Side::Right,
                },
                Side::Left => {
                    // Document order is reversed: the tail keeps the original
                    // (shallow) anchor, the head re-anchors at its own
                    // shallowest cell.
                    let tail = Pattern::Spine {
                        anchor: anchor.clone(),
                        side: Side::Left,
                    };
                    *anchor = spine_cell_id(anchor, Side::Left, tail_cells.len());
                    tail
                }
            },
        };
        let mut tail = Run {
            pattern: tail_pattern,
            cells: tail_cells,
            live_bits: Vec::new(),
            agg: Agg::default(),
            hot_rev: self.hot_rev,
            aux_state: 0,
        };
        tail.recompute();
        self.recompute();
        tail
    }

    /// Removes the first cell. Requires `len >= 2`.
    fn remove_first(&mut self) -> Content<A> {
        debug_assert!(self.len() >= 2);
        match &mut self.pattern {
            Pattern::Packed { ids } => {
                ids.remove(0);
            }
            Pattern::Exploded { start, .. } => *start += 1,
            Pattern::Spine { anchor, side } => {
                if *side == Side::Right {
                    *anchor = spine_cell_id(anchor, Side::Right, 1);
                }
                // A left spine's first cell is its deepest: the anchor stays.
            }
        }
        let old = self.cells.remove(0);
        self.recompute();
        old
    }

    /// Removes the last cell. Requires `len >= 2`.
    fn remove_last(&mut self) -> Content<A> {
        debug_assert!(self.len() >= 2);
        if let Pattern::Packed { ids } = &mut self.pattern {
            ids.pop();
        }
        let old = self.cells.pop().expect("non-empty run");
        if let Pattern::Spine { anchor, side } = &mut self.pattern {
            if *side == Side::Left {
                // The removed cell was the shallow anchor; re-anchor one
                // growth step deeper.
                *anchor = spine_cell_id(anchor, Side::Left, 1);
            }
        }
        self.recompute();
        old
    }

    /// Whether any cell identifier carries a disambiguator (used by flatten
    /// to decide whether a region is already in canonical compact form).
    fn has_dis(&self) -> bool {
        match &self.pattern {
            Pattern::Spine { .. } => true,
            Pattern::Exploded { base, .. } => base.dis_count() > 0,
            Pattern::Packed { ids } => ids.iter().any(|id| id.dis_count() > 0),
        }
    }

    /// Approximate heap footprint of the run's pattern storage. Chunked
    /// identifiers cost one node per segment, not one element per level.
    fn pattern_heap_bytes(&self) -> usize {
        match &self.pattern {
            Pattern::Spine { anchor, .. } => anchor.heap_bytes(),
            Pattern::Exploded { base, .. } => base.heap_bytes(),
            Pattern::Packed { ids } => ids
                .iter()
                .map(|id| mem::size_of::<PosId<D>>() + id.heap_bytes())
                .sum(),
        }
    }
}

/// A node of the small-arity balanced tree of runs.
#[derive(Debug, Clone)]
enum Node<A, D> {
    Leaf {
        runs: Vec<Run<A, D>>,
        agg: Agg,
    },
    Internal {
        // Boxed on purpose: a node is several hundred bytes, and ARITY
        // splits shift siblings around — pointer moves, not node memcpys.
        #[allow(clippy::vec_box)]
        children: Vec<Box<Node<A, D>>>,
        agg: Agg,
    },
}

/// What an insert places at an identifier.
enum Place<A> {
    Atom(A),
    Tombstone,
    Ghost,
}

impl<A: Atom, D: Disambiguator> Node<A, D> {
    fn empty_leaf() -> Self {
        Node::Leaf {
            runs: Vec::new(),
            agg: Agg::default(),
        }
    }

    fn agg(&self) -> &Agg {
        match self {
            Node::Leaf { agg, .. } | Node::Internal { agg, .. } => agg,
        }
    }

    fn recompute_agg(&mut self) {
        match self {
            Node::Leaf { runs, agg } => {
                let mut a = Agg::default();
                for r in runs {
                    a.merge(&r.agg);
                }
                *agg = a;
            }
            Node::Internal { children, agg } => {
                let mut a = Agg::default();
                for c in children.iter() {
                    a.merge(c.agg());
                }
                *agg = a;
            }
        }
    }

    /// The subtree's first run; `None` only for an empty leaf.
    fn first_run(&self) -> Option<&Run<A, D>> {
        match self {
            Node::Leaf { runs, .. } => runs.first(),
            Node::Internal { children, .. } => children.first().and_then(|c| c.first_run()),
        }
    }

    /// Smallest identifier in the subtree; `None` only for an empty leaf.
    fn first_id(&self) -> Option<PosId<D>> {
        self.first_run().map(Run::first_id)
    }

    /// Largest identifier in the subtree; `None` only for an empty leaf.
    fn last_id(&self) -> Option<PosId<D>> {
        match self {
            Node::Leaf { runs, .. } => runs.last().map(|r| r.last_id()),
            Node::Internal { children, .. } => children.last().and_then(|c| c.last_id()),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf { runs, .. } => runs.is_empty(),
            Node::Internal { children, .. } => children.is_empty(),
        }
    }
}

/// Index of the child whose key range covers `id`.
fn child_index_for<A: Atom, D: Disambiguator>(
    children: &[Box<Node<A, D>>],
    id: &PosId<D>,
) -> usize {
    let mut i = 0;
    while i + 1 < children.len() {
        let next_first = children[i + 1]
            .first_id()
            .expect("internal children are non-empty");
        if next_first <= *id {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// The run of a leaf whose identifier span covers `id` (`Ok`), or the gap
/// where `id` belongs (`Err`). Runs are sorted and disjoint, so a binary
/// search on first identifiers finds the one candidate, and only its last
/// identifier is ever built.
fn locate_run<A: Atom, D: Disambiguator>(
    runs: &[Run<A, D>],
    id: &PosId<D>,
) -> std::result::Result<usize, usize> {
    let gap = runs.partition_point(|run| run.first_id() <= *id);
    match gap.checked_sub(1) {
        Some(i) if *id <= runs[i].last_id() => Ok(i),
        _ => Err(gap),
    }
}

/// The run-coalesced document store behind [`Treedoc`](crate::Treedoc):
/// occupied slots as coalesced [`Run`]s in a balanced tree ordered by
/// identifier.
#[derive(Debug, Clone)]
pub struct RunTree<A, D: Disambiguator> {
    root: Node<A, D>,
}

impl<A: Atom, D: Disambiguator> Default for RunTree<A, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Atom, D: Disambiguator> RunTree<A, D> {
    /// An empty store.
    pub fn new() -> Self {
        RunTree {
            root: Node::empty_leaf(),
        }
    }

    /// Inserts a live atom at `id`, creating ghost cells for any mini-node
    /// ancestors the identifier names (mirroring the per-atom tree, which
    /// materialises those mini-nodes structurally).
    pub fn insert(&mut self, id: &PosId<D>, atom: A, rev: u64) -> Result<()> {
        // Sequential-typing identifiers carry no interior disambiguators;
        // the O(1) gate keeps the append hot path free of prefix scans.
        if id.interior_dis_count() > 0 {
            for prefix in id.mini_prefixes() {
                self.place(&prefix, Place::Ghost, rev)?;
            }
        }
        self.place(id, Place::Atom(atom), rev)
    }

    fn place(&mut self, id: &PosId<D>, place: Place<A>, rev: u64) -> Result<()> {
        if let Some(splinter) = place_rec(&mut self.root, id, place, rev)? {
            self.split_root(splinter);
        }
        Ok(())
    }

    fn split_root(&mut self, splinter: Node<A, D>) {
        let old = mem::replace(&mut self.root, Node::empty_leaf());
        let mut agg = *old.agg();
        agg.merge(splinter.agg());
        self.root = Node::Internal {
            children: vec![Box::new(old), Box::new(splinter)],
            agg,
        };
    }

    /// Deletes the atom at `id`, following the disambiguator's policy:
    /// tombstone for SDIS, discard (with ghost-ancestor pruning) for UDIS.
    /// Returns the removed atom, or `Ok(None)` when the slot is not live.
    pub fn delete(&mut self, id: &PosId<D>, rev: u64) -> Result<Option<A>> {
        match self.get(id) {
            Some(c) if c.is_live() => {}
            _ => return Ok(None),
        }
        if !D::DISCARD_ON_DELETE {
            let old = self.set_content(id, Content::Tombstone, rev);
            return Ok(old.and_then(into_live));
        }
        let is_mini = id.last().is_some_and(|e| e.dis.is_some());
        if is_mini && self.has_descendant_cells(id) {
            let old = self.set_content(id, Content::Ghost, rev);
            return Ok(old.and_then(into_live));
        }
        let old = self.remove_cell(id);
        self.cascade_ghost_ancestors(id);
        Ok(old.and_then(into_live))
    }

    /// Removes ghost ancestors of a just-removed cell that no longer shelter
    /// any descendants, deepest first — the run-level mirror of the per-atom
    /// tree's unwind-time pruning.
    fn cascade_ghost_ancestors(&mut self, id: &PosId<D>) {
        if id.interior_dis_count() == 0 {
            return;
        }
        for prefix in id.mini_prefixes().into_iter().rev() {
            match self.get(&prefix) {
                None => continue,
                Some(Content::Ghost) => {
                    if self.has_descendant_cells(&prefix) {
                        return;
                    }
                    self.remove_cell(&prefix);
                }
                Some(_) => return,
            }
        }
    }

    /// Whether any stored cell's identifier strictly extends `id`. Because a
    /// subtree is a contiguous infix interval containing its root, checking
    /// the immediate predecessor and successor suffices.
    fn has_descendant_cells(&self, id: &PosId<D>) -> bool {
        let is_desc = |other: &PosId<D>| id.is_strict_prefix_of(other);
        if let Some(succ) = self.successor_slot(id) {
            if is_desc(&succ) {
                return true;
            }
        }
        if let Some(pred) = self.predecessor_slot(id) {
            if is_desc(&pred) {
                return true;
            }
        }
        false
    }

    /// Overwrites the content at `id`, returning the old content, or `None`
    /// when no cell exists there.
    fn set_content(&mut self, id: &PosId<D>, content: Content<A>, rev: u64) -> Option<Content<A>> {
        let mut content = Some(content);
        set_rec(&mut self.root, id, &mut content, rev)
    }

    /// Removes the cell at `id` entirely, returning its content.
    fn remove_cell(&mut self, id: &PosId<D>) -> Option<Content<A>> {
        let (old, splinter) = remove_rec(&mut self.root, id);
        if let Some(splinter) = splinter {
            self.split_root(splinter);
        }
        self.collapse_root();
        old
    }

    fn collapse_root(&mut self) {
        loop {
            match &mut self.root {
                Node::Internal { children, .. } if children.len() == 1 => {
                    let only = children.pop().expect("len checked");
                    self.root = *only;
                }
                Node::Internal { children, .. } if children.is_empty() => {
                    self.root = Node::empty_leaf();
                }
                _ => return,
            }
        }
    }
}

fn into_live<A>(content: Content<A>) -> Option<A> {
    match content {
        Content::Live(a) => Some(a),
        _ => None,
    }
}

fn place_rec<A: Atom, D: Disambiguator>(
    node: &mut Node<A, D>,
    id: &PosId<D>,
    place: Place<A>,
    rev: u64,
) -> Result<Option<Node<A, D>>> {
    match node {
        Node::Internal { children, agg } => {
            let i = child_index_for(children, id);
            let splinter = place_rec(&mut children[i], id, place, rev)?;
            if let Some(spl) = splinter {
                children.insert(i + 1, Box::new(spl));
            }
            let out = if children.len() > ARITY {
                let right = children.split_off(children.len() / 2);
                let mut right_node = Node::Internal {
                    children: right,
                    agg: Agg::default(),
                };
                right_node.recompute_agg();
                Some(right_node)
            } else {
                None
            };
            let _ = agg;
            node.recompute_agg();
            Ok(out)
        }
        Node::Leaf { runs, agg } => {
            place_in_leaf(runs, id, place, rev)?;
            let out = if runs.len() > ARITY {
                let right = runs.split_off(runs.len() / 2);
                let mut right_node = Node::Leaf {
                    runs: right,
                    agg: Agg::default(),
                };
                right_node.recompute_agg();
                Some(right_node)
            } else {
                None
            };
            let _ = agg;
            node.recompute_agg();
            Ok(out)
        }
    }
}

fn place_in_leaf<A: Atom, D: Disambiguator>(
    runs: &mut Vec<Run<A, D>>,
    id: &PosId<D>,
    place: Place<A>,
    rev: u64,
) -> Result<()> {
    // Locate the run containing `id`, or the gap index where it belongs.
    let gap = match locate_run(runs, id) {
        Err(gap) => gap,
        // `id` falls inside run `i`'s identifier span.
        Ok(i) => {
            match runs[i].find(id) {
                Ok(j) => match place {
                    Place::Atom(atom) => {
                        if runs[i].cells[j].is_live() {
                            return Err(Error::DuplicatePosId { id: id.repr() });
                        }
                        runs[i].set_cell(j, Content::Live(atom), rev);
                        return Ok(());
                    }
                    Place::Ghost => {
                        // The structural ancestor already exists; just keep
                        // the run's recency stamp fresh, as the per-atom
                        // tree stamps every node on the insert path.
                        runs[i].hot_rev = runs[i].hot_rev.max(rev);
                        return Ok(());
                    }
                    Place::Tombstone => {
                        // State sync may land a tombstone on an occupied
                        // slot; tombstones dominate whatever is stored.
                        if !matches!(runs[i].cells[j], Content::Tombstone) {
                            runs[i].set_cell(j, Content::Tombstone, rev);
                        }
                        return Ok(());
                    }
                },
                Err(j) => {
                    debug_assert!(j > 0 && j < runs[i].len());
                    let content = place_content(place);
                    let right = runs[i].split_off(j);
                    runs.insert(i + 1, Run::singleton(id.clone(), content, rev));
                    runs.insert(i + 2, right);
                    return Ok(());
                }
            }
        }
    };
    // Gap insertion: try coalescing with the neighbouring runs first.
    let mut content = Some(place_content(place));
    if gap > 0 {
        content = match runs[gap - 1].try_extend_back(id, content.take().expect("set"), rev) {
            None => return Ok(()),
            refused => refused,
        };
    }
    if gap < runs.len() {
        content = match runs[gap].try_extend_front(id, content.take().expect("set"), rev) {
            None => return Ok(()),
            refused => refused,
        };
    }
    runs.insert(
        gap,
        Run::singleton(id.clone(), content.take().expect("set"), rev),
    );
    Ok(())
}

fn place_content<A>(place: Place<A>) -> Content<A> {
    match place {
        Place::Atom(a) => Content::Live(a),
        Place::Tombstone => Content::Tombstone,
        Place::Ghost => Content::Ghost,
    }
}

fn set_rec<A: Atom, D: Disambiguator>(
    node: &mut Node<A, D>,
    id: &PosId<D>,
    content: &mut Option<Content<A>>,
    rev: u64,
) -> Option<Content<A>> {
    match node {
        Node::Internal { children, .. } => {
            let i = child_index_for(children, id);
            let old = set_rec(&mut children[i], id, content, rev)?;
            node.recompute_agg();
            Some(old)
        }
        Node::Leaf { runs, .. } => {
            let i = locate_run(runs, id).ok()?;
            let run = &mut runs[i];
            let j = run.find(id).ok()?;
            let old = run.set_cell(j, content.take().expect("unconsumed"), rev);
            node.recompute_agg();
            Some(old)
        }
    }
}

fn remove_rec<A: Atom, D: Disambiguator>(
    node: &mut Node<A, D>,
    id: &PosId<D>,
) -> (Option<Content<A>>, Option<Node<A, D>>) {
    match node {
        Node::Internal { children, .. } => {
            let i = child_index_for(children, id);
            let (old, splinter) = remove_rec(&mut children[i], id);
            if old.is_none() {
                debug_assert!(splinter.is_none());
                return (None, None);
            }
            if let Some(spl) = splinter {
                children.insert(i + 1, Box::new(spl));
            }
            if children[i].is_empty() {
                children.remove(i);
            }
            let out = if children.len() > ARITY {
                let right = children.split_off(children.len() / 2);
                let mut right_node = Node::Internal {
                    children: right,
                    agg: Agg::default(),
                };
                right_node.recompute_agg();
                Some(right_node)
            } else {
                None
            };
            node.recompute_agg();
            (old, out)
        }
        Node::Leaf { runs, .. } => {
            let hit = locate_run(runs, id)
                .ok()
                .and_then(|i| Some((i, runs[i].find(id).ok()?)));
            let Some((i, j)) = hit else {
                return (None, None);
            };
            let old = if runs[i].len() == 1 {
                let mut run = runs.remove(i);
                if let Pattern::Packed { ids } = &mut run.pattern {
                    ids.pop();
                }
                run.cells.pop()
            } else if j == 0 {
                Some(runs[i].remove_first())
            } else if j == runs[i].len() - 1 {
                Some(runs[i].remove_last())
            } else {
                let mut right = runs[i].split_off(j);
                let old = right.remove_first();
                runs.insert(i + 1, right);
                Some(old)
            };
            let out = if runs.len() > ARITY {
                let right = runs.split_off(runs.len() / 2);
                let mut right_node = Node::Leaf {
                    runs: right,
                    agg: Agg::default(),
                };
                right_node.recompute_agg();
                Some(right_node)
            } else {
                None
            };
            node.recompute_agg();
            (old, out)
        }
    }
}

impl<A: Atom, D: Disambiguator> RunTree<A, D> {
    /// Content at `id`, or `None` when no cell is stored there.
    pub fn get(&self, id: &PosId<D>) -> Option<&Content<A>> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Internal { children, .. } => {
                    if children.is_empty() {
                        return None;
                    }
                    node = &children[child_index_for(children, id)];
                }
                Node::Leaf { runs, .. } => {
                    let run = &runs[locate_run(runs, id).ok()?];
                    return run.find(id).ok().map(|j| &run.cells[j]);
                }
            }
        }
    }

    /// Identifier of the first stored cell in document order.
    pub fn first_slot(&self) -> Option<PosId<D>> {
        self.root.first_id()
    }

    /// Identifier of the closest stored cell strictly after `id`.
    pub fn successor_slot(&self, id: &PosId<D>) -> Option<PosId<D>> {
        succ_rec(&self.root, id).map(|(run, j)| run.cell_id(j))
    }

    /// [`successor_slot`](Self::successor_slot) and whether that cell holds
    /// a live atom, read in the same descent.
    pub fn successor_cell(&self, id: &PosId<D>) -> Option<(PosId<D>, bool)> {
        succ_rec(&self.root, id).map(|(run, j)| (run.cell_id(j), run.cells[j].is_live()))
    }

    /// Identifier of the closest stored cell strictly before `id`.
    pub fn predecessor_slot(&self, id: &PosId<D>) -> Option<PosId<D>> {
        pred_rec(&self.root, id)
    }

    /// The `index`-th live atom in document order.
    pub fn atom_at(&self, index: usize) -> Option<&A> {
        if index >= self.root.agg().live {
            return None;
        }
        let (run, j) = live_cell_rec(&self.root, index)?;
        run.cells[j].live()
    }

    /// Identifier of the `index`-th live atom in document order.
    pub fn id_of_live_index(&self, index: usize) -> Option<PosId<D>> {
        if index >= self.root.agg().live {
            return None;
        }
        let (run, j) = live_cell_rec(&self.root, index)?;
        Some(run.cell_id(j))
    }

    /// Number of live atoms.
    pub fn live_len(&self) -> usize {
        self.root.agg().live
    }

    /// Number of stored cells (live + tombstones + ghosts).
    pub fn node_count(&self) -> usize {
        self.root.agg().total
    }

    /// `true` when no cell is stored.
    pub fn is_empty(&self) -> bool {
        self.root.agg().total == 0
    }

    /// Height of the equivalent per-atom tree in levels of major nodes.
    pub fn height(&self) -> usize {
        let a = self.root.agg();
        if a.total == 0 {
            0
        } else {
            a.depth_max + 1
        }
    }

    /// Document statistics, assembled in `O(1)` from the root aggregate.
    pub fn stats(&self) -> DocStats {
        let a = self.root.agg();
        DocStats {
            live_atoms: a.live,
            total_nodes: a.total,
            tombstones: a.tombstones,
            ghosts: a.ghosts,
            pos_ids: PosIdStats {
                max_bits: a.bits_max,
                total_bits: a.bits_total,
                live_bits: a.bits_live,
                nodes: a.total,
                live: a.live,
            },
            document_bytes: a.atom_bytes,
            height: self.height(),
        }
    }

    /// Number of coalesced runs (the figure of merit for coalescing tests
    /// and the memory benchmarks).
    pub fn run_count(&self) -> usize {
        let mut n = 0;
        self.for_each_run(&mut |_| n += 1);
        n
    }

    /// Approximate heap footprint of the identifier index.
    pub fn index_bytes(&self) -> usize {
        fn walk<A: Atom, D: Disambiguator>(node: &Node<A, D>) -> usize {
            mem::size_of::<Node<A, D>>()
                + match node {
                    Node::Leaf { runs, .. } => runs
                        .iter()
                        .map(|r| {
                            mem::size_of::<Run<A, D>>()
                                + r.pattern_heap_bytes()
                                + r.cells.len() * mem::size_of::<Content<A>>()
                                + r.live_bits.len() * 8
                        })
                        .sum::<usize>(),
                    Node::Internal { children, .. } => {
                        children.iter().map(|c| walk(c)).sum::<usize>()
                    }
                }
        }
        walk(&self.root)
    }

    /// Every run in document order.
    fn runs(&self) -> Vec<&Run<A, D>> {
        let mut out = Vec::new();
        self.for_each_run(&mut |run| out.push(run));
        out
    }

    fn for_each_run<'a>(&'a self, f: &mut impl FnMut(&'a Run<A, D>)) {
        fn walk<'a, A: Atom, D: Disambiguator>(
            node: &'a Node<A, D>,
            f: &mut impl FnMut(&'a Run<A, D>),
        ) {
            match node {
                Node::Leaf { runs, .. } => {
                    for r in runs {
                        f(r);
                    }
                }
                Node::Internal { children, .. } => {
                    for c in children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, f);
    }

    /// All live atoms in document order.
    pub fn to_vec(&self) -> Vec<A> {
        let mut out = Vec::with_capacity(self.live_len());
        self.for_each_run(&mut |run| {
            out.extend(run.cells.iter().filter_map(|c| c.live().cloned()));
        });
        out
    }

    /// All live atoms with their identifiers, in document order.
    pub fn to_identified_vec(&self) -> Vec<(PosId<D>, A)> {
        let mut out = Vec::with_capacity(self.live_len());
        self.for_each_run(&mut |run| {
            for (j, c) in run.cells.iter().enumerate() {
                if let Some(a) = c.live() {
                    out.push((run.cell_id(j), a.clone()));
                }
            }
        });
        out
    }

    /// Every stored cell in document order, with its run's `hot_rev` — the
    /// exchange format [`from_cells`](Self::from_cells) reads back.
    pub fn collect_cells(&self) -> Vec<(PosId<D>, Content<A>, u64)> {
        let mut out = Vec::with_capacity(self.node_count());
        self.for_each_run(&mut |run| {
            for (j, c) in run.cells.iter().enumerate() {
                out.push((run.cell_id(j), c.clone(), run.hot_rev));
            }
        });
        out
    }

    /// Builds a store for `atoms` laid out as a freshly exploded (balanced,
    /// metadata-free) document: a single run.
    pub fn from_exploded(atoms: Vec<A>) -> Self {
        if atoms.is_empty() {
            return Self::new();
        }
        let n = atoms.len();
        let mut run = Run {
            pattern: Pattern::Exploded {
                base: PosId::root(),
                depth: explode_depth(n),
                start: 0,
            },
            cells: atoms.into_iter().map(Content::Live).collect(),
            live_bits: Vec::new(),
            agg: Agg::default(),
            hot_rev: 0,
            aux_state: 0,
        };
        run.recompute();
        Self::from_runs(vec![run])
    }

    /// Rebuilds a store from cells in strictly increasing identifier order
    /// (as [`collect_cells`](Self::collect_cells) lists them), re-coalescing
    /// every recognisable run.
    pub fn from_cells(cells: Vec<(PosId<D>, Content<A>, u64)>) -> Self {
        let mut runs: Vec<Run<A, D>> = Vec::new();
        for (id, content, rev) in cells {
            let mut content = Some(content);
            if let Some(last) = runs.last_mut() {
                content = last.try_extend_back(&id, content.take().expect("set"), rev);
                if content.is_none() {
                    continue;
                }
            }
            runs.push(Run::singleton(id, content.take().expect("set"), rev));
        }
        Self::from_runs(runs)
    }

    fn from_runs(runs: Vec<Run<A, D>>) -> Self {
        if runs.is_empty() {
            return Self::new();
        }
        let mut level: Vec<Box<Node<A, D>>> = Vec::new();
        let mut buf: Vec<Run<A, D>> = Vec::new();
        for run in runs {
            buf.push(run);
            if buf.len() == ARITY {
                let mut leaf = Node::Leaf {
                    runs: mem::take(&mut buf),
                    agg: Agg::default(),
                };
                leaf.recompute_agg();
                level.push(Box::new(leaf));
            }
        }
        if !buf.is_empty() {
            let mut leaf = Node::Leaf {
                runs: buf,
                agg: Agg::default(),
            };
            leaf.recompute_agg();
            level.push(Box::new(leaf));
        }
        while level.len() > 1 {
            let mut next: Vec<Box<Node<A, D>>> = Vec::new();
            let mut buf: Vec<Box<Node<A, D>>> = Vec::new();
            for child in level {
                buf.push(child);
                if buf.len() == ARITY {
                    let mut inner = Node::Internal {
                        children: mem::take(&mut buf),
                        agg: Agg::default(),
                    };
                    inner.recompute_agg();
                    next.push(Box::new(inner));
                }
            }
            if !buf.is_empty() {
                let mut inner = Node::Internal {
                    children: buf,
                    agg: Agg::default(),
                };
                inner.recompute_agg();
                next.push(Box::new(inner));
            }
            level = next;
        }
        RunTree {
            root: *level.pop().expect("non-empty level"),
        }
    }

    fn into_runs(self) -> Vec<Run<A, D>> {
        fn collect<A, D>(node: Node<A, D>, out: &mut Vec<Run<A, D>>) {
            match node {
                Node::Leaf { runs, .. } => out.extend(runs),
                Node::Internal { children, .. } => {
                    for c in children {
                        collect(*c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        collect(self.root, &mut out);
        out
    }
}

/// Whether `id` falls in the half-open identifier range `[lo, hi)` (`None`
/// bounds are unbounded).
fn id_in_range<D: Disambiguator>(
    id: &PosId<D>,
    lo: Option<&PosId<D>>,
    hi: Option<&PosId<D>>,
) -> bool {
    lo.is_none_or(|l| *id >= *l) && hi.is_none_or(|h| *id < *h)
}

fn range_digest_rec<A: Atom, D: Disambiguator>(
    node: &Node<A, D>,
    lo: Option<&PosId<D>>,
    hi: Option<&PosId<D>>,
) -> (u64, usize) {
    let (Some(first), Some(last)) = (node.first_id(), node.last_id()) else {
        return (0, 0);
    };
    if hi.is_some_and(|h| first >= *h) || lo.is_some_and(|l| last < *l) {
        return (0, 0);
    }
    if id_in_range(&first, lo, hi) && id_in_range(&last, lo, hi) {
        // The node's whole identifier interval sits inside the range: its
        // cached aggregate already holds the answer.
        let a = node.agg();
        return (a.digest, a.total);
    }
    match node {
        Node::Internal { children, .. } => {
            let mut digest = 0u64;
            let mut cells = 0usize;
            for child in children {
                let (d, n) = range_digest_rec(child, lo, hi);
                digest = digest_merge(digest, d, n as u64);
                cells += n;
            }
            (digest, cells)
        }
        Node::Leaf { runs, .. } => {
            let mut digest = 0u64;
            let mut cells = 0usize;
            for run in runs {
                let (jlo, jhi) = run.range_bounds(lo, hi);
                if jlo >= jhi {
                    continue;
                }
                let d = if jlo == 0 && jhi == run.len() {
                    run.agg.digest
                } else {
                    run.fold_digest(jlo, jhi)
                };
                digest = digest_merge(digest, d, (jhi - jlo) as u64);
                cells += jhi - jlo;
            }
            (digest, cells)
        }
    }
}

fn cells_in_range_rec<A: Atom, D: Disambiguator>(
    node: &Node<A, D>,
    lo: Option<&PosId<D>>,
    hi: Option<&PosId<D>>,
    out: &mut Vec<(PosId<D>, Content<A>)>,
) {
    let (Some(first), Some(last)) = (node.first_id(), node.last_id()) else {
        return;
    };
    if hi.is_some_and(|h| first >= *h) || lo.is_some_and(|l| last < *l) {
        return;
    }
    match node {
        Node::Internal { children, .. } => {
            for child in children {
                cells_in_range_rec(child, lo, hi, out);
            }
        }
        Node::Leaf { runs, .. } => {
            for run in runs {
                let (jlo, jhi) = run.range_bounds(lo, hi);
                for j in jlo..jhi {
                    out.push((run.cell_id(j), run.cells[j].clone()));
                }
            }
        }
    }
}

impl<A: Atom, D: Disambiguator> RunTree<A, D> {
    /// Incremental merkle digest over every stored cell (live, tombstone
    /// and ghost) in document order — `O(1)` from the cached root
    /// aggregate. Two replicas that have applied the same operation set
    /// report the same digest, however differently their stores fragmented
    /// into runs; see [`crate::hash`].
    pub fn digest(&self) -> u64 {
        self.root.agg().digest
    }

    /// Identifier of the `k`-th stored cell (counting every content kind)
    /// in document order — how the sync digest walk picks its range
    /// partition points. `O(log n)` by cached totals.
    pub fn id_at_rank(&self, k: usize) -> Option<PosId<D>> {
        fn rec<A: Atom, D: Disambiguator>(node: &Node<A, D>, mut k: usize) -> Option<PosId<D>> {
            match node {
                Node::Leaf { runs, .. } => {
                    for run in runs {
                        if k < run.len() {
                            return Some(run.cell_id(k));
                        }
                        k -= run.len();
                    }
                    None
                }
                Node::Internal { children, .. } => {
                    for child in children {
                        let total = child.agg().total;
                        if k < total {
                            return rec(child, k);
                        }
                        k -= total;
                    }
                    None
                }
            }
        }
        if k >= self.root.agg().total {
            return None;
        }
        rec(&self.root, k)
    }

    /// Merkle digest and cell count of the stored cells with
    /// `lo <= id < hi` (`None` bounds are unbounded). Subtrees fully inside
    /// the range are answered from cached aggregates, so the cost is
    /// `O(log n)` plus the two boundary runs.
    pub fn range_digest(&self, lo: Option<&PosId<D>>, hi: Option<&PosId<D>>) -> (u64, usize) {
        range_digest_rec(&self.root, lo, hi)
    }

    /// Every stored cell with `lo <= id < hi`, in document order.
    pub fn cells_in_range(
        &self,
        lo: Option<&PosId<D>>,
        hi: Option<&PosId<D>>,
    ) -> Vec<(PosId<D>, Content<A>)> {
        let mut out = Vec::new();
        cells_in_range_rec(&self.root, lo, hi, &mut out);
        out
    }

    /// Integrates one cell received through state-based sync, under the
    /// precedence `Tombstone > Live > Ghost`: a tombstone beats anything, a
    /// live atom fills ghost and absent slots, a ghost only materialises
    /// where nothing is stored. Ghost ancestors named by the identifier are
    /// created exactly as [`RunTree::insert`] does. Returns whether the
    /// store changed; already-dominant cells make the call a no-op, so
    /// integration is idempotent and duplicate-tolerant.
    ///
    /// Sound for tombstone-keeping (SDIS) documents, where the delivered
    /// cell set only grows; UDIS discards cells on delete, which makes
    /// "deleted" indistinguishable from "never seen" for state sync — use
    /// operation replay there.
    pub fn integrate_cell(&mut self, id: &PosId<D>, content: Content<A>, rev: u64) -> Result<bool> {
        if matches!(content, Content::Absent) {
            return Ok(false);
        }
        if let Some(existing) = self.get(id) {
            if existing.rank() >= content.rank() {
                return Ok(false);
            }
            self.set_content(id, content, rev);
            return Ok(true);
        }
        if id.interior_dis_count() > 0 {
            for prefix in id.mini_prefixes() {
                self.place(&prefix, Place::Ghost, rev)?;
            }
        }
        let place = match content {
            Content::Live(a) => Place::Atom(a),
            Content::Tombstone => Place::Tombstone,
            Content::Ghost => Place::Ghost,
            Content::Absent => unreachable!("checked above"),
        };
        self.place(id, place, rev)?;
        Ok(true)
    }
}

/// The run and cell index of the closest stored cell strictly after `id`.
fn succ_rec<'a, A: Atom, D: Disambiguator>(
    node: &'a Node<A, D>,
    id: &PosId<D>,
) -> Option<(&'a Run<A, D>, usize)> {
    match node {
        Node::Leaf { runs, .. } => {
            // The last run starting at or before `id` holds its successor,
            // unless `id` is at or past that run's end: then the next run
            // opens with it.
            let gap = runs.partition_point(|run| run.first_id() <= *id);
            if let Some(run) = gap.checked_sub(1).map(|i| &runs[i]) {
                if run.last_id() > *id {
                    let j = match run.find(id) {
                        Ok(j) => j + 1,
                        Err(j) => j,
                    };
                    debug_assert!(j < run.len());
                    return Some((run, j));
                }
            }
            runs.get(gap).map(|run| (run, 0))
        }
        Node::Internal { children, .. } => {
            if children.is_empty() {
                return None;
            }
            let i = child_index_for(children, id);
            if let Some(s) = succ_rec(&children[i], id) {
                return Some(s);
            }
            children
                .get(i + 1)
                .and_then(|c| c.first_run())
                .map(|run| (run, 0))
        }
    }
}

fn pred_rec<A: Atom, D: Disambiguator>(node: &Node<A, D>, id: &PosId<D>) -> Option<PosId<D>> {
    match node {
        Node::Leaf { runs, .. } => {
            // The last run starting strictly before `id` holds its
            // predecessor.
            let run = &runs[runs
                .partition_point(|run| run.first_id() < *id)
                .checked_sub(1)?];
            let j = match run.find(id) {
                Ok(j) => j,
                Err(j) => j,
            };
            debug_assert!(j > 0);
            Some(run.cell_id(j - 1))
        }
        Node::Internal { children, .. } => {
            if children.is_empty() {
                return None;
            }
            let i = child_index_for(children, id);
            if let Some(p) = pred_rec(&children[i], id) {
                return Some(p);
            }
            if i > 0 {
                children[i - 1].last_id()
            } else {
                None
            }
        }
    }
}

fn live_cell_rec<A: Atom, D: Disambiguator>(
    node: &Node<A, D>,
    mut k: usize,
) -> Option<(&Run<A, D>, usize)> {
    match node {
        Node::Leaf { runs, .. } => {
            for run in runs {
                if k < run.agg.live {
                    return Some((run, run.select_live(k)));
                }
                k -= run.agg.live;
            }
            None
        }
        Node::Internal { children, .. } => {
            for child in children {
                let live = child.agg().live;
                if k < live {
                    return live_cell_rec(child, k);
                }
                k -= live;
            }
            None
        }
    }
}

/// Orders a cell identifier against the region rooted at the plain path
/// `bits`: `Less`/`Greater` when the cell falls outside the region before /
/// after it in document order, `Equal` when it is inside.
fn cmp_vs_region<D: Disambiguator>(id: &PosId<D>, bits: &[Side]) -> Ordering {
    for (i, &b) in bits.iter().enumerate() {
        let Some((side, dis)) = id.elem_at(i) else {
            // The identifier names an ancestor slot of the region root; the
            // region lives in its `b`-side subtree.
            return match b {
                Side::Left => Ordering::Greater,
                Side::Right => Ordering::Less,
            };
        };
        if side != b {
            return match side {
                Side::Left => Ordering::Less,
                Side::Right => Ordering::Greater,
            };
        }
        if dis.is_some() {
            // The identifier enters a mini-node on the region's path. The
            // region root's own minis are part of the region; higher minis
            // sort against the plain child the region continues into.
            if i + 1 == bits.len() {
                return Ordering::Equal;
            }
            return match bits[i + 1] {
                Side::Left => Ordering::Greater,
                Side::Right => Ordering::Less,
            };
        }
    }
    Ordering::Equal
}

/// What the region rooted at a plain path holds, folded from the runs that
/// intersect it.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// Cells under the region (0: the region does not exist).
    cells: usize,
    /// Live atoms under the region.
    live: usize,
    /// Largest `hot_rev` over the runs holding the region's cells
    /// (meaningful only when `cells > 0`).
    hot_rev: u64,
    /// Smallest `hot_rev` over those runs.
    oldest_rev: u64,
}

/// Folds the region rooted at the plain path `bits` from `runs` (in
/// document order), and returns the index range of the runs that reach
/// into it. Regions are contiguous in document order, so only the first
/// and the last of those runs can straddle its bounds.
fn region_of<A: Atom, D: Disambiguator>(
    runs: &[&Run<A, D>],
    bits: &[Side],
) -> (std::ops::Range<usize>, Region) {
    let lo = runs.partition_point(|r| cmp_vs_region(&r.last_id(), bits) == Ordering::Less);
    let hi = lo
        + runs[lo..].partition_point(|r| cmp_vs_region(&r.first_id(), bits) != Ordering::Greater);
    let mut region = Region {
        cells: 0,
        live: 0,
        hot_rev: 0,
        oldest_rev: u64::MAX,
    };
    for (i, run) in runs.iter().enumerate().take(hi).skip(lo) {
        let (jlo, jhi) = if i == lo || i + 1 == hi {
            run.region_span(bits)
        } else {
            (0, run.len())
        };
        region.cells += jhi - jlo;
        region.live += if jhi - jlo == run.len() {
            run.agg.live
        } else {
            run.cells[jlo..jhi].iter().filter(|c| c.is_live()).count()
        };
        region.hot_rev = region.hot_rev.max(run.hot_rev);
        region.oldest_rev = region.oldest_rev.min(run.hot_rev);
    }
    (lo..hi, region)
}

impl<A: Atom, D: Disambiguator> RunTree<A, D> {
    /// Algorithm 2 (`flatten`) applied natively to run storage: replaces the
    /// region rooted at the plain path `bits` with a single exploded run of
    /// its live atoms, dropping tombstones, ghosts and disambiguators.
    pub fn flatten_region(&mut self, bits: &[Side]) -> Result<FlattenOutcome> {
        let old = mem::take(self);
        let runs = old.into_runs();
        let mut before: Vec<Run<A, D>> = Vec::new();
        let mut inside: Vec<Run<A, D>> = Vec::new();
        let mut after: Vec<Run<A, D>> = Vec::new();
        for mut run in runs {
            let first = cmp_vs_region(&run.first_id(), bits);
            let last = cmp_vs_region(&run.last_id(), bits);
            if first == Ordering::Less && last == Ordering::Less {
                before.push(run);
                continue;
            }
            if first == Ordering::Greater && last == Ordering::Greater {
                after.push(run);
                continue;
            }
            let (lo, hi) = run.region_span(bits);
            if hi < run.len() {
                after.push(run.split_off(hi));
            }
            if lo > 0 && lo < run.len() {
                inside.push(run.split_off(lo));
                before.push(run);
            } else if lo == 0 {
                inside.push(run);
            } else {
                before.push(run);
            }
        }
        if inside.is_empty() && !bits.is_empty() {
            let mut restored = before;
            restored.extend(after);
            *self = Self::from_runs(restored);
            return Err(Error::NoSuchSubtree {
                bits: bits.iter().map(|s| s.bit()).collect(),
            });
        }
        let nodes_before: usize = inside.iter().map(|r| r.agg.total).sum();
        let all_live = inside.iter().all(|r| r.agg.live == r.agg.total);
        let has_dis = inside.iter().any(|r| r.has_dis());
        if all_live && !has_dis {
            let mut restored = before;
            restored.extend(inside);
            restored.extend(after);
            *self = Self::from_runs(restored);
            return Ok(FlattenOutcome::AlreadyCompact);
        }
        let mut atoms: Vec<A> = Vec::new();
        for run in &inside {
            atoms.extend(run.cells.iter().filter_map(|c| c.live().cloned()));
        }
        let nodes_after = atoms.len();
        let mut rebuilt = before;
        if !atoms.is_empty() {
            let n = atoms.len();
            let base = PosId::from_elems(bits.iter().map(|&s| PathElem::plain(s)).collect());
            let mut run = Run {
                pattern: Pattern::Exploded {
                    base,
                    depth: explode_depth(n),
                    start: 0,
                },
                cells: atoms.into_iter().map(Content::Live).collect(),
                live_bits: Vec::new(),
                agg: Agg::default(),
                hot_rev: 0,
                aux_state: 0,
            };
            run.recompute();
            rebuilt.push(run);
        }
        rebuilt.extend(after);
        *self = Self::from_runs(rebuilt);
        Ok(FlattenOutcome::Flattened {
            nodes_before,
            nodes_after,
        })
    }

    /// Newest revision of the region rooted at the plain path `bits` — the
    /// largest `hot_rev` of the runs holding its cells — or `None` when no
    /// cell lies under it. The root region (`bits` empty) always exists.
    pub fn region_hot_rev(&self, bits: &[Side]) -> Option<u64> {
        let (_, region) = region_of(&self.runs(), bits);
        (bits.is_empty() || region.cells > 0).then_some(region.hot_rev)
    }

    /// The cold-region search of the §5.1 flatten heuristic: the maximal
    /// regions (rooted at plain paths, in document order) whose newest
    /// revision is at or before `threshold_rev` and which hold at least
    /// `min_live` live atoms.
    ///
    /// The search descends from the root into the two plain child regions
    /// of a region only while that region is too hot, and only where it
    /// still holds enough live atoms and some run old enough to be cold.
    pub fn cold_regions(&self, threshold_rev: u64, min_live: usize) -> Vec<Vec<Side>> {
        let runs = self.runs();
        let mut out = Vec::new();
        let mut bits: Vec<Side> = Vec::new();
        // Depth-first, left before right, with an explicit stack: a typing
        // spine makes regions as deep as the document is long.
        let mut stack: Vec<(usize, Option<Side>, std::ops::Range<usize>)> =
            vec![(0, None, 0..runs.len())];
        while let Some((depth, side, range)) = stack.pop() {
            bits.truncate(depth);
            bits.extend(side);
            let (within, region) = region_of(&runs[range.clone()], &bits);
            if region.cells == 0 || region.live < min_live || region.oldest_rev > threshold_rev {
                continue;
            }
            if region.hot_rev <= threshold_rev {
                out.push(bits.clone());
                continue;
            }
            let within = range.start + within.start..range.start + within.end;
            stack.push((bits.len(), Some(Side::Right), within.clone()));
            stack.push((bits.len(), Some(Side::Left), within));
        }
        out
    }

    /// Asserts internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        fn walk<A: Atom, D: Disambiguator>(
            node: &Node<A, D>,
            depth: usize,
            leaf_depth: &mut Option<usize>,
            prev: &mut Option<PosId<D>>,
        ) -> std::result::Result<(), String> {
            let mut expect = Agg::default();
            match node {
                Node::Leaf { runs, agg } => {
                    if runs.len() > ARITY {
                        return Err(format!("leaf over arity: {}", runs.len()));
                    }
                    match leaf_depth {
                        Some(d) if *d != depth => {
                            return Err(format!("unbalanced: leaves at depths {d} and {depth}"));
                        }
                        None => *leaf_depth = Some(depth),
                        _ => {}
                    }
                    for run in runs {
                        if run.cells.is_empty() {
                            return Err("empty run".into());
                        }
                        if let Pattern::Packed { ids } = &run.pattern {
                            if ids.len() != run.cells.len() {
                                return Err("packed id/cell length mismatch".into());
                            }
                        }
                        let mut check = run.clone();
                        check.recompute();
                        if check.agg != run.agg {
                            return Err(format!(
                                "stale run aggregate: {:?} != {:?}",
                                run.agg, check.agg
                            ));
                        }
                        if check.live_bits != run.live_bits {
                            return Err("stale live bitmap".into());
                        }
                        if check.aux_state != run.aux_state {
                            return Err("stale streaming hash state".into());
                        }
                        for j in 0..run.len() {
                            let id = run.cell_id(j);
                            if let Some(p) = prev {
                                if *p >= id {
                                    return Err(format!("cell order violation at {:?}", id.repr()));
                                }
                            }
                            if matches!(run.cells[j], Content::Absent) {
                                return Err("absent cell stored".into());
                            }
                            *prev = Some(id);
                        }
                        expect.merge(&run.agg);
                    }
                    if *agg != expect {
                        return Err("stale leaf aggregate".into());
                    }
                }
                Node::Internal { children, agg } => {
                    if children.len() > ARITY {
                        return Err(format!("internal over arity: {}", children.len()));
                    }
                    if children.is_empty() {
                        return Err("empty internal node".into());
                    }
                    for child in children {
                        if child.is_empty() {
                            return Err("empty child".into());
                        }
                        walk(child, depth + 1, leaf_depth, prev)?;
                        expect.merge(child.agg());
                    }
                    if *agg != expect {
                        return Err("stale internal aggregate".into());
                    }
                }
            }
            Ok(())
        }
        let mut prev = None;
        let mut leaf_depth = None;
        walk(&self.root, 0, &mut leaf_depth, &mut prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::{Sdis, Udis};
    use crate::doc::Treedoc;
    use crate::ops::Op;
    use crate::site::SiteId;

    /// Drives a [`Treedoc`] to allocate realistic identifiers; its run
    /// store is the store under test. These tests check the store against
    /// itself (invariants, a rebuild's aggregates); the same schedules run
    /// op by op against the per-atom reference tree, which core cannot
    /// depend on, in the workspace's `tests/run_differential.rs`.
    struct Mirror<D: Disambiguator + crate::disambiguator::HasSource> {
        doc: Treedoc<char, D>,
    }

    impl<D: Disambiguator + crate::disambiguator::HasSource> Mirror<D> {
        fn new(site: u64) -> Self {
            Mirror {
                doc: Treedoc::new(SiteId::from_u64(site)),
            }
        }

        fn run(&self) -> &RunTree<char, D> {
            self.doc.store()
        }

        fn insert(&mut self, index: usize, c: char) {
            self.doc.local_insert(index, c).expect("insert");
        }

        fn delete(&mut self, index: usize) {
            self.doc.local_delete(index).expect("delete");
        }

        fn assert_parity(&self) {
            let run = self.run();
            run.check_invariants().expect("run invariants");
            // Incrementally maintained aggregates equal a rebuild's, however
            // differently the rebuild fragments into runs.
            let rebuilt = RunTree::from_cells(run.collect_cells());
            assert_eq!(rebuilt.stats(), run.stats(), "stats diverge");
            assert_eq!(rebuilt.digest(), run.digest(), "digests diverge");
            assert_eq!(rebuilt.to_vec(), run.to_vec(), "document text diverges");
            for i in 0..run.live_len() {
                let id = run.id_of_live_index(i).expect("live id");
                assert!(run.get(&id).is_some_and(Content::is_live));
            }
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn sequential_typing_coalesces_to_one_spine_run() {
        let mut m = Mirror::<Udis>::new(1);
        for (i, c) in ('a'..='z').cycle().take(500).enumerate() {
            m.insert(i, c);
        }
        m.assert_parity();
        // The first atom sits at the root mini; every subsequent append is
        // one spine step, so the whole burst coalesces into one run.
        assert_eq!(m.run().run_count(), 1, "append burst did not coalesce");
        assert_eq!(m.run().live_len(), 500);
    }

    #[test]
    fn prepend_burst_coalesces_to_one_left_spine() {
        let mut m = Mirror::<Udis>::new(1);
        for c in ('a'..='z').cycle().take(300) {
            m.insert(0, c);
        }
        m.assert_parity();
        assert!(
            m.run().run_count() <= 2,
            "prepend burst fragmented into {} runs",
            m.run().run_count()
        );
    }

    /// Types `keys` at the end of `m`'s document: a letter appends, `<` is
    /// a backspace. Returns how many backspaces directly followed another.
    fn type_at_end<D: Disambiguator + crate::disambiguator::HasSource>(
        m: &mut Mirror<D>,
        keys: &str,
    ) -> usize {
        let mut doubles = 0;
        let mut prev = ' ';
        for key in keys.chars() {
            if key == '<' {
                doubles += usize::from(prev == '<');
                m.delete(m.doc.len() - 1);
            } else {
                m.insert(m.doc.len(), key);
            }
            prev = key;
        }
        doubles
    }

    /// Typing with every sixth key a single backspace.
    fn single_backspaces(n: usize) -> String {
        ('a'..='z')
            .cycle()
            .take(n)
            .enumerate()
            .map(|(i, c)| if i % 6 == 5 { '<' } else { c })
            .collect()
    }

    #[test]
    fn single_backspaces_at_the_end_keep_one_sdis_run() {
        // The keystroke after a backspace is the tombstone's spine
        // successor: the run goes on and the tombstone is a cleared live
        // bit, so the height is one level per cell, as without backspaces.
        let mut m = Mirror::<Sdis>::new(1);
        type_at_end(&mut m, &single_backspaces(601));
        m.assert_parity();
        assert_eq!(m.run().run_count(), 1, "a single backspace forked the run");
        assert_eq!(m.run().stats().tombstones, 100);
        assert_eq!(m.run().live_len(), 401);
        assert_eq!(m.doc.height(), m.run().node_count() + 1);
    }

    #[test]
    fn single_backspaces_at_the_end_add_no_udis_level() {
        // UDIS discards a deleted tip outright, so no dead cell is left to
        // continue past: the next keystroke takes the freed slot with a
        // fresh counter, which no spine pattern can follow. That opens one
        // more run per backspace, on the same level: the height stays one
        // level per stored cell.
        let mut m = Mirror::<Udis>::new(1);
        type_at_end(&mut m, &single_backspaces(601));
        m.assert_parity();
        assert_eq!(m.run().node_count(), 401, "UDIS keeps no dead cell");
        assert_eq!(m.run().run_count(), 1 + 100);
        assert_eq!(m.doc.height(), m.run().node_count() + 1);
    }

    #[test]
    fn each_double_backspace_adds_at_most_two_runs() {
        // A second backspace leaves the first tombstone's spine successor
        // dead too, so the next keystroke forks under it as before.
        let keys: String = single_backspaces(300) + "ab<<cd<<<ef<<gh" + &single_backspaces(120);
        let mut sdis = Mirror::<Sdis>::new(1);
        let doubles = type_at_end(&mut sdis, &keys);
        sdis.assert_parity();
        assert_eq!(doubles, 4);
        assert!(
            sdis.run().run_count() <= 1 + 2 * doubles,
            "{} runs for {doubles} double backspaces",
            sdis.run().run_count()
        );
        let mut udis = Mirror::<Udis>::new(1);
        type_at_end(&mut udis, &keys);
        udis.assert_parity();
        assert_eq!(udis.doc.to_vec(), sdis.doc.to_vec());
    }

    /// Types 100 atoms, then, with the cursor after the 50th: a backspace,
    /// three keys, a backspace and one more key. Returns the run count.
    fn backspace_then_type_in_the_middle<D: Disambiguator + crate::disambiguator::HasSource>(
    ) -> usize {
        let mut m = Mirror::<D>::new(1);
        let mut expect: Vec<char> = ('a'..='z').cycle().take(100).collect();
        for (i, &c) in expect.iter().enumerate() {
            m.insert(i, c);
        }
        let mut cursor = 50;
        for key in [None, Some('X'), Some('Y'), Some('Z'), None, Some('W')] {
            match key {
                None => {
                    cursor -= 1;
                    expect.remove(cursor);
                    m.delete(cursor);
                }
                Some(c) => {
                    expect.insert(cursor, c);
                    m.insert(cursor, c);
                    cursor += 1;
                }
            }
        }
        m.assert_parity();
        assert_eq!(m.doc.to_vec(), expect);
        m.run().run_count()
    }

    #[test]
    fn backspace_then_type_in_the_middle_of_a_run() {
        // The run splits around the fork, and under SDIS the fork's keys,
        // across the last backspace too, form one run. UDIS discards the
        // fork's deleted tip, so the key after it opens one more run.
        let sdis = backspace_then_type_in_the_middle::<Sdis>();
        assert!(sdis <= 3, "{sdis} SDIS runs");
        let udis = backspace_then_type_in_the_middle::<Udis>();
        assert!(udis <= 4, "{udis} UDIS runs");
    }

    #[test]
    fn interior_edits_split_and_survive() {
        let mut m = Mirror::<Udis>::new(1);
        for (i, c) in ('a'..='z').cycle().take(100).enumerate() {
            m.insert(i, c);
        }
        m.insert(50, 'X');
        m.insert(25, 'Y');
        m.delete(10);
        m.delete(60);
        m.assert_parity();
    }

    #[test]
    fn random_differential_udis() {
        random_differential::<Udis>(2, 900);
    }

    #[test]
    fn random_differential_sdis() {
        random_differential::<Sdis>(3, 900);
    }

    fn random_differential<D: Disambiguator + crate::disambiguator::HasSource>(
        site: u64,
        ops: usize,
    ) {
        let mut m = Mirror::<D>::new(site);
        let mut rng = 0x5eed_0000 + site;
        for step in 0..ops {
            let len = m.doc.len();
            let roll = lcg(&mut rng) % 100;
            if len == 0 || roll < 60 {
                let at = (lcg(&mut rng) as usize) % (len + 1);
                let c = char::from(b'a' + (lcg(&mut rng) % 26) as u8);
                m.insert(at, c);
            } else {
                let at = (lcg(&mut rng) as usize) % len;
                m.delete(at);
            }
            if step % 97 == 0 {
                m.assert_parity();
            }
        }
        m.assert_parity();
    }

    #[test]
    fn flatten_differential_at_root() {
        for seed in 0..4u64 {
            let mut m = Mirror::<Udis>::new(seed + 10);
            let mut rng = seed;
            for _ in 0..200 {
                let len = m.doc.len();
                if len == 0 || lcg(&mut rng) % 100 < 65 {
                    let at = (lcg(&mut rng) as usize) % (len + 1);
                    m.insert(at, 'x');
                } else {
                    m.delete((lcg(&mut rng) as usize) % len);
                }
            }
            let before = m.run().stats();
            let outcome = m.doc.flatten_all().expect("flatten");
            assert_eq!(
                outcome,
                FlattenOutcome::Flattened {
                    nodes_before: before.total_nodes,
                    nodes_after: before.live_atoms,
                }
            );
            m.assert_parity();
        }
    }

    #[test]
    fn flatten_missing_region_errors_and_restores() {
        let mut m = Mirror::<Udis>::new(7);
        for i in 0..10 {
            m.insert(i, 'a');
        }
        let before = m.run().collect_cells();
        // An all-left path far below the document has no cells.
        let bits = [Side::Left; 40];
        let err = m.doc.flatten(&bits).expect_err("no such subtree");
        assert!(matches!(err, Error::NoSuchSubtree { .. }));
        assert_eq!(
            m.run().collect_cells(),
            before,
            "failed flatten must restore"
        );
        m.run()
            .check_invariants()
            .expect("invariants after restore");
    }

    #[test]
    fn exploded_store_is_one_run_with_o1_metrics() {
        let n = 200_000;
        let atoms: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let rt: RunTree<u8, Udis> = RunTree::from_exploded(atoms.clone());
        assert_eq!(rt.run_count(), 1, "exploded document must be a single run");
        assert_eq!(rt.live_len(), n);
        assert_eq!(rt.height(), explode_depth(n));
        for &i in &[0usize, 1, n / 2, n - 2, n - 1] {
            assert_eq!(rt.atom_at(i), Some(&atoms[i]), "atom_at({i})");
        }
        let stats = rt.stats();
        assert_eq!(stats.live_atoms, n);
        assert_eq!(stats.tombstones, 0);
        // The deepest leaf path of a depth-`d` complete tree has `d - 1`
        // branch bits and no disambiguators.
        assert_eq!(stats.pos_ids.max_bits, explode_depth(n) - 1);
        // Beyond the cell contents themselves (one `Content` per atom) and
        // the live bitmap (1 bit per atom), the index should cost a small
        // constant — not one tree node per atom.
        let cell_bytes = n * mem::size_of::<Content<u8>>() + n / 8 + 8;
        assert!(
            rt.index_bytes() < cell_bytes + 4 * 1024,
            "exploded index too large: {} bytes for {cell_bytes} of cells",
            rt.index_bytes()
        );
    }

    #[test]
    fn single_200k_char_spine_run_keeps_o1_metrics() {
        // The sequential-typing counterpart of the exploded test above — and
        // of the 200k-deep skinny-tree height test in `node.rs`: one run
        // holding a 200k-cell append spine, i.e. a document 200k major-node
        // levels deep. Built directly (materialising every identifier would
        // cost a quadratic 20G path elements); the assertions are about what
        // the store does *without* materialising them.
        let n = 200_000;
        let mut doc = Treedoc::<u8, Udis>::new(SiteId::from_u64(3));
        let Op::Insert { id: anchor, .. } = doc.local_insert(0, 0u8).unwrap() else {
            unreachable!("insert op")
        };
        let mut run = Run {
            pattern: Pattern::Spine {
                anchor: anchor.clone(),
                side: Side::Right,
            },
            cells: (0..n).map(|i| Content::Live((i % 251) as u8)).collect(),
            live_bits: Vec::new(),
            agg: Agg::default(),
            hot_rev: 0,
            aux_state: 0,
        };
        run.recompute();
        let rt = RunTree::from_runs(vec![run]);

        assert_eq!(rt.run_count(), 1, "a typing run must stay one run");
        assert_eq!(rt.live_len(), n);
        assert_eq!(rt.height(), anchor.depth() + n, "height from the aggregate");
        // Counter-guided descent: index lookups never walk the 200k-deep
        // logical tree.
        for &i in &[0usize, 1, n / 2, n - 2, n - 1] {
            assert_eq!(rt.atom_at(i), Some(&((i % 251) as u8)), "atom_at({i})");
        }
        assert_eq!(rt.atom_at(n), None);
        // Materialising the deepest identifier is the caller's O(depth), and
        // looking it back up binary-searches the run without a tree walk.
        let last = rt.id_of_live_index(n - 1).expect("last live id");
        assert_eq!(last.depth(), anchor.depth() + n - 1);
        assert_eq!(rt.get(&last), Some(&Content::Live(((n - 1) % 251) as u8)));
        let stats = rt.stats();
        assert_eq!(stats.live_atoms, n);
        assert_eq!(
            stats.pos_ids.max_bits,
            anchor.depth() + (n - 1) + anchor.dis_count() * Udis::ACCOUNTED_BYTES * 8
        );
        // One anchor identifier, the cells and a bitmap — not a node per
        // level of a 200k-deep tree.
        let cell_bytes = n * mem::size_of::<Content<u8>>() + n / 8 + 8;
        assert!(
            rt.index_bytes() < cell_bytes + 4 * 1024,
            "spine index too large: {} bytes",
            rt.index_bytes()
        );
    }

    #[test]
    fn cell_round_trip_preserves_cells_and_recoalesces() {
        let mut m = Mirror::<Udis>::new(4);
        for (i, c) in ('a'..='z').cycle().take(400).enumerate() {
            m.insert(i, c);
        }
        m.insert(100, 'Q');
        m.delete(7);
        let cells = m.run().collect_cells();
        let back = RunTree::from_cells(cells.clone());
        back.check_invariants().expect("round-trip invariants");
        // Revisions coalesce to the run's newest; identifiers and contents
        // survive exactly.
        let strip = |v: Vec<(PosId<Udis>, Content<char>, u64)>| {
            v.into_iter().map(|(id, c, _)| (id, c)).collect::<Vec<_>>()
        };
        assert_eq!(strip(back.collect_cells()), strip(cells));
        assert_eq!(back.to_vec(), m.run().to_vec());
        assert!(
            back.run_count() <= m.run().run_count() + 2,
            "round trip lost coalescing: {} -> {}",
            m.run().run_count(),
            back.run_count()
        );
    }

    /// From-scratch reference digest: hash every cell with its materialised
    /// identifier and fold in document order. The incremental digest must
    /// always equal this.
    fn reference_digest<A: Atom, D: Disambiguator>(rt: &RunTree<A, D>) -> u64 {
        let mut digest = 0u64;
        for (id, c, _) in rt.collect_cells() {
            digest = digest
                .wrapping_mul(DIGEST_BASE)
                .wrapping_add(cell_hash(&id, &c));
        }
        digest
    }

    #[test]
    fn incremental_digest_matches_from_scratch_rehash() {
        let mut m = Mirror::<Sdis>::new(6);
        let mut rng = 0xd16e57u64;
        for step in 0..600 {
            let len = m.doc.len();
            if len == 0 || lcg(&mut rng) % 100 < 60 {
                let at = (lcg(&mut rng) as usize) % (len + 1);
                let c = char::from(b'a' + (lcg(&mut rng) % 26) as u8);
                m.insert(at, c);
            } else {
                m.delete((lcg(&mut rng) as usize) % len);
            }
            if step % 61 == 0 {
                assert_eq!(m.run().digest(), reference_digest(m.run()), "step {step}");
            }
        }
        assert_eq!(m.run().digest(), reference_digest(m.run()));
    }

    #[test]
    fn digest_is_independent_of_run_fragmentation() {
        // The same cell set laid out by incremental edits vs rebuilt from a
        // flat cell list fragments into different runs — digests must agree.
        let mut m = Mirror::<Udis>::new(8);
        for (i, c) in ('a'..='z').cycle().take(300).enumerate() {
            m.insert(i, c);
        }
        m.insert(17, 'X');
        m.delete(40);
        m.insert(0, 'Y');
        let rebuilt = RunTree::<char, Udis>::from_cells(m.run().collect_cells());
        assert_eq!(m.run().digest(), rebuilt.digest());
        assert_eq!(m.run().node_count(), rebuilt.node_count());
    }

    #[test]
    fn range_digests_compose_to_the_root() {
        let mut m = Mirror::<Sdis>::new(11);
        for (i, c) in ('a'..='z').cycle().take(200).enumerate() {
            m.insert(i, c);
        }
        m.delete(5);
        m.delete(100);
        let total = m.run().node_count();
        // Split at arbitrary ranks and check the pieces merge to the root.
        for split in [1, 7, total / 2, total - 1] {
            let mid = m.run().id_at_rank(split).expect("rank in range");
            let (dl, nl) = m.run().range_digest(None, Some(&mid));
            let (dr, nr) = m.run().range_digest(Some(&mid), None);
            assert_eq!(nl, split);
            assert_eq!(nl + nr, total);
            assert_eq!(digest_merge(dl, dr, nr as u64), m.run().digest());
        }
        let (all, n) = m.run().range_digest(None, None);
        assert_eq!((all, n), (m.run().digest(), total));
    }

    #[test]
    fn integrate_cells_converges_a_stale_replica() {
        // Build a document, then replay a prefix of its cells into a fresh
        // store and integrate the missing suffix by range.
        let mut m = Mirror::<Sdis>::new(12);
        for (i, c) in ('a'..='z').cycle().take(120).enumerate() {
            m.insert(i, c);
        }
        for i in [3usize, 40, 80] {
            m.delete(i);
        }
        let cells = m.run().collect_cells();
        let mut stale = RunTree::<char, Sdis>::new();
        for (id, c, rev) in cells.iter().take(cells.len() / 3) {
            stale.integrate_cell(id, c.clone(), *rev).expect("seed");
        }
        assert_ne!(stale.digest(), m.run().digest());
        for (id, c, rev) in &cells {
            stale.integrate_cell(id, c.clone(), *rev).expect("catch up");
        }
        stale.check_invariants().expect("integrated invariants");
        assert_eq!(stale.digest(), m.run().digest());
        assert_eq!(stale.to_vec(), m.run().to_vec());
        // Idempotence: integrating everything again changes nothing.
        for (id, c, rev) in &cells {
            assert!(!stale.integrate_cell(id, c.clone(), *rev).expect("noop"));
        }
        assert_eq!(stale.digest(), m.run().digest());
    }

    #[test]
    fn tombstone_dominates_live_dominates_ghost() {
        let mut m = Mirror::<Sdis>::new(13);
        m.insert(0, 'a');
        m.insert(1, 'b');
        let id = m.run().id_of_live_index(1).expect("live id");
        let mut other = RunTree::<char, Sdis>::from_cells(m.run().collect_cells());
        // Tombstone wins over live…
        assert!(other
            .integrate_cell(&id, Content::Tombstone, 9)
            .expect("tombstone"));
        // …and live never resurrects a tombstone.
        assert!(!other
            .integrate_cell(&id, Content::Live('b'), 10)
            .expect("no resurrect"));
        assert!(matches!(other.get(&id), Some(Content::Tombstone)));
        other.check_invariants().expect("invariants");
    }

    #[test]
    fn spine_step_recognises_append_chains() {
        let d0 = Udis::new(5, SiteId::from_u64(1));
        let anchor: PosId<Udis> = PosId::from_elems(vec![PathElem::mini(Side::Right, d0)]);
        let next = spine_cell_id(&anchor, Side::Right, 1);
        assert_eq!(spine_step(&anchor, &next), Some(Side::Right));
        let next2 = spine_cell_id(&anchor, Side::Right, 2);
        assert_eq!(spine_step(&next, &next2), Some(Side::Right));
        assert_eq!(spine_step(&anchor, &next2), None, "skipping a step");
        let left = spine_cell_id(&anchor, Side::Left, 1);
        assert_eq!(spine_step(&anchor, &left), Some(Side::Left));
    }

    #[test]
    fn infix_path_matches_explode_layout() {
        // Depth-3 complete tree infix order: LL, L, LR, root, RL, R, RR.
        let paths: Vec<Vec<Side>> = (0..7).map(|k| infix_path(3, k)).collect();
        use Side::{Left as L, Right as R};
        assert_eq!(
            paths,
            vec![
                vec![L, L],
                vec![L],
                vec![L, R],
                vec![],
                vec![R, L],
                vec![R],
                vec![R, R],
            ]
        );
        for (k, path) in paths.iter().enumerate() {
            assert_eq!(infix_len(3, k), path.len());
        }
    }
}

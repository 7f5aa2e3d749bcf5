//! Position identifiers: paths in the extended binary tree (§3.1).
//!
//! A [`PosId`] is a sequence of [`PathElem`]s. Each element carries one bit
//! (left / right) and, optionally, a disambiguator:
//!
//! * an element **without** a disambiguator refers to the children of the
//!   corresponding *major node* (the common, sequential-editing case);
//! * an element **with** a disambiguator selects a specific *mini-node* of
//!   that major node — either as the final element (the identified atom is
//!   that mini-node) or as an interior element (the path descends through
//!   that mini-node's own subtree, which only happens after inserts between
//!   mini-siblings, Fig. 4 of the paper).
//!
//! # Representation
//!
//! Logically an identifier is still the element sequence above, but it is
//! stored as a *persistent, structurally shared* chain of run-length-encoded
//! chunks (`Seg`): consecutive disambiguator-free elements on the same side
//! collapse into one `Plains { side, count }` chunk, and each disambiguated
//! element is its own `Mini` chunk. Chunks link to their parent through an
//! [`Arc`], so
//!
//! * cloning an identifier is one reference-count bump (O(1));
//! * a child identifier shares its entire prefix with the parent it was
//!   derived from (prefix sharing by construction);
//! * an identifier costs **one chunk per direction change or
//!   disambiguator**, however long the plain stretches between them. An
//!   unbroken sequential-typing spine — thousands of plain elements and one
//!   mini — is two or three chunks. Each backspace adds a direction change,
//!   so a typing session's tip identifier carries one chunk per backspace
//!   (407 chunks for 5,274 elements after 5,500 keystrokes with 4%
//!   backspaces).
//!
//! Every chunk caches the total element count (`depth`), its index in the
//! chain (`chunks`), the disambiguator count and a polynomial *shape hash*
//! of the `(side, has-disambiguator)` sequence. Equality checks reject
//! mismatches in O(1). Comparisons walk both chains **tip-first**: the
//! cached indices align the two chains, which then step together until
//! they meet at a pointer-shared chunk, and only the chunks past it are
//! compared, root-first. A comparison thus costs O(chunks past the deepest
//! shared chunk) on each side, not O(depth) — cheap between identifiers
//! derived from one another, a full walk between chains that share
//! nothing. Identifiers decoded from bytes share nothing with the ones a
//! replica stores; [`PosId::relink_onto`] (used by `Treedoc::apply`)
//! rebuilds the common typing case on the stored chain so the comparisons
//! that follow take the cheap path.
//!
//! The chunk decomposition is kept *canonical* — plain elements are always
//! merged into a maximal same-side `Plains` chunk — so two identifiers with
//! the same logical element sequence have the same chunk sequence, and chunk
//! comparison is exactly element comparison.
//!
//! # Ordering
//!
//! Identifiers are ordered by an infix walk of the extended tree: a major
//! node's left child comes first, then its disambiguator-free atom slot (only
//! present after a `flatten`), then its mini-nodes in disambiguator order
//! (each mini-node surrounded by its own left and right subtrees), then the
//! major node's right child. [`PosId::cmp`] implements exactly this order.
//!
//! The paper's formal rules (§3.1) compare path elements pairwise; taken
//! literally they do not say how a disambiguator-free element compares with a
//! disambiguated one referring to the same side (e.g. the paper's own example
//! `Y = [1·0·(0:dY)]` versus `Z = [1·0·0·(1:dZ)]`, where `Z` must sort after
//! `Y` because it is the right child of `Y`'s major node). We resolve this —
//! as the example and the infix-walk definition require — by looking at which
//! *region* of the shared major node each identifier falls in:
//! `left subtree < plain atom slot < mini-nodes < right subtree`.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::disambiguator::Disambiguator;
use crate::hash::DIGEST_BASE;

/// One bit of a tree path: descend to the left or to the right child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The `0` branch: everything below it precedes the current node.
    Left = 0,
    /// The `1` branch: everything below it follows the current node.
    Right = 1,
}

impl Side {
    /// Returns the bit value (0 or 1).
    pub const fn bit(self) -> u8 {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    /// Builds a side from a bit value.
    pub const fn from_bit(bit: u8) -> Side {
        if bit == 0 {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// The opposite side.
    pub const fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One element of a position identifier: a branch bit plus an optional
/// disambiguator.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathElem<D> {
    /// Which child of the current node the path descends to.
    pub side: Side,
    /// `Some(d)` selects mini-node `d` of the major node reached by `side`;
    /// `None` refers to the major node itself (its plain atom slot or its
    /// plain children).
    pub dis: Option<D>,
}

impl<D> PathElem<D> {
    /// A plain (disambiguator-free) element.
    pub const fn plain(side: Side) -> Self {
        PathElem { side, dis: None }
    }

    /// An element selecting mini-node `dis` on the `side` child.
    pub const fn mini(side: Side, dis: D) -> Self {
        PathElem {
            side,
            dis: Some(dis),
        }
    }

    /// Drops the disambiguator, keeping only the branch bit.
    pub fn to_plain(&self) -> PathElem<D>
    where
        D: Clone,
    {
        PathElem {
            side: self.side,
            dis: None,
        }
    }
}

impl<D: fmt::Debug> fmt::Debug for PathElem<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.dis {
            None => write!(f, "{}", self.side.bit()),
            Some(d) => write!(f, "({}:{:?})", self.side.bit(), d),
        }
    }
}

/// The region of a major node an identifier falls in, in infix order.
///
/// Used internally by the comparison routine; exposed for tests and for the
/// allocation logic which reasons about the same regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Region {
    /// Inside the major node's plain left subtree.
    LeftSubtree,
    /// The major node's own (disambiguator-free) atom slot.
    PlainSlot,
    /// One of the mini-nodes or their subtrees (ordered by disambiguator
    /// separately).
    Minis,
    /// Inside the major node's plain right subtree.
    RightSubtree,
}

// ---------------------------------------------------------------------------
// Shared chunk representation
// ---------------------------------------------------------------------------

/// One run-length-encoded chunk of a path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Seg<D> {
    /// A single element carrying a disambiguator.
    Mini(Side, D),
    /// `count >= 1` consecutive disambiguator-free elements on one side.
    Plains(Side, u32),
}

/// One node of the shared path chain: a chunk plus cached aggregates over the
/// whole prefix ending at (and including) this chunk.
#[derive(Debug)]
pub(crate) struct PathNode<D> {
    pub(crate) parent: Option<Arc<PathNode<D>>>,
    pub(crate) seg: Seg<D>,
    /// Total logical element count of the path ending at this chunk.
    pub(crate) depth: u32,
    /// Total disambiguator count of the path ending at this chunk.
    pub(crate) dis_count: u32,
    /// Polynomial hash of the `(side, has-dis)` sequence of the whole path,
    /// kept to its low 32 bits so the node stays 32 bytes with `chunks`.
    /// Purely structural (independent of disambiguator *values*) so that it
    /// can be maintained without trait bounds on `D`; used only as a
    /// fast-reject in equality checks, never as a proof of equality.
    pub(crate) shape: u32,
    /// Number of chunks of the path ending at this chunk (this chunk's
    /// 1-based index in its chain), so chains of different lengths align in
    /// O(1) for the tip-first divergence walk.
    pub(crate) chunks: u32,
}

impl<D> PathNode<D> {
    fn seg_len(&self) -> u32 {
        match self.seg {
            Seg::Mini(..) => 1,
            Seg::Plains(_, n) => n,
        }
    }
}

/// Mixing codes for the four `(side, has-dis)` element shapes. Any four
/// distinct odd constants work; the polynomial in [`DIGEST_BASE`] does the
/// mixing.
const fn elem_code(side: Side, has_dis: bool) -> u64 {
    match (side, has_dis) {
        (Side::Left, false) => 0x9E37_79B9_7F4A_7C15,
        (Side::Right, false) => 0xC2B2_AE3D_27D4_EB4F,
        (Side::Left, true) => 0x1656_67B1_9E37_79F9,
        (Side::Right, true) => 0x27D4_EB2F_1656_67C5,
    }
}

/// `DIGEST_BASE^exp` in wrapping arithmetic (square-and-multiply).
fn shape_pow(mut exp: u64) -> u64 {
    let mut base = DIGEST_BASE;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc
}

/// `1 + B + B^2 + … + B^(k-1)` in wrapping arithmetic, O(log k) via the
/// recurrences `S(2m) = S(m)·(B^m + 1)` and `S(2m+1) = S(2m)·B + 1`.
fn shape_geom(k: u64) -> u64 {
    if k == 0 {
        return 0;
    }
    if k == 1 {
        return 1;
    }
    let half = shape_geom(k / 2);
    let even = half.wrapping_mul(shape_pow(k / 2).wrapping_add(1));
    if k % 2 == 0 {
        even
    } else {
        even.wrapping_mul(DIGEST_BASE).wrapping_add(1)
    }
}

/// `(depth, dis_count, shape, chunks)` of the path ending at `parent`.
fn parent_stats<D>(parent: &Option<Arc<PathNode<D>>>) -> (u32, u32, u64, u32) {
    match parent {
        None => (0, 0, 0, 0),
        Some(p) => (p.depth, p.dis_count, u64::from(p.shape), p.chunks),
    }
}

/// Chunk count of the chain ending at `node`.
fn chunks_of<D>(node: Option<&PathNode<D>>) -> u32 {
    node.map_or(0, |n| n.chunks)
}

/// Element-wise equality of two chunk chains. The chunk decomposition is
/// canonical, so this is chunk-wise equality, walked tip-first: pointer-equal
/// chunks end the walk at once, and the cached aggregates reject unequal
/// paths in O(1) — they never *confirm* equality, the walk does.
fn chains_eq<D: PartialEq>(
    mut a: &Option<Arc<PathNode<D>>>,
    mut b: &Option<Arc<PathNode<D>>>,
) -> bool {
    loop {
        match (a, b) {
            (None, None) => return true,
            (Some(x), Some(y)) => {
                if Arc::ptr_eq(x, y) {
                    return true;
                }
                if x.depth != y.depth
                    || x.dis_count != y.dis_count
                    || x.shape != y.shape
                    || x.seg != y.seg
                {
                    return false;
                }
                a = &x.parent;
                b = &y.parent;
            }
            _ => return false,
        }
    }
}

/// Whether chain `a` is an element-wise prefix of chain `b`, without
/// building the prefix: walks `b` tip-first down to `a`'s depth, then one
/// [`chains_eq`].
fn chain_is_prefix<D: PartialEq>(
    a: &Option<Arc<PathNode<D>>>,
    mut b: &Option<Arc<PathNode<D>>>,
) -> bool {
    let len = a.as_deref().map_or(0, |n| n.depth);
    loop {
        let Some(n) = b.as_deref() else {
            return len == 0;
        };
        if n.depth <= len {
            return n.depth == len && chains_eq(a, b);
        }
        let start = n.depth - n.seg_len();
        if start >= len {
            b = &n.parent;
            continue;
        }
        // The prefix ends inside this chunk, so it is a plain stretch, and
        // `a` must end in the same stretch cut short.
        return match (&n.seg, a.as_deref()) {
            (Seg::Plains(side, _), Some(x)) => {
                x.seg == Seg::Plains(*side, len - start) && chains_eq(&x.parent, &n.parent)
            }
            _ => false,
        };
    }
}

/// A position identifier: a path in the extended binary tree.
///
/// The empty path identifies the (plain slot of the) root major node.
/// Internally the path is a persistent chain of run-length-encoded chunks
/// (see the module documentation): clones are O(1) and derived identifiers
/// share their prefix with the identifier they were derived from.
pub struct PosId<D> {
    node: Option<Arc<PathNode<D>>>,
}

impl<D> Clone for PosId<D> {
    fn clone(&self) -> Self {
        PosId {
            node: self.node.clone(),
        }
    }
}

impl<D> Default for PosId<D> {
    fn default() -> Self {
        PosId { node: None }
    }
}

/// The root-most this many chunks of a divergent suffix are kept inline.
/// Comparisons usually settle within the first few chunks past the shared
/// prefix, so they touch the heap only when two long chains stay equal in
/// value past this many unshared chunks.
const INLINE_CHUNKS: usize = 16;

/// The chunks of one identifier past the deepest chunk it shares (by
/// pointer) with another, collected tip-first and read root-first.
///
/// Only the root-most [`INLINE_CHUNKS`] are kept, in a ring buffer. A read
/// past them collects the whole suffix into a vector, once, by walking down
/// from the tip again.
struct ChunkList<'a, D> {
    tip: Option<&'a PathNode<D>>,
    /// The last `INLINE_CHUNKS` chunks pushed, push `p` in slot
    /// `p % INLINE_CHUNKS`.
    ring: [Option<&'a PathNode<D>>; INLINE_CHUNKS],
    len: usize,
    /// The whole suffix, tip-first, once a read needed it.
    spill: OnceCell<Vec<&'a PathNode<D>>>,
}

impl<'a, D> ChunkList<'a, D> {
    fn new() -> Self {
        ChunkList {
            tip: None,
            ring: [None; INLINE_CHUNKS],
            len: 0,
            spill: OnceCell::new(),
        }
    }

    /// Appends the next chunk towards the root.
    fn push(&mut self, node: &'a PathNode<D>) {
        self.tip.get_or_insert(node);
        self.ring[self.len % INLINE_CHUNKS] = Some(node);
        self.len += 1;
    }

    /// The `i`-th chunk counting from the root-most one.
    fn get(&self, i: usize) -> Option<&'a PathNode<D>> {
        if i >= self.len {
            return None;
        }
        let pushed = self.len - 1 - i;
        if i < INLINE_CHUNKS {
            return self.ring[pushed % INLINE_CHUNKS];
        }
        let spill = self.spill.get_or_init(|| {
            let mut all = Vec::with_capacity(self.len);
            let mut cur = self.tip;
            while let Some(n) = cur.filter(|_| all.len() < self.len) {
                all.push(n);
                cur = n.parent.as_deref();
            }
            all
        });
        Some(spill[pushed])
    }
}

/// Splits two identifiers at the deepest chunk their chains share by
/// pointer: returns the element count up to and including that chunk, and
/// each side's chunks past it.
///
/// The walk goes tip-first. The cached chunk indices align the longer chain
/// with the shorter in O(1) per step, and then both chains step together
/// until they meet. The cost is O(chunks past the shared chunk) on each
/// side, however deep the shared part is.
fn diverge<'a, D>(a: &'a PosId<D>, b: &'a PosId<D>) -> (usize, ChunkList<'a, D>, ChunkList<'a, D>) {
    let (mut x, mut y) = (a.node.as_deref(), b.node.as_deref());
    let (mut xs, mut ys) = (ChunkList::new(), ChunkList::new());
    loop {
        let (p, q) = match (x, y) {
            (None, None) => return (0, xs, ys),
            (Some(p), Some(q)) if std::ptr::eq(p, q) => return (p.depth as usize, xs, ys),
            pair => pair,
        };
        let (cx, cy) = (chunks_of(p), chunks_of(q));
        if let Some(p) = p.filter(|_| cx >= cy) {
            xs.push(p);
            x = p.parent.as_deref();
        }
        if let Some(q) = q.filter(|_| cy >= cx) {
            ys.push(q);
            y = q.parent.as_deref();
        }
    }
}

/// A borrowed cursor over the logical elements of a chunk list.
struct Cursor<'a, D> {
    chunks: &'a ChunkList<'a, D>,
    chunk: usize,
    off: u32,
}

impl<D> Clone for Cursor<'_, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<D> Copy for Cursor<'_, D> {}

impl<'a, D> Cursor<'a, D> {
    fn start(chunks: &'a ChunkList<'a, D>) -> Self {
        Cursor {
            chunks,
            chunk: 0,
            off: 0,
        }
    }

    /// The element under the cursor, as `(side, disambiguator)`.
    fn get(&self) -> Option<(Side, Option<&'a D>)> {
        let n = self.chunks.get(self.chunk)?;
        Some(match &n.seg {
            Seg::Mini(side, d) => (*side, Some(d)),
            Seg::Plains(side, _) => (*side, None),
        })
    }

    fn advance(&mut self) {
        if let Some(n) = self.chunks.get(self.chunk) {
            self.off += 1;
            if self.off >= n.seg_len() {
                self.chunk += 1;
                self.off = 0;
            }
        }
    }

    /// The element just past the cursor, without moving it.
    fn peek_next(mut self) -> Option<(Side, Option<&'a D>)> {
        self.advance();
        self.get()
    }

    /// When the cursor sits inside a `Plains` chunk, its side and the number
    /// of elements remaining in that chunk (always ≥ 1).
    fn plains_rem(&self) -> Option<(Side, u32)> {
        let n = self.chunks.get(self.chunk)?;
        match n.seg {
            Seg::Plains(side, k) => Some((side, k - self.off)),
            Seg::Mini(..) => None,
        }
    }

    /// Advances by `k` elements, which must not exceed the remainder of the
    /// current chunk.
    fn advance_by(&mut self, k: u32) {
        if let Some(n) = self.chunks.get(self.chunk) {
            self.off += k;
            if self.off >= n.seg_len() {
                self.chunk += 1;
                self.off = 0;
            }
        }
    }
}

/// Region of the shared major node an identifier falls in, given a cursor
/// parked on an element known to be disambiguator-free.
fn region_after<D>(cursor: Cursor<'_, D>) -> Region {
    match cursor.peek_next() {
        None => Region::PlainSlot,
        Some((Side::Left, _)) => Region::LeftSubtree,
        Some(_) => Region::RightSubtree,
    }
}

impl<D> PosId<D> {
    /// The identifier of the root position (empty path).
    pub const fn root() -> Self {
        PosId { node: None }
    }

    /// Builds an identifier from its elements.
    pub fn from_elems(elems: Vec<PathElem<D>>) -> Self {
        let mut id = PosId::root();
        for e in elems {
            id = id.child(e);
        }
        id
    }

    /// The path elements, materialised into an owned vector. Prefer the O(1)
    /// accessors ([`Self::depth`], [`Self::last`], [`Self::dis_count`], …)
    /// on hot paths; this walks and clones the whole logical path.
    pub fn elems(&self) -> Vec<PathElem<D>>
    where
        D: Clone,
    {
        // Tip-first into one exactly sized vector, then reversed.
        let mut out = Vec::with_capacity(self.depth());
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            match &n.seg {
                Seg::Mini(side, d) => out.push(PathElem::mini(*side, d.clone())),
                Seg::Plains(side, k) => {
                    out.extend(std::iter::repeat_n(PathElem::plain(*side), *k as usize))
                }
            }
            cur = n.parent.as_deref();
        }
        out.reverse();
        out
    }

    /// Number of path elements (= depth of the identified node, = number of
    /// bits of the path).
    pub fn depth(&self) -> usize {
        self.node.as_deref().map_or(0, |n| n.depth as usize)
    }

    /// `true` for the root identifier.
    pub fn is_root(&self) -> bool {
        self.node.is_none()
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<PathElem<D>>
    where
        D: Clone,
    {
        self.node.as_deref().map(|n| match &n.seg {
            Seg::Mini(side, d) => PathElem::mini(*side, d.clone()),
            Seg::Plains(side, _) => PathElem::plain(*side),
        })
    }

    /// The branch bit of the last element, if any.
    pub fn last_side(&self) -> Option<Side> {
        self.node.as_deref().map(|n| match n.seg {
            Seg::Mini(side, _) => side,
            Seg::Plains(side, _) => side,
        })
    }

    /// The disambiguator of the last element, if the identifier ends in a
    /// mini-node selection.
    pub fn last_dis(&self) -> Option<&D> {
        match self.node.as_deref() {
            Some(PathNode {
                seg: Seg::Mini(_, d),
                ..
            }) => Some(d),
            _ => None,
        }
    }

    /// The sequence of branch bits, ignoring disambiguators.
    pub fn bits(&self) -> impl Iterator<Item = Side> + '_ {
        self.runs_from(0)
            .into_iter()
            .flat_map(|(side, _, count)| std::iter::repeat_n(side, count))
    }

    /// The branch bits as a vector of 0/1 values.
    pub fn bit_vec(&self) -> Vec<u8> {
        self.bits().map(Side::bit).collect()
    }

    /// Number of disambiguators carried by this identifier.
    pub fn dis_count(&self) -> usize {
        self.node.as_deref().map_or(0, |n| n.dis_count as usize)
    }

    /// Number of disambiguators carried by *interior* elements (everything
    /// but the last). Zero for the sequential-typing spine identifiers, which
    /// lets hot paths skip ghost-ancestor bookkeeping entirely.
    pub fn interior_dis_count(&self) -> usize {
        match self.node.as_deref() {
            None => 0,
            Some(n) => (n.dis_count - matches!(n.seg, Seg::Mini(..)) as u32) as usize,
        }
    }

    /// The identifier of the parent node: the same path with the final
    /// element removed (paper §3.1: `u / v` iff `id(v) = id(u)·p` or
    /// `id(v) = id(u)·(p:d)`). Returns `None` for the root. O(1).
    pub fn parent(&self) -> Option<PosId<D>> {
        let node = self.node.as_deref()?;
        Some(match &node.seg {
            Seg::Mini(..) | Seg::Plains(_, 1) => PosId {
                node: node.parent.clone(),
            },
            Seg::Plains(side, n) => {
                let (pd, pdc, pshape, _) = parent_stats(&node.parent);
                let k = u64::from(n - 1);
                let code = elem_code(*side, false);
                PosId {
                    node: Some(Arc::new(PathNode {
                        parent: node.parent.clone(),
                        seg: Seg::Plains(*side, n - 1),
                        depth: pd + (n - 1),
                        dis_count: pdc,
                        shape: pshape
                            .wrapping_mul(shape_pow(k))
                            .wrapping_add(code.wrapping_mul(shape_geom(k)))
                            as u32,
                        chunks: node.chunks,
                    })),
                }
            }
        })
    }

    /// Extends this identifier with one more element, producing a child
    /// identifier. O(1): the new identifier shares this one's path.
    pub fn child(&self, elem: PathElem<D>) -> PosId<D> {
        match elem.dis {
            Some(d) => self.child_mini(elem.side, d),
            None => self.extend_plains(elem.side, 1),
        }
    }

    /// Extends with one disambiguated element (`child` without the
    /// `PathElem` wrapper). O(1).
    pub fn child_mini(&self, side: Side, dis: D) -> PosId<D> {
        let (depth, dc, shape, chunks) = parent_stats(&self.node);
        PosId {
            node: Some(Arc::new(PathNode {
                parent: self.node.clone(),
                seg: Seg::Mini(side, dis),
                depth: depth + 1,
                dis_count: dc + 1,
                shape: shape
                    .wrapping_mul(DIGEST_BASE)
                    .wrapping_add(elem_code(side, true)) as u32,
                chunks: chunks + 1,
            })),
        }
    }

    /// Extends with `count` consecutive plain elements on `side`, in O(log
    /// count): the run becomes (or merges into) a single chunk.
    pub fn extend_plains(&self, side: Side, count: usize) -> PosId<D> {
        if count == 0 {
            return self.clone();
        }
        let count = u32::try_from(count).expect("path deeper than u32::MAX");
        let k = u64::from(count);
        let code = elem_code(side, false);
        let added = code.wrapping_mul(shape_geom(k));
        match self.node.as_deref() {
            // Canonical form: merge into an existing same-side plains chunk.
            Some(PathNode {
                parent,
                seg: Seg::Plains(s, n),
                depth,
                dis_count,
                shape,
                chunks,
            }) if *s == side => PosId {
                node: Some(Arc::new(PathNode {
                    parent: parent.clone(),
                    seg: Seg::Plains(side, n + count),
                    depth: depth + count,
                    dis_count: *dis_count,
                    shape: u64::from(*shape)
                        .wrapping_mul(shape_pow(k))
                        .wrapping_add(added) as u32,
                    chunks: *chunks,
                })),
            },
            _ => {
                let (depth, dc, shape, chunks) = parent_stats(&self.node);
                PosId {
                    node: Some(Arc::new(PathNode {
                        parent: self.node.clone(),
                        seg: Seg::Plains(side, count),
                        depth: depth + count,
                        dis_count: dc,
                        shape: shape.wrapping_mul(shape_pow(k)).wrapping_add(added) as u32,
                        chunks: chunks + 1,
                    })),
                }
            }
        }
    }

    /// Number of chunk nodes backing this identifier (a proxy for its heap
    /// footprint: one chunk per direction change or disambiguator, however
    /// long the same-side plain stretches between them). O(1), cached.
    pub fn chunk_count(&self) -> usize {
        chunks_of(self.node.as_deref()) as usize
    }

    /// Approximate heap footprint: one `PathNode` per chunk. Shared chunks
    /// are attributed to every identifier that references them.
    pub fn heap_bytes(&self) -> usize {
        self.chunk_count() * std::mem::size_of::<PathNode<D>>()
    }

    /// Visits the logical elements from index `start` on, as
    /// `(side, disambiguator)` pairs, without materialising them: the walk
    /// collects one entry per chunk past `start`, not one per element. This
    /// is the cheap alternative to [`PosId::elems`] for serialisation and
    /// hashing paths.
    pub fn visit_elems_from<F: FnMut(Side, Option<&D>)>(&self, start: usize, mut f: F) {
        for (side, dis, count) in self.runs_from(start) {
            for _ in 0..count {
                f(side, dis);
            }
        }
    }

    /// The elements from index `start` on as runs, root-first: one
    /// `(side, disambiguator, count)` per chunk, the first cut at `start`.
    /// Walks only the chunks past `start`, tip-first.
    pub(crate) fn runs_from(&self, start: usize) -> Vec<(Side, Option<&D>, usize)> {
        // Sized exactly for the whole path; a suffix grows as it needs.
        let mut out = Vec::with_capacity(if start == 0 { self.chunk_count() } else { 0 });
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            let end = n.depth as usize;
            if end <= start {
                break;
            }
            out.push(match &n.seg {
                Seg::Mini(side, d) => (*side, Some(d), 1),
                Seg::Plains(side, k) => (*side, None, (*k as usize).min(end - start)),
            });
            cur = n.parent.as_deref();
        }
        out.reverse();
        out
    }

    /// The element at index `idx`, as `(side, disambiguator)`.
    pub(crate) fn elem_at(&self, idx: usize) -> Option<(Side, Option<&D>)> {
        let mut cur = self.node.as_deref()?;
        if idx >= cur.depth as usize {
            return None;
        }
        loop {
            let start = (cur.depth - cur.seg_len()) as usize;
            if idx >= start {
                return Some(match &cur.seg {
                    Seg::Mini(side, d) => (*side, Some(d)),
                    Seg::Plains(side, _) => (*side, None),
                });
            }
            cur = cur.parent.as_deref()?;
        }
    }

    /// The prefix of this identifier keeping the first `len` elements, in
    /// O(chunks): the result shares every wholly-kept chunk.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the identifier's depth.
    pub fn prefix(&self, len: usize) -> PosId<D> {
        assert!(len <= self.depth(), "prefix past the end of the path");
        let len = len as u32;
        let mut cur = &self.node;
        loop {
            let node = match cur.as_deref() {
                None => return PosId::root(),
                Some(n) => n,
            };
            if node.depth == len {
                return PosId { node: cur.clone() };
            }
            let start = node.depth - node.seg_len();
            if start >= len {
                cur = &node.parent;
                continue;
            }
            // The prefix boundary falls inside this (necessarily Plains)
            // chunk: truncate it.
            let side = match node.seg {
                Seg::Plains(side, _) => side,
                Seg::Mini(..) => unreachable!("mini chunks have length 1"),
            };
            let keep = len - start;
            let (pd, pdc, pshape, _) = parent_stats(&node.parent);
            let k = u64::from(keep);
            let code = elem_code(side, false);
            return PosId {
                node: Some(Arc::new(PathNode {
                    parent: node.parent.clone(),
                    seg: Seg::Plains(side, keep),
                    depth: pd + keep,
                    dis_count: pdc,
                    shape: pshape
                        .wrapping_mul(shape_pow(k))
                        .wrapping_add(code.wrapping_mul(shape_geom(k)))
                        as u32,
                    chunks: node.chunks,
                })),
            };
        }
    }

    /// Length of the longest common element-wise prefix of two identifiers,
    /// in O(chunks past the deepest pointer-shared chunk): see the module
    /// documentation.
    pub fn common_prefix_len(&self, other: &PosId<D>) -> usize
    where
        D: PartialEq,
    {
        let (mut shared, ac, bc) = diverge(self, other);
        let mut a = Cursor::start(&ac);
        let mut b = Cursor::start(&bc);
        loop {
            // Same-side plain stretches match wholesale: skip them chunk-wise
            // so the scan is O(divergent chunks), not O(divergent elements).
            if let (Some((sa, ra)), Some((sb, rb))) = (a.plains_rem(), b.plains_rem()) {
                if sa == sb {
                    let k = ra.min(rb);
                    shared += k as usize;
                    a.advance_by(k);
                    b.advance_by(k);
                    continue;
                }
            }
            let (Some((sa, da)), Some((sb, db))) = (a.get(), b.get()) else {
                break;
            };
            if sa != sb || da != db {
                break;
            }
            shared += 1;
            a.advance();
            b.advance();
        }
        shared
    }

    /// Identifiers of every strict prefix ending in a disambiguated element,
    /// shallowest first. These are exactly the mini-node ancestors that need
    /// ghost bookkeeping; the list is empty for spine identifiers (O(1)).
    pub(crate) fn mini_prefixes(&self) -> Vec<PosId<D>> {
        let mut out = Vec::new();
        let mut cur = self.node.as_ref().and_then(|n| n.parent.as_ref());
        while let Some(arc) = cur {
            if matches!(arc.seg, Seg::Mini(..)) {
                out.push(PosId {
                    node: Some(arc.clone()),
                });
            }
            cur = arc.parent.as_ref();
        }
        out.reverse();
        out
    }

    /// Size of this identifier in bits: one bit per element plus the size of
    /// each disambiguator it carries. This is the quantity reported in the
    /// "PosID" columns of Table 1 and Table 4 of the paper.
    pub fn size_bits(&self) -> usize
    where
        D: Disambiguator,
    {
        self.depth() + self.dis_count() * D::ACCOUNTED_BYTES * 8
    }

    /// Size of this identifier in bytes (rounded up), the unit used when the
    /// identifier is shipped over the network.
    pub fn size_bytes(&self) -> usize
    where
        D: Disambiguator,
    {
        self.size_bits().div_ceil(8)
    }

    /// `true` if `self`'s elements are a strict prefix of `other`'s elements
    /// (the paper's ancestor relation `u /+ v`, applied element-wise).
    pub fn is_strict_prefix_of(&self, other: &PosId<D>) -> bool
    where
        D: PartialEq,
    {
        self.depth() < other.depth() && self.common_prefix_len(other) == self.depth()
    }

    /// The *compatible-ancestor* relation used by the allocation algorithm
    /// (Algorithm 1): `self` is an ancestor of `other` if `other`'s path
    /// passes through `self`'s position — either through `self`'s mini-node
    /// explicitly, or through the plain slot of `self`'s major node.
    ///
    /// This is the reading under which, in the paper's running example, atom
    /// `c` (id `[(1:dC)]`) is an ancestor of atom `d` (id `[1·(0:dD)]`): the
    /// bits of `c` are a prefix of the bits of `d`, and `d` does not descend
    /// through a *different* mini-node at `c`'s position.
    pub fn is_ancestor_of(&self, other: &PosId<D>) -> bool
    where
        D: PartialEq,
    {
        let n = self.depth();
        if n >= other.depth() {
            return false;
        }
        if n == 0 {
            return true;
        }
        // All but the last element must match exactly (same branch and same
        // mini-node selection), because interior disambiguators denote a
        // genuinely different subtree.
        if self.common_prefix_len(other) < n - 1 {
            return false;
        }
        // The element of `other` landing on `self`'s position must use the
        // same branch and either the same mini-node or the plain slot.
        let (my_side, my_dis) = self.elem_at(n - 1).expect("n - 1 < depth");
        let (their_side, their_dis) = other.elem_at(n - 1).expect("n - 1 < other depth");
        if my_side != their_side {
            return false;
        }
        match (my_dis, their_dis) {
            (_, None) => true,
            (Some(a), Some(b)) => a == b,
            (None, Some(_)) => false,
        }
    }

    /// `true` if `self` and `other` are mini-siblings: mini-nodes of the same
    /// major node (same branch bits, both carrying a final disambiguator,
    /// with identical interior elements).
    pub fn is_mini_sibling_of(&self, other: &PosId<D>) -> bool
    where
        D: PartialEq,
    {
        let n = self.depth();
        if n != other.depth() || n == 0 {
            return false;
        }
        let (a, b) = match (self.node.as_deref(), other.node.as_deref()) {
            (Some(a), Some(b)) => (a, b),
            _ => return false,
        };
        match (&a.seg, &b.seg) {
            (Seg::Mini(sa, da), Seg::Mini(sb, db)) if sa == sb && da != db => {
                self.prefix(n - 1) == other.prefix(n - 1)
            }
            _ => false,
        }
    }

    /// A copy of this identifier with the final disambiguator removed (the
    /// `c1 … pn` prefix used by Algorithm 1 when allocating a child of the
    /// *major* node rather than of the mini-node). O(1).
    pub fn major_path(&self) -> PosId<D> {
        match self.node.as_deref() {
            None => PosId::root(),
            Some(n) => match &n.seg {
                Seg::Plains(..) => self.clone(),
                Seg::Mini(side, _) => PosId {
                    node: n.parent.clone(),
                }
                .extend_plains(*side, 1),
            },
        }
    }

    /// `self` rebuilt on `hint`'s chunk chain, when `self` ends in a
    /// mini-node and either hangs off `hint`'s path (its parent is a prefix
    /// of `hint`: `hint` itself — a backspace — or one of the ancestors a
    /// run of backspaces deletes) or is a child of `hint`'s major node (the
    /// next keystroke of a typing run, or the first after a backspace);
    /// `None` otherwise, and `None` when `hint` has at most
    /// `INLINE_CHUNKS` (16) chunks: comparisons against so short a chain are
    /// cheap without any sharing, so rebuilding would only cost allocations.
    ///
    /// Identifiers decoded from bytes share no chunk with the identifiers a
    /// replica already stores, so every comparison against them walks both
    /// chains in full. Re-linked, the result shares all but its last one or
    /// two chunks with `hint`. The check opens with O(1) gates (chunk count,
    /// depth) and allocates nothing when it does not apply; confirming a
    /// match is one value equality over the chain.
    pub fn relink_onto(&self, hint: &PosId<D>) -> Option<PosId<D>>
    where
        D: Clone + PartialEq,
    {
        let (tip, h) = (self.node.as_deref()?, hint.node.as_deref()?);
        let Seg::Mini(side, dis) = &tip.seg else {
            return None;
        };
        if h.chunks as usize <= INLINE_CHUNKS {
            return None;
        }
        if tip.depth <= h.depth + 1 && chain_is_prefix(&tip.parent, &hint.node) {
            return Some(if tip.depth == h.depth && tip.seg == h.seg {
                hint.clone()
            } else {
                hint.prefix(tip.depth as usize - 1)
                    .child_mini(*side, dis.clone())
            });
        }
        if tip.depth != h.depth + 1 {
            return None;
        }
        // `self`'s parent must be `hint`'s major path: `hint` with its final
        // element made plain. Compare without building that path: pick the
        // two chains that must be equal below the major path's last chunk.
        let parent = tip.parent.as_deref()?;
        let (mine, theirs) = match (&h.seg, &parent.seg) {
            (Seg::Plains(..), _) => (&tip.parent, &hint.node),
            (Seg::Mini(hs, _), Seg::Plains(ps, 1)) if hs == ps => (&parent.parent, &h.parent),
            (Seg::Mini(hs, _), Seg::Plains(ps, k)) if hs == ps => match h.parent.as_deref() {
                Some(hp) if hp.seg == Seg::Plains(*hs, k - 1) => (&parent.parent, &hp.parent),
                _ => return None,
            },
            _ => return None,
        };
        if !chains_eq(mine, theirs) {
            return None;
        }
        // Already on `hint`'s chain (an identifier derived from it): keep it.
        let shared = match (mine, theirs) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => true,
        };
        Some(if shared {
            self.clone()
        } else {
            hint.major_path().child_mini(*side, dis.clone())
        })
    }

    /// Human-readable rendering, used in error messages.
    pub fn repr(&self) -> PosIdRepr
    where
        D: fmt::Debug,
    {
        PosIdRepr(format!("{self:?}"))
    }
}

impl<D: PartialEq> PartialEq for PosId<D> {
    fn eq(&self, other: &Self) -> bool {
        chains_eq(&self.node, &other.node)
    }
}

impl<D: Eq> Eq for PosId<D> {}

impl<D: Hash> Hash for PosId<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.node.as_deref().map_or(0, |n| n.shape));
        state.write_usize(self.depth());
        // Feed the disambiguators (tip-most first) so that mini-siblings,
        // which share the structural shape, still hash apart.
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            if let Seg::Mini(_, d) = &n.seg {
                d.hash(state);
            }
            cur = n.parent.as_deref();
        }
    }
}

impl<D: Disambiguator> PosId<D> {
    /// Compares two identifiers according to the infix-walk order of §3.1.
    ///
    /// See the module documentation for how the plain-versus-mini case is
    /// resolved. The walk starts past the deepest pointer-shared chunk (see
    /// [`diverge`]), so comparing two identifiers derived from a common
    /// prefix costs O(chunks past it), not O(depth).
    fn infix_cmp(&self, other: &PosId<D>) -> Ordering {
        let (_, ac, bc) = diverge(self, other);
        let mut a = Cursor::start(&ac);
        let mut b = Cursor::start(&bc);
        loop {
            // Same-side plain stretches compare equal wholesale: skip them
            // chunk-wise so the walk is O(divergent chunks) even when the
            // shared prefix is not pointer-shared.
            if let (Some((sa, ra)), Some((sb, rb))) = (a.plains_rem(), b.plains_rem()) {
                if sa == sb {
                    let k = ra.min(rb);
                    a.advance_by(k);
                    b.advance_by(k);
                    continue;
                }
            }
            match (a.get(), b.get()) {
                (None, None) => return Ordering::Equal,
                // One is an element-wise prefix of the other: the longer one
                // sorts according to the branch it takes next.
                (None, Some((side, _))) => {
                    return if side == Side::Right {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                }
                (Some((side, _)), None) => {
                    return if side == Side::Right {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    };
                }
                (Some((sa, da)), Some((sb, db))) => {
                    if sa != sb {
                        return sa.cmp(&sb);
                    }
                    match (da, db) {
                        (None, None) => {}
                        (Some(x), Some(y)) => match x.cmp(y) {
                            Ordering::Equal => {}
                            o => return o,
                        },
                        // Same branch bit, one path goes through the major
                        // node's plain namespace, the other through a
                        // mini-node: order by region (left subtree < plain
                        // slot < minis < right subtree).
                        (None, Some(_)) => return region_after(a).cmp(&Region::Minis),
                        (Some(_), None) => return Region::Minis.cmp(&region_after(b)),
                    }
                    a.advance();
                    b.advance();
                }
            }
        }
    }
}

impl<D: Disambiguator> PartialOrd for PosId<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Disambiguator> Ord for PosId<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.infix_cmp(other)
    }
}

impl<D: fmt::Debug> fmt::Debug for PosId<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (side, dis, count) in self.runs_from(0) {
            match dis {
                Some(d) => write!(f, "({}:{:?})", side.bit(), d)?,
                None => {
                    for _ in 0..count {
                        write!(f, "{}", side.bit())?;
                    }
                }
            }
        }
        write!(f, "]")
    }
}

impl<D: fmt::Debug> fmt::Display for PosId<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

// The wire image of a `PosId` is its element sequence, exactly as the old
// `struct PosId { elems: Vec<PathElem<D>> }` derive produced it, so storage
// snapshots and JSON WALs written before the chunked representation decode
// unchanged (and vice versa).
impl<D: Serialize> Serialize for PosId<D> {
    fn to_value(&self) -> Value {
        let mut arr = Vec::with_capacity(self.depth());
        self.visit_elems_from(0, |side, dis| arr.push(elem_value(side, dis)));
        Value::Map(vec![(String::from("elems"), Value::Array(arr))])
    }
}

/// The value tree the `PathElem` derive produces, built from borrowed parts.
fn elem_value<D: Serialize>(side: Side, dis: Option<&D>) -> Value {
    Value::Map(vec![
        (String::from("side"), side.to_value()),
        (
            String::from("dis"),
            match dis {
                None => Value::Null,
                Some(d) => d.to_value(),
            },
        ),
    ])
}

impl<D: Deserialize> Deserialize for PosId<D> {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let map = value
            .as_map()
            .ok_or_else(|| SerdeError::custom("expected map for `PosId`"))?;
        let elems: Vec<PathElem<D>> =
            Deserialize::from_value(serde::value::get_field(map, "elems"))?;
        Ok(PosId::from_elems(elems))
    }
}

/// A pre-rendered position identifier, used in error values so that
/// [`Error`](crate::Error) does not need to be generic over the
/// disambiguator type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosIdRepr(pub String);

impl fmt::Display for PosIdRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::{Sdis, Udis};
    use crate::site::SiteId;

    fn s(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    /// Shorthand to build a `PosId<Sdis>` from a compact description:
    /// `p(&[(0, None), (1, Some(3))])` = `[0·(1:s3)]`.
    fn p(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
        PosId::from_elems(
            desc.iter()
                .map(|&(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(s),
                })
                .collect(),
        )
    }

    #[test]
    fn root_is_empty() {
        let r = PosId::<Sdis>::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.parent(), None);
    }

    #[test]
    fn parent_strips_last_element() {
        let id = p(&[(1, None), (0, Some(4))]);
        assert_eq!(id.parent().unwrap(), p(&[(1, None)]));
    }

    #[test]
    fn size_accounting() {
        // Two elements, one disambiguator: 2 bits + 48 bits (6-byte SDIS).
        let id = p(&[(1, None), (0, Some(4))]);
        assert_eq!(id.size_bits(), 2 + 48);
        assert_eq!(id.size_bytes(), (2usize + 48).div_ceil(8));

        // UDIS carries 10 bytes per disambiguator.
        let u: PosId<Udis> = PosId::from_elems(vec![PathElem::mini(
            Side::Left,
            Udis::new(1, SiteId::from_u64(1)),
        )]);
        assert_eq!(u.size_bits(), 1 + 80);
    }

    #[test]
    fn plain_bit_order() {
        // Figure 1 layout: a[00] < b[0] < c[] < d[10] < e[1] < f[11].
        let a = p(&[(0, None), (0, None)]);
        let b = p(&[(0, None)]);
        let c = p(&[]);
        let d = p(&[(1, None), (0, None)]);
        let e = p(&[(1, None)]);
        let f = p(&[(1, None), (1, None)]);
        let mut v = vec![
            f.clone(),
            d.clone(),
            b.clone(),
            e.clone(),
            c.clone(),
            a.clone(),
        ];
        v.sort();
        assert_eq!(v, vec![a, b, c, d, e, f]);
    }

    #[test]
    fn paper_example_order_after_concurrent_inserts() {
        // Figure 2–4 of the paper. In the Figure 1/2 tree, `c` is the root
        // atom and `d` hangs below it at bit path "10"; ids as derived in
        // §3.2:
        //   c  = []                  (the root, ancestor of d)
        //   d  = [1·(0:dD)]
        //   W  = [1·0·(0:dW)]        concurrent insert between c and d
        //   Y  = [1·0·(0:dY)]        concurrent insert between c and d
        //   X  = [1·0·(0:dW)·(1:dX)] inserted between W and Y
        //   Z  = [1·0·0·(1:dZ)]      inserted between Y and d
        // With dW < dY the document must read … c W X Y Z d …
        let c = p(&[]);
        let d = p(&[(1, None), (0, Some(4))]);
        let w = p(&[(1, None), (0, None), (0, Some(1))]);
        let y = p(&[(1, None), (0, None), (0, Some(2))]);
        let x = p(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]);
        let z = p(&[(1, None), (0, None), (0, None), (1, Some(6))]);

        let expected = vec![
            c.clone(),
            w.clone(),
            x.clone(),
            y.clone(),
            z.clone(),
            d.clone(),
        ];
        let mut got = vec![d, z, x, w, y, c];
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn prefix_rule_orders_by_next_branch() {
        let base = p(&[(1, None), (0, Some(4))]);
        let left_child = p(&[(1, None), (0, None), (0, Some(9))]);
        let right_child = p(&[(1, None), (0, None), (1, Some(9))]);
        assert!(left_child < base);
        assert!(base < right_child);
    }

    #[test]
    fn plain_slot_sorts_before_minis_and_after_left_subtree() {
        // Same major node (bit path "0"): its plain slot, a mini-node, its
        // plain left subtree and its plain right subtree.
        let plain_slot = p(&[(0, None)]);
        let mini = p(&[(0, Some(2))]);
        let left_sub = p(&[(0, None), (0, Some(1))]);
        let right_sub = p(&[(0, None), (1, Some(1))]);
        assert!(left_sub < plain_slot);
        assert!(plain_slot < mini);
        assert!(mini < right_sub);
        assert!(left_sub < mini);
        assert!(plain_slot < right_sub);
    }

    #[test]
    fn mini_subtrees_sort_with_their_mini() {
        // Minis d1 < d2 at the same major node; d1's right subtree must sort
        // after d1 but before d2's left subtree.
        let d1 = p(&[(0, Some(1))]);
        let d1_right = p(&[(0, Some(1)), (1, Some(7))]);
        let d2_left = p(&[(0, Some(2)), (0, Some(7))]);
        let d2 = p(&[(0, Some(2))]);
        assert!(d1 < d1_right);
        assert!(d1_right < d2_left);
        assert!(d2_left < d2);
    }

    #[test]
    fn ancestor_relation_follows_paper_example() {
        // c = [(1:dC)] is an ancestor of d = [1·(0:dD)] (the example in §3.2
        // relies on this), even though the element forms differ.
        let c = p(&[(1, Some(3))]);
        let d = p(&[(1, None), (0, Some(4))]);
        assert!(c.is_ancestor_of(&d));
        assert!(!d.is_ancestor_of(&c));

        // But a path descending through a *different* mini-node is not a
        // descendant: W is not an ancestor of a node below Y.
        let w = p(&[(1, None), (0, None), (0, Some(1))]);
        let below_y = p(&[(1, None), (0, None), (0, Some(2)), (0, Some(9))]);
        assert!(!w.is_ancestor_of(&below_y));
        // ... while Y itself is.
        let y = p(&[(1, None), (0, None), (0, Some(2))]);
        assert!(y.is_ancestor_of(&below_y));
    }

    #[test]
    fn root_is_ancestor_of_everything_but_itself() {
        let root = PosId::<Sdis>::root();
        let other = p(&[(0, Some(1))]);
        assert!(root.is_ancestor_of(&other));
        assert!(!root.is_ancestor_of(&PosId::root()));
    }

    #[test]
    fn mini_siblings() {
        let w = p(&[(1, None), (0, None), (0, Some(1))]);
        let y = p(&[(1, None), (0, None), (0, Some(2))]);
        let elsewhere = p(&[(1, None), (1, None), (0, Some(2))]);
        assert!(w.is_mini_sibling_of(&y));
        assert!(y.is_mini_sibling_of(&w));
        assert!(!w.is_mini_sibling_of(&w.clone()));
        assert!(!w.is_mini_sibling_of(&elsewhere));
    }

    #[test]
    fn major_path_strips_final_disambiguator_only() {
        let x = p(&[(1, None), (0, Some(1)), (1, Some(5))]);
        assert_eq!(x.major_path(), p(&[(1, None), (0, Some(1)), (1, None)]));
    }

    #[test]
    fn debug_rendering() {
        let x = p(&[(1, None), (0, Some(1))]);
        assert_eq!(format!("{x:?}"), "[1(0:s1)]");
        assert_eq!(x.repr().to_string(), "[1(0:s1)]");
    }

    #[test]
    fn ordering_is_consistent_with_equality() {
        let a = p(&[(1, None), (0, Some(1))]);
        let b = p(&[(1, None), (0, Some(1))]);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a, b);
    }

    #[test]
    fn derived_and_rebuilt_ids_are_equal_and_share_nothing() {
        // The same logical path reached two ways: by child extension from a
        // shared base, and rebuilt from scratch via `from_elems`. They must
        // compare equal (and hash equal) despite disjoint chunk chains.
        let base = p(&[(1, None), (0, Some(2))]);
        let derived = base
            .child(PathElem::plain(Side::Right))
            .child(PathElem::plain(Side::Right))
            .child(PathElem::mini(Side::Left, s(3)));
        let rebuilt = p(&[(1, None), (0, Some(2)), (1, None), (1, None), (0, Some(3))]);
        assert_eq!(derived, rebuilt);
        assert_eq!(derived.cmp(&rebuilt), Ordering::Equal);
        use std::collections::hash_map::DefaultHasher;
        let h = |id: &PosId<Sdis>| {
            let mut st = DefaultHasher::new();
            id.hash(&mut st);
            st.finish()
        };
        assert_eq!(h(&derived), h(&rebuilt));
    }

    #[test]
    fn deep_spine_id_stays_flat_in_chunks() {
        // A sequential-typing spine identifier: thousands of plain elements
        // and one trailing mini must cost O(1) chunks, and extending it by
        // one more level must not copy the prefix.
        let deep = PosId::<Sdis>::root()
            .extend_plains(Side::Right, 10_000)
            .child(PathElem::mini(Side::Right, s(1)));
        assert_eq!(deep.depth(), 10_001);
        assert_eq!(deep.chunk_count(), 2);
        assert_eq!(deep.dis_count(), 1);
        assert_eq!(deep.interior_dis_count(), 0);
        let deeper = deep.major_path().child(PathElem::mini(Side::Right, s(1)));
        assert_eq!(deeper.depth(), 10_002);
        assert_eq!(deeper.chunk_count(), 2);
        // Siblings derived from the same anchor compare in O(divergence).
        assert!(deep < deeper);
    }

    #[test]
    fn prefix_and_common_prefix_len() {
        let id = p(&[(1, None), (1, None), (0, Some(2)), (0, None), (1, Some(3))]);
        assert_eq!(id.prefix(0), PosId::root());
        assert_eq!(id.prefix(1), p(&[(1, None)]));
        assert_eq!(id.prefix(3), p(&[(1, None), (1, None), (0, Some(2))]));
        assert_eq!(id.prefix(5), id);
        let other = p(&[(1, None), (1, None), (0, Some(2)), (1, None)]);
        assert_eq!(id.common_prefix_len(&other), 3);
        assert_eq!(id.common_prefix_len(&id.clone()), 5);
        assert_eq!(id.common_prefix_len(&PosId::root()), 0);
    }

    #[test]
    fn mini_prefixes_lists_ghost_ancestors_shallowest_first() {
        let id = p(&[
            (1, None),
            (0, Some(1)),
            (1, Some(5)),
            (0, None),
            (1, Some(7)),
        ]);
        let prefixes = id.mini_prefixes();
        assert_eq!(
            prefixes,
            vec![
                p(&[(1, None), (0, Some(1))]),
                p(&[(1, None), (0, Some(1)), (1, Some(5))]),
            ]
        );
        assert_eq!(id.interior_dis_count(), 2);
        // Spine-shaped ids have no ghost ancestors to visit.
        let spine = p(&[(1, None), (1, None), (1, Some(9))]);
        assert!(spine.mini_prefixes().is_empty());
        assert_eq!(spine.interior_dis_count(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_elem() -> impl Strategy<Value = PathElem<Sdis>> {
            (0u8..2, proptest::option::of(0u64..4)).prop_map(|(bit, dis)| PathElem {
                side: Side::from_bit(bit),
                dis: dis.map(s),
            })
        }

        fn arb_posid() -> impl Strategy<Value = PosId<Sdis>> {
            proptest::collection::vec(arb_elem(), 0..8).prop_map(PosId::from_elems)
        }

        proptest! {
            /// Antisymmetry + totality: exactly one of <, =, > holds, and it
            /// is the mirror of the reverse comparison.
            #[test]
            fn comparison_is_antisymmetric(a in arb_posid(), b in arb_posid()) {
                let ab = a.cmp(&b);
                let ba = b.cmp(&a);
                prop_assert_eq!(ab, ba.reverse());
                if ab == Ordering::Equal {
                    prop_assert_eq!(&a, &b);
                }
            }

            /// Transitivity, checked through sort consistency on triples.
            #[test]
            fn comparison_is_transitive(a in arb_posid(), b in arb_posid(), c in arb_posid()) {
                if a <= b && b <= c {
                    prop_assert!(a <= c, "{:?} <= {:?} <= {:?} but not {:?} <= {:?}", a, b, c, a, c);
                }
                if a >= b && b >= c {
                    prop_assert!(a >= c);
                }
            }

            /// A node sorts after everything in its left subtree and before
            /// everything in its right subtree.
            #[test]
            fn children_sort_around_parent(base in arb_posid(), tail in arb_posid(), d in 0u64..4) {
                let left_first = base.child(PathElem::mini(Side::Left, s(d)));
                let right_first = base.child(PathElem::mini(Side::Right, s(d)));
                // Arbitrary deeper descendants keep the relation.
                let mut deep_left = left_first.clone();
                let mut deep_right = right_first.clone();
                for e in tail.elems() {
                    deep_left = deep_left.child(e.clone());
                    deep_right = deep_right.child(e.clone());
                }
                if base.last().map(|e| e.dis.is_some()).unwrap_or(true) {
                    // `base` names an actual atom slot (mini or root plain slot).
                    prop_assert!(left_first < base);
                    prop_assert!(base < right_first);
                }
                prop_assert!(left_first < right_first);
                prop_assert!(deep_left < deep_right || left_first == right_first);
            }

            /// Sorting is stable under shuffling (i.e. the order is total and
            /// deterministic).
            #[test]
            fn sort_is_deterministic(mut ids in proptest::collection::vec(arb_posid(), 0..12)) {
                let mut once = ids.clone();
                once.sort();
                ids.reverse();
                ids.sort();
                prop_assert_eq!(once, ids);
            }

            /// The chunked representation round-trips through its element
            /// sequence: `from_elems(id.elems())` is the identity, and the
            /// derived accessors agree with the materialised elements.
            #[test]
            fn elems_round_trip(a in arb_posid()) {
                let elems = a.elems();
                let rebuilt = PosId::from_elems(elems.clone());
                prop_assert_eq!(&a, &rebuilt);
                prop_assert_eq!(a.depth(), elems.len());
                prop_assert_eq!(a.dis_count(), elems.iter().filter(|e| e.dis.is_some()).count());
                prop_assert_eq!(a.last(), elems.last().cloned());
                prop_assert_eq!(
                    a.parent(),
                    (!elems.is_empty()).then(|| {
                        PosId::from_elems(elems[..elems.len() - 1].to_vec())
                    })
                );
            }

            /// `prefix` and `common_prefix_len` agree with the element-wise
            /// definitions.
            #[test]
            fn prefix_agrees_with_elementwise(a in arb_posid(), b in arb_posid()) {
                let ae = a.elems();
                let be = b.elems();
                let shared = ae.iter().zip(&be).take_while(|(x, y)| x == y).count();
                prop_assert_eq!(a.common_prefix_len(&b), shared);
                for k in 0..=ae.len() {
                    prop_assert_eq!(a.prefix(k), PosId::from_elems(ae[..k].to_vec()));
                }
            }
        }
    }
}

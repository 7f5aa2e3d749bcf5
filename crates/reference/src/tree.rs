//! The per-atom extended binary tree of §3: one heap node per atom, no
//! coalescing anywhere. The product stores documents as runs
//! (`treedoc_core::RunTree`); this tree is the oracle the run store and its
//! region queries are checked against, and the layout the §5.2 disk image
//! ([`DiskImage`](crate::DiskImage)) serialises.
//!
//! [`Tree`] stores atoms in [`MajorNode`]s / [`MiniNode`]s and offers:
//!
//! * path-addressed reads, inserts and deletes,
//! * index-addressed lookups (the identifier of the *i*-th live atom and its
//!   neighbour slots),
//! * infix traversal of every occupied slot (statistics, serialisation),
//! * subtree extraction / replacement (the `explode` / `flatten` structural
//!   clean-up of §4.2),
//! * the cold-subtree search of the flatten heuristic of §5.1.
//!
//! The deletion policy follows the disambiguator design (§3.3): with
//! [`Udis`](treedoc_core::Udis) deleted nodes are discarded eagerly (leaves
//! removed, non-leaves kept as ghosts until their subtree empties); with
//! [`Sdis`](treedoc_core::Sdis) deleted nodes become tombstones.

use serde::{Deserialize, Serialize};
use treedoc_core::{
    Atom, Content, Disambiguator, Error, HasSource, PathElem, PosId, Result, Side, Treedoc,
};

use crate::node::{MajorNode, MiniNode};

/// A read-only view of one occupied slot, passed to [`Tree::for_each_slot`].
#[derive(Debug)]
pub struct SlotView<'a, A, D> {
    /// Branch bits from the root down to this slot's position.
    pub bits: &'a [Side],
    /// The slot's own disambiguator (`None` for plain slots).
    pub dis: Option<&'a D>,
    /// Number of disambiguators on the path to this slot, *including* its
    /// own: the identifier of this slot costs
    /// `bits.len() + dis_count * DIS_BYTES * 8` bits.
    pub dis_count: usize,
    /// The slot content.
    pub content: &'a Content<A>,
}

impl<A, D: Disambiguator> SlotView<'_, A, D> {
    /// Size in bits of this slot's position identifier (Table 1 "PosID").
    pub fn pos_id_bits(&self) -> usize {
        self.bits.len() + self.dis_count * D::ACCOUNTED_BYTES * 8
    }
}

/// The extended binary tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree<A, D> {
    root: MajorNode<A, D>,
}

impl<A: Atom, D: Disambiguator> Default for Tree<A, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Atom, D: Disambiguator> Tree<A, D> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Tree {
            root: MajorNode::empty(),
        }
    }

    /// Builds a tree directly from a prepared root node (used by `explode`).
    pub(crate) fn from_root(mut root: MajorNode<A, D>) -> Self {
        recount_deep(&mut root);
        Tree { root }
    }

    /// The root major node.
    pub fn root(&self) -> &MajorNode<A, D> {
        &self.root
    }

    /// Number of live atoms.
    pub fn live_len(&self) -> usize {
        self.root.live_count()
    }

    /// Number of occupied slots (live atoms + tombstones + ghosts).
    pub fn node_count(&self) -> usize {
        self.root.total_count()
    }

    /// `true` when the document holds no live atom.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Height of the tree in levels (0 for a completely empty tree).
    pub fn height(&self) -> usize {
        if self.root.is_empty_structure() {
            0
        } else {
            self.root.height()
        }
    }

    // ------------------------------------------------------------------
    // Path-addressed access
    // ------------------------------------------------------------------

    /// Returns the content of the slot identified by `id`, if the slot
    /// exists.
    pub fn get(&self, id: &PosId<D>) -> Option<&Content<A>> {
        enum Ctx<'a, A, D> {
            Major(&'a MajorNode<A, D>),
            Mini(&'a MiniNode<A, D>),
        }
        let mut ctx = Ctx::Major(&self.root);
        for elem in id.elems() {
            let child = match ctx {
                Ctx::Major(m) => m.child(elem.side)?,
                Ctx::Mini(m) => m.child(elem.side)?,
            };
            ctx = match &elem.dis {
                None => Ctx::Major(child),
                Some(d) => Ctx::Mini(child.find_mini(d)?),
            };
        }
        Some(match ctx {
            Ctx::Major(m) => m.plain(),
            Ctx::Mini(m) => m.content(),
        })
    }

    /// Returns the live atom identified by `id`, if any.
    pub fn get_atom(&self, id: &PosId<D>) -> Option<&A> {
        self.get(id).and_then(Content::live)
    }

    /// Inserts `atom` at identifier `id`, creating any missing ancestors as
    /// ghost nodes (this happens when replaying an insert whose ancestors
    /// were concurrently discarded under UDIS, §3.3.1).
    ///
    /// Fails with [`Error::DuplicatePosId`] if a *live* atom already occupies
    /// the slot — concurrent inserts always carry distinct identifiers, so a
    /// collision indicates a broken delivery layer.
    pub fn insert(&mut self, id: &PosId<D>, atom: A, rev: u64) -> Result<()> {
        self.root.hot_rev = self.root.hot_rev.max(rev);
        if id.is_root() {
            if self.root.plain.is_live() {
                return Err(Error::DuplicatePosId { id: id.repr() });
            }
            self.root.plain = Content::Live(atom);
            self.root.recount();
            return Ok(());
        }
        let elems = id.elems();
        let result = insert_below(HolderMut::Major(&mut self.root), &elems, atom, rev, id);
        self.root.recount();
        result
    }

    /// Deletes the atom identified by `id`.
    ///
    /// Deletion is idempotent and tolerant of already-discarded nodes: if the
    /// slot does not exist or holds no live atom, the call is a no-op and
    /// returns `Ok(None)` — this is what makes concurrent deletes of the same
    /// atom commute (§2.2).
    pub fn delete(&mut self, id: &PosId<D>, rev: u64) -> Result<Option<A>> {
        self.root.hot_rev = self.root.hot_rev.max(rev);
        if id.is_root() {
            let removed = self.root.plain.take_live(if D::DISCARD_ON_DELETE {
                Content::Absent
            } else {
                Content::Tombstone
            });
            self.root.recount();
            return Ok(removed);
        }
        let elems = id.elems();
        let removed = delete_below(HolderMut::Major(&mut self.root), &elems, rev);
        self.root.recount();
        if D::DISCARD_ON_DELETE {
            self.root.prune();
            self.root.recount();
        }
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // Index-addressed access
    // ------------------------------------------------------------------

    /// Identifier of the `index`-th live atom (0-based), if it exists.
    pub fn id_of_live_index(&self, index: usize) -> Option<PosId<D>> {
        if index >= self.live_len() {
            return None;
        }
        let mut path: Vec<PathElem<D>> = Vec::new();
        locate_live_major(&self.root, &mut path, index);
        Some(PosId::from_elems(path))
    }

    /// The live atom at `index`, if it exists.
    ///
    /// Resolved in a **single** descent guided by the cached live counters —
    /// unlike [`id_of_live_index`](Self::id_of_live_index) followed by
    /// [`get_atom`](Self::get_atom), which walks the tree twice and clones
    /// every disambiguator on the path along the way.
    pub fn atom_at(&self, index: usize) -> Option<&A> {
        if index >= self.live_len() {
            return None;
        }
        Some(live_atom_at(&self.root, index))
    }

    /// Identifier of the first occupied slot (live, tombstone or ghost) in
    /// infix order.
    pub fn first_slot(&self) -> Option<PosId<D>> {
        if self.root.total_count() == 0 {
            return None;
        }
        first_slot_in_major(&self.root, &PosId::root())
    }

    /// Identifier of the occupied slot that immediately follows `id` in infix
    /// order, considering every slot (live, tombstone or ghost).
    ///
    /// The pair `(id, successor(id))` is adjacent in the *full* tree, which
    /// is exactly the precondition Algorithm 1 needs when allocating a fresh
    /// identifier between two atoms (§3.2) without ever colliding with a
    /// tombstone.
    pub fn successor_slot(&self, id: &PosId<D>) -> Option<PosId<D>> {
        let elems = id.elems();
        succ_in_major(&self.root, &PosId::root(), &elems)
    }

    /// All live atoms in document order.
    pub fn to_vec(&self) -> Vec<A> {
        let mut out = Vec::with_capacity(self.live_len());
        self.for_each_slot(|slot| {
            if let Content::Live(a) = slot.content {
                out.push(a.clone());
            }
        });
        out
    }

    /// Live atoms paired with their identifiers, in document order.
    pub fn to_identified_vec(&self) -> Vec<(PosId<D>, A)> {
        let mut out = Vec::with_capacity(self.live_len());
        collect_identified(&self.root, &PosId::root(), &mut out);
        out
    }

    /// Visits every occupied slot in infix (document) order.
    ///
    /// The [`SlotView`] passed to the callback borrows traversal-local state,
    /// so the callback must copy out whatever it wants to keep.
    pub fn for_each_slot(&self, mut f: impl for<'b> FnMut(SlotView<'b, A, D>)) {
        let mut bits: Vec<Side> = Vec::new();
        visit_major(&self.root, &mut bits, 0, &mut f);
    }

    // ------------------------------------------------------------------
    // Subtrees (flatten / explode support)
    // ------------------------------------------------------------------

    /// The major node rooted at the given plain bit path, if it exists.
    pub fn subtree(&self, bits: &[Side]) -> Option<&MajorNode<A, D>> {
        let mut node = &self.root;
        for &side in bits {
            node = node.child(side)?;
        }
        Some(node)
    }

    /// Live atoms of the subtree rooted at the given plain bit path, in
    /// document order.
    pub fn subtree_live_atoms(&self, bits: &[Side]) -> Result<Vec<A>> {
        let node = self.subtree(bits).ok_or_else(|| Error::NoSuchSubtree {
            bits: bits.iter().map(|s| s.bit()).collect(),
        })?;
        let mut out = Vec::with_capacity(node.live_count());
        let mut scratch: Vec<Side> = bits.to_vec();
        let mut collect = |slot: SlotView<'_, A, D>| {
            if let Content::Live(a) = slot.content {
                out.push(a.clone());
            }
        };
        visit_major(node, &mut scratch, 0, &mut collect);
        Ok(out)
    }

    /// Replaces the subtree rooted at the given plain bit path with `new`,
    /// recomputing the cached counters of every ancestor.
    pub fn replace_subtree(&mut self, bits: &[Side], new: MajorNode<A, D>) -> Result<()> {
        fn rec<A: Atom, D: Disambiguator>(
            node: &mut MajorNode<A, D>,
            bits: &[Side],
            new: MajorNode<A, D>,
        ) -> Result<()> {
            match bits.split_first() {
                None => {
                    *node = new;
                    Ok(())
                }
                Some((&side, rest)) => {
                    let child = node.child_mut(side).ok_or_else(|| Error::NoSuchSubtree {
                        bits: bits.iter().map(|s| s.bit()).collect(),
                    })?;
                    rec(child, rest, new)?;
                    node.recount();
                    Ok(())
                }
            }
        }
        let mut new = new;
        recount_deep(&mut new);
        rec(&mut self.root, bits, new)?;
        self.root.recount();
        Ok(())
    }

    /// Finds maximal subtrees (rooted at plain positions) whose last
    /// modification is at or before `threshold_rev` and which hold at least
    /// `min_live` live atoms. Used by the cold-region flatten heuristic of
    /// §5.1.
    pub fn find_cold_subtrees(&self, threshold_rev: u64, min_live: usize) -> Vec<Vec<Side>> {
        fn rec<A, D: Disambiguator>(
            node: &MajorNode<A, D>,
            bits: &mut Vec<Side>,
            threshold: u64,
            min_live: usize,
            out: &mut Vec<Vec<Side>>,
        ) {
            if node.live == 0 && node.total == 0 {
                return;
            }
            if node.hot_rev <= threshold && node.live >= min_live {
                out.push(bits.clone());
                return;
            }
            for side in [Side::Left, Side::Right] {
                if let Some(child) = node.child(side) {
                    bits.push(side);
                    rec(child, bits, threshold, min_live, out);
                    bits.pop();
                }
            }
        }
        let mut out = Vec::new();
        let mut bits = Vec::new();
        rec(&self.root, &mut bits, threshold_rev, min_live, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Restoration (deserialisation support)
    // ------------------------------------------------------------------

    /// Sets the slot identified by `id` to `content`, creating any missing
    /// structure, and stamps `rev` into the `hot_rev` of every major node
    /// on the path (as an [`insert`](Self::insert) at `id` does). Unlike
    /// `insert` this can restore tombstones and ghost nodes, which is what
    /// loading a stored document needs; it does **not** update the cached
    /// counters — call [`rebuild_counts`](Self::rebuild_counts) once after
    /// the last slot has been restored.
    pub fn restore_slot(&mut self, id: &PosId<D>, content: Content<A>, rev: u64) {
        enum CtxMut<'a, A, D> {
            Major(&'a mut MajorNode<A, D>),
            Mini(&'a mut MiniNode<A, D>),
        }
        self.root.hot_rev = self.root.hot_rev.max(rev);
        let mut ctx = CtxMut::Major(&mut self.root);
        for elem in id.elems() {
            let child = match ctx {
                CtxMut::Major(m) => m.child_or_create(elem.side),
                CtxMut::Mini(m) => m.child_or_create(elem.side),
            };
            child.hot_rev = child.hot_rev.max(rev);
            ctx = match &elem.dis {
                None => CtxMut::Major(child),
                Some(d) => CtxMut::Mini(child.find_mini_or_create(d)),
            };
        }
        match ctx {
            CtxMut::Major(m) => m.plain = content,
            CtxMut::Mini(m) => m.content = content,
        }
    }

    /// Recomputes every cached counter after a sequence of
    /// [`restore_slot`](Self::restore_slot) calls.
    pub fn rebuild_counts(&mut self) {
        recount_deep(&mut self.root);
    }

    /// Every occupied slot in infix order, with its full identifier, a clone
    /// of its content and the `hot_rev` of its enclosing major node. This is
    /// the exchange format between the per-atom tree and the run-coalesced
    /// store ([`RunTree`](treedoc_core::RunTree)).
    pub fn collect_cells(&self) -> Vec<(PosId<D>, Content<A>, u64)> {
        let mut out = Vec::with_capacity(self.node_count());
        collect_cells_rec(&self.root, &PosId::root(), &mut out);
        out
    }

    /// Materialises the per-atom tree holding `cells` (in document order,
    /// as `RunTree::collect_cells` lists them), stamping every path with its
    /// cell's revision so the cold-subtree heuristic sees run-level recency.
    pub fn from_cells(cells: impl IntoIterator<Item = (PosId<D>, Content<A>, u64)>) -> Self {
        let mut tree = Tree::new();
        for (id, content, rev) in cells {
            tree.restore_slot(&id, content, rev);
        }
        tree.rebuild_counts();
        tree
    }

    /// The per-atom tree equivalent to `doc`'s run store.
    pub fn of_doc(doc: &Treedoc<A, D>) -> Self
    where
        D: HasSource,
    {
        Self::from_cells(doc.store().collect_cells())
    }

    /// Asserts internal invariants; used by tests and debug builds.
    ///
    /// Checks that cached counters match a full recount, that mini-nodes are
    /// sorted by disambiguator, and that the root major node carries no
    /// mini-nodes (the root position has no addressing element, so it cannot
    /// hold disambiguated slots).
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.root.minis().is_empty() {
            return Err("root major node must not carry mini-nodes".to_string());
        }
        check_major(&self.root)
    }
}

// ----------------------------------------------------------------------
// Internal recursion helpers
// ----------------------------------------------------------------------

/// Mutable handle on a node that owns child major nodes — either a major
/// node (plain children) or a mini-node (its private children).
enum HolderMut<'a, A, D> {
    Major(&'a mut MajorNode<A, D>),
    Mini(&'a mut MiniNode<A, D>),
}

impl<'a, A: Atom, D: Disambiguator> HolderMut<'a, A, D> {
    fn child_or_create(self, side: Side) -> &'a mut MajorNode<A, D> {
        match self {
            HolderMut::Major(m) => m.child_or_create(side),
            HolderMut::Mini(m) => m.child_or_create(side),
        }
    }

    fn child_mut(self, side: Side) -> Option<&'a mut MajorNode<A, D>> {
        match self {
            HolderMut::Major(m) => m.child_mut(side),
            HolderMut::Mini(m) => m.child_mut(side),
        }
    }
}

/// Recursive insert: `elems` is non-empty and descends from `parent`.
fn insert_below<A: Atom, D: Disambiguator>(
    parent: HolderMut<'_, A, D>,
    elems: &[PathElem<D>],
    atom: A,
    rev: u64,
    full_id: &PosId<D>,
) -> Result<()> {
    let (elem, rest) = elems
        .split_first()
        .expect("insert_below requires a non-empty path");
    let child = parent.child_or_create(elem.side);
    child.hot_rev = child.hot_rev.max(rev);
    let result = match &elem.dis {
        None => {
            if rest.is_empty() {
                if child.plain.is_live() {
                    Err(Error::DuplicatePosId { id: full_id.repr() })
                } else {
                    child.plain = Content::Live(atom);
                    Ok(())
                }
            } else {
                insert_below(HolderMut::Major(&mut *child), rest, atom, rev, full_id)
            }
        }
        Some(dis) => {
            let mini = child.find_mini_or_create(dis);
            let r = if rest.is_empty() {
                if mini.content.is_live() {
                    Err(Error::DuplicatePosId { id: full_id.repr() })
                } else {
                    mini.content = Content::Live(atom);
                    Ok(())
                }
            } else {
                insert_below(HolderMut::Mini(&mut *mini), rest, atom, rev, full_id)
            };
            mini.recount();
            r
        }
    };
    child.recount();
    result
}

/// Recursive delete: `elems` is non-empty and descends from `parent`.
/// Returns the removed atom if the slot held a live one.
fn delete_below<A: Atom, D: Disambiguator>(
    parent: HolderMut<'_, A, D>,
    elems: &[PathElem<D>],
    rev: u64,
) -> Option<A> {
    let (elem, rest) = elems
        .split_first()
        .expect("delete_below requires a non-empty path");
    let child = parent.child_mut(elem.side)?;
    child.hot_rev = child.hot_rev.max(rev);
    let removed = match &elem.dis {
        None => {
            if rest.is_empty() {
                child.plain.take_live(if D::DISCARD_ON_DELETE {
                    Content::Absent
                } else {
                    Content::Tombstone
                })
            } else {
                delete_below(HolderMut::Major(&mut *child), rest, rev)
            }
        }
        Some(dis) => {
            let mini = child.find_mini_mut(dis)?;
            let removed = if rest.is_empty() {
                mini.content.take_live(if D::DISCARD_ON_DELETE {
                    Content::Ghost
                } else {
                    Content::Tombstone
                })
            } else {
                delete_below(HolderMut::Mini(&mut *mini), rest, rev)
            };
            mini.recount();
            if D::DISCARD_ON_DELETE {
                mini.prune_children();
                mini.recount();
                if !mini.content.is_live()
                    && !mini.content.is_tombstone()
                    && mini.left.is_none()
                    && mini.right.is_none()
                {
                    child.remove_mini(dis);
                }
            }
            removed
        }
    };
    child.recount();
    if D::DISCARD_ON_DELETE {
        child.prune();
        child.recount();
    }
    removed
}

/// Recomputes every cached counter in the subtree (used after building trees
/// wholesale, e.g. in `explode`).
pub(crate) fn recount_deep<A: Atom, D: Disambiguator>(node: &mut MajorNode<A, D>) {
    for side in [Side::Left, Side::Right] {
        if let Some(child) = node.child_mut(side) {
            recount_deep(child);
        }
    }
    for mini in &mut node.minis {
        for child in [mini.left.as_deref_mut(), mini.right.as_deref_mut()]
            .into_iter()
            .flatten()
        {
            recount_deep(child);
        }
        mini.recount();
    }
    node.recount();
}

fn check_major<A: Atom, D: Disambiguator>(node: &MajorNode<A, D>) -> Result<(), String> {
    let mut clone = node.clone();
    clone.recount();
    if clone.live != node.live || clone.total != node.total {
        return Err(format!(
            "major node counters stale: cached ({}, {}) vs actual ({}, {})",
            node.live, node.total, clone.live, clone.total
        ));
    }
    for pair in node.minis().windows(2) {
        if pair[0].dis() >= pair[1].dis() {
            return Err("mini-nodes out of order".to_string());
        }
    }
    for mini in node.minis() {
        let mut mclone = mini.clone();
        mclone.recount();
        if mclone.live != mini.live_count() || mclone.total != mini.total_count() {
            return Err("mini node counters stale".to_string());
        }
        for side in [Side::Left, Side::Right] {
            if let Some(child) = mini.child(side) {
                check_major(child)?;
            }
        }
    }
    for side in [Side::Left, Side::Right] {
        if let Some(child) = node.child(side) {
            check_major(child)?;
        }
    }
    Ok(())
}

// --- index lookup -------------------------------------------------------

/// Finds the `index`-th live atom in one loop down the tree, steered by the
/// cached live counters (no path built, no second descent, no disambiguator
/// clones). `index` must be `< node.live`.
fn live_atom_at<A, D: Disambiguator>(node: &MajorNode<A, D>, index: usize) -> &A {
    let mut node = node;
    let mut index = index;
    'descend: loop {
        debug_assert!(index < node.live);
        if let Some(left) = node.child(Side::Left) {
            if index < left.live {
                node = left;
                continue 'descend;
            }
            index -= left.live;
        }
        if node.plain.is_live() {
            if index == 0 {
                return node.plain.live().expect("liveness just checked");
            }
            index -= 1;
        }
        for mini in node.minis() {
            if index < mini.live_count() {
                // Descend into this mini-node's private namespace: its left
                // subtree, its own slot, then its right subtree.
                if let Some(left) = mini.child(Side::Left) {
                    if index < left.live {
                        node = left;
                        continue 'descend;
                    }
                    index -= left.live;
                }
                if mini.content().is_live() {
                    if index == 0 {
                        return mini.content().live().expect("liveness just checked");
                    }
                    index -= 1;
                }
                node = mini.child(Side::Right).expect("index within live count");
                continue 'descend;
            }
            index -= mini.live_count();
        }
        node = node.child(Side::Right).expect("index within live count");
    }
}

fn locate_live_major<A, D: Disambiguator + Clone>(
    node: &MajorNode<A, D>,
    path: &mut Vec<PathElem<D>>,
    mut index: usize,
) {
    debug_assert!(index < node.live);
    if let Some(left) = node.child(Side::Left) {
        if index < left.live {
            path.push(PathElem::plain(Side::Left));
            locate_live_major(left, path, index);
            return;
        }
        index -= left.live;
    }
    if node.plain.is_live() {
        if index == 0 {
            return; // the plain slot: path as accumulated
        }
        index -= 1;
    }
    for mini in &node.minis {
        if index < mini.live {
            // Select this mini: the element landing on this major node must
            // carry its disambiguator.
            let last = path
                .last_mut()
                .expect("root major node cannot hold mini-nodes");
            last.dis = Some(mini.dis.clone());
            locate_live_mini(mini, path, index);
            return;
        }
        index -= mini.live;
    }
    let right = node.child(Side::Right).expect("index within live count");
    path.push(PathElem::plain(Side::Right));
    locate_live_major(right, path, index);
}

fn locate_live_mini<A, D: Disambiguator + Clone>(
    node: &MiniNode<A, D>,
    path: &mut Vec<PathElem<D>>,
    mut index: usize,
) {
    debug_assert!(index < node.live);
    if let Some(left) = node.child(Side::Left) {
        if index < left.live {
            path.push(PathElem::plain(Side::Left));
            locate_live_major(left, path, index);
            return;
        }
        index -= left.live;
    }
    if node.content.is_live() {
        if index == 0 {
            return;
        }
        index -= 1;
    }
    let right = node.child(Side::Right).expect("index within live count");
    path.push(PathElem::plain(Side::Right));
    locate_live_major(right, path, index);
}

// --- first / successor slot ---------------------------------------------

/// Identifier of the mini-node `dis` of the major node reached by
/// `major_path` (whose last element is plain).
fn mini_id<D: Disambiguator>(major_path: &PosId<D>, dis: &D) -> PosId<D> {
    let side = major_path
        .last_side()
        .expect("the root major node cannot hold mini-nodes");
    let parent = major_path
        .parent()
        .expect("the root major node cannot hold mini-nodes");
    parent.child_mini(side, dis.clone())
}

fn first_slot_in_major<A, D: Disambiguator>(
    node: &MajorNode<A, D>,
    path: &PosId<D>,
) -> Option<PosId<D>> {
    if node.total == 0 {
        return None;
    }
    if let Some(left) = node.child(Side::Left) {
        if let Some(found) = first_slot_in_major(left, &path.child(PathElem::plain(Side::Left))) {
            return Some(found);
        }
    }
    if node.plain.is_present() {
        return Some(path.clone());
    }
    if let Some(found) = first_slot_in_minis_after(node, path, None) {
        return Some(found);
    }
    first_slot_in_child(node, path, Side::Right)
}

fn first_slot_in_mini<A, D: Disambiguator>(
    node: &MiniNode<A, D>,
    path: &PosId<D>,
) -> Option<PosId<D>> {
    if node.total == 0 {
        return None;
    }
    if let Some(left) = node.child(Side::Left) {
        if let Some(found) = first_slot_in_major(left, &path.child(PathElem::plain(Side::Left))) {
            return Some(found);
        }
    }
    if node.content.is_present() {
        return Some(path.clone());
    }
    node.child(Side::Right)
        .and_then(|right| first_slot_in_major(right, &path.child(PathElem::plain(Side::Right))))
}

/// First occupied slot among the mini-nodes of `node` whose disambiguator is
/// strictly greater than `after` (all of them when `after` is `None`),
/// followed by nothing — the caller chains the right subtree itself.
fn first_slot_in_minis_after<A, D: Disambiguator>(
    node: &MajorNode<A, D>,
    major_path: &PosId<D>,
    after: Option<&D>,
) -> Option<PosId<D>> {
    for mini in &node.minis {
        if let Some(a) = after {
            if mini.dis() <= a {
                continue;
            }
        }
        if let Some(found) = first_slot_in_mini(mini, &mini_id(major_path, mini.dis())) {
            return Some(found);
        }
    }
    None
}

fn first_slot_in_child<A, D: Disambiguator>(
    node: &MajorNode<A, D>,
    major_path: &PosId<D>,
    side: Side,
) -> Option<PosId<D>> {
    node.child(side)
        .and_then(|child| first_slot_in_major(child, &major_path.child(PathElem::plain(side))))
}

/// Smallest occupied slot strictly greater than the identifier
/// `path-to-node ++ rel`, restricted to the subtree of `node` (a major node
/// reached through its plain namespace).
fn succ_in_major<A, D: Disambiguator>(
    node: &MajorNode<A, D>,
    path: &PosId<D>,
    rel: &[PathElem<D>],
) -> Option<PosId<D>> {
    let Some((elem, rest)) = rel.split_first() else {
        // The bound is this major node's plain slot: the successor is the
        // first slot among the minis, then the right subtree.
        return first_slot_in_minis_after(node, path, None)
            .or_else(|| first_slot_in_child(node, path, Side::Right));
    };
    let child_path = path.child(PathElem::plain(elem.side));
    let within_child = node.child(elem.side).and_then(|child| match &elem.dis {
        None => succ_in_major(child, &child_path, rest),
        Some(dis) => {
            let within_mini = child
                .find_mini(dis)
                .and_then(|mini| succ_in_mini(mini, &mini_id(&child_path, dis), rest));
            within_mini
                .or_else(|| first_slot_in_minis_after(child, &child_path, Some(dis)))
                .or_else(|| first_slot_in_child(child, &child_path, Side::Right))
        }
    });
    within_child.or_else(|| match elem.side {
        // The bound lies in the left subtree: this node's plain slot, minis
        // and right subtree all follow it.
        Side::Left => {
            if node.plain.is_present() {
                Some(path.clone())
            } else {
                first_slot_in_minis_after(node, path, None)
                    .or_else(|| first_slot_in_child(node, path, Side::Right))
            }
        }
        Side::Right => None,
    })
}

/// Same as [`succ_in_major`] but for a bound inside a mini-node's namespace.
fn succ_in_mini<A, D: Disambiguator>(
    node: &MiniNode<A, D>,
    path: &PosId<D>,
    rel: &[PathElem<D>],
) -> Option<PosId<D>> {
    let Some((elem, rest)) = rel.split_first() else {
        // The bound is the mini-node itself: the successor is the first slot
        // of its right subtree.
        return node.child(Side::Right).and_then(|right| {
            first_slot_in_major(right, &path.child(PathElem::plain(Side::Right)))
        });
    };
    let child_path = path.child(PathElem::plain(elem.side));
    let within_child = node.child(elem.side).and_then(|child| match &elem.dis {
        None => succ_in_major(child, &child_path, rest),
        Some(dis) => {
            let within_mini = child
                .find_mini(dis)
                .and_then(|mini| succ_in_mini(mini, &mini_id(&child_path, dis), rest));
            within_mini
                .or_else(|| first_slot_in_minis_after(child, &child_path, Some(dis)))
                .or_else(|| first_slot_in_child(child, &child_path, Side::Right))
        }
    });
    within_child.or_else(|| match elem.side {
        Side::Left => {
            if node.content.is_present() {
                Some(path.clone())
            } else {
                node.child(Side::Right).and_then(|right| {
                    first_slot_in_major(right, &path.child(PathElem::plain(Side::Right)))
                })
            }
        }
        Side::Right => None,
    })
}

// --- traversal ------------------------------------------------------------

fn visit_major<A, D: Disambiguator>(
    node: &MajorNode<A, D>,
    bits: &mut Vec<Side>,
    dis_count: usize,
    f: &mut impl for<'b> FnMut(SlotView<'b, A, D>),
) {
    if let Some(left) = node.child(Side::Left) {
        bits.push(Side::Left);
        visit_major(left, bits, dis_count, f);
        bits.pop();
    }
    if node.plain.is_present() {
        f(SlotView {
            bits,
            dis: None,
            dis_count,
            content: &node.plain,
        });
    }
    for mini in &node.minis {
        if let Some(left) = mini.child(Side::Left) {
            bits.push(Side::Left);
            visit_major(left, bits, dis_count + 1, f);
            bits.pop();
        }
        if mini.content.is_present() {
            f(SlotView {
                bits,
                dis: Some(&mini.dis),
                dis_count: dis_count + 1,
                content: &mini.content,
            });
        }
        if let Some(right) = mini.child(Side::Right) {
            bits.push(Side::Right);
            visit_major(right, bits, dis_count + 1, f);
            bits.pop();
        }
    }
    if let Some(right) = node.child(Side::Right) {
        bits.push(Side::Right);
        visit_major(right, bits, dis_count, f);
        bits.pop();
    }
}

/// The identifier of mini-node `dis` at the major node reached by `path`.
/// The root major node holds no mini-nodes; should one appear there anyway,
/// the plain root path is returned unchanged (mirroring the descent logic,
/// which has nowhere else to file it).
fn mini_path_of<D: Disambiguator>(path: &PosId<D>, dis: &D) -> PosId<D> {
    match (path.parent(), path.last_side()) {
        (Some(parent), Some(side)) => parent.child_mini(side, dis.clone()),
        _ => path.clone(),
    }
}

fn collect_identified<A: Atom, D: Disambiguator>(
    node: &MajorNode<A, D>,
    path: &PosId<D>,
    out: &mut Vec<(PosId<D>, A)>,
) {
    if let Some(left) = node.child(Side::Left) {
        collect_identified(left, &path.extend_plains(Side::Left, 1), out);
    }
    if let Content::Live(a) = &node.plain {
        out.push((path.clone(), a.clone()));
    }
    for mini in &node.minis {
        let mini_path = mini_path_of(path, &mini.dis);
        if let Some(left) = mini.child(Side::Left) {
            collect_identified(left, &mini_path.extend_plains(Side::Left, 1), out);
        }
        if let Content::Live(a) = &mini.content {
            out.push((mini_path.clone(), a.clone()));
        }
        if let Some(right) = mini.child(Side::Right) {
            collect_identified(right, &mini_path.extend_plains(Side::Right, 1), out);
        }
    }
    if let Some(right) = node.child(Side::Right) {
        collect_identified(right, &path.extend_plains(Side::Right, 1), out);
    }
}

fn collect_cells_rec<A: Atom, D: Disambiguator>(
    node: &MajorNode<A, D>,
    path: &PosId<D>,
    out: &mut Vec<(PosId<D>, Content<A>, u64)>,
) {
    if let Some(left) = node.child(Side::Left) {
        collect_cells_rec(left, &path.extend_plains(Side::Left, 1), out);
    }
    if node.plain.is_present() {
        out.push((path.clone(), node.plain.clone(), node.hot_rev));
    }
    for mini in &node.minis {
        let mini_path = mini_path_of(path, &mini.dis);
        if let Some(left) = mini.child(Side::Left) {
            collect_cells_rec(left, &mini_path.extend_plains(Side::Left, 1), out);
        }
        if mini.content.is_present() {
            out.push((mini_path.clone(), mini.content.clone(), node.hot_rev));
        }
        if let Some(right) = mini.child(Side::Right) {
            collect_cells_rec(right, &mini_path.extend_plains(Side::Right, 1), out);
        }
    }
    if let Some(right) = node.child(Side::Right) {
        collect_cells_rec(right, &path.extend_plains(Side::Right, 1), out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use treedoc_core::{Sdis, SiteId, Udis};

    type STree = Tree<char, Sdis>;
    type UTree = Tree<char, Udis>;

    pub(crate) fn sd(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    fn ud(c: u32, n: u64) -> Udis {
        Udis::new(c, SiteId::from_u64(n))
    }

    /// An SDIS identifier from `(branch bit, disambiguator site)` pairs.
    pub(crate) fn sid(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
        PosId::from_elems(
            desc.iter()
                .map(|&(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(sd),
                })
                .collect(),
        )
    }

    #[test]
    fn empty_tree() {
        let t = STree::new();
        assert!(t.is_empty());
        assert_eq!(t.live_len(), 0);
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.height(), 0);
        assert_eq!(t.first_slot(), None);
        assert_eq!(t.id_of_live_index(0), None);
        assert!(t.to_vec().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_read_by_path() {
        let mut t = STree::new();
        // Figure 1 layout: a[00] < b[0] < c[] < d[10] < e[1] < f[11].
        let ids = [
            (sid(&[(0, None), (0, None)]), 'a'),
            (sid(&[(0, None)]), 'b'),
            (sid(&[]), 'c'),
            (sid(&[(1, None), (0, None)]), 'd'),
            (sid(&[(1, None)]), 'e'),
            (sid(&[(1, None), (1, None)]), 'f'),
        ];
        for (id, ch) in &ids {
            t.insert(id, *ch, 1).unwrap();
        }
        assert_eq!(t.to_vec(), vec!['a', 'b', 'c', 'd', 'e', 'f']);
        assert_eq!(t.live_len(), 6);
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.height(), 3);
        for (id, ch) in &ids {
            assert_eq!(t.get_atom(id), Some(ch));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut t = STree::new();
        let id = sid(&[(0, Some(1))]);
        t.insert(&id, 'x', 1).unwrap();
        assert!(matches!(
            t.insert(&id, 'y', 2),
            Err(Error::DuplicatePosId { .. })
        ));
    }

    #[test]
    fn insert_with_mini_nodes_orders_by_disambiguator() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(4))]), 'd', 1).unwrap();
        // Two concurrent inserts between c and d land on the same position
        // with different disambiguators (Figure 3).
        t.insert(&sid(&[(1, None), (0, None), (0, Some(2))]), 'Y', 2)
            .unwrap();
        t.insert(&sid(&[(1, None), (0, None), (0, Some(1))]), 'W', 2)
            .unwrap();
        assert_eq!(t.to_vec(), vec!['c', 'W', 'Y', 'd']);
        // Insert between the mini-siblings (Figure 4).
        t.insert(
            &sid(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]),
            'X',
            3,
        )
        .unwrap();
        assert_eq!(t.to_vec(), vec!['c', 'W', 'X', 'Y', 'd']);
        // And after Y, as the plain right child of the shared major node.
        t.insert(
            &sid(&[(1, None), (0, None), (0, None), (1, Some(6))]),
            'Z',
            3,
        )
        .unwrap();
        assert_eq!(t.to_vec(), vec!['c', 'W', 'X', 'Y', 'Z', 'd']);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sdis_delete_leaves_tombstone() {
        let mut t = STree::new();
        let id = sid(&[(0, Some(1))]);
        t.insert(&id, 'x', 1).unwrap();
        assert_eq!(t.delete(&id, 2).unwrap(), Some('x'));
        assert_eq!(t.live_len(), 0);
        assert_eq!(t.node_count(), 1, "SDIS keeps a tombstone");
        assert!(t.get(&id).unwrap().is_tombstone());
        // Deleting again is a commutative no-op.
        assert_eq!(t.delete(&id, 3).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn udis_delete_discards_leaf_nodes() {
        let mut t = UTree::new();
        let id = PosId::from_elems(vec![PathElem::mini(Side::Left, ud(0, 1))]);
        t.insert(&id, 'x', 1).unwrap();
        assert_eq!(t.delete(&id, 2).unwrap(), Some('x'));
        assert_eq!(
            t.node_count(),
            0,
            "UDIS discards deleted leaves immediately"
        );
        assert_eq!(t.get(&id), None);
        // Deleting a discarded node is still a no-op, not an error.
        assert_eq!(t.delete(&id, 3).unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn udis_delete_keeps_non_leaf_until_descendants_go() {
        let mut t = UTree::new();
        // The child hangs in the *mini-node's own* namespace (it was inserted
        // between mini-siblings), so the deleted mini-node must be kept as a
        // ghost until its subtree empties (§3.3.1).
        let parent = PosId::from_elems(vec![PathElem::mini(Side::Left, ud(0, 1))]);
        let child = PosId::from_elems(vec![
            PathElem::mini(Side::Left, ud(0, 1)),
            PathElem::mini(Side::Right, ud(1, 2)),
        ]);
        t.insert(&parent, 'p', 1).unwrap();
        t.insert(&child, 'c', 1).unwrap();
        t.delete(&parent, 2).unwrap();
        assert_eq!(t.live_len(), 1);
        assert_eq!(t.node_count(), 2, "ghost parent + live child");
        // Deleting the child lets the whole chain be discarded.
        t.delete(&child, 3).unwrap();
        assert_eq!(t.node_count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn udis_delete_discards_mini_whose_descendants_use_the_plain_namespace() {
        let mut t = UTree::new();
        // Here the "descendant" was inserted through the major node's plain
        // namespace; its position does not reference the deleted mini-node's
        // disambiguator, so the mini-node itself can be discarded right away
        // while the descendant stays reachable and ordered.
        let parent = PosId::from_elems(vec![PathElem::mini(Side::Left, ud(0, 1))]);
        let child = PosId::from_elems(vec![
            PathElem::plain(Side::Left),
            PathElem::mini(Side::Right, ud(1, 1)),
        ]);
        t.insert(&parent, 'p', 1).unwrap();
        t.insert(&child, 'c', 1).unwrap();
        t.delete(&parent, 2).unwrap();
        assert_eq!(t.to_vec(), vec!['c']);
        assert_eq!(t.node_count(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn udis_replay_recreates_discarded_ancestors() {
        let mut t = UTree::new();
        let parent = PosId::from_elems(vec![PathElem::mini(Side::Left, ud(0, 1))]);
        t.insert(&parent, 'p', 1).unwrap();
        t.delete(&parent, 2).unwrap();
        assert_eq!(t.node_count(), 0);
        // A concurrent replica generated a child of `parent` before learning
        // about the delete; replaying it must re-create the ancestor chain.
        let child = PosId::from_elems(vec![
            PathElem::mini(Side::Left, ud(0, 1)),
            PathElem::mini(Side::Right, ud(5, 2)),
        ]);
        t.insert(&child, 'c', 3).unwrap();
        assert_eq!(t.to_vec(), vec!['c']);
        assert!(t.node_count() >= 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn index_lookup_matches_traversal() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(0, Some(1))]), 'b', 1).unwrap();
        t.insert(&sid(&[(0, None), (0, Some(1))]), 'a', 1).unwrap();
        t.insert(&sid(&[(1, Some(2))]), 'e', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(2))]), 'd', 1).unwrap();
        t.insert(&sid(&[(1, None), (1, Some(3))]), 'f', 1).unwrap();
        let content = t.to_vec();
        assert_eq!(content, vec!['a', 'b', 'c', 'd', 'e', 'f']);
        for (i, expected) in content.iter().enumerate() {
            let id = t.id_of_live_index(i).unwrap();
            assert_eq!(t.get_atom(&id), Some(expected), "index {i}");
            assert_eq!(t.atom_at(i), Some(expected));
        }
        assert_eq!(t.id_of_live_index(6), None);
    }

    #[test]
    fn index_lookup_skips_tombstones() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'b', 1).unwrap();
        t.insert(&sid(&[(0, Some(1))]), 'a', 1).unwrap();
        t.insert(&sid(&[(1, Some(1))]), 'c', 1).unwrap();
        t.delete(&sid(&[(0, Some(1))]), 2).unwrap();
        assert_eq!(t.to_vec(), vec!['b', 'c']);
        assert_eq!(t.atom_at(0), Some(&'b'));
        assert_eq!(t.atom_at(1), Some(&'c'));
        let id0 = t.id_of_live_index(0).unwrap();
        assert_eq!(id0, sid(&[]));
    }

    #[test]
    fn successor_walks_every_slot_in_order() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(0, Some(1))]), 'b', 1).unwrap();
        t.insert(&sid(&[(0, None), (0, Some(1))]), 'a', 1).unwrap();
        t.insert(&sid(&[(1, Some(2))]), 'e', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(2))]), 'd', 1).unwrap();
        t.insert(&sid(&[(1, None), (1, Some(3))]), 'f', 1).unwrap();
        // Delete one atom: the tombstone must still be visited by the
        // successor relation (it occupies its identifier).
        t.delete(&sid(&[(1, None), (0, Some(2))]), 2).unwrap();

        let mut slots = Vec::new();
        let mut cursor = t.first_slot();
        while let Some(id) = cursor {
            cursor = t.successor_slot(&id);
            slots.push(id);
        }
        assert_eq!(slots.len(), t.node_count());
        for pair in slots.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} should precede {:?}",
                pair[0],
                pair[1]
            );
        }
        // And it matches the traversal order.
        let mut visited = Vec::new();
        t.for_each_slot(|s| visited.push(s.bits.to_vec()));
        assert_eq!(visited.len(), slots.len());
        for (a, b) in visited.iter().zip(&slots) {
            assert_eq!(a.as_slice(), b.bits().collect::<Vec<_>>().as_slice());
        }
    }

    #[test]
    fn successor_of_mini_with_siblings() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(4))]), 'd', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, None), (0, Some(1))]), 'W', 2)
            .unwrap();
        t.insert(&sid(&[(1, None), (0, None), (0, Some(2))]), 'Y', 2)
            .unwrap();
        t.insert(
            &sid(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]),
            'X',
            3,
        )
        .unwrap();
        // c W X Y d : successor of W is X (inside W's own right subtree),
        // successor of X is Y (the next mini-sibling), successor of Y is d.
        let w = sid(&[(1, None), (0, None), (0, Some(1))]);
        let x = sid(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]);
        let y = sid(&[(1, None), (0, None), (0, Some(2))]);
        let d = sid(&[(1, None), (0, Some(4))]);
        assert_eq!(t.successor_slot(&w), Some(x.clone()));
        assert_eq!(t.successor_slot(&x), Some(y.clone()));
        assert_eq!(t.successor_slot(&y), Some(d.clone()));
        assert_eq!(t.successor_slot(&d), None);
    }

    #[test]
    fn to_identified_vec_is_sorted_and_complete() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(0, Some(1))]), 'b', 1).unwrap();
        t.insert(&sid(&[(1, Some(2))]), 'e', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(2))]), 'd', 1).unwrap();
        let pairs = t.to_identified_vec();
        assert_eq!(pairs.len(), 4);
        assert_eq!(
            pairs.iter().map(|(_, a)| *a).collect::<Vec<_>>(),
            vec!['b', 'c', 'd', 'e']
        );
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for (id, a) in &pairs {
            assert_eq!(t.get_atom(id), Some(a));
        }
    }

    #[test]
    fn subtree_extraction_and_replacement() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(1, Some(2))]), 'e', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(2))]), 'd', 1).unwrap();
        t.insert(&sid(&[(1, None), (1, Some(3))]), 'f', 1).unwrap();
        let atoms = t.subtree_live_atoms(&[Side::Right]).unwrap();
        assert_eq!(atoms, vec!['d', 'e', 'f']);
        // Replace the right subtree with a canonical two-level tree.
        let mut new_root: MajorNode<char, Sdis> = MajorNode::with_plain_atom('E');
        new_root.child_or_create(Side::Left).plain = Content::Live('D');
        new_root.child_or_create(Side::Right).plain = Content::Live('F');
        t.replace_subtree(&[Side::Right], new_root).unwrap();
        assert_eq!(t.to_vec(), vec!['c', 'D', 'E', 'F']);
        t.check_invariants().unwrap();
        assert!(t.subtree_live_atoms(&[Side::Left, Side::Left]).is_err());
    }

    #[test]
    fn cold_subtree_detection() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(0, Some(1))]), 'a', 1).unwrap();
        t.insert(&sid(&[(1, Some(1))]), 'e', 1).unwrap();
        // Revision 5 touches only the right subtree.
        t.insert(&sid(&[(1, None), (0, Some(1))]), 'd', 5).unwrap();
        // With a threshold of 1 the left subtree is cold but the root and the
        // right subtree are hot.
        let cold = t.find_cold_subtrees(1, 1);
        assert_eq!(cold, vec![vec![Side::Left]]);
        // With a threshold of 5 everything is cold; the maximal subtree is
        // the root.
        let cold = t.find_cold_subtrees(5, 1);
        assert_eq!(cold, vec![Vec::<Side>::new()]);
    }

    #[test]
    fn slot_view_reports_identifier_cost() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'c', 1).unwrap();
        t.insert(&sid(&[(1, None), (0, Some(2))]), 'd', 1).unwrap();
        let mut sizes = Vec::new();
        t.for_each_slot(|s| sizes.push((s.bits.len(), s.dis_count, s.pos_id_bits())));
        // Root plain slot: 0 bits, no disambiguator. 'd': 2 bits + one SDIS.
        assert_eq!(sizes, vec![(0, 0, 0), (2, 1, 2 + 48)]);
    }

    #[test]
    fn root_plain_insert_and_delete() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'x', 1).unwrap();
        assert!(matches!(
            t.insert(&sid(&[]), 'y', 1),
            Err(Error::DuplicatePosId { .. })
        ));
        assert_eq!(t.delete(&sid(&[]), 2).unwrap(), Some('x'));
        assert_eq!(t.live_len(), 0);
        assert_eq!(t.node_count(), 1, "SDIS tombstone at the root");
    }

    #[test]
    fn deleting_unknown_path_is_noop() {
        let mut t = STree::new();
        t.insert(&sid(&[]), 'x', 1).unwrap();
        assert_eq!(t.delete(&sid(&[(1, None), (1, Some(9))]), 2).unwrap(), None);
        assert_eq!(t.live_len(), 1);
        t.check_invariants().unwrap();
    }
}

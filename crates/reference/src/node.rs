//! Nodes of the extended binary tree (§3.1).
//!
//! Every *position* of the binary tree holds a **major node**
//! ([`MajorNode`]). A major node has
//!
//! * a *plain atom slot* — the disambiguator-free slot used by single-user
//!   documents and by flattened (compacted) regions,
//! * a list of **mini-nodes** ([`MiniNode`]) — one per concurrent insert that
//!   targeted this position, told apart and ordered by their disambiguator,
//! * two plain children (the left and right major nodes of the binary tree).
//!
//! Each mini-node additionally owns its *own* pair of children: when an atom
//! is inserted between two mini-siblings the new node must become a child of
//! a specific mini-node (Algorithm 1, line 6), so those subtrees are kept in
//! a namespace separate from the major node's plain children.
//!
//! Nodes cache the number of live atoms and of occupied slots in their
//! subtree, which makes index-based lookups and the statistics of §5
//! logarithmic rather than linear.

use treedoc_core::{Content, Disambiguator, Side};

/// A mini-node: one concurrent insert at a given tree position (§3.1).
#[derive(Debug, Clone)]
pub struct MiniNode<A, D> {
    /// The disambiguator that orders this mini-node among its mini-siblings.
    pub(crate) dis: D,
    /// The atom slot.
    pub(crate) content: Content<A>,
    /// This mini-node's own left child (used only after inserts between
    /// mini-siblings).
    pub(crate) left: Option<Box<MajorNode<A, D>>>,
    /// This mini-node's own right child.
    pub(crate) right: Option<Box<MajorNode<A, D>>>,
    /// Live atoms in this mini-node's subtree (including itself).
    pub(crate) live: usize,
    /// Occupied slots in this mini-node's subtree (including itself).
    pub(crate) total: usize,
}

impl<A, D: Disambiguator> MiniNode<A, D> {
    /// Creates a mini-node with the given content and no children.
    pub fn new(dis: D, content: Content<A>) -> Self {
        let live = usize::from(content.is_live());
        let total = usize::from(content.is_present());
        MiniNode {
            dis,
            content,
            left: None,
            right: None,
            live,
            total,
        }
    }

    /// The disambiguator.
    pub fn dis(&self) -> &D {
        &self.dis
    }

    /// The atom slot content.
    pub fn content(&self) -> &Content<A> {
        &self.content
    }

    /// The child major node on the given side, if present.
    pub fn child(&self, side: Side) -> Option<&MajorNode<A, D>> {
        match side {
            Side::Left => self.left.as_deref(),
            Side::Right => self.right.as_deref(),
        }
    }

    pub(crate) fn child_mut(&mut self, side: Side) -> Option<&mut MajorNode<A, D>> {
        match side {
            Side::Left => self.left.as_deref_mut(),
            Side::Right => self.right.as_deref_mut(),
        }
    }

    pub(crate) fn child_or_create(&mut self, side: Side) -> &mut MajorNode<A, D> {
        let slot = match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        slot.get_or_insert_with(|| Box::new(MajorNode::empty()))
    }

    /// Live atoms in this mini-node's subtree (including itself).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Occupied slots in this mini-node's subtree (including itself).
    pub fn total_count(&self) -> usize {
        self.total
    }

    /// Recomputes the cached counters from the children's counters.
    pub(crate) fn recount(&mut self) {
        let child_live =
            self.left.as_ref().map_or(0, |c| c.live) + self.right.as_ref().map_or(0, |c| c.live);
        let child_total =
            self.left.as_ref().map_or(0, |c| c.total) + self.right.as_ref().map_or(0, |c| c.total);
        self.live = child_live + usize::from(self.content.is_live());
        self.total = child_total + usize::from(self.content.is_present());
    }

    /// Drops empty child major nodes.
    pub(crate) fn prune_children(&mut self) {
        if self.left.as_ref().is_some_and(|c| c.is_empty_structure()) {
            self.left = None;
        }
        if self.right.as_ref().is_some_and(|c| c.is_empty_structure()) {
            self.right = None;
        }
    }
}

/// A major node: everything stored at one position of the binary tree.
#[derive(Debug, Clone)]
pub struct MajorNode<A, D> {
    /// The disambiguator-free atom slot (single-user documents, flattened
    /// regions).
    pub(crate) plain: Content<A>,
    /// Mini-nodes created by concurrent inserts, sorted by disambiguator.
    pub(crate) minis: Vec<MiniNode<A, D>>,
    /// Plain left child.
    pub(crate) left: Option<Box<MajorNode<A, D>>>,
    /// Plain right child.
    pub(crate) right: Option<Box<MajorNode<A, D>>>,
    /// Live atoms in this major node's whole subtree.
    pub(crate) live: usize,
    /// Occupied slots in this major node's whole subtree.
    pub(crate) total: usize,
    /// Last revision (as counted by the embedding document) in which this
    /// subtree was modified; used by the cold-region flatten heuristic (§5.1).
    pub(crate) hot_rev: u64,
}

impl<A, D: Disambiguator> Default for MajorNode<A, D> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<A, D: Disambiguator> MajorNode<A, D> {
    /// An empty major node: no atom, no minis, no children.
    pub fn empty() -> Self {
        MajorNode {
            plain: Content::Absent,
            minis: Vec::new(),
            left: None,
            right: None,
            live: 0,
            total: 0,
            hot_rev: 0,
        }
    }

    /// A major node holding a single plain (disambiguator-free) atom.
    pub fn with_plain_atom(atom: A) -> Self {
        MajorNode {
            plain: Content::Live(atom),
            minis: Vec::new(),
            left: None,
            right: None,
            live: 1,
            total: 1,
            hot_rev: 0,
        }
    }

    /// The plain atom slot.
    pub fn plain(&self) -> &Content<A> {
        &self.plain
    }

    /// The mini-nodes, in disambiguator order.
    pub fn minis(&self) -> &[MiniNode<A, D>] {
        &self.minis
    }

    /// The plain child on the given side, if present.
    pub fn child(&self, side: Side) -> Option<&MajorNode<A, D>> {
        match side {
            Side::Left => self.left.as_deref(),
            Side::Right => self.right.as_deref(),
        }
    }

    pub(crate) fn child_mut(&mut self, side: Side) -> Option<&mut MajorNode<A, D>> {
        match side {
            Side::Left => self.left.as_deref_mut(),
            Side::Right => self.right.as_deref_mut(),
        }
    }

    pub(crate) fn child_or_create(&mut self, side: Side) -> &mut MajorNode<A, D> {
        let slot = match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        slot.get_or_insert_with(|| Box::new(MajorNode::empty()))
    }

    /// Finds the mini-node with the given disambiguator.
    pub fn find_mini(&self, dis: &D) -> Option<&MiniNode<A, D>> {
        self.minis
            .binary_search_by(|m| m.dis.cmp(dis))
            .ok()
            .map(|i| &self.minis[i])
    }

    pub(crate) fn find_mini_mut(&mut self, dis: &D) -> Option<&mut MiniNode<A, D>> {
        self.minis
            .binary_search_by(|m| m.dis.cmp(dis))
            .ok()
            .map(move |i| &mut self.minis[i])
    }

    /// Finds the mini-node with the given disambiguator, creating an empty
    /// (ghost) one if it does not exist. Keeps the list sorted.
    pub(crate) fn find_mini_or_create(&mut self, dis: &D) -> &mut MiniNode<A, D> {
        match self.minis.binary_search_by(|m| m.dis.cmp(dis)) {
            Ok(i) => &mut self.minis[i],
            Err(i) => {
                self.minis
                    .insert(i, MiniNode::new(dis.clone(), Content::Ghost));
                &mut self.minis[i]
            }
        }
    }

    /// Removes the mini-node with the given disambiguator, returning it.
    pub(crate) fn remove_mini(&mut self, dis: &D) -> Option<MiniNode<A, D>> {
        match self.minis.binary_search_by(|m| m.dis.cmp(dis)) {
            Ok(i) => Some(self.minis.remove(i)),
            Err(_) => None,
        }
    }

    /// Live atoms in this subtree.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Occupied slots in this subtree.
    pub fn total_count(&self) -> usize {
        self.total
    }

    /// Last revision in which this subtree was modified.
    pub fn hot_rev(&self) -> u64 {
        self.hot_rev
    }

    /// `true` when the node carries no content and no descendants at all, so
    /// the parent may drop it.
    pub(crate) fn is_empty_structure(&self) -> bool {
        self.total == 0 && self.minis.is_empty() && self.left.is_none() && self.right.is_none()
    }

    /// Recomputes the cached counters from the children and mini-nodes.
    pub(crate) fn recount(&mut self) {
        let mut live = usize::from(self.plain.is_live());
        let mut total = usize::from(self.plain.is_present());
        for m in &self.minis {
            live += m.live;
            total += m.total;
        }
        if let Some(c) = &self.left {
            live += c.live;
            total += c.total;
        }
        if let Some(c) = &self.right {
            live += c.live;
            total += c.total;
        }
        self.live = live;
        self.total = total;
    }

    /// Drops empty children and removable mini-nodes.
    pub(crate) fn prune(&mut self) {
        if self.left.as_ref().is_some_and(|c| c.is_empty_structure()) {
            self.left = None;
        }
        if self.right.as_ref().is_some_and(|c| c.is_empty_structure()) {
            self.right = None;
        }
        self.minis.retain(|m| {
            !(matches!(m.content, Content::Absent | Content::Ghost)
                && m.left.is_none()
                && m.right.is_none())
        });
    }

    /// Height of the subtree rooted here (number of levels; an empty node has
    /// height 1 once it exists). Mini-nodes sit on their major node's level;
    /// their private children start a new level, like the plain children.
    ///
    /// Walks with an explicit stack: a degenerate (skinny) tree is as deep as
    /// the document is long, and document statistics must not blow the call
    /// stack on pathological inputs.
    pub fn height(&self) -> usize {
        let mut best = 0usize;
        let mut stack: Vec<(&MajorNode<A, D>, usize)> = vec![(self, 1)];
        while let Some((node, level)) = stack.pop() {
            best = best.max(level);
            let majors = [node.left.as_deref(), node.right.as_deref()];
            let minis = node
                .minis
                .iter()
                .flat_map(|m| [m.left.as_deref(), m.right.as_deref()]);
            for child in majors.into_iter().chain(minis).flatten() {
                stack.push((child, level + 1));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{Sdis, SiteId};

    fn d(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    #[test]
    fn content_predicates() {
        assert!(Content::Live(1).is_live());
        assert!(Content::Live(1).is_present());
        assert!(Content::<u32>::Tombstone.is_present());
        assert!(Content::<u32>::Tombstone.is_tombstone());
        assert!(Content::<u32>::Ghost.is_present());
        assert!(!Content::<u32>::Absent.is_present());
        assert_eq!(Content::Live(7).live(), Some(&7));
        assert_eq!(Content::<u32>::Ghost.live(), None);
    }

    #[test]
    fn take_live_replaces_content() {
        let mut c = Content::Live(5u32);
        assert_eq!(c.take_live(Content::Tombstone), Some(5));
        assert!(c.is_tombstone());
        assert_eq!(c.take_live(Content::Absent), None);
        assert!(c.is_tombstone(), "non-live content is left untouched");
    }

    #[test]
    fn mini_node_counts() {
        let mut m: MiniNode<u32, Sdis> = MiniNode::new(d(1), Content::Live(1));
        assert_eq!(m.live_count(), 1);
        assert_eq!(m.total_count(), 1);
        m.content = Content::Tombstone;
        m.recount();
        assert_eq!(m.live_count(), 0);
        assert_eq!(m.total_count(), 1);
    }

    #[test]
    fn major_node_counts_include_minis_and_children() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::with_plain_atom(10);
        major.minis.push(MiniNode::new(d(1), Content::Live(11)));
        major.minis.push(MiniNode::new(d(2), Content::Tombstone));
        let child = MajorNode::with_plain_atom(12);
        major.left = Some(Box::new(child));
        major.recount();
        assert_eq!(major.live_count(), 3);
        assert_eq!(major.total_count(), 4);
    }

    #[test]
    fn find_mini_or_create_keeps_order() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::empty();
        major.find_mini_or_create(&d(5)).content = Content::Live(1);
        major.find_mini_or_create(&d(2)).content = Content::Live(2);
        major.find_mini_or_create(&d(9)).content = Content::Live(3);
        let order: Vec<u64> = major.minis.iter().map(|m| m.dis.site().as_u64()).collect();
        assert_eq!(order, vec![2, 5, 9]);
        // Looking one of them up again does not duplicate it.
        major.find_mini_or_create(&d(5));
        assert_eq!(major.minis.len(), 3);
        assert!(major.find_mini(&d(5)).is_some());
        assert!(major.find_mini(&d(7)).is_none());
    }

    #[test]
    fn remove_mini() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::empty();
        major.find_mini_or_create(&d(1)).content = Content::Live(1);
        major.find_mini_or_create(&d(2)).content = Content::Live(2);
        assert!(major.remove_mini(&d(1)).is_some());
        assert!(major.remove_mini(&d(1)).is_none());
        assert_eq!(major.minis.len(), 1);
    }

    #[test]
    fn prune_drops_empty_structures() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::empty();
        major.left = Some(Box::new(MajorNode::empty()));
        major.right = Some(Box::new(MajorNode::with_plain_atom(1)));
        major.minis.push(MiniNode::new(d(1), Content::Ghost));
        major.prune();
        assert!(major.left.is_none(), "empty child should be pruned");
        assert!(major.right.is_some(), "non-empty child must stay");
        assert!(
            major.minis.is_empty(),
            "childless ghost mini should be pruned"
        );
    }

    #[test]
    fn height_counts_levels() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::with_plain_atom(1);
        assert_eq!(major.height(), 1);
        major.child_or_create(Side::Left).plain = Content::Live(2);
        major
            .child_or_create(Side::Left)
            .child_or_create(Side::Right)
            .plain = Content::Live(3);
        assert_eq!(major.height(), 3);
    }

    #[test]
    fn height_counts_mini_children_one_level_down() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::with_plain_atom(1);
        let mini = MiniNode::new(d(1), Content::Live(2));
        major.minis.push(mini);
        assert_eq!(major.height(), 1, "minis share their major node's level");
        major.minis[0].child_or_create(Side::Right).plain = Content::Live(3);
        assert_eq!(major.height(), 2);
    }

    #[test]
    fn deep_skinny_tree_height_does_not_blow_the_stack() {
        // A degenerate left chain as deep as a long document: the recursive
        // height() this replaces needed one call frame per level and
        // overflowed the default test-thread stack well before this depth.
        const DEPTH: usize = 200_000;
        let mut root: MajorNode<u32, Sdis> = MajorNode::with_plain_atom(0);
        {
            let mut node = &mut root;
            for _ in 1..DEPTH {
                node = node.child_or_create(Side::Left);
            }
            node.plain = Content::Live(1);
        }
        assert_eq!(root.height(), DEPTH);

        // Tear the chain down level by level: Rust's generated drop glue is
        // itself recursive and would overflow on a chain this deep.
        let mut cursor = root.left.take();
        while let Some(mut boxed) = cursor {
            cursor = boxed.left.take();
        }
    }

    #[test]
    fn empty_structure_detection() {
        let mut major: MajorNode<u32, Sdis> = MajorNode::empty();
        assert!(major.is_empty_structure());
        major.plain = Content::Ghost;
        major.recount();
        assert!(!major.is_empty_structure());
    }
}

//! Allocation of fresh position identifiers.
//!
//! [`new_pos_id`] implements Algorithm 1 of the paper: given the identifiers
//! of two *adjacent* nodes `p < f` (adjacent in the full tree, i.e. no
//! occupied slot lies between them — tombstones included, which is what makes
//! SDIS reuse safe, §3.3.2), it returns a fresh identifier strictly between
//! them. The four cases of the algorithm:
//!
//! 1. `p` is an ancestor of `f` → the new node becomes the *left child of
//!    `f`'s major node*;
//! 2. `f` is an ancestor of `p` → the new node becomes the *right child of
//!    `p`'s major node*;
//! 3. `p` and `f` are mini-siblings, or a mini-sibling of `p` is an ancestor
//!    of `f` → the new node becomes the *right child of the mini-node `p`*
//!    (it must live in `p`'s own namespace to stay between the siblings);
//! 4. otherwise → the new node becomes the right child of `p`'s major node.
//!
//! The ancestor test is the *compatible-ancestor* relation of
//! [`PosId::is_ancestor_of`]; see that method's documentation for why the
//! paper's own running example requires it.
//!
//! Which pair a gap hands to [`new_pos_id`] is the caller's choice: any
//! adjacent pair inside the gap between two live atoms gives an identifier
//! between them. [`Treedoc`](crate::Treedoc) takes the gap's left end,
//! `(live atom, next slot)`, except after a backspace. When the next slot
//! is a dead cell (SDIS tombstone or UDIS ghost) on the live atom's spine,
//! it tries `(dead cell, slot after it)` and keeps the result when it is
//! the right child of the dead cell's major node: the dead cell's spine
//! successor, so a typing run goes on past the tombstone instead of
//! forking under it. That pair is still adjacent in the full tree, which is
//! the precondition above and all that SDIS reuse (§3.3.2) needs: the new
//! identifier is strictly between two stored slots, so it is none of them.
//!
//! The module also provides the §4.1 balancing strategies:
//!
//! * [`balanced_append`] — when repeatedly appending at the end of the
//!   document, grow the tree by `⌈log₂ h⌉ + 1` levels at once and hand out
//!   the slots of the freshly grown subtree one by one instead of growing a
//!   degenerate right spine;
//! * [`batch_subtree_ids`] — when inserting a known run of `n` consecutive
//!   atoms (e.g. a whole diff hunk while replaying a revision), lay them out
//!   as the infix order of a minimal complete subtree.

use crate::disambiguator::Disambiguator;
use crate::path::{PathElem, PosId, Side};

/// The neighbours of an insertion point: the identifiers of the occupied
/// slots immediately before and after the gap (either may be absent at the
/// document edges). They must be adjacent in the full tree.
#[derive(Debug, Clone)]
pub struct Neighbours<'a, D> {
    /// The slot immediately before the insertion point.
    pub before: Option<&'a PosId<D>>,
    /// The slot immediately after the insertion point.
    pub after: Option<&'a PosId<D>>,
}

impl<'a, D> Neighbours<'a, D> {
    /// Convenience constructor.
    pub fn new(before: Option<&'a PosId<D>>, after: Option<&'a PosId<D>>) -> Self {
        Neighbours { before, after }
    }
}

/// Allocates a fresh identifier strictly between `neighbours.before` and
/// `neighbours.after` (Algorithm 1), using `dis` as the disambiguator of the
/// new node.
pub fn new_pos_id<D: Disambiguator>(neighbours: Neighbours<'_, D>, dis: D) -> PosId<D> {
    match (neighbours.before, neighbours.after) {
        // Empty document: create the first mini-node as the left child of the
        // (empty) root major node.
        (None, None) => PosId::from_elems(vec![PathElem::mini(Side::Left, dis)]),
        // Insert at the very beginning: the new node becomes the left child
        // of `f`'s major node, which is necessarily free because `f` is the
        // first occupied slot of the tree.
        (None, Some(f)) => child_of_major(f, Side::Left, dis),
        // Insert at the very end: right child of `p`'s major node.
        (Some(p), None) => child_of_major(p, Side::Right, dis),
        (Some(p), Some(f)) => {
            debug_assert!(p < f, "neighbours must satisfy p < f (got {p:?} !< {f:?})");
            if p.is_ancestor_of(f) {
                // Line 4: left child of f's major node.
                child_of_major(f, Side::Left, dis)
            } else if f.is_ancestor_of(p) {
                // Line 5: right child of p's major node.
                child_of_major(p, Side::Right, dis)
            } else if p.is_mini_sibling_of(f) || sibling_ancestor_of(p, f) {
                // Line 6: right child of the mini-node p itself.
                p.child(PathElem::mini(Side::Right, dis))
            } else {
                // Line 7: right child of p's major node.
                child_of_major(p, Side::Right, dis)
            }
        }
    }
}

/// `∃ m : MiniSibling(p, m) ∧ m > p ∧ m is an ancestor of f` — the second
/// disjunct of line 6 of Algorithm 1. Because we only know `p` and `f` (not
/// the whole tree), the witness `m` is recovered from `f` itself: it must be
/// the mini-node of `p`'s major node that `f`'s path descends through.
fn sibling_ancestor_of<D: Disambiguator>(p: &PosId<D>, f: &PosId<D>) -> bool {
    let n = p.depth();
    if n == 0 || f.depth() < n {
        return false;
    }
    let (Some((f_side, Some(dm))), Some(dp)) = (f.elem_at(n - 1), p.last_dis()) else {
        return false;
    };
    if p.last_side() != Some(f_side) || p.common_prefix_len(f) < n - 1 {
        return false;
    }
    // `f` descends through (or is) mini-node `dm` of p's major node; the
    // only relevant witnesses are *greater* siblings (`p < f` rules the
    // others out anyway, and `dm == dp` is the ancestor case of line 5).
    dm > dp
}

/// The new mini-node `dis` attached as the `side` child of the *major* node
/// of `base`: `base`'s path with its final disambiguator dropped, extended
/// with `(side : dis)`.
fn child_of_major<D: Disambiguator>(base: &PosId<D>, side: Side, dis: D) -> PosId<D> {
    base.major_path().child(PathElem::mini(side, dis))
}

/// Number of levels the tree is grown by when [`balanced_append`] runs out of
/// reserved slots: `⌈log₂ h⌉ + 1` where `h` is the current height (§4.1).
pub fn growth_levels(height: usize) -> usize {
    let h = height.max(1);
    (usize::BITS - (h - 1).leading_zeros()) as usize + 1
}

/// A batch of identifiers produced by the balancing strategies: the first one
/// is used immediately, the rest are kept as a reservation for the following
/// appends (§4.1: "the following atoms would consecutively use the PosIDs for
/// the empty nodes in the sub-tree").
#[derive(Debug, Clone)]
pub struct GrownSlots<D> {
    /// Plain slot positions (bit paths) in infix order; the element carrying
    /// the disambiguator is appended when an atom is actually placed there.
    pub slots: Vec<PosId<D>>,
}

/// Balanced append (§4.1): instead of creating an immediate right child of
/// the last atom, grow the tree by [`growth_levels`] levels and return the
/// plain positions of the freshly grown complete subtree, smallest first.
///
/// `last` is the identifier of the current last atom; `height` the current
/// height of the tree.
pub fn balanced_append<D: Disambiguator>(last: &PosId<D>, height: usize) -> GrownSlots<D> {
    let levels = growth_levels(height);
    // Root of the grown subtree: the right child position of the last atom's
    // major node.
    let root = last.major_path().child(PathElem::plain(Side::Right));
    GrownSlots {
        slots: complete_subtree_positions(&root, levels),
    }
}

/// The positions of a complete binary subtree of `depth` levels rooted at
/// `root`, in infix order (`2^depth - 1` positions, including the root).
pub fn complete_subtree_positions<D: Disambiguator>(
    root: &PosId<D>,
    depth: usize,
) -> Vec<PosId<D>> {
    let mut out = Vec::with_capacity((1usize << depth) - 1);
    fn rec<D: Disambiguator>(node: &PosId<D>, levels_left: usize, out: &mut Vec<PosId<D>>) {
        if levels_left == 0 {
            return;
        }
        rec(
            &node.child(PathElem::plain(Side::Left)),
            levels_left - 1,
            out,
        );
        out.push(node.clone());
        rec(
            &node.child(PathElem::plain(Side::Right)),
            levels_left - 1,
            out,
        );
    }
    rec(root, depth, &mut out);
    out
}

/// Identifiers for a run of `n` consecutive atoms inserted between two
/// neighbours, laid out as a minimal complete subtree (the balancing variant
/// evaluated in §5.1: "group all the consecutive inserts of a given revision
/// into a minimal sub-tree").
///
/// The returned identifiers are in document order and each carries `dis` via
/// the provided generator (one fresh disambiguator per atom).
pub fn batch_subtree_ids<D: Disambiguator>(
    neighbours: Neighbours<'_, D>,
    n: usize,
    mut next_dis: impl FnMut() -> D,
) -> Vec<PosId<D>> {
    if n == 0 {
        return Vec::new();
    }
    // Anchor the subtree at the slot Algorithm 1 would have allocated for a
    // single atom; that position is free and strictly between the
    // neighbours, so the whole complete subtree rooted there is too.
    let anchor = new_pos_id(neighbours, next_dis());
    let anchor_major = anchor.major_path();
    // Depth of the minimal complete subtree able to hold n atoms
    // (Algorithm 2: ⌈log₂(n + 1)⌉).
    let depth = (usize::BITS - n.leading_zeros()) as usize;
    let positions = complete_subtree_positions(&anchor_major, depth);
    debug_assert!(positions.len() >= n);
    // Use the first n positions in infix order and attach one fresh
    // disambiguator to each (the first atom reuses the anchor's).
    let mut out = Vec::with_capacity(n);
    for (i, pos) in positions.into_iter().take(n).enumerate() {
        let side = pos
            .last_side()
            .expect("subtree positions are never the root");
        let dis = if i == 0 {
            anchor.last_dis().cloned().unwrap_or_else(&mut next_dis)
        } else {
            next_dis()
        };
        let parent = pos.parent().expect("subtree positions are never the root");
        out.push(parent.child_mini(side, dis));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::Sdis;
    use crate::site::SiteId;

    fn d(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    fn p(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
        PosId::from_elems(
            desc.iter()
                .map(|&(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(d),
                })
                .collect(),
        )
    }

    #[test]
    fn empty_document_allocation() {
        let id = new_pos_id(Neighbours::<Sdis>::new(None, None), d(1));
        assert_eq!(id, p(&[(0, Some(1))]));
    }

    #[test]
    fn append_and_prepend() {
        let first = p(&[(0, Some(1))]);
        let appended = new_pos_id(Neighbours::new(Some(&first), None), d(1));
        assert!(first < appended);
        let prepended = new_pos_id(Neighbours::new(None, Some(&first)), d(1));
        assert!(prepended < first);
    }

    #[test]
    fn paper_example_insert_between_c_and_d() {
        // §3.2: c (the root atom of the Figure 1/2 tree) is an ancestor of
        // d = [1·(0:dD)]; inserting Y between them creates the left child of
        // d's major node.
        let c = p(&[]);
        let dd = p(&[(1, None), (0, Some(4))]);
        let y = new_pos_id(Neighbours::new(Some(&c), Some(&dd)), d(7));
        assert_eq!(y, p(&[(1, None), (0, None), (0, Some(7))]));
        assert!(c < y && y < dd);

        // Inserting Z between Y and d: d is an ancestor of Y, so Z becomes
        // the right child of Y's major node: [1·0·0·(1:dZ)].
        let z = new_pos_id(Neighbours::new(Some(&y), Some(&dd)), d(8));
        assert_eq!(z, p(&[(1, None), (0, None), (0, None), (1, Some(8))]));
        assert!(y < z && z < dd);
    }

    #[test]
    fn paper_example_insert_between_mini_siblings() {
        // Figure 4: W and Y are mini-siblings; X inserted between them must
        // become the right child of the mini-node W.
        let w = p(&[(1, None), (0, None), (0, Some(1))]);
        let y = p(&[(1, None), (0, None), (0, Some(2))]);
        let x = new_pos_id(Neighbours::new(Some(&w), Some(&y)), d(5));
        assert_eq!(x, p(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]));
        assert!(w < x && x < y);
    }

    #[test]
    fn insert_before_node_below_greater_mini_sibling() {
        // Line 6, second disjunct: p = W, f lives below W's greater sibling
        // Y; the new node still becomes W's right child.
        let w = p(&[(1, None), (0, None), (0, Some(1))]);
        let below_y = p(&[(1, None), (0, None), (0, Some(2)), (0, Some(9))]);
        let x = new_pos_id(Neighbours::new(Some(&w), Some(&below_y)), d(5));
        assert_eq!(x, p(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]));
        assert!(w < x && x < below_y);
    }

    #[test]
    fn allocation_stays_strictly_between_disjoint_subtrees() {
        // p and f in disjoint subtrees (neither ancestor of the other, not
        // siblings): line 7.
        let a = p(&[(0, Some(1)), (1, Some(2))]);
        let b = p(&[(1, Some(3))]);
        let n = new_pos_id(Neighbours::new(Some(&a), Some(&b)), d(9));
        assert!(a < n && n < b, "{a:?} < {n:?} < {b:?}");
    }

    #[test]
    fn growth_levels_matches_paper_example() {
        // §4.1: a tree of height 3 grows by ⌈log₂ 3⌉ + 1 = 3 levels.
        assert_eq!(growth_levels(3), 3);
        assert_eq!(growth_levels(1), 1);
        assert_eq!(growth_levels(2), 2);
        assert_eq!(growth_levels(4), 3);
        assert_eq!(growth_levels(8), 4);
        assert_eq!(growth_levels(9), 5);
    }

    #[test]
    fn balanced_append_grows_a_complete_subtree() {
        // Paper example (Figure 5): appending after f = [1·(1:dF)] in a tree
        // of height 3 grows a depth-3 subtree rooted at the right child of
        // f's major node; the new atom takes its smallest (leftmost) slot
        // [1·1·1·0·0].
        let f = p(&[(1, None), (1, Some(6))]);
        let grown = balanced_append(&f, 3);
        assert_eq!(grown.slots.len(), 7);
        let first = &grown.slots[0];
        assert_eq!(
            first.bit_vec(),
            vec![1, 1, 1, 0, 0],
            "smallest slot of the grown subtree"
        );
        // Slots are in infix order and all follow f.
        for w in grown.slots.windows(2) {
            assert!(w[0] < w[1]);
        }
        for s in &grown.slots {
            assert!(&f < s);
        }
    }

    #[test]
    fn complete_subtree_positions_are_infix_ordered() {
        let root = p(&[(1, None)]);
        let slots = complete_subtree_positions(&root, 3);
        assert_eq!(slots.len(), 7);
        for w in slots.windows(2) {
            assert!(w[0] < w[1]);
        }
        // The middle one is the root itself.
        assert_eq!(slots[3], root);
    }

    #[test]
    fn batch_ids_are_ordered_and_between_neighbours() {
        let before = p(&[(0, Some(1))]);
        let after = p(&[(1, Some(1))]);
        let mut counter = 10u64;
        let ids = batch_subtree_ids(Neighbours::new(Some(&before), Some(&after)), 5, move || {
            counter += 1;
            d(counter)
        });
        assert_eq!(ids.len(), 5);
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
        for id in &ids {
            assert!(&before < id && id < &after);
        }
        // Depth of a minimal subtree for 5 atoms is 3, so identifiers stay
        // within 3 extra levels of the anchor.
        let max_depth = ids.iter().map(|i| i.depth()).max().unwrap();
        assert!(max_depth <= before.depth() + 1 + 3);
    }

    #[test]
    fn batch_of_one_is_algorithm_one() {
        let before = p(&[(0, Some(1))]);
        let mut calls = 0;
        let ids = batch_subtree_ids(Neighbours::new(Some(&before), None), 1, || {
            calls += 1;
            d(99)
        });
        assert_eq!(ids.len(), 1);
        assert!(before < ids[0]);
    }

    #[test]
    fn batch_of_zero_is_empty() {
        let ids = batch_subtree_ids(Neighbours::<Sdis>::new(None, None), 0, || d(1));
        assert!(ids.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_elem() -> impl Strategy<Value = PathElem<Sdis>> {
            (0u8..2, proptest::option::of(0u64..4)).prop_map(|(bit, dis)| PathElem {
                side: Side::from_bit(bit),
                dis: dis.map(d),
            })
        }

        fn arb_posid() -> impl Strategy<Value = PosId<Sdis>> {
            proptest::collection::vec(arb_elem(), 1..7).prop_map(PosId::from_elems)
        }

        proptest! {
            /// Whatever the (ordered) neighbours, the allocated identifier is
            /// strictly between them. Adjacency cannot be expressed on bare
            /// identifiers, so this checks the weaker strict-betweenness
            /// property; the document-level property tests (doc.rs) cover the
            /// full behaviour against a real tree.
            #[test]
            fn allocation_is_strictly_between(a in arb_posid(), b in arb_posid(), site in 0u64..8) {
                prop_assume!(a != b);
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let id = new_pos_id(Neighbours::new(Some(&lo), Some(&hi)), d(site));
                // Strictly greater than the left neighbour in every case.
                prop_assert!(lo < id, "{:?} !< {:?} (hi {:?})", lo, id, hi);
            }

            /// Appending after any identifier yields a strictly larger one;
            /// prepending yields a strictly smaller one.
            #[test]
            fn edges_allocate_outside(a in arb_posid(), site in 0u64..8) {
                let after = new_pos_id(Neighbours::new(Some(&a), None), d(site));
                prop_assert!(a < after);
                let before = new_pos_id(Neighbours::new(None, Some(&a)), d(site));
                prop_assert!(before < a);
            }

            /// Complete subtrees are always infix-ordered, whatever the root.
            #[test]
            fn subtree_positions_sorted(root in arb_posid(), depth in 1usize..5) {
                let slots = complete_subtree_positions(&root.major_path(), depth);
                prop_assert_eq!(slots.len(), (1usize << depth) - 1);
                for w in slots.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}

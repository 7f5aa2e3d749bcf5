//! Structural clean-up: `explode` and `flatten` (§4.2, Algorithm 2).
//!
//! The edit-oriented tree representation carries metadata (paths,
//! disambiguators, tombstones). Quiescent — "cold" — regions of the document
//! do not need any of it: they can be compacted into a canonical complete
//! binary tree whose identifiers are plain bit strings (or, equivalently,
//! kept as a flat array with no metadata at all; see
//! [`storage`](crate::storage)).
//!
//! * [`explode`] maps an atom array to that canonical tree (Algorithm 2);
//!   it is deterministic, so every replica that applies it to the same array
//!   produces the same structure.
//! * [`flatten_subtree`] replaces a subtree by the canonical tree of its live
//!   atoms, discarding tombstones and disambiguators. Because it *renames*
//!   identifiers it does not commute with concurrent edits and must only be
//!   applied once a distributed commitment
//!   (`treedoc_replication::flatten`) has established that no replica has a
//!   concurrent edit in that subtree (§4.2.1). Within a single replica — or
//!   a replay harness — it can be called directly.
//!
//! The cold-subtree heuristic of §5.1 is provided by
//! [`Tree::find_cold_subtrees`](crate::tree::Tree::find_cold_subtrees) and
//! driven from the document layer ([`Treedoc::flatten_cold`]).
//!
//! [`Treedoc::flatten_cold`]: crate::Treedoc::flatten_cold

use crate::atom::Atom;
use crate::disambiguator::Disambiguator;
use crate::error::Result;
use crate::node::{Content, MajorNode};
use crate::path::Side;
use crate::tree::Tree;

/// Result of a flatten attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlattenOutcome {
    /// The subtree was compacted; the field reports how many occupied slots
    /// (tombstones, ghosts, mini-nodes) were reclaimed.
    Flattened {
        /// Occupied slots before compaction.
        nodes_before: usize,
        /// Occupied slots after compaction (= number of live atoms).
        nodes_after: usize,
    },
    /// Nothing to do: the subtree was already in canonical form.
    AlreadyCompact,
}

/// Depth of the complete binary tree used to store `len` atoms
/// (Algorithm 2: `⌈log₂(len + 1)⌉`).
pub fn explode_depth(len: usize) -> usize {
    // ceil(log2(len + 1)) without floating point.
    (usize::BITS - len.leading_zeros()) as usize
}

/// Builds the canonical major-node tree holding `atoms` (Algorithm 2,
/// `explode`): a complete binary tree of [`explode_depth`] levels whose infix
/// order lists the atoms; positions beyond the last atom are removed.
pub fn explode_node<A: Atom, D: Disambiguator>(atoms: &[A]) -> MajorNode<A, D> {
    // Algorithm 2: allocate a complete binary tree of ⌈log₂(n+1)⌉ levels,
    // assign its positions to the atoms in infix order, remove the unused
    // positions. Positions whose own slot stays unassigned but whose left
    // subtree holds atoms remain as structural nodes with an absent slot.
    fn build<A: Atom, D: Disambiguator>(atoms: &[A], depth: usize) -> MajorNode<A, D> {
        let mut node = MajorNode::empty();
        if atoms.is_empty() || depth == 0 {
            return node;
        }
        let left_capacity = (1usize << (depth - 1)) - 1;
        let (left, right) = if atoms.len() > left_capacity {
            node.plain = Content::Live(atoms[left_capacity].clone());
            (&atoms[..left_capacity], &atoms[left_capacity + 1..])
        } else {
            (atoms, &atoms[..0])
        };
        if !left.is_empty() {
            *node.child_or_create(Side::Left) = build(left, depth - 1);
        }
        if !right.is_empty() {
            *node.child_or_create(Side::Right) = build(right, depth - 1);
        }
        node.recount();
        node
    }
    build(atoms, explode_depth(atoms.len()))
}

/// Builds a whole [`Tree`] from an atom array (the initiator and replay
/// versions of `explode` must produce exactly the same structure — this
/// function is deterministic, so they do).
pub fn explode<A: Atom, D: Disambiguator>(atoms: &[A]) -> Tree<A, D> {
    Tree::from_root(explode_node(atoms))
}

/// Compacts the subtree of `tree` rooted at the plain bit path `bits`:
/// collects its live atoms in document order and replaces the subtree with
/// their canonical `explode` layout.
///
/// Returns an error if no subtree exists at `bits`.
pub fn flatten_subtree<A: Atom, D: Disambiguator>(
    tree: &mut Tree<A, D>,
    bits: &[Side],
) -> Result<FlattenOutcome> {
    let atoms = tree.subtree_live_atoms(bits)?;
    let nodes_before = tree
        .subtree(bits)
        .map(|n| n.total_count())
        .unwrap_or_default();
    if nodes_before == atoms.len() {
        // Every slot is a live plain atom already in canonical layout only if
        // additionally no disambiguators remain; re-exploding is cheap and
        // idempotent, so only skip the trivial no-op case.
        let has_dis = {
            let mut any = false;
            if let Some(sub) = tree.subtree(bits) {
                any = !sub.minis().is_empty();
                // A deeper scan is done by the caller through statistics when
                // it matters; a conservative `false` just means we recompact.
                if !any {
                    any = subtree_has_minis(sub);
                }
            }
            any
        };
        if !has_dis {
            return Ok(FlattenOutcome::AlreadyCompact);
        }
    }
    let new_root = explode_node(&atoms);
    tree.replace_subtree(bits, new_root)?;
    Ok(FlattenOutcome::Flattened {
        nodes_before,
        nodes_after: atoms.len(),
    })
}

fn subtree_has_minis<A, D: Disambiguator>(node: &MajorNode<A, D>) -> bool {
    if !node.minis().is_empty() {
        return true;
    }
    [Side::Left, Side::Right]
        .into_iter()
        .filter_map(|s| node.child(s))
        .any(subtree_has_minis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::Sdis;
    use crate::path::{PathElem, PosId};
    use crate::site::SiteId;

    fn sd(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    fn sid(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
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
    fn explode_depth_matches_algorithm_2() {
        assert_eq!(explode_depth(0), 0);
        assert_eq!(explode_depth(1), 1);
        assert_eq!(explode_depth(2), 2);
        assert_eq!(explode_depth(3), 2);
        assert_eq!(explode_depth(4), 3);
        assert_eq!(explode_depth(7), 3);
        assert_eq!(explode_depth(8), 4);
    }

    #[test]
    fn explode_preserves_content_and_order() {
        for n in 0..40usize {
            let atoms: Vec<u32> = (0..n as u32).collect();
            let tree: Tree<u32, Sdis> = explode(&atoms);
            assert_eq!(tree.to_vec(), atoms, "n = {n}");
            assert_eq!(tree.live_len(), n);
            assert_eq!(tree.node_count(), n, "no metadata slots after explode");
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn explode_is_balanced() {
        let atoms: Vec<u32> = (0..100).collect();
        let tree: Tree<u32, Sdis> = explode(&atoms);
        assert_eq!(tree.height(), explode_depth(100));
        // Every identifier is a plain bit string: no disambiguators at all.
        tree.for_each_slot(|slot| {
            assert!(slot.dis.is_none());
            assert_eq!(slot.dis_count, 0);
            assert!(slot.bits.len() <= explode_depth(100));
        });
    }

    #[test]
    fn explode_zero_and_one() {
        let empty: Tree<u32, Sdis> = explode(&[]);
        assert!(empty.is_empty());
        let one: Tree<u32, Sdis> = explode(&[42]);
        assert_eq!(one.to_vec(), vec![42]);
        assert_eq!(one.height(), 1);
    }

    #[test]
    fn flatten_discards_tombstones_and_disambiguators() {
        let mut tree: Tree<char, Sdis> = Tree::new();
        tree.insert(&sid(&[]), 'c', 1).unwrap();
        tree.insert(&sid(&[(0, Some(1))]), 'b', 1).unwrap();
        tree.insert(&sid(&[(0, None), (0, Some(1))]), 'a', 1)
            .unwrap();
        tree.insert(&sid(&[(1, Some(2))]), 'd', 1).unwrap();
        tree.delete(&sid(&[(0, Some(1))]), 2).unwrap();
        assert_eq!(tree.to_vec(), vec!['a', 'c', 'd']);
        assert_eq!(tree.node_count(), 4, "one tombstone still stored");

        let outcome = flatten_subtree(&mut tree, &[]).unwrap();
        assert_eq!(
            outcome,
            FlattenOutcome::Flattened {
                nodes_before: 4,
                nodes_after: 3
            }
        );
        assert_eq!(tree.to_vec(), vec!['a', 'c', 'd']);
        assert_eq!(tree.node_count(), 3);
        tree.for_each_slot(|s| assert_eq!(s.dis_count, 0));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn flatten_of_subtree_keeps_outside_order() {
        let mut tree: Tree<char, Sdis> = Tree::new();
        tree.insert(&sid(&[]), 'm', 1).unwrap();
        // Build an unbalanced right spine: m < p < q < r.
        tree.insert(&sid(&[(1, Some(1))]), 'p', 1).unwrap();
        tree.insert(&sid(&[(1, None), (1, Some(1))]), 'q', 1)
            .unwrap();
        tree.insert(&sid(&[(1, None), (1, None), (1, Some(1))]), 'r', 1)
            .unwrap();
        // And something on the left that must stay untouched.
        tree.insert(&sid(&[(0, Some(2))]), 'a', 1).unwrap();
        assert_eq!(tree.to_vec(), vec!['a', 'm', 'p', 'q', 'r']);

        flatten_subtree(&mut tree, &[Side::Right]).unwrap();
        assert_eq!(tree.to_vec(), vec!['a', 'm', 'p', 'q', 'r']);
        // The right subtree is now a two-level complete tree.
        assert_eq!(tree.subtree(&[Side::Right]).unwrap().height(), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn flatten_already_compact_is_noop() {
        let atoms: Vec<u32> = (0..10).collect();
        let mut tree: Tree<u32, Sdis> = explode(&atoms);
        let outcome = flatten_subtree(&mut tree, &[]).unwrap();
        assert_eq!(outcome, FlattenOutcome::AlreadyCompact);
        assert_eq!(tree.to_vec(), atoms);
    }

    #[test]
    fn flatten_missing_subtree_errors() {
        let mut tree: Tree<u32, Sdis> = explode(&[1, 2, 3]);
        assert!(flatten_subtree(&mut tree, &[Side::Right, Side::Right, Side::Left]).is_err());
    }

    #[test]
    fn flatten_empty_subtree_produces_empty_structure() {
        let mut tree: Tree<char, Sdis> = Tree::new();
        tree.insert(&sid(&[(0, Some(1))]), 'a', 1).unwrap();
        tree.delete(&sid(&[(0, Some(1))]), 2).unwrap();
        assert_eq!(tree.node_count(), 1);
        flatten_subtree(&mut tree, &[]).unwrap();
        assert_eq!(tree.node_count(), 0);
        assert!(tree.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// explode is the identity on content for any atom array.
            #[test]
            fn explode_round_trips(atoms in proptest::collection::vec(0u32..1000, 0..200)) {
                let tree: Tree<u32, Sdis> = explode(&atoms);
                prop_assert_eq!(tree.to_vec(), atoms.clone());
                prop_assert_eq!(tree.node_count(), atoms.len());
                prop_assert!(tree.check_invariants().is_ok());
            }

            /// explode produces a tree no deeper than ⌈log₂(n+1)⌉.
            #[test]
            fn explode_depth_bound(atoms in proptest::collection::vec(0u32..1000, 1..200)) {
                let tree: Tree<u32, Sdis> = explode(&atoms);
                prop_assert!(tree.height() <= explode_depth(atoms.len()));
            }

            /// flatten preserves document content whatever the prior edits.
            #[test]
            fn flatten_preserves_content(seed_atoms in proptest::collection::vec(0u32..100, 1..40),
                                         deletions in proptest::collection::vec(0usize..40, 0..20)) {
                let mut tree: Tree<u32, Sdis> = explode(&seed_atoms);
                for d in deletions {
                    if tree.live_len() == 0 { break; }
                    let idx = d % tree.live_len();
                    let id = tree.id_of_live_index(idx).unwrap();
                    tree.delete(&id, 1).unwrap();
                }
                let before = tree.to_vec();
                flatten_subtree(&mut tree, &[]).unwrap();
                prop_assert_eq!(tree.to_vec(), before);
                prop_assert_eq!(tree.node_count(), tree.live_len());
            }
        }
    }
}

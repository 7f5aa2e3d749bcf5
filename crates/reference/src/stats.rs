//! Table 1's per-atom measurements, taken by walking a [`Tree`] slot by
//! slot — the oracle for the run store's `O(1)` aggregate statistics
//! (`RunTree::stats`).

use treedoc_core::{Atom, Content, Disambiguator, DocStats, PosIdStats};

use crate::tree::Tree;

/// Measures a tree: every figure of [`DocStats`], counted slot by slot.
pub fn measure<A: Atom, D: Disambiguator>(tree: &Tree<A, D>) -> DocStats {
    let mut stats = DocStats {
        live_atoms: 0,
        total_nodes: 0,
        tombstones: 0,
        ghosts: 0,
        pos_ids: PosIdStats::default(),
        document_bytes: 0,
        height: tree.height(),
    };
    tree.for_each_slot(|slot| {
        let bits = slot.pos_id_bits();
        stats.total_nodes += 1;
        stats.pos_ids.nodes += 1;
        stats.pos_ids.total_bits += bits;
        stats.pos_ids.max_bits = stats.pos_ids.max_bits.max(bits);
        match slot.content {
            Content::Live(a) => {
                stats.live_atoms += 1;
                stats.pos_ids.live += 1;
                stats.pos_ids.live_bits += bits;
                stats.document_bytes += a.content_bytes();
            }
            Content::Tombstone => stats.tombstones += 1,
            Content::Ghost => stats.ghosts += 1,
            Content::Absent => {}
        }
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatten::explode;
    use crate::tree::tests::sid;
    use treedoc_core::{MemoryModel, PathElem, PosId, Sdis, Side, SiteId, Udis};

    #[test]
    fn flattened_document_has_zero_identifier_overhead() {
        let atoms: Vec<String> = (0..50).map(|i| format!("line {i}")).collect();
        let tree: Tree<String, Sdis> = explode(&atoms);
        let stats = measure(&tree);
        assert_eq!(stats.live_atoms, 50);
        assert_eq!(stats.total_nodes, 50);
        assert_eq!(stats.tombstones, 0);
        assert_eq!(stats.non_tombstone_fraction(), 1.0);
        // Plain bit paths only: at most ⌈log₂ 51⌉ = 6 bits each.
        assert!(stats.pos_ids.max_bits <= 6);
        assert!(stats.pos_ids.avg_bits() <= 6.0);
        assert_eq!(
            stats.document_bytes,
            atoms.iter().map(|a| a.len()).sum::<usize>()
        );
    }

    #[test]
    fn tombstones_are_counted() {
        let mut tree: Tree<char, Sdis> = Tree::new();
        tree.insert(&sid(&[]), 'a', 1).unwrap();
        tree.insert(&sid(&[(1, Some(1))]), 'b', 1).unwrap();
        tree.insert(&sid(&[(1, None), (1, Some(1))]), 'c', 1)
            .unwrap();
        tree.delete(&sid(&[(1, Some(1))]), 2).unwrap();
        let stats = measure(&tree);
        assert_eq!(stats.live_atoms, 2);
        assert_eq!(stats.total_nodes, 3);
        assert_eq!(stats.tombstones, 1);
        assert!((stats.tombstone_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert!((stats.non_tombstone_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn pos_id_sizes_follow_disambiguator_size() {
        // One atom with an SDIS identifier of depth 2: 2 bits + 48 bits.
        let mut stree: Tree<char, Sdis> = Tree::new();
        stree
            .insert(&sid(&[(1, None), (0, Some(1))]), 'x', 1)
            .unwrap();
        let s = measure(&stree);
        assert_eq!(s.pos_ids.max_bits, 50);

        // The same shape with UDIS costs 2 + 80 bits.
        let mut utree: Tree<char, Udis> = Tree::new();
        let uid = PosId::from_elems(vec![
            PathElem::plain(Side::Right),
            PathElem::mini(Side::Left, Udis::new(0, SiteId::from_u64(1))),
        ]);
        utree.insert(&uid, 'x', 1).unwrap();
        let u = measure(&utree);
        assert_eq!(u.pos_ids.max_bits, 82);
    }

    #[test]
    fn overhead_per_atom_counts_tombstones() {
        let mut tree: Tree<char, Sdis> = Tree::new();
        tree.insert(&sid(&[]), 'a', 1).unwrap();
        tree.insert(&sid(&[(1, Some(1))]), 'b', 1).unwrap();
        tree.delete(&sid(&[(1, Some(1))]), 2).unwrap();
        let stats = measure(&tree);
        // Total identifier bits: 0 (root) + 49 (tombstone) over 1 live atom.
        assert_eq!(stats.pos_ids.overhead_per_atom_bits(), 49.0);
        assert_eq!(stats.pos_ids.avg_bits(), 24.5);
        assert_eq!(stats.pos_ids.avg_live_bits(), 0.0);
    }

    #[test]
    fn memory_models() {
        let atoms: Vec<String> = (0..10).map(|i| format!("{i}")).collect();
        let tree: Tree<String, Sdis> = explode(&atoms);
        let stats = measure(&tree);
        assert_eq!(
            stats.memory_bytes::<Sdis>(MemoryModel::PaperTreeNode),
            10 * 26
        );
        // The couple-list model charges only identifier bytes; plain ids of a
        // 10-atom exploded tree are at most 4 bits each.
        assert!(stats.memory_bytes::<Sdis>(MemoryModel::CoupleList) <= 10);
        assert!(stats.memory_overhead_ratio::<Sdis>(MemoryModel::PaperTreeNode) > 0.0);
    }

    #[test]
    fn empty_tree_stats() {
        let tree: Tree<char, Sdis> = Tree::new();
        let stats = measure(&tree);
        assert_eq!(stats.live_atoms, 0);
        assert_eq!(stats.total_nodes, 0);
        assert_eq!(stats.non_tombstone_fraction(), 1.0);
        assert_eq!(stats.tombstone_fraction(), 0.0);
        assert_eq!(stats.pos_ids.avg_bits(), 0.0);
        assert_eq!(
            stats.memory_overhead_ratio::<Sdis>(MemoryModel::PaperTreeNode),
            0.0
        );
    }
}

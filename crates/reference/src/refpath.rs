//! Reference implementation of position identifiers as a plain owned
//! `Vec<PathElem>`, kept as the differential-testing oracle for the chunked,
//! structurally shared [`PosId`].
//!
//! This is (modulo the type name) the representation the crate used before
//! the shared-prefix rewrite: every operation walks the element vector, with
//! no caching and no sharing. It is deliberately naive — the tests in
//! `tests/run_differential.rs` pin the production `PosId` against it on total
//! order, wire bytes and tree digests over random edit schedules, so any
//! divergence introduced by the chunked fast paths shows up as a test
//! failure, not a silent reordering.

use std::cmp::Ordering;

use treedoc_core::{Disambiguator, PathElem, PosId, Side};

/// A position identifier stored as an owned element vector (the pre-arena
/// representation), used as a comparison oracle in differential tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RefPosId<D> {
    elems: Vec<PathElem<D>>,
}

/// Infix-order region of a major node, mirroring the private enum inside
/// `path.rs` (left subtree < plain slot < minis < right subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Region {
    LeftSubtree,
    PlainSlot,
    Minis,
    RightSubtree,
}

impl<D> RefPosId<D> {
    /// The root identifier (empty path).
    pub const fn root() -> Self {
        RefPosId { elems: Vec::new() }
    }

    /// Builds an identifier from its elements.
    pub fn from_elems(elems: Vec<PathElem<D>>) -> Self {
        RefPosId { elems }
    }

    /// Mirrors a production identifier into the reference representation.
    pub fn from_pos_id(id: &PosId<D>) -> Self
    where
        D: Clone,
    {
        RefPosId { elems: id.elems() }
    }

    /// Rebuilds the production representation from this reference.
    pub fn to_pos_id(&self) -> PosId<D>
    where
        D: Clone,
    {
        PosId::from_elems(self.elems.clone())
    }

    /// The path elements.
    pub fn elems(&self) -> &[PathElem<D>] {
        &self.elems
    }

    /// Number of path elements.
    pub fn depth(&self) -> usize {
        self.elems.len()
    }

    fn region_at(&self, idx: usize) -> Region {
        match self.elems.get(idx) {
            None => unreachable!("region_at called past the end of the path"),
            Some(e) if e.dis.is_some() => Region::Minis,
            Some(_) => match self.elems.get(idx + 1) {
                None => Region::PlainSlot,
                Some(next) if next.side == Side::Left => Region::LeftSubtree,
                Some(_) => Region::RightSubtree,
            },
        }
    }
}

impl<D: Disambiguator> RefPosId<D> {
    /// The original element-wise infix comparison (§3.1), exactly as the
    /// pre-arena `PosId::cmp` implemented it.
    fn infix_cmp(&self, other: &RefPosId<D>) -> Ordering {
        let n = self.elems.len().min(other.elems.len());
        for i in 0..n {
            let a = &self.elems[i];
            let b = &other.elems[i];
            if a.side != b.side {
                return a.side.cmp(&b.side);
            }
            match (&a.dis, &b.dis) {
                (None, None) => continue,
                (Some(da), Some(db)) => match da.cmp(db) {
                    Ordering::Equal => continue,
                    o => return o,
                },
                (None, Some(_)) => return self.region_at(i).cmp(&Region::Minis),
                (Some(_), None) => return Region::Minis.cmp(&other.region_at(i)),
            }
        }
        match self.elems.len().cmp(&other.elems.len()) {
            Ordering::Equal => Ordering::Equal,
            Ordering::Less => {
                if other.elems[n].side == Side::Right {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            Ordering::Greater => {
                if self.elems[n].side == Side::Right {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
        }
    }
}

impl<D: Disambiguator> PartialOrd for RefPosId<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Disambiguator> Ord for RefPosId<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.infix_cmp(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use treedoc_core::{Sdis, SiteId};

    fn s(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    fn arb_elem() -> impl Strategy<Value = PathElem<Sdis>> {
        (0u8..2, proptest::option::of(0u64..4)).prop_map(|(bit, dis)| PathElem {
            side: Side::from_bit(bit),
            dis: dis.map(s),
        })
    }

    fn arb_posid() -> impl Strategy<Value = PosId<Sdis>> {
        proptest::collection::vec(arb_elem(), 0..10).prop_map(PosId::from_elems)
    }

    proptest! {
        /// The chunked `PosId` order is exactly the reference order.
        #[test]
        fn order_matches_reference(a in arb_posid(), b in arb_posid()) {
            let ra = RefPosId::from_pos_id(&a);
            let rb = RefPosId::from_pos_id(&b);
            prop_assert_eq!(a.cmp(&b), ra.cmp(&rb));
            prop_assert_eq!(a == b, ra == rb);
        }

        /// Round-tripping through the reference representation is lossless.
        #[test]
        fn round_trip_through_reference(a in arb_posid()) {
            prop_assert_eq!(RefPosId::from_pos_id(&a).to_pos_id(), a);
        }
    }
}

//! Edit operations shipped between replicas (§2.2).
//!
//! The abstract buffer data type has exactly two edit operations:
//!
//! * `insert(PosID, atom)` — the position identifier is *fresh* (allocated by
//!   the initiating replica with Algorithm 1), so concurrent inserts always
//!   target different identifiers and therefore commute;
//! * `delete(PosID)` — idempotent, so concurrent deletes of the same atom
//!   commute; an insert always happens-before a delete of the same
//!   identifier, so that pair is never concurrent.
//!
//! Structural clean-up (`explode` / `flatten`) is *not* an ordinary
//! operation: it does not commute with edits and is agreed upon with a
//! distributed commitment protocol instead (§4.2.1, see
//! `treedoc_replication::flatten`).

use crate::disambiguator::Disambiguator;
use crate::path::PosId;
use crate::site::SiteId;

/// The kind of an operation, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An insertion.
    Insert,
    /// A deletion.
    Delete,
}

/// An edit operation on the shared buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<A, D> {
    /// Insert `atom` at the (fresh, unique) identifier `id`.
    Insert {
        /// The freshly allocated position identifier.
        id: PosId<D>,
        /// The inserted atom.
        atom: A,
    },
    /// Delete the atom identified by `id`.
    Delete {
        /// The identifier of the atom to delete.
        id: PosId<D>,
    },
}

impl<A, D> Op<A, D> {
    /// The identifier this operation refers to.
    pub fn id(&self) -> &PosId<D> {
        match self {
            Op::Insert { id, .. } | Op::Delete { id } => id,
        }
    }

    /// The kind of this operation.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Insert { .. } => OpKind::Insert,
            Op::Delete { .. } => OpKind::Delete,
        }
    }

    /// `true` for inserts.
    pub fn is_insert(&self) -> bool {
        matches!(self, Op::Insert { .. })
    }

    /// `true` for deletes.
    pub fn is_delete(&self) -> bool {
        matches!(self, Op::Delete { .. })
    }
}

impl<A, D: Disambiguator> Op<A, D> {
    /// The site that initiated this operation, when it can be recovered from
    /// the identifier (inserts always carry the initiator's disambiguator;
    /// deletes refer to the identifier of the *deleted* atom, so the answer
    /// is the inserting site, not the deleting one).
    pub fn inserting_site(&self) -> Option<SiteId> {
        self.id().last_dis().map(|d| d.site())
    }

    /// Size in bytes of the operation when shipped over the network: the
    /// position identifier plus, for inserts, the atom itself. This is the
    /// accounting used for the network-cost estimate of §5.2.
    pub fn network_bytes(&self) -> usize
    where
        A: crate::atom::Atom,
    {
        match self {
            Op::Insert { id, atom } => id.size_bytes() + atom.content_bytes(),
            Op::Delete { id } => id.size_bytes(),
        }
    }

    /// Two operations *conflict* when they refer to the same identifier.
    /// Concurrent operations never conflict except for delete/delete pairs,
    /// which are idempotent; this is what makes the type a CRDT.
    pub fn same_target(&self, other: &Op<A, D>) -> bool
    where
        D: PartialEq,
    {
        self.id() == other.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::Sdis;
    use crate::path::{PathElem, Side};
    use crate::site::SiteId;

    fn id(site: u64) -> PosId<Sdis> {
        PosId::from_elems(vec![PathElem::mini(
            Side::Left,
            Sdis::new(SiteId::from_u64(site)),
        )])
    }

    #[test]
    fn accessors() {
        let ins: Op<char, Sdis> = Op::Insert {
            id: id(1),
            atom: 'x',
        };
        let del: Op<char, Sdis> = Op::Delete { id: id(1) };
        assert_eq!(ins.kind(), OpKind::Insert);
        assert_eq!(del.kind(), OpKind::Delete);
        assert!(ins.is_insert() && !ins.is_delete());
        assert!(del.is_delete() && !del.is_insert());
        assert!(ins.same_target(&del));
        assert_eq!(ins.inserting_site(), Some(SiteId::from_u64(1)));
    }

    #[test]
    fn network_cost_counts_id_and_atom() {
        let ins: Op<String, Sdis> = Op::Insert {
            id: id(1),
            atom: "hello".into(),
        };
        let del: Op<String, Sdis> = Op::Delete { id: id(1) };
        // id: 1 bit + 48-bit SDIS → 7 bytes; insert adds the 5 content bytes.
        assert_eq!(del.network_bytes(), 7);
        assert_eq!(ins.network_bytes(), 12);
    }
}

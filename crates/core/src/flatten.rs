//! Structural clean-up vocabulary shared by the run store and the flatten
//! commitment protocol (§4.2, Algorithm 2).
//!
//! Quiescent — "cold" — regions of the document need none of the editing
//! metadata (disambiguators, tombstones, deep paths): `flatten` compacts a
//! region into the canonical complete binary tree Algorithm 2 (`explode`)
//! lays its live atoms out in, whose identifiers are plain bit strings of
//! [`explode_depth`] levels at most. The run store applies it natively
//! ([`RunTree::flatten_region`](crate::run::RunTree::flatten_region)), and
//! the document layer drives the §5.1 cold-region heuristic
//! ([`Treedoc::flatten_cold`](crate::Treedoc::flatten_cold)). Because it
//! *renames* identifiers it does not commute with concurrent edits and must
//! only be applied once a distributed commitment
//! (`treedoc_replication::flatten`) has established that no replica has a
//! concurrent edit in that region (§4.2.1).

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

#[cfg(test)]
mod tests {
    use super::*;

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
}

//! Overhead accounting (§5 of the paper).
//!
//! The evaluation of the paper reports, per document and per configuration:
//!
//! * maximum and average PosID length in bits (Table 1 "PosID", Table 4
//!   "avg PosID size"),
//! * the number of Treedoc nodes, the memory they occupy and the overhead
//!   relative to the document size (Table 1 "Nodes"),
//! * the fraction of non-tombstone nodes (Table 1 "% non-Tomb", Table 3),
//! * the identifier overhead per live atom (Table 4 "overhead/atom"),
//! * the on-disk overhead (Table 1, measured on the §5.2 heap-array image
//!   of the `treedoc-reference` crate).
//!
//! The run store assembles a [`DocStats`] in `O(1)` from its cached
//! aggregates ([`RunTree::stats`](crate::run::RunTree::stats)); it covers
//! everything except the on-disk numbers. The in-memory model follows the
//! constants spelled out in §5.2: a tree node costs 26 bytes (subtree
//! counter, two child pointers, a disambiguator and an atom pointer on a
//! 32-bit JVM). What this implementation's run store actually occupies is
//! [`RunTree::index_bytes`](crate::run::RunTree::index_bytes).

use serde::{Deserialize, Serialize};

use crate::disambiguator::Disambiguator;

/// Per-node memory cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryModel {
    /// The paper's model (§5.2): 26 bytes per tree node.
    PaperTreeNode,
    /// A `(atom, PosID)` couple list: each node costs its identifier size
    /// (the atom itself is not overhead).
    CoupleList,
}

impl MemoryModel {
    /// Bytes charged for one node whose identifier occupies `pos_id_bits`.
    pub fn node_bytes<D: Disambiguator>(&self, pos_id_bits: usize) -> usize {
        match self {
            // §5.2: counter + two pointers + disambiguator + atom pointer.
            MemoryModel::PaperTreeNode => 26,
            MemoryModel::CoupleList => pos_id_bits.div_ceil(8),
        }
    }
}

/// Distribution of position-identifier sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PosIdStats {
    /// Largest identifier, in bits.
    pub max_bits: usize,
    /// Sum of identifier sizes over all occupied slots, in bits.
    pub total_bits: usize,
    /// Sum of identifier sizes over live atoms only, in bits.
    pub live_bits: usize,
    /// Number of occupied slots the totals are taken over.
    pub nodes: usize,
    /// Number of live atoms.
    pub live: usize,
}

impl PosIdStats {
    /// Average identifier size over all occupied slots (tombstones included,
    /// as in Table 1), in bits.
    pub fn avg_bits(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.nodes as f64
        }
    }

    /// Average identifier size over live atoms only, in bits.
    pub fn avg_live_bits(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.live_bits as f64 / self.live as f64
        }
    }

    /// Identifier overhead per live atom in bits: the cost of storing every
    /// identifier (tombstones included) divided by the number of live atoms
    /// (Table 4 "overhead/atom").
    pub fn overhead_per_atom_bits(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.live as f64
        }
    }
}

/// A full measurement of a document replica (everything in Table 1 except the
/// on-disk column, which needs the serialised form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocStats {
    /// Live atoms.
    pub live_atoms: usize,
    /// Occupied slots (live + tombstones + ghosts).
    pub total_nodes: usize,
    /// Tombstones (SDIS deletions awaiting clean-up).
    pub tombstones: usize,
    /// Ghost nodes (UDIS structural leftovers).
    pub ghosts: usize,
    /// Identifier size distribution.
    pub pos_ids: PosIdStats,
    /// Document content size in bytes (sum of live atom contents).
    pub document_bytes: usize,
    /// Height of the identifier tree.
    pub height: usize,
}

impl DocStats {
    /// Fraction of occupied slots that still hold a live atom
    /// (Table 1 "% non-Tomb", Table 3 reports `1 -` this value).
    pub fn non_tombstone_fraction(&self) -> f64 {
        if self.total_nodes == 0 {
            1.0
        } else {
            self.live_atoms as f64 / self.total_nodes as f64
        }
    }

    /// Fraction of occupied slots that are tombstones (Table 3).
    pub fn tombstone_fraction(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            (self.total_nodes - self.live_atoms) as f64 / self.total_nodes as f64
        }
    }

    /// In-memory overhead in bytes under the given model (Table 1 "Nodes /
    /// bytes").
    pub fn memory_bytes<D: Disambiguator>(&self, model: MemoryModel) -> usize {
        match model {
            MemoryModel::CoupleList => self.pos_ids.total_bits.div_ceil(8),
            other => self.total_nodes * other.node_bytes::<D>(0),
        }
    }

    /// In-memory overhead relative to the document content size
    /// (Table 1 "Mem ovhd").
    pub fn memory_overhead_ratio<D: Disambiguator>(&self, model: MemoryModel) -> f64 {
        if self.document_bytes == 0 {
            0.0
        } else {
            self.memory_bytes::<D>(model) as f64 / self.document_bytes as f64
        }
    }
}

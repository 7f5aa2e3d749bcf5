//! Interning arena for position-identifier path chunks.
//!
//! Identifiers derived from one another already share their prefix chunks by
//! construction (see [`crate::path`]), but identifiers that arrive through
//! *independent* channels — decoded from disk images, rebuilt from wire
//! deltas by different peers, or reconstructed element-by-element — carry
//! structurally equal but pointer-distinct chains. A [`PathArena`] unifies
//! them: interning an identifier rewrites its chunk chain onto canonical
//! nodes, so that equality and comparison between any two interned
//! identifiers short-circuit on pointer identity at the shared prefix, and
//! equal prefixes are stored once.
//!
//! The table maps `(parent chunk address, segment)` to a [`Weak`] reference
//! of the canonical chunk. Keying by address is sound because a *live* entry
//! pins its parent: every chunk node holds an `Arc` to its parent, so while
//! any table entry's node is alive its parent's address cannot be reused. A
//! *dead* entry (all interned identifiers dropped) can alias a recycled
//! address, but its `Weak` no longer upgrades, so it can never canonicalise
//! a lookup — it is dropped on touch, and bulk-swept once the table doubles
//! past the last sweep (amortised O(1) per intern).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Weak};

use crate::path::{PathNode, PosId, Seg};

/// Minimum table size before dead-entry sweeps start.
const PURGE_FLOOR: usize = 1024;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ArenaKey<D> {
    /// Address of the parent chunk node (0 for the root).
    parent: usize,
    seg: Seg<D>,
}

/// An interning table unifying structurally equal path chunks onto shared
/// nodes. See the module documentation.
#[derive(Debug, Clone)]
pub struct PathArena<D> {
    table: HashMap<ArenaKey<D>, Weak<PathNode<D>>>,
    /// Sweep dead entries when the table grows past this size.
    purge_at: usize,
}

impl<D> Default for PathArena<D> {
    fn default() -> Self {
        PathArena {
            table: HashMap::new(),
            purge_at: PURGE_FLOOR,
        }
    }
}

fn addr<D>(parent: &Option<Arc<PathNode<D>>>) -> usize {
    parent.as_ref().map_or(0, |a| Arc::as_ptr(a) as usize)
}

impl<D: Clone + Eq + Hash> PathArena<D> {
    /// An empty arena.
    pub fn new() -> Self {
        PathArena::default()
    }

    /// Number of table entries (live canonical chunks plus not-yet-swept
    /// dead ones).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Interns `id`, returning an equal identifier whose chunk chain runs
    /// through the arena's canonical nodes. Interning two equal identifiers
    /// (however they were built) yields pointer-identical chains, making
    /// subsequent comparisons between them O(1) at the shared prefix.
    pub fn intern(&mut self, id: &PosId<D>) -> PosId<D> {
        let mut parent: Option<Arc<PathNode<D>>> = None;
        for arc in id.chunk_arcs() {
            let key = ArenaKey {
                parent: addr(&parent),
                seg: arc.seg.clone(),
            };
            match self.table.get(&key).map(Weak::upgrade) {
                Some(Some(existing)) => {
                    parent = Some(existing);
                    continue;
                }
                Some(None) => {
                    // Dead entry (possibly an aliased recycled address):
                    // drop it and register afresh below.
                    self.table.remove(&key);
                }
                None => {}
            }
            // The cached aggregates depend only on the logical prefix and the
            // segment, both preserved by canonicalisation, so the original
            // node's values carry over.
            let node = if addr(&arc.parent) == addr(&parent) {
                arc
            } else {
                Arc::new(PathNode {
                    parent: parent.clone(),
                    seg: arc.seg.clone(),
                    depth: arc.depth,
                    dis_count: arc.dis_count,
                    shape: arc.shape,
                    chunks: arc.chunks,
                })
            };
            self.table.insert(key, Arc::downgrade(&node));
            parent = Some(node);
        }
        if self.table.len() >= self.purge_at {
            self.purge();
        }
        PosId::from_node(parent)
    }

    /// Drops table entries whose canonical chunk is no longer referenced by
    /// any identifier, and re-arms the growth-doubling sweep threshold.
    pub fn purge(&mut self) {
        self.table.retain(|_, weak| weak.strong_count() > 0);
        self.purge_at = PURGE_FLOOR.max(self.table.len() * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::Sdis;
    use crate::path::{PathElem, Side};
    use crate::site::SiteId;

    fn s(n: u64) -> Sdis {
        Sdis::new(SiteId::from_u64(n))
    }

    fn sample(dis: u64) -> PosId<Sdis> {
        PosId::from_elems(vec![
            PathElem::plain(Side::Right),
            PathElem::plain(Side::Right),
            PathElem::mini(Side::Left, s(dis)),
        ])
    }

    #[test]
    fn interning_unifies_independent_chains() {
        let mut arena = PathArena::new();
        let a = arena.intern(&sample(1));
        let b = arena.intern(&sample(1));
        assert_eq!(a, b);
        // Equal interned ids share the tip node, so equality is pointer-fast.
        assert!(match (a.tip(), b.tip()) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        });
        // A sibling shares the canonical prefix chunk.
        let c = arena.intern(&sample(2));
        assert_ne!(a, c);
        assert_eq!(a.common_prefix_len(&c), 2);
    }

    #[test]
    fn interning_preserves_value_and_aggregates() {
        let mut arena = PathArena::new();
        let raw = sample(7).child(PathElem::plain(Side::Left));
        let interned = arena.intern(&raw);
        assert_eq!(raw, interned);
        assert_eq!(raw.depth(), interned.depth());
        assert_eq!(raw.dis_count(), interned.dis_count());
        assert_eq!(raw.elems(), interned.elems());
    }

    #[test]
    fn purge_drops_dead_entries() {
        let mut arena = PathArena::new();
        let kept = arena.intern(&sample(1));
        {
            let _dropped = arena.intern(&sample(2));
        }
        let before = arena.len();
        arena.purge();
        assert!(arena.len() < before);
        // The surviving id still canonicalises to the same chain.
        let again = arena.intern(&sample(1));
        assert!(match (kept.tip(), again.tip()) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        });
    }
}

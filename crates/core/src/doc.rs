//! The user-facing replica object: [`Treedoc`].
//!
//! A `Treedoc<A, D>` is one replica of the shared buffer. Local edits are
//! expressed by *index* (like a plain text buffer) and return the [`Op`] that
//! must be shipped — in causal (happened-before) order — to every other
//! replica, where it is replayed with [`Treedoc::apply`]. Because the data
//! type is a CRDT, replicas that have applied the same set of operations hold
//! the same document, whatever the interleaving of concurrent operations.
//!
//! The type parameter `D` picks the disambiguator design of §3.3 ([`Udis`] or
//! [`Sdis`]) and with it the deletion policy (eager discard vs. tombstones).
//! [`TreedocConfig`] toggles the §4.1 balancing strategies.
//!
//! [`Udis`]: crate::Udis
//! [`Sdis`]: crate::Sdis

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::alloc::{balanced_append, batch_subtree_ids, new_pos_id, Neighbours};
use crate::atom::{Atom, Content};
use crate::disambiguator::{DisSource, Disambiguator, HasSource};
use crate::error::{Error, Result};
use crate::flatten::FlattenOutcome;
use crate::ops::Op;
use crate::path::{PosId, Side};
use crate::run::{spine_step, RunTree};
use crate::site::SiteId;
use crate::stats::DocStats;

/// Tuning knobs for a replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreedocConfig {
    /// Enable the §4.1 balancing strategies: grown append subtrees and
    /// minimal subtrees for batch inserts. Without it, identifiers are
    /// allocated exactly as by Algorithm 1 (which degenerates into long
    /// paths for append-heavy workloads).
    pub balancing: bool,
}

impl TreedocConfig {
    /// Configuration with the balancing strategies enabled.
    pub fn balanced() -> Self {
        TreedocConfig { balancing: true }
    }
}

/// One replica of the shared edit buffer.
///
/// Atoms are held in a run-coalesced store ([`RunTree`]): contiguous
/// same-site sequential insertions occupy a single run, so sequential typing
/// costs `O(1)` amortised per character instead of one tree node each.
#[derive(Debug, Clone)]
pub struct Treedoc<A, D: HasSource> {
    store: RunTree<A, D>,
    source: D::Source,
    config: TreedocConfig,
    /// Revision counter used to stamp tree regions for the cold-subtree
    /// flatten heuristic. Advanced by the embedding application (e.g. once
    /// per replayed revision) through [`Treedoc::next_revision`].
    revision: u64,
    /// Plain positions reserved by the last grown append subtree (§4.1);
    /// consumed by subsequent appends while they remain free.
    reserved_appends: Vec<PosId<D>>,
    /// The identifier [`apply`](Self::apply) last stored, which the next
    /// replayed identifier is re-linked onto (see [`PosId::relink_onto`]).
    last_applied: PosId<D>,
}

impl<A: Atom, D: Disambiguator + HasSource> Treedoc<A, D> {
    /// Creates an empty replica owned by `site`.
    pub fn new(site: SiteId) -> Self {
        Self::with_config(site, TreedocConfig::default())
    }

    /// Creates an empty replica with an explicit configuration.
    pub fn with_config(site: SiteId, config: TreedocConfig) -> Self {
        Treedoc {
            store: RunTree::new(),
            source: D::source(site),
            config,
            revision: 0,
            reserved_appends: Vec::new(),
            last_applied: PosId::root(),
        }
    }

    /// Creates a replica whose initial content is `atoms`, stored in the
    /// canonical (metadata-free) `explode` layout. Every replica constructed
    /// this way from the same atoms holds identical identifiers, so it can be
    /// used as the common starting point of a cooperative session.
    pub fn from_atoms(site: SiteId, atoms: &[A]) -> Self {
        Self::from_atoms_with_config(site, atoms, TreedocConfig::default())
    }

    /// [`from_atoms`](Self::from_atoms) with an explicit configuration.
    pub fn from_atoms_with_config(site: SiteId, atoms: &[A], config: TreedocConfig) -> Self {
        let mut doc = Self::with_config(site, config);
        doc.store = RunTree::from_exploded(atoms.to_vec());
        doc
    }

    /// Reassembles a replica from durably stored parts: its cells in
    /// strictly increasing identifier order (as
    /// [`RunTree::collect_cells`] lists them), the disambiguator source and
    /// the revision counter as they were when the snapshot was taken. Every
    /// cell is stamped with revision 0.
    ///
    /// The §4.1 append-reservation cache is *not* part of the durable state:
    /// a recovered replica simply re-grows its next append subtree, which
    /// affects identifier length, never correctness.
    pub fn from_cells(
        cells: impl IntoIterator<Item = (PosId<D>, Content<A>)>,
        source: D::Source,
        config: TreedocConfig,
        revision: u64,
    ) -> Self {
        Treedoc {
            store: RunTree::from_cells(cells.into_iter().map(|(id, c)| (id, c, 0)).collect()),
            source,
            config,
            revision,
            reserved_appends: Vec::new(),
            last_applied: PosId::root(),
        }
    }

    /// The disambiguator source, exposed so the durability layer can persist
    /// its state (the UDIS counter must survive a crash or uniqueness is
    /// lost).
    pub fn dis_source(&self) -> &D::Source {
        &self.source
    }

    /// Tells the replica that `op` — an operation *it initiated itself* — is
    /// being replayed from a durable log rather than re-executed. Keeps the
    /// disambiguator source ahead of every identifier it ever issued (see
    /// [`DisSource::observe_replayed`]).
    pub fn note_replayed_local(&mut self, op: &Op<A, D>) {
        if let Op::Insert { id, .. } = op {
            let site = self.site();
            let source = &mut self.source;
            id.visit_elems_from(0, |_, dis| {
                if let Some(dis) = dis {
                    if dis.site() == site {
                        source.observe_replayed(dis);
                    }
                }
            });
        }
    }

    // ------------------------------------------------------------------
    // Reading
    // ------------------------------------------------------------------

    /// Number of (live) atoms in the document.
    pub fn len(&self) -> usize {
        self.store.live_len()
    }

    /// `true` when the document holds no atom.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The atom at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&A> {
        self.store.atom_at(index)
    }

    /// All atoms in document order.
    pub fn to_vec(&self) -> Vec<A> {
        self.store.to_vec()
    }

    /// Atoms paired with their position identifiers, in document order.
    pub fn to_identified_vec(&self) -> Vec<(PosId<D>, A)> {
        self.store.to_identified_vec()
    }

    /// The identifier of the `index`-th atom, if any.
    pub fn id_at(&self, index: usize) -> Option<PosId<D>> {
        self.store.id_of_live_index(index)
    }

    /// The site owning this replica.
    pub fn site(&self) -> SiteId {
        self.source.site()
    }

    /// Read access to the run-coalesced store.
    pub fn store(&self) -> &RunTree<A, D> {
        &self.store
    }

    /// The replica's configuration.
    pub fn config(&self) -> TreedocConfig {
        self.config
    }

    /// Number of occupied tree slots (live atoms, tombstones and ghosts).
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Height of the identifier tree.
    pub fn height(&self) -> usize {
        self.store.height()
    }

    /// Measures the overhead statistics of §5 for this replica, in `O(1)`
    /// from the store's cached aggregates.
    pub fn stats(&self) -> DocStats {
        self.store.stats()
    }

    /// Estimated heap footprint of the identifier index (run patterns, cell
    /// vectors, live bitmaps and tree nodes) — the measured memory-per-char
    /// numerator tracked by the `core_memory` benchmark.
    pub fn index_bytes(&self) -> usize {
        self.store.index_bytes()
    }

    /// Checks the internal invariants of the identifier tree.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.store.check_invariants()
    }

    // ------------------------------------------------------------------
    // State-based sync (anti-entropy)
    // ------------------------------------------------------------------

    /// Incremental merkle digest of the whole document state — every stored
    /// cell (live, tombstone and ghost) in document order. `O(1)` from the
    /// store's cached root aggregate; replicas that applied the same
    /// operation set agree on it regardless of how their stores fragmented.
    pub fn merkle_digest(&self) -> u64 {
        self.store.digest()
    }

    /// Integrates cells received through state-based anti-entropy (see
    /// [`RunTree::integrate_cell`] for the precedence rules and the SDIS
    /// soundness caveat). All cells are stamped with one fresh revision.
    /// Returns how many cells actually changed the store.
    ///
    /// Identifiers decoded from one cell list already share their common
    /// prefixes: each is delta-decoded onto its predecessor's chunk chain.
    pub fn integrate_cells(
        &mut self,
        cells: impl IntoIterator<Item = (PosId<D>, Content<A>)>,
    ) -> Result<usize> {
        let rev = self.next_revision();
        let mut changed = 0;
        for (id, content) in cells {
            if self.store.integrate_cell(&id, content, rev)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Replaces this replica's content with `donor`'s while keeping the
    /// local identity (site, disambiguator source) — the late-joiner
    /// bootstrap: a brand-new site adopts a snapshot transferred from any
    /// peer and can edit immediately under its own site, with no identifier
    /// collisions because its disambiguator source is untouched.
    ///
    /// The revision counter takes the maximum of both sides so the cold-
    /// subtree flatten heuristic never sees time move backwards; the local
    /// configuration is kept (it only shapes local allocation heuristics).
    pub fn adopt_state(&mut self, donor: Treedoc<A, D>) {
        self.store = donor.store;
        self.revision = self.revision.max(donor.revision);
        self.reserved_appends.clear();
    }

    // ------------------------------------------------------------------
    // Revisions (drives the cold-subtree flatten heuristic)
    // ------------------------------------------------------------------

    /// Current revision number.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Starts a new revision: subsequent edits are stamped with the new
    /// revision number, which the cold-subtree heuristic of
    /// [`flatten_cold`](Self::flatten_cold) uses to find quiescent regions.
    pub fn next_revision(&mut self) -> u64 {
        self.revision += 1;
        self.revision
    }

    // ------------------------------------------------------------------
    // Local edits (initiator side)
    // ------------------------------------------------------------------

    /// Inserts `atom` so that it becomes the `index`-th atom of the document
    /// (`index` may equal [`len`](Self::len) to append). Returns the
    /// operation to broadcast to the other replicas.
    pub fn local_insert(&mut self, index: usize, atom: A) -> Result<Op<A, D>> {
        let len = self.len();
        if index > len {
            return Err(Error::IndexOutOfBounds { index, len });
        }
        let id = self.allocate_id(index)?;
        self.store.insert(&id, atom.clone(), self.revision)?;
        Ok(Op::Insert { id, atom })
    }

    /// Inserts a run of consecutive atoms starting at `index`. With balancing
    /// enabled the run is laid out as a minimal complete subtree (§4.1 /
    /// §5.1), which keeps identifiers short; otherwise this is equivalent to
    /// repeated [`local_insert`](Self::local_insert) calls.
    pub fn local_insert_batch(&mut self, index: usize, atoms: &[A]) -> Result<Vec<Op<A, D>>> {
        let len = self.len();
        if index > len {
            return Err(Error::IndexOutOfBounds { index, len });
        }
        if atoms.is_empty() {
            return Ok(Vec::new());
        }
        if !self.config.balancing || atoms.len() == 1 {
            let mut ops = Vec::with_capacity(atoms.len());
            for (k, atom) in atoms.iter().enumerate() {
                ops.push(self.local_insert(index + k, atom.clone())?);
            }
            return Ok(ops);
        }
        let (before, after) = self.neighbours(index);
        let after = after.map(|(id, _)| id);
        let ids = batch_subtree_ids(
            Neighbours::new(before.as_ref(), after.as_ref()),
            atoms.len(),
            || self.source.next_dis(),
        );
        let mut ops = Vec::with_capacity(atoms.len());
        for (id, atom) in ids.into_iter().zip(atoms.iter().cloned()) {
            self.store.insert(&id, atom.clone(), self.revision)?;
            ops.push(Op::Insert { id, atom });
        }
        Ok(ops)
    }

    /// Deletes the `index`-th atom. Returns the operation to broadcast.
    pub fn local_delete(&mut self, index: usize) -> Result<Op<A, D>> {
        let id = self
            .store
            .id_of_live_index(index)
            .ok_or(Error::IndexOutOfBounds {
                index,
                len: self.len(),
            })?;
        self.store.delete(&id, self.revision)?;
        Ok(Op::Delete { id })
    }

    /// Replaces the `index`-th atom (modelled, as in §5, by a delete followed
    /// by an insert of the new value). Returns both operations.
    pub fn local_replace(&mut self, index: usize, atom: A) -> Result<[Op<A, D>; 2]> {
        let delete = self.local_delete(index)?;
        let insert = self.local_insert(index, atom)?;
        Ok([delete, insert])
    }

    // ------------------------------------------------------------------
    // Replay (remote side)
    // ------------------------------------------------------------------

    /// Replays an operation received from another replica. Operations must be
    /// delivered in an order compatible with happened-before (the
    /// `treedoc-replication` crate provides such a delivery layer); under
    /// that condition replay never fails and all replicas converge.
    ///
    /// An identifier decoded from bytes shares no chunk with the stored
    /// ones. When the identifier applied last has a long chain and the new
    /// one hangs off its path (a backspace, or a run of them) or is a child
    /// of its major node (the next keystroke of a typing run; the first
    /// after a backspace, which continues the run past the tombstone; or
    /// the first after two, which forks under the first tombstone), the new
    /// one is re-linked onto that chain first ([`PosId::relink_onto`]), so
    /// the store's comparisons against it skip the shared prefix.
    pub fn apply(&mut self, op: &Op<A, D>) -> Result<()> {
        let id = op.id();
        let id = id
            .relink_onto(&self.last_applied)
            .unwrap_or_else(|| id.clone());
        let result = match op {
            Op::Insert { atom, .. } => self.store.insert(&id, atom.clone(), self.revision),
            Op::Delete { .. } => self.store.delete(&id, self.revision).map(drop),
        };
        self.last_applied = id;
        result
    }

    /// Replays a batch of operations.
    pub fn apply_all<'a>(&mut self, ops: impl IntoIterator<Item = &'a Op<A, D>>) -> Result<()>
    where
        A: 'a,
        D: 'a,
    {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Structural clean-up (§4.2)
    // ------------------------------------------------------------------

    /// Compacts the subtree rooted at the plain bit path `bits` (see
    /// [`RunTree::flatten_region`](crate::run::RunTree::flatten_region)).
    /// In a distributed setting this must only be called after the
    /// commitment protocol of §4.2.1 has succeeded (see
    /// `treedoc_replication::flatten`); replaying it at every replica at the
    /// same causal point keeps them convergent because the transformation
    /// is deterministic.
    pub fn flatten(&mut self, bits: &[Side]) -> Result<FlattenOutcome> {
        self.reserved_appends.clear();
        self.store.flatten_region(bits)
    }

    /// Compacts the whole document.
    pub fn flatten_all(&mut self) -> Result<FlattenOutcome> {
        self.flatten(&[])
    }

    /// Applies the cold-region heuristic of §5.1: flattens every maximal
    /// subtree that has not been modified since `threshold_rev` and holds at
    /// least `min_live` atoms. Returns one outcome per flattened subtree.
    /// The regions come from the run aggregates
    /// ([`RunTree::cold_regions`]); no per-atom tree is built.
    pub fn flatten_cold(&mut self, threshold_rev: u64, min_live: usize) -> Vec<FlattenOutcome> {
        let cold = self.store.cold_regions(threshold_rev, min_live);
        let mut outcomes = Vec::with_capacity(cold.len());
        for bits in cold {
            if let Ok(outcome) = self.flatten(&bits) {
                outcomes.push(outcome);
            }
        }
        outcomes
    }

    // ------------------------------------------------------------------
    // Identifier allocation
    // ------------------------------------------------------------------

    /// The full-tree neighbours of the insertion gap at `index` — the live
    /// atom before it and the first stored slot after that atom — with
    /// whether that slot holds a live atom, read in the same descent. The
    /// first slot of the document is reported live: no allocation looks past
    /// it.
    fn neighbours(&self, index: usize) -> (Option<PosId<D>>, Option<Slot<D>>) {
        if index == 0 {
            (None, self.store.first_slot().map(|id| (id, true)))
        } else {
            let before = self
                .store
                .id_of_live_index(index - 1)
                .expect("index validated by caller");
            let after = self.store.successor_cell(&before);
            (Some(before), after)
        }
    }

    /// Allocates the identifier of an atom inserted at `index`.
    ///
    /// Algorithm 1 needs only *some* adjacent pair `p < f` inside the gap.
    /// The pair is the gap's left end, `(live atom, next slot)`, except
    /// after a backspace: when the next slot is a dead cell (an SDIS
    /// tombstone or a UDIS ghost) that is the live atom's spine successor,
    /// the pair `(dead cell, slot after it)` is tried first. That pair is
    /// adjacent in the full tree too, so its identifier lies strictly
    /// between two stored slots and collides with none, which is all
    /// §3.3.2's SDIS reuse argument asks of a pair; and the dead cell holds
    /// no atom, so the new atom lands between the same two live atoms. It
    /// is kept when it is the right child of the dead cell's major node —
    /// for SDIS the dead cell's spine successor, so the typing run goes on
    /// past the tombstone instead of forking under it. Otherwise the slot
    /// after the dead cell lies below the dead cell's major node (its spine
    /// successor, dead too after a second backspace; the cells a UDIS ghost
    /// shelters; a concurrent insert there), that pair would nest the atom
    /// deeper than the left end does, and the left end is used.
    fn allocate_id(&mut self, index: usize) -> Result<PosId<D>> {
        let (before, after) = match self.neighbours(index) {
            // Balanced append (§4.1): when appending past the last occupied
            // slot, reuse a slot reserved by the last grown subtree, or grow
            // a new one.
            (Some(before), None) if self.config.balancing => {
                if let Some(id) = self.reserved_or_grown_append(&before) {
                    return Ok(id);
                }
                (Some(before), None)
            }
            (Some(before), Some((dead, false))) if spine_step(&before, &dead).is_some() => {
                let dis = self.source.next_dis();
                let next = self.store.successor_slot(&dead);
                let id = new_pos_id(Neighbours::new(Some(&dead), next.as_ref()), dis.clone());
                return Ok(if id.parent() == Some(dead.major_path()) {
                    id
                } else {
                    new_pos_id(Neighbours::new(Some(&before), Some(&dead)), dis)
                });
            }
            (before, after) => (before, after.map(|(id, _)| id)),
        };
        Ok(new_pos_id(
            Neighbours::new(before.as_ref(), after.as_ref()),
            self.source.next_dis(),
        ))
    }

    /// Pops the next valid reserved append slot, growing a fresh subtree when
    /// the reservation is exhausted or stale.
    fn reserved_or_grown_append(&mut self, before: &PosId<D>) -> Option<PosId<D>> {
        loop {
            if self.reserved_appends.is_empty() {
                let grown = balanced_append(before, self.store.height().max(1));
                self.reserved_appends = grown.slots;
                if self.reserved_appends.is_empty() {
                    return None;
                }
            }
            let slot = self.reserved_appends.remove(0);
            let candidate = attach_dis(&slot, self.source.next_dis());
            if &candidate > before && self.store.get(&candidate).is_none() {
                return Some(candidate);
            }
            // The slot went stale (an intervening edit used or bypassed it).
            // Try the rest of the reservation; if none is left, fall back to
            // plain Algorithm 1 allocation rather than growing immediately,
            // so interleaved non-append edits cannot force runaway growth.
            if self.reserved_appends.is_empty() {
                return None;
            }
        }
    }
}

/// A stored slot and whether it holds a live atom.
type Slot<D> = (PosId<D>, bool);

/// Attaches a disambiguator to a plain position, producing the identifier of
/// the mini-node that will hold the atom.
fn attach_dis<D: Disambiguator>(plain: &PosId<D>, dis: D) -> PosId<D> {
    match plain.last_side() {
        // Replace the final element with its disambiguated counterpart; the
        // shared prefix is reused, so this is O(1) regardless of depth.
        Some(side) => plain
            .parent()
            .expect("non-root identifier has a parent")
            .child_mini(side, dis),
        None => plain.child_mini(Side::Left, dis),
    }
}

impl<A, D> fmt::Display for Treedoc<A, D>
where
    A: Atom + fmt::Display,
    D: Disambiguator + HasSource,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for atom in self.to_vec() {
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disambiguator::{Sdis, Udis};
    use crate::run::spine_successor;

    type SDoc = Treedoc<char, Sdis>;
    type UDoc = Treedoc<char, Udis>;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn type_text(doc: &mut SDoc, text: &str) -> Vec<Op<char, Sdis>> {
        text.chars()
            .enumerate()
            .map(|(i, c)| doc.local_insert(doc.len().min(i), c).unwrap())
            .collect()
    }

    #[test]
    fn basic_editing() {
        let mut doc = SDoc::new(site(1));
        assert!(doc.is_empty());
        type_text(&mut doc, "hello");
        assert_eq!(doc.to_string(), "hello");
        assert_eq!(doc.len(), 5);
        doc.local_insert(5, '!').unwrap();
        doc.local_insert(0, '>').unwrap();
        assert_eq!(doc.to_string(), ">hello!");
        doc.local_delete(0).unwrap();
        doc.local_delete(5).unwrap();
        assert_eq!(doc.to_string(), "hello");
        doc.check_invariants().unwrap();
    }

    #[test]
    fn out_of_bounds_edits_error() {
        let mut doc = SDoc::new(site(1));
        assert!(matches!(
            doc.local_insert(1, 'x'),
            Err(Error::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            doc.local_delete(0),
            Err(Error::IndexOutOfBounds { .. })
        ));
        doc.local_insert(0, 'a').unwrap();
        assert!(doc.local_insert(1, 'b').is_ok());
        assert!(matches!(
            doc.local_delete(5),
            Err(Error::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn replay_reaches_same_state() {
        let mut alice = SDoc::new(site(1));
        let mut bob = SDoc::new(site(2));
        let ops = type_text(&mut alice, "treedoc");
        for op in &ops {
            bob.apply(op).unwrap();
        }
        assert_eq!(alice.to_string(), bob.to_string());
        let del = alice.local_delete(3).unwrap();
        bob.apply(&del).unwrap();
        assert_eq!(alice.to_string(), bob.to_string());
    }

    #[test]
    fn concurrent_inserts_commute() {
        let mut alice = SDoc::new(site(1));
        let mut bob = SDoc::new(site(2));
        let seed = type_text(&mut alice, "ad");
        for op in &seed {
            bob.apply(op).unwrap();
        }
        // Both replicas insert concurrently between 'a' and 'd'.
        let a_op = alice.local_insert(1, 'b').unwrap();
        let b_op = bob.local_insert(1, 'c').unwrap();
        alice.apply(&b_op).unwrap();
        bob.apply(&a_op).unwrap();
        assert_eq!(alice.to_string(), bob.to_string());
        assert_eq!(alice.len(), 4);
        // The relative order of the concurrent atoms is decided by the
        // disambiguators, identically at both replicas.
        let text = alice.to_string();
        assert!(text == "abcd" || text == "acbd");
    }

    #[test]
    fn concurrent_delete_and_insert_commute() {
        let mut alice = SDoc::new(site(1));
        let mut bob = SDoc::new(site(2));
        for op in type_text(&mut alice, "abc") {
            bob.apply(&op).unwrap();
        }
        let del = alice.local_delete(1).unwrap(); // alice deletes 'b'
        let ins = bob.local_insert(2, 'x').unwrap(); // bob inserts after 'b'
        alice.apply(&ins).unwrap();
        bob.apply(&del).unwrap();
        assert_eq!(alice.to_string(), bob.to_string());
        assert_eq!(alice.to_string(), "axc");
    }

    #[test]
    fn concurrent_deletes_of_same_atom_are_idempotent() {
        let mut alice = SDoc::new(site(1));
        let mut bob = SDoc::new(site(2));
        for op in type_text(&mut alice, "abc") {
            bob.apply(&op).unwrap();
        }
        let d1 = alice.local_delete(1).unwrap();
        let d2 = bob.local_delete(1).unwrap();
        assert_eq!(d1, d2, "both replicas delete the same identifier");
        alice.apply(&d2).unwrap();
        bob.apply(&d1).unwrap();
        assert_eq!(alice.to_string(), "ac");
        assert_eq!(bob.to_string(), "ac");
    }

    #[test]
    fn udis_discards_deleted_nodes_sdis_keeps_tombstones() {
        let mut sdoc = SDoc::new(site(1));
        let mut udoc = UDoc::new(site(1));
        for i in 0..10 {
            sdoc.local_insert(i, 'x').unwrap();
            udoc.local_insert(i, 'x').unwrap();
        }
        for _ in 0..5 {
            sdoc.local_delete(0).unwrap();
            udoc.local_delete(0).unwrap();
        }
        assert_eq!(sdoc.len(), 5);
        assert_eq!(udoc.len(), 5);
        assert!(sdoc.node_count() > sdoc.len(), "SDIS keeps tombstones");
        assert!(
            udoc.node_count() <= sdoc.node_count(),
            "UDIS discards eagerly so it never stores more nodes"
        );
        assert_eq!(sdoc.stats().tombstones, 5);
        assert_eq!(udoc.stats().tombstones, 0);
    }

    #[test]
    fn from_atoms_starts_metadata_free() {
        let atoms: Vec<char> = "abcdefghij".chars().collect();
        let doc = SDoc::from_atoms(site(1), &atoms);
        assert_eq!(doc.to_string(), "abcdefghij");
        let stats = doc.stats();
        assert_eq!(stats.total_nodes, stats.live_atoms);
        assert_eq!(
            stats.pos_ids.max_bits, 3,
            "plain paths of a 10-atom complete tree"
        );
        // Two replicas built from the same atoms interoperate directly.
        let mut a = SDoc::from_atoms(site(1), &atoms);
        let mut b = SDoc::from_atoms(site(2), &atoms);
        let op = a.local_insert(5, 'X').unwrap();
        b.apply(&op).unwrap();
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn replace_is_delete_plus_insert() {
        let mut doc = SDoc::new(site(1));
        type_text(&mut doc, "abc");
        let [del, ins] = doc.local_replace(1, 'X').unwrap();
        assert!(del.is_delete());
        assert!(ins.is_insert());
        assert_eq!(doc.to_string(), "aXc");
    }

    #[test]
    fn append_heavy_editing_unbalanced_grows_linearly() {
        let mut doc = SDoc::new(site(1));
        for i in 0..64 {
            doc.local_insert(i, 'x').unwrap();
        }
        // Without balancing each append deepens the right spine.
        assert!(
            doc.height() >= 64,
            "height {} should be linear",
            doc.height()
        );
    }

    #[test]
    fn append_heavy_editing_balanced_stays_logarithmic() {
        let mut doc = Treedoc::<char, Sdis>::with_config(site(1), TreedocConfig::balanced());
        for i in 0..256 {
            doc.local_insert(i, 'x').unwrap();
        }
        assert_eq!(doc.len(), 256);
        assert!(
            doc.height() <= 40,
            "balanced appends keep the tree shallow (got height {})",
            doc.height()
        );
        doc.check_invariants().unwrap();
        // Content order is still correct.
        assert_eq!(doc.to_vec(), vec!['x'; 256]);
    }

    #[test]
    fn batch_insert_uses_minimal_subtree() {
        let mut doc = Treedoc::<char, Sdis>::with_config(site(1), TreedocConfig::balanced());
        doc.local_insert(0, 'a').unwrap();
        doc.local_insert(1, 'z').unwrap();
        let middle: Vec<char> = "bcdefghijklm".chars().collect();
        let ops = doc.local_insert_batch(1, &middle).unwrap();
        assert_eq!(ops.len(), middle.len());
        assert_eq!(doc.to_string(), "abcdefghijklmz");
        // A minimal subtree for 12 atoms has depth 4; identifiers stay short.
        let stats = doc.stats();
        assert!(stats.pos_ids.max_bits <= 1 + 4 + 2 + 48 + 48);
        doc.check_invariants().unwrap();
        // Replaying the batch elsewhere produces the same document.
        let mut other = SDoc::new(site(2));
        other
            .apply(&Op::Insert {
                id: doc.id_at(0).unwrap(),
                atom: 'a',
            })
            .unwrap();
        other
            .apply(&Op::Insert {
                id: doc.id_at(13).unwrap(),
                atom: 'z',
            })
            .unwrap();
        for op in &ops {
            other.apply(op).unwrap();
        }
        assert_eq!(other.to_string(), doc.to_string());
    }

    #[test]
    fn flatten_shortens_identifiers_and_drops_tombstones() {
        let mut doc = SDoc::new(site(1));
        for i in 0..50 {
            doc.local_insert(i, 'x').unwrap();
        }
        for _ in 0..20 {
            doc.local_delete(10).unwrap();
        }
        let before = doc.stats();
        assert!(before.tombstones > 0);
        let outcome = doc.flatten_all().unwrap();
        assert!(matches!(outcome, FlattenOutcome::Flattened { .. }));
        let after = doc.stats();
        assert_eq!(after.tombstones, 0);
        assert_eq!(after.total_nodes, 30);
        assert!(after.pos_ids.max_bits < before.pos_ids.max_bits);
        assert_eq!(doc.len(), 30);
        doc.check_invariants().unwrap();
    }

    #[test]
    fn flatten_cold_only_touches_quiescent_regions() {
        let mut doc = SDoc::new(site(1));
        for i in 0..32 {
            doc.local_insert(i, 'x').unwrap();
        }
        doc.next_revision();
        // New edits concentrate at the *beginning* of the document, so the
        // long appended tail from revision 0 goes quiescent.
        for _ in 0..8 {
            doc.local_insert(0, 'y').unwrap();
        }
        let before_nodes = doc.node_count();
        let before_height = doc.height();
        let outcomes = doc.flatten_cold(0, 2);
        assert!(
            !outcomes.is_empty(),
            "some cold region should have been found"
        );
        assert_eq!(doc.len(), 40, "content unchanged");
        assert!(doc.node_count() <= before_nodes);
        assert!(
            doc.height() < before_height,
            "the cold spine should have been compacted"
        );
        doc.check_invariants().unwrap();
    }

    #[test]
    fn revision_counter_advances() {
        let mut doc = SDoc::new(site(1));
        assert_eq!(doc.revision(), 0);
        assert_eq!(doc.next_revision(), 1);
        assert_eq!(doc.next_revision(), 2);
        assert_eq!(doc.revision(), 2);
    }

    #[test]
    fn the_keystroke_after_a_backspace_continues_past_the_tombstone() {
        let mut doc = SDoc::new(site(1));
        type_text(&mut doc, "abc");
        let c = doc.id_at(2).unwrap();
        doc.local_delete(2).unwrap();
        let d = doc.local_insert(2, 'd').unwrap();
        assert_eq!(Some(d.id().clone()), spine_successor(&c, Side::Right));
        assert_eq!(doc.store().run_count(), 1);
        // A second backspace in a row: the slot after the tombstone is its
        // spine successor, dead too, so the next key forks under it.
        doc.local_delete(2).unwrap();
        doc.local_delete(1).unwrap();
        let b = doc.id_at(0).and_then(|a| doc.store().successor_slot(&a));
        let e = doc.local_insert(1, 'e').unwrap();
        assert_eq!(Some(e.id().parent().unwrap()), b.map(|b| b.major_path()));
        assert_eq!(e.id().last_side(), Some(Side::Left));
        assert_eq!(doc.to_string(), "ae");
    }

    #[test]
    fn a_concurrent_insert_after_the_tombstone_keeps_the_left_end() {
        // Bob appends after 'c' before Alice deletes it: the slot after the
        // tombstone is in the tombstone's own subtree, where Algorithm 1
        // would nest the new atom two levels down. The gap's left end gives
        // the left child of the tombstone's major node, one level down.
        let mut alice = SDoc::new(site(1));
        let mut bob = SDoc::new(site(2));
        for op in type_text(&mut alice, "abc") {
            bob.apply(&op).unwrap();
        }
        let x = bob.local_insert(3, 'x').unwrap();
        alice.apply(&x).unwrap();
        let c = alice.id_at(2).unwrap();
        let del = alice.local_delete(2).unwrap();
        let y = alice.local_insert(2, 'y').unwrap();
        assert_eq!(y.id().parent(), Some(c.major_path()));
        assert_eq!(y.id().last_side(), Some(Side::Left));
        bob.apply(&del).unwrap();
        bob.apply(&y).unwrap();
        assert_eq!(alice.to_string(), "abyx");
        assert_eq!(alice.merkle_digest(), bob.merkle_digest());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random local edit script.
        #[derive(Debug, Clone)]
        enum Edit {
            Insert(usize, char),
            Delete(usize),
        }

        fn arb_edits(n: usize) -> impl Strategy<Value = Vec<Edit>> {
            proptest::collection::vec(
                prop_oneof![
                    (any::<usize>(), proptest::char::range('a', 'z'))
                        .prop_map(|(i, c)| Edit::Insert(i, c)),
                    any::<usize>().prop_map(Edit::Delete),
                ],
                0..n,
            )
        }

        fn apply_edits(doc: &mut SDoc, edits: &[Edit]) -> Vec<Op<char, Sdis>> {
            let mut ops = Vec::new();
            for e in edits {
                match e {
                    Edit::Insert(i, c) => {
                        let idx = i % (doc.len() + 1);
                        ops.push(doc.local_insert(idx, *c).unwrap());
                    }
                    Edit::Delete(i) => {
                        if !doc.is_empty() {
                            ops.push(doc.local_delete(i % doc.len()).unwrap());
                        }
                    }
                }
            }
            ops
        }

        /// Plays `keys` — `(site, action, position)` — at two replicas of
        /// `D`, each with a cursor: actions 0–5 type, 6–7 backspace, 8
        /// moves the cursor, 9 delivers the other site's pending ops.
        fn check_allocations<D: Disambiguator + HasSource>(
            keys: &[(u8, u8, usize)],
        ) -> Result<(), TestCaseError> {
            let mut docs = [1, 2].map(|s| Treedoc::<char, D>::new(site(s)));
            let mut cursors = [0usize; 2];
            let mut pending: [Vec<Op<char, D>>; 2] = [Vec::new(), Vec::new()];
            for &(who, action, pos) in keys {
                let s = usize::from(who % 2);
                let len = docs[s].len();
                let cursor = cursors[s].min(len);
                match action {
                    0..=5 => {
                        let before = docs[s].clone();
                        let op = docs[s].local_insert(cursor, 'k').unwrap();
                        let id = op.id();
                        prop_assert!(before.store().get(id).is_none(), "{:?} is stored", id);
                        if let Some(left) = before.id_at(cursor.wrapping_sub(1)) {
                            prop_assert!(left < *id, "{:?} !< {:?}", left, id);
                        }
                        if let Some(right) = before.id_at(cursor) {
                            prop_assert!(*id < right, "{:?} !< {:?}", id, right);
                        }
                        cursors[s] = cursor + 1;
                        pending[s].push(op);
                    }
                    6 | 7 if cursor > 0 => {
                        pending[s].push(docs[s].local_delete(cursor - 1).unwrap());
                        cursors[s] = cursor - 1;
                    }
                    8 => cursors[s] = pos % (len + 1),
                    _ => {
                        for op in std::mem::take(&mut pending[1 - s]) {
                            docs[s].apply(&op).unwrap();
                        }
                    }
                }
            }
            for s in 0..2 {
                for op in std::mem::take(&mut pending[1 - s]) {
                    docs[s].apply(&op).unwrap();
                }
            }
            prop_assert_eq!(docs[0].merkle_digest(), docs[1].merkle_digest());
            prop_assert_eq!(docs[0].to_vec(), docs[1].to_vec());
            prop_assert!(docs[0].check_invariants().is_ok());
            Ok(())
        }

        proptest! {
            /// Two replicas that exchange concurrent edit batches converge,
            /// whatever the batches and whichever order the batches are
            /// applied in.
            #[test]
            fn concurrent_batches_converge(
                seed in proptest::collection::vec(proptest::char::range('a', 'z'), 0..20),
                edits_a in arb_edits(15),
                edits_b in arb_edits(15),
            ) {
                let mut alice = SDoc::from_atoms(site(1), &seed);
                let mut bob = SDoc::from_atoms(site(2), &seed);
                let ops_a = apply_edits(&mut alice, &edits_a);
                let ops_b = apply_edits(&mut bob, &edits_b);
                for op in &ops_b { alice.apply(op).unwrap(); }
                for op in &ops_a { bob.apply(op).unwrap(); }
                prop_assert_eq!(alice.to_vec(), bob.to_vec());
                prop_assert!(alice.check_invariants().is_ok());
                prop_assert!(bob.check_invariants().is_ok());
            }

            /// The local edit API behaves like a plain vector (sequential
            /// specification).
            #[test]
            fn matches_vector_semantics(edits in arb_edits(40)) {
                let mut doc = SDoc::new(site(1));
                let mut model: Vec<char> = Vec::new();
                for e in &edits {
                    match e {
                        Edit::Insert(i, c) => {
                            let idx = i % (model.len() + 1);
                            model.insert(idx, *c);
                            doc.local_insert(idx, *c).unwrap();
                        }
                        Edit::Delete(i) => {
                            if !model.is_empty() {
                                let idx = i % model.len();
                                model.remove(idx);
                                doc.local_delete(idx).unwrap();
                            }
                        }
                    }
                }
                prop_assert_eq!(doc.to_vec(), model);
            }

            /// Balancing does not change the sequential semantics, only the
            /// identifier shapes.
            #[test]
            fn balanced_matches_vector_semantics(edits in arb_edits(40)) {
                let mut doc = Treedoc::<char, Sdis>::with_config(site(1), TreedocConfig::balanced());
                let mut model: Vec<char> = Vec::new();
                for e in &edits {
                    match e {
                        Edit::Insert(i, c) => {
                            let idx = i % (model.len() + 1);
                            model.insert(idx, *c);
                            doc.local_insert(idx, *c).unwrap();
                        }
                        Edit::Delete(i) => {
                            if !model.is_empty() {
                                let idx = i % model.len();
                                model.remove(idx);
                                doc.local_delete(idx).unwrap();
                            }
                        }
                    }
                }
                prop_assert_eq!(doc.to_vec(), model);
                prop_assert!(doc.check_invariants().is_ok());
            }

            /// Cursor typing with backspaces and moves at two sites that
            /// exchange their ops now and then: every identifier a local
            /// insert allocates lies strictly between its live neighbours
            /// and collides with no stored slot.
            #[test]
            fn allocated_ids_lie_between_their_live_neighbours(
                keys in proptest::collection::vec((0u8..3, 0u8..10, any::<usize>()), 0..120),
            ) {
                check_allocations::<Sdis>(&keys)?;
                check_allocations::<Udis>(&keys)?;
            }

            /// Flatten at an arbitrary point of an edit history preserves the
            /// document content and removes every tombstone.
            #[test]
            fn flatten_preserves_content(edits in arb_edits(40)) {
                let mut doc = SDoc::new(site(1));
                apply_edits(&mut doc, &edits);
                let before = doc.to_vec();
                doc.flatten_all().unwrap();
                prop_assert_eq!(doc.to_vec(), before);
                prop_assert_eq!(doc.stats().tombstones, 0);
                prop_assert_eq!(doc.node_count(), doc.len());
            }
        }
    }
}

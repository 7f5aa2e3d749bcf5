//! Differential tests for the run-coalesced document store: the same random
//! operation schedules — local edits, remote replay, faulty delivery orders
//! from the replication testkit, concurrent inserts into one gap, flattens —
//! are pushed through a run-coalesced [`Treedoc`], a bare [`RunTree`] and
//! the per-atom [`Tree`] reference built from empty, op by op, and every
//! observable must agree: cells, `delete` results, statistics counted slot
//! by slot ([`measure`]), flatten outcomes, content digests, `atom_at` on
//! every index, and the encoded wire bytes of the operation stream.
//! Coalescing is a storage and wire optimisation; it must never be visible
//! in behaviour. Both disambiguator kinds run, so SDIS tombstones and UDIS
//! discards (ghosts, and their pruning) are each checked against the tree.

use proptest::prelude::*;
use treedoc_reference::{flatten_subtree, measure, RefPosId, Tree};
use treedoc_repro::core::{
    cell_hash, spine_step, Content, Disambiguator, FlattenOutcome, HasSource, Op, PosId, RunTree,
    Sdis, SiteId, Treedoc, Udis, DIGEST_BASE,
};
use treedoc_repro::replication::sync::encode_cells;
use treedoc_repro::replication::testkit::faulty_schedule;
use treedoc_repro::replication::{
    decode_envelope, encode_envelope, CausalBuffer, CausalMessage, Envelope, OpBatch,
    ReplicatedDocument, VectorClock,
};

type SDoc = Treedoc<char, Sdis>;
type SOp = Op<char, Sdis>;

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

/// The per-atom reference: every operation lands in a plain extended binary
/// tree, one major/mini node per atom, no coalescing anywhere.
struct Reference<D: Disambiguator> {
    tree: Tree<char, D>,
    rev: u64,
}

impl<D: Disambiguator> Reference<D> {
    fn new() -> Self {
        Reference {
            tree: Tree::new(),
            rev: 0,
        }
    }

    /// Applies `op` at the next revision; a delete returns the atom it
    /// removed.
    fn apply(&mut self, op: &Op<char, D>) -> Option<char> {
        self.rev += 1;
        match op {
            Op::Insert { id, atom } => {
                self.tree.insert(id, *atom, self.rev).unwrap();
                None
            }
            Op::Delete { id } => self.tree.delete(id, self.rev).unwrap(),
        }
    }
}

/// Every observable the two representations share must agree.
fn assert_matches_reference<D: Disambiguator + HasSource>(
    doc: &Treedoc<char, D>,
    reference: &Reference<D>,
) {
    assert_eq!(doc.to_vec(), reference.tree.to_vec());
    assert_eq!(doc.len(), reference.tree.live_len());
    for index in 0..doc.len() {
        assert_eq!(
            doc.store().atom_at(index),
            reference.tree.atom_at(index),
            "atom_at({index}) diverged"
        );
        assert_eq!(
            doc.store().id_of_live_index(index),
            reference.tree.id_of_live_index(index),
            "id_of_live_index({index}) diverged"
        );
    }
    assert!(doc.store().atom_at(doc.len()).is_none());
    doc.check_invariants().unwrap();
    reference.tree.check_invariants().unwrap();
}

/// A document whose every op is replayed, at the same revision, into a bare
/// run store and the reference tree.
struct Mirror<D: Disambiguator + HasSource> {
    doc: Treedoc<char, D>,
    run: RunTree<char, D>,
    reference: Reference<D>,
}

impl<D: Disambiguator + HasSource> Mirror<D> {
    fn new(site: u64) -> Self {
        Mirror {
            doc: Treedoc::new(SiteId::from_u64(site)),
            run: RunTree::new(),
            reference: Reference::new(),
        }
    }

    fn insert(&mut self, index: usize, c: char) -> Op<char, D> {
        let op = self.doc.local_insert(index, c).unwrap();
        self.apply(&op);
        op
    }

    fn delete(&mut self, index: usize) -> Op<char, D> {
        let op = self.doc.local_delete(index).unwrap();
        self.apply(&op);
        op
    }

    /// Mirrors an op the document already applied.
    fn apply(&mut self, op: &Op<char, D>) {
        let removed = self.reference.apply(op);
        let rev = self.reference.rev;
        match op {
            Op::Insert { id, atom } => self.run.insert(id, *atom, rev).unwrap(),
            Op::Delete { id } => {
                let run_removed = self.run.delete(id, rev).unwrap();
                assert_eq!(run_removed, removed, "delete result at {:?}", id.repr());
            }
        }
    }

    /// Flattens the whole document in all three, which must report the same
    /// outcome.
    fn flatten_all(&mut self) {
        let tree = flatten_subtree(&mut self.reference.tree, &[]).unwrap();
        self.reference.tree.rebuild_counts();
        assert!(matches!(tree, FlattenOutcome::Flattened { .. }));
        assert_eq!(self.run.flatten_region(&[]).unwrap(), tree);
        assert_eq!(self.doc.flatten_all().unwrap(), tree);
    }

    fn assert_parity(&self) {
        let strip = |cells: Vec<(PosId<D>, Content<char>, u64)>| {
            cells
                .into_iter()
                .map(|(id, c, _)| (id, c))
                .collect::<Vec<_>>()
        };
        let tree_cells = strip(self.reference.tree.collect_cells());
        assert_eq!(strip(self.run.collect_cells()), tree_cells, "run cells");
        assert_eq!(strip(self.doc.store().collect_cells()), tree_cells);
        assert_eq!(self.run.stats(), measure(&self.reference.tree), "stats");
        self.run.check_invariants().unwrap();
        assert_matches_reference(&self.doc, &self.reference);
    }
}

/// The seeded generator of the scripted schedules below.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn bursts<D: Disambiguator + HasSource>() {
    let mut append = Mirror::<D>::new(1);
    for (i, c) in ('a'..='z').cycle().take(500).enumerate() {
        append.insert(i, c);
    }
    append.assert_parity();
    let mut prepend = Mirror::<D>::new(1);
    for c in ('a'..='z').cycle().take(300) {
        prepend.insert(0, c);
    }
    prepend.assert_parity();
    // Interior edits split the append burst's run.
    append.insert(250, 'X');
    append.insert(125, 'Y');
    append.delete(10);
    append.delete(300);
    append.assert_parity();
}

#[test]
fn bursts_match_per_atom_reference() {
    bursts::<Udis>();
    bursts::<Sdis>();
}

/// 60% inserts and 40% deletes at random positions, checked every 97 steps
/// and at the end.
fn random_edits<D: Disambiguator + HasSource>(site: u64, ops: usize) {
    let mut m = Mirror::<D>::new(site);
    let mut rng = 0x5eed_0000 + site;
    for step in 0..ops {
        let len = m.doc.len();
        let roll = lcg(&mut rng) % 100;
        if len == 0 || roll < 60 {
            let at = (lcg(&mut rng) as usize) % (len + 1);
            let c = char::from(b'a' + (lcg(&mut rng) % 26) as u8);
            m.insert(at, c);
        } else {
            let at = (lcg(&mut rng) as usize) % len;
            m.delete(at);
        }
        if step % 97 == 0 {
            m.assert_parity();
        }
    }
    m.assert_parity();
}

#[test]
fn random_edits_match_per_atom_reference() {
    random_edits::<Udis>(2, 900);
    random_edits::<Sdis>(3, 900);
}

/// 200 random edits (65% inserts), a flatten of the whole document, then
/// 100 more edits into the exploded tree.
fn flatten_at_root<D: Disambiguator + HasSource>() {
    for seed in 0..4u64 {
        let mut m = Mirror::<D>::new(seed + 10);
        let mut rng = seed;
        let mut edit = |m: &mut Mirror<D>| {
            let len = m.doc.len();
            if len == 0 || lcg(&mut rng) % 100 < 65 {
                let at = (lcg(&mut rng) as usize) % (len + 1);
                m.insert(at, 'x');
            } else {
                m.delete((lcg(&mut rng) as usize) % len);
            }
        };
        for _ in 0..200 {
            edit(&mut m);
        }
        m.flatten_all();
        m.assert_parity();
        for _ in 0..100 {
            edit(&mut m);
        }
        m.assert_parity();
    }
}

#[test]
fn flatten_at_root_matches_per_atom_reference() {
    flatten_at_root::<Udis>();
    flatten_at_root::<Sdis>();
}

/// Three sites edit concurrently, each round from the same converged
/// document: every site inserts into the same gap (growing mini-nodes),
/// then may delete at random. Site 0 is the mirror; the other sites' ops
/// reach it after the round, and all sites end the round converged.
/// Returns the ghosts seen at the ends of rounds.
fn concurrent_same_gap<D: Disambiguator + HasSource>(seed: u64, rounds: usize) -> usize {
    let mut m = Mirror::<D>::new(1);
    let mut peers: Vec<Treedoc<char, D>> = (2..=3).map(|s| Treedoc::new(site(s))).collect();
    let mut rng = 0xc0c0_0000 + seed;
    let mut ghosts = 0;
    for round in 0..rounds {
        let len = m.doc.len();
        let gap = (lcg(&mut rng) as usize) % (len + 1);
        let mut sent: Vec<Vec<Op<char, D>>> = vec![Vec::new(); 3];
        for (sender, ops) in sent.iter_mut().enumerate() {
            let c = char::from(b'a' + (lcg(&mut rng) % 26) as u8);
            let delete = len > 0 && lcg(&mut rng) % 100 < 45;
            let at = (lcg(&mut rng) as usize) % len.max(1);
            if sender == 0 {
                ops.push(m.insert(gap, c));
                ops.extend(delete.then(|| m.delete(at)));
            } else {
                let peer = &mut peers[sender - 1];
                ops.push(peer.local_insert(gap, c).unwrap());
                ops.extend(delete.then(|| peer.local_delete(at).unwrap()));
            }
        }
        for (sender, op) in sent
            .iter()
            .enumerate()
            .flat_map(|(s, ops)| ops.iter().map(move |op| (s, op)))
        {
            if sender != 0 {
                m.doc.apply(op).unwrap();
                m.apply(op);
            }
            for (p, peer) in peers.iter_mut().enumerate() {
                if p + 1 != sender {
                    peer.apply(op).unwrap();
                }
            }
        }
        for peer in &peers {
            assert_eq!(peer.merkle_digest(), m.doc.merkle_digest(), "round {round}");
        }
        ghosts += m.run.stats().ghosts;
        if round % 23 == 0 {
            m.assert_parity();
        }
    }
    m.assert_parity();
    ghosts
}

#[test]
fn concurrent_same_gap_inserts_match_per_atom_reference() {
    let ghosts: usize = (0..3)
        .map(|seed| concurrent_same_gap::<Udis>(seed, 300))
        .sum();
    assert!(ghosts > 0, "the schedule never made a UDIS ghost");
    for seed in 0..3 {
        concurrent_same_gap::<Sdis>(seed, 300);
    }
}

/// Each round one site types a burst at a random cursor and every site
/// hears it; then two or three sites, from the same converged document,
/// backspace over the burst's last atom (sometimes twice) and type into the
/// gap before hearing of each other — the same dead cell under every
/// keystroke. Site 0 is the mirror. Returns how many keystrokes continued a
/// spine past a deleted cell.
fn concurrent_backspaces<D: Disambiguator + HasSource>(seed: u64, rounds: usize) -> usize {
    let mut m = Mirror::<D>::new(1);
    let mut peers: Vec<Treedoc<char, D>> = (2..=3).map(|s| Treedoc::new(site(s))).collect();
    let mut rng = 0xbac5_0000 + seed;
    let mut continued = 0;
    let key = |rng: &mut u64| char::from(b'a' + (lcg(rng) % 26) as u8);
    for round in 0..rounds {
        let mut sent: Vec<Vec<Op<char, D>>> = vec![Vec::new(); 3];
        // The burst.
        let typist = (lcg(&mut rng) % 3) as usize;
        let start = (lcg(&mut rng) as usize) % (m.doc.len() + 1);
        let burst = 2 + (lcg(&mut rng) % 6) as usize;
        for k in 0..burst {
            let c = key(&mut rng);
            sent[typist].push(match typist {
                0 => m.insert(start + k, c),
                p => peers[p - 1].local_insert(start + k, c).unwrap(),
            });
        }
        exchange(&mut m, &mut peers, &mut sent);
        // The concurrent backspaces at the burst's end.
        let cursor = start + burst;
        let writers = 2 + (lcg(&mut rng) % 2) as usize;
        let first = (lcg(&mut rng) % 3) as usize;
        for w in (0..writers).map(|w| (first + w) % 3) {
            let back = 1 + usize::from(lcg(&mut rng) % 4 == 0);
            let keys = 1 + (lcg(&mut rng) % 3) as usize;
            for b in 1..=back {
                sent[w].push(match w {
                    0 => m.delete(cursor - b),
                    p => peers[p - 1].local_delete(cursor - b).unwrap(),
                });
            }
            let deleted = sent[w].last().unwrap().id().clone();
            for k in 0..keys {
                let c = key(&mut rng);
                let op = match w {
                    0 => m.insert(cursor - back + k, c),
                    p => peers[p - 1].local_insert(cursor - back + k, c).unwrap(),
                };
                if k == 0 && spine_step(&deleted, op.id()).is_some() {
                    continued += 1;
                }
                sent[w].push(op);
            }
        }
        exchange(&mut m, &mut peers, &mut sent);
        for peer in &peers {
            assert_eq!(peer.merkle_digest(), m.doc.merkle_digest(), "round {round}");
        }
        if round % 17 == 0 {
            m.assert_parity();
        }
    }
    m.assert_parity();
    continued
}

/// Delivers every op in `sent` (per sender) to every other site, sender by
/// sender, and empties it.
fn exchange<D: Disambiguator + HasSource>(
    m: &mut Mirror<D>,
    peers: &mut [Treedoc<char, D>],
    sent: &mut [Vec<Op<char, D>>],
) {
    for (sender, ops) in sent.iter_mut().enumerate() {
        for op in ops.drain(..) {
            if sender != 0 {
                m.doc.apply(&op).unwrap();
                m.apply(&op);
            }
            for (p, peer) in peers.iter_mut().enumerate() {
                if p + 1 != sender {
                    peer.apply(&op).unwrap();
                }
            }
        }
    }
}

#[test]
fn concurrent_backspaces_over_one_dead_cell_match_per_atom_reference() {
    let continued: usize = (0..3)
        .map(|seed| concurrent_backspaces::<Sdis>(seed, 150))
        .sum();
    assert!(continued > 0, "no keystroke continued past a tombstone");
    for seed in 0..3 {
        concurrent_backspaces::<Udis>(seed, 150);
    }
}

#[derive(Debug, Clone)]
enum Edit {
    Insert(usize, char),
    Delete(usize),
}

fn arb_edits(n: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<usize>(), proptest::char::range('a', 'z')).prop_map(|(i, c)| Edit::Insert(i, c)),
            any::<usize>().prop_map(Edit::Delete),
        ],
        0..60,
    )
    .prop_map(move |mut edits| {
        edits.truncate(n);
        edits
    })
}

fn apply_edits(doc: &mut SDoc, edits: &[Edit]) -> Vec<SOp> {
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

/// Rewrites every identifier in an op stream through `f`, leaving the
/// operations otherwise untouched. Used to rebuild the same schedule with
/// identifiers from a different construction route (the reference vector)
/// and pin that the route is observably invisible.
fn map_ids(ops: &[SOp], mut f: impl FnMut(&PosId<Sdis>) -> PosId<Sdis>) -> Vec<SOp> {
    ops.iter()
        .map(|op| match op {
            Op::Insert { id, atom } => Op::Insert {
                id: f(id),
                atom: *atom,
            },
            Op::Delete { id } => Op::Delete { id: f(id) },
        })
        .collect()
}

/// Stamps `ops` the way a replica would: one sender, own component
/// incremented per op.
fn stamp(sender: SiteId, ops: &[SOp]) -> Vec<CausalMessage<SOp>> {
    let mut clock = VectorClock::new();
    ops.iter()
        .map(|op| {
            clock.increment(sender);
            CausalMessage {
                sender,
                clock: clock.clone(),
                payload: op.clone(),
            }
        })
        .collect()
}

proptest! {
    /// A random local edit script leaves the run-coalesced store and the
    /// per-atom reference observably identical, and a second run-coalesced
    /// replica replaying the ops remotely agrees with both.
    #[test]
    fn local_edits_match_per_atom_reference(edits in arb_edits(60)) {
        let mut doc = SDoc::new(site(1));
        let mut reference = Reference::new();
        let mut remote = SDoc::new(site(2));

        let ops = apply_edits(&mut doc, &edits);
        for op in &ops {
            reference.apply(op);
            remote.apply(op).unwrap();
        }

        assert_matches_reference(&doc, &reference);
        assert_matches_reference(&remote, &reference);
        prop_assert_eq!(doc.digest(), remote.digest());
    }

    /// The operation stream of a run-coalesced session survives the wire
    /// bit-exactly: encode → decode → re-encode is the identity on bytes,
    /// and the decoded operations drive the per-atom reference to the same
    /// document.
    #[test]
    fn wire_bytes_are_canonical_and_lossless(edits in arb_edits(50)) {
        let mut doc = SDoc::new(site(1));
        let ops = apply_edits(&mut doc, &edits);
        let entries: Vec<(u64, CausalMessage<SOp>)> =
            stamp(site(1), &ops).into_iter().map(|m| (0, m)).collect();
        let envelope = Envelope::OpBatch(OpBatch { entries: entries.clone() });

        let bytes = encode_envelope(&envelope);
        let decoded: Envelope<SOp> = decode_envelope(&bytes).unwrap();
        prop_assert_eq!(&encode_envelope(&decoded), &bytes, "re-encode changed bytes");
        let Envelope::OpBatch(batch) = decoded else { panic!("batch decodes as batch") };
        prop_assert_eq!(&batch.entries, &entries);

        let mut reference = Reference::new();
        let mut replica = SDoc::new(site(2));
        for (_, msg) in &batch.entries {
            reference.apply(&msg.payload);
            replica.apply(&msg.payload).unwrap();
        }
        assert_matches_reference(&replica, &reference);
        prop_assert_eq!(replica.to_vec(), doc.to_vec());
    }

    /// Two sites edit concurrently; their stamped histories are scrambled
    /// into a duplicating, fully shuffled delivery schedule by the testkit.
    /// Delivered through the causal buffer, the run-coalesced replica and
    /// the per-atom reference still agree — and match an in-order replica.
    #[test]
    fn faulty_delivery_matches_per_atom_reference(
        edits_a in arb_edits(25),
        edits_b in arb_edits(25),
        seed in any::<u64>(),
    ) {
        let seed_doc: Vec<char> = "common ground".chars().collect();
        let mut a = SDoc::from_atoms(site(1), &seed_doc);
        let mut b = SDoc::from_atoms(site(2), &seed_doc);
        let mut history = stamp(site(1), &apply_edits(&mut a, &edits_a));
        history.extend(stamp(site(2), &apply_edits(&mut b, &edits_b)));

        // No drops (nothing retransmits here), 30% duplicates, full shuffle.
        let schedule = faulty_schedule(&history, seed, 0.0, 0.3);

        let mut doc = SDoc::from_atoms(site(3), &seed_doc);
        let mut reference = Reference::new();
        for (id, atom) in doc.to_identified_vec() {
            reference.rev += 1;
            let rev = reference.rev;
            reference.tree.insert(&id, atom, rev).unwrap();
        }
        let mut buffer: CausalBuffer<SOp> = CausalBuffer::new();
        for msg in schedule {
            for delivered in buffer.receive(msg) {
                doc.apply(&delivered.payload).unwrap();
                reference.apply(&delivered.payload);
            }
        }

        prop_assert_eq!(buffer.pending_len(), 0, "hold-back queue must drain");
        assert_matches_reference(&doc, &reference);

        // An in-order replica sees the same document (delivery order is
        // invisible), so the digest ties all three representations together.
        let mut in_order = SDoc::from_atoms(site(4), &seed_doc);
        for msg in &history {
            in_order.apply(&msg.payload).unwrap();
        }
        prop_assert_eq!(doc.digest(), in_order.digest());
    }

    /// The incremental merkle digest cached in the `RunTree` aggregates
    /// equals a from-scratch rehash of the cell stream at every point of a
    /// random edit/flatten schedule — flattening rewrites every identifier,
    /// so it exercises the digest maintenance far harder than edits alone.
    #[test]
    fn incremental_digest_equals_rehash_under_edits_and_flattens(
        schedule in proptest::collection::vec((arb_edits(15), any::<bool>()), 1..5),
    ) {
        let mut doc = SDoc::new(site(1));
        for (edits, flatten) in &schedule {
            apply_edits(&mut doc, edits);
            prop_assert_eq!(doc.store().digest(), rehash(&doc));
            if *flatten && !doc.is_empty() {
                doc.flatten_all().unwrap();
                prop_assert_eq!(doc.store().digest(), rehash(&doc));
            }
        }
    }

    /// Digest equality ⇔ identical wire bytes: a replica that applied the
    /// same operations reports the same digest and encodes the same cell
    /// stream bit-for-bit; a replica missing a suffix disagrees on both.
    /// The digest is a sound and (collision-aside) complete stand-in for
    /// comparing full states on the wire.
    #[test]
    fn digest_equality_iff_identical_state_bytes(
        edits in arb_edits(40),
        dropped in any::<usize>(),
    ) {
        let seed_doc: Vec<char> = "common ground".chars().collect();
        let mut doc = SDoc::from_atoms(site(1), &seed_doc);
        let ops = apply_edits(&mut doc, &edits);

        // Full replay: digests agree and so do the encoded state bytes.
        let mut full = SDoc::from_atoms(site(2), &seed_doc);
        for op in &ops {
            full.apply(op).unwrap();
        }
        prop_assert_eq!(doc.store().digest(), full.store().digest());
        prop_assert_eq!(state_bytes(&doc), state_bytes(&full));

        // Partial replay: a causally closed prefix. SDIS keeps tombstones,
        // so every missing insert or delete leaves a visible hole in the
        // cell set — digest and bytes must both notice, together.
        let kept = if ops.is_empty() { 0 } else { dropped % ops.len() };
        let mut partial = SDoc::from_atoms(site(3), &seed_doc);
        for op in &ops[..kept] {
            partial.apply(op).unwrap();
        }
        let digests_agree = partial.store().digest() == doc.store().digest();
        let bytes_agree = state_bytes(&partial) == state_bytes(&doc);
        prop_assert_eq!(digests_agree, bytes_agree);
        prop_assert_eq!(digests_agree, kept == ops.len());

        // Flattening both full copies rewrites every identifier the same
        // canonical way, so equality of digest and bytes survives it.
        if !doc.is_empty() {
            doc.flatten_all().unwrap();
            full.flatten_all().unwrap();
            prop_assert_eq!(doc.store().digest(), rehash(&doc));
            prop_assert_eq!(doc.store().digest(), full.store().digest());
            prop_assert_eq!(state_bytes(&doc), state_bytes(&full));
        }
    }

    /// The chunked, structurally shared identifiers produced by a real edit
    /// schedule order exactly as the owned `Vec<PathElem>` reference
    /// representation orders them — pairwise across the whole document.
    /// Document order is strictly increasing under both.
    #[test]
    fn id_total_order_matches_vec_reference(edits in arb_edits(40)) {
        let mut doc = SDoc::new(site(1));
        apply_edits(&mut doc, &edits);
        let ids: Vec<_> = doc
            .to_identified_vec()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let refs: Vec<RefPosId<Sdis>> = ids.iter().map(RefPosId::from_pos_id).collect();

        for (i, (a, ra)) in ids.iter().zip(&refs).enumerate() {
            for (j, (b, rb)) in ids.iter().zip(&refs).enumerate() {
                prop_assert_eq!(
                    a.cmp(b), ra.cmp(rb),
                    "chunked order diverged from reference at ({}, {})", i, j
                );
            }
        }
        // Live identifiers in document order are strictly increasing, so the
        // agreement above pins the total order the document actually uses.
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// The identifier representation never reaches the wire: an op stream
    /// whose identifiers were rebuilt element-by-element from the reference
    /// vector (fresh chains, zero structural sharing) encodes to the exact
    /// same envelope bytes as the original chunk-shared stream.
    #[test]
    fn wire_bytes_identical_across_id_representations(edits in arb_edits(40)) {
        let mut doc = SDoc::new(site(1));
        let ops = apply_edits(&mut doc, &edits);
        let encode = |ops: &[SOp]| {
            let entries: Vec<(u64, CausalMessage<SOp>)> =
                stamp(site(1), ops).into_iter().map(|m| (0, m)).collect();
            encode_envelope(&Envelope::OpBatch(OpBatch { entries }))
        };
        let bytes = encode(&ops);

        let rebuilt = map_ids(&ops, |id| RefPosId::from_pos_id(id).to_pos_id());
        prop_assert_eq!(&encode(&rebuilt), &bytes, "reference-built ids changed the wire");

        let decoded: Envelope<SOp> = decode_envelope(&bytes).unwrap();
        prop_assert_eq!(&encode_envelope(&decoded), &bytes, "re-encode changed bytes");
    }

    /// Replaying the same schedule with identifiers from each construction
    /// route — chunk-shared originals and reference-vector rebuilds — yields
    /// replicas with identical content, identical `RunTree` digests and
    /// identical canonical state bytes.
    #[test]
    fn digests_identical_across_id_representations(edits in arb_edits(40)) {
        let mut doc = SDoc::new(site(1));
        let ops = apply_edits(&mut doc, &edits);

        let mut via_reference = SDoc::new(site(2));
        for op in map_ids(&ops, |id| RefPosId::from_pos_id(id).to_pos_id()) {
            via_reference.apply(&op).unwrap();
        }

        prop_assert_eq!(via_reference.to_vec(), doc.to_vec());
        prop_assert_eq!(doc.digest(), via_reference.digest());
        prop_assert_eq!(doc.store().digest(), rehash(&via_reference));
        prop_assert_eq!(state_bytes(&via_reference), state_bytes(&doc));
    }
}

/// From-scratch reference rehash: fold every stored cell (with its
/// materialised identifier) through the same polynomial the cached
/// aggregates maintain incrementally — see `treedoc_core::hash`.
fn rehash(doc: &SDoc) -> u64 {
    doc.store()
        .cells_in_range(None, None)
        .iter()
        .fold(0u64, |digest, (id, content)| {
            digest
                .wrapping_mul(DIGEST_BASE)
                .wrapping_add(cell_hash(id, content))
        })
}

/// Canonical state bytes: the full cell stream through the sync wire codec
/// (the exact bytes a `SyncRuns` leaf exchange would carry).
fn state_bytes(doc: &SDoc) -> Vec<u8> {
    encode_cells(&doc.store().cells_in_range(None, None))
}

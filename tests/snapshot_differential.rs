//! Differential test of the one document representation: over random
//! three-site schedules, the run store's snapshot, flatten vote and
//! cold-region search agree with the per-atom `Tree` oracle of
//! `treedoc-reference`.
//!
//! A schedule mixes typing at a cursor, bursts at random cursors, three
//! sites inserting concurrently into the same gap (mini-nodes), deletes
//! (SDIS tombstones, UDIS discards), local revision bumps, a flatten of the
//! cold regions mid-stream and crashes recovered from the sites' stores. A
//! second schedule has two or three sites backspace over the same atom and
//! type into its gap concurrently, round after round. At every check, for
//! every site:
//!
//! * the cell-stream snapshot round trip gives the same cells, run count
//!   and merkle digest as the §5.2 disk-image round trip it replaces, and
//!   its `doc.cells` section is no larger than the old `tree.structure` +
//!   `tree.atoms` sections;
//! * `flatten_vote` answers every probed region and base revision as the
//!   oracle's subtree lookup and `hot_rev` rule do (revisions are local);
//! * the cold regions and `flatten_cold` outcomes equal the oracle's, and
//!   the flattened cells equal the oracle's flattened tree.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treedoc_reference::{flatten_subtree, measure, DiskImage, Tree};
use treedoc_repro::core::{Content, HasSource, PosId, RunTree, Side};
use treedoc_repro::prelude::*;
use treedoc_repro::replication::persist::SECTION_CELLS;
use treedoc_repro::replication::{FlattenDocument, ReplicatedDocument};
use treedoc_repro::storage::Snapshot;

const SITES: usize = 3;

type Doc<D> = Treedoc<String, D>;

struct Sites<D: WireDis + HasSource> {
    replicas: Vec<Replica<Doc<D>>>,
    stores: Vec<SharedBackend>,
    /// Messages in flight, per recipient.
    inbox: Vec<VecDeque<CausalMessage<Op<String, D>>>>,
    cursors: Vec<usize>,
    atoms: usize,
    /// Counts every replica, recovered ones included.
    registry: Registry,
}

impl<D> Sites<D>
where
    D: WireDis + HasSource,
    Doc<D>: PersistentDocument + FlattenDocument + ReplicatedDocument<Op = Op<String, D>>,
{
    fn new() -> Self {
        let stores: Vec<SharedBackend> = (0..SITES).map(|_| SharedBackend::in_memory()).collect();
        let registry = Registry::new();
        let replicas = stores
            .iter()
            .enumerate()
            .map(|(i, disk)| {
                let site = SiteId::from_u64(i as u64 + 1);
                let mut replica = Replica::new(site, Doc::<D>::new(site));
                replica.set_telemetry(&registry.handle());
                replica
                    .attach_store(DocStore::new(disk.clone()).unwrap())
                    .unwrap();
                replica
            })
            .collect();
        Sites {
            replicas,
            stores,
            inbox: vec![VecDeque::new(); SITES],
            cursors: vec![0; SITES],
            atoms: 0,
            registry,
        }
    }

    fn doc(&self, site: usize) -> &Doc<D> {
        self.replicas[site].doc()
    }

    fn broadcast(&mut self, from: usize, op: Op<String, D>) {
        let msg = self.replicas[from].stamp(op);
        for to in (0..SITES).filter(|&to| to != from) {
            self.inbox[to].push_back(msg.clone());
        }
    }

    /// `site` types `keys` keystrokes at its cursor, sometimes a backspace.
    fn type_at_cursor(&mut self, rng: &mut StdRng, site: usize, keys: usize) {
        for _ in 0..keys {
            let len = self.doc(site).len();
            let cursor = self.cursors[site].min(len);
            let op = if cursor > 0 && rng.gen_bool(0.15) {
                self.cursors[site] = cursor - 1;
                self.replicas[site].doc_mut().local_delete(cursor - 1)
            } else {
                self.atoms += 1;
                self.cursors[site] = cursor + 1;
                let atom = format!("{site}.{}", self.atoms);
                self.replicas[site].doc_mut().local_insert(cursor, atom)
            };
            self.broadcast(site, op.unwrap());
        }
    }

    /// Delivers up to `n` in-flight messages, in random order.
    fn deliver(&mut self, rng: &mut StdRng, n: usize) {
        for _ in 0..n {
            let to = rng.gen_range(0..SITES);
            if self.inbox[to].is_empty() {
                continue;
            }
            let at = rng.gen_range(0..self.inbox[to].len());
            let msg = self.inbox[to].remove(at).unwrap();
            self.replicas[to].receive(msg);
        }
    }

    fn settle(&mut self) {
        for to in 0..SITES {
            while let Some(msg) = self.inbox[to].pop_front() {
                self.replicas[to].receive(msg);
            }
        }
        let digest = self.replicas[0].digest();
        for replica in &self.replicas {
            assert_eq!(replica.pending(), 0);
            assert_eq!(replica.digest(), digest);
        }
        let skipped = self.registry.snapshot().counter("replica.replays_skipped");
        assert_eq!(skipped, Some(0));
    }

    /// All three sites insert into the same gap before hearing of each
    /// other: the gap's position gets mini-nodes.
    fn concurrent_gap(&mut self, rng: &mut StdRng) {
        self.settle();
        let at = rng.gen_range(0..=self.doc(0).len());
        for site in 0..SITES {
            self.cursors[site] = at;
            let keys = rng.gen_range(1..3);
            self.type_at_cursor(rng, site, keys);
        }
    }

    /// One site types a burst at a random cursor and every site hears it;
    /// then two or three sites backspace over the burst's last atom
    /// (sometimes twice) and type into the gap before hearing of each
    /// other: the same dead cell under every keystroke.
    fn concurrent_backspaces(&mut self, rng: &mut StdRng) {
        self.settle();
        let typist = rng.gen_range(0..SITES);
        let start = rng.gen_range(0..=self.doc(typist).len());
        let burst = rng.gen_range(2..8);
        for k in 0..burst {
            self.insert(typist, start + k);
        }
        self.settle();
        let cursor = start + burst;
        let first = rng.gen_range(0..SITES);
        for site in (0..rng.gen_range(2..=SITES)).map(|w| (first + w) % SITES) {
            let back = if rng.gen_bool(0.25) { 2 } else { 1 };
            for b in 1..=back {
                let op = self.replicas[site].doc_mut().local_delete(cursor - b);
                self.broadcast(site, op.unwrap());
            }
            for k in 0..rng.gen_range(1..4) {
                self.insert(site, cursor - back + k);
            }
        }
    }

    /// `site` inserts a fresh atom at `index`.
    fn insert(&mut self, site: usize, index: usize) {
        self.atoms += 1;
        let atom = format!("{site}.{}", self.atoms);
        let op = self.replicas[site].doc_mut().local_insert(index, atom);
        self.broadcast(site, op.unwrap());
    }

    /// Site 0 types a few keys in a fresh revision, then every site
    /// flattens site 0's cold regions — the rest of the document — (the
    /// documents are identical after the settle) and checkpoints, so
    /// recovery starts past it. Returns how many regions were flattened.
    fn flatten_cold(&mut self, rng: &mut StdRng) -> usize {
        self.settle();
        let threshold = self.replicas[0].doc_mut().next_revision() - 1;
        self.cursors[0] = rng.gen_range(0..=self.doc(0).len());
        self.type_at_cursor(rng, 0, 3);
        self.settle();
        let regions = self.doc(0).store().cold_regions(threshold, 2);
        self.replicas[0].doc_mut().flatten_cold(threshold, 2);
        for site in 1..SITES {
            for bits in &regions {
                self.replicas[site].doc_mut().flatten(bits).unwrap();
            }
        }
        self.settle();
        for replica in &mut self.replicas {
            replica.persist_checkpoint().unwrap();
        }
        regions.len()
    }

    fn crash(&mut self, site: usize) {
        let digest = self.replicas[site].digest();
        drop(self.replicas[site].detach_store());
        let store = DocStore::new(self.stores[site].clone()).unwrap();
        let (mut recovered, _) = Replica::<Doc<D>>::recover(store).unwrap();
        recovered.set_telemetry(&self.registry.handle());
        assert_eq!(
            recovered.digest(),
            digest,
            "site {site} recovered another state"
        );
        self.replicas[site] = recovered;
    }
}

/// The new snapshot round trip against the old disk-image one.
fn check_snapshot<D>(doc: &Doc<D>)
where
    D: WireDis + HasSource,
    Doc<D>: PersistentDocument,
{
    let mut snapshot = Snapshot::new();
    doc.encode_sections(&mut snapshot);
    let new = Doc::<D>::decode_sections(&snapshot).unwrap();
    let tree = Tree::of_doc(doc);
    assert_eq!(measure(&tree), doc.stats());
    let image = DiskImage::encode(&tree);
    let old = RunTree::from_cells(image.decode::<D>().unwrap().collect_cells());
    assert_eq!(new.store().collect_cells(), old.collect_cells());
    assert_eq!(new.store().run_count(), old.run_count());
    assert_eq!(new.merkle_digest(), old.digest());
    assert_eq!(new.merkle_digest(), doc.merkle_digest());
    let atoms = serde_json::to_string(&image.atoms).unwrap().len();
    let cells = snapshot.section(SECTION_CELLS).unwrap().len();
    assert!(
        cells <= image.structure.len() + atoms,
        "doc.cells {cells} B > structure {} B + atoms {atoms} B",
        image.structure.len()
    );
}

/// `flatten_vote` against the oracle's subtree lookup and `hot_rev` rule,
/// on random plain paths and on paths along stored identifiers. Returns
/// the number of Yes votes.
fn check_votes<D>(rng: &mut StdRng, doc: &Doc<D>) -> usize
where
    D: WireDis + HasSource,
    Doc<D>: FlattenDocument,
{
    let tree = Tree::of_doc(doc);
    let cells = doc.store().collect_cells();
    let mut yes = 0;
    for txn in 0..24 {
        let subtree: Vec<Side> = match cells.len() {
            n if n > 0 && txn % 2 == 0 => {
                let id = &cells[rng.gen_range(0..n)].0;
                let sides: Vec<Side> = id.elems().iter().map(|e| e.side).collect();
                sides[..rng.gen_range(0..=sides.len())].to_vec()
            }
            _ => (0..rng.gen_range(0..6))
                .map(|_| Side::from_bit(rng.gen_range(0..2)))
                .collect(),
        };
        let base_revision = rng.gen_range(0..=doc.revision() + 1);
        let expect = match tree.subtree(&subtree) {
            Some(node) if node.hot_rev() <= base_revision => Vote::Yes,
            _ => Vote::No,
        };
        let proposal = FlattenProposal {
            proposer: SiteId::from_u64(9),
            subtree,
            base_revision,
            txn,
        };
        assert_eq!(doc.flatten_vote(&proposal), expect, "{proposal:?}");
        yes += usize::from(expect == Vote::Yes);
    }
    yes
}

/// The cold-region search and `flatten_cold` against the oracle, on a
/// copy of the document. Returns the number of cold regions found.
fn check_cold<D>(doc: &Doc<D>) -> usize
where
    D: WireDis + HasSource,
{
    let mut found = 0;
    for threshold in 0..=doc.revision() {
        for min_live in [0, 1, 2, 5] {
            let mut tree = Tree::of_doc(doc);
            let regions = tree.find_cold_subtrees(threshold, min_live);
            assert_eq!(
                doc.store().cold_regions(threshold, min_live),
                regions,
                "threshold {threshold}, min_live {min_live}"
            );
            found += regions.len();
            let mut flattened = doc.clone();
            let outcomes = flattened.flatten_cold(threshold, min_live);
            let expect: Vec<_> = regions
                .iter()
                .map(|bits| flatten_subtree(&mut tree, bits).unwrap())
                .collect();
            assert_eq!(outcomes, expect);
            let strip = |cells: Vec<(PosId<D>, Content<String>, u64)>| {
                cells
                    .into_iter()
                    .map(|(id, c, _)| (id, c))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                strip(flattened.store().collect_cells()),
                strip(tree.collect_cells())
            );
        }
    }
    found
}

fn schedule<D>(seed: u64)
where
    D: WireDis + HasSource,
    Doc<D>: PersistentDocument + FlattenDocument + ReplicatedDocument<Op = Op<String, D>>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = Sites::<D>::new();
    let rounds = 120;
    let (mut yes, mut cold, mut flattened) = (0, 0, 0);
    for round in 0..rounds {
        let site = rng.gen_range(0..SITES);
        match rng.gen_range(0..10) {
            0..=3 => {
                let keys = rng.gen_range(1..8);
                sites.type_at_cursor(&mut rng, site, keys);
            }
            4 | 5 => {
                sites.cursors[site] = rng.gen_range(0..=sites.doc(site).len());
                let keys = rng.gen_range(1..5);
                sites.type_at_cursor(&mut rng, site, keys);
            }
            6 => sites.concurrent_gap(&mut rng),
            7 => {
                sites.replicas[site].doc_mut().next_revision();
            }
            8 => sites.crash(site),
            _ => {
                let n = rng.gen_range(1..12);
                sites.deliver(&mut rng, n);
            }
        }
        if round == rounds / 2 {
            flattened = sites.flatten_cold(&mut rng);
        }
        if round % 15 == 14 {
            for site in 0..SITES {
                check_snapshot(sites.doc(site));
                yes += check_votes(&mut rng, sites.doc(site));
                cold += check_cold(sites.doc(site));
            }
        }
    }
    assert!(
        yes > 0 && cold > 0,
        "seed {seed}: {yes} Yes votes, {cold} cold regions"
    );
    assert!(
        flattened > 0,
        "seed {seed}: the mid-stream flatten found no cold region"
    );
    sites.settle();
    for site in 0..SITES {
        sites.crash(site);
        check_snapshot(sites.doc(site));
    }
}

/// Rounds of concurrent backspaces over one dead cell, delivered in
/// random order, with crashes; every site's snapshot is checked against
/// the oracle, and the sites end digest-equal.
fn backspace_schedule<D>(seed: u64)
where
    D: WireDis + HasSource,
    Doc<D>: PersistentDocument + FlattenDocument + ReplicatedDocument<Op = Op<String, D>>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = Sites::<D>::new();
    for round in 0..60 {
        sites.concurrent_backspaces(&mut rng);
        let n = rng.gen_range(1..12);
        sites.deliver(&mut rng, n);
        if round % 7 == 6 {
            sites.crash(rng.gen_range(0..SITES));
        }
        if round % 10 == 9 {
            for site in 0..SITES {
                check_snapshot(sites.doc(site));
            }
        }
    }
    sites.settle();
    for site in 0..SITES {
        sites.crash(site);
        check_snapshot(sites.doc(site));
    }
}

#[test]
fn concurrent_backspaces_over_one_dead_cell_snapshot_like_the_tree_oracle() {
    for seed in [11, 12] {
        backspace_schedule::<Sdis>(seed);
    }
    backspace_schedule::<Udis>(13);
}

#[test]
fn sdis_snapshots_votes_and_cold_regions_match_the_tree_oracle() {
    for seed in [1, 2, 3, 4] {
        schedule::<Sdis>(seed);
    }
}

#[test]
fn udis_snapshots_votes_and_cold_regions_match_the_tree_oracle() {
    for seed in [5, 6, 7] {
        schedule::<Udis>(seed);
    }
}

//! Property tests for the §5.2 disk image: encode→decode round-trips over
//! randomly edited trees, including documents whose concurrent edits force
//! mini-node overflow sections, and corruption never panics.

use proptest::prelude::*;
use treedoc_core::{Sdis, SiteId, Treedoc, Udis};
use treedoc_reference::{rle_compress, rle_decompress, DiskImage, Tree};

fn site(n: u64) -> SiteId {
    SiteId::from_u64(n)
}

/// Builds two replicas from a random script of interleaved local edits with
/// periodic cross-synchronisation. Concurrent inserts at the same index
/// between syncs produce mini-siblings; inserts *between* mini-siblings
/// produce the mini-namespace subtrees of the overflow section.
fn edited_doc(script: &[(u8, u8, u16)]) -> Treedoc<String, Sdis> {
    let mut a: Treedoc<String, Sdis> = Treedoc::new(site(1));
    let mut b: Treedoc<String, Sdis> = Treedoc::new(site(2));
    let mut a_outbox = Vec::new();
    let mut b_outbox = Vec::new();
    for (k, &(who, action, pos)) in script.iter().enumerate() {
        let (doc, outbox) = if who % 2 == 0 {
            (&mut a, &mut a_outbox)
        } else {
            (&mut b, &mut b_outbox)
        };
        let len = doc.len();
        if action % 4 == 0 && len > 0 {
            outbox.push(doc.local_delete(pos as usize % len).expect("in range"));
        } else {
            let idx = pos as usize % (len + 1);
            outbox.push(
                doc.local_insert(idx, format!("atom {k}"))
                    .expect("in range"),
            );
        }
        // Every few steps the replicas exchange everything, so later inserts
        // land between merged (possibly mini-) nodes.
        if action % 5 == 0 {
            for op in a_outbox.drain(..) {
                b.apply(&op).expect("concurrent ops merge");
            }
            for op in b_outbox.drain(..) {
                a.apply(&op).expect("concurrent ops merge");
            }
        }
    }
    for op in a_outbox.drain(..) {
        b.apply(&op).expect("concurrent ops merge");
    }
    for op in b_outbox.drain(..) {
        a.apply(&op).expect("concurrent ops merge");
    }
    assert_eq!(a.to_vec(), b.to_vec(), "replicas must converge");
    a
}

/// All slots (bit paths + liveness) of a tree, for exact structural equality.
fn slots(tree: &Tree<String, Sdis>) -> Vec<(Vec<u8>, bool)> {
    let mut out = Vec::new();
    tree.for_each_slot(|s| {
        out.push((
            s.bits.iter().map(|b| b.bit()).collect(),
            s.content.is_live(),
        ));
    });
    out
}

proptest! {
    /// Random concurrently edited documents round-trip exactly — content,
    /// tombstones and structure — including overflow sections.
    #[test]
    fn random_trees_round_trip(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>()),
            1..60,
        ),
    ) {
        let doc = edited_doc(&script);
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back = image.decode::<Sdis>().expect("healthy image decodes");
        prop_assert_eq!(back.to_vec(), doc.to_vec());
        prop_assert_eq!(back.node_count(), doc.node_count());
        prop_assert_eq!(slots(&back), slots(&Tree::of_doc(&doc)));
    }

    /// Documents forced through the mini-node overflow section round-trip.
    #[test]
    fn mini_overflow_sections_round_trip(
        seed_len in 2usize..8,
        wedge in 0u16..500,
    ) {
        let mut a: Treedoc<String, Sdis> = Treedoc::new(site(1));
        let mut b: Treedoc<String, Sdis> = Treedoc::new(site(2));
        let seed: Vec<_> = (0..seed_len)
            .map(|i| a.local_insert(i, format!("s{i}")).expect("in range"))
            .collect();
        for op in &seed {
            b.apply(op).expect("seed applies");
        }
        // Concurrent inserts at the same index: mini-siblings.
        let at = wedge as usize % seed_len;
        let oa = a.local_insert(at, "mini-a".into()).expect("in range");
        let ob = b.local_insert(at, "mini-b".into()).expect("in range");
        a.apply(&ob).expect("concurrent insert merges");
        b.apply(&oa).expect("concurrent insert merges");
        // An insert between the two mini-siblings: mini-namespace subtree.
        let between = a
            .local_insert(at + 1, "between".into())
            .expect("in range");
        b.apply(&between).expect("merges");
        prop_assert_eq!(a.to_vec(), b.to_vec());

        let image = DiskImage::encode(&Tree::of_doc(&a));
        prop_assert!(image.stats.overflow_slots > 0, "the wedge must overflow");
        let back = image.decode::<Sdis>().expect("healthy image decodes");
        prop_assert_eq!(back.to_vec(), a.to_vec());
        prop_assert_eq!(back.node_count(), a.node_count());
    }

    /// UDIS documents (eager deletion, 10-byte disambiguators) round-trip.
    #[test]
    fn udis_trees_round_trip(
        script in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..40),
    ) {
        let mut doc: Treedoc<String, Udis> = Treedoc::new(site(9));
        for (k, &(pos, action)) in script.iter().enumerate() {
            let len = doc.len();
            if action % 3 == 0 && len > 0 {
                doc.local_delete(pos as usize % len).expect("in range");
            } else {
                doc.local_insert(pos as usize % (len + 1), format!("u{k}"))
                    .expect("in range");
            }
        }
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back = image.decode::<Udis>().expect("healthy image decodes");
        prop_assert_eq!(back.to_vec(), doc.to_vec());
        prop_assert_eq!(back.node_count(), doc.node_count());
    }

    /// Truncating the structure stream anywhere never panics: it either
    /// still decodes (the cut fell inside trailing marker runs) or reports a
    /// typed error.
    #[test]
    fn truncated_structures_never_panic(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>()),
            1..30,
        ),
        cut_ppm in 0u32..1_000_000,
    ) {
        let doc = edited_doc(&script);
        let mut image = DiskImage::encode(&Tree::of_doc(&doc));
        let cut = (image.structure.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        image.structure.truncate(cut);
        if let Ok(tree) = image.decode::<Sdis>() {
            // Only acceptable if the cut dropped nothing semantically: the
            // decompressed prefix still reproduced every slot.
            prop_assert_eq!(tree.to_vec(), doc.to_vec());
        }
    }

    /// Corrupting one byte of the decompressed structure never panics.
    #[test]
    fn corrupted_structures_never_panic(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>()),
            1..30,
        ),
        at_ppm in 0u32..1_000_000,
        flip in 1u8..255,
    ) {
        let doc = edited_doc(&script);
        let mut image = DiskImage::encode(&Tree::of_doc(&doc));
        let raw = rle_decompress(&image.structure).expect("fresh image decompresses");
        let mut raw = raw;
        let at = (raw.len() as u64 * at_ppm as u64 / 1_000_000) as usize % raw.len().max(1);
        if !raw.is_empty() {
            raw[at] ^= flip;
        }
        image.structure = rle_compress(&raw);
        let _ = image.decode::<Sdis>(); // must not panic; outcome is free
    }
}

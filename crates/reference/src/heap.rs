//! The breadth-first ("binary heap") on-disk layout.
//!
//! The structure stream lists the tree level by level: the root first, then,
//! for every node present at the previous level, its two child places (a node
//! record or a marker byte). Records carry the node's plain slot, its
//! mini-nodes (disambiguator + atom reference each) and nothing else — atoms
//! themselves live in a separate atom table, as in the paper. Marker runs are
//! compressed with the RLE scheme of [`rle`](crate::rle).
//!
//! Subtrees hanging off a mini-node's private namespace (created by inserts
//! between mini-siblings, Fig. 4 of the paper) cannot be addressed by the
//! positional array; they are serialised in an explicit *overflow* section of
//! `(identifier, content)` records so that round-tripping is always lossless.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use treedoc_core::{Atom, Content, Disambiguator, PathElem, PosId, Side, WireDis};

use crate::node::MajorNode;
use crate::rle::{rle_compress, rle_decompress, MARKER};
use crate::tree::Tree;

/// Why a [`DiskImage`] failed to decode — each variant names the layer that
/// broke, so recovery failures are diagnosable instead of a bare `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The structure stream ends before the layout it promises.
    TruncatedStructure,
    /// The RLE framing of the structure stream is malformed.
    BadRleRun,
    /// A record carries an unknown tag or state byte (or a structurally
    /// impossible slot, e.g. a mini-node on the root).
    BadTag,
    /// A slot references an atom index beyond the atom table.
    DanglingAtomRef,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TruncatedStructure => write!(f, "structure stream is truncated"),
            DecodeError::BadRleRun => write!(f, "structure stream has a malformed RLE run"),
            DecodeError::BadTag => write!(f, "structure stream carries an invalid tag"),
            DecodeError::DanglingAtomRef => write!(f, "slot references a missing atom"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a disambiguator in its fixed-size wire form
/// ([`Disambiguator::ACCOUNTED_BYTES`] bytes: 6 for SDIS, 10 for UDIS, the
/// byte budgets of the paper's evaluation).
fn put_dis<D: WireDis>(out: &mut BytesMut, dis: &D) {
    let mut raw = Vec::with_capacity(D::ACCOUNTED_BYTES);
    dis.encode_dis(&mut raw);
    out.put_slice(&raw);
}

/// Reads a disambiguator written by [`put_dis`].
fn get_dis<D: WireDis>(input: &mut Bytes) -> Option<D> {
    let mut rest = input.chunk();
    let before = rest.len();
    let dis = D::decode_dis(&mut rest)?;
    let used = before - rest.len();
    input.advance(used);
    Some(dis)
}

/// Content states stored per slot.
const STATE_ABSENT: u8 = 0;
const STATE_LIVE: u8 = 1;
const STATE_TOMBSTONE: u8 = 2;
const STATE_GHOST: u8 = 3;

/// Tag opening a node record (must differ from [`MARKER`]).
const NODE_TAG: u8 = 0x01;

/// A serialised document: the structure stream (the "On-disk overhead" of
/// Table 1) plus the atom table that would live in a separate file.
#[derive(Debug, Clone)]
pub struct DiskImage<A> {
    /// RLE-compressed structure stream.
    pub structure: Vec<u8>,
    /// The atoms, in the order the structure references them.
    pub atoms: Vec<A>,
    /// Statistics gathered while encoding.
    pub stats: EncodeStats,
}

/// Size accounting of an encode pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeStats {
    /// Slots that had to go to the overflow section.
    pub overflow_slots: usize,
}

impl<A: Atom> DiskImage<A> {
    /// Size in bytes of the structure stream — the on-disk *overhead*
    /// relative to the document content (Table 1, "On-disk overhead").
    pub fn structure_bytes(&self) -> usize {
        self.structure.len()
    }

    /// Size in bytes of the atom table (the document content itself).
    pub fn atom_bytes(&self) -> usize {
        self.atoms.iter().map(|a| a.content_bytes()).sum()
    }

    /// Overhead relative to the document content size (Table 1, "% doc").
    pub fn overhead_ratio(&self) -> f64 {
        let doc = self.atom_bytes();
        if doc == 0 {
            0.0
        } else {
            self.structure_bytes() as f64 / doc as f64
        }
    }

    /// Serialises a tree.
    pub fn encode<D: WireDis>(tree: &Tree<A, D>) -> Self {
        let mut atoms = Vec::with_capacity(tree.live_len());
        let mut stats = EncodeStats::default();
        let mut heap = BytesMut::new();
        let mut overflow = BytesMut::new();

        // The root record, followed level by level by the two child places of
        // every node emitted at the previous level.
        encode_major(
            tree.root(),
            &PosId::root(),
            &mut heap,
            &mut overflow,
            &mut atoms,
            &mut stats,
        );
        let mut parents: Vec<(&MajorNode<A, D>, PosId<D>)> = vec![(tree.root(), PosId::root())];
        while !parents.is_empty() {
            let mut children: Vec<(&MajorNode<A, D>, PosId<D>)> = Vec::new();
            for (node, pos) in &parents {
                for side in [Side::Left, Side::Right] {
                    match node.child(side) {
                        Some(child) => {
                            let child_pos = pos.child(PathElem::plain(side));
                            encode_major(
                                child,
                                &child_pos,
                                &mut heap,
                                &mut overflow,
                                &mut atoms,
                                &mut stats,
                            );
                            children.push((child, child_pos));
                        }
                        None => heap.put_u8(MARKER),
                    }
                }
            }
            parents = children;
        }

        let mut stream = BytesMut::new();
        stream.put_u32(overflow.len() as u32);
        stream.extend_from_slice(&heap);
        stream.extend_from_slice(&overflow);
        let structure = rle_compress(&stream);
        DiskImage {
            structure,
            atoms,
            stats,
        }
    }

    /// Reads a tree back from its serialised form, reporting *why* a corrupt
    /// image failed (truncation, bad RLE framing, bad tags, dangling atom
    /// references) so recovery paths can diagnose what they found on disk.
    pub fn decode<D: WireDis>(&self) -> Result<Tree<A, D>, DecodeError> {
        let raw = rle_decompress(&self.structure).ok_or(DecodeError::BadRleRun)?;
        let mut input = Bytes::from(raw);
        if input.remaining() < 4 {
            return Err(DecodeError::TruncatedStructure);
        }
        let overflow_len = input.get_u32() as usize;
        if overflow_len > input.remaining() {
            return Err(DecodeError::TruncatedStructure);
        }
        let heap_len = input.remaining() - overflow_len;
        let mut heap = input.slice(..heap_len);
        let mut overflow = input.slice(heap_len..);

        let mut tree: Tree<A, D> = Tree::new();

        // Root record.
        decode_major(&mut heap, &self.atoms, &mut tree, &PosId::root())?;
        let mut parents: Vec<PosId<D>> = vec![PosId::root()];
        // Level by level: two places per parent emitted at the previous
        // level.
        while !parents.is_empty() && heap.has_remaining() {
            let mut children: Vec<PosId<D>> = Vec::new();
            for parent in &parents {
                for side in [Side::Left, Side::Right] {
                    if !heap.has_remaining() {
                        return Err(DecodeError::TruncatedStructure);
                    }
                    if heap.chunk()[0] == MARKER {
                        heap.advance(1);
                        continue;
                    }
                    let pos = parent.child(PathElem::plain(side));
                    decode_major(&mut heap, &self.atoms, &mut tree, &pos)?;
                    children.push(pos);
                }
            }
            parents = children;
        }

        // Overflow section: explicit (identifier, content) records.
        while overflow.has_remaining() {
            let (id, content) = decode_overflow_record::<A, D>(&mut overflow, &self.atoms)?;
            tree.restore_slot(&id, content, 0);
        }

        tree.rebuild_counts();
        Ok(tree)
    }
}

/// Writes one major-node record (plain slot + minis); subtrees hanging off
/// mini-nodes are redirected to the overflow section.
fn encode_major<A: Atom, D: WireDis>(
    node: &MajorNode<A, D>,
    pos: &PosId<D>,
    heap: &mut BytesMut,
    overflow: &mut BytesMut,
    atoms: &mut Vec<A>,
    stats: &mut EncodeStats,
) {
    heap.put_u8(NODE_TAG);
    encode_content(node.plain(), heap, atoms);
    let minis = node.minis();
    heap.put_u8(minis.len().min(u8::MAX as usize) as u8);
    for mini in minis {
        put_dis(heap, mini.dis());
        encode_content(mini.content(), heap, atoms);
        // Mini-namespace children cannot be expressed positionally: store
        // their whole subtree as explicit records.
        if let Some(mini_id) = mini_pos(pos, mini.dis()) {
            for side in [Side::Left, Side::Right] {
                if let Some(child) = mini.child(side) {
                    let child_pos = mini_id.child(PathElem::plain(side));
                    collect_overflow(child, &child_pos, overflow, atoms, stats);
                }
            }
        }
    }
}

/// Recursively serialises every occupied slot of a subtree as overflow
/// records (used for mini-namespace subtrees).
fn collect_overflow<A: Atom, D: WireDis>(
    node: &MajorNode<A, D>,
    pos: &PosId<D>,
    overflow: &mut BytesMut,
    atoms: &mut Vec<A>,
    stats: &mut EncodeStats,
) {
    if node.plain().is_present() {
        encode_overflow_record(pos, node.plain(), overflow, atoms);
        stats.overflow_slots += 1;
    }
    for mini in node.minis() {
        let Some(mini_id) = mini_pos(pos, mini.dis()) else {
            continue;
        };
        if mini.content().is_present() {
            encode_overflow_record(&mini_id, mini.content(), overflow, atoms);
            stats.overflow_slots += 1;
        }
        for side in [Side::Left, Side::Right] {
            if let Some(child) = mini.child(side) {
                collect_overflow(
                    child,
                    &mini_id.child(PathElem::plain(side)),
                    overflow,
                    atoms,
                    stats,
                );
            }
        }
    }
    for side in [Side::Left, Side::Right] {
        if let Some(child) = node.child(side) {
            collect_overflow(
                child,
                &pos.child(PathElem::plain(side)),
                overflow,
                atoms,
                stats,
            );
        }
    }
}

fn encode_content<A: Atom>(content: &Content<A>, out: &mut BytesMut, atoms: &mut Vec<A>) {
    match content {
        Content::Absent => out.put_u8(STATE_ABSENT),
        Content::Live(a) => {
            out.put_u8(STATE_LIVE);
            out.put_u32(atoms.len() as u32);
            atoms.push(a.clone());
        }
        Content::Tombstone => out.put_u8(STATE_TOMBSTONE),
        Content::Ghost => out.put_u8(STATE_GHOST),
    }
}

fn decode_content<A: Atom>(input: &mut Bytes, atoms: &[A]) -> Result<Content<A>, DecodeError> {
    if !input.has_remaining() {
        return Err(DecodeError::TruncatedStructure);
    }
    match input.get_u8() {
        STATE_ABSENT => Ok(Content::Absent),
        STATE_LIVE => {
            if input.remaining() < 4 {
                return Err(DecodeError::TruncatedStructure);
            }
            let idx = input.get_u32() as usize;
            atoms
                .get(idx)
                .cloned()
                .map(Content::Live)
                .ok_or(DecodeError::DanglingAtomRef)
        }
        STATE_TOMBSTONE => Ok(Content::Tombstone),
        STATE_GHOST => Ok(Content::Ghost),
        _ => Err(DecodeError::BadTag),
    }
}

/// Reads one major-node record and installs its slots at `pos`.
fn decode_major<A: Atom, D: WireDis>(
    input: &mut Bytes,
    atoms: &[A],
    tree: &mut Tree<A, D>,
    pos: &PosId<D>,
) -> Result<(), DecodeError> {
    if !input.has_remaining() {
        return Err(DecodeError::TruncatedStructure);
    }
    if input.get_u8() != NODE_TAG {
        return Err(DecodeError::BadTag);
    }
    let plain = decode_content(input, atoms)?;
    if !matches!(plain, Content::Absent) {
        tree.restore_slot(pos, plain, 0);
    }
    if !input.has_remaining() {
        return Err(DecodeError::TruncatedStructure);
    }
    let mini_count = input.get_u8();
    for _ in 0..mini_count {
        let dis = get_dis::<D>(input).ok_or(DecodeError::TruncatedStructure)?;
        let content = decode_content(input, atoms)?;
        let mini_id = mini_pos(pos, &dis).ok_or(DecodeError::BadTag)?;
        tree.restore_slot(&mini_id, content, 0);
    }
    Ok(())
}

/// The identifier of mini-node `dis` at the major node `pos` (whose own last
/// element is plain). The root major node cannot hold minis.
fn mini_pos<D: Disambiguator>(pos: &PosId<D>, dis: &D) -> Option<PosId<D>> {
    let side = pos.last_side()?;
    Some(pos.parent()?.child_mini(side, dis.clone()))
}

fn encode_overflow_record<A: Atom, D: WireDis>(
    id: &PosId<D>,
    content: &Content<A>,
    overflow: &mut BytesMut,
    atoms: &mut Vec<A>,
) {
    overflow.put_u16(id.depth() as u16);
    id.visit_elems_from(0, |side, dis| {
        let mut flags = 0u8;
        if side == Side::Right {
            flags |= 0x01;
        }
        if dis.is_some() {
            flags |= 0x02;
        }
        overflow.put_u8(flags);
        if let Some(d) = dis {
            put_dis(overflow, d);
        }
    });
    encode_content(content, overflow, atoms);
}

fn decode_overflow_record<A: Atom, D: WireDis>(
    input: &mut Bytes,
    atoms: &[A],
) -> Result<(PosId<D>, Content<A>), DecodeError> {
    if input.remaining() < 2 {
        return Err(DecodeError::TruncatedStructure);
    }
    let len = input.get_u16() as usize;
    let mut elems = Vec::with_capacity(len);
    for _ in 0..len {
        if !input.has_remaining() {
            return Err(DecodeError::TruncatedStructure);
        }
        let flags = input.get_u8();
        let side = if flags & 0x01 == 0 {
            Side::Left
        } else {
            Side::Right
        };
        let dis = if flags & 0x02 != 0 {
            Some(get_dis::<D>(input).ok_or(DecodeError::TruncatedStructure)?)
        } else {
            None
        };
        elems.push(PathElem { side, dis });
    }
    let content = decode_content(input, atoms)?;
    Ok((PosId::from_elems(elems), content))
}

#[cfg(test)]
mod tests {
    use super::*;
    use treedoc_core::{Sdis, SiteId, Treedoc, TreedocConfig, Udis};

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn slots<A: Atom, D: Disambiguator>(tree: &Tree<A, D>) -> Vec<(Vec<u8>, bool)> {
        let mut out = Vec::new();
        tree.for_each_slot(|s| {
            out.push((
                s.bits.iter().map(|b| b.bit()).collect(),
                s.content.is_live(),
            ));
        });
        out
    }

    #[test]
    fn round_trip_flattened_document() {
        let atoms: Vec<String> = (0..40).map(|i| format!("line {i}")).collect();
        let doc: Treedoc<String, Sdis> = Treedoc::from_atoms(site(1), &atoms);
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back: Tree<String, Sdis> = image.decode().unwrap();
        assert_eq!(back.to_vec(), atoms);
        assert_eq!(slots(&back), slots(&Tree::of_doc(&doc)));
    }

    #[test]
    fn round_trip_edited_document_with_tombstones() {
        let mut doc: Treedoc<String, Sdis> = Treedoc::new(site(1));
        for i in 0..30 {
            doc.local_insert(i, format!("l{i}")).unwrap();
        }
        for _ in 0..10 {
            doc.local_delete(5).unwrap();
        }
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back: Tree<String, Sdis> = image.decode().unwrap();
        assert_eq!(back.to_vec(), doc.to_vec());
        assert_eq!(
            back.node_count(),
            doc.node_count(),
            "tombstones survive the round trip"
        );
        assert_eq!(slots(&back), slots(&Tree::of_doc(&doc)));
    }

    #[test]
    fn round_trip_udis_document() {
        let mut doc: Treedoc<String, Udis> = Treedoc::new(site(7));
        for i in 0..20 {
            doc.local_insert(i, format!("u{i}")).unwrap();
        }
        doc.local_delete(3).unwrap();
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back: Tree<String, Udis> = image.decode().unwrap();
        assert_eq!(back.to_vec(), doc.to_vec());
        assert_eq!(slots(&back), slots(&Tree::of_doc(&doc)));
    }

    #[test]
    fn round_trip_document_with_mini_siblings() {
        // Two replicas insert concurrently at the same place, then one more
        // atom lands between the resulting mini-siblings: its subtree must go
        // through the overflow section and still round-trip.
        let mut a: Treedoc<String, Sdis> = Treedoc::new(site(1));
        let mut b: Treedoc<String, Sdis> = Treedoc::new(site(2));
        let seed: Vec<_> = (0..4)
            .map(|i| a.local_insert(i, format!("s{i}")).unwrap())
            .collect();
        for op in &seed {
            b.apply(op).unwrap();
        }
        let oa = a.local_insert(2, "from-a".to_string()).unwrap();
        let ob = b.local_insert(2, "from-b".to_string()).unwrap();
        a.apply(&ob).unwrap();
        b.apply(&oa).unwrap();
        // Insert between the two concurrent atoms (they are adjacent now).
        let between = a.local_insert(3, "between".to_string()).unwrap();
        b.apply(&between).unwrap();
        assert_eq!(a.to_vec(), b.to_vec());

        let image = DiskImage::encode(&Tree::of_doc(&a));
        let back: Tree<String, Sdis> = image.decode().unwrap();
        assert_eq!(back.to_vec(), a.to_vec());
        assert_eq!(back.node_count(), a.node_count());
    }

    #[test]
    fn flattened_storage_is_small() {
        let atoms: Vec<String> = (0..200)
            .map(|i| format!("some document line number {i}"))
            .collect();
        let doc: Treedoc<String, Sdis> = Treedoc::from_atoms(site(1), &atoms);
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        // A flattened document stores no disambiguators: a few bytes per node
        // (tag + state + atom ref) plus compressed markers.
        assert!(
            image.structure_bytes() < 10 * atoms.len(),
            "structure {} bytes for {} atoms",
            image.structure_bytes(),
            atoms.len()
        );
        assert!(image.overhead_ratio() < 0.5);
        assert_eq!(
            image.atom_bytes(),
            atoms.iter().map(|a| a.len()).sum::<usize>()
        );
        assert_eq!(image.stats.overflow_slots, 0);
    }

    #[test]
    fn unbalanced_document_costs_more_than_flattened() {
        let mut appended: Treedoc<String, Sdis> = Treedoc::new(site(1));
        for i in 0..100 {
            appended.local_insert(i, format!("line {i}")).unwrap();
        }
        let unbalanced = DiskImage::encode(&Tree::of_doc(&appended));
        appended.flatten_all().unwrap();
        let flattened = DiskImage::encode(&Tree::of_doc(&appended));
        assert!(
            flattened.structure_bytes() < unbalanced.structure_bytes(),
            "flattening must shrink the on-disk structure ({} vs {})",
            flattened.structure_bytes(),
            unbalanced.structure_bytes()
        );
    }

    #[test]
    fn balanced_document_round_trips() {
        let mut doc: Treedoc<String, Sdis> =
            Treedoc::with_config(site(2), TreedocConfig::balanced());
        for i in 0..64 {
            doc.local_insert(i, format!("b{i}")).unwrap();
        }
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back: Tree<String, Sdis> = image.decode().unwrap();
        assert_eq!(back.to_vec(), doc.to_vec());
    }

    #[test]
    fn corrupt_images_are_rejected_with_a_diagnosis() {
        let doc: Treedoc<String, Sdis> = Treedoc::from_atoms(site(1), &["a".to_string()]);
        let mut image = DiskImage::encode(&Tree::of_doc(&doc));
        image.structure.truncate(1);
        assert!(matches!(
            image.decode::<Sdis>(),
            Err(DecodeError::BadRleRun | DecodeError::TruncatedStructure)
        ));
        // An empty structure is also rejected rather than panicking.
        image.structure.clear();
        assert_eq!(
            image.decode::<Sdis>().unwrap_err(),
            DecodeError::TruncatedStructure
        );
    }

    #[test]
    fn dangling_atom_references_are_diagnosed() {
        let doc: Treedoc<String, Sdis> =
            Treedoc::from_atoms(site(1), &["a".to_string(), "b".to_string()]);
        let mut image = DiskImage::encode(&Tree::of_doc(&doc));
        // Drop the atom table: every live slot now points past the end.
        image.atoms.clear();
        assert_eq!(
            image.decode::<Sdis>().unwrap_err(),
            DecodeError::DanglingAtomRef
        );
    }

    #[test]
    fn unknown_state_bytes_are_diagnosed() {
        let doc: Treedoc<String, Sdis> = Treedoc::from_atoms(site(1), &["a".to_string()]);
        let mut image = DiskImage::encode(&Tree::of_doc(&doc));
        // Decompress, corrupt the root record's tag, recompress.
        let mut raw = rle_decompress(&image.structure).unwrap();
        raw[4] = 0x7E; // the root NODE_TAG slot
        image.structure = rle_compress(&raw);
        assert_eq!(image.decode::<Sdis>().unwrap_err(), DecodeError::BadTag);
    }

    #[test]
    fn empty_document_round_trips() {
        let doc: Treedoc<String, Sdis> = Treedoc::new(site(1));
        let image = DiskImage::encode(&Tree::of_doc(&doc));
        let back: Tree<String, Sdis> = image.decode().unwrap();
        assert!(back.is_empty());
    }
}

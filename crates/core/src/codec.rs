//! The workspace-wide binary wire codec.
//!
//! The paper's whole evaluation (§5) is about keeping identifier and
//! metadata overhead small; a wire format that ships operations as JSON
//! strings throws that care away. This module provides the compact,
//! versioned binary encoding every layer that moves or stores operations
//! builds on:
//!
//! * LEB128 **varints** for lengths, counters and epochs,
//! * fixed-width encodings for [`SiteId`]s and disambiguators
//!   ([`WireDis`], mirroring the byte budgets of §5: 6 bytes for SDIS,
//!   10 for UDIS),
//! * **bit-packed** tree paths (one bit per [`Side`], exactly the on-wire
//!   cost model of [`PosId::size_bits`]),
//! * **shared-prefix delta compression** for position identifiers
//!   ([`put_pos_id`]): consecutive operations in a batch encode only the
//!   path suffix that differs from the previous operation's path — the same
//!   insight the RLE disk format (§5.2) uses for marker runs, applied to the
//!   replication hot path. Sequential typing produces deeply shared
//!   prefixes, so a batched run of inserts costs a few bytes per operation.
//!
//! Layered protocols (the envelope and WAL-record encodings of
//! `treedoc-replication`) consume these primitives through [`WirePayload`],
//! which threads the previous payload of a batch through encode/decode so
//! the delta context never desynchronises between the two directions.
//!
//! Every decoder is **total**: malformed or truncated input yields `None`,
//! never a panic or an oversized allocation, so the codec can sit directly
//! behind an untrusted transport.

use crate::atom::Atom;
use crate::disambiguator::{Disambiguator, Sdis, Udis};
use crate::ops::Op;
use crate::path::{PosId, Side};
use crate::run::{spine_step, spine_successor};
use crate::site::{SiteId, SITE_ID_BYTES};

/// Version tag of the binary wire format. Bumped on any incompatible layout
/// change; decoders accept exactly this version and reject every other one
/// instead of misparsing. (Versions 1–3 were earlier generations — a
/// serde-JSON wire, then binary layouts without the run-step batch entries
/// of [`WirePayload::encode_run_step`] or the state-based anti-entropy
/// envelopes; nothing reads them any more.)
pub const WIRE_VERSION: u8 = 4;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint (7 bits per byte, high bit = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing the cursor. `None` on truncated or
/// over-long input.
pub fn get_varint(input: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first()?;
        *input = rest;
        // The 10th byte holds only bit 63: anything above would be shifted
        // out silently, mis-decoding malformed input into a *different*
        // value instead of rejecting it.
        if shift == 63 && byte & 0x7F > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Appends one raw byte.
pub fn put_u8(out: &mut Vec<u8>, byte: u8) {
    out.push(byte);
}

/// Reads one raw byte.
pub fn get_u8(input: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = input.split_first()?;
    *input = rest;
    Some(byte)
}

/// Takes exactly `n` bytes off the cursor.
fn get_exact<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Some(head)
}

/// Appends a varint length prefix followed by the raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string.
pub fn get_bytes<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = get_varint(input)? as usize;
    get_exact(input, len)
}

/// Appends the 6 raw bytes of a site identifier.
pub fn put_site(out: &mut Vec<u8>, site: SiteId) {
    out.extend_from_slice(site.as_bytes());
}

/// Reads a site identifier.
pub fn get_site(input: &mut &[u8]) -> Option<SiteId> {
    let raw = get_exact(input, SITE_ID_BYTES)?;
    let mut bytes = [0u8; SITE_ID_BYTES];
    bytes.copy_from_slice(raw);
    Some(SiteId::from_bytes(bytes))
}

/// Packs `n` bits (produced by `bits`) LSB-first into `n.div_ceil(8)` bytes.
fn put_packed_bits(out: &mut Vec<u8>, n: usize, mut bits: impl Iterator<Item = bool>) {
    for _ in 0..n.div_ceil(8) {
        let mut byte = 0u8;
        for slot in 0..8 {
            if let Some(true) = bits.next() {
                byte |= 1 << slot;
            }
        }
        out.push(byte);
    }
}

/// Reads `n` LSB-first packed bits.
fn get_packed_bits(input: &mut &[u8], n: usize) -> Option<Vec<bool>> {
    let raw = get_exact(input, n.div_ceil(8))?;
    Some((0..n).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Appends a plain bit path (varint length + packed side bits), the encoding
/// used for flatten subtree selectors.
pub fn put_sides(out: &mut Vec<u8>, sides: &[Side]) {
    put_varint(out, sides.len() as u64);
    put_packed_bits(out, sides.len(), sides.iter().map(|s| s.bit() == 1));
}

/// Reads a plain bit path.
pub fn get_sides(input: &mut &[u8]) -> Option<Vec<Side>> {
    let n = get_varint(input)? as usize;
    let bits = get_packed_bits(input, n)?;
    Some(
        bits.into_iter()
            .map(|b| Side::from_bit(u8::from(b)))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Disambiguators and atoms
// ---------------------------------------------------------------------------

/// Fixed-width binary encoding of a disambiguator, matching the byte budgets
/// the paper's evaluation charges per identifier (§5: 6 bytes for SDIS, 10
/// for UDIS).
pub trait WireDis: Disambiguator {
    /// Appends exactly [`Disambiguator::ACCOUNTED_BYTES`] bytes.
    fn encode_dis(&self, out: &mut Vec<u8>);
    /// Reads the disambiguator back.
    fn decode_dis(input: &mut &[u8]) -> Option<Self>;
}

impl WireDis for Sdis {
    fn encode_dis(&self, out: &mut Vec<u8>) {
        put_site(out, self.site());
    }

    fn decode_dis(input: &mut &[u8]) -> Option<Self> {
        get_site(input).map(Sdis::new)
    }
}

impl WireDis for Udis {
    fn encode_dis(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.counter().to_le_bytes());
        put_site(out, self.site());
    }

    fn decode_dis(input: &mut &[u8]) -> Option<Self> {
        let raw = get_exact(input, 4)?;
        let counter = u32::from_le_bytes(raw.try_into().expect("4 bytes"));
        let site = get_site(input)?;
        Some(Udis::new(counter, site))
    }
}

/// An atom the binary codec can ship. Mirrors the [`Atom`] blanket impls so
/// `char`, `String`, `Vec<u8>` and the unsigned integers all work.
pub trait WireAtom: Atom {
    /// Appends the atom's binary form.
    fn encode_atom(&self, out: &mut Vec<u8>);
    /// Reads the atom back.
    fn decode_atom(input: &mut &[u8]) -> Option<Self>;
}

impl WireAtom for char {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(u32::from(*self)));
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        let code = u32::try_from(get_varint(input)?).ok()?;
        char::from_u32(code)
    }
}

impl WireAtom for String {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        let raw = get_bytes(input)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl WireAtom for Vec<u8> {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        get_bytes(input).map(<[u8]>::to_vec)
    }
}

impl WireAtom for u8 {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        get_u8(input)
    }
}

impl WireAtom for u32 {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        u32::try_from(get_varint(input)?).ok()
    }
}

impl WireAtom for u64 {
    fn encode_atom(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    fn decode_atom(input: &mut &[u8]) -> Option<Self> {
        get_varint(input)
    }
}

// ---------------------------------------------------------------------------
// Position identifiers: shared-prefix delta encoding
// ---------------------------------------------------------------------------

/// Appends `id` delta-encoded against `prev` (use [`PosId::root`] when there
/// is no previous identifier):
///
/// ```text
/// varint(shared prefix elems) · varint(suffix elems)
/// · packed suffix side bits · packed suffix has-dis bits · dis values
/// ```
///
/// The shared-prefix length comes from the chunked representation's
/// divergence walk ([`PosId::common_prefix_len`]): consecutive identifiers
/// in a batch share their spine chunks, so the scan skips them by pointer
/// identity instead of comparing byte-wise from the root.
pub fn put_pos_id<D: WireDis>(out: &mut Vec<u8>, id: &PosId<D>, prev: &PosId<D>) {
    let shared = id.common_prefix_len(prev);
    let suffix_len = id.depth() - shared;
    put_varint(out, shared as u64);
    put_varint(out, suffix_len as u64);
    let mut sides = Vec::with_capacity(suffix_len);
    let mut flags = Vec::with_capacity(suffix_len);
    id.visit_elems_from(shared, |s, d| {
        sides.push(s.bit() == 1);
        flags.push(d.is_some());
    });
    put_packed_bits(out, suffix_len, sides.into_iter());
    put_packed_bits(out, suffix_len, flags.into_iter());
    id.visit_elems_from(shared, |_, d| {
        if let Some(dis) = d {
            dis.encode_dis(out);
        }
    });
}

/// Reads an identifier delta-encoded against `prev`. The decoded identifier
/// shares `prev`'s chunk chain up to the shared-prefix boundary, so delta
/// decoding re-establishes structural sharing on the receiving replica.
pub fn get_pos_id<D: WireDis>(input: &mut &[u8], prev: &PosId<D>) -> Option<PosId<D>> {
    let shared = get_varint(input)? as usize;
    if shared > prev.depth() {
        return None;
    }
    let suffix_len = get_varint(input)? as usize;
    let sides = get_packed_bits(input, suffix_len)?;
    let has_dis = get_packed_bits(input, suffix_len)?;
    let mut id = prev.prefix(shared);
    for (side_bit, with_dis) in sides.into_iter().zip(has_dis) {
        let side = Side::from_bit(u8::from(side_bit));
        id = if with_dis {
            id.child_mini(side, D::decode_dis(input)?)
        } else {
            id.extend_plains(side, 1)
        };
    }
    Some(id)
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Appends an operation, its identifier delta-encoded against `prev` (the
/// identifier of the previous operation in the batch, or [`PosId::root`]).
pub fn put_op<A: WireAtom, D: WireDis>(out: &mut Vec<u8>, op: &Op<A, D>, prev: &PosId<D>) {
    match op {
        Op::Insert { id, atom } => {
            put_u8(out, OP_INSERT);
            put_pos_id(out, id, prev);
            atom.encode_atom(out);
        }
        Op::Delete { id } => {
            put_u8(out, OP_DELETE);
            put_pos_id(out, id, prev);
        }
    }
}

/// Reads an operation back, resolving the identifier delta against `prev`.
pub fn get_op<A: WireAtom, D: WireDis>(input: &mut &[u8], prev: &PosId<D>) -> Option<Op<A, D>> {
    match get_u8(input)? {
        OP_INSERT => {
            let id = get_pos_id(input, prev)?;
            let atom = A::decode_atom(input)?;
            Some(Op::Insert { id, atom })
        }
        OP_DELETE => Some(Op::Delete {
            id: get_pos_id(input, prev)?,
        }),
        _ => None,
    }
}

/// A payload the layered wire protocols (envelopes, WAL records) can ship.
///
/// `prev` is the previous payload of the same batch, giving delta encoders
/// their context; it is `None` for the first (or only) payload. Encode and
/// decode must thread the *same* `prev` for the round trip to hold.
///
/// The two `*_run_step` hooks expose **run coalescing** to the layered
/// codecs: when a payload is the sequential continuation of its predecessor
/// (for [`Op`], a [`spine_step`] insert — the shape every atom of a
/// coalesced run has), the batch encoder ships just the step (one side byte
/// plus the atom) instead of a full payload, and the decoder reconstructs
/// the identifier with [`spine_successor`]. The defaults opt out, so payload
/// types without a run structure are unaffected.
pub trait WirePayload: Sized {
    /// Appends the payload's binary form.
    fn encode_payload(&self, prev: Option<&Self>, out: &mut Vec<u8>);
    /// Reads the payload back.
    fn decode_payload(input: &mut &[u8], prev: Option<&Self>) -> Option<Self>;
    /// Appends the payload as a run continuation of `prev` and returns
    /// `true`, or returns `false` **without writing anything** when the
    /// payload does not continue `prev`.
    fn encode_run_step(&self, _prev: &Self, _out: &mut Vec<u8>) -> bool {
        false
    }
    /// Reads a run continuation back (inverse of
    /// [`encode_run_step`](Self::encode_run_step)).
    fn decode_run_step(_input: &mut &[u8], _prev: &Self) -> Option<Self> {
        None
    }
}

impl<A: WireAtom, D: WireDis> WirePayload for Op<A, D> {
    fn encode_payload(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let root = PosId::root();
        put_op(out, self, prev.map_or(&root, |p| p.id()));
    }

    fn decode_payload(input: &mut &[u8], prev: Option<&Self>) -> Option<Self> {
        let root = PosId::root();
        get_op(input, prev.map_or(&root, |p| p.id()))
    }

    fn encode_run_step(&self, prev: &Self, out: &mut Vec<u8>) -> bool {
        let (Op::Insert { id, atom }, Op::Insert { id: prev_id, .. }) = (self, prev) else {
            return false;
        };
        let Some(side) = spine_step(prev_id, id) else {
            return false;
        };
        put_u8(out, side.bit());
        atom.encode_atom(out);
        true
    }

    fn decode_run_step(input: &mut &[u8], prev: &Self) -> Option<Self> {
        let Op::Insert { id: prev_id, .. } = prev else {
            return None;
        };
        let byte = get_u8(input)?;
        if byte > 1 {
            return None;
        }
        let id = spine_successor(prev_id, Side::from_bit(byte))?;
        let atom = A::decode_atom(input)?;
        Some(Op::Insert { id, atom })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathElem;

    fn site(n: u64) -> SiteId {
        SiteId::from_u64(n)
    }

    fn sid(n: u64) -> Sdis {
        Sdis::new(site(n))
    }

    fn pos(desc: &[(u8, Option<u64>)]) -> PosId<Sdis> {
        PosId::from_elems(
            desc.iter()
                .map(|&(bit, dis)| PathElem {
                    side: Side::from_bit(bit),
                    dis: dis.map(sid),
                })
                .collect(),
        )
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = buf.as_slice();
            assert_eq!(get_varint(&mut cursor), Some(v));
            assert!(cursor.is_empty());
        }
        assert_eq!(get_varint(&mut [0x80u8].as_slice()), None, "truncated");
        let overlong = [0xFFu8; 10];
        assert_eq!(get_varint(&mut overlong.as_slice()), None, "over-long");
        // A 10th byte carrying bits beyond bit 63 must be rejected, not
        // silently truncated into a different value.
        let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7E];
        assert_eq!(get_varint(&mut overflow.as_slice()), None, "overflow bits");
    }

    #[test]
    fn sites_and_sides_round_trip() {
        let mut buf = Vec::new();
        put_site(&mut buf, site(77));
        put_sides(&mut buf, &[Side::Left, Side::Right, Side::Right]);
        put_sides(&mut buf, &[]);
        let mut cursor = buf.as_slice();
        assert_eq!(get_site(&mut cursor), Some(site(77)));
        assert_eq!(
            get_sides(&mut cursor),
            Some(vec![Side::Left, Side::Right, Side::Right])
        );
        assert_eq!(get_sides(&mut cursor), Some(Vec::new()));
        assert!(cursor.is_empty());
    }

    #[test]
    fn dis_encodings_match_the_accounted_sizes() {
        let mut buf = Vec::new();
        sid(3).encode_dis(&mut buf);
        assert_eq!(buf.len(), Sdis::ACCOUNTED_BYTES);
        let mut cursor = buf.as_slice();
        assert_eq!(Sdis::decode_dis(&mut cursor), Some(sid(3)));

        let mut buf = Vec::new();
        Udis::new(41, site(9)).encode_dis(&mut buf);
        assert_eq!(buf.len(), Udis::ACCOUNTED_BYTES);
        let mut cursor = buf.as_slice();
        assert_eq!(Udis::decode_dis(&mut cursor), Some(Udis::new(41, site(9))));
    }

    #[test]
    fn atoms_round_trip() {
        fn check<A: WireAtom>(atom: A) {
            let mut buf = Vec::new();
            atom.encode_atom(&mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(A::decode_atom(&mut cursor), Some(atom));
            assert!(cursor.is_empty());
        }
        check('é');
        check(String::from("a line of text"));
        check(String::new());
        check(vec![0u8, 0xFF, 7]);
        check(200u8);
        check(1_000_000u32);
        check(u64::MAX);
    }

    #[test]
    fn pos_id_round_trips_against_any_previous() {
        let ids = [
            pos(&[]),
            pos(&[(1, None), (0, Some(4))]),
            pos(&[(1, None), (0, None), (0, Some(1)), (1, Some(5))]),
            pos(&[(0, Some(2))]),
        ];
        for prev in &ids {
            for id in &ids {
                let mut buf = Vec::new();
                put_pos_id(&mut buf, id, prev);
                let mut cursor = buf.as_slice();
                assert_eq!(get_pos_id::<Sdis>(&mut cursor, prev).as_ref(), Some(id));
                assert!(cursor.is_empty());
            }
        }
    }

    #[test]
    fn shared_prefixes_shrink_the_encoding() {
        // A deep identifier next to a sibling differing only in the last
        // element: the delta form must cost a small constant, not the full
        // path (1 bit + 6-byte SDIS per element when standalone).
        let mut elems: Vec<(u8, Option<u64>)> = (0..40).map(|i| (i % 2, Some(3))).collect();
        let a = pos(&elems);
        elems.last_mut().unwrap().1 = Some(4);
        let b = pos(&elems);

        let mut standalone = Vec::new();
        put_pos_id(&mut standalone, &b, &PosId::root());
        let mut delta = Vec::new();
        put_pos_id(&mut delta, &b, &a);
        assert!(
            delta.len() < standalone.len() / 10,
            "delta {} vs standalone {}",
            delta.len(),
            standalone.len()
        );
        let mut cursor = delta.as_slice();
        assert_eq!(get_pos_id::<Sdis>(&mut cursor, &a), Some(b));
    }

    #[test]
    fn ops_round_trip_with_and_without_context() {
        let prev = pos(&[(1, None), (0, Some(4))]);
        let ops: Vec<Op<String, Sdis>> = vec![
            Op::Insert {
                id: pos(&[(1, None), (0, Some(4)), (1, Some(2))]),
                atom: "hello".into(),
            },
            Op::Delete {
                id: pos(&[(0, Some(7))]),
            },
        ];
        for op in &ops {
            for ctx in [&PosId::root(), &prev] {
                let mut buf = Vec::new();
                put_op(&mut buf, op, ctx);
                let mut cursor = buf.as_slice();
                assert_eq!(get_op::<String, Sdis>(&mut cursor, ctx).as_ref(), Some(op));
                assert!(cursor.is_empty());
            }
        }
    }

    #[test]
    fn run_steps_round_trip_and_decline_correctly() {
        use crate::disambiguator::{DisSource, SdisSource, UdisSource};
        use crate::site::SiteId;

        // A genuine spine continuation (the shape sequential typing stamps)
        // encodes as a step and decodes back to the identical op.
        fn check_step<D: WireDis>(mut source: impl DisSource<Dis = D>) {
            let d0 = source.next_dis();
            let prev: Op<String, D> = Op::Insert {
                id: PosId::from_elems(vec![PathElem::mini(Side::Right, d0.clone())]),
                atom: "a".into(),
            };
            for side in [Side::Left, Side::Right] {
                let next: Op<String, D> = Op::Insert {
                    id: crate::run::spine_successor(prev.id(), side).expect("successor"),
                    atom: "b".into(),
                };
                let mut buf = Vec::new();
                assert!(next.encode_run_step(&prev, &mut buf));
                assert!(buf.len() <= 1 + 2, "step must be tiny, got {}B", buf.len());
                let mut cursor = buf.as_slice();
                assert_eq!(
                    Op::decode_run_step(&mut cursor, &prev).as_ref(),
                    Some(&next)
                );
                assert!(cursor.is_empty());
            }
        }
        check_step(SdisSource::new(SiteId::from_u64(1)));
        check_step(UdisSource::new(SiteId::from_u64(1)));

        // Deletes, non-successor identifiers and sibling inserts are not run
        // steps: encode declines without writing a byte.
        let prev: Op<String, Sdis> = Op::Insert {
            id: pos(&[(1, Some(1))]),
            atom: "a".into(),
        };
        let non_steps: Vec<Op<String, Sdis>> = vec![
            Op::Delete {
                id: pos(&[(1, Some(1)), (0, Some(1))]),
            },
            Op::Insert {
                id: pos(&[(1, Some(2))]),
                atom: "b".into(),
            },
            Op::Insert {
                id: pos(&[(1, Some(1)), (0, Some(1))]),
                atom: "b".into(),
            },
        ];
        for op in &non_steps {
            let mut buf = Vec::new();
            assert!(!op.encode_run_step(&prev, &mut buf), "{op:?}");
            assert!(buf.is_empty(), "decliners must not write");
        }
        // A step byte above 1 is malformed, not a silent Side.
        let mut cursor = [7u8, 1, b'x'].as_slice();
        assert_eq!(
            Op::<String, Sdis>::decode_run_step(&mut cursor, &prev),
            None
        );
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked() {
        // Truncated everywhere: every prefix of a valid op either decodes to
        // None or to a shorter valid value, never panics.
        let op: Op<String, Sdis> = Op::Insert {
            id: pos(&[(1, None), (0, Some(4))]),
            atom: "x".into(),
        };
        let mut buf = Vec::new();
        put_op(&mut buf, &op, &PosId::root());
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            let _ = get_op::<String, Sdis>(&mut cursor, &PosId::root());
        }
        // A shared-prefix claim longer than the previous id is invalid.
        let mut buf = Vec::new();
        put_varint(&mut buf, 5); // shared = 5 against an empty prev
        put_varint(&mut buf, 0);
        let mut cursor = buf.as_slice();
        assert_eq!(get_pos_id::<Sdis>(&mut cursor, &PosId::root()), None);
        // An oversized suffix claim must not allocate; it reads as
        // truncation.
        let mut buf = Vec::new();
        put_varint(&mut buf, 0);
        put_varint(&mut buf, u64::MAX);
        let mut cursor = buf.as_slice();
        assert_eq!(get_pos_id::<Sdis>(&mut cursor, &PosId::root()), None);
        // Unknown op tag.
        let mut cursor = [9u8].as_slice();
        assert_eq!(get_op::<String, Sdis>(&mut cursor, &PosId::root()), None);
    }
}

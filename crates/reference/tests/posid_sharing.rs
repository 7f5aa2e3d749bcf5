//! Differential test: identifier relations do not depend on how chains are
//! shared.
//!
//! The same logical identifiers are built three ways:
//!
//! * fresh from their elements ([`PosId::from_elems`]), sharing nothing;
//! * derived from one common prefix with `child`, `extend_plains`,
//!   `prefix`, `parent` and `major_path`, sharing that prefix by pointer;
//! * passed through the re-link `Treedoc::apply` performs
//!   ([`PosId::relink_onto`]), sharing the hint's chain.
//!
//! Every pair must agree with the element-wise oracle ([`RefPosId`] order,
//! slice equality, element-wise common prefix and ancestor relation) on
//! `cmp`, `==`, `common_prefix_len` and `is_ancestor_of`, and the re-link
//! must apply exactly to the identifiers it is meant for (near misses
//! included) without changing their value. Common prefixes
//! run 20–200 chunks and divergent suffixes 0–60, so the chunk lists the
//! comparisons build both stay inline and spill to the heap.

use std::cmp::Ordering;

use proptest::prelude::*;
use treedoc_core::{PathElem, PosId, Sdis, Side, SiteId};
use treedoc_reference::RefPosId;

type Id = PosId<Sdis>;
type Elems = Vec<PathElem<Sdis>>;

fn dis(n: u64) -> Sdis {
    Sdis::new(SiteId::from_u64(n))
}

/// One generated chunk: a mini-node selection, or a run of plain elements.
#[derive(Debug, Clone)]
struct Chunk {
    side: Side,
    plains: usize,
    dis: Option<u64>,
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    (0u8..2, 1usize..5, proptest::option::of(0u64..3)).prop_map(|(bit, plains, dis)| Chunk {
        side: Side::from_bit(bit),
        plains,
        dis,
    })
}

/// Appends chunks, alternating the side of consecutive plain runs so each
/// one stays its own chunk.
fn extend(id: &Id, chunks: &[Chunk]) -> Id {
    chunks.iter().fold(id.clone(), |id, c| match c.dis {
        Some(d) => id.child_mini(c.side, dis(d)),
        None => {
            let side = match (id.last_dis(), id.last_side()) {
                (None, Some(last)) => last.opposite(),
                _ => c.side,
            };
            id.extend_plains(side, c.plains)
        }
    })
}

/// One derivation step from an identifier.
#[derive(Debug, Clone)]
enum Step {
    Extend(Vec<Chunk>),
    /// Keep this many thousandths of the path.
    Prefix(usize),
    Parent,
    MajorPath,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec(arb_chunk(), 1..30).prop_map(Step::Extend),
        (0usize..1001).prop_map(Step::Prefix),
        (0u8..1).prop_map(|_| Step::Parent),
        (0u8..1).prop_map(|_| Step::MajorPath),
    ]
}

fn derive(base: &Id, steps: &[Step]) -> Id {
    steps.iter().fold(base.clone(), |id, step| match step {
        Step::Extend(chunks) => extend(&id, chunks),
        Step::Prefix(permille) => id.prefix(id.depth() * permille / 1000),
        Step::Parent => id.parent().unwrap_or(id),
        Step::MajorPath => id.major_path(),
    })
}

fn fresh(id: &Id) -> Id {
    PosId::from_elems(id.elems())
}

/// Near misses of `id`, built fresh: each of its last four elements in
/// turn with its side flipped, with a disambiguator added or dropped, and
/// with a different disambiguator (the same shape, so only the values tell
/// the two apart).
fn near_misses(id: &Id) -> Vec<Id> {
    let elems = id.elems();
    let mut out = Vec::new();
    for i in elems.len().saturating_sub(4)..elems.len() {
        let mut flipped = elems.clone();
        flipped[i].side = flipped[i].side.opposite();
        out.push(PosId::from_elems(flipped));
        let mut toggled = elems.clone();
        toggled[i].dis = match toggled[i].dis {
            Some(_) => None,
            None => Some(dis(1)),
        };
        out.push(PosId::from_elems(toggled));
        if elems[i].dis.is_some() {
            let mut other = elems.clone();
            other[i].dis = Some(dis(7));
            out.push(PosId::from_elems(other));
        }
    }
    out
}

/// Chunks of the canonical decomposition: one per disambiguated element,
/// one per maximal same-side plain stretch.
fn oracle_chunks(elems: &Elems) -> usize {
    elems
        .iter()
        .enumerate()
        .filter(|&(i, e)| {
            e.dis.is_some() || i == 0 || elems[i - 1].dis.is_some() || elems[i - 1].side != e.side
        })
        .count()
}

fn oracle_common_prefix(a: &Elems, b: &Elems) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn oracle_is_ancestor(a: &Elems, b: &Elems) -> bool {
    let n = a.len();
    if n >= b.len() {
        return false;
    }
    if n == 0 {
        return true;
    }
    if a[..n - 1] != b[..n - 1] || a[n - 1].side != b[n - 1].side {
        return false;
    }
    match (&a[n - 1].dis, &b[n - 1].dis) {
        (_, None) => true,
        (Some(x), Some(y)) => x == y,
        (None, Some(_)) => false,
    }
}

/// Whether `relink_onto(hint)` must apply: `hint` is longer than 16 chunks,
/// and `id` ends in a mini-node and either hangs off `hint`'s path (its
/// parent is a prefix of `hint`) or is a child of `hint`'s major node.
fn oracle_relinks(id: &Elems, hint: &Elems) -> bool {
    let (Some(last), Some(hint_last)) = (id.last(), hint.last()) else {
        return false;
    };
    if last.dis.is_none() || oracle_chunks(hint) <= 16 {
        return false;
    }
    let parent = &id[..id.len() - 1];
    let mut major = hint.clone();
    *major.last_mut().expect("non-empty") = hint_last.to_plain();
    parent.len() <= hint.len() && parent == &hint[..parent.len()] || parent == &major[..]
}

proptest! {
    #[test]
    fn relations_agree_with_the_oracle_whatever_the_sharing(
        base in proptest::collection::vec(arb_chunk(), 20..200),
        steps_a in proptest::collection::vec(arb_step(), 0..5),
        steps_b in proptest::collection::vec(arb_step(), 0..5),
        next in (0u8..2, 0u64..3),
    ) {
        let base = extend(&Id::root(), &base);
        let a = derive(&base, &steps_a);
        let b = derive(&base, &steps_b);
        // The next keystroke after `b`, and `a` and `b` themselves, arriving
        // as fresh decoded chains and re-linked onto `b`.
        let c = b.major_path().child_mini(Side::from_bit(next.0), dis(next.1));
        // A mini-sibling of `c` derived from the same chain: equal shape, so
        // only the disambiguator values tell the two apart.
        let sibling = b.major_path().child_mini(Side::from_bit(next.0), dis(next.1 + 3));
        let relinked = |id: &Id| id.relink_onto(&b).unwrap_or_else(|| id.clone());
        let ids = [
            a.clone(),
            fresh(&a),
            relinked(&fresh(&a)),
            b.clone(),
            fresh(&b),
            relinked(&fresh(&b)),
            c.clone(),
            fresh(&c),
            relinked(&fresh(&c)),
            sibling.clone(),
            fresh(&sibling),
        ];
        let elems: Vec<Elems> = ids.iter().map(PosId::elems).collect();
        let oracle: Vec<RefPosId<Sdis>> = elems.iter().cloned().map(RefPosId::from_elems).collect();
        for (i, x) in ids.iter().enumerate() {
            prop_assert_eq!(x.depth(), elems[i].len());
            prop_assert_eq!(x.chunk_count(), oracle_chunks(&elems[i]));
            for (j, y) in ids.iter().enumerate() {
                let (xe, ye) = (&elems[i], &elems[j]);
                let want = oracle[i].cmp(&oracle[j]);
                prop_assert_eq!(x.cmp(y), want, "{:?} vs {:?}", x, y);
                prop_assert_eq!(x == y, want == Ordering::Equal);
                prop_assert_eq!(x == y, xe == ye);
                prop_assert_eq!(x.common_prefix_len(y), oracle_common_prefix(xe, ye));
                prop_assert_eq!(x.is_ancestor_of(y), oracle_is_ancestor(xe, ye));
            }
        }

        // The re-link applies exactly when the oracle says it must, near
        // misses of `b` and `c` (same depths, one element off) included, and
        // never changes the identifier's value.
        let candidates: Vec<Id> = ids
            .iter()
            .map(fresh)
            .chain(near_misses(&b))
            .chain(near_misses(&c))
            .collect();
        for hint in [&b, &fresh(&b)] {
            let he = hint.elems();
            for x in &candidates {
                let xe = x.elems();
                let got = x.relink_onto(hint);
                prop_assert_eq!(got.is_some(), oracle_relinks(&xe, &he), "{:?} onto {:?}", x, hint);
                if let Some(got) = got {
                    prop_assert_eq!(got.elems(), xe);
                }
            }
        }
        // `c` is a child of `b`'s major node by construction, so its re-link
        // must apply whenever `b` is long enough.
        prop_assert_eq!(fresh(&c).relink_onto(&b).is_some(), b.chunk_count() > 16);
    }
}

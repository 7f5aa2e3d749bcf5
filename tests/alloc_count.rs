//! Heap-allocation accounting for the identifier hot paths.
//!
//! The chunked, structurally shared `PosId` representation promises that
//! steady-state sequential appends cost O(1) heap allocations per operation:
//! deriving the next identifier reuses the shared prefix, the spine run
//! absorbs the new cell without per-element bookkeeping, and comparisons
//! against neighbouring cells never materialise the path. This test pins that
//! promise with a counting global allocator: the per-op allocation count must
//! stay flat as the document grows, and must stay under a small constant.
//!
//! The counting allocator requires `unsafe` (the `GlobalAlloc` contract);
//! that is why this lives in the umbrella crate's integration tests — the
//! library crates all `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use treedoc_core::{codec, PosId, Sdis, Side, SiteId, Treedoc, Udis};
use treedoc_replication::{decode_envelope, encode_envelope, Replica};

struct CountingAlloc;

thread_local! {
    // Per thread, so tests measuring on parallel test threads never see each
    // other's allocations. Const-initialised and destructor-free: touching it
    // from inside the allocator neither allocates nor registers a TLS
    // destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no measurement window.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations per append in a `window`-op window starting after `prefix`
/// ops of warm-up on a fresh document.
fn sdis_appends_per_op(prefix: usize, window: usize) -> f64 {
    let mut doc = Treedoc::<char, Sdis>::new(SiteId::from_u64(1));
    for i in 0..prefix {
        doc.local_insert(i, 'a').unwrap();
    }
    let start = allocs();
    for i in 0..window {
        doc.local_insert(prefix + i, 'b').unwrap();
    }
    (allocs() - start) as f64 / window as f64
}

#[test]
fn sequential_append_allocations_are_constant_per_op() {
    // Measure identical windows at 4× different document sizes. Under the old
    // owned-Vec identifiers every derived id cloned the whole path, so the
    // deep window allocated ~4× more per op; the shared representation must
    // keep the two within noise of each other.
    let shallow = sdis_appends_per_op(2_048, 1_024);
    let deep = sdis_appends_per_op(8_192, 1_024);
    assert!(
        deep <= shallow * 1.5 + 1.0,
        "per-op allocations grew with document depth: {shallow:.2} at 2k ops \
         vs {deep:.2} at 8k ops"
    );
    // And the absolute count must be a small constant: a handful of chunk
    // nodes for the derived identifier plus run-tree bookkeeping — not
    // O(depth).
    assert!(
        deep <= 24.0,
        "sequential append allocates {deep:.2} times per op (want O(1), ≤ 24)"
    );
}

#[test]
fn remote_replay_allocations_are_constant_per_op() {
    // Generate an op log by sequential typing, then measure the replay side
    // (the anti-entropy / catch-up hot path) the same way.
    let mut src = Treedoc::<char, Udis>::new(SiteId::from_u64(1));
    let ops: Vec<_> = (0..8_192)
        .map(|i| src.local_insert(i, 'x').unwrap())
        .collect();

    let mut dst = Treedoc::<char, Udis>::new(SiteId::from_u64(2));
    for op in &ops[..2_048] {
        dst.apply(op).unwrap();
    }
    let start = allocs();
    for op in &ops[2_048..3_072] {
        dst.apply(op).unwrap();
    }
    let shallow = (allocs() - start) as f64 / 1_024.0;

    for op in &ops[3_072..7_168] {
        dst.apply(op).unwrap();
    }
    let start = allocs();
    for op in &ops[7_168..] {
        dst.apply(op).unwrap();
    }
    let deep = (allocs() - start) as f64 / 1_024.0;

    assert!(
        deep <= shallow * 1.5 + 1.0,
        "per-op replay allocations grew with document depth: {shallow:.2} \
         early vs {deep:.2} late"
    );
    assert!(
        deep <= 24.0,
        "remote replay allocates {deep:.2} times per op (want O(1), ≤ 24)"
    );
}

/// Allocations made while decoding one single-op envelope whose identifier
/// is `depth` elements deep in three chunks.
fn envelope_decode_allocs(depth: usize) -> u64 {
    type Op = treedoc_core::Op<char, Sdis>;
    let site = SiteId::from_u64(1);
    let id = PosId::root()
        .extend_plains(Side::Right, depth - 2)
        .extend_plains(Side::Left, 1)
        .child_mini(Side::Right, Sdis::new(site));
    assert_eq!(id.chunk_count(), 3);
    let mut writer = Replica::new(site, Treedoc::<char, Sdis>::new(site));
    let bytes = encode_envelope(&writer.stamp_envelope(Op::Insert { id, atom: 'x' }));
    let start = allocs();
    let decoded = decode_envelope::<Op>(&bytes).expect("decodes");
    let spent = allocs() - start;
    drop(decoded);
    spent
}

#[test]
fn envelope_decode_allocations_follow_chunks_not_depth() {
    // One chunk per same-side plain stretch: a 100k-deep identifier in
    // three chunks decodes with the allocations of a 1k-deep one.
    let shallow = envelope_decode_allocs(1_000);
    let deep = envelope_decode_allocs(100_000);
    assert!(
        deep <= shallow,
        "decoding a 100k-deep identifier allocated {deep} times, a 1k-deep one {shallow}"
    );
}

/// A typing stream with backspaces: the key at step `i` is a backspace
/// with probability 1/25 (when there is text), otherwise an appended char.
fn typing_keys(n: usize) -> Vec<bool> {
    let mut state = 0x5EED_u64;
    let mut len = 0usize;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let backspace = len > 0 && (state >> 33) % 25 == 0;
            if backspace {
                len -= 1;
            } else {
                len += 1;
            }
            backspace
        })
        .collect()
}

/// Types `keys` into `doc`, returning the operations.
fn type_keys(doc: &mut Treedoc<char, Sdis>, keys: &[bool]) -> Vec<treedoc_core::Op<char, Sdis>> {
    keys.iter()
        .map(|&backspace| {
            if backspace {
                doc.local_delete(doc.len() - 1).unwrap()
            } else {
                doc.local_insert(doc.len(), 'k').unwrap()
            }
        })
        .collect()
}

#[test]
fn typing_with_backspaces_allocations_are_constant_per_op() {
    // Every backspace adds a direction change, so the tip identifier gains a
    // chunk; local edits and the remote decode → apply must still cost the
    // same allocations per op at 4× the document size.
    let keys = typing_keys(10_240);
    let window = 1_024;
    let (shallow_at, deep_at) = (2_048, 8_192);

    let mut writer = Treedoc::<char, Sdis>::new(SiteId::from_u64(1));
    let mut ops = type_keys(&mut writer, &keys[..shallow_at]);
    let start = allocs();
    ops.extend(type_keys(
        &mut writer,
        &keys[shallow_at..shallow_at + window],
    ));
    let local_shallow = (allocs() - start) as f64 / window as f64;
    ops.extend(type_keys(&mut writer, &keys[shallow_at + window..deep_at]));
    let start = allocs();
    ops.extend(type_keys(&mut writer, &keys[deep_at..deep_at + window]));
    let local_deep = (allocs() - start) as f64 / window as f64;
    ops.extend(type_keys(&mut writer, &keys[deep_at + window..]));
    assert!(
        local_deep <= local_shallow * 1.5 + 1.0,
        "local typing allocations grew with the document: {local_shallow:.2} at 2k ops \
         vs {local_deep:.2} at 8k ops"
    );

    // The stream as an op batch ships it: each identifier delta-encoded
    // against the previous one.
    let mut bytes = Vec::new();
    let mut prev = PosId::root();
    for op in &ops {
        codec::put_op(&mut bytes, op, &prev);
        prev = op.id().clone();
    }
    let mut input = bytes.as_slice();
    let mut remote = Treedoc::<char, Sdis>::new(SiteId::from_u64(2));
    let mut prev = PosId::root();
    let mut replay = |n: usize| {
        for _ in 0..n {
            let op: treedoc_core::Op<char, Sdis> = codec::get_op(&mut input, &prev).unwrap();
            remote.apply(&op).unwrap();
            prev = op.id().clone();
        }
    };
    replay(shallow_at);
    let start = allocs();
    replay(window);
    let remote_shallow = (allocs() - start) as f64 / window as f64;
    replay(deep_at - shallow_at - window);
    let start = allocs();
    replay(window);
    let remote_deep = (allocs() - start) as f64 / window as f64;
    assert!(
        remote_deep <= remote_shallow * 1.5 + 1.0,
        "remote decode → apply allocations grew with the document: {remote_shallow:.2} \
         at 2k ops vs {remote_deep:.2} at 8k ops"
    );
    assert!(
        local_deep <= 24.0 && remote_deep <= 24.0,
        "typing allocates {local_deep:.2} (local) / {remote_deep:.2} (remote) times per \
         op (want O(1), ≤ 24)"
    );
}

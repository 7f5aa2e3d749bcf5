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

use treedoc_core::{Sdis, SiteId, Treedoc, Udis};

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

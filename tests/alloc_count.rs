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
//! The same allocator also tracks the largest single allocation, which
//! bounds what a corrupted WAL record or snapshot can make a decoder
//! reserve.
//!
//! The counting allocator requires `unsafe` (the `GlobalAlloc` contract);
//! that is why this lives in the umbrella crate's integration tests — the
//! library crates all `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use treedoc_core::{codec, PosId, Sdis, Side, SiteId, Treedoc, Udis};
use treedoc_replication::persist::{SECTION_REPLICA, SECTION_RUNS};
use treedoc_replication::wire::WalChain;
use treedoc_replication::{
    decode_envelope, encode_envelope, CausalMessage, ChainedOp, Envelope, OpBatch,
    PersistentDocument, RecoverError, Replica, SyncDocument, WalRecord,
};
use treedoc_storage::{DocStore, GroupWal, Snapshot};

struct CountingAlloc;

thread_local! {
    // Per thread, so tests measuring on parallel test threads never see each
    // other's allocations. Const-initialised and destructor-free: touching it
    // from inside the allocator neither allocates nor registers a TLS
    // destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no measurement window.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// The largest single allocation the calling thread made while running `f`.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let outer = LARGEST.with(|l| l.replace(0));
    let out = f();
    let largest = LARGEST.with(|l| l.replace(outer.max(l.get())));
    (out, largest)
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
    // Every double backspace forks the spine, a direction change, so the
    // tip identifier gains a chunk; local edits and the remote decode →
    // apply must still cost the same allocations per op at 4× the document
    // size.
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
    // The key after a backspace continues the run past the tombstone. A
    // backspace within two keys of the previous one (a double backspace, or
    // one that deletes the key typed past a tombstone) leaves two dead
    // cells in a row, and the next key forks under the first: two runs.
    let close = (1..keys.len())
        .filter(|&i| keys[i] && (keys[i - 1] || (i >= 2 && keys[i - 2])))
        .count();
    let runs = writer.store().run_count();
    assert!(
        runs <= 1 + 2 * close,
        "{runs} runs for {close} backspaces within two keys of the previous one"
    );
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

type TypingOp = treedoc_core::Op<char, Sdis>;

/// Types `keys` at a journaling writer whose every envelope a journaling
/// reader receives, then recovers both from their stores. Returns the
/// allocations per replayed record and the WAL bytes per record.
fn typing_recovery_costs(keys: &[bool]) -> (f64, f64) {
    let sites = [1, 2].map(SiteId::from_u64);
    let mut replicas = sites.map(|site| {
        let mut replica = Replica::new(site, Treedoc::<char, Sdis>::new(site));
        replica.attach_store(DocStore::in_memory()).unwrap();
        replica
    });
    for key in keys {
        let [writer, reader] = &mut replicas;
        let op = type_keys(writer.doc_mut(), std::slice::from_ref(key)).remove(0);
        let envelope = writer.stamp_envelope(op);
        reader.receive_envelope(envelope);
    }
    let (mut records, mut bytes, mut spent) = (0, 0, 0);
    for replica in &mut replicas {
        let store = replica.detach_store().unwrap();
        bytes += store.wal_len().unwrap();
        let start = allocs();
        let (recovered, report) = Replica::<Treedoc<char, Sdis>>::recover(store).unwrap();
        spent += allocs() - start;
        records += report.wal_records_replayed;
        assert_eq!(recovered.digest(), replica.digest());
    }
    assert_eq!(records, 2 * keys.len());
    (spent as f64 / records as f64, bytes as f64 / records as f64)
}

#[test]
fn typing_recovery_is_constant_per_record_in_allocations_and_wal_bytes() {
    // Each journaled keystroke is chained to the one before it, so it costs
    // the same few bytes to write and the same work to replay however deep
    // the identifiers have grown.
    let keys = typing_keys(8_192);
    let (allocs_1k, bytes_1k) = typing_recovery_costs(&keys[..1_024]);
    let (allocs_8k, bytes_8k) = typing_recovery_costs(&keys);
    assert!(
        allocs_8k <= allocs_1k * 1.5 + 1.0,
        "recovery allocations per record grew with the log: {allocs_1k:.2} at 1k \
         keystrokes vs {allocs_8k:.2} at 8k"
    );
    assert!(
        bytes_1k <= 32.0 && bytes_8k <= 32.0,
        "a journaled keystroke costs {bytes_1k:.1} B at 1k and {bytes_8k:.1} B at 8k \
         (want ≤ 32 B, frame header included)"
    );
}

/// Types `keys` at a writer whose every envelope crosses the wire codec to
/// a reader; returns the allocations per keystroke and the wire bytes per
/// envelope of the last `window` keystrokes.
fn typing_wire_costs(keys: &[bool], window: usize) -> (f64, f64) {
    let sites = [1, 2].map(SiteId::from_u64);
    let [mut writer, mut reader] =
        sites.map(|site| Replica::new(site, Treedoc::<char, Sdis>::new(site)));
    let (mut spent, mut bytes) = (0, 0);
    for (i, key) in keys.iter().enumerate() {
        let measured = i >= keys.len() - window;
        let start = allocs();
        let op = type_keys(writer.doc_mut(), std::slice::from_ref(key)).remove(0);
        let wire = encode_envelope(&writer.stamp_envelope(op));
        let envelope = decode_envelope::<TypingOp>(&wire).unwrap();
        assert_eq!(reader.receive_envelope(envelope), 1);
        if measured {
            spent += allocs() - start;
            bytes += wire.len();
        }
    }
    assert_eq!(writer.digest(), reader.digest());
    (spent as f64 / window as f64, bytes as f64 / window as f64)
}

#[test]
fn typing_over_the_wire_is_flat_per_keystroke_in_allocations_and_bytes() {
    // Every envelope after the first is chained to the writer's previous
    // stamp and resolves onto the reader's own identifier chain, so a
    // keystroke costs the same allocations and the same few wire bytes at
    // 8k keystrokes as at 1k, however deep the identifiers have grown.
    let keys = typing_keys(8_192);
    let window = 512;
    let (allocs_1k, bytes_1k) = typing_wire_costs(&keys[..1_024], window);
    let (allocs_8k, bytes_8k) = typing_wire_costs(&keys, window);
    assert!(
        allocs_8k <= allocs_1k * 1.5 + 1.0,
        "wire-path allocations per keystroke grew with the document: {allocs_1k:.2} at 1k \
         keystrokes vs {allocs_8k:.2} at 8k"
    );
    assert!(
        bytes_8k <= bytes_1k * 1.1 + 1.0 && bytes_8k <= 32.0,
        "a keystroke's envelope costs {bytes_1k:.1} B at 1k and {bytes_8k:.1} B at 8k \
         (want flat, ≤ 32 B)"
    );
}

#[test]
fn corrupted_wal_records_never_over_allocate() {
    // A chained journal: typing with backspaces, a received batch from
    // another site, and records without operations. Every truncation and
    // every single-bit flip or saturated byte of its records decodes to an
    // error or a record without any single allocation beyond a small
    // multiple of the input.
    let site = SiteId::from_u64(1);
    let mut doc = Treedoc::<char, Sdis>::new(site);
    let stamp = |seq: u64, payload: TypingOp| CausalMessage {
        sender: site,
        clock: {
            let mut clock = treedoc_replication::VectorClock::new();
            for _ in 0..seq {
                clock.increment(site);
            }
            clock
        },
        payload,
    };
    let ops = type_keys(&mut doc, &typing_keys(600));
    let mut records: Vec<WalRecord<TypingOp>> = ops
        .into_iter()
        .zip(1..)
        .map(|(op, seq)| WalRecord::Stamped {
            epoch: 0,
            msg: stamp(seq, op),
        })
        .collect();
    let mut other = Treedoc::<char, Sdis>::new(SiteId::from_u64(2));
    let batch: Vec<(u64, CausalMessage<TypingOp>)> = type_keys(&mut other, &typing_keys(8))
        .into_iter()
        .map(|op| (0, stamp(1, op)))
        .collect();
    records.push(WalRecord::Received {
        envelope: Envelope::OpBatch(OpBatch { entries: batch }),
    });
    records.push(WalRecord::PeersEnabled {
        peers: vec![SiteId::from_u64(2)],
    });
    // Chained envelopes parked for their predecessor, journaled as
    // received: two stamps of the typing stream.
    for at in [500, 560] {
        let [WalRecord::Stamped { msg: prev, .. }, WalRecord::Stamped { epoch, msg }] =
            &records[at..at + 2]
        else {
            unreachable!("the typing stream is stamps");
        };
        let envelope = Envelope::OpChained(ChainedOp::after(*epoch, msg, prev));
        records.push(WalRecord::Received { envelope });
    }
    records.push(records[records.len() - 5].clone());

    let mut chain = WalChain::new();
    let mut journal = Vec::new();
    for record in records {
        journal.push((chain.clone(), chain.encode(&record)));
        chain.advance(record);
    }
    let checked = journal.len() - 48..journal.len();
    for (prev, bytes) in journal[..16].iter().chain(&journal[checked]) {
        let mut mutations: Vec<Vec<u8>> =
            (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            mutations.push(flipped);
        }
        // A saturated byte turns a count or length into a long varint.
        for at in 0..bytes.len() {
            let mut saturated = bytes.clone();
            saturated[at] = 0xff;
            mutations.push(saturated);
        }
        for input in mutations {
            let mut reader = prev.clone();
            let (_, largest) = largest_allocation_in(|| reader.decode(&input));
            assert!(
                largest <= 32 * input.len() + 1_024,
                "decoding {input:02x?} reserved {largest} B at once"
            );
        }
    }
}

/// A checkpoint of a replica that typed after a 30-atom exploded seed and
/// received another site's edits into the seed and into its typing (an
/// exploded run split in two, tombstones, spine runs, packed shrapnel).
/// Its `replica` section holds a send log, chain heads, a parked chained
/// op and a held-back message.
fn checkpoint() -> &'static Snapshot {
    static SNAPSHOT: std::sync::OnceLock<Snapshot> = std::sync::OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let site = SiteId::from_u64(1);
        let other = SiteId::from_u64(2);
        let seed = ['s'; 30];
        let mut replica = Replica::new(site, Treedoc::<char, Sdis>::from_atoms(site, &seed));
        replica.attach_store(DocStore::in_memory()).unwrap();
        for (k, op) in type_keys(replica.doc_mut(), &typing_keys(160))
            .into_iter()
            .enumerate()
        {
            if k == 152 {
                replica.enable_at_least_once(&[other]);
            }
            let _ = replica.stamp(op);
        }
        let mut peer = Replica::new(other, Treedoc::new(other));
        peer.doc_mut().adopt_state(replica.doc().clone());
        for at in [5, 6].into_iter().chain(70..82) {
            let op = peer.doc_mut().local_insert(at, 'x').unwrap();
            replica.receive_envelope(peer.stamp_envelope(op));
        }
        // Three more: the first lost, the second (chained to it) parked, the
        // third held back behind both.
        let mut more = || peer.doc_mut().local_insert(0, 'y').unwrap();
        let (lost, parked, held) = (more(), more(), more());
        let _ = peer.stamp_envelope(lost);
        replica.receive_envelope(peer.stamp_envelope(parked));
        replica.receive(peer.stamp(held));
        assert_eq!(replica.pending(), 2, "one parked op, one held-back message");
        replica.persist_checkpoint().unwrap();
        let mut store = replica.detach_store().unwrap();
        store.recover().unwrap().snapshot.unwrap().1
    })
}

const RUN_EXPLODED: u8 = 2;
const RUN_PACKED: u8 = 3;

/// One record of a `doc.runs` section, parsed back by hand.
#[derive(Clone)]
struct RunRecord {
    tag: u8,
    len: u64,
    /// The anchor or base, or a packed run's every identifier.
    ids: Vec<PosId<Sdis>>,
    /// An exploded run's depth and start.
    params: Vec<u64>,
    /// Content states and atoms.
    body: Vec<u8>,
    /// The run's last identifier: the next record's delta base.
    last: PosId<Sdis>,
}

/// Splits `checkpoint()`'s `doc.runs` section into its header and its run
/// records. A record's identifiers are delta-encoded against the previous
/// run's last identifier, which the store's cell list supplies.
fn run_records() -> (Vec<u8>, Vec<RunRecord>) {
    let base = checkpoint();
    let doc = Treedoc::<char, Sdis>::decode_sections(base).unwrap();
    let cells = doc.store().collect_cells();
    let mut runs = Vec::new();
    doc.store().encode_runs(&mut runs);
    let section = base.section(SECTION_RUNS).unwrap();
    let header = section[..section.len() - runs.len()].to_vec();
    let mut input = runs.as_slice();
    let count = codec::get_varint(&mut input).unwrap();
    let mut prev = PosId::root();
    let mut cell = 0;
    let records: Vec<RunRecord> = (0..count)
        .map(|_| {
            let tag = codec::get_u8(&mut input).unwrap();
            let len = codec::get_varint(&mut input).unwrap();
            let mut ids: Vec<PosId<Sdis>> = Vec::new();
            for _ in 0..if tag == RUN_PACKED { len } else { 1 } {
                let id = codec::get_pos_id(&mut input, ids.last().unwrap_or(&prev)).unwrap();
                ids.push(id);
            }
            let params = match tag {
                RUN_EXPLODED => (0..2)
                    .map(|_| codec::get_varint(&mut input).unwrap())
                    .collect(),
                _ => Vec::new(),
            };
            let body = input;
            let states = len.div_ceil(4) as usize;
            let live = (0..len as usize)
                .filter(|j| (input[j / 4] >> (2 * (j % 4))) & 3 == 0)
                .count();
            input = &input[states..];
            for _ in 0..live {
                codec::get_varint(&mut input).unwrap();
            }
            cell += len as usize;
            prev = cells[cell - 1].0.clone();
            RunRecord {
                tag,
                len,
                ids,
                params,
                body: body[..body.len() - input.len()].to_vec(),
                last: prev.clone(),
            }
        })
        .collect();
    assert!(input.is_empty() && cell == cells.len());
    assert_eq!(encode_records(&records), runs, "the parse is exact");
    (header, records)
}

/// Writes run records back, each delta-encoded against the record before
/// it in the given order.
fn encode_records(records: &[RunRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_varint(&mut out, records.len() as u64);
    let mut prev = PosId::root();
    for record in records {
        codec::put_u8(&mut out, record.tag);
        codec::put_varint(&mut out, record.len);
        for id in &record.ids {
            codec::put_pos_id(&mut out, id, &prev);
            prev = id.clone();
        }
        for &param in &record.params {
            codec::put_varint(&mut out, param);
        }
        out.extend_from_slice(&record.body);
        prev = record.last.clone();
    }
    out
}

/// Loads `base` with section `name` replaced by `mutated` through both
/// load paths (a late joiner's bootstrap, for the document's sections, and
/// recovery from a store): each ends in a typed error or a valid load,
/// fails when `must_fail`, and never reserves more than a small multiple of
/// the snapshot at once.
fn load_forged(
    base: &Snapshot,
    name: &str,
    mutated: Vec<u8>,
    must_fail: bool,
) -> Result<(), TestCaseError> {
    // Encoding the snapshot recomputes the manifest's hashes, so the
    // section decoders themselves meet the damage.
    let mut forged = base.clone();
    forged.push_section(name, mutated);
    let bytes = forged.encode();
    let bound = 32 * bytes.len() + 1_024;

    if name == SECTION_RUNS {
        let mut joiner = Treedoc::<char, Sdis>::new(SiteId::from_u64(9));
        let (adopted, largest) = largest_allocation_in(|| joiner.adopt_bootstrap(&bytes));
        prop_assert!(largest <= bound, "bootstrap reserved {} B at once", largest);
        // A loaded store passes its invariants, which recompute every
        // run's aggregates — its merkle digest included — from its cells.
        if adopted.is_some() {
            prop_assert!(!must_fail, "bootstrap accepted a mutation of {}", name);
            joiner.check_invariants().unwrap();
        }
    }

    let mut store = DocStore::in_memory();
    store.checkpoint(0, &forged).unwrap();
    let (recovered, largest) =
        largest_allocation_in(|| Replica::<Treedoc<char, Sdis>>::recover(store));
    prop_assert!(largest <= bound, "recovery reserved {} B at once", largest);
    match recovered {
        Ok((replica, _)) => {
            prop_assert!(!must_fail, "recovery accepted a mutation of {}", name);
            replica.doc().check_invariants().unwrap();
        }
        Err(RecoverError::Parse(_)) => {}
        Err(e) => prop_assert!(false, "{}: an untyped failure: {}", name, e),
    }
    Ok(())
}

proptest! {
    /// Truncated, bit-flipped and reordered `doc.runs` sections, and run
    /// records with an inflated length, exploded depth or start, load
    /// totally ([`load_forged`]); reordered runs and out-of-range depths
    /// are always rejected. So do truncated and bit-flipped `replica`
    /// sections, each case sweeping the whole section: every truncation
    /// (always rejected), or one bit of every byte in turn.
    #[test]
    fn corrupted_run_sections_load_totally_without_over_allocating(
        kind in 0u8..8,
        at in any::<usize>(),
    ) {
        let base = checkpoint();
        let section = base.section(SECTION_RUNS).unwrap();
        let image = base.section(SECTION_REPLICA).unwrap();
        if kind == 6 {
            for cut in 0..image.len() {
                load_forged(base, SECTION_REPLICA, image[..cut].to_vec(), true)?;
            }
            return Ok(());
        }
        if kind == 7 {
            for i in 0..image.len() {
                let mut flipped = image.to_vec();
                flipped[i] ^= 1 << (at % 8);
                load_forged(base, SECTION_REPLICA, flipped, false)?;
            }
            return Ok(());
        }
        let (header, mut records) = run_records();
        let exploded: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].tag == RUN_EXPLODED)
            .collect();
        prop_assert_eq!(exploded.len(), 2, "the seed is split in two");
        let mut must_fail = false;
        let mutated = match kind {
            0 => section[..at % section.len()].to_vec(),
            1 => {
                let mut flipped = section.to_vec();
                flipped[at / 8 % section.len()] ^= 1 << (at % 8);
                flipped
            }
            2 => {
                let i = at % (records.len() - 1);
                records.swap(i, i + 1);
                must_fail = true;
                [header, encode_records(&records)].concat()
            }
            3 => {
                let i = at % records.len();
                records[i].len += 1 + (at / 64 % 64) as u64;
                [header, encode_records(&records)].concat()
            }
            4 => {
                let depth = &mut records[exploded[at % 2]].params[0];
                if at / 2 % 2 == 0 {
                    *depth += 1 + (at / 4 % 8) as u64;
                } else {
                    *depth = 64 + (at / 4 % 1_000) as u64;
                    must_fail = true;
                }
                [header, encode_records(&records)].concat()
            }
            _ => {
                records[exploded[at % 2]].params[1] += 1 + (at / 2 % 4_096) as u64;
                [header, encode_records(&records)].concat()
            }
        };
        load_forged(base, SECTION_RUNS, mutated, must_fail)?;
    }
}

#[test]
fn rebinding_telemetry_to_a_registry_that_holds_every_name_allocates_nothing() {
    // The hosting node re-resolves a replica's instruments (and its store's)
    // on every fault-in. Once the registry holds every name, resolving them
    // again is a lookup per name, never a fresh key.
    let registry = treedoc_telemetry::Registry::new();
    let telemetry = registry.handle();
    let site = SiteId::from_u64(1);
    let mut replica = Replica::new(site, Treedoc::<char, Sdis>::new(site));
    replica.attach_store(DocStore::in_memory()).unwrap();
    replica.set_telemetry(&telemetry);
    let names = registry.snapshot().counters.len();
    assert!(names >= 10, "the first binding created the names: {names}");
    let before = allocs();
    replica.set_telemetry(&telemetry);
    assert_eq!(allocs() - before, 0, "a second binding allocated");
}

#[test]
fn group_enqueue_frames_in_place_without_allocating_per_record() {
    // A record for a document the group WAL already knows is framed
    // straight into the shared queue and indexed at flush into a vector
    // that grows geometrically: no buffer, name copy or index node per
    // record. Flushing every 64 records, as a busy node commits, keeps the
    // flush's own few allocations well under one per record too.
    let wal = GroupWal::in_memory();
    let docs = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"];
    for doc in docs {
        wal.enqueue(doc, 0, b"warm-up");
    }
    wal.flush().unwrap();
    let payload = [7u8; 40];
    let records = 10_000u64;
    let start = allocs();
    for i in 0..records {
        wal.enqueue(docs[i as usize % docs.len()], 1, &payload);
        if i % 64 == 63 {
            wal.flush().unwrap();
        }
    }
    let per_record = (allocs() - start) as f64 / records as f64;
    assert!(
        per_record < 0.1,
        "group enqueue allocates {per_record:.3} times per record (want < 0.1)"
    );
}

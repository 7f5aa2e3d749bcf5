//! End-to-end and per-layer benchmark of the Treedoc edit path.
//!
//! The benchmark drives the repository's crates only through their public
//! functions and times each call from outside: `core` (`Treedoc`),
//! `replica` (`Replica` stamp/receive, hold-back, batching), `wire`
//! (`encode_envelope`/`decode_envelope`), `net` (`SimNetwork`), `storage`
//! (`DocStore`, WAL, `GroupWal`, backends — seen through [`io::TimedBackend`]),
//! `node` (`HostingNode`) and `telemetry` (`Registry`). Every input is
//! generated here from the seed. See `README.md` in this directory for the
//! metrics, the workloads and what is not measured.

pub mod episode;
pub mod hosting;
pub mod io;
pub mod mixed;
pub mod reference;
pub mod report;
pub mod rng;
pub mod trace;
pub mod typing;

use std::time::Instant;

use treedoc_core::{Sdis, Treedoc};
use treedoc_replication::Replica;
use treedoc_storage::{DocStore, SharedBackend};

use crate::episode::Episode;
use crate::io::IoCounters;
use crate::reference::HostScale;
use crate::trace::{in_span, Phase};

/// The character document every workload edits (the hosting node's type).
pub type Doc = Treedoc<char, Sdis>;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["typing", "mixed", "hosting"];

/// Runs one episode of `workload` at its defined size, with its latency
/// samples summarized.
pub fn run_episode(workload: &str, seed: u64) -> Option<Episode> {
    let mut episode = match workload {
        "typing" => typing::episode(&typing::TYPING, seed),
        "mixed" => mixed::episode(&mixed::MIXED, seed),
        "hosting" => hosting::episode(&hosting::HOSTING, seed),
        _ => return None,
    };
    episode.summarize_latencies();
    Some(episode)
}

/// One generated keystroke.
#[derive(Debug, Clone, Copy)]
enum Key {
    Char(char),
    Backspace,
}

/// A burst of 1 to `max` keystrokes. A backspace only ever removes a
/// character typed earlier in the same burst, so it never races another
/// site's edit and the live length stays inserts − deletes.
fn burst(rng: &mut rng::Rng, max: u64, backspace_p: f64) -> Vec<Key> {
    let mut typed = 0;
    (0..rng.range(1, max))
        .map(|_| {
            if typed > 0 && rng.chance(backspace_p) {
                typed -= 1;
                Key::Backspace
            } else {
                typed += 1;
                Key::Char(rng.text_char())
            }
        })
        .collect()
}

/// Records the identifier-tree figures of `doc` after the timed loop.
fn note_core_stats(ep: &mut Episode, doc: &Doc) {
    let stats = doc.stats();
    ep.counts.height = doc.height() as u64;
    ep.counts.posid_bits = stats.pos_ids.total_bits as u64;
    ep.counts.posid_slots = stats.pos_ids.nodes as u64;
    ep.counts.index_bytes = doc.index_bytes() as u64;
    ep.counts.live_atoms = stats.live_atoms as u64;
}

/// Opens a store over `disk` and attaches it to `replica`.
fn attach_store(ep: &mut Episode, replica: &mut Replica<Doc>, disk: &SharedBackend) {
    if let Some(store) = ep.attempt("open store", DocStore::new(disk.clone())) {
        let attached = replica.attach_store(store);
        ep.attempt("attach store", attached);
    }
}

/// Cold restarts of a crashed replica per episode, each from the same
/// backend. One restart is a single call that the host-speed reference
/// cannot split, so an episode reports the median of a few.
const RESTARTS: usize = 3;

/// Cold restart of a crashed replica from the backend that outlived it:
/// reopens the store, recovers, and checks the result against the
/// pre-crash digest and the benchmark's own length count, [`RESTARTS`]
/// times.
fn recover_replica(
    ep: &mut Episode,
    host: &mut HostScale,
    disk: &SharedBackend,
    io: &IoCounters,
    digest_before_crash: u64,
    expected_len: u64,
) {
    trace::set_phase(Phase::Recovery);
    let mut raw = Vec::with_capacity(RESTARTS);
    let mut scaled = Vec::with_capacity(RESTARTS);
    for restart in 0..RESTARTS {
        let io_before = io.snapshot();
        host.probe();
        let started = Instant::now();
        let recovered = in_span("replica.recover", || {
            DocStore::new(disk.clone())
                .map_err(|e| e.to_string())
                .and_then(|store| Replica::<Doc>::recover(store).map_err(|e| e.to_string()))
        });
        let secs = started.elapsed().as_secs_f64();
        raw.push(secs);
        scaled.push(secs * host.factor());
        let recovery_io = io.snapshot().minus(io_before);
        let Some((replica, report)) = ep.attempt("recover", recovered) else {
            return;
        };
        let (replayed, bytes) = (
            report.wal_records_replayed as u64,
            report.bytes_recovered as u64,
        );
        if restart == 0 {
            ep.recovery_io = recovery_io;
            ep.counts.records_replayed = replayed;
            ep.counts.bytes_recovered = bytes;
        } else {
            ep.check(
                (replayed, bytes) == (ep.counts.records_replayed, ep.counts.bytes_recovered),
                || "a repeated recovery read a different log".into(),
            );
        }
        ep.check(replica.digest() == digest_before_crash, || {
            "recovered replica differs from its pre-crash digest".into()
        });
        ep.check(replica.doc().len() as u64 == expected_len, || {
            format!(
                "recovered length {} != expected {expected_len}",
                replica.doc().len()
            )
        });
    }
    ep.recover_s = report::median(&raw);
    ep.scaled.recover_s = report::median(&scaled);
    ep.reference_ns = host.mean_ns();
}

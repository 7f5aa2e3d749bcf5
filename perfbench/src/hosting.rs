//! `hosting`: one `HostingNode` hosts a population of documents far larger
//! than its resident set. Every document has a connected user; visits pick
//! a document by Zipf popularity and make a short edit at a random cursor,
//! and the node group-commits every few visits with a live telemetry
//! `Registry` attached. At the end the node commits, crashes and restarts;
//! the working set that was resident is faulted back in (timed), then every
//! document is faulted in and verified.
//!
//! Why: it is the only workload whose data exceeds the program's own cache
//! (the resident set) and the only one with telemetry on. It loads
//! eviction and fault-in, the group-commit WAL and telemetry, and bypasses
//! `wire` and causal hold-back.

use std::time::{Duration, Instant};

use treedoc_node::{HostingNode, NodeConfig, SessionId};
use treedoc_storage::SharedBackend;
use treedoc_telemetry::Registry;

use crate::episode::{Episode, TelemetryCounts};
use crate::io::{IoCounters, TimedBackend};
use crate::reference::HostScale;
use crate::rng::Rng;
use crate::trace::{self, in_span, Phase};
use crate::{burst, Key};

/// Size of a `hosting` episode.
#[derive(Debug, Clone, Copy)]
pub struct HostingSpec {
    /// Hosted documents.
    pub docs: u64,
    /// The node's resident-set capacity.
    pub max_resident: usize,
    /// Shards (one backend and one group WAL each).
    pub shards: usize,
    /// Characters each document holds before the timed loop.
    pub initial_chars: usize,
    /// Visits per episode.
    pub visits: usize,
    /// Longest visit, in keystrokes.
    pub visit_max_keys: u64,
    /// Chance that a keystroke after the first of a visit is a backspace.
    pub backspace_p: f64,
    /// Visits between node commits.
    pub commit_every: usize,
    /// Zipf exponent of document popularity.
    pub zipf_s: f64,
    /// Visits per segment of the timed loop: the host-speed reference is
    /// timed between segments (see [`crate::reference`]).
    pub segment: usize,
}

/// The `hosting` workload: 400 documents over a 32-document resident set.
pub const HOSTING: HostingSpec = HostingSpec {
    docs: 400,
    max_resident: 32,
    shards: 4,
    initial_chars: 24,
    visits: 1_200,
    visit_max_keys: 12,
    backspace_p: 0.2,
    commit_every: 8,
    zipf_s: 1.1,
    segment: 200,
};

#[derive(Debug)]
struct Visit {
    doc: u64,
    cursor: u64,
    keys: Vec<Key>,
}

/// Zipf-distributed document choice: rank `k` has weight `k^-s`, and a
/// seeded permutation decides which document holds which rank.
struct Zipf {
    cdf: Vec<f64>,
    doc_of_rank: Vec<u64>,
}

impl Zipf {
    fn new(docs: u64, s: f64, rng: &mut Rng) -> Self {
        let mut total = 0.0;
        let cdf = (1..=docs)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|c| c / total)
            .collect();
        let mut doc_of_rank: Vec<u64> = (0..docs).collect();
        for i in (1..doc_of_rank.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            doc_of_rank.swap(i, j);
        }
        Zipf { cdf, doc_of_rank }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.doc_of_rank[rank.min(self.doc_of_rank.len() - 1)]
    }
}

fn script(spec: &HostingSpec, rng: &mut Rng) -> Vec<Visit> {
    let zipf = Zipf::new(spec.docs, spec.zipf_s, rng);
    (0..spec.visits)
        .map(|_| {
            let doc = zipf.pick(rng);
            let cursor = rng.next_u64();
            let keys = burst(rng, spec.visit_max_keys, spec.backspace_p);
            Visit { doc, cursor, keys }
        })
        .collect()
}

fn config(spec: &HostingSpec) -> NodeConfig {
    NodeConfig {
        shards: spec.shards,
        max_resident: spec.max_resident,
        site: 1,
    }
}

/// Runs one `hosting` episode.
pub fn episode(spec: &HostingSpec, seed: u64) -> Episode {
    let mut rng = Rng::new(seed);
    let initial: Vec<Vec<char>> = (0..spec.docs)
        .map(|_| (0..spec.initial_chars).map(|_| rng.text_char()).collect())
        .collect();
    let visits = script(spec, &mut rng);
    let mut ep = Episode::default();
    let io = IoCounters::shared();
    let docs = spec.docs as usize;

    let mut host = HostScale::start();
    trace::set_phase(Phase::Setup);
    let started = Instant::now();
    let backends: Vec<SharedBackend> = (0..spec.shards)
        .map(|_| SharedBackend::new(TimedBackend::new(io.clone())))
        .collect();
    let registry = Registry::new();
    let Some(mut node) = ep.attempt("open node", HostingNode::open(config(spec), backends)) else {
        return ep;
    };
    node.set_telemetry(&registry.handle());
    let mut sessions: Vec<SessionId> = Vec::with_capacity(docs);
    let mut setup_ops = 0u64;
    let mut digests = vec![0u64; docs];
    for (doc, text) in initial.iter().enumerate() {
        let Some(session) = ep.attempt("connect", node.connect("user", doc as u64)) else {
            return ep;
        };
        sessions.push(session);
        for (i, &c) in text.iter().enumerate() {
            let inserted = node.insert(session, i, c);
            ep.attempt("populate", inserted);
            setup_ops += 1;
        }
        // Pre-crash digests are read while the document is resident, where
        // the read is O(1): here, and after each visit below.
        if let Some(d) = ep.attempt("digest", node.digest(doc as u64)) {
            digests[doc] = d;
        }
    }
    let committed = node.commit();
    ep.attempt("commit", committed);
    ep.setup_s = started.elapsed().as_secs_f64();
    ep.scaled.setup_s = ep.setup_s * host.factor();
    let mut texts = initial;

    trace::set_phase(Phase::Loop);
    let stats_before = node.stats();
    let segments_before = node.segment_appends();
    let io_before = io.snapshot();
    let mut busy = Duration::ZERO;
    for (v, visit) in visits.iter().enumerate() {
        if v > 0 && v % spec.segment == 0 {
            ep.end_segment(busy, host.factor());
            busy = Duration::ZERO;
        }
        let doc = visit.doc as usize;
        let session = sessions[doc];
        let text = &mut texts[doc];
        let visit_started = Instant::now();
        let mut cursor = (visit.cursor % (text.len() as u64 + 1)) as usize;
        for &key in &visit.keys {
            trace::set_edit(visit.doc, ep.counts.edits + 1);
            let faults_before = node.stats().fault_ins;
            let t0 = Instant::now();
            let result = match key {
                Key::Char(c) => in_span("node.insert", || node.insert(session, cursor, c)),
                Key::Backspace => in_span("node.remove", || node.remove(session, cursor - 1)),
            };
            let service = t0.elapsed().as_nanos() as u64;
            if ep.attempt("edit", result).is_none() {
                continue;
            }
            ep.latencies_ns.push(service);
            if node.stats().fault_ins > faults_before {
                ep.counts.cold_ops += 1;
                ep.cold_ns += service;
            } else {
                ep.warm_ns += service;
            }
            ep.counts.edits += 1;
            match key {
                Key::Char(c) => {
                    ep.counts.inserts += 1;
                    text.insert(cursor, c);
                    cursor += 1;
                }
                Key::Backspace => {
                    ep.counts.deletes += 1;
                    cursor -= 1;
                    text.remove(cursor);
                }
            }
        }
        if (v + 1) % spec.commit_every == 0 || v + 1 == visits.len() {
            let t0 = Instant::now();
            let committed = in_span("node.commit", || node.commit());
            ep.commit_ns += t0.elapsed().as_nanos() as u64;
            ep.attempt("commit", committed);
        }
        busy += visit_started.elapsed();
        if let Some(d) = ep.attempt("digest", node.digest(visit.doc)) {
            digests[doc] = d;
        }
    }
    ep.end_segment(busy, host.factor());
    trace::set_phase(Phase::Verify);
    let stats = node.stats();
    ep.counts.io = io.snapshot().minus(io_before);
    ep.counts.fault_ins = stats.fault_ins - stats_before.fault_ins;
    ep.counts.evictions = stats.evictions - stats_before.evictions;
    ep.counts.commits = stats.commits - stats_before.commits;
    ep.counts.segment_appends = node.segment_appends() - segments_before;

    cross_check(&mut ep, &node, &registry, &io, setup_ops);

    // Crash after the last commit: queues and resident replicas die, the
    // shard backends survive.
    let resident: Vec<u64> = (0..spec.docs).filter(|&d| node.is_resident(d)).collect();
    let backends = node.backends();
    drop(node);

    trace::set_phase(Phase::Recovery);
    let io_before = io.snapshot();
    host.probe();
    let started = Instant::now();
    let restarted = in_span("node.restart", || {
        HostingNode::restart(config(spec), backends)
    });
    ep.restart_ns = started.elapsed().as_nanos() as u64;
    let Some(mut node) = ep.attempt("restart", restarted) else {
        return ep;
    };
    let refill_started = Instant::now();
    for &doc in &resident {
        let digest = in_span("node.fault_in", || node.digest(doc));
        if let Some(d) = ep.attempt("fault in", digest) {
            ep.check(d == digests[doc as usize], || {
                format!("resident document {doc} differs after restart")
            });
        }
    }
    ep.refill_ns = refill_started.elapsed().as_nanos() as u64;
    ep.recover_s = started.elapsed().as_secs_f64();
    ep.scaled.recover_s = ep.recover_s * host.factor();
    ep.reference_ns = host.mean_ns();
    ep.recovery_io = io.snapshot().minus(io_before);

    ep.check(node.hosted_count() == docs, || {
        format!("{} of {docs} documents rediscovered", node.hosted_count())
    });
    for doc in 0..docs {
        let contents = node.contents(doc as u64);
        if let Some(contents) = ep.attempt("contents", contents) {
            let expected: String = texts[doc].iter().collect();
            ep.check(contents == expected, || {
                format!("document {doc} text differs after restart")
            });
            ep.check(contents.chars().count() == texts[doc].len(), || {
                format!("document {doc} length differs from the tracked length")
            });
        }
        let digest = node.digest(doc as u64);
        if let Some(d) = ep.attempt("digest", digest) {
            ep.check(d == digests[doc], || {
                format!("document {doc} differs from its pre-crash digest")
            });
        }
    }
    ep
}

/// Reads the live registry and checks its exact counts against the node's
/// own counters, the benchmark's op count and the storage wrapper.
fn cross_check(
    ep: &mut Episode,
    node: &HostingNode,
    registry: &Registry,
    io: &IoCounters,
    setup_ops: u64,
) {
    let snap = in_span("telemetry.snapshot", || registry.snapshot());
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let t = TelemetryCounts {
        node_ops: counter("node.ops"),
        node_fault_ins: counter("node.fault_ins"),
        node_evictions: counter("node.evictions"),
        gwal_flushes: snap.histogram("gwal.flush_micros").map_or(0, |h| h.count),
        gwal_flush_records: counter("gwal.flush_records"),
        snapshots_written: counter("store.snapshots_written"),
    };
    ep.counts.telemetry = t;
    let stats = node.stats();
    let total_io = io.snapshot();
    let ops = setup_ops + ep.counts.edits;
    ep.check(t.node_ops == ops, || {
        format!("telemetry node.ops {} != {ops} edits made", t.node_ops)
    });
    ep.check(t.node_fault_ins == stats.fault_ins, || {
        format!(
            "telemetry node.fault_ins {} != node {}",
            t.node_fault_ins, stats.fault_ins
        )
    });
    ep.check(t.node_evictions == stats.evictions, || {
        format!(
            "telemetry node.evictions {} != node {}",
            t.node_evictions, stats.evictions
        )
    });
    ep.check(t.gwal_flushes == total_io.append.calls, || {
        format!(
            "telemetry gwal flushes {} != backend appends {}",
            t.gwal_flushes, total_io.append.calls
        )
    });
    ep.check(t.gwal_flushes == node.segment_appends(), || {
        format!(
            "telemetry gwal flushes {} != node segment appends {}",
            t.gwal_flushes,
            node.segment_appends()
        )
    });
    ep.check(t.snapshots_written == total_io.write.calls, || {
        format!(
            "telemetry snapshots {} != backend writes {}",
            t.snapshots_written, total_io.write.calls
        )
    });
}

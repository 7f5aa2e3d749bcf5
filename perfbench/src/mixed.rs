//! `mixed`: three replicas share a seeded document; each turn one site puts
//! its cursor at a random place, types a short burst with occasional
//! backspaces, and flushes one `BatchPolicy::default()` batch to the other
//! two. Links jitter and now and then delay a message by a reorder burst,
//! and a fixed window of messages stays in flight, so batches overtake each
//! other and causal hold-back stays busy. At the end the network drains,
//! every replica must have converged, and one replica crashes and recovers.
//!
//! Why: random positions defeat run coalescing and load `core`'s tree
//! descent; concurrent writers load causal hold-back and the batch codec
//! with short identifiers. It bypasses the hosting node.

use std::time::Instant;

use treedoc_core::SiteId;
use treedoc_replication::{
    decode_envelope, encode_envelope, BatchPolicy, Envelope, LinkConfig, Replica, SimNetwork,
};
use treedoc_storage::SharedBackend;

use crate::episode::Episode;
use crate::io::{IoCounters, TimedBackend};
use crate::reference::HostScale;
use crate::rng::Rng;
use crate::trace::{self, in_span, Phase};
use crate::{burst, Doc, Key};

type Op = treedoc_core::Op<char, treedoc_core::Sdis>;

/// Size and network model of a `mixed` episode.
#[derive(Debug, Clone, Copy)]
pub struct MixedSpec {
    /// Replicas (sites).
    pub sites: usize,
    /// Atoms of the shared seed document.
    pub seed_atoms: usize,
    /// Bursts per episode, over all sites.
    pub bursts: usize,
    /// Longest burst, in keystrokes.
    pub burst_max: u64,
    /// Chance that a keystroke after the first of a burst is a backspace.
    pub backspace_p: f64,
    /// Messages kept in flight before the next one is delivered.
    pub window: usize,
    /// Every link's latency and reorder model.
    pub link: LinkConfig,
}

/// The `mixed` workload: three sites on a 4,000-atom document.
pub const MIXED: MixedSpec = MixedSpec {
    sites: 3,
    seed_atoms: 4_000,
    bursts: 600,
    burst_max: 8,
    backspace_p: 0.15,
    window: 12,
    link: LinkConfig {
        min_latency_ms: 2,
        max_latency_ms: 40,
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        reorder_burst_prob: 0.05,
        reorder_burst_ms: 150,
    },
};

#[derive(Debug)]
struct Burst {
    site: usize,
    cursor: u64,
    keys: Vec<Key>,
}

/// Bursts, each at a random cursor of a random site. A burst is sent only
/// when it is complete, so its backspaces remove text no other site knows.
fn script(spec: &MixedSpec, rng: &mut Rng) -> Vec<Burst> {
    (0..spec.bursts)
        .map(|_| {
            let site = rng.below(spec.sites as u64) as usize;
            let cursor = rng.next_u64();
            let keys = burst(rng, spec.burst_max, spec.backspace_p);
            Burst { site, cursor, keys }
        })
        .collect()
}

fn site(i: usize) -> SiteId {
    SiteId::from_u64(i as u64 + 1)
}

/// Per-edit completion tracking: an edit is complete once every other
/// replica has applied it, which the receivers' delivered clocks reveal.
struct Completion {
    /// Per site, the start instant of each of its operations (seq − 1).
    started: Vec<Vec<Instant>>,
    /// Per site, how many replicas have yet to apply each operation.
    remaining: Vec<Vec<u8>>,
    /// `seen[r][s]`: operations of `s` known applied at `r`.
    seen: Vec<Vec<u64>>,
}

struct Mesh {
    replicas: Vec<Replica<Doc>>,
    net: SimNetwork<Vec<u8>>,
    completion: Completion,
}

impl Mesh {
    fn broadcast(&mut self, from: usize, envelope: Envelope<Op>, ep: &mut Episode) {
        let ops = match &envelope {
            Envelope::OpBatch(batch) => batch.len() as u64,
            _ => 1,
        };
        let bytes = in_span("wire.encode", || encode_envelope(&envelope));
        ep.counts.envelopes += 1;
        ep.counts.envelope_ops += ops;
        for to in 0..self.replicas.len() {
            if to != from {
                ep.counts.wire_bytes += bytes.len() as u64;
                ep.counts.msgs += 1;
                let copy = bytes.clone();
                in_span("net.send", || self.net.send(site(from), site(to), copy));
            }
        }
    }

    /// Delivers the next message; `false` when nothing is in flight.
    fn deliver_one(&mut self, ep: &mut Episode) -> bool {
        let Some(event) = in_span("net.deliver", || self.net.step()) else {
            return false;
        };
        let to = (event.to.as_u64() - 1) as usize;
        let decoded = in_span("wire.decode", || decode_envelope::<Op>(&event.payload));
        let Some(decoded) = ep.attempt("decode envelope", decoded) else {
            return true;
        };
        if let Envelope::OpBatch(batch) = &decoded {
            if let Some((_, first)) = batch.entries.first() {
                trace::set_edit(first.sender.as_u64(), first.seq());
            }
        }
        let replica = &mut self.replicas[to];
        let applied = in_span("replica.receive", || replica.receive_envelope(decoded));
        let done = Instant::now();
        ep.counts.arrivals += 1;
        if applied == 0 {
            ep.counts.held_arrivals += 1;
        }
        ep.counts.holdback_max = ep.counts.holdback_max.max(replica.pending() as u64);
        let c = &mut self.completion;
        for from in 0..self.replicas.len() {
            if from == to {
                continue;
            }
            let now_seen = self.replicas[to].clock().get(site(from));
            for seq in c.seen[to][from] + 1..=now_seen {
                let i = (seq - 1) as usize;
                c.remaining[from][i] -= 1;
                if c.remaining[from][i] == 0 {
                    let latency = done.duration_since(c.started[from][i]);
                    ep.latencies_ns.push(latency.as_nanos() as u64);
                }
            }
            c.seen[to][from] = now_seen;
        }
        true
    }
}

/// Runs one `mixed` episode.
pub fn episode(spec: &MixedSpec, seed: u64) -> Episode {
    let mut rng = Rng::new(seed);
    let seed_text: Vec<char> = (0..spec.seed_atoms).map(|_| rng.text_char()).collect();
    let bursts = script(spec, &mut rng);
    let victim = rng.below(spec.sites as u64) as usize;
    let mut ep = Episode::default();
    let io = IoCounters::shared();
    let n = spec.sites;

    let mut host = HostScale::start();
    trace::set_phase(Phase::Setup);
    let started = Instant::now();
    let disks: Vec<SharedBackend> = (0..n)
        .map(|_| SharedBackend::new(TimedBackend::new(io.clone())))
        .collect();
    let mut replicas = Vec::with_capacity(n);
    for (i, disk) in disks.iter().enumerate() {
        let mut replica = Replica::new(site(i), Doc::from_atoms(site(i), &seed_text));
        replica.enable_batching(BatchPolicy::default());
        crate::attach_store(&mut ep, &mut replica, disk);
        replicas.push(replica);
    }
    let net = SimNetwork::new(spec.link, rng.next_u64());
    ep.setup_s = started.elapsed().as_secs_f64();
    ep.scaled.setup_s = ep.setup_s * host.factor();

    trace::set_phase(Phase::Loop);
    let mut mesh = Mesh {
        replicas,
        net,
        completion: Completion {
            started: vec![Vec::new(); n],
            remaining: vec![Vec::new(); n],
            seen: vec![vec![0; n]; n],
        },
    };
    let io_before = io.snapshot();
    let started = Instant::now();
    for burst in &bursts {
        let s = burst.site;
        let mut cursor = (burst.cursor % (mesh.replicas[s].doc().len() as u64 + 1)) as usize;
        for &key in &burst.keys {
            let replica = &mut mesh.replicas[s];
            trace::set_edit(site(s).as_u64(), replica.ops_sent() + 1);
            let t0 = Instant::now();
            let op = match key {
                Key::Char(c) => in_span("core.local_insert", || {
                    replica.doc_mut().local_insert(cursor, c)
                }),
                Key::Backspace => in_span("core.local_delete", || {
                    replica.doc_mut().local_delete(cursor - 1)
                }),
            };
            let Some(op) = ep.attempt("local edit", op) else {
                continue;
            };
            let flushed = in_span("replica.stamp", || replica.stamp_batched(op));
            mesh.completion.started[s].push(t0);
            mesh.completion.remaining[s].push((n - 1) as u8);
            ep.counts.edits += 1;
            match key {
                Key::Char(_) => {
                    ep.counts.inserts += 1;
                    cursor += 1;
                }
                Key::Backspace => {
                    ep.counts.deletes += 1;
                    cursor -= 1;
                }
            }
            if let Some(envelope) = flushed {
                mesh.broadcast(s, envelope, &mut ep);
            }
        }
        let replica = &mut mesh.replicas[s];
        if let Some(envelope) = in_span("replica.flush", || replica.flush_batch()) {
            mesh.broadcast(s, envelope, &mut ep);
        }
        while mesh.net.in_flight() > spec.window {
            mesh.deliver_one(&mut ep);
        }
    }
    while mesh.deliver_one(&mut ep) {}
    // One segment: the reference cannot be timed inside the loop, where it
    // would add to the latency of every edit in flight.
    ep.end_segment(started.elapsed(), host.factor());
    ep.counts.io = io.snapshot().minus(io_before);
    trace::set_phase(Phase::Verify);

    let expected_len = spec.seed_atoms as u64 + ep.counts.inserts - ep.counts.deletes;
    let digest = mesh.replicas[0].digest();
    for (i, replica) in mesh.replicas.iter().enumerate() {
        ep.check(replica.pending() == 0, || {
            format!("site {i} holds messages back")
        });
        ep.check(replica.digest() == digest, || {
            format!("site {i} did not converge")
        });
        ep.check(replica.doc().len() as u64 == expected_len, || {
            format!(
                "site {i} length {} != seed + inserts - deletes = {expected_len}",
                replica.doc().len()
            )
        });
    }
    ep.check(ep.latencies_ns.len() as u64 == ep.counts.edits, || {
        "an edit never completed at every replica".into()
    });
    crate::note_core_stats(&mut ep, mesh.replicas[0].doc());

    // Crash: one replica dies; its backend survives.
    let before_crash = mesh.replicas[victim].digest();
    drop(mesh);
    crate::recover_replica(
        &mut ep,
        &mut host,
        &disks[victim],
        &io,
        before_crash,
        expected_len,
    );
    ep
}

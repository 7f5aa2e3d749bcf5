//! `typing`: one writer appends at the end of an initially empty document;
//! every keystroke is stamped, journaled, encoded, delivered, decoded,
//! journaled and applied at the remote replica before the next one (a
//! closed loop of one client). The episode ends with a crash of the remote
//! replica and its cold recovery from its store.
//!
//! Why: the paper's §5 traces are mostly sequential typing. Under the
//! default (unbalanced) allocation every append deepens the right spine, so
//! this loads the deep-identifier path through `wire` and `storage`; it
//! bypasses causal hold-back and the hosting node.

use std::time::Instant;

use treedoc_core::{Sdis, SiteId};
use treedoc_replication::{decode_envelope, encode_envelope, LinkConfig, Replica, SimNetwork};
use treedoc_storage::SharedBackend;

use crate::episode::Episode;
use crate::io::{IoCounters, TimedBackend};
use crate::reference::HostScale;
use crate::rng::Rng;
use crate::trace::{self, in_span, Phase};
use crate::{Doc, Key};

type Op = treedoc_core::Op<char, Sdis>;

/// Size of a `typing` episode.
#[derive(Debug, Clone, Copy)]
pub struct TypingSpec {
    /// Keystrokes typed per episode.
    pub keystrokes: usize,
    /// Chance that a keystroke is a backspace (when there is text).
    pub backspace_p: f64,
    /// Mean characters per line.
    pub line_len: u64,
    /// Keystrokes per segment of the timed loop: the host-speed reference
    /// is timed between segments (see [`crate::reference`]).
    pub segment: usize,
}

/// The `typing` workload: 5,500 keystrokes into an empty document, which
/// ends at about 5,000 characters in about 85 lines.
pub const TYPING: TypingSpec = TypingSpec {
    keystrokes: 5_500,
    backspace_p: 0.04,
    line_len: 60,
    segment: 500,
};

fn script(spec: &TypingSpec, rng: &mut Rng) -> Vec<Key> {
    let mut len = 0usize;
    (0..spec.keystrokes)
        .map(|_| {
            if len > 0 && rng.chance(spec.backspace_p) {
                len -= 1;
                Key::Backspace
            } else {
                len += 1;
                if rng.below(spec.line_len) == 0 {
                    Key::Char('\n')
                } else {
                    Key::Char(rng.text_char())
                }
            }
        })
        .collect()
}

/// Runs one `typing` episode.
pub fn episode(spec: &TypingSpec, seed: u64) -> Episode {
    let mut rng = Rng::new(seed);
    let keys = script(spec, &mut rng);
    let mut ep = Episode::default();
    let io = IoCounters::shared();
    let (w, r) = (SiteId::from_u64(1), SiteId::from_u64(2));

    let mut host = HostScale::start();
    trace::set_phase(Phase::Setup);
    let started = Instant::now();
    let writer_disk = SharedBackend::new(TimedBackend::new(io.clone()));
    let remote_disk = SharedBackend::new(TimedBackend::new(io.clone()));
    let mut writer = Replica::new(w, Doc::new(w));
    let mut remote = Replica::new(r, Doc::new(r));
    crate::attach_store(&mut ep, &mut writer, &writer_disk);
    crate::attach_store(&mut ep, &mut remote, &remote_disk);
    let mut net: SimNetwork<Vec<u8>> = SimNetwork::new(LinkConfig::fixed(1), rng.next_u64());
    ep.setup_s = started.elapsed().as_secs_f64();
    ep.scaled.setup_s = ep.setup_s * host.factor();

    trace::set_phase(Phase::Loop);
    let mut text: Vec<char> = Vec::with_capacity(spec.keystrokes);
    ep.latencies_ns.reserve(keys.len());
    let io_before = io.snapshot();
    let mut segment = Instant::now();
    for (i, key) in keys.into_iter().enumerate() {
        if i > 0 && i % spec.segment == 0 {
            ep.end_segment(segment.elapsed(), host.factor());
            segment = Instant::now();
        }
        trace::set_edit(w.as_u64(), writer.ops_sent() + 1);
        let t0 = Instant::now();
        let op = match key {
            Key::Char(c) => in_span("core.local_insert", || {
                writer.doc_mut().local_insert(text.len(), c)
            }),
            Key::Backspace => in_span("core.local_delete", || {
                writer.doc_mut().local_delete(text.len() - 1)
            }),
        };
        let Some(op) = ep.attempt("local edit", op) else {
            continue;
        };
        let envelope = in_span("replica.stamp", || writer.stamp_envelope(op));
        let bytes = in_span("wire.encode", || encode_envelope(&envelope));
        ep.counts.wire_bytes += bytes.len() as u64;
        ep.counts.envelopes += 1;
        ep.counts.envelope_ops += 1;
        ep.counts.msgs += 1;
        in_span("net.send", || net.send(w, r, bytes));
        let Some(event) = in_span("net.deliver", || net.step()) else {
            ep.check(false, || "sent envelope was not delivered".into());
            continue;
        };
        let decoded = in_span("wire.decode", || decode_envelope::<Op>(&event.payload));
        let Some(decoded) = ep.attempt("decode envelope", decoded) else {
            continue;
        };
        let applied = in_span("replica.receive", || remote.receive_envelope(decoded));
        ep.counts.arrivals += 1;
        if applied == 0 {
            ep.counts.held_arrivals += 1;
        }
        ep.counts.holdback_max = ep.counts.holdback_max.max(remote.pending() as u64);
        ep.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        ep.counts.edits += 1;
        match key {
            Key::Char(c) => {
                ep.counts.inserts += 1;
                text.push(c);
            }
            Key::Backspace => {
                ep.counts.deletes += 1;
                text.pop();
            }
        }
    }
    ep.end_segment(segment.elapsed(), host.factor());
    ep.counts.io = io.snapshot().minus(io_before);
    trace::set_phase(Phase::Verify);

    let expected_len = ep.counts.inserts - ep.counts.deletes;
    ep.check(writer.digest() == remote.digest(), || {
        "writer and remote digests differ".into()
    });
    ep.check(remote.doc().len() as u64 == expected_len, || {
        format!(
            "remote length {} != inserts - deletes = {expected_len}",
            remote.doc().len()
        )
    });
    ep.check(remote.doc().to_vec() == text, || {
        "remote text differs from the typed text".into()
    });
    ep.check(remote.pending() == 0, || {
        "remote still holds messages back".into()
    });
    crate::note_core_stats(&mut ep, remote.doc());

    // Crash: the remote replica dies; its backend survives.
    let before_crash = remote.digest();
    drop(remote);
    crate::recover_replica(
        &mut ep,
        &mut host,
        &remote_disk,
        &io,
        before_crash,
        expected_len,
    );
    ep
}

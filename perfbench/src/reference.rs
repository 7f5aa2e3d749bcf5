//! The host-speed reference: a fixed piece of work written in this file,
//! timed at the ends of each timed section of an episode, that turns the
//! benchmark's times into times on a host of fixed speed.
//!
//! Shared virtual machines run in phases: within a fraction of a second a
//! vCPU may run every kind of work a third slower or faster than before (a
//! noisy neighbour on the same core, frequency changes), and neither thread
//! CPU time nor steal time shows it. So a [`HostScale`] times [`work`] at
//! both ends of each section (set-up, each segment of the edit loop,
//! recovery), and the section's times are multiplied by [`REFERENCE_NS`]
//! over the mean of the two. Since the reference uses none of the
//! repository's code, a change to the program does not move it; a change of
//! host speed moves both, and cancels.
//!
//! The work mirrors the edit path's mix: small heap allocations, an
//! ordered-map descent and insert, hashing, and varint encoding into a
//! byte buffer, over a working set of a few MB: a reference that fits in
//! the core's own caches missed most of the slow phases, which hit memory
//! traffic hardest. An episode's child process asks the run to time the
//! reference ([`time_in_parent`]), on the same CPU, so that the reference's
//! memory does not count in the episode's peak resident set.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::rng::Rng;

/// The time of [`work`] on the host the benchmark was tuned on (2-vCPU
/// x86-64 VM, Xeon), in ns: the unit of the scaled times. A run on a
/// host where the reference takes this long reports its times as measured.
pub const REFERENCE_NS: f64 = 10e6;

/// Keys the reference inserts.
const STEPS: u64 = 30_000;

/// One pass of the reference work; returns a value that depends on all of
/// it, so that none of it is optimized away.
fn pass() -> u64 {
    let mut rng = Rng::new(0x5eed_cafe);
    let mut tree: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut hash: HashMap<u64, u64> = HashMap::new();
    let mut out: Vec<u8> = Vec::new();
    let mut acc = 0u64;
    for i in 0..STEPS {
        let key = rng.below(1 << 15);
        let mut varint = Vec::with_capacity(8);
        let mut x = key ^ i;
        while x >= 0x80 {
            varint.push((x as u8) | 0x80);
            x >>= 7;
        }
        varint.push(x as u8);
        out.extend_from_slice(&varint);
        tree.insert(key, varint);
        *hash.entry(key.rotate_left(7)).or_default() += i;
        if let Some((k, v)) = tree.range(rng.below(1 << 15)..).next() {
            acc = acc.wrapping_add(k ^ v.len() as u64);
        }
        if out.len() > 1 << 16 {
            acc ^= out
                .iter()
                .fold(0u64, |a, &b| a.rotate_left(5) ^ u64::from(b));
            out.clear();
        }
    }
    acc ^ (tree.len() + hash.len()) as u64
}

/// Times the reference work: the faster of two passes, in ns, so that an
/// interrupt during one pass does not count.
pub fn work() -> u64 {
    (0..2)
        .map(|_| {
            let started = Instant::now();
            black_box(pass());
            started.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(1)
        .max(1)
}

/// The line a child process prints to ask the run to time the reference;
/// the run answers with the time in ns on the child's standard input.
pub const PROBE_REQUEST: &str = "probe";

static IN_PARENT: AtomicBool = AtomicBool::new(false);

/// Makes this process ask its parent to time the reference (see the module
/// documentation) instead of running it itself.
pub fn time_in_parent() {
    IN_PARENT.store(true, Ordering::Relaxed);
}

/// The reference time, from the parent when [`time_in_parent`] was called
/// and it answers, else from running [`work`] here.
fn timed() -> u64 {
    if IN_PARENT.load(Ordering::Relaxed) {
        let mut out = std::io::stdout().lock();
        let asked = writeln!(out, "{PROBE_REQUEST}").and_then(|()| out.flush());
        drop(out);
        let mut answer = String::new();
        if asked.is_ok() && std::io::stdin().lock().read_line(&mut answer).is_ok() {
            if let Ok(ns) = answer.trim().parse::<u64>() {
                return ns.max(1);
            }
        }
    }
    work()
}

/// The reference times of one episode: the latest one, and their mean.
#[derive(Debug)]
pub struct HostScale {
    last_ns: u64,
    total_ns: u64,
    probes: u64,
}

impl HostScale {
    /// Times the reference once, as the start of the first section.
    pub fn start() -> HostScale {
        let mut host = HostScale {
            last_ns: 0,
            total_ns: 0,
            probes: 0,
        };
        host.probe();
        host
    }

    /// Times the reference as the start of the next section.
    pub fn probe(&mut self) -> u64 {
        self.last_ns = timed();
        self.total_ns += self.last_ns;
        self.probes += 1;
        self.last_ns
    }

    /// Times the reference as the end of a section and returns the factor
    /// that turns the section's times into times on the reference host.
    pub fn factor(&mut self) -> f64 {
        let before = self.last_ns;
        let after = self.probe();
        REFERENCE_NS / ((before + after) as f64 / 2.0)
    }

    /// The mean reference time so far, in ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns / self.probes.max(1)
    }
}

//! What one episode of a workload measured, and the correctness ledger.
//!
//! An episode is the unit a run repeats: set up, run the timed edit loop,
//! crash, recover, verify. Every workload returns the same shape so the
//! report code is shared.

use std::time::Duration;

use crate::io::{IoStats, MethodStats};

/// Deterministic counts of one episode: the same seed gives the same
/// counts, whatever the machine or the run length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Edits completed in the timed loop.
    pub edits: u64,
    /// Of which inserts.
    pub inserts: u64,
    /// Of which deletes.
    pub deletes: u64,
    /// Encoded envelope bytes sent (per recipient).
    pub wire_bytes: u64,
    /// Envelopes encoded.
    pub envelopes: u64,
    /// Operations carried by the encoded envelopes.
    pub envelope_ops: u64,
    /// Messages handed to the network.
    pub msgs: u64,
    /// Backend traffic of the timed loop.
    pub io: IoStats,
    /// WAL records replayed by the recovery.
    pub records_replayed: u64,
    /// Bytes the recovery read back.
    pub bytes_recovered: u64,
    /// Identifier-tree height after the loop.
    pub height: u64,
    /// Identifier bits summed over occupied slots, and the slot count.
    pub posid_bits: u64,
    /// Occupied slots (live, tombstones, ghosts).
    pub posid_slots: u64,
    /// `index_bytes()` after the loop.
    pub index_bytes: u64,
    /// Live atoms after the loop.
    pub live_atoms: u64,
    /// Envelopes handed to `receive_envelope`.
    pub arrivals: u64,
    /// Arrivals that applied nothing (held back).
    pub held_arrivals: u64,
    /// Largest `pending()` seen.
    pub holdback_max: u64,
    /// Hosting: documents faulted in during the loop.
    pub fault_ins: u64,
    /// Hosting: documents evicted during the loop.
    pub evictions: u64,
    /// Hosting: backend segment appends during the loop.
    pub segment_appends: u64,
    /// Hosting: node commits during the loop.
    pub commits: u64,
    /// Hosting: edits that faulted their document in.
    pub cold_ops: u64,
    /// Hosting: telemetry registry counters at the end of the episode.
    pub telemetry: TelemetryCounts,
}

/// Registry counters read from the live telemetry of the hosting node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounts {
    /// `node.ops`.
    pub node_ops: u64,
    /// `node.fault_ins`.
    pub node_fault_ins: u64,
    /// `node.evictions`.
    pub node_evictions: u64,
    /// Count of the `gwal.flush_micros` histogram: group-WAL flushes.
    pub gwal_flushes: u64,
    /// `gwal.flush_records`.
    pub gwal_flush_records: u64,
    /// `store.snapshots_written`.
    pub snapshots_written: u64,
}

/// Per-edit latency of one episode. Runs keep only this summary, so the
/// benchmark's own memory does not grow with run length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    /// Median, in ns.
    pub p50_ns: u64,
    /// 99th percentile, in ns.
    pub p99_ns: u64,
    /// Sum of all samples, in ns.
    pub sum_ns: u64,
    /// Samples.
    pub count: u64,
}

/// Nearest-rank percentile `q` (0..=1) of sorted `values`; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// An episode's times scaled to the reference host (see
/// [`crate::reference`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scaled {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Seconds of the timed edit loop.
    pub loop_s: f64,
    /// Seconds of the cold restart.
    pub recover_s: f64,
    /// Per-edit latency.
    pub latency: Latency,
}

fn summarize(mut samples: Vec<u64>) -> Latency {
    samples.sort_unstable();
    Latency {
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        sum_ns: samples.iter().sum(),
        count: samples.len() as u64,
    }
}

/// Everything one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Seconds from the start of set-up to the first timed edit.
    pub setup_s: f64,
    /// Wall seconds of the timed edit loop.
    pub loop_s: f64,
    /// Seconds of the cold restart after the crash.
    pub recover_s: f64,
    /// The times above and the latency, scaled to the reference host.
    pub scaled: Scaled,
    /// Per-edit latencies scaled to the reference host, in ns, until
    /// [`Episode::summarize_latencies`] folds them into `scaled.latency`.
    pub scaled_latencies_ns: Vec<u64>,
    /// Mean time of the host-speed reference in this episode, in ns (see
    /// [`crate::reference`]).
    pub reference_ns: u64,
    /// Per-edit latencies, in ns, until [`Episode::summarize_latencies`]
    /// folds them into `latency`.
    pub latencies_ns: Vec<u64>,
    /// Summary of the per-edit latencies.
    pub latency: Latency,
    /// Deterministic counts.
    pub counts: Counts,
    /// Backend traffic of the recovery.
    pub recovery_io: IoStats,
    /// Hosting: `HostingNode::restart` time, in ns.
    pub restart_ns: u64,
    /// Hosting: fault-in time of the resident working set, in ns.
    pub refill_ns: u64,
    /// Hosting: summed service time of warm and cold edits, in ns.
    pub warm_ns: u64,
    /// See `warm_ns`.
    pub cold_ns: u64,
    /// Hosting: summed `commit` time, in ns.
    pub commit_ns: u64,
    /// High-water mark of the resident set of the process that ran the
    /// episode, in MB.
    pub peak_rss_mb: f64,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// What failed: API errors, decode errors, recovery errors and failed
    /// correctness checks.
    pub failures: Vec<String>,
}

impl Episode {
    /// The counts with the backend time removed: what must repeat exactly
    /// for a given seed.
    pub fn deterministic_counts(&self) -> Counts {
        let mut counts = self.counts.clone();
        counts.io = counts.io.without_time();
        counts
    }

    /// Ends a segment of the timed loop that took `elapsed`: adds it to
    /// the loop time, as measured and scaled by `factor` (from
    /// [`crate::reference::HostScale::factor`]), and scales the latency
    /// samples taken since the previous segment ended.
    pub fn end_segment(&mut self, elapsed: Duration, factor: f64) {
        let secs = elapsed.as_secs_f64();
        self.loop_s += secs;
        self.scaled.loop_s += secs * factor;
        let done = self.scaled_latencies_ns.len();
        let fresh = &self.latencies_ns[done..];
        self.scaled_latencies_ns
            .extend(fresh.iter().map(|&ns| (ns as f64 * factor) as u64));
    }

    /// Replaces the latency samples, as measured and scaled, by their
    /// summaries.
    pub fn summarize_latencies(&mut self) {
        self.latency = summarize(std::mem::take(&mut self.latencies_ns));
        self.scaled.latency = summarize(std::mem::take(&mut self.scaled_latencies_ns));
    }

    /// Counts one correctness check; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one fallible operation; an `Err` is a failure.
    pub fn attempt<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// Text-form names of the calls, bytes and nanos of each backend method,
/// for the loop's and for the recovery's backend traffic.
const IO_FIELDS: [[[&str; 3]; 3]; 2] = [
    [
        ["io.read.calls", "io.read.bytes", "io.read.nanos"],
        ["io.write.calls", "io.write.bytes", "io.write.nanos"],
        ["io.append.calls", "io.append.bytes", "io.append.nanos"],
    ],
    [
        [
            "recovery_io.read.calls",
            "recovery_io.read.bytes",
            "recovery_io.read.nanos",
        ],
        [
            "recovery_io.write.calls",
            "recovery_io.write.bytes",
            "recovery_io.write.nanos",
        ],
        [
            "recovery_io.append.calls",
            "recovery_io.append.bytes",
            "recovery_io.append.nanos",
        ],
    ],
];

/// A number of an [`Episode`], as its text form names it.
enum Field<'a> {
    U(&'a mut u64),
    F(&'a mut f64),
}

impl Episode {
    /// Every number of the episode after [`Episode::summarize_latencies`],
    /// by name.
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        use Field::{F, U};
        let Episode {
            setup_s,
            loop_s,
            recover_s,
            scaled,
            reference_ns,
            latency,
            counts,
            recovery_io,
            restart_ns,
            refill_ns,
            warm_ns,
            cold_ns,
            commit_ns,
            peak_rss_mb,
            attempted,
            ..
        } = self;
        let c = counts;
        let t = &mut c.telemetry;
        let mut fields = vec![
            ("setup_s", F(setup_s)),
            ("loop_s", F(loop_s)),
            ("recover_s", F(recover_s)),
            ("scaled.setup_s", F(&mut scaled.setup_s)),
            ("scaled.loop_s", F(&mut scaled.loop_s)),
            ("scaled.recover_s", F(&mut scaled.recover_s)),
            ("scaled.latency.p50_ns", U(&mut scaled.latency.p50_ns)),
            ("scaled.latency.p99_ns", U(&mut scaled.latency.p99_ns)),
            ("scaled.latency.sum_ns", U(&mut scaled.latency.sum_ns)),
            ("scaled.latency.count", U(&mut scaled.latency.count)),
            ("reference_ns", U(reference_ns)),
            ("latency.p50_ns", U(&mut latency.p50_ns)),
            ("latency.p99_ns", U(&mut latency.p99_ns)),
            ("latency.sum_ns", U(&mut latency.sum_ns)),
            ("latency.count", U(&mut latency.count)),
            ("restart_ns", U(restart_ns)),
            ("refill_ns", U(refill_ns)),
            ("warm_ns", U(warm_ns)),
            ("cold_ns", U(cold_ns)),
            ("commit_ns", U(commit_ns)),
            ("peak_rss_mb", F(peak_rss_mb)),
            ("attempted", U(attempted)),
            ("edits", U(&mut c.edits)),
            ("inserts", U(&mut c.inserts)),
            ("deletes", U(&mut c.deletes)),
            ("wire_bytes", U(&mut c.wire_bytes)),
            ("envelopes", U(&mut c.envelopes)),
            ("envelope_ops", U(&mut c.envelope_ops)),
            ("msgs", U(&mut c.msgs)),
            ("records_replayed", U(&mut c.records_replayed)),
            ("bytes_recovered", U(&mut c.bytes_recovered)),
            ("height", U(&mut c.height)),
            ("posid_bits", U(&mut c.posid_bits)),
            ("posid_slots", U(&mut c.posid_slots)),
            ("index_bytes", U(&mut c.index_bytes)),
            ("live_atoms", U(&mut c.live_atoms)),
            ("arrivals", U(&mut c.arrivals)),
            ("held_arrivals", U(&mut c.held_arrivals)),
            ("holdback_max", U(&mut c.holdback_max)),
            ("fault_ins", U(&mut c.fault_ins)),
            ("evictions", U(&mut c.evictions)),
            ("segment_appends", U(&mut c.segment_appends)),
            ("commits", U(&mut c.commits)),
            ("cold_ops", U(&mut c.cold_ops)),
            ("telemetry.node_ops", U(&mut t.node_ops)),
            ("telemetry.node_fault_ins", U(&mut t.node_fault_ins)),
            ("telemetry.node_evictions", U(&mut t.node_evictions)),
            ("telemetry.gwal_flushes", U(&mut t.gwal_flushes)),
            ("telemetry.gwal_flush_records", U(&mut t.gwal_flush_records)),
            ("telemetry.snapshots_written", U(&mut t.snapshots_written)),
        ];
        for (names, io) in IO_FIELDS.iter().zip([&mut c.io, recovery_io]) {
            let IoStats {
                read,
                write,
                append,
            } = io;
            for (names, m) in names.iter().zip([read, write, append]) {
                let MethodStats {
                    calls,
                    bytes,
                    nanos,
                } = m;
                fields.extend(names.iter().copied().zip([U(calls), U(bytes), U(nanos)]));
            }
        }
        fields
    }

    /// The episode as text, one `<name> <value>` line per number and one
    /// `failure <what>` line per failure: how a child process hands its
    /// episode to the run.
    pub fn to_text(&self) -> String {
        let mut copy = self.clone();
        let mut out = String::new();
        for (name, field) in copy.fields() {
            match field {
                Field::U(v) => out.push_str(&format!("{name} {v}\n")),
                Field::F(v) => out.push_str(&format!("{name} {v:?}\n")),
            }
        }
        for f in &self.failures {
            out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        out
    }

    /// Reads back [`Episode::to_text`]; lines of other names are ignored.
    /// `None` when a number is missing or does not parse.
    pub fn from_text(text: &str) -> Option<Episode> {
        let mut ep = Episode::default();
        let mut failures = Vec::new();
        let mut values: std::collections::HashMap<&str, &str> = Default::default();
        for line in text.lines() {
            let (key, value) = line.split_once(' ')?;
            if key == "failure" {
                failures.push(value.to_string());
            } else {
                values.insert(key, value);
            }
        }
        for (name, field) in ep.fields() {
            let value = values.get(name)?;
            match field {
                Field::U(v) => *v = value.parse().ok()?,
                Field::F(v) => *v = value.parse().ok()?,
            }
        }
        ep.failures = failures;
        Some(ep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_round_trips() {
        let mut ep = Episode {
            setup_s: 0.125,
            loop_s: 1.0 / 3.0,
            peak_rss_mb: 7.5,
            attempted: 9,
            failures: vec!["one\nline".into(), "two".into()],
            ..Episode::default()
        };
        ep.counts.io.append.nanos = 42;
        ep.recovery_io.read.bytes = 7;
        ep.counts.telemetry.gwal_flushes = 3;
        ep.latency.p99_ns = 11;
        let back = Episode::from_text(&ep.to_text()).expect("parses");
        assert_eq!(back.to_text(), ep.to_text());
        assert_eq!(back.loop_s, ep.loop_s);
        assert_eq!(back.counts, ep.counts);
        assert_eq!(back.failures, vec!["one line".to_string(), "two".into()]);
        assert!(Episode::from_text("setup_s 1.0\n").is_none());
    }
}

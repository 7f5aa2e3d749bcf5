//! Observability end to end: run a faulty multi-site editing session and a
//! crash-prone hosting node with one live telemetry registry, then read the
//! run back two ways — the metrics snapshot (counters, gauges, histogram
//! percentiles) and the per-site trace timeline the ring buffer retained.
//!
//! Run with `cargo run --example observability`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treedoc_repro::prelude::*;
use treedoc_repro::sim::{run_with, Zipf};

fn main() {
    // One registry observes everything; every subsystem handle is resolved
    // from it. The ring keeps the last 256 span/event records.
    let registry = Registry::with_trace_capacity(256);
    let telemetry = registry.handle();

    // -- Act 1: a lossy, crash-prone replicated session ---------------------
    // Site 2 crashes at round 4 and recovers from its store at round 8,
    // while the network drops and duplicates messages. The report's counts
    // are this registry's counters (an uninstrumented run counts into a
    // private registry and reports the same) — telemetry observes, it never
    // steers.
    let scenario = Scenario::crash_faulty(1, 4, 8);
    let report = run_with(&scenario, &telemetry);
    println!(
        "faulty session: {} ops, {} dropped msgs, {} retransmitted, crash recovered {} WAL records",
        report.ops_generated,
        report.messages_dropped,
        report.retransmissions,
        report.wal_records_replayed
    );

    // -- Act 2: a hosting node under Zipf load with a tiny resident set ----
    // 60 sessions over 100 documents with room for only 6 warm ones: the
    // cold tail is repeatedly evicted and faulted back in, which is exactly
    // the traffic the `node.*` instruments and trace events record.
    let config = NodeConfig {
        shards: 2,
        max_resident: 6,
        site: 7,
    };
    let mut node = HostingNode::new(config);
    node.set_telemetry(&telemetry);
    let zipf = Zipf::new(100, 1.1);
    let mut rng = StdRng::seed_from_u64(11);
    for session_no in 0..60 {
        let doc = zipf.sample(&mut rng) as DocId;
        let session = node.connect(&format!("user-{session_no}"), doc).unwrap();
        let len = node.contents(doc).unwrap().chars().count();
        for (i, ch) in "edit".chars().enumerate() {
            node.insert(session, len + i, ch).unwrap();
        }
        node.disconnect(session).unwrap();
        if session_no % 8 == 7 {
            node.commit().unwrap();
        }
    }
    node.commit().unwrap();
    println!(
        "hosting node: {} docs hosted, {} resident, {} evictions",
        node.hosted_count(),
        node.resident_count(),
        node.stats().evictions
    );
    println!();

    // -- Reading the run back: the metrics snapshot -------------------------
    let snapshot = registry.snapshot();
    println!("metrics snapshot ({} counters):", snapshot.counters.len());
    // A stamp is one `replica.stamp_micros` record: the histogram's count is
    // the stamp count.
    let stamps = snapshot
        .histogram("replica.stamp_micros")
        .map_or(0, |h| h.count);
    println!("  {:<26} {stamps}", "stamps (stamp_micros)");
    for name in [
        "replica.ops_received",
        "replica.ops_applied",
        "replica.retransmissions",
        "sim.wire_bytes",
        "sim.retransmission_bytes",
        "node.ops",
        "node.evictions",
        "node.fault_ins",
        "store.wal_appends",
        "gwal.flush_records",
    ] {
        println!("  {name:<26} {}", snapshot.counter(name).unwrap_or(0));
    }
    println!("latency histograms (µs):");
    for name in [
        "replica.stamp_micros",
        "node.op_micros",
        "node.fault_in_micros",
    ] {
        let h = snapshot.histogram(name).expect("recorded during the run");
        println!(
            "  {name:<26} count={:<6} p50={} p90={} p99={}",
            h.count, h.p50, h.p90, h.p99
        );
    }
    println!();

    // The whole snapshot serialises to JSON, for reports that read their
    // numbers from a finished run.
    println!(
        "snapshot JSON is {} bytes; first 120: {}…",
        snapshot.to_json().len(),
        &snapshot.to_json()[..120]
    );
    println!();

    // -- Reading the run back: the per-site trace timeline ------------------
    // The ring exports JSONL; `parse_jsonl` tolerates truncation, so a dump
    // cut mid-line still yields every intact event.
    let tracer = telemetry.tracer();
    let events = parse_jsonl(&tracer.to_jsonl());
    println!(
        "trace ring retained {} events ({} evicted):",
        events.len(),
        tracer.dropped()
    );
    let mut sites: Vec<u64> = events.iter().map(|e| e.site).collect();
    sites.sort_unstable();
    sites.dedup();
    for site in sites {
        println!("  site {site}:");
        for event in events.iter().filter(|e| e.site == site).take(6) {
            println!(
                "    #{:<4} {:<16} doc={:<10} epoch={} lsn={} bytes={} micros={}",
                event.seq, event.kind, event.doc, event.epoch, event.lsn, event.bytes, event.micros
            );
        }
        let shown = events.iter().filter(|e| e.site == site).count().min(6);
        let total = events.iter().filter(|e| e.site == site).count();
        if total > shown {
            println!("    … and {} more", total - shown);
        }
    }
}

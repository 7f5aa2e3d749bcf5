//! The multi-document hosting experiment: Zipf-popularity user sessions
//! over a large document population on one `HostingNode`, swept across
//! resident-set sizes. Reports resident memory against the hosted
//! population, evictions, fault-ins and group-commit segment-append counts.
//! `BENCH_node.json` at the repo root pins the committed baseline; CI
//! regenerates it and fails on any difference. Op latencies and
//! restart/refill times are perfbench's `node.*` rows.
//!
//! Run with `cargo run -p bench --bin node_hosting --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed baseline).

use bench::{hosting_sweep, BenchArgs, HostingRow};
use serde::Serialize;

/// Hosted document population (override: `NODE_HOSTING_DOCS`).
const DOCUMENTS: usize = 1500;
/// User sessions driven through the node (override: `NODE_HOSTING_SESSIONS`).
const SESSIONS: usize = 400;
/// Resident-set capacities swept.
const RESIDENTS: [usize; 3] = [16, 64, 256];

fn scale(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[derive(Serialize)]
struct Output {
    documents: usize,
    sessions: usize,
    hosting: Vec<HostingRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let documents = scale("NODE_HOSTING_DOCS", DOCUMENTS);
    let sessions = scale("NODE_HOSTING_SESSIONS", SESSIONS);
    let hosting = hosting_sweep(documents, sessions, &RESIDENTS);

    // Sanity-check before publishing an artifact: the hosting claims must
    // hold at every sweep point, on both output paths.
    for row in &hosting {
        assert!(
            row.hosted_docs >= row.max_resident.min(row.hosted_docs),
            "dead workload: {row:?}"
        );
        assert!(
            row.segment_appends < row.ops,
            "group commit must keep segment appends under one per op: {row:?}"
        );
    }
    // Smaller resident sets must not hold more memory than larger ones.
    for pair in hosting.windows(2) {
        assert!(
            pair[0].resident_bytes <= pair[1].resident_bytes * 2,
            "resident memory should grow with capacity: {pair:?}"
        );
    }

    let out = Output {
        documents,
        sessions,
        hosting,
    };
    if args.emit(&out) {
        return;
    }
    let Output { hosting, .. } = out;

    println!("Multi-document hosting ({documents} docs, {sessions} Zipf sessions, 4 shards):");
    println!(
        "{:>14} {:>7} {:>8} {:>12} {:>9} {:>9} {:>9}",
        "case", "hosted", "ops", "res. bytes", "evicts", "faults", "appends"
    );
    for row in &hosting {
        println!(
            "{:>14} {:>7} {:>8} {:>12} {:>9} {:>9} {:>9}",
            row.case,
            row.hosted_docs,
            row.ops,
            row.resident_bytes,
            row.evictions,
            row.fault_ins,
            row.segment_appends
        );
    }
}

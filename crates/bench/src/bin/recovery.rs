//! The crash-recovery cost experiment: what a cold restart reads back and
//! replays versus operations-since-snapshot — the compaction story the
//! paper implies (flatten as the natural clean-up point, §4.2.1) but never
//! measures. The restart's wall time is perfbench's
//! `storage.recover_ns_per_record`, a WAL append's `storage.append_ns`.
//! A second table splits one checkpoint of each document shape the
//! end-to-end workloads snapshot into its manifest, `doc.runs` header,
//! run records and `replica` section.
//!
//! Run with `cargo run -p bench --bin recovery --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed `BENCH_recovery.json` baseline CI regenerates exactly).

use bench::{
    recovery_cost_grid, snapshot_bytes_table, BenchArgs, RecoveryCostRow, SnapshotBytesRow,
};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    recovery: Vec<RecoveryCostRow>,
    snapshot_bytes: Vec<SnapshotBytesRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let recovery = recovery_cost_grid(&[0, 50, 200, 800]);
    // Sanity-check the grid on BOTH output paths: a silently wrong baseline
    // is worse than a red job.
    for row in &recovery {
        assert_eq!(
            row.wal_records_replayed, row.ops_since_snapshot,
            "recovery replayed the wrong number of records: {row:?}"
        );
    }

    let snapshot_bytes = snapshot_bytes_table();
    for row in &snapshot_bytes {
        assert_eq!(
            row.manifest_bytes + row.header_bytes + row.runs_bytes + row.replica_bytes,
            row.total_bytes,
            "a snapshot part is missing from the split: {row:?}"
        );
    }

    let out = Output {
        recovery,
        snapshot_bytes,
    };
    if args.emit(&out) {
        return;
    }

    println!("Cold recovery cost vs. operations since the last snapshot:");
    println!(
        "{:>6} {:>10} {:>9} {:>11}",
        "ops", "wal bytes", "replayed", "read bytes"
    );
    for row in &out.recovery {
        println!(
            "{:>6} {:>10} {:>9} {:>11}",
            row.ops_since_snapshot, row.wal_bytes, row.wal_records_replayed, row.recovered_bytes,
        );
    }
    println!();
    println!("Checkpoint size by part (bytes):");
    println!(
        "{:<17} {:>5} {:>6} {:>9} {:>7} {:>7} {:>8} {:>7}",
        "document", "runs", "cells", "manifest", "header", "runs", "replica", "total"
    );
    for row in &out.snapshot_bytes {
        println!(
            "{:<17} {:>5} {:>6} {:>9} {:>7} {:>7} {:>8} {:>7}",
            row.document,
            row.runs,
            row.cells,
            row.manifest_bytes,
            row.header_bytes,
            row.runs_bytes,
            row.replica_bytes,
            row.total_bytes,
        );
    }
}

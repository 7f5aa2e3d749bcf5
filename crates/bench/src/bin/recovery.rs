//! The crash-recovery cost experiment: what a cold restart reads back and
//! replays versus operations-since-snapshot — the compaction story the
//! paper implies (flatten as the natural clean-up point, §4.2.1) but never
//! measures. The restart's wall time is perfbench's
//! `storage.recover_ns_per_record`, a WAL append's `storage.append_ns`.
//!
//! Run with `cargo run -p bench --bin recovery --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed `BENCH_recovery.json` baseline CI regenerates exactly).

use bench::{recovery_cost_grid, BenchArgs, RecoveryCostRow};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    recovery: Vec<RecoveryCostRow>,
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

    let out = Output { recovery };
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
}

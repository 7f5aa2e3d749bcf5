//! The anti-entropy vs retransmission experiment: recovery cost in encoded
//! wire bytes across loss rate × offline gap × mechanism, plus the bytes a
//! snapshot bootstrap ships to a late joiner. The baseline
//! re-ships unacked windows and broadcasts cumulative acks until every log
//! clears; anti-entropy walks merkle digests and ships only the missing
//! runs of cells, so it wins once losses (or an offline gap) make the
//! unacked windows large.
//!
//! Run with `cargo run -p bench --bin sync_cost --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed `BENCH_sync.json` baseline, which CI
//! regenerates and requires byte-identical).

use bench::{sync_cost_grid, BenchArgs, SyncCostRow};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    sync_vs_retransmission: Vec<SyncCostRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let sync_vs_retransmission = sync_cost_grid(3, 60);

    // Sanity-check both output paths: a silently wrong artifact is worse
    // than a red job.
    for row in &sync_vs_retransmission {
        assert!(row.converged, "sync-cost cell diverged: {row:?}");
        assert_eq!(
            row.late_join,
            row.snapshot_bytes > 0,
            "only the late joiner bootstraps: {row:?}"
        );
    }
    // The headline claim: at every lossy or gapped cell, anti-entropy's
    // digest walk costs fewer recovery bytes than the retransmission
    // baseline at the same coordinates.
    for sync in sync_vs_retransmission
        .iter()
        .filter(|r| r.anti_entropy && (r.drop_prob >= 0.05 || r.offline_gap))
    {
        let baseline = sync_vs_retransmission
            .iter()
            .find(|r| {
                !r.anti_entropy
                    && r.drop_prob == sync.drop_prob
                    && r.offline_gap == sync.offline_gap
            })
            .expect("every cell has a baseline twin");
        assert!(
            sync.recovery_bytes < baseline.recovery_bytes,
            "anti-entropy lost to retransmission: {sync:?} vs {baseline:?}"
        );
    }

    let out = Output {
        sync_vs_retransmission,
    };
    if args.emit(&out) {
        return;
    }
    let Output {
        sync_vs_retransmission,
    } = out;

    println!("Anti-entropy vs retransmission (3 sites, 60 edits/site, per-op envelopes):");
    println!(
        "  loss  members     mechanism    ops    rec bytes     rec B/op  digests     runs  snapshot"
    );
    for row in &sync_vs_retransmission {
        println!(
            "{:>5.0}% {:>8} {:>13} {:>6} {:>12} {:>12.1} {:>8} {:>8} {:>9}",
            row.drop_prob * 100.0,
            match (row.offline_gap, row.late_join) {
                (true, _) => "gap",
                (_, true) => "join",
                _ => "-",
            },
            if row.anti_entropy {
                "anti-entropy"
            } else {
                "retransmit"
            },
            row.ops,
            row.recovery_bytes,
            row.recovery_bytes_per_op,
            row.sync_digest_msgs,
            row.sync_run_msgs,
            row.snapshot_bytes,
        );
    }
    println!();
    println!(
        "recovery bytes = retransmission + ack traffic (baseline) or digest\n\
         walk + cell runs (anti-entropy); lower is better. Initial op\n\
         broadcasts cost the same in both modes and are excluded. The join\n\
         row's snapshot bytes bootstrap its last site halfway through."
    );
}

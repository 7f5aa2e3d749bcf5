//! The distributed-flatten cost experiment the paper leaves unevaluated
//! ("We cannot yet evaluate the cost of a distributed flatten", §4.2.1):
//! 2PC and 3PC flatten commitment carried as real messages over the lossy,
//! partitioned simulated network, plus the scripted coordinator-partition
//! comparison (blocked 2PC versus non-blocking 3PC).
//!
//! Run with `cargo run -p bench --bin flatten_commit --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed `BENCH_flatten.json` baseline, which CI
//! regenerates and requires byte-identical).

use bench::BenchArgs;
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    grid: Vec<bench::FlattenCostRow>,
    partition_comparison: Vec<treedoc_sim::PartitionedCommitReport>,
}

fn main() {
    let args = BenchArgs::from_env();
    let grid = bench::distributed_flatten_grid(4, 60);
    let partition_comparison = bench::partition_comparison(4, 2026);

    // Sanity-check before publishing an artifact, not only on the table
    // path: a diverged cell must fail the baseline refresh too.
    for row in &grid {
        assert!(row.converged, "cell diverged: {row:?}");
    }
    for report in &partition_comparison {
        assert!(report.converged, "demo diverged: {report:?}");
    }

    let out = Output {
        grid,
        partition_comparison,
    };
    if args.emit(&out) {
        return;
    }
    let Output {
        grid,
        partition_comparison,
    } = out;

    println!("Distributed flatten commitment cost (4 sites, 60 edits/site).");
    println!(
        "{:<5} {:>6} {:>10} {:>9} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9} {:>10}",
        "proto",
        "drop",
        "partition",
        "proposals",
        "commits",
        "aborts",
        "msgs",
        "bytes",
        "rounds",
        "blocked",
        "unilateral"
    );
    for row in &grid {
        println!(
            "{:<5} {:>6.2} {:>10} {:>9} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9} {:>10}",
            row.protocol,
            row.drop_prob,
            row.partition,
            row.proposals,
            row.commits,
            row.aborts,
            row.protocol_messages,
            row.protocol_bytes,
            row.commit_rounds,
            row.blocked_rounds,
            row.unilateral_commits
        );
    }

    println!();
    println!("Coordinator partitioned after every participant promised to commit:");
    println!(
        "{:<5} {:>22} {:>10} {:>9} {:>9} {:>8}",
        "proto", "committed-in-partition", "blocked", "msgs", "bytes", "rounds"
    );
    for report in &partition_comparison {
        println!(
            "{:<5} {:>22} {:>10} {:>9} {:>9} {:>8}",
            report.protocol.label(),
            format!("{}/{}", report.committed_during_partition, report.sites - 1),
            report.blocked_ticks,
            report.protocol_messages,
            report.protocol_bytes,
            report.commit_rounds
        );
    }
}

//! The wire and storage overhead experiment: bytes-per-op of the binary
//! codec (per-op and batched) against a JSON encoding of the same
//! envelopes, the single-op envelope bytes of keystroke typing at 1k, 10k
//! and 100k keystrokes, the WAL size of a logged typing session, and the
//! batch-size ×
//! loss sweep over the simulated faulty network — the §5.2 overhead evaluation applied to the
//! replication and durability hot paths.
//!
//! Run with `cargo run -p bench --bin wire_bytes --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed `BENCH_wire.json` baseline, which CI
//! regenerates and requires byte-identical).

use bench::{
    single_op_envelope_bytes, wal_format_comparison, wire_cost_grid, wire_encoding_comparison,
    BenchArgs, SingleOpEnvelopeRow, WalFormatRow, WireCostRow, WireEncodingRow,
};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    encoding: Vec<WireEncodingRow>,
    single_op: Vec<SingleOpEnvelopeRow>,
    wal_format: WalFormatRow,
    distributed: Vec<WireCostRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let encoding = wire_encoding_comparison(512, &[8, 32, 128]);
    let single_op = single_op_envelope_bytes(&[1_000, 10_000, 100_000]);
    let wal_format = wal_format_comparison(256);
    let distributed = wire_cost_grid(3, 60);

    // Sanity-check both output paths: a silently wrong artifact is worse
    // than a red job.
    for row in &distributed {
        assert!(row.converged, "wire-cost cell diverged: {row:?}");
    }

    let out = Output {
        encoding,
        single_op,
        wal_format,
        distributed,
    };
    if args.emit(&out) {
        return;
    }
    let Output {
        encoding,
        single_op,
        wal_format,
        distributed,
    } = out;

    println!("Sequential-typing session, 512 ops, encoded wire cost:");
    println!(
        "{:>18} {:>12} {:>12}",
        "transport", "total bytes", "bytes/op"
    );
    for row in &encoding {
        println!(
            "{:>18} {:>12} {:>12.1}",
            row.transport, row.total_bytes, row.bytes_per_op
        );
    }

    println!();
    println!("Keystroke typing, one envelope per key (chained to the previous stamp):");
    println!(
        "{:>10} {:>12} {:>14} {:>10} {:>14}",
        "keys", "total bytes", "bytes/envelope", "last", "last absolute"
    );
    for row in &single_op {
        println!(
            "{:>10} {:>12} {:>14.2} {:>10} {:>14}",
            row.keystrokes,
            row.total_bytes,
            row.bytes_per_envelope,
            row.last_envelope_bytes,
            row.last_absolute_bytes
        );
    }

    println!();
    println!(
        "WAL size, {} logged edits: {} B",
        wal_format.records, wal_format.binary_bytes
    );

    println!();
    println!("Distributed sweep (3 sites, 60 edits/site, measured on the wire):");
    println!(
        "{:>6} {:>6} {:>6} {:>12} {:>10} {:>10} {:>9}",
        "batch", "loss", "ops", "net bytes", "bytes/op", "messages", "batches"
    );
    for row in &distributed {
        println!(
            "{:>6} {:>6} {:>6} {:>12} {:>10.1} {:>10} {:>9}",
            row.batch_max_ops,
            row.drop_prob,
            row.ops,
            row.network_bytes,
            row.bytes_per_op,
            row.messages_delivered,
            row.op_batches_sent
        );
    }
}

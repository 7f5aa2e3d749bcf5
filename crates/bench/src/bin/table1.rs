//! Regenerates **Table 1** of the paper: per-document measurements (PosID
//! sizes, node counts, memory overhead, tombstone fraction, on-disk overhead)
//! for flatten settings none / 1 / 2 / 8.
//!
//! Run with `cargo run -p bench --bin table1 --release`.
//! Pass `--json` to emit machine-readable output (the counts only; the
//! replay times of the §5.2 remark are printed in the table).

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let rows = bench::table1();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("Table 1. Measurements (SDIS, no balancing). Paper: ICDCS'09, §5.");
    println!(
        "{:<24} {:>10} | {:>5} {:>7} | {:>6} {:>9} {:>8} {:>9} | {:>9} {:>7} | {:>8}",
        "Document",
        "Flatten",
        "Max",
        "Avg",
        "Nodes",
        "bytes",
        "MemOvhd",
        "%nonTomb",
        "disk B",
        "%doc",
        "elapsed"
    );
    for row in rows {
        println!(
            "{:<24} {:>10} | {:>5} {:>7.2} | {:>6} {:>9} {:>8.2} {:>8.2}% | {:>9} {:>6.2}% | {:>7.0?}",
            row.document,
            row.flatten,
            row.max_pos_id_bits,
            row.avg_pos_id_bits,
            row.nodes,
            row.node_bytes,
            row.mem_overhead,
            row.non_tombstone_pct,
            row.disk_bytes,
            row.disk_pct,
            row.elapsed,
        );
    }
    println!();
    println!(
        "§5.2 CPU-cost check: the most active document replays in the time shown in its rows above"
    );
    println!("(the paper reports < 1.44 s for the 870-revision Wikipedia entry).");
}

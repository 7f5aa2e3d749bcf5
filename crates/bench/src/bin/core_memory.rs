//! Memory-per-char of the identifier index: a sequentially typed document
//! (the run-coalescing best case) against a flattened one of the same
//! length. `BENCH_core.json` at the repo root pins the committed baseline;
//! CI regenerates it and fails on any difference. The core's edit and
//! replay times are perfbench's `core.local_edit_ns` and
//! `replica.receive_ns` rows.
//!
//! Run with `cargo run -p bench --bin core_memory --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed baseline).

use bench::{core_memory_cases, BenchArgs, CoreMemoryRow};
use serde::Serialize;

/// Characters in the memory-per-char documents.
const MEMORY_CHARS: usize = 20_000;

#[derive(Serialize)]
struct Output {
    memory_chars: usize,
    memory: Vec<CoreMemoryRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let memory = core_memory_cases(MEMORY_CHARS);

    // Sanity-check before publishing an artifact: a short document means the
    // harness itself broke.
    for row in &memory {
        assert_eq!(row.live_atoms, MEMORY_CHARS, "short document: {row:?}");
    }

    let out = Output {
        memory_chars: MEMORY_CHARS,
        memory,
    };
    if args.emit(&out) {
        return;
    }

    println!("Memory per char, {MEMORY_CHARS}-char documents:");
    println!(
        "{:>18} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "case", "atoms", "index B", "B/char", "paper B", "height"
    );
    for row in &out.memory {
        println!(
            "{:>18} {:>10} {:>12} {:>12.1} {:>10} {:>8}",
            row.case,
            row.live_atoms,
            row.index_bytes,
            row.index_bytes_per_char,
            row.paper_model_bytes,
            row.height
        );
    }
}

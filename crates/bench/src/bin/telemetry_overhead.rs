//! The observability layer's own cost: the sequential-typing `Replica`
//! stamp workload timed with telemetry absent, disabled (inert handle), and
//! enabled (live registry). The acceptance bound this bin checks is that an
//! enabled registry costs less than 5% on the hot path and a disabled
//! handle is indistinguishable from no telemetry at all. The results are
//! printed (and written to `--out`) first; a run over either bound then
//! exits with status 1. Being a timing, it has no committed baseline; CI
//! runs it in a non-blocking job of its own.
//!
//! Run with `cargo run -p bench --bin telemetry_overhead --release`
//! (add `--json` for machine-readable output, `--out PATH` to keep it).

use bench::{telemetry_overhead_cases, BenchArgs, OverheadRow, OVERHEAD_TRIALS};
use serde::Serialize;

/// Stamped operations per trial (override: `TELEMETRY_OVERHEAD_OPS`).
const OPS: usize = 4_000;

/// Noise headroom on the disabled variant: best-of minimums still jitter a
/// little on shared runners, so "indistinguishable" is asserted as <4%.
const DISABLED_BOUND_PCT: f64 = 4.0;
/// The acceptance bound on the enabled variant.
const ENABLED_BOUND_PCT: f64 = 5.0;

#[derive(Serialize)]
struct Output {
    ops: usize,
    trials: usize,
    overhead: Vec<OverheadRow>,
}

fn main() {
    let args = BenchArgs::from_env();
    let ops = std::env::var("TELEMETRY_OVERHEAD_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(OPS);
    let overhead = telemetry_overhead_cases(ops);
    let overhead_of = |case: &str| -> f64 {
        overhead
            .iter()
            .find(|r| r.case == case)
            .unwrap_or_else(|| panic!("variant {case} missing"))
            .overhead_pct
    };
    let disabled_pct = overhead_of("disabled");
    let enabled_pct = overhead_of("enabled");

    // Publish first, then judge: a run over its bounds still leaves its
    // numbers behind for whoever has to explain them.
    let out = Output {
        ops,
        trials: OVERHEAD_TRIALS,
        overhead,
    };
    if !args.emit(&out) {
        print_table(ops, &out.overhead);
    }

    let mut exceeded = false;
    if disabled_pct >= DISABLED_BOUND_PCT {
        eprintln!(
            "a disabled telemetry handle must be free on the stamp path: \
             {disabled_pct:.2}% overhead (bound {DISABLED_BOUND_PCT}%)"
        );
        exceeded = true;
    }
    if enabled_pct >= ENABLED_BOUND_PCT {
        eprintln!(
            "an enabled registry must stay under the acceptance bound on the \
             stamp path: {enabled_pct:.2}% overhead (bound {ENABLED_BOUND_PCT}%)"
        );
        exceeded = true;
    }
    if exceeded {
        std::process::exit(1);
    }
}

fn print_table(ops: usize, overhead: &[OverheadRow]) {
    println!("Telemetry overhead ({ops} stamped ops, best of {OVERHEAD_TRIALS} trials):");
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "case", "elapsed µs", "ops/sec", "overhead"
    );
    for row in overhead {
        println!(
            "{:>10} {:>12} {:>14.0} {:>9.2}%",
            row.case, row.elapsed_micros, row.ops_per_sec, row.overhead_pct
        );
    }
    println!();
    println!(
        "baseline = no telemetry call at all; disabled = inert handle (one\n\
         None branch per instrument); enabled = live registry (atomic\n\
         counter + histogram record per op). Bounds checked after printing:\n\
         disabled <{DISABLED_BOUND_PCT}%, enabled <{ENABLED_BOUND_PCT}%."
    );
}

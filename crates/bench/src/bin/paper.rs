//! The paper's own evaluation as one deterministic baseline: Tables 1–5 and
//! the Figure 6 timeline (`acf.tex`, flatten every 2 revisions), as the
//! `table*` and `figure6` binaries compute them. `BENCH_paper.json` at the
//! repo root pins it; CI regenerates it and fails on any difference.
//! Table 1's replay times are not part of it (see `table1`).
//!
//! Run with `cargo run -p bench --bin paper --release`
//! (add `--json` for machine-readable output, `--out PATH` to refresh the
//! committed baseline).

use bench::{BenchArgs, GridCell, Table1Row, Table2Row, Table5Row};
use serde::Serialize;
use treedoc_trace::RevisionPoint;

/// The Figure 6 flatten setting, as in the paper's plot.
const FIGURE6_FLATTEN: Option<usize> = Some(2);

#[derive(Serialize)]
struct Figure6 {
    flatten: String,
    timeline: Vec<RevisionPoint>,
}

#[derive(Serialize)]
struct Output {
    table1: Vec<Table1Row>,
    table2: Vec<Table2Row>,
    table3: Vec<GridCell>,
    table4: Vec<GridCell>,
    table5: Vec<Table5Row>,
    figure6: Figure6,
}

fn main() {
    let args = BenchArgs::from_env();
    let out = Output {
        table1: bench::table1(),
        table2: bench::table2(),
        table3: bench::table3(),
        table4: bench::table4(),
        table5: bench::table5(),
        figure6: Figure6 {
            flatten: bench::flatten_label(FIGURE6_FLATTEN),
            timeline: bench::figure6(FIGURE6_FLATTEN).timeline,
        },
    };
    if args.emit(&out) {
        return;
    }
    println!("The paper's evaluation (§5), row counts; `--json` prints the rows and the");
    println!("`table1`..`table5`, `figure6` binaries lay each one out like the paper:");
    println!("  table1: {} rows", out.table1.len());
    println!("  table2: {} rows", out.table2.len());
    println!("  table3: {} cells", out.table3.len());
    println!("  table4: {} cells", out.table4.len());
    println!("  table5: {} rows", out.table5.len());
    println!(
        "  figure6 ({}): {} revisions",
        out.figure6.flatten,
        out.figure6.timeline.len()
    );
}

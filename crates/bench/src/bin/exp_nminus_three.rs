//! Experiment E5 (Theorem 7): NminusThree — phase-1 length and the three-move
//! clearing cycle with `k = n - 3` robots.
//!
//! ```text
//! cargo run --release -p rr-bench --bin exp_nminus_three -- [--quick] [--json <path>] [--seed <u64>] [--sequential] [--ledger <path>] [--cache <dir>]
//! ```

use rr_bench::grid::preset;
use rr_bench::sweep::ExpArgs;

const USAGE: &str = "\
usage: exp_nminus_three [--quick] [--json <path>] [--seed <u64>] [--sequential]
                        [--ledger <path>] [--cache <dir>]";

fn main() {
    let args = ExpArgs::parse(0xE5, USAGE);
    let spec = preset("nminus3", args.quick, Some(args.root_seed)).expect("builtin preset");
    let run = args.run_grid(&spec);

    println!("# E5 — NminusThree (k = n-3): clearings and steady period");
    if let Some(records) = run.records.sweep().filter(|r| !r.is_empty()) {
        println!(
            "{:>4} {:>4} {:>10} {:>14} {:>12} {:>10}",
            "n", "k", "clearings", "steady period", "exploration", "moves"
        );
        for r in records {
            println!(
                "{:>4} {:>4} {:>10} {:>14} {:>12} {:>10}",
                r.n, r.k, r.clearings, r.steady_period, r.explorations, r.moves
            );
        }
        println!();
        println!(
            "# shape check: in the steady state the ring is cleared every 3 moves (the R2.1 ->"
        );
        println!("# R2.2 -> R2.3 cycle of Section 4.4), independently of n.");
    }

    args.finish_grid(&spec, &run);
}
